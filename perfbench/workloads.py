"""The fairdiv benchmark workloads.

Each builder takes the workload seed, the index of an input set and a work
directory, generates that set's inputs there with ``fairdiv.generators``
(the set-up), and returns the requests one pass over the set sends. Every
request drives the public CLI in-process through ``fairdiv.cli.main``,
except ``run_mms_high``, which the CLI never reaches on these inputs. Each
request carries a check of its own output; a check raises ``Wrong`` when the
output is not right.

``tiny`` shrinks every size so the self-test can run each workload in a
fraction of a second.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import zlib
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import fairdiv.cli
import fairdiv.mms
from fairdiv.errors import InfeasibleError
from fairdiv.exact import sqrt_ge
from fairdiv.fairness import is_alpha_mms, is_ef1, social_welfare
from fairdiv.experiment import (ExperimentConfig, _build_instance,
                               _instance_jobs)
from fairdiv.generators import generate_random
from fairdiv.model import (Allocation, save_allocation, save_instance,
                           validate_allocation)
from fairdiv.oracles import (MmsProfile, injected_profile, max_welfare,
                             mms_lower_bound, mms_profile)
from fairdiv.mms import prop1_subroutine

HALF = Fraction(1, 2)
# The sha256 of the sweep CSV at one seed, recorded from the program.
EXPECTED_SWEEP = Path(__file__).resolve().parent / "expected.json"


class Wrong(Exception):
    """An output that fails its check."""


class SetupError(Exception):
    """Set-up could not build a workload's inputs."""


@dataclass
class Request:
    label: str
    run: Callable[[], object]
    check: Callable[[object], None]
    passed: object = None       # the last output that passed `check`

    def verify(self, out) -> None:
        """Check `out`, unless it equals an output that passed before: the
        program is deterministic, so a repeat needs only the comparison."""
        if self.passed is None or out != self.passed:
            self.check(out)
            self.passed = out


@dataclass
class CliResult:
    code: int
    out: str
    err: str


def cli(*argv: str) -> CliResult:
    """One CLI request, in-process, with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = fairdiv.cli.main(list(argv))
        except SystemExit as exc:       # argparse rejects the arguments
            code = exc.code
    return CliResult(code, out.getvalue(), err.getvalue())


def cli_request(label: str, argv: list[str], check) -> Request:
    return Request(label, lambda: cli(*argv), check)


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise Wrong(what)


def _require_setup(ok: bool, what: str) -> None:
    if not ok:
        raise SetupError(f"{what} fails its guarantee")


def _json_output(res: CliResult, code: int = 0) -> dict:
    _require(res.code == code, f"exit code {res.code}, expected {code}: "
             f"{res.err.strip()}")
    return json.loads(res.out)


def _derived_seed(seed: int, *parts) -> int:
    return zlib.crc32("|".join(map(str, (seed,) + parts)).encode())


def _allocation(bundles) -> Allocation:
    return Allocation.of([g - 1 for g in b] for b in bundles)


def _total(inst) -> Fraction:
    return sum((inst.total_value(i) for i in range(inst.n)), Fraction(0))


def _subadditive(inst) -> bool:
    return inst.additive or all(v.subadditive for v in inst.valuations)


def _mms_upper_bounds(inst) -> tuple[Fraction, ...]:
    """An upper bound on each additive agent's maximin share. Among any n
    bundles at least n - j hold none of the agent's j most valuable goods,
    so the least of them is worth at most (v([m]) - top_j) / (n - j)."""
    bounds = []
    for v in inst.valuations:
        vals = sorted(v.values, reverse=True)
        total = sum(vals, Fraction(0))
        bounds.append(min((total - sum(vals[:j], Fraction(0))) / (inst.n - j)
                          for j in range(inst.n)))
    return tuple(bounds)


def mms_reference(inst) -> MmsProfile:
    """The exact MMS profile, or, beyond the oracle's cap, a profile of
    upper bounds: an allocation that is 1/2-MMS against upper bounds is
    1/2-MMS."""
    try:
        return mms_profile(inst)
    except InfeasibleError:
        return MmsProfile(mms=_mms_upper_bounds(inst))


def check_solve(inst, floor, profile=None):
    """Check of a `solve` output: a complete allocation whose reported
    welfare is its own, which is EF1 (or 1/2-MMS against `profile`), and
    whose welfare meets floor * n * SW >= sum_i v_i([m])."""
    total = _total(inst)

    def check(res: CliResult) -> None:
        data = _json_output(res)
        alloc = _allocation(data["allocation"])
        validate_allocation(alloc, inst, require_complete=True)
        welfare = social_welfare(inst, alloc)
        _require(Fraction(data["welfare"]) == welfare,
                 f"reported welfare {data['welfare']} is not {welfare}")
        if profile is None:
            _require(is_ef1(inst, alloc).holds, "allocation is not EF1")
        else:
            _require(is_alpha_mms(inst, alloc, HALF, profile).holds,
                     "allocation is not 1/2-MMS")
        _require(floor * inst.n * welfare >= total,
                 f"welfare {welfare} below total/({floor}n)")
    return check


def check_verdict(holds: bool):
    """Check of a `check` output: exit code and verdict as expected."""
    def check(res: CliResult) -> None:
        data = _json_output(res, 0 if holds else 1)
        _require(data["holds"] is holds, f"verdict {data['holds']}, "
                 f"expected {holds}")
    return check


# (n, instances of that size in one input set). With 52 requests, the
# median falls in the middle of the ten half-mms solves at n=16, and the
# tail (the eleventh slowest) in the middle of the ten EF1 solves at n=16,
# below the three EF1 solves at n=24 and n=32: each inside a group of like
# requests, not in a gap between two kinds, where it would jump from run to
# run.
SOLVE_SIZES = ((16, 10), (24, 2), (32, 1))
TINY_SOLVE_SIZES = ((3, 1), (4, 1))


def solve_additive(seed: int, index: int, work: Path,
                   tiny: bool = False) -> list[Request]:
    """EF1 and 1/2-MMS solves on dirichlet-scaled instances with m = 4n, an
    EF1 check of a round-robin allocation, and run_mms_high on estimates
    from mms_lower_bound."""
    requests = []
    for n, count in (TINY_SOLVE_SIZES if tiny else SOLVE_SIZES):
        for k in range(count):
            requests += _solve_additive_instance(seed, work, n,
                                                 f"{index}-{k}")
    return requests


def _solve_additive_instance(seed: int, work: Path, n: int,
                             k: str) -> list[Request]:
    m = 4 * n
    name = f"n{n}-{k}"
    inst = generate_random(n, m, "dirichlet-scaled",
                           seed=_derived_seed(seed, "solve-additive", n, k))
    path = str(work / f"additive-{name}.json")
    save_instance(inst, path)
    # Round-robin is EF1 for additive valuations.
    rr = prop1_subroutine(inst, range(n), range(m))
    _require_setup(is_ef1(inst, rr).holds, "round-robin allocation")
    rr_path = str(work / f"round-robin-{name}.json")
    save_allocation(rr, rr_path)
    profile = injected_profile([mms_lower_bound(v, n)
                                for v in inst.valuations])
    _, opt = max_welfare(inst)
    return [
        cli_request(f"solve-ef1-{name}",
                    ["solve", "--alg", "ef1", "--instance", path],
                    check_solve(inst, 2)),
        cli_request(f"solve-half-mms-{name}",
                    ["solve", "--alg", "half-mms", "--instance", path],
                    check_solve(inst, 3, mms_reference(inst))),
        cli_request(f"check-ef1-{name}",
                    ["check", "--property", "ef1", "--instance", path,
                     "--allocation", rr_path],
                    check_verdict(True)),
        Request(f"mms-high-{name}",
                lambda: fairdiv.mms.run_mms_high(inst, profile),
                _check_mms_high(inst, profile, opt)),
    ]


def _check_mms_high(inst, profile, opt):
    """The high algorithm's guarantees: P and T cover every agent,
    |T| <= 4 sqrt(n), 3 sqrt(n) SW + 4 sqrt(n) >= OPT, and every agent holds
    at least half its estimate."""
    n = inst.n

    def check(run) -> None:
        alloc = run.allocation
        validate_allocation(alloc, inst, require_complete=True)
        _require(run.permanent | run.temporary == frozenset(range(n)),
                 "P and T do not cover every agent")
        _require(sqrt_ge(Fraction(4), Fraction(len(run.temporary)), n),
                 "|T| exceeds 4 sqrt(n)")
        welfare = social_welfare(inst, alloc)
        _require(sqrt_ge(3 * welfare + 4, opt, n),
                 "3 sqrt(n) SW + 4 sqrt(n) < OPT")
        _require(all(2 * inst.value(i, alloc.bundles[i]) >= profile.z(i)
                     for i in range(n)),
                 "an agent holds less than half its estimate")
    return check


# The README's example sweep; the workload seed replaces its seed.
SWEEP_FAMILIES = [
    {"family": "ef1-unscaled", "n": [2, 3, 4, 5, 6]},
    {"family": "mms-scaled-sqrt", "n": [4, 9, 16]},
    {"family": "supermodular", "n": [3], "epsilon": "1/100"},
    {"family": "random", "distribution": "dirichlet-scaled",
     "n": [4], "m": [8], "count": 3},
]
TINY_SWEEP_FAMILIES = [
    {"family": "ef1-unscaled", "n": [2, 3]},
    {"family": "random", "distribution": "dirichlet-scaled",
     "n": [3], "m": [4], "count": 1},
]


def _check_sweep_row(row: dict, inst) -> None:
    """Re-verify one results.json row from its allocation."""
    label = f"{row['instance_id']}/{row['solver']}"
    if row["welfare"] == "skipped":
        _require(row["solver"] == "half-mms" and not inst.additive,
                 f"{label}: skipped")
        return
    alloc = _allocation(row["allocation"])
    validate_allocation(alloc, inst, require_complete=True)
    welfare = social_welfare(inst, alloc)
    _require(Fraction(row["welfare"]) == welfare, f"{label}: welfare")
    _require(Fraction(row["opt"]) == max_welfare(inst)[1], f"{label}: opt")
    total = _total(inst)
    if row["solver"] == "ef1":
        _require(is_ef1(inst, alloc).holds, f"{label}: not EF1")
        if _subadditive(inst):
            _require(2 * inst.n * welfare >= total, f"{label}: below 1/2n")
        return
    _require(3 * inst.n * welfare >= total, f"{label}: below 1/3n")
    try:
        profile = mms_profile(inst)
    except InfeasibleError:
        return
    _require(is_alpha_mms(inst, alloc, HALF, profile).holds,
             f"{label}: not 1/2-MMS")


def pof_sweep(seed: int, index: int, work: Path,
              tiny: bool = False) -> list[Request]:
    """The README experiment sweep. Set 0 sweeps with the workload seed as
    the config seed, later sets with seeds derived from it. Every row of a
    set's first sweep is re-verified; each later sweep's CSV must match the
    first byte for byte, and at the recorded seed the recorded sha256."""
    config_seed = seed if index == 0 else _derived_seed(seed, "pof-sweep",
                                                        index)
    config = {"seed": config_seed, "solvers": ["ef1", "half-mms"],
              "epsilon": "0", "enum_cap": 20000000,
              "mms_state_cap": 1000000000, "jobs": 1, "trace": False,
              "families": TINY_SWEEP_FAMILIES if tiny else SWEEP_FAMILIES}
    config_path = work / "sweep.json"
    config_path.write_text(json.dumps(config, indent=2))
    report = work / "report"
    # The sweep's own instance list, so the checker sees what it solved.
    sweep = ExperimentConfig.from_json(config)
    instances = dict(_build_instance(job, sweep.seed)
                     for job in _instance_jobs(sweep))
    recorded = json.loads(EXPECTED_SWEEP.read_text())["pof-sweep"]
    expected_sha = (recorded["csv_sha256"]
                    if config_seed == recorded["seed"] and not tiny else None)
    first = []

    def sweep():
        res = cli("experiment", "--config", str(config_path),
                  "-o", str(report))
        return res, (report / "results.csv").read_bytes()

    def check(out) -> None:
        res, csv_bytes = out
        data = _json_output(res)
        _require(data["rows"] == 2 * len(instances),
                 f"{data['rows']} rows, expected {2 * len(instances)}")
        if first:
            _require(csv_bytes == first[0],
                     "sweep CSV differs from the first sweep's")
            return
        rows = json.loads((report / "results.json").read_text())["rows"]
        _require(sorted(r["instance_id"] for r in rows)
                 == sorted(list(instances) * 2), "unexpected instance ids")
        for row in rows:
            _check_sweep_row(row, instances[row["instance_id"]])
        sha = hashlib.sha256(csv_bytes).hexdigest()
        _require(expected_sha in (None, sha),
                 f"sweep CSV sha256 {sha}, recorded {expected_sha}")
        first.append(csv_bytes)

    return [Request("experiment", sweep, check)]


@dataclass
class Workload:
    build: Callable[..., list[Request]]
    # How many input sets the passes cycle through.
    sets: int
    # The length of one cycle (one pass over every set) on the machine the
    # benchmark was written on.
    cycle_seconds: float

    def cycles(self, seconds: float) -> int:
        """How many cycles a run of `seconds` sends: a fixed count, so that
        each request is timed by the fastest of as many sends in every
        run, however fast the run goes."""
        return max(2, round(seconds / self.cycle_seconds))


# Every request is sent several times across the run and is timed by its
# fastest sends: the host slows down in spells of seconds to minutes, and
# the fastest sends are the ones it slowed least. More input sets would
# average over more instances but leave fewer sends of each, and the
# instances of one seed differ less than one spell's slowdown, so
# solve-additive sends one set. pof-sweep alternates two config seeds, which
# averages the seed-dependent part of the sweep (its three random
# instances); each config's CSV is compared byte for byte between its
# sweeps.
WORKLOADS = {
    "solve-additive": Workload(solve_additive, 1, 7.0),
    "pof-sweep": Workload(pof_sweep, 2, 5.5),
}
