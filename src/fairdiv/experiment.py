"""Experiment orchestration: sweep instance families, run the solvers and
oracles, and assemble welfare-ratio reports that check every theorem
inequality per row.

A config file names families, size grids, solvers and caps::

    {"seed": 42,
     "solvers": ["ef1", "half-mms"],
     "epsilon": "0",
     "enum_cap": 20000000,
     "mms_state_cap": 1000000000,
     "jobs": 1,
     "trace": false,
     "families": [
       {"family": "ef1-unscaled", "n": [2, 3, 4]},
       {"family": "supermodular", "n": [3], "epsilon": "1/100"},
       {"family": "random", "distribution": "dirichlet-scaled",
        "n": [4], "m": [8], "count": 2}]}

`solvers` is a list of solver names and `epsilon` a rational in [0, 1/2).
Any other top-level key is a `ParseError`, as is a family key outside
`generators.FAMILY_ARGS` and a family entry that names no instance (no
`n`, a random family with no `m`, or an empty list).

Outputs are `results.csv` (fully deterministic: exact rationals plus 6
significant-digit decimal renderings, no timings) and `results.json`
(same rows plus runtime_ms and margins). Oracle cells beyond the enumeration
caps are reported as "skipped", never silently omitted. `BOUNDS` writes each
theorem inequality once, with its exact margin; a failed one aborts the run
with the offending row and trace attached: the bounds are proven guarantees,
so any violation is an implementation bug.
With `"trace": true` each row also writes `traces/row<i>_<id>_<solver>.json`;
its `high_trace` holds the high-welfare run's steps as `Event.to_json`
objects: `{"phase", "agent", "bundle", "label"}`, agent and goods 1-based.
"""

from __future__ import annotations

import csv
import io
import time
import zlib
from dataclasses import dataclass, fields
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, NamedTuple, Optional

from .errors import FairdivError, InfeasibleError, ParseError, ValidationError
from .exact import sqrt_ge
from .fairness import is_alpha_mms, is_ef1
from .generators import (ADVERSARIAL_FAMILIES, FAMILY_ARGS,
                         RANDOM_DISTRIBUTIONS, check_family_args, generate)
from .model import (Instance, ZERO, allocation_to_json, format_decimal,
                    format_rational, is_json_int, parse_rational, read_json,
                    write_json)
from .mms import run_solve_half_mms
from .ef1 import run_solve_ef1
from .oracles import (DEFAULT_ENUM_CAP, DEFAULT_MMS_STATE_CAP,
                      constrained_opt, max_welfare, mms_profile,
                      price_ratio)

SOLVERS = ("ef1", "half-mms")


class Bound(NamedTuple):
    """One theorem inequality: checked on `solver` rows that hold every fact
    in `when`, else the cell reads `otherwise`. `check` gives a bare verdict
    or the sides (k, a, b) of sqrt(n)^k * a >= b, whose margin in the row's
    `margins` is n^k * a^2 / b^2 ("inf" when b = 0)."""

    column: str
    solver: str
    when: tuple[str, ...]
    check: Callable[[SimpleNamespace], object]
    otherwise: str = "n/a"


# The EF1 welfare bounds are proven for subadditive valuations only; EF1-ness
# is checked on supermodular tables too, where the price of EF1 is unbounded.
BOUNDS = (
    Bound("ef1_holds", "ef1", (), lambda r: is_ef1(r.inst, r.alloc).holds),
    Bound("half_mms_holds", "half-mms", ("profile",),
          lambda r: is_alpha_mms(r.inst, r.alloc, r.half, r.profile).holds,
          otherwise="skipped"),
    Bound("welfare_vs_total_2n", "ef1", ("subadditive",),
          lambda r: (2, 2 * r.welfare, r.total)),
    Bound("welfare_vs_total_3n", "half-mms", (),
          lambda r: (2, 3 * r.welfare, r.total)),
    Bound("welfare_vs_opt_16sqrt", "ef1", ("scaled", "opt", "subadditive"),
          lambda r: (1, 16 * r.welfare, r.opt)),
    Bound("welfare_vs_opt_15sqrt", "half-mms", ("scaled", "opt"),
          lambda r: (1, 15 * r.welfare, r.opt)),
    Bound("high_iters_vs_nm2", "ef1", ("high",),
          lambda r: (0, r.n * r.m * r.m, r.high.iterations)),
    Bound("lipton_steps_vs_mn2", "ef1", (),
          lambda r: (0, r.m * r.n * r.n, r.steps)),
    Bound("high_T_vs_4sqrt", "half-mms", ("high",),
          lambda r: (1, 4, len(r.high.temporary))),
    Bound("high_PT_cover", "half-mms", ("high",),
          lambda r: (0, len(r.agents & (r.high.permanent | r.high.temporary)),
                     r.n)),
)

BOUND_COLUMNS = tuple(bound.column for bound in BOUNDS)

CSV_COLUMNS = ("instance_id", "family", "n", "m", "solver", "opt", "opt_dec",
               "welfare", "welfare_dec", "constrained_welfare",
               "price_ratio", "price_ratio_dec", "solver_ratio",
               "solver_ratio_dec") + BOUND_COLUMNS + ("trace_path",)


class BoundViolation(FairdivError):
    """A proven theorem inequality failed on a concrete run."""

    def __init__(self, message, row=None, trace=None):
        super().__init__(message)
        self.row = row
        self.trace = trace


@dataclass
class ExperimentConfig:
    seed: int
    solvers: tuple[str, ...]
    epsilon: Fraction
    enum_cap: int
    mms_state_cap: int
    jobs: int
    trace: bool
    families: tuple[dict, ...]

    @staticmethod
    def from_json(data: dict) -> "ExperimentConfig":
        if not isinstance(data, dict):
            raise ParseError("experiment config must be a JSON object")
        keys = tuple(f.name for f in fields(ExperimentConfig))
        for key in data:
            if key not in keys:
                raise ParseError(f"unknown config key {key!r}; expected "
                                 f"some of {keys}")
        solvers = data.get("solvers", list(SOLVERS))
        if not isinstance(solvers, list):
            raise ParseError(f"'solvers' must be a list of solver names, "
                             f"got {solvers!r}")
        for s in solvers:
            if s not in SOLVERS:
                raise ParseError(f"unknown solver {s!r}; expected {SOLVERS}")
        families = data.get("families", [])
        if not isinstance(families, list):
            raise ParseError("'families' must be a list")
        trace = data.get("trace", False)
        if not isinstance(trace, bool):
            raise ParseError(f"'trace' must be true or false, got {trace!r}")
        epsilon = parse_rational(str(data.get("epsilon", "0")))
        if not 0 <= epsilon < Fraction(1, 2):
            raise ParseError(f"'epsilon' must lie in [0, 1/2), got "
                             f"{format_rational(epsilon)}")
        config = ExperimentConfig(
            seed=_json_int(data, "seed", 0),
            solvers=tuple(solvers),
            epsilon=epsilon,
            enum_cap=_json_int(data, "enum_cap", DEFAULT_ENUM_CAP, 0),
            mms_state_cap=_json_int(data, "mms_state_cap",
                                    DEFAULT_MMS_STATE_CAP, 0),
            jobs=_json_int(data, "jobs", 1, 1),
            trace=trace,
            families=tuple(families))
        _instance_jobs(config)      # rejects malformed families up front
        return config


def _json_int(obj: dict, key: str, default: int, least=None) -> int:
    """obj[key] as a JSON integer (bools are not) of at least `least`, or
    the default if absent."""
    value = obj.get(key, default)
    if not is_json_int(value):
        raise ParseError(f"'{key}' must be a JSON integer, got {value!r}")
    if least is not None and value < least:
        raise ParseError(f"'{key}' must be at least {least}, got {value}")
    return value


def _json_ints(obj: dict, key: str) -> list[int]:
    """obj[key] as a nonempty list of JSON integers; a single integer is a
    list of one."""
    value = obj.get(key)
    values = value if isinstance(value, list) else [value]
    if not values or not all(is_json_int(v) for v in values):
        raise ParseError(f"'{key}' must hold one or more JSON integers, "
                         f"got {value!r}")
    return values


@dataclass
class ExperimentReport:
    rows: list[dict]

    def csv_text(self) -> str:
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=CSV_COLUMNS, lineterminator="\n")
        writer.writeheader()
        for row in self.rows:
            writer.writerow({k: row.get(k, "") for k in CSV_COLUMNS})
        return buf.getvalue()

    def write(self, outdir) -> None:
        out = Path(outdir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "results.csv").write_text(self.csv_text())
        write_json({"rows": self.rows}, out / "results.json")


def _derived_seed(base: int, family: str, n: int, m: int, index: int) -> int:
    key = f"{base}|{family}|{n}|{m}|{index}".encode()
    return zlib.crc32(key)


def _instance_jobs(config: ExperimentConfig) -> list[dict]:
    jobs = []
    for fam in config.families:
        if not isinstance(fam, dict):
            raise ParseError(f"a family entry must be an object, got {fam!r}")
        family = fam.get("family")
        if not isinstance(family, str) or family not in FAMILY_ARGS:
            raise ParseError(f"unknown family {family!r} in config")
        for key in fam:
            if key not in ("family", "n") + FAMILY_ARGS[family]:
                raise ParseError(f"{family} takes no {key}")
        ns = _json_ints(fam, "n")
        eps = fam.get("epsilon")
        eps = parse_rational(str(eps)) if eps is not None else None
        if family in ADVERSARIAL_FAMILIES:
            for n in ns:
                jobs.append({"family": family, "n": n, "epsilon": eps})
        else:
            ms = _json_ints(fam, "m")
            count = _json_int(fam, "count", 1, 1)
            distribution = fam.get("distribution", RANDOM_DISTRIBUTIONS[0]
                                   if family == "random" else None)
            for n in ns:
                for m in ms:
                    for idx in range(count):
                        jobs.append({"family": family, "n": n,
                                     "m": m, "index": idx,
                                     "distribution": distribution})
    for job in jobs:
        try:
            check_family_args(job["family"], job["n"], job.get("m"),
                              job.get("epsilon"), job.get("distribution"))
        except (ValueError, ValidationError) as exc:
            raise ParseError(f"family {job['family']!r}: {exc}") from None
    return jobs


def _build_instance(job: dict, seed: int) -> tuple[str, Instance]:
    """A job's row id and instance. A drawn instance (a job with an index)
    is seeded from the sweep's seed and its place in the grid."""
    family, n, m = job["family"], job["n"], job.get("m")
    eps, dist, idx = (job.get(k) for k in ("epsilon", "distribution", "index"))
    parts = (family, dist, f"n{n}", None if idx is None else f"m{m}-i{idx}",
             None if eps is None else f"e{eps}")
    derived = None if idx is None else _derived_seed(seed, family, n, m, idx)
    return ("-".join(p for p in parts if p).replace("/", "_"),
            generate(family, n, m, eps, dist, derived))


# Each optional cell as it reads until the row computes it: a cell beyond
# the caps, or of a solver that does not apply, is "skipped", never omitted.
_SKIPPED_CELLS = {**dict.fromkeys(("opt", "welfare", "constrained_welfare",
                                  "price_ratio", "solver_ratio"), "skipped"),
                 **dict.fromkeys(("opt_dec", "welfare_dec", "price_ratio_dec",
                                  "solver_ratio_dec"), ""),
                 **dict.fromkeys(BOUND_COLUMNS, "n/a")}


def _put(row: dict, column: str, value: Optional[Fraction]) -> None:
    """Write `value` to `column` exactly and to its `_dec` twin in decimal;
    None is an infinite price, "inf" in both."""
    row[column] = "inf" if value is None else format_rational(value)
    row[column + "_dec"] = "inf" if value is None else format_decimal(value)


def _solver_row(ident: str, inst: Instance, solver: str,
                config: ExperimentConfig, opt: Optional[Fraction],
                total: Fraction) -> dict:
    """One solver's row on one instance, given the instance's OPT (None
    beyond the enumeration cap) and the sum of its agents' full-set
    values."""
    start = time.perf_counter_ns()
    row: dict = {"instance_id": ident, "solver": solver, "family": None,
                 "n": inst.n, "m": inst.m, "margins": {}, **_SKIPPED_CELLS}
    if opt is not None:
        _put(row, "opt", opt)

    # One half-MMS profile for the solver, half_mms_holds and constrained_opt;
    # None beyond the MMS cap, where each of them that needs it raises.
    profile = None
    if solver == "half-mms" and inst.additive:
        try:
            profile = mms_profile(inst, epsilon=config.epsilon,
                                  cap=config.mms_state_cap)
        except InfeasibleError:
            pass

    try:
        run = (run_solve_ef1(inst, cap=config.enum_cap) if solver == "ef1"
               else run_solve_half_mms(inst, epsilon=config.epsilon,
                                       profile=profile,
                                       mms_cap=config.mms_state_cap))
    except (InfeasibleError, ValidationError) as exc:
        # Solver not applicable (wrong valuation class) or beyond its caps:
        # an explicit skip row, never a silent omission.
        row["allocation"] = None
        row["runtime_ms"] = (time.perf_counter_ns() - start) // 1_000_000
        row["_trace"] = {"skip_reason": str(exc)}
        return row

    alloc, welfare, high = run.allocation, run.welfare, run.high_run
    half = Fraction(1, 2) - config.epsilon
    _put(row, "welfare", welfare)
    trace_blob: dict = {"branch": run.branch}
    if high is not None:
        trace_blob["high_trace"] = [e.to_json() for e in high.trace]
    if solver == "ef1":
        if high is not None:
            trace_blob["high_iterations"] = high.iterations
        trace_blob["lipton_steps"] = max(
            run.abs_run.lipton.steps,
            high.lipton.steps if high is not None else 0)

    facts = SimpleNamespace(
        inst=inst, n=inst.n, m=inst.m, agents=frozenset(range(inst.n)),
        alloc=alloc, welfare=welfare, total=total, opt=opt, half=half,
        profile=profile, high=high, steps=trace_blob.get("lipton_steps"))
    held = {"scaled": inst.scaled, "subadditive": inst.subadditive,
            "opt": opt is not None, "high": high is not None,
            "profile": profile is not None}
    for bound in (b for b in BOUNDS if b.solver == solver):
        if not all(held[name] for name in bound.when):
            row[bound.column] = bound.otherwise
            continue
        verdict = bound.check(facts)
        if isinstance(verdict, tuple):
            k, a, b = verdict
            verdict = sqrt_ge(a, b, inst.n, k)
            row["margins"][bound.column] = (
                format_rational(Fraction(inst.n ** k * a * a) / (b * b))
                if b else "inf")
        if not verdict:
            raise BoundViolation(
                f"theorem inequality {bound.column} failed on "
                f"{row['instance_id']} (solver {row['solver']})",
                row=row, trace=trace_blob)
        row[bound.column] = "pass"
    prop = "ef1" if solver == "ef1" else "alpha-mms"

    try:
        constrained = constrained_opt(
            inst, prop, alpha=half if prop == "alpha-mms" else None,
            profile=profile, cap=config.enum_cap, mms_cap=config.mms_state_cap)
    except InfeasibleError:
        constrained = None
    if constrained is not None:
        row["constrained_welfare"] = format_rational(constrained[1])
        if opt is not None:
            _put(row, "price_ratio", price_ratio(opt, constrained[1]))
    if opt is not None and welfare > 0:
        _put(row, "solver_ratio", opt / welfare)

    row["allocation"] = allocation_to_json(alloc)["bundles"]
    row["runtime_ms"] = (time.perf_counter_ns() - start) // 1_000_000
    row["_trace"] = trace_blob
    return row


def _instance_rows(args) -> list[dict]:
    """Every solver's row for one instance job, in config order. The
    instance is built here, so a sweep holds one instance per worker, and
    so are the facts its rows share: OPT, None beyond the enumeration cap,
    and the sum of the agents' full-set values."""
    job, config = args
    ident, inst = _build_instance(job, config.seed)
    try:
        _, opt = max_welfare(inst, cap=config.enum_cap)
    except InfeasibleError:
        opt = None
    total = sum((inst.total_value(i) for i in range(inst.n)), ZERO)
    return [_solver_row(ident, inst, s, config, opt, total)
            | {"family": job["family"]} for s in config.solvers]


def run_experiment(config_data, outdir=None) -> ExperimentReport:
    """Run the configured sweep and return (optionally also write) the
    report. `config_data` is a parsed config dict or an ExperimentConfig."""
    if isinstance(config_data, ExperimentConfig):
        config = config_data
    else:
        config = ExperimentConfig.from_json(config_data)

    tasks = [(job, config) for job in _instance_jobs(config)]
    if config.jobs > 1 and len(tasks) > 1:
        # Imported only here: it loads `multiprocessing`.
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=config.jobs) as pool:
            rows = [row for batch in pool.map(_instance_rows, tasks)
                    for row in batch]
    else:
        rows = [row for task in tasks for row in _instance_rows(task)]

    out = Path(outdir) if outdir is not None else None
    for i, row in enumerate(rows):
        trace_blob = row.pop("_trace")
        row["trace_path"] = ""
        if config.trace and out is not None:
            tdir = out / "traces"
            tdir.mkdir(parents=True, exist_ok=True)
            rel = f"traces/row{i:04d}_{row['instance_id']}_{row['solver']}.json"
            write_json(trace_blob, out / rel)
            row["trace_path"] = rel

    report = ExperimentReport(rows=rows)
    if out is not None:
        report.write(out)
    return report


def load_config(path) -> ExperimentConfig:
    return ExperimentConfig.from_json(read_json(path))
