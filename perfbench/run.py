"""fairdiv benchmark: one client, one process, closed loop.

Run one workload (the last line of stdout is the JSON result)::

    python3 perfbench/run.py --workload solve-additive --seed 1 --trace 0

Compare two sets of saved results (directories of result files)::

    python3 perfbench/run.py --compare OLD_DIR NEW_DIR

Each request starts only when the previous one has finished. A pass sends
the requests of one input set, and the passes cycle through the workload's
input sets. ``--seconds`` sets how many cycles a run sends: as many as take
that long at the workload's nominal speed, and at least two. The count does
not depend on how fast the run goes, so every run sends each request the
same number of times. A request's time is the mean of the fastest third of
its sends. An input set is built, and its set-up timed, when a pass first
needs it. ``--trace 0`` reports the end-to-end metrics. ``--trace 1`` runs
each input set twice in a row, untraced and then with every layer function
wrapped in spans, for as many pairs as fit in ``--seconds``, and reports
the per-layer metrics. Every run writes its result, with provenance, to
``perfbench-out/results/``; traced runs also write their spans to
``perfbench-out/spans-<workload>.jsonl.gz``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench-out"
BENCHMARK = ROOT / "BENCHMARK.json"
# The first input set is built at least MIN_SETUPS times, and again while
# all set-ups so far took under SETUP_SECONDS, so that a set-up of a few
# milliseconds is timed many times.
MIN_SETUPS = 3
SETUP_SECONDS = 1.0
MAX_SETUP_REPEATS = 50
END_TO_END_UNITS = {"latency_p50_ms": "ms", "latency_tail_ms": "ms",
                    "throughput_rps": "1/s", "sweep_s": "s", "setup_s": "s",
                    "peak_rss_mb": "MB"}


def import_program():
    """Import fairdiv from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import fairdiv
    if Path(fairdiv.__file__).resolve().parent.parent != src:
        raise ImportError(f"fairdiv imported from {fairdiv.__file__}, "
                          f"not from {src}")
    return fairdiv


@dataclass
class Sample:
    """What one closed-loop run saw."""

    passes: list = field(default_factory=list)  # per pass, request seconds
    sets: list = field(default_factory=list)    # per pass, its input set
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)


def measure(plan, seconds: float, min_passes: int = 1, block: int = 1,
            tracer=None) -> Sample:
    """Send passes in blocks of `block` while another block fits in
    `seconds`, and at least `min_passes` passes. `plan(i)` gives the i-th
    pass's input set, its requests, and whether `tracer` records the pass.
    Set-up and output checks run between requests, outside the timings."""
    sample = Sample()
    start = time.perf_counter()
    pass_walls = []
    while (len(pass_walls) < min_passes or len(pass_walls) % block
           or time.perf_counter() - start
           + block * statistics.fmean(pass_walls) <= seconds):
        index, requests, traced = plan(len(pass_walls))
        if traced:
            tracer.install()
        pass_start = time.perf_counter()
        latencies = []
        try:
            for req in requests:
                sample.attempted += 1
                scope = (tracer.request(sample.attempted) if traced
                         else contextlib.nullcontext())
                try:
                    t0 = time.perf_counter()
                    try:
                        with scope:
                            out = req.run()
                    finally:
                        latencies.append(time.perf_counter() - t0)
                    req.verify(out)
                except Exception as exc:
                    sample.failed += 1
                    sample.errors.append(f"{req.label}: "
                                         f"{type(exc).__name__}: {exc}")
        finally:
            if traced:
                tracer.uninstall()
        pass_walls.append(time.perf_counter() - pass_start)
        sample.passes.append(latencies)
        sample.sets.append(index)
    return sample


def tail_percentile(count: int) -> float:
    """The highest percentile with at least ten of `count` samples beyond
    it; 50, the median, when there are fewer than twenty samples."""
    return max(50.0, 100 * (count - 10) / count)


def fastest_third(values) -> float:
    """The mean of the fastest third of `values`, and at least the fastest.
    Other tenants of a shared host slow a run down in spells; the fastest
    sends of a request are the ones they slowed least."""
    ordered = sorted(values)
    return statistics.fmean(ordered[:max(1, len(ordered) // 3)])


def nearest_rank(sorted_values, p: float) -> float:
    # The tolerance keeps 100 * (n - 10) / n from rounding up a rank.
    rank = math.ceil(p / 100 * len(sorted_values) - 1e-9)
    return sorted_values[max(0, rank - 1)]


def end_to_end(sample: Sample, fewest_requests: int,
               setup_times) -> tuple[dict, dict]:
    """The end-to-end metrics over every distinct request of the run, each
    timed by the fastest third of its sends, and the sample facts behind
    the tail. The tail percentile follows from the fewest distinct requests
    a run can have, so it is the same in every run. `sweep_s` weighs every
    input set of the run alike: it is the mean, over the sets, of the
    fastest third of the passes over the set. `setup_s` is the fastest
    set-up: a set-up takes milliseconds on some workloads, and the share
    of them a slow spell hits varies from run to run."""
    sends: dict = {}
    by_set: dict = {}
    for index, lat in zip(sample.sets, sample.passes):
        by_set.setdefault(index, []).append(sum(lat))
        for position, x in enumerate(lat):
            sends.setdefault((index, position), []).append(x * 1000)
    latencies = sorted(map(fastest_third, sends.values()))
    p = tail_percentile(fewest_requests)
    median = statistics.median(latencies)
    metrics = {
        "latency_p50_ms": median,
        "latency_tail_ms": nearest_rank(latencies, p) if p > 50 else median,
        "throughput_rps": len(latencies) / (sum(latencies) / 1000),
        "sweep_s": statistics.fmean(map(fastest_third, by_set.values())),
        "setup_s": min(setup_times),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return metrics, {"samples": len(latencies), "tail_percentile": p,
                     "passes": len(sample.passes), "input_sets": len(by_set),
                     "setups": len(setup_times)}


def _read_field(path: str, key: str):
    try:
        with open(path) as fh:
            for line in fh:
                name, _, value = line.partition(":")
                if name.strip() == key:
                    return value.strip()
    except OSError:
        pass
    return None


def _git_commit():
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance() -> dict:
    return {"python": platform.python_version(), "commit": _git_commit(),
            "nproc": len(os.sched_getaffinity(0)),
            "cpu_model": _read_field("/proc/cpuinfo", "model name"),
            "mem_total": _read_field("/proc/meminfo", "MemTotal")}


class InputSets:
    """A workload's input sets, each built the first time a pass needs it,
    with every set-up timed."""

    def __init__(self, workload, seed: int, work: Path, tiny: bool):
        self.workload, self.seed, self.work, self.tiny = (workload, seed,
                                                          work, tiny)
        self.built: dict = {}
        self.setup_times: list = []

    def build(self, index: int, where: Path) -> list:
        shutil.rmtree(where, ignore_errors=True)
        where.mkdir(parents=True)
        t0 = time.perf_counter()
        requests = self.workload.build(self.seed, index, where, self.tiny)
        self.setup_times.append(time.perf_counter() - t0)
        return requests

    def get(self, index: int) -> list:
        if index not in self.built:
            self.built[index] = self.build(index, self.work / str(index))
        return self.built[index]


def out_dir(tiny: bool) -> Path:
    """Where a run writes its result and spans. Tiny runs, for the
    self-test, write apart, so that they never mix with measured results."""
    return OUT / "tiny" if tiny else OUT


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 tiny: bool = False) -> dict:
    import tracing
    import workloads

    workload = workloads.WORKLOADS[name]
    work = OUT / "work" / f"{name}-{os.getpid()}"
    inputs = InputSets(workload, seed, work, tiny)
    try:
        inputs.get(0)
        while (len(inputs.setup_times) < MIN_SETUPS
               or (sum(inputs.setup_times) < SETUP_SECONDS
                   and len(inputs.setup_times) < MAX_SETUP_REPEATS)):
            inputs.build(0, work / "again")
        if not trace:
            def plan(i):
                index = i % workload.sets
                return index, inputs.get(index), False

            # With no time to fill, measure sends exactly the fewest passes.
            sample = measure(plan, 0, workload.cycles(seconds)
                             * workload.sets)
            fewest = workload.sets * len(sample.passes[0])
            metrics, facts = end_to_end(sample, fewest, inputs.setup_times)
            units = END_TO_END_UNITS
        else:
            # Pass 2k runs the k-th input set untraced and pass 2k + 1 runs
            # it again traced, so the overhead compares like with like.
            def plan(i):
                index = i // 2 % workload.sets
                return index, inputs.get(index), i % 2 == 1

            tracer = tracing.Tracer()
            sample = measure(plan, seconds, 2, 2, tracer)
            busy = [sum(lat) for lat in sample.passes]
            untraced, traced = busy[0::2], busy[1::2]
            metrics = tracer.layer_metrics(len(traced))
            metrics[tracing.OVERHEAD[0]] = (
                sum(traced) / sum(untraced[:len(traced)]))
            units = {m: u for m, u, _, _ in tracing.PER_LAYER}
            units[tracing.OVERHEAD[0]] = tracing.OVERHEAD[1]
            facts = {"passes": len(sample.passes),
                     "traced_passes": len(traced),
                     "input_sets": len(set(sample.sets))}
            out_dir(tiny).mkdir(parents=True, exist_ok=True)
            tracer.write(out_dir(tiny) / f"spans-{name}.jsonl.gz")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return {
        "workload": name, "seed": seed, "seconds": seconds,
        "trace": int(trace), "correct": sample.failed == 0,
        "attempted": sample.attempted, "failed": sample.failed,
        "error_rate": sample.failed / sample.attempted,
        "errors": sample.errors[:20],
        "pass_sets": sample.sets,
        "pass_latencies_ms": [[round(x * 1000, 3) for x in lat]
                              for lat in sample.passes],
        "metrics": {m: {"value": v, "unit": units[m]}
                    for m, v in metrics.items()},
        **facts, "provenance": provenance(),
    }


def _load_results(path: Path) -> list[dict]:
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    return [json.loads(f.read_text()) for f in files]


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def compare(old_path: Path, new_path: Path) -> int:
    """Print, for every (workload, metric) pair on both sides, the quartiles
    of each side, the ratio of the medians, and whether the new median is
    worse than the old by more than the metric's bound. Returns 1 when any
    metric is."""
    bench = json.loads(BENCHMARK.read_text())
    rules = {m["name"]: m for m in bench["end_to_end"]}
    sides = []
    for path in (old_path, new_path):
        grouped: dict = {}
        for result in _load_results(path):
            for metric, entry in result["metrics"].items():
                grouped.setdefault((result["workload"], metric),
                                   []).append(entry["value"])
        sides.append(grouped)
    old, new = sides
    print(f"{'workload':16} {'metric':34} {'old q1/med/q3':>30} "
          f"{'new q1/med/q3':>30} {'ratio':>7}  verdict")
    regressed = False
    for key in sorted(old.keys() & new.keys()):
        (o1, om, o3), (n1, nm, n3) = _quartiles(old[key]), _quartiles(new[key])
        ratio = nm / om if om else math.inf
        rule = rules.get(key[1])
        if rule is None:
            verdict = "no bound"
        else:
            lower = rule["better"] == "lower"
            worse = nm > om * (1 + rule["bound"]) if lower else \
                nm < om * (1 - rule["bound"])
            regressed |= worse
            verdict = (f"WORSE beyond bound {rule['bound']}" if worse
                       else f"within bound {rule['bound']}")
        print(f"{key[0]:16} {key[1]:34} "
              f"{o1:9.4g} {om:9.4g} {o3:9.4g}  {n1:9.4g} {nm:9.4g} {n3:9.4g} "
              f"{ratio:7.3f}  {verdict}")
    return 1 if regressed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=json.loads(
        BENCHMARK.read_text())["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs, for the self-test")
    parser.add_argument("--compare", nargs=2, type=Path,
                        metavar=("OLD", "NEW"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    try:
        import_program()
    except ImportError as exc:
        print(f"error: cannot import fairdiv: {exc}", file=sys.stderr)
        return 2
    import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of "
                     f"{sorted(workloads.WORKLOADS)}")
    try:
        result = run_workload(args.workload, args.seed, args.seconds,
                              bool(args.trace), args.tiny)
    except workloads.SetupError as exc:
        print(f"error: set-up failed: {exc}", file=sys.stderr)
        return 2
    results = out_dir(args.tiny) / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(result, indent=2) + "\n")
    for error in result["errors"]:
        print(f"failed: {error}", file=sys.stderr)
    for metric, entry in result["metrics"].items():
        print(f"{metric:36} {entry['value']:14.6g} {entry['unit']}")
    facts = {k: result[k] for k in ("attempted", "failed", "error_rate",
                                    "samples", "passes", "input_sets",
                                    "setups",
                                    "tail_percentile",
                                    "traced_passes") if k in result}
    print("run", json.dumps({"workload": args.workload, "seed": args.seed,
                             **facts, **result["provenance"]}))
    print(json.dumps({k: result[k] for k in ("correct", "attempted",
                                             "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
