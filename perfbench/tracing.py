"""Spans around fairdiv's layer functions, for the traced benchmark run.

Each layer function is wrapped under every name a fairdiv module bound it to
(``fairdiv.ef1.max_weight_left_perfect_matching``, ``fairdiv.oracles.is_ef1``,
``fairdiv.model.validate_instance``, ...), so calls between modules pass
through the wrapper and nothing under ``src/`` changes. Spans are recorded
only inside a request; they stay in memory until the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import importlib
import json
import sys
import time
from collections import Counter

# (defining module, function, span name). A span's name is "<layer>.<what>",
# where the layer is the module.
LAYER_FUNCTIONS = (
    ("fairdiv.model", "load_instance", "model.load_instance"),
    ("fairdiv.model", "validate_instance", "model.validate_instance"),
    ("fairdiv.matching", "max_weight_left_perfect_matching",
     "matching.max_weight"),
    ("fairdiv.envy_cycle", "run_extend_ef1", "envy_cycle.extend"),
    ("fairdiv.ef1", "run_solve_ef1", "ef1.run_solve_ef1"),
    ("fairdiv.ef1", "run_ef1_abs", "ef1.run_ef1_abs"),
    ("fairdiv.ef1", "run_ef1_high", "ef1.run_ef1_high"),
    ("fairdiv.mms", "run_mms_abs", "mms.run_mms_abs"),
    ("fairdiv.mms", "run_mms_high", "mms.run_mms_high"),
    ("fairdiv.oracles", "max_welfare", "oracles.max_welfare"),
    ("fairdiv.oracles", "mms_profile", "oracles.mms_profile"),
    ("fairdiv.oracles", "mms_k", "oracles.mms_k"),
    ("fairdiv.oracles", "constrained_opt", "oracles.constrained_opt"),
    ("fairdiv.fairness", "is_ef1", "fairness.is_ef1"),
    ("fairdiv.fairness", "is_alpha_mms", "fairness.is_alpha_mms"),
    ("fairdiv.experiment", "run_experiment", "experiment.run_experiment"),
    ("fairdiv.cli", "main", "cli.main"),
)

# Per-layer metrics: (metric, unit, kind, span or counter name). Every value
# is a mean per traced pass, so it does not grow with the number of passes
# that fit in a run.
PER_LAYER = (
    ("model.load_instance.calls", "calls/pass", "calls",
     "model.load_instance"),
    ("model.load_instance.ms", "ms/pass", "ms", "model.load_instance"),
    ("model.validate_instance.ms", "ms/pass", "ms", "model.validate_instance"),
    ("matching.max_weight.calls", "calls/pass", "calls",
     "matching.max_weight"),
    ("matching.max_weight.ms", "ms/pass", "ms", "matching.max_weight"),
    ("envy_cycle.extend.calls", "calls/pass", "calls", "envy_cycle.extend"),
    ("envy_cycle.extend.ms", "ms/pass", "ms", "envy_cycle.extend"),
    ("envy_cycle.rotations", "count/pass", "count", "envy_cycle.rotations"),
    ("envy_cycle.additions", "count/pass", "count", "envy_cycle.additions"),
    ("ef1.run_solve_ef1.ms", "ms/pass", "ms", "ef1.run_solve_ef1"),
    ("ef1.run_ef1_abs.self_ms", "ms/pass", "self_ms", "ef1.run_ef1_abs"),
    ("ef1.run_ef1_high.self_ms", "ms/pass", "self_ms", "ef1.run_ef1_high"),
    ("ef1.high_iterations", "count/pass", "count", "ef1.high_iterations"),
    ("mms.run_mms_abs.ms", "ms/pass", "ms", "mms.run_mms_abs"),
    ("mms.run_mms_high.ms", "ms/pass", "ms", "mms.run_mms_high"),
    ("mms.high_events", "count/pass", "count", "mms.high_events"),
    ("oracles.max_welfare.calls", "calls/pass", "calls",
     "oracles.max_welfare"),
    ("oracles.max_welfare.ms", "ms/pass", "ms", "oracles.max_welfare"),
    ("oracles.mms_profile.calls", "calls/pass", "calls",
     "oracles.mms_profile"),
    ("oracles.mms_k.calls", "calls/pass", "calls", "oracles.mms_k"),
    ("oracles.mms_k.ms", "ms/pass", "ms", "oracles.mms_k"),
    ("oracles.constrained_opt.calls", "calls/pass", "calls",
     "oracles.constrained_opt"),
    ("oracles.constrained_opt.ms", "ms/pass", "ms", "oracles.constrained_opt"),
    ("oracles.constrained_opt.self_ms", "ms/pass", "self_ms",
     "oracles.constrained_opt"),
    ("oracles.leaf_checks", "count/pass", "count", "oracles.leaf_checks"),
    ("oracles.leaf_pass_ratio", "ratio", "ratio", "oracles.leaf_checks"),
    ("fairness.is_ef1.calls", "calls/pass", "calls", "fairness.is_ef1"),
    ("fairness.is_ef1.ms", "ms/pass", "ms", "fairness.is_ef1"),
    ("fairness.is_alpha_mms.calls", "calls/pass", "calls",
     "fairness.is_alpha_mms"),
    ("fairness.is_alpha_mms.ms", "ms/pass", "ms", "fairness.is_alpha_mms"),
    ("experiment.run_experiment.self_ms", "ms/pass", "self_ms",
     "experiment.run_experiment"),
    ("cli.main.self_ms", "ms/pass", "self_ms", "cli.main"),
)
OVERHEAD = ("trace.overhead_ratio", "ratio")


def _count_leaf_check(tracer, span, verdict):
    # A fairness predicate called straight from constrained_opt is the
    # exhaustive search testing one complete allocation.
    parent = span[3]
    if parent >= 0 and tracer.spans[parent][0] == "oracles.constrained_opt":
        tracer.counts["oracles.leaf_checks"] += 1
        tracer.counts["oracles.leaf_checks.passed"] += verdict.holds


def _count_lipton(tracer, span, result):
    stats = result[1]
    tracer.counts["envy_cycle.rotations"] += stats.rotations
    tracer.counts["envy_cycle.additions"] += stats.additions


def _count_high_iterations(tracer, span, run):
    tracer.counts["ef1.high_iterations"] += run.iterations


def _count_high_events(tracer, span, run):
    tracer.counts["mms.high_events"] += len(run.trace)


RESULT_COUNTERS = {
    "envy_cycle.extend": _count_lipton,
    "ef1.run_ef1_high": _count_high_iterations,
    "mms.run_mms_high": _count_high_events,
    "fairness.is_ef1": _count_leaf_check,
    "fairness.is_alpha_mms": _count_leaf_check,
}


class Tracer:
    """Installs the span wrappers and keeps every span of the run.

    A span is ``[name, start_ns, end_ns, parent index or -1, request id]``.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._request = None
        self._restore: list[tuple] = []

    def install(self) -> None:
        for module_name, attr, name in LAYER_FUNCTIONS:
            original = getattr(importlib.import_module(module_name), attr)
            wrapper = self._wrap(original, name)
            for module in list(sys.modules.values()):
                if (getattr(module, "__name__", "").split(".")[0] == "fairdiv"
                        and getattr(module, attr, None) is original):
                    setattr(module, attr, wrapper)
                    self._restore.append((module, attr, original))

    def uninstall(self) -> None:
        while self._restore:
            module, attr, original = self._restore.pop()
            setattr(module, attr, original)

    @contextlib.contextmanager
    def request(self, request_id: int):
        self._request = request_id
        try:
            yield
        finally:
            self._request = None

    def _wrap(self, func, name: str):
        on_result = RESULT_COUNTERS.get(name)

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if self._request is None:
                return func(*args, **kwargs)
            stack = self._stack
            span = [name, 0, 0, stack[-1] if stack else -1, self._request]
            stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter_ns()
            try:
                result = func(*args, **kwargs)
            finally:
                span[2] = time.perf_counter_ns()
                stack.pop()
            if on_result is not None:
                on_result(self, span, result)
            return result

        return wrapper

    def layer_metrics(self, passes: int) -> dict[str, float]:
        """Every PER_LAYER metric, averaged over `passes` passes. Self time
        is a span's duration minus the time its child spans cover."""
        calls: Counter = Counter()
        total_ns: Counter = Counter()
        self_ns: Counter = Counter()
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        for index, (name, start, end, _, _) in enumerate(self.spans):
            calls[name] += 1
            total_ns[name] += end - start
            self_ns[name] += end - start - child_ns[index]
        checks = self.counts["oracles.leaf_checks"]
        out = {}
        for metric, _, kind, key in PER_LAYER:
            if kind == "calls":
                out[metric] = calls[key] / passes
            elif kind == "ms":
                out[metric] = total_ns[key] / 1e6 / passes
            elif kind == "self_ms":
                out[metric] = self_ns[key] / 1e6 / passes
            elif kind == "count":
                out[metric] = self.counts[key] / passes
            else:
                passed = self.counts["oracles.leaf_checks.passed"]
                out[metric] = passed / checks if checks else 0.0
        return out

    def write(self, path) -> None:
        """Write every span as one JSON line, gzip-compressed."""
        with gzip.open(path, "wt") as fh:
            for name, start, end, parent, request in self.spans:
                fh.write(json.dumps({"name": name, "start_ns": start,
                                     "end_ns": end, "parent": parent,
                                     "request": request}) + "\n")
