"""EF1 solvers: the matching-based absolute-welfare algorithm, the
line-graph high-welfare algorithm, and the best-of-two combination.

The absolute algorithm matches every agent to a single good by maximum-weight
matching and extends via envy-cycle elimination; its welfare is at least
(1/2n) * sum_i v_i(all goods) for any monotone valuations.

The high-welfare algorithm lays the goods on a line so each reference bundle
is contiguous, seeds every agent with her best reference good, then
repeatedly hands the shortest envied prefix of an unassigned component to
the lowest-indexed agent who envies it. Every intermediate allocation stays
EF1 with contiguous bundles, values never drop, and the loop ends within
n * m^2 iterations. On scaled instances the result (after extension) has
welfare at least SW(reference)/(6*sqrt(n)) - 1/6.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from . import debug
from .envy_cycle import LiptonStats, run_extend_ef1
from .errors import InfeasibleError, ValidationError
from .fairness import is_ef1, social_welfare
from .matching import max_weight_left_perfect_matching
from .model import (ADDITIVE, Allocation, Instance, ZERO, check_monotone,
                    validate_allocation)
from .oracles import DEFAULT_ENUM_CAP, max_welfare


@dataclass(frozen=True)
class LineOrder:
    """A good ordering in which every reference bundle is contiguous."""

    order: tuple[int, ...]        # position -> good
    position: tuple[int, ...]     # good -> position

    @staticmethod
    def from_reference(bundles, m: int) -> "LineOrder":
        """Reference bundles laid out block by block in agent order,
        preserving the original good order inside each block."""
        order: list[int] = []
        seen: set[int] = set()
        for bundle in bundles:
            for g in sorted(bundle):
                if g in seen:
                    raise ValidationError("disjoint-bundles",
                                          f"good {g + 1} in two bundles")
                seen.add(g)
                order.append(g)
        order.extend(g for g in range(m) if g not in seen)
        position = [0] * m
        for p, g in enumerate(order):
            position[g] = p
        return LineOrder(order=tuple(order), position=tuple(position))

    def contiguous(self, goods) -> bool:
        ps = sorted(self.position[g] for g in goods)
        return not ps or ps[-1] - ps[0] + 1 == len(ps)


@dataclass
class Ef1AbsRun:
    allocation: Allocation
    matched: list[tuple[int, int]]
    partial: Allocation
    lipton: LiptonStats


@dataclass
class Ef1HighRun:
    allocation: Allocation
    iterations: int
    trace: list[tuple[int, int, int, int]]   # (t, agent, a, c) line positions
    partial: Allocation
    partial_welfare: Fraction
    line_order: LineOrder
    lipton: LiptonStats


@dataclass
class SolveEf1Run:
    allocation: Allocation
    branch: str                               # "abs" or "high"
    welfare: Fraction
    abs_run: Ef1AbsRun
    high_run: Optional[Ef1HighRun] = None


def run_ef1_abs(inst: Instance) -> Ef1AbsRun:
    weights = [list(v.values) if v.kind == ADDITIVE
               else [v.table[frozenset((g,))] for g in range(inst.m)]
               for v in inst.valuations]
    matched = max_weight_left_perfect_matching(weights)
    bundles: list[frozenset[int]] = [frozenset() for _ in range(inst.n)]
    for agent, good in matched:
        bundles[agent] = frozenset({good})
    partial = Allocation(tuple(bundles))
    allocation, stats = run_extend_ef1(inst, partial)
    return Ef1AbsRun(allocation=allocation, matched=matched, partial=partial,
                     lipton=stats)


def alg_ef1_abs(inst: Instance) -> Allocation:
    """EF1 allocation with welfare >= (1/2n) * sum_i v_i([m])."""
    return run_ef1_abs(inst).allocation


def reference_allocation(inst: Instance,
                         supplied: Optional[Allocation] = None,
                         cap: int = DEFAULT_ENUM_CAP) -> Allocation:
    """A complete allocation with welfare at least half the optimum.

    Additive instances get the exact optimum; small explicit instances the
    exhaustive optimum; a supplied allocation is validated (and its welfare
    checked against the optimum whenever the optimum is computable) and
    otherwise trusted.
    """
    if supplied is not None:
        validate_allocation(supplied, inst, require_complete=True)
        welfare = social_welfare(inst, supplied)
        try:
            _, opt = max_welfare(inst, cap=cap)
        except InfeasibleError:
            return supplied
        if 2 * welfare < opt:
            raise ValidationError(
                "reference-welfare",
                f"supplied reference welfare {welfare} is below half the "
                f"optimum {opt}")
        return supplied
    try:
        alloc, _ = max_welfare(inst, cap=cap)
    except InfeasibleError:
        raise InfeasibleError(
            "explicit instance over the enumeration cap and no supplied "
            "reference allocation") from None
    return alloc


class _LineValues:
    """Per-agent value of contiguous position ranges under a line order, in
    the agent's integers (`Valuation.ints`).

    Additive agents get integer prefix sums; explicit agents read their
    bitmask-indexed table at the range's mask, a difference of two prefix
    masks. Either way each range query is O(1).
    """

    def __init__(self, inst: Instance, line: LineOrder):
        masks = [0]
        for g in line.order:
            masks.append(masks[-1] | 1 << g)
        self._masks = masks
        self._prefix: list[Optional[list[int]]] = []
        self._tables: list[Optional[tuple[int, ...]]] = []
        for v in inst.valuations:
            ints, _ = v.ints
            if v.kind == ADDITIVE:
                acc = [0]
                for g in line.order:
                    acc.append(acc[-1] + ints[g])
                self._prefix.append(acc)
                self._tables.append(None)
            else:
                self._prefix.append(None)
                self._tables.append(ints)

    def range_value(self, agent: int, a: int, b: int) -> int:
        """Value of positions a..b inclusive."""
        pref = self._prefix[agent]
        if pref is not None:
            return pref[b + 1] - pref[a]
        return self._tables[agent][self._masks[b + 1] ^ self._masks[a]]


def _components(intervals: list[Optional[tuple[int, int]]],
                m: int) -> list[tuple[int, int]]:
    """Maximal runs of positions not covered by any assigned interval."""
    assigned = sorted(iv for iv in intervals if iv is not None)
    out = []
    cursor = 0
    for a, b in assigned:
        if a > cursor:
            out.append((cursor, a - 1))
        cursor = max(cursor, b + 1)
    if cursor <= m - 1:
        out.append((cursor, m - 1))
    return out


def run_ef1_high(inst: Instance, ref: Allocation) -> Ef1HighRun:
    validate_allocation(ref, inst, require_complete=True)
    # Checked here too: the loop below already assumes monotone values.
    for i, v in enumerate(inst.valuations):
        check_monotone(v, i)
    n, m = inst.n, inst.m
    line = LineOrder.from_reference(ref.bundles, m)
    lv = _LineValues(inst, line)

    intervals: list[Optional[tuple[int, int]]] = [None] * n
    own = [0] * n               # agent i's own value in her integers
    for i in range(n):
        bundle = ref.bundles[i]
        if not bundle:
            continue
        best_p = None
        best_val = None
        for g in sorted(bundle):
            p = line.position[g]
            val = lv.range_value(i, p, p)
            if best_val is None or val > best_val:
                best_p, best_val = p, val
        intervals[i] = (best_p, best_p)
        own[i] = best_val

    trace: list[tuple[int, int, int, int]] = []
    t = 0
    guard = 2 * n * m * m + 10
    value = lv.range_value
    while True:
        comps = _components(intervals, m)
        if debug.checks_enabled():
            assert len(comps) <= n + 1
        envied = None
        for a, b in comps:
            if any(own[i] < value(i, a, b) for i in range(n)):
                envied = (a, b)
                break
        if envied is None:
            break
        a, b = envied
        chosen = None
        for c in range(a, b + 1):
            for k in range(n):
                if own[k] < value(k, a, c):
                    chosen = (k, c)
                    break
            if chosen:
                break
        k, c = chosen
        intervals[k] = (a, c)
        own[k] = value(k, a, c)
        t += 1
        trace.append((t, k, a, c))
        if t > guard:
            raise AssertionError("high-welfare loop exceeded its iteration "
                                 "envelope; solver bug")
        if debug.checks_enabled():
            snapshot = _intervals_to_allocation(intervals, line, n)
            assert is_ef1(inst, snapshot).holds
            assert all(line.contiguous(bundle) for bundle in snapshot.bundles)

    partial = _intervals_to_allocation(intervals, line, n)
    partial_welfare = sum((Fraction(x, v.ints[1])
                           for x, v in zip(own, inst.valuations)), ZERO)
    allocation, stats = run_extend_ef1(inst, partial)
    return Ef1HighRun(allocation=allocation, iterations=t, trace=trace,
                      partial=partial, partial_welfare=partial_welfare,
                      line_order=line, lipton=stats)


def _intervals_to_allocation(intervals, line: LineOrder, n: int) -> Allocation:
    bundles = []
    for iv in intervals:
        if iv is None:
            bundles.append(frozenset())
        else:
            a, b = iv
            bundles.append(frozenset(line.order[p] for p in range(a, b + 1)))
    return Allocation(tuple(bundles))


def alg_ef1_high(inst: Instance, ref: Allocation) -> Allocation:
    """EF1 allocation whose welfare, on scaled instances, is at least
    SW(ref)/(6*sqrt(n)) - 1/6."""
    return run_ef1_high(inst, ref).allocation


def run_solve_ef1(inst: Instance,
                  reference: Optional[Allocation] = None,
                  cap: int = DEFAULT_ENUM_CAP) -> SolveEf1Run:
    abs_run = run_ef1_abs(inst)
    abs_welfare = social_welfare(inst, abs_run.allocation)
    if not inst.scaled:
        return SolveEf1Run(allocation=abs_run.allocation, branch="abs",
                           welfare=abs_welfare, abs_run=abs_run)
    ref = reference_allocation(inst, supplied=reference, cap=cap)
    high_run = run_ef1_high(inst, ref)
    high_welfare = social_welfare(inst, high_run.allocation)
    if high_welfare > abs_welfare:
        return SolveEf1Run(allocation=high_run.allocation, branch="high",
                           welfare=high_welfare, abs_run=abs_run,
                           high_run=high_run)
    return SolveEf1Run(allocation=abs_run.allocation, branch="abs",
                       welfare=abs_welfare, abs_run=abs_run, high_run=high_run)


def solve_ef1(inst: Instance, reference: Optional[Allocation] = None,
              cap: int = DEFAULT_ENUM_CAP) -> Allocation:
    """Best-of-two EF1 solver.

    Scaled instances run both algorithms and keep the higher welfare, which
    is at least OPT/(16*sqrt(n)); unscaled instances run the absolute
    algorithm alone, giving at least OPT/(2n).
    """
    return run_solve_ef1(inst, reference=reference, cap=cap).allocation
