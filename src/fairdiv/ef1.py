"""EF1 solvers: the matching-based absolute-welfare algorithm
(`run_ef1_abs`), the line-graph high-welfare algorithm (`run_ef1_high`), and
the best-of-two combination (`run_solve_ef1`). Each returns a run record
whose `allocation` is the result, next to the steps that produced it.

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

The unassigned components stay in one sorted list that each step updates:
the chosen prefix is cut from its component, and the receiver's released
interval goes back in, merged with the components it touches. A component
found unenvied is remembered by its end positions and skipped from then on:
own values never fall, and the same positions hold the same goods, so it
stays unenvied. Any other component costs one pass over the agents, each a
binary search for her shortest envied prefix (values are monotone) capped
at the shortest found so far. So one step costs O(n log m) for each
component scanned, plus O(n) to update the list, where a scan of every
component and a position-by-position walk of the envied one cost O(n m).

The matching's weights are each agent's `Valuation.singles` times one
factor, which puts them over the lcm of the agents' denominators. The
high-welfare loop is the inner loop here, and its range reads index the
kernels inline.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import lcm
from operator import or_
from typing import Optional

from . import debug
from .envy_cycle import Ef1Partial, LiptonStats, run_extend_ef1
from .errors import InfeasibleError, ValidationError
from .fairness import is_ef1, social_welfare, split_rows
from .matching import max_weight_left_perfect_matching
from .model import Allocation, Event, Instance, validate_allocation
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
    lipton: LiptonStats


@dataclass
class Ef1HighRun:
    allocation: Allocation
    steps: list[tuple[int, int, int]]   # (agent, a, c): she took positions a..c
    line: LineOrder
    partial: Allocation     # the loop's allocation, before the extension
    lipton: LiptonStats

    @property
    def trace(self) -> list[Event]:
        """("prefix", agent, her new bundle, "") per step."""
        order = self.line.order
        return [Event("prefix", k, tuple(sorted(order[a:c + 1])), "")
                for k, a, c in self.steps]

    @property
    def iterations(self) -> int:
        return len(self.steps)


@dataclass
class SolveEf1Run:
    allocation: Allocation
    branch: str                               # "abs" or "high"
    welfare: Fraction
    abs_run: Ef1AbsRun
    high_run: Optional[Ef1HighRun] = None


def run_ef1_abs(inst: Instance) -> Ef1AbsRun:
    """EF1 allocation with welfare >= (1/2n) * sum_i v_i([m])."""
    # Checked before the matching, which would refuse a negative weight
    # without naming the agent.
    inst.require_monotone()
    # The matching adds across agents: singleton values over one scale.
    scale = lcm(*(v.den for v in inst.valuations))
    weights = []
    for v in inst.valuations:
        factor = scale // v.den
        weights.append([x * factor for x in v.singles])
    matched = max_weight_left_perfect_matching(weights)
    bundles: list[frozenset[int]] = [frozenset() for _ in range(inst.n)]
    for agent, good in matched:
        bundles[agent] = frozenset({good})
    # Singletons are EF1 for any monotone valuation.
    allocation, stats = run_extend_ef1(inst, Ef1Partial(tuple(bundles)))
    return Ef1AbsRun(allocation=allocation, lipton=stats)


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
    """EF1 allocation whose welfare, on scaled instances, is at least
    SW(ref)/(6*sqrt(n)) - 1/6."""
    validate_allocation(ref, inst, require_complete=True)
    # The loop below already assumes monotone values.
    inst.require_monotone()
    n, m = inst.n, inst.m
    line = LineOrder.from_reference(ref.bundles, m)
    # Each agent's value of the positions a..b, in her integers: a
    # difference of prefix sums (additive), or her table at the difference
    # of two prefix masks (explicit).
    masks = list(accumulate((1 << g for g in line.order), or_, initial=0))
    rows, tables = split_rows(inst, [v.kernel for v in inst.valuations])
    prefix = [None if w is None else
              list(accumulate(map(w.__getitem__, line.order), initial=0))
              for w in rows]

    def range_value(i: int, a: int, b: int) -> int:
        pref = prefix[i]
        if pref is not None:
            return pref[b + 1] - pref[a]
        return tables[i][masks[b + 1] ^ masks[a]]

    intervals: list[Optional[tuple[int, int]]] = [None] * n
    own = [0] * n               # agent i's own value in her integers
    for i, bundle in enumerate(ref.bundles):
        if bundle:      # her best reference good, the lowest on ties
            p = max((line.position[g] for g in sorted(bundle)),
                    key=lambda p: range_value(i, p, p))
            intervals[i] = (p, p)
            own[i] = range_value(i, p, p)

    steps: list[tuple[int, int, int]] = []
    guard = 2 * n * m * m + 10
    comps = _components(intervals, m)
    unenvied: set[tuple[int, int]] = set()
    while True:
        if debug.checks_enabled():
            assert comps == _components(intervals, m)
            assert len(comps) <= n + 1
        # The first envied component, with its shortest envied prefix a..c
        # and the lowest agent k who envies that prefix. Agent i's search
        # ends at c, the shortest prefix so far (b + 1: none yet), and
        # returns c when she envies no shorter one.
        for index, (a, b) in enumerate(comps):
            if (a, b) in unenvied:
                continue
            c = b + 1
            for i in range(n):
                pref = prefix[i]
                if pref is not None:
                    ci = bisect_right(pref, own[i] + pref[a], a + 1, c + 1) - 1
                else:
                    t, base = tables[i], masks[a]
                    ci = a + bisect_right(range(a + 1, c + 1), own[i],
                                          key=lambda e: t[masks[e] ^ base])
                if ci < c:
                    c, k = ci, i
            if c <= b:
                break
            unenvied.add((a, b))
        else:
            break
        released = intervals[k]
        intervals[k] = (a, c)
        own[k] = range_value(k, a, c)
        if c < b:
            comps[index] = (c + 1, b)
        else:
            del comps[index]
        if released is not None:
            # Insert her old interval, merged with the components it
            # touches.
            p, q = released
            index = bisect_left(comps, released)
            if index < len(comps) and comps[index][0] == q + 1:
                q = comps.pop(index)[1]
            if index and comps[index - 1][1] == p - 1:
                index -= 1
                p = comps.pop(index)[0]
            comps.insert(index, (p, q))
        steps.append((k, a, c))
        if len(steps) > guard:
            raise AssertionError("high-welfare loop exceeded its iteration "
                                 "envelope; solver bug")
        if debug.checks_enabled():
            snapshot = _intervals_to_allocation(intervals, line, n)
            assert is_ef1(inst, snapshot).holds
            assert all(line.contiguous(bundle) for bundle in snapshot.bundles)

    partial = _intervals_to_allocation(intervals, line, n)
    # EF1 by the loop invariant that the debug checks assert every step.
    allocation, stats = run_extend_ef1(inst, Ef1Partial(partial.bundles))
    return Ef1HighRun(allocation=allocation, steps=steps, line=line,
                      partial=partial, lipton=stats)


def _intervals_to_allocation(intervals, line: LineOrder, n: int) -> Allocation:
    bundles = []
    for iv in intervals:
        if iv is None:
            bundles.append(frozenset())
        else:
            a, b = iv
            bundles.append(frozenset(line.order[p] for p in range(a, b + 1)))
    return Allocation(tuple(bundles))


def run_solve_ef1(inst: Instance,
                  reference: Optional[Allocation] = None,
                  cap: int = DEFAULT_ENUM_CAP) -> SolveEf1Run:
    """Best-of-two EF1 solver.

    Scaled instances run both algorithms and keep the higher welfare, which
    is at least OPT/(16*sqrt(n)); unscaled instances run the absolute
    algorithm alone, giving at least OPT/(2n).
    """
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
