"""Half-maximin-share solvers for additive valuations: the greedy
singleton-plus-Prop1 absolute-welfare algorithm (`run_mms_abs`), the
line-accumulation high-welfare algorithm (`run_mms_high`), and the
case-split combination (`run_solve_half_mms`). Each returns a run record
whose `allocation` is the result, next to the steps that produced it.

The absolute algorithm repeatedly hands the highest-valued "large" good
(one worth at least half the per-capita remainder to its taker) to that
taker, then splits what is left among the remaining agents with the
round-robin Prop1 allocation of `oracles.round_robin`. Its output is
1/2-MMS with welfare at least (1/3n) * sum_i v_i(all goods).

The high-welfare algorithm works on scaled instances against a
welfare-maximizing reference allocation W*. It tracks a permanent set P
(agents holding at least (1/(3 sqrt n)) of their reference-bundle value,
frozen thereafter) and a temporary set T (agents holding at least half
their maximin estimate Z_i but short of the welfare threshold). After
triaging zero-MMS agents and single-good winners it sweeps the goods in
reference order, growing an accumulator bundle that is swapped to
temporary agents or assigned to uncovered ones as soon as it crosses
their thresholds. At termination P and T cover all agents, |T| stays
within 4*sqrt(n), and 3*sqrt(n)*SW + 4*sqrt(n) >= OPT.

Both loops run on the agents' integer kernels (`Valuation.kernel`). The
absolute algorithm's pick compares values across agents by
cross-multiplying with their denominators; the high-welfare algorithm only
compares within an agent, so each agent reads her values and Z_i over one
denominator (`ints_with`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional

from . import debug
from .ef1 import LineOrder
from .errors import ValidationError
from .exact import sqrt_ge
from .fairness import is_prop1, social_welfare
from .model import (Allocation, Event, Instance, ZERO, agent_set,
                    exact_rational, good_set, ints_with, owners,
                    validate_allocation)
from .oracles import (DEFAULT_MMS_STATE_CAP, MmsProfile, max_welfare,
                      mms_profile, round_robin)


def _require_additive(inst: Instance, who: str) -> None:
    if not inst.additive:
        raise ValidationError("additive",
                              f"{who} supports additive valuations only")
    inst.require_monotone()


def prop1_subroutine(inst: Instance, agents: Iterable[int],
                     goods: Iterable[int]) -> Allocation:
    """`round_robin` over `goods` in ascending `agents` order, which is
    Prop1 scoped to the sub-instance. Raises ValueError unless `agents` are
    one or more distinct agents of the instance and `goods` are its goods."""
    _require_additive(inst, "prop1_subroutine")
    order = agent_set(agents, inst.n)
    return Allocation.from_masks(round_robin(*inst.rows(), order,
                                             good_set(goods, inst.m)))


@dataclass
class MmsAbsRun:
    allocation: Allocation
    # ("singleton", agent, (good,), "") in assignment order, then one
    # ("leftover", agent, goods, "") if every agent took a singleton before
    # the goods ran out; the earlier singletons give the agents and goods
    # left before each step.
    trace: list[Event]


def run_mms_abs(inst: Instance) -> MmsAbsRun:
    """1/2-MMS allocation with welfare >= (1/3n) * sum_i v_i([m])."""
    _require_additive(inst, "run_mms_abs")
    active = set(range(inst.n))
    remaining = set(range(inst.m))
    # The pick compares values across agents by cross-multiplying.
    values = [v.kernel for v in inst.valuations]
    totals = [sum(row) for row in values]
    bundles: list[set[int]] = [set() for _ in range(inst.n)]
    trace: list[Event] = []

    while True:
        best = None           # (value, den, agent, good)
        k = len(active)
        goods = sorted(remaining)
        for i in sorted(active):
            vals, den = values[i], inst.valuations[i].den
            for g in goods:
                if 2 * k * vals[g] >= totals[i]:
                    if best is None or vals[g] * best[1] > best[0] * den:
                        best = (vals[g], den, i, g)
        if best is None:
            break
        _, _, agent, good = best
        trace.append(Event("singleton", agent, (good,), ""))
        bundles[agent] = {good}
        active.remove(agent)
        remaining.remove(good)
        for i in active:
            totals[i] -= values[i][good]

    if active:
        rest = prop1_subroutine(inst, active, remaining)
        for i in active:
            bundles[i] = set(rest.bundles[i])
        if debug.checks_enabled() and remaining:
            scoped = is_prop1(inst, Allocation.of(bundles),
                              agents=sorted(active), goods=sorted(remaining))
            assert scoped.holds
    elif remaining:
        # Every agent took a singleton before the goods ran out; park the
        # leftovers with the last taker (extra goods only raise her value,
        # so both guarantees survive).
        last = trace[-1].agent
        bundles[last] |= remaining
        trace.append(Event("leftover", last, tuple(sorted(bundles[last])),
                           ""))

    return MmsAbsRun(allocation=Allocation.of(bundles), trace=trace)


@dataclass
class MmsHighRun:
    allocation: Allocation
    permanent: frozenset[int]
    temporary: frozenset[int]
    # One event per placement, phases zero-mms, single, singleton-loop,
    # swap, accumulate and leftover; the label is the set the agent is in
    # after it: "P" (permanent), "T" (temporary) or "-" (neither).
    trace: list[Event]
    gamma_single: frozenset[int]
    gamma_hard: frozenset[int]


def _assert_state(vals, z, wstar_val, bundles, perm, temp, n):
    assert not (perm & temp)
    for i in perm:
        bval = sum(vals[i][g] for g in bundles[i])
        assert sqrt_ge(3 * bval, wstar_val[i], n)
    for i in perm | temp:
        bval = sum(vals[i][g] for g in bundles[i])
        assert 2 * bval >= z[i]


def run_mms_high(inst: Instance, profile: MmsProfile, *,
                 wstar: Optional[Allocation] = None) -> MmsHighRun:
    """(1/2 - eps)-MMS allocation on a scaled additive instance satisfying
    3*sqrt(n)*SW + 4*sqrt(n) >= OPT. `wstar` is the max-welfare allocation
    `max_welfare(inst)` returns; it is computed when not given."""
    _require_additive(inst, "run_mms_high")
    if not inst.scaled:
        raise ValidationError("scaled",
                              "run_mms_high requires a scaled instance")
    n, m = inst.n, inst.m
    estimates = profile.estimates
    if len(estimates) != n:
        raise ValidationError("mms-profile",
                              f"profile covers {len(estimates)} agents, "
                              f"need {n}")

    # Every comparison below is within one agent, so each agent works in
    # her own integers: her values and Z_i over one denominator.
    pairs = [ints_with(v, zi) for v, zi in zip(inst.valuations, estimates)]
    vals = [row for row, _ in pairs]
    z = [zi for _, zi in pairs]

    if wstar is None:
        wstar, _ = max_welfare(inst)
    else:
        validate_allocation(wstar, inst, require_complete=True)
    line = LineOrder.from_reference(wstar.bundles, m)
    owner = owners(wstar.masks, m)
    wstar_val = [sum(vals[i][g] for g in wstar.bundles[i]) for i in range(n)]

    bundles: list[set[int]] = [set() for _ in range(n)]
    perm: set[int] = set()
    temp: set[int] = set()
    trace: list[Event] = []

    def note(phase: str, agent: int, label: str):
        trace.append(Event(phase, agent, tuple(sorted(bundles[agent])), label))
        if debug.checks_enabled():
            _assert_state(vals, z, wstar_val, bundles, perm, temp, n)

    def place(phase: str, agent: int, permanent: bool):
        temp.discard(agent)
        (perm if permanent else temp).add(agent)
        note(phase, agent, "P" if permanent else "T")

    # Zero-MMS triage. For additive valuations MMS_i = 0 exactly when agent
    # i values fewer than n goods positively, so no oracle call is needed.
    for i in range(n):
        positives = sum(1 for x in vals[i] if x > 0)
        if positives < n:
            if z[i] != 0:
                raise ValidationError(
                    "mms-profile", f"agent {i + 1} has zero maximin share "
                    f"but estimate {estimates[i]}", agent=i + 1)
            place("zero-mms", i, wstar_val[i] == 0)

    low = [i for i in range(n) if not sqrt_ge(3 * z[i], 2 * wstar_val[i], n)]
    gamma_single = frozenset(
        i for i in low if any(sqrt_ge(3 * vals[i][g], wstar_val[i], n)
                              for g in wstar.bundles[i]))
    gamma_hard = frozenset(low) - gamma_single

    for i in sorted(gamma_single):
        top = max(vals[i][g] for g in wstar.bundles[i])
        pick = min(g for g in wstar.bundles[i] if vals[i][g] == top)
        bundles[i] = {pick}
        place("single", i, True)

    # Hand single goods to uncovered agents while any good alone clears
    # half their estimate; lowest agent first, then lowest line position.
    # Placed agents stay placed and free goods only shrink, so one pass over
    # the agents makes every such pick.
    taken = set().union(*bundles)
    for a in sorted(set(range(n)) - perm - temp):
        va, za = vals[a], z[a]
        h = next((h for h in line.order if h not in taken and 2 * va[h] >= za),
                 None)
        if h is not None:
            taken.add(h)
            bundles[a] = {h}
            place("singleton-loop", a, sqrt_ge(3 * va[h], wstar_val[a], n))

    # Sweep the line order, accumulating the goods still unassigned here
    # into K; acc_val[a] is agent a's value of K.
    acc: set[int] = set()
    acc_val = [0] * n
    for g in line.order:
        if g in taken:
            continue
        acc.add(g)
        for a in range(n):
            acc_val[a] += vals[a][g]

        i = owner[g]
        if i in temp and sqrt_ge(3 * acc_val[i], wstar_val[i], n):
            bundles[i], acc = acc, bundles[i]
            acc_val = [sum(va[x] for x in acc) for va in vals]
            place("swap", i, True)

        cand = None
        for a in range(n):
            if a in perm or a in temp:
                continue
            if 2 * acc_val[a] >= z[a]:
                cand = a
                break
        if cand is not None:
            got = acc_val[cand]
            bundles[cand] = acc
            acc = set()
            acc_val = [0] * n
            place("accumulate", cand, sqrt_ge(3 * got, wstar_val[cand], n))

    leftover = frozenset(range(m)).difference(*bundles)
    for g in sorted(leftover):
        bundles[owner[g]].add(g)
    for i in sorted({owner[g] for g in leftover}):
        note("leftover", i, "P" if i in perm else ("T" if i in temp else "-"))

    return MmsHighRun(allocation=Allocation.of(bundles),
                      permanent=frozenset(perm), temporary=frozenset(temp),
                      trace=trace, gamma_single=gamma_single,
                      gamma_hard=gamma_hard)


@dataclass
class SolveHalfMmsRun:
    allocation: Allocation
    branch: str                    # "abs" or "high"
    welfare: Fraction
    opt: Fraction
    abs_run: Optional[MmsAbsRun] = None
    high_run: Optional[MmsHighRun] = None


def run_solve_half_mms(inst: Instance, epsilon: Optional[Fraction] = None,
                       profile: Optional[MmsProfile] = None,
                       mms_cap: int = DEFAULT_MMS_STATE_CAP) -> SolveHalfMmsRun:
    """(1/2 - eps)-MMS solver: welfare >= OPT/(15*sqrt(n)) on scaled
    instances, >= (1/3n) * sum_i v_i([m]) otherwise. With a profile, eps is
    the profile's, and `epsilon` may only repeat it (`injected_profile(z,
    epsilon=e)` labels estimates z at eps = e); without one, eps is
    `epsilon`, 0 if not given. Raises ValidationError unless 0 <= eps < 1/2,
    below which the guarantee is not vacuous."""
    _require_additive(inst, "run_solve_half_mms")
    own = ZERO if profile is None else profile.epsilon
    epsilon = own if epsilon is None else exact_rational(epsilon, "epsilon")
    if profile is not None and epsilon != own:
        raise ValidationError("epsilon", f"the profile's epsilon is {own}")
    if not 0 <= epsilon < Fraction(1, 2):
        raise ValidationError("epsilon", f"epsilon {epsilon} outside "
                              "[0, 1/2)")
    wstar, opt = max_welfare(inst)
    # The high branch pays off only when OPT exceeds 5*sqrt(n); below that
    # the absolute algorithm's welfare floor of 1/3 already achieves the
    # 15*sqrt(n) approximation on scaled instances.
    if inst.scaled and not sqrt_ge(Fraction(5), opt, inst.n):
        if profile is None:
            profile = mms_profile(inst, epsilon=epsilon, cap=mms_cap)
        high = run_mms_high(inst, profile, wstar=wstar)
        return SolveHalfMmsRun(allocation=high.allocation, branch="high",
                               welfare=social_welfare(inst, high.allocation),
                               opt=opt, high_run=high)
    abs_run = run_mms_abs(inst)
    return SolveHalfMmsRun(allocation=abs_run.allocation, branch="abs",
                           welfare=social_welfare(inst, abs_run.allocation),
                           opt=opt, abs_run=abs_run)
