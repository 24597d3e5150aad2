"""Brute-force ground truth: exact MMS values, exact maximum welfare, and
exact fairness-constrained optimal welfare on small instances.

The MMS oracle starts from the greedy bracket lo <= MMS <= hi. lo is the
least bundle of the largest-first greedy partition (LPT for machine
covering), at least (3k - 1)/(4k - 2) of the MMS on additive agents (Csirik,
Kellerer and Woeginger 1992); hi = min over j < k of (v(G) - top_j)/(k - j)
bounds additive agents with no negative value. When lo >= hi the MMS is lo
and nothing is enumerated. Otherwise it enumerates k-partitions depth-first
over bitmasks with first-good symmetry breaking and memoization on
(remaining goods, bundles left), every call searching only above a floor:
lo at the root, the caller's running best below it. It reads the agent's
integer kernel (MMS only ever compares one agent's values), so the inner
loop is pure integer arithmetic.

Kernel reads outside the inner loops go through `Valuation.ints_of` and
`Valuation.singles`. The inner loops read kernels and common-scale rows
inline: the MMS DP with `_subset_ints`, `_greedy_least`'s hand-outs,
`round_robin`, `_climb`, `_search` and `max_welfare`'s additive pass.

Maximum welfare on explicit or mixed instances and the fair optimum share
one exhaustive search: all n^m complete allocations depth-first, with an
upper-bound prune from per-good maxima where it is sound. Bundles are
bitmasks, and welfare, the bound and the leaf checks are integers over the
common scale (`Instance.rows(common=True)`). The EF1 and Prop1 leaf checks
call the deciders `is_ef1` and `is_prop1` use (`fairness`).

The search skips leaves that only relabel twins. Twin agents have equal
kernel rows (and, for alpha-MMS, equal requirements); an agent may take its
first good only once its nearest lower twin holds one. Twin goods, on
additive instances only, are valued equally by every agent; a good's owner
is never below its nearest lower twin's owner. This is exact: a leaf that
breaks either rule becomes lexicographically smaller when the two agents'
labels, or the two goods' owners, are swapped, and the swapped leaf has the
same welfare and the same EF1, Prop1 or alpha-MMS verdict. So the first
optimum, which the search returns, obeys both rules and is never skipped.

The search starts from the `round_robin` leaf (the loop `prop1_subroutine`
also runs) put through the same leaf check. Where the prune is sound, a
passing seed then climbs: single-good moves, best gain first, each kept
only if the moved leaf passes the same check. If the climbed leaf has
welfare F, the best welfare starts at F - 1: welfare is an integer over the
common denominator, so the prune cuts from the first node and no leaf worth
less than F is checked. The climbed leaf passes, so the first optimum is
worth at least F; it obeys the twin rules, so it is still found, and a leaf
that ties F earlier wins, since only a strictly higher welfare replaces the
best. The climb only raises F; the leaf itself is never returned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from heapq import heapreplace
from itertools import repeat
from operator import ge, mul
from typing import Iterable, Optional

from .errors import InfeasibleError, ValidationError
from .fairness import ef1_failure, nonnegative_alpha, prop1_good
from .model import (ADDITIVE, Allocation, Instance, Valuation, ZERO,
                    exact_rational, good_set, is_json_int, mask_goods, owners)

# Feasibility is judged on the k^|G| partition-state bound; the memoized DP
# itself touches at most k * 3^|G| states.
DEFAULT_MMS_STATE_CAP = 10 ** 9
DEFAULT_ENUM_CAP = 2 * 10 ** 7


@dataclass(frozen=True)
class MmsProfile:
    """Per-agent maximin shares and the estimates fed to the solvers.

    `mms` holds exact oracle values. `estimates` (Z_i, never negative) are
    set to the exact values when not given; a nonzero epsilon degrades them
    to (1 - eps) * MMS_i, which simulates an approximation scheme. Profiles
    built from injected estimates alone (no exact values) serve instances
    beyond the oracle cap; predicates that need exact values reject them.
    """

    mms: Optional[tuple[Fraction, ...]]
    estimates: Optional[tuple[Fraction, ...]] = None
    epsilon: Fraction = ZERO

    def __post_init__(self):
        # Every value an exact rational, stored as a Fraction.
        for name in ("mms", "estimates"):
            values = getattr(self, name)
            if values is not None:
                object.__setattr__(self, name, tuple(
                    exact_rational(x, name) for x in values))
        object.__setattr__(self, "epsilon",
                           exact_rational(self.epsilon, "epsilon"))
        if self.mms is None and self.estimates is None:
            raise ValidationError("mms-profile", "profile needs mms values "
                                  "or injected estimates")
        if not (0 <= self.epsilon < 1):
            raise ValidationError("mms-profile",
                                  f"epsilon {self.epsilon} outside [0, 1)")
        if self.estimates is None:
            object.__setattr__(self, "estimates", self.mms)
        elif self.mms is not None:
            if len(self.mms) != len(self.estimates):
                raise ValidationError(
                    "mms-profile", f"profile has {len(self.mms)} mms values "
                    f"and {len(self.estimates)} estimates")
            lo = 1 - self.epsilon
            for i, (exact, z) in enumerate(zip(self.mms, self.estimates)):
                if not (lo * exact <= z <= exact):
                    raise ValidationError(
                        "mms-profile",
                        f"estimate Z_{i + 1} = {z} outside "
                        f"[(1-eps)*MMS, MMS] = [{lo * exact}, {exact}]",
                        agent=i + 1)
        for i, z in enumerate(self.estimates):
            if z < 0:
                raise ValidationError(
                    "mms-profile", f"estimate Z_{i + 1} = {z} is negative",
                    agent=i + 1)

    def exact_mms(self, n: int) -> tuple[Fraction, ...]:
        """The exact MMS values, checked to cover n agents."""
        if self.mms is None:
            raise ValidationError(
                "mms-profile", "missing profile entry: exact MMS values "
                "required")
        if len(self.mms) != n:
            raise ValidationError(
                "mms-profile", f"profile has {len(self.mms)} entries, "
                f"instance has {n} agents")
        return self.mms

    def z(self, agent: int) -> Fraction:
        return self.estimates[agent]


def injected_profile(estimates: Iterable[Fraction],
                     epsilon: Fraction = ZERO) -> MmsProfile:
    """Profile carrying caller-supplied estimates only.

    The caller must guarantee each estimate is a genuine lower bound on the
    agent's maximin share (e.g. the minimum bundle of any concrete
    partition); nothing here can verify that without the exact oracle.
    """
    return MmsProfile(mms=None, estimates=tuple(estimates), epsilon=epsilon)


def _subset_ints(valuation: Valuation, goods: list[int]) -> list[int]:
    """The kernel's value of every subset of `goods`, indexed by local
    bitmask (bit b stands for goods[b]); an unvalidated table may value the
    empty set above 0."""
    ints = valuation.kernel
    additive = valuation.kind == ADDITIVE
    sums = [0] * (1 << len(goods))
    for local in range(1, len(sums)):
        low = local & -local
        g = goods[low.bit_length() - 1]
        sums[local] = sums[local ^ low] + (ints[g] if additive else 1 << g)
    # For explicit agents the sums are the subsets' kernel masks.
    return sums if additive else [ints[mask] for mask in sums]


def _goods(valuation: Valuation, k: int, goods) -> list[int]:
    """`goods` (all if None) sorted, checked as `Valuation.value` does."""
    if not (is_json_int(k) and k >= 1):
        raise ValueError(f"k = {k!r} must be a positive integer")
    return sorted(good_set(range(valuation.m) if goods is None else goods,
                           valuation.m))


def _greedy_least(valuation: Valuation, k: int, glist: list[int]) -> int:
    """The least bundle value, in kernel integers, of the largest-first
    greedy k-partition of `glist` (at least k goods): goods go largest first,
    each to the least-valued bundle, lowest index on ties."""
    ints = valuation.kernel
    additive = valuation.kind == ADDITIVE
    masks = [0] * k
    # (total, b) for every bundle b: the heap's top is the least-valued
    # bundle, lowest index on ties.
    heap = [(valuation.ints_of(()), b) for b in range(k)]
    single = valuation.singles
    for g in sorted(glist, key=lambda g: (-single[g], g)):
        total, j = heap[0]
        masks[j] |= 1 << g
        heapreplace(heap, ((total + ints[g]) if additive else ints[masks[j]],
                           j))
    return heap[0][0]


def mms_k(valuation: Valuation, k: int, goods: Optional[Iterable[int]] = None,
          cap: int = DEFAULT_MMS_STATE_CAP) -> Fraction:
    """Exact max over k-partitions of `goods` of the minimum bundle value.

    The agent's full maximin share is mms_k(v, n, all goods). Past the cap
    check, the greedy bracket lo <= MMS <= hi comes first: lo is the least
    bundle of `mms_lower_bound`'s greedy partition, and on additive agents
    with no negative value hi = min over j < k of (v(G) - top_j) / (k - j),
    top_j the j largest values (the k - j bundles holding none of them share
    at most v(G) - top_j). When lo >= hi the value is lo and no DP runs;
    otherwise the DP searches only above lo.
    """
    glist = _goods(valuation, k, goods)
    ints, den = valuation.kernel, valuation.den
    additive = valuation.kind == ADDITIVE
    # Constant-time outcomes first; only genuine enumeration hits the cap.
    total, empty = valuation.ints_of(glist), valuation.ints_of(())
    if k == 1:
        return Fraction(total, den)
    if len(glist) < k:
        # Every k-partition holds an empty bundle, and no bundle of a
        # monotone valuation is worth less.
        return Fraction(empty, den)
    if total == 0 or (additive and sum(ints[g] > 0 for g in glist) < k):
        return ZERO
    if k ** max(len(glist), 1) > cap:
        raise InfeasibleError(
            f"oracle infeasible: {k}^{len(glist)} partition states exceed "
            f"cap {cap}")

    lo = _greedy_least(valuation, k, glist)
    if additive:
        values = sorted((ints[g] for g in glist), reverse=True)
        if values[-1] >= 0:
            rest = total
            for j in range(k):
                if lo * (k - j) >= rest:    # lo >= hi
                    return Fraction(lo, den)
                rest -= values[j]
    # The DP's running bests start at 0 or above, and a root floor no higher
    # than its value changes nothing. lo is the least bundle of a partition
    # the DP visits, unless the greedy left a bundle empty: worth 0 on an
    # additive agent, v({}) on a table, so v({}) > 0 keeps the floor at 0.
    root_floor = max(lo, 0) if empty <= 0 else 0

    val = _subset_ints(valuation, glist)
    # (value, exact): an inexact value is a floor the best stayed at or
    # below, and answers only a floor at least as high.
    memo: dict[tuple[int, int], tuple[int, bool]] = {}

    def best(mask: int, parts: int, floor: int) -> int:
        # The best min over `parts`-partitions of `mask` when it is above
        # `floor`; otherwise a value at most `floor`.
        if parts == 1:
            return val[mask]
        if mask.bit_count() < parts:
            return 0
        key = (mask, parts)
        cached = memo.get(key)
        if cached is not None and (cached[1] or cached[0] <= floor):
            return cached[0]
        top = floor
        whole = val[mask]
        # For additive values some bundle is worth at most whole/parts.
        if not additive or parts * top < whole:
            low = mask & -mask
            rest = mask ^ low
            sub = rest
            while True:
                s = sub | low
                vs = val[s]
                if vs > top:
                    other_mask = mask ^ s
                    # For additive values the complement averages to at most
                    # val/(parts-1) per bundle, so a too-small complement can
                    # never raise the running best.
                    if not additive or val[other_mask] > (parts - 1) * top:
                        other = best(other_mask, parts - 1, top)
                        cand = vs if vs < other else other
                        if cand > top:
                            top = cand
                            if additive and parts * top >= whole:
                                break
                if sub == 0:
                    break
                sub = (sub - 1) & rest
        memo[key] = (top, top > floor)
        return top

    return Fraction(best((1 << len(glist)) - 1, k, root_floor), den)


def mms_lower_bound(valuation: Valuation, k: int,
                    goods: Optional[Iterable[int]] = None) -> Fraction:
    """Certified lower bound on mms_k: the minimum bundle value of a greedy
    largest-first partition. Any concrete partition's minimum is a valid
    lower bound, so this never needs the exhaustive oracle. Goods go largest
    first, each to the least-valued bundle, lowest index on ties. The greedy
    is LPT for machine covering, so on additive agents the bound is at least
    (3k - 1)/(4k - 2) of mms_k (Csirik, Kellerer and Woeginger 1992)."""
    glist = _goods(valuation, k, goods)
    if len(glist) < k:      # an empty bundle, as in `mms_k`
        return Fraction(valuation.ints_of(()), valuation.den)
    return Fraction(_greedy_least(valuation, k, glist), valuation.den)


def mms_profile(inst: Instance, epsilon: Fraction = ZERO,
                cap: int = DEFAULT_MMS_STATE_CAP) -> MmsProfile:
    """Exact MMS_i for every agent, with estimates Z_i = MMS_i (epsilon 0)
    or the deterministic degradation Z_i = (1 - eps) * MMS_i."""
    epsilon = exact_rational(epsilon, "epsilon")
    if not (0 <= epsilon < 1):
        raise ValidationError("mms-profile", f"epsilon {epsilon} outside [0, 1)")
    shares: dict[Valuation, Fraction] = {}     # twin agents share one
    for v in inst.valuations:
        if v not in shares:
            shares[v] = mms_k(v, inst.n, cap=cap)
    exact = tuple(map(shares.__getitem__, inst.valuations))
    estimates = tuple((1 - epsilon) * x for x in exact)
    return MmsProfile(mms=exact, estimates=estimates, epsilon=epsilon)


def max_welfare(inst: Instance,
                cap: int = DEFAULT_ENUM_CAP) -> tuple[Allocation, Fraction]:
    """A social-welfare-maximizing complete allocation and its welfare.

    Additive instances: each good goes to the agent valuing it most (ties to
    the lowest agent index), which is exact because welfare separates per
    good. Explicit and mixed instances: the fair optimum's exhaustive search
    with every leaf accepted, so the first optimum in lexicographic
    assignment order is kept.
    """
    if inst.additive:
        dens = [v.den for v in inst.valuations]
        bundles = [set() for _ in range(inst.n)]
        own = [0] * inst.n      # each agent's welfare over her own den
        for g, col in enumerate(zip(*(v.kernel for v in inst.valuations))):
            best, top, top_den = 0, col[0], dens[0]
            for i in range(1, inst.n):
                if col[i] * top_den > top * dens[i]:
                    best, top, top_den = i, col[i], dens[i]
            bundles[best].add(g)
            own[best] += top
        opt = sum(map(mul, own, inst.factors))
        return Allocation.of(bundles), Fraction(opt, inst.scale)

    _check_enum_cap(inst.n, inst.m, cap)
    return _search(inst, *inst.rows(common=True))


def _check_enum_cap(n: int, m: int, cap: int) -> None:
    """The exhaustive scans refuse more than `cap` of the n^m complete
    allocations; with no goods there is nothing to enumerate."""
    if m > 0 and n ** m > cap:
        raise InfeasibleError(
            f"oracle infeasible: {n}^{m} allocations exceed cap {cap}")


PROPERTIES = ("ef1", "prop1", "alpha-mms")


def _twins(keys) -> list[int]:
    """Each position's nearest lower position with an equal key, or -1."""
    last: dict = {}
    out = []
    for pos, key in enumerate(keys):
        out.append(last.get(key, -1))
        last[key] = pos
    return out


def round_robin(weights, tables, agents, goods) -> list[int]:
    """Every agent's bundle bitmask after round robin over `goods`: the
    sequence `agents` picks in the order given, each agent i the remaining g
    of largest `weights[i][g]` or `tables[i][B + g]` (the largest marginal
    gain, as B is fixed), lowest index on ties."""
    masks = [0] * len(weights)
    left = sorted(goods)
    while left:
        for agent in agents:
            if not left:
                break
            old, w, t = masks[agent], weights[agent], tables[agent]
            g = max(left, key=w.__getitem__ if t is None
                    else lambda g: t[old | 1 << g])
            left.remove(g)
            masks[agent] = old | 1 << g
    return masks


def _climb(weights, tables, masks, owner, own, passes) -> None:
    """Raise a passing leaf's welfare by single-good moves, in place. Each
    step applies the move of largest gain (lowest good, then agent, on ties)
    whose leaf still passes `passes` (None accepts every leaf), and the
    climb stops when no move of positive gain passes. Moving good g from
    o to a gains w_a(g) - w_o(g) on additive agents, and the two table
    differences t_a(B_a + g) - t_a(B_a) + t_o(B_o - g) - t_o(B_o) on
    explicit ones."""
    n = len(masks)

    def move(g, giver, taker, lost, gained):
        masks[giver] ^= 1 << g
        masks[taker] |= 1 << g
        owner[g] = taker
        own[giver] -= lost
        own[taker] += gained

    while True:
        moves = []
        for g, o in enumerate(owner):
            bit, t = 1 << g, tables[o]
            loss = t[masks[o]] - t[masks[o] ^ bit] if t is not None else \
                weights[o][g]
            for a in range(n):
                if a != o:
                    t = tables[a]
                    gain = (t[masks[a] | bit] - t[masks[a]] if t is not None
                            else weights[a][g]) - loss
                    if gain > 0:
                        moves.append((-gain, g, a, loss))
        moves.sort()
        for neg_gain, g, a, loss in moves:
            o = owner[g]
            move(g, o, a, loss, loss - neg_gain)
            if passes is None or passes(masks, owner, own):
                break
            move(g, a, o, loss - neg_gain, loss)
        else:
            return


def _search(inst: Instance, weights, tables, passes=None,
            required=None) -> Optional[tuple[Allocation, Fraction]]:
    """First max-welfare complete allocation in lexicographic assignment
    order whose leaf passes `passes(masks, owner, own)` (bundle bitmasks,
    each good's agent, each agent's own value over `inst.scale`), or None when
    none does. `passes=None` accepts every leaf; `required` (per-agent
    alpha-MMS requirements, when `passes` depends on them) keeps agents with
    different requirements from being twins.

    Goods are assigned in order, each to agents 0..n-1 in turn, and only a
    strictly higher welfare replaces the best. Leaves that break a twin rule
    are skipped: an agent takes its first good only once its nearest lower
    twin agent (equal kernel row and requirement) holds one, and on additive
    instances a good goes to no agent below the owner of its nearest lower
    twin good (equal value for every agent). Swapping the twins turns such a
    leaf into a lexicographically smaller one with the same welfare and
    verdict, so the first optimum obeys both rules and is still found.

    If the round-robin leaf passes, on instances where the prune is sound it
    is climbed (`_climb`) by passing single-good moves to welfare F, and the
    best starts at F - 1, not None: welfare is an integer and the climbed
    leaf passes, so the first optimum, worth at least F, is still found, and
    the prune works from the first node.
    """
    n, m = inst.n, inst.m
    masks = [0] * n
    owner = [0] * m
    own = [t[0] if t is not None else 0 for t in tables]
    agent_twin = _twins((v.kind, v.kernel, v.den, r) for v, r in
                        zip(inst.valuations, required or [None] * n))
    good_twin = _twins(zip(*weights)) if inst.additive else [-1] * m

    # Upper bound per good for the prune, sound on subadditive instances only
    # (supermodular tables can gain more than single-good values suggest).
    prunable = inst.subadditive
    suffix_max = [0] * (m + 1)
    for g in range(m - 1, -1, -1):
        suffix_max[g] = suffix_max[g + 1] + max(
            t[1 << g] if t is not None else w[g]
            for w, t in zip(weights, tables))

    best_welfare: Optional[int] = None
    best_masks: tuple[int, ...] = ()
    last = m - 1
    seed = round_robin(weights, tables, range(n), range(m))
    seed_owner = owners(seed, m)
    seed_own = [v.ints_of(mask_goods(mask)) * factor for v, mask, factor
                in zip(inst.valuations, seed, inst.factors)]
    if passes is None or passes(seed, seed_owner, seed_own):
        if prunable:
            _climb(weights, tables, seed, seed_owner, seed_own, passes)
        best_welfare = sum(seed_own) - 1   # F - 1 admits every leaf worth F

    def search(pos: int, sofar: int):
        nonlocal best_welfare, best_masks
        if (prunable and best_welfare is not None
                and sofar + suffix_max[pos] <= best_welfare):
            return
        bit = 1 << pos
        twin_good = good_twin[pos]
        for agent in range(owner[twin_good] if twin_good >= 0 else 0, n):
            old = masks[agent]
            twin = agent_twin[agent]
            if not (old or twin < 0 or masks[twin]):
                continue    # a first good before the twin's first good
            t = tables[agent]
            gain = t[old | bit] - t[old] if t is not None else \
                weights[agent][pos]
            masks[agent] = old | bit
            owner[pos] = agent
            own[agent] += gain
            welfare = sofar + gain
            if pos < last:
                search(pos + 1, welfare)
            elif (best_welfare is None or welfare > best_welfare) and (
                    passes is None or passes(masks, owner, own)):
                best_welfare = welfare
                best_masks = tuple(masks)
            masks[agent] = old
            own[agent] -= gain

    if m:
        search(0, sum(own))
    elif best_welfare is not None:
        # With no goods the seed, the empty allocation, is the only leaf.
        best_welfare, best_masks = best_welfare + 1, tuple(masks)
    if best_welfare is None:
        return None
    return Allocation.from_masks(best_masks), Fraction(best_welfare,
                                                        inst.scale)


def constrained_opt(inst: Instance, prop: str, alpha=None, profile=None,
                    cap: int = DEFAULT_ENUM_CAP,
                    mms_cap: int = DEFAULT_MMS_STATE_CAP
                    ) -> Optional[tuple[Allocation, Fraction]]:
    """Max-welfare complete allocation satisfying the given property, by
    exhaustive scan; the first optimum in lexicographic assignment order is
    kept. Returns None when no allocation satisfies it (possible only for
    alpha-mms)."""
    n, m = inst.n, inst.m
    if prop not in PROPERTIES:
        raise ValueError(
            f"unknown property {prop!r}; expected one of {PROPERTIES}")
    if prop == "alpha-mms":
        alpha = nonnegative_alpha(alpha if alpha is not None
                                  else Fraction(1, 2))
    _check_enum_cap(n, m, cap)

    weights, tables = inst.rows(common=True)
    required = None
    if prop == "ef1":
        # Below every additive value: the start of a bundle's running max.
        floors = [min(w, default=0) - 1 if w is not None else None
                  for w in weights]

        def passes(masks, owner, own):
            # Agents with the least own value, the likeliest to envy, first.
            return ef1_failure(weights, tables, floors, masks, owner,
                               sorted(range(n), key=own.__getitem__)) is None
    elif prop == "prop1":
        totals = [v.ints_of(range(m)) * factor
                  for v, factor in zip(inst.valuations, inst.factors)]

        def passes(masks, owner, own):
            return None not in map(prop1_good, weights, tables, masks, own,
                                   totals, repeat(range(m)), repeat(n))
    else:
        prof = profile if profile is not None else mms_profile(inst,
                                                               cap=mms_cap)
        # own_i >= alpha * MMS_i * L; own_i is an integer, so the ceiling.
        required = [math.ceil(alpha * x * inst.scale)
                    for x in prof.exact_mms(n)]

        def passes(masks, owner, own):
            return all(map(ge, own, required))

    return _search(inst, weights, tables, passes, required)


def price_of_fairness(inst: Instance, prop: str, alpha=None, profile=None,
                      cap: int = DEFAULT_ENUM_CAP,
                      mms_cap: int = DEFAULT_MMS_STATE_CAP
                      ) -> tuple[Fraction, Optional[Fraction]]:
    """`(opt, price)`: the maximum welfare OPT, and this instance's
    contribution to the price of fairness, OPT divided by the best welfare
    among property-satisfying allocations. The price is None (infinite)
    when the fairness constraint forces zero welfare but OPT is positive."""
    _, opt = max_welfare(inst, cap=cap)
    constrained = constrained_opt(inst, prop, alpha=alpha, profile=profile,
                                  cap=cap, mms_cap=mms_cap)
    return opt, price_ratio(opt, ZERO if constrained is None
                            else constrained[1])


def price_ratio(opt: Fraction, fair_welfare: Fraction) -> Optional[Fraction]:
    """OPT over the best fair welfare; None (infinite) when the fair
    welfare is 0 but OPT is positive, 1 when both are 0."""
    if fair_welfare == 0:
        return None if opt > 0 else Fraction(1)
    return opt / fair_welfare
