"""Brute-force ground truth: exact MMS values, exact maximum welfare, and
exact fairness-constrained optimal welfare on small instances.

The MMS oracle enumerates k-partitions depth-first over bitmasks with
first-good symmetry breaking, best-min bound pruning, and memoization on
(remaining goods, bundles left). It reads the agent's integer kernel
(`Valuation.ints`; MMS only ever compares one agent's values), so the inner
loop is pure integer arithmetic. Maximum welfare on explicit or mixed
instances and the fair optimum share one exhaustive search: all n^m complete
allocations depth-first, with an upper-bound prune from per-good maxima
where it is sound. Bundles are bitmasks, and welfare, the bound and the EF1,
Prop1 and alpha-MMS leaf checks are integers over one common denominator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from operator import ge
from typing import Iterable, Optional

from .errors import InfeasibleError, ValidationError
from .model import (ADDITIVE, Allocation, Instance, Valuation, ZERO,
                    common_ints, mask_goods)

# Feasibility is judged on the k^|G| partition-state bound; the memoized DP
# itself touches at most k * 3^|G| states.
DEFAULT_MMS_STATE_CAP = 10 ** 9
DEFAULT_ENUM_CAP = 2 * 10 ** 7


@dataclass(frozen=True)
class MmsProfile:
    """Per-agent maximin shares and the estimates fed to the solvers.

    `mms` holds exact oracle values. `estimates` (Z_i) default to the exact
    values; a nonzero epsilon degrades them deterministically to
    (1 - eps) * MMS_i, which simulates an approximation scheme. Profiles
    built from injected estimates alone (no exact values) are allowed for
    instances beyond the oracle cap; predicates that need exact values
    reject them.
    """

    mms: Optional[tuple[Fraction, ...]]
    estimates: Optional[tuple[Fraction, ...]] = None
    epsilon: Fraction = ZERO

    def __post_init__(self):
        if self.mms is None and self.estimates is None:
            raise ValidationError("mms-profile", "profile needs mms values "
                                  "or injected estimates")
        if not (0 <= self.epsilon < 1):
            raise ValidationError("mms-profile",
                                  f"epsilon {self.epsilon} outside [0, 1)")
        if self.mms is not None and self.estimates is not None:
            lo = 1 - self.epsilon
            for i, (exact, z) in enumerate(zip(self.mms, self.estimates)):
                if not (lo * exact <= z <= exact):
                    raise ValidationError(
                        "mms-profile",
                        f"estimate Z_{i + 1} = {z} outside "
                        f"[(1-eps)*MMS, MMS] = [{lo * exact}, {exact}]",
                        agent=i + 1)

    def z(self, agent: int) -> Fraction:
        if self.estimates is not None:
            return self.estimates[agent]
        return self.mms[agent]


def injected_profile(estimates: Iterable[Fraction],
                     epsilon: Fraction = ZERO) -> MmsProfile:
    """Profile carrying caller-supplied estimates only.

    The caller must guarantee each estimate is a genuine lower bound on the
    agent's maximin share (e.g. the minimum bundle of any concrete
    partition); nothing here can verify that without the exact oracle.
    """
    return MmsProfile(mms=None,
                      estimates=tuple(Fraction(z) for z in estimates),
                      epsilon=Fraction(epsilon))


def _subset_ints(valuation: Valuation, goods: list[int]) -> list[int]:
    """The kernel's value of every subset of `goods`, indexed by local
    bitmask (bit b stands for goods[b]); an unvalidated table may value the
    empty set above 0."""
    ints = valuation.ints[0]
    additive = valuation.kind == ADDITIVE
    sums = [0] * (1 << len(goods))
    for local in range(1, len(sums)):
        low = local & -local
        g = goods[low.bit_length() - 1]
        sums[local] = sums[local ^ low] + (ints[g] if additive else 1 << g)
    # For explicit agents the sums are the subsets' kernel masks.
    return sums if additive else [ints[mask] for mask in sums]


def mms_k(valuation: Valuation, k: int, goods: Optional[Iterable[int]] = None,
          cap: int = DEFAULT_MMS_STATE_CAP) -> Fraction:
    """Exact max over k-partitions of `goods` of the minimum bundle value.

    The agent's full maximin share is mms_k(v, n, all goods).
    """
    if k < 1:
        raise ValueError("k must be a positive integer")
    glist = sorted(goods) if goods is not None else list(range(valuation.m))
    # Constant-time outcomes first; only genuine enumeration hits the cap.
    if k == 1:
        return valuation.value(glist)
    if len(glist) < k:
        return ZERO
    if valuation.value(glist) == 0:
        return ZERO
    if valuation.kind == ADDITIVE:
        positive = sum(1 for g in glist if valuation.values[g] > 0)
        if positive < k:
            return ZERO
    if k ** max(len(glist), 1) > cap:
        raise InfeasibleError(
            f"oracle infeasible: {k}^{len(glist)} partition states exceed "
            f"cap {cap}")

    val = _subset_ints(valuation, glist)
    additive = valuation.kind == ADDITIVE
    memo: dict[tuple[int, int], int] = {}

    def best(mask: int, parts: int) -> int:
        if parts == 1:
            return val[mask]
        if mask.bit_count() < parts:
            return 0
        key = (mask, parts)
        cached = memo.get(key)
        if cached is not None:
            return cached
        low = mask & -mask
        rest = mask ^ low
        top = 0
        whole = val[mask]
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
                    other = best(other_mask, parts - 1)
                    cand = vs if vs < other else other
                    if cand > top:
                        top = cand
                        if additive and parts * top >= whole:
                            break
            if sub == 0:
                break
            sub = (sub - 1) & rest
        memo[key] = top
        return top

    result = best((1 << len(glist)) - 1, k)
    return Fraction(result, valuation.ints[1])


def mms_lower_bound(valuation: Valuation, k: int,
                    goods: Optional[Iterable[int]] = None) -> Fraction:
    """Certified lower bound on mms_k: the minimum bundle value of a greedy
    largest-first partition. Any concrete partition's minimum is a valid
    lower bound, so this never needs the exhaustive oracle."""
    if k < 1:
        raise ValueError("k must be a positive integer")
    glist = sorted(goods) if goods is not None else list(range(valuation.m))
    bundles: list[set[int]] = [set() for _ in range(k)]
    if valuation.kind == ADDITIVE:
        totals = [ZERO] * k
        order = sorted(glist, key=lambda g: (-valuation.values[g], g))
        for g in order:
            j = min(range(k), key=lambda b: (totals[b], b))
            bundles[j].add(g)
            totals[j] += valuation.values[g]
        return min(totals)
    order = sorted(glist, key=lambda g: (-valuation.value({g}), g))
    for g in order:
        j = min(range(k), key=lambda b: (valuation.value(bundles[b]), b))
        bundles[j].add(g)
    return min(valuation.value(b) for b in bundles)


def mms_profile(inst: Instance, epsilon: Fraction = ZERO,
                cap: int = DEFAULT_MMS_STATE_CAP) -> MmsProfile:
    """Exact MMS_i for every agent, with estimates Z_i = MMS_i (epsilon 0)
    or the deterministic degradation Z_i = (1 - eps) * MMS_i."""
    epsilon = Fraction(epsilon)
    if not (0 <= epsilon < 1):
        raise ValidationError("mms-profile", f"epsilon {epsilon} outside [0, 1)")
    exact = tuple(mms_k(inst.valuations[i], inst.n, cap=cap)
                  for i in range(inst.n))
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
        rows, scale = common_ints(inst.valuations)
        bundles = [set() for _ in range(inst.n)]
        opt = 0
        for g, vals in enumerate(zip(*rows)):
            top = max(vals)
            bundles[vals.index(top)].add(g)
            opt += top
        return Allocation.of(bundles), Fraction(opt, scale)

    if inst.n ** inst.m > cap:
        raise InfeasibleError(
            f"oracle infeasible: {inst.n}^{inst.m} allocations exceed cap {cap}")
    return _search(inst, *_split_kernels(inst))


PROPERTIES = ("ef1", "prop1", "alpha-mms")


def _bits(mask: int):
    """The single-bit masks set in `mask`, lowest first."""
    while mask:
        low = mask & -mask
        yield low
        mask ^= low


def _ef1_leaf(n, weights, floors, tables, masks, owner, own) -> bool:
    """EF1 by definition: for every i and nonempty B_j some g in B_j has
    v_i(B_i) >= v_i(B_j - {g}). Agents with the least own value, the
    likeliest to envy, are checked first so failing leaves exit early."""
    for i in sorted(range(n), key=own.__getitem__):
        oi, w, t = own[i], weights[i], tables[i]
        if t is None:
            # Additive: v_i(B_j - {g}) is smallest for g the top good of B_j.
            sums = [0] * n
            tops = [floors[i]] * n
            for j, x in zip(owner, w):
                sums[j] += x
                if x > tops[j]:
                    tops[j] = x
            for j in range(n):
                if j != i and masks[j] and sums[j] - tops[j] > oi:
                    return False
        else:
            for j in range(n):
                bj = masks[j]
                if j != i and bj and all(t[bj ^ low] > oi
                                         for low in _bits(bj)):
                    return False
    return True


def _prop1_leaf(n, weights, tables, totals, full, masks, owner, own) -> bool:
    """Prop1 by definition: n * max(v_i(B_i), max_g v_i(B_i + {g})) >=
    v_i(G), g ranging over all of G (the own value settles empty G)."""
    for i in range(n):
        oi, w, t = own[i], weights[i], tables[i]
        if t is None:
            # Adding an owned good leaves the value at v_i(B_i).
            best = oi + max([0] + [x for j, x in zip(owner, w) if j != i])
        else:
            mask = masks[i]
            best = max([oi] + [t[mask | low] for low in _bits(full)])
        if n * best < totals[i]:
            return False
    return True


def _split_kernels(inst: Instance):
    """Every kernel over one common denominator: per-good weights (additive
    agents) or bitmask tables (explicit), None in the other list."""
    rows, scale = common_ints(inst.valuations)
    additive = [v.kind == ADDITIVE for v in inst.valuations]
    weights = [row if add else None for row, add in zip(rows, additive)]
    tables = [None if add else row for row, add in zip(rows, additive)]
    return weights, tables, scale


def _search(inst: Instance, weights, tables, scale: int, passes=None
            ) -> Optional[tuple[Allocation, Fraction]]:
    """First max-welfare complete allocation in lexicographic assignment
    order whose leaf passes `passes(masks, owner, own)` (bundle bitmasks,
    each good's agent, each agent's own value over `scale`), or None when
    none does. `passes=None` accepts every leaf.

    Goods are assigned in order, each to agents 0..n-1 in turn, and only a
    strictly higher welfare replaces the best.
    """
    n, m = inst.n, inst.m
    masks = [0] * n
    owner = [0] * m
    own = [t[0] if t is not None else 0 for t in tables]

    # Upper bound per good for the prune: valid for additive welfare and for
    # explicit tables flagged subadditive; otherwise no prune is sound
    # (supermodular tables can gain more than single-good values suggest).
    prunable = inst.additive or all(
        v.kind != ADDITIVE and v.subadditive for v in inst.valuations)
    suffix_max = [0] * (m + 1)
    for g in range(m - 1, -1, -1):
        suffix_max[g] = suffix_max[g + 1] + max(
            t[1 << g] if t is not None else w[g]
            for w, t in zip(weights, tables))

    best_welfare: Optional[int] = None
    best_masks: tuple[int, ...] = ()
    last = m - 1

    def search(pos: int, sofar: int):
        nonlocal best_welfare, best_masks
        if (prunable and best_welfare is not None
                and sofar + suffix_max[pos] <= best_welfare):
            return
        bit = 1 << pos
        for agent in range(n):
            old = masks[agent]
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
    elif passes is None or passes(masks, owner, own):
        # With no goods the empty allocation is the only leaf.
        best_welfare, best_masks = sum(own), tuple(masks)
    if best_welfare is None:
        return None
    bundles = [mask_goods(mask) for mask in best_masks]
    return Allocation(tuple(bundles)), Fraction(best_welfare, scale)


def constrained_opt(inst: Instance, prop: str, alpha=None, profile=None,
                    cap: int = DEFAULT_ENUM_CAP,
                    mms_cap: int = DEFAULT_MMS_STATE_CAP
                    ) -> Optional[tuple[Allocation, Fraction]]:
    """Max-welfare complete allocation satisfying the given property, by
    exhaustive scan; the first optimum in lexicographic assignment order is
    kept. Returns None when no allocation satisfies it (possible only for
    alpha-mms)."""
    n, m = inst.n, inst.m
    if m > 0 and n ** m > cap:
        raise InfeasibleError(
            f"oracle infeasible: {n}^{m} allocations exceed cap {cap}")
    if prop not in PROPERTIES:
        raise ValueError(
            f"unknown property {prop!r}; expected one of {PROPERTIES}")
    if prop == "alpha-mms":
        alpha = Fraction(alpha if alpha is not None else Fraction(1, 2))
        prof = profile if profile is not None else mms_profile(inst,
                                                               cap=mms_cap)
        if prof.mms is None:
            raise ValidationError(
                "mms-profile", "missing profile entry: exact MMS values "
                "required")
        if len(prof.mms) != n:
            raise ValidationError(
                "mms-profile", f"profile has {len(prof.mms)} entries, "
                f"instance has {n} agents")

    weights, tables, scale = _split_kernels(inst)
    if prop == "ef1":
        # Below every additive value: the start of a bundle's running max.
        floors = [min(w, default=0) - 1 if w is not None else None
                  for w in weights]
        passes = partial(_ef1_leaf, n, weights, floors, tables)
    elif prop == "prop1":
        full = (1 << m) - 1
        totals = [t[full] if t is not None else sum(w)
                  for w, t in zip(weights, tables)]
        passes = partial(_prop1_leaf, n, weights, tables, totals, full)
    else:
        # own_i >= alpha * MMS_i * L; own_i is an integer, so the ceiling.
        required = [math.ceil(alpha * x * scale) for x in prof.mms]

        def passes(masks, owner, own):
            return all(map(ge, own, required))

    return _search(inst, weights, tables, scale, passes)


def price_of_fairness(inst: Instance, prop: str, alpha=None, profile=None,
                      cap: int = DEFAULT_ENUM_CAP,
                      mms_cap: int = DEFAULT_MMS_STATE_CAP):
    """This instance's contribution to the price of fairness: OPT divided by
    the best welfare among property-satisfying allocations. Returns
    math.inf when the fairness constraint forces zero welfare but OPT is
    positive."""
    _, opt = max_welfare(inst, cap=cap)
    constrained = constrained_opt(inst, prop, alpha=alpha, profile=profile,
                                  cap=cap, mms_cap=mms_cap)
    if constrained is None or constrained[1] == 0:
        if opt > 0:
            return math.inf
        return Fraction(1)
    return opt / constrained[1]
