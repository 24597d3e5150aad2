"""Shared test helpers: independent brute-force oracles, `Fraction`
reference implementations of the integer solvers, and instance builders.

The naive oracles here deliberately avoid every code path they are used to
check (no pruning, no memoization, no fast paths); they enumerate directly
from definitions via value queries. The reference solvers replay the
solvers' algorithms step for step in exact `Fraction`s, rebuilding every
derived structure from scratch, so a seeded corpus can compare whole
results, tie-breaks included.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import permutations, product

import pytest

from fairdiv import (Allocation, FairnessVerdict, Instance, LineOrder,
                     ValidationError, Valuation, checks_enabled,
                     generate_random, generate_random_subadditive,
                     max_welfare, set_debug_checks, value_query)
from fairdiv.exact import sqrt_ge


@pytest.fixture()
def debug_mode():
    """Turns on the solvers' per-step invariant checks for one test, then
    restores the previous setting (FAIRDIV_DEBUG may have set it)."""
    before = checks_enabled()
    set_debug_checks(True)
    yield
    set_debug_checks(before)


def additive_instance(rows, scaled=False) -> Instance:
    vals = tuple(Valuation.additive([Fraction(x) for x in row])
                 for row in rows)
    return Instance(n=len(rows), m=len(rows[0]), valuations=vals,
                    scaled=scaled)


def all_allocations(n: int, m: int):
    """Every complete allocation as a bundle tuple, lexicographic order."""
    for assign in product(range(n), repeat=m):
        bundles = [set() for _ in range(n)]
        for g, agent in enumerate(assign):
            bundles[agent].add(g)
        yield Allocation.of(bundles)


def naive_max_welfare(inst: Instance):
    best = None
    best_alloc = None
    for alloc in all_allocations(inst.n, inst.m):
        welfare = sum((inst.value(i, alloc.bundles[i])
                       for i in range(inst.n)), Fraction(0))
        if best is None or welfare > best:
            best, best_alloc = welfare, alloc
    return best_alloc, best


def naive_constrained_opt(inst: Instance, passes):
    best = None
    best_alloc = None
    for alloc in all_allocations(inst.n, inst.m):
        if not passes(alloc):
            continue
        welfare = sum((inst.value(i, alloc.bundles[i])
                       for i in range(inst.n)), Fraction(0))
        if best is None or welfare > best:
            best, best_alloc = welfare, alloc
    if best is None:
        return None
    return best_alloc, best


def naive_is_ef1(inst: Instance, alloc: Allocation) -> bool:
    for i in range(inst.n):
        own = value_query(inst.valuations[i], alloc.bundles[i])
        for j in range(inst.n):
            if i == j or not alloc.bundles[j]:
                continue
            if not any(own >= value_query(inst.valuations[i],
                                          alloc.bundles[j] - {g})
                       for g in alloc.bundles[j]):
                return False
    return True


def naive_is_prop1(inst: Instance, alloc: Allocation) -> bool:
    """Prop1 by definition; with no goods at all it holds vacuously."""
    for i in range(inst.n):
        threshold = value_query(inst.valuations[i], range(inst.m)) / inst.n
        if inst.m and not any(
                value_query(inst.valuations[i], alloc.bundles[i] | {g})
                >= threshold for g in range(inst.m)):
            return False
    return True


def naive_is_alpha_mms(inst: Instance, alloc: Allocation, alpha,
                       shares) -> bool:
    return all(value_query(inst.valuations[i], alloc.bundles[i])
               >= alpha * shares[i] for i in range(inst.n))


def naive_mms(valuation: Valuation, k: int, goods=None) -> Fraction:
    glist = sorted(goods) if goods is not None else list(range(valuation.m))
    if k == 1:
        return value_query(valuation, glist)
    best = None
    for assign in product(range(k), repeat=len(glist)):
        bundles = [set() for _ in range(k)]
        for pos, b in enumerate(assign):
            bundles[b].add(glist[pos])
        worst = min(value_query(valuation, b) for b in bundles)
        if best is None or worst > best:
            best = worst
    return best if best is not None else Fraction(0)


def _ext(goods):
    return tuple(sorted(g + 1 for g in goods))


def naive_validate_valuation(v: Valuation, agent: int) -> None:
    """Every valuation axiom checked in `Fraction`s over `frozenset`
    subsets, subadditivity over all 4^m pairs (S, T) with S, then T,
    ascending by bitmask. Raises the ValidationError the loader must
    raise: same axiom, agent, witness and message."""
    label = f"agent {agent + 1}"
    if v.kind == "additive":
        if len(v.values) != v.m:
            raise ValidationError(
                "value-count", f"{label}: expected {v.m} values, got "
                f"{len(v.values)}", agent=agent + 1)
        for g, x in enumerate(v.values):
            if x < 0:
                raise ValidationError(
                    "nonnegative", f"{label}: v({g + 1}) = {x} < 0",
                    agent=agent + 1, witness=(g + 1,))
        return
    empty = v.table[frozenset()]
    if empty != 0:
        raise ValidationError(
            "normalized", f"{label}: not normalized, v({{}}) = {empty} != 0",
            agent=agent + 1, witness=())
    for subset, val in v.table.items():
        if val < 0:
            raise ValidationError(
                "nonnegative", f"{label}: v({_ext(subset)}) = {val} < 0",
                agent=agent + 1, witness=_ext(subset))
    subsets = [frozenset(g for g in range(v.m) if mask >> g & 1)
               for mask in range(1 << v.m)]
    for s in subsets:
        for g in range(v.m):
            bigger = s | {g}
            if g not in s and v.table[s] > v.table[bigger]:
                raise ValidationError(
                    "monotone",
                    f"{label}: v({_ext(s)}) = {v.table[s]} > "
                    f"v({_ext(bigger)}) = {v.table[bigger]}",
                    agent=agent + 1, witness=(_ext(s), _ext(bigger)))
    if v.subadditive:
        for s in subsets[1:]:
            for t in subsets[1:]:
                if v.table[s | t] > v.table[s] + v.table[t]:
                    raise ValidationError(
                        "subadditive",
                        f"{label}: v({_ext(s | t)}) = {v.table[s | t]} > "
                        f"v(S) + v(T) = {v.table[s] + v.table[t]} for "
                        f"S = {_ext(s)}, T = {_ext(t)}", agent=agent + 1,
                        witness=(_ext(s), _ext(t)))


def naive_matching(weights):
    """Lex-first maximum-weight left-perfect matching by permutation scan.

    With fewer goods than agents the rows are padded with zero-weight dummy
    goods up to width n; agents matched to a dummy are left out of the pairs.
    """
    n = len(weights)
    m = len(weights[0])
    width = max(m, n)
    padded = [list(row) + [Fraction(0)] * (width - m) for row in weights]
    best_goods = None
    best_weight = None
    for goods in permutations(range(width), n):
        weight = sum((padded[i][g] for i, g in enumerate(goods)), Fraction(0))
        if best_weight is None or weight > best_weight:
            best_weight, best_goods = weight, goods
    return ([(i, g) for i, g in enumerate(best_goods) if g < m],
            best_weight)


def random_additive_corpus(count, n_max, m_max, seed, scaled_mix=True):
    """Deterministic list of random additive instances, mixing unscaled
    uniform draws with scaled dirichlet draws when scaled_mix is set."""
    rng = random.Random(seed)
    out = []
    for idx in range(count):
        n = rng.randint(1, n_max)
        m = rng.randint(max(1, n // 2), m_max)
        if scaled_mix and idx % 2 == 1:
            out.append(generate_random(n, m, "dirichlet-scaled",
                                       seed=rng.randint(0, 10 ** 9)))
        else:
            out.append(generate_random(n, m, "uniform-rational",
                                       seed=rng.randint(0, 10 ** 9)))
    return out


def random_subadditive_corpus(count, n_max, m_max, seed):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(1, n_max)
        m = rng.randint(1, m_max)
        out.append(generate_random_subadditive(n, m,
                                               seed=rng.randint(0, 10 ** 9)))
    return out


# Small value alphabets, so that ties and envy cycles are common.
TIE_ALPHABETS = (("0", "1"), ("0", "1", "2"), ("0", "1/2", "1"),
                 ("1/6", "1/3", "2/3"), ("1",), ("1/3", "1/7", "2/5", "3"))


def _monotone_table(rng, m, alphabet):
    """A random monotone table: each subset is worth its best one-smaller
    subset plus a draw from the alphabet. The empty set may be worth more
    than 0, and nothing makes it subadditive: the table is not validated."""
    values = [Fraction(0)] * (1 << m)
    values[0] = rng.choice(alphabet) if rng.random() < 0.3 else Fraction(0)
    for mask in range(1, 1 << m):
        below = max(values[mask & ~(1 << g)] for g in range(m)
                    if mask >> g & 1)
        values[mask] = below + rng.choice(alphabet)
    table = {frozenset(g for g in range(m) if mask >> g & 1): x
             for mask, x in enumerate(values)}
    return Valuation.explicit(m, table)


def tie_corpus(count, seed, kinds=("additive", "explicit", "mixed")):
    """Seeded small instances (n 1..5, m 0..7) cycling through `kinds`:
    additive, unvalidated explicit, or a mix of the two per agent. Each
    instance draws every value from one small alphabet."""
    rng = random.Random(seed)
    out = []
    for idx in range(count):
        n, m = rng.randint(1, 5), rng.randint(0, 7)
        kind = kinds[idx % len(kinds)]
        alphabet = [Fraction(x) for x in rng.choice(TIE_ALPHABETS)]
        valuations = []
        for _ in range(n):
            agent_kind = (rng.choice(("additive", "explicit"))
                          if kind == "mixed" else kind)
            if agent_kind == "additive":
                valuations.append(Valuation.additive(
                    [rng.choice(alphabet) for _ in range(m)]))
            else:
                valuations.append(_monotone_table(rng, m, alphabet))
        out.append(Instance(n=n, m=m, valuations=tuple(valuations)))
    return out


def random_allocation(rng, n, m, partial=True):
    """Each good to a random agent, or (when partial) possibly to nobody."""
    owners = [rng.randrange(n + 1 if partial else n) for _ in range(m)]
    return Allocation.of([[g for g in range(m) if owners[g] == i]
                          for i in range(n)])


def naive_ef1_verdict(inst: Instance, alloc: Allocation) -> FairnessVerdict:
    """`is_ef1` in `Fraction`s: same certificate (the good leaving the
    smallest residual, lowest index on ties) and same failure witness."""
    certificate = {}
    for i in range(inst.n):
        own = inst.value(i, alloc.bundles[i])
        for j in range(inst.n):
            bundle = alloc.bundles[j]
            if j == i or not bundle:
                continue
            best_g, best_res = None, None
            for g in sorted(bundle):
                res = inst.value(i, bundle - {g})
                if best_res is None or res < best_res:
                    best_g, best_res = g, res
            if own >= best_res:
                certificate[(i + 1, j + 1)] = best_g + 1
                continue
            comparisons = [{"removed": h + 1,
                            "residual": inst.value(i, bundle - {h}),
                            "own": own} for h in sorted(bundle)]
            return FairnessVerdict(
                holds=False, prop="ef1",
                witness={"i": i + 1, "j": j + 1, "own": own,
                         "comparisons": comparisons})
    return FairnessVerdict(holds=True, prop="ef1", certificate=certificate)


def _naive_find_cycle(adj, n):
    """First cycle of a DFS from the lowest agent, neighbours ascending."""
    color = [0] * n
    parent = {}
    for start in range(n):
        if color[start]:
            continue
        stack = [(start, iter(adj[start]))]
        color[start] = 1
        while stack:
            node, it = stack[-1]
            for nxt in it:
                if color[nxt] == 0:
                    color[nxt] = 1
                    parent[nxt] = node
                    stack.append((nxt, iter(adj[nxt])))
                    break
                if color[nxt] == 1:
                    cycle = [node]
                    while cycle[-1] != nxt:
                        cycle.append(parent[cycle[-1]])
                    return cycle[::-1]
            else:
                color[node] = 2
                stack.pop()
    return None


def naive_extend_ef1(inst: Instance, partial: Allocation):
    """Envy-cycle elimination rebuilding the whole envy graph from
    `Fraction` value queries before every step. Returns the allocation and
    the rotation and addition counts."""
    verdict = naive_ef1_verdict(inst, partial)
    if not verdict.holds:
        raise ValidationError("ef1-precondition", "partial allocation is "
                              "not EF1", witness=verdict.witness)
    n = inst.n
    bundles = [set(b) for b in partial.bundles]
    rotations = additions = 0

    def envy_graph():
        return [[j for j in range(n)
                 if inst.value(i, bundles[i]) < inst.value(i, bundles[j])]
                for i in range(n)]

    for g in sorted(frozenset(range(inst.m)) - partial.allocated()):
        while True:
            cycle = _naive_find_cycle(envy_graph(), n)
            if cycle is None:
                break
            rotated = [bundles[cycle[(t + 1) % len(cycle)]]
                       for t in range(len(cycle))]
            for agent, bundle in zip(cycle, rotated):
                bundles[agent] = bundle
            rotations += 1
        envied = {j for row in envy_graph() for j in row}
        source = min(i for i in range(n) if i not in envied)
        bundles[source].add(g)
        additions += 1
    return Allocation.of(bundles), rotations, additions


def naive_ef1_high_loop(inst: Instance, ref: Allocation):
    """The EF1 high-welfare loop on `Fraction` value queries, with no
    prefix sums. Returns the partial allocation,
    the (t, agent, a, c) trace and the partial welfare."""
    n, m = inst.n, inst.m
    line = LineOrder.from_reference(ref.bundles, m)

    def value(i, a, b):
        return inst.value(i, {line.order[p] for p in range(a, b + 1)})

    intervals = [None] * n
    own = [Fraction(0)] * n
    for i in range(n):
        if ref.bundles[i]:
            top = max(inst.value(i, {g}) for g in ref.bundles[i])
            g = min(g for g in ref.bundles[i] if inst.value(i, {g}) == top)
            intervals[i] = (line.position[g], line.position[g])
            own[i] = top
    trace = []
    while True:
        covered = {p for iv in intervals if iv
                   for p in range(iv[0], iv[1] + 1)}
        runs, start = [], None
        for p in range(m + 1):
            if p < m and p not in covered:
                start = p if start is None else start
            elif start is not None:
                runs.append((start, p - 1))
                start = None
        envied = next(((a, b) for a, b in runs
                       if any(own[i] < value(i, a, b) for i in range(n))),
                      None)
        if envied is None:
            break
        a, b = envied
        c, k = next((c, k) for c in range(a, b + 1) for k in range(n)
                    if own[k] < value(k, a, c))
        intervals[k] = (a, c)
        own[k] = value(k, a, c)
        trace.append((len(trace) + 1, k, a, c))
    partial = Allocation.of(
        [] if iv is None else [line.order[p] for p in range(iv[0], iv[1] + 1)]
        for iv in intervals)
    return partial, trace, sum(own, Fraction(0))


def naive_run_mms_abs(inst: Instance):
    """The greedy 1/2-MMS loop in `Fraction`s. Returns the allocation, the
    (agent, good, active, remaining) singleton trace and the leftover
    taker, as `run_mms_abs` does."""
    active, remaining = set(range(inst.n)), set(range(inst.m))
    bundles = [set() for _ in range(inst.n)]
    trace = []
    while True:
        best = None
        for i in sorted(active):
            total = inst.value(i, remaining)
            for g in sorted(remaining):
                v = inst.value(i, {g})
                if 2 * len(active) * v >= total and (best is None
                                                     or v > best[0]):
                    best = (v, i, g)
        if best is None:
            break
        _, agent, good = best
        trace.append((agent, good, tuple(sorted(active)),
                      tuple(sorted(remaining))))
        bundles[agent] = {good}
        active.remove(agent)
        remaining.remove(good)
    leftover_dump = None
    if active:
        order = sorted(active)
        while remaining:
            for i in order:
                if not remaining:
                    break
                top = max(inst.value(i, {g}) for g in remaining)
                pick = min(g for g in remaining if inst.value(i, {g}) == top)
                bundles[i].add(pick)
                remaining.remove(pick)
    elif remaining:
        leftover_dump = trace[-1][0]
        bundles[leftover_dump] |= remaining
    return Allocation.of(bundles), trace, leftover_dump


def naive_run_mms_high(inst: Instance, profile):
    """The 1/2-MMS high-welfare loop in `Fraction`s, re-summing every
    bundle it compares. Returns (allocation, permanent, temporary, trace,
    gamma_single, gamma_hard) as `run_mms_high` does."""
    n, m = inst.n, inst.m
    z = [profile.z(i) for i in range(n)]
    wstar, _ = max_welfare(inst)
    line = LineOrder.from_reference(wstar.bundles, m)
    owner = {g: i for i, b in enumerate(wstar.bundles) for g in b}
    wval = [inst.value(i, wstar.bundles[i]) for i in range(n)]
    bundles = [set() for _ in range(n)]
    perm, temp, trace = set(), set(), []

    def note(event, agent, dest):
        trace.append((event, agent, tuple(sorted(bundles[agent])), dest))

    def high(i, goods):
        return sqrt_ge(3 * inst.value(i, goods), wval[i], n)

    for i in range(n):
        if sum(1 for g in range(m) if inst.value(i, {g}) > 0) < n:
            (perm if wval[i] == 0 else temp).add(i)
            note("zero-mms", i, "P" if wval[i] == 0 else "T")
    low = [i for i in range(n) if not sqrt_ge(3 * z[i], 2 * wval[i], n)]
    gamma_single = frozenset(i for i in low
                             if any(high(i, {g}) for g in wstar.bundles[i]))
    gamma_hard = frozenset(low) - gamma_single
    for i in sorted(gamma_single):
        top = max(inst.value(i, {g}) for g in wstar.bundles[i])
        bundles[i] = {min(g for g in wstar.bundles[i]
                          if inst.value(i, {g}) == top)}
        perm.add(i)
        temp.discard(i)
        note("single", i, "P")

    def taken():
        return set().union(*bundles)

    while True:
        pick = next(((a, h) for a in range(n) if a not in perm | temp
                     for h in line.order if h not in taken()
                     and 2 * inst.value(a, {h}) >= z[a]), None)
        if pick is None:
            break
        a, h = pick
        bundles[a] = {h}
        (perm if high(a, {h}) else temp).add(a)
        note("singleton-loop", a, "P" if a in perm else "T")
    remaining = frozenset(range(m)) - taken()
    acc = set()
    for g in line.order:
        if g not in remaining:
            continue
        acc.add(g)
        i = owner[g]
        if i in temp and high(i, acc):
            bundles[i], acc = acc, bundles[i]
            perm.add(i)
            temp.discard(i)
            note("swap", i, "P")
        cand = next((a for a in range(n) if a not in perm | temp
                     and 2 * inst.value(a, acc) >= z[a]), None)
        if cand is not None:
            bundles[cand], acc = acc, set()
            (perm if high(cand, bundles[cand]) else temp).add(cand)
            note("accumulate", cand, "P" if cand in perm else "T")
    leftover = frozenset(range(m)) - taken()
    for g in sorted(leftover):
        bundles[owner[g]].add(g)
    for i in sorted({owner[g] for g in leftover}):
        note("leftover", i, "P" if i in perm else ("T" if i in temp else "-"))
    return (Allocation.of(bundles), frozenset(perm), frozenset(temp), trace,
            gamma_single, gamma_hard)
