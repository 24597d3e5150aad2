"""Shared test helpers: independent brute-force oracles, `Fraction`
reference implementations of the integer solvers and generators, and
instance builders.

The naive oracles here deliberately avoid every code path they are used to
check (no pruning, no memoization, no fast paths); they enumerate directly
from definitions via value queries. The reference solvers replay the
solvers' algorithms step for step in exact `Fraction`s, rebuilding every
derived structure from scratch, so a seeded corpus can compare whole
results, tie-breaks included.
"""

from __future__ import annotations

import contextlib
import json
import random
import signal
from fractions import Fraction
from itertools import permutations, product
from math import isqrt, lcm

import pytest

from fairdiv import (Allocation, Event, FairnessVerdict, Instance, LineOrder,
                     ValidationError, Valuation, checks_enabled,
                     generate_random, generate_random_subadditive,
                     max_welfare, set_debug_checks)
from fairdiv.exact import sqrt_ge


@pytest.fixture()
def debug_mode():
    """Turns on the solvers' per-step invariant checks for one test, then
    restores the previous setting (FAIRDIV_DEBUG may have set it)."""
    before = checks_enabled()
    set_debug_checks(True)
    yield
    set_debug_checks(before)


@contextlib.contextmanager
def alarm(seconds):
    """Raises TimeoutError in the body once `seconds` pass, so that a call
    that never returns fails its test instead of hanging the suite."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    before = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, before)


def additive_instance(rows, scaled=False) -> Instance:
    vals = tuple(Valuation.additive([Fraction(x) for x in row])
                 for row in rows)
    return Instance(n=len(rows), m=len(rows[0]), valuations=vals,
                    scaled=scaled)


def diagonal(n) -> Instance:
    """n agents and n goods; agent i values only good i, at 1. OPT = n
    exceeds 5 sqrt(n) from n = 26, so half-MMS takes the high branch."""
    return additive_instance([["1" if g == i else "0" for g in range(n)]
                              for i in range(n)], scaled=True)


def dense_blocks(n, b) -> Instance:
    """Scaled "dense blocks": n agents and m = b*n goods; agent i puts 9/10
    on her own block of b goods (goods b*i .. b*i + b - 1) and 1/(10m) on
    every good. OPT = 9n/10 + 1/10, each agent taking her block."""
    m = b * n
    spread = Fraction(1, 10 * m)
    own = Fraction(9, 10 * b) + spread
    return additive_instance([[own if g // b == i else spread
                               for g in range(m)] for i in range(n)],
                             scaled=True)


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
        own = inst.valuations[i].value(alloc.bundles[i])
        for j in range(inst.n):
            if i == j or not alloc.bundles[j]:
                continue
            if not any(own >= inst.value(i, alloc.bundles[j] - {g})
                       for g in alloc.bundles[j]):
                return False
    return True


def naive_is_prop1(inst: Instance, alloc: Allocation) -> bool:
    """Prop1 by definition; with no goods at all it holds vacuously."""
    for i in range(inst.n):
        threshold = inst.valuations[i].value(range(inst.m)) / inst.n
        if inst.m and not any(
                inst.valuations[i].value(alloc.bundles[i] | {g})
                >= threshold for g in range(inst.m)):
            return False
    return True


def naive_is_alpha_mms(inst: Instance, alloc: Allocation, alpha,
                       shares) -> bool:
    return all(inst.valuations[i].value(alloc.bundles[i])
               >= alpha * shares[i] for i in range(inst.n))


def naive_mms(valuation: Valuation, k: int, goods=None) -> Fraction:
    glist = sorted(goods) if goods is not None else list(range(valuation.m))
    if k == 1:
        return valuation.value(glist)
    best = None
    for assign in product(range(k), repeat=len(glist)):
        bundles = [set() for _ in range(k)]
        for pos, b in enumerate(assign):
            bundles[b].add(glist[pos])
        worst = min(valuation.value(b) for b in bundles)
        if best is None or worst > best:
            best = worst
    return best if best is not None else Fraction(0)


def reference_mms_k(valuation: Valuation, k: int, goods=None) -> Fraction:
    """`mms_k` as it was before its greedy bracket and floors: the memoized
    max-min DP over subset bitmasks with first-good symmetry breaking, every
    call's running best starting at 0, and the same constant-time outcomes.
    It has no cap."""
    glist = sorted(goods) if goods is not None else list(range(valuation.m))
    ints, den = valuation.kernel, valuation.den
    additive = valuation.kind == "additive"
    total = (sum(ints[g] for g in glist) if additive
             else ints[sum(1 << g for g in glist)])
    if k == 1:
        return Fraction(total, den)
    if len(glist) < k:
        return Fraction(0 if additive else ints[0], den)
    if total == 0 or (additive and sum(ints[g] > 0 for g in glist) < k):
        return Fraction(0)
    val = [0] * (1 << len(glist))     # sums, or table masks, then values
    for local in range(1, len(val)):
        low = local & -local
        g = glist[low.bit_length() - 1]
        val[local] = val[local ^ low] + (ints[g] if additive else 1 << g)
    if not additive:
        val = [ints[mask] for mask in val]
    memo = {}

    def best(mask, parts):
        if parts == 1:
            return val[mask]
        if bin(mask).count("1") < parts:
            return 0
        if (mask, parts) in memo:
            return memo[mask, parts]
        low = mask & -mask
        rest = mask ^ low
        top, whole, sub = 0, val[mask], rest
        while True:
            s = sub | low
            if val[s] > top:
                other_mask = mask ^ s
                if not additive or val[other_mask] > (parts - 1) * top:
                    cand = min(val[s], best(other_mask, parts - 1))
                    if cand > top:
                        top = cand
                        if additive and parts * top >= whole:
                            break
            if sub == 0:
                break
            sub = (sub - 1) & rest
        memo[mask, parts] = top
        return top

    return Fraction(best((1 << len(glist)) - 1, k), den)


def naive_mms_lower_bound(valuation: Valuation, k: int,
                          goods=None) -> Fraction:
    """`mms_lower_bound` in `Fraction`s: the greedy largest-first
    partition's minimum bundle value, goods by falling single-good value
    (lowest index on ties), each to the bundle of least value (lowest index
    on ties). Additive agents keep running totals, explicit agents query
    whole bundles."""
    glist = sorted(goods) if goods is not None else list(range(valuation.m))
    bundles: list[set[int]] = [set() for _ in range(k)]
    if valuation.kind == "additive":
        totals = [Fraction(0)] * k
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


def naive_load_instance(path):
    """The instance file's `Fraction` reading, not validated: `(instance,
    views)`, each rational through `Fraction(text)` (for the valid strings
    the tests write, the same numbers as the strict grammar), and each value
    of an agent with a "den" as `Fraction(k) / den`. `views` holds the
    parsed Fractions, read from the file text alone: a tuple per additive
    agent, and per explicit agent a dict in the file's key order, the empty
    set defaulting to 0. The instance builds each valuation from them
    through `Valuation.additive` or `Valuation.explicit`."""
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    valuations, views = [], []
    for obj in data["valuations"]:
        den = obj.get("den", 1)

        def value(x):
            return Fraction(str(x)) / den

        if obj["kind"] == "additive":
            values = tuple(value(x) for x in obj["values"])
            valuations.append(Valuation.additive(values))
            views.append(values)
        else:
            table = {frozenset(int(g) - 1 for g in key.split(",") if g):
                     value(x) for key, x in obj["table"].items()}
            table.setdefault(frozenset(), Fraction(0))
            valuations.append(Valuation.explicit(
                data["m"], table, obj.get("subadditive", False)))
            views.append(table)
    return (Instance(data["n"], data["m"], tuple(valuations), data["scaled"]),
            views)


def naive_kernel(view) -> tuple[tuple[int, ...], int]:
    """Integer kernel read off a `Fraction` view (a tuple per good, or a
    dict keyed by subset): every value times the lcm of the reduced
    denominators, explicit tables indexed by bitmask."""
    if isinstance(view, tuple):
        fractions = dict(enumerate(view))
    else:
        fractions = {sum(1 << g for g in s): x for s, x in view.items()}
    den = lcm(*(x.denominator for x in fractions.values()))
    return tuple(fractions[i].numerator * (den // fractions[i].denominator)
                 for i in range(len(fractions))), den


def naive_common_ints(valuations):
    """Every agent's integer kernel rescaled to the lcm of their
    denominators, as lists: the reference for `Instance.scale` and
    `Instance.rows(common=True)`."""
    scale = lcm(*(v.den for v in valuations))
    return [[x * (scale // v.den) for x in v.kernel]
            for v in valuations], scale


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


def _hungarian(cost):
    """Column of each row in a minimum-cost matching covering every row:
    the textbook O(rows^2 * columns) Hungarian method, rows <= columns."""
    nr, nc = len(cost), len(cost[0])
    inf = sum(map(sum, cost)) + 1
    u, v, match = [0] * (nr + 1), [0] * (nc + 1), [0] * (nc + 1)
    for i in range(1, nr + 1):
        match[0], j0 = i, 0
        minv, used, way = [inf] * (nc + 1), [False] * (nc + 1), [0] * (nc + 1)
        while True:
            used[j0] = True
            i0, delta, j1 = match[j0], inf, -1
            for j in range(1, nc + 1):
                if not used[j]:
                    cur = cost[i0 - 1][j - 1] - u[i0] - v[j]
                    if cur < minv[j]:
                        minv[j], way[j] = cur, j0
                    if minv[j] < delta:
                        delta, j1 = minv[j], j
            for j in range(nc + 1):
                if used[j]:
                    u[match[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
            if match[j0] == 0:
                break
        while j0:
            j1 = way[j0]
            match[j0] = match[j1]
            j0 = j1
    col = [0] * nr
    for j in range(1, nc + 1):
        if match[j]:
            col[match[j] - 1] = j - 1
    return col


def perturbed_matching(weights):
    """Lex-first maximum-weight left-perfect matching by one Hungarian
    solve on perturbed weights ``K*w(i, g) - g*B**(n-1-i)``, ``B = width +
    1``, ``K = B**n``: the subtracted terms spell a matching's good sequence
    as a base-B number below K, and two integer totals differ by at least K
    after scaling, so the perturbed optimum is unique and lex-first. Dummy
    goods pad m < n as in `naive_matching`."""
    n, m = len(weights), len(weights[0])
    width = max(m, n)
    base = width + 1
    scale = base ** n
    top = max(max(row, default=0) for row in weights)
    cost = [[scale * (top - w) + g * base ** (n - 1 - i)
             for g, w in enumerate([*row, *[0] * (width - m)])]
            for i, row in enumerate(weights)]
    return [(i, g) for i, g in enumerate(_hungarian(cost)) if g < m]


def tie_matrices(count, seed):
    """Seeded integer matrices, n 1..7 and m 1..9, each drawn from one value
    alphabet between {0, 1, 2} and 0..10^6; about 40% copy whole rows
    or columns, so that equal rows or equal columns are common."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n, m = rng.randint(1, 7), rng.randint(1, 9)
        top = rng.choice((2, 3, 5, 10, 100, 10 ** 6))
        w = [[rng.randint(0, top) for _ in range(m)] for _ in range(n)]
        if rng.random() < 0.4:
            if rng.random() < 0.5:
                w = [list(w[rng.randrange(n)]) if rng.random() < 0.5
                     else row for row in w]
            else:
                source = [rng.randrange(m) if rng.random() < 0.5 else g
                          for g in range(m)]
                w = [[row[g] for g in source] for row in w]
        out.append(w)
    return out


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


def _reference_instance(rows, scaled) -> Instance:
    vals = tuple(Valuation.additive(row) for row in rows)
    return Instance(n=len(rows), m=len(rows[0]), valuations=vals,
                    scaled=scaled)


def reference_generate_adversarial(spec) -> Instance:
    """The adversarial families built in `Fraction`s, value by value, as
    their definitions read: the reference for `generate_adversarial`."""
    n, family = spec.n, spec.family
    if family == "ef1-unscaled":
        rows = [[Fraction(n)] * n] + [[Fraction(1, n)] * n] * (n - 1)
        return _reference_instance(rows, scaled=False)
    if family == "mms-unscaled":
        rows = [[Fraction(1)] * n] + [[spec.epsilon] * n] * (n - 1)
        return _reference_instance(rows, scaled=False)
    if family in ("mms-scaled-sqrt", "prop1-scaled"):
        s = isqrt(n)
        m = n if family == "mms-scaled-sqrt" else n + 1
        rows = []
        for i in range(n):
            if i < s:
                row = [Fraction(0)] * m
                for g in range(i * s, (i + 1) * s):
                    row[g] = Fraction(1, s)
            else:
                row = [Fraction(1, m)] * m
            rows.append(row)
        return _reference_instance(rows, scaled=True)
    if family == "prop1-unscaled":
        m = n + 1
        rows = [[Fraction(n + 1)] * m] + [[Fraction(1, n + 1)] * m] * (n - 1)
        return _reference_instance(rows, scaled=False)
    assert family == "supermodular"
    m, eps = n, spec.epsilon
    slope = (1 - eps) / (m - 1)
    table = {}
    for mask in range(1 << m):
        subset = frozenset(g for g in range(m) if mask >> g & 1)
        size = len(subset)
        table[subset] = eps * size if size <= 1 else eps + (size - 1) * slope
    valuation = Valuation.explicit(m, table, subadditive=False)
    return Instance(n=n, m=m, valuations=(valuation,) * n, scaled=True)


def reference_generate_random(n, m, distribution, seed) -> Instance:
    """`generate_random`'s draws, in the same order, as `Fraction`s."""
    rng = random.Random(seed)
    if distribution == "uniform-rational":
        rows = [[Fraction(rng.randint(0, 1000), 1000) for _ in range(m)]
                for _ in range(n)]
        return _reference_instance(rows, scaled=False)
    rows = []
    for _ in range(n):
        weights = [rng.randint(1, 1000) for _ in range(m)]
        total = sum(weights)
        rows.append([Fraction(w, total) for w in weights])
    return _reference_instance(rows, scaled=True)


def reference_generate_random_subadditive(n, m, seed) -> Instance:
    """`generate_random_subadditive`'s draws, in the same order, as
    `Fraction`s: each subset's sum clipped at the budget."""
    rng = random.Random(seed)
    valuations = []
    for _ in range(n):
        base = [Fraction(rng.randint(0, 1000), 1000) for _ in range(m)]
        top = max(base)
        total = sum(base, Fraction(0))
        budget = top + Fraction(rng.randint(0, 1000), 1000) * (total - top)
        table = {}
        for mask in range(1 << m):
            subset = frozenset(g for g in range(m) if mask >> g & 1)
            raw = sum((base[g] for g in subset), Fraction(0))
            table[subset] = min(raw, budget)
        valuations.append(Valuation.explicit(m, table, subadditive=True))
    return Instance(n=n, m=m, valuations=tuple(valuations), scaled=False)


def reference_rescale_instance(inst: Instance) -> Instance:
    """Each agent's values divided by her total, in `Fraction`s."""
    vals = []
    for v in inst.valuations:
        total = sum(v.values)
        vals.append(Valuation.additive([x / total for x in v.values]))
    return Instance(n=inst.n, m=inst.m, valuations=tuple(vals), scaled=True)


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


def tie_corpus(count, seed, kinds=("additive", "explicit", "mixed"),
               n_range=(1, 5), m_range=(0, 7)):
    """Seeded small instances (n and m drawn from the inclusive ranges)
    cycling through `kinds`: additive, unvalidated explicit, or a mix of the
    two per agent. Each instance draws every value from one small
    alphabet."""
    rng = random.Random(seed)
    out = []
    for idx in range(count):
        n, m = rng.randint(*n_range), rng.randint(*m_range)
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


def twin_corpus(count, seed, kinds=("additive", "explicit", "mixed")):
    """Seeded small instances (n 2..4, m 1..6) full of twins: every agent
    copies one of at most three drawn valuations, and additive values depend
    only on a good's type, of which there are at most m // 2 + 1. Like
    `tie_corpus`, explicit tables are unvalidated and `kinds` cycle."""
    rng = random.Random(seed)
    out = []
    for idx in range(count):
        n, m = rng.randint(2, 4), rng.randint(1, 6)
        kind = kinds[idx % len(kinds)]
        alphabet = [Fraction(x) for x in rng.choice(TIE_ALPHABETS)]
        types = [rng.randrange(m // 2 + 1) for _ in range(m)]
        templates = []
        for _ in range(rng.randint(1, 3)):
            agent_kind = (rng.choice(("additive", "explicit"))
                          if kind == "mixed" else kind)
            if agent_kind == "additive":
                per_type = [rng.choice(alphabet) for _ in range(m // 2 + 1)]
                templates.append(Valuation.additive(
                    [per_type[t] for t in types]))
            else:
                templates.append(_monotone_table(rng, m, alphabet))
        valuations = tuple(rng.choice(templates) for _ in range(n))
        out.append(Instance(n=n, m=m, valuations=valuations))
    return out


def negative_corpus(count, seed):
    """Seeded small unvalidated additive instances (n 1..5, m 0..7) whose
    values p/q, p in -4..2 and q in 1..3, are often negative and often
    tied."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n, m = rng.randint(1, 5), rng.randint(0, 7)
        valuations = tuple(Valuation.additive(
            [Fraction(rng.randint(-4, 2), rng.randint(1, 3))
             for _ in range(m)]) for _ in range(n))
        out.append(Instance(n=n, m=m, valuations=valuations))
    return out


def random_allocation(rng, n, m, partial=True):
    """Each good to a random agent, or (when partial) possibly to nobody."""
    owners = [rng.randrange(n + 1 if partial else n) for _ in range(m)]
    return Allocation.of([[g for g in range(m) if owners[g] == i]
                          for i in range(n)])


def naive_round_robin(inst: Instance, agents, goods) -> Allocation:
    """Round robin in `Fraction`s: `agents` pick in the order given, each
    the remaining good of largest marginal value v_i(B + g) - v_i(B) to it,
    lowest index on ties, until the goods run out."""
    bundles = [set() for _ in range(inst.n)]
    left = sorted(goods)
    for turn in range(len(left)):
        i = agents[turn % len(agents)]
        gains = [inst.value(i, bundles[i] | {g}) - inst.value(i, bundles[i])
                 for g in left]
        g = left.pop(gains.index(max(gains)))
        bundles[i].add(g)
    return Allocation.of(bundles)


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


def reference_verdict_json(verdict: FairnessVerdict) -> dict:
    """`FairnessVerdict.to_json` as one generic walk: rationals as "p/q"
    strings, every key through `str`, tuples as lists."""
    def conv(obj):
        if isinstance(obj, Fraction):
            return str(obj)
        if isinstance(obj, dict):
            return {str(k): conv(v) for k, v in obj.items()}
        if isinstance(obj, (list, tuple)):
            return [conv(v) for v in obj]
        return obj

    out = {"property": verdict.prop, "holds": verdict.holds}
    for name in ("certificate", "witness"):
        if getattr(verdict, name) is not None:
            out[name] = conv(getattr(verdict, name))
    return out


def naive_prop1_verdict(inst: Instance, alloc: Allocation, agents=None,
                        goods=None) -> FairnessVerdict:
    """`is_prop1` in `Fraction`s: same certificate (the first scope good
    that reaches the threshold, or the first scope good at all when the own
    bundle meets it) and same failure witness."""
    scope_agents = sorted(agents) if agents is not None else range(inst.n)
    scope_goods = sorted(set(goods if goods is not None else range(inst.m)))
    certificate = {}
    for i in scope_agents:
        threshold = inst.value(i, scope_goods) / len(scope_agents)
        own = inst.value(i, alloc.bundles[i])
        boosted = [(g, inst.value(i, alloc.bundles[i] | {g}))
                   for g in scope_goods]
        if own >= threshold:
            good = scope_goods[0] if scope_goods else None
            value = own
        else:
            reaching = [(g, x) for g, x in boosted if x >= threshold]
            if not reaching:
                comparisons = [{"added": g + 1, "value": x,
                                "threshold": threshold} for g, x in boosted]
                return FairnessVerdict(
                    holds=False, prop="prop1",
                    witness={"agent": i + 1, "own": own,
                             "threshold": threshold,
                             "comparisons": comparisons})
            good, value = reaching[0]
        certificate[i + 1] = {"good": None if good is None else good + 1,
                              "value": value, "threshold": threshold}
    return FairnessVerdict(holds=True, prop="prop1", certificate=certificate)


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
    prefix sums. Returns the partial allocation and the ("prefix", agent,
    goods, "") trace."""
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
        trace.append(Event("prefix", k,
                           tuple(sorted(line.order[p]
                                        for p in range(a, c + 1))), ""))
    partial = Allocation.of(
        [] if iv is None else [line.order[p] for p in range(iv[0], iv[1] + 1)]
        for iv in intervals)
    return partial, trace


def naive_run_mms_abs(inst: Instance):
    """The greedy 1/2-MMS loop in `Fraction`s. Returns the allocation and
    the singleton and leftover events, as `run_mms_abs` does."""
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
        trace.append(Event("singleton", agent, (good,), ""))
        bundles[agent] = {good}
        active.remove(agent)
        remaining.remove(good)
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
        last = trace[-1].agent
        bundles[last] |= remaining
        trace.append(Event("leftover", last, tuple(sorted(bundles[last])), ""))
    return Allocation.of(bundles), trace


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

    def note(phase, agent, label):
        trace.append(Event(phase, agent, tuple(sorted(bundles[agent])), label))

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
