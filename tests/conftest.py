"""Shared test helpers: independent brute-force oracles and instance builders.

The naive oracles here deliberately avoid every code path they are used to
check (no pruning, no memoization, no fast paths); they enumerate directly
from definitions via value queries.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import permutations, product

import pytest

from fairdiv import (Allocation, Instance, Valuation, generate_random,
                     generate_random_subadditive, value_query)


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
