"""Deterministic instance generators: the adversarial families with known
fairness-welfare gaps, plus seeded random families for property testing.

Families
--------
ef1-unscaled(n)     n goods; agent 1 values each at n, everyone else at 1/n.
                    The welfare optimum hands everything to agent 1 (OPT =
                    n^2) while EF1 forces one good per agent.
mms-unscaled(n,eps) n goods; agent 1 values each at 1, others at eps. The
                    only 1/2-MMS allocations give one good per agent.
mms-scaled-sqrt(n)  "high" agents own disjoint blocks of floor(sqrt(n))
                    goods at 1/floor(sqrt(n)) each; "low" agents spread 1/n
                    over all n goods. Any 1/2-MMS allocation must feed every
                    low agent, capping welfare at 2.
prop1-unscaled(n)   n+1 goods; agent 1 values each at n+1, others at
                    1/(n+1). Prop1 forces a good to every later agent.
prop1-scaled(n)     n+1 goods, square n; sqrt(n) block agents plus uniform
                    agents; Prop1 caps welfare at O(1) while OPT grows as
                    sqrt(n).
supermodular(n,eps) n identical explicit valuations, v(S) = eps*|S| for
                    |S| <= 1 and eps + (|S|-1)*(1-eps)/(m-1) above; scaled,
                    supermodular, with EF1 welfare stuck at n*eps.

Random families: `uniform-rational` draws values k/1000 in [0, 1];
`dirichlet-scaled` draws positive integer weights and renormalizes each
agent to total value exactly 1. Both are byte-reproducible under a seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from typing import Optional

from .model import (Instance, Valuation, check_explicit_goods_cap,
                    validate_instance)

ADVERSARIAL_FAMILIES = ("ef1-unscaled", "mms-unscaled", "mms-scaled-sqrt",
                        "prop1-unscaled", "prop1-scaled", "supermodular")
RANDOM_FAMILIES = ("random", "random-subadditive")
RANDOM_DISTRIBUTIONS = ("uniform-rational", "dirichlet-scaled")


def check_family_args(family: str, n: int, m: Optional[int] = None,
                      epsilon: Optional[Fraction] = None,
                      distribution: Optional[str] = None) -> None:
    """The generators' argument rules, checked before any work: ValueError
    for arguments that name no instance, the explicit-goods-cap
    ValidationError for explicit tables over the cap."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if epsilon is not None and not 0 < epsilon < 1:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")
    if family in RANDOM_FAMILIES and (m is None or m < 1):
        raise ValueError(f"need m >= 1, got {m}")
    if family == "random" and distribution not in RANDOM_DISTRIBUTIONS:
        raise ValueError(f"unknown distribution {distribution!r}; "
                         f"expected one of {RANDOM_DISTRIBUTIONS}")
    if family in ("mms-unscaled", "supermodular") and epsilon is None:
        raise ValueError(f"{family} needs an epsilon in (0, 1)")
    if family == "prop1-scaled" and isqrt(n) ** 2 != n:
        raise ValueError(f"prop1-scaled requires a square agent count, "
                         f"got {n}")
    if family == "supermodular" and n < 2:
        raise ValueError("supermodular needs n >= 2")
    if family in ("random-subadditive", "supermodular"):
        check_explicit_goods_cap(n if family == "supermodular" else m)


@dataclass(frozen=True)
class FamilySpec:
    """Parameters naming one generated instance."""

    family: str
    n: int
    epsilon: Optional[Fraction] = None

    def __post_init__(self):
        check_family_args(self.family, self.n, epsilon=self.epsilon)


def _uniform_rows(rows: list[list[Fraction]], scaled: bool) -> Instance:
    vals = tuple(Valuation.additive(row) for row in rows)
    inst = Instance(n=len(rows), m=len(rows[0]), valuations=vals, scaled=scaled)
    validate_instance(inst)
    return inst


def generate_adversarial(spec: FamilySpec) -> Instance:
    """Build one member of an adversarial family, validated."""
    n = spec.n
    family = spec.family
    if family == "ef1-unscaled":
        rows = [[Fraction(n)] * n] + [[Fraction(1, n)] * n] * (n - 1)
        return _uniform_rows(rows, scaled=False)

    if family == "mms-unscaled":
        rows = [[Fraction(1)] * n] + [[spec.epsilon] * n] * (n - 1)
        return _uniform_rows(rows, scaled=False)

    if family in ("mms-scaled-sqrt", "prop1-scaled"):
        # Block agents own floor(sqrt(n)) goods each; the rest value all
        # m goods alike.
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
        return _uniform_rows(rows, scaled=True)

    if family == "prop1-unscaled":
        m = n + 1
        rows = [[Fraction(n + 1)] * m] + [[Fraction(1, n + 1)] * m] * (n - 1)
        return _uniform_rows(rows, scaled=False)

    if family == "supermodular":
        m = n
        eps = spec.epsilon
        slope = (1 - eps) / (m - 1)
        table = {}
        for mask in range(1 << m):
            subset = frozenset(g for g in range(m) if mask >> g & 1)
            size = len(subset)
            if size <= 1:
                table[subset] = eps * size
            else:
                table[subset] = eps + (size - 1) * slope
        valuation = Valuation.explicit(m, table, subadditive=False)
        inst = Instance(n=n, m=m, valuations=(valuation,) * n, scaled=True)
        validate_instance(inst)
        return inst

    raise ValueError(f"unknown family {family!r}; "
                     f"expected one of {ADVERSARIAL_FAMILIES}")


def generate_random(n: int, m: int, distribution: str = "uniform-rational",
                    seed: int = 0) -> Instance:
    """Seeded random additive instance; identical seeds give identical
    instances byte-for-byte."""
    check_family_args("random", n, m, distribution=distribution)
    rng = random.Random(seed)
    if distribution == "uniform-rational":
        rows = [[Fraction(rng.randint(0, 1000), 1000) for _ in range(m)]
                for _ in range(n)]
        return _uniform_rows(rows, scaled=False)
    rows = []                           # dirichlet-scaled
    for _ in range(n):
        weights = [rng.randint(1, 1000) for _ in range(m)]
        total = sum(weights)
        rows.append([Fraction(w, total) for w in weights])
    return _uniform_rows(rows, scaled=True)


def generate_random_subadditive(n: int, m: int, seed: int = 0) -> Instance:
    """Seeded random budget-additive explicit instance (subadditive): each
    agent's bundle value is the sum of per-good draws clipped at a random
    budget, which preserves normalization and monotonicity."""
    check_family_args("random-subadditive", n, m)
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
    inst = Instance(n=n, m=m, valuations=tuple(valuations), scaled=False)
    validate_instance(inst)
    return inst
