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
agent to total value exactly 1.

`generate(family, n, ...)` is the one public way to build a family instance,
by its name; the CLI and the experiment sweep call it too. A random family
takes a seed, an integer >= 0 (0 when none is given), and one seed gives one
instance, byte for byte; an adversarial family takes none.

Every family computes its values as integers over one denominator per
agent and hands them to `Valuation.from_ints`, which reduces them; no
`Fraction` is built on the way.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from typing import Optional

from .model import (ADDITIVE, EXPLICIT, Instance, Valuation,
                    check_explicit_goods_cap, is_json_int, validate_instance)

ADVERSARIAL_FAMILIES = ("ef1-unscaled", "mms-unscaled", "mms-scaled-sqrt",
                        "prop1-unscaled", "prop1-scaled", "supermodular")
RANDOM_FAMILIES = ("random", "random-subadditive")
RANDOM_DISTRIBUTIONS = ("uniform-rational", "dirichlet-scaled")
# What a request for a family's instances may name beside n: an adversarial
# family is one instance per n (and epsilon, for the two that need it); a
# random family draws m goods (by a distribution, for `random`) any `count`
# of times. Anything else is refused, by `check_family_args` and by an
# experiment config alike.
FAMILY_ARGS = {**dict.fromkeys(ADVERSARIAL_FAMILIES, ()),
               "mms-unscaled": ("epsilon",), "supermodular": ("epsilon",),
               "random": ("m", "distribution", "count"),
               "random-subadditive": ("m", "count")}


def check_family_args(family: str, n: int, m: Optional[int] = None,
                      epsilon: Optional[Fraction] = None,
                      distribution: Optional[str] = None,
                      seed: Optional[int] = None) -> None:
    """The generators' argument rules, checked before any work: ValueError
    for arguments that name no instance, the explicit-goods-cap
    ValidationError for explicit tables over the cap. Sizes and seeds are
    integers (bools are not), a seed is at least 0, and epsilon is a
    Fraction; an unknown family, an argument outside the family's
    `FAMILY_ARGS`, or a seed for an adversarial family, is refused."""
    if family not in FAMILY_ARGS:
        raise ValueError(f"unknown family {family!r}; expected one of "
                         f"{tuple(FAMILY_ARGS)}")
    takes = FAMILY_ARGS[family]
    for name, value in (("m", m), ("epsilon", epsilon),
                        ("distribution", distribution)):
        if value is not None and name not in takes:
            raise ValueError(f"{family} takes no {name}")
    if seed is not None and family in ADVERSARIAL_FAMILIES:
        raise ValueError(f"{family} takes no seed")
    if not is_json_int(n):
        raise ValueError(f"n must be an integer, got {n!r}")
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if seed is not None and not is_json_int(seed):
        raise ValueError(f"seed must be an integer, got {seed!r}")
    if seed is not None and seed < 0:
        raise ValueError(f"need seed >= 0, got {seed}")
    if epsilon is not None and not isinstance(epsilon, Fraction):
        raise ValueError(f"epsilon must be a Fraction, got {epsilon!r}")
    if epsilon is not None and not 0 < epsilon < 1:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")
    if family in RANDOM_FAMILIES and not is_json_int(m):
        raise ValueError(f"m must be an integer, got {m!r}")
    if family in RANDOM_FAMILIES and m < 1:
        raise ValueError(f"need m >= 1, got {m}")
    if family == "random" and distribution not in RANDOM_DISTRIBUTIONS:
        raise ValueError(f"unknown distribution {distribution!r}; "
                         f"expected one of {RANDOM_DISTRIBUTIONS}")
    if "epsilon" in takes and epsilon is None:
        raise ValueError(f"{family} needs an epsilon in (0, 1)")
    if family == "prop1-scaled" and isqrt(n) ** 2 != n:
        raise ValueError(f"prop1-scaled requires a square agent count, "
                         f"got {n}")
    if family == "supermodular" and n < 2:
        raise ValueError("supermodular needs n >= 2")
    if family in ("random-subadditive", "supermodular"):
        check_explicit_goods_cap(n if family == "supermodular" else m)


def _additive(ints: list[int], den: int) -> Valuation:
    """The additive valuation worth `ints[g] / den` at good g."""
    return Valuation.from_ints(ADDITIVE, len(ints), ints, den)


def _validated(valuations: list[Valuation], scaled: bool) -> Instance:
    """The validated instance of these agents. Agents with the same values
    may share one `Valuation`."""
    inst = Instance(n=len(valuations), m=valuations[0].m,
                    valuations=tuple(valuations), scaled=scaled)
    validate_instance(inst)
    return inst


# The builders: each takes arguments `check_family_args` has passed.
def _adversarial(family: str, n: int, epsilon=None) -> Instance:
    if family == "ef1-unscaled":
        return _validated([_additive([n] * n, 1)]
                          + [_additive([1] * n, n)] * (n - 1), scaled=False)

    if family == "mms-unscaled":
        p, q = epsilon.numerator, epsilon.denominator
        return _validated([_additive([1] * n, 1)]
                          + [_additive([p] * n, q)] * (n - 1), scaled=False)

    if family in ("mms-scaled-sqrt", "prop1-scaled"):
        # Block agents own floor(sqrt(n)) goods each at 1/s; the rest value
        # all m goods alike at 1/m.
        s = isqrt(n)
        m = n if family == "mms-scaled-sqrt" else n + 1
        blocks = []
        for i in range(s):
            ints = [0] * m
            ints[i * s:(i + 1) * s] = [1] * s
            blocks.append(_additive(ints, s))
        return _validated(blocks + [_additive([1] * m, m)] * (n - s),
                          scaled=True)

    if family == "prop1-unscaled":
        m = n + 1
        return _validated([_additive([n + 1] * m, 1)]
                          + [_additive([1] * m, n + 1)] * (n - 1),
                          scaled=False)

    # supermodular, over q(m-1) for eps = p/q: a set S is worth p(m-1)|S|
    # when |S| <= 1 and p(m-1) + (|S|-1)(q-p) above. Set sizes by bitmask
    # double up one good at a time.
    m = n
    p, q = epsilon.numerator, epsilon.denominator
    sizes = [0]
    for _ in range(m):
        sizes += [k + 1 for k in sizes]
    table = [p * (m - 1) * k if k <= 1 else p * (m - 1) + (k - 1) * (q - p)
             for k in sizes]
    valuation = Valuation.from_ints(EXPLICIT, m, table, q * (m - 1))
    return _validated([valuation] * n, scaled=True)


def _random(n: int, m: int, distribution: str, seed: int) -> Instance:
    rng = random.Random(seed)
    if distribution == "uniform-rational":
        draws = [[rng.randint(0, 1000) for _ in range(m)] for _ in range(n)]
        return _validated([_additive(row, 1000) for row in draws],
                          scaled=False)
    valuations = []                     # dirichlet-scaled
    for _ in range(n):
        weights = [rng.randint(1, 1000) for _ in range(m)]
        valuations.append(_additive(weights, sum(weights)))
    return _validated(valuations, scaled=True)


def _random_subadditive(n: int, m: int, seed: int) -> Instance:
    rng = random.Random(seed)
    valuations = []
    for _ in range(n):
        # Over 10^6: goods are worth draws over 1000, and the budget
        # top + r/1000 * (total - top) for one more draw r.
        base = [rng.randint(0, 1000) for _ in range(m)]
        top, total = max(base), sum(base)
        budget = 1000 * top + rng.randint(0, 1000) * (total - top)
        sums = [0]                      # by bitmask, one good at a time
        for x in base:
            x *= 1000
            sums += [t + x for t in sums]
        table = [min(t, budget) for t in sums]
        valuations.append(Valuation.from_ints(EXPLICIT, m, table, 10 ** 6,
                                              subadditive=True))
    return _validated(valuations, scaled=False)


def generate(family: str, n: int, m: Optional[int] = None,
             epsilon: Optional[Fraction] = None,
             distribution: Optional[str] = None,
             seed: Optional[int] = None) -> Instance:
    """The validated instance a request names, its arguments checked once
    before any work. `random` draws by `RANDOM_DISTRIBUTIONS[0]` and a random
    family by seed 0 unless told otherwise; an adversarial one takes none."""
    if family == "random" and distribution is None:
        distribution = RANDOM_DISTRIBUTIONS[0]
    check_family_args(family, n, m, epsilon, distribution, seed)
    if family in ADVERSARIAL_FAMILIES:
        return _adversarial(family, n, epsilon)
    if family == "random":
        return _random(n, m, distribution, seed or 0)
    return _random_subadditive(n, m, seed or 0)


# The benchmark's inputs are still built through these three names, so they
# stay, each one `generate` call; ROADMAP item 6 deletes all three with their
# three call sites in `perfbench/`.
@dataclass(frozen=True)
class FamilySpec:
    family: str
    n: int
    epsilon: Optional[Fraction] = None


def generate_adversarial(spec: FamilySpec) -> Instance:
    return generate(spec.family, spec.n, epsilon=spec.epsilon)


def generate_random(n: int, m: int, distribution: Optional[str] = None,
                    seed: Optional[int] = None) -> Instance:
    return generate("random", n, m, distribution=distribution, seed=seed)
