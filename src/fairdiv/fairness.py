"""Exact fairness predicates: EF1, Prop1, alpha-MMS, and social welfare.

Each predicate returns a FairnessVerdict carrying either a machine-checkable
certificate (evidence the property holds) or a counterexample witness that
reproduces the violated inequality when replayed through value queries.

Each rule is decided once, in one agent's integers on any positive scale:
`ef1_failure` (EF1) and `prop1_good` (Prop1) serve `is_ef1` and `is_prop1`
on each kernel and `constrained_opt`'s leaf checks on rows over one common
denominator. The two are the leaf checks' inner loops, so they read those
rows and tables inline; everything else here reads a kernel through
`Valuation.ints_of`. Certificates and witnesses, the public output, are exact
rationals; a witness is built only on failure. A Prop1 scope takes its
agents through `model.agent_set` and its goods through `model.good_set`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Optional

from .errors import ValidationError
from .model import (Allocation, Instance, ADDITIVE, agent_set, bits,
                    format_rational, good_set, goods_mask,
                    validate_allocation)


@dataclass(frozen=True)
class FairnessVerdict:
    """Outcome of a fairness check.

    On success `certificate` holds per-pair (EF1) or per-agent (Prop1,
    alpha-MMS) evidence; on failure `witness` pins down the violating
    agent/pair together with every residual comparison, all as exact
    rationals.
    """

    holds: bool
    prop: str
    certificate: Optional[dict] = None
    witness: Optional[dict] = None

    def to_json(self) -> dict:
        def conv(obj):
            if isinstance(obj, Fraction):
                return format_rational(obj)
            if isinstance(obj, dict):
                return {str(k): conv(v) for k, v in obj.items()}
            if isinstance(obj, (list, tuple)):
                return [conv(v) for v in obj]
            return obj

        out = {"property": self.prop, "holds": self.holds}
        if self.certificate is not None and self.prop == "ef1":
            # Pairs (i, j) to goods, all ints: keys as `str` writes them.
            out["certificate"] = {f"({i}, {j})": g for (i, j), g
                                  in self.certificate.items()}
        elif self.certificate is not None:
            out["certificate"] = conv(self.certificate)
        if self.witness is not None:
            out["witness"] = conv(self.witness)
        return out


def social_welfare(inst: Instance, alloc: Allocation) -> Fraction:
    """Sum of each agent's value for her own bundle: her kernel integers,
    over the lcm of the agents' denominators, as one Fraction."""
    validate_allocation(alloc, inst)
    scale = lcm(*(v.den for v in inst.valuations))
    total = 0
    for v, bundle in zip(inst.valuations, alloc.bundles):
        total += v.ints_of(bundle) * (scale // v.den)
    return Fraction(total, scale)


def split_rows(inst: Instance, rows) -> tuple[list, list]:
    """`(rows, tables)`: each agent's integers as additive values or as an
    explicit bitmask table, None in the other list."""
    additive = [v.kind == ADDITIVE for v in inst.valuations]
    return ([row if add else None for row, add in zip(rows, additive)],
            [None if add else row for row, add in zip(rows, additive)])


def ef1_failure(rows, tables, floors, masks, owner, agents,
                certificate: Optional[dict] = None) -> Optional[tuple]:
    """The first pair (i, j), i in `agents` order and j ascending, that
    breaks EF1, or None. Bundles are `masks`, `owner[g]` is good g's agent
    (n if unallocated), and `floors[i]` is below agent i's additive values.
    `certificate`, if given, gets each passing pair's good that leaves the
    smallest residual, lowest on ties."""
    n = len(masks)
    for i in agents:
        w, t = rows[i], tables[i]
        if t is None:
            # v_i(B_j - {g}) is smallest for g the top good of B_j.
            sums, tops = [0] * (n + 1), [floors[i]] * (n + 1)
            top_goods = [0] * (n + 1)
            for g, (j, x) in enumerate(zip(owner, w)):
                sums[j] += x
                if x > tops[j]:
                    tops[j], top_goods[j] = x, g
            for j in range(n):
                if j != i and masks[j]:
                    if sums[j] - tops[j] > sums[i]:
                        return i, j
                    if certificate is not None:
                        certificate[(i + 1, j + 1)] = top_goods[j] + 1
        else:
            own = t[masks[i]]
            for j in range(n):
                bj = masks[j]
                if j != i and bj:
                    low = min(bits(bj), key=lambda g: t[bj ^ 1 << g])
                    if t[bj ^ 1 << low] > own:
                        return i, j
                    if certificate is not None:
                        certificate[(i + 1, j + 1)] = low + 1
    return None


def prop1_good(row, table, mask, own, total, goods, k) -> Optional[int]:
    """One agent's Prop1 rule in her integers, for bundle `mask` worth `own`
    and scope value `total` shared by k agents: -1 if k * own >= total,
    else the first g in `goods` with k * v(B + {g}) >= total, else None."""
    if k * own >= total:
        return -1
    if table is None:   # an owned good adds nothing to `own`
        need = total - k * own
        return next((g for g in goods
                     if k * row[g] >= need and not mask >> g & 1), None)
    return next((g for g in goods if k * table[mask | 1 << g] >= total), None)


def is_ef1(inst: Instance, alloc: Allocation) -> FairnessVerdict:
    """Envy-freeness up to one good; accepts partial allocations.

    Holds iff for every ordered pair (i, j) with a nonempty bundle B_j there
    is a good g in B_j with v_i(own) >= v_i(B_j - {g}). The certificate
    records one such g per pair (the one leaving the smallest residual,
    lowest good on ties); a failure witness lists the residual value of
    every single-good removal so it can be replayed. `ef1_failure` decides
    on each agent's integer kernel; only a failure builds `Fraction`s.
    """
    validate_allocation(alloc, inst)
    rows, tables = split_rows(inst, [v.kernel for v in inst.valuations])
    floors = [min(w, default=0) - 1 if w is not None else None for w in rows]
    masks = [goods_mask(b) for b in alloc.bundles]
    owner = [inst.n] * inst.m
    for j, bundle in enumerate(alloc.bundles):
        for g in bundle:
            owner[g] = j
    certificate: dict = {}
    pair = ef1_failure(rows, tables, floors, masks, owner, range(inst.n),
                       certificate)
    if pair is None:
        return FairnessVerdict(holds=True, prop="ef1", certificate=certificate)
    i, j = pair
    own = inst.value(i, alloc.bundles[i])
    comparisons = [{"removed": h + 1,
                    "residual": inst.value(i, alloc.bundles[j] - {h}),
                    "own": own} for h in sorted(alloc.bundles[j])]
    return FairnessVerdict(holds=False, prop="ef1",
                           witness={"i": i + 1, "j": j + 1, "own": own,
                                    "comparisons": comparisons})


def is_prop1(inst: Instance, alloc: Allocation,
             agents: Optional[Iterable[int]] = None,
             goods: Optional[Iterable[int]] = None) -> FairnessVerdict:
    """Proportionality up to one good, optionally scoped to a sub-instance.

    With scope <A, G> the threshold is v_i(G)/|A| and the hypothetical good
    ranges over all of G, allocated or not. Default scope is all agents and
    all goods; A must hold distinct agents. An agent whose own bundle
    already meets the threshold passes outright (by monotonicity any good
    would do), which also settles the vacuous empty-G case.
    """
    validate_allocation(alloc, inst)
    scope_goods = sorted(good_set(range(inst.m) if goods is None else goods,
                                  inst.m))
    scope_agents = agent_set(range(inst.n) if agents is None else agents,
                             inst.n)
    k = len(scope_agents)
    rows, tables = split_rows(inst, [v.kernel for v in inst.valuations])
    certificate: dict = {}
    for i in scope_agents:
        v, bundle = inst.valuations[i], alloc.bundles[i]
        own, total, den = v.ints_of(bundle), v.ints_of(scope_goods), v.den
        threshold = Fraction(total, den * k)
        g = prop1_good(rows[i], tables[i], goods_mask(bundle), own, total,
                       scope_goods, k)
        if g is None:
            comparisons = [{"added": h + 1,
                            "value": inst.value(i, bundle | {h}),
                            "threshold": threshold} for h in scope_goods]
            return FairnessVerdict(
                holds=False, prop="prop1",
                witness={"agent": i + 1, "own": Fraction(own, den),
                         "threshold": threshold, "comparisons": comparisons})
        value = Fraction(own, den) if g < 0 else inst.value(i, bundle | {g})
        if g < 0:   # the own bundle meets the threshold: any good will do
            g = scope_goods[0] if scope_goods else None
        certificate[i + 1] = {"good": None if g is None else g + 1,
                              "value": value, "threshold": threshold}
    return FairnessVerdict(holds=True, prop="prop1", certificate=certificate)


def nonnegative_alpha(alpha) -> Fraction:
    """`alpha` as a Fraction, rejected when negative: every alpha-MMS
    requirement would then be negative, and any allocation would pass."""
    alpha = Fraction(alpha)
    if alpha < 0:
        raise ValidationError("alpha", f"alpha {alpha} is negative")
    return alpha


def is_alpha_mms(inst: Instance, alloc: Allocation, alpha: Fraction,
                 profile) -> FairnessVerdict:
    """alpha-approximate maximin share fairness against an exact MMS profile."""
    validate_allocation(alloc, inst)
    alpha = nonnegative_alpha(alpha)
    mms = profile.exact_mms(inst.n)
    certificate: dict = {}
    for i in range(inst.n):
        own = inst.value(i, alloc.bundles[i])
        bound = alpha * mms[i]
        if own < bound:
            return FairnessVerdict(
                holds=False, prop="alpha-mms",
                witness={"agent": i + 1, "own": own, "alpha": alpha,
                         "mms": mms[i], "required": bound})
        certificate[i + 1] = {"own": own, "required": bound}
    return FairnessVerdict(holds=True, prop="alpha-mms", certificate=certificate)
