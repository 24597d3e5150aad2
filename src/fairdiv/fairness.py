"""Exact fairness predicates: EF1, Prop1, alpha-MMS, and social welfare.

Each predicate returns a FairnessVerdict carrying either a machine-checkable
certificate (evidence the property holds) or a counterexample witness that
reproduces the violated inequality when replayed through value queries.

`is_ef1` decides on each agent's integer kernel (`Valuation.kernel`), so no
`Fraction` is built on success; certificates and witnesses, the public
output, stay in exact rationals.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional

from .errors import ValidationError
from .model import (Allocation, Instance, ADDITIVE, ZERO, format_rational,
                    goods_mask, validate_allocation)


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
            if isinstance(obj, frozenset):
                return sorted(g + 1 for g in obj)
            if isinstance(obj, dict):
                return {str(k): conv(v) for k, v in obj.items()}
            if isinstance(obj, (list, tuple)):
                return [conv(v) for v in obj]
            return obj

        out = {"property": self.prop, "holds": self.holds}
        if self.certificate is not None:
            out["certificate"] = conv(self.certificate)
        if self.witness is not None:
            out["witness"] = conv(self.witness)
        return out


def social_welfare(inst: Instance, alloc: Allocation) -> Fraction:
    """Sum of each agent's value for her own bundle."""
    validate_allocation(alloc, inst)
    return sum((inst.value(i, alloc.bundles[i]) for i in range(inst.n)), ZERO)


def _certifying_good(ints: tuple[int, ...], additive: bool, own: int,
                     bundle: frozenset[int]) -> Optional[int]:
    """The good whose removal shrinks the agent's view of a nonempty
    `bundle` the most (lowest good on ties) when the residual is at most
    `own`, else None; all in the agent's integers."""
    if additive:
        top = max(ints[x] for x in bundle)
        if own < sum(ints[x] for x in bundle) - top:
            return None
        return min(x for x in bundle if ints[x] == top)
    mask = goods_mask(bundle)
    best_g, best_res = None, None
    for g in sorted(bundle):
        res = ints[mask ^ (1 << g)]
        if best_res is None or res < best_res:
            best_g, best_res = g, res
    return best_g if own >= best_res else None


def is_ef1(inst: Instance, alloc: Allocation) -> FairnessVerdict:
    """Envy-freeness up to one good; accepts partial allocations.

    Holds iff for every ordered pair (i, j) with a nonempty bundle B_j there
    is a good g in B_j with v_i(own) >= v_i(B_j - {g}). The certificate
    records one such g per pair (the one leaving the smallest residual,
    lowest good on ties); a failure witness lists the residual value of
    every single-good removal so it can be replayed. The decision runs on
    each agent's integer kernel; only a failure builds `Fraction`s.
    """
    validate_allocation(alloc, inst)
    certificate: dict = {}
    for i in range(inst.n):
        v = inst.valuations[i]
        ints = v.kernel
        additive = v.kind == ADDITIVE
        own_goods = alloc.bundles[i]
        own = (sum(ints[x] for x in own_goods) if additive
               else ints[goods_mask(own_goods)])
        for j in range(inst.n):
            if j == i or not alloc.bundles[j]:
                continue
            g = _certifying_good(ints, additive, own, alloc.bundles[j])
            if g is not None:
                certificate[(i + 1, j + 1)] = g + 1
                continue
            own_value = inst.value(i, own_goods)
            comparisons = [
                {"removed": h + 1,
                 "residual": inst.value(i, alloc.bundles[j] - {h}),
                 "own": own_value}
                for h in sorted(alloc.bundles[j])]
            return FairnessVerdict(
                holds=False, prop="ef1",
                witness={"i": i + 1, "j": j + 1,
                         "own": own_value, "comparisons": comparisons})
    return FairnessVerdict(holds=True, prop="ef1", certificate=certificate)


def is_prop1(inst: Instance, alloc: Allocation,
             agents: Optional[Iterable[int]] = None,
             goods: Optional[Iterable[int]] = None) -> FairnessVerdict:
    """Proportionality up to one good, optionally scoped to a sub-instance.

    With scope <A, G> the threshold is v_i(G)/|A| and the hypothetical good
    ranges over all of G, allocated or not. Default scope is all agents and
    all goods. An agent whose own bundle already meets the threshold passes
    outright (by monotonicity any good would do), which also settles the
    vacuous empty-G case.
    """
    validate_allocation(alloc, inst)
    scope_agents = sorted(agents) if agents is not None else list(range(inst.n))
    scope_goods = sorted(goods) if goods is not None else list(range(inst.m))
    if not scope_agents:
        raise ValueError("prop1 scope needs at least one agent")
    k = len(scope_agents)
    certificate: dict = {}
    for i in scope_agents:
        threshold = inst.value(i, scope_goods) / k
        own = inst.value(i, alloc.bundles[i])
        if own >= threshold:
            certificate[i + 1] = {"good": scope_goods[0] + 1 if scope_goods else None,
                                  "value": own, "threshold": threshold}
            continue
        found = None
        for g in scope_goods:
            boosted = inst.value(i, alloc.bundles[i] | {g})
            if boosted >= threshold:
                found = (g, boosted)
                break
        if found is None:
            comparisons = [
                {"added": g + 1,
                 "value": inst.value(i, alloc.bundles[i] | {g}),
                 "threshold": threshold}
                for g in scope_goods]
            return FairnessVerdict(
                holds=False, prop="prop1",
                witness={"agent": i + 1, "own": own, "threshold": threshold,
                         "comparisons": comparisons})
        certificate[i + 1] = {"good": found[0] + 1, "value": found[1],
                              "threshold": threshold}
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
