"""Exact-rational data model: valuations, instances, allocations.

All values are `fractions.Fraction`; no floating point ever enters a
fairness decision. Goods and agents are 1-indexed in files and 0-indexed
internally. Every type is immutable after construction, so instances can be
shared freely across workers.

The solvers, the oracles and validation compute in integers: `Valuation.ints`
is each agent's integer kernel, cached on first use. It holds the values
multiplied by `den`, the lcm of the agent's denominators: one integer per
good for additive agents, one per bitmask-indexed subset for explicit
agents. Scaling by `den > 0` keeps the order of every comparison within one
agent; comparisons across agents first rescale to a common lcm.

Instance files are JSON::

    {"n": 2, "m": 2, "scaled": true,
     "valuations": [{"kind": "additive", "values": ["1/2", "1/2"]},
                    {"kind": "explicit", "subadditive": true,
                     "table": {"1": "1/3", "2": "1/3", "1,2": "1/2"}}]}

Rationals are "p/q" strings or plain integers matching
``-?[0-9]+(/[0-9]+)?``: no decimals, exponents, "+" signs, underscores or
spaces. Explicit-table keys are sorted comma-joined 1-based good indices,
and the empty-set key "" may be omitted (defaults to 0). Allocation files are
``{"bundles": [[1, 3], [2], []]}``.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Iterable, Mapping, Sequence

from .errors import ParseError, ValidationError

ADDITIVE = "additive"
EXPLICIT = "explicit"

# Explicit tables are exponential in m.
EXPLICIT_GOODS_CAP = 20

ZERO = Fraction(0)

_RATIONAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def parse_rational(text: str) -> Fraction:
    """Parse a "p/q" or plain integer string (or a JSON integer) into an
    exact Fraction."""
    match = _RATIONAL.fullmatch(str(text))
    if match is None:
        raise ParseError(f"not a rational: {text!r} (expected p/q or an "
                         "integer)")
    num, den = match.groups()
    if den is None:
        return Fraction(int(num))
    if int(den) == 0:
        raise ParseError(f"not a rational: {text!r} (zero denominator)")
    return Fraction(int(num), int(den))


def format_rational(value: Fraction) -> str:
    return str(Fraction(value))


def _good_set(goods: Iterable[int], m: int) -> frozenset[int]:
    s = frozenset(goods)
    if not all(isinstance(g, int) and 0 <= g < m for g in s):
        raise ValueError(f"good set {sorted(s)} not within 0..{m - 1}")
    return s


def goods_mask(goods: Iterable[int]) -> int:
    """Bitmask with bit g set for every good g."""
    mask = 0
    for g in goods:
        mask |= 1 << g
    return mask


def mask_goods(mask: int) -> frozenset[int]:
    """The goods whose bits are set in `mask`."""
    goods = []
    while mask:
        low = mask & -mask
        goods.append(low.bit_length() - 1)
        mask ^= low
    return frozenset(goods)


def _ext(goods: Iterable[int]) -> tuple[int, ...]:
    """Sorted 1-based rendering of an internal good set, for messages."""
    return tuple(sorted(g + 1 for g in goods))


@dataclass(frozen=True)
class Valuation:
    """One agent's valuation: additive (per-good values) or an explicit
    table over all 2^m subsets."""

    kind: str
    m: int
    values: tuple[Fraction, ...] | None = None
    table: Mapping[frozenset[int], Fraction] | None = None
    subadditive: bool = False

    @staticmethod
    def additive(values: Sequence[Fraction]) -> "Valuation":
        vals = tuple(v if type(v) is Fraction else Fraction(v)
                     for v in values)
        return Valuation(kind=ADDITIVE, m=len(vals), values=vals)

    @staticmethod
    def explicit(m: int, table: Mapping[frozenset[int], Fraction],
                 subadditive: bool = False) -> "Valuation":
        if m > EXPLICIT_GOODS_CAP:
            raise ValidationError(
                "explicit-goods-cap",
                f"explicit valuation over {m} goods exceeds the cap of "
                f"{EXPLICIT_GOODS_CAP} (table size is 2^m)")
        full = {frozenset(k): Fraction(v) for k, v in table.items()}
        full.setdefault(frozenset(), ZERO)
        missing = [mask for mask in range(1 << m)
                   if mask_goods(mask) not in full]
        if missing:
            raise ParseError(
                f"explicit table misses subset {_ext(mask_goods(missing[0]))} "
                f"({len(missing)} of {1 << m} subsets absent)")
        if len(full) > 1 << m:
            raise ParseError(f"explicit table has keys outside goods 1..{m}")
        return Valuation(kind=EXPLICIT, m=m, table=full, subadditive=subadditive)

    def value(self, goods: Iterable[int]) -> Fraction:
        s = _good_set(goods, self.m)
        if self.kind == ADDITIVE:
            return sum((self.values[g] for g in s), ZERO)
        return self.table[s]

    @cached_property
    def ints(self) -> tuple[tuple[int, ...], int]:
        """Integer kernel `(ints, den)`: every value times `den`, the lcm of
        this agent's denominators. Additive agents get one integer per
        good, explicit agents one per subset, indexed by bitmask."""
        if self.kind == ADDITIVE:
            den = lcm(*(x.denominator for x in self.values))
            return tuple(x.numerator * (den // x.denominator)
                         for x in self.values), den
        den = lcm(*(x.denominator for x in self.table.values()))
        ints = [0] * (1 << self.m)
        for s, x in self.table.items():
            ints[goods_mask(s)] = x.numerator * (den // x.denominator)
        return tuple(ints), den


def common_ints(valuations: Sequence[Valuation]
                ) -> tuple[list[list[int]], int]:
    """Every agent's integer kernel rescaled to one common denominator, the
    lcm of theirs, as comparisons across agents need."""
    scale = lcm(*(v.ints[1] for v in valuations))
    return [[x * (scale // den) for x in ints]
            for ints, den in (v.ints for v in valuations)], scale


def value_query(valuation: Valuation, goods: Iterable[int]) -> Fraction:
    """Exact value of a subset of goods under the given valuation."""
    return valuation.value(goods)


@dataclass(frozen=True)
class Instance:
    """A fair-division instance: n agents, m goods, one valuation per agent,
    and a (validated) claim that every agent values the full good set at 1."""

    n: int
    m: int
    valuations: tuple[Valuation, ...]
    scaled: bool = False

    def value(self, agent: int, goods: Iterable[int]) -> Fraction:
        return self.valuations[agent].value(goods)

    @property
    def additive(self) -> bool:
        return all(v.kind == ADDITIVE for v in self.valuations)

    def total_value(self, agent: int) -> Fraction:
        return self.valuations[agent].value(range(self.m))


@dataclass(frozen=True)
class Allocation:
    """A partition (possibly partial) of the goods into per-agent bundles."""

    bundles: tuple[frozenset[int], ...]

    @staticmethod
    def of(bundles: Iterable[Iterable[int]]) -> "Allocation":
        return Allocation(tuple(frozenset(b) for b in bundles))

    def allocated(self) -> frozenset[int]:
        out: frozenset[int] = frozenset()
        for b in self.bundles:
            out |= b
        return out

    def is_complete(self, m: int) -> bool:
        return self.allocated() == frozenset(range(m))


def validate_allocation(alloc: Allocation, inst: Instance,
                        require_complete: bool = False) -> None:
    """Check bundle count, good range, pairwise disjointness and (optionally)
    completeness against an instance."""
    if len(alloc.bundles) != inst.n:
        raise ValidationError(
            "bundle-count",
            f"expected {inst.n} bundles, got {len(alloc.bundles)}")
    seen: dict[int, int] = {}
    for i, bundle in enumerate(alloc.bundles):
        for g in bundle:
            if not (0 <= g < inst.m):
                raise ValidationError(
                    "good-range", f"bundle of agent {i + 1} contains good "
                    f"{g + 1} outside 1..{inst.m}", agent=i + 1)
            if g in seen:
                raise ValidationError(
                    "disjoint-bundles",
                    f"good {g + 1} appears in bundles of agents "
                    f"{seen[g] + 1} and {i + 1}",
                    witness=(g + 1,))
            seen[g] = i
    if require_complete and not alloc.is_complete(inst.m):
        missing = sorted(frozenset(range(inst.m)) - alloc.allocated())
        raise ValidationError(
            "complete", f"allocation leaves goods {_ext(missing)} unassigned",
            witness=_ext(missing))


def check_monotone(v: Valuation, agent: int) -> None:
    """Raise ValidationError unless v is monotone: every value of an
    additive agent is nonnegative, and an explicit table has v(S) <=
    v(S + {g}) for every S and g outside S (scanned by mask, then good)."""
    ints, den = v.ints
    label = f"agent {agent + 1}"
    if v.kind == ADDITIVE:
        for g, x in enumerate(ints):
            if x < 0:
                raise ValidationError(
                    "nonnegative", f"{label}: v({g + 1}) = {v.values[g]} < 0",
                    agent=agent + 1, witness=(g + 1,))
        return
    for mask, x in enumerate(ints):
        for g in range(v.m):
            bigger = mask | 1 << g
            if x > ints[bigger]:
                s, sg = _ext(mask_goods(mask)), _ext(mask_goods(bigger))
                raise ValidationError(
                    "monotone", f"{label}: v({s}) = {Fraction(x, den)} > "
                    f"v({sg}) = {Fraction(ints[bigger], den)}",
                    agent=agent + 1, witness=(s, sg))


def _validate_valuation(v: Valuation, agent: int) -> None:
    """Raise ValidationError naming the failing axiom, agent and witness."""
    label = f"agent {agent + 1}"
    if v.kind == ADDITIVE:
        if len(v.values) != v.m:
            raise ValidationError(
                "value-count", f"{label}: expected {v.m} values, got "
                f"{len(v.values)}", agent=agent + 1)
        check_monotone(v, agent)
        return

    ints, den = v.ints
    if ints[0] != 0:
        raise ValidationError(
            "normalized", f"{label}: not normalized, v({{}}) = "
            f"{Fraction(ints[0], den)} != 0", agent=agent + 1, witness=())
    if min(ints) < 0:
        # The first negative value in the order the table was given.
        subset, val = next((s, x) for s, x in v.table.items() if x < 0)
        raise ValidationError(
            "nonnegative", f"{label}: v({_ext(subset)}) = {val} < 0",
            agent=agent + 1, witness=_ext(subset))
    check_monotone(v, agent)
    if v.subadditive:
        # Disjoint pairs only, S ascending, then T ascending over the
        # nonempty submasks of S's complement. This finds the first violating
        # pair of all pairs in that order: if (S, T) violates and T meets S,
        # then (S, T - S) violates too (v(T - S) <= v(T) by monotonicity;
        # T - S = {} would need v(T) < 0) and comes earlier.
        full = len(ints) - 1
        for s in range(1, full):
            rest = full ^ s
            t = rest & -rest
            while t:
                if ints[s | t] > ints[s] + ints[t]:
                    S, T = _ext(mask_goods(s)), _ext(mask_goods(t))
                    raise ValidationError(
                        "subadditive", f"{label}: v({_ext(mask_goods(s | t))}) = "
                        f"{Fraction(ints[s | t], den)} > v(S) + v(T) = "
                        f"{Fraction(ints[s] + ints[t], den)} for S = {S}, "
                        f"T = {T}", agent=agent + 1, witness=(S, T))
                t = (t - rest) & rest


def validate_instance(inst: Instance) -> None:
    """Run every valuation axiom check and verify the scaled flag."""
    if inst.n < 1:
        raise ValidationError("agent-count", f"need at least 1 agent, got {inst.n}")
    if inst.m < 0:
        raise ValidationError("good-count", f"negative good count {inst.m}")
    if len(inst.valuations) != inst.n:
        raise ValidationError(
            "valuation-count",
            f"expected {inst.n} valuations, got {len(inst.valuations)}")
    for i, v in enumerate(inst.valuations):
        if v.m != inst.m:
            raise ValidationError(
                "good-count", f"agent {i + 1}: valuation over {v.m} goods, "
                f"instance has {inst.m}", agent=i + 1)
        _validate_valuation(v, i)
    if inst.scaled:
        for i, v in enumerate(inst.valuations):
            ints, den = v.ints
            total = sum(ints) if v.kind == ADDITIVE else ints[-1]
            if total != den:
                raise ValidationError(
                    "scaled", f"scaled-flag mismatch: agent {i + 1} has "
                    f"v([m]) = {Fraction(total, den)} != 1", agent=i + 1)


def _parse_subset_key(key: str, m: int) -> frozenset[int]:
    if key == "":
        return frozenset()
    try:
        goods = [int(part) for part in key.split(",")]
    except ValueError:
        raise ParseError(f"bad subset key {key!r}") from None
    if any(not 1 <= g <= m for g in goods):
        raise ParseError(f"subset key {key!r} outside goods 1..{m}")
    if len(set(goods)) != len(goods):
        raise ParseError(f"subset key {key!r} repeats a good")
    return frozenset(g - 1 for g in goods)


def _subset_key(subset: frozenset[int]) -> str:
    return ",".join(str(g + 1) for g in sorted(subset))


def _valuation_from_json(obj, m: int, agent: int) -> Valuation:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ParseError(f"agent {agent + 1}: valuation must be an object "
                         "with a 'kind'")
    kind = obj["kind"]
    if kind == ADDITIVE:
        vals = obj.get("values")
        if not isinstance(vals, list) or len(vals) != m:
            raise ParseError(
                f"agent {agent + 1}: additive valuation needs exactly {m} values")
        return Valuation.additive([parse_rational(v) for v in vals])
    if kind == EXPLICIT:
        table_json = obj.get("table")
        if not isinstance(table_json, dict):
            raise ParseError(f"agent {agent + 1}: explicit valuation needs a table")
        subadditive = obj.get("subadditive", False)
        if not isinstance(subadditive, bool):
            raise ParseError(f"agent {agent + 1}: subadditive must be true or "
                             f"false, got {subadditive!r}")
        table = {_parse_subset_key(k, m): parse_rational(v)
                 for k, v in table_json.items()}
        return Valuation.explicit(m, table, subadditive=subadditive)
    raise ParseError(f"agent {agent + 1}: unknown valuation kind {kind!r}")


def is_json_int(value) -> bool:
    """True for a JSON integer; bools are ints in Python but not in JSON."""
    return isinstance(value, int) and not isinstance(value, bool)


def instance_from_json(data) -> Instance:
    try:
        n = data["n"]
        m = data["m"]
        scaled = data["scaled"]
        valuations_json = data["valuations"]
    except (KeyError, TypeError) as exc:
        raise ParseError(f"malformed instance file: {exc}") from None
    for name, count in (("n", n), ("m", m)):
        if not is_json_int(count):
            raise ParseError(f"{name} must be a JSON integer, got {count!r}")
    if not isinstance(scaled, bool):
        raise ParseError(f"scaled must be true or false, got {scaled!r}")
    if not isinstance(valuations_json, list) or len(valuations_json) != n:
        raise ParseError(f"expected {n} valuations, got "
                         f"{len(valuations_json) if isinstance(valuations_json, list) else 'non-list'}")
    valuations = tuple(_valuation_from_json(obj, m, i)
                       for i, obj in enumerate(valuations_json))
    inst = Instance(n=n, m=m, valuations=valuations, scaled=scaled)
    validate_instance(inst)
    return inst


def instance_to_json(inst: Instance) -> dict:
    vals = []
    for v in inst.valuations:
        if v.kind == ADDITIVE:
            vals.append({"kind": ADDITIVE,
                         "values": [format_rational(x) for x in v.values]})
        else:
            table = {_subset_key(s): format_rational(x)
                     for s, x in v.table.items() if s}
            vals.append({"kind": EXPLICIT, "subadditive": v.subadditive,
                         "table": table})
    return {"n": inst.n, "m": inst.m, "scaled": inst.scaled, "valuations": vals}


def load_instance(path) -> Instance:
    """Load and fully validate an instance file."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON: {exc}") from None
    return instance_from_json(data)


def save_instance(inst: Instance, path) -> None:
    with open(path, "w") as fh:
        json.dump(instance_to_json(inst), fh, indent=2, sort_keys=True)
        fh.write("\n")


def allocation_from_json(data) -> Allocation:
    try:
        bundles_json = data["bundles"]
    except (KeyError, TypeError) as exc:
        raise ParseError(f"malformed allocation file: {exc}") from None
    if not isinstance(bundles_json, list):
        raise ParseError(f"bundles must be a list, got {bundles_json!r}")
    bundles = []
    for b in bundles_json:
        if not isinstance(b, list):
            raise ParseError(f"a bundle must be a list of goods, got {b!r}")
        goods = []
        for g in b:
            if not is_json_int(g) or g < 1:
                raise ParseError(f"bad good index {g!r} (goods are 1-based)")
            goods.append(g - 1)
        bundles.append(frozenset(goods))
    return Allocation(tuple(bundles))


def allocation_to_json(alloc: Allocation) -> dict:
    return {"bundles": [[g + 1 for g in sorted(b)] for b in alloc.bundles]}


def load_allocation(path) -> Allocation:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON: {exc}") from None
    return allocation_from_json(data)


def save_allocation(alloc: Allocation, path) -> None:
    with open(path, "w") as fh:
        json.dump(allocation_to_json(alloc), fh, indent=2, sort_keys=True)
        fh.write("\n")


def rescale_instance(inst: Instance) -> Instance:
    """Divide each agent's additive values by her full-set value so the
    result is scaled. Rescaling is always explicit, never silent: the loader
    only verifies the scaled flag, it does not normalize."""
    if not inst.additive:
        raise ValidationError("rescale", "only additive instances can be rescaled")
    new_vals = []
    for i, v in enumerate(inst.valuations):
        total = sum(v.values, ZERO)
        if total == 0:
            raise ValidationError(
                "rescale", f"agent {i + 1} values every good at 0; cannot scale",
                agent=i + 1)
        new_vals.append(Valuation.additive([x / total for x in v.values]))
    return Instance(n=inst.n, m=inst.m, valuations=tuple(new_vals), scaled=True)
