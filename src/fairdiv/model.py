"""Exact-rational data model: valuations, instances, allocations.

Values are exact rationals; no floating point ever enters a fairness
decision. Goods and agents are 1-indexed in files and 0-indexed internally.
Every type is immutable after construction, so instances can be shared
freely across workers.

Rationals become integers here and nowhere else. A `Valuation` stores its
integer kernel: the values multiplied by `den`, the lcm of the agent's
reduced denominators, one integer per good for additive agents and one per
bitmask-indexed subset for explicit agents. The solvers, the oracles and
validation compute on it. `Fraction`s appear only at the edges: the loader
parses each rational straight into integers, and `Valuation.values`,
`Valuation.table` (in ascending bitmask order) and `Valuation.value` are
views built from the kernel alone. Outside the inner loops, which name
their own reads, a kernel is read through `Valuation.ints_of` (the integer
of a set of goods), `Valuation.singles` (each good's integer on its own)
and `bits` (the goods of a bitmask). Integers enter through one constructor,
`Valuation.from_ints`, which divides them and their denominator by their
gcd: the `Fraction` constructors and the loader call it, and so do
`rescale_instance` and `fairdiv.generators`, which hand it the integers
they compute or draw with no `Fraction` in between. Scaling by `den > 0`
keeps the order of every comparison within one agent; comparisons across
agents cross-multiply by the denominators. Only sums across agents rescale,
to `Instance.scale` by each agent's `Instance.factors` entry. `Instance.rows`
splits the kernels into additive weights and explicit tables, and
`Allocation.masks`, `Allocation.from_masks` and `owners` read bundles as
bitmasks; `ints_with` puts one agent's kernel and a rational over one.

Instance files are JSON::

    {"n": 2, "m": 2, "scaled": true,
     "valuations": [{"kind": "additive", "values": ["1/2", "1/2"]},
                    {"kind": "explicit", "subadditive": true,
                     "table": {"1": "2/3", "2": "1/2", "1,2": "1"}}]}

An agent with a "den" field is written as its integer kernel instead: every
value is a JSON integer k worth k/den, den a positive JSON integer, so the
same agents may read::

    {"kind": "additive", "den": 2, "values": [1, 1]}
    {"kind": "explicit", "subadditive": true, "den": 6,
     "table": {"1": 4, "2": 3, "1,2": 6}}

The kernel form loads with no per-value parse: the loader reduces by
gcd(den, *values) once. Rationals are "p/q" strings or plain integers
matching ``-?[0-9]+(/[0-9]+)?``: no decimals, exponents, "+" signs,
underscores or spaces. Under "den" every value must be a JSON integer
(bools, floats and strings are refused). Explicit-table keys are
comma-joined 1-based good indices in ASCII digits; two keys naming the same
subset are refused, and the empty-set key "" may be omitted (defaults to 0).
`save_instance` writes the kernel form, except for an agent whose kernel
holds an integer too long for Python's default limit on int/str conversion
(4,300 digits), which keeps the rational form. Allocation files are
``{"bundles": [[1, 3], [2], []]}``; a bundle lists each good once.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from json.encoder import encode_basestring_ascii as _quote
from math import gcd, lcm
from typing import (Collection, Iterable, Iterator, Mapping, NamedTuple,
                    Sequence)

from .errors import ParseError, ValidationError

ADDITIVE = "additive"
EXPLICIT = "explicit"

# Explicit tables are exponential in m.
EXPLICIT_GOODS_CAP = 20

ZERO = Fraction(0)

_RATIONAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def _parse_ratio(text) -> tuple[int, int]:
    """The integers (p, q) of a "p/q" or plain integer string, or of a JSON
    integer: q > 0, the pair not necessarily in lowest terms."""
    match = _RATIONAL.fullmatch(str(text))
    if match is None:
        raise ParseError(f"not a rational: {text!r} (expected p/q or an "
                         "integer)")
    num, den = match.groups()
    try:
        p, q = int(num), 1 if den is None else int(den)
    except ValueError:      # more digits than int() converts
        raise ParseError(f"not a rational: {str(text)[:20]!r}... has more "
                         "digits than an integer may have") from None
    if q == 0:
        raise ParseError(f"not a rational: {text!r} (zero denominator)")
    return p, q


def parse_rational(text: str) -> Fraction:
    """Parse a "p/q" or plain integer string (or a JSON integer) into an
    exact Fraction."""
    return Fraction(*_parse_ratio(text))


def format_rational(value: Fraction) -> str:
    return str(Fraction(value))


def format_decimal(value: Fraction) -> str:
    """6-significant-digit decimal, for display beside the exact rational."""
    return f"{float(value):.6g}"


def is_json_int(value) -> bool:
    """True for a JSON integer; bools are ints in Python but not in JSON."""
    return isinstance(value, int) and not isinstance(value, bool)


def exact_rational(value, name: str) -> Fraction:
    """`value`, a Fraction or an integer, as a Fraction. Anything else, a
    float or a bool included, is no exact rational a caller means: a
    ValidationError naming the argument."""
    if isinstance(value, Fraction) or is_json_int(value):
        return Fraction(value)
    raise ValidationError(name, f"{name} must be a Fraction or an integer, "
                                f"got {value!r}")


def good_set(goods: Iterable[int], m: int) -> frozenset[int]:
    """`goods` as a set; ValueError, naming the first in input order that is
    not a good within 0..m-1, unless each is one."""
    try:
        items = list(goods)
    except TypeError:           # no iterable at all
        raise ValueError(f"goods {goods!r} not within 0..{m - 1}") from None
    for g in items:             # checked before hashing
        if not (is_json_int(g) and 0 <= g < m):
            raise ValueError(f"good {g!r} not within 0..{m - 1}")
    return frozenset(items)


def agent_set(agents: Iterable[int], n: int) -> list[int]:
    """`agents` in ascending order; ValueError unless they are one or more
    distinct agents within 0..n-1."""
    scope = list(agents)
    if not (scope and all(is_json_int(i) and 0 <= i < n for i in scope)
            and len(set(scope)) == len(scope)):
        raise ValueError(f"agent scope {scope} must be one or more distinct "
                         f"agents within 0..{n - 1}")
    return sorted(scope)


def goods_mask(goods: Iterable[int]) -> int:
    """Bitmask with bit g set for every good g."""
    mask = 0
    for g in goods:
        mask |= 1 << g
    return mask


def bits(mask: int) -> Iterator[int]:
    """The indices of the bits set in `mask`, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_goods(mask: int) -> frozenset[int]:
    """The goods whose bits are set in `mask`."""
    return frozenset(bits(mask))


def _ext(goods: Iterable[int]) -> tuple[int, ...]:
    """Sorted 1-based rendering of an internal good set, for messages."""
    return tuple(sorted(g + 1 for g in goods))


def check_explicit_goods_cap(m: int) -> None:
    """Refuse an explicit table over more than EXPLICIT_GOODS_CAP goods."""
    if m > EXPLICIT_GOODS_CAP:
        raise ValidationError(
            "explicit-goods-cap",
            f"explicit valuation over {m} goods exceeds the cap of "
            f"{EXPLICIT_GOODS_CAP} (table size is 2^m)")


def _kernel(ratios: Collection[tuple[int, int]]) -> tuple[list[int], int]:
    """Integers over one denominator for (p, q) pairs with q > 0: `den` is
    the lcm of the q's, not yet reduced."""
    den = lcm(*(q for _, q in ratios))
    return [p * (den // q) for p, q in ratios], den


def _as_ratio(x) -> tuple[int, int]:
    """A constructor's input value as (p, q), q > 0. Floats and bools are
    refused: neither is an exact rational a caller means."""
    if isinstance(x, str):
        return _parse_ratio(x)
    if isinstance(x, Fraction) or is_json_int(x):
        return x.numerator, x.denominator
    raise ValueError(f"valuation values must be Fractions, integers or "
                     f"p/q strings, got {x!r}")


@dataclass(frozen=True)
class Valuation:
    """One agent's valuation, additive (per-good values) or an explicit
    table over all 2^m subsets, stored as its integer kernel: the values
    times `den`, the lcm of their reduced denominators. `kernel` holds one
    integer per good (additive) or one per subset, indexed by bitmask
    (explicit)."""

    kind: str
    m: int
    kernel: tuple[int, ...]
    den: int
    subadditive: bool = False

    @staticmethod
    def from_ints(kind: str, m: int, ints: Sequence[int], den: int,
                  subadditive: bool = False) -> "Valuation":
        """The valuation worth `ints[k] / den`, den > 0, at good k (additive)
        or at the subset with bitmask k (explicit): the one constructor that
        takes integers. It divides by gcd(den, *ints). No other common
        denominator of the same values has that gcd 1, so the kernel is the
        least one, the same for every way of writing the values."""
        common = gcd(den, *ints)
        if common > 1:
            den //= common
            ints = [x // common for x in ints]
        return Valuation(kind, m, tuple(ints), den, subadditive)

    @staticmethod
    def additive(values: Sequence[Fraction]) -> "Valuation":
        return _additive([_as_ratio(x) for x in values])

    @staticmethod
    def explicit(m: int, table: Mapping[frozenset[int], Fraction],
                 subadditive: bool = False) -> "Valuation":
        return _explicit(m, {goods_mask(s): _as_ratio(x)
                             for s, x in table.items()}, subadditive)

    @cached_property
    def values(self) -> tuple[Fraction, ...] | None:
        """An additive agent's per-good values; None for explicit agents."""
        if self.kind != ADDITIVE:
            return None
        return tuple(Fraction(x, self.den) for x in self.kernel)

    @cached_property
    def table(self) -> dict[frozenset[int], Fraction] | None:
        """An explicit agent's table in ascending bitmask order; None for
        additive agents."""
        if self.kind != EXPLICIT:
            return None
        return {mask_goods(mask): Fraction(x, self.den)
                for mask, x in enumerate(self.kernel)}

    @property
    def singles(self) -> Sequence[int]:
        """Each good's integer on its own: the kernel itself (additive), or
        the table at each one-good mask (explicit)."""
        if self.kind == ADDITIVE:
            return self.kernel
        return [self.kernel[1 << g] for g in range(self.m)]

    def ints_of(self, goods: Collection[int]) -> int:
        """The kernel integer of a set of goods, unchecked: the sum of its
        goods' integers (additive) or the table at its bitmask (explicit)."""
        if self.kind == ADDITIVE:
            if len(goods) == self.m:    # m distinct goods are all of them
                return sum(self.kernel)
            return sum(map(self.kernel.__getitem__, goods))
        return self.kernel[goods_mask(goods)]

    def value(self, goods: Iterable[int]) -> Fraction:
        return Fraction(self.ints_of(good_set(goods, self.m)), self.den)


def _additive(ratios: Collection[tuple[int, int]]) -> Valuation:
    """An additive valuation from each good's (p, q)."""
    ints, den = _kernel(ratios)
    return Valuation.from_ints(ADDITIVE, len(ints), ints, den)


def _explicit(m: int, entries: dict[int, tuple[int, int]],
              subadditive: bool) -> Valuation:
    """An explicit valuation from each subset's (p, q), keyed by bitmask;
    the empty set defaults to 0."""
    check_explicit_goods_cap(m)
    entries.setdefault(0, (0, 1))
    missing = [mask for mask in range(1 << m) if mask not in entries]
    if missing:
        raise ParseError(
            f"explicit table misses subset {_ext(mask_goods(missing[0]))} "
            f"({len(missing)} of {1 << m} subsets absent)")
    if len(entries) > 1 << m:
        raise ParseError(f"explicit table has keys outside goods 1..{m}")
    ints, den = _kernel(entries.values())
    kernel = [0] * (1 << m)
    for mask, x in zip(entries, ints):
        kernel[mask] = x
    return Valuation.from_ints(EXPLICIT, m, kernel, den, subadditive)


def ints_with(valuation: Valuation, x: Fraction) -> tuple[Sequence[int], int]:
    """The agent's kernel and `x` over the lcm of their denominators."""
    scale = lcm(valuation.den, x.denominator)
    factor = scale // valuation.den
    return (tuple([y * factor for y in valuation.kernel]),
            x.numerator * (scale // x.denominator))


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

    @property
    def subadditive(self) -> bool:
        """Every agent is additive or an explicit table flagged subadditive."""
        return all(v.kind == ADDITIVE or v.subadditive
                   for v in self.valuations)

    def total_value(self, agent: int) -> Fraction:
        return self.valuations[agent].value(range(self.m))

    @cached_property
    def scale(self) -> int:
        """The lcm of the agents' denominators."""
        return lcm(*(v.den for v in self.valuations))

    @cached_property
    def factors(self) -> tuple[int, ...]:
        """Each agent's multiplier `scale // den` to the common scale."""
        return tuple([self.scale // v.den for v in self.valuations])

    def rows(self, common: bool = False) -> tuple[list, list]:
        """`(weights, tables)`: each agent's kernel, over `scale` if
        `common`, as additive per-good weights or as an explicit bitmask
        table, None in the other list."""
        weights, tables = [], []
        for v, factor in zip(self.valuations, self.factors):
            row = (tuple([x * factor for x in v.kernel])
                   if common and factor > 1 else v.kernel)
            additive = v.kind == ADDITIVE
            weights.append(row if additive else None)
            tables.append(None if additive else row)
        return weights, tables

    def require_monotone(self) -> None:
        """`check_monotone` on every agent in order. A pass is remembered; a
        failure is not, so each call raises the same first error."""
        if "_monotone" not in self.__dict__:
            for i, v in enumerate(self.valuations):
                check_monotone(v, i)
            self.__dict__["_monotone"] = True


@dataclass(frozen=True)
class Allocation:
    """A partition (possibly partial) of the goods into per-agent bundles."""

    bundles: tuple[frozenset[int], ...]

    @staticmethod
    def of(bundles: Iterable[Iterable[int]]) -> "Allocation":
        return Allocation(tuple(frozenset(b) for b in bundles))

    @classmethod
    def from_masks(cls, masks: Iterable[int]) -> "Allocation":
        """The allocation whose bundles are the goods of `masks`."""
        return cls(tuple(map(mask_goods, masks)))

    @property
    def masks(self) -> list[int]:
        """Each bundle's bitmask, in a new list on every read."""
        return [goods_mask(b) for b in self.bundles]

    def allocated(self) -> frozenset[int]:
        out: frozenset[int] = frozenset()
        for b in self.bundles:
            out |= b
        return out

    def is_complete(self, m: int) -> bool:
        return self.allocated() == frozenset(range(m))


def owners(masks: Sequence[int], m: int) -> list[int]:
    """Each good's agent among disjoint bundle bitmasks, `len(masks)` for a
    good in none of them."""
    owner = [len(masks)] * m
    for j, mask in enumerate(masks):
        for g in bits(mask):
            owner[g] = j
    return owner


class Event(NamedTuple):
    """One step of a solver run: its phase, the 0-based agent it moved, that
    agent's bundle after the step (sorted 0-based goods), and the phase's
    label, "" where the phase has none."""

    phase: str
    agent: int
    goods: tuple[int, ...]
    label: str

    def to_json(self) -> dict:
        """The event with 1-based agent and goods."""
        return {"phase": self.phase, "agent": self.agent + 1,
                "bundle": [g + 1 for g in self.goods], "label": self.label}


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
    ints, den = v.kernel, v.den
    label = f"agent {agent + 1}"
    if v.kind == ADDITIVE:
        if min(ints, default=0) >= 0:
            return
        for g, x in enumerate(ints):
            if x < 0:
                raise ValidationError(
                    "nonnegative",
                    f"{label}: v({g + 1}) = {Fraction(x, den)} < 0",
                    agent=agent + 1, witness=(g + 1,))
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
    """Raise ValidationError naming the failing axiom, agent and witness.
    The kernel's shape comes first: a known kind, a positive int `den`, m
    (additive) or 2^m (explicit) entries, and int entries."""
    label = f"agent {agent + 1}"
    kind, ints, den = v.kind, v.kernel, v.den
    if kind not in (ADDITIVE, EXPLICIT):
        raise ValidationError("kind", f"{label}: unknown valuation kind "
                              f"{kind!r}", agent=agent + 1)
    if not (type(den) is int and den > 0):
        raise ValidationError("den", f"{label}: den must be a positive int, "
                              f"got {den!r}", agent=agent + 1)
    if kind == EXPLICIT:
        check_explicit_goods_cap(v.m)
    size = v.m if kind == ADDITIVE else 1 << v.m
    if len(ints) != size:
        raise ValidationError(
            "value-count", f"{label}: expected {size} values, got "
            f"{len(ints)}", agent=agent + 1)
    if not {int}.issuperset(map(type, ints)):
        bad = next(x for x in ints if type(x) is not int)
        raise ValidationError("integer", f"{label}: kernel entry {bad!r} is "
                              "not an int", agent=agent + 1)
    if kind == ADDITIVE:
        check_monotone(v, agent)
        return

    if ints[0] != 0:
        raise ValidationError(
            "normalized", f"{label}: not normalized, v({{}}) = "
            f"{Fraction(ints[0], den)} != 0", agent=agent + 1, witness=())
    if min(ints) < 0:
        # The first negative value by bitmask.
        mask = next(mask for mask, x in enumerate(ints) if x < 0)
        subset = _ext(mask_goods(mask))
        raise ValidationError(
            "nonnegative", f"{label}: v({subset}) = "
            f"{Fraction(ints[mask], den)} < 0", agent=agent + 1,
            witness=subset)
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
            total = v.ints_of(range(v.m))
            if total != v.den:
                raise ValidationError(
                    "scaled", f"scaled-flag mismatch: agent {i + 1} has "
                    f"v([m]) = {Fraction(total, v.den)} != 1", agent=i + 1)


def _parse_subset_key(key: str, m: int) -> int:
    """The bitmask of a subset key: comma-joined goods in ASCII digits."""
    if key == "":
        return 0
    parts = key.split(",")
    if not all(part.isascii() and part.isdigit() for part in parts):
        raise ParseError(f"bad subset key {key!r}")
    try:
        goods = [int(part) for part in parts]
    except ValueError:      # more digits than int() converts
        raise ParseError(f"bad subset key {key[:20]!r}...") from None
    if any(not 1 <= g <= m for g in goods):
        raise ParseError(f"subset key {key!r} outside goods 1..{m}")
    if len(set(goods)) != len(goods):
        raise ParseError(f"subset key {key!r} repeats a good")
    return goods_mask(g - 1 for g in goods)


def _subset_key(subset: frozenset[int]) -> str:
    return ",".join(str(g + 1) for g in sorted(subset))


def _valuation_from_json(obj, m: int, agent: int) -> Valuation:
    label = f"agent {agent + 1}"
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ParseError(f"{label}: valuation must be an object with a "
                         "'kind'")
    kind = obj["kind"]
    den = obj.get("den")
    # `type(x) is int` refuses bools, which Python counts as ints.
    if "den" in obj and not (type(den) is int and den > 0):
        raise ParseError(f"{label}: den must be a positive JSON integer, "
                         f"got {den!r}")
    if kind == ADDITIVE:
        vals = obj.get("values")
        if not isinstance(vals, list) or len(vals) != m:
            raise ParseError(
                f"{label}: additive valuation needs exactly {m} values")
        if den is None:
            return _additive([_parse_ratio(v) for v in vals])
        if not {int}.issuperset(map(type, vals)):
            raise ParseError(f"{label}: with den, values must be JSON "
                             "integers")
        return Valuation.from_ints(ADDITIVE, m, vals, den)
    if kind == EXPLICIT:
        # Before any key becomes a bitmask of up to m bits.
        check_explicit_goods_cap(m)
        table_json = obj.get("table")
        if not isinstance(table_json, dict):
            raise ParseError(f"{label}: explicit valuation needs a table")
        subadditive = obj.get("subadditive", False)
        if not isinstance(subadditive, bool):
            raise ParseError(f"{label}: subadditive must be true or "
                             f"false, got {subadditive!r}")
        if den is not None and not {int}.issuperset(
                map(type, table_json.values())):
            raise ParseError(f"{label}: with den, table values must be JSON "
                             "integers")
        keys: dict[int, str] = {}
        entries = {}
        for key, x in table_json.items():
            mask = _parse_subset_key(key, m)
            if mask in keys:
                raise ParseError(f"{label}: subset keys {keys[mask]!r} and "
                                 f"{key!r} name the same subset")
            keys[mask] = key
            entries[mask] = _parse_ratio(x) if den is None else (x, den)
        return _explicit(m, entries, subadditive)
    raise ParseError(f"{label}: unknown valuation kind {kind!r}")


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
    if m < 0:
        raise ParseError(f"m must be at least 0, got {m}")
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


# Python refuses to convert an int of more than 4,300 decimal digits to or
# from a string by default; an integer of at most this many bits has fewer.
_JSON_INT_BITS = 14_000


def _valuation_to_json(v: Valuation) -> dict:
    """The agent's kernel form, or its rational form if the kernel holds an
    integer too long for a JSON reader with Python's default limit."""
    out = {"kind": v.kind}
    if v.kind == EXPLICIT:
        out["subadditive"] = v.subadditive
    if max([v.den, *map(abs, v.kernel)]).bit_length() <= _JSON_INT_BITS:
        out["den"] = v.den
        values = v.kernel
    else:
        values = [format_rational(Fraction(x, v.den)) for x in v.kernel]
    if v.kind == ADDITIVE:
        out["values"] = list(values)
    else:
        out["table"] = {_subset_key(mask_goods(mask)): x
                        for mask, x in enumerate(values) if mask}
    return out


def instance_to_json(inst: Instance) -> dict:
    return {"n": inst.n, "m": inst.m, "scaled": inst.scaled,
            "valuations": [_valuation_to_json(v) for v in inst.valuations]}


def _members(pairs: list) -> dict:
    """A JSON object's members; a name given twice is a ParseError, since
    `json` would otherwise keep the last and drop the first unseen."""
    out = {}
    for name, value in pairs:
        if name in out:
            raise ParseError(f"member name {name!r} repeated in one object")
        out[name] = value
    return out


def read_json(path):
    """A UTF-8 JSON file's document; ParseError if unreadable, not JSON, or
    an object repeats a member name."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh, object_pairs_hook=_members)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    except ValueError as exc:   # bad JSON or UTF-8, or an over-long integer
        raise ParseError(f"{path}: invalid JSON: {exc}") from None
    except ParseError as exc:   # a repeated member name
        raise ParseError(f"{path}: {exc}") from None


def json_text(data) -> str:
    """`data` as indented JSON with sorted keys and a final newline: the
    bytes of `json.dumps(data, indent=2, sort_keys=True)`, whose `indent`
    forces the pure-Python encoder, rendered by a direct walk."""
    return _render(data, "") + "\n"


def _render(obj, indent: str) -> str:
    """`obj` as `json.dumps(indent=2, sort_keys=True)` renders it nested at
    `indent`. Strings, ints, bools, None, lists, tuples and dicts with str
    keys are rendered here, strings by the C escaper `json.dumps` uses and a
    list of ints in one join; anything else (floats, subclasses, other keys,
    unserializable objects) renders, or fails, through `json.dumps` itself,
    re-indented: JSON text holds no raw newline inside a string."""
    kind = type(obj)
    if kind is str:
        return _quote(obj)
    if kind is int:
        return int.__repr__(obj)
    inner = indent + "  "
    if kind is list or kind is tuple:
        if not obj:
            return "[]"
        items = (map(int.__repr__, obj) if all(type(x) is int for x in obj)
                 else [_render(x, inner) for x in obj])
        return f"[\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}]"
    if kind is dict and all(type(key) is str for key in obj):
        if not obj:
            return "{}"
        return f"{{\n{inner}" + f",\n{inner}".join(
            f"{_quote(key)}: {_render(value, inner)}"
            for key, value in sorted(obj.items())) + f"\n{indent}}}"
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    return json.dumps(obj, indent=2, sort_keys=True).replace("\n",
                                                             "\n" + indent)


def write_json(data, path) -> None:
    """Write `data` as `json_text` renders it."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json_text(data))


def load_instance(path) -> Instance:
    """Load and fully validate an instance file."""
    return instance_from_json(read_json(path))


def save_instance(inst: Instance, path) -> None:
    write_json(instance_to_json(inst), path)


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
        bundle = frozenset(goods)
        if len(bundle) != len(goods):
            raise ParseError(f"bundle {b!r} lists a good more than once")
        bundles.append(bundle)
    return Allocation(tuple(bundles))


def allocation_to_json(alloc: Allocation) -> dict:
    return {"bundles": [[g + 1 for g in sorted(b)] for b in alloc.bundles]}


def load_allocation(path) -> Allocation:
    return allocation_from_json(read_json(path))


def save_allocation(alloc: Allocation, path) -> None:
    write_json(allocation_to_json(alloc), path)


def rescale_instance(inst: Instance) -> Instance:
    """Divide each agent's additive values by her full-set value so the
    result is scaled. Rescaling is always explicit, never silent: the loader
    only verifies the scaled flag, it does not normalize. The input is
    validated first, so a negative value raises the loader's error with its
    witness rather than a sign-flipped "scaled" agent."""
    if not inst.additive:
        raise ValidationError("rescale", "only additive instances can be rescaled")
    validate_instance(inst)
    new_vals = []
    for i, v in enumerate(inst.valuations):
        total = sum(v.kernel)
        if total == 0:
            raise ValidationError(
                "rescale", f"agent {i + 1} values every good at 0; cannot scale",
                agent=i + 1)
        new_vals.append(Valuation.from_ints(ADDITIVE, v.m, v.kernel, total))
    return Instance(n=inst.n, m=inst.m, valuations=tuple(new_vals), scaled=True)
