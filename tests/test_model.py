"""Core model: parsing, validation, queries, round-trips."""

import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairdiv import (Allocation, Instance, ParseError, ValidationError,
                     Valuation, load_allocation, load_instance,
                     rescale_instance, save_allocation, save_instance,
                     validate_instance, value_query)
from fairdiv.model import parse_rational

from conftest import additive_instance, naive_validate_valuation


def write(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return path


SYMMETRIC = {
    "n": 2, "m": 2, "scaled": True,
    "valuations": [
        {"kind": "additive", "values": ["1/2", "1/2"]},
        {"kind": "additive", "values": ["1/2", "1/2"]},
    ],
}


class TestLoadInstance:
    def test_symmetric_scaled(self, tmp_path):
        inst = load_instance(write(tmp_path, "i.json", SYMMETRIC))
        assert inst.n == 2 and inst.m == 2 and inst.scaled
        assert inst.valuations[0].values == (Fraction(1, 2), Fraction(1, 2))

    def test_not_normalized(self, tmp_path):
        data = {"n": 1, "m": 1, "scaled": False,
                "valuations": [{"kind": "explicit", "subadditive": False,
                                "table": {"": "1/3", "1": "1/2"}}]}
        with pytest.raises(ValidationError) as err:
            load_instance(write(tmp_path, "i.json", data))
        assert err.value.axiom == "normalized"

    def test_subadditive_violation_names_witness(self, tmp_path):
        # v({1,2}) > v({1}) + v({2}) while flagged subadditive.
        data = {"n": 1, "m": 3, "scaled": False,
                "valuations": [{"kind": "explicit", "subadditive": True,
                                "table": {"1": "1/10", "2": "1/10", "3": "1/10",
                                          "1,2": "1/2", "1,3": "1/5",
                                          "2,3": "1/5", "1,2,3": "3/5"}}]}
        with pytest.raises(ValidationError) as err:
            load_instance(write(tmp_path, "i.json", data))
        assert err.value.axiom == "subadditive"
        assert err.value.agent == 1
        assert ((1,), (2,)) == err.value.witness or \
            set(err.value.witness) <= {(1,), (2,)}

    def test_monotonicity_violation(self, tmp_path):
        data = {"n": 1, "m": 2, "scaled": False,
                "valuations": [{"kind": "explicit",
                                "table": {"1": "1/2", "2": "1/4",
                                          "1,2": "1/3"}}]}
        with pytest.raises(ValidationError) as err:
            load_instance(write(tmp_path, "i.json", data))
        assert err.value.axiom == "monotone"

    def test_scaled_flag_mismatch(self, tmp_path):
        data = {"n": 1, "m": 2, "scaled": True,
                "valuations": [{"kind": "additive", "values": ["1/2", "1/4"]}]}
        with pytest.raises(ValidationError) as err:
            load_instance(write(tmp_path, "i.json", data))
        assert err.value.axiom == "scaled"

    def test_parse_error_on_garbage(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(ParseError):
            load_instance(path)

    def test_missing_table_entry(self, tmp_path):
        data = {"n": 1, "m": 2, "scaled": False,
                "valuations": [{"kind": "explicit",
                                "table": {"1": "1/2", "2": "1/4"}}]}
        with pytest.raises(ParseError):
            load_instance(write(tmp_path, "i.json", data))

    def test_negative_value_rejected(self, tmp_path):
        data = {"n": 1, "m": 1, "scaled": False,
                "valuations": [{"kind": "additive", "values": ["-1/2"]}]}
        with pytest.raises(ValidationError) as err:
            load_instance(write(tmp_path, "i.json", data))
        assert err.value.axiom == "nonnegative"


ONE_AGENT = {"n": 1, "m": 1, "scaled": True,
             "valuations": [{"kind": "additive", "values": ["1"]}]}


def not_subadditive(**flag):
    """One agent, v({1}) = v({2}) = 1/10 and v({1,2}) = 1: a valid table
    that is not subadditive."""
    return {"n": 1, "m": 2, "scaled": True,
            "valuations": [dict(kind="explicit", **flag,
                                table={"1": "1/10", "2": "1/10",
                                       "1,2": "1"})]}


@pytest.mark.parametrize("loader, data", [
    (load_instance, dict(SYMMETRIC, n=2.0)),
    (load_instance, dict(SYMMETRIC, n="2")),
    (load_instance, dict(SYMMETRIC, m=2.9)),
    (load_instance, dict(ONE_AGENT, n=True)),
    (load_instance, dict(ONE_AGENT, m=True)),
    (load_instance, dict(SYMMETRIC, scaled="false")),
    (load_instance, dict(SYMMETRIC, scaled=1)),
    (load_allocation, {"bundles": [[True]]}),
    (load_allocation, {"bundles": [[2], [True]]}),
    (load_allocation, {"bundles": 5}),
    (load_allocation, {"bundles": "12"}),
    (load_allocation, {"bundles": [[1], 2]}),
    (load_instance, not_subadditive(subadditive="false")),
    (load_instance, not_subadditive(subadditive=0)),
], ids=["n-float", "n-string", "m-float", "n-bool", "m-bool",
        "scaled-string", "scaled-int", "good-bool", "second-good-bool",
        "bundles-int", "bundles-string", "bundle-int", "subadditive-string",
        "subadditive-int"])
def test_loader_rejects_wrong_json_types(tmp_path, loader, data):
    with pytest.raises(ParseError):
        loader(write(tmp_path, "f.json", data))


@pytest.mark.parametrize("flag", [{}, {"subadditive": False}])
def test_subadditive_absent_or_false_loads(tmp_path, flag):
    inst = load_instance(write(tmp_path, "i.json", not_subadditive(**flag)))
    assert not inst.valuations[0].subadditive
    assert value_query(inst.valuations[0], {0, 1}) == 1


def one_value(value, kind):
    """One agent and one good worth `value`, in an unscaled file."""
    if kind == "additive":
        valuation = {"kind": "additive", "values": [value]}
    else:
        valuation = {"kind": "explicit", "table": {"1": value}}
    return {"n": 1, "m": 1, "scaled": False, "valuations": [valuation]}


NON_STRICT_RATIONALS = ["1e400", "0.5", "+3", "1_000", " 1/2 ", "1/2\n",
                        "1/-2", "--1", "1//2", "", "\u00bd", "\u0663", "1/0",
                        0.5, True, None]


@pytest.mark.parametrize("kind", ["additive", "explicit"])
@pytest.mark.parametrize("text", NON_STRICT_RATIONALS,
                         ids=[repr(t) for t in NON_STRICT_RATIONALS])
def test_loader_rejects_non_strict_rationals(tmp_path, text, kind):
    with pytest.raises(ParseError):
        load_instance(write(tmp_path, "i.json", one_value(text, kind)))


@pytest.mark.parametrize("text, value", [
    ("3", 3), ("0", 0), ("-0", 0), ("2/4", Fraction(1, 2)), ("007", 7),
    ("0/5", 0), (3, 3),
])
def test_loader_accepts_strict_rationals(tmp_path, text, value):
    inst = load_instance(write(tmp_path, "i.json",
                               one_value(text, "additive")))
    assert inst.valuations[0].values == (value,)


def test_parse_rational_negative():
    # Negative values parse; validation, not parsing, rejects them.
    assert parse_rational("-2/4") == Fraction(-1, 2)
    assert parse_rational(-3) == -3


class TestRoundTrip:
    def test_additive(self, tmp_path):
        inst = additive_instance([["1/2", "1/3"], ["2/5", "1/7"]])
        path = tmp_path / "rt.json"
        save_instance(inst, path)
        assert load_instance(path) == inst

    def test_explicit(self, tmp_path):
        table = {frozenset(): Fraction(0), frozenset({0}): Fraction(1, 3),
                 frozenset({1}): Fraction(1, 3),
                 frozenset({0, 1}): Fraction(1, 2)}
        inst = Instance(1, 2, (Valuation.explicit(2, table, subadditive=True),),
                        scaled=False)
        path = tmp_path / "rt.json"
        save_instance(inst, path)
        assert load_instance(path) == inst

    def test_allocation(self, tmp_path):
        alloc = Allocation.of([[0, 2], [1], []])
        path = tmp_path / "a.json"
        save_allocation(alloc, path)
        assert load_allocation(path) == alloc


class TestValueQuery:
    def test_full_set(self):
        v = Valuation.additive([Fraction(1, 4), Fraction(3, 4)])
        assert value_query(v, {0, 1}) == 1

    def test_empty_set_is_zero(self):
        v = Valuation.additive([Fraction(1, 4), Fraction(3, 4)])
        assert value_query(v, set()) == 0
        table = {frozenset(): Fraction(0), frozenset({0}): Fraction(1)}
        assert value_query(Valuation.explicit(1, table), set()) == 0

    def test_high_agent_single_good(self):
        # Agent valuing every good at n sees a single good at n.
        v = Valuation.additive([Fraction(3)] * 3)
        assert value_query(v, {1}) == 3

    @given(st.integers(1, 5), st.data())
    @settings(max_examples=60, deadline=None)
    def test_monotone_under_inclusion(self, m, data):
        values = data.draw(st.lists(
            st.fractions(min_value=0, max_value=2, max_denominator=20),
            min_size=m, max_size=m))
        v = Valuation.additive(values)
        inner = data.draw(st.sets(st.integers(0, m - 1)))
        extra = data.draw(st.sets(st.integers(0, m - 1)))
        assert value_query(v, inner) <= value_query(v, inner | extra)


class TestRescale:
    def test_rescaled_instance_validates(self):
        inst = additive_instance([["1", "3"], ["2", "2"]])
        scaled = rescale_instance(inst)
        validate_instance(scaled)
        assert scaled.scaled
        assert scaled.valuations[0].values == (Fraction(1, 4), Fraction(3, 4))

    def test_zero_total_rejected(self):
        inst = additive_instance([["0", "0"]])
        with pytest.raises(ValidationError):
            rescale_instance(inst)


def test_explicit_goods_cap():
    with pytest.raises(ValidationError):
        Valuation.explicit(21, {})


def test_explicit_table_rejects_goods_outside_range():
    # Validation reads the bitmask kernel, which has no slot for good 2 here.
    table = {frozenset({0}): Fraction(1), frozenset({2}): Fraction(1)}
    with pytest.raises(ParseError, match="outside goods 1..1"):
        Valuation.explicit(1, table)


def random_table(rng, m):
    """A seeded explicit table that may break any axiom. Values are built
    up by bitmask: either a draw from a small alphabet times |S| (often
    superadditive) or the best one-smaller subset plus a draw (monotone),
    capped at a budget in some tables (then subadditive); a few entries
    are then overwritten, possibly with negatives. Keys come in shuffled
    order and the empty-set key is sometimes omitted."""
    alphabet = [Fraction(x) for x in rng.choice(
        [(0, 1, 2), (0, "1/2", 1, 3), ("1/3", "2/5", 1), (1,)])]
    budget = rng.choice([None, Fraction(rng.randint(1, 4), 2)])
    grow = rng.random() < 0.6
    values = [Fraction(0)] * (1 << m)
    for mask in range(1, 1 << m):
        if grow:
            below = max(values[mask & ~(1 << g)] for g in range(m)
                        if mask >> g & 1)
            x = below + rng.choice(alphabet)
        else:
            x = rng.choice(alphabet) * mask.bit_count()
        values[mask] = x if budget is None else min(x, budget)
    for _ in range(rng.choice([0, 0, 1, 2])):
        values[rng.randrange(1 << m)] = Fraction(rng.randint(-1, 4), 2)
    keys = list(range(1 << m))
    rng.shuffle(keys)
    table = {frozenset(g for g in range(m) if mask >> g & 1): values[mask]
             for mask in keys if mask or values[0] or rng.random() < 0.5}
    return Valuation.explicit(m, table, subadditive=rng.random() < 0.8)


def test_validation_matches_fraction_reference():
    """Integer validation against the `Fraction` scan of all pairs: the
    whole error (axiom, agent, witness, message) or none, agent 2 explicit
    behind an additive agent 1 that may hold a negative value."""
    rng = random.Random(20261018)
    axioms = []
    for _ in range(1500):
        m = rng.randint(0, 5)
        additive = Valuation.additive(
            [Fraction(rng.choice([0, 0, 1, 2, -1]), 2) for _ in range(m)])
        inst = Instance(n=2, m=m, valuations=(additive, random_table(rng, m)))
        try:
            for i, v in enumerate(inst.valuations):
                naive_validate_valuation(v, i)
        except ValidationError as exc:
            with pytest.raises(ValidationError) as err:
                validate_instance(inst)
            got, want = err.value, exc
            assert (got.axiom, got.agent, got.witness, str(got)) == \
                (want.axiom, want.agent, want.witness, str(want))
            axioms.append(want.axiom)
        else:
            validate_instance(inst)
            axioms.append(None)
    for axiom in (None, "nonnegative", "normalized", "monotone",
                  "subadditive"):
        assert axioms.count(axiom) >= 50, axiom


def test_scaled_flag_on_the_kernel():
    table = {frozenset(): Fraction(0), frozenset({0}): Fraction(1, 3),
             frozenset({1}): Fraction(1, 2), frozenset({0, 1}): Fraction(2, 3)}
    explicit = Valuation.explicit(2, table)
    halves = Valuation.additive([Fraction(1, 2), Fraction(1, 2)])
    with pytest.raises(ValidationError) as err:
        validate_instance(Instance(2, 2, (halves, explicit), scaled=True))
    assert (err.value.axiom, err.value.agent, str(err.value)) == (
        "scaled", 2, "scaled-flag mismatch: agent 2 has v([m]) = 2/3 != 1")
    table[frozenset({0, 1})] = Fraction(1)
    validate_instance(Instance(2, 2, (halves, Valuation.explicit(2, table)),
                               scaled=True))
