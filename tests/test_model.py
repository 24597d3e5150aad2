"""Core model: parsing, validation, queries, round-trips."""

import json
import random
import re
from collections import Counter
from fractions import Fraction
from math import gcd, lcm
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairdiv import (ADVERSARIAL_FAMILIES, Allocation, Event, FamilySpec,
                     Instance, ParseError, ValidationError, Valuation,
                     generate_adversarial, generate_random,
                     generate_random_subadditive, load_allocation,
                     load_instance, rescale_instance, run_solve_half_mms,
                     save_allocation, save_instance, validate_instance)
import fairdiv.model
from fairdiv.experiment import load_config
from fairdiv.model import bits, good_set, parse_rational

from conftest import (additive_instance, naive_kernel, naive_load_instance,
                      naive_validate_valuation, random_additive_corpus,
                      random_subadditive_corpus, tie_corpus, twin_corpus)


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

    @pytest.mark.parametrize("loader", [load_instance, load_allocation,
                                        load_config])
    def test_parse_error_on_undecodable_bytes(self, tmp_path, loader):
        # A UTF-16 byte order mark is not UTF-8, whatever the locale.
        path = tmp_path / "bad.json"
        path.write_bytes(b"\xff\xfe{}")
        with pytest.raises(ParseError, match="invalid JSON"):
            loader(path)

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

    def test_negative_witness_follows_bitmask_order(self, tmp_path):
        # The file lists good 2 before good 1; the witness is the first
        # negative subset by bitmask, whatever the key order.
        data = {"n": 1, "m": 2, "scaled": False,
                "valuations": [{"kind": "explicit", "table": {
                    "2": "-1", "1": "-1", "1,2": "1"}}]}
        with pytest.raises(ValidationError) as err:
            load_instance(write(tmp_path, "i.json", data))
        assert (err.value.axiom, err.value.witness) == ("nonnegative", (1,))
        assert str(err.value) == "agent 1: v((1,)) = -1 < 0"


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
    (load_instance, dict(ONE_AGENT, m=-1)),
    (load_instance, dict(ONE_AGENT, m=-1, valuations=[
        {"kind": "explicit", "table": {}}])),
], ids=["n-float", "n-string", "m-float", "n-bool", "m-bool",
        "scaled-string", "scaled-int", "good-bool", "second-good-bool",
        "bundles-int", "bundles-string", "bundle-int", "subadditive-string",
        "subadditive-int", "m-negative-additive", "m-negative-explicit"])
def test_loader_rejects_wrong_json_types(tmp_path, loader, data):
    with pytest.raises(ParseError):
        loader(write(tmp_path, "f.json", data))


@pytest.mark.parametrize("flag", [{}, {"subadditive": False}])
def test_subadditive_absent_or_false_loads(tmp_path, flag):
    inst = load_instance(write(tmp_path, "i.json", not_subadditive(**flag)))
    assert not inst.valuations[0].subadditive
    assert inst.valuations[0].value({0, 1}) == 1


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
    inst = load_instance(write(tmp_path, "e.json",
                               one_value(text, "explicit")))
    assert inst.valuations[0].table[frozenset({0})] == value


@pytest.mark.parametrize("kind", ["additive", "explicit"])
@pytest.mark.parametrize("text", ["1" + "0" * 5000, "1/" + "1" * 5000,
                                  "-" + "7" * 4301 + "/3"],
                         ids=["numerator", "denominator", "negative"])
def test_loader_rejects_over_long_numbers(tmp_path, text, kind):
    # Python refuses int() on more than 4300 digits; that is a ParseError
    # here, with a message that quotes only the start of the number.
    with pytest.raises(ParseError, match="more digits") as info:
        load_instance(write(tmp_path, "i.json", one_value(text, kind)))
    assert len(str(info.value)) < 200


def test_loader_rejects_over_long_json_integer(tmp_path):
    path = tmp_path / "i.json"
    path.write_text(json.dumps(one_value(7, "additive"))
                    .replace("7", "1" + "0" * 5000))
    with pytest.raises(ParseError, match="invalid JSON"):
        load_instance(path)


@pytest.mark.parametrize("loader, text", [
    (load_instance, '{"n": 1, "m": 1, "scaled": false, "valuations": '
                    '[{"kind": "additive", "values": ["1"], "values": ["2"]}]}'),
    (load_instance, '{"n": 1, "m": 1, "scaled": false, "valuations": '
                    '[{"kind": "additive", "den": 1, "den": 2, "values": [1]}]}'),
    (load_instance, '{"n": 1, "n": 1, "m": 0, "scaled": false, '
                    '"valuations": [{"kind": "additive", "values": []}]}'),
    (load_allocation, '{"bundles": [[1]], "bundles": [[]]}'),
    (load_config, '{"seed": 1, "seed": 2}'),
], ids=["values", "den", "n", "bundles", "config-seed"])
def test_loader_rejects_repeated_member_names(tmp_path, loader, text):
    # `json` would keep the last of the two members without a word.
    path = tmp_path / "f.json"
    path.write_text(text)
    with pytest.raises(ParseError, match="repeated"):
        loader(path)


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

    def test_every_generator_family(self, tmp_path):
        eps = Fraction(1, 5)
        insts = [generate_adversarial(FamilySpec(
                     family, 4, epsilon=eps if family in (
                         "mms-unscaled", "supermodular") else None))
                 for family in ADVERSARIAL_FAMILIES]
        insts += [generate_random(3, 5, "uniform-rational", seed=1),
                  generate_random(3, 5, "dirichlet-scaled", seed=2),
                  generate_random_subadditive(2, 4, seed=3)]
        for idx, inst in enumerate(insts):
            path = tmp_path / f"{idx}.json"
            save_instance(inst, path)
            loaded = load_instance(path)
            assert loaded == inst
            for got, want in zip(loaded.valuations, inst.valuations):
                assert (got.values, got.table) == (want.values, want.table)

    def test_allocation(self, tmp_path):
        alloc = Allocation.of([[0, 2], [1], []])
        path = tmp_path / "a.json"
        save_allocation(alloc, path)
        assert load_allocation(path) == alloc


class TestValueQuery:
    def test_full_set(self):
        v = Valuation.additive([Fraction(1, 4), Fraction(3, 4)])
        assert v.value({0, 1}) == 1

    def test_empty_set_is_zero(self):
        v = Valuation.additive([Fraction(1, 4), Fraction(3, 4)])
        assert v.value(set()) == 0
        table = {frozenset(): Fraction(0), frozenset({0}): Fraction(1)}
        assert Valuation.explicit(1, table).value(set()) == 0

    def test_bool_is_not_a_good(self):
        for v in (Valuation.additive([Fraction(1), Fraction(2)]),
                  Valuation.explicit(2, {frozenset({0}): Fraction(1),
                                         frozenset({1}): Fraction(2),
                                         frozenset({0, 1}): Fraction(3)})):
            with pytest.raises(ValueError, match="not within 0..1"):
                v.value([True, 0])

    def test_good_set_refuses_what_is_not_a_good(self):
        # An unhashable good, goods of two types, and no iterable at all.
        for goods in ([[1]], [1, "a"], [0, None], 3):
            with pytest.raises(ValueError, match="not within 0..2"):
                good_set(goods, 3)
        # The first bad good in input order is named, whatever the hashes.
        for goods, first in (([0, "b", "a"], "'b'"), ([0, 9, 5], "9"),
                             ([[1], "a"], r"\[1\]")):
            with pytest.raises(ValueError, match=f"^good {first} not"):
                good_set(goods, 3)

    def test_high_agent_single_good(self):
        # Agent valuing every good at n sees a single good at n.
        v = Valuation.additive([Fraction(3)] * 3)
        assert v.value({1}) == 3

    @given(st.integers(1, 5), st.data())
    @settings(max_examples=60, deadline=None)
    def test_monotone_under_inclusion(self, m, data):
        values = data.draw(st.lists(
            st.fractions(min_value=0, max_value=2, max_denominator=20),
            min_size=m, max_size=m))
        v = Valuation.additive(values)
        inner = data.draw(st.sets(st.integers(0, m - 1)))
        extra = data.draw(st.sets(st.integers(0, m - 1)))
        assert v.value(inner) <= v.value(inner | extra)


# Pairwise coprime, so an agent's denominator can have hundreds of bits.
LARGE_PRIMES = (10 ** 9 + 7, 2 ** 31 - 1, 2 ** 61 - 1, 2 ** 89 - 1)


def rational_text(rng, x, forms):
    """A valid file rendering of `x`, often not the canonical one: JSON
    integers, "-0", leading zeros and unreduced fractions. Counts each
    form used in `forms`."""
    p, q = x.numerator, x.denominator
    k = rng.randint(2, 9)
    choices = [("canonical", str(x)), ("unreduced", f"{p * k}/{q * k}")]
    if q == 1:
        zeros = "-00" if p < 0 else "00"
        choices += [("json-int", p), ("leading-zeros", zeros + str(abs(p)))]
    if p == 0:
        choices += [("minus-zero", "-0"), ("zero-over-q", f"0/{k}")]
    form, text = rng.choice(choices)
    forms[form] += 1
    return text


def file_json(rng, inst, forms):
    """`inst` as an instance file with varied rational texts, explicit keys
    in shuffled order and the empty-set key often left out when it is 0;
    some agents are written as a kernel over a multiple of their lcm
    denominator, some get two negative values, and the scaled flag is
    sometimes claimed wrongly."""
    vals = []
    for v in inst.valuations:
        if v.kind == "additive":
            items = list(enumerate(v.values))
        else:
            items = [(",".join(str(g + 1) for g in sorted(subset)), x)
                     for subset, x in v.table.items()
                     if subset or x or rng.random() < 0.5]
            rng.shuffle(items)
        if items and rng.random() < 0.15:
            for j in rng.sample(range(len(items)), min(2, len(items))):
                items[j] = items[j][0], -Fraction(rng.randint(1, 3), 2)
        obj = {"kind": v.kind}
        if rng.random() < 0.3:
            forms["kernel"] += 1
            den = obj["den"] = rng.randint(1, 3) * lcm(
                *(x.denominator for _, x in items))
            texts = [int(x * den) for _, x in items]
        else:
            texts = [rational_text(rng, x, forms) for _, x in items]
        if v.kind == "additive":
            obj["values"] = texts
        else:
            obj["subadditive"] = v.subadditive
            obj["table"] = {key: text for (key, _), text in zip(items, texts)}
        vals.append(obj)
    return {"n": inst.n, "m": inst.m, "valuations": vals,
            "scaled": inst.scaled or rng.random() < 0.2}


def large_denominator_corpus(rng, count):
    """Additive instances whose values have large coprime denominators,
    with some zero values."""
    out = []
    for _ in range(count):
        n, m = rng.randint(1, 4), rng.randint(1, 6)
        rows = [[Fraction(rng.choice([0, rng.randint(1, q)]), q)
                 for q in (rng.choice(LARGE_PRIMES) for _ in range(m))]
                for _ in range(n)]
        out.append(additive_instance(rows))
    return out


def check_reads(v: Valuation):
    """`ints_of` over `den` against the `Fraction` views on every subset,
    `singles` against `ints_of` of each one-good set (an additive agent's
    kernel itself), and `bits` against a naive bit scan."""
    for mask in range(1 << v.m):
        goods = [g for g in range(v.m) if mask >> g & 1]
        assert list(bits(mask)) == goods
        want = (sum((v.values[g] for g in goods), Fraction(0))
                if v.table is None else v.table[frozenset(goods)])
        assert Fraction(v.ints_of(goods), v.den) == want
    assert list(v.singles) == [v.ints_of({g}) for g in range(v.m)]
    assert v.table is not None or v.singles is v.kernel


def test_loader_matches_fraction_reference(tmp_path):
    """The integer loader against `Fraction(text)` and the `Fraction`
    constructors on seeded additive, explicit and mixed files: the same
    instance (equality and hash), views equal to the Fractions parsed from
    the file text (explicit tables in ascending bitmask order, whatever the
    file's key order), the kernel read off those Fractions in lowest terms,
    and the kernel reads (`check_reads`) equal to the views; or the same
    ValidationError."""
    rng = random.Random(20261019)
    corpus = (tie_corpus(240, 4242) + twin_corpus(60, 77)
              + random_additive_corpus(60, 5, 8, 8)
              + random_subadditive_corpus(30, 3, 5, 9)
              + large_denominator_corpus(rng, 60))
    forms, outcomes = Counter(), Counter()
    for idx, inst in enumerate(corpus):
        path = write(tmp_path, f"{idx}.json", file_json(rng, inst, forms))
        want, views = naive_load_instance(path)
        try:
            validate_instance(want)
        except ValidationError as exc:
            with pytest.raises(ValidationError) as err:
                load_instance(path)
            assert (err.value.axiom, err.value.agent, err.value.witness,
                    str(err.value)) == (exc.axiom, exc.agent, exc.witness,
                                        str(exc))
            outcomes[exc.axiom] += 1
            continue
        got = load_instance(path)
        assert got == want and hash(got) == hash(want)
        for g, w, view in zip(got.valuations, want.valuations, views):
            assert (g.kernel, g.den) == (w.kernel, w.den) == naive_kernel(view)
            assert gcd(g.den, *g.kernel) == 1
            if isinstance(view, tuple):
                assert g.values == w.values == view and g.table is None
            else:
                by_mask = sorted(view.items(),
                                 key=lambda kv: sum(1 << i for i in kv[0]))
                assert list(g.table.items()) == by_mask
                assert list(w.table.items()) == by_mask
                outcomes["reordered"] += list(view.items()) != by_mask
                assert g.values is None
            check_reads(g)
        outcomes[g.kind] += 1
    assert outcomes["additive"] >= 100 and outcomes["explicit"] >= 50
    assert outcomes["reordered"] >= 50
    for axiom in ("normalized", "nonnegative", "scaled"):
        assert outcomes[axiom] >= 20, axiom
    assert min(forms.values()) >= 50 and len(forms) == 7


def test_solving_a_loaded_file_builds_no_fraction_view(tmp_path):
    path = tmp_path / "i.json"
    save_instance(generate_random(6, 24, "dirichlet-scaled", seed=4), path)
    inst = load_instance(path)
    run_solve_half_mms(inst)
    assert not any("values" in v.__dict__ for v in inst.valuations)


class TestConstructorInputs:
    """Values are exact rationals: Fractions, ints and "p/q" strings."""

    @staticmethod
    def build(kind, x):
        if kind == "additive":
            return Valuation.additive([x])
        return Valuation.explicit(1, {frozenset({0}): x})

    @pytest.mark.parametrize("kind", ["additive", "explicit"])
    @pytest.mark.parametrize("x", [0.1, 0.5, True, False, None])
    def test_rejects_floats_and_bools(self, kind, x):
        with pytest.raises(ValueError, match="must be Fractions"):
            self.build(kind, x)

    @pytest.mark.parametrize("kind", ["additive", "explicit"])
    def test_accepts_exact_rationals(self, kind):
        for x, want in ((Fraction(2, 4), Fraction(1, 2)), (3, 3),
                        ("6/9", Fraction(2, 3)), ("-0", 0)):
            v = self.build(kind, x)
            assert v.value({0}) == want
            assert v == self.build(kind, want)

    @pytest.mark.parametrize("build, axiom", [
        (lambda: Valuation("additive", 2, (1, 1), -2), "den"),
        (lambda: Valuation.from_ints("additive", 2, [1, 1], -2), "den"),
        (lambda: Valuation("additive", 2, (1, 1), 0), "den"),
        (lambda: Valuation("additive", 2, (1, 1), True), "den"),
        (lambda: Valuation("additive", 2, (1, 1), 2.0), "den"),
        (lambda: Valuation("foo", 2, (0, 1, 1, 2), 1), "kind"),
        (lambda: Valuation("additive", 2, (1,), 1), "value-count"),
        (lambda: Valuation("explicit", 2, (0, 1), 1), "value-count"),
        (lambda: Valuation("additive", 2, (1, True), 1), "integer"),
        (lambda: Valuation("explicit", 2, (0, 1, 1, Fraction(2)), 1),
         "integer"),
    ], ids=["negative-den", "from-ints-negative-den", "zero-den", "bool-den",
            "float-den", "unknown-kind", "additive-length",
            "explicit-length", "bool-entry", "fraction-entry"])
    def test_validation_refuses_a_bad_kernel(self, build, axiom):
        # Built directly, past the constructors' checks; the first or the
        # second agent.
        for valuations in ((build(),), (Valuation.additive([1, 1]), build())):
            agent = len(valuations)
            with pytest.raises(ValidationError) as info:
                validate_instance(Instance(agent, 2, valuations))
            assert (info.value.axiom, info.value.agent) == (axiom, agent)
            assert str(info.value).startswith(f"agent {agent}: ")


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


def test_event_json_is_one_based():
    assert Event("swap", 0, (0, 2), "P").to_json() == {
        "phase": "swap", "agent": 1, "bundle": [1, 3], "label": "P"}
    assert Event("zero-mms", 2, (), "P").to_json()["bundle"] == []


def test_documented_instance_examples_load(tmp_path):
    # Every instance JSON block in the README, and the one in the
    # `fairdiv.model` docstring, is a file the loader accepts.
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    blocks = re.findall(r"```json\n(.*?)```", readme, re.S)
    blocks.append(fairdiv.model.__doc__.split("Instance files are JSON::")[1]
                  .split("\n\n")[1])
    examples = [json.loads(b) for b in blocks if '"valuations"' in b]
    assert len(examples) == 3
    loaded = [load_instance(write(tmp_path, "example.json", data))
              for data in examples]
    for inst, data in zip(loaded, examples):
        assert inst.n == data["n"] and inst.scaled == data["scaled"]
    # The README's "p/q" example and its kernel form are one instance.
    assert loaded[0] == loaded[1]


def rational_json(inst):
    """`inst` in the rational form, every value a "p/q" string."""
    vals = []
    for v in inst.valuations:
        if v.kind == "additive":
            vals.append({"kind": "additive",
                         "values": [str(x) for x in v.values]})
        else:
            vals.append({"kind": "explicit", "subadditive": v.subadditive,
                         "table": {",".join(str(g + 1) for g in sorted(s)):
                                   str(x) for s, x in v.table.items() if s}})
    return {"n": inst.n, "m": inst.m, "scaled": inst.scaled,
            "valuations": vals}


def load_outcome(path):
    """What loading `path` gives: each agent's kind, kernel, den and
    subadditive flag and the scaled flag, or the ValidationError's facts."""
    try:
        inst = load_instance(path)
    except ValidationError as exc:
        return exc.axiom, exc.agent, exc.witness, str(exc)
    return inst.scaled, [(v.kind, v.kernel, v.den, v.subadditive)
                         for v in inst.valuations]


def test_kernel_form_round_trip_matches_rational_form(tmp_path):
    corpus = (tie_corpus(120, 31) + twin_corpus(60, 32)
              + random_additive_corpus(40, 6, 10, 33)
              + random_subadditive_corpus(20, 3, 5, 34))
    for idx, inst in enumerate(corpus):
        saved = tmp_path / f"k{idx}.json"
        save_instance(inst, saved)
        assert all("den" in obj for obj in
                   json.loads(saved.read_text())["valuations"])
        want = load_outcome(write(tmp_path, f"r{idx}.json",
                                  rational_json(inst)))
        assert load_outcome(saved) == want


def coprime_denominators(count, digits):
    """`count` pairwise coprime integers of `digits` digits."""
    out, product = [], 1
    q = 10 ** (digits - 1) + 1
    while len(out) < count:
        if gcd(q, product) == 1:
            out.append(q)
            product *= q
        q += 2
    return out


def test_wide_kernel_keeps_the_rational_form(tmp_path):
    # 64 coprime 91-digit denominators give a kernel of about 5,760 digits,
    # past Python's default int/str limit of 4,300; that agent keeps "p/q".
    wide = Valuation.additive([Fraction(1, q)
                               for q in coprime_denominators(64, 91)])
    narrow = Valuation.additive([Fraction(1, 2)] * 64)
    assert wide.den.bit_length() > fairdiv.model._JSON_INT_BITS
    inst = Instance(2, 64, (wide, narrow))
    path = tmp_path / "wide.json"
    save_instance(inst, path)
    agents = json.loads(path.read_text())["valuations"]
    assert "den" not in agents[0] and agents[1]["den"] == 2
    assert load_instance(path) == inst


def with_agent(data, **fields):
    """`data` with its one agent's fields replaced."""
    return dict(data, valuations=[dict(data["valuations"][0], **fields)])


KERNEL_AGENT = {"n": 1, "m": 2, "scaled": True, "valuations": [
    {"kind": "additive", "den": 4, "values": [1, 3]}]}
KERNEL_TABLE = {"n": 1, "m": 2, "scaled": True, "valuations": [
    {"kind": "explicit", "den": 4, "table": {"1": 1, "2": 3, "1,2": 4}}]}


@pytest.mark.parametrize("data, doubled", [
    (KERNEL_AGENT, {"den": 8, "values": [2, 6]}),
    (KERNEL_TABLE, {"den": 8, "table": {"1": 2, "2": 6, "1,2": 8}}),
], ids=["additive", "explicit"])
def test_kernel_form_loads_reduced(tmp_path, data, doubled):
    want = load_instance(write(tmp_path, "i.json", data)).valuations[0]
    assert (want.den, want.value({1})) == (4, Fraction(3, 4))
    got = load_instance(write(tmp_path, "j.json",
                              with_agent(data, **doubled))).valuations[0]
    assert got == want


@pytest.mark.parametrize("data", [
    with_agent(KERNEL_AGENT, den=0), with_agent(KERNEL_AGENT, den=-4),
    with_agent(KERNEL_AGENT, den=True), with_agent(KERNEL_AGENT, den=4.0),
    with_agent(KERNEL_AGENT, den="4"), with_agent(KERNEL_AGENT, den=None),
    with_agent(KERNEL_AGENT, values=[1.0, 3]),
    with_agent(KERNEL_AGENT, values=[True, 3]),
    with_agent(KERNEL_AGENT, values=[1, "3"]),
    with_agent(KERNEL_AGENT, values=["1/4", 3]),
    with_agent(KERNEL_TABLE, den=0), with_agent(KERNEL_TABLE, den=True),
    with_agent(KERNEL_TABLE, table={"1": 1, "2": 3, "1,2": 4.0}),
    with_agent(KERNEL_TABLE, table={"1": 1, "2": True, "1,2": 4}),
    with_agent(KERNEL_TABLE, table={"1": "1", "2": 3, "1,2": 4}),
], ids=["den-0", "den-negative", "den-true", "den-float", "den-string",
        "den-null", "value-float", "value-bool", "value-string",
        "value-ratio", "table-den-0", "table-den-true", "table-float",
        "table-bool", "table-string"])
def test_kernel_form_is_strict(tmp_path, data):
    with pytest.raises(ParseError):
        load_instance(write(tmp_path, "i.json", data))


@pytest.mark.parametrize("key", ["+1", " 1", "1 ", "١", "1,+2",
                                 "1,٢", "1_0"])
def test_subset_keys_are_ascii_digits(tmp_path, key):
    data = {"n": 1, "m": 2, "scaled": False, "valuations": [
        {"kind": "explicit", "table": {"1": "1", "2": "1", "1,2": "2",
                                       key: "1"}}]}
    with pytest.raises(ParseError, match="bad subset key"):
        load_instance(write(tmp_path, "i.json", data))


@pytest.mark.parametrize("den", [{}, {"den": 2}])
def test_subset_named_twice_is_refused(tmp_path, den):
    table = {"1": 2, "2": 2, "1,2": 4, "2,1": 3}
    data = {"n": 1, "m": 2, "scaled": False, "valuations": [
        dict(den, kind="explicit", table=table)]}
    with pytest.raises(ParseError, match="'1,2' and '2,1'"):
        load_instance(write(tmp_path, "i.json", data))


@pytest.mark.parametrize("key, error", [
    ("3", "'3' outside goods 1..2"), ("0", "'0' outside goods 1..2"),
    ("1,3", "'1,3' outside goods 1..2"), ("1,1", "'1,1' repeats a good"),
    ("2,1,2", "'2,1,2' repeats a good")])
def test_subset_key_outside_the_goods_or_repeating_one_is_refused(
        tmp_path, key, error):
    data = {"n": 1, "m": 2, "scaled": False, "valuations": [
        {"kind": "explicit", "table": {"1": "1", "2": "1", "1,2": "2",
                                       key: "1"}}]}
    with pytest.raises(ParseError, match=error):
        load_instance(write(tmp_path, "i.json", data))


def test_instance_with_no_agents_is_refused(tmp_path):
    data = {"n": 0, "m": 2, "scaled": False, "valuations": []}
    with pytest.raises(ValidationError, match="need at least 1 agent") as err:
        load_instance(write(tmp_path, "i.json", data))
    assert err.value.axiom == "agent-count"


def test_bundle_listing_a_good_twice_is_refused(tmp_path):
    with pytest.raises(ParseError, match="more than once"):
        load_allocation(write(tmp_path, "a.json", {"bundles": [[1, 1], [2]]}))


# Any JSON document, built as `json.loads` would return it.
JSON_DOCS = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=6),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=6), inner,
                                     max_size=4)),
    max_leaves=12)

FUZZ_SEEDS = [generate_random(2, 3, "dirichlet-scaled", seed=5),
              generate_random_subadditive(2, 2, seed=6)]
VALID_FILES = ([rational_json(inst) for inst in FUZZ_SEEDS]
               + [fairdiv.model.instance_to_json(inst)
                  for inst in FUZZ_SEEDS])


def field_paths(doc, path=()):
    """The path to every value inside `doc`, `doc` itself first."""
    yield path
    items = (doc.items() if isinstance(doc, dict)
             else enumerate(doc) if isinstance(doc, list) else ())
    for key, value in items:
        yield from field_paths(value, path + (key,))


def mutated(doc, path, value, delete):
    """A copy of `doc` with the field at `path` set to `value`, or deleted
    when `delete` and it sits in an object."""
    if not path:
        return value
    doc = json.loads(json.dumps(doc))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if delete and isinstance(parent, dict):
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


def loads_or_refuses(load, doc):
    try:
        load(doc)
    except (ParseError, ValidationError):
        pass


class TestLoaderFuzz:
    """Whatever the document, a loader returns or raises ParseError or
    ValidationError, never another exception."""

    @given(JSON_DOCS)
    @settings(max_examples=300, deadline=None)
    def test_any_document(self, doc):
        loads_or_refuses(fairdiv.model.instance_from_json, doc)
        loads_or_refuses(fairdiv.model.allocation_from_json, doc)

    @given(st.sampled_from(VALID_FILES), st.data())
    @settings(max_examples=400, deadline=None)
    def test_one_field_mutation_of_an_instance(self, doc, data):
        path = data.draw(st.sampled_from(list(field_paths(doc))))
        loads_or_refuses(fairdiv.model.instance_from_json, mutated(
            doc, path, data.draw(JSON_DOCS), data.draw(st.booleans())))

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_one_field_mutation_of_an_allocation(self, data):
        doc = {"bundles": [[1, 3], [2], []]}
        path = data.draw(st.sampled_from(list(field_paths(doc))))
        loads_or_refuses(fairdiv.model.allocation_from_json, mutated(
            doc, path, data.draw(JSON_DOCS), data.draw(st.booleans())))


# Every kind of node `json_text` renders itself, and some it hands to
# `json.dumps`: floats (NaN and infinities too), tuples, non-str keys.
RENDER_TREES = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.integers(min_value=2 ** 64) | st.floats() | st.text(),
    lambda inner: (st.lists(inner, max_size=5)
                   | st.lists(st.integers(), max_size=5)
                   | st.lists(inner, max_size=3).map(tuple)
                   | st.dictionaries(st.text(), inner, max_size=4)
                   | st.dictionaries(st.integers(), inner, max_size=3)),
    max_leaves=24)


def dumped(data) -> str:
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


class TestJsonText:
    """`json_text` gives exactly the bytes of `json.dumps(indent=2,
    sort_keys=True)` plus a newline, and fails where it fails."""

    @given(RENDER_TREES)
    @settings(max_examples=500, deadline=None)
    def test_any_tree(self, data):
        assert fairdiv.model.json_text(data) == dumped(data)

    @pytest.mark.parametrize("data", [
        "\u00e9\u2028\x00\"\\\n\t\x7f", "\U0001f600", "", [], {}, (),
        [[], {}, ()], {"": [], "a": {}}, [True, False, None, 0, -1],
        [1, True], [1, 2.5], 10 ** 400, [10 ** 400, -10 ** 400],
        {"b": 1, "a": {"c": [1, 2]}, "\u00e9": "x"}, float("nan"),
        [float("inf"), -float("inf")], {1: "a", 2.5: "b", True: "c"},
        {"a": {None: 1}}])
    def test_edge_values(self, data):
        assert fairdiv.model.json_text(data) == dumped(data)

    @pytest.mark.parametrize("data, error", [
        ({"a": object()}, TypeError), ([1, {1, 2}], TypeError),
        ({"a": 1, 2: "b"}, TypeError), ([10 ** 5000], ValueError)])
    def test_fails_as_json_dumps_does(self, data, error):
        with pytest.raises(error) as expected:
            dumped(data)
        with pytest.raises(error) as got:
            fairdiv.model.json_text(data)
        assert str(got.value) == str(expected.value)

    def test_instance_files(self, tmp_path):
        for inst in (generate_random(16, 64, "dirichlet-scaled", seed=3),
                     generate_random_subadditive(3, 6, seed=4),
                     generate_adversarial(FamilySpec("supermodular", 4,
                                                     Fraction(1, 100)))):
            path = tmp_path / "i.json"
            save_instance(inst, path)
            assert path.read_text() == dumped(
                fairdiv.model.instance_to_json(inst))


def test_explicit_cap_comes_before_the_keys(tmp_path):
    # The cap is checked before any key is read, so no key of a table over
    # too many goods becomes a bitmask of that many bits.
    data = {"n": 1, "m": 21, "scaled": False, "valuations": [
        {"kind": "explicit", "table": {"x": "1"}}]}
    with pytest.raises(ValidationError, match="cap of 20"):
        load_instance(write(tmp_path, "i.json", data))
