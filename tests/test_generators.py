"""Generators: exact constructions, validation, determinism."""

import json
import random
from fractions import Fraction

import pytest

from fairdiv import (FamilySpec, ValidationError, generate_adversarial,
                     generate_random, generate_random_subadditive,
                     max_welfare, save_instance, validate_instance)
from fairdiv.model import instance_to_json


class TestFamilySpec:
    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            FamilySpec("ef1-unscaled", 0)

    def test_rejects_bad_epsilon(self):
        with pytest.raises(ValueError):
            FamilySpec("supermodular", 3, epsilon=Fraction(3, 2))

    def test_has_no_seed(self):
        # The adversarial families are deterministic; a seed would be
        # silently ignored.
        with pytest.raises(TypeError):
            FamilySpec("ef1-unscaled", 3, seed=1)


class TestAdversarialFamilies:
    def test_ef1_unscaled_rows(self):
        inst = generate_adversarial(FamilySpec("ef1-unscaled", 3))
        assert not inst.scaled
        assert inst.valuations[0].values == (Fraction(3),) * 3
        assert inst.valuations[1].values == (Fraction(1, 3),) * 3
        assert inst.valuations[2].values == (Fraction(1, 3),) * 3

    def test_ef1_unscaled_opt_is_n_squared(self):
        for n in (2, 3, 4, 5):
            inst = generate_adversarial(FamilySpec("ef1-unscaled", n))
            _, opt = max_welfare(inst)
            assert opt == n * n

    def test_mms_scaled_sqrt_shape(self):
        inst = generate_adversarial(FamilySpec("mms-scaled-sqrt", 4))
        assert inst.scaled
        assert inst.valuations[0].values == (Fraction(1, 2), Fraction(1, 2),
                                             Fraction(0), Fraction(0))
        assert inst.valuations[1].values == (Fraction(0), Fraction(0),
                                             Fraction(1, 2), Fraction(1, 2))
        assert inst.valuations[2].values == (Fraction(1, 4),) * 4
        assert inst.valuations[3].values == (Fraction(1, 4),) * 4

    def test_mms_scaled_sqrt_opt_at_least_floor_sqrt(self):
        for n in (4, 9, 16):
            inst = generate_adversarial(FamilySpec("mms-scaled-sqrt", n))
            _, opt = max_welfare(inst)
            assert opt * opt >= n     # opt >= floor(sqrt(n)) via opt^2 >= n

    def test_mms_unscaled(self):
        eps = Fraction(1, 7)
        inst = generate_adversarial(FamilySpec("mms-unscaled", 3, epsilon=eps))
        assert inst.valuations[0].values == (Fraction(1),) * 3
        assert inst.valuations[1].values == (eps,) * 3

    def test_prop1_unscaled(self):
        inst = generate_adversarial(FamilySpec("prop1-unscaled", 3))
        assert inst.m == 4
        assert inst.valuations[0].values == (Fraction(4),) * 4
        assert inst.valuations[1].values == (Fraction(1, 4),) * 4

    def test_prop1_scaled_needs_square_n(self):
        with pytest.raises(ValueError):
            generate_adversarial(FamilySpec("prop1-scaled", 5))

    def test_prop1_scaled_shape(self):
        inst = generate_adversarial(FamilySpec("prop1-scaled", 4))
        assert inst.m == 5 and inst.scaled
        assert inst.valuations[0].values == (Fraction(1, 2), Fraction(1, 2),
                                             Fraction(0), Fraction(0),
                                             Fraction(0))
        assert inst.valuations[2].values == (Fraction(1, 5),) * 5

    def test_supermodular_table_and_supermodularity(self):
        eps = Fraction(1, 100)
        inst = generate_adversarial(FamilySpec("supermodular", 3, epsilon=eps))
        v = inst.valuations[0]
        assert inst.scaled
        assert v.value(range(3)) == 1
        assert v.value({0}) == eps
        assert v.value({0, 1}) == eps + (1 - eps) / 2
        # Exhaustive supermodularity: v(S u T) + v(S n T) >= v(S) + v(T).
        subsets = [frozenset(g for g in range(3) if mask >> g & 1)
                   for mask in range(8)]
        for s in subsets:
            for t in subsets:
                assert v.value(s | t) + v.value(s & t) >= \
                    v.value(s) + v.value(t)

    def test_all_families_validate(self):
        specs = [FamilySpec("ef1-unscaled", 4),
                 FamilySpec("mms-unscaled", 4, epsilon=Fraction(1, 5)),
                 FamilySpec("mms-scaled-sqrt", 9),
                 FamilySpec("prop1-unscaled", 4),
                 FamilySpec("prop1-scaled", 9),
                 FamilySpec("supermodular", 3, epsilon=Fraction(1, 50))]
        for spec in specs:
            validate_instance(generate_adversarial(spec))

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            generate_adversarial(FamilySpec("nope", 3))


class TestExplicitGoodsCap:
    """Both explicit families refuse m over the cap before drawing a value
    or building a table (2^m subsets)."""

    def test_random_subadditive(self, monkeypatch):
        import fairdiv.generators as gen
        monkeypatch.setattr(gen, "random", None)           # no draws
        with pytest.raises(ValidationError) as err:
            generate_random_subadditive(2, 21, seed=0)
        assert err.value.axiom == "explicit-goods-cap"

    def test_supermodular(self, monkeypatch):
        import fairdiv.generators as gen
        monkeypatch.setattr(gen, "Valuation", None)        # no tables
        with pytest.raises(ValidationError) as err:
            generate_adversarial(FamilySpec("supermodular", 21,
                                            epsilon=Fraction(1, 100)))
        assert err.value.axiom == "explicit-goods-cap"


class TestRandomFamilies:
    def test_determinism_byte_identical(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        save_instance(generate_random(4, 7, "uniform-rational", seed=42), a)
        save_instance(generate_random(4, 7, "uniform-rational", seed=42), b)
        assert a.read_bytes() == b.read_bytes()

    def test_different_seeds_differ(self):
        x = generate_random(3, 5, "uniform-rational", seed=1)
        y = generate_random(3, 5, "uniform-rational", seed=2)
        assert x != y

    def test_uniform_rational_bounds(self):
        inst = generate_random(3, 5, "uniform-rational", seed=9)
        assert not inst.scaled
        for v in inst.valuations:
            for x in v.values:
                assert 0 <= x <= 1
                assert x.denominator <= 1000

    def test_dirichlet_scaled_validates(self):
        inst = generate_random(4, 6, "dirichlet-scaled", seed=5)
        assert inst.scaled
        validate_instance(inst)

    def test_unknown_distribution(self):
        with pytest.raises(ValueError):
            generate_random(2, 2, "weird", seed=0)

    def test_subadditive_family_validates_and_is_flagged(self):
        inst = generate_random_subadditive(3, 5, seed=77)
        validate_instance(inst)         # includes exhaustive subadditivity
        assert all(v.subadditive for v in inst.valuations)

    def test_subadditive_family_deterministic(self):
        x = generate_random_subadditive(2, 4, seed=3)
        y = generate_random_subadditive(2, 4, seed=3)
        assert instance_to_json(x) == instance_to_json(y)
