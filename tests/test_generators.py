"""Generators: exact constructions, validation, determinism."""

import hashlib
import json
import random
from decimal import Decimal
from fractions import Fraction
from math import isqrt

import pytest

import fairdiv.generators as gen
from fairdiv import (ADVERSARIAL_FAMILIES, Instance, ValidationError,
                     Valuation, generate, max_welfare, rescale_instance,
                     save_instance, validate_instance)
from fairdiv.cli import main
from fairdiv.generators import FAMILY_ARGS, RANDOM_FAMILIES
from fairdiv.model import instance_to_json

from conftest import (naive_kernel, reference_adversarial, reference_random,
                      reference_random_subadditive,
                      reference_rescale_instance)


class TestAdversarialArguments:
    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            generate("ef1-unscaled", 0)

    def test_rejects_bad_epsilon(self):
        with pytest.raises(ValueError):
            generate("supermodular", 3, epsilon=Fraction(3, 2))

    def test_has_no_seed(self):
        # The adversarial families are deterministic; a seed would be
        # silently ignored, so any seed is refused, 0 included.
        for family in ADVERSARIAL_FAMILIES:
            eps = Fraction(1, 3) if "epsilon" in FAMILY_ARGS[family] else None
            for seed in (0, 1, -1, True, 1.5, "1"):
                with pytest.raises(ValueError,
                                   match=f"^{family} takes no seed$"):
                    generate(family, 4, epsilon=eps, seed=seed)


class TestAdversarialFamilies:
    def test_ef1_unscaled_rows(self):
        inst = generate("ef1-unscaled", 3)
        assert not inst.scaled
        assert inst.valuations[0].values == (Fraction(3),) * 3
        assert inst.valuations[1].values == (Fraction(1, 3),) * 3
        assert inst.valuations[2].values == (Fraction(1, 3),) * 3

    def test_ef1_unscaled_opt_is_n_squared(self):
        for n in (2, 3, 4, 5):
            inst = generate("ef1-unscaled", n)
            _, opt = max_welfare(inst)
            assert opt == n * n

    def test_mms_scaled_sqrt_shape(self):
        inst = generate("mms-scaled-sqrt", 4)
        assert inst.scaled
        assert inst.valuations[0].values == (Fraction(1, 2), Fraction(1, 2),
                                             Fraction(0), Fraction(0))
        assert inst.valuations[1].values == (Fraction(0), Fraction(0),
                                             Fraction(1, 2), Fraction(1, 2))
        assert inst.valuations[2].values == (Fraction(1, 4),) * 4
        assert inst.valuations[3].values == (Fraction(1, 4),) * 4

    def test_mms_scaled_sqrt_opt_at_least_floor_sqrt(self):
        for n in (4, 9, 16):
            inst = generate("mms-scaled-sqrt", n)
            _, opt = max_welfare(inst)
            assert opt * opt >= n     # opt >= floor(sqrt(n)) via opt^2 >= n

    def test_mms_unscaled(self):
        eps = Fraction(1, 7)
        inst = generate("mms-unscaled", 3, epsilon=eps)
        assert inst.valuations[0].values == (Fraction(1),) * 3
        assert inst.valuations[1].values == (eps,) * 3

    def test_prop1_unscaled(self):
        inst = generate("prop1-unscaled", 3)
        assert inst.m == 4
        assert inst.valuations[0].values == (Fraction(4),) * 4
        assert inst.valuations[1].values == (Fraction(1, 4),) * 4

    def test_prop1_scaled_needs_square_n(self):
        with pytest.raises(ValueError):
            generate("prop1-scaled", 5)

    def test_prop1_scaled_shape(self):
        inst = generate("prop1-scaled", 4)
        assert inst.m == 5 and inst.scaled
        assert inst.valuations[0].values == (Fraction(1, 2), Fraction(1, 2),
                                             Fraction(0), Fraction(0),
                                             Fraction(0))
        assert inst.valuations[2].values == (Fraction(1, 5),) * 5

    def test_supermodular_table_and_supermodularity(self):
        eps = Fraction(1, 100)
        inst = generate("supermodular", 3, epsilon=eps)
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
        for family, n, eps in (("ef1-unscaled", 4, None),
                               ("mms-unscaled", 4, Fraction(1, 5)),
                               ("mms-scaled-sqrt", 9, None),
                               ("prop1-unscaled", 4, None),
                               ("prop1-scaled", 9, None),
                               ("supermodular", 3, Fraction(1, 50))):
            validate_instance(generate(family, n, epsilon=eps))

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            generate("nope", 3)


# Per family, `generate` arguments and the builder call that must build the
# same instance: the defaults (`random`'s distribution, a seed of 0) and
# every named argument.
DISPATCH_CASES = {
    **{family: [({"n": n, "epsilon": eps},
                 lambda family=family, n=n, eps=eps:
                 gen._adversarial(family, n, eps))]
       for family, n, eps in (("ef1-unscaled", 4, None),
                              ("mms-unscaled", 4, Fraction(3, 7)),
                              ("mms-scaled-sqrt", 9, None),
                              ("prop1-unscaled", 4, None),
                              ("prop1-scaled", 9, None),
                              ("supermodular", 4, Fraction(1, 100)))},
    "random": [
        ({"n": 4, "m": 7}, lambda: gen._random(4, 7, "uniform-rational", 0)),
        ({"n": 4, "m": 7, "distribution": "uniform-rational", "seed": 3},
         lambda: gen._random(4, 7, "uniform-rational", 3)),
        ({"n": 4, "m": 8, "distribution": "dirichlet-scaled", "seed": 1},
         lambda: gen._random(4, 8, "dirichlet-scaled", 1))],
    "random-subadditive": [
        ({"n": 3, "m": 5}, lambda: gen._random_subadditive(3, 5, 0)),
        ({"n": 3, "m": 5, "seed": 11},
         lambda: gen._random_subadditive(3, 5, 11))],
}


class TestGenerate:
    """`generate` is the one dispatch from a family's name to its instance:
    every family `FAMILY_ARGS` lists builds what its own builder builds,
    and a request outside the family's arguments is refused before any
    work."""

    @pytest.mark.parametrize("family", FAMILY_ARGS)
    def test_matches_the_direct_generator(self, family):
        for kwargs, direct in DISPATCH_CASES[family]:
            assert instance_to_json(generate(family, **kwargs)) == \
                instance_to_json(direct()), kwargs

    def test_benchmark_names_build_what_generate_builds(self):
        # The benchmark still imports these three names; each is one
        # `generate` call, so it builds the same bytes under the same rules.
        from fairdiv.generators import (FamilySpec, generate_adversarial,
                                        generate_random)
        eps = Fraction(3, 7)
        pairs = [
            (generate_adversarial(FamilySpec(family="ef1-unscaled", n=3)),
             generate("ef1-unscaled", 3)),
            (generate_adversarial(FamilySpec("mms-unscaled", 4, eps)),
             generate("mms-unscaled", 4, epsilon=eps)),
            (generate_random(4, 7), generate("random", 4, 7, seed=0)),
            (generate_random(4, 8, "dirichlet-scaled", seed=1),
             generate("random", 4, 8, distribution="dirichlet-scaled",
                      seed=1))]
        for kept, built in pairs:
            assert instance_to_json(kept) == instance_to_json(built)
        with pytest.raises(ValueError, match="^seed must be an integer"):
            generate_random(2, 3, seed=1.5)
        with pytest.raises(ValueError, match="^need n >= 1"):
            generate_adversarial(FamilySpec("ef1-unscaled", 0))

    def test_unknown_family(self):
        with pytest.raises(ValueError, match="^unknown family 'nosuch'; "
                                             "expected one of \\("):
            generate("nosuch", 3)

    @pytest.mark.parametrize("family, kwargs, error", [
        ("ef1-unscaled", {"seed": 0}, "ef1-unscaled takes no seed"),
        ("supermodular", {"epsilon": Fraction(1, 2), "seed": 1},
         "supermodular takes no seed"),
        ("ef1-unscaled", {"epsilon": Fraction(1, 3)},
         "ef1-unscaled takes no epsilon"),
        ("prop1-scaled", {"epsilon": Fraction(1, 3)},
         "prop1-scaled takes no epsilon"),
        ("mms-unscaled", {"m": 4, "epsilon": Fraction(1, 3)},
         "mms-unscaled takes no m"),
        ("random", {"m": 3, "epsilon": Fraction(1, 3)},
         "random takes no epsilon"),
        ("random-subadditive", {"m": 3, "distribution": "uniform-rational"},
         "random-subadditive takes no distribution"),
        ("random", {"m": 3, "distribution": "weird"},
         "unknown distribution 'weird'"),
    ])
    def test_refuses_what_the_family_does_not_take(self, family, kwargs,
                                                   error):
        with pytest.raises(ValueError, match=f"^{error}"):
            generate(family, 2, **kwargs)

    def test_checks_before_building(self, monkeypatch):
        import fairdiv.generators as gen
        monkeypatch.setattr(gen, "Valuation", None)        # no tables
        with pytest.raises(ValidationError) as err:
            generate("supermodular", 21, epsilon=Fraction(1, 100))
        assert err.value.axiom == "explicit-goods-cap"


class TestSeedRule:
    """A random family takes a non-bool integer seed >= 0, and no seed means
    seed 0: the same request always builds the same instance."""

    @pytest.mark.parametrize("family", RANDOM_FAMILIES)
    def test_no_seed_is_seed_zero(self, family):
        first, second, zero = (generate(family, 3, 5, seed=seed)
                               for seed in (None, None, 0))
        assert instance_to_json(first) == instance_to_json(second) == \
            instance_to_json(zero)

    @pytest.mark.parametrize("family", RANDOM_FAMILIES)
    @pytest.mark.parametrize("seed, error", [
        (True, "seed must be an integer, got True"),
        (1.5, "seed must be an integer, got 1.5"),
        ("1", "seed must be an integer, got '1'"),
        (-1, "need seed >= 0, got -1")])
    def test_refuses_a_seed_that_is_not_a_natural_number(self, family, seed,
                                                         error):
        with pytest.raises(ValueError, match=f"^{error}$"):
            generate(family, 3, 5, seed=seed)


class TestExplicitGoodsCap:
    """Both explicit families refuse m over the cap before drawing a value
    or building a table (2^m subsets)."""

    def test_random_subadditive(self, monkeypatch):
        import fairdiv.generators as gen
        monkeypatch.setattr(gen, "random", None)           # no draws
        with pytest.raises(ValidationError) as err:
            generate("random-subadditive", 2, 21, seed=0)
        assert err.value.axiom == "explicit-goods-cap"

    def test_supermodular(self, monkeypatch):
        import fairdiv.generators as gen
        monkeypatch.setattr(gen, "Valuation", None)        # no tables
        with pytest.raises(ValidationError) as err:
            generate("supermodular", 21, epsilon=Fraction(1, 100))
        assert err.value.axiom == "explicit-goods-cap"


class TestRandomFamilies:
    def test_determinism_byte_identical(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        save_instance(generate("random", 4, 7,
                               distribution="uniform-rational", seed=42), a)
        save_instance(generate("random", 4, 7,
                               distribution="uniform-rational", seed=42), b)
        assert a.read_bytes() == b.read_bytes()

    def test_different_seeds_differ(self):
        x = generate("random", 3, 5, distribution="uniform-rational", seed=1)
        y = generate("random", 3, 5, distribution="uniform-rational", seed=2)
        assert x != y

    def test_uniform_rational_bounds(self):
        inst = generate("random", 3, 5, distribution="uniform-rational",
                        seed=9)
        assert not inst.scaled
        for v in inst.valuations:
            for x in v.values:
                assert 0 <= x <= 1
                assert x.denominator <= 1000

    def test_dirichlet_scaled_validates(self):
        inst = generate("random", 4, 6, distribution="dirichlet-scaled",
                        seed=5)
        assert inst.scaled
        validate_instance(inst)

    def test_unknown_distribution(self):
        with pytest.raises(ValueError):
            generate("random", 2, 2, distribution="weird", seed=0)

    def test_subadditive_family_validates_and_is_flagged(self):
        inst = generate("random-subadditive", 3, 5, seed=77)
        validate_instance(inst)         # includes exhaustive subadditivity
        assert all(v.subadditive for v in inst.valuations)

    def test_subadditive_family_deterministic(self):
        x = generate("random-subadditive", 2, 4, seed=3)
        y = generate("random-subadditive", 2, 4, seed=3)
        assert instance_to_json(x) == instance_to_json(y)


def assert_matches_reference(inst, ref):
    """`==` with the `Fraction` reference, and every kernel the least one:
    the reference's values over the lcm of their reduced denominators."""
    assert inst == ref
    for v in ref.valuations:
        assert (v.kernel, v.den) == naive_kernel(
            v.values if v.values is not None else v.table)


EPSILONS = (Fraction(1, 100), Fraction(3, 7), Fraction(1, 2),
            Fraction(99, 100))


class TestMatchesFractionReference:
    """Each family built from integers equals its `Fraction` build, draw
    for draw."""

    @pytest.mark.parametrize("family", ["ef1-unscaled", "mms-unscaled",
                                        "mms-scaled-sqrt", "prop1-unscaled",
                                        "prop1-scaled"])
    def test_additive_families(self, family):
        for n in range(1, 41):
            if family == "prop1-scaled" and isqrt(n) ** 2 != n:
                continue
            for eps in EPSILONS if family == "mms-unscaled" else (None,):
                assert_matches_reference(generate(family, n, epsilon=eps),
                                         reference_adversarial(family, n, eps))

    def test_supermodular(self):
        for n in range(2, 11):
            for eps in EPSILONS:
                assert_matches_reference(
                    generate("supermodular", n, epsilon=eps),
                    reference_adversarial("supermodular", n, eps))

    def test_random(self):
        rng = random.Random(45)
        for k in range(160):
            n, m = rng.randint(1, 9), rng.randint(1, 23)
            dist = ("uniform-rational", "dirichlet-scaled")[k % 2]
            seed = rng.randint(0, 10 ** 9)
            assert_matches_reference(
                generate("random", n, m, distribution=dist, seed=seed),
                reference_random(n, m, dist, seed))

    def test_random_subadditive(self):
        for m in range(1, 10):
            for n, seed in ((1, m), (2, 100 + m), (3, 200 + m)):
                assert_matches_reference(
                    generate("random-subadditive", n, m, seed=seed),
                    reference_random_subadditive(n, m, seed))

    def test_rescale(self):
        rng = random.Random(46)
        instances = [generate("random", rng.randint(1, 6),
                              rng.randint(1, 12),
                              distribution="uniform-rational",
                              seed=rng.randint(0, 10 ** 9))
                     for _ in range(60)]
        instances += [generate(family, n)
                      for family in ("ef1-unscaled", "prop1-unscaled")
                      for n in range(1, 8)]
        checked = 0
        for inst in instances:
            if not all(sum(v.kernel) for v in inst.valuations):
                continue
            assert_matches_reference(rescale_instance(inst),
                                     reference_rescale_instance(inst))
            checked += 1
        assert checked >= 50


# `fairdiv gen` output, each file's sha256 as the `Fraction` generators wrote
# it.
GEN_SHA256 = [
    (["ef1-unscaled", "--n", "5"],
     "f8d4a490ab4923753aa07b8f58eca3370dce098a097d3ecd5e2392fa3ae24529"),
    (["mms-unscaled", "--n", "4", "--epsilon", "3/7"],
     "a9c81adb536a71a1779677d1c903ac34ec667fac9150675411f4394b11b5a1ea"),
    (["mms-scaled-sqrt", "--n", "9"],
     "81d5aff1f5cdb65d508c5b9b2cbd8ff6f10d91bef835fda0ccececc6d2283926"),
    (["prop1-unscaled", "--n", "4"],
     "28da1627abe30b04c70733f90af1f8e5be4183afe09c53b4604a30263229aa55"),
    (["prop1-scaled", "--n", "9"],
     "4101556a3183aa966dd1ae4fbab619cb9c5c89dfa67c50b54ec6984edf6b832b"),
    (["supermodular", "--n", "4", "--epsilon", "1/100"],
     "ac48875490949abb0a7af7763fe8ad14e4c323656362a06eb7043c497fd07487"),
    (["random", "--distribution", "uniform-rational", "--n", "4", "--m", "7",
      "--seed", "3"],
     "be41933f45a1d2b47daad1e82a09866f187250a2aea2561602a8952430f19a32"),
    (["random", "--distribution", "dirichlet-scaled", "--n", "4", "--m", "8",
      "--seed", "1"],
     "b5d5304a0f672bb8b3f399cbcb2712e28e7a01c26378d30e66dc538f67c5d5aa"),
    (["random-subadditive", "--n", "3", "--m", "5", "--seed", "11"],
     "4cc014b4b28391e135e05df31df093b71d013871e2d34eb3fe65df779d3091ef"),
]


@pytest.mark.parametrize("args, sha", GEN_SHA256,
                         ids=[" ".join(a) for a, _ in GEN_SHA256])
def test_gen_bytes_pinned(tmp_path, capsys, args, sha):
    out = tmp_path / "inst.json"
    assert main(["gen", "--family", *args, "-o", str(out)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == sha


class TestArgumentTypes:
    """Sizes are integers, never bools or floats, and epsilon is a
    Fraction: anything else is a ValueError naming the argument."""

    @pytest.mark.parametrize("n, m, name", [
        (True, 3, "n"), (2, True, "m"), (2.0, 3, "n"), (2, 3.0, "m"),
        (2, None, "m")])
    def test_random_sizes(self, n, m, name):
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            generate("random", n, m, distribution="uniform-rational", seed=0)
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            generate("random-subadditive", n, m, seed=0)

    @pytest.mark.parametrize("n", [True, False, 2.5, 2.0, "3"])
    def test_adversarial_size(self, n):
        with pytest.raises(ValueError, match="^n must be an integer"):
            generate("ef1-unscaled", n)

    @pytest.mark.parametrize("eps", ["1/2", 0.5, Decimal("0.5")])
    def test_epsilon_must_be_a_fraction(self, eps):
        for family in ("mms-unscaled", "supermodular"):
            with pytest.raises(ValueError,
                               match="^epsilon must be a Fraction"):
                generate(family, 3, epsilon=eps)


class TestRescaleValidates:
    """`rescale_instance` validates its input, so a negative value raises
    the loader's error with its witness."""

    @pytest.mark.parametrize("values, good", [
        ((1, -1), 2), ((-1, -1), 1)])
    def test_negative_value_refused(self, values, good):
        inst = Instance(n=2, m=2, valuations=(
            Valuation.additive([Fraction(1), Fraction(1)]),
            Valuation.additive([Fraction(x) for x in values])))
        with pytest.raises(ValidationError) as err:
            rescale_instance(inst)
        assert (err.value.axiom, err.value.agent, err.value.witness) == \
            ("nonnegative", 2, (good,))

    def test_all_zero_agent_refused(self):
        inst = Instance(n=1, m=2, valuations=(
            Valuation.additive([Fraction(0), Fraction(0)]),))
        with pytest.raises(ValidationError) as err:
            rescale_instance(inst)
        assert (err.value.axiom, err.value.agent) == ("rescale", 1)
