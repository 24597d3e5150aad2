"""Brute-force oracles against direct definition-level enumeration."""

import math
import random
from fractions import Fraction
from itertools import product

import pytest

from fairdiv import (Allocation, FamilySpec, InfeasibleError, Instance,
                     MmsProfile, ValidationError, Valuation, constrained_opt,
                     generate_adversarial, generate_random,
                     injected_profile, is_ef1, max_welfare, mms_k,
                     mms_lower_bound, mms_profile, price_of_fairness,
                     social_welfare, validate_instance, value_query)

from conftest import (additive_instance, naive_constrained_opt,
                      naive_is_alpha_mms, naive_is_ef1, naive_is_prop1,
                      naive_max_welfare, naive_mms,
                      random_subadditive_corpus, tie_corpus)


def corpus_instance(family, n, m, rng):
    """Unscaled instance over small value alphabets, so that welfare ties
    and exact ties in the fairness checks are common. Agents differ in
    scale, so the welfare optimum is often unfair. `additive` draws per-good
    values, `subadditive` clips their sum at a budget, and `supermodular`
    squares it (constrained_opt then cannot prune)."""
    valuations = []
    for _ in range(n):
        unit = Fraction(rng.choice([1, 2, 5]), rng.choice([1, 3]))
        base = [rng.randint(0, 3) * unit / 2 for _ in range(m)]
        if family == "additive":
            valuations.append(Valuation.additive(base))
            continue
        budget = max(base, default=0) + rng.randint(0, 3) * unit / 2
        table = {}
        for mask in range(1 << m):
            subset = frozenset(g for g in range(m) if mask >> g & 1)
            raw = sum((base[g] for g in subset), Fraction(0))
            table[subset] = min(raw, budget) if family == "subadditive" \
                else raw * raw
        valuations.append(Valuation.explicit(
            m, table, subadditive=family == "subadditive"))
    inst = Instance(n, m, tuple(valuations))
    validate_instance(inst)
    return inst


class TestMmsK:
    def test_single_bundle_is_total(self):
        v = Valuation.additive([Fraction(1, 3), Fraction(1, 2)])
        assert mms_k(v, 1) == Fraction(5, 6)

    def test_fewer_positive_goods_than_bundles(self):
        v = Valuation.additive([Fraction(1), Fraction(0), Fraction(0)])
        assert mms_k(v, 2) == 0

    def test_four_equal_goods_two_bundles(self):
        v = Valuation.additive([Fraction(1)] * 4)
        assert naive_mms(v, 2) == 2
        assert mms_k(v, 2) == 2

    def test_matches_naive_enumeration_additive(self):
        rng = random.Random(3)
        for _ in range(40):
            m = rng.randint(1, 6)
            k = rng.randint(1, 3)
            v = Valuation.additive([Fraction(rng.randint(0, 10), 5)
                                    for _ in range(m)])
            assert mms_k(v, k) == naive_mms(v, k)

    def test_matches_naive_on_subsets(self):
        rng = random.Random(7)
        for _ in range(20):
            m = rng.randint(2, 6)
            k = rng.randint(1, 3)
            v = Valuation.additive([Fraction(rng.randint(0, 10), 7)
                                    for _ in range(m)])
            goods = [g for g in range(m) if rng.random() < 0.7]
            assert mms_k(v, k, goods) == naive_mms(v, k, goods)

    def test_explicit_kind(self):
        table = {frozenset(): Fraction(0)}
        for mask in range(1, 1 << 3):
            subset = frozenset(g for g in range(3) if mask >> g & 1)
            table[subset] = Fraction(min(len(subset), 2), 2)
        v = Valuation.explicit(3, table, subadditive=True)
        assert mms_k(v, 2) == naive_mms(v, 2)

    def test_explicit_subsets_match_naive(self):
        # Unvalidated monotone tables, some valuing the empty set above 0,
        # over random subsets of at least k goods (with fewer, mms_k answers
        # 0 while every k-partition holds an empty bundle).
        rng = random.Random(41)
        nonzero_empty = 0
        for inst in tie_corpus(120, seed=41, kinds=("explicit",)):
            for v in inst.valuations:
                nonzero_empty += v.ints[0][0] > 0
                for k in (2, 3):
                    goods = [g for g in range(inst.m) if rng.random() < 0.8]
                    if len(goods) >= k:
                        assert mms_k(v, k, goods) == naive_mms(v, k, goods)
        assert nonzero_empty >= 20

    def test_cap(self):
        v = Valuation.additive([Fraction(1)] * 10)
        with pytest.raises(InfeasibleError):
            mms_k(v, 4, cap=100)

    def test_lower_bound_brackets(self):
        rng = random.Random(13)
        for _ in range(30):
            m = rng.randint(1, 6)
            k = rng.randint(1, 3)
            v = Valuation.additive([Fraction(rng.randint(0, 12), 4)
                                    for _ in range(m)])
            exact = mms_k(v, k)
            lower = mms_lower_bound(v, k)
            total = value_query(v, range(m))
            assert lower <= exact <= total / k


class TestMmsProfile:
    def test_high_low_unscaled(self):
        eps = Fraction(1, 10)
        inst = generate_adversarial(FamilySpec("mms-unscaled", 4, epsilon=eps))
        profile = mms_profile(inst)
        assert profile.mms == (Fraction(1), eps, eps, eps)

    def test_low_agent_scaled_share(self):
        inst = generate_adversarial(FamilySpec("mms-scaled-sqrt", 4))
        profile = mms_profile(inst)
        assert profile.mms[2] == Fraction(1, 4)
        assert profile.mms[3] == Fraction(1, 4)

    def test_identical_equal_goods(self):
        inst = additive_instance([["1/3"] * 3] * 3, scaled=True)
        profile = mms_profile(inst)
        assert profile.mms == (Fraction(1, 3),) * 3

    def test_epsilon_degradation(self):
        inst = additive_instance([["1", "1"], ["2", "2"]])
        profile = mms_profile(inst, epsilon=Fraction(1, 4))
        assert profile.estimates == tuple(Fraction(3, 4) * x
                                          for x in profile.mms)

    def test_bracket_invariant_enforced(self):
        with pytest.raises(ValidationError):
            MmsProfile(mms=(Fraction(1),), estimates=(Fraction(2),))
        with pytest.raises(ValidationError):
            MmsProfile(mms=(Fraction(1),), estimates=(Fraction(1, 2),),
                       epsilon=Fraction(1, 4))

    def test_injected_profile_has_no_exact_values(self):
        profile = injected_profile([Fraction(1, 2)])
        assert profile.mms is None
        assert profile.z(0) == Fraction(1, 2)


class TestMaxWelfare:
    def test_high_agent_takes_all(self):
        inst = generate_adversarial(FamilySpec("ef1-unscaled", 3))
        alloc, opt = max_welfare(inst)
        assert opt == 9
        assert alloc.bundles[0] == frozenset({0, 1, 2})

    def test_single_agent(self):
        inst = additive_instance([["1/2", "1/3"]])
        alloc, opt = max_welfare(inst)
        assert opt == Fraction(5, 6)
        assert alloc.bundles[0] == frozenset({0, 1})

    def test_block_family_floor_sqrt(self):
        inst = generate_adversarial(FamilySpec("mms-scaled-sqrt", 4))
        _, opt = max_welfare(inst)
        assert opt >= 2

    def test_additive_fast_path_vs_enumeration(self):
        rng = random.Random(19)
        for _ in range(25):
            n = rng.randint(1, 3)
            m = rng.randint(1, 6)
            inst = generate_random(n, m, "uniform-rational",
                                   seed=rng.randint(0, 10 ** 9))
            _, got = max_welfare(inst)
            _, want = naive_max_welfare(inst)
            assert got == want

    def test_explicit_enumeration(self):
        table = {frozenset(): Fraction(0)}
        for mask in range(1, 1 << 3):
            subset = frozenset(g for g in range(3) if mask >> g & 1)
            table[subset] = Fraction(min(len(subset), 2), 2)
        v = Valuation.explicit(3, table, subadditive=True)
        from fairdiv import Instance
        inst = Instance(2, 3, (v, v), scaled=False)
        _, got = max_welfare(inst)
        _, want = naive_max_welfare(inst)
        # Best split is 2 goods + 1 good: min(2,2)/2 + min(1,2)/2 = 3/2.
        assert got == want == Fraction(3, 2)


    @pytest.mark.parametrize("corpus", [
        # Unvalidated explicit and mixed tables: no prune.
        lambda: [inst for inst in tie_corpus(400, 20261018,
                                             kinds=("explicit", "mixed"))
                 if inst.n ** inst.m <= 3 ** 6],
        # Every explicit agent subadditive: the bound prune is on.
        lambda: random_subadditive_corpus(60, 3, 6, 7),
        # Supermodular tables, where no prune would be sound.
        lambda: [generate_adversarial(FamilySpec(
            "supermodular", n, epsilon=Fraction(1, 100))) for n in (2, 3, 4)],
    ], ids=["tie-explicit-mixed", "subadditive", "supermodular"])
    def test_explicit_matches_naive_scan(self, corpus):
        # The whole result, tie-break included, against a scan of every
        # allocation in lexicographic order.
        for inst in corpus():
            assert max_welfare(inst) == naive_max_welfare(inst)


class TestConstrainedOpt:
    def test_single_agent_equals_opt(self):
        inst = additive_instance([["1/2", "1/3"]])
        _, opt = max_welfare(inst)
        _, cw = constrained_opt(inst, "ef1")
        assert cw == opt

    def test_high_agent_family_ef1_value(self):
        inst = generate_adversarial(FamilySpec("ef1-unscaled", 4))
        got = constrained_opt(inst, "ef1")
        want = naive_constrained_opt(inst, lambda a: is_ef1(inst, a).holds)
        assert got[1] == want[1] == Fraction(19, 4)

    def test_supermodular_ef1_welfare(self):
        inst = generate_adversarial(FamilySpec("supermodular", 3,
                                               epsilon=Fraction(1, 100)))
        _, cw = constrained_opt(inst, "ef1")
        assert cw == Fraction(3, 100)

    def test_matches_naive_for_random_instances(self):
        rng = random.Random(29)
        for _ in range(10):
            n = rng.randint(1, 3)
            m = rng.randint(1, 4)
            inst = generate_random(n, m, "uniform-rational",
                                   seed=rng.randint(0, 10 ** 9))
            got = constrained_opt(inst, "ef1")
            want = naive_constrained_opt(inst,
                                         lambda a: is_ef1(inst, a).holds)
            assert got[1] == want[1]

    @pytest.mark.parametrize("prop", ["ef1", "prop1", "alpha-mms"])
    @pytest.mark.parametrize("family",
                             ["additive", "subadditive", "supermodular"])
    def test_equivalence_corpus(self, family, prop):
        # The whole result, tie-break included, against a scan of every
        # allocation in lexicographic order with definition-level checks.
        rng = random.Random(f"{family}-{prop}")
        for n, m, _ in product(range(1, 4), range(6), range(3)):
            inst = corpus_instance(family, n, m, rng)
            kwargs = {}
            if prop == "ef1":
                def passes(a):
                    return naive_is_ef1(inst, a)
            elif prop == "prop1":
                def passes(a):
                    return naive_is_prop1(inst, a)
            else:
                alpha = rng.choice([Fraction(1, 3), Fraction(1, 2),
                                    Fraction(1), Fraction(3, 2)])
                shares = tuple(naive_mms(v, n) for v in inst.valuations)
                kwargs = {"alpha": alpha, "profile": MmsProfile(mms=shares)}

                def passes(a):
                    return naive_is_alpha_mms(inst, a, alpha, shares)
            got = constrained_opt(inst, prop, **kwargs)
            assert got == naive_constrained_opt(inst, passes), (n, m)

    def test_prop1_added_good_is_not_an_owned_one(self):
        # Agent 1 holding only good 1 fails Prop1, as 2 * (3 + 2) < 11;
        # re-adding its own good 1 must not count as 2 * (3 + 3) >= 11.
        inst = additive_instance([[3, 2, 2, 2, 2], [10] * 5])
        got = constrained_opt(inst, "prop1")
        assert got == naive_constrained_opt(
            inst, lambda a: naive_is_prop1(inst, a))
        assert got[0].bundles[0] == frozenset({0, 1}) and got[1] == 35

    def test_alpha_mms_rejects_estimates_only_profile(self):
        inst = additive_instance([["1", "1"], ["1", "1"]])
        with pytest.raises(ValidationError):
            constrained_opt(inst, "alpha-mms",
                            profile=injected_profile([Fraction(1)] * 2))

    def test_infeasible_cap(self):
        inst = additive_instance([["1"] * 10] * 4)
        with pytest.raises(InfeasibleError):
            constrained_opt(inst, "ef1", cap=1000)

    def test_unsatisfiable_alpha_mms_returns_none(self):
        # An inflated injected profile makes full MMS unreachable.
        inst = additive_instance([["1"], ["1"]])
        profile = MmsProfile(mms=(Fraction(1), Fraction(1)))
        assert constrained_opt(inst, "alpha-mms", alpha=Fraction(1),
                               profile=profile) is None


class TestPriceOfFairness:
    def test_identical_agents_equal_goods(self):
        inst = additive_instance([["1/3"] * 3] * 3, scaled=True)
        assert price_of_fairness(inst, "ef1") == 1

    def test_supermodular_price(self):
        inst = generate_adversarial(FamilySpec("supermodular", 3,
                                               epsilon=Fraction(1, 100)))
        price = price_of_fairness(inst, "ef1")
        assert price == Fraction(100, 3)
        assert price >= Fraction(1, 3 * Fraction(1, 100))

    def test_high_agent_family_price(self):
        inst = generate_adversarial(FamilySpec("ef1-unscaled", 4))
        assert price_of_fairness(inst, "ef1") == Fraction(64, 19)

    def test_infinite_when_constraint_forces_zero(self):
        inst = additive_instance([["1"], ["1"]])
        profile = MmsProfile(mms=(Fraction(1), Fraction(1)))
        price = price_of_fairness(inst, "alpha-mms", alpha=Fraction(1),
                                  profile=profile)
        assert price == math.inf


class TestLemmaLevelInvariants:
    def test_mms_monotone_under_agent_good_removal(self):
        # Removing one good with one bundle never lowers the share.
        rng = random.Random(37)
        for _ in range(40):
            m = rng.randint(2, 7)
            k = rng.randint(2, 4)
            v = Valuation.additive([Fraction(rng.randint(0, 10), 3)
                                    for _ in range(m)])
            goods = list(range(m))
            g = rng.choice(goods)
            left = mms_k(v, k, goods)
            right = mms_k(v, k - 1, [x for x in goods if x != g])
            assert left <= right

    def test_residual_value_flow(self):
        # If every assigned bundle is a singleton or worth at most the
        # agent's share, the rest is worth at least (n - |S|) shares.
        rng = random.Random(41)
        checked = 0
        while checked < 40:
            n = rng.randint(2, 4)
            m = rng.randint(n, 7)
            inst = generate_random(n, m, "uniform-rational",
                                   seed=rng.randint(0, 10 ** 9))
            ell = rng.randrange(n)
            share = mms_k(inst.valuations[ell], n)
            others = [a for a in range(n) if a != ell]
            rng.shuffle(others)
            subset = others[:rng.randint(0, len(others))]
            pool = list(range(m))
            rng.shuffle(pool)
            bundles = {}
            ok = True
            for a in subset:
                size = rng.randint(1, 2)
                bundle, pool = frozenset(pool[:size]), pool[size:]
                bundles[a] = bundle
                if len(bundle) != 1 and \
                        value_query(inst.valuations[ell], bundle) > share:
                    ok = False
            if not ok:
                continue
            assigned = frozenset().union(*bundles.values()) if bundles else frozenset()
            rest = frozenset(range(m)) - assigned
            lhs = value_query(inst.valuations[ell], rest)
            assert lhs >= (n - len(subset)) * share
            checked += 1

    def test_averaging_upper_bound(self):
        rng = random.Random(43)
        for _ in range(30):
            n = rng.randint(1, 4)
            m = rng.randint(1, 7)
            inst = generate_random(n, m, "uniform-rational",
                                   seed=rng.randint(0, 10 ** 9))
            for i in range(n):
                assert mms_k(inst.valuations[i], n) <= inst.total_value(i) / n
