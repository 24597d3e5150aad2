"""Brute-force oracles against direct definition-level enumeration."""

import random
import re
from fractions import Fraction
from itertools import product

import pytest

from fairdiv import oracles
from fairdiv import (Allocation, InfeasibleError, Instance, MmsProfile,
                     ValidationError, Valuation, constrained_opt, generate,
                     injected_profile, is_alpha_mms, is_ef1, max_welfare,
                     mms_k, mms_lower_bound, mms_profile, price_of_fairness,
                     run_solve_half_mms, social_welfare, validate_instance)
from fairdiv.fairness import nonnegative_alpha
from fairdiv.experiment import _build_instance
from fairdiv.model import mask_goods

from conftest import (additive_instance, alarm, naive_constrained_opt,
                      naive_is_alpha_mms, naive_is_ef1, naive_is_prop1,
                      naive_max_welfare, naive_mms, naive_mms_lower_bound,
                      naive_round_robin, negative_corpus,
                      random_subadditive_corpus, reference_mms_k,
                      tie_corpus, twin_corpus)


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

    def test_matches_reference_dp(self, monkeypatch):
        # Tie-heavy additive, explicit and mixed corpora (unvalidated tables,
        # negative values) and dirichlet-scaled agents with enough goods for
        # the DP to run: every k up to n + 1, on all goods and on random
        # subsets. Both the closed bracket and the floored DP must answer.
        counts = {"greedy": 0, "dp": 0}

        def counted(name, fn):
            def wrapper(*args):
                counts[name] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(oracles, "_greedy_least",
                            counted("greedy", oracles._greedy_least))
        monkeypatch.setattr(oracles, "_subset_ints",
                            counted("dp", oracles._subset_ints))
        rng = random.Random(47)
        instances = (tie_corpus(600, seed=47) + twin_corpus(200, seed=53)
                     + negative_corpus(200, seed=59)
                     + [generate("random", rng.randint(2, 4),
                                 rng.randint(6, 11),
                                 distribution="dirichlet-scaled", seed=seed)
                        for seed in range(30)])
        for inst in instances:
            for v in inst.valuations:
                subsets = [None, [g for g in range(inst.m)
                                  if rng.random() < 0.7]]
                for k in range(1, inst.n + 2):
                    for goods in subsets:
                        assert mms_k(v, k, goods) == \
                            reference_mms_k(v, k, goods)
        closed = counts["greedy"] - counts["dp"]
        assert counts["dp"] >= 500 and closed >= 500

    def test_bracket_closes_without_dp_on_the_block_family(self,
                                                          monkeypatch):
        # Every mms-scaled-sqrt agent's greedy bracket is closed: lo = hi.
        expected = {n: [reference_mms_k(v, n) for v in generate(
            "mms-scaled-sqrt", n).valuations] for n in (4, 9)}

        def refused(*args):
            raise AssertionError("the DP ran")

        monkeypatch.setattr(oracles, "_subset_ints", refused)
        for n, shares in expected.items():
            inst = generate("mms-scaled-sqrt", n)
            assert list(mms_profile(inst).mms) == shares

    def test_explicit_kind(self):
        table = {frozenset(): Fraction(0)}
        for mask in range(1, 1 << 3):
            subset = frozenset(g for g in range(3) if mask >> g & 1)
            table[subset] = Fraction(min(len(subset), 2), 2)
        v = Valuation.explicit(3, table, subadditive=True)
        assert mms_k(v, 2) == naive_mms(v, 2)

    def test_explicit_subsets_match_naive(self):
        # Unvalidated monotone tables, some valuing the empty set above 0,
        # over random subsets, some with fewer goods than bundles.
        rng = random.Random(41)
        nonzero_empty = too_few = 0
        for inst in tie_corpus(120, seed=41, kinds=("explicit",)):
            for v in inst.valuations:
                nonzero_empty += v.kernel[0] > 0
                for k in (2, 3):
                    goods = [g for g in range(inst.m) if rng.random() < 0.8]
                    assert mms_k(v, k, goods) == naive_mms(v, k, goods)
                    too_few += v.kernel[0] > 0 and len(goods) < k
        assert nonzero_empty >= 20 and too_few >= 10

    def test_fewer_goods_than_bundles_keeps_empty_value(self):
        # Every 2-partition of one good holds an empty bundle worth 1.
        v = Valuation.explicit(1, {frozenset(): Fraction(1),
                                   frozenset({0}): Fraction(2)})
        assert mms_k(v, 2, [0]) == naive_mms(v, 2, [0]) == 1

    def test_cap(self):
        v = Valuation.additive([Fraction(1)] * 10)
        with pytest.raises(InfeasibleError):
            mms_k(v, 4, cap=100)

    @pytest.mark.parametrize("oracle", [mms_k, mms_lower_bound])
    @pytest.mark.parametrize("kind", ["additive", "explicit"])
    def test_goods_out_of_range_rejected(self, oracle, kind):
        v = (Valuation.additive([Fraction(1), Fraction(2)]) if kind == "additive"
             else Valuation.explicit(2, {frozenset({0}): Fraction(1),
                                         frozenset({1}): Fraction(2),
                                         frozenset({0, 1}): Fraction(3)}))
        # A bool is an int in Python, but not a good; nor is a list.
        for goods in ([-1, 0], [0, 2], [True, 0], [True], [[1]], [0, [1]]):
            for k in (1, 2, 3):
                with pytest.raises(ValueError, match="not within 0..1"):
                    oracle(v, k, goods)

    @pytest.mark.parametrize("oracle", [mms_k, mms_lower_bound])
    @pytest.mark.parametrize("k", [True, 1.5, 2.0, 0, -1])
    def test_k_must_be_a_positive_integer(self, oracle, k):
        # True would count as k = 1, and 2.0 as a float bundle count.
        v = Valuation.additive([1, 2, 3])
        with pytest.raises(ValueError, match="must be a positive integer"):
            oracle(v, k)

    def test_lower_bound_matches_fraction_reference(self):
        # Tie-heavy corpora with unvalidated tables (v of the empty set may
        # be above 0): every k up to n + 1, on all goods, on the empty set
        # and on random subsets.
        rng = random.Random(5)
        instances = tie_corpus(1500, seed=99) + twin_corpus(400, seed=3)
        calls = nonzero_empty = 0
        for inst in instances:
            for v in inst.valuations:
                nonzero_empty += v.kind == "explicit" and v.kernel[0] > 0
                subsets = [None, [], [g for g in range(inst.m)
                                      if rng.random() < 0.6]]
                for k in range(1, inst.n + 2):
                    for goods in subsets:
                        assert mms_lower_bound(v, k, goods) == \
                            naive_mms_lower_bound(v, k, goods)
                        calls += 1
        assert calls > 50000 and nonzero_empty > 100

    def test_lower_bound_matches_fraction_reference_at_large_k(self):
        # The least bundle comes off a heap; the reference scans every
        # bundle. Small alphabets tie many bundles at once.
        rng = random.Random(64)
        for k in (2, 7, 16, 33, 64):
            for alphabet in ((0, 1), (1, 2, 3), range(1000)):
                m = 2 * k + rng.randint(0, k)
                v = Valuation.additive([rng.choice(alphabet)
                                        for _ in range(m)])
                goods = [g for g in range(m) if rng.random() < 0.8]
                for subset in (None, goods):
                    assert mms_lower_bound(v, k, subset) == \
                        naive_mms_lower_bound(v, k, subset)
        for inst in tie_corpus(6, seed=64, kinds=("explicit",),
                               n_range=(1, 1), m_range=(10, 10)):
            v = inst.valuations[0]
            for k in (2, 5, 9):
                assert mms_lower_bound(v, k) == naive_mms_lower_bound(v, k)

    @pytest.mark.parametrize("kind", ["additive", "explicit"])
    def test_lower_bound_beyond_the_goods_returns_at_once(self, kind):
        # More bundles than goods: some bundle is empty, as in `mms_k`. A
        # greedy over k bundles would take seconds at this k.
        v = (Valuation.additive([Fraction(g + 1) for g in range(8)])
             if kind == "additive" else
             Valuation.explicit(1, {frozenset(): Fraction(1),
                                    frozenset({0}): Fraction(2)}))
        for k in (v.m + 1, 5 * 10 ** 6):
            with alarm(1):
                assert mms_lower_bound(v, k) == mms_k(v, k) == \
                    naive_mms_lower_bound(v, v.m + 1)

    def test_lower_bound_brackets(self):
        rng = random.Random(13)
        for _ in range(30):
            m = rng.randint(1, 6)
            k = rng.randint(1, 3)
            v = Valuation.additive([Fraction(rng.randint(0, 12), 4)
                                    for _ in range(m)])
            exact = mms_k(v, k)
            lower = mms_lower_bound(v, k)
            total = v.value(range(m))
            assert lower <= exact <= total / k


class TestMmsProfile:
    def test_high_low_unscaled(self):
        eps = Fraction(1, 10)
        inst = generate("mms-unscaled", 4, epsilon=eps)
        profile = mms_profile(inst)
        assert profile.mms == (Fraction(1), eps, eps, eps)

    def test_twin_agents_share_one_oracle_run(self, monkeypatch):
        # mms-scaled-sqrt(9): 3 block owners and 6 low agents, 4 distinct.
        inst = generate("mms-scaled-sqrt", 9)
        want = tuple(mms_k(v, inst.n) for v in inst.valuations)
        calls = []
        monkeypatch.setattr(oracles, "mms_k",
                            lambda v, k, cap: calls.append(v) or mms_k(v, k))
        assert mms_profile(inst).mms == want
        assert len(calls) == len(set(inst.valuations)) == 4

    def test_low_agent_scaled_share(self):
        inst = generate("mms-scaled-sqrt", 4)
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

    @pytest.mark.parametrize("mms, estimates", [((1, 1), (1,)),
                                                ((1,), (1, 1))])
    def test_mms_and_estimates_must_cover_the_same_agents(self, mms,
                                                          estimates):
        with pytest.raises(ValidationError) as err:
            MmsProfile(mms=tuple(map(Fraction, mms)),
                       estimates=tuple(map(Fraction, estimates)))
        assert err.value.axiom == "mms-profile"

    @pytest.mark.parametrize("build", [
        lambda z: injected_profile(z),
        lambda z: MmsProfile(mms=tuple(z)),
        lambda z: MmsProfile(mms=tuple(z), estimates=tuple(z)),
    ], ids=["injected", "mms", "both"])
    def test_negative_estimate_rejected_naming_the_agent(self, build):
        with pytest.raises(ValidationError) as err:
            build([Fraction(1, 10), Fraction(-1, 10), Fraction(1, 10)])
        assert err.value.axiom == "mms-profile" and err.value.agent == 2

    def test_estimates_default_to_the_exact_values(self):
        shares = (Fraction(1, 2), Fraction(1, 3))
        profile = MmsProfile(mms=shares)
        assert profile.estimates == shares
        assert [profile.z(i) for i in range(2)] == list(shares)

    def test_injected_profile_has_no_exact_values(self):
        profile = injected_profile([Fraction(1, 2)])
        assert profile.mms is None
        assert profile.z(0) == Fraction(1, 2)
        with pytest.raises(ValidationError, match="^missing profile entry"):
            profile.exact_mms(1)

    @pytest.mark.parametrize("kwargs, error", [
        ({"mms": None}, "profile needs mms values or injected estimates"),
        ({"mms": (Fraction(1),), "epsilon": Fraction(1)},
         "epsilon 1 outside [0, 1)"),
        ({"mms": (Fraction(1),), "epsilon": Fraction(-1, 2)},
         "epsilon -1/2 outside [0, 1)")],
        ids=["no-values", "epsilon-one", "epsilon-negative"])
    def test_refuses_a_profile_it_cannot_hold(self, kwargs, error):
        with pytest.raises(ValidationError, match=f"^{re.escape(error)}$"):
            MmsProfile(**kwargs)

    def test_exact_mms_must_cover_the_instance(self):
        profile = MmsProfile(mms=(Fraction(1, 2),))
        assert profile.exact_mms(1) == (Fraction(1, 2),)
        with pytest.raises(ValidationError,
                           match="^profile has 1 entries, instance has 2 "
                                 "agents$"):
            profile.exact_mms(2)

    @pytest.mark.parametrize("eps", [Fraction(1), Fraction(-1, 10)])
    def test_mms_profile_epsilon_range(self, eps):
        with pytest.raises(ValidationError,
                           match=f"^epsilon {eps} outside \\[0, 1\\)$"):
            mms_profile(additive_instance([[1, 1]]), epsilon=eps)


# An instance every entry below accepts with an exact alpha or epsilon.
TWO_AGENTS = additive_instance([[1, 2, 3], [3, 2, 1]])


class TestExactRationalArguments:
    """alpha, epsilon and an MMS profile's values are exact rationals at
    every public entry: a float or a bool is a ValidationError naming the
    argument, never a value converted or read as 1."""

    ENTRIES = {
        "nonnegative_alpha": ("alpha", lambda x: nonnegative_alpha(x)),
        "is_alpha_mms": ("alpha", lambda x: is_alpha_mms(
            TWO_AGENTS, Allocation.of([[0], [1, 2]]), x,
            MmsProfile(mms=(Fraction(1), Fraction(1))))),
        "constrained_opt": ("alpha", lambda x: constrained_opt(
            TWO_AGENTS, "alpha-mms", alpha=x)),
        "price_of_fairness": ("alpha", lambda x: price_of_fairness(
            TWO_AGENTS, "alpha-mms", alpha=x)),
        "mms_profile": ("epsilon", lambda x: mms_profile(
            TWO_AGENTS, epsilon=x)),
        "MmsProfile-mms": ("mms", lambda x: MmsProfile(mms=(x,) * 2)),
        "MmsProfile-estimates": ("estimates", lambda x: MmsProfile(
            mms=None, estimates=(x,) * 2)),
        "MmsProfile-epsilon": ("epsilon", lambda x: MmsProfile(
            mms=(Fraction(1),) * 2, epsilon=x)),
        "injected_profile": ("estimates",
                             lambda x: injected_profile([x] * 2)),
        "injected_profile-epsilon": ("epsilon", lambda x: injected_profile(
            [Fraction(1)] * 2, epsilon=x)),
        "run_solve_half_mms": ("epsilon", lambda x: run_solve_half_mms(
            TWO_AGENTS, epsilon=x)),
    }

    @pytest.mark.parametrize("value", [0.1, True], ids=["float", "bool"])
    @pytest.mark.parametrize("entry", ENTRIES)
    def test_float_and_bool_refused(self, entry, value):
        name, call = self.ENTRIES[entry]
        with pytest.raises(ValidationError,
                           match=f"^{name} must be a Fraction or an integer, "
                                 f"got {value!r}$") as err:
            call(value)
        assert err.value.axiom == name

    @pytest.mark.parametrize("entry", ENTRIES)
    def test_integers_accepted(self, entry):
        self.ENTRIES[entry][1](0)

    def test_profile_values_stored_as_fractions(self):
        profile = injected_profile([1, Fraction(1, 2)], epsilon=0)
        assert [type(z) for z in profile.estimates] == [Fraction] * 2
        assert type(profile.epsilon) is Fraction


class TestMaxWelfare:
    def test_high_agent_takes_all(self):
        inst = generate("ef1-unscaled", 3)
        alloc, opt = max_welfare(inst)
        assert opt == 9
        assert alloc.bundles[0] == frozenset({0, 1, 2})

    def test_single_agent(self):
        inst = additive_instance([["1/2", "1/3"]])
        alloc, opt = max_welfare(inst)
        assert opt == Fraction(5, 6)
        assert alloc.bundles[0] == frozenset({0, 1})

    def test_block_family_floor_sqrt(self):
        inst = generate("mms-scaled-sqrt", 4)
        _, opt = max_welfare(inst)
        assert opt >= 2

    def test_additive_fast_path_vs_enumeration(self):
        rng = random.Random(19)
        for _ in range(25):
            n = rng.randint(1, 3)
            m = rng.randint(1, 6)
            inst = generate("random", n, m, distribution="uniform-rational",
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

    def test_additive_matches_fraction_reference(self):
        # The whole result, tie-break included: each good goes to the
        # lowest-indexed agent of maximal value, compared in Fractions.
        dens_differ = 0
        for inst in tie_corpus(400, seed=20261019, kinds=("additive",)):
            bundles = [set() for _ in range(inst.n)]
            for g in range(inst.m):
                vals = [v.values[g] for v in inst.valuations]
                bundles[vals.index(max(vals))].add(g)
            want = Allocation.of(bundles)
            assert max_welfare(inst) == (want, social_welfare(inst, want))
            dens_differ += len({v.den for v in inst.valuations}) > 1
        assert dens_differ >= 30


    @pytest.mark.parametrize("corpus", [
        # Unvalidated explicit and mixed tables: no prune.
        lambda: [inst for inst in tie_corpus(400, 20261018,
                                             kinds=("explicit", "mixed"))
                 if inst.n ** inst.m <= 3 ** 6],
        # Every explicit agent subadditive: the bound prune is on.
        lambda: random_subadditive_corpus(60, 3, 6, 7),
        # Supermodular tables, where no prune would be sound.
        lambda: [generate("supermodular", n, epsilon=Fraction(1, 100))
                 for n in (2, 3, 4)],
    ], ids=["tie-explicit-mixed", "subadditive", "supermodular"])
    def test_explicit_matches_naive_scan(self, corpus):
        # The whole result, tie-break included, against a scan of every
        # allocation in lexicographic order.
        for inst in corpus():
            assert max_welfare(inst) == naive_max_welfare(inst)


class TestConstrainedOpt:
    def test_unknown_property(self):
        with pytest.raises(ValueError, match="^unknown property 'ef2'; "
                                             "expected one of \\("):
            constrained_opt(additive_instance([[1, 1]]), "ef2")

    def test_single_agent_equals_opt(self):
        inst = additive_instance([["1/2", "1/3"]])
        _, opt = max_welfare(inst)
        _, cw = constrained_opt(inst, "ef1")
        assert cw == opt

    @pytest.mark.parametrize("prop", oracles.PROPERTIES)
    def test_single_agent_past_the_recursion_limit(self, prop):
        # One agent's only leaf is the round-robin seed, returned without a
        # search one level deep per good.
        inst = generate("random", 1, 1200, seed=1)
        alloc, welfare = constrained_opt(inst, prop)
        assert alloc == Allocation.of([range(1200)])
        assert welfare == inst.total_value(0) == max_welfare(inst)[1]

    @pytest.mark.parametrize("prop", ["ef1", "prop1"])
    @pytest.mark.parametrize("name, value", [
        ("alpha", Fraction(1, 3)),
        ("profile", MmsProfile(mms=(Fraction(1),) * 8))],
        ids=["alpha", "profile"])
    def test_alpha_and_profile_refused_outside_alpha_mms(self, prop, name,
                                                         value):
        # Refused before the cap check: 8^32 allocations exceed the cap.
        inst = generate("random", 8, 32, seed=1)
        with pytest.raises(ValueError, match=f"^{prop} takes no {name}$"):
            constrained_opt(inst, prop, **{name: value})
        with pytest.raises(InfeasibleError):
            constrained_opt(inst, prop, **{name: None})

    def test_high_agent_family_ef1_value(self):
        inst = generate("ef1-unscaled", 4)
        got = constrained_opt(inst, "ef1")
        want = naive_constrained_opt(inst, lambda a: is_ef1(inst, a).holds)
        assert got[1] == want[1] == Fraction(19, 4)

    def test_supermodular_ef1_welfare(self):
        inst = generate("supermodular", 3, epsilon=Fraction(1, 100))
        _, cw = constrained_opt(inst, "ef1")
        assert cw == Fraction(3, 100)

    def test_matches_naive_for_random_instances(self):
        rng = random.Random(29)
        for _ in range(10):
            n = rng.randint(1, 3)
            m = rng.randint(1, 4)
            inst = generate("random", n, m, distribution="uniform-rational",
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
        # Both oracles share one rule and message; with no goods there is
        # nothing to enumerate, so even cap 0 allows the empty allocation.
        empty = Valuation.explicit(0, {frozenset(): Fraction(0)})
        no_goods = Instance(2, 0, (empty, empty))
        two_goods = corpus_instance("subadditive", 2, 2, random.Random(0))
        for oracle in (max_welfare,
                       lambda inst, cap: constrained_opt(inst, "ef1",
                                                         cap=cap)):
            assert oracle(no_goods, cap=0) == (Allocation.of([[], []]), 0)
            with pytest.raises(InfeasibleError, match=(
                    r"^oracle infeasible: 2\^2 allocations exceed cap 3$")):
                oracle(two_goods, cap=3)

    def test_unsatisfiable_alpha_mms_returns_none(self):
        # An inflated injected profile makes full MMS unreachable.
        inst = additive_instance([["1"], ["1"]])
        profile = MmsProfile(mms=(Fraction(1), Fraction(1)))
        assert constrained_opt(inst, "alpha-mms", alpha=Fraction(1),
                               profile=profile) is None


class TestTwins:
    """The search skips leaves that only relabel twin agents or twin goods;
    its whole result must still be the first optimum of a full scan."""

    @pytest.mark.parametrize("kind", ["additive", "explicit", "mixed"])
    def test_matches_naive_scan(self, kind):
        rng = random.Random(kind)
        twin_agents = twin_goods = split_twins = 0
        for inst in twin_corpus(60, seed=11, kinds=(kind,)):
            if inst.n ** inst.m > 3 ** 6:
                continue
            rows = [(v.kernel, v.den) for v in inst.valuations]
            twin_agents += len(set(rows)) < inst.n
            if inst.additive:
                twin_goods += len(set(zip(*(r for r, _ in rows)))) < inst.m
            else:
                assert max_welfare(inst) == naive_max_welfare(inst)
            # Requirements scaled per agent, so twins often differ in them.
            alpha = rng.choice([Fraction(1, 2), Fraction(1)])
            shares = tuple(mms_k(v, inst.n) * rng.choice([0, 1, 1, 2])
                           for v in inst.valuations)
            split_twins += any(rows[a] == rows[b] and shares[a] != shares[b]
                               for a in range(inst.n) for b in range(a))
            checks = {
                "ef1": ({}, lambda a: naive_is_ef1(inst, a)),
                "prop1": ({}, lambda a: naive_is_prop1(inst, a)),
                "alpha-mms": (
                    {"alpha": alpha, "profile": MmsProfile(mms=shares)},
                    lambda a: naive_is_alpha_mms(inst, a, alpha, shares)),
            }
            for prop, (kwargs, passes) in checks.items():
                assert constrained_opt(inst, prop, **kwargs) == \
                    naive_constrained_opt(inst, passes), (prop, inst)
        assert twin_agents >= 30 and split_twins >= 5
        assert kind != "additive" or twin_goods >= 30

    def test_twins_with_different_requirements_stay_apart(self):
        # Equal agents, but only agent 2 must reach 2. Treated as twins,
        # agent 2 could not take good 1 before agent 1 holds a good, and no
        # allocation would pass.
        inst = additive_instance([[2, 1], [2, 1]])
        shares = (Fraction(0), Fraction(2))
        got = constrained_opt(inst, "alpha-mms", alpha=Fraction(1),
                              profile=MmsProfile(mms=shares))
        assert got == naive_constrained_opt(
            inst, lambda a: naive_is_alpha_mms(inst, a, 1, shares))
        assert got == (Allocation.of([{1}, {0}]), 3)


class TestRoundRobinSeed:
    """The search starts from a round-robin leaf that passes its own check;
    its welfare F sets the bound at F - 1."""

    def test_prunes_leaf_checks_on_the_sweep(self, monkeypatch):
        # Without the seed, the README sweep's random instances at seed 42
        # take 2,672 EF1 leaf checks, each one call of the EF1 decider; with
        # the round-robin seed alone, 452; with the seed climbed, 133, the
        # climb's own checks included.
        calls = 0
        check = oracles.ef1_failure

        def counted(*args):
            nonlocal calls
            calls += 1
            return check(*args)

        monkeypatch.setattr(oracles, "ef1_failure", counted)
        for index in range(3):
            job = {"family": "random", "distribution": "dirichlet-scaled",
                   "n": 4, "m": 8, "index": index}
            constrained_opt(_build_instance(job, 42)[1], "ef1")
        assert 0 < calls <= 150

    @pytest.mark.parametrize("prop", ["ef1", "prop1", "alpha-mms"])
    def test_earlier_tie_beats_the_seed(self, prop):
        # Round robin gives ({0, 2}, {1}); the lexicographically first
        # allocation of the same welfare and verdict is ({0, 1}, {2}).
        inst = additive_instance([[1, 1, 1], [1, 1, 1]])
        weights, tables = inst.rows(common=True)
        seed = oracles.round_robin(weights, tables, range(2), range(3))
        assert seed == [0b101, 0b010]
        assert constrained_opt(inst, prop) == (Allocation.of([{0, 1}, {2}]),
                                               3)

    def test_matches_marginal_gain_reference(self):
        # An explicit agent's pick depends on the bundle she already holds;
        # agents pick in the order given, over random scopes too.
        rng = random.Random(19)
        instances = (tie_corpus(300, seed=23, kinds=("explicit", "mixed"))
                     + twin_corpus(150, seed=29, kinds=("explicit", "mixed"))
                     + random_subadditive_corpus(100, 4, 6, seed=31))
        for inst in instances:
            weights, tables = inst.rows(common=True)
            agents = rng.sample(range(inst.n), rng.randint(1, inst.n))
            goods = [g for g in range(inst.m) if rng.random() < 0.7]
            for scope in ((range(inst.n), range(inst.m)), (agents, goods)):
                masks = oracles.round_robin(weights, tables, *scope)
                assert Allocation(tuple(map(mask_goods, masks))) == \
                    naive_round_robin(inst, *scope)


    def test_climb_ends_at_a_passing_local_optimum(self):
        # From the round-robin leaf, under an independent EF1 predicate: the
        # climbed leaf passes, its bookkeeping matches its bundles, welfare
        # never falls, and no single-good move of higher welfare passes.
        climbed = 0
        for inst in (tie_corpus(200, seed=61, n_range=(2, 4))
                     + random_subadditive_corpus(60, 3, 5, seed=67)):
            weights, tables = inst.rows(common=True)

            def passes(masks, owner=None, own=None):
                alloc = Allocation(tuple(map(mask_goods, masks)))
                return naive_is_ef1(inst, alloc)

            def values(masks):
                return [t[mask] if t is not None else
                        sum(w[g] for g in mask_goods(mask))
                        for w, t, mask in zip(weights, tables, masks)]

            masks = oracles.round_robin(weights, tables, range(inst.n),
                                        range(inst.m))
            if not passes(masks):
                continue
            owner = [next(i for i, mask in enumerate(masks) if mask >> g & 1)
                     for g in range(inst.m)]
            own = values(masks)
            start = sum(own)
            oracles._climb(weights, tables, masks, owner, own, passes)
            assert passes(masks) and own == values(masks)
            assert sum(own) >= start
            assert owner == [next(i for i, mask in enumerate(masks)
                                  if mask >> g & 1) for g in range(inst.m)]
            climbed += sum(own) > start
            for g, o in enumerate(owner):
                for a in range(inst.n):
                    moved = list(masks)
                    moved[o] ^= 1 << g
                    moved[a] |= 1 << g
                    assert a == o or sum(values(moved)) <= sum(own) or \
                        not passes(moved)
        assert climbed >= 20


class TestPriceOfFairness:
    def test_identical_agents_equal_goods(self):
        inst = additive_instance([["1/3"] * 3] * 3, scaled=True)
        assert price_of_fairness(inst, "ef1") == (1, 1)

    def test_supermodular_price(self):
        inst = generate("supermodular", 3, epsilon=Fraction(1, 100))
        _, price = price_of_fairness(inst, "ef1")
        assert price == Fraction(100, 3)
        assert price >= Fraction(1, 3 * Fraction(1, 100))

    def test_high_agent_family_price(self):
        inst = generate("ef1-unscaled", 4)
        assert price_of_fairness(inst, "ef1") == (16, Fraction(64, 19))

    def test_infinite_when_constraint_forces_zero(self):
        inst = additive_instance([["1"], ["1"]])
        profile = MmsProfile(mms=(Fraction(1), Fraction(1)))
        assert price_of_fairness(inst, "alpha-mms", alpha=Fraction(1),
                                 profile=profile) == (1, None)

    @pytest.mark.parametrize("prop", ["ef1", "prop1"])
    @pytest.mark.parametrize("name", ["alpha", "profile"])
    def test_alpha_and_profile_refused_before_either_search(
            self, prop, name, monkeypatch):
        def searched(*args, **kwargs):
            raise AssertionError("searched")

        for search in ("max_welfare", "_search", "mms_profile"):
            monkeypatch.setattr(oracles, search, searched)
        value = {"alpha": Fraction(1, 3),
                 "profile": MmsProfile(mms=(Fraction(1),) * 2)}[name]
        with pytest.raises(ValueError, match=f"^{prop} takes no {name}$"):
            price_of_fairness(additive_instance([[1, 2], [2, 1]]), prop,
                              **{name: value})


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
            inst = generate("random", n, m, distribution="uniform-rational",
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
                        inst.valuations[ell].value(bundle) > share:
                    ok = False
            if not ok:
                continue
            assigned = frozenset().union(*bundles.values()) if bundles else frozenset()
            rest = frozenset(range(m)) - assigned
            lhs = inst.valuations[ell].value(rest)
            assert lhs >= (n - len(subset)) * share
            checked += 1

    def test_averaging_upper_bound(self):
        rng = random.Random(43)
        for _ in range(30):
            n = rng.randint(1, 4)
            m = rng.randint(1, 7)
            inst = generate("random", n, m, distribution="uniform-rational",
                            seed=rng.randint(0, 10 ** 9))
            for i in range(n):
                assert mms_k(inst.valuations[i], n) <= inst.total_value(i) / n
