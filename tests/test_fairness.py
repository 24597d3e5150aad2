"""Fairness predicates against their definitions and known instances."""

import json
import random
from fractions import Fraction

import pytest

from fairdiv import (Allocation, MmsProfile, ValidationError, generate,
                     is_alpha_mms, is_ef1, is_prop1, social_welfare)

from fairdiv.model import json_text
from fairdiv.oracles import mms_profile

from conftest import (additive_instance, alarm, all_allocations,
                      naive_ef1_verdict, naive_is_ef1, naive_is_prop1,
                      naive_prop1_verdict, negative_corpus,
                      random_additive_corpus, random_allocation,
                      random_subadditive_corpus, reference_verdict_json,
                      tie_corpus, twin_corpus)


class TestSocialWelfare:
    def test_definition_unrolled(self):
        inst = additive_instance([["1/2", "1/2"], ["1/2", "1/2"]], scaled=True)
        alloc = Allocation.of([[0], [1]])
        assert social_welfare(inst, alloc) == 1

    def test_all_goods_to_high_agent(self):
        inst = generate("ef1-unscaled", 3)
        alloc = Allocation.of([[0, 1, 2], [], []])
        assert social_welfare(inst, alloc) == 9

    def test_scaled_block_optimum(self):
        # Square-root block family, n = 4: blocks to their owners plus the
        # extra good to a uniform agent is worth sqrt(n) + 1/(n+1).
        inst = generate("prop1-scaled", 4)
        alloc = Allocation.of([[0, 1], [2, 3], [4], []])
        assert social_welfare(inst, alloc) == 2 + Fraction(1, 5)

    def test_overlap_rejected(self):
        inst = additive_instance([["1", "1"], ["1", "1"]])
        with pytest.raises(ValidationError):
            social_welfare(inst, Allocation.of([[0, 1], [1]]))


class TestEf1:
    def test_singletons_hold(self):
        inst = generate("ef1-unscaled", 3)
        verdict = is_ef1(inst, Allocation.of([[0], [1], [2]]))
        assert verdict.holds
        assert len(verdict.certificate) == 6

    def test_everything_to_one_agent_fails(self):
        inst = generate("ef1-unscaled", 3)
        verdict = is_ef1(inst, Allocation.of([[0, 1, 2], [], []]))
        assert not verdict.holds
        assert verdict.witness["i"] == 2 and verdict.witness["j"] == 1

    def test_empty_allocation_holds(self):
        inst = generate("ef1-unscaled", 3)
        assert is_ef1(inst, Allocation.of([[], [], []])).holds

    def test_partial_allocation_supported(self):
        inst = additive_instance([["1", "5"], ["5", "1"]])
        assert is_ef1(inst, Allocation.of([[0], []])).holds

    def test_failure_witness_replays(self):
        inst = generate("ef1-unscaled", 3)
        verdict = is_ef1(inst, Allocation.of([[0, 1, 2], [], []]))
        w = verdict.witness
        i, j = w["i"] - 1, w["j"] - 1
        own = inst.valuations[i].value(frozenset())
        assert own == w["own"]
        bundle = frozenset({0, 1, 2})
        for comp in w["comparisons"]:
            removed = comp["removed"] - 1
            residual = inst.valuations[i].value(bundle - {removed})
            assert residual == comp["residual"]
            assert own < residual

    def test_agrees_with_reference_loop(self):
        rng = random.Random(5)
        for _ in range(30):
            n = rng.randint(1, 3)
            m = rng.randint(1, 5)
            inst = generate("random", n, m, distribution="uniform-rational",
                            seed=rng.randint(0, 10 ** 9))
            for alloc in all_allocations(n, m):
                assert is_ef1(inst, alloc).holds == naive_is_ef1(inst, alloc)

    def test_verdicts_match_fraction_reference(self):
        # Whole verdicts, certificates and failing witnesses included; the
        # negative values check that a bundle's top good starts below them.
        rng = random.Random(17)
        outcomes = set()
        for inst in (tie_corpus(300, seed=99) + twin_corpus(100, seed=5)
                     + negative_corpus(100, seed=7)):
            for partial in (True, False, True, False):
                alloc = random_allocation(rng, inst.n, inst.m, partial)
                verdict = is_ef1(inst, alloc)
                assert verdict.to_json() == \
                    naive_ef1_verdict(inst, alloc).to_json()
                outcomes.add(verdict.holds)
        assert outcomes == {True, False}


    def test_verdict_json_matches_generic_walk(self):
        # EF1 certificates render their pair keys directly; every verdict's
        # text is that of the generic walk through `json.dumps`.
        rng = random.Random(23)
        seen = set()
        for inst in (tie_corpus(100, seed=31) + twin_corpus(40, seed=37)
                     + [generate("random", 16, 64,
                                 distribution="dirichlet-scaled", seed=3)]):
            profile = mms_profile(inst) if inst.m <= 8 else None
            for partial in (True, False):
                alloc = random_allocation(rng, inst.n, inst.m, partial)
                verdicts = [is_ef1(inst, alloc)]
                if not partial:
                    verdicts.append(is_prop1(inst, alloc))
                    if profile is not None:
                        verdicts.append(is_alpha_mms(inst, alloc,
                                                     Fraction(1, 2), profile))
                for verdict in verdicts:
                    assert json_text(verdict.to_json()) == json.dumps(
                        reference_verdict_json(verdict), indent=2,
                        sort_keys=True) + "\n"
                    seen.add((verdict.prop, verdict.holds))
        assert {("ef1", True), ("ef1", False)} <= seen


class TestProp1:
    def test_single_agent_holds(self):
        inst = additive_instance([["1", "2", "3"]])
        assert is_prop1(inst, Allocation.of([[0, 1, 2]])).holds

    def test_prop1_unscaled_fails_for_agent_two(self):
        inst = generate("prop1-unscaled", 3)
        verdict = is_prop1(inst, Allocation.of([[0, 1, 2, 3], [], []]))
        assert not verdict.holds
        assert verdict.witness["agent"] == 2

    def test_ef1_implies_prop1_additive(self):
        rng = random.Random(11)
        for _ in range(25):
            n = rng.randint(1, 3)
            m = rng.randint(1, 5)
            inst = generate("random", n, m, distribution="uniform-rational",
                            seed=rng.randint(0, 10 ** 9))
            for alloc in all_allocations(n, m):
                if is_ef1(inst, alloc).holds:
                    assert is_prop1(inst, alloc).holds
                    assert naive_is_prop1(inst, alloc)

    def test_scoped_threshold(self):
        # Scope = agents {1}, goods {2, 3}: threshold is v(G)/1.
        inst = additive_instance([["1", "1", "1", "1"], ["1", "1", "1", "1"]])
        alloc = Allocation.of([[], [2, 3]])
        scoped = is_prop1(inst, alloc, agents=[1], goods=[2, 3])
        assert scoped.holds

    def test_witness_good_may_be_allocated(self):
        # Agent 1 holds nothing but adding agent 2's good reaches the share.
        inst = additive_instance([["1", "1"], ["1", "1"]])
        alloc = Allocation.of([[], [0, 1]])
        verdict = is_prop1(inst, alloc)
        assert verdict.holds

    def test_empty_scope_goods_vacuous(self):
        inst = additive_instance([["1"], ["1"]])
        alloc = Allocation.of([[], []])
        assert is_prop1(inst, alloc, agents=[0, 1], goods=[]).holds

    @pytest.mark.parametrize("scope", [
        {"agents": [0, 0]}, {"agents": [-1]}, {"agents": [2]},
        {"agents": [5]}, {"agents": [True]}, {"agents": []},
        {"goods": [2]}, {"goods": [-1]}, {"goods": [True]}, {"goods": [[1]]},
    ], ids=["agent-repeated", "agent-negative", "agent-n", "agent-beyond-n",
            "agent-bool", "no-agent", "good-m", "good-negative", "good-bool",
            "good-unhashable"])
    def test_scope_outside_the_instance_rejected(self, scope):
        # A repeated agent would raise k and so lower every threshold. The
        # alarm fails a scope that never finishes.
        inst = additive_instance([["1", "1"], ["1", "1"]])
        with alarm(2), pytest.raises(ValueError):
            is_prop1(inst, Allocation.of([[], [0, 1]]), **scope)

    def test_repeated_scope_goods_count_once(self):
        inst = additive_instance([["1", "1", "1", "1"]] * 2)
        alloc = Allocation.of([[], [0, 1, 2, 3]])
        verdict = is_prop1(inst, alloc, agents=[0], goods=[2, 0, 0, 1])
        assert not verdict.holds
        assert [c["added"] for c in verdict.witness["comparisons"]] == \
            [1, 2, 3]
        assert verdict == is_prop1(inst, alloc, agents=[0], goods=[0, 1, 2])

    def test_verdicts_match_fraction_reference(self):
        # Whole verdicts, certificates and failing witnesses included, on
        # random partial allocations under the default and random scopes.
        rng = random.Random(23)
        outcomes, certified = set(), set()
        instances = (tie_corpus(200, seed=31) + twin_corpus(100, seed=13)
                     + random_additive_corpus(40, 5, 8, seed=29)
                     + random_subadditive_corpus(30, 4, 6, seed=37)
                     + negative_corpus(100, seed=41))
        for inst in instances:
            for partial in (True, False, True):
                alloc = random_allocation(rng, inst.n, inst.m, partial)
                agents = rng.sample(range(inst.n), rng.randint(1, inst.n))
                goods = rng.sample(range(inst.m), rng.randint(0, inst.m))
                for scope in ({}, {"agents": agents, "goods": goods}):
                    verdict = is_prop1(inst, alloc, **scope)
                    assert verdict.to_json() == naive_prop1_verdict(
                        inst, alloc, **scope).to_json()
                    outcomes.add(verdict.holds)
                    certified |= {c["good"] for c in
                                  (verdict.certificate or {}).values()}
        assert outcomes == {True, False}
        assert len(certified) > 2


class TestAlphaMms:
    def test_alpha_zero_always_holds(self):
        inst = generate("ef1-unscaled", 3)
        profile = MmsProfile(mms=(Fraction(3), Fraction(1, 3), Fraction(1, 3)))
        verdict = is_alpha_mms(inst, Allocation.of([[], [], [0, 1, 2]]),
                               Fraction(0), profile)
        assert verdict.holds

    def test_one_good_each_half_mms(self):
        inst = generate("mms-unscaled", 3, epsilon=Fraction(1, 10))
        profile = MmsProfile(mms=(Fraction(1), Fraction(1, 10), Fraction(1, 10)))
        alloc = Allocation.of([[0], [1], [2]])
        assert is_alpha_mms(inst, alloc, Fraction(1, 2), profile).holds

    def test_starved_low_agent_fails(self):
        inst = generate("mms-scaled-sqrt", 4)
        profile = MmsProfile(mms=(Fraction(0), Fraction(0),
                                  Fraction(1, 4), Fraction(1, 4)))
        alloc = Allocation.of([[0, 1], [2, 3], [], []])
        verdict = is_alpha_mms(inst, alloc, Fraction(1, 2), profile)
        assert not verdict.holds
        assert verdict.witness["agent"] == 3

    def test_missing_profile_entries_rejected(self):
        inst = additive_instance([["1", "1"], ["1", "1"]])
        from fairdiv import injected_profile
        profile = injected_profile([Fraction(1), Fraction(1)])
        with pytest.raises(ValidationError):
            is_alpha_mms(inst, Allocation.of([[0], [1]]), Fraction(1, 2),
                         profile)

    def test_success_certificate_replays(self):
        inst = generate("mms-unscaled", 3, epsilon=Fraction(1, 10))
        profile = MmsProfile(mms=(Fraction(1), Fraction(1, 10), Fraction(1, 10)))
        alloc = Allocation.of([[0], [1], [2]])
        verdict = is_alpha_mms(inst, alloc, Fraction(1, 2), profile)
        for agent_1b, cert in verdict.certificate.items():
            own = inst.value(agent_1b - 1, alloc.bundles[agent_1b - 1])
            assert own == cert["own"] >= cert["required"]
