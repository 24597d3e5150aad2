"""Half-MMS solvers: greedy singleton loop accounting, permanent/temporary
set discipline, theorem bounds."""

import random
from fractions import Fraction

import pytest

import fairdiv.mms
from fairdiv import (Allocation, Event, FamilySpec, MmsProfile,
                     ValidationError, generate_adversarial, generate_random,
                     injected_profile, is_alpha_mms, is_prop1, max_welfare,
                     mms_lower_bound, mms_profile, prop1_subroutine,
                     rescale_instance, run_mms_abs, run_mms_high,
                     run_solve_half_mms, social_welfare)
from fairdiv.exact import sqrt_ge
from fairdiv.model import ZERO

from conftest import (additive_instance, alarm, diagonal, naive_run_mms_abs,
                      naive_run_mms_high, tie_corpus)


def total_value(inst):
    return sum((inst.total_value(i) for i in range(inst.n)), ZERO)


class TestProp1Subroutine:
    def test_single_agent_takes_all(self):
        inst = additive_instance([["1", "2"], ["3", "4"]])
        alloc = prop1_subroutine(inst, [1], [0, 1])
        assert alloc.bundles[1] == frozenset({0, 1})
        assert alloc.bundles[0] == frozenset()

    def test_descending_identical_values(self):
        inst = additive_instance([["3", "2", "1", "0"], ["3", "2", "1", "0"]])
        alloc = prop1_subroutine(inst, [0, 1], [0, 1, 2, 3])
        assert alloc.bundles[0] == frozenset({0, 2})
        assert alloc.bundles[1] == frozenset({1, 3})
        assert is_prop1(inst, alloc, agents=[0, 1], goods=[0, 1, 2, 3]).holds

    def test_round_robin_is_scoped_prop1(self):
        rng = random.Random(61)
        for _ in range(500):
            n = rng.randint(1, 4)
            m = rng.randint(1, 8)
            inst = generate_random(n, m, "uniform-rational",
                                   seed=rng.randint(0, 10 ** 9))
            agents = sorted(rng.sample(range(n), rng.randint(1, n)))
            goods = sorted(g for g in range(m) if rng.random() < 0.8)
            alloc = prop1_subroutine(inst, agents, goods)
            assert is_prop1(inst, alloc, agents=agents, goods=goods).holds

    def test_empty_goods(self):
        inst = additive_instance([["1", "1"]])
        alloc = prop1_subroutine(inst, [0], [])
        assert alloc.bundles[0] == frozenset()

    @pytest.mark.parametrize("agents, goods", [
        ([], [0]), ([0, 0], [0, 1, 2]), ([-1], [0]), ([True], [0]),
        ([2], [0]), ([5], [0]), ([0], [-1]), ([0], [True]), ([0], [3]),
        ([0], [[1]]),
    ], ids=["no-agent", "agent-repeated", "agent-negative", "agent-bool",
            "agent-n", "agent-beyond-n", "good-negative", "good-bool",
            "good-m", "good-unhashable"])
    def test_scope_outside_the_instance_rejected(self, agents, goods):
        # Under an alarm, so that a scope the loop never finishes fails.
        inst = additive_instance([["1", "2", "3"], ["3", "2", "1"]])
        with alarm(2), pytest.raises(ValueError):
            prop1_subroutine(inst, agents, goods)

    def test_goods_are_a_set(self):
        inst = additive_instance([["1", "2", "3"], ["3", "2", "1"]])
        with alarm(2):
            assert prop1_subroutine(inst, [1, 0], [2, 0, 0]) == \
                prop1_subroutine(inst, [0, 1], [0, 2])


class TestAbs:
    def test_one_good_per_agent_on_identical_goods(self):
        inst = generate_adversarial(FamilySpec("mms-unscaled", 4,
                                               epsilon=Fraction(1, 10)))
        run = run_mms_abs(inst)
        assert all(len(b) == 1 for b in run.allocation.bundles)
        # Highest-value eligible pair first: agent 1 grabs good 1.
        assert run.trace[0] == Event("singleton", 0, (0,), "")
        profile = mms_profile(inst)
        assert is_alpha_mms(inst, run.allocation, Fraction(1, 2),
                            profile).holds

    def test_single_agent_takes_all(self):
        inst = additive_instance([["1", "2", "0"]])
        alloc = run_mms_abs(inst).allocation
        assert alloc.bundles[0] == frozenset({0, 1, 2})

    def test_random_corpus_half_mms_and_welfare(self):
        rng = random.Random(67)
        for _ in range(120):
            n = rng.randint(1, 4)
            m = rng.randint(1, 8)
            inst = generate_random(n, m, "uniform-rational",
                                   seed=rng.randint(0, 10 ** 9))
            alloc = run_mms_abs(inst).allocation
            assert alloc.is_complete(inst.m)
            profile = mms_profile(inst)
            assert is_alpha_mms(inst, alloc, Fraction(1, 2), profile).holds
            assert 3 * inst.n * social_welfare(inst, alloc) >= total_value(inst)

    def test_matches_fraction_reference(self):
        # Ties everywhere: the pick across agents must resolve exactly as
        # in Fractions, and so must the round-robin remainder.
        phases = set()
        for inst in tie_corpus(300, seed=7, kinds=("additive",)):
            run = run_mms_abs(inst)
            assert (run.allocation, run.trace) == naive_run_mms_abs(inst)
            phases |= {e.phase for e in run.trace}
        assert phases == {"singleton", "leftover"}

    def test_share_accounting_along_trace(self):
        # Replays the singleton trace and checks the per-iteration share
        # inequality sum_{k<=j} v_k(B_k)/(n-k+1) + v_i(rest)/(n-j)
        # >= v_i([m])/n for every agent not yet served.
        rng = random.Random(71)
        for _ in range(60):
            n = rng.randint(2, 4)
            m = rng.randint(2, 8)
            inst = generate_random(n, m, "uniform-rational",
                                   seed=rng.randint(0, 10 ** 9))
            run = run_mms_abs(inst)
            singles = [e for e in run.trace if e.phase == "singleton"]
            prefix = ZERO
            assigned: set[int] = set()
            served: set[int] = set()
            for j, (_, agent, (good,), _) in enumerate(singles, start=1):
                prefix += inst.value(agent, {good}) / (n - j + 1)
                assigned.add(good)
                served.add(agent)
                rest = frozenset(range(m)) - assigned
                for i in range(n):
                    if i in served:
                        continue
                    lhs = prefix + inst.value(i, rest) / (n - j)
                    assert lhs >= inst.total_value(i) / n


class TestHigh:
    def test_zero_mms_agent_enters_permanent_with_empty_bundle(self):
        # Agent 2 values one good only (zero MMS with n = 3); the welfare
        # optimum gives her nothing, so she lands in P immediately.
        inst = additive_instance([
            ["1/2", "1/4", "1/4"],
            ["0", "1", "0"],
            ["1/3", "1/3", "1/3"],
        ], scaled=True)
        profile = mms_profile(inst)
        run = run_mms_high(inst, profile)
        assert ("zero-mms", 0, (), "P") not in run.trace  # agent 1 has MMS > 0
        zero_events = [e for e in run.trace if e[0] == "zero-mms"]
        assert zero_events and all(e[3] in ("P", "T") for e in zero_events)
        assert run.allocation.is_complete(inst.m)

    def test_zero_mms_zero_reference_enters_p_with_empty_bundle(self):
        # Agents 1 and 2 want only good 1; the welfare optimum breaks the
        # tie toward agent 1, leaving agent 2 a worthless (empty) reference
        # bundle: she joins the permanent set immediately, bundle-less.
        inst = additive_instance([
            ["1", "0", "0"],
            ["1", "0", "0"],
            ["0", "1/2", "1/2"],
        ], scaled=True)
        profile = mms_profile(inst)
        assert profile.mms == (ZERO, ZERO, ZERO)
        run = run_mms_high(inst, profile)
        assert ("zero-mms", 1, (), "P") in run.trace
        assert 1 in run.permanent
        assert run.allocation.bundles[1] == frozenset()
        assert run.allocation.is_complete(inst.m)

    def test_terminal_cover_and_temporary_cap(self, debug_mode):
        for seed in range(20):
            inst = generate_random(4, 8, "dirichlet-scaled", seed=seed)
            profile = mms_profile(inst)
            run = run_mms_high(inst, profile)
            assert run.permanent | run.temporary == frozenset(range(4))
            assert not (run.permanent & run.temporary)
            assert sqrt_ge(Fraction(4), Fraction(len(run.temporary)), 4)

    def test_half_mms_with_exact_estimates(self, debug_mode):
        for seed in range(20):
            inst = generate_random(4, 8, "dirichlet-scaled", seed=seed + 100)
            profile = mms_profile(inst)
            alloc = run_mms_high(inst, profile).allocation
            assert is_alpha_mms(inst, alloc, Fraction(1, 2), profile).holds

    def test_epsilon_estimates_keep_welfare_inequality(self):
        for seed in range(10):
            inst = generate_random(4, 8, "dirichlet-scaled", seed=seed + 300)
            profile = mms_profile(inst, epsilon=Fraction(1, 5))
            run = run_mms_high(inst, profile)
            _, opt = max_welfare(inst)
            sw = social_welfare(inst, run.allocation)
            assert sqrt_ge(3 * sw + 4, opt, inst.n)
            half_minus = Fraction(1, 2) - Fraction(1, 5)
            assert is_alpha_mms(inst, run.allocation, half_minus,
                                profile).holds

    def test_unscaled_rejected(self):
        inst = additive_instance([["1", "2"], ["2", "1"]])
        profile = injected_profile([ZERO, ZERO])
        with pytest.raises(ValidationError):
            run_mms_high(inst, profile)

    def test_injected_lpt_estimates_at_larger_n(self):
        # Beyond the exact-oracle comfort zone the solver runs on injected
        # lower bounds (minimum bundle of a concrete greedy partition).
        inst = generate_random(9, 18, "dirichlet-scaled", seed=7)
        z = [mms_lower_bound(inst.valuations[i], inst.n)
             for i in range(inst.n)]
        run = run_mms_high(inst, injected_profile(z))
        assert run.permanent | run.temporary == frozenset(range(inst.n))
        assert sqrt_ge(Fraction(4), Fraction(len(run.temporary)), inst.n)
        _, opt = max_welfare(inst)
        sw = social_welfare(inst, run.allocation)
        assert sqrt_ge(3 * sw + 4, opt, inst.n)
        for i in range(inst.n):
            assert 2 * inst.value(i, run.allocation.bundles[i]) >= z[i]

    def test_inconsistent_zero_mms_estimate_rejected(self):
        # Agent 1 values a single good (MMS 0) but the injected estimate
        # claims a positive share.
        inst = additive_instance([["1", "0"], ["1/2", "1/2"]], scaled=True)
        with pytest.raises(ValidationError):
            run_mms_high(inst, injected_profile([Fraction(1, 4),
                                                 Fraction(1, 4)]))

    def test_matches_fraction_reference(self):
        # Whole runs, traces and gamma sets included: exact and degraded
        # estimates on rescaled tie-heavy instances, and injected lower
        # bounds (scaled by 1, 3/4 and 1/2) on larger ones, where swaps
        # followed by further accumulation are common.
        rng = random.Random(3)
        cases = []
        for inst in tie_corpus(300, seed=3, kinds=("additive",)):
            if inst.m and all(any(v.values) for v in inst.valuations):
                inst = rescale_instance(inst)
                cases += [(inst, mms_profile(inst)),
                          (inst, mms_profile(inst, Fraction(1, 3)))]
        while len(cases) < 1000:
            n = rng.randint(2, 6)
            rows = [[rng.choice("0124") for _ in range(rng.randint(n, 14))]]
            rows += [[rng.choice("0124") for _ in rows[0]]
                     for _ in range(n - 1)]
            if any(set(row) == {"0"} for row in rows):
                continue
            inst = rescale_instance(additive_instance(rows))
            z = [mms_lower_bound(v, n) for v in inst.valuations]
            cases += [(inst, injected_profile([x * k for x in z]))
                      for k in (1, Fraction(3, 4), Fraction(1, 2))]
        events = set()
        for inst, profile in cases:
            run = run_mms_high(inst, profile)
            assert (run.allocation, run.permanent, run.temporary,
                    run.trace, run.gamma_single, run.gamma_hard) == \
                naive_run_mms_high(inst, profile)
            events |= {event for event, *_ in run.trace}
        assert {"swap", "accumulate", "leftover"} <= events

    @pytest.mark.parametrize("wstar, axiom", [
        ([[]] * 9, "complete"),
        ([[g] for g in range(8)] + [[8, 9]], "good-range"),
        ([[g] for g in range(8)], "bundle-count"),
    ], ids=["empty", "good-out-of-range", "too-few-bundles"])
    def test_wstar_must_be_a_complete_allocation(self, wstar, axiom):
        # An all-empty wstar once handed agent 1 every good; the other two
        # raised a bare IndexError.
        inst = diagonal(9)
        with pytest.raises(ValidationError) as err:
            run_mms_high(inst, mms_profile(inst), wstar=Allocation.of(wstar))
        assert err.value.axiom == axiom

    @pytest.mark.parametrize("profile", [
        injected_profile([Fraction(1, 4)]),
        injected_profile([Fraction(1, 4)] * 3),
        MmsProfile(mms=(Fraction(1, 2),)),
        MmsProfile(mms=(Fraction(1, 2),) * 3),
    ], ids=["estimates-short", "estimates-long", "mms-short", "mms-long"])
    def test_profile_length_must_match_agents(self, profile):
        inst = additive_instance([["1/2", "1/2"], ["1/2", "1/2"]],
                                 scaled=True)
        with pytest.raises(ValidationError) as err:
            run_mms_high(inst, profile)
        assert err.value.axiom == "mms-profile"


class TestSolve:
    def test_exact_epsilon_zero_is_half_mms(self):
        rng = random.Random(73)
        for _ in range(40):
            n = rng.randint(1, 4)
            m = rng.randint(1, 7)
            inst = generate_random(n, m, "dirichlet-scaled",
                                   seed=rng.randint(0, 10 ** 9))
            alloc = run_solve_half_mms(inst).allocation
            profile = mms_profile(inst)
            assert is_alpha_mms(inst, alloc, Fraction(1, 2), profile).holds

    def test_scaled_low_opt_uses_abs(self):
        inst = generate_random(4, 8, "dirichlet-scaled", seed=11)
        run = run_solve_half_mms(inst)
        assert run.branch == "abs"          # OPT <= n <= 5 sqrt(n) here
        assert 3 * run.welfare >= 1         # scaled floor of one third

    def test_unscaled_uses_abs(self):
        inst = generate_adversarial(FamilySpec("mms-unscaled", 3,
                                               epsilon=Fraction(1, 9)))
        run = run_solve_half_mms(inst)
        assert run.branch == "abs"
        assert 3 * inst.n * run.welfare >= total_value(inst)

    def test_high_branch_reached_when_opt_exceeds_five_sqrt(self):
        # 36 agents each valuing only their own good: OPT = 36 > 5*6, and
        # every maximin share is zero so the exact profile is instant.
        n = 36
        inst = diagonal(n)
        run = run_solve_half_mms(inst)
        assert run.branch == "high"
        assert run.welfare == 36
        assert sqrt_ge(15 * run.welfare, run.opt, n)

    def test_high_branch_computes_max_welfare_once(self, monkeypatch):
        # The solver hands its max-welfare allocation to run_mms_high as W*;
        # called without it, run_mms_high computes W* itself.
        calls = []

        def counted(inst):
            calls.append(inst)
            return max_welfare(inst)

        monkeypatch.setattr(fairdiv.mms, "max_welfare", counted)
        inst = diagonal(36)
        run = run_solve_half_mms(inst)
        assert run.branch == "high" and len(calls) == 1
        alone = run_mms_high(inst, mms_profile(inst))
        assert len(calls) == 2
        assert alone.allocation == run.allocation
        assert alone.trace == run.high_run.trace

    @pytest.mark.parametrize("epsilon", [Fraction(-1, 10), Fraction(1, 2),
                                         Fraction(3, 4), Fraction(1),
                                         Fraction(5)])
    @pytest.mark.parametrize("branch", ["abs", "high"])
    def test_epsilon_outside_half_rejected_on_both_branches(self, branch,
                                                            epsilon):
        # (1/2 - eps)-MMS is vacuous from eps = 1/2 on, whichever branch the
        # instance takes.
        inst = (generate_random(4, 8, "dirichlet-scaled", seed=1)
                if branch == "abs" else diagonal(36))
        assert run_solve_half_mms(inst, Fraction(49, 100)).branch == branch
        with pytest.raises(ValidationError) as err:
            run_solve_half_mms(inst, epsilon=epsilon)
        assert err.value.axiom == "epsilon"

    def test_fifteen_sqrt_bound_on_scaled_grid(self):
        for n in (4, 9):
            for seed in range(5):
                inst = generate_random(n, 2 * n, "dirichlet-scaled",
                                       seed=seed * 31 + n)
                run = run_solve_half_mms(inst)
                assert sqrt_ge(15 * run.welfare, run.opt, n)
