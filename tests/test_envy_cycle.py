"""Envy-cycle extension: EF1 preservation, value monotonicity, termination."""

import random
from fractions import Fraction

import pytest

from fairdiv import (Allocation, Instance, ValidationError, Valuation,
                     checks_enabled, envy_cycle, generate_random, is_ef1,
                     reference_allocation, run_ef1_high, run_extend_ef1,
                     set_debug_checks, social_welfare)
from fairdiv.envy_cycle import Ef1Partial

from conftest import (additive_instance, naive_ef1_high_loop,
                      naive_ef1_verdict, naive_extend_ef1,
                      random_additive_corpus, random_allocation, tie_corpus)


class TestBasics:
    def test_complete_input_returned_unchanged(self):
        inst = additive_instance([["1", "2"], ["2", "1"]])
        alloc = Allocation.of([[1], [0]])
        assert run_extend_ef1(inst, alloc)[0] == alloc

    def test_from_empty_two_agents(self):
        inst = additive_instance([["1", "1"], ["1", "1"]])
        result, stats = run_extend_ef1(inst, Allocation.of([[], []]))
        assert all(len(b) == 1 for b in result.bundles)
        assert social_welfare(inst, result) == 2
        assert stats.additions == 2

    def test_non_ef1_input_rejected_with_witness(self):
        inst = additive_instance([["1", "1"], ["1", "1"]])
        with pytest.raises(ValidationError) as err:
            run_extend_ef1(inst, Allocation.of([[0, 1], []]))
        assert err.value.witness is not None

    def test_cycle_rotation_improves_both(self):
        # Mutual envy on singletons forces one rotation.
        inst = additive_instance([["1", "5", "1", "1"],
                                  ["5", "1", "1", "1"]])
        partial = Allocation.of([[0], [1]])
        result, stats = run_extend_ef1(inst, partial)
        assert stats.rotations >= 1
        assert is_ef1(inst, result).holds
        assert inst.valuations[0].value(result.bundles[0]) >= 1
        assert inst.valuations[1].value(result.bundles[1]) >= 1

    def test_monotone_valuations_supported(self):
        # Budget-additive explicit valuations (non-additive, monotone).
        from fairdiv import generate_random_subadditive
        inst = generate_random_subadditive(3, 5, seed=99)
        singles = Allocation.of([[0], [1], [2]])
        result, _ = run_extend_ef1(inst, singles)
        assert result.is_complete(inst.m)
        assert is_ef1(inst, result).holds
        for i in range(3):
            assert inst.valuations[i].value(result.bundles[i]) >= \
                inst.valuations[i].value(singles.bundles[i])

    def test_singletons_with_an_explicit_agent(self):
        # An explicit agent whose empty set is worth 1 still ends EF1 and
        # no worse off.
        inst = Instance(n=2, m=3, valuations=(
            Valuation.additive([Fraction(1), Fraction(2), Fraction(3)]),
            Valuation.explicit(3, {frozenset(s): Fraction(1 + len(s))
                                   for s in ((), (0,), (1,), (2,), (0, 1),
                                             (0, 2), (1, 2), (0, 1, 2))})))
        singles = Allocation.of([[2], [0]])
        result, stats = run_extend_ef1(inst, singles)
        assert result.is_complete(inst.m) and is_ef1(inst, result).holds
        assert (result, stats.rotations, stats.additions) == \
            naive_extend_ef1(inst, singles)

    def test_non_monotone_singletons_refused_before_any_work(self,
                                                             monkeypatch):
        inst = Instance(n=2, m=2, valuations=(
            Valuation.additive([Fraction(1), Fraction(1)]),
            Valuation.explicit(2, {frozenset({0}): Fraction(2),
                                   frozenset({1}): Fraction(1),
                                   frozenset({0, 1}): Fraction(1)})))

        def no_work(*args):
            raise AssertionError("ran before the monotonicity check")
        for name in ("is_ef1", "_find_cycle"):
            monkeypatch.setattr(envy_cycle, name, no_work)
        with pytest.raises(ValidationError) as err:
            run_extend_ef1(inst, Allocation.of([[0], []]))
        assert (err.value.axiom, err.value.agent) == ("monotone", 2)

    @pytest.mark.parametrize("bundles, axiom", [
        ([[0]], "bundle-count"), ([[0], [2]], "good-range"),
        ([[0], [0]], "disjoint-bundles")])
    def test_malformed_singletons_refused(self, bundles, axiom):
        inst = additive_instance([["1", "1"], ["1", "1"]])
        with pytest.raises(ValidationError) as err:
            run_extend_ef1(inst, Allocation.of(bundles))
        assert err.value.axiom == axiom


@pytest.mark.usefixtures("debug_mode")
class TestPropertyCorpus:
    def test_random_extensions(self):
        corpus = random_additive_corpus(60, n_max=4, m_max=7, seed=1234)
        rng = random.Random(99)
        for inst in corpus:
            # EF1 partial: a random subset of agents holding one good each.
            goods = list(range(inst.m))
            rng.shuffle(goods)
            bundles = [frozenset() for _ in range(inst.n)]
            for i in range(min(inst.n, rng.randint(0, inst.m))):
                bundles[i] = frozenset({goods[i]})
            partial = Allocation(tuple(bundles))
            result, stats = run_extend_ef1(inst, partial)
            assert result.is_complete(inst.m)
            assert is_ef1(inst, result).holds
            for i in range(inst.n):
                assert inst.valuations[i].value(result.bundles[i]) >= \
                    inst.valuations[i].value(partial.bundles[i])
            assert stats.steps <= inst.m * inst.n * inst.n


@pytest.mark.usefixtures("debug_mode")
def test_matches_full_rebuild_reference():
    """The incremental columns and envy graph against a full `Fraction`
    rebuild before every step: same allocation, same rotations and
    additions, and the same precondition witness when the partial input is
    not EF1. All-additive instances take the per-good column path; mixed
    and explicit ones read tables for their explicit agents."""
    rng = random.Random(31)
    rotations = {"additive": 0, "explicit": 0, "mixed": 0}
    failures = 0
    instances = tie_corpus(300, seed=2024) + tie_corpus(
        60, seed=2025, kinds=("mixed",), n_range=(3, 6), m_range=(6, 9))
    for inst in instances:
        kinds = {v.kind for v in inst.valuations}
        kind = "mixed" if len(kinds) > 1 else kinds.pop()
        goods = list(range(inst.m))
        rng.shuffle(goods)
        singles = [[g] for g in goods[:rng.randint(0, min(inst.n, inst.m))]]
        singles += [[]] * (inst.n - len(singles))
        for partial in (Allocation.of(singles),
                        Ef1Partial(Allocation.of(singles).bundles),
                        random_allocation(rng, inst.n, inst.m)):
            try:
                expected = naive_extend_ef1(inst, partial)
            except ValidationError as exc:
                with pytest.raises(ValidationError) as err:
                    run_extend_ef1(inst, partial)
                assert err.value.witness == exc.witness
                failures += 1
                continue
            result, stats = run_extend_ef1(inst, partial)
            assert (result, stats.rotations, stats.additions) == expected
            rotations[kind] += stats.rotations
    assert min(rotations.values()) >= 30 and failures >= 50


def test_cycle_after_a_rotation_avoids_the_receiver():
    """A hand-out to agent 1 closes the cycle (1 2). Once it is rotated,
    agents 2 and 3 envy each other: a cycle that avoids agent 1, which the
    extension finds through the rotated cycle's agents."""
    inst = additive_instance([[0, 2, 0, 0, 0, 1, 2], [0, 0, 2, 1, 1, 0, 2],
                              [3, 3, 3, 3, 1, 1, 3]])
    empty = Allocation.of([[], [], []])
    result, stats = run_extend_ef1(inst, empty)
    assert (result, stats.rotations, stats.additions) == \
        naive_extend_ef1(inst, empty)
    assert stats.rotations == 2


def test_no_cycle_search_comes_back_empty(monkeypatch):
    """Past the partial's graph, the extension searches for a cycle only
    when one is there: at most one `_find_cycle` call per rotation, plus the
    partial's last search, which finds none. Debug checks are off, since
    they add a full search per skip."""
    calls = []
    find_cycle = envy_cycle._find_cycle

    def counted(adj, n):
        calls.append(n)
        return find_cycle(adj, n)

    monkeypatch.setattr(envy_cycle, "_find_cycle", counted)
    rng = random.Random(45)
    rotations = 0
    before = checks_enabled()
    set_debug_checks(False)
    try:
        for inst in tie_corpus(200, seed=4545):
            goods = list(range(inst.m))
            rng.shuffle(goods)
            singles = [[g] for g in goods[:rng.randint(0, min(inst.n,
                                                               inst.m))]]
            singles += [[]] * (inst.n - len(singles))
            calls.clear()
            _, stats = run_extend_ef1(inst, Allocation.of(singles))
            assert len(calls) <= stats.rotations + 1
            rotations += stats.rotations
    finally:
        set_debug_checks(before)
    assert rotations >= 30


class TestEf1Partial:
    """A partial allocation a solver proved EF1 skips the EF1 decision,
    except under debug checks; any other partial is decided as before."""

    inst = additive_instance([["1", "1"], ["1", "1"]])
    unfair = [[0, 1], []]

    def test_plain_partial_still_decided(self):
        with pytest.raises(ValidationError) as err:
            run_extend_ef1(self.inst, Allocation.of(self.unfair))
        want = naive_ef1_verdict(self.inst, Allocation.of(self.unfair))
        assert err.value.axiom == "ef1-precondition"
        assert err.value.witness == want.witness

    def test_debug_checks_decide_a_vouched_partial(self, debug_mode):
        partial = Ef1Partial(Allocation.of(self.unfair).bundles)
        with pytest.raises(ValidationError) as err:
            run_extend_ef1(self.inst, partial)
        assert err.value.axiom == "ef1-precondition"

    def test_vouched_partial_is_not_decided(self, monkeypatch):
        calls = []
        monkeypatch.setattr(envy_cycle, "is_ef1",
                            lambda *args: calls.append(args))
        before = checks_enabled()
        set_debug_checks(False)
        try:
            result, _ = run_extend_ef1(
                self.inst, Ef1Partial(Allocation.of([[0], []]).bundles))
        finally:
            set_debug_checks(before)
        assert calls == [] and result == Allocation.of([[0], [1]])

    def test_high_run_partial_is_a_plain_allocation(self):
        # The loop hands its partial to the extension as an `Ef1Partial`;
        # the run record keeps a plain `Allocation`, equal to the
        # `Fraction` reference loop's.
        for seed in range(4):
            inst = generate_random(6, 18, "dirichlet-scaled", seed=seed)
            ref = reference_allocation(inst)
            run = run_ef1_high(inst, ref)
            partial, _ = naive_ef1_high_loop(inst, ref)
            assert type(run.partial) is Allocation
            assert run.partial == partial
