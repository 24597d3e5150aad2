"""EF1 solvers: absolute welfare floor, line-graph loop invariants,
best-of-two theorem bound."""

import random
from fractions import Fraction

import pytest

from fairdiv import (Allocation, FamilySpec, InfeasibleError, Instance,
                     LineOrder, ValidationError, Valuation, checks_enabled,
                     generate_adversarial, generate_random,
                     generate_random_subadditive, is_ef1, max_welfare,
                     reference_allocation, run_ef1_abs, run_ef1_high,
                     run_extend_ef1, run_solve_ef1, set_debug_checks,
                     social_welfare)
from fairdiv.exact import sqrt_ge
from fairdiv.model import ZERO

from conftest import (additive_instance, naive_ef1_high_loop, naive_is_ef1,
                      naive_validate_valuation, random_additive_corpus,
                      random_allocation, tie_corpus)


def total_value(inst):
    return sum((inst.total_value(i) for i in range(inst.n)), ZERO)


class TestLineOrder:
    def test_blocks_contiguous_in_agent_order(self):
        bundles = (frozenset({3, 1}), frozenset(), frozenset({0, 2}))
        line = LineOrder.from_reference(bundles, 4)
        assert line.order == (1, 3, 0, 2)
        for bundle in bundles:
            assert line.contiguous(bundle)

    def test_noncontiguous_detected(self):
        line = LineOrder.from_reference((frozenset({0, 1, 2, 3}),), 4)
        assert not line.contiguous({0, 2})


class TestAbs:
    def test_single_agent_gets_everything(self):
        inst = additive_instance([["1/2", "1/3", "1/6"]], scaled=True)
        alloc = run_ef1_abs(inst).allocation
        assert alloc.bundles[0] == frozenset({0, 1, 2})

    def test_opposed_preferences(self):
        inst = additive_instance([["1", "0"], ["0", "1"]])
        alloc = run_ef1_abs(inst).allocation
        assert social_welfare(inst, alloc) == 2

    def test_scaled_floor_half(self):
        inst = generate_adversarial(FamilySpec("mms-scaled-sqrt", 9))
        alloc = run_ef1_abs(inst).allocation
        assert social_welfare(inst, alloc) >= Fraction(1, 2)

    def test_welfare_floor_on_random_corpus(self):
        for inst in random_additive_corpus(60, n_max=5, m_max=8, seed=77):
            alloc = run_ef1_abs(inst).allocation
            assert is_ef1(inst, alloc).holds
            assert 2 * inst.n * social_welfare(inst, alloc) >= total_value(inst)

    def test_subadditive_corpus(self):
        rng = random.Random(555)
        for _ in range(15):
            inst = generate_random_subadditive(rng.randint(1, 3),
                                               rng.randint(1, 5),
                                               seed=rng.randint(0, 10 ** 9))
            alloc = run_ef1_abs(inst).allocation
            assert is_ef1(inst, alloc).holds
            assert 2 * inst.n * social_welfare(inst, alloc) >= total_value(inst)


class TestReferenceAllocation:
    def test_additive_is_exact_optimum(self):
        inst = generate_adversarial(FamilySpec("ef1-unscaled", 3))
        ref = reference_allocation(inst)
        _, opt = max_welfare(inst)
        assert social_welfare(inst, ref) == opt

    def test_explicit_small_is_exhaustive_optimum(self):
        inst = generate_adversarial(FamilySpec("supermodular", 3,
                                               epsilon=Fraction(1, 100)))
        ref = reference_allocation(inst)
        _, opt = max_welfare(inst)
        assert social_welfare(inst, ref) == opt

    def test_supplied_echoed(self):
        inst = additive_instance([["1", "0"], ["0", "1"]])
        supplied = Allocation.of([[0], [1]])
        assert reference_allocation(inst, supplied=supplied) == supplied

    def test_supplied_below_half_rejected(self):
        inst = additive_instance([["1", "0"], ["0", "1"]])
        bad = Allocation.of([[1], [0]])     # welfare 0 < OPT/2 = 1
        with pytest.raises(ValidationError):
            reference_allocation(inst, supplied=bad)

    def test_incomplete_supplied_rejected(self):
        inst = additive_instance([["1", "0"], ["0", "1"]])
        with pytest.raises(ValidationError):
            reference_allocation(inst, supplied=Allocation.of([[0], []]))


@pytest.mark.usefixtures("debug_mode")
class TestHigh:
    def test_single_agent(self):
        inst = additive_instance([["1/2", "1/2"]], scaled=True)
        ref = reference_allocation(inst)
        alloc = run_ef1_high(inst, ref).allocation
        assert alloc.bundles[0] == frozenset({0, 1})

    def test_loop_postcondition_no_envied_components(self):
        for seed in range(8):
            inst = generate_random(4, 8, "dirichlet-scaled", seed=seed)
            ref = reference_allocation(inst)
            run = run_ef1_high(inst, ref)
            # After the loop no agent prefers any unassigned component.
            assigned = run.partial.allocated()
            rest = sorted(frozenset(range(inst.m)) - assigned)
            components = []
            current = []
            line = LineOrder.from_reference(ref.bundles, inst.m)
            positions = {g: p for p, g in enumerate(line.order)}
            for g in sorted(rest, key=lambda g: positions[g]):
                if current and positions[g] == positions[current[-1]] + 1:
                    current.append(g)
                else:
                    if current:
                        components.append(current)
                    current = [g]
            if current:
                components.append(current)
            for comp in components:
                for i in range(inst.n):
                    assert inst.value(i, run.partial.bundles[i]) >= \
                        inst.value(i, comp)

    def test_iteration_envelope_and_ef1(self):
        for inst in random_additive_corpus(40, n_max=5, m_max=8, seed=333):
            ref = reference_allocation(inst)
            run = run_ef1_high(inst, ref)
            assert run.iterations <= inst.n * inst.m * inst.m
            assert is_ef1(inst, run.allocation).holds

    def test_partial_welfare_inequality_scaled(self):
        # sqrt(n) * (1 + 6 * SW(partial)) >= SW(reference) on scaled inputs.
        for seed in range(10):
            inst = generate_random(5, 9, "dirichlet-scaled", seed=seed + 50)
            ref = reference_allocation(inst)
            run = run_ef1_high(inst, ref)
            ref_welfare = social_welfare(inst, ref)
            partial_welfare = social_welfare(inst, run.partial)
            assert sqrt_ge(1 + 6 * partial_welfare, ref_welfare, inst.n)

    def test_value_monotone_along_trace(self):
        # Replay each trace: every reassigned agent strictly improves.
        # (Seed 4242 alone records no step; seeds 0..7 record 31.)
        steps = 0
        for seed in (4242, *range(8)):
            inst = generate_random(4, 8, "dirichlet-scaled", seed=seed)
            ref = reference_allocation(inst)
            run = run_ef1_high(inst, ref)
            lv_prev = {}
            for i, bundle in enumerate(ref.bundles):
                if bundle:
                    lv_prev[i] = max(inst.value(i, {g}) for g in bundle)
            for phase, k, goods, label in run.trace:
                assert (phase, label) == ("prefix", "")
                new_val = inst.value(k, goods)
                assert new_val > lv_prev.get(k, ZERO)
                lv_prev[k] = new_val
            steps += run.iterations
        assert steps >= 20

    def test_matches_fraction_reference(self):
        # The integer range values against Fraction value queries over
        # every range: same partial allocation and trace, on arbitrary
        # references.
        rng = random.Random(5)
        iterations = 0
        for inst in tie_corpus(240, seed=11):
            ref = random_allocation(rng, inst.n, inst.m, partial=False)
            run = run_ef1_high(inst, ref)
            partial, trace = naive_ef1_high_loop(inst, ref)
            assert (run.partial, run.trace, run.iterations) == \
                (partial, trace, len(trace))
            iterations += run.iterations
        assert iterations >= 100

    def test_matches_fraction_reference_at_scale(self):
        # The same comparison on runs long enough that components are cut,
        # merged and found unenvied many times over (dirichlet-scaled n = 16
        # and 32 from their optimal references), and on mixed additive and
        # explicit agents from arbitrary references.
        rng = random.Random(8)
        scaled = [generate_random(n, 4 * n, "dirichlet-scaled", seed=seed)
                  for n, seeds in ((16, range(1, 5)), (32, range(1, 3)))
                  for seed in seeds]
        runs = [(inst, reference_allocation(inst)) for inst in scaled]
        runs += [(inst, random_allocation(rng, inst.n, inst.m, partial=False))
                 for inst in tie_corpus(40, seed=17, kinds=("mixed",),
                                        n_range=(2, 5), m_range=(8, 10))]
        moves = []
        for inst, ref in runs:
            run = run_ef1_high(inst, ref)
            partial, trace = naive_ef1_high_loop(inst, ref)
            assert (run.partial, run.trace) == (partial, trace)
            # A step by an agent who already holds an interval releases it
            # back into the components.
            moves.append(len(trace) - len({event.agent for event in trace}))
        assert sum(moves[:len(scaled)]) >= 700
        assert sum(moves[len(scaled):]) >= 30


def ef1_solver_calls(inst, rng):
    ref = random_allocation(rng, inst.n, inst.m, partial=False)
    empty = Allocation.of([[]] * inst.n)
    return [lambda: run_extend_ef1(inst, empty)[0],
            lambda: run_ef1_abs(inst).allocation,
            lambda: run_ef1_high(inst, ref).allocation]


def test_non_monotone_valuations_rejected():
    """Explicit tables with every nonempty subset worth 0..3, mostly not
    monotone: every EF1 solver raises the loader's first monotonicity
    error (the same with debug checks on, before any of them fires), and
    on monotone tables answers EF1."""
    rng = random.Random(3)
    rejected = answered = 0
    for _ in range(600):
        n, m = rng.randint(2, 3), rng.randint(2, 5)
        valuations = []
        for _ in range(n):
            table = {frozenset(g for g in range(m) if mask >> g & 1):
                     Fraction(rng.randint(0, 3) if mask else 0)
                     for mask in range(1 << m)}
            valuations.append(Valuation.explicit(m, table))
        inst = Instance(n=n, m=m, valuations=tuple(valuations))
        try:
            for i, v in enumerate(valuations):
                naive_validate_valuation(v, i)
        except ValidationError as exc:
            want = (exc.axiom, exc.agent, exc.witness, str(exc))
            for call in ef1_solver_calls(inst, rng):
                with pytest.raises(ValidationError) as err:
                    call()
                got = err.value
                assert (got.axiom, got.agent, got.witness, str(got)) == want
            rejected += 1
        else:
            for call in ef1_solver_calls(inst, rng):
                assert naive_is_ef1(inst, call())
            answered += 1
    assert rejected >= 500 and answered >= 10


@pytest.mark.parametrize("debug", [False, True])
def test_negative_additive_value_rejected(debug):
    inst = additive_instance([[1, 1], [2, -1]])
    before = checks_enabled()
    set_debug_checks(debug)
    try:
        for call in ef1_solver_calls(inst, random.Random(1)):
            with pytest.raises(ValidationError) as err:
                call()
            assert (err.value.axiom, err.value.agent, err.value.witness) == \
                ("nonnegative", 2, (2,))
    finally:
        set_debug_checks(before)


class TestSolve:
    def test_identical_agents_ratio_one(self):
        inst = additive_instance([["1/3"] * 3] * 3, scaled=True)
        alloc = run_solve_ef1(inst).allocation
        _, opt = max_welfare(inst)
        assert social_welfare(inst, alloc) == opt

    def test_unscaled_routes_to_abs(self):
        inst = generate_adversarial(FamilySpec("ef1-unscaled", 3))
        run = run_solve_ef1(inst)
        assert run.branch == "abs"
        assert run.high_run is None
        assert 2 * inst.n * run.welfare >= total_value(inst)

    def test_scaled_sixteen_sqrt_bound(self):
        for seed in range(12):
            inst = generate_random(4, 8, "dirichlet-scaled", seed=seed + 400)
            run = run_solve_ef1(inst)
            _, opt = max_welfare(inst)
            assert is_ef1(inst, run.allocation).holds
            assert sqrt_ge(16 * run.welfare, opt, inst.n)

    def test_output_never_beats_constrained_opt(self):
        from fairdiv import constrained_opt
        for seed in range(6):
            inst = generate_random(3, 5, "dirichlet-scaled", seed=seed + 900)
            run = run_solve_ef1(inst)
            _, cw = constrained_opt(inst, "ef1")
            assert run.welfare <= cw
