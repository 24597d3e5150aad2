"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. All tolerances are exact (rational or squared-cross-product); the
runtime budgets are asserted from wall-clock measurements of the work each
criterion covers.
"""

import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from fairdiv import (Allocation, FamilySpec, constrained_opt,
                     generate_adversarial, generate_random, injected_profile,
                     is_alpha_mms, is_ef1, max_welfare, mms_k,
                     mms_lower_bound, mms_profile, price_of_fairness,
                     reference_allocation, run_ef1_abs, run_ef1_high,
                     run_mms_abs, run_mms_high, run_solve_ef1,
                     run_solve_half_mms, social_welfare)
from fairdiv.exact import sqrt_ge
from fairdiv.model import ZERO

from conftest import (all_allocations, dense_blocks, random_additive_corpus,
                      random_subadditive_corpus)


@contextmanager
def criterion(num: int, label: str):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[criterion {num:2d}] {label}: FAIL "
              f"({time.perf_counter() - started:.1f}s)")
        raise
    print(f"[criterion {num:2d}] {label}: PASS "
          f"({time.perf_counter() - started:.1f}s)")


@pytest.fixture(scope="session")
def ef1_corpus():
    """1000 random additive (n <= 6, m <= 10) plus 200 explicit-subadditive
    (n <= 3, m <= 6) instances with all three EF1 solver runs each."""
    started = time.perf_counter()
    instances = random_additive_corpus(1000, n_max=6, m_max=10,
                                       seed=20260810)
    instances += random_subadditive_corpus(200, n_max=3, m_max=6, seed=926)
    runs = []
    for inst in instances:
        abs_run = run_ef1_abs(inst)
        high_run = run_ef1_high(inst, reference_allocation(inst))
        solve_run = run_solve_ef1(inst)
        runs.append((inst, abs_run, high_run, solve_run))
    return runs, time.perf_counter() - started


@pytest.fixture(scope="session")
def mms_corpus():
    """500 random additive instances (n <= 4, m <= 8) with exact profiles
    and both half-MMS solver outputs."""
    started = time.perf_counter()
    instances = random_additive_corpus(500, n_max=4, m_max=8, seed=31415)
    runs = []
    for inst in instances:
        profile = mms_profile(inst)
        abs_alloc = run_mms_abs(inst).allocation
        solve_alloc = run_solve_half_mms(inst, epsilon=ZERO).allocation
        runs.append((inst, profile, abs_alloc, solve_alloc))
    return runs, time.perf_counter() - started


def print_margin(label, inst, c, welfare, opt):
    """Prints the exact squared margin n*(c*SW)^2/OPT^2 of SW >=
    OPT/(c*sqrt(n)), which the theorem keeps at or above 1; the float is for
    reading only."""
    margin = inst.n * (c * welfare) ** 2 / opt ** 2
    print(f"    {label} n={inst.n}: squared margin {float(margin):.3f} "
          f"(floor 1 for c = {c})")


@pytest.fixture(scope="session")
def scaled_grid():
    """Dirichlet-scaled instances on the n in {4, 9, 16}, m = 2n grid."""
    grid = []
    for n in (4, 9, 16):
        for seed in range(5):
            grid.append(generate_random(n, 2 * n, "dirichlet-scaled",
                                        seed=1000 * n + seed))
    return grid


def test_criterion_1_ef1_soundness(ef1_corpus):
    runs, elapsed = ef1_corpus
    with criterion(1, "EF1 soundness on 1200-instance corpus"):
        assert len(runs) == 1200
        for inst, abs_run, high_run, solve_run in runs:
            assert is_ef1(inst, abs_run.allocation).holds
            assert is_ef1(inst, high_run.allocation).holds
            assert is_ef1(inst, solve_run.allocation).holds
        assert elapsed < 120, f"corpus took {elapsed:.1f}s, budget 120s"


def test_criterion_2_absolute_welfare_bounds(ef1_corpus):
    runs, _ = ef1_corpus
    with criterion(2, "absolute welfare floors (1/2n and 1/3n)"):
        started = time.perf_counter()
        for inst, abs_run, _, _ in runs:
            total = sum((inst.total_value(i) for i in range(inst.n)), ZERO)
            sw = social_welfare(inst, abs_run.allocation)
            assert 2 * inst.n * sw >= total
            if inst.additive:
                mms_sw = social_welfare(inst, run_mms_abs(inst).allocation)
                assert 3 * inst.n * mms_sw >= total
        assert time.perf_counter() - started < 120


def test_criterion_3_half_mms_against_oracle(mms_corpus):
    runs, elapsed = mms_corpus
    with criterion(3, "1/2-MMS soundness vs exact oracle (500 instances)"):
        assert len(runs) == 500
        for inst, profile, abs_alloc, solve_alloc in runs:
            assert is_alpha_mms(inst, abs_alloc, Fraction(1, 2),
                                profile).holds
            assert is_alpha_mms(inst, solve_alloc, Fraction(1, 2),
                                profile).holds
        assert elapsed < 300, f"corpus took {elapsed:.1f}s, budget 300s"


def test_criterion_4_scaled_ef1_bound(scaled_grid):
    with criterion(4, "scaled EF1 bound SW >= OPT/(16*sqrt(n))"):
        started = time.perf_counter()
        # On the grid OPT <= n <= 8*sqrt(n), so the bound already follows
        # from the 1/(2n) floor. Dense blocks have OPT > 8*sqrt(n): there the
        # check is independent of it.
        dense = [dense_blocks(n, 2) for n in (81, 100)]
        for inst in scaled_grid + dense:
            run = run_solve_ef1(inst)
            _, opt = max_welfare(inst)
            assert is_ef1(inst, run.allocation).holds
            assert sqrt_ge(16 * run.welfare, opt, inst.n)
            if inst in dense:
                assert not sqrt_ge(Fraction(8), opt, inst.n)
            print_margin("dense blocks" if inst in dense else "dirichlet",
                         inst, 16, run.welfare, opt)
        assert time.perf_counter() - started < 120


def test_criterion_5_scaled_half_mms_bound(scaled_grid):
    with criterion(5, "scaled 1/2-MMS bound and P/T discipline"):
        started = time.perf_counter()
        # On the grid OPT <= n <= 5*sqrt(n): the solver takes the absolute
        # branch and the bound follows from its 1/3 floor. Dense blocks have
        # OPT > 5*sqrt(n) and take the high branch.
        dense = [dense_blocks(n, 2) for n in (36, 49)]
        for inst in scaled_grid + dense:
            # Exact profile where the oracle is feasible, injected
            # constructive lower bounds beyond it.
            if inst.n <= 4:
                profile = mms_profile(inst)
            else:
                profile = injected_profile(
                    [mms_lower_bound(inst.valuations[i], inst.n)
                     for i in range(inst.n)])
            run = run_solve_half_mms(inst, epsilon=ZERO, profile=profile)
            assert sqrt_ge(15 * run.welfare, run.opt, inst.n)
            if inst in dense:
                assert not sqrt_ge(Fraction(5), run.opt, inst.n)
                assert run.branch == "high"
            print_margin("dense blocks" if inst in dense else "dirichlet",
                         inst, 15, run.welfare, run.opt)
            # Direct high-algorithm runs.
            high = run_mms_high(inst, profile)
            assert high.permanent | high.temporary == frozenset(range(inst.n))
            assert sqrt_ge(Fraction(4), Fraction(len(high.temporary)),
                           inst.n)
            high_sw = social_welfare(inst, high.allocation)
            assert sqrt_ge(3 * high_sw + 4, run.opt, inst.n)
            if inst.n <= 4:
                assert is_alpha_mms(inst, high.allocation, Fraction(1, 2),
                                    profile).holds
        assert time.perf_counter() - started < 120


def test_criterion_6_ef1_lower_bound_reproduction():
    with criterion(6, "unscaled EF1 gap instance: price 64/19"):
        started = time.perf_counter()
        inst = generate_adversarial(FamilySpec("ef1-unscaled", 4))
        _, opt = max_welfare(inst)
        assert opt == 16
        _, cw = constrained_opt(inst, "ef1")
        assert cw == Fraction(19, 4)
        _, price = price_of_fairness(inst, "ef1")
        assert price == Fraction(64, 19)
        assert price >= Fraction(16, 5)     # n^2/(n+1)
        assert time.perf_counter() - started < 1


def test_criterion_7_half_mms_lower_bound_reproduction():
    with criterion(7, "scaled 1/2-MMS gap instance and ratio growth"):
        started = time.perf_counter()
        inst = generate_adversarial(FamilySpec("mms-scaled-sqrt", 4))
        profile = mms_profile(inst)       # recomputed, not assumed
        low_agents = [i for i in range(4) if profile.mms[i] > 0]
        best_fair = None
        for alloc in all_allocations(4, 4):
            if not is_alpha_mms(inst, alloc, Fraction(1, 2), profile).holds:
                continue
            for low in low_agents:
                assert len(alloc.bundles[low]) >= 1
            welfare = social_welfare(inst, alloc)
            if best_fair is None or welfare > best_fair:
                best_fair = welfare
        assert best_fair is not None and best_fair <= 2
        assert time.perf_counter() - started < 1

        # Ratio growth across the grid; exact fair optimum at n = 4,
        # solver-bound mode beyond.
        _, opt4 = max_welfare(inst)
        ratios = [opt4 / best_fair]
        for n in (9, 16):
            big = generate_adversarial(FamilySpec("mms-scaled-sqrt", n))
            _, opt = max_welfare(big)
            run = run_solve_half_mms(big, epsilon=ZERO)
            ratios.append(opt / run.welfare)
        assert ratios[0] <= ratios[1] <= ratios[2]


def test_criterion_8_supermodular_reproduction():
    with criterion(8, "supermodular family: EF1 price 1/(n*eps)"):
        started = time.perf_counter()
        eps = Fraction(1, 100)
        inst = generate_adversarial(FamilySpec("supermodular", 3, epsilon=eps))
        _, opt = max_welfare(inst)
        assert opt == 1
        _, cw = constrained_opt(inst, "ef1")
        assert cw == Fraction(3, 100)
        _, price = price_of_fairness(inst, "ef1")
        assert price == Fraction(100, 3)
        assert price >= 1 / (3 * eps)
        assert time.perf_counter() - started < 1


def test_criterion_9_prop1_reproduction():
    with criterion(9, "Prop1 gap instances: welfare caps by search"):
        started = time.perf_counter()
        unscaled = generate_adversarial(FamilySpec("prop1-unscaled", 3))
        _, cw = constrained_opt(unscaled, "prop1")
        assert cw < 2 * 3 + 3
        scaled = generate_adversarial(FamilySpec("prop1-scaled", 4))
        _, cw_scaled = constrained_opt(scaled, "prop1")
        # (sqrt(n)+1)/sqrt(n) + (n - sqrt(n))/(n+1) with n = 4.
        assert cw_scaled <= Fraction(3, 2) + Fraction(2, 5)
        assert time.perf_counter() - started < 10


def test_criterion_10_lemma_level_invariants():
    import random as _random
    with criterion(10, "share monotonicity and residual-value flow"):
        started = time.perf_counter()
        rng = _random.Random(857)
        trials = 0
        while trials < 200:
            n = rng.randint(2, 4)
            m = rng.randint(n, 7)
            inst = generate_random(n, m, "uniform-rational",
                                   seed=rng.randint(0, 10 ** 9))
            ell = rng.randrange(n)
            v = inst.valuations[ell]
            # Removing one good and one bundle never lowers the share.
            g = rng.randrange(m)
            k = rng.randint(2, n)
            assert mms_k(v, k, range(m)) <= \
                mms_k(v, k - 1, [x for x in range(m) if x != g])
            # Residual-value flow under singleton-or-small bundles.
            share = mms_k(v, n)
            others = [a for a in range(n) if a != ell]
            rng.shuffle(others)
            chosen = others[:rng.randint(0, len(others))]
            pool = list(range(m))
            rng.shuffle(pool)
            bundles = []
            valid = True
            for _ in chosen:
                size = rng.randint(1, 2)
                bundle, pool = frozenset(pool[:size]), pool[size:]
                bundles.append(bundle)
                if len(bundle) != 1 and v.value(bundle) > share:
                    valid = False
            if not valid:
                continue
            assigned = frozenset().union(*bundles) if bundles else frozenset()
            rest = frozenset(range(m)) - assigned
            assert v.value(rest) >= (n - len(chosen)) * share
            trials += 1
        assert time.perf_counter() - started < 300


def test_criterion_11_termination_envelopes(ef1_corpus):
    runs, _ = ef1_corpus
    with criterion(11, "iteration and step envelopes on the full corpus"):
        started = time.perf_counter()
        for inst, abs_run, high_run, solve_run in runs:
            bound_iters = inst.n * inst.m * inst.m
            bound_steps = inst.m * inst.n * inst.n
            assert high_run.iterations <= bound_iters
            assert abs_run.lipton.steps <= bound_steps
            assert high_run.lipton.steps <= bound_steps
            if solve_run.high_run is not None:
                assert solve_run.high_run.iterations <= bound_iters
                assert solve_run.high_run.lipton.steps <= bound_steps
        assert time.perf_counter() - started < 120


def test_criterion_12_exact_fair_optimum_at_n9():
    with criterion(12, "scaled 1/2-MMS gap instance at n = 9: exact search"):
        started = time.perf_counter()
        inst = generate_adversarial(FamilySpec("mms-scaled-sqrt", 9))
        # 9^9 allocations: beyond the default cap, but the twin rules skip
        # nearly all of them.
        _, half_mms = constrained_opt(inst, "alpha-mms", cap=10 ** 9)
        assert half_mms <= 2
        _, ef1 = constrained_opt(inst, "ef1", cap=10 ** 9)
        assert ef1 == Fraction(5, 3)
        assert time.perf_counter() - started < 1
