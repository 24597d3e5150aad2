"""Matching solver against exhaustive permutation search."""

import random
from fractions import Fraction

import pytest

from fairdiv import FamilySpec, generate_adversarial, max_weight_left_perfect_matching

from conftest import naive_matching


def weight_of(weights, pairs):
    return sum((weights[i][g] for i, g in pairs), Fraction(0))


class TestKnownMatrices:
    def test_identity_like(self):
        w = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]
        pairs = max_weight_left_perfect_matching(w)
        assert pairs == [(0, 0), (1, 1)]
        assert weight_of(w, pairs) == 2

    def test_all_equal_gives_diagonal(self):
        for n in (4, 12):
            w = [[Fraction(2, 7)] * n for _ in range(n)]
            assert max_weight_left_perfect_matching(w) == [(i, i)
                                                           for i in range(n)]

    def test_high_agent_matrix(self):
        inst = generate_adversarial(FamilySpec("ef1-unscaled", 3))
        w = [[inst.value(i, {g}) for g in range(3)] for i in range(3)]
        pairs = max_weight_left_perfect_matching(w)
        assert weight_of(w, pairs) == 3 + Fraction(2, 3)

    def test_fewer_goods_than_agents(self):
        w = [[Fraction(1)], [Fraction(2)], [Fraction(3)]]
        pairs = max_weight_left_perfect_matching(w)
        # Only one real good; it goes to the agent valuing it most.
        assert pairs == [(2, 0)]

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            max_weight_left_perfect_matching([[Fraction(-1)]])


class TestAgainstBruteForce:
    def test_random_matrices(self):
        rng = random.Random(17)
        for _ in range(60):
            n = rng.randint(1, 5)
            m = rng.randint(1, 7)
            w = [[Fraction(rng.randint(0, 12), rng.randint(1, 6))
                  for _ in range(m)] for _ in range(n)]
            got = max_weight_left_perfect_matching(w)
            want_pairs, want_weight = naive_matching(w)
            assert weight_of(w, got) == want_weight
            assert got == want_pairs     # identical lex tie-breaking

    def test_ties_resolved_identically(self):
        rng = random.Random(23)
        for _ in range(40):
            n = rng.randint(2, 4)
            m = rng.randint(1, 5)
            # Small value alphabet to force plenty of ties.
            w = [[Fraction(rng.randint(0, 2)) for _ in range(m)]
                 for _ in range(n)]
            got = max_weight_left_perfect_matching(w)
            want_pairs, want_weight = naive_matching(w)
            assert weight_of(w, got) == want_weight
            assert got == want_pairs


def test_pigeonhole_lower_bound():
    # Output weight >= (1/n) * sum_i (sum of agent i's n best goods).
    rng = random.Random(31)
    for _ in range(40):
        n = rng.randint(1, 5)
        m = rng.randint(n, 7)
        w = [[Fraction(rng.randint(0, 20), 10) for _ in range(m)]
             for _ in range(n)]
        pairs = max_weight_left_perfect_matching(w)
        got = weight_of(w, pairs)
        bound = sum((sum(sorted(w[i], reverse=True)[:n], Fraction(0))
                     for i in range(n)), Fraction(0)) / n
        assert got >= bound
