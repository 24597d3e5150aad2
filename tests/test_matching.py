"""Matching solver against exhaustive permutation search.

The matching takes integer weights; the rational alphabets of the random
matrices are scaled by 60, a multiple of every denominator drawn, so their
ties survive."""

import random
import zlib
from fractions import Fraction

import pytest

from fairdiv import generate, matching, max_weight_left_perfect_matching
from conftest import naive_matching, perturbed_matching, tie_matrices


def weight_of(weights, pairs):
    return sum(weights[i][g] for i, g in pairs)


class TestKnownMatrices:
    def test_identity_like(self):
        w = [[1, 0], [0, 1]]
        pairs = max_weight_left_perfect_matching(w)
        assert pairs == [(0, 0), (1, 1)]
        assert weight_of(w, pairs) == 2

    def test_all_equal_gives_diagonal(self):
        for n in (4, 12):
            w = [[2] * n for _ in range(n)]
            assert max_weight_left_perfect_matching(w) == [(i, i)
                                                           for i in range(n)]

    def test_high_agent_matrix(self):
        inst = generate("ef1-unscaled", 3)
        w, _ = inst.rows(common=True)
        pairs = max_weight_left_perfect_matching(w)
        assert Fraction(weight_of(w, pairs), inst.scale) == 3 + Fraction(2, 3)

    def test_fewer_goods_than_agents(self):
        w = [[1], [2], [3]]
        pairs = max_weight_left_perfect_matching(w)
        # Only one real good; it goes to the agent valuing it most.
        assert pairs == [(2, 0)]

    def test_no_agents(self):
        assert max_weight_left_perfect_matching([]) == []

    def test_rejects_ragged(self):
        with pytest.raises(ValueError, match="^weight matrix is ragged$"):
            max_weight_left_perfect_matching([[1, 2], [3]])

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="nonnegative"):
            max_weight_left_perfect_matching([[-1]])

    @pytest.mark.parametrize("weight", [Fraction(1), 1.0, True],
                             ids=["fraction", "float", "bool"])
    def test_rejects_non_integer_weights(self, weight):
        with pytest.raises(ValueError, match="integers"):
            max_weight_left_perfect_matching([[1, 2], [weight, 0]])


class TestAgainstBruteForce:
    def test_random_matrices(self):
        rng = random.Random(17)
        for _ in range(60):
            n = rng.randint(1, 5)
            m = rng.randint(1, 7)
            w = [[rng.randint(0, 12) * 60 // rng.randint(1, 6)
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
            w = [[rng.randint(0, 2) for _ in range(m)]
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
        w = [[rng.randint(0, 20) * 6 for _ in range(m)]
             for _ in range(n)]
        pairs = max_weight_left_perfect_matching(w)
        got = weight_of(w, pairs)
        bound = Fraction(sum(sum(sorted(w[i], reverse=True)[:n])
                             for i in range(n)), n)
        assert got >= bound


@pytest.mark.usefixtures("debug_mode")
class TestAgainstPerturbation:
    """The tie-break from the optimal potentials against one solve on
    weights perturbed by B^n, with the potentials' certificate checked on
    every call."""

    def test_tie_heavy_corpus(self):
        moved = 0
        for w in tie_matrices(3000, seed=44):
            assert max_weight_left_perfect_matching(w) == \
                perturbed_matching(w)
            col, u, v = matching._max_assignment(
                [[*row, *[0] * (len(w) - len(row))] for row in w])
            moved += col != matching._lex_first(
                [[*row, *[0] * (len(w) - len(row))] for row in w], u, v,
                col[:])
        # The solve's own matching is often not the lex-first one.
        assert moved >= 300

    def test_benchmark_solve_instances(self):
        # The 13 dirichlet-scaled instances (ten n=16, two n=24, one n=32;
        # m=4n) of the solve benchmark at seed 42, seeded as it seeds them.
        for n, count in ((16, 10), (24, 2), (32, 1)):
            for k in range(count):
                seed = zlib.crc32(f"42|solve-additive|{n}|{k}".encode())
                inst = generate("random", n, 4 * n,
                                distribution="dirichlet-scaled", seed=seed)
                w, _ = inst.rows(common=True)
                assert max_weight_left_perfect_matching(w) == \
                    perturbed_matching(w)


def test_potentials_certify_the_optimum_at_scale(debug_mode):
    # n = 64 is beyond the brute-force tests; the debug certificate (dual
    # feasibility, tight matched edges, every column with v > 0 matched)
    # proves the matching optimal, and breaking a potential fails it.
    inst = generate("random", 64, 256, distribution="dirichlet-scaled",
                    seed=3)
    w, _ = inst.rows(common=True)
    pairs = max_weight_left_perfect_matching(w)
    assert sorted(i for i, _ in pairs) == list(range(64))
    col, u, v = matching._max_assignment(w)
    col = matching._lex_first(w, u, v, col)
    assert [(i, g) for i, g in enumerate(col)] == pairs
    matching._check_potentials(w, u, v, col)
    for broken in ([u[0] - 1, *u[1:]], [*u[:-1], u[-1] + 1]):
        with pytest.raises(AssertionError):
            matching._check_potentials(w, broken, v, col)
    # Potentials u = (1), v = (1, 0) make both of [[2, 1]]'s edges tight;
    # only the weight-2 edge covers the column with v > 0.
    matching._check_potentials([[2, 1]], [1], [1, 0], [0])
    with pytest.raises(AssertionError):
        matching._check_potentials([[2, 1]], [1], [1, 0], [1])
