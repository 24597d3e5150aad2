"""Maximum-weight bipartite matching that matches every agent.

The weights are nonnegative integers (callers bring rationals onto one
scale with `fairdiv.model.common_ints`). The lexicographic tie-break is
folded into the weights, and one rectangular Hungarian (potential +
shortest augmenting path) solve runs in pure integer arithmetic. Among all
maximum-weight left-perfect matchings the lexicographically smallest good
sequence (agent 0's good, then agent 1's, ...) is returned, which makes runs
reproducible and sends the all-equal-weights case to the diagonal.

When there are fewer goods than agents the matrix is padded with zero-weight
dummy goods; agents matched to a dummy are simply left out of the result and
end up with empty bundles downstream.
"""

from __future__ import annotations

from typing import Sequence


def _min_cost_assignment(cost: list[list[int]]) -> list[int]:
    """Column of each row in a minimum-cost matching covering every row.

    Hungarian algorithm on nonnegative costs; requires rows <= columns.
    """
    nr, nc = len(cost), len(cost[0])
    assert nr <= nc
    inf = sum(sum(row) for row in cost) + 1

    u = [0] * (nr + 1)
    v = [0] * (nc + 1)
    match = [0] * (nc + 1)            # match[j] = row index (1-based) on column j
    for i in range(1, nr + 1):
        match[0] = i
        j0 = 0
        minv = [inf] * (nc + 1)
        used = [False] * (nc + 1)
        way = [0] * (nc + 1)
        while True:
            used[j0] = True
            i0 = match[j0]
            delta = inf
            j1 = -1
            for j in range(1, nc + 1):
                if used[j]:
                    continue
                cur = cost[i0 - 1][j - 1] - u[i0] - v[j]
                if cur < minv[j]:
                    minv[j] = cur
                    way[j] = j0
                if minv[j] < delta:
                    delta = minv[j]
                    j1 = j
            for j in range(nc + 1):
                if used[j]:
                    u[match[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
            if match[j0] == 0:
                break
        while j0 != 0:
            j1 = way[j0]
            match[j0] = match[j1]
            j0 = j1
    col_of = [0] * nr
    for j in range(1, nc + 1):
        if match[j]:
            col_of[match[j] - 1] = j - 1
    return col_of


def max_weight_left_perfect_matching(
        weights: Sequence[Sequence[int]]) -> list[tuple[int, int]]:
    """Match every agent (row) to a distinct good (column) with maximum
    total weight; deterministic lexicographic tie-breaking.

    Returns (agent, good) pairs, 0-based; agents assigned a padding dummy
    (only possible when m < n) are omitted. A ragged matrix, a weight that is
    not an `int` (`Fraction`, `float`, `bool`) or a negative one raise
    ValueError.

    The single solve maximises ``K*w(i, g) - g*B**(n-1-i)`` over the integer
    weights, with ``B = width + 1`` and ``K = B**n``. The subtracted terms of
    a matching spell its good sequence as a base-B number below K, while two
    different integer totals differ by at least 1, i.e. by at least K after
    scaling. So the perturbed optimum is unique and is exactly the
    lexicographically smallest maximum-weight left-perfect matching.
    """
    n = len(weights)
    if n == 0:
        return []
    m = len(weights[0])
    if any(len(row) != m for row in weights):
        raise ValueError("weight matrix is ragged")
    if any(type(w) is not int for row in weights for w in row):
        raise ValueError("weights must be integers")
    if any(w < 0 for row in weights for w in row):
        raise ValueError("weights must be nonnegative")

    width = max(m, n)
    base = width + 1
    scale = base ** n
    top = max(max(row, default=0) for row in weights)
    cost = []
    padding = [0] * (width - m)
    for i, row in enumerate(weights):
        step = base ** (n - 1 - i)
        cost.append([scale * (top - w) + g * step
                     for g, w in enumerate([*row, *padding])])
    cols = _min_cost_assignment(cost)
    return [(i, g) for i, g in enumerate(cols) if g < m]
