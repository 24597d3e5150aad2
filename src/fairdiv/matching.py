"""Maximum-weight bipartite matching that matches every agent.

The weights are nonnegative integers (callers bring rationals onto one
scale with `fairdiv.model.common_ints`). One rectangular shortest augmenting
path solve (Hungarian potentials) runs in pure integer arithmetic on the
plain weights, and its optimal potentials then decide the tie-break: among all
maximum-weight left-perfect matchings the lexicographically smallest good
sequence (agent 0's good, then agent 1's, ...) is returned, which makes runs
reproducible and sends the all-equal-weights case to the diagonal.

When there are fewer goods than agents the matrix is padded with zero-weight
dummy goods; agents matched to a dummy are simply left out of the result and
end up with empty bundles downstream.
"""

from __future__ import annotations

from collections import deque
from itertools import chain, compress, repeat
from operator import eq, lt, sub
from typing import Sequence

from . import debug

_INF = float("inf")


def _max_assignment(w: Sequence[Sequence[int]]
                    ) -> tuple[list[int], list[int], list[int]]:
    """`(col, u, v)`: the column of each row in a maximum-weight matching
    covering every row, and optimal dual potentials for it.

    Shortest augmenting paths with lazy potential updates (Crouse, IEEE
    TAES 2016): one Dijkstra pass over the columns per row, after which
    only the potentials of the rows and columns it scanned move. Rows <=
    columns. The potentials keep `u[i] + v[j] >= w[i][j]` everywhere, with
    equality on every matched edge; `v` starts at 0 and only a scanned
    column's rises, and a scanned column is matched, so `v >= 0` and every
    column with `v > 0` is matched.
    """
    nr, nc = len(w), len(w[0])
    u = list(map(max, w))
    v = [0] * nc
    col = [-1] * nr
    row_of = [-1] * nc
    columns = range(nc)
    for cur in range(nr):
        # `key[j] + off` is the least slack of an alternating path from
        # `cur` to column j so far, `_INF` once j is scanned, and `path[j]`
        # the path's last row; `dist` holds the scanned columns' slacks.
        off = u[cur]
        key = list(map(sub, v, w[cur]))
        path = [cur] * nc
        dist: dict[int, int] = {}
        rows = [cur]
        while True:
            low = min(key)
            j = key.index(low)
            if row_of[j] >= 0 and key.count(low) > 1:
                # A free column at the same distance ends the search now.
                j = next((c for c in compress(columns, map(eq, key,
                                                           repeat(low)))
                          if row_of[c] < 0), j)
            dist[j] = low + off
            if row_of[j] < 0:
                break
            key[j] = _INF
            i = row_of[j]
            rows.append(i)
            delta = low + u[i]      # the slack up to row i, less `off`
            reach = list(map(sub, v, w[i]))
            if delta:
                reach = [x + delta for x in reach]
            for c in compress(columns, map(lt, reach, key)):
                if c not in dist:
                    path[c], key[c] = i, reach[c]
        low = dist[j]
        u[cur] -= low
        for i in rows[1:]:
            u[i] -= low - dist[col[i]]
        for c, d in dist.items():
            v[c] += low - d
        while True:
            i = path[j]
            row_of[j] = i
            col[i], j = j, col[i]
            if i == cur:
                break
    return col, u, v


def _tight(row: Sequence[int], ui: int, v: list[int]):
    """The columns on which `u[i] + v = w[i]` holds, ascending."""
    return compress(range(len(v)), map(eq, map(sub, row, v), repeat(ui)))


def _lex_first(w: Sequence[Sequence[int]], u: list[int], v: list[int],
               col: list[int]) -> list[int]:
    """The lexicographically smallest maximum-weight assignment, from the
    maximum-weight assignment `col` and its potentials.

    By complementary slackness a left-perfect matching is optimal exactly
    when its edges are tight (`u[i] + v[j] = w[i][j]`) and it covers every
    column with `v > 0`: any left-perfect matching M weighs at most sum(u)
    plus v summed over M's columns, which is at most sum(u) + sum(v) as `v
    >= 0`, and `col` meets both bounds. Rows are fixed in order. Row i tries
    each tight column c below its current one that no earlier row holds,
    lowest first, and keeps the first for which a valid matching exists with
    rows < i fixed and i on c.

    Such a matching M* exists exactly when two searches over tight edges of
    the later rows succeed. The first gives c's holder a new column, free or
    the one row i released: in M xor M*, the component through row i runs
    from c along M-edges and M*-edges to a column M leaves free or back to
    the released one, so such a path exists. If the path found leaves the
    released column r uncovered while v[r] > 0, the second search runs in
    the new matching M1: in M1 xor M*, the component at r starts with r's
    M*-edge and ends at a column that M1 covers and M* does not, so with
    v = 0; the search finds such a path and shifts it, covering r. Both
    results keep every edge tight and cover every column with v > 0, so
    they are valid.
    """
    owner = [-1] * len(v)
    for i, c in enumerate(col):
        owner[c] = i
    fixed = [False] * len(v)
    for i, row in enumerate(w):
        ci, ui = col[i], u[i]
        # Rarely true on generic weights; `in` is the cheapest full scan.
        if ci and ui in map(sub, row[:ci], v[:ci]):
            for c in _tight(row[:ci], ui, v):
                if not fixed[c] and _move(w, u, v, col, owner, fixed, i, c):
                    break
        fixed[col[i]] = True
    return col


def _move(w, u, v, col, owner, fixed, i, c) -> bool:
    """Put row i on column c, if a valid matching with rows < i fixed
    allows it: shift an alternating path of later rows from c's holder
    to a free column or the released one, then, if the released column is
    left uncovered with v > 0, one from it to a covered column with v = 0.
    Updates `col` and `owner` and returns True on success; changes nothing
    otherwise."""
    released = col[i]
    new_col, new_owner = col[:], owner[:]
    new_col[i], new_owner[c], new_owner[released] = c, i, -1
    holder = owner[c]
    if holder >= 0:
        # Breadth-first from the holder over tight columns of later rows;
        # `by[r]` is the row that found r's column.
        by = {holder: -1}
        queue = deque([holder])
        end = -1
        while queue and end < 0:
            r = queue.popleft()
            for x in _tight(w[r], u[r], v):
                if fixed[x] or x == c:
                    continue
                nxt = new_owner[x]
                if nxt < 0:
                    end = x
                    break
                if nxt not in by:
                    by[nxt] = r
                    queue.append(nxt)
        if end < 0:
            return False
        while r >= 0:       # each row on the path takes the column it found
            new_col[r], new_owner[end], end = end, r, new_col[r]
            r = by[r]
    if new_owner[released] < 0 and v[released] > 0:
        # Breadth-first from the released column over later rows with a
        # tight edge into it; `parent[y]` is the column y's holder moves to.
        parent = {released: -1}
        queue = deque([released])
        end = -1
        while queue and end < 0:
            x = queue.popleft()
            for r in range(i + 1, len(w)):
                y = new_col[r]
                if y in parent or u[r] + v[x] != w[r][x]:
                    continue
                parent[y] = x
                if v[y] == 0:
                    end = y
                    break
                queue.append(y)
        if end < 0:
            return False
        shifts = []
        y = end
        while y != released:
            shifts.append((new_owner[y], parent[y]))
            y = parent[y]
        for r, x in shifts:
            new_col[r], new_owner[x] = x, r
        new_owner[end] = -1
    col[:], owner[:] = new_col, new_owner
    return True


def _check_potentials(w, u, v, col) -> None:
    """`u + v >= w` everywhere, tight matched edges, `v >= 0`, and every
    column with `v > 0` matched: the certificate that `col` is optimal."""
    for i, row in enumerate(w):
        slack = list(map(sub, map(u[i].__add__, v), row))
        assert min(slack) >= 0 and slack[col[i]] == 0
    assert min(v) >= 0
    covered = set(col)
    assert all(c in covered for c, x in enumerate(v) if x > 0)


def max_weight_left_perfect_matching(
        weights: Sequence[Sequence[int]]) -> list[tuple[int, int]]:
    """Match every agent (row) to a distinct good (column) with maximum
    total weight; deterministic lexicographic tie-breaking.

    Returns (agent, good) pairs, 0-based; agents assigned a padding dummy
    (only possible when m < n) are omitted. A ragged matrix, a weight that is
    not an `int` (`Fraction`, `float`, `bool`) or a negative one raise
    ValueError.

    One solve gives a maximum-weight matching and its dual potentials;
    `_lex_first` then moves each agent, in order, to her lowest good that
    the potentials prove still completes to an optimum.
    """
    n = len(weights)
    if n == 0:
        return []
    m = len(weights[0])
    if any(len(row) != m for row in weights):
        raise ValueError("weight matrix is ragged")
    if not {int}.issuperset(map(type, chain(*weights))):
        raise ValueError("weights must be integers")
    if m and min(map(min, weights)) < 0:
        raise ValueError("weights must be nonnegative")

    if m < n:
        weights = [[*row, *[0] * (n - m)] for row in weights]
    col, u, v = _max_assignment(weights)
    col = _lex_first(weights, u, v, col)
    if debug.checks_enabled():
        _check_potentials(weights, u, v, col)
    return [(i, g) for i, g in enumerate(col) if g < m]
