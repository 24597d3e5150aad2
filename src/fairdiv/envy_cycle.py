"""Envy-cycle elimination: `run_extend_ef1` extends a partial EF1 allocation
to a complete EF1 allocation without lowering any agent's own-bundle value,
and returns it with the run's step counts (`LiptonStats`).

Works for any monotone valuations, and raises ValidationError before it
starts unless every valuation is monotone (an additive agent's values are
nonnegative, an explicit table never falls as a set grows). Unallocated
goods are handed out in ascending index order; each goes to the
lowest-indexed unenvied agent, rotating envy cycles first so such an agent
exists. Cycle detection is depth-first from the lowest-indexed agent,
visiting neighbours in ascending order; rotating a cycle hands every agent
on it the bundle she strictly prefers, so total value strictly rises and
the process terminates.

The cycle search runs on the partial's graph until it finds no cycle.
After that the search runs only when it will find one, which a bitmask
search from a few agents decides (`_on_cycle`), so no search comes back
empty:
- Before a hand-out the graph is acyclic, and the hand-out only adds edges
  into the receiver and drops edges out of her, so every cycle afterwards
  passes through her.
- Rotating a cycle C changes only edges at C's agents, so a cycle
  afterwards that avoids them was there before the rotation.

So the extension keeps a set of agents, `through`, such that every cycle
passes through one of them: the receiver after each hand-out, joined by the
agents of each rotated cycle. It searches again only when one of them lies
on a cycle; otherwise the graph is acyclic. Under `FAIRDIV_DEBUG` a full
search confirms each skip.

Values are each agent's integers (`Instance.rows()`) and bundles are
bitmasks. Each bundle keeps its column: its value to every agent. On
additive agents a bundle's column is the sum of its goods' columns, built
once per run, so a hand-out adds one column to another; explicit agents
read their table at the bundle's mask. The envy graph is kept twice, as
out-masks (`adj[i]`: whom agent i envies) and in-masks (`inc[j]`: who
envies bundle j), and updated only where something moved: a hand-out goes
to the first agent with an empty in-mask, compares the new column with the
agents' own values, and rechecks only the receiver's out-edges; a rotation
moves columns and in-masks with their bundles and recomputes the rows of
the cycle's agents. The columns are the extension's inner loop and read the
kernels inline; the graph's masks are walked with `model.bits`.

`run_ef1_abs` and `run_ef1_high` hand in their partial allocations as
`Ef1Partial`s, which are EF1 by construction, so the EF1 precondition is
decided only for other partial allocations (and for every one under
`FAIRDIV_DEBUG`).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, repeat
from operator import add, ge, gt, itemgetter

from . import debug
from .errors import ValidationError
from .fairness import is_ef1
from .model import Allocation, Instance, bits, mask_goods


class Ef1Partial(Allocation):
    """A partial allocation that its producer proved EF1, so
    `run_extend_ef1` does not decide EF1 again (except under
    `FAIRDIV_DEBUG`). Equality with a plain `Allocation` of the same bundles
    does not hold: dataclass equality compares classes."""


@dataclass
class LiptonStats:
    """Step counts of one extension run (a step is a cycle rotation or a
    good hand-out)."""

    rotations: int = 0
    additions: int = 0

    @property
    def steps(self) -> int:
        return self.rotations + self.additions


def _find_cycle(adj: list[int], n: int) -> list[int] | None:
    """First directed cycle by DFS from the lowest-indexed agent, visiting
    neighbours in ascending order, or None."""
    done = 0                    # agents fully explored
    on_stack = 0
    parent: dict[int, int] = {}
    for start in range(n):
        if (done | on_stack) >> start & 1:
            continue
        stack = [[start, adj[start]]]
        on_stack |= 1 << start
        while stack:
            frame = stack[-1]
            node = frame[0]
            rest = frame[1] & ~done
            if not rest:
                done |= 1 << node
                on_stack &= ~(1 << node)
                stack.pop()
                continue
            low = rest & -rest
            frame[1] = rest ^ low
            nxt = low.bit_length() - 1
            if on_stack & low:
                cycle = [node]
                cur = node
                while cur != nxt:
                    cur = parent[cur]
                    cycle.append(cur)
                cycle.reverse()
                return cycle
            on_stack |= low
            parent[nxt] = node
            stack.append([nxt, adj[nxt]])
    return None


def _on_cycle(adj: list[int], source: int) -> bool:
    """Whether agent `source` lies on a directed cycle: a bitmask
    breadth-first search for her among the agents she reaches."""
    bit = 1 << source
    reach = frontier = adj[source]
    while frontier and not reach & bit:
        step = 0
        while frontier:
            low = frontier & -frontier
            step |= adj[low.bit_length() - 1]
            frontier ^= low
        frontier = step & ~reach
        reach |= frontier
    return bool(reach & bit)


def run_extend_ef1(inst: Instance,
                   partial: Allocation) -> tuple[Allocation, LiptonStats]:
    """Complete EF1 extension of `partial`, with its step counts; every
    agent ends at least as well off as in the partial input.

    Raises ValidationError when a valuation is not monotone or the partial
    allocation is not EF1; an `Ef1Partial` is taken as EF1."""
    inst.require_monotone()
    if debug.checks_enabled() or not isinstance(partial, Ef1Partial):
        verdict = is_ef1(inst, partial)
        if not verdict.holds:
            raise ValidationError(
                "ef1-precondition",
                f"partial allocation is not EF1: "
                f"{verdict.to_json()['witness']}", witness=verdict.witness)

    n = inst.n
    weights, tables = inst.rows()
    explicit = [i for i, t in enumerate(tables) if t is not None]
    masks = partial.masks
    pow2 = [1 << i for i in range(n)]

    # kcol[g]: good g's column, 0 for explicit agents; col[j]: bundle j's
    # column, col[j][i] = v_i(bundle j) in agent i's integers.
    zeros = (0,) * n
    kcol = list(zip(*(w if w is not None else (0,) * inst.m
                      for w in weights)))

    def column(bundle, mask):
        c = [*map(sum, zip(zeros, *map(kcol.__getitem__, bundle)))]
        for i in explicit:
            c[i] = tables[i][mask]
        return c

    def envy_row(i):
        """Bitmask of the bundles agent i values above her own."""
        return sum(compress(pow2, map(gt, map(itemgetter(i), col),
                                      repeat(own[i]))))

    col = [column(b, mask) for b, mask in zip(partial.bundles, masks)]
    own = [col[i][i] for i in range(n)]
    inc = [sum(compress(pow2, map(gt, c, own))) for c in col]
    adj = [envy_row(i) for i in range(n)]
    start_values = own[:]
    stats = LiptonStats()

    def check_ef1():
        assert is_ef1(inst, Allocation.from_masks(masks)).holds

    def rotate(cycle):
        # Agent cycle[t] takes the bundle of cycle[t + 1]; the bundle's
        # mask, column and in-mask move with it.
        moved = cycle[1:] + cycle[:1]
        for values in (masks, col, inc):
            shifted = [values[j] for j in moved]
            for agent, x in zip(cycle, shifted):
                values[agent] = x
        rest = ~sum(pow2[a] for a in cycle)
        # Any other agent envies the cycle's positions as the moved
        # in-masks say. The cycle's agents now value their own bundles
        # more: recompute their rows, and their bits in every in-mask.
        inc[:] = [x & rest for x in inc]
        adj[:] = [x & rest for x in adj]
        for a in cycle:
            for x in bits(inc[a]):
                adj[x] |= pow2[a]
        for a in cycle:
            own[a] = col[a][a]
            adj[a] = row = envy_row(a)
            for j in bits(row):
                inc[j] |= pow2[a]

    unallocated = sorted(frozenset(range(inst.m)) - partial.allocated())
    # The partial's graph may hold cycles anywhere (`through` is None); after
    # a hand-out every cycle passes through an agent in `through`.
    through = None
    cyclic = True
    for g in unallocated:
        if not cyclic and debug.checks_enabled():
            assert _find_cycle(adj, n) is None
        while cyclic and (cycle := _find_cycle(adj, n)) is not None:
            rotate(cycle)
            stats.rotations += 1
            if debug.checks_enabled():
                check_ef1()
            if through is not None:
                through.update(cycle)
                cyclic = any(_on_cycle(adj, a) for a in through)
        # The lowest-indexed unenvied agent; she gains, so only edges into
        # her appear and only edges out of her can drop.
        source = inc.index(0)
        bit = pow2[source]
        masks[source] |= 1 << g
        c = list(map(add, col[source], kcol[g]))
        for i in explicit:
            c[i] = tables[i][masks[source]]
        col[source] = c
        own[source] = mine = c[source]
        envied_by = inc[source] = sum(compress(pow2, map(gt, c, own)))
        for i in bits(envied_by):
            adj[i] |= bit
        for j in bits(adj[source]):
            if col[j][source] <= mine:
                adj[source] ^= pow2[j]
                inc[j] ^= bit
        stats.additions += 1
        through = {source}
        cyclic = bool(envied_by) and _on_cycle(adj, source)
        if debug.checks_enabled():
            check_ef1()

    result = Allocation.from_masks(masks)
    if debug.checks_enabled():
        assert all(map(ge, own, start_values))
        assert col == [column(mask_goods(mask), mask) for mask in masks]
    return result, stats
