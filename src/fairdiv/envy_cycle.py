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

The cycle search runs before the first hand-out, and after that only when
the last hand-out's receiver lies on a cycle (a bitmask search from her).
Before a hand-out the graph is acyclic, and the hand-out only adds edges
into the receiver and drops edges out of her, so any new cycle passes
through her.

Values are each agent's integers (`Valuation.kernel`) and bundles are
bitmasks. The envy graph is kept as one adjacency bitmask per agent and
updated only where something moved: after a rotation the rows of the cycle's
agents and the cycle's columns of every other row, after a hand-out the
receiver's row and its column in every other row.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import debug
from .errors import ValidationError
from .fairness import is_ef1
from .model import ADDITIVE, Allocation, Instance, goods_mask, mask_goods


@dataclass
class LiptonStats:
    """Step counts of one extension run (a step is a cycle rotation or a
    good hand-out)."""

    rotations: int = 0
    additions: int = 0

    @property
    def steps(self) -> int:
        return self.rotations + self.additions


def _envy_row(row: list[int], i: int) -> int:
    """Bitmask of the agents whose bundle agent i strictly prefers to her
    own, given her values `row` of every bundle."""
    own = row[i]
    bits = 0
    for j, x in enumerate(row):
        if x > own:
            bits |= 1 << j
    return bits


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
    allocation is not EF1."""
    inst.require_monotone()
    verdict = is_ef1(inst, partial)
    if not verdict.holds:
        raise ValidationError("ef1-precondition",
                              f"partial allocation is not EF1: {verdict.to_json()['witness']}",
                              witness=verdict.witness)

    n = inst.n
    kernels = [v.kernel for v in inst.valuations]
    additive = [v.kind == ADDITIVE for v in inst.valuations]
    masks = [goods_mask(b) for b in partial.bundles]

    # values[i][j] = v_i(bundle_j) in agent i's integers; adj[i] has bit j
    # set iff i envies j. Both are kept in sync under rotations/additions.
    values = [[sum(map(ints.__getitem__, bundle)) if add else ints[mask]
               for bundle, mask in zip(partial.bundles, masks)]
              for ints, add in zip(kernels, additive)]
    adj = [_envy_row(values[i], i) for i in range(n)]
    start_values = [values[i][i] for i in range(n)]
    stats = LiptonStats()

    def check_ef1():
        assert is_ef1(inst, Allocation(tuple(map(mask_goods, masks)))).holds

    unallocated = sorted(frozenset(range(inst.m)) - partial.allocated())
    # The partial's graph may hold cycles; after that, only a hand-out whose
    # receiver now lies on a cycle can have closed one.
    cyclic = True
    for g in unallocated:
        if not cyclic and debug.checks_enabled():
            assert _find_cycle(adj, n) is None
        while cyclic and (cycle := _find_cycle(adj, n)) is not None:
            k = len(cycle)
            moved = [cycle[(t + 1) % k] for t in range(k)]
            rotated = [masks[j] for j in moved]
            for agent, mask in zip(cycle, rotated):
                masks[agent] = mask
            cycle_bits = goods_mask(cycle)
            for i in range(n):
                row = values[i]
                shifted = [row[j] for j in moved]
                for agent, x in zip(cycle, shifted):
                    row[agent] = x
                if cycle_bits >> i & 1:
                    adj[i] = _envy_row(row, i)
                else:
                    own = row[i]
                    bits = adj[i] & ~cycle_bits
                    for agent in cycle:
                        if row[agent] > own:
                            bits |= 1 << agent
                    adj[i] = bits
            stats.rotations += 1
            if debug.checks_enabled():
                check_ef1()
        incoming = 0
        for bits in adj:
            incoming |= bits
        free = ~incoming & (incoming + 1)
        source = free.bit_length() - 1
        masks[source] |= 1 << g
        bit = 1 << source
        for i in range(n):
            row = values[i]
            if additive[i]:
                row[source] += kernels[i][g]
            else:
                row[source] = kernels[i][masks[source]]
            if i == source:
                adj[i] = _envy_row(row, i)
            elif row[source] > row[i]:
                adj[i] |= bit
            else:
                adj[i] &= ~bit
        stats.additions += 1
        cyclic = _on_cycle(adj, source)
        if debug.checks_enabled():
            check_ef1()

    result = Allocation(tuple(map(mask_goods, masks)))
    if debug.checks_enabled():
        for i in range(n):
            assert values[i][i] >= start_values[i]
    return result, stats
