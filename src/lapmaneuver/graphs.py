"""Undirected interaction graphs and the 2-rooted feasibility check.

Nodes are labeled 1..n. Each unordered neighbor pair is stored once as an
edge (i, j); the order within a pair carries no meaning. The graph's one
derived view is the sorted neighbor tuple of each node, built once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional


@dataclass(frozen=True)
class FormationGraph:
    """Undirected graph given by one oriented representative per edge."""

    n: int
    oriented_edges: tuple[tuple[int, int], ...]
    _neighbors: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"need at least 2 nodes, got {self.n}")
        object.__setattr__(self, "oriented_edges",
                           tuple((int(i), int(j)) for i, j in self.oriented_edges))
        adj: list[set[int]] = [set() for _ in range(self.n + 1)]
        for i, j in self.oriented_edges:
            if not (1 <= i <= self.n and 1 <= j <= self.n):
                raise ValueError(f"edge ({i},{j}) out of range 1..{self.n}")
            if i == j:
                raise ValueError(f"self-loop at node {i}")
            if j in adj[i]:
                raise ValueError(f"duplicate edge {{{i},{j}}}")
            adj[i].add(j)
            adj[j].add(i)
        object.__setattr__(self, "_neighbors", tuple(tuple(sorted(a)) for a in adj))

    def neighbors(self, i: int) -> tuple[int, ...]:
        """Neighbors of node i in ascending order."""
        return self._neighbors[i]


def _blocks(g: FormationGraph) -> tuple[int, list[int], list[list[int]]]:
    """One iterative depth-first search from node 1 with low-points
    (Hopcroft & Tarjan, CACM 16(6), 1973), reading each neighbor tuple once:
    the number of nodes reached, parts[v] = the number of parts G - v leaves
    (within the reached component), and the blocks, popped as node lists."""
    disc, low, pos = [0] * (g.n + 1), [0] * (g.n + 1), [0] * (g.n + 1)
    parts = [1] * (g.n + 1)
    parts[1] = 0  # the root leaves one part per child, the others one more
    disc[1] = low[1] = reached = 1
    stack, blocks, todo = [1], [], [(1, 0, iter(g.neighbors(1)))]
    while todo:
        v, parent, it = todo[-1]
        for w in it:
            if not disc[w]:
                reached += 1
                disc[w] = low[w] = reached
                pos[w] = len(stack)
                stack.append(w)
                todo.append((w, v, iter(g.neighbors(w))))
                break
            low[v] = min(low[v], disc[w])  # the tree edge back too: no lower than disc[parent]
        else:
            todo.pop()
            if parent:
                low[parent] = min(low[parent], low[v])
                if low[v] >= disc[parent]:  # v's subtree is a part of G - parent
                    parts[parent] += 1
                    blocks.append(stack[pos[v]:] + [parent])
                    del stack[pos[v]:]
    return reached, parts, blocks


def is_connected(g: FormationGraph) -> bool:
    return _blocks(g)[0] == g.n


@dataclass(frozen=True)
class TwoRootedReport:
    two_rooted: bool
    certificate: Optional[tuple[int, int]] = None
    reason: Optional[str] = None


def is_two_rooted(g: FormationGraph) -> TwoRootedReport:
    """A 2-node root set: every other node stays reachable from the roots
    after any single-node deletion; the certificate is the lexicographically
    first such pair.

    In a connected graph {a, b} is a root set iff neither a nor b is a cut
    vertex and every cut vertex separates a from b: each cut vertex leaves
    exactly two parts and the blocks form a path, no block holding three or
    more cut vertices. The roots are then free nodes of the two end blocks,
    and any two nodes when there is no cut vertex. One search decides it:
    O(n + m).
    """
    reached, parts, blocks = _blocks(g)
    if reached < g.n:
        return TwoRootedReport(False, reason="graph is disconnected")
    split = next((v for v in range(1, g.n + 1) if parts[v] >= 3), None)
    if split is not None:
        return TwoRootedReport(False, reason=f"deleting node {split} leaves three or more parts")
    ends = []  # the smallest free node of each end block
    for block in blocks:
        cuts = sum(parts[v] == 2 for v in block)
        if cuts >= 3:
            return TwoRootedReport(False, reason="no 2-node root set found")
        if cuts == 1:
            ends.append(min(v for v in block if parts[v] == 1))
    return TwoRootedReport(True, certificate=tuple(sorted(ends)) if ends else (1, 2))
