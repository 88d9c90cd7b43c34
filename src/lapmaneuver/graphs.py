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


def _reachable(g: FormationGraph, sources: set[int], removed: set[int]) -> set[int]:
    """BFS from sources in the graph with `removed` nodes deleted."""
    seen = set(sources) - removed
    stack = list(seen)
    while stack:
        for v in g.neighbors(stack.pop()):
            if v not in removed and v not in seen:
                seen.add(v)
                stack.append(v)
    return seen


def is_connected(g: FormationGraph) -> bool:
    return len(_reachable(g, {1}, set())) == g.n


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
    vertex and every cut vertex splits the graph into exactly two parts,
    with a in one and b in the other. One search per deleted node, and a
    second one when it is a cut vertex, decide both: O(n (n + m)).
    """
    if not is_connected(g):
        return TwoRootedReport(False, reason="graph is disconnected")
    nodes = range(1, g.n + 1)
    first_part = {}  # cut vertex r -> the part of G - r that holds node 1 (2 if r = 1)
    for r in nodes:
        part = _reachable(g, {2 if r == 1 else 1}, {r})
        rest = set(nodes) - part - {r}  # the other parts of G - r
        if rest and len(_reachable(g, {min(rest)}, {r})) < len(rest):
            return TwoRootedReport(False, reason=f"deleting node {r} leaves three or more parts")
        if rest:
            first_part[r] = part
    # a root pair lies on opposite sides of every cut vertex: its side
    # signatures (the cut vertices whose first part holds it) are complements
    cut = frozenset(first_part)
    signature = {v: frozenset(r for r in cut if v in first_part[r])
                 for v in nodes if v not in cut}
    holders: dict[frozenset, list[int]] = {}
    for v, s in signature.items():
        holders.setdefault(s, []).append(v)
    pair = next(((a, b) for a, s in signature.items()
                 for b in holders.get(cut - s, ()) if b > a), None)
    if pair is None:
        return TwoRootedReport(False, reason="no 2-node root set found")
    return TwoRootedReport(True, certificate=pair)
