"""Undirected interaction graphs with an oriented edge list.

Nodes are labeled 1..n. Each unordered neighbor pair is stored once as an
oriented edge (tail, head); the incidence matrix puts +1 at the tail so that
(B^T p)_k = p_tail - p_head for any configuration p.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np


@dataclass(frozen=True)
class FormationGraph:
    """Undirected graph given by one oriented representative per edge."""

    n: int
    oriented_edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"need at least 2 nodes, got {self.n}")
        object.__setattr__(self, "oriented_edges",
                           tuple((int(i), int(j)) for i, j in self.oriented_edges))
        seen = set()
        for i, j in self.oriented_edges:
            if not (1 <= i <= self.n and 1 <= j <= self.n):
                raise ValueError(f"edge ({i},{j}) out of range 1..{self.n}")
            if i == j:
                raise ValueError(f"self-loop at node {i}")
            key = frozenset((i, j))
            if key in seen:
                raise ValueError(f"duplicate edge {{{i},{j}}}")
            seen.add(key)

    @property
    def m(self) -> int:
        return len(self.oriented_edges)

    @property
    def edges(self) -> frozenset[frozenset[int]]:
        return frozenset(frozenset(e) for e in self.oriented_edges)

    def neighbors(self, i: int) -> tuple[int, ...]:
        out = []
        for a, b in self.oriented_edges:
            if a == i:
                out.append(b)
            elif b == i:
                out.append(a)
        return tuple(sorted(out))

    def adjacency(self) -> dict[int, set[int]]:
        adj: dict[int, set[int]] = {i: set() for i in range(1, self.n + 1)}
        for i, j in self.oriented_edges:
            adj[i].add(j)
            adj[j].add(i)
        return adj

    def neighbor_pairs(self) -> tuple[tuple[int, int], ...]:
        """Both ordered directions (i, j) and (j, i) of every edge."""
        out = []
        for i, j in self.oriented_edges:
            out.append((i, j))
            out.append((j, i))
        return tuple(out)


def incidence_matrix(g: FormationGraph) -> np.ndarray:
    """n x |Z| matrix with +1 at the tail and -1 at the head of each edge."""
    B = np.zeros((g.n, g.m))
    for k, (tail, head) in enumerate(g.oriented_edges):
        B[tail - 1, k] = 1.0
        B[head - 1, k] = -1.0
    return B


def _reachable(adj: dict[int, set[int]], sources: set[int], removed: set[int]) -> set[int]:
    """BFS from sources in the graph with `removed` nodes deleted."""
    seen = set(sources) - removed
    stack = list(seen)
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if v not in removed and v not in seen:
                seen.add(v)
                stack.append(v)
    return seen


def is_connected(g: FormationGraph) -> bool:
    adj = g.adjacency()
    return len(_reachable(adj, {1}, set())) == g.n


@dataclass(frozen=True)
class TwoRootedReport:
    two_rooted: bool
    certificate: Optional[tuple[int, int]] = None
    reason: Optional[str] = None


def is_two_rooted(g: FormationGraph) -> TwoRootedReport:
    """Exhaustive check for a 2-node root set keeping every other node
    reachable after any single-node deletion.

    Brute force over all root pairs and all deletions; fine at desk scale.
    """
    if not is_connected(g):
        return TwoRootedReport(False, reason="graph is disconnected")
    adj = g.adjacency()
    nodes = list(range(1, g.n + 1))
    for ai in range(g.n):
        for bi in range(ai + 1, g.n):
            roots = {nodes[ai], nodes[bi]}
            if _pair_is_root_set(adj, nodes, roots):
                return TwoRootedReport(True, certificate=(nodes[ai], nodes[bi]))
    return TwoRootedReport(False, reason="no 2-node root set found")


def _pair_is_root_set(adj, nodes, roots: set[int]) -> bool:
    for removed in nodes:
        reach = _reachable(adj, roots, {removed})
        for v in nodes:
            if v in roots or v == removed:
                continue
            if v not in reach:
                return False
    return True
