from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings

from lapmaneuver import (FormationGraph, MotionSpec, PipelineFailed, TwoRootedReport,
                         center_shape, design_pipeline, is_connected, is_two_rooted)

from conftest import block_graphs, random_instance


def brute_force_two_rooted(g: FormationGraph):
    """Literal check: the lexicographically first 2-node set from which every
    other node stays reachable after deleting any single node except itself,
    or None."""
    nodes = list(range(1, g.n + 1))

    def reachable_from(sources, removed):
        seen = set(sources) - {removed}
        stack = list(seen)
        while stack:
            u = stack.pop()
            for v in g.neighbors(u):
                if v != removed and v not in seen:
                    seen.add(v)
                    stack.append(v)
        return seen

    for roots in combinations(nodes, 2):
        ok = True
        for v in nodes:
            if v in roots:
                continue
            for removed in nodes:
                if removed == v:
                    continue
                if v not in reachable_from(roots, removed):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return roots
    return None


def assert_matches_brute_force(g: FormationGraph) -> None:
    report, roots = is_two_rooted(g), brute_force_two_rooted(g)
    assert (report.two_rooted, report.certificate) == (roots is not None, roots)


def _reachable(g: FormationGraph, sources: set[int], removed: set[int]) -> set[int]:
    seen = set(sources) - removed
    stack = list(seen)
    while stack:
        for v in g.neighbors(stack.pop()):
            if v not in removed and v not in seen:
                seen.add(v)
                stack.append(v)
    return seen


def per_deletion_two_rooted(g: FormationGraph) -> TwoRootedReport:
    """The O(n (n + m)) decision by one search per deleted node, and a second
    one for a cut vertex: {a, b} is a root set iff neither is a cut vertex
    and the parts of G - r that hold them differ for every cut vertex r."""
    nodes = range(1, g.n + 1)
    if len(_reachable(g, {1}, set())) < g.n:
        return TwoRootedReport(False, reason="graph is disconnected")
    first_part = {}  # cut vertex r -> the part of G - r that holds node 1 (2 if r = 1)
    for r in nodes:
        part = _reachable(g, {2 if r == 1 else 1}, {r})
        rest = set(nodes) - part - {r}
        if rest and len(_reachable(g, {min(rest)}, {r})) < len(rest):
            return TwoRootedReport(False, reason=f"deleting node {r} leaves three or more parts")
        if rest:
            first_part[r] = part
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


def assert_matches_per_deletion(g: FormationGraph) -> None:
    assert is_two_rooted(g) == per_deletion_two_rooted(g)


def test_validation():
    with pytest.raises(ValueError):
        FormationGraph(3, ((1, 1),))
    with pytest.raises(ValueError):
        FormationGraph(3, ((1, 2), (2, 1)))
    with pytest.raises(ValueError):
        FormationGraph(3, ((1, 4),))
    with pytest.raises(ValueError):
        FormationGraph(1, ())


def test_neighbors_symmetric():
    g, _ = random_instance(6, seed=11)
    for i in range(1, 7):
        assert list(g.neighbors(i)) == sorted(g.neighbors(i))
        for j in g.neighbors(i):
            assert i in g.neighbors(j)


def test_complete_graph_two_rooted():
    g = FormationGraph(4, ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)))
    assert is_two_rooted(g).two_rooted


def test_star_not_two_rooted():
    g = FormationGraph(4, ((1, 2), (1, 3), (1, 4)))
    report = is_two_rooted(g)
    assert not report.two_rooted
    assert report.certificate is None
    assert "node 1" in report.reason


def test_four_cycle_two_rooted_certificate():
    g = FormationGraph(4, ((1, 2), (2, 3), (3, 4), (4, 1)))
    report = is_two_rooted(g)
    assert report.two_rooted
    assert report.certificate == (1, 2)


def test_disconnected_reported():
    g = FormationGraph(4, ((1, 2), (3, 4)))
    assert not is_connected(g)
    report = is_two_rooted(g)
    assert not report.two_rooted
    assert "disconnected" in report.reason


def test_two_rooted_matches_brute_force():
    rng = np.random.default_rng(42)
    checked = 0
    while checked < 200:
        n = int(rng.integers(3, 7))
        m = int(rng.integers(n - 1, n * (n - 1) // 2, endpoint=True))
        pairs = list(combinations(range(1, n + 1), 2))
        idx = rng.choice(len(pairs), size=m, replace=False)
        g = FormationGraph(n, tuple(pairs[k] for k in idx))
        if not is_connected(g):
            continue
        assert_matches_brute_force(g)
        checked += 1


def _random_block_tree(rng, n_max: int) -> FormationGraph:
    """Cycles, cliques and bridges, each hung from a random earlier node, so
    blocks branch, chain and leave degree-1 nodes; some edges are then
    dropped, which may disconnect the graph."""
    edges, size = [], 1
    while True:
        m = int(rng.integers(2, 6))
        if size + m - 1 > n_max:
            break
        block = [int(rng.integers(size))] + list(range(size, size + m - 1))
        size += m - 1
        kind = rng.choice(["cycle", "clique", "path"]) if m > 2 else "path"
        pairs = (list(zip(block, block[1:] + block[:1])) if kind == "cycle"
                 else list(combinations(block, 2)) if kind == "clique"
                 else list(zip(block, block[1:])))
        edges += pairs
    keep = rng.random(len(edges)) > rng.choice([0.0, 0.05])
    label = rng.permutation(size) + 1
    return FormationGraph(size, tuple((int(label[i]), int(label[j]))
                                      for (i, j), k in zip(edges, keep) if k))


def test_two_rooted_matches_per_deletion_on_random_graphs():
    rng = np.random.default_rng(7)
    verdicts = set()
    for _ in range(300):
        n = int(rng.integers(2, 41))
        pairs = list(combinations(range(1, n + 1), 2))
        m = int(rng.integers(0, min(len(pairs), 3 * n), endpoint=True))
        idx = rng.choice(len(pairs), size=m, replace=False)
        for g in (FormationGraph(n, tuple(pairs[k] for k in idx)),
                  _random_block_tree(rng, n_max=40)):
            assert_matches_per_deletion(g)
            report = is_two_rooted(g)
            verdicts.add(report.reason.split()[0] if report.reason else "certified")
    # every verdict is exercised: disconnected, a node leaving three parts,
    # branching blocks, and a certificate
    assert verdicts == {"graph", "deleting", "no", "certified"}


@settings(max_examples=150, deadline=None)
@given(block_graphs())
def test_two_rooted_on_joined_blocks_property(case):
    g, chain = case
    assert is_two_rooted(g).two_rooted == chain
    assert_matches_brute_force(g)
    assert_matches_per_deletion(g)


def _three_rings(n: int, chained: bool) -> FormationGraph:
    """Rings through the node groups 1..m, m+1..2m and 2m+1..3m (m = (n-1)/3):
    all three through node n, or, when chained, the first two through node n
    and the last through node 2m of the second."""
    m = (n - 1) // 3
    groups = [list(range(1 + k * m, 1 + (k + 1) * m)) for k in range(3)]
    rings = [groups[0] + [n], groups[1] + [n], groups[2] + [2 * m if chained else n]]
    return FormationGraph(n, tuple(e for r in rings for e in zip(r, r[1:] + r[:1])))


def test_three_rings_at_one_node_scale(monkeypatch):
    reads = []
    neighbors = FormationGraph.neighbors

    def counted(self, i):
        reads.append(i)
        return neighbors(self, i)

    n = 100
    g = _three_rings(n, chained=False)
    monkeypatch.setattr(FormationGraph, "neighbors", counted)
    report = is_two_rooted(g)
    assert report.reason == f"deleting node {n} leaves three or more parts"
    assert len(reads) <= 2 * n
    reads.clear()
    # the chained rings are 2-rooted at the first node of each outer ring
    assert is_two_rooted(_three_rings(n, chained=True)).certificate == (1, 67)
    assert len(reads) <= 2 * n
    monkeypatch.undo()
    shape = center_shape(np.exp(2j * np.pi * np.arange(n) / n) * (1 + np.arange(n) / n))
    with pytest.raises(PipelineFailed, match="not 2-rooted") as failed:
        design_pipeline(g, shape, MotionSpec(omega=1.0, kappa_r=0.025))
    assert failed.value.stage == "weights"


def test_chained_rings_certify_at_30001_nodes():
    # a search 30 000 nodes deep: no recursion limit, one pass
    report = is_two_rooted(_three_rings(30_001, chained=True))
    assert report == TwoRootedReport(True, certificate=(1, 20_001))
