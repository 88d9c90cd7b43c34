from itertools import combinations

import numpy as np
import pytest

from lapmaneuver import FormationGraph, is_connected, is_two_rooted

from conftest import random_instance


def brute_force_two_rooted(g: FormationGraph) -> bool:
    """Literal check: a 2-node set from which every other node stays
    reachable after deleting any single node except itself."""
    adj = g.adjacency()
    nodes = list(range(1, g.n + 1))

    def reachable_from(sources, removed):
        seen = set(sources) - {removed}
        stack = list(seen)
        while stack:
            u = stack.pop()
            for v in adj[u]:
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
            return True
    return False


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
        assert is_two_rooted(g).two_rooted == brute_force_two_rooted(g)
        checked += 1
