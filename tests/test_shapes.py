import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lapmaneuver import (DegenerateShape, FormationGraph, InfeasibleRow,
                         ReferenceShape, WeightSet, build_laplacian,
                         center_shape, stabilize_gains, synthesize_weights)
from lapmaneuver.shapes import TOLERANCES, split_spectrum

from conftest import (decagon_graph, decagon_shape, random_instance, ring_chord,
                      square_graph, square_shape)


def test_center_shape_two_points():
    shape = center_shape([1 + 0j, 3 + 0j])
    assert np.allclose(shape.p_star, [-1, 1])


def test_center_shape_idempotent():
    shape = center_shape([-1 - 1j, 1 + 1j])
    again = center_shape(shape.p_star)
    assert np.abs(again.p_star - shape.p_star).max() < 1e-15


def test_center_shape_unit_square():
    shape = center_shape([0, 1, 1 + 1j, 1j])
    assert abs(shape.p_star.sum()) < 1e-14
    assert np.allclose(shape.p_star, np.array([0, 1, 1 + 1j, 1j]) - (0.5 + 0.5j))


def test_center_shape_rejects_coincident():
    with pytest.raises(DegenerateShape):
        center_shape([1 + 1j, 1 + 1j, 1 + 1j])


def test_uncentered_shape_rejected():
    with pytest.raises(DegenerateShape):
        ReferenceShape(np.array([1 + 0j, 2 + 0j]))


def test_two_neighbor_formula():
    # p1 - p2 = 1, p1 - p3 = i on a triangle
    g = FormationGraph(3, ((1, 2), (2, 3), (3, 1)))
    shape = center_shape([0j, -1 + 0j, -1j])
    w = synthesize_weights(g, shape, seed=0)
    assert w[(1, 2)] == shape.edge_vector(1, 3) == 1j
    assert w[(1, 3)] == -shape.edge_vector(1, 2) == -1
    assert abs(w[(1, 2)] * 1 + w[(1, 3)] * 1j) == 0


def test_square_rank_two_kernel():
    w = synthesize_weights(square_graph(), square_shape(), seed=0)
    L = build_laplacian(square_graph(), w)
    s = np.linalg.svd(L, compute_uv=False)
    assert s[-2] < 1e-10 * s[0]
    assert s[-3] > 1e-6 * s[0]


def test_kernel_contains_shape_space():
    g, shape = random_instance(8, seed=5)
    w = synthesize_weights(g, shape, seed=5)
    L = build_laplacian(g, w)
    assert np.abs(L @ np.ones(8)).max() < 1e-12
    assert np.abs(L @ shape.p_star).max() < 1e-12


def test_degree_one_rejected():
    g = FormationGraph(3, ((1, 2), (2, 3)))
    shape = center_shape([0j, 1 + 0j, 2 + 1j])
    with pytest.raises(InfeasibleRow):
        synthesize_weights(g, shape, seed=0)


def test_coincident_neighbors_rejected():
    g = FormationGraph(3, ((1, 2), (2, 3), (3, 1)))
    raw = np.array([0j, 1 + 0j, 1 + 0j])
    shape = ReferenceShape(raw - raw.mean())
    with pytest.raises(InfeasibleRow):
        synthesize_weights(g, shape, seed=0)


def test_build_laplacian_two_nodes():
    g = FormationGraph(2, ((1, 2),))
    w = WeightSet({(1, 2): 2 + 1j, (2, 1): 2 + 1j})
    L = build_laplacian(g, w)
    assert np.allclose(L, [[2 + 1j, -2 - 1j], [-2 - 1j, 2 + 1j]])


def test_laplacian_rows_sum_zero():
    g, shape = random_instance(6, seed=9)
    w = synthesize_weights(g, shape, seed=9)
    L = build_laplacian(g, w)
    assert np.abs(L.sum(axis=1)).max() < 1e-12


def test_laplacian_not_symmetric_in_general():
    g, shape = random_instance(6, seed=2)
    w = synthesize_weights(g, shape, seed=2)
    L = build_laplacian(g, w)
    assert np.abs(L - L.T).max() > 1e-8


def test_constraint_residual_many_seeds():
    for seed in range(50):
        n = 4 + seed % 9
        g, shape = random_instance(n, seed=seed)
        w = synthesize_weights(g, shape, seed=seed)
        for i in range(1, n + 1):
            terms = [w[(i, j)] * shape.edge_vector(i, j) for j in g.neighbors(i)]
            assert abs(sum(terms)) < 1e-12 * sum(abs(t) for t in terms)


def test_scale_equivariance():
    g, shape = random_instance(7, seed=13)
    w = synthesize_weights(g, shape, seed=13)
    L = build_laplacian(g, w)
    c = 0.7 - 1.9j
    assert np.abs(L @ (c * shape.p_star)).max() < 1e-10


def test_square_gains_identity_first_try():
    # square with regular-polygon symmetry: K = I already stabilizes
    w = synthesize_weights(square_graph(), square_shape(), seed=0)
    L = build_laplacian(square_graph(), w)
    gains, _ = stabilize_gains(L)
    assert np.allclose(gains, np.ones(4))


def test_gains_noop_when_already_stable():
    # K = I passes here although KL's diagonal is not 1: I is kept, exactly
    g, shape = random_instance(4, seed=0)
    L = build_laplacian(g, synthesize_weights(g, shape, seed=0))
    assert not np.allclose(np.diag(L), 1)
    assert np.array_equal(stabilize_gains(L)[0], np.ones(4))


def test_zero_laplacian_diagonal_starts_from_a_unit_gain():
    # node 1's two neighbors share a reference position, so l_11 = 0 and
    # the closed form 1/l_ii has no value there
    g = FormationGraph(5, ((1, 2), (2, 3), (3, 4), (4, 5), (5, 1), (2, 4), (3, 5)))
    shape = center_shape([0, 1, 2 + 1j, 1 + 2j, 1])
    L = build_laplacian(g, synthesize_weights(g, shape, seed=0))
    assert L[0, 0] == 0
    gains, _ = stabilize_gains(L)
    assert np.isfinite(gains).all()
    ev = np.linalg.eigvals(np.diag(gains) @ L)
    assert ev[split_spectrum(ev)[2:]].real.min() > 0


def test_decagon_gain_search_and_recheck():
    g, shape = decagon_graph(), decagon_shape()
    w = synthesize_weights(g, shape, seed=0)
    L = build_laplacian(g, w)
    gains, _ = stabilize_gains(L)
    # independent recomputation with a second eigensolver
    ev = scipy.linalg.eigvals(np.diag(gains) @ L)
    ev = ev[np.argsort(np.abs(ev))]
    assert np.abs(ev[:2]).max() < 1e-8 * np.abs(ev).max()
    assert ev[2:].real.min() > 0


def test_random_instance_gain_validity():
    g, shape = random_instance(5, seed=21)
    w = synthesize_weights(g, shape, seed=21)
    L = build_laplacian(g, w)
    gains, _ = stabilize_gains(L)
    ev = np.linalg.eigvals(np.diag(gains) @ L)
    assert ev[split_spectrum(ev)[2:]].real.min() > 0


_INSTANCES = st.one_of(
    st.builds(random_instance, st.integers(4, 12), st.integers(0, 2**32 - 1)),
    st.builds(ring_chord, st.integers(4, 12), st.integers(0, 2**32 - 1)))


@settings(max_examples=40, deadline=None)
@given(_INSTANCES, st.integers(0, 3))
@example(random_instance(11, 249428333), 3)  # sticks if the start temperature is 0.01
def test_gains_are_deterministic_with_a_real_margin_property(instance, seed):
    g, shape = instance
    L = build_laplacian(g, synthesize_weights(g, shape, seed=seed))
    gains, _ = stabilize_gains(L)
    assert np.array_equal(gains, stabilize_gains(L)[0])
    ev = np.linalg.eig(gains[:, None] * L)[0]  # the product stabilize_gains decomposes
    margin = TOLERANCES["gain_margin_rel"] * np.abs(np.linalg.eig(L)[0]).max()
    assert ev[split_spectrum(ev)[2:]].real.min() >= margin
