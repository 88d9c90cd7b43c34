import numpy as np
import pytest

from lapmaneuver import (FormationGraph, MotionSpec, build_laplacian,
                         center_shape, compile_motion, incidence_matrix,
                         modified_laplacian, motion_matrix, motion_parameters,
                         synthesize_weights, velocity_field)

from conftest import random_instance, square_graph, square_shape


def test_pure_rotation_field(square):
    g, shape = square
    vf = velocity_field(MotionSpec(omega=1.0, kappa_r=1.0), shape)
    assert np.allclose(vf, 1j * shape.p_star)


def test_pure_translation_field(square):
    _, shape = square
    vf = velocity_field(MotionSpec(v_star=1 + 0j, kappa_t=1.0), shape)
    assert np.allclose(vf, np.ones(4))


def test_agent_centered_field_zero_at_center(square):
    _, shape = square
    spec = MotionSpec(omega=1.0, kappa_r=1.0, center_agent=3)
    vf = velocity_field(spec, shape)
    assert vf[2] == 0
    assert np.allclose(vf, 1j * (shape.p_star - shape.p_star[2]))


def test_zero_velocity_gives_empty_row(square):
    g, shape = square
    vf = np.zeros(4, dtype=complex)
    vf[0] = 1j * shape.p_star[0]
    mu = motion_parameters(g, shape, vf)
    assert set(i for i, _ in mu) == {1}


def test_mu_direct_quotient(square):
    g, shape = square
    vf = 1j * shape.p_star
    mu = motion_parameters(g, shape, vf)
    for (i, j), val in mu.items():
        assert val == vf[i - 1] / shape.edge_vector(i, j)
        assert j == g.neighbors(i)[0]  # lowest-index neighbor, deterministic


def test_velocity_reconstruction(square):
    g, shape = square
    B = incidence_matrix(g)
    rng = np.random.default_rng(0)
    for _ in range(10):
        vf = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        M = motion_matrix(g, motion_parameters(g, shape, vf))
        assert np.abs(M @ B.T @ shape.p_star - vf).max() < 1e-12


def test_motion_matrix_single_edge():
    g = FormationGraph(2, ((1, 2),))
    M = motion_matrix(g, {(1, 2): 3 - 1j})
    assert M.shape == (2, 1)
    assert M[0, 0] == 3 - 1j and M[1, 0] == 0
    p = np.array([1 + 1j, -2j])
    out = M @ incidence_matrix(g).T @ p
    assert out[0] == (3 - 1j) * (p[0] - p[1]) and out[1] == 0


def test_motion_matrix_empty():
    g = square_graph()
    assert np.all(motion_matrix(g, {}) == 0)


def test_neighbor_sum_identity():
    g = FormationGraph(4, ((1, 2), (2, 3), (3, 4), (4, 1)))
    rng = np.random.default_rng(1)
    mu = {}
    for i, j in g.neighbor_pairs():
        mu[(i, j)] = complex(rng.standard_normal(), rng.standard_normal())
    M = motion_matrix(g, mu)
    B = incidence_matrix(g)
    for _ in range(100):
        p = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        direct = np.array([sum(mu[(i, j)] * (p[i - 1] - p[j - 1])
                               for j in g.neighbors(i))
                           for i in range(1, 5)])
        assert np.abs(M @ B.T @ p - direct).max() < 1e-12


def test_orientation_invariance():
    g, shape = random_instance(6, seed=4)
    rng = np.random.default_rng(4)
    mu = {pair: complex(*rng.standard_normal(2)) for pair in g.neighbor_pairs()}
    M = motion_matrix(g, mu)
    B = incidence_matrix(g)
    flipped = tuple((j, i) if rng.random() < 0.5 else (i, j)
                    for i, j in g.oriented_edges)
    g2 = FormationGraph(g.n, flipped)
    M2 = motion_matrix(g2, mu)
    B2 = incidence_matrix(g2)
    assert np.abs(M @ B.T - M2 @ B2.T).max() < 1e-15


def test_locality_of_rows(square):
    g, shape = square
    vf = 1j * shape.p_star
    mu = motion_parameters(g, shape, vf)
    M = motion_matrix(g, mu)
    # changing agent 2's mu only changes row 2
    mu2 = dict(mu)
    (i, j), = [k for k in mu if k[0] == 2]
    mu2[(i, j)] = mu[(i, j)] * 2
    M2 = motion_matrix(g, mu2)
    diff = np.abs(M - M2)
    assert diff[1].max() > 0
    assert np.delete(diff, 1, axis=0).max() == 0


def test_combined_matrix_gains(square):
    g, shape = square
    spec = MotionSpec(v_star=0.5, a=-0.2, omega=0.7,
                      kappa_t=0.1, kappa_r=0.3, kappa_s=0.2)
    mm = compile_motion(g, shape, spec)
    assert np.array_equal(mm.M_tilde, motion_matrix(g, mm.mu_tilde))
    # mu~ = kappa_t mu_t + kappa_r mu_r + kappa_s mu_s, each mu from its own field
    p = shape.p_star
    weighted: dict = {}
    for gain, field in ((0.1, 0.5 * np.ones(4)), (0.3, 0.7j * p), (0.2, -0.2 * p)):
        for key, mu in motion_parameters(g, shape, field).items():
            weighted[key] = weighted.get(key, 0j) + gain * mu
    assert mm.mu_tilde.keys() == weighted.keys()
    for key, mu in weighted.items():
        assert mm.mu_tilde[key] == pytest.approx(mu, rel=1e-14)
    assert np.all(compile_motion(g, shape, MotionSpec()).M_tilde == 0)
    only_r = compile_motion(g, shape, MotionSpec(omega=1.0, kappa_r=1.0))
    assert np.allclose(only_r.M_tilde,
                       motion_matrix(g, motion_parameters(g, shape, 1j * p)))


def test_decomposition_identity(square):
    g, shape = square
    spec = MotionSpec(v_star=1 - 0.5j, a=0.4, omega=-0.8,
                      kappa_t=0.07, kappa_r=0.11, kappa_s=0.05)
    mm = compile_motion(g, shape, spec)
    B = incidence_matrix(g)
    lhs = mm.M_tilde @ B.T @ shape.p_star
    rhs = spec.kappa_t * spec.v_star * np.ones(4) \
        + (spec.kappa_s * spec.a + 1j * spec.kappa_r * spec.omega) * shape.p_star
    assert np.abs(lhs - rhs).max() < 1e-12
    assert mm.uniform_coeff == spec.kappa_t * spec.v_star
    assert mm.shape_coeff == spec.kappa_s * spec.a + 1j * spec.kappa_r * spec.omega


def test_agent_mode_identity(square):
    g, shape = square
    spec = MotionSpec(a=0.3, omega=1.2, kappa_r=0.2, kappa_s=0.1, center_agent=2)
    mm = compile_motion(g, shape, spec)
    B = incidence_matrix(g)
    lhs = mm.M_tilde @ B.T @ shape.p_star
    rhs = mm.uniform_coeff * np.ones(4) + mm.shape_coeff * shape.p_star
    assert np.abs(lhs - rhs).max() < 1e-12


def _modified(g, shape, spec, seed=0):
    w = synthesize_weights(g, shape, seed)
    L = build_laplacian(g, w)
    gains = np.ones(g.n, dtype=complex)
    mm = compile_motion(g, shape, spec)
    return L, modified_laplacian(g, L, gains, w, mm, spec)


def test_kappa_tilde_zero_is_identity(square):
    g, shape = square
    spec = MotionSpec(omega=1.0, kappa_r=0.025, kappa_tilde=0.0)
    L, mod = _modified(g, shape, spec)
    assert np.abs(mod.L_tilde - L).max() < 1e-15


def test_identity_gain_formula(square):
    g, shape = square
    spec = MotionSpec(omega=1.0, kappa_r=0.025, kappa_tilde=2.0)
    w = synthesize_weights(g, shape, 0)
    L = build_laplacian(g, w)
    mm = compile_motion(g, shape, spec)
    mod = modified_laplacian(g, L, np.ones(4, dtype=complex), w, mm, spec)
    B = incidence_matrix(g)
    assert np.abs(mod.L_tilde - (L - 2.0 * mm.M_tilde @ B.T)).max() < 1e-14


def test_modified_kernel_keeps_ones():
    g, shape = random_instance(6, seed=8)
    spec = MotionSpec(v_star=1 + 1j, a=-0.5, omega=0.9,
                      kappa_t=0.1, kappa_r=0.1, kappa_s=0.1)
    rng = np.random.default_rng(8)
    w = synthesize_weights(g, shape, 8)
    L = build_laplacian(g, w)
    gains = np.exp(rng.standard_normal(6) + 1j * rng.standard_normal(6))
    mm = compile_motion(g, shape, spec)
    mod = modified_laplacian(g, L, gains, w, mm, spec)
    KLt = np.diag(gains) @ mod.L_tilde
    assert np.abs(KLt @ np.ones(6)).max() < 1e-10


def test_spec_validation():
    with pytest.raises(ValueError):
        MotionSpec(omega=1.0)  # kappa_r missing
    with pytest.raises(ValueError):
        MotionSpec(v_star=1.0)
    with pytest.raises(ValueError):
        MotionSpec(a=1.0)
    with pytest.raises(ValueError):
        MotionSpec(kappa_tilde=-0.5)
