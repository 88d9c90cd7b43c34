import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lapmaneuver import (FormationGraph, MotionSpec, PipelineFailed, SingularGain,
                         compile_motion, design_pipeline, is_two_rooted,
                         laplacian, modified_laplacian, motion_parameters,
                         synthesize_weights)

from conftest import (incidence_matrix, motion_fields, motion_matrix,
                      random_instance, ring_chord, square_graph)


def test_pure_rotation_field(square):
    g, shape = square
    mm = compile_motion(g, shape, MotionSpec(omega=1.0, kappa_r=1.0))
    assert (mm.uniform_coeff, mm.shape_coeff) == (0, 1j)
    assert np.allclose(mm.MBt @ shape.p_star, 1j * shape.p_star)


def test_pure_translation_field(square):
    g, shape = square
    mm = compile_motion(g, shape, MotionSpec(v_star=1 + 0j, kappa_t=1.0))
    assert (mm.uniform_coeff, mm.shape_coeff) == (1, 0)
    assert np.allclose(mm.MBt @ shape.p_star, np.ones(4))


def test_agent_centered_field_zero_at_center(square):
    g, shape = square
    spec = MotionSpec(omega=1.0, kappa_r=1.0, center_agent=3)
    mm = compile_motion(g, shape, spec)
    assert (mm.uniform_coeff, mm.shape_coeff) == (-1j * shape.p_star[2], 1j)
    assert not mm.mu_tilde[2].any()  # the center agent stands still, exactly
    assert np.allclose(mm.MBt @ shape.p_star, 1j * (shape.p_star - shape.p_star[2]))


_rates = st.just(0.0) | st.floats(1e-3, 2.0) | st.floats(-2.0, -1e-3)  # no underflow
_gains = st.floats(1e-3, 1.0)


@st.composite
def _specs(draw, n):
    center = draw(st.none() | st.integers(1, n))
    v_star = 0j if center else complex(draw(_rates), draw(_rates))
    return MotionSpec(v_star=v_star, a=draw(_rates), omega=draw(_rates),
                      kappa_t=draw(_gains), kappa_r=draw(_gains), kappa_s=draw(_gains),
                      center_agent=center)


@settings(max_examples=80, deadline=None)
@given(st.data(), st.integers(4, 12), st.integers(0, 2**32 - 1))
def test_one_field_is_the_papers_three_part_sum_property(data, n, seed):
    # mu~ from c 1 + s p* against kappa_t mu_t + kappa_r mu_r + kappa_s mu_s
    g, shape = random_instance(n, seed)
    assume(is_two_rooted(g).two_rooted)
    spec = data.draw(_specs(n))
    mm = compile_motion(g, shape, spec)
    paper = sum(gain * motion_parameters(g, shape, field)
                for gain, field in motion_fields(spec, shape))
    assert np.array_equal(mm.mu_tilde != 0, paper != 0)
    # relative to the terms of c + s p*_i over z*_ij: p*_i - p*_agent may cancel
    rows, cols = np.nonzero(paper)
    z = np.array([shape.edge_vector(i + 1, j + 1) for i, j in zip(rows, cols)])
    scale = (abs(mm.uniform_coeff) + abs(mm.shape_coeff) * np.abs(shape.p_star[rows])) / abs(z)
    assert np.all(np.abs(mm.mu_tilde - paper)[rows, cols] <= 1e-14 * scale)


def test_zero_velocity_gives_empty_row(square):
    g, shape = square
    vf = np.zeros(4, dtype=complex)
    vf[0] = 1j * shape.p_star[0]
    mu = motion_parameters(g, shape, vf)
    assert set(np.flatnonzero(mu.any(axis=1)) + 1) == {1}


def test_mu_direct_quotient(square):
    g, shape = square
    vf = 1j * shape.p_star
    mu = motion_parameters(g, shape, vf)
    for i, j in zip(*np.nonzero(mu)):
        assert mu[i, j] == vf[i] / shape.edge_vector(i + 1, j + 1)
        assert j + 1 == g.neighbors(i + 1)[0]  # lowest-index neighbor, deterministic


def test_velocity_reconstruction(square):
    g, shape = square
    rng = np.random.default_rng(0)
    for _ in range(10):
        vf = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        MBt = laplacian(motion_parameters(g, shape, vf))
        assert np.abs(MBt @ shape.p_star - vf).max() < 1e-12


def test_motion_matrix_single_edge():
    # the reference M(mu) of conftest, and the Laplacian of mu that replaces M B^T
    g = FormationGraph(2, ((1, 2),))
    mu = np.array([[0, 3 - 1j], [0, 0]])
    M = motion_matrix(g, mu)
    assert M.shape == (2, 1)
    assert M[0, 0] == 3 - 1j and M[1, 0] == 0
    p = np.array([1 + 1j, -2j])
    for out in (M @ incidence_matrix(g).T @ p, laplacian(mu) @ p):
        assert out[0] == (3 - 1j) * (p[0] - p[1]) and out[1] == 0


def test_motion_matrix_empty():
    g = square_graph()
    mu = np.zeros((4, 4), dtype=complex)
    assert np.all(motion_matrix(g, mu) == 0) and np.all(laplacian(mu) == 0)


def _edge_values(g, rng):
    """Random complex values on both directions of every edge of g."""
    mu = np.zeros((g.n, g.n), dtype=complex)
    for i in range(1, g.n + 1):
        for j in g.neighbors(i):
            mu[i - 1, j - 1] = complex(rng.standard_normal(), rng.standard_normal())
    return mu


def test_neighbor_sum_identity():
    g = FormationGraph(4, ((1, 2), (2, 3), (3, 4), (4, 1)))
    rng = np.random.default_rng(1)
    mu = _edge_values(g, rng)
    MBt = laplacian(mu)
    for _ in range(100):
        p = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        direct = np.array([sum(mu[i - 1, j - 1] * (p[i - 1] - p[j - 1])
                               for j in g.neighbors(i))
                           for i in range(1, 5)])
        assert np.abs(MBt @ p - direct).max() < 1e-12


_ORACLE_SPECS = (MotionSpec(omega=1.0, kappa_r=0.025),
                 MotionSpec(a=-0.3, omega=1.0, kappa_r=0.05, kappa_s=0.05),
                 MotionSpec(v_star=1 + 0.5j, kappa_t=0.1),
                 MotionSpec(v_star=0.5, a=-0.2, omega=0.7,
                            kappa_t=0.1, kappa_r=0.3, kappa_s=0.2),
                 MotionSpec(a=0.2, omega=-1.0, kappa_r=0.03, kappa_s=0.02,
                            center_agent=2),
                 MotionSpec())


@settings(max_examples=60, deadline=None)
@given(st.integers(4, 12), st.integers(0, 2**32 - 1), st.sampled_from(_ORACLE_SPECS))
def test_laplacian_of_mu_is_the_papers_MBt_property(n, seed, spec):
    g, shape = random_instance(n, seed)
    assume(is_two_rooted(g).two_rooted)
    B = incidence_matrix(g)
    # several nonzeros per row: equal up to the rounding of the row sums
    mu = _edge_values(g, np.random.default_rng(seed))
    oracle = motion_matrix(g, mu) @ B.T
    assert np.abs(laplacian(mu) - oracle).max() <= 1e-14 * np.abs(oracle).max()
    # one nonzero per row, as compile_motion builds: exactly equal
    mm = compile_motion(g, shape, spec)
    assert np.array_equal(mm.MBt, motion_matrix(g, mm.mu_tilde) @ B.T)


def test_orientation_invariance():
    # the design never reads which end of an edge is listed first
    rotation = MotionSpec(omega=1.0, kappa_r=0.025)
    translation = MotionSpec(v_star=1 + 0.5j, kappa_t=0.05)
    for g, shape in (ring_chord(24), random_instance(6, seed=4), random_instance(9, seed=2)):
        flipped = FormationGraph(g.n, tuple((j, i) if k % 2 else (i, j)
                                            for k, (i, j) in enumerate(g.oriented_edges)))
        assert flipped.oriented_edges != g.oriented_edges
        assert all(flipped.neighbors(i) == g.neighbors(i) for i in range(1, g.n + 1))
        for spec in (rotation, translation):
            a, b = (design_pipeline(h, shape, spec, seed=1) for h in (g, flipped))
            for x, y in ((a.bundle.weights, b.bundle.weights), (a.bundle.gains, b.bundle.gains),
                         (a.modified.L_tilde, b.modified.L_tilde),
                         (a.certificate.eigenvalues, b.certificate.eigenvalues)):
                assert x.tobytes() == y.tobytes()


def test_locality_of_rows(square):
    g, shape = square
    vf = 1j * shape.p_star
    mu = motion_parameters(g, shape, vf)
    # changing agent 2's mu only changes row 2
    mu2 = mu.copy()
    (j,), = np.nonzero(mu[1])
    mu2[1, j] = mu[1, j] * 2
    diff = np.abs(laplacian(mu) - laplacian(mu2))
    assert diff[1].max() > 0
    assert np.delete(diff, 1, axis=0).max() == 0


def test_combined_matrix_gains(square):
    g, shape = square
    spec = MotionSpec(v_star=0.5, a=-0.2, omega=0.7,
                      kappa_t=0.1, kappa_r=0.3, kappa_s=0.2)
    mm = compile_motion(g, shape, spec)
    assert np.array_equal(mm.MBt, laplacian(mm.mu_tilde))
    # mu~ = kappa_t mu_t + kappa_r mu_r + kappa_s mu_s, each mu from its own field
    p = shape.p_star
    weighted = sum(gain * motion_parameters(g, shape, field) for gain, field in
                   ((0.1, 0.5 * np.ones(4)), (0.3, 0.7j * p), (0.2, -0.2 * p)))
    assert np.array_equal(mm.mu_tilde != 0, weighted != 0)
    for i, j in zip(*np.nonzero(weighted)):
        assert mm.mu_tilde[i, j] == pytest.approx(weighted[i, j], rel=1e-14)
    assert np.all(compile_motion(g, shape, MotionSpec()).MBt == 0)
    only_r = compile_motion(g, shape, MotionSpec(omega=1.0, kappa_r=1.0))
    assert np.allclose(only_r.MBt, laplacian(motion_parameters(g, shape, 1j * p)))


def test_decomposition_identity(square):
    g, shape = square
    spec = MotionSpec(v_star=1 - 0.5j, a=0.4, omega=-0.8,
                      kappa_t=0.07, kappa_r=0.11, kappa_s=0.05)
    mm = compile_motion(g, shape, spec)
    lhs = mm.MBt @ shape.p_star
    rhs = spec.kappa_t * spec.v_star * np.ones(4) \
        + (spec.kappa_s * spec.a + 1j * spec.kappa_r * spec.omega) * shape.p_star
    assert np.abs(lhs - rhs).max() < 1e-12
    assert mm.uniform_coeff == spec.kappa_t * spec.v_star
    assert mm.shape_coeff == spec.kappa_s * spec.a + 1j * spec.kappa_r * spec.omega


def test_agent_mode_identity(square):
    g, shape = square
    spec = MotionSpec(a=0.3, omega=1.2, kappa_r=0.2, kappa_s=0.1, center_agent=2)
    mm = compile_motion(g, shape, spec)
    lhs = mm.MBt @ shape.p_star
    rhs = mm.uniform_coeff * np.ones(4) + mm.shape_coeff * shape.p_star
    assert np.abs(lhs - rhs).max() < 1e-12


def _modified(g, shape, spec, seed=0):
    w = synthesize_weights(g, shape, seed)
    gains = np.ones(g.n, dtype=complex)
    mm = compile_motion(g, shape, spec)
    return laplacian(w), modified_laplacian(w, gains, mm, spec)


def test_kappa_tilde_zero_is_identity(square):
    g, shape = square
    spec = MotionSpec(omega=1.0, kappa_r=0.025, kappa_tilde=0.0)
    L, mod = _modified(g, shape, spec)
    assert np.abs(mod.L_tilde - L).max() < 1e-15


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([random_instance, ring_chord]), st.integers(4, 12),
       st.integers(0, 2**32 - 1), st.sampled_from(_ORACLE_SPECS))
def test_laplacian_of_the_modified_weights_is_the_matrix_formula_property(
        instance, n, seed, spec):
    # L~ = laplacian(W~) against the paper's L - kappa~ K^-1 M~ B^T, with
    # complex gains: equal up to the rounding of the row sums
    g, shape = instance(n, seed)
    assume(is_two_rooted(g).two_rooted)
    w = synthesize_weights(g, shape, seed)
    rng = np.random.default_rng(seed)
    gains = np.exp(rng.standard_normal(n) + 1j * rng.standard_normal(n))
    mm = compile_motion(g, shape, spec)
    mod = modified_laplacian(w, gains, mm, spec)
    formula = laplacian(w) - (spec.kappa_tilde / gains)[:, None] * mm.MBt
    assert np.abs(mod.L_tilde - formula).max() <= 1e-12 * max(np.abs(mod.L_tilde).max(), 1.0)
    assert np.array_equal(mod.L_tilde, laplacian(mod.weights))


def test_modified_kernel_keeps_ones():
    g, shape = random_instance(6, seed=8)
    spec = MotionSpec(v_star=1 + 1j, a=-0.5, omega=0.9,
                      kappa_t=0.1, kappa_r=0.1, kappa_s=0.1)
    rng = np.random.default_rng(8)
    w = synthesize_weights(g, shape, 8)
    gains = np.exp(rng.standard_normal(6) + 1j * rng.standard_normal(6))
    mm = compile_motion(g, shape, spec)
    mod = modified_laplacian(w, gains, mm, spec)
    KLt = np.diag(gains) @ mod.L_tilde
    assert np.abs(KLt @ np.ones(6)).max() < 1e-10


def test_a_zero_gain_is_refused(square):
    # the gains come from the caller: k_i = 0 leaves kappa~ / k_i undefined
    g, shape = square
    spec = MotionSpec(omega=1.0, kappa_r=0.025)
    w, mm = synthesize_weights(g, shape, 0), compile_motion(g, shape, spec)
    with pytest.raises(SingularGain, match="zero diagonal entry"):
        modified_laplacian(w, np.array([1, 1j, 0, 2], dtype=complex), mm, spec)


def test_spec_validation():
    with pytest.raises(ValueError):
        MotionSpec(omega=1.0)  # kappa_r missing
    with pytest.raises(ValueError):
        MotionSpec(v_star=1.0)
    with pytest.raises(ValueError):
        MotionSpec(a=1.0)
    with pytest.raises(ValueError):
        MotionSpec(kappa_tilde=-0.5)


@pytest.mark.parametrize("agent", [0, -1])
def test_center_agent_counts_from_one(agent):
    # negative indexing would rotate about agent n or n - 1
    with pytest.raises(ValueError, match="center_agent counts agents from 1"):
        MotionSpec(omega=1.0, kappa_r=0.1, center_agent=agent)


def test_center_agent_past_n_is_named(square):
    g, shape = square
    spec = MotionSpec(omega=1.0, kappa_r=0.1, center_agent=5)
    with pytest.raises(ValueError, match="center_agent 5 out of range for 4 agents"):
        compile_motion(g, shape, spec)
    with pytest.raises(PipelineFailed, match="center_agent 5") as exc:
        design_pipeline(g, shape, spec)
    assert exc.value.stage == "motion"
