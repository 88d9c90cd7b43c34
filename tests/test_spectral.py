import dataclasses
import itertools
import json
import math
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, example, given, settings
from scipy.linalg.lapack import zgees
from hypothesis import strategies as st

from lapmaneuver import (SCENARIO_NAMES, ExpansionIllConditioned,
                         FormationGraph, MotionSpec, NonDiagonalizable, NotTwoRooted,
                         PipelineFailed, ReferenceShape, SplitCertificate,
                         StabilityAnalysis, builtin_scenario, center_shape,
                         design_pipeline, exact_trajectory, predict_steady_state,
                         scenario_from_dict, shape_error, stability_bound)
from lapmaneuver import spectral
from lapmaneuver.cli import main
from lapmaneuver.shapes import TOLERANCES, nonkernel_eigenvalues
from lapmaneuver.spectral import MAX_BOOSTS

from conftest import (block_graphs, decagon_graph, decagon_shape, fresh_eig_rel,
                      random_instance, ring_chord, square_graph, square_shape)


def _design(spec, g=None, shape=None, seed=0):
    g = g or square_graph()
    shape = shape or square_shape()
    return design_pipeline(g, shape, spec, seed=seed)


def test_unmodified_has_double_kernel(square):
    g, shape = square
    d = _design(MotionSpec())
    ev = np.linalg.eigvals(d.KL_tilde)
    ev = ev[np.argsort(np.abs(ev))]
    assert np.abs(ev[:2]).max() < 1e-12
    # eigenvectors span {1, p*}: both vectors are annihilated
    assert np.abs(d.KL_tilde @ np.ones(4)).max() < 1e-12
    assert np.abs(d.KL_tilde @ shape.p_star).max() < 1e-12


def test_rotation_moving_eigenvalue(square):
    d = _design(MotionSpec(omega=1.0, kappa_r=0.025))
    c = d.certificate
    # B11 is triangular with the kernel and the moving mode on its diagonal
    assert abs(c.eigenvalues[0]) < 1e-12 and abs(c.eigenvalues[1] - (-0.025j)) < 1e-12
    assert abs(c.B[1, 0]) < 1e-14
    assert c.split_residual < 1e-14 and c.motion_residual < 1e-14
    assert c.min_eig_P > 0 and np.diag(c.T).real.min() > 0


def test_rotation_scaling_combined_sign(square):
    d = _design(MotionSpec(a=-1.0, omega=1.0, kappa_r=0.025, kappa_s=0.025))
    target = -(0.025 * -1.0 + 1j * 0.025 * 1.0)
    assert abs(d.certificate.eigenvalues[1] - target) < 1e-8
    assert target == 0.025 - 0.025j


def test_moving_eigenvector_identity(square):
    g, shape = square
    spec = MotionSpec(v_star=0.4 - 0.2j, a=0.3, omega=0.8,
                      kappa_t=0.02, kappa_r=0.025, kappa_s=0.015)
    d = _design(spec)
    mm = d.motion
    s = mm.shape_coeff
    u = (mm.uniform_coeff / s) * np.ones(4) + shape.p_star
    resid = np.linalg.norm(d.KL_tilde @ u + spec.kappa_tilde * s * u)
    assert resid < 1e-10 * np.linalg.norm(u)


def test_translation_chain(square):
    g, shape = square
    spec = MotionSpec(v_star=1.0, kappa_t=0.05)
    d = _design(spec)
    # K L~ p* = -0.05 * 1
    resid = np.abs(d.KL_tilde @ shape.p_star + 0.05 * np.ones(4)).max()
    assert resid < 1e-12
    # the chain: B11 is nilpotent and nonzero, the rest is certified stable
    B11 = d.certificate.B[:2, :2]
    assert np.abs(B11 @ B11).max() < 1e-14 and abs(B11[0, 1]) > 0.01
    assert d.certificate.min_eig_P > 0


def test_static_degenerate_chain(square):
    # no translation requested: p* stays in the kernel
    d = _design(MotionSpec())
    assert np.abs(d.KL_tilde @ square_shape().p_star).max() < 1e-12


def _broken_weights(A, Q):
    A = A.copy()
    A[0, 1] += 1e-2
    return A


def _bent(A, Q):
    # S fixes 1 and keeps every eigenvalue, but bends the moving eigenvector
    S = np.eye(len(A))
    S[:2, 2:4] = 0.2 * np.array([[1, -1], [-1, 1]])
    return S @ A @ (2 * np.eye(len(A)) - S)


def _rank_deficit(A, Q):
    # projecting out w orthogonal to {1, p*} keeps S and B11, makes B22 singular
    return A @ (np.eye(len(A)) - np.outer(Q[:, 2], Q[:, 2].conj()))


def _flipped(A, Q):
    # keeps K L~ on S and negates the rest: B22 -> -B22, whose P is negative
    return A @ Q @ np.diag([1.0, 1.0] + [-1.0] * (len(A) - 2)) @ Q.conj().T


def _wrong_drift(A, Q):
    # K L~ p* gains a multiple of 1 and K L~ 1 is kept (Q[:, 1] is p* / ||p*||,
    # orthogonal to 1): the translation's drift is off, and only B11 changes
    return A + 0.025 * np.outer(np.ones(len(A)), Q[:, 1].conj())


MUTANTS = [("enclosing", _broken_weights, "invariance residual"),
           ("enclosing", _bent, "invariance residual"),
           ("traveling_heading", _rank_deficit, "P not positive definite"),
           ("traveling_heading", _flipped, "P not positive definite"),
           ("traveling_heading", _wrong_drift, "B11 error")]


@pytest.mark.parametrize("name, mutate, match", MUTANTS,
                         ids=["broken-weights", "bent-eigenvector", "rank-deficit",
                              "flipped-remainder", "wrong-drift"])
def test_mutants_fail_at_verify_with_exit_4(tmp_path, capsys, monkeypatch, name, mutate, match):
    from lapmaneuver import spectral
    real = spectral.verify_motion_spectrum

    def mutant(A, motion, spec, shape):
        return real(mutate(A, shape.plane[0]), motion, spec, shape)

    monkeypatch.setattr(spectral, "verify_motion_spectrum", mutant)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(builtin_scenario(name)))
    assert main(["verify", "--scenario", str(path), "--out", str(tmp_path)]) == 4
    err = capsys.readouterr().err
    assert "verification failed: design pipeline failed at stage 'verify': " \
           "shape-plane split not certified: " in err
    assert match in err


STATIC = {"motion": {"a": 0.0, "omega": 0.0, "kappa_r": 0.0, "kappa_s": 0.0}}


@pytest.mark.parametrize("name, over", [(name, None) for name in SCENARIO_NAMES]
                         + [("enclosing", {"motion": {"kappa_tilde": 20.0}}),
                            ("spiral_outward", STATIC)])
def test_one_decomposition_per_design_and_report(monkeypatch, name, over):
    # every eig, eigvals and zgees of the pipeline and the report, gain rule
    # included, is of an (n - 2) block B22(A) = Q2^H A Q2 off the shape plane,
    # and each block goes to exactly one of them, even formed another way
    # (equal up to rounding), but for a static design's B22(K L~), which is
    # the gain rule's B22(K L). B22(L) goes to none (the rule starts from
    # k_i = 1/l_ii), B22 of the gain rule's K L to one eig and one bound; a
    # boost scales that bound, so the shipped 2^k K L is never decomposed;
    # B22(K L~) goes once to zgees without Schur vectors, which the design
    # and the report's prediction both read; no Schur vectors are formed
    # anywhere
    from lapmaneuver import spectral
    from lapmaneuver.cli import build_report

    seen, bounds, schurs = [], [], []
    eig, eigvals, schur = np.linalg.eig, np.linalg.eigvals, scipy.linalg.schur
    monkeypatch.setattr(spectral, "stability_bound",
                        lambda *args: bounds.append(args) or stability_bound(*args))
    monkeypatch.setattr(scipy.linalg, "schur",
                        lambda A, *a, **kw: schurs.append(A) or schur(A, *a, **kw))

    def triangle(sort, A, **kw):  # the workspace query (lwork -1) aside
        if kw["lwork"] != -1:
            seen.append((zgees, np.array(A), kw["compute_v"]))
        return zgees(sort, A, **kw)

    monkeypatch.setattr(spectral, "zgees", triangle)

    def counted(fn):
        def wrapper(A):
            seen.append((fn, np.array(A), None))
            return fn(A)
        return wrapper

    monkeypatch.setattr(np.linalg, "eig", counted(eig))
    monkeypatch.setattr(np.linalg, "eigvals", counted(eigvals))
    sc = scenario_from_dict(builtin_scenario(name, over))
    assert over is not STATIC or sc.spec == MotionSpec()
    d = design_pipeline(sc.graph, sc.shape, sc.spec, seed=sc.design_seed)
    build_report(sc, d)

    def close(A, M):
        return A.shape == M.shape and np.abs(A - M).max() <= 1e-12 * np.abs(M).max()

    Q2 = d.shape.plane[0][:, 2:]

    def count(M, by=(eig, eigvals, zgees)):
        return sum(f in by and close(A, Q2.conj().T @ M @ Q2) for f, A, _ in seen)

    # a static design has boost 1 and K L~ = K L: its one block twice
    L, static, B22 = d.bundle.L, d.motion.case == "static", d.certificate.B[2:, 2:]
    assert all(A.shape == (L.shape[0] - 2,) * 2 for _, A, _ in seen)
    assert count(L) == 0
    assert count(d.KL_tilde, by=(zgees,)) == 1 and count(d.KL_tilde) == 1 + static
    assert count(d.bundle.KL / d.boost, by=(eig,)) == 1
    assert count(d.bundle.KL / d.boost) == 1 + static
    assert count(d.bundle.KL) == (d.boost == 1) + static
    assert len(bounds) == 1
    assert all(sum(close(M, A) for _, M, _ in seen) == 1 + (static and close(A, B22))
               for _, A, _ in seen)
    triangles = [(A, compute_v) for f, A, compute_v in seen if f is zgees]
    assert len(triangles) == 1 and np.array_equal(triangles[0][0], d.certificate.B[2:, 2:])
    assert triangles[0][1] == 0
    assert schurs == [] and not hasattr(spectral, "schur")


# centroid or agent center, each of v*, omega and a zero or not, where
# MotionSpec accepts the combination (v* excludes an agent center)
SPECS = [dict(center_agent=c, v_star=v, omega=w, a=a) for c, v, w, a in
         itertools.product((None, 2), (0j, 0.4 - 0.2j), (0.0, 0.8), (0.0, 0.3))
         if c is None or v == 0]


@pytest.mark.parametrize("kw", SPECS, ids=lambda kw: "-".join(
    f"{k}={v}" for k, v in kw.items()))
def test_case_is_decided_once_from_the_compiled_motion(square, kw):
    spec = MotionSpec(**kw, kappa_t=0.02, kappa_r=0.025, kappa_s=0.015)
    d = _design(spec)
    expected = ("moving" if kw["omega"] or kw["a"]
                else "translation" if kw["v_star"] else "static")
    assert d.motion.case == expected
    assert type(d.certificate) is SplitCertificate  # one certificate for every case
    rng = np.random.default_rng(5)
    p0 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    assert predict_steady_state(p0, d).case == d.motion.case


def test_zero_perturbation_unbounded(square):
    g, shape = square
    d = _design(MotionSpec())
    assert math.isinf(d.stability.kappa_tilde_max)


def test_gain_boost_doubles_bound(square):
    _, shape = square
    spec = MotionSpec(omega=1.0, kappa_r=0.025)
    d = _design(spec)
    KL = d.bundle.KL
    base = stability_bound(nonkernel_eigenvalues(KL, shape), d.motion.MBt, shape)
    boosted = stability_bound(nonkernel_eigenvalues(2.0 * KL, shape), d.motion.MBt, shape)
    assert boosted.kappa_tilde_max == pytest.approx(2 * base.kappa_tilde_max,
                                                   rel=1e-10)


def test_bound_monotonic_in_h(square):
    _, shape = square
    spec = MotionSpec(omega=1.0, kappa_r=0.025)
    d = _design(spec)
    for h in (3.0, 10.0):
        scaled = stability_bound(nonkernel_eigenvalues(h * d.bundle.KL, shape), d.motion.MBt,
                                 shape)
        assert scaled.kappa_tilde_max == pytest.approx(
            h * d.stability.kappa_tilde_max, rel=1e-10)


def test_lyapunov_certificate(square):
    d = _design(MotionSpec(omega=1.0, kappa_r=0.025))
    ev = d.stability.eigenvalues  # the kernel pair first, as exact zeros
    assert np.array_equal(ev[:2], [0, 0]) and np.all(ev[2:].real > 0)
    assert 0 < d.stability.kappa_tilde_max < math.inf


def test_pipeline_boosts_until_admitted(square):
    g, shape = square
    base = _design(MotionSpec(omega=1.0, kappa_r=0.025))
    want = 4.0 * base.stability.kappa_tilde_max
    boosted = _design(MotionSpec(omega=1.0, kappa_r=0.025, kappa_tilde=want))
    assert boosted.boost > 1.0
    assert boosted.stability.kappa_tilde_max > want
    assert boosted.certificate.min_eig_P > 0


def test_pipeline_static_trivial(square):
    d = _design(MotionSpec())
    assert np.abs(d.certificate.B[:2, :2]).max() < 1e-12  # S is the kernel
    assert d.certificate.min_eig_P > 0
    assert d.boost == 1.0


def test_pipeline_infeasible_graph():
    from lapmaneuver import FormationGraph, center_shape
    g = FormationGraph(4, ((1, 2), (1, 3), (1, 4)))  # star
    shape = center_shape([0j, 1 + 0j, 1j, -1 + 0j])
    with pytest.raises(PipelineFailed) as exc:
        design_pipeline(g, shape, MotionSpec())
    assert exc.value.stage == "weights"


def test_predict_pure_orbit(square):
    g, shape = square
    spec = MotionSpec(omega=1.0, kappa_r=0.025)
    d = _design(spec)
    pred = predict_steady_state(shape.p_star, d)
    assert abs(pred.c1) < 1e-10
    assert abs(pred.c2 - 1) < 1e-10
    assert pred.rate == pytest.approx(0.025j)


def test_predict_collocated_start(square):
    g, shape = square
    spec = MotionSpec(omega=1.0, kappa_r=0.025)
    d = _design(spec)
    pred = predict_steady_state(np.ones(4, dtype=complex), d)
    assert abs(pred.c2) < 1e-10


def test_predict_matches_expm_oracle(square):
    g, shape = square
    spec = MotionSpec(omega=1.0, kappa_r=0.025)
    d = _design(spec)
    rng = np.random.default_rng(6)
    p0 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    pred = predict_steady_state(p0, d)
    t = 100.0
    sim = scipy.linalg.expm(-d.KL_tilde * t) @ p0
    rel = np.linalg.norm(sim - pred.evaluate(t)) / np.linalg.norm(pred.evaluate(t))
    assert rel < 1e-4


def test_predict_translation_velocity(square):
    g, shape = square
    spec = MotionSpec(v_star=1.0, kappa_t=0.05)
    d = _design(spec)
    rng = np.random.default_rng(7)
    p0 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    pred = predict_steady_state(p0, d)
    t = 200.0
    sim = scipy.linalg.expm(-d.KL_tilde * t) @ p0
    rel = np.linalg.norm(sim - pred.evaluate(t)) / np.linalg.norm(pred.evaluate(t))
    assert rel < 1e-6
    # steady velocity is -c2 kappa~ kappa_t v*, uniform across agents
    vel = -d.KL_tilde @ sim
    assert np.abs(vel - pred.steady_velocity).max() < 1e-8
    assert pred.steady_velocity == pytest.approx(-pred.c2 * 0.05 * 1.0)


def test_predict_at_zero_reproduces_shape_component(square):
    g, shape = square
    spec = MotionSpec(a=0.5, omega=0.0, kappa_s=0.05, kappa_r=0.0)
    d = _design(spec)
    rng = np.random.default_rng(9)
    p0 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    pred = predict_steady_state(p0, d)
    at0 = pred.evaluate(0.0)
    # the prediction at t=0 lies in S and the remainder is purely decaying
    basis = np.column_stack([np.ones(4), shape.p_star])
    coef, *_ = np.linalg.lstsq(basis, at0, rcond=None)
    assert np.abs(basis @ coef - at0).max() < 1e-10
    remainder = scipy.linalg.expm(-d.KL_tilde * 50.0) @ (p0 - at0)
    assert np.abs(remainder).max() < 1e-10


_DECAGONS = ("shaped_consensus_inward", "spiral_outward")  # repeated non-kernel eigenvalues
_PREDICTION_SPECS = (MotionSpec(omega=1.0, kappa_r=0.025),
                     MotionSpec(a=1.0, omega=1.0, kappa_r=0.025, kappa_s=0.025),
                     MotionSpec(a=-0.3, omega=1.0, kappa_r=0.05, kappa_s=0.05),
                     MotionSpec(v_star=1 + 0.5j, kappa_t=0.1),
                     MotionSpec())


def _sylvester_split(p0, d):
    """(c1, c2) of p(0) projected on S along the rest of the spectrum of
    K L~, with Y of B11 Y - Y B22 = -B12 from scipy's solve_sylvester (all of
    B11) and the coordinates from a least-squares fit in [1, basis]."""
    B, Q = d.certificate.B, d.shape.plane[0]
    Y = scipy.linalg.solve_sylvester(B[:2, :2], -B[2:, 2:], -B[:2, 2:])
    x = Q.conj().T @ p0
    on_S = Q[:, :2] @ (x[:2] - Y @ x[2:])
    c, s, p = d.motion.uniform_coeff, d.motion.shape_coeff, d.shape.p_star
    basis = c / s + p if d.motion.case == "moving" else \
        -p if d.motion.case == "translation" else p
    return np.linalg.lstsq(np.column_stack([np.ones(p.size), basis]), on_S, rcond=None)[0]


@settings(max_examples=40, deadline=None)
@given(st.one_of(st.sampled_from(_DECAGONS),
                 st.tuples(st.sampled_from([ring_chord, random_instance]), st.integers(4, 16),
                           st.integers(0, 2**32 - 1), st.sampled_from(_PREDICTION_SPECS),
                           st.integers(0, 3))),
       st.integers(0, 2**32 - 1))
@example(_DECAGONS[0], 0)
@example(_DECAGONS[1], 0)
def test_prediction_matches_a_sylvester_oracle_property(case, p0_seed):
    if isinstance(case, str):
        sc = scenario_from_dict(builtin_scenario(case))
        g, shape, spec, seed = sc.graph, sc.shape, sc.spec, sc.design_seed
    else:
        instance, n, instance_seed, spec, seed = case
        g, shape = instance(n, instance_seed)
    try:
        d = design_pipeline(g, shape, spec, seed=seed)
    except PipelineFailed:
        assume(False)
    rng = np.random.default_rng(p0_seed)
    p0 = rng.standard_normal(shape.n) + 1j * rng.standard_normal(shape.n)
    pred = predict_steady_state(p0, d)
    ref = _sylvester_split(p0, d)
    assert np.abs(np.array([pred.c1, pred.c2]) - ref).max() <= 1e-10 * np.abs(ref).max()


def test_random_instances_verify(square):
    for seed in (1, 2, 3):
        g, shape = random_instance(5, seed=seed)
        spec = MotionSpec(omega=0.5, kappa_r=0.05)
        d = design_pipeline(g, shape, spec, seed=seed)
        assert abs(d.certificate.eigenvalues[1] - (-0.025j)) < 1e-8  # -kappa~ i kappa_r omega
        assert d.certificate.min_eig_P > 0


def test_ring_chord_48_designs():
    # the benchmark sweep's n = 48 instance, which a random search over gains
    # never stabilized
    g, shape = ring_chord(48)
    d = design_pipeline(g, shape, MotionSpec(omega=1.0, kappa_r=0.025))
    assert d.certificate.min_eig_P > 0


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_ring_chord_64_designs(seed):
    g, shape = ring_chord(64)
    d = design_pipeline(g, shape, MotionSpec(omega=1.0, kappa_r=0.025), seed=seed)
    assert d.certificate.min_eig_P > 0


def test_ring_chord_100_translation_certifies():
    # the benchmark's ring+chord at n = 100 with its 1e-4 jitter (seed 1):
    # the boost spreads the singular values of K L~ so far that a rank test
    # at 1e-8 sigma_1 read rank 98 here and refused the design
    g, shape = ring_chord(100)
    rng = np.random.default_rng([1, 100])
    shape = center_shape(shape.p_star + 1e-4 * (rng.standard_normal(100)
                                                 + 1j * rng.standard_normal(100)))
    d = design_pipeline(g, shape, MotionSpec(v_star=1.0, kappa_t=0.05), seed=3)
    c = d.certificate
    assert d.motion.case == "translation" and d.boost > 1e3
    assert c.split_residual < 1e-14 and c.motion_residual < 1e-14
    assert c.min_eig_P > 0 and c.cond_P < 1e7


@pytest.mark.parametrize("name", SCENARIO_NAMES)
def test_shape_error_settles_within_the_lyapunov_bound(name):
    # with B21 = 0, x2 = Q2^H p obeys x2' = -B22 x2 exactly, and ||x2|| is the
    # numerator of shape_error; V = x2^H P x2 has V' = -2 ||x2||^2, so
    # ||x2(t)|| <= sqrt(cond P) e^(-t / lambda_max(P)) ||x2(0)||, up to the
    # rounding floor of x2 (below 1e-14 ||p|| on these runs). Heading control
    # changes the closed loop, so it is removed
    sc = scenario_from_dict(builtin_scenario(name))
    d = design_pipeline(sc.graph, sc.shape, sc.spec, seed=sc.design_seed)
    traj = exact_trajectory(d.modified.L_tilde, d.bundle.gains,
                            dataclasses.replace(sc.sim, heading=None), sc.shape)
    c = d.certificate
    x2 = np.linalg.norm(traj.states @ d.shape.plane[0][:, 2:].conj(), axis=1)
    norms = np.linalg.norm(traj.states, axis=1)
    assert np.allclose(shape_error(traj.states, sc.shape), x2 / norms, rtol=1e-12, atol=0)
    bound = np.sqrt(c.cond_P) * np.exp(-traj.times / c.max_eig_P) * x2[0]
    assert np.all(x2 <= bound * (1 + 1e-9) + 1e-13 * norms)
    assert x2[-1] < 1e-6 * x2[0]  # the runs settle, so the bound is not vacuous


def test_a_moving_mode_inside_the_rest_of_the_spectrum_is_refused():
    # Re(-kappa~ s) > 0 (a shrinking formation) puts the moving mode among
    # the decaying ones; where it equals one, p(0) has no unique split. The
    # collision is injected into the certificate: B22 = Z T Z^H rebuilt with
    # T[3, 3] = B[1, 1]
    sc = scenario_from_dict(builtin_scenario("shaped_consensus_inward"))
    d = design_pipeline(sc.graph, sc.shape, sc.spec, seed=sc.design_seed)
    c = d.certificate
    assert (-sc.spec.kappa_tilde * d.motion.shape_coeff).real > 0
    T, Z = scipy.linalg.schur(c.B[2:, 2:], output="complex")
    T[3, 3] = c.B[1, 1]
    B = c.B.copy()
    B[2:, 2:] = Z @ T @ Z.conj().T
    d = dataclasses.replace(d, certificate=dataclasses.replace(c, B=B, T=T))
    with pytest.raises(ExpansionIllConditioned, match=f"eigenvalue {c.B[1, 1]:.4g} of K L~"):
        predict_steady_state(sc.shape.p_star, d)


@pytest.mark.parametrize("key, value, stage", [("spectrum_rel", 1e-30, "verify"),
                                               ("cond_limit", 1.0, "stability")])
def test_pipeline_reads_the_tolerance_table(square, monkeypatch, key, value, stage):
    g, shape = square
    monkeypatch.setitem(TOLERANCES, key, value)
    with pytest.raises(PipelineFailed) as exc:
        design_pipeline(g, shape, MotionSpec(omega=1.0, kappa_r=0.025))
    assert exc.value.stage == stage


def test_boost_is_capped_at_max_boosts(square):
    g, shape = square
    b1 = _design(MotionSpec(omega=1.0, kappa_r=0.025)).stability.kappa_tilde_max
    top = _design(MotionSpec(omega=1.0, kappa_r=0.025, kappa_tilde=2.0 ** 59.5 * b1))
    assert top.boost == 2.0 ** MAX_BOOSTS
    with pytest.raises(PipelineFailed, match=f"after {MAX_BOOSTS} gain doublings") as exc:
        _design(MotionSpec(omega=1.0, kappa_r=0.025, kappa_tilde=2.0 ** 60.5 * b1))
    assert exc.value.stage == "stability"


def test_certificate_is_computed_on_the_shipped_gains():
    # the shipped bound and spectrum are those of K scaled by the boost, which
    # is exact; a fresh eig of the shipped 2K differs from them in the last
    # bits here, within the rounding of the scaling property below
    g, shape = random_instance(5, seed=6)
    base = design_pipeline(g, shape, MotionSpec(omega=1.0, kappa_r=0.025), seed=6)
    b1 = base.stability.kappa_tilde_max
    d = design_pipeline(g, shape, MotionSpec(omega=1.0, kappa_r=0.025, kappa_tilde=1.5 * b1),
                        seed=6)
    assert d.boost == 2.0
    assert d.stability.kappa_tilde_max == 2.0 * b1
    assert np.array_equal(d.stability.eigenvalues, 2.0 * base.stability.eigenvalues)
    assert np.array_equal(d.stability.T, base.stability.T)
    fresh = stability_bound(nonkernel_eigenvalues(d.bundle.KL, shape), d.motion.MBt, shape)
    assert fresh.kappa_tilde_max == pytest.approx(
        2.0 * b1, rel=fresh_eig_rel(d.bundle.KL, d.stability.T, shape))


@pytest.mark.parametrize("action", ["error", "ignore"])
def test_an_overflowing_boost_is_refused(action):
    # kappa~ / b1 overflows to inf, whose binary exponent reads 0: refused
    # like any kappa~ past MAX_BOOSTS doublings, whatever the warning filter
    g, shape = ring_chord(16)
    spec = MotionSpec(omega=1.0, kappa_r=0.025)
    d = design_pipeline(g, shape, spec)
    assert 0.6 < d.stability.kappa_tilde_max / d.boost < 0.7
    with warnings.catch_warnings():
        warnings.simplefilter(action)
        with pytest.raises(PipelineFailed, match=f"after {MAX_BOOSTS} gain doublings") as exc:
            design_pipeline(g, shape, dataclasses.replace(spec, kappa_tilde=1.7e308))
    assert exc.value.stage == "stability"


def _irregular_four_cycle():
    # plain 4-cycle on a 5% irregular square: a double non-kernel eigenvalue of KL
    rng = np.random.default_rng(0)
    noise = 0.05 * (rng.standard_normal(4) + 1j * rng.standard_normal(4))
    g = FormationGraph(4, ((1, 2), (2, 3), (3, 4), (4, 1)))
    return design_pipeline(g, center_shape(square_shape().p_star + noise),
                           MotionSpec(omega=1.0, kappa_r=0.025))


@pytest.mark.parametrize("name", ["shaped_consensus_inward", "spiral_outward", None])
def test_bound_is_basis_free_on_a_repeated_eigenvalue(name):
    # eig's basis of the repeated eigenspace moves with the last bits of KL:
    # with 2^j KL and with K L formed by a matmul; the bound must not
    if name is None:
        d = _irregular_four_cycle()
    else:
        sc = scenario_from_dict(builtin_scenario(name))
        d = design_pipeline(sc.graph, sc.shape, sc.spec, seed=sc.design_seed)
    ev = d.stability.eigenvalues[2:]
    i, j = np.triu_indices(ev.size, 1)
    assert np.abs(ev[i] - ev[j]).min() < 1e-12 * np.abs(ev).max()
    gains = d.bundle.gains / d.boost
    bounds = [stability_bound(nonkernel_eigenvalues(2.0 ** j * KL, d.shape), d.motion.MBt,
                              d.shape).kappa_tilde_max / 2.0 ** j
              for KL in (gains[:, None] * d.bundle.L, np.diag(gains) @ d.bundle.L)
              for j in range(12)]
    assert max(bounds) == pytest.approx(min(bounds), rel=1e-12)


_MOTIONS = (MotionSpec(omega=1.0, kappa_r=0.025),
            MotionSpec(a=1.0, omega=1.0, kappa_r=0.025, kappa_s=0.025),
            MotionSpec(v_star=1.0, kappa_t=0.05))


@pytest.mark.parametrize("scale", [1e6, 1e9])
@pytest.mark.parametrize("instance", [(decagon_graph(), decagon_shape()), random_instance(6, 0)],
                         ids=["decagon", "random_instance(6, 0)"])
def test_a_design_does_not_depend_on_the_shape_scale(instance, scale):
    # span{1, p*} is that of any scaling of p*: the weight rows are at unit
    # max, the gain margin is relative to rho(KL) and the bound's basis is
    # Q2^H W, so the design holds, with the bound of a translation
    # (mu~ ~ c / z*) in the shape's unit
    g, shape = instance
    for spec in _MOTIONS:
        base = design_pipeline(g, shape, spec)
        d = design_pipeline(g, ReferenceShape(scale * shape.p_star), spec)
        unit = scale if spec.v_star else 1.0
        assert d.stability.kappa_tilde_max == pytest.approx(
            unit * base.stability.kappa_tilde_max, rel=1e-6)


@st.composite
def _ring_chord_designs(draw):
    """A design on a ring plus random chords (n <= 12) with an irregular
    n-gon shape, and the h = 1 bound b1 of its unboosted gains. A repeated
    non-kernel eigenvalue of KL (every plain 4-cycle has one) is allowed:
    the bound does not depend on the eigenspace basis eig returns."""
    n = draw(st.integers(4, 12))
    edges = [(k + 1, (k + 1) % n + 1) for k in range(n)]
    present = {frozenset(e) for e in edges}
    for i, j in draw(st.lists(st.tuples(st.integers(1, n), st.integers(1, n)),
                              max_size=n // 2)):
        if i != j and frozenset((i, j)) not in present:
            edges.append((i, j))
            present.add(frozenset((i, j)))
    g = FormationGraph(n, tuple(edges))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    r = 1.0 / (2.0 * np.sin(np.pi / n))
    shape = center_shape(r * np.exp(2j * np.pi * np.arange(n) / n)
                         + 0.05 * (rng.standard_normal(n) + 1j * rng.standard_normal(n)))
    spec, seed = draw(st.sampled_from(_MOTIONS)), draw(st.integers(0, 3))
    d = design_pipeline(g, shape, spec, seed=seed)
    KL1 = np.diag(d.bundle.gains / d.boost) @ d.bundle.L
    b1 = stability_bound(nonkernel_eigenvalues(KL1, shape), d.motion.MBt, shape)
    return d, KL1, b1.kappa_tilde_max, seed


@settings(max_examples=8, deadline=None)
@given(_ring_chord_designs())
def test_bound_scales_with_the_gain_boost_property(design):
    # exact in exact arithmetic; the eigensolver's rounding differs between KL
    # and 2^j KL
    d, KL1, b1, _ = design
    rel = fresh_eig_rel(KL1, d.stability.T, d.shape)
    for j in range(12):
        scaled = stability_bound(nonkernel_eigenvalues(2.0 ** j * KL1, d.shape), d.motion.MBt,
                                 d.shape)
        assert scaled.kappa_tilde_max == pytest.approx(2.0 ** j * b1, rel=rel)


@settings(max_examples=8, deadline=None)
@given(_ring_chord_designs(), st.floats(0.01, 3000.0))
def test_boost_is_the_smallest_admitting_power_of_two_property(design, multiple):
    d, _, b1, seed = design
    # kappa~ next to 2^j b1 is a rounding tie: the boost is the binary
    # exponent of kappa~ / b1 as rounded, which may fall on either side of
    # 2^j (b1 here is a bound of K L formed by a matmul, within rounding)
    assume(abs(multiple / 2.0 ** round(math.log2(multiple)) - 1) > 1e-9)
    spec = dataclasses.replace(d.spec, kappa_tilde=multiple * b1)
    boosted = design_pipeline(d.graph, d.shape, spec, seed=seed)
    assert boosted.boost == 2.0 ** max(0, math.floor(math.log2(multiple)) + 1)
    assert spec.kappa_tilde < boosted.stability.kappa_tilde_max


_STAGES = ("weights", "gains", "motion", "stability", "modified", "verify")


@st.composite
def _ear_instances(draw):
    """A 2-connected graph (n <= 32) by open ear decomposition: a cycle, then
    ears, each a path of new nodes between two distinct earlier nodes, then
    random chords; labels are shuffled and the shape is uniform at random."""
    n = draw(st.integers(4, 32))
    size = draw(st.integers(3, n))
    edges = [(k, k % size + 1) for k in range(1, size + 1)]
    while size < n:
        m = draw(st.integers(1, n - size))
        ends = draw(st.lists(st.integers(1, size), min_size=2, max_size=2, unique=True))
        path = [ends[0], *range(size + 1, size + m + 1), ends[1]]
        edges += list(zip(path, path[1:]))
        size += m
    present = {frozenset(e) for e in edges}
    for i, j in draw(st.lists(st.tuples(st.integers(1, n), st.integers(1, n)),
                              max_size=n // 2)):
        if i != j and frozenset((i, j)) not in present:
            edges.append((i, j))
            present.add(frozenset((i, j)))
    label = draw(st.permutations(range(1, n + 1)))
    g = FormationGraph(n, tuple((label[i - 1], label[j - 1]) for i, j in edges))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return g, center_shape(rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n))


def _assert_bound_scales_with_the_boost(d):
    """The h = 1 bound b1 of the unboosted K L scales with h = 2^j."""
    KL1 = (d.bundle.gains / d.boost)[:, None] * d.bundle.L
    lam, Z = nonkernel_eigenvalues(KL1, d.shape)
    b1 = stability_bound((lam, Z), d.motion.MBt, d.shape)
    # exactly, bit for bit, for the pair scaled by 2^j: what the pipeline's
    # 2^k b1 certifies (Q scales by 2^-j, T and T^-1 M~ B^T T stay)
    for j in range(-3, 40):
        scaled = (2.0 ** j * lam, Z)
        assert stability_bound(scaled, d.motion.MBt, d.shape).kappa_tilde_max \
            == 2.0 ** j * b1.kappa_tilde_max
    # within rounding for a fresh decomposition of 2^j KL
    rel = fresh_eig_rel(KL1, b1.T, d.shape)
    for j in (1, 5, 11):
        scaled = stability_bound(nonkernel_eigenvalues(2.0 ** j * KL1, d.shape), d.motion.MBt,
                                 d.shape)
        assert scaled.kappa_tilde_max == pytest.approx(2.0 ** j * b1.kappa_tilde_max, rel=rel)


@settings(max_examples=40, deadline=None)
@given(_ear_instances(), st.sampled_from(_MOTIONS), st.integers(0, 3))
def test_ear_graphs_design_or_fail_at_a_stage_property(instance, spec, seed):
    # 2-connected graphs beyond cycles with chords: rows of degree >= 3 draw
    # their weights from a null space, which cycle-based graphs rarely reach
    g, shape = instance
    try:
        d = design_pipeline(g, shape, spec, seed=seed)
    except PipelineFailed as exc:
        assert exc.stage in _STAGES
        return
    _assert_design_holds(d)


@settings(max_examples=60, deadline=None)
@given(block_graphs(), st.sampled_from(_MOTIONS), st.integers(0, 3),
       st.integers(0, 2**32 - 1))
def test_block_graphs_design_or_fail_at_a_stage_property(case, spec, seed, shape_seed):
    # blocks joined at cut vertices, 2-rooted chains or not: every draw is
    # certified, or refused at a named stage (a graph that is not 2-rooted
    # at the first, by the check that says so)
    g, chain = case
    rng = np.random.default_rng(shape_seed)
    shape = center_shape(rng.uniform(-1, 1, g.n) + 1j * rng.uniform(-1, 1, g.n))
    try:
        d = design_pipeline(g, shape, spec, seed=seed)
    except PipelineFailed as exc:
        assert exc.stage in _STAGES
        assert chain or (exc.stage == "weights" and isinstance(exc.cause, NotTwoRooted))
        return
    assert chain
    _assert_design_holds(d)


def _assert_design_holds(d):
    """Checks of a design made apart from the pipeline: kernel of L, the
    images of 1 and p* under K L~, the moving eigenvalue, the certificate
    against an independent Lyapunov solve, and the bound's scaling."""
    g, shape, spec = d.graph, d.shape, d.spec
    L = d.bundle.L
    for v in (np.ones(g.n), shape.p_star):
        assert np.abs(L @ v).max() <= 1e-10 * np.abs(L).max() * np.abs(v).max()
    # K L~ [1, p*] = -kappa~ [0, c 1 + s p*]; with s = 0 the translation chain
    kt, c, s = spec.kappa_tilde, d.motion.uniform_coeff, d.motion.shape_coeff
    KLt = d.KL_tilde
    norm = np.linalg.norm(KLt, 2)
    for v, image in ((np.ones(g.n), np.zeros(g.n)), (shape.p_star, c + s * shape.p_star)):
        assert np.linalg.norm(KLt @ v + kt * image) <= 1e-10 * norm * np.linalg.norm(v)
    if d.motion.case == "moving":  # the relocated eigenvalue -kappa~ s
        lam = np.linalg.eigvals(KLt)
        assert np.abs(lam + kt * s).min() <= 1e-8 * np.abs(lam).max()
    # the certificate against an independent Lyapunov solve: S = span{1, p*}
    # is invariant and B22^H P + P B22 = 2 I has P > 0
    Q = shape.plane[0]
    B = Q.conj().T @ KLt @ Q
    assert np.linalg.norm(B[2:, :2]) <= TOLERANCES["spectrum_rel"] * np.linalg.norm(B)
    P = scipy.linalg.solve_continuous_lyapunov(B[2:, 2:].conj().T, 2 * np.eye(g.n - 2))
    np.linalg.cholesky((P + P.conj().T) / 2)
    assert d.certificate.max_eig_P == pytest.approx(np.linalg.norm(P, 2), rel=1e-6)
    _assert_bound_scales_with_the_boost(d)


def test_bound_scaling_on_an_ear_graph_with_a_slow_mode():
    # min Re lambda = 2.8e-5 against rho = 4.76 makes 1/Re lambda the
    # sensitive term: in the basis [1, p*, W] eig of 2^j KL for odd j landed
    # 9.1e-12 (relative) off 2^j b1, above 64 eps cond(T)^2 = 8.7e-12 there
    # (cond(T) = 24.7; 11.0 for Q2^H W), and only the eigenvalue term covers it
    g = FormationGraph(13, ((6, 13), (13, 7), (7, 1), (1, 12), (12, 2), (2, 8), (8, 11),
                            (11, 6), (2, 5), (5, 9), (9, 10), (10, 6), (2, 3), (3, 5),
                            (7, 4), (4, 9)))
    shape = ReferenceShape(np.array([
        -0.31954018204858137 - 0.6213260189236711j, 1.0723167874533754 - 0.30344385517944633j,
        -0.442548329185951 - 0.23000369273909876j, -0.4626062774292584 - 0.20094275455785043j,
        -0.12141061707355863 + 0.7177974652990009j, -0.3601066050856617 - 0.6196937576013508j,
        0.5197023872800958 - 0.7614555148765758j, -0.5910303340185786 + 0.20378501166334856j,
        0.9714296491438873 + 0.7560014702583038j, 0.8950718799023442 + 0.7083858144418511j,
        -0.8155350338922335 + 0.6232640634012956j, 0.2617432251721149 - 1.0085245445984221j,
        -0.6074865502179937 + 0.7361563134126157j]))
    d = design_pipeline(g, shape, MotionSpec(omega=1.0, kappa_r=0.025), seed=3)
    _assert_bound_scales_with_the_boost(d)


def _one_qr_per_close_set(eig):
    """The eigenvalues and eigenvectors of a (lambda, Z) pair, each distinct
    close-set of eigenvectors orthonormalized by a QR of its own."""
    J2, W = eig[0], eig[1].copy()
    for c in {tuple(np.flatnonzero(row)) for row in _close_sets(J2) if row.sum() > 1}:
        W[:, c] = np.linalg.qr(W[:, c])[0]
    return J2, W


def _bound_in_basis(T, J2, perturbation):
    """The bound 1 / ||diag(1 / Re lambda) perturbation()||_2 in eigenbasis T,
    with np.linalg.cond and np.linalg.norm(., 2); perturbation is called once
    T and J2 have passed their checks."""
    cond = np.linalg.cond(T)
    if cond > TOLERANCES["cond_limit"]:
        raise NonDiagonalizable(
            f"eigenvector basis condition number {cond:.2e} exceeds "
            f"{TOLERANCES['cond_limit']:.0e}; a gain boost keeps the eigenvectors, "
            "so try other weights (another design seed)")
    if np.any(J2.real <= 0):
        raise ValueError("non-kernel spectrum of KL is not in the right-half plane")
    norm = np.linalg.norm((1.0 / J2.real)[:, None] * perturbation(), 2)
    return StabilityAnalysis(T, math.inf if norm == 0 else 1.0 / norm,
                             np.concatenate([[0, 0], J2]))


def reference_stability_bound(eig, MBt, shape):
    """The bound as it was before the clusters were batched: one QR per
    distinct close-set, np.linalg.cond and np.linalg.norm(., 2); T = Z[2:]."""
    J2, Z = _one_qr_per_close_set(eig)
    Q2, T = shape.plane[0][:, 2:], Z[2:]
    return _bound_in_basis(T, J2, lambda: np.linalg.solve(T, Q2.conj().T @ MBt @ Q2 @ T))


def full_basis_stability_bound(eig, MBt, shape):
    """The paper's bound in its own basis T = [1, 2^-e p*, W], n x n, W = Q Z
    the eigenvectors and the p* column at unit scale, 2^(e-1) <= max|p*| < 2^e:
    the trailing block of T^-1 M~ B^T T."""
    J2, Z = _one_qr_per_close_set(eig)
    unit_p = shape.p_star * 2.0 ** -math.frexp(shape.radius())[1]
    T = np.column_stack([np.ones(shape.n, dtype=complex), unit_p, shape.plane[0] @ Z])
    return _bound_in_basis(T, J2, lambda: np.linalg.solve(T, MBt @ T)[2:, 2:])


def _close_sets(J2) -> np.ndarray:
    """close[i, j]: non-kernel eigenvalues i and j within spectrum_rel * rho."""
    return np.abs(J2[:, None] - J2) <= TOLERANCES["spectrum_rel"] * np.abs(J2).max()


def _disjoint(close) -> bool:
    """Every two close eigenvalues have the same close-set: no chain."""
    return all((close[i] == close[j]).all() for i, j in zip(*np.nonzero(close)))


def _bound_inputs(g, shape, spec, seed):
    """The arguments design_pipeline passes to stability_bound; none if it
    fails before the bound."""
    seen = []
    with pytest.MonkeyPatch.context() as m:
        m.setattr(spectral, "stability_bound",
                  lambda *args: seen.append(args) or stability_bound(*args))
        try:
            design_pipeline(g, shape, spec, seed=seed)
        except PipelineFailed:
            pass
    return seen


def _hand_built(values, seed=0, singular=False):
    """A (lambda, Z) pair with the given non-kernel eigenvalues, random
    eigenvectors Z in the basis Q of the shape plane, and a random M~ B^T;
    with singular, the last eigenvector is zero: T = Z[2:] has a zero
    column, and cond(T) is inf."""
    rng = np.random.default_rng(seed)
    n = len(values) + 2
    shape = center_shape(rng.standard_normal(n) + 1j * rng.standard_normal(n))
    Z = rng.standard_normal((n, n - 2)) + 1j * rng.standard_normal((n, n - 2))
    if singular:
        Z[:, -1] = 0
    MBt = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (np.asarray(values, dtype=complex), Z), MBt, shape


_TWO_AND_THREE = (1, 1 + 1e-12, 2, 2 + 1e-12, 2 - 1e-12j, 3 + 1j, 3 - 1j, 5)


def _oracle_cases(group):
    if group == "builtins":
        for name, seed in itertools.product(SCENARIO_NAMES + ("enclosing_20",), range(6)):
            over = {"motion": {"kappa_tilde": 20.0}} if name == "enclosing_20" else None
            sc = scenario_from_dict(builtin_scenario(name.removesuffix("_20"), over))
            yield from _bound_inputs(sc.graph, sc.shape, sc.spec, seed)
    elif group == "fixtures":
        for (g, shape), spec, seed in itertools.product(
                [(square_graph(), square_shape()), (decagon_graph(), decagon_shape())],
                (MotionSpec(),) + _MOTIONS, range(2)):
            yield from _bound_inputs(g, shape, spec, seed)
    elif group == "random":
        for n, seed in itertools.product(range(4, 13), range(20)):
            yield from _bound_inputs(*random_instance(n, seed), _MOTIONS[seed % 3], seed % 4)
    else:
        yield _hand_built(_TWO_AND_THREE)
        yield _hand_built((1, 1, 1, 2, 2, 4), seed=1)  # exactly repeated
        yield _hand_built((1, 1 + 1e-12, -2, -2, 3), seed=2)  # left-half plane: ValueError
        yield _hand_built((1, 2), singular=True)  # NonDiagonalizable, cond inf


@pytest.mark.parametrize("group", ["builtins", "fixtures", "random", "hand-built"])
def test_batched_clusters_keep_the_bits_of_one_qr_each(group):
    # one stacked QR per cluster size gives what one QR per cluster gave,
    # and svd(compute_uv=False) what cond and norm(., 2) gave, where the
    # close-sets are disjoint (the chain is below)
    sizes = set()
    cases = list(_oracle_cases(group))
    assert len(cases) >= 4
    for args in cases:
        close = _close_sets(args[0][0])
        assert _disjoint(close)
        sizes |= set(close.sum(1).tolist())
        try:
            ref = reference_stability_bound(*args)
        except (NonDiagonalizable, ValueError) as exc:
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # a singular T reads inf without a warning
                with pytest.raises(type(exc)) as new:
                    stability_bound(*args)
            assert type(new.value) is type(exc) and str(new.value) == str(exc)
            continue
        new = stability_bound(*args)
        assert np.array_equal(new.T, ref.T)
        assert np.array_equal(new.kappa_tilde_max, ref.kappa_tilde_max)
        assert np.array_equal(new.eigenvalues, ref.eigenvalues)
    if group in ("builtins", "fixtures"):
        assert 2 in sizes  # the decagons' repeated eigenvalues
    if group == "hand-built":
        assert {2, 3} <= sizes


@settings(max_examples=40, deadline=None)
@given(_ring_chord_designs())
def test_the_bound_is_the_full_basis_bound_property(design):
    # M~ B^T and KL map S = span{1, p*} into S, so the trailing block of
    # T^-1 M~ B^T T for T = [1, p*, W] is T2^-1 (Q2^H M~ B^T Q2) T2 for
    # T2 = Q2^H W: equal up to rounding (4160 designs, ring+chord and
    # random_instance: at most 4.3 eps cond(T2)^2); Q^H T is block upper
    # triangular with T2 its trailing block, and T2^-1 that of its inverse,
    # so cond(T2) <= cond(T)
    d, KL1, _, _ = design
    eig = nonkernel_eigenvalues(KL1, d.shape)
    shipped = stability_bound(eig, d.motion.MBt, d.shape)
    full = full_basis_stability_bound(eig, d.motion.MBt, d.shape)
    rel = 64 * np.finfo(float).eps * np.linalg.cond(shipped.T) ** 2
    assert shipped.kappa_tilde_max == pytest.approx(full.kappa_tilde_max, rel=rel)
    assert np.linalg.cond(shipped.T) <= np.linalg.cond(full.T)


def test_a_singular_eigenbasis_reads_cond_inf():
    args = _hand_built((1, 2), singular=True)
    assert np.linalg.svd(args[0][1][2:], compute_uv=False)[-1] == 0
    with pytest.raises(NonDiagonalizable, match="condition number inf exceeds"):
        stability_bound(*args)


def test_a_chain_of_close_eigenvalues_is_one_cluster():
    # lambda_1 ~ lambda_2 ~ lambda_3 within spectrum_rel * rho pairwise, but
    # lambda_1 and lambda_3 not: the chain is merged into one cluster, its
    # three eigenvectors orthonormalized by one QR, so the bound does not
    # depend on the basis eig returns for it beyond the spread of
    # Q = 1 / Re lambda over the chain, 1.6 delta relative
    delta = TOLERANCES["spectrum_rel"] * 5
    (lam, Z), MBt, shape = _hand_built((1, 1 + 0.8 * delta, 1 + 1.6 * delta, 2, 3 + 1j, 5),
                                       seed=3)
    close = _close_sets(lam)
    assert not _disjoint(close) and not close[0, 2]
    b = stability_bound((lam, Z), MBt, shape)
    W = Z.copy()
    W[:, :3] = np.linalg.qr(Z[:, :3])[0]
    assert np.array_equal(b.T, W[2:])
    A = np.random.default_rng(4).standard_normal((3, 3))
    Z_mixed = Z.copy()
    Z_mixed[:, :3] = Z[:, :3] @ A
    mixed = stability_bound((lam, Z_mixed), MBt, shape)
    assert mixed.kappa_tilde_max == pytest.approx(b.kappa_tilde_max, rel=4 * 1.6 * delta)


@pytest.mark.parametrize("name", ["shaped_consensus_inward", "spiral_outward"])
def test_the_decagons_four_clusters_take_one_qr(monkeypatch, name):
    sc = scenario_from_dict(builtin_scenario(name))
    (args,) = _bound_inputs(sc.graph, sc.shape, sc.spec, sc.design_seed)
    shapes, qr = [], np.linalg.qr
    monkeypatch.setattr(np.linalg, "qr",
                        lambda A, *a, **kw: shapes.append(A.shape) or qr(A, *a, **kw))
    stability_bound(*args)
    assert shapes == [(4, 10, 2)]


def test_schur_triangle_has_the_bits_of_schur():
    # zgees without Schur vectors and with the workspace it asks for, as
    # schur sizes it; its default workspace gives other bits from n ~ 149
    rng = np.random.default_rng(0)
    for n in (1, 2, 8, 64, 160):
        A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        assert np.array_equal(spectral._schur_triangle(A),
                              scipy.linalg.schur(A, output="complex")[0])
