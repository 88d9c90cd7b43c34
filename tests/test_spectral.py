import dataclasses
import itertools
import math
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lapmaneuver import (SCENARIO_NAMES, ChainBroken, FormationGraph,
                         JordanReport, MotionSpec, PipelineFailed,
                         SpectralReport, SpectrumMismatch, builtin_scenario,
                         center_shape, design_pipeline, predict_steady_state,
                         scenario_from_dict, stability_bound,
                         verify_motion_spectrum, verify_translation_jordan)
from lapmaneuver.shapes import TOLERANCES
from lapmaneuver.spectral import MAX_BOOSTS, eigensystem, split_spectrum

from conftest import random_instance, ring_chord, square_graph, square_shape


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
    s = d.residuals
    assert abs(s.moving_eigenvalue - (-0.025j)) < 1e-8
    assert s.moving_vector_angle < 1e-6
    assert s.kernel_vector_angle < 1e-6
    assert s.others_min_real > 0
    assert s.algebraic_residual < 1e-10


def test_rotation_scaling_combined_sign(square):
    d = _design(MotionSpec(a=-1.0, omega=1.0, kappa_r=0.025, kappa_s=0.025))
    target = -(0.025 * -1.0 + 1j * 0.025 * 1.0)
    assert abs(d.residuals.moving_eigenvalue - target) < 1e-8
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
    j = d.residuals
    assert j.rank == shape.n - 1 == 3
    # K L~ p* = -0.05 * 1
    resid = np.abs(d.KL_tilde @ shape.p_star + 0.05 * np.ones(4)).max()
    assert resid < 1e-12
    assert j.squared_residual < 1e-9


def test_static_degenerate_chain(square):
    # no translation requested: p* stays in the kernel
    d = _design(MotionSpec())
    assert np.abs(d.KL_tilde @ square_shape().p_star).max() < 1e-12


def test_broken_weights_detected(square):
    g, shape = square
    spec = MotionSpec(omega=1.0, kappa_r=0.025)
    d = _design(spec)
    KLt = d.KL_tilde.copy()
    KLt[0, 1] += 1e-2
    with pytest.raises(SpectrumMismatch):
        verify_motion_spectrum(eigensystem(KLt), d.motion, spec, shape)


def test_moved_shape_eigenvector_detected(square):
    # S fixes 1 and keeps every eigenvalue, but bends the moving eigenvector
    g, shape = square
    spec = MotionSpec(omega=1.0, kappa_r=0.025)
    d = _design(spec)
    e12, e34 = np.array([1, -1, 0, 0]), np.array([0, 0, 1, -1])
    S = np.eye(4) + 0.2 * np.outer(e12, e34)
    S_inv = np.eye(4) - 0.2 * np.outer(e12, e34)
    with pytest.raises(SpectrumMismatch, match="shape eigenvector"):
        verify_motion_spectrum(eigensystem(S @ d.KL_tilde @ S_inv), d.motion,
                               spec, shape)


def test_translation_rank_deficit_detected(square):
    # projecting out w orthogonal to {1, p*} keeps the chain, drops the rank
    g, shape = square
    spec = MotionSpec(v_star=1.0, kappa_t=0.05)
    d = _design(spec)
    q, _ = np.linalg.qr(np.column_stack([np.ones(4), shape.p_star]), mode="complete")
    w = q[:, 2]
    broken = d.KL_tilde @ (np.eye(4) - np.outer(w, w.conj()))
    with pytest.raises(ChainBroken, match="rank 2"):
        verify_translation_jordan(eigensystem(broken), d.motion, spec, shape)


def test_translation_unstable_remainder_fails_at_verify(square, monkeypatch):
    # the mutant keeps K L~ on its invariant plane span{1, p*}, so the chain,
    # the kernel and the rank hold, and negates it on the other eigenvectors
    from lapmaneuver import spectral
    g, shape = square

    def mutant(A):
        es = eigensystem(A)
        rest = split_spectrum(es.values)[2:]
        T = np.column_stack([np.ones(4), shape.p_star, es.vectors[:, rest]])
        flip = T @ np.diag([1.0, 1.0] + [-1.0] * rest.size) @ np.linalg.inv(T)
        return eigensystem(A @ flip)

    monkeypatch.setattr(spectral, "eigensystem", mutant)
    with pytest.raises(PipelineFailed, match=r"min Re\(others\) -") as failed:
        _design(MotionSpec(v_star=1.0, kappa_t=0.05))
    assert failed.value.stage == "verify" and isinstance(failed.value.cause, ChainBroken)
    assert "rank 3, want 3" in str(failed.value)


STATIC = {"motion": {"a": 0.0, "omega": 0.0, "kappa_r": 0.0, "kappa_s": 0.0}}


@pytest.mark.parametrize("name, over", [(name, None) for name in SCENARIO_NAMES]
                         + [("enclosing", {"motion": {"kappa_tilde": 20.0}}),
                            ("spiral_outward", STATIC)])
def test_one_decomposition_per_design_and_report(monkeypatch, name, over):
    # every eig/eigvals of the pipeline and the report, gain rule included:
    # no matrix twice, even formed another way (equal up to rounding), so
    # the gain rule's K L and the shipped K L~ once each, and one bound; a
    # boost scales that bound, so the shipped 2^k K L is never decomposed; a
    # static design's K L~ is its K L
    from lapmaneuver import spectral
    from lapmaneuver.cli import build_report

    seen, bounds = [], []
    eig, eigvals = np.linalg.eig, np.linalg.eigvals
    monkeypatch.setattr(spectral, "stability_bound",
                        lambda *args: bounds.append(args) or stability_bound(*args))

    def counted(fn):
        def wrapper(A):
            seen.append(np.array(A))
            return fn(A)
        return wrapper

    monkeypatch.setattr(np.linalg, "eig", counted(eig))
    monkeypatch.setattr(np.linalg, "eigvals", counted(eigvals))
    sc = scenario_from_dict(builtin_scenario(name, over))
    assert over is not STATIC or sc.spec == MotionSpec()
    d = design_pipeline(sc.graph, sc.shape, sc.spec, seed=sc.design_seed)
    build_report(sc, d)

    def count(M):
        return sum(A.shape == M.shape and np.abs(A - M).max() <= 1e-12 * np.abs(M).max()
                   for A in seen)

    assert count(d.KL_tilde) == 1
    assert count(d.bundle.KL / d.boost) == 1
    assert count(d.bundle.KL) == (d.boost == 1)
    assert len(bounds) == 1
    assert all(count(A) == 1 for A in seen)


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
    residuals = {"moving": SpectralReport, "translation": JordanReport,
                 "static": type(None)}[d.motion.case]
    assert type(d.residuals) is residuals
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
    base = stability_bound(eigensystem(KL), d.motion.MBt, shape)
    boosted = stability_bound(eigensystem(2.0 * KL), d.motion.MBt, shape)
    assert boosted.kappa_tilde_max == pytest.approx(2 * base.kappa_tilde_max,
                                                   rel=1e-10)


def test_bound_monotonic_in_h(square):
    _, shape = square
    spec = MotionSpec(omega=1.0, kappa_r=0.025)
    d = _design(spec)
    for h in (3.0, 10.0):
        scaled = stability_bound(eigensystem(h * d.bundle.KL), d.motion.MBt, shape)
        assert scaled.kappa_tilde_max == pytest.approx(
            h * d.stability.kappa_tilde_max, rel=1e-10)


def test_lyapunov_certificate(square):
    d = _design(MotionSpec(omega=1.0, kappa_r=0.025))
    ev = d.stability.eigenvalues
    assert np.all(ev[split_spectrum(ev)[2:]].real > 0)
    assert 0 < d.stability.kappa_tilde_max < math.inf


def test_pipeline_boosts_until_admitted(square):
    g, shape = square
    base = _design(MotionSpec(omega=1.0, kappa_r=0.025))
    want = 4.0 * base.stability.kappa_tilde_max
    boosted = _design(MotionSpec(omega=1.0, kappa_r=0.025, kappa_tilde=want))
    assert boosted.boost > 1.0
    assert boosted.stability.kappa_tilde_max > want
    assert boosted.residuals.others_min_real > 0


def test_pipeline_static_trivial(square):
    d = _design(MotionSpec())
    assert d.residuals is None
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


def test_random_instances_verify(square):
    for seed in (1, 2, 3):
        g, shape = random_instance(5, seed=seed)
        spec = MotionSpec(omega=0.5, kappa_r=0.05)
        d = design_pipeline(g, shape, spec, seed=seed)
        assert d.residuals.moving_residual < 1e-8
        assert d.residuals.others_min_real > 0


def test_ring_chord_48_designs():
    # the benchmark sweep's n = 48 instance, which a random search over gains
    # never stabilized
    g, shape = ring_chord(48)
    d = design_pipeline(g, shape, MotionSpec(omega=1.0, kappa_r=0.025))
    assert d.residuals.others_min_real > 0


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_ring_chord_64_designs(seed):
    g, shape = ring_chord(64)
    d = design_pipeline(g, shape, MotionSpec(omega=1.0, kappa_r=0.025), seed=seed)
    assert d.residuals.others_min_real > 0


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
    fresh = stability_bound(eigensystem(d.bundle.KL), d.motion.MBt, shape)
    rel = 64 * np.finfo(float).eps * np.linalg.cond(d.stability.T) ** 2
    assert fresh.kappa_tilde_max == pytest.approx(2.0 * b1, rel=rel)


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
    ev = d.stability.eigenvalues[split_spectrum(d.stability.eigenvalues)[2:]]
    i, j = np.triu_indices(ev.size, 1)
    assert np.abs(ev[i] - ev[j]).min() < 1e-12 * np.abs(ev).max()
    gains = d.bundle.gains / d.boost
    bounds = [stability_bound(eigensystem(2.0 ** j * KL), d.motion.MBt,
                              d.shape).kappa_tilde_max / 2.0 ** j
              for KL in (gains[:, None] * d.bundle.L, np.diag(gains) @ d.bundle.L)
              for j in range(12)]
    assert max(bounds) == pytest.approx(min(bounds), rel=1e-12)


_MOTIONS = (MotionSpec(omega=1.0, kappa_r=0.025),
            MotionSpec(a=1.0, omega=1.0, kappa_r=0.025, kappa_s=0.025),
            MotionSpec(v_star=1.0, kappa_t=0.05))


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
    b1 = stability_bound(eigensystem(KL1), d.motion.MBt, shape)
    return d, KL1, b1.kappa_tilde_max, seed


@settings(max_examples=8, deadline=None)
@given(_ring_chord_designs())
def test_bound_scales_with_the_gain_boost_property(design):
    # exact in exact arithmetic; the eigensolver's rounding differs between KL
    # and 2^j KL (1388 random designs: at most 12.5 eps cond(T)^2, half exact)
    d, KL1, b1, _ = design
    rel = 64 * np.finfo(float).eps * np.linalg.cond(d.stability.T) ** 2
    for j in range(12):
        scaled = stability_bound(eigensystem(2.0 ** j * KL1), d.motion.MBt, d.shape)
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
    """A 2-connected graph (n <= 16) by open ear decomposition: a cycle, then
    ears, each a path of new nodes between two distinct earlier nodes, then
    random chords; labels are shuffled and the shape is uniform at random."""
    n = draw(st.integers(4, 16))
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
    # the h = 1 bound of the unboosted gains scales exactly with h = 2^j
    KL1 = (d.bundle.gains / d.boost)[:, None] * L
    b1 = stability_bound(eigensystem(KL1), d.motion.MBt, shape).kappa_tilde_max
    rel = 64 * np.finfo(float).eps * np.linalg.cond(d.stability.T) ** 2
    for j in (1, 5, 11):
        scaled = stability_bound(eigensystem(2.0 ** j * KL1), d.motion.MBt, shape)
        assert scaled.kappa_tilde_max == pytest.approx(2.0 ** j * b1, rel=rel)
