"""Acceptance gate: one test per release criterion.

Each test prints a single PASS line with the measured quantities; the
stated tolerances are asserted directly.
"""

import time
from itertools import combinations

import numpy as np
import scipy.linalg

from lapmaneuver import (FormationGraph, MotionSpec, SimConfig,
                         design_pipeline, eigensystem, exact_trajectory,
                         initial_condition, is_connected, is_two_rooted,
                         laplacian, measure_motion, predict_steady_state,
                         run_scenario, shape_error, stability_bound,
                         synthesize_weights)

from conftest import random_instance, square_graph, square_shape
from test_graphs import brute_force_two_rooted

SQUARE_DESIGNS = {
    "rotation": MotionSpec(omega=1.0, kappa_r=0.025),
    "scaling_in": MotionSpec(a=-1.0, kappa_s=0.025),
    "scaling_out": MotionSpec(a=1.0, kappa_s=0.025),
    "translation": MotionSpec(v_star=1.0, kappa_t=0.05),
}


def test_criterion_01_kernel_synthesis():
    t0 = time.perf_counter()
    worst_kernel, worst_rank = 0.0, 0.0
    for seed in range(50):
        n = 4 + seed % 9
        g, shape = random_instance(n, seed=seed)
        L = laplacian(synthesize_weights(g, shape, seed=seed))
        resid = max(np.abs(L @ np.ones(n)).max(),
                    np.abs(L @ shape.p_star).max())
        worst_kernel = max(worst_kernel, resid)
        assert resid < 1e-10
        s = np.linalg.svd(L, compute_uv=False)
        assert s[-2] < 1e-10 * s[0] and s[-3] > 1e-6 * s[0]
        worst_rank = max(worst_rank, s[-2] / s[0])
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    print(f"[criterion 01] kernel synthesis over 50 instances: PASS "
          f"(worst kernel residual {worst_kernel:.2e}, "
          f"worst rank ratio {worst_rank:.2e}, {elapsed:.2f}s)")


def test_criterion_02_rotation_eigenstructure():
    g, shape = square_graph(), square_shape()
    d = design_pipeline(g, shape, MotionSpec(omega=1.0, kappa_r=0.025))
    KLt = d.KL_tilde
    lam, V = np.linalg.eig(KLt)

    def angle_to(vec, target):
        v = vec / np.linalg.norm(vec)
        t = target / np.linalg.norm(target)
        return np.sqrt(max(0.0, 1.0 - abs(np.vdot(t, v)) ** 2))

    k_move = int(np.argmin(np.abs(lam - (-0.025j))))
    assert abs(lam[k_move] - (-0.025j)) < 1e-8
    assert angle_to(V[:, k_move], shape.p_star) < 1e-6
    k_zero = int(np.argmin(np.abs(lam)))
    assert abs(lam[k_zero]) < 1e-10
    assert angle_to(V[:, k_zero], np.ones(4)) < 1e-6
    others = np.delete(lam, [k_move, k_zero])
    assert others.real.min() > 0
    algebraic = np.abs(KLt @ shape.p_star + 0.025j * shape.p_star).max()
    assert algebraic < 1e-10
    print(f"[criterion 02] rotation eigenstructure: PASS "
          f"(moving eigenvalue error {abs(lam[k_move] + 0.025j):.2e}, "
          f"algebraic residual {algebraic:.2e}, "
          f"min Re of others {others.real.min():.3f})")


def test_criterion_03_translation_structure():
    g, shape = square_graph(), square_shape()
    spec = MotionSpec(v_star=1.0, kappa_t=0.05)
    d = design_pipeline(g, shape, spec)
    KLt = d.KL_tilde
    ones = np.ones(4)
    rel = np.linalg.norm(KLt @ shape.p_star + 0.05 * ones) \
        / np.linalg.norm(0.05 * ones)
    assert rel < 1e-10
    s = np.linalg.svd(KLt, compute_uv=False)
    assert s[-1] < 1e-10 * s[0] and s[-2] > 1e-6 * s[0]
    print(f"[criterion 03] translation structure: PASS "
          f"(chain residual {rel:.2e}, rank n-1 gap {s[-2] / s[0]:.2e})")


def test_criterion_04_convergence_from_random_starts():
    g, shape = square_graph(), square_shape()
    worst = 0.0
    t0 = time.perf_counter()
    for name, spec in SQUARE_DESIGNS.items():
        d = design_pipeline(g, shape, spec)
        rng = np.random.default_rng(42)
        P0 = rng.standard_normal((4, 20)) + 1j * rng.standard_normal((4, 20))
        P_end = scipy.linalg.expm(-d.KL_tilde * 250.0) @ P0
        errs = [shape_error(P_end[:, k], shape) for k in range(20)]
        assert max(errs) < 1e-6, name
        worst = max(worst, max(errs))
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(f"[criterion 04] convergence, 20 starts x 4 designs by t=250: PASS "
          f"(worst shape error {worst:.2e}, {elapsed:.2f}s)")


def test_criterion_05_motion_fidelity():
    g, shape = square_graph(), square_shape()
    spec = MotionSpec(a=-0.5, omega=1.0, kappa_r=0.025, kappa_s=0.025)
    d = design_pipeline(g, shape, spec)
    cfg = SimConfig(dt=0.01, t_end=200.0, seed=8, sample_stride=10)
    traj = exact_trajectory(d.modified.L_tilde, d.bundle.gains, cfg, shape)
    est = measure_motion(traj, shape, traj.window(100.0, 200.0))
    assert abs(est.omega_hat - 0.025) < 0.01 * 0.025
    assert abs(est.a_hat - (-0.0125)) < 0.01 * 0.0125

    spec_t = MotionSpec(v_star=1.0, kappa_t=0.05)
    dt_ = design_pipeline(g, shape, spec_t)
    cfg_t = SimConfig(dt=0.01, t_end=200.0, seed=8, sample_stride=10)
    traj = exact_trajectory(dt_.modified.L_tilde, dt_.bundle.gains, cfg_t,
                            shape)
    vel = -dt_.KL_tilde @ traj.states[-1]
    pairwise = max(abs(vel[i] - vel[j]) for i, j in combinations(range(4), 2))
    assert pairwise < 1e-8 * np.abs(vel).max()
    p0 = initial_condition(cfg_t, shape)
    predicted = predict_steady_state(p0, dt_).steady_velocity
    assert np.abs(vel - predicted).max() < 1e-6 * abs(predicted)
    print(f"[criterion 05] motion fidelity: PASS "
          f"(omega error {abs(est.omega_hat - 0.025) / 0.025:.2e} rel, "
          f"a error {abs(est.a_hat + 0.0125) / 0.0125:.2e} rel, "
          f"velocity spread {pairwise:.2e})")


def test_criterion_06_consensus_endpoint():
    res = run_scenario("shaped_consensus_inward", {"sim": {"method": "exact"}})
    tr, shape = res.trajectory, res.scenario.shape

    def diameter(p):
        return max(abs(p[i] - p[j]) for i, j in combinations(range(len(p)), 2))

    ratio = diameter(tr.states[-1]) / diameter(tr.states[0])
    assert ratio < 1e-3
    errs = shape_error(tr.states, shape)
    resid_abs = errs * np.linalg.norm(tr.states, axis=1)
    settled = int(np.argmax(resid_abs < 1e-8 * np.linalg.norm(tr.states[0])))
    assert resid_abs[settled] < 1e-8 * np.linalg.norm(tr.states[0])
    assert errs[settled:].max() < 1e-4
    print(f"[criterion 06] shaped-consensus endpoint: PASS "
          f"(diameter ratio {ratio:.2e}, shape error after settling "
          f"{errs[settled:].max():.2e} from t={tr.times[settled]:.0f})")


def test_criterion_07_perturbation_bound():
    g, shape = square_graph(), square_shape()
    base = design_pipeline(g, shape, MotionSpec(omega=1.0, kappa_r=0.025))
    bound = base.stability.kappa_tilde_max
    spec = MotionSpec(omega=1.0, kappa_r=0.025, kappa_tilde=0.9 * bound)
    d = design_pipeline(g, shape, spec)
    cfg = SimConfig(dt=0.01, t_end=100.0, seed=3, sample_stride=10)
    traj = exact_trajectory(d.modified.L_tilde, d.bundle.gains, cfg, shape)
    errs = shape_error(traj.states, shape)
    assert errs[-1] < 1e-10

    doubled = stability_bound(eigensystem(2.0 * base.bundle.KL), base.motion.MBt, shape)
    doubling = doubled.kappa_tilde_max / bound
    assert abs(doubling - 2.0) < 1e-10
    print(f"[criterion 07] perturbation bound: PASS "
          f"(shape error {errs[-1]:.2e} at 0.9 x bound {bound:.3g}, "
          f"gain-doubling factor {doubling:.12f})")


def test_criterion_08_integrator_oracle():
    worst = 0.0
    for name in ("enclosing", "shaped_consensus_inward", "spiral_outward",
                 "traveling_heading"):
        over = {"sim": {"dt": 1e-3, "t_end": 10.0, "sample_stride": 100}}
        rk = run_scenario(name, over)
        ex = run_scenario(name,
                          {"sim": {**over["sim"], "method": "exact"}})
        scale = np.abs(ex.trajectory.states).max()
        rel = np.abs(rk.trajectory.states - ex.trajectory.states).max() / scale
        assert rel < 1e-6, name
        worst = max(worst, rel)
    print(f"[criterion 08] integrator vs exact propagator: PASS "
          f"(worst relative error {worst:.2e} over 4 scenarios)")


def test_criterion_09_enclosing_orbit():
    res = run_scenario("enclosing", {"sim": {"method": "exact"}})
    tr = res.trajectory
    vel = -res.design.KL_tilde @ tr.states[-1]
    center_rel = abs(vel[4]) / np.abs(vel[:4]).mean()
    assert center_rel < 1e-6
    w = tr.window(200.0, 250.0)
    radii = np.abs(tr.states[w][:, :4] - tr.states[w][:, [4]])
    variation = ((radii.max(0) - radii.min(0)) / radii.mean(0)).max()
    assert variation < 1e-3
    print(f"[criterion 09] enclosing orbit: PASS "
          f"(center speed {center_rel:.2e} of orbit speed, "
          f"radius variation {variation:.2e} over final 50s)")


def test_criterion_10_traveling_dwells():
    res = run_scenario("traveling_heading", {"sim": {"method": "exact"}})
    tr = res.trajectory
    heading = res.scenario.sim.heading
    speeds = {}
    worst_track = 0.0
    for t_end in (50.0, 100.0, 150.0, 200.0, 250.0):
        k = int(np.searchsorted(tr.times, t_end, side="right")) - 1
        p = tr.states[k]
        z_ref = heading.setpoint_at(t_end - 1e-9)
        track = abs((p[0] - p[1]) - z_ref) / abs(z_ref)
        assert track < 1e-3
        worst_track = max(worst_track, track)
        vel = -res.design.KL_tilde @ p
        vel[0] -= heading.gain * ((p[0] - p[1]) - z_ref)
        speeds[t_end] = np.abs(vel).mean()
    ratio = speeds[250.0] / speeds[50.0]
    assert abs(ratio - 4.0) < 0.01 * 4.0
    print(f"[criterion 10] traveling dwells: PASS "
          f"(worst setpoint tracking {worst_track:.2e}, "
          f"final/first speed ratio {ratio:.6f})")


def test_criterion_11_two_rooted_agreement():
    rng = np.random.default_rng(7)
    checked = 0
    while checked < 200:
        n = int(rng.integers(3, 7))
        pairs = list(combinations(range(1, n + 1), 2))
        m = int(rng.integers(n - 1, len(pairs), endpoint=True))
        idx = rng.choice(len(pairs), size=m, replace=False)
        g = FormationGraph(n, tuple(pairs[k] for k in idx))
        if not is_connected(g):
            continue
        report, roots = is_two_rooted(g), brute_force_two_rooted(g)
        assert (report.two_rooted, report.certificate) == (roots is not None, roots)
        checked += 1
    print(f"[criterion 11] 2-rooted checker vs brute force: PASS "
          f"({checked} connected graphs, n <= 6, verdicts and certificates agree)")
