import dataclasses
import functools
import json
import re
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lapmaneuver import (SCENARIO_NAMES, Diverged, HeadingControl, MotionSpec,
                         NotConverged, SimConfig, StepUnstable, Trajectory,
                         ZeroState, builtin_scenario, center_shape,
                         design_pipeline, exact_trajectory, initial_condition,
                         integrate, measure_motion, scenario_from_dict,
                         shape_error)
from lapmaneuver import cli, sim

from conftest import ring_chord, square_graph, square_shape


def _design(spec, seed=0):
    return design_pipeline(square_graph(), square_shape(), spec, seed=seed)


def _per_step_reference(L_tilde, gains, cfg, shape, exact=False):
    """One Python step at a time: the RK4 loop the step-map simulator
    replaced, or (exact=True) expm of each step's own affine system.
    Step k holds the first setpoint whose `until` exceeds k dt."""
    n, dt, h = L_tilde.shape[0], cfg.dt, cfg.heading
    A = -np.diag(gains) @ L_tilde
    p = initial_condition(cfg, shape)
    limit = cfg.divergence_threshold * np.abs(p).max()

    def f(x, setpoint):
        out = A @ x
        if h is not None:
            z = x[h.agent - 1] - x[h.neighbor - 1]
            out[h.agent - 1] -= h.gain * (z - setpoint)
        return out

    def expm_step(x, setpoint):
        X = np.zeros((n + 1, n + 1), dtype=complex)
        X[:n, :n] = A
        if h is not None:
            X[h.agent - 1, h.agent - 1] -= h.gain
            X[h.agent - 1, h.neighbor - 1] += h.gain
            X[h.agent - 1, n] = h.gain * setpoint
        return (scipy.linalg.expm(X * dt) @ np.append(x, 1.0))[:n]

    def setpoint(t):
        for until, z in h.schedule:
            if t < until:
                return z
        return h.schedule[-1][1]

    steps = int(round(cfg.t_end / cfg.dt))
    times = [0.0]
    samples = [p.copy()]
    for k in range(steps):
        t = k * dt
        zs = setpoint(t) if h is not None else 0j
        if exact:
            p = expm_step(p, zs)
        else:
            k1 = f(p, zs)
            k2 = f(p + dt / 2 * k1, zs)
            k3 = f(p + dt / 2 * k2, zs)
            k4 = f(p + dt * k3, zs)
            p = p + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        if not np.all(np.isfinite(p.view(float))) \
                or np.abs(p).max() > limit:
            raise Diverged(f"state norm exceeded threshold at t={t + dt:.3f}")
        if (k + 1) % cfg.sample_stride == 0 or k == steps - 1:
            times.append((k + 1) * dt)
            samples.append(p.copy())
    return Trajectory(np.array(times), np.array(samples))


def _assert_same_run(traj, ref, rel=1e-10):
    assert np.array_equal(traj.times, ref.times)
    assert traj.states.shape == ref.states.shape
    scale = np.abs(ref.states).max()
    assert np.abs(traj.states - ref.states).max() <= rel * scale


def _square_translation_heading(schedule, **sim):
    d = _design(MotionSpec(v_star=1.0, kappa_t=0.05))
    z0 = square_shape().edge_vector(1, 2)
    heading = HeadingControl(agent=1, neighbor=2, gain=1.0,
                             schedule=tuple((u, z0 * w) for u, w in schedule))
    return d, SimConfig(dt=0.01, seed=2, heading=heading, **sim)


def _builtin_run(name):
    sc = scenario_from_dict(builtin_scenario(name))
    d = design_pipeline(sc.graph, sc.shape, sc.spec, seed=sc.design_seed)
    return d.modified.L_tilde, d.bundle.gains, sc.sim, sc.shape


def test_zero_dynamics_constant(square):
    _, shape = square
    L0 = np.zeros((4, 4), dtype=complex)
    cfg = SimConfig(dt=0.01, t_end=1.0, seed=3)
    traj = integrate(L0, np.ones(4, dtype=complex), cfg, shape)
    assert np.abs(traj.states - traj.states[0]).max() == 0


def test_static_design_converges(square):
    _, shape = square
    d = _design(MotionSpec())
    # the slowest non-kernel mode decays as e^(-rate t): e^-40 by t_end
    ev = np.linalg.eigvals(d.KL_tilde)
    rate = ev[np.argsort(np.abs(ev))[2:]].real.min()
    cfg = SimConfig(dt=0.01, t_end=40.0 / rate, seed=1)
    traj = integrate(d.modified.L_tilde, d.bundle.gains, cfg, shape)
    errs = shape_error(traj.states, shape)
    assert errs[-1] < 1e-10
    # the formation stops: velocity vanishes
    vel = -d.KL_tilde @ traj.states[-1]
    assert np.abs(vel).max() < 1e-10


def test_rotation_orbit_matches_expm(square):
    _, shape = square
    d = _design(MotionSpec(omega=1.0, kappa_r=0.025))
    cfg = SimConfig(dt=1e-3, t_end=5.0, p0=shape.p_star)
    traj = integrate(d.modified.L_tilde, d.bundle.gains, cfg, shape)
    A = -d.KL_tilde
    for k in (1000, 5000):
        t = traj.times[k]
        exact = scipy.linalg.expm(A * t) @ shape.p_star
        assert np.abs(traj.states[k] - exact).max() < 1e-6
        # pure orbit: p(t) = p* e^{i 0.025 t}
        assert np.abs(exact - shape.p_star * np.exp(0.025j * t)).max() < 1e-10


def test_rk4_vs_exact_oracle(square):
    _, shape = square
    d = _design(MotionSpec(a=-0.5, omega=1.0, kappa_r=0.025, kappa_s=0.025))
    cfg = SimConfig(dt=1e-3, t_end=10.0, seed=5)
    rk = integrate(d.modified.L_tilde, d.bundle.gains, cfg, shape)
    ex = exact_trajectory(d.modified.L_tilde, d.bundle.gains, cfg, shape)
    scale = np.abs(ex.states).max()
    assert np.abs(rk.states - ex.states).max() / scale < 1e-6


def test_heading_control_piecewise_oracle(square):
    _, shape = square
    d = _design(MotionSpec(v_star=1.0, kappa_t=0.05))
    z0 = shape.edge_vector(1, 2)
    heading = HeadingControl(agent=1, neighbor=2, gain=1.0,
                             schedule=((5.0, z0), (10.0, 1j * z0)))
    cfg = SimConfig(dt=1e-3, t_end=10.0, seed=2, heading=heading)
    rk = integrate(d.modified.L_tilde, d.bundle.gains, cfg, shape)
    ex = exact_trajectory(d.modified.L_tilde, d.bundle.gains, cfg, shape)
    scale = np.abs(ex.states).max()
    assert np.abs(rk.states - ex.states).max() / scale < 1e-6


def test_divergence_detected(square):
    _, shape = square
    # unstable dynamics: negated Laplacian pushes the non-kernel modes out
    d = _design(MotionSpec())
    cfg = SimConfig(dt=0.01, t_end=100.0, seed=1, divergence_threshold=1e3)
    with pytest.raises(Diverged):
        integrate(-d.modified.L_tilde, d.bundle.gains, cfg, shape)


@pytest.mark.parametrize("run", [integrate, exact_trajectory])
def test_divergence_is_decided_in_the_start_states_unit(run):
    # the threshold is divergence_threshold x max |p(0)|: the growing run
    # started from p(0) x 2^k diverges at the same step, whatever k
    L_tilde, gains, cfg, shape = _growing_run()
    p0 = initial_condition(cfg, shape)
    seen = set()
    for k in (0, 40, -40, 600):
        with pytest.raises(Diverged) as err:
            run(L_tilde, gains, dataclasses.replace(cfg, p0=2.0 ** k * p0), shape)
        seen.add(str(err.value))
    assert len(seen) == 1


def test_a_shape_x_1e9_simulates(tmp_path):
    # its start box is 1e9 wide, as wide as the default divergence_threshold:
    # the limit is that times max |p(0)|, so the run is the shape's own; so is
    # traveling_heading's x 1e6 (RK4 at dt 0.01), velocity and setpoints scaled too
    for name, s in (("enclosing", 1e9), ("traveling_heading", 1e6)):
        doc = builtin_scenario(name, {"sim": {"t_end": 10.0}})
        doc["shape"] = [[s * x, s * y] for x, y in doc["shape"]]
        doc["motion"].update({k: s * v for k, v in doc["motion"].items()
                              if k.startswith("v_star")})
        for e in doc["sim"].get("heading_control", {}).get("schedule", []):
            e["re"], e["im"] = s * e["re"], s * e["im"]
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["simulate", "--scenario", str(path),
                         "--out", str(tmp_path / name)]) == 0


def test_deterministic_for_seed(square):
    _, shape = square
    d = _design(MotionSpec(omega=1.0, kappa_r=0.025))
    cfg = SimConfig(dt=0.01, t_end=1.0, seed=11)
    a = integrate(d.modified.L_tilde, d.bundle.gains, cfg, shape)
    b = integrate(d.modified.L_tilde, d.bundle.gains, cfg, shape)
    assert np.array_equal(a.states, b.states)


def test_initial_condition_box(square):
    _, shape = square
    cfg = SimConfig(dt=0.01, t_end=1.0, seed=4)
    p0 = initial_condition(cfg, shape)
    hw = 2.0 * shape.radius()
    assert np.abs(p0.real).max() <= hw and np.abs(p0.imag).max() <= hw


def test_initial_condition_of_the_wrong_size_refused(square):
    _, shape = square
    with pytest.raises(ValueError, match="^initial condition size mismatch$"):
        initial_condition(SimConfig(p0=np.ones(3, dtype=complex)), shape)


def test_trajectory_times_and_states_must_agree():
    with pytest.raises(ValueError, match="^times and states disagree in length$"):
        Trajectory(np.zeros(3), np.ones((2, 4), dtype=complex))


def test_measure_motion_refuses_a_window_under_3_samples(square):
    _, shape = square
    traj = Trajectory(np.arange(3.0), np.tile(shape.p_star, (3, 1)))
    with pytest.raises(ValueError, match="^window too short$"):
        measure_motion(traj, shape, slice(0, 2))


def test_shape_error_in_space(square):
    _, shape = square
    p = 3 * shape.p_star + (2 + 1j) * np.ones(4)
    assert shape_error(p, shape) < 1e-14


def test_shape_error_orthogonal(square):
    _, shape = square
    basis = np.column_stack([np.ones(4), shape.p_star])
    q, _ = np.linalg.qr(basis)
    rng = np.random.default_rng(0)
    v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    v = v - q @ (q.conj().T @ v)
    assert shape_error(v, shape) == pytest.approx(1.0, abs=1e-12)


def test_shape_error_least_squares_oracle(square):
    _, shape = square
    rng = np.random.default_rng(1)
    basis = np.column_stack([np.ones(4), shape.p_star])
    for _ in range(20):
        p = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        coef, *_ = np.linalg.lstsq(basis, p, rcond=None)
        expected = np.linalg.norm(p - basis @ coef) / np.linalg.norm(p)
        assert abs(shape_error(p, shape) - expected) < 1e-12


def test_shape_error_zero_state(square):
    _, shape = square
    with pytest.raises(ZeroState):
        shape_error(np.zeros(4), shape)


@pytest.mark.parametrize("scale", [1e-170, 1e160])
def test_shape_error_is_scale_free(square, scale):
    # |p|^2 underflows below about 1e-162 and overflows above about 1e154
    # (with a warning, which the test suite turns into an error)
    _, shape = square
    rng = np.random.default_rng(3)
    rows = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    errs = shape_error(scale * rows, shape)
    assert shape_error(scale * rows[0], shape) == errs[0]
    assert np.abs(errs - shape_error(rows, shape)).max() < 1e-12 * errs.max()
    rows[1] = 0  # only an exactly zero row has no shape error
    with pytest.raises(ZeroState):
        shape_error(scale * rows, shape)


def test_shape_error_of_an_array_is_the_error_of_each_row(square):
    _, shape = square
    rng = np.random.default_rng(2)
    rows = rng.standard_normal((50, 4)) + 1j * rng.standard_normal((50, 4))
    rows[::7] = (2 - 1j) * shape.p_star + 3 + 1e-9 * rows[::7]  # near the shape space
    errs = shape_error(rows, shape)
    assert errs.shape == (50,)
    # the same value as one configuration, up to rounding relative to |p|
    assert np.abs(errs - [shape_error(p, shape) for p in rows]).max() < 1e-15
    for k in (0, 1, 49):
        states = np.ones((50, 4), dtype=complex)
        states[k] = 0
        with pytest.raises(ZeroState):
            shape_error(states, shape)


@pytest.mark.parametrize("kwargs", [{"p0": np.zeros(4, dtype=complex)}], ids=["zero p0"])
def test_zero_initial_condition_refused(kwargs):
    # the zero configuration has no shape error: report.json would read NaN
    with pytest.raises(ValueError, match="zero configuration"):
        SimConfig(**kwargs)


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(np.nan, 0)])
def test_non_finite_initial_condition_refused(bad):
    with pytest.raises(ValueError, match="^initial condition must be finite$"):
        SimConfig(p0=np.array([bad, 1, -1, 0]))


def test_measure_rotation(square):
    _, shape = square
    d = _design(MotionSpec(omega=1.0, kappa_r=0.025))
    cfg = SimConfig(dt=0.01, t_end=100.0, seed=8, sample_stride=10)
    traj = exact_trajectory(d.modified.L_tilde, d.bundle.gains, cfg, shape)
    est = measure_motion(traj, shape, traj.window(50.0, 100.0))
    assert est.omega_hat == pytest.approx(0.025, rel=1e-6)
    assert abs(est.a_hat) < 1e-8


def test_measure_translation_uniform(square):
    _, shape = square
    d = _design(MotionSpec(v_star=1.0, kappa_t=0.05))
    cfg = SimConfig(dt=0.01, t_end=200.0, seed=8, sample_stride=10)
    traj = exact_trajectory(d.modified.L_tilde, d.bundle.gains, cfg, shape)
    est = measure_motion(traj, shape, traj.window(100.0, 200.0))
    assert abs(est.omega_hat) < 1e-8
    assert abs(est.a_hat) < 1e-8
    vel = -d.KL_tilde @ traj.states[-1]
    assert np.abs(vel - est.v_hat).max() < 1e-6 * abs(est.v_hat)


def test_measure_requires_steady_state(square):
    _, shape = square
    d = _design(MotionSpec(omega=1.0, kappa_r=0.025))
    cfg = SimConfig(dt=0.01, t_end=2.0, seed=8)
    traj = exact_trajectory(d.modified.L_tilde, d.bundle.gains, cfg, shape)
    with pytest.raises(NotConverged):
        measure_motion(traj, shape, traj.window(0.0, 1.0))


@pytest.mark.parametrize("name", SCENARIO_NAMES)
def test_step_maps_match_per_step_rk4_on_builtins(name):
    sc = scenario_from_dict(builtin_scenario(name, {"sim": {"t_end": 20.0}}))
    d = design_pipeline(sc.graph, sc.shape, sc.spec, seed=sc.design_seed)
    args = (d.modified.L_tilde, d.bundle.gains, sc.sim, sc.shape)
    _assert_same_run(integrate(*args), _per_step_reference(*args))


def test_step_maps_match_per_step_loops_off_grid_heading():
    # 57 * 0.01 is the float product k dt itself, one ulp above 0.57
    d, cfg = _square_translation_heading(
        ((0.025, 1), (57 * 0.01, 1j), (1.005, -1), (1.5, 1)), t_end=2.0, sample_stride=7)
    args = (d.modified.L_tilde, d.bundle.gains, cfg, square_shape())
    _assert_same_run(integrate(*args), _per_step_reference(*args))
    _assert_same_run(exact_trajectory(*args), _per_step_reference(*args, exact=True))


def _transient_run():
    # non-normal decay: |p_1| peaks near 2.5e5 at t = ln 2, then falls off
    cfg = SimConfig(dt=0.01, t_end=20.0, p0=np.array([0, 1], dtype=complex),
                    divergence_threshold=1e5, sample_stride=500)
    L_tilde = -np.array([[-1, 1e6], [0, -2]], dtype=complex)
    return L_tilde, np.ones(2, dtype=complex), cfg, center_shape([1.0, -1.0])


def _early_peak_run():
    # |p_1| = 1e10 (e^-10t - e^-20t) passes the limit 10 max |p0| = 1e9 at
    # t = 0.02 and is below 1e-11 by the first kept state, t = 5: only the
    # certificate of p0 sees the crossing
    cfg = SimConfig(dt=0.01, t_end=10.0, p0=np.array([0, 1e8], dtype=complex),
                    divergence_threshold=10.0, sample_stride=500)
    L_tilde = -np.array([[-10, 1000], [0, -20]], dtype=complex)
    return L_tilde, np.ones(2, dtype=complex), cfg, center_shape([1.0, -1.0])


def _growing_run():
    d = _design(MotionSpec())
    cfg = SimConfig(dt=0.01, t_end=100.0, seed=1, divergence_threshold=1e3)
    return -d.modified.L_tilde, d.bundle.gains, cfg, square_shape()


def _overflow_run():
    # at the largest float as threshold only a non-finite state diverges: p_1
    # turns inf + nan j (t = 0.47 with RK4, 0.08 exact), then every entry NaN
    cfg = SimConfig(dt=0.01, t_end=1.0, p0=np.array([1, 1j]),
                    divergence_threshold=np.finfo(float).max)
    L_tilde = -np.diag([1e4, -1.0]).astype(complex)
    return L_tilde, np.ones(2, dtype=complex), cfg, center_shape([1.0, -1.0])


def _nan_run():
    # p0 = 1e300 [1, 1] is at rest (L~ 1 = 0), yet S holds entries near 1e10 (NaN
    # for expm): the partial sums of S p0 overflow and cancel to NaN, |p_i| NaN not inf
    cfg = SimConfig(dt=0.01, t_end=1.0, p0=np.array([1e300, 1e300]),
                    divergence_threshold=np.finfo(float).max)
    L_tilde = -1e12 * np.array([[1, -1], [1, -1]], dtype=complex)
    return L_tilde, np.ones(2, dtype=complex), cfg, center_shape([1.0, -1.0])


def _late_run():
    # e^(t/2) crosses 1e15 near t = 69.08, step 6908: past the first block of states
    cfg = SimConfig(dt=0.01, t_end=100.0, p0=np.array([1, 1j]),
                    divergence_threshold=1e15, sample_stride=1000)
    L_tilde = -np.diag([0.5, -1.0]).astype(complex)
    return L_tilde, np.ones(2, dtype=complex), cfg, center_shape([1.0, -1.0])


def _held_setpoint_run():
    # p_1' = p_1 + p_2 + u: u = 1e3 j, then -1e4 drive p_1 past 1e9 near t = 18.75,
    # in the third of four setpoints, so the walk again starts from u = -1e4
    cfg = SimConfig(dt=0.01, t_end=40.0, p0=np.array([1e-3, 1j]), sample_stride=50,
                    heading=HeadingControl(1, 2, 1.0, ((5.0, 0j), (10.0, 1e3j), (20.0, -1e4),
                                                       (40.0, 1.0))))
    L_tilde = -np.diag([2.0, -1.0]).astype(complex)
    return L_tilde, np.ones(2, dtype=complex), cfg, center_shape([1.0, -1.0])


@pytest.mark.parametrize("make", [_growing_run, _transient_run, _early_peak_run, _overflow_run,
                                  _nan_run, _late_run, _held_setpoint_run])
def test_step_maps_diverge_at_the_same_step(make):
    args = make()
    for run, exact in ((integrate, False), (exact_trajectory, True)):
        with pytest.raises(Diverged) as ref, np.errstate(over="ignore", invalid="ignore"):
            _per_step_reference(*args, exact=exact)
        with pytest.raises(Diverged) as new:
            run(*args)
        assert str(new.value) == str(ref.value)


def test_late_run_diverges_past_the_first_block():
    # the first block holds at most _TABLE_BYTES of states [p; u]
    _, _, cfg, shape = args = _late_run()
    first_block = sim._TABLE_BYTES // (16 * (shape.n + 1))
    for run in (integrate, exact_trajectory):
        with pytest.raises(Diverged) as err:
            run(*args)
        t = float(re.search(r"at t=([0-9.]+)", str(err.value)).group(1))
        assert first_block < round(t / cfg.dt) < cfg.t_end / cfg.dt


def test_exact_keeps_the_grid_on_off_grid_boundary():
    # a boundary between grid points used to shorten the exact run by a step
    d, cfg = _square_translation_heading(((0.025, 1), (10.0, 1j)), t_end=0.05)
    args = (d.modified.L_tilde, d.bundle.gains, cfg, square_shape())
    rk, ex = integrate(*args), exact_trajectory(*args)
    assert ex.times.size == rk.times.size == 6
    assert ex.times[-1] == rk.times[-1] == 0.05


def test_exact_switches_setpoint_on_the_rk4_step():
    # until = 1.005 lies between steps 100 and 101: both switch after t = 1.00
    d, cfg = _square_translation_heading(((1.005, 1), (10.0, 1j)), t_end=2.0)
    args = (d.modified.L_tilde, d.bundle.gains, cfg, square_shape())
    rk, ex = integrate(*args), exact_trajectory(*args)
    assert np.abs(rk.states - ex.states).max() / np.abs(ex.states).max() < 1e-6


def test_unstable_rk4_step_refused_before_stepping(square):
    _, shape = square
    d = _design(MotionSpec(omega=1.0, kappa_r=0.025))
    gains = d.bundle.gains * 100
    # RK4's stability region reaches 2.62-2.96 from 0 in the left half plane,
    # so dt rho = 4 puts the fastest mode outside it
    rho = np.abs(np.linalg.eigvals(gains[:, None] * d.modified.L_tilde)).max()
    cfg = SimConfig(dt=4.0 / rho, t_end=1.0, seed=1)
    with pytest.raises(StepUnstable) as err:
        integrate(d.modified.L_tilde, gains, cfg, shape)
    assert isinstance(err.value, Diverged)
    # the fastest mode bounds dt on its ray
    dt_max = float(re.search(r"largest stable dt is about ([0-9.e-]+)",
                             str(err.value)).group(1))
    assert 2.6 < dt_max * rho < 2.97
    ok = SimConfig(dt=0.99 * dt_max, t_end=1.0, seed=1)
    integrate(d.modified.L_tilde, gains, ok, shape)
    # the exact propagator has no step-size limit
    exact_trajectory(d.modified.L_tilde, gains, cfg, shape)


def test_rk4_preflight_once_per_integrate(monkeypatch):
    # traveling_heading holds five setpoints; the n x n block is the same in all
    sc = scenario_from_dict(builtin_scenario("traveling_heading"))
    d = design_pipeline(sc.graph, sc.shape, sc.spec, seed=sc.design_seed)
    calls = []
    eig, eigvals = np.linalg.eig, np.linalg.eigvals
    monkeypatch.setattr(np.linalg, "eigvals", lambda A: calls.append(A) or eigvals(A))
    monkeypatch.setattr(np.linalg, "eig", lambda A: calls.append(A) or eig(A))
    integrate(d.modified.L_tilde, d.bundle.gains, sc.sim, sc.shape)
    assert len(calls) == 1 and calls[0].shape == (4, 4)


def _unexcited_growth_run():
    # a mode growing at 50 that p0 does not excite: its high powers overflow
    L_tilde = -np.diag([50.0, -1.0]).astype(complex)
    cfg = SimConfig(dt=0.01, t_end=20.0, p0=np.array([0, 1], dtype=complex))
    return L_tilde, np.ones(2, dtype=complex), cfg, center_shape([1.0, -1.0])


def test_overflowing_powers_do_not_flag_a_finite_state():
    # from stride 1500 the pass's S^f or S^r is inf in the growing mode, and
    # inf * 0 puts NaN in its states: the walk again keeps its own, finite ones
    L_tilde, gains, cfg, shape = _unexcited_growth_run()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for stride in (100, 1500, 4096, 100_000):
            for run in (integrate, exact_trajectory):
                traj = run(L_tilde, gains, dataclasses.replace(cfg, sample_stride=stride), shape)
                assert np.all(traj.states[:, 0] == 0)
                assert traj.states[-1, 1] == pytest.approx(np.exp(-20.0), rel=1e-6)


def test_later_blocks_step_by_a_finite_power():
    # 20000 steps: blocks after the first are stepped by S^m, and S^2048
    # already overflows in the growing mode, so m must stop below it
    L_tilde = -np.diag([50.0, -1.0]).astype(complex)
    cfg = SimConfig(dt=0.01, t_end=200.0, p0=np.array([0, 1], dtype=complex),
                    sample_stride=1000)
    shape = center_shape([1.0, -1.0])
    for run in (integrate, exact_trajectory):
        traj = run(L_tilde, np.ones(2, dtype=complex), cfg, shape)
        assert np.all(traj.states[:, 0] == 0)
        assert traj.states[-1, 1] == pytest.approx(np.exp(-200.0), rel=1e-5)


@st.composite
def _stable_runs(draw):
    n = draw(st.integers(2, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    B = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    A = B - (np.linalg.eigvals(B).real.max() + draw(st.floats(0.01, 2.0))) * np.eye(n)
    dt = 0.01
    A *= draw(st.floats(0.05, 0.5)) / (dt * np.abs(np.linalg.eigvals(A)).max())
    steps = draw(st.integers(1, 300))
    heading = None
    if draw(st.booleans()):
        agent, neighbor = rng.choice(np.arange(1, n + 1), size=2, replace=False)
        # the float k dt of a step, mostly off the stride grid, or anywhere
        on_steps = st.integers(0, int(1.2 * steps)).map(lambda k: k * dt)
        untils = draw(st.lists(st.one_of(on_steps, st.floats(0.0, 1.2 * steps * dt)),
                               min_size=1, max_size=4))
        schedule = tuple((u, complex(*rng.standard_normal(2))) for u in untils)
        heading = HeadingControl(int(agent), int(neighbor),
                                 draw(st.floats(0.1, 2.0)), schedule)
    cfg = SimConfig(dt=dt, t_end=steps * dt, seed=int(rng.integers(1000)),
                    sample_stride=draw(st.integers(1, 64)), heading=heading)
    return -A, cfg, center_shape(np.exp(2j * np.pi * np.arange(n) / n))


def _forty_setpoints_run():
    # the traveling_heading design steered through 40 headings, one every 6.25 s
    L_tilde, gains, cfg, shape = _builtin_run("traveling_heading")
    schedule = tuple((6.25 * (k + 1), 2 * np.exp(2j * np.pi * k / 40)) for k in range(40))
    heading = dataclasses.replace(cfg.heading, schedule=schedule)
    return gains[:, None] * L_tilde, dataclasses.replace(cfg, heading=heading), shape


@settings(max_examples=40, deadline=None)
@given(_stable_runs())
@example(_forty_setpoints_run())
def test_step_maps_match_per_step_loops_property(run):
    L_tilde, cfg, shape = run
    args = (L_tilde, np.ones(shape.n, dtype=complex), cfg, shape)
    _assert_same_run(integrate(*args), _per_step_reference(*args))
    _assert_same_run(exact_trajectory(*args), _per_step_reference(*args, exact=True))


@pytest.mark.parametrize("stride", [2, 3, 7, 64])
def test_strided_run_is_the_step_by_step_run_sampled(stride):
    # five setpoints of 5000 steps: at stride 2 each holds more kept states
    # than one block, and at 3, 7 and 64 every boundary is off the stride grid
    sc = scenario_from_dict(builtin_scenario("traveling_heading",
                                             {"sim": {"sample_stride": stride}}))
    d = design_pipeline(sc.graph, sc.shape, sc.spec, seed=sc.design_seed)
    every = dataclasses.replace(sc.sim, sample_stride=1)
    steps = int(round(sc.sim.t_end / sc.sim.dt))
    keep = np.append(np.arange(0, steps, stride), steps)
    for run in (integrate, exact_trajectory):
        ref = run(d.modified.L_tilde, d.bundle.gains, every, sc.shape)
        _assert_same_run(run(d.modified.L_tilde, d.bundle.gains, sc.sim, sc.shape),
                         Trajectory(ref.times[keep], ref.states[keep]))


def test_long_run_computes_only_the_kept_states(monkeypatch):
    # 10^8 steps kept every 10^6 on a design whose certificate admits the
    # stride: one S^(10^6), formed by squaring, steps the 101 kept states
    d = _design(MotionSpec(a=-0.5, kappa_s=0.025))
    cfg = SimConfig(dt=0.01, t_end=1e6, seed=1, sample_stride=10**6)
    powers, power = [], sim._power
    monkeypatch.setattr(sim, "_power", lambda squares, j: powers.append(j) or power(squares, j))
    traj = exact_trajectory(d.modified.L_tilde, d.bundle.gains, cfg, square_shape())
    assert set(powers) == {10**6}  # no walk again step by step
    assert traj.times.size == 101 and traj.times[-1] == 1e6
    p0 = initial_condition(cfg, square_shape())
    ref = np.array([scipy.linalg.expm(-d.KL_tilde * t) @ p0 for t in traj.times])
    # the rounding of N = 10^8 steps of a diagonalizable map: N eps cond(V)
    cond = np.linalg.cond(np.linalg.eig(d.KL_tilde)[1])
    rel = 10**8 * np.finfo(float).eps * cond
    assert np.abs(traj.states - ref).max() <= rel * np.abs(ref).max()


@pytest.mark.parametrize("run", [integrate, exact_trajectory])
@pytest.mark.parametrize("name", ["enclosing", "traveling_heading"])
def test_kept_states_are_free_of_the_divergence_threshold(monkeypatch, name, run):
    # at stride 10^5 the default threshold is below G sqrt(2) big on some
    # segment, which is walked again step by step; the walk only tests its
    # states, so the kept states are the pass's, as at the largest threshold
    sc = scenario_from_dict(builtin_scenario(
        name, {"sim": {"t_end": 2000.0, "sample_stride": 100_000}}))
    d = design_pipeline(sc.graph, sc.shape, sc.spec, seed=sc.design_seed)
    outcomes = []
    for threshold in (sc.sim.divergence_threshold, np.finfo(float).max):
        formed, product = [], sim._product
        with monkeypatch.context() as m:
            m.setattr(sim, "_product", lambda A, B: formed.append(1) or product(A, B))
            traj = run(d.modified.L_tilde, d.bundle.gains,
                       dataclasses.replace(sc.sim, divergence_threshold=threshold), sc.shape)
        outcomes.append((traj, len(formed)))
    (walked, walked_products), (passed, passed_products) = outcomes
    assert walked_products > passed_products  # the doublings of a walk again
    assert np.array_equal(walked.times, passed.times)
    assert np.array_equal(walked.states, passed.states)


@np.errstate(over="ignore", invalid="ignore")
def _matrix_power_run(L_tilde, gains, cfg, shape, step_map):
    """The sampler as it was before the squares were shared: G from its own
    squares (one past the last it reads), S^f, S^s and S^r each from
    `numpy.linalg.matrix_power`, so up to twelve products per segment at
    stride 10. Its state is [p; u], the setpoint u set at each segment. The
    pass at the stride writes the samples; a walk again at s = 1 tests each
    state and writes none, unless the pass overflowed: then it writes them all."""
    matrix_power = np.linalg.matrix_power
    n, dt, h, stride = L_tilde.shape[0], cfg.dt, cfg.heading, int(cfg.sample_stride)
    steps = int(round(cfg.t_end / dt))
    X = np.zeros((n + 1, n + 1), dtype=complex)
    X[:n, :n] = -gains[:, None] * L_tilde
    segments = [(0, steps, 0.0)]
    if h is not None:
        if max(h.agent, h.neighbor) > n:
            raise ValueError(f"heading agent/neighbor out of range for {n} agents")
        X[h.agent - 1, h.agent - 1] -= h.gain
        X[h.agent - 1, h.neighbor - 1] += h.gain
        X[h.agent - 1, n] = h.gain
        segments = h.segments(dt, steps)
    S = step_map(X, dt)
    keep = np.append(np.arange(0, steps, stride), steps)
    samples = np.empty((keep.size, n), dtype=complex)
    x = initial_condition(cfg, shape)
    samples[0] = x
    limit = cfg.divergence_threshold * np.abs(x).max()

    def walk(x, k0, k1, s):
        # (steps, states) of the grid of s in (k0, k1] and of k1, block by block
        f = min((k0 // s + 1) * s, k1) - k0
        m, r = divmod(k1 - k0 - f, s)
        states, P = (matrix_power(S, f) @ x)[None], matrix_power(S, s)
        while len(states) <= m and 2 * states.nbytes <= sim._TABLE_BYTES \
                and np.isfinite(P2 := P @ P).all():
            states = np.concatenate([states, states[:m + 1 - len(states)] @ P.T])
            P = P2
        for j in range(0, m + 1, len(states)):
            if j:
                states = states[:m + 1 - j] @ P.T
            if r and j + len(states) > m:
                states = np.vstack([states, matrix_power(S, r) @ states[-1]])
            ks = np.minimum(k0 + f + s * np.arange(j, j + len(states)), k1)
            if s == 1:
                within = np.abs(states[:, :n]) <= limit
                if not within.all():
                    raise Diverged("state norm exceeded threshold at "
                                   f"t={ks[np.argmin(within.all(1))] * dt:.3f}")
            yield ks, states

    def write(ks, states):
        i0, i1 = np.searchsorted(keep, (ks[0] - 1, ks[-1]), side="right")
        samples[i0:i1] = states[np.searchsorted(ks, keep[i0:i1]), :n]
        return states[-1]

    for k0, k1, setpoint in segments:
        x = np.append(x[:n], setpoint)
        G, Q = 1.0, S
        for _ in range((stride - 1).bit_length()):
            G, Q = G * np.maximum(1.0, np.abs(Q).sum(1).max()), Q @ Q
        big = np.abs(x.view(float)).max()
        for ks, states in walk(x, k0, k1, stride):
            big = np.abs(states.view(float)).max(initial=big)
            end = write(ks, states)
        if stride > 1 and not G * np.sqrt(2) * big <= limit:
            for ks, states in walk(x, k0, k1, 1):
                if not np.isfinite(big):
                    end = write(ks, states)
        x = end
    return Trajectory(keep * dt, samples)


def _sweep_run(n, motion):
    g, shape = ring_chord(n)
    d = design_pipeline(g, shape, motion)
    return d.modified.L_tilde, d.bundle.gains, SimConfig(dt=0.01, t_end=20.0, seed=n), shape


_SAMPLER_RUNS = {
    **{name: functools.partial(_builtin_run, name) for name in SCENARIO_NAMES},
    "ring_chord_8": functools.partial(_sweep_run, 8, MotionSpec(omega=1.0, kappa_r=0.025)),
    "ring_chord_16": functools.partial(
        _sweep_run, 16, MotionSpec(a=1.0, omega=1.0, kappa_r=0.025, kappa_s=0.025)),
    "ring_chord_24": functools.partial(_sweep_run, 24, MotionSpec(v_star=1.0, kappa_t=0.05)),
    "diverging": _growing_run,
    "overflowing": _unexcited_growth_run}


@pytest.mark.parametrize("stride", [1, 2, 3, 4, 7, 10, 16, 100_000])
@pytest.mark.parametrize("name", list(_SAMPLER_RUNS))
def test_shared_squares_keep_the_matrix_power_bits(monkeypatch, name, stride):
    # every kept state, or the Diverged / StepUnstable message, as the
    # sampler that formed each power with matrix_power gave it
    L_tilde, gains, cfg, shape = _SAMPLER_RUNS[name]()
    cfg = dataclasses.replace(cfg, sample_stride=stride)
    if name == "traveling_heading":
        assert len(cfg.heading.segments(cfg.dt, int(round(cfg.t_end / cfg.dt)))) == 5

    def outcome(run):
        try:
            traj = run(L_tilde, gains, cfg, shape)
        except Diverged as exc:
            return type(exc), str(exc)
        return traj.times, traj.states

    for run in (integrate, exact_trajectory):
        new = outcome(run)
        with monkeypatch.context() as m:
            m.setattr(sim, "_run", _matrix_power_run)
            ref = outcome(run)
        assert type(new[0]) is type(ref[0])
        if isinstance(ref[0], type):
            assert new == ref
        else:
            assert np.array_equal(new[0], ref[0]) and np.array_equal(new[1], ref[1])
    if name == "diverging":
        assert new[0] is Diverged


def test_a_stride_10_segment_takes_four_products(monkeypatch):
    # once per run of traveling_heading's five setpoints, all on the stride
    # grid: the squares S^2, S^4, S^8 and T = S^10 = S^2 S^8, also each S^f
    L_tilde, gains, cfg, shape = _builtin_run("traveling_heading")
    seen, power = [], sim._power
    monkeypatch.setattr(sim, "_power",
                        lambda squares, e: seen.append((len(squares), e)) or power(squares, e))
    exact_trajectory(L_tilde, gains, dataclasses.replace(cfg, sample_stride=10), shape)
    assert seen == [(4, 10)]


@pytest.mark.parametrize("run, step_map", [(exact_trajectory, "expm"), (integrate, "_rk4_step")])
def test_a_run_forms_its_step_map_once(monkeypatch, run, step_map):
    # forty setpoints, one S: a switch sets u in the state [p; u], not X
    L_tilde, cfg, shape = _forty_setpoints_run()
    assert len(cfg.heading.segments(cfg.dt, int(round(cfg.t_end / cfg.dt)))) == 40
    calls, form = [], getattr(sim, step_map)
    monkeypatch.setattr(sim, step_map, lambda *a: calls.append(a) or form(*a))
    run(L_tilde, np.ones(shape.n, dtype=complex), cfg, shape)
    assert len(calls) == 1


def _edge_run(stride, untils, steps=40):
    # a fixed stable 3-agent loop whose heading setpoints switch at untils
    rng = np.random.default_rng(5)
    B = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    A = B - (np.linalg.eigvals(B).real.max() + 0.5) * np.eye(3)
    A *= 0.3 / (0.01 * np.abs(np.linalg.eigvals(A)).max())
    schedule = tuple((u, 1j ** i) for i, u in enumerate((*untils, steps * 0.01)))
    heading = HeadingControl(1, 2, 1.0, schedule)
    cfg = SimConfig(dt=0.01, t_end=steps * 0.01, seed=3, sample_stride=stride, heading=heading)
    return -A, cfg, center_shape(np.exp(2j * np.pi * np.arange(3) / 3))


@settings(max_examples=40, deadline=None)
@given(_stable_runs())
# segments (0, 3) and (3, 5) shorter than a stride, (5, 20) ending off the
# grid before the run's end, (20, 40) ending off the grid at the run's end
@example(_edge_run(7, (0.03, 0.05, 0.2)))
@example(_edge_run(64, (0.1,)))  # no state of either segment on the grid
@example(_edge_run(10, (0.2,)))  # the boundary and the end on the grid
@example(_edge_run(1, (0.055,)))
def test_in_place_sampler_keeps_the_matrix_power_bits_property(run):
    L_tilde, cfg, shape = run
    args = (L_tilde, np.ones(shape.n, dtype=complex), cfg, shape)
    for step in (integrate, exact_trajectory):
        new = step(*args)
        with mock.patch.object(sim, "_run", _matrix_power_run):
            ref = step(*args)
        assert np.array_equal(new.times, ref.times) and np.array_equal(new.states, ref.states)


@pytest.mark.parametrize("run", [exact_trajectory, integrate])
def test_kept_states_are_the_only_table_of_the_run(run):
    # the kept states [p; u] are written once, where they are kept: the run
    # allocates at most 128 KB beside them (688 KB here)
    L_tilde, gains, cfg, shape = _builtin_run("shaped_consensus_inward")
    tracemalloc.start()
    try:
        traj = run(L_tilde, gains, cfg, shape)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= traj.times.size * (shape.n + 1) * 16 + 128 * 1024


def _many_times_run():
    # 8001 kept states of 2 agents, the times 1/6 the size of the kept rows; at
    # stride 2 the certificate, not a per-state test, passes the run
    cfg = SimConfig(dt=0.01, t_end=160.0, p0=np.array([1, 1j]), sample_stride=2)
    L_tilde = -np.diag([-0.5, -1.0]).astype(complex)
    return L_tilde, np.ones(2, dtype=complex), cfg, center_shape([1.0, -1.0])


@pytest.mark.parametrize("run", [exact_trajectory, integrate])
@pytest.mark.parametrize("make", [functools.partial(_builtin_run, "shaped_consensus_inward"),
                                  _many_times_run], ids=["shaped", "many_times"])
def test_times_take_no_cast_buffer_at_the_peak(run, make):
    # beside the kept rows, the peak holds the times (8 bytes a row) and less
    # than the times' size more: no array of kept step indices lives beside
    # them, and the times are formed in place, with no int-to-float cast buffer
    L_tilde, gains, cfg, shape = make()
    tracemalloc.start()
    try:
        traj = run(L_tilde, gains, cfg, shape)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - traj.times.size * (shape.n + 1) * 16 - traj.times.nbytes < traj.times.nbytes


@pytest.mark.parametrize("make, products", [
    # S^2, S^4, S^8, T = S^2 S^8, and T^2 ... T^128 for the first block's
    # doublings; the last doubling fills the segment's 200 states, so no T^256
    (functools.partial(_sweep_run, 48, MotionSpec(omega=1.0, kappa_r=0.025)), 11),
    # 4000 states: the first block stops at 1024 of them (2048 would pass
    # 256 KB), and T^1024 steps the later blocks: all 4 + 10 products are read
    (functools.partial(_builtin_run, "shaped_consensus_inward"), 14)], ids=["n48", "shaped"])
def test_a_stride_10_run_forms_no_unread_power(monkeypatch, make, products):
    L_tilde, gains, cfg, shape = make()
    cfg = dataclasses.replace(cfg, sample_stride=10)
    formed, product = [], sim._product
    monkeypatch.setattr(sim, "_product",
                        lambda A, B: formed.append(A.shape) or product(A, B))
    exact_trajectory(L_tilde, gains, cfg, shape)
    assert formed == [(shape.n + 1, shape.n + 1)] * products


@pytest.mark.parametrize("name, window", [("shaped_consensus_inward", (300.0, 400.0)),
                                          ("traveling_heading", (225.0, 250.0))])
def test_kept_states_read_as_a_contiguous_copy(tmp_path, name, window):
    # Trajectory.states is a view of the kept [p; u] rows, not a copy
    sc = scenario_from_dict(builtin_scenario(name))
    d = design_pipeline(sc.graph, sc.shape, sc.spec, seed=sc.design_seed)
    traj = integrate(d.modified.L_tilde, d.bundle.gains, sc.sim, sc.shape)
    copy = Trajectory(traj.times, np.ascontiguousarray(traj.states))
    assert not traj.states.flags.c_contiguous and copy.states.flags.c_contiguous
    assert np.array_equal(shape_error(traj.states, sc.shape), shape_error(copy.states, sc.shape))
    assert measure_motion(traj, sc.shape, traj.window(*window)) == \
        measure_motion(copy, sc.shape, copy.window(*window))
    assert cli.build_report(sc, d, traj)["metrics"] == cli.build_report(sc, d, copy)["metrics"]
    cli.write_trajectory_csv(traj, tmp_path / "view.csv")
    cli.write_trajectory_csv(copy, tmp_path / "copy.csv")
    assert (tmp_path / "view.csv").read_bytes() == (tmp_path / "copy.csv").read_bytes()


@pytest.mark.parametrize("stride", [2.5, 2.0, 0, -3])
def test_sample_stride_must_be_an_integer(stride):
    # a float stride used to pass and fail later, inside the run, with IndexError
    with pytest.raises(ValueError, match="^sample_stride must be an integer >= 1$"):
        SimConfig(dt=0.01, t_end=1.0, sample_stride=stride)


def test_numpy_integer_sample_stride_accepted():
    d = _design(MotionSpec())
    cfg = SimConfig(dt=0.01, t_end=1.0, seed=1, sample_stride=np.int64(3))
    for run in (integrate, exact_trajectory):
        traj = run(d.modified.L_tilde, d.bundle.gains, cfg, square_shape())
        assert np.array_equal(traj.times, np.append(np.arange(0, 100, 3), 100) * 0.01)


@pytest.mark.parametrize("n, motion", [
    (8, MotionSpec(omega=1.0, kappa_r=0.025)),
    (16, MotionSpec(a=1.0, omega=1.0, kappa_r=0.025, kappa_s=0.025)),
    (24, MotionSpec(v_star=1.0, kappa_t=0.05)),
    (32, MotionSpec(omega=1.0, kappa_r=0.025)),
    (40, MotionSpec(a=1.0, omega=1.0, kappa_r=0.025, kappa_s=0.025))])
def test_rk4_accepts_the_sweep_designs_at_dt_001(n, motion):
    # the benchmark sweep's designs; random-walk gains forced boosts of up to
    # 2048 there, and the RK4 pre-flight refused four of the five at dt = 0.01
    g, shape = ring_chord(n)
    d = design_pipeline(g, shape, motion)
    cfg = SimConfig(dt=0.01, t_end=0.01, seed=n)
    integrate(d.modified.L_tilde, d.bundle.gains, cfg, shape)


_HEADING = dict(agent=1, neighbor=2, gain=1.0, schedule=((1.0, 2 + 0j),))


@pytest.mark.parametrize("over, match", [
    ({"gain": np.inf}, "gain"), ({"gain": np.nan}, "gain"),
    ({"schedule": ((np.nan, 2 + 0j),)}, "schedule must be finite"),
    ({"schedule": ((1.0, complex(np.inf, 0)),)}, "schedule must be finite"),
    ({"agent": 0}, "count from 1"), ({"neighbor": 0}, "count from 1"),
    ({"agent": -1}, "count from 1"), ({"neighbor": 1}, "distinct"),
    ({"schedule": ()}, "schedule is empty")])
def test_heading_control_refuses_bad_fields(over, match):
    with pytest.raises(ValueError, match=match):
        HeadingControl(**{**_HEADING, **over})


@pytest.mark.parametrize("run", [integrate, exact_trajectory])
@pytest.mark.parametrize("pair", [{"agent": 5}, {"neighbor": 5}])
def test_heading_indices_past_n_refused(run, pair):
    # index n + 1 would land in the affine row of the step matrix
    d = _design(MotionSpec(v_star=1.0, kappa_t=0.05))
    cfg = SimConfig(dt=0.01, t_end=1.0, heading=HeadingControl(**{**_HEADING, **pair}))
    with pytest.raises(ValueError, match="out of range for 4 agents"):
        run(d.modified.L_tilde, d.bundle.gains, cfg, square_shape())


def test_run_without_heading_allocates_nothing_per_step():
    # 500 000 RK4 steps kept at 6 samples: no array grows with the step count
    import tracemalloc

    sc = scenario_from_dict(builtin_scenario(
        "enclosing", {"sim": {"t_end": 5000.0, "sample_stride": 100_000}}))
    d = design_pipeline(sc.graph, sc.shape, sc.spec, seed=sc.design_seed)
    tracemalloc.start()
    try:
        traj = integrate(d.modified.L_tilde, d.bundle.gains, sc.sim, sc.shape)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert traj.times.size == 6
    assert peak < 2 * 2**20


def test_heading_run_allocates_nothing_per_step():
    # 500 000 RK4 steps through five setpoints kept at 6 samples: the
    # segments are read off the schedule, so no array grows with the step count
    import tracemalloc

    sc = scenario_from_dict(builtin_scenario(
        "traveling_heading", {"sim": {"t_end": 5000.0, "sample_stride": 100_000}}))
    d = design_pipeline(sc.graph, sc.shape, sc.spec, seed=sc.design_seed)
    tracemalloc.start()
    try:
        traj = integrate(d.modified.L_tilde, d.bundle.gains, sc.sim, sc.shape)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert traj.times.size == 6
    assert peak < 2 * 2**20


_DT = 0.01
_UNTILS = st.one_of(
    st.integers(-5, 320).map(lambda k: k * _DT),  # on the grid, as the float k dt
    st.tuples(st.integers(0, 320), st.sampled_from([-np.inf, np.inf])).map(
        lambda kd: float(np.nextafter(kd[0] * _DT, kd[1]))),  # one ulp off the grid
    st.floats(-1.0, 4.0))  # anywhere, negative and past the end included


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 300), st.lists(_UNTILS, min_size=1, max_size=6))
@example(200, [0.025, 57 * 0.01, 1.005, 1.5])  # off the grid, and one ulp above 0.57
@example(200, [1.0, 0.5, 1.5])  # not monotone: the 0.5 entry never holds
@example(200, [-1.0, 0.3, 10.0, 20.0])  # negative, then past the end
def test_heading_segments_tile_the_run_property(steps, untils):
    h = HeadingControl(1, 2, 1.0, tuple((u, complex(i)) for i, u in enumerate(untils)))
    segments = h.segments(_DT, steps)
    assert [k0 for k0, _, _ in segments] == [0] + [k1 for _, k1, _ in segments[:-1]]
    assert segments[-1][1] == steps
    for k0, k1, setpoint in segments:
        assert k0 < k1
        assert all(h.setpoint_at(k * _DT) == setpoint for k in range(k0, k1))


@pytest.mark.parametrize("dt, t_end", [(1e-300, 1e300), (1.0, 1e20), (1.0, 2.0**53)])
def test_step_count_beyond_an_exact_float_refused(dt, t_end):
    with pytest.raises(ValueError, match="2\\*\\*53"):
        SimConfig(dt=dt, t_end=t_end)
    SimConfig(dt=1.0, t_end=2.0**53 - 1)
