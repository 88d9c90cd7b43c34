import re
import warnings

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
                or np.abs(p).max() > cfg.divergence_threshold:
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


def test_zero_dynamics_constant(square):
    _, shape = square
    L0 = np.zeros((4, 4), dtype=complex)
    cfg = SimConfig(dt=0.01, t_end=1.0, seed=3)
    traj = integrate(L0, np.ones(4, dtype=complex), cfg, shape)
    assert np.abs(traj.states - traj.states[0]).max() == 0


def test_static_design_converges(square):
    _, shape = square
    d = _design(MotionSpec())
    cfg = SimConfig(dt=0.01, t_end=20.0, seed=1)
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


def test_deterministic_for_seed(square):
    _, shape = square
    d = _design(MotionSpec(omega=1.0, kappa_r=0.025))
    cfg = SimConfig(dt=0.01, t_end=1.0, seed=11)
    a = integrate(d.modified.L_tilde, d.bundle.gains, cfg, shape)
    b = integrate(d.modified.L_tilde, d.bundle.gains, cfg, shape)
    assert np.array_equal(a.states, b.states)


def test_initial_condition_box(square):
    _, shape = square
    cfg = SimConfig(dt=0.01, t_end=1.0, seed=4, box_factor=2.0)
    p0 = initial_condition(cfg, shape)
    hw = 2.0 * shape.radius()
    assert np.abs(p0.real).max() <= hw and np.abs(p0.imag).max() <= hw


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


@pytest.mark.parametrize("kwargs", [{"p0": np.zeros(4, dtype=complex)}, {"box_factor": 0.0}],
                         ids=["zero p0", "zero box"])
def test_zero_initial_condition_refused(kwargs):
    # the zero configuration has no shape error: report.json would read NaN
    with pytest.raises(ValueError, match="zero configuration|nonzero"):
        SimConfig(**kwargs)


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


def _growing_run():
    d = _design(MotionSpec())
    cfg = SimConfig(dt=0.01, t_end=100.0, seed=1, divergence_threshold=1e3)
    return -d.modified.L_tilde, d.bundle.gains, cfg, square_shape()


@pytest.mark.parametrize("make", [_growing_run, _transient_run])
def test_step_maps_diverge_at_the_same_step(make):
    args = make()
    with pytest.raises(Diverged) as ref:
        _per_step_reference(*args)
    with pytest.raises(Diverged) as new:
        integrate(*args)
    assert str(new.value) == str(ref.value)


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
    gains = d.bundle.gains * 100  # spectral radius of K L~ about 376
    cfg = SimConfig(dt=0.01, t_end=1.0, seed=1)
    with pytest.raises(StepUnstable) as err:
        integrate(d.modified.L_tilde, gains, cfg, shape)
    assert isinstance(err.value, Diverged)
    # the fastest mode, about -270 - 261i, bounds dt on its ray
    dt_max = float(re.search(r"largest stable dt is about ([0-9.e-]+)",
                             str(err.value)).group(1))
    assert dt_max == pytest.approx(0.0072, abs=1e-4)
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


def test_overflowing_powers_do_not_flag_a_finite_state():
    # the growing mode is not excited; its high powers still overflow
    L_tilde = -np.diag([50.0, -1.0]).astype(complex)
    cfg = SimConfig(dt=0.01, t_end=20.0, p0=np.array([0, 1], dtype=complex),
                    sample_stride=100)
    shape = center_shape([1.0, -1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for run in (integrate, exact_trajectory):
            traj = run(L_tilde, np.ones(2, dtype=complex), cfg, shape)
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
        untils = draw(st.lists(st.floats(0.0, 1.2 * steps * dt), min_size=1, max_size=4))
        schedule = tuple((u, complex(*rng.standard_normal(2))) for u in untils)
        heading = HeadingControl(int(agent), int(neighbor),
                                 draw(st.floats(0.1, 2.0)), schedule)
    cfg = SimConfig(dt=dt, t_end=steps * dt, seed=int(rng.integers(1000)),
                    sample_stride=draw(st.integers(1, 9)), heading=heading)
    return -A, cfg, center_shape(np.exp(2j * np.pi * np.arange(n) / n))


@settings(max_examples=40, deadline=None)
@given(_stable_runs())
def test_step_maps_match_per_step_loops_property(run):
    L_tilde, cfg, shape = run
    args = (L_tilde, np.ones(shape.n, dtype=complex), cfg, shape)
    _assert_same_run(integrate(*args), _per_step_reference(*args))
    _assert_same_run(exact_trajectory(*args), _per_step_reference(*args, exact=True))


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
    ({"agent": -1}, "count from 1"), ({"neighbor": 1}, "distinct")])
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
