"""Closed-loop integration of p' = -K L~ p and trajectory metrics.

The loop is linear; heading control adds an affine term, constant while a
setpoint holds. Per such segment a step is one matrix S on [p; 1]: the RK4
polynomial R(dt X) (`integrate`) or expm(dt X) (`exact_trajectory`, the
oracle). One loop builds a block of states [S x, ..., S^m x] by doubling,
steps each later block by S^m, one product per block, and checks every step
for divergence. `integrate` first raises StepUnstable, naming the largest
stable dt, for a step outside RK4's region.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.linalg import expm

from .errors import Diverged, NotConverged, StepUnstable, ZeroState
from .shapes import TOLERANCES, ReferenceShape

_TABLE_BYTES = 256 * 1024  # bound on one block of states
_RK4 = (1 / 24, 1 / 6, 1 / 2, 1, 1)  # R(z) = 1 + z + z^2/2 + z^3/6 + z^4/24


@dataclass(frozen=True)
class HeadingControl:
    """Proportional term -c (z_ij - z*_ij(t)) added to one agent's input.

    schedule is a sequence of (until, setpoint) pairs; the last setpoint
    holds to the end of the run.
    """

    agent: int
    neighbor: int
    gain: float
    schedule: tuple[tuple[float, complex], ...]

    def __post_init__(self):
        if self.gain <= 0:
            raise ValueError("heading gain must be positive")
        if not self.schedule:
            raise ValueError("heading schedule is empty")

    def _entry_at(self, t):
        """Schedule index in force at t (or each t): first `until` > t, else last."""
        untils = np.maximum.accumulate([until for until, _ in self.schedule])
        return np.minimum(np.searchsorted(untils, t, side="right"), len(self.schedule) - 1)

    def setpoint_at(self, t: float) -> complex:
        return self.schedule[self._entry_at(t)][1]


@dataclass(frozen=True)
class SimConfig:
    dt: float = 1e-3
    t_end: float = 10.0
    p0: Optional[np.ndarray] = None
    seed: int = 0
    box_factor: float = 2.0  # random-box half width as multiple of shape radius
    divergence_threshold: float = 1e9
    sample_stride: int = 1
    heading: Optional[HeadingControl] = None

    def __post_init__(self):
        if not 0 < self.dt < np.inf:
            raise ValueError("dt must be positive and finite")
        if not self.dt <= self.t_end < np.inf:
            raise ValueError("t_end must be finite and at least dt")
        if self.sample_stride < 1:
            raise ValueError("sample_stride must be >= 1")


@dataclass(frozen=True)
class Trajectory:
    times: np.ndarray
    states: np.ndarray  # (samples, n) complex

    def __post_init__(self):
        if self.states.shape[0] != self.times.size:
            raise ValueError("times and states disagree in length")

    @property
    def n(self) -> int:
        return self.states.shape[1]

    def window(self, t_from: float, t_to: float) -> slice:
        i0 = int(np.searchsorted(self.times, t_from, side="left"))
        i1 = int(np.searchsorted(self.times, t_to, side="right"))
        return slice(i0, i1)


def initial_condition(cfg: SimConfig, shape: ReferenceShape) -> np.ndarray:
    if cfg.p0 is not None:
        p0 = np.asarray(cfg.p0, dtype=complex)
        if p0.size != shape.n:
            raise ValueError("initial condition size mismatch")
        return p0
    rng = np.random.default_rng(cfg.seed)
    hw = cfg.box_factor * shape.radius()
    return rng.uniform(-hw, hw, shape.n) + 1j * rng.uniform(-hw, hw, shape.n)


def integrate(L_tilde: np.ndarray, gains: np.ndarray, cfg: SimConfig,
              shape: ReferenceShape) -> Trajectory:
    """Fixed-step RK4 integration of p' = -K L~ p plus the heading term.

    The heading setpoint is sampled once per step (zero-order hold), so
    steps never straddle two schedule segments. Raises StepUnstable before
    stepping if dt puts a decaying mode outside RK4's stability region.
    """
    return _run(L_tilde, gains, cfg, shape, _rk4_step, _rk4_preflight)


def exact_trajectory(L_tilde: np.ndarray, gains: np.ndarray, cfg: SimConfig,
                     shape: ReferenceShape) -> Trajectory:
    """Exact solution on the same grid and setpoint segments as `integrate`."""
    return _run(L_tilde, gains, cfg, shape, lambda X, dt: expm(X * dt),
                lambda A, dt: None)


def _rk4_preflight(A: np.ndarray, dt: float) -> None:
    """Raise StepUnstable unless every decaying mode of A (Re below
    -spectrum_rel times the spectral radius) lies in RK4's stability region."""
    lam = np.linalg.eigvals(A)
    lam = lam[lam.real < -TOLERANCES["spectrum_rel"] * np.abs(lam).max(initial=0.0)]
    bad = lam[np.abs(np.polyval(_RK4, dt * lam)) >= 1]
    if bad.size:
        lo, hi = np.zeros(bad.size), np.full(bad.size, dt)
        for _ in range(60):  # bisect each offending ray for its stable dt
            mid = (lo + hi) / 2
            stable = np.abs(np.polyval(_RK4, mid * bad)) < 1
            lo, hi = np.where(stable, mid, lo), np.where(stable, hi, mid)
        raise StepUnstable(
            f"RK4 step dt={dt:g} is unstable for the closed-loop mode "
            f"{bad[np.argmin(lo)]:.4g}; the largest stable dt is about {lo.min():.3g}")


def _rk4_step(X: np.ndarray, dt: float) -> np.ndarray:
    """R(dt X), the RK4 step map."""
    Z = dt * X
    eye = np.eye(len(Z))
    return eye + Z @ (eye + Z @ (eye + Z @ (eye + Z / 4) / 3) / 2)


@np.errstate(over="ignore", invalid="ignore")  # non-finite states raise Diverged
def _run(L_tilde: np.ndarray, gains: np.ndarray, cfg: SimConfig,
         shape: ReferenceShape, step_map, preflight) -> Trajectory:
    """Step [p; 1] by S = step_map(X, dt), one S per setpoint segment, after
    preflight(A, dt) on the n x n block A of X, which no segment changes."""
    n, dt, h = L_tilde.shape[0], cfg.dt, cfg.heading
    steps = int(round(cfg.t_end / dt))
    X = np.zeros((n + 1, n + 1), dtype=complex)
    X[:n, :n] = -gains[:, None] * L_tilde
    seg = np.zeros(steps, dtype=int)  # schedule entry in force at each step
    if h is not None:
        X[h.agent - 1, h.agent - 1] -= h.gain
        X[h.agent - 1, h.neighbor - 1] += h.gain
        seg = h._entry_at(np.arange(steps) * dt)  # zero-order hold at k dt
    preflight(X[:n, :n], dt)
    starts = np.flatnonzero(np.diff(seg, prepend=-1))
    keep = np.union1d(np.arange(0, steps, cfg.sample_stride), steps)  # sampled steps
    samples = np.empty((keep.size, n), dtype=complex)
    x = np.append(initial_condition(cfg, shape), 1.0)
    samples[0] = x[:n]
    for k0, k1 in zip(starts, np.append(starts[1:], steps)):
        if h is not None:
            X[h.agent - 1, n] = h.gain * h.schedule[seg[k0]][1]
        S = step_map(X, dt)
        states, P = (S @ x)[None], S  # the states 1..m steps on, and S^m
        while len(states) < k1 - k0 and 2 * states.nbytes <= _TABLE_BYTES \
                and np.isfinite(P2 := P @ P).all():  # stop before a non-finite power
            states = np.concatenate([states, states[:k1 - k0 - len(states)] @ P.T])
            P = P2
        for k in range(k0, k1, len(states)):
            if k > k0:
                states = states[:k1 - k] @ P.T
            p = states[:, :n]
            bad = ~np.isfinite(p).all(1) | (np.abs(p).max(1) > cfg.divergence_threshold)
            if bad.any():
                raise Diverged("state norm exceeded threshold at "
                               f"t={(k + 1 + np.argmax(bad)) * dt:.3f}")
            i0, i1 = np.searchsorted(keep, (k, k + len(p)), side="right")
            samples[i0:i1] = p[keep[i0:i1] - k - 1]
        x = states[-1]
    return Trajectory(keep * dt, samples)


def shape_projector(shape: ReferenceShape) -> np.ndarray:
    """Orthogonal projector onto span{1, p*}."""
    basis = np.column_stack([np.ones(shape.n, dtype=complex), shape.p_star])
    q, _ = np.linalg.qr(basis)
    return q @ q.conj().T


def shape_error(p: np.ndarray, shape: ReferenceShape) -> float:
    """Relative distance of the configuration from the desired shape space."""
    p = np.asarray(p, dtype=complex)
    norm = np.linalg.norm(p)
    if norm == 0:
        raise ZeroState("shape error undefined for the zero configuration")
    P = shape_projector(shape)
    return float(np.linalg.norm(p - P @ p) / norm)


def shape_error_series(traj: Trajectory, shape: ReferenceShape) -> np.ndarray:
    P = shape_projector(shape)
    states = traj.states
    norms = np.linalg.norm(states, axis=1)
    resid = np.linalg.norm(states - states @ P.T, axis=1)
    return resid / norms


@dataclass(frozen=True)
class MotionEstimate:
    omega_hat: float
    a_hat: float
    v_hat: complex


def measure_motion(traj: Trajectory, shape: ReferenceShape,
                   window: slice) -> MotionEstimate:
    """Estimate angular speed, scaling rate and centroid velocity over a
    steady-state window by least-squares slopes."""
    t = traj.times[window]
    states = traj.states[window]
    if t.size < 3:
        raise ValueError("window too short")
    errs = shape_error_series(Trajectory(t, states), shape)
    if errs.max() > 1e-4:
        raise NotConverged(
            f"shape error {errs.max():.2e} in window; steady state not reached")
    centroid = states.mean(axis=1)
    rel = states - centroid[:, None]

    angles = np.unwrap(np.angle(rel), axis=0)
    slopes = np.polyfit(t, angles, 1)[0]
    omega_hat = float(slopes.mean())

    radius = np.log(np.linalg.norm(rel, axis=1))
    a_hat = float(np.polyfit(t, radius, 1)[0])

    v_re = np.polyfit(t, centroid.real, 1)[0]
    v_im = np.polyfit(t, centroid.imag, 1)[0]
    return MotionEstimate(omega_hat, a_hat, complex(v_re + 1j * v_im))
