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

from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate
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
        if min(self.agent, self.neighbor) < 1 or self.agent == self.neighbor:
            raise ValueError("heading agent and neighbor must be distinct and count from 1")
        if not 0 < self.gain < np.inf:
            raise ValueError("heading gain must be positive and finite")
        if not self.schedule:
            raise ValueError("heading schedule is empty")
        if not np.isfinite(np.array(self.schedule, dtype=complex)).all():
            raise ValueError("heading schedule must be finite")

    def setpoint_at(self, t: float) -> complex:
        """The setpoint of the first entry whose `until` exceeds t, else the last."""
        return next((z for until, z in self.schedule if until > t), self.schedule[-1][1])

    def segments(self, dt: float, steps: int) -> list[tuple[int, int, complex]]:
        """(first, end, setpoint) for each run of steps k < steps that hold
        setpoint_at(k dt): an entry ends at the first k with k dt >= until."""
        grid = range(steps)
        ends = [bisect_left(grid, until, key=lambda k: k * dt) for until, _ in self.schedule[:-1]]
        firsts = [0, *accumulate([*ends, steps], max)]
        return [(k0, k1, z) for k0, k1, (_, z) in zip(firsts, firsts[1:], self.schedule) if k0 < k1]


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
        if not self.t_end / self.dt < 2**53:  # each step index k is an exact float
            raise ValueError("t_end / dt must be below 2**53 steps")
        if self.sample_stride < 1:
            raise ValueError("sample_stride must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if not (np.isfinite(self.box_factor) and self.box_factor != 0):
            raise ValueError("box_factor must be finite and nonzero")
        if self.p0 is not None and not np.any(self.p0):
            raise ValueError("initial condition is the zero configuration")
        if not 0 < self.divergence_threshold < np.inf:
            raise ValueError("divergence_threshold must be positive and finite")


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
    segments = [(0, steps, 0j)]  # (first step, end, setpoint), zero-order hold
    if h is not None:
        if max(h.agent, h.neighbor) > n:
            raise ValueError(f"heading agent/neighbor out of range for {n} agents")
        X[h.agent - 1, h.agent - 1] -= h.gain
        X[h.agent - 1, h.neighbor - 1] += h.gain
        segments = h.segments(dt, steps)
    preflight(X[:n, :n], dt)
    keep = np.union1d(np.arange(0, steps, cfg.sample_stride), steps)  # sampled steps
    samples = np.empty((keep.size, n), dtype=complex)
    x = np.append(initial_condition(cfg, shape), 1.0)
    samples[0] = x[:n]
    for k0, k1, setpoint in segments:
        if h is not None:
            X[h.agent - 1, n] = h.gain * setpoint
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


def shape_error(p: np.ndarray, shape: ReferenceShape) -> float | np.ndarray:
    """Relative distance of a configuration from the shape space span{1, p*}:
    a float for one configuration, an array for the rows of a 2-D array."""
    p = np.asarray(p, dtype=complex)
    norms = np.linalg.norm(p, axis=-1)
    if not norms.all():
        raise ZeroState("shape error undefined for the zero configuration")
    q, _ = np.linalg.qr(np.column_stack([np.ones(shape.n, dtype=complex), shape.p_star]))
    errs = np.linalg.norm(p - p @ (q @ q.conj().T).T, axis=-1) / norms
    return float(errs) if p.ndim == 1 else errs


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
    errs = shape_error(states, shape)
    if errs.max() > 1e-4:
        raise NotConverged(
            f"shape error {errs.max():.2e} in window; steady state not reached")
    centroid = states.mean(axis=1)
    rel = states - centroid[:, None]
    angles = np.unwrap(np.angle(rel), axis=0)
    radius = np.log(np.linalg.norm(rel, axis=1))
    slopes = np.polyfit(t, np.column_stack([angles, radius, centroid.real, centroid.imag]), 1)[0]
    n = angles.shape[1]
    return MotionEstimate(float(slopes[:n].mean()), float(slopes[n]),
                          complex(slopes[n + 1], slopes[n + 2]))
