"""Closed-loop integration of p' = -K L~ p and trajectory metrics.

Heading control adds c u to one agent's input, u a setpoint held between
switches (u' = 0): a run is one linear system on [p; u], a step one matrix S
formed once per run, the RK4 polynomial R(dt X) (`integrate`, whose step map
refuses an RK4-unstable dt before any step) or expm(dt X) (`exact_trajectory`,
the oracle); a switch only sets u. One pass computes only the states kept every
s = sample_stride steps, and each segment's end: S^f reaches the first, blocks
of them built by doubling are stepped by powers of T = S^s, and S^r reaches the
end, all products of one list of squares S^(2^b). It writes the kept states to
the run's one buffer of rows [p; u], whose first n columns are the Trajectory's
states. A skipped state is at most G ||y||_inf, G = prod max(1, ||S^(2^b)||_inf)
over 2^b < s, y a state computed; past divergence_threshold max|p(0)| a segment
is walked again at s = 1, in a bounded table, to test each state: Diverged names
the first bad step, else the pass's states stand, or if it overflowed the walk's.
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

_TABLE_BYTES = 256 * 1024  # bound on one block of states [p; u]
_BOX = 2.0  # half width of the random start box, in multiples of the shape's radius
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
    divergence_threshold: float = 1e9  # x max |p(0)|
    sample_stride: int = 1
    heading: Optional[HeadingControl] = None

    def __post_init__(self):
        if not 0 < self.dt < np.inf:
            raise ValueError("dt must be positive and finite")
        if not self.dt <= self.t_end < np.inf:
            raise ValueError("t_end must be finite and at least dt")
        if not self.t_end / self.dt < 2**53:  # each step index k is an exact float
            raise ValueError("t_end / dt must be below 2**53 steps")
        if not (isinstance(self.sample_stride, (int, np.integer)) and self.sample_stride >= 1):
            raise ValueError("sample_stride must be an integer >= 1")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if self.p0 is not None and not np.isfinite(self.p0).all():
            raise ValueError("initial condition must be finite")
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
    hw = _BOX * shape.radius()
    return rng.uniform(-hw, hw, shape.n) + 1j * rng.uniform(-hw, hw, shape.n)


def integrate(L_tilde: np.ndarray, gains: np.ndarray, cfg: SimConfig,
              shape: ReferenceShape) -> Trajectory:
    """Fixed-step RK4 integration of p' = -K L~ p plus the heading term.

    The heading setpoint is sampled once per step (zero-order hold), so
    steps never straddle two schedule segments. Raises StepUnstable before
    stepping if dt puts a decaying mode outside RK4's stability region.
    """
    return _run(L_tilde, gains, cfg, shape, _rk4_step)


def exact_trajectory(L_tilde: np.ndarray, gains: np.ndarray, cfg: SimConfig,
                     shape: ReferenceShape) -> Trajectory:
    """Exact solution on the same grid and setpoint segments as `integrate`."""
    return _run(L_tilde, gains, cfg, shape, lambda X, dt: expm(X * dt))


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
    """R(dt X), the RK4 step map; an unstable dt is refused first, before any
    step, by `_rk4_preflight` on X's n x n block, the closed loop on p."""
    _rk4_preflight(X[:-1, :-1], dt)
    Z = dt * X
    eye = np.eye(len(Z))
    return eye + Z @ (eye + Z @ (eye + Z @ (eye + Z / 4) / 3) / 2)


@np.errstate(over="ignore", invalid="ignore")  # non-finite states raise Diverged
def _run(L_tilde: np.ndarray, gains: np.ndarray, cfg: SimConfig,
         shape: ReferenceShape, step_map) -> Trajectory:
    """Step [p; u] by S = step_map(X, dt), one S per run; each segment sets u to
    its setpoint. The pass at the stride writes the kept states; a walk again at
    s = 1 finds the first bad step, else only rewrites a pass that overflowed."""
    n, dt, h, stride = L_tilde.shape[0], cfg.dt, cfg.heading, int(cfg.sample_stride)
    steps = int(round(cfg.t_end / dt))
    X = np.zeros((n + 1, n + 1), dtype=complex)
    X[:n, :n] = -gains[:, None] * L_tilde
    segments = [(0, steps, 0.0)]  # (first step, end, setpoint u), zero-order hold; no input: 0
    if h is not None:
        if max(h.agent, h.neighbor) > n:
            raise ValueError(f"heading agent/neighbor out of range for {n} agents")
        X[h.agent - 1, h.agent - 1] -= h.gain
        X[h.agent - 1, h.neighbor - 1] += h.gain
        X[h.agent - 1, n] = h.gain  # the input column: c u, with u' = 0
        segments = h.segments(dt, steps)
    squares = [step_map(X, dt)]  # S^(2^b) for 2^b <= stride, the only squares of S formed
    while len(squares) < stride.bit_length():
        squares.append(_product(squares[-1], squares[-1]))
    G = 1.0  # G >= ||S^i||_inf for every i < stride
    for Q in squares[:(stride - 1).bit_length()]:
        G = G * np.maximum(1.0, np.abs(Q).sum(1).max())
    T = _power(squares, stride)
    count = -(-steps // stride) + 1  # kept row i is step min(i * stride, steps)
    kept = np.empty((count, n + 1), dtype=complex)  # their states [p; u]
    x = kept[0] = np.append(initial_condition(cfg, shape), 0.0)
    limit = cfg.divergence_threshold * np.abs(x[:n]).max()  # in the start's unit, not the shape's
    rows = _TABLE_BYTES // x.nbytes  # the most states in one block
    for k0, k1, u in segments:
        x = np.append(x[:n], u)  # the state at k0, holding the segment's setpoint
        for s, P in ((stride, T), (1, squares[0])):  # P = S^s; if the bound fails, walk again
            m = k1 // s - k0 // s  # the states on the grid of s in (k0, k1]
            f = (k0 // s + 1) * s - k0  # steps from k0 to the first of them
            walk = s < stride  # the pass fills the kept rows, a walk again a scratch table
            table = np.empty((min(m, rows), n + 1), dtype=complex) if walk else \
                kept[k0 // s + 1:k1 // s + 1]
            if m:
                table[0] = (P if f == s else _power(squares, f)) @ x
            L = 1  # the first block, built by doubling: T^L times its first rows go next
            while L < m and 2 * L <= rows:
                P2 = _product(P, P) if 2 * L < m else None  # T^2L, if a later block reads it
                if P2 is not None and not np.isfinite(P2).all():
                    break  # stop before a non-finite power
                c = min(L, m - L)
                np.matmul(table[:c], P.T, out=table[L:L + c])
                L, P = L + c, P2
            block = table[:L]
            for j in range(0, m, L):  # j counts the grid states before the block
                if j:  # the block before times T^L, in its kept rows or a new array
                    block = np.matmul(block[:m - j], P.T, out=None if walk else table[j:j + L])
                if s == 1:
                    within = np.abs(block[:, :n]) <= limit  # False for NaN, inf
                    if not within.all():  # one test per block, then find the first bad step
                        raise Diverged("state norm exceeded threshold at "
                                       f"t={(k0 + j + 1 + np.argmin(within.all(1))) * dt:.3f}")
                if walk and not np.isfinite(big):  # the pass overflowed: keep the walk's states
                    grid, y = block[-(k0 + j + 1) % stride::stride], block[-1]  # at i stride, k1
                    kept[(k0 + j) // stride + 1:][:len(grid)] = grid
            if walk:
                break  # no step is bad: the pass's states and its state at k1 stand, if finite
            y = block[-1] if m else x  # the last state computed, then the state at k1
            if r := k1 - max(k0, k1 // s * s):  # steps from the last grid state, or k0, to k1
                y = _power(squares, r) @ y
            # a skipped state is S^i z, i < s, z = x or one since: |.| <= G sqrt(2) big
            if s == 1 or G * np.sqrt(2) * (big := np.max([*map(_peak, (x, table, y))])) <= limit:
                break  # else (NaN, inf included) walk the segment again
        if r and k1 == steps:
            kept[-1] = y
        x = y
    times = np.arange(0, count * stride, stride, dtype=float)  # then in place: no second buffer
    times[-1] = steps
    times *= dt
    return Trajectory(times, kept[:, :n])


def _product(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """A @ B: every product of two (n+1)-square matrices the sampler forms."""
    return A @ B


def _peak(z: np.ndarray) -> float:
    """The largest |Re| or |Im| of the entries of z, NaN if one is, read in place."""
    v = z.view(float)
    return np.maximum(v.max(initial=0.0), -v.min(initial=0.0))


def _power(squares: list, e: int) -> np.ndarray:
    """S^e, 1 <= e < 2^len(squares), from squares[b] = S^(2^b) by the
    products of `numpy.linalg.matrix_power`, so with its bits: the squares
    of the set bits of e from the least significant up, each multiplied on
    the right, and S^2 S for e = 3."""
    if e == 3:
        return _product(squares[1], squares[0])
    P = None
    for b in range(e.bit_length()):
        if e >> b & 1:
            P = squares[b] if P is None else _product(P, squares[b])
    return P


def shape_error(p: np.ndarray, shape: ReferenceShape) -> float | np.ndarray:
    """Relative distance ||Q2^H p|| / ||p|| of a configuration from the shape
    plane span{1, p*}, Q2 the columns of `ReferenceShape.plane` off it: a
    float for one configuration, an array for the rows of a 2-D array."""
    # rows times 2^-e, 2^(e-1) <= max |Re|, |Im| < 2^e: exact, and no norm under- or overflows
    v = np.array(p, dtype=complex).view(float)  # a copy, scaled in place
    p = np.ldexp(v, -np.frexp(np.abs(v).max(axis=-1, keepdims=True))[1], out=v).view(complex)
    norms = np.linalg.norm(p, axis=-1)
    if not norms.all():
        raise ZeroState("shape error undefined for the zero configuration")
    errs = np.linalg.norm(p @ shape.plane[0][:, 2:].conj(), axis=-1) / norms
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
