"""Reference shapes, complex weight synthesis and stabilizing gain design.

The reference shape is a centered complex vector p*; weights are chosen per
node so that the weighted sum of reference relative positions vanishes,
making span{1, p*} the kernel of the assembled Laplacian. Weights, like the
motion parameters, are an n x n complex array W, zero off the graph's edges
(w_ij at W[i-1, j-1]); `laplacian` is the one assembly of a Laplacian.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DegenerateShape, DegenerateWeights, InfeasibleRow, StabilizationFailed
from .graphs import FormationGraph

# Every threshold that decides pass/fail, read at its use site and written
# to report.json as is. Each is relative to the scale named beside it.
TOLERANCES = {
    "kernel_sv_rel": 1e-10,  # rank check: sigma_{n-1} of L below, x sigma_1
    "rank_gap_sv_rel": 1e-6,  # rank check: sigma_{n-2} of L above, x sigma_1
    "center_rel": 1e-12,  # |sum p*|, x n max|p*|
    "gain_margin_rel": 1e-6,  # min Re of the non-kernel spectrum of KL, x rho(KL)
    "spectrum_rel": 1e-8,  # verify's residuals, x ||K L~||_F; RK4 pre-flight, clusters, x rho
    "cond_limit": 1e8,  # cond of the bound's eigenbasis Q2^H W (absolute)
}
_GAIN_STEPS = 500  # ascent steps in stabilize_gains, one eig of B22(KL) each
_TRACE_REL = 1e-6  # Re tr L below -this x ||L||_F skips the K = I trial (far above rounding)


@dataclass(frozen=True)
class ReferenceShape:
    """Centered complex position vector; Re = x, Im = y."""

    p_star: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.p_star, dtype=complex)
        object.__setattr__(self, "p_star", p)
        if p.ndim != 1 or p.size < 2:
            raise DegenerateShape("reference shape needs at least 2 points")
        if not np.isfinite(p).all():
            raise DegenerateShape("reference shape must be finite")
        scale = np.abs(p).max()
        if scale == 0:
            raise DegenerateShape("reference shape has zero extent")
        if abs(p.sum()) > TOLERANCES["center_rel"] * p.size * scale:
            raise DegenerateShape("reference shape is not centered")

    @property
    def n(self) -> int:
        return self.p_star.size

    def edge_vector(self, i: int, j: int) -> complex:
        """Reference relative position z*_ij = p*_i - p*_j (1-based)."""
        return complex(self.p_star[i - 1] - self.p_star[j - 1])

    def radius(self) -> float:
        return float(np.abs(self.p_star).max())

    @cached_property
    def plane(self) -> tuple[np.ndarray, np.ndarray]:
        """Complete QR of [1, p*], taken once per shape: a unitary Q whose
        first two columns span the shape plane S = span{1, p*}, and the
        2 x 2 R of [1, p*] = Q[:, :2] R."""
        V = np.column_stack([np.ones(self.n, dtype=complex), self.p_star])
        Q, R = np.linalg.qr(V, mode="complete")
        return Q, R[:2]


def center_shape(raw) -> ReferenceShape:
    """Subtract the center of mass from a raw configuration; ReferenceShape
    refuses fewer than 2 points and coincident ones."""
    p = np.asarray(raw, dtype=complex)
    return ReferenceShape(p - (p.mean() if p.size else 0))


def synthesize_weights(g: FormationGraph, shape: ReferenceShape,
                       seed: int) -> np.ndarray:
    """Choose weights so each row of L annihilates both 1 and p*.

    Two-neighbor rows use the closed form (w_ij, w_ik) = (z*_ik, -z*_ij),
    larger rows a random element of the row null space from default_rng(seed);
    every row is then scaled to unit max, free of the shape's unit. The global
    rank n-2 condition is verified afterwards, once: DegenerateWeights if not.
    """
    if shape.n != g.n:
        raise ValueError("shape size does not match graph")
    W = _draw_weights(g, shape, np.random.default_rng(seed))
    if not kernel_rank_ok(laplacian(W)):
        raise DegenerateWeights(f"Laplacian rank check failed with design seed {seed}")
    return W


def _draw_weights(g: FormationGraph, shape: ReferenceShape, rng) -> np.ndarray:
    """Rows by degree: one stacked SVD per degree gives the null spaces of the
    1 x m rows [z*_ij1 ... z*_ijm]; coefficients drawn in node order, rows at unit max."""
    nbrs = [g.neighbors(i) for i in range(1, g.n + 1)]
    deg = np.array([len(a) for a in nbrs])
    first, owner = np.cumsum(deg) - deg, np.repeat(np.arange(g.n), deg)
    cols = np.fromiter((j - 1 for a in nbrs for j in a), dtype=np.intp, count=owner.size)
    z = shape.p_star[owner] - shape.p_star[cols]
    bad = deg < 2
    bad[owner[z == 0]] = True
    if bad.any():
        i = int(np.argmax(bad))
        raise InfeasibleRow(f"node {i + 1} has degree {deg[i]} < 2" if deg[i] < 2 else
                            f"node {i + 1} has a coincident neighbor position")
    draws = np.where(deg > 2, 2 * (deg - 1), 0)  # a row's real parts, then its imaginary
    x, start = rng.standard_normal(draws.sum()), np.cumsum(draws) - draws
    W = np.zeros((g.n, g.n), dtype=complex)
    for m in sorted(set(deg.tolist())):
        rows = np.flatnonzero(deg == m)
        edges = first[rows, None] + np.arange(m)
        Z = z[edges]
        if m == 2:  # closed form (w_ij, w_ik) = (z*_ik, -z*_ij)
            row = np.column_stack([Z[:, 1], -Z[:, 0]])
        else:
            basis = np.linalg.svd(Z[:, None, :])[2][:, 1:].conj().transpose(0, 2, 1)
            at = start[rows, None] + np.arange(m - 1)
            row = (basis @ (x[at] + 1j * x[at + m - 1])[..., None])[..., 0]
        W[rows[:, None], cols[edges]] = row / np.abs(row).max(axis=1, keepdims=True)
    return W


def laplacian(W: np.ndarray) -> np.ndarray:
    """diag(W 1) - W for edge weights W (zero diagonal): l_ij = -w_ij and
    l_ii the row sum, taken left to right (a sequential sum, unlike the
    pairwise W.sum(1), so the bits do not depend on numpy's blocking)."""
    return np.diag(np.cumsum(W, axis=1)[:, -1]) - W


def kernel_rank_ok(L: np.ndarray) -> bool:
    """Rank n-2 of L, whose weight rows are at unit max: a two-dimensional
    null space separated by a singular-value gap."""
    s = np.linalg.svd(L, compute_uv=False)
    return bool(s[-2] < TOLERANCES["kernel_sv_rel"] * s[0]
                and s[-3] > TOLERANCES["rank_gap_sv_rel"] * s[0])


def nonkernel_eigenvalues(KL: np.ndarray, shape: ReferenceShape) -> tuple[np.ndarray, np.ndarray]:
    """The n - 2 eigenvalues lambda of KL off its kernel S = span{1, p*}, and
    unit eigenvectors Z in the basis Q of `ReferenceShape.plane`: KL Q1 = 0, so
    Q^H KL Q = [[0, B12], [0, B22]], and eig B22 Y = Y diag(lambda) gives
    KL (Q Z) = (Q Z) diag(lambda) for Z = [B12 Y / lambda; Y]."""
    Q = shape.plane[0]
    B = Q.conj().T @ KL @ Q[:, 2:]
    lam, Y = np.linalg.eig(B[2:])
    Z = np.vstack([B[:2] @ Y / lam, Y])
    return lam, Z / np.linalg.norm(Z, axis=0)


def stabilize_gains(L: np.ndarray, shape: ReferenceShape) -> tuple[np.ndarray, tuple]:
    """Complex diagonal gains k with min Re of the non-kernel spectrum of KL
    at least gain_margin_rel * rho(KL), and the `nonkernel_eigenvalues` pair
    (lambda, Z) of that KL, which stability_bound reads; deterministic.
    Both sides come from the trial's own eigenvalues, so a scaling of KL, such
    as a larger reference shape makes, leaves a trial's verdict alone.

    K = I is tried first, with one eig of B22(L), unless Re tr L < -_TRACE_REL
    ||L||_F rules it out: the kernel pair adds nothing to tr L, so the
    non-kernel eigenvalues sum to it and one has Re < 0. Otherwise start
    from k_i = 1/l_ii (1 where l_ii = 0), a unit diagonal of KL, and ascend
    the soft-min of Re lambda_j / rho(KL) over the non-kernel spectrum in
    log-gains, mean real part removed (a uniform scaling leaves the objective
    alone). The gradient is lambda_j (Z2^-1 Q2^H)_ji (Q Z)_ij, Z2 = Z[2:], with
    Z2^-1 Q2^H the left eigenvectors off the kernel (Burke, Lewis & Overton,
    Linear Algebra Appl. 351-352, 2002). A step that does not raise the
    soft-min is halved; below 1e-2 it has stalled, and the temperature is
    quartered. The first iterate that passes is returned with its pair; else
    StabilizationFailed after _GAIN_STEPS.
    """
    rel, (Q, _) = TOLERANCES["gain_margin_rel"], shape.plane
    k, d, t, tau = np.ones(L.shape[0], dtype=complex), None, 1.0, 0.1
    if not np.trace(L).real < -_TRACE_REL * np.linalg.norm(L):
        lam, Z = nonkernel_eigenvalues(L, shape)  # K = I
        if lam.real.min() >= rel * np.abs(lam).max():
            return k, (lam, Z)
    k = 1 / np.where(np.diag(L) == 0, 1, np.diag(L))
    soft_min = lambda x: x.min() - tau * np.log(np.exp((x.min() - x) / tau).sum())
    for _ in range(_GAIN_STEPS + 1):
        trial = k if d is None else k * np.exp(t * d)
        lam, Z = nonkernel_eigenvalues(trial[:, None] * L, shape)
        rho = np.abs(lam).max()
        if lam.real.min() >= rel * rho:
            return trial, (lam, Z)
        if d is None or soft_min(lam.real / rho) > soft_min(x):
            k, x, t = trial, lam.real / rho, min(1.0, 2 * t)
            grad = (lam[:, None] * np.linalg.solve(Z[2:], Q[:, 2:].conj().T) * (Q @ Z).T).conj()
        else:
            t /= 2
            if t < 1e-2:
                tau, t = tau / 4, 1.0
        d = np.exp((x.min() - x) / tau) @ grad
        d -= d.real.mean()
        d /= np.abs(d).max()
    raise StabilizationFailed(f"no stabilizing gains within {_GAIN_STEPS} ascent steps "
                              f"(best min Re lambda / rho(KL) {x.min():.3e})")


@dataclass(frozen=True)
class LaplacianBundle:
    """Laplacian, its weights and the diagonal gains; `KL` is gains[:, None] * L."""

    L: np.ndarray
    gains: np.ndarray
    weights: np.ndarray

    @property
    def KL(self) -> np.ndarray:
        return self.gains[:, None] * self.L
