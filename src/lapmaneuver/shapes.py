"""Reference shapes, complex weight synthesis and stabilizing gain design.

The reference shape is a centered complex vector p*; weights are chosen per
node so that the weighted sum of reference relative positions vanishes,
making span{1, p*} the kernel of the assembled Laplacian.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DegenerateShape, DegenerateWeights, InfeasibleRow, StabilizationFailed
from .graphs import FormationGraph

# Every threshold that decides pass/fail, read at its use site and written
# to report.json as is. Each is relative to the scale named beside it.
TOLERANCES = {
    "kernel_sv_rel": 1e-10,  # rank check: sigma_{n-1} below, x sigma_1
    "rank_gap_sv_rel": 1e-6,  # rank check: sigma_{n-2} above, x sigma_1
    "center_rel": 1e-12,  # |sum p*|, x n max|p*|
    "gain_margin_rel": 1e-6,  # min Re of the non-kernel spectrum of KL, x rho(L)
    "assembly_rel": 1e-12,  # L~ by matrix formula vs by modified weights
    "spectrum_rel": 1e-8,  # eigenvalue placement (verify, RK4 pre-flight), bound's clusters, x rho
    "jordan_rel": 1e-10,  # translation chain residuals, x ||K L~|| ||p*||
    "jordan_rank_sv_rel": 1e-8,  # rank of K L~, x sigma_1
    "cond_limit": 1e8,  # condition number of an eigenbasis (absolute)
}
_WEIGHT_DRAWS = 20  # seeds tried before the rank check is given up
_GAIN_STEPS = 500  # ascent steps in stabilize_gains, one eig of KL each


@dataclass(frozen=True)
class ReferenceShape:
    """Centered complex position vector; Re = x, Im = y."""

    p_star: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.p_star, dtype=complex)
        object.__setattr__(self, "p_star", p)
        if p.ndim != 1 or p.size < 2:
            raise DegenerateShape("reference shape needs at least 2 points")
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


def center_shape(raw) -> ReferenceShape:
    """Subtract the center of mass from a raw configuration; ReferenceShape
    refuses fewer than 2 points and coincident ones."""
    p = np.asarray(raw, dtype=complex)
    return ReferenceShape(p - (p.mean() if p.size else 0))


@dataclass(frozen=True)
class WeightSet:
    """Complex weight per ordered neighbor pair; omega[(i, j)] for j in N_i."""

    omega: dict[tuple[int, int], complex]

    def __getitem__(self, key: tuple[int, int]) -> complex:
        return self.omega[key]


def synthesize_weights(g: FormationGraph, shape: ReferenceShape,
                       seed: int) -> WeightSet:
    """Choose weights so each row of L annihilates both 1 and p*.

    Two-neighbor rows use the closed form (w_ij, w_ik) = (z*_ik, -z*_ij);
    larger rows draw a seeded random element of the row null space. The
    global rank n-2 condition is verified afterwards and the random rows are
    re-drawn from the next seed on failure, up to _WEIGHT_DRAWS seeds.
    """
    if shape.n != g.n:
        raise ValueError("shape size does not match graph")
    for attempt in range(_WEIGHT_DRAWS):
        w = WeightSet(_draw_weights(g, shape, np.random.default_rng(seed + attempt)))
        if kernel_rank_ok(build_laplacian(g, w)):
            return w
    raise DegenerateWeights(
        f"Laplacian rank check failed after {_WEIGHT_DRAWS} seeds")


def _draw_weights(g: FormationGraph, shape: ReferenceShape, rng) -> dict:
    omega: dict[tuple[int, int], complex] = {}
    for i in range(1, g.n + 1):
        nbrs = g.neighbors(i)
        if len(nbrs) < 2:
            raise InfeasibleRow(f"node {i} has degree {len(nbrs)} < 2")
        z = np.array([shape.edge_vector(i, j) for j in nbrs])
        if np.any(z == 0):
            raise InfeasibleRow(f"node {i} has a coincident neighbor position")
        if len(nbrs) == 2:
            omega[(i, nbrs[0])] = complex(z[1])
            omega[(i, nbrs[1])] = complex(-z[0])
            continue
        # null space of the 1 x m row [z*_ij1 ... z*_ijm]
        _, _, vh = np.linalg.svd(z.reshape(1, -1))
        basis = vh[1:].conj().T
        for _ in range(100):
            coeff = rng.standard_normal(basis.shape[1]) + 1j * rng.standard_normal(basis.shape[1])
            row = basis @ coeff
            if np.abs(row).max() > 1e-6:
                break
        row = row / np.abs(row).max()
        for k, j in enumerate(nbrs):
            omega[(i, j)] = complex(row[k])
    return omega


def build_laplacian(g: FormationGraph, w: WeightSet) -> np.ndarray:
    """Assemble L with l_ii = sum of row weights and l_ij = -w_ij."""
    L = np.zeros((g.n, g.n), dtype=complex)
    for (i, j), val in w.omega.items():
        L[i - 1, j - 1] = -val
        L[i - 1, i - 1] += val
    return L


def kernel_rank_ok(L: np.ndarray) -> bool:
    """Rank n-2: a two-dimensional null space separated by a singular-value gap."""
    s = np.linalg.svd(L, compute_uv=False)
    return bool(s[-2] < TOLERANCES["kernel_sv_rel"] * s[0]
                and s[-3] > TOLERANCES["rank_gap_sv_rel"] * s[0])


@dataclass(frozen=True)
class Eigensystem:
    """A matrix with the eigenvalues and right eigenvectors of one `eig` call."""

    matrix: np.ndarray
    values: np.ndarray
    vectors: np.ndarray


def eigensystem(A: np.ndarray) -> Eigensystem:
    return Eigensystem(A, *np.linalg.eig(A))


def split_spectrum(ev: np.ndarray, target: Optional[complex] = None) -> np.ndarray:
    """Eigenvalue indices of KL or K L~, the pair spanning the shape plane
    first: without a target the two smallest |lambda|, all in ascending
    |lambda|; with one, the eigenvalue nearest it (moving) and the smallest
    remaining |lambda| (kernel), the rest in eig's order."""
    if target is None:
        return np.argsort(np.abs(ev))
    im = int(np.argmin(np.abs(ev - target)))
    rest = np.delete(np.arange(ev.size), im)
    k = int(np.argmin(np.abs(ev[rest])))
    return np.concatenate([[im, rest[k]], np.delete(rest, k)])


def stabilize_gains(L: np.ndarray) -> tuple[np.ndarray, Eigensystem]:
    """Complex diagonal gains k with min Re of the non-kernel spectrum of KL
    at least gain_margin_rel * rho(L), and the eig of that KL; deterministic.

    K = I when it passes. Otherwise start from k_i = 1/l_ii (1 where l_ii = 0),
    a unit diagonal of KL, and ascend the soft-min of Re lambda_j / rho(KL)
    over the non-kernel spectrum in log-gains, mean real part removed (a
    uniform scaling leaves the objective alone). The gradient is
    lambda_j (V^-1)_ji V_ij from the same eig (Burke, Lewis & Overton, Linear
    Algebra Appl. 351-352, 2002). A step that does not raise the soft-min is halved; below
    1e-2 it has stalled, and the temperature is quartered. The first iterate
    that passes is returned with the eig of its KL = gains[:, None] * L, the
    record stability_bound reads; else StabilizationFailed after _GAIN_STEPS.
    """
    k, d, t, tau = np.ones(L.shape[0], dtype=complex), None, 1.0, 0.1
    soft_min = lambda x: x.min() - tau * np.log(np.exp((x.min() - x) / tau).sum())
    for step in range(_GAIN_STEPS + 2):
        trial = k if d is None else k * np.exp(t * d)
        ev, V = np.linalg.eig(KL := trial[:, None] * L)
        rest = split_spectrum(ev)[2:]
        lam, rho = ev[rest], np.abs(ev).max()
        if step == 0:
            margin = TOLERANCES["gain_margin_rel"] * rho
        if lam.real.min() >= margin:
            return trial, Eigensystem(KL, ev, V)
        if step == 0:
            k = 1 / np.where(np.diag(L) == 0, 1, np.diag(L))
            continue
        if d is None or soft_min(lam.real / rho) > soft_min(x):
            k, x, t = trial, lam.real / rho, min(1.0, 2 * t)
            grad = (lam[:, None] * np.linalg.inv(V)[rest] * V.T[rest]).conj()
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
    weights: WeightSet

    @property
    def KL(self) -> np.ndarray:
        return self.gains[:, None] * self.L
