"""Reference shapes, complex weight synthesis and stabilizing gain design.

The reference shape is a centered complex vector p*; weights are chosen per
node so that the weighted sum of reference relative positions vanishes,
making span{1, p*} the kernel of the assembled Laplacian.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    "spectrum_rel": 1e-8,  # eigenvalue placement (verify, RK4 pre-flight), x rho
    "jordan_rel": 1e-10,  # translation chain residuals, x ||K L~|| ||p*||
    "jordan_rank_sv_rel": 1e-8,  # rank of K L~, x sigma_1
    "cond_limit": 1e8,  # condition number of an eigenbasis (absolute)
}
_WEIGHT_DRAWS = 20  # seeds tried before the rank check is given up
_GAIN_TRIES = 2000  # random-search steps in stabilize_gains


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
    """Subtract the center of mass from a raw configuration."""
    p = np.asarray(raw, dtype=complex)
    if p.ndim != 1 or p.size < 2:
        raise DegenerateShape("need at least 2 points")
    centered = p - p.mean()
    if np.abs(centered).max() == 0:
        raise DegenerateShape("all points coincide")
    return ReferenceShape(centered)


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


def nonkernel_eigenvalues(A: np.ndarray, kernel_dim: int = 2):
    """Eigenvalues sorted by magnitude with the kernel ones split off."""
    ev = np.linalg.eigvals(A)
    order = np.argsort(np.abs(ev))
    return ev[order[:kernel_dim]], ev[order[kernel_dim:]]


def stabilize_gains(L: np.ndarray, shape: ReferenceShape,
                    seed: int = 0) -> np.ndarray:
    """Find a complex diagonal gain vector k putting the non-kernel spectrum
    of KL in the right-half plane.

    Starts from K = I and applies seeded random multiplicative perturbations,
    keeping the candidate with the largest minimal real part, for up to
    _GAIN_TRIES steps. Moduli are clamped to [0.1, 10].
    """
    n = L.shape[0]
    rng = np.random.default_rng(seed)
    radius = float(np.abs(np.linalg.eigvals(L)).max())
    margin = TOLERANCES["gain_margin_rel"] * radius

    def score(k):
        _, rest = nonkernel_eigenvalues(np.diag(k) @ L)
        return float(rest.real.min())

    best_k = np.ones(n, dtype=complex)
    best = score(best_k)
    if best >= margin:
        return best_k
    for _ in range(_GAIN_TRIES):
        cand = best_k * np.exp(0.3 * (rng.standard_normal(n) + 1j * rng.standard_normal(n)))
        mag = np.abs(cand)
        cand = cand * np.clip(mag, 0.1, 10.0) / mag
        sc = score(cand)
        if sc > best:
            best, best_k = sc, cand
            if best >= margin:
                return best_k
    raise StabilizationFailed(
        f"no stabilizing gains within budget {_GAIN_TRIES} (best margin {best:.3e})")


@dataclass(frozen=True)
class LaplacianBundle:
    """Laplacian, its weights and the diagonal gains; `KL` is their product."""

    L: np.ndarray
    gains: np.ndarray
    weights: WeightSet

    @property
    def KL(self) -> np.ndarray:
        return np.diag(self.gains) @ self.L
