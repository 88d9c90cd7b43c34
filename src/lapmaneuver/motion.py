"""Motion parameter design: steady velocity fields, the combined motion
parameters mu~ = kappa_t mu_t + kappa_r mu_r + kappa_s mu_s, their matrix
M~, and the modified Laplacian.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .errors import SingularGain, ZeroEdgeVector
from .graphs import FormationGraph, incidence_matrix
from .shapes import TOLERANCES, ReferenceShape, WeightSet, build_laplacian

MuMap = dict[tuple[int, int], complex]


@dataclass(frozen=True)
class MotionSpec:
    """Desired steady-state motion and its mixing gains.

    v_star is the common translational velocity in the body frame, a the
    scaling rate (current size per second), omega the angular speed (rad/s).
    center_agent = None rotates/scales about the centroid; an agent index
    shifts the instantaneous center to that agent.
    """

    v_star: complex = 0j
    a: float = 0.0
    omega: float = 0.0
    kappa_t: float = 0.0
    kappa_r: float = 0.0
    kappa_s: float = 0.0
    kappa_tilde: float = 1.0
    center_agent: Optional[int] = None

    def __post_init__(self):
        if not np.isfinite([self.v_star, self.a, self.omega, self.kappa_t,
                            self.kappa_r, self.kappa_s, self.kappa_tilde]).all():
            raise ValueError("motion parameters must be finite")
        for name in ("kappa_t", "kappa_r", "kappa_s", "kappa_tilde"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")
        if self.v_star != 0 and self.center_agent is None and self.kappa_t <= 0:
            raise ValueError("v_star requested but kappa_t is zero")
        if self.omega != 0 and self.kappa_r <= 0:
            raise ValueError("omega requested but kappa_r is zero")
        if self.a != 0 and self.kappa_s <= 0:
            raise ValueError("a requested but kappa_s is zero")

    @property
    def is_translation_only(self) -> bool:
        return self.v_star != 0 and self.a == 0 and self.omega == 0


def velocity_field(spec: MotionSpec, shape: ReferenceShape) -> np.ndarray:
    """Stacked desired velocities, one complex number per agent.

    Centroid mode: v* 1 + a p* + i omega p*. Agent mode: (a + i omega)
    applied to positions relative to the designated agent, which becomes the
    instantaneous center of rotation/scaling.
    """
    p = shape.p_star
    if spec.center_agent is not None:
        rel = p - p[spec.center_agent - 1]
        return (spec.a + 1j * spec.omega) * rel
    ones = np.ones(shape.n, dtype=complex)
    return spec.v_star * ones + (spec.a + 1j * spec.omega) * p


def motion_parameters(g: FormationGraph, shape: ReferenceShape,
                      v_f: np.ndarray) -> MuMap:
    """One nonzero mu per agent: the desired velocity divided by the first
    usable reference edge vector (lowest-index neighbor, deterministic)."""
    mu: MuMap = {}
    for i in range(1, g.n + 1):
        vi = complex(v_f[i - 1])
        if vi == 0:
            continue
        for j in g.neighbors(i):
            z = shape.edge_vector(i, j)
            if z != 0:
                mu[(i, j)] = vi / z
                break
        else:
            raise ZeroEdgeVector(f"agent {i} has no neighbor with nonzero z*")
    return mu


def motion_matrix(g: FormationGraph, mu: MuMap) -> np.ndarray:
    """n x |Z| matrix M with (M B^T p)_i = sum_j mu_ij (p_i - p_j)."""
    M = np.zeros((g.n, g.m), dtype=complex)
    for k, (tail, head) in enumerate(g.oriented_edges):
        M[tail - 1, k] = mu.get((tail, head), 0j)
        M[head - 1, k] = -mu.get((head, tail), 0j)
    return M


@dataclass(frozen=True)
class MotionMatrices:
    """Combined motion parameters mu~, their matrix M~ = M(mu~), and the
    coefficients of the identity M~ B^T p* = uniform_coeff 1 + shape_coeff p*."""

    M_tilde: np.ndarray
    mu_tilde: MuMap
    uniform_coeff: complex
    shape_coeff: complex


def compile_motion(g: FormationGraph, shape: ReferenceShape,
                   spec: MotionSpec) -> MotionMatrices:
    """Split the velocity field into translation, rotation and scaling, take
    one mu per agent from each, and weight them by kappa_t, kappa_r, kappa_s."""
    parts = ((spec.kappa_t, replace(spec, a=0.0, omega=0.0)),
             (spec.kappa_r, replace(spec, v_star=0j, a=0.0)),
             (spec.kappa_s, replace(spec, v_star=0j, omega=0.0)))
    mu_tilde: MuMap = {}
    for gain, part in parts:
        mu = motion_parameters(g, shape, velocity_field(part, shape))
        for key, val in mu.items():
            mu_tilde[key] = mu_tilde.get(key, 0j) + gain * val
    shape_coeff = spec.kappa_s * spec.a + 1j * spec.kappa_r * spec.omega
    # a relative-to-agent field is the centroid field plus a uniform shift
    uniform = (spec.kappa_t * spec.v_star if spec.center_agent is None
               else -shape_coeff * shape.p_star[spec.center_agent - 1])
    return MotionMatrices(motion_matrix(g, mu_tilde), mu_tilde,
                          complex(uniform), complex(shape_coeff))


@dataclass(frozen=True)
class ModifiedLaplacian:
    """L~ = L - kappa~ K^-1 M~ B^T together with the modified weight map."""

    L_tilde: np.ndarray
    omega_tilde: dict[tuple[int, int], complex]


def modified_laplacian(g: FormationGraph, L: np.ndarray, gains: np.ndarray,
                       weights: WeightSet, motion: MotionMatrices,
                       spec: MotionSpec) -> ModifiedLaplacian:
    """Assemble L~ via the matrix formula and cross-check it entrywise
    against the modified weights w~_ij = w_ij - (kappa~/k_i) mu~_ij."""
    if np.any(gains == 0):
        raise SingularGain("gain matrix has a zero diagonal entry")
    B = incidence_matrix(g)
    L_tilde = L - (spec.kappa_tilde / gains)[:, None] * motion.M_tilde @ B.T

    omega_tilde = dict(weights.omega)
    for (i, j), mu in motion.mu_tilde.items():
        omega_tilde[(i, j)] = omega_tilde.get((i, j), 0j) \
            - spec.kappa_tilde / gains[i - 1] * mu
    L_check = build_laplacian(g, WeightSet(omega_tilde))
    scale = max(np.abs(L_tilde).max(), 1.0)
    if np.abs(L_tilde - L_check).max() > TOLERANCES["assembly_rel"] * scale:
        raise AssertionError("modified Laplacian assembly paths disagree")
    return ModifiedLaplacian(L_tilde, omega_tilde)
