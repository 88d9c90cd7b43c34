"""Motion parameter design: the combined motion parameters
mu~ = kappa_t mu_t + kappa_r mu_r + kappa_s mu_s (an n x n array on the
graph's edges, like the weights), taken from the one steady field c 1 + s p*,
and the modified Laplacian.

(M~ B^T p)_i = sum_j mu~_ij (p_i - p_j), so the paper's M~ B^T is the
Laplacian of mu~, and L~ = L - kappa~ K^-1 M~ B^T is the Laplacian of the
modified weights w - kappa~ K^-1 mu~. The compiled motion alone decides the
steady-state case (`MotionMatrices.case`) from M~ B^T p* = c 1 + s p*:
"moving" (rotation/scaling) if s != 0, "translation" if s = 0 and c != 0,
"static" if s = c = 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import SingularGain, ZeroEdgeVector
from .graphs import FormationGraph
from .shapes import ReferenceShape, laplacian


@dataclass(frozen=True)
class MotionSpec:
    """Desired steady-state motion and its mixing gains.

    v_star is the common translational velocity in the body frame, a the
    scaling rate (current size per second), omega the angular speed (rad/s).
    center_agent = None rotates/scales about the centroid; an agent index
    shifts the instantaneous center to that agent, which excludes v_star.
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
        if self.center_agent is not None and self.center_agent < 1:
            raise ValueError("center_agent counts agents from 1")
        if self.v_star != 0 and self.center_agent is not None:
            raise ValueError("v_star cannot be combined with a center agent")
        if self.v_star != 0 and self.kappa_t <= 0:
            raise ValueError("v_star requested but kappa_t is zero")
        if self.omega != 0 and self.kappa_r <= 0:
            raise ValueError("omega requested but kappa_r is zero")
        if self.a != 0 and self.kappa_s <= 0:
            raise ValueError("a requested but kappa_s is zero")


def motion_parameters(g: FormationGraph, shape: ReferenceShape,
                      v_f: np.ndarray) -> np.ndarray:
    """One nonzero mu per agent: the desired velocity divided by the first
    usable reference edge vector (lowest-index neighbor, deterministic)."""
    mu = np.zeros((g.n, g.n), dtype=complex)
    for i in range(1, g.n + 1):
        vi = complex(v_f[i - 1])
        if vi == 0:
            continue
        for j in g.neighbors(i):
            z = shape.edge_vector(i, j)
            if z != 0:
                mu[i - 1, j - 1] = vi / z
                break
        else:
            raise ZeroEdgeVector(f"agent {i} has no neighbor with nonzero z*")
    return mu


@dataclass(frozen=True)
class MotionMatrices:
    """Combined motion parameters mu~ and the coefficients of the identity
    M~ B^T p* = uniform_coeff 1 + shape_coeff p*."""

    mu_tilde: np.ndarray
    uniform_coeff: complex
    shape_coeff: complex

    @cached_property
    def MBt(self) -> np.ndarray:
        """The paper's M~ B^T, which is the Laplacian of mu~, assembled once."""
        return laplacian(self.mu_tilde)

    @property
    def case(self) -> str:
        """The steady-state case, decided here only: "moving" (a zero
        eigenvalue relocated), "translation" (a Jordan chain) or "static"."""
        if self.shape_coeff != 0:
            return "moving"
        return "translation" if self.uniform_coeff != 0 else "static"


def compile_motion(g: FormationGraph, shape: ReferenceShape,
                   spec: MotionSpec) -> MotionMatrices:
    """Compile the spec to M~ B^T p* = c 1 + s p*, with s = kappa_s a +
    i kappa_r omega and c = kappa_t v* (about a center agent, c = -s p*_agent,
    which holds that agent still), and take one mu per agent from the field
    c 1 + s p*. `motion_parameters` picks each row's edge from the shape
    alone, so it is linear in the field and mu~ is the paper's
    kappa_t mu_t + kappa_r mu_r + kappa_s mu_s."""
    if spec.center_agent is not None and spec.center_agent > g.n:
        raise ValueError(f"center_agent {spec.center_agent} out of range for {g.n} agents")
    s = complex(spec.kappa_s * spec.a + 1j * spec.kappa_r * spec.omega)
    shape_part = s * shape.p_star
    c = complex(spec.kappa_t * spec.v_star if spec.center_agent is None
                else -shape_part[spec.center_agent - 1])
    return MotionMatrices(motion_parameters(g, shape, c + shape_part), c, s)


@dataclass(frozen=True)
class ModifiedLaplacian:
    """Modified weights w~_ij = w_ij - (kappa~/k_i) mu~_ij and L~, their Laplacian."""

    weights: np.ndarray
    L_tilde: np.ndarray


def modified_laplacian(weights: np.ndarray, gains: np.ndarray, motion: MotionMatrices,
                       spec: MotionSpec) -> ModifiedLaplacian:
    """W~ = W - (kappa~/k)[:, None] mu~, formed once, and L~ = laplacian(W~)."""
    if np.any(gains == 0):
        raise SingularGain("gain matrix has a zero diagonal entry")
    W = weights - (spec.kappa_tilde / gains)[:, None] * motion.mu_tilde
    return ModifiedLaplacian(W, laplacian(W))
