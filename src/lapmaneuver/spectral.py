"""Eigenstructure verification, Lyapunov speed bound and the design pipeline.

The modified Laplacian relocates one zero eigenvalue of KL to
-kappa~ (kappa_s a + i kappa_r omega) while keeping the shape eigenvector;
pure translations instead collapse the zero eigenvalue to a single Jordan
chain. Everything here checks those facts numerically and bounds the global
speed gain that preserves stability of the remaining spectrum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (ChainBroken, ExpansionIllConditioned, NonDiagonalizable,
                     PipelineFailed, SpectrumMismatch)
from .graphs import FormationGraph, incidence_matrix
from .motion import (ModifiedLaplacian, MotionMatrices, MotionSpec,
                     compile_motion, modified_laplacian)
from .shapes import (LaplacianBundle, ReferenceShape, build_laplacian,
                     stabilize_gains, synthesize_weights)

SPECTRUM_REL = 1e-8  # eigenvalue placement, relative to the spectral radius


def _sin_angle(v: np.ndarray, u: np.ndarray) -> float:
    """Sine of the subspace angle between the lines spanned by v and u."""
    v = v / np.linalg.norm(v)
    u = u / np.linalg.norm(u)
    return float(np.linalg.norm(v - np.vdot(u, v) * u))


@dataclass(frozen=True)
class SpectralReport:
    """Moving-mode eigenstructure of K L~ (rotation/scaling case)."""

    eigenvalues: np.ndarray
    moving_eigenvalue: complex
    moving_target: complex
    moving_residual: float
    moving_vector_angle: float
    kernel_vector_angle: float
    others_min_real: float
    others_stable: bool
    algebraic_residual: float


def verify_motion_spectrum(KL_tilde: np.ndarray, motion: MotionMatrices,
                           spec: MotionSpec, shape: ReferenceShape,
                           tol: float = SPECTRUM_REL) -> SpectralReport:
    """Check that K L~ has the relocated eigenvalue, the preserved shape
    eigenvector, the kernel vector 1, and a right-half-plane remainder.

    Also evaluates the algebraic identity K L~ u = -kappa~ s u with
    u = (uniform/s) 1 + p* independently of the eigensolver.
    """
    s_coeff = motion.shape_coeff
    if s_coeff == 0:
        raise ValueError("rotation/scaling case requires a != 0 or omega != 0")
    target = -spec.kappa_tilde * s_coeff
    n = KL_tilde.shape[0]
    ones = np.ones(n, dtype=complex)
    u = (motion.uniform_coeff / s_coeff) * ones + shape.p_star

    ev, V = np.linalg.eig(KL_tilde)
    radius = float(np.abs(ev).max())
    im = int(np.argmin(np.abs(ev - target)))
    moving_residual = float(abs(ev[im] - target))
    rest = np.delete(np.arange(n), im)
    iz = rest[int(np.argmin(np.abs(ev[rest])))]
    kernel_residual = float(abs(ev[iz]))
    others = np.delete(np.arange(n), [im, iz])

    alg = float(np.linalg.norm(KL_tilde @ u - target * u)
                / (np.linalg.norm(KL_tilde, 2) * np.linalg.norm(u)))
    report = SpectralReport(
        eigenvalues=ev,
        moving_eigenvalue=complex(ev[im]),
        moving_target=complex(target),
        moving_residual=moving_residual,
        moving_vector_angle=_sin_angle(V[:, im], u),
        kernel_vector_angle=_sin_angle(V[:, iz], ones),
        others_min_real=float(ev[others].real.min()) if others.size else math.inf,
        others_stable=bool(np.all(ev[others].real > 0)) if others.size else True,
        algebraic_residual=alg,
    )
    if moving_residual > tol * radius or kernel_residual > tol * radius \
            or not report.others_stable:
        raise SpectrumMismatch(
            f"eigenstructure off prediction: moving residual {moving_residual:.2e}, "
            f"kernel residual {kernel_residual:.2e}, "
            f"min Re(others) {report.others_min_real:.2e}")
    return report


@dataclass(frozen=True)
class JordanReport:
    """Generalized-chain residuals for the pure-translation case."""

    chain_residual: float
    kernel_residual: float
    squared_residual: float
    rank: int
    geometric_multiplicity_ok: bool


def verify_translation_jordan(KL_tilde: np.ndarray, spec: MotionSpec,
                              shape: ReferenceShape,
                              tol: float = 1e-10) -> JordanReport:
    """Check K L~ p* = -kappa~ kappa_t v* 1, K L~ 1 = 0 and rank n-1."""
    if spec.omega != 0 or spec.a != 0 or spec.v_star == 0:
        raise ValueError("translation case requires omega = a = 0, v* != 0")
    n = KL_tilde.shape[0]
    ones = np.ones(n, dtype=complex)
    drift = spec.kappa_tilde * spec.kappa_t * spec.v_star
    scale = np.linalg.norm(KL_tilde, 2) * np.linalg.norm(shape.p_star)
    r_chain = float(np.linalg.norm(KL_tilde @ shape.p_star + drift * ones))
    r_kernel = float(np.linalg.norm(KL_tilde @ ones))
    r_sq = float(np.linalg.norm(KL_tilde @ (KL_tilde @ shape.p_star)))
    s = np.linalg.svd(KL_tilde, compute_uv=False)
    rank = int(np.sum(s > 1e-8 * s[0]))
    report = JordanReport(r_chain, r_kernel, r_sq, rank, rank == n - 1)
    if r_chain > tol * scale or r_kernel > tol * scale:
        raise ChainBroken(
            f"chain residual {r_chain:.2e}, kernel residual {r_kernel:.2e} "
            f"exceed {tol:.0e} * {scale:.2e}")
    return report


@dataclass(frozen=True)
class StabilityAnalysis:
    """Similarity transform, Lyapunov certificate and the speed gain bound."""

    T: np.ndarray
    J2: np.ndarray
    Q: np.ndarray
    kappa_tilde_max: float
    lyapunov_residual: float


def stability_bound(KL: np.ndarray, M_tilde: np.ndarray, B: np.ndarray,
                    shape: ReferenceShape,
                    cond_limit: float = 1e8) -> StabilityAnalysis:
    """Sufficient upper bound on kappa~ keeping the non-kernel spectrum of
    K L~ in the right-half plane.

    T has columns [1, p*, non-kernel eigenvectors of KL], so T^-1 (KL) T is
    block diagonal with a zero 2x2 leading block and a diagonal J2. With
    Q = diag(1/Re(lambda)) the Lyapunov identity Q J2 + J2^H Q = 2 I holds
    exactly and the bound is 1 / ||Q (T^-1 M~ B^T T)_(trailing block)||_2.
    """
    n = KL.shape[0]
    ev, V = np.linalg.eig(KL)
    order = np.argsort(np.abs(ev))
    nonkernel = order[2:]
    T = np.column_stack([np.ones(n, dtype=complex), shape.p_star,
                         V[:, nonkernel]])
    cond = np.linalg.cond(T)
    if cond > cond_limit:
        raise NonDiagonalizable(
            f"eigenvector basis condition number {cond:.2e} exceeds "
            f"{cond_limit:.0e}; consider a gain boost")
    J2 = ev[nonkernel]
    if np.any(J2.real <= 0):
        raise ValueError("non-kernel spectrum of KL is not in the right-half plane")
    Q = 1.0 / J2.real

    pert = np.linalg.solve(T, M_tilde @ B.T @ T)[2:, 2:]
    norm = np.linalg.norm(np.diag(Q) @ pert, 2)
    bound = math.inf if norm == 0 else 1.0 / norm
    # QJ2 + J2^H Q - 2I is exactly zero for diagonal J2 and Q = 1/Re(J2)
    lyap = float(np.abs(Q * J2 + np.conj(J2) * Q - 2.0).max())
    return StabilityAnalysis(T, J2, Q, bound, lyap)


def gain_boost(gains: np.ndarray, h: float) -> np.ndarray:
    """Scale all gains by h > 0; the speed bound scales by the same factor."""
    return gains * h


@dataclass(frozen=True)
class SteadyStatePrediction:
    """Closed-form asymptotic trajectory from expanding p(0)."""

    c1: complex
    c2: complex
    case: str  # "moving" | "translation" | "static"
    basis_uniform: np.ndarray
    basis_shape: np.ndarray
    rate: complex  # exponent of the moving mode (0 for translation/static)
    drift: complex  # per-unit-time uniform velocity (translation case)

    def evaluate(self, t) -> np.ndarray:
        """Asymptotic configuration at time(s) t, decaying terms dropped."""
        t = np.asarray(t, dtype=float)
        ones = self.basis_uniform
        if self.case == "moving":
            shape_part = np.multiply.outer(np.exp(self.rate * t),
                                           self.c2 * self.basis_shape)
            return np.squeeze(self.c1 * ones + shape_part)
        # translation: linear drift along 1; static: drift = 0
        beta = -self.c2 if self.case == "translation" else self.c2
        drift_part = np.multiply.outer(t, self.drift * ones)
        return np.squeeze(self.c1 * ones + beta * self.basis_shape + drift_part)

    @property
    def steady_velocity(self) -> complex:
        """Uniform asymptotic agent velocity (translation case, else the
        velocity is not uniform and this is zero for static designs)."""
        return self.drift


def predict_steady_state(p0: np.ndarray, KL_tilde: np.ndarray,
                         spec: MotionSpec, motion: MotionMatrices,
                         shape: ReferenceShape,
                         cond_limit: float = 1e8) -> SteadyStatePrediction:
    """Expand p(0) in the (generalized) eigenbasis of -K L~ and return the
    non-decaying part of the solution."""
    n = KL_tilde.shape[0]
    A = -KL_tilde
    ones = np.ones(n, dtype=complex)
    ev, V = np.linalg.eig(A)
    s_coeff = motion.shape_coeff

    if s_coeff != 0:
        rate = spec.kappa_tilde * s_coeff
        u = (motion.uniform_coeff / s_coeff) * ones + shape.p_star
        im = int(np.argmin(np.abs(ev - rate)))
        rest = np.delete(np.arange(n), im)
        iz = rest[int(np.argmin(np.abs(ev[rest])))]
        others = np.delete(np.arange(n), [im, iz])
        W = np.column_stack([ones, u, V[:, others]])
        case, basis_shape, drift = "moving", u, 0j
    else:
        # kernel (possibly defective) handled analytically with {1, p*}
        order = np.argsort(np.abs(ev))
        W = np.column_stack([ones, shape.p_star, V[:, order[2:]]])
        rate = 0j
        basis_shape = shape.p_star
        case = "translation" if spec.v_star != 0 else "static"
    if np.linalg.cond(W) > cond_limit:
        raise ExpansionIllConditioned(
            f"eigenbasis condition number {np.linalg.cond(W):.2e}")
    coeff = np.linalg.solve(W, np.asarray(p0, dtype=complex))
    c1 = complex(coeff[0])
    if case == "moving":
        c2 = complex(coeff[1])
        drift = 0j
    elif case == "translation":
        # sign convention of the published solution: velocity = -c2 kappa~ kappa_t v*
        c2 = -complex(coeff[1])
        drift = complex(coeff[1]) * spec.kappa_tilde * spec.kappa_t * spec.v_star
    else:
        c2 = complex(coeff[1])
        drift = 0j
    return SteadyStatePrediction(c1, c2, case, ones, basis_shape, rate, drift)


@dataclass(frozen=True)
class DesignResult:
    """Everything the end-to-end design produces."""

    graph: FormationGraph
    shape: ReferenceShape
    spec: MotionSpec
    bundle: LaplacianBundle
    motion: MotionMatrices
    modified: ModifiedLaplacian
    stability: StabilityAnalysis
    spectral: Optional[SpectralReport]
    jordan: Optional[JordanReport]
    boost: float

    @property
    def KL_tilde(self) -> np.ndarray:
        return np.diag(self.bundle.gains) @ self.modified.L_tilde


def design_pipeline(g: FormationGraph, shape: ReferenceShape, spec: MotionSpec,
                    seed: int = 0, gain_budget: int = 2000,
                    weight_retries: int = 20,
                    max_boosts: int = 60) -> DesignResult:
    """Steps: synthesize weights and gains, build the motion matrices, bound
    the speed gain (doubling the gain boost h until the requested kappa~ is
    admitted), assemble L~ and verify the predicted eigenstructure."""
    stage = "weights"
    try:
        weights = synthesize_weights(g, shape, seed, max_retries=weight_retries)
        L = build_laplacian(g, weights)
        stage = "gains"
        gains = stabilize_gains(L, shape, budget=gain_budget, seed=seed)
        stage = "motion"
        motion = compile_motion(g, shape, spec)
        B = incidence_matrix(g)
        stage = "stability"
        boost = 1.0
        stability = stability_bound(np.diag(gains) @ L, motion.M_tilde, B, shape)
        while spec.kappa_tilde >= stability.kappa_tilde_max:
            boost *= 2.0
            if boost > 2.0 ** max_boosts:
                raise PipelineFailed(stage, ValueError(
                    f"kappa_tilde {spec.kappa_tilde} not admitted after "
                    f"{max_boosts} gain doublings"))
            gains = gain_boost(gains, 2.0)
            stability = stability_bound(np.diag(gains) @ L, motion.M_tilde, B, shape)
        stage = "modified"
        modified = modified_laplacian(g, L, gains, weights, motion, spec)
        KL_tilde = np.diag(gains) @ modified.L_tilde
        stage = "verify"
        spectral = jordan = None
        if motion.shape_coeff != 0:
            spectral = verify_motion_spectrum(KL_tilde, motion, spec, shape)
        elif spec.is_translation_only:
            jordan = verify_translation_jordan(KL_tilde, spec, shape)
        bundle = LaplacianBundle(L=L, gains=gains, weights=weights)
        return DesignResult(g, shape, spec, bundle, motion, modified,
                            stability, spectral, jordan, boost)
    except PipelineFailed:
        raise
    except Exception as exc:
        raise PipelineFailed(stage, exc) from exc
