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
                     NotTwoRooted, PipelineFailed, SpectrumMismatch)
from .graphs import FormationGraph, incidence_matrix, is_two_rooted
from .motion import (ModifiedLaplacian, MotionMatrices, MotionSpec,
                     compile_motion, modified_laplacian)
from .shapes import (TOLERANCES, Eigensystem, LaplacianBundle, ReferenceShape,
                     build_laplacian, eigensystem, split_spectrum,
                     stabilize_gains, synthesize_weights)

MAX_BOOSTS = 60  # gain doublings tried before a requested kappa~ is refused


def _sin_angle(v: np.ndarray, u: np.ndarray) -> float:
    """Sine of the subspace angle between the lines spanned by v and u."""
    v = v / np.linalg.norm(v)
    u = u / np.linalg.norm(u)
    return float(np.linalg.norm(v - np.vdot(u, v) * u))


def _moving_mode(motion: MotionMatrices, spec: MotionSpec, shape: ReferenceShape):
    """Relocated eigenvalue -kappa~ s of K L~ and its eigenvector (c/s) 1 + p*."""
    s_coeff = motion.shape_coeff
    if s_coeff == 0:
        raise ValueError("rotation/scaling case requires a != 0 or omega != 0")
    u = (motion.uniform_coeff / s_coeff) * np.ones(shape.n, complex) + shape.p_star
    return -spec.kappa_tilde * s_coeff, u


@dataclass(frozen=True)
class SpectralReport:
    """Moving-mode eigenstructure of K L~ (rotation/scaling case)."""

    moving_eigenvalue: complex
    moving_target: complex
    moving_residual: float
    moving_vector_angle: float
    kernel_vector_angle: float
    others_min_real: float
    others_stable: bool
    algebraic_residual: float


def verify_motion_spectrum(es: Eigensystem, motion: MotionMatrices,
                           spec: MotionSpec, shape: ReferenceShape) -> SpectralReport:
    """Check that K L~ has the relocated eigenvalue, the preserved shape
    eigenvector, the kernel vector 1, and a right-half-plane remainder.

    The eigenvector is gated by the algebraic identity K L~ u = -kappa~ s u
    with u = (uniform/s) 1 + p*, evaluated independently of the eigensolver.
    """
    target, u = _moving_mode(motion, spec, shape)
    KL_tilde, ev = es.matrix, es.values
    order = split_spectrum(ev, target)
    im, iz, others = order[0], order[1], order[2:]
    moving_residual = float(abs(ev[im] - target))
    kernel_residual = float(abs(ev[iz]))
    alg = float(np.linalg.norm(KL_tilde @ u - target * u)
                / (np.linalg.norm(KL_tilde, 2) * np.linalg.norm(u)))
    report = SpectralReport(
        moving_eigenvalue=complex(ev[im]),
        moving_target=complex(target),
        moving_residual=moving_residual,
        moving_vector_angle=_sin_angle(es.vectors[:, im], u),
        kernel_vector_angle=_sin_angle(es.vectors[:, iz], np.ones(shape.n, complex)),
        others_min_real=float(ev[others].real.min()) if others.size else math.inf,
        others_stable=bool(np.all(ev[others].real > 0)),
        algebraic_residual=alg,
    )
    rel = TOLERANCES["spectrum_rel"]
    tol = rel * float(np.abs(ev).max())
    if moving_residual > tol or kernel_residual > tol \
            or not report.others_stable or alg > rel:
        raise SpectrumMismatch(
            f"eigenstructure off prediction: moving residual {moving_residual:.2e}, "
            f"kernel residual {kernel_residual:.2e}, "
            f"min Re(others) {report.others_min_real:.2e}, "
            f"shape eigenvector residual {alg:.2e}")
    return report


@dataclass(frozen=True)
class JordanReport:
    """Generalized-chain residuals for the pure-translation case."""

    chain_residual: float
    kernel_residual: float
    squared_residual: float
    rank: int


def verify_translation_jordan(KL_tilde: np.ndarray, spec: MotionSpec,
                              shape: ReferenceShape) -> JordanReport:
    """Check K L~ p* = -kappa~ kappa_t v* 1, K L~ 1 = 0 and rank n-1."""
    if spec.omega != 0 or spec.a != 0 or spec.v_star == 0:
        raise ValueError("translation case requires omega = a = 0, v* != 0")
    n = KL_tilde.shape[0]
    ones = np.ones(n, dtype=complex)
    drift = spec.kappa_tilde * spec.kappa_t * spec.v_star
    s = np.linalg.svd(KL_tilde, compute_uv=False)
    scale = s[0] * np.linalg.norm(shape.p_star)
    r_chain = float(np.linalg.norm(KL_tilde @ shape.p_star + drift * ones))
    r_kernel = float(np.linalg.norm(KL_tilde @ ones))
    r_sq = float(np.linalg.norm(KL_tilde @ (KL_tilde @ shape.p_star)))
    rank = int(np.sum(s > TOLERANCES["jordan_rank_sv_rel"] * s[0]))
    report = JordanReport(r_chain, r_kernel, r_sq, rank)
    tol = TOLERANCES["jordan_rel"]
    if r_chain > tol * scale or r_kernel > tol * scale or rank != n - 1:
        raise ChainBroken(
            f"chain residual {r_chain:.2e}, kernel residual {r_kernel:.2e} "
            f"against {tol:.0e} * {scale:.2e}; rank {rank}, want {n - 1}")
    return report


@dataclass(frozen=True)
class StabilityAnalysis:
    """Similarity transform and the speed gain bound, with the full spectrum
    of the KL they certify."""

    T: np.ndarray
    kappa_tilde_max: float
    eigenvalues: np.ndarray


def stability_bound(es: Eigensystem, M_tilde: np.ndarray, B: np.ndarray,
                    shape: ReferenceShape) -> StabilityAnalysis:
    """Sufficient upper bound on kappa~ keeping the non-kernel spectrum of
    K L~ in the right-half plane, from the eig `es` of KL; no eig of its own.

    T has columns [1, p*, non-kernel eigenvectors of KL], so T^-1 (KL) T is
    block diagonal with a zero 2x2 leading block and a diagonal J2. With
    Q = diag(1/Re(lambda)) the Lyapunov identity Q J2 + J2^H Q = 2 I holds
    exactly and the bound is 1 / ||Q (T^-1 M~ B^T T)_(trailing block)||_2.
    The eigenvectors of a cluster (eigenvalues within spectrum_rel * rho) are
    orthonormalized; Q is constant on it, so the bound is free of eig's basis.
    Scaling K by h scales Q by 1/h and leaves T^-1 M~ B^T T alone, so the
    bound of hKL is h times the bound of KL.
    """
    ev = es.values
    nonkernel = split_spectrum(ev)[2:]
    J2, W = ev[nonkernel], es.vectors[:, nonkernel]
    close = np.abs(J2[:, None] - J2) <= TOLERANCES["spectrum_rel"] * np.abs(ev).max()
    for c in {tuple(np.flatnonzero(row)) for row in close if row.sum() > 1}:
        W[:, c] = np.linalg.qr(W[:, c])[0]
    T = np.column_stack([np.ones(ev.size, dtype=complex), shape.p_star, W])
    cond = np.linalg.cond(T)
    if cond > TOLERANCES["cond_limit"]:
        raise NonDiagonalizable(
            f"eigenvector basis condition number {cond:.2e} exceeds "
            f"{TOLERANCES['cond_limit']:.0e}; a gain boost keeps the eigenvectors, "
            "so try other weights (another design seed)")
    if np.any(J2.real <= 0):
        raise ValueError("non-kernel spectrum of KL is not in the right-half plane")
    Q = 1.0 / J2.real

    pert = np.linalg.solve(T, M_tilde @ B.T @ T)[2:, 2:]
    norm = np.linalg.norm(Q[:, None] * pert, 2)
    bound = math.inf if norm == 0 else 1.0 / norm
    return StabilityAnalysis(T, bound, ev)


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


def predict_steady_state(p0: np.ndarray, design: DesignResult) -> SteadyStatePrediction:
    """Expand p(0) in the (generalized) eigenbasis of -K L~ and return the
    non-decaying part of the solution."""
    es, spec, shape = design.eigensystem, design.spec, design.shape
    ones = np.ones(shape.n, dtype=complex)
    if design.motion.shape_coeff != 0:
        target, basis_shape = _moving_mode(design.motion, spec, shape)
        case, rate = "moving", -target
    else:
        # kernel (possibly defective) handled analytically with {1, p*}
        target, basis_shape, rate = None, shape.p_star, 0j
        case = "translation" if spec.v_star != 0 else "static"
    rest = split_spectrum(es.values, target)[2:]
    W = np.column_stack([ones, basis_shape, es.vectors[:, rest]])
    if np.linalg.cond(W) > TOLERANCES["cond_limit"]:
        raise ExpansionIllConditioned(
            f"eigenbasis condition number {np.linalg.cond(W):.2e}")
    coeff = np.linalg.solve(W, np.asarray(p0, dtype=complex))
    c1, c2, drift = complex(coeff[0]), complex(coeff[1]), 0j
    if case == "translation":
        # sign convention of the published solution: velocity = -c2 kappa~ kappa_t v*
        c2, drift = -c2, c2 * spec.kappa_tilde * spec.kappa_t * spec.v_star
    return SteadyStatePrediction(c1, c2, case, ones, basis_shape, rate, drift)


@dataclass(frozen=True)
class DesignResult:
    """Everything the end-to-end design produces; `eigensystem` is the one
    eigendecomposition of K L~ that verification and prediction read."""

    graph: FormationGraph
    shape: ReferenceShape
    spec: MotionSpec
    bundle: LaplacianBundle
    motion: MotionMatrices
    modified: ModifiedLaplacian
    stability: StabilityAnalysis
    eigensystem: Eigensystem
    spectral: Optional[SpectralReport]
    jordan: Optional[JordanReport]
    boost: float

    @property
    def KL_tilde(self) -> np.ndarray:
        return self.eigensystem.matrix


def design_pipeline(g: FormationGraph, shape: ReferenceShape, spec: MotionSpec,
                    seed: int = 0) -> DesignResult:
    """Steps: check the graph is 2-rooted, synthesize weights and gains,
    build the motion matrices, bound the speed gain (boosting the gains by
    the smallest power of two 2^k that admits the requested kappa~),
    assemble L~ and verify the predicted eigenstructure."""
    stage = "weights"
    try:
        feas = is_two_rooted(g)
        if not feas.two_rooted:
            raise NotTwoRooted(f"graph is not 2-rooted ({feas.reason})")
        weights = synthesize_weights(g, shape, seed)
        L = build_laplacian(g, weights)
        stage = "gains"
        gains, KL = stabilize_gains(L)
        stage = "motion"
        motion = compile_motion(g, shape, spec)
        B = incidence_matrix(g)
        stage = "stability"
        stability = stability_bound(KL, motion.M_tilde, B, shape)
        bound, k = stability.kappa_tilde_max, 0
        while spec.kappa_tilde >= stability.kappa_tilde_max:
            # the bound of 2^k KL is 2^k times the h = 1 bound; certify the
            # shipped gains, and on a rounding tie double once more
            k += 1
            while k <= MAX_BOOSTS and spec.kappa_tilde >= 2.0 ** k * bound:
                k += 1
            if k > MAX_BOOSTS:
                raise ValueError(f"kappa_tilde {spec.kappa_tilde} not admitted "
                                 f"after {MAX_BOOSTS} gain doublings")
            stability = stability_bound(eigensystem(2.0 ** k * KL.matrix),
                                        motion.M_tilde, B, shape)
        boost = 2.0 ** k
        gains = gains * boost
        stage = "modified"
        modified = modified_laplacian(g, L, gains, weights, motion, spec)
        stage = "verify"
        es = eigensystem(gains[:, None] * modified.L_tilde)
        spectral = jordan = None
        if motion.shape_coeff != 0:
            spectral = verify_motion_spectrum(es, motion, spec, shape)
        elif spec.is_translation_only:
            jordan = verify_translation_jordan(es.matrix, spec, shape)
        bundle = LaplacianBundle(L=L, gains=gains, weights=weights)
        return DesignResult(g, shape, spec, bundle, motion, modified,
                            stability, es, spectral, jordan, boost)
    except PipelineFailed:
        raise
    except Exception as exc:
        raise PipelineFailed(stage, exc) from exc
