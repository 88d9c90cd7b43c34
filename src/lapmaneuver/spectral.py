"""Eigenstructure verification, Lyapunov speed bound and the design pipeline.

With M~ B^T p* = c 1 + s p*, the modified Laplacian relocates one zero
eigenvalue of KL to -kappa~ s while keeping the shape eigenvector (case
"moving": rotation/scaling); with s = 0 and c != 0 the double zero collapses
to a single Jordan chain ("translation"); with s = c = 0 K L~ = KL
("static"). The case is `MotionMatrices.case`; everything here reads it,
checks its facts numerically and bounds the global speed gain that
preserves stability of the remaining spectrum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (ChainBroken, ExpansionIllConditioned, NonDiagonalizable,
                     NotTwoRooted, PipelineFailed, SpectrumMismatch)
from .graphs import FormationGraph, is_two_rooted
from .motion import (ModifiedLaplacian, MotionMatrices, MotionSpec,
                     compile_motion, modified_laplacian)
from .shapes import (TOLERANCES, Eigensystem, LaplacianBundle, ReferenceShape,
                     eigensystem, laplacian, split_spectrum,
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
    u = (motion.uniform_coeff / s_coeff) * np.ones(shape.n, complex) + shape.p_star
    return -spec.kappa_tilde * s_coeff, u


@dataclass(frozen=True)
class SpectralReport:
    """Moving-mode eigenstructure of K L~ (case "moving")."""

    moving_eigenvalue: complex
    moving_target: complex
    moving_residual: float
    moving_vector_angle: float
    kernel_vector_angle: float
    others_min_real: float
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
        algebraic_residual=alg,
    )
    rel = TOLERANCES["spectrum_rel"]
    tol = rel * float(np.abs(ev).max())
    if moving_residual > tol or kernel_residual > tol \
            or not report.others_min_real > 0 or alg > rel:
        raise SpectrumMismatch(
            f"eigenstructure off prediction: moving residual {moving_residual:.2e}, "
            f"kernel residual {kernel_residual:.2e}, "
            f"min Re(others) {report.others_min_real:.2e}, "
            f"shape eigenvector residual {alg:.2e}")
    return report


@dataclass(frozen=True)
class JordanReport:
    """Generalized-chain residuals of K L~ (case "translation")."""

    chain_residual: float
    kernel_residual: float
    squared_residual: float
    rank: int


def verify_translation_jordan(es: Eigensystem, motion: MotionMatrices,
                              spec: MotionSpec, shape: ReferenceShape) -> JordanReport:
    """Check K L~ p* = -kappa~ c 1, K L~ 1 = 0, rank n-1 and, as for the
    moving case, a right-half-plane remainder off the chain's double zero."""
    KL_tilde, ev = es.matrix, es.values
    n = KL_tilde.shape[0]
    ones = np.ones(n, dtype=complex)
    drift = spec.kappa_tilde * motion.uniform_coeff
    s = np.linalg.svd(KL_tilde, compute_uv=False)
    scale = s[0] * np.linalg.norm(shape.p_star)
    r_chain = float(np.linalg.norm(KL_tilde @ shape.p_star + drift * ones))
    r_kernel = float(np.linalg.norm(KL_tilde @ ones))
    r_sq = float(np.linalg.norm(KL_tilde @ (KL_tilde @ shape.p_star)))
    rank = int(np.sum(s > TOLERANCES["jordan_rank_sv_rel"] * s[0]))
    others_min_real = float(ev[split_spectrum(ev)[2:]].real.min(initial=math.inf))
    report = JordanReport(r_chain, r_kernel, r_sq, rank)
    tol = TOLERANCES["jordan_rel"]
    if r_chain > tol * scale or r_kernel > tol * scale or rank != n - 1 \
            or not others_min_real > 0:
        raise ChainBroken(
            f"chain residual {r_chain:.2e}, kernel residual {r_kernel:.2e} "
            f"against {tol:.0e} * {scale:.2e}; rank {rank}, want {n - 1}; "
            f"min Re(others) {others_min_real:.2e}")
    return report


@dataclass(frozen=True)
class StabilityAnalysis:
    """Similarity transform and the speed gain bound, with the full spectrum
    of the KL they certify."""

    T: np.ndarray
    kappa_tilde_max: float
    eigenvalues: np.ndarray


def stability_bound(es: Eigensystem, MBt: np.ndarray,
                    shape: ReferenceShape) -> StabilityAnalysis:
    """Sufficient upper bound on kappa~ keeping the non-kernel spectrum of
    K L~ in the right-half plane, from the eig `es` of KL and MBt = M~ B^T
    (`MotionMatrices.MBt`); no eig of its own.

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

    pert = np.linalg.solve(T, MBt @ T)[2:, 2:]
    norm = np.linalg.norm(Q[:, None] * pert, 2)
    bound = math.inf if norm == 0 else 1.0 / norm
    return StabilityAnalysis(T, bound, ev)


@dataclass(frozen=True)
class SteadyStatePrediction:
    """Closed-form asymptotic trajectory from expanding p(0):
    c1 1 + c2 e^(rate t) basis_shape + t steady_velocity 1."""

    c1: complex
    c2: complex
    case: str  # the design's MotionMatrices.case
    basis_shape: np.ndarray  # (c/s) 1 + p* moving, -p* translation, p* static
    rate: complex  # exponent of the moving mode (0 for translation/static)
    steady_velocity: complex  # uniform agent velocity (0 unless translation)

    def evaluate(self, t) -> np.ndarray:
        """Asymptotic configuration at time(s) t, decaying terms dropped."""
        t = np.asarray(t, dtype=float)
        ones = np.ones(self.basis_shape.size, dtype=complex)
        return np.squeeze(self.c1 * ones
                          + np.multiply.outer(np.exp(self.rate * t), self.c2 * self.basis_shape)
                          + np.multiply.outer(t, self.steady_velocity * ones))


def predict_steady_state(p0: np.ndarray, design: DesignResult) -> SteadyStatePrediction:
    """Expand p(0) in the (generalized) eigenbasis of -K L~ and return the
    non-decaying part of the solution."""
    es, motion, spec, shape = design.eigensystem, design.motion, design.spec, design.shape
    ones = np.ones(shape.n, dtype=complex)
    target, basis_shape, rate = None, shape.p_star, 0j
    if motion.case == "moving":
        target, basis_shape = _moving_mode(motion, spec, shape)
        rate = -target
    elif motion.case == "translation":
        # the chain K L~ p* = -kappa~ c 1 taken analytically; -p* gives c2 the
        # published sign, velocity = -c2 kappa~ c
        basis_shape = -shape.p_star
    rest = split_spectrum(es.values, target)[2:]
    W = np.column_stack([ones, basis_shape, es.vectors[:, rest]])
    if np.linalg.cond(W) > TOLERANCES["cond_limit"]:
        raise ExpansionIllConditioned(
            f"eigenbasis condition number {np.linalg.cond(W):.2e}")
    coeff = np.linalg.solve(W, np.asarray(p0, dtype=complex))
    c1, c2 = complex(coeff[0]), complex(coeff[1])
    velocity = -c2 * spec.kappa_tilde * motion.uniform_coeff \
        if motion.case == "translation" else 0j
    return SteadyStatePrediction(c1, c2, motion.case, basis_shape, rate, velocity)


@dataclass(frozen=True)
class DesignResult:
    """Everything the end-to-end design produces; `eigensystem` is the one
    eigendecomposition of K L~ that verification and prediction read, and
    `residuals` what verification certified for the case of `motion`
    (SpectralReport, JordanReport, or None when static)."""

    graph: FormationGraph
    shape: ReferenceShape
    spec: MotionSpec
    bundle: LaplacianBundle
    motion: MotionMatrices
    modified: ModifiedLaplacian
    stability: StabilityAnalysis
    eigensystem: Eigensystem
    residuals: SpectralReport | JordanReport | None
    boost: float

    @property
    def KL_tilde(self) -> np.ndarray:
        return self.eigensystem.matrix


def design_pipeline(g: FormationGraph, shape: ReferenceShape, spec: MotionSpec,
                    seed: int = 0) -> DesignResult:
    """Steps: check the graph is 2-rooted, synthesize weights and gains,
    build the motion matrices, bound the speed gain, assemble L~ and verify
    the eigenstructure of the motion's case. The bound b1 of the gain rule's
    KL is taken once; a kappa~ it does not admit boosts the gains by 2^k, k
    the binary exponent of kappa~ / b1, and 2^k b1 certifies the exactly
    scaled 2^k KL. A static design has mu~ = 0, so an unbounded kappa~ bound,
    boost 1 and K L~ = KL: it keeps the gain rule's eig of KL and needs no
    check of its own."""
    stage = "weights"
    try:
        feas = is_two_rooted(g)
        if not feas.two_rooted:
            raise NotTwoRooted(f"graph is not 2-rooted ({feas.reason})")
        weights = synthesize_weights(g, shape, seed)
        L = laplacian(weights)
        stage = "gains"
        gains, KL = stabilize_gains(L)
        stage = "motion"
        motion = compile_motion(g, shape, spec)
        stage = "stability"
        stability = stability_bound(KL, motion.MBt, shape)
        # fl(q) < 2^k, so kappa~ < 2^k b1; a float quotient overflows to inf
        # without a warning, and frexp(inf) reads exponent 0: refused here
        q = spec.kappa_tilde / float(stability.kappa_tilde_max)
        if not q < 2.0 ** MAX_BOOSTS:
            raise ValueError(f"kappa_tilde {spec.kappa_tilde} not admitted "
                             f"after {MAX_BOOSTS} gain doublings")
        boost = 2.0 ** max(0, math.frexp(q)[1])
        stability = StabilityAnalysis(stability.T, boost * stability.kappa_tilde_max,
                                      boost * stability.eigenvalues)
        gains = gains * boost
        stage = "modified"
        modified = modified_laplacian(L, gains, weights, motion, spec)
        stage = "verify"
        es, residuals = KL, None
        if motion.case != "static":
            es = eigensystem(gains[:, None] * modified.L_tilde)
            residuals = (verify_motion_spectrum(es, motion, spec, shape)
                         if motion.case == "moving"
                         else verify_translation_jordan(es, motion, spec, shape))
        bundle = LaplacianBundle(L=L, gains=gains, weights=weights)
        return DesignResult(g, shape, spec, bundle, motion, modified,
                            stability, es, residuals, boost)
    except Exception as exc:
        raise PipelineFailed(stage, exc) from exc
