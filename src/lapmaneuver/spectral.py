"""Shape-plane certificate, Lyapunov speed bound and the design pipeline.

With M~ B^T p* = c 1 + s p*, K L~ 1 = 0 and K L~ p* = -kappa~ (c 1 + s p*)
in every case of `MotionMatrices.case`: "moving" (s != 0) relocates one zero
eigenvalue of KL to -kappa~ s, "translation" (s = 0, c != 0) leaves a Jordan
chain, "static" (s = c = 0) keeps K L~ = KL. So the shape plane
S = span{1, p*} is invariant under K L~ in all three; one construction
certifies that split and the stability of the rest, and the prediction and
the report read it. The speed gain bound keeps the rest stable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import zgees, ztrsyl

from .errors import (ExpansionIllConditioned, NonDiagonalizable, NotTwoRooted,
                     PipelineFailed, SpectrumMismatch)
from .graphs import FormationGraph, is_two_rooted
from .motion import (ModifiedLaplacian, MotionMatrices, MotionSpec,
                     compile_motion, modified_laplacian)
from .shapes import (TOLERANCES, LaplacianBundle, ReferenceShape, laplacian,
                     stabilize_gains, synthesize_weights)

MAX_BOOSTS = 60  # gain doublings tried before a requested kappa~ is refused


@dataclass(frozen=True)
class SplitCertificate:
    """K L~ in the shape-plane basis Q = [Q1 Q2] of `ReferenceShape.plane`:
    B = Q^H (K L~) Q, the triangular T of the complex Schur form
    B22 = Z T Z^H of the block off S, and X = Z^H P Z for the Lyapunov matrix
    P of B22^H P + P B22 = 2 I; the Schur vectors Z are never formed. The
    residuals are relative to ||K L~||_F, Lyapunov's also to ||X||_F."""

    matrix: np.ndarray  # K L~
    B: np.ndarray
    T: np.ndarray
    split_residual: float  # ||B21||
    motion_residual: float  # ||B11 - R M R^-1||, M the 2 x 2 of (c, s)
    lyapunov_residual: float  # ||T^H X + X T - 2 I||
    min_eig_P: float
    max_eig_P: float  # x2 = Q2^H p decays at least as e^(-t / max_eig_P)

    @property
    def cond_P(self) -> float:
        return self.max_eig_P / self.min_eig_P

    @property
    def eigenvalues(self) -> np.ndarray:
        """Spectrum of K L~: the diagonals of B11 (triangular, since
        Q1 starts with a multiple of 1 and K L~ 1 = 0) and of T."""
        return np.concatenate([np.diag(self.B)[:2], np.diag(self.T)])


def _unsorted(_):
    return None


def _schur_triangle(A: np.ndarray) -> np.ndarray:
    """T of the complex Schur form of A without Schur vectors: LAPACK zgees
    with jobvs = 'N' and the workspace it asks for, as `schur` sizes it, so T
    has the bits of schur(A, output="complex")[0]."""
    A = np.asarray_chkfinite(A)
    lwork = int(zgees(_unsorted, A, compute_v=0, lwork=-1)[-2][0].real)
    T, *_, info = zgees(_unsorted, A, compute_v=0, lwork=lwork)
    if info:
        raise np.linalg.LinAlgError(f"Schur form not found (zgees info {info})")
    return T


def verify_motion_spectrum(KL_tilde: np.ndarray, motion: MotionMatrices,
                           spec: MotionSpec, shape: ReferenceShape) -> SplitCertificate:
    """Certify, alike in every case, that K L~ maps S into itself as (c, s)
    predict and that the rest of its spectrum is stable.

    With [1, p*] = Q1 R, K L~ [1, p*] = [1, p*] M for M = -kappa~ [[0, c], [0, s]],
    so B21 = 0 and B11 = R M R^-1 = -kappa~ [[0, (r11 c + r12 s) / r22], [0, s]]:
    exact algebra, no eigenvalue match.
    T^H X + X T = 2 I is solved on the triangular Schur form T of B22, taken
    without Schur vectors (ztrsyl, Bartels & Stewart, CACM 15(9), 1972).
    Each residual is gated at tol = spectrum_rel, and P must certify every
    B22 within tol ||K L~||_F: min eig(P) > 0 and tol ||K L~||_F
    lambda_max(P) < 1. Else SpectrumMismatch names what failed.
    """
    Q, R = shape.plane
    B = Q.conj().T @ KL_tilde @ Q
    c, s = motion.uniform_coeff, motion.shape_coeff
    predicted = -spec.kappa_tilde * np.array([[0, (R[0, 0] * c + R[0, 1] * s) / R[1, 1]], [0, s]])
    norm, two = np.linalg.norm(B), 2.0 * np.eye(shape.n - 2)
    T = _schur_triangle(B[2:, 2:])
    # info 1 (a mode of B22 on the imaginary axis) solves with T perturbed
    # by rounding, and the margin on P below refuses that solution
    X, scale, _ = ztrsyl(T, T, two, trana="C")
    X = X / scale
    lo, hi = np.linalg.eigvalsh(X)[[0, -1]]
    cert = SplitCertificate(
        KL_tilde, B, T,
        split_residual=float(np.linalg.norm(B[2:, :2]) / norm),
        motion_residual=float(np.linalg.norm(B[:2, :2] - predicted) / norm),
        lyapunov_residual=float(np.linalg.norm(T.conj().T @ X + X @ T - two)
                                / (norm * np.linalg.norm(X))),
        min_eig_P=float(lo), max_eig_P=float(hi))
    tol = TOLERANCES["spectrum_rel"]
    faults = [f"{name} {value:.2e} above {tol:.0e}" for name, value in (
        ("invariance residual ||B21||", cert.split_residual),
        ("B11 error against the motion's (c, s)", cert.motion_residual),
        ("Lyapunov residual", cert.lyapunov_residual)) if not value <= tol]
    if not (lo > 0 and tol * norm * hi < 1):
        faults.append(f"P not positive definite beyond rounding: eig(P) in [{lo:.2e}, {hi:.2e}]")
    if faults:
        raise SpectrumMismatch("shape-plane split not certified: " + "; ".join(faults))
    return cert


@dataclass(frozen=True)
class StabilityAnalysis:
    """Eigenbasis Q2^H W of the bound, the speed gain bound, and the spectrum
    of the KL they certify, its kernel pair first as two exact zeros."""

    T: np.ndarray
    kappa_tilde_max: float
    eigenvalues: np.ndarray


def stability_bound(eig: tuple[np.ndarray, np.ndarray], MBt: np.ndarray,
                    shape: ReferenceShape) -> StabilityAnalysis:
    """Sufficient upper bound on kappa~ keeping the non-kernel spectrum of
    K L~ in the right-half plane, from the gain rule's pair (lambda, Z) of KL
    (`shapes.nonkernel_eigenvalues`) and MBt = M~ B^T (`MotionMatrices.MBt`).

    KL and M~ B^T map S = span{1, p*} into S, so in the basis Q = [Q1 Q2] of
    `ReferenceShape.plane` both are block upper triangular, and T = Z[2:] =
    Q2^H W, W = Q Z, diagonalizes the trailing block of KL: T^-1 B22(KL) T =
    J2. With Q = diag(1/Re(lambda)) the Lyapunov identity Q J2 + J2^H Q = 2 I
    holds exactly and the bound, free of the shape's unit, is
    1 / ||Q T^-1 (Q2^H M~ B^T Q2) T||_2: the trailing block of the paper's
    T^-1 M~ B^T T in its basis T = [1, p*, W].
    The eigenvectors of a cluster (eigenvalues within spectrum_rel * rho, a
    chain of such pairs merged into one) are orthonormalized; Q is constant
    on it, so the bound is free of eig's basis. Scaling K by h scales Q by
    1/h and leaves T alone, so the bound of hKL is h times that of KL.
    """
    J2, Z = eig[0], eig[1].copy()  # the cluster QR writes in place; the pair is the caller's
    close = np.abs(J2[:, None] - J2) <= TOLERANCES["spectrum_rel"] * np.abs(J2).max()
    while not (close == close[close.argmax(1)]).all():  # a chain: merge it into one cluster
        close = close @ close
    size, first = close.sum(1), close.argmax(1)
    for k in np.unique(size[size > 1]):  # every cluster of k eigenvectors in one QR
        c = np.flatnonzero(size == k)
        c = c[np.argsort(first[c], kind="stable")].reshape(-1, k)
        Z[:, c] = np.linalg.qr(Z[:, c].transpose(1, 0, 2))[0].transpose(1, 0, 2)
    T, Q2 = Z[2:], shape.plane[0][:, 2:]
    sv = np.linalg.svd(T, compute_uv=False)
    with np.errstate(divide="ignore"):
        cond = sv[0] / sv[-1]  # inf for a singular T
    if cond > TOLERANCES["cond_limit"]:
        raise NonDiagonalizable(
            f"eigenvector basis condition number {cond:.2e} exceeds "
            f"{TOLERANCES['cond_limit']:.0e}; a gain boost keeps the eigenvectors, "
            "so try other weights (another design seed)")
    if np.any(J2.real <= 0):
        raise ValueError("non-kernel spectrum of KL is not in the right-half plane")
    Q = 1.0 / J2.real
    pert = np.linalg.solve(T, Q2.conj().T @ MBt @ Q2 @ T)
    norm = np.linalg.svd(Q[:, None] * pert, compute_uv=False).max(initial=0.0)
    bound = math.inf if norm == 0 else 1.0 / norm
    return StabilityAnalysis(T, bound, np.concatenate([np.zeros(2, dtype=complex), J2]))


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
    """The part of the solution of p' = -K L~ p that does not decay, from the
    certificate's split: with x = Q^H p(0) and B11 Y - Y B22 = -B12,
    z = x1 - Y x2 follows z' = -B11 z while x2 decays, so Q1 z is p(0)
    projected on S along the rest, and (c1, c2) its coordinates in
    [1, basis_shape]. B11 = [[b1, b12], [0, b2]] is upper triangular
    (K L~ 1 = 0), so with rows r1, r2 of B12 the equation is two linear
    solves on B22: Y2 (B22 - b2 I) = r2, then Y1 (B22 - b1 I) = r1 + b12 Y2.
    It is refused, as ztrsyl refuses it, when some b_i is within
    eps max(max|B11|, max|T|) of a diagonal of the certificate's T: the
    moving mode -kappa~ s is then an eigenvalue off S."""
    cert, motion, spec, shape = design.certificate, design.motion, design.spec, design.shape
    basis_shape, rate = shape.p_star, 0j
    if motion.case == "moving":  # eigenvector (c/s) 1 + p* of -kappa~ s
        basis_shape = motion.uniform_coeff / motion.shape_coeff + shape.p_star
        rate = spec.kappa_tilde * motion.shape_coeff
    elif motion.case == "translation":
        # the chain K L~ p* = -kappa~ c 1 taken analytically; -p* gives c2 the
        # published sign, velocity = -c2 kappa~ c
        basis_shape = -shape.p_star
    B, T = cert.B, cert.T
    b = np.diag(B)[:2]
    gap = np.abs(b[:, None] - np.diag(T))
    if gap.min() <= np.finfo(float).eps * max(np.abs(B[:2, :2]).max(), np.abs(T).max()):
        raise ExpansionIllConditioned(
            f"eigenvalue {T.diagonal()[gap.min(0).argmin()]:.4g} of K L~ off the shape "
            "plane collides with the moving mode: p(0) has no unique split")
    A, eye = B[2:, 2:].T, np.eye(shape.n - 2)
    Y2 = np.linalg.solve(A - b[1] * eye, B[1, 2:])
    Y1 = np.linalg.solve(A - b[0] * eye, B[0, 2:] + B[0, 1] * Y2)
    Qh = shape.plane[0].conj().T
    x = Qh @ np.asarray(p0, dtype=complex)
    z = x[:2] - np.stack([Y1, Y2]) @ x[2:]
    c1, c2 = np.linalg.solve(Qh[:2] @ np.column_stack([np.ones(shape.n), basis_shape]), z)
    velocity = -c2 * spec.kappa_tilde * motion.uniform_coeff \
        if motion.case == "translation" else 0j
    return SteadyStatePrediction(complex(c1), complex(c2), motion.case, basis_shape, rate, velocity)


@dataclass(frozen=True)
class DesignResult:
    """Everything the end-to-end design produces; `certificate` is the
    shape-plane split of K L~ that stage verify certified, the one
    decomposition of K L~, which the prediction and the report read."""

    graph: FormationGraph
    shape: ReferenceShape
    spec: MotionSpec
    bundle: LaplacianBundle
    motion: MotionMatrices
    modified: ModifiedLaplacian
    stability: StabilityAnalysis
    certificate: SplitCertificate
    boost: float

    @property
    def KL_tilde(self) -> np.ndarray:
        return self.certificate.matrix


def design_pipeline(g: FormationGraph, shape: ReferenceShape, spec: MotionSpec,
                    seed: int = 0) -> DesignResult:
    """Steps: check the graph is 2-rooted, synthesize weights and gains,
    build the motion matrices, bound the speed gain, assemble L~ and verify
    the shape-plane split of K L~. The bound b1 of the gain rule's KL is
    taken once; a kappa~ it does not admit boosts the gains by 2^k, k the
    binary exponent of kappa~ / b1, and 2^k b1 certifies the exactly scaled
    2^k KL. A static design has mu~ = 0, so an unbounded kappa~ bound,
    boost 1 and K L~ = KL, certified like every other case."""
    stage = "weights"
    try:
        feas = is_two_rooted(g)
        if not feas.two_rooted:
            raise NotTwoRooted(f"graph is not 2-rooted ({feas.reason})")
        weights = synthesize_weights(g, shape, seed)
        L = laplacian(weights)
        stage = "gains"
        gains, eig = stabilize_gains(L, shape)
        stage = "motion"
        motion = compile_motion(g, shape, spec)
        stage = "stability"
        stability = stability_bound(eig, motion.MBt, shape)
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
        modified = modified_laplacian(weights, gains, motion, spec)
        stage = "verify"
        certificate = verify_motion_spectrum(gains[:, None] * modified.L_tilde,
                                             motion, spec, shape)
        bundle = LaplacianBundle(L=L, gains=gains, weights=weights)
        return DesignResult(g, shape, spec, bundle, motion, modified,
                            stability, certificate, boost)
    except Exception as exc:
        raise PipelineFailed(stage, exc) from exc
