"""Self-calibration of parallel two-slit cameras.

Projective reconstructions of such cameras can be upgraded to a
similarity frame through the rank-3 dual quadric M = Q Omega Q^T,
Omega = diag(1, 1, 1, 0). When every camera has its principal point at
the origin (zero off-diagonal intrinsic), each 2x4 camera matrix A
satisfies (A M A^T)[0, 1] = 0, one linear equation in the ten distinct
entries of M per matrix, two per camera. The null vector of the
stacked system estimates M; an eigendecomposition splits off the
upgrading transform.

Both steps are kernels on a checked (n, 2, 2, 4) rig array, _daq and
_upgrade: one design row per matrix from the outer product of its two
rows, and one stacked triangular factorization for every calibration.
Each matrix is divided by a power of two first, so a finite rig of any
scale gives the same bits. estimate_daq and extract_upgrade wrap them
for a list of cameras; run_selfcal_experiment calls the kernels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegeneracyError, ValidationError
from .cameras import _rq_2x3, _stack
from .projective import TINY, TOL, ZERO_TOL, as_array, pow2_scaled

OMEGA_DUAL = np.diag([1.0, 1.0, 1.0, 0.0])
DEGENERACY_TOL = 1e-6  # smallest ratio s9/s1 of the constraint system
RANK_TOL = 1e-3  # eigenvalue ratio that separates the quadric's zero from its rank-3 part


@dataclass(frozen=True, eq=False)
class DualAbsoluteQuadric:
    """Symmetric 4x4 quadric estimate, unit Frobenius norm, top-left
    entry kept non-negative."""

    matrix: np.ndarray

    def __post_init__(self):
        M = as_array(self.matrix, (4, 4), "quadric matrix")
        if np.linalg.norm(M) == 0.0:
            raise ValidationError("quadric matrix must be nonzero")
        if np.max(np.abs(M - M.T)) > TOL * np.max(np.abs(M)):
            raise ValidationError("quadric matrix must be symmetric")
        M = 0.5 * (M + M.T)
        M = M / np.linalg.norm(M)
        anchor = M[0, 0] if abs(M[0, 0]) > ZERO_TOL else np.trace(M)
        if anchor < 0:
            M = -M
        object.__setattr__(self, "matrix", M)

    def eigen(self):
        """(eigenvalues descending, matching eigenvector columns)."""
        w, V = np.linalg.eigh(self.matrix)
        order = np.argsort(w)[::-1]
        return w[order], V[:, order]


def _daq(R):
    """estimate_daq on a checked (n, 2, 2, 4) rig. Each matrix is divided
    by a power of two before it is normalized, so a finite rig of any
    scale neither overflows nor underflows, and the bits do not change."""
    if len(R) < 5:
        raise ValidationError(f"need at least 5 cameras for self-calibration, got {len(R)}")
    A = pow2_scaled(R.reshape(-1, 2, 4), axis=(1, 2))
    A = A / np.linalg.norm(A, axis=(1, 2), keepdims=True)
    # (A M A^T)[0, 1] = sum over a <= b of M[a, b] (P[a, b] + P[b, a]), P[a, a] once
    P = A[:, 0, :, None] * A[:, 1, None, :]
    i, j = np.triu_indices(4)
    design = P[:, i, j] + np.where(i == j, 0.0, P[:, j, i])
    norms = np.linalg.norm(design, axis=1, keepdims=True)
    if np.min(norms) < TINY:
        raise ValidationError("a camera contributes a null constraint")
    _, s, Vt = np.linalg.svd(design / norms, full_matrices=False)
    if s[8] < DEGENERACY_TOL * s[0]:
        raise DegeneracyError(
            "camera motion is degenerate for self-calibration: the constraint "
            "system has a solution space of dimension > 1")
    M = np.empty((4, 4))
    M[i, j] = M[j, i] = Vt[9]
    return DualAbsoluteQuadric(M)


def estimate_daq(cameras):
    """Least-squares dual quadric from centered parallel cameras.

    Needs at least five cameras (two equations each, ten unknowns up
    to scale). Raises DegeneracyError when the equations leave more
    than a one-dimensional solution space (degenerate motion).
    """
    return _daq(_stack(cameras))


@dataclass(frozen=True, eq=False)
class UpgradeResult:
    """Output of the metric upgrade."""

    q_prime: np.ndarray
    eigenvalues: np.ndarray
    calibrations: list  # (K1, K2) per camera, unit lower-right entries
    magnifications: list  # row-norm ratio per camera matrix pair


def _upgrade(daq, R):
    """extract_upgrade on a checked (n, 2, 2, 4) rig: the upgrading
    matrix, the eigenvalues, the (n, 2, 2, 2) calibrations and the
    (n, 2) magnifications. Each matrix is divided by a power of two
    first, which no calibration or magnification sees."""
    lam, V = daq.eigen()
    if lam[0] <= 0:
        raise DegeneracyError("quadric estimate has no positive eigenvalue")
    if abs(lam[3]) > RANK_TOL * lam[0]:
        raise DegeneracyError(
            f"quadric is not rank 3 within tolerance: |l4/l1| = {abs(lam[3]/lam[0]):.3e}")
    if lam[2] <= RANK_TOL * lam[0]:
        raise DegeneracyError(
            "quadric is indefinite or rank deficient: third eigenvalue is not "
            "decisively positive")
    scales = np.sqrt(np.clip(lam[:3], 0.0, None))
    q_prime = np.column_stack([V[:, 0] * scales[0], V[:, 1] * scales[1],
                               V[:, 2] * scales[2], V[:, 3]])

    U = pow2_scaled(R, axis=(2, 3)) @ q_prime
    K, _, _ = _rq_2x3(U[..., :3])
    rows = np.linalg.norm(U[..., :3], axis=-1)
    return q_prime, lam, K / K[..., 1:, 1:], rows[..., 0] / rows[..., 1]


def extract_upgrade(daq, cameras):
    """Factor the quadric and upgrade the cameras with it.

    The eigendecomposition must show three decisively positive
    eigenvalues and one near zero; the upgrading matrix columns are
    the eigenvectors scaled by square roots of eigenvalues, the last
    kept at unit norm.
    """
    q_prime, lam, K, m = _upgrade(daq, _stack(cameras))
    return UpgradeResult(q_prime=q_prime, eigenvalues=lam,
                         calibrations=[tuple(Ks) for Ks in K],
                         magnifications=[tuple(mi) for mi in m.tolist()])


def similarity_defect(Q_true, q_prime):
    """How far Q_true^-1 q_prime is from a similarity of space.

    Returns the worst of two scale-free defects: non-orthogonality of
    the upper 3x3 block and non-vanishing of the lower-left row. Zero
    for an exact metric upgrade.
    """
    Q_true, q_prime = as_array(Q_true, (4, 4), "Q_true"), as_array(q_prime, (4, 4), "q_prime")
    try:
        S = np.linalg.solve(Q_true, q_prime)
    except np.linalg.LinAlgError:
        raise ValidationError("Q_true is singular") from None
    B = S[:3, :3]
    G = B.T @ B
    s2 = np.trace(G) / 3.0
    if s2 <= 0:
        return np.inf
    ortho = float(np.max(np.abs(G - s2 * np.eye(3)))) / s2
    shear = float(np.linalg.norm(S[3, :3])) / np.sqrt(s2)
    return max(ortho, shear)
