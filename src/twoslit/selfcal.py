"""Self-calibration of parallel two-slit cameras.

Projective reconstructions of such cameras can be upgraded to a
similarity frame through the rank-3 dual quadric M = Q Omega Q^T,
Omega = diag(1, 1, 1, 0). When every camera has its principal point at
the origin (zero off-diagonal intrinsic), each 2x4 camera matrix A
satisfies (A M A^T)[0, 1] = 0, one linear equation in the ten distinct
entries of M per matrix, two per camera. The null vector of the
stacked system estimates M; an eigendecomposition splits off the
upgrading transform.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegeneracyError, ValidationError
from .cameras import TwoSlitCamera, _rq_2x3
from .projective import TINY, TOL, ZERO_TOL

OMEGA_DUAL = np.diag([1.0, 1.0, 1.0, 0.0])
DEGENERACY_TOL = 1e-6  # smallest ratio s9/s1 of the constraint system
RANK_TOL = 1e-3  # eigenvalue ratio that separates the quadric's zero from its rank-3 part

_SYM_INDEX = [(0, 0), (0, 1), (0, 2), (0, 3), (1, 1), (1, 2), (1, 3),
              (2, 2), (2, 3), (3, 3)]


@dataclass(frozen=True, eq=False)
class DualAbsoluteQuadric:
    """Symmetric 4x4 quadric estimate, unit Frobenius norm, top-left
    entry kept non-negative."""

    matrix: np.ndarray

    def __post_init__(self):
        M = np.asarray(self.matrix, dtype=float)
        if M.shape != (4, 4):
            raise ValidationError(f"quadric must be 4x4, got {M.shape}")
        if not np.all(np.isfinite(M)) or np.linalg.norm(M) == 0.0:
            raise ValidationError("quadric matrix must be finite and nonzero")
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


def _constraint_row(A):
    A = A / np.linalg.norm(A)
    row = np.empty(10)
    for n, (a, b) in enumerate(_SYM_INDEX):
        if a == b:
            row[n] = A[0, a] * A[1, a]
        else:
            row[n] = A[0, a] * A[1, b] + A[0, b] * A[1, a]
    return row


def estimate_daq(cameras):
    """Least-squares dual quadric from centered parallel cameras.

    Needs at least five cameras (two equations each, ten unknowns up
    to scale). Raises DegeneracyError when the equations leave more
    than a one-dimensional solution space (degenerate motion).
    """
    cameras = list(cameras)
    if len(cameras) < 5:
        raise ValidationError(
            f"need at least 5 cameras for self-calibration, got {len(cameras)}")
    rows = []
    for cam in cameras:
        for A in (cam.A1, cam.A2):
            r = _constraint_row(A)
            nr = np.linalg.norm(r)
            if nr < TINY:
                raise ValidationError("a camera contributes a null constraint")
            rows.append(r / nr)
    design = np.stack(rows)
    _, s, Vt = np.linalg.svd(design, full_matrices=False)
    if s[8] < DEGENERACY_TOL * s[0]:
        raise DegeneracyError(
            "camera motion is degenerate for self-calibration: the constraint "
            "system has a solution space of dimension > 1")
    m = Vt[9]
    M = np.empty((4, 4))
    for val, (a, b) in zip(m, _SYM_INDEX):
        M[a, b] = val
        M[b, a] = val
    return DualAbsoluteQuadric(M)


@dataclass(frozen=True, eq=False)
class UpgradeResult:
    """Output of the metric upgrade."""

    q_prime: np.ndarray
    eigenvalues: np.ndarray
    upgraded: list
    calibrations: list  # (K1, K2) per camera, unit lower-right entries
    magnifications: list  # row-norm ratio per camera matrix pair


def extract_upgrade(daq, cameras):
    """Factor the quadric and upgrade the cameras with it.

    The eigendecomposition must show three decisively positive
    eigenvalues and one near zero; the upgrading matrix columns are
    the eigenvectors scaled by square roots of eigenvalues, the last
    kept at unit norm.
    """
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

    upgraded = []
    calibrations = []
    magnifications = []
    for cam in cameras:
        up = TwoSlitCamera(cam.A1 @ q_prime, cam.A2 @ q_prime)
        upgraded.append(up)
        Ks = []
        mags = []
        for A in (up.A1, up.A2):
            K, _, _ = _rq_2x3(A[:, :3])
            Ks.append(K / K[1, 1])
            mags.append(float(np.linalg.norm(A[0, :3]) / np.linalg.norm(A[1, :3])))
        calibrations.append((Ks[0], Ks[1]))
        magnifications.append((mags[0], mags[1]))
    return UpgradeResult(
        q_prime=q_prime,
        eigenvalues=lam,
        upgraded=upgraded,
        calibrations=calibrations,
        magnifications=magnifications,
    )


def similarity_defect(Q_true, q_prime):
    """How far Q_true^-1 q_prime is from a similarity of space.

    Returns the worst of two scale-free defects: non-orthogonality of
    the upper 3x3 block and non-vanishing of the lower-left row. Zero
    for an exact metric upgrade.
    """
    S = np.linalg.solve(np.asarray(Q_true, float), np.asarray(q_prime, float))
    B = S[:3, :3]
    G = B.T @ B
    s2 = np.trace(G) / 3.0
    if s2 <= 0:
        return np.inf
    ortho = float(np.max(np.abs(G - s2 * np.eye(3)))) / s2
    shear = float(np.linalg.norm(S[3, :3])) / np.sqrt(s2)
    return max(ortho, shear)
