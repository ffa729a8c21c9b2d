"""Linear model of two-slit and pushbroom cameras.

A camera is a pair of 2x4 matrices (A1, A2). The image of a space
point x is u = (p1.x q2.x, p2.x q1.x, p2.x q2.x) where p1, p2 are the
rows of A1 and q1, q2 the rows of A2. The null spaces of A1 and A2 are
the two slits. Each 2x4 matrix is meaningful up to its own scale, so
cameras are compared matrix by matrix with scale_free_gap; the matrices
themselves are stored as given so that exact integer data stays exact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .congruence import QuadraticCamera, TwoSlitCongruence
from .projective import COARSE_TOL, FIT_TOL, NEAR_TOL, TINY, TOL, ZERO_TOL
from .projective import (
    RetinalFrame,
    as_array,
    as_vector,
    join_line_point,
    join_points,
    line_in_plane,
    meet_line_plane,
    negligible,
    plane_meet_plane,
    point_on_line,
    pow2_scaled,
    scale_free_gap,
)


def _check_rig(A):
    """Raise the ValidationError of the first invalid camera of an
    (n, 2, 2, 4) float stack of (A1, A2) pairs.

    A rank-deficient pair makes the stack of the unit-norm pairs
    singular too (the stack's s4 is at most the pair's s2, its s1 at
    least the pair's s1), so one batched SVD decides for the whole rig;
    a camera with a non-finite entry enters it as zeros and fails, as
    does a zero pair. Only the first failing camera gets the per-pair
    checks that name the fault."""
    if A.ndim != 4 or A.shape[1:] != (2, 2, 4):
        raise ValidationError(f"camera stack must be (n, 2, 2, 4), got {A.shape}")
    B = A
    if not np.isfinite(A).all():
        B = np.where(np.isfinite(A).all(axis=(1, 2, 3))[:, None, None, None], A, 0.0)
    B = pow2_scaled(B, axis=(2, 3))  # so that no squared norm overflows or underflows
    norms = np.sqrt((B * B).sum(axis=(2, 3), keepdims=True))
    s = np.linalg.svd((B / np.maximum(norms, TINY)).reshape(-1, 4, 4), compute_uv=False)
    bad = s[:, 3] <= TOL * s[:, 0]
    if not bad.any():
        return
    pair = tuple(zip(("A1", "A2"), A[np.argmax(bad)]))
    for name, M in pair:
        if not np.all(np.isfinite(M)):
            raise ValidationError(f"{name} has non-finite entries")
    for name, M in pair:
        s = np.linalg.svd(M, compute_uv=False)
        if s[1] <= TOL * s[0]:
            raise ValidationError(f"{name} is rank deficient; its null space is not a line")
    raise ValidationError("slits intersect: the stacked 4x4 matrix is singular")


def _rig(A):
    """The cameras of an (n, 2, 2, 4) stack of (A1, A2) pairs, checked
    by one _check_rig call instead of one __post_init__ each; each
    camera holds views into the stack. _stack is its inverse."""
    A = np.asarray(A, dtype=float)
    _check_rig(A)
    cams = []
    for A1, A2 in zip(A[:, 0], A[:, 1]):
        cam = object.__new__(TwoSlitCamera)
        object.__setattr__(cam, "A1", A1)
        object.__setattr__(cam, "A2", A2)
        cams.append(cam)
    return cams


def _stack(cameras):
    """The rig layout every stage shares: a (k, 2, 2, 4) float copy."""
    return np.array([(cam.A1, cam.A2) for cam in cameras], dtype=float).reshape(-1, 2, 2, 4)


@dataclass(frozen=True, eq=False)
class TwoSlitCamera:
    """Pair of 2x4 matrices with skew slits (disjoint null lines)."""

    A1: np.ndarray
    A2: np.ndarray

    def __post_init__(self):
        A1, A2 = as_array(self.A1, (2, 4), "A1"), as_array(self.A2, (2, 4), "A2")
        _check_rig(np.array([(A1, A2)]))
        object.__setattr__(self, "A1", A1)
        object.__setattr__(self, "A2", A2)


def camera_distance(cam1, cam2):
    """The larger scale_free_gap of the two cameras' A1 and A2 matrices:
    each matrix counts only up to its own nonzero scale and sign."""
    return max(scale_free_gap(cam1.A1, cam2.A1), scale_free_gap(cam1.A2, cam2.A2))


def cameras_equal(cam1, cam2, tol=TOL):
    return camera_distance(cam1, cam2) < tol


def _images(R, X):
    """Images of the rows of a finite, nonzero (n, 4) point array through
    each camera of a (k, 2, 2, 4) rig, as a (k, n, 3) array, and the
    (k, n) mask of images that exist, from one product for the rig. A
    point off its camera's mask lies on a slit or on the base line
    p2.x = q2.x = 0."""
    a, b, c, d = (X @ R.reshape(-1, 4).T).T.reshape(-1, 4, len(X)).swapaxes(0, 1)
    u = np.stack([a * d, b * c, b * d], axis=2)
    n = np.linalg.norm(R, axis=(2, 3))
    nx = np.linalg.norm(X, axis=1)
    return u, np.linalg.norm(u, axis=2) >= TOL * nx ** 2 * n[:, :1] * n[:, 1:]


def project_points(camera, points):
    """Images (p1.x q2.x, p2.x q1.x, p2.x q2.x) of the rows of an (n, 4)
    point array, as an (n, 3) array; raises if any row has no image."""
    X = as_array(points, (-1, 4), "point")
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is caught below
        if np.any(np.linalg.norm(X, axis=1) == 0.0):
            raise ValidationError("point is the zero vector, which has no projective meaning")
        (u,), (defined,) = _images(_stack([camera]), X)
        if not np.all(np.isfinite(u)):
            raise ValidationError("image of the point overflows a float")
        if not np.all(defined):
            x = X[np.argmin(defined)]
            if any(negligible(A @ x, np.linalg.norm(x) * np.linalg.norm(A), NEAR_TOL)
                   for A in (camera.A1, camera.A2)):
                raise ValidationError("point lies on a slit; projection undefined")
            raise ValidationError(
                "projection undefined: point lies on the base line p2.x = q2.x = 0")
    return u


def project(camera, x):
    """Image point (p1.x q2.x, p2.x q1.x, p2.x q2.x)."""
    return project_points(camera, as_array(x, (4,), "point")[None])[0]


def slits(camera):
    """Plucker coordinates of the two slit lines (null spaces of A1, A2)."""
    out = []
    for A in (camera.A1, camera.A2):
        _, _, Vt = np.linalg.svd(A)
        out.append(join_points(Vt[2], Vt[3]))
    return out[0], out[1]


def inverse_ray(camera, u):
    """Space ray imaged at u: the meet of one plane from each row pair.

    The special points (1,0,0) and (0,1,0) are the images of entire
    slits; the corresponding slit is returned for them.
    """
    u = as_vector(u, 3, "image point")
    p1, p2 = camera.A1
    q1, q2 = camera.A2
    w1 = u[2] * p1 - u[0] * p2
    w2 = u[2] * q1 - u[1] * q2
    l1, l2 = slits(camera)
    if negligible(w2, np.linalg.norm(u) * np.linalg.norm(camera.A2)):
        return l2
    if negligible(w1, np.linalg.norm(u) * np.linalg.norm(camera.A1)):
        return l1
    return plane_meet_plane(w1, w2)


def base_line(camera):
    """Line p2 = q2 = 0 common to all admissible retinal planes."""
    return plane_meet_plane(camera.A1[1], camera.A2[1])


def default_retinal_plane(camera):
    """Plane of the admissible pencil through a fixed generic probe point."""
    b = base_line(camera)
    for probe in ((1.0, 1.0, 1.0, 1.0), (1.0, -1.0, 1.0, -1.0), (0.0, 0.0, 0.0, 1.0),
                  (1.0, 2.0, 3.0, 4.0)):
        z = np.asarray(probe)
        if not point_on_line(b, z, tol=COARSE_TOL):
            return join_line_point(b, z)
    raise ValidationError("no usable default retinal plane found")


def to_quadratic(camera, plane=None):
    """Quadratic-camera form of a linear two-slit camera.

    The retinal plane must contain the base line; the default is the
    pencil member through a fixed probe point. The returned camera
    reproduces the linear projection up to one overall factor that is
    constant across the image, so no compensating projectivity is
    needed and the choice of plane does not change the image map.
    """
    p1, p2 = camera.A1
    q1, q2 = camera.A2
    b = base_line(camera)
    if plane is None:
        plane = default_retinal_plane(camera)
    else:
        plane = as_vector(plane, 4, "plane")
        if not line_in_plane(b, plane, tol=NEAR_TOL):
            raise ValidationError("retinal plane must contain the base line")

    l1, l2 = slits(camera)
    y1 = meet_line_plane(l2, plane)
    y2 = meet_line_plane(l1, plane)
    y3 = meet_line_plane(plane_meet_plane(p1, q1), plane)

    pairs = ((p1, y1), (q1, y2), (p2, y3), (q2, y3))
    if any(negligible(r @ y, np.linalg.norm(r) * np.linalg.norm(y), ZERO_TOL) for r, y in pairs):
        raise ValidationError("degenerate frame for this retinal plane")
    s1, s2, ref, ref2 = (float(r @ y) for r, y in pairs)
    y1 = y1 * (ref / s1)
    y2 = y2 * (ref2 / s2)

    frame = RetinalFrame(np.stack([y1, y2, y3], axis=1), plane=plane)
    return QuadraticCamera(TwoSlitCongruence(l1, l2), frame)


def _at_infinity(A):
    """True when the slit of A lies at infinity: its second row is that plane."""
    return negligible(A[1, :3], np.linalg.norm(A))


def is_parallel(camera):
    """True when both slits are finite and parallel to a common direction;
    FIT_TOL bounds the sine of the angle between them."""
    if _at_infinity(camera.A1) or _at_infinity(camera.A2):
        return False
    m1, m2 = camera.A1[1, :3], camera.A2[1, :3]
    return negligible(np.cross(m1, m2), np.linalg.norm(m1) * np.linalg.norm(m2), FIT_TOL)


@dataclass(frozen=True, eq=False)
class ParallelDecomposition:
    """Euclidean invariants of a camera with parallel finite slits.

    A1 = K1 [r1 t1; r3 t3], A2 = K2 [r2 t2; r3 t4] with unit rows,
    r1, r2 orthogonal to the shared direction r3, and K upper
    triangular with positive diagonal, normalized so K[1,1] = 1.
    theta is the angle between the slit-pencil planes and d the
    distance between the slits along r3.
    """

    K1: np.ndarray
    K2: np.ndarray
    r1: np.ndarray
    r2: np.ndarray
    r3: np.ndarray
    t: np.ndarray  # (t1, t2, t3, t4)
    theta: float
    d: float

    def rebuild(self):
        t1, t2, t3, t4 = self.t
        A1 = self.K1 @ np.vstack([np.append(self.r1, t1), np.append(self.r3, t3)])
        A2 = self.K2 @ np.vstack([np.append(self.r2, t2), np.append(self.r3, t4)])
        return TwoSlitCamera(A1, A2)

    def intrinsics(self):
        """Magnification/offset per image axis; the v-axis figures use the
        convention in which the second pencil carries a factor 2."""
        return {
            "fu": float(self.K1[0, 0]),
            "u0": float(self.K1[0, 1]),
            "fv": float(self.K2[0, 0]) / 2.0,
            "v0": float(self.K2[0, 1]) / 2.0,
        }


def _rq_2x3(M, rb=None):
    """M = K @ [ra; rb] with ra, rb unit rows, K = [[k11, k12], [0, k22]]
    with positive k11, for one (2, 3) M or a stack of them. rb defaults to
    M's own second-row direction; a shared direction may be passed instead,
    in which case any component of M off that direction is projected away."""
    if rb is None:
        rb = M[..., 1, :] / np.linalg.norm(M[..., 1, :], axis=-1, keepdims=True)
    k22 = np.sum(M[..., 1, :] * rb, axis=-1)
    k12 = np.sum(M[..., 0, :] * rb, axis=-1)
    res = M[..., 0, :] - k12[..., None] * rb
    k11 = np.linalg.norm(res, axis=-1)
    if np.any(k11 < ZERO_TOL * np.linalg.norm(M, axis=(-2, -1))):
        raise ValidationError("camera rows share a direction; triangular form impossible")
    K = np.stack([np.stack([k11, k12], -1), np.stack([np.zeros_like(k22), k22], -1)], -2)
    return K, res / k11[..., None], rb


def decompose_parallel(camera):
    """Split a parallel-slit camera into intrinsics and euclidean pose data."""
    if _at_infinity(camera.A1) or _at_infinity(camera.A2):
        raise ValidationError("a slit lies at infinity; parallel decomposition undefined")
    if not is_parallel(camera):
        raise ValidationError("slits are not parallel")
    n1 = np.linalg.norm(camera.A1[1, :3])
    A1 = camera.A1 / n1
    A2 = camera.A2 / float(camera.A2[1, :3] @ (camera.A1[1, :3] / n1))

    K1, r1, r3 = _rq_2x3(A1[:, :3])
    K2, r2, _ = _rq_2x3(A2[:, :3], rb=r3)
    t1, t3 = np.linalg.solve(K1, A1[:, 3])
    t2, t4 = np.linalg.solve(K2, A2[:, 3])
    theta = float(np.arccos(np.clip(r1 @ r2, -1.0, 1.0)))
    return ParallelDecomposition(
        K1=K1, K2=K2, r1=r1, r2=r2, r3=r3,
        t=np.array([t1, t2, t3, t4]),
        theta=theta, d=abs(float(t4 - t3)),
    )


@dataclass(frozen=True, eq=False)
class PushbroomDecomposition:
    """Euclidean invariants of a pushbroom camera.

    A1 = K1 [r1 t1; 0 0 0 1] with K1 = diag(speed, 1), and
    A2 = K2 [r2 t2; r3 t3] with K2 = [[f, u], [0, 1]]; r1 is the sweep
    direction, orthogonal to r3.
    """

    K1: np.ndarray
    K2: np.ndarray
    r1: np.ndarray
    r2: np.ndarray
    r3: np.ndarray
    t: np.ndarray  # (t1, t2, t3)
    theta: float

    def rebuild(self):
        t1, t2, t3 = self.t
        A1 = self.K1 @ np.vstack([np.append(self.r1, t1), [0.0, 0.0, 0.0, 1.0]])
        A2 = self.K2 @ np.vstack([np.append(self.r2, t2), np.append(self.r3, t3)])
        return TwoSlitCamera(A1, A2)


def decompose_pushbroom(camera):
    """Split a pushbroom camera (A1 second row = plane at infinity)."""
    if not _at_infinity(camera.A1) or camera.A1[1, 3] == 0.0:
        raise ValidationError(
            "not a pushbroom camera: A1's second row must be the plane at infinity")
    A1 = camera.A1 / camera.A1[1, 3]
    m1 = A1[0, :3]
    nm1 = np.linalg.norm(m1)
    if nm1 < TOL:
        raise ValidationError("sweep direction vanishes")
    if _at_infinity(camera.A2):
        raise ValidationError("second slit lies at infinity; pushbroom form needs it finite")
    m3 = camera.A2[1, :3]
    nm3 = np.linalg.norm(m3)
    if not negligible(m1 @ m3, nm1 * nm3):
        raise ValidationError(
            "sweep direction must be orthogonal to the second camera's view direction")

    r1 = m1 / nm1
    K1 = np.array([[nm1, 0.0], [0.0, 1.0]])
    t1 = A1[0, 3] / nm1

    A2 = camera.A2 / nm3
    K2, r2, r3 = _rq_2x3(A2[:, :3])
    t2, t3 = np.linalg.solve(K2, A2[:, 3])
    theta = float(np.arccos(np.clip(r1 @ r2, -1.0, 1.0)))
    return PushbroomDecomposition(
        K1=K1, K2=K2, r1=r1, r2=r2, r3=r3,
        t=np.array([t1, t2, t3]), theta=theta,
    )


def apply_space_transform(camera, H):
    """Camera watching the scene moved by x -> H x (right-composes H^-1)."""
    H = as_array(H, (4, 4), "space transform")
    s = np.linalg.svd(H, compute_uv=False)
    if s[3] <= ZERO_TOL * s[0]:
        raise ValidationError("space transform is singular")
    Hinv = np.linalg.inv(H)
    return TwoSlitCamera(camera.A1 @ Hinv, camera.A2 @ Hinv)
