"""Order-one line congruences and the cameras they induce.

A congruence of bidegree (1, beta) assigns to a generic space point x
the unique ray of the family through x. Two representations are
implemented: the normal form whose companion point has coordinates
(x1 f, x2 f, g, h) for forms f, g, h in (x1, x2), and the two-slit
form whose ray is the transversal through x to two fixed skew lines.

A quadratic camera couples a two-slit congruence with a retinal frame:
the image of x is the frame coordinates of the point where the ray
through x pierces the retinal plane, computed as three quadratic forms
in x without ever intersecting the ray explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .projective import COARSE_TOL, ZERO_TOL
from .projective import (
    RetinalFrame,
    _count,
    as_array,
    as_vector,
    dual_matrix,
    join_line_point,
    join_points,
    line_in_plane,
    lines_meet,
    meet_line_plane,
    negligible,
    plane_meet_plane,
    point_on_line,
    primal_matrix,
    proj_equal,
    validate_line,
)


def _form_eval(coeffs, x1, x2):
    """Evaluate a homogeneous bivariate form; coeffs[k] scales x1^(m-k) x2^k."""
    m = coeffs.size - 1
    return float(sum(c * x1 ** (m - k) * x2 ** k for k, c in enumerate(coeffs)))


@dataclass(frozen=True, eq=False)
class GeneralCongruence:
    """Normal-form order-one congruence of bidegree (1, beta).

    f has degree beta - 1 (empty for beta = 0), g and h have degree
    beta; the ray through x joins x to (x1 f, x2 f, g, h).
    """

    beta: int
    f: np.ndarray
    g: np.ndarray
    h: np.ndarray

    def __post_init__(self):
        beta = _count(self.beta, "beta")
        if beta < 0:
            raise ValidationError(f"beta cannot be negative, got {beta}")
        f = as_array(self.f, (beta,), "f")
        g = as_array(self.g, (beta + 1,), "g")
        h = as_array(self.h, (beta + 1,), "h")
        if beta >= 1 and not np.any(f):
            raise ValidationError("f must be nonzero for beta >= 1")
        if not np.any(g) and not np.any(h):
            raise ValidationError("g and h cannot both vanish")
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "h", h)

    def companion_point(self, x):
        x = as_vector(x, 4, "point")
        fv = _form_eval(self.f, x[0], x[1])
        return np.array([
            x[0] * fv,
            x[1] * fv,
            _form_eval(self.g, x[0], x[1]),
            _form_eval(self.h, x[0], x[1]),
        ])


def essential_map_general(congruence, x):
    """Ray of a normal-form congruence through the point x.

    Raises ValidationError at base points, where x and its companion
    point coincide or the companion vanishes.
    """
    x = as_vector(x, 4, "point")
    z = congruence.companion_point(x)
    coeff = max(np.linalg.norm(congruence.f) if congruence.beta else 0.0,
                np.linalg.norm(congruence.g), np.linalg.norm(congruence.h))
    if negligible(z, coeff * np.linalg.norm(x) ** congruence.beta):
        raise ValidationError("base point: companion point vanishes")
    if proj_equal(x, z):
        raise ValidationError("base point: ray through x is undetermined")
    return join_points(x, z)


@dataclass(frozen=True, eq=False)
class TwoSlitCongruence:
    """Congruence of transversals to two fixed skew lines."""

    slit1: np.ndarray
    slit2: np.ndarray

    def __post_init__(self):
        l1 = validate_line(self.slit1)
        l2 = validate_line(self.slit2)
        if lines_meet(l1, l2):
            raise ValidationError("slits must be skew (their pairing vanishes)")
        object.__setattr__(self, "slit1", l1)
        object.__setattr__(self, "slit2", l2)

    @classmethod
    def from_point_pairs(cls, x1, y1, x2, y2):
        return cls(join_points(x1, y1), join_points(x2, y2))


def two_slit_essential(congruence, x):
    """Transversal through x to both slits: meet of the planes x v slit_i."""
    x = as_vector(x, 4, "point")
    if point_on_line(congruence.slit1, x):
        raise ValidationError("point lies on the first slit; its ray is undetermined")
    if point_on_line(congruence.slit2, x):
        raise ValidationError("point lies on the second slit; its ray is undetermined")
    a = join_line_point(congruence.slit1, x)
    b = join_line_point(congruence.slit2, x)
    return plane_meet_plane(a, b)


@dataclass(frozen=True, eq=False)
class QuadraticCamera:
    """Two-slit congruence plus a retinal frame; projects by quadratic forms."""

    congruence: TwoSlitCongruence
    frame: RetinalFrame

    def __post_init__(self):
        for l in (self.congruence.slit1, self.congruence.slit2):
            if line_in_plane(l, self.frame.plane):
                raise ValidationError("a slit lies in the retinal plane")

    def _matrices(self):
        y1, y2, y3 = self.frame.points
        S = (
            primal_matrix(join_points(y2, y3)),
            primal_matrix(join_points(y3, y1)),
            primal_matrix(join_points(y1, y2)),
        )
        P1s = dual_matrix(self.congruence.slit1)
        P2s = dual_matrix(self.congruence.slit2)
        return P1s, S, P2s


def quadratic_project(camera, x):
    """Image of x: three quadratic forms u_i = x^T P1* S_i P2* x."""
    x = as_vector(x, 4, "point")
    P1s, S, P2s = camera._matrices()
    a = P1s @ x
    b = P2s @ x
    u = np.array([a @ Si @ b for Si in S])
    scale = np.linalg.norm(x) ** 2 * max(np.linalg.norm(Si) for Si in S)
    scale *= np.linalg.norm(camera.congruence.slit1) * np.linalg.norm(camera.congruence.slit2)
    if negligible(u, scale):
        if point_on_line(camera.congruence.slit1, x) or point_on_line(
                camera.congruence.slit2, x):
            raise ValidationError("point lies on a slit; projection undefined")
        raise ValidationError("projection undefined at this point (base line of the frame)")
    return u


def inverse_project(camera, u):
    """Ray that a retinal point u came from.

    The two frame points lying on the slits are sent to the slits
    themselves: the ray family degenerates there and the slit is the
    geometric limit.
    """
    x = camera.frame.point(u)
    if point_on_line(camera.congruence.slit1, x):
        return camera.congruence.slit1.copy()
    if point_on_line(camera.congruence.slit2, x):
        return camera.congruence.slit2.copy()
    return two_slit_essential(camera.congruence, x)


def _third_point(congruence, frame, y1h, y2h):
    """Deterministic choice of an on-plane point off both slits and off y1h v y2h."""
    base = join_points(y1h, y2h)
    weights = [(1.0, 1.0, 1.0), (1.0, 2.0, 3.0), (2.0, -1.0, 1.0), (1.0, 0.0, 0.0),
               (0.0, 1.0, 0.0), (0.0, 0.0, 1.0), (3.0, 5.0, -2.0)]
    for w in weights:
        y = frame.basis @ np.asarray(w)
        if np.linalg.norm(y) < ZERO_TOL:
            continue
        if not any(point_on_line(l, y, tol=COARSE_TOL)
                   for l in (base, congruence.slit1, congruence.slit2)):
            return y
    raise ValidationError("could not find a generic third point on the retinal plane")


def transversal_homography(congruence, frame, target_plane, target_frame=None):
    """Transfer map between retinal planes induced by the congruence.

    Sends the frame coordinates of y on the source plane to the frame
    coordinates of ray(y) meet target_plane. Returns (H, frame') where
    H is 3x3 and frame' lies on the target plane; with the default
    canonical target frame H is the identity.
    """
    target_plane = as_vector(target_plane, 4, "plane")
    if proj_equal(target_plane, frame.plane):
        if target_frame is None:
            return np.eye(3), frame
        H = np.stack([target_frame.coords(frame.basis[:, i]) for i in range(3)], axis=1)
        return H, target_frame

    delta = plane_meet_plane(frame.plane, target_plane)
    for l in (congruence.slit1, congruence.slit2):
        if not lines_meet(delta, l):
            raise ValidationError(
                "the planes' common line misses a slit; the transfer map is "
                "quadratic there, not a homography")

    pi = frame.plane
    y1h = meet_line_plane(congruence.slit2, pi)
    y2h = meet_line_plane(congruence.slit1, pi)
    y3h = _third_point(congruence, frame, y1h, y2h)
    p1 = join_line_point(congruence.slit1, y3h)
    p2 = -join_line_point(congruence.slit1, y1h)
    q1 = join_line_point(congruence.slit2, y3h)
    q2 = -join_line_point(congruence.slit2, y2h)

    y1t = -meet_line_plane(plane_meet_plane(p2, q1), target_plane)
    y2t = -meet_line_plane(plane_meet_plane(p1, q2), target_plane)
    y3t = meet_line_plane(plane_meet_plane(p1, q1), target_plane)

    intrinsic = RetinalFrame(np.stack([y1h, y2h, y3h], axis=1))
    G = np.stack([intrinsic.coords(frame.basis[:, i]) for i in range(3)], axis=1)
    carried = RetinalFrame(np.stack([y1t, y2t, y3t], axis=1) @ G)

    if target_frame is None:
        return np.eye(3), carried
    H = np.stack([target_frame.coords(carried.basis[:, i]) for i in range(3)], axis=1)
    return H, target_frame
