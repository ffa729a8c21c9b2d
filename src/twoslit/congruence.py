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
from .projective import COARSE_TOL, TOL, ZERO_TOL
from .projective import (
    RetinalFrame,
    _count,
    _dot,
    _dual,
    _incident,
    _join_line_point,
    _meet_line_plane,
    _plane_meet_plane,
    _primal,
    _through,
    as_array,
    as_vector,
    join_points,
    line_to_image_map,
    lines_meet,
    negligible,
    point_on_line,
    pow2_scaled,
    proj_equal,
    validate_line,
)


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
        with np.errstate(over="ignore", invalid="ignore"):  # overflow is caught below
            # each form times its monomial vector, x1^(m - k) x2^k for k = 0..m
            f, g, h = (c @ (x[0] ** np.arange(c.size - 1, -1, -1) * x[1] ** np.arange(c.size))
                       for c in (self.f, self.g, self.h))
            z = np.array([x[0] * f, x[1] * f, g, h])
        if not np.all(np.isfinite(z)):
            raise ValidationError("companion point overflows a float")
        return z


def essential_map_general(congruence, x):
    """Ray of a normal-form congruence through the point x.

    Raises ValidationError at base points, where x and its companion
    point coincide or the companion vanishes.
    """
    x = as_vector(x, 4, "point")
    z = congruence.companion_point(x)
    coeff = max(np.linalg.norm(c) for c in (congruence.f, congruence.g, congruence.h))
    with np.errstate(over="ignore"):  # a finite z is negligible beside an infinite scale
        scale = coeff * np.linalg.norm(x) ** congruence.beta
    if negligible(z, scale):
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
    a = _through(_dual, congruence.slit1, x, "point lies on the first slit; its ray is undetermined")
    b = _through(_dual, congruence.slit2, x, "point lies on the second slit; its ray is undetermined")
    return _plane_meet_plane(a, b)


@dataclass(frozen=True, eq=False)
class QuadraticCamera:
    """Two-slit congruence plus a retinal frame; projects by quadratic forms x^T P1* S_i P2* x,
    built at construction: P1*, P2* dual to the slits, S_i to the rows of line_to_image_map(frame)."""

    congruence: TwoSlitCongruence
    frame: RetinalFrame

    def __post_init__(self):
        slits = np.stack([self.congruence.slit1, self.congruence.slit2])
        L, w = pow2_scaled(slits, axis=-1), pow2_scaled(self.frame.plane)
        if _incident(_primal(L) @ w, L, w, TOL).any():
            raise ValidationError("a slit lies in the retinal plane")
        S = _dual(line_to_image_map(self.frame))
        object.__setattr__(self, "_forms", (*_dual(slits), S, max(np.linalg.norm(Si) for Si in S),
                                            np.linalg.norm(slits[0]) * np.linalg.norm(slits[1])))


def quadratic_project(camera, x):
    """Image of x: three quadratic forms u_i = x^T P1* S_i P2* x."""
    x = as_vector(x, 4, "point")
    P1s, P2s, S, s_max, slit_norms = camera._forms
    u = _dot(P1s @ x @ S, P2s @ x)
    if negligible(u, np.linalg.norm(x) ** 2 * s_max * slit_norms):
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
    for l in (camera.congruence.slit1, camera.congruence.slit2):
        if point_on_line(l, x):
            return l.copy()
    return two_slit_essential(camera.congruence, x)


def _third_point(congruence, frame, y1h, y2h):
    """Deterministic choice of an on-plane point off both slits and off y1h v y2h."""
    L = pow2_scaled(np.stack([join_points(y1h, y2h), congruence.slit1, congruence.slit2]), axis=-1)
    weights = [(1.0, 1.0, 1.0), (1.0, 2.0, 3.0), (2.0, -1.0, 1.0), (1.0, 0.0, 0.0),
               (0.0, 1.0, 0.0), (0.0, 0.0, 1.0), (3.0, 5.0, -2.0)]
    for w in weights:
        y = frame.basis @ np.asarray(w)
        if np.linalg.norm(y) < ZERO_TOL:
            continue
        z = pow2_scaled(y)
        if not _incident(_dual(L) @ z, L, z, COARSE_TOL).any():
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
    carried = frame
    if not proj_equal(target_plane, frame.plane):
        delta = _plane_meet_plane(frame.plane, target_plane)
        for l in (congruence.slit1, congruence.slit2):
            if not lines_meet(delta, l):
                raise ValidationError(
                    "the planes' common line misses a slit; the transfer map is "
                    "quadratic there, not a homography")

        y1h = _meet_line_plane(congruence.slit2, frame.plane)
        y2h = _meet_line_plane(congruence.slit1, frame.plane)
        y3h = _third_point(congruence, frame, y1h, y2h)
        p1 = _join_line_point(congruence.slit1, y3h)
        p2 = -_join_line_point(congruence.slit1, y1h)
        q1 = _join_line_point(congruence.slit2, y3h)
        q2 = -_join_line_point(congruence.slit2, y2h)

        y1t = -_meet_line_plane(_plane_meet_plane(p2, q1), target_plane)
        y2t = -_meet_line_plane(_plane_meet_plane(p1, q2), target_plane)
        y3t = _meet_line_plane(_plane_meet_plane(p1, q1), target_plane)

        intrinsic = RetinalFrame(np.stack([y1h, y2h, y3h], axis=1))
        G = np.stack([intrinsic.coords(frame.basis[:, i]) for i in range(3)], axis=1)
        carried = RetinalFrame(np.stack([y1t, y2t, y3t], axis=1) @ G)

    if target_frame is None:
        return np.eye(3), carried
    H = np.stack([target_frame.coords(carried.basis[:, i]) for i in range(3)], axis=1)
    return H, target_frame
