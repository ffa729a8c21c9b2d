"""Projective line geometry in P^3.

Points and planes are length-4 arrays, lines are length-6 Plucker
coordinate arrays ordered (l41, l42, l43, l23, l31, l12). With that
ordering the join of x and y reads off the matrix x y^T - y x^T, the
dual (plane-pair) coordinates are the same six numbers with the two
halves swapped, and a line is valid iff it satisfies the quadric
constraint l . star(l) = 0.

Everything is dimensionless and scale-free; all tolerance checks are
performed on residuals normalized by the magnitudes of the operands.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError

# The package's tolerance table, tightest level first.
TINY = 1e-300  # a norm below this is zero; guards divisions only
ROUNDOFF = 1e-14  # a relative size that a few double operations round to
ZERO_TOL = 1e-12  # a relative pivot, singular value, root or entry that is zero
TOL = 1e-9  # incidence, equality and rank of exact data
FIT_TOL = 1e-8  # a quantity recovered from exact data through solves and roots
NEAR_TOL = 1e-7  # incidence of a given point or plane with a constructed one
COARSE_TOL = 1e-6  # agreement after long arithmetic; a probe's margin off a line


def negligible(residual, scale, tol=TOL):
    """True when the norm of residual is below tol times scale, the
    product of the sizes of the operands that produced it."""
    return np.linalg.norm(residual) < tol * scale


def as_vector(x, size, name="vector"):
    v = np.asarray(x, dtype=float).reshape(-1)
    if v.shape != (size,):
        raise ValidationError(f"{name} must have {size} entries, got shape {np.shape(x)}")
    if not np.all(np.isfinite(v)):
        raise ValidationError(f"{name} has non-finite entries")
    if np.linalg.norm(v) == 0.0:
        raise ValidationError(f"{name} is the zero vector, which has no projective meaning")
    return v


def cosine_distance(a, b):
    """1 - |cos angle| between two vectors; 0 means projectively equal."""
    a = np.asarray(a, float).reshape(-1)
    b = np.asarray(b, float).reshape(-1)
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        return 1.0
    return 1.0 - abs(float(a @ b)) / (na * nb)


def proj_equal(a, b, tol=TOL):
    """True when a and b agree up to a nonzero scale (either sign)."""
    return cosine_distance(a, b) < tol


def join_points(x, y):
    """Plucker coordinates of the line through two distinct points.

    Parameters
    ----------
    x, y : array-like, shape (4,)
        Homogeneous points of P^3.

    Returns
    -------
    ndarray, shape (6,)
        (l41, l42, l43, l23, l31, l12) with l_ij = x_i y_j - x_j y_i.
    """
    x = as_vector(x, 4, "point")
    y = as_vector(y, 4, "point")
    if proj_equal(x, y):
        raise ValidationError("coincident points do not span a line")
    L = np.outer(x, y) - np.outer(y, x)
    return line_from_primal(L)


def line_from_primal(L):
    """Extract Plucker coordinates from an antisymmetric primal matrix."""
    L = np.asarray(L, float)
    return np.array([L[3, 0], L[3, 1], L[3, 2], L[1, 2], L[2, 0], L[0, 1]])


def line_star(l):
    """Dual Plucker coordinates: swap the (l41,l42,l43) and (l23,l31,l12) halves."""
    l = as_vector(l, 6, "line")
    return np.concatenate([l[3:], l[:3]])


def primal_matrix(l):
    """Antisymmetric 4x4 matrix L of a line; L @ w is the meet of l with plane w."""
    l41, l42, l43, l23, l31, l12 = as_vector(l, 6, "line")
    return np.array([
        [0.0, l12, -l31, -l41],
        [-l12, 0.0, l23, -l42],
        [l31, -l23, 0.0, -l43],
        [l41, l42, l43, 0.0],
    ])


def dual_matrix(l):
    """Antisymmetric 4x4 matrix L*; L* @ z is the join of l with point z."""
    return primal_matrix(line_star(l))


def quadric_residual(l):
    """Scale-free residual of the quadric constraint; ~0 for genuine lines."""
    l = as_vector(l, 6, "line")
    n = float(l @ l)
    return abs(float(l @ line_star(l))) / n


def validate_line(l, tol=COARSE_TOL):
    l = as_vector(l, 6, "line")
    if quadric_residual(l) > tol:
        raise ValidationError("coordinates violate the line quadric constraint")
    return l


def plucker_pairing(l, m):
    """Bilinear pairing l . star(m); zero iff the two lines meet."""
    l = as_vector(l, 6, "line")
    m = as_vector(m, 6, "line")
    return float(l @ line_star(m))


def lines_meet(l, m, tol=TOL):
    return negligible(plucker_pairing(l, m), np.linalg.norm(l) * np.linalg.norm(m), tol)


def point_on_line(l, x, tol=TOL):
    """True when x is incident with l (the join degenerates)."""
    l = as_vector(l, 6, "line")
    x = as_vector(x, 4, "point")
    return negligible(dual_matrix(l) @ x, np.linalg.norm(l) * np.linalg.norm(x), tol)


def line_in_plane(l, w, tol=TOL):
    """True when every point of l lies on the plane w."""
    l = as_vector(l, 6, "line")
    w = as_vector(w, 4, "plane")
    return negligible(primal_matrix(l) @ w, np.linalg.norm(l) * np.linalg.norm(w), tol)


def meet_line_plane(l, w):
    """Intersection point of a line with a plane not containing it."""
    l = as_vector(l, 6, "line")
    w = as_vector(w, 4, "plane")
    p = primal_matrix(l) @ w
    if negligible(p, np.linalg.norm(l) * np.linalg.norm(w)):
        raise ValidationError("line lies in the plane; their meet is not a point")
    return p


def join_line_point(l, z):
    """Plane spanned by a line and a point not on it."""
    l = as_vector(l, 6, "line")
    z = as_vector(z, 4, "point")
    w = dual_matrix(l) @ z
    if negligible(w, np.linalg.norm(l) * np.linalg.norm(z)):
        raise ValidationError("point lies on the line; their join is not a plane")
    return w


def plane_meet_plane(u, v):
    """Plucker coordinates of the line where two distinct planes intersect."""
    u = as_vector(u, 4, "plane")
    v = as_vector(v, 4, "plane")
    if proj_equal(u, v):
        raise ValidationError("coincident planes do not meet in a line")
    # u v^T - v u^T is the *dual* matrix of the intersection line.
    M = np.outer(u, v) - np.outer(v, u)
    return line_star(line_from_primal(M))


@dataclass(frozen=True, eq=False)
class RetinalFrame:
    """Projective basis of a plane in P^3.

    basis holds the three base points as columns of a 4x3 matrix; their
    relative scales are part of the data (they fix the unit point of the
    frame). plane is the common plane of the three points.
    """

    basis: np.ndarray
    plane: np.ndarray = field(default=None)

    def __post_init__(self):
        Y = np.asarray(self.basis, float)
        if Y.shape != (3, 4) and Y.shape != (4, 3):
            raise ValidationError(f"frame basis must be 4x3, got {Y.shape}")
        if Y.shape == (3, 4):
            Y = Y.T
        s = np.linalg.svd(Y, compute_uv=False)
        if s[2] < ZERO_TOL * s[0]:
            raise ValidationError("frame points are collinear or coincident")
        object.__setattr__(self, "basis", Y)
        if self.plane is None:
            # null space of Y^T: the plane through all three points
            _, _, Vt = np.linalg.svd(Y.T)
            object.__setattr__(self, "plane", Vt[3])
        else:
            w = as_vector(self.plane, 4, "plane")
            if not negligible(Y.T @ w, np.linalg.norm(w) * np.linalg.norm(Y)):
                raise ValidationError("stated plane does not contain the frame points")
            object.__setattr__(self, "plane", w)

    @classmethod
    def from_points(cls, y1, y2, y3):
        Y = np.stack([as_vector(y1, 4, "point"),
                      as_vector(y2, 4, "point"),
                      as_vector(y3, 4, "point")], axis=1)
        return cls(Y)

    @property
    def points(self):
        return self.basis[:, 0], self.basis[:, 1], self.basis[:, 2]

    def coords(self, y, tol=NEAR_TOL):
        """Frame coordinates of an on-plane point via the pseudoinverse."""
        y = as_vector(y, 4, "point")
        if not negligible(self.plane @ y, np.linalg.norm(self.plane) * np.linalg.norm(y), tol):
            raise ValidationError("point does not lie on the frame's plane")
        Y = self.basis
        return np.linalg.solve(Y.T @ Y, Y.T @ y)

    def point(self, u):
        """Point of the plane with frame coordinates u."""
        u = as_vector(u, 3, "coordinates")
        return self.basis @ u


def line_to_image_map(frame):
    """3x6 matrix sending a line's Plucker coordinates to retinal coordinates.

    Row i is the dual of the line joining the other two base points, so
    applying the matrix to a line l through the plane point y computes
    the frame coordinates of y without knowing y itself.
    """
    y1, y2, y3 = frame.points
    return np.stack([
        line_star(join_points(y2, y3)),
        line_star(join_points(y3, y1)),
        line_star(join_points(y1, y2)),
    ])
