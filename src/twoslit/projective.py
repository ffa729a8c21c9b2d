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


def as_array(x, shape, name):
    """x as a finite float array of the given shape, where one axis of
    length -1 takes any length and a vector shape (k,) the entries of any
    array in C order. Otherwise one ValidationError names the argument:
    "<name> must be <shape>, got ..." for a value numpy cannot convert or
    of another shape, "<name> has non-finite entries" for a NaN or
    infinity. A shape (-1, k) stacks rows that name names one of: the
    stack is "<name>s", which "must be (n, k), rows of k columns"."""
    try:
        a = np.asarray(x, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        got = exc
    else:
        v = a.reshape(-1) if len(shape) == 1 else a
        if v.shape == shape or v.ndim == len(shape) and all(
                k in (-1, m) for k, m in zip(shape, v.shape)):
            if np.isfinite(v).all():
                return v
            raise ValidationError(f"{name} has non-finite entries")
        got = f"shape {a.shape}"
    dims = ["n" if k == -1 else str(k) for k in shape]
    if len(shape) == 2 and shape[0] == -1:
        name, want = name + "s", f"be (n, {dims[1]}), rows of {dims[1]} columns"
    else:
        want = ("be a number" if not shape else f"have {dims[0]} entries" if len(shape) == 1
                else "be " + "x".join(dims))
    raise ValidationError(f"{name} must {want}, got {got}")


def _count(n, name):
    """n as a number of items: an int or numpy integer, not a bool."""
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
        raise ValidationError(f"{name} must be an integer, got {n!r}")
    return int(n)


def as_vector(x, size, name="vector"):
    v = as_array(x, (size,), name)
    if not v.any():
        raise ValidationError(f"{name} is the zero vector, which has no projective meaning")
    return v


def cosine_distance(a, b):
    """1 - |cos angle| between two vectors; 0 means projectively equal."""
    a = as_array(a, (-1,), "a")
    if not a.size:
        raise ValidationError("a must have at least 1 entry, got shape (0,)")
    a = pow2_scaled(a)  # so that no norm overflows or underflows
    b = pow2_scaled(as_array(b, a.shape, "b"))
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        return 1.0
    return 1.0 - abs(float(a @ b)) / (na * nb)


def proj_equal(a, b, tol=TOL):
    """True when a and b agree up to a nonzero scale (either sign)."""
    return cosine_distance(a, b) < tol


def pow2_scaled(a, axis=None):
    """a divided by the power of two that brings its largest absolute
    entry, over the given axes or all of a, into [0.5, 1). The division
    is exact for every entry that stays a normal float, so anything
    homogeneous in a keeps its bits."""
    return np.ldexp(a, -np.frexp(np.abs(a).max(axis=axis, keepdims=True))[1])


def _split(v):
    """(v / 2^e, e), where e puts the largest absolute entry of v / 2^e
    in [0.5, 1): the exact division of pow2_scaled."""
    e = int(np.frexp(np.abs(v).max())[1])
    return np.ldexp(v, -e), e


def _unsplit(out, e):
    """out times 2^e, where every nonzero entry stays a normal float, as
    it does for operands of ordinary size: exact, so a join or meet of
    _split operands keeps the bits of the unscaled one. out itself
    otherwise; the result counts only up to scale."""
    p = np.frexp(out[out != 0])[1] + e
    return np.ldexp(out, e) if p.max() <= 1024 and p.min() >= -1021 else out


def _gaps(a, b):
    """scale_free_gap of each pair of rows of two broadcasting (..., m)
    stacks of nonzero rows, as an array of their shape without m."""
    a, b = pow2_scaled(a, axis=-1), pow2_scaled(b, axis=-1)  # no norm overflows or underflows
    # a row's norm as sqrt(x.dot(x)), the bits of np.linalg.norm: a
    # (1, m) @ (m, 1) product is that dot, where einsum rounds otherwise
    a = a / np.sqrt(a[..., None, :] @ a[..., None])[..., 0]
    b = b / np.sqrt(b[..., None, :] @ b[..., None])[..., 0]
    return np.minimum(np.abs(a - b).max(axis=-1), np.abs(a + b).max(axis=-1))


def scale_free_gap(a, b):
    """Largest entry difference of two nonzero arrays at unit Frobenius
    norm, minimized over both signs; 0 when they agree up to scale."""
    return float(_gaps(np.reshape(a, -1), np.reshape(b, -1)))


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
    (x, ex), (y, ey) = _split(as_vector(x, 4, "point")), _split(as_vector(y, 4, "point"))
    if proj_equal(x, y):
        raise ValidationError("coincident points do not span a line")
    L = np.outer(x, y) - np.outer(y, x)
    return _unsplit(line_from_primal(L), ex + ey)


def line_from_primal(L):
    """Extract Plucker coordinates from an antisymmetric primal matrix."""
    L = as_array(L, (4, 4), "primal matrix")
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
    l = pow2_scaled(as_vector(l, 6, "line"))
    n = float(l @ l)
    return abs(float(l @ line_star(l))) / n


def validate_line(l):
    l = as_vector(l, 6, "line")
    if quadric_residual(l) > COARSE_TOL:
        raise ValidationError("coordinates violate the line quadric constraint")
    return l


def plucker_pairing(l, m):
    """Bilinear pairing l . star(m); zero iff the two lines meet."""
    l = as_vector(l, 6, "line")
    m = as_vector(m, 6, "line")
    return float(l @ line_star(m))


def lines_meet(l, m, tol=TOL):
    l, m = pow2_scaled(as_vector(l, 6, "line")), pow2_scaled(as_vector(m, 6, "line"))
    return negligible(plucker_pairing(l, m), np.linalg.norm(l) * np.linalg.norm(m), tol)


def point_on_line(l, x, tol=TOL):
    """True when x is incident with l (the join degenerates)."""
    l, x = pow2_scaled(as_vector(l, 6, "line")), pow2_scaled(as_vector(x, 4, "point"))
    return negligible(dual_matrix(l) @ x, np.linalg.norm(l) * np.linalg.norm(x), tol)


def line_in_plane(l, w, tol=TOL):
    """True when every point of l lies on the plane w."""
    l, w = pow2_scaled(as_vector(l, 6, "line")), pow2_scaled(as_vector(w, 4, "plane"))
    return negligible(primal_matrix(l) @ w, np.linalg.norm(l) * np.linalg.norm(w), tol)


def meet_line_plane(l, w):
    """Intersection point of a line with a plane not containing it."""
    (l, el), (w, ew) = _split(as_vector(l, 6, "line")), _split(as_vector(w, 4, "plane"))
    p = primal_matrix(l) @ w
    if negligible(p, np.linalg.norm(l) * np.linalg.norm(w)):
        raise ValidationError("line lies in the plane; their meet is not a point")
    return _unsplit(p, el + ew)


def join_line_point(l, z):
    """Plane spanned by a line and a point not on it."""
    (l, el), (z, ez) = _split(as_vector(l, 6, "line")), _split(as_vector(z, 4, "point"))
    w = dual_matrix(l) @ z
    if negligible(w, np.linalg.norm(l) * np.linalg.norm(z)):
        raise ValidationError("point lies on the line; their join is not a plane")
    return _unsplit(w, el + ez)


def plane_meet_plane(u, v):
    """Plucker coordinates of the line where two distinct planes intersect."""
    (u, eu), (v, ev) = _split(as_vector(u, 4, "plane")), _split(as_vector(v, 4, "plane"))
    if proj_equal(u, v):
        raise ValidationError("coincident planes do not meet in a line")
    # u v^T - v u^T is the *dual* matrix of the intersection line.
    M = np.outer(u, v) - np.outer(v, u)
    return _unsplit(line_star(line_from_primal(M)), eu + ev)


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
        Y = as_array(self.basis, (4, 3), "frame basis")
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

    def coords(self, y):
        """Frame coordinates of an on-plane point via the pseudoinverse."""
        y = as_vector(y, 4, "point")
        if not negligible(self.plane @ y, np.linalg.norm(self.plane) * np.linalg.norm(y), NEAR_TOL):
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
