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
from functools import partial

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


def _unsplit(out, *operands):
    """out, a product of pow2_scaled operands, times the powers of two they
    were divided by, where every nonzero entry stays a normal float: exact,
    so a join or meet of ordinary operands keeps its bits. out itself
    otherwise, which counts only up to scale."""
    e = sum(int(np.frexp(np.abs(v).max())[1]) for v in operands)
    p = np.frexp(out[out != 0])[1] + e
    return np.ldexp(out, e) if p.max() <= 1024 and p.min() >= -1021 else out


def _gaps(a, b):
    """scale_free_gap of each pair of rows of two broadcasting (..., m)
    stacks of nonzero rows, as an array of their shape without m."""
    a, b = pow2_scaled(a, axis=-1), pow2_scaled(b, axis=-1)  # no norm overflows or underflows
    a, b = (v / np.sqrt(_dot(v, v))[..., None] for v in (a, b))
    return np.minimum(np.abs(a - b).max(axis=-1), np.abs(a + b).max(axis=-1))


def scale_free_gap(a, b):
    """Largest entry difference of two nonzero arrays at unit Frobenius
    norm, minimized over both signs; 0 when they agree up to scale."""
    return float(_gaps(np.reshape(a, -1), np.reshape(b, -1)))


def _dot(a, b):
    """a . b over the last axis of broadcasting stacks of C-ordered rows, by
    (1, m) @ (m, 1) products: the bits of np.dot and np.linalg.norm."""
    return (a[..., None, :] @ b[..., None])[..., 0, 0]


# line coordinate k is a_i b_j - a_j b_i for i = _I[k], j = _J[k]; _STAR swaps the halves
_I, _J = [3, 3, 3, 1, 2, 0], [0, 1, 2, 2, 0, 1]
_STAR = [3, 4, 5, 0, 1, 2]
# primal matrix entry (r, c) is _SIGN[r, c] l[_PRIMAL[r, c]]; index 6 reads a zero
_PRIMAL = np.array([[6, 5, 4, 0], [5, 6, 3, 1], [4, 3, 6, 2], [0, 1, 2, 6]])
_SIGN = np.array([[1.0, 1, -1, -1], [-1, 1, 1, -1], [1, -1, 1, -1], [1, 1, 1, 1]])


def _wedge(a, b):
    """a_i b_j - a_j b_i of broadcasting (..., 4) stacks, in C order as _primal's:
    the join of points a and b, and the dual coordinates of the meet of planes."""
    return np.ascontiguousarray(a[..., _I] * b[..., _J] - b[..., _I] * a[..., _J])


def _primal(l):
    """(..., 4, 4) primal matrices of (..., 6) lines; L @ w meets l with w.
    np.take returns them in C order, where l[..., _PRIMAL] does not, and
    matmul rounds a product of other layouts otherwise."""
    l = np.concatenate([l, np.zeros(l.shape[:-1] + (1,))], axis=-1)
    return _SIGN * np.take(l, _PRIMAL, axis=-1)


def _dual(l):
    """Dual matrices L*, the primal ones of the starred lines; L* @ z joins l and z."""
    return _primal(l[..., _STAR])


def _incident(r, a, b, tol):
    """Where |r| < tol |a| |b| over broadcasting stacks, r a residual of the
    pow2_scaled operands a and b: the relative test of every incidence predicate."""
    return np.sqrt(_dot(r, r)) < tol * (np.sqrt(_dot(a, a)) * np.sqrt(_dot(b, b)))


def _span(x, y, error):
    """_wedge of two checked 4-vectors, or ValidationError(error) where
    proj_equal holds: the body of join_points and plane_meet_plane, run on
    pow2_scaled operands whose scales _unsplit restores."""
    xs, ys = pow2_scaled(x), pow2_scaled(y)
    if 1.0 - abs(float(xs @ ys)) / (np.linalg.norm(xs) * np.linalg.norm(ys)) < TOL:
        raise ValidationError(error)
    return _unsplit(_wedge(xs, ys), x, y)


def _through(matrix, l, v, error):
    """matrix(l) @ v of a checked line and 4-vector, or ValidationError(error)
    where it is negligible: the body of meet_line_plane (matrix _primal)
    and join_line_point (_dual), scaled as _span is."""
    ls, vs = pow2_scaled(l), pow2_scaled(v)
    p = matrix(ls) @ vs
    if _incident(p, ls, vs, TOL):
        raise ValidationError(error)
    return _unsplit(p, l, v)


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
    return _span(as_vector(x, 4, "point"), as_vector(y, 4, "point"),
                 "coincident points do not span a line")


def line_star(l):
    """Dual Plucker coordinates: swap the (l41,l42,l43) and (l23,l31,l12) halves."""
    return as_vector(l, 6, "line")[_STAR]


def primal_matrix(l):
    """Antisymmetric 4x4 matrix L of a line; L @ w is the meet of l with plane w."""
    return _primal(as_vector(l, 6, "line"))


def dual_matrix(l):
    """Antisymmetric 4x4 matrix L*; L* @ z is the join of l with point z."""
    return _dual(as_vector(l, 6, "line"))


def quadric_residual(l):
    """Scale-free residual of the quadric constraint; ~0 for genuine lines."""
    l = pow2_scaled(as_vector(l, 6, "line"))
    return abs(float(l @ l[_STAR])) / float(l @ l)


def validate_line(l):
    l = as_vector(l, 6, "line")
    if quadric_residual(l) > COARSE_TOL:
        raise ValidationError("coordinates violate the line quadric constraint")
    return l


def plucker_pairing(l, m):
    """Bilinear pairing l . star(m); zero iff the two lines meet."""
    return float(as_vector(l, 6, "line") @ as_vector(m, 6, "line")[_STAR])


def lines_meet(l, m, tol=TOL):
    l, m = pow2_scaled(as_vector(l, 6, "line")), pow2_scaled(as_vector(m, 6, "line"))
    return _incident(_dot(l, m[_STAR])[..., None], l, m, tol)


def point_on_line(l, x, tol=TOL):
    """True when x is incident with l (the join degenerates)."""
    l, x = pow2_scaled(as_vector(l, 6, "line")), pow2_scaled(as_vector(x, 4, "point"))
    return _incident(_dual(l) @ x, l, x, tol)


def line_in_plane(l, w, tol=TOL):
    """True when every point of l lies on the plane w."""
    l, w = pow2_scaled(as_vector(l, 6, "line")), pow2_scaled(as_vector(w, 4, "plane"))
    return _incident(_primal(l) @ w, l, w, tol)


# meet_line_plane, join_line_point and plane_meet_plane of checked arrays
_meet_line_plane = partial(_through, _primal, error="line lies in the plane; their meet is not a point")
_join_line_point = partial(_through, _dual, error="point lies on the line; their join is not a plane")


def _plane_meet_plane(u, v):
    return _span(u, v, "coincident planes do not meet in a line")[_STAR]


def meet_line_plane(l, w):
    """Intersection point of a line with a plane not containing it."""
    return _meet_line_plane(as_vector(l, 6, "line"), as_vector(w, 4, "plane"))


def join_line_point(l, z):
    """Plane spanned by a line and a point not on it."""
    return _join_line_point(as_vector(l, 6, "line"), as_vector(z, 4, "point"))


def plane_meet_plane(u, v):
    """Plucker coordinates of the line where two distinct planes intersect."""
    return _plane_meet_plane(as_vector(u, 4, "plane"), as_vector(v, 4, "plane"))


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
        # collinearity, which no scale of a point changes, is decided on unit columns
        U = pow2_scaled(Y, axis=0)
        _, s, Vt = np.linalg.svd((U / np.maximum(np.linalg.norm(U, axis=0), TINY)).T)
        if s[2] < ZERO_TOL * s[0]:
            raise ValidationError("frame points are collinear or coincident")
        object.__setattr__(self, "basis", Y)
        if self.plane is None:
            # null space of U^T: the plane through all three points
            object.__setattr__(self, "plane", Vt[3])
        else:
            w = as_vector(self.plane, 4, "plane")
            if not negligible(Y.T @ w, np.linalg.norm(w) * np.linalg.norm(Y)):
                raise ValidationError("stated plane does not contain the frame points")
            object.__setattr__(self, "plane", w)

    @classmethod
    def from_points(cls, y1, y2, y3):
        return cls(np.stack([as_vector(y, 4, "point") for y in (y1, y2, y3)], axis=1))

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
    Y = frame.basis.T
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is caught below
        S = np.take(_wedge(Y[[1, 2, 0]], Y[[2, 0, 1]]), _STAR, axis=-1)
    if not np.all(np.isfinite(S)):
        raise ValidationError("a row of the image map overflows a float")
    return S
