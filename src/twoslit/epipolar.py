"""The 2x2x2x2 epipolar tensor of a pair of two-slit cameras.

Entry (i, j, k, l), indices in {1, 2}, is (-1)^(i+j+k+l) times the
determinant of the 4x4 matrix stacking row 3-i of A1, row 3-j of A2,
row 3-k of B1 and row 3-l of B2. A correspondence (u, u') satisfies
sum f_ijkl (u1,u3)_i (u2,u3)_j (u'1,u'3)_k (u'2,u'3)_l = 0.

In the normal form where the first rows of the four 2x4 matrices are
the identity, the entries are signed principal minors of the 4x4
matrix C of second rows, which is what the recovery routine inverts.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegeneracyError, ValidationError
from .cameras import _rig, _stack
from .projective import FIT_TOL, ROUNDOFF, TINY, TOL, ZERO_TOL
from .projective import as_array, negligible, pow2_scaled, scale_free_gap

MIN_CORRESPONDENCES = 15
# the binary exponent the estimator gives a zero: nonzero floats have
# -1073..1024, so a zero's stays below every other's after subtracting one
ZERO_EXPONENT = -4096
_MODES = "ijkl,ia,jb,kc,ld->abcd"  # each mode of a tensor times the rows of its matrix


@dataclass(frozen=True, eq=False)
class EpipolarTensor:
    """Wrapper around the (2, 2, 2, 2) coefficient array.

    values[a, b, c, d] holds the entry with one-based indices
    (a+1, b+1, c+1, d+1); flattening in C order therefore lists the
    entries in lexicographic (i, j, k, l) order.
    """

    values: np.ndarray

    def __post_init__(self):
        v = as_array(self.values, (2, 2, 2, 2), "tensor")
        if not v.any():
            raise ValidationError("tensor is identically zero")
        object.__setattr__(self, "values", v)

    def entry(self, i, j, k, l):
        """One-based entry accessor."""
        return float(self.values[i - 1, j - 1, k - 1, l - 1])

    def flat(self):
        return self.values.reshape(16).copy()

    @classmethod
    def from_flat(cls, entries):
        return cls(as_array(entries, (16,), "tensor entries").reshape(2, 2, 2, 2))

    def normalized(self):
        """Unit Frobenius norm, largest-magnitude entry positive."""
        return EpipolarTensor(_normalized(self.values))


def _normalized(values):
    """The values of EpipolarTensor.normalized, from a finite, nonzero array."""
    v = pow2_scaled(values)  # so that the norm neither overflows nor underflows
    v = v / np.linalg.norm(v)
    lead = v.reshape(-1)[np.argmax(np.abs(v))]
    return v if lead > 0 else -v


def tensor_gap(t1, t2):
    """scale_free_gap of the two tensors' entries."""
    return scale_free_gap(t1.values, t2.values)


def tensors_equal(t1, t2, tol=TOL):
    return tensor_gap(t1, t2) < tol


def _levi_civita():
    """The 4-index Levi-Civita symbol, rows (i, j), columns (k, l)."""
    eps = np.zeros((4, 4, 4, 4))
    for p in itertools.permutations(range(4)):
        eps[p] = (-1) ** sum(a > b for a, b in itertools.combinations(p, 2))
    return eps.reshape(16, 16)


_EPSILON = _levi_civita()
_ROW_SIGNS = np.array([[1.0], [-1.0]])
_FACTOR_COLUMNS = np.array([0, 2, 1, 2, 3, 5, 4, 5])


def _row_products(R):
    """(k, 4, 16) array of a rig: row 2a+b of a camera is the flattened
    outer product of (-1)^a A1[1-a] and (-1)^b A2[1-b]."""
    a = R[:, :, ::-1] * _ROW_SIGNS
    return (a[:, 0, :, None, :, None] * a[:, 1, None, :, None, :]).reshape(-1, 4, 16)


def tensor_from_cameras(camA, camB):
    """Exact tensor of two cameras: the 16 stacked-row determinants as
    one contraction of the Levi-Civita symbol with the row products.

    Each determinant is a signed sum of products of four entries, which
    keeps integer inputs exact; a factored elimination would round them.
    """
    P, Q = _row_products(_stack((camA, camB)))
    F = P @ _EPSILON @ Q.T
    return EpipolarTensor(F.reshape(2, 2, 2, 2))


def _as_correspondences(correspondences):
    """correspondences as a finite (n, 6) float array."""
    return as_array(correspondences, (-1, 6), "correspondence")


def _factors(corr):
    """The 2-vector factors (u1,u3), (u2,u3), (v1,v3), (v2,v3) of (n, 6)
    correspondence rows as a (4, n, 2) array, in tensor mode order."""
    return corr[:, _FACTOR_COLUMNS].reshape(-1, 4, 2).transpose(1, 0, 2)


def epipolar_residuals(tensor, correspondences, normalized=True):
    """Multilinear form on each row of an (n, 6) correspondence array;
    ~0 where consistent.

    With normalized=True each value is divided by the norms of the four
    2-vector factors and of the tensor, making it scale invariant.
    """
    factors = _factors(_as_correspondences(correspondences))
    F = tensor.values
    if normalized:
        # each factor of each row, and the tensor, to a largest entry in
        # [0.5, 1) by an exact power of two, which the normalized value
        # does not see: no product or norm overflows or underflows
        factors = pow2_scaled(factors, axis=2)
        F = pow2_scaled(F)
    val = np.einsum("ijkl,ni,nj,nk,nl->n", F, *factors)
    if not normalized:
        return val
    denom = np.prod(np.linalg.norm(factors, axis=2), axis=0) * np.linalg.norm(F)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(denom == 0.0, np.inf, val / denom)


def epipolar_residual(tensor, u, v, normalized=True):
    """Multilinear form evaluated on a correspondence; ~0 when consistent."""
    row = np.append(as_array(u, (3,), "image point u"), as_array(v, (3,), "image point v"))
    return float(epipolar_residuals(tensor, row[None], normalized)[0])


def multilinear_transform(tensor_values, matrices):
    """Contract each mode of a (2, 2, 2, 2) tensor with the row index of
    the matching one of four 2x2 matrices.

    Returns G with G[i',j',k',l'] = sum M1[i,i'] M2[j,j'] M3[k,k'] M4[l,l']
    F[i,j,k,l]; composing transforms multiplies the matrices.
    """
    F = as_array(tensor_values, (2, 2, 2, 2), "tensor values")
    return np.einsum(_MODES, F, *as_array(matrices, (4, 2, 2), "matrices"))


def _conditioned_factors(corr):
    """The factors of (n, 6) correspondence rows conditioned for the
    design, as a (4, n, 2) array, and the (4, 2, 2) maps that take the
    estimate back to the input's coordinates.

    Each column of each mode is divided by 2^e, which brings its largest
    entry into [0.5, 1): exact, and the conditioning commutes with it.
    Per mode, (x, w) -> (x - m w, w) with m the least-squares fit of x by
    m w, which centres x, then both columns to unit RMS. A design row is
    normalized, so each factor of each row then takes its own power of
    two on top, chosen on the exponents: a row far smaller or larger
    than the rest neither underflows nor overflows.
    """
    mant, p = np.frexp(_factors(corr))
    p[mant == 0] = ZERO_EXPONENT
    e = p.max(axis=1, keepdims=True)
    q = p - e
    f = np.ldexp(mant, q)
    x, w = f[..., 0], f[..., 1]
    maps = np.zeros((4, 2, 2))
    maps[:, 0, 0] = maps[:, 1, 1] = 1.0
    maps[:, 0, 1] = -np.sum(x * w, axis=1) / np.maximum(np.sum(w * w, axis=1), TINY)
    rms = np.sqrt(np.mean((f @ maps.transpose(0, 2, 1)) ** 2, axis=1))
    rms[rms < ROUNDOFF * np.maximum(rms.max(axis=1, keepdims=True), 1.0)] = 1.0
    maps /= rms[:, :, None]
    factors = np.ldexp(mant, q - np.maximum(q[..., :1], q[..., 1:])) @ maps.transpose(0, 2, 1)
    # back in the input's coordinates column c of a map is divided by
    # 2^e[c]; the tensor's scale drops out, so only e[c] - min(e) counts
    return factors, np.ldexp(maps, e.min(axis=2, keepdims=True) - e)


def estimate_tensor_linear(correspondences):
    """Least-squares tensor from image correspondences.

    correspondences is (n, 6): columns u1, u2, u3, v1, v2, v3. Each
    2-vector factor is centred and scaled to unit RMS by a 2x2 map
    before building the design matrix, and the estimate is mapped back
    afterwards; this is plain conditioning that makes the estimate
    commute with translations and scalings of each image coordinate.
    Exact powers of two keep every magnitude a float holds in range, and
    change no bit of the estimate where nothing overflowed.
    """
    corr = _as_correspondences(correspondences)
    n = corr.shape[0]
    if n < MIN_CORRESPONDENCES:
        raise ValidationError(
            f"need at least {MIN_CORRESPONDENCES} correspondences, got {n}")
    factors, maps = _conditioned_factors(corr)
    # outer products folded left, ((a b) c) d: np.einsum's roundings in
    # less time
    a, b, c, d = factors
    design = (((a[:, :, None] * b[:, None, :])[..., None] * c[:, None, None, :])[..., None]
              * d[:, None, None, None, :]).reshape(n, 16)
    norms = np.linalg.norm(design, axis=1, keepdims=True)
    if np.any(norms < TINY):
        raise ValidationError("a correspondence has an identically zero factor")
    design /= norms
    # with 15 rows only the full factorization holds the 16th row of Vt;
    # U is then at most 15x15
    _, s, Vt = np.linalg.svd(design, full_matrices=n < 16)
    if s[14] < TOL * s[0]:
        raise DegeneracyError(
            "correspondences do not determine the tensor (solution space has "
            "dimension > 1; degenerate scene such as coplanar points)")
    # the contraction of multilinear_transform on arrays that need no check
    return EpipolarTensor(_normalized(np.einsum(_MODES, Vt[15].reshape(2, 2, 2, 2), *maps)))


@dataclass(frozen=True, eq=False)
class MinorMatrix:
    """4x4 matrix of normal-form second rows, gauge-fixed so that the
    off-diagonal entries of the first row are all one (or, for a
    transpose, those of the first column)."""

    matrix: np.ndarray

    def __post_init__(self):
        C = np.asarray(self.matrix, dtype=float)
        if C.shape != (4, 4):
            raise ValidationError(f"minor matrix must be 4x4, got {C.shape}")
        rows = C.tolist()  # Python floats: numpy reductions of a 4x4 cost more
        if not all(math.isfinite(x) for row in rows for x in row):
            raise ValidationError("minor matrix has non-finite entries")
        row_pinned = all(abs(x - 1.0) <= TOL for x in rows[0][1:])
        col_pinned = all(abs(row[0] - 1.0) <= TOL for row in rows[1:])
        if not (row_pinned or col_pinned):
            raise ValidationError(
                "first row or first column must be (c11, 1, 1, 1)")
        object.__setattr__(self, "matrix", C)


def _roots_guarded(a, b, c):
    """Real roots of a x^2 + b x + c with the branch policy: tiny leading
    coefficient degrades to the linear root, a negative discriminant is
    clamped to zero and gives one double root."""
    s = max(abs(a), abs(b), abs(c))
    if s == 0.0:
        return []
    if abs(a) < ZERO_TOL * s:
        if abs(b) < ZERO_TOL * s:
            return []
        return [-c / b]
    r = np.sqrt(max(b * b - 4.0 * a * c, 0.0))
    if r == 0.0:
        return [-b / (2.0 * a)]
    return [(-b + r) / (2.0 * a), (-b - r) / (2.0 * a)]


def recover_minor_matrices(tensor):
    """Candidate minor matrices whose principal minors reproduce the tensor.

    Fourteen entries pin the linear part and three coupled quadratics;
    the remaining two entries (f1111, f2111) score each of the up to
    eight sign combinations, stacked as one (k, 4, 4) array. Candidates
    are gauge-fixed with the off-diagonal first-row entries pinned to
    one. That gauge cannot represent a configuration whose pinned
    entries include a true zero, so when fewer than two candidates come
    out clean the transposes join them: a transpose has the same
    principal minors, so the same residual, and its first column is
    pinned instead. A root at zero of a quadratic has no partner P/x;
    when P vanishes it takes its partner from the linear relation
    instead. Returns (MinorMatrix, residual) pairs sorted by residual;
    for an exact tensor of a generic camera pair, exactly two candidates
    have residual ~0 and they are each other's transpose conjugates.
    """
    F = tensor.values
    nf = float(np.max(np.abs(F)))
    f2222 = F[1, 1, 1, 1]
    if abs(f2222) < ZERO_TOL * nf:
        raise DegeneracyError(
            "cannot gauge-normalize: the (2,2,2,2) entry is zero")
    Fn = F / f2222

    def f(i, j, k, l):
        return float(Fn[i - 1, j - 1, k - 1, l - 1])

    c11 = -f(1, 2, 2, 2)
    c22 = -f(2, 1, 2, 2)
    c33 = -f(2, 2, 1, 2)
    c44 = -f(2, 2, 2, 1)
    c21 = c11 * c22 - f(1, 1, 2, 2)
    c31 = c11 * c33 - f(1, 2, 1, 2)
    c41 = c11 * c44 - f(1, 2, 2, 1)

    # Each pair (x, y) = (c_sr, c_rs) satisfies x * y = P (a 2x2
    # principal minor) and, from the 3x3 minor containing row/col 1, the
    # linear relation lo*x + hi*y = -b; with y = P/x that is the
    # quadratic lo*x^2 + b*x + hi*P = 0.
    branch_data = (
        (c22 * c33 - f(2, 1, 1, 2),
         c21,
         f(1, 1, 1, 2) + c11 * f(2, 1, 1, 2) - c31 * c22 - c21 * c33,
         c31),
        (c22 * c44 - f(2, 1, 2, 1),
         c21,
         f(1, 1, 2, 1) + c11 * f(2, 1, 2, 1) - c41 * c22 - c21 * c44,
         c41),
        (c33 * c44 - f(2, 2, 1, 1),
         c31,
         f(1, 2, 1, 1) + c11 * f(2, 2, 1, 1) - c41 * c33 - c31 * c44,
         c41),
    )
    branches = []
    for (P, lo, b, hi) in branch_data:
        pairs = []
        for root in _roots_guarded(lo, b, hi * P):
            if abs(root) >= ZERO_TOL * (abs(P) + 1.0):
                pairs.append((root, P / root))
            elif abs(P) < ZERO_TOL and abs(hi) >= ZERO_TOL:
                pairs.append((0.0, -b / hi))
        branches.append(pairs)

    blocks = np.array(list(itertools.product(*branches))).reshape(-1, 6)
    if not len(blocks):
        raise DegeneracyError("all solution branches are degenerate")
    C = np.tile([[c11, 1.0, 1.0, 1.0],
                 [c21, c22, 0.0, 0.0],
                 [c31, 0.0, c33, 0.0],
                 [c41, 0.0, 0.0, c44]], (len(blocks), 1, 1))
    # each pair fills (c32, c23), (c42, c24), (c43, c34)
    C[:, [2, 1, 3, 1, 3, 2], [1, 2, 1, 3, 2, 3]] = blocks
    # squared as Python floats: a numpy array square differs from
    # their ** 2 in the last bit of some values
    res = [a ** 2 + b ** 2 for a, b in zip(
        (np.linalg.det(C) - f(1, 1, 1, 1)).tolist(),
        (-np.linalg.det(C[:, 1:, 1:]) - f(2, 1, 1, 1)).tolist())]
    if sum(r < FIT_TOL for r in res) < 2:
        C = np.concatenate([C, C.transpose(0, 2, 1)])
        res += res
    best = sorted(range(len(res)), key=res.__getitem__)[:8]
    return [(MinorMatrix(C[i]), res[i]) for i in best]


def _configurations(C):
    """The normal-form camera pairs of a (k, 4, 4) stack of minor
    matrices, checked as one rig: camera A is (e1, row 1 of C),
    (e2, row 2), camera B the same with rows 3 and 4."""
    R = np.empty((len(C), 4, 2, 4))
    R[:, :, 0], R[:, :, 1] = np.eye(4), C
    cams = _rig(R.reshape(-1, 2, 2, 4))
    return tuple(zip(cams[::2], cams[1::2]))


def cameras_from_minor_matrix(minor):
    """Normal-form camera pair whose tensor has these principal minors."""
    return _configurations(minor.matrix[None])[0]


def normal_form_transform(camA, camB):
    """Space map W from the gauge-fixed recovery frame to this pair's frame.

    Recovered cameras all share the normal form where the four first
    rows are the identity and the gauge row of minors is all ones.
    Applying the returned 4x4 matrix with apply_space_transform carries
    a recovered configuration onto the frame of the given cameras, so
    an exact recovery lands on the cameras themselves up to row scales.
    """
    first, second = _stack((camA, camB)).transpose(2, 0, 1, 3).reshape(2, 4, 4)
    s = np.linalg.svd(first, compute_uv=False)
    if s[-1] < ZERO_TOL * s[0]:
        raise DegeneracyError("the four leading camera rows are linearly dependent")
    C0 = second @ np.linalg.inv(first)
    if np.min(np.abs(C0[0, 1:])) < ZERO_TOL * np.max(np.abs(C0)):
        raise DegeneracyError(
            "normal-form gauge undefined: a leading minor row entry vanishes")
    d = np.concatenate([[1.0], 1.0 / C0[0, 1:]])
    return np.linalg.solve(first, np.diag(d))


def _companion(C):
    """The matrix of transpose_conjugate, from a minor matrix's array."""
    col1 = C[1:, 0]
    if np.min(np.abs(col1)) < ZERO_TOL * max(1.0, float(np.max(np.abs(C)))):
        raise DegeneracyError(
            "transpose companion undefined: a first-column entry vanishes")
    d = np.concatenate([[1.0], 1.0 / col1])
    C2 = (C.T * d[None, :]) / d[:, None]
    C2[0, 1:] = 1.0
    return C2


def transpose_conjugate(minor):
    """The companion gauge-fixed matrix with the same principal minors."""
    return MinorMatrix(_companion(minor.matrix))


def two_configurations(minor):
    """Both camera configurations with the minors of C, as one rig of four
    cameras. Where a zero in C's first column leaves transpose_conjugate
    undefined, C is row-pinned, and its plain transpose is column-pinned."""
    C = minor.matrix
    try:
        companion = _companion(C)
    except DegeneracyError:
        companion = C.T
    return _configurations(np.stack([C, companion]))


def _calibrations(*Ks):
    """(K1A, K2A, K1B, K2B) as float arrays, checked to be nonsingular 2x2."""
    out = []
    for K, name in zip(Ks, ("K1A", "K2A", "K1B", "K2B")):
        K = as_array(K, (2, 2), name)
        if negligible(np.linalg.det(K), max(np.linalg.norm(K) ** 2, TINY), ZERO_TOL):
            raise ValidationError(f"{name} is singular")
        out.append(K)
    return out


def essential_decompose(tensor, K1A, K2A, K1B, K2B):
    """Strip per-row-pair calibrations from a tensor.

    Contracting each mode with the matching K recovers (up to scale)
    the tensor of the calibration-free cameras, because each mode of
    the tensor is built from camera rows and A = K A0 acts on those
    rows linearly.
    """
    Ks = _calibrations(K1A, K2A, K1B, K2B)
    return EpipolarTensor(multilinear_transform(tensor.values, Ks)).normalized()


def essential_compose(tensor, K1A, K2A, K1B, K2B):
    """Inverse of essential_decompose: reapply calibrations."""
    Ks = [np.linalg.inv(K) for K in _calibrations(K1A, K2A, K1B, K2B)]
    return EpipolarTensor(multilinear_transform(tensor.values, Ks)).normalized()
