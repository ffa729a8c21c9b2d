"""Synthetic scenes, triangulation, and euclidean camera builders.

Randomness always flows through numpy's seeded PCG64 generator; the
algorithm name is recorded in scenes and reports so runs stay
reproducible across machines.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import golden
from .errors import DegeneracyError, ValidationError
from .cameras import TwoSlitCamera, _images, _rig, _stack
from .epipolar import _EPSILON, _as_correspondences, _factors
from .projective import COARSE_TOL, ROUNDOFF, TINY, ZERO_TOL, _count, as_array, as_vector
from .projective import pow2_scaled

RNG_ALGORITHM = "numpy-PCG64"
STEP_TOL = 1e-12  # a point stops refining after trying a shorter step
MAX_PASSES = 50  # residual evaluations per point after the start, at most
MAGNIFICATION_RANGE = (0.5, 4.0)  # of random_calibrated_cameras
_POWER_STEPS = 2  # inverse-iteration steps of a triangulated point's start


def reference_camera_pair():
    camA = TwoSlitCamera(golden.REFERENCE_A1, golden.REFERENCE_A2)
    camB = TwoSlitCamera(golden.REFERENCE_B1, golden.REFERENCE_B2)
    return camA, camB


def rotation_about_axis(axis, angle):
    """Rodrigues rotation matrix about an axis vector."""
    axis = as_array(axis, (3,), "rotation axis")
    angle = as_array(angle, (), "rotation angle")
    n = np.linalg.norm(axis)
    if n < ZERO_TOL:
        raise ValidationError("rotation axis must be nonzero")
    k = axis / n
    K = np.array([[0.0, -k[2], k[1]], [k[2], 0.0, -k[0]], [-k[1], k[0], 0.0]])
    return np.eye(3) + np.sin(angle) * K + (1.0 - np.cos(angle)) * (K @ K)


def euclidean_transform(rotation=None, translation=None):
    """Homogeneous 4x4 rigid motion."""
    H = np.eye(4)
    if rotation is not None:
        H[:3, :3] = as_array(rotation, (3, 3), "rotation")
    if translation is not None:
        H[:3, 3] = as_array(translation, (3,), "translation")
    return H


# default_camera_pair as a read-only rig: one device, then the device moved
_DEFAULT_RIG = np.array(2 * [[[[0.0, 1, 0, 0], [0, 0, 1, -8]], [[1.0, 0, 0, 0], [0, 0, 1, 8]]]])
_DEFAULT_RIG[1] = _DEFAULT_RIG[1] @ np.linalg.inv(euclidean_transform(
    rotation_about_axis([0, 1, 0], 0.6) @ rotation_about_axis([1, 0, 0], 0.35),
    [1.5, -2.0, 0.8]))
_DEFAULT_RIG.flags.writeable = False


def default_camera_pair():
    """A well-conditioned rig for the default sampling box.

    The first camera's slits run along the x and y directions on
    opposite sides of the box (z = +8 and z = -8), so every box point
    is seen under a healthy crossing angle; the second camera is the
    same device rotated and shifted.
    """
    camA, camB = _rig(_DEFAULT_RIG.copy())
    return camA, camB


@dataclass(frozen=True)
class SceneConfig:
    n_points: int = 70
    noise_sigma: float = 1e-5
    seed: int = 0
    box_halfwidth: float = 5.0
    image_scale: float = 50.0  # target RMS of image coordinates per camera


@dataclass(frozen=True, eq=False)
class SyntheticScene:
    points: np.ndarray  # (n, 4), last coordinate 1
    cameras: tuple  # two TwoSlitCamera, image-rescaled
    noise_sigma: float
    rng_seed: int
    rng_algorithm: str
    correspondences: np.ndarray  # (n, 6) noisy, homogeneous triples
    clean_correspondences: np.ndarray


def _unit_images(R, X):
    """_images of each matrix and each point divided by a power of two:
    the same mask and image ratios, bit for bit, and no overflow."""
    return _images(pow2_scaled(R, axis=(2, 3)), pow2_scaled(X, axis=1))


def generate_scene(config=SceneConfig(), cameras=None):
    """Sample a reproducible scene and its noisy correspondences.

    Points are drawn uniformly in a box and resampled until they
    project cleanly through both cameras; each camera is then rescaled
    so its image occupies roughly +-2x the configured RMS scale, and
    zero-mean gaussian noise of the configured sigma is added to the
    inhomogeneous image coordinates.
    """
    n, seed = _check_scene(config)
    rng = np.random.default_rng(seed)
    R = _DEFAULT_RIG.copy() if cameras is None else _stack(cameras)
    if len(R) != 2:
        raise ValidationError(f"cameras must be a pair, got {len(R)} cameras")

    # Each batch is at most the number of points still needed, so every
    # draw is one the candidate-at-a-time loop would make too, and the
    # noise below sees the same generator state.
    h = config.box_halfwidth
    budget = 100 * n
    batches = []
    kept = drawn = 0
    while kept < n:
        if drawn == budget:
            raise DegeneracyError("could not sample points projecting through both cameras")
        m = min(n - kept, budget - drawn)
        x = np.hstack([rng.uniform(-h, h, (m, 3)), np.ones((m, 1))])
        drawn += m
        u, defined = _unit_images(R, x)
        ok = (defined & (np.abs(u[..., 2]) >= COARSE_TOL * np.linalg.norm(u, axis=2))).all(0)
        batches.append(x[ok])
        kept += int(ok.sum())
    points = np.vstack(batches)

    # the image coordinates are row ratios of A1 and of A2: scale the first rows
    u = _unit_images(R, points)[0]
    rms = np.sqrt(np.mean((u[..., :2] / u[..., 2:]) ** 2, axis=1))
    with np.errstate(all="ignore"):  # the camera check catches a scale that is no float
        R[:, :, 0] *= (config.image_scale / rms)[..., None]
    try:
        camA, camB = _rig(R)
    except ValidationError:
        raise ValidationError(f"image_scale {config.image_scale} at box_halfwidth {h}: the "
                              "rescaled cameras fail the camera check") from None
    u = _unit_images(R, points)[0]
    clean = (u / u[..., 2:]).transpose(1, 0, 2).reshape(n, 6)

    noisy = clean.copy()
    if config.noise_sigma > 0:
        noisy[:, :2] += rng.normal(0.0, config.noise_sigma, (n, 2))
        noisy[:, 3:5] += rng.normal(0.0, config.noise_sigma, (n, 2))
        if not np.all(np.isfinite(noisy)):  # a draw overflowed
            raise ValidationError(f"noise_sigma {config.noise_sigma} overflows the images")

    return SyntheticScene(
        points=points,
        cameras=(camA, camB),
        noise_sigma=config.noise_sigma,
        rng_seed=seed,
        rng_algorithm=RNG_ALGORITHM,
        correspondences=noisy,
        clean_correspondences=clean,
    )


def _linearize(ND, t, x):
    """Residuals (N.x)/(D.x) - t of (m, 4) points through their own
    numerator rows N and denominator rows D, stacked as ND (m, 8, 4), inf
    where a point images at infinity, and their (m, 4, 4) Jacobians. The
    products are an einsum, not a BLAS call: a row's bits do not depend
    on how many rows share the call."""
    nd = np.einsum("mij,mj->mi", ND, x)
    num, den = nd[:, :4], nd[:, 4:]
    with np.errstate(divide="ignore", invalid="ignore"):
        r = np.where(np.abs(den) > ROUNDOFF * np.hypot(num, den), num / den - t, np.inf)
        J = (ND[:, :4] * den[..., None] - ND[:, 4:] * num[..., None]) / (den ** 2)[..., None]
    return r, J


def _gauss_newton_steps(J, r, x):
    """Least-squares solutions of J s = -r by one batched 4x4 solve. As
    J x = 0 at the unit points x, t x x^T (t = trace J^T J) pins the free
    direction of the normal matrix: for J of rank 3 the step is pinv's,
    tangent at x. A determinant factoring to <= 0 marks lower rank; a
    ridge of ROUNDOFF t (TINY for J = 0) there keeps the solve regular."""
    Jt = J.transpose(0, 2, 1)
    A = Jt @ J
    t = np.trace(A, axis1=1, axis2=2)
    A += t[:, None, None] * x[:, :, None] * x[:, None, :]
    A += np.where(np.linalg.det(A) <= 0, ROUNDOFF * t + TINY, 0.0)[:, None, None] * np.eye(4)
    return -np.linalg.solve(A, Jt @ r[..., None])[..., 0]


def _start_points(planes, D):
    """Unit start points of (m, 4, 4) unit planes: two of camera A, whose
    denominator rows are D (m, 2, 4), then two of camera B. A point whose
    planes give no start point gets NaN.

    Contracting the outer product of one camera's planes with the
    Levi-Civita symbol gives the 4x4 matrix of its ray; times a plane of
    the other camera it gives the point where those three planes meet.
    The four meets are the rows of C = det(P) P^-T up to sign. A point
    starts at the longest meet and takes _POWER_STEPS steps x <- C^T C x:
    as C^T C = det(P)^2 (P^T P)^-1, that is inverse iteration without a
    solve, and the row signs cancel."""
    pairs = planes.reshape(-1, 2, 2, 4)
    outer = (pairs[:, :, 0, :, None] * pairs[:, :, 1, None, :]).reshape(-1, 2, 16)
    rays = (outer @ _EPSILON).reshape(-1, 2, 4, 4)
    C = (pairs[:, ::-1] @ rays).reshape(-1, 4, 4)
    rows = np.arange(len(C)), np.argmax(np.einsum("nij,nij->ni", C, C), axis=1)
    longest = np.linalg.norm(C[rows], axis=1)
    # Planes of rank 2, such as one camera used twice gives, leave only
    # rounding in C, and every point of camera A's ray is exact. The ray
    # meets each slit where it meets that slit's plane in D; the point
    # halfway between those two stands in for every meet, as neither
    # denominator vanishes there.
    flat = longest < ROUNDOFF
    if np.any(flat):
        slits = np.einsum("nij,nkj->nik", rays[flat, 0], D[flat])
        C[flat] = np.sum(slits / np.linalg.norm(slits, axis=1, keepdims=True), axis=2)[:, None]
        longest[flat] = np.linalg.norm(C[flat, 0], axis=1)
    # entries at most 1 and a row of length 1, so |C^T C x| >= |C x|^2 >= 1
    C /= np.where(longest > TINY, longest, np.nan)[:, None, None]
    x = C[rows]
    for _ in range(_POWER_STEPS):
        x = np.einsum("nki,nk->ni", C, np.einsum("nki,ni->nk", C, x))
        x /= np.linalg.norm(x, axis=1, keepdims=True)
    return x


def _triangulate(R, correspondences):
    """Unit points and their residuals, each (j, n, 4), of the same (n, 6)
    correspondences through every camera pair of a (c, 2, 2, 2, 4) stack
    R, and the DegeneracyError of configuration j, the first that fails,
    or None where j = c: the configurations that triangulating one pair
    after another would finish. All c n points share one _start_points
    call, then per pass one _linearize of the live points and at most one
    _gauss_newton_steps, for the points that won their trial and go on.
    """
    # each (z, w) pair to a largest entry in [0.5, 1) by an exact power
    # of two, which neither its unit plane nor t = z / w sees
    zw = pow2_scaled(_factors(_as_correspondences(correspondences)), axis=2)
    c, n = len(R), zw.shape[1]
    if c and np.any(np.abs(zw[..., 1]) <= ROUNDOFF * np.abs(zw[..., 0])):
        return np.empty((0, n, 4)), np.empty((0, n, 4)), DegeneracyError(
            "a measured image point lies at infinity")
    z, w = np.tile(zw.transpose(2, 1, 0), (1, c, 1))
    # the numerator rows of u1, u2, v1, v2 of every point, then their denominator rows
    ND = np.repeat(R.transpose(0, 3, 1, 2, 4).reshape(c, 8, 4), n, axis=0)
    planes = w[..., None] * ND[:, :4] - z[..., None] * ND[:, 4:]
    planes /= np.linalg.norm(planes, axis=2, keepdims=True)
    x = _start_points(planes, ND[:, 4:6])
    t = z / w
    r, J = _linearize(ND, t, x)
    failed = np.flatnonzero(~np.all(np.isfinite(r), axis=1))
    j = failed[0] // n if failed.size else c
    error = None if j == c else DegeneracyError(
        "the image planes of a point give no start point" if np.isnan(x[j * n:(j + 1) * n]).any()
        else "triangulated point projects to infinity")
    m = j * n
    ND, t, x, r = ND[:m], t[:m], x[:m], r[:m]
    cost = np.sum(r * r, axis=1)
    step = _gauss_newton_steps(J[:m], r, x)
    length = np.ones(m)
    live = np.arange(m)
    for _ in range(MAX_PASSES):
        if not live.size:
            break
        tried = length[live] * np.linalg.norm(step[live], axis=1)
        trial = x[live] + length[live, None] * step[live]
        trial /= np.linalg.norm(trial, axis=1, keepdims=True)
        rt, Jt = _linearize(ND[live], t[live], trial)
        ct = np.sum(rt * rt, axis=1)
        # a finite trial cost within rounding of the cost ends the point
        with np.errstate(invalid="ignore"):  # 0 inf: t = 0 where a trial images at infinity
            rounding = ROUNDOFF * np.sum(np.abs(t[live]) * (np.abs(r[live]) + np.abs(rt)), axis=1)
        settled = (ct < np.inf) & (np.abs(ct - cost[live]) <= rounding)
        stays = (tried >= STEP_TOL) & ~settled
        better = ct < cost[live]
        won = live[better]
        x[won], r[won], cost[won] = trial[better], rt[better], ct[better]
        length[won] = 1.0
        length[live[~better]] *= 0.5
        go = better & stays
        if np.any(go):
            step[live[go]] = _gauss_newton_steps(Jt[go], rt[go], trial[go])
        live = live[stays]
    return x.reshape(j, n, 4), r.reshape(j, n, 4), error


def triangulate_points(camA, camB, correspondences):
    """Unit homogeneous points (n, 4) of (n, 6) correspondences, and
    their residuals (n, 4): reprojected minus measured u1/u3, u2/u3,
    v1/v3 and v2/v3. This is _triangulate on a stack of one camera pair.

    Each image coordinate fixes a plane through the point, such as
    u3 p1 - u1 p2 for u1/u3. A point starts near the least-squares common
    point of its four unit planes, from the points where three of them
    meet (_start_points, no factorization), exact for noiseless data.
    Gauss-Newton on the unit sphere refines all points at once, one
    batched 4x4 solve per pass, halving a point's step until it lowers
    the residual. A point stops after trying a step shorter than STEP_TOL
    or once a trial changes its cost by no more than rounding, ROUNDOFF
    sum |t| (|r| + |r_trial|) over its measured ratios t; only points
    that go on get a new step. Every product is per point, the residual
    rows by einsum rather than BLAS, so a point's bits do not depend on
    its batch.
    """
    x, r, error = _triangulate(_stack((camA, camB))[None], correspondences)
    if error is not None:
        raise error
    return x[0], r[0]


def _one_row(u, v):
    return np.append(as_vector(u, 3, "image point"), as_vector(v, 3, "image point"))[None]


def refine_triangulation(camA, camB, u, v):
    """Unit homogeneous point triangulated from one correspondence by
    triangulate_points."""
    return triangulate_points(camA, camB, _one_row(u, v))[0][0]


def triangulate_correspondence(camA, camB, u, v):
    """Point of one correspondence by triangulate_points, scaled to a
    last coordinate of 1, and its largest absolute image residual."""
    (x,), (r,) = triangulate_points(camA, camB, _one_row(u, v))
    if abs(x[3]) < ZERO_TOL:
        raise DegeneracyError("triangulated point lies at infinity")
    return x / x[3], float(np.max(np.abs(r)))


def _rms(r):
    return float(np.sqrt(np.mean(r ** 2)))


def reprojection_rms(camA, camB, correspondences):
    """RMS of reprojected-minus-measured inhomogeneous image coordinates
    of the points triangulate_points finds."""
    return _rms(triangulate_points(camA, camB, correspondences)[1])


def _rotations(M):
    """Rotations from the QR factorizations of an (n, 3, 3) stack, each
    Q's columns signed by R's diagonal and its last flipped if det < 0."""
    Q, R = np.linalg.qr(M)
    Q = Q * np.where(np.diagonal(R, axis1=1, axis2=2) >= 0, 1.0, -1.0)[:, None, :]
    Q[np.linalg.det(Q) < 0, :, 2] *= -1
    return np.swapaxes(Q, 1, 2)


def random_rotation(rng):
    """Haar-ish random rotation from a QR factorization."""
    return _rotations(rng.normal(size=(1, 3, 3)))[0]


def _parallel_rig(K, R, theta, t):
    """(n, 2, 2, 4) stack of euclidean parallel cameras from (n, 2, 2, 2)
    intrinsics, (n, 3, 3) rotations, n angles and (n, 4) translations,
    laid out as in parallel_camera_pair."""
    r1, ry, r3 = R[:, 0], R[:, 1], R[:, 2]
    r2 = np.cos(theta)[:, None] * r1 + np.sin(theta)[:, None] * ry
    rows = np.stack([np.stack([r1, r3], 1), np.stack([r2, r3], 1)], 1)
    return K @ np.concatenate([rows, t[:, [[0, 2], [1, 3]], None]], axis=3)


def parallel_camera_pair(K1, K2, rotation, theta, translations):
    """Euclidean-form camera with parallel slits.

    rotation rows give the frame (r1, r3 x r1, r3); the second pencil
    direction r2 sits at angle theta from r1 in the plane orthogonal
    to r3. translations is (t1, t2, t3, t4).
    """
    K = np.stack([as_array(K1, (2, 2), "K1"), as_array(K2, (2, 2), "K2")])
    A = _parallel_rig(K[None], as_array(rotation, (3, 3), "rotation")[None],
                      as_array(theta, (), "theta")[None],
                      as_array(translations, (4,), "translations")[None])
    return TwoSlitCamera(*A[0])


def _seed(seed):
    """seed as a generator seed: a count that is not negative."""
    seed = _count(seed, "seed")
    if seed < 0:
        raise ValidationError(f"seed cannot be negative, got {seed}")
    return seed


def _check_range(value, name, positive=False):
    """ValidationError naming a config field unless value is finite and
    not negative (positive: above zero); a value that does not compare
    with numbers, such as a string or None, fails too."""
    try:
        ok = (0 < value if positive else 0 <= value) and value < np.inf
    except (TypeError, ValueError):
        ok = False
    if not ok:
        raise ValidationError(f"{name} must be finite and positive, got {value!r}" if positive
                              else f"{name} must be finite and cannot be negative")


def _check_scene(config):
    """The point count and seed of a SceneConfig, after every field of it
    is checked."""
    n = _count(config.n_points, "n_points")
    if n < 1:
        raise ValidationError(f"scene needs at least one point, got {n}")
    _check_range(config.noise_sigma, "noise sigma")
    for name in ("box_halfwidth", "image_scale"):
        _check_range(getattr(config, name), name, positive=True)
    if config.box_halfwidth > np.finfo(float).max / 2:  # the box is 2 h wide
        raise ValidationError(f"box_halfwidth {config.box_halfwidth} exceeds half the float range")
    return n, _seed(config.seed)


def _calibrated_rig(n, rng, first=None):
    """The (n, 2, 2, 4) rig of random_calibrated_cameras, not yet
    checked, and its (n, 2, 2, 2) intrinsics, from the same draws."""
    n = _count(n, "n_cameras")
    if n < 0:
        raise ValidationError(f"n_cameras cannot be negative, got {n}")
    if first is not None:
        first = as_array(first, (2,), "first_camera_magnifications")
        if not np.all(first > 0):
            raise ValidationError(
                "first_camera_magnifications must hold two finite positive magnifications")
    # Camera i draws, in this order: two log-magnifications, nine rotation
    # normals, theta, four offsets, a gap sign normal and a gap size. Its
    # uniform words are row i of `words`, so the gap size and camera i+1's
    # magnifications are one call; a uniform draw takes one word each. A
    # pinned first camera leaves its two words at zero.
    words = np.zeros((n, 8))
    flat = words.reshape(-1)
    M = np.empty((n, 3, 3))
    signs = []
    if n and first is None:
        rng.random(out=flat[:2])
    for Mi, j in zip(M, range(0, 8 * n, 8)):
        rng.standard_normal(out=Mi)
        rng.random(out=flat[j + 2:j + 7])
        signs.append(rng.standard_normal())
        rng.random(out=flat[j + 7:j + 10])
    # numpy's uniform is low + (high - low) u; one contiguous row per draw
    low, high = np.log(MAGNIFICATION_RANGE)
    low = np.array([low, low, 0.35, -2.0, -2.0, -2.0, -2.0, 0.5])
    high = np.array([high, high, np.pi - 0.35, 2.0, 2.0, 2.0, 2.0, 2.0])
    u = (low + (high - low) * words).T.copy()
    K = np.zeros((n, 2, 2, 2))
    K[:, :, 0, 0] = np.exp(u[:2]).T
    if n and first is not None:
        K[0, :, 0, 0] = first
    t = u[3:7].T
    t[:, 3] = t[:, 2] + np.sign(signs) * u[7]  # keep slits apart
    K[:, :, 1, 1] = 1.0
    return _parallel_rig(K, _rotations(M), u[2], t), K


def random_calibrated_cameras(n, rng, first=None):
    """Centered parallel cameras with log-uniform magnifications.

    Returns (cameras, calibrations); `first` optionally pins the two
    magnifications of the first camera. The draws run camera by camera,
    so a seeded rig stays the same for every n (_calibrated_rig); the
    rig is then checked as one array.
    """
    R, K = _calibrated_rig(n, rng, first)
    return _rig(R), [tuple(Ks) for Ks in K]
