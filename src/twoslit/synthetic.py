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
from .epipolar import _EPSILON, _as_correspondences, _factors, _form, _tensors
from .projective import COARSE_TOL, ROUNDOFF, TINY, ZERO_TOL, _count, as_array, as_vector
from .projective import pow2_scaled

RNG_ALGORITHM = "numpy-PCG64"
MAX_PASSES = 50  # optimal-correction passes per triangulated point, at most
MAGNIFICATION_RANGE = (0.5, 4.0)  # of random_calibrated_cameras


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


def _start_points(planes, D):
    """Unit points of (m, 4, 4) unit planes, two of camera A, then two of
    camera B, that meet in one point; NaN where they give none. D holds
    camera A's denominator rows, (..., 2, 4) over the m points. The meets
    of three planes, a camera's ray (its planes contracted with the
    Levi-Civita symbol) times a plane of the other, are the rows of
    C = det(P) P^-T up to sign; a point is the longest after one step
    x <- C^T C x, inverse iteration as C^T C = det(P)^2 (P^T P)^-1."""
    pairs = planes.reshape(-1, 2, 2, 4)
    outer = (pairs[:, :, 0, :, None] * pairs[:, :, 1, None, :]).reshape(-1, 2, 16)
    rays = (outer @ _EPSILON).reshape(-1, 2, 4, 4)
    C = (pairs[:, ::-1] @ rays).reshape(-1, 4, 4)
    lengths = np.einsum("nij,nij->ni", C, C)
    rows = np.arange(len(C)), np.argmax(lengths, axis=1)
    # Planes of rank 2 (one camera used twice) leave only rounding in C;
    # every point of camera A's ray is exact, and the one halfway between
    # its meets with the two slits keeps both denominators off zero.
    flat = lengths[rows] < ROUNDOFF ** 2
    if np.any(flat):
        slits = np.einsum("nij,nkj->nik", rays[flat, 0], D[flat.reshape(D.shape[:-2])])
        C[flat] = np.sum(slits / np.linalg.norm(slits, axis=1, keepdims=True), axis=2)[:, None]
    # the longest meet is at least ROUNDOFF long, so the step cannot underflow
    x = np.einsum("nki,nk->ni", C, np.einsum("nki,ni->nk", C, C[rows]))
    norms = np.sqrt(np.einsum("ni,ni->n", x, x))[:, None]
    return x / np.where(norms > TINY, norms, np.nan)


def _correction(T, x, x0):
    """One optimal-correction pass of points x0 onto the hypersurfaces
    F = 0 of tensors T from x: x0 - [F + grad F . (x0 - x)] grad F /
    |grad F|^2, or x where grad F is zero within rounding; grad F, zeroed
    there; where F and grad F are at rounding; F's rounding in image units."""
    F, g, scale, scales = _form(T, x)
    gg = np.einsum("...i,...i->...", g, g)
    flat = gg <= ROUNDOFF ** 2 * np.einsum("...i,...i->...", scales, scales)
    with np.errstate(divide="ignore", invalid="ignore"):
        new = x0 - ((F + np.einsum("...i,...i->...", g, x0 - x)) / gg)[..., None] * g
        if np.any(flat):
            new[flat], g[flat] = np.broadcast_to(x, new.shape)[flat], 0.0
        return new, g, np.abs(F) <= ROUNDOFF * scale, flat, scale / np.sqrt(gg)


def _triangulate(R, correspondences):
    """Unit points and their residuals, each (j, n, 4), of the same (n, 6)
    correspondences through every camera pair of a (c, 2, 2, 2, 4) stack
    R, and the DegeneracyError of configuration j, the first that fails,
    or None where j = c: the configurations that triangulating one pair
    after another would finish."""
    # each (z, w) pair to a largest entry in [0.5, 1) by an exact power
    # of two, which t = z / w does not see
    zw = pow2_scaled(_factors(_as_correspondences(correspondences)), axis=2)
    c, n = len(R), zw.shape[1]
    if c and np.any(np.abs(zw[..., 1]) <= ROUNDOFF * np.abs(zw[..., 0])):
        return np.empty((0, n, 4)), np.empty((0, n, 4)), DegeneracyError(
            "a measured image point lies at infinity")
    x0 = (zw[..., 0] / zw[..., 1]).T
    T = pow2_scaled(_tensors(R), axis=(1, 2))
    # Every point takes the Sampson pass; those off rounding go on until a
    # step is within ROUNDOFF (|x0| + F's rounding in image units), which
    # F's rounding never reaches. A step turning back on the last, at a
    # ratio rho < 0, oscillates: 1 / (1 - rho) of it lands on the foot point.
    x, g, level, flat, _ = _correction(T[:, None], x0, x0)
    failed = flat & ~level  # no gradient off the hypersurface
    x, g = x.reshape(-1, 4), g.reshape(-1, 4)
    live = np.flatnonzero(~(level | flat))
    last = x[live] - x0[live % n]
    for _ in range(MAX_PASSES - 1):
        if not live.size:
            break
        previous, start = x[live], x0[live % n]
        new, g[live], level, flat, blur = _correction(T[live // n], previous, start)
        failed.reshape(-1)[live] |= flat & ~level
        step = new - previous
        with np.errstate(divide="ignore", invalid="ignore"):
            rho = np.fmin(np.einsum("ij,ij->i", step, last) / np.einsum("ij,ij->i", last, last), 0)
        step /= (1 - rho)[:, None]
        x[live] = previous + step
        go = ~flat & (np.linalg.norm(step, axis=1) > ROUNDOFF * (np.linalg.norm(start, axis=1) + blur))
        live, last = live[go], step[go]
    x, g = x.reshape(c, n, 4), g.reshape(c, n, 4)
    # the numerator rows of u1, u2, v1, v2 of every configuration, then their denominator rows
    ND = R.transpose(0, 3, 1, 2, 4).reshape(c, 1, 8, 4)
    planes = ND[:, :, :4] - x[..., None] * ND[:, :, 4:]
    planes /= np.sqrt(np.einsum("...i,...i->...", planes, planes))[..., None]
    X = _start_points(planes.reshape(-1, 4, 4), np.broadcast_to(ND[:, :, 4:6], (c, n, 2, 4)))
    num, den = np.split(np.einsum("cij,cnj->cni", ND[:, 0], X.reshape(c, n, 4)), 2, axis=2)
    bad = failed | ~np.all(np.abs(den) > ROUNDOFF * np.hypot(num, den), axis=2)
    j = int(np.argmax(bad.any(axis=1))) if bad.any() else c
    error = None if j == c else DegeneracyError(
        "the epipolar form has no gradient at a point off its hypersurface" if failed[j].any()
        else "the image planes of a point give no start point" if np.isnan(X[j * n:(j + 1) * n]).any()
        else "triangulated point projects to infinity")
    # The last step takes F(x) = grad F . (x - p) from the reprojection p on
    # F = 0: the residual is the part of p - x0 along grad F, which the
    # point's rounding, moving p along F = 0, leaves alone.
    g, gg = g[:j], np.einsum("...i,...i->...", g[:j], g[:j])[..., None]
    with np.errstate(divide="ignore", invalid="ignore"):
        normal = -np.einsum("...i,...i->...", g, x0 - num[:j] / den[:j])[..., None] / gg * g
    return X[:j * n].reshape(j, n, 4), np.where(gg > 0, normal, x[:j] - x0), error


def triangulate_points(camA, camB, correspondences):
    """Unit homogeneous points (n, 4) of (n, 6) correspondences, and
    their residuals (n, 4) in image units: corrected minus measured u1/u3,
    u2/u3, v1/v3 and v2/v3. The correction, by iterative optimal
    correction, is the closest point on the hypersurface F = 0 of the
    cameras' own epipolar tensor, where correspondences image 3D points; the
    point is the meet of the corrected image planes. A zero gradient of F
    off its hypersurface raises DegeneracyError. _triangulate on one pair."""
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
    """RMS of the residuals of triangulate_points: corrected minus
    measured inhomogeneous image coordinates."""
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
