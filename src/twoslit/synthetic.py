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
from .cameras import TwoSlitCamera, _images, apply_space_transform, inverse_ray, project_points
from .epipolar import _as_correspondences, _factors
from .projective import COARSE_TOL, ROUNDOFF, TINY, TOL, ZERO_TOL, negligible, primal_matrix

RNG_ALGORITHM = "numpy-PCG64"
STEP_TOL = 1e-12  # a point stops refining after trying a shorter step
MAX_PASSES = 50  # residual evaluations per point after the start, at most
MAGNIFICATION_RANGE = (0.5, 4.0)  # of random_calibrated_cameras


def reference_camera_pair():
    camA = TwoSlitCamera(golden.REFERENCE_A1, golden.REFERENCE_A2)
    camB = TwoSlitCamera(golden.REFERENCE_B1, golden.REFERENCE_B2)
    return camA, camB


def rotation_about_axis(axis, angle):
    """Rodrigues rotation matrix about an axis vector."""
    axis = np.asarray(axis, float)
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
        H[:3, :3] = np.asarray(rotation, float)
    if translation is not None:
        H[:3, 3] = np.asarray(translation, float)
    return H


def default_camera_pair():
    """A well-conditioned rig for the default sampling box.

    The first camera's slits run along the x and y directions on
    opposite sides of the box (z = +8 and z = -8), so every box point
    is seen under a healthy crossing angle; the second camera is the
    same device rotated and shifted.
    """
    camA = TwoSlitCamera(np.array([[0.0, 1, 0, 0], [0, 0, 1, -8]]),
                         np.array([[1.0, 0, 0, 0], [0, 0, 1, 8]]))
    motion = euclidean_transform(
        rotation_about_axis([0, 1, 0], 0.6) @ rotation_about_axis([1, 0, 0], 0.35),
        [1.5, -2.0, 0.8])
    return camA, apply_space_transform(camA, motion)


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


def _rescale_to_image(camera, points, target_rms):
    """Scale the first row of each pair so both image coordinates have
    the requested RMS magnitude over the sample.

    The first image coordinate is the row ratio of the first matrix and
    the second that of the second matrix, so the two scales are
    independent."""
    us = project_points(camera, points)
    inhom = us[:, :2] / us[:, 2:3]
    rms = np.sqrt(np.mean(inhom ** 2, axis=0))
    scales = np.where(rms > ZERO_TOL, target_rms / np.maximum(rms, ZERO_TOL), 1.0)
    return TwoSlitCamera(np.stack([camera.A1[0] * scales[0], camera.A1[1]]),
                         np.stack([camera.A2[0] * scales[1], camera.A2[1]]))


def generate_scene(config=SceneConfig(), cameras=None):
    """Sample a reproducible scene and its noisy correspondences.

    Points are drawn uniformly in a box and resampled until they
    project cleanly through both cameras; each camera is then rescaled
    so its image occupies roughly +-2x the configured RMS scale, and
    zero-mean gaussian noise of the configured sigma is added to the
    inhomogeneous image coordinates.
    """
    if config.n_points < 1:
        raise ValidationError("scene needs at least one point")
    if not 0 <= config.noise_sigma < np.inf:
        raise ValidationError("noise sigma must be finite and cannot be negative")
    rng = np.random.default_rng(config.seed)
    camA, camB = cameras if cameras is not None else default_camera_pair()

    # Each batch is at most the number of points still needed, so every
    # draw is one the candidate-at-a-time loop would make too, and the
    # noise below sees the same generator state.
    h = config.box_halfwidth
    budget = 100 * config.n_points
    batches = []
    kept = drawn = 0
    while kept < config.n_points:
        if drawn == budget:
            raise DegeneracyError("could not sample points projecting through both cameras")
        m = min(config.n_points - kept, budget - drawn)
        x = np.hstack([rng.uniform(-h, h, (m, 3)), np.ones((m, 1))])
        drawn += m
        ok = np.ones(m, bool)
        for camera in (camA, camB):
            u, defined = _images(camera, x)
            ok &= defined & (np.abs(u[:, 2]) >= COARSE_TOL * np.linalg.norm(u, axis=1))
        batches.append(x[ok])
        kept += int(ok.sum())
    points = np.vstack(batches)

    camA = _rescale_to_image(camA, points, config.image_scale)
    camB = _rescale_to_image(camB, points, config.image_scale)

    ua = project_points(camA, points)
    ub = project_points(camB, points)
    clean = np.hstack([ua / ua[:, 2:], ub / ub[:, 2:]])

    noisy = clean.copy()
    if config.noise_sigma > 0:
        noisy[:, :2] += rng.normal(0.0, config.noise_sigma, (config.n_points, 2))
        noisy[:, 3:5] += rng.normal(0.0, config.noise_sigma, (config.n_points, 2))

    return SyntheticScene(
        points=points,
        cameras=(camA, camB),
        noise_sigma=config.noise_sigma,
        rng_seed=config.seed,
        rng_algorithm=RNG_ALGORITHM,
        correspondences=noisy,
        clean_correspondences=clean,
    )


def line_point_direction(l):
    """A finite point on the line and its direction vector."""
    L = primal_matrix(l)
    at_inf = L @ np.array([0.0, 0.0, 0.0, 1.0])
    direction = -at_inf[:3]
    if negligible(direction, np.linalg.norm(l), ZERO_TOL):
        raise DegeneracyError("line lies in the plane at infinity")
    candidates = [L @ w for w in np.eye(4)]
    best = max(candidates, key=lambda p: abs(p[3]))
    if negligible(best[3], np.linalg.norm(l), ZERO_TOL):
        raise DegeneracyError("no finite point found on the line")
    return best[:3] / best[3], direction / np.linalg.norm(direction)


def triangulate_rays(rays):
    """Least-squares closest space point to a set of rays.

    Returns (homogeneous point, worst distance to any ray). Uses the
    orthogonal-projection normal equations; near-parallel rays raise.
    """
    A = np.zeros((3, 3))
    b = np.zeros(3)
    anchors = []
    for l in rays:
        p, d = line_point_direction(l)
        P = np.eye(3) - np.outer(d, d)
        A += P
        b += P @ p
        anchors.append((p, P))
    w = np.linalg.eigvalsh(A)
    if w[0] < TOL * max(w[-1], TINY):
        raise DegeneracyError("rays are nearly parallel; triangulation is ill posed")
    x = np.linalg.solve(A, b)
    worst = max(float(np.linalg.norm(P @ (x - p))) for p, P in anchors)
    return np.append(x, 1.0), worst


def triangulate_correspondence(camA, camB, u, v):
    """Space point nearest to the two viewing rays of a correspondence."""
    return triangulate_rays([inverse_ray(camA, u), inverse_ray(camB, v)])


def _linearize(N, D, t, x):
    """Residuals (N.x)/(D.x) - t at the rows of x, inf where a point
    images at infinity, and their (n, 4, 4) Jacobians."""
    num, den = x @ N.T, x @ D.T
    with np.errstate(divide="ignore", invalid="ignore"):
        r = np.where(np.abs(den) > ROUNDOFF * np.hypot(num, den), num / den - t, np.inf)
        J = (N * den[..., None] - D * num[..., None]) / (den ** 2)[..., None]
    return r, J


def _gauss_newton_steps(J, r):
    """Minimum-norm solutions of J s = -r. The residuals are homogeneous
    of degree 0, so J x = 0: pinv drops x and each step is tangent to
    the unit sphere at its point."""
    return -np.einsum("nij,nj->ni", np.linalg.pinv(J, rcond=ZERO_TOL), r)


def triangulate_points(camA, camB, correspondences):
    """Unit homogeneous points (n, 4) of (n, 6) correspondences, and
    their residuals (n, 4): reprojected minus measured u1/u3, u2/u3,
    v1/v3 and v2/v3.

    Each image coordinate fixes a plane through the point, such as
    u3 p1 - u1 p2 for u1/u3. A point starts at the least-squares common
    point of its four unit planes, exact for noiseless data, and
    Gauss-Newton on the unit sphere refines all points at once, halving
    a point's step until it lowers the residual. A point stops after
    trying a step shorter than STEP_TOL.
    """
    z, w = _factors(_as_correspondences(correspondences)).transpose(2, 1, 0)
    if np.any(np.abs(w) <= ROUNDOFF * np.abs(z)):
        raise DegeneracyError("a measured image point lies at infinity")
    N = np.stack([camA.A1[0], camA.A2[0], camB.A1[0], camB.A2[0]])
    D = np.stack([camA.A1[1], camA.A2[1], camB.A1[1], camB.A2[1]])
    planes = w[..., None] * N - z[..., None] * D
    planes /= np.linalg.norm(planes, axis=2, keepdims=True)
    x = np.linalg.svd(planes)[2][:, 3]
    t = z / w
    r, J = _linearize(N, D, t, x)
    if not np.all(np.isfinite(r)):
        raise DegeneracyError("triangulated point projects to infinity")
    cost = np.sum(r * r, axis=1)
    step = _gauss_newton_steps(J, r)
    length = np.ones(len(x))
    live = np.arange(len(x))
    for _ in range(MAX_PASSES):
        if not live.size:
            break
        tried = length[live] * np.linalg.norm(step[live], axis=1)
        trial = x[live] + length[live, None] * step[live]
        trial /= np.linalg.norm(trial, axis=1, keepdims=True)
        rt, Jt = _linearize(N, D, t[live], trial)
        ct = np.sum(rt * rt, axis=1)
        better = ct < cost[live]
        won = live[better]
        x[won], r[won], cost[won] = trial[better], rt[better], ct[better]
        step[won] = _gauss_newton_steps(Jt[better], rt[better])
        length[won] = 1.0
        length[live[~better]] *= 0.5
        live = live[tried >= STEP_TOL]
    return x, r


def refine_triangulation(camA, camB, u, v):
    """Unit homogeneous point triangulated from one correspondence by
    triangulate_points."""
    row = np.append(np.reshape(u, 3), np.reshape(v, 3))
    return triangulate_points(camA, camB, row[None])[0][0]


def reprojection_rms(camA, camB, correspondences):
    """RMS of reprojected-minus-measured inhomogeneous image coordinates
    of the points triangulate_points finds."""
    _, r = triangulate_points(camA, camB, correspondences)
    return float(np.sqrt(np.mean(r ** 2)))


def random_rotation(rng):
    """Haar-ish random rotation from a QR factorization."""
    M = rng.normal(size=(3, 3))
    Q, R = np.linalg.qr(M)
    Q = Q * np.where(np.diag(R) >= 0, 1.0, -1.0)
    if np.linalg.det(Q) < 0:
        Q[:, 2] *= -1
    return Q.T


def parallel_camera_pair(K1, K2, rotation, theta, translations):
    """Euclidean-form camera with parallel slits.

    rotation rows give the frame (r1, r3 x r1, r3); the second pencil
    direction r2 sits at angle theta from r1 in the plane orthogonal
    to r3. translations is (t1, t2, t3, t4).
    """
    r1, ry, r3 = rotation
    r2 = np.cos(theta) * r1 + np.sin(theta) * ry
    t1, t2, t3, t4 = translations
    A1 = np.asarray(K1, float) @ np.vstack([np.append(r1, t1), np.append(r3, t3)])
    A2 = np.asarray(K2, float) @ np.vstack([np.append(r2, t2), np.append(r3, t4)])
    return TwoSlitCamera(A1, A2)


def random_calibrated_cameras(n, rng, first=None):
    """Centered parallel cameras with log-uniform magnifications.

    Returns (cameras, calibrations); `first` optionally pins the two
    magnifications of the first camera.
    """
    low, high = MAGNIFICATION_RANGE
    cams = []
    cals = []
    for i in range(n):
        if i == 0 and first is not None:
            f1, f2 = first
        else:
            f1, f2 = np.exp(rng.uniform(np.log(low), np.log(high), 2))
        K1 = np.diag([f1, 1.0])
        K2 = np.diag([f2, 1.0])
        R = random_rotation(rng)
        theta = rng.uniform(0.35, np.pi - 0.35)
        t = rng.uniform(-2.0, 2.0, 4)
        t[3] = t[2] + np.sign(rng.normal()) * rng.uniform(0.5, 2.0)  # keep slits apart
        cams.append(parallel_camera_pair(K1, K2, R, theta, t))
        cals.append((K1, K2))
    return cams, cals
