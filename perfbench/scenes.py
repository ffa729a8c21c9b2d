"""Seeded inputs the benchmark generates with its own numpy code.

A camera pair is two copies of one crossed-slit device, each moved by
its own random rigid motion. Before the motion, the device's slits run
along the x and y directions at z = +8 and z = -8, on either side of
the sampling box.
Space points are drawn in the box and kept only where they lie at
least one unit from every plane p2.x = 0 and q2.x = 0, so that no point
is near a slit or a base line. The first row of each 2x4 matrix is
then shifted and scaled so that the inhomogeneous image coordinates
have zero mean and a fixed RMS: the library's tensor estimator scales
but does not centre its input, and offset images make it fail on
well-posed data.
"""

import numpy as np

from reference import project

IMAGE_SCALE = 100.0
BOX_HALFWIDTH = 5.0

_DEVICE = (np.array([[0.0, 1, 0, 0], [0, 0, 1, -8]]),
           np.array([[1.0, 0, 0, 0], [0, 0, 1, 8]]))


def _rotation(rng, max_angle):
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    angle = rng.uniform(-max_angle, max_angle)
    K = np.array([[0.0, -axis[2], axis[1]], [axis[2], 0.0, -axis[0]],
                  [-axis[1], axis[0], 0.0]])
    return np.eye(3) + np.sin(angle) * K + (1.0 - np.cos(angle)) * (K @ K)


def _moved_device(rng):
    H = np.eye(4)
    H[:3, :3] = _rotation(rng, 0.6)
    H[:3, 3] = rng.uniform(-2.0, 2.0, 3)
    return [M @ H for M in _DEVICE]


def _draw_points(rng, matrices, n, margin=1.0):
    """n points at least `margin` from every plane of a second row."""
    rows = np.stack([M[1] / np.linalg.norm(M[1, :3]) for M in matrices])
    kept = []
    count = 0
    while count < n:
        x = np.hstack([rng.uniform(-BOX_HALFWIDTH, BOX_HALFWIDTH, (2 * n, 3)),
                       np.ones((2 * n, 1))])
        good = x[np.all(np.abs(x @ rows.T) > margin, axis=1)]
        kept.append(good)
        count += len(good)
    return np.vstack(kept)[:n]


def _condition(M, points, scale):
    """Shift and scale the first row so row1.x / row2.x is centred."""
    ratio = (points @ M[0]) / (points @ M[1])
    mean = ratio.mean()
    rms = np.sqrt(np.mean((ratio - mean) ** 2))
    return np.stack([(M[0] - mean * M[1]) * (scale / rms), M[1]])


def camera_pair_scene(rng, n, sigma, scale=IMAGE_SCALE):
    """Random camera pair, n points, and their noisy correspondences.

    Returns (cameras, points, correspondences): cameras is the tuple
    (A1, A2, B1, B2) of 2x4 matrices, points is (n, 4) and the
    correspondences are (n, 6) rows u1, u2, 1, v1, v2, 1 with gaussian
    noise of standard deviation sigma on the four image coordinates.
    """
    matrices = _moved_device(rng) + _moved_device(rng)
    points = _draw_points(rng, matrices, n)
    A1, A2, B1, B2 = (_condition(M, points, scale) for M in matrices)
    u = project(A1, A2, points)
    v = project(B1, B2, points)
    corr = np.hstack([u / u[:, 2:], v / v[:, 2:]])
    if sigma > 0:
        corr[:, [0, 1, 3, 4]] += rng.normal(0.0, sigma, (n, 4))
    return (A1, A2, B1, B2), points, corr
