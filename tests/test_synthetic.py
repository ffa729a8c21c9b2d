"""Scene generation, triangulation, and euclidean camera builders."""

import time

import numpy as np
import pytest

from twoslit.cameras import (
    TwoSlitCamera,
    apply_space_transform,
    decompose_parallel,
    inverse_ray,
    is_parallel,
    project,
    project_points,
)
from twoslit.epipolar import epipolar_residual, epipolar_residuals, tensor_from_cameras
from twoslit.errors import DegeneracyError, ValidationError
from twoslit.experiments import run_sfm_experiment
from twoslit.projective import proj_equal
from twoslit.synthetic import (
    MAGNIFICATION_RANGE,
    RNG_ALGORITHM,
    SceneConfig,
    default_camera_pair,
    euclidean_transform,
    generate_scene,
    parallel_camera_pair,
    random_calibrated_cameras,
    random_rotation,
    reference_camera_pair,
    refine_triangulation,
    reprojection_rms,
    rotation_about_axis,
    triangulate_correspondence,
    triangulate_points,
)
from twoslit import golden, synthetic
from twoslit.epipolar import _form, _tensors
from twoslit.projective import ROUNDOFF, ZERO_TOL, pow2_scaled


def test_rotation_about_axis_is_special_orthogonal():
    R = rotation_about_axis([1.0, -2.0, 0.5], 0.8)
    assert np.allclose(R.T @ R, np.eye(3), atol=1e-12)
    assert np.isclose(np.linalg.det(R), 1.0)
    axis = np.array([1.0, -2.0, 0.5])
    assert np.allclose(R @ axis, axis)


def test_rotation_about_zero_axis_rejected():
    with pytest.raises(ValidationError, match="nonzero"):
        rotation_about_axis([0.0, 0.0, 0.0], 1.0)


def test_random_rotation_is_special_orthogonal(rng):
    for _ in range(5):
        R = random_rotation(rng)
        assert np.allclose(R.T @ R, np.eye(3), atol=1e-12)
        assert np.isclose(np.linalg.det(R), 1.0)


def test_euclidean_transform_layout():
    R = rotation_about_axis([0, 0, 1.0], 0.3)
    H = euclidean_transform(R, [1.0, 2.0, 3.0])
    assert np.allclose(H[:3, :3], R)
    assert np.allclose(H[:3, 3], [1, 2, 3])
    assert np.allclose(H[3], [0, 0, 0, 1])


def test_reference_pair_matches_frozen_matrices():
    camA, camB = reference_camera_pair()
    assert np.array_equal(camA.A1, golden.REFERENCE_A1)
    assert np.array_equal(camB.A2, golden.REFERENCE_B2)


class TestSceneGeneration:
    def test_reproducible(self):
        s1 = generate_scene(SceneConfig(n_points=20, seed=11))
        s2 = generate_scene(SceneConfig(n_points=20, seed=11))
        assert np.array_equal(s1.correspondences, s2.correspondences)
        assert np.array_equal(s1.points, s2.points)
        s3 = generate_scene(SceneConfig(n_points=20, seed=12))
        assert not np.array_equal(s1.correspondences, s3.correspondences)
        assert s1.rng_algorithm == RNG_ALGORITHM

    def test_points_live_in_the_box(self):
        config = SceneConfig(n_points=30, seed=2, box_halfwidth=3.0)
        scene = generate_scene(config)
        assert scene.points.shape == (30, 4)
        assert np.all(scene.points[:, 3] == 1.0)
        assert np.max(np.abs(scene.points[:, :3])) <= 3.0

    def test_images_hit_requested_scale(self):
        for image_scale in (100.0, 1e8):
            config = SceneConfig(n_points=50, seed=3, image_scale=image_scale)
            scene = generate_scene(config)
            clean = scene.clean_correspondences
            for col in (0, 1, 3, 4):
                assert np.isclose(np.sqrt(np.mean(clean[:, col] ** 2)), image_scale,
                                  rtol=1e-9)

    def test_correspondences_match_cameras_and_points(self):
        scene = generate_scene(SceneConfig(n_points=15, seed=4))
        camA, camB = scene.cameras
        for x, row in zip(scene.points, scene.clean_correspondences):
            assert proj_equal(project(camA, x), row[:3], tol=1e-9)
            assert proj_equal(project(camB, x), row[3:], tol=1e-9)

    def test_noise_statistics(self):
        config = SceneConfig(n_points=400, seed=5, noise_sigma=0.01)
        scene = generate_scene(config)
        delta = scene.correspondences - scene.clean_correspondences
        assert np.all(delta[:, 2] == 0.0)
        assert np.all(delta[:, 5] == 0.0)
        spread = np.std(delta[:, [0, 1, 3, 4]])
        assert 0.008 < spread < 0.012

    def test_zero_noise_keeps_clean_rows(self):
        scene = generate_scene(SceneConfig(n_points=10, seed=6, noise_sigma=0.0))
        assert np.array_equal(scene.correspondences, scene.clean_correspondences)

    def test_config_validation(self):
        with pytest.raises(ValidationError, match="at least one point"):
            generate_scene(SceneConfig(n_points=0))
        with pytest.raises(ValidationError, match="cannot be negative"):
            generate_scene(SceneConfig(noise_sigma=-1e-3))


class TestTriangulation:
    def test_correspondence_round_trip(self, rng):
        camA, camB = default_camera_pair()
        for _ in range(5):
            x = np.append(rng.uniform(-4, 4, 3), 1.0)
            u, v = project(camA, x), project(camB, x)
            rec, worst = triangulate_correspondence(camA, camB, u, v)
            assert worst < 1e-8
            assert np.allclose(rec[:3] / rec[3], x[:3], atol=1e-8)

    def test_refinement_reaches_image_accuracy(self, rng):
        camA, camB = default_camera_pair()
        x = np.append(rng.uniform(-4, 4, 3), 1.0)
        u, v = project(camA, x), project(camB, x)
        xr = refine_triangulation(camA, camB, u, v)
        ua, ub = project(camA, xr), project(camB, xr)
        assert np.allclose(ua[:2] / ua[2], u[:2] / u[2], atol=1e-10)
        assert np.allclose(ub[:2] / ub[2], v[:2] / v[2], atol=1e-10)

    def test_noiseless_reprojection_rms_is_tiny(self):
        scene = generate_scene(SceneConfig(n_points=12, seed=7, noise_sigma=0.0))
        rms = reprojection_rms(*scene.cameras, scene.correspondences)
        assert rms < 1e-9

    def test_correspondence_of_a_point_at_infinity_is_degenerate(self):
        camA, camB = default_camera_pair()
        x = np.array([0.6, -0.3, 0.5, 0.0])
        with pytest.raises(DegeneracyError, match="infinity"):
            triangulate_correspondence(camA, camB, project(camA, x), project(camB, x))

    def test_correspondence_residual_is_the_largest_image_residual(self):
        scene = generate_scene(SceneConfig(n_points=1, seed=9, noise_sigma=1e-3))
        u, v = scene.correspondences[0, :3], scene.correspondences[0, 3:]
        point, worst = triangulate_correspondence(*scene.cameras, u, v)
        _, r = triangulate_points(*scene.cameras, scene.correspondences)
        assert point[3] == 1.0
        assert worst == np.max(np.abs(r)) > 0

    @pytest.mark.parametrize("triangulate", [refine_triangulation, triangulate_correspondence])
    def test_image_point_of_wrong_size_is_invalid(self, triangulate):
        camA, camB = default_camera_pair()
        with pytest.raises(ValidationError, match="3 entries"):
            triangulate(camA, camB, [1.0, 2.0], [1.0, 2.0, 3.0])


class TestEuclideanBuilders:
    def test_parallel_camera_pair_layout(self, rng):
        K1 = np.diag([2.0, 1.0])
        K2 = np.diag([0.5, 1.0])
        R = random_rotation(rng)
        cam = parallel_camera_pair(K1, K2, R, 1.2, [0.1, -0.4, 0.7, 2.0])
        assert is_parallel(cam)
        dec = decompose_parallel(cam)
        assert np.isclose(dec.theta, 1.2)
        assert np.isclose(dec.d, abs(2.0 - 0.7))

    def test_random_calibrated_cameras(self, rng):
        cams, cals = random_calibrated_cameras(6, rng, first=(4.04, 1.37))
        assert len(cams) == len(cals) == 6
        assert cals[0][0][0, 0] == 4.04
        assert cals[0][1][0, 0] == 1.37
        for cam, (K1, K2) in zip(cams, cals):
            assert is_parallel(cam)
            f1 = np.linalg.norm(cam.A1[0, :3]) / np.linalg.norm(cam.A1[1, :3])
            f2 = np.linalg.norm(cam.A2[0, :3]) / np.linalg.norm(cam.A2[1, :3])
            assert np.isclose(f1, K1[0, 0])
            assert np.isclose(f2, K2[0, 0])


def per_camera_rotation(rng):
    """random_rotation as it was written before the rig was built as one
    array: one QR and one determinant per rotation."""
    Q, R = np.linalg.qr(rng.normal(size=(3, 3)))
    Q = Q * np.where(np.diag(R) >= 0, 1.0, -1.0)
    if np.linalg.det(Q) < 0:
        Q[:, 2] *= -1
    return Q.T


def per_camera_pair(K1, K2, rotation, theta, t):
    """parallel_camera_pair as it was written before, as a matrix pair."""
    r1, ry, r3 = rotation
    r2 = np.cos(theta) * r1 + np.sin(theta) * ry
    A1 = np.asarray(K1, float) @ np.vstack([np.append(r1, t[0]), np.append(r3, t[2])])
    A2 = np.asarray(K2, float) @ np.vstack([np.append(r2, t[1]), np.append(r3, t[3])])
    return A1, A2


def per_camera_rig(n, rng, first=None):
    """random_calibrated_cameras as it was written before: draws, rotation
    and camera one camera at a time. Returns matrix pairs and calibrations."""
    low, high = MAGNIFICATION_RANGE
    pairs, cals = [], []
    for i in range(n):
        if i == 0 and first is not None:
            f1, f2 = first
        else:
            f1, f2 = np.exp(rng.uniform(np.log(low), np.log(high), 2))
        K1 = np.diag([f1, 1.0])
        K2 = np.diag([f2, 1.0])
        R = per_camera_rotation(rng)
        theta = rng.uniform(0.35, np.pi - 0.35)
        t = rng.uniform(-2.0, 2.0, 4)
        t[3] = t[2] + np.sign(rng.normal()) * rng.uniform(0.5, 2.0)
        pairs.append(per_camera_pair(K1, K2, R, theta, t))
        cals.append((K1, K2))
    return pairs, cals


@pytest.mark.parametrize("first", [None, (4.04, 1.37)], ids=["drawn", "pinned"])
def test_random_rig_matches_per_camera_loop(first):
    """The rig built as one array is bit for bit the one built camera by
    camera, and leaves the generator in the same state."""
    for seed in range(50):
        n = (1, 2, 9, 40, 200)[seed % 5]
        rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        cams, cals = random_calibrated_cameras(n, rng, first=first)
        pairs, reference_cals = per_camera_rig(n, reference_rng, first=first)
        assert len(cams) == len(cals) == n
        for cam, (A1, A2), cal, reference_cal in zip(cams, pairs, cals, reference_cals):
            assert np.array_equal(cam.A1, A1) and np.array_equal(cam.A2, A2)
            assert all(np.array_equal(K, R) for K, R in zip(cal, reference_cal))
        assert rng.bit_generator.state == reference_rng.bit_generator.state


def test_scalar_builders_match_per_camera_code():
    rng = np.random.default_rng(31)
    for seed in range(20):
        R = random_rotation(np.random.default_rng(seed))
        assert np.array_equal(R, per_camera_rotation(np.random.default_rng(seed)))
        K1, K2 = np.diag(rng.uniform(0.5, 4, 2)), np.diag(rng.uniform(0.5, 4, 2))
        theta, t = rng.uniform(0.3, 3), rng.uniform(-2, 2, 4)
        cam = parallel_camera_pair(K1, K2, R, theta, t)
        A1, A2 = per_camera_pair(K1, K2, R, theta, t)
        assert np.array_equal(cam.A1, A1) and np.array_equal(cam.A2, A2)
        K1[0, 1], K2[0, 1] = rng.normal(size=2)  # with offsets: equal up to rounding
        cam = parallel_camera_pair(K1, K2, R, theta, t)
        A1, A2 = per_camera_pair(K1, K2, R, theta, t)
        assert np.allclose(cam.A1, A1, rtol=1e-15, atol=1e-15)
        assert np.allclose(cam.A2, A2, rtol=1e-15, atol=1e-15)


@pytest.mark.parametrize("n", [2.5, True, "7", None, -1])
def test_rig_size_must_be_a_count(n):
    with pytest.raises(ValidationError, match="n_cameras"):
        random_calibrated_cameras(n, np.random.default_rng(0))


def test_rig_size_may_be_zero_or_a_numpy_integer():
    assert random_calibrated_cameras(0, np.random.default_rng(0)) == ([], [])
    cams, cals = random_calibrated_cameras(np.int64(3), np.random.default_rng(0))
    assert len(cams) == len(cals) == 3


@pytest.mark.parametrize("first", [(2.0,), (-1.0, 2.0), (0.0, 1.0), (np.inf, 1.0),
                                   (np.nan, 1.0), (1.0, 2.0, 3.0), "ab"])
@pytest.mark.filterwarnings("error")
def test_first_magnifications_must_be_two_positive_numbers(first):
    with pytest.raises(ValidationError, match="first_camera_magnifications"):
        random_calibrated_cameras(3, np.random.default_rng(0), first=first)


def measured_and_reprojected(camA, camB, x, row):
    """Image residuals of a point through the scalar projection."""
    ua, ub = project(camA, x), project(camB, x)
    return np.concatenate([ua[:2] / ua[2] - row[:2] / row[2],
                           ub[:2] / ub[2] - row[3:5] / row[5]])


def projective_gap(X, P):
    """Largest row distance of two point arrays at unit norm, up to sign."""
    X = X / np.linalg.norm(X, axis=1, keepdims=True)
    P = P / np.linalg.norm(P, axis=1, keepdims=True)
    return float(np.max(np.minimum(np.linalg.norm(X - P, axis=1),
                                   np.linalg.norm(X + P, axis=1))))


class TestTriangulationKernel:
    # (points, sigma, seeds) of the no-truth regression sweep
    NO_TRUTH_RUNS = ((70, 0.0, range(20)), (200, 1e-5, range(20)),
                     (70, 1e-4, range(40)))

    @pytest.mark.parametrize("n, sigma, seeds", NO_TRUTH_RUNS)
    def test_no_truth_runs_succeed(self, n, sigma, seeds):
        """Both recovered configurations explain the images equally well,
        so their refined reprojection errors agree; a refinement that
        stops short of the minimum breaks the agreement."""
        failed = []
        for seed in seeds:
            scene = generate_scene(SceneConfig(
                n_points=n, noise_sigma=sigma, seed=seed, image_scale=100))
            report = run_sfm_experiment(correspondences=scene.correspondences)
            if not report.ok:
                failed.append((seed, report.error))
                continue
            a, b = (c["reprojection_rms"] for c in report.configurations)
            if abs(a - b) > 1e-6 * max(a, b) + 1e-9:
                failed.append((seed, a, b))
        assert failed == []

    @pytest.mark.parametrize("seed", range(5))
    def test_noiseless_points_are_exact(self, seed):
        scene = generate_scene(SceneConfig(n_points=40, noise_sigma=0.0, seed=seed,
                                           image_scale=100))
        X, r = triangulate_points(*scene.cameras, scene.correspondences)
        assert projective_gap(X, scene.points) < 1e-9
        assert np.max(np.abs(r)) < 1e-9

    @pytest.mark.parametrize("seed", range(3))
    def test_noisy_points_are_stationary(self, seed):
        scene = generate_scene(SceneConfig(n_points=25, noise_sigma=1e-3, seed=seed,
                                           image_scale=100))
        camA, camB = scene.cameras
        X, R = triangulate_points(camA, camB, scene.correspondences)
        h = 1e-6
        for x, row, r in zip(X, scene.correspondences, R):
            assert np.allclose(measured_and_reprojected(camA, camB, x, row), r,
                               rtol=0, atol=1e-10)
            J = np.stack([(measured_and_reprojected(camA, camB, x + h * e, row)
                           - measured_and_reprojected(camA, camB, x - h * e, row))
                          / (2 * h) for e in np.eye(4)], axis=1)
            # J^T r = 0 up to a Gauss-Newton step of 1e-9 on the unit sphere
            assert np.linalg.norm(J.T @ r) < 1e-9 * np.linalg.norm(J, 2) ** 2

    @pytest.mark.parametrize("seed", range(20))
    def test_array_kernels_match_scalar_calls(self, seed, reference_pair):
        rng = np.random.default_rng(seed)
        scene = generate_scene(SceneConfig(n_points=12, noise_sigma=1e-4, seed=seed))
        for camA, camB in (scene.cameras, reference_pair):
            points = np.hstack([rng.uniform(-4, 4, (12, 3)), np.ones((12, 1))])
            for cam in (camA, camB):
                images = project_points(cam, points)
                for x, u in zip(points, images):
                    assert np.allclose(u, project(cam, x), rtol=1e-12, atol=0)
            corr = np.hstack([project_points(camA, points), project_points(camB, points)])
            corr[:, [0, 1, 3, 4]] += rng.normal(0, 1e-4, (12, 4)) * corr[:, [2, 2, 5, 5]]
            tensor = tensor_from_cameras(camA, camB)
            values = epipolar_residuals(tensor, corr)
            _, R = triangulate_points(camA, camB, corr)
            for row, value, r in zip(corr, values, R):
                assert abs(value - epipolar_residual(tensor, row[:3], row[3:])) \
                    <= 1e-12 * max(abs(value), 1e-300)
                # a point is fixed only to rounding along weak directions,
                # so the one-row triangulation is compared in the image
                x = refine_triangulation(camA, camB, row[:3], row[3:])
                assert np.allclose(measured_and_reprojected(camA, camB, x, row), r,
                                   rtol=0, atol=1e-9)

    def test_image_point_at_infinity_is_degenerate(self):
        scene = generate_scene(SceneConfig(n_points=20, noise_sigma=0.0, seed=1))
        corr = scene.correspondences.copy()
        corr[4, 2] = 0.0
        with pytest.raises(DegeneracyError, match="measured image point"):
            reprojection_rms(*scene.cameras, corr)
        with pytest.raises(DegeneracyError, match="measured image point"):
            refine_triangulation(*scene.cameras, corr[4, :3], corr[4, 3:])


def recorded(monkeypatch, name):
    """The number of rows of each call of a synthetic kernel from now on."""
    rows = []

    def counting(*args, _kernel=getattr(synthetic, name)):
        rows.append(len(args[-1]))
        return _kernel(*args)
    monkeypatch.setattr(synthetic, name, counting)
    return rows


class TestTriangulationBatches:
    @pytest.mark.parametrize("sigma", [0.0, 1e-4, 1e-3])
    @pytest.mark.parametrize("seed", range(10))
    def test_a_point_does_not_depend_on_its_batch(self, seed, sigma):
        """Every row's start, residuals and steps are computed per point,
        so the rows of a slice triangulate bit for bit as in the whole."""
        scene = generate_scene(SceneConfig(n_points=40, noise_sigma=sigma, seed=seed,
                                           image_scale=100))
        X, R = triangulate_points(*scene.cameras, scene.correspondences)
        for rows in (slice(0, 1), slice(3, 4), slice(5, 12), slice(0, 17), slice(20, 40)):
            Xs, Rs = triangulate_points(*scene.cameras, scene.correspondences[rows])
            assert np.array_equal(Xs, X[rows]) and np.array_equal(Rs, R[rows]), rows

    @pytest.mark.parametrize("sigma", [0.0, 1e-4])
    @pytest.mark.parametrize("seed", range(5))
    def test_a_stack_of_pairs_equals_each_pair_alone(self, seed, sigma):
        """The recovered configurations and the true pair, triangulated as
        one stack, give each pair's points and residuals bit for bit."""
        scene = generate_scene(SceneConfig(n_points=70, noise_sigma=sigma, seed=seed,
                                           image_scale=100))
        report = run_sfm_experiment(correspondences=scene.correspondences)
        pairs = [[[c["cameras"][a], c["cameras"][b]] for a, b in (("A1", "A2"), ("B1", "B2"))]
                 for c in report.configurations]
        R = np.array(pairs + [[(cam.A1, cam.A2) for cam in scene.cameras]])
        X, r, error = synthetic._triangulate(R, scene.correspondences)
        assert error is None and X.shape == r.shape == (3, 70, 4)
        for k in range(3):
            Xk, rk, error = synthetic._triangulate(R[k:k + 1], scene.correspondences)
            assert error is None
            assert np.array_equal(Xk[0], X[k]) and np.array_equal(rk[0], r[k])

    @pytest.mark.parametrize("seed", range(20))
    def test_a_point_stops_once_its_cost_moves_by_rounding(self, seed, monkeypatch):
        """With the true cameras, every noisy triangulation ends within
        MAX_PASSES form evaluations, and within ten here: a step within the
        rounding of x0 and of F moves the cost |x - x0|^2 by no more than
        rounding, and it ends its point."""
        calls = recorded(monkeypatch, "_form")
        counts = []
        for n in (70, 280):
            for sigma in (1e-5, 1e-4, 1e-3):
                scene = generate_scene(SceneConfig(n_points=n, noise_sigma=sigma, seed=seed,
                                                   image_scale=100))
                calls.clear()
                triangulate_points(*scene.cameras, scene.correspondences)
                counts.append(len(calls))
        assert max(counts) <= min(10, synthetic.MAX_PASSES), counts

    def test_no_step_for_a_point_that_stops(self, monkeypatch):
        """Noiseless points are at rounding, |F(x0)| <= ROUNDOFF sum |terms|,
        so each stops after its first, Sampson, correction: one form
        evaluation, and no further pass."""
        calls = recorded(monkeypatch, "_form")
        scene = generate_scene(SceneConfig(n_points=70, noise_sigma=0.0, seed=0, image_scale=100))
        triangulate_points(*scene.cameras, scene.correspondences)
        assert calls == [70]

    @pytest.mark.parametrize("sigma", [0.0, 1e-5, 1e-3])
    @pytest.mark.parametrize("seed", range(5))
    def test_jacobians_only_for_the_points_that_step(self, seed, sigma, monkeypatch):
        """The gradient of F, the Jacobian of the correction, is evaluated
        only for the points that take another step: after the first pass
        exactly the points off rounding that have a gradient, then, in
        order, points of the pass before that had a gradient and moved by
        more than the rounding of x0 and of F."""
        calls = []

        def correction(T, x, x0, _kernel=synthetic._correction):
            out = _kernel(T, x, x0)
            calls.append((x is x0, np.broadcast_to(T, out[0].shape[:-1] + (4, 4)).reshape(-1, 16),
                          np.broadcast_to(x0, out[0].shape).reshape(-1, 4), x.copy(), out[2:]))
            return out
        monkeypatch.setattr(synthetic, "_correction", correction)
        for n in (70, 280):
            report = run_sfm_experiment(SceneConfig(n_points=n, noise_sigma=sigma, seed=seed,
                                                    image_scale=100))
            assert report.ok
        passes = 0
        for (first, T, x0, x, (level, flat, blur)), after in zip(calls, calls[1:] + [None]):
            # a row is its tensor and its measured point
            keys = [tuple(row) for row in np.hstack([T, x0])]
            last = after is None or after[0]  # the next call starts another triangulation
            nxt = [] if last else [tuple(row) for row in np.hstack([after[1], after[2]])]
            if first:
                assert nxt == [k for k, go in zip(keys, ~(level | flat).reshape(-1)) if go]
                continue
            if last:
                continue
            passes += 1
            rows = [keys.index(k) for k in nxt]
            assert rows == sorted(rows) and not np.any(flat[rows])
            moved = np.linalg.norm(after[3] - x[rows], axis=1)
            assert np.all(moved > ROUNDOFF * (np.linalg.norm(x0[rows], axis=1) + blur[rows]))
        if sigma:
            assert passes

    @pytest.mark.parametrize("sigma", [0.0, 1e-5])
    @pytest.mark.parametrize("seed", range(5))
    def test_a_point_at_rounding_keeps_its_start(self, seed, sigma, monkeypatch):
        """A point whose F(x0) is within rounding of its terms keeps the
        first, Sampson, correction it starts from: no later pass moves it,
        and the last step, F taken from the cameras, moves its residual by
        no more than F's rounding in image units. Noiseless scenes have
        such points, noisy ones none."""
        first = []

        def form(T, x, _kernel=synthetic._form):
            out = _kernel(T, x)
            if not first:
                first.append((x, out))
            return out
        monkeypatch.setattr(synthetic, "_form", form)
        scene = generate_scene(SceneConfig(n_points=280, noise_sigma=sigma, seed=seed,
                                           image_scale=100))
        _, r = triangulate_points(*scene.cameras, scene.correspondences)
        x0, (F, g, scale, _) = first[0]
        at_rounding = (np.abs(F) <= ROUNDOFF * scale)[0]
        size = np.linalg.norm(g, axis=-1)[0]
        sampson = (-(F / size ** 2)[..., None] * g)[0]
        gap = np.linalg.norm(r - sampson, axis=1)
        blur = scale[0] / size
        assert np.all(gap[at_rounding] <= ROUNDOFF * (np.linalg.norm(x0, axis=1) + blur)[at_rounding])
        assert np.any(at_rounding) == (sigma == 0)


def corrected(scene):
    """Points, residuals, measured points x0 and scaled tensor of the
    triangulation of a scene's correspondences through its cameras."""
    X, r = triangulate_points(*scene.cameras, scene.correspondences)
    corr = scene.correspondences
    x0 = corr[:, [0, 1, 3, 4]] / corr[:, [2, 2, 5, 5]]
    T = pow2_scaled(_tensors(np.array([[(cam.A1, cam.A2) for cam in scene.cameras]])))[0]
    return X, r, x0, T


class TestOptimalCorrection:
    @pytest.mark.parametrize("sigma", [0.0, 1e-5, 1e-3])
    @pytest.mark.parametrize("seed", range(5))
    def test_corrected_points_lie_on_the_hypersurface(self, seed, sigma):
        """|F(x0 + r)| is within rounding of the sum of its terms."""
        scene = generate_scene(SceneConfig(n_points=280, noise_sigma=sigma, seed=seed,
                                           image_scale=100))
        _, r, x0, T = corrected(scene)
        F, _, scale, _ = _form(T, x0 + r)
        assert np.all(np.abs(F) <= ROUNDOFF * scale)

    @pytest.mark.parametrize("sigma", [0.0, 1e-5, 1e-3])
    @pytest.mark.parametrize("seed", range(5))
    def test_corrections_are_normal_to_the_hypersurface(self, seed, sigma):
        """r = x^ - x0 is parallel to grad F(x^) to first order: its part
        across the gradient is within rounding of x0 plus a term of
        second order in r."""
        scene = generate_scene(SceneConfig(n_points=280, noise_sigma=sigma, seed=seed,
                                           image_scale=100))
        _, r, x0, T = corrected(scene)
        _, g, _, _ = _form(T, x0 + r)
        n = g / np.linalg.norm(g, axis=1, keepdims=True)
        across = np.linalg.norm(r - np.sum(r * n, axis=1, keepdims=True) * n, axis=1)
        size = np.linalg.norm(x0, axis=1)
        assert np.all(across <= ROUNDOFF * size + np.sum(r * r, axis=1) / size)

    @pytest.mark.parametrize("sigma", [0.0, 1e-4, 1e-3])
    @pytest.mark.parametrize("seed", range(5))
    def test_the_point_reprojects_onto_its_correction(self, seed, sigma):
        """Each point, the meet of its corrected planes, images at x0 + r
        in both cameras."""
        scene = generate_scene(SceneConfig(n_points=280, noise_sigma=sigma, seed=seed,
                                           image_scale=100))
        X, r, x0, _ = corrected(scene)
        u, v = (project_points(cam, X) for cam in scene.cameras)
        reprojected = np.hstack([u[:, :2] / u[:, 2:], v[:, :2] / v[:, 2:]])
        assert np.max(np.abs(reprojected - (x0 + r))) < 1e-9

    @pytest.mark.parametrize("n, seed", [(70, 4), (280, 83), (280, 109), (280, 126)])
    def test_both_configurations_score_alike_at_rounding(self, n, seed):
        """The two recovered configurations share one hypersurface, so their
        RMS values agree to rounding. These scenes hold a point where the
        expanded form rounds at about 400 |grad F| |x0|: F taken from the
        tensor alone, not from the cameras in the last step, leaves them
        up to 1e-8 apart."""
        report = run_sfm_experiment(SceneConfig(n_points=n, noise_sigma=1e-5, seed=seed,
                                                image_scale=100))
        a, b = (c["reprojection_rms"] for c in report.configurations)
        assert abs(a - b) <= 1e-9 * a

    @pytest.mark.parametrize("n, seed", [(70, 156), (280, 128), (280, 163)])
    def test_an_oscillating_point_stops_before_the_cap(self, n, seed, monkeypatch):
        """A far point of these poorly recovered configurations oscillates
        about its closest point; a step that turns back on the last, at a
        ratio rho < 0, scaled by 1 / (1 - rho), lets every point stop on its
        step before MAX_PASSES."""
        calls = recorded(monkeypatch, "_correction")
        report = run_sfm_experiment(SceneConfig(n_points=n, noise_sigma=1e-3, seed=seed,
                                                image_scale=100))
        assert report.ok and len(calls) < synthetic.MAX_PASSES

    def test_no_gradient_off_the_hypersurface_is_degenerate(self, monkeypatch):
        """A point whose gradient of F is zero within rounding, while F is
        not, has no direction to move in: DegeneracyError. The first of
        two configurations fails, so none is kept."""
        def no_gradient(T, x, _kernel=synthetic._form):
            F, g, scale, scales = _kernel(T, x)
            return F, 0 * g, scale, scales
        monkeypatch.setattr(synthetic, "_form", no_gradient)
        scene = generate_scene(SceneConfig(n_points=70, noise_sigma=1e-4, seed=0, image_scale=100))
        with pytest.raises(DegeneracyError, match="no gradient"):
            triangulate_points(*scene.cameras, scene.correspondences)
        R = np.array(2 * [[(cam.A1, cam.A2) for cam in scene.cameras]])
        X, r, error = synthetic._triangulate(R, scene.correspondences)
        assert X.shape == r.shape == (0, 70, 4) and "no gradient" in str(error)


class TestTriangulationStart:
    @pytest.mark.parametrize("sigma", [0.0, 1e-5, 1e-4])
    @pytest.mark.parametrize("seed", range(20))
    def test_start_matches_a_reference_svd(self, seed, sigma, monkeypatch):
        """The start of every point is the right singular vector of its
        four unit planes for the smallest singular value, up to sign."""
        gaps = []

        def recording(planes, D, _start=synthetic._start_points):
            x = _start(planes, D)
            reference = np.linalg.svd(planes)[2][:, 3]
            gaps.append(projective_gap(x, reference))
            return x
        monkeypatch.setattr(synthetic, "_start_points", recording)
        scene = generate_scene(SceneConfig(n_points=70, noise_sigma=sigma, seed=seed,
                                           image_scale=100))
        triangulate_points(*scene.cameras, scene.correspondences)
        assert len(gaps) == 1 and gaps[0] < 1e-12

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("sigma", [0.0, 1e-4])
    @pytest.mark.parametrize("seed", range(40))
    def test_one_camera_used_twice(self, seed, sigma):
        """Planes of rank 2 leave only rounding in the meets; every point of
        the ray is exact, and the one the start picks images finitely."""
        scene = generate_scene(SceneConfig(n_points=70, noise_sigma=sigma, seed=seed))
        camera = scene.cameras[0]
        image = scene.correspondences[:, :3]
        X, r = triangulate_points(camera, camera, np.hstack([image, image]))
        assert np.all(np.isfinite(X)) and np.max(np.abs(r)) <= 1e-12

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_one_camera_used_twice_on_axis_planes(self):
        """A camera whose slits run along the axes: image coordinates of 0
        give planes that are exact unit vectors, and their meets round to
        exact zeros, which the start must not divide by."""
        camera = TwoSlitCamera(np.array([[1.0, 0, 0, 0], [0, 0, 1, 1]]),
                               np.array([[0.0, 1, 0, 0], [0, 0, 1, -1]]))
        g = np.arange(-2.0, 3.0)
        grid = np.stack(np.meshgrid(g, g, [-3.0, 0.0, 2.0, 3.0]), axis=-1).reshape(-1, 3)
        u = project_points(camera, np.hstack([grid, np.ones((len(grid), 1))]))
        X, r = triangulate_points(camera, camera, np.hstack([u, u]))
        assert np.all(np.isfinite(X)) and np.max(np.abs(r)) <= 1e-12


def test_triangulation_factorizes_only_its_start(monkeypatch):
    """One triangulate_points call on a noisy scene makes no SVD, not even
    for its start, and no pseudo-inverse, however many passes its
    Gauss-Newton refinement takes."""
    scene = generate_scene(SceneConfig(n_points=50, noise_sigma=1e-3, seed=2, image_scale=100))
    calls = {"svd": 0, "pinv": 0}
    for name in calls:
        def counting(*args, _name=name, _original=getattr(np.linalg, name), **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counting)
    _, R = triangulate_points(*scene.cameras, scene.correspondences)
    assert calls == {"svd": 0, "pinv": 0}
    assert np.sqrt(np.mean(R ** 2)) < 1e-2


@pytest.mark.parametrize("n_points", [2.5, True, "70", None])
def test_non_integer_point_count_is_invalid_before_sampling(n_points, monkeypatch):
    def no_sampling(seed):
        raise AssertionError("generate_scene sampled before validating n_points")
    monkeypatch.setattr(np.random, "default_rng", no_sampling)
    with pytest.raises(ValidationError, match="integer"):
        generate_scene(SceneConfig(n_points=n_points))


def test_numpy_integer_point_count_is_valid():
    scene = generate_scene(SceneConfig(n_points=np.int64(9), seed=4))
    assert scene.correspondences.shape == (9, 6)


def scalar_rescale(camera, points, target_rms):
    """The first row of each matrix scaled so that both image coordinates
    have the requested RMS magnitude over the sample, one camera at a time."""
    us = project_points(camera, points)
    inhom = us[:, :2] / us[:, 2:3]
    rms = np.sqrt(np.mean(inhom ** 2, axis=0))
    scales = np.where(rms > ZERO_TOL, target_rms / np.maximum(rms, ZERO_TOL), 1.0)
    return TwoSlitCamera(camera.A1 * [[scales[0]], [1.0]], camera.A2 * [[scales[1]], [1.0]])


def scalar_scene(config, cameras=None):
    """generate_scene as it was written before batching: one candidate
    point at a time, two scalar projections each."""
    rng = np.random.default_rng(config.seed)
    camA, camB = cameras if cameras is not None else default_camera_pair()
    pts = []
    attempts = 0
    while len(pts) < config.n_points:
        attempts += 1
        if attempts > 100 * config.n_points:
            raise DegeneracyError("could not sample points projecting through both cameras")
        x = np.append(rng.uniform(-config.box_halfwidth, config.box_halfwidth, 3), 1.0)
        try:
            ua = project(camA, x)
            ub = project(camB, x)
        except ValidationError:
            continue
        if abs(ua[2]) < 1e-6 * np.linalg.norm(ua) or abs(ub[2]) < 1e-6 * np.linalg.norm(ub):
            continue
        pts.append(x)
    points = np.stack(pts)
    camA = scalar_rescale(camA, points, config.image_scale)
    camB = scalar_rescale(camB, points, config.image_scale)
    ua = project_points(camA, points)
    ub = project_points(camB, points)
    clean = np.hstack([ua / ua[:, 2:], ub / ub[:, 2:]])
    noisy = clean.copy()
    if config.noise_sigma > 0:
        noisy[:, :2] += rng.normal(0.0, config.noise_sigma, (config.n_points, 2))
        noisy[:, 3:5] += rng.normal(0.0, config.noise_sigma, (config.n_points, 2))
    return points, (camA, camB), noisy, clean


def assert_same_scene(scene, reference):
    points, cameras, noisy, clean = reference
    assert np.array_equal(scene.points, points)
    assert np.array_equal(scene.correspondences, noisy)
    assert np.array_equal(scene.clean_correspondences, clean)
    for cam, ref in zip(scene.cameras, cameras):
        assert np.array_equal(cam.A1, ref.A1)
        assert np.array_equal(cam.A2, ref.A2)


def rejecting_pair():
    """The default rig with A1's second row scaled down, so that u3 is
    below 1e-6 |u| on about two thirds of the default box."""
    camA, camB = default_camera_pair()
    return TwoSlitCamera(camA.A1 * [[1.0], [2e-7]], camA.A2), camB


class TestBatchedSampler:
    @pytest.mark.parametrize("seed", range(20))
    def test_default_rig_matches_scalar_loop(self, seed):
        config = SceneConfig(n_points=70, noise_sigma=1e-4, seed=seed, image_scale=100.0)
        assert_same_scene(generate_scene(config), scalar_scene(config))

    @pytest.mark.parametrize("seed", range(5))
    def test_rejecting_rig_matches_scalar_loop(self, seed):
        cameras = rejecting_pair()
        config = SceneConfig(n_points=60, noise_sigma=1e-5, seed=seed)
        x = np.hstack([np.random.default_rng(seed).uniform(-5, 5, (1000, 3)),
                       np.ones((1000, 1))])
        u = project_points(cameras[0], x)
        assert np.mean(np.abs(u[:, 2]) < 1e-6 * np.linalg.norm(u, axis=1)) > 0.5
        assert_same_scene(generate_scene(config, cameras=cameras),
                          scalar_scene(config, cameras=cameras))

    def test_exhausted_budget_raises_after_the_same_draws(self, monkeypatch):
        # u3 = z (z + 8) against u1 = (y + 1) (z + 8): every point of a
        # 1e-9 box images too close to u3 = 0
        camA = TwoSlitCamera(np.array([[0.0, 1, 0, 1], [0, 0, 1, 0]]),
                             np.array([[1.0, 0, 0, 0], [0, 0, 1, 8]]))
        cameras = (camA, default_camera_pair()[1])
        config = SceneConfig(n_points=7, seed=3, box_halfwidth=1e-9)
        generators = []
        default_rng = np.random.default_rng

        def recording_rng(seed):
            generators.append(default_rng(seed))
            return generators[-1]

        monkeypatch.setattr(np.random, "default_rng", recording_rng)
        for sample in (generate_scene, scalar_scene):
            with pytest.raises(DegeneracyError, match="^could not sample points "
                               "projecting through both cameras$"):
                sample(config, cameras=cameras)
        batched, scalar = generators
        assert batched.bit_generator.state == scalar.bit_generator.state
        assert batched.bit_generator.state == default_rng(3).bit_generator.advance(
            300 * config.n_points).state

    def test_ten_thousand_points_take_under_a_quarter_second(self):
        config = SceneConfig(n_points=10_000, seed=0)
        generate_scene(config)
        best = np.inf
        for _ in range(3):
            t0 = time.perf_counter()
            generate_scene(config)
            best = min(best, time.perf_counter() - t0)
        assert best < 0.25



@pytest.mark.filterwarnings("error")
def test_triangulation_ignores_each_image_points_power_of_two():
    """Each image coordinate pair (z, w) counts only up to scale: rows
    times powers of two up to 2^+-1000 give the same points and residuals
    bit for bit, image coordinates that are exactly zero included."""
    scene = generate_scene(SceneConfig(n_points=30, noise_sigma=1e-4, seed=5))
    corr = scene.correspondences
    corr[0, 0] = corr[1, 4] = 0.0
    powers = np.random.default_rng(0).integers(-1000, 1001, (30, 2))
    scaled = np.ldexp(corr, np.repeat(powers, 3, axis=1))
    X, r = triangulate_points(*scene.cameras, corr)
    Xs, rs = triangulate_points(*scene.cameras, scaled)
    assert np.array_equal(Xs, X) and np.array_equal(rs, r)


def no_sampling(seed):
    raise AssertionError("generate_scene sampled before validating its config")


@pytest.mark.parametrize("seed", [-1, 1.5, True, "3"])
def test_seed_is_invalid_before_sampling(seed, monkeypatch):
    monkeypatch.setattr(np.random, "default_rng", no_sampling)
    with pytest.raises(ValidationError, match="seed"):
        generate_scene(SceneConfig(seed=seed))


@pytest.mark.parametrize("field", ["box_halfwidth", "image_scale"])
@pytest.mark.parametrize("value", [np.inf, np.nan, -1.0, 0.0])
@pytest.mark.filterwarnings("error")
def test_scene_sizes_must_be_finite_and_positive(field, value, monkeypatch):
    monkeypatch.setattr(np.random, "default_rng", no_sampling)
    with pytest.raises(ValidationError, match=field):
        generate_scene(SceneConfig(**{field: value}))


def test_numpy_integer_seed_gives_the_same_scene():
    scene = generate_scene(SceneConfig(n_points=12, seed=np.int64(3)))
    reference = generate_scene(SceneConfig(n_points=12, seed=3))
    assert type(scene.rng_seed) is int
    assert np.array_equal(scene.correspondences, reference.correspondences)


def test_default_pair_is_the_fixed_camera_and_its_moved_copy():
    """The second default camera is bit for bit the first one moved by
    apply_space_transform."""
    camA, camB = default_camera_pair()
    motion = euclidean_transform(
        rotation_about_axis([0, 1, 0], 0.6) @ rotation_about_axis([1, 0, 0], 0.35),
        [1.5, -2.0, 0.8])
    moved = apply_space_transform(TwoSlitCamera(camA.A1, camA.A2), motion)
    assert np.array_equal(camA.A1, [[0.0, 1, 0, 0], [0, 0, 1, -8]])
    assert np.array_equal(camA.A2, [[1.0, 0, 0, 0], [0, 0, 1, 8]])
    assert np.array_equal(camB.A1, moved.A1) and np.array_equal(camB.A2, moved.A2)


def test_default_pairs_are_independent():
    camA, camB = default_camera_pair()
    again = default_camera_pair()
    camA.A1[0, 0] = 7.0
    assert again[0].A1[0, 0] == 0.0
    assert not np.shares_memory(camB.A1, again[1].A1)
    assert generate_scene(SceneConfig(n_points=5)).cameras[0].A1[1, 3] == -8.0


def test_a_scene_checks_its_rig_once(rig_checks):
    pair = reference_camera_pair()
    rig_checks.clear()
    generate_scene(SceneConfig(n_points=70, seed=1))
    generate_scene(SceneConfig(n_points=70, seed=1), cameras=pair)
    assert rig_checks == [2, 2]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("box_halfwidth", [1e100, 1e150, 1e300, 2.0 ** 1022])
def test_a_box_of_any_float_size_gives_a_finite_scene(box_halfwidth):
    """Points count only up to scale: the sampler and the images see them
    divided by powers of two, so no image overflows."""
    scene = generate_scene(SceneConfig(n_points=40, seed=2, box_halfwidth=box_halfwidth))
    assert np.all(np.isfinite(scene.correspondences))
    assert np.max(np.abs(scene.points[:, :3])) <= box_halfwidth
    for col in (0, 1, 3, 4):
        assert np.isclose(np.sqrt(np.mean(scene.clean_correspondences[:, col] ** 2)), 50.0)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("field, value", [
    ("box_halfwidth", 1e308),  # the box 2 h wide is no float
    ("box_halfwidth", 1e-11),  # the image RMS is too small to scale
    ("image_scale", 1e9),  # the rescaled camera fails the check
    ("image_scale", 1e-9),
    ("image_scale", 1e300),  # the row scales overflow
    ("noise_sigma", 1e308),  # the noise overflows
])
def test_a_finite_config_out_of_range_names_its_field(field, value):
    with pytest.raises(ValidationError, match=field):
        generate_scene(SceneConfig(n_points=30, seed=1, **{field: value}))


@pytest.mark.parametrize("count", [1, 3])
def test_a_scene_needs_a_pair_of_cameras(count):
    camA, camB = default_camera_pair()
    with pytest.raises(ValidationError, match="cameras must be a pair"):
        generate_scene(SceneConfig(n_points=5), cameras=(camA, camB, camA)[:count])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("k", [-600, -1, 3, 600])
def test_cameras_scaled_by_powers_of_two_give_the_same_scene(k):
    """Each camera matrix counts only up to scale: matrices times 2^k, up
    to 2^+-600, give the same points and images bit for bit, and the
    rescaled cameras times 2^k."""
    config = SceneConfig(n_points=30, noise_sigma=1e-4, seed=5)
    pair = default_camera_pair()
    scaled = [TwoSlitCamera(np.ldexp(cam.A1, k), np.ldexp(cam.A2, k)) for cam in pair]
    scene, reference = generate_scene(config, scaled), generate_scene(config, pair)
    assert np.array_equal(scene.points, reference.points)
    assert np.array_equal(scene.correspondences, reference.correspondences)
    for cam, ref in zip(scene.cameras, reference.cameras):
        assert np.array_equal(cam.A1, np.ldexp(ref.A1, k))
        assert np.array_equal(cam.A2, np.ldexp(ref.A2, k))
