"""Scene generation, triangulation, and euclidean camera builders."""

import time

import numpy as np
import pytest

from twoslit.cameras import (
    TwoSlitCamera,
    decompose_parallel,
    inverse_ray,
    is_parallel,
    project,
    project_points,
)
from twoslit.epipolar import epipolar_residual, epipolar_residuals, tensor_from_cameras
from twoslit.errors import DegeneracyError, ValidationError
from twoslit.experiments import run_sfm_experiment
from twoslit.projective import join_points, point_on_line, proj_equal
from twoslit.synthetic import (
    RNG_ALGORITHM,
    SceneConfig,
    _rescale_to_image,
    default_camera_pair,
    euclidean_transform,
    generate_scene,
    line_point_direction,
    parallel_camera_pair,
    random_calibrated_cameras,
    random_rotation,
    reference_camera_pair,
    refine_triangulation,
    reprojection_rms,
    rotation_about_axis,
    triangulate_correspondence,
    triangulate_points,
    triangulate_rays,
)
from twoslit import golden


def line_through(point, direction):
    p = np.append(point, 1.0)
    q = np.append(np.asarray(point) + np.asarray(direction), 1.0)
    return join_points(p, q)


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
        config = SceneConfig(n_points=50, seed=3, image_scale=100.0)
        scene = generate_scene(config)
        clean = scene.clean_correspondences
        for col in (0, 1, 3, 4):
            assert np.isclose(np.sqrt(np.mean(clean[:, col] ** 2)), 100.0,
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
    def test_line_point_direction_parameterizes_the_line(self, rng):
        p = rng.normal(size=3)
        d = rng.normal(size=3)
        l = line_through(p, d)
        point, direction = line_point_direction(l)
        assert np.isclose(np.linalg.norm(direction), 1.0)
        assert point_on_line(l, np.append(point, 1.0), tol=1e-9)
        assert point_on_line(l, np.append(point + direction, 1.0), tol=1e-9)

    def test_line_at_infinity_rejected(self):
        l = join_points([1.0, 0, 0, 0], [0.0, 1, 0, 0])
        with pytest.raises(DegeneracyError, match="infinity"):
            line_point_direction(l)

    def test_rays_meet_at_the_point(self, rng):
        x = rng.normal(size=3)
        rays = [line_through(x, rng.normal(size=3)) for _ in range(3)]
        rec, worst = triangulate_rays(rays)
        assert worst < 1e-9
        assert np.allclose(rec[:3] / rec[3], x, atol=1e-9)

    def test_parallel_rays_rejected(self):
        d = np.array([0.3, -1.0, 0.2])
        rays = [line_through([0.0, 0, 0], d), line_through([1.0, 0, 0], d)]
        with pytest.raises(DegeneracyError, match="parallel"):
            triangulate_rays(rays)

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
    camA = _rescale_to_image(camA, points, config.image_scale)
    camB = _rescale_to_image(camB, points, config.image_scale)
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
