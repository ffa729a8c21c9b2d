"""End-to-end reconstruction and self-calibration runners."""

import json
from dataclasses import asdict

import numpy as np
import pytest

from twoslit.errors import ValidationError
from twoslit.experiments import (
    SelfcalConfig,
    SfmReport,
    run_selfcal_experiment,
    run_sfm_experiment,
)
from twoslit.golden import REFERENCE_MAGNIFICATIONS, REFERENCE_Q
from twoslit.synthetic import (
    SceneConfig,
    generate_scene,
    random_calibrated_cameras,
    reference_camera_pair,
)


def assert_no_shared_containers(d, report):
    def containers(value):
        if isinstance(value, (list, dict)):
            yield id(value)
        if isinstance(value, (list, tuple)):
            for v in value:
                yield from containers(v)
        elif isinstance(value, dict):
            for v in value.values():
                yield from containers(v)

    ours = set(containers(d))
    assert not ours & set(containers(list(vars(report).values())))


class TestSfmRunner:
    def test_noiseless_run(self):
        report = run_sfm_experiment(SceneConfig(n_points=40, noise_sigma=0.0,
                                                seed=9))
        assert report.ok
        assert report.error == ""
        assert report.n_points == 40
        assert report.residual_max < 1e-12
        assert len(report.configurations) == 2
        assert report.equivalent_configuration in (0, 1)
        best = report.configurations[report.equivalent_configuration]
        assert best["tensor_gap"] < 1e-9
        assert best["camera_gap"] < 1e-8
        assert best["reprojection_rms"] < 1e-8
        other = report.configurations[1 - report.equivalent_configuration]
        assert other["tensor_gap"] < 1e-9
        assert other["camera_gap"] > 1e-3

    def test_explicit_correspondences_skip_truth_checks(self):
        scene = generate_scene(SceneConfig(n_points=30, seed=10,
                                           noise_sigma=0.0))
        report = run_sfm_experiment(correspondences=scene.correspondences)
        assert report.ok
        assert report.equivalent_configuration is None
        for entry in report.configurations:
            assert entry["camera_gap"] is None
            assert entry["tensor_gap"] < 1e-9

    def test_coplanar_scene_reports_degeneracy(self, rng):
        camA, camB = reference_camera_pair()
        span = rng.normal(size=(3, 4))
        rows = []
        while len(rows) < 30:
            x = rng.normal(size=3) @ span
            try:
                from twoslit.cameras import project
                rows.append(np.concatenate([project(camA, x),
                                            project(camB, x)]))
            except ValidationError:
                continue
        report = run_sfm_experiment(correspondences=np.array(rows))
        assert not report.ok
        assert report.error_kind == "degeneracy"
        assert "do not determine" in report.error

    def test_deterministic_given_seed(self):
        r1 = run_sfm_experiment(SceneConfig(n_points=25, seed=3))
        r2 = run_sfm_experiment(SceneConfig(n_points=25, seed=3))
        assert r1.to_dict() == r2.to_dict()

    def test_report_serializes_to_json(self):
        report = run_sfm_experiment(SceneConfig(n_points=20, seed=1))
        text = json.dumps(report.to_dict())
        back = json.loads(text)
        assert back["kind"] == "sfm"
        assert back["rng_algorithm"] == report.rng_algorithm
        assert len(back["candidates"]) == len(report.candidates)

    @pytest.mark.parametrize("seed", [302, 340, 343, 514])
    def test_near_zero_discriminant_keeps_its_branches(self, seed):
        """Noise pushes a normal-form discriminant slightly below zero on
        these seeds; clamped to a double root, it keeps both
        configurations, each once."""
        report = run_sfm_experiment(SceneConfig(n_points=70, noise_sigma=1e-4,
                                                seed=seed, image_scale=100.0))
        assert report.ok, report.error
        first, second = report.configurations
        assert first["minor_matrix"] != second["minor_matrix"]
        assert min(first["camera_gap"], second["camera_gap"]) < 5e-3

    def test_to_dict_is_a_separate_asdict(self):
        report = run_sfm_experiment(SceneConfig(n_points=20, seed=1))
        d = report.to_dict()
        assert d == asdict(report)
        assert_no_shared_containers(d, report)

    def test_report_defaults(self):
        report = SfmReport()
        assert not report.ok
        assert report.equivalent_configuration is None


class TestSelfcalRunner:
    def test_noiseless_run(self):
        config = SelfcalConfig(n_cameras=8, noise_sigma=0.0, seed=3,
                               first_camera_magnifications=REFERENCE_MAGNIFICATIONS,
                               q_matrix=REFERENCE_Q)
        report = run_selfcal_experiment(config)
        assert report.ok
        assert report.daq_true_gap < 1e-9
        assert report.similarity_defect < 1e-6
        assert report.magnification_max_error < 1e-6
        m1, m2 = report.magnifications_recovered[0]
        assert abs(m1 - 4.04) < 1e-6 and abs(m2 - 1.37) < 1e-6

    def test_noisy_run_stays_close(self):
        config = SelfcalConfig(n_cameras=10, noise_sigma=1e-4, seed=0,
                               first_camera_magnifications=REFERENCE_MAGNIFICATIONS)
        report = run_selfcal_experiment(config)
        assert report.ok
        assert report.magnification_max_error < 0.05

    def test_too_few_cameras_reported(self):
        report = run_selfcal_experiment(SelfcalConfig(n_cameras=3))
        assert not report.ok
        assert report.error_kind == "validation"
        assert "at least 5" in report.error

    def test_bad_q_matrix_reported(self):
        report = run_selfcal_experiment(
            SelfcalConfig(n_cameras=6, q_matrix=tuple(np.zeros((4, 4)).tolist())))
        assert not report.ok
        assert report.error_kind == "validation"

    def test_report_serializes_to_json(self):
        report = run_selfcal_experiment(SelfcalConfig(n_cameras=6, seed=2))
        back = json.loads(json.dumps(report.to_dict()))
        assert back["kind"] == "selfcal"
        assert back["n_cameras"] == 6

    def test_to_dict_is_a_separate_asdict(self):
        report = run_selfcal_experiment(SelfcalConfig(n_cameras=6, seed=2))
        d = report.to_dict()
        assert d == asdict(report)
        assert_no_shared_containers(d, report)


def per_matrix_noisy_cameras(config):
    """The rig run_selfcal_experiment once built one matrix at a time,
    kept as the reference for its random stream."""
    rng = np.random.default_rng(config.seed)
    cams, _ = random_calibrated_cameras(config.n_cameras, rng)
    Q = rng.normal(size=(4, 4))
    while abs(np.linalg.det(Q)) < 0.1:
        Q = rng.normal(size=(4, 4))
    Qinv = np.linalg.inv(Q)
    noisy = []
    for cam in cams:
        pair = []
        for A in (cam.A1 @ Qinv, cam.A2 @ Qinv):
            An = A / np.linalg.norm(A)
            pair.append(An + rng.normal(0.0, config.noise_sigma, (2, 4)))
        noisy.append(pair)
    return np.array(noisy)


@pytest.mark.parametrize("seed", range(20))
def test_selfcal_rig_keeps_the_random_stream(seed):
    config = SelfcalConfig(n_cameras=10 + seed, noise_sigma=1e-4, seed=seed)
    report = run_selfcal_experiment(config)
    got = np.array([(cam["A1"], cam["A2"]) for cam in report.cameras])
    reference = per_matrix_noisy_cameras(config)
    assert got.shape == reference.shape
    assert np.max(np.abs(got - reference)) <= 1e-14 * np.max(np.abs(reference))
