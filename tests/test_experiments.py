"""End-to-end reconstruction and self-calibration runners."""

import json
import re
from dataclasses import asdict

import numpy as np
import pytest

from twoslit.cameras import (
    TwoSlitCamera,
    apply_space_transform,
    camera_distance,
    inverse_ray,
    project,
    project_points,
    to_quadratic,
)
from twoslit.congruence import GeneralCongruence
from twoslit.epipolar import (
    EpipolarTensor,
    MinorMatrix,
    cameras_from_minor_matrix,
    epipolar_residual,
    essential_decompose,
    estimate_tensor_linear,
    multilinear_transform,
    normal_form_transform,
    tensor_from_cameras,
    tensor_gap,
)
from twoslit.errors import ValidationError
from twoslit.experiments import (
    SelfcalConfig,
    SfmReport,
    run_selfcal_experiment,
    run_sfm_experiment,
    run_sfm_pipeline,
)
from twoslit.io import write_json
from twoslit.golden import REFERENCE_MAGNIFICATIONS, REFERENCE_Q
from twoslit.projective import RetinalFrame, cosine_distance
from twoslit.selfcal import DualAbsoluteQuadric, similarity_defect
from twoslit.synthetic import (
    SceneConfig,
    euclidean_transform,
    generate_scene,
    parallel_camera_pair,
    random_calibrated_cameras,
    reference_camera_pair,
    reprojection_rms,
    rotation_about_axis,
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

    def test_a_point_far_off_the_start_is_still_corrected(self):
        """Seed 1229: both configurations, 1.5e-3 and 1.2e-2 from the true
        cameras, explain every point to the noise level; a Gauss-Newton
        triangulation left one point at cost 7e5 and both RMS values at
        50."""
        report = run_sfm_experiment(SceneConfig(n_points=70, noise_sigma=1e-4, seed=1229,
                                                image_scale=100))
        assert report.ok, report.error
        assert all(c["reprojection_rms"] < 1e-2 for c in report.configurations)

    @pytest.mark.parametrize("n, seed", [(70, 3688658734), (280, 1778965564)])
    def test_a_point_near_a_denominator_plane_reprojects_exactly(self, n, seed):
        """Noiseless scenes with a point within 5e-8 relative of a
        denominator plane, where one ulp of a float 3D point moves its
        image by 3.6e-7: the correction never forms that point, so the
        equivalent configuration's RMS stays at rounding."""
        report = run_sfm_experiment(SceneConfig(n_points=n, noise_sigma=0.0, seed=seed,
                                                image_scale=100))
        assert report.ok, report.error
        assert report.configurations[report.equivalent_configuration]["reprojection_rms"] < 1e-9

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

    def test_nearly_singular_q_matrix_reported(self):
        """At s4/s1 = 1e-10 the determinant cannot clear q_matrix, and the
        SVD rejects it."""
        report = run_selfcal_experiment(
            SelfcalConfig(n_cameras=6, q_matrix=tuple(np.diag([1.0, 1, 1, 1e-10]).tolist())))
        assert report.error == "q_matrix must be an invertible 4x4 matrix"

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


def reported(report):
    """Raise the ValidationError a failed report records."""
    assert not report.ok and report.error_kind == "validation"
    raise ValidationError(report.error)


def reference_tensor():
    return tensor_from_cameras(*reference_camera_pair())


def congruence_of_bidegree(beta):
    return GeneralCongruence(beta=beta, f=[1.0], g=[1.0, 0], h=[0.0, 1])


# (test id, argument name, its shape, a call that passes x as that
# argument) for each numeric argument of the library's entry points
NUMERIC_ARGUMENTS = [
    ("camera-A1", "A1", (2, 4), lambda x: TwoSlitCamera(x, np.eye(4)[2:])),
    ("camera-A2", "A2", (2, 4), lambda x: TwoSlitCamera(np.eye(4)[:2], x)),
    ("project_points", "point", (5, 4), lambda x: project_points(reference_camera_pair()[0], x)),
    ("project", "point", (4,), lambda x: project(reference_camera_pair()[0], x)),
    ("inverse_ray", "image point", (3,), lambda x: inverse_ray(reference_camera_pair()[0], x)),
    ("to_quadratic", "plane", (4,),
     lambda x: to_quadratic(reference_camera_pair()[0], plane=x)),
    ("apply_space_transform", "space transform", (4, 4),
     lambda x: apply_space_transform(reference_camera_pair()[0], x)),
    ("tensor", "tensor", (2, 2, 2, 2), EpipolarTensor),
    ("from_flat", "tensor entries", (16,), EpipolarTensor.from_flat),
    ("estimate", "correspondence", (20, 6), estimate_tensor_linear),
    ("essential_decompose", "K1A", (2, 2),
     lambda x: essential_decompose(reference_tensor(), x, *[np.eye(2)] * 3)),
    ("residual-u", "image point u", (3,),
     lambda x: epipolar_residual(reference_tensor(), x, [1.0, 2, 3])),
    ("residual-v", "image point v", (3,),
     lambda x: epipolar_residual(reference_tensor(), [1.0, 2, 3], x)),
    ("multilinear-tensor", "tensor values", (2, 2, 2, 2),
     lambda x: multilinear_transform(x, [np.eye(2)] * 4)),
    ("multilinear-matrices", "matrices", (4, 2, 2),
     lambda x: multilinear_transform(np.ones((2, 2, 2, 2)), x)),
    ("quadric", "quadric matrix", (4, 4), DualAbsoluteQuadric),
    ("minor-matrix", "minor matrix", (4, 4), MinorMatrix),
    ("defect-Q_true", "Q_true", (4, 4), lambda x: similarity_defect(x, np.eye(4))),
    ("defect-q_prime", "q_prime", (4, 4), lambda x: similarity_defect(np.eye(4), x)),
    ("frame", "frame basis", (4, 3), RetinalFrame),
    ("cosine_distance", "b", (4,), lambda x: cosine_distance([1.0, 0, 0, 0], x)),
    ("rotation-axis", "rotation axis", (3,), lambda x: rotation_about_axis(x, 1.0)),
    ("rotation-angle", "rotation angle", (), lambda x: rotation_about_axis([0.0, 0, 1], x)),
    ("euclidean-rotation", "rotation", (3, 3), lambda x: euclidean_transform(rotation=x)),
    ("euclidean-translation", "translation", (3,), lambda x: euclidean_transform(translation=x)),
    ("parallel-K1", "K1", (2, 2),
     lambda x: parallel_camera_pair(x, np.eye(2), np.eye(3), 1.0, np.arange(4.0))),
    ("parallel-theta", "theta", (),
     lambda x: parallel_camera_pair(np.eye(2), np.eye(2), np.eye(3), x, np.arange(4.0))),
    ("parallel-translations", "translations", (4,),
     lambda x: parallel_camera_pair(np.eye(2), np.eye(2), np.eye(3), 1.0, x)),
    ("congruence-f", "f", (1,), lambda x: GeneralCongruence(beta=1, f=x, g=[1.0, 0], h=[0.0, 1])),
    ("congruence-g", "g", (2,), lambda x: GeneralCongruence(beta=1, f=[1.0], g=x, h=[0.0, 1])),
    ("congruence-h", "h", (2,), lambda x: GeneralCongruence(beta=1, f=[1.0], g=[1.0, 0], h=x)),
    ("q_matrix", "q_matrix", (4, 4),
     lambda x: reported(run_selfcal_experiment(SelfcalConfig(n_cameras=6, q_matrix=x)))),
    ("first-magnifications", "first_camera_magnifications", (2,),
     lambda x: reported(run_selfcal_experiment(
         SelfcalConfig(n_cameras=6, first_camera_magnifications=x)))),
]
# a string, a ragged list, NaN entries and a shape of 7 entries for each;
# the message starts with the argument's name
BAD_ARGUMENTS = [
    ((lambda call=call, bad=bad: call(bad)), rf"^{re.escape(name)}s? (must|has) ")
    for _, name, shape, call in NUMERIC_ARGUMENTS
    for bad in ("abcd", [[1, 2], [3]], np.full(shape, np.nan), np.ones(7))]
BAD_ARGUMENT_IDS = [f"{entry}-{kind}" for entry, _, _, _ in NUMERIC_ARGUMENTS
                    for kind in ("text", "ragged", "nan", "wrong-shape")]


@pytest.mark.parametrize("call, message", [
    (lambda: apply_space_transform(reference_camera_pair()[0], np.full((4, 4), np.nan)),
     "non-finite"),
    (lambda: apply_space_transform(reference_camera_pair()[0], np.diag([1.0, 1, 1, np.inf])),
     "non-finite"),
    (lambda: RetinalFrame(np.full((4, 3), np.nan)), "non-finite"),
    (lambda: reported(run_sfm_experiment(correspondences=5)), r"\(n, 6\)"),
    (lambda: reported(run_sfm_experiment(correspondences=[[1, 2], [3]])), r"\(n, 6\)"),
    (lambda: reported(run_selfcal_experiment(SelfcalConfig(
        n_cameras=6, q_matrix=tuple(np.full((4, 4), np.nan).tolist())))), "q_matrix"),
    (lambda: reported(run_selfcal_experiment(SelfcalConfig(
        n_cameras=6, q_matrix=tuple(np.diag([1.0, 1, 1, np.inf]).tolist())))), "q_matrix"),
    (lambda: congruence_of_bidegree("1"), "^beta must be an integer"),
    (lambda: congruence_of_bidegree(1.5), "^beta must be an integer"),
    (lambda: congruence_of_bidegree(True), "^beta must be an integer"),
    (lambda: congruence_of_bidegree(-1), "^beta cannot be negative"),
    (lambda: cosine_distance([], []), "^a must have at least 1 entry"),
] + BAD_ARGUMENTS, ids=["nan-transform", "inf-transform", "nan-frame", "scalar-correspondences",
        "ragged-correspondences", "nan-q-matrix", "inf-q-matrix", "text-beta", "fractional-beta",
        "bool-beta", "negative-beta", "empty-cosine_distance"] + BAD_ARGUMENT_IDS)
@pytest.mark.filterwarnings("error")
def test_bad_arguments_end_in_validation_errors(call, message):
    """Library entry points answer a bad argument with a ValidationError,
    raised or recorded in the report, not with a bare numpy error."""
    with pytest.raises(ValidationError, match=message):
        call()


@pytest.mark.parametrize("field, value", [
    ("q_matrix", [[1, 2], [3]]),
    ("q_matrix", "abc"),
    ("first_camera_magnifications", (1,)),
    ("n_cameras", 2.5),
    ("n_cameras", "7"),
    ("n_cameras", True),
    ("n_cameras", None),
    ("first_camera_magnifications", (-1.0, 2.0)),
    ("first_camera_magnifications", (0.0, 1.0)),
    ("first_camera_magnifications", (np.nan, 1.0)),
    ("first_camera_magnifications", (np.inf, 1.0)),
], ids=["ragged-q-matrix", "text-q-matrix", "one-magnification", "fractional-cameras",
        "text-cameras", "bool-cameras", "no-cameras", "negative-magnification",
        "zero-magnification", "nan-magnification", "inf-magnification"])
@pytest.mark.filterwarnings("error")
def test_malformed_selfcal_config_names_its_field(field, value):
    with pytest.raises(ValidationError, match=field):
        reported(run_selfcal_experiment(SelfcalConfig(**{"n_cameras": 6, field: value})))


@pytest.mark.parametrize("n_cameras", [2.5, "7", True])
def test_non_integer_camera_count_is_invalid_before_sampling(n_cameras, monkeypatch):
    def no_sampling(seed):
        raise AssertionError("run_selfcal_experiment sampled before validating n_cameras")
    monkeypatch.setattr(np.random, "default_rng", no_sampling)
    with pytest.raises(ValidationError, match="n_cameras"):
        run_selfcal_experiment(SelfcalConfig(n_cameras=n_cameras))


def test_numpy_integer_camera_count_gives_the_int_report():
    report = run_selfcal_experiment(SelfcalConfig(n_cameras=np.int64(7), seed=3))
    assert report.ok and type(report.n_cameras) is int
    assert json.dumps(report.to_dict()) == json.dumps(
        run_selfcal_experiment(SelfcalConfig(n_cameras=7, seed=3)).to_dict())


def test_runs_check_each_rig_once(rig_checks):
    """A scene's rig, both recovered configurations and both moved into the
    truth frame, and a self-calibration rig with its noise: one camera
    check each."""
    assert run_sfm_experiment(SceneConfig(n_points=70, noise_sigma=0, seed=1,
                                          image_scale=100)).ok
    assert rig_checks == [2, 4, 4]
    rig_checks.clear()
    assert run_selfcal_experiment(SelfcalConfig(n_cameras=200, seed=1)).ok
    assert rig_checks == [200]


def test_selfcal_factorizations_do_not_grow_with_the_rig(monkeypatch):
    """A rig is built and checked as one array: run_selfcal_experiment makes
    as many SVDs for 200 cameras as for 10."""
    calls = []
    svd = np.linalg.svd

    def counting(*args, **kwargs):
        calls.append(np.shape(args[0]))
        return svd(*args, **kwargs)
    monkeypatch.setattr(np.linalg, "svd", counting)
    counts = {}
    for n in (10, 200):
        calls.clear()
        assert run_selfcal_experiment(SelfcalConfig(n_cameras=n, seed=1)).ok
        counts[n] = len(calls)
    assert counts[10] == counts[200], counts


def test_truth_frame_costs_one_svd_per_configuration(monkeypatch):
    """With truth, run_sfm_pipeline makes one factorization more for the
    frame (normal_form_transform) and one for both configurations (their
    moved pairs, checked as one rig) than without. A rank test counts as
    its determinant plus the SVDs of what the determinant cannot clear."""
    scene = generate_scene(SceneConfig(seed=4, image_scale=100))
    calls = []

    def counting(f):
        def wrapped(*args, **kwargs):
            calls.append(np.shape(args[0]))
            return f(*args, **kwargs)
        return wrapped
    monkeypatch.setattr(np.linalg, "svd", counting(np.linalg.svd))
    monkeypatch.setattr(np.linalg, "det", counting(np.linalg.det))
    counts = {}
    for truth in (None, scene.cameras):
        calls.clear()
        report = run_sfm_pipeline(scene.correspondences, SfmReport(), truth=truth)
        assert report.ok and len(report.configurations) == 2
        counts[truth is not None] = len(calls)
    assert counts[True] - counts[False] == 1 + 1, counts


@pytest.mark.parametrize("seed", [0, 7])
def test_configurations_are_judged_as_moved_cameras(seed):
    """Each configuration's camera gap and reprojection RMS are those of
    its two cameras moved one by one by apply_space_transform, and its
    tensor gap that of the tensor of its cameras."""
    config = SceneConfig(seed=seed, noise_sigma=1e-4, image_scale=100)
    truth = generate_scene(config).cameras
    report = run_sfm_experiment(config)
    W = normal_form_transform(*truth)
    estimate = EpipolarTensor.from_flat(report.estimated_tensor)
    for entry in report.configurations:
        pair = cameras_from_minor_matrix(MinorMatrix(entry["minor_matrix"]))
        assert entry["tensor_gap"] == tensor_gap(tensor_from_cameras(*pair), estimate)
        cams = entry["cameras"]
        moved = [apply_space_transform(TwoSlitCamera(cams[a], cams[b]), W)
                 for a, b in (("A1", "A2"), ("B1", "B2"))]
        assert entry["camera_gap"] == max(camera_distance(c, t) for c, t in zip(moved, truth))
        assert entry["reprojection_rms"] == reprojection_rms(
            *moved, np.array(report.correspondences))


def no_sampling(seed):
    raise AssertionError("the runner sampled before validating its seed")


@pytest.mark.parametrize("seed", [-1, 1.5, True, "3"])
@pytest.mark.parametrize("run", [
    lambda seed: run_sfm_experiment(SceneConfig(seed=seed)),
    lambda seed: run_sfm_experiment(SceneConfig(seed=seed), correspondences=np.ones((20, 6))),
    lambda seed: run_selfcal_experiment(SelfcalConfig(seed=seed)),
], ids=["sfm", "sfm-given-correspondences", "selfcal"])
def test_seed_is_invalid_before_sampling(run, seed, monkeypatch):
    monkeypatch.setattr(np.random, "default_rng", no_sampling)
    with pytest.raises(ValidationError, match="seed"):
        run(seed)


@pytest.mark.parametrize("run", [
    lambda seed: run_sfm_experiment(SceneConfig(n_points=20, seed=seed)),
    lambda seed: run_selfcal_experiment(SelfcalConfig(n_cameras=6, seed=seed)),
], ids=["sfm", "selfcal"])
def test_numpy_integer_seed_gives_the_int_report(run, tmp_path):
    written = []
    for seed in (np.int64(3), 3):
        report = run(seed)
        assert report.ok and type(report.seed) is int
        write_json(report.to_dict(), tmp_path / "report.json")
        written.append((tmp_path / "report.json").read_bytes())
    assert written[0] == written[1]


@pytest.mark.parametrize("value", ["0.1", None, [1.0]], ids=["string", "none", "list"])
@pytest.mark.parametrize("run, message", [
    (lambda v: generate_scene(SceneConfig(noise_sigma=v)),
     "noise sigma must be finite and cannot be negative"),
    (lambda v: generate_scene(SceneConfig(box_halfwidth=v)), "box_halfwidth must be finite"),
    (lambda v: generate_scene(SceneConfig(image_scale=v)), "image_scale must be finite"),
    (lambda v: run_selfcal_experiment(SelfcalConfig(noise_sigma=v)),
     "noise sigma must be finite and cannot be negative"),
], ids=["scene-sigma", "box_halfwidth", "image_scale", "selfcal-sigma"])
def test_non_numeric_config_values_end_in_validation_errors(run, message, value):
    """A value that does not compare with numbers fails the field's range
    check like a value out of range, not with a bare TypeError."""
    with pytest.raises(ValidationError, match=message):
        run(value)


@pytest.mark.parametrize("field, value, message", [
    ("noise_sigma", "abc", "noise sigma"),
    ("noise_sigma", -1.0, "noise sigma"),
    ("box_halfwidth", 0.0, "box_halfwidth"),
    ("image_scale", None, "image_scale"),
    ("n_points", 0, "at least one point"),
])
def test_given_correspondences_still_check_every_config_field(field, value, message):
    """The config is checked whole whichever path the run takes, so a bad
    field is not stored in the report of a run on given correspondences."""
    corr = generate_scene(SceneConfig(n_points=20, seed=1)).correspondences
    with pytest.raises(ValidationError, match=message):
        run_sfm_experiment(SceneConfig(**{field: value}), correspondences=corr)


@pytest.mark.parametrize("seed", range(3))
def test_recovered_cameras_failing_the_camera_check_are_a_degeneracy(seed, near_gauge_offset):
    """Cameras the recovery builds from valid correspondences can fail the
    camera check; the report files that as a degeneracy naming the
    configuration, not as invalid input."""
    report = run_sfm_experiment(correspondences=near_gauge_offset(seed))
    assert not report.ok
    assert report.error_kind == "degeneracy"
    assert report.error.startswith("recovered configuration 0 fails the camera check: ")


def first_entry_kept(report, reference, error):
    """A failed run that keeps the first configuration's full entry, as
    the unpatched run gives it, and fails with `error`."""
    assert not report.ok and report.error_kind == "degeneracy"
    assert report.error.startswith(error), report.error
    assert report.configurations == reference.configurations[:1]
    assert "reprojection_rms" in report.configurations[0]


def failing_second_configuration(monkeypatch):
    """Make configuration 1 fail its camera check: the recovery's second
    candidate becomes the all-ones matrix, whose slits intersect."""
    from twoslit import experiments

    def second_fails(tensor, _original=experiments.recover_minor_matrices):
        first, (_, residual), *rest = _original(tensor)
        return [first, (MinorMatrix(np.ones((4, 4))), residual), *rest]
    monkeypatch.setattr(experiments, "recover_minor_matrices", second_fails)


def no_start_in(monkeypatch, configuration, n):
    """Make _start_points give no start point to the n points of one
    configuration of a stack that holds it."""
    from twoslit import synthetic

    def failing(planes, D, _start=synthetic._start_points):
        x = _start(planes, D)
        x[configuration * n:(configuration + 1) * n] = np.nan
        return x
    monkeypatch.setattr(synthetic, "_start_points", failing)


CONFIG_70 = SceneConfig(n_points=70, noise_sigma=1e-5, seed=2, image_scale=100)


def test_a_failing_camera_check_keeps_the_configurations_before_it(monkeypatch):
    """Configuration 1 failing its camera check leaves configuration 0
    checked, judged and scored, as when each was scored in turn."""
    reference = run_sfm_experiment(CONFIG_70)
    failing_second_configuration(monkeypatch)
    first_entry_kept(run_sfm_experiment(CONFIG_70), reference,
                     "recovered configuration 1 fails the camera check: slits intersect")


def test_a_moved_pair_failing_its_camera_check_keeps_the_configurations_before_it(
        monkeypatch):
    """The normal forms pass their camera check, and configuration 1's
    pair moved into the truth frame fails its own: configuration 0 is
    reported in full, and the error is the moved pair's, as given."""
    from twoslit import cameras

    reference = run_sfm_experiment(CONFIG_70)
    checked = []

    def moved_pair_fails(A, _check=cameras._check_rig):
        _check(A)
        checked.append(len(A))
        if checked[1:] == [4, 4]:  # the scene's rig, the normal forms, the moved pairs
            error = ValidationError("slits intersect: the moved pair")
            error.camera = 2
            raise error
    monkeypatch.setattr(cameras, "_check_rig", moved_pair_fails)
    report = run_sfm_experiment(CONFIG_70)
    assert checked == [2, 4, 4]
    assert not report.ok and report.error_kind == "validation"
    assert report.error == "slits intersect: the moved pair"
    assert report.configurations == reference.configurations[:1]
    assert "reprojection_rms" in report.configurations[0]


def test_a_failing_triangulation_keeps_the_configurations_before_it(monkeypatch):
    """Configuration 1 failing in the triangulation both share leaves
    configuration 0 with the reprojection RMS it has alone."""
    reference = run_sfm_experiment(CONFIG_70)
    no_start_in(monkeypatch, 1, 70)
    first_entry_kept(run_sfm_experiment(CONFIG_70), reference,
                     "the image planes of a point give no start point")


def test_a_triangulation_failure_comes_before_a_later_camera_check(monkeypatch):
    """Configuration 0 is scored before configuration 1 is checked: its
    triangulation failure is the error, and no configuration is kept."""
    failing_second_configuration(monkeypatch)
    no_start_in(monkeypatch, 0, 70)
    report = run_sfm_experiment(CONFIG_70)
    assert not report.ok and report.configurations == []
    assert report.error == "the image planes of a point give no start point"


def test_selfcal_run_copies_no_camera_list(monkeypatch):
    """run_selfcal_experiment passes its rig array to the selfcal kernels:
    it builds no cameras to stack back into an array."""
    def no_stack(cameras):
        raise AssertionError("selfcal stacked a camera list")
    monkeypatch.setattr("twoslit.selfcal._stack", no_stack)
    assert run_selfcal_experiment(SelfcalConfig(n_cameras=50, seed=3)).ok


def conditioned_frame(seed):
    """A 4x4 frame with singular values in [0.5, 2]."""
    rng = np.random.default_rng(seed)
    U, _ = np.linalg.qr(rng.normal(size=(4, 4)))
    V, _ = np.linalg.qr(rng.normal(size=(4, 4)))
    return U @ np.diag(rng.uniform(0.5, 2.0, 4)) @ V.T


@pytest.mark.parametrize("k", [-600, -300, -40, -10, -1, 1, 10, 40, 300, 600])
@pytest.mark.filterwarnings("error")
def test_selfcal_report_ignores_the_scale_of_the_frame(k):
    """A frame times 2^k gives the report of the frame in every field but
    q_true: the run works on the frame divided by a power of two."""
    Q0 = conditioned_frame(k % 7)

    def report(Q):
        return run_selfcal_experiment(SelfcalConfig(
            n_cameras=20, noise_sigma=1e-4, seed=7, q_matrix=tuple(map(tuple, Q)))).to_dict()
    base, scaled = report(Q0), report(np.ldexp(Q0, k))
    assert base["ok"] and scaled["q_true"] == np.ldexp(Q0, k).tolist()
    assert {f: v for f, v in scaled.items() if f != "q_true"} == {
        f: v for f, v in base.items() if f != "q_true"}


@pytest.mark.parametrize("singular_values", [(1e6, 1e6, 1e6, 1e-6), (1.0, 1.0, 1.0, 1e-10)])
def test_near_singular_frame_is_rejected_by_its_condition(singular_values):
    """A frame is invertible by its condition, s4/s1, not by |det|."""
    Q = conditioned_frame(2)
    U, _, Vt = np.linalg.svd(Q)
    Q = U @ np.diag(singular_values) @ Vt
    report = run_selfcal_experiment(SelfcalConfig(n_cameras=6, q_matrix=tuple(map(tuple, Q))))
    assert not report.ok and report.error_kind == "validation"
    assert "q_matrix" in report.error and report.q_true == []


@pytest.mark.parametrize("sigma", [1e300, 1.7e308])
@pytest.mark.filterwarnings("error")
def test_overflowing_selfcal_noise_names_its_field(sigma):
    """Noise too large for a float is reported against noise_sigma; noise
    that is merely huge runs without a warning."""
    report = run_selfcal_experiment(SelfcalConfig(n_cameras=10, noise_sigma=sigma, seed=1))
    assert not report.ok
    if sigma > 1e300:
        assert report.error_kind == "validation" and "noise_sigma" in report.error
    else:
        assert "null constraint" not in report.error
