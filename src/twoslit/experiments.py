"""End-to-end experiment runners with self-describing reports.

Each runner returns a plain-data report carrying its configuration,
the random-generator identity, the artifacts needed to recompute every
quoted residual, and an ok/error status. Numerical breakdowns during a
run are recorded in the report rather than raised; malformed
configurations raise immediately.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import DegeneracyError, TwoSlitError, ValidationError
from . import cameras
from .cameras import _rig, _stack, camera_distance
from .epipolar import (
    _as_correspondences,
    cameras_from_minor_matrix,
    epipolar_residuals,
    estimate_tensor_linear,
    normal_form_transform,
    recover_minor_matrices,
    tensor_from_cameras,
    tensor_gap,
)
from .projective import TOL, _count, as_array, pow2_scaled
from .selfcal import DualAbsoluteQuadric, _daq, _upgrade, similarity_defect
from .synthetic import (
    RNG_ALGORITHM,
    SceneConfig,
    _calibrated_rig,
    _check_range,
    _check_scene,
    _rms,
    _seed,
    _triangulate,
    generate_scene,
)


def _record_failure(report, exc):
    report.error = str(exc)
    report.error_kind = "degeneracy" if isinstance(exc, DegeneracyError) else "validation"


class _Report:
    def to_dict(self):
        """The report as plain data, equal to dataclasses.asdict(self):
        one pickle round trip copies every container at C speed."""
        return pickle.loads(pickle.dumps({f.name: getattr(self, f.name) for f in fields(self)},
                                         pickle.HIGHEST_PROTOCOL))


@dataclass
class SfmReport(_Report):
    kind: str = "sfm"
    rng_algorithm: str = RNG_ALGORITHM
    seed: int = 0
    noise_sigma: float = 0.0
    n_points: int = 0
    correspondences: list = field(default_factory=list)
    estimated_tensor: list = field(default_factory=list)
    residual_mean: float | None = None  # None: not computed
    residual_max: float | None = None
    candidates: list = field(default_factory=list)  # {matrix, residual}
    configurations: list = field(default_factory=list)
    equivalent_configuration: int | None = None
    ok: bool = False
    error: str = ""
    error_kind: str = ""


def _configuration_entry(index, minor, residual, tensor, truth, W_inv):
    """A recovered configuration's entry, but for its reprojection_rms,
    and the rig that scores it: the cameras in the ground-truth frame
    when there is one."""
    try:
        camA, camB = cameras_from_minor_matrix(minor)
    except ValidationError as exc:  # the recovery built these matrices, not the input
        raise DegeneracyError(f"recovered configuration {index} fails the camera check: {exc}")
    R = _stack((camA, camB))
    entry = {
        "minor_matrix": minor.matrix.tolist(),
        "recovery_residual": float(residual),
        "cameras": dict(zip(("A1", "A2", "B1", "B2"), R.reshape(4, 2, 4).tolist())),
        "tensor_gap": tensor_gap(tensor_from_cameras(camA, camB), tensor),
        "camera_gap": None,
    }
    if truth is not None:
        # judge the configuration in the ground-truth frame, as one rig
        R = R @ W_inv
        camA, camB = _rig(R)
        entry["camera_gap"] = max(camera_distance(camA, truth[0]),
                                  camera_distance(camB, truth[1]))
    return entry, R


def run_sfm_pipeline(corr, report, truth=None):
    tensor = estimate_tensor_linear(corr)
    report.estimated_tensor = tensor.flat().tolist()
    residuals = np.abs(epipolar_residuals(tensor, corr))
    report.residual_mean = float(residuals.mean())
    report.residual_max = float(residuals.max())
    candidates = recover_minor_matrices(tensor)
    report.candidates = [
        {"matrix": m.matrix.tolist(), "residual": float(r)} for m, r in candidates]
    # W is invertible: normal_form_transform rejects dependent first rows
    W_inv = np.linalg.inv(normal_form_transform(*truth)) if truth is not None else None
    entries, rigs, failure = [], [], None
    for index, (minor, residual) in enumerate(candidates[:2]):
        try:
            entry, R = _configuration_entry(index, minor, residual, tensor, truth, W_inv)
        except TwoSlitError as exc:
            failure = exc
            break
        entries.append(entry)
        rigs.append(R)
    # One pass scores every built configuration. A configuration is
    # reported, as if each were checked and then scored in turn, only if
    # it and all before it were scored; the first failure is raised.
    _, r, error = _triangulate(np.reshape(rigs, (-1, 2, 2, 2, 4)), corr)
    for entry, rc in zip(entries, r):
        entry["reprojection_rms"] = _rms(rc)
        report.configurations.append(entry)
    if error or failure:
        raise error or failure
    if truth is not None and report.configurations:
        report.equivalent_configuration = int(np.argmin(
            [c["camera_gap"] for c in report.configurations]))
    report.ok = True
    return report


def run_sfm_experiment(config=SceneConfig(), correspondences=None):
    """Estimate the tensor and both camera configurations.

    With `correspondences` given they are used as is; otherwise a
    synthetic scene is generated from `config` and the recovered
    configurations are additionally judged against the known cameras
    (entry `camera_gap`, and reprojection in the ground-truth frame).
    Invalid correspondences and numerical failures during estimation
    are reported, not raised.
    """
    _, seed = _check_scene(config)
    report = SfmReport(seed=seed, noise_sigma=config.noise_sigma)
    truth = None
    if correspondences is None:
        scene = generate_scene(config)
        correspondences = scene.correspondences
        truth = scene.cameras
    try:
        correspondences = _as_correspondences(correspondences)
        report.n_points = int(correspondences.shape[0])
        report.correspondences = correspondences.tolist()
        run_sfm_pipeline(correspondences, report, truth=truth)
    except TwoSlitError as exc:
        _record_failure(report, exc)
    return report


@dataclass
class SelfcalConfig:
    n_cameras: int = 10
    noise_sigma: float = 1e-4  # entrywise, on unit-Frobenius camera matrices
    seed: int = 0
    first_camera_magnifications: tuple | None = None
    q_matrix: tuple | None = None  # ground-truth 4x4; random when None


@dataclass
class SelfcalReport(_Report):
    kind: str = "selfcal"
    rng_algorithm: str = RNG_ALGORITHM
    seed: int = 0
    noise_sigma: float = 0.0
    n_cameras: int = 0
    q_true: list = field(default_factory=list)
    cameras: list = field(default_factory=list)  # noisy inputs, per camera
    daq: list = field(default_factory=list)
    daq_true_gap: float | None = None  # None: not computed
    eigenvalues: list = field(default_factory=list)
    q_prime: list = field(default_factory=list)
    similarity_defect: float | None = None
    magnifications_true: list = field(default_factory=list)
    magnifications_recovered: list = field(default_factory=list)
    magnification_max_error: float | None = None
    ok: bool = False
    error: str = ""
    error_kind: str = ""


def run_selfcal_experiment(config=SelfcalConfig()):
    """Scramble calibrated cameras by a projective frame, add noise,
    and measure how well self-calibration undoes it."""
    _check_range(config.noise_sigma, "noise sigma")
    n = _count(config.n_cameras, "n_cameras")
    seed = _seed(config.seed)
    report = SelfcalReport(seed=seed, noise_sigma=config.noise_sigma, n_cameras=n)
    rng = np.random.default_rng(seed)
    try:
        if n < 1:
            raise ValidationError("need a positive number of cameras")
        R, K = _calibrated_rig(n, rng, first=config.first_camera_magnifications)
        if config.q_matrix is None:
            Q = rng.normal(size=(4, 4))
            while abs(np.linalg.det(Q)) < 0.1:
                Q = rng.normal(size=(4, 4))
        else:
            Q = as_array(config.q_matrix, (4, 4), "q_matrix")
            s = np.linalg.svd(pow2_scaled(Q), compute_uv=False)  # no scale of Q changes s4 / s1
            if s[3] <= TOL * s[0]:
                raise ValidationError("q_matrix must be an invertible 4x4 matrix")
        report.q_true = Q.tolist()
        Q = pow2_scaled(Q)  # exact: no result below sees the frame's scale
        report.magnifications_true = list(map(tuple, K[:, :, 0, 0].tolist()))

        A = R @ np.linalg.inv(Q)
        A = A / np.linalg.norm(A, axis=(2, 3), keepdims=True)
        A = A + rng.normal(0.0, config.noise_sigma, A.shape)
        if not np.isfinite(A).all():  # a draw overflowed
            raise ValidationError(f"noise_sigma {config.noise_sigma} overflows the cameras")
        cameras._check_rig(A)  # the only check of the rig, with its noise
        report.cameras = [dict(zip(("A1", "A2"), pair)) for pair in A.tolist()]

        daq = _daq(A)
        report.daq = daq.matrix.tolist()
        truth = DualAbsoluteQuadric(Q @ np.diag([1.0, 1, 1, 0]) @ Q.T).matrix
        report.daq_true_gap = float(np.max(np.abs(daq.matrix - truth)))

        q_prime, lam, _, m = _upgrade(daq, A)
        report.eigenvalues = lam.tolist()
        report.q_prime = q_prime.tolist()
        report.similarity_defect = float(similarity_defect(Q, q_prime))
        report.magnifications_recovered = list(map(tuple, m.tolist()))
        report.magnification_max_error = float(np.max(np.abs(m - K[:, :, 0, 0])))
        report.ok = True
    except TwoSlitError as exc:
        _record_failure(report, exc)
    return report
