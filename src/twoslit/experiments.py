"""End-to-end experiment runners with self-describing reports.

Each runner returns a plain-data report carrying its configuration,
the random-generator identity, the artifacts needed to recompute every
quoted residual, and an ok/error status. Numerical breakdowns during a
run are recorded in the report rather than raised; malformed
configurations raise immediately.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from .errors import DegeneracyError, TwoSlitError, ValidationError
from .cameras import _rig, camera_distance
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
from .io import _field
from .selfcal import DualAbsoluteQuadric, estimate_daq, extract_upgrade, similarity_defect
from .synthetic import (
    RNG_ALGORITHM,
    SceneConfig,
    _check_range,
    _count,
    _seed,
    generate_scene,
    random_calibrated_cameras,
    reprojection_rms,
)

MIN_Q_DET = 1e-10  # smallest |det| of a given ground-truth frame


def _record_failure(report, exc):
    report.error = str(exc)
    report.error_kind = "degeneracy" if isinstance(exc, DegeneracyError) else "validation"


def _copied(value):
    """value with every nested list and dict copied; other values, all
    immutable in a report, are shared."""
    if isinstance(value, list):
        return [_copied(v) if isinstance(v, (list, dict)) else v for v in value]
    if isinstance(value, dict):
        return {k: _copied(v) for k, v in value.items()}
    return value


class _Report:
    def to_dict(self):
        """The report as plain data, equal to dataclasses.asdict(self)
        without its deep copy of every float."""
        return {f.name: _copied(getattr(self, f.name)) for f in fields(self)}


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


def _configuration_entry(minor, residual, tensor, correspondences, truth, W_inv):
    camA, camB = cameras_from_minor_matrix(minor)
    entry = {
        "minor_matrix": minor.matrix.tolist(),
        "recovery_residual": float(residual),
        "cameras": {
            "A1": camA.A1.tolist(), "A2": camA.A2.tolist(),
            "B1": camB.A1.tolist(), "B2": camB.A2.tolist(),
        },
        "tensor_gap": tensor_gap(tensor_from_cameras(camA, camB), tensor),
        "camera_gap": None,
    }
    if truth is not None:
        # judge the configuration in the ground-truth frame, as one rig
        camA, camB = _rig(np.array([(camA.A1, camA.A2), (camB.A1, camB.A2)]) @ W_inv)
        entry["camera_gap"] = max(camera_distance(camA, truth[0]),
                                  camera_distance(camB, truth[1]))
    entry["reprojection_rms"] = reprojection_rms(camA, camB, correspondences)
    return entry


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
    for minor, residual in candidates[:2]:
        report.configurations.append(
            _configuration_entry(minor, residual, tensor, corr, truth, W_inv))
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
    report = SfmReport(seed=_seed(config.seed), noise_sigma=config.noise_sigma)
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
        cams, cals = random_calibrated_cameras(
            n, rng, first=config.first_camera_magnifications)
        if config.q_matrix is None:
            Q = rng.normal(size=(4, 4))
            while abs(np.linalg.det(Q)) < 0.1:
                Q = rng.normal(size=(4, 4))
        else:
            Q = _field(config.q_matrix, "q_matrix")
            if (Q.shape != (4, 4) or not np.all(np.isfinite(Q))
                    or abs(np.linalg.det(Q)) < MIN_Q_DET):
                raise ValidationError("q_matrix must be an invertible 4x4 matrix")
        report.q_true = Q.tolist()
        report.magnifications_true = [
            (float(K1[0, 0]), float(K2[0, 0])) for K1, K2 in cals]

        A = np.array([(cam.A1, cam.A2) for cam in cams]) @ np.linalg.inv(Q)
        A = A / np.linalg.norm(A, axis=(2, 3), keepdims=True)
        A = A + rng.normal(0.0, config.noise_sigma, A.shape)
        noisy = _rig(A)
        report.cameras = [{"A1": A1.tolist(), "A2": A2.tolist()} for A1, A2 in A]

        daq = estimate_daq(noisy)
        report.daq = daq.matrix.tolist()
        truth = DualAbsoluteQuadric(Q @ np.diag([1.0, 1, 1, 0]) @ Q.T).matrix
        report.daq_true_gap = float(np.max(np.abs(daq.matrix - truth)))

        upgrade = extract_upgrade(daq, noisy)
        report.eigenvalues = upgrade.eigenvalues.tolist()
        report.q_prime = upgrade.q_prime.tolist()
        report.similarity_defect = float(similarity_defect(Q, upgrade.q_prime))
        report.magnifications_recovered = [
            (float(m1), float(m2)) for m1, m2 in upgrade.magnifications]
        report.magnification_max_error = float(np.max(np.abs(
            np.subtract(report.magnifications_recovered, report.magnifications_true))))
        report.ok = True
    except TwoSlitError as exc:
        _record_failure(report, exc)
    return report
