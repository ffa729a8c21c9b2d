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
from .cameras import _stack
from .epipolar import _as_correspondences, _normal_forms, _tensors, epipolar_residuals
from .epipolar import estimate_tensor_linear, normal_form_transform, recover_minor_matrices
from .projective import TOL, _count, _gaps, as_array, pow2_scaled
from .selfcal import OMEGA_DUAL, DualAbsoluteQuadric, _daq, _upgrade, similarity_defect
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


def run_sfm_pipeline(corr, report, truth=None):
    """Fill `report` from a finite (n, 6) correspondence array and return
    it with ok set, or raise the first TwoSlitError. The configurations of
    the two best candidates are built, checked, compared and scored as one
    (k, 2, 2, 2, 4) rig; with `truth`, the ground-truth camera pair, in
    its frame. A configuration is reported, as if each were checked and
    scored in turn, only if it and all before it were: the error is the
    first in configuration order, and within one configuration that of
    its camera check, then of its moved pair's check, then of its
    triangulation."""
    tensor = estimate_tensor_linear(corr)
    report.estimated_tensor = tensor.flat().tolist()
    residuals = np.abs(epipolar_residuals(tensor, corr))
    report.residual_mean = float(residuals.mean())
    report.residual_max = float(residuals.max())
    candidates = recover_minor_matrices(tensor)
    report.candidates = [
        {"matrix": m.matrix.tolist(), "residual": float(r)} for m, r in candidates]
    N = _normal_forms(np.array([m.matrix for m, _ in candidates[:2]]))
    R, k, failure = N, len(N), None  # configurations 0 to k - 1 pass so far
    try:
        cameras._check_rig(N.reshape(-1, 2, 2, 4))
    except ValidationError as exc:  # the recovery built these matrices, not the input
        k = exc.camera // 2
        failure = DegeneracyError(f"recovered configuration {k} fails the camera check: {exc}")
    # a normal form's tensor is finite, and its f2222 is det I = 1
    tensor_gaps = _gaps(_tensors(N[:k]).reshape(-1, 16), tensor.values.reshape(16)).tolist()
    camera_gaps = [None] * k
    if truth is not None:
        # W is invertible: normal_form_transform rejects dependent first rows
        R = N[:k] @ np.linalg.inv(normal_form_transform(*truth))
        try:
            cameras._check_rig(R.reshape(-1, 2, 2, 4))
        except ValidationError as exc:
            k, failure = exc.camera // 2, exc
        camera_gaps = _gaps(R[:k].reshape(-1, 2, 2, 8),
                            _stack(truth).reshape(2, 2, 8)).max(axis=(1, 2)).tolist()
    # one pass scores the configurations that pass; the first failure is raised
    _, r, error = _triangulate(R[:k], corr)
    for i, rc in enumerate(r):
        report.configurations.append({
            "minor_matrix": candidates[i][0].matrix.tolist(),
            "recovery_residual": float(candidates[i][1]),
            "cameras": dict(zip(("A1", "A2", "B1", "B2"), N[i].reshape(4, 2, 4).tolist())),
            "tensor_gap": tensor_gaps[i],
            "camera_gap": camera_gaps[i],
            "reprojection_rms": _rms(rc),
        })
    if error or failure:
        raise error or failure
    if truth is not None:
        report.equivalent_configuration = int(np.argmin(camera_gaps))
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
            if cameras._singular(pow2_scaled(Q)[None], TOL)[0]:
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
        report.cameras = [{"A1": a1, "A2": a2} for a1, a2 in A.tolist()]

        daq = _daq(A)
        report.daq = daq.matrix.tolist()
        truth = DualAbsoluteQuadric(Q @ OMEGA_DUAL @ Q.T).matrix
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
