"""Command line front end.

Exit codes: 0 on success, 1 when verify-paper finds a mismatch,
2 for invalid input or a file that cannot be read or written, 3 for
numerically degenerate data, 141 when standard output closes early.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .errors import DegeneracyError, ValidationError
from . import golden
from .projective import COARSE_TOL, FIT_TOL, TOL, ZERO_TOL
from .projective import RetinalFrame, cosine_distance, join_points, line_to_image_map
from .congruence import QuadraticCamera, TwoSlitCongruence, quadratic_project, two_slit_essential
from .cameras import TwoSlitCamera, decompose_parallel, project_points
from .epipolar import (
    EpipolarTensor,
    epipolar_residuals,
    estimate_tensor_linear,
    recover_minor_matrices,
    tensor_from_cameras,
    transpose_conjugate,
)
from .selfcal import OMEGA_DUAL
from .synthetic import SceneConfig, generate_scene, reference_camera_pair
from .experiments import SelfcalConfig, run_selfcal_experiment, run_sfm_experiment
from . import io as tsio


def _infile(args):
    if args.infile is None:
        raise ValidationError(f"{args.command} needs --in FILE")
    return args.infile


def cmd_synth(args):
    config = SceneConfig(n_points=args.points, noise_sigma=args.sigma,
                         seed=args.seed)
    scene = generate_scene(config)
    tsio.write_correspondences(scene.correspondences, args.out, args.format)
    if args.cameras_out:
        camA, camB = scene.cameras
        tsio.write_json({"A": tsio.camera_to_dict(camA),
                         "B": tsio.camera_to_dict(camB)}, args.cameras_out)
    return 0


def cmd_project(args):
    data = tsio.read_json(_infile(args))
    camera = tsio.camera_from_dict(data, "camera")
    points = tsio._field(data, "point rows", "points")
    if points.ndim == 1:
        points = points[None, :]
    if points.ndim != 2 or points.shape[1] not in (3, 4):
        raise ValidationError("points must be rows of 3 or 4 coordinates")
    if points.shape[1] == 3:
        points = np.hstack([points, np.ones((len(points), 1))])
    tsio.write_json({"images": project_points(camera, points).tolist()}, args.out)
    return 0


def cmd_tensor(args):
    path = _infile(args)
    data = None
    if tsio.correspondence_format(path, args.format) == "json":
        data = tsio.read_json(path)
    if data is not None and ("cameras" in data or {"A", "B"} <= data.keys()):
        # a {"cameras": {"A", "B"}} record, or the pair synth --cameras-out writes
        cameras = (tsio.camera_from_dict(data.get("cameras", data), name) for name in "AB")
        out = tsio.tensor_to_dict(tensor_from_cameras(*cameras))
        out["source"] = "cameras"
    else:
        corr = (tsio.read_correspondences(path, fmt=args.format) if data is None
                else tsio.correspondences_from_dict(data))
        tensor = estimate_tensor_linear(corr)
        residuals = np.abs(epipolar_residuals(tensor, corr))
        out = tsio.tensor_to_dict(tensor)
        out["source"] = "estimated"
        out["n_correspondences"] = int(len(corr))
        out["residual_mean"] = float(np.mean(residuals))
        out["residual_max"] = float(np.max(residuals))
    tsio.write_json(out, args.out)
    return 0


def _raise_if_failed(report):
    """Raise the error a failed experiment report records."""
    if not report.ok:
        raise (DegeneracyError if report.error_kind == "degeneracy"
               else ValidationError)(report.error)


def cmd_sfm(args):
    if args.infile is not None:
        corr = tsio.read_correspondences(args.infile, fmt=args.format)
        report = run_sfm_experiment(correspondences=corr)
    else:
        config = SceneConfig(n_points=args.points, noise_sigma=args.sigma,
                             seed=args.seed)
        report = run_sfm_experiment(config)
    tsio.write_json(report.to_dict(), args.out)
    _raise_if_failed(report)
    return 0


def cmd_selfcal(args):
    config = SelfcalConfig(n_cameras=args.cameras, noise_sigma=args.sigma,
                           seed=args.seed)
    report = run_selfcal_experiment(config)
    tsio.write_json(report.to_dict(), args.out)
    _raise_if_failed(report)
    return 0


# Reference checks. Each returns (quantity, measured value, threshold)
# triples. The published matrices carry two decimals.
CONFIG_TOL = 1e-2
DAQ_TOL = 5e-3


def _gap(a, b):
    return float(np.max(np.abs(np.asarray(a, float) - b)))


def _check_tensor_entries():
    t = tensor_from_cameras(*reference_camera_pair())
    return [("entry gap", _gap(t.values, golden.REFERENCE_TENSOR), COARSE_TOL)]


def _clean_solutions():
    """The two minor matrices of the reference tensor with residual below TOL."""
    t = EpipolarTensor(golden.REFERENCE_TENSOR)
    good = [m for m, r in recover_minor_matrices(t) if r < TOL]
    if len(good) != 2:
        raise DegeneracyError(f"expected 2 clean solutions, found {len(good)}")
    return good


def _check_camera_recovery():
    C1, C2 = (m.matrix for m in _clean_solutions())
    refs = golden.REFERENCE_CONFIG_A, golden.REFERENCE_CONFIG_B
    gap = min(max(_gap(C1, refs[a]), _gap(C2, refs[1 - a])) for a in (0, 1))
    return [("solution gap", gap, CONFIG_TOL)]


def _check_transpose_conjugate():
    m1, m2 = _clean_solutions()
    return [("conjugate gap", _gap(transpose_conjugate(m1).matrix, m2.matrix), COARSE_TOL)]


def _check_projection_example():
    cong = TwoSlitCongruence(join_points([0.0, 1, 0, 0], [0.0, 0, 0, 1]),
                             join_points([1.0, 0, 0, 0], [0.0, 0, 1, -1]))
    ray = two_slit_essential(cong, [1.0, 1, 1, 1])
    frame = RetinalFrame(np.array([[1.0, 0, 0], [0, 1, 0], [0, 0, 1], [0, 0, 1]]))
    image_map = [[1.0, 0, 0, 0, -1, 0], [0, 1, 0, 1, 0, 0], [0, 0, 1, 0, 0, 0]]
    u = quadratic_project(QuadraticCamera(cong, frame), [1.0, 2, 3, 4])
    return [("ray distance", cosine_distance(ray, [2.0, 1, 2, 1, 0, -1]), TOL),
            ("image map gap", _gap(line_to_image_map(frame), image_map), ZERO_TOL),
            ("image distance", cosine_distance(u, [7.0, 12, 21]), TOL)]


def _check_parallel_decomposition():
    dec = decompose_parallel(TwoSlitCamera([[1.0, 0, 0, 0], [0, 0, 1, 0]],
                                           [[0.0, 2, 0, 0], [0, 0, 1, 1]]))
    return [("angle gap", abs(dec.theta - np.pi / 2), TOL),
            ("slit distance gap", abs(dec.d - 1.0), TOL),
            ("K1 gap", _gap(dec.K1, np.eye(2)), TOL),
            ("K2 gap", _gap(dec.K2, np.diag([2.0, 1.0])), TOL)]


def _check_selfcal_quadric():
    Q = golden.REFERENCE_Q
    M = Q @ OMEGA_DUAL @ Q.T
    return [("quadric gap", _gap(M / M[0, 0], golden.REFERENCE_DAQ), DAQ_TOL)]


def _check_selfcal_recovery():
    report = run_selfcal_experiment(SelfcalConfig(
        n_cameras=8, noise_sigma=0.0, seed=3,
        first_camera_magnifications=golden.REFERENCE_MAGNIFICATIONS,
        q_matrix=golden.REFERENCE_Q))
    _raise_if_failed(report)
    m, t = report.magnifications_recovered[0], golden.REFERENCE_MAGNIFICATIONS
    return [("quadric estimate gap", report.daq_true_gap, FIT_TOL),
            ("similarity defect", report.similarity_defect, COARSE_TOL),
            ("magnification gap", _gap(m, t), COARSE_TOL)]


_CHECKS = (
    ("tensor-entries", _check_tensor_entries),
    ("camera-recovery", _check_camera_recovery),
    ("transpose-conjugate", _check_transpose_conjugate),
    ("projection-example", _check_projection_example),
    ("parallel-decomposition", _check_parallel_decomposition),
    ("selfcal-quadric", _check_selfcal_quadric),
    ("selfcal-recovery", _check_selfcal_recovery),
)


def cmd_verify_paper(args):
    passed = 0
    for name, check in _CHECKS:
        try:
            measured = check()
        except Exception as exc:  # a crash inside a check is a failure too
            print(f"FAIL {name}: {type(exc).__name__}: {exc}")
            continue
        failed = [(q, v, t) for q, v, t in measured if not v < t]
        passed += not failed
        shown = "; ".join(f"{q} {v:.3e} {'exceeds' if failed else '<'} {t:.0e}"
                          for q, v, t in failed or measured)
        print(f"{'FAIL' if failed else 'PASS'} {name}: {shown}")
    print(f"{passed}/{len(_CHECKS)} reference checks passed")
    return 0 if passed == len(_CHECKS) else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="twoslit",
        description="Two-slit camera toolkit: projection, tensor estimation, "
                    "reconstruction, and self-calibration.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seed=False, sigma=None, points=False, infile=False,
               out=True, fmt=False):
        if seed:
            p.add_argument("--seed", type=int, default=0,
                           help="random generator seed (default 0)")
        if sigma is not None:
            p.add_argument("--sigma", type=float, default=sigma,
                           help=f"noise level (default {sigma})")
        if points:
            p.add_argument("--points", type=int, default=70, metavar="N",
                           help="number of scene points (default 70)")
        if infile:
            p.add_argument("--in", dest="infile", metavar="FILE",
                           help="input file")
        if out:
            p.add_argument("--out", metavar="FILE",
                           help="output file (default: stdout)")
        if fmt:
            p.add_argument("--format", choices=("json", "csv"),
                           help="input format (default: csv for a .csv file, else json)")

    p = sub.add_parser("synth", help="generate synthetic correspondences")
    common(p, seed=True, sigma=0.0, points=True)
    p.add_argument("--format", choices=("json", "csv"), default="json",
                   help="output format (default json)")
    p.add_argument("--cameras-out", metavar="FILE",
                   help="also store the generating cameras as JSON")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("project", help="project space points through a camera")
    common(p, infile=True)
    p.set_defaults(func=cmd_project)

    p = sub.add_parser("tensor",
                       help="estimate the tensor from correspondences, or "
                            "compute it from cameras")
    common(p, infile=True, fmt=True)
    p.set_defaults(func=cmd_tensor)

    p = sub.add_parser("sfm",
                       help="full pipeline: tensor estimation and camera recovery")
    common(p, seed=True, sigma=0.0, points=True, infile=True, fmt=True)
    p.set_defaults(func=cmd_sfm)

    p = sub.add_parser("selfcal", help="self-calibration experiment")
    common(p, seed=True, sigma=1e-4)
    p.add_argument("--cameras", type=int, default=10, metavar="N",
                   help="number of cameras (default 10)")
    p.set_defaults(func=cmd_selfcal)

    p = sub.add_parser("verify-paper",
                       help="check the library against its bundled reference values")
    p.set_defaults(func=cmd_verify_paper)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        status = args.func(args)
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # the reader left early (`| head`); exit flushes into devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (ValidationError, DegeneracyError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, DegeneracyError) else 2


if __name__ == "__main__":
    sys.exit(main())
