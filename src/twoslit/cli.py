"""Command line front end.

Exit codes: 0 on success, 1 when verify-paper finds a mismatch,
2 for invalid input, 3 when the data is numerically degenerate.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .errors import DegeneracyError, ValidationError
from . import golden
from .projective import RetinalFrame, join_points, line_to_image_map, proj_equal
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
from .synthetic import SceneConfig, generate_scene
from .experiments import SelfcalConfig, run_selfcal_experiment, run_sfm_experiment
from . import io as tsio


def _emit(text, out):
    if out:
        with open(out, "w") as fh:
            fh.write(text)
            if not text.endswith("\n"):
                fh.write("\n")
    else:
        print(text)


def _emit_json(data, out):
    _emit(json.dumps(data, indent=2), out)


def _read_input_json(path):
    if path is None:
        raise ValidationError("this command needs --in FILE")
    return tsio.read_json(path)


def cmd_synth(args):
    config = SceneConfig(n_points=args.points, noise_sigma=args.sigma,
                         seed=args.seed)
    scene = generate_scene(config)
    _emit(tsio.correspondences_to_text(scene.correspondences, args.format),
          args.out)
    if args.cameras_out:
        camA, camB = scene.cameras
        tsio.write_json({"A": tsio.camera_to_dict(camA),
                         "B": tsio.camera_to_dict(camB)}, args.cameras_out)
    return 0


def cmd_project(args):
    data = _read_input_json(args.infile)
    if "camera" not in data or "points" not in data:
        raise ValidationError('project input must hold "camera" and "points"')
    camera = tsio.camera_from_dict(data["camera"])
    try:
        points = np.asarray(data["points"], float)
    except ValueError as exc:
        raise ValidationError(f"malformed point rows: {exc}") from exc
    if points.ndim == 1:
        points = points[None, :]
    if points.ndim != 2 or points.shape[1] not in (3, 4):
        raise ValidationError("points must be rows of 3 or 4 coordinates")
    if points.shape[1] == 3:
        points = np.hstack([points, np.ones((len(points), 1))])
    _emit_json({"images": project_points(camera, points).tolist()}, args.out)
    return 0


def cmd_tensor(args):
    if args.infile is None:
        raise ValidationError("tensor needs --in FILE")
    if str(args.infile).lower().endswith(".csv") or args.format == "csv":
        corr = tsio.read_correspondences(args.infile, fmt="csv")
        data = None
    else:
        data = tsio.read_json(args.infile)
        corr = None
    if data is not None and "cameras" in data:
        camA = tsio.camera_from_dict(data["cameras"]["A"])
        camB = tsio.camera_from_dict(data["cameras"]["B"])
        tensor = tensor_from_cameras(camA, camB)
        out = tsio.tensor_to_dict(tensor)
        out["source"] = "cameras"
    else:
        if corr is None:
            corr = tsio.correspondences_from_dict(data)
        tensor = estimate_tensor_linear(corr)
        residuals = np.abs(epipolar_residuals(tensor, corr))
        out = tsio.tensor_to_dict(tensor)
        out["source"] = "estimated"
        out["n_correspondences"] = int(len(corr))
        out["residual_mean"] = float(np.mean(residuals))
        out["residual_max"] = float(np.max(residuals))
    _emit_json(out, args.out)
    return 0


def cmd_sfm(args):
    if args.infile is not None:
        corr = tsio.read_correspondences(args.infile, fmt=args.format)
        report = run_sfm_experiment(correspondences=corr)
    else:
        config = SceneConfig(n_points=args.points, noise_sigma=args.sigma,
                             seed=args.seed)
        report = run_sfm_experiment(config)
    _emit_json(report.to_dict(), args.out)
    if not report.ok:
        raise (DegeneracyError if report.error_kind == "degeneracy"
               else ValidationError)(report.error)
    return 0


def cmd_selfcal(args):
    config = SelfcalConfig(n_cameras=args.cameras, noise_sigma=args.sigma,
                           seed=args.seed)
    report = run_selfcal_experiment(config)
    _emit_json(report.to_dict(), args.out)
    if not report.ok:
        raise (DegeneracyError if report.error_kind == "degeneracy"
               else ValidationError)(report.error)
    return 0


class _CheckFailure(Exception):
    pass


def _require(cond, message):
    if not cond:
        raise _CheckFailure(message)


def _check_tensor_entries():
    camA = TwoSlitCamera(golden.REFERENCE_A1, golden.REFERENCE_A2)
    camB = TwoSlitCamera(golden.REFERENCE_B1, golden.REFERENCE_B2)
    t = tensor_from_cameras(camA, camB)
    gap = float(np.max(np.abs(t.values - np.asarray(golden.REFERENCE_TENSOR, float))))
    _require(gap < 1e-6, f"entry gap {gap:.3e}")
    return f"all 16 entries match, max gap {gap:.1e}"


def _recovered_pair():
    t = EpipolarTensor(np.asarray(golden.REFERENCE_TENSOR, float))
    good = [(m, r) for m, r in recover_minor_matrices(t) if r < 1e-9]
    return t, good


def _check_camera_recovery():
    _, good = _recovered_pair()
    _require(len(good) == 2, f"expected 2 clean solutions, found {len(good)}")
    refs = [np.asarray(golden.REFERENCE_CONFIG_A, float),
            np.asarray(golden.REFERENCE_CONFIG_B, float)]
    mats = [m.matrix for m, _ in good]
    pairings = []
    for a, b in ((0, 1), (1, 0)):
        pairings.append(max(float(np.max(np.abs(mats[0] - refs[a]))),
                            float(np.max(np.abs(mats[1] - refs[b])))))
    gap = min(pairings)
    _require(gap < 0.01, f"solution gap {gap:.3e}")
    return f"both reference configurations recovered, max gap {gap:.4f}"


def _check_transpose_conjugate():
    _, good = _recovered_pair()
    _require(len(good) == 2, "recovery did not yield two solutions")
    swapped = transpose_conjugate(good[0][0])
    gap = float(np.max(np.abs(swapped.matrix - good[1][0].matrix)))
    _require(gap < 1e-6, f"conjugate gap {gap:.3e}")
    return f"the two solutions are transpose conjugates, gap {gap:.1e}"


def _check_projection_example():
    l1 = join_points([0.0, 1, 0, 0], [0.0, 0, 0, 1])
    l2 = join_points([1.0, 0, 0, 0], [0.0, 0, 1, -1])
    cong = TwoSlitCongruence(l1, l2)
    lam = two_slit_essential(cong, [1.0, 1, 1, 1])
    _require(proj_equal(lam, [2.0, 1, 2, 1, 0, -1]),
             f"ray through unit point came out as {lam}")
    frame = RetinalFrame(np.array([[1.0, 0, 0], [0, 1, 0],
                                   [0, 0, 1], [0, 0, 1]]))
    N = line_to_image_map(frame)
    expected = np.array([[1.0, 0, 0, 0, -1, 0],
                         [0, 1, 0, 1, 0, 0],
                         [0, 0, 1, 0, 0, 0]])
    gap = float(np.max(np.abs(N - expected)))
    _require(gap < 1e-12, f"line-to-image map gap {gap:.3e}")
    x = np.array([1.0, 2, 3, 4])
    u = quadratic_project(QuadraticCamera(cong, frame), x)
    _require(proj_equal(u, [7.0, 12, 21]), f"projection of probe point was {u}")
    return "ray, image map, and projection match the worked example"


def _check_parallel_decomposition():
    cam = TwoSlitCamera(np.array([[1.0, 0, 0, 0], [0, 0, 1, 0]]),
                        np.array([[0.0, 2, 0, 0], [0, 0, 1, 1]]))
    dec = decompose_parallel(cam)
    _require(abs(dec.theta - np.pi / 2) < 1e-9, f"angle {dec.theta}")
    _require(abs(dec.d - 1.0) < 1e-9, f"plane gap {dec.d}")
    _require(np.allclose(dec.K1, np.eye(2), atol=1e-9), f"K1 {dec.K1}")
    _require(np.allclose(dec.K2, np.diag([2.0, 1.0]), atol=1e-9), f"K2 {dec.K2}")
    return "angle pi/2, unit plane gap, expected internal parameters"


def _check_selfcal_quadric():
    Q = np.asarray(golden.REFERENCE_Q, float)
    M = Q @ OMEGA_DUAL @ Q.T
    M = M / M[0, 0]
    gap = float(np.max(np.abs(M - np.asarray(golden.REFERENCE_DAQ, float))))
    _require(gap < 0.005, f"quadric gap {gap:.4f}")
    return f"reference frame reproduces the published quadric, gap {gap:.4f}"


def _check_selfcal_recovery():
    config = SelfcalConfig(
        n_cameras=8, noise_sigma=0.0, seed=3,
        first_camera_magnifications=golden.REFERENCE_MAGNIFICATIONS,
        q_matrix=golden.REFERENCE_Q)
    report = run_selfcal_experiment(config)
    _require(report.ok, f"run failed: {report.error}")
    _require(report.daq_true_gap < 1e-8,
             f"quadric estimate gap {report.daq_true_gap:.3e}")
    _require(report.similarity_defect < 1e-6,
             f"upgrade is not a similarity: defect {report.similarity_defect:.3e}")
    m1, m2 = report.magnifications_recovered[0]
    t1, t2 = golden.REFERENCE_MAGNIFICATIONS
    gap = max(abs(m1 - t1), abs(m2 - t2))
    _require(gap < 1e-6, f"magnification gap {gap:.3e}")
    return (f"noise-free run recovers magnifications "
            f"({m1:.2f}, {m2:.2f}) and a similarity upgrade")


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
    failures = 0
    for name, check in _CHECKS:
        try:
            detail = check()
        except _CheckFailure as exc:
            failures += 1
            print(f"FAIL {name}: {exc}")
        except Exception as exc:  # an unexpected crash is still a failure
            failures += 1
            print(f"FAIL {name}: {type(exc).__name__}: {exc}")
        else:
            print(f"PASS {name}: {detail}")
    total = len(_CHECKS)
    print(f"{total - failures}/{total} reference checks passed")
    return 1 if failures else 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="twoslit",
        description="Two-slit camera toolkit: projection, tensor estimation, "
                    "reconstruction, and self-calibration.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seed=False, sigma=None, points=False, infile=False,
               out=True, fmt=None):
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
            p.add_argument("--format", choices=("json", "csv"), default=fmt,
                           help=f"file format (default {fmt})")

    p = sub.add_parser("synth", help="generate synthetic correspondences")
    common(p, seed=True, sigma=0.0, points=True, fmt="json")
    p.add_argument("--cameras-out", metavar="FILE",
                   help="also store the generating cameras as JSON")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("project", help="project space points through a camera")
    common(p, infile=True)
    p.set_defaults(func=cmd_project)

    p = sub.add_parser("tensor",
                       help="estimate the tensor from correspondences, or "
                            "compute it from cameras")
    common(p, infile=True, fmt="json")
    p.set_defaults(func=cmd_tensor)

    p = sub.add_parser("sfm",
                       help="full pipeline: tensor estimation and camera recovery")
    common(p, seed=True, sigma=0.0, points=True, infile=True, fmt="json")
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
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DegeneracyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
