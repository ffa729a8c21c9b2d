"""The four workloads: seeded inputs, rounds of operations, and checks.

A workload builds its inputs from the run's seed with the benchmark's
own code and hands out rounds of operations. An operation calls into
the library through the module attribute its callers use, so that the
traced run sees the call, and returns its output; it raises OpFailed
when the program reports a failure (an exit code other than 0 or a
report that is not ok). Each operation's check returns a list of
problems with its output, found against reference.py or against
properties the method must have, never against saved output.

Noise levels are standard deviations in image units on images of RMS
scenes.IMAGE_SCALE. Noiseless results must be exact to EXACT, and the
bounds on noisy ones scale with the noise. Each bound is at least 20
times the largest value seen over hundreds to thousands of inputs; a
wrong result misses it by orders of magnitude.
"""

import json
import os

import numpy as np

import reference
import scenes

# Points of the four scenes in one sfm_truth round; every round draws
# new scenes. Noiseless only: with noise, recovery prunes every branch
# of some scenes (see CHANGES.md).
SFM_ROUND = (70, 70, 70, 280)

# (file stem, rows, sigma) of the correspondence files the tensor
# command reads, and the number of points the project command maps.
CLI_TENSOR_FILES = (("tensor_small", 2000, 1e-5), ("tensor_large", 6000, 1e-4))
CLI_PROJECT_POINTS = 2500

# Noiseless sets only: on noisy sets of this size the recovery prunes
# every branch for some seeds (see CHANGES.md), and 15 points, the
# estimator's stated minimum, fails on every set.
TWO_VIEW_SIZES = (16, 20, 30, 45, 70)
TWO_VIEW_SETS_PER_SIZE = 40

SELFCAL_ROUND = tuple((n, s) for n in (10, 25, 50, 100, 200) for s in (0.0, 1e-4))

EXACT = 1e-8


class OpFailed(Exception):
    """The program reported that an operation failed."""


class Op:
    __slots__ = ("label", "items", "run", "check")

    def __init__(self, label, items, run, check):
        self.label = label
        self.items = items
        self.run = run
        self.check = check


class FixedRound:
    """A workload whose every round, and its warm-up, is `self.ops`."""

    def warm_up_ops(self):
        return self.ops

    def round_ops(self, r):
        return self.ops


def derived_seed(*words):
    """A 32-bit seed for the library, derived from the run seed."""
    return int(np.random.SeedSequence(list(words)).generate_state(1)[0])


def _over(name, value, bound):
    # `not value <= bound` also catches NaN
    return [] if value <= bound else [f"{name} {value:.3e} exceeds {bound:.1e}"]


def check_sfm(report):
    configs = report["configurations"]
    if len(configs) != 2 or report["equivalent_configuration"] is None:
        return [f"expected 2 configurations and a match, got {len(configs)}"]
    problems = []
    for i, c in enumerate(configs):
        cams = c["cameras"]
        F = reference.tensor(cams["A1"], cams["A2"], cams["B1"], cams["B2"])
        gap = reference.tensor_gap(F, report["estimated_tensor"])
        problems += _over(f"configuration {i} tensor gap", gap, EXACT)
    eq = configs[report["equivalent_configuration"]]
    problems += _over("camera_gap", eq["camera_gap"], EXACT)
    problems += _over("reprojection_rms", eq["reprojection_rms"], EXACT)
    return problems


class SfmTruth:
    """run_sfm_experiment on library-generated scenes with ground truth."""

    item = "correspondence"
    tail_percentile = 60

    def __init__(self, ts, seed, workdir):
        self.ts = ts
        self.seed = seed

    def _op(self, n, scene_seed):
        ts = self.ts

        def run():
            config = ts.synthetic.SceneConfig(
                n_points=n, noise_sigma=0.0, seed=scene_seed,
                image_scale=scenes.IMAGE_SCALE)
            report = ts.experiments.run_sfm_experiment(config).to_dict()
            if not report["ok"]:
                raise OpFailed(f"scene seed {scene_seed}: {report['error']}")
            return report

        def check(report):
            return [f"scene seed {scene_seed}: {p}" for p in check_sfm(report)]

        return Op(f"sfm n={n}", n, run, check)

    def warm_up_ops(self):
        return [self._op(70, derived_seed(self.seed, 1, 0))]

    def round_ops(self, r):
        return [self._op(n, derived_seed(self.seed, 1, r + 1, k))
                for k, n in enumerate(SFM_ROUND)]


class CliFiles(FixedRound):
    """twoslit tensor on CSV files and twoslit project on a JSON file."""

    item = "row"
    tail_percentile = 90

    def __init__(self, ts, seed, workdir):
        self.ts = ts
        os.makedirs(workdir, exist_ok=True)
        rng = np.random.default_rng([seed, 2])
        tensor_ops = []
        for stem, n, sigma in CLI_TENSOR_FILES:
            cams, _, corr = scenes.camera_pair_scene(rng, n, sigma)
            path = os.path.join(workdir, stem + ".csv")
            np.savetxt(path, corr, fmt="%.17g", delimiter=",",
                       header="u1,u2,u3,v1,v2,v3", comments="")
            tensor_ops.append(self._tensor_op(
                stem, path, corr, reference.tensor(*cams), sigma))
        cams, points, _ = scenes.camera_pair_scene(rng, CLI_PROJECT_POINTS, 0.0)
        path = os.path.join(workdir, "project.json")
        with open(path, "w") as fh:
            json.dump({"camera": {"A1": cams[0].tolist(), "A2": cams[1].tolist()},
                       "points": points[:, :3].tolist()}, fh)
        expected = reference.project(cams[0], cams[1], points)
        self.ops = [tensor_ops[0], self._project_op(path, expected), tensor_ops[1]]

    def _main(self, command, path):
        out = path + ".out.json"
        argv = [command, "--in", path, "--out", out]
        ts = self.ts

        def run():
            code = ts.cli.main(argv)
            if code != 0:
                raise OpFailed(f"twoslit {command} exited with code {code}")
            return out

        return run

    def _tensor_op(self, stem, path, corr, truth, sigma):
        def check(out):
            with open(out) as fh:
                rec = json.load(fh)
            problems = []
            if rec["n_correspondences"] != len(corr):
                problems.append(f"{rec['n_correspondences']} rows reported")
            values = np.asarray(rec["values"], float)
            problems += _over("tensor gap to the generating cameras",
                              reference.tensor_gap(values, truth),
                              10.0 * sigma)
            ours = np.abs(reference.residuals(values, corr))
            for key, value in (("residual_max", ours.max()),
                               ("residual_mean", ours.mean())):
                problems += _over(f"{key} relative error",
                                  abs(rec[key] - value) / value, 1e-6)
            return problems

        return Op(f"tensor {stem} rows={len(corr)}", len(corr),
                  self._main("tensor", path), check)

    def _project_op(self, path, expected):
        def check(out):
            with open(out) as fh:
                images = np.asarray(json.load(fh)["images"], float)
            if images.shape != expected.shape:
                return [f"images have shape {images.shape}"]
            err = (np.linalg.norm(images - expected, axis=1)
                   / np.linalg.norm(expected, axis=1))
            return _over("projection relative error", float(err.max()), 1e-12)

        return Op(f"project rows={len(expected)}", len(expected),
                  self._main("project", path), check)


class TwoViewSmall(FixedRound):
    """Estimate, recover and score both configurations on small sets."""

    item = "correspondence"
    tail_percentile = 90

    def __init__(self, ts, seed, workdir):
        self.ts = ts
        rng = np.random.default_rng([seed, 3])
        self.ops = [self._op(*scenes.camera_pair_scene(rng, n, 0.0))
                    for _ in range(TWO_VIEW_SETS_PER_SIZE) for n in TWO_VIEW_SIZES]

    def _op(self, cams, points, corr):
        ts = self.ts
        truth = reference.tensor(*cams)

        def run():
            ep = ts.epipolar
            tensor = ep.estimate_tensor_linear(corr)
            candidates = ep.recover_minor_matrices(tensor)
            configs = ep.two_configurations(candidates[0][0])
            scores = [ep.tensor_from_cameras(a, b) for a, b in configs]
            return tensor, candidates, configs, scores

        def check(result):
            tensor, candidates, configs, scores = result
            if len(candidates) < 2:
                return [f"only {len(candidates)} candidate(s)"]
            problems = _over("estimate gap to the generating cameras",
                             reference.tensor_gap(tensor.values, truth), EXACT)
            for i, ((a, b), score) in enumerate(zip(configs, scores)):
                F = reference.tensor(a.A1, a.A2, b.A1, b.A2)
                problems += _over(f"configuration {i} tensor gap",
                                  reference.tensor_gap(F, tensor.values), EXACT)
                problems += _over(f"configuration {i} score tensor gap",
                                  reference.tensor_gap(score.values, F), 1e-9)
            return problems

        return Op(f"two-view n={len(corr)}", len(corr), run, check)


def check_selfcal(report, sigma):
    return (_over("similarity_defect", report["similarity_defect"],
                  1e-6 if sigma == 0 else 500.0 * sigma)
            + _over("magnification_max_error", report["magnification_max_error"],
                    1e-6 if sigma == 0 else 5000.0 * sigma))


def conditioned_frame(rng):
    """Random 4x4 frame with singular values in [0.5, 2]."""
    U, _ = np.linalg.qr(rng.normal(size=(4, 4)))
    V, _ = np.linalg.qr(rng.normal(size=(4, 4)))
    return U @ np.diag(rng.uniform(0.5, 2.0, 4)) @ V.T


class SelfcalRigs(FixedRound):
    """run_selfcal_experiment on rigs scrambled by a conditioned frame.

    The frame is passed in: the runner's own random frame can be so
    ill-conditioned that the upgrade rejects a noiseless rig (see
    CHANGES.md).
    """

    item = "camera"
    tail_percentile = 95

    def __init__(self, ts, seed, workdir):
        self.ts = ts
        rng = np.random.default_rng([seed, 4])
        self.ops = [self._op(n, sigma, derived_seed(seed, 4, k),
                             conditioned_frame(rng))
                    for k, (n, sigma) in enumerate(SELFCAL_ROUND)]

    def _op(self, n, sigma, rig_seed, frame):
        ts = self.ts
        q = tuple(map(tuple, frame))

        def run():
            config = ts.experiments.SelfcalConfig(
                n_cameras=n, noise_sigma=sigma, seed=rig_seed, q_matrix=q)
            report = ts.experiments.run_selfcal_experiment(config).to_dict()
            if not report["ok"]:
                raise OpFailed(report["error"])
            return report

        return Op(f"selfcal cameras={n} sigma={sigma:g}", n, run,
                  lambda report: check_selfcal(report, sigma))


WORKLOADS = {
    "sfm_truth": SfmTruth,
    "cli_files": CliFiles,
    "two_view_small": TwoViewSmall,
    "selfcal_rigs": SelfcalRigs,
}
