"""Command line behavior: subcommands, formats, exit codes."""

import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import twoslit
from twoslit import cli, golden
from twoslit import io as tsio
from twoslit.cameras import project
from twoslit.cli import main
from twoslit.epipolar import tensor_from_cameras
from twoslit.synthetic import SceneConfig, generate_scene, reference_camera_pair


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSynth:
    def test_json_to_stdout(self, capsys):
        code, out, _ = run(capsys, "synth", "--points", "12", "--seed", "4")
        assert code == 0
        data = json.loads(out)
        assert data["columns"] == list(tsio.CSV_COLUMNS)
        assert len(data["rows"]) == 12

    def test_formats_agree(self, capsys, tmp_path):
        j = tmp_path / "c.json"
        c = tmp_path / "c.csv"
        assert run(capsys, "synth", "--points", "9", "--seed", "8",
                   "--out", str(j))[0] == 0
        assert run(capsys, "synth", "--points", "9", "--seed", "8",
                   "--format", "csv", "--out", str(c))[0] == 0
        assert np.array_equal(tsio.read_correspondences(j),
                              tsio.read_correspondences(c))

    def test_cameras_out(self, capsys, tmp_path):
        cams = tmp_path / "cams.json"
        code, _, _ = run(capsys, "synth", "--points", "8", "--seed", "1",
                         "--out", str(tmp_path / "c.json"),
                         "--cameras-out", str(cams))
        assert code == 0
        stored = tsio.read_json(cams)
        camA = tsio.camera_from_dict(stored["A"])
        assert camA.A1.shape == (2, 4)

    def test_negative_sigma_is_invalid(self, capsys):
        code, _, err = run(capsys, "synth", "--sigma", "-0.5")
        assert code == 2
        assert "error:" in err


class TestProject:
    def test_projects_homogeneous_points(self, capsys, tmp_path):
        camA, _ = reference_camera_pair()
        payload = {"camera": tsio.camera_to_dict(camA),
                   "points": [[1.0, 2.0, 3.0, 4.0], [2.0, 0.5, -1.0, 1.0]]}
        path = tmp_path / "in.json"
        tsio.write_json(payload, path)
        code, out, _ = run(capsys, "project", "--in", str(path))
        assert code == 0
        images = json.loads(out)["images"]
        assert np.allclose(images[0], project(camA, [1.0, 2, 3, 4]))
        assert np.allclose(images[1], project(camA, [2.0, 0.5, -1, 1]))

    def test_affine_points_get_unit_last_coordinate(self, capsys, tmp_path):
        camA, _ = reference_camera_pair()
        payload = {"camera": tsio.camera_to_dict(camA),
                   "points": [[0.5, -1.0, 2.0]]}
        path = tmp_path / "in.json"
        tsio.write_json(payload, path)
        code, out, _ = run(capsys, "project", "--in", str(path))
        assert code == 0
        images = json.loads(out)["images"]
        assert np.allclose(images[0], project(camA, [0.5, -1, 2, 1]))

    def test_ragged_points_rejected(self, capsys, tmp_path):
        camA, _ = reference_camera_pair()
        payload = {"camera": tsio.camera_to_dict(camA),
                   "points": [[1.0, 2.0, 3.0, 4.0], [0.5, -1.0, 2.0]]}
        path = tmp_path / "in.json"
        tsio.write_json(payload, path)
        code, _, err = run(capsys, "project", "--in", str(path))
        assert code == 2
        assert "malformed point rows" in err

    def test_missing_input_flag(self, capsys):
        code, _, err = run(capsys, "project")
        assert code == 2
        assert "--in" in err

    def test_missing_keys(self, capsys, tmp_path):
        path = tmp_path / "in.json"
        tsio.write_json({"points": [[1, 2, 3]]}, path)
        code, _, err = run(capsys, "project", "--in", str(path))
        assert code == 2
        assert "camera" in err

    def test_point_on_slit(self, capsys, tmp_path):
        camA, _ = reference_camera_pair()
        # any null vector of the first matrix lies on its slit
        on_slit = np.linalg.svd(camA.A1)[2][2]
        path = tmp_path / "in.json"
        tsio.write_json({"camera": tsio.camera_to_dict(camA),
                         "points": [on_slit.tolist()]}, path)
        code, _, err = run(capsys, "project", "--in", str(path))
        assert code == 2
        assert "slit" in err

    @pytest.mark.parametrize("points, code", [
        ([1.0, 2.0, 3.0, 4.0], 0),
        ([0.5, -1.0, 2.0], 0),
        ([[1.0, 2.0, 3.0, 4.0, 5.0]], 2),
        ([1.0, 2.0, 3.0, 4.0, 5.0], 2),
    ], ids=["flat-homogeneous", "flat-affine", "five-columns", "flat-five"])
    def test_point_shapes(self, capsys, tmp_path, points, code):
        """One point may come as a flat list; a row is 3 or 4 coordinates."""
        camA, _ = reference_camera_pair()
        path = tmp_path / "in.json"
        tsio.write_json({"camera": tsio.camera_to_dict(camA), "points": points}, path)
        got, out, err = run(capsys, "project", "--in", str(path))
        assert got == code
        if code == 0:
            x = points + [1.0] * (4 - len(points))
            assert json.loads(out)["images"] == [project(camA, x).tolist()]
        else:
            assert "rows of 3 or 4 coordinates" in err and out == ""


class TestTensor:
    def test_from_cameras(self, capsys, tmp_path):
        camA, camB = reference_camera_pair()
        path = tmp_path / "cams.json"
        tsio.write_json({"cameras": {"A": tsio.camera_to_dict(camA),
                                     "B": tsio.camera_to_dict(camB)}}, path)
        code, out, _ = run(capsys, "tensor", "--in", str(path))
        assert code == 0
        data = json.loads(out)
        assert data["source"] == "cameras"
        truth = tensor_from_cameras(camA, camB)
        assert np.array_equal(np.asarray(data["values"]), truth.flat())

    def test_estimated_from_synth_csv(self, capsys, tmp_path):
        corr = tmp_path / "c.csv"
        run(capsys, "synth", "--points", "30", "--seed", "2",
            "--format", "csv", "--out", str(corr))
        code, out, _ = run(capsys, "tensor", "--in", str(corr))
        assert code == 0
        data = json.loads(out)
        assert data["source"] == "estimated"
        assert data["n_correspondences"] == 30
        assert data["residual_max"] < 1e-10

    def test_too_few_rows(self, capsys, tmp_path):
        corr = tmp_path / "c.json"
        run(capsys, "synth", "--points", "10", "--seed", "2",
            "--out", str(corr))
        code, _, err = run(capsys, "tensor", "--in", str(corr))
        assert code == 2
        assert "at least 15" in err

    def test_degenerate_rows_exit_3(self, capsys, tmp_path, rng):
        camA, camB = reference_camera_pair()
        span = rng.normal(size=(3, 4))
        rows = []
        while len(rows) < 25:
            x = rng.normal(size=3) @ span
            try:
                rows.append(np.concatenate([project(camA, x),
                                            project(camB, x)]))
            except Exception:
                continue
        path = tmp_path / "flat.csv"
        tsio.write_correspondences(np.array(rows), path, fmt="csv")
        code, _, err = run(capsys, "tensor", "--in", str(path))
        assert code == 3
        assert "degenerate" in err


class TestSfm:
    def test_synthetic_run(self, capsys):
        code, out, _ = run(capsys, "sfm", "--points", "30", "--seed", "6")
        assert code == 0
        report = json.loads(out)
        assert report["ok"]
        assert len(report["configurations"]) == 2
        assert report["equivalent_configuration"] in (0, 1)

    def test_from_file(self, capsys, tmp_path):
        corr = tmp_path / "c.csv"
        run(capsys, "synth", "--points", "25", "--seed", "3",
            "--format", "csv", "--out", str(corr))
        code, out, _ = run(capsys, "sfm", "--in", str(corr),
                           "--format", "csv")
        assert code == 0
        report = json.loads(out)
        assert report["ok"]
        assert report["configurations"][0]["camera_gap"] is None

    def test_failed_run_still_writes_report(self, capsys, tmp_path, rng):
        camA, camB = reference_camera_pair()
        span = rng.normal(size=(3, 4))
        rows = []
        while len(rows) < 20:
            x = rng.normal(size=3) @ span
            try:
                rows.append(np.concatenate([project(camA, x),
                                            project(camB, x)]))
            except Exception:
                continue
        corr = tmp_path / "flat.csv"
        tsio.write_correspondences(np.array(rows), corr, fmt="csv")
        out_path = tmp_path / "report.json"
        code, _, err = run(capsys, "sfm", "--in", str(corr),
                           "--format", "csv", "--out", str(out_path))
        assert code == 3
        report = tsio.read_json(out_path)
        assert not report["ok"]
        assert report["error_kind"] == "degeneracy"


class TestSelfcal:
    def test_noiseless_run(self, capsys):
        code, out, _ = run(capsys, "selfcal", "--cameras", "8",
                           "--sigma", "0", "--seed", "3")
        assert code == 0
        report = json.loads(out)
        assert report["ok"]
        assert report["similarity_defect"] < 1e-6

    def test_too_few_cameras(self, capsys):
        code, _, err = run(capsys, "selfcal", "--cameras", "3")
        assert code == 2
        assert "at least 5" in err


def test_verify_paper_all_pass(capsys):
    code, out, _ = run(capsys, "verify-paper")
    assert code == 0
    assert "7/7 reference checks passed" in out
    assert out.count("PASS") == 7
    assert "FAIL" not in out


def test_tensor_from_fifteen_csv_rows(capsys, tmp_path):
    corr = tmp_path / "c.csv"
    run(capsys, "synth", "--points", "15", "--seed", "5",
        "--format", "csv", "--out", str(corr))
    code, out, _ = run(capsys, "tensor", "--in", str(corr))
    assert code == 0
    assert json.loads(out)["n_correspondences"] == 15


def test_verify_paper_names_the_failing_quantity(capsys, monkeypatch):
    monkeypatch.setattr(golden, "REFERENCE_DAQ", golden.REFERENCE_DAQ + 0.01)
    code, out, _ = run(capsys, "verify-paper")
    assert code == 1
    fails = [line for line in out.splitlines() if line.startswith("FAIL")]
    assert len(fails) == 1
    assert re.fullmatch(r"FAIL selfcal-quadric: quadric gap \d\.\d{3}e-02 exceeds 5e-03",
                        fails[0])
    assert "6/7 reference checks passed" in out


@pytest.mark.parametrize("command", ["synth", "sfm", "selfcal"])
@pytest.mark.parametrize("sigma", ["inf", "nan", "-1"])
def test_sigma_must_be_finite_and_non_negative(capsys, command, sigma):
    code, out, err = run(capsys, command, "--sigma", sigma)
    assert code == 2
    assert err.startswith("error:") and "sigma" in err
    assert out == ""


def test_sfm_reads_csv_by_file_name(capsys, tmp_path):
    corr = tmp_path / "c.csv"
    run(capsys, "synth", "--points", "25", "--seed", "3",
        "--format", "csv", "--out", str(corr))
    code, out, _ = run(capsys, "sfm", "--in", str(corr))
    assert code == 0
    assert json.loads(out)["ok"]


def test_sfm_in_passes_the_config_check(capsys, tmp_path):
    """`sfm --in` runs on the default SceneConfig, which the check of every
    config field passes, and reports its noise sigma."""
    corr = tmp_path / "c.csv"
    tsio.write_correspondences(
        generate_scene(SceneConfig(n_points=20, seed=2)).correspondences, corr, fmt="csv")
    code, out, _ = run(capsys, "sfm", "--in", str(corr))
    assert code == 0
    report = json.loads(out)
    assert report["ok"] and report["noise_sigma"] == SceneConfig().noise_sigma


def test_closed_stdout_exits_quietly():
    """A reader that stops early, as `| head -1` does, ends the command
    with the shell's SIGPIPE status and nothing on stderr."""
    src = str(Path(twoslit.__file__).resolve().parents[1])
    proc = subprocess.Popen(
        [sys.executable, "-m", "twoslit.cli", "synth", "--points", "20000"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env={**os.environ, "PYTHONPATH": src})
    assert proc.stdout.readline().strip() == b"{"
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == 141
    assert err == b""


@pytest.mark.parametrize("text", ["5", "[1, 2]", '{"cameras": 5}', '{"cameras": {"B": {}}}'])
def test_malformed_json_input_exits_2(capsys, tmp_path, text):
    path = tmp_path / "in.json"
    path.write_text(text)
    code, _, err = run(capsys, "tensor", "--in", str(path))
    assert code == 2
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("case", ["missing", "directory", "undecodable", "out", "cameras-out"])
def test_unreadable_or_unwritable_file_exits_2(capsys, tmp_path, case):
    missing_dir = tmp_path / "no-such-dir"
    undecodable = tmp_path / "bom.json"
    undecodable.write_bytes(b"\xff\xfe{}")
    argv = {
        "missing": ["tensor", "--in", str(tmp_path / "missing.json")],
        "directory": ["tensor", "--in", str(tmp_path)],
        "undecodable": ["tensor", "--in", str(undecodable)],
        "out": ["synth", "--points", "5", "--out", str(missing_dir / "x.json")],
        "cameras-out": ["synth", "--points", "5", "--out", str(tmp_path / "x.json"),
                        "--cameras-out", str(missing_dir / "c.json")],
    }[case]
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("error:") and "Traceback" not in err


GOOD_CAMERA = {"A1": [[1.0, 0, 0, 0], [0, 0, 1, 0]], "A2": [[0.0, 1, 0, 0], [0, 0, 0, 1]]}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command, text", [
    ("project", json.dumps({"camera": {**GOOD_CAMERA, "A1": [[0] * 4] * 2},
                            "points": [[1, 2, 3]]})),
    ("project", json.dumps({"camera": GOOD_CAMERA, "points": [[1, 2, 3]]})
     .replace("[0, 0, 0, 1]", f"[0, 0, 0, {10 ** 400}]")),
    ("project", json.dumps({"camera": {**GOOD_CAMERA, "A1": [[1, 0, 0], [0, 0, 1, 0]]},
                            "points": [[1, 2, 3]]})),
    ("tensor", json.dumps({"rows": [[1, 2, "x", 1, 2, 3]]})),
], ids=["zero-A1", "huge-integer", "ragged-A1", "text-in-row"])
def test_malformed_numbers_exit_2(capsys, tmp_path, command, text):
    path = tmp_path / "in.json"
    path.write_text(text)
    code, _, err = run(capsys, command, "--in", str(path))
    assert code == 2
    assert err.startswith("error:") and "Traceback" not in err


def test_csv_cell_past_the_field_size_limit_exits_2(capsys, tmp_path):
    """A cell longer than csv.field_size_limit() ends in exit code 2."""
    path = tmp_path / "long.csv"
    path.write_text("u1,u2,u3,v1,v2,v3\n" + "1" * 140000 + ",2,3,4,5,6\n")
    code, _, err = run(capsys, "tensor", "--in", str(path))
    assert code == 2
    assert err.startswith("error: line 2: field larger than field limit")
    assert "Traceback" not in err


def test_tensor_reads_synth_cameras(capsys, tmp_path):
    cams = tmp_path / "cams.json"
    assert run(capsys, "synth", "--points", "8", "--seed", "2",
               "--out", str(tmp_path / "c.json"), "--cameras-out", str(cams))[0] == 0
    code, out, _ = run(capsys, "tensor", "--in", str(cams))
    assert code == 0
    data = json.loads(out)
    stored = tsio.read_json(cams)
    expected = tensor_from_cameras(*(tsio.camera_from_dict(stored, name) for name in "AB"))
    assert data["source"] == "cameras"
    assert data["values"] == expected.flat().tolist()


_json_scalars = st.one_of(
    st.integers(), st.integers(min_value=10 ** 300, max_value=10 ** 400),
    st.floats(), st.text(max_size=3), st.none())
_json_values = st.recursive(
    _json_scalars,
    lambda inner: st.lists(inner, max_size=5) | st.dictionaries(st.text(max_size=2), inner,
                                                                max_size=3),
    max_leaves=24)
_matrices = st.lists(st.lists(st.integers(-3, 3) | st.floats(-1e3, 1e3), min_size=4, max_size=4),
                     min_size=2, max_size=2)
_cameras = _json_values | st.fixed_dictionaries({"A1": _matrices | _json_values,
                                                 "A2": _matrices | _json_values})
_point_rows = st.lists(st.lists(st.floats(-1e3, 1e3), min_size=3, max_size=4), max_size=4)
_cli_inputs = st.one_of(
    st.tuples(st.just("project"),
              st.fixed_dictionaries({"camera": _cameras, "points": _point_rows | _json_values})),
    st.tuples(st.just("tensor"), st.one_of(
        st.fixed_dictionaries({"cameras": st.fixed_dictionaries({"A": _cameras, "B": _cameras})
                               | _json_values}),
        st.fixed_dictionaries({"A": _cameras, "B": _cameras}),
        st.fixed_dictionaries({"rows": _json_values}))))


@given(_cli_inputs)
@settings(max_examples=300, deadline=None)
def test_json_fields_never_raise(case):
    """Any JSON value in any field ends in exit 0, 2 or 3, not in an exception."""
    command, data = case
    with tempfile.TemporaryDirectory() as folder:
        path = Path(folder) / "in.json"
        path.write_text(json.dumps(data))
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert main([command, "--in", str(path)]) in (0, 2, 3)


@pytest.mark.filterwarnings("error")
def test_overflowing_image_exits_2(capsys, tmp_path):
    """An image too large for a float is an input error, not `Infinity`."""
    path = tmp_path / "in.json"
    path.write_text(json.dumps({"camera": GOOD_CAMERA, "points": [[1e200, 2e200, 3e200]]}))
    code, out, err = run(capsys, "project", "--in", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "overflows" in err


@pytest.mark.parametrize("argv", [
    ["synth", "--points", "9", "--seed", "3"],
    ["synth", "--points", "9", "--seed", "3", "--format", "csv"],
    ["project", "--in", "{project}"],
    ["tensor", "--in", "{csv}"],
    ["sfm", "--points", "20", "--seed", "1", "--sigma", "1e-4"],
    ["selfcal", "--cameras", "6", "--seed", "2"],
], ids=["synth-json", "synth-csv", "project", "tensor", "sfm", "selfcal"])
def test_stdout_and_out_file_get_the_same_bytes(capsys, tmp_path, argv):
    inputs = {"project": tmp_path / "p.json", "csv": tmp_path / "c.csv"}
    inputs["project"].write_text(json.dumps({"camera": GOOD_CAMERA, "points": [[1, 2, 3]]}))
    assert run(capsys, "synth", "--points", "20", "--format", "csv",
               "--out", str(inputs["csv"]))[0] == 0
    argv = [arg.format(**inputs) for arg in argv]
    out_file = tmp_path / "out"
    code, out, _ = run(capsys, *argv)
    assert run(capsys, *argv, "--out", str(out_file))[0] == code == 0
    assert out_file.read_bytes() == out.encode()


def _reject_constant(token):
    raise ValueError(f"non-standard JSON token {token}")


@pytest.mark.parametrize("argv, blank", [
    (("sfm", "--points", "5"), ("residual_mean", "residual_max")),
    (("selfcal", "--cameras", "0"),
     ("daq_true_gap", "similarity_defect", "magnification_max_error")),
], ids=["sfm", "selfcal"])
def test_failed_report_is_strict_json(capsys, argv, blank):
    """A failed run writes null for what it did not compute, never NaN."""
    code, out, _ = run(capsys, *argv)
    assert code == 2
    report = json.loads(out, parse_constant=_reject_constant)
    assert not report["ok"]
    assert all(report[key] is None for key in blank)


def _times_rows(c, scales):
    return c * np.broadcast_to(scales, len(c))[:, None]


def _with(c, index, value):
    c = c.copy()
    c[index] = value
    return c


# Rows, or some of their cells, scaled to the edges of the float range.
# A row times any nonzero number is the same correspondence; the cases
# named "rows" or "last row" change nothing else.
EXTREME_CASES = {
    "last row x1e150": lambda c: _times_rows(c, np.r_[np.ones(len(c) - 1), 1e150]),
    "last row x1e-150": lambda c: _times_rows(c, np.r_[np.ones(len(c) - 1), 1e-150]),
    "last row x1e300": lambda c: _times_rows(c, np.r_[np.ones(len(c) - 1), 1e300]),
    "rows x1e150": lambda c: c * 1e150,
    "rows x1e-150": lambda c: c * 1e-150,
    "rows x1e300": lambda c: c * 1e300,
    "rows x1e-300": lambda c: c * 1e-300,
    "rows x2^1000": lambda c: c * 2.0 ** 1000,
    "rows x1e-300 to x1e300": lambda c: _times_rows(c, np.logspace(-300, 300, len(c))),
    "rows x1e200, x1e-200 in turn": lambda c: _times_rows(c, np.resize([1e200, 1e-200], len(c))),
    "one u1, u3 pair x1e300": lambda c: _with(c, (0, [0, 2]), c[0, [0, 2]] * 1e300),
    "column u3 x1e-300": lambda c: _with(c, (slice(None), 2), c[:, 2] * 1e-300),
    "column v3 x1e300": lambda c: _with(c, (slice(None), 5), c[:, 5] * 1e300),
    "one cell near the largest float": lambda c: _with(c, (3, 1), 1.7e308),
    "one subnormal cell": lambda c: _with(c, (3, 1), 5e-324),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("case", EXTREME_CASES)
def test_extreme_magnitudes_end_in_an_exit_code(capsys, tmp_path, case):
    """Rows or cells scaled to the edges of the float range end in exit
    0, 2 or 3, not in a traceback; a row rescaled as a whole is the same
    correspondence and gives the tensor of the unscaled file."""
    corr = generate_scene(SceneConfig(n_points=40, noise_sigma=1e-5, seed=1)).correspondences
    plain, path = tmp_path / "plain.csv", tmp_path / "scaled.csv"
    tsio.write_correspondences(corr, plain, fmt="csv")
    tsio.write_correspondences(EXTREME_CASES[case](corr), path, fmt="csv")
    for command in ("tensor", "sfm"):
        code, out, err = run(capsys, command, "--in", str(path))
        assert code in (0, 2, 3), err
        assert (err == "") if code == 0 else err.startswith("error:")
        if command == "tensor" and case.startswith(("rows", "last row")):
            assert code == 0, err
            want = json.loads(run(capsys, "tensor", "--in", str(plain))[1])["values"]
            assert np.max(np.abs(np.subtract(json.loads(out)["values"], want))) < 1e-6


@pytest.mark.parametrize("command", ["synth", "sfm", "selfcal"])
def test_negative_seed_is_invalid(capsys, command):
    code, out, err = run(capsys, command, "--seed", "-1")
    assert code == 2
    assert err.startswith("error:") and "seed" in err
    assert out == ""


@pytest.mark.parametrize("seed", range(3))
def test_sfm_on_valid_input_with_failing_recovered_cameras_exits_3(
        capsys, tmp_path, seed, near_gauge_offset):
    corr = tmp_path / "c.csv"
    tsio.write_correspondences(near_gauge_offset(seed), corr, fmt="csv")
    code, out, err = run(capsys, "sfm", "--in", str(corr))
    assert code == 3
    assert "recovered configuration" in err
    assert json.loads(out)["error_kind"] == "degeneracy"


def test_shared_parser_leaks_no_option(capsys, tmp_path):
    """main builds its parser once per process; an option given to one call
    (--format csv) does not reach the next call, which must then infer json
    from the file name. Each output equals that of a freshly built parser."""
    csv_path, json_path = str(tmp_path / "c.csv"), str(tmp_path / "c.json")
    for path, fmt in ((csv_path, "csv"), (json_path, "json")):
        assert run(capsys, "synth", "--points", "40", "--seed", "5", "--sigma", "1e-6",
                   "--format", fmt, "--out", path)[0] == 0
    calls = [("tensor", "--in", csv_path, "--format", "csv"), ("tensor", "--in", json_path)]
    fresh = []
    for argv in calls:
        cli.build_parser.cache_clear()
        fresh.append(run(capsys, *argv))
    cli.build_parser.cache_clear()
    shared = [run(capsys, *argv) for argv in calls]
    assert cli.build_parser.cache_info().misses == 1
    assert shared == fresh
    assert shared[0][0] == 0 and shared[0][1] == shared[1][1]
