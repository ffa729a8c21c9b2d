"""Command line behavior: subcommands, formats, exit codes."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import twoslit
from twoslit import golden
from twoslit import io as tsio
from twoslit.cameras import project
from twoslit.cli import main
from twoslit.epipolar import tensor_from_cameras
from twoslit.synthetic import reference_camera_pair


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
