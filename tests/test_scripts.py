"""The study scripts run end to end on tiny inputs."""

import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name, argv", [
    ("sfm_noise_sweep", ["--seeds", "2", "--points", "20", "--sigmas", "0,1e-5"]),
    ("selfcal_demo", ["--cameras", "6", "--sigma", "0"]),
])
def test_script_main_runs(name, argv, tmp_path, capsys):
    out = tmp_path / "out"
    extra = ["--out", str(out)] if name == "sfm_noise_sweep" else ["--json", str(out)]
    assert load(name).main(argv + extra) == 0
    assert out.exists()
    assert "failed" not in capsys.readouterr().out
