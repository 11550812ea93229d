"""Smoke runs of the example scripts at their smallest sizes, so a change to
the library API cannot break them silently."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import quasiprob

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.mark.parametrize(
    "argv",
    [
        ["tomography_sweep.py", "--max-dirs", "2"],
        ["tamper_detection.py", "--amplitudes", "0.05"],
        ["spin_window_map.py"],
    ],
)
def test_script_runs_clean(argv):
    # the child imports the same quasiprob as this process, installed or not
    src = str(Path(quasiprob.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / argv[0]), *argv[1:]],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert proc.stdout.strip()
