"""The example scripts run against the package and print one row per case."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script, rows", [("gap_collapse.py", 6), ("decay_sweep.py", 5)])
def test_script_runs(script, rows):
    env = dict(os.environ, PYTHONPATH=str(_ROOT / "src"))
    out = subprocess.run([sys.executable, str(_ROOT / "scripts" / script)],
                         capture_output=True, text=True, env=env)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert len(lines) == 1 + rows, out.stdout  # a header, then one row per case
