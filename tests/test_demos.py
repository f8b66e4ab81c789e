"""Smoke test: the demos run to completion against the package in src/."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


# 02_bridge_moments.py is left out: its Monte Carlo part takes about 6 s,
# and the moments it shows are checked in tests/test_bridge.py.
@pytest.mark.parametrize(
    "name", ["01_heat_coefficients.py", "03_ford_circles.py", "04_pscc_expansion.py"]
)
def test_demo_runs(name):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
