"""The demos run against the source tree and exit 0 with every warning
turned into an error, so an API change that breaks one, or a warning one
leaks, fails here. Demo 03 writes into demos/output/, which git ignores."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "demo",
    [
        "01_statistical_kernel.py",
        "02_single_trial_walkthrough.py",
        "03_operating_characteristics.py",
        "04_timing_study.py",
    ],
)
def test_demo_exits_0(demo):
    # a warning a demo leaks (say, log(0) in a boundary closed form) fails it
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONWARNINGS": "error"}
    r = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)], cwd=ROOT, env=env, capture_output=True, text=True
    )
    assert r.returncode == 0, r.stderr
