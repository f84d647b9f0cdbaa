"""The demos that reach TwoFactor, ColoredGraph, the adversary and the
threshold analysis run to completion on this checkout's package."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("name", ["01_model_and_sampler.py",
                                  "02_threshold_analysis.py",
                                  "04_decomposition_oracle.py",
                                  "05_adversary_constructions.py"])
def test_demo_exits_cleanly(name):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / name)],
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
