"""The demos run to completion at small sizes."""

import os
import subprocess
import sys

import pytest

import liftmix

SRC = os.path.dirname(os.path.dirname(os.path.abspath(liftmix.__file__)))
DEMOS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "demos")


@pytest.mark.parametrize("argv", [
    ["demo_analysis.py"],
    ["demo_cover_walk.py", "--steps", "60000"],
    ["demo_lift_mixing.py", "--n", "64"],
])
def test_demo_runs(argv):
    proc = subprocess.run([sys.executable, os.path.join(DEMOS, argv[0]), *argv[1:]],
                          text=True, capture_output=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": SRC})
    assert proc.returncode == 0, proc.stderr
