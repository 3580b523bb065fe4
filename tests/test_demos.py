"""The demos run to completion at small sizes."""

import os
import subprocess
import sys

import pytest

import liftmix

SRC = os.path.dirname(os.path.dirname(os.path.abspath(liftmix.__file__)))
DEMOS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "demos")


#: Stands for theta3 without holding, which the test writes to its tmp_path:
#: a periodic lift, whose worst start's raw TV plateaus above some thresholds
UNLAZY_THETA3 = "{theta3 at alpha 0}"


@pytest.mark.parametrize("argv", [
    ["demo_analysis.py"],
    ["demo_cover_walk.py", "--steps", "60000"],
    ["demo_lift_mixing.py", "--n", "64"],
    ["demo_lift_mixing.py", "--n", "64", "--graph", UNLAZY_THETA3],
])
def test_demo_runs(argv, tmp_path):
    graph = tmp_path / "theta3_unlazy.g"
    with open(os.path.join(DEMOS, "graphs", "theta3.g")) as fh:
        graph.write_text(fh.read().replace("alpha 1/2", "alpha 0"))
    argv = [str(graph) if a == UNLAZY_THETA3 else a for a in argv]
    proc = subprocess.run([sys.executable, os.path.join(DEMOS, argv[0]), *argv[1:]],
                          text=True, capture_output=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": SRC})
    assert proc.returncode == 0, proc.stderr
