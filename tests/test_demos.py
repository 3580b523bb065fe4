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


BOUQUET4 = os.path.join(DEMOS, "graphs", "bouquet4.g")
NONE_REACHED = "no sampled start reached TV 0.25 within the step cap"


@pytest.mark.parametrize("argv, lines", [
    # a 4-state lift, one of whose starts never gets within TV 0.25
    (["--n", "4", "--seed", "4", "--graph", BOUQUET4],
     ["mixing to TV 0.25 over 4 sampled starts: best 2, worst not reached "
      "(predicted center 2.5)",
      "exact TV curve from the worst sampled start (0):",
      "  TV <= 0.25 not reached"]),
    (["--n", "2"],
     ["mixing to TV 0.25 over 4 sampled starts: best 2, worst 2 steps "
      "(predicted center 6.0)",
      "exact TV curve from the worst sampled start (0):",
      "  TV <= 0.25 after    2 steps"]),
    # two copies of bouquet4: no start gets below TV 1/2
    (["--n", "2", "--seed", "4", "--graph", BOUQUET4],
     ["mixing to TV 0.25 over 2 sampled starts: best None, worst not reached "
      "(predicted center 1.3)",
      NONE_REACHED,
      "exact TV curve from the worst sampled start (0):",
      "  TV <= 0.5  after    0 steps"]),
])
def test_lift_mixing_demo_reports_the_starts_it_ran(argv, lines):
    proc = subprocess.run([sys.executable, os.path.join(DEMOS, "demo_lift_mixing.py"),
                           *argv], text=True, capture_output=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": SRC})
    assert proc.returncode == 0, proc.stderr
    out = proc.stdout.splitlines()
    assert [line for line in out if line in lines] == lines
    assert (NONE_REACHED in out) == (NONE_REACHED in lines)
