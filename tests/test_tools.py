"""The claim rule of ``tools/bench_record.py`` on hand-made runs, and the
inputs of ``tools/artifact_diff.py``."""

import importlib.util
import os

import pytest

from conftest import ONE_WAY_TEXT

_PATH = os.path.join(os.path.dirname(__file__), "..", "tools", "bench_record.py")
_SPEC = importlib.util.spec_from_file_location("bench_record", _PATH)
bench_record = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_record)

#: Ten runs of a parent, whose quartiles are 103 and 107: an IQR of 4.
REV = [100, 102, 103, 103, 104, 106, 107, 107, 108, 110]


def test_spread_gives_the_inclusive_quartiles():
    assert bench_record.spread(REV) == {
        "median": 105.0, "q1": 103.0, "q3": 107.0, "iqr": 4.0, "runs": REV}


def test_nine_pairs_won_past_the_parents_iqr_is_a_gain():
    # the median moves 105 -> 110, past the IQR of 4; the last pair is lost
    tree = [r + 10 for r in REV[:9]] + [REV[9] - 1]
    out = bench_record.paired(REV, tree, "higher")
    assert out["pairs_won"] == 9
    assert out["tree"]["median"] - out["rev"]["median"] > out["rev"]["iqr"]
    assert out["ratio"] == out["tree"]["median"] / 105.0
    assert out["gain"] is True


def test_eight_pairs_won_is_no_gain():
    tree = [r + 10 for r in REV[:8]] + [REV[8] - 1, REV[9] - 1]
    out = bench_record.paired(REV, tree, "higher")
    assert out["pairs_won"] == 8
    assert out["tree"]["median"] - out["rev"]["median"] > out["rev"]["iqr"]
    assert out["gain"] is False


def test_a_median_within_the_parents_iqr_is_no_gain():
    tree = [r + 3 for r in REV]
    out = bench_record.paired(REV, tree, "higher")
    assert out["pairs_won"] == 10
    assert out["gain"] is False


def test_a_tie_counts_for_neither_side():
    tree = [r + 10 for r in REV[:9]] + [REV[9]]
    assert bench_record.paired(REV, tree, "higher")["pairs_won"] == 9
    assert bench_record.paired(REV, tree, "lower")["pairs_won"] == 0
    assert bench_record.paired(REV, REV, "higher")["pairs_won"] == 0
    assert bench_record.paired(REV, REV, "lower")["pairs_won"] == 0


@pytest.mark.parametrize("shift, gain", [(-10, True), (10, False)])
def test_a_lower_metric_flips_the_sign(shift, gain):
    tree = [r + shift for r in REV]
    lower = bench_record.paired(REV, tree, "lower")
    higher = bench_record.paired(REV, tree, "higher")
    assert lower["pairs_won"] == (10 if gain else 0)
    assert higher["pairs_won"] == 10 - lower["pairs_won"]
    assert (lower["gain"], higher["gain"]) == (gain, not gain)


def test_artifact_diff_writes_the_one_way_graph_of_the_tests():
    spec = importlib.util.spec_from_file_location(
        "artifact_diff", os.path.join(os.path.dirname(_PATH), "artifact_diff.py"))
    artifact_diff = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(artifact_diff)
    assert artifact_diff.ONE_WAY_GRAPH.decode("utf-8") == ONE_WAY_TEXT
