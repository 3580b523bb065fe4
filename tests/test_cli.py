"""End-to-end CLI tests: exit codes, payloads, artifacts, reproducibility."""

import concurrent.futures
import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import threading
import time

import pytest
from hypothesis import given, settings, strategies as st

import liftmix
from liftmix import (
    AnalysisError,
    __version__,
    confirmed_ray,
    draw_lift,
    lift_to_json,
    mixing_curves,
    parse_graph,
    simulate_walk,
    substream,
)
from liftmix import cli
from liftmix.cli import main

from conftest import ASYM_THETA_TEXT, PERIOD3_TEXT, SYM3_TEXT, THETA3_TEXT, bouquet_text


@pytest.fixture()
def theta3_file(tmp_path):
    path = tmp_path / "theta3.g"
    path.write_text(THETA3_TEXT)
    return str(path)


@pytest.fixture()
def sym3_file(tmp_path):
    path = tmp_path / "sym3.g"
    path.write_text(SYM3_TEXT)
    return str(path)


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    payload = json.loads(captured.out) if code == 0 else None
    return code, payload, captured


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------


def test_exit_0_on_success(capsys, theta3_file):
    code, payload, cap = run_cli(capsys, ["validate", "--graph", theta3_file])
    assert code == 0
    assert payload["valid"] is True
    # exactly one line of JSON on stdout
    assert cap.out.strip().count("\n") == 0


def test_exit_1_on_graph_error(capsys, tmp_path):
    code, _, cap = run_cli(capsys, ["validate", "--graph", str(tmp_path / "no.g")])
    assert code == 1
    assert "error" in cap.err


def test_exit_1_on_an_output_directory_that_cannot_be_made(capsys, tmp_path):
    graph = os.path.join(os.path.dirname(__file__), "..", "demos", "graphs", "theta3.g")
    afile = tmp_path / "afile"
    afile.write_text("")
    calls = (["mix", "--n", "8"], ["cover-sim", "--steps", "1000"], ["lift", "--n", "8"],
             ["sweep", "--n", "8,16", "--seeds", "1"])
    for argv in calls:
        for out, reason in ((str(afile), "File exists"), ("", "No such file or directory")):
            code, _, cap = run_cli(capsys, [argv[0], "--graph", graph, *argv[1:],
                                            "--out", out])
            assert code == 1
            assert cap.err.startswith(
                f"liftmix: error: cannot create output directory {out!r}: ")
            assert reason in cap.err
            assert cap.err.count("\n") == 1 and "Traceback" not in cap.err


def test_exit_1_on_parse_error(capsys, tmp_path):
    path = tmp_path / "bad.g"
    path.write_text("graph\nalpha 1/2\n")
    code, _, cap = run_cli(capsys, ["validate", "--graph", str(path)])
    assert code == 1


def test_exit_1_on_a_graph_file_that_is_not_utf8(capsys, tmp_path):
    path = tmp_path / "bytes.g"
    path.write_bytes(b"\x00\xff\xfe")
    code, _, cap = run_cli(capsys, ["validate", "--graph", str(path)])
    assert code == 1
    assert cap.err.startswith(f"liftmix: error: cannot read graph file {str(path)!r}: "
                              "'utf-8' codec can't decode byte 0xff")
    assert cap.err.count("\n") == 1


@pytest.mark.parametrize("argv, line", [
    (["mix", "--n", "8", "--seed", "-1"], "seed must be a non-negative integer, got -1"),
    (["cover-sim", "--steps", "1000", "--seed", "-1"],
     "seed must be a non-negative integer, got -1"),
    (["lift", "--n", "8", "--seed", "-1"], "seed must be a non-negative integer, got -1"),
    (["spectrum", "--n", "8", "--seed", "-1"], "seed must be a non-negative integer, got -1"),
    (["sweep", "--n", "8,16", "--seeds", "1", "--master-seed", "-1"],
     "seed must be a non-negative integer, got -1"),
    (["mix", "--n", "-3"], "lift degree must be >= 1, got -3"),
    (["spectrum", "--n", "-3"], "lift degree must be >= 1, got -3"),
])
def test_a_negative_seed_or_degree_gives_one_error_line(capsys, theta3_file, tmp_path,
                                                        argv, line):
    out = [] if argv[0] == "spectrum" else ["--out", str(tmp_path)]
    code, _, cap = run_cli(capsys, [argv[0], "--graph", theta3_file, *argv[1:], *out])
    assert code == 1
    assert [l for l in cap.err.splitlines() if l.startswith("liftmix")] == [
        f"liftmix: error: {line}"]
    assert "Traceback" not in cap.err


@pytest.mark.parametrize("argv", [
    ["mix", "--n", "8", "--seed", "-1"],
    ["mix", "--n", "-3"],
    ["mix", "--n", "8", "--starts", "bogus"],
    ["cover-sim", "--steps", "1000", "--seed", "-1"],
    ["cover-sim", "--steps", "100"],
    ["cover-sim", "--steps", "100", "--trials", "2"],
    ["cover-sim", "--steps", "100", "--trials", "2", "--workers", "2"],
    ["cover-sim", "--margin", "-1"],
    ["lift", "--n", "8", "--seed", "-1"],
    ["lift", "--n", "-3"],
    ["sweep", "--n", "8,16", "--seeds", "1", "--master-seed", "-1"],
    ["sweep", "--n", "8,16", "--seeds", "0"],
], ids=" ".join)
def test_a_refused_call_leaves_no_output_directory(capsys, theta3_file, tmp_path,
                                                   argv):
    # refused on its seed or degree, on its start policy or seed count, on a
    # negative margin, or with a trajectory too short for any ray level, also
    # in the read of a pipelined trial or in a pool process; an empty
    # directory that was there before is kept, and no helper thread is left
    threads = threading.active_count()
    empty = tmp_path / "empty"
    empty.mkdir()
    for out in (tmp_path / "a" / "b", empty):
        code, _, cap = run_cli(capsys, [argv[0], "--graph", theta3_file, *argv[1:],
                                        "--out", str(out)])
        assert code == 1 and cap.err.count("liftmix: error: ") == 1
    assert not (tmp_path / "a").exists() and empty.is_dir()
    assert threading.active_count() == threads


def _error_lines(cap):
    return [l for l in cap.err.splitlines() if l.startswith("liftmix")]


def test_cover_sim_refuses_a_negative_margin_before_any_walk(capsys, theta3_file,
                                                             monkeypatch):
    monkeypatch.setattr(cli, "_walk_codes", None)
    code, _, cap = run_cli(capsys, ["cover-sim", "--graph", theta3_file, "--margin", "-1"])
    assert code == 1
    assert _error_lines(cap) == ["liftmix: error: margin must be nonnegative"]


def test_a_pipelined_cover_sim_gives_the_error_of_its_first_refused_trial(
        capsys, theta3_file, tmp_path):
    # each 100-step trial is too short for a ray level: trial 0's read fails
    # while trial 1 walks, and its error line, not trial 1's, is the one given
    g = parse_graph(THETA3_TEXT)
    lines = []
    for trial in (0, 1):
        traj = simulate_walk(g, "u", 100, rng=substream(0, "cover-walk", trial))
        with pytest.raises(AnalysisError) as exc:
            confirmed_ray(traj)
        lines.append(f"liftmix: error: {exc.value}")
    assert lines[0] != lines[1]
    for workers in ("1", "2"):
        code, _, cap = run_cli(capsys, [
            "cover-sim", "--graph", theta3_file, "--steps", "100", "--trials", "2",
            "--workers", workers, "--out", str(tmp_path)])
        assert code == 1 and _error_lines(cap) == lines[:1]


def test_cover_sim_reads_each_walk_on_a_helper_thread_before_the_next_finish(
        capsys, theta3_file, tmp_path, monkeypatch):
    # trial i's read runs on a helper thread while trial i + 1 walks, and is
    # joined before trial i + 1's finish stage makes its trajectory
    caller = threading.get_ident()
    events = []
    finish, read = cli._trajectory, cli._read_walk

    def traced_finish(*args):
        events.append(("finish", threading.get_ident() == caller))
        return finish(*args)

    def traced_read(*args):
        result = read(*args)
        time.sleep(0.05)  # so that the next walk ends first
        events.append(("read", threading.get_ident() == caller))
        return result

    monkeypatch.setattr(cli, "_trajectory", traced_finish)
    monkeypatch.setattr(cli, "_read_walk", traced_read)
    threads = threading.active_count()
    code, _, _ = run_cli(capsys, ["cover-sim", "--graph", theta3_file, "--steps", "8000",
                                  "--trials", "3", "--seed", "3", "--out", str(tmp_path)])
    assert code == 0
    assert events == [("finish", True), ("read", False)] * 3
    assert threading.active_count() == threads


@pytest.mark.parametrize("steps", [8000, 100])
def test_a_pipelined_cover_sim_reports_its_trials_in_order(capsys, theta3_file,
                                                           tmp_path, monkeypatch, steps):
    # trial 1's walk fails while trial 0 is read: trial 0's read, which
    # succeeds with 8000 steps and fails with 100, is reported first
    walk = cli._walk_codes
    walks = []

    def failing_walk(*args):
        walks.append(args)
        if len(walks) == 2:
            raise AnalysisError("trial 1's walk failed")
        return walk(*args)

    monkeypatch.setattr(cli, "_walk_codes", failing_walk)
    argv = ["cover-sim", "--graph", theta3_file, "--steps", str(steps), "--trials", "3",
            "--seed", "3", "--out", str(tmp_path)]
    threads = threading.active_count()
    code, _, cap = run_cli(capsys, argv)
    assert code == 1 and len(walks) == 2
    if steps == 8000:
        assert "trial 1/3 done" in cap.err
        assert _error_lines(cap) == ["liftmix: error: trial 1's walk failed"]
    else:
        assert "done" not in cap.err
        [line] = _error_lines(cap)
        assert line.startswith("liftmix: error: trajectory too short")
    assert threading.active_count() == threads


#: A size no host can hold: a walk of 2**61 one-byte steps is past every
#: 57-bit address space, and an int64 permutation of 2**61 entries past the
#: 64-bit one, so each call fails at once, before anything is allocated.
HUGE = str(2**61)
TOO_LARGE = (f"lift degree {HUGE} is too large: a permutation of that many int64 "
             "entries cannot be addressed")


@pytest.mark.parametrize("argv, line", [
    (["cover-sim", "--steps", HUGE], "Unable to allocate "),
    (["mix", "--n", HUGE], TOO_LARGE),
    (["lift", "--n", HUGE], TOO_LARGE),
    (["spectrum", "--n", HUGE], TOO_LARGE),
    (["cover-sim", "--steps", "3000", "--margin", "0", "--r-max", HUGE],
     "r_max must be at most the step count 3000, the walk's greatest height"),
], ids=["cover-sim-steps", "mix-n", "lift-n", "spectrum-n", "cover-sim-r-max"])
def test_a_size_no_array_can_hold_gives_one_error_line(capsys, theta3_file, tmp_path,
                                                      argv, line):
    # unchecked, the walk's np.zeros fails with a MemoryError, and
    # rng.permutation and np.bincount with "array is too big"
    out = [] if argv[0] == "spectrum" else ["--out", str(tmp_path / "out")]
    code, _, cap = run_cli(capsys, [argv[0], "--graph", theta3_file, *argv[1:], *out])
    assert code == 1
    errors = [l for l in cap.err.splitlines() if l.startswith("liftmix")]
    assert len(errors) == 1 and errors[0].startswith(f"liftmix: error: {line}")
    assert "Traceback" not in cap.err
    assert not (tmp_path / "out").exists()


GRAPH_TEXTS = (THETA3_TEXT, ASYM_THETA_TEXT, SYM3_TEXT, bouquet_text(4, "1/2"))


@st.composite
def graph_files(draw):
    """The bytes of a graph file: a valid graph, a truncated one, or random
    bytes."""
    kind = draw(st.sampled_from(["valid", "valid", "truncated", "bytes"]))
    if kind == "bytes":
        return draw(st.binary(max_size=64))
    text = draw(st.sampled_from(GRAPH_TEXTS)).encode()
    return text if kind == "valid" else text[:draw(st.integers(0, len(text)))]


LIFT_JSON = lift_to_json(draw_lift(parse_graph(THETA3_TEXT), 4, 0)).encode()


@st.composite
def lift_files(draw):
    """The bytes of a lift file: a theta3 lift's JSON, whole or cut short,
    or random bytes."""
    if draw(st.booleans()):
        return draw(st.binary(max_size=64))
    return LIFT_JSON[:draw(st.integers(0, len(LIFT_JSON)))]


@st.composite
def command_lines(draw):
    """A subcommand and its options, negative and non-integer values
    included, each drawn small: ``--n`` at most 64, ``--steps`` at most
    5,000, ``--trials`` at most 2 and ``--workers`` 1 or 2.  ``lift
    --verify`` names the drawn lift file as ``{lift}``."""
    ints = st.integers
    seed = ints(-2, 2**70)
    degree = ints(-3, 64)
    alpha = st.sampled_from(["0", "0.5", "-0.5", "1", "1.5", "nan", "inf"])
    eps = st.sampled_from(["0.25", "0.5,0.1", "1.5", "0", "-1,0.5", "x", ","])
    starts = st.sampled_from(["all", "sample:2", "sample:0", "sample:-1", "sample:1.5",
                              "none"])
    workers = st.sampled_from([1, 2])
    command = draw(st.sampled_from(["validate", "analyze", "cover-sim", "lift", "mix",
                                    "sweep", "spectrum"]))
    options = {
        "validate": {},
        "analyze": {"alpha": alpha, "max-iter": ints(-1, 50)},
        "cover-sim": {"alpha": alpha, "steps": ints(-2, 5000), "trials": ints(-1, 2),
                      "seed": seed, "margin": ints(-2, 30), "r-max": ints(-2, 12),
                      "root": st.sampled_from(["u", "v", "o", "zz"]),
                      "e-star": st.sampled_from(["e1+", "e2-", "l1+", "zz"]),
                      "workers": workers},
        "lift": {"n": degree, "seed": seed, "verify": st.just("{lift}")},
        "mix": {"n": degree, "seed": seed, "alpha": alpha, "eps": eps,
                "starts": starts, "t-cap": ints(-1, 200)},
        "sweep": {"n": st.sampled_from(["8,16", "4,8,16", "16,8", "8", "-3,8", "0,8",
                                        "8,1.5", "x"]),
                  "alpha": alpha, "eps": eps, "seeds": ints(-1, 2), "master-seed": seed,
                  "starts": starts, "t-cap": ints(-1, 200), "workers": workers},
        "spectrum": {"n": degree, "seed": seed, "alpha": alpha},
    }[command]
    # argparse requires --n, and mix would step a disconnected lift to its
    # default cap of 10,000 steps
    always = {"mix": ("n", "t-cap"), "sweep": ("n",), "spectrum": ("n",)}.get(command, ())
    argv = [command]
    for name, values in options.items():
        value = draw(values if name in always else st.none() | values)
        if value is not None:
            argv.append(f"--{name}={value}")
    return argv


@settings(max_examples=60, deadline=None)
@given(command_lines(), graph_files(), lift_files())
def test_every_input_ends_in_an_exit_code_and_no_traceback(argv, data, lift_data):
    with tempfile.TemporaryDirectory() as tmp:
        graph = os.path.join(tmp, "g.g")
        with open(graph, "wb") as fh:
            fh.write(data)
        lift = os.path.join(tmp, "lift.json")
        with open(lift, "wb") as fh:
            fh.write(lift_data)
        argv = [a.replace("{lift}", lift) for a in argv]
        out = [] if argv[0] in ("validate", "analyze", "spectrum") else [
            f"--out={os.path.join(tmp, 'out')}"]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([*argv, f"--graph={graph}", *out])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()


def test_exit_1_on_recurrent_analyze(capsys, sym3_file):
    # the analyzer refuses graphs whose cover walk is recurrent, before
    # ever running the solver
    code, _, cap = run_cli(capsys, ["analyze", "--graph", sym3_file])
    assert code == 1
    assert "recurrent" in cap.err


def test_exit_2_on_nonconvergence(capsys, theta3_file):
    code, _, cap = run_cli(
        capsys, ["analyze", "--graph", theta3_file, "--max-iter", "3"]
    )
    assert code == 2
    assert "non-convergence" in cap.err


def test_exit_3_on_usage_errors(capsys, theta3_file):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 3
    with pytest.raises(SystemExit) as exc:
        main(["analyze"])  # --graph is required
    assert exc.value.code == 3
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate", "--graph", theta3_file])
    assert exc.value.code == 3


def test_no_option_is_taken_by_a_prefix(capsys, theta3_file):
    # sweep has --seeds and --master-seed; --seed ran --seeds 1 at master seed 0
    for prefix, argv in (
            ("--seed", ["sweep", "--graph", theta3_file, "--n", "8,16", "--seed", "1"]),
            ("--max", ["analyze", "--graph", theta3_file, "--max", "9"]),
            ("--vers", ["--vers"])):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 3
        assert f"unrecognized arguments: {prefix}" in capsys.readouterr().err


def test_public_names_are_the_imports_of_the_package():
    assert liftmix.__all__ == [
        "AnalysisError", "GraphError", "NonConvergenceError",
        "AssumptionReport", "CoreDecomposition", "Edge", "StationaryDistribution",
        "TransienceVerdict", "WeightedMultigraph", "build_graph",
        "check_assumptions", "core", "holding_probability", "is_cover_transient",
        "parse_graph", "stationary_distribution", "transition_matrix",
        "validate_graph",
        "EntropyReport", "FirstPassageSolution", "MixingPrediction", "RayLaw",
        "WeightEntropy", "entropy", "predict_mixing_time", "ray_law",
        "solve_first_passage", "speed", "weight_entropy",
        "CoverTrajectory", "CoverVertex", "ExcursionStats", "LevelWeightCheck",
        "LocalizationProfile", "confirmed_ray", "cover_moves",
        "estimate_clt_params", "estimate_speed", "excursion_decomposition",
        "level_weight_check", "log_entropic_weight", "log_weight_trace",
        "ray_localization_profile", "renewal_edge", "simulate_walk",
        "Lift", "apply_kernel", "draw_lift", "generate_uniform_lift",
        "lift_from_json", "lift_stationary", "lift_to_json",
        "lift_transition_matrix", "project_distribution",
        "spectrum_inheritance_check",
        "SweepResult", "TVCurve", "cutoff_sweep", "mixing_curves",
        "projection_identity_check",
        "substream", "__version__",
    ]
    assert all(hasattr(liftmix, name) for name in liftmix.__all__)


def test_cli_import_loads_no_scipy():
    # numpy is the only dependency; scipy would add most of the start-up
    src = os.path.dirname(os.path.dirname(os.path.abspath(liftmix.__file__)))
    probe = ("import sys, liftmix.cli; "
             "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])")
    out = subprocess.run([sys.executable, "-c", probe], check=True, text=True,
                         capture_output=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "[]"


def test_cli_import_loads_no_executor():
    # the pools are imported by the calls that start them, so commands that
    # never propagate do not pay for concurrent.futures or multiprocessing
    src = os.path.dirname(os.path.dirname(os.path.abspath(liftmix.__file__)))
    probe = ("import sys, liftmix.cli; print([m for m in sys.modules "
             "if m.split('.')[0] in ('concurrent', 'multiprocessing')])")
    out = subprocess.run([sys.executable, "-c", probe], check=True, text=True,
                         capture_output=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "[]"


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert __version__ in capsys.readouterr().out


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------


def test_validate_payload(capsys, theta3_file):
    code, payload, _ = run_cli(capsys, ["validate", "--graph", theta3_file])
    assert code == 0
    assert payload["vertices"] == 2
    assert payload["edges"] == 3
    assert payload["alpha"] == 0.5
    assert payload["irreducible"] is True
    assert payload["two_escape_routes"] is True
    assert payload["all_orientations_positive"] is True
    assert payload["no_dead_orientations"] is True
    assert payload["every_edge_escapes"] is True
    assert payload["period"] == 2
    assert payload["witness_cycles"] == [["e1+", "e2-"], ["e1+", "e3-"]]
    assert payload["cover_transient"] is True
    g = parse_graph(THETA3_TEXT)
    assert payload["meta"]["graph_digest"] == g.digest()
    assert payload["meta"]["library_version"] == __version__


def test_validate_recurrent_graph_still_succeeds(capsys, sym3_file):
    code, payload, _ = run_cli(capsys, ["validate", "--graph", sym3_file])
    assert code == 0
    assert payload["cover_transient"] is False
    assert payload["transience_reason"]


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------


def test_analyze_payload_theta3(capsys, theta3_file):
    code, payload, _ = run_cli(capsys, ["analyze", "--graph", theta3_file])
    assert code == 0
    assert list(payload) == [
        "q", "w_hat", "pi_hat", "h_W", "s0", "h_alpha", "a_frac",
        "degenerate", "residuals", "iterations", "alpha", "s_alpha",
        "removed_vertices", "meta",
    ]
    assert set(payload["q"]) == {"e1+", "e1-", "e2+", "e2-", "e3+", "e3-"}
    for value in payload["q"].values():
        assert value == pytest.approx(0.5, abs=1e-9)
    for value in payload["w_hat"].values():
        assert value == pytest.approx(1.0 / 3.0, abs=1e-9)
    for value in payload["pi_hat"].values():
        assert value == pytest.approx(1.0 / 6.0, abs=1e-9)
    assert payload["h_W"] == pytest.approx(math.log(2), abs=1e-9)
    assert payload["s0"] == pytest.approx(1.0 / 3.0, abs=1e-9)
    assert payload["h_alpha"] == pytest.approx(math.log(2) / 6.0, abs=1e-9)
    assert payload["s_alpha"] == pytest.approx(1.0 / 6.0, abs=1e-9)
    assert payload["a_frac"] == 1.0
    assert payload["degenerate"] is False
    assert payload["residuals"]["first_passage"] <= 1e-12
    assert payload["residuals"]["ray_stationarity"] <= 1e-10
    assert payload["removed_vertices"] == []
    assert payload["alpha"] == 0.5


def test_analyze_alpha_override(capsys, theta3_file):
    code, payload, _ = run_cli(
        capsys, ["analyze", "--graph", theta3_file, "--alpha", "0"]
    )
    assert code == 0
    assert payload["alpha"] == 0.0
    assert payload["h_alpha"] == pytest.approx(math.log(2) / 3.0, abs=1e-9)
    assert payload["s_alpha"] == pytest.approx(1.0 / 3.0, abs=1e-9)


# ---------------------------------------------------------------------------
# cover-sim
# ---------------------------------------------------------------------------


def test_cover_sim_smoke_and_artifacts(capsys, theta3_file, tmp_path):
    out = tmp_path / "run1"
    code, payload, _ = run_cli(capsys, [
        "cover-sim", "--graph", theta3_file, "--steps", "20000",
        "--trials", "2", "--seed", "7", "--per-trial", "--out", str(out),
    ])
    assert code == 0
    assert payload["trials"] == 2
    assert payload["n_excursions"] > 100
    assert payload["h_analytic"] == pytest.approx(math.log(2) / 6.0, abs=1e-9)
    # crude 5-sigma agreement test; tight bands live in the acceptance suite
    assert abs(payload["h_est"] - payload["h_analytic"]) <= 5 * payload["se_h"]
    assert abs(payload["speed_est"] - payload["speed_analytic"]) <= 5 * payload["se_speed"]
    tail = payload["localization_profile"]["tail"]
    assert set(tail) == {str(r) for r in range(11)}
    values = [tail[str(r)] for r in range(11)]
    assert all(0.0 <= v <= 1.0 for v in values)
    assert all(a >= b - 1e-15 for a, b in zip(values, values[1:]))
    assert payload["artifacts"] == ["per_trial.csv"]

    csv_path = out / "per_trial.csv"
    lines = csv_path.read_text().splitlines()
    meta_lines = [ln for ln in lines if ln.startswith("# ")]
    assert any(ln.startswith("# config_digest: ") for ln in meta_lines)
    assert any(ln.startswith("# graph_digest: ") for ln in meta_lines)
    header_idx = len(meta_lines)
    assert lines[header_idx] == (
        "trial,n_excursions,sum_duration,sum_log_weight,sum_levels,final_height"
    )
    assert len(lines) == header_idx + 1 + 2  # header + one row per trial

    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "cover-sim"
    assert list(manifest) == [
        "command", "config", "config_digest", "library_version",
        "graph_digest", "artifacts", "timing",
    ]
    digest = hashlib.sha256(csv_path.read_bytes()).hexdigest()
    assert manifest["artifacts"]["per_trial.csv"] == digest
    # no leftover temp files from the atomic writes
    assert not [p for p in os.listdir(out) if p.startswith(".tmp-")]


def test_cover_sim_reproducible_across_runs_and_workers(capsys, theta3_file, tmp_path):
    args = ["cover-sim", "--graph", theta3_file, "--steps", "8000",
            "--trials", "2", "--seed", "3", "--per-trial"]
    outs = []
    for name, extra in (("a", []), ("b", []), ("c", ["--workers", "2"])):
        out = tmp_path / name
        code, payload, _ = run_cli(capsys, args + ["--out", str(out)] + extra)
        assert code == 0
        outs.append((out, payload))
    ref = (outs[0][0] / "per_trial.csv").read_bytes()
    for out, payload in outs[1:]:
        assert (out / "per_trial.csv").read_bytes() == ref
        assert payload["h_est"] == outs[0][1]["h_est"]


def test_cover_sim_bad_root_and_edge(capsys, theta3_file):
    code, _, cap = run_cli(capsys, [
        "cover-sim", "--graph", theta3_file, "--steps", "5000",
        "--root", "zz",
    ])
    assert code == 1
    code, _, cap = run_cli(capsys, [
        "cover-sim", "--graph", theta3_file, "--steps", "5000",
        "--e-star", "e9+",
    ])
    assert code == 1


def test_cover_sim_margin_zero_confirms_up_to_the_final_height(capsys, theta3_file,
                                                              tmp_path):
    # Levels the walk may still drop back through are not confirmed: with no
    # margin the ray ends at the final height, which for trial 0 of seed 0
    # lies below the maximum height.
    g = parse_graph(THETA3_TEXT)
    traj = simulate_walk(g, "u", 3000, rng=substream(0, "cover-walk", 0))
    assert traj.heights[-1] < traj.max_height
    args = ["cover-sim", "--graph", theta3_file, "--steps", "3000", "--trials", "2",
            "--seed", "0", "--per-trial", "--out", str(tmp_path / "m0")]
    code, payload, cap = run_cli(capsys, args + ["--margin", "0"])
    assert code == 0, cap.err
    assert payload["n_excursions"] > 100
    code, _, cap = run_cli(capsys, args + ["--margin", "-1"])
    assert code == 1
    assert "margin must be nonnegative" in cap.err


@pytest.mark.parametrize("flag, value, message", [
    ("--trials", "0", "trials must be at least 1"),
    ("--trials", "-2", "trials must be at least 1"),
    ("--r-max", "-1", "r_max must be nonnegative"),
])
def test_cover_sim_rejects_empty_runs(capsys, theta3_file, tmp_path, flag, value,
                                      message):
    code, _, cap = run_cli(capsys, [
        "cover-sim", "--graph", theta3_file, "--steps", "5000",
        flag, value, "--out", str(tmp_path / "x"),
    ])
    assert code == 1
    assert cap.err.startswith(f"liftmix: error: {message}")
    assert "Traceback" not in cap.err


# ---------------------------------------------------------------------------
# lift generate / verify
# ---------------------------------------------------------------------------


def test_lift_generate_verify_roundtrip(capsys, theta3_file, tmp_path):
    out = tmp_path / "lift-out"
    code, payload, _ = run_cli(capsys, [
        "lift", "--graph", theta3_file, "--n", "6", "--seed", "2",
        "--out", str(out),
    ])
    assert code == 0
    lift_path = out / "lift.json"
    assert payload["written"] == str(lift_path)
    assert payload["n"] == 6
    on_disk = json.loads(lift_path.read_text())
    assert on_disk["n"] == 6
    assert set(on_disk["permutations"]) == {"e1", "e2", "e3"}
    for perm in on_disk["permutations"].values():
        assert sorted(perm) == list(range(1, 7))  # 1-based fibers

    code, verified, _ = run_cli(capsys, [
        "lift", "--graph", theta3_file, "--verify", str(lift_path),
    ])
    assert code == 0
    assert verified["verified"] is True
    assert verified["n"] == 6


def test_lift_verify_rejects_wrong_base(capsys, theta3_file, tmp_path):
    out = tmp_path / "lift-out"
    run_cli(capsys, ["lift", "--graph", theta3_file, "--n", "4",
                     "--out", str(out)])
    other = tmp_path / "asym.g"
    other.write_text(ASYM_THETA_TEXT)
    code, _, cap = run_cli(capsys, [
        "lift", "--graph", str(other), "--verify", str(out / "lift.json"),
    ])
    assert code == 1
    assert "digest" in cap.err or "hash" in cap.err


def test_lift_verify_rejects_tampered_file(capsys, theta3_file, tmp_path):
    out = tmp_path / "lift-out"
    run_cli(capsys, ["lift", "--graph", theta3_file, "--n", "4",
                     "--out", str(out)])
    path = out / "lift.json"
    doc = json.loads(path.read_text())
    doc["permutations"]["e1"][0] = doc["permutations"]["e1"][1]
    path.write_text(json.dumps(doc))
    code, _, _ = run_cli(capsys, [
        "lift", "--graph", theta3_file, "--verify", str(path),
    ])
    assert code == 1


def _set(key, value):
    def edit(doc):
        doc[key] = value
        return doc
    return edit


def _set_perm(eid, value):
    def edit(doc):
        doc["permutations"][eid] = value
        return doc
    return edit


@pytest.mark.parametrize("edit", [
    _set_perm("e1", [1.7, 2.7, 3.7]),
    _set_perm("e1", ["1", "2", "3"]),
    _set_perm("e1", [True, 2, 3]),
    _set_perm("e1", 123),
    _set_perm("zz", [1, 2, 3]),
    _set("n", 3.9),
    _set("n", "3"),
    _set("n", None),
    _set("n", True),
    _set("seed", "2"),
    _set("base_hash", 7),
    _set("permutations", [[1, 2, 3]] * 3),
    lambda doc: 3,
], ids=["float-entries", "string-entries", "bool-entry", "number-perm",
        "unknown-edge", "float-n", "string-n", "null-n", "bool-n",
        "string-seed", "number-hash", "perm-list", "bare-number"])
def test_lift_verify_rejects_malformed_values(capsys, theta3_file, tmp_path, edit):
    out = tmp_path / "lift-out"
    run_cli(capsys, ["lift", "--graph", theta3_file, "--n", "3",
                     "--out", str(out)])
    path = out / "lift.json"
    path.write_text(json.dumps(edit(json.loads(path.read_text()))))
    code, _, cap = run_cli(capsys, [
        "lift", "--graph", theta3_file, "--verify", str(path),
    ])
    assert code == 1
    assert cap.err.startswith("liftmix: error: lift JSON")


@pytest.mark.parametrize("data, line", [
    (b"\x00\xff\xfe", "cannot read lift file {path!r}: 'utf-8' codec can't decode byte 0xff"),
    (b"[" * 200_000, "invalid lift JSON: maximum recursion depth exceeded"),
    (b'{"n": ' + b"1" * 5000 + b"}", "invalid lift JSON: Exceeds the limit"),
], ids=["not-utf8", "deeply-nested", "long-integer"])
def test_lift_verify_gives_one_error_line_on_unreadable_json(capsys, theta3_file,
                                                             tmp_path, data, line):
    path = tmp_path / "lift.json"
    path.write_bytes(data)
    code, _, cap = run_cli(capsys, ["lift", "--graph", theta3_file,
                                    "--verify", str(path)])
    assert code == 1
    assert cap.err.startswith(f"liftmix: error: {line.format(path=str(path))}")
    assert cap.err.count("\n") == 1


def test_lift_requires_n_or_verify(capsys, theta3_file):
    code, _, cap = run_cli(capsys, ["lift", "--graph", theta3_file])
    assert code == 1
    assert "--n" in cap.err


# ---------------------------------------------------------------------------
# mix
# ---------------------------------------------------------------------------


def test_mix_artifacts_and_summary(capsys, theta3_file, tmp_path):
    out = tmp_path / "mix-out"
    code, payload, _ = run_cli(capsys, [
        "mix", "--graph", theta3_file, "--n", "8", "--seed", "1",
        "--starts", "all", "--out", str(out),
    ])
    assert code == 0
    assert payload["artifacts"] == ["curve.csv", "summary.json"]
    summary = json.loads((out / "summary.json").read_text())
    assert summary["eps_primary"] == 0.25
    assert summary["exhaustive"] is True
    assert len(summary["per_start"]) == 16
    assert summary["periodic"] is False
    assert summary["averaged_crossings"] is None
    worst = summary["worst_crossings"]
    assert worst["0.9"] <= worst["0.5"] <= worst["0.25"] <= worst["0.1"]
    # the worst start attains the reported primary crossing
    per = summary["per_start"][str(summary["worst_start"])]
    assert per["0.25"] == worst["0.25"]
    assert max(row["0.25"] for row in summary["per_start"].values()) == worst["0.25"]

    lines = (out / "curve.csv").read_text().splitlines()
    data = [ln for ln in lines if not ln.startswith("#")]
    assert data[0] == "t,tv"
    tv = [float(ln.split(",")[1]) for ln in data[1:]]
    assert tv[0] == pytest.approx(1.0 - 1.0 / 16.0, abs=1e-12)
    assert all(a >= b - 1e-12 for a, b in zip(tv, tv[1:]))

    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["artifacts"] == {
        name: hashlib.sha256((out / name).read_bytes()).hexdigest()
        for name in ("curve.csv", "summary.json")
    }
    code, _, _ = run_cli(capsys, ["lift", "--graph", theta3_file, "--n", "8",
                                  "--seed", "1", "--out", str(out / "lift")])
    assert code == 0
    manifest = json.loads((out / "lift" / "manifest.json").read_text())
    assert manifest["artifacts"] == {
        "lift.json": hashlib.sha256((out / "lift" / "lift.json").read_bytes()).hexdigest()}


def test_mix_periodic_writes_averaged_curve(capsys, theta3_file, tmp_path):
    out = tmp_path / "mix-p"
    code, payload, _ = run_cli(capsys, [
        "mix", "--graph", theta3_file, "--n", "8", "--alpha", "0",
        "--starts", "sample:4", "--out", str(out),
    ])
    assert code == 0
    assert payload["periodic"] is True
    assert payload["artifacts"] == ["curve.csv", "curve_averaged.csv", "summary.json"]
    summary = json.loads((out / "summary.json").read_text())
    assert summary["exhaustive"] is False
    assert len(summary["per_start"]) == 4
    assert summary["averaged_crossings"] is not None


def test_mix_periodic_per_start_reads_the_averaged_curves(capsys, theta3_file,
                                                         tmp_path):
    # per_start held the raw crossings, null at 0.25 for every start
    out = tmp_path / "mix-p8"
    code, _, _ = run_cli(capsys, [
        "mix", "--graph", theta3_file, "--n", "8", "--alpha", "0", "--out", str(out),
    ])
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    lift = draw_lift(parse_graph(THETA3_TEXT), 8, 0)
    for s in range(lift.n_states):
        averaged = mixing_curves(lift, [s], alpha=0.0, eps_list=(0.25, 0.1, 0.5, 0.9))[0]
        assert summary["per_start"][str(s)] == {
            repr(eps): t for eps, t in averaged.averaged.crossings.items()}
    worst = summary["per_start"][str(summary["worst_start"])]["0.25"]
    assert worst == max(row["0.25"] for row in summary["per_start"].values()) == 11


def test_mix_periodic_stops_and_ranks_on_averaged_curve(capsys, theta3_file, tmp_path):
    out = tmp_path / "mix-p64"
    code, payload, _ = run_cli(capsys, [
        "mix", "--graph", theta3_file, "--n", "64", "--alpha", "0",
        "--seed", "0", "--out", str(out),
    ])
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    # the raw TV of the bipartite lift plateaus at 1/2 and never crosses
    # 0.1 or 0.25, so the starts rank by the averaged curve, ...
    assert summary["periodic"] is True
    assert summary["worst_start"] == 3
    assert summary["worst_crossings"]["0.25"] is None
    assert summary["averaged_crossings"] == {"0.25": 27, "0.1": 42, "0.5": 15, "0.9": 4}
    lift = draw_lift(parse_graph(THETA3_TEXT), 64, 0)
    averaged = [mixing_curves(lift, [s], alpha=0.0)[0].averaged.crossings[0.25]
                for s in range(lift.n_states)]
    assert max(averaged) == 27 and averaged.index(27) == 3
    # ... and each curve stops once the averaged curve crosses min(eps)
    for name in ("curve.csv", "curve_averaged.csv"):
        rows = [ln for ln in (out / name).read_text().splitlines()
                if not ln.startswith("#")]
        assert len(rows) == 1 + 43  # header, then t = 0 .. 42


def test_mix_bad_eps_list(capsys, theta3_file, tmp_path):
    code, _, _ = run_cli(capsys, [
        "mix", "--graph", theta3_file, "--n", "4", "--eps", "1.5",
        "--out", str(tmp_path / "x"),
    ])
    assert code == 1


#: The rest of each command line that is given a bad --alpha.
BAD_ALPHA_ARGS = {
    "mix": ["--n", "8", "--t-cap", "0"],
    "cover-sim": ["--steps", "1000"],
    "sweep": ["--n", "8,16", "--seeds", "1"],
    "spectrum": ["--n", "8"],
}


@pytest.mark.parametrize("command, alpha", [
    pytest.param(command, alpha, id=alpha if command == "mix" else f"{command}-{alpha}")
    for command in BAD_ALPHA_ARGS for alpha in ("1.5", "-0.5")
])
def test_mix_rejects_a_bad_holding_probability_without_a_step(capsys, theta3_file,
                                                              tmp_path, command,
                                                              alpha):
    # mix at --t-cap 0 runs no kernel step, which was the only check: 1.5
    # wrote artifacts, and -0.5 reported a periodic lift
    out = tmp_path / "x"
    argv = [command, "--graph", theta3_file, "--alpha", alpha, *BAD_ALPHA_ARGS[command]]
    if command != "spectrum":  # the one command that writes no artifact
        argv += ["--out", str(out)]
    code, _, cap = run_cli(capsys, argv)
    assert code == 1
    assert cap.err == (
        f"liftmix: error: holding probability must lie in [0, 1), got {float(alpha)}\n")
    assert not out.exists() or not any(out.iterdir())


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def test_sweep_artifacts_identical_across_workers(capsys, theta3_file, tmp_path):
    results = {}
    for workers in (1, 2):
        out = tmp_path / f"sweep-w{workers}"
        code, payload, _ = run_cli(capsys, [
            "sweep", "--graph", theta3_file, "--n", "32,64", "--seeds", "2",
            "--master-seed", "5", "--starts", "sample:3",
            "--workers", str(workers), "--out", str(out),
        ])
        assert code == 0
        results[workers] = (out, payload)
    out1, p1 = results[1]
    out2, p2 = results[2]
    assert (out1 / "results.csv").read_bytes() == (out2 / "results.csv").read_bytes()
    assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()
    assert p1["slope"] == p2["slope"]

    summary = json.loads((out1 / "summary.json").read_text())
    assert summary["eps_primary"] == 0.25
    assert summary["predicted"] == pytest.approx(6.0 / math.log(2), abs=1e-9)
    assert summary["window"]["nonincreasing_seeds"] == 2
    assert summary["t_caps"] == {"32": 96, "64": 110}
    lines = (out1 / "results.csv").read_text().splitlines()
    data = [ln for ln in lines if not ln.startswith("#")]
    assert data[0] == "n,seed,start,eps,t_mix,reached"
    assert len(data) == 1 + 2 * 2 * 3 * 4  # (n, seed, start, eps) rows


@pytest.mark.parametrize("alpha", [[], ["--alpha", "0"]], ids=["own-alpha", "alpha-0"])
def test_mix_is_the_sweep_cell_of_its_seed(capsys, theta3_file, tmp_path, alpha):
    # mix --seed S and sweep cell (n, 0) at master seed S draw one lift and
    # one start sample, so their crossings agree start by start
    common = ["--graph", theta3_file, "--starts", "sample:6", "--t-cap", "200", *alpha]
    mix_out, sweep_out = tmp_path / "mix", tmp_path / "sweep"
    code, _, _ = run_cli(capsys, ["mix", *common, "--n", "64", "--seed", "3",
                                  "--out", str(mix_out)])
    assert code == 0
    code, _, _ = run_cli(capsys, ["sweep", *common, "--n", "64,128", "--seeds", "1",
                                  "--master-seed", "3", "--out", str(sweep_out)])
    assert code == 0
    per_start = json.loads((mix_out / "summary.json").read_text())["per_start"]
    rows = [ln.split(",") for ln in (sweep_out / "results.csv").read_text().splitlines()
            if not ln.startswith("#")]
    assert rows[0] == ["n", "seed", "start", "eps", "t_mix", "reached"]
    cell = {}
    for n, seed, start, eps, t_mix, reached in rows[1:]:
        if (n, seed) == ("64", "0"):
            cell.setdefault(start, {})[eps] = int(t_mix) if reached == "1" else None
    assert len(per_start) == 6
    assert cell == per_start


def test_workers_capped_by_items_and_cpus(capsys, theta3_file, tmp_path, monkeypatch):
    from liftmix import mixing

    sizes = []
    shares = []

    class RecordingPool:
        """Stands in for the process pool: records its size and each
        process's share of the CPUs, maps in-process."""

        def __init__(self, max_workers, initializer, initargs):
            assert initializer is mixing._share_cpus
            sizes.append(max_workers)
            shares.append(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    cover = ["cover-sim", "--graph", theta3_file, "--steps", "2000", "--trials", "3",
             "--out", str(tmp_path / "cover")]
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)))
    code, payload, _ = run_cli(capsys, cover + ["--workers", "5000"])
    assert code == 0 and sizes == [3]
    # without --per-trial nothing is written, so there is no manifest
    assert payload["manifest"] is None
    assert os.listdir(tmp_path / "cover") == []
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(2)))
    assert run_cli(capsys, cover + ["--workers", "5000"])[0] == 0
    assert sizes == [3, 2]
    # one worker runs in-process
    assert run_cli(capsys, cover + ["--workers", "1"])[0] == 0
    assert sizes == [3, 2]
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)))
    sweep = ["sweep", "--graph", theta3_file, "--n", "16,32", "--seeds", "1",
             "--starts", "sample:2", "--workers", "5000",
             "--out", str(tmp_path / "sweep")]
    code, _, cap = run_cli(capsys, sweep)
    assert code == 0 and sizes == [3, 2, 2]
    assert shares == [21, 1, 32]
    # the progress line reports the pool that runs, not the request
    assert "1 seeds, 2 worker(s)" in cap.err
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(1)))
    code, _, cap = run_cli(capsys, sweep)
    assert code == 0 and sizes == [3, 2, 2]
    assert "1 seeds, 1 worker(s)" in cap.err


def test_sweep_rejects_zero_seeds(capsys, theta3_file, tmp_path):
    code, _, cap = run_cli(capsys, [
        "sweep", "--graph", theta3_file, "--n", "8,16", "--seeds", "0",
        "--out", str(tmp_path / "x"),
    ])
    assert code == 1
    assert "liftmix: error: n_seeds must be at least 1" in cap.err
    assert not (tmp_path / "x" / "summary.json").exists()


@pytest.mark.parametrize("graph, argv", [
    ("theta3", ["--n", "8,16", "--seeds", "0"]),
    ("theta3", ["--n", "16,8", "--seeds", "1"]),
    ("biased_cycle", ["--n", "8,16", "--seeds", "1"]),
    ("theta3", ["--n", "8,16", "--seeds", "1", "--master-seed", "-1"]),
    ("theta3", ["--n", "8,16", "--seeds", "1", "--starts", "bogus"]),
    ("theta3", ["--n", "8,16384", "--seeds", "1", "--starts", "all"]),
], ids=["zero-seeds", "decreasing-grid", "degenerate", "negative-seed", "bad-starts",
        "too-many-states"])
def test_a_refused_sweep_announces_no_work(capsys, tmp_path, graph, argv):
    # the progress line comes after every check that precedes the cells
    path = os.path.join(os.path.dirname(__file__), "..", "demos", "graphs", f"{graph}.g")
    code, _, cap = run_cli(capsys, ["sweep", "--graph", path, *argv,
                                    "--out", str(tmp_path / "x")])
    assert code == 1
    assert cap.err.startswith("liftmix: error: ") and cap.err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["mix", "--n", "64", "--starts", "sample:3"],
    ["sweep", "--n", "64,128", "--seeds", "1", "--starts", "sample:2"],
], ids=["mix", "sweep"])
def test_an_unlazy_lift_of_period_3_is_refused(capsys, tmp_path, argv):
    # mix reported null crossings and sweep asked for a larger step cap,
    # though the two-step average of a period-3 walk never settles
    graph = tmp_path / "period3.g"
    graph.write_text(PERIOD3_TEXT)
    out = tmp_path / "a" / "b"
    code, _, cap = run_cli(capsys, [argv[0], "--graph", str(graph), *argv[1:],
                                    "--out", str(out)])
    assert code == 1
    errors = [l for l in cap.err.splitlines() if l.startswith("liftmix")]
    assert len(errors) == 1
    assert errors[0].startswith("liftmix: error: start ")
    assert "has period 3" in errors[0] and errors[0].endswith("alpha > 0 (--alpha)")
    assert not (tmp_path / "a").exists()
    # with holding the walk is aperiodic and runs
    code, payload, _ = run_cli(capsys, [argv[0], "--graph", str(graph), *argv[1:],
                                        "--alpha", "0.5", "--out", str(out)])
    assert code == 0 and payload["artifacts"]


def test_sweep_rejects_degenerate_graph(capsys, tmp_path):
    from conftest import C3B_TEXT

    path = tmp_path / "c3b.g"
    path.write_text(C3B_TEXT)
    code, _, cap = run_cli(capsys, [
        "sweep", "--graph", str(path), "--n", "16,32", "--seeds", "1",
        "--out", str(tmp_path / "x"),
    ])
    assert code == 1
    assert "degenerate" in cap.err


# ---------------------------------------------------------------------------
# spectrum
# ---------------------------------------------------------------------------


def test_spectrum_payload(capsys, theta3_file):
    code, payload, _ = run_cli(capsys, [
        "spectrum", "--graph", theta3_file, "--n", "8", "--seed", "0",
    ])
    assert code == 0
    assert len(payload["eigenvalues"]) == 2
    assert payload["max_residual"] <= 1e-10
    assert payload["inherited"] is True
    flat = {(round(re, 9), round(im, 9)) for re, im in payload["eigenvalues"]}
    assert (1.0, 0.0) in flat


def test_spectrum_bipartite_alpha_zero(capsys, theta3_file):
    code, payload, _ = run_cli(capsys, [
        "spectrum", "--graph", theta3_file, "--n", "8", "--alpha", "0",
    ])
    assert code == 0
    flat = {(round(re, 9), round(im, 9)) for re, im in payload["eigenvalues"]}
    assert (1.0, 0.0) in flat and (-1.0, 0.0) in flat


# ---------------------------------------------------------------------------
# calls in one process
# ---------------------------------------------------------------------------


def _outputs(directory):
    """Every file under ``directory``, by relative path: its bytes, or for a
    manifest its JSON without the ``timing`` key."""
    found = {}
    for dirpath, _, files in os.walk(directory):
        for name in files:
            path = os.path.join(dirpath, name)
            key = os.path.relpath(path, directory)
            if name == "manifest.json":
                with open(path, encoding="utf-8") as fh:
                    data = json.load(fh)
                data.pop("timing")
                found[key] = data
            else:
                with open(path, "rb") as fh:
                    found[key] = fh.read()
    return found


@pytest.mark.parametrize("first, second", [
    (["analyze"], ["mix", "--n", "16", "--out", "run"]),
    (["sweep", "--n", "16,32", "--seeds", "1", "--starts", "sample:2", "--out", "run"],
     ["cover-sim", "--steps", "20000", "--trials", "2", "--per-trial", "--out", "run"]),
], ids=["analyze-then-mix", "sweep-then-cover-sim"])
def test_a_second_call_in_one_process_equals_a_fresh_call(capsys, theta3_file, tmp_path,
                                                           monkeypatch, first, second):
    # no option default or handler state may leak from one main call into the
    # next: each call's stdout and artifacts equal those of a call made in a
    # process of its own, in a directory of its own
    argvs = [[argv[0], "--graph", theta3_file, *argv[1:]] for argv in (first, second)]
    src = os.path.dirname(os.path.dirname(os.path.abspath(liftmix.__file__)))
    probe = "import sys; from liftmix.cli import main; sys.exit(main(sys.argv[1:]))"
    for i, argv in enumerate(argvs):
        fresh = tmp_path / f"fresh-{i}"
        fresh.mkdir()
        proc = subprocess.run([sys.executable, "-c", probe, *argv], cwd=fresh, text=True,
                              capture_output=True, env={**os.environ, "PYTHONPATH": src})
        assert proc.returncode == 0, proc.stderr
        shared = tmp_path / f"shared-{i}"
        shared.mkdir()
        monkeypatch.chdir(shared)
        assert main(argv) == 0
        assert capsys.readouterr().out == proc.stdout
        outputs = _outputs(shared)
        assert bool(outputs) == ("--out" in argv)
        assert outputs == _outputs(fresh)
