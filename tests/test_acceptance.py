"""Acceptance suite: fourteen product-level checks, each with an explicit
quantitative target and a wall-clock budget.

The cover Monte Carlo runs and the large mixing sweep are executed once
through the command-line interface and shared across tests via session
fixtures, so the determinism check can compare byte-level artifacts
produced with different worker counts without recomputing them, and the
lower-bound checks read σ̂ from the same runs as the Monte Carlo checks.
"""

import contextlib
import io
import itertools
import json
import math
import time
from statistics import NormalDist

import numpy as np
import pytest

from liftmix import (
    confirmed_ray,
    entropy,
    generate_uniform_lift,
    is_cover_transient,
    level_weight_check,
    parse_graph,
    projection_identity_check,
    ray_localization_profile,
    simulate_walk,
    spectrum_inheritance_check,
    substream,
)
from liftmix.cli import main as cli_main

from conftest import (
    ASYM_THETA_TEXT,
    C3B_TEXT,
    ONE_WAY_TEXT,
    SYM3_TEXT,
    THETA3_TEXT,
    bouquet_text,
)

LOG2 = math.log(2.0)


def _run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(argv)
    assert code == 0, err.getvalue()
    return json.loads(out.getvalue())


# ---------------------------------------------------------------------------
# shared heavy runs
# ---------------------------------------------------------------------------


@pytest.fixture(scope="session")
def graph_files(tmp_path_factory):
    d = tmp_path_factory.mktemp("graphs")
    paths = {}
    for name, text in (("theta3", THETA3_TEXT), ("bouquet4", bouquet_text(4))):
        p = d / f"{name}.g"
        p.write_text(text)
        paths[name] = str(p)
    return paths


# (graph, holding probability, trials, steps per trial); sized so that every
# configuration yields at least 10^4 renewal excursions
MC_CONFIGS = (
    ("theta3", 0.0, 4, 50_000),
    ("theta3", 0.5, 4, 100_000),
    ("bouquet4", 0.0, 4, 40_000),
    ("bouquet4", 0.5, 4, 64_000),
)


@pytest.fixture(scope="session")
def mc_runs(graph_files, tmp_path_factory):
    """Cover Monte Carlo through the CLI, each config with 1 and 2 workers."""
    runs = {}
    t0 = time.monotonic()
    for name, alpha, trials, steps in MC_CONFIGS:
        dirs = {}
        payloads = {}
        for workers in (1, 2):
            out = tmp_path_factory.mktemp(f"mc-{name}-{alpha}-w{workers}")
            payloads[workers] = _run_cli([
                "cover-sim", "--graph", graph_files[name],
                "--alpha", repr(alpha), "--steps", str(steps),
                "--trials", str(trials), "--seed", "20", "--per-trial",
                "--workers", str(workers), "--out", str(out),
            ])
            dirs[workers] = out
        runs[(name, alpha)] = {"payloads": payloads, "dirs": dirs}
    return {"runs": runs, "wall_seconds": time.monotonic() - t0}


@pytest.fixture(scope="session")
def sweep_runs(graph_files, tmp_path_factory):
    """The full-scale mixing sweep through the CLI, with 1 and 2 workers."""
    runs = {}
    t0 = time.monotonic()
    for workers in (1, 2):
        out = tmp_path_factory.mktemp(f"sweep-w{workers}")
        payload = _run_cli([
            "sweep", "--graph", graph_files["theta3"],
            "--n", "512,1024,2048,4096", "--seeds", "5",
            "--starts", "sample:5", "--master-seed", "0",
            "--workers", str(workers), "--out", str(out),
        ])
        runs[workers] = (out, payload)
    return {"runs": runs, "wall_seconds": time.monotonic() - t0}


@pytest.fixture(scope="session")
def off_reversibility_runs(tmp_path_factory):
    """Cover Monte Carlo through the CLI on two bases whose walks are not
    reversible: name -> (graph path, payload)."""
    d = tmp_path_factory.mktemp("off-reversibility")
    runs = {}
    t0 = time.monotonic()
    for name, text in (("asym_theta", ASYM_THETA_TEXT), ("one_way", ONE_WAY_TEXT)):
        path = d / f"{name}.g"
        path.write_text(text)
        runs[name] = (str(path), _run_cli([
            "cover-sim", "--graph", str(path), "--steps", "100000",
            "--trials", "4", "--seed", "20",
        ]))
    return {"runs": runs, "wall_seconds": time.monotonic() - t0}


# ---------------------------------------------------------------------------
# 1. closed forms for regular one-vertex graphs
# ---------------------------------------------------------------------------


def test_01_regular_closed_forms():
    t0 = time.monotonic()
    for d in (4, 6, 8):
        rep = entropy(parse_graph(bouquet_text(d)))
        assert np.allclose(rep.first_passage.prob, 1.0 / (d - 1), atol=1e-9)
        assert np.allclose(rep.ray_law.exit_prob, 1.0 / d, atol=1e-9)
        assert rep.per_level_entropy == pytest.approx(math.log(d - 1), abs=1e-9)
        assert rep.escape_speed == pytest.approx((d - 2) / d, abs=1e-9)
        assert rep.entropy_rate == pytest.approx(
            (d - 2) * math.log(d - 1) / d, abs=1e-9
        )
    assert time.monotonic() - t0 < 1.0


# ---------------------------------------------------------------------------
# 2. closed forms for the three-parallel-edge graph
# ---------------------------------------------------------------------------


def test_02_three_parallel_edges_closed_forms():
    t0 = time.monotonic()
    rep = entropy(parse_graph(THETA3_TEXT))
    assert np.allclose(rep.first_passage.prob, 0.5, atol=1e-9)
    assert np.allclose(rep.ray_law.exit_prob, 1.0 / 3.0, atol=1e-9)
    assert rep.per_level_entropy == pytest.approx(LOG2, abs=1e-9)
    assert rep.escape_speed == pytest.approx(1.0 / 3.0, abs=1e-9)
    assert rep.entropy_rate == pytest.approx(LOG2 / 6.0, abs=1e-9)
    assert time.monotonic() - t0 < 1.0


# ---------------------------------------------------------------------------
# 3. transience classifier, cross-checked by direct simulation
# ---------------------------------------------------------------------------


def _mc_return_frequency(g, n_walks, n_steps, rng):
    """Fraction of tree walks that revisit their start after leaving it.

    Independent of the library's walk simulator: vectorized over walks,
    keeping per-walk edge stacks so a revisit of the start vertex of the
    tree is exactly a return of the stack height to zero.
    """
    tails = g.oriented_init
    heads = g.oriented_end
    inverse = np.arange(g.n_oriented) ^ 1
    per_vertex = []
    for u in range(g.n_vertices):
        out = g.out_oriented[u]
        probs = (1.0 - g.alpha) * g.oriented_weight[out]
        choices = np.concatenate([out, [-1]])  # -1 encodes "hold in place"
        cum = np.concatenate([np.cumsum(probs), [1.0]])
        per_vertex.append((choices, cum))
    v = np.zeros(n_walks, dtype=np.int64)
    h = np.zeros(n_walks, dtype=np.int64)
    stack = np.zeros((n_walks, n_steps), dtype=np.int16)
    left = np.zeros(n_walks, dtype=bool)
    returned = np.zeros(n_walks, dtype=bool)
    rows = np.arange(n_walks)
    for _ in range(n_steps):
        r = rng.random(n_walks)
        move = np.empty(n_walks, dtype=np.int64)
        for u, (choices, cum) in enumerate(per_vertex):
            mask = v == u
            if mask.any():
                move[mask] = choices[np.searchsorted(cum, r[mask], side="right")]
        top = np.where(h > 0, stack[rows, np.maximum(h - 1, 0)], -2)
        pop = (move >= 0) & (h > 0) & (top >= 0) & (move == inverse[np.maximum(top, 0)])
        push = (move >= 0) & ~pop
        stack[rows[push], h[push]] = move[push]
        v = np.where(
            move < 0, v,
            np.where(pop, tails[np.maximum(top, 0)], heads[np.maximum(move, 0)]),
        )
        h = h + push.astype(np.int64) - pop.astype(np.int64)
        left |= h > 0
        returned |= left & (h == 0)
    return float(returned.mean())


def test_03_transience_classifier_with_simulation_oracle():
    t0 = time.monotonic()
    theta3 = parse_graph(THETA3_TEXT)
    c3b = parse_graph(C3B_TEXT)
    sym3 = parse_graph(SYM3_TEXT)
    assert is_cover_transient(theta3).transient
    assert is_cover_transient(c3b).transient
    assert not is_cover_transient(sym3).transient

    n = 10_000
    rng = substream(40, "return-oracle")
    freq = {
        name: _mc_return_frequency(g, n, 1_000, rng)
        for name, g in (("theta3", theta3), ("c3b", c3b), ("sym3", sym3))
    }

    def se(p):
        return math.sqrt(p * (1.0 - p) / n)

    # transient graphs return with the analytically known probability:
    # 1/2 for the parallel-edge graph, 3/5 for the biased cycle
    assert abs(freq["theta3"] - 0.5) <= 5 * se(0.5)
    assert abs(freq["c3b"] - 0.6) <= 5 * se(0.6)
    # the recurrent cycle has returned in the vast majority of walks
    # already, and sits far above the transient one
    assert freq["sym3"] > 0.9
    gap_se = math.hypot(se(freq["sym3"]), se(freq["c3b"]))
    assert (freq["sym3"] - freq["c3b"]) / gap_se >= 5.0
    assert time.monotonic() - t0 < 30.0


# ---------------------------------------------------------------------------
# 4. Monte Carlo entropy and speed agree with the analyzer
# ---------------------------------------------------------------------------


def test_04_monte_carlo_matches_analyzer(mc_runs):
    for (name, alpha), run in mc_runs["runs"].items():
        _assert_matches_analyzer(run["payloads"][1], (name, alpha))
    assert mc_runs["wall_seconds"] < 120.0


def _assert_matches_analyzer(payload, what):
    assert payload["n_excursions"] >= 10_000, what
    assert not payload["degenerate"], what
    h_gap = abs(payload["h_est"] - payload["h_analytic"])
    assert h_gap <= 3.0 * payload["se_h"], what
    s_gap = abs(payload["speed_est"] - payload["speed_analytic"])
    assert s_gap <= 3.0 * payload["se_speed"], what


# ---------------------------------------------------------------------------
# 5. per-level weight normalization by exhaustive enumeration
# ---------------------------------------------------------------------------


def test_05_level_weight_normalization():
    t0 = time.monotonic()
    for text, r_max in ((THETA3_TEXT, 6), (bouquet_text(4), 5)):
        g = parse_graph(text)
        view = entropy(g)  # the ray law on g's own oriented edges
        for depth in range(r_max + 1):
            chk = level_weight_check(view, depth)
            assert chk.deviation <= 1e-10, (g.vertices, depth)
            assert chk.level_size > 0
    assert time.monotonic() - t0 < 5.0


# ---------------------------------------------------------------------------
# 6. fiberwise projection of lift distributions
# ---------------------------------------------------------------------------


def test_06_projection_identity():
    t0 = time.monotonic()
    for text in (THETA3_TEXT, C3B_TEXT):
        g = parse_graph(text)
        for seed in range(20):
            lift = generate_uniform_lift(g, 64, substream(seed, "lift", 64),
                                         seed=seed)
            assert projection_identity_check(lift, 0, 50) <= 1e-12
    assert time.monotonic() - t0 < 10.0


# ---------------------------------------------------------------------------
# 7. base spectrum inherited by every lift
# ---------------------------------------------------------------------------


def test_07_spectrum_inheritance():
    t0 = time.monotonic()
    theta3 = parse_graph(THETA3_TEXT)
    c3b = parse_graph(C3B_TEXT)
    sizes = (4, 8, 16, 32, 64, 128, 256, 256, 256, 256)
    saw_minus_one = False
    for seed, n in enumerate(sizes):
        lift = generate_uniform_lift(theta3, n, substream(seed, "spectrum", n),
                                     seed=seed)
        assert spectrum_inheritance_check(lift).max_residual <= 1e-10
        # without holding the graph is bipartite and -1 must be inherited
        chk = spectrum_inheritance_check(lift, alpha=0.0)
        assert chk.max_residual <= 1e-10
        saw_minus_one |= any(abs(z + 1.0) < 1e-9 for z in chk.eigenvalues)
        lc = generate_uniform_lift(c3b, n, substream(seed, "spectrum-c", n),
                                   seed=seed)
        assert spectrum_inheritance_check(lc).max_residual <= 1e-10
    assert saw_minus_one
    assert time.monotonic() - t0 < 10.0


# ---------------------------------------------------------------------------
# 8. the lift generator draws the uniform law
# ---------------------------------------------------------------------------


def test_08_generator_equivalence():
    t0 = time.monotonic()
    theta3 = parse_graph(THETA3_TEXT)
    n_samples = 10_000
    counts = dict.fromkeys(itertools.product(*([[(0, 1), (1, 0)]] * 3)), 0)
    for i in range(n_samples):
        lift = generate_uniform_lift(theta3, 2, substream(50, "gen-eq", i))
        counts[tuple(tuple(int(x) for x in p) for p in lift.perms)] += 1
    # every one of the eight 2-lifts shows up at its expected frequency
    # (5-sigma band)
    band = 5.0 * math.sqrt(n_samples * (1 / 8) * (7 / 8))
    for count in counts.values():
        assert abs(count - n_samples / 8) <= band
    assert time.monotonic() - t0 < 10.0


# ---------------------------------------------------------------------------
# 9. mixing time grows like (1/entropy-rate) * log n, with a narrowing window
# ---------------------------------------------------------------------------


def test_09_cutoff_sweep_slope_and_window(sweep_runs):
    out_dir, payload = sweep_runs["runs"][1]
    summary = _assert_sweep_gates(out_dir, payload)
    assert summary["predicted"] == pytest.approx(6.0 / LOG2, abs=1e-9)
    assert sweep_runs["wall_seconds"] < 600.0


def _assert_sweep_gates(out_dir, payload):
    """Check 9's gates on a sweep over four degrees with 5 seeds of 5
    starts; returns its summary."""
    summary = json.loads((out_dir / "summary.json").read_text())
    predicted = summary["predicted"]
    assert abs(summary["slope"] - predicted) / predicted <= 0.15
    assert payload["verdict_slope"] is True
    assert summary["window"]["nonincreasing_seeds"] >= 4
    assert summary["seeds"] == 5
    # every cell actually reached every threshold below the step cap
    lines = (out_dir / "results.csv").read_text().splitlines()
    data = [ln for ln in lines if not ln.startswith("#")]
    assert data[0] == "n,seed,start,eps,t_mix,reached"
    assert len(data) == 1 + 4 * 5 * 5 * 4
    assert all(ln.rsplit(",", 1)[1] == "1" for ln in data[1:])
    return summary


# ---------------------------------------------------------------------------
# 10. sampled mixing times respect the entropic lower bound
# ---------------------------------------------------------------------------


def test_10_lower_bound_on_mixing_times(mc_runs, sweep_runs):
    out_dir, _ = sweep_runs["runs"][1]
    h = entropy(parse_graph(THETA3_TEXT)).entropy_rate
    sigma = mc_runs["runs"][("theta3", 0.5)]["payloads"][1]["sigma_est"]
    _assert_lower_bound(out_dir, h, sigma)


def _assert_lower_bound(out_dir, h, sigma):
    """Check 10's gate: in >= 90% of a 20-cell sweep's cells the fastest
    start's mixing time at eps 0.25 respects the entropic lower bound."""
    lines = (out_dir / "results.csv").read_text().splitlines()
    cells = {}
    for ln in lines:
        if ln.startswith("#") or ln.startswith("n,"):
            continue
        n, seed, start, eps, t_mix, reached = ln.split(",")
        if eps == "0.25":
            assert reached == "1"
            key = (int(n), int(seed))
            cells[key] = min(cells.get(key, math.inf), int(t_mix))
    assert len(cells) == 20
    assert sigma > 0.0
    quantile = NormalDist().inv_cdf(0.25)  # negative: the bound sits below the center
    passed = 0
    for (n, seed), t_min in cells.items():
        log_n = math.log(n)
        bound = (log_n / h
                 + quantile * (sigma / h ** 1.5) * math.sqrt(log_n)
                 - 5.0)
        passed += t_min >= bound
    assert passed >= math.ceil(0.9 * len(cells))


# ---------------------------------------------------------------------------
# 11. the walk localizes around its limiting ray
# ---------------------------------------------------------------------------


def test_11_ray_localization_tail():
    t0 = time.monotonic()
    g = parse_graph(THETA3_TEXT)
    trajs = [
        simulate_walk(g, "u", 100_000, alpha=0.0, rng=substream(41, "loc", i))
        for i in range(20)
    ]
    # the trajectories pool by summing their raw counts, as cover-sim's trials do
    profiles = [ray_localization_profile(traj, confirmed_ray(traj)[1], 10)
                for traj in trajs]
    n_samples = sum(profile.n_samples for profile in profiles)
    assert n_samples >= 10_000
    counts = np.sum([profile.counts for profile in profiles], axis=0).astype(float)
    assert counts[10] > 0  # the fit uses no empty bins
    tail = counts / n_samples
    radii = np.arange(1, 11, dtype=float)
    log_tail = np.log(tail[1:11])
    slope, intercept = np.polyfit(radii, log_tail, 1)
    residuals = log_tail - (slope * radii + intercept)
    r_squared = 1.0 - residuals.var() / log_tail.var()
    assert slope < 0.0
    assert r_squared >= 0.9
    assert time.monotonic() - t0 < 60.0


# ---------------------------------------------------------------------------
# 12. identical seeds give byte-identical artifacts at any worker count
# ---------------------------------------------------------------------------


def test_12_artifacts_deterministic_across_workers(mc_runs, sweep_runs):
    for (name, alpha), run in mc_runs["runs"].items():
        csv1 = (run["dirs"][1] / "per_trial.csv").read_bytes()
        csv2 = (run["dirs"][2] / "per_trial.csv").read_bytes()
        assert csv1 == csv2, (name, alpha)
        assert run["payloads"][1]["h_est"] == run["payloads"][2]["h_est"]
        assert run["payloads"][1]["sigma_est"] == run["payloads"][2]["sigma_est"]
    out1, p1 = sweep_runs["runs"][1]
    out2, p2 = sweep_runs["runs"][2]
    assert (out1 / "results.csv").read_bytes() == (out2 / "results.csv").read_bytes()
    assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()
    assert p1["slope"] == p2["slope"]


# ---------------------------------------------------------------------------
# 13. check 4's gate on walks that are not reversible
# ---------------------------------------------------------------------------


def test_13_monte_carlo_matches_analyzer_off_reversibility(off_reversibility_runs):
    # On the asymmetric theta graph pi(u) w(e1+) = 0.25 but pi(v) w(e1-) =
    # 0.1; the one-way graph has orientations of weight zero.  The one-way
    # graph stays out of any window gate: its mixing times are 9-13 steps,
    # so the window ratio moves in whole steps there.
    for name, (_, payload) in off_reversibility_runs["runs"].items():
        _assert_matches_analyzer(payload, name)
    assert off_reversibility_runs["wall_seconds"] < 30.0


# ---------------------------------------------------------------------------
# 14. checks 9 and 10 on a walk that is not reversible
# ---------------------------------------------------------------------------


def test_14_cutoff_sweep_off_reversibility(off_reversibility_runs, tmp_path):
    # the asymmetric theta graph of check 13, with its own h and the sigma
    # of check 13's Monte Carlo run
    t0 = time.monotonic()
    path, mc = off_reversibility_runs["runs"]["asym_theta"]
    payload = _run_cli([
        "sweep", "--graph", path, "--n", "512,1024,2048,4096", "--seeds", "5",
        "--starts", "sample:5", "--master-seed", "0", "--out", str(tmp_path),
    ])
    _assert_sweep_gates(tmp_path, payload)
    h = entropy(parse_graph(ASYM_THETA_TEXT)).entropy_rate
    _assert_lower_bound(tmp_path, h, mc["sigma_est"])
    assert time.monotonic() - t0 < 60.0
