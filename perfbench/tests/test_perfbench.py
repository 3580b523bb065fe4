"""Tests of the benchmark's own code.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

import math
import os
import sys
import types

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
for path in (ROOT, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

from perfbench import inputs, spans, workloads  # noqa: E402
from perfbench.run import parse_importtime  # noqa: E402


def span(name, start, end, parent=-1, error=False):
    return [name, start, end, parent, error]


# ---------------------------------------------------------------------------
# span arithmetic
# ---------------------------------------------------------------------------


def test_self_time_subtracts_direct_children_only():
    trace = [
        span("cli.main", 0.0, 10.0),
        span("analyzer.entropy", 1.0, 7.0, 0),
        span("analyzer.solve_first_passage", 2.0, 5.0, 1),
        span("base_graph.parse_graph", 8.0, 9.0, 0),
    ]
    assert spans.self_times(trace) == [3.0, 3.0, 3.0, 1.0]


def test_summarize_counts_nested_repeats_once():
    trace = [
        span("base_graph.core", 0.0, 4.0),
        span("base_graph.core", 1.0, 3.0, 0, error=True),
        span("base_graph.core", 5.0, 6.0, error=True),
    ]
    calls, inclusive, own, errors = spans.summarize(trace)["base_graph.core"]
    assert calls == 3
    assert inclusive == 5.0
    assert own == 5.0
    assert errors == 1


def test_tracer_records_parents_errors_and_counters():
    ticks = iter(range(100))
    tracer = spans.Tracer(clock=lambda: float(next(ticks)))

    def inner(x):
        if x < 0:
            raise ValueError("negative")
        return x

    traced_inner = tracer.wrap("lift.inner", inner,
                               lambda t, a, k, r: t.count("seen", r))

    def outer():
        traced_inner(3)
        with pytest.raises(ValueError):
            traced_inner(-1)
        return traced_inner(4)

    assert traced_inner(5) == 5  # outside any span: not recorded
    assert tracer.spans == []
    assert tracer.span("cli.main", outer) == 4
    names = [s[spans.NAME] for s in tracer.spans]
    assert names == ["cli.main", "lift.inner", "lift.inner", "lift.inner"]
    assert [s[spans.PARENT] for s in tracer.spans] == [-1, 0, 0, 0]
    assert [s[spans.ERROR] for s in tracer.spans] == [False, False, True, False]
    assert tracer.counters == {"seen": 7}
    assert spans.self_times(tracer.spans)[0] == 7.0 - 3.0


def test_instrument_rebinds_every_import_and_undo_restores():
    def mixing_curve():
        return 1

    def _lift_period():
        return 2

    def _other():
        return 3

    home = types.ModuleType("liftmix.mixing")
    for fn in (mixing_curve, _lift_period, _other):
        fn.__module__ = home.__name__
        setattr(home, fn.__name__, fn)
    user = types.ModuleType("liftmix.cli")
    user.mixing_curve = mixing_curve

    tracer = spans.Tracer()
    undo = spans.instrument(tracer, {"liftmix.mixing": home, "liftmix.cli": user})
    assert user.mixing_curve is home.mixing_curve is not mixing_curve
    assert home._lift_period is not _lift_period
    assert home._other is _other
    calls = (user.mixing_curve, home._lift_period, home._other)
    assert tracer.span("cli.main", lambda: [f() for f in calls]) == [1, 2, 3]
    assert [s[spans.NAME] for s in tracer.spans] == ["cli.main", "mixing.mixing_curve",
                                                     "mixing._lift_period"]
    undo()
    assert user.mixing_curve is home.mixing_curve is mixing_curve
    assert home._lift_period is _lift_period


def test_layer_metrics_on_a_small_trace():
    trace = [
        span("cli.main", 0.0, 10.0),
        span("mixing.mixing_curve", 1.0, 5.0, 0),
        span("mixing._lift_period", 1.5, 2.5, 1),
        span("lift.apply_kernel", 3.0, 4.0, 1),
        span("analyzer.entropy", 6.0, 9.0, 0, error=True),
    ]
    m = spans.layer_metrics(trace, {"kernel_states": 1000})
    assert m["mixing.period_s"] == (1.0, "s")
    assert m["mixing.curve_self_s"] == (2.0, "s")
    assert m["mixing.curve_p50_ms"] == (4000.0, "ms")
    assert m["lift.kernel_ns_per_state"] == (1e6, "ns")
    assert m["analyzer.errors"] == (1, "count")
    assert m["cli.self_s"] == (3.0, "s")
    assert m["cover.ns_per_step"] == (0.0, "ns")


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------


def test_generator_repeats_for_one_seed_and_differs_across_seeds():
    first = inputs.batch_texts(7, 0, workloads.GRAPH_DIR)
    assert first == inputs.batch_texts(7, 0, workloads.GRAPH_DIR)
    assert first != inputs.batch_texts(8, 0, workloads.GRAPH_DIR)
    assert first != inputs.batch_texts(7, 1, workloads.GRAPH_DIR)
    names = [name for name, _ in first]
    assert len(names) == len(set(names)) == 4 + len(inputs.LADDER) + inputs.RANDOM_PER_BATCH
    assert {"demo-theta3", "demo-bouquet4", "bouquet-1_10000000"} <= set(names)
    assert not any(name.startswith("cycle-") for name in names)


def test_defect_probe_holds_the_single_cycle_graphs():
    names = [name for name, _ in inputs.defect_texts()]
    assert names == [f"cycle-{w}" for w in inputs.DEFECT_LADDER] + ["pendant-triangle"]
    assert all(inputs.is_single_cycle(text) for _, text in inputs.defect_texts())


def test_core_cycle_rank_prunes_pendant_trees():
    def graph(*edges):
        verts = sorted({v for e in edges for v in e})
        return "".join(f"vertex {v}\n" for v in verts) + "".join(
            f"edge e{i} {a} {b} 1/2 1/2\n" for i, (a, b) in enumerate(edges))

    assert inputs.core_cycle_rank(inputs.PENDANT_TRIANGLE) == 1
    assert inputs.core_cycle_rank(graph(("a", "b"), ("b", "c"))) == 0
    assert inputs.core_cycle_rank(graph(("a", "a"), ("a", "b"))) == 1
    assert inputs.core_cycle_rank(graph(("a", "b"), ("a", "b"), ("a", "b"), ("b", "c"))) == 2
    assert inputs.core_cycle_rank(inputs.bouquet_text("1/1000")) == 2
    random_texts = [t for name, t in inputs.batch_texts(3, 0, workloads.GRAPH_DIR)
                    if name.startswith("random-")]
    assert min(inputs.core_cycle_rank(t) for t in random_texts) >= 2
    text = inputs.cycle_text("0.5001")
    assert "edge ab a b 0.5001 0.4999" in text
    assert inputs.is_single_cycle(text)
    assert not inputs.is_single_cycle(
        open(workloads.graph_path("theta3"), encoding="utf-8").read())


def test_near_critical_bouquet_weights_sum_to_one():
    from fractions import Fraction

    text = inputs.bouquet_text("1/100000")
    weights = [Fraction(w) for line in text.splitlines() if line.startswith("edge")
               for w in line.split()[4:]]
    assert weights == [Fraction(99998, 200000)] * 2 + [Fraction(1, 100000)] * 2
    assert sum(weights) == 1
    assert not inputs.is_single_cycle(text)


def test_corrected_throughput_divides_each_round_by_host_slowdown():
    from perfbench import hostspeed

    nominal = (hostspeed.NOMINAL_PY_S, hostspeed.NOMINAL_NP_S)
    twice = (2 * nominal[0], 2 * nominal[1])
    rounds = [
        # At nominal speed throughout: time counts as measured.
        {"work": 100.0, "seconds": 1.0, "ref_before": nominal, "ref_after": nominal},
        # Twice as slow throughout: 4 s count as 2 s.
        {"work": 100.0, "seconds": 4.0, "ref_before": twice, "ref_after": twice},
    ]
    assert hostspeed.slowdown(twice) == 2.0
    assert hostspeed.corrected_throughput(rounds) == 200.0 / 3.0


def test_parse_importtime_reads_cumulative_column():
    text = ("import time: self [us] | cumulative | imported package\n"
            "import time:      1905 |     162289 |       numpy\n"
            "import time:     13687 |    1519030 | liftmix.cli\n")
    assert parse_importtime(text) == {"numpy": 0.162289, "liftmix.cli": 1.51903}


# ---------------------------------------------------------------------------
# output checks reject tampered payloads
# ---------------------------------------------------------------------------


def _analyze_payload(h_alpha, degenerate=False):
    return {"h_alpha": h_alpha, "degenerate": degenerate,
            "residuals": {"first_passage": 0.0, "ray_stationarity": 1e-16}}


def test_analyze_check_rejects_tampered_payload():
    import math

    theta = open(workloads.graph_path("theta3"), encoding="utf-8").read()
    cycle = inputs.cycle_text("0.51")
    ops = [workloads.Op([], "demo-theta3", theta), workloads.Op([], "cycle-0.51", cycle)]
    good = [{"rc": 0, "payload": _analyze_payload(math.log(2) / 6)},
            {"rc": 0, "payload": _analyze_payload(0.0, degenerate=True)}]
    check = workloads.AnalyzeBatch().check
    assert check(ops, good, None, None) == []
    bad = [{"rc": 0, "payload": _analyze_payload(math.log(2) / 6 + 1e-6)},
           {"rc": 0, "payload": _analyze_payload(0.0, degenerate=False)}]
    assert [f.index for f in check(ops, bad, None, None)] == [0, 1]


def _cover_payload(h_est):
    return {"h_est": h_est, "se_h": 0.004, "h_analytic": 0.1155,
            "speed_est": 0.1667, "se_speed": 0.001, "speed_analytic": 0.1667}


def test_cover_check_pools_the_calls_of_a_run():
    ops = [workloads.Op([], f"seed-{i}") for i in range(4)]
    check = workloads.CoverMC().check
    # One call 3.75 SE off passes: the pooled mean is within 5 pooled SE.
    spread = [0.1155 + 0.015, 0.1155 - 0.005, 0.1155 - 0.005, 0.1155 - 0.005]
    assert check(ops, [{"rc": 0, "payload": _cover_payload(h)} for h in spread],
                 None, None) == []
    # A bias of 2.5 SE in every call fails all of them: 5 pooled SE.
    biased = [{"rc": 0, "payload": _cover_payload(0.1155 + 0.0101)} for _ in ops]
    assert [f.index for f in check(ops, biased, None, None)] == [0, 1, 2, 3]


def _sweep_keep(ratio_rise=False, slope_scale=1.0):
    """Artifacts of one sweep call on n = 4, 16 with two seeds."""
    rows = ["n,seed,start,eps,t_mix,reached"]
    for n, base in ((4, 10), (16, 10 + round(10 * slope_scale * math.log(4)))):
        for seed in (0, 1):
            lo_gap = 20 if (ratio_rise and n == 16) else 4
            for eps, t in ((0.1, base + lo_gap), (0.25, base), (0.5, base - 2), (0.9, base - 4)):
                rows.append(f"{n},{seed},{seed},{eps},{t},1")
    worst = workloads.worst_times("\n".join(rows) + "\n")
    slope = workloads.ols_slope([math.log(4), math.log(16)],
                                [worst[(4, 0, 0.25)], worst[(16, 0, 0.25)]])
    window = not ratio_rise
    summary = {"predicted": 10.0, "n_grid": [4, 16], "eps_primary": 0.25, "seeds": 2,
               "eps": [0.1, 0.25, 0.5, 0.9], "slope": slope,
               "verdict_slope": abs(slope - 10.0) <= 1.5,
               "window": {"verdict": window}, "verdict": abs(slope - 10.0) <= 1.5 and window}
    return {"summary": summary, "worst": worst, "state_steps": 0}


def test_sweep_check_recomputes_slope_and_pools_verdict():
    check = workloads.SweepLargeN().check
    ops = [workloads.Op([], "seed-0"), workloads.Op([], "seed-1")]
    good = [{"rc": 0, "keep": _sweep_keep()} for _ in ops]
    assert check(ops, good, None, None) == []
    tampered = [{"rc": 0, "keep": _sweep_keep()} for _ in ops]
    tampered[1]["keep"]["summary"]["slope"] += 0.5
    assert [f.index for f in check(ops, tampered, None, None)] == [1]
    steep = [{"rc": 0, "keep": _sweep_keep(slope_scale=1.3)} for _ in ops]
    messages = [f.message for f in check(ops, steep, None, None)]
    assert len(messages) == 2 and all("pooled slope" in m for m in messages)
    widening = [{"rc": 0, "keep": _sweep_keep(ratio_rise=True)} for _ in ops]
    messages = [f.message for f in check(ops, widening, None, None)]
    assert len(messages) == 2 and all("cutoff window" in m for m in messages)


def test_dense_check_rejects_tampered_crossing():
    import numpy as np

    mat = np.array([[0.5, 0.5], [0.5, 0.5]])
    pi = np.array([0.5, 0.5])
    assert workloads._dense_mismatch(mat, pi, 0, {"0.25": 1, "0.9": 0}, 10) == ""
    assert "dense crossing 1" in workloads._dense_mismatch(mat, pi, 0, {"0.25": 2}, 10)


def test_state_steps_uses_smallest_threshold_or_cap():
    csv_text = ("# config_digest: x\n"
                "n,seed,start,eps,t_mix,reached\n"
                "4,0,1,0.1,9,1\n4,0,1,0.5,5,1\n"
                "8,0,2,0.1,-1,0\n8,0,2,0.5,7,1\n")
    total = workloads.state_steps(csv_text, {"4": 20, "8": 30}, n_vertices=2)
    assert total == 4 * 2 * 9 + 8 * 2 * 30
