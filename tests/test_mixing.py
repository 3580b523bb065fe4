"""Exact TV propagation, mixing curves, worst starts and sweeps."""

import math
import mmap
import os
import threading
import weakref
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from liftmix import (
    AnalysisError,
    GraphError,
    Lift,
    apply_kernel,
    check_assumptions,
    cutoff_sweep,
    draw_lift,
    entropy,
    generate_uniform_lift,
    lift_stationary,
    mixing_curves,
    parse_graph,
    projection_identity_check,
    substream,
    transition_matrix,
)
from liftmix import mixing
from liftmix.lift import _step
from liftmix.mixing import DEFAULT_EPS_LIST

from conftest import THETA3_TEXT, bouquet_text, random_graph_with_dead_orientations


def _lift8(theta3):
    return generate_uniform_lift(theta3, 8, substream(0, "lift", 8), seed=0)


# ---------------------------------------------------------------------------
# mixing curves
# ---------------------------------------------------------------------------


def test_mixing_curve_theta3_n8(theta3):
    lift = _lift8(theta3)
    curve = mixing_curves(lift, [0])[0]
    # from a point mass the initial TV is 1 - 1/16
    assert curve.tv[0] == pytest.approx(1.0 - 1.0 / 16.0, abs=1e-12)
    assert curve.crossings == {0.1: 12, 0.25: 7, 0.5: 3, 0.9: 1}
    assert all(curve.reached.values())
    assert not curve.periodic
    assert curve.mass_drift <= 1e-12
    # monotone nonincreasing
    assert (np.diff(curve.tv) <= 1e-12).all()
    # early stop: tv ends shortly after the last threshold crossing
    assert len(curve.tv) <= 14


def test_mixing_curve_thresholds_are_ordered(theta3):
    lift = _lift8(theta3)
    curve = mixing_curves(lift, [5])[0]
    assert curve.crossings[0.9] <= curve.crossings[0.5]
    assert curve.crossings[0.5] <= curve.crossings[0.25]
    assert curve.crossings[0.25] <= curve.crossings[0.1]


def test_mixing_curve_cap_and_unreached(theta3):
    lift = _lift8(theta3)
    curve = mixing_curves(lift, [0], t_cap=3, eps_list=(0.1, 0.5))[0]
    assert curve.t_cap == 3
    assert curve.crossings[0.5] == 3
    assert curve.crossings[0.1] is None
    assert curve.reached == {0.5: True, 0.1: False}


def test_mixing_curve_periodic_lift_uses_averaging(theta3):
    # without holding the theta lift is bipartite: plain TV plateaus at 1/2
    # while the two-step averaged curve still mixes
    lift = _lift8(theta3)
    curve = mixing_curves(lift, [0], alpha=0.0)[0]
    assert curve.periodic
    assert curve.tv[-1] == pytest.approx(0.5, abs=1e-9)
    assert curve.averaged is not None
    assert curve.averaged.crossings == {0.1: 6, 0.25: 4, 0.5: 2, 0.9: 1}
    assert (np.diff(curve.averaged.tv) <= 1e-12).all()


def test_mixing_curve_aperiodic_has_no_averaged_sibling(theta3):
    lift = _lift8(theta3)
    assert mixing_curves(lift, [0])[0].averaged is None


def test_mixing_curve_input_validation(theta3):
    lift = _lift8(theta3)
    with pytest.raises(GraphError):
        mixing_curves(lift, [-1])
    with pytest.raises(AnalysisError):
        mixing_curves(lift, [0], eps_list=())
    with pytest.raises(AnalysisError):
        mixing_curves(lift, [0], eps_list=(0.0,))
    with pytest.raises(AnalysisError):
        mixing_curves(lift, [0], t_cap=-1)


@pytest.mark.parametrize("alpha", [2.0, 1.0, -0.5])
def test_mixing_curve_checks_alpha_without_a_step(theta3, alpha):
    # at t_cap = 0 no kernel step runs, and the kernel was the only check
    with pytest.raises(AnalysisError, match=r"holding probability must lie in \[0, 1\)"):
        mixing_curves(_lift8(theta3), [0], alpha=alpha, t_cap=0)


# ---------------------------------------------------------------------------
# worst and best starts
# ---------------------------------------------------------------------------


def test_worst_best_exhaustive(theta3):
    lift = _lift8(theta3)
    curves = mixing_curves(lift, range(16), eps_list=(0.25,))
    times = [curve.mixing_crossings[0.25] for curve in curves]
    assert None not in times
    assert (max(times), min(times)) == (13, 7)


def test_worst_best_reads_the_averaged_curves_of_periodic_lifts(theta3):
    # the unlazy walk on a theta3 lift is bipartite: the raw TV plateaus at
    # 1/2, so reading the raw crossings left every start unreached
    lift = _lift8(theta3)
    curves = mixing_curves(lift, range(16), alpha=0.0, eps_list=(0.25,), t_cap=200)
    times = {s: curve.mixing_crossings[0.25] for s, curve in enumerate(curves)}
    averaged = {s: mixing_curves(lift, [s], alpha=0.0, eps_list=(0.25,), t_cap=200)[0]
                .averaged.crossings[0.25] for s in range(lift.n_states)}
    assert times == averaged
    assert times[0] == 4
    assert mixing._worst_start(times) == (4, 7)
    assert min(times.values()) == 4


def test_worst_best_policy_validation(theta3):
    lift = _lift8(theta3)
    assert mixing._draw_starts(lift, "all", 0) == (list(range(16)), True)
    with pytest.raises(AnalysisError, match="sample size"):
        mixing._draw_starts(lift, "sample:0", 0)
    with pytest.raises(AnalysisError, match="bad start policy"):
        mixing._draw_starts(lift, "everything", 0)


def test_worst_best_exhaustive_cap(theta3):
    big = Lift(theta3, 15_000, tuple(np.arange(15_000) for _ in range(3)))
    with pytest.raises(AnalysisError, match="exhaustive"):
        mixing._draw_starts(big, "all", 0)


# ---------------------------------------------------------------------------
# cutoff sweep
# ---------------------------------------------------------------------------


def test_cutoff_sweep_small_grid(theta3):
    res = cutoff_sweep(
        theta3, (32, 64), n_seeds=2, master_seed=5, starts="sample:3", workers=1
    )
    assert res.n_grid == (32, 64)
    assert res.n_seeds == 2
    assert res.eps_primary == 0.25
    # one row per (n, seed, start, eps)
    assert len(res.rows) == 2 * 2 * 3 * 4
    assert all(row.reached for row in res.rows)
    assert math.isfinite(res.slope)
    assert res.slope > 0
    assert res.slope_ci[0] <= res.slope <= res.slope_ci[1]
    assert res.predicted_slope == pytest.approx(
        1.0 / entropy(theta3).entropy_rate, abs=1e-9
    )
    assert res.entropy_rate == pytest.approx(math.log(2) / 6.0, abs=1e-9)
    # per-seed window ratios are recorded for each n
    assert set(res.window_ratios) == {0, 1}
    assert all(len(v) == 2 for v in res.window_ratios.values())
    assert res.window_nonincreasing_seeds == 2
    assert res.verdict_window
    assert res.t_caps[64] > res.t_caps[32]
    assert res.alpha == 0.5


def test_cutoff_sweep_deterministic_across_workers(theta3):
    r1 = cutoff_sweep(
        theta3, (32, 64), n_seeds=2, master_seed=5, starts="sample:3", workers=1
    )
    r2 = cutoff_sweep(
        theta3, (32, 64), n_seeds=2, master_seed=5, starts="sample:3", workers=2
    )
    assert r1.rows == r2.rows
    assert r1.slope == r2.slope
    assert r1.window_ratios == r2.window_ratios


def test_cutoff_sweep_on_periodic_lifts_reads_the_averaged_curves(theta3):
    # the unlazy walk on a theta3 lift is bipartite: its raw TV plateaus at
    # 1/2, so a sweep that read the raw crossings stopped on the step cap
    res = cutoff_sweep(theta3, (256, 1024, 4096), alpha=0.0, n_seeds=3,
                       master_seed=0)
    assert all(row.reached for row in res.rows)
    assert res.slope == pytest.approx(4.69, abs=0.01)
    assert res.predicted_slope == pytest.approx(6.0 / math.log(2) / 2.0, abs=1e-9)
    assert res.verdict
    row = next(r for r in res.rows if r.eps == res.eps_primary)
    lift = draw_lift(theta3, row.n, 0, row.seed)
    curve = mixing_curves(lift, [row.start], alpha=0.0, eps_list=res.eps_list,
                          t_cap=res.t_caps[row.n])[0]
    assert curve.periodic and curve.crossings[row.eps] is None
    assert row.t_mix == curve.averaged.crossings[row.eps]


@pytest.mark.parametrize("n_seeds", [0, -1])
def test_cutoff_sweep_needs_a_seed(theta3, n_seeds):
    # with no seed the slope fit has nothing to fit and came out NaN
    with pytest.raises(AnalysisError, match="n_seeds must be at least 1"):
        cutoff_sweep(theta3, (8, 16), n_seeds=n_seeds)


def test_cutoff_sweep_rejects_degenerate(c3b):
    with pytest.raises(AnalysisError, match="degenerate"):
        cutoff_sweep(c3b, (16,), n_seeds=1)


def test_cutoff_sweep_respects_explicit_cap(theta3):
    res = cutoff_sweep(
        theta3,
        (16, 32),
        n_seeds=1,
        master_seed=5,
        starts="sample:2",
        t_cap=200,
        workers=1,
    )
    assert res.t_caps == {16: 200, 32: 200}


# ---------------------------------------------------------------------------
# projection identity
# ---------------------------------------------------------------------------


def test_projection_identity(theta3, c3b):
    for g, n, seed in ((theta3, 16, 0), (c3b, 9, 1)):
        lift = generate_uniform_lift(g, n, substream(seed, "lift", n))
        dev = projection_identity_check(lift, 0, 40)
        assert dev <= 1e-12


def test_projected_step_equals_base_step(theta3):
    # one lift step folded over fibers equals one base-chain step
    lift = _lift8(theta3)
    from liftmix import apply_kernel, project_distribution

    mu = np.zeros(lift.n_states)
    mu[5] = 1.0  # (u, 5)
    stepped = apply_kernel(lift, mu)
    folded = project_distribution(lift, stepped)
    base = np.zeros(2)
    base[0] = 1.0
    assert np.allclose(folded, base @ transition_matrix(theta3), atol=1e-14)


# ---------------------------------------------------------------------------
# the buffered step and TV loop against the allocating reference
# ---------------------------------------------------------------------------
#
# The functions below step and measure the way the walk is written down:
# every step allocates its result, every TV its difference, against the
# state-sized stationary law, and each sum is taken one row at a time in
# plain Python.  They are the reference for apply_kernel and for
# mixing_curves, which keeps two swapped distributions and one difference
# buffer and must reproduce them bit for bit.


def _halving_sum(values):
    """The sum of ``values`` in mixing's order, one float at a time: an odd
    count adds its last value onto its first, then the second half is
    added onto the first, until one value is left."""
    values = list(values)
    while len(values) > 1:
        if len(values) % 2:
            values[0] += values.pop()
        half = len(values) // 2
        values = [a + b for a, b in zip(values[:half], values[half:])]
    return values[0]


def _allocating_step(lift, mu, alpha):
    m = np.asarray(mu).reshape(lift.base.n_vertices, lift.n)
    out = alpha * m
    lazy = 1.0 - alpha
    for k, u, v, w in lift.moves:
        out[v] += (lazy * w) * m[u][lift.maps[k ^ 1]]
    return out.reshape(np.shape(mu))


def _allocating_curve(lift, start, alpha, eps_min, t_cap):
    """``(tv, averaged tv or None, mass drift)`` with an early stop at
    ``eps_min``."""
    pi = lift_stationary(lift).reshape(-1)
    mu = np.zeros(lift.n_states)
    mu[start] = 1.0
    periodic = alpha <= 0.0 and lift.period(start) > 1
    tvs = [0.5 * _halving_sum(np.abs(mu - pi).tolist())]
    avg_tvs = tvs[:1] if periodic else []
    t = 0
    while t < t_cap:
        nxt = _allocating_step(lift, mu, alpha)
        t += 1
        tvs.append(0.5 * _halving_sum(np.abs(nxt - pi).tolist()))
        if periodic:
            avg_tvs.append(0.5 * _halving_sum(np.abs(0.5 * (mu + nxt) - pi).tolist()))
        mu = nxt
        if (avg_tvs if periodic else tvs)[-1] <= eps_min:
            break
    return tvs, avg_tvs if periodic else None, abs(_halving_sum(mu.tolist()) - 1.0)


def _first_crossings(tvs, eps_list):
    return {eps: next((t for t, tv in enumerate(tvs) if tv <= eps), None)
            for eps in eps_list}


@settings(max_examples=100, deadline=None)
@given(st.one_of(st.just(THETA3_TEXT), random_graph_with_dead_orientations()),
       st.integers(1, 90), st.integers(0, 2**16), st.sampled_from([0.0, 0.25, 0.5]),
       st.integers(0, 2**16))
@example(THETA3_TEXT, 8, 0, 0.0, 0)  # periodic: theta3 at holding 0
def test_buffered_propagation_matches_the_allocating_reference(text, n, seed, alpha,
                                                               start):
    g = parse_graph(text)
    rng = np.random.default_rng(seed)
    lift = generate_uniform_lift(g, n, rng)
    start %= lift.n_states

    # the step needs no closed class: on a reducible graph some vertex may
    # receive no positive-weight move at all
    mu = rng.dirichlet(np.ones(lift.n_states))
    for shape in (mu.shape, (g.n_vertices, n)):
        m = mu.reshape(shape)
        out = apply_kernel(lift, m, alpha=alpha)
        assert out.shape == shape
        assert np.array_equal(out, _allocating_step(lift, m, alpha))

    if not check_assumptions(g).a1_irreducible:
        return  # the stationary law, and so the TV, needs one closed class
    t_cap = 60
    curve = mixing_curves(lift, [start], alpha=alpha, t_cap=t_cap)[0]
    tvs, avg_tvs, drift = _allocating_curve(lift, start, alpha,
                                            min(DEFAULT_EPS_LIST), t_cap)
    assert np.array_equal(curve.tv, tvs)
    assert curve.crossings == _first_crossings(tvs, DEFAULT_EPS_LIST)
    assert curve.mass_drift == drift
    assert curve.periodic == (avg_tvs is not None)
    if avg_tvs is not None:
        assert np.array_equal(curve.averaged.tv, avg_tvs)
        assert curve.averaged.crossings == _first_crossings(avg_tvs, DEFAULT_EPS_LIST)
        assert curve.averaged.mass_drift == drift


@st.composite
def lift_cases(draw):
    """``(text, n, perms)`` of a lift of a small irreducible graph."""
    text = draw(st.one_of(st.just(THETA3_TEXT), random_graph_with_dead_orientations()))
    g = parse_graph(text)
    if not check_assumptions(g).a1_irreducible:
        text, g = THETA3_TEXT, parse_graph(THETA3_TEXT)
    n = draw(st.integers(1, 12))
    perms = tuple(draw(st.permutations(range(n))) for _ in g.edges)
    return text, n, perms


# one loop whose permutation has the fixed point 0 and the 2-cycle (1 2): at
# holding 0 start 0 is aperiodic and starts 1 and 2 have period 2, and with
# eps 0.5 the periodic rows stop at step 1 while the aperiodic one runs on
MIXED_PERIODS = (bouquet_text(2), 3, ((0, 2, 1),))
# the same loop at u and two identity edges from u to v: the lift has two
# components, {(u, 0), (v, 0)} aperiodic and the other four states of period
# 2, so at holding 0 and eps 0.5 the periodic rows of starts 1 and 4 stop at
# steps 1 and 2 and the aperiodic ones, whose TV never falls below 2/3, run on
TWO_VERTEX_MIXED_PERIODS = ("""\
alpha 0
vertex u
vertex v
edge l u u 1/4 1/4
edge a u v 1/4 1/2
edge b u v 1/4 1/2
""", 3, ((0, 2, 1), (0, 1, 2), (0, 1, 2)))
# no positive-weight move enters v, so a step at holding 0 writes no gather
# there; the vertex chain is reducible, and mixing_curves refuses it
UNENTERED_VERTEX = ("""\
alpha 0
vertex u
vertex v
edge l u u 1/2 1/2
edge a u v 0 1
""", 3, ((2, 0, 1), (1, 2, 0)))


@settings(max_examples=100, deadline=None)
@given(lift_cases(), st.sampled_from([0.0, 0.25, 0.5]),
       st.lists(st.integers(0, 2**16), min_size=1, max_size=12),
       st.sampled_from([0, 1, 7, 60]), st.integers(1, 4),
       st.sampled_from([DEFAULT_EPS_LIST, (0.5,), (0.3, 0.9)]),
       st.integers(0, 2**16), st.integers(1, 3))
@example(MIXED_PERIODS, 0.0, [0, 1, 2, 2, 0], 60, 3, (0.5,), 0, 1)
@example(MIXED_PERIODS, 0.0, [0, 1, 2, 2, 0], 60, 3, (0.5,), 0, 3)
@example(TWO_VERTEX_MIXED_PERIODS, 0.0, [0, 1, 4, 3], 60, 4, (0.5,), 0, 1)
@example((THETA3_TEXT, 8, ((3, 1, 4, 0, 5, 7, 2, 6),) * 3), 0.0, [0, 5, 9], 0,
         2, DEFAULT_EPS_LIST, 0, 2)
# the two rows stop at steps 21 and 15, and start 2's mass drifts on after
# its stop: 3.3e-16 there, 6.7e-16 at step 21
@example((THETA3_TEXT, 8, ((3, 1, 4, 0, 5, 7, 2, 6), (1, 2, 3, 4, 5, 6, 7, 0),
                           tuple(range(8)))), 0.5, [0, 2], 60, 2,
         DEFAULT_EPS_LIST, 0, 1)
@example(UNENTERED_VERTEX, 0.0, [0], 60, 3, DEFAULT_EPS_LIST, 0, 1)
def test_blocked_curves_match_the_allocating_reference(case, alpha, starts, t_cap,
                                                       rows, eps_list, seed, cpus):
    text, n, perms = case
    g = parse_graph(text)
    lift = Lift(g, n, perms)
    starts = [s % lift.n_states for s in starts]

    # a state-major block of distributions, the operator mixing_curves runs,
    # steps row by row as each one would alone
    block = np.random.default_rng(seed).dirichlet(np.ones(lift.n_states), size=rows)
    block = block.reshape(rows, g.n_vertices, n)
    m = np.ascontiguousarray(block.transpose(1, 2, 0))
    work = np.full(2 * n * rows, np.nan)  # a step must not read what work held
    # a step must write every state, those no move enters too
    out = np.full_like(m, np.nan)
    _step(lift, m, alpha, out, work)
    again = np.full_like(m, np.nan)
    _step(lift, m, alpha, again, work)
    assert np.array_equal(out, again)
    for r in range(rows):
        assert np.array_equal(out[..., r], apply_kernel(lift, block[r], alpha=alpha))
        assert np.array_equal(out[..., r], _allocating_step(lift, block[r], alpha))
    if not check_assumptions(g).a1_irreducible:
        return

    # at most rows starts per block, so several blocks, whose rows stop at
    # different steps, run on cpus threads
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mixing, "_BLOCK_DOUBLES", rows * lift.n_states)
        mp.setattr(mixing, "_CPUS", cpus)
        curves = mixing_curves(lift, starts, alpha=alpha, eps_list=eps_list,
                               t_cap=t_cap)
    assert len(curves) == len(starts)
    for start, curve in zip(starts, curves):
        tvs, avg_tvs, drift = _allocating_curve(lift, start, alpha, min(eps_list),
                                                t_cap)
        assert np.array_equal(curve.tv, tvs)
        assert curve.crossings == _first_crossings(tvs, eps_list)
        assert curve.mass_drift == drift
        assert curve.t_cap == t_cap
        assert curve.periodic == (avg_tvs is not None)
        if avg_tvs is not None:
            assert np.array_equal(curve.averaged.tv, avg_tvs)
            assert curve.averaged.crossings == _first_crossings(avg_tvs, eps_list)
            assert curve.averaged.mass_drift == drift


def test_the_mixed_period_lift_puts_different_stops_in_one_block():
    # the pinned examples above exercise what they claim
    for case, starts, periodic, lengths in (
        (MIXED_PERIODS, [0, 1, 2], [False, True, True], [61, 2, 2]),
        (TWO_VERTEX_MIXED_PERIODS, [0, 1, 4, 3], [False, True, True, False],
         [61, 2, 3, 61]),
    ):
        text, n, perms = case
        lift = Lift(parse_graph(text), n, perms)
        curves = mixing_curves(lift, starts, alpha=0.0, eps_list=(0.5,), t_cap=60)
        assert [c.periodic for c in curves] == periodic
        assert [len(c.tv) for c in curves] == lengths


@pytest.mark.parametrize("m", [*range(1, 10), 127, 128, 129, 1000, 1001, 1023, 1024,
                               2000, 4097, 12288])
def test_halve_sums_each_column_in_the_order_of_the_scalar_halving(m):
    # values over 15 decades, some zero, so that another order of the adds
    # gives other last bits
    rng = np.random.default_rng(m)
    for j in (1, 2, 3, 64):
        cols = 10.0 ** rng.uniform(-9, 6, (m, j))
        cols[rng.random((m, j)) < 0.1] = 0.0
        expected = [_halving_sum(cols[:, r].tolist()) for r in range(j)]
        assert mixing._halve(cols.copy()).tolist() == expected
        # every TV is the halving sum of its row's differences
        tvs = mixing._tvs(cols.reshape(1, m, j), np.zeros((1, 1, 1)),
                          np.full(m * j, np.nan))
        assert tvs.tolist() == [0.5 * e for e in expected]


@pytest.mark.parametrize("text, n, alpha", [
    (THETA3_TEXT, 500, 0.0),  # 1,000 states, periodic: the averaged TVs too
    (bouquet_text(4), 1001, 0.0),
    # 1,024 states, with thirds: on bouquet4's dyadic weights and law the
    # TVs came out the same in numpy's order too, so a wrong order went
    # unseen there
    (THETA3_TEXT, 512, 0.5),
])
def test_a_starts_curve_is_the_same_in_blocks_of_any_width(text, n, alpha, monkeypatch):
    lift = draw_lift(parse_graph(text), n, 0)
    starts = list(range(0, lift.n_states, lift.n_states // 64))[:64]
    monkeypatch.setattr(mixing, "_CPUS", 1)
    alone = [mixing_curves(lift, [s], alpha=alpha)[0] for s in starts]
    for rows in (7, 16, 64):
        monkeypatch.setattr(mixing, "_BLOCK_DOUBLES", rows * lift.n_states)
        for curve, want in zip(mixing_curves(lift, starts, alpha=alpha), alone):
            assert np.array_equal(curve.tv, want.tv)
            assert curve.mass_drift == want.mass_drift
            assert curve.periodic == want.periodic
            if want.periodic:
                assert np.array_equal(curve.averaged.tv, want.averaged.tv)


@pytest.mark.parametrize("text, n, alpha", [
    (bouquet_text(4), 512, 0.0),  # 512 states: every count is even
    (bouquet_text(4), 135, 0.0),  # 135 states: odd counts 135, 67 and 33
    (THETA3_TEXT, 65, 0.5),  # 130 states: odd count 65
    (THETA3_TEXT, 65, 0.0),  # the same, periodic: the averaged TVs too
    (bouquet_text(4), 257, 0.0),  # 257 states: one odd count, then a power of 2
    (THETA3_TEXT, 150, 0.5),  # 300 states: odd counts 75, 37 and 9
])
def test_state_major_blocks_match_the_allocating_reference(text, n, alpha, monkeypatch):
    # 20 starts in one block, whose rows stop at different steps, so the
    # block narrows as it runs
    lift = draw_lift(parse_graph(text), n, 0)
    starts = list(range(0, lift.n_states, lift.n_states // 20))[:20]
    monkeypatch.setattr(mixing, "_BLOCK_DOUBLES", len(starts) * lift.n_states)
    monkeypatch.setattr(mixing, "_CPUS", 1)
    curves = mixing_curves(lift, starts, alpha=alpha)
    assert len({len(curve.tv) for curve in curves}) > 1
    for start, curve in zip(starts, curves):
        tvs, avg_tvs, drift = _allocating_curve(lift, start, alpha, min(DEFAULT_EPS_LIST),
                                                curve.t_cap)
        assert np.array_equal(curve.tv, tvs)
        assert curve.crossings == _first_crossings(tvs, DEFAULT_EPS_LIST)
        assert curve.mass_drift == drift
        assert curve.periodic == (avg_tvs is not None)
        if avg_tvs is not None:
            assert np.array_equal(curve.averaged.tv, avg_tvs)
            assert curve.averaged.crossings == _first_crossings(avg_tvs, DEFAULT_EPS_LIST)


@pytest.mark.parametrize("alpha", [0.0, 0.5])
def test_the_blocks_of_a_call_share_one_map_per_thread(theta3, monkeypatch, alpha):
    lift = _lift8(theta3)
    expected = mixing_curves(lift, range(16), alpha=alpha)
    monkeypatch.setattr(mixing, "_BLOCK_DOUBLES", 2 * lift.n_states)
    maps = []

    def nan_map(fileno, length):
        # a fresh map reads as zeros, which would hide a block that reads
        # what it has not written, or what an earlier block left behind
        buf = mmap.mmap(fileno, length)
        buf.write(np.full(length // 8, np.nan).tobytes())
        maps.append(weakref.ref(buf))
        return buf

    monkeypatch.setattr(mixing, "mmap", SimpleNamespace(mmap=nan_map))
    for cpus in (1, 2):
        monkeypatch.setattr(mixing, "_CPUS", cpus)
        maps.clear()
        curves = mixing_curves(lift, range(16), alpha=alpha)
        # eight blocks of two starts
        assert 1 <= len(maps) <= cpus
        assert all(ref() is None for ref in maps)  # unmapped by the return
        assert len(curves) == len(expected)
        for curve, want in zip(curves, expected):
            assert np.array_equal(curve.tv, want.tv)
            assert curve.crossings == want.crossings
            assert curve.mass_drift == want.mass_drift
            assert curve.periodic == want.periodic
            if want.periodic:
                assert np.array_equal(curve.averaged.tv, want.averaged.tv)


@pytest.mark.parametrize("tol, starts", [
    # starts 1 and 3 drift by 2.2e-16 at steps 13 and 12, within the
    # tolerance, and start 2 by 3.3e-16 at step 15, past it
    (2e-17, [1, 3, 2, 0, 6]),
    # every curve fails: start 4's TV at step 15, start 1's already at step 11
    (-0.02, [4, 1, 5, 0]),
])
def test_blocked_curves_raise_the_first_failing_start_in_order(theta3, monkeypatch,
                                                               tol, starts):
    lift = _lift8(theta3)
    monkeypatch.setattr(mixing, "PROPAGATION_TOL", tol)
    expected = None
    for s in starts:
        try:
            mixing_curves(lift, [s])
        except AnalysisError as exc:
            expected = str(exc)
            break
    assert expected is not None
    # on two threads with one start per block, start 1's block fails first
    # in the -0.02 case, and start 4's error is still the one raised
    for cpus in (1, 2):
        monkeypatch.setattr(mixing, "_CPUS", cpus)
        for rows in (1, 2, len(starts)):
            monkeypatch.setattr(mixing, "_BLOCK_DOUBLES", rows * lift.n_states)
            with pytest.raises(AnalysisError) as exc:
                mixing_curves(lift, starts)
            assert str(exc.value) == expected


@pytest.mark.parametrize("tol, starts, expected", [
    # start 4 fails at step 9, after start 0 has failed at step 5
    (-1e-3, [4, 9, 0], "TV increased at step 9: 0.4999999999999999 -> "
                       "0.4999999999999998"),
    # start 4 fails at step 10, start 0 at step 6, and start 6 only loses
    # mass (2.2e-16 against a negative tolerance)
    (-6e-17, [4, 0, 6], "TV increased at step 10: 0.4999999999999998 -> "
                        "0.4999999999999998"),
], ids=["every-start-fails", "one-start-only-drifts"])
def test_periodic_blocks_raise_the_first_failing_start_in_order(theta3, monkeypatch,
                                                                tol, starts, expected):
    # at holding 0 every row of theta3's lift is periodic, so each step also
    # records averaged TVs, failed rows' included
    lift = _lift8(theta3)
    monkeypatch.setattr(mixing, "PROPAGATION_TOL", tol)
    assert all(lift.period(starts) == 2)
    with pytest.raises(AnalysisError) as exc:
        mixing_curves(lift, starts[:1], alpha=0.0)
    assert str(exc.value) == expected
    for cpus in (1, 2):
        monkeypatch.setattr(mixing, "_CPUS", cpus)
        for rows in (1, 2, len(starts)):
            monkeypatch.setattr(mixing, "_BLOCK_DOUBLES", rows * lift.n_states)
            with pytest.raises(AnalysisError) as exc:
                mixing_curves(lift, starts, alpha=0.0)
            assert str(exc.value) == expected


def test_progress_sees_the_same_counts_on_any_number_of_threads(theta3, monkeypatch):
    lift = _lift8(theta3)
    monkeypatch.setattr(mixing, "_BLOCK_DOUBLES", 2 * lift.n_states)
    seen = {}
    for cpus in (1, 2):
        monkeypatch.setattr(mixing, "_CPUS", cpus)
        seen[cpus] = []
        mixing_curves(lift, range(7), progress=lambda done, calls=seen[cpus]:
                      calls.append((done, threading.get_ident())))
    # blocks of two starts, reported in block order from the calling thread
    caller = threading.get_ident()
    assert seen[1] == seen[2] == [(2, caller), (4, caller), (6, caller), (7, caller)]


def test_mixing_curves_reject_starts_that_are_not_integers(theta3):
    # int() would run start 0 for 0.7 and start 1 for True
    lift = _lift8(theta3)
    for starts in ([0.7], [True], np.array([1.0])):
        with pytest.raises(GraphError, match="is not an integer in 0..15"):
            mixing_curves(lift, starts)


def test_no_starts_give_no_curves_and_no_progress(theta3):
    calls = []
    assert mixing_curves(_lift8(theta3), [], progress=calls.append) == []
    assert calls == []


def test_no_thread_outlives_a_call(theta3, monkeypatch):
    lift = _lift8(theta3)
    monkeypatch.setattr(mixing, "_CPUS", 2)
    monkeypatch.setattr(mixing, "_BLOCK_DOUBLES", lift.n_states)
    before = threading.active_count()
    during = []
    mixing_curves(lift, range(6), progress=lambda done: during.append(
        threading.active_count()))
    assert max(during) > before
    assert threading.active_count() == before
    monkeypatch.setattr(mixing, "PROPAGATION_TOL", -0.02)
    with pytest.raises(AnalysisError, match="TV increased"):
        mixing_curves(lift, range(6))
    assert threading.active_count() == before


def test_pool_size_counts_the_cpus_of_the_affinity(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert mixing._pool_size(4, 10) == 1
    # where there is no affinity, the machine's CPU count
    monkeypatch.delattr(os, "sched_getaffinity")
    assert mixing._pool_size(4, 10) == 4


def test_worst_start_puts_unreached_first_and_breaks_ties_by_lower_start():
    assert mixing._worst_start({5: 7, 8: 9, 2: 9, 3: 4}) == (2, 9)
    assert mixing._worst_start({5: 7, 6: None, 2: 9, 4: None}) == (4, None)
    assert mixing._worst_start({3: 0}) == (3, 0)
