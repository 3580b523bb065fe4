"""Cover-walk simulation, ray extraction, entropic weights, estimators."""

import math
import re
import warnings
from bisect import bisect_left
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from liftmix import (
    AnalysisError,
    CoverTrajectory,
    CoverVertex,
    ExcursionStats,
    confirmed_ray,
    entropy,
    estimate_clt_params,
    estimate_speed,
    excursion_decomposition,
    level_weight_check,
    log_entropic_weight,
    log_weight_trace,
    parse_graph,
    ray_localization_profile,
    renewal_edge,
    simulate_walk,
    substream,
)
from liftmix.cover import (
    DEFAULT_MARGIN,
    MOVE_HOLD,
    MOVE_POP,
    _COMPARED_VALUES,
    _build_sampler,
    _ray_prefix_lengths,
    cover_moves,
    cover_vertex_type,
)

from conftest import bouquet_text

LOG2 = math.log(2.0)


def _view(g, alpha=None):
    """The ray law on ``g``'s own oriented edges: its entropy report."""
    return entropy(g, alpha=alpha)


# The three stages chained the way cover-sim chains them: the renewal edge is
# resolved first, then each stage reads the trajectory's confirmed ray.


def _ray(traj, margin=DEFAULT_MARGIN):
    """The labels of the confirmed ray, as a tuple."""
    return tuple(confirmed_ray(traj, margin)[1].tolist())


def _final_stack(traj):
    """The label stack at the end of the walk, replayed move by move."""
    stack = []
    for mv in traj.moves.tolist():
        if mv == MOVE_POP:
            stack.pop()
        elif mv != MOVE_HOLD:
            stack.append(mv)
    return tuple(stack)


def _excursions(traj, view, e_star=None, margin=DEFAULT_MARGIN, **kw):
    edge = renewal_edge(view, e_star)
    return excursion_decomposition(view, edge, *confirmed_ray(traj, margin), **kw)


def _localization(traj, r_max, margin=DEFAULT_MARGIN, **kw):
    return ray_localization_profile(traj, confirmed_ray(traj, margin)[1], r_max, **kw)


# ---------------------------------------------------------------------------
# cover vertices and moves
# ---------------------------------------------------------------------------


def test_cover_vertex_projection(theta3):
    root = CoverVertex("u")
    assert root.height == 0
    assert cover_vertex_type(theta3, root) == "u"
    child = CoverVertex("u", (0,))  # crossed e1+
    assert child.height == 1
    assert cover_vertex_type(theta3, child) == "v"


def test_cover_moves_at_root(theta3):
    moves = cover_moves(theta3, CoverVertex("u"))
    assert [m.kind for m in moves] == ["hold", "up", "up", "up"]
    assert moves[0].probability == 0.5
    for m in moves[1:]:
        assert m.probability == pytest.approx(1.0 / 6.0, abs=1e-12)
        assert m.target.height == 1
    assert sum(m.probability for m in moves) == pytest.approx(1.0, abs=1e-12)


def test_cover_moves_above_root(theta3):
    v = CoverVertex("u", (0,))
    moves = cover_moves(theta3, v)
    kinds = {m.label: m.kind for m in moves if m.label is not None}
    # the reversing orientation e1- pops, the other two push
    assert kinds == {1: "down", 3: "up", 5: "up"}
    down = next(m for m in moves if m.kind == "down")
    assert down.target == CoverVertex("u")


def test_cover_moves_alpha_override(theta3):
    moves = cover_moves(theta3, CoverVertex("u"), alpha=0.0)
    assert [m.kind for m in moves] == ["up", "up", "up"]
    assert sum(m.probability for m in moves) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(AnalysisError):
        cover_moves(theta3, CoverVertex("u"), alpha=1.0)


# ---------------------------------------------------------------------------
# simulation
# ---------------------------------------------------------------------------


def test_simulate_walk_is_deterministic(theta3):
    t1 = simulate_walk(theta3, "u", 2000, rng=substream(0, "walk"))
    t2 = simulate_walk(theta3, "u", 2000, rng=substream(0, "walk"))
    assert np.array_equal(t1.moves, t2.moves)
    assert np.array_equal(t1.heights, t2.heights)


def test_simulate_walk_heights_replay_the_stack(theta3):
    traj = simulate_walk(theta3, "u", 3000, rng=substream(1, "walk"))
    assert len(traj) == 3000
    h = 0
    stack = []
    for t, mv in enumerate(traj.moves):
        if mv == MOVE_HOLD:
            pass
        elif mv == MOVE_POP:
            h -= 1
            stack.pop()
        else:
            # pushes record the oriented label and must compose
            if stack:
                assert mv != (stack[-1] ^ 1)
            h += 1
            stack.append(int(mv))
        assert traj.heights[t] == h
    assert traj.max_height == max(traj.heights)


def test_simulate_walk_moves_drift_upward(theta3):
    traj = simulate_walk(theta3, "u", 30_000, rng=substream(2, "walk"))
    # lazy speed is 1/6 per step
    assert traj.heights[-1] / len(traj) == pytest.approx(1.0 / 6.0, abs=0.02)


def test_simulate_walk_warns_on_recurrent_base(sym3):
    with pytest.warns(UserWarning, match="recurrent"):
        simulate_walk(sym3, "a", 10, rng=substream(5, "walk"))


def test_simulate_walk_rejects_unknown_root(theta3):
    with pytest.raises(AnalysisError):
        simulate_walk(theta3, "nope", 10, rng=substream(6, "walk"))


# ---------------------------------------------------------------------------
# ray extraction
# ---------------------------------------------------------------------------


def test_extract_ray_is_final_stack_prefix(theta3):
    traj = simulate_walk(theta3, "u", 20_000, rng=substream(7, "walk"))
    ray = _ray(traj)
    assert len(ray) == traj.max_height - 25
    assert ray == _final_stack(traj)[: len(ray)]
    # composable and non-backtracking
    for a, b in zip(ray, ray[1:]):
        assert theta3.oriented_end[a] == theta3.oriented_init[b]
        assert b != (a ^ 1)


def test_extract_ray_stops_at_the_final_height(theta3):
    # levels at or above the final height are unconfirmed whatever the
    # margin: the walk may still drop back through them
    traj = simulate_walk(theta3, "u", 3000, rng=substream(0, "cover-walk", 0))
    final = int(traj.heights[-1])
    assert final < traj.max_height
    assert _ray(traj, margin=0) == _final_stack(traj)
    assert len(_ray(traj, margin=1)) == final
    # one push and its pop: the walk is back at the root
    back = CoverTrajectory(root_label="u", alpha=0.0,
                           moves=np.array([0, MOVE_POP], dtype=np.int32),
                           heights=np.array([1, 0], dtype=np.int32))
    assert back.max_height == 1
    with pytest.raises(AnalysisError, match="ended at height 0"):
        confirmed_ray(back, margin=0)
    with pytest.raises(AnalysisError, match="nonnegative"):
        confirmed_ray(traj, margin=-1)


def test_extract_ray_margin_too_large(theta3):
    traj = simulate_walk(theta3, "u", 200, rng=substream(8, "walk"))
    with pytest.raises(AnalysisError):
        confirmed_ray(traj, margin=traj.max_height + 1)


# ---------------------------------------------------------------------------
# entropic weights
# ---------------------------------------------------------------------------


def test_entropic_weight_theta3_levels(theta3):
    view = _view(theta3)
    # a depth-1 vertex is on the ray iff the ray exits along that edge: 1/3
    assert math.exp(log_entropic_weight((0,), view)) == pytest.approx(1 / 3, abs=1e-9)
    # depth 2 multiplies by the non-backtracking continuation 1/2
    assert math.exp(log_entropic_weight((0, 3), view)) == pytest.approx(1 / 6,
                                                                        abs=1e-9)
    assert log_entropic_weight((0, 3), view) == pytest.approx(
        -math.log(6.0), abs=1e-9
    )


def test_log_entropic_weight_rejects_bad_paths(theta3):
    view = _view(theta3)
    with pytest.raises(AnalysisError):
        log_entropic_weight((0, 0), view)  # not composable
    with pytest.raises(AnalysisError):
        log_entropic_weight((0, 1), view)  # backtracking
    with pytest.raises(AnalysisError):
        log_entropic_weight((17,), view)  # label out of range


def test_level_weight_sums_theta3(theta3):
    view = _view(theta3)
    zero = level_weight_check(view, 0, root_label="u")
    assert zero.deviation == 0.0
    assert zero.level_size == 1
    for depth in (1, 2, 4, 6):
        chk = level_weight_check(view, depth, root_label="u")
        assert chk.deviation <= 1e-10
        assert chk.level_size == 3 * 2 ** (depth - 1)


def test_level_weight_sums_pendant_full_graph(pendant):
    # weights computed on the pruned core but summed over the full cover
    view = _view(pendant)
    assert view.exit_prob[6] == 0.0 and view.exit_prob[7] == 0.0
    for depth in (1, 3, 4):
        chk = level_weight_check(view, depth, root_label="u")
        assert chk.deviation <= 1e-10
        assert chk.level_size > 0


def test_level_weight_check_cap(theta3):
    view = _view(theta3)
    with pytest.raises(AnalysisError):
        level_weight_check(view, 25, root_label="u", cap=1000)


def test_log_weight_trace_matches_scratch_recomputation(theta3):
    view = _view(theta3)
    traj = simulate_walk(theta3, "u", 4000, rng=substream(9, "walk"))
    trace = log_weight_trace(traj, view)
    # trace[t] is the log weight of the position reached by move t
    assert len(trace) == len(traj)
    # replay the stack; sampled values (pops especially) must equal the
    # scratch recomputation bit for bit
    stack = []
    checked = 0
    for t, mv in enumerate(traj.moves):
        if mv == MOVE_POP:
            stack.pop()
        elif mv != MOVE_HOLD:
            stack.append(int(mv))
        if t % 97 == 0 or mv == MOVE_POP:
            assert trace[t] == log_entropic_weight(tuple(stack), view)
            checked += 1
    assert checked > 40
    assert np.all(np.isfinite(trace))


def test_log_weight_trace_handles_zero_weight_detours(pendant):
    # detours into the pruned pocket have zero entropic weight: the trace
    # dips to -inf there, never becomes NaN, and recovers exactly on popping
    view = _view(pendant)
    traj = simulate_walk(pendant, "u", 5000, rng=substream(10, "walk"))
    trace = log_weight_trace(traj, view)
    assert not np.isnan(trace).any()
    assert np.isneginf(trace).any()
    pocket_label = pendant.oriented_index_by_name["ep+"]
    stack = []
    for t, mv in enumerate(traj.moves):
        if mv == MOVE_POP:
            stack.pop()
        elif mv != MOVE_HOLD:
            stack.append(int(mv))
        in_pocket = pocket_label in stack
        assert np.isneginf(trace[t]) == in_pocket
    # values after full recovery match the scratch computation exactly
    finite = np.isfinite(trace)
    assert finite.sum() > 100
    last = int(np.nonzero(finite)[0][-1])
    stack = []
    for mv in traj.moves[: last + 1]:
        if mv == MOVE_POP:
            stack.pop()
        elif mv != MOVE_HOLD:
            stack.append(int(mv))
    assert trace[last] == log_entropic_weight(tuple(stack), view)


# ---------------------------------------------------------------------------
# excursions and CLT estimators
# ---------------------------------------------------------------------------


def _theta3_stats(theta3, steps=40_000, seed=11, **kw):
    view = _view(theta3)
    traj = simulate_walk(theta3, "u", steps, rng=substream(seed, "walk"))
    return _excursions(traj, view, **kw)


def test_excursion_decomposition_shapes(theta3):
    st = _theta3_stats(theta3)
    assert st.n > 500
    assert st.span == int(st.durations.sum())
    assert (st.durations >= 1).all()
    assert (st.log_weight_increments >= 0.0).all()
    assert (st.level_increments >= 1).all()
    assert not st.degenerate
    assert 0 <= st.e_star < 6


def test_excursion_h_and_speed_match_analysis(theta3):
    st = _theta3_stats(theta3)
    est = estimate_clt_params(st)
    assert est.n_excursions == st.n
    assert not est.degenerate
    assert not est.cylindrical
    assert est.h_se > 0.0
    assert abs(est.h_est - LOG2 / 6.0) <= 3.0 * est.h_se
    sp = estimate_speed(st)
    assert abs(sp.value - 1.0 / 6.0) <= 3.0 * sp.se
    # spread of the per-step information: about 0.466 for this graph at
    # holding probability 1/2 (long-run value); the plug-in spread
    # estimate is noisy at this sample size, so compare in its own SE
    assert est.sigma_se > 0.0
    assert abs(est.sigma_est - 0.466) <= 4.0 * est.sigma_se
    assert 0.3 < est.sigma_est < 0.65


def test_excursion_renewal_choice_is_immaterial(theta3):
    st1 = _theta3_stats(theta3, e_star="e1+")
    st2 = _theta3_stats(theta3, e_star="e2-")
    assert st1.e_star == 0
    assert st2.e_star == 3
    e1 = estimate_clt_params(st1)
    e2 = estimate_clt_params(st2)
    tol = 4.0 * math.hypot(e1.h_se, e2.h_se)
    assert abs(e1.h_est - e2.h_est) <= tol


def test_excursion_rejects_unknown_renewal_edge(theta3):
    with pytest.raises(AnalysisError):
        _theta3_stats(theta3, e_star="e9+")
    with pytest.raises(AnalysisError):
        _theta3_stats(theta3, e_star=17)


@pytest.mark.parametrize("e_star, want", [
    ("e2-", 3),
    (4, 4),
    # all six edges of theta3 carry 1/6 up to rounding: the lowest one wins
    (None, 0),
    ("e9+", "unknown oriented edge 'e9+'"),
    (6, "oriented edge index 6 out of range"),
    (-1, "oriented edge index -1 out of range"),
])
def test_renewal_edge_takes_a_name_an_index_or_nothing(theta3, e_star, want):
    view = _view(theta3)
    if isinstance(want, str):
        with pytest.raises(AnalysisError, match=re.escape(want)):
            renewal_edge(view, e_star)
    else:
        assert renewal_edge(view, e_star) == want


def test_excursion_needs_enough_renewals(theta3):
    view = _view(theta3)
    traj = simulate_walk(theta3, "u", 400, rng=substream(12, "walk"))
    with pytest.raises(AnalysisError, match="excursions"):
        _excursions(traj, view)


def test_excursions_degenerate_on_deterministic_ray(c3b):
    view = _view(c3b, alpha=0.0)
    traj = simulate_walk(c3b, "a", 20_000, rng=substream(13, "walk"))
    st = _excursions(traj, view)
    assert st.degenerate
    est = estimate_clt_params(st)
    assert est.degenerate
    assert est.h_est == pytest.approx(0.0, abs=1e-9)
    sp = estimate_speed(st)
    assert abs(sp.value - 0.4) <= 3.0 * sp.se


def test_estimate_clt_params_cylindrical_flag():
    st = ExcursionStats(
        durations=np.full(60, 3, dtype=np.int64),
        log_weight_increments=np.full(60, LOG2),
        level_increments=np.ones(60, dtype=np.int64),
        e_star=0,
        degenerate=False,
    )
    est = estimate_clt_params(st)
    assert est.cylindrical
    assert est.sigma_est == 0.0
    assert est.h_est == pytest.approx(LOG2 / 3.0, abs=1e-12)


def test_estimate_clt_params_enforces_min_count():
    st = ExcursionStats(
        durations=np.full(10, 3, dtype=np.int64),
        log_weight_increments=np.full(10, LOG2),
        level_increments=np.ones(10, dtype=np.int64),
        e_star=0,
        degenerate=False,
    )
    with pytest.raises(AnalysisError):
        estimate_clt_params(st)
    assert estimate_clt_params(st, min_count=5).n_excursions == 10


def test_excursions_reject_pocket_root(pendant):
    view = _view(pendant)
    traj = simulate_walk(pendant, "p", 20_000, rng=substream(14, "walk"))
    with pytest.raises(AnalysisError, match="core"):
        _excursions(traj, view)


def test_excursions_work_from_core_root_of_pendant(pendant):
    view = _view(pendant)
    traj = simulate_walk(pendant, "u", 40_000, rng=substream(15, "walk"))
    st = _excursions(traj, view)
    est = estimate_clt_params(st)
    target = 0.75 * LOG2 / 6.0
    assert abs(est.h_est - target) <= 3.0 * est.h_se
    sp = estimate_speed(st)
    assert abs(sp.value - 0.125) <= 3.0 * sp.se


# ---------------------------------------------------------------------------
# localization around the ray
# ---------------------------------------------------------------------------


def test_localization_profile_theta3(theta3):
    trajs = [
        simulate_walk(theta3, "u", 15_000, alpha=0.0, rng=substream(16, "walk", i))
        for i in range(8)
    ]
    profiles = [_localization(traj, r_max=6) for traj in trajs]
    for prof in profiles:
        assert len(prof.counts) == 7
        assert prof.tail_freq == {r: c / prof.n_samples for r, c in enumerate(prof.counts)}
    # raw counts pool exactly across trajectories, as cover-sim pools its trials
    n_samples = sum(prof.n_samples for prof in profiles)
    assert n_samples > 1000
    tail = (np.sum([prof.counts for prof in profiles], axis=0) / n_samples).tolist()
    assert all(0.0 <= x <= 1.0 for x in tail)
    # tails are nonincreasing and genuinely decay
    assert all(a >= b for a, b in zip(tail, tail[1:]))
    assert tail[0] < 0.6
    assert tail[4] < tail[0]


# ---------------------------------------------------------------------------
# the production path against the scalar reference loops
# ---------------------------------------------------------------------------
#
# The functions below replay a walk one step at a time, the way the walk is
# defined.  They are the reference for simulate_walk and for the chain
# cover-sim runs on its trajectory (renewal_edge, confirmed_ray, then
# excursion_decomposition and ray_localization_profile), which do the same
# work with one sequential loop over the moving draws and numpy for the rest.


def _scalar_walk(g, root_label, steps, alpha, rng):
    thresholds, labels = [], []
    for u in range(g.n_vertices):
        ks = [int(k) for k in g.out_oriented[u] if g.oriented_weight[k] > 0.0]
        acc, cums = alpha, []
        for k in ks:
            acc += (1.0 - alpha) * float(g.oriented_weight[k])
            cums.append(acc)
        if cums:
            cums[-1] = max(cums[-1], 1.0)
        thresholds.append(cums)
        labels.append(ks)
    moves, heights, stack = [], [], []
    cur = g.vertex_index[root_label]
    block = rng.random(4096)
    bi = 0
    while len(moves) < steps:
        if bi == len(block):
            block = rng.random(4096)
            bi = 0
        r = block[bi]
        bi += 1
        if r < alpha:
            moves.append(MOVE_HOLD)
        else:
            cums = thresholds[cur]
            k = labels[cur][min(bisect_left(cums, r), len(cums) - 1)]
            if stack and k == (stack[-1] ^ 1):
                stack.pop()
                moves.append(MOVE_POP)
            else:
                stack.append(k)
                moves.append(k)
            cur = int(g.oriented_end[k])
        heights.append(len(stack))
    return moves, heights


def _scalar_confirmed_level(traj, margin):
    if margin < 0:
        raise AnalysisError("margin must be nonnegative")
    heights = traj.heights.tolist()
    max_h = max(heights, default=0)
    if max_h - margin <= 0:
        raise AnalysisError(
            f"trajectory too short: max height {max_h} does not exceed "
            f"margin {margin}"
        )
    if heights[-1] <= 0:
        raise AnalysisError(
            f"trajectory ended at height {heights[-1]}: no ray level is confirmed"
        )
    return min(max_h - margin, heights[-1])


def _scalar_last_times(traj):
    last = {0: -1}
    for t, h in enumerate(traj.heights.tolist()):
        last[h] = t
    return last


def _scalar_ray(traj, margin):
    limit = _scalar_confirmed_level(traj, margin)
    stack = []
    for mv in traj.moves[: _scalar_last_times(traj)[limit] + 1].tolist():
        if mv == MOVE_POP:
            stack.pop()
        elif mv != MOVE_HOLD:
            stack.append(mv)
    assert len(stack) == limit
    return tuple(stack)


def _scalar_excursions(traj, ray, e_star, margin, min_count):
    if e_star is None:
        if not (ray.edge_freq > 0).any():
            raise AnalysisError("ray law carries no positive edge frequency")
        # the first edge within the solver's achieved error of the top
        freq = ray.edge_freq.tolist()
        top = max(freq)
        e_star = next(k for k, f in enumerate(freq)
                      if f >= top - ray.first_passage.error)
    limit = _scalar_confirmed_level(traj, margin)
    last = _scalar_last_times(traj)
    trace = log_weight_trace(traj, ray)
    exit_times, exit_levels = [], []
    for level in range(limit):
        t_move = last[level] + 1
        if traj.moves[t_move] == e_star:
            exit_times.append(t_move)
            exit_levels.append(level + 1)
    if len(exit_times) < min_count + 1:
        raise AnalysisError(
            f"only {max(len(exit_times) - 1, 0)} complete excursions below "
            f"the confirmed level; need at least {min_count}"
        )
    times = np.array(exit_times, dtype=np.int64)
    logw = trace[times]
    if not np.isfinite(logw).all():
        raise AnalysisError(
            "a ray renewal vertex has zero entropic weight; the walk "
            "started outside the pruned core (pick a root on a core vertex)"
        )
    durations = np.diff(times)
    increments = -np.diff(logw)
    if (durations < 1).any():
        raise AnalysisError("internal error: non-positive excursion duration")
    if (increments < -1e-9).any():
        raise AnalysisError("internal error: negative log-weight increment")
    return ExcursionStats(
        durations=durations,
        log_weight_increments=np.clip(increments, 0.0, None),
        level_increments=np.diff(np.array(exit_levels, dtype=np.int64)),
        e_star=e_star,
        degenerate=bool((increments <= 1e-9).all()),
    )


def _scalar_prefix_lengths(traj, ray):
    """Per step, the height and the length of the common prefix of the
    walk's path with ``ray``."""
    out = []
    cpl = 0
    stack = []
    for mv in traj.moves.tolist():
        if mv == MOVE_POP:
            stack.pop()
            cpl = min(cpl, len(stack))
        elif mv != MOVE_HOLD:
            if cpl == len(stack) < len(ray) and ray[len(stack)] == mv:
                cpl += 1
            stack.append(mv)
        out.append((len(stack), cpl))
    return out


def _scalar_localization(traj, r_max, margin, max_samples):
    ray = _scalar_ray(traj, margin)
    limit = len(ray)
    eligible = int(np.count_nonzero(traj.heights <= limit))
    stride = max(1, eligible // max(1, max_samples))
    counts = [0] * (r_max + 1)
    n_samples = seen = 0
    for height, cpl in _scalar_prefix_lengths(traj, ray):
        if height <= limit:
            if seen % stride == 0:
                n_samples += 1
                for r in range(min(height - cpl, r_max + 1)):
                    counts[r] += 1
            seen += 1
    return tuple(counts), n_samples


def _outcome(fn, *args, **kwargs):
    """``fn``'s result, or the message of the AnalysisError it raises."""
    try:
        return fn(*args, **kwargs), None
    except AnalysisError as exc:
        return None, str(exc)


@st.composite
def walk_cases(draw):
    """A small multigraph in which some orientations carry weight zero,
    sometimes with a pendant vertex (a root off the core), plus a walk
    configuration and a ray law made up over the graph's oriented edges."""
    n_v = draw(st.integers(1, 4))
    ends = [(draw(st.integers(0, n_v - 1)), draw(st.integers(0, n_v - 1)))
            for _ in range(draw(st.integers(1, 5)))]
    # loops at one vertex make most graphs branch, so the walk escapes
    ends += [(0, 0)] * draw(st.sampled_from([2, 2, 1, 0]))
    if draw(st.booleans()):
        ends.append((n_v, draw(st.integers(0, n_v - 1))))
    raw = [[draw(st.integers(0, 2)), draw(st.integers(0, 2))] for _ in ends]
    for w in raw:
        if w == [0, 0]:
            w[0] = 1
    slots = {}
    for j, (t, h) in enumerate(ends):
        slots.setdefault(t, []).append((j, 0))
        slots.setdefault(h, []).append((j, 1))
    for out in slots.values():
        if all(raw[j][side] == 0 for j, side in out):
            j, side = out[0]
            raw[j][side] = 1
    total = {u: sum(raw[j][side] for j, side in out) for u, out in slots.items()}
    lines = ["alpha 0"] + [f"vertex v{u}" for u in sorted(slots)]
    lines += [f"edge e{j} v{t} v{h} {raw[j][0]}/{total[t]} {raw[j][1]}/{total[h]}"
              for j, (t, h) in enumerate(ends)]
    g = parse_graph("\n".join(lines) + "\n")
    # exit probabilities of at most half keep the ray's log-weights
    # nonincreasing; zeros put whole subtrees off the ray
    scale = draw(st.lists(st.sampled_from([0.5, 0.25, 0.0]) | st.floats(0.05, 0.5),
                          min_size=g.n_oriented, max_size=g.n_oriented))
    freq = draw(st.lists(st.sampled_from([1.0, 2.0, 0.0]),
                         min_size=g.n_oriented, max_size=g.n_oriented))
    # the solver error decides which frequencies tie with the largest
    error = draw(st.sampled_from([0.0, 0.0, 1.0]))
    view = SimpleNamespace(graph=g, exit_prob=g.oriented_weight * np.array(scale),
                           edge_freq=np.array(freq),
                           first_passage=SimpleNamespace(error=error))
    steps = draw(st.sampled_from([20_000, 20_000, 20_000, 0, 1, 4095, 4096, 4097]))
    if steps == 20_000:
        steps += draw(st.integers(-1000, 1000))
    return {
        "g": g,
        "view": view,
        "root": draw(st.sampled_from(g.vertices)),
        "alpha": draw(st.sampled_from([0.0, 0.25, 0.5, 0.9])),
        "steps": steps,
        "seed": draw(st.integers(0, 2**16)),
        "margin": draw(st.sampled_from([0, 0, 1, 5, 25])),
        # the default renewal edge, the edge the walk pushes most, or any
        "e_star": draw(st.sampled_from([None, "most pushed"])
                       | st.integers(0, g.n_oriented - 1)),
        "min_count": draw(st.sampled_from([0, 1, 30])),
        "r_max": draw(st.integers(0, 6)),
        "max_samples": draw(st.sampled_from([1, 7, 5000])),
    }


def _check_against_scalar_loops(traj, view, margin, e_star, min_count, r_max,
                                max_samples):
    assert _outcome(_ray, traj, margin) == _outcome(_scalar_ray, traj, margin)

    got, err = _outcome(_excursions, traj, view, e_star=e_star, margin=margin,
                        min_count=min_count)
    want, want_err = _outcome(_scalar_excursions, traj, view, e_star, margin,
                              min_count)
    assert err == want_err
    if want is not None:
        for field in ("durations", "log_weight_increments", "level_increments"):
            a, b = getattr(got, field), getattr(want, field)
            assert a.dtype == b.dtype and np.array_equal(a, b)
        assert (got.e_star, got.degenerate) == (want.e_star, want.degenerate)

    prof, err = _outcome(_localization, traj, r_max, margin=margin,
                         max_samples=max_samples)
    want, want_err = _outcome(_scalar_localization, traj, r_max, margin, max_samples)
    assert err == want_err
    if want is not None:
        assert (prof.counts, prof.n_samples) == want


@settings(max_examples=100, deadline=None)
@given(walk_cases())
def test_walk_and_its_analysis_match_the_scalar_loops(case):
    g = case["g"]
    rng_ref = substream(case["seed"], "walk")
    rng = substream(case["seed"], "walk")
    moves, heights = _scalar_walk(g, case["root"], case["steps"], case["alpha"],
                                  rng_ref)
    with warnings.catch_warnings():
        # some graphs drawn here are recurrent, and simulate_walk says so
        warnings.simplefilter("ignore", UserWarning)
        traj = simulate_walk(g, case["root"], case["steps"], alpha=case["alpha"],
                             rng=rng)
    assert traj.moves.tolist() == moves
    assert traj.heights.tolist() == heights
    assert rng.bit_generator.state == rng_ref.bit_generator.state

    e_star = case["e_star"]
    if e_star == "most pushed":
        pushed = traj.moves[traj.moves >= 0]
        e_star = int(np.bincount(pushed).argmax()) if len(pushed) else None
    _check_against_scalar_loops(traj, case["view"], case["margin"], e_star,
                                case["min_count"], case["r_max"], case["max_samples"])


@pytest.mark.parametrize("margin", [0, 1])
def test_walks_ending_below_their_peak_match_the_scalar_loops(theta3, margin):
    # most of these walks end a few levels below their maximum height, so
    # the final height caps the confirmed level
    view = _view(theta3)
    capped = 0
    for trial in range(12):
        traj = simulate_walk(theta3, "u", 3000, rng=substream(0, "cover-walk", trial))
        capped += int(traj.heights[-1]) < traj.max_height - margin
        _check_against_scalar_loops(traj, view, margin, None, 30, 6, 500)
    assert capped >= 3


def _assert_walk_matches_scalar(g, root, steps, alpha, rng_ref, rng):
    moves, heights = _scalar_walk(g, root, steps, alpha, rng_ref)
    traj = simulate_walk(g, root, steps, alpha=alpha, rng=rng)
    assert traj.moves.tolist() == moves
    assert traj.heights.tolist() == heights
    assert rng.bit_generator.state == rng_ref.bit_generator.state
    return traj


@pytest.mark.parametrize("name, alpha", [("theta3", 0.5), ("bouquet4", 0.0)])
def test_benchmark_walks_match_the_scalar_walk(request, name, alpha):
    # cover-mc's walk and a one-vertex walk without holds, whose stacks grow
    # far deeper than the hypothesis cases' 21,000 steps reach
    g = request.getfixturevalue(name)
    traj = _assert_walk_matches_scalar(g, g.vertices[0], 250_000, alpha,
                                       substream(0, "cover-walk", 0),
                                       substream(0, "cover-walk", 0))
    assert traj.max_height > 10_000


@pytest.mark.parametrize("root", ["a", "b", "c"])
def test_a_block_of_holds_keeps_the_walks_vertex(c3b, root):
    # at alpha = 0.999 this stream's block 10 is all holds, so the vertex the
    # walk reached in block 9 must carry over to block 11
    alpha, steps = 0.999, 12 * 4096
    blocks = substream(4, "walk").random(steps).reshape(12, 4096)
    assert (blocks[10] < alpha).all() and (blocks[11] >= alpha).any()
    traj = _assert_walk_matches_scalar(c3b, root, steps, alpha, substream(4, "walk"),
                                       substream(4, "walk"))
    assert (traj.moves[10 * 4096:11 * 4096] == MOVE_HOLD).all()


@pytest.mark.parametrize("alpha", [0.0, 0.5])
@pytest.mark.parametrize("loops", [127, 128])
def test_walks_at_and_past_the_byte_limit_match_the_scalar_walk(loops, alpha):
    # 127 loops give 254 labels, the most whose ranks and codes pass between
    # numpy and the loop as bytes; 128 give 256, which take the list path,
    # where a byte would wrap their top ranks and labels
    g = parse_graph(bouquet_text(2 * loops))
    for steps in (0, 4095, 4096, 4097, 20_000):
        traj = _assert_walk_matches_scalar(g, "o", steps, alpha,
                                           substream(7, "walk", steps),
                                           substream(7, "walk", steps))
        assert traj.moves.dtype == traj.heights.dtype == np.int32
    assert traj.moves.max() == 2 * loops - 1


def _one_vertex_text(k, alpha):
    """One vertex with ``k`` positive orientations of weight ``1/k``; for an
    odd ``k`` one loop's reverse has weight 0."""
    lines = [f"alpha {alpha}", "vertex o"]
    for j in range(k // 2):
        lines.append(f"edge l{j} o o 1/{k} 1/{k}")
    if k % 2:
        lines.append(f"edge dead o o 1/{k} 0")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("alpha", ["0", "1/2"])
@pytest.mark.parametrize("past", [0, 1])
def test_walks_at_and_past_the_comparison_cutoff_match_the_scalar_walk(past, alpha):
    # k positive orientations at one vertex give k - 1 grid values below 1:
    # the cutoff's count of them is ranked by comparisons, one more by
    # searchsorted
    g = parse_graph(_one_vertex_text(_COMPARED_VALUES + 1 + past, alpha))
    grid = _build_sampler(g, g.alpha)[0]
    assert (grid < 1.0).sum() == _COMPARED_VALUES + past
    for steps in (4097, 20_000):
        _assert_walk_matches_scalar(g, "o", steps, g.alpha, substream(8, "walk", steps),
                                    substream(8, "walk", steps))


@pytest.mark.parametrize("name, alpha, draws", [
    # every threshold of bouquet4 at alpha 0 is dyadic, so a draw can equal
    # one exactly; bisect_left puts such a draw on the label it closes
    ("bouquet4", 0.0, [0.25, 0.5, 0.75, 0.0, 0.5, 0.25, 0.75, 0.5, 0.1]),
    # a draw equal to alpha moves, on the first label
    ("theta3", 0.5, [0.5, 0.75, 0.5, 0.625, 0.5, 0.25, 0.875]),
])
def test_draws_equal_to_a_threshold_match_the_scalar_walk(request, name, alpha, draws):
    g = request.getfixturevalue(name)
    grid = _build_sampler(g, alpha)[0]
    draws = np.concatenate((draws, grid[grid < 1.0]))
    rng = SimpleNamespace(random=lambda n: np.resize(draws, n))
    moves, heights = _scalar_walk(g, g.vertices[0], 10_000, alpha, rng)
    traj = simulate_walk(g, g.vertices[0], 10_000, alpha=alpha, rng=rng)
    assert traj.moves.tolist() == moves
    assert traj.heights.tolist() == heights


# Hand-built trajectories for the two rules behind the confirmed ray and the
# localization profile: the ray's level-j label is the last push to level j,
# and a step's common prefix with the ray is read from the outermost off-ray
# interval covering it.  Labels are plain integers; neither rule reads the
# graph.  The ray of each is the final stack: 0, 4, 5.


def _hand_built(moves):
    moves = np.array(moves, dtype=np.int32)
    heights = np.cumsum(np.where(moves == MOVE_POP, -1, moves != MOVE_HOLD),
                        dtype=np.int32)
    return CoverTrajectory(root_label="u", alpha=0.0, moves=moves, heights=heights)


P, H = MOVE_POP, MOVE_HOLD
#: Moves of each case, and the common prefix with the ray after each step.
HAND_BUILT = {
    # 2 opens an off-ray interval at level 2, and 3 and 6 open nested ones
    # at level 3; after they close the prefix stays at the outer level 1
    "nested": ([0, 2, 3, H, P, 6, P, P, 4, 5],
               [1, 1, 1, 1, 1, 1, 1, 1, 2, 3]),
    # 4 at level 2 is the ray's label, but it sits on the off-ray 7 at level 1
    "opens at level 1": ([7, 4, P, P, 0, 4, 2, P, 5],
                         [0, 0, 0, 0, 1, 2, 2, 2, 3]),
    # an off-ray interval closes at the step before the next one opens, and
    # the walk returns to the root before it leaves for good
    "adjacent": ([0, 4, 5, P, 3, P, 1, P, 5, P, P, P, 0, 4, 5],
                 [1, 2, 3, 2, 2, 2, 2, 2, 3, 2, 1, 0, 1, 2, 3]),
    # every push is the ray's label, some of them pushed twice
    "no off-ray push": ([0, H, 4, P, 4, 5, P, H, 5],
                        [1, 1, 2, 1, 2, 3, 2, 2, 3]),
}


@pytest.mark.parametrize("name", sorted(HAND_BUILT))
def test_hand_built_rays_and_prefixes_match_the_scalar_loops(name):
    moves, prefixes = HAND_BUILT[name]
    traj = _hand_built(moves)
    ray = _scalar_ray(traj, 0)
    assert ray == (0, 4, 5)
    times, labels = confirmed_ray(traj, margin=0)
    assert tuple(labels.tolist()) == ray
    last = _scalar_last_times(traj)
    assert times.tolist() == [last[j] + 1 for j in range(3)]
    assert [cpl for _, cpl in _scalar_prefix_lengths(traj, ray)] == prefixes
    # every step is eligible and sampled, the opening pushes and the
    # closing pops of the off-ray intervals among them
    steps = np.arange(len(traj))
    got = _ray_prefix_lengths(traj, labels, steps)
    assert got.tolist() == prefixes
    r_max = traj.max_height
    prof = ray_localization_profile(traj, labels, r_max, max_samples=len(traj))
    assert (prof.counts, prof.n_samples) == \
        _scalar_localization(traj, r_max, 0, len(traj))
