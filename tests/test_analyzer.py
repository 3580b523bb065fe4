"""Escape analysis: first passage, ray law, entropy, speed, predictions.

Expected constants come from closed forms where available:

* three parallel edges at weight 1/3 ("theta"): crossing probability is the
  smaller root of 2q^2 - 3q + 1, i.e. 1/2; every ray exit is 1/3; per-level
  entropy log 2; escape speed 1/3.
* bouquet of d/2 loops at weight 1/d: crossing probability 1/(d-1), exits
  1/d, per-level entropy log(d-1), escape speed (d-2)/d.
* biased 3-cycle (0.7/0.3): forward crossing 1, backward 3/7, deterministic
  ray (degenerate entropy), drift speed 0.4.

The asymmetric theta constants were computed once with an independent
40-digit fixed-point solve and are frozen here to 15 significant digits.
"""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from liftmix import (
    AnalysisError,
    GraphError,
    NonConvergenceError,
    core,
    entropy,
    is_cover_transient,
    parse_graph,
    predict_mixing_time,
    ray_law,
    solve_first_passage,
    speed,
    weight_entropy,
)

from conftest import bouquet_text, random_graph_with_dead_orientations

LOG2 = math.log(2.0)

# frozen independent solve for the asymmetric theta (0.5/0.2, 0.3/0.3, 0.2/0.5)
ASYM_Q = [
    0.673831923137306,
    0.269532769254922,
    0.410696041346029,
    0.410696041346029,
    0.269532769254922,
    0.673831923137306,
]
ASYM_RETURN = 0.392741581658731
ASYM_EXIT = [
    0.601446771821093,
    0.107423155286550,
    0.291130072892357,
    0.291130072892357,
    0.107423155286550,
    0.601446771821093,
]
ASYM_FREQ = [
    0.341488943463578,
    0.027234416081223,
    0.131276640455199,
    0.131276640455199,
    0.027234416081223,
    0.341488943463578,
]
ASYM_HW = 0.574681161231674
ASYM_S0 = 0.477320092249599


# ---------------------------------------------------------------------------
# first-passage fixed point
# ---------------------------------------------------------------------------


def test_first_passage_theta3(theta3):
    fp = solve_first_passage(theta3)
    assert np.allclose(fp.prob, 0.5, atol=1e-9)
    assert np.allclose(fp.return_prob, 0.5, atol=1e-9)
    assert fp.residual <= 1e-12
    assert fp.iterations < 200
    assert fp.as_dict(theta3) == pytest.approx(
        {name: 0.5 for name in ("e1+", "e1-", "e2+", "e2-", "e3+", "e3-")},
        abs=1e-9,
    )


def test_first_passage_returns_minimal_root(theta3):
    # 2q^2 - 3q + 1 = 0 has roots 1/2 and 1; iteration from zero must
    # select 1/2, while restarting at the all-ones root stays there.
    fp = solve_first_passage(theta3)
    assert np.max(fp.prob) < 0.75
    ones = solve_first_passage(theta3, init=np.ones(6))
    assert np.allclose(ones.prob, 1.0, atol=1e-12)


def test_first_passage_restarts_from_its_own_root(theta3):
    fp = solve_first_passage(theta3)
    again = solve_first_passage(theta3, init=fp.prob)
    assert again.iterations <= 2
    assert np.allclose(again.prob, fp.prob, atol=1e-12)


def test_first_passage_satisfies_equations(asym_theta):
    fp = solve_first_passage(asym_theta)
    g = asym_theta
    w = g.oriented_weight
    q = fp.prob
    inv = np.arange(6) ^ 1
    contrib = w * q[inv]
    total = np.zeros(2)
    np.add.at(total, g.oriented_init, contrib)
    s = total[g.oriented_init] - contrib
    assert np.max(np.abs(w + q * s - q)) <= 1e-11
    assert np.allclose(q, ASYM_Q, atol=1e-9)
    assert np.allclose(fp.return_prob, ASYM_RETURN, atol=1e-9)
    # prob_over_weight agrees with q / w where w > 0
    assert np.allclose(fp.prob_over_weight, q / w, atol=1e-9)


def test_first_passage_bouquets():
    for d in (4, 6, 8):
        g = parse_graph(bouquet_text(d))
        fp = solve_first_passage(g)
        assert np.allclose(fp.prob, 1.0 / (d - 1), atol=1e-9)


def test_first_passage_biased_cycle(c3b):
    fp = solve_first_passage(c3b)
    # forward orientation is crossed surely; backward with probability 3/7
    assert np.allclose(fp.prob[0::2], 1.0, atol=1e-9)
    assert np.allclose(fp.prob[1::2], 3.0 / 7.0, atol=1e-9)
    assert np.allclose(fp.return_prob, 0.6, atol=1e-9)


def test_first_passage_on_recurrent_graph(sym3):
    # the critical system q = 1/2 + q^2 / 2 has a double root at 1: Newton
    # gains one bit per step, so a small budget runs out ...
    with pytest.raises(NonConvergenceError) as err:
        solve_first_passage(sym3, max_iter=3)
    assert err.value.residual > 0
    assert err.value.iterations == 3
    # ... and an unbudgeted solve reaches the root to about sqrt(eps)
    fp = solve_first_passage(sym3)
    assert np.allclose(fp.prob, 1.0, atol=1e-6)


def test_first_passage_rejects_unpruned_graph(pendant):
    with pytest.raises(AnalysisError):
        solve_first_passage(pendant)


# ---------------------------------------------------------------------------
# ray law
# ---------------------------------------------------------------------------


def test_ray_law_theta3(theta3):
    fp = solve_first_passage(theta3)
    rl = ray_law(theta3, fp)
    assert np.allclose(rl.exit_prob, 1.0 / 3.0, atol=1e-9)
    assert np.allclose(rl.edge_freq, 1.0 / 6.0, atol=1e-9)
    assert rl.stationarity_residual <= 1e-10
    assert rl.support.all()
    # the ray chain forbids backtracking and non-composable steps
    k = rl.kernel
    for a in range(6):
        assert k[a, a ^ 1] == 0.0
        row = k[a]
        assert row.sum() == pytest.approx(1.0, abs=1e-9)
        for b in range(6):
            if theta3.oriented_end[a] != theta3.oriented_init[b]:
                assert row[b] == 0.0
    # allowed continuations split the mass evenly: 1/3 over 2/3
    assert k[0, 3] == pytest.approx(0.5, abs=1e-9)
    assert k[0, 5] == pytest.approx(0.5, abs=1e-9)


def test_ray_law_exit_sums_to_one_per_vertex(asym_theta):
    fp = solve_first_passage(asym_theta)
    rl = ray_law(asym_theta, fp)
    sums = np.zeros(2)
    np.add.at(sums, asym_theta.oriented_init, rl.exit_prob)
    assert np.allclose(sums, 1.0, atol=1e-9)
    assert np.allclose(rl.exit_prob, ASYM_EXIT, atol=1e-9)
    assert np.allclose(rl.edge_freq, ASYM_FREQ, atol=1e-9)
    assert rl.edge_freq.sum() == pytest.approx(1.0, abs=1e-12)


def test_ray_law_biased_cycle_is_deterministic(c3b):
    fp = solve_first_passage(c3b)
    rl = ray_law(c3b, fp)
    assert np.allclose(rl.exit_prob[0::2], 1.0, atol=1e-9)
    assert np.all(rl.exit_prob[1::2] <= 1e-9)
    assert np.allclose(rl.edge_freq[0::2], 1.0 / 3.0, atol=1e-9)
    assert np.allclose(rl.edge_freq[1::2], 0.0, atol=1e-12)
    assert list(rl.support) == [True, False] * 3
    assert sorted(rl.recurrent_class) == [0, 2, 4]


# ---------------------------------------------------------------------------
# entropy and speed constants
# ---------------------------------------------------------------------------


def test_weight_entropy_theta3(theta3):
    fp = solve_first_passage(theta3)
    rl = ray_law(theta3, fp)
    we = weight_entropy(rl)
    assert not we.degenerate
    assert we.value == pytest.approx(LOG2, abs=1e-9)


def test_speed_theta3(theta3):
    fp = solve_first_passage(theta3)
    rl = ray_law(theta3, fp)
    assert speed(fp, rl) == pytest.approx(1.0 / 3.0, abs=1e-9)


@pytest.mark.parametrize("d", [4, 6, 8])
def test_bouquet_constants(d):
    g = parse_graph(bouquet_text(d))
    rep = entropy(g)
    assert rep.per_level_entropy == pytest.approx(math.log(d - 1), abs=1e-9)
    assert rep.escape_speed == pytest.approx((d - 2) / d, abs=1e-9)
    assert rep.holding_prob == 0.0
    assert rep.core_step_fraction == pytest.approx(1.0, abs=1e-12)
    assert rep.entropy_rate == pytest.approx(
        (d - 2) / d * math.log(d - 1), abs=1e-9
    )


def test_entropy_report_theta3(theta3):
    rep = entropy(theta3)
    assert rep.per_level_entropy == pytest.approx(LOG2, abs=1e-9)
    assert rep.escape_speed == pytest.approx(1.0 / 3.0, abs=1e-9)
    assert rep.holding_prob == 0.5
    assert not rep.degenerate
    assert rep.entropy_rate == pytest.approx(LOG2 / 6.0, abs=1e-9)
    assert rep.speed == pytest.approx(1.0 / 6.0, abs=1e-9)


def test_entropy_alpha_override_theta3(theta3):
    rep = entropy(theta3, alpha=0.0)
    assert rep.holding_prob == 0.0
    assert rep.entropy_rate == pytest.approx(LOG2 / 3.0, abs=1e-9)


def test_entropy_asym_theta(asym_theta):
    rep = entropy(asym_theta)
    assert rep.per_level_entropy == pytest.approx(ASYM_HW, abs=1e-9)
    assert rep.escape_speed == pytest.approx(ASYM_S0, abs=1e-9)
    assert rep.entropy_rate == pytest.approx(0.5 * ASYM_S0 * ASYM_HW, abs=1e-9)


def test_entropy_pendant(pendant):
    rep = entropy(pendant)
    assert rep.core.removed_vertices == ("p",)
    assert rep.per_level_entropy == pytest.approx(LOG2, abs=1e-9)
    assert rep.escape_speed == pytest.approx(1.0 / 3.0, abs=1e-9)
    assert rep.core_step_fraction == pytest.approx(0.75, abs=1e-12)
    assert rep.entropy_rate == pytest.approx(0.75 * LOG2 / 6.0, abs=1e-9)
    assert rep.speed == pytest.approx(0.125, abs=1e-9)


def test_entropy_degenerate_biased_cycle(c3b):
    rep = entropy(c3b)
    assert rep.degenerate
    assert rep.per_level_entropy == 0.0
    assert rep.entropy_rate == 0.0
    assert rep.escape_speed == pytest.approx(0.4, abs=1e-9)
    assert rep.speed == pytest.approx(0.4, abs=1e-9)


def test_entropy_rejects_recurrent(sym3, doubled_edge, path2):
    for g in (sym3, doubled_edge, path2):
        with pytest.raises(AnalysisError):
            entropy(g)


def test_entropy_forwards_solver_budget(theta3):
    with pytest.raises(NonConvergenceError):
        entropy(theta3, max_iter=3)


# ---------------------------------------------------------------------------
# mixing-time prediction
# ---------------------------------------------------------------------------


def test_predict_center_theta3(theta3):
    rep = entropy(theta3)
    pred = predict_mixing_time(rep, 4096, 0.25)
    # log(4096) = 12 log 2 and the rate is log(2)/6, so the center is 72
    assert pred.t_center == pytest.approx(72.0, abs=1e-6)
    assert not pred.window_used
    assert pred.t_lower == pred.t_center


def test_predict_window_direction(theta3):
    rep = dataclasses.replace(entropy(theta3), sigma_mc=0.466)
    lo = predict_mixing_time(rep, 4096, 0.25)
    hi = predict_mixing_time(rep, 4096, 0.75)
    mid = predict_mixing_time(rep, 4096, 0.5)
    assert lo.window_used
    # smaller thresholds take longer: the predicted band widens around the
    # center symmetrically in the normal quantile
    assert lo.t_lower > mid.t_lower == pytest.approx(72.0, abs=1e-6)
    assert hi.t_lower < mid.t_lower
    assert lo.t_lower - mid.t_lower == pytest.approx(
        mid.t_lower - hi.t_lower, abs=1e-9
    )


def test_predict_input_validation(theta3, c3b):
    rep = entropy(theta3)
    with pytest.raises(AnalysisError):
        predict_mixing_time(rep, 1, 0.25)
    with pytest.raises(AnalysisError):
        predict_mixing_time(rep, 100, 0.0)
    with pytest.raises(AnalysisError):
        predict_mixing_time(rep, 100, 1.0)
    with pytest.raises(AnalysisError):
        predict_mixing_time(entropy(c3b), 100, 0.25)


# ---------------------------------------------------------------------------
# property tests
# ---------------------------------------------------------------------------


@st.composite
def random_two_vertex_multigraph(draw):
    """Theta-like graphs with 3 parallel edges and random dyadic weights."""
    denom = 8
    def split():
        a = draw(st.integers(1, denom - 2))
        b = draw(st.integers(1, denom - 1 - a))
        c = denom - a - b
        return a, b, c
    fwd = split()
    bwd = split()
    lines = ["alpha 1/2", "vertex u", "vertex v"]
    for j in range(3):
        lines.append(f"edge e{j} u v {fwd[j]}/{denom} {bwd[j]}/{denom}")
    return parse_graph("\n".join(lines) + "\n")


@settings(max_examples=25, deadline=None)
@given(random_two_vertex_multigraph())
def test_random_theta_analysis_invariants(g):
    rep = entropy(g)
    fp = rep.first_passage
    rl = rep.ray_law
    # minimal root lies strictly inside (0, 1)
    assert np.all(fp.prob > 0.0)
    assert np.all(fp.prob < 1.0)
    # exit law is a probability over each vertex's out-orientations
    sums = np.zeros(2)
    np.add.at(sums, g.oriented_init, rl.exit_prob)
    assert np.allclose(sums, 1.0, atol=1e-8)
    # entropy and speed are positive and bounded
    assert 0.0 < rep.per_level_entropy <= math.log(5)
    assert 0.0 < rep.escape_speed < 1.0
    assert rep.entropy_rate == pytest.approx(
        0.5 * rep.escape_speed * rep.per_level_entropy, rel=1e-12
    )
    # frequencies are stationary for the kernel
    resid = np.max(np.abs(rl.edge_freq @ rl.kernel - rl.edge_freq))
    assert resid <= 1e-8


def test_entropy_checks_assumptions_once_per_graph(monkeypatch):
    from liftmix import base_graph
    from conftest import PENDANT_TEXT

    seen = []
    real = base_graph.check_assumptions
    monkeypatch.setattr(base_graph, "check_assumptions",
                        lambda g: seen.append(g) or real(g))
    # the transience verdict and the pruning, counted the same way
    calls = {"is_cover_transient": [], "core": []}
    for fn in calls:
        monkeypatch.setattr(base_graph, fn, lambda g, fn=fn, real=getattr(base_graph, fn):
                            calls[fn].append(g) or real(g))
    # the cycle census per graph object, and every strong-component search by
    # the size of its digraph
    census = []
    real_census = base_graph._cycle_structure
    monkeypatch.setattr(base_graph, "_cycle_structure",
                        lambda g: census.append(g) or real_census(g))
    searches = []
    real_search = base_graph.strong_components
    monkeypatch.setattr(base_graph, "strong_components",
                        lambda n, tails, heads: searches.append(n)
                        or real_search(n, tails, heads))
    g = parse_graph(PENDANT_TEXT)
    first = entropy(g)
    assert calls == {"is_cover_transient": [g], "core": [g]}
    assert g.core.graph.transience is g.transience
    assert census == [g.core.graph]
    # one irreducibility test of the host's 3 vertices, the census of the
    # core's 6 positive orientations, the ray chain on its 6 exit edges
    assert sorted(searches) == [3, 6, 6]
    again = entropy(g, alpha=0.0)
    assert len(census) == 1 and len(searches) == 4  # only the new ray chain
    assert first.first_passage.prob.tolist() == again.first_passage.prob.tolist()
    entropy(parse_graph(PENDANT_TEXT))  # a new graph object derives its own
    assert len(census) == 2 and census[1] is not census[0]
    # the branching verdict is read from the census, so the assumptions
    # (witness replay and period) are never checked
    assert seen == []


def test_ray_law_on_a_recurrent_core_still_raises(sym3):
    # entropy decides on sym3 itself and leaves the verdict on its core
    with pytest.raises(AnalysisError, match="entropy analysis needs a transient"):
        entropy(sym3)
    # the guard comes before any use of the first-passage solution
    with pytest.raises(AnalysisError, match="ray law needs a transient cover walk"):
        ray_law(sym3.core.graph, None)


# ---------------------------------------------------------------------------
# Newton against the fixed-point iteration, on random graphs
# ---------------------------------------------------------------------------


def kleene_first_passage(g, tol=1e-15, max_iter=200_000):
    """The first-passage fixed point iterated from zero: the reference the
    Newton solver is checked against.  Returns the iterate and the ray
    support it implies, cut at 1e-9."""
    w = g.oriented_weight
    inv = np.arange(g.n_oriented) ^ 1
    q = np.zeros(g.n_oriented)
    for _ in range(max_iter):
        contrib = w * q[inv]
        total = np.zeros(g.n_vertices)
        np.add.at(total, g.oriented_init, contrib)
        q_new = w + q * (total[g.oriented_init] - contrib)
        done = np.max(np.abs(q_new - q)) <= tol
        q = q_new
        if done:
            break
    else:
        raise AssertionError("reference iteration did not converge")
    contrib = w * q[inv]
    total = np.zeros(g.n_vertices)
    np.add.at(total, g.oriented_init, contrib)
    exit_prob = w * (1.0 - q[inv]) / (1.0 - total[g.oriented_init])
    return q, exit_prob > 1e-9


@st.composite
def integer_weight_graph_text(draw):
    """Multigraphs on 1 to 4 vertices with ``n`` to ``n + 3`` edges, loops
    allowed; each orientation weighs an integer 0 to 4 (never both zero),
    normalized over each vertex's out-orientations."""
    n_v = draw(st.integers(1, 4))
    m = draw(st.integers(n_v, n_v + 3))
    ends = [(draw(st.integers(0, n_v - 1)), draw(st.integers(0, n_v - 1)))
            for _ in range(m)]
    raw = [draw(st.tuples(st.integers(0, 4), st.integers(0, 4))
                .filter(lambda pair: any(pair))) for _ in range(m)]
    out_total = [0] * n_v
    for (tail, head), (wf, wb) in zip(ends, raw):
        out_total[tail] += wf
        out_total[head] += wb
    assume(all(out_total))
    alpha = draw(st.sampled_from(["0", "1/4", "1/2"]))
    lines = [f"alpha {alpha}"] + [f"vertex v{i}" for i in range(n_v)]
    for j, ((tail, head), (wf, wb)) in enumerate(zip(ends, raw)):
        lines.append(f"edge e{j} v{tail} v{head} "
                     f"{wf}/{out_total[tail]} {wb}/{out_total[head]}")
    return "\n".join(lines) + "\n"


@settings(max_examples=150, deadline=None)
@given(st.one_of(random_graph_with_dead_orientations(), integer_weight_graph_text()))
def test_transient_graphs_get_a_report_matching_the_fixed_point(text):
    g = parse_graph(text)
    assume(g.irreducible)
    verdict = is_cover_transient(g)  # never an internal error
    if not verdict.transient:
        return
    rep = entropy(g)
    gc = rep.core.graph
    fp = rep.first_passage
    assert ((fp.prob >= 0.0) & (fp.prob <= 1.0)).all()
    q_ref, support_ref = kleene_first_passage(gc)
    assert np.allclose(fp.prob, q_ref, rtol=0, atol=1e-9)
    assert np.array_equal(rep.ray_law.support, support_ref)


def _cycle_text(forward):
    back = f"{1 - float(forward):.{len(forward) - 2}f}"
    return "alpha 0\nvertex a\nvertex b\nvertex c\n" + "".join(
        f"edge {t}{h} {t} {h} {forward} {back}\n"
        for t, h in (("a", "b"), ("b", "c"), ("c", "a")))


# a triangle with a pendant vertex; its core is one cycle with drift
PENDANT_TRIANGLE_TEXT = """\
alpha 0
vertex v0
vertex v1
vertex v2
vertex v3
edge e0 v2 v0 3/9 2/5
edge e1 v2 v1 4/9 2/4
edge e2 v2 v3 2/9 3/3
edge e3 v1 v0 2/4 3/5
"""


@pytest.mark.parametrize("text", [_cycle_text("0.51"), _cycle_text("0.501"),
                                  _cycle_text("0.5001"), PENDANT_TRIANGLE_TEXT],
                         ids=["cycle-0.51", "cycle-0.501", "cycle-0.5001",
                              "pendant-triangle"])
def test_near_balanced_cycles_are_degenerate(text):
    # a line cover: the ray is the drift direction, with no per-level entropy
    rep = entropy(parse_graph(text))
    assert rep.degenerate
    assert rep.entropy_rate == 0.0
    assert rep.escape_speed > 0.0


# ---------------------------------------------------------------------------
# one-cycle cores: the speed formula against the exact phase-chain drift
# ---------------------------------------------------------------------------


def _one_cycle_text(forward, alpha):
    """An m-cycle v0 -> v1 -> ... -> v0 (a loop when m = 1) on which the walk
    at v_j steps forward with probability ``forward[j]``, else back."""
    m = len(forward)
    lines = [f"alpha {alpha}"] + [f"vertex v{j}" for j in range(m)]
    lines += [f"edge e{j} v{j} v{(j + 1) % m} {p} {1 - forward[(j + 1) % m]}"
              for j, p in enumerate(forward)]
    return "\n".join(lines) + "\n"


def _exact_drift_speed(forward):
    """|mean drift| of the walk on the line that covers the cycle, in exact
    fractions: the drift 2 p_j - 1 at phase j, averaged over the stationary
    law of the phase chain (Gauss-Jordan on mu P = mu, sum(mu) = 1)."""
    m = len(forward)
    if m == 1:
        return abs(2 * forward[0] - 1)
    chain = [[Fraction(0)] * m for _ in range(m)]
    for j, p in enumerate(forward):
        chain[j][(j + 1) % m] += p
        chain[j][(j - 1) % m] += 1 - p
    rows = [[chain[i][j] - (i == j) for i in range(m)] + [Fraction(0)]
            for j in range(m - 1)] + [[Fraction(1)] * (m + 1)]
    for c in range(m):
        pivot = next(r for r in range(c, m) if rows[r][c] != 0)
        rows[c], rows[pivot] = rows[pivot], rows[c]
        for r in range(m):
            if r != c and rows[r][c] != 0:
                f = rows[r][c] / rows[c][c]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[c])]
    mu = [rows[j][m] / rows[j][j] for j in range(m)]
    return abs(sum(x * (2 * p - 1) for x, p in zip(mu, forward)))


_FORWARD_WEIGHT = st.one_of(st.sampled_from([Fraction(0), Fraction(1)]),
                            st.fractions(min_value=0, max_value=1, max_denominator=12))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 6).flatmap(lambda m: st.lists(_FORWARD_WEIGHT, min_size=m,
                                                    max_size=m)),
       st.sampled_from(["0", "1/2"]))
def test_one_cycle_speed_matches_the_exact_drift(forward, alpha):
    # the cycle and its mirror image, whose walk drifts the other way
    mirror = [1 - p for p in reversed(forward)]
    for weights in (forward, mirror):
        try:
            g = parse_graph(_one_cycle_text(weights, alpha))
        except GraphError:  # an edge with both orientations at weight zero
            assume(False)
        assume(g.irreducible and g.transience.transient)
        assert not g.core.graph.assumptions.a2_two_cycles
        rep = entropy(g)
        exact = _exact_drift_speed(weights)
        error = rep.first_passage.error
        assert abs(Fraction(rep.escape_speed) - exact) <= error, (weights, exact)
        assert abs(Fraction(rep.speed) - (1 - Fraction(alpha)) * exact) <= error
