"""Parsing, validation, structure checks, and pruning."""

import contextlib
import io
import json
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from liftmix import (
    AnalysisError,
    CoverVertex,
    GraphError,
    Lift,
    apply_kernel,
    build_graph,
    check_assumptions,
    core,
    cover_moves,
    cutoff_sweep,
    entropy,
    generate_uniform_lift,
    holding_probability,
    is_cover_transient,
    lift_transition_matrix,
    mixing_curves,
    parse_graph,
    projection_identity_check,
    simulate_walk,
    spectrum_inheritance_check,
    stationary_distribution,
    transition_matrix,
    validate_graph,
)
from liftmix.base_graph import (
    component_periods,
    strong_components,
    verify_witness_cycle,
)
from liftmix.cli import main

from conftest import (
    ASYM_THETA_TEXT,
    DOUBLED_EDGE_TEXT,
    ONE_WAY_TEXT,
    PENDANT_TEXT,
    THETA3_TEXT,
    bouquet_text,
    random_graph_with_dead_orientations,
)


# ---------------------------------------------------------------------------
# parsing and canonical text
# ---------------------------------------------------------------------------


def test_parse_theta3_basic(theta3):
    assert theta3.vertices == ("u", "v")
    assert [e.eid for e in theta3.edges] == ["e1", "e2", "e3"]
    assert theta3.alpha == 0.5
    assert theta3.n_oriented == 6
    # interleaved orientation order: e1+, e1-, e2+, e2-, e3+, e3-
    assert theta3.oriented_name(0) == "e1+"
    assert theta3.oriented_name(1) == "e1-"
    assert theta3.oriented_name(4) == "e3+"
    assert list(theta3.oriented_init) == [0, 1, 0, 1, 0, 1]
    assert list(theta3.oriented_end) == [1, 0, 1, 0, 1, 0]
    assert np.allclose(theta3.oriented_weight, 1.0 / 3.0)


def test_fraction_literals_survive_round_trip(theta3):
    text = theta3.to_text()
    assert "edge e1 u v 1/3 1/3" in text
    again = parse_graph(text)
    assert again.digest() == theta3.digest()
    assert again.to_text() == text


def test_round_trip_decimal_and_mixed(pendant):
    text = pendant.to_text()
    assert "edge ep u p 1/4 1.0" in text
    assert parse_graph(text).digest() == pendant.digest()


def test_comments_and_blank_lines_ignored():
    g = parse_graph("\n# hi\n\nvertex a\n# more\nedge l a a 1/2 1/2\n")
    assert g.vertices == ("a",)
    assert g.alpha == 0.5  # default when no alpha directive


def test_digest_sensitive_to_weights():
    g1 = parse_graph(bouquet_text(4))
    g2 = parse_graph(bouquet_text(4).replace("1/4 1/4", "0.25 0.25", 1))
    # same numbers, different literals: canonical text differs, digest differs
    assert g1.digest() != g2.digest()
    assert np.array_equal(g1.oriented_weight, g2.oriented_weight)


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("vertex a\nvertex a\n", "line 2: duplicate vertex id"),
        ("vertex a\nedge e a b 1/2 1/2\n", "undeclared"),
        ("vertex a\nedge e a a 1/2 1/2\nedge e a a 1/2 1/2\n", "line 3: duplicate edge id"),
        ("vertex a\nedge e a a 1/2\n", "edge takes"),
        ("vertex a\nedge e a a x 1/2\n", "cannot parse weight"),
        # a finite literal past the largest double
        ("vertex a\nedge e a a 1e400 1/2\n", "line 2: cannot parse weight '1e400' as a number"),
        ("alpha 1\nvertex a\nedge e a a 1/2 1/2\n", "alpha must lie in [0, 1)"),
        ("alpha 1/2\nalpha 1/2\nvertex a\nedge e a a 1/2 1/2\n", "duplicate alpha"),
        ("frobnicate a\n", "unknown directive"),
        ("vertex a\nedge e a a 3/4 3/4\n", "outgoing weight sum 1.5 != 1 at vertex 'a'"),
        ("vertex a\nedge e a a 0 0\n", "both orientation weights are zero"),
        ("vertex a\nedge e a a -1/2 3/2\n", "outside [0, 1]"),
        ("", "no vertices"),
    ],
)
def test_parse_and_validate_errors(text, fragment):
    with pytest.raises(GraphError) as err:
        parse_graph(text)
    assert fragment in str(err.value)


def test_build_graph_validates():
    with pytest.raises(GraphError):
        build_graph(("a",), (("e", "a", "a", 0.25, 0.25),))


# ---------------------------------------------------------------------------
# oriented-edge bookkeeping
# ---------------------------------------------------------------------------


def test_oriented_name_lookup(theta3):
    idx = theta3.oriented_index_by_name
    assert idx["e2-"] == 3
    assert theta3.oriented_name(idx["e2-"]) == "e2-"


# ---------------------------------------------------------------------------
# transition matrix and stationary law
# ---------------------------------------------------------------------------


def test_transition_matrix_theta3(theta3):
    p_half = transition_matrix(theta3)
    assert np.allclose(p_half, [[0.5, 0.5], [0.5, 0.5]])
    p0 = transition_matrix(theta3, alpha=0.0)
    assert np.allclose(p0, [[0.0, 1.0], [1.0, 0.0]])


@pytest.mark.parametrize("alpha", [1.5, -0.5, math.nan])
def test_every_entry_point_rejects_a_bad_holding_probability(theta3, alpha):
    # transition_matrix returned a non-stochastic matrix at 1.5, and
    # projection_identity_check returned 0.0 without a step
    lift = Lift(theta3, 2, ((0, 1),) * 3)
    mu = np.full(lift.n_states, 0.25)
    calls = [
        lambda: holding_probability(theta3, alpha),
        lambda: transition_matrix(theta3, alpha=alpha),
        lambda: entropy(theta3, alpha=alpha),
        lambda: simulate_walk(theta3, "u", 10, alpha=alpha),
        lambda: cover_moves(theta3, CoverVertex("u"), alpha=alpha),
        lambda: apply_kernel(lift, mu, alpha=alpha),
        lambda: lift_transition_matrix(lift, alpha=alpha),
        lambda: spectrum_inheritance_check(lift, alpha=alpha),
        lambda: mixing_curves(lift, [0], alpha=alpha, t_cap=0),
        lambda: projection_identity_check(lift, 0, 0, alpha=alpha),
        lambda: cutoff_sweep(theta3, (8, 16), alpha=alpha),
    ]
    message = f"holding probability must lie in [0, 1), got {alpha}"
    for call in calls:
        with pytest.raises(AnalysisError) as err:
            call()
        assert str(err.value) == message


def test_stationary_theta3(theta3):
    sd = stationary_distribution(theta3)
    assert np.allclose(sd.as_array(), [0.5, 0.5], atol=1e-12)
    assert sd.residual <= 1e-10


def test_stationary_pendant(pendant):
    sd = stationary_distribution(pendant)
    assert sd.as_dict(pendant) == pytest.approx(
        {"u": 0.5, "v": 0.375, "p": 0.125}, abs=1e-12
    )


def test_stationary_cycles(c3b, directed_c3):
    for g in (c3b, directed_c3):
        sd = stationary_distribution(g)
        assert np.allclose(sd.as_array(), 1.0 / 3.0, atol=1e-12)


def test_stationary_is_invariant(asym_theta):
    sd = stationary_distribution(asym_theta)
    p = transition_matrix(asym_theta)
    pi = sd.as_array()
    assert np.max(np.abs(pi @ p - pi)) <= 1e-12


# ---------------------------------------------------------------------------
# structural assumptions
# ---------------------------------------------------------------------------


def test_assumptions_theta3(theta3):
    rep = check_assumptions(theta3)
    assert rep.a1_irreducible
    assert rep.a2_two_cycles
    assert rep.a3_all_positive
    assert rep.a3_star
    assert rep.a4_every_edge_on_cycle
    assert rep.period == 2
    assert len(rep.witness_cycles) == 2
    for cyc in rep.witness_cycles:
        assert verify_witness_cycle(theta3, cyc)


def test_assumptions_path2(path2):
    rep = check_assumptions(path2)
    assert rep.a1_irreducible
    assert not rep.a2_two_cycles
    assert not rep.a4_every_edge_on_cycle  # the lone edge only backtracks
    assert rep.period == 2


def test_assumptions_doubled_edge(doubled_edge):
    rep = check_assumptions(doubled_edge)
    # exactly one non-backtracking cycle class: a2 fails, a4 holds
    assert not rep.a2_two_cycles
    assert rep.a4_every_edge_on_cycle
    assert rep.period == 2


def test_assumptions_directed_cycle(directed_c3):
    rep = check_assumptions(directed_c3)
    assert rep.a1_irreducible
    assert not rep.a3_all_positive
    assert not rep.a3_star  # no edge carries weight in both orientations
    assert rep.a4_every_edge_on_cycle
    assert rep.period == 3


def test_assumptions_biased_cycle(c3b):
    rep = check_assumptions(c3b)
    assert rep.a1_irreducible
    assert not rep.a2_two_cycles
    assert rep.a3_all_positive
    # closed walks of length 3 (around) and 2 (back and forth) coexist
    assert rep.period == 1


def test_assumptions_bouquet(bouquet4):
    rep = check_assumptions(bouquet4)
    assert rep.a2_two_cycles
    assert rep.period == 1
    for cyc in rep.witness_cycles:
        assert verify_witness_cycle(bouquet4, cyc)


def test_witness_rejects_backtracking(theta3):
    assert not verify_witness_cycle(theta3, (0, 1))  # e1+ then e1- backtracks
    assert verify_witness_cycle(theta3, (0, 3))  # e1+ then e2- is a cycle
    assert not verify_witness_cycle(theta3, (0, 2))  # e2+ does not start at v
    assert not verify_witness_cycle(theta3, ())


# ---------------------------------------------------------------------------
# pruning hanging trees
# ---------------------------------------------------------------------------


def test_core_is_identity_on_theta3(theta3):
    cd = core(theta3)
    assert cd.removed_vertices == ()
    assert cd.core_step_fraction == pytest.approx(1.0, abs=1e-12)
    assert cd.graph.vertices == theta3.vertices
    assert [e.eid for e in cd.graph.edges] == [e.eid for e in theta3.edges]
    assert np.array_equal(cd.graph.oriented_weight, theta3.oriented_weight)


def test_core_strips_pendant(pendant):
    cd = core(pendant)
    assert cd.removed_vertices == ("p",)
    gc = cd.graph
    assert gc.vertices == ("u", "v")
    assert [e.eid for e in gc.edges] == ["e1", "e2", "e3"]
    # u's surviving weights are renormalized from 1/4 to 1/3
    assert np.allclose(gc.oriented_weight, 1.0 / 3.0, atol=1e-12)
    # half the moving steps from u and all from v stay on the surviving edges
    assert cd.core_step_fraction == pytest.approx(0.75, abs=1e-12)
    validate_graph(gc)


def test_core_rejects_tree(path2):
    with pytest.raises(GraphError):
        core(path2)


# ---------------------------------------------------------------------------
# transience of the cover walk
# ---------------------------------------------------------------------------


def test_transient_branching(theta3, bouquet4):
    for g in (theta3, bouquet4):
        verdict = is_cover_transient(g)
        assert verdict.transient
        assert "cycle" in verdict.reason


def test_transient_drift(c3b, directed_c3):
    for g in (c3b, directed_c3):
        assert is_cover_transient(g).transient


def test_recurrent_balanced_cycle(sym3, doubled_edge):
    for g in (sym3, doubled_edge):
        verdict = is_cover_transient(g)
        assert not verdict.transient


def test_recurrent_tree(path2):
    verdict = is_cover_transient(path2)
    assert not verdict.transient
    assert "finite" in verdict.reason


def test_transience_needs_irreducible():
    g = build_graph(
        ("a", "b"),
        (("l", "a", "a", 1.0, 0.0), ("m", "b", "b", 1.0, 0.0)),
    )
    with pytest.raises(AnalysisError):
        is_cover_transient(g)


# ---------------------------------------------------------------------------
# property tests on randomly generated valid graphs
# ---------------------------------------------------------------------------


def _dyadic_split(m):
    """m positive dyadic fractions summing exactly to one."""
    if m == 1:
        return ["1/1"]
    parts = [f"1/{2 ** j}" for j in range(1, m)]
    parts.append(f"1/{2 ** (m - 1)}")
    return parts


@st.composite
def random_graph_text(draw):
    n_v = draw(st.integers(min_value=1, max_value=3))
    names = [f"v{i}" for i in range(n_v)]
    m = draw(st.integers(min_value=1, max_value=4))
    ends = [
        (draw(st.integers(0, n_v - 1)), draw(st.integers(0, n_v - 1)))
        for _ in range(m)
    ]
    used = sorted({u for pair in ends for u in pair})
    # out-orientation slots per used vertex, in file order
    slots = {u: [] for u in used}
    for j, (t, h) in enumerate(ends):
        slots[t].append((j, "fwd"))
        slots[h].append((j, "bwd"))
    lits = {}
    for u in used:
        for (j, side), lit in zip(slots[u], _dyadic_split(len(slots[u]))):
            lits[(j, side)] = lit
    lines = [f"vertex {names[u]}" for u in used]
    for j, (t, h) in enumerate(ends):
        lines.append(
            f"edge e{j} {names[t]} {names[h]} "
            f"{lits[(j, 'fwd')]} {lits[(j, 'bwd')]}"
        )
    return "\n".join(lines) + "\n"


@settings(max_examples=40, deadline=None)
@given(random_graph_text())
def test_random_graph_round_trip(text):
    g = parse_graph(text)
    validate_graph(g)
    again = parse_graph(g.to_text())
    assert again.digest() == g.digest()
    assert np.array_equal(again.oriented_weight, g.oriented_weight)
    # out-sums exactly one up to float addition noise
    sums = np.zeros(g.n_vertices)
    np.add.at(sums, g.oriented_init, g.oriented_weight)
    assert np.max(np.abs(sums - 1.0)) <= 1e-12
    # orientation pairing is consistent
    for k in range(g.n_oriented):
        assert g.oriented_init[k] == g.oriented_end[k ^ 1]


@settings(max_examples=40, deadline=None)
@given(random_graph_text())
def test_random_graph_assumption_report_is_consistent(text):
    g = parse_graph(text)
    rep = check_assumptions(g)
    assert rep.period >= 1
    if rep.a2_two_cycles:
        assert len(rep.witness_cycles) == 2
        for cyc in rep.witness_cycles:
            assert verify_witness_cycle(g, cyc)
    if rep.a3_all_positive:
        assert rep.a3_star
    if rep.a1_irreducible and rep.a2_two_cycles:
        assert is_cover_transient(g).transient


@settings(max_examples=100, deadline=None)
@given(random_graph_with_dead_orientations())
@example(ONE_WAY_TEXT)
def test_moves_and_continuations_follow_their_definitions(text):
    # an orientation of weight zero is no move and no continuation
    g = parse_graph(text)
    w, init, end = g.oriented_weight, g.oriented_init, g.oriented_end
    for u, out in enumerate(g.out_oriented):
        assert out.dtype == np.int64
        assert out.tolist() == [k for k in range(g.n_oriented) if init[k] == u and w[k] > 0]
    assert len(g.continuations) == g.n_oriented
    for k, after in enumerate(g.continuations):
        assert all(type(l) is int for l in after)
        assert list(after) == [l for l in range(g.n_oriented)
                               if init[l] == end[k] and w[l] > 0 and l != (k ^ 1)]


def _return_time_gcds(mat):
    """Per state, the gcd of its return times t <= 3 * size (0 if it has none),
    read from boolean powers of the transition matrix."""
    step = (np.asarray(mat) > 0).astype(np.int64)
    power = np.eye(len(step), dtype=np.int64)
    gcds = np.zeros(len(step), dtype=np.int64)
    for t in range(1, 3 * len(step) + 1):
        power = np.minimum(power @ step, 1)
        gcds = np.where(np.diag(power) > 0, np.gcd(gcds, t), gcds)
    return gcds


def _validate_payload(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "g.g")
        with open(path, "w") as fh:
            fh.write(text)
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(["validate", "--graph", path])
    return json.loads(out.getvalue()) if code == 0 else None


@settings(max_examples=60, deadline=None)
@given(random_graph_with_dead_orientations(), st.integers(1, 4), st.integers(0, 2**16))
def test_period_matches_return_times(text, n, seed):
    g = parse_graph(text)
    expected = max(int(np.gcd.reduce(_return_time_gcds(transition_matrix(g, 0.0)))), 1)
    rep = check_assumptions(g)
    assert rep.period == expected
    payload = _validate_payload(text)
    if payload is not None:
        assert payload["period"] == expected
    if not rep.a1_irreducible:
        return  # the lift period is defined on closed classes only
    rng = np.random.default_rng(seed)
    lift = generate_uniform_lift(g, n, rng)
    p = lift_transition_matrix(lift, alpha=0.0)
    for s, ref in enumerate(_return_time_gcds(p)):
        assert ref > 0
        assert lift.period(s) == ref  # memoized per strong component
        assert mixing_curves(lift, [s], alpha=0.0, t_cap=0)[0].periodic == (ref > 1)
        assert mixing_curves(lift, [s], t_cap=0)[0].periodic == (g.alpha == 0 and ref > 1)
        # the moves along positive-weight oriented edges are the matrix support
        u, i = divmod(s, lift.n)
        steps = {int(g.oriented_end[k]) * lift.n + int(lift.maps[k][i])
                 for k in g.out_oriented[u]}
        assert steps == set(np.nonzero(p[s])[0])
    # the kernel agrees with the dense matrix at the graph's alpha
    p_alpha = lift_transition_matrix(lift)
    mu = rng.dirichlet(np.ones(lift.n_states))
    assert np.allclose(apply_kernel(lift, mu), mu @ p_alpha, rtol=0, atol=1e-14)


@st.composite
def random_digraph(draw):
    """Arcs on up to 9 nodes: self-loops, repeated arcs and isolated nodes."""
    n = draw(st.integers(0, 9))
    if n == 0:
        return 0, []
    node = st.integers(0, n - 1)
    arcs = draw(st.lists(st.tuples(node, node), max_size=3 * n))
    if arcs:
        arcs += draw(st.lists(st.sampled_from(arcs), max_size=len(arcs)))
    return n, draw(st.permutations(arcs))


def _mutually_reachable(n, arcs):
    """Which pairs of nodes reach each other, from boolean powers of the
    adjacency matrix with the identity added."""
    step = np.eye(n, dtype=np.int64)
    for u, v in arcs:
        step[u, v] = 1
    reach = step
    for _ in range(n):
        reach = np.minimum(reach @ step, 1)
    return (reach > 0) & (reach.T > 0)


@settings(max_examples=300, deadline=None)
@given(random_digraph())
def test_strong_components_match_mutual_reachability(digraph):
    n, arcs = digraph
    tails = [u for u, _ in arcs]
    heads = [v for _, v in arcs]
    ncomp, labels = strong_components(n, tails, heads)
    assert sorted(set(labels.tolist())) == list(range(ncomp))
    assert np.array_equal(labels[:, None] == labels[None, :],
                          _mutually_reachable(n, arcs))
    # the arcs inside strong components have these for weak components
    inner = [(u, v) for u, v in arcs if labels[u] == labels[v]]
    got_ncomp, got_labels, periods = component_periods(
        n, [u for u, _ in inner], [v for _, v in inner])
    assert got_ncomp == ncomp
    assert np.array_equal(got_labels[:, None] == got_labels[None, :],
                          labels[:, None] == labels[None, :])
    # numbered by lowest node
    lowest = np.unique(got_labels, return_index=True)[1]
    assert lowest.tolist() == sorted(lowest.tolist())
    adjacency = np.zeros((n, n), dtype=np.int64)
    for u, v in arcs:
        adjacency[u, v] = 1
    assert periods[got_labels].tolist() == _return_time_gcds(adjacency).tolist()


@settings(max_examples=300, deadline=None)
@given(random_digraph())
def test_strong_components_number_components_as_scipy_does(digraph):
    # witness cycles and error lines depend on the component order, which
    # the search keeps from scipy's; scipy serves only as an oracle here
    sparse = pytest.importorskip("scipy.sparse")
    csgraph = pytest.importorskip("scipy.sparse.csgraph")
    n, arcs = digraph
    tails = np.array([u for u, _ in arcs], dtype=np.int64)
    heads = np.array([v for _, v in arcs], dtype=np.int64)
    adj = sparse.csr_matrix((np.ones(len(arcs)), (tails, heads)), shape=(n, n))
    ncomp, labels = csgraph.connected_components(adj, directed=True,
                                                 connection="strong")
    got = strong_components(n, tails, heads)
    assert (got[0], got[1].tolist()) == (ncomp, labels.tolist())


@st.composite
def random_lift(draw):
    """A lift of a small graph (some reducible, some with orientations of
    weight zero) in which each edge's permutation may be the identity."""
    g = parse_graph(draw(random_graph_with_dead_orientations()))
    n = draw(st.integers(1, 6))
    perms = tuple(range(n) if draw(st.booleans()) else draw(st.permutations(range(n)))
                  for _ in g.edges)
    return Lift(base=g, n=n, perms=perms)


@settings(max_examples=200, deadline=None)
@given(random_lift())
def test_lift_components_and_periods_match_the_general_search(lift):
    p = lift_transition_matrix(lift, alpha=0.0)
    _, labels = strong_components(lift.n_states, *np.nonzero(p))
    got_labels, got_periods = lift._strong_periods
    assert np.array_equal(got_labels[:, None] == got_labels[None, :],
                          labels[:, None] == labels[None, :])
    assert got_periods[got_labels].tolist() == _return_time_gcds(p).tolist()
    # a state on no cycle is its own component, of period 1
    assert (lift.period(np.arange(lift.n_states)).tolist()
            == np.maximum(_return_time_gcds(p), 1).tolist())


@pytest.mark.parametrize("n, period", [(4096, 2), (4095, 1)])
def test_lift_period_of_one_long_cycle(c3b, n, period):
    # shifting one edge's fibers by 1 joins the n copies of the 3-cycle into
    # one cycle of 3n states, walked both ways
    shift = np.roll(np.arange(n), -1)
    lift = Lift(base=c3b, n=n, perms=(range(n), range(n), shift))
    labels, periods = lift._strong_periods
    assert labels.tolist() == [0] * (3 * n)
    assert periods.tolist() == [period]
    assert lift.period(3 * n - 1) == period


def test_lift_period_rejects_states_that_are_not_integers(theta3):
    lift = Lift(base=theta3, n=8, perms=(range(8),) * 3)
    with pytest.raises(GraphError, match=r"index 0\.7 is not an integer in 0\.\.15"):
        lift.period([0.7])
    with pytest.raises(GraphError, match=r"index 16 is not an integer in 0\.\.15"):
        lift.period([16])


def test_validate_searches_the_vertex_chain_once(monkeypatch, tmp_path):
    from liftmix import base_graph

    searches = []
    real_search = base_graph.strong_components
    monkeypatch.setattr(base_graph, "strong_components",
                        lambda n, tails, heads: searches.append(n)
                        or real_search(n, tails, heads))
    path = tmp_path / "pendant.g"
    path.write_text(PENDANT_TEXT)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["validate", "--graph", str(path)]) == 0
    # the host's census of 8 positive orientations, its 3-vertex chain for
    # irreducibility and period alike, the core's census of 6
    assert sorted(searches) == [3, 6, 8]
