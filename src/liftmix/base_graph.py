"""Finite weighted multigraphs and their structural analysis.

The base object is a finite multigraph (parallel edges and loops allowed)
in which every edge carries one weight per orientation and, at each vertex,
the outgoing orientation weights sum to one.  A loop contributes both of its
orientations to its vertex's outgoing sum.  The random walk either holds
with probability ``alpha`` or moves along an outgoing orientation picked
proportionally to its weight; every layer resolves and checks ``alpha``
through :func:`holding_probability`.

Oriented edges are indexed ``2*j`` (the file orientation ``u -> v`` of edge
``j``, printed ``<id>+``) and ``2*j + 1`` (the reverse, printed ``<id>-``);
the inverse of oriented edge ``k`` is ``k ^ 1``.

Besides parsing and validation this module provides:

* :func:`strong_components` -- the strong components of a digraph given by
  arcs (an iterative Tarjan search), the one search behind irreducibility,
  the cycle census, the walk's period and the analyzer's ray chain;
* :func:`component_periods` -- the components and periods of a digraph
  whose weak components are strongly connected, from one union-find pass
  with potentials; the vertex chain's period and a lift's components and
  periods come from here;
* :func:`check_assumptions` -- irreducibility, positivity, the two-cycle
  branching property of the non-backtracking structure, the
  every-edge-on-a-cycle property, and the walk's period;
* :func:`stationary_distribution` -- the stationary law of the vertex chain,
  from :func:`solve_stationary`, the least-squares solve shared with the
  analyzer's ray chain;
* :func:`core` -- iterated removal of degree-one vertices with outgoing
  weights renormalized, plus the long-run fraction of moving steps the full
  walk spends on surviving edges;
* :func:`is_cover_transient` -- whether the walk on the universal cover of
  the graph escapes to infinity.

A graph keeps these results once computed (``g.vertex_components``,
``g.cycle_census``, ``g.assumptions``, ``g.stationary``, ``g.core``,
``g.transience``); a call that raises keeps nothing and raises again on the
next access.  It also keeps one table of the walk's moves,
``g.out_oriented``, and one of their non-backtracking continuations,
``g.continuations``, which the cycle census, the ray kernel and the cover
walk all read.  ``g.core.host_oriented`` maps the oriented edges of the
pruned graph to those of ``g``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import AnalysisError, GraphError

#: Tolerance for exact-by-construction identities (weight sums, inverses).
WEIGHT_TOL = 1e-12
#: Tolerance for linear-algebra residuals (stationarity).
STATIONARY_TOL = 1e-10


@dataclass(frozen=True)
class Edge:
    """One undirected edge with a weight for each orientation.

    ``weight_fwd`` is the weight of the orientation ``tail -> head`` (the
    order the edge was declared in); ``weight_bwd`` the reverse.  The
    original weight literals are kept so serialization round-trips exactly.
    """

    eid: str
    tail: str
    head: str
    weight_fwd: float
    weight_bwd: float
    literal_fwd: str
    literal_bwd: str


@dataclass(frozen=True)
class WeightedMultigraph:
    """A validated weighted multigraph.

    Construct via :func:`build_graph`, directly or through
    :func:`parse_graph`; it enforces the per-vertex outgoing weight sums.
    """

    vertices: tuple
    edges: tuple
    alpha: float
    alpha_literal: Optional[str] = None

    # -- indexing helpers ---------------------------------------------------

    @cached_property
    def vertex_index(self):
        return {v: i for i, v in enumerate(self.vertices)}

    @property
    def n_vertices(self):
        return len(self.vertices)

    @property
    def n_oriented(self):
        return 2 * len(self.edges)

    @cached_property
    def oriented_init(self):
        """Tail vertex index of each oriented edge."""
        out = np.empty(self.n_oriented, dtype=np.int64)
        vi = self.vertex_index
        for j, e in enumerate(self.edges):
            out[2 * j] = vi[e.tail]
            out[2 * j + 1] = vi[e.head]
        return out

    @cached_property
    def oriented_end(self):
        """Head vertex index of each oriented edge: the tail of its inverse."""
        return self.oriented_init[np.arange(self.n_oriented) ^ 1]

    @cached_property
    def oriented_weight(self):
        out = np.empty(self.n_oriented, dtype=np.float64)
        for j, e in enumerate(self.edges):
            out[2 * j] = e.weight_fwd
            out[2 * j + 1] = e.weight_bwd
        return out

    @cached_property
    def out_oriented(self):
        """The walk's moves: per vertex index, an array of the positive-weight
        oriented edges leaving it, in index order."""
        buckets = [[] for _ in self.vertices]
        for k in np.flatnonzero(self.oriented_weight > 0.0).tolist():
            buckets[self.oriented_init[k]].append(k)
        return tuple(np.array(b, dtype=np.int64) for b in buckets)

    @cached_property
    def continuations(self):
        """Per oriented edge ``k``, the non-backtracking continuations: the
        moves out of ``k``'s head other than ``k ^ 1``, as a tuple of ints in
        index order."""
        moves = [out.tolist() for out in self.out_oriented]
        return tuple(tuple(l for l in moves[v] if l != (k ^ 1))
                     for k, v in enumerate(self.oriented_end.tolist()))

    @cached_property
    def vertex_components(self):
        """:func:`strong_components` of the positive moves of the vertex
        chain, searched on first use; irreducibility, the period and a
        lift's components all read it."""
        pos = self.oriented_weight > 0.0
        return strong_components(self.n_vertices, self.oriented_init[pos],
                                 self.oriented_end[pos])

    @property
    def irreducible(self):
        """Whether the positive moves of the vertex chain are strongly
        connected."""
        return self.vertex_components[0] == 1

    @cached_property
    def cycle_census(self):
        """:func:`_cycle_structure` of this graph, taken on first use."""
        return _cycle_structure(self)

    @cached_property
    def stationary(self):
        """:func:`stationary_distribution` of this graph, solved on first use."""
        return stationary_distribution(self)

    @cached_property
    def assumptions(self):
        """:func:`check_assumptions` of this graph, computed on first use."""
        return check_assumptions(self)

    @cached_property
    def core(self):
        """:func:`core` of this graph (the module function), pruned on first use."""
        return core(self)

    @cached_property
    def transience(self):
        """:func:`is_cover_transient` of this graph, decided on first use."""
        return is_cover_transient(self)

    def oriented_name(self, k):
        """Printable name of oriented edge ``k``, e.g. ``"e2-"``."""
        return self.edges[k // 2].eid + ("+" if k % 2 == 0 else "-")

    @cached_property
    def oriented_index_by_name(self):
        return {self.oriented_name(k): k for k in range(self.n_oriented)}

    # -- serialization ------------------------------------------------------

    def to_text(self):
        """Canonical text form; parses back to an identical graph."""
        lines = []
        alpha_lit = self.alpha_literal
        if alpha_lit is None:
            alpha_lit = repr(self.alpha)
        lines.append(f"alpha {alpha_lit}")
        for v in self.vertices:
            lines.append(f"vertex {v}")
        for e in self.edges:
            lines.append(
                f"edge {e.eid} {e.tail} {e.head} {e.literal_fwd} {e.literal_bwd}"
            )
        return "\n".join(lines) + "\n"

    def digest(self):
        """Hex digest of the canonical text form."""
        return hashlib.sha256(self.to_text().encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# construction and validation
# ---------------------------------------------------------------------------


def _parse_number(token, lineno, what):
    # float() of a Fraction overflows past the largest double, as in 1e400
    try:
        return float(Fraction(token))
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise GraphError(
            f"line {lineno}: cannot parse {what} {token!r} as a number"
        ) from exc


def build_graph(vertices, edges, alpha=0.5, alpha_literal=None):
    """Build and validate a graph from plain data: the one constructor of
    :class:`WeightedMultigraph`, which :func:`parse_graph` also ends in.

    ``edges`` is an iterable of ``(eid, tail, head, w_fwd, w_bwd)`` tuples,
    whose weight literals are ``repr`` of the float values, or of
    ``(eid, tail, head, w_fwd, w_bwd, literal_fwd, literal_bwd)`` tuples.
    """
    recs = []
    for item in edges:
        if len(item) == 5:
            eid, tail, head, wf, wb = item
            lf, lb = repr(float(wf)), repr(float(wb))
        else:
            eid, tail, head, wf, wb, lf, lb = item
        recs.append(Edge(str(eid), str(tail), str(head), float(wf), float(wb), lf, lb))
    g = WeightedMultigraph(
        vertices=tuple(str(v) for v in vertices),
        edges=tuple(recs),
        alpha=float(alpha),
        alpha_literal=alpha_literal,
    )
    validate_graph(g)
    return g


def parse_graph(text):
    """Parse the line-oriented graph format.

    Format: ``#`` starts a comment line; blank lines are skipped.
    Directives are ``alpha <weight>`` (optional, at most once, default 1/2),
    ``vertex <id>``, and ``edge <id> <tail> <head> <w_fwd> <w_bwd>``.
    Weights may be decimals or fractions like ``1/3``.  Raises
    :class:`GraphError` with a line number on any malformed or invalid input.
    """
    vertices = []
    edges = []
    alpha = 0.5
    alpha_literal = None
    seen_alpha = False
    seen_vertices = set()
    seen_edges = set()

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        kind = tokens[0]
        if kind == "alpha":
            if len(tokens) != 2:
                raise GraphError(f"line {lineno}: alpha takes exactly one value")
            if seen_alpha:
                raise GraphError(f"line {lineno}: duplicate alpha directive")
            seen_alpha = True
            alpha = _parse_number(tokens[1], lineno, "alpha")
            alpha_literal = tokens[1]
            if not 0.0 <= alpha < 1.0:
                raise GraphError(
                    f"line {lineno}: alpha must lie in [0, 1), got {tokens[1]}"
                )
        elif kind == "vertex":
            if len(tokens) != 2:
                raise GraphError(f"line {lineno}: vertex takes exactly one id")
            vid = tokens[1]
            if vid in seen_vertices:
                raise GraphError(f"line {lineno}: duplicate vertex id {vid!r}")
            seen_vertices.add(vid)
            vertices.append(vid)
        elif kind == "edge":
            if len(tokens) != 6:
                raise GraphError(
                    f"line {lineno}: edge takes <id> <tail> <head> <w_fwd> <w_bwd>"
                )
            eid, tail, head, tf, tb = tokens[1:]
            if eid in seen_edges:
                raise GraphError(f"line {lineno}: duplicate edge id {eid!r}")
            seen_edges.add(eid)
            for endpoint in (tail, head):
                if endpoint not in seen_vertices:
                    raise GraphError(
                        f"line {lineno}: edge {eid!r} references undeclared "
                        f"vertex {endpoint!r}"
                    )
            wf = _parse_number(tf, lineno, "weight")
            wb = _parse_number(tb, lineno, "weight")
            edges.append((eid, tail, head, wf, wb, tf, tb))
        else:
            raise GraphError(f"line {lineno}: unknown directive {kind!r}")
    return build_graph(vertices, edges, alpha=alpha, alpha_literal=alpha_literal)


def validate_graph(g):
    """Check the graph invariants; raise :class:`GraphError` on failure."""
    if not g.vertices:
        raise GraphError("graph has no vertices")
    if not 0.0 <= g.alpha < 1.0:
        raise GraphError(f"alpha must lie in [0, 1), got {g.alpha}")
    for e in g.edges:
        for w, lit in ((e.weight_fwd, e.literal_fwd), (e.weight_bwd, e.literal_bwd)):
            if not 0.0 <= w <= 1.0:
                raise GraphError(
                    f"edge {e.eid!r}: orientation weight {lit} outside [0, 1]"
                )
        if max(e.weight_fwd, e.weight_bwd) <= 0.0:
            raise GraphError(f"edge {e.eid!r}: both orientation weights are zero")
    sums = np.zeros(g.n_vertices)
    np.add.at(sums, g.oriented_init, g.oriented_weight)
    for i, v in enumerate(g.vertices):
        if abs(sums[i] - 1.0) > WEIGHT_TOL:
            raise GraphError(
                f"outgoing weight sum {float(sums[i])!r} != 1 at vertex {v!r}"
            )


# ---------------------------------------------------------------------------
# structural assumptions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AssumptionReport:
    """Structural facts about a graph.

    ``witness_cycles`` holds up to two closed non-backtracking positive-weight
    walks (as tuples of oriented-edge indices) that certify the branching
    property when ``a2_two_cycles`` is true.
    """

    a1_irreducible: bool
    a2_two_cycles: bool
    a3_all_positive: bool
    a3_star: bool
    a4_every_edge_on_cycle: bool
    period: int
    witness_cycles: tuple


def _component_has_cycle(comp, succ):
    if len(comp) > 1:
        return True
    k = comp[0]
    return k in succ[k]


def _shortest_path_within(src, dst, succ, allowed):
    """BFS path (list of nodes, src..dst) inside an allowed node set."""
    from collections import deque

    if src == dst:
        return [src]
    seen = {src: None}
    queue = deque([src])
    while queue:
        cur = queue.popleft()
        for nxt in succ[cur]:
            if nxt not in allowed or nxt in seen:
                continue
            seen[nxt] = cur
            if nxt == dst:
                path = [nxt]
                while seen[path[-1]] is not None:
                    path.append(seen[path[-1]])
                path.reverse()
                return path
            queue.append(nxt)
    raise AnalysisError("internal error: no path inside a strongly connected part")


def _cycles_mutually_inverse(c1, c2):
    """Whether two simple cycles (node tuples) are reverses of one another."""
    if len(c1) != len(c2):
        return False
    return set(k ^ 1 for k in c1) == set(c2)


def _cycle_structure(g):
    """Cycle census of the non-backtracking continuation structure.

    Returns ``(a4, a2, witnesses, pure_cycles)`` where ``pure_cycles`` lists
    the unique simple cycle of every branching-free cyclic component.
    """
    nodes = np.flatnonzero(g.oriented_weight > 0.0).tolist()
    succ = g.continuations
    index = {k: i for i, k in enumerate(nodes)}
    tails = [index[k] for k in nodes for _ in succ[k]]
    heads = [index[l] for k in nodes for l in succ[k]]
    ncomp, labels = strong_components(len(nodes), tails, heads)
    comps = [[] for _ in range(ncomp)]
    for k, lab in zip(nodes, labels):
        comps[lab].append(k)
    cyclic = [c for c in comps if _component_has_cycle(c, succ)]
    cyclic_nodes = set(k for comp in cyclic for k in comp)
    a4 = len(cyclic_nodes) == len(nodes) and bool(nodes)

    # A component "branches" when some node has two continuations inside it.
    branching_comp = None
    branch_node = None
    for comp in cyclic:
        comp_set = set(comp)
        for k in comp:
            inside = [l for l in succ[k] if l in comp_set]
            if len(inside) >= 2:
                branching_comp, branch_node = comp_set, k
                break
        if branching_comp is not None:
            break

    if branching_comp is not None:
        k = branch_node
        inside = [l for l in succ[k] if l in branching_comp]
        first = _shortest_path_within(inside[0], k, succ, branching_comp)
        second = _shortest_path_within(inside[1], k, succ, branching_comp)
        cyc_a = tuple([k] + first[:-1])
        cyc_b = tuple([k] + second[:-1])
        if _cycles_mutually_inverse(cyc_a, cyc_b):
            # Concatenating through the shared node gives a longer closed
            # walk, which can never be the reverse of the first cycle.
            witnesses = (cyc_a, cyc_a + cyc_b)
        else:
            witnesses = (cyc_a, cyc_b)
        return a4, True, witnesses, None

    # No branching anywhere: every cyclic component is a single simple cycle.
    pure_cycles = []
    for comp in cyclic:
        comp_set = set(comp)
        start = comp[0]
        cycle = [start]
        cur = start
        while True:
            nxts = [l for l in succ[cur] if l in comp_set]
            cur = nxts[0]
            if cur == start:
                break
            cycle.append(cur)
        pure_cycles.append(tuple(cycle))

    for i in range(len(pure_cycles)):
        for j in range(i + 1, len(pure_cycles)):
            if not _cycles_mutually_inverse(pure_cycles[i], pure_cycles[j]):
                return a4, True, (pure_cycles[i], pure_cycles[j]), pure_cycles
    return a4, False, (), pure_cycles


def verify_witness_cycle(g, cycle):
    """Check that a witness is a closed non-backtracking positive walk."""
    if not cycle:
        return False
    m = len(cycle)
    for idx in range(m):
        k = cycle[idx]
        l = cycle[(idx + 1) % m]
        if g.oriented_weight[k] <= 0.0:
            return False
        if g.oriented_end[k] != g.oriented_init[l]:
            return False
        if l == (k ^ 1):
            return False
    return True


def strong_components(n_nodes, tails, heads):
    """Strong components of the digraph with arcs ``tails[i] -> heads[i]``.

    Returns ``(n_components, labels)``: node ``v`` lies in component
    ``labels[v]``.  An iterative Tarjan search (Tarjan, SIAM J. Comput.
    1972) that starts from the nodes in index order and visits each node's
    distinct successors in descending order; components are numbered in
    the order they are completed, so each one after every component it
    reaches.  Witness cycles and error lines follow this order.
    Self-loops and repeated arcs are allowed.
    """
    succ = [set() for _ in range(n_nodes)]
    for u, v in zip(np.asarray(tails).tolist(), np.asarray(heads).tolist()):
        succ[u].add(v)
    succ = [sorted(out, reverse=True) for out in succ]
    index = [-1] * n_nodes
    low = [0] * n_nodes
    on_stack = [False] * n_nodes
    stack = []
    labels = [0] * n_nodes
    visited = n_components = 0
    for root in range(n_nodes):
        if index[root] >= 0:
            continue
        index[root] = low[root] = visited
        visited += 1
        stack.append(root)
        on_stack[root] = True
        path = [(root, iter(succ[root]))]
        while path:
            v, todo = path[-1]
            for w in todo:
                if index[w] < 0:
                    index[w] = low[w] = visited
                    visited += 1
                    stack.append(w)
                    on_stack[w] = True
                    path.append((w, iter(succ[w])))
                    break
                if on_stack[w] and index[w] < low[v]:
                    low[v] = index[w]
            else:
                path.pop()
                if path and low[v] < low[path[-1][0]]:
                    low[path[-1][0]] = low[v]
                if low[v] == index[v]:
                    while True:
                        w = stack.pop()
                        on_stack[w] = False
                        labels[w] = n_components
                        if w == v:
                            break
                    n_components += 1
    return n_components, np.array(labels, dtype=np.int64)


def component_periods(n_nodes, tails, heads):
    """Weak components of the digraph with arcs ``tails[i] -> heads[i]`` and
    their periods, as ``(n_components, labels, periods)``.

    Each weak component must be strongly connected.  Components are
    numbered by their lowest node; ``periods[c]`` is 0 when ``c`` has no
    arc.  Hooking and pointer jumping (Shiloach & Vishkin, J. Algorithms
    1982): every round hooks the larger root of each arc that joins two
    trees onto the smaller one, then jumps every node straight to its root.
    Each node also keeps its potential above its parent, so that one
    winning hooking arc ``u -> v`` per root sets ``pot[v] = pot[u] + 1``.
    The period is then the gcd of ``pot[u] + 1 - pot[v]`` over all arcs
    (Denardo, Math. Oper. Res. 1977).
    """
    tails = np.asarray(tails, dtype=np.int64)
    heads = np.asarray(heads, dtype=np.int64)
    parent = np.arange(n_nodes)
    pot = np.zeros(n_nodes, dtype=np.int64)
    t, h = tails, heads
    while True:
        root_t, root_h = parent[t], parent[h]
        apart = root_t != root_h
        if not apart.any():
            break
        # an arc inside one tree stays inside it
        t, h, root_t, root_h = t[apart], h[apart], root_t[apart], root_h[apart]
        low, high = np.minimum(root_t, root_h), np.maximum(root_t, root_h)
        np.minimum.at(parent, high, low)
        # the potential of root high above low that makes the arc rise by 1
        rise = pot[t] + 1 - pot[h]
        won = parent[high] == low
        pot[high[won]] = np.where(root_t == low, rise, -rise)[won]
        while True:
            up = parent[parent]
            if np.array_equal(up, parent):
                break
            pot += pot[parent]
            parent = up
    roots, labels = np.unique(parent, return_inverse=True)
    periods = np.zeros(len(roots), dtype=np.int64)
    np.gcd.at(periods, labels[tails], pot[tails] + 1 - pot[heads])
    return len(roots), labels, periods


def check_assumptions(g):
    """Compute the :class:`AssumptionReport` for a validated graph."""
    weight = g.oriented_weight
    a3 = bool((weight > 0.0).all()) and g.n_oriented > 0
    a3_star = any(
        e.weight_fwd > 0.0 and e.weight_bwd > 0.0 for e in g.edges
    )
    a4, a2, witnesses, _ = g.cycle_census
    for cyc in witnesses:
        if not verify_witness_cycle(g, cyc):
            raise AnalysisError("internal error: witness cycle failed replay")
    if len(witnesses) == 2 and _cycles_mutually_inverse(witnesses[0], witnesses[1]):
        raise AnalysisError("internal error: witness cycles are mutual reverses")
    # The vertex chain's period is the gcd of the periods of the strong
    # components that hold an arc.
    pos = weight > 0.0
    tails, heads = g.oriented_init[pos], g.oriented_end[pos]
    _, labels = g.vertex_components
    inside = labels[tails] == labels[heads]
    _, _, periods = component_periods(g.n_vertices, tails[inside], heads[inside])
    return AssumptionReport(
        a1_irreducible=g.irreducible,
        a2_two_cycles=a2,
        a3_all_positive=a3,
        a3_star=a3_star,
        a4_every_edge_on_cycle=a4,
        period=int(np.gcd.reduce(periods)) or 1,
        witness_cycles=witnesses,
    )


# ---------------------------------------------------------------------------
# stationary distribution
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StationaryDistribution:
    """Stationary law of the vertex chain (independent of laziness)."""

    probs: tuple
    residual: float

    def as_dict(self, g):
        return {v: self.probs[i] for i, v in enumerate(g.vertices)}

    def as_array(self):
        return np.array(self.probs, dtype=np.float64)


def holding_probability(g, alpha=None):
    """The holding probability ``alpha`` as a float, or ``g.alpha`` when it is
    None.  Raises :class:`AnalysisError` unless it lies in ``[0, 1)``."""
    alpha = g.alpha if alpha is None else float(alpha)
    if not 0.0 <= alpha < 1.0:
        raise AnalysisError(f"holding probability must lie in [0, 1), got {alpha}")
    return alpha


def transition_matrix(g, alpha=None):
    """Dense vertex transition matrix at holding probability ``alpha``
    (:func:`holding_probability`)."""
    alpha = holding_probability(g, alpha)
    n = g.n_vertices
    mat = np.zeros((n, n))
    np.add.at(mat, (g.oriented_init, g.oriented_end), (1.0 - alpha) * g.oriented_weight)
    mat[np.arange(n), np.arange(n)] += alpha
    return mat


def solve_stationary(mat):
    """Stationary row vector of a stochastic matrix and its residual.

    Least-squares solve of ``pi P = pi`` with ``sum(pi) = 1``; entries below
    1e-15 in magnitude become exact zeros.  Returns ``(pi, residual)`` with
    the max-norm residual ``|pi P - pi|``.  Raises :class:`AnalysisError`
    when the solve has negative entries or collapses to zero.
    """
    n = mat.shape[0]
    lhs = np.vstack([mat.T - np.eye(n), np.ones((1, n))])
    rhs = np.zeros(n + 1)
    rhs[-1] = 1.0
    pi, *_ = np.linalg.lstsq(lhs, rhs, rcond=None)
    pi = np.where(np.abs(pi) < 1e-15, 0.0, pi)
    if (pi < -1e-12).any():
        raise AnalysisError("stationary solve produced negative entries")
    pi = np.clip(pi, 0.0, None)
    total = pi.sum()
    if total <= 0:
        raise AnalysisError("stationary solve collapsed to zero")
    pi /= total
    return pi, float(np.max(np.abs(pi @ mat - pi)))


def stationary_distribution(g):
    """Stationary distribution of the vertex chain.

    Solved from the non-lazy kernel; holding reweights nothing, so the
    result applies for every ``alpha`` in ``[0, 1)``.  Raises
    :class:`AnalysisError` if the chain is reducible.  ``g.stationary``
    holds the same result, solved once per graph.
    """
    if not g.irreducible:
        raise AnalysisError("vertex chain is reducible; no unique stationary law")
    pi, residual = solve_stationary(transition_matrix(g, alpha=0.0))
    if residual > STATIONARY_TOL:
        raise AnalysisError(
            f"stationary distribution residual {residual:.3e} exceeds tolerance"
        )
    return StationaryDistribution(probs=tuple(float(x) for x in pi), residual=residual)


# ---------------------------------------------------------------------------
# core decomposition
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CoreDecomposition:
    """Result of stripping hanging trees off a graph.

    ``graph`` is the pruned graph with outgoing weights renormalized to sum
    to one again; it keeps the ids of the surviving edges, and its oriented
    edge ``k`` is the full graph's oriented edge ``host_oriented[k]``.
    ``core_step_fraction`` is the long-run fraction of the full walk's moving
    steps that traverse surviving edges.
    """

    graph: WeightedMultigraph
    removed_vertices: tuple
    core_step_fraction: float
    host_oriented: np.ndarray


def core(g):
    """Iteratively strip degree-one vertices and renormalize weights.

    A loop counts twice toward its vertex's degree, so a vertex whose only
    incidence is a loop is never stripped.  Raises :class:`GraphError` when
    nothing survives (the graph is a tree) and :class:`AnalysisError` when
    the stationary law needed for the step fraction does not exist.
    """
    n = g.n_vertices
    vi = g.vertex_index
    degree = [0] * n
    incident = [[] for _ in range(n)]
    for j, e in enumerate(g.edges):
        ti, hi = vi[e.tail], vi[e.head]
        degree[ti] += 1
        degree[hi] += 1
        incident[ti].append(j)
        if hi != ti:
            incident[hi].append(j)

    alive_vertex = [True] * n
    alive_edge = [True] * len(g.edges)
    stack = [i for i in range(n) if degree[i] == 1]
    removed = []
    while stack:
        i = stack.pop()
        if not alive_vertex[i] or degree[i] != 1:
            continue
        alive_vertex[i] = False
        removed.append(g.vertices[i])
        for j in incident[i]:
            if not alive_edge[j]:
                continue
            alive_edge[j] = False
            e = g.edges[j]
            other = vi[e.head] if vi[e.tail] == i else vi[e.tail]
            degree[other] -= 1
            degree[i] -= 1
            if alive_vertex[other] and degree[other] == 1:
                stack.append(other)

    surviving_vertices = [v for i, v in enumerate(g.vertices) if alive_vertex[i]]
    if not surviving_vertices:
        raise GraphError("graph is a tree: no cycles survive pruning")

    out_mass = np.zeros(n)
    for j, e in enumerate(g.edges):
        if not alive_edge[j]:
            continue
        out_mass[vi[e.tail]] += e.weight_fwd
        out_mass[vi[e.head]] += e.weight_bwd

    new_edges = []
    for j, e in enumerate(g.edges):
        if not alive_edge[j]:
            continue
        denom_t = out_mass[vi[e.tail]]
        denom_h = out_mass[vi[e.head]]
        if (e.weight_fwd > 0 and denom_t <= 0) or (e.weight_bwd > 0 and denom_h <= 0):
            raise AnalysisError(
                "surviving vertex has zero surviving outgoing weight; "
                "the walk cannot move along the pruned graph"
            )
        wf = e.weight_fwd / denom_t if denom_t > 0 else 0.0
        wb = e.weight_bwd / denom_h if denom_h > 0 else 0.0
        new_edges.append((e.eid, e.tail, e.head, wf, wb))

    pruned = build_graph(
        surviving_vertices, new_edges, alpha=g.alpha, alpha_literal=g.alpha_literal
    )

    pi = g.stationary.as_array()
    fraction = 0.0
    for i in range(n):
        if alive_vertex[i]:
            fraction += pi[i] * out_mass[i]
    return CoreDecomposition(
        graph=pruned,
        removed_vertices=tuple(removed),
        core_step_fraction=float(fraction),
        host_oriented=np.flatnonzero(np.repeat(alive_edge, 2)),
    )


# ---------------------------------------------------------------------------
# transience of the cover walk
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TransienceVerdict:
    transient: bool
    reason: str


def is_cover_transient(g):
    """Decide whether the walk on the universal cover escapes to infinity.

    Requires an irreducible vertex chain.  A tree base gives a finite cover
    (recurrent).  A pruned graph with the two-cycle branching property is
    always transient; with a single cycle the cover is a line and the walk
    is transient exactly when the two orientations of the cycle carry
    different weight products.
    """
    if not g.irreducible:
        raise AnalysisError("vertex chain is reducible; transience undefined")
    try:
        cd = g.core
    except GraphError:
        return TransienceVerdict(
            transient=False,
            reason="recurrent-finite: the graph is a tree, so its universal "
            "cover is finite",
        )
    verdict = _pruned_transience(cd.graph)
    # Pruning keeps the walk's escape behaviour, so the pruned graph holds
    # the same verdict; the analyzer, which works on it, reads it there
    # instead of pruning it a second time.
    cd.graph.__dict__.setdefault("transience", verdict)
    return verdict


def _pruned_transience(gc):
    """:func:`is_cover_transient` of a graph with no hanging trees."""
    _, a2, _, pure_cycles = gc.cycle_census
    if a2:
        return TransienceVerdict(
            transient=True,
            reason="two independent non-backtracking cycles: the cover walk "
            "escapes in every direction",
        )
    if not pure_cycles:
        raise AnalysisError("internal error: pruned graph lost all its cycles")
    cycle = pure_cycles[0]
    w = gc.oriented_weight
    prod_f = float(np.prod([w[k] for k in cycle]))
    prod_b = float(np.prod([w[k ^ 1] for k in cycle]))
    scale = max(prod_f, prod_b, 1e-300)
    if abs(prod_f - prod_b) <= 1e-12 * max(1.0, scale):
        return TransienceVerdict(
            transient=False,
            reason=f"recurrent: single cycle with balanced orientation "
            f"products ({prod_f!r} vs {prod_b!r})",
        )
    return TransienceVerdict(
        transient=True,
        reason=f"single cycle with drift: orientation products differ "
        f"({prod_f!r} vs {prod_b!r})",
    )
