"""Simulation and estimation on the universal cover.

The universal cover of a base graph is the tree of non-backtracking
positive-weight paths from a root vertex.  A cover vertex is encoded as the
root's label plus the stack of oriented-edge labels along its defining
path; the walk holds, pushes a new label (an "up" move), or pops the last
label (a "down" move, i.e. traversing the reverse of the previous edge).

This module simulates the lazy walk on the cover, reads the escape ray of a
finite trajectory by last-exit decomposition, evaluates the log-probability
that a given cover vertex lies on the ray (its log *entropic weight*), and
estimates the entropy rate, speed, and CLT spread from excursions between
ray renewals.  The functions that need the ray's law take it as ``ray``, an
object with ``graph``, ``exit_prob`` and ``edge_freq`` indexed on the
oriented edges of ``graph``: for a walk on a graph ``g``, the
:class:`~liftmix.analyzer.EntropyReport` of ``g``, which states the law of
its pruned core on ``g``'s own oriented edges.  :func:`renewal_edge`'s
default pick also reads ``ray.first_passage.error``, so without an
``e_star`` it takes the report, not a bare
:class:`~liftmix.analyzer.RayLaw`.

Only the walk itself is sequential.  :func:`simulate_walk` draws uniforms in
blocks of 4096 and finds the holds of a block with numpy, which ranks the
block's moving draws among the move thresholds of every base vertex: by
comparisons with each threshold below 1, or by ``searchsorted`` when there
are many.  Tables built once per walk turn a rank into the code of the
label drawn: ``k + 2`` for label ``k``, with 0 a hold and 1 a pop.  There
is one table per label, read at the head of a walk whose top label it is,
where the reversing label is a pop.  A Python loop over the moving draws
then only looks the code up in the top label's table, and pushes that
table and goes on at the drawn label's, or pops back to the table below.
On a graph of at most 254 oriented labels every rank and code fits in a
byte, so a block's ranks reach the loop, and its codes leave it, as bytes.
That is the walk stage, :func:`_walk_codes`; the finish stage,
:func:`_trajectory`, makes the moves, the codes less 2, and the heights, a
cumulative sum of each step's rise.  ``cover-sim`` runs the two stages
itself: while one trial walks, a second thread reads the trial before it,
and that read is joined before the walk's finish stage allocates the
trajectory, so one trajectory and one walk's codes are alive at a time.
The read takes the finished trajectory in three stages, each one public
function, through two last-exit rules:

* the step after the walk's last visit to height ``j - 1`` is the last push
  to level ``j`` and is never undone; its label is the ray's level-``j``
  label.  :func:`confirmed_ray` returns these steps and labels;
* the steps whose label is the renewal edge (:func:`renewal_edge`) are the
  renewals of :func:`excursion_decomposition`, whose log-weights are
  cumulative sums of push increments along the ray;
* a push to level ``j`` that is not the ray's label keeps the walk off the
  ray until the first pop back to ``j - 1``; :func:`ray_localization_profile`
  reads each sampled step's common prefix with the ray from the outermost
  such off-ray interval covering it.

A level is confirmed when it lies more than ``margin`` below the maximum
height and below the final height, which the walk has not yet left for
good.  The confirmed ray is read once per trajectory and handed to the
other two stages.  :func:`log_weight_trace` replays the walk step by step;
it is the reference the excursion log-weights equal bit for bit.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .base_graph import holding_probability
from .errors import AnalysisError

#: Default number of top levels of a trajectory treated as unconfirmed.
DEFAULT_MARGIN = 25
#: Move codes in a trajectory's move array.
MOVE_POP = -1
MOVE_HOLD = -2

_NEG_INF = float("-inf")
#: Uniforms drawn from the generator at a time by :func:`simulate_walk`.
_BLOCK = 4096
#: Most grid values below 1 that :func:`simulate_walk` ranks a block's
#: draws by, one comparison each, before it takes ``searchsorted``.  On
#: bouquets with 15 such values, the comparisons took 0.82, 0.88, 0.96 and
#: 1.05 times the time of ``searchsorted`` per 100,000-step walk at alpha
#: 0, 1/2, 3/4 and 0.9, and with 19 values 0.82, 0.88, 1.01 and 1.10
#: (medians of 30 alternating walks, 2 vCPU, numpy 2.4).
_COMPARED_VALUES = 15
#: Default least number of excursions an estimate is made from.
_MIN_EXCURSIONS = 30
#: Default most steps of one trajectory sampled for the localization profile.
_MAX_SAMPLES = 5000


@dataclass(frozen=True)
class CoverVertex:
    """A vertex of the universal cover: root label plus label stack."""

    root_label: str
    labels: tuple = ()

    @property
    def height(self):
        return len(self.labels)


def cover_vertex_type(g, v):
    """Base vertex a cover vertex projects to."""
    if not v.labels:
        return v.root_label
    return g.vertices[g.oriented_end[v.labels[-1]]]


@dataclass(frozen=True)
class CoverMove:
    """One admissible move of the lazy cover walk, with its probability."""

    kind: str  # "hold", "up", or "down"
    label: Optional[int]
    probability: float
    target: CoverVertex


def cover_moves(g, v, alpha=None):
    """All moves of the lazy walk out of a cover vertex, with probabilities.

    Holding has probability ``alpha``; each move of the current base vertex
    (``g.out_oriented``, its positive outgoing orientations) gets ``(1 -
    alpha)`` times its weight.  The orientation reversing the last label is
    a "down" move (pop), every other one an "up" move (push).
    """
    alpha = holding_probability(g, alpha)
    base = cover_vertex_type(g, v)
    if base not in g.vertex_index:
        raise AnalysisError(f"unknown vertex {base!r}")
    u = g.vertex_index[base]
    moves = []
    if alpha > 0.0:
        moves.append(CoverMove("hold", None, alpha, v))
    last = v.labels[-1] if v.labels else None
    for k in g.out_oriented[u].tolist():
        prob = (1.0 - alpha) * g.oriented_weight[k]
        if last is not None and k == (last ^ 1):
            moves.append(
                CoverMove("down", k, prob, CoverVertex(v.root_label, v.labels[:-1]))
            )
        else:
            moves.append(
                CoverMove("up", k, prob, CoverVertex(v.root_label, v.labels + (k,)))
            )
    return tuple(moves)


@dataclass(frozen=True)
class CoverTrajectory:
    """A simulated trajectory of the lazy cover walk.

    ``moves[t]`` is the oriented-edge label pushed at step ``t``, or
    ``MOVE_POP`` / ``MOVE_HOLD``; ``heights[t]`` is the height after step
    ``t``.
    """

    root_label: str
    alpha: float
    moves: np.ndarray
    heights: np.ndarray

    def __len__(self):
        return len(self.moves)

    @property
    def max_height(self):
        return int(self.heights.max()) if len(self.heights) else 0


def _build_sampler(g, alpha):
    """Every vertex's one-uniform move sampling, as lookup tables.

    At vertex ``u`` a draw ``x >= alpha`` takes ``u``'s ``i``-th move in
    ``g.out_oriented``, where ``i`` is ``bisect_left`` of ``x`` in ``u``'s
    cumulative thresholds.  ``grid`` holds the thresholds of all vertices,
    sorted, each value once; a draw of rank ``j = searchsorted(grid, x)``
    lies above exactly ``grid[:j]``, so ``rows[u][j]`` is the code ``k + 2``
    of the label ``k`` that ``u`` takes.  The rows are made by comparisons
    alone, so they give ``bisect_left``'s label on the same float64
    thresholds.  ``tables[c]``, for the code ``c`` of each label, is the
    row of that label's head with the reversing code ``c ^ 1`` (adding 2
    leaves the low bit alone) replaced by 1, a pop: the row of a walk
    whose top label is ``c``'s.
    """
    thresholds = []
    codes = []
    for u in range(g.n_vertices):
        ks = g.out_oriented[u].tolist()
        acc = alpha
        cums = []
        for k in ks:
            acc += (1.0 - alpha) * float(g.oriented_weight[k])
            cums.append(acc)
        if cums:
            cums[-1] = max(cums[-1], 1.0)
        thresholds.append(cums)
        codes.append([k + 2 for k in ks])
    grid = np.unique(np.concatenate(thresholds))
    rows = []
    for cums, cs in zip(thresholds, codes):
        # how many of u's thresholds lie in grid[:j], for j = 0 .. len(grid).
        # Every draw is below 1 <= u's last threshold, so the ranks past it,
        # clipped here, never occur at u.
        index = np.searchsorted(cums, grid, side="right")
        index = np.minimum(np.concatenate(([0], index)), len(cs) - 1)
        rows.append(np.array(cs)[index].tolist())
    tables = [None, None]
    for c, u in enumerate(g.oriented_end.tolist(), 2):
        tables.append([1 if k == c ^ 1 else k for k in rows[u]])
    return grid, rows, tables


def simulate_walk(g, root_label, steps, alpha=None, rng=None):
    """Simulate the lazy cover walk for ``steps`` steps from a root vertex.

    All randomness comes from ``rng`` (a ``numpy.random.Generator``), so
    trajectories are reproducible per stream.  Emits a warning when the
    cover walk is known to be recurrent, since escape-based estimators are
    then meaningless.

    The uniforms come in blocks of 4096, one uniform a step; a step holds
    when its uniform is below ``alpha``.  The loop over a block's ranked
    moving draws carries one list, the sampler table of the walk's top
    label (the root's row at the root), which gives the code drawn at each
    rank: 0 for a hold, 1 for a pop and ``k + 2`` for a push of label
    ``k``.  A pop goes back to the table below it on the stack, and a push
    stacks the table and goes on at the pushed label's.  On a graph of at
    most 254 oriented labels the ranks are a byte sum of comparisons with
    the grid values below 1, or past :data:`_COMPARED_VALUES` of them a
    ``searchsorted``, and reach the loop, and its codes leave it, as bytes;
    a larger graph passes ``searchsorted``'s ranks as Python lists.  A
    block without a moving draw leaves the walk where it was.
    """
    alpha = holding_probability(g, alpha)
    return _trajectory(root_label, alpha, _walk_codes(g, root_label, steps, alpha, rng))


def _walk_codes(g, root_label, steps, alpha, rng=None):
    """The walk stage of :func:`simulate_walk`, at a holding probability
    ``alpha`` already resolved: the draws, the ranks and the loop, ending in
    each step's code, as bytes on a graph of at most 254 oriented labels and
    as int32 on a larger one."""
    if root_label not in g.vertex_index:
        raise AnalysisError(f"unknown root vertex {root_label!r}")
    steps = int(steps)
    if steps < 0:
        raise AnalysisError("step count must be nonnegative")
    if rng is None:
        rng = np.random.default_rng(0)
    try:
        if not g.transience.transient:
            warnings.warn(
                "cover walk is recurrent; escape statistics will not "
                "converge", stacklevel=3,
            )
    except AnalysisError:
        pass

    grid, rows, tables = _build_sampler(g, alpha)
    # the largest code is n_oriented + 1, and no rank exceeds the count of
    # positive labels
    as_bytes = g.n_oriented <= 254
    # every draw is below 1, so the count of these values below it is
    # searchsorted's left rank
    edges = grid[grid < 1.0].tolist()
    compare = as_bytes and len(edges) <= _COMPARED_VALUES
    codes = np.zeros(steps, dtype=np.uint8 if as_bytes else np.int32)
    table = rows[g.vertex_index[root_label]]
    below = []
    # one block is drawn even for no steps
    for t in range(0, max(steps, 1), _BLOCK):
        r = rng.random(_BLOCK)[:steps - t]
        moving = np.flatnonzero(r >= alpha)
        x = r[moving]
        if compare:
            ranks = np.zeros(len(x), dtype=np.uint8)
            for edge in edges:
                ranks += x > edge
            ranks = ranks.tobytes()
        else:
            ranks = np.searchsorted(grid, x)
            ranks = ranks.astype(np.uint8).tobytes() if as_bytes else ranks.tolist()
        block = [1] * len(ranks)
        for i in range(len(ranks)):
            k = table[ranks[i]]
            if k == 1:
                table = below.pop()
            else:
                below.append(table)
                table = tables[k]
                block[i] = k
        codes[t:t + _BLOCK][moving] = (np.frombuffer(bytes(block), np.uint8)
                                       if as_bytes else block)
    return codes


def _trajectory(root_label, alpha, codes):
    """The finish stage of :func:`simulate_walk`: the trajectory of a walk
    from its codes.  A hold leaves the height, a pop lowers it and a push
    raises it; the rises are summed in place, in the heights' own int32."""
    moves = np.subtract(codes, 2, dtype=np.int32)
    heights = np.subtract(codes >= 2, codes == 1, dtype=np.int32)
    np.cumsum(heights, out=heights)
    return CoverTrajectory(root_label=root_label, alpha=alpha, moves=moves,
                           heights=heights)


# ---------------------------------------------------------------------------
# ray extraction
# ---------------------------------------------------------------------------


def confirmed_ray(traj, margin=DEFAULT_MARGIN):
    """Confirmed prefix of the escape ray, by last-exit decomposition: the
    steps at which the walk leaves each confirmed level for the last time,
    and the ray's labels read at those steps, as two arrays.

    The step after the walk's last visit to level ``j - 1`` is a push that is
    never undone, and no later push reaches level ``j``, so it is the last
    push to level ``j``; its label is the ray's level-``j`` label.  Levels
    within ``margin`` of the maximum height, and levels at or above the final
    height (the walk may still drop back through them), are not confirmed.
    Raises :class:`AnalysisError` when no level is.
    """
    margin = int(margin)
    if margin < 0:
        raise AnalysisError("margin must be nonnegative")
    max_h = traj.max_height
    if max_h - margin <= 0:
        raise AnalysisError(
            f"trajectory too short: max height {max_h} does not exceed "
            f"margin {margin}"
        )
    final_h = int(traj.heights[-1])
    if final_h <= 0:
        raise AnalysisError(
            f"trajectory ended at height {final_h}: no ray level is confirmed"
        )
    limit = min(max_h - margin, final_h)
    pushes = np.flatnonzero(traj.moves >= 0)
    last = np.empty(max_h + 1, dtype=np.int64)
    # With repeated indices the last write wins, giving last-push times.
    last[traj.heights[pushes]] = pushes
    times = last[1:limit + 1]
    return times, traj.moves[times]


# ---------------------------------------------------------------------------
# entropic weights
# ---------------------------------------------------------------------------


def _push_increment(exit_prob, label, below):
    """Log-weight increment for pushing ``label`` on top of ``below``.

    ``below`` is the label underneath (None at the root).  Returns -inf when
    the vertex cannot lie on the ray.
    """
    xe = exit_prob[label]
    if xe <= 0.0:
        return _NEG_INF
    if below is None:
        return math.log(xe)
    x_back = exit_prob[below ^ 1]
    if x_back >= 1.0:
        return _NEG_INF
    return math.log(xe) - math.log1p(-x_back)


def log_entropic_weight(path, ray):
    """Log-probability that the cover vertex with this label path lies on
    the escape ray (``-inf`` when it cannot).

    ``ray`` is a ray law whose ``graph`` indexes the labels: the
    :class:`~liftmix.analyzer.EntropyReport` of the graph the walk runs on,
    or the :class:`~liftmix.analyzer.RayLaw` of a pruned graph.  The empty
    path (the root) has weight one.  Raises :class:`AnalysisError` if the
    path is not a composable non-backtracking label sequence.
    """
    g = ray.graph
    x = ray.exit_prob
    total = 0.0
    below = None
    for pos, k in enumerate(path):
        k = int(k)
        if not 0 <= k < g.n_oriented:
            raise AnalysisError(f"label {k} out of range")
        if g.oriented_weight[k] <= 0.0:
            raise AnalysisError(
                f"label {g.oriented_name(k)} has zero weight; not a cover edge"
            )
        if below is not None:
            if g.oriented_init[k] != g.oriented_end[below]:
                raise AnalysisError(
                    f"labels {g.oriented_name(below)} -> {g.oriented_name(k)} "
                    "do not compose"
                )
            if k == (below ^ 1):
                raise AnalysisError(
                    f"path backtracks at position {pos}"
                )
        inc = _push_increment(x, k, below)
        if inc == _NEG_INF:
            return _NEG_INF
        total = total + inc
        below = k
    return total


def log_weight_trace(traj, ray):
    """Per-step log entropic weight of the walk's position.

    Maintains a stack of cumulative log-weights in parallel with the label
    stack, so a pop restores exactly the value the position had before the
    matching push; the value at each step is bit-identical to recomputing
    :func:`log_entropic_weight` on the position's path from scratch.
    """
    x = ray.exit_prob
    cum = [0.0]
    stack = []
    out = np.empty(len(traj.moves))
    for t, mv in enumerate(traj.moves):
        if mv == MOVE_POP:
            stack.pop()
            cum.pop()
        elif mv != MOVE_HOLD:
            k = int(mv)
            below = stack[-1] if stack else None
            prev = cum[-1]
            inc = _push_increment(x, k, below)
            cum.append(prev + inc if (prev != _NEG_INF and inc != _NEG_INF)
                       else _NEG_INF)
            stack.append(k)
        out[t] = cum[-1]
    return out


@dataclass(frozen=True)
class LevelWeightCheck:
    """Result of summing ray-passage probabilities over one cover level."""

    deviation: float
    level_size: int


def level_weight_check(ray, depth, root_label=None, cap=2_000_000):
    """Verify that entropic weights over a cover level sum to one.

    Enumerates every positive-probability cover vertex at the given depth
    below ``root_label`` (default: the first vertex of ``ray.graph``) and
    returns ``|sum - 1|`` together with the number of vertices enumerated.
    Subtrees with zero ray probability are pruned, since they contribute
    nothing to the sum.  Raises :class:`AnalysisError` when more than
    ``cap`` vertices would be visited, or when the root is outside the
    analyzed core (its exit probabilities would not sum to one).
    """
    g = ray.graph
    depth = int(depth)
    if depth < 0:
        raise AnalysisError("depth must be nonnegative")
    if root_label is None:
        root_label = g.vertices[0]
    if root_label not in g.vertex_index:
        raise AnalysisError(f"unknown root vertex {root_label!r}")
    if depth == 0:
        return LevelWeightCheck(deviation=0.0, level_size=1)
    x = ray.exit_prob
    u = g.vertex_index[root_label]
    roots = g.out_oriented[u].tolist()
    root_mass = sum(float(x[k]) for k in roots)
    if abs(root_mass - 1.0) > 1e-9:
        raise AnalysisError(
            f"root {root_label!r} lies outside the analyzed core "
            f"(outgoing exit mass {root_mass!r})"
        )
    total = 0.0
    count = 0
    visited = 0
    stack = []
    for k in roots:
        inc = _push_increment(x, k, None)
        if inc != _NEG_INF:
            stack.append((k, 1, inc))
    while stack:
        k, d, lw = stack.pop()
        visited += 1
        if visited > cap:
            raise AnalysisError(
                f"level enumeration exceeded {cap} vertices at depth {depth}"
            )
        if d == depth:
            total += math.exp(lw)
            count += 1
            continue
        for l in g.continuations[k]:
            inc = _push_increment(x, l, k)
            if inc != _NEG_INF:
                stack.append((l, d + 1, lw + inc))
    return LevelWeightCheck(deviation=abs(total - 1.0), level_size=count)


# ---------------------------------------------------------------------------
# excursions between ray renewals
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExcursionStats:
    """Per-excursion samples between renewal crossings of one edge type.

    An excursion runs between consecutive *exit times*: steps after which
    the walk never drops back to the level it just left, crossing upward
    along the chosen oriented edge ``e_star``.  ``durations`` are the step
    counts, ``log_weight_increments`` the drops in log entropic weight, and
    ``level_increments`` the height gains.
    """

    durations: np.ndarray
    log_weight_increments: np.ndarray
    level_increments: np.ndarray
    e_star: int
    degenerate: bool

    @property
    def n(self):
        return len(self.durations)

    @property
    def span(self):
        return int(self.durations.sum())


def _increment_table(exit_prob):
    """``_push_increment`` of every label (columns) over every label below
    it (rows), with a last row for pushes at the root."""
    n = len(exit_prob)
    table = np.empty((n + 1, n))
    for k in range(n):
        table[n, k] = _push_increment(exit_prob, k, None)
        for b in range(n):
            table[b, k] = _push_increment(exit_prob, k, b)
    return table


def renewal_edge(ray, e_star=None):
    """The oriented edge index of the renewal edge of excursions.

    ``e_star`` is an oriented edge of ``ray.graph``, by name like ``"e1+"``
    or by index.  By default it is the most frequent ray edge: the lowest
    oriented edge whose ray frequency lies within the first-passage solver's
    achieved error of the largest frequency, because edges whose frequencies
    tie exactly (all six of theta3 carry 1/6) differ only in rounding below
    that error, which must not pick the edge.  The default reads that error
    as ``ray.first_passage.error``, so it takes the
    :class:`~liftmix.analyzer.EntropyReport`, not a bare ray law.
    """
    g = ray.graph
    if e_star is None:
        freq = ray.edge_freq
        if not (freq > 0).any():
            raise AnalysisError("ray law carries no positive edge frequency")
        return int(np.flatnonzero(freq >= freq.max() - ray.first_passage.error)[0])
    if isinstance(e_star, str):
        if e_star not in g.oriented_index_by_name:
            raise AnalysisError(f"unknown oriented edge {e_star!r}")
        return g.oriented_index_by_name[e_star]
    k = int(e_star)
    if not 0 <= k < g.n_oriented:
        raise AnalysisError(f"oriented edge index {k} out of range")
    return k


def excursion_decomposition(ray, e_star, times, ray_labels,
                            min_count=_MIN_EXCURSIONS):
    """Cut a trajectory into excursions between ray renewals.

    ``times`` and ``ray_labels`` are the trajectory's :func:`confirmed_ray`,
    and ``e_star`` the oriented edge index of the renewal edge
    (:func:`renewal_edge`).  The segment before the first renewal and the
    censored tail above the confirmed region are discarded.  Raises
    :class:`AnalysisError` when fewer than ``min_count`` complete
    excursions remain.
    """
    renewals = np.flatnonzero(ray_labels == e_star)
    if len(renewals) < min_count + 1:
        raise AnalysisError(
            f"only {max(len(renewals) - 1, 0)} complete excursions below "
            f"the confirmed level; need at least {min_count}"
        )
    # The log-weight of each ray vertex is the left fold of the push
    # increments along the ray, the same sums log_weight_trace forms.
    below = np.empty(len(ray_labels), dtype=np.int64)
    below[0] = len(ray.exit_prob)  # the table's row for a push at the root
    below[1:] = ray_labels[:-1]
    push_inc = _increment_table(ray.exit_prob)[below, ray_labels]
    logw = np.cumsum(push_inc)[renewals]
    times = times[renewals]
    levels = renewals + 1
    if not np.isfinite(logw).all():
        raise AnalysisError(
            "a ray renewal vertex has zero entropic weight; the walk "
            "started outside the pruned core (pick a root on a core vertex)"
        )
    durations = np.diff(times)
    increments = -np.diff(logw)
    level_gains = np.diff(levels)
    if (durations < 1).any():
        raise AnalysisError("internal error: non-positive excursion duration")
    if (increments < -1e-9).any():
        raise AnalysisError("internal error: negative log-weight increment")
    degenerate = bool((increments <= 1e-9).all())
    return ExcursionStats(
        durations=durations,
        log_weight_increments=np.clip(increments, 0.0, None),
        level_increments=level_gains,
        e_star=e_star,
        degenerate=degenerate,
    )


@dataclass(frozen=True)
class CltEstimate:
    """Monte Carlo estimates of the entropy rate and its CLT spread.

    ``h_est`` is nats per walk step; ``sigma_est`` the spread constant in
    the step CLT for the position's log-weight.  Standard errors come from
    the delta method on per-excursion residuals; ``sigma_se`` additionally
    plugs in the empirical fourth moment and is approximate.  When the
    normalized excursion variance vanishes but increments do not, the ray
    law is cylindrically symmetric and ``sigma_est`` is exactly zero.
    """

    h_est: float
    h_se: float
    sigma_est: float
    sigma_se: float
    n_excursions: int
    degenerate: bool
    cylindrical: bool


def _ratio(reward, tau):
    """Renewal-reward ratio ``mean(reward) / mean(tau)`` of excursion floats
    and its delta-method standard error, from ``reward - ratio * tau``."""
    tbar = float(tau.mean())
    ratio = float(reward.mean()) / tbar
    resid = reward - ratio * tau
    return ratio, float(resid.std(ddof=1) / (math.sqrt(len(tau)) * tbar))


def estimate_clt_params(stats, min_count=_MIN_EXCURSIONS):
    """Entropy rate and CLT spread from excursion samples."""
    n = stats.n
    if n < min_count:
        raise AnalysisError(f"need at least {min_count} excursions, got {n}")
    tau = stats.durations.astype(float)
    w = stats.log_weight_increments
    h_est, h_se = _ratio(w, tau)
    tbar = float(tau.mean())
    wbar = float(w.mean())
    if stats.degenerate or wbar <= 0.0:
        return CltEstimate(
            h_est=h_est, h_se=h_se, sigma_est=0.0, sigma_se=0.0,
            n_excursions=n, degenerate=True, cylindrical=False,
        )
    z = (w - wbar) / wbar - (tau - tbar) / tbar
    var_z = float(z.var(ddof=1))
    sigma_sq = wbar**2 * var_z / tbar
    if var_z <= 1e-14:
        return CltEstimate(
            h_est=h_est, h_se=h_se, sigma_est=0.0, sigma_se=0.0,
            n_excursions=n, degenerate=False, cylindrical=True,
        )
    sigma = math.sqrt(sigma_sq)
    zc = z - z.mean()
    mu4 = float(np.mean(zc**4))
    var_var_z = max(mu4 - var_z**2, 0.0) / n
    se_sigma_sq = wbar**2 / tbar * math.sqrt(var_var_z)
    sigma_se = se_sigma_sq / (2.0 * sigma)
    return CltEstimate(
        h_est=h_est, h_se=h_se, sigma_est=sigma, sigma_se=sigma_se,
        n_excursions=n, degenerate=False, cylindrical=False,
    )


@dataclass(frozen=True)
class SpeedEstimate:
    value: float
    se: float


def estimate_speed(stats):
    """Levels climbed per walk step, from the same excursion samples."""
    return SpeedEstimate(*_ratio(stats.level_increments.astype(float),
                                 stats.durations.astype(float)))


# ---------------------------------------------------------------------------
# localization around the ray
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LocalizationProfile:
    """Empirical tail of the walk's tree distance to its escape ray.

    ``counts[r]`` of the ``n_samples`` sampled steps lie farther than ``r``
    from the ray; profiles of disjoint trajectory sets pool exactly by
    summing both, and :attr:`tail_freq` is read from the tallies alone.
    """

    n_samples: int
    counts: tuple

    @property
    def tail_freq(self):
        """``{r: counts[r] / n_samples}``, the estimate of ``P(dist > r)``."""
        return {r: float(c) / self.n_samples for r, c in enumerate(self.counts)}


def _ray_prefix_lengths(traj, ray_labels, times):
    """Length of the common prefix of the walk's path with the ray at each of
    the given steps, whose heights must not exceed ``len(ray_labels)``.

    A push to a level ``j`` of the confirmed region whose label differs from
    the ray's level-``j`` label keeps the path off the ray from level ``j`` up
    until the first pop back to level ``j - 1``; over that interval the
    common prefix is ``j - 1`` at most.  The closing pops are found by one
    binary search over the pops keyed by ``(height, time)``.  Off-ray
    intervals nest like the pushes that open them: an interval that opens
    inside an earlier one lies inside it, at a higher level.  The outermost
    intervals, those that open at or after the running maximum of the
    earlier ends, are disjoint.  A step inside one that opened at level
    ``j`` has prefix length ``j - 1``, any other step its own height.
    """
    moves, heights = traj.moves, traj.heights
    limit = len(ray_labels)
    pushes = np.flatnonzero((moves >= 0) & (heights <= limit))
    # Index arrays, not boolean masks, select the off-ray pushes and the
    # outermost intervals: numpy selects by index faster than by mask.
    start = pushes[np.flatnonzero(moves[pushes] != ray_labels[heights[pushes] - 1])]
    # the index arrays of every push and pop go as soon as they are read:
    # a 250,000-step theta3 walk at alpha 1/2 then peaks near 1.7 MB here
    # with its sampling, not 2.9 MB
    del pushes
    level = heights[start]
    # Every off-ray push is popped again, since the final path follows the
    # ray up to the limit, so each search finds its closing pop.
    pops = np.flatnonzero((moves == MOVE_POP) & (heights < limit))
    span = len(moves) + 1
    close = np.multiply(heights[pops], span, dtype=np.int64)
    close += pops
    del pops
    close.sort()
    below = (level - 1).astype(np.int64) * span
    end = close[np.searchsorted(close, below + start)] - below
    # A sentinel interval [-1, 0) opens before every step, so each step
    # finds an interval opening at or before it.
    start, end, level = np.append(-1, start), np.append(0, end), np.append(0, level)
    reach = np.maximum.accumulate(end)
    outer = np.append(0, np.flatnonzero(start[1:] >= reach[:-1]) + 1)
    start, end, level = start[outer], end[outer], level[outer]
    i = np.searchsorted(start, times, side="right") - 1
    return np.where(times < end[i], level[i] - 1, heights[times])


def _strided_nonzero(mask, stride):
    """``np.flatnonzero(mask)[::stride]``, found one run of ``8 * _BLOCK``
    entries at a time, so that the index of every true entry is never held
    at once: a 250,000-step walk's would take about 2 MB."""
    parts = [np.empty(0, dtype=np.intp)]
    skip = 0  # true entries to pass over before the next one taken
    for t in range(0, len(mask), 8 * _BLOCK):
        idx = np.flatnonzero(mask[t:t + 8 * _BLOCK])
        parts.append(idx[skip::stride] + t)
        skip = (skip - len(idx)) % stride
    return np.concatenate(parts)


def ray_localization_profile(traj, ray_labels, r_max, max_samples=_MAX_SAMPLES):
    """Tail frequencies of the distance from the walk to its escape ray.

    ``ray_labels`` are the trajectory's :func:`confirmed_ray` labels.  At
    most about ``max_samples`` steps whose height lies within the confirmed
    region are sampled, evenly spaced; the tree distance from the position
    to the ray is the height minus the length of the longest common prefix
    of the position's path with the ray.  Tallies ``dist > R`` for ``R = 0
    .. r_max``; the tail is nonincreasing in ``R`` by construction.
    """
    r_max = int(r_max)
    if r_max < 0:
        raise AnalysisError("r_max must be nonnegative")
    eligible = traj.heights <= len(ray_labels)
    stride = max(1, int(np.count_nonzero(eligible)) // max(1, int(max_samples)))
    times = _strided_nonzero(eligible, stride)
    del eligible  # not held through the prefix search
    if len(times) == 0:
        raise AnalysisError("no eligible samples inside the confirmed region")
    dist = traj.heights[times] - _ray_prefix_lengths(traj, ray_labels, times)
    hist = np.bincount(np.minimum(dist, r_max + 1), minlength=r_max + 2)
    counts = np.cumsum(hist[::-1])[::-1][1:]
    return LocalizationProfile(n_samples=len(times), counts=tuple(counts.tolist()))
