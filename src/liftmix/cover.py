"""Simulation and estimation on the universal cover.

The universal cover of a base graph is the tree of non-backtracking
positive-weight paths from a root vertex.  A cover vertex is encoded as the
root's label plus the stack of oriented-edge labels along its defining
path; the walk holds, pushes a new label (an "up" move), or pops the last
label (a "down" move, i.e. traversing the reverse of the previous edge).

This module simulates the lazy walk on the cover, extracts the escape ray
from a finite trajectory by last-exit decomposition, evaluates the
probability that a given cover vertex lies on the ray (its *entropic
weight*), and estimates the entropy rate, speed, and CLT spread from
excursions between ray renewals.
"""

from __future__ import annotations

import math
import warnings
from bisect import bisect_left
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import AnalysisError

#: Default number of top levels of a trajectory treated as unconfirmed.
DEFAULT_MARGIN = 25
#: Move codes in a trajectory's move array.
MOVE_POP = -1
MOVE_HOLD = -2

_NEG_INF = float("-inf")


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

    Holding has probability ``alpha``; each positive outgoing orientation of
    the current base vertex gets ``(1 - alpha)`` times its weight.  The
    orientation reversing the last label is a "down" move (pop), every
    other one an "up" move (push).
    """
    if alpha is None:
        alpha = g.alpha
    if not 0.0 <= alpha < 1.0:
        raise AnalysisError(f"holding probability must lie in [0, 1), got {alpha}")
    base = cover_vertex_type(g, v)
    if base not in g.vertex_index:
        raise AnalysisError(f"unknown vertex {base!r}")
    u = g.vertex_index[base]
    moves = []
    if alpha > 0.0:
        moves.append(CoverMove("hold", None, alpha, v))
    last = v.labels[-1] if v.labels else None
    for k in g.out_oriented[u]:
        k = int(k)
        w = g.oriented_weight[k]
        if w <= 0.0:
            continue
        prob = (1.0 - alpha) * w
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
    ``t``.  ``stopped`` records an early-stop reason (``"root"`` or
    ``"height"``) when a stopping rule was supplied.
    """

    root_label: str
    alpha: float
    moves: np.ndarray
    heights: np.ndarray
    stopped: Optional[str] = None

    def __len__(self):
        return len(self.moves)

    @property
    def max_height(self):
        return int(self.heights.max()) if len(self.heights) else 0

    def final_stack(self):
        stack = []
        for mv in self.moves:
            if mv == MOVE_POP:
                stack.pop()
            elif mv != MOVE_HOLD:
                stack.append(int(mv))
        return tuple(stack)


def _build_sampler(g, alpha):
    """Per-vertex cumulative thresholds for one-uniform move sampling."""
    thresholds = []
    labels = []
    for u in range(g.n_vertices):
        ks = [int(k) for k in g.out_oriented[u] if g.oriented_weight[k] > 0.0]
        acc = alpha
        cums = []
        for k in ks:
            acc += (1.0 - alpha) * float(g.oriented_weight[k])
            cums.append(acc)
        if cums:
            cums[-1] = max(cums[-1], 1.0)
        thresholds.append(cums)
        labels.append(ks)
    return thresholds, labels


def simulate_walk(g, root_label, steps, alpha=None, rng=None, stop_at_root=False,
                  stop_height=None, warn_recurrent=True):
    """Simulate the lazy cover walk for ``steps`` steps from a root vertex.

    All randomness comes from ``rng`` (a ``numpy.random.Generator``), so
    trajectories are reproducible per stream.  ``stop_at_root`` ends the
    walk when it returns to height zero; ``stop_height`` ends it when the
    given height is first reached.  Emits a warning when the cover walk is
    known to be recurrent, since escape-based estimators are then
    meaningless.
    """
    if alpha is None:
        alpha = g.alpha
    if not 0.0 <= alpha < 1.0:
        raise AnalysisError(f"holding probability must lie in [0, 1), got {alpha}")
    if root_label not in g.vertex_index:
        raise AnalysisError(f"unknown root vertex {root_label!r}")
    steps = int(steps)
    if steps < 0:
        raise AnalysisError("step count must be nonnegative")
    if rng is None:
        rng = np.random.default_rng(0)
    if warn_recurrent:
        try:
            verdict = g.transience
            if not verdict.transient:
                warnings.warn(
                    "cover walk is recurrent; escape statistics will not "
                    "converge", stacklevel=2,
                )
        except AnalysisError:
            pass

    thresholds, labels = _build_sampler(g, alpha)
    o_end = [int(x) for x in g.oriented_end]
    moves = np.empty(steps, dtype=np.int32)
    heights = np.empty(steps, dtype=np.int32)
    stack = []
    cur = g.vertex_index[root_label]
    stopped = None
    t = 0
    block = rng.random(4096)
    bi = 0
    while t < steps:
        if bi == len(block):
            block = rng.random(4096)
            bi = 0
        r = block[bi]
        bi += 1
        if r < alpha:
            moves[t] = MOVE_HOLD
        else:
            cums = thresholds[cur]
            i = bisect_left(cums, r)
            if i >= len(cums):
                i = len(cums) - 1
            k = labels[cur][i]
            if stack and k == (stack[-1] ^ 1):
                stack.pop()
                moves[t] = MOVE_POP
            else:
                stack.append(k)
                moves[t] = k
            cur = o_end[k]
        heights[t] = len(stack)
        t += 1
        if stop_at_root and not stack:
            stopped = "root"
            break
        if stop_height is not None and len(stack) == stop_height:
            stopped = "height"
            break
    return CoverTrajectory(
        root_label=root_label,
        alpha=float(alpha),
        moves=moves[:t],
        heights=heights[:t],
        stopped=stopped,
    )


# ---------------------------------------------------------------------------
# ray extraction
# ---------------------------------------------------------------------------


def _last_time_per_level(traj):
    """Array mapping each height to the last step index at that height.

    Index -1 stands for the initial position (height zero before any move).
    """
    heights = traj.heights
    max_h = traj.max_height
    last = np.full(max_h + 1, -2, dtype=np.int64)
    last[0] = -1
    if len(heights):
        # With repeated indices the last write wins, giving last-visit times.
        last[heights] = np.arange(len(heights), dtype=np.int64)
    return last


def extract_ray(traj, margin=DEFAULT_MARGIN):
    """Confirmed prefix of the escape ray via last-exit decomposition.

    The ray's level-``i`` vertex is where the walk sat when it left level
    ``i`` for the last time.  Levels within ``margin`` of the maximum
    height reached are treated as unconfirmed and dropped.  Returns the
    tuple of oriented-edge labels of the confirmed prefix.  Raises
    :class:`AnalysisError` when the trajectory never climbed past the
    margin.
    """
    margin = int(margin)
    if margin < 0:
        raise AnalysisError("margin must be nonnegative")
    max_h = traj.max_height
    limit = max_h - margin
    if limit <= 0:
        raise AnalysisError(
            f"trajectory too short: max height {max_h} does not exceed "
            f"margin {margin}"
        )
    last = _last_time_per_level(traj)
    theta = int(last[limit])
    stack = []
    for mv in traj.moves[: theta + 1]:
        if mv == MOVE_POP:
            stack.pop()
        elif mv != MOVE_HOLD:
            stack.append(int(mv))
    if len(stack) != limit:
        raise AnalysisError("internal error: ray replay height mismatch")
    return tuple(stack)


# ---------------------------------------------------------------------------
# entropic weights
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RayView:
    """Ray exit law restated on the oriented edges of a host graph.

    Trajectories are simulated on the full graph while the exit law lives
    on its pruned core; this view maps core quantities back onto the full
    graph's oriented-edge indexing (edges outside the core get zero).
    """

    graph: object
    exit_prob: np.ndarray
    edge_freq: np.ndarray


def make_ray_view(g, raylaw):
    """Restate a (possibly core-level) ray law on graph ``g``'s edges."""
    gc = raylaw.graph
    if gc is g or gc.to_text() == g.to_text():
        return RayView(graph=g, exit_prob=raylaw.exit_prob.copy(),
                       edge_freq=raylaw.edge_freq.copy())
    by_id = {e.eid: j for j, e in enumerate(g.edges)}
    exit_full = np.zeros(g.n_oriented)
    freq_full = np.zeros(g.n_oriented)
    for jc, e in enumerate(gc.edges):
        if e.eid not in by_id:
            raise AnalysisError(
                f"edge {e.eid!r} of the pruned graph is missing from the host"
            )
        j = by_id[e.eid]
        host = g.edges[j]
        if (host.tail, host.head) != (e.tail, e.head):
            raise AnalysisError(
                f"edge {e.eid!r} has different endpoints in the host graph"
            )
        exit_full[2 * j] = raylaw.exit_prob[2 * jc]
        exit_full[2 * j + 1] = raylaw.exit_prob[2 * jc + 1]
        freq_full[2 * j] = raylaw.edge_freq[2 * jc]
        freq_full[2 * j + 1] = raylaw.edge_freq[2 * jc + 1]
    return RayView(graph=g, exit_prob=exit_full, edge_freq=freq_full)


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

    ``ray`` is a :class:`~liftmix.analyzer.RayLaw` or :class:`RayView`
    whose graph indexes the labels.  The empty path (the root) has weight
    one.  Raises :class:`AnalysisError` if the path is not a composable
    non-backtracking label sequence.
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


def entropic_weight(path, ray):
    """Probability that the cover vertex with this label path is on the ray."""
    lw = log_entropic_weight(path, ray)
    return 0.0 if lw == _NEG_INF else math.exp(lw)


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


def level_weight_check(g, ray, depth, root_label=None, cap=2_000_000):
    """Verify that entropic weights over a cover level sum to one.

    Enumerates every positive-probability cover vertex at the given depth
    below ``root_label`` (default: the first vertex) and returns
    ``|sum - 1|`` together with the number of vertices enumerated.
    Subtrees with zero ray probability are pruned, since they contribute
    nothing to the sum.  Raises :class:`AnalysisError` when more than
    ``cap`` vertices would be visited, or when the root is outside the
    analyzed core (its exit probabilities would not sum to one).
    """
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
    root_mass = sum(float(x[int(k)]) for k in g.out_oriented[u])
    if abs(root_mass - 1.0) > 1e-9:
        raise AnalysisError(
            f"root {root_label!r} lies outside the analyzed core "
            f"(outgoing exit mass {root_mass!r})"
        )
    out_pos = [
        [int(k) for k in g.out_oriented[v] if g.oriented_weight[k] > 0.0]
        for v in range(g.n_vertices)
    ]
    total = 0.0
    count = 0
    visited = 0
    stack = []
    for k in out_pos[u]:
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
        for l in out_pos[g.oriented_end[k]]:
            if l == (k ^ 1):
                continue
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


def _resolve_label(g, e_star):
    if isinstance(e_star, str):
        if e_star not in g.oriented_index_by_name:
            raise AnalysisError(f"unknown oriented edge {e_star!r}")
        return g.oriented_index_by_name[e_star]
    k = int(e_star)
    if not 0 <= k < g.n_oriented:
        raise AnalysisError(f"oriented edge index {k} out of range")
    return k


def excursion_decomposition(traj, ray, e_star=None, margin=DEFAULT_MARGIN,
                            min_count=30):
    """Cut a trajectory into excursions between ray renewals.

    ``e_star`` is an oriented edge (index or name like ``"e1+"``); by
    default the most frequent ray edge.  The segment before the first exit
    and the censored tail above the confirmed region are discarded.  Raises
    :class:`AnalysisError` when fewer than ``min_count`` complete
    excursions remain.
    """
    g = ray.graph
    if e_star is None:
        if not (ray.edge_freq > 0).any():
            raise AnalysisError("ray law carries no positive edge frequency")
        e_star = int(np.argmax(ray.edge_freq))
    else:
        e_star = _resolve_label(g, e_star)

    max_h = traj.max_height
    limit = max_h - int(margin)
    if limit <= 0:
        raise AnalysisError(
            f"trajectory too short: max height {max_h} does not exceed "
            f"margin {margin}"
        )
    last = _last_time_per_level(traj)
    moves = traj.moves
    trace = log_weight_trace(traj, ray)

    exit_times = []
    exit_levels = []
    for level in range(0, limit):
        t_move = int(last[level]) + 1
        if moves[t_move] == e_star:
            exit_times.append(t_move)
            exit_levels.append(level + 1)
    if len(exit_times) < min_count + 1:
        raise AnalysisError(
            f"only {max(len(exit_times) - 1, 0)} complete excursions below "
            f"the confirmed level; need at least {min_count}"
        )
    times = np.array(exit_times, dtype=np.int64)
    levels = np.array(exit_levels, dtype=np.int64)
    logw = trace[times]
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


def estimate_clt_params(stats, min_count=30):
    """Entropy rate and CLT spread from excursion samples."""
    n = stats.n
    if n < min_count:
        raise AnalysisError(f"need at least {min_count} excursions, got {n}")
    tau = stats.durations.astype(float)
    w = stats.log_weight_increments
    tbar = float(tau.mean())
    wbar = float(w.mean())
    h_est = wbar / tbar
    resid = w - h_est * tau
    h_se = float(resid.std(ddof=1) / (math.sqrt(n) * tbar))
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
    tau = stats.durations.astype(float)
    levels = stats.level_increments.astype(float)
    tbar = float(tau.mean())
    s = float(levels.mean()) / tbar
    resid = levels - s * tau
    se = float(resid.std(ddof=1) / (math.sqrt(len(tau)) * tbar))
    return SpeedEstimate(value=s, se=se)


# ---------------------------------------------------------------------------
# localization around the ray
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LocalizationProfile:
    """Empirical tail of the walk's tree distance to its escape ray.

    ``tail_freq[r]`` estimates the probability that the distance exceeds
    ``r``; ``counts`` holds the raw tallies so profiles from disjoint
    trajectory sets can be pooled exactly.
    """

    tail_freq: dict
    n_samples: int
    counts: tuple = ()


def ray_localization_profile(trajs, r_max, margin=DEFAULT_MARGIN,
                             max_samples_per_traj=5000):
    """Tail frequencies of the distance from the walk to its escape ray.

    For each trajectory the confirmed ray prefix is extracted; at sampled
    steps whose height lies within the confirmed region, the tree distance
    from the position to the ray is the height minus the length of the
    longest common prefix of the position's path with the ray.  Returns
    ``P(dist > R)`` for ``R = 0 .. r_max``, aggregated over trajectories;
    the tail is nonincreasing in ``R`` by construction.
    """
    r_max = int(r_max)
    if r_max < 0:
        raise AnalysisError("r_max must be nonnegative")
    if isinstance(trajs, CoverTrajectory):
        trajs = [trajs]
    counts = np.zeros(r_max + 1, dtype=np.int64)
    n_samples = 0
    for traj in trajs:
        ray_labels = extract_ray(traj, margin=margin)
        limit = len(ray_labels)
        eligible = int(np.count_nonzero(traj.heights <= limit))
        if eligible == 0:
            continue
        stride = max(1, eligible // max(1, int(max_samples_per_traj)))
        stack_len = 0
        cpl = 0
        seen = 0
        stack = []
        for t, mv in enumerate(traj.moves):
            if mv == MOVE_POP:
                stack.pop()
                stack_len -= 1
                if cpl > stack_len:
                    cpl = stack_len
            elif mv != MOVE_HOLD:
                k = int(mv)
                if cpl == stack_len and stack_len < limit and ray_labels[stack_len] == k:
                    cpl += 1
                stack.append(k)
                stack_len += 1
            if stack_len <= limit:
                if seen % stride == 0:
                    dist = stack_len - cpl
                    n_samples += 1
                    top = min(dist - 1, r_max)
                    if top >= 0:
                        counts[: top + 1] += 1
                seen += 1
    if n_samples == 0:
        raise AnalysisError("no eligible samples inside the confirmed region")
    freqs = {r: float(counts[r]) / n_samples for r in range(r_max + 1)}
    return LocalizationProfile(tail_freq=freqs, n_samples=n_samples,
                               counts=tuple(int(c) for c in counts))
