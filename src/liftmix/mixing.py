"""Exact mixing analysis on lifts: TV curves, worst starts, cutoff sweeps.

Total-variation distance to stationarity is propagated exactly (dense
distribution vectors, no renormalization; each step is one gather per
positive-weight oriented edge through the lift's fiber maps, the step of
:func:`liftmix.lift.apply_kernel`), so the reported mixing times are
deterministic given the lift.  :func:`mixing_curves` propagates the starts
of one lift together, in blocks that share the starts out over the CPUs the
process may use, at most ``_BLOCK_DOUBLES // n_states`` rows each: a budget
of 2**16 doubles (512 KB) per buffer, so a lift larger than the budget runs
one start per block.  Blocks are independent and always run on a thread
pool, one thread per CPU but no more than blocks; their curves, progress
calls and errors come back in block order.  A block is stored state-major,
``(n_vertices, n, rows)``, so that each gather of the step moves whole rows
of doubles; with one row this is the layout of a single distribution.  A
running block has one anonymous map to itself, which the blocks of a call
share: a block takes a map that an earlier block gave back, and maps a new
one, sized for the call's largest block, only when none is free, so a call
maps at most one per thread and unmaps them all before it returns.  The map
holds two distribution blocks that swap roles each step, and one work
buffer that holds the step's scaled source and gather scratch and then the
TVs' differences.  Every TV and mass drift is summed in one order that
liftmix owns (:func:`_halve`): over the state axis of the state-major block,
by elementwise adds that never mix rows, so a start's sums do not depend on
the block it runs in or on numpy's reduce order.  After a step the old
distribution is dead: the averaged law is evaluated in it, and the rows
still stepping are compacted into it when others stop.  Raw and averaged
TVs are recorded in one pair of growing arrays, each TV with its history.
The monotonicity checks, early stops, mass drifts and crossings of a block
are vector operations over its rows, and every curve is the same bit for
bit as if its start were propagated alone, at any CPU count.  A step
allocates no state-sized array.  The period of an unlazy lift is found once
per strong component (:meth:`liftmix.lift.Lift.period`) and read for a whole
call at once.  ``mix`` and every sweep cell run one function,
:func:`_cell_curves`: it draws the lift, picks its starts by the one
seed-to-starts rule (:func:`_draw_starts`) and runs their curves.  Every
mixing time, worst start and sweep row is read from
:attr:`TVCurve.mixing_crossings`, the two-step averaged curve's crossings on
a periodic unlazy lift, and the worst start is ranked by one rule
(:func:`_worst_start`), an unreached start first.  The sweep driver scales
the lift degree over a grid, fits the growth of the worst-start mixing time
against ``log n``, and compares the slope with the reciprocal entropy rate
of the base graph.
"""

from __future__ import annotations

import math
import mmap
import os
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .analyzer import entropy
from .base_graph import holding_probability, transition_matrix
from .errors import AnalysisError
from .lift import _step, apply_kernel, draw_lift, lift_stationary, project_distribution
from .rng import _check_seed, substream

#: Tolerance for the per-step mass-conservation and TV-monotonicity checks.
PROPAGATION_TOL = 1e-12
#: Largest state count enumerated exhaustively by worst-start search.
EXHAUSTIVE_START_CAP = 20_000
DEFAULT_EPS_LIST = (0.1, 0.25, 0.5, 0.9)
#: Doubles in each distribution buffer of :func:`mixing_curves` (512 KB): a
#: block holds at most ``_BLOCK_DOUBLES // n_states`` starts, and a lift
#: larger than this runs one start per block.  On two threads 2**16 beat
#: 2**15 on 1,024 starts of a 1,024-state lift, whose gathers then move rows
#: of 64 doubles.
_BLOCK_DOUBLES = 1 << 16
#: Largest relative distance of the fitted slope from ``1 / h`` that
#: :func:`cutoff_sweep` accepts.
_SLOPE_TOLERANCE = 0.15
#: CPUs this process runs on, when it has been given a share of them
#: (:func:`_pool_map`'s processes); None for every CPU it may use.
_CPUS = None


def _cpus():
    """CPUs this process may use: :data:`_CPUS` when set, else the size of
    its CPU affinity, or the machine's CPU count where there is none."""
    if _CPUS is not None:
        return _CPUS
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on macOS and Windows
        return os.cpu_count() or 1


def _share_cpus(cpus):
    """Initializer of :func:`_pool_map`'s processes: this one runs on
    ``cpus`` CPUs."""
    global _CPUS
    _CPUS = cpus


def _pool_size(workers, n_items):
    """Processes :func:`_pool_map` runs ``n_items`` items on: ``workers``,
    but never more than items or CPUs, and at least one."""
    return max(1, min(int(workers), n_items, _cpus()))


def _pool_map(fn, items, workers):
    """``map(fn, items)``, in order, on ``_pool_size(workers, len(items))``
    processes; with one it runs in this process.  Each process steps its
    blocks of starts on an equal share of the CPUs."""
    items = list(items)
    workers = _pool_size(workers, len(items))
    if workers == 1:
        yield from map(fn, items)
        return
    # imported here: multiprocessing costs every CLI call about 14 ms to import
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers, initializer=_share_cpus,
                             initargs=(max(1, _cpus() // workers),)) as pool:
        yield from pool.map(fn, items)


@dataclass(frozen=True)
class TVCurve:
    """Exact total-variation distance to stationarity, per step.

    ``tv[t]`` is the distance after ``t`` steps; ``crossings[eps]`` the
    first step at or below ``eps`` (None when the cap was hit first), and
    :attr:`reached` says which were crossed.  For a periodic chain without
    holding, ``averaged`` carries the same analysis for the two-step
    averaged distribution, which does converge, and :attr:`periodic` is
    True.
    """

    tv: np.ndarray
    crossings: dict
    mass_drift: float
    t_cap: int
    averaged: Optional["TVCurve"] = None

    @property
    def reached(self):
        return {eps: t is not None for eps, t in self.crossings.items()}

    @property
    def periodic(self):
        return self.averaged is not None

    @property
    def mixing_crossings(self):
        """The crossings that mixing times are read from: those of the
        averaged curve when there is one (a periodic curve's raw TV never
        settles), else :attr:`crossings`."""
        return (self.averaged or self).crossings


def _histories(values, owners, n_histories, eps_list):
    """Each history's TVs in step order and first step at or below each
    threshold (or None), from every TV in step order (the array ``values``)
    and the history of each (``owners``): ``(tvs, bounds, crossings)``,
    history ``h`` being ``tvs[bounds[h]:bounds[h + 1]]``, never empty, with
    crossings ``crossings[h]``, found in one pass over the histories per
    threshold."""
    tvs = values[np.argsort(owners, kind="stable")]
    bounds = np.concatenate(([0], np.cumsum(np.bincount(owners, minlength=n_histories))))
    positions = np.arange(len(tvs))
    starts, ends = bounds[:-1].tolist(), bounds[1:].tolist()
    firsts = []
    for eps in eps_list:
        first = np.minimum.reduceat(np.where(tvs <= eps, positions, len(tvs)), bounds[:-1])
        firsts.append([f - b if f < e else None
                       for f, b, e in zip(first.tolist(), starts, ends)])
    return tvs, bounds, [dict(zip(eps_list, col)) for col in zip(*firsts)]


def _halve(cols):
    """The sum of each column of the ``(m, j)`` view ``cols``, in one order
    that liftmix owns, computed in place: the result is a view of the first
    row.  While more than one row is left, an odd count adds its last row
    onto its first, and then the second half of the rows is added onto the
    first.  Every add is elementwise, so a column's sum does not depend on
    the other columns: a start's TV is the same in a block of any width."""
    m = len(cols)
    while m > 1:
        if m % 2:
            m -= 1
            np.add(cols[0], cols[m], cols[0])
        m //= 2
        # out by position: numpy parses it faster than out=, which counts
        # on the many small adds of a one-row block
        top = cols[:m]
        np.add(top, cols[m:2 * m], top)
    return cols[0]


def _tvs(mu, pi, diff):
    """Total variation between each row of the state-major block ``mu``
    (``(n_vertices, n, j)``) and ``pi`` (``(n_vertices, 1, 1)``, the
    stationary mass of one state over each base vertex), computed in
    ``diff``, a buffer of at least ``mu.size`` doubles that does not overlap
    ``mu``.  The differences stay state-major, and each row's are summed by
    :func:`_halve`."""
    rows = diff[:mu.size].reshape(mu.shape)
    np.subtract(mu, pi, out=rows)
    np.abs(rows, out=rows)
    return 0.5 * _halve(rows.reshape(-1, mu.shape[2]))


def _drifts(mu, slots, work):
    """Mass drift of the rows ``slots`` of the state-major block ``mu``:
    the rows are taken into ``work``, a buffer that does not overlap
    ``mu``, and summed there by :func:`_halve`."""
    n_vertices, n, _ = mu.shape
    picked = work[:n_vertices * n * len(slots)].reshape(n_vertices, n, len(slots))
    np.take(mu, slots, axis=2, out=picked, mode="clip")
    return np.abs(_halve(picked.reshape(-1, len(slots))) - 1.0)


def mixing_curves(lift, starts, alpha=None, eps_list=DEFAULT_EPS_LIST,
                  t_cap=10_000, progress=None):
    """Exact TV-to-stationarity curves of the lazy walk, one per start.

    ``starts`` are flat state indices, checked by the lift's one rule
    (:meth:`~liftmix.lift.Lift._indices`); the curves come back in their
    order.  Each curve's propagation stops once every threshold in
    ``eps_list`` has been crossed or at ``t_cap`` steps.
    TV monotonicity is asserted at every step and mass conservation at the
    stop; a violation would indicate a propagation bug, and raises the error
    of the first start, in start order, whose curve fails.  When the chain
    is periodic and unlazy from a start, the raw TV never settles; that
    curve then carries a two-step averaged sibling whose thresholds are
    meaningful, and its early stop watches the averaged curve instead.

    The starts are propagated together, in blocks of ``max(1,
    min(ceil(len(starts) / cpus), _BLOCK_DOUBLES // n_states))``, on a pool
    of one thread per CPU the process may use, but no more threads than
    blocks; every curve is the same, bit for bit, as if its start were
    propagated alone.  A running block has one map of ``8 * size * (2 *
    n_states + max(n_states, 2 * n))`` bytes to itself, for blocks of
    ``size`` starts, taken from those that earlier blocks of the call gave
    back when there is one, so the call maps at most one per thread.
    ``progress``, when given, is called in the calling thread with the
    number of curves done after each block, in block order, and never when
    ``starts`` is empty.  No thread outlives the call.
    """
    alpha = holding_probability(lift.base, alpha)
    eps_list = tuple(float(e) for e in eps_list)
    if not eps_list or not all(0.0 < e < 1.0 for e in eps_list):
        raise AnalysisError("thresholds must lie strictly between 0 and 1")
    t_cap = int(t_cap)
    if t_cap < 0:
        raise AnalysisError("t_cap must be nonnegative")
    starts = lift._indices(list(starts))
    # Holding makes the chain aperiodic, so only the unlazy walk can cycle.
    if alpha <= 0.0:
        periodic = lift.period(starts) > 1
    else:
        periodic = np.zeros(len(starts), dtype=bool)

    # one mass per base vertex, of which lift_stationary is the broadcast, so
    # each subtract of a TV broadcasts one scalar over a vertex's states
    pi = lift_stationary(lift)[:, :1, None]
    cpus = _cpus()
    size = max(1, min(math.ceil(len(starts) / cpus), _BLOCK_DOUBLES // lift.n_states))
    blocks = [(starts[b:b + size], periodic[b:b + size])
              for b in range(0, len(starts), size)]
    # the blocks read this cache: fill it before any thread starts, because
    # cached_property takes no lock from Python 3.12 on
    lift._moves_by_target
    # one anonymous map per running block, sized for the largest block and
    # given back to ``free`` for the next one; the maps are unmapped when
    # ``free`` goes with the call.  glibc kept np.empty's freed buffers in
    # each pool thread's arena, and mix --starts all on a 1,024-state lift
    # peaked 4.5 MB higher (2 CPUs).  list.pop and list.append are atomic,
    # so the threads share ``free`` without a lock.
    free = []
    nbytes = 8 * size * (2 * lift.n_states + max(lift.n_states, 2 * lift.n))

    def run(block):
        try:
            buf = free.pop()
        except IndexError:
            buf = mmap.mmap(-1, nbytes)
        try:
            return _block_curves(lift, *block, alpha, eps_list, t_cap, pi,
                                 np.frombuffer(buf))
        finally:
            free.append(buf)

    # imported here, as _pool_map imports its pool: concurrent.futures, with
    # the logging and queue it loads, costs every CLI call about 9 ms
    from concurrent.futures import ThreadPoolExecutor

    curves = []
    pool = ThreadPoolExecutor(max_workers=max(1, min(cpus, len(blocks))))
    try:
        for block_curves in pool.map(run, blocks):
            curves.extend(block_curves)
            if progress is not None:
                progress(len(curves))
    finally:
        pool.shutdown(cancel_futures=True)
    return curves


def _block_curves(lift, starts, periodic, alpha, eps_list, t_cap, pi, buf):
    """The curves of one block of starts, propagated together.

    ``buf`` is a buffer of doubles that the block has to itself while it
    runs, whatever an earlier block left in it: at least ``k * (2 *
    n_states + max(n_states, 2 * n))`` of them for its ``k`` rows.  It holds
    the block's three buffers.  The block is state-major, ``(n_vertices, n,
    j)`` for ``j`` rows still stepping, in one of the two distribution
    buffers; each step writes the other, and the third, the work buffer,
    holds the step's scaled source and gather scratch and then each TV's
    differences (:func:`_tvs`), or the rows whose mass drift is summed
    (:func:`_drifts`).  After a step the old distribution is dead, and the
    averaged law is computed in it.  The per-row checks and the early stop
    run on the step's TV vector; when rows stop, the others are compacted
    into the dead buffer, so a step never works on a row that has stopped.
    Each step records the TVs of the rows it stepped with their histories,
    in two arrays that grow when full: row ``r``'s raw TVs are history ``r``
    and, on a periodic row, its averaged ones history ``k + p(r)``, ``p(r)``
    periodic rows before it.
    """
    n_vertices, n = lift.base.n_vertices, lift.n
    k = len(starts)
    size = k * lift.n_states
    cur, spare, work = buf[:size], buf[size:2 * size], buf[2 * size:]

    def block(buffer, j):
        return buffer[:n_vertices * n * j].reshape(n_vertices, n, j)

    mu = block(cur, k)
    mu[...] = 0.0
    mu[starts // n, starts % n, np.arange(k)] = 1.0
    last = _tvs(mu, pi, work)  # by slot: the TV of the latest step
    # by row: k + p(r), the history of its averaged TVs (periodic rows only)
    averaged_history = k + np.cumsum(periodic) - 1
    # every TV recorded, in step order, and the history it belongs to, in
    # two arrays that grow when full: 16 bytes a TV
    values, owners, used = np.empty(4 * k), np.empty(4 * k, dtype=np.int64), 0

    def record(tvs, histories):
        nonlocal values, owners, used
        end = used + len(tvs)
        if end > len(values):
            values = np.concatenate((values, np.empty(end)))
            owners = np.concatenate((owners, np.empty(end, dtype=np.int64)))
        values[used:end] = tvs
        owners[used:end] = histories
        used = end

    record(last, np.arange(k))
    # the average of mu_0 with itself at t=0 is mu_0
    record(last[periodic], averaged_history[periodic])
    eps_min = min(eps_list)
    stops = np.full(k, t_cap)  # per row: the step it stopped at
    drifts = np.zeros(k)
    failures = {}  # per row that failed its monotonicity check: the error
    live = np.arange(k)  # the rows still stepping, by slot
    averaging = periodic.copy()  # by slot: the rows that watch the average
    averages = averaging.any()
    t = 0
    while len(live) and t < t_cap:
        nxt = block(spare, len(live))
        _step(lift, mu, alpha, nxt, work)
        t += 1
        if averages:
            np.add(mu, nxt, out=mu)
            mu *= 0.5
            avg = _tvs(mu, pi, work)
        tvs = _tvs(nxt, pi, work)
        cur, spare, mu = spare, cur, nxt
        failed = tvs > last + PROPAGATION_TOL
        # a failed row's TVs are recorded too: it raises before _histories
        record(tvs, live)
        watched = tvs
        if averages:
            record(avg[averaging], averaged_history[live[averaging]])
            watched = np.where(averaging, avg, tvs)
        stopped = failed | (watched <= eps_min)
        if stopped.any():
            for slot in np.flatnonzero(failed).tolist():
                failures[int(live[slot])] = AnalysisError(
                    f"TV increased at step {t}: {float(last[slot])!r} -> "
                    f"{float(tvs[slot])!r}"
                )
            slots = np.flatnonzero(stopped)
            stops[live[slots]] = t
            drifts[live[slots]] = _drifts(mu, slots, work)
            kept = np.flatnonzero(~stopped)
            live, averaging, last = live[kept], averaging[kept], tvs[kept]
            averages = averaging.any()
            # the dead buffer holds the average: move the rows kept into it
            mu = np.take(mu, kept, axis=2, out=block(spare, len(kept)), mode="clip")
            cur, spare = spare, cur
        else:
            last = tvs
    if len(live):
        drifts[live] = _drifts(mu, np.arange(len(live)), work)

    bad = drifts > PROPAGATION_TOL * np.maximum(stops, 1)
    bad[list(failures)] = True
    if bad.any():
        r = int(bad.argmax())
        raise failures.get(r) or AnalysisError(
            f"propagation lost mass: drift {float(drifts[r]):g}")
    tvs, bounds, crossings = _histories(values[:used], owners[:used],
                                        k + int(periodic.sum()), eps_list)

    def curve(h, r, averaged=None):
        return TVCurve(tv=tvs[bounds[h]:bounds[h + 1]], crossings=crossings[h],
                       mass_drift=float(drifts[r]), t_cap=t_cap, averaged=averaged)

    return [curve(r, r, curve(averaged_history[r], r) if periodic[r] else None)
            for r in range(k)]


# ---------------------------------------------------------------------------
# starts of a lift, and the curves of one cell
# ---------------------------------------------------------------------------


def _start_policy(starts, n_states):
    """The sample size ``k`` of the start policy ``'sample:k'``, or None for
    ``'all'`` on a lift of ``n_states`` states, at most
    :data:`EXHAUSTIVE_START_CAP`; any other policy raises
    :class:`AnalysisError`."""
    if starts == "all":
        if n_states > EXHAUSTIVE_START_CAP:
            raise AnalysisError(
                f"{n_states} states exceeds the exhaustive cap "
                f"{EXHAUSTIVE_START_CAP}; use starts='sample:k'"
            )
        return None
    if isinstance(starts, str) and starts.startswith("sample:"):
        try:
            k = int(starts.split(":", 1)[1])
        except ValueError:
            raise AnalysisError(f"bad start policy {starts!r}") from None
        if k < 1:
            raise AnalysisError("sample size must be >= 1")
        return k
    raise AnalysisError(f"bad start policy {starts!r}; use 'all' or 'sample:k'")


def _draw_starts(lift, starts, master_seed, index=0):
    """The start states of the ``index``-th lift of degree ``lift.n`` drawn
    from ``master_seed`` (:func:`~liftmix.lift.draw_lift`), and whether they
    are all of its states, under the policy ``starts``
    (:func:`_start_policy`): ``'all'``, or ``'sample:k'``, ``k`` distinct
    states (all of them when there are fewer) from that lift's start
    stream."""
    k = _start_policy(starts, lift.n_states)
    if k is None:
        return list(range(lift.n_states)), True
    rng = substream(master_seed, "start-sample", lift.n, index)
    picks = rng.choice(lift.n_states, size=min(k, lift.n_states), replace=False)
    return [int(x) for x in picks], False


def _worst_start(times):
    """``(start, time)`` of the start that mixes last in ``times`` (start ->
    mixing time, None when unreached): an unreached start outranks every
    reached one, and of equal times the lower start wins."""
    worst = max(times, key=lambda s: (math.inf if times[s] is None else times[s], -s))
    return worst, times[worst]


def _cell_curves(g, n, master_seed, index, starts, alpha, eps_list, t_cap,
                 progress=None):
    """``(states, exhaustive, curves)`` of one cell: the ``index``-th
    ``n``-lift of ``g`` drawn from ``master_seed``, its starts under the
    policy ``starts`` (:func:`_draw_starts`) and their curves
    (:func:`mixing_curves`).  ``mix --seed S`` is sweep cell ``(n, 0)`` at
    master seed ``S``: both run here.  ``progress``, when given, is called
    as ``progress(done, len(states))`` after each block of starts."""
    lift = draw_lift(g, n, master_seed, index)
    states, exhaustive = _draw_starts(lift, starts, master_seed, index)
    report = None if progress is None else (lambda done: progress(done, len(states)))
    curves = mixing_curves(lift, states, alpha=alpha, eps_list=eps_list, t_cap=t_cap,
                           progress=report)
    return states, exhaustive, curves


# ---------------------------------------------------------------------------
# cutoff sweep over lift degree
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepRow:
    n: int
    seed: int
    start: int
    eps: float
    t_mix: Optional[int]

    @property
    def reached(self):
        return self.t_mix is not None


@dataclass(frozen=True)
class SweepResult:
    """Outcome of a cutoff sweep over the lift degree grid.

    ``slope`` is the OLS slope of the seed-averaged worst-start mixing time
    at ``eps_primary`` against ``log n``; the predicted value is the
    reciprocal entropy rate.  ``window_ratios[seed]`` lists
    ``(t(eps_lo) - t(eps_hi)) / t(eps_mid)`` along the grid; the window
    verdict requires the ratio to be nonincreasing for most seeds, the
    signature of a cutoff window narrower than the mixing time itself.
    """

    rows: tuple
    n_grid: tuple
    n_seeds: int
    eps_list: tuple
    eps_primary: float
    slope: float
    slope_se: float
    slope_ci: tuple
    predicted_slope: float
    entropy_rate: float
    window_ratios: dict
    window_nonincreasing_seeds: int
    verdict_slope: bool
    verdict_window: bool
    verdict: bool
    t_caps: dict
    alpha: float


def _sweep_cell(args):
    (g, n, seed, alpha, eps_list, starts, master_seed, t_cap) = args
    states, _, curves = _cell_curves(g, n, master_seed, seed, starts, alpha, eps_list,
                                     t_cap)
    rows = []
    for s, curve in zip(states, curves):
        for eps in eps_list:
            rows.append(SweepRow(n=n, seed=seed, start=s, eps=eps,
                                 t_mix=curve.mixing_crossings[eps]))
    return rows


def cutoff_sweep(g, n_grid, alpha=None, eps_list=DEFAULT_EPS_LIST, n_seeds=5,
                 master_seed=0, starts="sample:5", workers=1, t_cap=None,
                 eps_primary=0.25, progress=None):
    """Measure worst-start mixing times over a grid of lift degrees.

    Computes the base graph's entropy rate first and refuses degenerate
    graphs, whose mixing time does not scale like ``log n``.  Each (n,
    seed) cell draws its lift and its start sample from dedicated
    deterministic substreams of ``master_seed``, so results are
    byte-identical regardless of ``workers``.  ``progress``, when given,
    is called as ``progress(processes)`` once every check has passed, just
    before the cells run on that many processes.
    """
    alpha = holding_probability(g, alpha)
    report = entropy(g, alpha=alpha)
    if report.degenerate or report.entropy_rate <= 0.0:
        raise AnalysisError(
            "entropy rate is degenerate; mixing time does not scale like "
            "log n and a sweep would be meaningless"
        )
    h = report.entropy_rate
    n_grid = tuple(int(n) for n in n_grid)
    if len(n_grid) < 2 or sorted(set(n_grid)) != list(n_grid):
        raise AnalysisError("n_grid must be strictly increasing, length >= 2")
    n_seeds = int(n_seeds)
    if n_seeds < 1:
        raise AnalysisError(f"n_seeds must be at least 1, got {n_seeds}")
    eps_list = tuple(float(e) for e in eps_list)
    if eps_primary not in eps_list:
        raise AnalysisError("eps_primary must be one of eps_list")
    # every cell would refuse these, so they are refused before any runs
    _check_seed(master_seed)
    for n in n_grid:
        _start_policy(starts, n * g.n_vertices)
    t_caps = {}
    for n in n_grid:
        t_caps[n] = (int(t_cap) if t_cap is not None
                     else int(math.ceil(2.2 * math.log(n) / h)) + 30)
    cells = [(g, n, seed, alpha, eps_list, starts, int(master_seed),
              t_caps[n]) for n in n_grid for seed in range(n_seeds)]
    if progress is not None:
        progress(_pool_size(workers, len(cells)))
    rows = tuple(row for chunk in _pool_map(_sweep_cell, cells, workers)
                 for row in chunk)

    # worst-start mixing time per (n, seed, eps)
    times = {}
    for row in rows:
        times.setdefault((row.n, row.seed, row.eps), {})[row.start] = row.t_mix
    worst = {key: _worst_start(cell)[1] for key, cell in times.items()}

    # slope of seed-averaged worst-start time at eps_primary vs log n
    xs, ys = [], []
    for n in n_grid:
        vals = [worst[(n, seed, eps_primary)] for seed in range(n_seeds)]
        if any(v is None for v in vals):
            raise AnalysisError(
                f"worst-start mixing time at eps={eps_primary} exceeded the "
                f"step cap {t_caps[n]} for n={n}; raise t_cap"
            )
        xs.append(math.log(n))
        ys.append(float(np.mean(vals)))
    xs = np.asarray(xs)
    ys = np.asarray(ys)
    design = np.column_stack([xs, np.ones_like(xs)])
    coef, *_ = np.linalg.lstsq(design, ys, rcond=None)
    slope = float(coef[0])
    fitted = design @ coef
    dof = max(len(xs) - 2, 1)
    s2 = float(((ys - fitted) ** 2).sum()) / dof
    sxx = float(((xs - xs.mean()) ** 2).sum())
    slope_se = math.sqrt(s2 / sxx) if sxx > 0 else float("inf")
    ci = (slope - 1.96 * slope_se, slope + 1.96 * slope_se)
    predicted = 1.0 / h
    verdict_slope = abs(slope - predicted) <= _SLOPE_TOLERANCE * predicted

    # cutoff window: (t(lo) - t(hi)) / t(mid) nonincreasing along the grid
    lo, hi = min(eps_list), max(eps_list)
    mid = min(eps_list, key=lambda e: abs(e - 0.5))
    window_ratios = {}
    nonincreasing = 0
    for seed in range(n_seeds):
        ratios = []
        for n in n_grid:
            t_lo = worst[(n, seed, lo)]
            t_hi = worst[(n, seed, hi)]
            t_mid = worst[(n, seed, mid)]
            if None in (t_lo, t_hi, t_mid) or t_mid == 0:
                ratios.append(None)
            else:
                ratios.append((t_lo - t_hi) / t_mid)
        window_ratios[seed] = ratios
        if all(r is not None for r in ratios) and all(
            ratios[i + 1] <= ratios[i] + 1e-9 for i in range(len(ratios) - 1)
        ):
            nonincreasing += 1
    verdict_window = nonincreasing >= math.ceil(0.8 * n_seeds)

    return SweepResult(
        rows=rows, n_grid=n_grid, n_seeds=n_seeds, eps_list=eps_list,
        eps_primary=float(eps_primary), slope=slope, slope_se=slope_se,
        slope_ci=ci, predicted_slope=predicted, entropy_rate=h,
        window_ratios=window_ratios,
        window_nonincreasing_seeds=nonincreasing,
        verdict_slope=verdict_slope, verdict_window=verdict_window,
        verdict=verdict_slope and verdict_window, t_caps=t_caps,
        alpha=alpha,
    )


# ---------------------------------------------------------------------------
# projection identity
# ---------------------------------------------------------------------------


def projection_identity_check(lift, start, t_max, alpha=None):
    """Max deviation between fiber-folded lift propagation and base propagation.

    Starting from a point mass on the lift, pushes the distribution forward
    on the lift and, in parallel, its fiber-sum forward on the base graph;
    returns the largest max-norm difference over all steps up to ``t_max``.
    Exact covers satisfy this identity to floating-point accuracy.
    """
    t_max = int(t_max)
    if t_max < 0:
        raise AnalysisError("t_max must be nonnegative")
    start = lift._indices(start)
    p0 = transition_matrix(lift.base, alpha=alpha)
    mu = np.zeros(lift.n_states)
    mu[start] = 1.0
    base_mu = project_distribution(lift, mu)
    worst = 0.0  # at t = 0 the base distribution is the fiber-sum itself
    for _ in range(t_max):
        mu = apply_kernel(lift, mu, alpha=alpha)
        base_mu = base_mu @ p0
        dev = float(np.abs(project_distribution(lift, mu) - base_mu).max())
        worst = max(worst, dev)
    return worst
