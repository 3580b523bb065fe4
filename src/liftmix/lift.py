"""Random n-fold covers (lifts) of a base graph.

An n-lift replaces every vertex by a fiber of n copies and every edge by a
perfect matching between the two fibers, described by one permutation per
edge: edge copies run from ``(tail, i)`` to ``(head, perm[i])``.  The lazy
walk on the lift projects onto the lazy walk on the base graph, and every
eigenmeasure of the base, copied onto every fiber, is an eigenmeasure of the
lift with the same eigenvalue.

States of the lift are flat indices ``base_index * n + fiber_index``.  A
move along a copy of oriented edge ``k`` goes from ``(u, i)`` to ``(v,
maps[k][i])``; every traversal of the lift reads :attr:`Lift.moves`.  One
operator steps a measure on the lift, :func:`apply_kernel` (the blocked
:func:`_step` beneath it); :func:`lift_transition_matrix` is its
independent dense reference.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np

from .base_graph import component_periods, holding_probability, transition_matrix
from .errors import AnalysisError, GraphError
from .rng import substream


@dataclass(frozen=True, eq=False)
class Lift:
    """An n-fold cover of ``base`` given by one permutation per edge.

    ``perms[j][i]`` is the fiber index of the head endpoint of the i-th
    copy of edge j (edges in file order).  ``seed`` optionally records the
    master seed the permutations were drawn from.  ``maps[k]`` is the fiber
    map of oriented edge ``k``: ``perms[k // 2]`` itself for even ``k`` and
    its inverse for odd ``k``.
    """

    base: object
    n: int
    perms: tuple
    seed: Optional[int] = None
    maps: tuple = field(init=False, repr=False)

    def __post_init__(self):
        n = _degree(self.n)
        if len(self.perms) != len(self.base.edges):
            raise GraphError(
                f"need {len(self.base.edges)} permutations, got {len(self.perms)}"
            )
        maps = []
        ident = np.arange(n, dtype=np.int64)
        for j, p in enumerate(self.perms):
            # a cast to int64 would truncate floats and read booleans as 0/1
            arr = np.asarray(p)
            if (arr.dtype.kind not in "iu" or arr.shape != (n,)
                    or not np.array_equal(np.sort(arr), ident)):
                raise GraphError(
                    f"permutation for edge {self.base.edges[j].eid!r} is not "
                    f"a permutation of 0..{n - 1}"
                )
            arr = arr.astype(np.int64, copy=False)
            inv = np.empty(n, dtype=np.int64)
            inv[arr] = ident
            maps += [arr, inv]
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "perms", tuple(maps[0::2]))
        object.__setattr__(self, "maps", tuple(maps))

    @cached_property
    def moves(self):
        """``(k, u, v, weight)`` per positive-weight oriented edge ``k``, in
        index order: copies of ``k`` move ``(u, i)`` to ``(v, maps[k][i])``."""
        g = self.base
        return tuple(
            (k, int(g.oriented_init[k]), int(g.oriented_end[k]),
             float(g.oriented_weight[k]))
            for k in range(g.n_oriented) if g.oriented_weight[k] > 0.0
        )

    @cached_property
    def _moves_by_target(self):
        """:attr:`moves` ordered by target vertex, in index order within a
        target: the order in which a kernel step sums them."""
        return tuple(sorted(self.moves, key=lambda move: move[2]))

    @cached_property
    def _strong_periods(self):
        """Strong components of the unlazy walk and their periods, as
        ``(labels, periods)``.

        A finite cover of a strongly connected digraph has strongly
        connected weak components.  A lift arc ``(u, i) -> (v, j)`` over an
        arc inside a base strong component closes up: a base walk from ``v``
        back to ``u`` completes a closed walk through ``u -> v``, whose lift
        permutes the finite fiber over ``u``, and repeating it as often as
        the permutation's order leads from ``(v, j)`` back to ``(u, i)``.
        So the walk's strong components are the weak components of the
        lift arcs over arcs inside one base strong component, and
        :func:`~liftmix.base_graph.component_periods` finds them and their
        periods in one pass; states over a base component without such an
        arc are singletons of period 0.
        """
        _, base_labels = self.base.vertex_components
        fibers = np.arange(self.n)
        inner = [(k, u, v) for k, u, v, _ in self.moves
                 if base_labels[u] == base_labels[v]]
        tails = np.concatenate([u * self.n + fibers for _, u, _ in inner])
        heads = np.concatenate([v * self.n + self.maps[k] for k, _, v in inner])
        _, labels, periods = component_periods(self.n_states, tails, heads)
        return labels, periods

    def period(self, states):
        """Period of the unlazy walk on the strong component of each of
        ``states`` (one state or an array of them, checked by
        :meth:`_indices`): 1 for a state on no cycle, which is its own
        component.

        The periods of all components are found on the first call and kept.
        """
        states = self._indices(states)
        labels, periods = self._strong_periods
        return np.maximum(periods[labels[states]], 1)

    def _indices(self, values):
        """``values`` (one state or an array of them) as an int64 array of
        their shape, each checked to be an integer in ``0..n_states - 1``.

        Every method and function that takes a state checks it here, on the
        array numpy makes of ``values`` (and, for a list, on the types of its
        items).  Floats and bools are refused even where a cast would read
        them as integers, and so is a state out of range; each raises the
        same :class:`GraphError`, naming the first value refused.  An empty
        input gives an empty array.
        """
        size = self.n_states
        arr = np.asarray(values)
        if arr.size == 0:
            return np.zeros(arr.shape, dtype=np.int64)
        if isinstance(values, (list, tuple)) and bool in map(type, values):
            arr = np.array(values, dtype=object)  # numpy reads [0, True] as ints
        if arr.dtype.kind in "iu":
            bad = (arr < 0) | (arr >= size)
        else:  # item by item, to name the first one refused
            bad = np.array([isinstance(v, bool) or not isinstance(v, (int, np.integer))
                            or not 0 <= v < size for v in arr.flat]).reshape(arr.shape)
        if bad.any():
            raise GraphError(f"index {arr[bad].tolist()[0]!r} is not an integer "
                             f"in 0..{size - 1}")
        return arr.astype(np.int64, copy=False)

    @property
    def n_states(self):
        return self.base.n_vertices * self.n


def _degree(n):
    """``n`` as a lift degree, checked: at least 1, and small enough that
    an int64 permutation of ``n`` entries can be addressed."""
    n = int(n)
    if n < 1:
        raise GraphError(f"lift degree must be >= 1, got {n}")
    if n > np.iinfo(np.intp).max // 8:
        raise GraphError(f"lift degree {n} is too large: a permutation of "
                         "that many int64 entries cannot be addressed")
    return n


def generate_uniform_lift(g, n, rng, seed=None):
    """Lift with one independent uniform permutation per edge (file order)."""
    n = _degree(n)
    perms = tuple(rng.permutation(n).astype(np.int64) for _ in g.edges)
    return Lift(base=g, n=n, perms=perms, seed=seed)


def draw_lift(g, n, master_seed, index=0):
    """The ``index``-th random ``n``-lift of ``g`` drawn from ``master_seed``,
    which it records.  ``lift``, ``mix``, ``spectrum`` and every sweep cell
    draw here, so ``mix --seed S`` and sweep cell ``(n, 0)`` at master seed
    ``S`` walk on the same lift.  The degree is checked before the lift's
    stream is derived from it."""
    n = _degree(n)
    return generate_uniform_lift(g, n, substream(master_seed, "lift", n, index),
                                 seed=master_seed)


def apply_kernel(lift, mu, alpha=None):
    """One lazy-walk step applied to a distribution on the lift.

    ``mu`` has shape ``(n_vertices, n)`` or is flat, of ``n_states``
    entries (anything else raises :class:`~liftmix.errors.AnalysisError`);
    the result is a new array of the same shape.  Pure gathers, no
    renormalization: mass moving along ``k`` lands on ``(v, maps[k][i])``,
    so fiber ``v`` reads ``maps[k ^ 1]``.

    The result is the same bit for bit as the allocating expression ``out =
    alpha * m``, then ``out[v] += ((1 - alpha) * w) * m[u][maps[k ^ 1]]``
    for each move in index order, but for one case: at ``alpha = 0`` the
    step does not add to ``0.0 * m`` (:func:`_step`).  There a zero of the
    result can carry the other sign when ``mu`` holds a negative entry or
    ``-0.0``, and an infinite or NaN entry of ``mu`` no longer makes its own
    state NaN.  On finite masses of at least ``+0.0``, the distributions
    that this package steps, it is the same bit for bit at every ``alpha``.
    The step is :func:`_step` on a block of one row, which is ``mu``
    reshaped.
    """
    alpha = holding_probability(lift.base, alpha)
    arr = np.asarray(mu)
    if arr.size != lift.n_states:
        raise AnalysisError(f"mu has {arr.size} entries, not {lift.n_states}")
    m = arr.reshape(lift.base.n_vertices, lift.n, 1)
    res = np.empty(m.shape, dtype=np.result_type(alpha, m))
    if m.dtype != res.dtype:
        m = m.astype(res.dtype)  # an integer mu is gathered in floating point
    _step(lift, m, alpha, res, np.empty(2 * lift.n, dtype=res.dtype))
    return res.reshape(arr.shape)


def _step(lift, m, alpha, res, work):
    """The step of :func:`apply_kernel` without its checks: writes ``m``
    stepped once into ``res``.

    ``m`` and ``res`` are state-major blocks of one dtype that do not
    overlap: shape ``(n_vertices, n, j)``, with state ``(v, i)`` of row
    ``r`` at ``[v, i, r]``, so every gather moves whole rows of ``j``
    values.  ``work`` is a C-contiguous buffer of at least ``2 * n * j``
    elements of that dtype, and ``alpha`` a checked holding probability.

    The moves are taken target by target, in index order within a target
    (:attr:`Lift._moves_by_target`), so each ``res[v]`` is summed in the
    order of the allocating expression.  A move's source ``m[u]`` is
    scaled by its coefficient into ``work`` once for a run of moves that
    share both, and each gather reads the scaled rows: scaling commutes
    with a gather, so this is exact.

    At holding 0 there is no ``alpha * m`` pass: each target's first
    gather is written straight into ``res[v]``, and a target that no move
    enters is zeroed.  That drops the ``0.0 * m[v]`` the allocating
    expression starts from.  On finite ``m`` of at least ``+0.0`` that term
    is ``+0.0``, and ``+0.0 + y == y`` for every ``y`` but ``-0.0``, which
    such an ``m`` never gathers, so the two agree bit for bit; on finite
    signed ``m`` at most the sign of a zero differs.
    """
    n, j = m.shape[1:]
    scaled = work[:n * j].reshape(n, j)
    scratch = work[n * j:2 * n * j].reshape(n, j)
    if alpha:
        np.multiply(alpha, m, out=res)
    else:
        for v in set(range(len(res))).difference(move[2] for move in lift.moves):
            res[v] = 0.0
    lazy = 1.0 - alpha
    source = target = None
    for k, u, v, w in lift._moves_by_target:
        if source != (u, lazy * w):
            source = (u, lazy * w)
            np.multiply(m[u], lazy * w, out=scaled)
        # the method, not np.take, whose wrapper costs more than a small
        # gather; "clip" because under "raise" take buffers out, and the
        # maps are permutations, so nothing is ever clipped
        if not alpha and v != target:
            target = v
            scaled.take(lift.maps[k ^ 1], axis=0, out=res[v], mode="clip")
            continue
        scaled.take(lift.maps[k ^ 1], axis=0, out=scratch, mode="clip")
        # add through a view: ``res[v] += scratch`` also assigns the rows
        # back onto themselves, a second pass over them
        rows = res[v]
        rows += scratch


def lift_transition_matrix(lift, alpha=None):
    """Dense transition matrix of the lazy walk on the lift."""
    alpha = holding_probability(lift.base, alpha)
    size = lift.n_states
    mat = np.zeros((size, size))
    np.fill_diagonal(mat, alpha)
    lazy = 1.0 - alpha
    fibers = np.arange(lift.n)
    for k, u, v, w in lift.moves:
        mat[u * lift.n + fibers, v * lift.n + lift.maps[k]] += lazy * w
    return mat


def project_distribution(lift, mu):
    """Push a lift distribution down to the base graph (sum over fibers)."""
    m = np.asarray(mu).reshape(lift.base.n_vertices, lift.n)
    return m.sum(axis=1)


def lift_stationary(lift):
    """Stationary distribution of the lift: base stationary split evenly.

    Shape ``(n_vertices, n)``.  Every lift of the base chain preserves this
    measure because each edge contributes the same weight between matched
    fiber copies.  The base law is solved once per base graph.  The result
    is a read-only broadcast of the column ``pi_v / n`` over the fibers, so
    no state-sized array is allocated; ``mixing_curves`` measures TV against
    it.
    """
    pi = lift.base.stationary.as_array()
    return np.broadcast_to((pi / lift.n)[:, None], (lift.base.n_vertices, lift.n))


@dataclass(frozen=True)
class SpectrumCheck:
    """Residuals of base eigenmeasures copied onto a lift."""

    eigenvalues: tuple
    max_residual: float


def spectrum_inheritance_check(lift, alpha=None):
    """Verify every base eigenmeasure lifts with the same eigenvalue.

    Takes the left eigenvectors ``mu P = lambda mu`` of the base transition
    matrix, copies each one onto every fiber, steps it once with
    :func:`apply_kernel`, the lift's one operator, and reports the largest
    residual ``|mu P_lift - lambda mu|`` over all states and eigenmeasures.
    A copy is an eigenmeasure because each move ``u -> v`` matches the
    fibers over ``u`` and ``v`` one to one.  Exact for every holding
    probability, including eigenvalue -1 on bipartite graphs without
    laziness.  Returns eigenvalues sorted by real part, descending.
    """
    alpha = holding_probability(lift.base, alpha)
    eigvals, eigvecs = np.linalg.eig(transition_matrix(lift.base, alpha=alpha).T)
    shape = (lift.base.n_vertices, lift.n)
    worst = 0.0
    # one eigenmeasure per call: a block of all of them would hold
    # n_vertices times the states of one
    for lam, mu in zip(eigvals, eigvecs.T):
        stepped = apply_kernel(lift, np.broadcast_to(mu[:, None], shape), alpha)
        resid = np.abs(stepped - lam * mu[:, None]).max()
        worst = max(worst, float(resid))
    order = np.argsort(-eigvals.real)
    return SpectrumCheck(
        eigenvalues=tuple(complex(z) for z in eigvals[order]),
        max_residual=worst,
    )


def lift_to_json(lift):
    """Serialize a lift (permutations 1-based, keyed by edge id)."""
    payload = {
        "base_hash": lift.base.digest(),
        "n": lift.n,
        "seed": lift.seed,
        "permutations": {
            e.eid: [int(x) + 1 for x in lift.perms[j]]
            for j, e in enumerate(lift.base.edges)
        },
    }
    return json.dumps(payload, separators=(",", ":"), sort_keys=True)


def lift_from_json(g, text):
    """Rebuild a lift serialized by :func:`lift_to_json`, revalidating it."""
    # ValueError also covers an integer past Python's digit limit, and
    # RecursionError an array or object nested past the recursion limit
    try:
        payload = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise GraphError(f"invalid lift JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise GraphError("lift JSON must be an object")
    for key in ("base_hash", "n", "permutations"):
        if key not in payload:
            raise GraphError(f"lift JSON missing field {key!r}")
    stamp = payload["base_hash"]
    if stamp != g.digest():
        raise GraphError(
            "lift JSON was generated for a different base graph "
            f"(hash {str(stamp)[:12]}... != {g.digest()[:12]}...)"
        )
    # ``type(x) is int`` also turns away JSON's true and false, which Python
    # reads as the ints 1 and 0
    n, seed, stored = payload["n"], payload.get("seed"), payload["permutations"]
    if type(n) is not int or n < 1:
        raise GraphError(f"lift JSON field 'n' must be a positive integer, got {n!r}")
    if seed is not None and type(seed) is not int:
        raise GraphError(f"lift JSON field 'seed' must be an integer, got {seed!r}")
    if not isinstance(stored, dict):
        raise GraphError("lift JSON field 'permutations' must be an object")
    unknown = sorted(set(stored) - {e.eid for e in g.edges})
    if unknown:
        raise GraphError(f"lift JSON has a permutation for unknown edge {unknown[0]!r}")
    perms = []
    for e in g.edges:
        if e.eid not in stored:
            raise GraphError(f"lift JSON missing permutation for edge {e.eid!r}")
        p = stored[e.eid]
        if not (isinstance(p, list) and len(p) == n
                and all(type(x) is int and 1 <= x <= n for x in p)):
            raise GraphError(
                f"lift JSON permutation for edge {e.eid!r} is not a list of "
                f"{n} integers in 1..{n}"
            )
        perms.append(np.array(p, dtype=np.int64) - 1)
    return Lift(base=g, n=n, perms=tuple(perms), seed=seed)
