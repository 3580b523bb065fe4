"""Escape analysis of the walk on the universal cover.

Everything here is derived from one fixed-point system.  For each oriented
edge ``f`` of a pruned graph, let ``p(f)`` be the probability that the cover
walk started at the tail of (a cover copy of) ``f`` ever reaches the head
vertex across ``f``.  These first-passage probabilities solve

    p(f) = w(f) + p(f) * sum_{g out of tail(f), g != f} w(g) * p(g~)

where ``g~`` is the reverse orientation of ``g``.  The minimal solution is
reached by Newton's method from zero, which increases monotonically to it
(Etessami & Yannakakis, J. ACM 2009; Esparza, Kiefer & Luttenberger, SIAM
J. Comput. 2010).  From it we compute:

* the *ray exit law* ``x(e)``: the probability that the escape ray of a
  transient cover walk leaves a vertex along (a copy of) ``e``;
* the Markov kernel of the ray's oriented-edge sequence and its stationary
  edge frequencies;
* the per-level entropy of the ray's location, the escape speed, and the
  entropy rate per walk step, which together predict where mixing on large
  random lifts concentrates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist
from typing import Optional

import numpy as np

from . import base_graph
from .base_graph import (
    AnalysisError,
    CoreDecomposition,
    WeightedMultigraph,
    solve_stationary,
)
from .errors import NonConvergenceError

#: Newton correction size at which the first-passage solve stops.
FIRST_PASSAGE_TOL = 1e-12
#: Newton step budget for the first-passage solve.
FIRST_PASSAGE_MAX_ITER = 10**6
#: Residual tolerance for stationary solves on the ray kernel.
RAY_STATIONARY_TOL = 1e-10


@dataclass(frozen=True)
class FirstPassageSolution:
    """Minimal solution of the first-passage system on a pruned graph.

    ``prob[k]`` is the first-passage probability across oriented edge ``k``;
    ``prob_over_weight[k] = prob[k] / weight[k]`` evaluated in the form
    ``1 / (1 - s_k)`` that stays finite when the weight vanishes;
    ``return_prob[u]`` is the probability that the cover walk started at a
    copy of vertex ``u`` ever returns to it.  ``iterations`` counts the
    Newton steps, ``residual`` is the size (max norm) of the last Newton
    correction, and ``error`` bounds the error of ``prob``: the larger of
    that correction and the rounding floor of the last linear solve.
    """

    prob: np.ndarray
    prob_over_weight: np.ndarray
    return_prob: np.ndarray
    residual: float
    iterations: int
    error: float

    def as_dict(self, g):
        return {g.oriented_name(k): float(self.prob[k]) for k in range(g.n_oriented)}


def solve_first_passage(g, tol=FIRST_PASSAGE_TOL, max_iter=FIRST_PASSAGE_MAX_ITER,
                        init=None):
    """Newton's method from zero for the minimal root of the first-passage system.

    Requires ``g`` to have no hanging vertex, i.e. at least two oriented
    edges out of every vertex (prune the graph with
    :func:`liftmix.base_graph.core` first).  Each step solves the linearized
    system ``(I - J) d = w + q*s(q) - q``, with ``J = diag(s(q)) + q*ds/dq``
    the Jacobian of the right-hand side, and moves ``q`` to ``q + d``
    clipped to ``[0, 1]``.  From the zero vector the steps are componentwise
    nonnegative and the iterates increase to the minimal nonnegative root
    (Etessami & Yannakakis 2009; Esparza, Kiefer & Luttenberger 2010):
    quadratically away from criticality, about one bit per step at a
    critical (double) root.  ``init`` may supply a different starting vector
    (used to check minimality), in which case monotonicity is not asserted.

    The iteration stops when a correction is at most ``tol``, or at the
    rounding floor: when a correction is within the rounding error
    ``n * eps * |(I - J)^-1|`` of the linear solve, or stops shrinking.
    Near a critical root that floor is of order ``sqrt(eps)``, as close as
    double precision gets, and the last correction may exceed ``tol``.  The
    solution reports the steps taken (``iterations``), the size of the last
    correction (``residual``) and the achieved error (``error``); the
    monotonicity check and :func:`ray_law`'s support cut read the latter.

    Raises :class:`NonConvergenceError` with the last correction if neither
    stop is reached within ``max_iter`` steps, or if the linear system
    becomes singular.
    """
    if (np.bincount(g.oriented_init, minlength=g.n_vertices) < 2).any():
        raise AnalysisError(
            "first-passage system needs two oriented edges out of every "
            "vertex; prune the graph to its core first"
        )
    w = g.oriented_weight
    n_or = g.n_oriented
    inv = np.arange(n_or) ^ 1
    monotone = init is None
    q = np.zeros(n_or) if init is None else np.asarray(init, dtype=float).copy()
    if q.shape != w.shape:
        raise AnalysisError("init vector has the wrong length")
    # sib[f, g] = w(g) for the other oriented edges g out of tail(f), so that
    # s(q) = sib @ q[inv] and ds/dq = sib[:, inv].
    sib = np.where(g.oriented_init[:, None] == g.oriented_init[None, :], w, 0.0)
    np.fill_diagonal(sib, 0.0)
    dsdq = sib[:, inv]
    eye = np.eye(n_or)
    unit = n_or * np.finfo(float).eps

    residual = error = math.inf
    last = math.inf
    for iterations in range(1, max_iter + 1):
        s = sib @ q[inv]
        try:
            lin_inv = np.linalg.inv(eye - np.diag(s) - q[:, None] * dsdq)
        except np.linalg.LinAlgError:
            raise NonConvergenceError(
                f"first-passage Newton system became singular at step "
                f"{iterations} (last correction {residual:.3e}); the cover walk "
                "may be recurrent",
                residual=residual,
                iterations=iterations - 1,
            ) from None
        step = lin_inv @ (w + q * s - q)
        # The right-hand side carries a rounding error of about n * eps; the
        # solve amplifies it by the norm of the inverse.
        floor = unit * float(np.abs(lin_inv).sum(axis=1).max())
        residual = float(np.max(np.abs(step)))
        error = max(residual, floor)
        # Early corrections may grow; one that does not shrink although it is
        # below the accuracy a double root allows is rounding noise.
        if last <= residual <= math.sqrt(floor):
            break
        if monotone and (step < -floor).any():
            raise AnalysisError(
                "internal error: Newton iteration from zero decreased"
            )
        q = np.clip(q + step, 0.0, 1.0)
        if residual <= max(tol, floor):
            break
        last = residual
    else:
        raise NonConvergenceError(
            f"first-passage Newton iteration reached neither tolerance {tol:g} "
            f"nor its rounding floor in {max_iter} steps (last correction "
            f"{residual:.3e}); the cover walk may be recurrent",
            residual=residual,
            iterations=max_iter,
        )

    total = np.bincount(g.oriented_init, weights=w * q[inv], minlength=g.n_vertices)
    s = sib @ q[inv]
    if (s >= 1.0 - 1e-14).any():
        raise AnalysisError(
            "sibling first-passage mass reaches one; the walk cannot be "
            "transient across some edge"
        )
    prob_over_weight = 1.0 / (1.0 - s)
    return FirstPassageSolution(
        prob=q,
        prob_over_weight=prob_over_weight,
        return_prob=total,
        residual=residual,
        iterations=iterations,
        error=error,
    )


# ---------------------------------------------------------------------------
# ray exit law
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RayLaw:
    """Law of the escape ray of a transient cover walk.

    ``exit_prob[e]`` is the probability that the ray leaves the tail vertex
    of ``e`` along ``e``; out of every vertex these sum to one.  The ray's
    oriented-edge sequence is a Markov chain: from edge ``e1`` it continues
    to a composable non-backtracking ``e2`` with probability
    ``exit_prob[e2] / (1 - exit_prob[inverse(e1)])``.  ``edge_freq`` is the
    stationary law of that chain, supported on its unique closed class.
    """

    graph: WeightedMultigraph
    exit_prob: np.ndarray
    kernel: np.ndarray
    edge_freq: np.ndarray
    support: np.ndarray
    recurrent_class: np.ndarray
    stationarity_residual: float

    def exit_dict(self):
        g = self.graph
        return {g.oriented_name(k): float(self.exit_prob[k]) for k in range(g.n_oriented)}

    def freq_dict(self):
        g = self.graph
        return {g.oriented_name(k): float(self.edge_freq[k]) for k in range(g.n_oriented)}


def ray_law(g, first_passage):
    """Exit law, successor kernel, and edge frequencies of the escape ray.

    ``g`` must be pruned and its cover walk transient.  Raises
    :class:`AnalysisError` when a return probability reaches one (the walk
    would be recurrent at that vertex) or the ray chain has no unique closed
    class.
    """
    verdict = g.transience
    if not verdict.transient:
        raise AnalysisError(f"ray law needs a transient cover walk: {verdict.reason}")
    q = first_passage.prob
    w = g.oriented_weight
    inv = np.arange(g.n_oriented) ^ 1
    # The probability of never returning, summed from the exits rather than
    # taken as 1 - return_prob: near criticality that difference cancels
    # and would leave exit probabilities above one.
    leave = w * (1.0 - q[inv])
    stay = np.bincount(g.oriented_init, weights=leave, minlength=g.n_vertices)
    worst = float(np.max(np.abs(stay - (1.0 - first_passage.return_prob))))
    if worst > RAY_STATIONARY_TOL:
        raise AnalysisError(
            f"ray exit mass differs from the escape probability by {worst:.3e} "
            "at some vertex"
        )
    if (stay <= 1e-14).any():
        bad = g.vertices[int(np.argmin(stay))]
        raise AnalysisError(
            f"return probability at vertex {bad!r} reaches one; "
            "inconsistent with transience"
        )
    exit_prob = leave / stay[g.oriented_init]

    n_or = g.n_oriented
    # An error of at most r in each q moves an exit probability by at most
    # 2 r / (1 - return probability); exits within that of zero are zero.
    support = exit_prob > 2.0 * first_passage.error / stay[g.oriented_init]
    kernel = np.zeros((n_or, n_or))
    for k in np.flatnonzero(support).tolist():
        denom = 1.0 - exit_prob[inv[k]]
        if denom <= 1e-14:
            raise AnalysisError(
                "ray kernel denominator vanished: the reverse of a ray edge "
                "would itself be a sure ray edge"
            )
        for l in g.continuations[k]:
            if support[l]:
                kernel[k, l] = exit_prob[l] / denom

    # Unique closed class of the ray chain, a component that no arc leaves,
    # then its stationary law.
    sup_idx = np.flatnonzero(support)
    tails, heads = np.nonzero(kernel[np.ix_(sup_idx, sup_idx)] > 0.0)
    ncomp, labels = base_graph.strong_components(len(sup_idx), tails, heads)
    leaving = labels[tails] != labels[heads]
    closed = np.setdiff1d(np.arange(ncomp), labels[tails[leaving]])
    if len(closed) != 1:
        raise AnalysisError(
            f"ray chain has {len(closed)} closed classes; expected exactly one"
        )
    class_idx = sup_idx[labels == closed[0]]
    pi_c, residual = solve_stationary(kernel[np.ix_(class_idx, class_idx)])
    if residual > RAY_STATIONARY_TOL:
        raise AnalysisError(
            f"ray stationary residual {residual:.3e} exceeds tolerance"
        )
    edge_freq = np.zeros(n_or)
    edge_freq[class_idx] = pi_c
    return RayLaw(
        graph=g,
        exit_prob=exit_prob,
        kernel=kernel,
        edge_freq=edge_freq,
        support=support,
        recurrent_class=class_idx,
        stationarity_residual=residual,
    )


# ---------------------------------------------------------------------------
# entropy and speed constants
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WeightEntropy:
    """Per-level entropy of the ray location, in nats per level."""

    value: float
    degenerate: bool


def weight_entropy(raylaw):
    """Expected information per ray level.

    Averaging over the stationary edge frequencies, each ray step multiplies
    the location probability by ``exit_prob(e) / (1 - exit_prob(e~))``; the
    entropy is the mean of minus its logarithm.  A (near-)deterministic ray
    gives zero and is flagged degenerate rather than treated as an error.
    """
    freq = raylaw.edge_freq
    x = raylaw.exit_prob
    idx = np.nonzero(freq > 0.0)[0]
    total = 0.0
    for k in idx:
        total += freq[k] * (math.log1p(-x[k ^ 1]) - math.log(x[k]))
    if total < -1e-12:
        raise AnalysisError("per-level entropy came out negative")
    if total <= 1e-12:
        return WeightEntropy(value=0.0, degenerate=True)
    return WeightEntropy(value=float(total), degenerate=False)


def speed(first_passage, raylaw):
    """Escape speed of the non-lazy cover walk on the pruned graph of
    ``raylaw``, in levels per step.

    The reciprocal speed is the stationary mean of ``p(e~) / (w(e~) * (1 -
    p(e~)))`` over ray edges ``e``; the middle factor is evaluated through
    ``prob_over_weight`` so zero-weight reverse orientations contribute
    their correct finite limit.  The one formula holds for every transient
    core, a single cycle (whose cover is a line) included.
    """
    q = first_passage.prob
    qow = first_passage.prob_over_weight
    freq = raylaw.edge_freq
    idx = np.nonzero(freq > 0.0)[0]
    total = 0.0
    for k in idx:
        rev = k ^ 1
        if q[rev] >= 1.0 - 1e-14:
            raise AnalysisError(
                "reverse first-passage probability reaches one on a ray edge; "
                "speed formula undefined"
            )
        total += freq[k] * qow[rev] / (1.0 - q[rev])
    if total < 1.0 - 1e-9:
        raise AnalysisError("reciprocal speed came out below one")
    return float(1.0 / total)


@dataclass(frozen=True)
class EntropyReport:
    """Entropy and speed constants of a lazy walk on covers of ``g``.

    ``entropy_rate`` (nats per walk step) is the product of the per-level
    entropy, the escape speed, the moving fraction ``1 - holding_prob``, and
    the fraction of moving steps spent on the pruned graph's edges.
    ``sigma_mc`` is an optional Monte Carlo estimate of the step-CLT spread
    of the ray's location information (None unless set with
    ``dataclasses.replace``), which widens :func:`predict_mixing_time`.

    ``exit_prob`` and ``edge_freq`` restate ``ray_law``, which lives on the
    pruned graph, on the oriented edges of ``graph``, the analyzed graph,
    with zeros off the core.  The cover functions take the report as their
    ray law, so walks simulated on ``graph`` read it directly.
    """

    per_level_entropy: float
    escape_speed: float
    core_step_fraction: float
    holding_prob: float
    speed: float
    entropy_rate: float
    degenerate: bool
    first_passage: FirstPassageSolution
    ray_law: RayLaw
    core: CoreDecomposition
    graph: WeightedMultigraph
    exit_prob: np.ndarray
    edge_freq: np.ndarray
    sigma_mc: Optional[float] = None


def entropy(g, alpha=None, tol=FIRST_PASSAGE_TOL, max_iter=FIRST_PASSAGE_MAX_ITER):
    """Full escape analysis of a graph at holding probability ``alpha``.

    Prunes hanging trees, solves the first-passage system (``tol`` and
    ``max_iter`` are forwarded to the solver), derives the ray law, and
    assembles the entropy and speed constants.  ``alpha=None`` uses the
    graph's own value.  Raises :class:`AnalysisError` when the vertex chain
    is reducible or the cover walk is not transient.
    """
    alpha = base_graph.holding_probability(g, alpha)
    verdict = g.transience
    if not verdict.transient:
        raise AnalysisError(
            f"entropy analysis needs a transient cover walk: {verdict.reason}"
        )
    cd = g.core
    gc = cd.graph
    fps = solve_first_passage(gc, tol=tol, max_iter=max_iter)
    rl = ray_law(gc, fps)
    we = weight_entropy(rl)
    s0 = speed(fps, rl)
    h_level = we.value
    degenerate = we.degenerate
    _, two_cycles, _, _ = gc.cycle_census
    if not two_cycles:
        # Single escape direction: the ray is deterministic given its line,
        # so the location carries no per-level information.
        h_level = 0.0
        degenerate = True
    afrac = cd.core_step_fraction
    speed_alpha = (1.0 - alpha) * s0 * afrac
    rate = speed_alpha * h_level
    exit_prob, edge_freq = np.zeros((2, g.n_oriented))
    exit_prob[cd.host_oriented] = rl.exit_prob
    edge_freq[cd.host_oriented] = rl.edge_freq
    return EntropyReport(
        per_level_entropy=h_level,
        escape_speed=s0,
        core_step_fraction=afrac,
        holding_prob=alpha,
        speed=speed_alpha,
        entropy_rate=rate,
        degenerate=degenerate,
        first_passage=fps,
        ray_law=rl,
        core=cd,
        graph=g,
        exit_prob=exit_prob,
        edge_freq=edge_freq,
    )


# ---------------------------------------------------------------------------
# mixing-time prediction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MixingPrediction:
    """Predicted mixing window on a random lift of size ``n``.

    ``t_center = log(n) / entropy_rate``.  When a Monte Carlo spread is
    available the epsilon-dependent correction
    ``t_center + z(eps) * sigma * sqrt(log n) / entropy_rate**1.5`` is
    reported as ``t_lower``; otherwise ``t_lower`` equals ``t_center`` and
    ``window_used`` is false.
    """

    t_center: float
    t_lower: float
    window_used: bool
    n: int
    eps: float


def predict_mixing_time(report, n, eps):
    """Predict the total-variation mixing time on size-``n`` lifts."""
    if report.degenerate or report.entropy_rate <= 0.0:
        raise AnalysisError(
            "entropy rate is zero (degenerate escape); no cutoff prediction"
        )
    n = int(n)
    if n < 2:
        raise AnalysisError("lift size must be at least 2")
    if not 0.0 < eps < 1.0:
        raise AnalysisError(f"threshold must lie in (0, 1), got {eps}")
    log_n = math.log(n)
    rate = report.entropy_rate
    t_center = log_n / rate
    if report.sigma_mc is None:
        return MixingPrediction(
            t_center=t_center, t_lower=t_center, window_used=False, n=n, eps=eps
        )
    spread = report.sigma_mc / rate**1.5
    t_lower = t_center + NormalDist().inv_cdf(1.0 - eps) * spread * math.sqrt(log_n)
    return MixingPrediction(
        t_center=t_center, t_lower=t_lower, window_used=True, n=n, eps=eps
    )
