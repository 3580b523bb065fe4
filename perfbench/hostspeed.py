"""How fast the host runs right now, from a fixed reference task.

The benchmark shares its machine with other work, and the speed of one
core drifts by up to about 2x over tens of seconds, for the program and for
any other code alike.  Each run times a fixed reference task before and
after every round of CLI calls, and ``throughput`` divides each round's time
by the host's relative speed during it, measured that way.

The reference does the two kinds of work liftmix does, independently of
liftmix: a scalar Python loop (the cover walker, the period search, the
analyzer's Python parts) and numpy gathers through a permutation of 262144
doubles (the lift kernel on the largest sweep vector).
"""

from __future__ import annotations

import time

import numpy as np

#: Times of the two reference parts on the 2-CPU Xeon the benchmark was
#: defined on (medians of 30 samples); they only fix the scale of the
#: corrected throughput, which equals the raw one on a host this fast.
NOMINAL_PY_S = 0.028
NOMINAL_NP_S = 0.029

_N = 262144
_PERM = np.random.default_rng(0).permutation(_N)
_VEC = np.arange(_N, dtype=float)


def reference_times():
    """Seconds taken by the Python part and by the numpy part of the task."""
    t0 = time.perf_counter()
    x = 0
    for i in range(300_000):
        x += i * i
    t1 = time.perf_counter()
    v = _VEC
    for _ in range(20):
        v = v[_PERM]
    t2 = time.perf_counter()
    return t1 - t0, t2 - t1


def slowdown(sample):
    """Host time per nominal time for one ``reference_times()`` sample."""
    py_s, np_s = sample
    return 0.5 * (py_s / NOMINAL_PY_S + np_s / NOMINAL_NP_S)


def corrected_throughput(rounds):
    """Work per second at nominal host speed over ``rounds``.

    Each round carries its ``work``, its ``seconds`` and the reference
    samples taken just before (``ref_before``) and after (``ref_after``) it.
    """
    work = sum(r["work"] for r in rounds)
    seconds = sum(r["seconds"] / (0.5 * (slowdown(r["ref_before"]) + slowdown(r["ref_after"])))
                  for r in rounds)
    return work / seconds
