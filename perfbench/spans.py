"""Span tracing of liftmix from outside the package, and the per-layer metrics.

The traced run replaces every public function of each layer module by a
wrapper that records a span.  A function is rebound under its name in every
``liftmix`` module that holds it, because ``from .x import f`` gives each
importing module its own binding (``liftmix.cli.simulate_walk`` and
``liftmix.cover.simulate_walk`` are separate names for one function).
Nothing under ``src/`` is edited.

A span is ``[name, start, end, parent, error]``; ``parent`` is the index of
the enclosing span or -1.  The program is single-threaded with ``--workers
1``, so the spans of one call nest and the children of a span never overlap:
a span's self time is its duration minus the sum of its children's.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
import time

#: Layer modules whose public functions are wrapped.  ``rng`` and ``errors``
#: do no measurable work and are left alone.
LAYERS = ("base_graph", "analyzer", "cover", "lift", "mixing")
#: Private functions wrapped as well: ``_lift_period`` is the hot spot of the
#: many-starts workload and ``mixing_curve`` looks it up by module name.
PRIVATE = {"mixing": ("_lift_period",)}

NAME, START, END, PARENT, ERROR = range(5)


class Tracer:
    """In-memory span recorder with named work counters."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.counters = {}
        self._stack = []

    def count(self, key, amount):
        self.counters[key] = self.counters.get(key, 0) + amount

    def span(self, name, fn, *args, **kwargs):
        """Call ``fn`` inside a span called ``name`` and return its result."""
        idx = len(self.spans)
        rec = [name, self.clock(), 0.0, self._stack[-1] if self._stack else -1, False]
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            return fn(*args, **kwargs)
        except BaseException:
            rec[ERROR] = True
            raise
        finally:
            rec[END] = self.clock()
            self._stack.pop()

    def wrap(self, name, fn, on_result=None):
        """``fn`` recording a span per call made inside another span.

        Calls with no enclosing span (the benchmark's own input generation
        and checks) are passed through unrecorded.
        """
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self._stack:
                return fn(*args, **kwargs)
            result = self.span(name, fn, *args, **kwargs)
            if on_result is not None:
                on_result(self, args, kwargs, result)
            return result

        traced.__wrapped_original__ = fn
        return traced


# ---------------------------------------------------------------------------
# work counters taken from arguments and results
# ---------------------------------------------------------------------------


def _count_solver(tracer, args, kwargs, result):
    tracer.count("solver_iterations", result.iterations)
    tracer.counters["solver_iterations_max"] = max(
        tracer.counters.get("solver_iterations_max", 0), result.iterations)


def _count_walk(tracer, args, kwargs, result):
    tracer.count("walker_steps", len(result))


def _count_kernel(tracer, args, kwargs, result):
    lift = args[0] if args else kwargs["lift"]
    g = lift.base
    positive = sum((e.weight_fwd > 0.0) + (e.weight_bwd > 0.0) for e in g.edges)
    tracer.count("kernel_states", lift.n_states)
    # Least traffic one application must cause: read the input vector, write
    # the output vector, and read one int64 permutation per positive
    # orientation.  Computed from the sizes, not measured.
    tracer.count("kernel_bytes", 16 * lift.n_states + 8 * lift.n * positive)


COUNTERS = {
    "analyzer.solve_first_passage": _count_solver,
    "cover.simulate_walk": _count_walk,
    "lift.apply_kernel": _count_kernel,
    "lift.apply_kernel_to_function": _count_kernel,
}


def instrument(tracer, modules=None):
    """Wrap every public layer function in every module that binds it.

    ``modules`` maps module names to module objects (default: the loaded
    ``liftmix`` modules).  Returns a function that restores the originals.
    """
    if modules is None:
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "liftmix" or name.startswith("liftmix.")}
    wrappers = {}
    for layer in LAYERS:
        mod = modules.get(f"liftmix.{layer}")
        if mod is None:
            continue
        for attr, obj in vars(mod).items():
            if not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                continue
            if attr.startswith("_") and attr not in PRIVATE.get(layer, ()):
                continue
            name = f"{layer}.{attr}"
            wrappers[id(obj)] = tracer.wrap(name, obj, COUNTERS.get(name))
    restore = []
    for mod in modules.values():
        for attr, obj in list(vars(mod).items()):
            wrapper = wrappers.get(id(obj))
            if wrapper is not None and wrapper.__wrapped_original__ is obj:
                setattr(mod, attr, wrapper)
                restore.append((mod, attr, obj))

    def undo():
        for mod, attr, obj in restore:
            setattr(mod, attr, obj)

    return undo


# ---------------------------------------------------------------------------
# span arithmetic
# ---------------------------------------------------------------------------


def self_times(spans):
    """Duration of each span minus the durations of its direct children."""
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[END] - s[START]
    return out


def summarize(spans):
    """Per span name: ``[calls, inclusive_s, self_s, errors]``.

    Inclusive time counts a span only when no ancestor has the same name, so
    nested repeats are not counted twice; ``errors`` counts those outermost
    spans that ended in an exception.
    """
    own = self_times(spans)
    out = {}
    for i, s in enumerate(spans):
        rec = out.setdefault(s[NAME], [0, 0.0, 0.0, 0])
        rec[0] += 1
        rec[2] += own[i]
        p = s[PARENT]
        while p >= 0 and spans[p][NAME] != s[NAME]:
            p = spans[p][PARENT]
        if p < 0:
            rec[1] += s[END] - s[START]
            rec[3] += bool(s[ERROR])
    return out


def quantile(values, q):
    """Nearest-rank quantile; 0.0 for an empty list."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def layer_metrics(spans, counters):
    """Per-layer metrics (name -> (value, unit)) from one traced run."""
    by_name = summarize(spans)

    def get(field, *names):
        return sum(by_name[n][field] for n in names if n in by_name)

    def layer_self(layer):
        return sum(rec[2] for n, rec in by_name.items() if n.startswith(layer + "."))

    n_calls = functools.partial(get, 0)
    incl = functools.partial(get, 1)
    own = functools.partial(get, 2)
    steps = counters.get("walker_steps", 0)
    kernels = ("lift.apply_kernel", "lift.apply_kernel_to_function")
    states = counters.get("kernel_states", 0)
    curve_ms = [1e3 * (s[END] - s[START]) for s in spans
                if s[NAME] == "mixing.mixing_curve"]
    m = {
        "base_graph.parse_s": (incl("base_graph.parse_graph"), "s"),
        "base_graph.parse_calls": (n_calls("base_graph.parse_graph"), "count"),
        "base_graph.assumptions_s": (incl("base_graph.check_assumptions"), "s"),
        "base_graph.assumptions_calls": (n_calls("base_graph.check_assumptions"), "count"),
        "base_graph.transience_s": (incl("base_graph.is_cover_transient"), "s"),
        "base_graph.transience_calls": (n_calls("base_graph.is_cover_transient"), "count"),
        "base_graph.stationary_s": (incl("base_graph.stationary_distribution"), "s"),
        "base_graph.stationary_calls": (n_calls("base_graph.stationary_distribution"), "count"),
        "analyzer.entropy_s": (incl("analyzer.entropy"), "s"),
        "analyzer.entropy_calls": (n_calls("analyzer.entropy"), "count"),
        "analyzer.solve_s": (incl("analyzer.solve_first_passage"), "s"),
        "analyzer.solver_iterations": (counters.get("solver_iterations", 0), "count"),
        "analyzer.solver_iterations_max": (counters.get("solver_iterations_max", 0), "count"),
        "analyzer.ray_law_s": (incl("analyzer.ray_law"), "s"),
        "analyzer.errors": (get(3, "analyzer.entropy"), "count"),
        "cover.simulate_s": (incl("cover.simulate_walk"), "s"),
        "cover.trace_s": (incl("cover.log_weight_trace"), "s"),
        "cover.excursion_self_s": (own("cover.excursion_decomposition"), "s"),
        "cover.localization_s": (incl("cover.ray_localization_profile"), "s"),
        "cover.walker_steps": (steps, "count"),
        "cover.ns_per_step": (1e9 * layer_self("cover") / steps if steps else 0.0, "ns"),
        "lift.generate_s": (incl("lift.generate_uniform_lift",
                                 "lift.generate_sequential_lift"), "s"),
        "lift.kernel_s": (incl(*kernels), "s"),
        "lift.kernel_calls": (n_calls(*kernels), "count"),
        "lift.kernel_ns_per_state": (1e9 * incl(*kernels) / states if states else 0.0, "ns"),
        "lift.kernel_bytes_computed": (counters.get("kernel_bytes", 0), "bytes"),
        "lift.stationary_s": (incl("lift.lift_stationary"), "s"),
        "lift.stationary_calls": (n_calls("lift.lift_stationary"), "count"),
        "mixing.curve_s": (incl("mixing.mixing_curve"), "s"),
        "mixing.curves": (len(curve_ms), "count"),
        "mixing.curve_p50_ms": (quantile(curve_ms, 0.5), "ms"),
        "mixing.curve_p99_ms": (quantile(curve_ms, 0.99), "ms"),
        "mixing.curve_self_s": (own("mixing.mixing_curve"), "s"),
        "mixing.period_s": (incl("mixing._lift_period"), "s"),
        "mixing.period_calls": (n_calls("mixing._lift_period"), "count"),
        "cli.self_s": (own("cli.main"), "s"),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (layer_self(layer), "s")
    return m
