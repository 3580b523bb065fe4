"""The four workloads: the CLI calls each one makes, its work count and its checks.

Every workload is a closed loop of ``liftmix.cli.main(argv)`` calls made by
one caller.  Calls are grouped in rounds: a round is one call, except in
analyze-batch, where it is one generated batch of graphs.  The run ends
after the round during which the time is up, so every round is whole and
the mix of inputs in a run does not depend on where the time ran out.

Checks run outside the timed region, and any failure means a wrong answer.
Statistical gates are applied to all calls of a run together, so that a
correct program fails them too rarely to matter.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import os
import random
from dataclasses import dataclass
from typing import Optional

from . import inputs

GRAPH_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "graphs")


@dataclass
class Op:
    """One CLI call: its arguments, a label naming its input, the graph text
    (analyze-batch) or the seed it was given (the other workloads)."""

    argv: list
    label: str
    text: Optional[str] = None
    seed: Optional[int] = None


@dataclass
class Failure:
    """A failed output check of the call at ``index``."""

    index: int
    label: str
    message: str


def graph_path(name):
    return os.path.join(GRAPH_DIR, f"{name}.g")


def out_dir(work_dir):
    """Artifact directory of the CLI calls; emptied before each call."""
    return os.path.join(work_dir, "out")


def derived_seed(seed, i):
    """Seed of the i-th call of a run; distinct for every (seed, i) with i < 1000."""
    return int(seed) * 1000 + i


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


class Workload:
    name = ""
    unit = ""
    #: Rounds in the traced run; fixed, so its counts repeat exactly per seed.
    trace_rounds = 1

    def rounds(self, seed, work_dir):
        """Endless iterator over rounds, each a list of :class:`Op`."""
        raise NotImplementedError

    def after_op(self, seed, i, op, res, out):
        """Untimed: keep from the artifacts in ``out`` what the checks need."""

    def work(self, results):
        """Work done by the calls of one round, in this workload's unit."""
        return float(len(results))

    def check(self, ops, results, main, work_dir):
        """Failures found in the calls of a run (list of :class:`Failure`)."""
        return []

    def probe(self, work_dir):
        """Untimed calls run once per run apart from the workload's own calls."""
        return []


def _payload(res):
    return res["payload"] if res["rc"] == 0 else None


# ---------------------------------------------------------------------------
# cover-mc
# ---------------------------------------------------------------------------


class CoverMC(Workload):
    """cover-sim on theta3: nearly all time is in the four scalar Python loops
    of ``cover``, and ``lift`` and ``mixing`` are never called, so a lockstep
    walker shows here and nowhere else."""

    name = "cover-mc"
    unit = "walker-steps/s"
    trace_rounds = 4
    trials = 4
    steps = 250_000
    pooled_se = 5.0

    def rounds(self, seed, work_dir):
        for i in itertools.count():
            s = derived_seed(seed, i)
            yield [Op(["cover-sim", "--graph", graph_path("theta3"), "--alpha", "0.5",
                       "--trials", str(self.trials), "--steps", str(self.steps),
                       "--per-trial", "--seed", str(s), "--workers", "1",
                       "--out", out_dir(work_dir)], f"seed-{s}", seed=s)]

    def work(self, results):
        return float(self.trials * self.steps * len(results))

    def check(self, ops, results, main, work_dir):
        """Pooled gate: the mean estimate of the run's calls within
        ``pooled_se`` standard errors of the analytic value.

        Every call has the same size, so the pooled standard error is the
        root sum of squares of the calls' errors over their number; with
        eight calls, 5 pooled SE is 1.8 SE of one call, tighter on bias than
        a per-call 3-SE gate, which a correct program fails in about one
        call out of 200.
        """
        payloads = [(i, p) for i, p in enumerate(map(_payload, results)) if p is not None]
        if not payloads:
            return []
        failures = []
        k = len(payloads)
        for est, se, exact in (("h_est", "se_h", "h_analytic"),
                               ("speed_est", "se_speed", "speed_analytic")):
            mean = math.fsum(p[est] for _, p in payloads) / k
            pooled = math.sqrt(math.fsum(p[se] ** 2 for _, p in payloads)) / k
            target = payloads[0][1][exact]
            if not abs(mean - target) <= self.pooled_se * pooled:
                failures += [Failure(i, ops[i].label, (
                    f"mean {est} {mean!r} of {k} calls not within {self.pooled_se} "
                    f"pooled SE ({pooled!r}) of {exact} {target!r}"))
                    for i, _ in payloads]
        return failures


# ---------------------------------------------------------------------------
# mix-many-starts
# ---------------------------------------------------------------------------


class MixManyStarts(Workload):
    """mix --starts all on bouquet4 (alpha 0, n 1024): 1024 starts of about
    20 steps each, so per-start set-up dominates (the pure-Python period BFS
    and the base stationary re-solve); caching them per lift shows here."""

    name = "mix-many-starts"
    unit = "starts/s"
    trace_rounds = 3
    n = 1024
    dense_starts = 3

    def rounds(self, seed, work_dir):
        for i in itertools.count():
            s = derived_seed(seed, i)
            yield [Op(["mix", "--graph", graph_path("bouquet4"), "--n", str(self.n),
                       "--starts", "all", "--seed", str(s), "--out", out_dir(work_dir)],
                      f"seed-{s}", seed=s)]

    def after_op(self, seed, i, op, res, out):
        if res["rc"] != 0:
            return
        summary = json.loads(_read(os.path.join(out, "summary.json")))
        per_start = summary["per_start"]
        picks = random.Random(f"{seed}/{i}").sample(sorted(per_start, key=int),
                                                     self.dense_starts)
        res["keep"] = {
            "starts": len(per_start),
            "eps": summary["eps"],
            "worst": summary["worst_crossings"],
            "picked": {s: per_start[s] for s in picks},
            "t_cap": summary["t_cap"],
        }

    def work(self, results):
        return float(sum(r.get("keep", {}).get("starts", 0) for r in results))

    def check(self, ops, results, main, work_dir):
        import numpy as np
        from liftmix.base_graph import parse_graph
        from liftmix.lift import lift_from_json, lift_stationary, lift_transition_matrix

        g = parse_graph(_read(graph_path("bouquet4")).decode())
        failures = []
        for i, (op, res) in enumerate(zip(ops, results)):
            keep = res.get("keep")
            if keep is None:
                continue
            by_eps = sorted((float(e), t) for e, t in keep["worst"].items())
            times = [math.inf if t is None else t for _, t in by_eps]
            if any(b > a for a, b in zip(times, times[1:])):
                failures.append(Failure(i, op.label, (
                    f"worst-start crossings increase with eps: {by_eps}")))
            lift_dir = os.path.join(work_dir, "lift-check")
            os.makedirs(lift_dir, exist_ok=True)
            rc = _quiet(main, ["lift", "--graph", graph_path("bouquet4"),
                               "--n", str(self.n), "--seed", str(op.seed),
                               "--out", lift_dir])
            if rc != 0:
                failures.append(Failure(i, op.label, "lift regeneration failed"))
                continue
            lift = lift_from_json(g, _read(os.path.join(lift_dir, "lift.json")).decode())
            mat = lift_transition_matrix(lift)
            pi = lift_stationary(lift).reshape(-1)
            drift = float(np.abs(pi @ mat - pi).max())
            if drift > 1e-12 or abs(pi.sum() - 1.0) > 1e-12:
                failures.append(Failure(i, op.label, (
                    f"lift stationary law is not stationary (residual {drift:g})")))
                continue
            for start, crossings in keep["picked"].items():
                msg = _dense_mismatch(mat, pi, int(start), crossings, keep["t_cap"])
                if msg:
                    failures.append(Failure(i, op.label, f"start {start}: {msg}"))
        return failures


def _dense_mismatch(mat, pi, start, crossings, t_cap, slack=1e-9):
    """Compare CLI crossings with dense propagation; '' when they agree.

    A crossing may differ by rounding only when the dense TV at that step
    lies within ``slack`` of the threshold.
    """
    import numpy as np

    eps = {float(e): t for e, t in crossings.items()}
    mu = np.zeros(len(pi))
    mu[start] = 1.0
    tvs = [0.5 * float(np.abs(mu - pi).sum())]
    while len(tvs) <= t_cap and tvs[-1] > min(eps):
        mu = mu @ mat
        tvs.append(0.5 * float(np.abs(mu - pi).sum()))
    for e, t in eps.items():
        dense = next((k for k, v in enumerate(tvs) if v <= e), None)
        if dense == t:
            continue
        near = [k for k in (dense, t) if k is not None and k < len(tvs)]
        if not near or any(abs(tvs[k] - e) > slack for k in near):
            return f"eps {e}: CLI crossing {t}, dense crossing {dense}"
    return ""


# ---------------------------------------------------------------------------
# sweep-large-n
# ---------------------------------------------------------------------------


class SweepLargeN(Workload):
    """sweep on theta3 (alpha 1/2) up to n = 131072: the same lift and mixing
    code used the opposite way, two starts per lift on up to 262144 states,
    so ``apply_kernel`` dominates and the period BFS is skipped.  A per-lift
    cache pays its build cost (and memory) here without being reused."""

    name = "sweep-large-n"
    unit = "state-steps/s"
    trace_rounds = 3
    n_grid = "8192,32768,131072"
    n_vertices = 2  # of theta3, so a lift of degree n has 2n states
    slope_tolerance = 0.15

    def _argv(self, master_seed, out):
        return ["sweep", "--graph", graph_path("theta3"), "--alpha", "0.5",
                "--n", self.n_grid, "--seeds", "2", "--starts", "sample:2",
                "--master-seed", str(master_seed), "--workers", "1", "--out", out]

    def rounds(self, seed, work_dir):
        for i in itertools.count():
            s = derived_seed(seed, i)
            yield [Op(self._argv(s, out_dir(work_dir)), f"seed-{s}", seed=s)]

    def after_op(self, seed, i, op, res, out):
        if res["rc"] != 0:
            return
        data = _read(os.path.join(out, "results.csv")).decode()
        summary = json.loads(_read(os.path.join(out, "summary.json")))
        res["keep"] = {
            "state_steps": state_steps(data, summary["t_caps"], self.n_vertices),
            "worst": worst_times(data),
            "summary": summary,
        }

    def work(self, results):
        return float(sum(r.get("keep", {}).get("state_steps", 0) for r in results))

    def check(self, ops, results, main, work_dir):
        """Each call's slope and verdicts recomputed from its own results.csv,
        then the run's pooled verdict.

        A single call's verdict rests on two seeds and is false for about one
        correct call in a thousand, so the verdict is applied to the
        worst-start times of all calls of the run together (two seeds each),
        with the program's own criteria: slope within 15% of the prediction
        and a narrowing cutoff window for at least 80% of the seeds.
        """
        failures = []
        pooled, narrowing = {}, []
        predicted = None
        for i, (op, res) in enumerate(zip(ops, results)):
            keep = res.get("keep")
            if keep is None:
                continue
            summ, worst = keep["summary"], keep["worst"]
            predicted = summ["predicted"]
            n_grid, eps = summ["n_grid"], summ["eps_primary"]
            seeds = range(summ["seeds"])
            means = [sum(worst[(n, s, eps)] for s in seeds) / len(seeds) for n in n_grid]
            slope = ols_slope([math.log(n) for n in n_grid], means)
            window = (sum(window_nonincreasing(worst, n_grid, summ["eps"], s) for s in seeds)
                      >= math.ceil(0.8 * len(seeds)))
            for key, want in (("slope", slope), ("verdict_slope",
                              abs(slope - predicted) <= self.slope_tolerance * predicted),
                              ("window", window)):
                got = summ["window"]["verdict"] if key == "window" else summ[key]
                same = (abs(got - want) <= 1e-9 * abs(want) if key == "slope"
                        else got is want)
                if not same:
                    failures.append(Failure(i, op.label, (
                        f"summary {key} {got!r}, recomputed from results.csv {want!r}")))
            if summ["verdict"] is not (summ["verdict_slope"] and summ["window"]["verdict"]):
                failures.append(Failure(i, op.label, "verdict is not slope and window"))
            for n in n_grid:
                pooled.setdefault(n, []).extend(worst[(n, s, eps)] for s in seeds)
            narrowing += [window_nonincreasing(worst, n_grid, summ["eps"], s) for s in seeds]
        if pooled:
            n_grid = sorted(pooled)
            slope = ols_slope([math.log(n) for n in n_grid],
                              [sum(pooled[n]) / len(pooled[n]) for n in n_grid])
            msgs = []
            if not abs(slope - predicted) <= self.slope_tolerance * predicted:
                msgs.append(f"pooled slope {slope!r} over {len(narrowing)} seeds not "
                            f"within {self.slope_tolerance:.0%} of predicted {predicted!r}")
            if sum(narrowing) < math.ceil(0.8 * len(narrowing)):
                msgs.append(f"cutoff window narrows for only {sum(narrowing)} of "
                            f"{len(narrowing)} seeds")
            failures += [Failure(i, ops[i].label, m) for m in msgs
                         for i, res in enumerate(results) if "keep" in res]
        return failures


def worst_times(results_csv):
    """Worst-start mixing time per ``(n, seed, eps)`` from results.csv; an
    unreached threshold (``None``) dominates."""
    rows = csv.DictReader(line for line in io.StringIO(results_csv)
                          if not line.startswith("#"))
    worst = {}
    for row in rows:
        key = (int(row["n"]), int(row["seed"]), float(row["eps"]))
        t = int(row["t_mix"]) if row["reached"] == "1" else None
        if key not in worst:
            worst[key] = t
        elif worst[key] is not None:
            worst[key] = None if t is None else max(worst[key], t)
    return worst


def ols_slope(xs, ys):
    """Least-squares slope of ys against xs."""
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    return (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
            / sum((x - mx) ** 2 for x in xs))


def window_nonincreasing(worst, n_grid, eps_list, seed):
    """The cutoff window (t(eps_lo) - t(eps_hi)) / t(eps_mid) of one seed is
    defined and nonincreasing along the grid."""
    lo, hi = min(eps_list), max(eps_list)
    mid = min(eps_list, key=lambda e: abs(e - 0.5))
    ratios = []
    for n in n_grid:
        t_lo, t_hi, t_mid = (worst[(n, seed, e)] for e in (lo, hi, mid))
        if None in (t_lo, t_hi, t_mid) or t_mid == 0:
            return False
        ratios.append((t_lo - t_hi) / t_mid)
    return all(b <= a + 1e-9 for a, b in zip(ratios, ratios[1:]))


def state_steps(results_csv, t_caps, n_vertices):
    """Sum over propagated curves of n_states x kernel steps, from results.csv.

    A curve stops at its crossing of the smallest threshold, or at the cap
    when it never crosses it.
    """
    rows = csv.DictReader(line for line in io.StringIO(results_csv)
                          if not line.startswith("#"))
    curves = {}
    for row in rows:
        key = (int(row["n"]), row["seed"], row["start"])
        curves.setdefault(key, []).append((float(row["eps"]), int(row["t_mix"]),
                                           row["reached"] == "1"))
    total = 0
    for (n, _, _), cells in curves.items():
        _, t_mix, reached = min(cells)
        steps = t_mix if reached else int(t_caps[str(n)])
        total += n * n_vertices * steps
    return total


# ---------------------------------------------------------------------------
# analyze-batch
# ---------------------------------------------------------------------------

#: Closed forms of the entropy rate on two demo graphs.
CLOSED_FORMS = {"demo-theta3": math.log(2) / 6, "demo-bouquet4": math.log(3) / 2}


class AnalyzeBatch(Workload):
    """analyze once per generated graph (see ``inputs.py``): the only workload
    that calls ``entropy`` more than once, so the only one measuring
    ``analyzer`` and ``base_graph``; the near-critical bouquets are
    solver-bound.  Single-cycle graphs that fail today (see ``inputs.py``)
    form the untimed probe."""

    name = "analyze-batch"
    unit = "graphs/s"
    trace_rounds = 3

    def rounds(self, seed, work_dir):
        for batch in itertools.count():
            items = inputs.batch_texts(seed, batch, GRAPH_DIR)
            paths = inputs.write_batch(items, os.path.join(work_dir, f"batch-{batch}"))
            yield [Op(["analyze", "--graph", path], name, text)
                   for (name, text), path in zip(items, paths)]

    def probe(self, work_dir):
        items = inputs.defect_texts()
        paths = inputs.write_batch(items, os.path.join(work_dir, "probe"))
        return [Op(["analyze", "--graph", path], name, text)
                for (name, text), path in zip(items, paths)]

    def check(self, ops, results, main, work_dir):
        failures = []
        for i, (op, res) in enumerate(zip(ops, results)):
            p = _payload(res)
            if p is None:
                continue
            msgs = []
            res_fp = p["residuals"]["first_passage"]
            res_ray = p["residuals"]["ray_stationarity"]
            if not res_fp <= 1e-12:
                msgs.append(f"first-passage residual {res_fp!r} above tol 1e-12")
            if not res_ray <= 1e-10:
                msgs.append(f"ray stationarity residual {res_ray!r} above 1e-10")
            target = CLOSED_FORMS.get(op.label)
            if target is not None and not abs(p["h_alpha"] - target) <= 1e-9:
                msgs.append(f"h_alpha {p['h_alpha']!r}, closed form {target!r}")
            if inputs.is_single_cycle(op.text) and not (
                    p["degenerate"] is True and p["h_alpha"] == 0.0):
                msgs.append(f"single cycle gave degenerate={p['degenerate']!r}, "
                            f"h_alpha={p['h_alpha']!r}")
            failures += [Failure(i, op.label, m) for m in msgs]
        return failures


WORKLOADS = {w.name: w for w in (CoverMC(), MixManyStarts(), SweepLargeN(), AnalyzeBatch())}


def _quiet(main, argv):
    """Call the CLI with its output discarded; return its exit code."""
    from contextlib import redirect_stderr, redirect_stdout

    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        try:
            return main(argv)
        except SystemExit as exc:
            return exc.code
