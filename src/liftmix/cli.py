"""Command-line interface: reproducible experiments behind subcommands.

Every subcommand prints a one-line JSON summary on standard output (all
progress goes to standard error), writes artifacts atomically, and derives
all randomness from a master seed plus fixed purpose strings, so re-running
a command with the same configuration reproduces every artifact byte for
byte.  Artifacts embed the configuration digest, library version, and
graph digest; commands that write files also write a ``manifest.json``
whose only non-reproducible content is isolated under its ``timing`` key.

:func:`main` is the one place that runs a command: it loads the graph once
and passes it to the command's handler, and a refused call removes the
``--out`` directories that it made while they are empty.  An ``--out``
that cannot be made is refused before any work, and each artifact's
manifest digest is that of the text written, not of a file read back.

Exit codes: 0 success; 1 validation or analysis error, or a size no array
can hold (a ``MemoryError``); 2 numerical non-convergence; 3 usage error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile
import time
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .analyzer import (
    FIRST_PASSAGE_MAX_ITER,
    FIRST_PASSAGE_TOL,
    entropy,
)
from .base_graph import holding_probability, parse_graph
from .cover import (
    ExcursionStats,
    confirmed_ray,
    estimate_clt_params,
    estimate_speed,
    excursion_decomposition,
    ray_localization_profile,
    renewal_edge,
    simulate_walk,
)
from .errors import AnalysisError, GraphError, NonConvergenceError
from .lift import draw_lift, lift_from_json, lift_to_json, spectrum_inheritance_check
from .mixing import (
    _cell_curves,
    _pool_map,
    _worst_start,
    cutoff_sweep,
)
from .rng import substream


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors exit with status 3, and which
    takes no prefix of an option for the option: ``sweep --seed`` would
    otherwise run ``--seeds``."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(3, f"{self.prog}: error: {message}\n")


# ---------------------------------------------------------------------------
# plumbing helpers
# ---------------------------------------------------------------------------


def _progress(msg):
    print(msg, file=sys.stderr, flush=True)


def _read_text(path, what):
    """The text of the ``what`` file at ``path``; one ``GraphError`` line
    when it cannot be opened or is not UTF-8."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise GraphError(f"cannot read {what} file {path!r}: {exc}") from exc


def _canonical_json(payload):
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _atomic_write(path, data):
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _csv_text(meta, header, rows):
    lines = [f"# {key}: {value}" for key, value in meta.items()]
    lines.append(",".join(header))
    lines.extend(",".join(str(x) for x in row) for row in rows)
    return "\n".join(lines) + "\n"


class _Run:
    """Configuration, artifacts and manifest of one command run.

    The configuration opens with the command name and the graph digest; its
    digest, the library version and the graph digest form ``meta``, which
    every payload and artifact carries.  A run given ``out_dir`` makes it
    on creation, so an ``--out`` that cannot be made is refused before any
    work.  Artifacts are written atomically into it, each with the SHA-256
    digest of the text written, which :meth:`manifest` records.  The
    manifest's ``timing`` key, its only non-reproducible content, counts
    from the creation of the run.
    """

    def __init__(self, command, g, config, out_dir=None):
        self.command = command
        self.config = {"command": command, "graph_digest": g.digest(), **config}
        text = _canonical_json(self.config).encode("utf-8")
        digest = hashlib.sha256(text).hexdigest()
        self.meta = {
            "config_digest": digest,
            "library_version": __version__,
            "graph_digest": g.digest(),
        }
        if out_dir is not None:
            try:
                os.makedirs(out_dir, exist_ok=True)
            except OSError as exc:
                raise AnalysisError(
                    f"cannot create output directory {out_dir!r}: {exc}") from exc
        self.out_dir = out_dir
        self.artifacts = {}
        self.started = datetime.now(timezone.utc).isoformat()
        self.t0 = time.monotonic()

    def write(self, name, text):
        """Write one artifact, record its digest and return its path."""
        data = text.encode("utf-8")
        path = os.path.join(self.out_dir, name)
        _atomic_write(path, data)
        self.artifacts[name] = hashlib.sha256(data).hexdigest()
        return path

    def write_csv(self, name, header, rows, **extra_meta):
        """Write a CSV artifact headed by ``meta`` plus ``extra_meta``."""
        return self.write(name, _csv_text({**self.meta, **extra_meta}, header, rows))

    def manifest(self):
        """Write ``manifest.json`` and return its path; None without artifacts."""
        if not self.artifacts:
            return None
        manifest = {
            "command": self.command,
            "config": self.config,
            **self.meta,
            "artifacts": dict(sorted(self.artifacts.items())),
            "timing": {
                "started_utc": self.started,
                "wall_seconds": round(time.monotonic() - self.t0, 6),
            },
        }
        path = os.path.join(self.out_dir, "manifest.json")
        text = json.dumps(manifest, indent=2, sort_keys=False) + "\n"
        _atomic_write(path, text.encode("utf-8"))
        return path

    def closing_keys(self):
        """The ``artifacts``, ``manifest`` and ``meta`` keys that close a
        payload; writes ``manifest.json`` when there are artifacts."""
        return {
            "artifacts": sorted(self.artifacts),
            "manifest": self.manifest(),
            "meta": self.meta,
        }


def _parse_eps_list(text):
    try:
        eps = tuple(float(tok) for tok in text.split(",") if tok.strip())
    except ValueError:
        raise AnalysisError(f"bad threshold list {text!r}") from None
    if not eps or not all(0.0 < e < 1.0 for e in eps):
        raise AnalysisError("thresholds must lie strictly between 0 and 1")
    return eps


def _parse_n_list(text):
    try:
        ns = tuple(int(tok) for tok in text.split(",") if tok.strip())
    except ValueError:
        raise AnalysisError(f"bad degree list {text!r}") from None
    if not ns or any(n < 1 for n in ns):
        raise AnalysisError("lift degrees must be positive integers")
    return ns


def _fmt_eps(e):
    return repr(float(e))


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------


def _cmd_validate(args, g):
    report = g.assumptions
    transient = None
    reason = None
    if report.a1_irreducible:
        verdict = g.transience
        transient = verdict.transient
        reason = verdict.reason
    payload = {
        "valid": True,
        "vertices": g.n_vertices,
        "edges": len(g.edges),
        "alpha": g.alpha,
        "irreducible": report.a1_irreducible,
        "two_escape_routes": report.a2_two_cycles,
        "all_orientations_positive": report.a3_all_positive,
        "no_dead_orientations": report.a3_star,
        "every_edge_escapes": report.a4_every_edge_on_cycle,
        "period": report.period,
        "witness_cycles": [
            [g.oriented_name(k) for k in cyc] for cyc in report.witness_cycles
        ],
        "cover_transient": transient,
        "transience_reason": reason,
        "meta": _Run("validate", g, {}).meta,
    }
    return payload


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------


def _cmd_analyze(args, g):
    report = entropy(g, alpha=args.alpha, tol=args.tol, max_iter=args.max_iter)
    gc = report.core.graph
    fps = report.first_passage
    rl = report.ray_law
    run = _Run("analyze", g, {
        "alpha": report.holding_prob,
        "tol": args.tol,
        "max_iter": args.max_iter,
    })
    payload = {
        "q": fps.as_dict(gc),
        "w_hat": rl.exit_dict(),
        "pi_hat": rl.freq_dict(),
        "h_W": report.per_level_entropy,
        "s0": report.escape_speed,
        "h_alpha": report.entropy_rate,
        "a_frac": report.core_step_fraction,
        "degenerate": report.degenerate,
        "residuals": {
            "first_passage": fps.residual,
            "ray_stationarity": rl.stationarity_residual,
        },
        "iterations": fps.iterations,
        "alpha": report.holding_prob,
        "s_alpha": report.speed,
        "removed_vertices": list(report.core.removed_vertices),
        "meta": run.meta,
    }
    return payload


# ---------------------------------------------------------------------------
# cover-sim
# ---------------------------------------------------------------------------


def _cover_trial(packed):
    report, root, steps, alpha, master_seed, trial, margin, e_star, r_max = packed
    rng = substream(master_seed, "cover-walk", trial)
    traj = simulate_walk(report.graph, root, steps, alpha=alpha, rng=rng)
    # the excursions and the localization profile read one confirmed ray
    times, ray_labels = confirmed_ray(traj, margin)
    stats = excursion_decomposition(report, e_star, times, ray_labels)
    profile = ray_localization_profile(traj, ray_labels, r_max)
    return {
        "trial": trial,
        "durations": stats.durations,
        "increments": stats.log_weight_increments,
        "levels": stats.level_increments,
        "degenerate": stats.degenerate,
        "n_excursions": stats.n,
        "final_height": int(traj.heights[-1]),
        "counts": profile.counts,
        "n_samples": profile.n_samples,
    }


def _cmd_cover_sim(args, g):
    if args.trials < 1:
        raise AnalysisError(f"trials must be at least 1, got {args.trials}")
    if args.r_max < 0:
        raise AnalysisError("r_max must be nonnegative")
    # the walk's distance to its ray never exceeds its height
    if args.r_max > args.steps >= 0:
        raise AnalysisError(f"r_max must be at most the step count {args.steps}, "
                            "the walk's greatest height")
    alpha = holding_probability(g, args.alpha)
    report = entropy(g, alpha=alpha)
    root = args.root if args.root is not None else g.vertices[0]
    if root not in g.vertex_index:
        raise GraphError(f"unknown root vertex {root!r}")
    e_star = renewal_edge(report, args.e_star)
    run = _Run("cover-sim", g, {
        "alpha": alpha,
        "steps": args.steps,
        "trials": args.trials,
        "seed": args.seed,
        "margin": args.margin,
        "root": root,
        "e_star": g.oriented_name(e_star),
        "r_max": args.r_max,
        "per_trial": bool(args.per_trial),
    }, args.out)
    packed = [
        (report, root, args.steps, alpha, args.seed, trial, args.margin, e_star,
         args.r_max)
        for trial in range(args.trials)
    ]
    results = []
    for res in _pool_map(_cover_trial, packed, args.workers):
        results.append(res)
        _progress(f"trial {res['trial'] + 1}/{args.trials} done "
                  f"({res['n_excursions']} excursions)")

    durations = np.concatenate([r["durations"] for r in results])
    increments = np.concatenate([r["increments"] for r in results])
    levels = np.concatenate([r["levels"] for r in results])
    pooled = ExcursionStats(
        durations=durations,
        log_weight_increments=increments,
        level_increments=levels,
        e_star=e_star,
        degenerate=all(r["degenerate"] for r in results),
    )
    est = estimate_clt_params(pooled)
    sp = estimate_speed(pooled)
    counts = np.sum([r["counts"] for r in results], axis=0)
    n_samples = int(sum(r["n_samples"] for r in results))
    tail = {str(r): float(counts[r]) / n_samples for r in range(args.r_max + 1)}

    if args.per_trial:
        rows = [
            (
                r["trial"],
                r["n_excursions"],
                int(r["durations"].sum()),
                repr(float(r["increments"].sum())),
                int(r["levels"].sum()),
                r["final_height"],
            )
            for r in results
        ]
        run.write_csv(
            "per_trial.csv",
            ("trial", "n_excursions", "sum_duration", "sum_log_weight",
             "sum_levels", "final_height"),
            rows,
        )
    payload = {
        "h_est": est.h_est,
        "se_h": est.h_se,
        "sigma_est": est.sigma_est,
        "se_sigma": est.sigma_se,
        "speed_est": sp.value,
        "localization_profile": {"tail": tail, "n_samples": n_samples},
        "se_speed": sp.se,
        "n_excursions": pooled.n,
        "degenerate": est.degenerate,
        "cylindrical": est.cylindrical,
        "e_star": g.oriented_name(e_star),
        "root": root,
        "alpha": alpha,
        "steps": args.steps,
        "trials": args.trials,
        "h_analytic": report.entropy_rate,
        "speed_analytic": report.speed,
        **run.closing_keys(),
    }
    return payload


# ---------------------------------------------------------------------------
# lift
# ---------------------------------------------------------------------------


def _cmd_lift(args, g):
    if args.verify is not None:
        lift = lift_from_json(g, _read_text(args.verify, "lift"))
        return {
            "verified": True,
            "n": lift.n,
            "edges": len(g.edges),
            "base_hash": g.digest(),
            "meta": _Run("lift", g, {"verify": True, "n": lift.n}).meta,
        }
    if args.n is None:
        raise AnalysisError("--n is required unless --verify is given")
    run = _Run("lift", g, {"n": args.n, "seed": args.seed}, args.out)
    lift = draw_lift(g, args.n, args.seed)
    payload_file = json.loads(lift_to_json(lift))
    payload_file["meta"] = run.meta
    path = run.write("lift.json", _canonical_json(payload_file) + "\n")
    return {
        "written": path,
        "n": lift.n,
        "base_hash": g.digest(),
        "manifest": run.manifest(),
        "meta": run.meta,
    }


# ---------------------------------------------------------------------------
# mix
# ---------------------------------------------------------------------------


def _cmd_mix(args, g):
    eps_list = _parse_eps_list(args.eps)
    eps_primary = eps_list[0]
    alpha = holding_probability(g, args.alpha)
    run = _Run("mix", g, {
        "n": args.n,
        "seed": args.seed,
        "alpha": alpha,
        "eps": list(eps_list),
        "starts": args.starts,
        "t_cap": args.t_cap,
    }, args.out)
    last = 0

    def _report(done, total):
        # a line per 50 starts, at the end of the block that passes them
        nonlocal last
        if done // 50 > last // 50 or done == total:
            _progress(f"start {done}/{total} done")
        last = done

    states, exhaustive, curves = _cell_curves(g, args.n, args.seed, 0, args.starts,
                                              alpha, eps_list, args.t_cap,
                                              progress=_report)
    curves = dict(zip(states, curves))

    worst_state, _ = _worst_start({s: curves[s].mixing_crossings[eps_primary]
                                   for s in states})
    worst_curve = curves[worst_state]
    for name, curve in (("curve.csv", worst_curve),
                        ("curve_averaged.csv", worst_curve.averaged)):
        if curve is not None:
            run.write_csv(name, ("t", "tv"),
                          [(t, repr(float(v))) for t, v in enumerate(curve.tv)],
                          start=worst_state)

    keys = [(_fmt_eps(e), e) for e in eps_list]
    per_start = {
        str(s): {key: curves[s].mixing_crossings[e] for key, e in keys}
        for s in states
    }
    summary = {
        "n": args.n,
        "seed": args.seed,
        "alpha": alpha,
        "eps": list(eps_list),
        "eps_primary": eps_primary,
        "starts_policy": args.starts,
        "exhaustive": exhaustive,
        "worst_start": worst_state,
        "worst_crossings": {key: worst_curve.crossings[e] for key, e in keys},
        "periodic": worst_curve.periodic,
        "averaged_crossings": (
            {key: worst_curve.averaged.crossings[e] for key, e in keys}
            if worst_curve.averaged is not None else None
        ),
        "per_start": per_start,
        "t_cap": args.t_cap,
        "meta": run.meta,
    }
    run.write("summary.json", json.dumps(summary, indent=2) + "\n")
    return {
        "worst_start": worst_state,
        "worst_crossings": summary["worst_crossings"],
        "periodic": worst_curve.periodic,
        "n": args.n,
        **run.closing_keys(),
    }


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def _cmd_sweep(args, g):
    eps_list = _parse_eps_list(args.eps)
    n_grid = _parse_n_list(args.n)
    eps_primary = 0.25 if 0.25 in eps_list else eps_list[0]
    alpha = holding_probability(g, args.alpha)
    run = _Run("sweep", g, {
        "n_grid": list(n_grid),
        "alpha": alpha,
        "eps": list(eps_list),
        "seeds": args.seeds,
        "master_seed": args.master_seed,
        "starts": args.starts,
        "t_cap": args.t_cap,
        "eps_primary": eps_primary,
    }, args.out)
    result = cutoff_sweep(
        g, n_grid, alpha=alpha, eps_list=eps_list, n_seeds=args.seeds,
        master_seed=args.master_seed, starts=args.starts, workers=args.workers,
        t_cap=args.t_cap, eps_primary=eps_primary,
        progress=lambda workers: _progress(
            f"sweep over n={list(n_grid)}, {args.seeds} seeds, {workers} worker(s)"),
    )
    rows = [
        (
            row.n, row.seed, row.start, _fmt_eps(row.eps),
            -1 if row.t_mix is None else row.t_mix,
            1 if row.reached else 0,
        )
        for row in result.rows
    ]
    run.write_csv("results.csv",
                  ("n", "seed", "start", "eps", "t_mix", "reached"), rows)
    summary = {
        "slope": result.slope,
        "slope_se": result.slope_se,
        "slope_ci": list(result.slope_ci),
        "predicted": result.predicted_slope,
        "entropy_rate": result.entropy_rate,
        "verdict_slope": result.verdict_slope,
        "window": {
            "ratios": {str(seed): result.window_ratios[seed]
                       for seed in sorted(result.window_ratios)},
            "nonincreasing_seeds": result.window_nonincreasing_seeds,
            "verdict": result.verdict_window,
        },
        "verdict": result.verdict,
        "n_grid": list(result.n_grid),
        "eps": list(result.eps_list),
        "eps_primary": result.eps_primary,
        "alpha": result.alpha,
        "seeds": result.n_seeds,
        "starts": args.starts,
        "t_caps": {str(n): result.t_caps[n] for n in result.n_grid},
        "ci_note": "normal-approximation interval from the OLS slope SE",
        "meta": run.meta,
    }
    run.write("summary.json", json.dumps(summary, indent=2) + "\n")
    return {
        "slope": result.slope,
        "predicted": result.predicted_slope,
        "verdict_slope": result.verdict_slope,
        "verdict_window": result.verdict_window,
        "verdict": result.verdict,
        **run.closing_keys(),
    }


# ---------------------------------------------------------------------------
# spectrum
# ---------------------------------------------------------------------------


def _cmd_spectrum(args, g):
    lift = draw_lift(g, args.n, args.seed)
    alpha = holding_probability(g, args.alpha)
    chk = spectrum_inheritance_check(lift, alpha=alpha)
    return {
        "eigenvalues": [[z.real, z.imag] for z in chk.eigenvalues],
        "max_residual": chk.max_residual,
        "inherited": chk.max_residual <= 1e-10,
        "n": args.n,
        "alpha": alpha,
        "meta": _Run("spectrum", g, {
            "n": args.n,
            "seed": args.seed,
            "alpha": alpha,
        }).meta,
    }


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser():
    parser = _Parser(
        prog="liftmix",
        description=(
            "Entropy, speed, and cutoff analysis for random walks on "
            "random lifts of a weighted multigraph."
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    p = sub.add_parser("validate", help="check a graph file and its assumptions")
    p.add_argument("--graph", required=True, help="path to a graph file")
    p.set_defaults(handler=_cmd_validate)

    p = sub.add_parser("analyze", help="entropy and speed analysis of a graph")
    p.add_argument("--graph", required=True)
    p.add_argument("--alpha", type=float, default=None,
                   help="holding probability (default: graph's own)")
    p.add_argument("--tol", type=float, default=FIRST_PASSAGE_TOL,
                   help="first-passage Newton solve: stop once a correction "
                   "is at most this (it also stops at its rounding floor)")
    p.add_argument("--max-iter", type=int, default=FIRST_PASSAGE_MAX_ITER,
                   help="first-passage Newton solve: step budget; exit 2 "
                   "when it runs out")
    p.set_defaults(handler=_cmd_analyze)

    p = sub.add_parser("cover-sim",
                       help="Monte Carlo walk on the universal cover")
    p.add_argument("--graph", required=True)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--steps", type=int, default=200_000,
                   help="steps per trajectory")
    p.add_argument("--trials", type=int, default=1)
    p.add_argument("--seed", type=int, default=0, help="master seed")
    p.add_argument("--margin", type=int, default=25,
                   help="top levels treated as unconfirmed")
    p.add_argument("--root", default=None, help="root vertex label")
    p.add_argument("--e-star", default=None,
                   help="renewal edge, e.g. e1+ (default: most frequent)")
    p.add_argument("--r-max", type=int, default=10,
                   help="largest localization radius reported")
    p.add_argument("--per-trial", action="store_true",
                   help="also write per_trial.csv")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out", default=".", help="output directory")
    p.set_defaults(handler=_cmd_cover_sim)

    p = sub.add_parser("lift", help="generate or verify an explicit n-lift")
    p.add_argument("--graph", required=True)
    p.add_argument("--n", type=int, default=None, help="lift degree")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--verify", default=None, metavar="PATH",
                   help="validate an existing lift file instead of generating")
    p.add_argument("--out", default=".", help="output directory")
    p.set_defaults(handler=_cmd_lift)

    p = sub.add_parser("mix", help="exact TV mixing curve on one lift")
    p.add_argument("--graph", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--eps", default="0.25,0.1,0.5,0.9",
                   help="comma-separated TV thresholds; first is primary")
    p.add_argument("--starts", default="all",
                   help="'all' or 'sample:k' start states")
    p.add_argument("--t-cap", type=int, default=10_000)
    p.add_argument("--out", default=".", help="output directory")
    p.set_defaults(handler=_cmd_mix)

    p = sub.add_parser("sweep",
                       help="mixing-time growth over a grid of lift degrees")
    p.add_argument("--graph", required=True)
    p.add_argument("--n", required=True,
                   help="comma-separated lift degrees, increasing")
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--eps", default="0.1,0.25,0.5,0.9")
    p.add_argument("--seeds", type=int, default=5, help="lifts per degree")
    p.add_argument("--master-seed", type=int, default=0)
    p.add_argument("--starts", default="sample:5")
    p.add_argument("--t-cap", type=int, default=None)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out", default=".", help="output directory")
    p.set_defaults(handler=_cmd_sweep)

    p = sub.add_parser("spectrum",
                       help="base-spectrum inheritance check on one lift")
    p.add_argument("--graph", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--alpha", type=float, default=None)
    p.set_defaults(handler=_cmd_spectrum)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if not hasattr(args, "handler"):
        parser.error("a subcommand is required")
    # a call can be refused anywhere, from its graph to its step cap, so a
    # refused call removes the --out levels it made, innermost first, while
    # they are empty; a directory it did not make is kept
    made = []
    path = os.path.abspath(getattr(args, "out", os.curdir))
    while not os.path.exists(path):
        made.append(path)
        path = os.path.dirname(path)
    try:
        payload = args.handler(args, parse_graph(_read_text(args.graph, "graph")))
    except BaseException as exc:
        for path in made:
            try:
                os.rmdir(path)
            except OSError:
                pass
        if isinstance(exc, NonConvergenceError):
            print(f"liftmix: non-convergence: {exc}", file=sys.stderr)
            return 2
        if isinstance(exc, (GraphError, AnalysisError, MemoryError)):
            print(f"liftmix: error: {str(exc) or 'out of memory'}", file=sys.stderr)
            return 1
        raise
    print(json.dumps(payload, separators=(",", ":")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
