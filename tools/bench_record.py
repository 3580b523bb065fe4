#!/usr/bin/env python3
"""Record the benchmark of a checkout in one ``BENCH_<PR>.json`` file.

Usage, from anywhere in the repository::

    python3 tools/bench_record.py --out BENCH_<PR>.json [--runs 3] [--against REV]

For each workload of ``perfbench/run.py``, one after another, it runs
``--workload <w> --trace 0`` ``--runs`` times and ``--trace 1`` once, each
for ``SECONDS`` at seed ``SEED``, so that one ``BENCH_<PR>.json`` compares
with the next.  Then it runs the tier-1 tests once.  The file it writes holds:

* ``base_sha``, the commit checked out, and ``uncommitted``, whether a
  tracked file differed from it, both read when recording starts, so a
  change recorded before its commit names its parent as ``base_sha`` and
  says ``uncommitted``;
* ``src_lines`` and ``machine``, read from the ``info:`` line that every
  benchmark run prints;
* per workload: the median, quartiles and IQR of ``throughput``,
  ``setup_s`` and ``peak_rss_mb`` over the untraced runs, each run's value,
  the summed ``failed`` count, and the per-layer metrics of the traced run
  as it printed them;
* ``tier1``: the wall time of the test run, its pass count and its exit
  code.

With ``--against REV`` it then extracts ``REV`` (``git archive REV | tar
-x``) into a temporary directory and, per workload, runs ``--trace 0`` on
``REV`` and on the working tree in alternating pairs, one pair per seed of
``PAIR_SEEDS``, ``REV`` first in odd pairs, each run for ``SECONDS``.  That
adds 20 runs per workload, 80 in all: about 25 minutes of wall time at
about 19 s a run.  The ``against`` section holds ``REV``'s SHA,
``harness_changed``, whether ``perfbench/`` or ``BENCHMARK.json`` differ
between the two trees (then the pairs do not run the same benchmark), and,
per workload and end-to-end metric, the median and quartiles of each side,
the ratio of the working tree's median to ``REV``'s, the pairs the working
tree won (ties count for neither side) and ``gain``, whether the claim rule
holds: the working tree won at least nine tenths of the pairs, and its
median is better than ``REV``'s by more than ``REV``'s IQR.  Each workload
also has each side's summed ``failed`` count.

Only the standard library is used.  A failing benchmark run stops the
script with its exit status and writes nothing.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("cover-mc", "mix-many-starts", "sweep-large-n", "analyze-batch")
#: End-to-end metrics and the direction that is better, as BENCHMARK.json
#: declares them.
END_TO_END = {"throughput": "higher", "setup_s": "lower", "peak_rss_mb": "lower"}
SECONDS = 15
SEED = 0
#: The seed of each alternating pair of runs under ``--against``.
PAIR_SEEDS = tuple(range(10))


def bench(workload, trace, root=ROOT, seed=SEED):
    """``(result, info)``: the last JSON line and the ``info:`` line of one
    ``perfbench/run.py`` run of the checkout at ``root``."""
    proc = subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", str(SECONDS),
         "--trace", str(trace)],
        cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"perfbench {workload} --trace {trace} in {root} exited "
                         f"with {proc.returncode}")
    lines = proc.stdout.splitlines()
    info = next(json.loads(line[len("info: "):]) for line in lines
                if line.startswith("info: "))
    return json.loads(lines[-1]), info


def git(*args):
    """Standard output of one ``git`` command run in the repository."""
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                          check=True).stdout


def spread(values):
    """Median, quartiles and IQR of ``values``, with the values themselves."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1, "runs": values}


def paired(rev_values, tree_values, better):
    """One metric's pairs, ``REV``'s and the working tree's runs in pair
    order, where ``better`` is ``"higher"`` or ``"lower"``: each side's
    spread, the ratio of the medians, the pairs won and the claim rule."""
    sign = 1 if better == "higher" else -1
    rev, tree = spread(rev_values), spread(tree_values)
    won = sum(sign * (t - r) > 0 for r, t in zip(rev_values, tree_values))
    return {"rev": rev, "tree": tree, "ratio": tree["median"] / rev["median"],
            "pairs_won": won,
            "gain": (10 * won >= 9 * len(rev_values)
                     and sign * (tree["median"] - rev["median"]) > rev["iqr"])}


def against(sha):
    """The ``against`` section: alternating pairs of untraced runs per
    workload of commit ``sha`` and of the working tree."""
    harness = subprocess.run(["git", "diff", "--quiet", sha, "--", "perfbench",
                              "BENCHMARK.json"], cwd=ROOT).returncode
    if harness not in (0, 1):
        raise SystemExit(f"git diff against {sha} exited with {harness}")
    section = {"rev": sha, "pair_seeds": list(PAIR_SEEDS),
               "harness_changed": harness == 1, "workloads": {}}
    with tempfile.TemporaryDirectory(prefix="bench-against-") as tree:
        archive = subprocess.Popen(["git", "archive", sha], cwd=ROOT,
                                   stdout=subprocess.PIPE)
        subprocess.run(["tar", "-x", "-C", tree], stdin=archive.stdout, check=True)
        archive.stdout.close()
        if archive.wait() != 0:
            raise SystemExit(f"git archive {sha} exited with {archive.returncode}")
        for workload in WORKLOADS:
            runs = {"rev": [], "tree": []}
            for pair, seed in enumerate(PAIR_SEEDS, 1):
                sides = (("rev", tree), ("tree", ROOT))
                for side, root in sides if pair % 2 else sides[::-1]:
                    runs[side].append(bench(workload, 0, root, seed)[0])
            entry = {"failed": {side: sum(r["failed"] for r in results)
                                for side, results in runs.items()}}
            for name, better in END_TO_END.items():
                rev_values, tree_values = ([r["metrics"][name]["value"] for r in runs[side]]
                                           for side in ("rev", "tree"))
                entry[name] = paired(rev_values, tree_values, better)
            section["workloads"][workload] = entry
            print(f"{workload} against {sha[:7]}: throughput ratio "
                  f"{entry['throughput']['ratio']:.4f}, won "
                  f"{entry['throughput']['pairs_won']}/{len(PAIR_SEEDS)}, gain "
                  f"{entry['throughput']['gain']}", flush=True)
    return section


def tier1():
    """Wall time, pass count and exit code of one tier-1 test run."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p)
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
         "-p", "no:cacheprovider"],
        cwd=ROOT, env=env, capture_output=True, text=True)
    wall = time.monotonic() - t0
    passed = re.search(r"(\d+) passed", proc.stdout)
    return {"wall_s": round(wall, 2), "passed": int(passed.group(1)) if passed else 0,
            "exit_code": proc.returncode}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, help="the BENCH_<PR>.json to write")
    parser.add_argument("--runs", type=int, default=3,
                        help="untraced runs per workload (at least 2)")
    parser.add_argument("--against", metavar="REV",
                        help="also run alternating pairs against this revision")
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2")
    if args.against is not None:
        try:
            sha = git("rev-parse", "--verify", "--quiet", f"{args.against}^{{commit}}")
        except subprocess.CalledProcessError:
            parser.error(f"--against: {args.against!r} names no commit")

    record = {"config": {"runs": args.runs, "seconds": SECONDS, "seed": SEED},
              "base_sha": git("rev-parse", "HEAD").strip(),
              "uncommitted": bool(git("status", "--porcelain", "--untracked-files=no")),
              "workloads": {}}
    for workload in WORKLOADS:
        results = []
        for _ in range(args.runs):
            result, info = bench(workload, 0)
            results.append(result)
        traced, _ = bench(workload, 1)
        entry = {name: spread([r["metrics"][name]["value"] for r in results])
                 for name in END_TO_END}
        entry["throughput"]["unit"] = results[0]["metrics"]["throughput"]["unit"]
        entry["failed"] = sum(r["failed"] for r in results)
        entry["traced"] = {name: m["value"] for name, m in traced["metrics"].items()}
        entry["traced_failed"] = traced["failed"]
        record["workloads"][workload] = entry
        print(f"{workload}: throughput median {entry['throughput']['median']:.6g} "
              f"(IQR {entry['throughput']['iqr']:.3g}), failed {entry['failed']}",
              flush=True)
    record["src_lines"] = info["src_lines"]
    record["machine"] = {key: info[key] for key in
                         ("nproc", "cpu_model", "l2_bytes", "l3_bytes", "versions")}
    record["tier1"] = tier1()
    print(f"tier-1: {record['tier1']['passed']} passed in {record['tier1']['wall_s']} s")
    if args.against is not None:
        record["against"] = against(sha.strip())
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
