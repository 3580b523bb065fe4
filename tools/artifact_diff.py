#!/usr/bin/env python3
"""Compare what the CLI writes at a git revision with what the working tree writes.

Usage (from anywhere in the repository)::

    python3 tools/artifact_diff.py [--rev HEAD]

Exports ``src/`` of ``--rev`` with ``git archive`` and runs one fixed list
of CLI calls on that tree and on the working tree's ``src/``:

* the four benchmark command lines (``cover-sim``, ``mix --starts all``,
  ``sweep`` and ``analyze`` on the seed-0 analyze batch with its
  known-defect probe), at seed 0, and the ``lift`` call that the
  mix-many-starts check makes to rebuild the lift of its ``mix`` line;
* ``cover-sim`` with 250,000 steps, as long as the benchmark's walks, on
  the demo bouquet4 at ``--alpha 0`` (one vertex, so the label stack grows
  deepest) and on the demo pendant from ``--root p`` at its own holding
  probability, where the next base vertex depends on the label drawn;
* ``mix --alpha 0`` on theta3 with ``n = 8`` (a periodic lift, so it also
  writes ``curve_averaged.csv``), and ``sweep --alpha 0`` on theta3, whose
  rows are the crossings of the averaged curves;
* ``mix --t-cap 2`` on theta3 with ``n = 8``, where no start reaches its
  primary threshold, so the unreached worst start and the ``null``
  crossings of ``per_start`` are compared;
* ``mix --starts all --alpha 0`` on a lift of the biased cycle with three
  components, some aperiodic and some of period 2, so one block of starts
  holds periodic and aperiodic curves that stop at different steps; the
  same at ``n = 4096`` with four sampled starts, whose strong components
  are cycles of hundreds to thousands of states; and a small-``n`` ``sweep
  --starts sample:8`` on theta3, whose sampled starts share a block and
  stop at different steps;
* ``mix --starts all`` on the demo bouquet4 at ``n = 135`` (135 states),
  on the demo theta3 at ``n = 1000`` (2,000 states, in blocks of 32
  starts) and on the demo bouquet4 at ``n = 1001`` (1,001 states), whose
  TVs are summed over odd counts of states and counts that are not powers
  of 2, in the one order of every block width;
* ``sweep --starts all`` on theta3 at ``n = 8, 16, 32``, whose cell (16, 1)
  is a disconnected lift: two of its starts never get within TV 0.25, so
  the sweep fails with the step-cap error and writes no artifact;
* ``validate``, ``analyze``, ``spectrum``, ``lift`` and ``mix`` on every
  demo graph, and ``validate`` on the analyze batch;
* ``cover-sim`` on every demo graph at its own holding probability and at
  0, with ``--per-trial``, with step counts of exactly two of the walk's
  4096-draw blocks and of one step past three, and with an explicit
  ``--e-star``; and
  ``cover-sim`` from the pendant vertex ``p``, off the pruned core;
* ``cover-sim`` on theta3 at ``--alpha 0 --margin 0 --r-max 40``, whose
  localization tail is read out to radius 40 on rays confirmed up to the
  walk's final height, and on bouquet4 at ``--alpha 0.9`` with 6000 steps, whose confirmed rays
  are a few hundred levels long;
* ``cover-sim``, ``mix``, ``sweep`` and ``spectrum`` on theta3 with
  ``--alpha 1.5``, which each must refuse with the same error line and no
  artifact, and ``mix`` and ``sweep`` with both ``--alpha 1.5`` and
  ``--eps 1.5``, whose error line shows which check comes first;
* ``mix``, ``cover-sim``, ``lift`` and ``spectrum`` with ``--seed -1``,
  ``sweep --master-seed -1``, ``mix --n -3`` and ``lift --n -3``, and
  ``validate`` and ``analyze`` on a graph file with a weight of ``1e400``
  and on one holding the bytes ``00 ff fe``, which each must be refused
  with the same error line and no artifact;
* ``lift --verify`` on theta3 with a lift file holding the bytes ``00 ff
  fe``, 200,000 ``[`` characters, an integer of 5,000 digits, or a lift
  JSON cut short, and ``cover-sim --workers 2`` with 100 steps, refused in
  a pool process, which each must end in one error line and no artifact;
* ``spectrum --alpha 0`` on theta3, whose base chain has eigenvalue -1, and
  ``spectrum --n 1`` on theta3 and on the biased cycle, whose 1-lift is the
  base itself;
* ``cover-sim --steps``, ``mix --n``, ``lift --n`` and ``spectrum --n`` at
  2**61 on theta3, and ``cover-sim --steps 3000 --margin 0 --r-max`` 2**61,
  sizes no array can hold, which each must end in one error line and no
  artifact;
* ``validate``, ``analyze``, ``cover-sim --per-trial`` with 30,000 steps
  (at its own holding probability 0 and at 1/2), ``mix --n 16`` and
  ``spectrum --n 8`` on the one-way graph of ``tests/conftest.py``, whose
  orientations e0+, e1+ and e5+ carry weight zero and so are no move of
  the walk;
* ``validate`` and ``analyze`` on 100 graphs of the kinds the analyze batch
  leaves out or rarely draws: reducible ones, recurrent ones, ones whose
  core is a single cycle, one-way ones (an orientation of the core lies on
  no non-backtracking cycle), and trees.  Their witness cycles and error lines
  depend on the order in which strong components are found.

The working tree's ``mix`` and ``sweep`` calls run a second time in a child
pinned to one CPU (``os.sched_setaffinity`` in that child only, where the
platform has it), and are compared with the working tree's own calls, so
that the curves stepped in the blocks sized for one CPU are checked against
those stepped in the blocks sized for every CPU, whatever ``--rev`` writes.

For each call it compares the exit code, the type and message of an
exception that ``main`` did not catch, standard output, the error lines
(``liftmix: ...`` on standard error), every artifact file byte for byte, and
``manifest.json`` without its ``timing`` key.  Each difference is printed;
the exit status is 1 if there is any, else 0.  When two JSON payloads on
standard output, or two JSON or CSV artifacts, differ only in numbers, the
line also gives their largest relative difference and where it is.

Only the standard library is used here.  The calls of each tree run in one
child process with that tree's ``src`` first on ``PYTHONPATH`` and the
artifact directories given relative to the child's working directory, so
the paths printed in payloads are the same for both trees.
"""

from __future__ import annotations

import argparse
import filecmp
import json
import os
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMO_GRAPHS = os.path.join(ROOT, "demos", "graphs")
BENCH_GRAPHS = os.path.join(ROOT, "perfbench", "graphs")
OUT = "{out}"  # replaced by each call's own artifact directory

#: Graph files that are refused: a weight past the largest double, and bytes
#: that are not UTF-8.
BAD_GRAPHS = {
    "huge-weight": b"vertex a\nedge e a a 1e400 1/2\n",
    "not-utf8": b"\x00\xff\xfe",
}

#: The one-way graph of ``tests/conftest.py``: orientations e0+, e1+ and e5+
#: carry weight zero, so they are no move of the walk.
ONE_WAY_GRAPH = b"""\
# one-way edges: e0+, e1+ and e5+ carry weight zero, so the walk enters v2
# only along e3-
alpha 0
vertex v0
vertex v1
vertex v2
edge e0 v0 v2 0/9 1/2
edge e1 v1 v1 0/10 3/10
edge e2 v1 v0 2/10 4/9
edge e3 v2 v0 1/2 2/9
edge e4 v0 v1 3/9 1/10
edge e5 v1 v1 0/10 4/10
"""

#: Lift files that ``lift --verify`` refuses: bytes that are not UTF-8,
#: arrays nested past the recursion limit, an integer past the digit limit,
#: and a lift JSON cut short.
BAD_LIFTS = {
    "not-utf8": b"\x00\xff\xfe",
    "deeply-nested": b"[" * 200_000,
    "long-integer": b'{"n": ' + b"1" * 5000 + b"}",
    "truncated": b'{"base_hash": "0", "n": 2, "permutations": {"e1": [2, 1',
}

#: Runs in a child: reads ``[argv, ...]`` as JSON on stdin, calls the CLI
#: once per entry with artifacts under ``out/<index>`` (``null`` entries are
#: skipped and give ``null``), prints the results.  An exception that
#: ``main`` does not catch is that call's ``raised`` result, so it shows as a
#: difference on that call alone.
CHILD = r"""
import io, json, sys
from contextlib import redirect_stderr, redirect_stdout
from liftmix.cli import main

results = []
for i, argv in enumerate(json.load(sys.stdin)):
    if argv is None:  # a call this child skips
        results.append(None)
        continue
    argv = [f"out/{i}" if a == "{out}" else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    rc = raised = None
    with redirect_stdout(out), redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:
            raised = f"{type(exc).__name__}: {exc}"
    errors = [l for l in err.getvalue().splitlines() if l.startswith("liftmix")]
    results.append({"rc": rc, "raised": raised, "stdout": out.getvalue(),
                    "errors": errors})
json.dump(results, sys.stdout)
"""

#: Runs in a child with the working tree on the path: writes the seed-0
#: analyze batch with the known-defect probe, and the rejected graphs; prints
#: the two lists of paths.
BATCH = r"""
import json, random, sys
import numpy as np
from perfbench import inputs
from liftmix.base_graph import parse_graph
from liftmix.errors import GraphError

QUOTA = {"reducible": 25, "recurrent": 20, "line": 20, "one-way": 15, "tree": 20}

def kind(text):
    # the kind of a graph the batch generator drew, or "accepted";
    # "one-way" is any graph whose core has an orientation on no
    # non-backtracking cycle, whatever its analysis says
    g = parse_graph(text)
    if not g.assumptions.a1_irreducible:
        return "reducible"
    try:
        if not g.core.graph.assumptions.a4_every_edge_on_cycle:
            return "one-way"
    except GraphError:  # a tree has no core
        pass
    if not g.transience.transient:
        return "recurrent"
    return "line" if inputs.core_cycle_rank(text) == 1 else "accepted"

def tree_text(rnd):
    # a random tree on 2 to 6 vertices, every orientation positive
    nv = rnd.randint(2, 6)
    ends = [(rnd.randrange(i), i) for i in range(1, nv)]
    raw = [(rnd.randint(1, 4), rnd.randint(1, 4)) for _ in ends]
    total = [0] * nv
    for (a, b), (wf, wb) in zip(ends, raw):
        total[a] += wf
        total[b] += wb
    lines = [f"alpha {rnd.choice(inputs.ALPHAS)}"] + [f"vertex v{i}" for i in range(nv)]
    lines += [f"edge e{j} v{a} v{b} {wf}/{total[a]} {wb}/{total[b]}"
              for j, ((a, b), (wf, wb)) in enumerate(zip(ends, raw))]
    return "\n".join(lines) + "\n"

rejected = {k: [] for k in QUOTA}
rng = np.random.default_rng([0, 1])
while any(len(rejected[k]) < QUOTA[k] for k in QUOTA if k != "tree"):
    text = inputs.random_graph_text(rng)
    k = None if text is None else kind(text)
    if k in rejected and len(rejected[k]) < QUOTA[k]:
        rejected[k].append((f"{k}-{len(rejected[k]):02d}", text))
rnd = random.Random(0)
rejected["tree"] = [(f"tree-{i:02d}", tree_text(rnd)) for i in range(QUOTA["tree"])]
items = inputs.batch_texts(0, 0, sys.argv[2]) + inputs.defect_texts()
json.dump([inputs.write_batch(items, sys.argv[1]),
           inputs.write_batch([it for k in QUOTA for it in rejected[k]],
                              sys.argv[1] + "-rejected")], sys.stdout)
"""


def _graph(directory, name):
    return os.path.join(directory, f"{name}.g")


def calls(batch, rejected, bad_lifts, one_way):
    """The fixed list of CLI argument vectors, given the paths of the batch
    graphs, of the rejected graphs, of the refused lift files and of the
    one-way graph."""
    theta3, bouquet4 = _graph(BENCH_GRAPHS, "theta3"), _graph(BENCH_GRAPHS, "bouquet4")
    out = ["--out", OUT]
    argvs = [
        ["cover-sim", "--graph", theta3, "--alpha", "0.5", "--trials", "4",
         "--steps", "250000", "--per-trial", "--seed", "0", "--workers", "1", *out],
        ["cover-sim", "--graph", _graph(DEMO_GRAPHS, "bouquet4"), "--alpha", "0",
         "--trials", "2", "--steps", "250000", "--per-trial", "--seed", "0", *out],
        ["cover-sim", "--graph", _graph(DEMO_GRAPHS, "pendant"), "--root", "p",
         "--trials", "2", "--steps", "250000", "--per-trial", "--seed", "0", *out],
        ["mix", "--graph", bouquet4, "--n", "1024", "--starts", "all", "--seed", "0",
         *out],
        ["lift", "--graph", bouquet4, "--n", "1024", "--seed", "0", *out],
        ["sweep", "--graph", theta3, "--alpha", "0.5", "--n", "8192,32768,131072",
         "--seeds", "2", "--starts", "sample:2", "--master-seed", "0",
         "--workers", "1", *out],
        ["mix", "--graph", _graph(DEMO_GRAPHS, "theta3"), "--n", "8", "--alpha", "0",
         *out],
        ["mix", "--graph", _graph(DEMO_GRAPHS, "theta3"), "--n", "8", "--t-cap", "2",
         *out],
        ["sweep", "--graph", _graph(DEMO_GRAPHS, "theta3"), "--alpha", "0",
         "--n", "64,256,1024", "--seeds", "2", "--starts", "sample:2",
         "--master-seed", "0", "--workers", "1", *out],
        ["mix", "--graph", _graph(DEMO_GRAPHS, "biased_cycle"), "--n", "4",
         "--alpha", "0", "--starts", "all", "--seed", "0", "--eps", "0.75,0.5,0.9",
         "--t-cap", "300", *out],
        ["mix", "--graph", _graph(DEMO_GRAPHS, "biased_cycle"), "--n", "4096",
         "--alpha", "0", "--starts", "sample:4", "--seed", "0", "--t-cap", "300",
         "--eps", "0.75,0.5", *out],
        ["sweep", "--graph", _graph(DEMO_GRAPHS, "theta3"), "--n", "16,32,64",
         "--seeds", "2", "--starts", "sample:8", "--master-seed", "0",
         "--workers", "1", *out],
        ["mix", "--graph", _graph(DEMO_GRAPHS, "bouquet4"), "--n", "135", "--starts", "all",
         "--seed", "0", *out],
        ["mix", "--graph", _graph(DEMO_GRAPHS, "theta3"), "--n", "1000", "--starts", "all",
         "--seed", "0", *out],
        ["mix", "--graph", _graph(DEMO_GRAPHS, "bouquet4"), "--n", "1001", "--starts", "all",
         "--seed", "0", *out],
        ["sweep", "--graph", theta3, "--alpha", "0.5", "--n", "8,16,32", "--seeds", "2",
         "--starts", "all", *out],
    ]
    for fname in sorted(os.listdir(DEMO_GRAPHS)):
        g = os.path.join(DEMO_GRAPHS, fname)
        argvs += [
            ["validate", "--graph", g],
            ["analyze", "--graph", g],
            ["spectrum", "--graph", g, "--n", "8"],
            ["lift", "--graph", g, "--n", "8", *out],
            ["mix", "--graph", g, "--n", "8", *out],
        ]
        cover = ["cover-sim", "--graph", g, "--trials", "2", "--seed", "1"]
        argvs += [
            [*cover, "--steps", "30000", "--per-trial", *out],
            [*cover, "--steps", "30000", "--alpha", "0", "--per-trial", *out],
            [*cover, "--steps", str(2 * 4096), *out],
            [*cover, "--steps", str(3 * 4096 + 1), *out],
            [*cover, "--steps", "30000", "--e-star", f"{_first_edge(g)}+",
             "--per-trial", *out],
        ]
    argvs.append(["cover-sim", "--graph", _graph(DEMO_GRAPHS, "pendant"), "--root", "p",
                  "--steps", "30000", "--trials", "2", "--seed", "1", "--per-trial",
                  *out])
    cover = ["cover-sim", "--trials", "2", "--seed", "1", "--per-trial"]
    argvs += [
        [*cover, "--graph", _graph(DEMO_GRAPHS, "theta3"), "--alpha", "0",
         "--r-max", "40", "--margin", "0", *out],
        [*cover, "--graph", _graph(DEMO_GRAPHS, "bouquet4"), "--alpha", "0.9",
         "--steps", "6000", *out],
    ]
    bad = ["--graph", _graph(DEMO_GRAPHS, "theta3"), "--alpha", "1.5"]
    argvs += [
        ["cover-sim", *bad, *out],
        ["mix", *bad, "--n", "8", *out],
        ["sweep", *bad, "--n", "8,16", "--seeds", "1", *out],
        ["spectrum", *bad, "--n", "8"],
        ["mix", *bad, "--n", "8", "--eps", "1.5", *out],
        ["sweep", *bad, "--n", "8,16", "--eps", "1.5", *out],
    ]
    theta3 = ["--graph", _graph(DEMO_GRAPHS, "theta3")]
    argvs += [
        ["mix", *theta3, "--n", "8", "--seed", "-1", *out],
        ["cover-sim", *theta3, "--steps", "1000", "--seed", "-1", *out],
        ["lift", *theta3, "--n", "8", "--seed", "-1", *out],
        ["spectrum", *theta3, "--n", "8", "--seed", "-1"],
        ["sweep", *theta3, "--n", "8,16", "--seeds", "1", "--master-seed", "-1", *out],
        ["mix", *theta3, "--n", "-3", *out],
        ["lift", *theta3, "--n", "-3", *out],
        ["cover-sim", *theta3, "--steps", "100", "--trials", "2", "--workers", "2",
         *out],
        ["spectrum", *theta3, "--n", "8", "--alpha", "0"],
        ["spectrum", *theta3, "--n", "1"],
        ["spectrum", "--graph", _graph(DEMO_GRAPHS, "biased_cycle"), "--n", "1"],
    ]
    huge = str(2**61)
    argvs += [
        ["cover-sim", *theta3, "--steps", huge, *out],
        ["mix", *theta3, "--n", huge, *out],
        ["lift", *theta3, "--n", huge, *out],
        ["spectrum", *theta3, "--n", huge],
        ["cover-sim", *theta3, "--steps", "3000", "--margin", "0", "--r-max", huge,
         *out],
    ]
    argvs += [["lift", *theta3, "--verify", path] for path in bad_lifts]
    graph = ["--graph", one_way]
    cover = ["cover-sim", *graph, "--steps", "30000", "--trials", "2", "--seed", "1",
             "--per-trial"]
    argvs += [
        ["validate", *graph],
        ["analyze", *graph],
        [*cover, *out],
        [*cover, "--alpha", "0.5", *out],
        ["mix", *graph, "--n", "16", *out],
        ["spectrum", *graph, "--n", "8"],
    ]
    for g in batch + rejected:
        argvs += [["analyze", "--graph", g], ["validate", "--graph", g]]
    return argvs


def _first_edge(path):
    """Id of the first edge declared in a graph file."""
    with open(path, encoding="utf-8") as fh:
        return next(line.split()[1] for line in fh if line.startswith("edge "))


def _run(args, cwd, src, stdin="", cpus=None):
    """The JSON a child prints; ``cpus``, when given, is the child's CPU
    affinity."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(src))
    pin = None if cpus is None else lambda: os.sched_setaffinity(0, cpus)
    proc = subprocess.run([sys.executable, "-c", *args], cwd=cwd, env=env,
                          input=stdin, capture_output=True, text=True,
                          preexec_fn=pin)
    if proc.returncode != 0:
        sys.exit(f"child in {cwd} failed:\n{proc.stderr}")
    return json.loads(proc.stdout)


def export_src(rev, dest):
    """Unpack ``src/`` of ``rev`` into ``dest`` and return ``dest/src``."""
    archive = os.path.join(dest, "src.tar")
    subprocess.run(["git", "-C", ROOT, "archive", "--format=tar", "-o", archive,
                    rev, "src"], check=True)
    with tarfile.open(archive) as tar:
        tar.extractall(dest)
    return os.path.join(dest, "src")


def _manifest(path):
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    data.pop("timing", None)
    return data


def _is_number(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def numeric_diff(a, b, path="$"):
    """``(largest relative difference, path)`` of two JSON-like values that
    differ at most in numbers, or None when they differ in anything else."""
    if a == b or (a != a and b != b):  # equal, or both NaN
        return 0.0, path
    if _is_number(a) and _is_number(b):
        return abs(a - b) / max(abs(a), abs(b)), path
    if isinstance(a, dict) and isinstance(b, dict) and a.keys() == b.keys():
        pairs = [(a[k], b[k], f"{path}.{k}") for k in a]
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        pairs = [(x, y, f"{path}[{j}]") for j, (x, y) in enumerate(zip(a, b))]
    else:
        return None
    worst = (0.0, path)
    for x, y, where in pairs:
        found = numeric_diff(x, y, where)
        if found is None:
            return None
        worst = max(worst, found, key=lambda pair: pair[0])
    return worst


def _values(text, csv):
    """A JSON document, or CSV rows with numeric cells read as floats."""
    if not csv:
        return json.loads(text)
    rows = []
    for line in text.splitlines():
        cells = []
        for cell in line.split(","):
            try:
                cells.append(float(cell))
            except ValueError:
                cells.append(cell)
        rows.append(cells)
    return rows


def _numbers_only(a, b, csv=False):
    """A note with the largest relative difference when two JSON or CSV
    texts differ only in numbers, else an empty string."""
    try:
        found = numeric_diff(_values(a, csv), _values(b, csv))
    except ValueError:
        return ""
    if found is None:
        return ""
    return f" (numbers only: by at most {found[0]:.3g} relative, at {found[1]})"


def compare(i, argv, old, new, old_dir, new_dir):
    """Differences of one call, as printable lines."""
    where = f"call {i} ({' '.join(a for a in argv if a not in ('--out', OUT))})"
    diffs = [f"{where}: {key} differs" for key in ("rc", "raised", "errors")
             if old[key] != new[key]]
    if old["stdout"] != new["stdout"]:
        diffs.append(f"{where}: stdout differs"
                     + _numbers_only(old["stdout"], new["stdout"]))
    a, b = os.path.join(old_dir, "out", str(i)), os.path.join(new_dir, "out", str(i))
    names_a = sorted(os.listdir(a)) if os.path.isdir(a) else []
    names_b = sorted(os.listdir(b)) if os.path.isdir(b) else []
    if names_a != names_b:
        diffs.append(f"{where}: artifacts {names_a} != {names_b}")
    for name in sorted(set(names_a) & set(names_b)):
        pa, pb = os.path.join(a, name), os.path.join(b, name)
        if name == "manifest.json":
            ma, mb = _manifest(pa), _manifest(pb)
            if ma != mb:
                diffs.append(f"{where}: {name} differs"
                             + _numbers_only(json.dumps(ma), json.dumps(mb)))
        elif not filecmp.cmp(pa, pb, shallow=False):
            suffix = ""
            if name.endswith((".json", ".csv")):
                with open(pa, encoding="utf-8") as fa, open(pb, encoding="utf-8") as fb:
                    suffix = _numbers_only(fa.read(), fb.read(), name.endswith(".csv"))
            diffs.append(f"{where}: {name} differs{suffix}")
    return diffs


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rev", default="HEAD",
                        help="revision whose src/ is compared (default HEAD)")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as work:
        old_dir, new_dir = os.path.join(work, "rev"), os.path.join(work, "tree")
        one_dir = os.path.join(work, "tree-1cpu")
        for d in (old_dir, new_dir, one_dir):
            os.makedirs(d, exist_ok=True)
        old_src = export_src(args.rev, old_dir)
        new_src = os.path.join(ROOT, "src")
        batch, rejected = _run([BATCH, os.path.join(work, "batch"), BENCH_GRAPHS],
                               work, [ROOT, new_src])
        bad_graphs, bad_lifts, one_way = [], [], []
        for files, contents, suffix in ((bad_graphs, BAD_GRAPHS, ".g"),
                                        (bad_lifts, BAD_LIFTS, ".lift"),
                                        (one_way, {"one-way": ONE_WAY_GRAPH}, ".g")):
            for name, data in contents.items():
                files.append(os.path.join(work, name + suffix))
                with open(files[-1], "wb") as fh:
                    fh.write(data)
        argvs = calls(batch, rejected + bad_graphs, bad_lifts, *one_way)
        stdin = json.dumps(argvs)
        print(f"running {len(argvs)} CLI calls at {args.rev} ...", file=sys.stderr)
        old = _run([CHILD], old_dir, [old_src], stdin)
        print("running them on the working tree ...", file=sys.stderr)
        new = _run([CHILD], new_dir, [new_src], stdin)
        diffs = [d for i, argv in enumerate(argvs)
                 for d in compare(i, argv, old[i], new[i], old_dir, new_dir)]
        picked = []
        if hasattr(os, "sched_setaffinity"):
            picked = [a if a[0] in ("mix", "sweep") else None for a in argvs]
            print("running its mix and sweep calls on one CPU ...", file=sys.stderr)
            one = _run([CHILD], one_dir, [new_src], json.dumps(picked),
                       cpus={min(os.sched_getaffinity(0))})
            diffs += [f"one CPU: {d}" for i, argv in enumerate(picked) if argv
                      for d in compare(i, argv, new[i], one[i], new_dir, one_dir)]
    for line in diffs:
        print(line)
    print(f"{len(diffs)} difference(s): {len(argvs)} calls against {args.rev}, "
          f"{sum(map(bool, picked))} of them also on one CPU against the working tree")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
