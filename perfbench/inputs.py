"""Seeded inputs of the analyze-batch workload.

One batch is the four demo graphs, a ladder of near-critical bouquets and
``RANDOM_PER_BATCH`` random multigraphs on 1 to 4 vertices with loops and
zero-weight orientations.  Random graphs are kept when ``is_cover_transient``
accepts them and their core (what is left after pendant trees are pruned)
has at least two independent cycles, so that the cover is a branching tree.

A near-critical bouquet has one vertex, a balanced loop and a second loop
of weight ``eps`` each way: its cover walk is transient only through the
rare branching, and the first-passage solve slows as ``eps`` tends to zero.

Graphs whose core is a single cycle have a line for a cover, and the
analysis fails on some of them today with ``AnalysisError: ray chain has 2
closed classes``: the near-balanced 3-cycles of ``DEFECT_LADDER`` (which
should come out degenerate) and, about once in 20000 random graphs, one like
``PENDANT_TRIANGLE``.  They are kept out of the timed batch, so that every
timed call succeeds, and run once per run as a separate probe whose failures
are printed and counted apart (``analyzer.known_defect_failures``).

The demo graphs are read from copies in ``perfbench/graphs``, so the
benchmark's inputs do not change when ``demos/`` does.
"""

from __future__ import annotations

import os

import numpy as np

RANDOM_PER_BATCH = 300
#: Branching loop weights of the near-critical bouquets.
LADDER = ("1/10000", "1/100000", "1/1000000", "1/10000000")
#: Forward weights of the near-balanced 3-cycles of the known-defect probe.
DEFECT_LADDER = ("0.51", "0.501", "0.5001")
#: A random graph of the generator (seed 118, batch 1) that fails the same way.
PENDANT_TRIANGLE = """alpha 0
vertex v0
vertex v1
vertex v2
vertex v3
edge e0 v2 v0 3/9 2/5
edge e1 v2 v1 4/9 2/4
edge e2 v2 v3 2/9 3/3
edge e3 v1 v0 2/4 3/5
"""
ALPHAS = ("0", "1/4", "1/2")


def cycle_text(forward):
    """A 3-cycle whose edges carry the decimal ``forward`` one way, the rest back."""
    digits = len(forward.split(".")[1])
    back = f"{1 - float(forward):.{digits}f}"
    lines = ["alpha 0", "vertex a", "vertex b", "vertex c"]
    for eid, tail, head in (("ab", "a", "b"), ("bc", "b", "c"), ("ca", "c", "a")):
        lines.append(f"edge {eid} {tail} {head} {forward} {back}")
    return "\n".join(lines) + "\n"


def bouquet_text(eps):
    """One vertex: loop ``a`` balanced, loop ``b`` of weight ``eps`` (a fraction) each way."""
    num, den = (int(x) for x in eps.split("/"))
    half = den - 2 * num  # loop a carries (1 - 2 eps) / 2 each way
    return ("alpha 0\nvertex v\n"
            f"edge a v v {half}/{2 * den} {half}/{2 * den}\n"
            f"edge b v v {eps} {eps}\n")


def random_graph_text(rng):
    """One random graph in the liftmix text format, weights as exact fractions."""
    nv = int(rng.integers(1, 5))
    ne = int(rng.integers(nv, nv + 4))
    ends = [(int(rng.integers(nv)), int(rng.integers(nv))) for _ in range(ne)]
    raw = []
    for _ in ends:
        # Each orientation is zero with probability 1/4, never both at once.
        while True:
            wf, wb = (int(x) if rng.random() >= 0.25 else 0
                      for x in rng.integers(1, 5, size=2))
            if wf or wb:
                break
        raw.append((wf, wb))
    out_total = [0] * nv
    for (tail, head), (wf, wb) in zip(ends, raw):
        out_total[tail] += wf
        out_total[head] += wb
    if not all(out_total):
        return None
    lines = [f"alpha {ALPHAS[int(rng.integers(len(ALPHAS)))]}"]
    lines += [f"vertex v{i}" for i in range(nv)]
    for j, ((tail, head), (wf, wb)) in enumerate(zip(ends, raw)):
        lines.append(f"edge e{j} v{tail} v{head} "
                     f"{wf}/{out_total[tail]} {wb}/{out_total[head]}")
    return "\n".join(lines) + "\n"


def _accepted(text):
    from liftmix.base_graph import is_cover_transient, parse_graph
    from liftmix.errors import AnalysisError, GraphError

    try:
        return is_cover_transient(parse_graph(text)).transient
    except (AnalysisError, GraphError):
        return False


def batch_texts(seed, batch, demo_dir):
    """``[(name, text)]`` of one batch; the same arguments give the same list."""
    items = []
    for fname in sorted(os.listdir(demo_dir)):
        if fname.endswith(".g"):
            with open(os.path.join(demo_dir, fname), encoding="utf-8") as fh:
                items.append((f"demo-{fname[:-2]}", fh.read()))
    items += [(f"bouquet-{e.replace('/', '_')}", bouquet_text(e)) for e in LADDER]
    rng = np.random.default_rng([int(seed), int(batch)])
    kept = 0
    while kept < RANDOM_PER_BATCH:
        text = random_graph_text(rng)
        if text is not None and core_cycle_rank(text) >= 2 and _accepted(text):
            items.append((f"random-{batch}-{kept:03d}", text))
            kept += 1
    return items


def defect_texts():
    """``[(name, text)]`` of the known-defect probe."""
    return ([(f"cycle-{w}", cycle_text(w)) for w in DEFECT_LADDER]
            + [("pendant-triangle", PENDANT_TRIANGLE)])


def write_batch(items, directory):
    """Write each graph to ``<directory>/<name>.g`` and return the paths."""
    os.makedirs(directory, exist_ok=True)
    paths = []
    for name, text in items:
        path = os.path.join(directory, f"{name}.g")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        paths.append(path)
    return paths


def _vertices_and_edges(text):
    verts, edges = [], []
    for line in text.splitlines():
        tokens = line.split()
        if tokens and tokens[0] == "vertex":
            verts.append(tokens[1])
        elif tokens and tokens[0] == "edge":
            edges.append((tokens[2], tokens[3]))
    return verts, edges


def core_cycle_rank(text):
    """Independent cycles of the graph once vertices of degree one are pruned
    repeatedly (a loop adds two to its vertex's degree); read from the text
    alone, independently of the program under test."""
    verts, edges = _vertices_and_edges(text)
    verts = set(verts)
    while True:
        degree = {v: 0 for v in verts}
        for a, b in edges:
            degree[a] += 1
            degree[b] += 1
        leaves = {v for v, d in degree.items() if d <= 1}
        if not leaves:
            break
        verts -= leaves
        edges = [(a, b) for a, b in edges if a in verts and b in verts]
    root = {v: v for v in verts}

    def find(v):
        while root[v] != v:
            v = root[v]
        return v

    for a, b in edges:
        root[find(a)] = find(b)
    return len(edges) - len(verts) + len({find(v) for v in verts})


def is_single_cycle(text):
    """True when the graph's core is one cycle, so its cover is a line."""
    return core_cycle_rank(text) == 1
