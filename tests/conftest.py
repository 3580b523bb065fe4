"""Shared graph fixtures for the test suite.

Each fixture returns the text of a small weighted multigraph in the
line-oriented input format.  Expected analysis constants for these graphs
are frozen in the individual test modules; where a closed form exists the
frozen number is that closed form, otherwise it was computed once with an
independent high-precision solver and hard-coded.  Hypothesis strategies
that more than one test module draws from live here too.
"""

import pytest
from hypothesis import strategies as st

from liftmix import parse_graph


THETA3_TEXT = """\
# three parallel edges between two vertices, lazy walk
alpha 1/2
vertex u
vertex v
edge e1 u v 1/3 1/3
edge e2 u v 1/3 1/3
edge e3 u v 1/3 1/3
"""

ASYM_THETA_TEXT = """\
alpha 1/2
vertex u
vertex v
edge e1 u v 0.5 0.2
edge e2 u v 0.3 0.3
edge e3 u v 0.2 0.5
"""

C3B_TEXT = """\
# directed-biased 3-cycle: forward 0.7, backward 0.3
alpha 0
vertex a
vertex b
vertex c
edge ab a b 0.7 0.3
edge bc b c 0.7 0.3
edge ca c a 0.7 0.3
"""

SYM3_TEXT = """\
# symmetric 3-cycle: the cover walk is recurrent
alpha 0
vertex a
vertex b
vertex c
edge ab a b 0.5 0.5
edge bc b c 0.5 0.5
edge ca c a 0.5 0.5
"""

PENDANT_TEXT = """\
# theta graph with a hanging pendant vertex p attached at u
alpha 1/2
vertex u
vertex v
vertex p
edge e1 u v 1/4 1/3
edge e2 u v 1/4 1/3
edge e3 u v 1/4 1/3
edge ep u p 1/4 1.0
"""

PATH2_TEXT = """\
vertex a
vertex b
edge e a b 1.0 1.0
"""

DOUBLED_EDGE_TEXT = """\
vertex a
vertex b
edge e1 a b 1/2 1/2
edge e2 a b 1/2 1/2
"""

DIRECTED_C3_TEXT = """\
alpha 1/2
vertex a
vertex b
vertex c
edge ab a b 1 0
edge bc b c 1 0
edge ca c a 1 0
"""

ONE_WAY_TEXT = """\
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

PERIOD3_TEXT = """\
# one-way 3-cycle a -> b -> c -> a, two parallel edges on each step: the
# unlazy walk has period 3, and h = log 2
alpha 0
vertex a
vertex b
vertex c
edge ab1 a b 1/2 0
edge ab2 a b 1/2 0
edge bc1 b c 1/2 0
edge bc2 b c 1/2 0
edge ca1 c a 1/2 0
edge ca2 c a 1/2 0
"""


def bouquet_text(d, alpha="0"):
    """One vertex with d/2 loops, every orientation weighted 1/d."""
    if d % 2:
        raise ValueError("d must be even")
    lines = [f"alpha {alpha}", "vertex o"]
    for j in range(d // 2):
        lines.append(f"edge l{j + 1} o o 1/{d} 1/{d}")
    return "\n".join(lines) + "\n"


@st.composite
def random_graph_with_dead_orientations(draw):
    """Small multigraphs at holding probability 0, 1/4 or 1/2 in which some
    orientations carry weight zero."""
    n_v = draw(st.integers(min_value=1, max_value=4))
    m = draw(st.integers(min_value=1, max_value=5))
    ends = [
        (draw(st.integers(0, n_v - 1)), draw(st.integers(0, n_v - 1)))
        for _ in range(m)
    ]
    raw = [[draw(st.integers(0, 2)), draw(st.integers(0, 2))] for _ in range(m)]
    for w in raw:
        if w == [0, 0]:
            w[0] = 1
    slots = {}
    for j, (t, h) in enumerate(ends):
        slots.setdefault(t, []).append((j, 0))
        slots.setdefault(h, []).append((j, 1))
    for u, out in slots.items():
        if all(raw[j][side] == 0 for j, side in out):
            j, side = out[0]
            raw[j][side] = 1
    total = {u: sum(raw[j][side] for j, side in out) for u, out in slots.items()}
    alpha = draw(st.sampled_from(["0", "1/4", "1/2"]))
    lines = [f"alpha {alpha}"] + [f"vertex v{u}" for u in sorted(slots)]
    for j, (t, h) in enumerate(ends):
        lines.append(f"edge e{j} v{t} v{h} "
                     f"{raw[j][0]}/{total[t]} {raw[j][1]}/{total[h]}")
    return "\n".join(lines) + "\n"


@pytest.fixture
def theta3():
    return parse_graph(THETA3_TEXT)


@pytest.fixture
def asym_theta():
    return parse_graph(ASYM_THETA_TEXT)


@pytest.fixture
def c3b():
    return parse_graph(C3B_TEXT)


@pytest.fixture
def sym3():
    return parse_graph(SYM3_TEXT)


@pytest.fixture
def pendant():
    return parse_graph(PENDANT_TEXT)


@pytest.fixture
def path2():
    return parse_graph(PATH2_TEXT)


@pytest.fixture
def doubled_edge():
    return parse_graph(DOUBLED_EDGE_TEXT)


@pytest.fixture
def directed_c3():
    return parse_graph(DIRECTED_C3_TEXT)


@pytest.fixture
def bouquet4():
    return parse_graph(bouquet_text(4))
