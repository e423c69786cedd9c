import os
import sys
from pathlib import Path

import pytest
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from fanforge.colorings import PartialEdgeColoring
from fanforge.graphs import SimpleGraph

FIXTURES = Path(__file__).resolve().parent / "fixtures"


@st.composite
def graphs_with_edge(draw, max_edges=10, need_edge=False):
    """(G, e): a graph on 2-7 vertices with 1-`max_edges` edges, and one
    of its edge ids, or None unless `need_edge`."""
    n = draw(st.integers(2, 7))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=max_edges, unique=True))
    g = SimpleGraph(n, edges)
    edge = st.integers(0, g.m() - 1)
    return g, draw(edge if need_edge else st.one_of(st.none(), edge))


def colorings_of(space, limit=None):
    """The first `limit` colorings of a `ColoringSpace` (all when None),
    read as the lemma suite reads them: `raw_prefix`, then `coloring(i)`."""
    members, _, _ = space.raw_prefix(limit)
    return [space.coloring(i) for i in range(len(members))]


@pytest.fixture(scope="session")
def fixture_lines() -> list[str]:
    return (FIXTURES / "connected_n1_7.g6").read_text().split()


@pytest.fixture
def c5_fixture():
    """The canonical small instance: C5 with r=0, s1=1, a=2, b=3, c=4 in
    cycle order, edge r-s1 uncolored, the path s1-a-b-c-r colored 1,2,1,2."""
    from fanforge.graphs import cycle

    g = cycle(5)
    phi = PartialEdgeColoring.from_assignment(g, 2, [None, 2, 1, 2, 1])
    return g, phi


# The witness-sweep gadget family (Delta 4-6, tau types A, B and C).
WITNESS_FAMILY = [
    (4, [(3, 1)]),
    (4, [(3, 2)]),
    (5, [(3, 4), (4, 3)]),
    (5, [(3, 1), (4, 3)]),
    (6, [(3, 4), (4, 3), (5, 3)]),
]


def leaf_padded_gadget(delta: int, spokes: list[tuple[int, int]]):
    """r=0 and s1=1 with the working edge uncolored; each (edge_color,
    missing_color) pair adds a (delta-1)-degree neighbor of r; the
    remaining colors at r go to full-degree vertices; every residual color
    demand is met by a private leaf, so the coloring is proper by
    construction."""
    n = 2
    edges = {(0, 1): None}
    demands = [(1, c) for c in range(1, delta + 1) if c not in (2, delta)]
    for ec, mc in spokes:
        v = n
        n += 1
        edges[(0, v)] = ec
        demands += [(v, c) for c in range(1, delta + 1) if c not in (mc, ec)]
    used = {ec for ec, _ in spokes}
    for c in range(2, delta + 1):
        if c not in used:
            u = n
            n += 1
            edges[(0, u)] = c
            demands += [(u, c2) for c2 in range(1, delta + 1) if c2 != c]
    for v, c in demands:
        leaf = n
        n += 1
        edges[(min(v, leaf), max(v, leaf))] = c
    g = SimpleGraph(n, list(edges))
    colors = [None] * len(g.edges)
    for (u, v), c in edges.items():
        colors[g.edge_id(u, v)] = c
    phi = PartialEdgeColoring.from_assignment(
        g, delta, colors, uncolored=g.edge_id(0, 1)
    )
    assert phi.validate()
    return g, phi
