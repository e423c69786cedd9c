"""Leaf-padded typical-multifan gadgets for the witness-sweep workload.

Same construction as the test suite's ``leaf_padded_gadget``: the center
r=0 and s1=1 share the uncolored working edge; each (edge_color,
missing_color) spoke adds a (Delta-1)-degree neighbor of r; the colors
left at r go to full-degree neighbors; every remaining color demand is met
by a private leaf, so the coloring is proper by construction.
"""

from __future__ import annotations

from fanforge.colorings import PartialEdgeColoring
from fanforge.graphs import SimpleGraph

# A fixed family, not a random draw: random Delta 4-7 spoke lists gave
# gadgets that raise FanError, finish in milliseconds, or run for minutes.
# Together these cover tau types A, B and C, shiftable endings (type B
# ending on color 1 and the rotations), and searches that exhaust their
# budget. Delta 7 is left out: the smallest type-C Delta-7 gadget found
# takes 12 s, over a whole pass.
FAMILY: tuple[tuple[int, tuple[tuple[int, int], ...]], ...] = (
    (4, ((3, 1),)),  # type B ending on color 1 (shiftable)
    (4, ((3, 2),)),  # type B ending on a fan color (not shiftable)
    (5, ((3, 4), (4, 3))),  # two rotations (type A)
    (5, ((3, 1), (4, 3))),  # two type-B sequences, one shiftable in two steps
    (6, ((3, 4), (4, 3), (5, 3))),  # two rotations and a repeat (type C)
)
SMOKE_FAMILY = FAMILY[:2]


def leaf_padded_gadget(delta: int, spokes) -> tuple[SimpleGraph, PartialEdgeColoring]:
    n = 2
    edges: dict[tuple[int, int], int | None] = {(0, 1): None}
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
        edges[(v, leaf)] = c
    g = SimpleGraph(n, list(edges))
    colors: list[int | None] = [None] * len(g.edges)
    for (u, v), c in edges.items():
        colors[g.edge_id(u, v)] = c
    phi = PartialEdgeColoring.from_assignment(
        g, delta, colors, uncolored=g.edge_id(0, 1)
    )
    if not phi.validate():
        raise ValueError(f"gadget {delta} {spokes} is not a proper coloring")
    return g, phi
