"""Partial edge colorings, missing sets, Kempe chains and swaps.

Colors are the integers 1..k. A coloring may leave at most one edge
uncolored (the working edge of the recoloring machinery). Missing sets are
maintained incrementally as bitmasks: bit (c-1) of missing[v] is set iff
color c is absent at v.

The edge of color c at v is kept in one flat by-color table of n * k
entries, `_by_color[v * k + c - 1]`, with -1 where v misses c. Copying a
coloring is then one list copy, and a Kempe swap flips colors, table
entries and endpoint masks in place on the copy.

A coloring is never changed once built: only the constructors and the
copy inside `kempe_swap` write `assignment`, `missing` or `_by_color`.
So each coloring memoizes `chains(a, b)` per color pair, and a swap's
result inherits its parent's memo together with the swapped chain; it
re-walks only the chains a swap can have changed (see `_inherit`).
Search states are keyed by `packed_key`, an exact int image of the
coloring; a swap's key is its parent's key XOR a mask of the chain's
edges.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import partial
from itertools import combinations
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .graphs import SimpleGraph


class ColoringError(ValueError):
    pass


class StaleChainError(ColoringError):
    """The coloring changed since the chain was extracted."""


class BothColorsPresentError(ColoringError):
    """Linkage asked about a vertex that misses neither chain color."""


def _mask_to_colors(mask: int) -> tuple[int, ...]:
    out = []
    c = 1
    while mask:
        if mask & 1:
            out.append(c)
        mask >>= 1
        c += 1
    return tuple(out)


@dataclass(frozen=True)
class Chain:
    """One component of the subgraph on two color classes.

    Edges alternate between the two colors; `kind` is "path" or "cycle".
    A vertex missing both colors forms a trivial one-vertex path.
    """

    colors: tuple[int, int]  # (min, max)
    kind: str
    vertices: tuple[int, ...]
    edges: tuple[int, ...]

    def endpoints(self) -> tuple[int, int]:
        if self.kind != "path":
            raise ValueError("cycle chains have no endpoints")
        return self.vertices[0], self.vertices[-1]


class PartialEdgeColoring:
    """A proper k-edge-coloring of G minus at most one edge."""

    __slots__ = (
        "graph", "k", "assignment", "uncolored", "missing", "_by_color",
        "_chains", "_origin",
    )

    def __init__(self, graph: SimpleGraph, k: int):
        if k < 0:
            raise ColoringError("k must be non-negative")
        self.graph = graph
        self.k = k
        self.assignment: list[Optional[int]] = [None] * len(graph.edges)
        self.uncolored: Optional[int] = None
        full = (1 << k) - 1
        self.missing = [full] * graph.n
        # edge carrying color c at v: _by_color[v * k + c - 1], -1 if none
        self._by_color = [-1] * (graph.n * k)
        # chains(a, b) by pair (min, max); _origin is (parent memo, chain)
        # for the result of a swap, None otherwise
        self._chains: dict = {}
        self._origin: Optional[tuple[dict, Chain]] = None

    # -- construction ------------------------------------------------------

    @classmethod
    def from_assignment(
        cls,
        graph: SimpleGraph,
        k: int,
        colors: Sequence[Optional[int]],
        uncolored: Optional[int] = None,
    ) -> "PartialEdgeColoring":
        """Build and validate a coloring from a per-edge color sequence.

        Exactly the entries equal to None are uncolored; at most one is
        allowed and it must agree with `uncolored` when given.
        """
        if len(colors) != len(graph.edges):
            raise ColoringError("color list length != edge count")
        phi = cls(graph, k)
        blank = [i for i, c in enumerate(colors) if c is None]
        if len(blank) > 1:
            raise ColoringError("more than one uncolored edge")
        if uncolored is not None and blank and blank[0] != uncolored:
            raise ColoringError("uncolored edge mismatch")
        if uncolored is not None and not blank:
            raise ColoringError(f"edge {uncolored} is colored")
        phi.uncolored = blank[0] if blank else None
        asg = phi.assignment
        missing = phi.missing
        bc = phi._by_color
        ends = graph.edges
        for e, c in enumerate(colors):
            if c is None:
                continue
            if not (1 <= c <= k):
                raise ColoringError(f"color {c} outside [1,{k}]")
            u, v = ends[e]
            bit = 1 << (c - 1)
            if not (missing[u] & missing[v] & bit):
                raise ColoringError(f"color {c} clashes at edge {e}")
            asg[e] = c
            missing[u] ^= bit
            missing[v] ^= bit
            bc[u * k + c - 1] = e
            bc[v * k + c - 1] = e
        return phi

    def copy(self) -> "PartialEdgeColoring":
        new = PartialEdgeColoring.__new__(PartialEdgeColoring)
        new.graph = self.graph
        new.k = self.k
        new.assignment = self.assignment.copy()
        new.uncolored = self.uncolored
        new.missing = self.missing.copy()
        new._by_color = self._by_color.copy()
        new._chains = {}
        new._origin = None
        return new

    # -- queries -----------------------------------------------------------

    def color_of(self, e: int) -> Optional[int]:
        return self.assignment[e]

    def is_complete(self) -> bool:
        return self.uncolored is None and all(
            c is not None for c in self.assignment
        )

    def missing_mask(self, v: int) -> int:
        return self.missing[v]

    def missing_at(self, v: int) -> tuple[int, ...]:
        """The set of colors absent at v (the uncolored edge contributes nothing)."""
        return _mask_to_colors(self.missing[v])

    def misses(self, v: int, c: int) -> bool:
        return bool(self.missing[v] >> (c - 1) & 1)

    def edge_with_color(self, v: int, c: int) -> Optional[int]:
        # an unchecked c would read another vertex's slot of the flat table
        if not (1 <= c <= self.k):
            raise ColoringError(f"color {c} outside [1,{self.k}]")
        e = self._by_color[v * self.k + c - 1]
        return None if e < 0 else e

    def is_elementary(self, vertices: Iterable[int]) -> bool:
        """True iff the missing sets of the given vertices are pairwise disjoint.

        The sets are taken once per listed entry, so a vertex listed twice
        makes the list non-elementary unless it misses no color.
        """
        acc = 0
        for v in vertices:
            m = self.missing[v]
            if acc & m:
                return False
            acc |= m
        return True

    def validate(self) -> bool:
        return self.validate_detail() is None

    def validate_detail(self) -> Optional[str]:
        """Full recomputation cross-check; returns a message for the first violation."""
        g = self.graph
        blank = [e for e, c in enumerate(self.assignment) if c is None]
        if len(blank) > 1:
            return f"{len(blank)} uncolored edges"
        if (blank[0] if blank else None) != self.uncolored:
            return "uncolored cache mismatch"
        k = self.k
        full = (1 << k) - 1
        for v in range(g.n):
            seen = 0
            for w in g.adjacency[v]:
                e = g.edge_id(v, w)
                c = self.assignment[e]
                if c is None:
                    continue
                bit = 1 << (c - 1)
                if seen & bit:
                    return f"color {c} repeated at vertex {v}"
                seen |= bit
                if self._by_color[v * k + c - 1] != e:
                    return f"by-color cache wrong at vertex {v}, color {c}"
            if self.missing[v] != full & ~seen:
                return f"missing-set cache wrong at vertex {v}"
            for c in range(1, k + 1):
                if not seen >> (c - 1) & 1 and self._by_color[v * k + c - 1] != -1:
                    return f"by-color cache wrong at vertex {v}, color {c}"
        return None

    def signature(self) -> tuple:
        return (self.uncolored, tuple(self.assignment))

    def packed_key(self) -> int:
        """The coloring as one int: the color of edge e in bits
        [w*e, w*(e+1)) with w = k.bit_length(), 0 for the uncolored edge.

        At most one edge is uncolored, so two colorings of one graph and
        palette have equal keys exactly when their signatures are equal.
        """
        w = self.k.bit_length()
        key = 0
        for e, c in enumerate(self.assignment):
            if c is not None:
                key |= c << (w * e)
        return key

    # -- chains ------------------------------------------------------------

    def _check_pair(self, a: int, b: int):
        if a == b:
            raise ColoringError("chain colors must differ")
        for c in (a, b):
            if not (1 <= c <= self.k):
                raise ColoringError(f"color {c} outside [1,{self.k}]")

    def chain_at(self, v: int, a: int, b: int) -> Chain:
        """The unique maximal (a,b)-alternating component through v.

        Cycle chains are listed starting at v toward the lower-id neighbor;
        path chains are listed from their lower-id endpoint.
        """
        self._check_pair(a, b)
        both = (1 << (a - 1)) | (1 << (b - 1))
        if self.missing[v] & both == both:
            return Chain((min(a, b), max(a, b)), "path", (v,), ())
        return self._walk(v, a, b)

    def _walk(self, v: int, a: int, b: int) -> Chain:
        """The (a,b)-chain through v, which has a or b present.

        The coloring is proper, so the (a,b)-subgraph has maximum degree 2
        and a trail along it can only come back to where it started: the
        one test `x == v` tells a cycle from a path, and no edge can be met
        twice.
        """
        k = self.k
        bc = self._by_color
        ends = self.graph.edges
        colors = (a, b) if a < b else (b, a)
        s = a + b
        ea = bc[v * k + a - 1]
        eb = bc[v * k + b - 1]
        if ea >= 0 and eb >= 0:
            # v is interior: walk toward the lower-id neighbor first
            p, q = ends[ea]
            na = q if p == v else p
            p, q = ends[eb]
            nb = q if p == v else p
            starts = ((ea, a), (eb, b)) if na < nb else ((eb, b), (ea, a))
        else:
            starts = ((ea, a),) if ea >= 0 else ((eb, b),)
        runs = []
        for e, c in starts:
            verts: list[int] = []
            eids: list[int] = []
            x = v
            while e >= 0:
                eids.append(e)
                p, q = ends[e]
                x = q if p == x else p
                if x == v:
                    return Chain(colors, "cycle", (v, *verts), tuple(eids))
                verts.append(x)
                c = s - c
                e = bc[x * k + c - 1]
            runs.append((verts, eids))
        verts, eids = runs[0]
        verts.insert(0, v)
        if len(runs) == 2:
            # stitch: the second run reversed, then v and the first run
            back_verts, back_eids = runs[1]
            back_verts.reverse()
            back_eids.reverse()
            verts = back_verts + verts
            eids = back_eids + eids
        if verts[0] > verts[-1]:
            verts.reverse()
            eids.reverse()
        return Chain(colors, "path", tuple(verts), tuple(eids))

    def chains(self, a: int, b: int) -> list[Chain]:
        """All (a,b)-chains that contain at least one edge, deterministic order.

        Chains come in the order of their lowest-id vertex, each listed as
        `chain_at` at that vertex lists it. The list is memoized per pair
        and shared with later calls and with swap results: read it, never
        change it.
        """
        pair = (a, b) if a < b else (b, a)
        out = self._chains.get(pair)
        if out is not None:
            return out
        self._check_pair(a, b)
        if self._origin is not None:
            out = self._inherit(pair)
        if out is None:
            out = self._walk_from(range(self.graph.n), a, b)
        self._chains[pair] = out
        return out

    def _walk_from(self, vertices: Iterable[int], a: int, b: int) -> list[Chain]:
        """The (a,b)-chains through the given vertices, in ascending order
        of vertices, each walked from its first listed vertex."""
        both = (1 << (a - 1)) | (1 << (b - 1))
        missing = self.missing
        seen = set()
        out = []
        for v in vertices:
            if v in seen or missing[v] & both == both:
                continue
            ch = self._walk(v, a, b)
            seen.update(ch.vertices)
            out.append(ch)
        return out

    def _inherit(self, pair: tuple[int, int]) -> Optional[list[Chain]]:
        """The pair's chains from the parent's memo, when it holds them.

        This coloring is the parent with the colors a, b of one chain C
        interchanged on C's edges. Only edges of C change color, and both
        ends of each lie in V(C), the set of ends of C's edges, so every
        vertex outside V(C) sees the same colors on the same edges. Hence,
        for the pair q:
        - q = {a, b}: the (a,b)-subgraph keeps its edge set, and `_walk`
          lists a chain from the edge set and vertex ids alone, not from
          which color sits on which edge. The parent's list is this one.
        - q disjoint from {a, b}: no q-colored edge changed. Same list.
        - q shares one color with {a, b}: a q-chain of the parent that
          avoids V(C) is still a q-chain here, listed the same way, and
          every q-chain here that avoids V(C) was one there. The others
          pass through V(C) and are walked again from its vertices. A
          path is listed from its lower end whatever vertex the walk
          starts at, but a cycle is listed from its start, so a cycle is
          walked again from its lowest vertex, as `chains` would. The two
          groups merge by lowest vertex, the order of `chains`.
        When C has at least n/2 edges, most q-chains meet V(C), and sorting
        out the rest costs more than walking them all: None then, as when
        the parent's memo lacks q.
        """
        memo, swapped = self._origin
        old = memo.get(pair)
        if old is None:
            return None
        a, b = swapped.colors
        if (a in pair) == (b in pair):
            return old
        if 2 * len(swapped.edges) >= self.graph.n:
            return None
        ends = self.graph.edges
        touched = set()
        for e in swapped.edges:
            touched.update(ends[e])
        out = [ch for ch in old if touched.isdisjoint(ch.vertices)]
        for ch in self._walk_from(sorted(touched), *pair):
            if ch.kind == "cycle":
                low = min(ch.vertices)
                if low != ch.vertices[0]:
                    ch = self._walk(low, *pair)
            out.append(ch)
        out.sort(key=lambda ch: min(ch.vertices))
        return out

    def check_chain_current(self, chain: Chain) -> bool:
        """True iff the chain's edges carry its two colors, alternating in
        the listed order."""
        a, b = chain.colors
        asg = self.assignment
        prev = None
        for e in chain.edges:
            c = asg[e]
            if c == prev or (c != a and c != b):
                return False
            prev = c
        return True

    # -- serialization -----------------------------------------------------

    def to_line(self) -> str:
        """`k; e0=c0,e1=c1,...,eu=_` with `_` marking the uncolored edge."""
        parts = [
            f"{e}={'_' if c is None else c}"
            for e, c in enumerate(self.assignment)
        ]
        return f"{self.k}; " + ",".join(parts)

    @classmethod
    def from_line(cls, graph: SimpleGraph, line: str) -> "PartialEdgeColoring":
        head, _, rest = line.partition(";")
        k = _integer(head, "k")
        m = len(graph.edges)
        colors: list[Optional[int]] = [None] * m
        filled = [False] * m
        rest = rest.strip()
        if rest:
            for part in rest.split(","):
                es, _, cs = part.partition("=")
                e = _integer(es, "edge id")
                if not 0 <= e < m:
                    raise ColoringError(f"edge id {e} outside [0,{m})")
                if filled[e]:
                    raise ColoringError(f"edge {e} listed twice")
                filled[e] = True
                colors[e] = None if cs.strip() == "_" else _integer(cs, "color")
        if not all(filled):
            raise ColoringError("serialized coloring misses edges")
        return cls.from_assignment(graph, k, colors)

    def __repr__(self):
        return f"PartialEdgeColoring({self.to_line()!r})"


def _integer(field: str, what: str) -> int:
    """A field of a serialized coloring as an int; ColoringError if it is
    not one."""
    try:
        return int(field)
    except ValueError:
        raise ColoringError(f"{what} {field.strip()!r} is not an integer") from None


def kempe_swap(phi: PartialEdgeColoring, chain: Chain) -> PartialEdgeColoring:
    """Interchange the chain's two colors on its edges; returns a new coloring.

    Raises StaleChainError unless the chain's edges carry its two colors
    alternately in phi, and ColoringError when the colors are equal or out
    of range, an edge is listed twice, or the chain is not maximal: an end
    of a chain edge carries the edge's new color on an edge outside the
    chain. Colors and by-color entries are flipped in place on a copy of
    phi. A vertex on two chain edges keeps its missing set; one on a single
    chain edge, a path endpoint, trades the old color for the new one.
    """
    if not phi.check_chain_current(chain):
        raise StaleChainError("chain does not match the current coloring")
    edges = chain.edges
    if not edges:
        return phi.copy()
    a, b = chain.colors
    phi._check_pair(a, b)
    new = phi.copy()
    s = a + b
    both = (1 << (a - 1)) | (1 << (b - 1))
    k = new.k
    asg = new.assignment
    bc = new._by_color
    missing = new.missing
    ends = new.graph.edges
    # the colors alternate (checked above), so an edge listed twice shows
    # up already flipped; clear every old entry before writing new ones
    old = asg[edges[0]]
    for e in edges:
        if asg[e] != old:
            raise ColoringError(f"edge {e} listed twice in the chain")
        asg[e] = s - old
        u, w = ends[e]
        bc[u * k + old - 1] = -1
        bc[w * k + old - 1] = -1
        missing[u] ^= both
        missing[w] ^= both
        old = s - old
    # an entry still set for an edge's new color belongs to an edge
    # outside the chain
    for e in edges:
        c = asg[e]
        u, w = ends[e]
        i = u * k + c - 1
        j = w * k + c - 1
        if bc[i] >= 0 or bc[j] >= 0:
            raise ColoringError(f"color {c} clashes at edge {e}")
        bc[i] = e
        bc[j] = e
    new._origin = (phi._chains, chain)
    return new


def kempe_swap_at(phi: PartialEdgeColoring, v: int, a: int, b: int) -> PartialEdgeColoring:
    """Swap on the (a,b)-chain through v (identity when a == b)."""
    if a == b:
        return phi.copy()
    return kempe_swap(phi, phi.chain_at(v, a, b))


def are_linked(phi: PartialEdgeColoring, u: int, v: int, a: int, b: int) -> bool:
    """True iff u and v are the two endpoints of one common (a,b)-path chain."""
    for x in (u, v):
        if not (phi.missing[x] & ((1 << (a - 1)) | (1 << (b - 1)))):
            raise BothColorsPresentError(
                f"vertex {x} has both colors {a},{b} present"
            )
    if u == v:
        return True
    phi._check_pair(a, b)
    # u misses a or b, so it ends its (a,b)-path: walk to the far end
    k = phi.k
    bc = phi._by_color
    ends = phi.graph.edges
    c = b if phi.missing[u] >> (a - 1) & 1 else a
    x = u
    e = bc[u * k + c - 1]
    while e >= 0:
        p, q = ends[e]
        x = q if p == x else p
        c = a + b - c
        e = bc[x * k + c - 1]
    return x == v


# -- breadth-first search over recolorings -----------------------------------


def swap_moves(
    phi: PartialEdgeColoring, pairs: Optional[Iterable[tuple[int, int]]] = None
) -> Iterator[Chain]:
    """Every Kempe chain of phi on the given color pairs, in `chains` order
    per pair; all pairs a < b in ascending order when `pairs` is None."""
    if pairs is None:
        pairs = combinations(range(1, phi.k + 1), 2)
    for a, b in pairs:
        yield from phi.chains(a, b)


@dataclass
class KempeSearch:
    """Outcome of `kempe_bfs`. `parents` maps the `packed_key` of every
    state reached to (parent key, move), with (None, None) for the start."""

    parents: dict
    expanded: int
    exhausted: bool
    hit: Optional[PartialEdgeColoring] = None

    def path(self) -> list:
        """The moves that lead from the start to `hit`, in order."""
        out = []
        parent, move = self.parents[self.hit.packed_key()]
        while move is not None:
            out.append(move)
            parent, move = self.parents[parent]
        out.reverse()
        return out


def kempe_bfs(
    start: PartialEdgeColoring,
    moves: Callable[[PartialEdgeColoring], Iterable],
    budget: int,
    accept: Optional[Callable[[PartialEdgeColoring], bool]] = None,
    goal: Optional[Callable[[Callable[[], PartialEdgeColoring], int, int, object], bool]] = None,
) -> KempeSearch:
    """Breadth-first search from `start` over the moves `moves(state)` yields.

    A move is either a `Chain` of the state, applied by `kempe_swap`, or a
    pair (step, recolorings) for any other recoloring, where `recolorings`
    lists (edge, new color) pairs applied in order to the state's colors.
    States are keyed by their exact `packed_key()`, and a neighbour's key
    comes from the state's key before the neighbour is built: a swap XORs
    the chain's mask, (a ^ b) << (w * e) over its edges e, and a
    recoloring rewrites the field of each listed edge. A neighbour whose
    key is known is never built. A new recoloring neighbour is built and
    validated at once, and dropped unseen when it is improper. A new swap
    neighbour is built only when something reads it: the goal, `accept`,
    or the search when it pops the neighbour for expansion. No neighbour
    is built twice.

    Each new state is tested by `goal(get, key, parent_key, move)`, where
    `get()` returns the neighbour (the search stops at the first hit),
    then enters the frontier if `accept(state)` allows it; `accept` reads
    every state it is given. At most `budget` states are expanded;
    `exhausted` is False only when the budget ran out first.
    """
    w = start.k.bit_length()
    field = (1 << w) - 1
    units = [1 << (w * e) for e in range(len(start.assignment))]
    key = start.packed_key()
    parents: dict = {key: (None, None)}
    # an entry is [state, None, None], or [None, parent, chain] until built
    frontier = deque([([start, None, None], key)])
    expanded = 0
    while frontier:
        if expanded >= budget:
            return KempeSearch(parents, expanded, False)
        entry, key = frontier.popleft()
        state = _built(entry)
        expanded += 1
        for move in moves(state):
            if isinstance(move, Chain):
                a, b = move.colors
                # the fields do not overlap, so the sum is their union
                nkey = key ^ (a ^ b) * sum(map(units.__getitem__, move.edges))
                if nkey in parents:
                    continue
                nxt = [None, state, move]
            else:
                move, recolorings = move
                nkey = key
                for e, c in recolorings:
                    nkey = nkey & ~(field * units[e]) | c * units[e]
                if nkey in parents:
                    continue
                colors = state.assignment.copy()
                for e, c in recolorings:
                    colors[e] = c
                try:
                    nxt = [PartialEdgeColoring.from_assignment(
                        state.graph, state.k, colors, state.uncolored), None, None]
                except ColoringError:
                    continue
            parents[nkey] = (key, move)
            if goal is not None and goal(partial(_built, nxt), nkey, key, move):
                return KempeSearch(parents, expanded, True, _built(nxt))
            if accept is None or accept(_built(nxt)):
                frontier.append((nxt, nkey))
    return KempeSearch(parents, expanded, True)


def _built(entry: list) -> PartialEdgeColoring:
    """The state of a search entry, swapped from its parent on first use."""
    if entry[0] is None:
        entry[0] = kempe_swap(entry[1], entry[2])
    return entry[0]
