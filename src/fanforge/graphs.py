"""Immutable simple graphs, graph6 I/O, generators, and degree/core queries.

Vertices are dense integers from 0. Edges are unordered pairs stored as
(min, max) and kept sorted lexicographically, so edge ids are stable and
deterministic for a given graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence


class Graph6Error(ValueError):
    """Raised on malformed graph6 input."""


_G6_HEADER = ">>graph6<<"


class SimpleGraph:
    """Simple undirected graph: no loops, no parallel edges.

    Immutable after construction; instances are safe to share between
    workers. `adjacency[v]` is the sorted neighbor list, `edges[i]` the
    (u, v) pair with u < v, and `edge_index` maps pairs back to ids.
    `adj_mask[v]` is the neighbor set of v as an int bitmask.
    `degree_profile`, `light_vertices` and `incident` memoize their
    answers in the `_profile`, `_light` and `_incident` slots on first
    call, and `solver.graph_facts` its chi' and criticality facts in
    `_facts`; pickles leave them out.
    """

    __slots__ = ("n", "adjacency", "edges", "edge_index", "adj_mask",
                 "_profile", "_light", "_incident", "_facts")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        # a pair already given as a (u, v) tuple with u < v is kept as is,
        # so graphs built from another graph's edges share its pairs
        norm = []
        for p in edges:
            u, v = p
            if 0 <= u < v < n:
                if type(p) is not tuple:
                    p = (u, v)
            elif 0 <= v < u < n:
                p = (v, u)
            else:
                _raise_first_fault(n, norm, u, v)
            norm.append(p)
        pairs = sorted(norm)
        index = dict(zip(pairs, range(len(pairs))))
        if len(index) < len(pairs):
            _raise_first_fault(n, norm)
        adj = [[] for _ in range(n)]
        masks = [0] * n
        # in sorted pair order each vertex meets its neighbors ascending
        for u, v in pairs:
            adj[u].append(v)
            adj[v].append(u)
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        self.n = n
        self.edges = tuple(pairs)
        self.edge_index = index
        self.adj_mask = tuple(masks)
        self.adjacency = tuple(map(tuple, adj))

    # -- basic queries ----------------------------------------------------

    def m(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def degrees(self) -> tuple[int, ...]:
        return tuple(map(len, self.adjacency))

    def has_edge(self, u: int, v: int) -> bool:
        return (min(u, v), max(u, v)) in self.edge_index

    def edge_id(self, u: int, v: int) -> int:
        try:
            return self.edge_index[(min(u, v), max(u, v))]
        except KeyError:
            raise ValueError(f"no edge ({u},{v})") from None

    def endpoints(self, e: int) -> tuple[int, int]:
        return self.edges[e]

    def other_end(self, e: int, v: int) -> int:
        u, w = self.edges[e]
        if v == u:
            return w
        if v == w:
            return u
        raise ValueError(f"vertex {v} not on edge {e}")

    def is_connected(self) -> bool:
        if self.n <= 1:
            return True
        seen = 1
        stack = [0]
        count = 1
        while stack:
            v = stack.pop()
            rest = self.adj_mask[v] & ~seen
            while rest:
                low = rest & -rest
                w = low.bit_length() - 1
                seen |= low
                rest ^= low
                count += 1
                stack.append(w)
        return count == self.n

    def __eq__(self, other):
        return (
            isinstance(other, SimpleGraph)
            and self.n == other.n
            and self.edges == other.edges
        )

    def __hash__(self):
        return hash((self.n, self.edges))

    def __getstate__(self):
        return None, {
            "n": self.n,
            "adjacency": self.adjacency,
            "edges": self.edges,
            "edge_index": self.edge_index,
            "adj_mask": self.adj_mask,
        }

    def __repr__(self):
        return f"SimpleGraph(n={self.n}, m={len(self.edges)})"


def _raise_first_fault(n: int, pairs: list, u=None, v=None):
    """Raise the error for the first repeated pair in `pairs` (given in
    input order, normalized), else for the faulty pair (u, v) read after
    them."""
    seen = set()
    for e in pairs:
        if e in seen:
            raise ValueError(f"parallel edge {e}")
        seen.add(e)
    if u == v:
        raise ValueError(f"loop at vertex {u}")
    raise ValueError(f"edge ({u},{v}) out of range for n={n}")


@dataclass(frozen=True, slots=True)
class DegreeProfile:
    """Degrees, maximum degree, the max-degree vertex set, and core degrees.

    Core degrees are computed inside the subgraph induced by the
    maximum-degree vertices.
    """

    degrees: tuple[int, ...]
    delta: int
    delta_vertices: tuple[int, ...]
    core_min_degree: int
    core_max_degree: int


# -- graph6 ---------------------------------------------------------------
#
# Format: optional ">>graph6<<" header; a length field N(n); then the upper
# triangle of the adjacency matrix in column order (x_{0,1}, x_{0,2},
# x_{1,2}, x_{0,3}, ...), packed 6 bits per character, each character value
# = codepoint - 63, zero-padded to a multiple of 6 bits.


def _g6_char(c: str) -> int:
    b = ord(c)
    if not (63 <= b <= 126):
        raise Graph6Error(f"character {c!r} out of graph6 range [63,126]")
    return b - 63


def graph6_lines(lines: Iterable[str]) -> Iterator[tuple[int, str]]:
    """The graph lines of a graph6 stream, stripped, each with its line
    number in the stream, from 0. Blank lines and the `>>graph6<<` header
    line hold no graph."""
    for i, line in enumerate(lines):
        s = line.strip()
        if s and s != _G6_HEADER:
            yield i, s


def from_graph6(text: str) -> SimpleGraph:
    """Decode one graph6 line (short or long form, header tolerated)."""
    s = text.strip()
    if s.startswith(_G6_HEADER):
        s = s[len(_G6_HEADER):].strip()
    if not s:
        raise Graph6Error("empty graph6 string")
    vals = [_g6_char(c) for c in s]
    if vals[0] < 63:  # short form, n <= 62
        n = vals[0]
        body = vals[1:]
    elif len(vals) >= 4 and vals[1] < 63:  # long form, n <= 258047
        n = (vals[1] << 12) | (vals[2] << 6) | vals[3]
        if n <= 62:
            raise Graph6Error("long length field used for n <= 62")
        body = vals[4:]
    else:
        raise Graph6Error("malformed or unsupported length prefix")
    if n == 0:
        raise Graph6Error("order 0: a graph needs at least one vertex")
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    if len(body) != need:
        raise Graph6Error(
            f"body has {len(body)} characters, expected {need} for n={n}"
        )
    edges = []
    bit = 0
    for j in range(1, n):
        for i in range(j):
            v = body[bit // 6]
            if (v >> (5 - bit % 6)) & 1:
                edges.append((i, j))
            bit += 1
    # padding bits beyond the triangle must be zero
    while bit < 6 * need:
        if (body[bit // 6] >> (5 - bit % 6)) & 1:
            raise Graph6Error("nonzero padding bits")
        bit += 1
    return SimpleGraph(n, edges)


def to_graph6(g: SimpleGraph) -> str:
    """Encode a graph as canonical graph6 (no header)."""
    n = g.n
    if n < 1:
        raise ValueError("graph6 encoding requires n >= 1")
    if n <= 62:
        out = [chr(n + 63)]
    elif n <= 258047:
        out = ["~", chr(((n >> 12) & 63) + 63), chr(((n >> 6) & 63) + 63), chr((n & 63) + 63)]
    else:
        raise ValueError("n too large for this encoder")
    acc = 0
    nacc = 0
    for j in range(1, n):
        col = g.adj_mask[j]
        for i in range(j):
            acc = (acc << 1) | ((col >> i) & 1)
            nacc += 1
            if nacc == 6:
                out.append(chr(acc + 63))
                acc = 0
                nacc = 0
    if nacc:
        acc <<= 6 - nacc
        out.append(chr(acc + 63))
    return "".join(out)


# -- degree/core queries --------------------------------------------------


def degree_profile(g: SimpleGraph) -> DegreeProfile:
    """The graph's degree facts, computed on the first call and kept on g."""
    try:
        return g._profile
    except AttributeError:
        pass
    degs = g.degrees()
    if g.n == 0:
        prof = DegreeProfile((), 0, (), 0, 0)
    else:
        delta = max(degs)
        dv = tuple(v for v in range(g.n) if degs[v] == delta)
        dv_mask = 0
        for v in dv:
            dv_mask |= 1 << v
        core_degs = [(g.adj_mask[v] & dv_mask).bit_count() for v in dv]
        prof = DegreeProfile(degs, delta, dv, min(core_degs), max(core_degs))
    g._profile = prof
    return prof


def core_subgraph(g: SimpleGraph) -> tuple[SimpleGraph, tuple[int, ...]]:
    """Induced subgraph on the maximum-degree vertices, plus the vertex map."""
    prof = degree_profile(g)
    verts = prof.delta_vertices
    pos = {v: i for i, v in enumerate(verts)}
    edges = [
        (pos[u], pos[v]) for (u, v) in g.edges if u in pos and v in pos
    ]
    return SimpleGraph(len(verts), edges), verts


def is_core_acyclic(g: SimpleGraph) -> bool:
    """True iff the subgraph induced by the max-degree vertices is a forest."""
    core, _ = core_subgraph(g)
    # forest iff every component has |E| = |V| - 1; equivalent: no cycle
    parent = list(range(core.n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in core.edges:
        ru, rv = find(u), find(v)
        if ru == rv:
            return False
        parent[ru] = rv
    return True


def light_vertices(g: SimpleGraph) -> tuple[int, ...]:
    """Vertices adjacent to at most two maximum-degree vertices (computed
    on the first call and kept on g)."""
    try:
        return g._light
    except AttributeError:
        pass
    dv_mask = 0
    for v in degree_profile(g).delta_vertices:
        dv_mask |= 1 << v
    g._light = light = tuple(
        v for v in range(g.n) if (g.adj_mask[v] & dv_mask).bit_count() <= 2
    )
    return light


def incident(g: SimpleGraph) -> tuple[dict[int, int], ...]:
    """Per vertex, a map from each neighbor to the id of the edge joining
    them, neighbors ascending (computed on the first call and kept on g)."""
    try:
        return g._incident
    except AttributeError:
        pass
    inc = tuple({} for _ in range(g.n))
    # in sorted pair order each vertex meets its neighbors ascending
    for e, (u, v) in enumerate(g.edges):
        inc[u][v] = e
        inc[v][u] = e
    g._incident = inc
    return inc


# -- generators -----------------------------------------------------------


def cycle(n: int) -> SimpleGraph:
    if n < 3:
        raise ValueError("cycle needs n >= 3")
    return SimpleGraph(n, [(i, (i + 1) % n) for i in range(n)])


def path(n: int) -> SimpleGraph:
    if n < 1:
        raise ValueError("path needs n >= 1")
    return SimpleGraph(n, [(i, i + 1) for i in range(n - 1)])


def complete(n: int) -> SimpleGraph:
    if n < 1:
        raise ValueError("complete needs n >= 1")
    return SimpleGraph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def star(leaves: int) -> SimpleGraph:
    if leaves < 1:
        raise ValueError("star needs at least one leaf")
    return SimpleGraph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def petersen() -> SimpleGraph:
    edges = []
    for i in range(5):
        edges.append((i, (i + 1) % 5))          # outer cycle
        edges.append((5 + i, 5 + (i + 2) % 5))  # inner pentagram
        edges.append((i, 5 + i))                # spokes
    return SimpleGraph(10, edges)


def delete_vertex(g: SimpleGraph, v: int) -> SimpleGraph:
    """Remove v; the last vertex id moves into the freed slot."""
    if not (0 <= v < g.n):
        raise ValueError(f"vertex {v} out of range")
    last = g.n - 1
    remap = {u: u for u in range(g.n)}
    del remap[v]
    if v != last:
        remap[last] = v
    edges = [
        (remap[a], remap[b])
        for (a, b) in g.edges
        if a != v and b != v
    ]
    return SimpleGraph(g.n - 1, edges)


def delete_edge(g: SimpleGraph, e: int) -> SimpleGraph:
    """Remove edge id e; remaining edges re-index in sorted order."""
    if not (0 <= e < len(g.edges)):
        raise ValueError(f"edge {e} out of range")
    return SimpleGraph(g.n, g.edges[:e] + g.edges[e + 1:])


def from_adj_masks(masks: Sequence[int]) -> SimpleGraph:
    n = len(masks)
    edges = []
    for v in range(n):
        rest = masks[v] >> (v + 1)
        w = v + 1
        while rest:
            if rest & 1:
                edges.append((v, w))
            rest >>= 1
            w += 1
    return SimpleGraph(n, edges)
