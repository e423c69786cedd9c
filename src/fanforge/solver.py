"""Exact chromatic index, criticality, overfullness, and coloring enumeration.

`chromatic_index` tries k = Delta with exhaustive backtracking in a fixed
edge order; on failure k = Delta + 1 always succeeds. That search also
yields G's witness coloring (the one the parity check prints). Overfull
graphs skip the k = Delta attempt: a color class is a matching of at most
floor(n/2) edges, so |E| > Delta*floor(n/2) rules out Delta colors without
any search.

The criticality questions ask for the class only, and `GraphFacts`
decides it without a witness: G is class 2 when it is overfull or when
removing one vertex (even n) or two (odd n) leaves an overfull subgraph,
which also makes G non-critical; otherwise the dynamic-order search below
decides whether G is Delta-colorable.

Edge criticality in a class-2 graph is a Delta-decision: e is critical
exactly when G - e is Delta-colorable. Vizing's theorem, the overfull
bound or that overfull subgraph settles most edges; the rest go to the
same backtracking search in a dynamic (DSATUR) edge order. A
Delta-coloring it finds for G - xy also certifies further edges by shifts
(Stiebitz, Scheide, Toft and Favrholdt, Graph Edge Coloring, 2012, ch.
3): coloring xy with a color missing at y and uncoloring the edge xz of
that color gives a Delta-coloring of G - xz. Every edge reached that way
is critical without a search of its own, so the search runs only for the
edges no shift reaches, and it alone answers "no". Everything is integer
arithmetic; no verdict is ever probabilistic.
"""

from __future__ import annotations

import heapq
import os
from collections import deque
from dataclasses import dataclass
from itertools import permutations
from math import perm
from typing import Container, Generator, Iterator, Optional

from .colorings import PartialEdgeColoring
from .graphs import SimpleGraph, degree_profile, delete_edge, incident

DEFAULT_NODE_BUDGET = 10**8
# the node budget of the enumerations, which no search exhausts
_UNBOUNDED = 1 << 62


class BudgetExceeded(Exception):
    pass


class EmptyGraphError(ValueError):
    pass


def node_budget_default() -> int:
    """FANFORGE_BUDGET if set, else DEFAULT_NODE_BUDGET; ValueError when
    FANFORGE_BUDGET is not an integer >= 0."""
    env = os.environ.get("FANFORGE_BUDGET")
    if not env:
        return DEFAULT_NODE_BUDGET
    try:
        budget = int(env)
    except ValueError:
        budget = -1
    if budget < 0:
        raise ValueError(f"FANFORGE_BUDGET must be an integer >= 0, got {env!r}")
    return budget


@dataclass
class ClassVerdict:
    """chi', the class-1/2 verdict, and a validating witness coloring.

    status is "ok" for an exact answer; "unknown" means the node budget
    ran out before the k = Delta search was decided (never a wrong answer).
    """

    chi_prime: Optional[int]
    cls: Optional[str]  # "one" | "two"
    witness: Optional[PartialEdgeColoring]
    nodes: int
    status: str = "ok"


def _edge_order(g: SimpleGraph) -> list[int]:
    # most-constrained-first: descending d(u)+d(v), ties by edge id (the
    # sort is stable)
    degs = g.degrees()
    weight = [-(degs[u] + degs[v]) for u, v in g.edges]
    return sorted(range(len(weight)), key=weight.__getitem__)


def _backtrack(
    g: SimpleGraph,
    order: list[int],
    k: int,
    budget: int,
    colors: list,
    dynamic: bool = False,
) -> Generator[tuple[int, int], None, int]:
    """The first-use normal proper k-colorings of the edges in `order`:
    the one backtracking loop of every search.

    Each depth colors one edge. In the fixed order depth d colors
    order[d], so the leaves come lexicographic in (position, color).
    Under `dynamic` each depth colors the uncolored edge with the fewest
    colors free at both ends (DSATUR on the line graph, Brelaz 1979),
    ties going to the first in `order`. A color may be new only if it is
    the least unused one; the colors not placed yet are interchangeable
    at every node in either order, so each leaf stands for one orbit
    under renamings of the colors, and in the fixed order it is the
    orbit's least member. Each leaf writes its colors (1-based, by edge
    id) into `colors` and yields (the mask of the colors it uses, nodes
    so far), a node being one color placed; the return value is the node
    count of the whole search. Raises BudgetExceeded once the nodes
    exceed `budget`. Backtracks over an explicit stack, so the number of
    edges is not limited by the recursion limit.
    """
    m = len(order)
    if m == 0:
        yield 0, 0
        return 0
    ends = [g.edges[e] for e in order]
    missing = [(1 << k) - 1] * g.n
    # per depth: the edge it colors and that edge's ends, which are
    # order[d] and ends[d] in the fixed order; avail: the colors still to
    # try; chosen: the current color bit; used: the colors placed above it
    edge, edge_ends = (list(order), list(ends)) if dynamic else (order, ends)
    avail = [0] * m
    chosen = [0] * m
    used = [0] * m
    if dynamic:
        # the positions in `order` not colored yet, in order, so a scan
        # keeps the first of equally free edges; per depth, the position
        # of its edge and the slot it held in `uncolored`, to put it back
        uncolored = list(range(1, m))
        at = [0] * m
        slot = [0] * m
    nodes = 0
    avail[0] = 1 if k else 0  # color 1: every color is free at the start
    d = 0
    while True:
        u, v = edge_ends[d]
        bit = chosen[d]
        if bit:
            missing[u] ^= bit
            missing[v] ^= bit
        a = avail[d]
        if not a:
            if d == 0:
                return nodes
            chosen[d] = 0
            if dynamic:
                uncolored.insert(slot[d], at[d])
            d -= 1
            continue
        bit = a & -a
        avail[d] = a ^ bit
        nodes += 1
        if nodes > budget:
            raise BudgetExceeded
        chosen[d] = bit
        missing[u] ^= bit
        missing[v] ^= bit
        colors[edge[d]] = bit.bit_length()
        cap = used[d] | bit
        nxt = d + 1
        if nxt == m:
            yield cap, nodes
            continue
        if dynamic:
            best = k + 1
            for i, p in enumerate(uncolored):
                u, v = ends[p]
                free = (missing[u] & missing[v]).bit_count()
                if free < best:
                    best, s, q = free, i, p
                    if not free:
                        break
        else:
            q = nxt
        # descend only where a color is free, so a dead end costs no pass
        u, v = ends[q]
        # the colors placed before nxt are 1..j, so (cap << 1) | 1 admits
        # only j + 1 as a new one
        a = missing[u] & missing[v] & ((cap << 1) | 1)
        if a:
            d = nxt
            avail[d] = a
            used[d] = cap
            if dynamic:
                del uncolored[s]
                at[d], slot[d] = q, s
                edge[d], edge_ends[d] = order[q], ends[q]


def _first_leaf(
    g: SimpleGraph, k: int, budget: int, dynamic: bool
) -> tuple[Optional[list[int]], int]:
    """(The first leaf of `_backtrack` over `_edge_order`, or None; the
    nodes used)."""
    colors = [0] * len(g.edges)
    leaves = _backtrack(g, _edge_order(g), k, budget, colors, dynamic)
    try:
        return colors, next(leaves)[1]
    except StopIteration as done:
        return None, done.value


def _search(g: SimpleGraph, k: int, budget: int) -> tuple[Optional[list[int]], int]:
    """Returns (the first proper k-edge-coloring in `_edge_order` under
    the first-use rule, or None; the nodes used). The rule is sound for
    both answers, since color classes are interchangeable."""
    return _first_leaf(g, k, budget, False)


def _colorable(g: SimpleGraph, k: int, budget: int) -> tuple[Optional[list[int]], int]:
    """A proper k-edge-coloring of G, by the same search in the dynamic
    (DSATUR) order: returns (assignment 1-based per edge or None, nodes
    used), as `_search` does; raises BudgetExceeded when the node budget
    runs out undecided. Ties between equally free edges go to the larger
    d(u) + d(v), then the lower edge id."""
    return _first_leaf(g, k, budget, True)


def shift_certificates(
    g: SimpleGraph,
    colors: list[Optional[int]],
    e: int,
    settled: Container[int] = (),
) -> Iterator[tuple[int, list[Optional[int]]]]:
    """Colorings of G - f for further edges f, reached by shifts from
    `colors`, a proper coloring of G - e (None at e).

    A shift from a coloring of G - vw at its end v: an edge f = vz whose
    color a is missing at w is uncolored and vw takes a. Color a then
    sits once at v and once at w and leaves z, so the result is a proper
    coloring of G - f with the same colors. Yields (f, coloring of G - f)
    breadth-first, each edge once and never e nor an edge in `settled`
    (read at each step, so a caller may add to it as it goes), and shifts
    on from every coloring it yields.
    """
    inc = incident(g)
    ends = g.edges
    seen = {e}
    work = deque([(colors, e)])
    while work:
        colors, vw = work.popleft()
        for v, w in (ends[vw], ends[vw][::-1]):
            at_w = 0
            for f in inc[w].values():
                if f != vw:
                    at_w |= 1 << colors[f]
            for f in inc[v].values():
                if f in seen or f in settled:
                    continue
                a = colors[f]
                if at_w >> a & 1:
                    continue
                seen.add(f)
                shifted = colors.copy()
                shifted[vw] = a
                shifted[f] = None
                work.append((shifted, f))
                yield f, shifted


def chromatic_index(
    g: SimpleGraph, budget: Optional[int] = None
) -> ClassVerdict:
    """Exact chi'(G) with a validating witness coloring.

    Requires at least one edge. Within the Vizing/Gupta window the answer
    is Delta or Delta+1; the k = Delta attempt is exhaustive.
    """
    if len(g.edges) == 0:
        raise EmptyGraphError("chromatic index query needs at least one edge")
    if budget is None:
        budget = node_budget_default()
    delta = max(g.degrees())
    nodes_total = 0

    if not is_overfull(g):  # g has an edge, so n >= 2
        try:
            sol, nodes = _search(g, delta, budget)
        except BudgetExceeded:
            return ClassVerdict(None, None, None, budget, status="unknown")
        nodes_total += nodes
        if sol is not None:
            phi = PartialEdgeColoring.from_assignment(g, delta, sol)
            return ClassVerdict(delta, "one", phi, nodes_total)

    try:
        sol, nodes = _search(g, delta + 1, budget - nodes_total)
    except BudgetExceeded:
        return ClassVerdict(None, None, None, budget, status="unknown")
    nodes_total += nodes
    assert sol is not None, "k = Delta+1 search cannot fail"
    phi = PartialEdgeColoring.from_assignment(g, delta + 1, sol)
    return ClassVerdict(delta + 1, "two", phi, nodes_total)


class GraphFacts:
    """chi'(G) and the criticality of G's edges at one node budget, each
    decided once.

    `verdict` is G's ClassVerdict, built on first read. `class_two()`
    decides the class without a witness, and the criticality questions
    read it: they raise ValueError on a class-1 graph and BudgetExceeded
    when the class or a G - e decision is undecided within the budget.
    Each answer is memoized; a search that ran out of budget is memoized
    as undecided (None) and raises again without a second search.
    """

    __slots__ = ("graph", "budget", "node_budget", "_verdict", "_class_two",
                 "_removal_mask", "_delta_critical", "_critical")

    def __init__(self, g: SimpleGraph, budget: Optional[int]):
        self.graph = g
        self.budget = budget  # as asked: the memo key of graph_facts
        # as resolved: the node budget of each search
        self.node_budget = node_budget_default() if budget is None else budget
        self._verdict: Optional[ClassVerdict] = None
        # `_class_two` stays unset until class_two() is first asked
        self._removal_mask: Optional[int] = None
        self._delta_critical: Optional[bool] = None
        self._critical: dict[int, Optional[bool]] = {}

    @property
    def verdict(self) -> ClassVerdict:
        if self._verdict is None:
            self._verdict = chromatic_index(self.graph, self.node_budget)
        return self._verdict

    def _removal(self) -> int:
        """`_overfull_removal(G)`, computed once: 0 when no proper subgraph
        of G is certified overfull."""
        if self._removal_mask is None:
            self._removal_mask = _overfull_removal(self.graph)
        return self._removal_mask

    def class_two(self) -> bool:
        """chi'(G) = Delta + 1. A built `verdict` answers; otherwise an
        overfull G or `_removal()` says yes, and else `_colorable` decides
        whether G is Delta-colorable, building no witness."""
        if self._verdict is not None:
            if self._verdict.status != "ok":
                raise BudgetExceeded("base chromatic index undecided")
            return self._verdict.cls == "two"
        try:
            two = self._class_two
        except AttributeError:
            g = self.graph
            if not g.edges:
                raise EmptyGraphError("class decision needs at least one edge")
            self._class_two = None  # kept if the search runs out of budget
            two = self._class_two = (
                is_overfull(g) or bool(self._removal())
                or _colorable(g, max(g.degrees()), self.node_budget)[0] is None
            )
        if two is None:
            raise BudgetExceeded("class undecided")
        return two

    def edge_critical(self, e: int) -> bool:
        """chi'(G - e) < chi'(G); for class-2 G, whether G - e is
        Delta-colorable."""
        if not self.class_two():
            raise ValueError("criticality asked on a class-1 graph")
        known = self._critical
        if e not in known:
            try:
                known[e] = self._deletion_colorable(e)
            except BudgetExceeded:
                known[e] = None
                raise
        if known[e] is None:
            raise BudgetExceeded("colorability undecided")
        return known[e]

    def _deletion_colorable(self, e: int) -> bool:
        """Is G - e Delta(G)-colorable? The one place that builds G - e.

        A Delta-coloring found for G - e also settles, as critical, every
        edge without an answer yet that it shifts to."""
        g = self.graph
        prof = degree_profile(g)
        ends = g.edges[e]
        if all(v in ends for v in prof.delta_vertices):
            return True  # Delta(G - e) < Delta: Vizing's theorem colors it
        if len(g.edges) - 1 > prof.delta * (g.n // 2):
            return False  # G - e is overfull for Delta colors
        if self._removal() & (1 << ends[0] | 1 << ends[1]):
            return False  # G - e keeps the overfull G - T of `_removal()`
        rest = _colorable(delete_edge(g, e), prof.delta, self.node_budget)[0]
        if rest is None:
            return False
        # delete_edge keeps the order of the other edges
        known = self._critical
        for f, _ in shift_certificates(g, rest[:e] + [None] + rest[e:], e, known):
            known[f] = True
        return True

    def critical_edges(self) -> list[int]:
        """Edge ids whose deletion lowers chi'. Empty for class-1 input."""
        if not self.class_two():
            return []
        return [e for e in range(len(self.graph.edges)) if self.edge_critical(e)]

    def delta_critical(self) -> bool:
        """Every proper subgraph has a smaller chromatic index (class two).

        Equivalent to: no proper subgraph certified overfull by `_removal()`,
        no isolated vertex (removing one is a proper subgraph with equal
        chi'), class two, and every edge critical. Stops at the first
        answer no.
        """
        if self._delta_critical is None:
            g = self.graph
            self._delta_critical = (
                not self._removal()
                and all(g.adjacency)
                and self.class_two()
                and all(self.edge_critical(e) for e in range(len(g.edges)))
            )
        return self._delta_critical


def graph_facts(g: SimpleGraph, budget: Optional[int] = None) -> GraphFacts:
    """The GraphFacts of g at `budget`, built on the first call and kept
    on g until a call asks for another budget. A None budget is resolved
    from FANFORGE_BUDGET once, when the facts are built."""
    facts = getattr(g, "_facts", None)
    if facts is None or facts.budget != budget:
        facts = g._facts = GraphFacts(g, budget)
    return facts


def is_critical_edge(g: SimpleGraph, e: int, budget: Optional[int] = None) -> bool:
    """chi'(G - e) < chi'(G); meaningful for class-2 graphs (checked)."""
    return graph_facts(g, budget).edge_critical(e)


def is_delta_critical(g: SimpleGraph, budget: Optional[int] = None) -> bool:
    """Every proper subgraph has a smaller chromatic index (class two)."""
    return graph_facts(g, budget).delta_critical()


def critical_edges(g: SimpleGraph, budget: Optional[int] = None) -> list[int]:
    """Edge ids whose deletion lowers chi'. Empty for class-1 input."""
    return graph_facts(g, budget).critical_edges()


# -- overfull arithmetic (exact integers, no floats) ------------------------


def is_overfull(g: SimpleGraph) -> bool:
    if g.n < 2:
        raise ValueError("overfullness needs n >= 2")
    delta = max(g.degrees())
    return len(g.edges) > delta * (g.n // 2)


def _overfull_removal(g: SimpleGraph) -> int:
    """The vertex mask of a set T whose removal leaves an overfull
    subgraph, or 0 when the cheap test finds none.

    T is one vertex for even n and two for odd n, so S = V - T has odd
    order, at least 3. G[S] has e(S) = m - sum of d(t) over T + e(G[T])
    edges; when that exceeds Delta(G) * (|S| - 1) / 2, no Delta(G) matchings
    cover it, so chi'(G[S]) = Delta + 1 = chi'(G). Then G is class 2, G is
    not critical, and no edge with an end in T is critical: G - e still
    contains G[S]. T is the first that works, in vertex order.
    """
    n = g.n
    s = n - 1 - n % 2
    if s < 3:
        return 0
    degs = g.degrees()
    # the most edges T may take away and leave G[S] overfull
    spare = len(g.edges) - max(degs) * (s - 1) // 2 - 1
    if n % 2 == 0:
        for t in range(n):
            if degs[t] <= spare:
                return 1 << t
        return 0
    if 2 * min(degs) - 1 > spare:
        return 0
    adj = g.adj_mask
    for t in range(n):
        for u in range(t + 1, n):
            if degs[t] + degs[u] - (adj[t] >> u & 1) <= spare:
                return 1 << t | 1 << u
    return 0


def is_just_overfull(g: SimpleGraph) -> bool:
    if g.n < 2:
        raise ValueError("overfullness needs n >= 2")
    delta = degree_profile(g).delta
    return len(g.edges) == delta * (g.n // 2) + 1


def overfull_deficiency(g: SimpleGraph) -> int:
    """(n-1)*Delta + 2 - 2|E| for odd n; <= 0 exactly when overfull."""
    if g.n % 2 == 0:
        raise ValueError("deficiency defined for odd order only")
    delta = degree_profile(g).delta
    return (g.n - 1) * delta + 2 - 2 * len(g.edges)


# -- parity ------------------------------------------------------------------


@dataclass
class ParityReport:
    n: int
    counts: dict[int, int]  # color -> number of vertices missing it
    violations: list[int]  # colors with count % 2 != n % 2

    @property
    def ok(self) -> bool:
        return not self.violations


def parity_check(g: SimpleGraph, phi: PartialEdgeColoring) -> ParityReport:
    """Per color, the number of vertices missing it must have n's parity.

    Requires a complete proper coloring (each color class is a matching,
    so the count is n - 2|E_alpha|).
    """
    if phi.graph is not g:
        if phi.graph != g:
            raise ValueError("coloring belongs to a different graph")
    if not phi.is_complete():
        raise ValueError("parity check needs a complete coloring")
    counts = {}
    bad = []
    missing = phi.missing
    for c in range(1, phi.k + 1):
        cnt = sum(m >> (c - 1) & 1 for m in missing)
        counts[c] = cnt
        if cnt % 2 != g.n % 2:
            bad.append(c)
    return ParityReport(g.n, counts, bad)


# -- exhaustive enumeration --------------------------------------------------


def _working_delta(g: SimpleGraph, e: Optional[int]) -> int:
    """The maximum degree of G - e."""
    degs = list(g.degrees())
    if e is not None:
        for v in g.edges[e]:
            degs[v] -= 1
    return max(degs, default=0)


class ColoringSpace:
    """The proper k-edge-colorings of G - e, lexicographic in (edge id,
    color), from one walk.

    Renaming the colors maps a coloring to a coloring, and the least
    member of an orbit is its first-use normal form: a color is new only
    as the least unused one. One lazy walk of `_backtrack` in edge-id
    order keeps each normal coloring and a running orbit sum, a normal
    coloring that uses c colors standing for perm(k, c) of them; it stops
    as soon as the sum passes the limit a caller asks about. So `size`
    answers "at most N" without building a coloring.

    `raw_prefix` merges the orbits. Two renamings of a normal coloring
    first differ where it first uses the lowest color they rename apart,
    so an orbit's members come in enumeration order exactly as
    `permutations(range(1, k + 1), c)` lists their names. The walk yields
    normal colorings in enumeration order, so an orbit joins the merge
    only once its normal coloring is below every coloring waiting in it,
    and the merge walks at most one normal coloring past the orbits a
    prefix takes from. The merge state lives in attributes, and the merged
    prefix is kept, as far as the largest limit asked for, as color
    tuples with each one's orbit. A caller that reads only the orbits
    builds no coloring: `coloring(i)` builds one member when it is read.
    An orbit's first member is its normal coloring, the same object
    `normal()` gives. So colorings leave a space two ways: `normal()`,
    one per orbit, and `raw_prefix` with `coloring(i)`, one per member.

    The colorings are shared between callers and are read-only.
    """

    def __init__(self, g: SimpleGraph, e: Optional[int], k: int):
        delta_rest = _working_delta(g, e)
        if k < delta_rest:
            raise ValueError(f"k={k} below the working maximum degree {delta_rest}")
        self.graph, self.edge, self.k = g, e, k
        self._colors: list[Optional[int]] = [None] * len(g.edges)
        live = [i for i in range(len(g.edges)) if i != e]
        # the normal walk, None once it is exhausted
        self._walk: Optional[Generator] = _backtrack(g, live, k, _UNBOUNDED, self._colors)
        # (colors, number of colors used) of each normal coloring walked,
        # and each one's coloring once it is built
        self._leaves: list[tuple[tuple, int]] = []
        self._normal: list[Optional[PartialEdgeColoring]] = []
        self._size = 0  # the orbit sum over _leaves
        # the merge: (colors, orbit, its remaining names) per orbit that
        # joined it and still has members to give, and the orbits joined
        self._heap: list[tuple[tuple, int, Iterator[tuple[int, ...]]]] = []
        self._joined = 0
        # the prefix merged so far: each member's colors and orbit, and
        # its coloring once it is built
        self._members: list[tuple] = []
        self._orbits: list[int] = []
        self._built: list[Optional[PartialEdgeColoring]] = []

    def _step(self) -> bool:
        """Walk the next normal coloring; False once there is none."""
        if self._walk is None:
            return False
        try:
            mask, _ = next(self._walk)
        except StopIteration:
            self._walk = None
            return False
        c = mask.bit_count()
        self._leaves.append((tuple(self._colors), c))
        self._normal.append(None)
        self._size += perm(self.k, c)
        return True

    def size(self, limit: Optional[int] = None) -> int:
        """The number of colorings, exact when it is at most `limit` (or
        `limit` is None); otherwise some number above `limit`, since the
        normal walk stops once its orbit sum passes `limit`."""
        while (limit is None or self._size <= limit) and self._step():
            pass
        return self._size

    def _normal_coloring(self, j: int) -> PartialEdgeColoring:
        """The normal coloring of orbit j, which the walk has reached."""
        phi = self._normal[j]
        if phi is None:
            phi = self._normal[j] = PartialEdgeColoring.from_assignment(
                self.graph, self.k, self._leaves[j][0], uncolored=self.edge)
        return phi

    def normal(self) -> list[PartialEdgeColoring]:
        """The first-use normal colorings, one per orbit, in enumeration
        order."""
        self.size()
        return [self._normal_coloring(j) for j in range(len(self._leaves))]

    def raw_prefix(
        self, limit: Optional[int] = None
    ) -> tuple[list[tuple], list[int], bool]:
        """The first `limit` colorings (all of them when None), unbuilt:
        each one's colors by edge id (None on e), each one's orbit, and
        whether the space holds more. Coloring i is `coloring(i)`."""
        if limit is not None:
            limit = max(limit, 0)
        size = self.size(limit)
        want = size if limit is None else min(size, limit)
        k = self.k
        heap, leaves, members = self._heap, self._leaves, self._members
        while len(members) < want:
            j = self._joined
            if j < len(leaves) or self._step():
                colors, c = leaves[j]
                if not heap or colors < heap[0][0]:
                    names = permutations(range(1, k + 1), c)
                    next(names)  # the identity: the normal coloring itself
                    heapq.heappush(heap, (colors, j, names))
                    self._joined = j + 1
            colors, orbit, names = heap[0]
            renamed = next(names, None)
            if renamed is None:
                heapq.heappop(heap)
            else:
                heapq.heapreplace(heap, (
                    tuple(None if x is None else renamed[x - 1] for x in leaves[orbit][0]),
                    orbit, names,
                ))
            members.append(colors)
            self._orbits.append(orbit)
            self._built.append(None)
        return members[:want], self._orbits[:want], size > want

    def coloring(self, i: int) -> PartialEdgeColoring:
        """Coloring i of the merged prefix, built on first use."""
        phi = self._built[i]
        if phi is None:
            colors, orbit = self._members[i], self._orbits[i]
            # an orbit's first member is the very tuple its leaf holds
            if colors is self._leaves[orbit][0]:
                phi = self._normal_coloring(orbit)
            else:
                phi = PartialEdgeColoring.from_assignment(
                    self.graph, self.k, colors, uncolored=self.edge)
            self._built[i] = phi
        return phi


def count_colorings(g: SimpleGraph, e: Optional[int], k: int) -> int:
    """The number of proper k-edge-colorings of G - e: the orbit sum of
    its `ColoringSpace`, and 0 when k is below the maximum degree of
    G - e."""
    if k < _working_delta(g, e):
        return 0
    return ColoringSpace(g, e, k).size()
