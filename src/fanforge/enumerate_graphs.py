"""Isomorph-free exhaustive generation of small connected graphs.

Graphs are handled as tuples of adjacency bitmasks. Each isomorphism class
gets an exact integer certificate: the lexicographically smallest packed
upper triangle over the leaves of an individualization/refinement tree.
The same search yields generators of the automorphism group: leaves with
equal packed adjacency, and transpositions of interchangeable twins.

Connected graphs on n vertices are produced by augmenting the connected
graphs on n-1 vertices with one new vertex joined to every nonempty subset
(every connected graph has a non-cut vertex, so each class is reached) and
deduplicating by certificate. Subsets in one orbit of the parent's
automorphism group give isomorphic children, so only the least subset of
each orbit is built (McKay, "Isomorph-free exhaustive generation",
J. Algorithms 26, 1998, uses these orbits too). This pruning works parent
by parent, so `augment_level` returns the same list as the unpruned loop
for any parent list, a complete level or any part of one; the canonical
deletion rule of the same paper would need a complete level.

A child filter may carry a bound computed once per parent
(`augment_level` documents the contract). `delta_critical_candidate`
carries one, derived from Vizing's adjacency lemma: it names the
subsets whose children can pass, and the parents none of whose children
can, so the candidate scan builds, filters and certifies only those.

Used to build the graph6 fixture corpora where no external generator is
available; counts are cross-checked against the published sequence
1, 1, 2, 6, 21, 112, 853, 11117, 261080 in the tests.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional, Sequence

CONNECTED_COUNTS = {
    1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853, 8: 11117, 9: 261080,
}

Masks = tuple[int, ...]


def _refine(n: int, nbrs: Sequence[Sequence[int]], colors: list[int]) -> tuple[list[int], int]:
    """Equitable refinement; returns (colors, class count). Invariant under
    relabeling because classes are ranked by sorted signatures.

    A vertex's signature is one int: its color + 1, then its neighbor
    count in each class, `n.bit_length()` bits per count, so a signature
    is the sum of one weight per neighbor. Every signature of a round has
    the same fields, so int order is the order of the tuples
    (color, count, ...)."""
    width = n.bit_length()
    ncls = len(set(colors))
    while True:
        # colors run over -1..max(colors): one count field per color
        top = max(colors) + 1
        weight = [1 << (width * (top - 1 - c)) for c in colors]
        color_shift = width * (top + 1)
        sigs = [
            ((c + 1) << color_shift) + sum(map(weight.__getitem__, nb))
            for c, nb in zip(colors, nbrs)
        ]
        uniq = sorted(set(sigs))
        rank = {s: i for i, s in enumerate(uniq)}
        colors = [rank[s] for s in sigs]
        if len(uniq) == ncls:
            return colors, ncls
        ncls = len(uniq)


def _leaf_cert(n: int, adj: Sequence[int], pos: Sequence[int]) -> int:
    """Packed upper triangle of the relabeling that puts pos[i] at i."""
    cert = 0
    for i in range(n):
        ai = adj[pos[i]]
        for j in range(i + 1, n):
            cert = (cert << 1) | ((ai >> pos[j]) & 1)
    return cert


def _interchangeable(n: int, adj: Sequence[int], members: list[int], cm: int) -> bool:
    """True when every transposition inside the class is an automorphism:
    identical adjacency outside the class, and the class induces either an
    independent set or a clique."""
    ext0 = adj[members[0]] & ~cm
    internal_empty = True
    internal_full = True
    for v in members:
        if adj[v] & ~cm != ext0:
            return False
        iv = adj[v] & cm
        if iv != 0:
            internal_empty = False
        if iv != cm & ~(1 << v):
            internal_full = False
    return internal_empty or internal_full


def _search(adj: Sequence[int]) -> tuple[int, list[tuple[int, ...]]]:
    """Individualization/refinement search: the certificate (least leaf)
    and generators of Aut(G), each a tuple perm with perm[v] the image
    of v.

    Two leaves with equal packed adjacency give the automorphism that
    maps one onto the other; every leaf equal to the best one so far
    gives one. A class whose transpositions are all automorphisms
    (`_interchangeable`) is branched on its first member only, and each
    transposition of that member with another is a generator. Together
    they generate all of Aut(G): any automorphism composed with such
    transpositions maps the best leaf to a leaf of the pruned tree.
    """
    n = len(adj)
    if n <= 1:
        return 0, []
    nbrs = [[w for w in range(n) if (a >> w) & 1] for a in adj]
    best: Optional[int] = None
    best_pos: list[int] = []
    gens: dict[tuple[int, ...], None] = {}

    def rec(colors: list[int], ncls: int):
        nonlocal best, best_pos
        if ncls == n:
            pos = [0] * n
            for v, c in enumerate(colors):
                pos[c] = v
            cert = _leaf_cert(n, adj, pos)
            if best is None or cert < best:
                best, best_pos = cert, pos
            elif cert == best:
                perm = [0] * n
                for i in range(n):
                    perm[best_pos[i]] = pos[i]
                gens[tuple(perm)] = None
            return
        # first class (lowest color) with more than one member
        cells: list[list[int]] = [[] for _ in range(ncls)]
        for v in range(n):
            cells[colors[v]].append(v)
        members = next(cell for cell in cells if len(cell) > 1)
        cm = 0
        for v in members:
            cm |= 1 << v
        if _interchangeable(n, adj, members, cm):
            first = members[0]
            for v in members[1:]:
                perm = list(range(n))
                perm[first], perm[v] = v, first
                gens[tuple(perm)] = None
            cand = members[:1]
        else:
            cand = members
        for v in cand:
            nxt = colors.copy()
            nxt[v] = -1
            nxt, k2 = _refine(n, nbrs, nxt)
            rec(nxt, k2)

    colors, ncls = _refine(n, nbrs, [0] * n)
    rec(colors, ncls)
    assert best is not None
    return best, list(gens)


def canonical_cert(adj: Sequence[int]) -> int:
    """Exact isomorphism certificate for a graph given as adjacency masks.

    Equal certificates (for equal n) hold exactly for isomorphic graphs:
    the certificate is the packed adjacency of a canonical relabeling.
    """
    return _search(adj)[0]


def automorphism_generators(adj: Sequence[int]) -> list[tuple[int, ...]]:
    """Generators of the automorphism group (perm[v] is the image of v);
    empty when the group is trivial."""
    return _search(adj)[1]


def canonical_form(adj: Sequence[int]) -> Masks:
    """Adjacency masks of the canonically relabeled graph."""
    n = len(adj)
    cert = canonical_cert(adj)
    out = [0] * n
    bit = n * (n - 1) // 2
    for i in range(n):
        for j in range(i + 1, n):
            bit -= 1
            if (cert >> bit) & 1:
                out[i] |= 1 << j
                out[j] |= 1 << i
    return tuple(out)


def _child_rows(parent: Masks, lo_bits: int) -> tuple[list[Masks], list[Masks]]:
    """Lookup tables of the parent's rows once the new vertex is joined to
    a subset s: the child of s is lo[s & (2**lo_bits - 1)] +
    hi[s >> lo_bits] + (s,)."""
    n = len(parent)
    new_bit = 1 << n
    tables = []
    for first, count in ((0, lo_bits), (lo_bits, n - lo_bits)):
        rows = parent[first:first + count]
        tables.append([
            tuple(m | new_bit if (s >> i) & 1 else m for i, m in enumerate(rows))
            for s in range(1 << count)
        ])
    return tables[0], tables[1]


def _subset_images(perm: Sequence[int], lo_bits: int) -> tuple[list[int], list[int]]:
    """Lookup tables of the image of a vertex subset under perm: the image
    of s is lo[s & (2**lo_bits - 1)] | hi[s >> lo_bits]."""
    n = len(perm)
    tables = []
    for first, count in ((0, lo_bits), (lo_bits, n - lo_bits)):
        table = [0] * (1 << count)
        for s in range(1, 1 << count):
            low = s & -s
            table[s] = table[s ^ low] | (1 << perm[first + low.bit_length() - 1])
        tables.append(table)
    return tables[0], tables[1]


def _orbit_minima(
    n: int, gens: Sequence[Sequence[int]], subsets: Iterable[int]
) -> Iterable[int]:
    """For each orbit that meets `subsets` (nonempty subsets of n
    vertices, ascending) under the group the permutations generate, the
    least member of `subsets` in it, ascending. When `subsets` is a union
    of orbits, these are the least subsets of its orbits."""
    if not gens:
        return subsets
    lo_bits = n // 2
    lo_mask = (1 << lo_bits) - 1
    tables = [_subset_images(p, lo_bits) for p in gens]
    seen = bytearray(1 << n)
    out = []
    for s in subsets:
        if seen[s]:
            continue
        out.append(s)
        seen[s] = 1
        stack = [s]
        while stack:
            t = stack.pop()
            tl, th = t & lo_mask, t >> lo_bits
            for lo, hi in tables:
                u = lo[tl] | hi[th]
                if not seen[u]:
                    seen[u] = 1
                    stack.append(u)
    return out


def augment_level(
    parents: Iterable[Masks],
    keep: Optional[Callable[[Masks], bool]] = None,
) -> list[Masks]:
    """All connected (n+1)-vertex graphs from connected n-vertex parents,
    one representative per isomorphism class, deterministic order.

    The result is every child of the given parents, whether or not they
    form a complete level: the first child met per class, parents in the
    given order and subsets ascending, listed by certificate.

    `keep` is an optional pre-certificate filter; when given, only children
    satisfying it are certified and returned (used to restrict expensive
    scans to candidates that can matter). It must be
    isomorphism-invariant: subsets in one orbit of the parent's
    automorphism group give isomorphic children, and only the least
    subset of each orbit is built, tested and certified.

    `keep` may carry a `parent_bound` attribute, a function of the parent
    that returns None when `keep` rejects every child of it, and otherwise
    `(must, among, least)`: `keep` rejects every child whose subset misses
    a vertex of the mask `must` or holds fewer than `least` vertices of
    the mask `among`. The bound may only reject children that `keep`
    would reject; a rejected parent is skipped before its automorphisms
    are computed, and a rejected subset before its child is built. The
    result is the same with or without the bound.
    """
    bound = getattr(keep, "parent_bound", None)
    seen: dict[int, Masks] = {}
    for parent in parents:
        np1 = len(parent)
        if bound is None:
            subsets: Iterable[int] = range(1, 1 << np1)
        else:
            limits = bound(parent)
            if limits is None:
                continue
            must, among, least = limits
            subsets = [
                s for s in range(1, 1 << np1)
                if s & must == must and (s & among).bit_count() >= least
            ]
        lo_bits = np1 // 2
        lo_mask = (1 << lo_bits) - 1
        lo_rows, hi_rows = _child_rows(parent, lo_bits)
        for subset in _orbit_minima(np1, automorphism_generators(parent), subsets):
            child = lo_rows[subset & lo_mask] + hi_rows[subset >> lo_bits] + (subset,)
            if keep is not None and not keep(child):
                continue
            cert = canonical_cert(child)
            if cert not in seen:
                seen[cert] = child
    return [seen[c] for c in sorted(seen)]


def connected_graphs(n: int) -> list[Masks]:
    """All connected graphs on exactly n vertices, one per isomorphism class."""
    if n < 1:
        raise ValueError("n >= 1")
    level: list[Masks] = [(0,)]
    for _ in range(1, n):
        level = augment_level(level)
    return level


def masks_to_graph6(masks: Masks) -> str:
    from .graphs import from_adj_masks, to_graph6

    return to_graph6(from_adj_masks(list(masks)))


def connected_graph6_upto(max_n: int) -> list[str]:
    """graph6 lines for all connected graphs with 1 <= n <= max_n,
    sorted by (n, graph6 string of the canonical form)."""
    out = []
    level: list[Masks] = [(0,)]
    out.extend(
        masks_to_graph6(canonical_form(g)) for g in level
    )
    for n in range(2, max_n + 1):
        level = augment_level(level)
        lines = sorted(masks_to_graph6(canonical_form(g)) for g in level)
        out.extend(lines)
    return out


def delta_critical_candidate(adj: Sequence[int]) -> bool:
    """Necessary conditions for an edge-critical class-2 graph, cheap
    enough to run inside the augmentation loop: every edge obeys the
    adjacency bound (each endpoint has at least Delta - d(other) + 1
    max-degree neighbors besides the other), and the core contains a
    cycle. Both are theorems, so no critical graph is ever excluded; the
    exact solver still decides criticality for the survivors."""
    n = len(adj)
    deg = [m.bit_count() for m in adj]
    delta = max(deg) if deg else 0
    if delta < 2:
        return False
    dv = 0
    for v in range(n):
        if deg[v] == delta:
            dv |= 1 << v
    for u in range(n):
        au = adj[u]
        du = deg[u]
        rest = au
        while rest:
            low = rest & -rest
            w = low.bit_length() - 1
            rest ^= low
            if u < w:
                if (au & dv & ~low).bit_count() < delta - deg[w] + 1:
                    return False
                if (adj[w] & dv & ~(1 << u)).bit_count() < delta - du + 1:
                    return False
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u in range(n):
        if not (dv >> u) & 1:
            continue
        rest = adj[u] & dv
        while rest:
            low = rest & -rest
            w = low.bit_length() - 1
            rest ^= low
            if u < w:
                ru, rw = find(u), find(w)
                if ru == rw:
                    return True
                parent[ru] = rw
    return False


def _candidate_parent_bound(parent: Masks) -> Optional[tuple[int, int, int]]:
    """`delta_critical_candidate.parent_bound`: which subsets of the
    parent can give a child that `delta_critical_candidate` keeps.

    Let top be the parent's maximum degree, hi the mask of its vertices of
    degree at least top - 1, and c(v) = |N(v) & hi|. If some c(v) = 0, no
    child is kept (None). Otherwise a kept child's subset s contains every
    v with c(v) = 1 and at least two vertices of hi: (must, hi, 2).

    Proof. Let D be the child's maximum degree and x its new vertex.
    1. The adjacency bound at an edge uw gives u at least
       D - d(w) + 1 >= 1 max-degree neighbors other than w. Take one, w';
       the bound at uw' gives u one other than w'. So every vertex of a
       kept child (the child is connected, so it has an edge at every
       vertex) has at least two neighbors of degree D.
    2. D >= top, and joining x raises a parent degree by at most 1. So a
       parent vertex of child degree D has parent degree >= D - 1 >=
       top - 1: it is in hi.
    3. By 1 and 2, a parent vertex v outside s needs two neighbors in hi;
       v in s needs one (x can be the other); x, whose neighbors are s,
       needs two members of s in hi. A vertex with c(v) = 0 fails either
       way, and one with c(v) = 1 must be in s.
    Children with a vertex of degree at most 1 are rejected by 1 as well,
    so they need no case of their own.
    """
    deg = [m.bit_count() for m in parent]
    top = max(deg)
    hi = sum(1 << v for v, d in enumerate(deg) if d >= top - 1)
    must = 0
    for v, m in enumerate(parent):
        c = (m & hi).bit_count()
        if c == 0:
            return None
        if c == 1:
            must |= 1 << v
    return must, hi, 2


delta_critical_candidate.parent_bound = _candidate_parent_bound
