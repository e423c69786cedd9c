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
(`augment_level` documents the contract): the ascending list of the
subsets whose children the filter may accept. The list holds every
subset whose child the filter accepts, and it is a union of orbits of the
parent's automorphism group. `delta_critical_candidate` carries one,
derived from Vizing's adjacency lemma and built without a loop over all
subsets, so the candidate scan builds, filters and certifies only the
children of listed subsets, and skips a parent with an empty list before
its automorphisms are searched.

Used to build the graph6 fixture corpora where no external generator is
available; counts are cross-checked against the published sequence
1, 1, 2, 6, 21, 112, 853, 11117, 261080 in the tests.
"""

from __future__ import annotations

from itertools import combinations
from typing import Callable, Iterable, Optional, Sequence

CONNECTED_COUNTS = {
    1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853, 8: 11117, 9: 261080,
}

Masks = tuple[int, ...]


def _refine(
    nbrs: Sequence[Sequence[int]], cells: list[list[int]], fresh: list[int]
) -> list[list[int]]:
    """Equitable refinement of an ordered partition, cells of ascending
    vertices. Invariant under relabeling: sub-cells are ranked by
    signature.

    A round splits every cell by its members' neighbor counts in each
    cell at the start of the round, sub-cells in ascending order of the
    count tuples (first cell first), in place of the cell; the rounds stop
    when no cell splits. Only the counts in the `fresh` cells (indices,
    ascending) are computed. The caller vouches for every other cell Y:
    the members of each cell have equal counts in Y, or Y is the last
    piece of a split cell X whose other pieces are fresh and in which
    they have equal counts. Such a count is X's count less the counts in
    X's earlier pieces, so the tuples of fresh counts rank as the full
    tuples do. After a round this holds with the pieces of each cell that
    split, less its last piece, as the fresh cells.

    A signature is one int: the counts in the fresh cells,
    `n.bit_length()` bits per count, first cell highest, so int order is
    the order of the count tuples. It is summed from the fresh vertices'
    neighbor lists, so a cell with no neighbor among them does not split.
    """
    n = len(nbrs)
    width = n.bit_length()
    while fresh and len(cells) < n:
        top = len(cells) - 1
        sig = [0] * n
        for i in fresh:
            w = 1 << (width * (top - i))
            for u in cells[i]:
                for x in nbrs[u]:
                    sig[x] += w
        out: list[list[int]] = []
        fresh = []
        for cell in cells:
            if len(cell) > 1:
                sigs = [sig[v] for v in cell]
                if sigs.count(sigs[0]) != len(sigs):
                    parts: dict[int, list[int]] = {s: [] for s in sorted(set(sigs))}
                    for v, s in zip(cell, sigs):
                        parts[s].append(v)
                    fresh.extend(range(len(out), len(out) + len(parts) - 1))
                    out.extend(parts.values())
                    continue
            out.append(cell)
        cells = out
    return cells


def _leaf_cert(nbrs: Sequence[Sequence[int]], pos: Sequence[int]) -> int:
    """Packed upper triangle of the relabeling that puts pos[i] at i, read
    from the neighbor lists: row i appends its bits j = i + 1, ..., n - 1."""
    n = len(pos)
    rev = [0] * n
    for i, v in enumerate(pos):
        rev[v] = 1 << (n - 1 - i)
    cert = 0
    for i, v in enumerate(pos):
        k = n - 1 - i
        cert = (cert << k) | (sum(map(rev.__getitem__, nbrs[v])) & ((1 << k) - 1))
    return cert


def _interchangeable(adj: Sequence[int], members: list[int], cm: int) -> bool:
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

    A node is an equitable ordered partition; its children individualize
    each member v of the first cell with more than one member, putting
    [v] first and the rest of v's cell in that cell's place, and refine.
    A leaf (all cells singletons) gives the relabeling in cell order.
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
    nbrs = []
    for a in adj:
        row = []
        while a:
            low = a & -a
            row.append(low.bit_length() - 1)
            a ^= low
        nbrs.append(row)
    best: Optional[int] = None
    best_pos: list[int] = []
    gens: dict[tuple[int, ...], None] = {}

    def rec(cells: list[list[int]]):
        nonlocal best, best_pos
        if len(cells) == n:
            pos = [cell[0] for cell in cells]
            cert = _leaf_cert(nbrs, pos)
            if best is None or cert < best:
                best, best_pos = cert, pos
            elif cert == best:
                perm = [0] * n
                for i in range(n):
                    perm[best_pos[i]] = pos[i]
                gens[tuple(perm)] = None
            return
        for i, members in enumerate(cells):
            if len(members) > 1:
                break
        cm = 0
        for v in members:
            cm |= 1 << v
        if _interchangeable(adj, members, cm):
            first = members[0]
            for v in members[1:]:
                perm = list(range(n))
                perm[first], perm[v] = v, first
                gens[tuple(perm)] = None
            cand = members[:1]
        else:
            cand = members
        # [v] and the rest of its cell are the pieces of an equitable cell,
        # so [v] is the one fresh cell
        before, after = cells[:i], cells[i + 1:]
        for v in cand:
            rest = members.copy()
            rest.remove(v)
            rec(_refine(nbrs, [[v], *before, rest, *after], [0]))

    # the first round splits the one cell by degree, ascending; its pieces
    # but the last are fresh
    by_degree: dict[int, list[int]] = {}
    for v, row in enumerate(nbrs):
        by_degree.setdefault(len(row), []).append(v)
    cells = [by_degree[d] for d in sorted(by_degree)]
    rec(_refine(nbrs, cells, list(range(len(cells) - 1))))
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
    that returns the subsets, ascending, whose children `keep` may
    accept. The list must hold every subset whose child `keep` accepts,
    and be a union of orbits of the parent's automorphism group, so that
    the least subset of each orbit in it is the one the unbounded loop
    tests. A parent with an empty list is skipped before its
    automorphisms are computed, a parent with one listed subset needs
    none, and a subset outside the list is skipped before its child is
    built. The result is the same with or without the bound.
    """
    bound = getattr(keep, "parent_bound", None)
    seen: dict[int, Masks] = {}
    for parent in parents:
        np1 = len(parent)
        subsets = range(1, 1 << np1) if bound is None else bound(parent)
        if not subsets:
            continue
        lo_bits = np1 // 2
        lo_mask = (1 << lo_bits) - 1
        lo_rows, hi_rows = _child_rows(parent, lo_bits)
        # one listed subset is its own orbit, as the list is a union of orbits
        if len(subsets) > 1:
            subsets = _orbit_minima(np1, automorphism_generators(parent), subsets)
        for subset in subsets:
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


def _submasks(mask: int) -> Iterable[int]:
    """The submasks of `mask` with at least two members."""
    sub = mask
    while sub:
        if sub & (sub - 1):
            yield sub
        sub = (sub - 1) & mask


def _candidate_subsets(parent: Masks) -> list[int]:
    """`delta_critical_candidate.parent_bound`: the subsets of a connected
    parent, ascending, whose children `delta_critical_candidate` may keep.

    Let top be the parent's maximum degree, T the mask of its vertices of
    degree top and T1 of those of degree top - 1; let x be the new vertex,
    s its subset, k = |s| and D the child's maximum degree.

    Proof. 1. The adjacency bound at an edge uw gives u at least
    D - d(w) + 1 >= 1 max-degree neighbors other than w. Take one, w';
    the bound at uw' gives u one other than w'. So every vertex of a kept
    child (the child is connected, so it has an edge at every vertex) has
    at least two neighbors of degree D.
    2. Joining x raises the degrees of s by one, so D is the larger of k
    and top + [s meets T]. If k is larger, x is the only vertex of degree
    D, against 1. So k <= D = top + [s meets T].
    3. If s meets T, the parent vertices of child degree D are s & T; if
    s misses T, they are T | (s & T1). x has degree D exactly when k = D.
    x's neighbors are s, so by 1 |s & T| >= 2 in the first case and
    |s & T1| >= 2 in the second.
    4. Fix s & T, or s & T1 when s misses T, and with it the parent
    vertices of degree D. By 1, a parent vertex with none of them as
    neighbors rejects every such s, and one with a single one needs x as
    its second: it lies in s, so it is in the fixed part or free, and
    k = D.
    So each choice in 4 fixes part of s, and the other vertices outside
    T (and outside T1 in the second case) are free up to |s| <= D: the
    list is built from those, never from a loop over every subset. Its
    rule reads degrees and adjacency only, so it is a union of orbits of
    the parent's automorphism group.
    """
    n = len(parent)
    full = (1 << n) - 1
    deg = [m.bit_count() for m in parent]
    top = max(deg)
    t = t1 = 0
    for v, d in enumerate(deg):
        if d == top:
            t |= 1 << v
        elif d == top - 1:
            t1 |= 1 << v
    # (s & T or s & T1, the parent vertices of degree D, the free vertices, D)
    choices = [(part, part, full & ~t, top + 1) for part in _submasks(t)]
    choices += [(part, t | part, full & ~(t | t1), top) for part in _submasks(t1)]
    out = []
    for part, big, free, d in choices:
        # vertices with at least one and at least two neighbors in big
        ones = twos = 0
        rest = big
        while rest:
            low = rest & -rest
            a = parent[low.bit_length() - 1]
            twos |= ones & a
            ones |= a
            rest ^= low
        need = full & ~twos
        if ones != full or need & ~(part | free):
            continue
        base = part | need
        room = d - base.bit_count()
        if room < 0:
            continue
        free &= ~need
        bits = [1 << v for v in range(n) if (free >> v) & 1]
        for size in (room,) if need else range(room + 1):
            out.extend(base | sum(c) for c in combinations(bits, size))
    out.sort()
    return out


delta_critical_candidate.parent_bound = _candidate_subsets
