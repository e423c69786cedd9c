"""Independent reference implementations used as test oracles.

These deliberately avoid the package's code paths: the graph6 decoder
works over an explicit bit string, the coloring counter and the
coloring lister are plain recursive enumerators over sets, and the chromatic-index reference decides
colorability without ordering heuristics, symmetry breaking, or
overfullness shortcuts. The criticality reference asks chi'(G - e) of
every edge in turn, with no certificate and no shift. The enumerator references are the unpruned
augmentation loop over a certificate with tuple refinement signatures,
and an automorphism counter that extends partial maps vertex by vertex.
The Kempe-chain references are the closure-based walk that `chain_at` and
`chains` used before the flat by-color table, reading colors from the
assignment alone, and a swap that repaints the whole coloring. The
Kempe-move search reference is the eager breadth-first loop that builds
every neighbour, by that repainting swap, before it looks up its key. The
lemma-sample reference runs every per-coloring verifier on every sampled
coloring, with no verdict reused across colorings, and the maximum-fan
reference grows a fan on every listed coloring, not one per orbit. The
stability reference decides whether V(F) still spans a multifan by the
fixpoint loop `stability_class` used before the spoke-root walk.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Iterable, Optional, Sequence

from fanforge.colorings import (
    BothColorsPresentError,
    Chain,
    ColoringError,
    PartialEdgeColoring,
)


def decode_graph6_reference(text: str) -> tuple[int, set[frozenset[int]]]:
    """Bit-string graph6 decoder written straight from the format note:
    value = codepoint - 63, six bits per character, upper triangle in
    column order, zero padding."""
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):]
    vals = []
    for ch in s:
        b = ord(ch)
        if not 63 <= b <= 126:
            raise ValueError(f"byte {b} outside graph6 range")
        vals.append(b - 63)
    if vals[0] < 63:
        n = vals[0]
        rest = vals[1:]
    else:
        if len(vals) < 4:
            raise ValueError("truncated long-form length")
        n = vals[1] * 64 * 64 + vals[2] * 64 + vals[3]
        rest = vals[4:]
    bits = "".join(format(v, "06b") for v in rest)
    need = n * (n - 1) // 2
    if len(bits) < need or len(bits) >= need + 6:
        raise ValueError("body length mismatch")
    if any(b == "1" for b in bits[need:]):
        raise ValueError("nonzero padding")
    edges = set()
    idx = 0
    for col in range(1, n):
        for row in range(col):
            if bits[idx] == "1":
                edges.add(frozenset((row, col)))
            idx += 1
    return n, edges


def encode_graph6_reference(n: int, edges: set[frozenset[int]]) -> str:
    bits = ""
    for col in range(1, n):
        for row in range(col):
            bits += "1" if frozenset((row, col)) in edges else "0"
    while len(bits) % 6:
        bits += "0"
    if n <= 62:
        head = chr(n + 63)
    else:
        head = "~" + "".join(
            chr(((n >> sh) & 63) + 63) for sh in (12, 6, 0)
        )
    return head + "".join(
        chr(int(bits[i : i + 6], 2) + 63) for i in range(0, len(bits), 6)
    )


def count_colorings_reference(n: int, edges: list[tuple[int, int]], k: int) -> int:
    """Plain recursive proper-k-edge-coloring counter over color sets."""
    at = [set() for _ in range(n)]

    def rec(i: int) -> int:
        if i == len(edges):
            return 1
        u, v = edges[i]
        total = 0
        for c in range(1, k + 1):
            if c in at[u] or c in at[v]:
                continue
            at[u].add(c)
            at[v].add(c)
            total += rec(i + 1)
            at[u].remove(c)
            at[v].remove(c)
        return total

    return rec(0)


def colorings_reference(
    n: int, edges: list[tuple[int, int]], skip, k: int
) -> list[list]:
    """Every proper k-edge-coloring of the edges except index `skip` (None
    skips nothing), as per-edge color lists with None at `skip`, in
    lexicographic order of (edge index, color): a plain recursive
    enumerator over color sets."""
    at = [set() for _ in range(n)]
    colors: list = [None] * len(edges)
    out: list[list] = []

    def rec(i: int) -> None:
        if i == len(edges):
            out.append(list(colors))
            return
        if i == skip:
            rec(i + 1)
            return
        u, v = edges[i]
        for c in range(1, k + 1):
            if c in at[u] or c in at[v]:
                continue
            at[u].add(c)
            at[v].add(c)
            colors[i] = c
            rec(i + 1)
            colors[i] = None
            at[u].remove(c)
            at[v].remove(c)

    rec(0)
    return out


@lru_cache(maxsize=16)
def _listed_colorings(n: int, edges: tuple, skip, k: int) -> list[list]:
    # one listing serves every budget and orientation of a space
    return colorings_reference(n, list(edges), skip, k)


def max_fan_reference(g, r: int, s1: int, budget: int, k: Optional[int] = None):
    """The exhaustive maximum-fan search as a plain loop: grow a fan on
    every one of the first `budget` k-edge-colorings of G - rs1 (k = Delta
    when None) that `colorings_reference` lists, and keep the first
    largest. Returns (phi, fan, status, explored); phi and fan are None
    when no coloring is examined, and status is EXACT when the budget
    covers the whole space."""
    from fanforge.fans import grow_multifan
    from fanforge.graphs import degree_profile

    k = degree_profile(g).delta if k is None else k
    e = g.edge_id(r, s1)
    every = _listed_colorings(g.n, tuple(g.edges), e, k)
    examined = every[:max(budget, 0)]
    best_phi = best_fan = None
    for colors in examined:
        phi = PartialEdgeColoring.from_assignment(g, k, colors, uncolored=e)
        fan = grow_multifan(g, phi, r, s1)
        if best_fan is None or fan.size() > best_fan.size():
            best_phi, best_fan = phi, fan
    status = "EXACT" if len(examined) == len(every) else "LOWER-BOUND"
    return best_phi, best_fan, status, len(examined)


def colorable_reference(n: int, edges: list[tuple[int, int]], k: int) -> bool:
    """Exhaustive k-edge-colorability decision in input edge order, no
    heuristics beyond plausibility pruning."""
    at = [set() for _ in range(n)]

    def rec(i: int) -> bool:
        if i == len(edges):
            return True
        u, v = edges[i]
        for c in range(1, k + 1):
            if c in at[u] or c in at[v]:
                continue
            at[u].add(c)
            at[v].add(c)
            if rec(i + 1):
                return True
            at[u].remove(c)
            at[v].remove(c)
        return False

    return rec(0)


def chromatic_index_reference(n: int, edges: list[tuple[int, int]]) -> int:
    k = 0
    while True:
        if colorable_reference(n, edges, k):
            return k
        k += 1


def delta_critical_reference(g) -> bool:
    """The edge-by-edge loop of `is_delta_critical` before the overfull
    certificate, on the definition: chromatic_index says class two, no
    vertex is isolated, and chi'(G - e) < chi'(G) for every edge e, each
    from a fresh `chromatic_index` of G - e (no shift, no certificate,
    no memo)."""
    from fanforge.graphs import delete_edge
    from fanforge.solver import chromatic_index

    cv = chromatic_index(g)
    if cv.cls != "two" or not all(g.adjacency):
        return False
    return all(
        chromatic_index(delete_edge(g, e)).chi_prime < cv.chi_prime
        for e in range(len(g.edges))
    )


def refine_reference(n: int, adj: Sequence[int], colors: list[int]) -> tuple[list[int], int]:
    """Equitable refinement ranking each vertex by the tuple (color,
    neighbor count in each class in color order), until no class splits;
    returns (colors, class count)."""
    ncls = len(set(colors))
    while True:
        buckets: dict[int, int] = {}
        for v in range(n):
            c = colors[v]
            buckets[c] = buckets.get(c, 0) | (1 << v)
        cms = [buckets[c] for c in sorted(buckets)]
        sigs = [
            (colors[v],) + tuple((adj[v] & cm).bit_count() for cm in cms)
            for v in range(n)
        ]
        uniq = sorted(set(sigs))
        rank = {s: i for i, s in enumerate(uniq)}
        colors = [rank[s] for s in sigs]
        if len(uniq) == ncls:
            return colors, ncls
        ncls = len(uniq)


def canonical_cert_reference(adj: Sequence[int]) -> int:
    """The individualization/refinement certificate with signatures kept
    as tuples (color, neighbor count per class, ...): the least packed
    upper triangle over all leaves, twin classes branched on their first
    member only."""
    n = len(adj)
    if n <= 1:
        return 0
    leaves: list[int] = []

    def rec(colors: list[int], ncls: int) -> None:
        if ncls == n:
            pos = [0] * n
            for v, c in enumerate(colors):
                pos[c] = v
            cert = 0
            for i in range(n):
                for j in range(i + 1, n):
                    cert = (cert << 1) | ((adj[pos[i]] >> pos[j]) & 1)
            leaves.append(cert)
            return
        members = next(
            cell
            for cell in ([v for v in range(n) if colors[v] == c] for c in range(ncls))
            if len(cell) > 1
        )
        cm = sum(1 << v for v in members)
        outside = {adj[v] & ~cm for v in members}
        inside = {adj[v] & cm for v in members}
        twins = len(outside) == 1 and (
            inside == {0} or all(adj[v] & cm == cm & ~(1 << v) for v in members)
        )
        for v in members[:1] if twins else members:
            nxt = colors.copy()
            nxt[v] = -1
            rec(*refine_reference(n, adj, nxt))

    rec(*refine_reference(n, adj, [0] * n))
    return min(leaves)


def augment_level_reference(
    parents: Iterable[tuple[int, ...]],
    keep: Optional[Callable[[tuple[int, ...]], bool]] = None,
) -> list[tuple[int, ...]]:
    """Every nonempty subset of every parent, in order: the first child
    per certificate, listed by certificate."""
    seen: dict[int, tuple[int, ...]] = {}
    for parent in parents:
        np1 = len(parent)
        for subset in range(1, 1 << np1):
            child = tuple(
                m | (1 << np1) if (subset >> i) & 1 else m
                for i, m in enumerate(parent)
            ) + (subset,)
            if keep is not None and not keep(child):
                continue
            cert = canonical_cert_reference(child)
            if cert not in seen:
                seen[cert] = child
    return [seen[c] for c in sorted(seen)]


def automorphism_count_reference(adj: Sequence[int]) -> int:
    """|Aut(G)| by extending partial maps vertex by vertex, keeping degree
    and adjacency to every vertex mapped so far."""
    n = len(adj)
    deg = [m.bit_count() for m in adj]
    image = [0] * n

    def rec(v: int, used: int) -> int:
        if v == n:
            return 1
        total = 0
        for w in range(n):
            if (used >> w) & 1 or deg[w] != deg[v]:
                continue
            if all(
                ((adj[v] >> u) & 1) == ((adj[w] >> image[u]) & 1) for u in range(v)
            ):
                image[v] = w
                total += rec(v + 1, used | (1 << w))
        return total

    return rec(0, 0)


def _edge_with_color_reference(phi, v: int, c: int) -> Optional[int]:
    g = phi.graph
    for w in g.adjacency[v]:
        e = g.edge_id(v, w)
        if phi.assignment[e] == c:
            return e
    return None


def chain_at_reference(phi, v: int, a: int, b: int):
    """The (a,b)-chain through v: cycles start at v toward the lower-id
    neighbor, paths run from their lower-id endpoint."""
    if a == b:
        raise ColoringError("chain colors must differ")
    for c in (a, b):
        if not (1 <= c <= phi.k):
            raise ColoringError(f"color {c} outside [1,{phi.k}]")
    ea = _edge_with_color_reference(phi, v, a)
    eb = _edge_with_color_reference(phi, v, b)
    lo, hi = min(a, b), max(a, b)
    if ea is None and eb is None:
        return Chain((lo, hi), "path", (v,), ())

    def walk(start_edge: int, at: int):
        verts = [at]
        eids = []
        cur_e = start_edge
        cur_v = at
        while cur_e is not None:
            eids.append(cur_e)
            cur_v = phi.graph.other_end(cur_e, cur_v)
            verts.append(cur_v)
            if cur_v == at and len(eids) > 1:
                break
            nxt_color = b if phi.assignment[cur_e] == a else a
            cur_e = _edge_with_color_reference(phi, cur_v, nxt_color)
            if cur_e in eids:
                cur_e = None
        return verts, eids

    if ea is not None and eb is not None:
        # v interior: try one direction; may close a cycle
        first = min(
            (ea, phi.graph.other_end(ea, v)),
            (eb, phi.graph.other_end(eb, v)),
            key=lambda t: t[1],
        )[0]
        verts, eids = walk(first, v)
        if verts[-1] == verts[0]:
            return Chain((lo, hi), "cycle", tuple(verts[:-1]), tuple(eids))
        other = eb if first == ea else ea
        back_verts, back_eids = walk(other, v)
        # stitch: back part reversed, then forward part
        allv = back_verts[::-1] + verts[1:]
        alle = back_eids[::-1] + eids
        if allv[0] > allv[-1]:
            allv.reverse()
            alle.reverse()
        return Chain((lo, hi), "path", tuple(allv), tuple(alle))

    start = ea if ea is not None else eb
    verts, eids = walk(start, v)
    if verts[0] > verts[-1]:
        verts.reverse()
        eids.reverse()
    return Chain((lo, hi), "path", tuple(verts), tuple(eids))


def are_linked_reference(phi, u: int, v: int, a: int, b: int) -> bool:
    """u and v are the two ends of one (a,b)-path, read off the chain
    `chain_at_reference` walks from u; u == v is linked to itself. Raises
    BothColorsPresentError when u or v sees both colors."""
    for x in (u, v):
        if (_edge_with_color_reference(phi, x, a) is not None
                and _edge_with_color_reference(phi, x, b) is not None):
            raise BothColorsPresentError(f"vertex {x} sees both colors")
    if u == v:
        return True
    ch = chain_at_reference(phi, u, a, b)
    return ch.kind == "path" and {ch.vertices[0], ch.vertices[-1]} == {u, v}


def chains_reference(phi, a: int, b: int) -> list:
    """Every (a,b)-chain with an edge, from `chain_at_reference` at each
    vertex in id order that no earlier chain covers."""
    seen: set[int] = set()
    out = []
    for v in range(phi.graph.n):
        if v in seen:
            continue
        ch = chain_at_reference(phi, v, a, b)
        if not ch.edges:
            continue
        seen.update(ch.vertices)
        out.append(ch)
    return out


def kempe_swap_reference(phi, chain):
    """Swap by repainting: a fresh coloring from phi's assignment with the
    chain's two colors interchanged on its edges; ColoringError on a clash."""
    a, b = chain.colors
    colors = list(phi.assignment)
    for e in chain.edges:
        colors[e] = b if colors[e] == a else a
    return PartialEdgeColoring.from_assignment(
        phi.graph, phi.k, colors, uncolored=phi.uncolored
    )


def kempe_bfs_reference(start, moves, budget, accept=None, goal=None):
    """Breadth-first search over `moves(state)`, every neighbour built first.

    A move is a `Chain` of the state, swapped by `kempe_swap_reference`, or
    a pair (step, neighbour) with the neighbour already built. States are
    keyed by `packed_key()` of the built neighbour. `goal(state, key,
    parent key, move)` and `accept(state)` read the neighbour itself.
    Returns (parents, expanded, exhausted, hit) as `KempeSearch` holds
    them."""
    from collections import deque

    key = start.packed_key()
    parents = {key: (None, None)}
    frontier = deque([(start, key)])
    expanded = 0
    while frontier:
        if expanded >= budget:
            return parents, expanded, False, None
        state, key = frontier.popleft()
        expanded += 1
        for move in moves(state):
            if isinstance(move, Chain):
                nxt = kempe_swap_reference(state, move)
            else:
                move, nxt = move
            nkey = nxt.packed_key()
            if nkey in parents:
                continue
            parents[nkey] = (key, move)
            if goal is not None and goal(nxt, nkey, key, move):
                return parents, expanded, True, nxt
            if accept is None or accept(nxt):
                frontier.append((nxt, nkey))
    return parents, expanded, True, None


def stability_class_reference(phi2, phi, fan) -> str:
    """`stability_class` with its own spanning test: add every spoke whose
    edge color is missing at a member, starting from s1, until no spoke
    joins; V(F) spans when every spoke joined."""
    if phi.graph != phi2.graph or phi.uncolored != phi2.uncolored:
        raise ValueError("colorings differ in graph or uncolored edge")
    g = phi.graph
    r = fan.center
    seq = fan.sequence
    s1 = seq[0]
    if all(
        phi2.missing_mask(v) == phi.missing_mask(v) for v in fan.vertex_set()
    ) and all(
        phi2.color_of(g.edge_id(r, s)) == phi.color_of(g.edge_id(r, s))
        for s in seq[1:]
    ):
        return "F-stable"
    member = {s1}
    missing_union = phi2.missing_mask(s1)
    grew = True
    while grew:
        grew = False
        for s in seq[1:]:
            if s in member:
                continue
            c = phi2.color_of(g.edge_id(r, s))
            if c is not None and (missing_union >> (c - 1)) & 1:
                member.add(s)
                missing_union |= phi2.missing_mask(s)
                grew = True
    union_old = union_new = 0
    for s in seq:
        union_old |= phi.missing_mask(s)
        union_new |= phi2.missing_mask(s)
    if (member == set(seq)
            and phi2.missing_mask(s1) == phi.missing_mask(s1)
            and union_old == union_new):
        if phi2.missing_mask(r) == phi.missing_mask(r):
            return "V(F)-stable"
        return "V(F-r)-stable"
    return "none"


def lemma_verdicts_reference(g, phi, r, s1):
    """The fan grown at (r, s1) under phi, its Kierstead path, and the
    verdict of each per-coloring lemma check (`fan-elementary`,
    `fan-linkage`, `kierstead`, `stable-swaps`, `vf-stable-swaps`), each
    verifier run afresh; a fan that cannot be normalized gives the swap
    checks INAPPLICABLE."""
    from fanforge import fans as F
    from fanforge import verdicts as V

    fan = F.grow_multifan(g, phi, r, s1)
    kp = F.grow_kierstead_path(g, phi, r, s1, max_len=4)
    out = {
        "fan-elementary": F.verify_fan_elementary(g, phi, fan),
        "fan-linkage": F.verify_fan_linkage(g, phi, fan),
        "kierstead": F.verify_kp_elementary(g, phi, kp),
    }
    try:
        norm = F.normalize_typical(g, phi, fan)
    except F.FanError as exc:
        for c in ("stable-swaps", "vf-stable-swaps"):
            out[c] = V.inapplicable(c, f"not normalizable: {exc}")
    else:
        out["stable-swaps"] = F.verify_stable_swaps(g, norm.phi, norm.fan)
        out["vf-stable-swaps"] = F.verify_vf_stable_swaps(g, norm.phi, norm.fan)
    return fan, kp, out


def lemma_sample_verdicts_reference(
    g, enum_cap: int, max_colorings: int
) -> dict[str, list[dict]]:
    """The verdict JSON of each per-coloring lemma check in
    `run_lemma_suite`'s order: every critical edge, both orientations, and
    `lemma_verdicts_reference` on each sampled coloring. The sample of
    G - e is every Delta-coloring when there are at most `enum_cap`, else
    the first `max_colorings`, drawn from `colorings_reference`."""
    from fanforge.graphs import degree_profile
    from fanforge.solver import graph_facts

    out: dict[str, list[dict]] = {}
    delta = degree_profile(g).delta
    for e in graph_facts(g).critical_edges():
        every = colorings_reference(g.n, list(g.edges), e, delta)
        sample = every if len(every) <= enum_cap else every[:max_colorings]
        u, v = g.endpoints(e)
        for r, s1 in ((u, v), (v, u)):
            for colors in sample:
                phi = PartialEdgeColoring.from_assignment(g, delta, colors, uncolored=e)
                for c, verdict in lemma_verdicts_reference(g, phi, r, s1)[2].items():
                    out.setdefault(c, []).append(verdict.to_json())
    return out
