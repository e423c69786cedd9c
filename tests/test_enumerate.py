import functools
import hashlib
import itertools
import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from fanforge import enumerate_graphs
from fanforge.enumerate_graphs import (
    CONNECTED_COUNTS,
    augment_level,
    automorphism_generators,
    canonical_cert,
    canonical_form,
    connected_graph6_upto,
    connected_graphs,
    delta_critical_candidate,
)
from fanforge.graphs import from_adj_masks, from_graph6
from fanforge.solver import is_delta_critical
from oracles import (
    refine_reference,
    augment_level_reference,
    automorphism_count_reference,
    canonical_cert_reference,
)

DATA = Path(__file__).resolve().parent.parent / "perfbench" / "data"
CLASS2_N7 = DATA / "class2_n7.g6"
CONNECTED_N8 = DATA / "connected_n8.g6"


def masks_from_edges(n, edges):
    m = [0] * n
    for u, v in edges:
        m[u] |= 1 << v
        m[v] |= 1 << u
    return tuple(m)


def permuted(masks, perm):
    n = len(masks)
    out = [0] * n
    for v in range(n):
        for w in range(n):
            if (masks[v] >> w) & 1:
                out[perm[v]] |= 1 << perm[w]
    return tuple(out)


@pytest.mark.parametrize("n", range(1, 8))
def test_connected_counts_match_published_sequence(n):
    assert len(connected_graphs(n)) == CONNECTED_COUNTS[n]


@pytest.mark.slow
def test_connected_count_n8():
    assert len(connected_graphs(8)) == CONNECTED_COUNTS[8]


def test_atlas_cross_check():
    nx = pytest.importorskip("networkx")
    from networkx.generators.atlas import graph_atlas_g

    atlas = [
        G
        for G in graph_atlas_g()
        if G.number_of_nodes() >= 1 and nx.is_connected(G)
    ]
    assert len(atlas) == 996
    atlas_certs = {}
    for G in atlas:
        n = G.number_of_nodes()
        key = (n, canonical_cert(masks_from_edges(n, list(G.edges))))
        atlas_certs[key] = atlas_certs.get(key, 0) + 1
    assert all(v == 1 for v in atlas_certs.values())
    mine = set()
    for n in range(1, 8):
        for g in connected_graphs(n):
            mine.add((n, canonical_cert(g)))
    assert mine == set(atlas_certs)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_certificate_invariant_under_relabeling(data):
    n = data.draw(st.integers(min_value=1, max_value=8))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    mask = data.draw(st.integers(min_value=0, max_value=(1 << len(pairs)) - 1))
    edges = [p for i, p in enumerate(pairs) if (mask >> i) & 1]
    masks = masks_from_edges(n, edges)
    perm = data.draw(st.permutations(range(n)))
    assert canonical_cert(masks) == canonical_cert(permuted(masks, list(perm)))


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_certificate_equality_is_isomorphism(data):
    nx = pytest.importorskip("networkx")
    n = data.draw(st.integers(min_value=2, max_value=7))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    m1 = data.draw(st.integers(min_value=0, max_value=(1 << len(pairs)) - 1))
    m2 = data.draw(st.integers(min_value=0, max_value=(1 << len(pairs)) - 1))
    e1 = [p for i, p in enumerate(pairs) if (m1 >> i) & 1]
    e2 = [p for i, p in enumerate(pairs) if (m2 >> i) & 1]
    c1 = canonical_cert(masks_from_edges(n, e1))
    c2 = canonical_cert(masks_from_edges(n, e2))
    g1 = nx.Graph(e1)
    g2 = nx.Graph(e2)
    g1.add_nodes_from(range(n))
    g2.add_nodes_from(range(n))
    assert (c1 == c2) == nx.is_isomorphic(g1, g2)


def test_canonical_form_is_isomorphic_relabeling():
    g = connected_graphs(6)[50]
    cf = canonical_form(g)
    assert canonical_cert(cf) == canonical_cert(g)
    assert sorted(m.bit_count() for m in cf) == sorted(m.bit_count() for m in g)


def test_star_and_complete_certificates_fast():
    # twin classes keep the individualization tree linear
    n = 9
    star = masks_from_edges(n, [(0, i) for i in range(1, n)])
    comp = masks_from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])
    assert canonical_cert(star) != canonical_cert(comp)
    assert canonical_cert(comp) == (1 << (n * (n - 1) // 2)) - 1


def test_augment_level_keep_filter():
    # filtering for minimum degree >= 2 at n=4: only C4, diamond, K4 and
    # the triangle-with-... enumerate and compare against a direct count
    parents = connected_graphs(3)
    kept = augment_level(
        parents, keep=lambda m: min(x.bit_count() for x in m) >= 2
    )
    full = augment_level(parents)
    direct = [
        g for g in full if min(x.bit_count() for x in g) >= 2
    ]
    assert {canonical_cert(g) for g in kept} == {
        canonical_cert(g) for g in direct
    }


def test_fixture_file_regenerates_identically(fixture_lines):
    assert connected_graph6_upto(7) == fixture_lines
    # every line decodes to a connected graph
    for line in fixture_lines[::29]:
        assert from_graph6(line).is_connected()


def group_order(n, gens):
    """Order of the permutation group the generators generate, by closure."""
    identity = tuple(range(n))
    elements = {identity}
    frontier = [identity]
    while frontier:
        g = frontier.pop()
        for h in gens:
            gh = tuple(h[g[v]] for v in range(n))
            if gh not in elements:
                elements.add(gh)
                frontier.append(gh)
    return len(elements)


def relabeled_level(n, seed):
    rng = random.Random(seed)
    out = []
    for g in connected_graphs(n):
        perm = list(range(n))
        rng.shuffle(perm)
        out.append(permuted(g, perm))
    return out


@pytest.mark.parametrize("n", range(1, 7))
@pytest.mark.parametrize("keep", [None, delta_critical_candidate])
def test_augment_level_equals_unpruned_loop_on_complete_levels(n, keep):
    parents = connected_graphs(n)
    assert augment_level(parents, keep) == augment_level_reference(parents, keep)


@pytest.mark.parametrize("n,offset", [(6, 0), (6, 3), (7, 1), (7, 4)])
def test_augment_level_equals_unpruned_loop_on_partial_parent_lists(n, offset):
    # every 5th graph of a level, as the benchmark grows n = 9 from every
    # 16th graph of level 8; level 7 with the candidate filter
    keep = delta_critical_candidate if n == 7 else None
    parents = connected_graphs(n)[offset::5]
    assert augment_level(parents, keep) == augment_level_reference(parents, keep)


@pytest.mark.parametrize("seed", [1, 2])
def test_augment_level_equals_unpruned_loop_on_shuffled_relabeled_parents(seed):
    # the first child met per class depends on the parent order and labels
    parents = relabeled_level(6, seed)
    random.Random(seed).shuffle(parents)
    parents = parents[:40]
    assert augment_level(parents) == augment_level_reference(parents)


def test_augment_level_builds_one_child_per_subset_orbit():
    # brute force: the orbits of the nonempty subsets of each parent under
    # all of its automorphisms; each orbit's least subset is the one child
    # built and handed to keep
    for parent in relabeled_level(5, 5):
        n = len(parent)
        auts = [
            p for p in itertools.permutations(range(n)) if permuted(parent, p) == parent
        ]
        minima = [
            s
            for s in range(1, 1 << n)
            if all(
                s <= sum(1 << p[v] for v in range(n) if (s >> v) & 1) for p in auts
            )
        ]
        built = []

        def record(child):
            built.append(child[-1])  # the new vertex's row is its subset
            return True

        augment_level([parent], keep=record)
        assert built == minima


def neighbor_lists(adj):
    return [[w for w in range(len(adj)) if (a >> w) & 1] for a in adj]


def cells_of(colors):
    """The ordered partition of a color vector: classes by color, members
    ascending."""
    return [[v for v, c in enumerate(colors) if c == k] for k in sorted(set(colors))]


def colors_of(cells):
    colors = [0] * sum(map(len, cells))
    for i, cell in enumerate(cells):
        for v in cell:
            colors[v] = i
    return colors, len(cells)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_refinement_equals_tuple_signature_refinement(data):
    # the packed int signatures must rank exactly as the tuples do, so the
    # partitions, and with them the certificates, are unchanged; every
    # cell is fresh, so every signature is recomputed
    n = data.draw(st.integers(min_value=1, max_value=10))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    mask = data.draw(st.integers(min_value=0, max_value=(1 << len(pairs)) - 1))
    adj = masks_from_edges(n, [p for i, p in enumerate(pairs) if (mask >> i) & 1])
    ncls = data.draw(st.integers(min_value=1, max_value=n))
    colors = [data.draw(st.integers(min_value=0, max_value=ncls - 1)) for _ in range(n)]
    colors = [sorted(set(colors)).index(c) for c in colors]
    colors[data.draw(st.integers(min_value=0, max_value=n - 1))] = -1
    cells = cells_of(colors)
    refined = enumerate_graphs._refine(neighbor_lists(adj), cells, list(range(len(cells))))
    assert colors_of(refined) == refine_reference(n, adj, colors)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_refinement_of_an_individualized_vertex_needs_only_its_old_cell(data):
    # from an equitable partition, individualizing v changes only v's
    # cell: counting neighbors in its two pieces alone, or in the first
    # piece [v] alone, gives the full refinement. The graph has a
    # fixed-point-free involution v <-> v + m that keeps the start colors,
    # so every cell has two members or more.
    m = data.draw(st.integers(min_value=1, max_value=5))
    pairs = [(i, j) for i in range(m) for j in range(i, m)]
    inner = data.draw(st.sets(st.sampled_from(pairs)))
    cross = data.draw(st.sets(st.sampled_from(pairs)))
    edges = [(u, w) for u, w in inner if u != w]
    edges += [(u + m, w + m) for u, w in edges]
    edges += [(u, w + m) for u, w in cross] + [(w, u + m) for u, w in cross if u != w]
    perm = data.draw(st.permutations(range(2 * m)))
    adj = permuted(masks_from_edges(2 * m, edges), perm)
    n = len(adj)
    start = [0] * n
    for v in range(m):
        start[perm[v]] = start[perm[v + m]] = data.draw(st.integers(min_value=0, max_value=2))
    nbrs = neighbor_lists(adj)
    cells = enumerate_graphs._refine(nbrs, cells_of(start), list(range(len(set(start)))))
    colors, ncls = colors_of(cells)
    assert refine_reference(n, adj, colors) == (colors, ncls)  # equitable
    assert all(len(cell) > 1 for cell in cells)
    i = data.draw(st.integers(min_value=0, max_value=len(cells) - 1))
    v = data.draw(st.sampled_from(cells[i]))
    rest = [w for w in cells[i] if w != v]
    individualized = [[v]] + cells[:i] + [rest] + cells[i + 1:]
    colors[v] = -1
    full = refine_reference(n, adj, colors)
    for fresh in ([0, i + 1], [0]):
        assert colors_of(enumerate_graphs._refine(nbrs, individualized, fresh)) == full


# SHA-256 prefix of (canonical_cert, automorphism_generators) over every
# graph of a set, recorded before the search refined ordered cells: the
# fixture graphs under two fixed seeded relabelings, and every 16th graph
# of the committed level-8 file. The certificate fixes every output list;
# the generator lists fix which subsets `augment_level` tries.
SEARCH_PINS = [
    ("fixture", 1, 996, "0aca8b2ce146dda1"),
    ("fixture", 2, 996, "80e142ce3cfa70df"),
    ("n8", None, 695, "7a9227ab8a5ab7f1"),
]


@pytest.mark.parametrize("source,seed,count,digest", SEARCH_PINS)
def test_certificates_and_generators_are_pinned(fixture_lines, source, seed, count, digest):
    if source == "n8":
        graphs = [
            tuple(from_graph6(s).adj_mask) for s in CONNECTED_N8.read_text().split()[::16]
        ]
    else:
        rng = random.Random(seed)
        graphs = []
        for line in fixture_lines:
            g = tuple(from_graph6(line).adj_mask)
            perm = list(range(len(g)))
            rng.shuffle(perm)
            graphs.append(permuted(g, perm))
    h = hashlib.sha256()
    for g in graphs:
        h.update(repr((canonical_cert(g), automorphism_generators(g))).encode())
    assert len(graphs) == count
    assert h.hexdigest()[:16] == digest


@pytest.mark.parametrize("n", range(1, 8))
def test_automorphism_generators_generate_the_automorphism_group(n):
    for g in relabeled_level(n, n):
        gens = automorphism_generators(g)
        for perm in gens:
            assert sorted(perm) == list(range(n))
            assert permuted(g, perm) == g
        assert group_order(n, gens) == automorphism_count_reference(g)


def test_certificates_equal_the_reference_on_the_fixture(fixture_lines):
    assert len(fixture_lines) == 996
    for line in fixture_lines:
        masks = tuple(from_graph6(line).adj_mask)
        assert canonical_cert(masks) == canonical_cert_reference(masks)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_candidate_filter_is_invariant_under_relabeling(data):
    # augment_level's keep contract: orbit pruning tests one subset per
    # orbit, so the filter must not depend on labels
    n = data.draw(st.integers(min_value=1, max_value=9))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    mask = data.draw(st.integers(min_value=0, max_value=(1 << len(pairs)) - 1))
    masks = masks_from_edges(n, [p for i, p in enumerate(pairs) if (mask >> i) & 1])
    perm = data.draw(st.permutations(range(n)))
    assert delta_critical_candidate(masks) == delta_critical_candidate(
        permuted(masks, list(perm))
    )


def test_candidate_filter_accepts_every_critical_class_two_graph():
    graphs = [from_graph6(line) for line in CLASS2_N7.read_text().split()]
    critical = [g for g in graphs if is_delta_critical(g)]
    assert len(critical) == 26
    assert all(delta_critical_candidate(tuple(g.adj_mask)) for g in critical)


def child_of(parent, subset):
    n = len(parent)
    return tuple(
        m | (1 << n) if (subset >> i) & 1 else m for i, m in enumerate(parent)
    ) + (subset,)


def level_8_sample(offset=0):
    # every 97th connected 8-vertex graph of the committed level-8 file
    lines = CONNECTED_N8.read_text().split()
    return [tuple(from_graph6(s).adj_mask) for s in lines[offset::97]]


def assert_bound_rejects_only_rejected_children(parent):
    # every subset outside the list gives a child the filter rejects
    listed = delta_critical_candidate.parent_bound(parent)
    assert listed == sorted(set(listed))
    outside = set(range(1, 1 << len(parent))) - set(listed)
    for subset in sorted(outside):
        assert not delta_critical_candidate(child_of(parent, subset)), (parent, subset)


@pytest.mark.parametrize("n", range(1, 7))
def test_parent_bound_rejects_only_children_the_filter_rejects(n):
    # exhaustive over every subset of every parent of the level, in two
    # labelings
    for parent in connected_graphs(n) + relabeled_level(n, n):
        assert_bound_rejects_only_rejected_children(parent)


def test_parent_bound_rejects_only_children_the_filter_rejects_on_level_8():
    for parent in level_8_sample():
        assert_bound_rejects_only_rejected_children(parent)


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_parent_bound_is_sound_on_random_connected_graphs(data):
    n = data.draw(st.integers(min_value=1, max_value=8))
    # a random spanning tree makes the graph connected
    tree = [(data.draw(st.integers(min_value=0, max_value=v - 1)), v) for v in range(1, n)]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    mask = data.draw(st.integers(min_value=0, max_value=(1 << len(pairs)) - 1))
    extra = [p for i, p in enumerate(pairs) if (mask >> i) & 1]
    assert_bound_rejects_only_rejected_children(masks_from_edges(n, tree + extra))


def test_parent_bound_lists_a_union_of_orbits():
    # augment_level takes the least listed subset of each orbit, so a
    # list must equal its image under every automorphism
    parents = [p for n in range(1, 8) for p in connected_graphs(n) + relabeled_level(n, n)]
    for parent in parents + level_8_sample():
        listed = delta_critical_candidate.parent_bound(parent)
        for perm in automorphism_generators(parent):
            image = sorted(
                sum(1 << perm[v] for v in range(len(parent)) if (s >> v) & 1)
                for s in listed
            )
            assert image == listed, (parent, perm)


@pytest.mark.parametrize("offset", [0, 48])
def test_bounded_augment_level_equals_unpruned_loop_on_level_8(offset):
    # the n = 9 candidates, as the benchmark grows them from a part of
    # level 8
    parents = level_8_sample(offset)
    keep = delta_critical_candidate
    assert augment_level(parents, keep) == augment_level_reference(parents, keep)


def test_parent_bound_cuts_filter_calls_below_orbit_minima():
    parents = connected_graphs(7)
    calls = []

    @functools.wraps(delta_critical_candidate)  # keeps parent_bound
    def counted(child):
        calls.append(child)
        return delta_critical_candidate(child)

    assert augment_level(parents, counted) == augment_level(
        parents, lambda child: delta_critical_candidate(child)
    )
    minima = sum(
        len(list(enumerate_graphs._orbit_minima(7, automorphism_generators(p), range(1, 1 << 7))))
        for p in parents
    )
    assert 0 < len(calls) < minima


def test_keep_without_bound_gets_every_orbit_minimum():
    for parent in relabeled_level(6, 6):
        built = []
        augment_level([parent], keep=lambda child: built.append(child[-1]))
        gens = automorphism_generators(parent)
        assert built == list(enumerate_graphs._orbit_minima(6, gens, range(1, 1 << 6)))
