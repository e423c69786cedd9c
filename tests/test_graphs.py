import pickle

import pytest
from hypothesis import given, settings, strategies as st

from fanforge.graphs import (
    SimpleGraph,
    complete,
    cycle,
    degree_profile,
    delete_edge,
    delete_vertex,
    incident,
    is_core_acyclic,
    light_vertices,
    path,
    petersen,
    star,
)


def test_rejects_loops_and_parallels():
    with pytest.raises(ValueError):
        SimpleGraph(3, [(0, 0)])
    with pytest.raises(ValueError):
        SimpleGraph(3, [(0, 1), (1, 0)])
    with pytest.raises(ValueError):
        SimpleGraph(2, [(0, 5)])


def test_construction_errors_name_the_first_fault_in_input_order():
    with pytest.raises(ValueError, match=r"^loop at vertex 2$"):
        SimpleGraph(3, [(0, 1), (2, 2)])
    with pytest.raises(ValueError, match=r"^edge \(0,5\) out of range for n=2$"):
        SimpleGraph(2, [(0, 5)])
    with pytest.raises(ValueError, match=r"^parallel edge \(0, 1\)$"):
        SimpleGraph(3, [[1, 0], (0, 1), (2, 2)])
    with pytest.raises(ValueError, match=r"^loop at vertex 2$"):
        SimpleGraph(3, [(2, 2), (0, 1), (1, 0)])
    with pytest.raises(ValueError, match="non-negative"):
        SimpleGraph(-1, [])


@st.composite
def edge_inputs(draw, max_n=12):
    """(n, the simple graph's edge set, the same edges as a constructor
    argument: shuffled, each pair in either orientation, as a tuple or a
    list)."""
    n = draw(st.integers(min_value=0, max_value=max_n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    chosen = draw(st.permutations(chosen))
    given_as = []
    for u, v in chosen:
        if draw(st.booleans()):
            u, v = v, u
        given_as.append((u, v) if draw(st.booleans()) else [u, v])
    return n, set(chosen), given_as


@settings(max_examples=200, deadline=None)
@given(edge_inputs())
def test_construction_matches_an_independent_reference(case):
    n, edge_set, given_as = case
    g = SimpleGraph(n, given_as)
    ref_edges = tuple(sorted(edge_set))
    assert g.n == n
    assert g.edges == ref_edges
    assert all(type(p) is tuple for p in g.edges)
    assert g.edge_index == {p: i for i, p in enumerate(ref_edges)}
    nbrs = {v: set() for v in range(n)}
    for u, v in edge_set:
        nbrs[u].add(v)
        nbrs[v].add(u)
    assert g.adjacency == tuple(tuple(sorted(nbrs[v])) for v in range(n))
    assert g.adj_mask == tuple(sum(1 << w for w in nbrs[v]) for v in range(n))


@settings(max_examples=100, deadline=None)
@given(edge_inputs(), st.data())
def test_delete_edge_is_construction_without_the_edge(case, data):
    n, _, given_as = case
    g = SimpleGraph(n, given_as)
    if not g.edges:
        return
    e = data.draw(st.integers(min_value=0, max_value=len(g.edges) - 1))
    h = delete_edge(g, e)
    ref = SimpleGraph(n, [p for i, p in enumerate(g.edges) if i != e])
    assert (h.edges, h.edge_index, h.adjacency, h.adj_mask) == (
        ref.edges, ref.edge_index, ref.adjacency, ref.adj_mask
    )
    # G - e shares its pair objects with G
    assert all(h.edges[i] is g.edges[i if i < e else i + 1] for i in range(len(h.edges)))


def test_edges_sorted_and_indexed():
    g = SimpleGraph(4, [(3, 2), (1, 0), (0, 3)])
    assert g.edges == ((0, 1), (0, 3), (2, 3))
    assert g.edge_id(3, 0) == 1
    assert g.other_end(2, 3) == 2


def test_degree_profile_k5():
    p = degree_profile(complete(5))
    assert p.delta == 4
    assert p.delta_vertices == (0, 1, 2, 3, 4)
    assert p.core_min_degree == p.core_max_degree == 4


def test_degree_profile_star():
    p = degree_profile(star(3))
    assert p.delta == 3
    assert p.delta_vertices == (0,)
    assert p.core_min_degree == 0 and p.core_max_degree == 0


def test_degree_profile_petersen_minus_vertex():
    g = delete_vertex(petersen(), 0)
    p = degree_profile(g)
    assert g.n == 9 and g.m() == 12
    assert p.delta == 3
    assert len(p.delta_vertices) == 6
    # core = induced subgraph on the six degree-3 vertices
    core_degs = sorted(
        sum(1 for w in g.adjacency[v] if w in p.delta_vertices)
        for v in p.delta_vertices
    )
    assert core_degs[0] == p.core_min_degree
    assert core_degs[-1] == p.core_max_degree


def test_core_acyclic():
    assert is_core_acyclic(star(3))
    assert not is_core_acyclic(complete(5))


def test_core_acyclic_c5_with_pendant():
    # attach a pendant to one C5 vertex: that vertex has degree 3 = Delta,
    # so the core is a single vertex, a forest
    g = SimpleGraph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 5)])
    p = degree_profile(g)
    assert p.delta == 3 and p.delta_vertices == (0,)
    assert is_core_acyclic(g)


def test_light_vertices():
    assert light_vertices(cycle(5)) == (0, 1, 2, 3, 4)
    assert light_vertices(complete(5)) == ()
    g = delete_vertex(petersen(), 0)
    lv = light_vertices(g)
    prof = degree_profile(g)
    for v in range(g.n):
        cnt = sum(1 for w in g.adjacency[v] if prof.degrees[w] == prof.delta)
        assert (v in lv) == (cnt <= 2)


def test_incident_maps_each_neighbor_to_its_edge_id():
    g = delete_vertex(petersen(), 0)
    inc = incident(g)
    assert inc is incident(g)
    for v in range(g.n):
        assert tuple(inc[v]) == g.adjacency[v]
        assert all(e == g.edge_id(v, w) for w, e in inc[v].items())
    # like the other memos, the table stays out of pickles
    assert not hasattr(pickle.loads(pickle.dumps(g)), "_incident")


def test_generators():
    assert cycle(5).m() == 5
    assert all(d == 2 for d in cycle(5).degrees())
    assert complete(5).m() == 10
    assert petersen().m() == 15
    assert all(d == 3 for d in petersen().degrees())
    assert path(4).degrees() == (1, 2, 2, 1)
    with pytest.raises(ValueError):
        cycle(2)


def test_delete_vertex_swaps_last_into_hole():
    g = delete_vertex(petersen(), 0)
    assert g.n == 9 and g.m() == 12
    # old vertex 9 now sits at id 0; old 9 was adjacent to 4, 6, 7
    pet = petersen()
    old = {w for w in pet.adjacency[9]}
    assert set(g.adjacency[0]) == old - {9} | (set() if 9 not in old else set())
    with pytest.raises(ValueError):
        delete_vertex(g, 99)


def test_delete_edge_from_cycle_is_path():
    for e in range(5):
        h = delete_edge(cycle(5), e)
        degs = sorted(h.degrees())
        assert degs == [1, 1, 2, 2, 2]
    with pytest.raises(ValueError):
        delete_edge(cycle(5), 7)


def test_degree_sum_is_twice_edges(fixture_lines):
    from fanforge.graphs import from_graph6

    for line in fixture_lines[::37]:
        g = from_graph6(line)
        assert sum(g.degrees()) == 2 * g.m()
        prof = degree_profile(g)
        assert prof.delta == max(len(a) for a in g.adjacency)


def test_light_vertices_agree_with_core_degrees(fixture_lines):
    # on max-degree vertices, lightness is exactly core degree <= 2
    from fanforge.graphs import from_graph6

    for line in fixture_lines[::23]:
        g = from_graph6(line)
        prof = degree_profile(g)
        lv = set(light_vertices(g))
        dv = set(prof.delta_vertices)
        for v in dv:
            core_deg = sum(1 for w in g.adjacency[v] if w in dv)
            assert (v in lv) == (core_deg <= 2)
