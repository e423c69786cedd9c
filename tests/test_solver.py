import hashlib
from pathlib import Path

import pytest
from conftest import colorings_of, graphs_with_edge
from hypothesis import given, settings, strategies as st

from fanforge import solver
from fanforge.colorings import PartialEdgeColoring
from fanforge.graphs import (
    SimpleGraph,
    complete,
    cycle,
    degree_profile,
    delete_edge,
    delete_vertex,
    from_graph6,
    path,
    petersen,
    to_graph6,
)
from fanforge.solver import (
    ColoringSpace,
    EmptyGraphError,
    chromatic_index,
    count_colorings,
    critical_edges,
    is_critical_edge,
    is_delta_critical,
    is_just_overfull,
    is_overfull,
    node_budget_default,
    overfull_deficiency,
    parity_check,
)
from oracles import (
    chromatic_index_reference,
    colorable_reference,
    colorings_reference,
    count_colorings_reference,
    delta_critical_reference,
)

CRITICAL_N9 = Path(__file__).resolve().parent / "fixtures" / "critical_n1_9.g6"


@pytest.mark.parametrize(
    "g,chi,cls",
    [
        (cycle(4), 2, "one"),
        (cycle(5), 3, "two"),
        (cycle(6), 2, "one"),
        (complete(4), 3, "one"),
        (complete(5), 5, "two"),
        (petersen(), 4, "two"),
    ],
)
def test_known_chromatic_indices(g, chi, cls):
    cv = chromatic_index(g)
    assert cv.status == "ok"
    assert (cv.chi_prime, cv.cls) == (chi, cls)
    assert cv.witness.validate()
    assert cv.witness.k == chi


def test_petersen_cross_checked_against_plain_search():
    g = petersen()
    assert not colorable_reference(g.n, list(g.edges), 3)
    assert colorable_reference(g.n, list(g.edges), 4)
    assert chromatic_index_reference(g.n, list(g.edges)) == 4


def test_empty_graph_rejected():
    with pytest.raises(EmptyGraphError):
        chromatic_index(SimpleGraph(3, []))


def test_budget_exhaustion_returns_unknown():
    cv = chromatic_index(petersen(), budget=5)
    assert cv.status == "unknown"
    assert cv.chi_prime is None


@pytest.mark.parametrize("value", ["1e6", "-4", "lots"])
def test_bad_env_budget_raises(monkeypatch, value):
    monkeypatch.setenv("FANFORGE_BUDGET", value)
    with pytest.raises(ValueError, match="FANFORGE_BUDGET"):
        node_budget_default()
    with pytest.raises(ValueError, match="FANFORGE_BUDGET"):
        chromatic_index(cycle(5))


def test_env_budget_is_read(monkeypatch):
    monkeypatch.setenv("FANFORGE_BUDGET", "0")
    assert node_budget_default() == 0
    monkeypatch.setenv("FANFORGE_BUDGET", "")
    assert node_budget_default() == solver.DEFAULT_NODE_BUDGET


def test_cycle_edges_all_critical():
    g = cycle(5)
    for e in range(5):
        assert is_critical_edge(g, e)
    assert is_delta_critical(g)


def test_k5_is_not_critical():
    # deleting any edge keeps the graph overfull, so chi' stays 5
    g = complete(5)
    assert not is_critical_edge(g, 0)
    assert not is_delta_critical(g)
    assert critical_edges(g) == []


def test_k5_minus_edge_is_critical():
    g = delete_edge(complete(5), 0)
    assert is_delta_critical(g)
    assert len(critical_edges(g)) == g.m()


def test_petersen_minus_vertex_three_critical():
    g = delete_vertex(petersen(), 0)
    cv = chromatic_index(g)
    assert (cv.chi_prime, cv.cls) == (4, "two")
    assert is_delta_critical(g)


def test_criticality_needs_class_two():
    with pytest.raises(ValueError):
        is_critical_edge(cycle(4), 0)


def count_decisions(monkeypatch):
    """Lists that record, from here on, the graph of every chromatic_index
    call, the edge of every G - e decision and the graph of every
    `_colorable` search."""
    chi_calls, decided, searched = [], [], []
    real_chi = solver.chromatic_index
    real_decide = solver.GraphFacts._deletion_colorable
    real_colorable = solver._colorable

    def counting_chi(g, budget=None):
        chi_calls.append(g)
        return real_chi(g, budget)

    def counting_decide(facts, e):
        decided.append(e)
        return real_decide(facts, e)

    def counting_colorable(g, k, budget):
        searched.append(g)
        return real_colorable(g, k, budget)

    monkeypatch.setattr(solver, "chromatic_index", counting_chi)
    monkeypatch.setattr(solver.GraphFacts, "_deletion_colorable", counting_decide)
    monkeypatch.setattr(solver, "_colorable", counting_colorable)
    return chi_calls, decided, searched


# the connected class-2 graphs of the n <= 7 fixture that are not critical
# and have no proper subgraph that `_overfull_removal` certifies
UNCERTIFIED_NONCRITICAL = ["D~{", "FRvn_", "F]qzo", "F}yzw", "F~~vw", "F~~~w"]
# the fixture graphs where `_overfull_removal` fires
CERTIFIED = ["Ecto", "Eevg", "E{xw", "F_r^O", "F`bIo", "F`rMg", "F`r^O", "FwfbW"]


def test_delta_criticality_stops_at_first_noncritical_edge(monkeypatch):
    # no edge of these graphs is critical, so only edge 0 is asked, and
    # the class is decided without chromatic_index and its witness
    graphs = [from_graph6(line) for line in UNCERTIFIED_NONCRITICAL]
    for g in graphs:
        assert solver._overfull_removal(g) == 0
        assert not any(deletion_lowers_chi(g, e) for e in range(g.m()))
    chi_calls, decided, _ = count_decisions(monkeypatch)
    for line, g in zip(UNCERTIFIED_NONCRITICAL, graphs):
        decided.clear()
        assert not is_delta_critical(g)
        assert decided == [0], line
    assert len(chi_calls) == 0


def test_a_proper_overfull_subgraph_answers_without_a_search(monkeypatch):
    # Ecto is class 2, its edges 0-4 are critical and edge 5 is not;
    # G - 2 is overfull, so no G - e decision and no search is needed
    g = from_graph6("Ecto")
    assert [deletion_lowers_chi(g, e) for e in range(6)] == [True] * 5 + [False]
    assert solver._overfull_removal(g) == 1 << 2
    chi_calls, decided, searched = count_decisions(monkeypatch)
    assert not is_delta_critical(g)
    assert (chi_calls, decided, searched) == ([], [], [])


def test_class_two_equals_the_chromatic_index_class_over_the_fixture(fixture_lines):
    graphs = 0
    for line in fixture_lines:
        g = from_graph6(line)
        if g.edges:
            # decided before `verdict` is read, so by the decision itself
            facts = solver.GraphFacts(g, None)
            assert facts.class_two() == (chromatic_index(g).cls == "two"), line
            assert facts._verdict is None
            graphs += 1
    assert graphs == 995


def test_delta_criticality_equals_the_edge_by_edge_loop_over_the_fixture(fixture_lines):
    critical = 0
    for line in fixture_lines:
        g = from_graph6(line)
        if g.edges:
            want = delta_critical_reference(g)
            assert is_delta_critical(g) == want, line
            critical += want
    # C3, C5, C7, K5 - e, K7 - e and the rest of the fixture's critical graphs
    assert critical == sum(1 for line in CRITICAL_N9.read_text().split()
                           if from_graph6(line).n <= 7)


def test_overfull_removal_leaves_a_class_two_subgraph(fixture_lines):
    # where the certificate fires, G - T needs Delta(G) + 1 colors by a
    # brute-force search, so G is class 2 and not critical; and uncertified
    # non-critical class-2 graphs are the six above
    fired, uncertified = [], []
    for line in fixture_lines:
        g = from_graph6(line)
        if g.n < 2 or not g.edges:
            continue
        t = solver._overfull_removal(g)
        if t:
            fired.append(line)
            assert bin(t).count("1") == 1 + g.n % 2
            rest = [(u, v) for u, v in g.edges if not (t >> u & 1 or t >> v & 1)]
            assert chromatic_index_reference(g.n, rest) == degree_profile(g).delta + 1
            assert chromatic_index(g).cls == "two"
        elif g.is_connected() and chromatic_index(g).cls == "two" and not is_delta_critical(g):
            uncertified.append(line)
    assert fired == CERTIFIED
    assert uncertified == UNCERTIFIED_NONCRITICAL


def test_overfull_removal_fires_on_no_critical_graph():
    lines = CRITICAL_N9.read_text().split()
    assert len(lines) == 687
    assert not any(solver._overfull_removal(from_graph6(line)) for line in lines)


def test_edges_at_the_overfull_removal_are_answered_without_a_search(monkeypatch):
    # an edge with an end in T is not critical: G - e keeps G - T; the
    # answer agrees with the definition on every edge of every graph where
    # the certificate fires
    graphs = [from_graph6(line) for line in CERTIFIED]
    want = [[deletion_lowers_chi(g, e) for e in range(g.m())] for g in graphs]
    _, _, searched = count_decisions(monkeypatch)
    for line, g, crit in zip(CERTIFIED, graphs, want):
        t = solver._overfull_removal(g)
        at_t = [e for e, (u, v) in enumerate(g.edges) if t >> u & 1 or t >> v & 1]
        assert at_t
        facts = solver.GraphFacts(g, None)
        assert [facts.edge_critical(e) for e in at_t] == [False] * len(at_t), line
        assert searched == [], line
        assert [facts.edge_critical(e) for e in range(g.m())] == crit, line
        searched.clear()


def test_order_ten_graph_with_an_overfull_subgraph_is_decided_at_once(monkeypatch):
    # chromatic_index spends minutes on this graph without an answer; its
    # overfull G - v decides criticality with no search at all
    g = from_graph6("Iuv]}~~Vo")
    chi_calls, decided, searched = count_decisions(monkeypatch)
    assert not is_delta_critical(g)
    assert (chi_calls, decided, searched) == ([], [], [])
    assert solver.graph_facts(g).class_two()


@pytest.mark.parametrize(
    "g,nodes",
    [
        (cycle(5), 5),
        (complete(4), 6),
        (complete(5), 23),
        (complete(8), 28),
        (petersen(), 54),
        (delete_vertex(petersen(), 0), 74),
        (from_graph6("Ecto"), 14),
        (from_graph6("Funjw"), 16),
        (path(40), 39),
    ],
)
def test_chromatic_index_node_counts_are_pinned(g, nodes):
    # the fixed-order search walks the nodes it walked as a recursion, and
    # its budget is exact: those nodes suffice and one fewer does not
    cv = chromatic_index(g)
    assert cv.nodes == nodes
    at = chromatic_index(g, budget=nodes)
    assert at.status == "ok" and at.witness.to_line() == cv.witness.to_line()
    assert chromatic_index(g, budget=nodes - 1).status == "unknown"


def test_chromatic_index_is_pinned_over_the_fixture(fixture_lines):
    # chi', node count and witness of every graph with n <= 7 and an edge
    digest = hashlib.sha256()
    graphs = 0
    for line in fixture_lines:
        g = from_graph6(line)
        if g.edges:
            cv = chromatic_index(g)
            digest.update(f"{line} {cv.chi_prime} {cv.nodes} {cv.witness.to_line()}\n".encode())
            graphs += 1
    assert graphs == 995
    assert digest.hexdigest() == (
        "a67d76a34174b01e1475b9c957af9afce4bf3a78e36dfd1a490d833772b5e009"
    )


def test_chromatic_index_witnesses_are_pinned():
    # the witness is the first coloring in the fixed order; parity prints it
    assert chromatic_index(petersen()).witness.to_line() == (
        "4; 0=1,1=2,2=3,3=2,4=3,5=1,6=3,7=3,8=2,9=1,10=1,11=4,12=1,13=2,14=4"
    )
    assert chromatic_index(delete_vertex(petersen(), 0)).witness.to_line() == (
        "4; 0=3,1=1,2=2,3=2,4=4,5=1,6=3,7=4,8=2,9=1,10=4,11=3"
    )


def test_searches_on_a_deep_path_have_no_recursion_limit():
    g = path(1201)
    cv = chromatic_index(g)
    assert (cv.chi_prime, cv.cls) == (2, "one")
    assert cv.witness.validate()
    colors, nodes = solver._colorable(g, 2, 10**6)
    assert nodes == 1200
    assert PartialEdgeColoring.from_assignment(g, 2, colors).validate()
    assert solver._colorable(g, 1, 10**6)[0] is None


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_colorable_agrees_with_reference(data):
    n = data.draw(st.integers(2, 7))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = data.draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=12, unique=True))
    g = SimpleGraph(n, edges)
    delta = max(g.degrees())
    for k in (delta - 1, delta, delta + 1):
        colors, nodes = solver._colorable(g, k, 10**8)
        ok = colors is not None
        assert ok == colorable_reference(g.n, list(g.edges), k), k
        assert nodes >= (len(g.edges) if ok else 0)
        if ok:  # a proper k-coloring of every edge
            phi = PartialEdgeColoring.from_assignment(g, k, colors)
            assert phi.is_complete() and phi.validate()


CLASS2_N7 = Path(__file__).resolve().parent.parent / "perfbench" / "data" / "class2_n7.g6"


def test_colorable_is_pinned_over_the_class_two_corpus():
    # colorings and node counts of the DSATUR search on G - e at Delta
    # colors, for every critical edge e of every graph of the corpus
    digest = hashlib.sha256()
    searches = 0
    for line in CLASS2_N7.read_text().split():
        g = from_graph6(line)
        delta = degree_profile(g).delta
        for e in critical_edges(g):
            colors, nodes = solver._colorable(delete_edge(g, e), delta, 10**8)
            digest.update(f"{line} {e} {colors} {nodes}\n".encode())
            searches += 1
    assert searches == 390
    assert digest.hexdigest() == (
        "aa1779e0d5d5dad955de7f2aea3b54120f0cbe0ed956092cb7d068ddf70feef8"
    )


def test_colorable_raises_when_the_budget_runs_out():
    with pytest.raises(solver.BudgetExceeded):
        solver._colorable(petersen(), 3, 5)
    # the dynamic-order budget is exact, as the fixed order's is: the
    # nodes a search reports suffice for the same answer, "no" answers
    # included, and one fewer does not
    for g, k, nodes in [
        (petersen(), 3, 30),
        (petersen(), 4, 15),
        (complete(5), 4, 12),
        (delete_edge(complete(5), 0), 4, 13),
        (cycle(5), 2, 4),
        (from_graph6("FDhm_"), 3, 9),
        (delete_edge(from_graph6("FDhm_"), 0), 3, 9),
        (path(40), 2, 39),
    ]:
        found = solver._colorable(g, k, 10**8)
        assert found[1] == nodes
        assert solver._colorable(g, k, nodes) == found
        with pytest.raises(solver.BudgetExceeded):
            solver._colorable(g, k, nodes - 1)


def deletion_lowers_chi(g, e):
    """Criticality by its definition: chi'(G - e) < chi'(G)."""
    return chromatic_index(delete_edge(g, e)).chi_prime < chromatic_index(g).chi_prime


def shift_certificates_of_one_search(g, e):
    """The (edge, coloring) certificates that the search for G - e
    yields: its Delta-coloring of G - e and every shift from it."""
    delta = degree_profile(g).delta
    rest, _ = solver._colorable(delete_edge(g, e), delta, 10**8)
    if rest is None:
        return []
    colors = rest[:e] + [None] + rest[e:]
    return [(e, colors)] + list(solver.shift_certificates(g, colors, e))


def assert_criticality_is_the_deletion_definition(g):
    """edge_critical equals the definition, and every certificate of every
    search is a Delta-coloring of G - f. Returns how many certificates
    came from shifts."""
    delta = degree_profile(g).delta
    facts = solver.GraphFacts(g, None)
    assert facts.verdict.cls == "two"
    want = [deletion_lowers_chi(g, e) for e in range(g.m())]
    assert [facts.edge_critical(e) for e in range(g.m())] == want, to_graph6(g)
    shifted = 0
    for e in range(g.m()):
        certs = shift_certificates_of_one_search(g, e)
        assert len({f for f, _ in certs}) == len(certs), (to_graph6(g), e)
        for f, colors in certs:
            phi = PartialEdgeColoring.from_assignment(g, delta, colors, uncolored=f)
            assert phi.validate() and want[f], (to_graph6(g), e, f)
        shifted += max(len(certs) - 1, 0)
    return shifted


def test_edge_criticality_is_the_deletion_definition_on_the_class_two_corpus():
    lines = CLASS2_N7.read_text().split()
    assert len(lines) == 40
    shifted = sum(assert_criticality_is_the_deletion_definition(from_graph6(line)) for line in lines)
    assert shifted > 0  # the shifts are not vacuous on the corpus


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_edge_criticality_is_the_deletion_definition_on_random_class_two_graphs(data):
    # a relabeled corpus graph beside a random graph on at most 3 more
    # vertices: max degree at most 2 there, so the union stays class 2
    base = from_graph6(data.draw(st.sampled_from(CLASS2_N7.read_text().split())))
    extra = data.draw(st.integers(0, 3))
    n = base.n + extra
    perm = data.draw(st.permutations(range(n)))
    pairs = [(u, v) for u in range(base.n, n) for v in range(u + 1, n)]
    more = data.draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    g = SimpleGraph(n, [(perm[u], perm[v]) for u, v in list(base.edges) + more])
    assert_criticality_is_the_deletion_definition(g)


def test_shift_certificates_follow_the_shift_rule():
    # C5 minus edge 0-1, colored 1,2,1,2 along 1-2-3-4-0. At end 0, edge
    # 0-4 has color 2, which 1 misses, so 0-1 takes 2 and 0-4 is
    # uncolored; at end 1, edge 1-2 has color 1, which 0 misses. The
    # shifts go on breadth-first around the cycle, and never back to 0-1.
    g = cycle(5)
    e01, e12, e23, e34, e04 = (g.edge_id(*p) for p in [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    colors = [None] * 5
    for f, c in ((e12, 1), (e23, 2), (e34, 1), (e04, 2)):
        colors[f] = c
    certs = list(solver.shift_certificates(g, colors, e01))
    assert [f for f, _ in certs] == [e04, e12, e34, e23]
    assert certs[0][1] == [2 if f == e01 else None if f == e04 else colors[f] for f in range(5)]
    assert certs[1][1] == [1 if f == e01 else None if f == e12 else colors[f] for f in range(5)]
    assert colors[e01] is None and colors[e04] == 2  # the input is not touched
    # a settled edge is neither yielded nor shifted on from
    assert [f for f, _ in solver.shift_certificates(g, colors, e01, {e04})] == [e12, e23, e34]
    assert list(solver.shift_certificates(g, colors, e01, {e04, e12})) == []


def test_shifts_settle_edges_without_search_and_keep_the_memo(monkeypatch):
    # C5: the coloring found for C5 - e shifts to every other edge, so one
    # search decides all five; an edge memoized as over budget stays so
    searched = []
    real_colorable = solver._colorable

    def counting_colorable(g, k, budget):
        searched.append(g.edges)
        return real_colorable(g, k, budget)

    monkeypatch.setattr(solver, "_colorable", counting_colorable)
    facts = solver.GraphFacts(cycle(5), None)
    facts._critical[1] = None
    assert facts.edge_critical(0)
    assert len(searched) == 1
    assert all(facts.edge_critical(e) for e in (2, 3, 4))
    with pytest.raises(solver.BudgetExceeded):
        facts.edge_critical(1)
    assert len(searched) == 1


def test_disconnected_degenerate():
    # C5 plus an isolated vertex: class two with every edge critical, yet
    # not critical as a graph - dropping the isolated vertex is a proper
    # subgraph with the same chromatic index
    g = SimpleGraph(6, list(cycle(5).edges))
    assert chromatic_index(g).cls == "two"
    assert all(is_critical_edge(g, e) for e in range(g.m()))
    assert not is_delta_critical(g)


@pytest.mark.parametrize(
    "g,over,just",
    [
        (complete(5), True, False),
        (cycle(5), True, True),
        (delete_vertex(petersen(), 0), False, False),
        (cycle(4), False, False),
    ],
)
def test_overfull_arithmetic(g, over, just):
    assert is_overfull(g) == over
    assert is_just_overfull(g) == just


def test_overfull_deficiency_values():
    assert overfull_deficiency(cycle(5)) == 0
    assert overfull_deficiency(complete(5)) == -2
    assert overfull_deficiency(delete_vertex(petersen(), 0)) == 2
    with pytest.raises(ValueError):
        overfull_deficiency(cycle(4))


def test_parity_on_witnesses():
    for g in (complete(4), cycle(6), cycle(5)):
        cv = chromatic_index(g)
        rep = parity_check(g, cv.witness)
        assert rep.ok
        assert all(cnt % 2 == g.n % 2 for cnt in rep.counts.values())


def test_parity_k4_every_color_everywhere():
    rep = parity_check(complete(4), chromatic_index(complete(4)).witness)
    assert all(cnt == 0 for cnt in rep.counts.values())


def test_parity_requires_complete():
    g = cycle(5)
    phi = chromatic_index(g).witness.copy()
    partial = PartialEdgeColoring.from_assignment(
        g, phi.k, list(phi.assignment[:-1]) + [None]
    )
    with pytest.raises(ValueError):
        parity_check(g, partial)


def test_enumerate_c5_minus_edge():
    space = ColoringSpace(cycle(5), 0, 2)
    en = colorings_of(space)
    assert len(en) == 2 and not space.raw_prefix()[2]
    for phi in en:
        assert phi.validate()
        assert phi.uncolored == 0


def test_enumerate_single_edge_graph():
    g = SimpleGraph(2, [(0, 1)])
    en = colorings_of(ColoringSpace(g, 0, 1))
    assert len(en) == 1
    assert en[0].uncolored == 0


def test_enumerate_count_matches_reference():
    g = delete_edge(complete(4), 0)  # K4 minus an edge
    mine = count_colorings(g, None, 3)
    ref = count_colorings_reference(g.n, list(g.edges), 3)
    assert mine == ref
    k4 = complete(4)
    assert count_colorings(k4, 0, 3) == count_colorings_reference(
        k4.n, [p for i, p in enumerate(k4.edges) if i != 0], 3
    )


@settings(max_examples=100, deadline=None)
@given(graphs_with_edge())
def test_count_colorings_orbit_sums_equal_the_full_count(graph_edge):
    g, e = graph_edge
    live = [p for i, p in enumerate(g.edges) if i != e]
    delta = max(g.degrees())
    # delta - 1 is below the maximum degree of G - e unless e meets
    # every vertex of degree delta: no coloring, and no ColoringSpace
    for k in (delta - 1, delta, delta + 1):
        assert count_colorings(g, e, k) == count_colorings_reference(g.n, live, k), k


def first_use_relabeling(colors):
    """The coloring whose colors are renamed 1, 2, ... in the order they
    first appear along the edge ids."""
    names = {}
    return tuple(None if c is None else names.setdefault(c, len(names) + 1) for c in colors)


@settings(max_examples=80, deadline=None)
@given(graphs_with_edge(max_edges=8), st.data())
def test_prefix_from_orbits_equals_iter_colorings(graph_edge, data):
    # the merge of the orbits is the enumeration, truncated or whole, and
    # each coloring's orbit is the index of its first-use form in normal()
    g, e = graph_edge
    delta = max(g.degrees())
    for k in (delta, delta + 1):
        if count_colorings(g, e, k) > 5000:
            continue  # the reference materializes every coloring
        full = colorings_reference(g.n, list(g.edges), e, k)
        normal = [tuple(phi.assignment) for phi in ColoringSpace(g, e, k).normal()]
        below = data.draw(st.integers(0, max(len(full) - 1, 0)))
        above = data.draw(st.integers(len(full), len(full) + 3))
        # one space per sequence of limits: a fresh one, one that built a
        # true prefix first, one that holds the whole space already
        for limits in ((None,), (below,), (above,), (below, None, below), (above, below)):
            space = ColoringSpace(g, e, k)
            for limit in limits:
                colors, orbits, truncated = space.raw_prefix(limit)
                en = colorings_of(space, limit)
                assert [phi.assignment for phi in en] == full[:limit]
                assert [list(c) for c in colors] == full[:limit]
                assert truncated == (limit is not None and len(full) > limit)
                assert orbits == [
                    normal.index(first_use_relabeling(phi.assignment)) for phi in en
                ]
            # an orbit's first member is the normal coloring itself
            built = space.normal()
            for i, orbit in enumerate(orbits):
                if orbit not in orbits[:i]:
                    assert space.coloring(i) is built[orbit]


def test_raw_prefix_builds_no_coloring(monkeypatch):
    # a caller that reads only the orbits builds nothing; coloring(i)
    # builds member i alone, once
    built = []
    real = PartialEdgeColoring.from_assignment.__func__

    def counting(cls, g, k, colors, **kwargs):
        built.append(tuple(colors))
        return real(cls, g, k, colors, **kwargs)

    monkeypatch.setattr(PartialEdgeColoring, "from_assignment", classmethod(counting))
    space = ColoringSpace(petersen(), 0, 4)
    colors, orbits, truncated = space.raw_prefix(60)
    assert len(colors) == len(orbits) == 60 and truncated and not built
    assert space.coloring(59) is space.coloring(59)
    assert built == [colors[59]]


@pytest.mark.parametrize(
    "g,e,k",
    [
        (cycle(5), None, 3),
        (complete(4), None, 3),
        (complete(4), 2, 4),
        (delete_edge(complete(5), 0), 3, 4),
        (from_graph6("Feujg"), 5, 4),
        (petersen(), 0, 4),
    ],
)
def test_normal_leaves_are_one_per_color_renaming_orbit(g, e, k):
    live = [i for i in range(g.m()) if i != e]

    def leaves(dynamic):
        colors = [None] * g.m()
        return [
            tuple(colors)
            for _ in solver._backtrack(g, live, k, solver._UNBOUNDED, colors, dynamic)
        ]

    orbits = {first_use_relabeling(c) for c in colorings_reference(g.n, list(g.edges), e, k)}
    fixed = leaves(False)
    assert fixed == sorted(orbits)
    # the dynamic (DSATUR) order reaches each orbit once too, at some
    # member of it that is not always the least
    renamed = sorted(first_use_relabeling(c) for c in leaves(True))
    assert renamed == fixed


def test_enumerate_truncation_flagged():
    colors, _, truncated = ColoringSpace(complete(4), None, 4).raw_prefix(3)
    assert truncated and len(colors) == 3


def test_enumerate_k_below_delta_rejected():
    with pytest.raises(ValueError):
        ColoringSpace(complete(4), None, 2)


@pytest.mark.parametrize(
    "g,e,k",
    [
        (cycle(5), 0, 2),
        (cycle(5), None, 3),
        (complete(4), None, 3),
        (complete(4), 2, 4),
        (delete_edge(complete(5), 0), 3, 4),
        (from_graph6("Feujg"), None, 4),
        (from_graph6("Feujg"), 5, 4),
        (SimpleGraph(3, []), None, 2),
    ],
)
def test_iter_colorings_matches_reference_order(g, e, k):
    # the enumeration order, from the merge of the orbits
    mine = [phi.assignment for phi in colorings_of(ColoringSpace(g, e, k))]
    assert mine == colorings_reference(g.n, list(g.edges), e, k)


def test_iter_colorings_deep_path_has_no_recursion_limit():
    g = path(3001)  # 3,000 edges, far beyond the interpreter's recursion limit
    phi = colorings_of(ColoringSpace(g, None, 2), 1)[0]
    assert phi.assignment == [1 + i % 2 for i in range(3000)]
    assert phi.validate()


def test_coloring_space_is_lazy(monkeypatch):
    # a prefix walks the normal colorings of the orbits it takes from, and
    # at most one more, which starts an orbit past the prefix
    walked = []
    real = solver._backtrack

    def counting(*args):
        for leaf in real(*args):
            walked.append(leaf)
            yield leaf

    monkeypatch.setattr(solver, "_backtrack", counting)
    space = ColoringSpace(petersen(), 0, 4)
    assert walked == []
    _, orbits, truncated = space.raw_prefix(3)
    assert truncated and orbits == [0, 1, 2] and len(walked) == 3
    space.raw_prefix(2)
    assert len(walked) == 3  # a shorter prefix reuses what is stored
    _, orbits, _ = space.raw_prefix(60)
    assert len(set(orbits)) == 32 and len(walked) == 33
    assert space.size(60) > 60 and len(walked) == 33


def test_enumerate_deterministic_order():
    a = [phi.to_line() for phi in colorings_of(ColoringSpace(cycle(5), 0, 3), 20)]
    b = [phi.to_line() for phi in colorings_of(ColoringSpace(cycle(5), 0, 3), 20)]
    assert a == b


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_vizing_bound_and_reference_agreement(fixture_lines, data):
    line = data.draw(st.sampled_from(fixture_lines))
    g = from_graph6(line)
    if not g.edges:
        return
    cv = chromatic_index(g)
    d = degree_profile(g).delta
    assert cv.chi_prime in (d, d + 1)
    assert cv.witness.validate()
    if g.m() <= 10:
        assert cv.chi_prime == chromatic_index_reference(g.n, list(g.edges))


def test_overfull_implies_class_two(fixture_lines):
    for line in fixture_lines[::17]:
        g = from_graph6(line)
        if g.n >= 2 and g.edges and is_overfull(g):
            assert chromatic_index(g).cls == "two"


def test_class_two_proofs_cross_checked():
    # the two central class-2 exhaustion proofs agree with the plain
    # reference decider: no 3-coloring of Petersen minus a vertex, no
    # 4-coloring of K5 minus an edge
    pm = delete_vertex(petersen(), 0)
    assert not colorable_reference(pm.n, list(pm.edges), 3)
    assert colorable_reference(pm.n, list(pm.edges), 4)
    k5e = delete_edge(complete(5), 0)
    assert not colorable_reference(k5e.n, list(k5e.edges), 4)
    assert colorable_reference(k5e.n, list(k5e.edges), 5)
