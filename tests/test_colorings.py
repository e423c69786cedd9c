import random
from pathlib import Path

import pytest
from conftest import colorings_of, graphs_with_edge, leaf_padded_gadget
from hypothesis import given, settings, strategies as st
from oracles import (
    are_linked_reference,
    chain_at_reference,
    chains_reference,
    kempe_bfs_reference,
    kempe_swap_reference,
)

from fanforge.colorings import (
    BothColorsPresentError,
    Chain,
    ColoringError,
    PartialEdgeColoring,
    StaleChainError,
    are_linked,
    kempe_bfs,
    kempe_swap,
    kempe_swap_at,
    swap_moves,
)
from fanforge.fans import grow_multifan, stability_class
from fanforge.graphs import SimpleGraph, complete, cycle, degree_profile, from_graph6, path
from fanforge.solver import ColoringSpace, chromatic_index

CLASS2_N7 = Path(__file__).resolve().parent.parent / "perfbench" / "data" / "class2_n7.g6"


def test_validate_proper_path():
    g = path(3)
    phi = PartialEdgeColoring.from_assignment(g, 2, [1, 2])
    assert phi.validate()


def test_adjacent_same_color_rejected():
    g = path(3)
    with pytest.raises(ColoringError):
        PartialEdgeColoring.from_assignment(g, 2, [1, 1])


def test_solver_witness_validates():
    cv = chromatic_index(complete(4))
    assert cv.witness.validate()


def test_missing_present_partition():
    g = SimpleGraph(4, [(0, 1)])
    phi = PartialEdgeColoring.from_assignment(g, 3, [2])
    assert phi.missing_at(2) == (1, 2, 3)  # isolated vertex misses everything
    assert phi.missing_at(0) == (1, 3)


def test_degree_k_vertex_misses_nothing():
    g = complete(4)
    cv = chromatic_index(g)
    phi = cv.witness
    for v in range(4):
        assert phi.missing_at(v) == ()


def test_c5_fixture_missing_sets(c5_fixture):
    g, phi = c5_fixture
    assert phi.missing_at(0) == (1,)
    assert phi.missing_at(1) == (2,)
    assert phi.is_elementary([0, 1])


def test_elementary_cases(c5_fixture):
    g, phi = c5_fixture
    assert phi.is_elementary([0])
    # a vertex listed twice clashes with itself unless it misses nothing
    h = SimpleGraph(3, [(0, 1)])
    psi = PartialEdgeColoring.from_assignment(h, 1, [1])
    assert not psi.is_elementary([2, 2])
    assert psi.is_elementary([0, 0])
    # two isolated vertices share every missing color
    h2 = SimpleGraph(4, [(0, 1)])
    psi2 = PartialEdgeColoring.from_assignment(h2, 1, [1])
    assert not psi2.is_elementary([2, 3])


def test_chain_trivial_when_both_missing():
    g = SimpleGraph(3, [(0, 1)])
    phi = PartialEdgeColoring.from_assignment(g, 2, [1])
    ch = phi.chain_at(2, 1, 2)
    assert ch.kind == "path" and ch.vertices == (2,) and ch.edges == ()


def test_chain_cycle_c4():
    phi = PartialEdgeColoring.from_assignment(cycle(4), 2, [1, 2, 2, 1])
    ch = phi.chain_at(0, 1, 2)
    assert ch.kind == "cycle"
    assert len(ch.edges) == 4
    # swap on a cycle chain changes no missing sets
    phi2 = kempe_swap(phi, ch)
    for v in range(4):
        assert phi2.missing_at(v) == phi.missing_at(v)


def test_chain_path_endpoints(c5_fixture):
    g, phi = c5_fixture
    ch = phi.chain_at(1, 1, 2)
    assert ch.kind == "path"
    assert set(ch.endpoints()) == {0, 1}


def test_swap_involution(c5_fixture):
    g, phi = c5_fixture
    ch = phi.chain_at(2, 1, 2)
    back = kempe_swap(kempe_swap(phi, ch), ch)
    assert back.signature() == phi.signature()


def test_edge_with_color_rejects_colors_outside_the_palette():
    phi = PartialEdgeColoring.from_assignment(path(3), 2, [1, 2])
    assert phi.edge_with_color(1, 2) == 1
    for c in (0, 3):
        with pytest.raises(ColoringError):
            phi.edge_with_color(1, c)


def test_single_edge_swap():
    g = SimpleGraph(2, [(0, 1)])
    phi = PartialEdgeColoring.from_assignment(g, 2, [1])
    ch = phi.chain_at(0, 1, 2)
    phi2 = kempe_swap(phi, ch)
    assert phi2.color_of(0) == 2


def test_stale_chain_rejected(c5_fixture):
    g, phi = c5_fixture
    # recolor one chain edge with a third color: the extracted chain is stale
    wide = PartialEdgeColoring.from_assignment(g, 3, list(phi.assignment))
    ch = wide.chain_at(2, 1, 2)
    other = PartialEdgeColoring.from_assignment(g, 3, [None, 2, 1, 3, 1])
    with pytest.raises(StaleChainError):
        kempe_swap(other, ch)


def test_are_linked(c5_fixture):
    g, phi = c5_fixture
    assert are_linked(phi, 0, 1, 1, 2)
    assert are_linked(phi, 0, 0, 1, 2)
    # symmetric in vertices and colors
    assert are_linked(phi, 1, 0, 2, 1)
    h = SimpleGraph(4, [(0, 1)])
    psi = PartialEdgeColoring.from_assignment(h, 2, [1])
    assert not are_linked(psi, 2, 3, 1, 2)
    with pytest.raises(BothColorsPresentError):
        are_linked(phi, 2, 0, 1, 2)  # vertex 2 has both colors present


def _linked_or_raises(linked, phi, u, v, a, b):
    try:
        return linked(phi, u, v, a, b)
    except BothColorsPresentError:
        return "both present"


@settings(max_examples=80, deadline=None)
@given(graphs_with_edge(), st.data())
def test_are_linked_equals_the_reference_walk(graph_edge, data):
    # every (u, v) of a few colorings, u == v and vertices that miss both
    # colors or see both among them, and one state a swap away
    g, e = graph_edge
    delta = max(g.degrees())
    k = max(delta + data.draw(st.integers(0, 1)), 2)  # two colors to pair
    states = colorings_of(ColoringSpace(g, e, k), 2)
    if states:
        moves = list(swap_moves(states[0]))
        if moves:
            states.append(kempe_swap(states[0], data.draw(st.sampled_from(moves))))
    for phi in states:
        a, b = data.draw(st.permutations(range(1, k + 1)))[:2]
        for u in range(g.n):
            for v in range(g.n):
                assert _linked_or_raises(are_linked, phi, u, v, a, b) == \
                    _linked_or_raises(are_linked_reference, phi, u, v, a, b), (u, v)


def test_serialization_round_trip(c5_fixture):
    g, phi = c5_fixture
    line = phi.to_line()
    assert line == "2; 0=_,1=2,2=1,3=2,4=1"
    back = PartialEdgeColoring.from_line(g, line)
    assert back.signature() == phi.signature()


def test_kempe_bfs_reaches_exactly_the_kempe_closure():
    # K5 minus one edge, 5 colors: the closure is computed independently,
    # by a depth-first sweep of the reference chains and swaps (so not
    # through the chain memo) over a signature set
    g = complete(5)
    e = g.edge_id(0, 1)
    phi = colorings_of(ColoringSpace(g, e, 5), 1)[0]
    closure = {phi.signature(): phi}
    stack = [phi]
    while stack:
        state = stack.pop()
        for a in range(1, 6):
            for b in range(a + 1, 6):
                for chain in chains_reference(state, a, b):
                    nxt = kempe_swap_reference(state, chain)
                    if nxt.signature() not in closure:
                        closure[nxt.signature()] = nxt
                        stack.append(nxt)
    assert len(closure) > 1
    res = kempe_bfs(phi, swap_moves, budget=len(closure) + 1)
    assert set(res.parents) == {psi.packed_key() for psi in closure.values()}
    assert res.expanded == len(closure)
    assert res.exhausted and res.hit is None
    cut = kempe_bfs(phi, swap_moves, budget=1)
    assert cut.expanded == 1 and not cut.exhausted


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_swap_preserves_properness_and_touches_only_endpoints(fixture_lines, data):
    line = data.draw(st.sampled_from(fixture_lines))
    g = from_graph6(line)
    if not g.edges:
        return
    cv = chromatic_index(g)
    k = cv.chi_prime + data.draw(st.integers(min_value=0, max_value=1))
    phi = PartialEdgeColoring.from_assignment(
        g, k, list(cv.witness.assignment)
    )
    a = data.draw(st.integers(min_value=1, max_value=k))
    b = data.draw(st.integers(min_value=1, max_value=k))
    if a == b:
        return
    v = data.draw(st.integers(min_value=0, max_value=g.n - 1))
    ch = phi.chain_at(v, a, b)
    phi2 = kempe_swap(phi, ch)
    assert phi2.validate()
    if ch.kind == "cycle":
        untouched = set(range(g.n))
    else:
        ends = {ch.vertices[0], ch.vertices[-1]}
        untouched = set(range(g.n)) - ends
        if len(ch.vertices) == 1:
            untouched = set(range(g.n))
    for w in untouched:
        assert phi2.missing_at(w) == phi.missing_at(w)
    # involution
    ch2 = phi2.chain_at(v, a, b)
    assert set(ch2.edges) == set(ch.edges)
    assert kempe_swap(phi2, ch2).signature() == phi.signature()


def test_chains_partition_two_color_classes(fixture_lines):
    # every vertex lies in exactly one (a,b)-chain and the nontrivial
    # chains partition the edges of the two color classes
    for line in fixture_lines[100:120]:
        g = from_graph6(line)
        if not g.edges:
            continue
        cv = chromatic_index(g)
        phi = cv.witness
        a, b = 1, min(2, phi.k)
        if a == b:
            continue
        chains = phi.chains(a, b)
        seen_edges = [e for ch in chains for e in ch.edges]
        both = [
            e
            for e, c in enumerate(phi.assignment)
            if c in (a, b)
        ]
        assert sorted(seen_edges) == sorted(both)
        seen_verts = [v for ch in chains for v in ch.vertices]
        assert len(seen_verts) == len(set(seen_verts))
        for v in range(g.n):
            ch = phi.chain_at(v, a, b)
            assert v in ch.vertices


def test_from_line_error_paths(c5_fixture):
    g, phi = c5_fixture
    with pytest.raises(ColoringError):
        PartialEdgeColoring.from_line(g, "2; 0=_,0=1,2=1,3=2,4=1")  # repeated edge
    with pytest.raises(ColoringError):
        PartialEdgeColoring.from_line(g, "2; 0=_,1=2")  # edges missing
    with pytest.raises(ColoringError):
        PartialEdgeColoring.from_line(g, "2; 0=_,1=_,2=1,3=2,4=1")  # two blanks
    for line in (
        "2; 0=_,1=2,2=1,3=2,-1=1",  # a negative id, not the last edge
        "2; 0=_,1=2,2=1,3=2,5=1",  # an id past the last edge
        "2; 0=_,1=2,2=1,3=2,x=1",  # an id that is not an integer
        "2; 0=_,1=2,2=1,3=2,4=a",  # a color that is not an integer
        "two; 0=_,1=2,2=1,3=2,4=1",  # a k that is not an integer
    ):
        with pytest.raises(ColoringError):
            PartialEdgeColoring.from_line(g, line)


def test_from_assignment_uncolored_consistency(c5_fixture):
    g, _ = c5_fixture
    with pytest.raises(ColoringError):
        PartialEdgeColoring.from_assignment(g, 2, [None, 2, 1, 2, 1], uncolored=3)
    with pytest.raises(ColoringError):
        PartialEdgeColoring.from_assignment(g, 2, [1, 2, 1, 2, 1], uncolored=0)


def _table(phi):
    return [
        phi.edge_with_color(v, c)
        for v in range(phi.graph.n)
        for c in range(1, phi.k + 1)
    ]


def _assert_kernel_matches_reference(phi):
    """chain_at and chains equal the closure-based reference on every
    vertex and ordered color pair, and every swap equals a repaint."""
    assert phi.validate_detail() is None
    for a in range(1, phi.k + 1):
        for b in range(1, phi.k + 1):
            if a == b:
                continue
            for v in range(phi.graph.n):
                assert phi.chain_at(v, a, b) == chain_at_reference(phi, v, a, b)
            chains = phi.chains(a, b)
            assert chains == chains_reference(phi, a, b)
            if a > b:
                continue
            for ch in chains:
                out = kempe_swap(phi, ch)
                ref = kempe_swap_reference(phi, ch)
                assert out.signature() == ref.signature()
                assert out.missing == ref.missing
                assert _table(out) == _table(ref)
                assert out.validate_detail() is None


def _assert_cut_chains_rejected(phi):
    """Every proper prefix of a chain is current but not maximal: the swap
    raises ColoringError (not StaleChainError) and phi is untouched."""
    sig = phi.signature()
    for a in range(1, phi.k + 1):
        for b in range(a + 1, phi.k + 1):
            for ch in phi.chains(a, b):
                for j in range(1, len(ch.edges)):
                    cut = Chain(ch.colors, "path", ch.vertices[: j + 1], ch.edges[:j])
                    assert phi.check_chain_current(cut)
                    with pytest.raises(ColoringError) as info:
                        kempe_swap(phi, cut)
                    assert not isinstance(info.value, StaleChainError)
                    with pytest.raises(ColoringError):
                        kempe_swap_reference(phi, cut)
    assert phi.signature() == sig
    assert phi.validate_detail() is None


@st.composite
def small_graphs(draw):
    n = draw(st.integers(min_value=2, max_value=9))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    mask = draw(st.integers(min_value=0, max_value=(1 << len(pairs)) - 1))
    return SimpleGraph(n, [p for i, p in enumerate(pairs) if mask >> i & 1])


@settings(max_examples=50, deadline=None)
@given(small_graphs(), st.data())
def test_chain_kernel_equals_reference_on_random_graphs(g, data):
    delta = max((g.degree(v) for v in range(g.n)), default=0)
    e = data.draw(st.sampled_from(range(len(g.edges)))) if g.edges else None
    for k in (delta, delta + 1):
        if len(g.edges) - 1 > k * (g.n // 2):
            # G - e is overfull, so it has no k-coloring, and the
            # enumeration would have to exhaust its normal walk to show
            # it (K9 with k = 8 runs for more than a minute)
            continue
        for phi in colorings_of(ColoringSpace(g, e, k), 3):
            _assert_kernel_matches_reference(phi)
            _assert_cut_chains_rejected(phi)
            # and one state a swap away, off the lexicographic order
            moves = list(swap_moves(phi))
            if moves:
                move = moves[data.draw(st.integers(0, len(moves) - 1))]
                _assert_kernel_matches_reference(kempe_swap(phi, move))


@st.composite
def gadget_spokes(draw):
    delta = draw(st.integers(min_value=4, max_value=6))
    ecs = draw(
        st.lists(
            st.integers(min_value=2, max_value=delta),
            min_size=1,
            max_size=delta - 2,
            unique=True,
        )
    )
    spokes = []
    for ec in ecs:
        mc = draw(st.integers(min_value=1, max_value=delta).filter(lambda c: c != ec))
        spokes.append((ec, mc))
    return delta, spokes


@settings(max_examples=30, deadline=None)
@given(gadget_spokes())
def test_chain_kernel_equals_reference_on_leaf_padded_gadgets(shape):
    # most vertices are leaves that miss every color but one
    g, phi = leaf_padded_gadget(*shape)
    _assert_kernel_matches_reference(phi)
    _assert_cut_chains_rejected(phi)


def _walk_checking_chain_memo(phi, data, steps=6):
    """A random swap walk from phi on which every state's `chains` equals
    the reference on every pair. Each state checks its pairs in a drawn
    order, part of them only after its child is built, so a child meets
    a parent memo that holds some pairs and lacks others."""
    k = phi.k
    pairs = [(a, b) for a in range(1, k + 1) for b in range(a + 1, k + 1)]

    def check(state, pair):
        a, b = pair if data.draw(st.booleans()) else pair[::-1]
        assert state.chains(a, b) == chains_reference(state, a, b)

    state = phi
    for _ in range(steps):
        order = data.draw(st.permutations(pairs))
        cut = data.draw(st.integers(0, len(order)))
        for pair in order[:cut]:
            check(state, pair)
        # moves from the reference, so picking one fills no memo
        moves = [ch for a, b in pairs for ch in chains_reference(state, a, b)]
        child = None
        if moves:
            child = kempe_swap(state, moves[data.draw(st.integers(0, len(moves) - 1))])
        for pair in order[cut:]:
            check(state, pair)
        if child is None:
            return
        state = child
    for pair in pairs:
        check(state, pair)


@settings(max_examples=30, deadline=None)
@given(gadget_spokes(), st.data())
def test_chain_memo_equals_reference_along_swap_walks_on_gadgets(shape, data):
    _, phi = leaf_padded_gadget(*shape)
    _walk_checking_chain_memo(phi, data)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_chain_memo_equals_reference_along_swap_walks_from_enumerated_colorings(
    fixture_lines, data
):
    g = from_graph6(data.draw(st.sampled_from(fixture_lines)))
    if not g.edges:
        return
    e = data.draw(st.sampled_from(range(len(g.edges))))
    delta = max(g.degree(v) for v in range(g.n))
    k = delta + data.draw(st.integers(0, 1))
    if len(g.edges) - 1 > k * (g.n // 2):
        return
    states = colorings_of(ColoringSpace(g, e, k), 3)
    if states:
        _walk_checking_chain_memo(data.draw(st.sampled_from(states)), data)


def test_chain_memo_lists_a_cycle_from_its_lowest_vertex():
    # the (1,2)-swap on the path 4-2-3 closes the (1,3)-cycle 0-1-2-3,
    # whose lowest vertex 0 lies off the swapped chain
    colors = {(0, 1): 1, (1, 2): 3, (2, 3): 2, (0, 3): 3, (2, 4): 1}
    g = SimpleGraph(5, list(colors))
    phi = PartialEdgeColoring.from_assignment(g, 3, [colors[e] for e in g.edges])
    for a, b in ((1, 2), (1, 3), (2, 3)):
        assert phi.chains(a, b) == chains_reference(phi, a, b)
    swapped = phi.chain_at(4, 1, 2)
    assert swapped.vertices == (3, 2, 4)
    child = kempe_swap(phi, swapped)
    (cyc,) = child.chains(1, 3)
    assert cyc.kind == "cycle" and cyc.vertices == (0, 1, 2, 3)
    for a, b in ((1, 2), (1, 3), (2, 3)):
        assert child.chains(a, b) == chains_reference(child, a, b)


def _same_search(res, ref):
    parents, expanded, exhausted, hit = ref
    assert res.parents == parents
    assert (res.expanded, res.exhausted) == (expanded, exhausted)
    assert (res.hit is None) == (hit is None)
    if hit is not None:
        assert res.hit.packed_key() == hit.packed_key()


def test_kempe_bfs_equals_the_eager_search_over_corpus_colorings():
    # from the first coloring of G - e, e the first edge with one, of every
    # second corpus graph that has one: a goal that reads every second
    # state it is offered, a goal that reads keys alone, and an accept
    # that reads every state
    budget = 60
    searched = 0
    for line in CLASS2_N7.read_text().split()[::2]:
        g = from_graph6(line)
        delta = degree_profile(g).delta
        first = next(((e, space[0]) for e in range(g.m())
                      if (space := colorings_of(ColoringSpace(g, e, delta), 1))), None)
        if first is None:
            continue
        e, phi = first
        r, s1 = g.edges[e]
        searched += 1
        fan = grow_multifan(g, phi, r, s1)

        def larger(state):
            return grow_multifan(g, state, r, s1).size() > fan.size()

        calls, ref_calls = [], []

        def lazy(get, key, parent, move):
            calls.append((key, parent, move))
            return len(calls) % 2 == 0 and larger(get())

        def eager(state, key, parent, move):
            ref_calls.append((key, parent, move))
            return len(ref_calls) % 2 == 0 and larger(state)

        _same_search(kempe_bfs(phi, swap_moves, budget, goal=lazy),
                     kempe_bfs_reference(phi, swap_moves, budget, goal=eager))
        assert calls == ref_calls

        reached = list(kempe_bfs_reference(phi, swap_moves, budget)[0])
        for want in (reached[len(reached) // 2], -1):
            calls.clear()
            ref_calls.clear()
            _same_search(
                kempe_bfs(phi, swap_moves, budget,
                          goal=lambda get, key, *move: calls.append(key) or key == want),
                kempe_bfs_reference(phi, swap_moves, budget,
                                    goal=lambda state, key, *move: ref_calls.append(key) or key == want),
            )
            assert calls == ref_calls

        accepted, ref_accepted = [], []

        def frozen(state, out):
            out.append(state.packed_key())
            return stability_class(state, phi, fan) == "F-stable"

        _same_search(
            kempe_bfs(phi, swap_moves, budget, accept=lambda state: frozen(state, accepted)),
            kempe_bfs_reference(phi, swap_moves, budget,
                                accept=lambda state: frozen(state, ref_accepted)),
        )
        assert accepted == ref_accepted
    assert searched == 15


def test_kempe_bfs_drops_an_improper_recoloring_unseen():
    # a recoloring is keyed before it is built: a known key is dropped,
    # and a new key whose coloring is improper enters neither `parents`
    # nor the goal
    g, phi = leaf_padded_gadget(4, [(3, 1)])
    e, f = (g.edge_id(0, v) for v in g.adjacency[0][1:3])

    def moves(state):
        yield "clash", [(e, state.assignment[f])]
        yield "fill", [(state.uncolored, 1)]
        yield "same", [(e, state.assignment[e])]
        yield from swap_moves(state, [(1, 2), (2, 3)])

    read = []
    res = kempe_bfs(phi, moves, 6, goal=lambda get, key, parent, move: read.append(move))
    assert all(isinstance(move, Chain) for move in read)
    assert len(read) == len(res.parents) - 1
    swaps = kempe_bfs(phi, lambda state: swap_moves(state, [(1, 2), (2, 3)]), 6)
    assert res.parents == swaps.parents


def test_packed_keys_are_equal_exactly_when_signatures_are_equal():
    # every state of a search, and every coloring of K4 minus each edge
    # in turn and of K4 itself, so the uncolored edge varies too
    g, phi = leaf_padded_gadget(5, [(3, 4), (4, 3)])
    states = [phi]

    def keep(nxt):
        states.append(nxt)
        return True

    res = kempe_bfs(phi, swap_moves, budget=300, accept=keep)
    assert {psi.packed_key() for psi in states} == set(res.parents)
    k4 = complete(4)
    for e in (None, *range(len(k4.edges))):
        states += colorings_of(ColoringSpace(k4, e, 3 if e is None else 4))
    sigs = {(psi.graph.n, psi.signature()) for psi in states}
    keys = {(psi.graph.n, psi.packed_key()) for psi in states}
    pairs = {(psi.graph.n, psi.signature(), psi.packed_key()) for psi in states}
    assert len(sigs) == len(keys) == len(pairs)


def test_cut_path_prefix_raises_and_leaves_source_unchanged():
    phi = PartialEdgeColoring.from_assignment(path(5), 2, [1, 2, 1, 2])
    ch = phi.chain_at(0, 1, 2)
    assert ch.edges == (0, 1, 2, 3)
    sig = phi.signature()
    cut = Chain(ch.colors, "path", ch.vertices[:3], ch.edges[:2])
    with pytest.raises(ColoringError) as info:
        kempe_swap(phi, cut)
    assert not isinstance(info.value, StaleChainError)
    assert phi.signature() == sig
    assert phi.validate_detail() is None


def test_swap_on_copy_leaves_the_original_untouched():
    g, phi = leaf_padded_gadget(5, [(3, 4), (4, 3)])
    before = _table(phi)
    psi = phi.copy()
    for a in range(1, phi.k + 1):
        for b in range(a + 1, phi.k + 1):
            for ch in psi.chains(a, b):
                out = kempe_swap(psi, ch)
                assert out.signature() != psi.signature()
                assert out.validate_detail() is None
    assert _table(phi) == before and _table(psi) == before
    assert phi.validate_detail() is None and psi.validate_detail() is None


def test_swap_rejects_forged_chains():
    phi = PartialEdgeColoring.from_assignment(path(4), 2, [1, 2, 1])
    for forged in (
        Chain((1, 2), "path", (0, 1, 2, 1), (0, 1, 0)),  # edge listed twice
        Chain((1, 1), "path", (0, 1), (0,)),
        Chain((1, 3), "path", (0, 1), (0,)),  # color 3 outside [1,2]
    ):
        with pytest.raises(ColoringError):
            kempe_swap(phi, forged)
    assert phi.validate_detail() is None


def test_chains_checks_its_colors_on_empty_and_edgeless_graphs():
    for n in (0, 4):
        phi = PartialEdgeColoring(SimpleGraph(n, []), 3)
        assert phi.chains(1, 2) == []
        for a, b in ((1, 1), (0, 2), (2, 4)):
            with pytest.raises(ColoringError):
                phi.chains(a, b)
            with pytest.raises(ColoringError):
                list(swap_moves(phi, [(a, b)]))
