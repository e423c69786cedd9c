import pytest
from hypothesis import given, settings, strategies as st

from fanforge.graphs import (
    Graph6Error,
    SimpleGraph,
    complete,
    cycle,
    from_graph6,
    graph6_lines,
    to_graph6,
)
from oracles import decode_graph6_reference, encode_graph6_reference


def test_empty_five_vertices():
    g = from_graph6("D??")
    assert g.n == 5
    assert g.m() == 0


def test_k2_encodes_to_single_triangle_bit():
    assert to_graph6(complete(2)) == "A_"


def test_single_vertex():
    assert to_graph6(SimpleGraph(1, [])) == "@"
    assert from_graph6("@").n == 1


def test_round_trip_dqc():
    assert to_graph6(from_graph6("DQc")) == "DQc"


def test_round_trip_c5_same_labels():
    g = cycle(5)
    assert from_graph6(to_graph6(g)) == g


def test_header_tolerated():
    g = from_graph6(">>graph6<<D??")
    assert g.n == 5


def test_graph6_lines_number_every_line_of_the_stream():
    lines = [">>graph6<<", " Dhc ", "", "  ", "Bw"]
    assert list(graph6_lines(lines)) == [(1, "Dhc"), (4, "Bw")]


def test_padding_bits_must_be_zero():
    # n=3 needs three data bits; 'C' = 4 sets a padding bit
    with pytest.raises(Graph6Error):
        from_graph6("BC")


def test_character_out_of_range():
    with pytest.raises(Graph6Error):
        from_graph6("D" + chr(200))
    with pytest.raises(Graph6Error):
        from_graph6("D\x1f??")


def test_malformed_length():
    with pytest.raises(Graph6Error):
        from_graph6("D?")  # too short a body
    with pytest.raises(Graph6Error):
        from_graph6("D???")  # too long
    with pytest.raises(Graph6Error):
        from_graph6("~?")  # truncated long form


def test_order_zero_rejected():
    # to_graph6 needs n >= 1, so the decoder must not produce n = 0
    with pytest.raises(Graph6Error, match="order 0"):
        from_graph6("?")
    with pytest.raises(Graph6Error, match="order 0"):
        from_graph6(">>graph6<<?")


def test_long_form():
    # n = 63 forces the three-character length field
    g = SimpleGraph(63, [(0, 62)])
    s = to_graph6(g)
    assert s.startswith("~")
    assert from_graph6(s) == g
    n, edges = decode_graph6_reference(s)
    assert n == 63 and edges == {frozenset((0, 62))}


def test_fixture_corpus_round_trips_and_matches_oracle(fixture_lines):
    assert len(fixture_lines) == 996
    for line in fixture_lines:
        g = from_graph6(line)
        assert to_graph6(g) == line
        n, edges = decode_graph6_reference(line)
        assert n == g.n
        assert edges == {frozenset(e) for e in g.edges}
        assert encode_graph6_reference(n, edges) == line


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_random_graphs_round_trip(data):
    n = data.draw(st.integers(min_value=1, max_value=12))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    mask = data.draw(st.integers(min_value=0, max_value=(1 << len(pairs)) - 1))
    edges = [p for i, p in enumerate(pairs) if (mask >> i) & 1]
    g = SimpleGraph(n, edges)
    s = to_graph6(g)
    assert from_graph6(s) == g
    rn, redges = decode_graph6_reference(s)
    assert rn == n and redges == {frozenset(e) for e in edges}


def test_networkx_agrees_on_fixture(fixture_lines):
    nx = pytest.importorskip("networkx")
    for line in fixture_lines[:200]:
        g = from_graph6(line)
        h = nx.from_graph6_bytes(line.encode())
        assert set(h.nodes) == set(range(g.n))
        assert {frozenset(e) for e in h.edges} == {frozenset(e) for e in g.edges}


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_encoder_matches_reference_short_and_long_form(data):
    n = data.draw(st.one_of(
        st.integers(min_value=1, max_value=62), st.integers(min_value=63, max_value=90)
    ))
    pairs = data.draw(st.lists(
        st.integers(0, n - 2).flatmap(
            lambda u: st.tuples(st.just(u), st.integers(u + 1, n - 1))
        ),
        unique=True, max_size=80,
    )) if n > 1 else []
    g = SimpleGraph(n, pairs)
    line = to_graph6(g)
    assert line == encode_graph6_reference(n, {frozenset(p) for p in pairs})
    assert (line[0] == "~") == (n >= 63)
    assert from_graph6(line) == g
