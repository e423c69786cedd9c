import hashlib
import json

import pytest

from conftest import WITNESS_FAMILY, leaf_padded_gadget
from oracles import chains_reference, kempe_bfs_reference
from fanforge import colorings, recolor
from fanforge.colorings import Chain, PartialEdgeColoring, kempe_bfs, kempe_swap, swap_moves
from fanforge.fans import at_least_stable, grow_multifan, normalize_typical, stability_class
from fanforge.graphs import (
    complete,
    cycle,
    degree_profile,
    delete_edge,
    light_vertices,
)
from fanforge.recolor import (
    _REQUIRED_STABILITY,
    _eligible_shift_steps,
    _search_witness,
    _shift_recolorings,
    _shift_steps_around,
    _post_pairs,
    _post_verdicts,
    _witness_post_ok,
    MaximalityViolation,
    RelabelStep,
    ShiftIneligible,
    ShiftStep,
    SwapStep,
    TauError,
    Transcript,
    WITNESS_ITEMS,
    all_tau_sequences,
    apply_shifting,
    build_tau_sequence,
    fan_missing_union,
    is_avoiding,
    relabel,
    shift,
    shifting_kempe_equivalent,
    shifting_kind,
    tau_sequence_by_definition,
    verify_rs1_linkage,
    witness_avoid_set,
    witness_tau_item,
)


def normalized(g, phi, r=0, s1=1):
    fan = grow_multifan(g, phi, r, s1)
    nf = normalize_typical(g, phi, fan)
    return nf.phi, nf.fan


@pytest.fixture
def type_b1():
    """Type B ending on missing color 1 (shiftable)."""
    g, phi = leaf_padded_gadget(4, [(3, 1)])
    phi, fan = normalized(g, phi)
    return g, phi, fan


@pytest.fixture
def type_b2():
    """Type B ending on missing color 2 (a fan color, not shiftable)."""
    g, phi = leaf_padded_gadget(4, [(3, 2)])
    phi, fan = normalized(g, phi)
    return g, phi, fan


@pytest.fixture
def type_ac():
    """Delta=6 gadget whose tau=3 walk repeats (type C) while tau=4 and
    tau=5 are rotations."""
    g, phi = leaf_padded_gadget(6, [(3, 4), (4, 5), (5, 4)])
    phi, fan = normalized(g, phi)
    return g, phi, fan


def test_type_b_terminal_one(type_b1):
    g, phi, fan = type_b1
    ts = build_tau_sequence(g, phi, fan, 3)
    assert ts.type == "B" and ts.terminal_color == 1
    assert ts.vertices == (2,)
    assert shifting_kind(ts, phi) == "B"


def test_type_b_terminal_two(type_b2):
    g, phi, fan = type_b2
    ts = build_tau_sequence(g, phi, fan, 3)
    assert ts.type == "B" and ts.terminal_color == 2
    assert shifting_kind(ts, phi) is None
    with pytest.raises(ShiftIneligible):
        apply_shifting(phi, fan, ts)


def test_type_c_and_rotations(type_ac):
    g, phi, fan = type_ac
    ts3 = build_tau_sequence(g, phi, fan, 3)
    assert ts3.type == "C" and ts3.repeat_index == 2
    assert len(ts3.vertices) == 3
    ts4 = build_tau_sequence(g, phi, fan, 4)
    ts5 = build_tau_sequence(g, phi, fan, 5)
    assert ts4.type == "A" and ts5.type == "A"
    assert len(ts4.vertices) == 2
    # rotations never have length one: the first edge carries tau itself
    assert all(
        len(t.vertices) >= 2 for t in (ts4, ts5)
    )


def test_uniqueness_against_declarative_oracle(type_ac, type_b1, type_b2):
    for g, phi, fan in (type_ac, type_b1, type_b2):
        fanmiss = fan_missing_union(phi, fan)
        for tau in range(1, phi.k + 1):
            if tau in fanmiss:
                continue
            built = build_tau_sequence(g, phi, fan, tau)
            derived = tau_sequence_by_definition(g, phi, fan, tau)
            assert len(derived) == 1
            assert derived[0].to_json() == built.to_json()


def test_trichotomy_single_type(type_ac):
    g, phi, fan = type_ac
    for ts in all_tau_sequences(g, phi, fan):
        tags = [
            ts.type == "A",
            ts.type == "B",
            ts.type == "C",
        ]
        assert sum(tags) == 1
        if ts.type == "A":
            assert phi.missing_at(ts.vertices[-1]) == (ts.tau,)
        if ts.type == "B":
            assert ts.terminal_color in fan_missing_union(phi, fan)
        if ts.type == "C":
            assert ts.repeat_index is not None


def test_tau_rejects_fan_colors(type_b1):
    g, phi, fan = type_b1
    with pytest.raises(TauError):
        build_tau_sequence(g, phi, fan, 1)


def test_maximality_violation_surfaces():
    # aim tau at a full-degree neighbor: a maximum fan cannot leave such a
    # color outside its missing set, so the walk reports the violation
    g, phi = leaf_padded_gadget(4, [(3, 1)])
    phi, fan = normalized(g, phi)
    # color 2 sits on the edge r-u for a full-degree u; force the walk there
    # by asking for a tau that is present at r only on a Delta-vertex edge
    from fanforge.fans import Multifan

    shrunk = Multifan(
        center=fan.center,
        uncolored_edge=fan.uncolored_edge,
        sequence=fan.sequence,
        edge_colors=fan.edge_colors,
        missing={0: (1,), 1: (2, 4)},
    )
    # tau = 2 is missing at s1, so use a fabricated fan whose missing union
    # pretends otherwise; build_tau_sequence recomputes honestly and the
    # fan color is rejected instead
    with pytest.raises(TauError):
        build_tau_sequence(g, phi, shrunk, 2)


def test_a_shift_is_f_stable(type_ac):
    g, phi, fan = type_ac
    ts = build_tau_sequence(g, phi, fan, 4)
    phi2, step = apply_shifting(phi, fan, ts)
    assert phi2.validate()
    assert stability_class(phi2, phi, fan) == "F-stable"
    # the sequence's colors rotated
    assert phi2.misses(ts.vertices[0], 4)


def test_b_shift_moves_center_missing(type_b1):
    g, phi, fan = type_b1
    ts = build_tau_sequence(g, phi, fan, 3)
    phi2, step = apply_shifting(phi, fan, ts)
    assert stability_class(phi2, phi, fan) == "V(F-r)-stable"
    assert phi2.missing_at(fan.center) == (3,)


def test_empty_shift_is_identity(type_b1):
    g, phi, fan = type_b1
    assert shift(phi, fan.center, []).signature() == phi.signature()


def test_shift_child_walks_its_own_chains(type_ac):
    # a shift recolors spokes of several color pairs at once, so its
    # result must not take chains from the memo of the coloring it came from
    g, phi, fan = type_ac
    pairs = [(a, b) for a in range(1, phi.k + 1) for b in range(a + 1, phi.k + 1)]
    for a, b in pairs:
        phi.chains(a, b)
    shifted = [
        apply_shifting(phi, fan, ts)[0]
        for ts in all_tau_sequences(g, phi, fan)
        if shifting_kind(ts, phi) is not None
    ]
    assert shifted
    for psi in shifted:
        assert psi.signature() != phi.signature()
        for a, b in pairs:
            assert psi.chains(a, b) == chains_reference(psi, a, b)


def test_shift_rejected_atomically(type_b2):
    g, phi, fan = type_b2
    ts = build_tau_sequence(g, phi, fan, 3)
    before = phi.signature()
    with pytest.raises(ShiftIneligible):
        shift(phi, fan.center, ts.vertices)
    assert phi.signature() == before


def test_transcript_replay_byte_exact(type_b1):
    g, phi, fan = type_b1
    ts = build_tau_sequence(g, phi, fan, 3)
    phi2, step = apply_shifting(phi, fan, ts)
    tr = Transcript([step])
    assert tr.replay(phi).signature() == phi2.signature()
    # serialization shape
    assert tr.to_json() == [
        {"op": "shift", "center": fan.center, "range": list(ts.vertices)}
    ]


def test_relabel_is_bijection(type_b1):
    g, phi, fan = type_b1
    phi2 = relabel(phi, {1: 3, 3: 1})
    assert phi2.validate()
    assert phi2.missing_at(fan.center) == (3,)
    with pytest.raises(ValueError):
        relabel(phi, {1: 3})


def test_is_avoiding():
    t = Transcript()
    assert is_avoiding(t, [4])
    t.add(SwapStep((2, 5), 0))
    assert is_avoiding(t, [4])
    assert not is_avoiding(t, [5])
    t.add(ShiftStep(0, (2, 3)))
    t.add(RelabelStep(((1, 3), (3, 1))))
    assert is_avoiding(t, [1, 3])  # shifts and relabels are not Kempe changes
    assert t.has_non_swap_steps


def test_rs1_linkage_vacuous_on_c5(c5_fixture):
    g, phi = c5_fixture
    fan = grow_multifan(g, phi, 0, 1)
    v = verify_rs1_linkage(g, phi, fan, maximum_status="EXACT")
    assert v.status == "PASS"
    assert v.detail["taus"] == []
    v2 = verify_rs1_linkage(g, phi, fan, maximum_status="LOWER-BOUND")
    assert v2.status == "CONDITIONAL"


def test_witness_items_on_type_b1(type_b1):
    g, phi, fan = type_b1
    delta = degree_profile(g).delta
    closed = set(g.adjacency[fan.center]) | {fan.center}
    xs = [
        x
        for x in range(g.n)
        if x not in closed and phi.misses(x, 3)
    ]
    assert xs
    x = xs[0]
    for item in WITNESS_ITEMS:
        res = witness_tau_item(
            item, g, phi, fan, x, 3, maximum_status="LOWER-BOUND"
        )
        if item in ("v", "vi", "vii"):
            # terminal color 1 fires the exception clause
            assert res.status == "EXCLUDED"
        else:
            assert res.status == "WITNESS"
        if res.status == "WITNESS":
            assert res.transcript.replay(phi).signature() == res.phi.signature()
            assert is_avoiding(
                res.transcript, sorted(witness_avoid_set(item, 3, delta))
            )


def test_witness_items_on_type_b2(type_b2):
    g, phi, fan = type_b2
    delta = degree_profile(g).delta
    closed = set(g.adjacency[fan.center]) | {fan.center}
    # a leaf hanging off s1 with the tau-colored edge is linked with s1,
    # which forces the constructive b-shift route for item (iii)
    linked_x = None
    for x in range(g.n):
        if x in closed:
            continue
        if not (phi.misses(x, 3) or phi.misses(x, delta)):
            continue
        from fanforge.colorings import are_linked

        try:
            if are_linked(phi, fan.sequence[0], x, 3, delta):
                linked_x = x
                break
        except Exception:
            continue
    assert linked_x is not None
    # the gadget's fan is not certified maximum: the shift cannot cut the
    # s1 chain (the center is off it, unlike under a certified maximum),
    # so the outcome downgrades to UNKNOWN evidence instead of FAIL
    res = witness_tau_item(
        "iii", g, phi, fan, linked_x, 3, maximum_status="LOWER-BOUND"
    )
    assert res.status == "UNKNOWN"
    assert res.detail["checks"]["stability"] == "V(F-r)-stable"
    assert res.detail["checks"]["avoidance_ok"]
    assert not res.detail["checks"]["post_ok"]
    strict = witness_tau_item("iii", g, phi, fan, linked_x, 3)
    assert strict.status == "FAIL"


def test_witness_unless_clauses(type_b2):
    g, phi, fan = type_b2
    closed = set(g.adjacency[fan.center]) | {fan.center}
    x = next(
        x for x in range(g.n) if x not in closed and phi.misses(x, 3)
    )
    # terminal color 2 excludes item (iv) and the 2-inducing clause of (vi)/(vii)
    for item in ("iv", "vi", "vii"):
        res = witness_tau_item(item, g, phi, fan, x, 3)
        assert res.status == "EXCLUDED"
        assert "sequence" in res.detail


def test_witness_type_c_conversion(type_ac):
    g, phi, fan = type_ac
    delta = degree_profile(g).delta
    closed = set(g.adjacency[fan.center]) | {fan.center}
    xs = [x for x in range(g.n) if x not in closed and phi.misses(x, 3)]
    assert xs
    x = xs[0]
    for item in ("i", "ii", "iii", "iv"):
        res = witness_tau_item(item, g, phi, fan, x, 3)
        assert res.status in ("WITNESS", "EXCLUDED", "UNKNOWN")
        if res.status == "WITNESS":
            assert res.transcript.replay(phi).signature() == res.phi.signature()
            assert is_avoiding(
                res.transcript, sorted(witness_avoid_set(item, 3, delta))
            )


def test_witness_rotation_routes(type_ac):
    g, phi, fan = type_ac
    delta = degree_profile(g).delta
    closed = set(g.adjacency[fan.center]) | {fan.center}
    # tau = 4 is a rotation; pick x missing 4 outside the closed neighborhood
    xs = [x for x in range(g.n) if x not in closed and phi.misses(x, 4)]
    assert xs
    for item in WITNESS_ITEMS:
        res = witness_tau_item(item, g, phi, fan, xs[0], 4)
        assert res.status in ("WITNESS", "EXCLUDED", "UNKNOWN")
        if res.status == "WITNESS":
            assert res.transcript.replay(phi).signature() == res.phi.signature()
            assert is_avoiding(
                res.transcript, sorted(witness_avoid_set(item, 4, delta))
            )


def test_witness_precondition_errors(type_b1):
    g, phi, fan = type_b1
    with pytest.raises(ValueError):
        witness_tau_item("viii", g, phi, fan, 99, 3)
    with pytest.raises(TauError):
        witness_tau_item("i", g, phi, fan, fan.sequence[0], 3)  # x inside N[r]
    with pytest.raises(TauError):
        # tau must avoid the fan's missing set
        closed = set(g.adjacency[fan.center]) | {fan.center}
        x = next(xx for xx in range(g.n) if xx not in closed)
        witness_tau_item("i", g, phi, fan, x, 1)


def test_shifting_kempe_equivalent_hook(type_b1):
    # the open-question experiment: on this tiny instance, is the
    # B-shift's outcome reachable by swaps alone? Report either way.
    g, phi, fan = type_b1
    ts = build_tau_sequence(g, phi, fan, 3)
    shifted, _ = apply_shifting(phi, fan, ts)
    from fanforge.recolor import shifting_kempe_equivalent

    steps, exhausted = shifting_kempe_equivalent(phi, shifted, budget=3000)
    if steps is not None:
        # replay the found swap sequence and confirm byte equality
        cur = phi
        for st in steps:
            from fanforge.recolor import apply_step

            cur = apply_step(cur, st)
        assert cur.signature() == shifted.signature()
    else:
        # no claim either way; the search must have been bounded or clean
        assert isinstance(exhausted, bool)


def test_shifting_kempe_equivalent_identity(type_b1):
    from fanforge.recolor import shifting_kempe_equivalent

    _, phi, _ = type_b1
    assert shifting_kempe_equivalent(phi, phi) == ([], True)


def test_shifting_kempe_equivalent_needs_one_palette(type_b1):
    # packed keys of two palettes are not comparable
    g, phi, _ = type_b1
    wide = PartialEdgeColoring.from_assignment(
        g, phi.k + 1, list(phi.assignment), uncolored=phi.uncolored
    )
    swapped = kempe_swap(phi, phi.chains(1, 3)[0])
    with pytest.raises(ValueError):
        shifting_kempe_equivalent(swapped, wide)


def test_shifting_kempe_equivalent_unreachable(c5_fixture):
    # swaps never move the uncolored edge, so a target with another
    # uncolored edge lies outside the (finite) closure
    from fanforge.recolor import shifting_kempe_equivalent

    g, phi = c5_fixture
    target = PartialEdgeColoring.from_assignment(
        g, 2, [2, 1, None, 1, 2], uncolored=g.edge_id(1, 2)
    )
    assert shifting_kempe_equivalent(phi, target) == (None, True)


def test_witness_rotation_endpoint_swap_route(type_ac):
    # items (i)/(ii) when the target rides the center's (1,tau)-chain:
    # swap at the rotation's end, shift, and (for i) relabel 1 <-> tau
    g, phi, fan = type_ac
    r = fan.center
    tied = [
        x
        for x in range(g.n)
        if x != r
        and not g.has_edge(r, x)
        and phi.misses(x, 4)
        and r in phi.chain_at(x, 1, 4).vertices
    ]
    assert tied
    x = tied[0]
    res_i = witness_tau_item("i", g, phi, fan, x, 4, maximum_status="LOWER-BOUND")
    assert res_i.status == "WITNESS"
    assert res_i.detail["route"] == "rotation-with-endpoint-swap"
    ops = [s.to_json()["op"] for s in res_i.transcript.steps]
    assert ops == ["swap", "shift", "relabel"]
    assert res_i.phi.misses(x, 1)
    res_ii = witness_tau_item("ii", g, phi, fan, x, 4, maximum_status="LOWER-BOUND")
    assert res_ii.status == "WITNESS"
    assert [s.to_json()["op"] for s in res_ii.transcript.steps] == ["swap", "shift"]
    assert res_ii.phi.missing_mask(fan.center) & res_ii.phi.missing_mask(x)


def test_witness_item_v_transparent_on_uncertified_fan(type_b2):
    # the type-B continuation for item (v) needs linkage facts that only a
    # certified maximum fan guarantees; on this gadget the construction
    # trips and the bounded avoidance-respecting search finds nothing, so
    # the verdict is UNKNOWN with the failure spelled out
    g, phi, fan = type_b2
    closed = set(g.adjacency[fan.center]) | {fan.center}
    statuses = {}
    for x in range(g.n):
        if x in closed or not (phi.misses(x, 3) or phi.misses(x, 4)):
            continue
        res = witness_tau_item(
            "v", g, phi, fan, x, 3, maximum_status="LOWER-BOUND"
        )
        statuses[x] = res.status
        assert res.status in ("WITNESS", "UNKNOWN")
        if res.status == "UNKNOWN":
            assert "construction_error" in res.detail or "checks" in res.detail
            assert "reason" in res.detail
    assert "UNKNOWN" in statuses.values()
    assert "WITNESS" in statuses.values()


# The witness-sweep gadget family (Delta 4-6, tau types A, B and C), with
# the SHA-256 prefix of every `witness_tau_item` result and every
# `shifting_kempe_equivalent` path on it, per search budget. The CLI shows
# only witness counts, so these pin the BFS order and the transcripts it
# yields.
SEARCH_DIGESTS = [
    (4, [(3, 1)], 200, 62, "354f01f8eb521863"),
    (4, [(3, 1)], 2000, 62, "354f01f8eb521863"),
    (4, [(3, 2)], 200, 61, "b4cfc1e4de322966"),
    (4, [(3, 2)], 2000, 61, "b4cfc1e4de322966"),
    (5, [(3, 4), (4, 3)], 200, 222, "9cdc5ce4536ab7a7"),
    (5, [(3, 4), (4, 3)], 2000, 222, "06e9be93abab6fcd"),
    (5, [(3, 1), (4, 3)], 200, 219, "e0a033ab77de7b3a"),
    (5, [(3, 1), (4, 3)], 2000, 219, "d5de536875e987ef"),
    (6, [(3, 4), (4, 3), (5, 3)], 200, 512, "beef1831e3df35a5"),
    (6, [(3, 4), (4, 3), (5, 3)], 2000, 512, "88555026d0fcda6a"),
]


@pytest.mark.parametrize("delta,spokes,budget,count,digest", SEARCH_DIGESTS)
def test_search_results_are_pinned(delta, spokes, budget, count, digest):
    g, phi = leaf_padded_gadget(delta, spokes)
    phi, fan = normalized(g, phi)
    fanmiss = fan_missing_union(phi, fan)
    closed = set(g.adjacency[fan.center]) | {fan.center}
    h = hashlib.sha256()
    seen = 0
    for tau in range(1, phi.k + 1):
        if tau in fanmiss:
            continue
        for x in range(g.n):
            if x in closed or not (phi.misses(x, tau) or phi.misses(x, delta)):
                continue
            for item in WITNESS_ITEMS:
                if item in ("i", "ii", "vii") and not phi.misses(x, tau):
                    continue
                res = witness_tau_item(
                    item, g, phi, fan, x, tau,
                    search_budget=budget, maximum_status="LOWER-BOUND",
                )
                h.update(json.dumps(res.to_json(), sort_keys=True).encode())
                seen += 1
    for ts in all_tau_sequences(g, phi, fan):
        if shifting_kind(ts, phi) is None:
            continue
        shifted, _ = apply_shifting(phi, fan, ts)
        steps, exhausted = shifting_kempe_equivalent(phi, shifted, budget=budget)
        path = None if steps is None else [s.to_json() for s in steps]
        h.update(json.dumps([path, exhausted]).encode())
        seen += 1
    assert seen == count
    assert h.hexdigest()[:16] == digest


@pytest.mark.parametrize("delta,spokes", [(5, [(3, 4), (4, 3)]), (5, [(3, 1), (4, 3)])])
def test_post_verdicts_equal_a_fresh_test_on_every_state(delta, spokes):
    # swaps on every pair, not only the avoidance-respecting ones, so that
    # pairs sharing one color with a post-condition pair come up too
    g, phi = leaf_padded_gadget(delta, spokes)
    phi, fan = normalized(g, phi)
    fanmiss = fan_missing_union(phi, fan)
    closed = set(g.adjacency[fan.center]) | {fan.center}
    searched = 0
    for tau in range(1, phi.k + 1):
        if tau in fanmiss:
            continue
        for x in range(g.n):
            if x in closed or not (phi.misses(x, tau) or phi.misses(x, delta)):
                continue
            for item in ("iii", "iv", "v", "vi", "vii"):
                verdicts = _post_verdicts(item, phi, fan, x, tau, delta)

                def goal(get, key, parent, move):
                    fresh = _witness_post_ok(item, get(), fan, x, _post_pairs(item, tau, delta))
                    assert verdicts(get, key, parent, move) == fresh
                    return False

                kempe_bfs(phi, swap_moves, budget=12, goal=goal)
                searched += 1
    assert searched


def test_item_v_post_condition_holds_through_either_pair(type_b1):
    # a state Kempe-reachable from the gadget where x = 5 stays on s1's
    # (tau, Delta)-chain but is cut off its (2, tau)-chain
    g, phi, fan = type_b1
    state = PartialEdgeColoring.from_line(
        g, "4; 0=_,1=3,2=2,3=4,4=4,5=3,6=2,7=4,8=1,9=3,10=4,11=1,12=2,13=3")
    got = {item: _witness_post_ok(item, state, fan, 5, _post_pairs(item, 3, 4))
           for item in ("iii", "v", "vii")}
    assert got == {"iii": False, "v": True, "vii": True}


def test_shift_steps_around_the_center_equal_fresh_ones(type_ac):
    # over swaps on every pair and the shiftings themselves, so that both
    # the spoke colors and the missing sets around the center vary
    g, phi, fan = type_ac
    steps = _shift_steps_around(g, fan)

    def moves(state):
        yield from swap_moves(state)
        for step in steps(state):
            yield step, _shift_recolorings(state, step.center, step.vertices)

    checked = []

    def goal(get, key, parent, move):
        nxt = get()
        assert steps(nxt) == _eligible_shift_steps(g, nxt, fan)
        checked.append(isinstance(move, ShiftStep))
        return False

    kempe_bfs(phi, moves, budget=60, goal=goal)
    assert True in checked and False in checked


def _witness_inputs(delta, spokes):
    """The gadget, its normalized fan and every (item, x, tau) the
    witness sweep checks on it."""
    g, phi = leaf_padded_gadget(delta, spokes)
    phi, fan = normalized(g, phi)
    fanmiss = fan_missing_union(phi, fan)
    closed = set(g.adjacency[fan.center]) | {fan.center}
    calls = []
    for tau in range(1, phi.k + 1):
        if tau in fanmiss:
            continue
        for x in range(g.n):
            if x in closed or not (phi.misses(x, tau) or phi.misses(x, delta)):
                continue
            for item in WITNESS_ITEMS:
                if item in ("i", "ii", "vii") and not phi.misses(x, tau):
                    continue
                calls.append((item, x, tau))
    return g, phi, fan, calls


def _recorded_searches(monkeypatch):
    """Patch the searches of `recolor` to keep, per call, its start, moves,
    result and goal calls (key, parent key, move, verdict)."""
    runs = []
    real = recolor.kempe_bfs

    def recording(start, moves, budget, accept=None, goal=None):
        calls = []

        def noted(get, key, parent, move):
            hit = goal(get, key, parent, move)
            calls.append((key, parent, move, hit))
            return hit

        res = real(start, moves, budget, accept, noted)
        runs.append((start, moves, res, calls))
        return res

    monkeypatch.setattr(recolor, "kempe_bfs", recording)
    return runs


def _eager(moves):
    """The moves of a witness search as the eager search took them: each
    shifting built by `shift`, and skipped when it raises."""
    def out(state):
        for move in moves(state):
            if isinstance(move, Chain):
                yield move
                continue
            step, _ = move
            try:
                yield step, shift(state, step.center, step.vertices)
            except ShiftIneligible:
                continue
    return out


def _assert_same_search(res, calls, ref, ref_calls):
    parents, expanded, exhausted, hit = ref
    assert res.parents == parents
    assert (res.expanded, res.exhausted) == (expanded, exhausted)
    assert (res.hit is None) == (hit is None)
    if hit is not None:
        assert res.hit.packed_key() == hit.packed_key()
    assert calls == ref_calls


@pytest.mark.parametrize("delta,spokes", WITNESS_FAMILY)
def test_searches_equal_the_eager_search(monkeypatch, delta, spokes):
    # the witness goal reads a state only when its verdict cannot be
    # inherited or is true, and the shifting goal reads keys alone; the
    # eager search builds every neighbour and tests each one afresh
    g, phi, fan, items = _witness_inputs(delta, spokes)
    runs = _recorded_searches(monkeypatch)
    budget = 200
    for item, x, tau in items:
        runs.clear()
        avoid = witness_avoid_set(item, tau, delta)
        _search_witness(item, g, phi, fan, x, tau, delta, avoid, budget)
        ((start, moves, res, calls),) = runs
        pairs = _post_pairs(item, tau, delta)
        want = _REQUIRED_STABILITY[item]
        ref_calls = []

        def fresh(state, key, parent, move):
            hit = _witness_post_ok(item, state, fan, x, pairs) and at_least_stable(
                stability_class(state, phi, fan), want)
            ref_calls.append((key, parent, move, hit))
            return hit

        ref = kempe_bfs_reference(start, _eager(moves), budget, goal=fresh)
        _assert_same_search(res, calls, ref, ref_calls)
    for target, budget in _equivalence_targets(g, phi, fan):
        runs.clear()
        shifting_kempe_equivalent(phi, target, budget=budget)
        ((start, moves, res, calls),) = runs
        want = target.packed_key()
        ref_calls = []

        def same(state, key, parent, move):
            ref_calls.append((key, parent, move, key == want))
            return key == want

        ref = kempe_bfs_reference(start, moves, budget, goal=same)
        _assert_same_search(res, calls, ref, ref_calls)


def _equivalence_targets(g, phi, fan):
    """(target, budget) for `shifting_kempe_equivalent` from phi: every
    shifting of phi, and phi with colors 1 and 2 interchanged, which the
    small budget does not reach."""
    out = []
    for ts in all_tau_sequences(g, phi, fan):
        if shifting_kind(ts, phi) is not None:
            out.append((apply_shifting(phi, fan, ts)[0], 200))
    out.append((relabel(phi, {1: 2, 2: 1}), 3))
    return out


def _counted_swaps(monkeypatch):
    """Patch `kempe_swap` to keep the key of every coloring it builds."""
    built = []
    real = colorings.kempe_swap

    def counting(phi, chain):
        out = real(phi, chain)
        built.append(out.packed_key())
        return out

    monkeypatch.setattr(colorings, "kempe_swap", counting)
    return built


@pytest.mark.parametrize("delta,spokes", WITNESS_FAMILY)
def test_searches_build_a_neighbour_only_when_read(monkeypatch, delta, spokes):
    g, phi, fan, items = _witness_inputs(delta, spokes)
    runs = _recorded_searches(monkeypatch)
    built = _counted_swaps(monkeypatch)
    # the shifting search reads only keys: it builds the states it expands
    # past the start, and the hit it returns
    for target, budget in _equivalence_targets(g, phi, fan):
        runs.clear()
        built.clear()
        shifting_kempe_equivalent(phi, target, budget=budget)
        ((_, _, res, _),) = runs
        assert len(built) == res.expanded - 1 + (res.hit is not None)
        assert len(set(built)) == len(built)
    # a witness search builds no neighbour twice, and only states it reached
    for item, x, tau in items:
        runs.clear()
        built.clear()
        avoid = witness_avoid_set(item, tau, delta)
        _search_witness(item, g, phi, fan, x, tau, delta, avoid, 200)
        ((_, _, res, _),) = runs
        assert len(set(built)) == len(built) <= len(res.parents) - 1
        assert set(built) <= set(res.parents)


@pytest.mark.parametrize("delta,spokes", WITNESS_FAMILY)
def test_shift_keys_derived_from_the_parent_equal_built_ones(monkeypatch, delta, spokes):
    g, phi, fan, items = _witness_inputs(delta, spokes)
    runs = _recorded_searches(monkeypatch)
    shifts = 0
    for item, x, tau in items:
        runs.clear()
        avoid = witness_avoid_set(item, tau, delta)
        _search_witness(item, g, phi, fan, x, tau, delta, avoid, 200)
        ((start, moves, res, _),) = runs
        # every state reached, rebuilt from its parent in the order reached
        states = {}
        for key, (parent, move) in res.parents.items():
            if move is None:
                states[key] = start
            elif isinstance(move, Chain):
                states[key] = kempe_swap(states[parent], move)
            else:
                states[key] = shift(states[parent], move.center, move.vertices)
            assert states[key].packed_key() == key
        entered = set(res.parents.values())
        # a hit can end the last expansion before its last move
        done = list(res.parents)[:res.expanded - (res.hit is not None)]
        for pkey in done:
            state = states[pkey]
            for move in moves(state):
                if isinstance(move, Chain):
                    continue
                step, _ = move
                shifts += 1
                try:
                    nkey = shift(state, step.center, step.vertices).packed_key()
                except ShiftIneligible:
                    assert (pkey, step) not in entered
                    continue
                assert nkey in res.parents
    assert shifts
