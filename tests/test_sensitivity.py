"""The per-coloring lemma verifiers can FAIL.

The lemmas assume that the uncolored edge is critical in a class-2
graph. The lemma suite checks that once per graph, and on a class-1
graph it answers INAPPLICABLE for every lemma check. The verifier alone
assumes the hypothesis, so it meets colorings that the lemmas say
nothing about, and there it FAILs. So a verifier that always passes
would show here.

Each case pins one class-1 input per verifier, and `fan-linkage` has
one for part (b) and one for part (c): a graph6 line, the uncolored
edge, the orientation (r, s1) and a normal coloring of G - e.
The swap verifiers run on the normalized fan, as the lemma suite runs
them. `tau-witnesses` runs on the normalized maximum fan, as the lemma
suite runs it, so its input coloring is the one the exhaustive
maximum-fan search picks. A digest pins the verdicts
of the five per-coloring verifiers over the small coloring spaces of the
fixture graphs.
"""

from __future__ import annotations

import collections
import functools
import hashlib
import json

import pytest

from conftest import FIXTURES, leaf_padded_gadget
from oracles import (
    _edge_with_color_reference,
    are_linked_reference,
    chain_at_reference,
    colorings_reference,
    kempe_swap_reference,
    stability_class_reference,
)
from fanforge.colorings import PartialEdgeColoring, kempe_swap
from fanforge.fans import (
    FanError,
    at_least_stable,
    grow_kierstead_path,
    grow_multifan,
    inducing_map,
    normalize_typical,
    search_maximum_multifan,
    stability_class,
    verify_fan_elementary,
    verify_fan_linkage,
    verify_kp_elementary,
    verify_stable_swaps,
    verify_vf_stable_swaps,
)
from fanforge.graphs import degree_profile, from_graph6
from fanforge.recolor import _REQUIRED_STABILITY, _post_pairs
from fanforge.solver import ColoringSpace
from fanforge.theorems import ScanConfig, _check_tau_witnesses, run_lemma_suite

# check -> (graph6, edge, r, s1, normal coloring of G - e, FAIL detail)
CASES = {
    "fan-elementary": (
        "BW", 0, 2, 0, "2; 0=_,1=1",
        {"clash": {"u": 2, "v": 0, "color": 2}, "coloring": "2; 0=_,1=1"},
    ),
    "fan-linkage": (
        "FBj^O", 7, 4, 2, "4; 0=1,1=2,2=3,3=2,4=4,5=1,6=4,7=_,8=2,9=1,10=3,11=4",
        {"part": "b", "u": 2, "v": 0, "colors": [3, 4],
         "coloring": "4; 0=1,1=2,2=3,3=2,4=4,5=1,6=4,7=_,8=2,9=1,10=3,11=4"},
    ),
    # part (c) needs a space above 400 colorings: G - e holds 1,248
    "fan-linkage-c": (
        "G@LT]W", 9, 4, 6, "4; 0=1,1=2,2=3,3=4,4=4,5=2,6=3,7=1,8=2,9=_,10=3,11=4,12=1",
        {"part": "c", "u": 6, "v": 3, "colors": [2, 3],
         "coloring": "4; 0=1,1=2,2=3,3=4,4=4,5=2,6=3,7=1,8=2,9=_,10=3,11=4,12=1"},
    ),
    "kierstead": (
        "CV", 0, 0, 2, "3; 0=_,1=1,2=2,3=3",
        {"clash": {"u": 0, "v": 2, "color": 2}, "degrees": [2, 2, 3, 1],
         "coloring": "3; 0=_,1=1,2=2,3=3"},
    ),
    "stable-swaps": (
        "E@^O", 3, 3, 2, "3; 0=1,1=2,2=3,3=_,4=1,5=3,6=2",
        {"x": 0, "swap": [1, 2], "case": "1-gamma", "got": "V(F-r)-stable",
         "coloring": "3; 0=1,1=2,2=3,3=_,4=1,5=3,6=2"},
    ),
    "vf-stable-swaps": (
        "FBj^O", 7, 4, 2, "4; 0=1,1=2,2=3,3=2,4=4,5=1,6=4,7=_,8=2,9=1,10=3,11=4",
        {"x": 1, "swap": [3, 4], "got": "none",
         "coloring": "4; 0=2,1=1,2=4,3=1,4=3,5=2,6=3,7=_,8=1,9=2,10=4,11=3"},
    ),
    "tau-witnesses": (
        "FcjQw", 4, 5, 1, "4; 0=1,1=2,2=3,3=4,4=_,5=2,6=2,7=1,8=4,9=1,10=3",
        {"item": "v", "x": 4, "tau": 3,
         "detail": {
             "sequence": {"tau": 3, "vertices": [3], "type": "B", "terminal_color": 2},
             "construction_error": "shift result improper: color 3 clashes at edge 10",
             "reason": "construction failed and the bounded move space holds no witness",
         },
         "coloring": "4; 0=3,1=1,2=2,3=4,4=_,5=1,6=1,7=3,8=4,9=3,10=2"},
    ),
}


def _verify(check, g, phi, r, s1):
    """The verifier of `check` alone on phi at (r, s1)."""
    fan = grow_multifan(g, phi, r, s1)
    if check == "tau-witnesses":
        # phi carries a maximum fan (test_tau_witness_input_is_the_maximum_fan)
        nf = normalize_typical(g, phi, fan)
        return _check_tau_witnesses(g, nf.phi, nf.fan, "EXACT")
    if check == "fan-elementary":
        return verify_fan_elementary(g, phi, fan)
    if check.startswith("fan-linkage"):
        return verify_fan_linkage(g, phi, fan)
    if check == "kierstead":
        kp = grow_kierstead_path(g, phi, r, s1, max_len=4)
        return verify_kp_elementary(g, phi, kp)
    nf = normalize_typical(g, phi, fan)
    verify = {"stable-swaps": verify_stable_swaps,
              "vf-stable-swaps": verify_vf_stable_swaps}[check]
    return verify(g, nf.phi, nf.fan)


def _case(check):
    line, e, r, s1, coloring, detail = CASES[check]
    g = from_graph6(line)
    phi = PartialEdgeColoring.from_line(g, coloring)
    assert phi.uncolored == e and set(g.endpoints(e)) == {r, s1}
    return g, phi, r, s1, detail


@pytest.mark.parametrize("check", sorted(CASES))
def test_gated_verdict_is_inapplicable_on_a_class_one_graph(check):
    g = _case(check)[0]
    name = "fan-linkage" if check == "fan-linkage-c" else check
    (v,) = run_lemma_suite(g, ScanConfig(), [name])[name]
    assert (v.status, v.detail) == ("INAPPLICABLE", {"reason": "graph is class 1"})


@pytest.mark.parametrize("check", sorted(CASES))
def test_bypassed_gate_fails_with_the_recorded_detail(check):
    g, phi, r, s1, detail = _case(check)
    v = _verify(check, g, phi, r, s1)
    assert v.status == "FAIL"
    assert v.detail == detail


@pytest.mark.parametrize("check", sorted(CASES))
def test_failing_coloring_replays_and_shows_the_violation(check):
    g, phi, r, s1, detail = _case(check)
    assert phi.to_line() == CASES[check][4] and phi.validate()
    psi = PartialEdgeColoring.from_line(g, detail["coloring"])
    assert psi.to_line() == detail["coloring"] and psi.validate()
    if "clash" in detail:
        # the clash color is on no edge at either vertex
        clash = detail["clash"]
        for v in (clash["u"], clash["v"]):
            assert _edge_with_color_reference(psi, v, clash["color"]) is None
    elif "part" in detail:
        assert not are_linked_reference(psi, detail["u"], detail["v"], *detail["colors"])
        if detail["part"] == "c":
            # and r is off the later spoke's chain
            assert r not in chain_at_reference(psi, detail["v"], *detail["colors"]).vertices
    elif "item" in detail:
        # no Delta-coloring of G - e, reachable or not, is a witness: none
        # cuts x off s1's chain on a post-condition pair and keeps the
        # normalized fan as stable as the item requires
        fan = normalize_typical(g, psi, grow_multifan(g, psi, r, s1)).fan
        assert normalize_typical(g, psi, fan).phi.to_line() == detail["coloring"]
        item, x = detail["item"], detail["x"]
        pairs = _post_pairs(item, detail["tau"], psi.k)
        witnesses = 0
        for colors in colorings_reference(g.n, list(g.edges), phi.uncolored, psi.k):
            phi2 = PartialEdgeColoring.from_assignment(g, psi.k, colors, uncolored=phi.uncolored)
            cut = any(
                any(_edge_with_color_reference(phi2, s1, c) is None for c in pair)
                and x not in chain_at_reference(phi2, s1, *pair).vertices
                for pair in pairs
            )
            stable = at_least_stable(stability_class_reference(phi2, psi, fan),
                                     _REQUIRED_STABILITY[item])
            witnesses += cut and stable
        assert witnesses == 0
    else:
        # the swap at x, replayed by the reference chain and swap, is not
        # as stable as the lemma claims
        fan = normalize_typical(g, psi, grow_multifan(g, psi, r, s1)).fan
        chain = chain_at_reference(psi, detail["x"], *detail["swap"])
        after = kempe_swap_reference(psi, chain)
        assert stability_class_reference(after, psi, fan) == detail["got"]


def test_tau_witness_input_is_the_maximum_fan():
    # the exhaustive search over every coloring of G - e picks the input
    line, e, r, s1, coloring, _ = CASES["tau-witnesses"]
    g = from_graph6(line)
    res = search_maximum_multifan(g, r, s1, "exhaustive", 10**4)
    assert res.status == "EXACT"
    assert res.phi.to_line() == coloring


@functools.lru_cache(maxsize=None)
def _fixture_runs():
    """Every normal coloring of every G - e with at most 400 colorings
    (orbit sum) over the fixture graphs, both orientations, each verifier
    alone:
    the digest of the five verdicts, the inducing map of the normalized
    fan or the normalization error, the FAIL counts, and the normalized
    colorings and fans."""
    h = hashlib.sha256()
    fails = collections.Counter()
    normalized = []
    for line in (FIXTURES / "connected_n1_7.g6").read_text().split():
        g = from_graph6(line)
        if not g.m():
            continue
        delta = degree_profile(g).delta
        for e in range(g.m()):
            space = ColoringSpace(g, e, delta)
            if space.size(400) > 400:
                continue
            u, v = g.endpoints(e)
            for r, s1 in ((u, v), (v, u)):
                for phi in space.normal():
                    fan = grow_multifan(g, phi, r, s1)
                    kp = grow_kierstead_path(g, phi, r, s1, max_len=4)
                    verdicts = [
                        verify_fan_elementary(g, phi, fan),
                        verify_fan_linkage(g, phi, fan),
                        verify_kp_elementary(g, phi, kp),
                    ]
                    try:
                        nf = normalize_typical(g, phi, fan)
                    except FanError as exc:
                        record = [str(exc)]
                    else:
                        normalized.append((nf.phi, nf.fan))
                        record = [inducing_map(g, nf.phi, nf.fan).to_json()]
                        verdicts += [
                            verify_stable_swaps(g, nf.phi, nf.fan),
                            verify_vf_stable_swaps(g, nf.phi, nf.fan),
                        ]
                    for vd in verdicts:
                        record.append(vd.to_json())
                        if vd.status == "FAIL":
                            fails[vd.check] += 1
                            if vd.check == "fan-linkage":
                                fails["fan-linkage " + vd.detail.get("part", "-")] += 1
                    h.update(json.dumps(record, sort_keys=True).encode())
    return h.hexdigest()[:16], dict(fails), normalized


def test_bypassed_verdicts_over_the_fixture_spaces_are_pinned():
    digest, fails, normalized = _fixture_runs()
    assert len(normalized) == 780
    assert fails == {
        "fan-elementary": 29191,
        "fan-linkage": 33423,
        # 29,191 on a fan that is not elementary; part (c) never fails
        "fan-linkage -": 29191,
        "fan-linkage a": 4225,
        "fan-linkage b": 7,
        "kierstead-elementary": 13093,
        "stable-swaps": 493,
        "vf-stable-swaps": 27,
    }
    assert digest == "c30dfb84c0a77960"


GADGETS = [
    (4, [(3, 1)]),
    (4, [(3, 2)]),
    (5, [(3, 4), (4, 3)]),
    (5, [(3, 1), (4, 3)]),
    (6, [(3, 4), (4, 5), (5, 4)]),
    (6, [(3, 4), (4, 3), (5, 3)]),
]


def test_stability_class_equals_the_reference_on_every_single_swap():
    fans = list(_fixture_runs()[2])
    for delta, spokes in GADGETS:
        g, phi = leaf_padded_gadget(delta, spokes)
        nf = normalize_typical(g, phi, grow_multifan(g, phi, 0, 1))
        fans.append((nf.phi, nf.fan))
    seen = collections.Counter()
    for phi, fan in fans:
        for a in range(1, phi.k + 1):
            for b in range(a + 1, phi.k + 1):
                for chain in phi.chains(a, b):
                    after = kempe_swap(phi, chain)
                    got = stability_class(after, phi, fan)
                    assert got == stability_class_reference(after, phi, fan)
                    seen[got] += 1
    assert set(seen) == {"F-stable", "V(F)-stable", "V(F-r)-stable", "none"}
