"""Acceptance criteria, one test per criterion, each printing a verdict line.

Everything here is exact: combinatorial oracles at desk scale, zero
tolerance. Run with `pytest tests/test_acceptance.py -v -s` to see the
per-criterion lines and timings.
"""

import json
import random
import time

import pytest

from fanforge.colorings import PartialEdgeColoring, kempe_swap
from fanforge.enumerate_graphs import (
    augment_level,
    canonical_form,
    delta_critical_candidate,
    masks_to_graph6,
)
from fanforge.fans import grow_multifan, normalize_typical
from fanforge.graphs import (
    complete,
    cycle,
    degree_profile,
    delete_vertex,
    from_adj_masks,
    from_graph6,
    petersen,
    to_graph6,
)
from fanforge.recolor import (
    WITNESS_ITEMS,
    fan_missing_union,
    is_avoiding,
    witness_avoid_set,
    witness_tau_item,
)
from fanforge.solver import (
    ColoringSpace,
    chromatic_index,
    critical_edges,
    is_delta_critical,
    is_just_overfull,
    is_overfull,
    overfull_deficiency,
)
from fanforge.theorems import (
    THEOREM_NAMES,
    ScanConfig,
    check_theorem,
    normalize_checks,
    run_graph_checks,
    scan_corpus,
    _max_fan_for,
)
from conftest import FIXTURES
from oracles import decode_graph6_reference, encode_graph6_reference

LEMMA_CORPUS = [
    ("C5", cycle(5)),
    ("C7", cycle(7)),
    ("C9", cycle(9)),
    ("K5", complete(5)),
    ("K7", complete(7)),
    ("Petersen-v", delete_vertex(petersen(), 0)),
]


def _line(n, ok, extra=""):
    print(f"{'PASS' if ok else 'FAIL'} criterion {n}{': ' + extra if extra else ''}")
    assert ok


def test_criterion_1_vizing_bound_sweep(fixture_lines):
    t0 = time.time()
    assert len(fixture_lines) == 996
    for line in fixture_lines:
        g = from_graph6(line)
        if not g.edges:
            continue
        cv = chromatic_index(g)
        assert cv.status == "ok"
        d = degree_profile(g).delta
        assert cv.chi_prime in (d, d + 1), line
        assert cv.witness.validate(), line
    dt = time.time() - t0
    _line(1, dt < 60, f"996 connected graphs on <= 7 vertices in {dt:.1f}s")


def test_criterion_2_known_classifications():
    for k in range(1, 5):
        assert chromatic_index(cycle(2 * k + 1)).chi_prime == 3
    for k in range(1, 4):
        assert chromatic_index(complete(2 * k + 1)).chi_prime == 2 * k + 1
    assert chromatic_index(petersen()).chi_prime == 4
    pm = delete_vertex(petersen(), 0)
    cv = chromatic_index(pm)
    assert cv.cls == "two" and cv.chi_prime == 4
    assert degree_profile(pm).delta == 3
    assert is_delta_critical(pm)
    _line(2, True, "odd cycles, odd cliques, Petersen, Petersen minus a vertex")


def test_criterion_3_overfull_arithmetic():
    pm = delete_vertex(petersen(), 0)
    assert is_overfull(cycle(5)) and is_just_overfull(cycle(5))
    assert is_overfull(complete(5)) and not is_just_overfull(complete(5))
    assert not is_overfull(pm)
    assert overfull_deficiency(cycle(5)) == 0
    assert overfull_deficiency(complete(5)) == -2
    assert overfull_deficiency(pm) == 2
    _line(3, True, "deficiencies 0, -2, 2")


def test_criterion_4_kempe_algebra(fixture_lines):
    rng = random.Random(20260808)
    t0 = time.time()
    draws = 0
    while draws < 1000:
        line = rng.choice(fixture_lines)
        g = from_graph6(line)
        if not g.edges:
            continue
        cv = chromatic_index(g)
        k = cv.chi_prime + rng.randint(0, 1)
        phi = PartialEdgeColoring.from_assignment(
            g, k, list(cv.witness.assignment)
        )
        a = rng.randint(1, k)
        b = rng.randint(1, k)
        if a == b:
            continue
        v = rng.randrange(g.n)
        draws += 1
        ch = phi.chain_at(v, a, b)
        phi2 = kempe_swap(phi, ch)
        assert phi2.validate()
        if ch.kind == "cycle" or len(ch.vertices) == 1:
            touched = set()
        else:
            touched = {ch.vertices[0], ch.vertices[-1]}
        for w in range(g.n):
            same = phi2.missing_at(w) == phi.missing_at(w)
            assert same or w in touched
        back = kempe_swap(phi2, phi2.chain_at(v, a, b))
        assert back.signature() == phi.signature()
    _line(4, True, f"1000 seeded draws, zero violations ({time.time()-t0:.1f}s)")


LEMMA_CHECK_NAMES = (
    "fan-elementary", "fan-linkage", "kierstead", "stable-swaps",
    "vf-stable-swaps", "tau-unique", "rs1-linkage", "pfan",
    "pfan-adjacency", "fan-missing-r", "val", "parity",
)


def test_criterion_5_lemma_suite():
    t0 = time.time()
    cfg = ScanConfig(checks=normalize_checks(",".join(LEMMA_CHECK_NAMES)))
    totals = {}
    for name, g in LEMMA_CORPUS:
        rep = run_graph_checks(0, to_graph6(g), cfg)
        assert rep.error is None, (name, rep.error)
        for cname, verdicts in rep.checks.items():
            for vd in verdicts:
                totals.setdefault(vd["status"], 0)
                totals[vd["status"]] += 1
                assert vd["status"] != "FAIL", (name, cname, vd)
                if vd["status"] == "INAPPLICABLE":
                    assert vd["detail"].get("reason"), (name, cname, vd)
    dt = time.time() - t0
    _line(5, dt < 600, f"verdicts {totals} in {dt:.1f}s")


def test_criterion_6_witness_sweep():
    """Every eligible (instance, x, tau, item) yields WITNESS or EXCLUDED;
    witnesses replay byte-exact and respect their avoidance sets. On this
    corpus every maximum fan's missing set covers the palette, so the
    eligible set is expected to be empty; the sweep still runs end to end.
    """
    cfg = ScanConfig()
    attempted = 0
    for name, g in LEMMA_CORPUS:
        cv = chromatic_index(g)
        if cv.cls != "two":
            continue
        crit = critical_edges(g)
        delta = degree_profile(g).delta
        for e in crit:
            u, v = g.endpoints(e)
            for r, s1 in ((u, v), (v, u)):
                prof = degree_profile(g)
                from fanforge.graphs import light_vertices

                if r not in light_vertices(g) or prof.degrees[s1] != delta - 1:
                    continue
                res = _max_fan_for(g, r, s1, cfg, ColoringSpace(g, e, delta))
                try:
                    nf = normalize_typical(g, res.phi, res.fan)
                except Exception:
                    continue
                phi, fan = nf.phi, nf.fan
                taus = [
                    t
                    for t in range(1, phi.k + 1)
                    if t not in fan_missing_union(phi, fan)
                ]
                closed = set(g.adjacency[r]) | {r}
                for tau in taus:
                    for x in range(g.n):
                        if x in closed:
                            continue
                        if not (phi.misses(x, tau) or phi.misses(x, delta)):
                            continue
                        for item in WITNESS_ITEMS:
                            if item in ("i", "ii", "vii") and not phi.misses(x, tau):
                                continue
                            attempted += 1
                            wr = witness_tau_item(
                                item, g, phi, fan, x, tau,
                                maximum_status=res.status,
                            )
                            assert wr.status in ("WITNESS", "EXCLUDED"), (
                                name, item, x, tau, wr.status, wr.detail,
                            )
                            if wr.status == "WITNESS":
                                assert (
                                    wr.transcript.replay(phi).signature()
                                    == wr.phi.signature()
                                )
                                assert is_avoiding(
                                    wr.transcript,
                                    sorted(witness_avoid_set(item, tau, delta)),
                                )
    _line(6, True, f"{attempted} eligible witness calls, zero FAIL")


@pytest.mark.slow
def test_criterion_7_theorem_scan_n9():
    t0 = time.time()
    levels = {1: [(0,)]}
    for n in range(2, 9):
        levels[n] = augment_level(levels[n - 1])
    criticals = []
    canonical = []
    for n in range(3, 10):
        cands = augment_level(levels[n - 1], keep=delta_critical_candidate)
        for masks in cands:
            g = from_adj_masks(list(masks))
            if is_delta_critical(g):
                criticals.append(g)
                canonical.append(masks_to_graph6(canonical_form(masks)))
    t1 = time.time()
    # the committed list of every critical graph with n <= 9, byte for byte:
    # the candidate bound must lose none of them
    fixture = (FIXTURES / "critical_n1_9.g6").read_text()
    assert "".join(line + "\n" for line in sorted(canonical)) == fixture
    by_order = {}
    for g in criticals:
        by_order[g.n] = by_order.get(g.n, 0) + 1
    # sanity against the published structure: none of even order here
    assert all(n % 2 == 1 for n in by_order)
    nonvacuous_s1 = 0
    for g in criticals:
        for tname in THEOREM_NAMES:
            v = check_theorem(tname, g)
            assert v.status != "FAIL", (to_graph6(g), tname, v.detail)
            if tname == "s1-adj" and v.status == "PASS":
                nonvacuous_s1 += v.detail.get("instances", 0)
    assert nonvacuous_s1 >= 1
    _line(
        7,
        True,
        f"{len(criticals)} edge-critical graphs {by_order}; "
        f"zero FAIL, {nonvacuous_s1} non-vacuous adjacency instances "
        f"(criticality {t1-t0:.0f}s, checks {time.time()-t1:.0f}s)",
    )


def test_criterion_8_graph6_round_trip(fixture_lines):
    for line in fixture_lines:
        g = from_graph6(line)
        assert to_graph6(g) == line  # byte-exact
        n, edges = decode_graph6_reference(line)
        assert n == g.n and edges == {frozenset(e) for e in g.edges}
        assert encode_graph6_reference(n, edges) == line
    _line(8, True, "main decoder and test oracle agree on all 996 lines")


def test_criterion_9_scan_determinism(fixture_lines):
    t0 = time.time()
    cfg = ScanConfig(checks=("val", "parity"))
    r1, s1 = scan_corpus(fixture_lines, cfg, workers=1)
    r8, s8 = scan_corpus(fixture_lines, cfg, workers=8)
    j1 = [json.dumps(r, sort_keys=True) for r in r1]
    j8 = [json.dumps(r, sort_keys=True) for r in r8]
    assert sorted(j1) == sorted(j8)  # order-normalized content equality
    assert j1 == j8  # and the scan already emits in input order
    assert s1["checks"] == s8["checks"]
    _line(9, True, f"1 vs 8 workers identical on 996 graphs ({time.time()-t0:.1f}s)")
