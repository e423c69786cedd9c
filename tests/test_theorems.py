import dataclasses
import functools
import hashlib
import itertools
import json
import random
from collections import Counter
from pathlib import Path

import pytest
from conftest import colorings_of
from hypothesis import given, settings, strategies as st

from fanforge import fans, graphs, solver, theorems
from fanforge import verdicts as V
from fanforge.colorings import PartialEdgeColoring
from fanforge.graphs import (
    SimpleGraph,
    complete,
    cycle,
    degree_profile,
    delete_edge,
    delete_vertex,
    from_graph6,
    light_vertices,
    petersen,
    to_graph6,
)
from fanforge.theorems import (
    LEMMA_CHECKS,
    ScanConfig,
    check_conjecture,
    check_parity,
    check_theorem,
    check_val,
    exit_code,
    grow_pfan,
    normalize_checks,
    run_graph_checks,
    run_lemma_suite,
    scan_corpus,
    summary_tsv,
    verify_pfan_adjacency,
    verify_pfan_properties,
)
from oracles import lemma_sample_verdicts_reference, lemma_verdicts_reference

PM = delete_vertex(petersen(), 0)
K5E = delete_edge(complete(5), 0)


def test_val_examples():
    assert check_val(cycle(5)).status == "PASS"
    assert check_val(complete(5)).status == "PASS"  # no critical edges
    assert check_val(cycle(4)).status == "INAPPLICABLE"
    assert check_val(PM).status == "PASS"
    assert check_val(K5E).status == "PASS"


def test_val_counts_directions():
    v = check_val(cycle(5))
    assert v.detail["critical_edges"] == 5
    assert v.detail["checked"] == 10


def test_theorem_s1_adj():
    v = check_theorem("s1-adj", PM)
    assert v.status == "PASS" and v.detail["instances"] > 0
    assert check_theorem("s1-adj", cycle(4)).status == "INAPPLICABLE"
    # C5: no center has a below-maximum neighbor
    assert check_theorem("s1-adj", cycle(5)).status == "INAPPLICABLE"


def test_theorem_hypothesis_arithmetic():
    # maximum degree too small relative to order
    assert check_theorem("main", PM).status == "INAPPLICABLE"
    # K5 is not edge-critical
    assert check_theorem("main", complete(5)).status == "INAPPLICABLE"
    # K5 minus an edge: Delta=4 > 5/2+1, core is a triangle with min degree 2
    assert check_theorem("main", K5E).status == "PASS"
    assert check_theorem("longk2", K5E).status == "PASS"


def test_conjecture_checks():
    assert check_conjecture("just-overfull", cycle(5)).status == "INAPPLICABLE"
    assert check_conjecture("overfull", cycle(5)).status == "PASS"
    # K5 is not edge-critical, so the criticality gate rules it out
    assert check_conjecture("just-overfull", complete(5)).status == "INAPPLICABLE"
    assert check_conjecture("just-overfull", K5E).status == "PASS"
    assert check_conjecture("overfull", K5E).status == "PASS"


def test_parity_check_verdict():
    assert check_parity(cycle(5)).status == "PASS"
    assert check_parity(complete(7)).status == "PASS"


def _typical_max_fan(g, r, s1, mode, budget):
    res = fans.search_maximum_multifan(g, r, s1, mode, budget)
    nf = fans.normalize_typical(g, res.phi, res.fan)
    return fans.MaxFanResult(nf.phi, nf.fan, res.status, res.explored)


def test_grow_pfan_empty_extension():
    # a maximum multifan is always a pseudo-fan
    base = _typical_max_fan(PM, 0, 4, "exhaustive", 50_001)
    pf = grow_pfan(PM, base, budget=30)
    assert pf.base.status == "EXACT"
    assert pf.p2_status == "VERIFIED-WITHIN-BUDGET"
    v = verify_pfan_properties(PM, pf)
    assert v.status == "PASS"
    v2 = verify_pfan_adjacency(PM, pf)
    assert v2.status == "PASS"


def test_grow_pfan_budget_zero_unknown():
    base = _typical_max_fan(PM, 0, 4, "exhaustive", 50_001)
    pf = grow_pfan(PM, base, budget=0)
    assert pf.p2_status == "UNKNOWN"


def test_pfan_requires_low_degree_spoke():
    from fanforge.fans import FanError

    # s1 has maximum degree, so normalize_typical refuses this fan too;
    # the unnormalized base reaches grow_pfan's own degree test
    base = fans.search_maximum_multifan(PM, 0, 6, "exhaustive", 50_001)
    with pytest.raises(FanError, match="Delta-1"):
        grow_pfan(PM, base)


def test_grow_pfan_requires_a_typical_base():
    base = fans.search_maximum_multifan(PM, 0, 4, "exhaustive", 50_001)
    assert base.fan.typical is None
    with pytest.raises(fans.FanError, match="not typical"):
        grow_pfan(PM, base)


def _count_walks(monkeypatch) -> Counter:
    """Counts the `_backtrack` walks of a space G - e by e."""
    walks = Counter()
    real = solver._backtrack

    def counting(g, order, *args):
        rest = set(range(g.m())) - set(order)
        if len(rest) == 1:
            walks[rest.pop()] += 1
        return real(g, order, *args)

    monkeypatch.setattr(solver, "_backtrack", counting)
    return walks


FUNJW = from_graph6("Funjw")


@pytest.mark.parametrize("fan_budget", [2000, 5])
def test_lemma_suite_enumerates_each_critical_edge_once(monkeypatch, fan_budget):
    # PM's spaces hold 18 or 42 colorings: fan_budget 2000 takes the
    # exhaustive branches and 5 the reachability ones. Funjw's hold
    # 2,400-4,560, more than ENUM_CAP and fan_budget + 1: its sample is a
    # true prefix, which the reachability start shares. The sample, the
    # maximum fans and the reachability starts all come from one walk
    walks = _count_walks(monkeypatch)
    for g in (PM, FUNJW):
        crit = solver.graph_facts(g).critical_edges()
        walks.clear()
        cfg = ScanConfig(checks=LEMMA_CHECKS, fan_budget=fan_budget)
        out = run_lemma_suite(g, cfg, LEMMA_CHECKS)
        assert any(v.status != "INAPPLICABLE" for v in out["pfan"])
        assert walks == {e: 1 for e in crit}


def test_lemma_suite_searches_one_maximum_fan_per_orientation(monkeypatch):
    # fan_budget 5 sends every space of PM to the reachability search; the
    # pseudo-fan at a max-degree center reads the suite's fan, not its own
    searches = Counter()
    real = fans.search_maximum_multifan

    def counting(g, r, s1, mode="exhaustive", *args, **kwargs):
        searches[(r, s1, mode)] += 1
        return real(g, r, s1, mode, *args, **kwargs)

    monkeypatch.setattr(theorems, "search_maximum_multifan", counting)
    cfg = ScanConfig(checks=LEMMA_CHECKS, fan_budget=5)
    out = run_lemma_suite(PM, cfg, LEMMA_CHECKS)
    assert any(v.status != "INAPPLICABLE" for v in out["pfan"])
    prof = degree_profile(PM)
    oriented = [
        (r, s1)
        for e in solver.graph_facts(PM).critical_edges()
        for r, s1 in (PM.endpoints(e), PM.endpoints(e)[::-1])
        if r in light_vertices(PM) and prof.degrees[s1] == prof.delta - 1
    ]
    assert oriented
    assert searches == Counter({(r, s1, "reachability"): 1 for r, s1 in oriented})


def test_lemma_suite_reachability_expansions_on_funjw_are_pinned(monkeypatch):
    # Funjw sends six orientations to the reachability search at the
    # default fan_budget. Full searches expand 3,200 states; stopped at a
    # spanning fan, five end at their first coloring and one after 7
    explored = []
    real = fans.search_maximum_multifan

    def counting(g, r, s1, mode="exhaustive", *args, **kwargs):
        res = real(g, r, s1, mode, *args, **kwargs)
        if mode == "reachability":
            explored.append(res.explored)
        return res

    monkeypatch.setattr(theorems, "search_maximum_multifan", counting)
    run_lemma_suite(FUNJW, ScanConfig(checks=LEMMA_CHECKS), LEMMA_CHECKS)
    assert len(explored) == 6
    assert sum(explored) == 7


def test_pfan_extends_the_fan_rs1_linkage_reads(monkeypatch):
    # at fan_budget 50 the spaces of F~z^w take the reachability branch,
    # where a pseudo-fan with its own smaller search would start elsewhere
    g = from_graph6("F~z^w")
    linkage_read = {}
    pfan_bases = []
    real_linkage = theorems.verify_rs1_linkage
    real_pfan = theorems.verify_pfan_properties

    def linkage(g, phi, fan, *args, **kwargs):
        linkage_read[(fan.center, fan.sequence[0])] = (phi.to_line(), fan.to_json())
        return real_linkage(g, phi, fan, *args, **kwargs)

    def pfan(g, pf, *args, **kwargs):
        pfan_bases.append(pf.base)
        return real_pfan(g, pf, *args, **kwargs)

    monkeypatch.setattr(theorems, "verify_rs1_linkage", linkage)
    monkeypatch.setattr(theorems, "verify_pfan_properties", pfan)
    cfg = ScanConfig(checks=("rs1-linkage", "pfan"), fan_budget=50)
    run_lemma_suite(g, cfg, cfg.checks)
    assert pfan_bases
    for base in pfan_bases:
        key = (base.fan.center, base.fan.sequence[0])
        assert linkage_read[key] == (base.phi.to_line(), base.fan.to_json())


def test_degree_facts_are_computed_once_per_graph():
    g = from_graph6("Feujg")
    assert degree_profile(g) is degree_profile(g)
    assert light_vertices(g) is light_vertices(g)
    assert degree_profile(g) == degree_profile(from_graph6("Feujg"))


def test_run_graph_checks_zero_fail_on_corpus():
    cfg = ScanConfig(checks=normalize_checks("all"))
    for g in (cycle(5), cycle(7), complete(5), K5E, PM):
        rep = run_graph_checks(0, to_graph6(g), cfg)
        assert rep.error is None
        for name, verdicts in rep.checks.items():
            for vd in verdicts:
                assert vd["status"] != "FAIL", (name, vd)


def test_scan_parse_error_isolated():
    cfg = ScanConfig()
    lines, summary = scan_corpus(
        [to_graph6(cycle(5)), "!!bad!!", to_graph6(cycle(4))], cfg
    )
    reports = [json.loads(line) for line in lines]
    assert len(reports) == 3
    assert summary["errors"] == 1
    assert reports[1]["error"]
    assert reports[0]["checks"]
    assert exit_code(summary) == 3


def test_scan_empty_stream():
    reports, summary = scan_corpus([], ScanConfig())
    assert reports == []
    assert exit_code(summary) == 0


def test_scan_deterministic_across_workers(fixture_lines):
    # more than one chunk of 16 graphs, so the scan forks a 2-process pool
    lines = [to_graph6(cycle(5)), to_graph6(complete(4)), to_graph6(K5E)]
    lines += fixture_lines[::67]
    assert len(lines) > 16
    cfg = ScanConfig()
    r1, s1 = scan_corpus(lines, cfg, workers=1)
    r2, s2 = scan_corpus(lines, cfg, workers=3)
    assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)
    assert s1["checks"] == s2["checks"]


@pytest.mark.parametrize("graphs,workers,processes", [
    (3, 64, 0), (16, 2, 0), (17, 2, 2), (33, 64, 3), (40, 2, 2),
])
def test_scan_starts_no_process_without_a_chunk_of_work(
        monkeypatch, graphs, workers, processes):
    # the pool maps in chunks of 16 tasks; a fake pool that maps in
    # process records how many processes the scan asks for, and a scan of
    # one chunk asks for no pool (processes 0)
    import multiprocessing

    asked = []

    class FakePool:
        def __init__(self, n):
            asked.append(n)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, f, tasks, chunksize):
            assert chunksize == 16
            return [f(t) for t in tasks]

    class FakeContext:
        Pool = FakePool

    monkeypatch.setattr(multiprocessing, "get_context", lambda method: FakeContext)
    lines = [to_graph6(cycle(n)) for n in range(3, 3 + graphs)]
    cfg = ScanConfig(checks=("val",))
    reports, summary = scan_corpus(lines, cfg, workers=workers)
    assert asked == ([processes] if processes else [])
    assert (reports, summary) == scan_corpus(lines, cfg, workers=1)


def test_scan_lines_are_canonical_json_for_every_worker_count(fixture_lines):
    # criterion 9's invariant: each line is the report encoded once with
    # sorted keys, so decoding and re-encoding gives the same bytes, and
    # the line list does not depend on the worker count
    cfg = ScanConfig(checks=("val", "parity"))
    lines1, s1 = scan_corpus(fixture_lines, cfg, workers=1)
    assert len(lines1) == len(fixture_lines)
    for line in lines1:
        assert line == json.dumps(json.loads(line), sort_keys=True)
    lines2, s2 = scan_corpus(fixture_lines, cfg, workers=2)
    assert lines1 == lines2
    assert s1 == s2


def test_scan_summary_counts_every_verdict_of_every_report():
    lines = [to_graph6(cycle(5)), to_graph6(PM), "!!bad!!", to_graph6(cycle(4))]
    cfg = ScanConfig(checks=normalize_checks("graph"))
    reports, summary = scan_corpus(lines, cfg)
    decoded = [json.loads(r) for r in reports]
    assert summary["graphs"] == 4 and summary["errors"] == 1
    assert summary["config"] == cfg.to_json()
    expect: dict = {}
    for rep in decoded:
        if rep["error"]:
            continue
        for name, verdicts in rep["checks"].items():
            row = expect.setdefault(
                name, dict.fromkeys(("PASS", "FAIL", "INAPPLICABLE", "UNKNOWN", "CONDITIONAL"), 0)
            )
            for vd in verdicts:
                row[vd["status"]] += 1
    assert summary["checks"] == expect


def test_exit_codes():
    cfg = ScanConfig(checks=("val", "parity"))
    reports, summary = scan_corpus([to_graph6(cycle(5))], cfg)
    assert exit_code(summary) == 0
    # a failing check is simulated by editing the summary
    summary["checks"]["val"]["FAIL"] = 1
    assert exit_code(summary) == 1
    summary["checks"]["val"]["FAIL"] = 0
    summary["checks"]["val"]["UNKNOWN"] = 1
    assert exit_code(summary) == 2


def test_summary_tsv_shape():
    cfg = ScanConfig(checks=("val",))
    reports, summary = scan_corpus([to_graph6(cycle(5))], cfg)
    tsv = summary_tsv(summary)
    lines = tsv.strip().split("\n")
    assert lines[0].split("\t") == [
        "check", "PASS", "FAIL", "INAPPLICABLE", "UNKNOWN", "CONDITIONAL",
    ]
    assert lines[1].startswith("val\t1\t0")


def test_normalize_checks():
    assert "val" in normalize_checks("graph")
    assert set(normalize_checks("all")) >= set(normalize_checks("lemmas"))
    assert normalize_checks("s1-adj,val") == ("s1-adj", "val")
    with pytest.raises(ValueError):
        normalize_checks("nonsense")
    for empty in (",", "", " , ", ()):
        with pytest.raises(ValueError, match="no check selected"):
            normalize_checks(empty)


def test_fail_reports_replay():
    # fabricate a graph violating nothing; instead check that the stored
    # coloring lines in any FAIL detail would replay: use a non-critical
    # fan instance to trigger a tau-unique CONDITIONAL rather than FAIL
    cfg = ScanConfig(checks=("tau-unique",))
    rep = run_graph_checks(0, to_graph6(PM), cfg)
    for vd in rep.checks["tau-unique"]:
        assert vd["status"] in ("PASS", "INAPPLICABLE", "CONDITIONAL")


def test_pfan_extension_prunes_with_replayable_witness():
    from conftest import leaf_padded_gadget
    from fanforge.colorings import PartialEdgeColoring
    from fanforge.fans import grow_multifan, normalize_typical
    from fanforge.theorems import pfan_extension

    # the gadget's lone low-degree spoke candidate shares missing color 2
    # with s1 under the base coloring itself
    g, phi = leaf_padded_gadget(4, [(3, 2)])
    nf = normalize_typical(g, phi, grow_multifan(g, phi, 0, 1))
    ext, pruned = pfan_extension(g, nf.fan, [nf.phi])
    assert ext == []
    assert len(pruned) == 1 and pruned[0]["status"] == "VIOLATED"
    w = PartialEdgeColoring.from_line(g, pruned[0]["witness"])
    assert not w.is_elementary(
        nf.fan.vertex_set() + (pruned[0]["vertex"],)
    )


def test_pfan_extension_accepts_on_scan_instance():
    # a 9-vertex critical graph whose center keeps two spokes out of the
    # fan; both extend (elementarity holds across the explored space)
    g = from_graph6("HsRjpu{")
    # G - rs1 has 13,920 colorings, so the base comes from a reachability
    # search
    pf = grow_pfan(g, _typical_max_fan(g, 6, 7, "reachability", 60), budget=60)
    assert set(pf.extension) == {1, 3}
    assert pf.pruned == []
    assert pf.p2_status == "VERIFIED-WITHIN-BUDGET"
    v = verify_pfan_properties(g, pf)
    assert v.status in ("PASS", "FAIL", "INAPPLICABLE")
    assert v.status != "FAIL"
    v2 = verify_pfan_adjacency(g, pf)
    assert v2.status != "FAIL"


def test_fail_plumbing_carries_violations():
    from fanforge.fans import Multifan, verify_fan_elementary

    g = cycle(5)
    from fanforge.colorings import PartialEdgeColoring

    phi = PartialEdgeColoring.from_assignment(g, 2, [None, 2, 1, 2, 1])
    bogus = Multifan(
        center=0,
        uncolored_edge=0,
        sequence=(1, 3),  # vertex 3 is not adjacent to the center
        edge_colors={},
        missing={},
    )
    v = verify_fan_elementary(g, phi, bogus)
    assert v.status == "FAIL"
    assert v.detail["violations"]


def test_scan_lemma_checks_through_workers():
    lines = [to_graph6(delete_edge(complete(5), 0))]
    cfg = ScanConfig(checks=normalize_checks("fan-elementary,rs1-linkage"))
    r1, s1 = scan_corpus(lines, cfg, workers=1)
    r2, s2 = scan_corpus(lines, cfg, workers=2)
    assert r1 == r2
    assert s1["checks"]["fan-elementary"]["FAIL"] == 0
    assert s1["checks"]["fan-elementary"]["PASS"] > 0


@pytest.mark.slow
def test_all_checks_zero_fail_on_every_class_two_small_graph(fixture_lines):
    # structural results are oracles: nothing may FAIL on any class-2
    # graph with at most 7 vertices under the full check set
    from fanforge.solver import chromatic_index

    class2 = [
        line
        for line in fixture_lines
        if from_graph6(line).edges
        and chromatic_index(from_graph6(line)).cls == "two"
    ]
    assert len(class2) == 40
    cfg = ScanConfig(checks=normalize_checks("all"))
    reports, summary = scan_corpus(class2, cfg, workers=2)
    assert summary["errors"] == 0
    for name, row in summary["checks"].items():
        assert row["FAIL"] == 0, (name, row)
    # and the reports keep every byte: a gate on the whole lemma path
    digest = hashlib.sha256("".join(r + "\n" for r in reports).encode()).hexdigest()
    assert digest == "e8440f7fe2bc79cd0fd25efd7994872924a20e92d44742f69c85decfe4e08074"


def test_pfan_violation_downgrades_without_certified_maximum():
    # a class-2 graph whose working-coloring space is too large for the
    # exhaustive maximum: the base fan stays LOWER-BOUND, so a violated
    # conclusion reads CONDITIONAL, not FAIL
    g = from_graph6("F}qzw")
    pf = grow_pfan(g, _typical_max_fan(g, 0, 2, "reachability", 200), budget=200)
    assert pf.base.status == "LOWER-BOUND"
    res = verify_pfan_properties(g, pf)
    assert res.status in ("PASS", "CONDITIONAL")


@pytest.fixture(scope="module")
def class_two_lines(fixture_lines):
    return [
        line for line in fixture_lines
        if from_graph6(line).edges and solver.chromatic_index(from_graph6(line)).cls == "two"
    ]


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_relabeling_keeps_every_graph_level_status(fixture_lines, class_two_lines, data):
    # lemma checks are left out: they sample colorings in enumeration
    # order, so their counts depend on the labeling
    line = data.draw(st.one_of(
        st.sampled_from(class_two_lines), st.sampled_from(fixture_lines)
    ))
    g = from_graph6(line)
    perm = data.draw(st.permutations(range(g.n)))
    h = SimpleGraph(g.n, [(perm[u], perm[v]) for u, v in g.edges])
    cfg = ScanConfig(checks=normalize_checks("graph"))

    def statuses(graph):
        rep = run_graph_checks(0, to_graph6(graph), cfg)
        assert rep.error is None
        return {name: [vd["status"] for vd in vs] for name, vs in rep.checks.items()}

    assert statuses(h) == statuses(g)


CLASS2_N7 = Path(__file__).resolve().parent.parent / "perfbench" / "data" / "class2_n7.g6"
WITHIN_BUDGET = (
    "chromatic index undecided within budget",
    "criticality undecided within budget",
)


@pytest.mark.slow
@pytest.mark.parametrize("budget", [5, 50, 2000])
def test_spanning_stop_keeps_the_full_reachability_result(budget):
    # every critical-edge orientation of the corpus: the search stopped at
    # a spanning fan returns the full search's coloring, fan and status
    stopped = 0
    for line in CLASS2_N7.read_text().split():
        g = from_graph6(line)
        delta = degree_profile(g).delta
        for e in solver.graph_facts(g).critical_edges():
            space = solver.ColoringSpace(g, e, delta)
            u, v = g.endpoints(e)
            for r, s1 in ((u, v), (v, u)):
                full = fans.search_maximum_multifan(g, r, s1, "reachability", budget, space)
                stop = fans.search_maximum_multifan(
                    g, r, s1, "reachability", budget, space, stop_when_spanning=True
                )
                assert stop.phi.signature() == full.phi.signature(), (line, r, s1)
                assert stop.fan.to_json() == full.fan.to_json(), (line, r, s1)
                assert stop.status == full.status == "LOWER-BOUND"
                assert stop.explored <= full.explored
                stopped += stop.explored < full.explored
    assert stopped > 0


def test_spanning_stop_counts_only_states_the_full_search_expands():
    # FKn^_ from edge 5-0: a spanning state is generated during the fourth
    # expansion, at a position past 5, so a full search of budget 5 never
    # expands it and keeps a smaller fan
    g = from_graph6("FKn^_")
    r, s1 = 5, 0
    prof = degree_profile(g)
    spanning = 1 + len({s1}.union(
        w for w in g.adjacency[r] if prof.degrees[w] < prof.delta))
    deeper = fans.search_maximum_multifan(g, r, s1, "reachability", 100,
                                          stop_when_spanning=True)
    assert deeper.fan.size() == spanning and deeper.explored < 5
    full = fans.search_maximum_multifan(g, r, s1, "reachability", 5)
    assert full.fan.size() < spanning
    stop = fans.search_maximum_multifan(g, r, s1, "reachability", 5,
                                        stop_when_spanning=True)
    assert stop.phi.signature() == full.phi.signature()
    assert stop.fan.to_json() == full.fan.to_json()
    assert stop.explored == full.explored == 5


@pytest.mark.parametrize("budget", [10, 20, 40])
def test_exhausted_budget_is_a_verdict_never_a_report_error(budget):
    # s1-adj and longk ask the criticality of single edges; an undecided
    # chi'(G - e) there used to escape as BudgetExceeded and turn the
    # whole report into an error
    lines = CLASS2_N7.read_text().split()
    cfg = ScanConfig(checks=normalize_checks("val,s1-adj,longk,main"), budget=budget)
    reports, summary = scan_corpus(lines, cfg)
    assert summary["errors"] == 0
    for line in reports:
        rep = json.loads(line)
        assert rep["error"] is None
        for name, verdicts in rep["checks"].items():
            for vd in verdicts:
                if vd["status"] == "UNKNOWN":
                    assert vd["detail"]["reason"] in WITHIN_BUDGET, (name, vd)


@pytest.mark.parametrize("line,budget", [("FBnn_", 13), ("Funjw", 16)])
def test_undecided_edge_criticality_is_an_edge_level_verdict(line, budget):
    # found by a search over class2_n7.g6 and budgets: chi'(G) is decided
    # within the budget, but the Delta-decision of some G - e that s1-adj
    # and longk ask is not, so both read UNKNOWN at the edge level
    assert solver.chromatic_index(from_graph6(line), budget).status == "ok"
    cfg = ScanConfig(checks=normalize_checks("val,s1-adj,longk,main"), budget=budget)
    reports, summary = scan_corpus([line], cfg)
    assert summary["errors"] == 0
    rep = json.loads(reports[0])
    assert rep["error"] is None
    for name in ("s1-adj", "longk"):
        (vd,) = rep["checks"][name]
        assert vd["status"] == "UNKNOWN"
        assert vd["detail"]["reason"] == "criticality undecided within budget"


def test_k11_criticality_is_decided_without_search(monkeypatch):
    # K11 is overfull and so is every K11 - e for Delta = 10 colors: the
    # overfull bound decides each edge, and no G - e is searched
    searched = []
    monkeypatch.setattr(solver, "_colorable", lambda *args: searched.append(args))
    cfg = ScanConfig(checks=normalize_checks("val,longk2,main,conj-overfull"))
    rep = run_graph_checks(0, to_graph6(complete(11)), cfg)
    assert rep.error is None and rep.meta["class"] == "two"
    (val,) = rep.checks["val"]
    assert val["status"] == "PASS" and val["detail"]["critical_edges"] == 0
    assert searched == []


def test_over_budget_edge_decision_is_searched_once(monkeypatch):
    # FBnn_ at budget 13: the G - e decisions of two edges run out of
    # budget, and every later check that asks one again gets
    # BudgetExceeded from the memo instead of a second search (without
    # the memo, the report makes 8 searches)
    searched = []
    real_colorable = solver._colorable

    def counting_colorable(g, k, budget):
        searched.append(g.edges)
        return real_colorable(g, k, budget)

    monkeypatch.setattr(solver, "_colorable", counting_colorable)
    reports, summary = scan_corpus(
        ["FBnn_"], ScanConfig(checks=normalize_checks("all"), budget=13)
    )
    assert summary["errors"] == 0
    assert len(searched) == len(set(searched)) == 2
    rep = json.loads(reports[0])
    undecided = [
        name
        for name, vds in rep["checks"].items()
        for vd in vds
        if vd["status"] == "UNKNOWN"
        and vd["detail"].get("reason") == "criticality undecided within budget"
    ]
    assert len(undecided) >= 2


def test_each_graph_fact_is_decided_once(monkeypatch):
    # one report asks chi' and criticality from every check; each G - e is
    # built once and a None budget is resolved once
    built = []
    resolved = []
    real_delete, real_default = graphs.delete_edge, solver.node_budget_default

    def counting_delete(g, e):
        built.append(e)
        return real_delete(g, e)

    def counting_default():
        resolved.append(1)
        return real_default()

    monkeypatch.setattr(graphs, "delete_edge", counting_delete)
    monkeypatch.setattr(solver, "delete_edge", counting_delete, raising=False)
    monkeypatch.setattr(solver, "node_budget_default", counting_default)
    rep = run_graph_checks(0, "Feujg", ScanConfig(checks=normalize_checks("all")))
    assert rep.error is None and rep.meta["class"] == "two"
    assert built and len(built) == len(set(built))
    assert len(resolved) == 1


def test_conjecture_fail_is_reverified_as_class_two(monkeypatch):
    # K3 (Bw) is critical, overfull and just overfull. With both tests
    # forced false, each conjecture check FAILs, and the second search,
    # on K3 itself, finds no 2-coloring either
    asked = []
    real_chi = solver.chromatic_index

    def counting_chi(g, budget=None):
        asked.append(g.edges)
        return real_chi(g, budget)

    monkeypatch.setattr(solver, "chromatic_index", counting_chi)
    monkeypatch.setattr(theorems, "is_overfull", lambda g: False)
    monkeypatch.setattr(theorems, "is_just_overfull", lambda g: False)
    k3 = from_graph6("Bw")
    for name in ("overfull", "just-overfull"):
        v = check_conjecture(name, k3)
        assert v.status == "FAIL", name
        assert v.detail["reverified_class_two"] is True, name
    assert len(asked) == 1  # K3's own facts; no relabeled copy is decided


@pytest.mark.parametrize("line,budget,cls", [("Cl", None, "one"), ("Bw", 1, "two")])
def test_conjecture_fail_not_reverified(monkeypatch, line, budget, cls):
    # with the gate forced open: C4 (Cl) is class 1, so the second search
    # finds a 2-coloring; on K3 a budget of one node runs out, and an
    # undecided search confirms nothing
    monkeypatch.setattr(theorems, "_hypothesis_gate", lambda *args, **kwargs: None)
    monkeypatch.setattr(theorems, "is_overfull", lambda g: False)
    monkeypatch.setattr(theorems, "is_just_overfull", lambda g: False)
    g = from_graph6(line)
    assert solver.chromatic_index(g).cls == cls
    for name in ("overfull", "just-overfull"):
        v = check_conjecture(name, g, budget)
        assert v.status == "FAIL", name
        assert v.detail["reverified_class_two"] is False, name


# FAIL branches of the graph-level checks. With the hypothesis gate forced
# open, each check meets a graph that breaks its conclusion: the first such
# line of tests/fixtures/connected_n1_7.g6. Each test then re-derives the
# violated inequality from the graph and the verdict's detail, so a FAIL
# that names the wrong edge, vertex or count does not pass.


def _open_gate(monkeypatch):
    monkeypatch.setattr(theorems, "_hypothesis_gate", lambda *args, **kwargs: None)


def test_val_fail_names_a_vertex_short_of_max_degree_neighbors(monkeypatch):
    # VAL holds at every critical edge of a class-2 graph, so the open gate
    # alone cannot make it fail: every edge is declared critical as well.
    # Ecto is class 2, and its pendant edge 2-5 is not critical.
    _open_gate(monkeypatch)
    monkeypatch.setattr(
        solver.GraphFacts, "critical_edges",
        lambda self: list(range(len(self.graph.edges))),
    )
    g = from_graph6("Ecto")
    v = check_val(g)
    assert v.status == "FAIL"
    x, y = v.detail["edge"]
    g.edge_id(x, y)  # raises unless xy is an edge
    a = v.detail["vertex"]
    assert a in (x, y)
    b = y if a == x else x
    prof = degree_profile(g)
    have = sum(1 for w in g.adjacency[a] if w != b and prof.degrees[w] == prof.delta)
    need = prof.delta - prof.degrees[b] + 1
    assert (v.detail["have"], v.detail["need"]) == (have, need)
    assert have < need


def test_parity_fail_carries_the_violating_colors(monkeypatch):
    # No proper coloring can FAIL here: each color class is a matching, so
    # n - 2|E_c| vertices miss color c, which has the parity of n. The
    # report of parity_check is forged, and only the plumbing from that
    # report to the verdict is tested.
    _open_gate(monkeypatch)
    real = theorems.parity_check

    def off_by_one(g, phi):
        rep = real(g, phi)
        counts = dict(rep.counts)
        counts[1] += 1
        return solver.ParityReport(rep.n, counts, [1])

    monkeypatch.setattr(theorems, "parity_check", off_by_one)
    g = cycle(5)
    v = check_parity(g)
    assert v.status == "FAIL"
    assert v.detail["violations"] == [1]
    for c in v.detail["violations"]:
        assert v.detail["counts"][str(c)] % 2 != g.n % 2


def test_s1_adj_fail_names_a_low_vertex_beside_s(monkeypatch):
    _open_gate(monkeypatch)
    g = from_graph6("D@s")
    v = check_theorem("s1-adj", g)
    assert v.status == "FAIL"
    prof = degree_profile(g)
    r, s, bad = v.detail["r"], v.detail["s"], v.detail["vertices"]
    assert prof.degrees[r] == prof.delta and r in light_vertices(g)
    assert s in g.adjacency[r] and prof.degrees[s] < prof.delta
    # the conclusion: every neighbor of s outside N(r) has maximum degree
    assert bad
    for x in bad:
        assert x in g.adjacency[s] and x not in g.adjacency[r]
        assert prof.degrees[x] != prof.delta


def test_longk_fail_names_a_common_neighbor_outside_the_low_neighbors(monkeypatch):
    _open_gate(monkeypatch)
    g = from_graph6("E@^W")
    v = check_theorem("longk", g)
    assert v.status == "FAIL"
    prof = degree_profile(g)
    delta = prof.delta
    r, s, x, bad = (v.detail[k] for k in ("r", "s", "x", "vertices"))
    nr = set(g.adjacency[r])
    assert prof.degrees[r] == delta and r in light_vertices(g)
    assert s in nr and prof.degrees[s] == delta - 1
    assert x != r and x not in nr and prof.degrees[x] <= delta - 3
    # the conclusion: N(x) & N(s) lies among r's neighbors below Delta
    assert bad
    for w in bad:
        assert w in g.adjacency[x] and w in g.adjacency[s]
        assert w not in nr or prof.degrees[w] == delta


def test_longk2_fail_is_an_even_order_under_the_hypotheses(monkeypatch):
    _open_gate(monkeypatch)
    g = from_graph6("E?Bw")
    v = check_theorem("longk2", g)
    assert v.status == "FAIL"
    prof = degree_profile(g)
    assert v.detail["n"] == g.n and g.n % 2 == 0
    assert 2 * prof.delta > g.n + 2 and prof.core_min_degree <= 2


def test_main_fail_is_a_graph_that_is_not_overfull(monkeypatch):
    _open_gate(monkeypatch)
    g = from_graph6("D?{")
    v = check_theorem("main", g)
    assert v.status == "FAIL"
    prof = degree_profile(g)
    n, m, delta = v.detail["n"], v.detail["edges"], v.detail["delta"]
    assert (n, m, delta) == (g.n, len(g.edges), prof.delta)
    assert 2 * delta > n + 2 and prof.core_min_degree <= 2
    # the conclusion: |E| > Delta * floor(n / 2)
    assert m <= delta * (n // 2)


# -- one verdict per renaming class ---------------------------------------------


CLASS2_LINES = CLASS2_N7.read_text().split()
PER_COLORING = ("fan-elementary", "fan-linkage", "kierstead", "stable-swaps",
                "vf-stable-swaps")


@functools.lru_cache(maxsize=None)
def _normal_colorings(line: str, e: int):
    g = from_graph6(line)
    return g, solver.ColoringSpace(g, e, degree_profile(g).delta).normal()


@functools.lru_cache(maxsize=None)
def _critical_edges(line: str) -> list[int]:
    return solver.graph_facts(from_graph6(line)).critical_edges()


def _rename(phi: PartialEdgeColoring, sigma) -> PartialEdgeColoring:
    """sigma(phi): each color c becomes sigma[c - 1]."""
    return PartialEdgeColoring.from_assignment(
        phi.graph, phi.k,
        [None if c is None else sigma[c - 1] for c in phi.assignment],
        uncolored=phi.uncolored,
    )


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_renaming_colors_keeps_every_per_coloring_verdict(data):
    # the fact the lemma suite's memo rests on: phi and sigma(phi) get the
    # same status, and the same verdict JSON where they grow the same fan
    # sequence or Kierstead path
    line = data.draw(st.sampled_from([s for s in CLASS2_LINES if _critical_edges(s)]))
    e = data.draw(st.sampled_from(_critical_edges(line)))
    g, normal = _normal_colorings(line, e)
    k = normal[0].k
    # every coloring of G - e is a renaming of a normal one
    phi = _rename(data.draw(st.sampled_from(normal)),
                  data.draw(st.permutations(range(1, k + 1))))
    sigma = data.draw(st.permutations(range(1, k + 1)))
    r, s1 = g.endpoints(e)[::data.draw(st.sampled_from([1, -1]))]
    fan, kp, got = lemma_verdicts_reference(g, phi, r, s1)
    fan2, kp2, got2 = lemma_verdicts_reference(g, _rename(phi, sigma), r, s1)
    assert set(fan2.sequence) == set(fan.sequence)
    for c in ("fan-elementary", "fan-linkage", "stable-swaps", "vf-stable-swaps"):
        assert got2[c].status == got[c].status, c
    if fan2.sequence == fan.sequence:
        for c in ("fan-elementary", "fan-linkage"):
            assert got2[c].to_json() == got[c].to_json(), c
    if kp2.vertices == kp.vertices:
        assert got2["kierstead"].to_json() == got["kierstead"].to_json()


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_forced_growth_grows_the_same_sequence_on_every_renaming(data):
    # the fact the lemma suite's per-orbit growth rests on: renaming the
    # colors keeps each step's eligible vertices, so forcedness is a
    # property of the orbit and a forced fan or Kierstead path is the same
    # vertex sequence on every member
    line = data.draw(st.sampled_from([s for s in CLASS2_LINES if _critical_edges(s)]))
    e = data.draw(st.sampled_from(_critical_edges(line)))
    g, normal = _normal_colorings(line, e)
    k = normal[0].k
    phi = data.draw(st.sampled_from(normal))
    r, s1 = g.endpoints(e)[::data.draw(st.sampled_from([1, -1]))]
    max_len = data.draw(st.sampled_from([4, None]))
    fan = fans.grow_multifan(g, phi, r, s1)
    kp = fans.grow_kierstead_path(g, phi, r, s1, max_len=max_len)
    for _ in range(3):
        renamed = _rename(phi, data.draw(st.permutations(range(1, k + 1))))
        fan2 = fans.grow_multifan(g, renamed, r, s1)
        kp2 = fans.grow_kierstead_path(g, renamed, r, s1, max_len=max_len)
        assert (fan2.forced, kp2.forced) == (fan.forced, kp.forced)
        if fan.forced:
            assert fan2.sequence == fan.sequence
        if kp.forced:
            assert kp2.vertices == kp.vertices


def test_prefix_orbits_are_the_renaming_classes():
    # each coloring of a prefix, truncated or whole, carries the index of
    # its first-use normal form among the normal colorings
    for g, e in ((PM, 0), (FUNJW, 0)):
        delta = degree_profile(g).delta
        normal = [phi.to_line() for phi in solver.ColoringSpace(g, e, delta).normal()]
        space = solver.ColoringSpace(g, e, delta)
        for limit in (theorems.MAX_COLORINGS, theorems.ENUM_CAP):
            _, orbits, truncated = space.raw_prefix(limit)
            sample = colorings_of(space, limit)
            # PM's spaces hold 18 or 42 colorings, Funjw's thousands
            assert truncated == (g is FUNJW or limit == theorems.MAX_COLORINGS)
            assert len(orbits) == len(sample)
            for phi, orbit in zip(sample, orbits):
                names: dict = {}
                for c in phi.assignment:
                    if c is not None:
                        names.setdefault(c, len(names) + 1)
                assert _rename(phi, [names.get(c, 0) for c in range(1, phi.k + 1)]).to_line() \
                    == normal[orbit]
        assert orbits[:3] == space.raw_prefix(3)[1]


@pytest.mark.parametrize("whole_orbit", [False, True])
def test_lemma_suite_never_copies_a_fail(monkeypatch, whole_orbit):
    # fan-elementary FAILs on the first coloring of an orbit of PM's first
    # space, or on every coloring of it, at one orientation. Each FAIL
    # names its own coloring line, and no coloring takes a FAIL it did
    # not compute
    e = _critical_edges(to_graph6(PM))[0]
    space = solver.ColoringSpace(PM, e, 3)
    _, orbits, truncated = space.raw_prefix(theorems.ENUM_CAP)
    assert not truncated
    lines = [phi.to_line() for phi in colorings_of(space, theorems.ENUM_CAP)]
    members = [i for i, o in enumerate(orbits) if o == orbits[0]]
    assert len(members) > 1
    failing = {lines[i] for i in (members if whole_orbit else members[:1])}
    r = PM.endpoints(e)[0]
    real = theorems.verify_fan_elementary
    calls = Counter()

    def flaky(g, phi, fan):
        if fan.center == r and phi.uncolored == e:
            calls[phi.to_line()] += 1
            if phi.to_line() in failing:
                return V.failed("fan-elementary", coloring=phi.to_line())
        return real(g, phi, fan)

    monkeypatch.setattr(theorems, "verify_fan_elementary", flaky)
    out = run_lemma_suite(PM, ScanConfig(checks=("fan-elementary",)), ("fan-elementary",))
    first = out["fan-elementary"][:len(lines)]
    for line, v in zip(lines, first):
        if line in failing:
            assert v.status == "FAIL" and v.detail["coloring"] == line
        else:
            assert v.status == "PASS"
    assert sum(v.status == "FAIL" for v in out["fan-elementary"]) == len(failing)
    # every failing coloring ran the verifier once, and so did the first
    # member of the orbit after them, since no FAIL was kept for it
    assert all(calls[line] == 1 for line in failing)
    if not whole_orbit:
        assert calls[lines[members[1]]] == 1


def test_lemma_suite_verifier_calls_on_fbnn_are_pinned(monkeypatch):
    # FBnn_ has 13 critical edges whose spaces hold 74 orbits; every
    # coloring still gets its own verdict, but each verifier runs once per
    # key of its orientation
    g = from_graph6("FBnn_")
    calls = Counter()
    for name in ("verify_fan_elementary", "verify_fan_linkage", "verify_kp_elementary",
                 "verify_stable_swaps", "verify_vf_stable_swaps", "normalize_typical",
                 "grow_multifan", "grow_kierstead_path"):
        real = getattr(theorems, name)

        def counting(*args, _real=real, _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(theorems, name, counting)
    crit = _critical_edges("FBnn_")
    spaces = [solver.ColoringSpace(g, e, degree_profile(g).delta) for e in crit]
    assert len(crit) == 13 and sum(len(s.normal()) for s in spaces) == 74
    sampled = 2 * sum(len(s.raw_prefix(theorems.ENUM_CAP)[0]) for s in spaces)
    out = run_lemma_suite(g, ScanConfig(checks=PER_COLORING), PER_COLORING)
    assert {c: len(vs) for c, vs in out.items()} == dict.fromkeys(PER_COLORING, sampled)
    # 3,552 calls of each verifier without the memo, and 3,552 - 3,168
    # normalizations: the other colorings' fans fail the typical form's
    # degree conditions, answered once per sequence
    assert sampled == 3552
    assert dict(calls) == {
        "verify_fan_elementary": 148,  # 74 orbits x 2 orientations
        "verify_fan_linkage": 148,
        "verify_kp_elementary": 244,
        "normalize_typical": 384,
        "verify_stable_swaps": 16,
        "verify_vf_stable_swaps": 16,
        # every fan grows forced here: one growth per (orbit, orientation),
        # and one on each of the other 368 colorings normalized
        "grow_multifan": 516,
        # 48 of the 148 Kierstead growths had a choice: the 1,104 other
        # colorings of those orbits grow their own
        "grow_kierstead_path": 1252,
    }


def test_lemma_suite_keys_fan_verdicts_by_the_fan_sequence(monkeypatch):
    # no orbit of a small space of the corpus grows two fan sequences, so
    # every growth here reports a choice, which makes each coloring grow
    # its own fan, and every second growth reverses the spokes after s1.
    # Part (c) of the linkage reads the spoke order: a verdict of one order
    # is never given to the other, so each (orientation, orbit, sequence)
    # grown is verified
    g = from_graph6("FBnn_")
    orbit_of = {}
    for e in _critical_edges("FBnn_"):
        space = solver.ColoringSpace(g, e, degree_profile(g).delta)
        _, orbits, _ = space.raw_prefix()
        for phi, orbit in zip(colorings_of(space), orbits):
            orbit_of[phi.to_line()] = orbit
    real = theorems.grow_multifan
    flip = itertools.count()
    grown, verified = set(), set()

    def key(phi, fan):
        return (fan.center, fan.uncolored_edge, orbit_of[phi.to_line()], fan.sequence)

    def grow(g, phi, r, s1):
        fan = dataclasses.replace(real(g, phi, r, s1), forced=False)
        if next(flip) % 2:
            fan = dataclasses.replace(fan, sequence=fan.sequence[:1] + fan.sequence[:0:-1])
        grown.add(key(phi, fan))
        return fan

    def recording(verify):
        def run(g, phi, fan):
            verified.add((verify.__name__,) + key(phi, fan))
            return verify(g, phi, fan)
        return run

    monkeypatch.setattr(theorems, "grow_multifan", grow)
    for name in ("verify_fan_elementary", "verify_fan_linkage"):
        monkeypatch.setattr(theorems, name, recording(getattr(theorems, name)))
    checks = ("fan-elementary", "fan-linkage")
    run_lemma_suite(g, ScanConfig(checks=checks), checks)
    # some orbit grew both orders
    assert len({k[:3] for k in grown}) < len(grown)
    for name in ("verify_fan_elementary", "verify_fan_linkage"):
        assert {(name,) + k for k in grown} <= verified


def test_lemma_suite_equals_the_unmemoized_loop_under_relabelings():
    # the benchmark scans relabeled graphs: the per-coloring verdicts equal
    # the reference loop's, which runs every verifier on every coloring.
    # FBnn_ and D}{ take every coloring, Funjw a true prefix of 10
    for line in ("D}{", "FBnn_", "Funjw"):
        g = from_graph6(line)
        for seed in (3, 7):
            perm = random.Random(seed).sample(range(g.n), g.n)
            h = SimpleGraph(g.n, [(perm[u], perm[v]) for u, v in g.edges])
            out = run_lemma_suite(h, ScanConfig(checks=LEMMA_CHECKS), LEMMA_CHECKS)
            ref = lemma_sample_verdicts_reference(h, theorems.ENUM_CAP, theorems.MAX_COLORINGS)
            assert set(ref) == set(PER_COLORING)
            for name in PER_COLORING:
                assert [v.to_json() for v in out[name]] == ref[name], (line, seed, name)


SUITE_VERIFIERS = (
    "verify_fan_elementary", "verify_fan_linkage", "verify_kp_elementary",
    "verify_stable_swaps", "verify_vf_stable_swaps", "verify_pfan_properties",
    "verify_pfan_adjacency", "verify_fan_missing_r",
)


def test_the_lemma_suite_is_the_gate(monkeypatch):
    # the verifiers assume a critical uncolored edge of a class-2 graph and
    # do not check it: the suite runs them on critical edges only, and on
    # a class-1 graph not at all
    seen = []
    for name in SUITE_VERIFIERS:
        real = getattr(theorems, name)

        def recording(g, first, *rest, _real=real):
            # (g, phi, fan or path, ...) or (g, pseudo-fan)
            obj = first.base.fan if isinstance(first, theorems.PFan) else rest[0]
            seen.append(obj.uncolored_edge)
            return _real(g, first, *rest)

        monkeypatch.setattr(theorems, name, recording)
    graphs = [from_graph6(line) for line in CLASS2_N7.read_text().split()]
    partial = [g for g in graphs if 0 < len(solver.critical_edges(g)) < g.m()]
    assert partial
    for g in partial:
        seen.clear()
        run_lemma_suite(g, ScanConfig(checks=LEMMA_CHECKS), LEMMA_CHECKS)
        assert seen and set(seen) <= set(solver.critical_edges(g))
    seen.clear()
    out = run_lemma_suite(from_graph6("Cl"), ScanConfig(checks=LEMMA_CHECKS), LEMMA_CHECKS)
    assert not seen
    assert {c: [(v.status, v.detail) for v in vs] for c, vs in out.items()} == dict.fromkeys(
        LEMMA_CHECKS, [("INAPPLICABLE", {"reason": "graph is class 1"})]
    )


def test_verdicts_are_frozen():
    v = V.passed("fan-elementary", vertices=[0, 1])
    with pytest.raises(dataclasses.FrozenInstanceError):
        v.status = V.FAIL
