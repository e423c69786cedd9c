"""Pseudo-fans, theorem- and conjecture-level checkers, and the corpus scan.

Every verdict of a report is hypothesis-gated, by one gate,
`_hypothesis_gate`: when a stated hypothesis fails the verdict is
INAPPLICABLE, never a vacuous PASS, and when it is undecided within the
budget, UNKNOWN. The graph-level checks call the gate themselves. The
lemma suite calls it once per graph (class 2, criticality decided) and
runs the lemma verifiers on critical edges only, so the verifiers assume
their hypotheses and do not check them. A FAIL always carries a
replayable witness (graph6 line, coloring line, vertices/colors involved).
The scan treats the structural results as oracles: zero FAIL is the
expected outcome on every corpus, and any FAIL is surfaced loudly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from . import verdicts as V
from .colorings import PartialEdgeColoring, are_linked, kempe_bfs, swap_moves
from .fans import (
    FanError,
    KiersteadPath,
    MaxFanResult,
    Multifan,
    NormalizedFan,
    eligible_colors,
    grow_kierstead_path,
    grow_multifan,
    normalize_typical,
    search_maximum_multifan,
    stability_class,
    typical_shape_error,
    verify_fan_elementary,
    verify_fan_linkage,
    verify_kp_elementary,
    verify_stable_swaps,
    verify_vf_stable_swaps,
)
from .graphs import (
    SimpleGraph,
    degree_profile,
    from_graph6,
    graph6_lines,
    is_core_acyclic,
    light_vertices,
    to_graph6,
)
from .recolor import (
    MaximalityViolation,
    TauError,
    WITNESS_ITEMS,
    build_tau_sequence,
    is_avoiding,
    tau_sequence_by_definition,
    verify_rs1_linkage,
    witness_avoid_set,
    witness_tau_item,
)
from .solver import (
    BudgetExceeded,
    ColoringSpace,
    _colorable,
    graph_facts,
    is_just_overfull,
    is_overfull,
    parity_check,
)

THEOREM_NAMES = ("s1-adj", "longk", "longk2", "main")
CONJECTURE_NAMES = ("just-overfull", "overfull")
LEMMA_CHECKS = (
    "fan-elementary",
    "fan-linkage",
    "kierstead",
    "stable-swaps",
    "vf-stable-swaps",
    "tau-unique",
    "rs1-linkage",
    "tau-witnesses",
    "pfan",
    "pfan-adjacency",
    "fan-missing-r",
)
GRAPH_CHECKS = ("val", "parity") + THEOREM_NAMES + tuple(
    "conj-" + c for c in CONJECTURE_NAMES
)
ALL_CHECKS = GRAPH_CHECKS + LEMMA_CHECKS

MAX_COLORINGS = 10  # colorings the lemma suite samples per critical edge
ENUM_CAP = 200  # up to this many, it uses every coloring instead
WITNESS_BUDGET = 800  # tau-witness fallback search


# -- pseudo-fans ---------------------------------------------------------------


@dataclass
class PFan:
    """A maximum multifan extended by (Delta-1)-neighbors that stay
    elementary under every fan-freezing coloring explored.

    p2_status: VERIFIED-WITHIN-BUDGET when the bounded search ran, UNKNOWN
    when budget 0 skipped it. Candidates broken by a reached coloring are
    recorded in `pruned` with the violating coloring as witness.
    """

    base: MaxFanResult
    extension: tuple[int, ...]
    p2_status: str
    explored: int
    pruned: list[dict] = field(default_factory=list)
    search_budget: int = 0

    def vertex_set(self) -> tuple[int, ...]:
        return self.base.fan.vertex_set() + self.extension

    def to_json(self) -> dict:
        return {
            "fan": self.base.fan.to_json(),
            "fan_status": self.base.status,
            "extension": list(self.extension),
            "p2_status": self.p2_status,
            "explored": self.explored,
            "pruned": self.pruned,
        }


def _fan_stable_reachable(
    g: SimpleGraph,
    phi: PartialEdgeColoring,
    fan: Multifan,
    budget: int,
) -> tuple[list[PartialEdgeColoring], int]:
    """Colorings reachable from phi through single Kempe swaps that keep
    the fan frozen, up to `budget` expansions."""
    out = [phi]

    def frozen(nxt: PartialEdgeColoring) -> bool:
        if stability_class(nxt, phi, fan) != "F-stable":
            return False
        out.append(nxt)
        return True

    expanded = kempe_bfs(phi, swap_moves, budget, accept=frozen).expanded
    return out, expanded


def grow_pfan(g: SimpleGraph, base: MaxFanResult, budget: int = 200) -> PFan:
    """Extend the maximum multifan `base` at a light max-degree center by
    (Delta-1)-neighbors whose missing colors stay disjoint from the rest
    under every fan-stable coloring reached within `budget` expansions.

    `base` carries a typical fan (`normalize_typical`); the lemma suite
    passes the one maximum fan it found for the orientation, so the
    pseudo-fan extends the fan every other check of that orientation
    reads.
    """
    phi, fan = base.phi, base.fan
    prof = degree_profile(g)
    if prof.degrees[fan.sequence[0]] != prof.delta - 1:
        raise FanError("pseudo-fan spokes must have degree Delta-1")
    if fan.typical is None:
        raise FanError("base fan is not typical")
    if budget > 0:
        reached, expanded = _fan_stable_reachable(g, phi, fan, budget)
        p2 = "VERIFIED-WITHIN-BUDGET"
    else:
        reached, expanded = [phi], 0
        p2 = "UNKNOWN"
    ext, pruned = pfan_extension(g, fan, reached)
    return PFan(base, tuple(ext), p2, expanded, pruned, search_budget=budget)


def pfan_extension(
    g: SimpleGraph,
    fan: Multifan,
    reached: Sequence[PartialEdgeColoring],
) -> tuple[list[int], list[dict]]:
    """Greedy extension by (Delta-1)-neighbors of the center: a candidate
    joins when the enlarged vertex set stays elementary under every
    supplied coloring; otherwise it is pruned with the violating coloring
    as a replayable witness."""
    prof = degree_profile(g)
    delta = prof.delta
    r = fan.center
    in_fan = set(fan.vertex_set())
    ext: list[int] = []
    pruned: list[dict] = []
    for cand in g.adjacency[r]:
        if cand in in_fan or prof.degrees[cand] != delta - 1:
            continue
        group = fan.vertex_set() + tuple(ext) + (cand,)
        witness = None
        for phi2 in reached:
            if not phi2.is_elementary(group):
                witness = phi2
                break
        if witness is None:
            ext.append(cand)
        else:
            pruned.append(
                {
                    "vertex": cand,
                    "status": "VIOLATED",
                    "witness": witness.to_line(),
                }
            )
    return ext, pruned


def _pfan_violation_verdict(name, g, pfan, **detail) -> V.Verdict:
    """A violated pseudo-fan conclusion is FAIL evidence only when the base
    fan's maximality is certified and an intensified stability search still
    finds no counterexample to the extension's elementarity; otherwise the
    uncertified hypothesis makes the verdict CONDITIONAL."""
    if "reason" in detail:
        detail["violation"] = detail.pop("reason")
    if pfan.base.status != "EXACT":
        return V.conditional(
            name, "base fan maximality is only a lower bound", **detail
        )
    if pfan.extension:
        deep = max(10 * max(pfan.search_budget, 1), 2000)
        reached, _ = _fan_stable_reachable(g, pfan.base.phi, pfan.base.fan, deep)
        S = pfan.vertex_set()
        for phi2 in reached:
            if not phi2.is_elementary(S):
                return V.conditional(
                    name,
                    "extension is not a certified pseudo-fan; a deeper "
                    "stability search breaks its elementarity",
                    refuting_coloring=phi2.to_line(),
                    **detail,
                )
    return V.failed(name, **detail)


def verify_pfan_properties(g: SimpleGraph, pfan: PFan) -> V.Verdict:
    """Extension spokes must sit on rotations whose members are linked with
    the center through color 1, and fan/extension missing-color pairs must
    ride one common chain through the center, meeting the spoke owner of
    the fan color before the center. Assumes the uncolored edge is
    critical in a class-2 graph; the caller checks that."""
    name = "pfan"
    phi, fan = pfan.base.phi, pfan.base.fan
    r = fan.center
    prof = degree_profile(g)
    delta = prof.delta
    if prof.degrees[r] != delta or r not in light_vertices(g):
        return V.inapplicable(name, "center is not a light max-degree vertex")
    if not pfan.extension:
        return V.passed(name, extension=[], note="empty extension")
    checked = {"a": 0, "b": 0}
    for v1 in pfan.extension:
        tau = phi.color_of(g.edge_id(r, v1))
        try:
            ts = build_tau_sequence(g, phi, fan, tau)
        except (TauError, MaximalityViolation) as exc:
            return _pfan_violation_verdict(
                name, g, pfan, part="a", vertex=v1, error=str(exc)
            )
        if ts.type != "A":
            return _pfan_violation_verdict(
                name, g, pfan, part="a", vertex=v1, sequence=ts.to_json(),
                coloring=phi.to_line(),
            )
        for vi in ts.vertices:
            mi = phi.missing_at(vi)[0]
            checked["a"] += 1
            if not are_linked(phi, r, vi, 1, mi):
                return _pfan_violation_verdict(
                    name, g, pfan, part="a", vertex=vi, colors=[1, mi],
                    coloring=phi.to_line(),
                )
    for si in fan.vertex_set():
        if si == r:
            continue
        for sj in pfan.extension:
            for gamma in phi.missing_at(si):
                for dlt in phi.missing_at(sj):
                    checked["b"] += 1
                    if not are_linked(phi, si, sj, gamma, dlt):
                        return _pfan_violation_verdict(
                            name, g, pfan, part="b", u=si, v=sj,
                            colors=[gamma, dlt],
                            reason="not one common chain",
                            coloring=phi.to_line(),
                        )
                    chain = phi.chain_at(si, gamma, dlt)
                    verts = list(chain.vertices)
                    if verts and verts[0] != si:
                        verts.reverse()
                    if r not in verts:
                        return _pfan_violation_verdict(
                            name, g, pfan, part="b", u=si, v=sj,
                            colors=[gamma, dlt],
                            reason="center off the chain",
                            coloring=phi.to_line(),
                        )
                    ze = phi.edge_with_color(r, gamma)
                    if ze is not None:
                        z = g.other_end(ze, r)
                        if verts.index(z) > verts.index(r):
                            return _pfan_violation_verdict(
                                name, g, pfan, part="b", u=si, v=sj,
                                colors=[gamma, dlt], z=z,
                                reason="chain meets center before the color owner",
                                coloring=phi.to_line(),
                            )
    return V.passed(name, extension=list(pfan.extension), checked=checked)


def verify_pfan_adjacency(g: SimpleGraph, pfan: PFan) -> V.Verdict:
    """No vertex outside the center's closed neighborhood that touches the
    pseudo-fan may have degree Delta-1 (maximum degree >= 3). Assumes the
    uncolored edge is critical in a class-2 graph; the caller checks
    that."""
    name = "pfan-adjacency"
    fan = pfan.base.fan
    r = fan.center
    prof = degree_profile(g)
    delta = prof.delta
    if delta < 3:
        return V.inapplicable(name, "needs maximum degree at least 3")
    if prof.degrees[r] != delta or r not in light_vertices(g):
        return V.inapplicable(name, "center is not a light max-degree vertex")
    closed = set(g.adjacency[r]) | {r}
    touching = set()
    for v in pfan.vertex_set():
        touching.update(g.adjacency[v])
    bad = [
        x
        for x in sorted(touching - closed)
        if prof.degrees[x] == delta - 1
    ]
    if bad:
        return _pfan_violation_verdict(
            name, g, pfan, vertices=bad, pfan_shape=pfan.to_json(),
            coloring=pfan.base.phi.to_line(),
        )
    return V.passed(name, checked=len(touching - closed))


def verify_fan_missing_r(
    g: SimpleGraph,
    phi: PartialEdgeColoring,
    fan: Multifan,
    maximum_status: str,
) -> V.Verdict:
    """At a light center of degree Delta-1 with a maximum fan, no vertex
    off the closed neighborhood sharing a neighbor with s1 beyond the
    (Delta-1)-neighborhood may hold both of the center's missing colors
    (maximum degree >= 3). Assumes the uncolored edge is critical in a
    class-2 graph; the caller checks that."""
    name = "fan-missing-r"
    r = fan.center
    s1 = fan.sequence[0]
    prof = degree_profile(g)
    delta = prof.delta
    if delta < 3:
        return V.inapplicable(name, "needs maximum degree at least 3")
    if prof.degrees[r] != delta - 1 or r not in light_vertices(g):
        return V.inapplicable(name, "center is not a light (Delta-1)-vertex")
    closed = set(g.adjacency[r]) | {r}
    low_closed = {r} | {
        w for w in g.adjacency[r] if prof.degrees[w] == delta - 1
    }
    rmask = phi.missing_mask(r)
    bad = []
    for x in range(g.n):
        if x in closed:
            continue
        shared = set(g.adjacency[x]) & set(g.adjacency[s1])
        if not (shared - low_closed):
            continue
        if phi.missing_mask(x) & rmask == rmask:
            bad.append(x)
    if bad:
        if maximum_status != "EXACT":
            return V.conditional(
                name,
                "fan maximality is only a lower bound; containment failed",
                vertices=bad,
                coloring=phi.to_line(),
            )
        return V.failed(name, vertices=bad, coloring=phi.to_line())
    if maximum_status != "EXACT":
        return V.conditional(name, "fan maximality is only a lower bound")
    return V.passed(name, missing_r=list(phi.missing_at(r)))


# -- the hypothesis gate -------------------------------------------------------


def _hypothesis_gate(name, g, e=None, *, budget=None,
                     assume="critical-edge") -> Optional[V.Verdict]:
    """None when G meets what check `name` assumes, else the UNKNOWN or
    INAPPLICABLE verdict for the first assumption undecided or false.

    `assume` names how much of "critical class 2" the check rests on, each
    level on top of the one before: "chi" (chi' decided within `budget`),
    "class-two", "criticality" (every edge's criticality decided),
    "critical-edge" (edge e critical) or "critical-graph" (every edge
    critical). The answers come from `solver.graph_facts`, memoized on g.
    """
    try:
        facts = graph_facts(g, budget)
        if facts.verdict.status != "ok":
            return V.unknown(name, "chromatic index undecided within budget")
        if assume == "chi":
            return None
        if facts.verdict.cls != "two":
            return V.inapplicable(name, "graph is class 1")
        if assume == "criticality":
            facts.critical_edges()
        elif assume == "critical-edge" and not facts.edge_critical(e):
            return V.inapplicable(name, "uncolored edge is not critical")
        elif assume == "critical-graph" and not facts.delta_critical():
            return V.inapplicable(name, "graph is not edge-critical")
    except BudgetExceeded:
        return V.unknown(name, "criticality undecided within budget")
    return None


# -- adjacency lemma and theorem-level checks -----------------------------------


def check_val(g: SimpleGraph, budget: Optional[int] = None) -> V.Verdict:
    """Every critical edge xy: x has at least Delta - d(y) + 1 max-degree
    neighbors besides y (and symmetrically)."""
    name = "val"
    gate = _hypothesis_gate(name, g, budget=budget, assume="criticality")
    if gate is not None:
        return gate
    crit = graph_facts(g, budget).critical_edges()
    prof = degree_profile(g)
    delta = prof.delta
    dv = set(prof.delta_vertices)
    checked = 0
    for e in crit:
        x, y = g.endpoints(e)
        for a, b in ((x, y), (y, x)):
            checked += 1
            have = len((set(g.adjacency[a]) & dv) - {b})
            need = delta - prof.degrees[b] + 1
            if have < need:
                return V.failed(
                    name, edge=[x, y], vertex=a, have=have, need=need
                )
    return V.passed(name, critical_edges=len(crit), checked=checked)


def check_parity(g: SimpleGraph, budget: Optional[int] = None) -> V.Verdict:
    """The solver witness must satisfy the per-color parity bound."""
    name = "parity"
    gate = _hypothesis_gate(name, g, budget=budget, assume="chi")
    if gate is not None:
        return gate
    cv = graph_facts(g, budget).verdict
    rep = parity_check(g, cv.witness)
    # string keys, as JSON writes them: a report line then reads the same
    # whether it is encoded once or decoded and encoded again
    counts = {str(c): cnt for c, cnt in rep.counts.items()}
    if rep.ok:
        return V.passed(name, counts=counts, chi_prime=cv.chi_prime)
    return V.failed(name, violations=rep.violations, counts=counts)


def check_theorem(name: str, g: SimpleGraph, budget: Optional[int] = None) -> V.Verdict:
    if name not in THEOREM_NAMES:
        raise ValueError(f"unknown theorem check {name!r}")
    # s1-adj and longk ask the criticality of single edges, in their loops
    assume = "class-two" if name in ("s1-adj", "longk") else "critical-graph"
    gate = _hypothesis_gate(name, g, budget=budget, assume=assume)
    if gate is not None:
        return gate

    def critical(r, s):
        """None when rs is critical, else the verdict that says why not."""
        return _hypothesis_gate(name, g, g.edge_id(r, s), budget=budget)

    prof = degree_profile(g)
    delta = prof.delta
    n = g.n
    if name == "s1-adj":
        dv = set(prof.delta_vertices)
        lv = set(light_vertices(g))
        instances = 0
        for r in sorted(dv & lv):
            for s in g.adjacency[r]:
                if prof.degrees[s] >= delta:
                    continue
                gate = critical(r, s)
                if gate is not None:
                    if gate.status == V.UNKNOWN:
                        return gate
                    continue
                instances += 1
                outside = set(g.adjacency[s]) - set(g.adjacency[r])
                bad = [x for x in sorted(outside) if prof.degrees[x] != delta]
                if bad:
                    return V.failed(name, r=r, s=s, vertices=bad)
        if instances == 0:
            return V.inapplicable(name, "no light max-degree center with a critical low edge")
        return V.passed(name, instances=instances)
    if name == "longk":
        dv = set(prof.delta_vertices)
        lv = set(light_vertices(g))
        nd = {v: set(g.adjacency[v]) for v in range(n)}
        instances = 0
        for r in sorted(dv & lv):
            n_delta_r = {w for w in nd[r] if prof.degrees[w] == delta}
            allowed = nd[r] - n_delta_r
            for s in nd[r]:
                if prof.degrees[s] != delta - 1:
                    continue
                gate = critical(r, s)
                if gate is not None:
                    if gate.status == V.UNKNOWN:
                        return gate
                    continue
                for x in range(n):
                    if x == r or x in nd[r]:
                        continue
                    if prof.degrees[x] > delta - 3:
                        continue
                    instances += 1
                    bad = sorted((nd[x] & nd[s]) - allowed)
                    if bad:
                        return V.failed(name, r=r, s=s, x=x, vertices=bad)
        if instances == 0:
            return V.inapplicable(name, "hypotheses never jointly satisfied")
        return V.passed(name, instances=instances)
    if name == "longk2":
        if not (2 * delta > n + 2):
            return V.inapplicable(name, "maximum degree not above n/2 + 1")
        if prof.core_min_degree > 2:
            return V.inapplicable(name, "core minimum degree above 2")
        if n % 2 == 1:
            return V.passed(name, n=n)
        return V.failed(name, n=n, reason="even order under the hypotheses")
    if name == "main":
        if prof.core_min_degree > 2:
            return V.inapplicable(name, "core minimum degree above 2")
        if not (2 * delta > n + 2):
            return V.inapplicable(name, "maximum degree not above n/2 + 1")
        if is_overfull(g):
            return V.passed(name, edges=len(g.edges), delta=delta)
        return V.failed(name, edges=len(g.edges), delta=delta, n=n)
    raise AssertionError(name)


def check_conjecture(name: str, g: SimpleGraph, budget: Optional[int] = None) -> V.Verdict:
    if name not in CONJECTURE_NAMES:
        raise ValueError(f"unknown conjecture check {name!r}")
    check = "conj-" + name
    gate = _hypothesis_gate(check, g, budget=budget, assume="critical-graph")
    if gate is not None:
        return gate
    prof = degree_profile(g)
    delta, n = prof.delta, g.n
    if name == "just-overfull":
        if not (2 * delta >= n):
            return V.inapplicable(check, "maximum degree below n/2")
        if is_just_overfull(g):
            return V.passed(check, edges=len(g.edges))
        # counterexample candidate: re-verify with a second edge order
        confirm = _reverify_class_two(g, budget)
        return V.failed(
            check, edges=len(g.edges), delta=delta, n=n,
            reverified_class_two=confirm,
        )
    if not (3 * delta > n):
        return V.inapplicable(check, "maximum degree not above n/3")
    if is_overfull(g):
        return V.passed(check, edges=len(g.edges))
    confirm = _reverify_class_two(g, budget)
    return V.failed(
        check, edges=len(g.edges), delta=delta, n=n,
        reverified_class_two=confirm,
    )


def _reverify_class_two(g: SimpleGraph, budget: Optional[int]) -> bool:
    """Whether a second search, `_colorable`, also finds no Delta-coloring
    of G; a FAIL on a conjecture check is trusted only when it does. It
    runs the backtracking loop that decided chi' and differs from that
    search only in its edge order, dynamic (DSATUR) rather than fixed. A
    search that runs out of budget confirms nothing."""
    try:
        colors, _ = _colorable(g, degree_profile(g).delta, graph_facts(g, budget).node_budget)
    except BudgetExceeded:
        return False
    return colors is None


# -- per-graph verification ------------------------------------------------------


@dataclass
class ScanConfig:
    checks: tuple[str, ...] = GRAPH_CHECKS
    budget: Optional[int] = None          # solver node budget
    fan_budget: int = 2000                # reachability expansions / enum cap

    def to_json(self) -> dict:
        return {
            "checks": list(self.checks),
            "budget": self.budget,
            "fan_budget": self.fan_budget,
        }


def normalize_checks(spec: str | Sequence[str]) -> tuple[str, ...]:
    """Expand a --checks argument: names, or the groups all / graph /
    lemmas / theorems / conjectures. ValueError on an unknown name or a
    selection of no check."""
    if isinstance(spec, str):
        parts = [p.strip() for p in spec.split(",") if p.strip()]
    else:
        parts = list(spec)
    out: list[str] = []
    for p in parts:
        if p == "all":
            out.extend(ALL_CHECKS)
        elif p == "graph":
            out.extend(GRAPH_CHECKS)
        elif p == "lemmas":
            out.extend(LEMMA_CHECKS)
        elif p == "theorems":
            out.extend(THEOREM_NAMES)
        elif p == "conjectures":
            out.extend("conj-" + c for c in CONJECTURE_NAMES)
        elif p in ALL_CHECKS:
            out.append(p)
        else:
            raise ValueError(f"unknown check {p!r}")
    if not out:
        raise ValueError(f"no check selected by {spec!r}")
    return tuple(dict.fromkeys(out))


def _max_fan_for(g, r, s1, cfg, space: ColoringSpace) -> MaxFanResult:
    """The lemma suite's maximum fan at r from rs1: exhaustive over `space`
    (the colorings of G - rs1, searched by their first-use normal forms)
    when its orbit sum is at most fan_budget + 1, else a reachability
    search of fan_budget expansions from its first coloring, which stops
    once its fan spans every admissible spoke."""
    cap = cfg.fan_budget + 1
    if space.size(cap) > cap:
        return search_maximum_multifan(g, r, s1, "reachability", cfg.fan_budget,
                                       space, stop_when_spanning=True)
    return search_maximum_multifan(g, r, s1, "exhaustive", cap, space)


def _note(out: dict, names: Iterable[str], status: str, reason: str) -> None:
    """Append one verdict of `status` (INAPPLICABLE or UNKNOWN) with
    `reason` to each check in `names`."""
    for c in names:
        out[c].append(V.Verdict(c, status, {"reason": reason}))


def _verdict(memo: dict, key, verify, g, inputs, *, exact: bool) -> V.Verdict:
    """The verdict memoized under `key`, else `verify`'s on g and the
    (phi, obj) that `inputs()` gives, so that nothing is built for a
    coloring the memo answers. Under an `exact` key, which holds the
    verifier's whole input, any verdict is kept; under a renaming-class
    key only a PASS or an INAPPLICABLE is, whose details name no color. A
    FAIL names its colors and its coloring line, so each coloring
    computes its own."""
    v = memo.get(key)
    if v is None:
        phi, obj = inputs()
        v = verify(g, phi, obj)
        if exact or v.status != V.FAIL:
            memo[key] = v
    return v


class _Member:
    """Coloring i of a space's sample at the orientation (r, s1). Its
    coloring, fan, Kierstead path and normalized fan are built on first
    use. `first` is the first sampled member of the same orbit, which is
    the orbit's normal coloring: a growth on it that was forced grows the
    same sequence on every renaming, so the orbit's other members take
    its sequence or path without a coloring of their own."""

    __slots__ = ("g", "space", "i", "r", "s1", "first", "_phi", "_fan", "_kp",
                 "_norm")

    def __init__(self, g, space: ColoringSpace, i: int, r: int, s1: int,
                 first: Optional[_Member]):
        self.g, self.space, self.i, self.r, self.s1 = g, space, i, r, s1
        self.first = self if first is None else first
        self._phi = self._fan = self._kp = self._norm = None

    def phi(self) -> PartialEdgeColoring:
        if self._phi is None:
            self._phi = self.space.coloring(self.i)
        return self._phi

    def fan(self) -> Multifan:
        if self._fan is None:
            self._fan = grow_multifan(self.g, self.phi(), self.r, self.s1)
        return self._fan

    def kp(self) -> KiersteadPath:
        if self._kp is None:
            self._kp = grow_kierstead_path(self.g, self.phi(), self.r, self.s1,
                                           max_len=4)
        return self._kp

    def normalized(self) -> NormalizedFan:
        """`normalize_typical` on this coloring and its fan; FanError when
        it cannot be normalized."""
        if self._norm is None:
            self._norm = normalize_typical(self.g, self.phi(), self.fan())
        return self._norm

    def fan_sequence(self) -> tuple[int, ...]:
        fan = self.first.fan()
        return fan.sequence if fan.forced else self.fan().sequence

    def kp_vertices(self) -> tuple[int, ...]:
        kp = self.first.kp()
        return kp.vertices if kp.forced else self.kp().vertices

    def with_fan(self):
        return self.phi(), self.fan()

    def with_kp(self):
        return self.phi(), self.kp()

    def with_normalized(self):
        norm = self.normalized()
        return norm.phi, norm.fan


def run_lemma_suite(
    g: SimpleGraph, cfg: ScanConfig, checks: Sequence[str]
) -> dict[str, list[V.Verdict]]:
    """Run the fan/recoloring checks over every critical edge, both
    orientations, and a deterministic sample of colorings.

    The suite is the lemma checks' hypothesis gate: unless G is class 2
    with the criticality of every edge decided, each check gets one
    INAPPLICABLE or UNKNOWN verdict and no verifier runs, and the
    verifiers only ever see a critical uncolored edge.

    Renaming the colors of phi renames every missing set, chain and root
    the fan and Kierstead checks read, so they give sigma(phi) the verdict
    they give phi when they read the same sequence. Each coloring gets its
    own verdict, but per orientation a verifier runs once per key:
    `fan-elementary` and `fan-linkage` per (renaming class, fan sequence),
    the order of which part (c) of the linkage reads; `kierstead` per
    (renaming class, path); the swap checks per (normalized assignment,
    normalized sequence), their whole input. A renaming class is an orbit
    of the space, truncated or whole.

    The sample comes from the space unbuilt, as orbit indices. Per
    orientation the fan and the Kierstead path are grown once per orbit,
    on its first sampled member, its normal coloring; a growth that had
    one eligible vertex at every step (`forced`) gives every member of
    the orbit the same sequence or path. A member is built, and grows its
    own fan or path, only where its orbit's growth had a choice, where the
    memo holds no verdict for its key (a FAIL, recomputed per coloring),
    or where the swap checks normalize it."""
    want = set(checks)
    out: dict[str, list[V.Verdict]] = {c: [] for c in want}
    gate = _hypothesis_gate("lemmas", g, budget=cfg.budget, assume="criticality")
    if gate is not None:
        _note(out, want, gate.status, gate.detail["reason"])
        return out
    crit = graph_facts(g, cfg.budget).critical_edges()
    if not crit:
        _note(out, want, V.INAPPLICABLE, "no critical edges")
        return out
    prof = degree_profile(g)
    delta = prof.delta
    max_checks = want & {"rs1-linkage", "tau-unique", "tau-witnesses", "pfan",
                         "pfan-adjacency", "fan-missing-r"}
    swap_checks = want & {"stable-swaps", "vf-stable-swaps"}
    fan_checks = want & {"fan-elementary", "fan-linkage"} | swap_checks
    per_coloring = fan_checks | want & {"kierstead"}
    pfan_checks = want & {"pfan", "pfan-adjacency"}
    for e in crit:
        # one enumeration of G - e serves both orientations: the sample,
        # the maximum fans and the pseudo-fans; it is dropped with the edge
        space = ColoringSpace(g, e, delta)
        # every coloring when the space is small, else the first
        # MAX_COLORINGS in enumeration order
        small = space.size(ENUM_CAP) <= ENUM_CAP
        _, orbits, _ = space.raw_prefix(None if small else MAX_COLORINGS)
        u, v = g.endpoints(e)
        for r, s1 in ((u, v), (v, u)):
            # the tau/shifting/pseudo-fan machinery lives at a light center
            # whose working spoke has degree Delta-1
            typical_setting = (
                r in light_vertices(g) and prof.degrees[s1] == delta - 1
            )
            maxres = None
            if max_checks:
                if typical_setting:
                    maxres = _max_fan_for(g, r, s1, cfg, space)
                else:
                    _note(out, max_checks, V.INAPPLICABLE,
                          "center is not light with a (Delta-1)-degree spoke")
            memo: dict = {}
            firsts: dict[int, _Member] = {}
            for i, orbit in enumerate(orbits if per_coloring else ()):
                m = _Member(g, space, i, r, s1, firsts.get(orbit))
                firsts.setdefault(orbit, m)
                seq = m.fan_sequence() if fan_checks else None
                for name, verify in (("fan-elementary", verify_fan_elementary),
                                     ("fan-linkage", verify_fan_linkage)):
                    if name in want:
                        out[name].append(_verdict(
                            memo, (name, orbit, seq), verify, g, m.with_fan,
                            exact=False,
                        ))
                if "kierstead" in want:
                    out["kierstead"].append(_verdict(
                        memo, ("kierstead", orbit, m.kp_vertices()), verify_kp_elementary,
                        g, m.with_kp, exact=False,
                    ))
                if swap_checks:
                    # the typical form's degree conditions read no color:
                    # one answer per fan sequence
                    shape = ("typical-shape", seq)
                    if shape not in memo:
                        bad = typical_shape_error(g, r, seq)
                        memo[shape] = None if bad is None else [
                            V.inapplicable(c, f"not normalizable: {bad}")
                            for c in swap_checks
                        ]
                    if memo[shape] is not None:
                        for verdict in memo[shape]:
                            out[verdict.check].append(verdict)
                        continue
                    try:
                        norm = m.normalized()
                    except FanError as exc:
                        _note(out, swap_checks, V.INAPPLICABLE,
                              f"not normalizable: {exc}")
                        continue
                    key = (tuple(norm.phi.assignment), norm.fan.sequence)
                    for name, verify in (("stable-swaps", verify_stable_swaps),
                                         ("vf-stable-swaps", verify_vf_stable_swaps)):
                        if name in want:
                            out[name].append(_verdict(
                                memo, (name,) + key, verify, g, m.with_normalized,
                                exact=True,
                            ))
            if maxres is None:
                continue
            # one normalized maximum fan per orientation: every check below
            # reads it, the pseudo-fan included
            try:
                nf = normalize_typical(g, maxres.phi, maxres.fan)
            except FanError as exc:
                _note(out, max_checks, V.INAPPLICABLE,
                      f"maximum fan not normalizable: {exc}")
                continue
            maxres = MaxFanResult(nf.phi, nf.fan, maxres.status, maxres.explored)
            mphi, mfan = maxres.phi, maxres.fan
            if "rs1-linkage" in want:
                out["rs1-linkage"].append(
                    verify_rs1_linkage(g, mphi, mfan, maximum_status=maxres.status)
                )
            if "tau-unique" in want:
                out["tau-unique"].append(
                    _check_tau_unique(g, mphi, mfan, maxres.status)
                )
            if "tau-witnesses" in want:
                out["tau-witnesses"].append(
                    _check_tau_witnesses(g, mphi, mfan, maxres.status)
                )
            if pfan_checks and prof.degrees[r] != delta:
                _note(out, pfan_checks, V.INAPPLICABLE,
                      "center is not a max-degree vertex")
            elif pfan_checks:
                try:
                    pf = grow_pfan(g, maxres, cfg.fan_budget // 10)
                except FanError as exc:
                    _note(out, pfan_checks, V.INAPPLICABLE,
                          f"pseudo-fan not constructible: {exc}")
                else:
                    if "pfan" in want:
                        out["pfan"].append(verify_pfan_properties(g, pf))
                    if "pfan-adjacency" in want:
                        out["pfan-adjacency"].append(verify_pfan_adjacency(g, pf))
            if "fan-missing-r" in want:
                out["fan-missing-r"].append(
                    verify_fan_missing_r(g, mphi, mfan, maxres.status)
                )
    return out


def _check_tau_unique(g, phi, fan, status) -> V.Verdict:
    """Constructive builder vs clause-by-clause enumeration: exactly one
    sequence per eligible color, identical content, exactly one type tag."""
    name = "tau-unique"
    if fan.typical is None:
        return V.inapplicable(name, "fan is not typical")
    taus = eligible_colors(phi, fan)
    if not taus:
        verdict = V.passed(name, taus=[], note="no eligible colors")
        if status != "EXACT":
            return V.conditional(name, "fan maximality is only a lower bound")
        return verdict
    for tau in taus:
        try:
            built = build_tau_sequence(g, phi, fan, tau)
        except MaximalityViolation as exc:
            if status != "EXACT":
                return V.conditional(
                    name, f"maximality evidence for tau={tau}: {exc}"
                )
            return V.failed(name, tau=tau, reason=str(exc), coloring=phi.to_line())
        derived = tau_sequence_by_definition(g, phi, fan, tau)
        if len(derived) != 1 or derived[0].to_json() != built.to_json():
            return V.failed(
                name, tau=tau, built=built.to_json(),
                derived=[d.to_json() for d in derived],
                coloring=phi.to_line(),
            )
    if status != "EXACT":
        return V.conditional(name, "fan maximality is only a lower bound", taus=taus)
    return V.passed(name, taus=taus)


def _check_tau_witnesses(g, phi, fan, status) -> V.Verdict:
    """Sweep every eligible (x, tau, item); WITNESS transcripts must replay
    and respect their avoidance sets; FAIL outcomes fail the check."""
    name = "tau-witnesses"
    if fan.typical is None:
        return V.inapplicable(name, "fan is not typical")
    delta = degree_profile(g).delta
    taus = eligible_colors(phi, fan)
    r = fan.center
    closed = set(g.adjacency[r]) | {r}
    outcomes = {"WITNESS": 0, "EXCLUDED": 0, "UNKNOWN": 0, "INAPPLICABLE": 0}
    if not taus:
        verdict = V.passed(name, instances=0, note="no eligible colors")
        if status != "EXACT":
            return V.conditional(name, "fan maximality is only a lower bound")
        return verdict
    for tau in taus:
        for x in range(g.n):
            if x in closed:
                continue
            if not (phi.misses(x, tau) or phi.misses(x, delta)):
                continue
            for item in WITNESS_ITEMS:
                if item in ("i", "ii", "vii") and not phi.misses(x, tau):
                    continue
                try:
                    res = witness_tau_item(
                        item, g, phi, fan, x, tau,
                        search_budget=WITNESS_BUDGET,
                        maximum_status=status,
                    )
                except (TauError, FanError) as exc:
                    outcomes["INAPPLICABLE"] += 1
                    continue
                if res.status == "FAIL":
                    return V.failed(
                        name, item=item, x=x, tau=tau,
                        detail=res.detail, coloring=phi.to_line(),
                    )
                if res.status == "WITNESS":
                    ok_replay = (
                        res.transcript.replay(phi).signature()
                        == res.phi.signature()
                    )
                    ok_avoid = is_avoiding(
                        res.transcript, sorted(witness_avoid_set(item, tau, delta))
                    )
                    if not (ok_replay and ok_avoid):
                        return V.failed(
                            name, item=item, x=x, tau=tau,
                            replay_ok=ok_replay, avoidance_ok=ok_avoid,
                            transcript=res.transcript.to_json(),
                            coloring=phi.to_line(),
                        )
                outcomes[res.status] += 1
    if status != "EXACT":
        return V.conditional(
            name, "fan maximality is only a lower bound", outcomes=outcomes
        )
    return V.passed(name, outcomes=outcomes)


@dataclass
class VerificationReport:
    line_no: int
    graph6: str
    error: Optional[str] = None
    meta: dict = field(default_factory=dict)
    checks: dict = field(default_factory=dict)  # name -> list of verdict dicts

    def to_json(self) -> dict:
        return {
            "line_no": self.line_no,
            "graph6": self.graph6,
            "error": self.error,
            "meta": self.meta,
            "checks": self.checks,
        }


def run_graph_checks(
    line_no: int, line: str, cfg: ScanConfig
) -> VerificationReport:
    try:
        g = from_graph6(line)
    except Exception as exc:
        return VerificationReport(line_no, line.strip(), error=str(exc))
    rep = VerificationReport(line_no, to_graph6(g))
    prof = degree_profile(g)
    meta = {
        "n": g.n,
        "m": len(g.edges),
        "delta": prof.delta,
        "core_min_degree": prof.core_min_degree,
        "core_max_degree": prof.core_max_degree,
    }
    try:
        meta["core_acyclic"] = is_core_acyclic(g)
        if len(g.edges) > 0 and g.n >= 2:
            cv = graph_facts(g, cfg.budget).verdict
            meta["chi_prime"] = cv.chi_prime
            meta["class"] = cv.cls
            meta["overfull"] = is_overfull(g)
            meta["just_overfull"] = is_just_overfull(g)
            meta["connected"] = g.is_connected()
        rep.meta = meta
        results: dict[str, list[dict]] = {}
        graph_level = {
            "val": lambda: check_val(g, cfg.budget),
            "parity": lambda: check_parity(g, cfg.budget),
        }
        for t in THEOREM_NAMES:
            graph_level[t] = (lambda t=t: check_theorem(t, g, cfg.budget))
        for c in CONJECTURE_NAMES:
            graph_level["conj-" + c] = (
                lambda c=c: check_conjecture(c, g, cfg.budget)
            )
        lemma_wanted = [c for c in cfg.checks if c in LEMMA_CHECKS]
        for name in cfg.checks:
            if name in graph_level:
                if len(g.edges) == 0:
                    results[name] = [
                        V.inapplicable(name, "graph has no edges").to_json()
                    ]
                else:
                    results[name] = [graph_level[name]().to_json()]
        if lemma_wanted and len(g.edges) > 0:
            suite = run_lemma_suite(g, cfg, lemma_wanted)
            # the suite appends one verdict object per orbit to many
            # colorings: each is encoded once and its dict shared
            encoded: dict[int, dict] = {}
            for name, verdicts in suite.items():
                row = results[name] = []
                for vd in verdicts:
                    d = encoded.get(id(vd))
                    if d is None:
                        d = encoded[id(vd)] = vd.to_json()
                    row.append(d)
        rep.checks = results
    except Exception as exc:  # surfaced per graph, scan continues
        rep.error = f"{type(exc).__name__}: {exc}"
    return rep


def _worker(args):
    """One scan task: the report as its encoded JSON line, plus the
    (check, status) pair of each verdict, or None for a report with an
    error."""
    rep = run_graph_checks(*args)
    if rep.error:
        tally = None
    else:
        tally = [
            (name, vd["status"])
            for name, verdicts in rep.checks.items()
            for vd in verdicts
        ]
    return json.dumps(rep.to_json(), sort_keys=True), tally


def scan_corpus(
    lines: Iterable[str],
    cfg: ScanConfig,
    workers: int = 1,
) -> tuple[list[str], dict]:
    """One encoded JSON report line per input line, in input order and
    independent of the worker count, plus a summary of the verdict
    counts per check."""
    tasks = [(i, s, cfg) for i, s in graph6_lines(lines)]
    # the pool hands out chunks of 16 tasks, so a process past the number
    # of chunks would get no work, and one chunk runs in process
    chunk = 16
    if workers > 1 and len(tasks) > chunk:
        import multiprocessing as mp

        processes = min(workers, -(-len(tasks) // chunk))
        with mp.get_context("fork").Pool(processes) as pool:
            packed = pool.map(_worker, tasks, chunksize=chunk)
    else:
        packed = [_worker(t) for t in tasks]
    counts: dict[str, dict[str, int]] = {}
    errors = 0
    for _, tally in packed:
        if tally is None:
            errors += 1
            continue
        for name, status in tally:
            slot = counts.setdefault(
                name,
                {V.PASS: 0, V.FAIL: 0, V.INAPPLICABLE: 0, V.UNKNOWN: 0, V.CONDITIONAL: 0},
            )
            slot[status] += 1
    summary = {
        "graphs": len(packed),
        "errors": errors,
        "checks": counts,
        "config": cfg.to_json(),
    }
    return [report for report, _ in packed], summary


def summary_tsv(summary: dict) -> str:
    cols = [V.PASS, V.FAIL, V.INAPPLICABLE, V.UNKNOWN, V.CONDITIONAL]
    lines = ["check\t" + "\t".join(cols)]
    for name in sorted(summary["checks"]):
        row = summary["checks"][name]
        lines.append(name + "\t" + "\t".join(str(row[c]) for c in cols))
    return "\n".join(lines) + "\n"


def exit_code(summary: dict) -> int:
    """0 all PASS/INAPPLICABLE; 1 any FAIL; 2 any UNKNOWN/CONDITIONAL
    without FAIL; 3 any per-line operational error."""
    if summary.get("errors"):
        return 3
    any_fail = any(
        row[V.FAIL] for row in summary["checks"].values()
    )
    if any_fail:
        return 1
    any_open = any(
        row[V.UNKNOWN] + row[V.CONDITIONAL] for row in summary["checks"].values()
    )
    return 2 if any_open else 0
