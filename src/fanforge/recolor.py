"""Tau-sequences, rotations, shiftings, and constructive recoloring witnesses.

Around a light center r with a typical maximum multifan F, every color tau
outside the fan's missing set determines a unique sequence of
(Delta-1)-degree neighbors (the tau-sequence), classified A (rotation:
the last vertex misses tau again), B (the last vertex misses a fan color)
or C (the last vertex repeats an earlier member's missing color).

Shifting rotates the spoke colors along such a sequence; it is a distinct
operation from a Kempe change and is tracked separately in transcripts so
color-avoidance accounting stays exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Optional, Sequence

from . import verdicts as V
from .colorings import (
    Chain,
    PartialEdgeColoring,
    are_linked,
    kempe_bfs,
    kempe_swap_at,
    swap_moves,
)
from .fans import (
    FanError,
    Multifan,
    at_least_stable,
    eligible_colors,
    fan_missing_union,
    inducing_map,
    stability_class,
)
from .graphs import SimpleGraph, degree_profile, light_vertices


class TauError(ValueError):
    pass


class MaximalityViolation(TauError):
    """The color tau sits on an edge to a max-degree neighbor, which cannot
    happen under a maximum fan; surfaced as evidence, never swallowed."""


class ShiftIneligible(ValueError):
    pass


# -- transcripts ------------------------------------------------------------


@dataclass(frozen=True)
class SwapStep:
    colors: tuple[int, int]
    anchor: int  # vertex whose chain is swapped

    def to_json(self) -> dict:
        return {"op": "swap", "colors": list(self.colors), "anchor": self.anchor}


@dataclass(frozen=True)
class ShiftStep:
    center: int
    vertices: tuple[int, ...]

    def to_json(self) -> dict:
        return {"op": "shift", "center": self.center, "range": list(self.vertices)}


@dataclass(frozen=True)
class RelabelStep:
    mapping: tuple[tuple[int, int], ...]  # (old, new) pairs, a bijection

    def to_json(self) -> dict:
        return {"op": "relabel", "bijection": {str(a): b for a, b in self.mapping}}


Step = SwapStep | ShiftStep | RelabelStep


@dataclass
class Transcript:
    steps: list[Step] = field(default_factory=list)

    def add(self, step: Step):
        self.steps.append(step)

    def to_json(self) -> list[dict]:
        return [s.to_json() for s in self.steps]

    @property
    def has_non_swap_steps(self) -> bool:
        return any(not isinstance(s, SwapStep) for s in self.steps)

    def replay(self, phi: PartialEdgeColoring) -> PartialEdgeColoring:
        cur = phi
        for step in self.steps:
            cur = apply_step(cur, step)
        return cur


def apply_step(phi: PartialEdgeColoring, step: Step) -> PartialEdgeColoring:
    if isinstance(step, SwapStep):
        a, b = step.colors
        return kempe_swap_at(phi, step.anchor, a, b)
    if isinstance(step, ShiftStep):
        return shift(phi, step.center, step.vertices)
    if isinstance(step, RelabelStep):
        return relabel(phi, dict(step.mapping))
    raise TypeError(f"unknown step {step!r}")


def relabel(phi: PartialEdgeColoring, mapping: dict[int, int]) -> PartialEdgeColoring:
    """Apply a color bijection to the whole coloring."""
    full = dict(mapping)
    for c in range(1, phi.k + 1):
        full.setdefault(c, c)
    if sorted(full.values()) != list(range(1, phi.k + 1)):
        raise ValueError("relabeling is not a bijection on [1,k]")
    colors = [None if c is None else full[c] for c in phi.assignment]
    return PartialEdgeColoring.from_assignment(
        phi.graph, phi.k, colors, uncolored=phi.uncolored
    )


def swap_both_colors(mapping_a: int, mapping_b: int) -> RelabelStep:
    return RelabelStep(((mapping_a, mapping_b), (mapping_b, mapping_a)))


def is_avoiding(transcript: Transcript, colors: Sequence[int]) -> bool:
    """True iff no Kempe-swap step touches a color in `colors`. Shift and
    relabel steps are not Kempe changes and do not count; their presence
    shows in transcript.has_non_swap_steps."""
    s = set(colors)
    return not any(
        isinstance(st, SwapStep) and (st.colors[0] in s or st.colors[1] in s)
        for st in transcript.steps
    )


# -- shifting ----------------------------------------------------------------


def shift(
    phi: PartialEdgeColoring, center: int, vertices: Sequence[int]
) -> PartialEdgeColoring:
    """Recolor each spoke edge center-v to the color missing at v, all
    missing colors read before any change. Rejected atomically when the
    result would be improper; the input coloring is never touched."""
    colors = list(phi.assignment)
    for e, c in _shift_recolorings(phi, center, vertices):
        colors[e] = c
    try:
        return PartialEdgeColoring.from_assignment(
            phi.graph, phi.k, colors, uncolored=phi.uncolored
        )
    except Exception as exc:
        raise ShiftIneligible(f"shift result improper: {exc}") from exc


def _shift_recolorings(
    phi: PartialEdgeColoring, center: int, vertices: Sequence[int]
) -> list[tuple[int, int]]:
    """The (edge, new color) pairs of `shift`, unchecked for properness."""
    g = phi.graph
    news = []
    for v in vertices:
        ms = phi.missing_at(v)
        if len(ms) != 1:
            raise ShiftIneligible(
                f"vertex {v} misses {len(ms)} colors; shifting needs exactly 1"
            )
        news.append((g.edge_id(center, v), ms[0]))
    return news


# -- tau-sequences ------------------------------------------------------------


@dataclass
class TauSequence:
    tau: int
    vertices: tuple[int, ...]
    type: str  # "A" | "B" | "C"
    terminal_color: Optional[int] = None  # type B: the fan color missed at v_t
    repeat_index: Optional[int] = None  # type C: 1-based i with miss(v_t) = miss(v_{i-1})

    def to_json(self) -> dict:
        d = {"tau": self.tau, "vertices": list(self.vertices), "type": self.type}
        if self.terminal_color is not None:
            d["terminal_color"] = self.terminal_color
        if self.repeat_index is not None:
            d["repeat_index"] = self.repeat_index
        return d


def build_tau_sequence(
    g: SimpleGraph, phi: PartialEdgeColoring, fan: Multifan, tau: int
) -> TauSequence:
    """The unique tau-sequence for a color tau outside the fan's missing
    set. Deterministic: each member has a singleton missing set, so there
    is never a choice. Landing on a max-degree neighbor raises
    MaximalityViolation (evidence the fan was not maximum)."""
    r = fan.center
    prof = degree_profile(g)
    delta = prof.delta
    fanmiss = fan_missing_union(phi, fan)
    if tau in fanmiss:
        raise TauError(f"color {tau} is missing on the fan")
    if r not in light_vertices(g):
        raise TauError("center is not light")
    e1 = phi.edge_with_color(r, tau)
    if e1 is None:
        raise TauError(f"color {tau} not present at center")
    v = g.other_end(e1, r)
    if prof.degrees[v] == delta:
        raise MaximalityViolation(
            f"color {tau} sits on the edge to max-degree neighbor {v}"
        )
    seq = [v]
    missing_seen: dict[int, int] = {}  # color -> 1-based position of its owner
    while True:
        last = seq[-1]
        ms = phi.missing_at(last)
        if len(ms) != 1:
            raise TauError(f"sequence member {last} misses {len(ms)} colors")
        c = ms[0]
        if c == tau:
            return TauSequence(tau, tuple(seq), "A")
        if c in fanmiss:
            return TauSequence(tau, tuple(seq), "B", terminal_color=c)
        if c in missing_seen:
            return TauSequence(
                tau, tuple(seq), "C", repeat_index=missing_seen[c] + 1
            )
        missing_seen[c] = len(seq)
        nxt_e = phi.edge_with_color(r, c)
        if nxt_e is None:
            raise TauError(f"color {c} not present at center; sequence broken")
        w = g.other_end(nxt_e, r)
        if prof.degrees[w] == delta:
            raise MaximalityViolation(
                f"color {c} sits on the edge to max-degree neighbor {w}"
            )
        if w in seq:
            raise TauError("sequence revisited a vertex")
        seq.append(w)


def all_tau_sequences(
    g: SimpleGraph, phi: PartialEdgeColoring, fan: Multifan
) -> list[TauSequence]:
    return [build_tau_sequence(g, phi, fan, tau)
            for tau in eligible_colors(phi, fan)]


def shifting_kind(ts: TauSequence, phi: PartialEdgeColoring) -> Optional[str]:
    """"A" when the sequence is a rotation, "B" when it is type B ending on
    missing color 1; otherwise None (shifting ineligible)."""
    if ts.type == "A":
        return "A"
    if ts.type == "B" and ts.terminal_color == 1:
        return "B"
    return None


def apply_shifting(
    phi: PartialEdgeColoring,
    fan: Multifan,
    ts: TauSequence,
) -> tuple[PartialEdgeColoring, ShiftStep]:
    """Shift the whole sequence; eligible for rotations (fan-stable result)
    and for type B ending on color 1 (the center's missing color becomes
    tau)."""
    kind = shifting_kind(ts, phi)
    if kind is None:
        raise ShiftIneligible(
            f"type {ts.type} sequence with terminal {ts.terminal_color} cannot shift"
        )
    step = ShiftStep(fan.center, ts.vertices)
    return shift(phi, fan.center, ts.vertices), step


# -- the two chain memberships at s1 ------------------------------------------


def verify_rs1_linkage(
    g: SimpleGraph,
    phi: PartialEdgeColoring,
    fan: Multifan,
    maximum_status: str = "EXACT",
) -> V.Verdict:
    """Under a maximum fan, for every tau outside the fan's missing set the
    center lies on both of s1's chains: the (tau, Delta)-chain and the
    (2, tau)-chain. CONDITIONAL unless the maximum was certified EXACT."""
    name = "rs1-linkage"
    delta = degree_profile(g).delta
    taus = eligible_colors(phi, fan)
    r = fan.center
    s1 = fan.sequence[0]
    failures = []
    for tau in taus:
        for pair in ((tau, delta), (2, tau)):
            a, b = pair
            if a == b:
                continue
            ch = phi.chain_at(s1, a, b)
            if r not in ch.vertices:
                failures.append(
                    {"tau": tau, "pair": [a, b], "chain": list(ch.vertices)}
                )
    if failures:
        if maximum_status != "EXACT":
            return V.conditional(
                name,
                "fan maximality is only a lower bound; membership failed",
                failures=failures,
            )
        return V.failed(name, failures=failures, coloring=phi.to_line())
    if maximum_status != "EXACT":
        return V.conditional(
            name, "fan maximality is only a lower bound", taus=taus
        )
    return V.passed(name, taus=taus)


# -- constructive recoloring witnesses ------------------------------------------

WITNESS_ITEMS = ("i", "ii", "iii", "iv", "v", "vi", "vii")

_REQUIRED_STABILITY = {
    "i": "F-stable",
    "ii": "V(F-r)-stable",
    "iii": "V(F-r)-stable",
    "iv": "V(F-r)-stable",
    "v": "V(F)-stable",
    "vi": "V(F)-stable",
    "vii": "V(F)-stable",
}


def witness_avoid_set(item: str, tau: int, delta: int) -> set[int]:
    return {
        "i": set(),
        "ii": {delta},
        "iii": {tau, delta},
        "iv": {2, tau, delta},
        "v": {1, tau},
        "vi": {1, tau, delta},
        "vii": {1, tau, delta},
    }[item]


@dataclass
class WitnessResult:
    item: str
    status: str  # WITNESS | EXCLUDED | FAIL | UNKNOWN | INAPPLICABLE
    phi: Optional[PartialEdgeColoring]
    transcript: Optional[Transcript]
    detail: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        d = {"item": self.item, "status": self.status, "detail": self.detail}
        if self.transcript is not None:
            d["transcript"] = self.transcript.to_json()
        if self.phi is not None:
            d["coloring"] = self.phi.to_line()
        return d


def _chains_cut(
    phi: PartialEdgeColoring, s1: int, x: int, a: int, b: int
) -> Optional[bool]:
    """Is x separated from s1's (a,b)-chain? None when the pair is
    degenerate or s1 misses neither color (components undefined)."""
    if a == b:
        return None
    if not (phi.misses(s1, a) or phi.misses(s1, b)):
        return None
    if phi.misses(x, a) or phi.misses(x, b):
        return not are_linked(phi, s1, x, a, b)
    return x not in phi.chain_at(s1, a, b).vertices


def _post_pairs(item: str, tau: int, delta: int) -> tuple[tuple[int, int], ...]:
    """The color pairs of item iii-vii's post-condition: x must be cut off
    s1's chain in one of them. Empty for items i and ii, which read
    missing sets."""
    if item in ("i", "ii"):
        return ()
    if item in ("iii", "iv", "vi"):
        return ((tau, delta),)
    if item == "v":
        return ((tau, delta), (2, tau))
    if item == "vii":
        return ((2, tau),)
    raise ValueError(item)


def _witness_post_ok(
    item: str,
    phi2: PartialEdgeColoring,
    fan: Multifan,
    x: int,
    pairs: tuple[tuple[int, int], ...],
) -> bool:
    """The item's post-condition on phi2; `pairs` is the item's
    `_post_pairs`."""
    if item == "i":
        return phi2.misses(x, 1)
    if item == "ii":
        return bool(phi2.missing_mask(fan.center) & phi2.missing_mask(x))
    s1 = fan.sequence[0]
    for a, b in pairs:
        if _chains_cut(phi2, s1, x, a, b):
            return True
    return False


def _post_verdicts(
    item: str,
    phi: PartialEdgeColoring,
    fan: Multifan,
    x: int,
    tau: int,
    delta: int,
):
    """`_witness_post_ok` as a `kempe_bfs` goal for a search from phi.

    For items iii-vii the post-condition reads only the chains of its
    `_post_pairs` and, at s1 and x, whether both colors of such a pair are
    present, a fact of the pair's subgraph. A swap on a pair that equals
    each of them or shares no color with it keeps all of that, so the new
    state takes its parent's verdict instead of a new test, and the goal
    leaves the state unbuilt. Items i and ii read missing sets and are
    always tested.
    """
    pairs = _post_pairs(item, tau, delta)
    keeps = set()
    if pairs:
        keeps = {
            (a, b)
            for a, b in combinations(range(1, phi.k + 1), 2)
            if all((a in p) == (b in p) for p in pairs)
        }
    post = {phi.packed_key(): _witness_post_ok(item, phi, fan, x, pairs)}

    def post_ok(get, key: int, parent: int, move) -> bool:
        if isinstance(move, Chain) and move.colors in keeps:
            verdict = post[parent]
        else:
            verdict = _witness_post_ok(item, get(), fan, x, pairs)
        post[key] = verdict
        return verdict

    return post_ok


def _terminal_root(
    g: SimpleGraph, phi: PartialEdgeColoring, fan: Multifan, color: int
) -> Optional[str]:
    try:
        return inducing_map(g, phi, fan).root_of(color)
    except FanError:
        return None


def _unless_clause(
    item: str,
    ts: TauSequence,
    g: SimpleGraph,
    phi: PartialEdgeColoring,
    fan: Multifan,
    delta: int,
) -> Optional[str]:
    """The item's explicit exception; a reason string when it fires."""
    if item == "i" or ts.type != "B":
        return None
    gam = ts.terminal_color
    if item in ("ii", "iii") and gam == delta:
        return f"type B sequence ending on missing color {gam}"
    if item == "iv" and gam in (2, delta):
        return f"type B sequence ending on missing color {gam}"
    if item == "v" and gam == 1:
        return "type B sequence ending on missing color 1"
    if item in ("vi", "vii"):
        if gam in (1, delta):
            return f"type B sequence ending on missing color {gam}"
        if _terminal_root(g, phi, fan, gam) == "2":
            return f"type B terminal color {gam} hangs off root 2"
    return None


def _r_on_chain(phi: PartialEdgeColoring, r: int, w: int, a: int, b: int) -> bool:
    return r in phi.chain_at(w, a, b).vertices


def _convert_c_to_b(
    item: str,
    g: SimpleGraph,
    cur: PartialEdgeColoring,
    fan: Multifan,
    ts: TauSequence,
    tau: int,
    delta: int,
    tr: Transcript,
) -> tuple[PartialEdgeColoring, TauSequence, dict]:
    """Swap at whichever of v_{i-1}, v_t sits on a chain avoiding r, turning
    the repeat into a type B ending. The color pair depends on the item so
    the swap respects its avoidance set."""
    r = fan.center
    vprev = ts.vertices[ts.repeat_index - 2]
    vlast = ts.vertices[-1]
    taui = cur.missing_at(vlast)[0]
    if item in ("i", "ii", "iii", "iv"):
        pair = (1, taui)
    elif item == "v":
        pair = (taui, delta)
    else:  # vi, vii
        pair = (2, taui)
    free = [w for w in (vprev, vlast) if not _r_on_chain(cur, r, w, *pair)]
    info = {"pair": list(pair), "candidates": [vprev, vlast], "free": list(free)}
    if not free:
        raise TauError(
            f"neither repeat vertex avoids the center on a {pair}-chain"
        )
    w = min(free, key=lambda u: ts.vertices.index(u))
    step = SwapStep(pair, w)
    cur = apply_step(cur, step)
    tr.add(step)
    ts2 = build_tau_sequence(g, cur, fan, tau)
    return cur, ts2, info


def _construct_witness(
    item: str,
    g: SimpleGraph,
    phi: PartialEdgeColoring,
    fan: Multifan,
    x: int,
    tau: int,
    delta: int,
) -> tuple[str, PartialEdgeColoring, Transcript, dict]:
    """Run the per-type constructive procedure. Returns (outcome, coloring,
    transcript, info) with outcome "done" or "reduced" (items vi/vii whose
    ending converts into an excluded shape)."""
    r = fan.center
    tr = Transcript()
    cur = phi
    info: dict = {}

    def do(step: Step):
        nonlocal cur
        cur = apply_step(cur, step)
        tr.add(step)

    # items i/ii: when the center is off x's (1,tau)-chain one swap suffices
    if item in ("i", "ii") and not _r_on_chain(cur, r, x, 1, tau):
        do(SwapStep((1, tau), x))
        info["route"] = "single-swap"
        return "done", cur, tr, info

    ts = build_tau_sequence(g, cur, fan, tau)
    if ts.type == "C":
        cur, ts, cinfo = _convert_c_to_b(item, g, cur, fan, ts, tau, delta, tr)
        info["c_conversion"] = cinfo

    if ts.type == "A":
        if item in ("i", "ii"):
            vt = ts.vertices[-1]
            do(SwapStep((1, tau), vt))
            do(ShiftStep(r, ts.vertices))
            if item == "i":
                do(swap_both_colors(1, tau))
            info["route"] = "rotation-with-endpoint-swap"
        else:
            do(ShiftStep(r, ts.vertices))
            info["route"] = "rotation-shift"
        return "done", cur, tr, info

    # type B
    gam = ts.terminal_color
    vt = ts.vertices[-1]
    info["terminal"] = gam
    if item in ("i", "ii", "iii", "iv"):
        if gam != 1:
            do(SwapStep((1, gam), vt))
        do(ShiftStep(r, ts.vertices))
        if item == "i":
            do(swap_both_colors(1, tau))
        info["route"] = "b-shift"
        return "done", cur, tr, info
    if item == "v":
        root = _terminal_root(g, phi, fan, gam)
        if root == "2":
            do(SwapStep((gam, delta), vt))
            do(SwapStep((tau, delta), vt))
        else:
            if gam != 2:
                do(SwapStep((gam, 2), vt))
            do(SwapStep((tau, 2), vt))
        do(ShiftStep(r, ts.vertices))
        info["route"] = f"b-to-rotation-{root}"
        return "done", cur, tr, info
    # vi / vii: terminal hangs off the Delta root (everything else was excluded)
    do(SwapStep((2, gam), vt))
    info["route"] = "reduced-to-2-inducing"
    return "reduced", cur, tr, info


def _eligible_shift_steps(
    g: SimpleGraph, phi: PartialEdgeColoring, fan: Multifan
) -> list[ShiftStep]:
    out = []
    for t in eligible_colors(phi, fan):
        try:
            ts = build_tau_sequence(g, phi, fan, t)
        except TauError:
            continue
        if shifting_kind(ts, phi) is not None:
            out.append(ShiftStep(fan.center, ts.vertices))
    return out


def _shift_steps_around(g: SimpleGraph, fan: Multifan):
    """`_eligible_shift_steps` around one fan, [] where it raises FanError,
    memoized by what it reads: the colors of the edges at the center and
    the missing sets of the center and its neighbours, where the fan and
    every tau-sequence lie. States that agree there share their steps."""
    r = fan.center
    around = (r, *g.adjacency[r])
    at_center = [g.edge_id(r, v) for v in g.adjacency[r]]
    memo: dict = {}

    def steps(state: PartialEdgeColoring) -> list[ShiftStep]:
        asg = state.assignment
        missing = state.missing
        local = (
            tuple([asg[e] for e in at_center]),
            tuple([missing[v] for v in around]),
        )
        out = memo.get(local)
        if out is None:
            try:
                out = _eligible_shift_steps(g, state, fan)
            except FanError:
                out = []
            memo[local] = out
        return out

    return steps


def _search_witness(
    item: str,
    g: SimpleGraph,
    phi: PartialEdgeColoring,
    fan: Multifan,
    x: int,
    tau: int,
    delta: int,
    avoid: set[int],
    budget: int,
) -> tuple[Optional[tuple[PartialEdgeColoring, Transcript]], bool]:
    """Breadth-first hunt over avoidance-respecting swaps plus eligible
    shiftings; returns (hit, exhausted). Stability is always measured
    against the original coloring and fan. A shifting is handed to
    `kempe_bfs` as its recolorings, so its child is built only when its
    key is new."""
    want = _REQUIRED_STABILITY[item]
    pairs = [
        (a, b)
        for a, b in combinations(range(1, phi.k + 1), 2)
        if a not in avoid and b not in avoid
    ]

    shift_steps = _shift_steps_around(g, fan)

    def moves(state: PartialEdgeColoring):
        yield from swap_moves(state, pairs)
        for step in shift_steps(state):
            try:
                news = _shift_recolorings(state, step.center, step.vertices)
            except ShiftIneligible:
                continue
            yield step, news

    post_ok = _post_verdicts(item, phi, fan, x, tau, delta)

    def found(get, key: int, parent: int, move) -> bool:
        return post_ok(get, key, parent, move) and at_least_stable(
            stability_class(get(), phi, fan), want
        )

    res = kempe_bfs(phi, moves, budget, goal=found)
    if res.hit is None:
        return None, res.exhausted
    return (res.hit, Transcript(_transcript_steps(res.path()))), True


def _transcript_steps(moves: list) -> list[Step]:
    """`kempe_bfs` moves as transcript steps: a swapped chain is recorded
    by its color pair and first vertex."""
    return [
        SwapStep(m.colors, m.vertices[0]) if isinstance(m, Chain) else m
        for m in moves
    ]


def witness_tau_item(
    item: str,
    g: SimpleGraph,
    phi: PartialEdgeColoring,
    fan: Multifan,
    x: int,
    tau: int,
    search_budget: int = 1500,
    maximum_status: str = "EXACT",
) -> WitnessResult:
    """Produce a machine-checked recoloring witness for one of the seven
    guarantees, or EXCLUDED when the guarantee's exception applies.

    The constructive route follows the proofs case by case ("by symmetry"
    branches written out). Every candidate witness is checked for the
    required stability class, the item's color-avoidance set, and its
    postcondition; a bounded avoidance-respecting search backs up the
    construction. FAIL is returned only with a replayable transcript or an
    exhausted search, never silently; when the fan's maximality is only a
    lower bound (maximum_status != "EXACT"), a would-be FAIL downgrades to
    UNKNOWN since the guarantees presume a maximum fan.
    """
    if item not in WITNESS_ITEMS:
        raise ValueError(f"unknown item {item!r}")
    if fan.typical is None:
        raise TauError("witness construction needs a typical fan")
    delta = degree_profile(g).delta
    r = fan.center
    taus = eligible_colors(phi, fan)
    if not taus:
        return WitnessResult(
            item, "INAPPLICABLE", None, None,
            {"reason": "fan missing set covers the whole palette"},
        )
    if x == r or g.has_edge(r, x):
        raise TauError("x must lie outside the closed neighborhood of the center")
    # a palette color is missing on the fan exactly when it is not eligible
    if 1 <= tau <= phi.k and tau not in taus:
        raise TauError(f"color {tau} is missing on the fan")
    if not (phi.misses(x, tau) or phi.misses(x, delta)):
        raise TauError("x misses neither tau nor Delta")
    if item in ("i", "ii", "vii") and not phi.misses(x, tau):
        raise TauError(f"item ({item}) needs tau missing at x")

    avoid = witness_avoid_set(item, tau, delta)
    want = _REQUIRED_STABILITY[item]

    ts = build_tau_sequence(g, phi, fan, tau)
    reason = _unless_clause(item, ts, g, phi, fan, delta)
    if reason is not None:
        return WitnessResult(
            item, "EXCLUDED", None, None,
            {"reason": reason, "sequence": ts.to_json()},
        )

    pairs = _post_pairs(item, tau, delta)
    if _witness_post_ok(item, phi, fan, x, pairs):
        return WitnessResult(
            item, "WITNESS", phi, Transcript(),
            {"route": "already-satisfied", "sequence": ts.to_json()},
        )

    detail: dict = {"sequence": ts.to_json()}
    outcome = None
    try:
        outcome, phi2, tr, info = _construct_witness(
            item, g, phi, fan, x, tau, delta
        )
        detail.update(info)
    except (TauError, ShiftIneligible, FanError) as exc:
        detail["construction_error"] = str(exc)
        phi2, tr = None, None

    if outcome == "done" and phi2 is not None:
        stab = stability_class(phi2, phi, fan)
        checks = {
            "stability": stab,
            "stability_ok": at_least_stable(stab, want),
            "avoidance_ok": is_avoiding(tr, sorted(avoid)),
            "post_ok": _witness_post_ok(item, phi2, fan, x, pairs),
            "replay_ok": tr.replay(phi).signature() == phi2.signature(),
        }
        detail["checks"] = checks
        if all(v for k, v in checks.items() if k != "stability"):
            return WitnessResult(item, "WITNESS", phi2, tr, detail)

    hit, exhausted = _search_witness(
        item, g, phi, fan, x, tau, delta, avoid, search_budget
    )
    if hit is not None:
        phi3, tr3 = hit
        stab = stability_class(phi3, phi, fan)
        detail["search"] = {
            "stability": stab,
            "avoidance_ok": is_avoiding(tr3, sorted(avoid)),
            "replay_ok": tr3.replay(phi).signature() == phi3.signature(),
        }
        return WitnessResult(item, "WITNESS", phi3, tr3, detail)

    if outcome == "reduced" and phi2 is not None:
        # items vi/vii: the ending converts into an excluded shape; report
        # the reduction rather than a missing witness
        ts2 = build_tau_sequence(g, phi2, fan, tau)
        detail["reduced_sequence"] = ts2.to_json()
        detail["reduction_replay_ok"] = (
            tr.replay(phi).signature() == phi2.signature()
        )
        return WitnessResult(item, "EXCLUDED", phi2, tr, detail)

    if not exhausted:
        return WitnessResult(
            item, "UNKNOWN", None, None,
            {**detail, "reason": f"search budget {search_budget} exhausted"},
        )
    if maximum_status != "EXACT":
        return WitnessResult(
            item, "UNKNOWN", phi2, tr,
            {**detail,
             "reason": "no witness in the bounded move space; fan maximality "
                       "was not certified, so this evidences a non-maximum fan"},
        )
    return WitnessResult(
        item, "FAIL", phi2, tr,
        {**detail, "reason": "construction failed and the bounded move space holds no witness"},
    )


def tau_sequence_by_definition(
    g: SimpleGraph, phi: PartialEdgeColoring, fan: Multifan, tau: int
) -> list[TauSequence]:
    """Clause-by-clause enumeration of every vertex sequence satisfying the
    tau-sequence definition, independent of the constructive builder: all
    ordered tuples of distinct out-of-fan spokes are tested declaratively.
    Exponential; intended as the uniqueness oracle on desk-size instances.
    """
    from itertools import permutations

    r = fan.center
    prof = degree_profile(g)
    delta = prof.delta
    fanmiss = fan_missing_union(phi, fan)
    pool = [
        w
        for w in g.adjacency[r]
        if w not in fan.vertex_set()
        and prof.degrees[w] == delta - 1
        and phi.color_of(g.edge_id(r, w)) is not None
    ]
    results = []
    for t in range(1, len(pool) + 1):
        for cand in permutations(pool, t):
            if phi.color_of(g.edge_id(r, cand[0])) != tau:
                continue
            ok = True
            # middle members: singleton missing, outside the fan's missing
            # set, pairwise distinct missing colors, edge colors chain up
            missings = []
            for v in cand:
                ms = phi.missing_at(v)
                if len(ms) != 1:
                    ok = False
                    break
                missings.append(ms[0])
            if not ok:
                continue
            for i in range(t - 1):
                if missings[i] in fanmiss:
                    ok = False
                    break
            if not ok or len(set(missings[: t - 1])) != t - 1:
                continue
            for i in range(1, t):
                if phi.color_of(g.edge_id(r, cand[i])) != missings[i - 1]:
                    ok = False
                    break
            if not ok:
                continue
            last = missings[-1]
            if last == tau:
                results.append(TauSequence(tau, cand, "A"))
            elif last in fanmiss:
                results.append(TauSequence(tau, cand, "B", terminal_color=last))
            else:
                hit = [i for i in range(2, t) if missings[i - 2] == last]
                if hit:
                    results.append(
                        TauSequence(tau, cand, "C", repeat_index=hit[0])
                    )
    return results


def shifting_kempe_equivalent(
    phi: PartialEdgeColoring,
    target: PartialEdgeColoring,
    budget: int = 20_000,
) -> tuple[Optional[list[SwapStep]], bool]:
    """Experiment hook: breadth-first search for a pure Kempe-swap path
    from phi to target (e.g. the result of a shifting). Returns
    (swap sequence or None, search exhausted). Whether shiftings are
    always swap-reachable is an open question; this only reports what a
    bounded search finds on one instance, it claims nothing in general.
    States are compared by `packed_key`, so a target other than phi itself
    must be colored from phi's palette (ValueError otherwise)."""
    if phi.signature() == target.signature():
        return [], True
    if target.k != phi.k:
        raise ValueError("target is colored from another palette")
    want = target.packed_key()
    res = kempe_bfs(
        phi, swap_moves, budget, goal=lambda get, key, parent, move: key == want
    )
    if res.hit is None:
        return None, res.exhausted
    return _transcript_steps(res.path()), True
