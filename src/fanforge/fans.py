"""Multifans, Kierstead paths, typical normalization, and their verifiers.

A multifan at center r with uncolored edge rs1 is a sequence
(r, rs1, s1, rs2, s2, ...) of distinct neighbors where each later spoke's
edge color is missing at some earlier spoke. Grown spokes must not be
maximum-degree vertices; the base vertex s1 is always admitted (the
degenerate fixture graphs need it even when every vertex has maximum
degree).

Each spoke hangs off a color missing at s1, which reaches it through a
chain of spokes. One breadth-first walk, `_spoke_roots`, gives the typical
form's two inducing sequences, the roots `verify_fan_linkage` compares and
`stability_class`'s spanning test. The two stable-swap verifiers share one
case generator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Optional, Sequence

from . import verdicts as V
from .colorings import (
    PartialEdgeColoring,
    _mask_to_colors,
    are_linked,
    kempe_bfs,
    kempe_swap,
    swap_moves,
)
from .graphs import SimpleGraph, degree_profile, incident, light_vertices
from .solver import ColoringSpace


class FanError(ValueError):
    pass


@dataclass(frozen=True)
class TypicalForm:
    """Normalized color labeling: 1 missing at r, {2, Delta} missing at s1,
    spokes split into the chain rooted at 2 and the chain rooted at Delta."""

    alpha: int
    beta: int
    two_inducing: tuple[int, ...]    # s_2 .. s_alpha
    delta_inducing: tuple[int, ...]  # s_{alpha+1} .. s_beta


@dataclass
class Multifan:
    center: int
    uncolored_edge: int
    sequence: tuple[int, ...]  # (s1, ..., sp)
    edge_colors: dict[int, int]  # spoke vertex -> color of r-spoke edge (s1 absent)
    missing: dict[int, int]  # snapshot of the missing masks on V(F)
    typical: Optional[TypicalForm] = None
    # grown with one eligible spoke at every step, so every color renaming
    # of the coloring grows this sequence too; False when not known
    forced: bool = field(default=False, compare=False)

    def vertex_set(self) -> tuple[int, ...]:
        return (self.center,) + self.sequence

    def size(self) -> int:
        return 1 + len(self.sequence)

    def to_json(self) -> dict:
        d = {
            "center": self.center,
            "uncolored_edge": self.uncolored_edge,
            "sequence": list(self.sequence),
            "edge_colors": {str(s): c for s, c in self.edge_colors.items()},
            "missing": {str(v): list(_mask_to_colors(m))
                        for v, m in self.missing.items()},
        }
        if self.typical:
            d["typical"] = {
                "alpha": self.typical.alpha,
                "beta": self.typical.beta,
                "two_inducing": list(self.typical.two_inducing),
                "delta_inducing": list(self.typical.delta_inducing),
            }
        return d


def fan_missing_union(phi: PartialEdgeColoring, fan: Multifan) -> set[int]:
    """The colors missing at some vertex of V(F) under phi."""
    out: set[int] = set()
    for v in fan.vertex_set():
        out.update(phi.missing_at(v))
    return out


def eligible_colors(phi: PartialEdgeColoring, fan: Multifan) -> list[int]:
    """The colors tau outside the fan's missing set, ascending: the colors
    a tau-sequence starts from."""
    covered = 0
    for v in fan.vertex_set():
        covered |= phi.missing[v]
    return [t for t in range(1, phi.k + 1) if not covered >> (t - 1) & 1]


@dataclass
class KiersteadPath:
    """Path sequence (v0, v0v1, v1, ..., vp) whose later edge colors are
    missing at vertices at least two steps back."""

    vertices: tuple[int, ...]
    uncolored_edge: int
    # grown with one eligible edge at every step, so every color renaming
    # of the coloring grows this path too; False when not known
    forced: bool = field(default=False, compare=False)

    def to_json(self) -> dict:
        return {"vertices": list(self.vertices), "uncolored_edge": self.uncolored_edge}


@dataclass(frozen=True)
class InducingMap:
    """For each color missing on the fan spokes, which missing color of s1
    roots it, together with the spoke subsequence that carries it there."""

    entries: dict[int, tuple[str, tuple[int, ...]]]  # color -> ("2"|"delta", vertices)

    def root_of(self, color: int) -> Optional[str]:
        """The root ("2" or "delta") that tags `color`, None if untagged."""
        entry = self.entries.get(color)
        return entry[0] if entry else None

    def to_json(self) -> dict:
        return {
            str(c): {"root": r, "sequence": list(seq)}
            for c, (r, seq) in self.entries.items()
        }


def grow_multifan(g: SimpleGraph, phi: PartialEdgeColoring, r: int, s1: int) -> Multifan:
    """Greedily grow the inclusion-maximal multifan at r from the uncolored
    edge rs1. Growth adds only non-maximum-degree spokes; ties break on
    lowest edge color, then lowest vertex id. The maximal spoke set is
    unique (eligibility never disappears as the fan grows), so the greedy
    order only affects sequence labels.

    The fan is `forced` when every step had one eligible spoke. Renaming
    the colors renames the spoke colors and missing sets alike, so it
    keeps each step's eligible spokes, and a forced growth grows the same
    sequence on every renaming of phi.
    """
    e = g.edge_id(r, s1)
    if phi.uncolored != e:
        raise FanError(f"edge {r}-{s1} is not the uncolored edge of the coloring")
    prof = degree_profile(g)
    degrees, delta = prof.degrees, prof.delta
    at_r = incident(g)[r]
    colors, missing = phi.assignment, phi.missing
    seq = [s1]
    member = {s1}
    missing_union = missing[s1]
    forced = True
    while True:
        best = None
        for w, ew in at_r.items():
            if w in member or degrees[w] == delta:
                continue
            c = colors[ew]
            if c is None:
                continue
            if missing_union >> (c - 1) & 1:
                key = (c, w)
                if best is None:
                    best = key
                else:
                    forced = False
                    if key < best:
                        best = key
        if best is None:
            break
        _, w = best
        seq.append(w)
        member.add(w)
        missing_union |= missing[w]
    return Multifan(
        center=r,
        uncolored_edge=e,
        sequence=tuple(seq),
        edge_colors={s: colors[at_r[s]] for s in seq[1:]},
        missing={v: missing[v] for v in [r] + seq},
        forced=forced,
    )


def check_multifan(
    g: SimpleGraph, phi: PartialEdgeColoring, fan: Multifan
) -> list[str]:
    """Structural violations of the fan conditions; empty list when valid.

    s1 being a maximum-degree vertex is reported as a note by callers, not
    a violation (degenerate fixtures rely on it).
    """
    out = []
    r = fan.center
    seq = fan.sequence
    if len(set(seq)) != len(seq) or r in seq:
        out.append("vertices not distinct")
    if phi.uncolored != fan.uncolored_edge:
        out.append("uncolored edge mismatch")
    u, v = g.endpoints(fan.uncolored_edge)
    if {u, v} != {r, seq[0]}:
        out.append("uncolored edge does not join center and s1")
    prof = degree_profile(g)
    at_r = incident(g)[r]
    colors, missing = phi.assignment, phi.missing
    missing_union = missing[seq[0]]
    for i, s in enumerate(seq):
        e = at_r.get(s)
        if e is None:
            out.append(f"s{i+1}={s} not adjacent to center")
            continue
        if i == 0:
            continue
        if prof.degrees[s] == prof.delta:
            out.append(f"spoke {s} is a maximum-degree vertex")
        c = colors[e]
        if c is None:
            out.append(f"spoke edge r-{s} uncolored")
        elif not (missing_union >> (c - 1)) & 1:
            out.append(f"color {c} of spoke r-{s} missing at no earlier spoke")
        missing_union |= missing[s]
    return out


# -- spoke roots ----------------------------------------------------------------


def _spoke_roots(
    g: SimpleGraph, phi: PartialEdgeColoring, r: int, s1: int, spokes: Sequence[int]
) -> dict[int, list[int]]:
    """For each color missing at s1, ascending, the spokes it reaches, in
    breadth-first order. A color reaches the spoke whose edge to r carries
    it, and a reached spoke's missing colors reach further; each spoke is
    reached at most once, by the first root that gets to it. The edge
    colors at r are distinct, so a color reaches at most one spoke."""
    at_r = incident(g)[r]
    colors, missing = phi.assignment, phi.missing
    unreached = {colors[at_r[s]]: s for s in spokes}
    out: dict[int, list[int]] = {}
    for root in _mask_to_colors(missing[s1]):
        reached = out[root] = []
        todo = [root]
        for c in todo:
            s = unreached.pop(c, None)
            if s is not None:
                reached.append(s)
                todo += _mask_to_colors(missing[s])
    return out


# -- typical normalization ---------------------------------------------------


@dataclass
class NormalizedFan:
    phi: PartialEdgeColoring
    fan: Multifan
    color_map: dict[int, int]  # old color -> new color


def typical_shape_error(
    g: SimpleGraph, r: int, sequence: Sequence[int]
) -> Optional[str]:
    """Why no coloring takes a fan at r with these spokes to the typical
    form: the center is not light, or a spoke's degree is not maximum
    degree minus one. None when neither holds. It reads no color."""
    prof = degree_profile(g)
    delta = prof.delta
    if r not in light_vertices(g):
        return "center is not light"
    for s in sequence:
        if prof.degrees[s] != delta - 1:
            return (
                f"spoke {s} has degree {prof.degrees[s]}, "
                f"need maximum degree minus one = {delta - 1}"
            )
    return None


def normalize_typical(
    g: SimpleGraph, phi: PartialEdgeColoring, fan: Multifan
) -> NormalizedFan:
    """Relabel colors (a bijection applied to the whole coloring) and
    reorder the spokes so the fan takes the normalized form: 1 missing at
    r, missing(s1) = {2, Delta}, spoke i carrying color i (color Delta at
    the start of the second chain) and missing i+1.

    Deterministic; applying it to an already-normalized fan is the
    identity. Errors when V(F) is not elementary or |missing(s1)| != 2.
    """
    r = fan.center
    s1 = fan.sequence[0]
    k = phi.k
    delta = degree_profile(g).delta
    bad = typical_shape_error(g, r, fan.sequence)
    if bad is not None:
        raise FanError(bad)
    if not phi.is_elementary(fan.vertex_set()):
        raise FanError("fan vertex set is not elementary")
    roots = phi.missing_at(s1)
    if len(roots) != 2:
        raise FanError(f"|missing(s1)| = {len(roots)}, need exactly 2")
    a, b = roots
    # V(F) is elementary, so each color is missing at one fan vertex at
    # most and no spoke is reachable from both roots
    chains = _spoke_roots(g, phi, r, s1, fan.sequence[1:])
    for s in chains[a] + chains[b]:
        n = phi.missing_mask(s).bit_count()
        if n != 1:
            raise FanError(f"spoke {s} misses {n} colors, need 1")
    if len(chains[a]) + len(chains[b]) != len(fan.sequence) - 1:
        raise FanError("spokes not covered by the two root chains")
    # the chain labeled "2" comes first; prefer a nonempty chain, then the
    # lower original root color
    if chains[a] and not chains[b]:
        root2, rootd = a, b
    elif chains[b] and not chains[a]:
        root2, rootd = b, a
    else:
        root2, rootd = min(a, b), max(a, b)
    two_chain = chains[root2]
    delta_chain = chains[rootd]
    new_seq = [s1] + two_chain + delta_chain
    alpha = 1 + len(two_chain)
    beta = len(new_seq)

    cmap: dict[int, int] = {}

    def assign(old: int, new: int):
        if cmap.get(old, new) != new:
            raise FanError("inconsistent color relabeling")
        cmap[old] = new

    assign(min(phi.missing_at(r)), 1)
    assign(root2, 2)
    assign(rootd, delta)
    for pos, s in enumerate(two_chain, start=2):
        assign(phi.missing_at(s)[0], pos + 1)
    for pos, s in enumerate(delta_chain, start=alpha + 1):
        assign(phi.missing_at(s)[0], pos + 1)
    used_new = set(cmap.values())
    free_new = [c for c in range(1, k + 1) if c not in used_new]
    free_old = [c for c in range(1, k + 1) if c not in cmap]
    for old, new in zip(free_old, free_new):
        cmap[old] = new

    colors = [None if c is None else cmap[c] for c in phi.assignment]
    phi2 = PartialEdgeColoring.from_assignment(g, k, colors, uncolored=phi.uncolored)
    at_r = incident(g)[r]
    fan2 = Multifan(
        center=r,
        uncolored_edge=fan.uncolored_edge,
        sequence=tuple(new_seq),
        edge_colors={s: colors[at_r[s]] for s in new_seq[1:]},
        missing={v: phi2.missing_mask(v) for v in [r] + new_seq},
        typical=TypicalForm(alpha, beta, tuple(two_chain), tuple(delta_chain)),
    )
    bad = check_typical(g, phi2, fan2)
    if bad:
        raise FanError(f"normalization failed: {bad}")
    return NormalizedFan(phi2, fan2, cmap)


def check_typical(
    g: SimpleGraph, phi: PartialEdgeColoring, fan: Multifan
) -> list[str]:
    """Violations of the normalized-form invariants; empty when typical."""
    out = []
    t = fan.typical
    if t is None:
        return ["no typical form attached"]
    r = fan.center
    s1 = fan.sequence[0]
    delta = degree_profile(g).delta
    if not phi.misses(r, 1):
        out.append("color 1 not missing at center")
    if phi.missing_at(s1) != (2, delta):
        out.append(f"missing(s1) = {phi.missing_at(s1)} != (2, {delta})")
    seq = fan.sequence
    if seq != (s1,) + t.two_inducing + t.delta_inducing:
        out.append("sequence does not match the chain split")
    for i in range(2, t.beta + 1):
        s = seq[i - 1]
        c = phi.color_of(g.edge_id(r, s))
        want_color = delta if i == t.alpha + 1 else i
        if c != want_color:
            out.append(f"spoke {i} carries color {c}, want {want_color}")
        want_missing = (i + 1,)
        if phi.missing_at(s) != want_missing:
            out.append(f"spoke {i} misses {phi.missing_at(s)}, want {want_missing}")
    return out


def inducing_map(
    g: SimpleGraph, phi: PartialEdgeColoring, fan: Multifan
) -> InducingMap:
    """Tag every missing color of the spokes with its root (2 or Delta) and
    the spoke subsequence that induces it. The two roots tag themselves."""
    t = fan.typical
    if t is None:
        raise FanError("inducing map needs a typical fan")
    if not phi.is_elementary(fan.vertex_set()):
        raise FanError("fan vertex set is not elementary")
    delta = degree_profile(g).delta
    entries: dict[int, tuple[str, tuple[int, ...]]] = {
        2: ("2", ()),
        delta: ("delta", ()),
    }
    for idx, s in enumerate(t.two_inducing):
        seq = t.two_inducing[: idx + 1]
        for c in phi.missing_at(s):
            entries[c] = ("2", seq)
    for idx, s in enumerate(t.delta_inducing):
        seq = t.delta_inducing[: idx + 1]
        for c in phi.missing_at(s):
            entries[c] = ("delta", seq)
    return InducingMap(entries)


# -- maximum multifan --------------------------------------------------------


@dataclass
class MaxFanResult:
    phi: PartialEdgeColoring
    fan: Multifan
    status: str  # "EXACT" | "LOWER-BOUND"
    explored: int


def search_maximum_multifan(
    g: SimpleGraph,
    r: int,
    s1: int,
    mode: str = "exhaustive",
    budget: int = 10_000,
    space: Optional[ColoringSpace] = None,
    *,
    stop_when_spanning: bool = False,
) -> MaxFanResult:
    """Largest |V(F)| over colorings of G - rs1; `budget` bounds the work.

    `space` is the coloring space of G - rs1 at Delta colors, built when
    None. exhaustive: the first largest fan over the first `budget`
    colorings, in enumeration order; EXACT when they are the whole space,
    else LOWER-BOUND. Fans grow only on the first-use normal colorings of
    the orbits that prefix reaches: fan size does not depend on color
    names, and an orbit's least member, its normal coloring, comes first
    in enumeration order, so the first largest fan sits on a normal
    coloring. A space of at most `budget` colorings, counted by orbit
    sums, is the whole of `space.normal()`. reachability: BFS from the
    space's first coloring over single Kempe swaps touching the current
    fan's colors, at most `budget` expansions, states keyed exactly
    (`kempe_bfs`); always LOWER-BOUND. `explored` counts the colorings
    the normal ones stand for (the prefix, or the whole space) or the
    expansions made.

    `stop_when_spanning` ends the reachability search at the first state
    whose fan holds s1 and every neighbor of r below maximum degree, the
    largest fan any coloring grows. States are expanded in the order they
    are generated, so that state is the first one the full search would
    expand with that fan: phi, fan and status are the full search's, and
    only `explored` is smaller.
    """
    if mode not in ("exhaustive", "reachability"):
        raise ValueError(f"unknown mode {mode!r}")
    prof = degree_profile(g)
    k = prof.delta
    if space is None:
        space = ColoringSpace(g, g.edge_id(r, s1), k)
    if mode == "exhaustive":
        cap = max(budget, 0)
        whole = space.size(cap) <= cap
        if whole:
            phis, explored = space.normal(), space.size()
        else:
            _, orbits, _ = space.raw_prefix(cap)
            # each orbit's first member in the prefix is its normal coloring
            firsts = {}
            for i, orbit in enumerate(orbits):
                firsts.setdefault(orbit, i)
            phis = [space.coloring(i) for i in firsts.values()]
            explored = len(orbits)
        if not phis:
            raise FanError("no colorings to search" if whole
                           else f"budget {budget} examines no coloring")
        best_phi = best_fan = None
        for phi in phis:
            fan = grow_multifan(g, phi, r, s1)
            if best_fan is None or fan.size() > best_fan.size():
                best_phi, best_fan = phi, fan
        return MaxFanResult(best_phi, best_fan, "EXACT" if whole else "LOWER-BOUND",
                            explored)
    if not space.raw_prefix(1)[0]:
        raise FanError("no colorings to search")
    phi0 = space.coloring(0)
    best_fan = grow_multifan(g, phi0, r, s1)
    best_phi = phi0
    spanning = 1 + len({s1}.union(
        w for w in g.adjacency[r] if prof.degrees[w] < k))
    if stop_when_spanning and best_fan.size() == spanning:
        return MaxFanResult(phi0, best_fan, "LOWER-BOUND", 0)
    position = 1  # of the next state generated; phi0 is at 0

    def spans(get, *_):
        # the full search expands only the states at positions < budget
        nonlocal best_fan, best_phi, position
        if position >= budget:
            return False
        position += 1
        phi = get()
        fan = grow_multifan(g, phi, r, s1)
        if fan.size() < spanning:
            return False
        best_fan, best_phi = fan, phi
        return True

    def fan_moves(phi):
        nonlocal best_fan, best_phi
        fan = grow_multifan(g, phi, r, s1)
        if fan.size() > best_fan.size():
            best_fan, best_phi = fan, phi
        relevant = 0  # the colors missing on V(F) or on its spoke edges
        for m in fan.missing.values():
            relevant |= m
        for c in fan.edge_colors.values():
            relevant |= 1 << (c - 1)
        pairs = [
            (a, b)
            for a, b in combinations(range(1, k + 1), 2)
            if (relevant >> (a - 1) | relevant >> (b - 1)) & 1
        ]
        return swap_moves(phi, pairs)

    explored = kempe_bfs(phi0, fan_moves, budget,
                         goal=spans if stop_when_spanning else None).expanded
    return MaxFanResult(best_phi, best_fan, "LOWER-BOUND", explored)


# -- stability ----------------------------------------------------------------


def stability_class(
    phi2: PartialEdgeColoring, phi: PartialEdgeColoring, fan: Multifan
) -> str:
    """Strongest stability label of phi2 relative to phi around the fan:
    "F-stable" (missing sets and spoke colors frozen), "V(F)-stable"
    (fan vertex set re-spans a multifan, s1 and r keep their missing sets,
    spoke missing colors preserved as a set), "V(F-r)-stable" (same
    without r's missing set), else "none".
    """
    if phi.graph != phi2.graph:
        raise FanError("colorings live on different graphs")
    if phi.uncolored != phi2.uncolored:
        raise FanError("colorings have different uncolored edges")
    g = phi.graph
    r = fan.center
    seq = fan.sequence
    s1 = seq[0]
    at_r = incident(g)[r]

    f_stable = all(
        phi2.missing_mask(v) == phi.missing_mask(v) for v in fan.vertex_set()
    ) and all(
        phi2.assignment[at_r[s]] == phi.assignment[at_r[s]] for s in seq[1:]
    )
    if f_stable:
        return "F-stable"

    # V(F) still spans a multifan at r under phi2 when s1's missing
    # colors reach every spoke
    spans = {s1}.union(*_spoke_roots(g, phi2, r, s1, seq[1:]).values()) == set(seq)
    s1_same = phi2.missing_mask(s1) == phi.missing_mask(s1)
    union_old = union_new = 0
    for s in seq:
        union_old |= phi.missing_mask(s)
        union_new |= phi2.missing_mask(s)
    if spans and s1_same and union_old == union_new:
        if phi2.missing_mask(r) == phi.missing_mask(r):
            return "V(F)-stable"
        return "V(F-r)-stable"
    return "none"


_STABILITY_RANK = {"F-stable": 3, "V(F)-stable": 2, "V(F-r)-stable": 1, "none": 0}


def at_least_stable(label: str, want: str) -> bool:
    return _STABILITY_RANK[label] >= _STABILITY_RANK[want]


# -- Kierstead paths -----------------------------------------------------------


def grow_kierstead_path(
    g: SimpleGraph,
    phi: PartialEdgeColoring,
    v0: int,
    v1: int,
    max_len: Optional[int] = None,
) -> KiersteadPath:
    """Greedy growth from the uncolored edge v0v1: extend with the
    lowest-colored edge at the tip whose color is missing at a vertex at
    least two steps back. The path is `forced` when every step had one
    eligible edge; a forced growth grows the same path on every color
    renaming of phi, as in `grow_multifan`."""
    e = g.edge_id(v0, v1)
    if phi.uncolored != e:
        raise FanError(f"edge {v0}-{v1} is not the uncolored edge")
    inc = incident(g)
    colors, missing = phi.assignment, phi.missing
    verts = [v0, v1]
    missing_union = missing[v0]  # over every vertex but the tip
    forced = True
    while max_len is None or len(verts) < max_len:
        tip = verts[-1]
        best = None
        for w, ew in inc[tip].items():
            if w in verts:
                continue
            c = colors[ew]
            if c is None:
                continue
            if (missing_union >> (c - 1)) & 1:
                if best is None:
                    best = (c, w)
                else:
                    forced = False
                    if (c, w) < best:
                        best = (c, w)
        if best is None:
            break
        missing_union |= missing[tip]
        verts.append(best[1])
    return KiersteadPath(tuple(verts), e, forced)


def check_kierstead_path(
    g: SimpleGraph, phi: PartialEdgeColoring, kp: KiersteadPath
) -> list[str]:
    """Violations of the Kierstead path conditions; empty list when valid.
    The first pair must be joined by the uncolored edge, each later pair
    by an edge whose color is missing at a vertex at least two steps back."""
    out = []
    verts = kp.vertices
    if len(set(verts)) != len(verts):
        out.append("vertices not distinct")
    if phi.uncolored != kp.uncolored_edge:
        out.append("uncolored edge mismatch")
    inc = incident(g)
    colors, missing = phi.assignment, phi.missing
    if len(verts) < 2 or inc[verts[0]].get(verts[1]) != kp.uncolored_edge:
        out.append("first pair is not the uncolored edge")
    missing_union = 0
    for i in range(2, len(verts)):
        a, b = verts[i - 1], verts[i]
        missing_union |= missing[verts[i - 2]]
        e = inc[a].get(b)
        if e is None:
            out.append(f"{a} and {b} are not adjacent")
            continue
        c = colors[e]
        if c is None:
            out.append(f"edge {a}-{b} uncolored")
            continue
        if not (missing_union >> (c - 1)) & 1:
            out.append(f"color {c} of edge {a}-{b} missing nowhere earlier")
    return out


# -- verifiers -----------------------------------------------------------------


def verify_fan_elementary(
    g: SimpleGraph, phi: PartialEdgeColoring, fan: Multifan
) -> V.Verdict:
    """The fan's vertex set is elementary. Assumes the uncolored edge is
    critical in a class-2 graph; the caller checks that."""
    name = "fan-elementary"
    bad = check_multifan(g, phi, fan)
    if bad:
        return V.failed(name, reason="not a multifan", violations=bad)
    vs = fan.vertex_set()
    if phi.is_elementary(vs):
        return V.passed(name, vertices=list(vs))
    clash = _first_clash(phi, vs)
    return V.failed(name, clash=clash, coloring=phi.to_line())


def _first_clash(phi: PartialEdgeColoring, vs: Sequence[int]):
    for i, u in enumerate(vs):
        for v in vs[i + 1:]:
            inter = phi.missing_mask(u) & phi.missing_mask(v)
            if inter:
                return {
                    "u": u,
                    "v": v,
                    "color": (inter & -inter).bit_length(),
                }
    return None


def verify_fan_linkage(
    g: SimpleGraph, phi: PartialEdgeColoring, fan: Multifan
) -> V.Verdict:
    """Three linkage facts on a multifan: (a) r and each spoke are linked
    in (gamma, delta) for gamma missing at r and delta missing at the
    spoke; (b) spokes whose missing colors hang off different roots are
    linked; (c) when same-root spokes are unlinked, r lies on the later
    spoke's chain. Assumes the uncolored edge is critical in a class-2
    graph; the caller checks that."""
    name = "fan-linkage"
    bad = check_multifan(g, phi, fan)
    if bad:
        return V.failed(name, reason="not a multifan", violations=bad)
    if not phi.is_elementary(fan.vertex_set()):
        return V.failed(name, reason="fan not elementary", clash=_first_clash(phi, fan.vertex_set()))
    r = fan.center
    seq = fan.sequence
    s1 = seq[0]
    checked = {"a": 0, "b": 0, "c": 0}
    for gamma in phi.missing_at(r):
        for s in seq:
            for delta in phi.missing_at(s):
                checked["a"] += 1
                if not are_linked(phi, r, s, gamma, delta):
                    return V.failed(
                        name, part="a", r=r, s=s, colors=[gamma, delta],
                        coloring=phi.to_line(),
                    )
    # a valid multifan has every spoke reached; s1 roots each of its own
    # missing colors
    roots = {s: root for root, spokes in _spoke_roots(g, phi, r, s1, seq[1:]).items()
             for s in spokes}
    for i, si in enumerate(seq):
        for sj in seq[i + 1:]:
            for dcol in phi.missing_at(si):
                ri = roots.get(si, dcol)
                for lcol in phi.missing_at(sj):
                    rj = roots.get(sj, lcol)
                    if ri != rj:
                        checked["b"] += 1
                        if not are_linked(phi, si, sj, dcol, lcol):
                            return V.failed(
                                name, part="b", u=si, v=sj,
                                colors=[dcol, lcol], coloring=phi.to_line(),
                            )
                    else:
                        if not are_linked(phi, si, sj, dcol, lcol):
                            checked["c"] += 1
                            chain = phi.chain_at(sj, dcol, lcol)
                            if r not in chain.vertices:
                                return V.failed(
                                    name, part="c", u=si, v=sj,
                                    colors=[dcol, lcol], coloring=phi.to_line(),
                                )
    return V.passed(name, checked=checked)


def verify_kp_elementary(
    g: SimpleGraph, phi: PartialEdgeColoring, kp: KiersteadPath
) -> V.Verdict:
    """A four-vertex Kierstead path with min(d(v2), d(v3)) < Delta is
    elementary. Assumes the uncolored edge is critical in a class-2 graph;
    the caller checks that."""
    name = "kierstead-elementary"
    if len(kp.vertices) != 4:
        return V.inapplicable(name, f"path has {len(kp.vertices)} vertices, need 4")
    bad = check_kierstead_path(g, phi, kp)
    if bad:
        return V.failed(name, reason="not a Kierstead path", violations=bad)
    prof = degree_profile(g)
    delta = prof.delta
    degs = [prof.degrees[v] for v in kp.vertices]
    # Guaranteed elementary when one of the two middle vertices (the
    # colored endpoint of the working edge and its successor) is below
    # maximum degree. The far end's degree alone does not suffice: graphs
    # exist with d(v1) = d(v2) = Delta, d(v3) < Delta, and a clash.
    if min(degs[1], degs[2]) >= delta:
        return V.inapplicable(
            name, "both middle vertices have maximum degree", degrees=degs
        )
    if phi.is_elementary(kp.vertices):
        return V.passed(name, vertices=list(kp.vertices), degrees=degs)
    return V.failed(
        name,
        clash=_first_clash(phi, kp.vertices),
        degrees=degs,
        coloring=phi.to_line(),
    )


def _stable_swap_cases(g: SimpleGraph, phi: PartialEdgeColoring, fan: Multifan):
    """The swaps of the two stable-swap lemmas as (x, a, b, case): for each
    vertex x outside V(F) and each color gamma missing on V(F), both
    ascending, the pair (1, gamma) ("1-gamma"), then (gamma, Delta) when
    gamma hangs off root 2 ("gamma-Delta") or (2, gamma) when it hangs
    off root Delta ("2-gamma"). A pair is kept when its colors differ and
    x misses one of them. Needs a typical fan."""
    delta = degree_profile(g).delta
    imap = inducing_map(g, phi, fan)
    cases = []
    for gamma in sorted(fan_missing_union(phi, fan)):
        cases.append((1, gamma, "1-gamma"))
        root = None if gamma == 1 else imap.root_of(gamma)
        if root == "2":
            cases.append((gamma, delta, "gamma-Delta"))
        elif root == "delta":
            cases.append((2, gamma, "2-gamma"))
    cases = [(a, b, case, 1 << (a - 1) | 1 << (b - 1)) for a, b, case in cases if a != b]
    vs = set(fan.vertex_set())
    for x in range(g.n):
        if x not in vs:
            for a, b, case, pair in cases:
                if phi.missing[x] & pair:
                    yield x, a, b, case


def verify_stable_swaps(
    g: SimpleGraph, phi: PartialEdgeColoring, fan: Multifan
) -> V.Verdict:
    """Swaps guaranteed to freeze a typical fan: (1,gamma) at any outside
    vertex missing 1 or gamma; (gamma,Delta) when gamma hangs off root 2
    and the chain avoids r; (2,gamma) when gamma hangs off root Delta and
    the chain avoids r. Assumes the uncolored edge is critical in a
    class-2 graph; the caller checks that."""
    name = "stable-swaps"
    if fan.typical is None:
        return V.inapplicable(name, "fan is not typical")
    checked = 0
    for x, a, b, case in _stable_swap_cases(g, phi, fan):
        chain = phi.chain_at(x, a, b)
        if case != "1-gamma" and fan.center in chain.vertices:
            continue
        phi2 = kempe_swap(phi, chain)
        checked += 1
        got = stability_class(phi2, phi, fan)
        if got != "F-stable":
            return V.failed(
                name, x=x, swap=[a, b], case=case, got=got,
                coloring=phi.to_line(),
            )
    return V.passed(name, checked=checked)


def verify_vf_stable_swaps(
    g: SimpleGraph, phi: PartialEdgeColoring, fan: Multifan
) -> V.Verdict:
    """Without the r-avoidance proviso the same root-crossing swaps still
    keep the fan vertex set stable (possibly re-spanned in another order).
    Assumes the uncolored edge is critical in a class-2 graph; the caller
    checks that."""
    name = "vf-stable-swaps"
    if fan.typical is None:
        return V.inapplicable(name, "fan is not typical")
    checked = 0
    for x, a, b, case in _stable_swap_cases(g, phi, fan):
        if case == "1-gamma":
            continue
        phi2 = kempe_swap(phi, phi.chain_at(x, a, b))
        checked += 1
        got = stability_class(phi2, phi, fan)
        if not at_least_stable(got, "V(F)-stable"):
            return V.failed(
                name, x=x, swap=[a, b], got=got, coloring=phi.to_line()
            )
    return V.passed(name, checked=checked)
