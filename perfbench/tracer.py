"""Spans and counters around calls into fanforge's layers.

The benchmark wraps public functions of each fanforge module from the
outside; nothing inside the program changes. A wrapper replaces every
module binding of the function (``chromatic_index`` is bound in
``solver``, ``theorems``, ``cli`` and the package), so calls between
modules are seen too. Each wrapped call is timed on a stack: a layer's
self time is its calls' duration minus the time of the wrapped calls
nested inside them. Coarse boundaries also keep a span record (name,
start, end, parent) in memory; the pass writes them out when it ends.

Pool workers of ``fanforge scan`` are forked after the wrappers are
installed. Each one resets its copy of the state on its first task and
rewrites its aggregates to ``agg-<pid>.json`` after every task, so the
totals survive the pool terminating its workers.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import sys
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter
from typing import Optional

SPAN = "span"  # timed, with a span record
HOT = "hot"  # timed, aggregated only (called too often to keep records)
GEN = "gen"  # generator: each next() is timed as a call of the layer

# layer (module name) -> function or "Class.method" -> kind
LAYERS: dict[str, dict[str, str]] = {
    "enumerate_graphs": {
        "augment_level": SPAN,
        "canonical_cert": HOT,
        "delta_critical_candidate": HOT,
    },
    "solver": {
        "chromatic_index": SPAN,
        "is_delta_critical": SPAN,
        "critical_edges": SPAN,
        "enumerate_colorings": SPAN,
        "iter_colorings": GEN,
        "count_colorings": HOT,
        "is_overfull": HOT,
        "is_just_overfull": HOT,
        "parity_check": HOT,
    },
    "colorings": {
        "kempe_swap": HOT,
        "are_linked": HOT,
        "PartialEdgeColoring.copy": HOT,
        "PartialEdgeColoring.chain_at": HOT,
        "PartialEdgeColoring.chains": HOT,
        "PartialEdgeColoring.stable_hash": HOT,
    },
    "fans": {
        "search_maximum_multifan": SPAN,
        "grow_multifan": HOT,
        "normalize_typical": HOT,
        "grow_kierstead_path": HOT,
        "stability_class": HOT,
        "verify_fan_elementary": HOT,
        "verify_fan_linkage": HOT,
        "verify_kp_elementary": HOT,
        "verify_stable_swaps": HOT,
        "verify_vf_stable_swaps": HOT,
    },
    "recolor": {
        "witness_tau_item": SPAN,
        "shifting_kempe_equivalent": SPAN,
        "build_tau_sequence": HOT,
        "all_tau_sequences": HOT,
        "apply_shifting": HOT,
        "verify_rs1_linkage": HOT,
        "tau_sequence_by_definition": HOT,
        "is_avoiding": HOT,
    },
    "theorems": {
        "scan_corpus": SPAN,
        "run_graph_checks": SPAN,
        "run_lemma_suite": SPAN,
        "grow_pfan": SPAN,
        "check_theorem": SPAN,
        "check_conjecture": SPAN,
        "check_val": SPAN,
        "check_parity": SPAN,
    },
    "graphs": {
        "degree_profile": HOT,
        "light_vertices": HOT,
        "from_graph6": HOT,
        "to_graph6": HOT,
        "from_adj_masks": HOT,
        "delete_edge": HOT,
        "is_core_acyclic": HOT,
    },
    "cli": {
        "main": SPAN,
        "cmd_scan": SPAN,
    },
}

# per-layer metric names, in the order BENCHMARK.json lists them
LAYER_METRICS: dict[str, tuple[tuple[str, str], ...]] = {
    "enumerate_graphs": (
        ("augment_s", "s"), ("children", "count"), ("certs", "count"),
        ("certs_per_s", "1/s"), ("unique_ratio", "ratio"),
        ("candidate_ratio", "ratio"),
    ),
    "solver": (
        ("chi_queries", "count"), ("chi_hit_ratio", "ratio"),
        ("chi_cache_entries", "count"), ("nodes", "count"),
        ("nodes_per_s", "1/s"), ("nodes_per_query_p50", "count"),
        ("nodes_per_query_max", "count"), ("chi_s", "s"),
        ("criticality_s", "s"), ("enum_calls", "count"),
        ("colorings", "count"), ("colorings_per_s", "1/s"),
    ),
    "colorings": (
        ("kempe_swaps", "count"), ("kempe_swaps_per_s", "1/s"),
        ("chain_at_calls", "count"), ("copies", "count"),
        ("stable_hashes", "count"),
    ),
    "fans": (
        ("max_fan_searches", "count"), ("max_fan_s", "s"),
        ("reachability_share", "ratio"), ("bfs_states", "count"),
        ("bfs_states_per_s", "1/s"), ("grow_multifan_calls", "count"),
    ),
    "recolor": (
        ("witness_calls", "count"), ("witness_s", "s"),
        ("witness_unknown_ratio", "ratio"), ("tau_sequences", "count"),
        ("shift_equiv_s", "s"), ("shift_equiv_found", "count"),
    ),
    "theorems": (
        ("lemma_suite_s", "s"), ("pfan_s", "s"), ("theorem_checks_s", "s"),
        ("scan_s", "s"), ("pool_efficiency", "ratio"),
    ),
    "graphs": (("degree_profile_calls", "count"), ("graph6_decodes_per_s", "1/s")),
    "cli": (("startup_s", "s"),),
}


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric as (name, unit), self times and overhead included."""
    out = []
    for layer, metrics in LAYER_METRICS.items():
        out.extend((f"{layer}.{m}", unit) for m, unit in metrics)
        out.append((f"{layer}.self_s", "s"))
    out.append(("trace.overhead_s", "s"))
    return out


class Tracer:
    def __init__(self, dump_dir: Optional[Path] = None):
        self.pid = os.getpid()
        self.dump_dir = dump_dir
        self._reset()

    def _reset(self):
        self.stack: list[list] = []  # [start, child_time, span_id, parent_span_id]
        self.layer_self: dict[str, float] = defaultdict(float)
        self.incl: dict[str, float] = defaultdict(float)  # outermost calls only
        self.active: Counter = Counter()
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()  # counters taken from arguments/results
        self.node_counts: Counter = Counter()  # solver nodes per new query -> queries
        self.chi_keys: set = set()
        self.spans: list[tuple] = []  # (id, parent, name, start, end)

    # -- wrappers ---------------------------------------------------------------

    def _enter(self, name: str, span: bool) -> list:
        parent = self.stack[-1][2] if self.stack else -1
        sid = len(self.spans) if span else parent
        frame = [perf_counter(), 0.0, sid, parent]
        if span:
            self.spans.append(None)  # reserve the id; filled on exit
        self.stack.append(frame)
        self.active[name] += 1
        return frame

    def _exit(self, layer: str, name: str, frame: list, span: bool):
        end = perf_counter()
        self.stack.pop()
        dur = end - frame[0]
        self.layer_self[layer] += dur - frame[1]
        if self.stack:
            self.stack[-1][1] += dur
        self.calls[name] += 1
        self.active[name] -= 1
        if not self.active[name]:
            self.incl[name] += dur
        if span:
            self.spans[frame[2]] = (frame[2], frame[3], name, frame[0], end)

    def wrap(self, layer: str, name: str, fn, kind: str):
        tr = self
        span = kind == SPAN
        observe = _OBSERVERS.get(name)
        task = name == "run_graph_checks"  # one scan task; pool workers flush here

        if kind == GEN:
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                tr.calls[name] += 1
                return tr._timed_gen(layer, name + ".next", fn(*args, **kwargs))

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if task and os.getpid() != tr.pid:
                tr._adopt_child()
            frame = tr._enter(name, span)
            try:
                result = fn(*args, **kwargs)
            finally:
                tr._exit(layer, name, frame, span)
            if observe is not None:
                observe(tr, args, kwargs, result)
            if task and tr.dump_dir and not tr.stack:
                tr.dump(tr.dump_dir / f"agg-{os.getpid()}.json")
            return result

        return wrapper

    def _timed_gen(self, layer: str, name: str, gen):
        while True:
            frame = self._enter(name, False)
            try:
                item = next(gen)
            except StopIteration:
                self._exit(layer, name, frame, False)
                return
            except BaseException:
                self._exit(layer, name, frame, False)
                raise
            self._exit(layer, name, frame, False)
            self.counts["colorings"] += 1
            yield item

    def _adopt_child(self):
        """First task in a forked pool worker: drop the parent's state."""
        self.pid = os.getpid()
        self._reset()

    def install(self, package) -> "Tracer":
        """Replace every binding of the wrapped functions in fanforge.

        A function the program no longer has is skipped, so the traced run
        keeps working when a later change removes or renames one.
        """
        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == package.__name__ or n.startswith(package.__name__ + "."))
        ]
        for layer, funcs in LAYERS.items():
            home = sys.modules[f"{package.__name__}.{layer}"]
            for qual, kind in funcs.items():
                if "." in qual:
                    cls_name, meth = qual.split(".")
                    cls = getattr(home, cls_name, None)
                    fn = vars(cls).get(meth) if cls is not None else None
                    if fn is not None:
                        setattr(cls, meth, self.wrap(layer, qual, fn, kind))
                    continue
                fn = getattr(home, qual, None)
                if fn is None:
                    continue
                wrapped = self.wrap(layer, qual, fn, kind)
                for mod in modules:
                    for attr, val in list(vars(mod).items()):
                        if val is fn:
                            setattr(mod, attr, wrapped)
        return self

    # -- output -------------------------------------------------------------------

    def aggregates(self) -> dict:
        from fanforge import solver

        cache = getattr(solver, "_CHI_CACHE", None)
        return {
            "layer_self": dict(self.layer_self),
            "incl": dict(self.incl),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
            "node_counts": {str(k): v for k, v in self.node_counts.items()},
            "chi_cache_entries": len(cache) if cache is not None else 0,
        }

    def dump(self, path: Path):
        path.write_text(json.dumps(self.aggregates()))

    def spans_json(self) -> list:
        return [s for s in self.spans if s is not None]


# -- counters read from arguments and results ------------------------------------


def _obs_chromatic_index(tr, args, kwargs, verdict):
    g = args[0]
    key = (g.n, g.edges, args[1] if len(args) > 1 else kwargs.get("budget"))
    if key in tr.chi_keys:
        tr.counts["chi_hits"] += 1
        return
    tr.chi_keys.add(key)
    tr.counts["nodes"] += verdict.nodes
    tr.node_counts[verdict.nodes] += 1


def _obs_augment_level(tr, args, kwargs, result):
    parents = args[0] if args else kwargs["parents"]
    if isinstance(parents, (list, tuple)):
        tr.counts["children"] += sum((1 << len(p)) - 1 for p in parents)
    tr.counts["classes_kept"] += len(result)


def _obs_candidate(tr, args, kwargs, result):
    tr.counts["candidates_kept"] += bool(result)


def _obs_max_fan(tr, args, kwargs, result):
    tr.counts["bfs_states"] += result.explored
    mode = args[3] if len(args) > 3 else kwargs.get("mode", "exhaustive")
    tr.counts["reachability_searches"] += mode == "reachability"


def _obs_witness(tr, args, kwargs, result):
    tr.counts["witness_unknown"] += result.status == "UNKNOWN"


def _obs_tau(tr, args, kwargs, result):
    tr.counts["tau_sequences"] += 1


def _obs_shift_equiv(tr, args, kwargs, result):
    tr.counts["shift_equiv_found"] += result[0] is not None


_OBSERVERS = {
    "chromatic_index": _obs_chromatic_index,
    "augment_level": _obs_augment_level,
    "delta_critical_candidate": _obs_candidate,
    "search_maximum_multifan": _obs_max_fan,
    "witness_tau_item": _obs_witness,
    "build_tau_sequence": _obs_tau,
    "shifting_kempe_equivalent": _obs_shift_equiv,
}


def merge(aggs: list[dict]) -> dict:
    """Sum the aggregates of several processes (a scan and its workers)."""
    out: dict = {"layer_self": Counter(), "incl": Counter(), "calls": Counter(),
                 "counts": Counter(), "node_counts": Counter(), "chi_cache_entries": 0}
    for a in aggs:
        for key in ("layer_self", "incl", "calls", "counts", "node_counts"):
            out[key].update(a[key])
        out["chi_cache_entries"] += a["chi_cache_entries"]
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(agg: dict) -> dict[str, float]:
    """Per-layer metrics from one pass's aggregates (harness metrics excluded)."""
    calls, incl, counts = agg["calls"], agg["incl"], agg["counts"]
    c = lambda k: calls.get(k, 0)  # noqa: E731
    t = lambda k: incl.get(k, 0.0)  # noqa: E731
    n = lambda k: counts.get(k, 0)  # noqa: E731
    per_query = sorted(Counter({int(k): v for k, v in agg["node_counts"].items()}).elements())
    enum_s = t("iter_colorings.next")
    m = {
        "enumerate_graphs.augment_s": t("augment_level"),
        "enumerate_graphs.children": n("children"),
        "enumerate_graphs.certs": c("canonical_cert"),
        "enumerate_graphs.certs_per_s": _ratio(c("canonical_cert"), t("augment_level")),
        "enumerate_graphs.unique_ratio": _ratio(n("classes_kept"), c("canonical_cert")),
        "enumerate_graphs.candidate_ratio": _ratio(
            n("candidates_kept"), c("delta_critical_candidate")
        ),
        "solver.chi_queries": c("chromatic_index"),
        "solver.chi_hit_ratio": _ratio(n("chi_hits"), c("chromatic_index")),
        "solver.chi_cache_entries": agg["chi_cache_entries"],
        "solver.nodes": n("nodes"),
        "solver.nodes_per_s": _ratio(n("nodes"), t("chromatic_index")),
        "solver.nodes_per_query_p50": statistics.median(per_query) if per_query else 0,
        "solver.nodes_per_query_max": per_query[-1] if per_query else 0,
        "solver.chi_s": t("chromatic_index"),
        "solver.criticality_s": t("is_delta_critical") + t("critical_edges"),
        "solver.enum_calls": c("iter_colorings"),
        "solver.colorings": n("colorings"),
        "solver.colorings_per_s": _ratio(n("colorings"), enum_s),
        "colorings.kempe_swaps": c("kempe_swap"),
        "colorings.kempe_swaps_per_s": _ratio(c("kempe_swap"), t("kempe_swap")),
        "colorings.chain_at_calls": c("PartialEdgeColoring.chain_at"),
        "colorings.copies": c("PartialEdgeColoring.copy"),
        "colorings.stable_hashes": c("PartialEdgeColoring.stable_hash"),
        "fans.max_fan_searches": c("search_maximum_multifan"),
        "fans.max_fan_s": t("search_maximum_multifan"),
        "fans.reachability_share": _ratio(
            n("reachability_searches"), c("search_maximum_multifan")
        ),
        "fans.bfs_states": n("bfs_states"),
        "fans.bfs_states_per_s": _ratio(n("bfs_states"), t("search_maximum_multifan")),
        "fans.grow_multifan_calls": c("grow_multifan"),
        "recolor.witness_calls": c("witness_tau_item"),
        "recolor.witness_s": t("witness_tau_item"),
        "recolor.witness_unknown_ratio": _ratio(n("witness_unknown"), c("witness_tau_item")),
        "recolor.tau_sequences": n("tau_sequences"),
        "recolor.shift_equiv_s": t("shifting_kempe_equivalent"),
        "recolor.shift_equiv_found": n("shift_equiv_found"),
        "theorems.lemma_suite_s": t("run_lemma_suite"),
        "theorems.pfan_s": t("grow_pfan"),
        "theorems.theorem_checks_s": t("check_theorem"),
        "theorems.scan_s": t("scan_corpus"),
        "graphs.degree_profile_calls": c("degree_profile"),
        "graphs.graph6_decodes_per_s": _ratio(c("from_graph6"), t("from_graph6")),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = agg["layer_self"].get(layer, 0.0)
    return m
