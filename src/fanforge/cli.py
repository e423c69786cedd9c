"""Command-line interface: classify, verify, fan, tau, scan.

Machine-readable JSON goes to stdout; human-readable tables go to stderr.
Exit codes: 0 all PASS/INAPPLICABLE, 1 any FAIL, 2 any UNKNOWN or
CONDITIONAL without FAIL (for classify: any chi' undecided within the
budget), 3 operational error (bad input, bad flags).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from .fans import (
    FanError,
    eligible_colors,
    inducing_map,
    normalize_typical,
    search_maximum_multifan,
)
from .graphs import (
    Graph6Error,
    SimpleGraph,
    degree_profile,
    from_graph6,
    graph6_lines,
    is_core_acyclic,
    to_graph6,
)
from .recolor import (
    MaximalityViolation,
    TauError,
    build_tau_sequence,
    shifting_kind,
    verify_rs1_linkage,
)
from .solver import chromatic_index, is_just_overfull, is_overfull, node_budget_default
from .theorems import (
    ScanConfig,
    exit_code,
    normalize_checks,
    scan_corpus,
    summary_tsv,
)

OP_ERROR = 3


def _read_inputs(args) -> list[str]:
    """The input lines as given, blank and header lines included: the
    --input file's, then the inline graphs, else stdin's."""
    lines: list[str] = []
    if args.input:
        with open(args.input) as fh:
            lines.extend(fh.read().splitlines())
    if getattr(args, "graph", None):
        lines.extend(args.graph)
    if not lines and not sys.stdin.isatty():
        lines.extend(sys.stdin.read().splitlines())
    return lines


def _read_graphs(args) -> list[str]:
    """The graph lines of the input, stripped."""
    return [s for _, s in graph6_lines(args.lines)]


def _emit(args, text: str):
    """Write machine output to --output, opened by `main`, or stdout."""
    args.out.write(text)


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one line on stderr and exits with
    OP_ERROR, where argparse would exit with 2 (UNKNOWN)."""

    def error(self, message):
        self.exit(OP_ERROR, f"{self.prog}: error: {message}\n")


def _parse_edge(spec: str) -> tuple[int, int]:
    try:
        a, b = spec.split("-")
        return int(a), int(b)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a u-v vertex pair, got {spec!r}"
        ) from None


def cmd_classify(args) -> int:
    lines = _read_graphs(args)
    if not lines:
        print("no input graphs", file=sys.stderr)
        return OP_ERROR
    rows = []
    for line in lines:
        try:
            g = from_graph6(line)
        except Graph6Error as exc:
            print(f"parse error: {exc}", file=sys.stderr)
            return OP_ERROR
        prof = degree_profile(g)
        acyclic = is_core_acyclic(g)
        row = {
            "graph6": to_graph6(g),
            "n": g.n,
            "m": len(g.edges),
            "delta": prof.delta,
            "core_min_degree": prof.core_min_degree,
            "core_max_degree": prof.core_max_degree,
            "core_acyclic_shortcut": acyclic,
        }
        if len(g.edges) == 0:
            row.update({"chi_prime": 0, "class": "one"})
        else:
            cv = chromatic_index(g, args.budget)
            row.update(
                {
                    "chi_prime": cv.chi_prime,
                    "class": cv.cls,
                    "solver_status": cv.status,
                }
            )
        if g.n >= 2:
            row["overfull"] = is_overfull(g)
            row["just_overfull"] = is_just_overfull(g)
        rows.append(row)
        print(
            f"{row['graph6']}: n={row['n']} m={row['m']} delta={row['delta']} "
            f"chi'={row.get('chi_prime')} class={row.get('class')} "
            f"overfull={row.get('overfull')} just_overfull={row.get('just_overfull')} "
            f"core(min,max)=({row['core_min_degree']},{row['core_max_degree']}) "
            f"core_acyclic_shortcut={'applied' if acyclic else 'not applicable'}",
            file=sys.stderr,
        )
    if args.format == "tsv":
        keys = sorted({k for r in rows for k in r})
        out = ["\t".join(keys)]
        out.extend("\t".join(str(r.get(k, "")) for k in keys) for r in rows)
        _emit(args, "\n".join(out) + "\n")
    else:
        _emit(args, "".join(json.dumps(r, sort_keys=True) + "\n" for r in rows))
    return 2 if any(r.get("solver_status") == "unknown" for r in rows) else 0


def cmd_verify(args) -> int:
    lines = args.lines
    graphs = list(graph6_lines(lines))
    if not graphs:
        print("no input graphs", file=sys.stderr)
        return OP_ERROR
    try:
        checks = normalize_checks(args.checks)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return OP_ERROR
    cfg = ScanConfig(
        checks=checks,
        budget=args.budget,
        fan_budget=args.fan_budget,
    )
    for i, line in graphs:
        try:
            from_graph6(line)
        except Graph6Error as exc:
            print(f"parse error on line {i}: {exc}", file=sys.stderr)
            return OP_ERROR
    reports, summary = scan_corpus(lines, cfg, workers=1)
    _emit(args, "".join(r + "\n" for r in reports))
    print(summary_tsv(summary), file=sys.stderr, end="")
    return exit_code(summary)


def _edge_graph(args) -> Optional[SimpleGraph]:
    """The one input graph of `fan` or `tau`, once it parses and holds
    --edge; else None, with the reason printed."""
    lines = _read_graphs(args)
    if len(lines) != 1:
        print(f"{args.command} expects exactly one graph", file=sys.stderr)
        return None
    try:
        g = from_graph6(lines[0])
    except Graph6Error as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return None
    try:
        g.edge_id(*args.edge)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return None
    return g


def cmd_fan(args) -> int:
    g = _edge_graph(args)
    if g is None:
        return OP_ERROR
    r, s1 = args.edge
    if args.mode == "exhaustive" and g.n >= 10 and not args.force:
        print(
            "exhaustive enumeration on n >= 10 can explode; use --mode "
            "reachability with --fan-budget, or pass --force",
            file=sys.stderr,
        )
        return OP_ERROR
    cv = chromatic_index(g, args.budget)
    if cv.status == "ok" and cv.cls != "two":
        print("warning: graph is class 1; fan lemmas are inapplicable", file=sys.stderr)
    try:
        res = search_maximum_multifan(
            g, r, s1, mode=args.mode, budget=args.fan_budget
        )
    except FanError as exc:
        print(f"cannot search fans: {exc}", file=sys.stderr)
        return OP_ERROR
    out = {
        "graph6": to_graph6(g),
        "edge": [r, s1],
        "status": res.status,
        "explored": res.explored,
        "fan": res.fan.to_json(),
        "coloring": res.phi.to_line(),
    }
    phi, fan = res.phi, res.fan
    out["tau_sequences"] = []
    try:
        nf = normalize_typical(g, phi, fan)
    except FanError as exc:
        out["typical"] = None
        out["note"] = f"not normalizable: {exc}"
    else:
        phi, fan = nf.phi, nf.fan
        out["typical"] = fan.to_json()
        out["typical_coloring"] = phi.to_line()
        out["inducing_map"] = inducing_map(g, phi, fan).to_json()
        # each tau on its own, as `tau` builds them: one that raises is
        # reported and the others are kept
        errors = []
        for tau in eligible_colors(phi, fan):
            try:
                ts = build_tau_sequence(g, phi, fan, tau)
            except (TauError, MaximalityViolation) as exc:
                errors.append({"tau": tau, "error": str(exc)})
                continue
            d = ts.to_json()
            d["shifting"] = shifting_kind(ts, phi)
            out["tau_sequences"].append(d)
        if errors:
            out["tau_errors"] = errors
    out["rs1_linkage"] = verify_rs1_linkage(
        g, phi, fan, maximum_status=res.status
    ).to_json()
    _emit(args, json.dumps(out, sort_keys=True) + "\n")
    print(
        f"fan at {r} from edge {r}-{s1}: |V(F)|={res.fan.size()} ({res.status})",
        file=sys.stderr,
    )
    return 0


def cmd_tau(args) -> int:
    g = _edge_graph(args)
    if g is None:
        return OP_ERROR
    r, s1 = args.edge
    try:
        # tau prints no `explored`, so its search may stop at a spanning fan
        res = search_maximum_multifan(
            g, r, s1, mode=args.mode, budget=args.fan_budget,
            stop_when_spanning=True,
        )
        nf = normalize_typical(g, res.phi, res.fan)
    except FanError as exc:
        print(f"cannot build a normalized fan: {exc}", file=sys.stderr)
        return OP_ERROR
    phi, fan = nf.phi, nf.fan
    if args.color is not None and not 1 <= args.color <= phi.k:
        print(f"--color must be in [1,{phi.k}], got {args.color}", file=sys.stderr)
        return OP_ERROR
    taus = [args.color] if args.color is not None else eligible_colors(phi, fan)
    out = {
        "graph6": to_graph6(g),
        "edge": [r, s1],
        "fan_status": res.status,
        "coloring": phi.to_line(),
        "fan": fan.to_json(),
        "sequences": [],
    }
    for tau in taus:
        entry = {"tau": tau}
        try:
            ts = build_tau_sequence(g, phi, fan, tau)
            entry["sequence"] = ts.to_json()
            entry["shifting"] = shifting_kind(ts, phi)
        except (TauError, MaximalityViolation) as exc:
            entry["error"] = str(exc)
        out["sequences"].append(entry)
    _emit(args, json.dumps(out, sort_keys=True) + "\n")
    return 0


def cmd_scan(args) -> int:
    lines = args.lines
    try:
        checks = normalize_checks(args.checks)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return OP_ERROR
    cfg = ScanConfig(
        checks=checks,
        budget=args.budget,
        fan_budget=args.fan_budget,
    )
    reports, summary = scan_corpus(lines, cfg, workers=args.workers)
    if args.format == "tsv":
        _emit(args, summary_tsv(summary))
    else:
        _emit(args, "".join(r + "\n" for r in reports))
    print(summary_tsv(summary), file=sys.stderr, end="")
    return exit_code(summary)


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="fanforge",
        description="Edge-coloring recoloring machinery with an exact "
        "chromatic-index oracle and structural checkers for small graphs",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, *flags):
        sp.add_argument("graph", nargs="*", help="inline graph6 string(s)")
        sp.add_argument("--input", help="file of graph6 lines")
        sp.add_argument("--output", help="write machine output here instead of stdout")
        if "budget" in flags:
            sp.add_argument(
                "--budget",
                type=int,
                default=node_budget_default(),
                help="solver node budget (env FANFORGE_BUDGET)",
            )
        if "fan-budget" in flags:
            sp.add_argument("--fan-budget", type=int, default=2000,
                            help="coloring enumeration cap / BFS budget for fans")
        if "format" in flags:
            sp.add_argument("--format", choices=["json", "tsv"], default="json")
        if "edge" in flags:
            sp.add_argument("--edge", required=True, type=_parse_edge,
                            help="edge as u-v vertex pair")
            sp.add_argument("--mode", choices=["exhaustive", "reachability"],
                            default="exhaustive")

    sp = sub.add_parser("classify", help="order, size, chi', class, overfullness")
    common(sp, "budget", "format")
    sp.set_defaults(fn=cmd_classify)

    sp = sub.add_parser("verify", help="run checks on each input graph")
    common(sp, "budget", "fan-budget")
    sp.add_argument("--checks", default="graph",
                    help="comma list or groups: all, graph, lemmas, theorems, conjectures")
    sp.set_defaults(fn=cmd_verify)

    sp = sub.add_parser("fan", help="maximum multifan, typical form, tau overview")
    common(sp, "budget", "fan-budget", "edge")
    sp.add_argument("--force", action="store_true",
                    help="allow exhaustive mode on large graphs")
    sp.set_defaults(fn=cmd_fan)

    sp = sub.add_parser("tau", help="tau-sequences at a normalized maximum fan")
    common(sp, "fan-budget", "edge")
    sp.add_argument("--color", type=int, default=None, help="restrict to one color")
    sp.set_defaults(fn=cmd_tau)

    sp = sub.add_parser("scan", help="corpus scan over a graph6 stream")
    common(sp, "budget", "fan-budget", "format")
    sp.add_argument("--checks", default="graph")
    sp.add_argument("--workers", type=int, default=1)
    sp.set_defaults(fn=cmd_scan)
    return p


def _range_error(args) -> Optional[str]:
    """The first numeric flag outside its range, as a one-line message."""
    if getattr(args, "budget", 0) < 0:
        return f"--budget must be >= 0, got {args.budget}"
    if getattr(args, "fan_budget", 1) < 1:
        return f"--fan-budget must be >= 1, got {args.fan_budget}"
    workers = getattr(args, "workers", 1)
    if workers < 1:
        return f"--workers must be >= 1, got {workers}"
    return None


def main(argv: Optional[list[str]] = None) -> int:
    try:
        parser = build_parser()
    except ValueError as exc:  # FANFORGE_BUDGET is not a node budget
        print(exc, file=sys.stderr)
        return OP_ERROR
    args = parser.parse_args(argv)
    bad = _range_error(args)
    if bad is not None:
        print(bad, file=sys.stderr)
        return OP_ERROR
    # the input is read before --output is opened, which may be the same
    # file, and --output is opened before any check runs
    try:
        args.lines = _read_inputs(args)
    except OSError as exc:
        source = f"--input {exc.filename}" if exc.filename else "stdin"
        print(f"cannot read {source}: {exc.strerror or exc}", file=sys.stderr)
        return OP_ERROR
    try:
        args.out = open(args.output, "w") if args.output else sys.stdout
    except OSError as exc:
        print(f"cannot write --output {args.output}: {exc.strerror or exc}",
              file=sys.stderr)
        return OP_ERROR
    try:
        return args.fn(args)
    except BrokenPipeError:
        return 0
    finally:
        if args.output:
            args.out.close()


if __name__ == "__main__":
    sys.exit(main())
