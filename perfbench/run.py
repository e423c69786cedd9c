"""fanforge benchmark: one workload, timed in fresh interpreters, gated.

    python3 perfbench/run.py --workload critical-n9 --seed 0 --seconds 25 --trace 0

Workloads: critical-n9, lemma-scan-n7, graph-scan-n8, witness-sweep (see
workloads.py and BENCHMARK.json). Each pass is a fresh interpreter with a
cold chi' cache; a run makes a fixed number of passes, the workload's
count scaled by --seconds (workloads.pass_count). Every pass is
checked against the correctness gates (reference.json); a failed gate
ends the run with exit code 1.

--trace 0 reports the end-to-end metrics: wall_s (pass time), item_p50_ms
and item_tail_ms (per-item latency), each from the fastest of the passes
step by step (see end_to_end), and setup_s (spawn to inputs ready) and
peak_rss_mb, medians over the passes.
--trace 1 runs one untraced pass, then traced passes, and reports the
per-layer metrics of tracer.py plus trace.overhead_s; for graph-scan-n8
it adds a 1-worker pass (theorems.pool_efficiency) and three scans of an
empty input (cli.startup_s).

A table with the machine facts goes to stderr; a record of the run goes to
perfbench/out/; the last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads as W  # noqa: E402  (imports no fanforge code at module level)

RUN_LIMIT_S = 170  # every run ends within this many seconds


class GateError(Exception):
    pass


def machine_facts(seed: int) -> dict:
    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "commit": git_commit(),
        "seed": seed,
        "relabeling": W.relabel_index(seed),
    }


def git_commit():
    """HEAD of the checkout; None outside a git repository or without git."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=W.ROOT, capture_output=True,
                              text=True, stdin=subprocess.DEVNULL, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def run_pass(name, seed, scale, trace, workers, deadline) -> dict:
    W.OUT.mkdir(exist_ok=True)
    out = W.OUT / f"pass-{os.getpid()}.json"
    cmd = [sys.executable, str(HERE / "passrun.py"), name, str(seed), scale,
           str(trace), str(workers), str(out)]
    spawn = time.monotonic()
    # a session of its own, so that a pass that overruns is killed together
    # with the CLI and pool workers it started
    proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        _, stderr = proc.communicate(timeout=max(5.0, deadline - spawn))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise GateError(f"a {name} pass did not finish before the run's time limit")
    if proc.returncode != 0:
        raise GateError(f"a {name} pass failed (exit {proc.returncode}):\n{stderr[-3000:]}")
    res = json.loads(out.read_text())
    out.unlink()
    spans = Path(f"{out}.spans.json")
    if spans.exists():
        spans.replace(W.OUT / f"spans-{name}-seed{seed}.json")
    res["setup_s"] = res["ready"] - spawn
    return res


# -- gates ---------------------------------------------------------------------------


def load_reference() -> dict:
    return json.loads((HERE / "reference.json").read_text())


def gate(name: str, scale: str, idx: int, res: dict, ref: dict) -> None:
    """Raise GateError unless the pass produced exactly the reference verdicts."""
    problems = [f"item error: {e}" for e in res["errors"][:5]]
    facts = res["facts"]
    if name == "critical-n9":
        want = ref["critical-n9"][scale]
        for key in ("levels", "candidates", "critical"):
            if facts[key] != want[key]:
                problems.append(f"{key} {facts[key]} != reference {want[key]}")
        if any(int(n) % 2 == 0 for n in facts["critical"]):
            problems.append(f"edge-critical graph of even order: {facts['critical']}")
        for tname, counts in facts["theorems"].items():
            if counts.get("FAIL"):
                problems.append(f"theorem {tname}: {counts['FAIL']} FAIL")
        if facts["s1_instances"] < 1:
            problems.append("no non-vacuous s1-adj instance")
    elif name == "lemma-scan-n7":
        want = ref["lemma-scan-n7"].get(str(idx), {})
        for key, counts in facts["per_graph"].items():
            if key not in want:
                problems.append(f"{key}: no reference for relabeling {idx}")
            elif W.digest(counts) != want[key]:
                problems.append(f"{key}: verdicts {counts} differ from the reference")
            for check, by_status in counts.items():
                if by_status.get("FAIL"):
                    problems.append(f"{key}: {check} FAIL")
    elif name == "graph-scan-n8":
        want = ref["graph-scan-n8"][scale]
        if facts["exit"] != 0:
            problems.append(f"fanforge scan exited {facts['exit']}")
        if facts["lines"] != facts["expected"]:
            problems.append(f"{facts['lines']} report lines, expected {facts['expected']}")
        if facts["summary"] != want:
            problems.append(f"verdict summary {facts['summary']} != reference {want}")
    elif name == "witness-sweep":
        want = ref["witness-sweep"].get(str(idx))
        if want is None:
            problems.append(f"no reference for relabeling {idx}")
        else:
            for key, got in facts["per_gadget"].items():
                if got != want.get(key):
                    problems.append(f"gadget {key}: {got} != reference {want.get(key)}")
                if got["counts"].get("FAIL"):
                    problems.append(f"gadget {key}: FAIL verdict")
        problems.extend(facts["bad"])
        if scale != "smoke" and facts["exhausted_searches"] < 1:
            problems.append("no witness search exhausted its budget")
    if problems:
        raise GateError(f"{name} (scale {scale}, relabeling {idx}):\n  " + "\n  ".join(problems))


# -- metrics -------------------------------------------------------------------------


def percentile(values: list[float], p: int) -> float:
    """Nearest-rank percentile."""
    s = sorted(values)
    rank = max(1, -(-len(s) * p // 100))  # ceil(len * p / 100)
    return s[int(rank) - 1]


END_TO_END = (("wall_s", "s"), ("item_p50_ms", "ms"), ("item_tail_ms", "ms"),
              ("setup_s", "s"), ("peak_rss_mb", "MB"))


def end_to_end(passes: list[dict], tail) -> dict:
    """Interference-free estimates from the run's identical passes.

    Every pass does the same deterministic work on the same inputs, and
    other load on the machine only ever adds time. So each item's latency
    is its fastest over the passes, and wall_s is the sum of those plus the
    fastest time of the work between items (enumeration, normalization,
    checks). On a shared 2-core machine whose speed swings by up to 1.7x
    for seconds at a time, this spreads far less than pass medians do.
    """
    lat = [min(col) for col in zip(*(p["items"] for p in passes))]
    between = min(p["wall_s"] - sum(p["items"]) for p in passes)
    return {
        "wall_s": sum(lat) + between,
        "item_p50_ms": 1000 * statistics.median(lat),
        "item_tail_ms": 1000 * percentile(lat, tail),
        "setup_s": statistics.median(p["setup_s"] for p in passes),
        "peak_rss_mb": statistics.median(p["rss_kb"] for p in passes) / 1024,
    }


def cli_startup(runs: int = 3) -> float:
    """Median time of ``fanforge scan`` on an empty input."""
    empty = W.OUT / f"empty-{os.getpid()}.g6"
    empty.write_text("")
    times = []
    for _ in range(runs):
        t0 = time.perf_counter()
        # stdin closed: given an empty --input, the CLI falls back to reading stdin
        subprocess.run(W.scan_command(empty, os.devnull, 1), env=W.cli_env(),
                       stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                       stderr=subprocess.DEVNULL, check=True, timeout=60)
        times.append(time.perf_counter() - t0)
    empty.unlink()
    return statistics.median(times)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(W.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=W.SCALES, default="bench")
    args = ap.parse_args(argv)

    if not (W.SRC / "fanforge" / "__init__.py").is_file():
        print(f"fanforge sources not found under {W.SRC}", file=sys.stderr)
        return 2
    name, scale, seed = args.workload, args.scale, args.seed
    idx = W.relabel_index(seed)
    tail = W.WORKLOADS[name][2]
    n_passes = W.pass_count(name, args.seconds)
    workers = 2 if name == "graph-scan-n8" else 1
    facts = machine_facts(seed)
    ref = load_reference()
    deadline = time.monotonic() + RUN_LIMIT_S

    def one(trace, n_workers=workers):
        res = run_pass(name, seed, scale, trace, n_workers, deadline)
        gate(name, scale, idx, res, ref)
        return res

    try:
        baseline = one(0) if args.trace else None
        passes = [one(args.trace) for _ in range(n_passes)]
        extra = {}
        if args.trace and name == "graph-scan-n8":
            extra["one_worker_wall_s"] = one(0, 1)["wall_s"]
            extra["startup_s"] = cli_startup()
    except GateError as exc:
        print(f"GATE FAILED: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1

    attempted = sum(len(p["items"]) for p in passes)
    failed = sum(len(p["errors"]) for p in passes)
    if args.trace:
        import tracer as TR

        units = dict(TR.per_layer_names())
        layers = {k: statistics.median(p["layers"][k] for p in passes)
                  for k in passes[0]["layers"]}
        layers["theorems.pool_efficiency"] = (
            extra["one_worker_wall_s"] / (2 * baseline["wall_s"]) if extra else 0.0
        )
        layers["cli.startup_s"] = extra.get("startup_s", 0.0)
        layers["trace.overhead_s"] = (
            statistics.median(p["wall_s"] for p in passes) - baseline["wall_s"]
        )
        metrics = {k: {"value": layers[k], "unit": u} for k, u in units.items()}
    else:
        values = end_to_end(passes, tail)
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END}

    print_table(name, scale, facts, passes, metrics, attempted, failed, tail, args.trace)
    record = {"workload": name, "scale": scale, "trace": args.trace, "machine": facts,
              "metrics": metrics, "attempted": attempted, "failed": failed,
              "passes": [{k: p[k] for k in ("wall_s", "setup_s", "rss_kb", "items", "facts")}
                         for p in passes]}
    W.OUT.mkdir(exist_ok=True)
    (W.OUT / f"result-{name}-seed{seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


def print_table(name, scale, facts, passes, metrics, attempted, failed, tail, trace):
    err = sys.stderr
    print(f"fanforge benchmark: {name} (scale {scale}), seed {facts['seed']} "
          f"(relabeling {facts['relabeling']}), trace {trace}", file=err)
    print(f"machine: nproc={facts['nproc']} cpu={facts['cpu_model']!r} "
          f"python={facts['python']} commit={facts['commit']}", file=err)
    walls = [p["wall_s"] for p in passes]
    setups = [p["setup_s"] for p in passes]
    print(f"passes: {len(passes)}; wall_s median {statistics.median(walls):.4f} max "
          f"{max(walls):.4f}; setup_s median {statistics.median(setups):.4f} max "
          f"{max(setups):.4f}", file=err)
    if not trace:
        print(f"item tail percentile: {tail}", file=err)
    for k, m in metrics.items():
        print(f"  {k:40s} {m['value']:16.6g} {m['unit']}", file=err)
    print(f"  {'error_share':40s} {failed / max(attempted, 1):16.6g} ratio "
          f"({failed} of {attempted} items)", file=err)


if __name__ == "__main__":
    sys.exit(main())
