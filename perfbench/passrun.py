"""One pass of one workload in a fresh interpreter; run.py starts these.

    python3 perfbench/passrun.py WORKLOAD SEED SCALE TRACE WORKERS OUT_JSON

Writes the pass's wall time, item latencies, errors, gate facts, peak RSS,
the monotonic time at which set-up ended, and, when traced, the per-layer
aggregates. Spans go to OUT_JSON with the suffix ``.spans.json``.
"""

from __future__ import annotations

import json
import resource
import shutil
import sys
import time
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))


def main(argv: list[str]) -> int:
    name, seed, scale, trace, workers, out = argv
    import workloads as W

    setup, run, *_ = W.WORKLOADS[name]
    state = setup(scale, W.relabel_index(int(seed)), int(workers))
    ready = time.monotonic()

    traced = trace == "1"
    items = W.Items()
    result: dict = {}
    kwargs: dict = {}
    tr = None
    if traced:
        import tracer as TR  # untraced passes skip this import
    if traced and name == "graph-scan-n8":
        # the scan runs in a child CLI process behind the tracer
        trace_dir = Path(out + ".trace")
        shutil.rmtree(trace_dir, ignore_errors=True)
        trace_dir.mkdir()
        kwargs["trace_dir"] = trace_dir
    elif traced:
        import fanforge
        import fanforge.cli  # noqa: F401  (bind every layer before wrapping)
        import fanforge.enumerate_graphs  # noqa: F401

        tr = TR.Tracer().install(fanforge)

    t0 = perf_counter()
    facts = run(state, items, **kwargs)
    wall = perf_counter() - t0

    if tr is not None:
        result["layers"] = TR.layer_metrics(tr.aggregates())
        Path(out + ".spans.json").write_text(json.dumps(tr.spans_json()))
    elif kwargs:
        aggs = [json.loads(p.read_text()) for p in sorted(trace_dir.glob("agg-*.json"))]
        result["layers"] = TR.layer_metrics(TR.merge(aggs))
        spans = trace_dir / "spans.json"
        if spans.exists():
            spans.replace(out + ".spans.json")
        shutil.rmtree(trace_dir)

    rss_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    result.update(
        ready=ready, wall_s=wall, items=items.latencies, errors=items.errors,
        facts=facts, rss_kb=rss_kb,
    )
    Path(out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
