"""``fanforge`` CLI with the benchmark's tracer installed.

    python3 perfbench/tracedcli.py TRACE_DIR scan ...

Runs ``fanforge.cli.main`` on the remaining arguments. The main process
writes its aggregates to TRACE_DIR/agg-<pid>.json and its spans to
TRACE_DIR/spans.json; forked pool workers write their own aggregates.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import fanforge  # noqa: E402
import fanforge.cli  # noqa: E402
import fanforge.enumerate_graphs  # noqa: E402,F401

from tracer import Tracer  # noqa: E402


def main() -> int:
    trace_dir = Path(sys.argv[1])
    tr = Tracer(dump_dir=trace_dir).install(fanforge)
    rc = fanforge.cli.main(sys.argv[2:])
    tr.dump(trace_dir / f"agg-{os.getpid()}.json")
    (trace_dir / "spans.json").write_text(json.dumps(tr.spans_json()))
    return rc


if __name__ == "__main__":
    sys.exit(main())
