"""Record the gates' reference verdicts from the current fanforge code.

    python3 perfbench/record.py [--workers 2]

Writes perfbench/reference.json (lemma-scan verdict counts as digests,
one per graph and relabeling). Run it only on code whose verdicts are
trusted: the gates of every later run compare with these. Lemma-scan and
witness-sweep references are recorded for every relabeling 0..NREL-1 (the
lemma graphs of both scales); critical-n9 and graph-scan-n8 gates do not
depend on the relabeling and use relabeling 0.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing as mp
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import workloads as W  # noqa: E402


def _facts(name: str, scale: str, idx: int) -> dict:
    setup, run, *_ = W.WORKLOADS[name]
    items = W.Items()
    facts = run(setup(scale, idx, 2), items)
    if items.errors:
        raise SystemExit(f"{name} {scale} relabeling {idx}: {items.errors[:3]}")
    return facts


def _lemma_task(idx: int) -> tuple[int, dict]:
    digests = {}
    for scale in W.SCALES:
        per_graph = _facts("lemma-scan-n7", scale, idx)["per_graph"]
        digests.update((key, W.digest(counts)) for key, counts in per_graph.items())
    return idx, digests


def _witness_task(idx: int) -> tuple[int, dict]:
    facts = _facts("witness-sweep", "bench", idx)
    if facts["bad"]:
        raise SystemExit(f"witness-sweep relabeling {idx}: {facts['bad']}")
    return idx, facts["per_gadget"]


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workers", type=int, default=2)
    args = ap.parse_args()
    path = HERE / "reference.json"

    ref: dict = {"critical-n9": {}, "graph-scan-n8": {}}
    for scale in W.SCALES:
        f = _facts("critical-n9", scale, 0)
        ref["critical-n9"][scale] = {k: f[k] for k in ("levels", "candidates", "critical")}
        print("critical-n9", scale, f["critical"], flush=True)
    for scale in W.SCALES:
        ref["graph-scan-n8"][scale] = _facts("graph-scan-n8", scale, 0)["summary"]
    print("graph-scan-n8 done", flush=True)

    with mp.get_context("spawn").Pool(args.workers) as pool:
        ref["witness-sweep"] = {
            str(i): v for i, v in pool.map(_witness_task, range(W.NREL))
        }
        print("witness-sweep done", flush=True)
        ref["lemma-scan-n7"] = {
            str(i): v for i, v in pool.imap_unordered(_lemma_task, range(W.NREL))
        }
    path.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
