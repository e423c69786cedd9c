"""Fast self-test of the benchmark itself (about 15 s).

    python3 perfbench/selftest.py

Runs every workload at smoke scale, untraced and traced, and checks the
result line against BENCHMARK.json; feeds each gate a tampered pass and
expects it to refuse; and checks that a copy holding only BENCHMARK.json
and perfbench/ (no fanforge sources) exits non-zero without a result.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run as R  # noqa: E402
import tracer as TR  # noqa: E402
import workloads as W  # noqa: E402

SPEC = json.loads((W.ROOT / "BENCHMARK.json").read_text())


def check(cond: bool, what: str):
    if not cond:
        raise SystemExit(f"selftest FAILED: {what}")


def result_line(workload: str, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1",
           "--seconds", "0.1", "--trace", str(trace), "--scale", "smoke"]
    proc = subprocess.run(cmd, stdin=subprocess.DEVNULL, capture_output=True, text=True,
                          timeout=170)
    check(proc.returncode == 0, f"{workload} trace {trace} exited {proc.returncode}:\n{proc.stderr}")
    check("error_share" in proc.stderr, f"{workload}: no error_share in the table")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tamper(name: str, facts: dict) -> dict:
    bad = copy.deepcopy(facts)
    if name == "critical-n9":
        bad["critical"]["7"] += 1
    elif name == "lemma-scan-n7":
        counts = next(iter(bad["per_graph"].values()))
        counts["val"] = {"FAIL": 1}
    elif name == "graph-scan-n8":
        bad["exit"] = 1
    else:
        first = next(iter(bad["per_gadget"].values()))
        first["digest"] = "0" * 16
    return bad


def main() -> int:
    t0 = time.monotonic()
    names = [w["name"] for w in SPEC["workloads"]]
    check(sorted(names) == sorted(W.WORKLOADS), f"workloads {names}")
    check(SPEC["run_seconds"] == W.RUN_SECONDS, f"run_seconds {SPEC['run_seconds']}")
    e2e = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    check(e2e == dict(R.END_TO_END), f"end_to_end metrics {e2e}")
    layers = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    check(layers == dict(TR.per_layer_names()), "per_layer metrics differ from tracer.py")

    ref = R.load_reference()
    for name in names:
        for trace, want in ((0, e2e), (1, layers)):
            res = result_line(name, trace)
            check(set(res) == {"correct", "attempted", "failed", "metrics"}, f"{name}: keys {set(res)}")
            check(res["correct"] and res["failed"] == 0 and res["attempted"] >= 1, f"{name}: {res}")
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            check(got == want, f"{name} trace {trace}: metrics {sorted(got)}")
            if trace == 0:
                check(all(v["value"] > 0 for v in res["metrics"].values()),
                      f"{name}: an end-to-end metric is 0")
        deadline = time.monotonic() + 120
        p = R.run_pass(name, 1, "smoke", 0, 2 if name == "graph-scan-n8" else 1, deadline)
        R.gate(name, "smoke", W.relabel_index(1), p, ref)
        p["facts"] = tamper(name, p["facts"])
        try:
            R.gate(name, "smoke", W.relabel_index(1), p, ref)
        except R.GateError:
            pass
        else:
            check(False, f"{name}: the gate accepted a tampered pass")
        print(f"ok {name}", flush=True)

    bare = W.OUT / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(W.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", names[0], "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, stdin=subprocess.DEVNULL, capture_output=True, text=True, timeout=170,
    )
    shutil.rmtree(bare)
    check(proc.returncode != 0 and not proc.stdout.strip(),
          f"bare copy: exit {proc.returncode}, stdout {proc.stdout!r}")
    print(f"ok bare copy exits {proc.returncode}")
    print(f"selftest passed in {time.monotonic() - t0:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
