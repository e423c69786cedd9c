import hashlib
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from fanforge.graphs import complete, cycle, delete_vertex, path, petersen, to_graph6
from fanforge.theorems import ScanConfig, scan_corpus

SRC = str(Path(__file__).resolve().parent.parent / "src")


def run_cli(*args, stdin=None, env_extra=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "fanforge", *args],
        capture_output=True,
        text=True,
        input=stdin,
        env=env,
    )


C5 = to_graph6(cycle(5))
C4 = to_graph6(cycle(4))
PET = to_graph6(petersen())
PM = to_graph6(delete_vertex(petersen(), 0))


def test_classify_c5():
    r = run_cli("classify", C5)
    assert r.returncode == 0
    row = json.loads(r.stdout)
    assert row["class"] == "two"
    assert row["overfull"] and row["just_overfull"]
    assert row["chi_prime"] == 3
    assert "core_acyclic_shortcut" in row
    assert "class=two" in r.stderr


def test_classify_c4_class_one():
    row = json.loads(run_cli("classify", C4).stdout)
    assert row["class"] == "one" and row["chi_prime"] == 2


def test_classify_petersen():
    row = json.loads(run_cli("classify", PET).stdout)
    assert row["class"] == "two" and row["chi_prime"] == 4
    assert not row["overfull"]


def test_classify_exits_2_when_chi_prime_is_undecided():
    r = run_cli("classify", "--budget", "3", PET)
    assert r.returncode == 2
    row = json.loads(r.stdout)
    assert row["solver_status"] == "unknown" and row["chi_prime"] is None
    assert "chi'=None" in r.stderr


def test_classify_parse_failure_exit_3():
    r = run_cli("classify", "!!nope!!")
    assert r.returncode == 3


@pytest.mark.parametrize("args", [("classify",), ("verify", "--checks", "val")])
def test_order_zero_graph6_exits_3_with_one_line(args):
    # "?" is the graph6 line of the order-0 graph, which has no encoding back
    r = run_cli(*args, "?")
    assert r.returncode == 3
    assert r.stdout == ""
    assert r.stderr.count("\n") == 1 and "order 0" in r.stderr


def test_scan_reports_order_zero_line_and_goes_on(tmp_path):
    inp = tmp_path / "in.g6"
    inp.write_text("?\n" + C5 + "\n")
    r = run_cli("scan", "--checks", "val", "--input", str(inp))
    assert r.returncode == 3
    bad, good = (json.loads(line) for line in r.stdout.splitlines())
    assert bad["line_no"] == 0 and bad["graph6"] == "?"
    assert "order 0" in bad["error"] and bad["checks"] == {}
    assert good["line_no"] == 1 and good["error"] is None
    assert good["checks"]["val"][0]["status"] == "PASS"
    assert "Traceback" not in r.stderr


def test_line_numbers_are_file_lines(tmp_path):
    # the bad graph is on the file's third line, after a blank one
    inp = tmp_path / "in.g6"
    inp.write_text(C5 + "\n\nDh!\n")
    v = run_cli("verify", "--checks", "val", "--input", str(inp))
    assert v.returncode == 3 and v.stdout == ""
    assert v.stderr.startswith("parse error on line 2: ")
    s = run_cli("scan", "--checks", "val", "--input", str(inp))
    assert s.returncode == 3
    good, bad = (json.loads(line) for line in s.stdout.splitlines())
    assert (good["line_no"], good["graph6"], good["error"]) == (0, C5, None)
    assert (bad["line_no"], bad["graph6"]) == (2, "Dh!") and bad["error"]
    reports, _ = scan_corpus(inp.read_text().splitlines(), ScanConfig(checks=("val",)))
    assert reports == s.stdout.splitlines()


def test_header_line_is_numbered_but_not_a_graph():
    inp = ">>graph6<<\n" + C5 + "\n"
    v = run_cli("verify", "--checks", "val", stdin=inp)
    s = run_cli("scan", "--checks", "val", stdin=inp)
    assert v.returncode == s.returncode == 0
    assert v.stdout == s.stdout
    (rep,) = [json.loads(line) for line in s.stdout.splitlines()]
    assert rep["line_no"] == 1 and rep["graph6"] == C5


def test_classify_tsv_format():
    r = run_cli("classify", "--format", "tsv", C5)
    head, row = r.stdout.strip().split("\n")
    assert "chi_prime" in head.split("\t")


def test_verify_val_pass_exit_zero():
    r = run_cli("verify", "--checks", "val", C5)
    assert r.returncode == 0
    rep = json.loads(r.stdout)
    assert rep["checks"]["val"][0]["status"] == "PASS"


def test_verify_main_inapplicable_on_class_one():
    r = run_cli("verify", "--checks", "main", C4)
    assert r.returncode == 0
    rep = json.loads(r.stdout)
    assert rep["checks"]["main"][0]["status"] == "INAPPLICABLE"


def test_verify_malformed_exit_3():
    r = run_cli("verify", "--checks", "all", "zz!!")
    assert r.returncode == 3


def test_verify_unknown_budget_exit_2():
    r = run_cli("verify", "--checks", "val", "--budget", "3", PET)
    assert r.returncode == 2


def test_fan_c5_fixture():
    r = run_cli("fan", "--edge", "0-1", C5)
    assert r.returncode == 0
    out = json.loads(r.stdout)
    assert out["status"] == "EXACT"
    assert len(out["fan"]["sequence"]) == 1
    assert out["tau_sequences"] == []
    assert out["rs1_linkage"]["status"] == "PASS"


def test_fan_bad_edge_exit_3():
    assert run_cli("fan", "--edge", "0-3", C5).returncode == 3
    assert run_cli("fan", "--edge", "zz", C5).returncode == 3


def test_fan_exhaustive_guard_on_large_graphs():
    r = run_cli("fan", "--edge", "0-1", PET)
    assert r.returncode == 3
    assert "force" in r.stderr
    # Petersen's edges are not critical: no working colorings exist at all
    r2 = run_cli("fan", "--edge", "0-1", "--mode", "reachability",
                 "--fan-budget", "50", PET)
    assert r2.returncode == 3
    assert "cannot search fans" in r2.stderr
    # a critical 9-vertex graph works in reachability mode
    r3 = run_cli("fan", "--edge", "0-4", "--mode", "reachability",
                 "--fan-budget", "30", PM)
    assert r3.returncode == 0
    assert json.loads(r3.stdout)["status"] == "LOWER-BOUND"


def test_fan_deterministic_repeat():
    a = run_cli("fan", "--edge", "0-4", PM).stdout
    b = run_cli("fan", "--edge", "0-4", PM).stdout
    assert a == b
    out = json.loads(a)
    assert out["typical"] is not None


def test_fan_keeps_the_tau_sequences_that_build():
    # E}zw, edge 5-2 at fan budget 5: the fan normalizes, and of its
    # eligible colors tau = 3 raises while tau = 4 builds; fan reports
    # both, as tau does
    args = ("--edge", "5-2", "--fan-budget", "5", "E}zw")
    out = json.loads(run_cli("fan", *args).stdout)
    tau = json.loads(run_cli("tau", *args).stdout)
    assert out["typical"] is not None and "note" not in out
    assert out["typical_coloring"] == tau["coloring"]
    assert out["tau_errors"] == [{"tau": 3, "error": "sequence member 3 misses 2 colors"}]
    assert out["tau_errors"] == [e for e in tau["sequences"] if "error" in e]
    assert [(d["tau"], d["type"], d["shifting"]) for d in out["tau_sequences"]] == [(4, "B", "B")]
    assert out["tau_sequences"] == [
        dict(e["sequence"], shifting=e["shifting"]) for e in tau["sequences"] if "sequence" in e
    ]


def test_tau_command():
    r = run_cli("tau", "--edge", "0-4", PM)
    assert r.returncode == 0
    out = json.loads(r.stdout)
    assert out["sequences"] == []  # every color is on the fan here


def test_scan_stdin_and_summary(tmp_path):
    inp = f"{C5}\n{C4}\n"
    r = run_cli("scan", "--checks", "val,parity", stdin=inp)
    assert r.returncode == 0
    lines = [json.loads(l) for l in r.stdout.strip().split("\n")]
    assert len(lines) == 2
    assert "check\tPASS" in r.stderr


def test_scan_output_file_and_tsv(tmp_path):
    out = tmp_path / "reports.jsonl"
    r = run_cli(
        "scan", "--checks", "val", "--output", str(out), C5, C4
    )
    assert r.returncode == 0
    assert len(out.read_text().strip().split("\n")) == 2
    r2 = run_cli("scan", "--checks", "val", "--format", "tsv", C5)
    assert r2.stdout.startswith("check\t")


def test_scan_workers_deterministic(tmp_path):
    inp = "\n".join([C5, C4, PM, PET]) + "\n"
    a = run_cli("scan", "--checks", "val,parity", "--workers", "1", stdin=inp)
    b = run_cli("scan", "--checks", "val,parity", "--workers", "4", stdin=inp)
    assert a.stdout == b.stdout


K11 = to_graph6(complete(11))
# the line `scan` printed for K11 before both commands shared one encoder:
# parity counts keyed by color as JSON strings, so "10" sorts before "2"
K11_PARITY_LINE = (
    '{"checks": {"parity": [{"check": "parity", "detail": {"chi_prime": 11, '
    '"counts": {"1": 1, "10": 1, "11": 1, "2": 1, "3": 1, "4": 1, "5": 1, '
    '"6": 1, "7": 1, "8": 1, "9": 1}}, "status": "PASS"}]}, "error": null, '
    '"graph6": "J~~~~~~~~~_", "line_no": 0, "meta": {"chi_prime": 11, '
    '"class": "two", "connected": true, "core_acyclic": false, '
    '"core_max_degree": 10, "core_min_degree": 10, "delta": 10, '
    '"just_overfull": false, "m": 55, "n": 11, "overfull": true}}\n'
)


def test_verify_and_scan_print_the_same_k11_parity_line():
    v = run_cli("verify", "--checks", "parity", K11)
    s = run_cli("scan", "--checks", "parity", K11)
    assert v.returncode == s.returncode == 0
    assert v.stdout == s.stdout == K11_PARITY_LINE


def test_verify_and_scan_print_identical_reports():
    inp = "\n".join([C5, C4, PM, PET]) + "\n"
    v = run_cli("verify", "--checks", "graph", stdin=inp)
    s = run_cli("scan", "--checks", "graph", "--workers", "2", stdin=inp)
    assert v.returncode == s.returncode
    assert v.stdout == s.stdout and v.stdout.count("\n") == 4
    assert v.stderr == s.stderr


def _assert_range_error(r, flag):
    assert r.returncode == 3
    assert r.stdout == ""
    assert r.stderr.count("\n") == 1 and flag in r.stderr


def test_verify_rejects_nonpositive_fan_budget():
    r = run_cli("verify", "--checks", "all", "--fan-budget", "-1", C5)
    _assert_range_error(r, "--fan-budget")


@pytest.mark.parametrize("color", ["0", "4"])
def test_tau_rejects_a_color_outside_the_palette(color):
    # PM is cubic, so the palette is 1..3
    r = run_cli("tau", "--edge", "0-4", "--color", color, PM)
    _assert_range_error(r, "--color")


def test_scan_rejects_zero_workers():
    _assert_range_error(run_cli("scan", "--workers", "0", C5), "--workers")


def test_classify_rejects_negative_budget():
    _assert_range_error(run_cli("classify", "--budget", "-5", C5), "--budget")


def test_fan_rejects_nonpositive_fan_budget():
    r = run_cli("fan", "--edge", "0-1", "--fan-budget", "-3", C5)
    _assert_range_error(r, "--fan-budget")


@pytest.mark.parametrize("args,flag", [
    (("verify", "--bogus", C5), "--bogus"),
    (("verify", "--budget", "abc", C5), "--budget"),
    (("fan", "--edge", "zz", C5), "--edge"),
    (("tau", "--edge", "0-x", C5), "--edge"),
    # flags that did nothing on these commands are gone
    (("verify", "--format", "json", C5), "--format"),
    (("tau", "--edge", "0-1", "--budget", "5", C5), "--budget"),
    (("classify", "--fan-budget", "5", C5), "--fan-budget"),
])
def test_usage_error_exits_3_with_one_line(args, flag):
    _assert_range_error(run_cli(*args), flag)


def test_scan_to_a_missing_directory_exits_3_before_any_check(tmp_path):
    # one line and no summary table: --output is opened before the scan
    r = run_cli("scan", "--checks", "all", "--output",
                str(tmp_path / "no" / "such" / "x.jsonl"), PM)
    _assert_range_error(r, "--output")


@pytest.mark.parametrize("kind", ["missing", "directory"])
def test_verify_unreadable_input_exits_3_with_one_line(tmp_path, kind):
    source = tmp_path / "no-such-file" if kind == "missing" else tmp_path
    _assert_range_error(run_cli("verify", "--input", str(source)), "--input")


@pytest.mark.parametrize("command", ["verify", "scan"])
def test_empty_check_selection_exits_3_with_one_line(command):
    _assert_range_error(run_cli(command, "--checks", ",", C5), "no check selected")


def test_exhausted_budget_exits_2_without_report_errors():
    data = Path(__file__).resolve().parent.parent / "perfbench" / "data" / "class2_n7.g6"
    r = run_cli("verify", "--checks", "val,s1-adj", "--budget", "20", "--input", str(data))
    assert r.returncode == 2
    reports = [json.loads(line) for line in r.stdout.splitlines()]
    assert len(reports) == 40
    assert all(rep["error"] is None for rep in reports)


def test_verify_k11_finishes_with_every_edge_noncritical():
    r = run_cli("verify", "--checks", "val,longk2,main,conj-overfull", to_graph6(complete(11)))
    assert r.returncode == 0
    (rep,) = [json.loads(line) for line in r.stdout.splitlines()]
    assert rep["checks"]["val"] == [
        {"check": "val", "status": "PASS", "detail": {"checked": 0, "critical_edges": 0}}
    ]


def test_classify_deep_path():
    r = run_cli("classify", to_graph6(path(1201)))
    assert r.returncode == 0, r.stderr[-500:]
    assert json.loads(r.stdout)["chi_prime"] == 2


def test_env_budget_respected():
    r = run_cli(
        "verify", "--checks", "parity", PET,
        env_extra={"FANFORGE_BUDGET": "3"},
    )
    assert r.returncode == 2  # budget too small: UNKNOWN without FAIL


@pytest.mark.parametrize("value", ["1e6", "-4", "lots"])
def test_bad_env_budget_is_an_op_error(value):
    r = run_cli("classify", "Dv{", env_extra={"FANFORGE_BUDGET": value})
    _assert_range_error(r, "FANFORGE_BUDGET")
    assert "--budget" not in r.stderr


# The exit code and the SHA-256 digests of stdout and stderr of eight
# commands, pinned so that a change meant to keep every byte shows that it
# does. The first verify run covers the reachability search and
# CONDITIONAL verdicts; the second tau run a reachability search that
# stops at a spanning fan; the last two verify runs the node budget of the
# criticality searches.
BYTE_GUARD = [
    (
        ("verify", "--checks", "all", "Du[", "Ecto", "F@de?", "Funjw"),
        2,
        "fd2f95231bd94103cdb45181dee8d35f913e51fc53791d1d63f4dff536e0a251",
        "9ecc860a73dc5f19a2b5b552552ad48d8419761110ed94a746cfc7173cf8e768",
    ),
    (
        ("fan", "--edge", "0-4", "--mode", "reachability", "--fan-budget", "500", "HHcEDGU"),
        0,
        "6a11ef7521cc9beec410b130303896af342c5526fd2b503f976b5c8bfcf53fc7",
        "ba4b0fec52f8cf976a506f7fbc13662a4eca370713b8f89a71fd8ebe4761838c",
    ),
    (
        ("tau", "--edge", "0-4", "HHcEDGU", "--color", "3"),
        0,
        "9732d3a44fed41865d1227ad7ba35c94975a61ab9b627f1bbdae67adf5b4a374",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    (
        ("tau", "--edge", "0-3", "--mode", "reachability", "F}qzw"),
        0,
        "9369741520a87942690f54a67d89eaacc91910a986c6c18484c2813f0d75bd02",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    (
        # an exhaustive fan whose budget is below the space size
        ("fan", "--edge", "0-1", "--fan-budget", "7", "Funjw"),
        0,
        "654ace19834b39d940aa9b085d2b34006077f42d70d3430917b78160fdb78da2",
        "6bdea2c15b66af583d71612564a57eafce4ce3a7629972d7104339f30006e8e2",
    ),
    (
        ("classify", "Dhc"),
        0,
        "262e638903bf45d45457720e75d5fb79e864e04cf9f4582079b14f25e8817e5a",
        "6f82947c9e5f05b3b3c37e651b2b67f2ba105c15fdefefe0fd876acad663be53",
    ),
    (
        # the criticality budget boundary: chi' takes 10 nodes and a
        # G - e search runs out at 11, so val and main are UNKNOWN ...
        ("verify", "--checks", "val,main,s1-adj", "--budget", "11", "FDhm_"),
        2,
        "39f940e4328cf7471dc9edc3f47b12f710521ca16512821eb81c1e454f0b8bcd",
        "18ef9d9bfe5bb945de871cf6770b4537d786dcd4af235111543c3f933245b45a",
    ),
    (
        # ... and at 12 every search is decided
        ("verify", "--checks", "val,main,s1-adj", "--budget", "12", "FDhm_"),
        0,
        "3cb38baf3de784dbe2dc337e595e0867a85922baf6334028343f64068e596672",
        "aa70010d7424b45b2c94b3e18d397610bcdfca628a94de555005f0994333f71f",
    ),
]


def _guard_ids(cases):
    """Each case named by its command, numbered from a command's second case."""
    seen = Counter()
    ids = []
    for args, *_ in cases:
        seen[args[0]] += 1
        ids.append(args[0] + (str(seen[args[0]]) if seen[args[0]] > 1 else ""))
    return ids


@pytest.mark.parametrize("args,code,out_sha,err_sha", BYTE_GUARD,
                         ids=_guard_ids(BYTE_GUARD))
def test_cli_bytes_are_unchanged(args, code, out_sha, err_sha):
    r = run_cli(*args)
    assert r.returncode == code
    assert hashlib.sha256(r.stdout.encode()).hexdigest() == out_sha
    assert hashlib.sha256(r.stderr.encode()).hexdigest() == err_sha
