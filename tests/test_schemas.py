"""CLI JSON output must validate against the shipped schema files."""

import json
from pathlib import Path

import pytest

jsonschema = pytest.importorskip("jsonschema")

from test_cli import C4, C5, PM, run_cli

SCHEMAS = Path(__file__).resolve().parent.parent / "src" / "fanforge" / "schemas"


def load(name):
    return json.loads((SCHEMAS / name).read_text())


def test_classify_schema():
    schema = load("classify.json")
    for line in run_cli("classify", C5, C4).stdout.strip().split("\n"):
        jsonschema.validate(json.loads(line), schema)


def test_report_schema():
    schema = load("report.json")
    r = run_cli("verify", "--checks", "graph", C5)
    for line in r.stdout.strip().split("\n"):
        jsonschema.validate(json.loads(line), schema)
    r2 = run_cli("scan", "--checks", "val,parity", stdin=f"{C5}\n{C4}\n")
    for line in r2.stdout.strip().split("\n"):
        jsonschema.validate(json.loads(line), schema)


def test_fan_schema():
    schema = load("fan.json")
    out = json.loads(run_cli("fan", "--edge", "0-1", C5).stdout)
    jsonschema.validate(out, schema)
    out2 = json.loads(run_cli("fan", "--edge", "0-4", PM).stdout)
    jsonschema.validate(out2, schema)
    # a tau-sequence that raises is listed under tau_errors
    out3 = json.loads(run_cli("fan", "--edge", "5-2", "--fan-budget", "5", "E}zw").stdout)
    assert out3["tau_errors"]
    jsonschema.validate(out3, schema)


def test_tau_schema():
    schema = load("tau.json")
    out = json.loads(run_cli("tau", "--edge", "0-4", PM).stdout)
    jsonschema.validate(out, schema)


def test_transcript_schema(c5_fixture):
    from conftest import leaf_padded_gadget
    from fanforge.fans import grow_multifan, normalize_typical
    from fanforge.recolor import build_tau_sequence, apply_shifting, Transcript

    schema = load("transcript.json")
    g, phi = leaf_padded_gadget(4, [(3, 1)])
    nf = normalize_typical(g, phi, grow_multifan(g, phi, 0, 1))
    ts = build_tau_sequence(g, nf.phi, nf.fan, 3)
    _, step = apply_shifting(nf.phi, nf.fan, ts)
    jsonschema.validate(Transcript([step]).to_json(), schema)
