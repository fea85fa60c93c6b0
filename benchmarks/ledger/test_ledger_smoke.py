"""Smoke test of the ledger: tiny counts, all six workloads, both modes.

Checks the shape of what the benchmark prints and that ``BENCHMARK.json``
and :mod:`spec` describe the same metrics; it times nothing.
"""

import copy
import json
import re
import subprocess
import sys

from ledger import compare, spec
from ledger.common import LEDGER_DIR, ROOT
from ledger.trace import Tracer

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def benchmark_json():
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def test_smoke_run_reports_every_metric_and_no_failure(tmp_path, capsys):
    done = subprocess.run(
        [sys.executable, str(LEDGER_DIR / "run.py"), "--smoke", "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    with open(tmp_path / "ledger.json") as handle:
        document = json.load(handle)
    declared = benchmark_json()
    end_to_end = {m["name"]: m["unit"] for m in declared["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in declared["per_layer"]}
    (only_round,) = document["rounds"]
    assert list(only_round) == [w["name"] for w in declared["workloads"]]
    for workload, records in only_round.items():
        for trace, expected in (("trace0", end_to_end), ("trace1", per_layer)):
            record = records[trace]
            assert record["correct"] and record["failed"] == 0, (workload, trace)
            assert record["attempted"] >= 1
            got = {name: entry["unit"] for name, entry in record["metrics"].items()}
            assert got == expected, (workload, trace)
        assert all(e["value"] > 0 for e in records["trace0"]["metrics"].values()), workload
        layers = records["trace1"]["metrics"]
        assert layers["trace.coverage_ratio"]["value"] >= 0.8, workload
        assert layers["trace.overhead_ratio"]["value"] > 0, workload
        assert (tmp_path / f"{workload}.spans.json").exists()
    assert not list((LEDGER_DIR / ".work").glob("run-*"))

    # compare.py on that result: one round a side resolves nothing; two equal
    # rounds a side agree, counters included; a halved throughput regresses.
    assert compare.report(document, document) == 0
    assert "36 rows unresolved" in capsys.readouterr().out
    twice = dict(document, rounds=document["rounds"] * 2)
    assert compare.report(twice, twice) == 0
    printed = capsys.readouterr().out
    assert "unresolved" not in printed and "exact counters: identical" in printed
    assert "trace.coverage_ratio" in printed
    slower = copy.deepcopy(twice)
    for r in slower["rounds"]:
        r["graph_tuple"]["trace0"]["metrics"]["ops_per_s"]["value"] /= 2
        r["serve_read_hot"]["trace1"]["metrics"]["executor.firings"]["value"] += 1
    assert compare.report(twice, slower) == 1
    printed = capsys.readouterr().out
    assert printed.count("REGRESSION") == 1
    assert "CHANGED [('serve_read_hot', 'executor.firings')]" in printed


def test_benchmark_json_is_within_the_contract_and_matches_spec():
    declared = benchmark_json()
    assert set(declared) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert declared["paths"] == ["benchmarks/ledger"]
    assert declared["command"][-1] == "benchmarks/ledger/run.py"
    assert isinstance(declared["run_seconds"], int) and 1 <= declared["run_seconds"] <= 60
    assert 2 <= len(declared["workloads"]) <= 8
    assert 1 <= len(declared["end_to_end"]) <= 16
    assert 1 <= len(declared["per_layer"]) <= 128

    assert [(w["name"], w["why"]) for w in declared["workloads"]] == list(spec.WORKLOADS)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in declared["workloads"])
    assert declared["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in spec.END_TO_END
    ]
    assert declared["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in spec.PER_LAYER
    ]

    names = (
        [w["name"] for w in declared["workloads"]]
        + [m["name"] for m in declared["end_to_end"]]
        + [m["name"] for m in declared["per_layer"]]
    )
    assert all(NAME.match(name) for name in names)
    assert len(set(names)) == len(names)
    for metric in declared["end_to_end"] + declared["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("lower", "higher")
    bounds = {m["name"]: m["bound"] for m in declared["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())

    workloads = {name for name, _ in spec.WORKLOADS}
    for layer in spec.PER_LAYER:
        assert set(layer.moves) <= set(bounds), layer.name
        assert set(layer.on) <= workloads, layer.name


def test_tracer_restores_every_patched_attribute():
    tracer = Tracer()
    tracer.install()
    patched = tracer.patched()
    try:
        assert len(patched) > 40
        for owner, attribute, original in patched:
            assert vars(owner)[attribute] is not original, (owner, attribute)
    finally:
        tracer.restore()
    assert tracer.patched() == []
    for owner, attribute, original in patched:
        assert vars(owner)[attribute] is original, (owner, attribute)
