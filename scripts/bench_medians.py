#!/usr/bin/env python
"""Reduce a pytest-benchmark JSON report to per-test medians.

CI uploads the result as a ``BENCH_*`` workflow artifact so the benchmark
trajectory can be compared across commits without storing full reports.

With ``--traffic OUT.json`` an additional summary artifact is written for
the prepared-query traffic experiment (E10): the prepared vs ad-hoc
medians, the resulting amortization speedup, and the per-path request
throughput — the numbers the ISSUE's >=3x acceptance gate is about.

When the report contains the E11 join-kernel benchmarks, the medians
summary additionally grows a ``kernels`` section pairing each workload's
compiled and interpreted medians with their speedup and the portfolio's
>=2x gate verdict.  When it also contains the columnar-kernel benchmarks,
a ``columnar`` section pairs each workload's columnar and tuple-kernel
medians and reports the wide/deep transitive-closure >=1.5x gate verdict.

When the report contains the E13 server benchmarks, the summary grows a
``server`` section: the durable-subprocess vs in-process execute round-trip
pair with its overhead ratio and 3x gate verdict, the mixed 90/10 cycle,
and the multi-process load driver's percentiles and throughput.

When the report contains the E15 parallel-fixpoint benchmarks, the
summary grows a ``parallel`` section: per-workload medians at each worker
count, the serial-over-N speedup curves, and the portfolio's 2-worker
ratio against the >=1.4x acceptance gate (informational on single-core
runners, where the gate test skips).

Usage: python scripts/bench_medians.py <pytest-benchmark.json> <out.json>
           [--traffic <traffic-out.json>]
"""

from __future__ import annotations

import argparse
import json
import sys

TRAFFIC_PREPARED = "test_prepared_magic_fresh_constant"
TRAFFIC_ADHOC = "test_adhoc_magic_fresh_constant"
TRAFFIC_EXTRAS = (
    "test_prepared_execute_many_window",
    "test_service_cached_traffic",
)

KERNEL_COMPILED_PREFIX = "test_compiled_kernels["
KERNEL_INTERPRETED_PREFIX = "test_interpreted_match_body["
KERNEL_COLUMNAR_PREFIX = "test_columnar_kernels["
COLUMNAR_GATE_LABELS = ("wide_tc", "deep_tc")

SERVER_ROUNDTRIP = "test_server_execute_roundtrip"
SERVER_INPROCESS = "test_inprocess_execute_roundtrip"
SERVER_MIXED = "test_server_mixed_traffic_cycle"
SERVER_LOAD = "test_server_load_bench"

GRAPH_WORKLOAD_PREFIX = "test_graph_workload["
GRAPH_GATE_COMPILED_PREFIX = "test_graph_workload_gate_compiled["
GRAPH_GATE_INTERPRETED_PREFIX = "test_graph_workload_interpreted["
GRAPH_COLUMNAR_PREFIX = "test_graph_workload_columnar["

PARALLEL_PREFIX = "test_parallel_fixpoint["

INCREMENTAL_MAINTAIN_PREFIX = "test_incremental_maintenance["
INCREMENTAL_RECOMPUTE_PREFIX = "test_full_recompute["
INCREMENTAL_SERVICE = (
    "test_service_mixed_rw_incremental",
    "test_service_mixed_rw_recompute",
)


def medians(report: dict) -> dict:
    """Map each benchmark's name to its median (seconds) and cost-model extras."""
    summary = {}
    for bench in report.get("benchmarks", ()):
        summary[bench["name"]] = {
            "median_seconds": bench["stats"]["median"],
            "rounds": bench["stats"]["rounds"],
            "extra_info": bench.get("extra_info", {}),
        }
    return summary


def traffic_summary(median_map: dict) -> dict:
    """The E10 traffic shape: amortization speedup and request throughput."""
    summary: dict = {"benchmarks": {}}
    for name, entry in median_map.items():
        if name in (TRAFFIC_PREPARED, TRAFFIC_ADHOC) or name in TRAFFIC_EXTRAS:
            seconds = entry["median_seconds"]
            summary["benchmarks"][name] = {
                "median_seconds": seconds,
                "requests_per_second": (1.0 / seconds) if seconds else None,
                "extra_info": entry["extra_info"],
            }
    prepared = median_map.get(TRAFFIC_PREPARED)
    adhoc = median_map.get(TRAFFIC_ADHOC)
    if prepared and adhoc and prepared["median_seconds"]:
        speedup = adhoc["median_seconds"] / prepared["median_seconds"]
        summary["prepared_vs_adhoc_speedup"] = speedup
        summary["meets_3x_gate"] = speedup >= 3.0
    window = median_map.get(TRAFFIC_EXTRAS[0])
    if window:
        size = window["extra_info"].get("window_size")
        if size:
            summary["execute_many_seconds_per_binding"] = (
                window["median_seconds"] / size
            )
    return summary


def kernels_summary(median_map: dict) -> dict:
    """The E11 shape: per-workload compiled-vs-interpreted kernel speedups.

    Pairs ``test_compiled_kernels[w]`` with ``test_interpreted_match_body[w]``
    and reports the per-workload and portfolio ratios the ISSUE's >=2x
    acceptance gate is about.  Empty when the report has no E11 benchmarks.
    """
    workloads: dict = {}
    for name, entry in median_map.items():
        if name.startswith(KERNEL_COMPILED_PREFIX) and name.endswith("]"):
            label = name[len(KERNEL_COMPILED_PREFIX) : -1]
            workloads.setdefault(label, {})["compiled_seconds"] = entry["median_seconds"]
        elif name.startswith(KERNEL_INTERPRETED_PREFIX) and name.endswith("]"):
            label = name[len(KERNEL_INTERPRETED_PREFIX) : -1]
            workloads.setdefault(label, {})["interpreted_seconds"] = entry["median_seconds"]
    summary: dict = {"workloads": workloads}
    compiled_total = interpreted_total = 0.0
    for label, entry in workloads.items():
        compiled = entry.get("compiled_seconds")
        interpreted = entry.get("interpreted_seconds")
        if compiled and interpreted:
            entry["speedup"] = interpreted / compiled
            compiled_total += compiled
            interpreted_total += interpreted
    if compiled_total:
        summary["portfolio_speedup"] = interpreted_total / compiled_total
        summary["meets_2x_gate"] = summary["portfolio_speedup"] >= 2.0
    return summary


def columnar_summary(median_map: dict) -> dict:
    """The PR 7 shape: columnar batch kernels vs the compiled tuple kernels.

    Pairs ``test_columnar_kernels[w]`` with ``test_compiled_kernels[w]``
    per workload, and reports the wide/deep transitive-closure pair's
    ratio against the >=1.5x acceptance gate (``bench_e11``'s
    ``test_columnar_at_least_1_5x_on_wide_deep_tc``).  Empty when the report
    has no columnar benchmarks.
    """
    workloads: dict = {}
    for name, entry in median_map.items():
        if name.startswith(KERNEL_COLUMNAR_PREFIX) and name.endswith("]"):
            label = name[len(KERNEL_COLUMNAR_PREFIX) : -1]
            workloads.setdefault(label, {})["columnar_seconds"] = entry["median_seconds"]
        elif name.startswith(KERNEL_COMPILED_PREFIX) and name.endswith("]"):
            label = name[len(KERNEL_COMPILED_PREFIX) : -1]
            workloads.setdefault(label, {})["tuple_seconds"] = entry["median_seconds"]
    workloads = {
        label: entry for label, entry in workloads.items() if "columnar_seconds" in entry
    }
    summary: dict = {"workloads": workloads}
    gate_columnar = gate_tuple = 0.0
    for label, entry in workloads.items():
        columnar = entry.get("columnar_seconds")
        tuple_side = entry.get("tuple_seconds")
        if columnar and tuple_side:
            entry["speedup"] = tuple_side / columnar
            if label in COLUMNAR_GATE_LABELS:
                gate_columnar += columnar
                gate_tuple += tuple_side
    if gate_columnar:
        summary["wide_deep_tc_speedup"] = gate_tuple / gate_columnar
        summary["meets_gate"] = summary["wide_deep_tc_speedup"] >= 1.5
    return summary


def graph_summary(median_map: dict) -> dict:
    """The E14 shape: graph-analytics medians and the kernel gate.

    Lifts the timed portfolio (``test_graph_workload[w]``) with its
    cost-model extras, pairs the gate instances' compiled and interpreted
    medians, mirrors the columnar lanes, and reports the >=2x gate the
    ISSUE's acceptance criterion is about.  Empty when the report has no
    E14 benchmarks.
    """
    workloads: dict = {}
    for name, entry in median_map.items():
        if name.startswith(GRAPH_WORKLOAD_PREFIX) and name.endswith("]"):
            label = name[len(GRAPH_WORKLOAD_PREFIX) : -1]
            workloads[label] = {
                "median_seconds": entry["median_seconds"],
                "extra_info": entry["extra_info"],
            }
    gates: dict = {}
    for name, entry in median_map.items():
        if name.startswith(GRAPH_GATE_COMPILED_PREFIX) and name.endswith("]"):
            label = name[len(GRAPH_GATE_COMPILED_PREFIX) : -1]
            gates.setdefault(label, {})["compiled_seconds"] = entry["median_seconds"]
        elif name.startswith(GRAPH_GATE_INTERPRETED_PREFIX) and name.endswith("]"):
            label = name[len(GRAPH_GATE_INTERPRETED_PREFIX) : -1]
            gates.setdefault(label, {})["interpreted_seconds"] = entry["median_seconds"]
    summary: dict = {"workloads": workloads, "gate_workloads": gates}
    compiled_total = interpreted_total = 0.0
    for label, entry in gates.items():
        compiled = entry.get("compiled_seconds")
        interpreted = entry.get("interpreted_seconds")
        if compiled and interpreted:
            entry["speedup"] = interpreted / compiled
            compiled_total += compiled
            interpreted_total += interpreted
    if compiled_total:
        summary["gate_speedup"] = interpreted_total / compiled_total
        summary["meets_2x_gate"] = summary["gate_speedup"] >= 2.0
    columnar: dict = {}
    for name, entry in median_map.items():
        if name.startswith(GRAPH_COLUMNAR_PREFIX) and name.endswith("]"):
            label = name[len(GRAPH_COLUMNAR_PREFIX) : -1]
            columnar[label] = {"columnar_seconds": entry["median_seconds"]}
            timed = workloads.get(label)
            if timed and timed["median_seconds"]:
                columnar[label]["speedup"] = (
                    timed["median_seconds"] / entry["median_seconds"]
                )
    if columnar:
        summary["columnar_workloads"] = columnar
    return summary


def parallel_summary(median_map: dict) -> dict:
    """The E15 shape: sharded-fixpoint speedup curves per workload.

    Groups ``test_parallel_fixpoint[...]`` medians by workload and worker
    count (the count is recorded in ``extra_info``), derives each
    workload's serial-over-N speedup, and reports the portfolio's
    2-worker ratio against the ISSUE's >=1.4x acceptance gate.  On
    single-core runners the timed pairs still appear but the ratio is
    expected below 1 (two processes time-slicing one core); the gate
    test itself skips there, so the verdict here is informational.
    Empty when the report has no E15 benchmarks.
    """
    workloads: dict = {}
    for name, entry in median_map.items():
        if not (name.startswith(PARALLEL_PREFIX) and name.endswith("]")):
            continue
        workers = entry["extra_info"].get("workers")
        if workers is None:
            continue
        tokens = name[len(PARALLEL_PREFIX) : -1].split("-")
        label = next((t for t in tokens if not t.isdigit()), tokens[0])
        workloads.setdefault(label, {})[f"w{workers}_seconds"] = entry[
            "median_seconds"
        ]
    summary: dict = {"workloads": workloads}
    serial_total = sharded_total = 0.0
    for label, entry in workloads.items():
        serial = entry.get("w1_seconds")
        if not serial:
            continue
        for key in sorted(entry):
            if key in ("w1_seconds",) or not key.endswith("_seconds"):
                continue
            entry[f"speedup_{key[:-8]}"] = serial / entry[key]
        sharded = entry.get("w2_seconds")
        if sharded:
            serial_total += serial
            sharded_total += sharded
    if sharded_total:
        summary["portfolio_2worker_speedup"] = serial_total / sharded_total
        summary["meets_1_4x_gate"] = summary["portfolio_2worker_speedup"] >= 1.4
    return summary


def incremental_summary(median_map: dict) -> dict:
    """The E12 shape: per-workload maintenance-vs-recompute speedups.

    Pairs ``test_incremental_maintenance[w]`` with ``test_full_recompute[w]``
    and reports the per-workload and portfolio ratios the ISSUE's >=5x
    acceptance gate is about, plus the mixed read/write service pair.
    Empty when the report has no E12 benchmarks.
    """
    workloads: dict = {}
    for name, entry in median_map.items():
        if name.startswith(INCREMENTAL_MAINTAIN_PREFIX) and name.endswith("]"):
            label = name[len(INCREMENTAL_MAINTAIN_PREFIX) : -1]
            workloads.setdefault(label, {})["maintained_seconds"] = entry["median_seconds"]
        elif name.startswith(INCREMENTAL_RECOMPUTE_PREFIX) and name.endswith("]"):
            label = name[len(INCREMENTAL_RECOMPUTE_PREFIX) : -1]
            workloads.setdefault(label, {})["recomputed_seconds"] = entry["median_seconds"]
    summary: dict = {"workloads": workloads}
    maintained_total = recomputed_total = 0.0
    for label, entry in workloads.items():
        maintained = entry.get("maintained_seconds")
        recomputed = entry.get("recomputed_seconds")
        if maintained and recomputed:
            entry["speedup"] = recomputed / maintained
            maintained_total += maintained
            recomputed_total += recomputed
    if maintained_total:
        summary["portfolio_speedup"] = recomputed_total / maintained_total
        summary["meets_5x_gate"] = summary["portfolio_speedup"] >= 5.0
    live, cold = (median_map.get(name) for name in INCREMENTAL_SERVICE)
    if live and cold and live["median_seconds"]:
        summary["service_mixed_rw"] = {
            "incremental_seconds": live["median_seconds"],
            "recompute_seconds": cold["median_seconds"],
            "speedup": cold["median_seconds"] / live["median_seconds"],
        }
    return summary


def server_summary(median_map: dict) -> dict:
    """The E13 shape: durable-server overhead and load-driver percentiles.

    Pairs the subprocess round-trip with its in-process comparable (the
    ISSUE's <=3x latency gate), and lifts the multi-process load report's
    percentiles/throughput out of ``extra_info``.  Empty when the report
    has no E13 benchmarks.
    """
    summary: dict = {}
    served = median_map.get(SERVER_ROUNDTRIP)
    inprocess = median_map.get(SERVER_INPROCESS)
    if served and inprocess and inprocess["median_seconds"]:
        ratio = served["median_seconds"] / inprocess["median_seconds"]
        summary["execute_roundtrip"] = {
            "server_seconds": served["median_seconds"],
            "inprocess_seconds": inprocess["median_seconds"],
            "overhead_ratio": ratio,
            "meets_3x_gate": ratio <= 3.0,
        }
    mixed = median_map.get(SERVER_MIXED)
    if mixed:
        summary["mixed_cycle"] = {
            "median_seconds": mixed["median_seconds"],
            "extra_info": mixed["extra_info"],
        }
    load = median_map.get(SERVER_LOAD)
    if load:
        summary["load"] = dict(load["extra_info"])
        summary["load"]["wall_seconds"] = load["median_seconds"]
    return summary


def main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("source", help="pytest-benchmark JSON report")
    parser.add_argument("destination", help="medians output JSON")
    parser.add_argument(
        "--traffic",
        metavar="OUT.json",
        help="also write the E10 prepared-traffic summary artifact",
    )
    arguments = parser.parse_args(argv)
    with open(arguments.source, "r", encoding="utf-8") as handle:
        report = json.load(handle)
    median_map = medians(report)
    summary = {
        "machine_info": report.get("machine_info", {}),
        "datetime": report.get("datetime"),
        "commit_info": report.get("commit_info", {}),
        "medians": median_map,
    }
    kernels = kernels_summary(median_map)
    if kernels["workloads"]:
        summary["kernels"] = kernels
    columnar = columnar_summary(median_map)
    if columnar["workloads"]:
        summary["columnar"] = columnar
    incremental = incremental_summary(median_map)
    if incremental["workloads"]:
        summary["incremental"] = incremental
    graph = graph_summary(median_map)
    if graph["workloads"] or graph["gate_workloads"]:
        summary["graph"] = graph
    server = server_summary(median_map)
    if server:
        summary["server"] = server
    parallel = parallel_summary(median_map)
    if parallel["workloads"]:
        summary["parallel"] = parallel
    with open(arguments.destination, "w", encoding="utf-8") as handle:
        json.dump(summary, handle, indent=2, sort_keys=True)
    print(f"wrote {len(median_map)} medians to {arguments.destination}")
    ratio = kernels.get("portfolio_speedup")
    if ratio is not None:
        print(f"kernel portfolio speedup {ratio:.1f}x (gate >=2x: {kernels['meets_2x_gate']})")
    ratio = columnar.get("wide_deep_tc_speedup")
    if ratio is not None:
        print(
            f"columnar wide/deep TC speedup {ratio:.1f}x "
            f"(gate >=1.5x: {columnar['meets_gate']})"
        )
    ratio = graph.get("gate_speedup")
    if ratio is not None:
        print(
            f"graph-analytics kernel speedup {ratio:.1f}x "
            f"(gate >=2x: {graph['meets_2x_gate']})"
        )
    ratio = incremental.get("portfolio_speedup")
    if ratio is not None:
        print(
            f"incremental portfolio speedup {ratio:.1f}x "
            f"(gate >=5x: {incremental['meets_5x_gate']})"
        )
    ratio = parallel.get("portfolio_2worker_speedup")
    if ratio is not None:
        print(
            f"parallel portfolio 2-worker speedup {ratio:.2f}x "
            f"(gate >=1.4x: {parallel['meets_1_4x_gate']})"
        )
    roundtrip = server.get("execute_roundtrip")
    if roundtrip is not None:
        print(
            f"server round-trip overhead {roundtrip['overhead_ratio']:.2f}x "
            f"(gate <=3x: {roundtrip['meets_3x_gate']})"
        )
    load = server.get("load")
    if load is not None:
        print(
            f"load driver: {load.get('requests_per_second', 0.0):.0f} req/s, "
            f"read p95 {load.get('read_p95', 0.0) * 1e3:.2f} ms "
            f"over {load.get('processes')} processes"
        )
    if arguments.traffic:
        traffic = {
            "machine_info": report.get("machine_info", {}),
            "datetime": report.get("datetime"),
            "commit_info": report.get("commit_info", {}),
        }
        traffic.update(traffic_summary(median_map))
        with open(arguments.traffic, "w", encoding="utf-8") as handle:
            json.dump(traffic, handle, indent=2, sort_keys=True)
        gate = traffic.get("prepared_vs_adhoc_speedup")
        detail = f" (speedup {gate:.1f}x)" if gate is not None else ""
        print(f"wrote traffic summary to {arguments.traffic}{detail}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
