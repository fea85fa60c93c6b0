"""What the ledger measures: workloads, end-to-end metrics, per-layer metrics.

``BENCHMARK.json`` at the repository root carries the part of this the
driver reads (names, units, directions, bounds); the smoke test keeps the
two in step.  What each metric means is in the README; which phase a layer
metric is taken from, which end-to-end metrics it is expected to move and
on which workloads is recorded here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Tuple

SERVE = ("serve_read_miss", "serve_read_hot", "serve_write_mix")
GRAPH = ("graph_tuple", "graph_vector", "graph_packed")

WORKLOADS: Tuple[Tuple[str, str], ...] = (
    (
        "serve_read_miss",
        "reads over all 12800 bindings (>> 256-entry cache): every read runs the magic "
        "fixpoint on tuple kernels, so prepared/engine/executor do the work",
    ),
    (
        "serve_read_hot",
        "reads over 128 bindings that fit the cache: every read is an LRU hit, so HTTP, "
        "JSON and the socket do the work and the engine none",
    ),
    (
        "serve_write_mix",
        "70% reads / 30% single-edge writes: every write invalidates the cache, so WAL "
        "fsync, view maintenance, re-prepare and snapshots sit on the blocking path",
    ),
    (
        "graph_tuple",
        "seven-program analytics portfolio on the tuple layout: compiled slot kernels, "
        "anti-joins and aggregates, no columnar code",
    ),
    (
        "graph_vector",
        "five arity<=2 programs on the columnar layout: NumPy vector lane plus the lazy "
        "decode; cold passes expose intern/encode",
    ),
    (
        "graph_packed",
        "the same families forced onto the packed-bigint lane by an arity-3 head: shares "
        "the columnar store, so a vector-lane gain paid for in encode shows here",
    ),
)


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    better: str
    bound: float


#: ISSUE 11's bounds: a tenth, and 15 % for memory.  ``setup_s`` has 15 % too
#: because the benchmark contract wants the largest bound on set-up time, and
#: ``op_p50_ms`` 13 %: three times the widest ten-seed quartile spread seen
#: (4.2 %, the write median of ``serve_write_mix``; see the README).
END_TO_END: Tuple[EndToEnd, ...] = (
    EndToEnd("setup_s", "s", "lower", 0.15),
    EndToEnd("ops_per_s", "1/s", "higher", 0.10),
    EndToEnd("op_p50_ms", "ms", "lower", 0.13),
    EndToEnd("op_p95_ms", "ms", "lower", 0.10),
    EndToEnd("cold_start_s", "s", "lower", 0.10),
    EndToEnd("peak_rss_mb", "MB", "lower", 0.15),
)


@dataclass(frozen=True)
class Layer:
    """One per-layer metric.

    ``phase`` says where a span-derived time comes from: ``steady`` is the
    traced measuring phase (ms of self time per operation), ``cold`` is
    set-up plus recovery for ``serve_*`` and the cold passes for ``graph_*``
    (ms of self time per cold event), ``direct`` is filled in by the
    workload itself.  ``moves`` names the end-to-end metrics the layer is
    expected to move and ``on`` the workloads where it should.
    """

    name: str
    unit: str
    better: str
    phase: str
    spans: Tuple[str, ...]
    moves: Tuple[str, ...]
    on: Tuple[str, ...]


def _steady(name, spans, moves, on):
    return Layer(name, "ms", "lower", "steady", tuple(spans), tuple(moves), tuple(on))


def _cold(name, spans, moves, on):
    return Layer("cold." + name, "ms", "lower", "cold", tuple(spans), tuple(moves), tuple(on))


def _direct(name, unit, better, moves, on):
    return Layer(name, unit, better, "direct", (), tuple(moves), tuple(on))


LATENCY = ("op_p50_ms", "ops_per_s")
COLD = ("cold_start_s",)
BOOT = ("setup_s", "cold_start_s")
WRITES = ("serve_write_mix",)
READ_ENGINE = ("serve_read_miss", "serve_write_mix")
COLUMNAR = ("graph_vector", "graph_packed")

PER_LAYER: Tuple[Layer, ...] = (
    # -- cold phase ------------------------------------------------------
    _cold("parser.parse_ms", ["parser.parse"], BOOT, SERVE + GRAPH),
    _cold("transforms.pipeline_ms", ["transforms.pipeline"], ("setup_s",), SERVE),
    _cold("planner.plan_ms", ["planner.plan"], BOOT, GRAPH + WRITES),
    _cold("executor.lower_ms", ["executor.lower"], BOOT, GRAPH + WRITES),
    _cold("executor.fire_ms", ["executor.fire"], BOOT, WRITES),
    _cold("columnar.batch.lower_ms", ["columnar.batch.lower"], COLD, COLUMNAR),
    _cold("columnar.store.encode_ms", ["columnar.store.encode"], COLD + ("peak_rss_mb",), COLUMNAR),
    _cold("database.build_ms", ["database.build"], COLD + ("peak_rss_mb",), GRAPH + WRITES),
    _cold("database.copy_ms", ["database.copy"], BOOT, SERVE),
    _cold("database.mutate_ms", ["database.mutate"], BOOT, SERVE),
    _cold("incremental.build_ms", ["incremental.build"], BOOT, WRITES),
    _cold(
        "server.wal.append_ms", ["server.wal.append", "server.wal.append>os.fsync"],
        ("setup_s",), SERVE,
    ),
    _cold("server.wal.replay_ms", ["server.wal.replay"], COLD, SERVE),
    _cold("server.snapshot.load_ms", ["server.snapshot.load"], COLD, WRITES),
    _cold("server.durable.recover_ms", ["server.durable.recover"], COLD, SERVE),
    _cold(
        "server.http.self_ms", ["server.http.dispatch", "server.http.respond"],
        ("setup_s",), SERVE,
    ),
    # -- steady phase: rewriting and planning on the request path --------
    _steady("transforms.pipeline_ms", ["transforms.pipeline"], LATENCY, WRITES),
    _steady("planner.plan_ms", ["planner.plan"], LATENCY, WRITES),
    _steady("executor.lower_ms", ["executor.lower"], LATENCY, WRITES),
    _steady("prepared.prepare_ms", ["prepared.prepare"], LATENCY, WRITES),
    # -- steady phase: evaluation ----------------------------------------
    _steady("database.copy_ms", ["database.copy"], LATENCY, ("graph_tuple",) + WRITES),
    _steady("database.restrict_ms", ["database.restrict"], LATENCY, ("graph_tuple",) + READ_ENGINE),
    _steady("database.update_ms", ["database.update"], LATENCY, ("graph_tuple",) + READ_ENGINE),
    _steady("database.mutate_ms", ["database.mutate"], LATENCY, WRITES),
    _steady("engine.driver_self_ms", ["engine.evaluate"], LATENCY, ("graph_tuple",) + READ_ENGINE),
    _steady("executor.fire_ms", ["executor.fire"], LATENCY, ("graph_tuple",) + READ_ENGINE),
    _steady("columnar.vector.fixpoint_ms", ["columnar.vector.fixpoint"], LATENCY, ("graph_vector",)),
    _steady("columnar.decode.decode_ms", ["columnar.decode.decode"], LATENCY, ("graph_vector",)),
    _steady("columnar.batch.fixpoint_ms", ["columnar.batch.fixpoint"], LATENCY, ("graph_packed",)),
    _steady("prepared.execute_self_ms", ["prepared.execute"], LATENCY, READ_ENGINE),
    _steady("prepared.select_answers_ms", ["prepared.select_answers"], LATENCY, READ_ENGINE),
    _steady("service.execute_self_ms", ["service.execute"], LATENCY, SERVE),
    # -- steady phase: writes and durability -----------------------------
    _steady("service.write_self_ms", ["service.write"], LATENCY, WRITES),
    _steady("incremental.apply_ms", ["incremental.apply"], LATENCY + ("op_p95_ms",), WRITES),
    _steady(
        "server.durable.self_ms",
        ["server.durable.write", "server.durable.read", "server.durable.snapshot"],
        LATENCY, WRITES,
    ),
    _steady("server.wal.append_ms", ["server.wal.append"], LATENCY, WRITES),
    _steady(
        "server.wal.sync_ms",
        ["server.wal.append>os.fsync", "server.wal.sync", "server.wal.sync>os.fsync"],
        LATENCY, WRITES,
    ),
    _steady(
        "server.snapshot.write_ms",
        [
            "server.snapshot.write", "server.snapshot.write>os.fsync", "database.serialize",
            "server.wal.truncate", "server.wal.truncate>os.fsync",
        ],
        ("op_p95_ms", "ops_per_s"), WRITES,
    ),
    # -- steady phase: the HTTP front end and the load generator ---------
    _steady(
        "server.http.self_ms", ["server.http.dispatch", "server.http.respond"],
        LATENCY, ("serve_read_hot",),
    ),
    _steady("client.self_ms", ["client.roundtrip"], (), ()),
    # -- counters and direct measurements --------------------------------
    _direct("engine.iterations", "count", "lower", LATENCY, ("graph_tuple",) + READ_ENGINE),
    _direct("engine.facts_derived", "count", "lower", LATENCY, ("graph_tuple",) + READ_ENGINE),
    _direct("executor.firings", "count", "lower", LATENCY, ("graph_tuple",) + READ_ENGINE),
    _direct("columnar.interning.codes", "count", "lower", COLD + ("peak_rss_mb",), COLUMNAR),
    _direct("columnar.shard.w1_s", "s", "lower", (), ()),
    _direct("columnar.shard.w2_s", "s", "lower", (), ()),
    _direct("service.cache_hit_ratio", "ratio", "higher", LATENCY, ("serve_read_hot",)),
    _direct("service.view_hit_ratio", "ratio", "higher", LATENCY, WRITES),
    _direct("server.wal.records", "count", "lower", LATENCY, WRITES),
    _direct("server.wal.bytes_per_fact_byte", "ratio", "lower", LATENCY, WRITES),
    _direct("server.snapshot.count", "count", "lower", ("op_p95_ms",), WRITES),
    _direct("server.snapshot.bytes", "bytes", "lower", ("op_p95_ms", "peak_rss_mb"), WRITES),
    _direct("server.http.handler_mean_ms", "ms", "lower", LATENCY, ("serve_read_hot",)),
    _direct("server.http.json_ms", "ms", "lower", LATENCY, ("serve_read_hot",)),
    _direct("client.answers_per_read", "count", "lower", (), ()),
    _direct("client.read_p50_ms", "ms", "lower", (), ()),
    _direct("client.read_p95_ms", "ms", "lower", (), ()),
    _direct("client.read_p99_ms", "ms", "lower", (), ()),
    _direct("client.write_p50_ms", "ms", "lower", (), ()),
    _direct("client.write_p95_ms", "ms", "lower", (), ()),
    _direct("client.write_p99_ms", "ms", "lower", (), ()),
    _direct("trace.cold_unlisted_ms", "ms", "lower", (), ()),
    _direct("trace.unlisted_ms", "ms", "lower", (), ()),
    _direct("trace.coverage_ratio", "ratio", "higher", (), ()),
    _direct("trace.overhead_ratio", "ratio", "lower", (), ()),
)

#: Root spans: opened by the harness around one operation; their self time
#: is the part of the traced wall time no layer accounts for.
ROOTS = ("client.request", "harness.pass", "harness.setup", "harness.recover")


def layer_metrics(
    cold: Mapping[str, float],
    cold_events: int,
    steady: Mapping[str, float],
    steady_ops: int,
    direct: Mapping[str, float],
) -> Dict[str, float]:
    """Every per-layer metric by name, from the two phases' self times."""
    values: Dict[str, float] = {}
    phases = {"cold": (cold, max(cold_events, 1)), "steady": (steady, max(steady_ops, 1))}
    listed = set(ROOTS)
    for layer in PER_LAYER:
        if layer.phase == "direct":
            values[layer.name] = float(direct.get(layer.name, 0.0))
            continue
        source, events = phases[layer.phase]
        values[layer.name] = sum(source.get(s, 0.0) for s in layer.spans) / events * 1e3
        listed.update(layer.spans)
    # Self time of spans that no metric of either phase lists.
    for phase, metric in (("cold", "trace.cold_unlisted_ms"), ("steady", "trace.unlisted_ms")):
        source, events = phases[phase]
        values[metric] = sum(t for name, t in source.items() if name not in listed) / events * 1e3
    wall = sum(steady.values())
    root_self = sum(t for name, t in steady.items() if name in ROOTS)
    values["trace.coverage_ratio"] = 1.0 - root_self / wall if wall else 0.0
    return values
