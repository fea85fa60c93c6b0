"""The ``serve_*`` workloads: closed-loop HTTP traffic against ``repro serve``.

Untraced runs start the real server as a subprocess (``python -m repro.cli
serve <dir> --fsync always``) and drive it from this process over
keep-alive connections, one thread per connection; every caller waits for
its reply before sending the next request.  Traced runs host the same
``DatalogHTTPServer`` on a thread of this process (one connection) so the
wrappers of :mod:`trace` see the server-side calls.

State is preserved: a connection only ever adds a scratch edge and later
removes the same edge (at most ``MAX_PENDING`` outstanding), and each
connection works on its own share of the communities, so the edge set in
force at every one of its reads is known exactly and every answer can be
checked against a plain BFS after the timers have stopped.
"""

from __future__ import annotations

import asyncio
import gc
import json
import os
import random
import re
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
import zlib
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from . import gen, reference
from .common import ALL_CORES, SRC_DIR, percentile

MAX_PENDING = 4
BLOCK = 10
TAIL_RECORDS = 32


@dataclass(frozen=True)
class ServeConfig:
    name: str
    communities: int = 200
    size: int = 64
    #: Number of distinct bindings read (0 = every node).
    hot: int = 0
    write_share: float = 0.0
    #: Bindings kept as live materialized views, and their share of reads.
    materialized: int = 0
    materialized_share: float = 0.3
    #: ``--snapshot-every`` of the server (1024 is its own default).
    snapshot_every: int = 1024
    warmup: int = 600
    #: Set-ups and crash recoveries per untraced run (medians are reported).
    setups: int = 3
    recoveries: int = 3
    #: Operations per second of ``--seconds`` in each half of a traced run
    #: (a fixed count, so the counters repeat exactly).
    traced_rate: int = 100

    def smoke(self) -> "ServeConfig":
        return replace(
            self,
            communities=8,
            size=16,
            hot=min(self.hot, 16),
            warmup=20,
            setups=1,
            recoveries=1,
            snapshot_every=min(self.snapshot_every, 16),
        )


CONFIGS = {
    "serve_read_miss": ServeConfig("serve_read_miss", traced_rate=375),
    "serve_read_hot": ServeConfig("serve_read_hot", hot=128, traced_rate=700),
    "serve_write_mix": ServeConfig(
        "serve_write_mix",
        write_share=0.3,
        materialized=8,
        snapshot_every=256,
        warmup=200,
        traced_rate=100,
    ),
}


# ----------------------------------------------------------------------
# Servers
# ----------------------------------------------------------------------
class ServerProcess:
    """``repro serve`` as a child process on *data_dir*."""

    def __init__(self, data_dir, snapshot_every: int):
        env = dict(os.environ, PYTHONPATH=SRC_DIR, PYTHONHASHSEED="0")
        self.process = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve", str(data_dir),
                "--fsync", "always", "--snapshot-every", str(snapshot_every),
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            env=env,
            text=True,
        )
        line = self.process.stdout.readline()
        match = re.match(r"READY (\S+) (\d+)", line)
        if not match:
            self.kill()
            raise RuntimeError(f"server did not report READY: {line!r}")
        self.port = int(match.group(2))

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.process.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM not found")

    def kill(self) -> None:
        """SIGKILL and reap (the crash the durability check recovers from)."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGKILL)
        self.process.wait(timeout=30)
        self.process.stdout.close()


class InProcessServer:
    """The same HTTP server on an event-loop thread of this process."""

    def __init__(self, data_dir, snapshot_every: int):
        from repro.datalog.server.durable import DurableDatalogService
        from repro.datalog.server.http import DatalogHTTPServer

        self.durable = DurableDatalogService(
            data_dir, fsync="always", snapshot_every=snapshot_every
        )
        self.server = DatalogHTTPServer(self.durable, port=0)
        self.loop = asyncio.new_event_loop()
        self._stop: Optional[asyncio.Event] = None
        started = threading.Event()

        async def main():
            self._stop = asyncio.Event()
            await self.server.start()
            started.set()
            await self.server.serve_until(self._stop)

        def run():
            asyncio.set_event_loop(self.loop)
            self.loop.run_until_complete(main())

        self.thread = threading.Thread(target=run, daemon=True)
        self.thread.start()
        if not started.wait(30):
            raise RuntimeError("in-process server did not start")
        self.port = self.server.port

    def stop(self) -> None:
        if self.thread.is_alive():
            self.loop.call_soon_threadsafe(self._stop.set)
            self.thread.join(timeout=60)
        if self.thread.is_alive():
            raise RuntimeError("in-process server did not stop")
        self.loop.close()


class Client:
    """One keep-alive HTTP/1.1 connection over a bare socket.

    The load generator shares two cores with the server, so whatever it
    spends per request is noise in the measurement: requests go out as one
    prebuilt byte string and a reply is parsed no further than its status
    and ``Content-Length`` (the server always sends one).
    """

    def __init__(self, port: int):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=60)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    def _exchange(self, request: bytes) -> Tuple[int, bytes]:
        self.sock.sendall(request)
        buffer = self.sock.recv(65536)
        while True:
            if not buffer:
                raise ConnectionError("server closed the connection")
            head_end = buffer.find(b"\r\n\r\n")
            if head_end >= 0:
                break
            buffer += self.sock.recv(65536)
        head = buffer[:head_end]
        at = head.find(b"Content-Length: ") + 16
        length = int(head[at : head.find(b"\r", at)])
        body = buffer[head_end + 4 :]
        while len(body) < length:
            chunk = self.sock.recv(length - len(body))
            if not chunk:
                raise ConnectionError("server closed the connection mid-body")
            body += chunk
        return int(head[9:12]), body

    def post(self, path: str, payload: bytes) -> Tuple[int, bytes]:
        return self._exchange(
            b"POST %s HTTP/1.1\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%s"
            % (path.encode(), len(payload), payload)
        )

    def post_json(self, path: str, body: dict) -> dict:
        status, data = self.post(path, json.dumps(body).encode())
        if status != 200:
            raise RuntimeError(f"{path} -> {status} {data[:200]!r}")
        return json.loads(data)

    def get(self, path: str) -> bytes:
        status, data = self._exchange(b"GET %s HTTP/1.1\r\n\r\n" % path.encode())
        if status != 200:
            raise RuntimeError(f"{path} -> {status} {data[:200]!r}")
        return data

    def close(self) -> None:
        self.sock.close()


# ----------------------------------------------------------------------
# Generated inputs
# ----------------------------------------------------------------------
def read_payload(src: str) -> bytes:
    return json.dumps({"name": "reach", "params": {"src": src}}).encode()


def write_payload(edge: Tuple[str, str]) -> bytes:
    return json.dumps({"facts": [["edge", list(edge)]]}).encode()


class Inputs:
    """Everything generated from the seed for one run of one workload."""

    def __init__(self, config: ServeConfig, seed: int, connections: int):
        self.config = config
        self.edges = gen.community_graph(seed, config.communities, config.size)
        rng = random.Random(seed * 7919 + 1)
        total = config.communities * config.size
        # Community c belongs to connection c % connections; read-only
        # workloads need no ownership and let every connection read it all.
        self.owned: List[List[str]] = [[] for _ in range(connections)]
        for index in range(total):
            owner = (index // config.size) % connections if config.write_share else None
            for k in range(connections):
                if owner is None or owner == k:
                    self.owned[k].append(gen.node(index))
        if config.hot:
            hot = [gen.node(i) for i in rng.sample(range(total), config.hot)]
            self.owned = [hot for _ in range(connections)]
        # Materialized bindings: the first node of each connection's first
        # communities, so scratch edges do land in maintained views.
        self.materialized: List[List[str]] = [[] for _ in range(connections)]
        for m in range(config.materialized):
            k = m % connections
            community = k + connections * (m // connections)
            self.materialized[k].append(gen.node(community * config.size))

    def install(self, client: Client) -> None:
        """Register, bulk-load, materialize, and force the first prepare."""
        client.post_json(
            "/register",
            {"name": "reach", "source": gen.REACH_PROGRAM, "transforms": ["magic"]},
        )
        added = client.post_json(
            "/add_facts", {"facts": [["edge", list(edge)] for edge in self.edges]}
        )
        if added != {"added": len(self.edges)}:
            raise RuntimeError(f"bulk load acknowledged {added}")
        for bindings in self.materialized:
            for src in bindings:
                client.post_json("/materialize", {"name": "reach", "params": {"src": src}})
        client.post_json("/execute", {"name": "reach", "params": {"src": gen.node(0)}})


class Connection:
    """One closed-loop caller: its seeded operation stream and its log."""

    def __init__(self, inputs: Inputs, index: int, seed: int):
        config = inputs.config
        self.rng = random.Random(seed * 104729 + index)
        self.index = index
        self.nodes = inputs.owned[index]
        self.materialized = inputs.materialized[index]
        self.write_share = config.write_share
        self.materialized_share = config.materialized_share if self.materialized else 0.0
        self.block: List[str] = []
        self.pending: List[Tuple[str, str]] = []
        self.pending_key: Tuple = ()
        self.payloads: Dict[str, bytes] = {}
        self.read_latencies: List[float] = []
        self.write_latencies: List[float] = []
        # (src, pending edges at the time, body checksum) per read, and
        # (path, reply bytes) per write; bodies are kept once per checksum.
        self.reads: List[Tuple[str, Tuple, Tuple[int, int]]] = []
        self.writes: List[Tuple[str, bytes]] = []
        self.bodies: Dict[Tuple[int, int], bytes] = {}
        self.failed = 0
        self.finished = 0.0

    def next_op(self) -> Tuple[str, bytes, Optional[str]]:
        """The next ``(path, payload, src)``; *src* is ``None`` for a write.

        The mix is dealt from shuffled blocks of :data:`BLOCK` operations
        holding exactly their share of writes and of materialized reads, and
        writes add an edge until :data:`MAX_PENDING` are outstanding and then
        alternate remove/add: only *which* nodes are touched is random, so a
        run's cost does not depend on how many writes the seed happened to draw.
        """
        if not self.block:
            writes = round(self.write_share * BLOCK)
            hot = round(self.materialized_share * (BLOCK - writes))
            self.block = ["w"] * writes + ["m"] * hot + ["r"] * (BLOCK - writes - hot)
            self.rng.shuffle(self.block)
        kind = self.block.pop()
        rng = self.rng
        if kind == "w":
            pending = self.pending
            if len(pending) >= MAX_PENDING:
                edge = pending.pop(0)
                path = "/remove_facts"
            else:
                used = {target for _, target in pending}
                slot = next(
                    s for s in range(MAX_PENDING) if f"x{self.index}_{s}" not in used
                )
                edge = (rng.choice(self.nodes), f"x{self.index}_{slot}")
                pending.append(edge)
                path = "/add_facts"
            self.pending_key = tuple(pending)
            return path, write_payload(edge), None
        src = rng.choice(self.materialized if kind == "m" else self.nodes)
        payload = self.payloads.get(src)
        if payload is None:
            payload = self.payloads[src] = read_payload(src)
        return "/execute", payload, src

    def run(self, client: Client, deadline: Optional[float], count: Optional[int], tracer=None) -> None:
        """Issue operations until *deadline* (perf_counter) or for *count*."""
        clock = time.perf_counter
        done = 0
        while (deadline is None or clock() < deadline) and (count is None or done < count):
            path, payload, src = self.next_op()
            if tracer is not None:
                tracer.op_id += 1
                root = tracer.open("client.request")
                anchor = tracer.open("client.roundtrip", anchor=True)
            start = clock()
            status, data = client.post(path, payload)
            elapsed = clock() - start
            if tracer is not None:
                tracer.close(anchor, anchor=True)
            done += 1
            if status != 200:
                self.failed += 1
            elif src is None:
                self.write_latencies.append(elapsed)
                self.writes.append((path, data))
            else:
                self.read_latencies.append(elapsed)
                key = (len(data), zlib.crc32(data))
                if key not in self.bodies:
                    self.bodies[key] = data
                self.reads.append((src, self.pending_key, key))
            if tracer is not None:
                tracer.close(root)
        self.finished = clock()

    def reset_log(self) -> None:
        self.read_latencies, self.write_latencies = [], []
        self.reads, self.writes, self.bodies = [], [], {}


def drive(connections, clients, seconds=None, count=None, tracer=None) -> float:
    """Run every connection's loop concurrently; returns the wall seconds."""
    start = time.perf_counter()
    deadline = start + seconds if seconds is not None else None
    threads = [
        threading.Thread(target=c.run, args=(client, deadline, count, tracer))
        for c, client in zip(connections, clients)
    ]
    if len(threads) == 1:
        connections[0].run(clients[0], deadline, count, tracer)
    else:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    return max(c.finished for c in connections) - start


# ----------------------------------------------------------------------
# Verification against the client's own edge model
# ----------------------------------------------------------------------
class Model:
    """BFS over the generated edges plus a connection's pending scratch edges."""

    def __init__(self, edges):
        self.adj = reference.adjacency(edges)
        self.memo: Dict[Tuple, frozenset] = {}

    def answers(self, src: str, pending: Tuple) -> frozenset:
        key = (src, pending)
        found = self.memo.get(key)
        if found is None:
            if pending:
                adj = dict(self.adj)
                for u, v in pending:
                    adj[u] = adj.get(u, []) + [v]
            else:
                adj = self.adj
            found = self.memo[key] = frozenset(reference.reach_from(adj, src))
        return found


def check_logs(connections, model: Model) -> Tuple[int, int, int]:
    """Replay every logged reply; returns (checked, wrong, answers seen)."""
    checked = wrong = answer_rows = 0
    for connection in connections:
        parsed = {
            key: frozenset(row[0] for row in json.loads(body)["answers"])
            for key, body in connection.bodies.items()
        }
        for src, pending, key in connection.reads:
            checked += 1
            answer_rows += len(parsed[key])
            if parsed[key] != model.answers(src, pending):
                wrong += 1
        for path, data in connection.writes:
            checked += 1
            expected = {"added": 1} if path == "/add_facts" else {"removed": 1}
            if json.loads(data) != expected:
                wrong += 1
    return checked, wrong, answer_rows


def fix_log_tail(client: Client, connection: Connection) -> None:
    """Snapshot, then exactly ``TAIL_RECORDS`` more acknowledged writes.

    How long a crashed write workload takes to come back depends on how many
    log records follow its last snapshot — anything from 0 to 255, by where
    the run happened to stop (0.64 or 0.99 s here).  Recovery is measured
    from a fixed tail instead; the last writes are then in the log only.
    """
    client.post_json("/snapshot", {})
    connection.block = ["w"] * TAIL_RECORDS
    connection.run(client, None, TAIL_RECORDS)


def check_state(client: Client, inputs: Inputs, connections, model: Model) -> Tuple[int, int]:
    """The fact count is base + pending, and every pending edge is readable."""
    checked, wrong = 1, 0
    stats = json.loads(client.get("/statistics"))
    pending = sum(len(c.pending) for c in connections)
    if stats["database_facts"] != len(inputs.edges) + pending:
        wrong += 1
    for connection in connections:
        sources = {u for u, _ in connection.pending} | set(connection.materialized)
        sources.add(connection.nodes[0])
        for src in sorted(sources):
            checked += 1
            body = client.post_json("/execute", {"name": "reach", "params": {"src": src}})
            got = frozenset(row[0] for row in body["answers"])
            if got != model.answers(src, tuple(connection.pending)):
                wrong += 1
    return checked, wrong


# ----------------------------------------------------------------------
# Untraced run: the end-to-end metrics
# ----------------------------------------------------------------------
def warm_up(config: ServeConfig, inputs: Inputs, connections, clients) -> None:
    if config.hot:
        for src in inputs.owned[0]:
            clients[0].post("/execute", read_payload(src))
    drive(connections, clients, count=max(config.warmup // len(connections), 1))
    for connection in connections:
        connection.reset_log()


def run_untraced(config: ServeConfig, seed: int, seconds: float, work: Path) -> dict:
    connections_n = min(2, len(ALL_CORES))
    inputs = Inputs(config, seed, connections_n)
    model = Model(inputs.edges)

    setups, server, data_dir = [], None, None
    try:
        for attempt in range(config.setups):
            if server is not None:
                server.kill()
                shutil.rmtree(data_dir)
            data_dir = work / f"data{attempt}"
            start = time.perf_counter()
            server = ServerProcess(data_dir, config.snapshot_every)
            client = Client(server.port)
            inputs.install(client)
            setups.append(time.perf_counter() - start)
            client.close()

        connections = [Connection(inputs, k, seed) for k in range(connections_n)]
        clients = [Client(server.port) for _ in connections]
        warm_up(config, inputs, connections, clients)
        gc.collect()
        gc.freeze()
        wall = drive(connections, clients, seconds=seconds)
        gc.unfreeze()
        reads = [s for c in connections for s in c.read_latencies]
        writes = [s for c in connections for s in c.write_latencies]

        if config.write_share:
            fix_log_tail(clients[0], connections[0])
        attempted = sum(len(c.reads) + len(c.writes) + c.failed for c in connections)
        failed = sum(c.failed for c in connections)
        checked, wrong = check_state(clients[0], inputs, connections, model)
        attempted += checked
        failed += wrong
        peak_rss = server.peak_rss_mb()
        for client in clients:
            client.close()

        # Crash after the last acknowledgement, restart on the same
        # directory, and wait for the first correct answer.
        probe = connections[0].nodes[0]
        expected = model.answers(probe, tuple(connections[0].pending))
        recoveries = []
        for _ in range(config.recoveries):
            start = time.perf_counter()
            server.kill()
            server = ServerProcess(data_dir, config.snapshot_every)
            client = Client(server.port)
            body = client.post_json("/execute", {"name": "reach", "params": {"src": probe}})
            recoveries.append(time.perf_counter() - start)
            attempted += 1
            if frozenset(row[0] for row in body["answers"]) != expected:
                failed += 1
            client.close()
        # With --fsync always every acknowledged write was flushed before
        # its reply, so all of them must be readable after the SIGKILL.
        client = Client(server.port)
        checked, wrong = check_state(client, inputs, connections, model)
        client.close()
        attempted += checked
        failed += wrong
    finally:
        if server is not None:
            server.kill()

    _, wrong, _ = check_logs(connections, model)
    failed += wrong

    primary = writes if config.write_share else reads
    return {
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "setup_s": statistics.median(setups),
            "ops_per_s": (len(reads) + len(writes)) / wall,
            "op_p50_ms": percentile(primary, 0.50) * 1e3,
            "op_p95_ms": percentile(primary, 0.95) * 1e3,
            "cold_start_s": statistics.median(recoveries),
            "peak_rss_mb": peak_rss,
        },
        "samples": {
            "setup_s": len(setups),
            "ops_per_s": len(reads) + len(writes),
            "op_p50_ms": len(primary),
            "op_p95_ms": len(primary),
            "cold_start_s": len(recoveries),
            "peak_rss_mb": 1,
        },
        "detail": {
            "connections": connections_n,
            "reads": len(reads),
            "writes": len(writes),
            # The read/write split of this two-connection run; un-gated.
            **{
                f"{kind}_{label}_ms": percentile(samples, q) * 1e3
                for kind, samples in (("read", reads), ("write", writes))
                for label, q in (("p50", 0.50), ("p95", 0.95), ("p99", 0.99))
            },
            "setups_s": setups,
            "recoveries_s": recoveries,
        },
    }


# ----------------------------------------------------------------------
# Traced run: the per-layer metrics
# ----------------------------------------------------------------------
def handler_seconds(client: Client) -> Tuple[float, int]:
    """Sum and count of the server's own request-latency histograms."""
    total, count = 0.0, 0
    for line in client.get("/metrics").decode().splitlines():
        if line.startswith("repro_http_request_seconds_sum{"):
            total += float(line.rsplit(" ", 1)[1])
        elif line.startswith("repro_http_request_seconds_count{"):
            count += int(line.rsplit(" ", 1)[1])
    return total, count


def json_codec_seconds(connection: Connection, reads, writes) -> float:
    """Re-run the codec calls ``http.py`` makes on the recorded bodies."""
    clock = time.perf_counter
    spent = 0.0
    parsed = {key: json.loads(body) for key, body in connection.bodies.items()}
    for src, _pending, key in reads:
        payload, result = connection.payloads[src], parsed[key]
        start = clock()
        json.loads(payload.decode("utf-8"))
        json.dumps(result).encode("utf-8")
        spent += clock() - start
    for _path, data in writes:
        result = json.loads(data)
        start = clock()
        json.dumps(result).encode("utf-8")
        spent += clock() - start
    return spent


def run_traced(config: ServeConfig, seed: int, seconds: float, work: Path, out=None) -> dict:
    """Host the server in this process, one connection, fixed operation counts.

    Phases: traced set-up; untraced warm-up; an untraced baseline of
    ``count`` operations (client-observed latencies, the server's own
    handler histogram, and the denominator of the tracing overhead); the
    traced ``count`` operations the steady layer times come from; a traced
    recovery of a copy of the data directory as the crash left it.
    """
    from repro.datalog.server.durable import DurableDatalogService
    from repro.datalog.server.snapshot import SnapshotStore

    from . import spec
    from .trace import Tracer

    count = max(int(seconds * config.traced_rate), 10)
    inputs = Inputs(config, seed, 1)
    model = Model(inputs.edges)
    tracer = Tracer()
    data_dir = work / "data"
    server = None
    tracer.install()
    try:
        server = InProcessServer(data_dir, config.snapshot_every)
        client = Client(server.port)
        with tracer.span("harness.setup", anchor=True):
            inputs.install(client)
        tracer.restore()

        baseline = Connection(inputs, 0, seed)
        warm_up(config, inputs, [baseline], [client])
        gc.collect()
        gc.freeze()
        handled_before = handler_seconds(client)
        baseline_wall = drive([baseline], [client], count=count)
        handled_after = handler_seconds(client)
        # Retire the baseline's scratch edges so that the traced connection,
        # seeded alike, issues the very same operations from the same state.
        for edge in baseline.pending:
            client.post_json("/remove_facts", {"facts": [["edge", list(edge)]]})
        baseline.pending = []
        connection = Connection(inputs, 0, seed)

        tracer.install()
        steady_start, counts_before = tracer.mark()
        stats_before = server.durable.statistics()
        drive([connection], [client], count=count, tracer=tracer)
        steady_end, counts_after = tracer.mark()
        stats_after = server.durable.statistics()
        traced_reads, traced_writes = list(connection.reads), list(connection.writes)
        gc.unfreeze()

        if config.write_share:
            fix_log_tail(client, connection)
        attempted = len(baseline.reads) + len(baseline.writes) + len(connection.reads)
        attempted += len(connection.writes) + baseline.failed + connection.failed
        failed = baseline.failed + connection.failed
        checked, wrong = check_state(client, inputs, [connection], model)
        attempted, failed = attempted + checked, failed + wrong
        snapshot_path = SnapshotStore(data_dir).path
        snapshot_bytes = os.path.getsize(snapshot_path) if os.path.exists(snapshot_path) else 0

        # The directory as a SIGKILL would leave it: no drain, no final
        # snapshot.  Recover a copy of it under the wrappers.
        crashed = work / "crashed"
        shutil.copytree(data_dir, crashed)
        recover_start, _ = tracer.mark()
        with tracer.span("harness.recover"):
            recovered = DurableDatalogService(
                crashed, fsync="always", snapshot_every=config.snapshot_every
            )
        tracer.restore()
        probe = connection.nodes[0]
        answers = recovered.execute("reach", {"src": probe})
        attempted += 1
        if frozenset(row[0] for row in answers) != model.answers(probe, tuple(connection.pending)):
            failed += 1
        recovered.close()
        client.close()
    finally:
        tracer.restore()
        if server is not None:
            server.stop()

    _, wrong, answer_rows = check_logs([baseline, connection], model)
    failed += wrong

    cold = tracer.self_times(0, steady_start)
    for name, spent in tracer.self_times(recover_start).items():
        cold[name] = cold.get(name, 0.0) + spent
    steady = tracer.self_times(steady_start, steady_end)
    delta = {key: counts_after.get(key, 0.0) - counts_before.get(key, 0.0) for key in counts_after}
    lookups = sum(stats_after[k] - stats_before[k] for k in ("cache_hits", "cache_misses"))
    traced_wall = sum(tracer.durations("client.request", steady_start, steady_end))
    handled = handled_after[1] - handled_before[1]
    direct = {
        "engine.iterations": delta.get("engine.iterations", 0.0) / count,
        "engine.facts_derived": delta.get("engine.facts_derived", 0.0) / count,
        "executor.firings": delta.get("executor.firings", 0.0) / count,
        "service.cache_hit_ratio": (
            (stats_after["cache_hits"] - stats_before["cache_hits"]) / lookups if lookups else 0.0
        ),
        "service.view_hit_ratio": (
            (stats_after["view_hits"] - stats_before["view_hits"]) / len(traced_reads)
            if traced_reads else 0.0
        ),
        "server.wal.records": delta.get("server.wal.records", 0.0),
        "server.wal.bytes_per_fact_byte": (
            delta["server.wal.bytes"] / delta["server.wal.fact_bytes"]
            if delta.get("server.wal.fact_bytes") else 0.0
        ),
        "server.snapshot.count": stats_after["snapshots_taken"] - stats_before["snapshots_taken"],
        "server.snapshot.bytes": snapshot_bytes,
        "server.http.handler_mean_ms": (
            (handled_after[0] - handled_before[0]) / handled * 1e3 if handled else 0.0
        ),
        "server.http.json_ms": (
            json_codec_seconds(connection, traced_reads, traced_writes) / count * 1e3
        ),
        "client.answers_per_read": (
            answer_rows / (2 * len(traced_reads)) if traced_reads else 0.0
        ),
        "trace.overhead_ratio": traced_wall / baseline_wall if baseline_wall else 0.0,
    }
    for kind, samples in (
        ("read", baseline.read_latencies), ("write", baseline.write_latencies)
    ):
        for label, q in (("p50", 0.50), ("p95", 0.95), ("p99", 0.99)):
            direct[f"client.{kind}_{label}_ms"] = percentile(samples, q) * 1e3
    if out is not None:
        tracer.dump(Path(out) / f"{config.name}.spans.json")
    return {
        "attempted": attempted,
        "failed": failed,
        "metrics": spec.layer_metrics(cold, 1, steady, count, direct),
        "samples": {"steady_ops": count, "cold_events": 1, "spans": len(tracer.spans)},
        "detail": {"traced_wall_s": traced_wall, "baseline_wall_s": baseline_wall},
    }
