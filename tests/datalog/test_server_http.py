"""End-to-end tests of the asyncio HTTP server: protocol, backpressure,
drain, metrics, the multi-process load driver, and kill -9 recovery."""

import asyncio
import http.client
import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.datalog.server.durable import DurableDatalogService
from repro.datalog.server.http import DatalogHTTPServer
from repro.datalog.server.runner import run_load

SRC_DIR = str(Path(__file__).resolve().parents[2] / "src")

REACH = """\
?reach($src, Y)
reach(X, Y) :- edge(X, Y).
reach(X, Y) :- reach(X, Z), edge(Z, Y).
"""


class ServerHandle:
    """A DatalogHTTPServer running on a dedicated event-loop thread."""

    def __init__(self, data_dir, **server_kwargs):
        self.durable = DurableDatalogService(
            data_dir, fsync="never", snapshot_every=10_000
        )
        self.server = DatalogHTTPServer(self.durable, port=0, **server_kwargs)
        self.loop = asyncio.new_event_loop()
        self._stop = None
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
        assert started.wait(10), "server did not start"

    @property
    def port(self) -> int:
        return self.server.port

    def stop(self) -> None:
        if self.thread.is_alive():
            self.loop.call_soon_threadsafe(self._stop.set)
            self.thread.join(timeout=30)
        self.loop.close()

    # One-shot request helpers (fresh connection per call keeps tests simple).
    def post(self, path, body):
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        try:
            conn.request(
                "POST", path, json.dumps(body), {"Content-Type": "application/json"}
            )
            response = conn.getresponse()
            return response.status, json.loads(response.read() or b"{}"), response
        finally:
            conn.close()

    def get(self, path):
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        try:
            conn.request("GET", path)
            response = conn.getresponse()
            return response.status, response.read().decode(), response
        finally:
            conn.close()


@pytest.fixture
def server(tmp_path):
    handle = ServerHandle(tmp_path / "data")
    yield handle
    handle.stop()


def install_reach(handle):
    status, body, _ = handle.post("/register", {"name": "reach", "source": REACH})
    assert status == 200, body
    status, body, _ = handle.post(
        "/add_facts",
        {"facts": [["edge", ["a", "b"]], ["edge", ["b", "c"]], ["edge", ["c", "d"]]]},
    )
    assert (status, body) == (200, {"added": 3})


# ----------------------------------------------------------------------
# Protocol happy path and error mapping
# ----------------------------------------------------------------------
class TestEndpoints:
    def test_register_execute_write_cycle(self, server):
        install_reach(server)
        status, body, _ = server.post(
            "/execute", {"name": "reach", "params": {"src": "a"}}
        )
        assert (status, body) == (200, {"answers": [["b"], ["c"], ["d"]]})
        status, body, _ = server.post(
            "/remove_facts", {"facts": [["edge", ["c", "d"]]]}
        )
        assert (status, body) == (200, {"removed": 1})
        status, body, _ = server.post(
            "/execute", {"name": "reach", "params": {"src": "a"}}
        )
        assert body == {"answers": [["b"], ["c"]]}

    def test_execute_many_and_prepare(self, server):
        install_reach(server)
        status, body, _ = server.post("/prepare", {"name": "reach"})
        assert (status, body) == (200, {"parameters": ["src"]})
        status, body, _ = server.post(
            "/execute_many",
            {"name": "reach", "bindings": [{"src": "a"}, {"src": "c"}, {"src": "zzz"}]},
        )
        assert body == {"answers": [[["b"], ["c"], ["d"]], [["d"]], []]}

    def test_materialize_and_dematerialize(self, server):
        install_reach(server)
        status, body, _ = server.post(
            "/materialize", {"name": "reach", "params": {"src": "a"}}
        )
        assert (status, body) == (200, {"ok": True})
        status, body, _ = server.get("/statistics")
        assert json.loads(body)["materialized_views"] == 1
        status, body, _ = server.post(
            "/dematerialize", {"name": "reach", "params": {"src": "a"}}
        )
        assert (status, body) == (200, {"dropped": True})

    def test_healthz_and_statistics(self, server):
        status, body, _ = server.get("/healthz")
        assert status == 200
        payload = json.loads(body)
        assert payload["status"] == "ok" and payload["draining"] is False
        install_reach(server)
        status, body, _ = server.get("/statistics")
        stats = json.loads(body)
        assert stats["database_facts"] == 3
        assert stats["wal_records"] == 2  # register + one batch
        assert "snapshots_taken" in stats

    def test_error_mapping(self, server):
        status, body, _ = server.post("/execute", {"name": "missing"})
        assert status == 404 and "missing" in body["error"]
        status, body, _ = server.post("/register", {"name": "x"})
        assert status == 400 and "source" in body["error"]
        status, body, _ = server.post("/no_such_endpoint", {})
        assert status == 404
        status, _, _ = server.get("/execute")
        assert status == 405
        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=30)
        try:
            conn.request(
                "POST", "/execute", b"{not json", {"Content-Type": "application/json"}
            )
            response = conn.getresponse()
            assert response.status == 400
            assert "invalid JSON" in json.loads(response.read())["error"]
        finally:
            conn.close()
        status, body, _ = server.post(
            "/register", {"name": "bad", "source": REACH, "transforms": ["bogus"]}
        )
        assert status == 400 and "unknown transform" in body["error"]

    def test_register_rejects_invalid_programs_without_wal_record(self, server):
        """Unsafe or unstratifiable programs get a 400 with the same
        diagnostic every other surface prints, and — because the durable
        layer applies before it logs — leave no WAL record behind."""
        install_reach(server)
        records_before = server.durable._wal.record_count
        status, body, _ = server.post(
            "/register",
            {"name": "win", "source": "?win(X)\nwin(X) :- move(X, Y), not win(Y)."},
        )
        assert status == 400
        assert "not stratifiable" in body["error"]
        assert "win -> win" in body["error"]
        status, body, _ = server.post(
            "/register",
            {"name": "loose", "source": "?u(X)\nu(X) :- n(X), not r(X, Z)."},
        )
        assert status == 400 and "unsafe" in body["error"]
        assert server.durable._wal.record_count == records_before
        status, body, _ = server.get("/statistics")
        assert json.loads(body)["registered_queries"] == 1

    def test_register_accepts_stratified_negation_and_aggregates(self, server):
        source = """
        ?u(X)
        n(X) :- edge(X, Y).
        n(Y) :- edge(X, Y).
        r(Y) :- edge(a, Y).
        r(Y) :- r(X), edge(X, Y).
        u(X) :- n(X), not r(X).
        """
        status, body, _ = server.post(
            "/register", {"name": "unreach", "source": source}
        )
        assert status == 200, body
        server.post(
            "/add_facts",
            {"facts": [["edge", ["a", "b"]], ["edge", ["c", "d"]]]},
        )
        status, body, _ = server.post("/execute", {"name": "unreach"})
        assert (status, body) == (200, {"answers": [["a"], ["c"], ["d"]]})

    def test_keep_alive_serves_multiple_requests(self, server):
        install_reach(server)
        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=30)
        try:
            for _ in range(3):
                conn.request(
                    "POST",
                    "/execute",
                    json.dumps({"name": "reach", "params": {"src": "a"}}),
                    {"Content-Type": "application/json"},
                )
                response = conn.getresponse()
                assert response.status == 200
                assert json.loads(response.read())["answers"]
        finally:
            conn.close()


# ----------------------------------------------------------------------
# Malformed framing gets an HTTP error, not a dropped connection
# ----------------------------------------------------------------------
class TestProtocolErrors:
    @staticmethod
    def raw_exchange(port, data):
        """Send raw bytes, reading concurrently until the server closes.

        Reading in parallel matters: the server may answer (and reset the
        connection) while the request is still being sent — a sequential
        send-then-read would lose the response to the RST.
        """
        import socket

        received = []
        with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:

            def drain():
                try:
                    while chunk := sock.recv(4096):
                        received.append(chunk)
                except OSError:
                    pass

            reader = threading.Thread(target=drain)
            reader.start()
            try:
                sock.sendall(data)
            except OSError:
                pass  # server answered and reset mid-send; the reader has it
            reader.join(timeout=10)
        return b"".join(received)

    def test_malformed_request_line_gets_400(self, server):
        response = self.raw_exchange(server.port, b"GARBAGE\r\n\r\n")
        assert response.startswith(b"HTTP/1.1 400 ")
        assert b"malformed request line" in response
        # The server is still healthy afterwards.
        assert server.get("/healthz")[0] == 200

    def test_non_numeric_content_length_gets_400(self, server):
        response = self.raw_exchange(
            server.port,
            b"POST /healthz HTTP/1.1\r\nContent-Length: banana\r\n\r\n",
        )
        assert response.startswith(b"HTTP/1.1 400 ")
        assert b"Content-Length" in response

    def test_negative_content_length_gets_400(self, server):
        response = self.raw_exchange(
            server.port,
            b"POST /healthz HTTP/1.1\r\nContent-Length: -5\r\n\r\n",
        )
        assert response.startswith(b"HTTP/1.1 400 ")

    def test_oversized_header_block_gets_413(self, server):
        request = (
            b"GET /healthz HTTP/1.1\r\nX-Junk: " + b"a" * (128 * 1024) + b"\r\n\r\n"
        )
        response = self.raw_exchange(server.port, request)
        assert response.startswith(b"HTTP/1.1 413 ")
        assert b"header block too large" in response

    @pytest.mark.parametrize(
        "request_head",
        [
            b"GET /healthz HTTP/1.1\r\nConnection: Close\r\n\r\n",
            b"GET /healthz HTTP/1.0\r\n\r\n",
        ],
        ids=["connection-close-any-case", "http-1.0-without-keep-alive"],
    )
    def test_connection_is_closed_when_the_client_asks(self, server, request_head):
        # raw_exchange returns when the server closes the connection; it
        # would sit out the 10 s socket timeout if the server kept it open.
        start = time.monotonic()
        response = self.raw_exchange(server.port, request_head)
        assert response.startswith(b"HTTP/1.1 200 ")
        assert b"Connection: close\r\n" in response
        assert time.monotonic() - start < 5

    def test_chunked_request_gets_501_and_is_not_reparsed(self, server):
        response = self.raw_exchange(
            server.port,
            b"POST /execute HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
            b"5\r\nhello\r\n0\r\n\r\n",
        )
        assert response.startswith(b"HTTP/1.1 501 ")
        assert b"Transfer-Encoding" in response
        # One reply, then the close: the chunks were not read as a request.
        assert response.count(b"HTTP/1.1 ") == 1
        assert server.get("/healthz")[0] == 200

    def test_expect_100_continue_gets_the_interim_reply(self, server):
        import socket

        install_reach(server)
        body = json.dumps({"name": "reach", "params": {"src": "a"}}).encode()
        with socket.create_connection(("127.0.0.1", server.port), timeout=10) as sock:
            sock.sendall(
                b"POST /execute HTTP/1.1\r\nExpect: 100-Continue\r\n"
                b"Connection: close\r\n"
                + f"Content-Length: {len(body)}\r\n\r\n".encode()
            )
            # The body is withheld until the server says to go on (curl
            # waits a full second for this before giving up and sending).
            assert sock.recv(4096) == b"HTTP/1.1 100 Continue\r\n\r\n"
            sock.sendall(body)
            received = b""
            while chunk := sock.recv(4096):
                received += chunk
        assert received.startswith(b"HTTP/1.1 200 ")
        assert json.loads(received.partition(b"\r\n\r\n")[2]) == {
            "answers": [["b"], ["c"], ["d"]]
        }


# ----------------------------------------------------------------------
# Backpressure and drain
# ----------------------------------------------------------------------
class TestAdmissionControl:
    def test_write_queue_full_yields_429_with_retry_after(self, tmp_path):
        handle = ServerHandle(tmp_path / "data", max_pending_writes=0)
        try:
            status, body, response = handle.post(
                "/add_facts", {"facts": [["edge", ["a", "b"]]]}
            )
            assert status == 429
            assert "write queue full" in body["error"]
            assert response.getheader("Retry-After") == "1"
            # Reads are not admission-controlled.
            assert handle.get("/healthz")[0] == 200
        finally:
            handle.stop()

    def test_drain_rejects_writes_serves_reads(self, server):
        install_reach(server)
        server.durable.begin_drain()
        try:
            status, body, response = server.post(
                "/add_facts", {"facts": [["edge", ["x", "y"]]]}
            )
            assert status == 503
            assert response.getheader("Retry-After") is not None
            status, body, _ = server.post(
                "/execute", {"name": "reach", "params": {"src": "a"}}
            )
            assert status == 200 and body["answers"]
            status, body, _ = server.get("/healthz")
            assert json.loads(body)["draining"] is True
        finally:
            server.durable.service.end_drain()

    def test_shutdown_severs_idle_keep_alive_connections(self, tmp_path):
        """A connection parked between keep-alive requests must not stall
        the drain: the server severs it once in-flight work finished."""
        handle = ServerHandle(tmp_path / "data")
        conn = http.client.HTTPConnection("127.0.0.1", handle.port, timeout=10)
        try:
            conn.request("GET", "/healthz")
            assert conn.getresponse().read()  # connection now idle, held open
            handle.stop()
            assert not handle.thread.is_alive()
        finally:
            conn.close()

    def test_shutdown_completes_under_sustained_keep_alive_reads(self, tmp_path):
        """Reads hammering over keep-alive connections must not starve the
        drain: each open connection is answered at most once more (with
        Connection: close) and the listener refuses replacements."""
        handle = ServerHandle(tmp_path / "data")
        stop_flag = threading.Event()
        served = []

        def hammer():
            conn = http.client.HTTPConnection("127.0.0.1", handle.port, timeout=5)
            try:
                while not stop_flag.is_set():
                    try:
                        conn.request("GET", "/healthz")
                        response = conn.getresponse()
                        response.read()
                        served.append(response.status)
                    except Exception:
                        conn.close()
                        conn = http.client.HTTPConnection(
                            "127.0.0.1", handle.port, timeout=5
                        )
            finally:
                conn.close()

        threads = [threading.Thread(target=hammer, daemon=True) for _ in range(2)]
        for thread in threads:
            thread.start()
        try:
            deadline = threading.Event()
            while len(served) < 10 and not deadline.wait(0.01):
                pass  # let real traffic flow before draining
            handle.stop()  # would hang (and fail the join) if reads starve it
            assert not handle.thread.is_alive()
        finally:
            stop_flag.set()
            for thread in threads:
                thread.join(timeout=10)
        assert len(served) >= 10

    def test_graceful_stop_snapshots_state(self, tmp_path):
        handle = ServerHandle(tmp_path / "data")
        install_reach(handle)
        handle.stop()
        assert os.path.getsize(tmp_path / "data" / "wal.log") == 0
        recovered = DurableDatalogService(tmp_path / "data")
        assert recovered.recovery.snapshot_loaded
        assert recovered.execute("reach", {"src": "a"}) == frozenset(
            {("b",), ("c",), ("d",)}
        )
        recovered.close()


# ----------------------------------------------------------------------
# Metrics endpoint
# ----------------------------------------------------------------------
class TestMetricsEndpoint:
    def test_prometheus_text_exposition(self, server):
        install_reach(server)
        server.post("/execute", {"name": "reach", "params": {"src": "a"}})
        server.post("/execute", {"name": "reach", "params": {"src": "a"}})
        status, text, response = server.get("/metrics")
        assert status == 200
        assert response.getheader("Content-Type").startswith("text/plain")
        assert "# TYPE repro_datalog_executions counter" in text
        assert "# TYPE repro_datalog_database_facts gauge" in text
        assert re.search(
            r'repro_http_requests_total\{endpoint="execute",status="200"\} 2', text
        )
        assert 'repro_http_request_seconds_bucket{endpoint="execute",le="+Inf"}' in text
        assert "repro_http_pending_writes 0" in text

    def test_unrouted_targets_share_one_series(self, server):
        """The request target is client-chosen: it must not mint labels."""

        def series(text):
            return [
                line
                for line in text.splitlines()
                if line.startswith(("repro_http_requests_total{", "repro_http_request_seconds_count{"))
            ]

        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=30)
        try:
            for attempt in range(1001):
                conn.request("GET", f"/no-such-{attempt}?x={attempt}")
                response = conn.getresponse()
                response.read()
                assert response.status == 404
                if attempt == 0:
                    before = series(server.get("/metrics")[1])
        finally:
            conn.close()
        after = series(server.get("/metrics")[1])
        # /metrics itself is the one series the first scrape could not show.
        assert len(after) == len(before) + 2
        assert 'repro_http_requests_total{endpoint="unknown",status="404"} 1001' in after
        assert not any("no-such" in line for line in after)

    def test_counters_stay_monotonic_across_writes_and_scrapes(self, server):
        install_reach(server)
        for step in range(3):
            server.post("/execute", {"name": "reach", "params": {"src": "a"}})
            server.post("/add_facts", {"facts": [["edge", ["n", str(step)]]]})
            status, _, _ = server.get("/metrics")
            assert status == 200  # a regression would surface as 500


# ----------------------------------------------------------------------
# Hits are answered by the event loop: no pool thread, no service lock
# ----------------------------------------------------------------------
class TestHitPath:
    READ_A = {"name": "reach", "params": {"src": "a"}}

    @staticmethod
    def raw_post(handle, path, body):
        """``(status, body bytes)`` — undecoded, to compare replies bytewise."""
        conn = http.client.HTTPConnection("127.0.0.1", handle.port, timeout=30)
        try:
            conn.request("POST", path, json.dumps(body))
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    @staticmethod
    def stats(handle):
        return json.loads(handle.get("/statistics")[1])

    def test_busy_pool_does_not_delay_hits_or_healthz(self, tmp_path):
        handle = ServerHandle(tmp_path / "data", executor_workers=1)
        try:
            install_reach(handle)
            assert handle.post("/register", {"name": "tc", "source": UNBOUND_TC})[0] == 200
            nodes = 500  # ~1.1s of evaluation on the pool's only thread
            ring = [["edge", [f"n{i}", f"n{(i + 1) % nodes}"]] for i in range(nodes)]
            assert handle.post("/add_facts", {"facts": ring})[0] == 200
            _, cached = self.raw_post(handle, "/execute", self.READ_A)  # the miss
            slow = threading.Thread(
                target=handle.post, args=("/execute", {"name": "tc", "fresh": True})
            )
            slow.start()
            deadline = time.monotonic() + 10
            while not handle.server._inflight and time.monotonic() < deadline:
                time.sleep(0.001)
            assert handle.server._inflight, "the slow query never reached the server"
            assert self.raw_post(handle, "/execute", self.READ_A) == (200, cached)
            assert handle.get("/healthz")[0] == 200
            # Both were answered while the slow query still had the pool: its
            # engine run has not been counted yet (/statistics would queue
            # behind it, so the counter is read directly).
            assert handle.durable.statistics()["executions"] == 1
            slow.join(timeout=30)
            assert not slow.is_alive()
            stats = self.stats(handle)
            assert (stats["cache_hits"], stats["executions"]) == (1, 2)
        finally:
            handle.stop()

    def test_held_service_lock_sends_the_request_to_the_pool(self, server):
        install_reach(server)
        _, cached = self.raw_post(server, "/execute", self.READ_A)
        held, release, replies = threading.Event(), threading.Event(), []

        def hold():
            with server.durable.service._lock:
                held.set()
                release.wait(10)

        holder = threading.Thread(target=hold)
        reader = threading.Thread(
            target=lambda: replies.append(self.raw_post(server, "/execute", self.READ_A))
        )
        holder.start()
        try:
            assert held.wait(10)
            reader.start()
            # The loop is not the one waiting: it keeps answering.
            assert server.get("/healthz")[0] == 200
            reader.join(timeout=0.3)
            assert reader.is_alive() and not replies  # parked on a pool thread
        finally:
            release.set()
            holder.join(10)
        reader.join(timeout=10)
        assert replies == [(200, cached)]
        stats = self.stats(server)
        assert (stats["cache_hits"], stats["cache_misses"]) == (1, 1)

    def test_hit_bytes_equal_miss_bytes(self, server):
        install_reach(server)
        miss = self.raw_post(server, "/execute", self.READ_A)
        first_hit = self.raw_post(server, "/execute", self.READ_A)
        second_hit = self.raw_post(server, "/execute", self.READ_A)
        assert miss == first_hit == second_hit
        assert miss == (200, b'{"answers": [["b"], ["c"], ["d"]]}')
        stats = self.stats(server)
        assert (stats["cache_hits"], stats["cache_misses"], stats["executions"]) == (2, 1, 1)

    @pytest.mark.parametrize("materialized", [False, True])
    def test_a_write_between_reads_never_serves_the_old_payload(self, server, materialized):
        install_reach(server)
        if materialized:
            assert server.post("/materialize", self.READ_A)[0] == 200

        def read():
            # Twice: whichever of the two is the first hit encodes the payload.
            first = self.raw_post(server, "/execute", self.READ_A)
            assert self.raw_post(server, "/execute", self.READ_A) == first
            return json.loads(first[1])["answers"]

        assert read() == [["b"], ["c"], ["d"]]
        assert server.post("/add_facts", {"facts": [["edge", ["d", "e"]]]})[0] == 200
        assert read() == [["b"], ["c"], ["d"], ["e"]]
        assert server.post("/remove_facts", {"facts": [["edge", ["b", "c"]]]})[0] == 200
        assert read() == [["b"]]
        stats = self.stats(server)
        if materialized:
            assert (stats["view_hits"], stats["cache_hits"], stats["executions"]) == (6, 0, 0)
        else:
            assert (stats["cache_hits"], stats["cache_misses"]) == (3, 3)

    @pytest.mark.parametrize(
        "extra, status, runs_engine",
        [
            ({"fresh": True}, 200, True),
            ({"engine": "naive"}, 200, True),
            ({"engine": 5}, 400, False),
            ({"engine": "no-such-engine"}, 400, False),
            ({"timeout": "fast"}, 400, False),
            ({"timeout": -1}, 400, False),
            ({"budget": {"max_disk": 1}}, 400, False),
            ({"budget": 7}, 400, False),
        ],
    )
    def test_options_behave_the_same_cached_or_not(self, server, extra, status, runs_engine):
        install_reach(server)
        request = dict(self.READ_A, **extra)
        cold = self.raw_post(server, "/execute", request)
        assert cold[0] == status
        executions = self.stats(server)["executions"]
        assert self.raw_post(server, "/execute", self.READ_A)[0] == 200  # now it is cached
        assert self.raw_post(server, "/execute", self.READ_A)[0] == 200
        before = self.stats(server)
        assert before["executions"] == executions + 1
        assert self.raw_post(server, "/execute", request) == cold
        after = self.stats(server)
        assert after["executions"] - before["executions"] == (1 if extra == {"fresh": True} else 0)
        assert after["cache_hits"] - before["cache_hits"] == (
            1 if extra == {"engine": "naive"} else 0
        )
        if runs_engine:
            assert json.loads(cold[1]) == {"answers": [["b"], ["c"], ["d"]]}

    def test_missing_name_is_400_before_the_probe(self, server):
        install_reach(server)
        status, body, _ = server.post("/execute", {"params": {"src": "a"}})
        assert status == 400 and "name" in body["error"]

    def test_hit_miss_and_view_counters_add_up_to_requests_served(self, server):
        install_reach(server)
        assert server.post("/materialize", {"name": "reach", "params": {"src": "b"}})[0] == 200
        sources = ["a", "b", "c", "a", "b", "zzz", "a", "c", "b"] * 3
        for step, src in enumerate(sources):
            if step == len(sources) // 2:
                assert server.post("/add_facts", {"facts": [["edge", ["d", "a"]]]})[0] == 200
            assert server.post("/execute", {"name": "reach", "params": {"src": src}})[0] == 200
        stats = self.stats(server)
        assert stats["view_hits"] == sources.count("b")
        assert stats["view_hits"] + stats["cache_hits"] + stats["cache_misses"] == len(sources)
        assert stats["cache_misses"] == stats["executions"]
        _, metrics, _ = server.get("/metrics")
        assert re.search(
            rf'repro_http_requests_total\{{endpoint="execute",status="200"\}} {len(sources)}$',
            metrics,
            re.M,
        )


# ----------------------------------------------------------------------
# Multi-process load driver
# ----------------------------------------------------------------------
class TestLoadDriver:
    def test_run_load_two_processes_over_real_sockets(self, server):
        report = run_load(
            "127.0.0.1", server.port, processes=2, requests_per_process=25
        )
        assert report.processes == 2
        assert report.errors == 0
        assert report.total_requests + report.rejected >= 50
        assert len(report.read_latencies) > len(report.write_latencies)
        summary = report.as_dict()
        assert summary["read_p95"] >= summary["read_p50"] > 0
        assert summary["requests_per_second"] > 0
        assert "read_p99" in summary and "write_p99" in summary


# ----------------------------------------------------------------------
# kill -9 the real subprocess server, restart, demand the exact model
# ----------------------------------------------------------------------
class TestKillAndRestart:
    def start_server(self, data_dir, *extra):
        env = dict(os.environ, PYTHONPATH=SRC_DIR)
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", str(data_dir), *extra],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
            text=True,
        )
        line = process.stdout.readline()
        match = re.match(r"READY (\S+) (\d+)", line)
        assert match, (line, process.stderr.read() if process.poll() is not None else "")
        return process, int(match.group(2))

    def request(self, port, method, path, body=None):
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
        try:
            payload = json.dumps(body) if body is not None else None
            conn.request(
                method, path, payload, {"Content-Type": "application/json"}
            )
            response = conn.getresponse()
            return response.status, json.loads(response.read() or b"{}")
        finally:
            conn.close()

    def test_sigkill_then_restart_recovers_exact_model(self, tmp_path):
        data_dir = tmp_path / "data"
        process, port = self.start_server(data_dir, "--fsync", "always")
        try:
            assert self.request(
                port, "POST", "/register", {"name": "reach", "source": REACH}
            )[0] == 200
            assert self.request(
                port,
                "POST",
                "/add_facts",
                {"facts": [["edge", ["a", "b"]], ["edge", ["b", "c"]]]},
            ) == (200, {"added": 2})
            assert self.request(
                port, "POST", "/materialize", {"name": "reach", "params": {"src": "a"}}
            )[0] == 200
            assert self.request(
                port, "POST", "/remove_facts", {"facts": [["edge", ["b", "c"]]]}
            ) == (200, {"removed": 1})
            _, reference = self.request(
                port, "POST", "/execute", {"name": "reach", "params": {"src": "a"}}
            )
            _, stats = self.request(port, "GET", "/statistics")
        finally:
            process.send_signal(signal.SIGKILL)
            process.wait(timeout=30)

        restarted, port = self.start_server(data_dir)
        try:
            _, recovered = self.request(
                port, "POST", "/execute", {"name": "reach", "params": {"src": "a"}}
            )
            _, recovered_stats = self.request(port, "GET", "/statistics")
            assert recovered == reference
            assert recovered_stats["database_facts"] == stats["database_facts"]
            assert recovered_stats["materialized_views"] == 1
            assert recovered_stats["registered_queries"] == 1
        finally:
            restarted.send_signal(signal.SIGTERM)
            assert restarted.wait(timeout=30) == 0


# ----------------------------------------------------------------------
# Request deadlines, budgets, and disconnect cancellation
# ----------------------------------------------------------------------
UNBOUND_TC = """\
?reach(X, Y)
reach(X, Y) :- edge(X, Y).
reach(X, Y) :- reach(X, Z), edge(Z, Y).
"""


class TestRequestDeadlines:
    def test_zero_timeout_returns_408(self, server):
        install_reach(server)
        status, body, _ = server.post(
            "/execute", {"name": "reach", "params": {"src": "a"}, "timeout": 0}
        )
        assert status == 408
        assert "deadline" in body["error"]
        _, stats, _ = server.get("/statistics")
        assert json.loads(stats)["timeouts"] == 1

    def test_budget_abort_returns_503_with_retry_after(self, server):
        install_reach(server)
        status, body, response = server.post(
            "/execute",
            {
                "name": "reach",
                "params": {"src": "a"},
                "fresh": True,
                "budget": {"max_rounds": 1},
            },
        )
        assert status == 503
        assert "budget" in body["error"]
        assert response.getheader("Retry-After") is not None

    def test_bad_guard_fields_are_400(self, server):
        install_reach(server)
        status, body, _ = server.post(
            "/execute",
            {"name": "reach", "params": {"src": "a"}, "budget": {"max_disk": 1}},
        )
        assert status == 400 and "max_disk" in body["error"]
        status, body, _ = server.post(
            "/execute", {"name": "reach", "params": {"src": "a"}, "timeout": "fast"}
        )
        assert status == 400 and "timeout" in body["error"]

    def test_server_default_timeout_cannot_be_loosened(self, tmp_path):
        handle = ServerHandle(tmp_path / "data", request_timeout=0)
        try:
            install_reach(handle)
            # No timeout field: the server default applies.
            status, body, _ = handle.post(
                "/execute", {"name": "reach", "params": {"src": "a"}}
            )
            assert status == 408
            # A looser request timeout must not override the default.
            status, body, _ = handle.post(
                "/execute", {"name": "reach", "params": {"src": "a"}, "timeout": 60}
            )
            assert status == 408
        finally:
            handle.stop()

    def test_slow_query_counter_in_metrics(self, tmp_path):
        handle = ServerHandle(tmp_path / "data", slow_query_threshold=0.0)
        try:
            install_reach(handle)
            status, _, _ = handle.post(
                "/execute", {"name": "reach", "params": {"src": "a"}}
            )
            assert status == 200
            _, metrics, _ = handle.get("/metrics")
            match = re.search(r"^repro_http_slow_queries (\d+)$", metrics, re.M)
            assert match and int(match.group(1)) >= 1
        finally:
            handle.stop()

    def test_disconnect_cancels_running_query(self, server):
        # A deliberately heavy query (full transitive closure of a ring) so
        # the evaluation is still running when the client goes away; the
        # watchdog must flip the cancellation token and the engine abort at
        # its next checkpoint.
        status, _, _ = server.post(
            "/register", {"name": "tc", "source": UNBOUND_TC}
        )
        assert status == 200
        nodes = 500  # ~1.1s of evaluation: ample room to disconnect first
        edges = [["edge", [f"n{i}", f"n{(i + 1) % nodes}"]] for i in range(nodes)]
        status, _, _ = server.post("/add_facts", {"facts": edges})
        assert status == 200

        import socket

        payload = json.dumps({"name": "tc", "fresh": True}).encode()
        raw = socket.create_connection(("127.0.0.1", server.port), timeout=10)
        raw.sendall(
            b"POST /execute HTTP/1.1\r\nHost: x\r\nContent-Type: application/json\r\n"
            + f"Content-Length: {len(payload)}\r\n\r\n".encode()
            + payload
        )
        time.sleep(0.1)  # let dispatch start evaluating
        raw.close()      # the disconnect the watchdog must notice

        deadline = time.time() + 20
        cancellations = 0
        while time.time() < deadline:
            _, stats, _ = server.get("/statistics")
            cancellations = json.loads(stats)["cancellations"]
            if cancellations:
                break
            time.sleep(0.1)
        assert cancellations >= 1
