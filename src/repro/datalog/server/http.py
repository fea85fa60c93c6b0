"""Asyncio HTTP/JSON front end for the durable Datalog service (stdlib only).

A deliberately small HTTP/1.1 server on :func:`asyncio.start_server` — no
third-party framework — that exposes the :class:`DurableDatalogService`
surface over JSON, keeps engine work off the event loop, and applies
admission control to writes.

What runs where: the event loop frames requests, parses each body once,
validates options, admits writes, probes the result cache without blocking
(:meth:`DatalogService.lookup`) and answers hits and ``/healthz`` itself —
a hit's body is encoded once per cache entry and kept on the entry.  A
thread pool runs every call that can evaluate, write or fsync, and only
those requests get a cancellation token and a disconnect watchdog.

Endpoints (JSON request/response unless noted)::

    POST /register      {"name", "source", "transforms"?, "engine"?, "replace"?}
    POST /prepare       {"name"}                      -> {"parameters": [...]}
    POST /execute       {"name", "params"?, "engine"?, "fresh"?}
                                                      -> {"answers": [[...], ...]}
    POST /execute_many  {"name", "bindings": [{...}, ...]}
    POST /add_facts     {"facts": [["pred", [v, ...]], ...]} -> {"added": n}
    POST /remove_facts  {"facts": [...]}              -> {"removed": n}
    POST /materialize   {"name", "params"?}
    POST /dematerialize {"name", "params"?}
    POST /snapshot      {}
    GET  /statistics                                  -> service + WAL counters
    GET  /metrics                                     -> Prometheus text format
    GET  /healthz                                     -> {"status", "draining"}

Deadlines: engine-running endpoints (``/execute``, ``/execute_many``)
honor a per-request deadline — the server's ``request_timeout`` default,
tightened by an optional ``"timeout"`` field in the request body.  A
deadline miss aborts the evaluation at its next cooperative checkpoint
(database, views, and WAL untouched) and answers ``408``; an exhausted
resource budget answers ``503`` with ``Retry-After``.  A client that
disconnects mid-query has its evaluation cancelled the same cooperative
way, so abandoned queries stop consuming executor threads.  Requests
slower than ``slow_query_threshold`` are logged and counted.

Backpressure: at most ``max_pending_writes`` write requests may be queued
or executing at once — beyond that the server answers ``429`` with a
``Retry-After`` header instead of buffering unboundedly (the WAL fsync is
the throughput governor; admission control keeps the queue short so write
latency stays honest).  During drain every write gets ``503``; in-flight
reads still complete, each with ``Connection: close``.

Shutdown (SIGTERM/SIGINT under :func:`run_server`, or
:meth:`DatalogHTTPServer.drain_and_close`): stop admitting writes, close
the listener so no new connection can start, let in-flight requests finish
(each open keep-alive connection is answered at most once more, with
``Connection: close``, so sustained read traffic cannot starve the drain),
sever idle connections, then snapshot + truncate the WAL via
``durable.close()`` — a restart after a graceful stop replays nothing.
"""

from __future__ import annotations

import asyncio
import json
import logging
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, Optional, Tuple

from repro.datalog.guard import CancellationToken, ResourceBudget
from repro.datalog.server.durable import DurableDatalogService
from repro.datalog.server.metrics import MetricsRegistry, MonotonicityError
from repro.datalog.service import (
    DatalogService,
    QueryNotRegisteredError,
    ServiceDrainingError,
)
from repro.errors import BudgetExceeded, QueryCancelled, QueryTimeout, ReproError

logger = logging.getLogger("repro.datalog.server")

__all__ = ["DatalogHTTPServer", "run_server"]

_MAX_BODY = 16 * 1024 * 1024  # refuse absurd payloads before buffering them
_WRITE_ENDPOINTS = frozenset(
    {"register", "add_facts", "remove_facts", "materialize", "dematerialize", "snapshot"}
)
# Endpoints that run engine evaluation: these get a per-request deadline
# (server default, tightened by a "timeout" field in the body) and a
# cancellation token the disconnect watchdog trips when the client goes
# away mid-query.
_ENGINE_ENDPOINTS = frozenset({"execute", "execute_many"})
# Every routed endpoint and the one method it accepts; a target outside this
# table is a 404 and is accounted under one "unknown" metrics label.
_ENDPOINT_METHODS = {
    **dict.fromkeys(("metrics", "healthz", "statistics"), "GET"),
    **dict.fromkeys(_WRITE_ENDPOINTS | _ENGINE_ENDPOINTS | {"prepare"}, "POST"),
}
# How often the watchdog polls the connection for client departure; engine
# loops observe the token at their next checkpoint, so total reaction time
# is this poll interval plus one checkpoint interval.
_DISCONNECT_POLL = 0.05

_STATUS_TEXT = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    501: "Not Implemented",
    503: "Service Unavailable",
}
_JSON = {"Content-Type": "application/json"}


class _HttpError(Exception):
    """Short-circuit a request with a specific status + JSON error body."""

    def __init__(self, status: int, message: str, retry_after: Optional[int] = None):
        super().__init__(message)
        self.status = status
        self.message = message
        self.retry_after = retry_after


def _sorted_answers(answers) -> list:
    """Frozenset-of-tuples results as a deterministic JSON list-of-lists."""
    return [list(row) for row in sorted(answers, key=repr)]


def _encode(result) -> bytes:
    return json.dumps(result).encode("utf-8")


class DatalogHTTPServer:
    """One listening socket serving a :class:`DurableDatalogService`."""

    def __init__(
        self,
        durable: DurableDatalogService,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        max_pending_writes: int = 64,
        executor_workers: int = 4,
        sync_interval: Optional[float] = None,
        request_timeout: Optional[float] = None,
        slow_query_threshold: float = 1.0,
    ):
        if request_timeout is not None and request_timeout < 0:
            raise ValueError("request_timeout must be non-negative")
        if slow_query_threshold < 0:
            raise ValueError("slow_query_threshold must be non-negative")
        self._durable = durable
        self._host = host
        self._port = port
        self._max_pending_writes = max_pending_writes
        self._sync_interval = sync_interval
        # Default deadline for engine endpoints; a request's own "timeout"
        # field can only tighten it (the tighter of the two wins).
        self._request_timeout = request_timeout
        self._slow_query_threshold = slow_query_threshold
        self._slow_queries = 0
        self.metrics = MetricsRegistry()
        self._executor = ThreadPoolExecutor(
            max_workers=executor_workers, thread_name_prefix="datalog-http"
        )
        # Both counters live on the event-loop thread only — no lock needed.
        self._pending_writes = 0
        self._inflight = 0
        self._idle = asyncio.Event()
        self._idle.set()
        self._draining = False
        # Open connections' writers; drain severs the ones parked in a
        # keep-alive read, which would otherwise never quiesce on their own.
        self._connections: set = set()
        self._server: Optional[asyncio.base_events.Server] = None
        self._sync_task: Optional[asyncio.Task] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle_connection, self._host, self._port
        )
        self._port = self._server.sockets[0].getsockname()[1]
        if self._sync_interval:
            self._sync_task = asyncio.get_running_loop().create_task(
                self._sync_periodically()
            )

    @property
    def host(self) -> str:
        return self._host

    @property
    def port(self) -> int:
        """The bound port (resolved after :meth:`start` when 0 was requested)."""
        return self._port

    @property
    def address(self) -> str:
        return f"http://{self._host}:{self._port}"

    async def serve_until(self, stop: asyncio.Event) -> None:
        """Serve until *stop* is set, then drain gracefully."""
        await stop.wait()
        await self.drain_and_close()

    async def drain_and_close(self) -> None:
        """Graceful shutdown: refuse writes, finish in-flight, persist, stop."""
        if self._draining:
            return
        self._draining = True
        self._durable.begin_drain()
        if self._sync_task is not None:
            self._sync_task.cancel()
        # Stop admitting new connections *before* waiting for quiescence —
        # and each existing connection gets at most one more response (the
        # handler closes keep-alive connections while draining) — so
        # sustained read traffic cannot starve the idle event forever.
        if self._server is not None:
            self._server.close()
        # Let requests already admitted (including queued writes, which were
        # WAL-logged-or-rejected atomically) run to completion.
        await self._idle.wait()
        # Connections parked between requests never reach the dispatch path
        # again; sever them so their handlers exit.
        for writer in list(self._connections):
            writer.close()
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(self._executor, self._durable.close)
        if self._server is not None:
            await self._server.wait_closed()
        self._executor.shutdown(wait=True)

    async def _sync_periodically(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            await asyncio.sleep(self._sync_interval)
            await loop.run_in_executor(self._executor, self._durable.sync)

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._connections.add(writer)
        try:
            while True:
                try:
                    request = await self._read_request(reader, writer)
                except _HttpError as exc:
                    # Malformed framing (bad request line, oversized header
                    # block, unparsable Content-Length, a body framed some
                    # other way): answer properly and close — the byte
                    # stream is no longer trustworthy.
                    status, payload, extra = self._error_response(exc)
                    await self._write_response(writer, status, payload, extra, False)
                    break
                if request is None:
                    break
                method, target, keep_alive, body = request
                status, payload, extra = await self._dispatch(
                    method, target, body, reader, writer
                )
                # During drain each connection gets at most one more
                # response; re-check after dispatch so a drain that started
                # mid-request still cuts the connection over.
                keep_alive = keep_alive and not self._draining
                await self._write_response(writer, status, payload, extra, keep_alive)
                if not keep_alive:
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            self._connections.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover - teardown race
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> Optional[Tuple[str, str, bool, bytes]]:
        """Parse one HTTP/1.x request as ``(method, target, keep_alive, body)``.

        ``None`` on a cleanly closed connection.  Bodies are framed by
        ``Content-Length`` only; *writer* is for the interim ``100 Continue``
        a client may be waiting for before it sends one.
        """
        try:
            head = await reader.readuntil(b"\r\n\r\n")
        except asyncio.IncompleteReadError as exc:
            if not exc.partial:
                return None
            raise
        except asyncio.LimitOverrunError:
            raise _HttpError(413, "header block too large") from None
        request_line, _, header_block = head.partition(b"\r\n")
        parts = request_line.decode("latin-1").split()
        if len(parts) != 3:
            raise _HttpError(400, "malformed request line")
        method, target, version = parts
        headers: Dict[str, str] = {}
        for line in header_block.decode("latin-1").split("\r\n"):
            if not line:
                continue
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        if "transfer-encoding" in headers:
            # Framing it as length 0 would parse the chunks as the next
            # request line.
            raise _HttpError(
                501, "Transfer-Encoding is not supported; send a Content-Length"
            )
        raw_length = headers.get("content-length", "0") or "0"
        try:
            length = int(raw_length)
        except ValueError:
            raise _HttpError(400, f"invalid Content-Length: {raw_length!r}") from None
        if length < 0:
            raise _HttpError(400, f"invalid Content-Length: {raw_length!r}")
        if length > _MAX_BODY:
            raise _HttpError(413, "request body too large")
        old_client = version.upper() == "HTTP/1.0"
        connection = headers.get("connection", "").lower()
        tokens = [token.strip() for token in connection.split(",")]
        keep_alive = "close" not in tokens and (not old_client or "keep-alive" in tokens)
        if length and not old_client and headers.get("expect", "").lower() == "100-continue":
            writer.write(b"HTTP/1.1 100 Continue\r\n\r\n")
            await writer.drain()
        body = await reader.readexactly(length) if length else b""
        return method, target, keep_alive, body

    async def _write_response(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: bytes,
        extra_headers: Dict[str, str],
        keep_alive: bool,
    ) -> None:
        reason = _STATUS_TEXT.get(status, "Unknown")
        headers = [
            f"HTTP/1.1 {status} {reason}",
            f"Content-Length: {len(payload)}",
            f"Connection: {'keep-alive' if keep_alive else 'close'}",
        ]
        headers.extend(f"{name}: {value}" for name, value in extra_headers.items())
        writer.write(("\r\n".join(headers) + "\r\n\r\n").encode("latin-1") + payload)
        await writer.drain()

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    async def _dispatch(
        self,
        method: str,
        target: str,
        body: bytes,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> Tuple[int, bytes, Dict[str, str]]:
        endpoint = target.split("?", 1)[0].lstrip("/") or "healthz"
        loop = asyncio.get_running_loop()
        start = loop.time()
        self._inflight += 1
        self._idle.clear()
        is_write = endpoint in _WRITE_ENDPOINTS
        try:
            try:
                if is_write:
                    self._admit_write()
                    self._pending_writes += 1
                    try:
                        payload, extra = await self._run(
                            loop, endpoint, method, body, reader, writer
                        )
                    finally:
                        self._pending_writes -= 1
                else:
                    payload, extra = await self._run(
                        loop, endpoint, method, body, reader, writer
                    )
                status = 200
            except _HttpError as exc:
                status, payload, extra = self._error_response(exc)
            except (QueryNotRegisteredError,) as exc:
                status, payload, extra = self._error_response(_HttpError(404, str(exc)))
            # Abort errors before their ReproError base: a deadline is the
            # client's fault (408), an exhausted budget is load shedding
            # (503 + Retry-After invites a retry when the server is less
            # loaded), and a disconnect cancellation gets a best-effort 503
            # nobody is usually left to read.
            except QueryTimeout as exc:
                status, payload, extra = self._error_response(_HttpError(408, str(exc)))
            except BudgetExceeded as exc:
                status, payload, extra = self._error_response(
                    _HttpError(503, str(exc), retry_after=1)
                )
            except QueryCancelled as exc:
                status, payload, extra = self._error_response(_HttpError(503, str(exc)))
            except ServiceDrainingError as exc:
                status, payload, extra = self._error_response(
                    _HttpError(503, str(exc), retry_after=1)
                )
            except MonotonicityError as exc:
                status, payload, extra = self._error_response(_HttpError(500, str(exc)))
            except (ReproError, ValueError, TypeError, KeyError) as exc:
                status, payload, extra = self._error_response(_HttpError(400, str(exc)))
            except Exception as exc:  # noqa: BLE001 - last-resort mapping
                # Anything unmapped is a server bug, but the client still
                # deserves a well-formed 500 and the connection must survive
                # to log it — never let a request kill the handler task.
                logger.exception("unhandled error in /%s", endpoint)
                status, payload, extra = self._error_response(
                    _HttpError(500, f"internal error: {type(exc).__name__}")
                )
            elapsed = loop.time() - start
            if elapsed >= self._slow_query_threshold:
                self._slow_queries += 1
                logger.warning(
                    "slow request: /%s took %.3fs (status %d, threshold %.3fs)",
                    endpoint,
                    elapsed,
                    status,
                    self._slow_query_threshold,
                )
            # The label set must stay finite: whatever a client puts in the
            # request target, an unrouted one is "unknown".
            label = endpoint if endpoint in _ENDPOINT_METHODS else "unknown"
            self.metrics.observe_request(label, status, elapsed)
            return status, payload, extra
        finally:
            self._inflight -= 1
            if self._inflight == 0:
                self._idle.set()

    def _admit_write(self) -> None:
        if self._draining or self._durable.service.draining:
            raise _HttpError(
                503, "server is draining; writes are not admitted", retry_after=5
            )
        if self._pending_writes >= self._max_pending_writes:
            raise _HttpError(
                429,
                f"write queue full ({self._max_pending_writes} pending)",
                retry_after=1,
            )

    def _error_response(self, exc: _HttpError) -> Tuple[int, bytes, Dict[str, str]]:
        payload = _encode({"error": exc.message})
        extra = dict(_JSON)
        if exc.retry_after is not None:
            extra["Retry-After"] = str(exc.retry_after)
        return exc.status, payload, extra

    async def _run(
        self, loop, endpoint: str, method: str, body: bytes, reader, writer
    ) -> Tuple[bytes, Dict[str, str]]:
        """One routed request's ``200`` body and headers; errors are raised.

        Runs on the event loop up to the point where the request is known to
        need a service call that can evaluate, write or fsync; that call is
        the only thing handed to the pool.
        """
        expected = _ENDPOINT_METHODS.get(endpoint)
        if expected is None:
            raise _HttpError(404, f"no such endpoint: /{endpoint}")
        if method != expected:
            raise _HttpError(405, f"/{endpoint} requires {expected}")
        if expected == "POST":
            try:
                request = json.loads(body.decode("utf-8")) if body else {}
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                raise _HttpError(400, f"invalid JSON body: {exc}") from None
            if not isinstance(request, dict):
                raise _HttpError(400, "request body must be a JSON object")
        else:
            request = {}
        if endpoint == "healthz":
            return _encode(self._endpoint_healthz(request)), _JSON
        watchdog = None
        if endpoint in _ENGINE_ENDPOINTS:
            # One reserved key carries the request's option keywords to the
            # handler (the service builds its EvalOptions from them, on a
            # cache miss only).  They are validated before the probe, so a
            # malformed request is refused whether or not its answer is
            # cached.
            options = request["_options"] = {
                "engine": request.get("engine"),
                "timeout": self._deadline_for(request.pop("timeout", None)),
                "budget": self._budget_for(request.pop("budget", None)),
            }
            if endpoint == "execute" and not request.get("fresh", False):
                entry = self._durable.lookup(
                    str(self._required(request, "name")),
                    request.get("params"),
                    options["engine"],
                )
                if entry is not None:
                    # Cache and view hits never time out (there is no engine
                    # to bound) and need nothing a pool thread has.
                    if entry.payload is None:
                        entry.payload = _encode({"answers": _sorted_answers(entry.answers)})
                    return entry.payload, _JSON
            # The engine observes the token at its next cooperative
            # checkpoint, so the evaluation thread unwinds at a safe point
            # with nothing mutated — the pool thread is never killed.
            cancellation = options["cancellation"] = CancellationToken()
            watchdog = loop.create_task(
                self._watch_disconnect(reader, writer, cancellation)
            )
        handler = getattr(self, f"_endpoint_{endpoint}")
        try:
            result = await loop.run_in_executor(self._executor, handler, request)
        finally:
            if watchdog is not None:
                watchdog.cancel()
        if endpoint == "metrics":
            return result.encode("utf-8"), {"Content-Type": "text/plain; version=0.0.4"}
        return _encode(result), _JSON

    def _deadline_for(self, requested) -> Optional[float]:
        """The effective per-request timeout: server default, client-tightened."""
        if requested is None:
            return self._request_timeout
        if isinstance(requested, bool) or not isinstance(requested, (int, float)):
            raise _HttpError(400, f"timeout must be a number, got {requested!r}")
        if requested < 0:
            raise _HttpError(400, f"timeout must be non-negative, got {requested!r}")
        if self._request_timeout is None:
            return float(requested)
        return min(float(requested), self._request_timeout)

    @staticmethod
    def _budget_for(raw) -> Optional[ResourceBudget]:
        """A request's ``"budget"`` object as a ResourceBudget (or ``None``)."""
        if raw is None:
            return None
        if not isinstance(raw, dict):
            raise _HttpError(400, "budget must be a JSON object")
        allowed = {"timeout", "max_facts", "max_rounds"}
        unknown = set(raw) - allowed
        if unknown:
            raise _HttpError(
                400, f"unknown budget field(s): {', '.join(sorted(unknown))}"
            )
        try:
            return ResourceBudget(**raw)
        except (TypeError, ValueError) as exc:
            raise _HttpError(400, f"invalid budget: {exc}") from None

    async def _watch_disconnect(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        cancellation: CancellationToken,
    ) -> None:
        """Cancel the engine run when the client departs mid-request.

        Polls the connection while the handler runs on the pool thread;
        a vanished client has no use for the answer, so its query should
        stop consuming the executor.  Cancelled by ``_run`` as soon as the
        handler finishes.
        """
        while not (reader.at_eof() or writer.is_closing()):
            await asyncio.sleep(_DISCONNECT_POLL)
        cancellation.cancel()

    # ------------------------------------------------------------------
    # Endpoints (run on the thread pool; healthz on the event loop)
    # ------------------------------------------------------------------
    @staticmethod
    def _required(request: Dict, key: str):
        try:
            return request[key]
        except KeyError:
            raise _HttpError(400, f"missing required field {key!r}") from None

    @staticmethod
    def _facts_from_json(raw) -> list:
        facts = []
        for item in raw:
            predicate, values = item
            facts.append((str(predicate), tuple(values)))
        return facts

    def _endpoint_register(self, request: Dict) -> Dict:
        self._durable.register_program(
            str(self._required(request, "name")),
            str(self._required(request, "source")),
            transforms=request.get("transforms", ()),
            engine=request.get("engine"),
            replace=bool(request.get("replace", False)),
        )
        return {"ok": True}

    def _endpoint_prepare(self, request: Dict) -> Dict:
        prepared = self._durable.prepare(str(self._required(request, "name")))
        return {"parameters": sorted(prepared.parameters)}

    def _endpoint_execute(self, request: Dict) -> Dict:
        answers = self._durable.execute(
            str(self._required(request, "name")),
            request.get("params") or {},
            fresh=bool(request.get("fresh", False)),
            **request["_options"],
        )
        return {"answers": _sorted_answers(answers)}

    def _endpoint_execute_many(self, request: Dict) -> Dict:
        results = self._durable.execute_many(
            str(self._required(request, "name")),
            list(self._required(request, "bindings")),
            **request["_options"],
        )
        return {"answers": [_sorted_answers(answers) for answers in results]}

    def _endpoint_add_facts(self, request: Dict) -> Dict:
        facts = self._facts_from_json(self._required(request, "facts"))
        return {"added": self._durable.add_facts(facts)}

    def _endpoint_remove_facts(self, request: Dict) -> Dict:
        facts = self._facts_from_json(self._required(request, "facts"))
        return {"removed": self._durable.remove_facts(facts)}

    def _endpoint_materialize(self, request: Dict) -> Dict:
        self._durable.materialize(
            str(self._required(request, "name")), request.get("params") or {}
        )
        return {"ok": True}

    def _endpoint_dematerialize(self, request: Dict) -> Dict:
        dropped = self._durable.dematerialize(
            str(self._required(request, "name")), request.get("params") or {}
        )
        return {"dropped": dropped}

    def _endpoint_snapshot(self, request: Dict) -> Dict:
        self._durable.snapshot()
        return {"ok": True}

    def _endpoint_statistics(self, request: Dict) -> Dict:
        return self._durable.statistics()

    def _endpoint_metrics(self, request: Dict) -> str:
        return self.metrics.render(
            self._durable.statistics(),
            monotonic_keys=DatalogService.MONOTONIC_STATISTICS,
            extra_gauges={
                "http_pending_writes": self._pending_writes,
                "http_inflight_requests": self._inflight,
                "http_slow_queries": self._slow_queries,
            },
        )

    def _endpoint_healthz(self, request: Dict) -> Dict:
        return {
            "status": "draining" if self._draining else "ok",
            "draining": self._draining or self._durable.service.draining,
            "port": self._port,
        }


async def _serve(server: DatalogHTTPServer, ready_line: bool) -> None:
    import signal

    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(signum, stop.set)
        except (NotImplementedError, RuntimeError):  # pragma: no cover - non-POSIX
            pass
    await server.start()
    if ready_line:
        # Machine-readable readiness line: the load driver and the benchmark
        # harness parse this to learn the bound port.
        print(f"READY {server.host} {server.port}", flush=True)
    await server.serve_until(stop)


def run_server(
    data_dir,
    *,
    host: str = "127.0.0.1",
    port: int = 0,
    fsync: str = "always",
    snapshot_every: int = 1024,
    max_pending_writes: int = 64,
    executor_workers: int = 4,
    sync_interval: Optional[float] = None,
    cache_size: int = 256,
    default_engine: str = "seminaive",
    engine_workers: Optional[int] = None,
    request_timeout: Optional[float] = None,
    slow_query_threshold: float = 1.0,
    ready_line: bool = True,
) -> None:
    """Open (recovering) the durable service at *data_dir* and serve it.

    Blocks until SIGTERM/SIGINT, then drains gracefully: refuses new
    writes, completes in-flight requests, snapshots, truncates the WAL,
    and closes the listener.

    ``request_timeout`` bounds every engine-running request (execute,
    execute_many): past the deadline the evaluation aborts at its next
    cooperative checkpoint and the client gets ``408``.  A request body's
    ``"timeout"`` field can tighten (never loosen) the bound.  Requests
    slower than ``slow_query_threshold`` seconds are logged on the
    ``repro.datalog.server`` logger and counted in ``/metrics``.

    ``engine_workers`` (distinct from ``executor_workers``, the size of the
    thread pool running request handlers) sets the *evaluation-level*
    parallelism every engine run uses by default: sharded columnar deltas
    and depth-concurrent strata.  Answers are identical either way.
    """
    durable = DurableDatalogService(
        data_dir,
        fsync=fsync,
        snapshot_every=snapshot_every,
        cache_size=cache_size,
        default_engine=default_engine,
        engine_workers=engine_workers,
    )
    server = DatalogHTTPServer(
        durable,
        host=host,
        port=port,
        max_pending_writes=max_pending_writes,
        executor_workers=executor_workers,
        sync_interval=sync_interval,
        request_timeout=request_timeout,
        slow_query_threshold=slow_query_threshold,
    )
    try:
        asyncio.run(_serve(server, ready_line))
    finally:
        durable.close()
