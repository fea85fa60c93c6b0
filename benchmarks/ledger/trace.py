"""In-memory span tracing of the layers, applied from outside.

For the traced pass only, :meth:`Tracer.install` replaces the public
callables of each layer under ``src/repro/datalog`` by timing wrappers and
:meth:`Tracer.restore` puts every original back.  Nothing under ``src/`` is
edited: a span is recorded around each call *into* a layer.

A span is ``[name, start, end, parent, op_id]``.  ``parent`` is the index
of the span that was open on the same thread when this one started; a span
that starts on a thread with no open span (the server's event loop and its
executor threads) takes the innermost open *anchor* span instead — the
client's round-trip, then the HTTP dispatch — which is sound because the
traced pass drives one closed-loop connection, so one request is in flight
at a time.  A layer's self time is its spans' durations minus the parts
their child spans cover.
"""

from __future__ import annotations

import functools
import inspect
import json
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

NAME, START, END, PARENT, OP = range(5)
#: Span names whose self time is attributed per calling layer.
QUALIFIED = frozenset({"os.fsync"})


class Tracer:
    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self.op_id = 0
        self._local = threading.local()
        self._anchors: List[int] = []
        self._patched: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def open(self, name: str, anchor: bool = False) -> int:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        if stack:
            parent = stack[-1]
        else:
            parent = self._anchors[-1] if self._anchors else -1
        index = len(self.spans)
        self.spans.append([name, 0.0, 0.0, parent, self.op_id])
        stack.append(index)
        if anchor:
            self._anchors.append(index)
        self.spans[index][START] = time.perf_counter()
        return index

    def close(self, index: int, anchor: bool = False) -> None:
        self.spans[index][END] = time.perf_counter()
        self._local.stack.pop()
        if anchor:
            self._anchors.remove(index)

    def span(self, name: str, anchor: bool = False) -> "_Span":
        return _Span(self, name, anchor)

    def mark(self) -> Tuple[int, Dict[str, float]]:
        """A phase boundary: the span index and the counters so far."""
        return len(self.spans), dict(self.counts)

    # ------------------------------------------------------------------
    # Wrapping
    # ------------------------------------------------------------------
    def wrap(
        self,
        owner,
        attribute: str,
        name: str,
        after: Optional[Callable] = None,
        anchor: bool = False,
    ) -> None:
        """Replace ``owner.attribute`` by a wrapper recording span *name*.

        *after*, when given, is called as ``after(result, args)`` once the
        span has closed (for counters read off arguments and return
        values).  Class and static methods keep their binding; coroutine
        functions get an awaiting wrapper.
        """
        raw = vars(owner)[attribute] if inspect.isclass(owner) else getattr(owner, attribute)
        function = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
        tracer = self

        if inspect.iscoroutinefunction(function):

            @functools.wraps(function)
            async def wrapper(*args, **kwargs):
                index = tracer.open(name, anchor)
                try:
                    return await function(*args, **kwargs)
                finally:
                    tracer.close(index, anchor)

        else:

            @functools.wraps(function)
            def wrapper(*args, **kwargs):
                index = tracer.open(name, anchor)
                try:
                    result = function(*args, **kwargs)
                finally:
                    tracer.close(index, anchor)
                if after is not None:
                    after(result, args)
                return result

        if isinstance(raw, classmethod):
            wrapper = classmethod(wrapper)
        elif isinstance(raw, staticmethod):
            wrapper = staticmethod(wrapper)
        self._patched.append((owner, attribute, raw))
        setattr(owner, attribute, wrapper)

    def restore(self) -> None:
        while self._patched:
            owner, attribute, raw = self._patched.pop()
            setattr(owner, attribute, raw)

    def patched(self) -> List[Tuple[object, str, object]]:
        """``(owner, attribute, original)`` for everything currently wrapped."""
        return list(self._patched)

    def install(self) -> None:
        """Wrap the public callables of every layer (see module docstring)."""
        import os

        from repro.datalog import database, incremental, parser, prepared, service
        from repro.datalog.columnar import batch, shard, store, vector
        from repro.datalog.engine import base, executor, naive, planner, registry, seminaive
        from repro.datalog.server import durable, http, snapshot, wal
        from repro.datalog.transforms import pipeline

        counts = self.counts

        def count_statistics(result, args) -> None:
            statistics = result.statistics
            counts["engine.evaluations"] += 1
            counts["engine.iterations"] += statistics.iterations
            counts["engine.facts_derived"] += statistics.facts_derived
            counts["executor.firings"] += statistics.rule_firings

        def count_wal_bytes(sequence, args) -> None:
            # Bytes the log grew by, against the bytes of the user's facts
            # (predicate names and values as text).
            log, payload = args[0], args[1]
            size = os.path.getsize(log.path)
            grown = size - counts["server.wal.size"]
            counts["server.wal.size"] = size
            counts["server.wal.records"] += 1
            counts["server.wal.bytes"] += grown if grown > 0 else size
            for predicate, values in payload.get("facts", ()):
                counts["server.wal.fact_bytes"] += len(predicate) + sum(
                    len(str(value)) for value in values
                )

        for owner, attribute, name in (
            (parser, "parse_program", "parser.parse"),
            (service, "parse_program", "parser.parse"),
            (pipeline.Pipeline, "apply", "transforms.pipeline"),
            (planner.Planner, "plan", "planner.plan"),
            (planner, "compile_program_plan", "planner.plan"),
            (seminaive, "compile_program_plan", "planner.plan"),
            (naive, "compile_program_plan", "planner.plan"),
            (prepared, "compile_program_plan", "planner.plan"),
            (incremental, "compile_program_plan", "planner.plan"),
            (executor, "compile_rule_kernel", "executor.lower"),
            (executor.RuleKernel, "execute_static", "executor.fire"),
            (executor.RuleKernel, "execute_delta", "executor.fire"),
            (database.Database, "copy", "database.copy"),
            (database.OverlayDatabase, "copy", "database.copy"),
            (database.Database, "restrict", "database.restrict"),
            (database.OverlayDatabase, "restrict", "database.restrict"),
            (database.Database, "update", "database.update"),
            (database.OverlayDatabase, "update", "database.update"),
            (database.Database, "with_layout", "database.build"),
            (database.Database, "add_relations", "database.build"),
            (database.Database, "add_facts", "database.mutate"),
            (database.Database, "remove_facts", "database.mutate"),
            (database.Database, "from_bytes", "database.build"),
            (database.Database, "to_bytes", "database.serialize"),
            (store.ColumnarStore, "parts", "columnar.store.encode"),
            (store.ColumnarStore, "group", "columnar.store.encode"),
            (batch, "lower_sequence", "columnar.batch.lower"),
            (batch, "evaluate_seminaive", "columnar.batch.fixpoint"),
            (vector, "evaluate_seminaive", "columnar.vector.fixpoint"),
            (shard, "evaluate_seminaive_sharded", "columnar.shard.fixpoint"),
            (prepared.PreparedQuery, "__init__", "prepared.prepare"),
            (prepared.PreparedQuery, "answers", "prepared.execute"),
            (prepared.PreparedQuery, "execute", "prepared.execute"),
            (prepared.PreparedQuery, "materialize", "prepared.materialize"),
            (base, "select_answers", "prepared.select_answers"),
            (incremental, "select_answers", "prepared.select_answers"),
            (incremental.MaterializedView, "__init__", "incremental.build"),
            (incremental.MaterializedView, "apply", "incremental.apply"),
            (service.DatalogService, "register_program", "service.register"),
            (service.DatalogService, "execute", "service.execute"),
            (service.DatalogService, "add_facts", "service.write"),
            (service.DatalogService, "remove_facts", "service.write"),
            (service.DatalogService, "materialize", "service.materialize"),
            (durable.DurableDatalogService, "__init__", "server.durable.recover"),
            (durable.DurableDatalogService, "register_program", "server.durable.write"),
            (durable.DurableDatalogService, "add_facts", "server.durable.write"),
            (durable.DurableDatalogService, "remove_facts", "server.durable.write"),
            (durable.DurableDatalogService, "materialize", "server.durable.write"),
            (durable.DurableDatalogService, "snapshot", "server.durable.snapshot"),
            (durable.DurableDatalogService, "execute", "server.durable.read"),
            (wal.WriteAheadLog, "sync", "server.wal.sync"),
            (wal.WriteAheadLog, "truncate", "server.wal.truncate"),
            (wal.WriteAheadLog, "replay", "server.wal.replay"),
            (snapshot.SnapshotStore, "write", "server.snapshot.write"),
            (snapshot.SnapshotStore, "load", "server.snapshot.load"),
            (os, "fsync", "os.fsync"),
        ):
            self.wrap(owner, attribute, name)
        self.wrap(registry.FunctionEngine, "evaluate", "engine.evaluate", after=count_statistics)
        self.wrap(wal.WriteAheadLog, "append", "server.wal.append", after=count_wal_bytes)
        # The HTTP layer has no public per-request callable; its dispatch
        # coroutine is the same interval its /metrics histogram observes.
        self.wrap(http.DatalogHTTPServer, "_dispatch", "server.http.dispatch", anchor=True)
        self.wrap(http.DatalogHTTPServer, "_write_response", "server.http.respond")

    # ------------------------------------------------------------------
    # Reduction
    # ------------------------------------------------------------------
    def self_times(self, start: int = 0, end: Optional[int] = None) -> Dict[str, float]:
        """Seconds of self time per span name (duration minus child spans).

        Only spans with index in ``[start, end)`` are summed — a phase of the
        run; its spans' parents and children lie in the same phase.  Spans
        named in :data:`QUALIFIED` are reported per caller, as
        ``<parent name>><name>``: an ``os.fsync`` belongs to whichever layer
        issued it.
        """
        spans = self.spans
        own = [span[END] - span[START] for span in spans]
        for span in spans:
            if span[PARENT] >= 0:
                own[span[PARENT]] -= span[END] - span[START]
        totals: Dict[str, float] = defaultdict(float)
        for index in range(start, len(spans) if end is None else end):
            span = spans[index]
            name = span[NAME]
            if name in QUALIFIED and span[PARENT] >= 0:
                name = f"{spans[span[PARENT]][NAME]}>{name}"
            totals[name] += own[index]
        return dict(totals)

    def durations(self, name: str, start: int = 0, end: Optional[int] = None) -> List[float]:
        """Durations of the spans called *name* within a phase."""
        stop = len(self.spans) if end is None else end
        return [
            span[END] - span[START] for span in self.spans[start:stop] if span[NAME] == name
        ]

    def dump(self, path) -> None:
        with open(path, "w") as handle:
            json.dump(
                {"fields": ["name", "start", "end", "parent", "op_id"], "spans": self.spans},
                handle,
            )


class _Span:
    __slots__ = ("_tracer", "_name", "_anchor", "_index")

    def __init__(self, tracer: Tracer, name: str, anchor: bool):
        self._tracer = tracer
        self._name = name
        self._anchor = anchor

    def __enter__(self) -> int:
        self._index = self._tracer.open(self._name, self._anchor)
        return self._index

    def __exit__(self, *exc) -> None:
        self._tracer.close(self._index, self._anchor)
