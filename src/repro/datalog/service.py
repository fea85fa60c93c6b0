"""DatalogService: a thread-safe traffic layer over prepared queries.

The ROADMAP's north star is a system serving heavy traffic — many clients,
many distinct constants, one shared database.  This module is that front
door::

    from repro.datalog import Database, DatalogService
    from repro.datalog.transforms import MagicSets

    service = DatalogService(database)
    service.register_program(
        "ancestors",
        \"\"\"?anc($who, Y)
           anc(X, Y) :- par(X, Y).
           anc(X, Y) :- anc(X, Z), par(Z, Y).\"\"\",
        transforms=(MagicSets(),),
    )
    service.execute("ancestors", who="john")      # frozenset of answers
    service.execute_many("ancestors", [{"who": w} for w in pool])
    for row in service.cursor("ancestors", who="john"):
        ...

Contract:

* **Registration and preparation** are serialized by the service lock;
  preparation happens at most once per registered query and is amortized
  across all subsequent traffic.
* **Execution** takes one short critical section (the LRU cache lookup);
  the engine run itself is lock-free: concurrent ``execute`` calls share
  the prepared plan and the database snapshot (whose lazily built
  snapshots/indexes tolerate concurrent readers) and each run over their
  own copy-on-write overlay, so threads never contend on the fixpoint.
* **Results** are immutable ``frozenset`` values cached in a bounded LRU
  keyed by ``(query, engine, params, write epoch, database.version)`` —
  every write installs a new epoch, implicitly invalidating every cached
  answer without a scan.
* **Probing** (:meth:`DatalogService.lookup`) answers "is this request a
  hit?" for callers that must not block: it try-locks, never prepares or
  evaluates, and returns the cached entry or ``None``.
* **Writes** go through :meth:`add_facts`, which never mutates the
  snapshot in-flight readers are using: it copies the current database,
  applies the batch, and atomically swaps the new snapshot in.  Requests
  already running finish against the old snapshot; the next request sees
  the new one.  Mutating the database object *directly* while requests
  are in flight is outside the contract (the version component of the
  cache key still prevents stale serving, but concurrent reads against an
  in-place mutation are not protected).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable, Dict, FrozenSet, Iterable, List, Mapping, Optional, Tuple

from repro.datalog.database import Database
from repro.datalog.engine.options import EvalOptions, split_bindings
from repro.datalog.incremental import MaterializedView
from repro.datalog.parser import parse_program
from repro.datalog.terms import Constant
from repro.datalog.prepared import AnswerCursor, PreparedQuery
from repro.datalog.program import Program
from repro.datalog.transforms.pipeline import Pipeline, Transform
from repro.errors import (
    EvaluationError,
    QueryAborted,
    QueryCancelled,
    QueryNotRegisteredError,
    ServiceDrainingError,
)

__all__ = [
    "CachedAnswers",
    "DatalogService",
    "QueryNotRegisteredError",
    "ServiceDrainingError",
]


class CachedAnswers:
    """One cached result: the immutable answers and a slot for their wire form.

    ``payload`` is opaque to the service: whoever serves the entry (the HTTP
    front end keeps the encoded response body there) fills it on first use.
    An entry is never mutated otherwise and dies with its cache key, so a
    write — which retires every key — retires every payload with it.
    """

    __slots__ = ("answers", "payload")

    def __init__(self, answers: FrozenSet[Tuple]):
        self.answers = answers
        self.payload = None


class DatalogService:
    """Thread-safe registry + prepared-query executor + bounded result cache."""

    def __init__(
        self,
        database: Optional[Database] = None,
        *,
        cache_size: int = 256,
        default_engine: str = "seminaive",
        write_hook: Optional[Callable[[str, List], None]] = None,
        default_timeout: Optional[float] = None,
        workers: Optional[int] = None,
    ):
        if cache_size < 0:
            raise ValueError("cache_size must be non-negative")
        self._database = database if database is not None else Database()
        self._default_engine = default_engine
        # Standing option values for every execute/execute_many/materialize
        # call that leaves them unset: a wall-clock deadline and engine-level
        # parallelism.  A per-call value is strict (an engine that cannot
        # honour it raises); these are hints (EvalOptions.capture), dropped
        # for one that cannot, so one knob can front a mixed-engine registry.
        # Results are identical at any worker count, so the answer cache key
        # does not include it.
        self._defaults = {
            key: value
            for key, value in (("timeout", default_timeout), ("workers", workers))
            if value is not None
        }
        try:
            EvalOptions.capture(self._defaults)  # validated here, not on the first request
        except EvaluationError as error:
            raise ValueError(str(error)) from None
        self._cache_size = cache_size
        self._lock = threading.RLock()
        # Called as hook(kind, batch) under the service lock *before* a
        # write batch is applied — the durability layer's write-ahead
        # point.  A hook exception aborts the write (nothing is applied,
        # nothing swapped), so "logged" strictly precedes "visible".
        self._write_hook = write_hook
        # While draining (graceful shutdown), writes are refused so the
        # durability layer can reach a quiescent point; reads keep working.
        self._draining = False
        # name -> (template program, pipeline, default engine name)
        self._programs: Dict[str, Tuple[Program, Pipeline, str]] = {}
        # name -> (PreparedQuery, epoch it was compiled under); the tuple is
        # read atomically without the lock on the hot path, so a stale entry
        # observed during a write swap still carries its own (old) epoch and
        # can never poison the cache for the new snapshot.
        self._prepared: Dict[str, Tuple[PreparedQuery, int]] = {}
        # bumped whenever add_facts installs a new database snapshot; part of
        # every cache key, so a swap invalidates all cached answers at once
        self._epoch = 0
        # (name, engine, params, epoch, db version) -> entry, LRU order
        self._cache: "OrderedDict[Tuple, CachedAnswers]" = OrderedDict()
        # (name, normalized params) -> live MaterializedView; maintained
        # in-place by add_facts/remove_facts instead of being invalidated,
        # and consulted by execute() before the LRU cache.
        self._views: Dict[Tuple[str, FrozenSet], MaterializedView] = {}
        # Same keys -> the entry lookup() last served for that view; current
        # only while its answers *are* the view's memoized frozenset.
        self._view_entries: Dict[Tuple[str, FrozenSet], CachedAnswers] = {}
        self._cache_hits = 0
        self._cache_misses = 0
        self._view_hits = 0
        self._executions = 0
        # Guardrail observability: queries aborted by deadline/budget vs by
        # explicit cancellation.  Both leave the snapshot, views, and cache
        # untouched — an aborted run caches nothing.
        self._timeouts = 0
        self._cancellations = 0

    # ------------------------------------------------------------------
    # Registry
    # ------------------------------------------------------------------
    @property
    def database(self) -> Database:
        """The current database snapshot queries run over.

        :meth:`add_facts` replaces this snapshot rather than mutating it, so
        a reference obtained here stays internally consistent but may grow
        stale after a write — re-read the property per request.
        """
        return self._database

    def register_program(
        self,
        name: str,
        program,
        *,
        transforms: Iterable[Transform] = (),
        engine: Optional[str] = None,
        replace: bool = False,
    ) -> None:
        """Register a query template under *name*.

        *program* is a :class:`~repro.datalog.program.Program` or Datalog
        source text (parsed here); its goal may carry ``$parameters``.
        *transforms* become the prepared pipeline (e.g. ``MagicSets()``);
        *engine* fixes the default execution strategy.  Re-registering an
        existing name requires ``replace=True`` and drops the old prepared
        query and its cached results.
        """
        template = parse_program(program) if isinstance(program, str) else program
        if not isinstance(template, Program):
            inner = getattr(template, "program", None)
            if isinstance(inner, Program):
                template = inner
            else:
                raise TypeError(
                    f"expected a Program or source text, got {type(program).__name__}"
                )
        if template.goal is None:
            raise EvaluationError(f"query {name!r} has no goal")
        # Reject invalid templates at the registration boundary — unsafe
        # rules, inconsistent arities, unstratifiable negation/aggregation —
        # with the same diagnostics every other surface produces.  The
        # durable layer applies before it logs, so a registration refused
        # here leaves no WAL record behind.
        template.validate()
        pipeline = (
            transforms if isinstance(transforms, Pipeline) else Pipeline(transforms)
        )
        with self._lock:
            if not replace and name in self._programs:
                raise ValueError(
                    f"query {name!r} is already registered (pass replace=True)"
                )
            self._programs[name] = (template, pipeline, engine or self._default_engine)
            self._prepared.pop(name, None)
            for key in [key for key in self._cache if key[0] == name]:
                del self._cache[key]
            for key in [key for key in self._views if key[0] == name]:
                del self._views[key]
                self._view_entries.pop(key, None)

    def registered_queries(self) -> Tuple[str, ...]:
        """Names of all registered queries, sorted."""
        with self._lock:
            return tuple(sorted(self._programs))

    def prepare(self, name: str) -> PreparedQuery:
        """The (lazily compiled, cached) prepared query for *name*.

        The first call per name pays for the pipeline, the deferred-seed
        compilation, and the join plan; every later call — and every
        :meth:`execute` — reuses the same object.
        """
        return self._prepared_entry(name)[0]

    def _prepared_entry(self, name: str) -> Tuple[PreparedQuery, int]:
        # Lock-free fast path: a plain dict read is atomic under the GIL,
        # and entries are only ever inserted whole or dropped, never
        # mutated in place.
        entry = self._prepared.get(name)
        if entry is not None:
            return entry
        with self._lock:
            entry = self._prepared.get(name)
            if entry is not None:
                return entry
            try:
                template, pipeline, engine = self._programs[name]
            except KeyError:
                known = ", ".join(sorted(self._programs)) or "(none)"
                raise QueryNotRegisteredError(
                    f"no query registered under {name!r}; registered: {known}"
                ) from None
            prepared = PreparedQuery(
                template, self._database, pipeline, default_engine=engine
            )
            entry = (prepared, self._epoch)
            self._prepared[name] = entry
            return entry

    # ------------------------------------------------------------------
    # Traffic path
    # ------------------------------------------------------------------
    def _record_abort(self, error: QueryAborted) -> None:
        """Count a guardrail abort (timeouts vs cancellations) and re-raise."""
        with self._lock:
            if isinstance(error, QueryCancelled):
                self._cancellations += 1
            else:
                # QueryTimeout and BudgetExceeded both count as `timeouts`:
                # the request hit a resource ceiling, whichever one.
                self._timeouts += 1
        raise error

    def execute(
        self,
        name: str,
        params: Optional[Mapping[str, object]] = None,
        *,
        fresh: bool = False,
        **keywords,
    ) -> FrozenSet[Tuple]:
        """Answers for one request; served from the LRU cache when possible.

        *keywords* are :class:`~repro.datalog.engine.options.EvalOptions`'s
        (``engine=``, ``max_iterations=``, ``timeout=``, ``workers=``, …);
        any other keyword is a parameter binding.

        The cache key includes the service's write epoch and the snapshot's
        :attr:`Database.version`, so results are never stale: any write
        silently invalidates every cached entry.  ``fresh=True`` bypasses
        the cache (benchmarks).

        A binding previously materialized with :meth:`materialize` is served
        straight from its live view — writes maintain the view in place, so
        there is nothing to invalidate and no engine to run.  ``fresh=True``
        (every cache layer bypassed, the engine really runs) and an explicit
        *engine* override both skip the view, honouring their contracts.

        *timeout* (falling back to the service's ``default_timeout``),
        *budget*, and *cancellation* guard the engine run; an abort raises
        the typed :class:`~repro.errors.QueryAborted` subclass, bumps the
        ``timeouts``/``cancellations`` counter, and caches nothing — the
        snapshot, views, and cache are exactly as before the request.
        Cache and view hits never time out: there is no engine to bound —
        which is also why the options are only built on a miss.
        """
        bindings = dict(params or {})
        split_bindings(keywords, bindings)
        engine = keywords.get("engine")
        if engine is not None and not isinstance(engine, str):
            EvalOptions(engine=engine)  # the typed rejection, before it keys the cache
        normalized = self._normalize_bindings(bindings)
        if self._views and not fresh and engine is None:
            with self._lock:
                view = self._views.get((name, normalized))
                if view is not None:
                    self._view_hits += 1
                    return view.answers()
        prepared, epoch = self._prepared_entry(name)
        key = self._cache_key(name, prepared, epoch, normalized, engine)
        if not fresh and self._cache_size:
            with self._lock:
                cached = self._cache.get(key)
                if cached is not None:
                    self._cache.move_to_end(key)
                    self._cache_hits += 1
                    return cached.answers
                self._cache_misses += 1
        try:
            answers = prepared.answers(
                bindings, EvalOptions.capture(keywords, self._defaults)
            )
        except QueryAborted as error:
            self._record_abort(error)
        with self._lock:
            self._executions += 1
            if not fresh and self._cache_size:
                self._store(key, answers)
        return answers

    def lookup(
        self,
        name: str,
        bindings: Optional[Mapping[str, object]] = None,
        engine: Optional[str] = None,
    ) -> Optional[CachedAnswers]:
        """The cached entry :meth:`execute` would serve right now, or ``None``.

        A probe for callers that must not block (the HTTP server asks it on
        its event loop): it **never evaluates** — no prepare, no engine, no
        ``select_answers`` — and **never waits** on the service lock.  It
        returns the entry of a live view whose answers are memoized for the
        view's current version, or of an LRU hit, counting exactly the
        ``view_hits``/``cache_hits`` and LRU touch :meth:`execute` would
        have.  ``None`` means "ask :meth:`execute`": nothing is cached, the
        query needs preparing (or is unknown), a view must reselect after a
        write, *engine* is not a name, or another thread holds the lock.
        ``None`` counts nothing, so a request that falls back is counted
        once, by :meth:`execute`.
        """
        if engine is not None and not isinstance(engine, str):
            return None
        # dict(): a non-mapping raises here exactly as it does in execute().
        normalized = self._normalize_bindings(dict(bindings or {}))
        if not self._lock.acquire(blocking=False):
            return None
        try:
            if engine is None:
                view_key = (name, normalized)
                view = self._views.get(view_key)
                if view is not None:
                    answers = view.cached_answers()
                    if answers is None:
                        return None
                    entry = self._view_entries.get(view_key)
                    if entry is None or entry.answers is not answers:
                        entry = self._view_entries[view_key] = CachedAnswers(answers)
                    self._view_hits += 1
                    return entry
            compiled = self._prepared.get(name)
            if compiled is None:
                return None
            prepared, epoch = compiled
            key = self._cache_key(name, prepared, epoch, normalized, engine)
            entry = self._cache.get(key)
            if entry is not None:
                self._cache.move_to_end(key)
                self._cache_hits += 1
            return entry
        finally:
            self._lock.release()

    def _store(self, key: Tuple, answers: FrozenSet[Tuple]) -> None:
        """Insert one result as the most recent LRU entry (lock held)."""
        self._cache[key] = CachedAnswers(answers)
        self._cache.move_to_end(key)
        while len(self._cache) > self._cache_size:
            self._cache.popitem(last=False)

    @staticmethod
    def _normalize_bindings(bindings: Mapping[str, object]) -> FrozenSet:
        """Unwrap ``Constant`` values so equivalent bindings share one key."""
        return frozenset(
            (key, value.value if isinstance(value, Constant) else value)
            for key, value in bindings.items()
        )

    def _cache_key(
        self,
        name: str,
        prepared: PreparedQuery,
        epoch: int,
        normalized: FrozenSet,
        engine: Optional[str],
    ) -> Tuple:
        # *normalized* is _normalize_bindings' result, so `who="john"` and
        # `who=Constant("john")` share one entry; the key is on the *prepared
        # query's* snapshot (not self._database, which a concurrent write
        # may have swapped) so an answer computed against an old snapshot
        # can only ever be cached under that old snapshot's epoch/version.
        return (
            name,
            engine or prepared.default_engine,
            normalized,
            epoch,
            prepared.database.version,
        )

    def execute_many(
        self, name: str, bindings_list: Iterable[Mapping[str, object]], **keywords
    ) -> List[FrozenSet[Tuple]]:
        """Answers for a batch of requests, sharing one fixpoint when sound.

        Delegates to :meth:`PreparedQuery.execute_many`; the batch bypasses
        the result cache (it exists to amortize the fixpoint itself), but
        its per-binding answers are inserted into the cache afterwards so
        follow-up single requests hit.  The execution counter reflects
        engine work actually done: one for a shared fixpoint, one per
        binding otherwise.  *keywords* are :meth:`execute`'s options; a
        *timeout*/*budget*/*cancellation* guard covers the whole batch as
        one request, and an abort caches nothing.
        """
        materialized = [dict(bindings) for bindings in bindings_list]
        prepared, epoch = self._prepared_entry(name)
        options = EvalOptions.capture(keywords, self._defaults)
        try:
            results = prepared.execute_many(materialized, options)
        except QueryAborted as error:
            self._record_abort(error)
        if materialized:
            engine_runs = (
                1
                if prepared.uses_shared_fixpoint(len(materialized), options)
                else len(materialized)
            )
            with self._lock:
                self._executions += engine_runs
                if self._cache_size:
                    for bindings, answers in zip(materialized, results):
                        normalized = self._normalize_bindings(bindings)
                        self._store(
                            self._cache_key(name, prepared, epoch, normalized, options.engine),
                            answers,
                        )
        return results

    def cursor(
        self,
        name: str,
        params: Optional[Mapping[str, object]] = None,
        *,
        batch_size: int = 256,
        **keywords,
    ) -> AnswerCursor:
        """A streaming cursor over one request's answers (:meth:`execute`'s
        keywords; cache-served)."""
        return AnswerCursor(self.execute(name, params, **keywords), batch_size)

    # ------------------------------------------------------------------
    # Materialized views
    # ------------------------------------------------------------------
    def materialize(
        self, name: str, params: Optional[Mapping[str, object]] = None, **keywords
    ) -> MaterializedView:
        """Evaluate one binding of *name* into a live materialized view.

        The view is kept current by :meth:`add_facts` / :meth:`remove_facts`
        — maintenance instead of invalidation — and :meth:`execute` serves
        the binding from it from then on.  Materializing the same binding
        twice returns the existing view.  Answers served from a view are
        engine-independent (the minimum model is), so the per-query engine
        choice does not apply to materialized bindings.

        *keywords* are :meth:`execute`'s options, as far as a view honours
        them.  The *timeout*/*budget*/*cancellation* guard covers the initial
        build only: an abort discards the half-built view (no view is
        installed, the snapshot untouched) and bumps the abort counters.
        Once installed, a view's maintenance under writes is never
        interrupted — it must run to completion to stay consistent.
        """
        bindings = dict(params or {})
        split_bindings(keywords, bindings)
        key = (name, self._normalize_bindings(bindings))

        def build(prepared: PreparedQuery) -> MaterializedView:
            options = EvalOptions.capture(keywords, self._defaults)
            try:
                return prepared.materialize(bindings, options)
            except QueryAborted as error:
                self._record_abort(error)

        # The initial evaluation can be expensive, so it runs outside the
        # service lock (concurrent traffic never waits on a view build).  A
        # write landing mid-build invalidates the snapshot the build used —
        # detected by the epoch double-check, which retries on the new one.
        # Bounded: under a pathological write rate the final attempt builds
        # while holding the lock, which serializes out the race entirely.
        for _ in range(3):
            with self._lock:
                view = self._views.get(key)
                if view is not None:
                    return view
                prepared, epoch = self._prepared_entry(name)
            built = build(prepared)
            with self._lock:
                view = self._views.get(key)
                if view is not None:
                    return view
                if epoch == self._epoch:
                    self._views[key] = built
                    return built
        with self._lock:
            view = self._views.get(key)
            if view is None:
                view = self._views[key] = build(self._prepared_entry(name)[0])
            return view

    def materialized_bindings(self) -> Tuple[Tuple[str, FrozenSet], ...]:
        """The (query, bindings) pairs currently kept live, sorted."""
        with self._lock:
            return tuple(sorted(self._views, key=repr))

    def dematerialize(
        self,
        name: str,
        params: Optional[Mapping[str, object]] = None,
        **kw_params,
    ) -> bool:
        """Drop one binding's live view (it falls back to the LRU cache)."""
        bindings = dict(params or {})
        bindings.update(kw_params)
        key = (name, self._normalize_bindings(bindings))
        with self._lock:
            self._view_entries.pop(key, None)
            return self._views.pop(key, None) is not None

    # ------------------------------------------------------------------
    # Writes and observability
    # ------------------------------------------------------------------
    def add_facts(self, facts: Iterable) -> int:
        """Bulk-load facts by installing a new database snapshot.

        The current snapshot is copied, the batch applied (single version
        bump), and the copy atomically swapped in; requests already running
        finish safely against the old snapshot, and a new epoch invalidates
        every cached result and every prepared compilation (they recompile
        lazily against the new snapshot).  Writes therefore cost O(data) —
        batch them — but never block or corrupt concurrent reads.

        Materialized views are *maintained*, not invalidated: the same batch
        is applied incrementally to every live view, so their answers stay
        current without recomputation (the epoch bump only affects
        un-materialized entries).
        """
        batch = list(facts)
        with self._lock:
            self._check_writable()
            if self._write_hook is not None:
                self._write_hook("add_facts", batch)
            fresh = self._database.copy()
            added = fresh.add_facts(batch)
            if added:
                self._database = fresh
                self._prepared.clear()
                self._epoch += 1
                for view in self._views.values():
                    view.apply(insertions=batch)
            return added

    def remove_facts(self, facts: Iterable) -> int:
        """Bulk-retract facts; the write-side mirror of :meth:`add_facts`.

        The current snapshot is copied, the batch removed (single version
        bump), and the copy atomically swapped in.  Live materialized views
        absorb the same batch through counting/DRed maintenance; everything
        else is invalidated by the epoch bump.  Returns the number of facts
        actually removed.
        """
        batch = list(facts)
        with self._lock:
            self._check_writable()
            if self._write_hook is not None:
                self._write_hook("remove_facts", batch)
            fresh = self._database.copy()
            removed = fresh.remove_facts(batch)
            if removed:
                self._database = fresh
                self._prepared.clear()
                self._epoch += 1
                for view in self._views.values():
                    view.apply(deletions=batch)
            return removed

    # ------------------------------------------------------------------
    # Durability hooks and drain
    # ------------------------------------------------------------------
    def set_write_hook(self, hook: Optional[Callable[[str, List], None]]) -> None:
        """Install (or clear) the write-ahead hook.

        The hook is invoked as ``hook(kind, batch)`` — ``kind`` is
        ``"add_facts"`` or ``"remove_facts"`` — under the service lock,
        strictly before the batch is applied or the new snapshot swapped
        in.  Raising from the hook aborts the write: this is the contract
        the WAL layer (:mod:`repro.datalog.server.wal`) builds on, since a
        write acknowledged to a client must already be on disk.
        """
        with self._lock:
            self._write_hook = hook

    def begin_drain(self) -> None:
        """Stop admitting writes; in-flight and future reads keep working.

        Returns once no write is mid-apply (the drain flag is set under the
        same lock every write holds while applying), so afterwards the
        database snapshot is quiescent and safe to persist.
        """
        with self._lock:
            self._draining = True

    def end_drain(self) -> None:
        """Re-admit writes (a drain that turned out not to be a shutdown)."""
        with self._lock:
            self._draining = False

    @property
    def draining(self) -> bool:
        return self._draining

    def _check_writable(self) -> None:
        if self._draining:
            raise ServiceDrainingError(
                "service is draining for shutdown; writes are not admitted"
            )

    #: Statistics keys that are monotonically non-decreasing over a
    #: service's lifetime.  :meth:`statistics` takes its snapshot under the
    #: service lock — the same lock every counter increment and every write
    #: holds — so a single snapshot is internally consistent (no tearing:
    #: you can never observe a bumped ``write_epoch`` with the pre-write
    #: ``database_version``), and across snapshots these keys never go
    #: backwards.  The ``/metrics`` endpoint asserts this
    #: (:class:`repro.datalog.server.metrics.MetricsRegistry`), because a
    #: Prometheus counter that regresses corrupts every rate() over it.
    MONOTONIC_STATISTICS = (
        "executions",
        "cache_hits",
        "cache_misses",
        "view_hits",
        "timeouts",
        "cancellations",
        "write_epoch",
        "database_version",
    )

    def statistics(self) -> Dict[str, int]:
        """Operational counters: cache behaviour and work performed.

        The dict is a point-in-time snapshot taken under the service lock,
        so its values are mutually consistent; see
        :attr:`MONOTONIC_STATISTICS` for the keys that additionally never
        decrease across calls (gauges like ``cache_entries`` or
        ``database_facts`` legitimately go both ways).
        """
        with self._lock:
            return {
                "registered_queries": len(self._programs),
                "prepared_queries": len(self._prepared),
                "executions": self._executions,
                "cache_entries": len(self._cache),
                "cache_hits": self._cache_hits,
                "cache_misses": self._cache_misses,
                "materialized_views": len(self._views),
                "view_hits": self._view_hits,
                "timeouts": self._timeouts,
                "cancellations": self._cancellations,
                "write_epoch": self._epoch,
                "database_version": self._database.version,
                "database_facts": self._database.fact_count(),
            }

    def clear_cache(self) -> None:
        """Drop all cached results (counters are kept)."""
        with self._lock:
            self._cache.clear()

    def __repr__(self) -> str:
        with self._lock:
            return (
                f"DatalogService(queries={sorted(self._programs)}, "
                f"cache={len(self._cache)}/{self._cache_size}, "
                f"database={self._database!r})"
            )
