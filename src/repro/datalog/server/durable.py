"""DurableDatalogService: crash-safe writes over a :class:`DatalogService`.

Layering::

    client ----> DurableDatalogService ----> DatalogService (in-memory)
                     |         \\
                  WriteAheadLog  SnapshotStore        (on disk, one data dir)

Every mutation — fact batches, program registrations, view materializations
— is acknowledged only after both the WAL append and the in-memory apply
succeeded.  Fact batches log *before* they apply (the service's write hook
runs under the service lock strictly ahead of the apply, and a hook failure
aborts the write).  Registry operations (``register_program``,
``materialize``, ``dematerialize``) apply *before* they log: every way the
operation can be rejected — parse error, missing goal, unknown query,
draining — surfaces to the caller with nothing written, so replay can never
trip over a request the live server refused.  Both orders are serialized by
the mutation lock, so the WAL order always equals the apply order.
Periodically, and on clean shutdown, the full state (EDB bytes + program
sources + materialized bindings) is snapshotted atomically and the WAL is
truncated.

Recovery (``DurableDatalogService(data_dir)`` on a directory with state)
loads the latest intact snapshot, replays every intact WAL record in order,
and rebuilds each materialized view — so a server killed at any byte
offset restarts with exactly the model every acknowledged write produced.
A record that no longer applies (e.g. a log written by a buggy or newer
version) is skipped and reported on :attr:`RecoveryReport.skipped` rather
than aborting startup — one bad record must never brick the data directory.
Replay tolerates a WAL that overlaps the snapshot (the crash window between
snapshot write and WAL truncation): every operation is idempotent and
replayed in order, so the final state is determined by each key's last
operation — the same state the uninterrupted run reached.

Contract: mutate only through this facade (the inner service is reachable
via :attr:`service` for reads).  A write acknowledged under
``fsync="always"`` survives ``kill -9`` and power loss; under ``"batch"``
it survives process death and loses at most the records since the last
:meth:`sync` on power loss.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Tuple

from repro.datalog.atoms import Atom
from repro.datalog.database import Database
from repro.datalog.engine.options import split_bindings
from repro.datalog.server.snapshot import SnapshotStore
from repro.datalog.server.wal import WriteAheadLog
from repro.datalog.service import DatalogService, ServiceDrainingError
from repro.datalog.terms import Constant
from repro.datalog.transforms import MagicSets, PropagateConstants, Rectify
from repro.errors import EvaluationError

__all__ = [
    "DurableDatalogService",
    "RecoveryReport",
    "ServiceDrainingError",
    "TRANSFORMS_BY_NAME",
    "resolve_transforms",
]

WAL_NAME = "wal.log"

#: The named transforms a client may attach to a registered program.  Names
#: (not objects) are what the WAL and snapshots persist, so the set of
#: registrable pipelines is exactly this registry.
TRANSFORMS_BY_NAME = {
    "magic": MagicSets,
    "rectify": Rectify,
    "constants": PropagateConstants,
}


def resolve_transforms(names: Iterable[str]) -> Tuple:
    """Instantiate pipeline stages from their persisted names."""
    stages = []
    for name in names:
        try:
            stages.append(TRANSFORMS_BY_NAME[name]())
        except KeyError:
            known = ", ".join(sorted(TRANSFORMS_BY_NAME))
            raise EvaluationError(
                f"unknown transform {name!r}; available: {known}"
            ) from None
    return tuple(stages)


@dataclass(frozen=True)
class RecoveryReport:
    """What recovery found in the data directory."""

    snapshot_loaded: bool
    wal_records_replayed: int
    wal_tail_corrupt: bool
    programs_recovered: int
    views_rebuilt: int
    #: Human-readable descriptions of snapshot entries or WAL records that
    #: failed to apply and were skipped (empty on a healthy recovery).
    skipped: Tuple[str, ...] = ()

    def __str__(self) -> str:
        source = "snapshot + WAL" if self.snapshot_loaded else "WAL only"
        tail = " (torn tail truncated)" if self.wal_tail_corrupt else ""
        skipped = f", {len(self.skipped)} unreplayable skipped" if self.skipped else ""
        return (
            f"recovered from {source}: {self.wal_records_replayed} record(s) "
            f"replayed{tail}{skipped}, {self.programs_recovered} program(s), "
            f"{self.views_rebuilt} view(s) rebuilt"
        )


class DurableDatalogService:
    """A :class:`DatalogService` whose writes survive ``kill -9``."""

    def __init__(
        self,
        data_dir,
        *,
        fsync: str = "always",
        snapshot_every: int = 1024,
        snapshot_on_close: bool = True,
        cache_size: int = 256,
        default_engine: str = "seminaive",
        default_timeout: Optional[float] = None,
        engine_workers: Optional[int] = None,
        faults=None,
    ):
        if snapshot_every < 1:
            raise ValueError("snapshot_every must be positive")
        self._data_dir = os.fspath(data_dir)
        os.makedirs(self._data_dir, exist_ok=True)
        self._wal_path = os.path.join(self._data_dir, WAL_NAME)
        # `faults` (a ScriptedFaults plan) reaches every disk seam of this
        # data directory; recovery reads are deliberately exempt — chaos
        # tests crash the writer, then recover with a clean instance.
        self._snapshot_store = SnapshotStore(self._data_dir, faults=faults)
        self._snapshot_every = snapshot_every
        self._snapshot_on_close = snapshot_on_close
        self._snapshots_taken = 0
        self._closed = False
        # Serializes every mutating entry point (and snapshots) of this
        # facade.  Lock order is always mutate lock -> service lock -> WAL
        # lock; nothing ever takes them in another order.
        self._mutate_lock = threading.RLock()
        # name -> {"source": str, "transforms": [names], "engine": str|None};
        # the persistable description of the registry (snapshots store it).
        self._program_specs: Dict[str, Dict] = {}

        self.recovery = self._recover(
            cache_size, default_engine, default_timeout, engine_workers
        )
        # Only after replay is the log opened for append (repairing any torn
        # tail) and the write-ahead hook armed.
        self._wal = WriteAheadLog(self._wal_path, fsync=fsync, faults=faults)
        self._service.set_write_hook(self._log_fact_batch)

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------
    def _recover(
        self,
        cache_size: int,
        default_engine: str,
        default_timeout: Optional[float] = None,
        engine_workers: Optional[int] = None,
    ) -> RecoveryReport:
        state = self._snapshot_store.load()
        database = (
            Database.from_bytes(state["database"], allow_pickle=False)
            if state is not None
            else Database()
        )
        self._service = DatalogService(
            database,
            cache_size=cache_size,
            default_engine=default_engine,
            default_timeout=default_timeout,
            workers=engine_workers,
        )
        # Startup must never fail on persisted state the live server would
        # have rejected (or that a newer/older version wrote): anything that
        # does not apply is skipped and reported, not raised — a single bad
        # entry must not brick the data directory.
        skipped: List[str] = []
        if state is not None:
            for name, spec in state.get("programs", {}).items():
                try:
                    self._apply_register(
                        name,
                        spec["source"],
                        spec.get("transforms", ()),
                        spec.get("engine"),
                    )
                except Exception as exc:
                    skipped.append(f"snapshot program {name!r}: {exc}")
            for view in state.get("views", ()):
                try:
                    self._service.materialize(view["name"], view["params"])
                except Exception as exc:
                    skipped.append(f"snapshot view {view.get('name')!r}: {exc}")
        records, tail_corrupt = WriteAheadLog.replay(self._wal_path)
        replayed = 0
        for record in records:
            try:
                self._apply_record(record.payload)
                replayed += 1
            except Exception as exc:
                skipped.append(f"WAL record {record.sequence}: {exc}")
        return RecoveryReport(
            snapshot_loaded=state is not None,
            wal_records_replayed=replayed,
            wal_tail_corrupt=tail_corrupt,
            programs_recovered=len(self._program_specs),
            views_rebuilt=len(self._service.materialized_bindings()),
            skipped=tuple(skipped),
        )

    def _apply_record(self, payload) -> None:
        """Apply one replayed WAL record to the in-memory service."""
        if not isinstance(payload, dict) or "kind" not in payload:
            raise EvaluationError(f"malformed WAL record: {payload!r}")
        kind = payload["kind"]
        if kind == "add_facts":
            self._service.add_facts(payload["facts"])
        elif kind == "remove_facts":
            self._service.remove_facts(payload["facts"])
        elif kind == "register":
            self._apply_register(
                payload["name"],
                payload["source"],
                payload.get("transforms", ()),
                payload.get("engine"),
            )
        elif kind == "materialize":
            self._service.materialize(payload["name"], payload["params"])
        elif kind == "dematerialize":
            self._service.dematerialize(payload["name"], payload["params"])
        else:
            raise EvaluationError(f"unknown WAL record kind {kind!r}")

    def _apply_register(
        self, name: str, source: str, transforms, engine: Optional[str]
    ) -> None:
        self._service.register_program(
            name,
            source,
            transforms=resolve_transforms(transforms),
            engine=engine,
            replace=True,
        )
        self._program_specs[name] = {
            "source": source,
            "transforms": list(transforms),
            "engine": engine,
        }

    # ------------------------------------------------------------------
    # Write-ahead logging
    # ------------------------------------------------------------------
    @staticmethod
    def _normalize_facts(facts: Iterable) -> List[Tuple[str, Tuple]]:
        """Fact batches as codec-friendly ``(predicate, values)`` pairs."""
        normalized: List[Tuple[str, Tuple]] = []
        for fact in facts:
            if isinstance(fact, Atom):
                normalized.append((fact.predicate, fact.as_fact_tuple()))
            else:
                predicate, values = fact
                normalized.append((str(predicate), tuple(values)))
        return normalized

    @staticmethod
    def _normalize_params(params: Mapping[str, object]) -> Dict[str, object]:
        return {
            key: (value.value if isinstance(value, Constant) else value)
            for key, value in params.items()
        }

    def _log_fact_batch(self, kind: str, batch: List) -> None:
        # Runs under the service lock, before the batch is applied; raising
        # here (e.g. disk full) aborts the write entirely.
        self._wal.append({"kind": kind, "facts": self._normalize_facts(batch)})

    def _log(self, payload: Dict) -> None:
        self._wal.append(payload)

    # ------------------------------------------------------------------
    # Mutating surface (logged)
    # ------------------------------------------------------------------
    def register_program(
        self,
        name: str,
        source: str,
        *,
        transforms: Iterable[str] = (),
        engine: Optional[str] = None,
        replace: bool = False,
    ) -> None:
        """Register a query template from *source text* under *name*.

        Unlike the in-memory service, *transforms* are **names** from
        :data:`TRANSFORMS_BY_NAME` — the registration must be serializable
        to the WAL and to snapshots, so arbitrary transform objects are not
        accepted here.
        """
        names = [str(t) for t in transforms]
        resolve_transforms(names)  # reject unknown transform names up front
        with self._mutate_lock:
            self._check_open()
            if not replace and name in self._program_specs:
                raise ValueError(
                    f"query {name!r} is already registered (pass replace=True)"
                )
            if self._service.draining:
                raise ServiceDrainingError(
                    "service is draining for shutdown; writes are not admitted"
                )
            # Apply before logging: a rejected registration (parse error,
            # missing goal) must leave no WAL record behind, or the next
            # restart would refuse to come up replaying it.
            self._apply_register(name, source, names, engine)
            self._log(
                {
                    "kind": "register",
                    "name": name,
                    "source": source,
                    "transforms": names,
                    "engine": engine,
                }
            )
            self._maybe_snapshot()

    def add_facts(self, facts: Iterable) -> int:
        with self._mutate_lock:
            self._check_open()
            added = self._service.add_facts(facts)
            self._maybe_snapshot()
            return added

    def remove_facts(self, facts: Iterable) -> int:
        with self._mutate_lock:
            self._check_open()
            removed = self._service.remove_facts(facts)
            self._maybe_snapshot()
            return removed

    def materialize(self, name: str, params: Optional[Mapping] = None, **keywords):
        """:meth:`DatalogService.materialize`, logged; option keywords guard
        this build only and are not persisted (recovery rebuilds unguarded)."""
        merged = dict(params or {})
        split_bindings(keywords, merged)
        normalized = self._normalize_params(merged)
        with self._mutate_lock:
            self._check_open()
            if self._service.draining:
                raise ServiceDrainingError(
                    "service is draining for shutdown; writes are not admitted"
                )
            # Apply before logging: materializing an unregistered query (or
            # a binding the prepared query rejects) raises here with nothing
            # written, so replay never sees a record the server refused.
            view = self._service.materialize(name, normalized, **keywords)
            self._log({"kind": "materialize", "name": name, "params": normalized})
            self._maybe_snapshot()
            return view

    def dematerialize(self, name: str, params: Optional[Mapping] = None, **kw_params) -> bool:
        merged = dict(params or {})
        merged.update(kw_params)
        normalized = self._normalize_params(merged)
        with self._mutate_lock:
            self._check_open()
            dropped = self._service.dematerialize(name, normalized)
            if dropped:
                # A no-op drop is not a mutation; logging it would only
                # lengthen replay.
                self._log(
                    {"kind": "dematerialize", "name": name, "params": normalized}
                )
                self._maybe_snapshot()
            return dropped

    # ------------------------------------------------------------------
    # Read surface (unlogged passthrough)
    # ------------------------------------------------------------------
    @property
    def service(self) -> DatalogService:
        """The in-memory service (safe for reads; mutate through the facade)."""
        return self._service

    @property
    def data_dir(self) -> str:
        return self._data_dir

    def execute(self, name: str, params: Optional[Mapping] = None, **keywords):
        return self._service.execute(name, params, **keywords)

    def lookup(self, name: str, bindings: Optional[Mapping] = None, engine=None):
        return self._service.lookup(name, bindings, engine)

    def execute_many(self, name: str, bindings_list, **keywords):
        return self._service.execute_many(name, bindings_list, **keywords)

    def prepare(self, name: str):
        return self._service.prepare(name)

    def registered_queries(self) -> Tuple[str, ...]:
        return self._service.registered_queries()

    def materialized_bindings(self):
        return self._service.materialized_bindings()

    def statistics(self) -> Dict[str, int]:
        """Service counters plus the durability layer's own."""
        stats = self._service.statistics()
        stats["wal_records"] = self._wal.record_count
        stats["snapshots_taken"] = self._snapshots_taken
        return stats

    # ------------------------------------------------------------------
    # Snapshots, drain, shutdown
    # ------------------------------------------------------------------
    def snapshot(self) -> None:
        """Persist the full state atomically, then truncate the WAL.

        Crash-ordering: the snapshot is fully on disk (temp + rename +
        directory fsync) *before* the WAL shrinks, so at every instant the
        directory recovers to the current state — either old snapshot +
        full WAL, or new snapshot + (possibly still-full, harmlessly
        replayable) WAL.
        """
        with self._mutate_lock:
            self._check_open()
            self._snapshot_store.write(self._capture_state())
            self._wal.truncate()
            self._snapshots_taken += 1

    def _capture_state(self) -> Dict:
        # No mutation can be concurrent (mutate lock held), so the service's
        # current database snapshot is the consistent point-in-time state.
        views = [
            {"name": name, "params": dict(binding)}
            for name, binding in self._service.materialized_bindings()
        ]
        return {
            "database": self._service.database.to_bytes(allow_pickle=False),
            "programs": {
                name: dict(spec) for name, spec in self._program_specs.items()
            },
            "views": views,
        }

    def _maybe_snapshot(self) -> None:
        if self._wal.record_count >= self._snapshot_every:
            self.snapshot()

    def sync(self) -> None:
        """fsync pending WAL appends (the ``batch`` policy's commit point)."""
        self._wal.sync()

    def begin_drain(self) -> None:
        """Refuse new writes; reads keep flowing (graceful-shutdown step 1)."""
        self._service.begin_drain()

    def close(self) -> None:
        """Drain, optionally snapshot, and release the WAL (idempotent)."""
        with self._mutate_lock:
            if self._closed:
                return
            self._service.begin_drain()
            self._wal.sync()
            if self._snapshot_on_close:
                self._snapshot_store.write(self._capture_state())
                self._wal.truncate()
                self._snapshots_taken += 1
            self._wal.close()
            self._closed = True

    def _check_open(self) -> None:
        if self._closed:
            raise EvaluationError("the durable service has been closed")

    def __enter__(self) -> "DurableDatalogService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"DurableDatalogService(data_dir={self._data_dir!r}, "
            f"fsync={self._wal.fsync_policy!r}, wal_records={self._wal.record_count}, "
            f"queries={sorted(self._program_specs)})"
        )
