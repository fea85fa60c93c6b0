"""Databases: finite structures interpreting the EDB predicates.

A database of arity ``(a1, ..., ak)`` is a vector of finite relations
(Section 2.1).  Here a :class:`Database` maps predicate names to sets of
tuples of plain Python values (the constants of the domain).

Because the bottom-up engines probe the same relations thousands of times
per fixpoint iteration, the database maintains two acceleration structures
incrementally instead of letting every caller rebuild them:

* **cached snapshots** — :meth:`relation` returns a per-predicate
  ``frozenset`` that is cached until the relation mutates, so repeated
  full-relation scans during fixpoint iteration are O(1) instead of an
  O(n) copy per call;
* **persistent hash indexes** — :meth:`probe` answers "which tuples of
  ``p`` have value ``v`` at position ``i``" from a hash index that is built
  lazily on first use and then *maintained* by :meth:`add_fact` /
  :meth:`update`, so the indexes survive across fixpoint iterations rather
  than being rebuilt from scratch each round.
"""

from __future__ import annotations

import pickle
import struct
from typing import Dict, FrozenSet, Iterable, Iterator, List, Mapping, Optional, Sequence, Set, Tuple

from repro.datalog.atoms import Atom, ground_atom

_EMPTY: Tuple = ()
_EMPTY_SET: FrozenSet[Tuple] = frozenset()


# ----------------------------------------------------------------------
# Compact value codec
#
# The durable server layer (repro.datalog.server) persists databases in
# snapshots and write batches in WAL records.  Both need a stable,
# self-describing byte encoding for the plain Python values that live in
# relations (and the JSON-ish structures around them).  The codec below is
# deliberately tiny: one tag byte per value, LEB128 varints for lengths and
# integers, and a pickle escape hatch for anything exotic so arbitrary
# hashable constants still round-trip.
#
# Trust boundary: ``pickle.loads`` on attacker-controlled bytes is code
# execution, and a CRC is integrity, not authentication.  Callers decoding
# bytes they did not just produce in-process — the server's WAL replay and
# snapshot load — pass ``allow_pickle=False``, which refuses both to emit
# and to decode the escape tag; the pickle path stays available (the
# default) for in-process round-trips of exotic constants.
# ----------------------------------------------------------------------
def _pack_varint(value: int, out: bytearray) -> None:
    """Append an unsigned LEB128 varint."""
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def _unpack_varint(data: bytes, offset: int) -> Tuple[int, int]:
    """Read an unsigned LEB128 varint; returns (value, new offset)."""
    result = 0
    shift = 0
    while True:
        if offset >= len(data):
            raise ValueError("truncated varint")
        byte = data[offset]
        offset += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, offset
        shift += 7


def pack_value(obj, out: bytearray, *, allow_pickle: bool = True) -> None:
    """Append one value to *out*: tag byte + payload.

    Handles ``None``/``bool``/``int``/``float``/``str``/``bytes`` and
    ``tuple``/``list``/``dict`` containers; anything else is pickled under
    an escape tag (rejected with ``ValueError`` when ``allow_pickle`` is
    false).  Integers use zig-zag varints, so the small ints that dominate
    real EDBs cost two bytes.
    """
    if obj is None:
        out.append(ord("N"))
    elif obj is True:
        out.append(ord("T"))
    elif obj is False:
        out.append(ord("F"))
    elif type(obj) is int:
        out.append(ord("i"))
        zigzag = (obj << 1) if obj >= 0 else ((-obj << 1) - 1)
        _pack_varint(zigzag, out)
    elif type(obj) is float:
        out.append(ord("f"))
        out.extend(struct.pack(">d", obj))
    elif type(obj) is str:
        encoded = obj.encode("utf-8")
        out.append(ord("s"))
        _pack_varint(len(encoded), out)
        out.extend(encoded)
    elif type(obj) is bytes:
        out.append(ord("b"))
        _pack_varint(len(obj), out)
        out.extend(obj)
    elif type(obj) is tuple or type(obj) is list:
        out.append(ord("t") if type(obj) is tuple else ord("l"))
        _pack_varint(len(obj), out)
        for item in obj:
            pack_value(item, out, allow_pickle=allow_pickle)
    elif type(obj) is dict:
        out.append(ord("d"))
        _pack_varint(len(obj), out)
        for key, value in obj.items():
            pack_value(key, out, allow_pickle=allow_pickle)
            pack_value(value, out, allow_pickle=allow_pickle)
    else:
        if not allow_pickle:
            raise ValueError(
                f"cannot encode a {type(obj).__name__} value without the "
                "pickle escape hatch (allow_pickle=False); use only "
                "None/bool/int/float/str/bytes and tuple/list/dict"
            )
        payload = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
        out.append(ord("P"))
        _pack_varint(len(payload), out)
        out.extend(payload)


def unpack_value(
    data: bytes, offset: int = 0, *, allow_pickle: bool = True
) -> Tuple[object, int]:
    """Decode one value; returns (value, new offset).  Raises ValueError on garbage.

    With ``allow_pickle=False`` the ``P`` escape tag is rejected instead of
    reaching ``pickle.loads`` — required when *data* comes from outside the
    process (see the trust-boundary note above).
    """
    if offset >= len(data):
        raise ValueError("truncated value")
    tag = data[offset]
    offset += 1
    if tag == ord("N"):
        return None, offset
    if tag == ord("T"):
        return True, offset
    if tag == ord("F"):
        return False, offset
    if tag == ord("i"):
        zigzag, offset = _unpack_varint(data, offset)
        return ((zigzag >> 1) if not zigzag & 1 else -((zigzag + 1) >> 1)), offset
    if tag == ord("f"):
        if offset + 8 > len(data):
            raise ValueError("truncated float")
        return struct.unpack(">d", data[offset : offset + 8])[0], offset + 8
    if tag in (ord("s"), ord("b"), ord("P")):
        length, offset = _unpack_varint(data, offset)
        if offset + length > len(data):
            raise ValueError("truncated payload")
        payload = data[offset : offset + length]
        offset += length
        if tag == ord("s"):
            return payload.decode("utf-8"), offset
        if tag == ord("b"):
            return bytes(payload), offset
        if not allow_pickle:
            raise ValueError(
                "refusing to unpickle an embedded payload (allow_pickle=False)"
            )
        return pickle.loads(payload), offset
    if tag in (ord("t"), ord("l")):
        count, offset = _unpack_varint(data, offset)
        items = []
        for _ in range(count):
            item, offset = unpack_value(data, offset, allow_pickle=allow_pickle)
            items.append(item)
        return (tuple(items) if tag == ord("t") else items), offset
    if tag == ord("d"):
        count, offset = _unpack_varint(data, offset)
        mapping = {}
        for _ in range(count):
            key, offset = unpack_value(data, offset, allow_pickle=allow_pickle)
            value, offset = unpack_value(data, offset, allow_pickle=allow_pickle)
            mapping[key] = value
        return mapping, offset
    raise ValueError(f"unknown value tag {tag!r}")


def encode_obj(obj, *, allow_pickle: bool = True) -> bytes:
    """One value as a standalone byte string (the WAL/snapshot payload codec)."""
    out = bytearray()
    pack_value(obj, out, allow_pickle=allow_pickle)
    return bytes(out)


def decode_obj(data: bytes, *, allow_pickle: bool = True):
    """Inverse of :func:`encode_obj`; rejects trailing garbage."""
    value, offset = unpack_value(data, 0, allow_pickle=allow_pickle)
    if offset != len(data):
        raise ValueError(f"{len(data) - offset} trailing bytes after value")
    return value


class _MembershipUnion:
    """``in``-only union of two containers (an overlay's local + base view)."""

    __slots__ = ("_local", "_base")

    def __init__(self, local, base):
        self._local = local
        self._base = base

    def __contains__(self, values) -> bool:
        return values in self._local or values in self._base


def _group_facts(facts: Iterable) -> Dict[str, Set[Tuple]]:
    """Group a mixed fact iterable (Atoms or ``(predicate, values)`` pairs) per predicate."""
    grouped: Dict[str, Set[Tuple]] = {}
    for fact in facts:
        if isinstance(fact, Atom):
            grouped.setdefault(fact.predicate, set()).add(fact.as_fact_tuple())
        else:
            predicate, values = fact
            grouped.setdefault(predicate, set()).add(tuple(values))
    return grouped


#: Storage layouts a :class:`Database` can advertise.  ``tuple`` is the
#: classic dict-of-sets layout; ``columnar`` additionally maintains an
#: interned columnar mirror (:mod:`repro.datalog.columnar`) and signals
#: the bottom-up engines to evaluate through the batch kernels.  The
#: tuple relations stay the source of truth in both layouts, so every
#: existing contract — snapshots, indexes, ``probe()``,
#: ``relation_view()``, overlays — holds unchanged.
LAYOUTS = ("tuple", "columnar")


class Database:
    """A mutable finite structure: predicate name -> set of tuples."""

    def __init__(
        self,
        relations: Optional[Mapping[str, Iterable[Tuple]]] = None,
        *,
        layout: str = "tuple",
    ):
        if layout not in LAYOUTS:
            raise ValueError(f"unknown layout {layout!r}; expected one of {LAYOUTS}")
        self._relations: Dict[str, Set[Tuple]] = {}
        # predicate -> cached frozenset snapshot (dropped on mutation)
        self._snapshots: Dict[str, FrozenSet[Tuple]] = {}
        # predicate -> position -> value -> list of tuples (maintained on add)
        self._indexes: Dict[str, Dict[int, Dict[object, List[Tuple]]]] = {}
        # bumped on every mutation; lets caches (e.g. QuerySession results)
        # detect that the data changed underneath them
        self._version = 0
        self._layout = layout
        # lazily built columnar mirror (repro.datalog.columnar.ColumnarStore)
        self._columnar = None
        if relations:
            for name, tuples in relations.items():
                self._relations[name] = {tuple(t) for t in tuples}

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_facts(cls, facts: Iterable[Atom]) -> "Database":
        """Build a database from ground atoms."""
        database = cls()
        database.add_facts(facts)
        return database

    @classmethod
    def adopt(cls, relations: Dict[str, Set[Tuple]]) -> "Database":
        """Wrap already-grouped relation sets *without copying them*.

        The caller cedes ownership: the sets (and the mapping) become the
        database's internal state and must not be mutated afterwards.  The
        semi-naive engines use this to turn a round's per-predicate delta
        buckets into a probe-able database with zero re-tupling.
        """
        database = cls()
        database._relations = relations
        return database

    def copy(self) -> "Database":
        """Return a deep copy that keeps the acceleration structures warm.

        The snapshot cache and hash indexes come along (index buckets are
        copied so later mutations of either side stay independent) instead
        of being rebuilt lazily from scratch: a bottom-up engine calls
        ``copy()`` once per evaluation to obtain its working set and then
        immediately probes the same columns the EDB was already indexed on,
        so rebuilding would repay the whole indexing cost on every run.

        Concurrency: lock-free readers (:meth:`probe` / :meth:`relation`,
        e.g. engines reading through a prepared-query overlay while the
        service's writer copies) lazily *insert* missing entries into
        ``_indexes``/``_snapshots``, so each dict level is pinned with
        ``list()``/``dict()`` — single C-level calls, atomic under the GIL —
        before Python-level iteration.  An entry a reader adds mid-copy is
        simply absent from the clone and rebuilt there lazily.
        """
        clone = Database(layout=self._layout)
        clone._relations = {name: set(tuples) for name, tuples in list(self._relations.items())}
        if self._columnar is not None:
            # Share the intern table so codes stay stable across copies
            # (append-only, so the clone can never reassign them); the
            # clone re-encodes relations lazily on first columnar use.
            clone._columnar = self._columnar.fork(clone)
        # Carry the mutation counter forward: a copy that restarted at 0
        # would make version-derived observables (e.g. the service's
        # ``database_version`` statistic, which reads the *current* snapshot
        # after a copy-and-swap write) jump backwards.  Version-keyed caches
        # are keyed by object identity as well, so inheriting the counter is
        # safe.
        clone._version = self._version
        clone._snapshots = dict(self._snapshots)
        clone._indexes = {
            predicate: {
                position: {value: list(bucket) for value, bucket in index.items()}
                for position, index in list(positions.items())
            }
            for predicate, positions in list(self._indexes.items())
        }
        return clone

    def overlay(self) -> "OverlayDatabase":
        """An O(1) copy-on-write fork: reads fall through, writes stay local.

        The prepared-query execution path uses overlays as per-execution
        working sets so that running a query does not pay an O(data) copy
        of the EDB (see :mod:`repro.datalog.prepared`).  The base database
        must not be mutated while the overlay is in use.
        """
        return OverlayDatabase(self)

    # ------------------------------------------------------------------
    # Layout / columnar mirror
    # ------------------------------------------------------------------
    @property
    def layout(self) -> str:
        """The storage layout this database advertises (``tuple``/``columnar``)."""
        return self._layout

    def with_layout(self, layout: str) -> "Database":
        """A deep copy of this database under another layout."""
        if layout not in LAYOUTS:
            raise ValueError(f"unknown layout {layout!r}; expected one of {LAYOUTS}")
        clone = self.copy()
        clone._layout = layout
        if layout == "tuple":
            clone._columnar = None
        return clone

    def columnar_store(self):
        """The interned columnar mirror (built lazily, maintained on mutation)."""
        if self._columnar is None:
            from repro.datalog.columnar.store import ColumnarStore

            self._columnar = ColumnarStore(self)
        return self._columnar

    def columnar_parts(self, predicate: str):
        """Columnar arity groups backing *predicate* (base-to-local order)."""
        return self.columnar_store().parts(predicate)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def _note_added(self, predicate: str, values: Tuple) -> None:
        """Maintain the snapshot cache and live indexes after adding a tuple."""
        self._version += 1
        self._snapshots.pop(predicate, None)
        indexes = self._indexes.get(predicate)
        if indexes:
            for position, index in indexes.items():
                if position < len(values):
                    index.setdefault(values[position], []).append(values)
        if self._columnar is not None:
            self._columnar.note_added(predicate, (values,))

    def _note_added_bulk(self, predicate: str, fresh: Iterable[Tuple]) -> None:
        """Snapshot/index maintenance for a grouped insert (no version bump).

        Every bulk mutation path (:meth:`add_facts`, :meth:`update`, the
        overlay's grouped insert) funnels through here so the maintenance
        rules live in one place; callers bump :attr:`version` themselves,
        at most once per call.
        """
        self._snapshots.pop(predicate, None)
        indexes = self._indexes.get(predicate)
        if indexes:
            for position, index in indexes.items():
                for values in fresh:
                    if position < len(values):
                        index.setdefault(values[position], []).append(values)
        if self._columnar is not None:
            self._columnar.note_added(predicate, fresh)

    def add_fact(self, predicate: str, values: Tuple) -> bool:
        """Add a tuple to a relation; return ``True`` if it was new."""
        relation = self._relations.setdefault(predicate, set())
        values = tuple(values)
        if values in relation:
            return False
        relation.add(values)
        self._note_added(predicate, values)
        return True

    def add_edge(self, predicate: str, source, target) -> bool:
        """Convenience for binary relations (labeled graph edges)."""
        return self.add_fact(predicate, (source, target))

    def add_facts(self, facts: Iterable) -> int:
        """Bulk insert; returns the number of facts that were actually new.

        *facts* may mix ground :class:`~repro.datalog.atoms.Atom` objects
        and ``(predicate, values)`` pairs.  Unlike a loop of
        :meth:`add_fact` calls, the snapshots and live indexes of each
        touched relation are updated in one pass and :attr:`version` is
        bumped exactly once, so a 10k-fact load costs one invalidation
        instead of 10k.
        """
        return self._add_grouped(_group_facts(facts))

    def add_relations(self, grouped: Mapping[str, Set[Tuple]]) -> int:
        """Bulk insert of already-grouped per-predicate tuple sets.

        The engines' round commits hold exactly this shape (predicate ->
        fresh head tuples), so this skips :meth:`add_facts`' flatten and
        regroup.  Returns the number of facts that were actually new.
        """
        return self._add_grouped(grouped)

    def update(self, other: "Database") -> None:
        """Add all facts of *other* to this database.

        Grouped per predicate like :meth:`add_facts`: snapshots and live
        indexes of each touched relation are maintained in one pass and
        :attr:`version` is bumped at most once per call.  The semi-naive
        engines run ``working.update(delta)`` every fixpoint round, so a
        per-fact version bump here would invalidate downstream caches once
        per derived fact instead of once per round.
        """
        self._add_grouped(other._relations)

    def _add_grouped(self, grouped: Mapping[str, Set[Tuple]]) -> int:
        """Shared grouped insert; input sets are diffed, never retained.

        Empty groups are skipped outright — an engine's round commit passes
        a bucket per head predicate whether or not anything fired, and a
        ``setdefault`` would leave phantom empty relations behind.
        """
        added = 0
        for predicate, tuples in grouped.items():
            if not tuples:
                continue
            relation = self._relations.setdefault(predicate, set())
            fresh = tuples - relation
            if not fresh:
                continue
            relation.update(fresh)
            added += len(fresh)
            self._note_added_bulk(predicate, fresh)
        if added:
            self._version += 1
        return added

    def _note_removed_bulk(self, predicate: str, gone: Iterable[Tuple]) -> None:
        """Snapshot/index maintenance for a grouped removal (no version bump).

        The mirror image of :meth:`_note_added_bulk`: the snapshot is dropped
        and every live index bucket containing a removed tuple is pruned (a
        tuple appears at most once per bucket because every insert path diffs
        against the relation first).  Emptied buckets are deleted so probes
        for a fully retracted value fall back to the shared empty result.
        """
        self._snapshots.pop(predicate, None)
        indexes = self._indexes.get(predicate)
        if indexes:
            for position, index in indexes.items():
                for values in gone:
                    if position < len(values):
                        bucket = index.get(values[position])
                        if bucket is not None:
                            try:
                                bucket.remove(values)
                            except ValueError:
                                pass
                            if not bucket:
                                del index[values[position]]
        if self._columnar is not None:
            # Columnar groups are append-only; a retraction drops the
            # predicate's encoding and the next columnar use re-encodes.
            self._columnar.invalidate(predicate)

    def remove_fact(self, predicate: str, values: Tuple) -> bool:
        """Remove a tuple from a relation; return ``True`` if it was present."""
        relation = self._relations.get(predicate)
        values = tuple(values)
        if relation is None or values not in relation:
            return False
        relation.remove(values)
        if not relation:
            del self._relations[predicate]
        self._version += 1
        self._note_removed_bulk(predicate, (values,))
        return True

    def retract(self, predicate: str, values: Tuple) -> bool:
        """Alias for :meth:`remove_fact` (the IVM layer's vocabulary)."""
        return self.remove_fact(predicate, values)

    def remove_facts(self, facts: Iterable) -> int:
        """Bulk removal; returns the number of facts that were actually present.

        The mirror of :meth:`add_facts`: *facts* may mix ground
        :class:`~repro.datalog.atoms.Atom` objects and ``(predicate, values)``
        pairs, the snapshots and live indexes of each touched relation are
        maintained in one pass, and :attr:`version` is bumped exactly once.
        Relations left empty are dropped entirely (no phantom empty entries).
        """
        return self._remove_grouped(_group_facts(facts))

    def _remove_grouped(self, grouped: Mapping[str, Set[Tuple]]) -> int:
        """Shared grouped removal; input sets are intersected, never retained."""
        removed = 0
        for predicate, tuples in grouped.items():
            if not tuples:
                continue
            relation = self._relations.get(predicate)
            if not relation:
                continue
            gone = tuples & relation
            if not gone:
                continue
            relation -= gone
            if not relation:
                del self._relations[predicate]
            removed += len(gone)
            self._note_removed_bulk(predicate, gone)
        if removed:
            self._version += 1
        return removed

    def remove_relation(self, predicate: str) -> None:
        """Drop a relation entirely (no error if absent)."""
        self._version += 1
        self._relations.pop(predicate, None)
        self._snapshots.pop(predicate, None)
        self._indexes.pop(predicate, None)
        if self._columnar is not None:
            self._columnar.invalidate(predicate)

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    @property
    def version(self) -> int:
        """Monotone mutation counter; unequal values mean the data changed."""
        return self._version

    def relation(self, predicate: str) -> FrozenSet[Tuple]:
        """The set of tuples of a relation (empty if the relation is absent).

        The returned ``frozenset`` is a cached, read-only snapshot: it is
        reused across calls until the relation next mutates, so hot-path
        callers may probe it repeatedly without paying a copy per call.
        """
        snapshot = self._snapshots.get(predicate)
        if snapshot is None:
            snapshot = frozenset(self._relations.get(predicate, _EMPTY))
            self._snapshots[predicate] = snapshot
        return snapshot

    def relation_view(self, predicate: str):
        """A live, membership-only view of a relation (no snapshot copy).

        Unlike :meth:`relation` this never materialises a frozenset — it
        returns the relation's live storage (or an empty set), so a caller
        that only needs ``values in view`` checks pays O(1) regardless of
        how recently the relation mutated.  The fixpoint engines dedup each
        round's firings against this view.  Contract: read-only, and not
        valid across mutations — re-fetch after any write.
        """
        return self._relations.get(predicate, _EMPTY_SET)

    def index(self, predicate: str, position: int) -> Mapping[object, Sequence[Tuple]]:
        """The hash index of *predicate* on *position*: value -> its tuples.

        Built on first request and thereafter maintained incrementally by
        :meth:`add_fact` / :meth:`update`; a value with no tuples has no
        key.  Read-only, and — like :meth:`relation_view` — not valid
        across :meth:`remove_relation`: a caller probing the same column
        many times between writes (a generated kernel's loop) fetches it
        once and pays one ``dict.get`` per probe.
        """
        indexes = self._indexes.setdefault(predicate, {})
        index = indexes.get(position)
        if index is None:
            index = {}
            for values in self._relations.get(predicate, _EMPTY):
                if position < len(values):
                    index.setdefault(values[position], []).append(values)
            indexes[position] = index
        return index

    def probe(self, predicate: str, position: int, value) -> Sequence[Tuple]:
        """Tuples of *predicate* whose argument at *position* equals *value*.

        Served from the persistent hash index (:meth:`index`).

        The result is a read-only *view* into the index, not a copy (copying
        on every probe would defeat the hot path): it must not be mutated,
        and whether it reflects tuples added later is unspecified (non-empty
        buckets do; the shared empty result does not).  Callers holding a
        result across mutations — no engine does — should materialise it
        first (``tuple(db.probe(...))``).
        """
        try:
            # An index that exists (every probe after a column's first) is
            # two subscripts away; only a miss goes through the builder.
            return self._indexes[predicate][position].get(value, _EMPTY)
        except KeyError:
            return self.index(predicate, position).get(value, _EMPTY)

    def relations(self) -> Dict[str, FrozenSet[Tuple]]:
        """All relations as an immutable snapshot."""
        return {name: self.relation(name) for name in self._relations}

    def cardinality(self, predicate: str) -> int:
        """Number of tuples currently in a relation (0 if absent).

        O(1); this is the statistic the join planner's smallest-first
        heuristic reads (:mod:`repro.datalog.engine.planner`).
        """
        relation = self._relations.get(predicate)
        return len(relation) if relation is not None else 0

    def predicates(self) -> FrozenSet[str]:
        """Names of the non-empty relations."""
        return frozenset(name for name, tuples in self._relations.items() if tuples)

    def contains(self, predicate: str, values: Tuple) -> bool:
        """True if the given tuple belongs to the relation."""
        return tuple(values) in self._relations.get(predicate, ())

    def facts(self) -> Iterator[Atom]:
        """Iterate over all facts as ground atoms."""
        for name in sorted(self._relations):
            for values in sorted(self._relations[name], key=repr):
                yield ground_atom(name, values)

    def active_domain(self) -> FrozenSet:
        """All domain elements occurring in some tuple."""
        domain = set()
        for tuples in self._relations.values():
            for values in tuples:
                domain.update(values)
        return frozenset(domain)

    def fact_count(self) -> int:
        """Total number of tuples across all relations."""
        return sum(len(tuples) for tuples in self._relations.values())

    # ------------------------------------------------------------------
    # Serialization (snapshots)
    # ------------------------------------------------------------------
    _SERIAL_MAGIC = b"RPDB1"

    def to_bytes(self, *, allow_pickle: bool = True) -> bytes:
        """Serialize all relations into a compact, self-contained byte string.

        The format is the value codec above wrapped in a magic header:
        relations become a ``{name: (tuple, ...)}`` mapping with tuples in a
        deterministic order, so identical databases always serialize to
        identical bytes (snapshot checksums stay comparable).  The server's
        snapshot layer is the intended consumer — it passes
        ``allow_pickle=False`` so persisted bytes never embed pickles;
        ``from_bytes`` restores an equal database with cold acceleration
        structures.
        """
        out = bytearray(self._SERIAL_MAGIC)
        payload: Dict[str, Tuple] = {
            name: tuple(sorted(tuples, key=repr))
            for name, tuples in sorted(self._relations.items())
            if tuples
        }
        pack_value(payload, out, allow_pickle=allow_pickle)
        return bytes(out)

    @classmethod
    def from_bytes(cls, data: bytes, *, allow_pickle: bool = True) -> "Database":
        """Inverse of :meth:`to_bytes`; raises ``ValueError`` on corrupt input."""
        if not data.startswith(cls._SERIAL_MAGIC):
            raise ValueError("not a serialized Database (bad magic header)")
        payload, offset = unpack_value(
            data, len(cls._SERIAL_MAGIC), allow_pickle=allow_pickle
        )
        if offset != len(data):
            raise ValueError("trailing bytes after serialized Database")
        if not isinstance(payload, dict):
            raise ValueError("corrupt serialized Database payload")
        database = cls()
        for name, tuples in payload.items():
            database._relations[name] = {tuple(values) for values in tuples}
        return database

    def restrict(self, predicates: Iterable[str]) -> "Database":
        """Return a database containing only the named relations."""
        names = set(predicates)
        return Database(
            {name: set(tuples) for name, tuples in self._relations.items() if name in names}
        )

    def rename(self, mapping: Mapping[str, str]) -> "Database":
        """Return a database with relations renamed according to *mapping*.

        Whole relations are moved per predicate (two source relations may
        merge under one target name) rather than re-added fact by fact.
        """
        renamed = Database()
        for name, tuples in self._relations.items():
            new_name = mapping.get(name, name)
            target = renamed._relations.get(new_name)
            if target is None:
                renamed._relations[new_name] = set(tuples)
            else:
                target.update(tuples)
        return renamed

    # ------------------------------------------------------------------
    # Comparison
    # ------------------------------------------------------------------
    def __eq__(self, other) -> bool:
        if not isinstance(other, Database):
            return NotImplemented
        mine = {name: tuples for name, tuples in self._relations.items() if tuples}
        theirs = {name: tuples for name, tuples in other._relations.items() if tuples}
        return mine == theirs

    def __hash__(self):  # pragma: no cover - databases are mutable
        raise TypeError("Database objects are mutable and unhashable")

    def __contains__(self, fact: Atom) -> bool:
        return self.contains(fact.predicate, fact.as_fact_tuple())

    def __len__(self) -> int:
        return self.fact_count()

    def __repr__(self) -> str:
        counts = ", ".join(
            f"{name}:{len(tuples)}" for name, tuples in sorted(self._relations.items())
        )
        return f"Database({counts})"


class OverlayDatabase(Database):
    """A copy-on-write view over a base database.

    Reads see the union of the base and the overlay's local facts; writes
    only ever touch the local side, and a fact already present in the base
    is never duplicated locally (so cardinalities stay additive).  Creating
    an overlay is O(1) — no relation is copied — which is what lets a
    prepared query execute thousands of times per second over a large EDB:
    each execution's working set is a fresh overlay instead of a deep copy.

    Contract: the base database must not be mutated while the overlay is in
    use (the prepared execution path guarantees this by keying its caches
    on :attr:`Database.version` and rebuilding on change).  Engines only
    ever add facts to their working set, so the overlay does not support
    removing base relations.
    """

    def __init__(self, base: Database):
        super().__init__()
        self._base = base

    @property
    def base(self) -> Database:
        """The database this overlay reads through to."""
        return self._base

    @property
    def layout(self) -> str:
        """Overlays inherit the base's layout (the engines key off this)."""
        return self._base.layout

    def columnar_store(self):
        """The overlay's local mirror, interning through the base's table.

        Sharing the base's :class:`~repro.datalog.columnar.InternTable`
        is what lets a prepared query's seed facts intern through the
        overlay: their codes land in the same space as the base EDB's, so
        batch joins across base and local parts compare plain ints.
        """
        if self._columnar is None:
            from repro.datalog.columnar.store import ColumnarStore

            self._columnar = ColumnarStore(self, table=self._base.columnar_store().table)
        return self._columnar

    def columnar_parts(self, predicate: str):
        base_parts = self._base.columnar_parts(predicate)
        if not self._relations.get(predicate):
            return base_parts
        return base_parts + self.columnar_store().parts(predicate)

    # ------------------------------------------------------------------
    # Mutation (local side only)
    # ------------------------------------------------------------------
    def add_fact(self, predicate: str, values: Tuple) -> bool:
        values = tuple(values)
        if self._base.contains(predicate, values):
            return False
        return super().add_fact(predicate, values)

    def add_facts(self, facts: Iterable) -> int:
        return self._add_grouped(_group_facts(facts))

    def update(self, other: Database) -> None:
        """Add all facts of *other* to the local side, grouped per predicate.

        Like :meth:`Database.update` this bumps :attr:`version` at most once
        per call — the engines run ``working.update(delta)`` every fixpoint
        round over prepared-query overlays, where a per-fact bump would
        invalidate snapshots once per derived fact.
        """
        self._add_grouped(other._relations)

    def _add_grouped(self, grouped: Mapping[str, Set[Tuple]]) -> int:
        """Grouped insert dropping base duplicates; input sets never retained.

        Like the base implementation, empty groups are skipped so no
        phantom empty local relations appear.
        """
        added = 0
        for predicate, tuples in grouped.items():
            if not tuples:
                continue
            local = self._relations.get(predicate)
            fresh = (tuples - local) if local else tuples
            if fresh and self._base.cardinality(predicate):
                fresh = {
                    values
                    for values in fresh
                    if not self._base.contains(predicate, values)
                }
            if not fresh:
                # Everything was a base (or local) duplicate: leave no
                # phantom empty local relation behind.
                continue
            if local is None:
                local = self._relations[predicate] = set()
            local.update(fresh)
            added += len(fresh)
            self._note_added_bulk(predicate, fresh)
        if added:
            self._version += 1
        return added

    def remove_relation(self, predicate: str) -> None:
        raise TypeError("an OverlayDatabase cannot remove relations of its base")

    def remove_fact(self, predicate: str, values: Tuple) -> bool:
        values = tuple(values)
        if self._base.contains(predicate, values):
            raise TypeError(
                f"an OverlayDatabase cannot retract {predicate}{values!r}: the "
                "fact lives in the base database (materialize() the overlay, "
                "or retract from the base itself)"
            )
        return super().remove_fact(predicate, values)

    def _remove_grouped(self, grouped: Mapping[str, Set[Tuple]]) -> int:
        for predicate, tuples in grouped.items():
            for values in tuples:
                if self._base.contains(predicate, values):
                    raise TypeError(
                        f"an OverlayDatabase cannot retract {predicate}{values!r}: "
                        "the fact lives in the base database (materialize() the "
                        "overlay, or retract from the base itself)"
                    )
        return super()._remove_grouped(grouped)

    # ------------------------------------------------------------------
    # Access (union of base and local)
    # ------------------------------------------------------------------
    @property
    def version(self) -> int:
        return self._base.version + self._version

    def relation(self, predicate: str) -> FrozenSet[Tuple]:
        local = self._relations.get(predicate)
        if not local:
            return self._base.relation(predicate)
        snapshot = self._snapshots.get(predicate)
        if snapshot is None:
            base = self._base.relation(predicate)
            snapshot = (base | local) if base else frozenset(local)
            self._snapshots[predicate] = snapshot
        return snapshot

    def relation_view(self, predicate: str):
        local = self._relations.get(predicate)
        if not local:
            return self._base.relation_view(predicate)
        if not self._base.cardinality(predicate):
            return local
        return _MembershipUnion(local, self._base.relation_view(predicate))

    def probe(self, predicate: str, position: int, value) -> Sequence[Tuple]:
        local = self._relations.get(predicate)
        if not local:
            return self._base.probe(predicate, position, value)
        mine = super().probe(predicate, position, value)
        if not self._base.cardinality(predicate):
            return mine
        theirs = self._base.probe(predicate, position, value)
        if not theirs:
            return mine
        if not mine:
            return theirs
        return tuple(theirs) + tuple(mine)

    def relations(self) -> Dict[str, FrozenSet[Tuple]]:
        names = set(self._relations) | set(self._base._relations)
        return {name: self.relation(name) for name in names}

    def cardinality(self, predicate: str) -> int:
        # Local facts are disjoint from the base by construction (add_fact
        # refuses duplicates), so the counts are additive.
        local = self._relations.get(predicate)
        return self._base.cardinality(predicate) + (len(local) if local else 0)

    def predicates(self) -> FrozenSet[str]:
        return self._base.predicates() | super().predicates()

    def contains(self, predicate: str, values: Tuple) -> bool:
        return super().contains(predicate, values) or self._base.contains(predicate, values)

    def facts(self) -> Iterator[Atom]:
        for name in sorted(set(self._relations) | set(self._base._relations)):
            for values in sorted(self.relation(name), key=repr):
                yield ground_atom(name, values)

    def active_domain(self) -> FrozenSet:
        return self._base.active_domain() | super().active_domain()

    def fact_count(self) -> int:
        return self._base.fact_count() + super().fact_count()

    def materialize(self) -> Database:
        """Flatten the overlay into an independent plain :class:`Database`."""
        return Database({name: set(tuples) for name, tuples in self.relations().items()})

    def restrict(self, predicates: Iterable[str]) -> Database:
        names = set(predicates)
        present = (set(self._relations) | set(self._base._relations)) & names
        return Database({name: set(self.relation(name)) for name in present})

    def rename(self, mapping: Mapping[str, str]) -> Database:
        return self.materialize().rename(mapping)

    def copy(self) -> Database:
        """A fresh fork of the base while unwritten; a deep copy afterwards.

        Engines call ``database.copy()`` once to obtain their working set;
        for a pristine overlay that is O(1), which is the whole point.
        """
        if not any(self._relations.values()):
            return OverlayDatabase(self._base)
        return self.materialize()

    def __eq__(self, other) -> bool:
        if not isinstance(other, Database):
            return NotImplemented
        flattened = other.materialize() if isinstance(other, OverlayDatabase) else other
        return self.materialize() == flattened

    def __hash__(self):  # pragma: no cover - databases are mutable
        raise TypeError("Database objects are mutable and unhashable")

    def __repr__(self) -> str:
        local = sum(len(tuples) for tuples in self._relations.values())
        return f"OverlayDatabase(base={self._base!r}, local_facts={local})"
