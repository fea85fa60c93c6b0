"""The NumPy vector lane: whole-round joins as C-speed array kernels.

The packed-bigint lane in :mod:`repro.datalog.columnar.batch` removes the
per-tuple loop iterations of the tuple kernels, but every emitted key
still costs a handful of Python bytecodes.  On workloads whose head
relations fit two 32-bit lanes in a signed 64-bit integer — every binary
program, which is the shape of the transitive-closure acceptance gates —
this module lowers the *same* step programs once more, onto ndarrays:

* columns are ``int64`` arrays (copied from the ``array('q')`` storage and
  cached with a row-count stamp);
* an index probe over a whole batch is one CSR expansion —
  ``searchsorted`` into the sorted distinct codes, ``np.repeat`` of the
  batch rows by match count, one gather for the matched rows;
* equality checks are boolean masks; head emission is a fused
  multiply-add producing ready-packed ``int64`` keys;
* dedup is ``np.unique`` (batch-internal duplicates, the bulk of a
  fixpoint's waste) followed by ``searchsorted`` membership against the
  sorted key arrays of the existing parts.

Eligibility is whole-evaluation, decided by :func:`supported`: every rule
head must have arity ≤ 2 and the intern table must stay below 2**30 codes
(the bound that keeps every weighted key sum inside ``int64``).  Anything
else — wider heads, a missing NumPy — falls back to the packed lane,
which is observationally identical.  Statistics parity follows the same
discipline as the other lanes: firings are counted after all checks, and
"new" counts are bucket growth against the round-start state.

This lane always runs serial, even under ``workers > 1``: its rounds are
already C-speed array sweeps, so the per-round pickling and queue latency
of the process-sharded driver (:mod:`repro.datalog.columnar.shard`) would
dominate any split — sharding targets the interpreter-bound packed lane,
i.e. exactly the programs (wide heads) this lane cannot take.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

try:  # NumPy is an optional accelerator, never a hard dependency.
    import numpy as np
except ImportError:  # pragma: no cover - exercised only on numpy-less installs
    np = None

from repro.datalog.atoms import NegatedAtom
from repro.datalog.columnar.batch import (
    _BatchAntiStep,
    _EmitLeaf,
    _step_parts,
    lower_stratum,
    round_sequences,
)
from repro.datalog.columnar.decode import LazyDecodedDatabase
from repro.datalog.columnar.relation import KEY_BITS, ColumnarRelation, pack_codes
from repro.datalog.database import Database
from repro.datalog.engine.base import EvaluationResult
from repro.datalog.engine.executor import PROBE_CONST, PROBE_SCAN, PROBE_SLOT
from repro.datalog.engine.fixpoint import run

_KEY_MASK = (1 << KEY_BITS) - 1
_UNSET = object()

#: Above this many interned constants a weighted two-lane key sum could
#: leave int64; the packed-bigint lane has no such bound and takes over.
_MAX_CODES = 1 << 30


def supported(plan, table, program) -> bool:
    """Whether this evaluation can run entirely on the vector lane."""
    if np is None:
        return False
    growth = 0
    for rule in program.rules:
        if rule.is_fact():
            growth += len(rule.head.terms)
    if len(table) + growth + 64 >= _MAX_CODES:
        return False
    for stratum in plan.strata:
        for rule in stratum.rules:
            if len(rule.head.terms) > 2:
                return False
            for atom in rule.body:
                # Anti-join keys are packed the same way as head keys, so a
                # negated literal's arity is bounded like a head's.
                if isinstance(atom, NegatedAtom) and len(atom.terms) > 2:
                    return False
    return True


def _unseed(key: int, arity: int) -> int:
    """Strip the arity seed from a packed key (vector keys are per-arity)."""
    return key - (arity << (KEY_BITS * arity))


# ----------------------------------------------------------------------
# Part access: uniform ndarray views over base groups, local rows, deltas
# ----------------------------------------------------------------------
class _VecGroup:
    """Locally derived rows of one (predicate, arity): ndarray chunks."""

    __slots__ = ("arity", "nrows", "col_chunks", "key_chunks", "key_set", "_cache")

    def __init__(self, arity: int):
        self.arity = arity
        self.nrows = 0
        self.col_chunks: Tuple[List, ...] = tuple([] for _ in range(arity))
        self.key_chunks: List = []
        # Incrementally maintained key membership for the fallback dedup
        # path (domains too large for the dense bitmap).  A local group
        # grows on every round, so a sorted-array snapshot would be rebuilt
        # (an O(n log n) concat + sort) each round — on deep recursions
        # with tiny deltas that rebuild dominates the whole evaluation.  A
        # plain Python set updates in O(delta) instead; it is built lazily
        # on first fallback use so bitmap-deduped groups never pay for it.
        self.key_set: Optional[set] = None
        self._cache: Dict[tuple, tuple] = {}

    def append(self, cols, keys) -> None:
        for position, column in enumerate(cols):
            self.col_chunks[position].append(column)
        self.key_chunks.append(keys)
        if self.key_set is not None:
            self.key_set.update(keys.tolist())
        self.nrows += len(keys)

    def ensure_key_set(self) -> set:
        if self.key_set is None:
            key_set = set()
            for chunk in self.key_chunks:
                key_set.update(chunk.tolist())
            self.key_set = key_set
        return self.key_set


class _DeltaPart:
    """One round's fresh rows of one (predicate, arity)."""

    __slots__ = ("arity", "cols", "keys", "_cache")

    def __init__(self, arity: int, cols, keys):
        self.arity = arity
        self.cols = cols
        self.keys = keys
        self._cache: Dict[tuple, tuple] = {}


def _part_len(part) -> int:
    if isinstance(part, ColumnarRelation):
        return len(part)
    if isinstance(part, _VecGroup):
        return part.nrows
    return len(part.keys)


def _cache_of(part) -> Dict[tuple, tuple]:
    return part._np if isinstance(part, ColumnarRelation) else part._cache


def _cached(part, key, build):
    """Row-count-stamped per-part cache: appends make stale entries miss."""
    cache = _cache_of(part)
    stamp = _part_len(part)
    entry = cache.get(key)
    if entry is not None and entry[0] == stamp:
        return entry[1]
    value = build()
    cache[key] = (stamp, value)
    return value


def _part_col(part, position: int):
    """The int64 ndarray for one column of *part*."""
    if isinstance(part, _DeltaPart):
        return part.cols[position]

    def build():
        if isinstance(part, ColumnarRelation):
            # A copy on purpose: a zero-copy frombuffer view would pin the
            # array('q') buffer and make every later append raise.
            return np.array(part.columns[position], dtype=np.int64)
        chunks = part.col_chunks[position]
        return chunks[0] if len(chunks) == 1 else np.concatenate(chunks)

    return _cached(part, ("col", position), build)


def _part_keys_sorted(part):
    """The part's unseeded packed keys as a sorted int64 array."""

    def build():
        if isinstance(part, _DeltaPart):
            keys = part.keys
        elif isinstance(part, _VecGroup):
            if not part.key_chunks:
                return np.empty(0, dtype=np.int64)
            keys = (
                part.key_chunks[0]
                if len(part.key_chunks) == 1
                else np.concatenate(part.key_chunks)
            )
        else:
            keys = _pack_part(part)
        return np.sort(keys)

    return _cached(part, ("keys_sorted",), build)


def _pack_part(part):
    """Fold a part's columns into unseeded int64 keys (vectorized)."""
    arity = part.arity
    if arity == 0:
        return np.zeros(_part_len(part), dtype=np.int64)
    keys = _part_col(part, 0).copy()
    for position in range(1, arity):
        keys <<= KEY_BITS
        keys |= _part_col(part, position)
    return keys


def _part_csr(part, position: int):
    """CSR probe index: (distinct codes, starts, counts, row order, all-one).

    The trailing flag records that every code occurs exactly once — the
    shape of a chain/tree edge column — which lets :func:`_expand` skip
    the repeat/cumsum expansion entirely.
    """

    def build():
        column = _part_col(part, position)
        order = np.argsort(column, kind="stable")
        sorted_codes = column[order]
        uniq, starts = np.unique(sorted_codes, return_index=True)
        counts = np.diff(np.append(starts, len(column)))
        all_one = len(counts) > 0 and int(counts.max()) == 1
        return uniq, starts, counts, order, all_one

    return _cached(part, ("csr", position), build)


def _in_sorted(values, sorted_arr):
    """Boolean membership of *values* (any order) in a sorted array."""
    m = len(sorted_arr)
    if m == 0 or len(values) == 0:
        return np.zeros(len(values), dtype=bool)
    idx = np.searchsorted(sorted_arr, values)
    np.minimum(idx, m - 1, out=idx)
    return sorted_arr[idx] == values


def _expand(csr, values):
    """Probe every value through the CSR index; returns (rows, origins).

    ``rows[i]`` is a matched part row and ``origins[i]`` the batch row it
    answers — the ndarray form of "for each batch row, all index hits".
    """
    uniq, starts, counts, order, all_one = csr
    m = len(uniq)
    if m == 0 or len(values) == 0:
        return None
    idx = np.searchsorted(uniq, values)
    np.minimum(idx, m - 1, out=idx)
    valid = uniq[idx] == values
    if all_one:
        # Unique probe column: each hit expands to exactly one row, so the
        # match set is a pair of gathers instead of a repeat/cumsum fan-out.
        rows = order[starts[idx[valid]]]
        if len(rows) == 0:
            return None
        return rows, np.nonzero(valid)[0]
    hit_counts = np.where(valid, counts[idx], 0)
    total = int(hit_counts.sum())
    if total == 0:
        return None
    offsets = np.cumsum(hit_counts) - hit_counts
    within = np.arange(total, dtype=np.int64) - np.repeat(offsets, hit_counts)
    rows = order[np.repeat(starts[idx], hit_counts) + within]
    origins = np.repeat(np.arange(len(values), dtype=np.int64), hit_counts)
    return rows, origins


def _rows_for_code(part, position: int, code: int):
    """All part rows whose column equals *code* (PROBE_CONST candidates)."""
    uniq, starts, counts, order, _ = _part_csr(part, position)
    idx = int(np.searchsorted(uniq, code)) if len(uniq) else 0
    if idx >= len(uniq) or int(uniq[idx]) != code:
        return None
    start = int(starts[idx])
    return order[start : start + int(counts[idx])]


# ----------------------------------------------------------------------
# The working set
# ----------------------------------------------------------------------
#: Largest dense membership domain (in bools) a head relation may claim.
#: ``(codes + 1) ** arity`` below this bound gets a bitmap whose scatter
#: and gather are O(batch) with no per-key hashing at all; anything wider
#: falls back to key sets and sorted-array membership.
_BITMAP_DOMAIN_MAX = 1 << 22


class _VectorWorking:
    """Columnar working state for one evaluation on the vector lane."""

    __slots__ = (
        "database",
        "table",
        "local",
        "_parts",
        "_member",
        "facts",
    )

    def __init__(self, database):
        self.database = database
        self.table = database.columnar_store().table
        self.local: Dict[Tuple[str, int], _VecGroup] = {}
        self._parts: Dict[Tuple[str, int], tuple] = {}
        # (predicate, arity) -> (bitmap, base_dim) | None (fallback dedup).
        self._member: Dict[Tuple[str, int], Optional[tuple]] = {}
        # Rows loaded from fact rules: one more read-only part per
        # (predicate, arity), complete before the first stratum runs.
        self.facts: Dict[Tuple[str, int], ColumnarRelation] = {}

    def parts(self, predicate: str, arity: int) -> tuple:
        cached = self._parts.get((predicate, arity))
        if cached is None:
            groups = [
                group
                for group in self.database.columnar_parts(predicate)
                if group.arity == arity
            ]
            for extra in (self.facts, self.local):
                group = extra.get((predicate, arity))
                if group is not None:
                    groups.append(group)
            cached = self._parts[(predicate, arity)] = tuple(groups)
        return cached

    def membership(self, predicate: str, arity: int) -> Optional[tuple]:
        """The dense seen-bitmap for one head relation, or None.

        Built on first dedup of the relation, seeded with every row already
        live in its parts.  Codes are stable by then — a stratum's kernels
        intern their constants before any rule fires — so the domain
        ``(len(table) + 1) ** arity`` can never be outgrown.  All rows that
        appear later are marked by :func:`_dedup` itself as they are found
        fresh, which also gives cross-rule bucket dedup for free.
        """
        key = (predicate, arity)
        entry = self._member.get(key, _UNSET)
        if entry is not _UNSET:
            return entry
        entry = None
        if 1 <= arity <= 2:
            base_dim = len(self.table) + 1
            domain = base_dim**arity
            if domain <= _BITMAP_DOMAIN_MAX:
                seen = np.zeros(domain, dtype=bool)
                for part in self.parts(predicate, arity):
                    if _part_len(part) == 0:
                        continue
                    keys = _pack_part(part)
                    if arity == 2:
                        seen[(keys >> KEY_BITS) * base_dim + (keys & _KEY_MASK)] = True
                    else:
                        seen[keys] = True
                # Scratch lane for batch-internal dedup: _dedup scatters the
                # batch positions and keeps, per distinct key, only the row
                # that won the scatter — no sort needed.  Only slots written
                # in the same round are ever read back, so staleness across
                # rounds is harmless.
                scratch = np.empty(domain, dtype=np.int64)
                entry = (seen, base_dim, scratch)
        self._member[key] = entry
        return entry

    def group(self, predicate: str, arity: int) -> _VecGroup:
        group = self.local.get((predicate, arity))
        if group is None:
            group = self.local[(predicate, arity)] = _VecGroup(arity)
            self._parts.pop((predicate, arity), None)
        return group

    def add_fact(self, predicate: str, values: tuple) -> bool:
        """One ground fact (the fact-rule loading path); returns is-new."""
        codes = [self.table.intern(value) for value in values]
        arity = len(codes)
        key = pack_codes(codes)
        for part in self.database.columnar_parts(predicate):
            if part.arity == arity and key in part.keys:
                return False
        facts = self.facts.get((predicate, arity))
        if facts is None:
            facts = self.facts[(predicate, arity)] = ColumnarRelation(arity)
            self._parts.pop((predicate, arity), None)
        return facts.append_rows([codes]) == 1


# ----------------------------------------------------------------------
# Step execution
# ----------------------------------------------------------------------
def _match_part(step, part, cols, n: int):
    """(rows, origins) of all matches of one step against one part."""
    kind = step.probe_kind
    if kind == PROBE_SLOT:
        hit = _expand(_part_csr(part, step.probe_position), cols[step.probe_slot])
        if hit is None:
            return None
        rows, origins = hit
    else:
        if kind == PROBE_CONST:
            candidates = _rows_for_code(part, step.probe_position, step.probe_code)
            if candidates is None or len(candidates) == 0:
                return None
        else:
            candidates = np.arange(_part_len(part), dtype=np.int64)
            if len(candidates) == 0:
                return None
        k = len(candidates)
        rows = np.tile(candidates, n)
        origins = np.repeat(np.arange(n, dtype=np.int64), k)
    mask = None
    for position, code in step.const_checks:
        check = _part_col(part, position)[rows] == code
        mask = check if mask is None else (mask & check)
    for position, other in step.self_checks:
        check = _part_col(part, position)[rows] == _part_col(part, other)[rows]
        mask = check if mask is None else (mask & check)
    for position, slot in step.slot_checks:
        check = _part_col(part, position)[rows] == cols[slot][origins]
        mask = check if mask is None else (mask & check)
    if mask is not None:
        rows = rows[mask]
        origins = origins[mask]
        if len(rows) == 0:
            return None
    return rows, origins


def _run_step(step, parts, cols, n: int):
    """Join the batch against one atom; returns the next (cols, n)."""
    if (
        n == 1
        and step.probe_kind == PROBE_SCAN
        and not step.carry_slots
        and not step.const_checks
        and not step.self_checks
        and not step.slot_checks
    ):
        # Unfiltered scan of an empty batch — the shape of every delta
        # variant's first step.  With a single live part the bound columns
        # *are* the part's columns: alias them instead of tiling row ids
        # and gathering (the per-round copies would dwarf tiny deltas).
        live = [part for part in parts if _part_len(part)]
        if not live:
            return {}, 0
        if len(live) == 1:
            part = live[0]
            return (
                {slot: _part_col(part, position) for position, slot in step.binds},
                _part_len(part),
            )
    slots = list(step.carry_slots) + [slot for _, slot in step.binds]
    gathered: Dict[int, List] = {slot: [] for slot in slots}
    matches = 0
    for part in parts:
        if _part_len(part) == 0:
            continue
        hit = _match_part(step, part, cols, n)
        if hit is None:
            continue
        rows, origins = hit
        matches += len(rows)
        for slot in step.carry_slots:
            gathered[slot].append(cols[slot][origins])
        for position, slot in step.binds:
            gathered[slot].append(_part_col(part, position)[rows])
    if matches == 0:
        return {}, 0
    out = {
        slot: (chunks[0] if len(chunks) == 1 else np.concatenate(chunks))
        for slot, chunks in gathered.items()
    }
    return out, matches


def _run_leaf(leaf, parts, cols, n: int, head_arity: int):
    """Fused leaf join + packed head emission; returns (emitted, firings)."""
    base = _unseed(leaf.base_key, head_arity)
    weights = [1 << (KEY_BITS * (head_arity - 1 - j)) for j in range(head_arity)]
    emitted: List = []
    firings = 0
    for part in parts:
        if _part_len(part) == 0:
            continue
        if leaf.identity:
            keys = _pack_part(part)
            emitted.append(keys)
            firings += len(keys)
            continue
        hit = _match_part(leaf, part, cols, n)
        if hit is None:
            continue
        rows, origins = hit
        # Fused emission: each gather already yields a fresh array, so the
        # first term is accumulated in place and the base is added only
        # when the head carries a constant lane.
        keys = None
        for slot, weight in leaf.carry_weights:
            term = cols[slot][origins]
            if weight != 1:
                term = term * weight
            if keys is None:
                keys = term
            else:
                keys += term
        for position, weight in leaf.leaf_weights:
            term = _part_col(part, position)[rows]
            if weight != 1:
                term = term * weight
            if keys is None:
                keys = term
            else:
                keys += term
        if keys is None:
            keys = np.full(len(rows), base, dtype=np.int64)
        elif base:
            keys += base
        emitted.append(keys)
        firings += len(keys)
    if not emitted:
        return None, 0
    return (emitted[0] if len(emitted) == 1 else np.concatenate(emitted)), firings


def _run_anti_step(step, working, cols, n: int):
    """Filter the batch by absence from the negated relation; next (cols, n).

    Membership goes through the dense bitmap when the negated relation has
    one (O(batch) gather, no hashing) and through sorted-key
    ``searchsorted`` otherwise.  The relation is closed below this stratum,
    so reading the bitmap (or building it now) is sound — it cannot grow.
    """
    arity = step.arity
    keys = np.full(n, step.base_key - (arity << (KEY_BITS * arity)), dtype=np.int64)
    for slot, weight in step.slot_weights:
        if weight == 1:
            keys += cols[slot]
        else:
            keys += cols[slot] * weight
    member = working.membership(step.predicate, arity)
    if member is not None:
        # The bitmap's domain was sized when it was built; later strata may
        # intern new constants, so probe codes can exceed ``base_dim``.
        # Those rows are definitively absent — the relation is closed, so
        # every code it holds predates the bitmap — and must not be
        # gathered (they would alias in-domain slots or index out of range).
        seen, base_dim, _ = member
        if arity == 2:
            lane_hi = keys >> KEY_BITS
            lane_lo = keys & _KEY_MASK
            in_range = (lane_hi < base_dim) & (lane_lo < base_dim)
            compact = np.where(in_range, lane_hi * base_dim + lane_lo, 0)
        else:
            in_range = keys < base_dim
            compact = np.where(in_range, keys, 0)
        mask = ~(in_range & seen[compact])
    else:
        present = np.zeros(n, dtype=bool)
        for part in working.parts(step.predicate, arity):
            if _part_len(part) == 0:
                continue
            present |= _in_sorted(keys, _part_keys_sorted(part))
        mask = ~present
    kept = int(mask.sum())
    if kept == n:
        return cols, n
    if kept == 0:
        return cols, 0
    filtered = {slot: column[mask] for slot, column in cols.items()}
    return filtered, kept


def _run_emit_leaf(leaf, cols, n: int, head_arity: int):
    """Emit one head key per surviving row (orders ending on an anti step)."""
    keys = np.full(n, _unseed(leaf.base_key, head_arity), dtype=np.int64)
    for slot, weight in leaf.carry_weights:
        if weight == 1:
            keys += cols[slot]
        else:
            keys += cols[slot] * weight
    return keys, n


def _run_sequence(sequence, working, delta, head_arity: int):
    """Run one lowered order; returns (emitted keys ndarray | None, firings)."""
    if sequence.leaf is None:
        key = _unseed(sequence.ground_key, head_arity)
        return np.array([key], dtype=np.int64), 1
    cols: Dict[int, object] = {}
    n = 1
    for step in sequence.steps:
        if type(step) is _BatchAntiStep:
            cols, n = _run_anti_step(step, working, cols, n)
        else:
            cols, n = _run_step(step, _step_parts(step, working, delta), cols, n)
        if not n:
            return None, 0
    leaf = sequence.leaf
    if type(leaf) is _EmitLeaf:
        return _run_emit_leaf(leaf, cols, n, head_arity)
    return _run_leaf(leaf, _step_parts(leaf, working, delta), cols, n, head_arity)


#: Candidate batches at or below this size check local-group membership
#: through the Python key set (O(batch)); larger batches amortise a sorted
#: snapshot better and keep the searchsorted path.
_SET_DEDUP_MAX = 2048


def _dedup(working, predicate: str, arity: int, emitted, bucket: List):
    """Distinct new keys of *emitted* vs the bucket and all live parts."""
    member = working.membership(predicate, arity)
    if member is not None:
        # Dense path: one gather answers membership against everything ever
        # seen (base parts, committed rounds, and this round's bucket);
        # batch-internal duplicates collapse by electing, per distinct key,
        # the emission that won the scratch scatter; one scatter then marks
        # the survivors.
        seen, base_dim, scratch = member
        if arity == 2:
            compact = (emitted >> KEY_BITS) * base_dim + (emitted & _KEY_MASK)
        else:
            compact = emitted
        positions = np.arange(len(emitted), dtype=np.int64)
        scratch[compact] = positions
        mask = (scratch[compact] == positions) & ~seen[compact]
        fresh = emitted[mask]
        if len(fresh):
            seen[compact[mask]] = True
        return fresh
    candidates = np.unique(emitted)
    for fresh in bucket:
        if len(candidates) == 0:
            break
        candidates = candidates[~_in_sorted(candidates, fresh)]
    for part in working.parts(predicate, arity):
        if len(candidates) == 0:
            break
        if isinstance(part, _VecGroup) and len(candidates) <= _SET_DEDUP_MAX:
            key_set = part.ensure_key_set()
            if key_set:
                kept = [key for key in candidates.tolist() if key not in key_set]
                if len(kept) != len(candidates):
                    candidates = np.array(kept, dtype=np.int64)
        else:
            candidates = candidates[~_in_sorted(candidates, _part_keys_sorted(part))]
    return candidates


# ----------------------------------------------------------------------
# Rule firing
# ----------------------------------------------------------------------
def _fire(predicate, arity, sequence, working, delta, buckets, statistics) -> None:
    emitted, firings = _run_sequence(sequence, working, delta, arity)
    if emitted is None:
        statistics.record_batch(predicate, 0, 0)
        return
    bucket = buckets.setdefault((predicate, arity), [])
    fresh = _dedup(working, predicate, arity, emitted, bucket)
    new = len(fresh)
    if new:
        bucket.append(fresh)
    statistics.record_batch(predicate, int(firings), int(new))


# ----------------------------------------------------------------------
# The lane
# ----------------------------------------------------------------------
class VectorLane:
    """The NumPy lane of :mod:`repro.datalog.engine.fixpoint` (working state
    is lane-private, as on :class:`~repro.datalog.columnar.batch.PackedLane`)."""

    def __init__(self, database, plan, statistics, guard=None):
        self.database = database
        self.plan = plan
        self.statistics = statistics
        self.guard = guard
        self.working = _VectorWorking(database)
        self.add_fact = self.working.add_fact

    def begin_stratum(self, stratum):
        return lower_stratum(self.plan, stratum, self.working.table)

    def fire(self, rules, delta):
        working, statistics = self.working, self.statistics
        buckets: Dict[Tuple[str, int], List] = {}
        for head, head_arity, sequence in round_sequences(rules, delta, statistics, self.guard):
            _fire(head, head_arity, sequence, working, delta, buckets, statistics)
        return buckets

    def commit(self, buckets):
        working = self.working
        delta: Dict[str, Dict[int, _DeltaPart]] = {}
        added = 0
        for (predicate, arity), chunks in buckets.items():
            if not chunks:
                continue
            keys = chunks[0] if len(chunks) == 1 else np.concatenate(chunks)
            cols = tuple(
                (keys >> (KEY_BITS * (arity - 1 - j))) & _KEY_MASK for j in range(arity)
            )
            working.group(predicate, arity).append(cols, keys)
            delta.setdefault(predicate, {})[arity] = _DeltaPart(arity, cols, keys)
            added += len(keys)
        return delta, added

    def decode(self, idb_predicates) -> Database:
        # The EDB contribution is snapshotted *now* (the input database may
        # be mutated after the evaluation returns); the derived columns —
        # the bulk of the model, already immutable — decode on first read.
        working, database = self.working, self.database
        relations: Dict[str, set] = {
            predicate: set(database.relation(predicate)) for predicate in idb_predicates
        }

        def decode() -> Dict[str, set]:
            values = np.fromiter(
                working.table.values(), dtype=object, count=len(working.table)
            )
            for (predicate, arity), group in (*working.facts.items(), *working.local.items()):
                if predicate not in relations or _part_len(group) == 0:
                    continue
                tuples = relations[predicate]
                if arity == 0:
                    tuples.add(())
                    continue
                object_cols = [
                    values[_part_col(group, position)] for position in range(arity)
                ]
                tuples.update(zip(*[column.tolist() for column in object_cols]))
            return {predicate: tuples for predicate, tuples in relations.items() if tuples}

        return LazyDecodedDatabase.defer(decode)


def evaluate_seminaive(program, database, plan, statistics, options) -> EvaluationResult:
    """The semi-naive fixpoint on the vector lane; *plan* must be :func:`supported`."""
    return run(VectorLane(database, plan, statistics, options.guard), program, database, options)
