"""One relation at one arity as parallel int columns.

A :class:`ColumnarRelation` stores the rows of a single predicate at a
single arity as per-position ``array('q')`` columns of intern codes,
plus two acceleration structures:

* a **packed row-key set** — every row folded into one Python int
  (:func:`pack_codes`), giving O(1) membership and C-speed set
  difference for dedup; keys are arity-seeded, so keys from relations
  of different arities can never collide inside a shared bucket;
* **lazy per-position hash indexes** — ``code -> [row ids]``, built on
  first probe of a position and maintained on append, mirroring the
  tuple layout's persistent indexes.

Rows are append-only: the tuple layout remains the source of truth, and
retractions invalidate the whole columnar mirror of a predicate rather
than deleting in place (see :mod:`repro.datalog.columnar.store`).
"""

from __future__ import annotations

from array import array
from typing import Dict, Iterable, List, Sequence, Tuple

#: Bits reserved per column in a packed row key.  Codes are dense intern
#: indexes, so 32 bits covers 4G distinct constants; keys of arity-k rows
#: are arbitrary-precision ints of ~32*(k+1) bits (the +1 is the arity
#: seed), which Python handles natively.
KEY_BITS = 32
_KEY_MASK = (1 << KEY_BITS) - 1


def pack_codes(codes: Sequence[int]) -> int:
    """Fold a code row into one arity-seeded int key.

    The layout is ``arity | c0 | c1 | ...`` in 32-bit lanes: the arity
    seed occupies the top lane, so ``(5,)`` and ``(0, 5)`` pack to
    different keys and a per-predicate bucket may safely mix arities.
    """
    key = len(codes)
    for code in codes:
        key = (key << KEY_BITS) | code
    return key


def arity_of_key(key: int) -> int:
    """Recover the arity seed from a packed key (0 for the empty row)."""
    if key == 0:
        return 0
    return (key.bit_length() - 1) // KEY_BITS


def unpack_key(key: int, arity: int) -> Tuple[int, ...]:
    """The code row behind a packed key of known arity."""
    codes = []
    for position in range(arity - 1, -1, -1):
        codes.append((key >> (KEY_BITS * position)) & _KEY_MASK)
    return tuple(codes)


def unpack_columns(keys: Sequence[int], arity: int) -> Tuple[array, ...]:
    """The code columns behind packed *keys* of one arity, row-aligned.

    Columns come back as ``array('q')`` — the relation's own storage type,
    so :meth:`ColumnarRelation.extend_columns` appends them as a block
    copy and a sharded round pickles them as flat buffers.
    """
    return tuple(
        array("q", [(key >> shift) & _KEY_MASK for key in keys])
        for shift in range(KEY_BITS * (arity - 1), -1, -KEY_BITS)
    )


class ColumnarRelation:
    """Append-only columnar rows of one predicate at one arity."""

    __slots__ = ("arity", "columns", "keys", "_indexes", "_distinct", "_np")

    def __init__(self, arity: int):
        self.arity = arity
        self.columns: Tuple[array, ...] = tuple(array("q") for _ in range(arity))
        self.keys: set = set()
        # position -> code -> list of row ids (built lazily, maintained on append)
        self._indexes: Dict[int, Dict[int, List[int]]] = {}
        self._distinct: Dict[int, int] = {}
        # Vector-lane caches (ndarray copies of columns, sorted key arrays,
        # CSR probe indexes), keyed by (kind, position) with a row-count
        # stamp — appends simply make stale entries miss.  Owned here so the
        # caches survive across evaluations; see columnar/vector.py.
        self._np: Dict[tuple, tuple] = {}

    def __len__(self) -> int:
        return len(self.columns[0]) if self.arity else (1 if self.keys else 0)

    def append_rows(self, rows: Iterable[Sequence[int]]) -> int:
        """Append code rows not already present; returns how many were new."""
        added = 0
        for codes in rows:
            key = pack_codes(codes)
            if key in self.keys:
                continue
            self.keys.add(key)
            for position, code in enumerate(codes):
                self.columns[position].append(code)
            added += 1
        if added:
            self._note_appended(len(self) - added)
            self._distinct.clear()
        return added

    def extend_columns(self, columns: Sequence[Sequence[int]], keys: Iterable[int]) -> None:
        """Bulk append of pre-deduped parallel columns (the round commit path).

        *keys* must be the packed keys of exactly the rows in *columns*,
        already known to be absent — the batch fixpoint dedups against
        :attr:`keys` before committing, so no per-row re-check happens here.
        """
        start = len(self)
        for position, column in enumerate(columns):
            self.columns[position].extend(column)
        self.keys.update(keys)
        self._note_appended(start)
        self._distinct.clear()

    def _note_appended(self, start: int) -> None:
        """Maintain already-built indexes for rows appended at *start*."""
        for position, index in self._indexes.items():
            column = self.columns[position]
            for row in range(start, len(column)):
                bucket = index.get(column[row])
                if bucket is None:
                    index[column[row]] = [row]
                else:
                    bucket.append(row)

    def index(self, position: int) -> Dict[int, List[int]]:
        """The hash index ``code -> [row ids]`` at *position* (built lazily)."""
        index = self._indexes.get(position)
        if index is None:
            index = {}
            for row, code in enumerate(self.columns[position]):
                bucket = index.get(code)
                if bucket is None:
                    index[code] = [row]
                else:
                    bucket.append(row)
            self._indexes[position] = index
        return index

    def distinct(self, position: int) -> int:
        """Number of distinct codes at *position* (cached until mutation).

        This is the column statistic the planner's column-aware cost model
        reads; served from a built index when one exists, else from one
        C-level ``set()`` pass over the column.
        """
        cached = self._distinct.get(position)
        if cached is None:
            index = self._indexes.get(position)
            cached = len(index) if index is not None else len(set(self.columns[position]))
            self._distinct[position] = cached
        return cached

    def row(self, row_id: int) -> Tuple[int, ...]:
        """The code row at *row_id*."""
        return tuple(column[row_id] for column in self.columns)

    def __contains__(self, codes: Sequence[int]) -> bool:
        return pack_codes(codes) in self.keys

    def __repr__(self) -> str:
        return f"ColumnarRelation(arity={self.arity}, rows={len(self)})"
