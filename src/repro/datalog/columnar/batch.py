"""Vectorized batch evaluation: RuleKernel step programs over whole columns.

The tuple kernels (:mod:`repro.datalog.engine.executor`) probe one
tuple at a time: every candidate pays a Python-level loop iteration and
a tuple hash for dedup.  This module reuses
the *same* compiled step programs — probe column, equality checks, bind
list, head extraction — but runs each step over the entire intermediate
batch at once:

* a **batch** is a set of parallel Python lists of intern codes, one per
  bound slot;
* a non-leaf step hash-joins the whole batch against the step's columnar
  parts (grouped index probes, cross-products as list comprehensions);
* the **leaf step is fused with head extraction**: because packed row
  keys are positional 32-bit lanes (:func:`~repro.datalog.columnar.relation.pack_codes`),
  a head key decomposes into ``carried_part(batch row) + leaf_part(matched
  row)``, so the innermost loop emits ready-packed int keys directly;
* dedup is pure C-speed int-set algebra: ``fresh = emitted - bucket -
  existing`` against the per-predicate packed-key sets.

Statistics parity with the tuple path is structural, not accidental: a
rule's firing count is the number of complete body matches — a
join-order- and batch-order-invariant multiset — and the per-round
"new" count is the bucket's growth, which only depends on the round's
start state.  The round loop itself is the shared driver
(:mod:`repro.datalog.engine.fixpoint`), called through :class:`PackedLane`,
so ``EvaluationStatistics`` come out identical and the differential
harness can assert full equality.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from repro.datalog.columnar.relation import (
    KEY_BITS,
    ColumnarRelation,
    arity_of_key,
    pack_codes,
    unpack_columns,
)
from repro.datalog.database import Database
from repro.datalog.engine.base import EvaluationResult
from repro.datalog.engine.executor import PROBE_CONST, PROBE_SCAN, PROBE_SLOT
from repro.datalog.engine.fixpoint import run


def plan_supported(plan) -> bool:
    """Whether every stratum rule has a compiled kernel to lower.

    Rules the tuple path itself cannot compile (un-internable terms such
    as raw :class:`~repro.datalog.terms.Parameter` atoms) keep the whole
    evaluation on the tuple fallback — mixing batch and interpreted rules
    in one fixpoint would mean maintaining two working sets in lockstep.
    """
    for stratum in plan.strata:
        for rule in stratum.rules:
            if plan.kernel(rule) is None:
                return False
    return True


# ----------------------------------------------------------------------
# Lowered step programs
# ----------------------------------------------------------------------
class _BatchStep:
    """A non-leaf step: join the batch against one atom's columnar parts."""

    __slots__ = (
        "use_delta",
        "predicate",
        "arity",
        "probe_kind",
        "probe_position",
        "probe_code",
        "probe_slot",
        "const_checks",
        "self_checks",
        "slot_checks",
        "carry_slots",
        "binds",
    )

    def __init__(self, step, table, bound):
        self.use_delta = step.use_delta
        self.predicate = step.predicate
        self.arity = step.arity
        self.probe_kind = step.probe_kind
        self.probe_position = step.probe_position
        self.probe_code = (
            table.intern(step.probe_value) if step.probe_kind == PROBE_CONST else -1
        )
        self.probe_slot = step.probe_slot
        self.const_checks = tuple((pos, table.intern(v)) for pos, v in step.const_checks)
        self.self_checks = step.self_checks
        self.slot_checks = step.slot_checks
        self.carry_slots = tuple(sorted(bound))
        self.binds = step.binds


class _BatchLeaf:
    """The final step fused with head extraction: emits packed head keys.

    The head key of a firing is ``base_key + Σ slot·weight (carried) +
    Σ column·weight (leaf-bound)`` — pure int arithmetic per matched row,
    no tuple is ever built for a duplicate.
    """

    __slots__ = (
        "use_delta",
        "predicate",
        "arity",
        "probe_kind",
        "probe_position",
        "probe_code",
        "probe_slot",
        "const_checks",
        "self_checks",
        "slot_checks",
        "base_key",
        "carry_weights",
        "leaf_weights",
        "identity",
    )

    def __init__(self, step, table, head_ops, single_step):
        self.use_delta = step.use_delta
        self.predicate = step.predicate
        self.arity = step.arity
        self.probe_kind = step.probe_kind
        self.probe_position = step.probe_position
        self.probe_code = (
            table.intern(step.probe_value) if step.probe_kind == PROBE_CONST else -1
        )
        self.probe_slot = step.probe_slot
        self.const_checks = tuple((pos, table.intern(v)) for pos, v in step.const_checks)
        self.self_checks = step.self_checks
        self.slot_checks = step.slot_checks

        head_arity = len(head_ops)
        weights = [1 << (KEY_BITS * (head_arity - 1 - j)) for j in range(head_arity)]
        bind_position = {slot: pos for pos, slot in step.binds}
        base = head_arity << (KEY_BITS * head_arity)
        carried: Dict[int, int] = {}
        leaf: Dict[int, int] = {}
        for j, (is_slot, payload) in enumerate(head_ops):
            if not is_slot:
                base += table.intern(payload) * weights[j]
            elif payload in bind_position:
                position = bind_position[payload]
                leaf[position] = leaf.get(position, 0) + weights[j]
            else:
                carried[payload] = carried.get(payload, 0) + weights[j]
        self.base_key = base
        self.carry_weights = tuple(carried.items())
        self.leaf_weights = tuple(leaf.items())
        # Copy rules (head = the scanned row, verbatim): the emitted keys
        # are exactly the part's packed-key set, so the whole run is set
        # algebra with no per-row work at all.
        self.identity = (
            single_step
            and step.probe_kind == PROBE_SCAN
            and not step.const_checks
            and not step.self_checks
            and not step.slot_checks
            and not carried
            and head_arity == step.arity
            and base == head_arity << (KEY_BITS * head_arity)
            and len(leaf) == head_arity
            and all(leaf.get(j) == weights[j] for j in range(head_arity))
        )


class _BatchAntiStep:
    """An anti-join filter: drop batch rows whose packed key is present.

    The negated literal is fully bound when it runs (planned orders place
    it behind the positives that bind it), so per batch row the step packs
    one key — ``base_key`` (arity tag + interned constants) plus the bound
    slots' codes at their positional weights — and keeps the row iff the
    key is absent from every part of the negated predicate's relation,
    which is fully closed (lower stratum or EDB).
    """

    __slots__ = ("predicate", "arity", "base_key", "slot_weights")

    def __init__(self, step, table):
        self.predicate = step.predicate
        self.arity = step.arity
        arity = step.arity
        weights = [1 << (KEY_BITS * (arity - 1 - j)) for j in range(arity)]
        base = arity << (KEY_BITS * arity)
        slot_weights: Dict[int, int] = {}
        for j, (is_slot, payload) in enumerate(step.anti_ops):
            if is_slot:
                slot_weights[payload] = slot_weights.get(payload, 0) + weights[j]
            else:
                base += table.intern(payload) * weights[j]
        self.base_key = base
        self.slot_weights = tuple(slot_weights.items())


class _EmitLeaf:
    """A synthetic leaf for orders that end on an anti step.

    The fused :class:`_BatchLeaf` emits head keys while joining the last
    *positive* atom; when trailing anti filters follow that join, fusion is
    off the table — every head variable is already carried in the batch, so
    this leaf just packs one head key per surviving row.
    """

    __slots__ = ("base_key", "carry_weights")

    def __init__(self, head_ops, table):
        head_arity = len(head_ops)
        weights = [1 << (KEY_BITS * (head_arity - 1 - j)) for j in range(head_arity)]
        base = head_arity << (KEY_BITS * head_arity)
        carried: Dict[int, int] = {}
        for j, (is_slot, payload) in enumerate(head_ops):
            if is_slot:
                carried[payload] = carried.get(payload, 0) + weights[j]
            else:
                base += table.intern(payload) * weights[j]
        self.base_key = base
        self.carry_weights = tuple(carried.items())


class _BatchSequence:
    """One lowered execution order: non-leaf steps, the fused leaf, or a ground key."""

    __slots__ = ("steps", "leaf", "ground_key")

    def __init__(self, steps, leaf, ground_key=None):
        self.steps = steps
        self.leaf = leaf
        self.ground_key = ground_key


def lower_sequence(kernel, steps, table) -> _BatchSequence:
    """Lower one of a kernel's step sequences against an intern table."""
    if not steps:
        # Empty body (fires exactly once): validation guarantees a ground head.
        key = len(kernel.head_ops)
        for _, payload in kernel.head_ops:
            key = (key << KEY_BITS) | table.intern(payload)
        return _BatchSequence((), None, ground_key=key)
    bound: Set[int] = set()
    lowered: List[object] = []
    if steps[-1].anti:
        # The order ends on an anti filter: no positive join to fuse head
        # emission into, so lower every step and emit from the carries.
        for step in steps:
            if step.anti:
                lowered.append(_BatchAntiStep(step, table))
            else:
                lowered.append(_BatchStep(step, table, bound))
                bound.update(slot for _, slot in step.binds)
        return _BatchSequence(tuple(lowered), _EmitLeaf(kernel.head_ops, table))
    single = len(steps) == 1
    for step in steps[:-1]:
        if step.anti:
            lowered.append(_BatchAntiStep(step, table))
        else:
            lowered.append(_BatchStep(step, table, bound))
            bound.update(slot for _, slot in step.binds)
    leaf = _BatchLeaf(steps[-1], table, kernel.head_ops, single_step=single)
    return _BatchSequence(tuple(lowered), leaf)


class BatchKernel:
    """The columnar lowering of one :class:`~repro.datalog.engine.executor.RuleKernel`.

    Lowered sequences bake intern codes in, so they are cached per intern
    table (the cache holds a strong reference to each table, keeping the
    ``id()`` key valid); the static order and every delta variant share
    the tuple kernel's slot numbering.
    """

    __slots__ = ("kernel", "head_arity", "_lowered")

    _MAX_TABLES = 8

    def __init__(self, kernel):
        self.kernel = kernel
        self.head_arity = len(kernel.head_ops)
        self._lowered: Dict[int, Tuple] = {}

    def sequences(self, table):
        """(static sequence, {body position: delta sequence}) for *table*."""
        entry = self._lowered.get(id(table))
        if entry is None or entry[0] is not table:
            if len(self._lowered) >= self._MAX_TABLES:
                self._lowered.clear()
            static = lower_sequence(self.kernel, self.kernel.static_steps, table)
            deltas = {
                position: lower_sequence(self.kernel, steps, table)
                for position, steps in self.kernel.delta_steps.items()
            }
            entry = (table, static, deltas)
            self._lowered[id(table)] = entry
        return entry[1], entry[2]


# ----------------------------------------------------------------------
# The working set
# ----------------------------------------------------------------------
class _BatchWorking:
    """The fixpoint's columnar working set: base parts + locally derived rows.

    The input database's columnar mirror provides the (read-only) base
    parts; everything derived during evaluation lands in local
    :class:`ColumnarRelation` groups, so the input is never mutated and
    nothing is decoded back to tuples until the final IDB extraction.
    """

    __slots__ = ("database", "table", "local", "_parts")

    def __init__(self, database):
        self.database = database
        self.table = database.columnar_store().table
        self.local: Dict[str, Dict[int, ColumnarRelation]] = {}
        self._parts: Dict[Tuple[str, int], Tuple[ColumnarRelation, ...]] = {}

    def parts(self, predicate: str, arity: int) -> Tuple[ColumnarRelation, ...]:
        """All parts of *predicate* at *arity*, base chain first, local last.

        Stable within a round (parts grow in place; the cache entry is only
        invalidated when a predicate's first local group appears), which is
        what makes dedup against the live key sets sound — exactly the
        tuple engines' relation_view contract.
        """
        cached = self._parts.get((predicate, arity))
        if cached is None:
            groups = [
                group
                for group in self.database.columnar_parts(predicate)
                if group.arity == arity
            ]
            local = self.local.get(predicate)
            if local is not None:
                group = local.get(arity)
                if group is not None:
                    groups.append(group)
            cached = self._parts[(predicate, arity)] = tuple(groups)
        return cached

    def key_sets(self, predicate: str, arity: int) -> List[set]:
        return [group.keys for group in self.parts(predicate, arity)]

    def local_group(self, predicate: str, arity: int) -> ColumnarRelation:
        local = self.local.setdefault(predicate, {})
        group = local.get(arity)
        if group is None:
            group = local[arity] = ColumnarRelation(arity)
            self._parts.pop((predicate, arity), None)
        return group

    def add_fact_row(self, predicate: str, values: Tuple) -> bool:
        """Intern and add one ground fact (the fact-rule loading path)."""
        codes = [self.table.intern(value) for value in values]
        key = pack_codes(codes)
        for keys in self.key_sets(predicate, len(values)):
            if key in keys:
                return False
        self.local_group(predicate, len(values)).extend_columns(
            tuple([code] for code in codes), (key,)
        )
        return True


# ----------------------------------------------------------------------
# Step execution
# ----------------------------------------------------------------------
def _static_row_filter(columns, const_checks, self_checks):
    """A per-row predicate for the batch-independent checks (or ``None``)."""
    if not const_checks and not self_checks:
        return None

    def ok(row: int) -> bool:
        for position, code in const_checks:
            if columns[position][row] != code:
                return False
        for position, other in self_checks:
            if columns[position][row] != columns[other][row]:
                return False
        return True

    return ok


def _step_parts(step, working: _BatchWorking, delta):
    if not step.use_delta:
        return working.parts(step.predicate, step.arity)
    groups = delta.get(step.predicate) if delta else None
    if not groups:
        return ()
    group = groups.get(step.arity)
    return (group,) if group is not None else ()


def _run_step(step: _BatchStep, parts, cols, n: int):
    """Join the batch against one atom; returns the next (cols, n)."""
    out: Dict[int, list] = {slot: [] for slot in step.carry_slots}
    for _, slot in step.binds:
        out[slot] = []
    total = 0
    probe_kind = step.probe_kind
    for part in parts:
        columns = part.columns
        row_ok = _static_row_filter(columns, step.const_checks, step.self_checks)
        if probe_kind == PROBE_SLOT:
            index_get = part.index(step.probe_position).get
            probe_col = cols[step.probe_slot]
            carries = [(out[slot], cols[slot]) for slot in step.carry_slots]
            bind_cols = [(out[slot], columns[pos]) for pos, slot in step.binds]
            check_cols = [(columns[pos], cols[slot]) for pos, slot in step.slot_checks]
            for i in range(n):
                rows = index_get(probe_col[i])
                if rows is None:
                    continue
                if row_ok is not None:
                    rows = [r for r in rows if row_ok(r)]
                if check_cols:
                    for column, batch_col in check_cols:
                        expected = batch_col[i]
                        rows = [r for r in rows if column[r] == expected]
                        if not rows:
                            break
                if not rows:
                    continue
                k = len(rows)
                total += k
                for dst, src in carries:
                    if k == 1:
                        dst.append(src[i])
                    else:
                        dst.extend([src[i]] * k)
                for dst, column in bind_cols:
                    dst.extend([column[r] for r in rows])
        else:
            if probe_kind == PROBE_CONST:
                rows = part.index(step.probe_position).get(step.probe_code)
                if not rows:
                    continue
            else:
                rows = range(len(part))
            if row_ok is not None:
                rows = [r for r in rows if row_ok(r)]
                if not rows:
                    continue
            if step.slot_checks:
                # Candidates are batch-independent but the checks are not:
                # fall back to a per-batch-row filter pass.
                carries = [(out[slot], cols[slot]) for slot in step.carry_slots]
                bind_cols = [(out[slot], columns[pos]) for pos, slot in step.binds]
                check_cols = [(columns[pos], cols[slot]) for pos, slot in step.slot_checks]
                for i in range(n):
                    survivors = rows
                    for column, batch_col in check_cols:
                        expected = batch_col[i]
                        survivors = [r for r in survivors if column[r] == expected]
                        if not survivors:
                            break
                    if not survivors:
                        continue
                    k = len(survivors)
                    total += k
                    for dst, src in carries:
                        if k == 1:
                            dst.append(src[i])
                        else:
                            dst.extend([src[i]] * k)
                    for dst, column in bind_cols:
                        dst.extend([column[r] for r in survivors])
            else:
                # Pure cross product: batch rows × candidate rows.
                k = len(rows)
                total += n * k
                for slot in step.carry_slots:
                    src = cols[slot]
                    out[slot].extend([value for value in src for _ in range(k)])
                for pos, slot in step.binds:
                    column = columns[pos]
                    values = [column[r] for r in rows]
                    out[slot].extend(values * n)
    return out, total


def _leaf_keys_for_rows(leaf: _BatchLeaf, columns, rows):
    """The leaf-part key contribution of each matched row."""
    weights = leaf.leaf_weights
    if not weights:
        return [0] * len(rows)
    if len(weights) == 1:
        position, weight = weights[0]
        column = columns[position]
        if weight == 1:
            return [column[r] for r in rows]
        return [column[r] * weight for r in rows]
    keys = [0] * len(rows)
    for position, weight in weights:
        column = columns[position]
        keys = [key + column[r] * weight for key, r in zip(keys, rows)]
    return keys


def _run_leaf(leaf: _BatchLeaf, parts, cols, n: int, bucket: set, existing_sets):
    """Fused leaf join + head emission + dedup; returns (firings, new)."""
    total = 0
    if leaf.identity:
        emitted: set = set()
        for part in parts:
            total += len(part.keys)
            emitted |= part.keys
        fresh = emitted
    else:
        carry_weights = leaf.carry_weights
        base = leaf.base_key
        if not carry_weights:
            carry_keys = None
        elif len(carry_weights) == 1:
            slot, weight = carry_weights[0]
            source = cols[slot]
            if weight == 1:
                carry_keys = [base + value for value in source]
            else:
                carry_keys = [base + value * weight for value in source]
        else:
            carry_keys = [base] * n
            for slot, weight in carry_weights:
                source = cols[slot]
                carry_keys = [
                    key + value * weight for key, value in zip(carry_keys, source)
                ]

        out_keys: List[int] = []
        probe_kind = leaf.probe_kind
        for part in parts:
            columns = part.columns
            row_ok = _static_row_filter(columns, leaf.const_checks, leaf.self_checks)
            if probe_kind == PROBE_SLOT and not leaf.slot_checks:
                # The hot join shape: probe the index per batch row and emit
                # ready-packed keys in one comprehension per hit.  The inner
                # loops are specialised for the dominant head shapes — a
                # function call or a generic weight walk per probe hit is
                # exactly the per-firing overhead this module exists to kill.
                index_get = part.index(leaf.probe_position).get
                probe_col = cols[leaf.probe_slot]
                extend = out_keys.extend
                leaf_weights = leaf.leaf_weights
                if row_ok is None and len(leaf_weights) == 1:
                    position, weight = leaf_weights[0]
                    column = columns[position]
                    if carry_keys is None:
                        if weight == 1:
                            for i in range(n):
                                rows = index_get(probe_col[i])
                                if rows is not None:
                                    total += len(rows)
                                    extend([base + column[r] for r in rows])
                        else:
                            for i in range(n):
                                rows = index_get(probe_col[i])
                                if rows is not None:
                                    total += len(rows)
                                    extend([base + column[r] * weight for r in rows])
                    elif weight == 1:
                        for i in range(n):
                            rows = index_get(probe_col[i])
                            if rows is not None:
                                total += len(rows)
                                carry = carry_keys[i]
                                extend([carry + column[r] for r in rows])
                    else:
                        for i in range(n):
                            rows = index_get(probe_col[i])
                            if rows is not None:
                                total += len(rows)
                                carry = carry_keys[i]
                                extend([carry + column[r] * weight for r in rows])
                elif row_ok is None and len(leaf_weights) == 2:
                    (pos_a, weight_a), (pos_b, weight_b) = leaf_weights
                    column_a = columns[pos_a]
                    column_b = columns[pos_b]
                    for i in range(n):
                        rows = index_get(probe_col[i])
                        if rows is not None:
                            total += len(rows)
                            carry = base if carry_keys is None else carry_keys[i]
                            extend(
                                [
                                    carry
                                    + column_a[r] * weight_a
                                    + column_b[r] * weight_b
                                    for r in rows
                                ]
                            )
                elif row_ok is None and not leaf_weights:
                    # Existence-style leaf: every hit re-emits the carry key
                    # (each match is still a distinct firing).
                    for i in range(n):
                        rows = index_get(probe_col[i])
                        if rows is not None:
                            k = len(rows)
                            total += k
                            carry = base if carry_keys is None else carry_keys[i]
                            if k == 1:
                                out_keys.append(carry)
                            else:
                                extend([carry] * k)
                else:
                    for i in range(n):
                        rows = index_get(probe_col[i])
                        if rows is None:
                            continue
                        if row_ok is not None:
                            rows = [r for r in rows if row_ok(r)]
                            if not rows:
                                continue
                        leaf_keys = _leaf_keys_for_rows(leaf, columns, rows)
                        total += len(leaf_keys)
                        carry = base if carry_keys is None else carry_keys[i]
                        extend([carry + key for key in leaf_keys])
            elif probe_kind != PROBE_SLOT and not leaf.slot_checks:
                # Batch-independent candidates: one cross with the carries.
                if probe_kind == PROBE_CONST:
                    rows = part.index(leaf.probe_position).get(leaf.probe_code)
                    if not rows:
                        continue
                else:
                    rows = range(len(part))
                if row_ok is not None:
                    rows = [r for r in rows if row_ok(r)]
                    if not rows:
                        continue
                leaf_keys = _leaf_keys_for_rows(leaf, columns, rows)
                if carry_keys is None:
                    total += n * len(leaf_keys)
                    out_keys.extend([base + key for key in leaf_keys])
                else:
                    total += len(carry_keys) * len(leaf_keys)
                    out_keys.extend(
                        [carry + key for carry in carry_keys for key in leaf_keys]
                    )
            else:
                # Slot checks at the leaf: per-batch-row filtering.
                if probe_kind == PROBE_SLOT:
                    index_get = part.index(leaf.probe_position).get
                    probe_col = cols[leaf.probe_slot]
                    candidates = None
                else:
                    if probe_kind == PROBE_CONST:
                        candidates = part.index(leaf.probe_position).get(leaf.probe_code)
                        if not candidates:
                            continue
                    else:
                        candidates = range(len(part))
                    if row_ok is not None:
                        candidates = [r for r in candidates if row_ok(r)]
                        if not candidates:
                            continue
                check_cols = [(columns[pos], cols[slot]) for pos, slot in leaf.slot_checks]
                for i in range(n):
                    if candidates is None:
                        rows = index_get(probe_col[i])
                        if rows is None:
                            continue
                        if row_ok is not None:
                            rows = [r for r in rows if row_ok(r)]
                    else:
                        rows = candidates
                    for column, batch_col in check_cols:
                        expected = batch_col[i]
                        rows = [r for r in rows if column[r] == expected]
                        if not rows:
                            break
                    if not rows:
                        continue
                    leaf_keys = _leaf_keys_for_rows(leaf, columns, rows)
                    total += len(leaf_keys)
                    carry = base if carry_keys is None else carry_keys[i]
                    out_keys.extend([carry + key for key in leaf_keys])
        fresh = set(out_keys)

    # `difference` (unlike `-=`, which always walks its argument) picks the
    # cheaper side to iterate — on deep recursions the fresh set is tiny and
    # the accumulated key sets are the whole model, so this is the difference
    # between O(round) and O(model) dedup per round.
    if bucket:
        fresh = fresh.difference(bucket)
    for keys in existing_sets:
        if keys and fresh:
            fresh = fresh.difference(keys)
    new = len(fresh)
    if new:
        bucket |= fresh
    return total, new


def _run_anti_step(step: _BatchAntiStep, working, cols, n: int):
    """Filter the batch by absence from the negated relation; next (cols, n)."""
    # Anti always reads the working set, never the delta: the negated
    # predicate is closed below this stratum, so it has no delta.
    key_sets = working.key_sets(step.predicate, step.arity)
    base = step.base_key
    slot_weights = step.slot_weights
    keep: List[int] = []
    if len(slot_weights) == 1:
        (slot, weight), = slot_weights
        column = cols[slot]
        for i in range(n):
            key = base + column[i] * weight
            for keys in key_sets:
                if key in keys:
                    break
            else:
                keep.append(i)
    else:
        for i in range(n):
            key = base
            for slot, weight in slot_weights:
                key += cols[slot][i] * weight
            for keys in key_sets:
                if key in keys:
                    break
            else:
                keep.append(i)
    if len(keep) == n:
        return cols, n
    if not keep:
        return cols, 0
    filtered = {slot: [column[i] for i in keep] for slot, column in cols.items()}
    return filtered, len(keep)


def _run_emit_leaf(leaf: _EmitLeaf, cols, n: int, bucket: set, existing_sets):
    """Emit one head key per surviving row (orders ending on an anti step)."""
    base = leaf.base_key
    carry_weights = leaf.carry_weights
    if not carry_weights:
        fresh = {base} if n else set()
    elif len(carry_weights) == 1:
        slot, weight = carry_weights[0]
        source = cols[slot]
        if weight == 1:
            fresh = {base + value for value in source}
        else:
            fresh = {base + value * weight for value in source}
    else:
        keys = [base] * n
        for slot, weight in carry_weights:
            source = cols[slot]
            keys = [key + value * weight for key, value in zip(keys, source)]
        fresh = set(keys)
    if bucket:
        fresh = fresh.difference(bucket)
    for keys in existing_sets:
        if keys and fresh:
            fresh = fresh.difference(keys)
    new = len(fresh)
    if new:
        bucket |= fresh
    return n, new


def _run_sequence(sequence: _BatchSequence, working, delta, bucket, existing_sets):
    """Run one lowered order to completion; returns (firings, new)."""
    if sequence.leaf is None:
        # Empty body: exactly one firing of the ground head key.
        key = sequence.ground_key
        if key not in bucket and not any(key in keys for keys in existing_sets):
            bucket.add(key)
            return 1, 1
        return 1, 0
    cols: Dict[int, list] = {}
    n = 1
    for step in sequence.steps:
        if type(step) is _BatchAntiStep:
            cols, n = _run_anti_step(step, working, cols, n)
        else:
            cols, n = _run_step(step, _step_parts(step, working, delta), cols, n)
        if not n:
            return 0, 0
    leaf = sequence.leaf
    if type(leaf) is _EmitLeaf:
        return _run_emit_leaf(leaf, cols, n, bucket, existing_sets)
    return _run_leaf(leaf, _step_parts(leaf, working, delta), cols, n, bucket, existing_sets)


# ----------------------------------------------------------------------
# Round commit
# ----------------------------------------------------------------------
def _commit(working: _BatchWorking, buckets):
    """Unpack each bucket's fresh keys into columns and append them.

    Returns ``(delta groups, entries, total added)``.  The delta groups
    feed the next semi-naive round; *entries* holds one ``(predicate,
    arity, columns, keys)`` per appended block, keys aligned row-for-row
    with the columns — what the sharded lane ships to its workers to sync
    their view and build their shard's delta.
    """
    delta: Dict[str, Dict[int, ColumnarRelation]] = {}
    entries: List[Tuple[str, int, Tuple, List[int]]] = []
    added = 0
    for predicate, bucket in buckets.items():
        if not bucket:
            continue
        keys = list(bucket)
        # Program validation gives a predicate one arity, so every head key
        # in its bucket carries the same arity seed.
        arity = arity_of_key(keys[0])
        columns = unpack_columns(keys, arity)
        working.local_group(predicate, arity).extend_columns(columns, keys)
        group = ColumnarRelation(arity)
        group.extend_columns(columns, keys)
        delta[predicate] = {arity: group}
        entries.append((predicate, arity, columns, keys))
        added += len(keys)
    return delta, entries, added


# ----------------------------------------------------------------------
# The lane
# ----------------------------------------------------------------------
def lower_stratum(plan, stratum, table) -> Tuple:
    """A stratum's firing schedule, every sequence lowered against *table*.

    One ``(head, head arity, static sequence, ((body position, body
    predicate, delta sequence), ...))`` per rule, in the order every
    columnar lane — and the sharded lane's workers and merge — fires
    them.  Lowering interns the rules' constants, so once this returns
    all of the stratum's codes exist: the vector lane sizes its dedup
    bitmaps from the table, and forked shard workers never intern.
    """
    entries = []
    for rule in stratum.rules:
        batch = plan.kernel(rule).batch_kernel()
        static, variants = batch.sequences(table)
        entries.append(
            (
                rule.head.predicate,
                batch.head_arity,
                static,
                tuple(
                    (position, rule.body[position].predicate, variants[position])
                    for position in batch.kernel.delta_positions
                ),
            )
        )
    return tuple(entries)


def round_sequences(rules, delta, statistics, guard):
    """One round's ``(head, head arity, sequence)`` firings, in schedule order:
    every rule's static sequence when *delta* is ``None``, else the delta
    variants whose body predicate has a delta.  An armed *guard* is checkpointed
    before each rule, so even a single enormous round stays cancellable."""
    delta_predicates = None if delta is None else set(delta)
    for head, head_arity, static, variants in rules:
        if guard is not None:
            guard.checkpoint(statistics)
        if delta is None:
            yield head, head_arity, static
            continue
        for _position, body_predicate, sequence in variants:
            if body_predicate in delta_predicates:
                yield head, head_arity, sequence


class PackedLane:
    """The packed-bigint lane of :mod:`repro.datalog.engine.fixpoint`.

    The working state is lane-private columnar rows over the input
    database's read-only mirror, so aborts leave the database untouched.
    """

    def __init__(self, database, plan, statistics, guard=None):
        self.database = database
        self.plan = plan
        self.statistics = statistics
        self.guard = guard
        self.working = _BatchWorking(database)
        self.add_fact = self.working.add_fact_row

    def begin_stratum(self, stratum):
        return lower_stratum(self.plan, stratum, self.working.table)

    def fire(self, rules, delta):
        working, statistics = self.working, self.statistics
        buckets: Dict[str, set] = {}
        for head, head_arity, sequence in round_sequences(rules, delta, statistics, self.guard):
            bucket = buckets.setdefault(head, set())
            existing = working.key_sets(head, head_arity)
            firings, new = _run_sequence(sequence, working, delta, bucket, existing)
            statistics.record_batch(head, firings, new)
        return buckets

    def commit(self, buckets):
        delta, _, added = _commit(self.working, buckets)
        return delta, added

    def decode(self, idb_predicates) -> Database:
        # Like the tuple lane's ``working.restrict(idb_predicates)``: the
        # input database's relations under IDB names ride along, and only
        # non-empty relations appear.
        working, database = self.working, self.database
        values = working.table.values()
        relations: Dict[str, Set[Tuple]] = {}
        for predicate in idb_predicates:
            tuples = set(database.relation(predicate))
            local = working.local.get(predicate)
            if local:
                for group in local.values():
                    if group.arity == 0:
                        if group.keys:
                            tuples.add(())
                    else:
                        tuples.update(
                            zip(*[map(values.__getitem__, column) for column in group.columns])
                        )
            if tuples:
                relations[predicate] = tuples
        return Database.adopt(relations)


def evaluate_seminaive(program, database, plan, statistics, options) -> EvaluationResult:
    """The semi-naive fixpoint on the packed-bigint lane (any head arity).

    Lane selection happens before this is reached
    (:func:`repro.datalog.engine.fixpoint.select_lane`); *plan* must be one
    :func:`plan_supported` accepts.
    """
    return run(PackedLane(database, plan, statistics, options.guard), program, database, options)
