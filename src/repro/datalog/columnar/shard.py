"""Process-sharded semi-naive rounds over the packed-bigint lane.

CPython threads cannot speed up the pure-Python join kernels in
:mod:`repro.datalog.columnar.batch`, so the throughput lever for one big
recursive stratum is processes.  The classic obstacle — shipping state
across the process boundary — is what the columnar layout was built to
make cheap: a round's delta is a handful of ``int`` columns plus packed
row keys, which pickle as flat machine words.

The scheme is bulk-synchronous, one pool of 1 process per shard:

* **fork snapshot** — worker processes are forked (lazily, at the first
  round big enough to shard) and inherit the driver's
  :class:`~repro.datalog.columnar.batch._BatchWorking` by copy-on-write:
  no serialization of the base relations, ever.  Workers never touch the
  intern table — every kernel sequence is lowered pre-fork, and delta
  evaluation is pure packed-int arithmetic — so forking from a threaded
  host (the service executor) is safe.
* **incremental sync** — after the snapshot, every commit's fresh rows
  are queued per pool and prepended to the next round a worker runs, so
  each worker's view equals the driver's working set at round start.
  Only predicates some delta variant *probes positionally* are mirrored
  as real columns (with per-row index maintenance); every other
  committed predicate — linear recursive heads above all — lands in a
  bare packed-key overlay, a C-speed bulk ``set.update`` that is exactly
  enough for dedup and anti-joins.  Mirror application is key-filtered,
  which makes a double-applied payload harmless.
* **sharded firing** — each worker fires every delta variant over only
  the delta rows whose first column hashes to its shard
  (``code % nshards``); a delta row fires its matches in exactly one
  shard, so per-variant firing counts sum to the serial count.
* **serial-order merge** — the driver replays the serial loop's exact
  bookkeeping: per rule, per delta position, ``fresh = (∪ shard fresh)
  − evolving bucket`` (each shard already deduped against the
  round-start model, i.e. its mirror), then
  ``record_batch(pred, Σ firings, len(fresh))``.  Model and
  ``EvaluationStatistics`` come out bit-identical to the serial lane —
  the contract the Hypothesis differential property enforces.  Workers
  pre-unpack their fresh keys into columns; when a head's shard outputs
  were pairwise disjoint and nothing else fired into it, the driver
  commits by concatenating those columns instead of re-unpacking.
* **decomposable strata (owner-computes)** — a recursive stratum whose
  single active variant carries the delta's shard column unchanged into
  the head's first column (``tc(X, Y) :- tc(X, Z), edge(Z, Y)``) is
  *shard-closed*: everything shard ``s`` can ever derive stays in shard
  ``s``.  Such strata shard the delta once ("seed") and from then on
  each worker retains its own fresh rows as the next round's delta
  ("use") — no resharding, no key shipping, no cross-shard sync at all.
  The analysis (:func:`_decomposable_strata`) is conservative: the head
  must never be probed positionally or anti-joined by any *delta*
  variant (static passes always fire in-driver, where the model is
  complete), so skipping the sync is provably invisible; an overlapping
  merge in such a stratum raises instead of degrading silently.

Rounds smaller than :data:`MIN_SHARD_ROWS` run in-driver (a process
round-trip costs more than a tiny delta); the choice is invisible to
results.  Cancellation and deadlines propagate: the driver checkpoints
its guard while waiting on shard futures, and aborting sets a
fork-inherited event that workers observe between rules, after which the
pools are joined — no orphan processes.
"""

from __future__ import annotations

import itertools
import multiprocessing
from array import array
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as _FutureTimeout
from typing import Dict, List, Optional, Set, Tuple

from repro.datalog.columnar.batch import (
    PackedLane,
    _BatchAntiStep,
    _BatchLeaf,
    _BatchStep,
    _BatchWorking,
    _commit,
    _run_sequence,
    lower_stratum,
)
from repro.datalog.columnar.relation import ColumnarRelation, unpack_columns
from repro.datalog.engine.base import EvaluationResult
from repro.datalog.engine.fixpoint import run
from repro.errors import EvaluationError

#: Delta rows below which a round runs in-driver: the ~ms of pickling and
#: queue latency per process round-trip outweighs firing a small delta
#: locally.  Statistics parity holds on either path, so the threshold is
#: a pure tuning knob.
MIN_SHARD_ROWS = 192

#: How long the driver blocks on a shard future between guard checkpoints,
#: so cancellation/deadlines interrupt even a long worker round promptly.
_WAIT_SLICE = 0.005

_COUNTER = itertools.count(1)
#: eval id -> state; populated pre-fork so forked workers inherit their
#: evaluation's working mirror, lowered rules and cancel event by COW.
_STATES: Dict[int, "_ShardState"] = {}


class ShardAborted(EvaluationError):
    """A worker observed the cancel event (or lost its state) mid-round."""


class _ShardWorking:
    """A worker's view of the working set: inherited mirror + key overlays.

    Predicates some delta variant probes positionally need real columnar
    parts, so their post-fork commits extend the inherited mirror (see
    :func:`_apply_payload`).  Every *other* committed predicate — linear
    recursive heads above all — is only ever consulted as packed-key
    sets, for dedup of head emissions and for anti-join membership; those
    accumulate in ``overlay`` via bulk ``set.update`` and are never
    materialized as columns, skipping the Python-per-row append and index
    maintenance that would otherwise be duplicated in every worker.
    """

    __slots__ = ("inner", "probed", "overlay")

    def __init__(self, inner: _BatchWorking, probed: Set[str]):
        self.inner = inner
        self.probed = probed
        self.overlay: Dict[Tuple[str, int], set] = {}

    def parts(self, predicate: str, arity: int):
        # Only reached for probed predicates, whose mirror is maintained.
        return self.inner.parts(predicate, arity)

    def key_sets(self, predicate: str, arity: int):
        sets = self.inner.key_sets(predicate, arity)
        extra = self.overlay.get((predicate, arity))
        return sets + [extra] if extra else sets


class _ShardState:
    """Everything a forked worker needs, snapshotted at fork time.

    ``retained`` is worker-local continuation state for decomposable
    strata: stratum index -> this shard's delta groups for the next round
    (its own previous fresh rows).  It starts empty pre-fork and is only
    ever mutated inside a worker process.
    """

    __slots__ = ("working", "rules", "cancel", "retained")

    def __init__(self, working, rules, cancel):
        self.working = working
        self.rules = rules
        self.cancel = cancel
        self.retained: Dict[int, Dict[str, Dict[int, ColumnarRelation]]] = {}


def available() -> bool:
    """Fork-start workers are what make the zero-copy snapshot possible."""
    return "fork" in multiprocessing.get_all_start_methods()


def applicable(plan, workers: int) -> bool:
    """Whether the sharded lane accepts a semi-naive run of *plan*.

    Requires ``workers > 1``, fork support and at least one recursive
    stratum.  The other two conditions — a fully-compiled plan, and a
    program *off* the NumPy vector lane, whose rounds are too cheap for
    cross-process sharding to amortize — are established before this is
    asked, by :func:`repro.datalog.engine.fixpoint.select_lane`.
    """
    return workers > 1 and available() and any(stratum.recursive for stratum in plan.strata)


def _probed_predicates(rules) -> Set[str]:
    """Predicates whose full relation some delta variant probes.

    A variant's non-delta steps join against ``working.parts``; those
    predicates need a real columnar mirror in every worker.  For linear
    rules the recursive head never appears here — it is only the delta —
    so the whole fixpoint's output predicate stays on the cheap key-set
    overlay.  Nonlinear and mutually recursive bodies (same-stratum
    predicates at non-delta positions) land in the probed set and pay
    for full mirror sync.
    """
    probed: Set[str] = set()
    for entries in rules.values():
        for _head, _head_arity, _static, variants in entries:
            for _position, _body, sequence in variants:
                for step in sequence.steps:
                    if type(step) is _BatchStep and not step.use_delta:
                        probed.add(step.predicate)
                leaf = sequence.leaf
                if type(leaf) is _BatchLeaf and not leaf.use_delta:
                    probed.add(leaf.predicate)
    return probed


def _anti_predicates(rules) -> Set[str]:
    """Predicates some delta variant consults through an anti-join.

    Anti steps read complete key sets, so these predicates need full key
    synchronization in every worker (a key-set overlay is enough — anti
    never probes columns — but it must not be shard-partial).
    """
    anti: Set[str] = set()
    for entries in rules.values():
        for _head, _head_arity, _static, variants in entries:
            for _position, _body, sequence in variants:
                for step in sequence.steps:
                    if type(step) is _BatchAntiStep:
                        anti.add(step.predicate)
    return anti


def _decomposable_strata(plan, probed: Set[str], anti: Set[str]) -> Dict[int, int]:
    """Recursive strata that admit owner-computes sharding: index -> column.

    A stratum is *decomposable* when its recursion is a single
    self-recursive delta variant whose head carries the delta atom's
    column ``c`` into the head's first position (``tc(X, Y) :- tc(X, Z),
    edge(Z, Y)`` with ``c = 0``).  Sharding the delta on column ``c``
    then makes the shards closed: every fact worker ``s`` derives lands
    back in shard ``s``, so a worker can keep its own fresh rows as the
    next round's delta — no resharding, no cross-shard key exchange — and
    its dedup needs only its own shard's keys (emissions from shard ``s``
    can only ever collide with keys whose first column is in shard
    ``s``).  The head must not be probed positionally or anti-joined by
    any delta variant, since those reads need the full relation in every
    worker; nonrecursive consumers are harmless — static passes fire
    in-driver, where the model is always complete.
    """
    from repro.datalog.terms import Variable

    decomposable: Dict[int, int] = {}
    for stratum in plan.strata:
        if not stratum.recursive:
            continue
        heads = {rule.head.predicate for rule in stratum.rules}
        active = []
        supported = True
        for rule in stratum.rules:
            kernel = plan.kernel(rule)
            if kernel is None:
                supported = False
                break
            for position in kernel.delta_positions:
                if rule.body[position].predicate in heads:
                    active.append((rule, position))
        if not supported or len(active) != 1:
            continue
        rule, position = active[0]
        head, atom = rule.head, rule.body[position]
        if head.predicate != atom.predicate:
            continue
        if head.predicate in probed or head.predicate in anti:
            continue
        if not head.terms or not isinstance(head.terms[0], Variable):
            continue
        column = next(
            (c for c, term in enumerate(atom.terms) if term == head.terms[0]),
            None,
        )
        if column is not None:
            decomposable[stratum.index] = column
    return decomposable


def _commit_merged(working: _BatchWorking, buckets, clean):
    """Commit a sharded round, concatenating pre-unpacked shard columns.

    Workers unpack their fresh keys into columns before returning, so for
    every head whose round stayed *clean* — a single contributing variant
    and no cross-shard duplicates, which the merge detects by comparing
    set sizes — the commit is pure C-speed ``array.extend`` of the shard
    pieces.  Heads that saw cross-shard duplicates or multiple
    contributing variants take the packed lane's driver-side unpack (the
    shard pieces are stale there: they still contain the subtracted rows).
    """
    delta, entries, added = _commit(
        working, {head: bucket for head, bucket in buckets.items() if head not in clean}
    )
    for predicate, pieces in clean.items():
        groups = delta[predicate] = {}
        for arity, keys, columns in pieces:
            working.local_group(predicate, arity).extend_columns(columns, keys)
            group = groups.get(arity)
            if group is None:
                group = groups[arity] = ColumnarRelation(arity)
            group.extend_columns(columns, keys)
            entries.append((predicate, arity, columns, keys))
            added += len(keys)
    return delta, entries, added


# ----------------------------------------------------------------------
# Worker side (runs in forked processes)
# ----------------------------------------------------------------------
def _ping(eval_id: int) -> bool:
    """Warm-up task: forces the pool to fork *now*, pinning the snapshot."""
    return eval_id in _STATES


def _apply_payload(working: _ShardWorking, payload) -> None:
    """Absorb a commit's rows into the worker's view of the working set.

    Probed predicates extend the real mirror, key-filtered so that a
    payload that raced the fork (applied both by inheritance and by sync)
    changes nothing; everything else is a bulk key-set union, idempotent
    by construction.
    """
    for predicate, arity, columns, keys in payload:
        if predicate not in working.probed:
            working.overlay.setdefault((predicate, arity), set()).update(keys)
            continue
        group = working.inner.local_group(predicate, arity)
        have = group.keys
        if have:
            rows = [i for i, key in enumerate(keys) if key not in have]
        else:
            rows = list(range(len(keys)))
        if len(rows) == len(keys):
            group.extend_columns(columns, keys)
        elif rows:
            group.extend_columns(
                [[column[i] for i in rows] for column in columns],
                [keys[i] for i in rows],
            )


def _shard_groups(payload, shard: int, nshards: int, shard_column: int = 0):
    """This shard's slice of the round delta: column ``shard_column % nshards``.

    Arity-0 rows (propositional heads) all land on shard 0, and entries
    too narrow for ``shard_column`` fall back to column 0 (any consistent
    partition of a round's delta is valid — the column only matters for
    decomposable strata, whose heads are wide enough by construction).
    Variants whose delta slice is empty still run — they see no parts and
    fire zero matches — so the driver's merge indexes stay aligned.
    """
    delta: Dict[str, Dict[int, ColumnarRelation]] = {}
    for predicate, arity, columns, keys in payload:
        if arity == 0:
            if shard != 0:
                continue
            rows = list(range(len(keys)))
        else:
            first = columns[shard_column if shard_column < arity else 0]
            rows = [i for i in range(len(keys)) if first[i] % nshards == shard]
        if not rows:
            continue
        # A clean merged commit ships one payload entry per shard piece,
        # so the same (predicate, arity) can appear repeatedly: extend,
        # never replace.
        groups = delta.setdefault(predicate, {})
        group = groups.get(arity)
        if group is None:
            group = groups[arity] = ColumnarRelation(arity)
        group.extend_columns(
            [[column[i] for i in rows] for column in columns],
            [keys[i] for i in rows],
        )
    return delta


def _worker_round(
    eval_id, stratum_index, sync, delta_payload, delta_predicates,
    shard, nshards, shard_column, retain,
):
    """One shard's half-round: sync the view, fire every delta variant.

    Returns ``[(rule index, delta position, firings, fresh keys, fresh
    columns), ...]``; each fresh set is already deduped against this
    worker's view of the round-start model, and its column unpacking —
    the serial commit's per-row Python cost — has been done here, in
    parallel, so the driver can commit clean heads by concatenation.

    ``retain`` is the decomposable-stratum protocol: ``"off"`` builds the
    delta from *delta_payload* as usual; ``"seed"`` does the same but
    keeps this round's fresh rows as the next round's delta; ``"use"``
    fires the retained delta (the driver then ships no payload at all).
    In seed/use rounds the worker also folds its own fresh keys into its
    overlay — the driver will not sync that commit back, and by
    shard-closure no other worker's keys can ever collide with ours.
    """
    state = _STATES.get(eval_id)
    if state is None:
        raise ShardAborted(f"shard state {eval_id} missing in worker (fork raced)")
    working = state.working
    for payload in sync:
        _apply_payload(working, payload)
    if retain == "use":
        delta = state.retained.get(stratum_index)
        if delta is None:
            raise ShardAborted(
                f"worker shard {shard} has no retained delta for stratum "
                f"{stratum_index}"
            )
    else:
        delta = _shard_groups(delta_payload, shard, nshards, shard_column)
    delta_predicates = set(delta_predicates)
    cancel = state.cancel
    out: List[Tuple[int, int, int, List[int], Tuple[array, ...]]] = []
    retained: Dict[str, Dict[int, ColumnarRelation]] = {}
    for index, (head, head_arity, _static, variants) in enumerate(state.rules[stratum_index]):
        if cancel.is_set():
            raise ShardAborted("evaluation cancelled")
        existing = working.key_sets(head, head_arity)
        for position, body_predicate, sequence in variants:
            if body_predicate not in delta_predicates:
                continue
            bucket: set = set()
            firings, _new = _run_sequence(sequence, working, delta, bucket, existing)
            keys = list(bucket)
            columns = unpack_columns(keys, head_arity)
            out.append((index, position, firings, keys, columns))
            if retain != "off" and keys:
                group = ColumnarRelation(head_arity)
                group.extend_columns(columns, keys)
                retained.setdefault(head, {})[head_arity] = group
                working.overlay.setdefault((head, head_arity), set()).update(keys)
    if retain != "off":
        state.retained[stratum_index] = retained
    return out


# ----------------------------------------------------------------------
# Driver side
# ----------------------------------------------------------------------
class ShardedLane(PackedLane):
    """The packed lane with process-sharded recursive delta rounds.

    Static passes and delta rounds under :data:`MIN_SHARD_ROWS` fire
    in-driver, exactly as on the packed lane; larger rounds are shipped
    to ``workers`` forked shards and merged in serial order.  Every
    commit is queued for the pools' next sync.
    """

    def __init__(self, database, plan, statistics, guard=None, workers: int = 2):
        super().__init__(database, plan, statistics, guard)
        self.workers = workers
        # Every stratum's firing schedule, lowered (and so every constant
        # interned) now, pre-fork: the workers and the driver's merge
        # replay the same schedules in identical order.
        self.rules = {
            stratum.index: lower_stratum(plan, stratum, self.working.table)
            for stratum in plan.strata
        }
        probed = _probed_predicates(self.rules)
        self.decomposable = _decomposable_strata(plan, probed, _anti_predicates(self.rules))
        self.context = multiprocessing.get_context("fork")
        self.cancel = self.context.Event()
        self.pools: List[ProcessPoolExecutor] = []
        self.pending: List[List] = []
        # The last commit's entries and row count: the next round's delta
        # as the workers receive it, and the size that decides who fires it.
        self.payload: List = []
        self.added = 0
        # Per-head shard pieces of a sharded round's clean heads; ``None``
        # after an in-driver round.
        self.clean: Optional[Dict[str, List]] = None
        self.eval_id = next(_COUNTER)
        _STATES[self.eval_id] = _ShardState(
            _ShardWorking(self.working, probed), self.rules, self.cancel
        )

    def begin_stratum(self, stratum):
        self.stratum_index = stratum.index
        self.shard_column = self.decomposable.get(stratum.index)
        self.retained_valid = False
        return self.rules[stratum.index]

    def fire(self, rules, delta):
        if delta is None or self.added < MIN_SHARD_ROWS:
            self.clean = None
            return super().fire(rules, delta)
        return self._fire_sharded(rules, delta)

    def commit(self, buckets):
        clean = self.clean
        if clean is None:
            delta, payload, added = _commit(self.working, buckets)
            self.retained_valid = False
        else:
            delta, payload, added = _commit_merged(self.working, buckets, clean)
        if clean is not None and self.shard_column is not None:
            if any(bucket and head not in clean for head, bucket in buckets.items()):
                raise EvaluationError(
                    "decomposable stratum produced overlapping "
                    f"shard outputs (stratum {self.stratum_index}); "
                    "shard-closure analysis is unsound"
                )
            # Owner-computes: each worker already kept its own fresh rows
            # as the next round's delta and folded the keys into its
            # overlay, so nothing is shipped.
            self.retained_valid = True
        else:
            for queue in self.pending:
                queue.append(payload)
        self.payload, self.added = payload, added
        return delta, added

    def close(self) -> None:
        """Stop the workers and join the pools; whoever builds the lane calls it."""
        self.cancel.set()
        for pool in self.pools:
            pool.shutdown(wait=True, cancel_futures=True)
        _STATES.pop(self.eval_id, None)

    def _ensure_pools(self) -> None:
        """Fork the shard workers now, snapshotting the current working set."""
        if self.pools:
            return
        for _ in range(self.workers):
            self.pools.append(ProcessPoolExecutor(max_workers=1, mp_context=self.context))
            self.pending.append([])
        # The executor forks lazily on first submit; ping each pool so the
        # snapshot is pinned *here*, before the driver mutates further.
        for pool in self.pools:
            pool.submit(_ping, self.eval_id).result()

    def _wait_result(self, future):
        """Block on a shard future, checkpointing the guard while waiting."""
        while True:
            try:
                return future.result(timeout=_WAIT_SLICE)
            except _FutureTimeout:
                if self.guard is not None:
                    self.guard.checkpoint(self.statistics)

    def _fire_sharded(self, rules, delta):
        """Ship one delta round to the shards; merge their buckets serially."""
        statistics, guard = self.statistics, self.guard
        self._ensure_pools()
        shard_column = self.shard_column
        if shard_column is None:
            retain = "off"
        elif self.retained_valid:
            retain = "use"
        else:
            retain = "seed"
        round_payload = [] if retain == "use" else self.payload
        delta_predicates = set(delta)
        futures = []
        for shard, pool in enumerate(self.pools):
            sync = self.pending[shard]
            self.pending[shard] = []
            futures.append(
                pool.submit(
                    _worker_round,
                    self.eval_id, self.stratum_index, sync, round_payload,
                    sorted(delta_predicates), shard, len(self.pools),
                    0 if shard_column is None else shard_column,
                    retain,
                )
            )
        shard_maps = [
            {
                (index, position): (firings, keys, columns)
                for index, position, firings, keys, columns in self._wait_result(future)
            }
            for future in futures
        ]
        # Serial-order merge: replay the exact bookkeeping of the serial
        # loop.  Shard fresh sets are already deduped against the
        # round-start model (each worker's view); only the evolving
        # bucket — same-round emissions of earlier variants/rules for this
        # head — is subtracted here.  Skipping a redundant model-wide
        # subtraction also means a desynced worker view fails parity
        # loudly instead of being silently papered over.  A variant is
        # *clean* when the bucket was empty and the shard fresh sets were
        # pairwise disjoint (union size == sum of sizes); clean heads
        # commit by concatenating the workers' pre-unpacked columns.
        buckets: Dict[str, set] = {}
        clean: Dict[str, List[Tuple[int, List[int], Tuple]]] = {}
        dirty: Set[str] = set()
        for index, (head, head_arity, _static, variants) in enumerate(rules):
            if guard is not None:
                guard.checkpoint(statistics)
            bucket = buckets.setdefault(head, set())
            for position, body_predicate, _sequence in variants:
                if body_predicate not in delta_predicates:
                    continue
                firings = 0
                total = 0
                fresh: set = set()
                pieces: List[Tuple[int, List[int], Tuple]] = []
                for shard_map in shard_maps:
                    shard_firings, keys, columns = shard_map[(index, position)]
                    firings += shard_firings
                    if keys:
                        total += len(keys)
                        fresh.update(keys)
                        pieces.append((head_arity, keys, columns))
                if bucket:
                    fresh.difference_update(bucket)
                    clean_variant = False
                else:
                    clean_variant = len(fresh) == total
                statistics.record_batch(head, firings, len(fresh))
                if fresh:
                    bucket |= fresh
                    if clean_variant and head not in dirty:
                        clean.setdefault(head, []).extend(pieces)
                    else:
                        dirty.add(head)
                        clean.pop(head, None)
        self.clean = clean
        return buckets


def evaluate_seminaive_sharded(program, database, plan, statistics, options) -> EvaluationResult:
    """The semi-naive fixpoint with process-sharded recursive rounds.

    The same loop as every other lane
    (:func:`repro.datalog.engine.fixpoint.run`) with a different delta
    step; model and statistics are identical to the serial packed lane's.
    The lane is closed on every exit, so an abort joins the pools.
    """
    lane = ShardedLane(database, plan, statistics, options.guard, options.workers)
    try:
        return run(lane, program, database, options)
    finally:
        lane.close()


__all__ = [
    "MIN_SHARD_ROWS",
    "ShardAborted",
    "ShardedLane",
    "applicable",
    "available",
    "evaluate_seminaive_sharded",
]
