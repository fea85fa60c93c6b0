"""The one stratified fixpoint driver behind both bottom-up engines.

``EvaluationStatistics`` is identical whichever execution lane runs a
program, which is what lets the round bookkeeping live here once: the
driver owns validation, plan resolution, lane selection
(:func:`select_lane`), fact-rule loading, ``record_stratum`` /
``record_iteration``, the guard checkpoint, the ``max_iterations`` check
and the :class:`EvaluationResult`.  *Naive is a flag* on the same loop:
every round re-fires the static sequences over the full model instead of
the delta variants.

A **lane** is the small object the loop calls (:class:`Lane`).  Four
implement it: :class:`TupleLane` here (a ``Database`` working copy and
the :mod:`~repro.datalog.engine.base` rule evaluators),
:class:`~repro.datalog.columnar.batch.PackedLane`,
:class:`~repro.datalog.columnar.vector.VectorLane` and
:class:`~repro.datalog.columnar.shard.ShardedLane` (the packed lane with
a different delta round, and pools its builder closes).  Which strata
run concurrently is the scheduling policy around the loop
(:func:`~repro.datalog.engine.parallel.evaluate_strata`).
"""

from __future__ import annotations

import functools
from typing import Dict, Iterable, Optional, Protocol, Set, Tuple

from repro.datalog.database import Database
from repro.datalog.engine import planner as planning
from repro.datalog.engine.base import (
    EvaluationResult,
    fire_aggregate_rule,
    fire_rule,
    fire_rule_delta,
    split_aggregate_rules,
)
from repro.datalog.engine.options import EvalOptions, resolve
from repro.datalog.engine.parallel import evaluate_strata
from repro.datalog.engine.planner import ProgramPlan
from repro.datalog.engine.stats import EvaluationStatistics
from repro.datalog.program import Program
from repro.errors import EvaluationError


class Lane(Protocol):
    """What the driver needs from an execution lane.

    A lane owns the working state of one evaluation (it never mutates the
    input database) and records every firing into :attr:`statistics`, so
    the counters come out the same on all of them.
    """

    plan: ProgramPlan
    statistics: EvaluationStatistics
    guard: object

    def add_fact(self, predicate: str, values: Tuple) -> bool:
        """Load one ground fact rule's head; returns whether it was new."""

    def begin_stratum(self, stratum):
        """Prepare *stratum*; returns the rules handle :meth:`fire` takes."""

    def fire(self, rules, delta):
        """Fire one round into fresh buckets and return them: the static
        sequences when *delta* is ``None`` (plus, on a stratum's first
        round, its aggregate rules), the delta variants otherwise."""

    def commit(self, buckets):
        """Append a round's buckets; returns ``(next delta, rows added)``."""

    def decode(self, idb_predicates: Iterable[str]) -> Database:
        """The derived IDB relations as a database of plain value tuples."""


class TupleLane:
    """The tuple-layout lane: compiled slot kernels or interpreted bodies.

    With *collect* supplied (the depth-concurrent path, where *working* is
    a private overlay — see :meth:`overlay`), every committed tuple is
    also recorded per predicate so :meth:`absorb` can fold the overlay's
    additions back into the shared working set.
    """

    __slots__ = (
        "plan", "working", "statistics", "options", "guard", "compiled", "collect", "add_fact",
        "_aggregates",
    )

    def __init__(self, plan, working, statistics, options=EvalOptions(), collect=None):
        self.plan = plan
        self.working = working
        self.statistics = statistics
        self.options = options
        self.guard = options.guard
        self.compiled = options.compiled is not False
        self.collect = collect
        self.add_fact = working.add_fact
        self._aggregates: Tuple = ()

    def begin_stratum(self, stratum):
        plain_rules, self._aggregates = split_aggregate_rules(stratum.rules)
        return plain_rules

    def fire(self, rules, delta):
        # Nothing mutates `working` within a round, so its live relation
        # view plus the per-predicate bucket answer every duplicate check
        # by direct set membership — no contains() round-trips through
        # tuple() coercion per firing, and no per-round frozenset rebuild
        # on deep recursions with small deltas.
        plan, working, statistics = self.plan, self.working, self.statistics
        compiled = self.compiled
        buckets: Dict[str, Set[Tuple]] = {}
        if delta is None:
            for rule in rules:
                bucket = buckets.setdefault(rule.head.predicate, set())
                fire_rule(plan, rule, working, bucket, statistics, compiled)
            # Aggregate rules fire exactly once, on the stratum's first
            # round: stratification forces their whole bodies into strictly
            # lower (closed) strata, so the stratum's own fixpoint cannot
            # change what they derive.
            for rule in self._aggregates:
                bucket = buckets.setdefault(rule.head.predicate, set())
                fire_aggregate_rule(plan, rule, working, bucket, statistics, compiled)
            self._aggregates = ()
        else:
            delta_predicates = delta.predicates()
            for rule in rules:
                bucket = buckets.setdefault(rule.head.predicate, set())
                fire_rule_delta(
                    plan, rule, working, delta, delta_predicates, bucket, statistics, compiled
                )
        return buckets

    def commit(self, buckets):
        fresh: Dict[str, Set[Tuple]] = {}
        added = 0
        collect = self.collect
        for name, bucket in buckets.items():
            if bucket:
                fresh[name] = bucket
                added += len(bucket)
                if collect is not None:
                    collect.setdefault(name, set()).update(bucket)
        delta = Database.adopt(fresh)
        self.working.update(delta)
        return delta, added

    def decode(self, idb_predicates) -> Database:
        return self.working.restrict(idb_predicates)

    def overlay(self, statistics) -> "TupleLane":
        """A private lane over a copy-on-write overlay of the working set."""
        return TupleLane(self.plan, self.working.overlay(), statistics, self.options, collect={})

    def absorb(self, child: "TupleLane") -> None:
        """Fold what an :meth:`overlay` lane derived into this working set."""
        if child.collect:
            self.working.add_relations(child.collect)


def select_lane(
    plan, database, program, options: Optional[EvalOptions] = None, *, naive: bool = False,
    **keywords,
) -> str:
    """Name the lane an evaluation runs on — the one place it is decided.

    Reads ``compiled`` and ``workers`` from *options* (or from the same
    keywords every evaluating surface takes).

    ``"tuple"`` unless the database has the columnar layout, the compiled
    kernels are on and every stratum rule has one to lower (aggregate
    rules and un-internable terms never do); then ``"vector"`` when the
    program fits the NumPy lane — at any worker count: its rounds are too
    cheap for cross-process sharding to pay — else ``"sharded"`` for a
    semi-naive run the sharded lane accepts, else ``"packed"``.  Naive has
    no deltas to shard.
    """
    options = resolve(options, keywords)
    if options.compiled is False or getattr(database, "layout", "tuple") != "columnar":
        return "tuple"
    from repro.datalog.columnar import batch, shard, vector

    if not batch.plan_supported(plan):
        return "tuple"
    if vector.supported(plan, database.columnar_store().table, program):
        return "vector"
    if not naive and shard.applicable(plan, options.workers or 1):
        return "sharded"
    return "packed"


#: The option fields :func:`evaluate` (and the lanes under it) reads.
ACCEPTS = frozenset({"max_iterations", "planner", "plan", "compiled", "guard", "workers"})


def evaluate(
    program: Program, database: Database, options: EvalOptions = EvalOptions(), *, naive: bool
) -> EvaluationResult:
    """Compute the minimum model of *program* over *database* bottom-up.

    *database* is never modified: every lane evaluates over working state
    of its own, so an abort leaves the input untouched.

    ``options.planner``, when set (a :class:`~repro.datalog.engine.planner.Planner`,
    normally the :class:`~repro.datalog.session.QuerySession`'s), serves the
    compiled :class:`~repro.datalog.engine.planner.ProgramPlan` from its
    cache across repeated evaluations; otherwise the plan is compiled fresh.
    ``options.plan``, when set (the prepared-query path), is used as-is — the
    caller guarantees it was compiled for this program's proper rules; the
    program may additionally carry ground fact rules (per-binding seeds),
    which are loaded before the fixpoint like any other facts.
    ``options.max_iterations`` bounds the *total* fixpoint rounds across all
    strata; exceeding it raises :class:`~repro.errors.EvaluationError`.

    ``options.compiled`` selects the rule evaluator: the default runs every
    rule that has a compiled slot kernel (:mod:`repro.datalog.engine.executor`)
    through it; rules without one — and all rules when ``compiled=False``,
    the baseline the kernel benchmarks time against — run through the
    interpreted :func:`~repro.datalog.engine.base.match_body` path.

    ``options.guard``, when set (an armed
    :class:`~repro.datalog.guard.ExecutionGuard`), is checkpointed at every
    round boundary (and between kernel batches on the columnar lanes): a
    deadline, budget, or cancellation abort raises its typed error.

    ``options.workers``, when > 1, enables the parallel layer: same-depth
    strata on threads on the tuple lane (:mod:`repro.datalog.engine.parallel`),
    process-sharded recursive rounds for a semi-naive run on the packed
    lane (:mod:`repro.datalog.columnar.shard`).  The model and statistics
    are identical to the serial run at any worker count.

    *naive* re-fires every rule over the whole model each round instead
    of the delta variants — same strata, same plans, same lanes.
    """
    program.validate()
    statistics = EvaluationStatistics()

    # The plan reads the *input* database, never a lane's working state,
    # and the lane choice reads the plan — so both resolve before any
    # working copy is made.  compile_program_plan is reached through its
    # module so a wrapper installed there (the ledger's tracer) sees it.
    plan = options.plan
    if plan is not None:
        statistics.record_plan(cache_hit=True)
    elif options.planner is not None:
        plan = options.planner.plan(program, database, statistics=statistics)
    else:
        plan = planning.compile_program_plan(program, database)
        statistics.record_plan(cache_hit=False)

    lane_name = select_lane(plan, database, program, options, naive=naive)
    if lane_name == "tuple":
        lane = TupleLane(plan, database.copy(), statistics, options)
        return run(lane, program, database, options, naive=naive)
    from repro.datalog.columnar import batch, shard, vector

    if lane_name == "sharded":
        return shard.evaluate_seminaive_sharded(program, database, plan, statistics, options)
    module, lane_type = (
        (vector, vector.VectorLane) if lane_name == "vector" else (batch, batch.PackedLane)
    )
    if naive:
        lane = lane_type(database, plan, statistics, options.guard)
        return run(lane, program, database, options, naive=True)
    # Semi-naive enters through the lane module's own entry point, looked
    # up at call time: that call is the span a tracer times per lane.
    return module.evaluate_seminaive(program, database, plan, statistics, options)


def run(
    lane: Lane,
    program: Program,
    database: Database,
    options: EvalOptions = EvalOptions(),
    *,
    naive: bool = False,
) -> EvaluationResult:
    """Drive *lane* through its plan's strata to the fixpoint over *database*.

    ``options.workers`` > 1 lets same-depth strata run concurrently on a
    lane with ``overlay`` / ``absorb`` (the tuple lane); the columnar lanes
    run their strata in order.
    """
    statistics, guard = lane.statistics, lane.guard
    max_iterations = options.max_iterations
    threads = (options.workers or 1) if hasattr(lane, "overlay") else 1
    label = "naive" if naive else "semi-naive"

    def check_budget() -> None:
        if guard is not None:
            guard.checkpoint(statistics)
        if max_iterations is not None and statistics.iterations > max_iterations:
            raise EvaluationError(f"{label} evaluation exceeded {max_iterations} iterations")

    for rule in program.rules:
        if rule.is_fact():
            head = rule.head
            statistics.record_firing()
            is_new = lane.add_fact(head.predicate, head.as_fact_tuple())
            statistics.record_fact(head.predicate, is_new)
    evaluate_strata(
        lane.plan, lane, functools.partial(_run_stratum, naive=naive), check_budget,
        max_iterations=max_iterations, workers=threads, error_label=label,
    )
    return EvaluationResult(
        program, database, lane.decode(program.idb_predicates()), statistics
    )


def _run_stratum(lane: Lane, stratum, check_budget, naive: bool) -> None:
    """One stratum's fixpoint: fire, commit, repeat while rows were added."""
    statistics = lane.statistics
    statistics.record_stratum()
    label = stratum.label
    recursive = stratum.recursive
    rules = lane.begin_stratum(stratum)
    fire, commit = lane.fire, lane.commit
    # The first round fires every rule over everything derived so far
    # (lower strata are complete; this stratum's relations may hold rows
    # loaded from fact rules); a semi-naive run then follows the deltas.
    delta = None
    while True:
        statistics.record_iteration(label)
        check_budget()
        delta, added = commit(fire(rules, delta))
        if not added or not recursive:
            # No rule of a non-recursive stratum can feed itself: one pass
            # is its fixpoint.
            return
        if naive:
            delta = None
