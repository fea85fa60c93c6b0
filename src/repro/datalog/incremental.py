"""Incremental view maintenance: counting + Delete-and-Rederive over the kernels.

The service layer used to treat every write as a cache apocalypse: any
insertion bumped the write epoch and all materialized answers were recomputed
from scratch.  But semi-naive evaluation *is* a delta-propagation algorithm —
the per-iteration delta rules the engines already run only need to be seeded
differently to propagate an external change instead of an internal round.
This module closes the loop with the classic Gupta–Mumick–Subrahmanian
formulation of incremental view maintenance (IVM):

* a :class:`MaterializedView` owns a fully evaluated model of a program over
  a database, plus **support counts** for every fact of a non-recursive
  stratum (the exact number of rule derivations, so a deletion can decrement
  instead of recompute);
* ``apply(insertions, deletions)`` maintains the model under a batch of EDB
  changes.  Insertions drive the semi-naive delta rules forward, reusing the
  compiled :class:`~repro.datalog.engine.executor.RuleKernel` delta variants
  (the maintenance plan is compiled with ``all_deltas=True`` so *every* body
  position has one — external deltas arrive through EDB atoms too, not just
  recursive ones).  Deletions use **counting** for non-recursive strata
  (decrement lost derivations, remove facts whose count reaches zero) and
  **DRed** (overdelete everything possibly affected, then rederive what has
  an alternative proof) for recursive strata, where counting is unsound.

The correctness contract — and the metamorphic oracle the differential fuzz
harness checks — is that after any interleaving of ``apply`` calls the view's
model equals a from-scratch evaluation over the current base facts, for every
registered engine.

Change semantics: deletions retract *base* (externally asserted) facts only;
derived facts and program-level fact rules (including the ``__param_*`` seeds
a prepared query plants) are not retractable — retracting a fact that has no
base assertion is a no-op, even if the fact is present because rules derive
it.  Within one batch, deletions are processed before insertions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from repro.datalog.atoms import Atom, NegatedAtom
from repro.datalog.columnar.relation import arity_of_key, pack_codes, unpack_key
from repro.datalog.database import Database, OverlayDatabase, _group_facts
from repro.datalog.engine.base import (
    fire_rule,
    fire_rule_delta,
    match_body,
    select_answers,
    split_rules,
)
from repro.datalog.engine.options import EvalOptions, resolve
from repro.datalog.engine.planner import (
    ProgramPlan,
    Stratum,
    compile_program_plan,
    order_body,
)
from repro.datalog.engine.stats import EvaluationStatistics
from repro.datalog.program import Program
from repro.datalog.rules import Rule
from repro.datalog.terms import Aggregate
from repro.datalog.unify import match_atom
from repro.errors import EvaluationError

_EMPTY_SET: FrozenSet[Tuple] = frozenset()


# ----------------------------------------------------------------------
# Mixed-state join sources
#
# Counting maintenance enumerates each changed rule firing exactly once via
# the standard delta decomposition: for the delta at body position i, the
# positions before i read one database state and the positions after i read
# the other.  These tiny adapters expose the Database probe interface
# (`relation` / `probe`) over a synthesized state so `candidate_tuples` can
# drive them unchanged.
# ----------------------------------------------------------------------
class _SetSource:
    """A single predicate's delta set, viewed as a probe-able database."""

    __slots__ = ("_predicate", "_tuples")

    def __init__(self, predicate: str, tuples: Set[Tuple]):
        self._predicate = predicate
        self._tuples = tuples

    def relation(self, predicate: str):
        return self._tuples if predicate == self._predicate else _EMPTY_SET

    def probe(self, predicate: str, position: int, value) -> Sequence[Tuple]:
        if predicate != self._predicate:
            return ()
        return [
            values
            for values in self._tuples
            if position < len(values) and values[position] == value
        ]

    def contains(self, predicate: str, values: Tuple) -> bool:
        return predicate == self._predicate and values in self._tuples


class _UnionSource:
    """The *pre-deletion* state: the live model plus the removed tuples."""

    __slots__ = ("_model", "_extra")

    def __init__(self, model: Database, extra: Mapping[str, Set[Tuple]]):
        self._model = model
        self._extra = extra

    def relation(self, predicate: str):
        extra = self._extra.get(predicate)
        if not extra:
            return self._model.relation(predicate)
        return self._model.relation(predicate) | extra

    def probe(self, predicate: str, position: int, value) -> Sequence[Tuple]:
        base = self._model.probe(predicate, position, value)
        extra = self._extra.get(predicate)
        if not extra:
            return base
        matches = [
            values
            for values in extra
            if position < len(values) and values[position] == value
        ]
        if not matches:
            return base
        return list(base) + matches

    def contains(self, predicate: str, values: Tuple) -> bool:
        if values in self._extra.get(predicate, _EMPTY_SET):
            return True
        return self._model.contains(predicate, values)


class _ExcludeSource:
    """The *pre-insertion* state: the live model minus the added tuples."""

    __slots__ = ("_model", "_excluded")

    def __init__(self, model: Database, excluded: Mapping[str, Set[Tuple]]):
        self._model = model
        self._excluded = excluded

    def relation(self, predicate: str):
        excluded = self._excluded.get(predicate)
        relation = self._model.relation(predicate)
        if not excluded:
            return relation
        return [values for values in relation if values not in excluded]

    def probe(self, predicate: str, position: int, value) -> Sequence[Tuple]:
        base = self._model.probe(predicate, position, value)
        excluded = self._excluded.get(predicate)
        if not excluded:
            return base
        return [values for values in base if values not in excluded]

    def contains(self, predicate: str, values: Tuple) -> bool:
        if values in self._excluded.get(predicate, _EMPTY_SET):
            return False
        return self._model.contains(predicate, values)


class _PriorSource:
    """The *pre-batch* state: the live model minus added plus removed tuples.

    The unified signed pass (programs with negation) mutates the model as it
    sweeps the strata in order, tracking net changes in *added*/*removed*;
    this adapter synthesizes the state every predicate had before the batch.
    A fact recorded in both dicts was present before and after (removed then
    restored); membership therefore checks *removed* first.
    """

    __slots__ = ("_model", "_added", "_removed")

    def __init__(
        self,
        model: Database,
        added: Mapping[str, Set[Tuple]],
        removed: Mapping[str, Set[Tuple]],
    ):
        self._model = model
        self._added = added
        self._removed = removed

    def relation(self, predicate: str):
        relation = self._model.relation(predicate)
        added = self._added.get(predicate)
        removed = self._removed.get(predicate)
        if added:
            relation = [values for values in relation if values not in added]
        if removed:
            return list(relation) + list(removed)
        return relation

    def probe(self, predicate: str, position: int, value) -> Sequence[Tuple]:
        base = self._model.probe(predicate, position, value)
        added = self._added.get(predicate)
        if added:
            base = [values for values in base if values not in added]
        removed = self._removed.get(predicate)
        if removed:
            extra = [
                values
                for values in removed
                if position < len(values) and values[position] == value
            ]
            if extra:
                return list(base) + extra
        return base

    def contains(self, predicate: str, values: Tuple) -> bool:
        if values in self._removed.get(predicate, _EMPTY_SET):
            return True
        if values in self._added.get(predicate, _EMPTY_SET):
            return False
        return self._model.contains(predicate, values)


# ----------------------------------------------------------------------
# Maintenance bookkeeping
# ----------------------------------------------------------------------
@dataclass
class ApplyReport:
    """What one :meth:`MaterializedView.apply` call actually did."""

    base_inserted: int = 0
    base_deleted: int = 0
    derived_added: int = 0
    derived_removed: int = 0
    overdeleted: int = 0
    rederived: int = 0
    rounds: int = 0

    def __str__(self) -> str:
        return (
            f"base +{self.base_inserted}/-{self.base_deleted} "
            f"derived +{self.derived_added}/-{self.derived_removed} "
            f"overdeleted={self.overdeleted} rederived={self.rederived} "
            f"rounds={self.rounds}"
        )


@dataclass
class MaintenanceStatistics:
    """Cumulative counters across every ``apply`` on one view."""

    applies: int = 0
    base_inserted: int = 0
    base_deleted: int = 0
    derived_added: int = 0
    derived_removed: int = 0
    overdeleted: int = 0
    rederived: int = 0
    count_increments: int = 0
    count_decrements: int = 0
    rounds: int = 0

    def absorb(self, report: ApplyReport) -> None:
        self.applies += 1
        self.base_inserted += report.base_inserted
        self.base_deleted += report.base_deleted
        self.derived_added += report.derived_added
        self.derived_removed += report.derived_removed
        self.overdeleted += report.overdeleted
        self.rederived += report.rederived
        self.rounds += report.rounds

    def as_dict(self) -> Dict[str, int]:
        return {
            "applies": self.applies,
            "base_inserted": self.base_inserted,
            "base_deleted": self.base_deleted,
            "derived_added": self.derived_added,
            "derived_removed": self.derived_removed,
            "overdeleted": self.overdeleted,
            "rederived": self.rederived,
            "count_increments": self.count_increments,
            "count_decrements": self.count_decrements,
            "rounds": self.rounds,
        }


class MaterializedView:
    """A live minimum model maintained under insertions *and* deletions.

    Construction evaluates the program once (counting derivations for
    non-recursive strata along the way); afterwards :meth:`apply` keeps the
    model — and therefore :meth:`answers` — current under EDB change batches
    at a cost proportional to the change's footprint, not the model's size.

    Presence contract: a fact is in the model iff it is base-asserted
    (externally inserted / part of the initial database), asserted by a
    program fact rule, or derivable by the rules.  For every predicate of a
    non-recursive stratum the view additionally knows the exact number of
    derivations (:meth:`support`), which is what makes deletions O(delta)
    there; recursive strata fall back to DRed, which needs no counts.
    """

    #: The option fields a view reads (both for the initial build only).
    ACCEPTS = frozenset({"compiled", "guard"})

    def __init__(
        self, program, database: Database, options: Optional[EvalOptions] = None, **keywords
    ):
        options = resolve(options, keywords).checked("a materialized view", self.ACCEPTS)
        inner = getattr(program, "program", None)
        if not isinstance(program, Program):
            if isinstance(inner, Program):
                program = inner
            else:
                raise TypeError(
                    f"expected a Program (or a wrapper with .program), "
                    f"got {type(program).__name__}"
                )
        program.validate()
        if program.parameters():
            raise EvaluationError(
                "cannot materialize a parameterized template; prepare the query "
                "and bind it first (PreparedQuery.materialize)"
            )
        for rule in program.rules:
            if any(isinstance(term, Aggregate) for term in rule.head.terms):
                raise EvaluationError(
                    f"cannot materialize a program with aggregate rules: "
                    f"{rule} — aggregate results are not incrementally "
                    "maintainable; re-evaluate the program instead"
                )
        self._negated = any(rule.negated_body() for rule in program.rules)
        self._program = program
        self._compiled = options.compiled is not False
        # The model is an independent deep copy: maintenance retracts facts,
        # which an overlay cannot do to its base.
        if isinstance(database, OverlayDatabase):
            self._model = database.materialize()
        else:
            self._model = database.copy()
        # Externally asserted facts: the retractable support.
        self._base: Dict[str, Set[Tuple]] = {
            name: set(tuples) for name, tuples in self._model.relations().items()
        }
        self._idb = program.idb_predicates()
        # Maintenance plan: delta variants (and compiled delta kernels) for
        # *every* body position — external deltas arrive through EDB atoms.
        self._plan: ProgramPlan = compile_program_plan(
            program, self._model, all_deltas=True
        )
        if self._negated:
            for stratum in self._plan.strata:
                if stratum.recursive and any(
                    rule.negated_body() for rule in stratum.rules
                ):
                    raise EvaluationError(
                        "cannot materialize a program with negation in a "
                        f"recursive stratum ({stratum.label}): "
                        "Delete-and-Rederive is only sound for positive "
                        "recursion — evaluate such programs from scratch"
                    )
        self._rules_by_head: Dict[str, List[Rule]] = {}
        for stratum in self._plan.strata:
            for rule in stratum.rules:
                self._rules_by_head.setdefault(rule.head.predicate, []).append(rule)
        # Program-level fact rules: permanent (non-retractable) support.
        fact_rules, _ = split_rules(program)
        self._program_facts: Dict[str, Set[Tuple]] = {}
        for rule in fact_rules:
            self._program_facts.setdefault(rule.head.predicate, set()).add(
                rule.head.as_fact_tuple()
            )
        self._counting_predicates: FrozenSet[str] = frozenset(
            predicate
            for stratum in self._plan.strata
            if not stratum.recursive
            for predicate in stratum.predicates
        )
        # Predicates some stratum is responsible for.  Note this is NOT the
        # IDB set: a predicate defined only by fact rules has no proper rules,
        # so the plan owns no stratum for it and deletions must treat it like
        # an EDB relation (presence = base assertion or pinned fact rule).
        self._stratified_predicates: FrozenSet[str] = frozenset(
            predicate
            for stratum in self._plan.strata
            for predicate in stratum.predicates
        )
        # Derivation counts for counting predicates.  Over a columnar-layout
        # model the keys are packed intern-code ints (arity-seeded, so mixed
        # arities share a dict safely) instead of value tuples — the count
        # table then stores one machine int per fact and never re-hashes
        # tuple contents on the per-firing increments; keys decode back to
        # tuples only at the support()/support_counts() boundaries.
        self._intern = (
            self._model.columnar_store().table
            if self._model.layout == "columnar"
            else None
        )
        self._counts: Dict[str, Dict[object, int]] = {
            predicate: {} for predicate in self._counting_predicates
        }
        self.statistics = EvaluationStatistics()
        self.maintenance = MaintenanceStatistics()
        # (model version, answers) for the program's own goal: the service
        # serves every materialized read through answers(), so repeat reads
        # between writes must be O(1), not a select over the full relation.
        self._answers_cache: Optional[Tuple[int, FrozenSet[Tuple]]] = None
        # The guard covers only the initial build: an abort there discards
        # this half-constructed object with the caller's database untouched
        # (the model is a private copy).  Maintenance sweeps mutate the model
        # in place, so they must run to completion — interrupting one would
        # leave the view corrupt — hence the guard is disarmed after _build.
        self._guard = options.guard
        self._build()
        self._guard = None
        # Goal-directed join orders for the rederivation check: the head is
        # fully bound there, so the greedy planner can start from the most
        # selective probe instead of the static (head-free) order — on a deep
        # chain this turns each "is this fact still derivable?" check from an
        # O(relation) enumeration into a handful of index probes.
        estimates = {
            predicate: self._model.cardinality(predicate)
            for predicate in program.predicates()
        }
        self._check_orders: Dict[Rule, Tuple[int, ...]] = {}
        for rules in self._rules_by_head.values():
            for rule in rules:
                self._check_orders[rule] = order_body(
                    rule.body, estimates, bound=set(rule.head.variables())
                )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def program(self) -> Program:
        return self._program

    @property
    def model(self) -> Database:
        """The maintained full model (base + derived facts).  Read-only."""
        return self._model

    @property
    def counting_predicates(self) -> FrozenSet[str]:
        """IDB predicates maintained by counting (non-recursive strata)."""
        return self._counting_predicates

    def relation(self, predicate: str) -> FrozenSet[Tuple]:
        """The maintained relation for any predicate."""
        return self._model.relation(predicate)

    def idb_facts(self) -> Database:
        """The derived portion of the model, shaped like an engine result."""
        return self._model.restrict(self._idb)

    def base_facts(self) -> Database:
        """The externally asserted facts as an independent database.

        This is exactly the input a from-scratch evaluation would start
        from, which is what the differential fuzz harness feeds the engines.
        """
        return Database({name: set(tuples) for name, tuples in self._base.items() if tuples})

    def _count_key(self, values: Tuple):
        """The _counts key for one head tuple (packed int when columnar)."""
        if self._intern is None:
            return values
        intern = self._intern.intern
        return pack_codes([intern(value) for value in values])

    def _count_values(self, key) -> Tuple:
        """Decode a _counts key back to the head value tuple."""
        if self._intern is None:
            return key
        value = self._intern.value
        return tuple(value(code) for code in unpack_key(key, arity_of_key(key)))

    def support(self, predicate: str, values: Tuple) -> int:
        """How many supports a fact currently has.

        For counting predicates: the exact derivation count (a program fact
        rule counts as one derivation, and is already inside
        :meth:`support_counts`), plus one for a base assertion.  For
        recursive-stratum predicates no derivation counts are kept (DRed
        does not need them), so the result is the assertion supports plus
        one when the fact is present (derivable).  Zero always means "not
        in the model".
        """
        values = tuple(values)
        based = int(values in self._base.get(predicate, _EMPTY_SET))
        if predicate in self._counting_predicates:
            return self._counts[predicate].get(self._count_key(values), 0) + based
        asserted = based + int(
            values in self._program_facts.get(predicate, _EMPTY_SET)
        )
        if asserted:
            return asserted
        return int(self._model.contains(predicate, values))

    def support_counts(self, predicate: str) -> Dict[Tuple, int]:
        """The exact derivation counts of one counting predicate (a copy)."""
        if predicate not in self._counting_predicates:
            raise EvaluationError(
                f"{predicate!r} is not maintained by counting (recursive strata "
                "use Delete-and-Rederive and keep no derivation counts)"
            )
        return {
            self._count_values(key): count
            for key, count in self._counts[predicate].items()
        }

    def answers(self, goal: Optional[Atom] = None) -> FrozenSet[Tuple]:
        """The goal's answers over the maintained model (always current).

        Answers for the program's own goal are memoized per model version,
        so repeat reads between writes cost a cache probe instead of a
        selection over the full relation.
        """
        own_goal = goal is None or goal == self._program.goal
        goal = goal if goal is not None else self._program.goal
        if goal is None:
            raise EvaluationError("no goal supplied and the program has none")
        if own_goal:
            cached = self.cached_answers()
            if cached is not None:
                return cached
        version = self._model.version
        result = select_answers(goal, self._model.relation(goal.predicate))
        if own_goal:
            self._answers_cache = (version, result)
        return result

    def cached_answers(self) -> Optional[FrozenSet[Tuple]]:
        """The own-goal answers if memoized for the current model version.

        ``None`` when the next :meth:`answers` call would have to select
        (first read, or first read after a maintenance sweep changed the
        model); this method itself never selects.
        """
        cached = self._answers_cache
        if cached is not None and cached[0] == self._model.version:
            return cached[1]
        return None

    def describe(self) -> str:
        """Human-readable account: per-stratum maintenance strategy and sizes."""
        lines = [
            f"materialized view: {len(self._plan.strata)} strata, "
            f"{self._model.fact_count()} facts"
        ]
        for stratum in self._plan.strata:
            strategy = "DRed" if stratum.recursive else "counting"
            size = sum(self._model.cardinality(p) for p in stratum.predicates)
            lines.append(
                f"stratum {stratum.index + 1}: {stratum.label} "
                f"[{strategy}, {size} facts]"
            )
        lines.append(f"maintenance: {self.maintenance.as_dict()}")
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # Initial evaluation (counts derivations for counting strata)
    # ------------------------------------------------------------------
    def _build(self) -> None:
        model = self._model
        for predicate, tuples in self._program_facts.items():
            if predicate in self._counting_predicates:
                counts = self._counts[predicate]
                for values in tuples:
                    key = self._count_key(values)
                    counts[key] = counts.get(key, 0) + 1
            model.add_relations({predicate: set(tuples)})
        for stratum in self._plan.strata:
            self.statistics.record_stratum()
            if stratum.recursive:
                self._run_recursive_fixpoint(stratum)
            else:
                self._run_counting_pass(stratum)

    def _run_counting_pass(self, stratum: Stratum) -> None:
        """One full pass over a non-recursive stratum, counting every firing."""
        model = self._model
        self.statistics.record_iteration(stratum.label)
        if self._guard is not None:
            self._guard.checkpoint(self.statistics)
        buckets: Dict[str, Set[Tuple]] = {}
        for rule in stratum.rules:
            if self._guard is not None:
                self._guard.checkpoint(self.statistics)
            predicate = rule.head.predicate
            counts = self._counts[predicate]
            present = model.relation_view(predicate)
            bucket = buckets.setdefault(predicate, set())
            firings = 0
            fresh = 0
            kernel = self._plan.kernel(rule) if self._compiled else None
            if kernel is not None:
                emitted: List[Tuple] = []
                kernel.execute_static(model, emitted.append)
                heads: Iterable[Tuple] = emitted
            else:
                join_plan = self._plan.join_plan(rule)
                heads = (
                    join_plan.head_values(substitution)
                    for substitution in match_body(rule.body, model, order=join_plan.order)
                )
            count_key = self._count_key
            for values in heads:
                firings += 1
                key = count_key(values)
                counts[key] = counts.get(key, 0) + 1
                if values not in present and values not in bucket:
                    bucket.add(values)
                    fresh += 1
            self.statistics.record_batch(predicate, firings, fresh)
        model.add_relations(buckets)

    def _run_recursive_fixpoint(self, stratum: Stratum) -> None:
        """Standard semi-naive fixpoint for one recursive stratum."""
        model = self._model
        self.statistics.record_iteration(stratum.label)
        if self._guard is not None:
            self._guard.checkpoint(self.statistics)
        delta_sets: Dict[str, Set[Tuple]] = {}
        for rule in stratum.rules:
            bucket = delta_sets.setdefault(rule.head.predicate, set())
            fire_rule(self._plan, rule, model, bucket, self.statistics, self._compiled)
        delta = {name: bucket for name, bucket in delta_sets.items() if bucket}
        if delta:
            model.add_relations({name: set(bucket) for name, bucket in delta.items()})
        self._delta_fixpoint(stratum, delta, label=stratum.label)

    def _delta_fixpoint(
        self,
        stratum: Stratum,
        delta: Dict[str, Set[Tuple]],
        report: Optional[ApplyReport] = None,
        on_new=None,
        label: Optional[str] = None,
    ) -> None:
        """Semi-naive delta rounds until quiescence, for one stratum.

        The one fixpoint loop behind the initial build, insertion
        propagation, and DRed rederivation — they differ only in how the
        first *delta* is seeded and in the per-round bookkeeping:
        ``report`` counts maintenance rounds, ``on_new(predicate, bucket)``
        observes each round's fresh facts (already added to the model), and
        ``label`` attributes engine iterations to a stratum.
        """
        model = self._model
        plan = self._plan
        while any(delta.values()):
            if report is not None:
                report.rounds += 1
            if label is not None:
                self.statistics.record_iteration(label)
            if self._guard is not None:
                self._guard.checkpoint(self.statistics)
            delta_database = Database.adopt(
                {name: set(bucket) for name, bucket in delta.items() if bucket}
            )
            delta_predicates = delta_database.predicates()
            next_sets: Dict[str, Set[Tuple]] = {}
            for rule in stratum.rules:
                bucket = next_sets.setdefault(rule.head.predicate, set())
                fire_rule_delta(
                    plan,
                    rule,
                    model,
                    delta_database,
                    delta_predicates,
                    bucket,
                    self.statistics,
                    self._compiled,
                )
            delta = {name: bucket for name, bucket in next_sets.items() if bucket}
            if delta:
                model.add_relations(
                    {name: set(bucket) for name, bucket in delta.items()}
                )
                if on_new is not None:
                    for predicate, bucket in delta.items():
                        on_new(predicate, bucket)

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def apply(
        self, insertions: Iterable = (), deletions: Iterable = ()
    ) -> ApplyReport:
        """Maintain the view under a batch of EDB changes.

        *insertions* and *deletions* may mix ground
        :class:`~repro.datalog.atoms.Atom` objects and ``(predicate,
        values)`` pairs.  Deletions are processed first (a fact both deleted
        and inserted in one batch ends up present).  Returns an
        :class:`ApplyReport`; cumulative counters live on
        :attr:`maintenance`.
        """
        report = ApplyReport()
        if self._negated:
            # Negation couples the polarities — deleting q(a) can *gain*
            # firings of rules with ``not q(..)`` — so the two-phase positive
            # path below is replaced by one signed stratum-ordered sweep.
            self._apply_signed(
                _group_facts(insertions), _group_facts(deletions), report
            )
        else:
            removed = self._apply_deletions(_group_facts(deletions), report)
            if removed:
                self._propagate_deletions(removed, report)
            added = self._apply_insertions(_group_facts(insertions), report)
            if added:
                self._propagate_insertions(added, report)
        self.maintenance.absorb(report)
        return report

    # -- signed maintenance (programs with negated literals) ------------
    def _apply_signed(
        self,
        insert_groups: Dict[str, Set[Tuple]],
        delete_groups: Dict[str, Set[Tuple]],
        report: ApplyReport,
    ) -> None:
        """One stratum-ordered sweep carrying both polarities of net change.

        Base bookkeeping first (deletions before insertions, so a fact both
        deleted and inserted ends up present), then each stratum settles
        against the accumulated net ``added``/``removed`` model changes:
        counting strata take a telescoped signed tally
        (:meth:`_signed_counting`); recursive strata — positive-only, the
        constructor rejects recursive negation — run DRed for the removals
        and the semi-naive delta fixpoint for the additions.
        """
        model = self._model
        net_removed: Dict[str, Set[Tuple]] = {}
        net_added: Dict[str, Set[Tuple]] = {}
        for predicate, tuples in delete_groups.items():
            base = self._base.get(predicate)
            if not base:
                continue
            actually = tuples & base
            if not actually:
                continue
            base -= actually
            report.base_deleted += len(actually)
            net_removed[predicate] = set(actually)
        for predicate, tuples in insert_groups.items():
            base = self._base.setdefault(predicate, set())
            fresh = tuples - base
            if not fresh:
                continue
            base.update(fresh)
            report.base_inserted += len(fresh)
            lost = net_removed.get(predicate)
            if lost:
                # Deleted and re-inserted in one batch: no net change.
                reasserted = fresh & lost
                if reasserted:
                    lost -= reasserted
                    fresh = fresh - reasserted
                    if not lost:
                        net_removed.pop(predicate, None)
            if fresh:
                net_added[predicate] = set(fresh)

        # Net *model* changes, accumulated stratum by stratum.  Base
        # insertions enter the model immediately (presence by assertion);
        # base retractions of stratum-owned predicates are deferred to their
        # stratum (the fact may remain derivable), everything else leaves now.
        added: Dict[str, Set[Tuple]] = {}
        removed: Dict[str, Set[Tuple]] = {}
        own_retractions: Dict[str, Set[Tuple]] = {}
        for predicate, tuples in net_added.items():
            entering = {
                values for values in tuples if not model.contains(predicate, values)
            }
            if entering:
                model.add_relations({predicate: set(entering)})
                added[predicate] = entering
        base_entered = sum(len(tuples) for tuples in added.values())
        for predicate, tuples in net_removed.items():
            if predicate in self._stratified_predicates:
                own_retractions[predicate] = set(tuples)
                continue
            pinned = self._program_facts.get(predicate, _EMPTY_SET)
            gone = {
                values
                for values in tuples
                if values not in pinned and model.contains(predicate, values)
            }
            if gone:
                model.remove_facts((predicate, values) for values in gone)
                removed[predicate] = gone

        for stratum in self._plan.strata:
            body_predicates = {
                atom.predicate for rule in stratum.rules for atom in rule.body
            }
            incoming_added = {
                predicate: added[predicate]
                for predicate in body_predicates
                if added.get(predicate)
            }
            incoming_removed = {
                predicate: removed[predicate]
                for predicate in body_predicates
                if removed.get(predicate)
            }
            own = {
                predicate: own_retractions[predicate]
                for predicate in stratum.predicates
                if own_retractions.get(predicate)
            }
            if not incoming_added and not incoming_removed and not own:
                continue
            if stratum.recursive:
                # Insertions first: once the additions are propagated the
                # model is closed under the stratum's rules, so the DRed
                # rederivation fixpoint can only *restore* overdeleted facts
                # — it cannot invent new ones that would escape the change
                # record.  DRed itself is sound against the already-updated
                # model: overdeletion against a superset of the old state
                # only overshoots, and rederivation checks the live model.
                if incoming_added:
                    self._recursive_insert(stratum, incoming_added, added, report)
                if incoming_removed or own:
                    self._dred_delete(stratum, incoming_removed, own, removed, report)
            else:
                self._signed_counting(
                    stratum, incoming_added, incoming_removed, own, added, removed, report
                )
            # Keep the net change sets disjoint and exact: a fact recorded
            # on both sides within one batch (added then removed, or removed
            # then restored) is no net change at all, and leaving it in both
            # sets would poison the pre-batch state synthesized by
            # _PriorSource and the downstream signed tallies.
            for predicate in set(added) & set(removed):
                both = added[predicate] & removed[predicate]
                if both:
                    added[predicate] -= both
                    removed[predicate] -= both

        report.derived_added += (
            sum(len(tuples) for tuples in added.values()) - base_entered
        )
        report.derived_removed += sum(
            len(tuples)
            for predicate, tuples in removed.items()
            if predicate in self._stratified_predicates
        )

    def _signed_counting(
        self,
        stratum: Stratum,
        incoming_added: Dict[str, Set[Tuple]],
        incoming_removed: Dict[str, Set[Tuple]],
        own_retractions: Dict[str, Set[Tuple]],
        added: Dict[str, Set[Tuple]],
        removed: Dict[str, Set[Tuple]],
        report: ApplyReport,
    ) -> None:
        """Signed counting maintenance for one non-recursive stratum.

        The telescoped delta decomposition, with both polarities in one
        sweep: for the delta at body position ``i``, earlier positions read
        the new state (the live model), later positions read the pre-batch
        state (:class:`_PriorSource`), and position ``i`` enumerates a delta
        set with a sign.  A negated literal swaps the polarity — facts
        *removed* from its relation gain complement matches, added facts
        lose them — and is matched positively against the delta set
        (``positive_positions``).  The caller keeps the change sets disjoint
        and exact, so each tally term is the textbook signed delta.
        """
        model = self._model
        report.rounds += 1
        prior = _PriorSource(model, added, removed)
        tallies: Dict[str, Dict[Tuple, int]] = {}
        for rule in stratum.rules:
            join_plan = self._plan.join_plan(rule)
            body = rule.body
            for position, atom in enumerate(body):
                negated = isinstance(atom, NegatedAtom)
                if negated:
                    gained = incoming_removed.get(atom.predicate)
                    lost = incoming_added.get(atom.predicate)
                else:
                    gained = incoming_added.get(atom.predicate)
                    lost = incoming_removed.get(atom.predicate)
                for delta_set, sign in ((gained, 1), (lost, -1)):
                    if not delta_set:
                        continue
                    sources: List = [
                        model if other < position else prior
                        for other in range(len(body))
                    ]
                    sources[position] = _SetSource(atom.predicate, delta_set)
                    per_head = tallies.setdefault(rule.head.predicate, {})
                    for substitution in match_body(
                        body,
                        None,
                        order=self._variant_order(join_plan, position),
                        sources=sources,
                        positive_positions=frozenset((position,)),
                    ):
                        values = join_plan.head_values(substitution)
                        per_head[values] = per_head.get(values, 0) + sign
        # Settle the counters, then move facts in or out of the model.
        candidates: Dict[str, Set[Tuple]] = {
            predicate: set(tuples) for predicate, tuples in own_retractions.items()
        }
        entering: Dict[str, Set[Tuple]] = {}
        for predicate, per_head in tallies.items():
            counts = self._counts[predicate]
            bucket = candidates.setdefault(predicate, set())
            enter = entering.setdefault(predicate, set())
            for values, delta_count in per_head.items():
                if not delta_count:
                    continue
                key = self._count_key(values)
                new_count = counts.get(key, 0) + delta_count
                if delta_count > 0:
                    self.maintenance.count_increments += delta_count
                else:
                    self.maintenance.count_decrements += -delta_count
                if new_count > 0:
                    counts[key] = new_count
                    enter.add(values)
                else:
                    counts.pop(key, None)
                    bucket.add(values)
        for predicate, tuples in candidates.items():
            counts = self._counts[predicate]
            base = self._base.get(predicate, _EMPTY_SET)
            pinned = self._program_facts.get(predicate, _EMPTY_SET)
            leaving = {
                values
                for values in tuples
                if counts.get(self._count_key(values), 0) == 0
                and values not in base
                and values not in pinned
                and model.contains(predicate, values)
            }
            if leaving:
                model.remove_facts((predicate, values) for values in leaving)
                removed.setdefault(predicate, set()).update(leaving)
        for predicate, tuples in entering.items():
            fresh = {
                values for values in tuples if not model.contains(predicate, values)
            }
            if fresh:
                model.add_relations({predicate: set(fresh)})
                added.setdefault(predicate, set()).update(fresh)

    # -- deletions ------------------------------------------------------
    def _apply_deletions(
        self, groups: Dict[str, Set[Tuple]], report: ApplyReport
    ) -> Dict[str, Set[Tuple]]:
        """Retract base assertions; return the per-stratum deletion seeds.

        The returned mapping holds, per predicate, the base facts that lost
        their assertion and are *candidates* for leaving the model.  For
        plain EDB predicates the candidacy is decided immediately (presence
        equals assertion); for IDB predicates the decision belongs to the
        predicate's stratum (counting checks the derivation count, DRed
        overdeletes and rederives).
        """
        seeds: Dict[str, Set[Tuple]] = {}
        for predicate, tuples in groups.items():
            base = self._base.get(predicate)
            if not base:
                continue
            actually = tuples & base
            if not actually:
                continue
            base -= actually
            report.base_deleted += len(actually)
            seeds[predicate] = set(actually)
        return seeds

    def _propagate_deletions(
        self, seeds: Dict[str, Set[Tuple]], report: ApplyReport
    ) -> None:
        model = self._model
        removed: Dict[str, Set[Tuple]] = {}
        # Predicates no stratum owns — plain EDB relations, and predicates
        # defined only by fact rules: presence is assertion (base or pinned
        # fact rule), so unpinned retractions leave the model immediately.
        for predicate, tuples in seeds.items():
            if predicate in self._stratified_predicates:
                continue
            pinned = self._program_facts.get(predicate, _EMPTY_SET)
            gone = {values for values in tuples if values not in pinned}
            if gone:
                model.remove_facts((predicate, values) for values in gone)
                removed[predicate] = gone
        for stratum in self._plan.strata:
            body_predicates = {
                atom.predicate for rule in stratum.rules for atom in rule.body
            }
            incoming = {
                predicate: removed[predicate]
                for predicate in body_predicates
                if removed.get(predicate)
            }
            own_retractions = {
                predicate: seeds[predicate]
                for predicate in stratum.predicates
                if seeds.get(predicate)
            }
            if not incoming and not own_retractions:
                continue
            if stratum.recursive:
                self._dred_delete(stratum, incoming, own_retractions, removed, report)
            else:
                self._counting_delete(stratum, incoming, own_retractions, removed, report)
        report.derived_removed += sum(
            len(values)
            for predicate, values in removed.items()
            if predicate in self._stratified_predicates
        )

    def _counting_delete(
        self,
        stratum: Stratum,
        incoming: Dict[str, Set[Tuple]],
        own_retractions: Dict[str, Set[Tuple]],
        removed: Dict[str, Set[Tuple]],
        report: ApplyReport,
    ) -> None:
        """Counting maintenance: decrement lost derivations, drop zero-count facts.

        Lost firings are enumerated exactly once each via the delta
        decomposition: for the delta at original body position ``i``,
        positions before ``i`` read the new state (the live model, deletions
        below this stratum already applied) and positions after ``i`` read
        the old state (model plus everything removed so far).
        """
        model = self._model
        if incoming:
            report.rounds += 1
        lost = self._delta_firing_counts(stratum, incoming, _UnionSource(model, removed))
        # Settle the counters, then decide which facts actually leave.
        candidates: Dict[str, Set[Tuple]] = {
            predicate: set(tuples) for predicate, tuples in own_retractions.items()
        }
        for predicate, per_head in lost.items():
            counts = self._counts[predicate]
            bucket = candidates.setdefault(predicate, set())
            for values, count in per_head.items():
                key = self._count_key(values)
                remaining = counts.get(key, 0) - count
                self.maintenance.count_decrements += count
                if remaining > 0:
                    counts[key] = remaining
                else:
                    counts.pop(key, None)
                    bucket.add(values)
        for predicate, tuples in candidates.items():
            counts = self._counts[predicate]
            base = self._base.get(predicate, _EMPTY_SET)
            pinned = self._program_facts.get(predicate, _EMPTY_SET)
            leaving = {
                values
                for values in tuples
                if counts.get(self._count_key(values), 0) == 0
                and values not in base
                and values not in pinned
                and model.contains(predicate, values)
            }
            if leaving:
                model.remove_facts((predicate, values) for values in leaving)
                removed.setdefault(predicate, set()).update(leaving)

    def _dred_delete(
        self,
        stratum: Stratum,
        incoming: Dict[str, Set[Tuple]],
        own_retractions: Dict[str, Set[Tuple]],
        removed: Dict[str, Set[Tuple]],
        report: ApplyReport,
    ) -> None:
        """Delete-and-Rederive for one recursive stratum.

        Overdeletion finds every stratum fact with at least one derivation
        touching a deleted fact (evaluated against the *old* state, which is
        the live model plus everything removed so far — the stratum's own
        facts are still intact).  The overdeleted facts are removed, then
        rederivation restores those with an alternative proof: a goal-driven
        one-step check per overdeleted fact (the head is bound, so the body
        join is selective) seeds a semi-naive fixpoint over the reduced
        model, which reuses the compiled delta kernels unchanged.
        """
        model = self._model
        plan = self._plan
        old_state = _UnionSource(model, removed)
        over: Dict[str, Set[Tuple]] = {}
        delta: Dict[str, Set[Tuple]] = {
            predicate: set(tuples) for predicate, tuples in incoming.items()
        }
        for predicate, tuples in own_retractions.items():
            pinned = self._program_facts.get(predicate, _EMPTY_SET)
            candidates = {
                values
                for values in tuples
                if values not in pinned and model.contains(predicate, values)
            }
            if candidates:
                over.setdefault(predicate, set()).update(candidates)
                delta.setdefault(predicate, set()).update(candidates)
        while any(delta.values()):
            report.rounds += 1
            delta_database = Database.adopt(
                {predicate: set(tuples) for predicate, tuples in delta.items() if tuples}
            )
            delta_predicates = delta_database.predicates()
            next_over: Dict[str, Set[Tuple]] = {}
            for rule in stratum.rules:
                predicate = rule.head.predicate
                seen = over.setdefault(predicate, set())
                pinned_base = self._base.get(predicate, _EMPTY_SET)
                pinned_rules = self._program_facts.get(predicate, _EMPTY_SET)
                bucket = next_over.setdefault(predicate, set())

                def collect(values: Tuple) -> None:
                    # Only model facts can be overdeleted.  The guard also
                    # keeps the cascade sound in the signed path, where the
                    # model already holds this batch's insertions: a join of
                    # a new-state fact with an old-state deleted fact can
                    # produce a "phantom" head that existed in neither state,
                    # and recording it as removed would poison the signed
                    # tallies downstream.  A fact absent from the model was
                    # not in the old stratum extension either (nothing below
                    # removes stratum facts), so skipping it loses no real
                    # overdeletion candidates.
                    if (
                        values not in seen
                        and values not in bucket
                        and values not in pinned_base
                        and values not in pinned_rules
                        and model.contains(predicate, values)
                    ):
                        bucket.add(values)

                kernel = plan.kernel(rule) if self._compiled else None
                if kernel is not None:
                    for position in kernel.delta_positions:
                        if rule.body[position].predicate not in delta_predicates:
                            continue
                        kernel.execute_delta(
                            position, old_state, delta_database, collect
                        )
                else:
                    join_plan = plan.join_plan(rule)
                    for variant in join_plan.variants:
                        if rule.body[variant.position].predicate not in delta_predicates:
                            continue
                        for substitution in match_body(
                            rule.body,
                            old_state,
                            delta_position=variant.position,
                            delta_index=delta_database,
                            order=variant.order,
                        ):
                            collect(join_plan.head_values(substitution))
            for predicate, bucket in next_over.items():
                if bucket:
                    over[predicate].update(bucket)
            delta = next_over
        overdeleted_count = sum(len(tuples) for tuples in over.values())
        if not overdeleted_count:
            return
        report.overdeleted += overdeleted_count
        model.remove_facts(
            (predicate, values)
            for predicate, tuples in over.items()
            for values in tuples
        )
        # Rederivation: goal-driven one-step checks seed the delta fixpoint.
        rederived: Dict[str, Set[Tuple]] = {}
        delta = {}
        for predicate, tuples in over.items():
            for values in tuples:
                if self._derivable_one_step(predicate, values):
                    rederived.setdefault(predicate, set()).add(values)
                    delta.setdefault(predicate, set()).add(values)
        if delta:
            model.add_relations({p: set(t) for p, t in delta.items()})
        self._delta_fixpoint(
            stratum,
            delta,
            report,
            on_new=lambda predicate, bucket: rederived.setdefault(
                predicate, set()
            ).update(bucket),
        )
        rederived_count = sum(len(tuples) for tuples in rederived.values())
        report.rederived += rederived_count
        for predicate, tuples in over.items():
            net = tuples - rederived.get(predicate, set())
            if net:
                removed.setdefault(predicate, set()).update(net)

    def _delta_firing_counts(
        self,
        stratum: Stratum,
        incoming: Dict[str, Set[Tuple]],
        old_state,
    ) -> Dict[str, Dict[Tuple, int]]:
        """Per-head tallies of changed firings, each counted exactly once.

        The standard delta decomposition shared by counting insertion and
        deletion: for a delta at original body position ``i``, positions
        before ``i`` read the new state (the live model) and positions after
        ``i`` read *old_state* — so a firing touching several changed facts
        is tallied at a single position.  The direction (gained vs lost)
        lives entirely in which adapter the caller passes as *old_state*.
        """
        model = self._model
        tallies: Dict[str, Dict[Tuple, int]] = {}
        for rule in stratum.rules:
            join_plan = self._plan.join_plan(rule)
            body = rule.body
            for position, atom in enumerate(body):
                delta_set = incoming.get(atom.predicate)
                if not delta_set:
                    continue
                sources: List = [
                    model if other < position else old_state
                    for other in range(len(body))
                ]
                sources[position] = _SetSource(atom.predicate, delta_set)
                per_head = tallies.setdefault(rule.head.predicate, {})
                for substitution in match_body(
                    body,
                    None,
                    order=self._variant_order(join_plan, position),
                    sources=sources,
                ):
                    values = join_plan.head_values(substitution)
                    per_head[values] = per_head.get(values, 0) + 1
        return tallies

    def _variant_order(self, join_plan, position: int) -> Tuple[int, ...]:
        for variant in join_plan.variants:
            if variant.position == position:
                return variant.order
        return join_plan.order

    def _derivable_one_step(self, predicate: str, values: Tuple) -> bool:
        """Whether the current model proves the fact in one rule application."""
        if values in self._program_facts.get(predicate, _EMPTY_SET):
            return True
        for rule in self._rules_by_head.get(predicate, ()):
            initial = match_atom(rule.head, values)
            if initial is None:
                continue
            matches = match_body(
                rule.body, self._model, initial=initial, order=self._check_orders[rule]
            )
            if next(matches, None) is not None:
                return True
        return False

    # -- insertions -----------------------------------------------------
    def _apply_insertions(
        self, groups: Dict[str, Set[Tuple]], report: ApplyReport
    ) -> Dict[str, Set[Tuple]]:
        """Assert base facts; return the facts that actually entered the model."""
        model = self._model
        added: Dict[str, Set[Tuple]] = {}
        for predicate, tuples in groups.items():
            base = self._base.setdefault(predicate, set())
            fresh = tuples - base
            if not fresh:
                continue
            base.update(fresh)
            report.base_inserted += len(fresh)
            entering = {
                values for values in fresh if not model.contains(predicate, values)
            }
            if entering:
                model.add_relations({predicate: set(entering)})
                added[predicate] = entering
        return added

    def _propagate_insertions(
        self, added: Dict[str, Set[Tuple]], report: ApplyReport
    ) -> None:
        before = sum(len(tuples) for tuples in added.values())
        for stratum in self._plan.strata:
            body_predicates = {
                atom.predicate for rule in stratum.rules for atom in rule.body
            }
            incoming = {
                predicate: added[predicate]
                for predicate in body_predicates
                if added.get(predicate)
            }
            if not incoming:
                continue
            if stratum.recursive:
                self._recursive_insert(stratum, incoming, added, report)
            else:
                self._counting_insert(stratum, incoming, added, report)
        report.derived_added += (
            sum(len(tuples) for tuples in added.values()) - before
        )

    def _counting_insert(
        self,
        stratum: Stratum,
        incoming: Dict[str, Set[Tuple]],
        added: Dict[str, Set[Tuple]],
        report: ApplyReport,
    ) -> None:
        """Counting maintenance for insertions: increment new derivations.

        Mirror of :meth:`_counting_delete`: for the delta at body position
        ``i``, earlier positions read the new state (the live model — all
        additions so far are already in it) and later positions read the old
        state (model minus the added facts), so each gained firing is
        counted exactly once, at its last delta position.
        """
        model = self._model
        report.rounds += 1
        gained = self._delta_firing_counts(
            stratum, incoming, _ExcludeSource(model, added)
        )
        buckets: Dict[str, Set[Tuple]] = {}
        for predicate, per_head in gained.items():
            counts = self._counts[predicate]
            present = model.relation_view(predicate)
            bucket = buckets.setdefault(predicate, set())
            for values, count in per_head.items():
                key = self._count_key(values)
                counts[key] = counts.get(key, 0) + count
                self.maintenance.count_increments += count
                if values not in present and values not in bucket:
                    bucket.add(values)
        for predicate, bucket in buckets.items():
            if bucket:
                model.add_relations({predicate: set(bucket)})
                added.setdefault(predicate, set()).update(bucket)

    def _recursive_insert(
        self,
        stratum: Stratum,
        incoming: Dict[str, Set[Tuple]],
        added: Dict[str, Set[Tuple]],
        report: ApplyReport,
    ) -> None:
        """Semi-naive insertion for a recursive stratum.

        This is exactly the engines' delta fixpoint with the first delta
        seeded from the external insertions instead of an internal round —
        the compiled delta kernels run unchanged.
        """
        self._delta_fixpoint(
            stratum,
            {predicate: set(tuples) for predicate, tuples in incoming.items()},
            report,
            on_new=lambda predicate, bucket: added.setdefault(
                predicate, set()
            ).update(bucket),
        )

    def __repr__(self) -> str:
        return (
            f"MaterializedView(goal={self._program.goal}, "
            f"facts={self._model.fact_count()}, "
            f"applies={self.maintenance.applies})"
        )
