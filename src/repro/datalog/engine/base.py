"""Shared machinery for the bottom-up evaluation engines.

This module provides:

* :class:`EvaluationResult` — the minimum model restricted to IDB predicates,
  the full model, the goal answers, and the evaluation statistics;
* body matching (:func:`match_body`) against the database's persistent hash
  indexes (:meth:`repro.datalog.database.Database.probe`), so the engines stay
  far from quadratic behaviour on the benchmark workloads without rebuilding
  indexes at every fixpoint iteration;
* the shared per-rule evaluators :func:`fire_rule` / :func:`fire_rule_delta`,
  which dispatch each rule to its compiled slot kernel
  (:mod:`repro.datalog.engine.executor`) or to the interpreted
  :func:`match_body` fallback, with identical duplicate accounting on both
  paths;
* :func:`select_answers` — the selection described by the goal atom
  (Section 2.1: the output is obtained by performing the selections described
  by the goal on the interpretation of its predicate).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.datalog.atoms import Atom, NegatedAtom
from repro.datalog.database import Database
from repro.datalog.engine.stats import EvaluationStatistics
from repro.datalog.program import Program
from repro.datalog.rules import Rule
from repro.datalog.terms import Aggregate, Constant, Parameter, Variable
from repro.datalog.unify import Substitution, match_atom
from repro.errors import EvaluationError


def candidate_tuples(atom: Atom, index, substitution: Substitution) -> Iterable[Tuple]:
    """Tuples worth matching against *atom* given the bindings accumulated so far.

    *index* is anything exposing the :class:`Database` probe interface —
    normally the database itself.
    """
    best: Optional[Tuple[int, object]] = None
    for position, term in enumerate(atom.terms):
        if isinstance(term, Constant):
            best = (position, term.value)
            break
        bound = substitution.get(term)
        if isinstance(bound, Constant):
            best = (position, bound.value)
            break
    if best is None:
        return index.relation(atom.predicate)
    position, value = best
    return index.probe(atom.predicate, position, value)


def match_body(
    body: Tuple[Atom, ...],
    index,
    initial: Optional[Substitution] = None,
    delta_position: Optional[int] = None,
    delta_index=None,
    order: Optional[Sequence[int]] = None,
    sources: Optional[Sequence] = None,
    positive_positions: Optional[frozenset] = None,
) -> Iterator[Substitution]:
    """Enumerate substitutions that satisfy *body* against the indexed database.

    *index* (and *delta_index*) are databases — or any object exposing
    ``relation``/``probe``.  When ``delta_position`` is given, the atom at
    that position is matched against ``delta_index`` (the per-iteration
    delta) instead of the full database — the standard semi-naive
    specialisation.  *sources*, when given, generalises that to a fully
    per-position assignment: one ``relation``/``probe`` object per original
    body position (*index*/``delta_*`` are then ignored) — incremental
    counting maintenance joins three states (delta / new / old) in one body
    this way.

    *order*, when given, lists original body positions in the sequence the
    join should execute them (a :class:`~repro.datalog.engine.planner.JoinPlan`
    order).  ``delta_position`` always refers to the *original* body
    position, whatever the execution order.  Reordering never changes the
    set of substitutions produced — conjunction is commutative — only the
    work done to enumerate them.

    A :class:`~repro.datalog.atoms.NegatedAtom` is checked as an anti-join:
    once its variables are bound, the step passes iff the ground tuple is
    *absent* from its source (the complement of a relation closed in a
    lower stratum).  Without an explicit *order*, negated literals are
    deferred behind the positive atoms so safety guarantees they run fully
    bound.  ``positive_positions`` (and the delta position) name original
    body positions matched positively even when negated — incremental
    maintenance enumerates signed deltas *at* negated positions that way.
    """
    if order is not None:
        positions = tuple(order)
    else:
        positions = tuple(
            position
            for position, atom in enumerate(body)
            if not isinstance(atom, NegatedAtom)
        ) + tuple(
            position
            for position, atom in enumerate(body)
            if isinstance(atom, NegatedAtom)
        )
    if sources is not None:
        sequence = tuple((position, body[position], sources[position]) for position in positions)
    else:
        sequence = tuple(
            (
                position,
                body[position],
                delta_index
                if (delta_index is not None and position == delta_position)
                else index,
            )
            for position in positions
        )

    def extend(step: int, substitution: Substitution) -> Iterator[Substitution]:
        if step == len(sequence):
            yield substitution
            return
        position, atom, source = sequence[step]
        if isinstance(atom, NegatedAtom) and not (
            position == delta_position
            or (positive_positions is not None and position in positive_positions)
        ):
            values = []
            for term in atom.terms:
                if isinstance(term, Constant):
                    values.append(term.value)
                else:
                    bound = substitution.get(term)
                    if not isinstance(bound, Constant):
                        raise EvaluationError(
                            f"negated literal {atom} reached with {term} unbound; "
                            "the join order must bind every negated variable first"
                        )
                    values.append(bound.value)
            if not source.contains(atom.predicate, tuple(values)):
                yield from extend(step + 1, substitution)
            return
        for values in candidate_tuples(atom, source, substitution):
            extended = match_atom(atom, values, substitution)
            if extended is not None:
                yield from extend(step + 1, extended)

    yield from extend(0, dict(initial) if initial else {})


def fire_rule(plan, rule: Rule, working, bucket, statistics, compiled: bool = True) -> None:
    """Run one rule over the full model, adding fresh head tuples to *bucket*.

    The single rule evaluator shared by both bottom-up engines' full-model
    rounds: the compiled slot kernel when the plan has one (and *compiled*
    is set), the interpreted :func:`match_body` path otherwise.  The caller
    must not mutate *working* while a round is firing (both engines stage
    additions in buckets) — that is what makes deduping against the live
    :meth:`~repro.datalog.database.Database.relation_view` sound, and it
    must hold identically on both paths so they produce the same statistics.
    """
    predicate = rule.head.predicate
    kernel = plan.kernel(rule) if compiled else None
    if kernel is not None:
        before = len(bucket)
        firings = kernel.execute_static(working, bucket.add, working.relation_view(predicate))
        statistics.record_batch(predicate, firings, len(bucket) - before)
    else:
        join_plan = plan.join_plan(rule)
        for substitution in match_body(rule.body, working, order=join_plan.order):
            statistics.record_firing()
            values = join_plan.head_values(substitution)
            is_new = not working.contains(predicate, values) and values not in bucket
            statistics.record_fact(predicate, is_new)
            if is_new:
                bucket.add(values)


def fire_rule_delta(
    plan,
    rule: Rule,
    working,
    delta,
    delta_predicates,
    bucket,
    statistics,
    compiled: bool = True,
) -> None:
    """Run one rule's delta variants (the semi-naive round form of :func:`fire_rule`).

    Each body position whose predicate occurs in *delta_predicates* is
    matched against *delta* instead of the full model, via the compiled
    delta kernel or the interpreted variant order.
    """
    predicate = rule.head.predicate
    kernel = plan.kernel(rule) if compiled else None
    if kernel is not None:
        existing = working.relation_view(predicate)
        for position in kernel.delta_positions:
            if rule.body[position].predicate not in delta_predicates:
                continue
            before = len(bucket)
            firings = kernel.execute_delta(position, working, delta, bucket.add, existing)
            statistics.record_batch(predicate, firings, len(bucket) - before)
    else:
        join_plan = plan.join_plan(rule)
        for variant in join_plan.variants:
            if rule.body[variant.position].predicate not in delta_predicates:
                continue
            for substitution in match_body(
                rule.body,
                working,
                delta_position=variant.position,
                delta_index=delta,
                order=variant.order,
            ):
                statistics.record_firing()
                values = join_plan.head_values(substitution)
                is_new = not working.contains(predicate, values) and values not in bucket
                statistics.record_fact(predicate, is_new)
                if is_new:
                    bucket.add(values)


def is_aggregate_rule(rule: Rule) -> bool:
    """True if the rule's head contains an aggregate term."""
    return any(isinstance(term, Aggregate) for term in rule.head.terms)


def split_aggregate_rules(rules: Iterable[Rule]) -> Tuple[Tuple[Rule, ...], Tuple[Rule, ...]]:
    """Split rules into (plain, aggregate) — aggregates fire at stratum close."""
    plain = tuple(rule for rule in rules if not is_aggregate_rule(rule))
    aggregate = tuple(rule for rule in rules if is_aggregate_rule(rule))
    return plain, aggregate


def _apply_aggregate(op: str, values: FrozenSet) -> object:
    """Apply one aggregate operator to a group's distinct value set."""
    if op == "count":
        return len(values)
    try:
        if op == "sum":
            return sum(values)
        if op == "min":
            return min(values)
        return max(values)
    except TypeError as exc:
        raise EvaluationError(
            f"aggregate {op} over incompatible values "
            f"{sorted(values, key=repr)!r}: {exc}"
        ) from exc


def fire_aggregate_rule(
    plan, rule: Rule, working, bucket, statistics, compiled: bool = True
) -> None:
    """Run one aggregate rule against its fully-closed body relations.

    Stratification guarantees every body predicate is closed when this
    runs (aggregate-rule body edges are negative dependency edges), so the
    rule fires exactly once per stratum — on the stratum's first pass, in
    both bottom-up engines, via this one routine, which is what keeps the
    statistics identical across engines.  The body runs through the
    rule's aggregate kernel (head: group key, then the aggregated value)
    when the plan has one and *compiled* is set, through the interpreted
    :func:`match_body` otherwise.

    Grouping is by the non-aggregate head positions; the aggregate is
    computed over the *distinct* bindings of the aggregated variable per
    group, so the result depends only on the minimum model — not on join
    order, duplicates, or engine choice.
    """
    predicate = rule.head.predicate
    agg_position = next(
        position
        for position, term in enumerate(rule.head.terms)
        if isinstance(term, Aggregate)
    )
    aggregate: Aggregate = rule.head.terms[agg_position]
    groups: Dict[Tuple, set] = {}
    kernel = plan.aggregate_kernel(rule) if compiled else None
    if kernel is not None:
        # set.add drops repeated (key, value) firings at C speed; only the
        # distinct ones are grouped.
        distinct: set = set()
        statistics.rule_firings += kernel.execute_static(working, distinct.add)
        for values in distinct:
            groups.setdefault(values[:-1], set()).add(values[-1])
    else:
        join_plan = plan.join_plan(rule)
        key_spec = tuple(
            (term, None) if isinstance(term, Variable) else (None, getattr(term, "value", None))
            for position, term in enumerate(rule.head.terms)
            if position != agg_position
        )
        for substitution in match_body(rule.body, working, order=join_plan.order):
            statistics.record_firing()
            key = tuple(
                substitution[variable].value if variable is not None else constant
                for variable, constant in key_spec
            )
            groups.setdefault(key, set()).add(substitution[aggregate.variable].value)
    for key, group_values in groups.items():
        result = _apply_aggregate(aggregate.op, group_values)
        values = key[:agg_position] + (result,) + key[agg_position:]
        is_new = not working.contains(predicate, values) and values not in bucket
        statistics.record_fact(predicate, is_new)
        if is_new:
            bucket.add(values)


def select_answers(goal: Atom, tuples: Iterable[Tuple]) -> FrozenSet[Tuple]:
    """Apply the selection described by *goal* to the tuples of its predicate.

    The output arity equals the number of distinct variables in the goal
    (Section 2.1); constants filter, repeated variables force equality, and
    a goal with no variables denotes a boolean query whose positive answer
    is the set containing the empty tuple.
    """
    # Compile the goal's selection once: constant filters, repeated-variable
    # equality pairs, and projection positions are all fixed by the goal, so
    # the per-tuple loop below is pure tuple indexing — no bindings dict.
    positions: List[int] = []
    seen: Dict[Variable, int] = {}
    constant_checks: List[Tuple[int, object]] = []
    equality_checks: List[Tuple[int, int]] = []
    for position, term in enumerate(goal.terms):
        if isinstance(term, Parameter):
            raise EvaluationError(
                f"goal {goal} has unbound parameter ${term.name}; bind it first "
                "(PreparedQuery.bind / DatalogService.execute)"
            )
        if isinstance(term, Constant):
            constant_checks.append((position, term.value))
        elif term in seen:
            equality_checks.append((position, seen[term]))
        else:
            seen[term] = position
            positions.append(position)

    arity = len(goal.terms)
    answers = set()
    for values in tuples:
        if len(values) != arity:
            continue
        ok = True
        for position, expected in constant_checks:
            if values[position] != expected:
                ok = False
                break
        if ok:
            for position, first in equality_checks:
                if values[position] != values[first]:
                    ok = False
                    break
        if ok:
            answers.add(tuple(values[p] for p in positions))
    return frozenset(answers)


@dataclass
class EvaluationResult:
    """Outcome of evaluating a program over a database."""

    program: Program
    input_database: Database
    idb_facts: Database
    statistics: EvaluationStatistics

    def full_model(self) -> Database:
        """The minimum model ``M(B, H)``: input facts plus derived facts."""
        model = self.input_database.copy()
        model.update(self.idb_facts)
        return model

    def relation(self, predicate: str) -> FrozenSet[Tuple]:
        """The derived relation for an IDB predicate."""
        return self.idb_facts.relation(predicate)

    def answers(self, goal: Optional[Atom] = None) -> FrozenSet[Tuple]:
        """The answers to the goal (defaults to the program's goal)."""
        goal = goal if goal is not None else self.program.goal
        if goal is None:
            raise ValueError("no goal supplied and the program has none")
        relation = self.idb_facts.relation(goal.predicate)
        if not relation and goal.predicate in self.input_database.predicates():
            relation = self.input_database.relation(goal.predicate)
        return select_answers(goal, relation)

    def boolean_answer(self, goal: Optional[Atom] = None) -> bool:
        """For goals without variables: whether the query is true."""
        return bool(self.answers(goal))


def split_rules(program: Program) -> Tuple[Tuple[Rule, ...], Tuple[Rule, ...]]:
    """Split a program's rules into ground facts and proper rules.

    Ground fact rules (empty body, ground head) are loaded directly into the
    database before fixpoint iteration begins; rules with empty bodies and
    variables in the head are rejected by safety checking earlier.
    """
    facts = tuple(rule for rule in program.rules if rule.is_fact())
    proper = tuple(rule for rule in program.rules if not rule.is_fact())
    return facts, proper
