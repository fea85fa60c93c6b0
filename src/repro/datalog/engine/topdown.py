"""A memoizing (tabled) top-down evaluator.

The magic-set transformation (Section 7 and [5] in the paper) is usually
presented as a bottom-up simulation of top-down evaluation with memoing.
Having an actual top-down evaluator lets the benchmarks compare three ways
of answering a selection query:

* bottom-up over the original program (computes everything, then selects),
* bottom-up over the magic-transformed / monadic-rewritten program,
* top-down with tabling (only explores subqueries reachable from the goal).

The evaluator computes, for every *call pattern* (a predicate with some
argument positions bound to constants), the set of matching facts of the
minimum model.  Recursion is handled by iterating the whole computation to a
global fixpoint, which always terminates because tables only grow and are
bounded by the finite Herbrand base.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.datalog.atoms import Atom, NegatedAtom
from repro.datalog.database import Database
from repro.datalog.engine.base import (
    EvaluationResult,
    _apply_aggregate,
    candidate_tuples,
    is_aggregate_rule,
)
from repro.datalog.engine.options import EvalOptions
from repro.datalog.engine.stats import EvaluationStatistics
from repro.datalog.program import Program
from repro.datalog.terms import Aggregate, Constant, Variable
from repro.datalog.unify import Substitution, match_atom
from repro.errors import EvaluationError

Call = Tuple[str, Tuple[Optional[object], ...]]


def _call_of(atom: Atom, substitution: Substitution) -> Call:
    pattern: List[Optional[object]] = []
    for term in atom.terms:
        if isinstance(term, Constant):
            pattern.append(term.value)
        else:
            bound = substitution.get(term)
            pattern.append(bound.value if isinstance(bound, Constant) else None)
    return (atom.predicate, tuple(pattern))


def _matches_call(values: Tuple, call: Call) -> bool:
    return all(bound is None or bound == value for bound, value in zip(call[1], values))


class TopDownEvaluator:
    """Tabled top-down evaluation of a Datalog program."""

    def __init__(self, program: Program, database: Database, guard=None):
        program.validate()
        self.program = program
        self.database = database
        # Armed ExecutionGuard (or None): checkpointed at every outer
        # fixpoint round and at every rule-resolution step inside _solve,
        # so even a single monster iteration stays cancellable.  Tables are
        # evaluator-private — an abort discards them with the database
        # untouched.
        self.guard = guard
        self.statistics = EvaluationStatistics()
        self._idb = program.idb_predicates()
        self._tables: Dict[Call, Set[Tuple]] = {}
        self._changed = False
        # Full calls (all positions free) that have been run to their own
        # nested fixpoint.  Negated subgoals and aggregate-rule bodies read
        # only such *saturated* tables: tables here only ever grow, so a
        # complement or aggregate taken over a still-growing table could
        # persist facts that later turn false.  Stratification makes the
        # nested fixpoint sound — a saturated predicate sits in a strictly
        # lower stratum than every reader, so saturation never re-enters an
        # active call of the reader's stratum.
        self._saturated: Set[Call] = set()

    # ------------------------------------------------------------------
    def query(
        self, goal: Optional[Atom] = None, max_iterations: Optional[int] = None
    ) -> FrozenSet[Tuple]:
        """Answers to *goal* (defaults to the program goal), as full predicate tuples."""
        goal = goal if goal is not None else self.program.goal
        if goal is None:
            raise ValueError("no goal supplied and the program has none")
        root = _call_of(goal, {})
        start = self.statistics.iterations  # bound is per query, not per evaluator lifetime
        while True:
            self._changed = False
            self.statistics.iterations += 1
            if self.guard is not None:
                self.guard.checkpoint(self.statistics)
            if max_iterations is not None and self.statistics.iterations - start > max_iterations:
                raise EvaluationError(
                    f"top-down evaluation exceeded {max_iterations} iterations"
                )
            self._solve(root, set())
            if not self._changed:
                break
        return frozenset(self._tables.get(root, set()))

    def result(
        self, goal: Optional[Atom] = None, max_iterations: Optional[int] = None
    ) -> EvaluationResult:
        """Package the relevant part of the minimum model as an :class:`EvaluationResult`."""
        goal = goal if goal is not None else self.program.goal
        tuples = self.query(goal, max_iterations=max_iterations)
        idb_facts = Database()
        for call, answers in self._tables.items():
            for values in answers:
                idb_facts.add_fact(call[0], values)
        result_goal = goal
        program = self.program if self.program.goal == result_goal else self.program.with_goal(
            result_goal
        )
        del tuples
        return EvaluationResult(program, self.database, idb_facts, self.statistics)

    # ------------------------------------------------------------------
    def _solve(self, call: Call, active: Set[Call]) -> Set[Tuple]:
        table = self._tables.setdefault(call, set())
        if call in active:
            return table
        active = active | {call}
        predicate = call[0]
        # Database facts of an IDB predicate are part of B and belong to the
        # minimum model M(B, H) exactly like rule derivations (the bottom-up
        # engines start from a copy of the database); seed the call's table
        # with the matching ones before resolving rules.
        arity = len(call[1])
        for values in self.database.relation(predicate):
            if (
                len(values) == arity
                and values not in table
                and _matches_call(values, call)
            ):
                table.add(values)
                self._changed = True
        for rule in self.program.rules_for(predicate):
            if self.guard is not None:
                self.guard.checkpoint(self.statistics)
            renamed = rule.rename_variables("__td")
            head_binding: Substitution = {}
            consistent = True
            for term, bound in zip(renamed.head.terms, call[1]):
                if bound is None:
                    continue
                if isinstance(term, Aggregate):
                    # A bound aggregate position constrains the aggregate's
                    # *result*; groups are computed in full and filtered
                    # against the call pattern afterwards.
                    continue
                if isinstance(term, Constant):
                    if term.value != bound:
                        consistent = False
                        break
                else:
                    existing = head_binding.get(term)
                    if existing is not None and existing != Constant(bound):
                        consistent = False
                        break
                    head_binding[term] = Constant(bound)
            if not consistent:
                continue
            if is_aggregate_rule(renamed):
                self._solve_aggregate(renamed, call, table, head_binding)
                continue
            # Negated literals run as ground complement checks, so they are
            # deferred behind the positive atoms (safety then guarantees
            # their variables are bound when reached); the reorder is
            # deterministic, keeping the statistics reproducible.
            body = tuple(
                atom for atom in renamed.body if not isinstance(atom, NegatedAtom)
            ) + tuple(atom for atom in renamed.body if isinstance(atom, NegatedAtom))
            for substitution in self._solve_body(body, 0, head_binding, active):
                self.statistics.record_firing()
                head = renamed.head.substitute(substitution)
                if not head.is_ground():
                    continue
                values = head.as_fact_tuple()
                is_new = values not in table
                self.statistics.record_fact(predicate, is_new)
                if is_new:
                    table.add(values)
                    self._changed = True
        return table

    def _saturate(self, predicate: str, arity: int) -> Set[Tuple]:
        """The fully-closed table of *predicate* (nested fixpoint, memoized)."""
        call: Call = (predicate, (None,) * arity)
        if call in self._saturated:
            return self._tables.setdefault(call, set())
        outer_changed = self._changed
        while True:
            self._changed = False
            self._solve(call, set())
            if not self._changed:
                break
            outer_changed = True
        self._changed = outer_changed
        self._saturated.add(call)
        return self._tables.setdefault(call, set())

    def _negation_passes(self, atom: Atom, substitution: Substitution) -> bool:
        """Ground complement check for a negated literal (must be fully bound)."""
        values: List[object] = []
        for term in atom.terms:
            if isinstance(term, Constant):
                values.append(term.value)
            else:
                bound = substitution.get(term)
                if not isinstance(bound, Constant):
                    raise EvaluationError(
                        f"negated literal {atom} reached with {term} unbound"
                    )
                values.append(bound.value)
        ground = tuple(values)
        if atom.predicate in self._idb:
            if ground in self._saturate(atom.predicate, len(atom.terms)):
                return False
            # Saturated tables are seeded from the database too, so the
            # EDB-side check below is only needed for pure-EDB predicates —
            # but it is harmless and keeps the two branches symmetric.
        return not self.database.contains(atom.predicate, ground)

    def _solve_aggregate(
        self, rule, call: Call, table: Set[Tuple], head_binding: Substitution
    ) -> None:
        """Fire one aggregate rule for *call*, reading only saturated tables.

        Stratification puts the whole body strictly below the head, so the
        groups computed here are final.  Grouping is by the non-aggregate
        head positions (pre-bound positions restrict to those groups, which
        is sound — groups are independent); the aggregate is taken over the
        distinct bindings of the aggregated variable, and a bound aggregate
        position filters the finished group results.
        """
        predicate = call[0]
        agg_position = next(
            position
            for position, term in enumerate(rule.head.terms)
            if isinstance(term, Aggregate)
        )
        aggregate: Aggregate = rule.head.terms[agg_position]
        key_spec = tuple(
            term
            for position, term in enumerate(rule.head.terms)
            if position != agg_position
        )
        body = tuple(
            atom for atom in rule.body if not isinstance(atom, NegatedAtom)
        ) + tuple(atom for atom in rule.body if isinstance(atom, NegatedAtom))
        groups: Dict[Tuple, Set] = {}
        for substitution in self._solve_body(body, 0, head_binding, set(), closed=True):
            self.statistics.record_firing()
            key = tuple(
                substitution[term].value if isinstance(term, Variable) else term.value
                for term in key_spec
            )
            groups.setdefault(key, set()).add(substitution[aggregate.variable].value)
        for key in sorted(groups, key=repr):
            result = _apply_aggregate(aggregate.op, groups[key])
            values = key[:agg_position] + (result,) + key[agg_position:]
            if not _matches_call(values, call):
                continue
            is_new = values not in table
            self.statistics.record_fact(predicate, is_new)
            if is_new:
                table.add(values)
                self._changed = True

    def _solve_body(
        self,
        body: Tuple[Atom, ...],
        position: int,
        substitution: Substitution,
        active: Set[Call],
        closed: bool = False,
    ):
        if position == len(body):
            yield substitution
            return
        atom = body[position]
        if isinstance(atom, NegatedAtom):
            if self._negation_passes(atom, substitution):
                yield from self._solve_body(body, position + 1, substitution, active, closed)
            return
        # Both branches iterate in sorted order so the resolution trace —
        # and with it the firing/duplicate counters — depends only on the
        # program, goal, and fact *content*.  Raw set/index order varies
        # with hash-table layout, which `Database.copy()` does not preserve
        # (a copied set may re-chain collisions), so an unsorted walk makes
        # statistics differ between a database and its own copy.
        if atom.predicate in self._idb:
            if closed:
                # Aggregate-rule bodies read only saturated tables — the
                # aggregate must be a function of the final extension.
                answers = sorted(
                    self._saturate(atom.predicate, len(atom.terms)), key=repr
                )
            else:
                call = _call_of(atom, substitution)
                answers = sorted(self._solve(call, active), key=repr)
            for values in answers:
                extended = match_atom(atom, values, substitution)
                if extended is not None:
                    yield from self._solve_body(body, position + 1, extended, active, closed)
        else:
            for values in sorted(
                candidate_tuples(atom, self.database, substitution), key=repr
            ):
                extended = match_atom(atom, values, substitution)
                if extended is not None:
                    yield from self._solve_body(body, position + 1, extended, active, closed)


#: The option fields :func:`_evaluate` reads.
ACCEPTS = frozenset({"max_iterations", "guard"})


def _evaluate(program: Program, database: Database, options: EvalOptions = EvalOptions()):
    """Build an evaluator, run the goal, return the result (registry entry point)."""
    evaluator = TopDownEvaluator(program, database, guard=options.guard)
    return evaluator.result(max_iterations=options.max_iterations)
