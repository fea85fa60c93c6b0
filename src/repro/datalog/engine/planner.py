"""Cost-guided join planning and SCC stratification for the bottom-up engines.

The paper's rewrites (magic sets, Theorem 3.3's monadic rewrite) shrink the
set of *facts* an evaluation has to derive; this module makes sure the
evaluator does not squander those savings on the *joins* it performs to
derive them.  Two classic, rewrite-compatible optimisations live here:

**Join planning.**  For each rule a :class:`JoinPlan` fixes the order in
which body atoms are matched.  The order is chosen greedily: always prefer
an atom that can be answered by an index probe — one with a constant
argument or a variable already bound by earlier atoms (served by
:meth:`repro.datalog.database.Database.probe`) — and among equally
probeable atoms take the one over the smallest relation
(:meth:`repro.datalog.database.Database.cardinality`).  For semi-naive
evaluation every plan also carries *delta variants*: one per recursive body
atom, with the delta atom moved to the front (the per-iteration delta is
the smallest relation in sight) and the rest re-ordered under the bindings
the delta atom provides.

**SCC stratification.**  A :class:`ProgramPlan` groups the program's rules
into :class:`Stratum` objects — the strongly connected components of the
predicate dependency graph (:mod:`repro.datalog.analysis`), in bottom-up
topological order.  Each stratum reaches its own fixpoint before the next
one starts, so non-recursive strata are evaluated in exactly one pass and a
chain program's long dependency chain costs O(rules) rule scans instead of
O(strata × rules).

Plans are compiled once per evaluation from the EDB's cardinalities;
:class:`Planner` additionally memoises them per ``(program, database,
version)`` so a :class:`~repro.datalog.session.QuerySession` re-running the
same query (e.g. inside a benchmark loop) pays for planning once.  Each
plan also carries the compiled slot-based kernels the bottom-up engines
execute (:mod:`repro.datalog.engine.executor`), so kernel compilation is
amortised exactly like planning — once per binding pattern for a prepared
query.  ``ProgramPlan.describe()`` is the ``EXPLAIN`` surface printed by
``repro evaluate --explain``.
"""

from __future__ import annotations

import threading
import weakref
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.datalog.analysis import dependency_graph, negative_dependency_edges
from repro.datalog.atoms import Atom, NegatedAtom
from repro.datalog.database import Database
from repro.datalog.program import Program
from repro.datalog.rules import Rule
from repro.datalog.terms import Aggregate, Constant, Parameter, Variable


@dataclass(frozen=True)
class AtomStep:
    """One step of a join plan: match *atom* (at original body *position*).

    ``access`` is the access path predicted at plan time: ``"probe"`` when
    the atom has a constant or an already-bound variable (so the database's
    hash index applies), ``"scan"`` for a full-relation scan, ``"delta"``
    when the atom is matched against the per-iteration delta, ``"anti"``
    for a negated literal checked as an anti-join (a membership test
    against the closed lower-stratum relation).  ``estimate`` is the
    relation cardinality the choice was based on.
    """

    position: int
    atom: Atom
    access: str
    probe_hint: Optional[str]
    estimate: int

    def describe(self) -> str:
        if self.access == "delta":
            return f"{self.atom} [delta]"
        if self.access == "anti":
            return f"{self.atom} [anti-join {self.atom.predicate}, ~{self.estimate} rows]"
        if self.access == "probe":
            return f"{self.atom} [probe {self.probe_hint}, ~{self.estimate} rows]"
        return f"{self.atom} [scan {self.atom.predicate}, ~{self.estimate} rows]"


@dataclass(frozen=True)
class DeltaVariant:
    """A delta-specialised ordering: the atom at *position* reads the delta."""

    position: int
    order: Tuple[int, ...]
    steps: Tuple[AtomStep, ...]

    def describe(self) -> str:
        chain = " -> ".join(step.describe() for step in self.steps)
        return f"delta on {self.steps[0].atom}: {chain}"


@dataclass(frozen=True)
class JoinPlan:
    """The compiled evaluation order for one rule's body.

    ``order`` lists original body positions in execution order; the engines
    hand it to :func:`repro.datalog.engine.base.match_body`.  ``variants``
    holds one :class:`DeltaVariant` per body position that can receive
    semi-naive deltas (atoms whose predicate is in the head's stratum).
    ``head_spec`` precompiles head-tuple extraction — one ``(variable,
    constant)`` pair per head argument — so engines build a derived fact's
    value tuple straight from the substitution without instantiating an
    :class:`~repro.datalog.atoms.Atom` per firing.
    """

    rule: Rule
    order: Tuple[int, ...]
    steps: Tuple[AtomStep, ...]
    variants: Tuple[DeltaVariant, ...]
    head_spec: Tuple[Tuple[Optional[Variable], object], ...] = ()

    def head_values(self, substitution) -> Tuple:
        """The head fact's value tuple under *substitution* (must bind all head vars)."""
        return tuple(
            substitution[variable].value if variable is not None else constant
            for variable, constant in self.head_spec
        )

    def describe(self) -> str:
        lines = [f"{self.rule}"]
        if self.order:
            chain = " -> ".join(step.describe() for step in self.steps)
            lines.append(f"  order: {chain}")
        for variant in self.variants:
            lines.append(f"  {variant.describe()}")
        return "\n".join(lines)


@dataclass(frozen=True)
class Stratum:
    """One strongly connected component of IDB predicates, with its rules.

    ``depth`` is the stratum's topological depth in the condensation DAG:
    0 for strata that read only EDB relations, else one more than the
    deepest stratum any body atom depends on.  Strata sharing a depth have
    no dependency edges between them (an edge would order them), which is
    what licenses evaluating them concurrently — see
    :mod:`repro.datalog.engine.parallel`.
    """

    index: int
    predicates: FrozenSet[str]
    rules: Tuple[Rule, ...]
    recursive: bool
    depth: int = 0

    @property
    def label(self) -> str:
        """Stable display name: the member predicates, sorted."""
        return ",".join(sorted(self.predicates))


@dataclass
class ProgramPlan:
    """Strata, per-rule join plans, and compiled kernels for one (program, database) pair."""

    program: Program
    strata: Tuple[Stratum, ...]
    plans: Dict[Rule, JoinPlan] = field(default_factory=dict)
    # rule -> compiled slot-based kernel, or None when the rule cannot be
    # lowered (see repro.datalog.engine.executor.compile_rule_kernel); the
    # engines fall back to interpreted match_body for None entries.
    kernels: Dict[Rule, object] = field(default_factory=dict)
    # aggregate rule -> the kernel of its *body* (executor.
    # compile_aggregate_kernel); such a rule's `kernels` entry stays None,
    # which is what keeps the columnar lanes off programs with aggregates.
    aggregate_kernels: Dict[Rule, object] = field(default_factory=dict)

    def join_plan(self, rule: Rule) -> JoinPlan:
        """The compiled plan for *rule* (every proper rule has one)."""
        return self.plans[rule]

    def kernel(self, rule: Rule):
        """The compiled :class:`~repro.datalog.engine.executor.RuleKernel`, or ``None``."""
        return self.kernels.get(rule)

    def aggregate_kernel(self, rule: Rule):
        """The body kernel of an aggregate rule, or ``None``."""
        return self.aggregate_kernels.get(rule)

    def describe(self) -> str:
        """Human-readable EXPLAIN output: strata, join orders, compiled kernels."""
        rule_count = sum(len(stratum.rules) for stratum in self.strata)
        negative = negative_dependency_edges(self.program)
        lines = [f"join plan: {len(self.strata)} strata, {rule_count} rules"]
        for stratum in self.strata:
            kind = "recursive" if stratum.recursive else "single pass"
            # Depth 0 keeps the historical line shape; deeper strata show
            # where they sit in the condensation DAG (same-depth strata are
            # the ones a parallel run may evaluate concurrently).
            if stratum.depth:
                kind = f"{kind}, depth {stratum.depth}"
            lines.append(f"stratum {stratum.index + 1}: {stratum.label} [{kind}]")
            for (source, target), reason in sorted(negative.items()):
                if source in stratum.predicates:
                    lines.append(
                        f"  negative edge: {source} -> {target} [{reason}; "
                        f"{target} closed in a lower stratum]"
                    )
            for rule in stratum.rules:
                plan = self.plans[rule]
                for line in plan.describe().splitlines():
                    lines.append("  " + line)
                kernel = self.kernels.get(rule)
                if kernel is None:
                    lines.append("    kernel: none (interpreted match_body path)")
                else:
                    for line in kernel.describe().splitlines():
                        lines.append("    " + line)
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Ordering heuristic
# ----------------------------------------------------------------------
def _probe_position(atom: Atom, bound: Set[Variable]) -> Optional[int]:
    """The position :func:`candidate_tuples` will probe under *bound*, if any.

    Mirrors its search exactly: the first argument (in term order) that is a
    constant or an already-bound variable is the probe column.  Parameter
    slots count as bound — the concrete constant arrives at execution time,
    but the access path (index probe on that position) is fixed now, which
    is what lets a prepared query reuse one plan for every binding.
    """
    for position, term in enumerate(atom.terms):
        if isinstance(term, (Constant, Parameter)):
            return position
        if isinstance(term, Variable) and term in bound:
            return position
    return None


def _probe_hint(atom: Atom, bound: Set[Variable]) -> Optional[str]:
    """Human-readable probe description for EXPLAIN output, if probeable."""
    position = _probe_position(atom, bound)
    if position is None:
        return None
    term = atom.terms[position]
    if isinstance(term, Constant):
        return f"{atom.predicate}[{position}]={term.value}"
    if isinstance(term, Parameter):
        return f"{atom.predicate}[{position}]=${term.name}"
    return f"{atom.predicate}[{position}]={term.name}"


def _probe_estimate(
    atom: Atom,
    position: Optional[int],
    cardinality: int,
    column_stats: Optional[Dict[str, Dict[int, int]]],
) -> int:
    """Expected rows per probe hit: cardinality over the column's distincts.

    Without column statistics (tuple layout, or an IDB relation that has no
    columns yet) the estimate stays the whole-relation cardinality — the
    pre-columnar behaviour.
    """
    if position is None or not column_stats:
        return cardinality
    distinct = column_stats.get(atom.predicate, {}).get(position, 0)
    if distinct <= 0:
        return cardinality
    return max(1, cardinality // distinct)


def order_body(
    body: Sequence[Atom],
    estimates: Dict[str, int],
    bound: Optional[Set[Variable]] = None,
    first: Optional[int] = None,
    column_stats: Optional[Dict[str, Dict[int, int]]] = None,
) -> Tuple[int, ...]:
    """Greedy join order over *body*: probeable atoms first, smallest next.

    At every step the next atom is the one minimising
    ``(not probeable, row estimate, unbound variable count, original
    position)`` given the variables bound so far; *first* pins an atom to
    the front (the semi-naive delta atom).  The row estimate is the
    relation cardinality, refined for probeable atoms by *column_stats*
    (per-position distinct counts from a columnar-layout database) to the
    expected rows per probe hit.  Returns original body positions in
    execution order.
    """
    bound_vars: Set[Variable] = set(bound) if bound else set()
    order: List[int] = []
    remaining = list(range(len(body)))
    if first is not None:
        remaining.remove(first)
        order.append(first)
        bound_vars.update(body[first].variables())

    while remaining:

        def cost(position: int) -> Tuple[int, int, int, int]:
            atom = body[position]
            unbound = sum(1 for v in atom.variables() if v not in bound_vars)
            if isinstance(atom, NegatedAtom):
                # A fully-bound negated literal is a free filter — run it as
                # soon as possible (tier 0, below any positive estimate).  An
                # unbound one goes to tier 2: never before the positives, so
                # by safety every anti step executes fully bound.
                if unbound == 0:
                    return (0, -1, 0, position)
                return (2, estimates.get(atom.predicate, 0), unbound, position)
            probe_position = _probe_position(atom, bound_vars)
            cardinality = estimates.get(atom.predicate, 0)
            estimate = _probe_estimate(atom, probe_position, cardinality, column_stats)
            return (
                0 if probe_position is not None else 1,
                estimate,
                unbound,
                position,
            )

        best = min(remaining, key=cost)
        remaining.remove(best)
        order.append(best)
        bound_vars.update(body[best].variables())
    return tuple(order)


def _steps_for(
    body: Sequence[Atom],
    order: Tuple[int, ...],
    estimates: Dict[str, int],
    delta_position: Optional[int] = None,
    column_stats: Optional[Dict[str, Dict[int, int]]] = None,
) -> Tuple[AtomStep, ...]:
    """Annotate an ordering with the access path each step will use."""
    bound: Set[Variable] = set()
    steps: List[AtomStep] = []
    for position in order:
        atom = body[position]
        estimate = estimates.get(atom.predicate, 0)
        if position == delta_position:
            steps.append(AtomStep(position, atom, "delta", None, estimate))
        elif isinstance(atom, NegatedAtom):
            steps.append(AtomStep(position, atom, "anti", None, estimate))
        else:
            probe_position = _probe_position(atom, bound)
            hint = _probe_hint(atom, bound)
            access = "probe" if hint is not None else "scan"
            estimate = _probe_estimate(atom, probe_position, estimate, column_stats)
            steps.append(AtomStep(position, atom, access, hint, estimate))
        bound.update(atom.variables())
    return tuple(steps)


def plan_rule(
    rule: Rule,
    initial_estimates: Dict[str, int],
    steady_estimates: Optional[Dict[str, int]] = None,
    delta_predicates: FrozenSet[str] = frozenset(),
    column_stats: Optional[Dict[str, Dict[int, int]]] = None,
) -> JoinPlan:
    """Compile the :class:`JoinPlan` for one rule.

    *delta_predicates* are the predicates of the rule's own stratum: every
    body occurrence of one gets a delta-specialised variant with that atom
    moved to the front.  The static order is chosen under
    *initial_estimates* (same-stratum relations are near-empty when the
    stratum's first pass runs); the delta variants under *steady_estimates*
    (mid-fixpoint, when those relations have grown).
    """
    if steady_estimates is None:
        steady_estimates = initial_estimates
    order = order_body(rule.body, initial_estimates, column_stats=column_stats)
    steps = _steps_for(rule.body, order, initial_estimates, column_stats=column_stats)
    variants = []
    for position, atom in enumerate(rule.body):
        if atom.predicate in delta_predicates:
            variant_order = order_body(
                rule.body, steady_estimates, first=position, column_stats=column_stats
            )
            variant_steps = _steps_for(
                rule.body, variant_order, steady_estimates, position, column_stats
            )
            variants.append(DeltaVariant(position, variant_order, variant_steps))
    head_spec = tuple(
        (term, None)
        if isinstance(term, Variable)
        # Aggregate head slots are filled by the stratum-close aggregate
        # routine, never by head_values — a placeholder keeps plan
        # compilation total.
        else (None, None)
        if isinstance(term, Aggregate)
        else (None, term.value)
        for term in rule.head.terms
    )
    return JoinPlan(rule, order, steps, tuple(variants), head_spec)


# ----------------------------------------------------------------------
# Program-level compilation
# ----------------------------------------------------------------------
def cardinality_estimates(program: Program, database: Database) -> Dict[str, int]:
    """Per-predicate cardinality estimates at plan time.

    EDB predicates report their exact current cardinality; IDB relations do
    not exist yet when the plan is compiled, so they are pessimistically
    estimated at the database's total fact count — which makes the planner
    prefer joining through concrete (usually smaller) EDB relations first.
    Stratum compilation refines this per stratum: a stratum's *own*
    predicates are estimated near-empty for the static (first-pass) order,
    because when that order runs the stratum has derived nothing yet.
    """
    from repro.datalog.transforms.parameters import is_parameter_relation

    idb = program.idb_predicates()
    total = max(database.fact_count(), 1)
    estimates: Dict[str, int] = {}
    for predicate in program.predicates():
        if is_parameter_relation(predicate):
            # Deferred parameter seeds: exactly one fact per binding at run
            # time (a handful under execute_many), regardless of what the
            # database holds at plan time.
            estimates[predicate] = 1
        elif predicate in idb:
            estimates[predicate] = total
        else:
            estimates[predicate] = database.cardinality(predicate)
    return estimates


def column_statistics(
    program: Program, database: Database
) -> Optional[Dict[str, Dict[int, int]]]:
    """Per-position distinct-code counts for a columnar-layout database.

    Tuple-layout databases return ``None`` — their plans are chosen exactly
    as before this statistic existed, so plan shapes (and EXPLAIN output)
    only change where the columnar mirror actually provides the numbers.
    Only EDB predicates report: IDB relations have no columns at plan time.
    """
    if getattr(database, "layout", "tuple") != "columnar":
        return None
    idb = program.idb_predicates()
    store = database.columnar_store()
    stats: Dict[str, Dict[int, int]] = {}
    for predicate in program.predicates():
        if predicate in idb:
            continue
        distincts = store.column_distincts(predicate)
        if distincts:
            stats[predicate] = distincts
    return stats or None


def compile_program_plan(
    program: Program, database: Database, *, all_deltas: bool = False
) -> ProgramPlan:
    """Compile strata, per-rule join plans, and slot kernels for *program* over *database*.

    With ``all_deltas=True`` every body position of every rule gets a
    delta-specialised variant (and compiled delta kernel), not just the
    recursive same-stratum positions.  The evaluation engines never need
    that — their deltas are always same-stratum — but incremental view
    maintenance (:mod:`repro.datalog.incremental`) seeds deltas from
    *external* insertions and deletions, which arrive through EDB and
    lower-stratum body atoms too.
    """
    from repro.datalog.engine.executor import compile_aggregate_kernel, compile_rule_kernel

    proper_rules = tuple(rule for rule in program.rules if not rule.is_fact())
    graph = dependency_graph(program)
    estimates = cardinality_estimates(program, database)
    column_stats = column_statistics(program, database)

    strata: List[Stratum] = []
    plans: Dict[Rule, JoinPlan] = {}
    kernels: Dict[Rule, object] = {}
    aggregate_kernels: Dict[Rule, object] = {}
    # predicate -> depth of the (already built, i.e. lower) stratum holding
    # it; EDB predicates and rule-less components never enter, so they
    # contribute depth -1 below and a stratum over pure EDB input sits at 0.
    stratum_depths: Dict[str, int] = {}
    for component in graph.strongly_connected_components():
        rules: List[Rule] = []
        for rule in proper_rules:
            if rule.head.predicate in component:
                rules.append(rule)
        if not rules:
            continue
        recursive = len(component) > 1 or any(
            (predicate, predicate) in graph.edges for predicate in component
        )
        predicates = frozenset(component)
        delta_predicates = predicates if recursive else frozenset()
        if all_deltas:
            delta_predicates = frozenset(
                atom.predicate for rule in rules for atom in rule.body
            )
        # The stratum's own relations hold (at most) fact-rule facts when its
        # first pass runs, so the static order treats them as near-empty; the
        # delta variants run mid-fixpoint and keep the pessimistic estimate.
        initial_estimates = dict(estimates)
        for predicate in predicates:
            initial_estimates[predicate] = 0
        for rule in rules:
            if rule not in plans:
                plans[rule] = plan_rule(
                    rule, initial_estimates, estimates, delta_predicates, column_stats
                )
                kernels[rule] = compile_rule_kernel(plans[rule])
                if kernels[rule] is None:
                    aggregate_kernels[rule] = compile_aggregate_kernel(plans[rule])
        depth = 1 + max(
            (
                stratum_depths.get(atom.predicate, -1)
                for rule in rules
                for atom in rule.body
                if atom.predicate not in predicates
            ),
            default=-1,
        )
        for predicate in predicates:
            stratum_depths[predicate] = depth
        strata.append(Stratum(len(strata), predicates, tuple(rules), recursive, depth))
    return ProgramPlan(program, tuple(strata), plans, kernels, aggregate_kernels)


class Planner:
    """Memoising front end over :func:`compile_program_plan`.

    A :class:`~repro.datalog.session.QuerySession` keeps one planner for its
    lifetime and passes it to every engine run, so repeated queries over the
    same program and database reuse the compiled plan.  The cache keys on
    the identities of the program and database plus the database's mutation
    counter (:attr:`~repro.datalog.database.Database.version`): mutating the
    data invalidates the plan, because the cardinalities it was based on are
    stale.
    """

    MAX_ENTRIES = 128

    def __init__(self) -> None:
        # (id(program), id(database)) -> (version, plan, weak program ref,
        # weak database ref).  Weak refs mean the cache never keeps a swept
        # database alive, and a recycled id is detected because its dead ref
        # no longer matches the new object.
        self._cache: Dict[
            Tuple[int, int], Tuple[int, ProgramPlan, "weakref.ref", "weakref.ref"]
        ] = {}
        # One planner is shared by every engine run of a session/service, and
        # the service runs engines without holding its own lock — so the LRU
        # del/re-insert, the eviction scan, and the counters below must never
        # race (an unlocked eviction scan over .items() can see a concurrent
        # del and raise "dictionary changed size during iteration").
        self._lock = threading.Lock()
        self.plans_compiled = 0
        self.cache_hits = 0

    def plan(self, program: Program, database: Database, statistics=None) -> ProgramPlan:
        """The (possibly cached) :class:`ProgramPlan` for this pair.

        When *statistics* (an
        :class:`~repro.datalog.engine.stats.EvaluationStatistics`) is given,
        the compile/hit is recorded there as well.  Thread-safe: concurrent
        callers may compile the same plan at most once each (compilation
        deliberately runs outside the lock — plans are immutable and cheap
        to discard), but the cache structure and the ``plans_compiled`` /
        ``cache_hits`` counters stay consistent, with one count per call.
        """
        key = (id(program), id(database))
        with self._lock:
            entry = self._cache.get(key)
            if (
                entry is not None
                and entry[0] == database.version
                and entry[2]() is program
                and entry[3]() is database
            ):
                self.cache_hits += 1
                # Re-insert so eviction order is least-recently-used, not FIFO.
                del self._cache[key]
                self._cache[key] = entry
                if statistics is not None:
                    statistics.record_plan(cache_hit=True)
                return entry[1]
        plan = compile_program_plan(program, database)
        with self._lock:
            if len(self._cache) >= self.MAX_ENTRIES:
                # Engines that rewrite the program per call (e.g. ``magic``)
                # mint a fresh Program object every evaluation; without a
                # bound those one-shot entries would accumulate forever.
                # Drop dead entries first, then the oldest, so hot pairs
                # survive eviction.
                for stale in [
                    k
                    for k, (_, _, p, d) in self._cache.items()
                    if p() is None or d() is None
                ]:
                    del self._cache[stale]
                while len(self._cache) >= self.MAX_ENTRIES:
                    self._cache.pop(next(iter(self._cache)))
            self._cache[key] = (
                database.version,
                plan,
                weakref.ref(program),
                weakref.ref(database),
            )
            self.plans_compiled += 1
        if statistics is not None:
            statistics.record_plan(cache_hit=False)
        return plan
