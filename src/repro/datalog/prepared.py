"""Prepared parameterized queries: compile the rewrite once, execute per binding.

The point of the paper's machinery — adornment, magic sets, constant
propagation — is that what can be pushed into a recursive program depends
on the goal's *binding pattern*, never on the concrete constant.  A query
surface that bakes constants into the :class:`~repro.datalog.program.Program`
therefore re-runs rectify/adorn/magic and re-plans for every new constant,
throwing away exactly the work those rewrites exist to amortize.  This
module is the redesign:

* a **template** program carries :class:`~repro.datalog.terms.Parameter`
  terms (``?anc($who, Y)``) in place of constants;
* :class:`PreparedQuery` (built by
  :meth:`repro.datalog.session.QuerySession.prepare`) runs the transform
  pipeline, compiles parameters into deferred ``__param_*`` seed rules
  (:mod:`repro.datalog.transforms.parameters`), and compiles the
  join/stratification plan — all exactly once per binding pattern;
* :meth:`PreparedQuery.bind` / :meth:`PreparedQuery.execute` then only
  append one ground seed fact per parameter and run the engine over an
  O(1) copy-on-write :meth:`~repro.datalog.database.Database.overlay` of
  the EDB — the per-execution cost is the fixpoint itself, nothing else;
* :meth:`PreparedQuery.execute_many` batches several bindings through a
  *single* fixpoint when the compiled form allows it (magic-style rewrites
  whose guards only restrict, and plain programs), selecting each
  binding's answers from the shared model afterwards.

Thread safety: a prepared query is immutable after construction except for
its lazily (re)compiled plan, which is guarded by a lock; concurrent
``execute`` calls share the plan and the base database but each get their
own overlay working set.  :class:`repro.datalog.service.DatalogService`
builds the full traffic-facing layer on top.
"""

from __future__ import annotations

import threading
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Tuple

from repro.datalog.atoms import Atom
from repro.datalog.database import Database
from repro.datalog.engine.base import EvaluationResult
from repro.datalog.engine.options import EvalOptions, resolve, split_bindings
from repro.datalog.engine.planner import ProgramPlan, compile_program_plan
from repro.datalog.engine.registry import get_engine
from repro.datalog.program import Program
from repro.datalog.terms import Constant, Parameter
from repro.datalog.transforms.parameters import (
    is_parameter_relation,
    parameter_seed_rules,
    parameterize_rules,
)
from repro.datalog.transforms.pipeline import (
    FunctionTransform,
    Pipeline,
    PipelineOutcome,
    Transform,
)
from repro.errors import EvaluationError


def normalize_binding_value(name: str, value: object):
    """A parameter binding as the raw domain value the database stores.

    Callers may pass a plain value or a wrapped :class:`Constant`; both the
    seed facts and the goal selection compare against the *unwrapped* domain
    values in database tuples, so normalisation happens once here.  Unhashable
    values are rejected (they could never occur in a relation).
    """
    if isinstance(value, Constant):
        value = value.value
    try:
        hash(value)
    except TypeError:
        raise EvaluationError(
            f"parameter ${name} must be bound to a hashable constant, "
            f"got {type(value).__name__}"
        ) from None
    return value


def resolve_prepared_engine(name: str) -> Tuple[str, Tuple[Transform, ...]]:
    """Fold rewrite engines into pipeline stages; return (base engine, stages).

    Registry engines like ``magic`` rewrite the program on every call —
    the antithesis of preparing.  For a prepared query the rewrite belongs
    in the (once-run) pipeline, so ``prepare(engine="magic")`` resolves to
    the ``seminaive`` delegate plus a ``magic`` pipeline stage.
    """
    transforms: List[Transform] = []
    engine = get_engine(name)
    resolved = name
    seen = {name}
    while getattr(engine, "transform", None) is not None:
        transforms.append(FunctionTransform(engine.name, engine.transform))
        delegate = getattr(engine, "delegate", None)
        if not isinstance(delegate, str) or delegate in seen:
            raise EvaluationError(
                f"cannot resolve rewrite engine {name!r} to a base engine"
            )
        seen.add(delegate)
        resolved = delegate
        engine = get_engine(delegate)
    return resolved, tuple(transforms)


class AnswerCursor:
    """A streaming, DB-API-flavoured view over one execution's answers.

    Answers are materialised by the engine as a set; the cursor fixes a
    stable (sorted) order and lets heavy-traffic clients page through large
    answer sets — ``fetchone`` / ``fetchmany`` / ``fetchall`` or plain
    iteration — without every caller re-sorting or copying the whole set.
    """

    def __init__(self, answers: FrozenSet[Tuple], batch_size: int = 256):
        if batch_size < 1:
            raise ValueError("batch_size must be positive")
        self._rows: List[Tuple] = sorted(answers, key=repr)
        self._batch_size = batch_size
        self._position = 0
        self._closed = False

    @property
    def rowcount(self) -> int:
        """Total number of answers behind the cursor."""
        return len(self._rows)

    def _check_open(self) -> None:
        if self._closed:
            raise EvaluationError("cursor is closed")

    def fetchone(self) -> Optional[Tuple]:
        """The next answer, or ``None`` when exhausted."""
        self._check_open()
        if self._position >= len(self._rows):
            return None
        row = self._rows[self._position]
        self._position += 1
        return row

    def fetchmany(self, size: Optional[int] = None) -> List[Tuple]:
        """The next batch (default: the cursor's batch size); empty when done."""
        self._check_open()
        count = self._batch_size if size is None else size
        if count < 0:
            raise ValueError("size must be non-negative")
        batch = self._rows[self._position : self._position + count]
        self._position += len(batch)
        return batch

    def fetchall(self) -> List[Tuple]:
        """All remaining answers."""
        self._check_open()
        rest = self._rows[self._position :]
        self._position = len(self._rows)
        return rest

    def close(self) -> None:
        """Release the row buffer; further fetches raise."""
        self._closed = True
        self._rows = []

    def __iter__(self) -> "AnswerCursor":
        return self

    def __next__(self) -> Tuple:
        row = self.fetchone()
        if row is None:
            raise StopIteration
        return row

    def __repr__(self) -> str:
        return f"AnswerCursor(rows={len(self._rows)}, position={self._position})"


class BoundQuery:
    """A prepared query with every parameter bound to a constant."""

    def __init__(self, prepared: "PreparedQuery", bindings: Mapping[str, object]):
        self._prepared = prepared
        self._bindings = dict(bindings)
        self._goal = prepared.goal_template.bind_parameters(self._bindings)

    @property
    def bindings(self) -> Dict[str, object]:
        """The parameter values this query runs with (a copy)."""
        return dict(self._bindings)

    @property
    def goal(self) -> Atom:
        """The fully bound goal atom used for answer selection."""
        return self._goal

    def execute(self, options: Optional[EvalOptions] = None, **keywords) -> EvaluationResult:
        """Run the engine with this binding's seed facts; return the full result.

        The knobs arrive as one :class:`~repro.datalog.engine.options.EvalOptions`
        or as its keywords (``engine=``, ``max_iterations=``, ``timeout=``, …).
        """
        return self._prepared._execute_bound(
            self._bindings, self._goal, resolve(options, keywords)
        )

    def answers(self, options: Optional[EvalOptions] = None, **keywords) -> FrozenSet[Tuple]:
        """Just the goal answers (the common traffic path)."""
        return self.execute(options, **keywords).answers()

    def cursor(
        self, options: Optional[EvalOptions] = None, *, batch_size: int = 256, **keywords
    ) -> AnswerCursor:
        """A streaming cursor over this binding's answers."""
        return AnswerCursor(self.answers(options, **keywords), batch_size)

    def __repr__(self) -> str:
        return f"BoundQuery(goal={self._goal}, bindings={self._bindings!r})"


class PreparedQuery:
    """A parameterized query compiled once per binding pattern.

    Construction runs the transform pipeline over the template program,
    compiles remaining parameters into deferred ``__param_*`` seed rules,
    validates the result, and compiles the join/stratification plan.  After
    that, every :meth:`execute` only (a) appends one ground seed fact per
    parameter and (b) runs the engine over a copy-on-write overlay of the
    database — the rewrite and planning work is fully amortized.
    """

    def __init__(
        self,
        program: Program,
        database: Database,
        pipeline: Optional[Pipeline] = None,
        *,
        default_engine: str = "seminaive",
    ):
        self._template = program
        self._database = database
        self._pipeline = pipeline if pipeline is not None else Pipeline()
        self._default_engine, folded = resolve_prepared_engine(default_engine)
        if folded:
            self._pipeline = self._pipeline.then(*folded)
        self._outcome: PipelineOutcome = self._pipeline.apply(program)
        self._runtime: Program = parameterize_rules(self._outcome.program)
        self._runtime.validate()
        if self._runtime.goal is None:
            raise EvaluationError("prepared queries require a goal")
        declared = [parameter.name for parameter in program.parameters()]
        for parameter in self._outcome.program.parameters():
            if parameter.name not in declared:
                declared.append(parameter.name)
        self._parameter_names: Tuple[str, ...] = tuple(declared)
        self._lock = threading.Lock()
        # (plan, database version) published as ONE tuple: concurrent
        # executors read it lock-free (a single attribute load is atomic
        # under the GIL), and the pair can never be observed torn the way
        # two separate attributes could.
        self._plan_state: Optional[Tuple[ProgramPlan, int]] = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def parameters(self) -> Tuple[str, ...]:
        """Names the caller must bind, in order of first occurrence."""
        return self._parameter_names

    @property
    def database(self) -> Database:
        return self._database

    @property
    def program(self) -> Program:
        """The original template program (parameters intact)."""
        return self._template

    @property
    def runtime_program(self) -> Program:
        """The compiled program engines execute (rules parameter-free)."""
        return self._runtime

    @property
    def goal_template(self) -> Atom:
        """The transformed goal; its parameters are bound per execution."""
        goal = self._runtime.goal
        assert goal is not None  # checked in __init__
        return goal

    @property
    def provenance(self) -> PipelineOutcome:
        """Per-stage provenance of the (once-run) transform pipeline."""
        return self._outcome

    @property
    def default_engine(self) -> str:
        return self._default_engine

    #: Pipeline stages known to preserve per-binding answers under a shared
    #: multi-seed fixpoint.  ``magic`` qualifies because its guards only
    #: *restrict* the original rules: dropping every ``magic_*`` guard gives
    #: back a superset program, so any fact derived under a union of seeds is
    #: a true fact, and each binding's seed keeps its own answers complete.
    #: ``rectify``/``adorn`` are parameter-independent renamings.
    SHARED_SAFE_STAGES = frozenset({"magic", "rectify", "adorn"})

    @property
    def binding_pattern(self) -> str:
        """The goal's ``b``/``f`` pattern this query was compiled for."""
        from repro.datalog.transforms.adornment import adornment_of_atom

        if self._template.goal is None:
            return ""
        return adornment_of_atom(self._template.goal, set())

    @property
    def supports_shared_execution(self) -> bool:
        """Whether :meth:`execute_many` may share one fixpoint across bindings.

        Sharing is only used when it is provably sound, which requires all of:

        * the template's parameters live in the *goal* only (a parameterized
          fact or rule body could let one binding's seeds fire derivations
          that leak into another binding's answers);
        * every parameter survives into the transformed goal, so each
          binding's answers can be selected back out of the shared model;
        * every pipeline stage is in :data:`SHARED_SAFE_STAGES` — for those
          rewrites the ``__param``-fed predicates act purely as guards that
          restrict the original rules, so a union of seeds derives only true
          facts and per-binding selection recovers exactly the solo answers;
        * every rule mentioning a ``__param_*`` relation is a pure seed rule
          (its body is nothing but ``__param_*`` atoms).

        Anything else — constant propagation or monadic rewrites (they
        project the parameter away), user-supplied transforms, parameterized
        rule templates — falls back to per-binding execution.
        """
        if any(rule.parameters() for rule in self._template.rules):
            return False
        goal_parameters = {parameter.name for parameter in self.goal_template.parameters()}
        if set(self._parameter_names) != goal_parameters:
            return False
        if any(
            stage.name not in self.SHARED_SAFE_STAGES for stage in self._outcome.stages
        ):
            return False
        for rule in self._runtime.rules:
            if any(is_parameter_relation(atom.predicate) for atom in rule.body):
                if not all(is_parameter_relation(atom.predicate) for atom in rule.body):
                    return False
        return True

    def plan(self) -> ProgramPlan:
        """The compiled plan (recompiled if the database has since mutated).

        Plans are correct regardless of data — recompilation only refreshes
        the cardinality estimates the join order is based on.

        Double-checked: the hot path (every execute of a warm prepared
        query) is one lock-free read of the published ``(plan, version)``
        pair; only a cold or stale plan takes the lock, and the re-check
        inside it guarantees each version's plan compiles exactly once no
        matter how many threads arrive cold — the amortized-once contract
        of the executions counter.
        """
        version = self._database.version
        state = self._plan_state
        if state is not None and state[1] == version:
            return state[0]
        with self._lock:
            state = self._plan_state
            if state is None or state[1] != version:
                state = (compile_program_plan(self._runtime, self._database), version)
                self._plan_state = state
            return state[0]

    def describe(self) -> str:
        """Human-readable account: pipeline provenance, parameters, plan."""
        lines = [
            f"prepared query: goal {self.goal_template}, "
            f"binding pattern {self.binding_pattern or '(none)'}",
            "parameters: "
            + (", ".join(f"${name}" for name in self._parameter_names) or "(none)"),
            "shared execution: "
            + ("supported" if self.supports_shared_execution else "per-binding"),
            self._outcome.describe(),
            self.plan().describe(),
        ]
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # Binding and execution
    # ------------------------------------------------------------------
    def _check_bindings(self, bindings: Mapping[str, object]) -> Dict[str, object]:
        expected = set(self._parameter_names)
        provided = set(bindings)
        if provided != expected:
            missing = ", ".join(f"${name}" for name in sorted(expected - provided))
            extra = ", ".join(f"${name}" for name in sorted(provided - expected))
            detail = "; ".join(
                part
                for part in (
                    f"missing {missing}" if missing else "",
                    f"unknown {extra}" if extra else "",
                )
                if part
            )
            raise EvaluationError(f"parameter bindings do not match the query: {detail}")
        checked: Dict[str, object] = {}
        for name, value in bindings.items():
            checked[name] = normalize_binding_value(name, value)
        return checked

    def bind(self, **bindings) -> BoundQuery:
        """Bind every parameter; returns an executable :class:`BoundQuery`."""
        return BoundQuery(self, self._check_bindings(bindings))

    def execute(
        self,
        bindings: Optional[Mapping[str, object]] = None,
        options: Optional[EvalOptions] = None,
        **keywords,
    ) -> EvaluationResult:
        """``bind(...)`` + run in one call; bindings may be a mapping or kwargs.

        Any keyword that is not one of
        :class:`~repro.datalog.engine.options.EvalOptions`'s is a binding.
        """
        merged = dict(bindings or {})
        split_bindings(keywords, merged)
        return self.bind(**merged).execute(options, **keywords)

    def answers(
        self,
        bindings: Optional[Mapping[str, object]] = None,
        options: Optional[EvalOptions] = None,
        **keywords,
    ) -> FrozenSet[Tuple]:
        """The goal answers for one binding (:meth:`execute`'s arguments)."""
        return self.execute(bindings, options, **keywords).answers()

    def uses_shared_fixpoint(self, count: int, options: EvalOptions = EvalOptions()) -> bool:
        """Whether a *count*-binding batch will run as one shared fixpoint.

        True when sharing is sound (:attr:`supports_shared_execution`), the
        batch has more than one binding, and the engine (``options.engine``,
        else the default) executes a precompiled plan.  Callers accounting
        for engine work (e.g. the service's execution counter) use this to
        know how many fixpoints a batch actually costs.
        """
        if count <= 1 or not self.supports_shared_execution:
            return False
        return "plan" in self._resolve_engine(options.engine).accepts

    def execute_many(
        self,
        bindings_list: Iterable[Mapping[str, object]],
        options: Optional[EvalOptions] = None,
        **keywords,
    ) -> List[FrozenSet[Tuple]]:
        """Answers for a batch of bindings, in input order.

        When :meth:`uses_shared_fixpoint` holds, all bindings' seed facts
        are loaded into *one* fixpoint and each binding's answers are
        selected from the shared model afterwards — the per-binding cost
        collapses to a selection.  Otherwise each binding runs individually.

        A *timeout*/*budget*/*cancellation* guard covers the whole batch as
        one unit of work: one shared deadline, one fact/round budget —
        matching how the service admits a batch as a single request.
        """
        options = resolve(options, keywords)
        checked = [self._check_bindings(bindings) for bindings in bindings_list]
        if not checked:
            return []
        if self.uses_shared_fixpoint(len(checked), options):
            seeds: Dict[object, None] = {}
            for bindings in checked:
                for rule in parameter_seed_rules(bindings):
                    seeds[rule] = None
            shared_program = Program(
                self._runtime.rules + tuple(seeds), self._runtime.goal
            )
            result = self._resolve_engine(options.engine).evaluate(
                shared_program,
                self._database.overlay(),
                options.replace(plan=self.plan()),
            )
            return [
                result.answers(self.goal_template.bind_parameters(bindings))
                for bindings in checked
            ]
        return [
            self._execute_bound(
                bindings, self.goal_template.bind_parameters(bindings), options
            ).answers()
            for bindings in checked
        ]

    def materialize(
        self,
        bindings: Optional[Mapping[str, object]] = None,
        options: Optional[EvalOptions] = None,
        **keywords,
    ):
        """Bind every parameter and evaluate into a live materialized view.

        The returned :class:`~repro.datalog.incremental.MaterializedView`
        holds the fully evaluated model for this binding (runtime rules plus
        the binding's ``__param_*`` seed facts) and stays current under
        ``view.apply(insertions, deletions)`` — the seed facts ride along as
        program fact rules, so they are never retractable through the view.
        :class:`~repro.datalog.service.DatalogService` uses this to keep
        registered queries live across writes instead of recomputing.
        """
        from repro.datalog.incremental import MaterializedView

        merged = dict(bindings or {})
        split_bindings(keywords, merged)
        checked = self._check_bindings(merged)
        seeds = parameter_seed_rules(checked)
        bound_goal = self.goal_template.bind_parameters(checked)
        program = Program(self._runtime.rules + seeds, bound_goal)
        return MaterializedView(program, self._database, resolve(options, keywords))

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _resolve_engine(self, engine: Optional[str]):
        name = engine if engine is not None else self._default_engine
        engine_object = get_engine(name)
        if getattr(engine_object, "transform", None) is not None:
            raise EvaluationError(
                f"engine {name!r} rewrites the program per call; prepare the "
                f"query with engine={name!r} instead so the rewrite is compiled once"
            )
        return engine_object

    def _execute_bound(
        self, bindings: Mapping[str, object], bound_goal: Atom, options: EvalOptions
    ) -> EvaluationResult:
        engine_object = self._resolve_engine(options.engine)
        seeds = parameter_seed_rules(bindings)
        if getattr(self._database, "layout", "tuple") == "columnar":
            # Intern the seed constants through the *shared* base table now,
            # not inside the engine: every binding's overlay forks the same
            # append-only table, so codes assigned here stay stable across
            # bindings and concurrent executions take the intern lock for a
            # handful of already-present values at most.
            table = self._database.columnar_store().table
            for rule in seeds:
                for value in rule.head.as_fact_tuple():
                    table.intern(value)
        exec_program = Program(self._runtime.rules + seeds, bound_goal)
        if "plan" in engine_object.accepts:
            return engine_object.evaluate(
                exec_program,
                self._database.overlay(),
                options.replace(plan=self.plan()),
            )
        return engine_object.evaluate(exec_program, self._database, options)

    def __repr__(self) -> str:
        return (
            f"PreparedQuery(goal={self.goal_template}, "
            f"parameters={list(self._parameter_names)}, "
            f"engine={self._default_engine!r})"
        )
