"""Query sessions: one object tying a program, a database, transforms, and engines.

The paper's experiments all have the same shape — take a selection query,
optionally rewrite the program (magic sets, monadic rewrite, constant
propagation), then evaluate it under some strategy and compare the work
done.  :class:`QuerySession` packages that shape::

    from repro.datalog import QuerySession
    from repro.datalog.transforms import MagicSets

    session = QuerySession(program, database)
    plain = session.evaluate(engine="seminaive")
    magic = session.with_transforms(MagicSets()).evaluate(engine="seminaive")
    assert plain.answers() == magic.answers()

Sessions are immutable builders: :meth:`with_transforms` /
:meth:`with_database` return new sessions, and the transformed program and
evaluation results are cached per session, so repeated ``evaluate`` calls
(e.g. inside a benchmark loop) re-run only the engine, not the rewrites.
Result caches are tied to the database's mutation counter
(:attr:`Database.version`): mutating the database invalidates them
automatically, so a session never serves answers for data that no longer
exists.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Optional, Tuple

from repro.datalog.database import Database
from repro.datalog.engine.base import EvaluationResult
from repro.datalog.engine.options import EvalOptions
from repro.datalog.engine.planner import Planner, ProgramPlan
from repro.datalog.engine.registry import (
    EngineNotApplicableError,
    available_engines,
    get_engine,
)
from repro.datalog.prepared import PreparedQuery
from repro.datalog.program import Program
from repro.datalog.transforms.pipeline import Pipeline, PipelineOutcome, Transform


def _as_program(program) -> Program:
    """Accept a :class:`Program` or any wrapper exposing ``.program`` (e.g. ChainProgram)."""
    if isinstance(program, Program):
        return program
    inner = getattr(program, "program", None)
    if isinstance(inner, Program):
        return inner
    raise TypeError(f"expected a Program (or a wrapper with .program), got {type(program).__name__}")


class QuerySession:
    """A fluent facade over transforms + engine registry for one query."""

    DEFAULT_ENGINE = "seminaive"

    def __init__(
        self,
        program,
        database: Database,
        transforms: Iterable[Transform] = (),
        planner: Optional[Planner] = None,
    ):
        self._program = _as_program(program)
        self._database = database
        self._pipeline = transforms if isinstance(transforms, Pipeline) else Pipeline(transforms)
        self._outcome: Optional[PipelineOutcome] = None
        # Shared join-plan cache: engines that support planning compile each
        # (program, database) plan once and reuse it across repeated queries.
        self._planner = planner if planner is not None else Planner()
        # (engine name, max_iterations, workers) -> (engine object, result);
        # the engine object is kept both to pin it alive and to detect
        # replacement.
        self._results: Dict[
            Tuple[str, Optional[int], Optional[int]], Tuple[object, EvaluationResult]
        ] = {}
        self._results_version = database.version
        # engine name -> PreparedQuery compiled for this session's pipeline
        self._prepared: Dict[str, PreparedQuery] = {}

    # ------------------------------------------------------------------
    # Builder steps
    # ------------------------------------------------------------------
    def with_transforms(self, *transforms: Transform) -> "QuerySession":
        """A new session whose pipeline has *transforms* appended.

        The derived session shares this one's :class:`Planner`, so join
        plans compiled for a common (program, database) pair are reused.
        """
        return QuerySession(
            self._program, self._database, self._pipeline.then(*transforms), planner=self._planner
        )

    def with_database(self, database: Database) -> "QuerySession":
        """A new session over a different database (same program and pipeline).

        The already-computed pipeline outcome carries over — transforms
        depend only on the (immutable) program, so re-running them for a
        database sweep would be pure waste.  The planner carries over too;
        its cache keys on the database, so plans never leak across data.
        """
        session = QuerySession(self._program, database, self._pipeline, planner=self._planner)
        session._outcome = self._outcome
        return session

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    @property
    def program(self) -> Program:
        """The original (untransformed) program."""
        return self._program

    @property
    def database(self) -> Database:
        return self._database

    @property
    def pipeline(self) -> Pipeline:
        return self._pipeline

    @property
    def provenance(self) -> PipelineOutcome:
        """Per-stage provenance of the transform pipeline (computed once)."""
        if self._outcome is None:
            self._outcome = self._pipeline.apply(self._program)
        return self._outcome

    @property
    def transformed_program(self) -> Program:
        """The program after all transforms (the one engines actually run)."""
        return self.provenance.program

    @property
    def planner(self) -> Planner:
        """The session's shared join-plan cache."""
        return self._planner

    def query_plan(self) -> ProgramPlan:
        """The stratification + join plan the bottom-up engines will execute.

        Compiled (or served from the session's planner cache) for the
        *transformed* program over the current database — exactly what
        ``evaluate()`` hands the engines.
        """
        return self._planner.plan(self.transformed_program, self._database)

    def explain(self, *, plans: bool = False) -> str:
        """Human-readable account of what the pipeline did to the program.

        With ``plans=True`` the EXPLAIN output of :meth:`query_plan` is
        appended: the SCC strata and, per rule, the chosen join order with
        the predicted access path (probe vs scan) of every body atom.
        """
        header = f"program: {len(self._program.rules)} rules, goal {self._program.goal}"
        text = header + "\n" + self.provenance.describe()
        if plans:
            text += "\n" + self.query_plan().describe()
        return text

    # ------------------------------------------------------------------
    # Prepared queries
    # ------------------------------------------------------------------
    def prepare(self, engine: str = DEFAULT_ENGINE) -> PreparedQuery:
        """Compile this session's query once; execute it per binding afterwards.

        The session's program may contain :class:`~repro.datalog.terms.Parameter`
        terms (``?anc($who, Y)``): the pipeline, the deferred-seed
        compilation, and the join plan all run now, and the returned
        :class:`~repro.datalog.prepared.PreparedQuery` is then bound and
        executed with concrete constants — thousands of times, concurrently
        — without repeating any of that work.

        Rewrite engines (``magic``) are folded into the pipeline: the
        rewrite becomes a compiled stage and execution runs the delegate
        engine (``seminaive``).  Prepared queries are cached per engine
        name on the session.
        """
        prepared = self._prepared.get(engine)
        if prepared is None:
            prepared = PreparedQuery(
                self._program, self._database, self._pipeline, default_engine=engine
            )
            self._prepared[engine] = prepared
        return prepared

    def materialize(self, **keywords):
        """Evaluate once into a live :class:`~repro.datalog.incremental.MaterializedView`.

        The view owns its own copy of the model plus per-fact support counts
        and stays current under ``view.apply(insertions, deletions)`` — the
        incremental alternative to re-running :meth:`evaluate` after every
        write.  The session's transformed program is materialized, so
        pipeline rewrites (magic sets etc.) are maintained incrementally
        too.  Parameterized templates must be prepared and bound first
        (:meth:`PreparedQuery.materialize <repro.datalog.prepared.PreparedQuery.materialize>`).

        *keywords* are :class:`~repro.datalog.engine.options.EvalOptions`'s.
        A *timeout* / *budget* / *cancellation* guards the initial build only
        (an abort discards the half-built view, this session's database
        untouched); once constructed, maintenance runs unguarded — see
        :class:`~repro.datalog.incremental.MaterializedView`.
        """
        from repro.datalog.incremental import MaterializedView

        return MaterializedView(
            self.transformed_program, self._database, EvalOptions.capture(keywords)
        )

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def evaluate(
        self, engine: str = DEFAULT_ENGINE, *, fresh: bool = False, **keywords
    ) -> EvaluationResult:
        """Run the transformed program under the named engine.

        *keywords* are :class:`~repro.datalog.engine.options.EvalOptions`'s
        (``max_iterations=``, ``workers=``, ``compiled=``, …); the session's
        own :attr:`planner` is used unless one is passed.

        Results are cached per ``(engine, max_iterations, workers)`` and
        invalidated automatically when the database mutates (its
        :attr:`~Database.version` changes).  Pass ``fresh=True`` to force a
        re-run regardless (benchmarks timing the engine itself should, so
        the cache does not hide the work).

        *timeout* (wall-clock seconds), *budget* (a
        :class:`~repro.datalog.guard.ResourceBudget`), and *cancellation* (a
        :class:`~repro.datalog.guard.CancellationToken`) arm a cooperative
        :class:`~repro.datalog.guard.ExecutionGuard` for this run; an abort
        raises the typed :class:`~repro.errors.QueryAborted` subclass and
        caches nothing.  A guarded run that completes is a complete result
        and caches normally.

        *workers*, when > 1, enables the parallel evaluation layer on
        engines that have it; results and statistics are identical to
        serial at any worker count, but runs are cached separately so
        benchmarks can time both.
        """
        options = EvalOptions.capture({"planner": self._planner, **keywords, "engine": engine})
        if self._database.version != self._results_version:
            self._results.clear()
            self._results_version = self._database.version
        resolved = get_engine(engine)
        key = (engine, options.max_iterations, options.workers)
        cached = self._results.get(key)
        # Identity-compare against the engine that produced the cached result,
        # so register_engine(..., replace=True) never serves stale results
        # (holding the object also keeps its id from being recycled).
        if fresh or cached is None or cached[0] is not resolved:
            result = resolved.evaluate(self.transformed_program, self._database, options)
            self._results[key] = (resolved, result)
        return self._results[key][1]

    def answers(self, engine: str = DEFAULT_ENGINE, **keywords) -> FrozenSet[Tuple]:
        """The goal answers under the named engine (:meth:`evaluate`'s keywords).

        Like :meth:`evaluate`, answers are cached but never stale: database
        mutations invalidate the cache automatically.  ``fresh=True`` still
        forces a re-run (e.g. for timing).
        """
        return self.evaluate(engine, **keywords).answers()

    def refresh(self) -> "QuerySession":
        """Drop all cached evaluation results unconditionally.

        The transformed program and pipeline provenance are kept — transforms
        depend only on the program, which is immutable.  Returns ``self`` for
        chaining.
        """
        self._results.clear()
        return self

    def compare(
        self, engines: Optional[Iterable[str]] = None, **keywords
    ) -> Dict[str, EvaluationResult]:
        """Evaluate under several engines (default: all registered) and collect results.

        *keywords* are :meth:`evaluate`'s and apply to every engine, so an
        option some engine does not support fails the comparison.

        When running the default portfolio, engines whose rewrite rejects the
        program up front (raising :class:`EngineNotApplicableError`, e.g.
        ``magic`` on a goal without constants) are skipped silently.  Anything
        else — an invalid program, a transform bug producing an invalid
        rewritten program, an exceeded ``max_iterations`` — always propagates,
        so a partial result dict never masks an engine that started and
        failed.
        """
        explicit = engines is not None
        names = tuple(engines) if explicit else available_engines()
        # Run the session's own pipeline and validate the program first: a
        # transform failure or an invalid program is a failure of the whole
        # comparison, never a per-engine skip.
        self.transformed_program.validate()
        results: Dict[str, EvaluationResult] = {}
        for name in names:
            try:
                results[name] = self.evaluate(name, **keywords)
            except EngineNotApplicableError:
                if explicit:
                    raise
        return results

    def __repr__(self) -> str:
        return (
            f"QuerySession(goal={self._program.goal}, rules={len(self._program.rules)}, "
            f"pipeline={self._pipeline!r}, database={self._database!r})"
        )
