"""Evaluation engines for Datalog programs, behind one registry.

The paper (conf_pods_BeeriKBR87) is a comparison of evaluation strategies
for a selection query, and this package mirrors that: every strategy is an
:class:`~repro.datalog.engine.registry.Engine` — an object with a ``name``
and an ``evaluate(program, database, **options)`` method returning an
:class:`EvaluationResult` — registered under a stable name; the options
are one :class:`EvalOptions`, the same on every engine and every surface.

The supported workflow::

    from repro.datalog.engine import available_engines, get_engine

    available_engines()                  # ('magic', 'naive', 'seminaive', 'topdown')
    result = get_engine("topdown").evaluate(program, database)
    result.answers()                     # the goal's selected tuples

or, one level up, through the :class:`~repro.datalog.session.QuerySession`
facade, which also composes program transforms::

    from repro.datalog import QuerySession

    QuerySession(program, database).evaluate(engine="seminaive").answers()

Custom strategies join via :func:`register_engine`; the bundled ones are

* ``naive`` — full-model fixpoint iteration;
* ``seminaive`` — differential fixpoint;
* ``topdown`` — memoizing top-down resolution (:class:`TopDownEvaluator`);
* ``magic`` — generalized magic-set rewrite, then semi-naive bottom-up.

The registry (or a session) is the only entry point: the legacy
``evaluate_naive`` / ``evaluate_seminaive`` / ``evaluate_topdown`` free
functions and the ``RelationIndex`` shim warned as deprecated for three
releases and have been removed.
"""

from repro.datalog.engine.base import EvaluationResult, select_answers
from repro.datalog.engine.derivation import DerivationAnalyzer, DerivationTree
from repro.datalog.engine.executor import RuleKernel, StepKernel, compile_rule_kernel
from repro.datalog.engine.options import EvalOptions
from repro.datalog.engine.planner import (
    JoinPlan,
    Planner,
    ProgramPlan,
    Stratum,
    compile_program_plan,
)
from repro.datalog.engine.registry import (
    Engine,
    EngineNotApplicableError,
    EngineNotFoundError,
    FunctionEngine,
    TransformedEngine,
    available_engines,
    engine_descriptions,
    get_engine,
    register_engine,
    unregister_engine,
)
from repro.datalog.engine.stats import EvaluationStatistics
from repro.datalog.engine.topdown import TopDownEvaluator

__all__ = [
    "DerivationAnalyzer",
    "DerivationTree",
    "Engine",
    "EngineNotApplicableError",
    "EngineNotFoundError",
    "EvalOptions",
    "EvaluationResult",
    "EvaluationStatistics",
    "FunctionEngine",
    "JoinPlan",
    "Planner",
    "ProgramPlan",
    "RuleKernel",
    "StepKernel",
    "Stratum",
    "TopDownEvaluator",
    "TransformedEngine",
    "available_engines",
    "compile_program_plan",
    "compile_rule_kernel",
    "engine_descriptions",
    "get_engine",
    "register_engine",
    "select_answers",
    "unregister_engine",
]
