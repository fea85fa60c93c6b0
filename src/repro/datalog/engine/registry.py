"""The engine protocol and registry: one front door for every evaluator.

The paper compares evaluation strategies for the same selection query —
naive and semi-naive bottom-up, magic-transformed bottom-up, and memoing
top-down.  This module makes each strategy a first-class :class:`Engine`
that can be looked up by name, so the CLI, the :class:`QuerySession`
facade, and the benchmarks all dispatch through one interface::

    from repro.datalog.engine import get_engine

    result = get_engine("seminaive").evaluate(program, database)
    answers = result.answers()

Engines registered by default:

======================  =====================================================
``naive``               textbook full-model fixpoint iteration
``seminaive``           differential fixpoint with per-iteration deltas
``topdown``             memoizing (tabled) top-down resolution
``magic``               generalized magic-set rewrite, then semi-naive
======================  =====================================================

Third-party strategies plug in via :func:`register_engine`; anything with a
``name``, an ``accepts`` set and an ``evaluate(program, database, options)``
returning an :class:`~repro.datalog.engine.base.EvaluationResult` conforms
(wrap a plain function in :class:`FunctionEngine` to get all three).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, Optional, Protocol, Tuple, runtime_checkable

from repro.datalog.database import Database
from repro.datalog.engine.base import EvaluationResult
from repro.datalog.engine.options import EvalOptions, resolve
from repro.datalog.program import Program
from repro.errors import EngineNotApplicableError, EngineNotFoundError, ValidationError

__all__ = [
    "Engine",
    "EngineNotApplicableError",
    "EngineNotFoundError",
    "FunctionEngine",
    "TransformedEngine",
    "available_engines",
    "engine_descriptions",
    "get_engine",
    "register_engine",
    "unregister_engine",
]


@runtime_checkable
class Engine(Protocol):
    """What an evaluation strategy must provide to join the registry.

    ``accepts`` names the :class:`~repro.datalog.engine.options.EvalOptions`
    fields the engine honours.  Callers hand every engine the same options
    object; :meth:`EvalOptions.checked` — called by the engine on entry —
    is what turns a field the engine would ignore into a dropped hint
    (``planner``) or a typed error (everything else), so plain engines need
    not know the knobs they lack exist.
    """

    name: str
    accepts: FrozenSet[str]

    def evaluate(
        self,
        program: Program,
        database: Database,
        options: Optional[EvalOptions] = None,
        **keywords,
    ) -> EvaluationResult:
        """Answer the program's goal over *database*; never mutates the input.

        The knobs arrive as one :class:`EvalOptions` or as its keywords
        (``max_iterations=``, ``timeout=``, ``workers=``, …), never both.
        """
        ...  # pragma: no cover


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
_REGISTRY: Dict[str, Engine] = {}


def register_engine(engine: Engine, *, replace: bool = False) -> Engine:
    """Add *engine* to the registry under ``engine.name``.

    Registering a second engine under an existing name requires
    ``replace=True`` — silent shadowing hides configuration mistakes.
    Returns the engine so the call can be used as a decorator-ish one-liner.
    """
    name = engine.name
    if not replace and name in _REGISTRY:
        raise ValueError(f"engine {name!r} is already registered (pass replace=True)")
    _REGISTRY[name] = engine
    return engine


def unregister_engine(name: str) -> None:
    """Remove an engine from the registry (no error if absent)."""
    _REGISTRY.pop(name, None)


def get_engine(name: str) -> Engine:
    """Look up a registered engine by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY)) or "(none)"
        raise EngineNotFoundError(
            f"unknown engine {name!r}; registered engines: {known}"
        ) from None


def available_engines() -> Tuple[str, ...]:
    """Names of all registered engines, sorted."""
    return tuple(sorted(_REGISTRY))


def engine_descriptions() -> Dict[str, str]:
    """Mapping from engine name to its one-line description (for CLI listings)."""
    return {
        name: (getattr(engine, "description", "") or "").strip()
        for name, engine in sorted(_REGISTRY.items())
    }


# ----------------------------------------------------------------------
# Built-in engines
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FunctionEngine:
    """Adapter turning an ``evaluate(program, database, options)`` function into an Engine.

    *accepts* declares the option fields the function reads; anything else
    a caller sets is rejected (or, for the ``planner`` hint, dropped) before
    the function runs.
    """

    name: str
    description: str
    function: Callable[[Program, Database, EvalOptions], EvaluationResult]
    accepts: FrozenSet[str] = frozenset({"max_iterations"})

    def evaluate(
        self,
        program: Program,
        database: Database,
        options: Optional[EvalOptions] = None,
        **keywords,
    ) -> EvaluationResult:
        options = resolve(options, keywords).checked(f"engine {self.name!r}", self.accepts)
        return self.function(program, database, options)


@dataclass(frozen=True)
class TransformedEngine:
    """An engine that rewrites the program first, then delegates to another engine.

    The result's statistics are those of the delegate run over the rewritten
    program; the rewritten program itself is what the result reports, which
    keeps the per-predicate fact counts honest (magic predicates show up as
    the extra work they are).
    """

    name: str
    description: str
    transform: Callable[[Program], Program]
    delegate: str = "seminaive"

    @property
    def accepts(self) -> FrozenSet[str]:
        """Whatever the delegate honours, except a precompiled plan: it
        describes the *unrewritten* program, so running it against the
        rewrite's output would execute the wrong strata (prepare the query
        instead — ``QuerySession.prepare`` folds the rewrite into the pipeline)."""
        return get_engine(self.delegate).accepts - {"plan"}

    def evaluate(
        self,
        program: Program,
        database: Database,
        options: Optional[EvalOptions] = None,
        **keywords,
    ) -> EvaluationResult:
        options = resolve(options, keywords).checked(f"engine {self.name!r}", self.accepts)
        try:
            rewritten = self.transform(program)
        except ValidationError as error:
            raise EngineNotApplicableError(
                f"engine {self.name!r} cannot rewrite this program: {error}"
            ) from error
        return get_engine(self.delegate).evaluate(rewritten, database, options)


def _register_builtins() -> None:
    from repro.datalog.engine import fixpoint, topdown
    from repro.datalog.engine.naive import _evaluate as naive_evaluate
    from repro.datalog.engine.seminaive import _evaluate as seminaive_evaluate
    from repro.datalog.transforms.magic import magic_transform

    register_engine(
        FunctionEngine(
            "naive",
            "naive bottom-up: re-evaluate every rule over the full model until fixpoint"
            " (stratified, planned joins, compiled kernels)",
            naive_evaluate,
            fixpoint.ACCEPTS,
        )
    )
    register_engine(
        FunctionEngine(
            "seminaive",
            "semi-naive bottom-up: differential fixpoint over per-iteration deltas"
            " (stratified, planned joins, compiled kernels)",
            seminaive_evaluate,
            fixpoint.ACCEPTS,
        )
    )
    register_engine(
        FunctionEngine(
            "topdown",
            "memoizing top-down: tabled resolution exploring only goal-reachable subqueries",
            topdown._evaluate,
            topdown.ACCEPTS,
        )
    )
    register_engine(
        TransformedEngine(
            "magic",
            "generalized magic-set rewrite (requires a goal with a constant), then semi-naive",
            magic_transform,
        )
    )


_register_builtins()
