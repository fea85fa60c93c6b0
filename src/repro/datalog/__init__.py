"""The Datalog substrate: syntax, databases, evaluation, and transformations."""

from repro.datalog.atoms import Atom, ground_atom
from repro.datalog.database import Database
from repro.datalog.engine import (
    DerivationAnalyzer,
    DerivationTree,
    Engine,
    EvalOptions,
    EvaluationResult,
    EvaluationStatistics,
    Planner,
    ProgramPlan,
    TopDownEvaluator,
    available_engines,
    get_engine,
    register_engine,
    select_answers,
)
from repro.datalog.guard import (
    CancellationToken,
    ExecutionGuard,
    ResourceBudget,
    build_guard,
)
from repro.datalog.incremental import ApplyReport, MaintenanceStatistics, MaterializedView
from repro.datalog.parser import parse_atom, parse_facts, parse_program, parse_rule, parse_term
from repro.datalog.prepared import AnswerCursor, BoundQuery, PreparedQuery
from repro.datalog.pretty import format_atom, format_database, format_program, format_rule
from repro.datalog.program import Program
from repro.datalog.rules import Rule, fact
from repro.datalog.service import (
    DatalogService,
    QueryNotRegisteredError,
    ServiceDrainingError,
)
from repro.datalog.session import QuerySession
from repro.datalog.terms import Constant, Parameter, Term, Variable

__all__ = [
    "AnswerCursor",
    "ApplyReport",
    "Atom",
    "BoundQuery",
    "CancellationToken",
    "Constant",
    "Database",
    "DatalogService",
    "ExecutionGuard",
    "MaintenanceStatistics",
    "MaterializedView",
    "DerivationAnalyzer",
    "DerivationTree",
    "Engine",
    "EvaluationResult",
    "EvalOptions",
    "EvaluationStatistics",
    "Parameter",
    "Planner",
    "PreparedQuery",
    "Program",
    "ProgramPlan",
    "QueryNotRegisteredError",
    "QuerySession",
    "ResourceBudget",
    "Rule",
    "ServiceDrainingError",
    "Term",
    "TopDownEvaluator",
    "Variable",
    "available_engines",
    "build_guard",
    "fact",
    "format_atom",
    "format_database",
    "format_program",
    "format_rule",
    "get_engine",
    "ground_atom",
    "parse_atom",
    "parse_facts",
    "parse_program",
    "parse_rule",
    "parse_term",
    "register_engine",
    "select_answers",
]
