"""EvalOptions: the capability matrix, validation-before-work, and the
structural guard that the per-surface option plumbing cannot regrow."""

import dataclasses
import inspect

import pytest

from repro.datalog import (
    Database,
    DatalogService,
    QuerySession,
    ResourceBudget,
    parse_program,
)
from repro.datalog.engine import (
    EvalOptions,
    EvaluationStatistics,
    FunctionEngine,
    Planner,
    TransformedEngine,
    compile_program_plan,
    get_engine,
)
from repro.datalog.prepared import BoundQuery, PreparedQuery
from repro.datalog.server.durable import DurableDatalogService
from repro.errors import EvaluationError

PROGRAM = parse_program(
    """
    ?reach(0, Y)
    reach(X, Y) :- edge(X, Y).
    reach(X, Y) :- reach(X, Z), edge(Z, Y).
    far(X) :- reach(0, X), not near(X).
    near(X) :- edge(0, X).
    """
)
TEMPLATE = parse_program(
    """
    ?reach($src, Y)
    reach(X, Y) :- edge(X, Y).
    reach(X, Y) :- reach(X, Z), edge(Z, Y).
    """
)
#: The knobs (``hints`` is the object's bookkeeping about them, not one).
FIELDS = tuple(
    field.name for field in dataclasses.fields(EvalOptions) if field.name != "hints"
)
ENGINES = ("naive", "seminaive", "topdown", "magic")


def graph(layout="tuple"):
    database = Database(layout=layout)
    for i in range(8):
        database.add_fact("edge", (i, i + 1))
        database.add_fact("edge", (i, (i * 3) % 7))
    return database


def non_default(field, engine, program, database):
    """A set, valid, answer-preserving value for *field*."""
    return {
        "engine": engine,
        "max_iterations": 10_000,
        "planner": Planner(),
        "plan": compile_program_plan(program, database),
        "compiled": False,
        "guard": ResourceBudget(timeout=60, max_facts=10**6, max_rounds=10**4).start(),
        "workers": 2,
    }[field]


# ----------------------------------------------------------------------
# The capability matrix: engine x field -> honoured | dropped | rejected
# ----------------------------------------------------------------------
#: What each engine does with each field that is not honoured.  Everything
#: absent from this table must be honoured: same model, same statistics.
NOT_HONOURED = {
    ("topdown", "planner"): "dropped",  # the one silent drop: a hint, never semantics
    ("topdown", "plan"): "rejected",
    ("topdown", "compiled"): "rejected",
    ("topdown", "workers"): "rejected",
    # A precompiled plan describes the unrewritten program.
    ("magic", "plan"): "rejected",
}


def test_matrix_covers_every_field():
    # A new EvalOptions field must get a non-default value (and so a row per
    # engine) here before it ships.
    program, database = PROGRAM, graph()
    for field in FIELDS:
        assert non_default(field, "seminaive", program, database) is not None


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("layout", ["tuple", "columnar"])
def test_capability_matrix(engine, field, layout):
    database = graph(layout)
    resolved = get_engine(engine)
    default = resolved.evaluate(PROGRAM, database)
    value = non_default(field, engine, PROGRAM, database)
    if NOT_HONOURED.get((engine, field)) == "rejected":
        with pytest.raises(EvaluationError, match=f"{engine}.*{field}"):
            resolved.evaluate(PROGRAM, database, **{field: value})
        return
    result = resolved.evaluate(PROGRAM, database, **{field: value})
    assert result.idb_facts == default.idb_facts
    statistics = result.statistics
    if field == "plan":
        # The only thing a handed-in plan changes: nothing was compiled.
        assert (statistics.plans_compiled, statistics.plan_cache_hits) == (0, 1)
        statistics = dataclasses.replace(
            statistics,
            plans_compiled=default.statistics.plans_compiled,
            plan_cache_hits=default.statistics.plan_cache_hits,
        )
    assert statistics == default.statistics
    # The same options through an EvalOptions object, not keywords.
    again = resolved.evaluate(PROGRAM, database, EvalOptions(**{field: value}))
    assert again.idb_facts == default.idb_facts


@pytest.mark.parametrize("engine", ENGINES)
def test_bounds_really_bound(engine):
    # "Honoured" for the two safety valves also means they trip.
    database = graph()
    resolved = get_engine(engine)
    with pytest.raises(EvaluationError, match="exceeded 1 iterations"):
        resolved.evaluate(PROGRAM, database, max_iterations=1)
    with pytest.raises(EvaluationError, match="budget"):
        resolved.evaluate(PROGRAM, database, budget=ResourceBudget(max_rounds=1))


def test_an_engine_that_accepts_nothing_rejects_everything_but_the_hint():
    def bare(program, database, options):
        return get_engine("seminaive").evaluate(program, database)

    engine = FunctionEngine("bare", "no knobs at all", bare, accepts=frozenset())
    database = graph()
    reference = engine.evaluate(PROGRAM, database).answers()
    for field in FIELDS:
        value = non_default(field, "bare", PROGRAM, database)
        if field in ("engine", "planner"):
            assert engine.evaluate(PROGRAM, database, **{field: value}).answers() == reference
        else:
            with pytest.raises(EvaluationError, match=f"'bare' does not support the {field}"):
                engine.evaluate(PROGRAM, database, **{field: value})


def test_rewrite_engines_accept_what_their_delegate_does():
    assert get_engine("magic").accepts == get_engine("seminaive").accepts - {"plan"}
    over_topdown = TransformedEngine("m", "", lambda program: program, delegate="topdown")
    assert over_topdown.accepts == get_engine("topdown").accepts


def test_materialized_views_check_the_same_way():
    session = QuerySession(PROGRAM, graph())
    assert session.materialize(compiled=False, timeout=60).answers() == session.answers()
    with pytest.raises(EvaluationError, match="materialized view does not support the workers"):
        session.materialize(workers=2)


def test_service_defaults_are_hints_but_per_call_values_are_strict():
    service = DatalogService(graph(), workers=2, default_timeout=60)
    service.register_program("bottom-up", TEMPLATE)
    service.register_program("top-down", TEMPLATE, engine="topdown")
    # The service-wide workers=2 is dropped for the engine that cannot scale...
    assert service.execute("top-down", src=0) == service.execute("bottom-up", src=0)
    assert service.materialize("top-down", src=0).answers() == service.execute("bottom-up", src=0)
    # ...a per-call one is not.
    with pytest.raises(EvaluationError, match="'topdown' does not support the workers"):
        service.execute("top-down", src=1, workers=2)


# ----------------------------------------------------------------------
# Validation happens once, at construction, before any work
# ----------------------------------------------------------------------
BAD_OPTIONS = [
    ({"max_iterations": "3"}, EvaluationError),
    ({"max_iterations": -1}, EvaluationError),
    ({"max_iterations": True}, EvaluationError),
    ({"max_iterations": 2.0}, EvaluationError),
    ({"workers": 0}, EvaluationError),
    ({"workers": -3}, EvaluationError),
    ({"workers": True}, EvaluationError),
    ({"workers": 2.0}, EvaluationError),
    ({"workers": "2"}, EvaluationError),
    ({"timeout": "1"}, ValueError),
    ({"timeout": -1}, ValueError),
    ({"timeout": "1", "budget": ResourceBudget(timeout=5)}, ValueError),
    ({"engine": ["seminaive"]}, EvaluationError),
    ({"guard": ResourceBudget().start(), "timeout": 1}, TypeError),
]


def surfaces():
    """Every evaluating surface as ``call(keywords) -> answers of reach(0, Y)``."""
    database = graph()
    session = QuerySession(AT_0, database)
    prepared = QuerySession(TEMPLATE, database).prepare()
    service = DatalogService(database)
    service.register_program("reach", TEMPLATE)
    return {
        "engine.evaluate": lambda kw: get_engine("seminaive").evaluate(AT_0, database, **kw).answers(),
        "session.evaluate": lambda kw: session.evaluate(fresh=True, **kw).answers(),
        "session.answers": lambda kw: session.answers(fresh=True, **kw),
        "session.materialize": lambda kw: session.materialize(**kw).answers(),
        "bound.execute": lambda kw: prepared.bind(src=0).execute(**kw).answers(),
        "bound.cursor": lambda kw: frozenset(prepared.bind(src=0).cursor(**kw).fetchall()),
        "prepared.execute": lambda kw: prepared.execute(src=0, **kw).answers(),
        "prepared.answers": lambda kw: prepared.answers({"src": 0}, **kw),
        "prepared.execute_many": lambda kw: prepared.execute_many([{"src": 0}, {"src": 1}], **kw)[0],
        "prepared.materialize": lambda kw: prepared.materialize(src=0, **kw).answers(),
        "service.execute": lambda kw: service.execute("reach", src=0, fresh=True, **kw),
        "service.execute_many": lambda kw: service.execute_many("reach", [{"src": 0}], **kw)[0],
        "service.cursor": lambda kw: frozenset(service.cursor("reach", src=0, fresh=True, **kw)),
        "service.materialize": lambda kw: service.materialize("reach", src=0, **kw).answers(),
    }


AT_0 = parse_program(
    """
    ?reach(0, Y)
    reach(X, Y) :- edge(X, Y).
    reach(X, Y) :- reach(X, Z), edge(Z, Y).
    """
)


@pytest.fixture
def rounds(monkeypatch):
    """Every fixpoint round any evaluation records, as it happens."""
    seen = []
    record = EvaluationStatistics.record_iteration

    def spy(self, stratum):
        seen.append(stratum)
        record(self, stratum)

    monkeypatch.setattr(EvaluationStatistics, "record_iteration", spy)
    return seen


@pytest.mark.parametrize("keywords,error", BAD_OPTIONS, ids=lambda v: repr(v)[:40])
def test_bad_options_raise_typed_errors_before_any_round(keywords, error, rounds):
    for name, call in surfaces().items():
        with pytest.raises(error):
            call(dict(keywords))
        assert not rounds, f"{name} started evaluating before rejecting {keywords}"
    # Sanity: the probe does see rounds when an evaluation runs.
    get_engine("seminaive").evaluate(AT_0, graph())
    assert rounds


def test_an_unknown_keyword_is_a_type_error_or_a_binding(rounds):
    for name, call in surfaces().items():
        # Where bindings arrive as keywords, one that is no option is a binding.
        binds = name.split(".")[0] in ("prepared", "service") and "many" not in name
        with pytest.raises(EvaluationError if binds else TypeError, match="no_such_knob"):
            call({"no_such_knob": 1})
        assert not rounds, name


def test_zero_max_iterations_stays_a_legal_bound():
    with pytest.raises(EvaluationError, match="exceeded 0 iterations"):
        get_engine("seminaive").evaluate(AT_0, graph(), max_iterations=0)


# ----------------------------------------------------------------------
# Same keywords on every surface
# ----------------------------------------------------------------------
def test_every_surface_honours_the_same_keywords():
    reference = get_engine("seminaive").evaluate(AT_0, graph()).answers()
    for name, call in surfaces().items():
        if name.endswith("materialize"):  # a view has no rounds to bound and no workers
            keywords = dict(timeout=60, compiled=False)
        else:
            keywords = dict(max_iterations=10_000, timeout=60, workers=2, compiled=False)
        assert call(keywords) == reference, name


def test_compare_forwards_its_keywords():
    session = QuerySession(AT_0, graph())
    with pytest.raises(EvaluationError, match="exceeded 1 iterations"):
        session.compare(["seminaive"], max_iterations=1)
    with pytest.raises(EvaluationError, match="'topdown' does not support the workers"):
        session.compare(workers=2)


# ----------------------------------------------------------------------
# Structural guard: the plumbing cannot regrow
# ----------------------------------------------------------------------
SURFACES = (
    QuerySession,
    BoundQuery,
    PreparedQuery,
    DatalogService,
    DurableDatalogService,
    FunctionEngine,
    TransformedEngine,
)
#: The only places an option is spelled as a parameter: the engine a session
#: dispatches on (positional, the historical signature), the per-query
#: default engine a registration stores, and the engine name a cache probe
#: keys on (``lookup`` never evaluates, so it takes no options to forward).
NAMED_ENGINE = {
    (QuerySession, "evaluate"),
    (QuerySession, "answers"),
    (QuerySession, "prepare"),
    (DatalogService, "register_program"),
    (DurableDatalogService, "register_program"),
    (DatalogService, "lookup"),
    (DurableDatalogService, "lookup"),
}


def public_methods(cls):
    for name, member in inspect.getmembers(cls, inspect.isfunction):
        if not name.startswith("_"):
            yield name, inspect.signature(member)


def test_no_surface_declares_an_option_as_a_parameter():
    option_keywords = set(FIELDS) | {"timeout", "budget", "cancellation"}
    for cls in SURFACES:
        for name, signature in public_methods(cls):
            declared = option_keywords & set(signature.parameters)
            if (cls, name) in NAMED_ENGINE:
                declared -= {"engine"}
            assert not declared, f"{cls.__name__}.{name} re-declares {sorted(declared)}"


def test_evaluating_surfaces_all_take_the_keywords():
    evaluating = {
        QuerySession: ("evaluate", "answers", "compare", "materialize"),
        BoundQuery: ("execute", "answers", "cursor"),
        PreparedQuery: ("execute", "answers", "execute_many", "materialize"),
        DatalogService: ("execute", "execute_many", "cursor", "materialize"),
        DurableDatalogService: ("execute", "execute_many", "materialize"),
        FunctionEngine: ("evaluate",),
        TransformedEngine: ("evaluate",),
    }
    for cls, names in evaluating.items():
        signatures = dict(public_methods(cls))
        for name in names:
            kinds = {parameter.kind for parameter in signatures[name].parameters.values()}
            assert inspect.Parameter.VAR_KEYWORD in kinds, f"{cls.__name__}.{name}"
