"""The engine registry: lookup, registration, and cross-engine answer parity."""

import pytest

from repro.core.chain import ChainProgram
from repro.core.examples_catalog import (
    program_a,
    program_b,
    program_c,
    program_d,
    same_generation_program,
    section7_program,
)
from repro.core.workloads import (
    labeled_random_graph,
    layered_anbn_graph,
    parent_forest,
    same_generation_database,
)
from repro.datalog import Database, QuerySession
from repro.datalog.engine import (
    EngineNotFoundError,
    EvaluationResult,
    FunctionEngine,
    available_engines,
    engine_descriptions,
    get_engine,
    register_engine,
    unregister_engine,
)

evaluate_seminaive = get_engine("seminaive").evaluate


# ----------------------------------------------------------------------
# Registry mechanics
# ----------------------------------------------------------------------
def test_builtin_engines_are_registered():
    assert set(available_engines()) >= {"naive", "seminaive", "topdown", "magic"}


def test_get_engine_unknown_name_raises_with_listing():
    with pytest.raises(EngineNotFoundError, match="seminaive"):
        get_engine("does-not-exist")


def test_register_rejects_silent_shadowing_and_honours_replace():
    probe = FunctionEngine("seminaive", "shadow", evaluate_seminaive)
    with pytest.raises(ValueError, match="already registered"):
        register_engine(probe)
    original = get_engine("seminaive")
    register_engine(probe, replace=True)
    try:
        assert get_engine("seminaive") is probe
    finally:
        register_engine(original, replace=True)


def test_register_and_unregister_custom_engine():
    custom = FunctionEngine("custom-test-engine", "a seminaive clone", evaluate_seminaive)
    register_engine(custom)
    try:
        assert "custom-test-engine" in available_engines()
        assert get_engine("custom-test-engine") is custom
        assert "seminaive clone" in engine_descriptions()["custom-test-engine"]
    finally:
        unregister_engine("custom-test-engine")
    assert "custom-test-engine" not in available_engines()


def test_engine_evaluate_returns_evaluation_result():
    database = parent_forest(40, seed=9, root_count=2)
    result = get_engine("naive").evaluate(program_a().program, database)
    assert isinstance(result, EvaluationResult)
    assert result.answers() == evaluate_seminaive(program_a().program, database).answers()


def test_topdown_max_iterations_is_per_query_not_per_evaluator():
    from repro.datalog.engine import TopDownEvaluator

    database = parent_forest(60, seed=12, root_count=2)
    evaluator = TopDownEvaluator(program_a().program, database)
    bound = None
    first = evaluator.query(max_iterations=bound)
    used = evaluator.statistics.iterations
    # A second query on the warm, already-converged evaluator must not trip a
    # limit the first query fit within.
    assert evaluator.query(max_iterations=used) == first


# ----------------------------------------------------------------------
# Engine parity on the examples catalogue
# ----------------------------------------------------------------------
def _with_goal_edge(database: Database, predicate: str, constant: str) -> Database:
    """Ensure the goal constant occurs in the data so answers are non-trivial."""
    database.add_edge(predicate, constant, "n0")
    return database


CATALOG = [
    ("ancestor_A", program_a(), parent_forest(80, seed=1, root_count=3)),
    ("ancestor_B", program_b(), parent_forest(80, seed=2, root_count=3)),
    ("ancestor_C", program_c(), parent_forest(80, seed=3, root_count=3)),
    ("ancestor_D", program_d(), _with_goal_edge(parent_forest(80, seed=4, root_count=3), "par", "john")),
    (
        "same_generation",
        same_generation_program(),
        _with_goal_edge(same_generation_database(4, branching=2), "up", "c"),
    ),
    ("section_7_anbn", section7_program(), layered_anbn_graph(6, noise_branches=2)),
    (
        "two_letter_mutual_recursion",
        ChainProgram.from_text(
            """
            ?p(c, Y)
            p(X, Y) :- b1(X, X1), q(X1, Y).
            q(X, Y) :- b2(X, Y).
            q(X, Y) :- b2(X, X1), p(X1, Y).
            """
        ),
        _with_goal_edge(labeled_random_graph(12, 40, ["b1", "b2"], seed=5), "b1", "c"),
    ),
]


@pytest.mark.parametrize("label,program,database", CATALOG, ids=[c[0] for c in CATALOG])
def test_every_registered_engine_returns_identical_answers(label, program, database):
    session = QuerySession(program, database)
    results = session.compare()  # silently skips engines that reject the program
    assert set(results) >= {"naive", "seminaive", "topdown"}
    answer_sets = {name: result.answers() for name, result in results.items()}
    reference = answer_sets["seminaive"]
    assert all(answers == reference for answers in answer_sets.values()), answer_sets


@pytest.mark.parametrize("label,program,database", CATALOG, ids=[c[0] for c in CATALOG])
def test_parity_holds_via_direct_registry_calls(label, program, database):
    program = getattr(program, "program", program)
    reference = get_engine("seminaive").evaluate(program, database).answers()
    assert get_engine("naive").evaluate(program, database).answers() == reference
    assert get_engine("topdown").evaluate(program, database).answers() == reference


# ----------------------------------------------------------------------
# Removed shims
# ----------------------------------------------------------------------
class TestShimsRemoved:
    """The PR 3 deprecation shims warned for three releases and are gone."""

    def test_evaluate_free_functions_are_gone(self):
        import repro.datalog
        import repro.datalog.engine
        import repro.datalog.engine.naive as naive_module
        import repro.datalog.engine.seminaive as seminaive_module
        import repro.datalog.engine.topdown as topdown_module

        assert not hasattr(naive_module, "evaluate_naive")
        assert not hasattr(seminaive_module, "evaluate_seminaive")
        assert not hasattr(topdown_module, "evaluate_topdown")
        for namespace in (repro.datalog, repro.datalog.engine):
            for name in ("evaluate_naive", "evaluate_seminaive", "evaluate_topdown"):
                assert not hasattr(namespace, name)
                assert name not in namespace.__all__

    def test_relation_index_is_gone(self):
        import repro.datalog.engine.base as base_module

        assert not hasattr(base_module, "RelationIndex")

    def test_registry_engines_do_not_warn(self, family_database):
        import warnings

        program = program_a().program
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            for name in ("naive", "seminaive", "topdown", "magic"):
                get_engine(name).evaluate(program, family_database)
