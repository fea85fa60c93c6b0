"""Cooperative guardrails: budgets, deadlines, cancellation, and the typed
abort taxonomy — unit semantics plus the session/prepared/service surface."""

import threading

import pytest

from repro.datalog import (
    CancellationToken,
    Database,
    DatalogService,
    ExecutionGuard,
    QuerySession,
    ResourceBudget,
    build_guard,
    parse_program,
)
from repro.datalog.engine import available_engines, get_engine
from repro.errors import (
    BudgetExceeded,
    EvaluationError,
    QueryAborted,
    QueryCancelled,
    QueryTimeout,
    ReproError,
)

REACH = """\
?reach(0, Y)
reach(X, Y) :- edge(X, Y).
reach(X, Y) :- reach(X, Z), edge(Z, Y).
"""

PARAM_REACH = """\
?reach($src, Y)
reach(X, Y) :- edge(X, Y).
reach(X, Y) :- reach(X, Z), edge(Z, Y).
"""


def chain_database(n=12, layout="tuple"):
    database = Database(layout=layout)
    for i in range(n):
        database.add_fact("edge", (i, i + 1))
    return database


# ----------------------------------------------------------------------
# Budget / token / guard unit semantics
# ----------------------------------------------------------------------
class TestResourceBudget:
    def test_defaults_are_unlimited(self):
        assert ResourceBudget().unlimited

    @pytest.mark.parametrize(
        "kwargs",
        [{"timeout": -1}, {"max_facts": -1}, {"max_rounds": -2}],
    )
    def test_negative_limits_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ResourceBudget(**kwargs)

    def test_start_arms_a_guard(self):
        guard = ResourceBudget(timeout=5.0).start()
        assert isinstance(guard, ExecutionGuard)
        assert guard.deadline is not None
        assert 0 < guard.remaining() <= 5.0


class TestCancellationToken:
    def test_one_way_flag(self):
        token = CancellationToken()
        assert not token.cancelled
        token.cancel()
        token.cancel()  # idempotent
        assert token.cancelled

    def test_cancel_from_another_thread_trips_checkpoint(self):
        token = CancellationToken()
        guard = ResourceBudget().start(token)
        guard.checkpoint()  # not yet cancelled
        worker = threading.Thread(target=token.cancel)
        worker.start()
        worker.join()
        with pytest.raises(QueryCancelled):
            guard.checkpoint()


class TestExecutionGuard:
    def test_zero_timeout_trips_immediately(self):
        guard = ResourceBudget(timeout=0).start()
        with pytest.raises(QueryTimeout):
            guard.checkpoint()

    def test_round_budget_uses_statistics(self):
        class Stats:
            iterations = 3
            facts_derived = 0

        guard = ResourceBudget(max_rounds=2).start()
        with pytest.raises(BudgetExceeded):
            guard.checkpoint(Stats())

    def test_fact_budget_uses_statistics(self):
        class Stats:
            iterations = 0
            facts_derived = 100

        guard = ResourceBudget(max_facts=99).start()
        with pytest.raises(BudgetExceeded):
            guard.checkpoint(Stats())

    def test_checkpoint_without_statistics_ignores_count_budgets(self):
        guard = ResourceBudget(max_rounds=0, max_facts=0).start()
        guard.checkpoint()  # only deadline + cancellation apply
        assert guard.checkpoints == 1

    def test_abort_taxonomy_is_typed(self):
        # Every abort is a QueryAborted is an EvaluationError is a ReproError,
        # so one except clause at any layer catches the whole family.
        for error in (QueryTimeout, BudgetExceeded, QueryCancelled):
            assert issubclass(error, QueryAborted)
            assert issubclass(error, EvaluationError)
            assert issubclass(error, ReproError)


class TestBuildGuard:
    def test_nothing_bounded_returns_none(self):
        assert build_guard() is None

    def test_timeout_shorthand(self):
        guard = build_guard(timeout=2.0)
        assert guard.budget.timeout == 2.0

    def test_tighter_timeout_wins(self):
        guard = build_guard(timeout=1.0, budget=ResourceBudget(timeout=9.0))
        assert guard.budget.timeout == 1.0
        guard = build_guard(timeout=9.0, budget=ResourceBudget(timeout=1.0))
        assert guard.budget.timeout == 1.0

    def test_budget_limits_survive_merge(self):
        guard = build_guard(timeout=1.0, budget=ResourceBudget(max_facts=5))
        assert guard.budget.max_facts == 5
        assert guard.budget.timeout == 1.0

    def test_cancellation_alone_builds_a_guard(self):
        token = CancellationToken()
        guard = build_guard(cancellation=token)
        assert guard is not None and guard.cancellation is token


# ----------------------------------------------------------------------
# Every guard-supporting engine aborts, both layouts, database untouched
# ----------------------------------------------------------------------
GUARD_ENGINES = [
    name for name in available_engines() if "guard" in get_engine(name).accepts
]


@pytest.mark.parametrize("engine", GUARD_ENGINES)
@pytest.mark.parametrize("layout", ["tuple", "columnar"])
class TestEngineAborts:
    def test_round_budget_aborts(self, engine, layout):
        database = chain_database(layout=layout)
        version = database.version
        session = QuerySession(parse_program(REACH), database)
        with pytest.raises(BudgetExceeded):
            session.evaluate(engine=engine, budget=ResourceBudget(max_rounds=1))
        assert database.version == version

    def test_zero_deadline_aborts(self, engine, layout):
        database = chain_database(layout=layout)
        session = QuerySession(parse_program(REACH), database)
        with pytest.raises(QueryTimeout):
            session.evaluate(engine=engine, timeout=0)

    def test_pre_cancelled_token_aborts(self, engine, layout):
        database = chain_database(layout=layout)
        token = CancellationToken()
        token.cancel()
        session = QuerySession(parse_program(REACH), database)
        with pytest.raises(QueryCancelled):
            session.evaluate(engine=engine, cancellation=token)

    def test_ample_budget_completes_with_same_answers(self, engine, layout):
        database = chain_database(layout=layout)
        session = QuerySession(parse_program(REACH), database)
        bounded = session.evaluate(
            engine=engine,
            budget=ResourceBudget(timeout=60, max_facts=10_000, max_rounds=10_000),
        )
        free = session.evaluate(engine=engine)
        assert bounded.answers() == free.answers()


# ----------------------------------------------------------------------
# Service surface: counters, default timeout, per-request override
# ----------------------------------------------------------------------
class TestServiceGuards:
    def make_service(self, **kwargs):
        service = DatalogService(chain_database(), **kwargs)
        service.register_program("reach", parse_program(PARAM_REACH))
        return service

    def test_timeout_counter_and_untouched_state(self):
        service = self.make_service()
        version = service.database.version
        with pytest.raises(QueryTimeout):
            service.execute("reach", {"src": 0}, timeout=0)
        with pytest.raises(BudgetExceeded):
            service.execute(
                "reach", {"src": 0}, budget=ResourceBudget(max_rounds=1), fresh=True
            )
        statistics = service.statistics()
        assert statistics["timeouts"] == 2
        assert statistics["cancellations"] == 0
        assert service.database.version == version

    def test_cancellation_counter(self):
        service = self.make_service()
        token = CancellationToken()
        token.cancel()
        with pytest.raises(QueryCancelled):
            service.execute("reach", {"src": 0}, cancellation=token)
        assert service.statistics()["cancellations"] == 1

    def test_default_timeout_applies_and_override_loosens(self):
        service = self.make_service(default_timeout=0)
        with pytest.raises(QueryTimeout):
            service.execute("reach", {"src": 0})
        assert service.statistics()["timeouts"] == 1
        # An explicit per-request timeout overrides the service default.
        answers = service.execute("reach", {"src": 0}, timeout=60)
        assert answers

    def test_negative_default_timeout_rejected(self):
        with pytest.raises(ValueError):
            DatalogService(Database(), default_timeout=-1)

    def test_execute_many_budget_covers_the_batch(self):
        service = self.make_service()
        with pytest.raises(BudgetExceeded):
            service.execute_many(
                "reach",
                [{"src": i} for i in range(4)],
                budget=ResourceBudget(max_rounds=1),
            )
        assert service.statistics()["timeouts"] == 1

    def test_counters_are_monotonic_metrics(self):
        assert "timeouts" in DatalogService.MONOTONIC_STATISTICS
        assert "cancellations" in DatalogService.MONOTONIC_STATISTICS


# ----------------------------------------------------------------------
# Materialized-view build guard
# ----------------------------------------------------------------------
class TestViewBuildGuard:
    def test_build_abort_leaves_database_untouched(self):
        database = chain_database()
        version = database.version
        session = QuerySession(parse_program(REACH), database)
        with pytest.raises(BudgetExceeded):
            session.materialize(budget=ResourceBudget(max_rounds=1))
        assert database.version == version

    def test_completed_view_maintains_unguarded(self):
        database = chain_database(4)
        session = QuerySession(parse_program(REACH), database)
        view = session.materialize(timeout=60)
        before = len(view.answers())
        view.apply(insertions=[("edge", (4, 5))])
        assert len(view.answers()) == before + 1


# ----------------------------------------------------------------------
# CLI --timeout
# ----------------------------------------------------------------------
class TestCliTimeout:
    def test_evaluate_timeout_aborts(self, tmp_path, capsys):
        from repro.cli import main

        program = tmp_path / "p.dl"
        program.write_text(REACH)
        facts = tmp_path / "f.dl"
        facts.write_text("".join(f"edge({i}, {i + 1}).\n" for i in range(10)))
        assert main(["evaluate", str(program), str(facts), "--timeout", "0"]) == 2
        assert "deadline" in capsys.readouterr().err

    def test_evaluate_generous_timeout_succeeds(self, tmp_path, capsys):
        from repro.cli import main

        program = tmp_path / "p.dl"
        program.write_text(REACH)
        facts = tmp_path / "f.dl"
        facts.write_text("edge(0, 1).\nedge(1, 2).\n")
        assert main(["evaluate", str(program), str(facts), "--timeout", "60"]) == 0
        assert "2 answers" in capsys.readouterr().out
