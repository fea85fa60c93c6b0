"""Unit tests for the naive, semi-naive, and top-down evaluation engines."""

import pytest

from repro.datalog import Database, get_engine, parse_program

evaluate_naive = get_engine("naive").evaluate
evaluate_seminaive = get_engine("seminaive").evaluate
evaluate_topdown = get_engine("topdown").evaluate
from repro.datalog.engine.base import select_answers
from repro.datalog.atoms import Atom
from repro.errors import EvaluationError


ENGINES = [evaluate_naive, evaluate_seminaive, evaluate_topdown]


@pytest.mark.parametrize("engine", ENGINES)
class TestAncestor:
    def test_ancestors_of_john(self, engine, ancestor_a, family_database):
        result = engine(ancestor_a.program, family_database)
        assert result.answers() == {("mary",), ("sue",), ("tim",)}

    def test_all_four_programs_agree(self, engine, family_database):
        from repro.core.examples_catalog import ancestor_portfolio

        portfolio = ancestor_portfolio()
        answers = set()
        for name, program in portfolio.items():
            raw = program.program if hasattr(program, "program") else program
            answers.add(frozenset(engine(raw, family_database).answers()))
        assert len(answers) == 1

    def test_empty_database(self, engine, ancestor_a):
        result = engine(ancestor_a.program, Database())
        assert result.answers() == frozenset()


class TestTransitiveClosure:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_closure_on_cycle(self, engine, transitive_closure_program):
        database = Database({"b": [(0, 1), (1, 2), (2, 0)]})
        result = engine(transitive_closure_program, database)
        # Every ordered pair is connected on a 3-cycle.
        assert len(result.answers()) == 9

    def test_minimum_model_contains_edb_derived_facts_only(self, transitive_closure_program):
        database = Database({"b": [(0, 1)]})
        result = evaluate_seminaive(transitive_closure_program, database)
        assert result.relation("p") == {(0, 1)}
        assert result.full_model().relation("b") == {(0, 1)}


class TestFactsAndConstants:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_database_facts_of_idb_predicates_are_in_the_model(self, engine):
        # An IDB predicate may also hold database facts; the minimum model of
        # B ∪ H contains them like any other B fact, so every engine must
        # answer through them (regression: top-down used to resolve IDB
        # subgoals through rules only and dropped the database's f tuples).
        program = parse_program(
            """
            ?t(X, Y)
            f(0, 0).
            t(X, Y) :- f(X, Y).
            t(X, Y) :- t(X, Z), e(Z, Y).
            """
        )
        database = Database({"f": [(0, 1)], "e": [(1, 2)]})
        result = engine(program, database)
        assert result.answers() == {(0, 0), (0, 1), (0, 2)}

    @pytest.mark.parametrize("engine", ENGINES)
    def test_fact_rules_are_loaded(self, engine):
        program = parse_program(
            """
            ?reach(Y)
            start(c).
            reach(Y) :- start(X), edge(X, Y).
            reach(Y) :- reach(X), edge(X, Y).
            """
        )
        database = Database({"edge": [("c", "d"), ("d", "e"), ("x", "y")]})
        result = engine(program, database)
        assert result.answers() == {("d",), ("e",)}

    @pytest.mark.parametrize("engine", ENGINES)
    def test_constants_in_rule_bodies(self, engine):
        program = parse_program(
            """
            ?friend_of_ann(Y)
            friend_of_ann(Y) :- knows(ann, Y).
            """
        )
        database = Database({"knows": [("ann", "bob"), ("carl", "dan")]})
        assert engine(program, database).answers() == {("bob",)}


class TestStatistics:
    def test_seminaive_avoids_naive_refirings(self, ancestor_a):
        database = Database({"par": [(i, i + 1) for i in range(15)]})
        naive = evaluate_naive(ancestor_a.program, database)
        semi = evaluate_seminaive(ancestor_a.program, database)
        assert naive.answers() == semi.answers()
        assert semi.statistics.rule_firings < naive.statistics.rule_firings
        assert naive.statistics.duplicate_derivations > 0

    def test_iteration_guard(self, ancestor_a, family_database):
        with pytest.raises(EvaluationError):
            evaluate_seminaive(ancestor_a.program, family_database, max_iterations=1)

    def test_stats_absorb(self):
        from repro.datalog.engine.stats import EvaluationStatistics

        left = EvaluationStatistics(
            iterations=1, rule_firings=2, facts_derived=3, duplicate_derivations=1,
            facts_per_predicate={"p": 2, "q": 1}, strata=1,
            iterations_per_stratum={"p": 1}, plans_compiled=1,
        )
        right = EvaluationStatistics(
            iterations=4, rule_firings=5, facts_derived=6, duplicate_derivations=2,
            facts_per_predicate={"q": 4, "r": 2}, strata=2,
            iterations_per_stratum={"p": 1, "q,r": 3}, plan_cache_hits=1,
        )
        left.absorb(right)
        assert left == EvaluationStatistics(
            iterations=5, rule_firings=7, facts_derived=9, duplicate_derivations=3,
            facts_per_predicate={"p": 2, "q": 5, "r": 2}, strata=3,
            iterations_per_stratum={"p": 2, "q,r": 3}, plans_compiled=1, plan_cache_hits=1,
        )
        assert right.facts_per_predicate == {"q": 4, "r": 2}  # the argument is only read


class TestSelectAnswers:
    def test_constant_selection(self):
        tuples = {("john", "mary"), ("ann", "bob")}
        assert select_answers(Atom("anc", ("john", "Y")), tuples) == {("mary",)}

    def test_equality_selection(self):
        tuples = {("a", "a"), ("a", "b")}
        assert select_answers(Atom("p", ("X", "X")), tuples) == {("a",)}

    def test_boolean_selection(self):
        assert select_answers(Atom("p", ("a", "b")), {("a", "b")}) == {()}
        assert select_answers(Atom("p", ("a", "b")), {("a", "c")}) == frozenset()

    def test_free_selection_projects_in_variable_order(self):
        tuples = {("1", "2")}
        assert select_answers(Atom("p", ("X", "Y")), tuples) == {("1", "2")}


class TestTopDownRelevance:
    def test_topdown_explores_only_goal_relevant_facts(self, ancestor_b):
        database = Database()
        for i in range(30):
            database.add_edge("par", f"a{i}", f"a{i + 1}")
        database.add_edge("par", "john", "a0")
        bottom_up = evaluate_seminaive(ancestor_b.program, database)
        top_down = evaluate_topdown(ancestor_b.program, database)
        assert bottom_up.answers() == top_down.answers()
        # Bottom-up derives anc facts for every starting person, top-down only for john's calls.
        assert top_down.statistics.facts_derived <= bottom_up.statistics.facts_derived
