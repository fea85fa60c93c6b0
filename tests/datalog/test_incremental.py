"""Incremental view maintenance: database removal, counting, DRed, integration."""

import pytest

from repro.core.workloads import parent_forest
from repro.datalog import (
    Database,
    DatalogService,
    MaterializedView,
    QuerySession,
    get_engine,
    parse_program,
)
from repro.datalog.database import OverlayDatabase
from repro.datalog.transforms import MagicSets
from repro.errors import EvaluationError

TC = parse_program(
    """
    ?tc(X, Y)
    tc(X, Y) :- e(X, Y).
    tc(X, Y) :- tc(X, Z), e(Z, Y).
    """
)

GRANDPARENT = parse_program(
    """
    ?gp(X, Y)
    gp(X, Y) :- par(X, Z), par(Z, Y).
    """
)


def chain_dict(length=10):
    return [(i, i + 1) for i in range(length)]


def from_scratch(program, view):
    return get_engine("seminaive").evaluate(program, view.base_facts())


# ----------------------------------------------------------------------
# Database removal (the write-side mirror of add_facts)
# ----------------------------------------------------------------------
class TestDatabaseRemoval:
    def test_remove_fact_and_retract(self):
        database = Database({"e": [(1, 2), (2, 3)]})
        assert database.remove_fact("e", (1, 2))
        assert not database.remove_fact("e", (1, 2))
        assert database.retract("e", (9, 9)) is False
        assert database.relation("e") == {(2, 3)}

    def test_remove_facts_bumps_version_once(self):
        database = Database({"e": [(1, 2), (2, 3), (3, 4)]})
        version = database.version
        removed = database.remove_facts([("e", (1, 2)), ("e", (3, 4)), ("e", (9, 9))])
        assert removed == 2
        assert database.version == version + 1
        # removing nothing does not bump
        assert database.remove_facts([("e", (9, 9))]) == 0
        assert database.version == version + 1

    def test_removal_maintains_snapshots_and_indexes(self):
        database = Database({"e": [(1, 2), (1, 3), (2, 3)]})
        # Warm the snapshot and a position index, then retract through them.
        assert database.relation("e") == {(1, 2), (1, 3), (2, 3)}
        assert set(database.probe("e", 0, 1)) == {(1, 2), (1, 3)}
        database.remove_facts([("e", (1, 2))])
        assert database.relation("e") == {(1, 3), (2, 3)}
        assert set(database.probe("e", 0, 1)) == {(1, 3)}
        assert database.cardinality("e") == 2
        # A fully retracted probe value falls back to the shared empty result.
        database.remove_facts([("e", (1, 3))])
        assert list(database.probe("e", 0, 1)) == []

    def test_emptied_relations_leave_no_phantoms(self):
        database = Database({"e": [(1, 2)]})
        database.remove_facts([("e", (1, 2))])
        assert database.predicates() == frozenset()
        assert database == Database()

    def test_atoms_accepted_like_add_facts(self):
        from repro.datalog.atoms import ground_atom

        database = Database({"e": [(1, 2)]})
        assert database.remove_facts([ground_atom("e", (1, 2))]) == 1

    def test_overlay_retraction_cannot_touch_the_base(self):
        base = Database({"e": [(1, 2)]})
        overlay = OverlayDatabase(base)
        overlay.add_fact("e", (2, 3))
        with pytest.raises(TypeError, match="cannot retract"):
            overlay.remove_facts([("e", (1, 2))])
        with pytest.raises(TypeError, match="cannot retract"):
            overlay.remove_fact("e", (1, 2))
        assert base.relation("e") == {(1, 2)}
        assert overlay.contains("e", (1, 2))
        # Local-only facts retract fine and leave the base untouched.
        assert overlay.remove_fact("e", (2, 3))
        assert base.relation("e") == {(1, 2)}


# ----------------------------------------------------------------------
# MaterializedView: build, counting, DRed
# ----------------------------------------------------------------------
class TestMaterializedView:
    def test_initial_build_matches_engine(self):
        database = Database({"e": chain_dict()})
        view = MaterializedView(TC, database)
        reference = get_engine("seminaive").evaluate(TC, database)
        assert view.idb_facts() == reference.idb_facts
        assert view.answers() == reference.answers()
        # The input database is not mutated (the view owns its own model).
        assert database.fact_count() == 10

    def test_strata_classified_counting_vs_dred(self):
        program = parse_program(
            """
            ?s(X, Y)
            t(X, Y) :- e(X, Y).
            t(X, Y) :- t(X, Z), e(Z, Y).
            s(X, Y) :- f(X, Z), t(Z, Y).
            """
        )
        view = MaterializedView(program, Database({"e": [(1, 2)], "f": [(0, 1)]}))
        assert view.counting_predicates == frozenset({"s"})
        text = view.describe()
        assert "counting" in text and "DRed" in text

    def test_insertion_propagates_through_recursion(self):
        database = Database({"e": chain_dict()})
        view = MaterializedView(TC, database)
        report = view.apply(insertions=[("e", (10, 11))])
        assert report.base_inserted == 1
        assert report.derived_added == 11  # tc(i, 11) for i in 0..10
        assert view.idb_facts() == from_scratch(TC, view).idb_facts

    def test_duplicate_insert_is_a_noop(self):
        view = MaterializedView(TC, Database({"e": chain_dict()}))
        version = view.model.version
        report = view.apply(insertions=[("e", (0, 1))])
        assert report.base_inserted == 0 and report.derived_added == 0
        assert view.model.version == version

    def test_deleting_underived_fact_is_a_noop(self):
        view = MaterializedView(TC, Database({"e": chain_dict()}))
        report = view.apply(deletions=[("e", (99, 100)), ("tc", (0, 5))])
        assert report.base_deleted == 0
        assert view.idb_facts() == from_scratch(TC, view).idb_facts

    def test_counting_supports_are_exact(self):
        database = Database(
            {"par": [("a", "b"), ("b", "c"), ("b", "d"), ("x", "b")]}
        )
        view = MaterializedView(GRANDPARENT, database)
        assert view.counting_predicates == frozenset({"gp"})
        assert view.support("gp", ("a", "c")) == 1
        view.apply(insertions=[("par", ("a", "b2")), ("par", ("b2", "c"))])
        assert view.support("gp", ("a", "c")) == 2
        # Losing one of two derivations keeps the fact.
        view.apply(deletions=[("par", ("b", "c"))])
        assert view.support("gp", ("a", "c")) == 1
        assert ("a", "c") in view.relation("gp")
        # Losing the last derivation removes it.
        view.apply(deletions=[("par", ("b2", "c"))])
        assert view.support("gp", ("a", "c")) == 0
        assert ("a", "c") not in view.relation("gp")
        assert view.idb_facts() == from_scratch(GRANDPARENT, view).idb_facts

    def test_program_fact_rules_count_as_one_support(self):
        # A fact-rule tuple of a counting predicate has exactly one support
        # (the fact rule, tracked inside the derivation counts) — support()
        # must not add a second one on top.
        program = parse_program(
            """
            ?t(X, Y)
            t(1, 2).
            t(X, Y) :- e(X, Y).
            """
        )
        view = MaterializedView(program, Database({"e": [(3, 4)]}))
        assert view.support("t", (1, 2)) == 1
        assert view.support_counts("t") == {(1, 2): 1, (3, 4): 1}
        # Base-asserting the same tuple adds exactly one more support.
        view.apply(insertions=[("t", (1, 2))])
        assert view.support("t", (1, 2)) == 2

    def test_support_counts_rejects_recursive_predicates(self):
        view = MaterializedView(TC, Database({"e": [(1, 2)]}))
        with pytest.raises(EvaluationError, match="Delete-and-Rederive"):
            view.support_counts("tc")

    def test_base_assertion_of_derived_fact_survives_derivation_loss(self):
        # gp(a, c) is both derived and explicitly asserted; retracting the
        # deriving par facts must keep it (base support), and retracting the
        # assertion afterwards must finally remove it.
        database = Database(
            {"par": [("a", "b"), ("b", "c")], "gp": [("a", "c")]}
        )
        view = MaterializedView(GRANDPARENT, database)
        assert view.support("gp", ("a", "c")) == 2  # derivation + assertion
        view.apply(deletions=[("par", ("a", "b"))])
        assert ("a", "c") in view.relation("gp")
        view.apply(deletions=[("gp", ("a", "c"))])
        assert ("a", "c") not in view.relation("gp")

    def test_mixed_batch_deletes_before_inserts(self):
        view = MaterializedView(TC, Database({"e": chain_dict()}))
        # Replace edge 5->6 with a detour through a fresh node in one batch.
        view.apply(
            insertions=[("e", (5, 50)), ("e", (50, 6))],
            deletions=[("e", (5, 6))],
        )
        assert view.idb_facts() == from_scratch(TC, view).idb_facts
        assert (0, 10) in view.relation("tc")

    def test_interpreted_view_matches_compiled(self):
        database = Database({"e": chain_dict(), "f": [(0, 3)]})
        program = parse_program(
            """
            ?s(X, Y)
            t(X, Y) :- e(X, Y).
            t(X, Y) :- t(X, Z), e(Z, Y).
            s(X, Y) :- f(X, Z), t(Z, Y).
            """
        )
        compiled = MaterializedView(program, database)
        interpreted = MaterializedView(program, database, compiled=False)
        for ins, dels in [
            ([("e", (10, 11))], []),
            ([], [("e", (3, 4))]),
            ([("f", (1, 5))], [("e", (0, 1))]),
        ]:
            compiled.apply(insertions=ins, deletions=dels)
            interpreted.apply(insertions=ins, deletions=dels)
            assert compiled.idb_facts() == interpreted.idb_facts()

    def test_view_accepts_overlay_databases(self):
        base = Database({"e": chain_dict()})
        overlay = base.overlay()
        overlay.add_fact("e", (10, 11))
        view = MaterializedView(TC, overlay)
        view.apply(deletions=[("e", (10, 11))])
        assert base.contains("e", (0, 1))
        assert view.idb_facts() == from_scratch(TC, view).idb_facts


# ----------------------------------------------------------------------
# Deletion edge cases (regression tests)
# ----------------------------------------------------------------------
class TestDeletionEdgeCases:
    def test_dred_keeps_fact_rederivable_through_a_cycle(self):
        # The shortcut e(a, c) and the cycle path a->b->c both prove
        # tc(a, c); retracting the shortcut must keep every tc fact, because
        # rederivation finds the alternative proof around the cycle.
        database = Database(
            {"e": [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a"), ("a", "c")]}
        )
        view = MaterializedView(TC, database)
        before = view.relation("tc")
        report = view.apply(deletions=[("e", ("a", "c"))])
        assert report.overdeleted > 0
        assert report.rederived == report.overdeleted  # everything came back
        assert view.relation("tc") == before
        assert view.idb_facts() == from_scratch(TC, view).idb_facts

    def test_dred_cycle_break_removes_exactly_the_unreachable(self):
        database = Database({"e": [("a", "b"), ("b", "c"), ("c", "a")]})
        view = MaterializedView(TC, database)
        assert ("a", "a") in view.relation("tc")
        view.apply(deletions=[("e", ("c", "a"))])
        reference = from_scratch(TC, view)
        assert view.idb_facts() == reference.idb_facts
        assert ("a", "a") not in view.relation("tc")
        assert ("a", "c") in view.relation("tc")

    def test_fact_rule_only_predicate_base_deletion(self):
        # p has no proper rules, so no stratum owns it — its base facts must
        # still be retractable (while the program's own fact rule is pinned).
        program = parse_program(
            """
            ?q(X)
            p(a).
            q(X) :- p(X).
            """
        )
        view = MaterializedView(program, Database({"p": [("b",)]}))
        assert view.answers() == {("a",), ("b",)}
        report = view.apply(deletions=[("p", ("b",)), ("p", ("a",))])
        assert report.base_deleted == 1  # p(a) is program-pinned, not base
        assert view.answers() == {("a",)}
        assert view.idb_facts() == from_scratch(program, view).idb_facts

    def test_param_seed_relations_are_not_retractable(self):
        template = parse_program(
            """
            ?anc($who, Y)
            anc(X, Y) :- par(X, Y).
            anc(X, Y) :- anc(X, Z), par(Z, Y).
            """
        )
        database = parent_forest(60, seed=3, root_count=2)
        prepared = (
            QuerySession(template, database).with_transforms(MagicSets()).prepare()
        )
        view = prepared.materialize(who="john")
        answers = view.answers()
        assert answers == prepared.answers(who="john")
        # The binding's seed fact is program-level support, not a base fact:
        # retracting it is a no-op and the answers survive.
        report = view.apply(deletions=[("__param_who", ("john",))])
        assert report.base_deleted == 0
        assert view.answers() == answers
        # Retracting a real EDB fact feeding the seeded magic chain works.
        child = sorted(answers)[0][0]
        view.apply(deletions=[("par", ("john", child))])
        reference = get_engine("seminaive").evaluate(
            view.program, view.base_facts()
        )
        assert view.answers() == reference.answers()

    def test_overlay_retraction_goes_through_the_view_not_the_base(self):
        # A view built over an overlay materializes its own model, so
        # retracting through the view never touches the overlay's base.
        base = Database({"e": [("a", "b"), ("b", "c")]})
        overlay = base.overlay()
        view = MaterializedView(TC, overlay)
        view.apply(deletions=[("e", ("a", "b"))])
        assert base.relation("e") == {("a", "b"), ("b", "c")}
        assert ("a", "b") not in view.relation("tc")


# ----------------------------------------------------------------------
# Session / service integration
# ----------------------------------------------------------------------
class TestSessionMaterialize:
    def test_session_materialize_tracks_transforms(self):
        database = parent_forest(60, seed=7, root_count=2)
        program = parse_program(
            """
            ?anc(john, Y)
            anc(X, Y) :- par(X, Y).
            anc(X, Y) :- anc(X, Z), par(Z, Y).
            """
        )
        session = QuerySession(program, database).with_transforms(MagicSets())
        view = session.materialize()
        assert view.answers() == session.answers()
        view.apply(insertions=[("par", ("john", "fresh"))])
        assert ("fresh",) in view.answers()

    def test_parameterized_templates_must_be_prepared_first(self):
        template = parse_program(
            """
            ?anc($who, Y)
            anc(X, Y) :- par(X, Y).
            """
        )
        session = QuerySession(template, parent_forest(20, seed=1))
        with pytest.raises(Exception, match="prepare"):
            session.materialize()


class TestServiceMaterializedViews:
    TEMPLATE = """
    ?anc($who, Y)
    anc(X, Y) :- par(X, Y).
    anc(X, Y) :- anc(X, Z), par(Z, Y).
    """

    def build(self):
        service = DatalogService(parent_forest(80, seed=5, root_count=3))
        service.register_program("anc", self.TEMPLATE, transforms=(MagicSets(),))
        return service

    def test_materialized_bindings_served_from_the_view(self):
        service = self.build()
        baseline = service.execute("anc", who="john")
        service.materialize("anc", who="john")
        assert service.execute("anc", who="john") == baseline
        statistics = service.statistics()
        assert statistics["materialized_views"] == 1
        assert statistics["view_hits"] == 1

    def test_writes_maintain_views_instead_of_invalidating(self):
        service = self.build()
        view = service.materialize("anc", who="john")
        executions_before = service.statistics()["executions"]
        service.add_facts([("par", ("john", "zz1")), ("par", ("zz1", "zz2"))])
        answers = service.execute("anc", who="john")
        assert ("zz1",) in answers and ("zz2",) in answers
        service.remove_facts([("par", ("zz1", "zz2"))])
        answers = service.execute("anc", who="john")
        assert ("zz1",) in answers and ("zz2",) not in answers
        # No engine executions were spent on the materialized binding.
        assert service.statistics()["executions"] == executions_before
        assert view.maintenance.applies == 2

    def test_fresh_and_engine_override_bypass_the_view(self):
        # fresh=True promises "the engine really runs" and an explicit
        # engine choice must be honoured — neither may be silently served
        # from a live view.
        service = self.build()
        baseline = service.execute("anc", who="john", fresh=True)
        service.materialize("anc", who="john")
        executions = service.statistics()["executions"]
        assert service.execute("anc", who="john", fresh=True) == baseline
        assert service.execute("anc", who="john", engine="seminaive") == baseline
        assert service.statistics()["executions"] == executions + 2
        assert service.statistics()["view_hits"] == 0

    def test_unmaterialized_bindings_still_invalidate_by_epoch(self):
        service = self.build()
        service.materialize("anc", who="john")
        before = service.execute("anc", who="p1")
        epoch = service.statistics()["write_epoch"]
        service.add_facts([("par", ("p1", "zz9"))])
        assert service.statistics()["write_epoch"] == epoch + 1
        assert service.execute("anc", who="p1") == before | {("zz9",)}

    def test_remove_facts_swaps_snapshots(self):
        service = self.build()
        database_before = service.database
        removed = service.remove_facts([("par", ("nobody", "never"))])
        assert removed == 0
        assert service.database is database_before  # no-op writes do not swap
        child = next(
            values[1]
            for values in sorted(service.database.relation("par"), key=repr)
            if values[0] == "john"
        )
        assert service.remove_facts([("par", ("john", child))]) == 1
        assert service.database is not database_before
        assert database_before.contains("par", ("john", child))

    def test_materialize_same_binding_returns_same_view(self):
        service = self.build()
        assert service.materialize("anc", who="john") is service.materialize(
            "anc", who="john"
        )
        assert service.dematerialize("anc", who="john")
        assert not service.dematerialize("anc", who="john")

    def test_reregistration_drops_views(self):
        service = self.build()
        service.materialize("anc", who="john")
        service.register_program("anc", self.TEMPLATE, replace=True)
        assert service.statistics()["materialized_views"] == 0


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------
class TestIncrementalCli:
    def test_evaluate_incremental_flag(self, tmp_path, capsys):
        from repro.cli import main

        program = tmp_path / "q.dl"
        program.write_text(
            "?tc(X, Y)\n"
            "tc(X, Y) :- e(X, Y).\n"
            "tc(X, Y) :- tc(X, Z), e(Z, Y).\n"
        )
        facts = tmp_path / "facts.dl"
        facts.write_text("e(a, b).\ne(b, c).\n")
        assert main(["evaluate", str(program), str(facts), "--incremental"]) == 0
        out = capsys.readouterr().out
        assert "materialized view" in out
        assert "DRed" in out
