"""Compiled slot-based join kernels: units, parity, and cross-engine properties."""

import linecache
import traceback

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.counterexamples import anbn_program
from repro.core.examples_catalog import (
    program_a,
    program_b,
    program_c,
    program_d,
    same_generation_program,
    section7_transformed,
)
from repro.core.workloads import (
    labeled_random_graph,
    layered_anbn_graph,
    parent_forest,
    same_generation_database,
)
from repro.datalog import Database, QuerySession
from repro.datalog.engine import available_engines, compile_program_plan, get_engine
from repro.datalog.engine.base import match_body
from repro.datalog.engine.executor import (
    PROBE_CONST,
    PROBE_SCAN,
    PROBE_SLOT,
    compile_rule_kernel,
)
from repro.datalog.engine.planner import plan_rule
from repro.datalog.parser import parse_program, parse_rule

# The public compiled/interpreted toggle: registry engines accept compiled=.
evaluate_naive = get_engine("naive").evaluate
evaluate_seminaive = get_engine("seminaive").evaluate
from repro.datalog.rules import Rule
from repro.datalog.terms import Parameter


def kernel_for(text: str, estimates=None, delta_predicates=frozenset()):
    rule = parse_rule(text)
    plan = plan_rule(rule, dict(estimates or {}), delta_predicates=delta_predicates)
    return rule, plan, compile_rule_kernel(plan)


def interpreted_heads(rule: Rule, plan, database, delta_position=None, delta=None):
    """Reference: head tuples via the match_body interpreter, same order spec."""
    order = plan.order if delta_position is None else next(
        variant.order for variant in plan.variants if variant.position == delta_position
    )
    return sorted(
        plan.head_values(substitution)
        for substitution in match_body(
            rule.body,
            database,
            delta_position=delta_position,
            delta_index=delta,
            order=order,
        )
    )


# ----------------------------------------------------------------------
# Compilation units
# ----------------------------------------------------------------------
class TestCompilation:
    def test_registers_numbered_by_first_body_occurrence(self):
        _, _, kernel = kernel_for("h(Y, X) :- p(X, Y), q(Y, Z).")
        assert kernel.register_count == 3
        assert kernel.slot_names == ("X", "Y", "Z")
        # Head extraction reads slots directly: Y is slot 1, X is slot 0.
        assert kernel.head_ops == ((True, 1), (True, 0))
        assert kernel.head([10, 20, 30]) == (20, 10)

    def test_head_constants_are_baked_in(self):
        _, _, kernel = kernel_for("h(X, c, X) :- p(X, Y).")
        assert kernel.head_ops == ((True, 0), (False, "c"), (True, 0))
        assert kernel.head([7, None]) == (7, "c", 7)

    def test_constant_probe_and_residual_checks(self):
        _, _, kernel = kernel_for("h(X) :- p(c, X, d).")
        (step,) = kernel.static_steps
        assert step.probe_kind == PROBE_CONST
        assert (step.probe_position, step.probe_value) == (0, "c")
        # The probed column needs no check; the other constant does.
        assert step.const_checks == ((2, "d"),)
        assert step.binds == ((1, 0),)

    def test_bound_variable_becomes_slot_probe(self):
        _, _, kernel = kernel_for("h(X, Y) :- p(X, Z), q(Z, Y).")
        first, second = kernel.static_steps
        assert first.probe_kind == PROBE_SCAN
        assert second.probe_kind == PROBE_SLOT
        # Z was bound into its slot by the first step and probes q's column 0.
        assert second.probe_position == 0
        assert second.probe_slot == first.binds[1][1]

    def test_repeated_variable_in_one_atom_compiles_to_self_check(self):
        _, _, kernel = kernel_for("h(X) :- p(X, X).")
        (step,) = kernel.static_steps
        assert step.self_checks == ((1, 0),)
        assert step.binds == ((0, 0),)

    def test_delta_variants_share_the_slot_file(self):
        _, plan, kernel = kernel_for(
            "anc(X, Y) :- par(X, Z), anc(Z, Y).",
            {"par": 10, "anc": 50},
            delta_predicates=frozenset({"anc"}),
        )
        assert kernel.delta_positions == (1,)
        delta_steps = kernel.delta_steps[1]
        assert delta_steps[0].use_delta and delta_steps[0].predicate == "anc"
        assert not delta_steps[1].use_delta
        # Same registers as the static order: Z's slot probes par's column 1.
        assert delta_steps[1].probe_kind == PROBE_SLOT

    def test_parameter_rules_are_not_compiled(self):
        rule = parse_rule("h(X) :- p($who, X).")
        assert any(isinstance(term, Parameter) for atom in rule.body for term in atom.terms)
        plan = plan_rule(rule, {})
        assert compile_rule_kernel(plan) is None

    def test_program_plan_records_uncompilable_rules_as_none(self):
        program = parse_program(
            """
            ?h(X)
            h(X) :- p($who, X).
            """
        )
        plan = compile_program_plan(program, Database({"p": [("a", 1)]}))
        (rule,) = [rule for rule in program.rules if not rule.is_fact()]
        assert plan.kernel(rule) is None
        assert "interpreted match_body path" in plan.describe()


# ----------------------------------------------------------------------
# Execution units
# ----------------------------------------------------------------------
class TestExecution:
    def test_static_run_matches_the_interpreter(self):
        rule, plan, kernel = kernel_for(
            "h(X, Y) :- p(X, Z), q(Z, Y).", {"p": 2, "q": 3}
        )
        database = Database(
            {"p": [(1, 2), (3, 4), (5, 2)], "q": [(2, "a"), (4, "b"), (9, "c")]}
        )
        assert sorted(kernel.run_static(database)) == interpreted_heads(
            rule, plan, database
        )

    def test_duplicate_firings_are_preserved(self):
        # Two distinct Z witnesses produce the same head: the fixpoint's
        # duplicate statistics depend on seeing both firings.
        rule, plan, kernel = kernel_for("h(X) :- p(X, Z).")
        database = Database({"p": [(1, 2), (1, 3)]})
        assert sorted(kernel.run_static(database)) == [(1,), (1,)]

    def test_delta_run_matches_the_interpreter(self):
        rule, plan, kernel = kernel_for(
            "anc(X, Y) :- par(X, Z), anc(Z, Y).",
            {"par": 4, "anc": 4},
            delta_predicates=frozenset({"anc"}),
        )
        working = Database(
            {"par": [(1, 2), (2, 3), (3, 4)], "anc": [(2, 3), (3, 4), (2, 4)]}
        )
        delta = Database({"anc": [(3, 4)]})
        assert sorted(kernel.run_delta(1, working, delta)) == interpreted_heads(
            rule, plan, working, delta_position=1, delta=delta
        )

    def test_empty_body_fires_exactly_once(self):
        rule = parse_rule("h(a, b).")
        plan = plan_rule(rule, {})
        kernel = compile_rule_kernel(plan)
        assert kernel.run_static(Database()) == [("a", "b")]

    def test_arity_mismatched_tuples_are_skipped(self):
        # A relation holding mixed arities must behave exactly like
        # match_atom's length guard, on both the scan and the probe path.
        rule, plan, kernel = kernel_for("h(X, Y) :- p(X, Y).")
        database = Database({"p": [(1,), (1, 2), (1, 2, 3)]})
        assert kernel.run_static(database) == [(1, 2)]
        rule, plan, kernel = kernel_for("h(X) :- p(c, X).")
        database = Database({"p": [("c",), ("c", 1)]})
        assert kernel.run_static(database) == [(1,)]

    def test_constant_head_rule(self):
        rule, plan, kernel = kernel_for("flag(on) :- p(X, X).")
        assert kernel.run_static(Database({"p": [(1, 1), (2, 3)]})) == [("on",)]
        assert kernel.run_static(Database({"p": [(2, 3)]})) == []


# ----------------------------------------------------------------------
# The generated source
# ----------------------------------------------------------------------
GOLDEN_REACH_STATIC = """\
def bind(c0, c1):
    def kernel(database, delta, emit, existing):
        get1 = database.index(c1, 0).get if type(database) is Database else None
        probe1 = database.probe
        n = 0
        for t0 in database.relation(c0):
            try:
                (s0, s1) = t0
            except ValueError:
                continue
            for t1 in (probe1(c1, 0, s1) if get1 is None else get1(s1, ())):
                try:
                    (t1_0, s2) = t1
                except ValueError:
                    continue
                n += 1
                h = (s0, s2)
                if h not in existing:
                    emit(h)
        return n
    return kernel
"""


def reach_kernel(reach="reach", edge="edge"):
    _, _, kernel = kernel_for(
        f"{reach}(X, Y) :- {reach}(X, Z), {edge}(Z, Y).",
        {reach: 1, edge: 9},
        delta_predicates=frozenset({reach}),
    )
    return kernel


class TestGeneratedSource:
    def test_golden_source_of_the_recursive_reach_rule(self):
        kernel = reach_kernel()
        assert kernel.source() == GOLDEN_REACH_STATIC
        # The delta variant is the same loop nest reading the delta first.
        assert kernel.source(0) == GOLDEN_REACH_STATIC.replace(
            "in database.relation(c0)", "in delta.relation(c0)"
        )

    def test_source_is_registered_with_linecache(self):
        kernel = reach_kernel()
        kernel.run_static(Database())
        function = kernel._function(None)
        filename = function.__code__.co_filename
        assert filename.startswith("<repro-kernel ") and filename.endswith(">")
        line = linecache.getline(filename, function.__code__.co_firstlineno)
        assert line == "    def kernel(database, delta, emit, existing):\n"
        # ... so a traceback out of a kernel shows the generated line.
        class Exploding:
            def relation(self, predicate):
                raise RuntimeError("boom")

            probe = contains = relation

        with pytest.raises(RuntimeError) as caught:
            kernel.run_static(Exploding())
        text = "".join(traceback.format_exception(caught.value))
        assert "for t0 in database.relation(c0):" in text

    def test_names_and_constants_share_one_code_object(self):
        # Values are bound, never printed: rules differing only in
        # predicate names and constants generate the same text, so a
        # re-prepare after a write hits the source memo, not compile().
        from repro.datalog.engine import executor

        first = reach_kernel()
        first.run_static(Database())
        misses = executor._factory.cache_info().misses
        second = reach_kernel("path", "arc")
        assert second.source() == first.source()
        second.run_static(Database())
        assert executor._factory.cache_info().misses == misses
        assert second._function(None).__code__ is first._function(None).__code__
        _, _, with_a = kernel_for("h(X, a) :- p(a, X, b).")
        _, _, with_z = kernel_for("g(X, 9) :- q(0, X, 'z z').")
        assert with_a.source() == with_z.source()

    def test_a_sequence_is_generated_on_first_use_only(self):
        kernel = reach_kernel()
        assert kernel._functions == {}
        kernel.run_static(Database())
        assert set(kernel._functions) == {None}

    @pytest.mark.parametrize(
        "awkward",
        [
            "it's",
            'say "hi"',
            "back\\slash",
            "line\nbreak",
            "{brace}",
            float("nan"),
            -0.0,
            True,
            1,
            ("tuple", 1),
            None,
        ],
        ids=repr,
    )
    def test_awkward_values_are_bound_not_printed(self, awkward):
        from repro.datalog.atoms import Atom
        from repro.datalog.terms import Constant, Variable

        predicate = f"p {awkward!r}\n\\"
        X, Y = Variable("X"), Variable("Y")
        rule = Rule(
            Atom("h", (X, Constant(awkward))),
            (
                Atom(predicate, (Constant(awkward), X)),
                Atom("q", (X, Y, Constant(awkward))),
            ),
        )
        plan = plan_rule(rule, {predicate: 1, "q": 5})
        kernel = compile_rule_kernel(plan)
        database = Database(
            {
                predicate: [(awkward, 1), (1, 1), (True, 2), (0.0, 3), ("other", 4)],
                "q": [(1, 7, awkward), (2, 7, 1), (3, 7, 0.0), (4, 7, "other"), (1, 8, True)],
            }
        )
        expected = interpreted_heads(rule, plan, database)
        # repr-compare: nan != nan, and 1 == True == 1.0 must stay apart.
        assert sorted(map(repr, kernel.run_static(database))) == sorted(map(repr, expected))
        assert "nan" not in kernel.source() and "tuple" not in kernel.source()


class TestNestingBoundary:
    """CPython refuses more than 20 statically nested blocks."""

    @pytest.mark.parametrize("atoms", [16, 17, 24, 40])
    @pytest.mark.parametrize("layout", ["tuple", "columnar"])
    def test_deep_chain_bodies_evaluate_like_the_interpreter(self, atoms, layout):
        body = ", ".join(f"e(X{i}, X{i + 1})" for i in range(atoms))
        program = parse_program(
            f"?far(A, B)\nfar(X0, X{atoms}) :- {body}, not e(X{atoms}, X0).\n"
        )
        ring = [(node, (node + 1) % 7) for node in range(7)] + [(0, 1, 2)]
        database = Database({"e": ring}).with_layout(layout)
        plan = compile_program_plan(program, database)  # no SyntaxError/RecursionError
        (kernel,) = plan.kernels.values()
        assert kernel is not None
        for evaluate in (evaluate_naive, evaluate_seminaive):
            compiled = evaluate(program, database, compiled=True)
            interpreted = evaluate(program, database, compiled=False)
            assert compiled.idb_facts == interpreted.idb_facts
            assert compiled.statistics == interpreted.statistics
            assert compiled.relation("far")
        # The tuple kernel itself, whichever lane the layout picked.
        tuples = database.with_layout("tuple")
        assert sorted(kernel.run_static(tuples)) == interpreted_heads(
            kernel.rule, plan.join_plan(kernel.rule), tuples
        )

    def test_long_sequences_are_chained_every_sixteen_loops(self):
        from repro.datalog.engine.executor import MAX_NESTED_LOOPS

        body = ", ".join(f"e(X{i}, X{i + 1})" for i in range(40))
        _, _, kernel = kernel_for(f"far(X0, X40) :- {body}.")
        source = kernel.source()
        assert source.count("def part") == 2
        deepest = max(len(line) - len(line.lstrip()) for line in source.splitlines())
        assert deepest <= 4 * (MAX_NESTED_LOOPS + 5)


# ----------------------------------------------------------------------
# Compiled-vs-interpreted parity over the examples catalogue
# ----------------------------------------------------------------------
CATALOGUE = [
    ("program_a", program_a().program, parent_forest(40, seed=5, root_count=3)),
    ("program_b", program_b().program, parent_forest(40, seed=5, root_count=3)),
    ("program_c", program_c().program, parent_forest(25, seed=5, root_count=2)),
    ("program_d", program_d(), parent_forest(40, seed=5, root_count=3)),
    ("anbn", anbn_program().program, layered_anbn_graph(5, noise_branches=3)),
    ("section7_magic", section7_transformed(), layered_anbn_graph(5, noise_branches=3)),
    (
        "same_generation",
        same_generation_program().program,
        same_generation_database(depth=3, branching=2),
    ),
    (
        "random_graph",
        program_b().program,
        labeled_random_graph(18, 40, ("par",), seed=9, prefix="john"),
    ),
]


@pytest.mark.parametrize(
    "label,program,database", CATALOGUE, ids=[entry[0] for entry in CATALOGUE]
)
def test_compiled_matches_interpreted_on_catalogue(label, program, database):
    for evaluate in (evaluate_naive, evaluate_seminaive):
        compiled = evaluate(program, database, compiled=True)
        interpreted = evaluate(program, database, compiled=False)
        assert compiled.idb_facts == interpreted.idb_facts, f"{label} model diverged"
        assert compiled.answers() == interpreted.answers(), f"{label} answers diverged"
        # The kernels change how firings are enumerated, never how many: the
        # hardware-independent cost model must be identical on both paths.
        assert (
            compiled.statistics.as_dict() == interpreted.statistics.as_dict()
        ), f"{label} statistics diverged"


def test_catalogue_rules_all_compile():
    for label, program, database in CATALOGUE:
        plan = compile_program_plan(program, database)
        for rule in program.rules:
            if not rule.is_fact():
                assert plan.kernel(rule) is not None, f"{label}: {rule} not compiled"


# ----------------------------------------------------------------------
# Hypothesis: every registered engine and both evaluator paths agree
# (strategies shared with the planner/incremental suites)
# ----------------------------------------------------------------------
from tests.datalog.strategies import PROGRAM_POOL, edge_databases, program_indexes


@settings(max_examples=50, deadline=None)
@given(program_indexes, edge_databases())
def test_all_engines_agree_with_kernels_enabled(program_index, database):
    program = PROGRAM_POOL[program_index]
    interpreted = evaluate_seminaive(program, database, compiled=False)
    assert (
        evaluate_seminaive(program, database, compiled=True).answers()
        == interpreted.answers()
    )
    assert (
        evaluate_naive(program, database, compiled=True).answers()
        == interpreted.answers()
    )
    for name in available_engines():
        try:
            result = get_engine(name).evaluate(program, database)
        except Exception as error:  # pragma: no cover - only magic can decline
            from repro.datalog.engine import EngineNotApplicableError

            if isinstance(error, EngineNotApplicableError):
                continue
            raise
        assert result.answers() == interpreted.answers(), name


# ----------------------------------------------------------------------
# Hypothesis: every generated sequence against the interpreter
# ----------------------------------------------------------------------
from collections import Counter

from repro.datalog.incremental import _ExcludeSource, _UnionSource
from tests.datalog.strategies import kernel_rules, mixed_arity_databases


def _split(database, keep):
    """*database* as (kept part, the rest) by a per-fact coin from *keep*."""
    kept, rest = Database(), Database()
    for index, fact in enumerate(database.facts()):
        side = kept if keep[index % len(keep)] else rest
        side.add_fact(fact.predicate, fact.as_fact_tuple())
    return kept, rest


@settings(max_examples=120, deadline=None)
@given(
    kernel_rules,
    mixed_arity_databases(),
    mixed_arity_databases(max_size=6),
    st.lists(st.booleans(), min_size=1, max_size=5),
)
def test_every_generated_sequence_fires_like_the_interpreter(rule, database, delta, keep):
    """Multiset-equal firings, and the returned count, for the static order
    and every delta position — over a plain ``Database`` (hoisted index
    handles) and over the sources probed through their bound ``probe``:
    an ``OverlayDatabase`` with facts on both sides and two of the
    incremental state views."""
    estimates = {atom.predicate: database.cardinality(atom.predicate) for atom in rule.body}
    plan = plan_rule(
        rule, estimates, delta_predicates=frozenset(atom.predicate for atom in rule.body)
    )
    kernel = compile_rule_kernel(plan)
    assert kernel is not None and kernel.delta_positions == tuple(range(len(rule.body)))

    base, local = _split(database, keep)
    overlay = base.overlay()
    overlay.update(local)
    grouped = {name: set(local.relation(name)) for name in local.predicates()}
    sources = [
        database,
        overlay,
        _UnionSource(base, grouped),
        _ExcludeSource(database, {name: set(delta.relation(name)) for name in delta.predicates()}),
    ]
    for source in sources:
        out = []
        assert kernel.execute_static(source, out.append) == len(out)
        assert Counter(out) == Counter(interpreted_heads(rule, plan, source))
        for position in kernel.delta_positions:
            out = []
            assert kernel.execute_delta(position, source, delta, out.append) == len(out)
            assert Counter(out) == Counter(
                interpreted_heads(rule, plan, source, delta_position=position, delta=delta)
            )
    # `existing` filters what is emitted, never what is counted.
    everything = kernel.run_static(database)
    seen = set(everything[::2])
    out = []
    assert kernel.execute_static(database, out.append, seen) == len(everything)
    assert out == [values for values in everything if values not in seen]


# ----------------------------------------------------------------------
# EXPLAIN surface
# ----------------------------------------------------------------------
def test_zero_derivation_runs_leave_no_phantom_relations():
    # A rule that fires nothing must not leave an empty IDB relation behind:
    # both engines' result shape (relations()/repr) must match on empty input.
    program = PROGRAM_POOL[0]
    database = Database({"f": [(0, 1)]})  # no "e" facts: t derives nothing
    naive = evaluate_naive(program, database)
    seminaive = evaluate_seminaive(program, database)
    assert naive.idb_facts.relations() == {} == seminaive.idb_facts.relations()


def test_compiled_toggle_is_rejected_by_toggle_less_engines():
    from repro.errors import EvaluationError

    program = PROGRAM_POOL[0]
    database = Database({"e": [(1, 2)]})
    with pytest.raises(EvaluationError):
        get_engine("topdown").evaluate(program, database, compiled=False)


def test_magic_engine_forwards_the_toggle_to_its_delegate():
    program = parse_program(
        """
        ?t(1, Y)
        t(X, Y) :- e(X, Y).
        t(X, Y) :- t(X, Z), e(Z, Y).
        """
    )
    database = Database({"e": [(1, 2), (2, 3)]})
    magic = get_engine("magic")
    assert (
        magic.evaluate(program, database, compiled=False).answers()
        == magic.evaluate(program, database).answers()
    )


def test_explain_surfaces_slot_and_probe_compilation():
    session = QuerySession(program_b().program, parent_forest(30, seed=3))
    text = session.explain(plans=True)
    assert "kernel:" in text
    assert "slots" in text
    assert "bind" in text
    assert "delta@" in text
    # The slot-probe of the recursive body atom must be visible.
    assert "==s" in text


def test_kernel_describe_names_slots_and_head():
    _, _, kernel = kernel_for("h(Y, X) :- p(X, Y).")
    text = kernel.describe()
    assert "2 slots (X=s0, Y=s1)" in text
    assert "head <s1, s0>" in text
    assert "scan p" in text
