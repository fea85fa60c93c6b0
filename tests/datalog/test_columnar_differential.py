"""Differential fuzzing: columnar batch kernels vs the tuple baseline.

The metamorphic oracle: evaluating any program over ``db`` and over
``db.with_layout("columnar")`` must be observationally identical — same
IDB model, same goal answers, same :class:`EvaluationStatistics` — for
every registered engine.  The columnar side lowers rules to batch
kernels over interned int columns (the packed-bigint lane for any arity,
the vectorized lane for head arity <= 2), so this harness is the proof
that neither lane changes semantics, only speed.

Programs come from two pools in :mod:`tests.datalog.strategies`: the
shared binary pool (vector lane, including the self-join shape whose
variable spans three body atoms) and the wide pool (arity 3-4 heads on
the packed lane, cross-arity joins, a repeated variable inside one
atom).  The magic engine needs a constant in the goal, so it gets a
bound-goal variant.  Incremental maintenance is held to the same bar:
a columnar-layout :class:`MaterializedView` must walk the same model as
a tuple-layout one and as from-scratch evaluation after any interleaving
of insertion and deletion batches.
"""

from hypothesis import given, settings, strategies as st

from repro.datalog import MaterializedView, available_engines, get_engine
from repro.datalog.atoms import Atom
from repro.datalog.columnar import vector
from repro.datalog.engine.registry import EngineNotApplicableError
from repro.datalog.terms import Constant, Variable

from tests.datalog.strategies import (
    PROGRAM_POOL,
    WIDE_PROGRAM_POOL,
    edge_databases,
    edge_fact_batches,
    pool_programs,
    stratified_programs,
    stratified_view_programs,
    wide_databases,
    wide_fact_batches,
    wide_programs,
)

evaluate_seminaive = get_engine("seminaive").evaluate


def assert_same_observables(program, database):
    """Columnar layout must be invisible to every registered engine."""
    columnar = database.with_layout("columnar")
    for name in available_engines():
        engine = get_engine(name)
        try:
            expected = engine.evaluate(program, database)
        except EngineNotApplicableError:
            continue
        actual = engine.evaluate(program, columnar)
        assert actual.idb_facts == expected.idb_facts, name
        if program.goal is not None:
            assert actual.answers() == expected.answers(), name
        assert actual.statistics == expected.statistics, name


@settings(max_examples=40, deadline=None)
@given(pool_programs, edge_databases())
def test_columnar_matches_tuple_binary_pool(program, database):
    assert_same_observables(program, database)


@settings(max_examples=40, deadline=None)
@given(wide_programs, wide_databases())
def test_columnar_matches_tuple_wide_pool(program, database):
    assert_same_observables(program, database)


@settings(max_examples=40, deadline=None)
@given(stratified_programs, edge_databases())
def test_columnar_matches_tuple_stratified_pool(program, database):
    """Anti-join kernels and aggregate fallback under the columnar layout.

    The stratified pool drives the batch/vector anti-join lanes (negated
    literals) and the planner's tuple-path fallback (aggregate heads);
    both must be observationally identical to the tuple baseline for every
    applicable engine.
    """
    assert_same_observables(program, database)


def bound_goal_variant(program, constant):
    """The program with its goal's first argument bound to *constant*."""
    goal = program.goal
    terms = (Constant(constant),) + tuple(
        Variable(f"B{position}") for position in range(1, len(goal.terms))
    )
    return program.with_goal(Atom(goal.predicate, terms))


# Magic's rewrite assumes EDB/IDB disjointness; skip pool programs whose
# mutated relations double as IDB heads (same guard as the incremental
# differential suite).
MAGIC_SAFE = [
    program
    for program in PROGRAM_POOL + WIDE_PROGRAM_POOL
    if not ({"e", "f", "g", "h"} & program.idb_predicates())
]


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(MAGIC_SAFE),
    edge_databases(),
    st.integers(min_value=0, max_value=4),
)
def test_columnar_matches_tuple_magic_bound_goal(program, database, constant):
    bound = bound_goal_variant(program, constant)
    magic = get_engine("magic")
    expected = magic.evaluate(bound, database)
    actual = magic.evaluate(bound, database.with_layout("columnar"))
    assert actual.idb_facts == expected.idb_facts
    assert actual.answers() == expected.answers()
    assert actual.statistics == expected.statistics


# ----------------------------------------------------------------------
# Lane-forcing variants: the dispatch heuristics are part of the code
# under test, so pin each lane on and re-run the same oracle.
# ----------------------------------------------------------------------
@settings(max_examples=25, deadline=None)
@given(pool_programs, edge_databases())
def test_packed_lane_matches_tuple_when_vector_lane_disabled(program, database):
    """Binary heads normally ride the vector lane; force them through the
    packed-bigint lane and the oracle must still hold."""
    original = vector.supported
    vector.supported = lambda *args: False
    try:
        assert_same_observables(program, database)
    finally:
        vector.supported = original


@settings(max_examples=25, deadline=None)
@given(stratified_programs, edge_databases())
def test_packed_lane_anti_join_matches_tuple(program, database):
    """Negated literals normally hit the vector anti lane on binary heads;
    force the packed-bigint lane and the oracle must still hold."""
    original = vector.supported
    vector.supported = lambda *args: False
    try:
        assert_same_observables(program, database)
    finally:
        vector.supported = original


@settings(max_examples=25, deadline=None)
@given(stratified_programs, edge_databases())
def test_vector_anti_fallback_dedup_matches_tuple(program, database):
    """Zero bitmap budget pushes the vector anti-join through its
    sorted-membership fallback; the oracle must still hold."""
    original = vector._BITMAP_DOMAIN_MAX
    vector._BITMAP_DOMAIN_MAX = 0
    try:
        assert_same_observables(program, database)
    finally:
        vector._BITMAP_DOMAIN_MAX = original


@settings(max_examples=25, deadline=None)
@given(pool_programs, edge_databases())
def test_vector_fallback_dedup_matches_tuple(program, database):
    """Shrink the dense-bitmap budget to zero so the vector lane takes its
    sorted-array/key-set dedup fallback, and re-run the oracle."""
    original = vector._BITMAP_DOMAIN_MAX
    vector._BITMAP_DOMAIN_MAX = 0
    try:
        assert_same_observables(program, database)
    finally:
        vector._BITMAP_DOMAIN_MAX = original


# ----------------------------------------------------------------------
# Incremental maintenance: columnar view == tuple view == from scratch
# ----------------------------------------------------------------------
@st.composite
def mutation_sequences(draw, batches, max_steps: int = 4):
    steps = draw(st.integers(min_value=1, max_value=max_steps))
    return [(draw(batches), draw(batches)) for _ in range(steps)]


def assert_views_agree(columnar_view, tuple_view):
    assert columnar_view.idb_facts() == tuple_view.idb_facts()
    assert columnar_view.base_facts() == tuple_view.base_facts()
    assert columnar_view.answers() == tuple_view.answers()
    for predicate in columnar_view.counting_predicates:
        assert columnar_view.support_counts(predicate) == tuple_view.support_counts(
            predicate
        ), predicate
    scratch = evaluate_seminaive(
        columnar_view.program, columnar_view.base_facts().with_layout("columnar")
    )
    assert columnar_view.idb_facts() == scratch.idb_facts


@settings(max_examples=30, deadline=None)
@given(pool_programs, edge_databases(), st.data())
def test_incremental_columnar_matches_tuple_binary(program, database, data):
    columnar_view = MaterializedView(program, database.with_layout("columnar"))
    tuple_view = MaterializedView(program, database)
    assert_views_agree(columnar_view, tuple_view)
    for insertions, deletions in data.draw(mutation_sequences(edge_fact_batches())):
        columnar_view.apply(insertions=insertions, deletions=deletions)
        tuple_view.apply(insertions=insertions, deletions=deletions)
        assert_views_agree(columnar_view, tuple_view)


@settings(max_examples=20, deadline=None)
@given(stratified_view_programs, edge_databases(), st.data())
def test_incremental_columnar_matches_tuple_stratified(program, database, data):
    """A columnar-layout negation view walks the same model as a tuple one."""
    columnar_view = MaterializedView(program, database.with_layout("columnar"))
    tuple_view = MaterializedView(program, database)
    assert_views_agree(columnar_view, tuple_view)
    for insertions, deletions in data.draw(
        mutation_sequences(edge_fact_batches(), max_steps=3)
    ):
        columnar_view.apply(insertions=insertions, deletions=deletions)
        tuple_view.apply(insertions=insertions, deletions=deletions)
        assert_views_agree(columnar_view, tuple_view)


@settings(max_examples=20, deadline=None)
@given(wide_programs, wide_databases(), st.data())
def test_incremental_columnar_matches_tuple_wide(program, database, data):
    columnar_view = MaterializedView(program, database.with_layout("columnar"))
    tuple_view = MaterializedView(program, database)
    assert_views_agree(columnar_view, tuple_view)
    for insertions, deletions in data.draw(
        mutation_sequences(wide_fact_batches(), max_steps=3)
    ):
        columnar_view.apply(insertions=insertions, deletions=deletions)
        tuple_view.apply(insertions=insertions, deletions=deletions)
        assert_views_agree(columnar_view, tuple_view)
