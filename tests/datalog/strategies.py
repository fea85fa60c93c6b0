"""Shared Hypothesis strategies for the Datalog test suites.

One home for the random-input generators that several suites previously
duplicated: the edge-labeled graph databases and the pool of
chain/recursive/mutually-recursive programs (``test_executor``,
``test_planner``, ``test_prepared``, ``test_incremental_differential``), and
the small mixed-type databases and goal atoms
(``test_properties_hypothesis``).  Keeping them here means a new engine- or
maintenance-level property automatically fuzzes the same program shapes every
other suite does.
"""

from hypothesis import strategies as st

from repro.datalog.atoms import Atom
from repro.datalog.database import Database
from repro.datalog.parser import parse_program, parse_rule
from repro.datalog.terms import Constant, Variable

# ----------------------------------------------------------------------
# Small mixed-type databases (relations p/q/r over ints and strings)
# ----------------------------------------------------------------------
values = st.one_of(st.integers(min_value=0, max_value=5), st.sampled_from(["a", "b", "c"]))
tuples2 = st.tuples(values, values)
relation_names = st.sampled_from(["p", "q", "r"])


@st.composite
def databases(draw):
    """A database of up to 12 binary facts over relations p, q, r."""
    database = Database()
    for _ in range(draw(st.integers(min_value=0, max_value=12))):
        database.add_fact(draw(relation_names), draw(tuples2))
    return database


@st.composite
def goal_atoms(draw):
    """A binary goal atom mixing variables X/Y and constants from the domain."""

    def term():
        if draw(st.booleans()):
            return Variable(draw(st.sampled_from(["X", "Y"])))
        return Constant(draw(values))

    return Atom(draw(relation_names), (term(), term()))


# ----------------------------------------------------------------------
# Edge-labeled graphs (relations e/f over a 5-node domain)
# ----------------------------------------------------------------------
edge_tuples = st.tuples(
    st.integers(min_value=0, max_value=4), st.integers(min_value=0, max_value=4)
)
edge_relation_names = st.sampled_from(["e", "f"])


@st.composite
def edge_databases(draw):
    """A graph database of 1-14 edges over relations e and f."""
    database = Database()
    for _ in range(draw(st.integers(min_value=1, max_value=14))):
        database.add_fact(draw(edge_relation_names), draw(edge_tuples))
    return database


@st.composite
def edge_fact_batches(draw, max_size: int = 4):
    """A batch of (predicate, values) pairs over the e/f edge domain.

    The incremental-maintenance harness feeds these as insertion and
    deletion batches; they deliberately include facts that may already be
    present (inserts must be idempotent) or absent (deletes of underived
    facts must be no-ops).
    """
    return [
        (draw(edge_relation_names), draw(edge_tuples))
        for _ in range(draw(st.integers(min_value=0, max_value=max_size)))
    ]


# The shared pool of recursive program shapes: linear recursion, indirect
# recursion through a second relation, non-linear recursion feeding a
# projection, mutual recursion, and linear recursion seeded through a
# fact-rule-defined relation (f has a program fact but no proper rules —
# the no-stratum-owns-it case).  Every program is evaluable over an
# edge_databases() draw, and f/e are exactly the relations the mutation
# batches touch.
PROGRAM_POOL = [
    parse_program(
        """
        ?t(X, Y)
        t(X, Y) :- e(X, Y).
        t(X, Y) :- t(X, Z), e(Z, Y).
        """
    ),
    parse_program(
        """
        ?t(X, Y)
        t(X, Y) :- e(X, Y).
        t(X, Y) :- e(X, Z), f(Z, W), t(W, Y).
        """
    ),
    parse_program(
        """
        ?s(X, Y)
        t(X, Y) :- e(X, Y).
        t(X, Y) :- t(X, Z), t(Z, Y).
        s(X, Y) :- f(X, Z), t(Z, Y).
        """
    ),
    parse_program(
        """
        ?odd(X, Y)
        odd(X, Y) :- e(X, Z), even(Z, Y).
        even(X, Y) :- e(X, Z), odd(Z, Y).
        even(X, Y) :- e(X, Y).
        """
    ),
    parse_program(
        """
        ?t(X, Y)
        f(0, 0).
        t(X, Y) :- f(X, Y).
        t(X, Y) :- t(X, Z), e(Z, Y).
        """
    ),
    # Self-join shape: Z threads through THREE body atoms (t, e, f), so one
    # batch of candidate bindings joins against two more relations on the
    # same column before reaching the head.  Batch kernels dedup candidate
    # rows between such probes; nothing else in the pool repeats a variable
    # across more than two atoms, so this is the shape that fuzzes it.
    parse_program(
        """
        ?t(X, Y)
        t(X, Y) :- e(X, Y).
        t(X, Y) :- t(X, Z), e(X, Z), f(Z, Y).
        """
    ),
]

program_indexes = st.sampled_from(range(len(PROGRAM_POOL)))
pool_programs = st.sampled_from(PROGRAM_POOL)


# ----------------------------------------------------------------------
# Stratified negation / aggregate programs over the same e/f edge domain
# ----------------------------------------------------------------------
# Every program is stratified and safe: negated variables are bound by a
# positive IDB domain predicate (n collects edge endpoints), and negation
# and aggregation always read strata that close below them.  The shapes:
# complement of a recursive closure, binary non-edge over the closure,
# grouped count, min over a join, a global count over a negation stratum,
# and sum guarded by negation on the second EDB relation.
STRATIFIED_PROGRAM_POOL = [
    parse_program(
        """
        ?u(X)
        n(X) :- e(X, Y).
        n(Y) :- e(X, Y).
        r(Y) :- e(0, Y).
        r(Y) :- r(X), e(X, Y).
        u(X) :- n(X), not r(X).
        """
    ),
    parse_program(
        """
        ?nt(X, Y)
        n(X) :- e(X, Y).
        n(Y) :- e(X, Y).
        t(X, Y) :- e(X, Y).
        t(X, Y) :- t(X, Z), e(Z, Y).
        nt(X, Y) :- n(X), n(Y), not t(X, Y).
        """
    ),
    parse_program(
        """
        ?d(X, C)
        d(X, count<Y>) :- e(X, Y).
        """
    ),
    parse_program(
        """
        ?m(X, M)
        j(X, Y) :- e(X, Z), f(Z, Y).
        m(X, min<Y>) :- j(X, Y).
        """
    ),
    parse_program(
        """
        ?c(C)
        n(X) :- e(X, Y).
        n(Y) :- e(X, Y).
        r(Y) :- e(0, Y).
        r(Y) :- r(X), e(X, Y).
        u(X) :- n(X), not r(X).
        c(count<X>) :- u(X).
        """
    ),
    parse_program(
        """
        ?s(X, S)
        live(X) :- e(X, Y), not f(X, Y).
        s(X, sum<Y>) :- e(X, Y), live(X).
        """
    ),
]

#: The pool entries a MaterializedView accepts: negation over strata that
#: close below (aggregate heads are rejected at view construction).
STRATIFIED_VIEW_POOL = STRATIFIED_PROGRAM_POOL[:2]

stratified_programs = st.sampled_from(STRATIFIED_PROGRAM_POOL)
stratified_view_programs = st.sampled_from(STRATIFIED_VIEW_POOL)


# ----------------------------------------------------------------------
# Wider-arity EDBs over a larger mixed domain (columnar differential)
# ----------------------------------------------------------------------
# The columnar lanes split by head arity (<=2 rows ride the vector lane,
# 3-4 the packed-bigint lane), so the differential harness needs EDBs
# whose programs exercise both — plus a domain big and mixed enough that
# intern codes stop being tiny consecutive ints.
wide_values = st.one_of(
    st.integers(min_value=0, max_value=30),
    st.sampled_from(["u", "v", "w", "deep", "wide"]),
)


@st.composite
def wide_databases(draw):
    """An EDB mixing arities: binary e, ternary g, quaternary h."""
    database = Database()
    for _ in range(draw(st.integers(min_value=1, max_value=10))):
        database.add_fact("e", (draw(wide_values), draw(wide_values)))
    for _ in range(draw(st.integers(min_value=0, max_value=8))):
        database.add_fact(
            "g", (draw(wide_values), draw(wide_values), draw(wide_values))
        )
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        database.add_fact("h", tuple(draw(wide_values) for _ in range(4)))
    return database


@st.composite
def wide_fact_batches(draw, max_size: int = 4):
    """Insertion/deletion batches over the wide-arity e/g/h domain."""
    batch = []
    for _ in range(draw(st.integers(min_value=0, max_value=max_size))):
        predicate = draw(st.sampled_from(["e", "g", "h"]))
        arity = {"e": 2, "g": 3, "h": 4}[predicate]
        batch.append((predicate, tuple(draw(wide_values) for _ in range(arity))))
    return batch


# Recursive programs whose heads carry arity 3 and 4 (packed-bigint lane)
# alongside binary projections (vector lane), including a cross-arity join
# with a repeated variable inside one atom (h(Y, Z, W, W)).
WIDE_PROGRAM_POOL = [
    parse_program(
        """
        ?j(X, Y, Z)
        j(X, Y, Z) :- g(X, Y, Z).
        j(X, Y, Z) :- j(X, Y, W), e(W, Z).
        """
    ),
    parse_program(
        """
        ?k(A, B, C, D)
        k(A, B, C, D) :- h(A, B, C, D).
        k(A, B, C, D) :- k(A, B, C, W), e(W, D).
        """
    ),
    parse_program(
        """
        ?p(X, W)
        p(X, W) :- g(X, Y, Z), h(Y, Z, W, W).
        p(X, W) :- p(X, Z), e(Z, W).
        """
    ),
    parse_program(
        """
        ?q(X, Z)
        wide(X, Y, Z, Z) :- g(X, Y, Z).
        wide(X, Y, Z, W) :- wide(X, Y, Z, V), e(V, W).
        q(X, W) :- wide(X, Y, Z, W), e(X, Y).
        """
    ),
]

wide_programs = st.sampled_from(WIDE_PROGRAM_POOL)
wide_program_indexes = st.sampled_from(range(len(WIDE_PROGRAM_POOL)))


# ----------------------------------------------------------------------
# Single rules covering every step shape a kernel is generated from
# ----------------------------------------------------------------------
# Rule-level, not program-level: the executor suite lowers each rule on
# its own (every body position a delta position) and compares firings
# with the interpreter, so heads and bodies may use any predicate of
# mixed_arity_databases().  The shapes: constants in bodies and heads,
# a variable repeated within one atom, self-joins, negation (with and
# without constants), zero-arity heads and bodies, an all-constant body.
KERNEL_RULE_POOL = [
    parse_rule(text)
    for text in (
        "h(X, Y) :- e(X, Z), f(Z, Y).",
        "h(X, 1) :- e(0, X).",
        "h(c, X, c) :- e(X, 1), f(X, X).",
        "h(X) :- e(X, X).",
        "h(X, W) :- e(X, Y), e(Y, Z), e(Z, W).",
        "h(X, Y) :- e(X, Y), e(Y, X).",
        "h(X) :- u(X), not e(X, X).",
        "h(X, Y) :- e(X, Y), not f(Y, 0), not u(X).",
        "h() :- e(X, Y), f(Y, X).",
        "h(X) :- z(), u(X).",
        "h(a) :- e(0, 1).",
        "h(X, Y, Z) :- g(X, Y, Z), e(X, Y), u(Z).",
        "h(X, Z) :- g(X, X, Z), g(Z, 0, Y).",
    )
]

kernel_rules = st.sampled_from(KERNEL_RULE_POOL)

_ARITIES = {"e": (2, 2, 2, 1, 3), "f": (2, 2, 2, 3), "g": (3, 3, 2), "u": (1, 1, 2), "z": (0, 1)}


@st.composite
def mixed_arity_databases(draw, max_size: int = 14):
    """Facts over e/f (binary), g (ternary), u (unary), z (zero-arity).

    Each relation also draws rows of a *wrong* arity now and then — a
    :class:`Database` does not forbid them, and every evaluator must skip
    them the way ``match_atom``'s length guard does.
    """
    database = Database()
    small = st.integers(min_value=0, max_value=3)
    for _ in range(draw(st.integers(min_value=0, max_value=max_size))):
        predicate = draw(st.sampled_from(sorted(_ARITIES)))
        arity = draw(st.sampled_from(_ARITIES[predicate]))
        database.add_fact(predicate, tuple(draw(small) for _ in range(arity)))
    return database
