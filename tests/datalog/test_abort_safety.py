"""The abort-safety property (Hypothesis): cancelling or timing out a query
at an *arbitrary* cooperative checkpoint leaves the observable state —
``Database.version``, materialized-view answer counts, and the WAL bytes of
a durable service — exactly as it was before the request.

The trigger is a counting token that reports "cancelled" after N checkpoint
reads, so Hypothesis steers the abort to every checkpoint an evaluation
reaches: round boundaries, kernel batch boundaries in both columnar lanes,
and top-down resolution steps — for every guard-supporting engine and both
database layouts.
"""

import os
import tempfile

from hypothesis import given, settings, strategies as st

from repro.datalog import CancellationToken, DatalogService, QuerySession, parse_program
from repro.datalog.engine import available_engines, get_engine
from repro.datalog.server.durable import WAL_NAME, DurableDatalogService
from repro.errors import QueryAborted, QueryCancelled

from .strategies import edge_databases

GUARD_ENGINES = tuple(
    name
    for name in available_engines()
    if "guard" in get_engine(name).accepts
)

#: The program shapes of strategies.PROGRAM_POOL with *bound* goals, so the
#: magic engine (which requires at least one bound goal argument) runs the
#: same property as the bottom-up and top-down engines.  Kept as source
#: text because the durable service persists source, not Program objects.
SOURCE_POOL = [
    """\
?t(0, Y)
t(X, Y) :- e(X, Y).
t(X, Y) :- t(X, Z), e(Z, Y).
""",
    """\
?t(1, Y)
t(X, Y) :- e(X, Y).
t(X, Y) :- e(X, Z), f(Z, W), t(W, Y).
""",
    """\
?s(0, Y)
t(X, Y) :- e(X, Y).
t(X, Y) :- t(X, Z), t(Z, Y).
s(X, Y) :- f(X, Z), t(Z, Y).
""",
    """\
?odd(2, Y)
odd(X, Y) :- e(X, Z), even(Z, Y).
even(X, Y) :- e(X, Z), odd(Z, Y).
even(X, Y) :- e(X, Y).
""",
]

PROGRAM_POOL = [parse_program(source) for source in SOURCE_POOL]
program_indexes = st.sampled_from(range(len(PROGRAM_POOL)))


class TripAfter(CancellationToken):
    """A token that trips after the Nth checkpoint read.

    Each checkpoint reads :attr:`cancelled` exactly once, so ``TripAfter(n)``
    aborts the run precisely at checkpoint ``n + 1`` — letting the property
    walk the abort through every checkpoint the evaluation has.
    """

    def __init__(self, reads_before_trip: int):
        super().__init__()
        self._remaining = reads_before_trip

    @property
    def cancelled(self) -> bool:
        if self._remaining <= 0:
            return True
        self._remaining -= 1
        return False


def snapshot_views(service: DatalogService):
    """(name, binding) -> answer count for every live materialized view."""
    return {
        key: len(service.execute(key[0], dict(key[1])))
        for key in service.materialized_bindings()
    }


@settings(max_examples=60, deadline=None)
@given(
    database=edge_databases(),
    program_index=program_indexes,
    engine=st.sampled_from(GUARD_ENGINES),
    layout=st.sampled_from(["tuple", "columnar"]),
    trip_at=st.integers(min_value=0, max_value=30),
)
def test_abort_at_any_checkpoint_leaves_database_untouched(
    database, program_index, engine, layout, trip_at
):
    database = database.with_layout(layout)
    version = database.version
    program = PROGRAM_POOL[program_index]
    session = QuerySession(program, database)
    token = TripAfter(trip_at)
    try:
        session.evaluate(engine=engine, cancellation=token, max_iterations=200)
    except QueryCancelled:
        pass
    # Whether the run aborted (few checkpoints survived) or completed (the
    # trip point was past the last checkpoint), the input database is
    # byte-for-byte the caller's: same version, no mutation.
    assert database.version == version


@settings(max_examples=25, deadline=None)
@given(
    database=edge_databases(),
    source_index=st.integers(min_value=0, max_value=len(SOURCE_POOL) - 1),
    engine=st.sampled_from(GUARD_ENGINES),
    trip_at=st.integers(min_value=0, max_value=12),
)
def test_abort_leaves_service_views_and_wal_identical(
    database, source_index, engine, trip_at
):
    with tempfile.TemporaryDirectory() as data_dir:
        durable = DurableDatalogService(
            data_dir, fsync="never", snapshot_on_close=False
        )
        # The engine is fixed at registration: rewrite-per-call engines
        # (magic) must be compiled into the prepared pipeline, not passed
        # as a per-request override.
        durable.register_program("q", SOURCE_POOL[source_index], engine=engine)
        durable.add_facts(
            [
                (predicate, values)
                for predicate, rows in database.relations().items()
                for values in rows
            ]
        )
        # A live materialized view (own registration, default engine) that
        # the aborted query must leave untouched.
        durable.register_program("view", SOURCE_POOL[0])
        durable.materialize("view", {})
        durable.sync()
        wal_path = os.path.join(data_dir, WAL_NAME)
        with open(wal_path, "rb") as handle:
            wal_before = handle.read()
        version = durable.service.database.version
        views_before = snapshot_views(durable.service)

        token = TripAfter(trip_at)
        try:
            durable.execute("q", {}, fresh=True, cancellation=token)
        except QueryAborted:
            pass

        assert durable.service.database.version == version
        assert snapshot_views(durable.service) == views_before
        durable.sync()
        with open(wal_path, "rb") as handle:
            assert handle.read() == wal_before
        durable.close()
