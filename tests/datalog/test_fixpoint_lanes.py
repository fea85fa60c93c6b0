"""One driver, four lanes: every cell of the matrix agrees.

A small program pool × engine × forced lane × guard.  The tuple lane run
serially with no guard is the reference for a (program, engine) pair;
every other cell must produce the identical model and the identical
*whole* ``EvaluationStatistics`` (the flat counters and both per-key
maps), be routed where :func:`select_lane` says, and trip
``max_iterations`` at the same round with the same message.
"""

import functools
from dataclasses import dataclass

import pytest

from repro.datalog import Database, parse_program
from repro.datalog.columnar import shard, vector
from repro.datalog.columnar.batch import PackedLane
from repro.datalog.engine import compile_program_plan, get_engine
from repro.datalog.engine.fixpoint import TupleLane, select_lane
from repro.datalog.guard import ResourceBudget
from repro.errors import EvaluationError


@dataclass(frozen=True)
class Case:
    source: str
    narrow: bool = True  # every head (and negated literal) has arity <= 2
    recursive: bool = True
    aggregate: bool = False


CASES = {
    "recursive_tc": Case(
        """
        ?t(X, Y)
        t(X, Y) :- e(X, Y).
        t(X, Y) :- t(X, Z), e(Z, Y).
        """
    ),
    "zero_arity_head": Case(
        """
        ?cyclic
        t(X, Y) :- e(X, Y).
        t(X, Y) :- t(X, Z), e(Z, Y).
        cyclic :- t(X, X).
        """
    ),
    "mixed_arity_heads": Case(
        """
        ?w(X, Y, Z)
        s(X) :- e(X, Y).
        p(X, Y) :- e(X, Y), s(X).
        p(X, Y) :- p(X, Z), e(Z, Y).
        w(X, Y, Z) :- p(X, Y), f(Y, Z).
        w(X, Y, Z) :- w(X, Y, V), e(V, Z).
        """,
        narrow=False,
    ),
    "idb_fact_rules": Case(
        """
        ?t(X, Y)
        t(0, 1).
        t(0, 1).
        t(90, 91).
        s(0).
        t(X, Y) :- e(X, Y).
        t(X, Y) :- t(X, Z), e(Z, Y).
        s(Y) :- s(X), t(X, Y).
        """
    ),
    "stratified_negation": Case(
        """
        ?u(X)
        n(X) :- e(X, Y).
        n(Y) :- e(X, Y).
        r(Y) :- e(0, Y).
        r(Y) :- r(X), e(X, Y).
        u(X) :- n(X), not r(X).
        iso(X, Y) :- f(X, Y), not e(X, Y).
        """
    ),
    "aggregate": Case(
        """
        ?d(X, C)
        t(X, Y) :- e(X, Y).
        t(X, Y) :- t(X, Z), e(Z, Y).
        d(X, count<Y>) :- t(X, Y).
        """,
        aggregate=True,
    ),
    "nonrecursive_wide": Case(
        """
        ?j(X, Y, Z)
        j(X, Y, Z) :- e(X, Y), f(Y, Z).
        k(X) :- j(X, Y, Z).
        """,
        narrow=False,
        recursive=False,
    ),
}

LANES = ("tuple", "threads", "vector", "vector_fallback", "packed", "sharded")
LANE_TYPES = {
    "tuple": TupleLane,
    "vector": vector.VectorLane,
    "packed": PackedLane,
    "sharded": shard.ShardedLane,
}


def database() -> Database:
    # Two rings joined by one bridge, a tail, and a sparse f relation.
    edges = [(i, (i + 1) % 6) for i in range(6)]
    edges += [(10 + i, 10 + (i + 1) % 4) for i in range(4)]
    edges += [(3, 10), (20, 21), (21, 22)]
    return Database(
        {"e": edges, "f": [(0, 7), (1, 2), (3, 10), (21, 5), (22, 22)]}
    )


def generous_guard():
    return ResourceBudget(timeout=600.0, max_facts=10**9, max_rounds=10**6).start()


@functools.lru_cache(maxsize=None)
def reference(name: str, engine: str):
    """The serial tuple lane with no guard: what every other cell must match."""
    return get_engine(engine).evaluate(parse_program(CASES[name].source), database())


def expected_lane(case: Case, engine: str, lane: str) -> str:
    if lane in ("tuple", "threads") or case.aggregate:
        return "tuple"
    if lane in ("vector", "vector_fallback"):
        return "vector" if case.narrow else "packed"
    if lane == "sharded" and engine == "seminaive" and case.recursive:
        return "sharded"
    return "packed"


@pytest.mark.parametrize("guarded", [False, True], ids=["unguarded", "guarded"])
@pytest.mark.parametrize("lane", LANES)
@pytest.mark.parametrize("engine", ["naive", "seminaive"])
@pytest.mark.parametrize("name", sorted(CASES))
def test_every_lane_matches_the_reference(name, engine, lane, guarded, monkeypatch):
    if lane == "sharded" and not shard.available():
        pytest.skip("fork start method unavailable")
    case = CASES[name]
    program = parse_program(case.source)
    data = database() if lane in ("tuple", "threads") else database().with_layout("columnar")
    workers = 2 if lane in ("threads", "sharded") else None
    if lane in ("packed", "sharded"):
        monkeypatch.setattr(vector, "supported", lambda *args: False)
    if lane == "sharded":
        monkeypatch.setattr(shard, "MIN_SHARD_ROWS", 1)
    if lane == "vector_fallback":
        # No dense bitmaps: dedup and anti-joins take the sorted-key path.
        monkeypatch.setattr(vector, "_BITMAP_DOMAIN_MAX", 0)

    ran = set()
    for lane_type in LANE_TYPES.values():

        def spy(self, stratum, begin_stratum=lane_type.begin_stratum):
            ran.add(type(self))
            return begin_stratum(self, stratum)

        monkeypatch.setattr(lane_type, "begin_stratum", spy)

    def evaluate(**kwargs):
        if guarded:
            kwargs["guard"] = generous_guard()
        return get_engine(engine).evaluate(program, data, workers=workers, **kwargs)

    expected = reference(name, engine)
    actual = evaluate()
    assert actual.idb_facts == expected.idb_facts
    assert actual.statistics == expected.statistics

    plan = compile_program_plan(program, data)
    naive = engine == "naive"
    chosen = select_lane(plan, data, program, workers=workers or 1, naive=naive)
    assert chosen == expected_lane(case, engine, lane)
    assert ran == {LANE_TYPES[chosen]}
    assert select_lane(plan, data, program, compiled=False, workers=workers or 1) == "tuple"
    if chosen == "vector":
        # Vector rounds are too cheap to shard: more workers change nothing.
        assert select_lane(plan, data, program, workers=2, naive=naive) == "vector"

    rounds = expected.statistics.iterations
    label = "naive" if naive else "semi-naive"
    assert evaluate(max_iterations=rounds).statistics == expected.statistics
    for limit in {0, rounds - 1}:
        with pytest.raises(EvaluationError) as caught:
            evaluate(max_iterations=limit)
        assert str(caught.value) == f"{label} evaluation exceeded {limit} iterations"
