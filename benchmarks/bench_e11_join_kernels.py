"""Experiment E11 — compiled slot-based join kernels vs the interpreted path.

PR 2's planner fixed the join *order*; this experiment measures what the
executor (:mod:`repro.datalog.engine.executor`) saves by no longer
*interpreting* that order per candidate tuple: no substitution-dict copy,
no ``Constant`` wrapping, no per-call probe-column rediscovery — the inner
loop of every bottom-up fixpoint becomes tuple indexing and list writes.

The portfolio is deliberately join-heavy and recursive:

* **same-generation** — the classic ``up``/``flat``/``down`` 3-atom
  recursive join over a balanced tree;
* **triangle** — a non-recursive 3-way self-join (``e(X,Y), e(Y,Z),
  e(Z,X)``) over a dense random graph, the pure join-microkernel case;
* **wide transitive closure** — linear recursion over a random graph whose
  closure is a large fraction of the square;
* **deep transitive closure** — a 300-edge chain: hundreds of fixpoint
  rounds with O(1)-sized late deltas over an ever-growing head relation,
  the regime where any per-round cost proportional to the full relation
  (e.g. a snapshot rebuild) would swamp the kernel win.

Both paths run the *same* engine (semi-naive), the same plans, the same
delta variants, and report the same hardware-independent statistics; only
the per-candidate evaluator differs (``compiled=True`` vs
``compiled=False``).

Acceptance gate (checked by ``test_compiled_at_least_2x_faster``, which
also runs in the plain suite under ``--benchmark-disable``): the compiled
kernels must be at least 2x faster than the interpreted ``match_body``
path across the portfolio, measured in-run.
"""

import time

import pytest

from repro.core.examples_catalog import same_generation_program
from repro.datalog.columnar.vector import np as vector_numpy
from repro.core.workloads import (
    chain_database,
    labeled_random_graph,
    same_generation_database,
)
from repro.datalog.engine import get_engine
from repro.datalog.engine.planner import Planner
from repro.datalog.parser import parse_program

SEMINAIVE = get_engine("seminaive")

TRIANGLE = parse_program(
    """
    ?tri(X, Y, Z)
    tri(X, Y, Z) :- e(X, Y), e(Y, Z), e(Z, X).
    """
)
WIDE_TC = parse_program(
    """
    ?tc(X, Y)
    tc(X, Y) :- e(X, Y).
    tc(X, Y) :- tc(X, Z), e(Z, Y).
    """
)

WORKLOADS = {
    "same_generation": (
        same_generation_program().program,
        same_generation_database(depth=6, branching=2),
    ),
    "triangle": (TRIANGLE, labeled_random_graph(80, 640, ("e",), seed=5)),
    "wide_tc": (WIDE_TC, labeled_random_graph(60, 240, ("e",), seed=3)),
    "deep_tc": (WIDE_TC, chain_database(300, relation="e")),
}

# One warm planner per workload: both paths reuse the identical compiled
# plan (and kernels), so the timed region is evaluation only — exactly the
# situation inside a QuerySession or a prepared query.
PLANNERS = {label: Planner() for label in WORKLOADS}
for label, (program, database) in WORKLOADS.items():
    PLANNERS[label].plan(program, database)

# The columnar axis (PR 7): the same workloads mirrored into the interned
# columnar layout, evaluated by the batch kernels (vectorized lane for
# binary heads, packed-bigint lane for the arity-3 triangle).  Separate
# warm planners because columnar plans are column-statistics-aware.
COLUMNAR_WORKLOADS = {
    label: (program, database.with_layout("columnar"))
    for label, (program, database) in WORKLOADS.items()
}
COLUMNAR_PLANNERS = {label: Planner() for label in COLUMNAR_WORKLOADS}
for label, (program, database) in COLUMNAR_WORKLOADS.items():
    COLUMNAR_PLANNERS[label].plan(program, database)

#: The workloads the columnar gate is about: transitive
#: closure both wide (few rounds, big deltas) and deep (300 rounds, small
#: deltas over a growing head relation).
COLUMNAR_GATE_LABELS = ("wide_tc", "deep_tc")


def run(label: str, compiled: bool):
    program, database = WORKLOADS[label]
    return SEMINAIVE.evaluate(
        program, database, planner=PLANNERS[label], compiled=compiled
    )


def run_columnar(label: str):
    program, database = COLUMNAR_WORKLOADS[label]
    return SEMINAIVE.evaluate(
        program, database, planner=COLUMNAR_PLANNERS[label], compiled=True
    )


def test_parity_compiled_vs_interpreted():
    """Same model, same answers, same cost model — before anything is timed."""
    for label in WORKLOADS:
        compiled = run(label, compiled=True)
        interpreted = run(label, compiled=False)
        assert compiled.answers() == interpreted.answers(), label
        assert compiled.idb_facts == interpreted.idb_facts, label
        assert (
            compiled.statistics.as_dict() == interpreted.statistics.as_dict()
        ), label


@pytest.mark.parametrize("label", sorted(WORKLOADS))
def test_compiled_kernels(benchmark, record, label):
    result = benchmark(run, label, True)
    record(benchmark, "compiled", result.statistics)
    benchmark.extra_info["answers"] = len(result.answers())


@pytest.mark.parametrize("label", sorted(WORKLOADS))
def test_interpreted_match_body(benchmark, record, label):
    result = benchmark(run, label, False)
    record(benchmark, "interpreted", result.statistics)
    benchmark.extra_info["answers"] = len(result.answers())


def test_parity_columnar_vs_tuple_kernels():
    """Columnar batch kernels are observationally the tuple kernels.

    Same model, same answers, same statistics — asserted before any timing,
    and in the plain suite under ``--benchmark-disable``, so a semantics
    regression can never hide behind a benchmark run being skipped.
    """
    for label in WORKLOADS:
        columnar = run_columnar(label)
        tuple_side = run(label, compiled=True)
        assert columnar.answers() == tuple_side.answers(), label
        assert columnar.idb_facts == tuple_side.idb_facts, label
        assert (
            columnar.statistics.as_dict() == tuple_side.statistics.as_dict()
        ), label


@pytest.mark.parametrize("label", sorted(COLUMNAR_WORKLOADS))
def test_columnar_kernels(benchmark, record, label):
    result = benchmark(run_columnar, label)
    record(benchmark, "columnar", result.statistics)
    benchmark.extra_info["answers"] = len(result.answers())


@pytest.mark.skipif(
    vector_numpy is None,
    reason="the columnar gate is about the NumPy vector lane",
)
def test_columnar_at_least_1_5x_on_wide_deep_tc():
    """The vector lane is still >=1.5x the tuple kernels on wide/deep TC.

    This is a *ratio against the tuple kernels*, so it moves when they
    do.  PR 7 set it at >=3x over the closure-chain kernels (~4.3x
    locally); the generated nested-loop kernels halved the tuple side
    (34.6 ms -> ~17 ms for the pair) while the columnar side stayed at
    ~16.7 ms, which put the same vector lane at ~2.1x.  The floor is
    re-anchored to what it is there to catch — the vector lane losing its
    lead on the workloads it was built for — with the usual headroom for
    noisy CI machines; best-of-five smooths scheduler noise.
    """

    def best_pair_seconds(runner, repeats: int = 5) -> float:
        best = float("inf")
        for _ in range(repeats):
            started = time.perf_counter()
            for label in COLUMNAR_GATE_LABELS:
                runner(label)
            best = min(best, time.perf_counter() - started)
        return best

    for label in COLUMNAR_GATE_LABELS:  # warm plans, indexes, intern tables
        run_columnar(label)
        run(label, compiled=True)
    columnar_seconds = best_pair_seconds(run_columnar)
    tuple_seconds = best_pair_seconds(lambda label: run(label, compiled=True))
    ratio = tuple_seconds / columnar_seconds
    assert ratio >= 1.5, (
        f"columnar {columnar_seconds * 1e3:.2f} ms vs tuple kernels "
        f"{tuple_seconds * 1e3:.2f} ms: only {ratio:.2f}x"
    )


def test_compiled_at_least_2x_faster():
    """The ISSUE's acceptance gate, measured directly with perf_counter.

    Locally the portfolio runs ~5-8x faster compiled; the 2x threshold
    leaves generous headroom for noisy CI machines.  Best-of-three
    averaging over the whole portfolio smooths scheduler noise.
    """

    def best_portfolio_seconds(compiled: bool, repeats: int = 3) -> float:
        best = float("inf")
        for _ in range(repeats):
            started = time.perf_counter()
            for label in WORKLOADS:
                run(label, compiled=compiled)
            best = min(best, time.perf_counter() - started)
        return best

    run("same_generation", compiled=True)  # warm plans and indexes
    compiled_seconds = best_portfolio_seconds(compiled=True)
    interpreted_seconds = best_portfolio_seconds(compiled=False)
    ratio = interpreted_seconds / compiled_seconds
    assert ratio >= 2.0, (
        f"compiled {compiled_seconds * 1e3:.2f} ms vs interpreted "
        f"{interpreted_seconds * 1e3:.2f} ms: only {ratio:.2f}x"
    )
