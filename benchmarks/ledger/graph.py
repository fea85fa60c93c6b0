"""The ``graph_*`` workloads: in-process evaluation of a program portfolio.

One *pass* evaluates every program of the workload once through
``get_engine("seminaive").evaluate`` and forces every derived relation to
Python tuples inside the timed region (the columnar lanes decode lazily; an
unforced result would report a faster fixpoint that merely deferred work).

* a **cold** pass starts from the generated fact sets: a fresh ``Database``
  in the workload's layout, a fresh ``Planner``, parse, evaluate, decode;
* a **warm** pass reuses the database and planner objects of the last cold
  pass: evaluate and decode only.

Single-threaded.  Every model is compared with :mod:`reference`.
"""

from __future__ import annotations

import gc
import os
import resource
import statistics
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Dict, List, Tuple

from . import gen, reference
from .common import ALL_CORES, percentile, pin

COLD_PASSES = 7
SETUPS = 5


@dataclass(frozen=True)
class Case:
    label: str
    source: str
    facts: Callable[[int, float], gen.Facts]
    expect: Callable[[gen.Facts], reference.Model]


@dataclass(frozen=True)
class GraphConfig:
    name: str
    layout: str
    #: Which lane must run every program: ``tuple``, ``vector`` or ``packed``.
    lane: str
    cases: Tuple[Case, ...]
    scale: float = 1.0

    def smoke(self) -> "GraphConfig":
        return replace(self, scale=0.05)


def _n(value: float, scale: float, floor: int = 4) -> int:
    return max(int(value * scale), floor)


def _side(value: float, scale: float) -> int:
    return max(int(value * scale**0.5), 3)


def _pa(nodes):
    return lambda seed, scale: gen.preferential_attachment(seed, _n(nodes, scale, 20))


def _sp_grid(side):
    def build(seed, scale):
        n = _side(side, scale)
        return gen.with_successors(gen.grid(n, n), 2 * n)

    return build


def _sg_grid(side):
    return lambda seed, scale: gen.grid(_side(side, scale), _side(side, scale))


def _random(nodes, edges, ordered=False):
    def build(seed, scale):
        n = _n(nodes, scale**0.5, 8)
        facts = gen.random_graph(seed, n, min(_n(edges, scale, 12), n * n // 2))
        return gen.with_ordering(facts, n) if ordered else facts

    return build


def _points_to(variables, statements, modules=4):
    return lambda seed, scale: gen.points_to_input(
        seed, _n(variables, scale**0.5, 8 * modules), _n(statements, scale, 30 * modules), modules
    )


def _rings(blocks, size):
    return lambda seed, scale: gen.ring_blocks(seed, _n(blocks, scale**0.5, 2), _n(size, scale**0.25, 4))


def _wide(expect, column):
    return lambda facts: reference.wide(expect(facts), facts[column])


# Instances are sized so that a warm pass takes 0.2-0.35 s on the reference
# host and no program exceeds ~40% of it: a run then holds 25-40 passes.
CONFIGS = {
    "graph_tuple": GraphConfig(
        "graph_tuple",
        "tuple",
        "tuple",
        (
            Case("reach_pa", gen.REACHABILITY, _pa(8000), reference.reachability),
            Case("unreach_pa", gen.UNREACHABLE, _pa(8000), reference.unreachable),
            Case("degree_pa", gen.DEGREE, _pa(6000), reference.degree),
            Case("sp_grid", gen.SHORTEST_PATH, _sp_grid(40), reference.shortest_path),
            Case("sg_grid", gen.SAME_GENERATION, _sg_grid(14), reference.same_generation),
            Case("triangle_rand", gen.TRIANGLE, _random(100, 1200, True), reference.triangles),
            Case("points_to", gen.POINTS_TO, _points_to(240, 2200), reference.points_to),
        ),
    ),
    "graph_vector": GraphConfig(
        "graph_vector",
        "columnar",
        "vector",
        (
            Case("reach_pa", gen.REACHABILITY, _pa(20000), reference.reachability),
            Case("unreach_pa", gen.UNREACHABLE, _pa(20000), reference.unreachable),
            Case("sg_grid", gen.SAME_GENERATION, _sg_grid(30), reference.same_generation),
            Case("points_to", gen.POINTS_TO, _points_to(320, 3400), reference.points_to),
            Case("tc_rings", gen.PAIR_TC, _rings(30, 50), reference.pair_closure),
        ),
    ),
    "graph_packed": GraphConfig(
        "graph_packed",
        "columnar",
        "packed",
        (
            Case(
                "reach_pa",
                gen.REACHABILITY + gen.WIDE_SOURCE,
                _pa(12000),
                _wide(reference.reachability, "source"),
            ),
            Case(
                "unreach_pa",
                gen.UNREACHABLE + gen.WIDE_SOURCE,
                _pa(12000),
                _wide(reference.unreachable, "source"),
            ),
            Case(
                "sg_grid",
                gen.SAME_GENERATION + gen.WIDE_NODE,
                _sg_grid(18),
                _wide(reference.same_generation, "node"),
            ),
            Case(
                "points_to",
                gen.POINTS_TO + gen.WIDE_ALLOC,
                _points_to(240, 2200),
                _wide(reference.points_to, "alloc"),
            ),
            Case(
                "tc_rings",
                gen.PAIR_TC + gen.WIDE_NODE,
                _rings(20, 40),
                _wide(reference.pair_closure, "node"),
            ),
            Case(
                "tri_rand",
                gen.TRIANGLE_PLAIN,
                _random(100, 1200, True),
                lambda facts: reference.triangles(facts, aggregates=False),
            ),
        ),
    ),
}


def generate(config: GraphConfig, seed: int) -> List[gen.Facts]:
    return [
        case.facts(seed * 31 + index, config.scale)
        for index, case in enumerate(config.cases)
    ]


class Portfolio:
    """The engine-side state of one workload: programs, databases, planners."""

    def __init__(self, config: GraphConfig, tracer=None):
        from repro.datalog.engine import get_engine

        self.config = config
        self.engine = get_engine("seminaive")
        self.tracer = tracer
        self.programs: List = []
        self.databases: List = []
        self.planners: List = []
        self.results: List = []

    def _evaluate(self, index: int):
        result = self.engine.evaluate(
            self.programs[index], self.databases[index], planner=self.planners[index]
        )
        if self.tracer is not None:
            with self.tracer.span("columnar.decode.decode"):
                result.idb_facts.fact_count()
        else:
            result.idb_facts.fact_count()
        return result

    def cold_pass(self, inputs: List[gen.Facts]) -> float:
        from repro.datalog import parser
        from repro.datalog.database import Database
        from repro.datalog.engine.planner import Planner

        # Drop the previous pass's state at a defined point: whether cyclic
        # garbage happens to be collected before or after the next build
        # otherwise moves the peak RSS by a fifth from seed to seed.
        self.programs, self.databases, self.planners, self.results = [], [], [], []
        gc.collect()
        start = time.perf_counter()
        for index, (case, facts) in enumerate(zip(self.config.cases, inputs)):
            database = Database(layout=self.config.layout)
            database.add_relations(facts)
            program = parser.parse_program(case.source)
            program.validate()
            self.programs.append(program)
            self.databases.append(database)
            self.planners.append(Planner())
            self.results.append(self._evaluate(index))
        return time.perf_counter() - start

    def warm_pass(self) -> List[float]:
        """Evaluate every program once; the seconds each evaluation took."""
        # Freeing the previous models is not part of evaluating the next
        # ones: it stays outside the times (ops_per_s still pays it).
        self.results = []
        clock = time.perf_counter
        times = []
        for index in range(len(self.programs)):
            start = clock()
            self.results.append(self._evaluate(index))
            times.append(clock() - start)
        return times

    def check_lanes(self) -> None:
        """Refuse to time a workload whose programs run on another lane."""
        if self.config.layout != "columnar":
            return
        from repro.datalog.columnar import batch, vector

        for case, program, database, planner in zip(
            self.config.cases, self.programs, self.databases, self.planners
        ):
            plan = planner.plan(program, database)
            on_vector = vector.supported(plan, database.columnar_store().table, program)
            if not batch.plan_supported(plan) or on_vector != (self.config.lane == "vector"):
                raise RuntimeError(
                    f"{self.config.name}/{case.label} is not on the {self.config.lane} lane"
                )

    def mismatches(self, inputs: List[gen.Facts]) -> int:
        """How many programs' current models differ from the reference."""
        wrong = 0
        for case, facts, result in zip(self.config.cases, inputs, self.results):
            got = {
                predicate: set(result.idb_facts.relation(predicate))
                for predicate in result.idb_facts.predicates()
            }
            expected = {name: rows for name, rows in case.expect(facts).items() if rows}
            if got != expected:
                wrong += 1
        return wrong

    def mismatches_in_child(self, inputs: List[gen.Facts]) -> int:
        """:meth:`mismatches`, run in a forked child that this process waits for.

        The reference models and the set copies of the engine's models are
        then the child's memory: ``peak_rss_mb`` of this process stays what
        the engine alone needs.
        """
        pid = os.fork()
        if pid == 0:
            code = len(self.config.cases)
            try:
                code = self.mismatches(inputs)
            finally:
                os._exit(code)
        code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        return code if code >= 0 else len(self.config.cases)

    def counters(self) -> Tuple[int, ...]:
        return tuple(
            (r.statistics.iterations, r.statistics.rule_firings, r.statistics.facts_derived)
            for r in self.results
        )


def run_untraced(config: GraphConfig, seed: int, seconds: float) -> dict:
    setups = []
    for _ in range(SETUPS):
        start = time.perf_counter()
        inputs = generate(config, seed)
        setups.append(time.perf_counter() - start)

    portfolio = Portfolio(config)
    cold, failed = [], 0
    for _ in range(COLD_PASSES):
        cold.append(portfolio.cold_pass(inputs))
    portfolio.check_lanes()
    failed += portfolio.mismatches_in_child(inputs)
    counters = portfolio.counters()

    portfolio.warm_pass()
    gc.collect()
    gc.freeze()
    warm: List[List[float]] = []
    start = time.perf_counter()
    deadline = start + seconds
    while time.perf_counter() < deadline:
        warm.append(portfolio.warm_pass())
        if portfolio.counters() != counters:
            failed += 1
    wall = time.perf_counter() - start
    passes = [sum(times) for times in warm]
    evaluations = [spent for times in warm for spent in times]
    gc.unfreeze()
    # Read before the first line of checking code runs in this process.
    peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failed += portfolio.mismatches(inputs)

    programs = len(config.cases)
    return {
        "attempted": (len(cold) + len(warm)) * programs,
        "failed": failed,
        "metrics": {
            "setup_s": statistics.median(setups),
            "ops_per_s": len(evaluations) / wall,
            "op_p50_ms": percentile(passes, 0.50) * 1e3,
            "op_p95_ms": percentile(evaluations, 0.95) * 1e3,
            "cold_start_s": statistics.median(cold),
            "peak_rss_mb": peak_rss,
        },
        "samples": {
            "setup_s": len(setups),
            "ops_per_s": len(evaluations),
            "op_p50_ms": len(passes),
            "op_p95_ms": len(evaluations),
            "cold_start_s": len(cold),
            "peak_rss_mb": 1,
        },
        "detail": {
            "programs": programs,
            "pass_p95_ms": percentile(passes, 0.95) * 1e3,
            "program_p50_ms": {
                case.label: statistics.median(times[index] for times in warm) * 1e3
                for index, case in enumerate(config.cases)
            },
            "cold_passes_s": cold,
            "setups_s": setups,
        },
    }


def shard_seconds(portfolio: Portfolio) -> Dict[str, float]:
    """Serial and 2-worker wall time of the pair-closure program (informational)."""
    from repro.datalog.columnar import shard

    if portfolio.config.lane != "packed" or not shard.available():
        return {}
    index = next(i for i, case in enumerate(portfolio.config.cases) if case.label == "tc_rings")
    program, database = portfolio.programs[index], portfolio.databases[index]
    timings = {}
    for workers in (1, 2):
        start = time.perf_counter()
        result = portfolio.engine.evaluate(
            program, database, planner=portfolio.planners[index], workers=workers
        )
        result.idb_facts.fact_count()
        timings[f"columnar.shard.w{workers}_s"] = time.perf_counter() - start
    return timings


def run_traced(config: GraphConfig, seed: int, seconds: float, out=None) -> dict:
    """Traced cold passes, an untraced warm baseline, the same passes traced."""
    from . import spec
    from .trace import Tracer

    inputs = generate(config, seed)
    tracer = Tracer()
    portfolio = Portfolio(config, tracer)
    cold_passes = 2
    tracer.install()
    try:
        for _ in range(cold_passes):
            with tracer.span("harness.pass"):
                portfolio.cold_pass(inputs)
        cold_end, _ = tracer.mark()
        tracer.restore()
        portfolio.check_lanes()
        failed = portfolio.mismatches(inputs)
        codes = sum(
            len(database.columnar_store().table)
            for database in portfolio.databases
            if config.layout == "columnar"
        )

        portfolio.tracer = None
        portfolio.warm_pass()
        gc.collect()
        gc.freeze()
        baseline = []
        deadline = time.perf_counter() + seconds * 0.45
        while time.perf_counter() < deadline:
            baseline.append(sum(portfolio.warm_pass()))

        portfolio.tracer = tracer
        tracer.install()
        steady_start, counts_before = tracer.mark()
        traced = []
        for _ in baseline:
            portfolio.results = []
            with tracer.span("harness.pass"):
                traced.append(sum(portfolio.warm_pass()))
        _, counts_after = tracer.mark()
        tracer.restore()
        gc.unfreeze()
        failed += portfolio.mismatches(inputs)
        portfolio.tracer = None
        pin(ALL_CORES)  # the two shard workers need a core each
        sharded = shard_seconds(portfolio)
    finally:
        tracer.restore()

    passes = len(traced)
    delta = {key: counts_after[key] - counts_before.get(key, 0.0) for key in counts_after}
    direct = {
        "engine.iterations": delta.get("engine.iterations", 0.0) / passes,
        "engine.facts_derived": delta.get("engine.facts_derived", 0.0) / passes,
        "executor.firings": delta.get("executor.firings", 0.0) / passes,
        "columnar.interning.codes": codes,
        "trace.overhead_ratio": statistics.median(traced) / statistics.median(baseline),
        **sharded,
    }
    if out is not None:
        tracer.dump(Path(out) / f"{config.name}.spans.json")
    return {
        "attempted": (cold_passes + 1 + 2 * passes) * len(config.cases),
        "failed": failed,
        "metrics": spec.layer_metrics(
            tracer.self_times(0, cold_end), cold_passes,
            tracer.self_times(steady_start), passes, direct,
        ),
        "samples": {"steady_ops": passes, "cold_events": cold_passes, "spans": len(tracer.spans)},
        "detail": {"traced_pass_s": traced, "baseline_pass_s": baseline},
    }
