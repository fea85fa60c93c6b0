"""The parallel evaluation layer and the planner-cache races it rode in with.

Three concerns share this module because they share one contract:

* **parity** — ``workers=N`` must produce the *identical* model and the
  *identical* :class:`EvaluationStatistics` as the serial run, for every
  engine, layout, and worker count (the Hypothesis differential property);
* **concurrency safety** — the planner cache and the prepared-query plan
  are shared across threads by the service; the hammer tests here fail on
  the pre-fix lock-free code (eviction scan racing a ``del`` raises
  ``RuntimeError: dictionary changed size``, lost counter updates break
  the one-count-per-call invariant);
* **teardown** — aborting a sharded evaluation (cancellation, budget)
  must unwind every forked worker: no orphan processes.
"""

import multiprocessing
import random
import sys
import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.workloads import parent_forest
from repro.datalog import Database, DatalogService, QuerySession, parse_program
from repro.datalog.columnar import batch, shard
from repro.datalog.columnar.relation import KEY_BITS
from repro.datalog.engine import compile_program_plan, get_engine
from repro.datalog.engine.fixpoint import select_lane
from repro.datalog.engine.parallel import depth_groups
from repro.datalog.engine.planner import Planner
from repro.datalog.engine.stats import EvaluationStatistics
from repro.datalog.guard import CancellationToken, ResourceBudget
from repro.datalog.prepared import PreparedQuery
from repro.errors import BudgetExceeded, EvaluationError, QueryCancelled
from tests.datalog.strategies import (
    PROGRAM_POOL,
    STRATIFIED_PROGRAM_POOL,
    WIDE_PROGRAM_POOL,
    edge_databases,
    wide_databases,
)

# Two independent closures (same depth, disjoint heads) feeding a join one
# depth deeper: the only shape that actually exercises the multi-stratum
# thread group — the shared pools are all chains of singleton groups.
SIBLING_PROGRAM = parse_program(
    """
    ?q(X, Y)
    t(X, Y) :- e(X, Y).
    t(X, Y) :- t(X, Z), e(Z, Y).
    s(X, Y) :- f(X, Y).
    s(X, Y) :- s(X, Z), f(Z, Y).
    q(X, Y) :- t(X, Z), s(Z, Y).
    """
)

# Vector-ineligible (the arity-3 head) so ``workers > 1`` on the columnar
# layout routes through the process-sharded driver rather than staying on
# the serial NumPy lane.
SHARDABLE_PROGRAM = parse_program(
    """
    ?t(X, Y)
    t(X, Y) :- e(X, Y).
    t(X, Y) :- t(X, Z), e(Z, Y).
    w(X, X, X) :- e(X, Y).
    """
)


def random_graph(nodes: int, edges: int, seed: int = 7) -> Database:
    rng = random.Random(seed)
    database = Database()
    for _ in range(edges):
        database.add_fact("e", (rng.randrange(nodes), rng.randrange(nodes)))
    return database


def assert_parity(serial, parallel):
    """The full parity contract: identical model AND identical statistics."""
    assert parallel.idb_facts == serial.idb_facts
    assert parallel.statistics == serial.statistics


# ----------------------------------------------------------------------
# Depth annotation and grouping
# ----------------------------------------------------------------------
class TestDepthGroups:
    def test_sibling_strata_share_a_depth_and_a_group(self):
        plan = compile_program_plan(SIBLING_PROGRAM, random_graph(5, 8))
        by_head = {
            predicate: stratum
            for stratum in plan.strata
            for predicate in stratum.predicates
        }
        assert by_head["t"].depth == 0
        assert by_head["s"].depth == 0
        assert by_head["q"].depth == 1
        groups = depth_groups(plan.strata)
        assert [sorted(p for s in group for p in s.predicates) for group in groups] == [
            ["s", "t"],
            ["q"],
        ]
        # Within a group the planner's original index order is preserved —
        # it is the order results fold back in.
        assert [s.index for s in groups[0]] == sorted(s.index for s in groups[0])

    def test_depth_groups_follow_dependency_order(self):
        for program in PROGRAM_POOL + STRATIFIED_PROGRAM_POOL:
            plan = compile_program_plan(program, random_graph(5, 10))
            seen_depths = [group[0].depth for group in depth_groups(plan.strata)]
            assert seen_depths == sorted(seen_depths)
            # Every cross-stratum dependency sits at a strictly lower depth
            # (depth = 1 + max over dependencies), so same-depth siblings
            # never read each other's heads — the concurrency invariant.
            depth_of = {}
            for stratum in plan.strata:
                for predicate in stratum.predicates:
                    depth_of[predicate] = stratum.depth
            for stratum in plan.strata:
                for rule in stratum.rules:
                    for atom in rule.body:
                        other = depth_of.get(atom.predicate)
                        if other is not None and atom.predicate not in stratum.predicates:
                            assert other < stratum.depth

    def test_describe_annotates_positive_depths_only(self):
        plan = compile_program_plan(SIBLING_PROGRAM, random_graph(5, 8))
        text = plan.describe()
        assert ", depth 1" in text
        assert ", depth 0" not in text


# ----------------------------------------------------------------------
# Parity: workers=N is invisible to results and statistics
# ----------------------------------------------------------------------
class TestParity:
    @pytest.mark.parametrize("engine", ["naive", "seminaive"])
    @pytest.mark.parametrize("layout", ["tuple", "columnar"])
    def test_sibling_strata_threaded(self, engine, layout):
        database = random_graph(12, 30, seed=11)
        rng = random.Random(13)
        for _ in range(20):
            database.add_fact("f", (rng.randrange(12), rng.randrange(12)))
        if layout == "columnar":
            database = database.with_layout("columnar")
        evaluate = get_engine(engine).evaluate
        serial = evaluate(SIBLING_PROGRAM, database)
        for workers in (2, 4):
            assert_parity(serial, evaluate(SIBLING_PROGRAM, database, workers=workers))

    @settings(deadline=None, max_examples=30)
    @given(
        database=edge_databases(),
        index=st.integers(min_value=0, max_value=len(PROGRAM_POOL)),
        engine=st.sampled_from(["naive", "seminaive"]),
        layout=st.sampled_from(["tuple", "columnar"]),
        workers=st.sampled_from([2, 3]),
    )
    def test_differential_parallel_vs_serial(self, database, index, engine, layout, workers):
        program = (PROGRAM_POOL + [SIBLING_PROGRAM])[index]
        if layout == "columnar":
            database = database.with_layout("columnar")
        evaluate = get_engine(engine).evaluate
        # Guards armed (generous: nothing here should abort) so the parity
        # property also covers the checkpointed code paths.
        guard = ResourceBudget(timeout=60.0).start(CancellationToken())
        serial = evaluate(program, database)
        parallel = evaluate(program, database, workers=workers, guard=guard)
        assert_parity(serial, parallel)

    @settings(deadline=None, max_examples=20)
    @given(
        database=wide_databases(),
        index=st.integers(min_value=0, max_value=len(WIDE_PROGRAM_POOL) - 1),
        workers=st.sampled_from([2, 3]),
    )
    def test_differential_wide_columnar(self, database, index, workers):
        # Arity-3/4 heads are vector-ineligible, so on the columnar layout
        # these route through the sharded driver (small rounds fire
        # in-driver; the bookkeeping is the shared code either way).
        program = WIDE_PROGRAM_POOL[index]
        database = database.with_layout("columnar")
        evaluate = get_engine("seminaive").evaluate
        serial = evaluate(program, database)
        assert_parity(serial, evaluate(program, database, workers=workers))

    def test_session_and_stratified_parity(self):
        database = random_graph(8, 20, seed=5)
        for program in STRATIFIED_PROGRAM_POOL:
            session = QuerySession(program, database)
            assert session.answers(workers=2) == session.answers()

    def test_session_rejects_workers_on_topdown(self):
        session = QuerySession(PROGRAM_POOL[0], random_graph(5, 8))
        with pytest.raises(EvaluationError, match="does not support the workers option"):
            session.evaluate("topdown", workers=2)


# ----------------------------------------------------------------------
# The process-sharded columnar lane
# ----------------------------------------------------------------------
fork_only = pytest.mark.skipif(
    not shard.available(), reason="fork start method unavailable"
)


@fork_only
class TestShardedDeltas:
    def test_sharded_lane_requires_wide_heads(self):
        database = random_graph(400, 1100).with_layout("columnar")
        plan = compile_program_plan(SHARDABLE_PROGRAM, database)
        assert shard.applicable(plan, workers=2)
        assert not shard.applicable(plan, workers=1)
        assert select_lane(plan, database, SHARDABLE_PROGRAM, workers=2) == "sharded"
        assert select_lane(plan, database, SHARDABLE_PROGRAM, workers=1) == "packed"
        # Naive has no deltas to shard.
        assert select_lane(plan, database, SHARDABLE_PROGRAM, workers=2, naive=True) == "packed"
        # Binary heads stay on the (already C-speed) vector lane, serial.
        narrow = PROGRAM_POOL[0]
        narrow_plan = compile_program_plan(narrow, database)
        assert select_lane(narrow_plan, database, narrow, workers=2) == "vector"

    def test_forked_rounds_match_serial_exactly(self):
        # Big enough that recursive rounds clear MIN_SHARD_ROWS and the
        # pools really fork; parity must hold bit-for-bit anyway.
        database = random_graph(400, 1100).with_layout("columnar")
        evaluate = get_engine("seminaive").evaluate
        serial = evaluate(SHARDABLE_PROGRAM, database)
        assert_parity(serial, evaluate(SHARDABLE_PROGRAM, database, workers=2))
        assert_parity(serial, evaluate(SHARDABLE_PROGRAM, database, workers=3))

    def test_shard_groups_merge_repeated_payload_entries(self):
        # A clean merged commit ships one payload entry per shard piece,
        # so one (predicate, arity) appears repeatedly; regression: the
        # slicer replaced the group on the second entry instead of
        # extending it, silently dropping delta rows in every worker.
        bits = KEY_BITS
        def entry(rows):
            keys = [(1 << (2 * bits)) | (a << bits) | b for a, b in rows]
            columns = [[a for a, _ in rows], [b for _, b in rows]]
            return ("t", 2, columns, keys)

        payload = [entry([(0, 1), (1, 2)]), entry([(2, 3), (3, 4)])]
        for nshards in (1, 2, 3):
            merged = set()
            for s in range(nshards):
                delta = shard._shard_groups(payload, s, nshards)
                if delta:
                    merged |= delta["t"][2].keys
            assert merged == {k for _, _, _, keys in payload for k in keys}

    def test_every_round_sharded_nondecomposable_still_matches(self, monkeypatch):
        # The reversed closure is linear but NOT decomposable (the head's
        # first column is not carried from the delta atom), so every
        # round round-trips the payload through _shard_groups — the path
        # where clean multi-piece payloads must merge, not replace.
        monkeypatch.setattr(shard, "MIN_SHARD_ROWS", 1)
        program = parse_program(
            """
            ?t(X, Y)
            t(X, Y) :- e(X, Y).
            t(X, Y) :- t(Z, Y), e(Z, X).
            w(X, X, X) :- e(X, Y).
            """
        )
        database = random_graph(60, 150, seed=3).with_layout("columnar")
        evaluate = get_engine("seminaive").evaluate
        serial = evaluate(program, database)
        assert_parity(serial, evaluate(program, database, workers=2))
        assert_parity(serial, evaluate(program, database, workers=3))

    def test_every_round_sharded_still_matches(self, monkeypatch):
        # Force even tiny rounds across the process boundary: the
        # incremental mirror sync runs every round instead of hiding
        # behind the in-driver small-round path.
        monkeypatch.setattr(shard, "MIN_SHARD_ROWS", 1)
        database = random_graph(60, 150, seed=3).with_layout("columnar")
        evaluate = get_engine("seminaive").evaluate
        serial = evaluate(SHARDABLE_PROGRAM, database)
        assert_parity(serial, evaluate(SHARDABLE_PROGRAM, database, workers=2))

    def test_decomposable_strata_classification(self):
        # The owner-computes analysis: a closure whose single recursive
        # variant carries the delta's shard column into the head's first
        # column is shard-closed; probing the head positionally anywhere,
        # or breaking the alignment, disqualifies it.
        def classify(program):
            database = random_graph(10, 20).with_layout("columnar")
            plan = compile_program_plan(program, database)
            lane = shard.ShardedLane(database, plan, EvaluationStatistics())
            lane.close()
            decomposable = lane.decomposable
            by_head = {
                predicate: stratum.index
                for stratum in plan.strata
                for predicate in stratum.predicates
            }
            return {decomposable.get(by_head["t"])}

        assert classify(SHARDABLE_PROGRAM) == {0}
        # A *nonrecursive* downstream consumer is harmless — static passes
        # fire in-driver, where the model is always complete — so it does
        # not disqualify the closure.
        assert classify(
            parse_program(
                """
                ?p(X, Y)
                t(X, Y) :- e(X, Y).
                t(X, Y) :- t(X, Z), e(Z, Y).
                p(X, Y) :- t(X, Z), t(Z, Y).
                w(X, X, X) :- e(X, Y).
                """
            )
        ) == {0}
        # A *recursive* downstream consumer probes t from a delta variant,
        # which runs in the workers: their t mirrors would be shard-partial
        # if t's stratum skipped the sync, so it must not.
        assert classify(
            parse_program(
                """
                ?p(X, Y)
                t(X, Y) :- e(X, Y).
                t(X, Y) :- t(X, Z), e(Z, Y).
                p(X, Y) :- e(X, Y).
                p(X, Y) :- p(X, Z), t(Z, Y).
                w(X, X, X) :- e(X, Y).
                """
            )
        ) == {None}
        # Reversed closure: the head's first column is not carried from
        # the delta atom at all — sharding it would scatter derivations.
        assert classify(
            parse_program(
                """
                ?t(X, Y)
                t(X, Y) :- e(X, Y).
                t(X, Y) :- t(Z, Y), e(Z, X).
                w(X, X, X) :- e(X, Y).
                """
            )
        ) == {None}

    def test_owner_computes_reseeds_after_in_driver_rounds(self, monkeypatch):
        # A dense component (big early rounds) plus a fan->chain->fan
        # bottleneck (small mid rounds, then a fan*fan bang) drives the
        # decomposable stratum through every retained-delta transition:
        # seed -> use -> in-driver (retained state invalidated) -> reseed.
        rng = random.Random(0)
        database = Database()
        for _ in range(110):
            database.add_fact(
                "e", (1000 + rng.randrange(40), 1000 + rng.randrange(40))
            )
        for i in range(20):
            database.add_fact("e", (i, 100))
            database.add_fact("e", (108, 200 + i))
        for i in range(8):
            database.add_fact("e", (100 + i, 100 + i + 1))
        database = database.with_layout("columnar")
        evaluate = get_engine("seminaive").evaluate
        serial = evaluate(SHARDABLE_PROGRAM, database)

        # Who fired each round: the shards, or the driver itself (the
        # packed lane's fire, which the sharded lane falls back to for
        # static passes and rounds under MIN_SHARD_ROWS).
        tags = []
        fire_sharded = shard.ShardedLane._fire_sharded
        fire_in_driver = batch.PackedLane.fire

        def spy_sharded(lane, rules, delta):
            tags.append("sharded")
            return fire_sharded(lane, rules, delta)

        def spy_driver(lane, rules, delta):
            tags.append("driver")
            return fire_in_driver(lane, rules, delta)

        monkeypatch.setattr(shard, "MIN_SHARD_ROWS", 100)
        monkeypatch.setattr(shard.ShardedLane, "_fire_sharded", spy_sharded)
        monkeypatch.setattr(batch.PackedLane, "fire", spy_driver)
        for workers in (2, 3):
            tags.clear()
            assert_parity(serial, evaluate(SHARDABLE_PROGRAM, database, workers=workers))
            first = tags.index("sharded")
            last = len(tags) - 1 - tags[::-1].index("sharded")
            # At least one in-driver round strictly between two sharded
            # rounds: the second sharded round had to re-shard its delta
            # (retained worker state was stale), not reuse it.
            assert "driver" in tags[first + 1 : last]

    def test_budget_abort_leaves_no_orphan_workers(self):
        database = random_graph(400, 1100).with_layout("columnar")
        # Rounds 1-2 are the static passes plus the first (sharded, pools
        # forked) recursive rounds; the cap trips after that, while the
        # shard workers are live — exactly the teardown under test.
        budget = ResourceBudget(max_rounds=4)
        before = {id(p) for p in multiprocessing.active_children()}
        with pytest.raises(BudgetExceeded):
            get_engine("seminaive").evaluate(
                SHARDABLE_PROGRAM,
                database,
                workers=2,
                guard=budget.start(),
            )
        for process in multiprocessing.active_children():
            if id(process) not in before:
                process.join(timeout=5)
                assert not process.is_alive()

    def test_cancellation_aborts_all_shards(self, monkeypatch):
        # MIN_SHARD_ROWS=1 makes every round a process round-trip, so the
        # evaluation is reliably still running when the token flips; the
        # driver observes it at a wait-slice checkpoint and the workers at
        # their next rule boundary.
        monkeypatch.setattr(shard, "MIN_SHARD_ROWS", 1)
        chain = Database()
        for i in range(260):
            chain.add_fact("e", (i, i + 1))
        database = chain.with_layout("columnar")
        token = CancellationToken()
        timer = threading.Timer(0.05, token.cancel)
        timer.start()
        before = {id(p) for p in multiprocessing.active_children()}
        try:
            with pytest.raises(QueryCancelled):
                get_engine("seminaive").evaluate(
                    SHARDABLE_PROGRAM,
                    database,
                    workers=2,
                    guard=ResourceBudget().start(token),
                )
        finally:
            timer.cancel()
        for process in multiprocessing.active_children():
            if id(process) not in before:
                process.join(timeout=5)
                assert not process.is_alive()


# ----------------------------------------------------------------------
# Planner cache under thread fire (regression: pre-fix this was lock-free)
# ----------------------------------------------------------------------
class TestPlannerHammer:
    THREADS = 8
    CALLS = 1500
    ROUNDS = 4

    def test_shared_planner_with_constant_eviction(self):
        # Calibrated against the pre-fix lock-free cache: at these volumes
        # one round trips it >80% of the time ("dictionary changed size
        # during iteration" from the eviction scan, KeyError from the LRU
        # del/re-insert, or lost counter updates), so four rounds make the
        # regression effectively certain while the locked cache sails
        # through deterministically.
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # amplify preemption at bytecode level
        try:
            for _ in range(self.ROUNDS):
                self._hammer_one_round()
        finally:
            sys.setswitchinterval(switch)

    def _hammer_one_round(self) -> None:
        planner = Planner()
        planner.MAX_ENTRIES = 4  # instance override: every miss evicts
        database = random_graph(6, 14)
        # More live (program, database) pairs than cache slots, and each a
        # distinct object so the cache cannot collapse them.
        programs = [
            parse_program(
                """
                ?t(X, Y)
                t(X, Y) :- e(X, Y).
                t(X, Y) :- t(X, Z), e(Z, Y).
                """
            )
            for _ in range(12)
        ]
        errors = []
        barrier = threading.Barrier(self.THREADS)

        def worker(seed: int) -> None:
            rng = random.Random(seed)
            try:
                barrier.wait()
                for _ in range(self.CALLS):
                    plan = planner.plan(rng.choice(programs), database)
                    assert plan.strata  # a real plan, not a torn read
            except BaseException as error:  # noqa: BLE001 - the assertion payload
                errors.append(error)

        threads = [
            threading.Thread(target=worker, args=(seed,))
            for seed in range(self.THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert errors == []
        # Exactly one count per call: lost updates or double-counts mean
        # the counters (and therefore the cache structure) raced.
        assert (
            planner.plans_compiled + planner.cache_hits
            == self.THREADS * self.CALLS
        )
        assert len(planner._cache) <= planner.MAX_ENTRIES

    def test_shared_service_mixed_programs_under_threads(self):
        service = DatalogService(
            parent_forest(80, seed=4, root_count=4), cache_size=2
        )
        service.register_program(
            "anc",
            """
            ?anc($who, Y)
            anc(X, Y) :- par(X, Y).
            anc(X, Y) :- anc(X, Z), par(Z, Y).
            """,
        )
        service.register_program(
            "sib",
            """
            ?sib($who, Y)
            sib(X, Y) :- par(Z, X), par(Z, Y).
            """,
        )
        whos = [f"p{i}" for i in range(1, 9)] + ["john"]
        expected = {
            (name, who): service.execute(name, who=who)
            for name in ("anc", "sib")
            for who in whos
        }
        errors = []
        barrier = threading.Barrier(6)

        def worker(seed: int) -> None:
            rng = random.Random(seed)
            try:
                barrier.wait()
                for _ in range(25):
                    name = rng.choice(("anc", "sib"))
                    who = rng.choice(whos)
                    answers = service.execute(name, who=who, fresh=rng.random() < 0.5)
                    assert answers == expected[(name, who)]
            except BaseException as error:  # noqa: BLE001
                errors.append(error)

        threads = [threading.Thread(target=worker, args=(s,)) for s in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []

    def test_prepared_plan_compiles_once_across_threads(self):
        prepared = PreparedQuery(
            parse_program(
                """
                ?anc($who, Y)
                anc(X, Y) :- par(X, Y).
                anc(X, Y) :- anc(X, Z), par(Z, Y).
                """
            ),
            parent_forest(60, seed=3, root_count=3),
        )
        plans = []
        barrier = threading.Barrier(8)

        def worker() -> None:
            barrier.wait()
            plans.append(prepared.plan())

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(plans) == 8
        assert all(plan is plans[0] for plan in plans)
        # A database mutation invalidates the published pair.
        prepared.database.add_fact("par", ("zz_a", "zz_b"))
        assert prepared.plan() is not plans[0]


# ----------------------------------------------------------------------
# Service-level workers plumbing
# ----------------------------------------------------------------------
class TestServiceWorkers:
    @pytest.mark.parametrize("bad", [0, -1, True, 1.5])
    def test_constructor_validates_workers(self, bad):
        with pytest.raises(ValueError, match="workers"):
            DatalogService(Database(), workers=bad)

    def test_service_default_workers_apply_to_supporting_engines(self):
        database = parent_forest(60, seed=3, root_count=3)
        text = """
        ?anc($who, Y)
        anc(X, Y) :- par(X, Y).
        anc(X, Y) :- anc(X, Z), par(Z, Y).
        """
        serial = DatalogService(database)
        parallel = DatalogService(database, workers=2)
        for service in (serial, parallel):
            service.register_program("anc", text)
        assert parallel.execute("anc", who="john") == serial.execute("anc", who="john")

    def test_service_default_degrades_for_engines_without_the_layer(self):
        # The service-wide default is a hint across a mixed-engine registry:
        # engines without the parallel layer silently run serial instead of
        # rejecting every request.
        database = parent_forest(40, seed=3, root_count=2)
        service = DatalogService(database, workers=2)
        service.register_program(
            "anc",
            """
            ?anc($who, Y)
            anc(X, Y) :- par(X, Y).
            anc(X, Y) :- anc(X, Z), par(Z, Y).
            """,
        )
        baseline = DatalogService(database)
        baseline.register_program(
            "anc",
            """
            ?anc($who, Y)
            anc(X, Y) :- par(X, Y).
            anc(X, Y) :- anc(X, Z), par(Z, Y).
            """,
        )
        assert service.execute("anc", who="john", engine="topdown") == baseline.execute(
            "anc", who="john", engine="topdown"
        )

    def test_per_call_workers_stay_strict(self):
        service = DatalogService(parent_forest(40, seed=3, root_count=2))
        service.register_program(
            "anc",
            """
            ?anc($who, Y)
            anc(X, Y) :- par(X, Y).
            anc(X, Y) :- anc(X, Z), par(Z, Y).
            """,
        )
        with pytest.raises(EvaluationError, match="does not support the workers option"):
            service.execute("anc", who="john", engine="topdown", workers=2)
