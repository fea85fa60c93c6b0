"""DatalogService: registry, LRU result cache, cursors, and thread safety."""

import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core.workloads import parent_forest
from repro.datalog import (
    DatalogService,
    Database,
    QueryNotRegisteredError,
    QuerySession,
    parse_program,
)
from repro.datalog.transforms import MagicSets
from repro.errors import EvaluationError

TEMPLATE_TEXT = """
?anc($who, Y)
anc(X, Y) :- par(X, Y).
anc(X, Y) :- anc(X, Z), par(Z, Y).
"""


def make_service(cache_size=256, transforms=(MagicSets(),), database=None):
    service = DatalogService(
        database if database is not None else parent_forest(150, seed=4, root_count=5),
        cache_size=cache_size,
    )
    service.register_program("anc", TEMPLATE_TEXT, transforms=transforms)
    return service


def expected_answers(database, constant):
    program = parse_program(TEMPLATE_TEXT.replace("$who", str(constant)))
    return QuerySession(program, database).answers()


# ----------------------------------------------------------------------
# Registry behaviour
# ----------------------------------------------------------------------
class TestRegistry:
    def test_register_and_execute(self):
        service = make_service()
        assert service.registered_queries() == ("anc",)
        answers = service.execute("anc", who="john")
        assert answers == expected_answers(service.database, "john")

    def test_unknown_query_name(self):
        service = make_service()
        with pytest.raises(QueryNotRegisteredError, match="nope"):
            service.execute("nope", who="john")

    def test_duplicate_registration_requires_replace(self):
        service = make_service()
        with pytest.raises(ValueError, match="replace=True"):
            service.register_program("anc", TEMPLATE_TEXT)
        service.register_program("anc", TEMPLATE_TEXT, replace=True)

    def test_register_requires_a_goal(self):
        service = make_service()
        with pytest.raises(EvaluationError, match="goal"):
            service.register_program("broken", "anc(X, Y) :- par(X, Y).")

    def test_prepare_is_lazy_and_cached(self):
        service = make_service()
        assert service.statistics()["prepared_queries"] == 0
        prepared = service.prepare("anc")
        assert service.prepare("anc") is prepared
        assert service.statistics()["prepared_queries"] == 1


# ----------------------------------------------------------------------
# Result cache semantics
# ----------------------------------------------------------------------
class TestResultCache:
    def test_repeat_requests_hit_the_cache(self):
        service = make_service()
        first = service.execute("anc", who="john")
        second = service.execute("anc", who="john")
        assert first is second  # the identical frozenset object, not a re-run
        stats = service.statistics()
        assert stats["cache_hits"] == 1
        assert stats["cache_misses"] == 1
        assert stats["executions"] == 1

    def test_fresh_bypasses_the_cache(self):
        service = make_service()
        service.execute("anc", who="john")
        service.execute("anc", who="john", fresh=True)
        assert service.statistics()["executions"] == 2

    def test_database_writes_invalidate_cached_answers(self):
        service = make_service(transforms=())
        before = service.execute("anc", who="john")
        added = service.add_facts([("par", ("john", "zz_new"))])
        assert added == 1
        after = service.execute("anc", who="john")
        assert after == before | {("zz_new",)}

    def test_cache_is_bounded_lru(self):
        service = make_service(cache_size=2)
        service.execute("anc", who="john")
        service.execute("anc", who="p1")
        service.execute("anc", who="john")  # refresh john's recency
        service.execute("anc", who="p2")   # evicts p1
        service.execute("anc", who="john")
        stats = service.statistics()
        assert stats["cache_entries"] == 2
        assert stats["cache_hits"] == 2  # both john re-requests
        service.execute("anc", who="p1")  # p1 was evicted: a miss
        assert service.statistics()["cache_misses"] == 4

    def test_zero_cache_size_disables_caching(self):
        service = make_service(cache_size=0)
        service.execute("anc", who="john")
        service.execute("anc", who="john")
        stats = service.statistics()
        assert stats["executions"] == 2
        assert stats["cache_entries"] == 0

    def test_execute_many_populates_the_cache(self):
        service = make_service()
        pool = ["john", "p1", "p2"]
        batch = service.execute_many("anc", [{"who": who} for who in pool])
        assert batch == [expected_answers(service.database, who) for who in pool]
        service.execute("anc", who="p1")
        assert service.statistics()["cache_hits"] == 1

    def test_cursor_streams_cached_answers(self):
        service = make_service()
        rows = list(service.cursor("anc", who="john", batch_size=4))
        assert frozenset(rows) == service.execute("anc", who="john")


# ----------------------------------------------------------------------
# lookup(): the probe that never evaluates and never waits
# ----------------------------------------------------------------------
class TestLookup:
    def test_never_prepares_and_counts_nothing_on_a_miss(self):
        service = make_service()
        assert service.lookup("anc", {"who": "john"}) is None
        assert service.lookup("nope", {"who": "john"}) is None  # execute() owns the 404
        stats = service.statistics()
        assert stats["prepared_queries"] == 0
        assert (stats["cache_hits"], stats["cache_misses"], stats["executions"]) == (0, 0, 0)
        service.prepare("anc")
        assert service.lookup("anc", {"who": "john"}) is None  # prepared, not cached
        assert service.statistics()["cache_misses"] == 0

    def test_hit_returns_the_entry_execute_would_serve(self):
        from repro.datalog import Constant

        service = make_service()
        answers = service.execute("anc", who="john")
        entry = service.lookup("anc", {"who": "john"})
        assert entry.answers is answers and entry.payload is None
        entry.payload = b"wire form"
        assert service.lookup("anc", {"who": Constant("john")}) is entry
        assert service.lookup("anc", {"who": "john"}, "seminaive") is entry  # the default, named
        assert service.lookup("anc", {"who": "john"}, "naive") is None
        assert service.lookup("anc", {"who": "john"}, 5) is None  # execute() owns the rejection
        stats = service.statistics()
        assert (stats["cache_hits"], stats["cache_misses"], stats["executions"]) == (3, 1, 1)

    def test_hit_refreshes_lru_recency_like_execute(self):
        service = make_service(cache_size=2)
        service.execute("anc", who="john")
        service.execute("anc", who="p1")
        assert service.lookup("anc", {"who": "john"}) is not None
        service.execute("anc", who="p2")  # evicts p1, the least recently served
        assert service.lookup("anc", {"who": "p1"}) is None
        assert service.lookup("anc", {"who": "john"}) is not None

    def test_a_write_retires_the_entry_and_its_payload(self):
        service = make_service(transforms=())
        service.execute("anc", who="john")
        service.lookup("anc", {"who": "john"}).payload = b"old"
        service.add_facts([("par", ("john", "zz_new"))])
        assert service.lookup("anc", {"who": "john"}) is None
        after = service.execute("anc", who="john")
        entry = service.lookup("anc", {"who": "john"})
        assert entry.answers is after and ("zz_new",) in after and entry.payload is None

    def test_view_is_served_only_while_its_memo_is_current(self, monkeypatch):
        from repro.datalog import incremental

        service = make_service(transforms=())
        service.materialize("anc", who="john")
        # Nothing has selected yet: the probe must not be the one to do it.
        monkeypatch.setattr(
            incremental, "select_answers", lambda *a: pytest.fail("lookup selected")
        )
        assert service.lookup("anc", {"who": "john"}) is None
        monkeypatch.undo()
        before = service.execute("anc", who="john")
        entry = service.lookup("anc", {"who": "john"})
        assert entry.answers is before
        assert service.lookup("anc", {"who": "john"}) is entry
        entry.payload = b"old"
        for write, batch in (
            (service.add_facts, [("par", ("john", "zz_new"))]),
            (service.remove_facts, [("par", ("john", "zz_new"))]),
        ):
            write(batch)
            assert service.lookup("anc", {"who": "john"}) is None
            current = service.execute("anc", who="john")
            fresh_entry = service.lookup("anc", {"who": "john"})
            assert fresh_entry.answers is current and fresh_entry.payload is None
        assert current == before
        # An engine override skips the view, as in execute().
        assert service.lookup("anc", {"who": "john"}, "seminaive") is None
        stats = service.statistics()
        assert stats["view_hits"] == 7 and stats["cache_hits"] == 0  # the Nones counted nothing
        assert service.dematerialize("anc", who="john")
        assert service.lookup("anc", {"who": "john"}) is None

    def test_returns_none_at_once_while_another_thread_holds_the_lock(self):
        service = make_service()
        service.execute("anc", who="john")
        held, release = threading.Event(), threading.Event()

        def hold():
            with service._lock:
                held.set()
                release.wait(10)

        holder = threading.Thread(target=hold)
        holder.start()
        try:
            assert held.wait(10)
            assert service.lookup("anc", {"who": "john"}) is None
            assert holder.is_alive()  # it answered while the lock was still held
        finally:
            release.set()
            holder.join(10)
        assert not holder.is_alive()
        assert service.lookup("anc", {"who": "john"}) is not None
        assert service.statistics()["cache_hits"] == 1  # the refused probe counted nothing

    def test_every_request_counts_exactly_once(self):
        service = make_service()
        service.materialize("anc", who="p1")
        requests = [who for who in ("john", "p1", "p2", "john", "p1", "p3") for _ in range(3)]
        for who in requests:
            if service.lookup("anc", {"who": who}) is None:
                service.execute("anc", who=who)
        stats = service.statistics()
        assert stats["view_hits"] == 6
        assert stats["cache_hits"] + stats["cache_misses"] == len(requests) - 6
        assert stats["cache_misses"] == stats["executions"] == 3


# ----------------------------------------------------------------------
# Concurrency: the satellite smoke test
# ----------------------------------------------------------------------
class TestConcurrency:
    THREADS = 8
    REQUESTS = 400

    def test_eight_threads_hammering_one_service_agree(self):
        """Satellite requirement: identical answers across all threads."""
        database = parent_forest(300, seed=11, root_count=6)
        service = make_service(database=database)
        pool = ["john", "p1", "p2", "p3", "p4", "p5"]
        expected = {who: expected_answers(database, who) for who in pool}
        mismatches = []
        barrier = threading.Barrier(self.THREADS)

        def worker(thread_index):
            barrier.wait()  # maximise interleaving on the cold caches
            for request in range(self.REQUESTS // self.THREADS):
                who = pool[(thread_index + request) % len(pool)]
                answers = service.execute("anc", who=who)
                if answers != expected[who]:
                    mismatches.append((thread_index, who))

        with ThreadPoolExecutor(max_workers=self.THREADS) as executor:
            list(executor.map(worker, range(self.THREADS)))
        assert not mismatches
        stats = service.statistics()
        assert stats["cache_hits"] + stats["cache_misses"] == self.REQUESTS

    def test_concurrent_uncached_executions_agree(self):
        """fresh=True forces every request through the engine concurrently."""
        database = parent_forest(150, seed=13, root_count=5)
        service = make_service(database=database)
        pool = ["john", "p1", "p2", "p3"]
        expected = {who: expected_answers(database, who) for who in pool}

        def worker(index):
            who = pool[index % len(pool)]
            return who, service.execute("anc", who=who, fresh=True)

        with ThreadPoolExecutor(max_workers=self.THREADS) as executor:
            results = list(executor.map(worker, range(80)))
        assert all(answers == expected[who] for who, answers in results)
        assert service.statistics()["executions"] == 80

    def test_concurrent_prepare_returns_one_object(self):
        service = make_service()
        seen = set()

        def worker(_):
            seen.add(id(service.prepare("anc")))

        with ThreadPoolExecutor(max_workers=self.THREADS) as executor:
            list(executor.map(worker, range(64)))
        assert len(seen) == 1


class TestWriteSnapshotSwap:
    def test_add_facts_swaps_the_snapshot_instead_of_mutating(self):
        service = make_service(transforms=())
        old_database = service.database
        old_version = old_database.version
        service.execute("anc", who="john")
        service.add_facts([("par", ("john", "zz_new"))])
        # in-flight readers of the old snapshot are never disturbed
        assert old_database.version == old_version
        assert not old_database.contains("par", ("john", "zz_new"))
        assert service.database is not old_database
        assert service.database.contains("par", ("john", "zz_new"))
        assert service.statistics()["write_epoch"] == 1

    def test_noop_write_keeps_the_snapshot(self):
        service = make_service(transforms=())
        service.execute("anc", who="john")
        snapshot = service.database
        assert service.add_facts([]) == 0
        assert service.database is snapshot
        assert service.statistics()["write_epoch"] == 0

    def test_prepared_queries_recompile_against_the_new_snapshot(self):
        service = make_service(transforms=(MagicSets(),))
        before = service.prepare("anc")
        service.add_facts([("par", ("john", "zz_new"))])
        after = service.prepare("anc")
        assert after is not before
        assert after.database is service.database


class TestExecutionCounting:
    def test_shared_batch_counts_as_one_engine_run(self):
        service = make_service(transforms=(MagicSets(),))
        prepared = service.prepare("anc")
        assert prepared.uses_shared_fixpoint(3)
        service.execute_many("anc", [{"who": w} for w in ("john", "p1", "p2")])
        assert service.statistics()["executions"] == 1

    def test_per_binding_batch_counts_each_run(self):
        from repro.datalog.transforms import PropagateConstants

        service = DatalogService(parent_forest(60, seed=3, root_count=3))
        service.register_program(
            "anc", TEMPLATE_TEXT, transforms=(PropagateConstants(),)
        )
        assert not service.prepare("anc").supports_shared_execution
        service.execute_many("anc", [{"who": w} for w in ("john", "p1", "p2")])
        assert service.statistics()["executions"] == 3

    def test_constant_wrapped_params_share_a_cache_entry(self):
        from repro.datalog import Constant

        service = make_service()
        service.execute("anc", who="john")
        service.execute("anc", who=Constant("john"))
        stats = service.statistics()
        assert stats["cache_hits"] == 1
        assert stats["executions"] == 1
