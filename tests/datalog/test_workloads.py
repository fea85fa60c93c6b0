"""The graph-analytics workload package: generators and program portfolio.

Generators must be deterministic per seed and emit the shared conventions
(node/source facts, edge orientation); the portfolio programs must
validate and — on instances small enough to check independently — produce
answers matching straightforward Python oracles (BFS distances, degree
counters, brute-force triangle enumeration, a hand-rolled Andersen
fixpoint).
"""

from collections import Counter, deque

import pytest

from repro.datalog import get_engine
from repro.datalog.workloads import (
    PORTFOLIO,
    add_ordering,
    add_successors,
    grid,
    parse_workload,
    points_to_input,
    preferential_attachment,
    random_graph,
)

SEMINAIVE = get_engine("seminaive")


class TestGenerators:
    def test_deterministic_per_seed(self):
        assert preferential_attachment(200, 3, seed=9) == preferential_attachment(
            200, 3, seed=9
        )
        assert random_graph(50, 200, seed=2) == random_graph(50, 200, seed=2)
        assert points_to_input(40, 100, seed=1) == points_to_input(40, 100, seed=1)
        assert preferential_attachment(200, 3, seed=9) != preferential_attachment(
            200, 3, seed=10
        )

    def test_conventions_node_source_edge(self):
        database = preferential_attachment(100, 4, seed=0)
        assert database.cardinality("node") == 100
        assert database.relation("source") == {(0,)}
        for u, v in database.relation("edge"):
            assert 0 <= u < 100 and 0 <= v < 100 and u != v

    def test_preferential_attachment_is_heavy_tailed(self):
        database = preferential_attachment(500, 4, seed=0)
        degrees = Counter(u for u, _ in database.relation("edge"))
        # The early hub collects far more than the per-node budget.
        assert max(degrees.values()) > 4 * 5

    def test_grid_shape(self):
        database = grid(4, 3)
        # Right edges: 3 per row x 3 rows; down edges: 4 per column pair x 2.
        assert database.cardinality("edge") == 3 * 3 + 4 * 2
        assert (0, 1) in database.relation("edge")
        assert (0, 4) in database.relation("edge")

    def test_random_graph_exact_edge_count(self):
        database = random_graph(30, 123, seed=7)
        assert database.cardinality("edge") == 123
        with pytest.raises(ValueError):
            random_graph(3, 100)

    def test_successors_and_ordering_helpers(self):
        database = add_successors(grid(3, 3), 5)
        assert database.relation("succ") == {(1, 2), (2, 3), (3, 4), (4, 5)}
        database = add_ordering(grid(2, 2), 3)
        assert database.relation("lt") == {(0, 1), (0, 2), (1, 2)}

    def test_points_to_every_heap_object_allocated(self):
        database = points_to_input(30, 200, seed=4)
        allocated = {heap for _, heap in database.relation("alloc")}
        assert allocated == {f"h{i}" for i in range(30 // 4)}


class TestPortfolio:
    def test_every_program_validates(self):
        for name in PORTFOLIO:
            parse_workload(name).validate()

    def test_unknown_workload_named_in_error(self):
        with pytest.raises(KeyError, match="no_such"):
            parse_workload("no_such")

    def test_reachability_and_complement_partition_nodes(self):
        database = preferential_attachment(300, 3, seed=2)
        result = SEMINAIVE.evaluate(parse_workload("unreachable"), database)
        reach = result.relation("reach")
        unreach = result.relation("unreach")
        assert reach | unreach == database.relation("node")
        assert not reach & unreach

    def test_shortest_path_matches_bfs(self):
        database = add_successors(grid(7, 5), 20)
        result = SEMINAIVE.evaluate(parse_workload("shortest_path"), database)
        edges = database.relation("edge")
        adjacency = {}
        for u, v in edges:
            adjacency.setdefault(u, []).append(v)
        distances, queue = {0: 0}, deque([0])
        while queue:
            u = queue.popleft()
            for v in adjacency.get(u, ()):
                if v not in distances:
                    distances[v] = distances[u] + 1
                    queue.append(v)
        expected = {(n, d) for n, d in distances.items() if 0 < d <= 20}
        assert result.relation("shortest") == expected

    def test_degree_matches_counter(self):
        database = random_graph(40, 160, seed=6)
        result = SEMINAIVE.evaluate(parse_workload("degree"), database)
        expected = Counter(u for u, _ in database.relation("edge"))
        assert dict(result.relation("degree")) == dict(expected)

    def test_triangle_matches_brute_force(self):
        database = add_ordering(random_graph(20, 80, seed=8), 20)
        result = SEMINAIVE.evaluate(parse_workload("triangle"), database)
        edges = database.relation("edge")
        expected = {
            (x, y, z)
            for x, y in edges
            for (y2, z) in edges
            if y2 == y and (z, x) in edges and x < y and x < z
        }
        assert result.relation("tri") == expected
        apexes = {x for x, _, _ in expected}
        if apexes:
            assert result.relation("tri_apexes") == {(len(apexes),)}
        else:
            assert result.relation("tri_apexes") == frozenset()

    def test_points_to_matches_hand_rolled_andersen(self):
        database = points_to_input(25, 120, seed=3)
        result = SEMINAIVE.evaluate(parse_workload("points_to"), database)
        alloc = database.relation("alloc")
        assign = database.relation("assign")
        store = database.relation("store")
        load = database.relation("load")
        pt = set(alloc)
        hpt = set()
        changed = True
        while changed:
            changed = False
            for v, u in assign:
                for u2, h in list(pt):
                    if u2 == u and (v, h) not in pt:
                        pt.add((v, h))
                        changed = True
            for u, v in store:
                for u2, h1 in list(pt):
                    if u2 != u:
                        continue
                    for v2, h2 in list(pt):
                        if v2 == v and (h1, h2) not in hpt:
                            hpt.add((h1, h2))
                            changed = True
            for v, u in load:
                for u2, h1 in list(pt):
                    if u2 != u:
                        continue
                    for h1b, h2 in list(hpt):
                        if h1b == h1 and (v, h2) not in pt:
                            pt.add((v, h2))
                            changed = True
        assert result.relation("pt") == pt
        assert result.relation("hpt") == hpt

    def test_same_generation_is_reflexive_and_symmetric(self):
        database = grid(4, 4)
        result = SEMINAIVE.evaluate(parse_workload("same_generation"), database)
        sg = result.relation("sg")
        for (node,) in database.relation("node"):
            assert (node, node) in sg
        assert all((y, x) in sg for x, y in sg)

    def test_portfolio_runs_on_columnar_layout(self):
        database = preferential_attachment(100, 3, seed=1, layout="columnar")
        result = SEMINAIVE.evaluate(parse_workload("unreachable"), database)
        tuple_result = SEMINAIVE.evaluate(
            parse_workload("unreachable"), preferential_attachment(100, 3, seed=1)
        )
        assert result.idb_facts == tuple_result.idb_facts
        assert result.statistics == tuple_result.statistics

    @pytest.mark.parametrize(
        "name,build",
        [
            ("degree", lambda layout: preferential_attachment(200, 3, seed=2, layout=layout)),
            ("shortest_path", lambda layout: add_successors(grid(8, 6, layout=layout), 24)),
            (
                "triangle",
                lambda layout: add_ordering(random_graph(30, 160, seed=8, layout=layout), 30),
            ),
            # An aggregate over nothing: no edge facts, so no group exists.
            ("degree", lambda layout: grid(1, 1, layout=layout)),
        ],
        ids=["degree", "shortest_path", "triangle", "empty_group"],
    )
    def test_aggregate_rules_fire_through_a_kernel_body(self, name, build):
        from repro.datalog.engine import compile_program_plan
        from repro.datalog.engine.base import is_aggregate_rule
        from repro.datalog.engine.fixpoint import select_lane

        program = parse_workload(name)
        database = build("tuple")
        plan = compile_program_plan(program, database)
        aggregates = [rule for rule in program.rules if is_aggregate_rule(rule)]
        assert aggregates
        for rule in aggregates:
            # The body kernel rides beside the rule kernels, not among them:
            # that None is what keeps the columnar lanes off the program.
            assert plan.kernel(rule) is None
            assert plan.aggregate_kernel(rule) is not None
        for engine in (SEMINAIVE, get_engine("naive")):
            compiled = engine.evaluate(program, database, compiled=True)
            interpreted = engine.evaluate(program, database, compiled=False)
            assert compiled.idb_facts == interpreted.idb_facts
            assert compiled.statistics == interpreted.statistics
        columnar = build("columnar")
        assert select_lane(compile_program_plan(program, columnar), columnar, program) == "tuple"
        assert SEMINAIVE.evaluate(program, columnar).idb_facts == compiled.idb_facts

    def test_compiled_portfolio_never_enters_match_body(self, monkeypatch):
        from repro.datalog.engine import base

        def refuse(*args, **kwargs):
            raise AssertionError("match_body reached on the compiled path")

        monkeypatch.setattr(base, "match_body", refuse)
        database = add_ordering(add_successors(random_graph(20, 80, seed=8), 10), 20)
        for name in PORTFOLIO:
            SEMINAIVE.evaluate(parse_workload(name), database)
