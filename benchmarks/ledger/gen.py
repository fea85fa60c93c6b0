"""Seeded input generators for the ledger: fact lists and program text.

Everything the system under test receives is produced here from the
``--seed`` argument and handed over as plain Python values (lists of
tuples, source strings, request streams).  The generators deliberately do
not call ``repro.datalog.workloads``: a later change to the repository's
own generators or portfolio text must not silently change what the ledger
measures.
"""

from __future__ import annotations

import random
from typing import Dict, List, Set, Tuple

Facts = Dict[str, Set[Tuple]]

# ----------------------------------------------------------------------
# serve_*: the community graph and the registered query
# ----------------------------------------------------------------------
REACH_PROGRAM = """\
?reach($src, Y)
reach(X, Y) :- edge(X, Y).
reach(X, Y) :- reach(X, Z), edge(Z, Y).
"""


def node(index: int) -> str:
    return f"n{index}"


def community_graph(seed: int, communities: int, size: int) -> List[Tuple[str, str]]:
    """``communities`` disjoint strongly connected blocks of ``size`` nodes.

    Each block is a ring plus two random intra-block chords per node, so
    every ``reach($src, Y)`` binding derives exactly ``size`` answers in a
    handful of rounds: request latency is unimodal, and no binding is
    special.  Edges come back sorted so the bulk load is seed-stable.
    """
    rng = random.Random(seed)
    edges = set()
    for community in range(communities):
        base = community * size
        for i in range(size):
            edges.add((node(base + i), node(base + (i + 1) % size)))
            for _ in range(2):
                edges.add((node(base + i), node(base + rng.randrange(size))))
    return sorted(edges)


# ----------------------------------------------------------------------
# graph_*: program text (copies, so the portfolio is pinned here)
# ----------------------------------------------------------------------
REACHABILITY = """
reach(Y) :- source(X), edge(X, Y).
reach(Z) :- reach(Y), edge(Y, Z).
"""
UNREACHABLE = REACHABILITY + """
unreach(X) :- node(X), not reach(X).
"""
DEGREE = """
degree(X, count<Y>) :- edge(X, Y).
"""
SHORTEST_PATH = """
dist(Y, 1) :- source(X), edge(X, Y).
dist(Z, D2) :- dist(Y, D), edge(Y, Z), succ(D, D2).
shortest(Y, min<D>) :- dist(Y, D).
"""
SAME_GENERATION = """
sg(X, X) :- node(X).
sg(X, Y) :- edge(P, X), sg(P, Q), edge(Q, Y).
"""
TRIANGLE = """
tri(X, Y, Z) :- edge(X, Y), edge(Y, Z), edge(Z, X), lt(X, Y), lt(X, Z).
tri_support(X, count<Y>) :- tri(X, Y, Z).
tri_apexes(count<X>) :- tri(X, Y, Z).
"""
TRIANGLE_PLAIN = """
tri(X, Y, Z) :- edge(X, Y), edge(Y, Z), edge(Z, X), lt(X, Y), lt(X, Z).
"""
POINTS_TO = """
pt(V, H) :- alloc(V, H).
pt(V, H) :- assign(V, U), pt(U, H).
hpt(H1, H2) :- store(U, V), pt(U, H1), pt(V, H2).
pt(V, H2) :- load(V, U), pt(U, H1), hpt(H1, H2).
"""
PAIR_TC = """
tc(X, Y) :- edge(X, Y).
tc(X, Y) :- tc(X, Z), edge(Z, Y).
"""
#: Inert arity-3 heads (a copy of an EDB column): they change no other
#: relation but take the whole program off the NumPy vector lane, which
#: only accepts heads of arity <= 2, and onto the packed-bigint lane.
WIDE_SOURCE = "wide3(X, X, X) :- source(X).\n"
WIDE_NODE = "wide3(X, X, X) :- node(X).\n"
WIDE_ALLOC = "wide3(V, V, V) :- alloc(V, H).\n"


def _with_nodes(node_count: int, edges: Set[Tuple]) -> Facts:
    return {
        "node": {(i,) for i in range(node_count)},
        "source": {(0,)},
        "edge": edges,
    }


def preferential_attachment(seed: int, node_count: int, edges_per_node: int = 4) -> Facts:
    """Heavy-tailed digraph: each new node is attached from popular old ones."""
    rng = random.Random(seed)
    edges = set()
    pool = [0]
    for new in range(1, node_count):
        for _ in range(edges_per_node):
            target = pool[rng.randrange(len(pool))]
            if target != new:
                edges.add((target, new))
            pool.append(target)
        pool.append(new)
    return _with_nodes(node_count, edges)


def grid(width: int, height: int) -> Facts:
    """Directed grid, edges right and down; node ``(x, y)`` is ``y*width+x``."""
    edges = set()
    for y in range(height):
        for x in range(width):
            here = y * width + x
            if x + 1 < width:
                edges.add((here, here + 1))
            if y + 1 < height:
                edges.add((here, here + width))
    return _with_nodes(width * height, edges)


def random_graph(seed: int, node_count: int, edge_count: int) -> Facts:
    rng = random.Random(seed)
    edges = set()
    while len(edges) < edge_count:
        edges.add((rng.randrange(node_count), rng.randrange(node_count)))
    return _with_nodes(node_count, edges)


def ring_blocks(seed: int, blocks: int, size: int) -> Facts:
    """Disjoint rings of *size* nodes, one random chord per node.

    Every block is strongly connected, so the pair closure is exactly
    ``blocks * size**2`` rows whatever the seed; the chords only vary the
    number of rounds it takes.
    """
    rng = random.Random(seed)
    edges = set()
    for block in range(blocks):
        base = block * size
        for i in range(size):
            edges.add((base + i, base + (i + 1) % size))
            edges.add((base + i, base + rng.randrange(size)))
    return _with_nodes(blocks * size, edges)


def with_successors(facts: Facts, limit: int) -> Facts:
    facts["succ"] = {(i, i + 1) for i in range(1, limit)}
    return facts


def with_ordering(facts: Facts, node_count: int) -> Facts:
    facts["lt"] = {(i, j) for i in range(node_count) for j in range(i + 1, node_count)}
    return facts


def points_to_input(seed: int, variables: int, statements: int, modules: int = 1) -> Facts:
    """Synthetic Andersen input: 20% alloc, 40% assign, 20% store, 20% load.

    *modules* independent programs over disjoint names share the counts
    evenly, and each holds exactly its share of *distinct* statements of
    each kind: only which names a statement joins is random.  Drawing the
    kinds, and letting duplicates collapse, moved the rule firings — and
    with them the evaluation time — by 4% with the seed; how much one
    random program derives still swings, and the union of several averages
    that out.
    """
    rng = random.Random(seed)
    alloc, assign, store, load = set(), set(), set(), set()
    for module in range(modules):
        names = [f"m{module}v{i}" for i in range(variables // modules)]
        heaps = [f"m{module}h{i}" for i in range(max(len(names) // 4, 1))]
        for index, heap in enumerate(heaps):
            alloc.add((names[index % len(names)], heap))
        rest = max(statements // modules - len(heaps), 0)
        for rows, share, targets in (
            (alloc, 0.2, heaps), (assign, 0.4, names), (store, 0.2, names), (load, 0.2, names)
        ):
            # At most half of the pairs there are, so that the loop ends.
            want = len(rows) + min(round(share * rest), len(names) * len(targets) // 2)
            while len(rows) < want:
                rows.add((rng.choice(names), rng.choice(targets)))
    return {"alloc": alloc, "assign": assign, "store": store, "load": load}
