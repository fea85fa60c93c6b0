"""Independent reference answers: plain-Python graph algorithms.

Nothing here imports ``repro``.  Each function takes the generated fact
sets (``{"edge": {(u, v), ...}, ...}``) and returns the model the Datalog
program must derive, ``{predicate: {tuple, ...}}``, computed by a textbook
algorithm (BFS, ``Counter``, worklist) rather than by rule evaluation.
"""

from __future__ import annotations

from collections import defaultdict, deque
from typing import Dict, Iterable, Set, Tuple

Model = Dict[str, Set[Tuple]]


def adjacency(edges: Iterable[Tuple]) -> Dict[object, list]:
    out = defaultdict(list)
    for u, v in edges:
        out[u].append(v)
    return out


def bfs_levels(adj, sources) -> Dict[object, int]:
    """Hop count (>= 1) of the shortest non-empty path from any source."""
    level: Dict[object, int] = {}
    frontier = deque()
    for source in sources:
        for target in adj.get(source, ()):
            if target not in level:
                level[target] = 1
                frontier.append(target)
    while frontier:
        here = frontier.popleft()
        for target in adj.get(here, ()):
            if target not in level:
                level[target] = level[here] + 1
                frontier.append(target)
    return level


def reach_from(adj, source) -> Set:
    """Nodes reachable from *source* over one or more edges."""
    return set(bfs_levels(adj, (source,)))


def reachability(facts) -> Model:
    adj = adjacency(facts["edge"])
    reached = bfs_levels(adj, (s for (s,) in facts["source"]))
    return {"reach": {(n,) for n in reached}}


def unreachable(facts) -> Model:
    model = reachability(facts)
    model["unreach"] = facts["node"] - model["reach"]
    return model


def degree(facts) -> Model:
    targets = defaultdict(set)
    for u, v in facts["edge"]:
        targets[u].add(v)
    return {"degree": {(u, len(vs)) for u, vs in targets.items()}}


def shortest_path(facts) -> Model:
    """``dist`` holds every walk length <= the succ limit; ``shortest`` the min."""
    adj = adjacency(facts["edge"])
    limit = max(d2 for _, d2 in facts["succ"])
    dist = set()
    frontier = {v for (s,) in facts["source"] for v in adj.get(s, ())}
    hops = 1
    while frontier and hops <= limit:
        dist.update((n, hops) for n in frontier)
        frontier = {v for n in frontier for v in adj.get(n, ())}
        hops += 1
    best: Dict[object, int] = {}
    for n, d in dist:
        if d < best.get(n, d + 1):
            best[n] = d
    return {"dist": dist, "shortest": set(best.items())}


def same_generation(facts) -> Model:
    adj = adjacency(facts["edge"])
    sg = {(n, n) for (n,) in facts["node"]}
    work = deque(sg)
    while work:
        p, q = work.popleft()
        for x in adj.get(p, ()):
            for y in adj.get(q, ()):
                if (x, y) not in sg:
                    sg.add((x, y))
                    work.append((x, y))
    return {"sg": sg}


def triangles(facts, aggregates: bool = True) -> Model:
    edges = facts["edge"]
    adj = adjacency(edges)
    tri = set()
    for x, y in edges:
        if x < y:
            for z in adj.get(y, ()):
                if x < z and (z, x) in edges:
                    tri.add((x, y, z))
    model: Model = {"tri": tri}
    if aggregates and tri:
        support = defaultdict(set)
        for x, y, _ in tri:
            support[x].add(y)
        model["tri_support"] = {(x, len(ys)) for x, ys in support.items()}
        model["tri_apexes"] = {(len(support),)}
    return model


def points_to(facts) -> Model:
    """Andersen's analysis by worklist over (variable, heap) and (heap, heap)."""
    assign_from = defaultdict(list)  # u -> [v]  for v = u
    for v, u in facts["assign"]:
        assign_from[u].append(v)
    load_from = defaultdict(list)  # u -> [v]  for v = u.f
    for v, u in facts["load"]:
        load_from[u].append(v)
    store_base = defaultdict(list)  # u -> [v]  for u.f = v
    store_value = defaultdict(list)  # v -> [u]
    for u, v in facts["store"]:
        store_base[u].append(v)
        store_value[v].append(u)
    pt = defaultdict(set)  # variable -> heaps
    hpt = defaultdict(set)  # heap -> heaps
    holders = defaultdict(set)  # heap -> variables pointing to it
    work = deque()

    def add_pt(v, h):
        if h not in pt[v]:
            pt[v].add(h)
            holders[h].add(v)
            work.append(("pt", v, h))

    def add_hpt(h1, h2):
        if h2 not in hpt[h1]:
            hpt[h1].add(h2)
            work.append(("hpt", h1, h2))

    for v, h in facts["alloc"]:
        add_pt(v, h)
    while work:
        kind, a, b = work.popleft()
        if kind == "pt":
            u, h = a, b
            for v in assign_from.get(u, ()):
                add_pt(v, h)
            for v in store_base.get(u, ()):  # u.f = v, pt(u, h)
                for h2 in tuple(pt[v]):
                    add_hpt(h, h2)
            for base in store_value.get(u, ()):  # base.f = u, pt(u, h)
                for h1 in tuple(pt[base]):
                    add_hpt(h1, h)
            for v in load_from.get(u, ()):  # v = u.f, pt(u, h)
                for h2 in tuple(hpt[h]):
                    add_pt(v, h2)
        else:
            h1, h2 = a, b
            for u in tuple(holders[h1]):
                for v in load_from.get(u, ()):
                    add_pt(v, h2)
    return {
        "pt": {(v, h) for v, hs in pt.items() for h in hs},
        "hpt": {(h1, h2) for h1, hs in hpt.items() for h2 in hs},
    }


def pair_closure(facts) -> Model:
    adj = adjacency(facts["edge"])
    return {"tc": {(u, v) for u in adj for v in reach_from(adj, u)}}


def wide(model: Model, column: Iterable[Tuple]) -> Model:
    """Add the inert ``wide3(X, X, X)`` marker relation over *column*."""
    model["wide3"] = {(row[0], row[0], row[0]) for row in column}
    return model
