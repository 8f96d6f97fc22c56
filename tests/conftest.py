"""Shared helpers: random instance builders and independent reference checks.

The reference implementations here are intentionally naive (subset loops,
vertex-deletion counting) so they stay independent of the library code they
validate.
"""

from __future__ import annotations

import importlib.util
import random
from collections import deque
from itertools import combinations
from pathlib import Path
from typing import Optional

from connmatch.graphs import Matching, VertexWeightedGraph, WeightedGraph
from connmatch.oracle import OracleError, OracleResult
from connmatch.reductions import (
    Cnf,
    SetCoverInstance,
    SteinerInstance,
    gen_bip4,
    gen_crosscomp,
    gen_planar_bipartite,
    gen_planar_subcubic,
    gen_setcover_to_wcs,
    gen_starlike,
    gen_wcs_to_wcm,
)


def _load_bench_instances():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "instances.py"
    spec = importlib.util.spec_from_file_location("bench_instances", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench = _load_bench_instances()  # the benchmark's instance generators


def bench_graph(instance) -> WeightedGraph:
    n, edges = instance[:2]
    return WeightedGraph(n, edges)


# the reduction gadgets that the treewidth-DP tests run, by name
DP_GADGETS = {
    "starlike-3": (gen_starlike, Cnf.build(3, [(1, -2, 3), (-1, 2, -3), (1, 2, -3), (-1, -2, 3)])),
    "bip4-4": (gen_bip4, Cnf.build(4, [(1, 2, -3), (-2, 3, 4), (-1, -3, -4), (1, -2, 4)])),
}


def dp_instance(name: str) -> WeightedGraph:
    """A gadget of ``DP_GADGETS``, or ``ktree-dp-<seed>``: the benchmark's
    partial 4-tree with the weights of that seed."""
    if name in DP_GADGETS:
        gen, f = DP_GADGETS[name]
        return gen(f).graph
    return bench_graph(bench.ktree_dp(int(name.rpartition("-")[2])))


def path_graph(weights):
    return WeightedGraph(len(weights) + 1, [(i, i + 1, w) for i, w in enumerate(weights)])


def cycle_graph(weights):
    n = len(weights)
    edges = [(i, (i + 1) % n, w) for i, w in enumerate(weights)]
    return WeightedGraph(n, edges)


def complete_graph(n, weight_of):
    return WeightedGraph(n, [(u, v, weight_of(u, v)) for u, v in combinations(range(n), 2)])


def star_graph(weights):
    return WeightedGraph(len(weights) + 1, [(0, i + 1, w) for i, w in enumerate(weights)])


def random_tree(rng: random.Random, n: int, wlo: int = -10, whi: int = 10) -> WeightedGraph:
    edges = []
    for v in range(1, n):
        u = rng.randrange(v)
        edges.append((u, v, rng.randint(wlo, whi)))
    return WeightedGraph(n, edges)


def random_connected_graph(rng: random.Random, n: int, extra: int, wlo: int = -10, whi: int = 10) -> WeightedGraph:
    tree = random_tree(rng, n, wlo, whi)
    edges = list(tree.edges)
    present = {(u, v) for u, v, _ in edges}
    candidates = [(u, v) for u, v in combinations(range(n), 2) if (u, v) not in present]
    rng.shuffle(candidates)
    for u, v in candidates[:extra]:
        edges.append((u, v, rng.randint(wlo, whi)))
    return WeightedGraph(n, edges)


def random_chordal_graph(
    rng: random.Random, n: int, wlo: int = 0, whi: int = 10, max_clique: Optional[int] = None
) -> WeightedGraph:
    """Grow a connected chordal graph: each new vertex attaches to a clique.
    ``max_clique`` bounds the cliques formed (so the treewidth is below it)."""
    cliques = [[0]]
    edges = []
    for v in range(1, n):
        base = rng.choice(cliques)
        k = rng.randint(1, len(base) if max_clique is None else min(len(base), max_clique - 1))
        attach = rng.sample(base, k)
        for u in attach:
            edges.append((u, v, rng.randint(wlo, whi)))
        cliques.append(attach + [v])
    return WeightedGraph(n, edges)


def random_ktree(rng: random.Random, n: int, k: int, wlo: int = 0, whi: int = 10) -> WeightedGraph:
    """A random k-tree on ``n > k`` vertices: the benchmark's partial k-tree
    shape with every edge kept and no extra chord. Every vertex after the
    first k + 1 joins a k-clique, so the largest cliques have k + 1 vertices."""
    pairs = bench.partial_ktree_shape(rng, n, k, 1.0, 0)
    return WeightedGraph(n, [(u, v, rng.randint(wlo, whi)) for u, v in pairs])


def naive_mwcm(g: WeightedGraph):
    """Reference maximum weight connected matching: loop over all edge subsets."""
    best_w, best_set = 0, frozenset()
    for mask in range(1 << g.m):
        verts = set()
        ok = True
        w = 0
        eids = []
        for e in range(g.m):
            if mask >> e & 1:
                u, v, we = g.edges[e]
                if u in verts or v in verts:
                    ok = False
                    break
                verts.add(u)
                verts.add(v)
                w += we
                eids.append(e)
        if not ok or w <= best_w:
            continue
        if verts:
            start = next(iter(verts))
            seen = {start}
            queue = deque([start])
            while queue:
                x = queue.popleft()
                for eid in g.adj[x]:
                    y = g.other(eid, x)
                    if y in verts and y not in seen:
                        seen.add(y)
                        queue.append(y)
            if len(seen) != len(verts):
                continue
        best_w, best_set = w, frozenset(eids)
    return best_w, best_set


def naive_wcs(g: VertexWeightedGraph):
    """Reference maximum weight connected subgraph via subset loop."""
    best = 0
    for mask in range(1 << g.n):
        verts = [v for v in range(g.n) if mask >> v & 1]
        if not verts:
            continue
        w = sum(g.vertex_weights[v] for v in verts)
        if w <= best:
            continue
        vset = set(verts)
        seen = {verts[0]}
        queue = deque([verts[0]])
        while queue:
            x = queue.popleft()
            for y in g.adj[x]:
                if y in vset and y not in seen:
                    seen.add(y)
                    queue.append(y)
        if len(seen) == len(vset):
            best = w
    return best


def brute_mwpm(g: WeightedGraph) -> OracleResult:
    """Maximum weight perfect matching by exhaustive pairing, n <= 12."""
    n = g.n
    if n % 2 != 0:
        raise OracleError("no perfect matching: odd number of vertices")
    if n > 12:
        raise OracleError(f"graph has {n} vertices, exceeding the oracle limit of 12")

    edge_of = {}
    for eid, (u, v, w) in enumerate(g.edges):
        edge_of[(u, v)] = eid

    best: list = [None, ()]
    explored = 0

    def rec(free: tuple[int, ...], cur: int, taken: tuple[int, ...]) -> None:
        nonlocal explored
        if not free:
            explored += 1
            if best[0] is None or cur > best[0]:
                best[0] = cur
                best[1] = taken
            return
        v = free[0]
        rest = free[1:]
        for i, u in enumerate(rest):
            key = (v, u) if v < u else (u, v)
            eid = edge_of.get(key)
            if eid is None:
                continue
            rec(rest[:i] + rest[i + 1 :], cur + g.weight(eid), taken + (eid,))

    rec(tuple(range(n)), 0, ())
    if best[0] is None:
        raise OracleError("no perfect matching exists")
    return OracleResult(optimum=best[0], witness=Matching(g, best[1]), explored=explored)


def brute_articulations(g: WeightedGraph) -> set[int]:
    def ncomp(vertices):
        vset = set(vertices)
        seen = set()
        comps = 0
        for s in vertices:
            if s in seen:
                continue
            comps += 1
            seen.add(s)
            queue = deque([s])
            while queue:
                x = queue.popleft()
                for eid in g.adj[x]:
                    y = g.other(eid, x)
                    if y in vset and y not in seen:
                        seen.add(y)
                        queue.append(y)
        return comps

    base = ncomp(list(range(g.n)))
    out = set()
    for v in range(g.n):
        rest = [u for u in range(g.n) if u != v]
        if not rest:
            continue
        if ncomp(rest) > base:
            out.add(v)
    return out


def brute_is_chordal(g: WeightedGraph) -> bool:
    """Chordal iff no vertex subset of size >= 4 induces a cycle."""
    for k in range(4, g.n + 1):
        for subset in combinations(range(g.n), k):
            sub, _, _ = g.induced(subset)
            if sub.m == sub.n and all(sub.degree(v) == 2 for v in range(sub.n)):
                from connmatch.graphs import is_connected

                if is_connected(sub):
                    return False
    return True


# -- reduction sources with a planted solution --------------------------------


def _satisfied(clause, assignment) -> bool:
    return any((lit > 0) == assignment[abs(lit) - 1] for lit in clause)


def planted_3sat(rng: random.Random, nvars: int, nclauses: int, assignment) -> Cnf:
    clauses = []
    while len(clauses) < nclauses:
        clause = tuple(rng.choice([-1, 1]) * rng.randint(1, nvars) for _ in range(3))
        if _satisfied(clause, assignment):
            clauses.append(clause)
    return Cnf.build(nvars, clauses)


def planted_monotone(rng: random.Random, nvars: int, nclauses: int, assignment) -> Cnf:
    clauses = []
    while len(clauses) < nclauses:
        sign = rng.choice([-1, 1])
        clause = tuple(sign * rng.randint(1, nvars) for _ in range(3))
        if _satisfied(clause, assignment):
            clauses.append(clause)
    return Cnf.build(nvars, clauses)


def random_assignment(rng: random.Random, nvars: int) -> tuple:
    return tuple(rng.random() < 0.5 for _ in range(nvars))


def random_steiner(rng: random.Random):
    """A connected source graph and a Steiner tree: a spanning tree with its
    non-terminal leaves pruned away."""
    n = rng.randint(2, 5)
    tree = [(rng.randrange(v), v) for v in range(1, n)]
    extra = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in tree]
    rng.shuffle(extra)
    edges = tree + extra[: rng.randint(0, 2)]
    terminals = set(rng.sample(range(n), rng.randint(1, n)))
    kept = list(tree)
    while True:
        degree = [0] * n
        for u, v in kept:
            degree[u] += 1
            degree[v] += 1
        leaves = {x for x in range(n) if degree[x] == 1 and x not in terminals}
        if not leaves:
            break
        kept = [(u, v) for u, v in kept if u not in leaves and v not in leaves]
    budget = len(kept) + rng.randint(0, 1)
    return SteinerInstance.build(n, edges, terminals, budget), kept


def random_wcs(rng: random.Random):
    """A vertex-weighted graph and a connected vertex set grown from one vertex."""
    n = rng.randint(1, 8)
    edges = set()
    for _ in range(rng.randint(0, 2 * n) if n >= 2 else 0):
        u, v = rng.sample(range(n), 2)
        edges.add((min(u, v), max(u, v)))
    weights = [rng.randint(-5, 5) for _ in range(n)]
    g = VertexWeightedGraph(n, sorted(edges), weights)
    subset = {rng.randrange(n)}
    for _ in range(rng.randint(0, n)):
        frontier = sorted({u for v in subset for u in g.adj[v]} - subset)
        if frontier:
            subset.add(rng.choice(frontier))
    target = sum(weights[v] for v in subset) - rng.randint(0, 2)
    return g, target, subset


def random_setcover(rng: random.Random):
    """A set cover instance and a cover taken greedily in a random order."""
    q = rng.randint(1, 6)
    sets = [set(rng.sample(range(q), rng.randint(1, q))) for _ in range(rng.randint(1, 5))]
    for e in range(q):
        if not any(e in s for s in sets):
            rng.choice(sets).add(e)
    order = list(range(len(sets)))
    rng.shuffle(order)
    chosen, covered = [], set()
    for j in order:
        if covered == set(range(q)):
            break
        if not sets[j] <= covered:
            chosen.append(j)
            covered |= sets[j]
    budget = len(chosen) + rng.randint(0, 1)
    return SetCoverInstance.build(q, sets, budget), chosen


def planted_source(kind: str, rng: random.Random):
    """A random source for generator ``kind`` with a planted solution, as
    ``(generated instance, solution)``. Set-cover solutions list the sets in
    the order the greedy cover took them, so the last one covers an element
    no earlier one does."""
    if kind in ("starlike", "bip4"):
        gen = gen_starlike if kind == "starlike" else gen_bip4
        nvars = rng.randint(1, 5)
        a = random_assignment(rng, nvars)
        return gen(planted_3sat(rng, nvars, rng.randint(0, 6), a)), a
    if kind == "planar-bipartite":
        nvars = rng.randint(1, 5)
        a = random_assignment(rng, nvars)
        return gen_planar_bipartite(planted_monotone(rng, nvars, rng.randint(0, 6), a)), a
    if kind == "crosscomp":
        nvars = rng.randint(1, 4)
        t = rng.randint(1, 4)
        ell = rng.randint(1, t)
        a = random_assignment(rng, nvars)
        fs = [
            planted_3sat(rng, nvars, rng.randint(0, 4), a if i == ell else random_assignment(rng, nvars))
            for i in range(1, t + 1)
        ]
        return gen_crosscomp(fs), (a, ell)
    if kind == "steiner":
        src, tree = random_steiner(rng)
        return gen_planar_subcubic(src), tree
    if kind == "wcs-wcm":
        g, target, subset = random_wcs(rng)
        return gen_wcs_to_wcm(g, target), subset
    src, chosen = random_setcover(rng)
    return gen_setcover_to_wcs(src), chosen
