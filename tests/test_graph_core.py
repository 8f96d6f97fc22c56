"""The column graph core against the breadth-first code it replaced.

The ``reference_*`` functions are the previous implementations: a BFS per
component, a BFS over the matched vertices, and an induced subgraph that
scans every edge. The library must give the same lists, answers and edge
ids on every input.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
import time
from collections import deque
from pathlib import Path

import numpy as np
import pytest

from connmatch.dispatch import dispatch_solve
from connmatch.graphs import (
    GraphError,
    Matching,
    WeightedGraph,
    _component_labels,
    _component_subgraphs,
    induced_by_matching_connected,
    is_connected,
)

ROOT = Path(__file__).resolve().parent.parent


def reference_components(g: WeightedGraph) -> list[list[int]]:
    seen = [False] * g.n
    out = []
    for s in range(g.n):
        if seen[s]:
            continue
        seen[s] = True
        comp = [s]
        queue = deque([s])
        while queue:
            v = queue.popleft()
            for eid in g.adj[v]:
                u = g.other(eid, v)
                if not seen[u]:
                    seen[u] = True
                    comp.append(u)
                    queue.append(u)
        out.append(sorted(comp))
    return out


def reference_matching_connected(g: WeightedGraph, m: Matching) -> bool:
    verts = m.vertices
    if not verts:
        return True
    start = next(iter(verts))
    seen = {start}
    queue = deque([start])
    while queue:
        v = queue.popleft()
        for eid in g.adj[v]:
            u = g.other(eid, v)
            if u in verts and u not in seen:
                seen.add(u)
                queue.append(u)
    return len(seen) == len(verts)


def reference_induced(g: WeightedGraph, vertices):
    old_ids = sorted(set(vertices))
    new_of = {v: i for i, v in enumerate(old_ids)}
    sub_edges = []
    edge_map = {}
    for eid, (u, v, w) in enumerate(g.edges):
        if u in new_of and v in new_of:
            edge_map[len(sub_edges)] = eid
            sub_edges.append((new_of[u], new_of[v], w))
    return WeightedGraph(len(old_ids), sub_edges), old_ids, edge_map


def random_graph(rng: random.Random, n: int, m: int) -> WeightedGraph:
    pairs = set()
    m = min(m, n * (n - 1) // 2)
    while len(pairs) < m:
        u, v = rng.sample(range(n), 2)
        if (v, u) not in pairs:
            pairs.add((u, v))
    return WeightedGraph(n, [(u, v, rng.randint(-5, 5)) for u, v in pairs])


def random_matching(rng: random.Random, g: WeightedGraph) -> Matching:
    used = set()
    eids = []
    for e in rng.sample(range(g.m), g.m):
        u, v = g.endpoints(e)
        if u not in used and v not in used and rng.random() < 0.6:
            used.update((u, v))
            eids.append(e)
    return Matching(g, eids)


def permuted_path(rng: random.Random, n: int) -> WeightedGraph:
    perm = list(range(n))
    rng.shuffle(perm)
    return WeightedGraph(n, [(perm[i], perm[i + 1], rng.randint(-3, 3)) for i in range(n - 1)])


def many_components(rng: random.Random, count: int, size: int) -> WeightedGraph:
    """``count`` random trees of ``size`` vertices under one random id permutation."""
    n = count * size
    perm = list(range(n))
    rng.shuffle(perm)
    edges = []
    for c in range(count):
        base = c * size
        for v in range(1, size):
            edges.append((perm[base + rng.randrange(v)], perm[base + v], rng.randint(-10, 10)))
    return WeightedGraph(n, edges)


def assert_same(g: WeightedGraph, rng: random.Random, matchings: int = 3) -> None:
    comps = g.components()
    assert comps == reference_components(g)
    assert is_connected(g) == (len(comps) <= 1)
    for _ in range(matchings):
        m = random_matching(rng, g)
        assert induced_by_matching_connected(g, m) == reference_matching_connected(g, m)


class TestLabellingMatchesReference:
    def test_random_graphs(self):
        rng = random.Random(101)
        for _ in range(200):
            n = rng.randint(0, 30)
            g = random_graph(rng, n, rng.randint(0, 2 * n))
            assert_same(g, rng)

    def test_permuted_path(self):
        rng = random.Random(102)
        g = permuted_path(rng, 10**5)
        assert g.components() == [list(range(10**5))]
        assert is_connected(g)
        every_other = Matching(g, range(0, g.m, 2))
        assert induced_by_matching_connected(g, every_other)
        assert reference_matching_connected(g, every_other)
        gaps = Matching(g, range(0, g.m, 3))
        assert not induced_by_matching_connected(g, gaps)
        assert not reference_matching_connected(g, gaps)
        m = random_matching(rng, g)
        assert induced_by_matching_connected(g, m) == reference_matching_connected(g, m)

    def test_star(self):
        rng = random.Random(103)
        for center in (0, 500, 999):
            g = WeightedGraph(1000, [(center, v, 1) for v in range(1000) if v != center])
            assert_same(g, rng)
            assert induced_by_matching_connected(g, Matching(g, [0]))

    def test_empty_graph(self):
        g = WeightedGraph(0, [])
        assert g.components() == [] == reference_components(g)
        assert is_connected(g)
        assert induced_by_matching_connected(g, Matching(g, []))

    def test_isolated_vertices(self):
        rng = random.Random(104)
        g = WeightedGraph(7, [(5, 2, 1), (2, 6, -1)])
        assert g.components() == [[0], [1], [2, 5, 6], [3], [4]]
        assert_same(g, rng)
        assert not is_connected(WeightedGraph(3, []))
        assert is_connected(WeightedGraph(1, []))

    def test_ten_thousand_components(self):
        rng = random.Random(105)
        g = many_components(rng, 10**4, 5)
        comps = g.components()
        assert len(comps) == 10**4
        assert comps == reference_components(g)
        m = random_matching(rng, g)
        assert induced_by_matching_connected(g, m) == reference_matching_connected(g, m)

    def test_matching_of_another_graph(self):
        g = WeightedGraph(3, [(0, 1, 1), (1, 2, 1)])
        h = WeightedGraph(3, [(0, 1, 1)])
        with pytest.raises(GraphError, match="different graph"):
            induced_by_matching_connected(g, Matching(h, [0]))

    def test_matching_of_an_equal_graph_in_another_edge_order(self):
        rng = random.Random(106)
        for _ in range(100):
            n = rng.randint(2, 20)
            g = random_graph(rng, n, rng.randint(1, 2 * n))
            edges = list(g.edges)
            rng.shuffle(edges)
            h = WeightedGraph(n, edges)
            assert h == g
            m = random_matching(rng, h)
            assert induced_by_matching_connected(g, m) == reference_matching_connected(g, m)


class TestInducedMatchesReference:
    def test_random_graphs(self):
        rng = random.Random(201)
        for _ in range(200):
            n = rng.randint(0, 25)
            g = random_graph(rng, n, rng.randint(0, 2 * n))
            picks = [v for v in range(n) if rng.random() < 0.5]
            rng.shuffle(picks)
            sub, old_ids, edge_map = g.induced(picks + picks[:2])
            ref_sub, ref_ids, ref_map = reference_induced(g, picks)
            assert sub.n == ref_sub.n and sub.edges == ref_sub.edges
            assert old_ids == ref_ids and edge_map == ref_map

    def test_components_of_a_split(self):
        rng = random.Random(202)
        g = many_components(rng, 300, 6)
        for comp in g.components():
            got = g.induced(comp)
            ref = reference_induced(g, comp)
            assert got[0].edges == ref[0].edges and got[1:] == ref[1:]

    def test_component_cuts_match_induced(self):
        rng = random.Random(204)
        for trial in range(100):
            n = rng.randint(0, 25)
            g = random_graph(rng, n, rng.randint(0, n))
            if trial % 3 == 0:  # a weight beyond int64 leaves the graph without a weight array
                g = WeightedGraph(n, [(u, v, w * 2**70) for u, v, w in g.edges])
            elif trial % 3 == 1:  # a graph held as int64 columns
                g = WeightedGraph.from_columns(n, *(np.array(c, dtype=np.int64) for c in (g.lo, g.hi, g.weights)))
            cuts = _component_subgraphs(g, _component_labels(n, *g.endpoint_arrays()))
            assert g._adj is None
            comps = [c for c in reference_components(g) if len(c) > 1]
            assert len(cuts) == len(comps)
            for (sub, ids), comp in zip(cuts, comps):
                ref_sub, _, ref_map = reference_induced(g, comp)
                assert sub.n == ref_sub.n and sub.edges == ref_sub.edges
                assert ids.tolist() == [ref_map[e] for e in range(ref_sub.m)]

    def test_vertex_outside_the_graph_stays_isolated(self):
        g = WeightedGraph(3, [(0, 1, 4), (1, 2, 5)])
        sub, old_ids, edge_map = g.induced([1, 2, 7])
        ref_sub, ref_ids, ref_map = reference_induced(g, [1, 2, 7])
        assert (sub.n, sub.edges, old_ids, edge_map) == (ref_sub.n, ref_sub.edges, ref_ids, ref_map)

    def test_dispatch_of_4000_small_components_is_fast(self):
        rng = random.Random(203)
        g = many_components(rng, 4000, 6)
        WeightedGraph(2, [(0, 1, 1)]).components()  # load numpy outside the timing
        t0 = time.perf_counter()
        w, m = dispatch_solve(g)
        elapsed = time.perf_counter() - t0
        assert m.weight == w and induced_by_matching_connected(g, m)
        assert elapsed < 1.0, f"4000 components took {elapsed:.2f} s"


class TestEdgeId:
    def test_pairs_outside_the_vertex_range(self):
        n = 5
        g = WeightedGraph(n, [(1, 2, 7), (0, 4, 3), (3, 2, 1)])
        present = {(1, 2): 0, (0, 4): 1, (2, 3): 2}
        for u in range(-n - 3, 2 * n + 3):
            for v in range(-n - 3, 2 * n + 3):
                want = present.get((min(u, v), max(u, v))) if 0 <= u < n and 0 <= v < n else None
                assert g.edge_id(u, v) == want, (u, v)
        assert g.edge_id(0, n + 2) is None  # 0 * n + (n + 2) is the key of (1, 2)

    def test_matches_edge_list(self):
        rng = random.Random(301)
        g = random_graph(rng, 40, 120)
        for eid, (u, v, _) in enumerate(g.edges):
            assert g.edge_id(u, v) == eid == g.edge_id(v, u)


class TestColumns:
    def test_columns_mirror_edges(self):
        g = WeightedGraph(4, [(2, 0, 5), (1, 3, -2), (3, 2, 0)])
        assert g.edges == ((0, 2, 5), (1, 3, -2), (2, 3, 0))
        assert (g.lo, g.hi, g.weights) == ((0, 1, 2), (2, 3, 3), (5, -2, 0))
        assert g.adj == [[0], [1], [0, 2], [1, 2]]

    def test_from_columns_matches_constructor(self):
        rng = random.Random(401)
        for _ in range(100):
            n = rng.randint(1, 12)
            g = random_graph(rng, n, rng.randint(0, n))
            us = [rng.choice(e[:2]) for e in g.edges]
            vs = [u ^ a ^ b for u, (a, b, _) in zip(us, g.edges)]
            h = WeightedGraph.from_columns(n, us, vs, [w for _, _, w in g.edges])
            assert h.n == g.n and h.edges == g.edges

    @pytest.mark.parametrize(
        "n, edges",
        [
            (-1, []),
            (3, [(0, 1, 1), (0, 3, 1)]),
            (3, [(0, 1, 1), (-1, 2, 1)]),
            (3, [(0, 1, 1), (2, 2, 1)]),
            (3, [(0, 1, 1), (1, 2, 1.5)]),
            (3, [(0, 1, 1), (1, 2, True)]),
            (3, [(0, 1, 1), (1, 2, 2), (1, 0, 3)]),
            (3, [(0, 2, 1), (2, 2, 1), (0, 2, 1)]),
        ],
    )
    def test_first_error_is_named(self, n, edges):
        with pytest.raises(GraphError) as bulk:
            WeightedGraph.from_columns(n, *[list(c) for c in zip(*edges)] or [[], [], []])
        with pytest.raises(GraphError) as plain:
            WeightedGraph(n, edges)
        assert str(bulk.value) == str(plain.value)

    def test_int64_arrays_match_triples(self):
        """Numpy columns give the graph of the triples, or the same error."""
        def outcome(build):
            try:
                g = build()
            except GraphError as exc:
                return str(exc)
            return g.n, g.edges, g.lo, g.hi, g.weights

        rng = random.Random(402)
        errors = seeded = 0
        for _ in range(300):
            n = rng.choice([0, 1, 2, 5, 12, 10**12])
            edges = []
            for _ in range(rng.randint(0, 8)):
                kind = rng.random()
                if edges and kind < 0.15:  # a duplicate, either way round
                    u, v, _ = rng.choice(edges)
                    u, v = (v, u) if rng.random() < 0.5 else (u, v)
                elif kind < 0.25:  # a self-loop
                    u = v = rng.randrange(max(n, 1))
                elif kind < 0.35:  # an end out of range
                    u, v = rng.choice([-1, n, n + 7, -(2**63), 2**63 - 1]), rng.randrange(max(n, 1))
                else:
                    u, v = rng.randrange(max(n, 1)), rng.randrange(max(n, 1))
                edges.append((u, v, rng.choice([0, -3, 7, 2**63 - 1, -(2**63), rng.randint(-(2**63), 2**63 - 1)])))
            cols = [np.array(c, dtype=np.int64) for c in zip(*edges)] or [np.zeros(0, dtype=np.int64)] * 3
            want = outcome(lambda: WeightedGraph(n, edges))
            got = outcome(lambda: WeightedGraph.from_columns(n, *cols))
            assert got == want, (n, edges)
            if isinstance(want, str):
                errors += 1
                continue
            assert {type(x) for c in want[2:] for x in c} <= {int}
            g = WeightedGraph.from_columns(n, *cols)
            seeded += g._arrays is not None  # built in numpy, not by the fallback
            lo, hi = g.endpoint_arrays()
            assert lo.dtype == hi.dtype == np.int64 and not lo.flags.writeable
            assert (lo.tolist(), hi.tolist()) == (list(want[2]), list(want[3]))
        assert 50 < errors < 250 and seeded > 50

    def test_int64_arrays_build_no_tuples(self):
        """A graph built from int64 arrays keeps read-only arrays as its
        columns and builds the tuples only when they are read."""
        us, vs, ws = (np.array(c, dtype=np.int64) for c in ([2, 1, 3], [0, 3, 2], [5, -2, 2**63 - 1]))
        g = WeightedGraph.from_columns(4, us, vs, ws)
        assert (g._lo, g._hi, g._weights, g._edges, g._adj) == (None,) * 5
        assert g.m == 3
        lo, hi = g.endpoint_arrays()
        w = g.weight_array()
        assert w is not ws and not w.flags.writeable and not lo.flags.writeable
        ws[0] = 7  # the caller's array is copied
        assert (lo.tolist(), hi.tolist(), w.tolist()) == ([0, 1, 2], [2, 3, 3], [5, -2, 2**63 - 1])
        assert (g.lo, g.hi, g.weights) == ((0, 1, 2), (2, 3, 3), (5, -2, 2**63 - 1))
        assert {type(x) for x in g.lo + g.hi + g.weights} == {int}
        # and the other way round: tuples first, arrays on first use
        h = WeightedGraph(4, g.edges)
        assert h.weight_array().tolist() == w.tolist() and not h.weight_array().flags.writeable
        assert h == g

    def test_non_tuple_edges_still_accepted(self):
        g = WeightedGraph(3, [[2, 1, 4], (0, 1, 2)])
        assert g.edges == ((1, 2, 4), (0, 1, 2))


@pytest.mark.parametrize("module", ["numpy", "networkx", "dataclasses", "connmatch.reductions"])
def test_importing_the_cli_does_not_load(module):
    code = f"import sys, connmatch.cli; assert {module!r} not in sys.modules, '{module} imported'"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
