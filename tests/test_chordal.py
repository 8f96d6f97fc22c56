import random
from collections import deque

import pytest

from connmatch.chordal_solver import build_gp, max_weight_perfect_matching, solve_chordal
from connmatch.dispatch import dispatch_solve
from connmatch.graphs import (
    GraphError,
    WeightedGraph,
    articulation_points,
    induced_by_matching_connected,
)
from connmatch.oracle import brute_mwcm
from connmatch.treewidth_solver import solve_treewidth
from conftest import (
    bench,
    bench_graph,
    brute_mwpm,
    complete_graph,
    path_graph,
    random_chordal_graph,
    random_connected_graph,
)


def _rungs(gp, n):
    """Weight of each rung ``(v, v+n)`` of a doubled graph, by vertex."""
    return {u: w for u, v, w in gp.edges if v == u + n}


class TestBuildGp:
    def test_sizes_and_edge_order(self):
        rng = random.Random(12)
        graphs = [path_graph([2, 5]), WeightedGraph(1, []), complete_graph(4, lambda u, v: u + v)]
        graphs += [random_chordal_graph(rng, rng.randint(1, 15), 0, 6) for _ in range(20)]
        for g in graphs:
            gp = build_gp(g)
            n, m = g.n, g.m
            assert gp.n == 2 * n and gp.m == 2 * m + n
            assert gp.edges[:m] == g.edges
            assert gp.edges[m : 2 * m] == tuple((u + n, v + n, w) for u, v, w in g.edges)
            assert sorted(_rungs(gp, n)) == list(range(n))

    def test_p3_penalty_on_the_articulation_rung(self):
        gp = build_gp(path_graph([2, 5]))
        # the middle vertex is the only articulation; its rung is priced
        # below anything both copies together can carry
        assert _rungs(gp, 3) == {0: 0, 1: -(1 + 2 + 5), 2: 0}

    def test_k2_unchanged(self):
        # no articulation: the doubled graph is two copies joined by free rungs
        g = WeightedGraph(2, [(0, 1, 9)])
        gp = build_gp(g)
        assert gp.edges[: g.m] == g.edges
        assert _rungs(gp, g.n) == {0: 0, 1: 0}

    def test_k4_unchanged(self):
        g = complete_graph(4, lambda u, v: u + v)
        gp = build_gp(g)
        assert gp.edges[: g.m] == g.edges
        assert _rungs(gp, g.n) == {0: 0, 1: 0, 2: 0, 3: 0}


class TestMwpm:
    def test_single_edge(self):
        m = max_weight_perfect_matching(WeightedGraph(2, [(0, 1, 5)]))
        assert m.weight == 5

    def test_k4_example(self):
        g = WeightedGraph(4, [(0, 1, 1), (2, 3, 1), (0, 2, 5), (1, 3, 5), (0, 3, 0), (1, 2, 0)])
        assert max_weight_perfect_matching(g).weight == 10

    def test_odd_rejected(self):
        with pytest.raises(GraphError):
            max_weight_perfect_matching(path_graph([1, 1]))

    def test_no_perfect_matching_rejected(self):
        g = WeightedGraph(4, [(0, 1, 1), (0, 2, 1), (0, 3, 1)])
        with pytest.raises(GraphError):
            max_weight_perfect_matching(g)

    def test_matches_bruteforce_on_complete_graphs(self):
        rng = random.Random(8)
        for n in (2, 4, 6, 8, 10):
            for _ in range(12):
                g = complete_graph(n, lambda u, v: rng.randint(-10, 10))
                assert max_weight_perfect_matching(g).weight == brute_mwpm(g).optimum


def _all_optimal_connected_matchings(g):
    """All optimum-weight connected matchings, by subset enumeration."""
    best = 0
    solutions = [frozenset()]
    for mask in range(1, 1 << g.m):
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
                verts.update((u, v))
                w += we
                eids.append(e)
        if not ok or w < best:
            continue
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
        if w > best:
            best = w
            solutions = [frozenset(eids)]
        else:
            solutions.append(frozenset(eids))
    return best, solutions


class TestSolveChordal:
    def test_k4_unit_weights(self):
        w, m = solve_chordal(complete_graph(4, lambda u, v: 1))
        assert w == 2
        assert len(m) == 2

    def test_zero_weight_edge(self):
        w, m = solve_chordal(WeightedGraph(2, [(0, 1, 0)]))
        assert w == 0

    def test_rejects_negative_weights(self):
        with pytest.raises(GraphError):
            solve_chordal(WeightedGraph(2, [(0, 1, -1)]))

    def test_rejects_non_chordal(self):
        from conftest import cycle_graph

        with pytest.raises(GraphError):
            solve_chordal(cycle_graph([1, 1, 1, 1, 1]))

    def test_rejects_disconnected(self):
        with pytest.raises(GraphError):
            solve_chordal(WeightedGraph(4, [(0, 1, 1), (2, 3, 1)]))

    def test_oracle_equivalence_100_chordal_instances(self):
        rng = random.Random(606)
        for _ in range(100):
            n = rng.randint(1, 12)
            g = random_chordal_graph(rng, n, 0, 10)
            w, m = solve_chordal(g)
            assert w == brute_mwcm(g, edge_limit=70).optimum
            assert m.weight == w
            assert induced_by_matching_connected(g, m)

    def test_articulations_saturated_by_some_optimum(self):
        rng = random.Random(77)
        for _ in range(40):
            n = rng.randint(2, 9)
            g = random_connected_graph(rng, n, rng.randint(0, 3), 0, 8)
            arts = articulation_points(g)
            best, sols = _all_optimal_connected_matchings(g)
            if best == 0:
                continue
            covering = []
            for eids in sols:
                sat = {x for e in eids for x in g.endpoints(e)}
                if arts <= sat:
                    covering.append(eids)
            assert covering, f"no optimum saturates all articulations: {g.edges}"


class TestCrossSolver:
    """Checks beyond brute force's reach: the chordal solver against the
    treewidth DP on chordal graphs up to n=200, and against ``auto`` on the
    benchmark's chordal graphs of n=300. Cliques of at most 4 vertices keep
    the width at 3 or below; weights 0..3 make zero edges and ties common."""

    @pytest.mark.parametrize("n, seed", [(40, 1), (80, 2), (120, 3), (160, 4), (200, 5), (200, 6)])
    def test_chordal_agrees_with_treewidth_dp(self, n, seed):
        g = random_chordal_graph(random.Random(seed), n, 0, 3, max_clique=4)
        w_chordal, m_chordal = solve_chordal(g)
        w_dp, m_dp = solve_treewidth(g)
        assert w_chordal == w_dp
        for w, m in ((w_chordal, m_chordal), (w_dp, m_dp)):
            assert m.weight == w
            assert induced_by_matching_connected(g, m)

    @pytest.mark.parametrize("seed, clique", [(1, 4), (2, 4), (3, 6), (4, 6), (5, 8)])
    def test_auto_agrees_with_the_chordal_solver(self, seed, clique):
        # the benchmark's chordal family; auto solves these with the treewidth DP
        g = bench_graph(bench.chordal(random.Random(seed), 300, clique))
        w_auto, m_auto = dispatch_solve(g)
        assert w_auto == solve_chordal(g)[0]
        assert m_auto.weight == w_auto and induced_by_matching_connected(g, m_auto)
