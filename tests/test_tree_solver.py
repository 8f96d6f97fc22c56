import random

import pytest

from connmatch.graphs import GraphError, Matching, WeightedGraph, induced_by_matching_connected
from connmatch.oracle import brute_mwcm
from connmatch.tree_solver import _reconstruct, _solve_tree_layered, solve_tree, tree_dp
from conftest import path_graph, random_tree, star_graph


class TestSpotValues:
    def test_single_edge(self):
        w, m = solve_tree(WeightedGraph(2, [(0, 1, 7)]))
        assert w == 7
        assert m.edge_ids == (0,)

    def test_single_vertex(self):
        w, m = solve_tree(WeightedGraph(1, []))
        assert w == 0
        assert len(m) == 0

    def test_p4(self):
        w, m = solve_tree(path_graph([3, -1, 4]))
        assert w == 7
        assert m.edge_ids == (0, 2)

    def test_star(self):
        w, m = solve_tree(star_graph([2, 3, -5]))
        assert w == 3
        assert len(m) == 1

    def test_all_negative_path_yields_empty(self):
        w, m = solve_tree(path_graph([-1, -1, -1, -1]))
        assert w == 0
        assert len(m) == 0

    def test_rejects_non_tree(self):
        with pytest.raises(GraphError):
            solve_tree(WeightedGraph(3, [(0, 1, 1), (1, 2, 1), (0, 2, 1)]))
        with pytest.raises(GraphError):
            solve_tree(WeightedGraph(4, [(0, 1, 1), (2, 3, 1), (1, 2, 1), (0, 3, 1)]))


class TestGoldenTable:
    """A 12-vertex tree whose full DP table is known by hand.

    Vertices: a=0 b=1 c=2 d=3 e=4 f=5 g=6 h=7 i=8 j=9 l=10 m=11, rooted at a.
    """

    @staticmethod
    def tree():
        return WeightedGraph(
            12,
            [
                (0, 1, -1),  # ab
                (0, 2, 1),  # ac
                (0, 3, -4),  # ad
                (1, 4, -3),  # be
                (4, 9, 5),  # ej
                (2, 5, 8),  # cf
                (2, 6, -2),  # cg
                (3, 7, -9),  # dh
                (3, 8, -6),  # di
                (8, 10, 4),  # il
                (10, 11, 0),  # lm
            ],
        )

    def test_table_values(self):
        g = self.tree()
        st = tree_dp(g, root=0)
        expected_score = {0: 12, 1: -3, 2: 8, 3: -5, 4: 5, 5: 0, 6: 0, 7: 0, 8: 4, 9: 0, 10: 0, 11: 0}
        expected_unmatched = {0: 8, 1: 5, 2: 0, 3: 4, 4: 0, 5: 0, 6: 0, 7: 0, 8: 0, 9: 0, 10: 0, 11: 0}
        expected_link = {0: 1, 1: 4, 2: 5, 3: 7, 4: 9, 8: 10, 10: 11}
        for v, b in expected_score.items():
            assert st.score[v] == b, f"vertex {v}"
        for v, bb in expected_unmatched.items():
            assert st.score_unmatched[v] == bb, f"vertex {v}"
        for v in range(12):
            assert st.best_child[v] == expected_link.get(v), f"vertex {v}"

    def test_witness(self):
        g = self.tree()
        w, m = solve_tree(g, root=0)
        assert w == 12
        assert m.edge_ids == (0, 4, 5)  # ab, ej, cf
        assert induced_by_matching_connected(g, m)


class TestOracleEquivalence:
    def test_200_random_trees(self):
        rng = random.Random(2024)
        for _ in range(200):
            n = rng.randint(1, 14)
            g = random_tree(rng, n, -10, 10)
            w, m = solve_tree(g)
            assert w == brute_mwcm(g, edge_limit=16).optimum
            assert m.weight == w
            assert induced_by_matching_connected(g, m)

    def test_root_independence(self):
        rng = random.Random(31)
        for _ in range(25):
            n = rng.randint(2, 10)
            g = random_tree(rng, n)
            results = {solve_tree(g, root=r)[0] for r in range(n)}
            assert len(results) == 1

    def test_unmatched_score_identity(self):
        rng = random.Random(17)
        for _ in range(40):
            g = random_tree(rng, rng.randint(2, 12))
            st = tree_dp(g)
            for v in range(g.n):
                kids = [u for u in g.neighbors(v) if st.parent[u] == v]
                assert st.score_unmatched[v] == sum(max(st.score[u], 0) for u in kids)


def test_runtime_scales_roughly_linearly():
    import time

    rng = random.Random(808)

    def timed(n):
        g = WeightedGraph(n, [(rng.randrange(v), v, rng.randint(-10, 10)) for v in range(1, n)])
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            solve_tree(g)
            best = min(best, time.perf_counter() - t0)
        return best

    small = timed(10**5)
    big = timed(10**6)
    # within 3x of linear scaling for a 10x size increase
    assert big <= 30 * max(small, 1e-3), (small, big)


class TestLayeredPathAgreement:
    def test_matches_python_path(self):
        rng = random.Random(404)
        for _ in range(150):
            n = rng.randint(1, 40)
            g = random_tree(rng, n, -8, 8)
            st = tree_dp(g, 0)
            best = max(st.score)
            if best <= 0:
                expected = (0, ())
            else:
                top = min(v for v in range(n) if st.score[v] == best)
                expected = (best, tuple(sorted(_reconstruct(g, st, top))))
            got = _solve_tree_layered(g, 0)
            assert got is not None
            assert got[0] == max(0, best)
            assert got[1].edge_ids == Matching(g, expected[1]).edge_ids if best > 0 else len(got[1]) == 0
