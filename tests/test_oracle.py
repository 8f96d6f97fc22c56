import random

import pytest

from connmatch.graphs import VertexWeightedGraph, WeightedGraph, induced_by_matching_connected
from connmatch.oracle import OracleError, brute_mwcm, brute_wcs
from conftest import (
    brute_mwpm,
    complete_graph,
    naive_mwcm,
    naive_wcs,
    path_graph,
    random_connected_graph,
    random_tree,
)


class TestBruteMwcm:
    def test_single_negative_edge_yields_empty(self):
        res = brute_mwcm(WeightedGraph(2, [(0, 1, -3)]))
        assert res.optimum == 0
        assert len(res.witness) == 0

    def test_p3(self):
        assert brute_mwcm(path_graph([2, 3])).optimum == 3

    def test_p4_takes_both_end_edges(self):
        res = brute_mwcm(path_graph([3, -1, 4]))
        assert res.optimum == 7
        assert res.witness.edge_ids == (0, 2)

    def test_edge_limit_enforced(self):
        g = complete_graph(8, lambda u, v: 1)
        with pytest.raises(OracleError):
            brute_mwcm(g, edge_limit=24)
        brute_mwcm(g, edge_limit=30)

    def test_matches_naive_enumeration(self):
        rng = random.Random(123)
        for _ in range(120):
            n = rng.randint(1, 7)
            g = random_connected_graph(rng, n, rng.randint(0, 5))
            assert brute_mwcm(g).optimum == naive_mwcm(g)[0]

    def test_matches_naive_on_disconnected(self):
        rng = random.Random(321)
        for _ in range(40):
            a = random_tree(rng, rng.randint(1, 4))
            b = random_tree(rng, rng.randint(1, 4))
            edges = list(a.edges) + [(u + a.n, v + a.n, w) for u, v, w in b.edges]
            g = WeightedGraph(a.n + b.n, edges)
            assert brute_mwcm(g).optimum == naive_mwcm(g)[0]

    def test_witness_is_valid(self):
        rng = random.Random(77)
        for _ in range(60):
            g = random_connected_graph(rng, rng.randint(2, 8), rng.randint(0, 6))
            res = brute_mwcm(g)
            assert induced_by_matching_connected(g, res.witness)
            assert res.witness.weight == res.optimum
            assert res.optimum >= 0
            if g.m:
                assert res.optimum >= max(w for _, _, w in g.edges + ((0, 0, 0),))

    def test_positive_pendant_never_hurts(self):
        rng = random.Random(55)
        for _ in range(40):
            g = random_connected_graph(rng, rng.randint(2, 8), rng.randint(0, 4))
            res = brute_mwcm(g)
            if not res.witness.vertices:
                continue
            v = min(res.witness.vertices)
            g2 = WeightedGraph(g.n + 1, list(g.edges) + [(v, g.n, rng.randint(1, 5))])
            assert brute_mwcm(g2).optimum >= res.optimum


class TestBruteWcs:
    def test_single_vertex(self):
        g = VertexWeightedGraph(1, [], [5])
        res = brute_wcs(g)
        assert res.optimum == 5
        assert res.witness == frozenset({0})

    def test_triangle(self):
        g = VertexWeightedGraph(3, [(0, 1), (1, 2), (0, 2)], [1, -1, 1])
        assert brute_wcs(g).optimum == 2

    def test_path_disconnected_pair_loses(self):
        g = VertexWeightedGraph(3, [(0, 1), (1, 2)], [4, -5, 4])
        assert brute_wcs(g).optimum == 4

    def test_limit(self):
        g = VertexWeightedGraph(21, [], [0] * 21)
        with pytest.raises(OracleError):
            brute_wcs(g)

    def test_matches_naive(self):
        rng = random.Random(9)
        for _ in range(60):
            n = rng.randint(1, 8)
            edges = set()
            for _ in range(rng.randint(0, 2 * n)):
                u, v = rng.sample(range(n), 2) if n >= 2 else (0, 0)
                if u != v:
                    edges.add((min(u, v), max(u, v)))
            g = VertexWeightedGraph(n, sorted(edges), [rng.randint(-6, 6) for _ in range(n)])
            assert brute_wcs(g).optimum == naive_wcs(g)


class TestBruteMwpm:
    def test_forced_edge(self):
        res = brute_mwpm(WeightedGraph(2, [(0, 1, 5)]))
        assert res.optimum == 5

    def test_k4_example(self):
        g = WeightedGraph(4, [(0, 1, 1), (2, 3, 1), (0, 2, 5), (1, 3, 5), (0, 3, 0), (1, 2, 0)])
        res = brute_mwpm(g)
        assert res.optimum == 10
        assert res.witness.vertices == frozenset(range(4))

    def test_odd_rejected(self):
        with pytest.raises(OracleError):
            brute_mwpm(path_graph([1, 1]))

    def test_no_perfect_matching(self):
        # star K_{1,3}: 4 vertices but no perfect matching
        g = WeightedGraph(4, [(0, 1, 1), (0, 2, 1), (0, 3, 1)])
        with pytest.raises(OracleError):
            brute_mwpm(g)
