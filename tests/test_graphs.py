import random

import pytest

from connmatch.graphs import (
    GraphError,
    Matching,
    VertexWeightedGraph,
    WeightedGraph,
    _mcs_order,
    articulation_points,
    check_peo,
    chordal_peo,
    classify,
    diameter,
    induced_by_matching_connected,
    is_connected,
)
from conftest import (
    brute_articulations,
    brute_is_chordal,
    complete_graph,
    cycle_graph,
    path_graph,
    random_chordal_graph,
    random_connected_graph,
    random_tree,
    star_graph,
)


def reference_mcs_order(g: WeightedGraph) -> list[int]:
    """Maximum-cardinality search by a full scan per step (quadratic)."""
    n = g.n
    weight = [0] * n
    visited = [False] * n
    order = []
    for _ in range(n):
        best = -1
        for v in range(n):
            if not visited[v] and (best == -1 or weight[v] > weight[best]):
                best = v
        visited[best] = True
        order.append(best)
        for u in g.neighbors(best):
            if not visited[u]:
                weight[u] += 1
    return order


def reference_chordal_peo(g: WeightedGraph):
    order = list(reversed(reference_mcs_order(g)))
    return tuple(order) if check_peo(g, order) else None


def tree_plus_chords(rng: random.Random, n: int, chords: int) -> WeightedGraph:
    edges = {(u, v): w for u, v, w in random_tree(rng, n).edges}
    while len(edges) < n - 1 + chords:
        u, v = sorted(rng.sample(range(n), 2))
        edges.setdefault((u, v), rng.randint(-10, 10))
    return WeightedGraph(n, [(u, v, w) for (u, v), w in edges.items()])


class TestConstruction:
    def test_rejects_self_loop(self):
        with pytest.raises(GraphError):
            WeightedGraph(2, [(0, 0, 1)])

    def test_rejects_parallel_edges(self):
        with pytest.raises(GraphError):
            WeightedGraph(2, [(0, 1, 1), (1, 0, 2)])

    def test_rejects_out_of_range(self):
        with pytest.raises(GraphError):
            WeightedGraph(2, [(0, 2, 1)])

    def test_rejects_non_integer_weight(self):
        with pytest.raises(GraphError):
            WeightedGraph(2, [(0, 1, 1.5)])

    @pytest.mark.parametrize(
        "edges, message",
        [
            ([(0, 2)], r"^edge \(0, 2\) out of range for n=2$"),
            ([(1, 1)], "^self-loop at vertex 1$"),
            ([(0, 1), (1, 0)], r"^parallel edge \(0, 1\)$"),
        ],
        ids=["out-of-range", "self-loop", "parallel"],
    )
    def test_vertex_weighted_graph_names_the_bad_edge(self, edges, message):
        with pytest.raises(GraphError, match=message):
            VertexWeightedGraph(2, edges, [1, 2])

    def test_adjacency_consistent(self):
        g = path_graph([1, 2, 3])
        assert g.adj[0] == [0]
        assert g.adj[1] == [0, 1]
        assert g.degree(1) == 2
        assert g.neighbors(1) == [0, 2]


class TestConnectivity:
    def test_single_edge_connected(self):
        assert is_connected(WeightedGraph(2, [(0, 1, 1)]))

    def test_two_disjoint_edges_not_connected(self):
        assert not is_connected(WeightedGraph(4, [(0, 1, 1), (2, 3, 1)]))

    def test_empty_graph_connected_by_convention(self):
        assert is_connected(WeightedGraph(0, []))


class TestMatching:
    def test_p4_end_edges_connected(self):
        g = path_graph([3, -1, 4])
        m = Matching(g, [0, 2])
        assert induced_by_matching_connected(g, m)

    def test_p5_end_edges_disconnected(self):
        g = path_graph([1, 1, 1, 1])
        m = Matching(g, [0, 3])
        assert not induced_by_matching_connected(g, m)

    def test_empty_matching_connected(self):
        g = path_graph([1, 1])
        assert induced_by_matching_connected(g, Matching(g, []))

    def test_rejects_bad_edge_index(self):
        g = path_graph([1, 1])
        with pytest.raises(GraphError):
            Matching(g, [5])

    def test_rejects_shared_endpoint(self):
        g = path_graph([1, 1])
        with pytest.raises(GraphError):
            Matching(g, [0, 1])

    def test_weight_cache_matches_recomputation(self):
        rng = random.Random(11)
        for _ in range(50):
            g = random_connected_graph(rng, rng.randint(2, 9), rng.randint(0, 6))
            eids = []
            used = set()
            for e in rng.sample(range(g.m), g.m):
                u, v, _ = g.edges[e]
                if u not in used and v not in used:
                    used.update((u, v))
                    eids.append(e)
                    if rng.random() < 0.5:
                        break
            m = Matching(g, eids)
            assert m.weight == sum(g.weight(e) for e in m.edge_ids)
            assert m.vertices == frozenset(x for e in m.edge_ids for x in g.endpoints(e))


class TestClassify:
    def test_c5(self):
        rep = classify(cycle_graph([1] * 5))
        assert rep.connected and rep.is_cycle
        assert not rep.is_tree and not rep.is_path
        assert rep.bipartition is None
        assert rep.chordal_peo is None

    def test_k4(self):
        rep = classify(complete_graph(4, lambda u, v: 1))
        assert rep.chordal_peo is not None
        assert rep.bipartition is None

    def test_star(self):
        rep = classify(star_graph([2, 3, -5]))
        assert rep.is_tree and rep.connected
        assert rep.bipartition is not None
        assert rep.chordal_peo is not None
        assert not rep.all_weights_nonnegative

    def test_random_trees_recognized(self):
        rng = random.Random(5)
        for _ in range(30):
            rep = classify(random_tree(rng, rng.randint(1, 12)))
            assert rep.is_tree

    def test_even_cycles_bipartite(self):
        rng = random.Random(6)
        for _ in range(10):
            n = 2 * rng.randint(2, 6)
            rep = classify(cycle_graph([1] * n))
            assert rep.bipartition is not None
            g = cycle_graph([1] * n)
            for u, v, _ in g.edges:
                assert rep.bipartition[u] != rep.bipartition[v]

    def test_chordal_detection_vs_bruteforce(self):
        rng = random.Random(7)
        for _ in range(60):
            n = rng.randint(1, 8)
            g = random_connected_graph(rng, n, rng.randint(0, n))
            rep = classify(g)
            if rep.chordal_peo is not None:
                assert check_peo(g, rep.chordal_peo)
                assert brute_is_chordal(g)
            else:
                assert not brute_is_chordal(g)


class TestMcsMatchesReference:
    def test_random_graphs(self):
        rng = random.Random(13)
        chordal_seen = 0
        for i in range(200):
            n = rng.randint(1, 30)
            if i % 2:
                g = random_chordal_graph(rng, n)
            else:
                g = random_connected_graph(rng, n, rng.randint(0, n))
            assert _mcs_order(g) == reference_mcs_order(g)
            peo = chordal_peo(g)
            assert peo == reference_chordal_peo(g)
            chordal_seen += peo is not None
        assert 100 <= chordal_seen < 200

    def test_disconnected(self):
        g = WeightedGraph(7, [(0, 5, 1), (5, 3, 1), (1, 2, 1), (2, 6, 1), (6, 1, 1)])
        assert _mcs_order(g) == reference_mcs_order(g)
        assert chordal_peo(g) == reference_chordal_peo(g)

    @pytest.mark.parametrize("chordal", [True, False])
    def test_large(self, chordal):
        rng = random.Random(17)
        g = random_chordal_graph(rng, 2500) if chordal else tree_plus_chords(rng, 2500, 300)
        assert _mcs_order(g) == reference_mcs_order(g)
        peo = chordal_peo(g)
        assert peo == reference_chordal_peo(g)
        assert (peo is not None) == chordal


class TestArticulations:
    def test_path(self):
        assert articulation_points(path_graph([1, 1])) == {1}

    def test_cycle_has_none(self):
        assert articulation_points(cycle_graph([1] * 6)) == set()

    def test_two_triangles_sharing_vertex(self):
        g = WeightedGraph(5, [(0, 1, 1), (1, 2, 1), (0, 2, 1), (2, 3, 1), (3, 4, 1), (2, 4, 1)])
        assert articulation_points(g) == {2}

    def test_vs_vertex_deletion(self):
        rng = random.Random(9)
        for _ in range(40):
            n = rng.randint(2, 10)
            g = random_connected_graph(rng, n, rng.randint(0, n))
            assert articulation_points(g) == brute_articulations(g)


class TestDiameter:
    def test_values(self):
        assert diameter(WeightedGraph(2, [(0, 1, 5)])) == 1
        assert diameter(path_graph([1, 1, 1])) == 3
        assert diameter(cycle_graph([1] * 6)) == 3

    def test_disconnected_rejected(self):
        with pytest.raises(GraphError):
            diameter(WeightedGraph(4, [(0, 1, 1), (2, 3, 1)]))


def test_induced_subgraph_roundtrip():
    g = complete_graph(5, lambda u, v: u + v)
    sub, old_ids, edge_map = g.induced([1, 3, 4])
    assert sub.n == 3
    assert old_ids == [1, 3, 4]
    for new_eid, old_eid in edge_map.items():
        u, v = sub.endpoints(new_eid)
        ou, ov = g.endpoints(old_eid)
        assert {old_ids[u], old_ids[v]} == {ou, ov}
        assert sub.weight(new_eid) == g.weight(old_eid)
