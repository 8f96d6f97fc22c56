import random

import pytest

from connmatch.graphs import GraphError, WeightedGraph, induced_by_matching_connected
from connmatch.oracle import brute_mwcm
from connmatch import tree_solver, treewidth_solver
from connmatch.treedecomp import TreeDecomposition, heuristic_td, make_nice
from connmatch.treewidth_solver import _node_table, solve_treewidth
from connmatch.degree2_solver import solve_degree_two
from connmatch.tree_solver import _solve_tree_layered, _solve_tree_scalar, solve_tree
from conftest import cycle_graph, path_graph, random_connected_graph, random_tree


class TestSpotValues:
    def test_single_edge(self):
        assert solve_treewidth(WeightedGraph(2, [(0, 1, 5)]))[0] == 5

    def test_p3(self):
        assert solve_treewidth(path_graph([2, 3]))[0] == 3

    def test_c4_with_width2_td(self):
        g = cycle_graph([1, 1, 1, 1])
        td = TreeDecomposition.build([{0, 1, 2}, {0, 2, 3}], [(0, 1)])
        w, m = solve_treewidth(g, td)
        assert w == 2
        assert len(m) == 2

    def test_single_vertex(self):
        g = WeightedGraph(1, [])
        td = TreeDecomposition.build([{0}], [])
        assert solve_treewidth(g, td)[0] == 0

    def test_negative_only(self):
        w, m = solve_treewidth(path_graph([-3, -1, -2]))
        assert w == 0 and len(m) == 0

    def test_disconnected_rejected(self):
        with pytest.raises(GraphError):
            solve_treewidth(WeightedGraph(4, [(0, 1, 1), (2, 3, 1)]))

    def test_invalid_td_rejected(self):
        g = cycle_graph([1, 1, 1])
        td = TreeDecomposition.build([{0, 1}, {1, 2}], [(0, 1)])
        with pytest.raises(GraphError):
            solve_treewidth(g, td)


class TestOracleEquivalence:
    def test_100_random_graphs(self):
        rng = random.Random(5150)
        for _ in range(100):
            n = rng.randint(1, 10)
            g = random_connected_graph(rng, n, rng.randint(0, 2 * n))
            td = heuristic_td(g)
            w, m = solve_treewidth(g, td)
            assert w == brute_mwcm(g, edge_limit=64).optimum
            assert m.weight == w
            assert induced_by_matching_connected(g, m)



class TestCrossSolver:
    """The treewidth DP, forced, against the tree and cycle solvers."""

    @staticmethod
    def assert_agree(g, other):
        """The forced DP's optimum equals ``other``'s; both witnesses check."""
        results = (solve_treewidth(g), other)
        assert results[0][0] == other[0]
        for w, m in results:
            assert m.weight == w
            assert induced_by_matching_connected(g, m)

    @pytest.mark.parametrize("n", [2, 3, 7, 40, 300, 2000])
    def test_random_trees(self, n):
        rng = random.Random(n)
        for _ in range(3 if n <= 300 else 1):
            g = random_tree(rng, n)
            self.assert_agree(g, solve_tree(g))

    def test_tree_on_the_layered_path(self, monkeypatch):
        """Both ways of running the tree DP: the scalar loop, and the numpy
        rounds kept from giving up by ``WIDE = 1``."""
        g = random_tree(random.Random(5000), 5000)
        scalar = _solve_tree_scalar(g, 0)
        monkeypatch.setattr(tree_solver, "WIDE", 1)
        rounds = _solve_tree_layered(g, 0)
        assert rounds is not None
        assert (rounds[0], rounds[1].edge_ids) == (scalar[0], scalar[1].edge_ids)
        self.assert_agree(g, scalar)

    @pytest.mark.parametrize("n", [3, 4, 5, 9, 60, 300])
    def test_cycles(self, n):
        rng = random.Random(n)
        for _ in range(3):
            g = cycle_graph([rng.randint(-10, 10) for _ in range(n)])
            self.assert_agree(g, solve_degree_two(g))


def _tables_per_node(g, nd, use_reduce):
    """Replicate the bottom-up pass, recording each cell's best weight."""
    tables, memo = {}, {}
    snapshot = {}
    for x in nd.postorder():
        kids = nd.nodes[x].children
        tables[x] = _node_table(g, nd, x, [tables[c] for c in kids], use_reduce, memo)
        snapshot[x] = {
            cell: max(w for w, _ in entries.values())
            for cell, entries in tables[x].items()
            if entries
        }
        for c in kids:
            del tables[c]
    return snapshot


class TestReduceSoundness:
    def test_reduce_on_off_identical_per_cell_optima(self):
        rng = random.Random(321)
        for _ in range(30):
            n = rng.randint(2, 8)
            g = random_connected_graph(rng, n, rng.randint(0, n))
            td = heuristic_td(g)
            nd = make_nice(td, 0)
            on = _tables_per_node(g, nd, True)
            off = _tables_per_node(g, nd, False)
            assert on.keys() == off.keys()
            for x in on:
                assert on[x] == off[x], f"node {x} differs"

    def test_size_bound_after_reduce(self):
        rng = random.Random(99)
        for _ in range(25):
            n = rng.randint(2, 9)
            g = random_connected_graph(rng, n, rng.randint(0, 2 * n))
            td = heuristic_td(g)
            nd = make_nice(td, 0)
            tables, memo = {}, {}
            for x in nd.postorder():
                kids = nd.nodes[x].children
                tables[x] = _node_table(g, nd, x, [tables[c] for c in kids], True, memo)
                for (s, u), entries in tables[x].items():
                    # join and glue need every label tuple to cover the
                    # ground S | U, in bag order
                    assert not s & u
                    ground = (s | u).bit_count()
                    assert all(len(labels) == ground for labels in entries)
                    assert len(entries) <= 1 << max(ground - 1, 0)
                for c in kids:
                    del tables[c]

    def test_reduce_on_off_same_answer(self):
        rng = random.Random(12321)
        for _ in range(40):
            n = rng.randint(1, 9)
            g = random_connected_graph(rng, n, rng.randint(0, n))
            td = heuristic_td(g)
            assert solve_treewidth(g, td)[0] == solve_treewidth(g, td, use_reduce=False)[0]


def _reference_join(left, right):
    """The join step as a scan over every (left cell, right cell) pair,
    without reduce: the reference the partner lookup must match."""
    table, memo = {}, {}
    for (sy, uy), a in left.items():
        for (sz, uz), b in right.items():
            if sy & sz:
                continue
            shared = uy & ~sz
            if shared != uz & ~sy or sz & ~uy or sy & ~uz:
                continue
            treewidth_solver.join_entries(a, b, table.setdefault((sy | sz, shared), {}), memo)
    return table


class TestJoinLookup:
    def test_matches_all_pairs_scan(self, monkeypatch):
        calls = {"n": 0}
        original = treewidth_solver.join_entries

        def counted(a, b, out, memo):
            calls["n"] += 1
            original(a, b, out, memo)

        monkeypatch.setattr(treewidth_solver, "join_entries", counted)
        rng = random.Random(4242)
        joins = 0
        for _ in range(60):
            n = rng.randint(3, 10)
            g = random_connected_graph(rng, n, rng.randint(n // 2, 2 * n))
            nd = make_nice(heuristic_td(g), 0)
            tables, memo = {}, {}
            for x in nd.postorder():
                kids = nd.nodes[x].children
                child_tabs = [tables[c] for c in kids]
                if nd.nodes[x].kind == "join":
                    joins += 1
                    before = calls["n"]
                    ref = _reference_join(*child_tabs)
                    mid = calls["n"]
                    tables[x] = _node_table(g, nd, x, child_tabs, False, memo)
                    assert calls["n"] - mid == mid - before
                    assert list(tables[x]) == list(ref)
                    for cell, entries in tables[x].items():
                        assert list(entries.items()) == list(ref[cell].items())
                else:
                    tables[x] = _node_table(g, nd, x, child_tabs, False, memo)
                for c in kids:
                    del tables[c]
        assert joins >= 40

