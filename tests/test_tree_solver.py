import random

import pytest

from connmatch import fileio, tree_solver
from connmatch.dispatch import dispatch_solve
from connmatch.graphs import GraphError, Matching, WeightedGraph, induced_by_matching_connected
from connmatch.oracle import brute_mwcm
from connmatch.tree_solver import _solve_tree_layered, _solve_tree_scalar, solve_tree
from conftest import path_graph, random_tree, star_graph
from reference_tree_dp import _reconstruct, tree_dp


def python_path(g, root):
    """The reference DP's answer: the weight and the witness's edge ids."""
    st = tree_dp(g, root)
    best = max(st.score)
    if best <= 0:
        return 0, ()
    top = min(v for v in range(g.n) if st.score[v] == best)
    return best, Matching(g, _reconstruct(g, st, top)).edge_ids


def numpy_rounds(g, root):
    """The numpy rounds, kept from giving up by ``WIDE = 1``."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tree_solver, "WIDE", 1)
        got = _solve_tree_layered(g, root)
    assert got is not None
    return got


# both ways of running the DP
WAYS = (_solve_tree_scalar, numpy_rounds)


def from_text(n, edges, rng):
    """The tree parsed from a ``.gr`` text in the writer's layout, so its
    columns are int64 arrays; the edges are listed in a shuffled order with
    shuffled endpoints."""
    edges = [(v, u, w) if rng.random() < 0.5 else (u, v, w) for u, v, w in edges]
    rng.shuffle(edges)
    lines = [f"p wcm {n} {len(edges)}"] + [f"e {u + 1} {v + 1} {w}" for u, v, w in edges]
    g = fileio.parse_graph_text("\n".join(lines) + "\n")
    assert g._lo is None  # the bulk path built it
    return g


def caterpillar(rng, n, wlo, whi, spine=None):
    """A path of ``spine`` vertices (random if not given) with every other
    vertex hung on it."""
    spine = spine or rng.randint(1, n - 1)
    edges = [(i, i + 1, rng.randint(wlo, whi)) for i in range(spine - 1)]
    edges += [(rng.randrange(spine), v, rng.randint(wlo, whi)) for v in range(spine, n)]
    return n, edges


def random_edges(rng, n, wlo, whi):
    return n, [(rng.randrange(v), v, rng.randint(wlo, whi)) for v in range(1, n)]


def star_edges(rng, n, wlo, whi):
    centre = rng.randrange(n)
    return n, [(centre, v, rng.randint(wlo, whi)) for v in range(n) if v != centre]


def path_edges(rng, n, wlo, whi):
    """A path through the vertices in a random order."""
    order = list(range(n))
    rng.shuffle(order)
    return n, [(order[i], order[i + 1], rng.randint(wlo, whi)) for i in range(n - 1)]


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
    """The scalar loop and the numpy rounds against the reference DP."""

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
            for way in WAYS:
                got = way(g, 0)
                assert got[0] == max(0, best)
                assert got[1].edge_ids == Matching(g, expected[1]).edge_ids if best > 0 else len(got[1]) == 0

    @pytest.mark.parametrize("shape", [random_edges, star_edges, caterpillar, path_edges])
    def test_array_and_tuple_graphs_with_random_roots(self, shape):
        """Tie-heavy and spread weights, small and large trees, built from
        tuples and from int64 arrays, rooted anywhere: both ways give the
        reference's weight and witness."""
        rng = random.Random(405)
        for i in range(60):
            n = rng.randint(2, 3000 if i % 6 == 0 else 60)
            wlo, whi = (-1, 1) if i % 3 else (-9, 9)
            n, edges = shape(rng, n, wlo, whi)
            root = rng.randrange(n)
            for g in (WeightedGraph(n, edges), from_text(n, edges, rng)):
                want = python_path(g, root)
                for way in WAYS:
                    got = way(g, root)
                    assert (got[0], got[1].edge_ids) == want
                    assert got[1].weight == got[0]

    def test_path_gives_up_the_numpy_rounds(self):
        """A path rooted at one end peels one vertex per round: the numpy
        rounds give up at once, and ``solve_tree`` answers by the scalar
        loop."""
        rng = random.Random(406)
        n, edges = 20_003, [(i, i + 1, rng.randint(-3, 5)) for i in range(20_002)]
        g = from_text(n, edges, rng)
        assert _solve_tree_layered(g, 0) is None
        w, m = solve_tree(g)
        assert (w, m.edge_ids) == python_path(g, 0)

    @pytest.mark.parametrize("root", [0, 2, 3, 4999])
    def test_disconnected_graph_with_n_minus_1_edges(self, root):
        """A triangle beside a path: m = n - 1, and either component may
        hold the root."""
        n = 5000
        edges = [(0, 1, 1), (1, 2, 1), (0, 2, 1)] + [(v, v + 1, 2) for v in range(3, n - 1)]
        for g in (WeightedGraph(n, edges), from_text(n, edges, random.Random(root))):
            assert g.m == n - 1
            for way in (solve_tree, *WAYS):
                with pytest.raises(GraphError, match="not a tree: graph is disconnected"):
                    way(g, root)

    def test_disconnected_graph_whose_free_tree_peels_to_nothing(self):
        """The rootless component is a tree whose last two vertices are
        queued as leaves together; the other one holds a cycle. Peeling the
        first leaves the second with no edge, whose XORs name no parent."""
        n = 4100
        edges = [(v, v + 1, 1) for v in range(4093)]  # the root's path
        edges.append((4094, 4095, 1))  # the free tree
        edges += [(u, v, 1) for u in range(4096, 4100) for v in range(u + 1, 4100) if (u, v) != (4096, 4099)]
        assert len(edges) == n - 1
        small = [(0, 1, 1), (1, 2, 1), (2, 0, 1), (3, 4, 1), (5, 6, 1), (6, 7, 1), (7, 8, 1), (8, 9, 1), (2, 5, 1)]
        for n, edges, roots in ((n, edges, [0]), (10, small, range(10))):
            g = WeightedGraph(n, edges)
            for root in roots:
                for way in (solve_tree, *WAYS):
                    with pytest.raises(GraphError, match="not a tree: graph is disconnected"):
                        way(g, root)

    @pytest.mark.parametrize("extreme", [-(2**63), 2**63 - 1])
    def test_int64_extreme_weights_give_the_exact_answer(self, extreme, monkeypatch):
        """Every weight 2**63 - 1, or one -2**63 edge above a vertex of
        positive score, where an int64 gain would wrap: the numpy rounds
        refuse the weights even when forced on, and the scalar loop gives
        the exact answer."""
        rng = random.Random(407)
        n = 5000
        _, edges = random_edges(rng, n - 2, -10, 10)
        if extreme < 0:
            edges += [(rng.randrange(n - 2), n - 2, extreme), (n - 2, n - 1, 10)]
        else:
            edges = [(u, v, extreme) for u, v, _ in edges] + [(0, n - 2, extreme), (0, n - 1, extreme)]
        for g in (WeightedGraph(n, edges), from_text(n, edges, rng)):
            want = python_path(g, 0)
            for wide in (tree_solver.WIDE, 1):
                monkeypatch.setattr(tree_solver, "WIDE", wide)
                assert _solve_tree_layered(g, 0) is None
                w, m = solve_tree(g)
                assert (w, m.edge_ids) == want
                assert m.weight == w

    def test_weight_beyond_int64_takes_the_scalar_loop(self, monkeypatch):
        """A tree built from Python ints may hold a weight no int64 holds."""
        rng = random.Random(409)
        n, edges = random_edges(rng, 3000, -10, 10)
        u, v, _ = edges[1234]
        edges[1234] = (u, v, 2**70)
        g = WeightedGraph(n, edges)
        monkeypatch.setattr(tree_solver, "WIDE", 1)
        assert _solve_tree_layered(g, 0) is None
        w, m = solve_tree(g, 17)
        assert (w, m.edge_ids) == python_path(g, 17)
        assert 1234 in m.edge_ids and m.weight == w > 2**70


def test_array_path_builds_no_python_columns():
    """Bulk-parsed trees go through solve, the certificate round trip and
    the connectivity check: no edge triples, no adjacency lists and no pair
    index are ever built. A random tree stays on its int64 columns, with no
    tuple column either; a path and a caterpillar take the scalar loop,
    which builds only the weights tuple."""
    rng = random.Random(408)
    n = 100_000
    shapes = (
        (random_edges(rng, n, -10, 10), ("_lo", "_hi", "_weights", "_edges", "_adj", "_pair_index")),
        (path_edges(rng, n, -10, 10), ("_lo", "_hi", "_edges", "_adj", "_pair_index")),
        (caterpillar(rng, n, -10, 10, spine=n // 2), ("_lo", "_hi", "_edges", "_adj", "_pair_index")),
    )
    for i, ((n, edges), unbuilt) in enumerate(shapes):
        g = from_text(n, edges, rng)
        assert (_solve_tree_layered(g, 0) is None) == (i > 0)
        w, m = dispatch_solve(g)
        text = fileio.write_certificate_text(m)
        back = fileio.parse_certificate_text(text, g)
        assert fileio._parse_certificate_bulk(text, g) is not None
        assert induced_by_matching_connected(g, back)
        assert back.weight == m.weight == w > 0
        built = {name: getattr(g, name) for name in unbuilt}
        assert built == dict.fromkeys(built)
        assert (w, back.edge_ids) == python_path(g, 0)
