import random
from collections import deque
from itertools import combinations

import pytest

import reference_nice
from connmatch.graphs import GraphError, WeightedGraph, chordal_peo, is_connected
from connmatch.oracle import brute_mwcm
from connmatch.treedecomp import (
    NiceTreeDecomposition,
    TdError,
    TreeDecomposition,
    cell_bound,
    heuristic_td,
    make_nice,
    peo_td,
    validate_td,
)
from connmatch.treewidth_solver import _run_dp
from conftest import (
    DP_GADGETS,
    bench,
    bench_graph,
    complete_graph,
    cycle_graph,
    dp_instance,
    path_graph,
    random_chordal_graph,
    random_connected_graph,
    random_ktree,
    random_tree,
)


# Reference versions: the quadratic code the library used before the heap and
# the bag index. The library must return exactly what these return.


def reference_validate_td(g: WeightedGraph, td: TreeDecomposition) -> int:
    nbags = len(td.bags)
    if nbags == 0:
        raise TdError("decomposition has no bags")
    adj = [[] for _ in td.bags]
    for i, j in td.tree_edges:
        if not (0 <= i < nbags and 0 <= j < nbags) or i == j:
            raise TdError(f"bag-tree edge ({i}, {j}) is out of range or a loop")
        adj[i].append(j)
        adj[j].append(i)
    if len(td.tree_edges) != nbags - 1:
        raise TdError(f"bag graph is not a tree: {nbags} bags, {len(td.tree_edges)} edges")
    seen = [False] * nbags
    seen[0] = True
    queue = deque([0])
    count = 1
    while queue:
        i = queue.popleft()
        for j in adj[i]:
            if not seen[j]:
                seen[j] = True
                count += 1
                queue.append(j)
    if count != nbags:
        raise TdError("bag graph is not a tree: disconnected")

    covered = set().union(*td.bags) if td.bags else set()
    for v in range(g.n):
        if v not in covered:
            raise TdError(f"vertex coverage fails: vertex {v} is in no bag")
    for v in covered:
        if not (0 <= v < g.n):
            raise TdError(f"bag mentions unknown vertex {v}")

    for u, v, _ in g.edges:
        if not any(u in b and v in b for b in td.bags):
            raise TdError(f"edge coverage fails: edge ({u}, {v}) is in no bag")

    for v in range(g.n):
        holding = [i for i, b in enumerate(td.bags) if v in b]
        start = holding[0]
        hset = set(holding)
        reached = {start}
        queue = deque([start])
        while queue:
            i = queue.popleft()
            for j in adj[i]:
                if j in hset and j not in reached:
                    reached.add(j)
                    queue.append(j)
        if len(reached) != len(holding):
            raise TdError(f"occurrence connectivity fails: bags of vertex {v} are disconnected")

    return td.width


def reference_heuristic_td(g: WeightedGraph, method: str = "min-fill") -> TreeDecomposition:
    if g.n == 0:
        raise GraphError("cannot decompose the empty graph")
    if not is_connected(g):
        raise GraphError("heuristic decomposition expects a connected graph")
    if method not in ("min-degree", "min-fill"):
        raise GraphError(f"unknown elimination method: {method}")

    nbrs = [set(g.neighbors(v)) for v in range(g.n)]
    alive = set(range(g.n))
    elim_pos = {}
    bags = []

    def fill_count(v: int) -> int:
        ns = nbrs[v]
        missing = 0
        for a in ns:
            missing += len(ns - nbrs[a]) - 1
        return missing // 2

    while alive:
        if method == "min-degree":
            v = min(alive, key=lambda x: (len(nbrs[x]), x))
        else:
            v = min(alive, key=lambda x: (fill_count(x), len(nbrs[x]), x))
        bag = frozenset(nbrs[v] | {v})
        elim_pos[v] = len(bags)
        bags.append(bag)
        ns = list(nbrs[v])
        for i, a in enumerate(ns):
            for b in ns[i + 1 :]:
                if b not in nbrs[a]:
                    nbrs[a].add(b)
                    nbrs[b].add(a)
        for a in ns:
            nbrs[a].discard(v)
        nbrs[v] = set()
        alive.remove(v)

    tree_edges = []
    for i, bag in enumerate(bags):
        rest = [u for u in bag if elim_pos[u] > i]
        if rest:
            nxt = min(rest, key=lambda u: elim_pos[u])
            tree_edges.append((i, elim_pos[nxt]))
        elif i + 1 < len(bags):
            tree_edges.append((i, i + 1))
    return TreeDecomposition.build(bags, tree_edges)


class TestValidate:
    def test_p3(self):
        g = path_graph([1, 1])
        td = TreeDecomposition.build([{0, 1}, {1, 2}], [(0, 1)])
        assert validate_td(g, td) == 1

    def test_k4_single_bag(self):
        g = complete_graph(4, lambda u, v: 1)
        td = TreeDecomposition.build([{0, 1, 2, 3}], [])
        assert validate_td(g, td) == 3

    def test_missing_edge_reported(self):
        g = cycle_graph([1, 1, 1])
        td = TreeDecomposition.build([{0, 1}, {1, 2}], [(0, 1)])
        with pytest.raises(TdError, match=r"edge \(0, 2\)"):
            validate_td(g, td)

    def test_missing_vertex_reported(self):
        g = path_graph([1, 1])
        td = TreeDecomposition.build([{0, 1}], [])
        with pytest.raises(TdError, match="vertex 2"):
            validate_td(g, td)

    def test_disconnected_occurrence_reported(self):
        g = path_graph([1, 1, 1])
        td = TreeDecomposition.build([{0, 1}, {1, 2}, {2, 3, 0}], [(0, 1), (1, 2)])
        with pytest.raises(TdError, match="occurrence connectivity"):
            validate_td(g, td)

    def test_non_tree_rejected(self):
        g = path_graph([1])
        td = TreeDecomposition.build([{0, 1}, {0, 1}, {0, 1}], [(0, 1), (1, 2), (0, 2)])
        with pytest.raises(TdError, match="not a tree"):
            validate_td(g, td)


class TestHeuristic:
    def test_tree_width_one(self):
        rng = random.Random(3)
        for _ in range(10):
            g = random_tree(rng, rng.randint(2, 20))
            for method in ("min-degree", "min-fill"):
                td = heuristic_td(g, method)
                assert validate_td(g, td) == 1

    def test_cycle_width_two(self):
        for n in range(3, 12):
            td = heuristic_td(cycle_graph([1] * n), "min-degree")
            assert validate_td(cycle_graph([1] * n), td) == 2

    def test_complete_graph(self):
        g = complete_graph(5, lambda u, v: 1)
        td = heuristic_td(g)
        assert validate_td(g, td) == 4

    def test_always_valid_on_random_graphs(self):
        rng = random.Random(44)
        for _ in range(100):
            n = rng.randint(1, 30)
            g = random_connected_graph(rng, n, rng.randint(0, n))
            method = "min-fill" if rng.random() < 0.5 else "min-degree"
            td = heuristic_td(g, method)
            assert validate_td(g, td) >= 0


METHODS = ("min-degree", "min-fill")


class TestHeuristicMatchesReference:
    def test_random_connected_graphs(self):
        rng = random.Random(2024)
        for _ in range(220):
            n = rng.randint(1, 30)
            g = random_connected_graph(rng, n, rng.randint(0, 2 * n))
            for method in METHODS:
                assert heuristic_td(g, method) == reference_heuristic_td(g, method)

    @pytest.mark.parametrize(
        "instance",
        [
            bench.band(random.Random(0), 2000),
            bench.chordal(random.Random(0), 300),
            bench.ktree_dp(0),
            bench.small_dense(random.Random(0), 40, 99),
        ],
        ids=["band-2000", "chordal-300", "partial-4-tree", "dense-40-99"],
    )
    def test_benchmark_shapes(self, instance):
        g = bench_graph(instance)
        for method in METHODS:
            td = heuristic_td(g, method)
            assert td == reference_heuristic_td(g, method)
            assert validate_td(g, td) == reference_validate_td(g, td) == td.width

    def test_errors_unchanged(self):
        for g, method in [
            (WeightedGraph(0, []), "min-fill"),
            (WeightedGraph(3, [(0, 1, 1)]), "min-fill"),
            (path_graph([1]), "max-degree"),
        ]:
            with pytest.raises(GraphError) as new:
                heuristic_td(g, method)
            with pytest.raises(GraphError) as ref:
                reference_heuristic_td(g, method)
            assert str(new.value) == str(ref.value)


def clique_number(g: WeightedGraph) -> int:
    """The size of a largest clique, by trying vertex subsets from the largest."""
    edges = {(u, v) for u, v, _ in g.edges}
    for k in range(g.n, 1, -1):
        if any(all(p in edges for p in combinations(c, 2)) for c in combinations(range(g.n), k)):
            return k
    return min(g.n, 1)


class TestPeoTd:
    """The decomposition read off a perfect elimination ordering is exact on
    chordal graphs: valid, and as wide as the largest clique minus one."""

    def test_valid_and_exact_on_chordal_graphs(self):
        rng = random.Random(25)
        graphs = [random_chordal_graph(rng, rng.randint(1, 12)) for _ in range(60)]
        graphs += [random_chordal_graph(rng, rng.randint(2, 12), max_clique=3) for _ in range(20)]
        graphs += [random_ktree(rng, rng.randint(k + 1, 12), k) for k in range(1, 7) for _ in range(5)]
        graphs += [complete_graph(6, lambda u, v: 1), path_graph([1, 2, 3])]
        for g in graphs:
            peo = chordal_peo(g)
            assert peo is not None
            td = peo_td(g, peo)
            assert len(td.bags) == g.n
            assert validate_td(g, td) == clique_number(g) - 1

    def test_as_wide_as_min_fill(self):
        rng = random.Random(26)
        for _ in range(20):
            g = random_chordal_graph(rng, rng.randint(20, 60), max_clique=5)
            assert peo_td(g, chordal_peo(g)).width == heuristic_td(g).width


def _corruptions(rng: random.Random, g: WeightedGraph, td: TreeDecomposition):
    """Yield ``(message prefix, graph, decomposition)`` triples, each breaking
    the valid ``td`` for ``g``. The prefix names the check that must fail, or
    is ``None`` where the edit can trip an earlier check first."""
    bags = [set(b) for b in td.bags]
    edges = list(td.tree_edges)
    nb = len(bags)

    def with_bags(new_bags):
        return TreeDecomposition.build(new_bags, edges)

    def with_edges(new_edges):
        return TreeDecomposition.build(bags, new_edges)

    v = rng.randrange(g.n)
    yield "vertex coverage fails", g, with_bags([b - {v} for b in bags])

    if g.m:
        a, b, _ = g.edges[rng.randrange(g.m)]
        yield None, g, with_bags([bag - {a} if b in bag else bag for bag in bags])
    absent = [(a, b) for a in range(g.n) for b in range(a + 1, g.n) if g.edge_id(a, b) is None]
    uncovered = [(a, b) for a, b in absent if not any(a in bag and b in bag for bag in bags)]
    if uncovered:
        a, b = rng.choice(uncovered)
        yield "edge coverage fails", WeightedGraph(g.n, list(g.edges) + [(a, b, 1)]), td

    adj = [set() for _ in range(nb)]
    for i, j in edges:
        adj[i].add(j)
        adj[j].add(i)
    holders = {i for i in range(nb) if v in bags[i]}
    far = [i for i in range(nb) if i not in holders and not adj[i] & holders]
    if far:
        i = rng.choice(far)
        yield "occurrence connectivity fails", g, with_bags([b | {v} if k == i else b for k, b in enumerate(bags)])

    i = rng.randrange(nb)
    unknown = {g.n, g.n + 5, -1}
    yield "bag mentions unknown vertex", g, with_bags([b | unknown if k == i else b for k, b in enumerate(bags)])

    yield "decomposition has no bags", g, TreeDecomposition.build([], [])
    if not edges:
        return
    k = rng.randrange(len(edges))
    rest = edges[:k] + edges[k + 1 :]
    yield "bag graph is not a tree", g, with_edges(rest)
    yield "bag-tree edge", g, with_edges(rest + [(0, nb)])
    missing = [(i, j) for i in range(nb) for j in range(i + 1, nb) if j not in adj[i]]
    if missing:
        yield "bag graph is not a tree", g, with_edges(edges + [rng.choice(missing)])
    # Same edge count: cut edge k, then close a cycle on one side of the cut.
    side = {edges[k][0]}
    queue = deque(side)
    while queue:
        x = queue.popleft()
        for y in adj[x]:
            if y not in side and {x, y} != set(edges[k]):
                side.add(y)
                queue.append(y)
    chords = [(i, j) for i, j in missing if i in side and j in side]
    if chords:
        yield "bag graph is not a tree: disconnected", g, with_edges(rest + [rng.choice(chords)])


class TestValidateMatchesReference:
    def test_valid_decompositions(self):
        rng = random.Random(7)
        for _ in range(200):
            n = rng.randint(1, 25)
            g = random_connected_graph(rng, n, rng.randint(0, 2 * n))
            td = heuristic_td(g, rng.choice(METHODS))
            assert validate_td(g, td) == reference_validate_td(g, td) == td.width

    def test_corrupted_decompositions(self):
        rng = random.Random(11)
        exercised = set()
        for _ in range(200):
            n = rng.randint(2, 20)
            g = random_connected_graph(rng, n, rng.randint(0, 2 * n))
            td = heuristic_td(g, rng.choice(METHODS))
            for prefix, bad_g, bad_td in _corruptions(rng, g, td):
                with pytest.raises(TdError) as new:
                    validate_td(bad_g, bad_td)
                with pytest.raises(TdError) as ref:
                    reference_validate_td(bad_g, bad_td)
                assert str(new.value) == str(ref.value)
                if prefix is not None:
                    assert str(new.value).startswith(prefix)
                    exercised.add(prefix)
        assert len(exercised) == 8


class TestScale:
    def test_band_ten_thousand(self):
        # Both heuristics and validation on a 10^4-vertex band of width 3.
        # The quadratic versions took ~105 s for this on a 2-core x86_64 VM,
        # the heap and the bag index ~0.5 s.
        g = bench_graph(bench.band(random.Random(1), 10_000, offsets=(2, 3)))
        for method in METHODS:
            assert validate_td(g, heuristic_td(g, method)) <= 3


def as_tree_decomposition(nd: NiceTreeDecomposition) -> TreeDecomposition:
    """The nice decomposition's bags and parent-child links as a plain one."""
    edges = [(i, c) for i, node in enumerate(nd.nodes) for c in node.children]
    return TreeDecomposition.build([set(node.bag) for node in nd.nodes], edges)


def check_nice_invariants(g: WeightedGraph, nd: NiceTreeDecomposition):
    # axioms still hold
    assert validate_td(g, as_tree_decomposition(nd)) == nd.width
    forgotten = []
    for i, node in enumerate(nd.nodes):
        kids = node.children
        if node.kind == "leaf":
            assert not kids and not node.bag
        elif node.kind == "introduce":
            (c,) = kids
            assert node.bag - nd.nodes[c].bag == {node.vertex}
            assert nd.nodes[c].bag < node.bag
        elif node.kind == "forget":
            (c,) = kids
            assert nd.nodes[c].bag - node.bag == {node.vertex}
            assert node.bag < nd.nodes[c].bag
            forgotten.append(node.vertex)
        elif node.kind == "join":
            a, b = kids
            assert nd.nodes[a].bag == nd.nodes[b].bag == node.bag
        else:
            raise AssertionError(node.kind)
    root = nd.nodes[nd.root]
    assert root.kind == "forget" and root.vertex == nd.pi and not root.bag
    assert sorted(forgotten) == list(range(g.n))  # each vertex forgotten once


class TestMakeNice:
    def test_single_bag_shape(self):
        g = path_graph([4])
        td = TreeDecomposition.build([{0, 1}], [])
        nd = make_nice(td, pi=0)
        kinds = [nd.nodes[i].kind for i in nd.postorder()]
        assert kinds == ["leaf", "introduce", "introduce", "forget", "forget"]
        check_nice_invariants(g, nd)
        root = nd.nodes[nd.root]
        assert nd.nodes[root.children[0]].bag == {0}

    def test_join_synthesis(self):
        g = WeightedGraph(4, [(0, 1, 1), (0, 2, 1), (0, 3, 1)])
        td = TreeDecomposition.build([{0, 1}, {0, 2}, {0, 3}], [(0, 1), (0, 2)])
        nd = make_nice(td, pi=0)
        assert any(node.kind == "join" for node in nd.nodes)
        check_nice_invariants(g, nd)

    def test_rerooting_preserves_width(self):
        rng = random.Random(5)
        for _ in range(20):
            n = rng.randint(2, 12)
            g = random_connected_graph(rng, n, rng.randint(0, 6))
            td = heuristic_td(g)
            widths = set()
            for pi in range(n):
                nd = make_nice(td, pi)
                check_nice_invariants(g, nd)
                widths.add(nd.width)
            assert widths == {td.width}

    def test_unknown_pi_rejected(self):
        td = TreeDecomposition.build([{0, 1}], [])
        with pytest.raises(TdError):
            make_nice(td, pi=7)


class TestJoinsOnSharedVertices:
    """Each join runs on the union of the bag vertices its children share
    with their parent bag, not on the whole parent bag as the reference
    ``reference_nice.make_nice`` does."""

    def test_never_costlier_than_whole_bag_joins(self):
        rng = random.Random(24)
        cheaper = 0
        for _ in range(30):
            n = rng.randint(2, 14)
            g = random_connected_graph(rng, n, rng.randint(0, n))
            best = brute_mwcm(g, edge_limit=64).optimum
            for method in METHODS:
                td = heuristic_td(g, method)
                for pi in range(n):
                    nd, ref = make_nice(td, pi), reference_nice.make_nice(td, pi)
                    check_nice_invariants(g, nd)
                    assert nd.width == ref.width == td.width
                    assert cell_bound(nd) <= cell_bound(ref)
                    cheaper += cell_bound(nd) < cell_bound(ref)
                    found = [_run_dp(g, form, True) for form in (nd, ref)]
                    assert [max(c[0], 0) if c else 0 for c in found] == [best, best]
        assert cheaper > 0

    # sum of 3^|bag| of make_nice(heuristic_td(g), 0): (this form, reference form).
    # bip4-4 gains nothing: at each of its joins the children together share
    # the whole parent bag, so both forms join on the same bags.
    PINNED = {
        "ktree-dp-0": (44_527, 94_117),
        "starlike-3": (7_160, 8_375),
        "bip4-4": (254_547, 254_547),
    }

    @pytest.mark.parametrize("name", list(PINNED))
    def test_bound_is_pinned(self, name):
        assert set(self.PINNED) == {"ktree-dp-0", *DP_GADGETS}
        td = heuristic_td(dp_instance(name))
        new, ref = self.PINNED[name]
        assert cell_bound(make_nice(td, 0)) == new
        assert cell_bound(reference_nice.make_nice(td, 0)) == ref
