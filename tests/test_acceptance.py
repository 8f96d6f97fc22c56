"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report. All tolerances are exact; the two timed criteria use wall-clock
budgets (1 s for generator arithmetic, 60 s for the worked-example brute
force, 2 s / 10 s for the solver performance bounds).
"""

import random
import time
from contextlib import contextmanager
from itertools import product

from connmatch.graphs import (
    VertexWeightedGraph,
    WeightedGraph,
    classify,
    diameter,
    induced_by_matching_connected,
)
from connmatch.oracle import brute_mwcm
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
    lift_certificate,
    project_certificate,
    steiner_parameters,
    wcs_blocking_weight,
)
from connmatch.degree2_solver import solve_degree_two
from connmatch.chordal_solver import solve_chordal
from connmatch.tree_solver import solve_tree
from connmatch.treedecomp import heuristic_td, make_nice
from connmatch.treewidth_solver import _node_table, solve_treewidth
from conftest import cycle_graph, random_chordal_graph, random_connected_graph, random_tree
from partition_helpers import from_weighted, opt
from test_partitions import all_partitions

REFERENCE_FORMULA = Cnf.build(5, [(1, -2, -4), (1, -3, 5), (-1, -2, 4), (2, 3, 5)])
REFERENCE_MONOTONE = Cnf.build(5, [(1, 2, 5), (2, 3, 4), (-2, -4, -5)])
STEINER_EX1 = SteinerInstance.build(3, [(0, 1), (1, 2), (0, 2)], [0, 1], 1)
STEINER_EX2 = SteinerInstance.build(
    6, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (2, 3), (3, 4), (4, 5)], [0, 2, 3], 3
)
SETCOVER_EXAMPLE = SetCoverInstance.build(
    7, [{0, 1, 4}, {0, 1, 2, 3}, {2, 5}, {4, 5, 6}, {3}], 2
)
WCS_EXAMPLE = VertexWeightedGraph(
    8, [(0, 1), (1, 2), (2, 3), (3, 4), (5, 0), (6, 5), (7, 6)], [6, 2, -1, 6, 4, -2, -3, 5]
)


@contextmanager
def criterion(num: int, name: str):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {num} ({name}): FAIL")
        raise
    print(f"\nACCEPTANCE {num} ({name}): PASS")


def satisfiable(f: Cnf):
    return any(f.satisfied_by(bits) for bits in product([False, True], repeat=f.num_vars))


def rand_3sat(rng, nvars, nclauses):
    return Cnf.build(
        nvars,
        [
            tuple(rng.choice([-1, 1]) * rng.randint(1, nvars) for _ in range(3))
            for _ in range(nclauses)
        ],
    )


def rand_monotone(rng, nvars, nclauses):
    clauses = []
    for _ in range(nclauses):
        sign = rng.choice([-1, 1])
        clauses.append(tuple(sign * rng.randint(1, nvars) for _ in range(3)))
    return Cnf.build(nvars, clauses)


def test_criterion_1_reference_k_values():
    with criterion(1, "generator targets on reference instances"):
        t0 = time.perf_counter()
        assert gen_starlike(REFERENCE_FORMULA).k == 9
        assert gen_bip4(REFERENCE_FORMULA).k == 10
        assert gen_planar_bipartite(REFERENCE_MONOTONE).k == 13
        assert steiner_parameters(STEINER_EX1) == (2, 3, 10, 17)
        q, p, r, k = steiner_parameters(STEINER_EX2)
        assert (q, p, r) == (4, 13, 105)
        assert k == 105 * 3 - 13 * 3
        assert gen_setcover_to_wcs(SETCOVER_EXAMPLE).k == 46
        assert wcs_blocking_weight(WCS_EXAMPLE) == 24
        assert gen_wcs_to_wcm(WCS_EXAMPLE, 17).k == 17
        elapsed = time.perf_counter() - t0
        assert elapsed < 1.0, f"generator arithmetic took {elapsed:.2f}s"


def test_criterion_2_reference_optima_by_brute_force():
    with criterion(2, "brute-forced optima on reference instances"):
        t0 = time.perf_counter()
        st = gen_starlike(REFERENCE_FORMULA)
        assert brute_mwcm(st.graph, edge_limit=100).optimum == 9

        b4 = gen_bip4(REFERENCE_FORMULA)
        assert brute_mwcm(b4.graph, edge_limit=100).optimum == 10

        pb = gen_planar_bipartite(REFERENCE_MONOTONE)
        res = brute_mwcm(pb.graph, edge_limit=100)
        assert res.optimum == 13
        assignment = project_certificate(pb, res.witness)
        assert REFERENCE_MONOTONE.satisfied_by(assignment)
        # the documented satisfying assignment also reaches k
        assert lift_certificate(pb, (True, False, True, True, True)).weight == 13

        s1 = gen_planar_subcubic(STEINER_EX1)
        res = brute_mwcm(s1.graph, edge_limit=100)
        assert res.optimum == 17
        verts, edges = project_certificate(s1, res.witness)
        assert verts == frozenset({0, 1}) and edges == ((0, 1),)

        elapsed = time.perf_counter() - t0
        assert elapsed < 60.0, f"brute-force reproduction took {elapsed:.1f}s"


def test_criterion_3_oracle_equivalence():
    with criterion(3, "oracle equivalence suites"):
        rng = random.Random(140000)
        for _ in range(200):
            g = random_tree(rng, rng.randint(1, 14), -10, 10)
            w, m = solve_tree(g)
            assert w == brute_mwcm(g, edge_limit=16).optimum
            assert m.weight == w and induced_by_matching_connected(g, m)

        rng = random.Random(140001)
        for n in range(3, 13):
            for _ in range(50):
                g = cycle_graph([rng.randint(-10, 10) for _ in range(n)])
                w, m = solve_degree_two(g)
                assert w == brute_mwcm(g, edge_limit=16).optimum
                assert m.weight == w and induced_by_matching_connected(g, m)

        rng = random.Random(140002)
        for _ in range(100):
            g = random_chordal_graph(rng, rng.randint(1, 12), 0, 10)
            w, m = solve_chordal(g)
            assert w == brute_mwcm(g, edge_limit=80).optimum
            assert m.weight == w and induced_by_matching_connected(g, m)

        rng = random.Random(140003)
        for _ in range(100):
            g = random_connected_graph(rng, rng.randint(1, 10), rng.randint(0, 12))
            w, m = solve_treewidth(g, heuristic_td(g))
            assert w == brute_mwcm(g, edge_limit=60).optimum
            assert m.weight == w and induced_by_matching_connected(g, m)


def test_criterion_4_reduce_correctness():
    with criterion(4, "representative-set reduction"):
        # reduce on/off agree on the same instance suite as criterion 3
        rng = random.Random(140003)
        for _ in range(100):
            g = random_connected_graph(rng, rng.randint(1, 10), rng.randint(0, 12))
            td = heuristic_td(g)
            assert solve_treewidth(g, td)[0] == solve_treewidth(g, td, use_reduce=False)[0]

        # size bound after every reduce call, checked on instrumented runs
        rng = random.Random(777)
        for _ in range(20):
            g = random_connected_graph(rng, rng.randint(2, 9), rng.randint(0, 10))
            nd = make_nice(heuristic_td(g), 0)
            tables, memo = {}, {}
            for x in nd.postorder():
                kids = nd.nodes[x].children
                tables[x] = _node_table(g, nd, x, [tables[c] for c in kids], True, memo)
                for (s, u), entries in tables[x].items():
                    assert len(entries) <= 1 << max((s | u).bit_count() - 1, 0)
                for c in kids:
                    del tables[c]

        # opt preservation, exhaustive over all extensions for |ground| <= 4
        rng = random.Random(778)
        for _ in range(60):
            k = rng.randint(1, 4)
            ground = tuple(range(k))
            parts = list(all_partitions(ground))
            chosen = rng.sample(parts, rng.randint(1, len(parts)))
            wps = from_weighted(
                ground, [(p.labels, rng.randint(-30, 30)) for p in chosen]
            )
            red = wps.reduce()
            assert len(red.entries) <= 1 << (k - 1)
            for q in parts:
                assert opt(red, q) == opt(wps, q)


def test_criterion_5_hardness_equivalence():
    with criterion(5, "reduction equivalence: satisfiable iff optimum >= k"):
        rng = random.Random(55555)
        unsat_seen = 0
        formulas = [rand_3sat(rng, 3, rng.randint(1, 3)) for _ in range(48)]
        formulas.append(Cnf.build(3, [(1, 1, 1), (-1, -1, -1)]))  # guaranteed unsat
        formulas.append(Cnf.build(3, [(2, 2, 2), (-2, -2, -2), (1, 2, 3)]))
        assert len(formulas) == 50
        for f in formulas:
            sat = satisfiable(f)
            unsat_seen += not sat
            st = gen_starlike(f)
            assert (brute_mwcm(st.graph, edge_limit=60).optimum >= st.k) == sat, f
            b4 = gen_bip4(f)
            assert (brute_mwcm(b4.graph, edge_limit=70).optimum >= b4.k) == sat, f
        assert unsat_seen >= 2

        rng = random.Random(66666)
        monotones = [rand_monotone(rng, 3, rng.randint(1, 3)) for _ in range(18)]
        monotones.append(Cnf.build(3, [(1, 1, 1), (-1, -1, -1)]))
        monotones.append(Cnf.build(3, [(3, 3, 3), (-3, -3, -3)]))
        assert len(monotones) == 20
        for f in monotones:
            sat = satisfiable(f)
            inst = gen_planar_bipartite(f)
            assert (brute_mwcm(inst.graph, edge_limit=60).optimum >= inst.k) == sat, f

        sat_f = Cnf.build(2, [(1, 2, 2)])
        unsat_f = Cnf.build(2, [(1, 1, 1), (-1, -1, -1)])
        for left, right in product([sat_f, unsat_f], repeat=2):
            inst = gen_crosscomp([left, right])
            got = brute_mwcm(inst.graph, edge_limit=60).optimum >= inst.k
            assert got == (satisfiable(left) or satisfiable(right))


def test_criterion_6_structural_invariants():
    with criterion(6, "structural invariants of generated instances"):
        rng = random.Random(98765)
        formulas = [REFERENCE_FORMULA] + [rand_3sat(rng, 3, rng.randint(1, 3)) for _ in range(10)]
        for f in formulas:
            st = gen_starlike(f)
            assert classify(st.graph).chordal_peo is not None
            assert {w for _, _, w in st.graph.edges} <= {-1, 1}
            b4 = gen_bip4(f)
            rep = classify(b4.graph)
            assert rep.bipartition is not None
            assert {w for _, _, w in b4.graph.edges} <= {0, 1}
            assert diameter(b4.graph) <= 4

        monotones = [REFERENCE_MONOTONE] + [rand_monotone(rng, 3, rng.randint(1, 3)) for _ in range(6)]
        for f in monotones:
            pb = gen_planar_bipartite(f)
            assert classify(pb.graph).bipartition is not None
            assert {w for _, _, w in pb.graph.edges} <= {0, 1}

        for inst in (STEINER_EX1, STEINER_EX2):
            out = gen_planar_subcubic(inst)
            assert out.graph.max_degree() <= 3
            assert {w for _, _, w in out.graph.edges} <= {-1, 1}

        cc = gen_crosscomp([rand_3sat(rng, 2, 1), rand_3sat(rng, 2, 2)])
        assert classify(cc.graph).bipartition is not None
        assert {w for _, _, w in cc.graph.edges} <= {0, 1}


def test_criterion_7_performance():
    with criterion(7, "performance bounds"):
        rng = random.Random(424242)
        n = 10**6
        g = WeightedGraph(n, [(rng.randrange(v), v, rng.randint(-10, 10)) for v in range(1, n)])
        t0 = time.perf_counter()
        w, m = solve_tree(g)
        tree_time = time.perf_counter() - t0
        assert m.weight == w
        assert tree_time < 2.0, f"solve_tree took {tree_time:.2f}s on n=1e6"

        rng = random.Random(515151)
        n = 200
        edges = [(v - 1, v, rng.randint(-10, 10)) for v in range(1, n)]
        extra = set()
        for v in range(2, n):
            if rng.random() < 0.5:
                d = rng.choice([2, 3])
                if v - d >= 0:
                    extra.add((v - d, v))
        edges += [(u, v, rng.randint(-10, 10)) for u, v in sorted(extra)]
        g = WeightedGraph(n, edges)
        td = heuristic_td(g)
        assert td.width <= 3
        t0 = time.perf_counter()
        w, m = solve_treewidth(g, td)
        tw_time = time.perf_counter() - t0
        assert m.weight == w
        assert induced_by_matching_connected(g, m)
        assert tw_time < 10.0, f"solve_treewidth took {tw_time:.2f}s on n=200"
        print(f"\n  [criterion 7 timings: tree n=1e6 {tree_time:.2f}s, treewidth n=200 {tw_time:.2f}s]")


def test_criterion_8_golden_value_coverage():
    with criterion(8, "hand-worked values covered by golden and oracle suites"):
        # Hand-worked example values that cannot be restated self-contained
        # here are replaced by randomized oracle equivalence (criterion 3).
        # The tree DP additionally has a fully reconstructed golden table in
        # tests/test_tree_solver.py (12-vertex tree, optimum 12, witness
        # {ab, ej, cf}); the chordal pipeline is pinned by 100 random
        # chordal instances against brute force.
        from test_tree_solver import TestGoldenTable

        g = TestGoldenTable.tree()
        w, m = solve_tree(g, root=0)
        assert w == 12
        assert brute_mwcm(g, edge_limit=16).optimum == 12
