import random
import time
from itertools import combinations, product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from connmatch.graphs import (
    GraphError,
    Matching,
    VertexWeightedGraph,
    classify,
    diameter,
    induced_by_matching_connected,
)
from connmatch.oracle import brute_mwcm, brute_wcs
from connmatch.reductions import (
    Cnf,
    ReductionError,
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
from connmatch.treewidth_solver import solve_treewidth
from conftest import planted_source

REFERENCE_FORMULA = Cnf.build(5, [(1, -2, -4), (1, -3, 5), (-1, -2, 4), (2, 3, 5)])
REFERENCE_MONOTONE = Cnf.build(5, [(1, 2, 5), (2, 3, 4), (-2, -4, -5)])


def satisfiable(f: Cnf):
    for bits in product([False, True], repeat=f.num_vars):
        if f.satisfied_by(bits):
            return bits
    return None


def rand_3sat(rng: random.Random, nvars: int, nclauses: int) -> Cnf:
    clauses = []
    for _ in range(nclauses):
        clauses.append(tuple(rng.choice([-1, 1]) * rng.randint(1, nvars) for _ in range(3)))
    return Cnf.build(nvars, clauses)


def rand_monotone(rng: random.Random, nvars: int, nclauses: int) -> Cnf:
    clauses = []
    for _ in range(nclauses):
        sign = rng.choice([-1, 1])
        clauses.append(tuple(sign * rng.randint(1, nvars) for _ in range(3)))
    return Cnf.build(nvars, clauses)


def weights_of(g):
    return set(w for _, _, w in g.edges)


class TestStarlike:
    def test_reference_example(self):
        inst = gen_starlike(REFERENCE_FORMULA)
        assert inst.k == 9
        m = lift_certificate(inst, (False, True, False, False, True))
        assert m.weight == 9
        assert induced_by_matching_connected(inst.graph, m)

    def test_single_clause(self):
        inst = gen_starlike(Cnf.build(3, [(1, 2, 3)]))
        assert inst.graph.n == 11
        assert inst.k == 4
        assert brute_mwcm(inst.graph, edge_limit=50).optimum == 4

    def test_no_clauses_gives_triangle(self):
        inst = gen_starlike(Cnf.build(1, []))
        assert inst.graph.n == 3 and inst.graph.m == 3
        assert inst.k == 1
        assert brute_mwcm(inst.graph).optimum == 1

    def test_structure(self):
        for f in (REFERENCE_FORMULA, rand_3sat(random.Random(1), 3, 3)):
            inst = gen_starlike(f)
            rep = classify(inst.graph)
            assert rep.chordal_peo is not None
            assert weights_of(inst.graph) <= {-1, 1}

    def test_rejects_wrong_arity(self):
        with pytest.raises(ReductionError):
            gen_starlike(Cnf.build(3, [(1, 2)]))


class TestBip4:
    def test_reference_example(self):
        inst = gen_bip4(REFERENCE_FORMULA)
        assert inst.k == 10
        m = lift_certificate(inst, (False, True, False, False, True))
        assert m.weight == 10

    def test_single_clause(self):
        inst = gen_bip4(Cnf.build(3, [(1, 2, 3)]))
        assert inst.k == 5
        assert brute_mwcm(inst.graph, edge_limit=60).optimum == 5

    def test_structure(self):
        for f in (REFERENCE_FORMULA, rand_3sat(random.Random(2), 3, 2)):
            inst = gen_bip4(f)
            rep = classify(inst.graph)
            assert rep.bipartition is not None
            assert weights_of(inst.graph) <= {0, 1}
            assert diameter(inst.graph) <= 4


class TestPlanarBipartite:
    def test_reference_example(self):
        inst = gen_planar_bipartite(REFERENCE_MONOTONE)
        assert inst.k == 13
        m = lift_certificate(inst, (True, False, True, True, True))
        assert m.weight == 13
        res = brute_mwcm(inst.graph, edge_limit=60)
        assert res.optimum == 13
        assignment = project_certificate(inst, res.witness)
        assert REFERENCE_MONOTONE.satisfied_by(assignment)

    def test_single_clause(self):
        inst = gen_planar_bipartite(Cnf.build(3, [(1, 2, 3)]))
        assert inst.k == 7
        assert brute_mwcm(inst.graph, edge_limit=40).optimum == 7

    def test_structure(self):
        inst = gen_planar_bipartite(REFERENCE_MONOTONE)
        assert classify(inst.graph).bipartition is not None
        assert weights_of(inst.graph) <= {0, 1}

    def test_rejects_mixed_clause(self):
        with pytest.raises(ReductionError, match="clause 2"):
            gen_planar_bipartite(Cnf.build(3, [(1, 2, 3), (1, -2, 3)]))


class TestSteiner:
    def test_example1_parameters_and_optimum(self):
        inst = SteinerInstance.build(3, [(0, 1), (1, 2), (0, 2)], [0, 1], 1)
        assert steiner_parameters(inst) == (2, 3, 10, 17)
        out = gen_planar_subcubic(inst)
        assert out.k == 17
        m = lift_certificate(out, [(0, 1)])
        assert m.weight == 17
        res = brute_mwcm(out.graph, edge_limit=70)
        assert res.optimum == 17
        verts, edges = project_certificate(out, res.witness)
        assert verts == frozenset({0, 1})
        assert edges == ((0, 1),)

    def test_example2_parameters(self):
        inst = SteinerInstance.build(
            6, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (2, 3), (3, 4), (4, 5)], [0, 2, 3], 3
        )
        q, p, r, k = steiner_parameters(inst)
        assert (q, p, r) == (4, 13, 105)
        assert k == 105 * 3 - 13 * 3 == 276

    def test_structure(self):
        inst = SteinerInstance.build(3, [(0, 1), (1, 2), (0, 2)], [0, 1], 1)
        out = gen_planar_subcubic(inst)
        assert out.graph.max_degree() <= 3
        assert weights_of(out.graph) <= {-1, 1}

    def test_rejects_empty_terminals(self):
        inst = SteinerInstance.build(2, [(0, 1)], [], 1)
        with pytest.raises(ReductionError):
            gen_planar_subcubic(inst)

    def test_tiny_equivalence(self):
        # yes-instances by direct enumeration over edge subsets match the
        # generated instance's oracle answer, for C_3 and P_3 sources
        sources = [
            SteinerInstance.build(3, [(0, 1), (1, 2), (0, 2)], [0, 2], 0),
            SteinerInstance.build(3, [(0, 1), (1, 2)], [0, 2], 0),
        ]
        for base in sources:
            for budget in (1, 2, 3):
                inst = SteinerInstance.build(base.n, base.edges, base.terminals, budget)
                yes = steiner_yes(inst)
                out = gen_planar_subcubic(inst)
                got = brute_mwcm(out.graph, edge_limit=250).optimum >= out.k
                assert got == yes, (base.edges, budget)


def steiner_yes(inst: SteinerInstance) -> bool:
    edges = list(inst.edges)
    for r in range(len(edges) + 1):
        if r > inst.budget:
            break
        for chosen in combinations(edges, r):
            verts = {x for e in chosen for x in e} or set(inst.terminals)
            if not inst.terminals <= verts:
                continue
            if len(chosen) != len(verts) - 1:
                continue
            adj = {v: [] for v in verts}
            for u, v in chosen:
                adj[u].append(v)
                adj[v].append(u)
            start = next(iter(verts))
            seen = {start}
            stack = [start]
            while stack:
                x = stack.pop()
                for y in adj[x]:
                    if y not in seen:
                        seen.add(y)
                        stack.append(y)
            if seen == verts:
                return True
    return False


class TestCrossComposition:
    def test_k_formula(self):
        f1 = Cnf.build(2, [(1, 2, 2)])
        f2 = Cnf.build(2, [(-1, -2, -2)])
        inst = gen_crosscomp([f1, f2])
        assert inst.k == 2 + 2 + 2
        assert classify(inst.graph).bipartition is not None
        assert weights_of(inst.graph) <= {0, 1}

    def test_t1_degenerate(self):
        f = Cnf.build(2, [(1, -2, 2)])
        inst = gen_crosscomp([f])
        res = brute_mwcm(inst.graph, edge_limit=40)
        assert (res.optimum >= inst.k) == (satisfiable(f) is not None)

    def test_or_semantics(self):
        sat = Cnf.build(1, [(1, 1, 1)])
        unsat = Cnf.build(1, [(1, 1, 1), (-1, -1, -1)])
        for left, right in product([sat, unsat], repeat=2):
            inst = gen_crosscomp([left, right])
            res = brute_mwcm(inst.graph, edge_limit=50)
            expect = satisfiable(left) is not None or satisfiable(right) is not None
            assert (res.optimum >= inst.k) == expect

    def test_round_trip(self):
        f1 = Cnf.build(2, [(1, 1, 1), (-1, -1, -1)])  # unsat
        f2 = Cnf.build(2, [(2, 2, 2)])  # sat
        inst = gen_crosscomp([f1, f2])
        res = brute_mwcm(inst.graph, edge_limit=50)
        assert res.optimum >= inst.k
        assignment, ell = project_certificate(inst, res.witness)
        assert ell == 2
        assert f2.satisfied_by(assignment)

    def test_rejects_mismatched_variables(self):
        with pytest.raises(ReductionError):
            gen_crosscomp([Cnf.build(2, [(1, 2, 2)]), Cnf.build(3, [(1, 2, 3)])])


class TestWcsToWcm:
    def test_companion_example(self):
        gvw = VertexWeightedGraph(
            8, [(0, 1), (1, 2), (2, 3), (3, 4), (5, 0), (6, 5), (7, 6)], [6, 2, -1, 6, 4, -2, -3, 5]
        )
        assert wcs_blocking_weight(gvw) == 24
        inst = gen_wcs_to_wcm(gvw, 17)
        assert inst.k == 17
        vert_ids = {inst.vertex(f"vert.{w + 1}") for w in range(8)}
        for u, v, w in inst.graph.edges:
            if u in vert_ids and v in vert_ids:
                assert w == -24  # adjacency edges are priced out
        res = brute_mwcm(inst.graph, edge_limit=30)
        assert res.optimum == 17 == brute_wcs(gvw).optimum
        assert project_certificate(inst, res.witness) == frozenset({0, 1, 2, 3, 4})

    def test_single_vertex(self):
        gvw = VertexWeightedGraph(1, [], [5])
        inst = gen_wcs_to_wcm(gvw, 5)
        assert inst.graph.n == 2 and inst.graph.m == 1
        assert wcs_blocking_weight(gvw) == 6
        assert brute_mwcm(inst.graph).optimum == 5

    def test_pair_sweep(self):
        rng = random.Random(50)
        for _ in range(30):
            n = rng.randint(1, 6)
            edges = set()
            if n >= 2:
                for _ in range(rng.randint(0, 2 * n)):
                    u, v = rng.sample(range(n), 2)
                    edges.add((min(u, v), max(u, v)))
            gvw = VertexWeightedGraph(n, sorted(edges), [rng.randint(-5, 5) for _ in range(n)])
            inst = gen_wcs_to_wcm(gvw, 0)
            assert brute_wcs(gvw).optimum == brute_mwcm(inst.graph, edge_limit=40).optimum


class TestSetCoverToWcs:
    def test_companion_example(self):
        inst = SetCoverInstance.build(
            7, [{0, 1, 4}, {0, 1, 2, 3}, {2, 5}, {4, 5, 6}, {3}], 2
        )
        out = gen_setcover_to_wcs(inst)
        assert out.k == 8 * 6 - 2 == 46
        res = brute_wcs(out.graph)
        assert res.optimum == 46
        family = project_certificate(out, res.witness)
        assert family == frozenset({1, 3})  # the sets {a,b,c,d} and {e,f,g}

    def test_singleton_universe(self):
        inst = SetCoverInstance.build(1, [{0}], 1)
        out = gen_setcover_to_wcs(inst)
        assert out.k == 2 * 2 - 1 == 3
        res = brute_wcs(out.graph)
        assert res.optimum == 3
        assert res.witness == frozenset(range(3))

    def test_uncovered_element_rejected(self):
        with pytest.raises(ReductionError, match="^element 2 is covered by no set$"):
            SetCoverInstance.build(2, [{0}], 1)

    def test_empty_set_rejected(self):
        with pytest.raises(ReductionError):
            SetCoverInstance.build(1, [{0}, set()], 1)

    def test_lift(self):
        inst = SetCoverInstance.build(3, [{0, 1}, {1, 2}, {2}], 2)
        out = gen_setcover_to_wcs(inst)
        subset = lift_certificate(out, [0, 1])
        assert sum(out.graph.vertex_weights[v] for v in subset) >= out.k
        with pytest.raises(ReductionError, match="^source family leaves element 3 uncovered$"):
            lift_certificate(out, [0])


class TestHardnessEquivalence:
    def test_starlike_and_bip4(self):
        rng = random.Random(1234)
        for trial in range(12):
            f = rand_3sat(rng, 3, rng.randint(1, 3))
            sat = satisfiable(f) is not None
            st = gen_starlike(f)
            assert (brute_mwcm(st.graph, edge_limit=60).optimum >= st.k) == sat, (trial, f)
            b4 = gen_bip4(f)
            assert (brute_mwcm(b4.graph, edge_limit=70).optimum >= b4.k) == sat, (trial, f)

    def test_round_trip_through_the_treewidth_dp(self):
        """Past brute force: the DP's optimum reaches k exactly when the
        formula is satisfiable, and then its witness projects to a satisfying
        assignment. Formulas are drawn until each family has a satisfiable
        and an unsatisfiable one."""
        rng = random.Random(2022)
        # (generator, variables, clause-count range); bip4 is the slow one
        families = [
            (gen_starlike, 3, 4, 12),
            (gen_starlike, 3, 4, 12),
            (gen_starlike, 4, 4, 14),
            (gen_bip4, 3, 4, 6),
        ]
        for gen, nvars, lo, hi in families:
            for sat in (True, False):
                f = rand_3sat(rng, nvars, rng.randint(lo, hi))
                while (satisfiable(f) is not None) != sat:
                    f = rand_3sat(rng, nvars, rng.randint(lo, hi))
                inst = gen(f)
                w, m = solve_treewidth(inst.graph)
                assert (w >= inst.k) == sat, (gen.__name__, f)
                if sat:
                    assert f.satisfied_by(project_certificate(inst, m)), (gen.__name__, f)

    def test_planar_bipartite(self):
        rng = random.Random(4321)
        seen_unsat = False
        for trial in range(10):
            f = rand_monotone(rng, 3, rng.randint(1, 3))
            sat = satisfiable(f) is not None
            seen_unsat |= not sat
            inst = gen_planar_bipartite(f)
            assert (brute_mwcm(inst.graph, edge_limit=50).optimum >= inst.k) == sat, (trial, f)
        f = Cnf.build(2, [(1, 1, 1), (-1, -1, -1)])
        inst = gen_planar_bipartite(f)
        assert brute_mwcm(inst.graph, edge_limit=50).optimum < inst.k

    def test_lift_errors_name_the_violated_clause(self):
        inst = gen_starlike(Cnf.build(3, [(1, 2, 3), (-1, -2, -3)]))
        with pytest.raises(ReductionError, match="clause 2"):
            lift_certificate(inst, (True, True, True))


class TestLiftProjectRoundTrips:
    """Lift never fails on valid sources, and projecting a lifted
    certificate yields a solution the source-problem check accepts."""

    def test_sat_kinds(self):
        f = Cnf.build(3, [(1, -2, 3), (2, 3, 3)])
        assignment = (True, True, False)
        assert f.satisfied_by(assignment)
        for gen in (gen_starlike, gen_bip4):
            inst = gen(f)
            m = lift_certificate(inst, assignment)
            assert m.weight >= inst.k
            back = project_certificate(inst, m)
            assert f.satisfied_by(back)

    def test_monotone(self):
        f = Cnf.build(3, [(1, 2, 3), (-1, -2, -3)])
        assignment = (True, False, False)
        inst = gen_planar_bipartite(f)
        back = project_certificate(inst, lift_certificate(inst, assignment))
        assert f.satisfied_by(back)

    def test_crosscomp(self):
        f1 = Cnf.build(2, [(1, 1, 1), (-1, -1, -1)])
        f2 = Cnf.build(2, [(1, 2, 2)])
        inst = gen_crosscomp([f1, f2])
        m = lift_certificate(inst, ((True, True), 2))
        assignment, ell = project_certificate(inst, m)
        assert ell == 2 and f2.satisfied_by(assignment)

    def test_steiner(self):
        inst = SteinerInstance.build(3, [(0, 1), (1, 2), (0, 2)], [0, 1], 2)
        out = gen_planar_subcubic(inst)
        m = lift_certificate(out, [(0, 2), (1, 2)])
        verts, edges = project_certificate(out, m)
        assert inst.terminals <= verts
        assert len(edges) <= inst.budget

    def test_wcs(self):
        gvw = VertexWeightedGraph(3, [(0, 1), (1, 2)], [4, -1, 3])
        inst = gen_wcs_to_wcm(gvw, 6)
        m = lift_certificate(inst, {0, 1, 2})
        assert project_certificate(inst, m) == frozenset({0, 1, 2})

    def test_setcover(self):
        sc = SetCoverInstance.build(3, [{0, 1}, {1, 2}], 2)
        out = gen_setcover_to_wcs(sc)
        subset = lift_certificate(out, [0, 1])
        family = project_certificate(out, subset)
        assert set().union(*(sc.sets[j] for j in family)) == {0, 1, 2}
        assert len(family) <= sc.budget


KINDS = ("starlike", "bip4", "planar-bipartite", "steiner", "crosscomp", "wcs-wcm", "setcover-wcs")
SAT_GENERATORS = {"starlike": gen_starlike, "bip4": gen_bip4, "planar-bipartite": gen_planar_bipartite}
RANDOMS = st.randoms(use_true_random=True)
SEEDED = settings(max_examples=40, deadline=None, database=None, derandomize=True)


def _normalized(kind, solution):
    """A source solution in the form ``project_certificate`` returns it
    (Steiner trees aside)."""
    if kind in SAT_GENERATORS:
        return tuple(solution)
    if kind == "crosscomp":
        return tuple(solution[0]), solution[1]
    return frozenset(solution)


def _true_clause(rng, assignment, monotone: bool) -> tuple:
    """Three literals that ``assignment`` makes true, so its complement makes all false."""
    if not monotone:
        return tuple(v if assignment[v - 1] else -v for v in (rng.randint(1, len(assignment)) for _ in range(3)))
    sign = 1 if any(assignment) else -1
    pool = [v for v in range(1, len(assignment) + 1) if assignment[v - 1] == (sign > 0)]
    return tuple(sign * rng.choice(pool) for _ in range(3))


class TestBothDirectionsReject:
    """Valid source solutions round-trip through lift and project; invalid
    sources and certificates raise ReductionError or GraphError, never
    another exception, naming the side that failed."""

    @SEEDED
    @given(st.sampled_from(KINDS), RANDOMS)
    def test_valid_solutions_round_trip(self, kind, rng):
        inst, solution = planted_source(kind, rng)
        back = project_certificate(inst, lift_certificate(inst, solution))
        if kind == "steiner":
            assert back == (frozenset({x for e in solution for x in e} or inst.source.terminals), tuple(sorted(solution)))
        else:
            assert back == _normalized(kind, solution)

    @SEEDED
    @given(st.sampled_from(("starlike", "bip4", "planar-bipartite", "crosscomp")), RANDOMS)
    def test_unsatisfied_clause(self, kind, rng):
        inst, solution = planted_source(kind, rng)
        if kind == "crosscomp":
            a, ell = solution
            fs = list(inst.source)
            fs[ell - 1] = Cnf.build(len(a), fs[ell - 1].clauses + (_true_clause(rng, a, False),))
            bad, flipped = gen_crosscomp(fs), (tuple(not b for b in a), ell)
        else:
            f = inst.source
            clause = _true_clause(rng, solution, kind == "planar-bipartite")
            bad = SAT_GENERATORS[kind](Cnf.build(f.num_vars, f.clauses + (clause,)))
            flipped = tuple(not b for b in solution)
        with pytest.raises(ReductionError, match="^source assignment does not satisfy clause"):
            lift_certificate(bad, flipped)

    @SEEDED
    @given(RANDOMS)
    def test_uncovered_element_and_set_over_budget(self, rng):
        inst, chosen = planted_source("setcover-wcs", rng)
        src = inst.source
        with pytest.raises(ReductionError, match="^source family leaves element"):
            lift_certificate(inst, chosen[:-1])
        tight = gen_setcover_to_wcs(SetCoverInstance.build(src.universe_size, src.sets, len(chosen) - 1))
        with pytest.raises(ReductionError, match="^source family has"):
            lift_certificate(tight, chosen)

    @SEEDED
    @given(RANDOMS)
    def test_disconnected_and_underweight_subsets(self, rng):
        inst, subset = planted_source("wcs-wcm", rng)
        g = inst.source
        weight = sum(g.vertex_weights[v] for v in subset)
        with pytest.raises(ReductionError, match="^source vertex set weighs"):
            lift_certificate(gen_wcs_to_wcm(g, weight + 1), subset)
        apart = [(u, v) for u in range(g.n) for v in range(u + 1, g.n) if v not in g.adj[u]]
        assume(apart)
        pair = set(rng.choice(apart))
        pair_weight = sum(g.vertex_weights[v] for v in pair)
        with pytest.raises(ReductionError, match="^source vertex set is not connected"):
            lift_certificate(gen_wcs_to_wcm(g, pair_weight), pair)

    @SEEDED
    @given(RANDOMS)
    def test_tree_missing_a_terminal(self, rng):
        inst, tree = planted_source("steiner", rng)
        src = inst.source
        assume(tree)
        # a new terminal hangs off vertex 0, outside the tree
        wider = SteinerInstance.build(src.n + 1, src.edges + ((0, src.n),), src.terminals | {src.n}, src.budget + 1)
        with pytest.raises(ReductionError, match=f"^tree misses terminal {src.n}$"):
            lift_certificate(gen_planar_subcubic(wider), tree)

    @SEEDED
    @given(st.sampled_from(KINDS), RANDOMS)
    def test_certificate_of_another_graph(self, kind, rng):
        inst, solution = planted_source(kind, rng)
        other, other_solution = planted_source(kind, rng)
        cert = lift_certificate(other, other_solution)
        if kind == "setcover-wcs":
            # a vertex set of the other graph, numbered past this one's vertices
            cert = frozenset(v + inst.graph.n for v in cert)
            with pytest.raises(ReductionError, match="^certificate has vertex .* out of range$"):
                project_certificate(inst, cert)
        else:
            with pytest.raises(ReductionError, match="^certificate is not a Matching$"):
                project_certificate(inst, frozenset(cert.edge_ids))
            assume(other.graph != inst.graph)
            with pytest.raises(ReductionError, match="^certificate belongs to a different graph$"):
                project_certificate(inst, cert)

    @SEEDED
    @given(st.sampled_from(KINDS), RANDOMS)
    def test_corrupted_certificates(self, kind, rng):
        """Toggling one edge (or vertex) of a lifted certificate either gives
        a certificate that projects to a solution the lift accepts, or an
        error of the library's own types."""
        inst, solution = planted_source(kind, rng)
        cert = lift_certificate(inst, solution)
        try:
            if isinstance(cert, frozenset):
                cert = cert ^ {rng.randrange(inst.graph.n + 2)}
            else:
                cert = Matching(inst.graph, set(cert.edge_ids) ^ {rng.randrange(inst.graph.m)})
            back = project_certificate(inst, cert)
        except (ReductionError, GraphError):
            return
        lift_certificate(inst, back[1] if kind == "steiner" else back)


def test_wcs_projection_is_linear():
    """The projection looks each pendant edge up in a set of the
    certificate's edge ids; a scan of the id tuple per vertex is quadratic
    and exceeds the bound at this size."""
    n = 8000
    g = VertexWeightedGraph(n, [(i, i + 1) for i in range(n - 1)], [1] * n)
    inst = gen_wcs_to_wcm(g, n)
    m = lift_certificate(inst, range(n))
    start = time.perf_counter()
    assert project_certificate(inst, m) == frozenset(range(n))
    assert time.perf_counter() - start < 0.2
