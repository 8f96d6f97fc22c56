import os
import random
import subprocess
import sys
import time
from collections import Counter
from contextlib import nullcontext
from pathlib import Path

import pytest

from connmatch import cli, dispatch, fileio, treewidth_solver
from connmatch.cli import main
from connmatch.dispatch import SOLVERS, dispatch_solve
from connmatch.graphs import GraphError, WeightedGraph, induced_by_matching_connected
from connmatch.oracle import brute_mwcm
from connmatch.treedecomp import TdError, TreeDecomposition, heuristic_td
from conftest import (
    cycle_graph,
    path_graph,
    random_chordal_graph,
    random_connected_graph,
    random_ktree,
    random_tree,
)

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def k2(tmp_path):
    p = tmp_path / "k2.gr"
    p.write_text("p wcm 2 1\ne 1 2 7\n")
    return p


class TestDispatch:
    def test_routes_tree(self):
        rng = random.Random(1)
        g = random_tree(rng, 9)
        assert dispatch_solve(g)[0] == brute_mwcm(g, edge_limit=16).optimum

    def test_routes_cycle(self):
        g = cycle_graph([3, -1, 2, 2, -4])
        assert dispatch_solve(g)[0] == brute_mwcm(g).optimum

    def test_routes_chordal_nonnegative(self):
        rng = random.Random(2)
        g = random_chordal_graph(rng, 9, 0, 9)
        assert dispatch_solve(g)[0] == brute_mwcm(g, edge_limit=50).optimum

    def test_negative_chordal_falls_through(self):
        # chordal but negative weights: auto must not use the chordal solver
        g = WeightedGraph(4, [(0, 1, -2), (1, 2, 3), (2, 3, 4), (0, 2, 1), (1, 3, -1)])
        assert dispatch_solve(g)[0] == brute_mwcm(g).optimum

    def test_forced_chordal_rejects_negative(self):
        g = WeightedGraph(2, [(0, 1, -1)])
        with pytest.raises(GraphError):
            dispatch_solve(g, solver="chordal")

    def test_forced_tree_rejects_cycle(self):
        with pytest.raises(GraphError):
            dispatch_solve(cycle_graph([1, 1, 1]), solver="tree")

    def test_disconnected_takes_best_component(self):
        a = path_graph([5])
        edges = list(a.edges) + [(2, 3, 9), (3, 4, -1), (4, 5, 9)]
        g = WeightedGraph(6, edges)
        w, m = dispatch_solve(g)
        assert w == 18
        assert m.vertices == {2, 3, 4, 5}

    @pytest.mark.parametrize("solver", SOLVERS)
    def test_isolated_vertices_are_skipped(self, solver):
        g = WeightedGraph(100_000, [(0, 1, 5), (1, 2, -1), (5, 6, 3)])
        start = time.perf_counter()
        with pytest.raises(GraphError, match="non-negative weights") if solver == "chordal" else nullcontext():
            assert dispatch_solve(g, solver)[1].edge_ids == (0,)  # the edge of weight 5
        assert time.perf_counter() - start < 0.5

    def test_million_isolated_vertices_are_never_grouped(self):
        # grouping every one-vertex component took ~1.4 s on a 2-core x86_64 VM
        WeightedGraph(2, [(0, 1, 1)]).components()  # load numpy outside the timing
        g = WeightedGraph(10**6, [(0, 1, 5)])
        start = time.perf_counter()
        w, m = dispatch_solve(g)
        assert time.perf_counter() - start < 1.0
        assert (w, m.edge_ids) == (5, (0,))

    def test_components_are_cut_without_adjacency(self):
        rng = random.Random(5)
        parts = [random_chordal_graph(rng, 8), random_tree(rng, 6), cycle_graph([2, -1, 3, 4])]
        edges, offset = [], 0
        for part in parts:
            edges += [(u + offset, v + offset, w) for u, v, w in part.edges]
            offset += part.n
        g = WeightedGraph(offset + 3, edges)  # and three isolated vertices
        w, m = dispatch_solve(g)
        assert w == max(brute_mwcm(part, edge_limit=40).optimum for part in parts)
        assert m.weight == w and induced_by_matching_connected(g, m)
        assert g._adj is None

    @pytest.mark.parametrize("solver", SOLVERS)
    def test_given_td_is_validated_whatever_the_solver(self, solver):
        # bag {0, 1} leaves vertex 2 of the path uncovered
        td = TreeDecomposition.build([{0, 1}], [])
        with pytest.raises(TdError, match="vertex coverage fails"):
            dispatch_solve(path_graph([5, 4]), solver=solver, td=td)

    def test_treewidth_route_on_dense_instance(self):
        rng = random.Random(3)
        g = random_connected_graph(rng, 10, 18)
        assert g.m > 24
        w, _ = dispatch_solve(g)
        assert w == brute_mwcm(g, edge_limit=64).optimum

    def test_auto_matches_oracle_broadly(self):
        rng = random.Random(4)
        for _ in range(40):
            n = rng.randint(1, 9)
            g = random_connected_graph(rng, n, rng.randint(0, 2 * n))
            assert dispatch_solve(g)[0] == brute_mwcm(g, edge_limit=60).optimum


def _count_routes(monkeypatch) -> dict:
    """Count the calls ``dispatch`` makes to the treewidth DP (its entry on a
    nice form) and to the chordal solver."""
    calls = {"_solve_nice": 0, "solve_chordal": 0}
    for name in calls:
        solver = getattr(dispatch, name)

        def counted(*args, _solver=solver, _name=name, **kwargs):
            calls[_name] += 1
            return _solver(*args, **kwargs)

        monkeypatch.setattr(dispatch, name, counted)
    return calls


class TestChordalRoute:
    """``auto`` sends a non-negative chordal component to the treewidth DP
    on its perfect-elimination decomposition while that decomposition's
    cell bound is at most ``CHORDAL_DP_CELLS_PER_VERTEX`` per vertex, and
    to the chordal solver above it."""

    def test_auto_matches_oracle_on_both_sides_of_the_threshold(self, monkeypatch):
        calls = _count_routes(monkeypatch)
        rng = random.Random(25)
        graphs = [random_chordal_graph(rng, rng.randint(4, 12), 0, 9) for _ in range(40)]
        graphs += [random_ktree(rng, rng.randint(k + 2, 12), k, 0, 9) for k in (2, 3, 4, 5, 6) for _ in range(4)]
        for g in graphs:
            w, m = dispatch_solve(g)
            assert w == brute_mwcm(g, edge_limit=64).optimum
            assert m.weight == w and induced_by_matching_connected(g, m)
        assert calls["_solve_nice"] > 0 and calls["solve_chordal"] > 0

    def test_sparse_chordal_goes_to_the_dp(self, monkeypatch):
        calls = _count_routes(monkeypatch)
        dispatch_solve(random_chordal_graph(random.Random(6), 200, 0, 9, max_clique=4))
        assert calls == {"_solve_nice": 1, "solve_chordal": 0}

    def test_dense_ktree_goes_to_the_blossom(self, monkeypatch):
        calls = _count_routes(monkeypatch)
        dispatch_solve(random_ktree(random.Random(7), 60, 6))
        assert calls == {"_solve_nice": 0, "solve_chordal": 1}

    @pytest.mark.parametrize("dense", [False, True], ids=["sparse", "dense"])
    def test_only_the_blossom_loads_networkx(self, tmp_path, dense):
        g = random_ktree(random.Random(8), 60, 6) if dense else random_chordal_graph(random.Random(8), 300, 0, 9, 4)
        path = tmp_path / "g.gr"
        fileio.write_graph(g, path)
        code = (
            "import sys; from connmatch.cli import main; "
            f"rc = main(['solve', '--graph', {str(path)!r}]); print(rc, 'networkx' in sys.modules)"
        )
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == f"0 {dense}"


def _two_copies(g: WeightedGraph) -> WeightedGraph:
    """``g`` and a copy of it side by side, so dispatch cuts two components."""
    return WeightedGraph(2 * g.n, list(g.edges) + [(u + g.n, v + g.n, w) for u, v, w in g.edges])


def _dense(seed: int = 3) -> WeightedGraph:
    """Connected, not chordal, and too many edges for brute force."""
    return random_connected_graph(random.Random(seed), 10, 18)


# route -> (graph, components, --solver, whether a --td is given, DP runs)
PLAN_ROUTES = {
    "auto-heuristic": (lambda: _two_copies(_dense()), 2, "auto", False, 2),
    "auto-peo-dp": (lambda: random_chordal_graph(random.Random(6), 200, 0, 9, max_clique=4), 1, "auto", False, 1),
    "auto-peo-blossom": (lambda: random_ktree(random.Random(7), 60, 6), 1, "auto", False, 0),
    "auto-td": (_dense, 1, "auto", True, 1),
    "treewidth": (lambda: _two_copies(_dense()), 2, "treewidth", False, 2),
    "treewidth-td": (_dense, 1, "treewidth", True, 1),
}


class TestOnePlanPerComponent:
    """On every route to the DP, a component's nice form is built once, only
    a given decomposition is validated, once, and the DP never checks again
    that a component dispatch has cut is connected."""

    @pytest.mark.parametrize("route", PLAN_ROUTES)
    def test_each_step_runs_once(self, route, tmp_path, monkeypatch, capsys):
        make, components, solver, with_td, dp_runs = PLAN_ROUTES[route]
        g = make()
        weight = dispatch_solve(g)[0]  # before the counters go in
        gp = tmp_path / "g.gr"
        fileio.write_graph(g, gp)
        argv = ["solve", "--graph", str(gp), "--solver", solver]
        if with_td:
            fileio.write_td(heuristic_td(g), g.n, tmp_path / "g.td")
            argv += ["--td", str(tmp_path / "g.td")]
        calls = Counter()
        for module, name in [
            (dispatch, "make_nice"),
            (treewidth_solver, "make_nice"),
            (dispatch, "validate_td"),
            (treewidth_solver, "validate_td"),
            (treewidth_solver, "is_connected"),
            (treewidth_solver, "_run_dp"),
        ]:
            def counted(*args, _fn=getattr(module, name), _name=name, **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
        assert main(argv) == 0
        assert capsys.readouterr().out == f"w {weight}\n"
        assert calls["make_nice"] <= components
        assert calls["validate_td"] == with_td
        # the public front checks a given td's graph, which dispatch has not cut
        assert calls["is_connected"] == (solver == "treewidth" and with_td)
        assert calls["_run_dp"] == dp_runs


class TestCliSolveVerify:
    def test_solve_prints_weight(self, k2, capsys):
        assert main(["solve", "--graph", str(k2)]) == 0
        assert capsys.readouterr().out.strip() == "w 7"

    def test_solve_decision_threshold(self, k2, capsys):
        assert main(["solve", "--graph", str(k2), "--k", "7"]) == 0
        assert main(["solve", "--graph", str(k2), "--k", "8"]) == 1

    def test_solve_writes_verifiable_certificate(self, tmp_path, capsys):
        rng = random.Random(9)
        g = random_connected_graph(rng, 8, 6)
        gp = tmp_path / "g.gr"
        fileio.write_graph(g, gp)
        cert = tmp_path / "out.cert"
        assert main(["solve", "--graph", str(gp), "--cert", str(cert)]) == 0
        weight = int(capsys.readouterr().out.split()[1])
        assert main(["verify", "--graph", str(gp), "--cert", str(cert), "--k", str(weight)]) == 0
        assert main(["verify", "--graph", str(gp), "--cert", str(cert), "--k", str(weight + 1)]) == 1

    def test_verify_rejects_malformed(self, tmp_path, k2):
        cert = tmp_path / "bad.cert"
        cert.write_text("m 1 9\n")
        assert main(["verify", "--graph", str(k2), "--cert", str(cert), "--k", "0"]) == 2

    def test_verify_shared_endpoint_is_error(self, tmp_path):
        gp = tmp_path / "p3.gr"
        gp.write_text("p wcm 3 2\ne 1 2 1\ne 2 3 1\n")
        cert = tmp_path / "bad.cert"
        cert.write_text("m 1 2\nm 2 3\n")
        assert main(["verify", "--graph", str(gp), "--cert", str(cert), "--k", "0"]) == 2

    @pytest.mark.parametrize(
        "cert_text, message",
        [
            ("m 1 2\nm 2 3\n", "line 2: edge (2, 3) shares vertex 2 with line 1"),
            ("m 1 2\nm 2 1\n", "line 2: edge (2, 1) repeats line 1"),
        ],
        ids=["shared-vertex", "repeated-edge"],
    )
    def test_verify_malformed_matching_names_lines(self, tmp_path, capsys, cert_text, message):
        gp = tmp_path / "p3.gr"
        gp.write_text("p wcm 3 2\ne 1 2 1\ne 2 3 1\n")
        cert = tmp_path / "bad.cert"
        cert.write_text(cert_text)
        assert main(["verify", "--graph", str(gp), "--cert", str(cert), "--k", "0"]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_solver_precondition_error_is_exit_2(self, tmp_path):
        gp = tmp_path / "neg.gr"
        gp.write_text("p wcm 2 1\ne 1 2 -1\n")
        assert main(["solve", "--graph", str(gp), "--solver", "chordal"]) == 2

    def test_disconnected_with_td_is_error(self, tmp_path):
        gp = tmp_path / "dis.gr"
        gp.write_text("p wcm 4 2\ne 1 2 1\ne 3 4 1\n")
        td = tmp_path / "t.td"
        td.write_text("s td 2 2 4\nb 1 1 2\nb 2 3 4\n1 2\n")
        assert main(["solve", "--graph", str(gp), "--td", str(td)]) == 2

    def test_uncovering_td_is_exit_2_on_auto(self, tmp_path, capsys):
        gp = tmp_path / "p3.gr"
        gp.write_text("p wcm 3 2\ne 1 2 5\ne 2 3 4\n")
        td = tmp_path / "t.td"
        td.write_text("s td 1 2 3\nb 1 1 2\n")
        assert main(["solve", "--graph", str(gp), "--td", str(td)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: vertex coverage fails: vertex 2 is in no bag\n"

    def test_bare_bag_line_is_exit_2(self, k2, tmp_path, capsys):
        td = tmp_path / "t.td"
        td.write_text("s td 1 2 2\nb\n")
        assert main(["solve", "--graph", str(k2), "--td", str(td)]) == 2
        assert "line 2" in capsys.readouterr().err

    def test_non_utf8_graph_is_exit_2(self, tmp_path, capsys):
        gp = tmp_path / "bad.gr"
        gp.write_bytes(b"p wcm 2 1\ne 1 2 \xff\n")
        assert main(["solve", "--graph", str(gp)]) == 2
        assert "line 2: file is not valid UTF-8" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, message",
        [
            ("p wcm -1 0\n", "line 1: vertex count must be non-negative"),
            ("c note\np wcm 3 -1\n", "line 2: edge count must be non-negative"),
        ],
        ids=["negative-n", "negative-m"],
    )
    def test_negative_header_count_names_its_line(self, tmp_path, capsys, text, message):
        gp = tmp_path / "neg.gr"
        gp.write_text(text)
        assert main(["solve", "--graph", str(gp)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_non_utf8_td_is_exit_2(self, k2, tmp_path, capsys):
        td = tmp_path / "bad.td"
        td.write_bytes(b"s td 1 2 2\nb 1 1 \xff2\n")
        assert main(["solve", "--graph", str(k2), "--td", str(td)]) == 2
        assert "line 2: file is not valid UTF-8" in capsys.readouterr().err


    def test_unexpected_exception_is_exit_2(self, k2, capsys, monkeypatch):
        def boom(*args, **kwargs):
            raise RuntimeError("solver blew up")

        monkeypatch.setattr(cli, "dispatch_solve", boom)
        assert main(["solve", "--graph", str(k2)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines() == ["error: RuntimeError: solver blew up"]
        assert "Traceback" not in err

class TestCliGenerateAndMap:
    def test_generate_starlike_and_verify_lifted(self, tmp_path, capsys):
        cnf = tmp_path / "f.cnf"
        cnf.write_text("p cnf 3 1\n1 -2 3 0\n")
        out = tmp_path / "out.gr"
        mp = tmp_path / "out.map"
        assert main(["generate", "starlike", "--cnf", str(cnf), "--out", str(out), "--map", str(mp)]) == 0
        k = int(capsys.readouterr().out.split()[1])
        assert k == 4

        sol = tmp_path / "sol.txt"
        sol.write_text("a 1 0 1\n")
        cert = tmp_path / "lifted.cert"
        assert main([
            "map-cert", "starlike", "--cnf", str(cnf), "--map", str(mp),
            "--direction", "lift", "--solution", str(sol), "--out", str(cert),
        ]) == 0
        assert main(["verify", "--graph", str(out), "--cert", str(cert), "--k", str(k)]) == 0

        back = tmp_path / "back.txt"
        assert main([
            "map-cert", "starlike", "--cnf", str(cnf),
            "--direction", "project", "--cert", str(cert), "--out", str(back),
        ]) == 0
        assignment, _ = fileio.parse_assignment_text(back.read_text())
        assert assignment == (True, False, True)

    def test_map_cert_non_utf8_inputs_are_exit_2(self, tmp_path, capsys):
        cnf = tmp_path / "f.cnf"
        cnf.write_text("p cnf 3 1\n1 -2 3 0\n")
        sol = tmp_path / "sol.txt"
        sol.write_bytes(b"c solution\na 1 0 \xff\n")
        assert main([
            "map-cert", "starlike", "--cnf", str(cnf),
            "--direction", "lift", "--solution", str(sol), "--out", str(tmp_path / "c"),
        ]) == 2
        assert "line 2: file is not valid UTF-8" in capsys.readouterr().err

        sc = tmp_path / "s.setcover"
        sc.write_text("p setcover 1 1\ns 1\nk 1\n")
        cert = tmp_path / "bad.cert"
        cert.write_bytes(b"\xfe\n")
        assert main([
            "map-cert", "setcover-wcs", "--setcover", str(sc),
            "--direction", "project", "--cert", str(cert), "--out", str(tmp_path / "f"),
        ]) == 2
        assert "line 1: file is not valid UTF-8" in capsys.readouterr().err

    def test_generate_steiner(self, tmp_path, capsys):
        sp = tmp_path / "s.steiner"
        sp.write_text("p steiner 3 3\ne 1 2\ne 2 3\ne 1 3\nt 1\nt 2\nk 1\n")
        out = tmp_path / "o.gr"
        assert main(["generate", "steiner", "--steiner", str(sp), "--out", str(out)]) == 0
        assert capsys.readouterr().out.strip() == "k 17"
        g = fileio.parse_graph(out)
        assert g.max_degree() <= 3

    def test_generate_setcover_writes_wcs(self, tmp_path, capsys):
        sc = tmp_path / "s.setcover"
        sc.write_text("p setcover 1 1\ns 1\nk 1\n")
        out = tmp_path / "o.wcs"
        assert main(["generate", "setcover-wcs", "--setcover", str(sc), "--out", str(out)]) == 0
        assert capsys.readouterr().out.strip() == "k 3"
        g = fileio.parse_wcs(out)
        assert g.n == 3

    def test_generate_wcs_wcm(self, tmp_path, capsys):
        w = tmp_path / "g.wcs"
        w.write_text("p wcs 1 0\nv 1 5\n")
        out = tmp_path / "o.gr"
        assert main(["generate", "wcs-wcm", "--wcs", str(w), "--k", "5", "--out", str(out)]) == 0
        assert capsys.readouterr().out.strip() == "k 5"

    def test_generate_crosscomp_multi_cnf(self, tmp_path, capsys):
        c1 = tmp_path / "a.cnf"
        c1.write_text("p cnf 2 1\n1 2 2 0\n")
        c2 = tmp_path / "b.cnf"
        c2.write_text("p cnf 2 1\n-1 -2 -2 0\n")
        out = tmp_path / "o.gr"
        assert main([
            "generate", "crosscomp", "--cnf", str(c1), "--cnf", str(c2), "--out", str(out),
        ]) == 0
        assert capsys.readouterr().out.strip() == "k 6"

    def test_decompose_and_solve_with_td(self, tmp_path, capsys):
        rng = random.Random(12)
        g = random_connected_graph(rng, 9, 5)
        gp = tmp_path / "g.gr"
        fileio.write_graph(g, gp)
        td = tmp_path / "g.td"
        assert main(["decompose", "--graph", str(gp), "--out", str(td)]) == 0
        capsys.readouterr()
        assert main(["solve", "--graph", str(gp), "--solver", "treewidth", "--td", str(td)]) == 0
        weight = int(capsys.readouterr().out.split()[1])
        assert weight == brute_mwcm(g, edge_limit=40).optimum

    def test_every_solver_certificate_verifies(self, tmp_path, capsys):
        rng = random.Random(77)
        cases = [
            ("tree", random_tree(rng, 10)),
            ("cycle", cycle_graph([rng.randint(-5, 5) for _ in range(8)])),
            ("chordal", random_chordal_graph(rng, 9, 0, 8)),
            ("brute", random_connected_graph(rng, 7, 5)),
            ("treewidth", random_connected_graph(rng, 9, 8)),
            ("auto", random_connected_graph(rng, 9, 10)),
        ]
        for solver, g in cases:
            gp = tmp_path / f"{solver}.gr"
            fileio.write_graph(g, gp)
            cert = tmp_path / f"{solver}.cert"
            assert main(["solve", "--graph", str(gp), "--solver", solver, "--cert", str(cert)]) == 0
            weight = int(capsys.readouterr().out.split()[1])
            rc = main(["verify", "--graph", str(gp), "--cert", str(cert), "--k", str(weight)])
            capsys.readouterr()
            assert rc == 0, solver

    def test_classify_output(self, tmp_path, capsys):
        gp = tmp_path / "c5.gr"
        gp.write_text("p wcm 5 5\ne 1 2 1\ne 2 3 1\ne 3 4 1\ne 4 5 1\ne 5 1 1\n")
        assert main(["classify", "--graph", str(gp)]) == 0
        out = capsys.readouterr().out
        assert "cycle true" in out
        assert "bipartite false" in out
        assert "chordal false" in out
