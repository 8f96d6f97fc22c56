import re

import pytest

from connmatch import fileio
from connmatch.fileio import FormatError
from connmatch.graphs import VertexWeightedGraph, WeightedGraph
from connmatch.reductions import gen_starlike, Cnf
from connmatch.treedecomp import TreeDecomposition, validate_td
from conftest import cycle_graph, path_graph


class TestGraphFormat:
    def test_parse_k2(self):
        g = fileio.parse_graph_text("p wcm 2 1\ne 1 2 7\n")
        assert g.n == 2 and g.m == 1
        assert g.edges[0] == (0, 1, 7)

    def test_comments_ignored(self):
        g = fileio.parse_graph_text("c hello\np wcm 2 1\nc mid\ne 1 2 -3\n")
        assert g.weight(0) == -3

    def test_self_loop_line_number(self):
        with pytest.raises(FormatError, match="line 2"):
            fileio.parse_graph_text("p wcm 2 1\ne 1 1 3\n")

    def test_duplicate_edge_line_number(self):
        with pytest.raises(FormatError, match="line 3"):
            fileio.parse_graph_text("p wcm 2 2\ne 1 2 3\ne 2 1 4\n")

    def test_edge_count_mismatch(self):
        with pytest.raises(FormatError, match="announces 2"):
            fileio.parse_graph_text("p wcm 2 2\ne 1 2 3\n")

    def test_weight_range(self):
        with pytest.raises(FormatError, match="64-bit"):
            fileio.parse_graph_text(f"p wcm 2 1\ne 1 2 {2**63}\n")

    def test_round_trip_is_canonical(self):
        g = gen_starlike(Cnf.build(2, [(1, -2, 2)])).graph
        text = fileio.write_graph_text(g)
        again = fileio.write_graph_text(fileio.parse_graph_text(text))
        assert text == again
        assert fileio.parse_graph_text(text) == g

    def test_non_integer_weight_rejected(self):
        with pytest.raises(FormatError):
            fileio.parse_graph_text("p wcm 2 1\ne 1 2 1.5\n")


class TestCnfFormat:
    def test_basic(self):
        f = fileio.parse_cnf_text("p cnf 3 1\n1 -2 3 0\n")
        assert f.num_vars == 3
        assert f.clauses == ((1, -2, 3),)

    def test_multiline_clause(self):
        f = fileio.parse_cnf_text("p cnf 3 2\n1 -2\n3 0 2 3 1 0\n")
        assert f.clauses == ((1, -2, 3), (2, 3, 1))

    def test_unterminated(self):
        with pytest.raises(FormatError, match="unterminated"):
            fileio.parse_cnf_text("p cnf 3 1\n1 2 3\n")

    def test_literal_out_of_range(self):
        with pytest.raises(FormatError, match="line 2"):
            fileio.parse_cnf_text("p cnf 2 1\n1 -3 2 0\n")

    def test_round_trip(self):
        f = Cnf.build(4, [(1, -2, 4), (-3, -4, 1)])
        assert fileio.parse_cnf_text(fileio.write_cnf_text(f)) == f


class TestSteinerFormat:
    def test_basic(self):
        inst = fileio.parse_steiner_text("p steiner 3 3\ne 1 2\ne 2 3\ne 1 3\nt 1\nt 2\nk 1\n")
        assert inst.n == 3 and len(inst.edges) == 3
        assert inst.terminals == frozenset({0, 1})
        assert inst.budget == 1

    def test_terminal_out_of_range(self):
        with pytest.raises(FormatError, match="line 3"):
            fileio.parse_steiner_text("p steiner 2 1\ne 1 2\nt 5\nk 1\n")

    def test_missing_budget(self):
        with pytest.raises(FormatError, match="missing 'k'"):
            fileio.parse_steiner_text("p steiner 2 1\ne 1 2\nt 1\n")

    def test_bare_budget_line(self):
        with pytest.raises(FormatError, match="line 4: expected 'k <budget>'"):
            fileio.parse_steiner_text("p steiner 2 1\ne 1 2\nt 1\nk\n")


class TestSetCoverFormat:
    def test_basic(self):
        inst = fileio.parse_setcover_text("p setcover 3 2\ns 1 2\ns 3\nk 1\n")
        assert inst.universe_size == 3
        assert inst.sets == (frozenset({0, 1}), frozenset({2}))

    def test_element_out_of_range(self):
        with pytest.raises(FormatError, match="line 2"):
            fileio.parse_setcover_text("p setcover 2 1\ns 1 5\nk 1\n")

    def test_bare_budget_line(self):
        with pytest.raises(FormatError, match="line 3: expected 'k <budget>'"):
            fileio.parse_setcover_text("p setcover 2 1\ns 1 2\nk\n")


class TestWcsFormat:
    def test_round_trip(self):
        g = VertexWeightedGraph(3, [(0, 1), (1, 2)], [4, -5, 4])
        text = fileio.write_wcs_text(g)
        back = fileio.parse_wcs_text(text)
        assert back.vertex_weights == (4, -5, 4)
        assert back.edges == ((0, 1), (1, 2))

    def test_missing_weight(self):
        with pytest.raises(FormatError, match="no weight"):
            fileio.parse_wcs_text("p wcs 2 1\nv 1 3\ne 1 2\n")


class TestTdFormat:
    def test_round_trip(self):
        g = path_graph([1, 1, 1])
        td = TreeDecomposition.build([{0, 1}, {1, 2}, {2, 3}], [(0, 1), (1, 2)])
        text = fileio.write_td_text(td, g.n)
        back = fileio.parse_td_text(text)
        assert validate_td(g, back) == 1
        assert back.bags == td.bags

    def test_header_missing(self):
        with pytest.raises(FormatError, match="s td"):
            fileio.parse_td_text("b 1 1 2\n")

    def test_missing_bag(self):
        with pytest.raises(FormatError, match="bag 2"):
            fileio.parse_td_text("s td 2 2 3\nb 1 1 2\n1 2\n")

    def test_bare_bag_line(self):
        with pytest.raises(FormatError, match="line 2: expected 'b <id>"):
            fileio.parse_td_text("s td 1 2 2\nb\n")


@pytest.mark.parametrize(
    "parse, text, line",
    [
        (fileio.parse_cnf_text, "p cnf 2 1\n1 2 0\np cnf 3 1\n", 3),
        (fileio.parse_wcs_text, "p wcs 1 0\nv 1 5\np wcs 1 0\nv 1 7\n", 3),
        (fileio.parse_td_text, "s td 1 2 2\nb 1 1 2\ns td 1 1 1\n", 3),
        (fileio.parse_steiner_text, "p steiner 2 1\ne 1 2\nt 1\nk 1\np steiner 2 0\n", 5),
        (fileio.parse_setcover_text, "p setcover 1 1\np setcover 0 1\ns 1\nk 1\n", 2),
    ],
    ids=["cnf", "wcs", "td", "steiner", "setcover"],
)
def test_second_header_is_rejected(parse, text, line):
    with pytest.raises(FormatError, match=f"^line {line}: duplicate header$"):
        parse(text)


@pytest.mark.parametrize(
    "parse, text, message",
    [
        (fileio.parse_steiner_text, "p steiner 2 1\ne 1 1\nt 1\nk 1\n", "line 2: self-loop at vertex 1"),
        (
            fileio.parse_steiner_text,
            "p steiner 2 2\ne 1 2\nt 1\ne 2 1\nk 1\n",
            "line 4: duplicate edge (2, 1), first on line 2",
        ),
        (
            fileio.parse_wcs_text,
            "p wcs 2 2\nv 1 1\nv 2 1\ne 1 2\ne 2 1\n",
            "line 5: duplicate edge (2, 1), first on line 4",
        ),
        (fileio.parse_cnf_text, "p cnf -1 0\n", "line 1: variable count must be non-negative"),
        (fileio.parse_steiner_text, "p steiner -1 0\nk 1\n", "line 1: vertex count must be non-negative"),
        (fileio.parse_setcover_text, "p setcover 1 -1\ns 1\nk 1\n", "line 1: set count must be non-negative"),
        (fileio.parse_wcs_text, "c note\np wcs 2 -1\n", "line 2: edge count must be non-negative"),
        (fileio.parse_td_text, "s td 1 -2 2\nb 1 1\n", "line 1: bag size count must be non-negative"),
        (fileio.parse_td_text, "s td 1 x 2\nb 1 1\n", "line 1: expected integer, got 'x'"),
        (fileio.parse_td_text, "s td 1 1 2\nb 1 1 2\n", "line 2: bag 1 has 2 vertices, more than width+1 = 1"),
        (fileio.parse_steiner_text, "k 1\np steiner 2 1\ne 1 2\nt 1\n", "line 1: expected 'p steiner <n> <m>'"),
        (fileio.parse_steiner_text, "p steiner 2 1\ne 1 2\nk 1\nt 1\nk 2\n", "line 5: duplicate 'k' line"),
        (fileio.parse_setcover_text, "p setcover 1 1\nk 1\ns 1\nk 1\n", "line 4: duplicate 'k' line"),
        (fileio.parse_assignment_text, "a 0 1\nc note\na 1 1\n", "line 3: duplicate 'a' line"),
        (fileio.parse_assignment_text, "i 1\na 0 1\ni 2\n", "line 3: duplicate 'i' line"),
        (fileio.parse_map_text, "map 1 h+\nmap 0 x.1+\n", f"line 2: vertex 0 out of range 1..{2**63 - 1}"),
        (fileio.parse_family_text, "s 2 0\n", f"line 1: set index 0 out of range 1..{2**63 - 1}"),
        (fileio.parse_tree_solution_text, "e 1 2\ne 0 1\n", f"line 2: vertex out of range 1..{2**63 - 1}"),
    ],
    ids=[
        "steiner-self-loop", "steiner-duplicate-edge", "wcs-duplicate-edge", "cnf-negative-count",
        "steiner-negative-count", "setcover-negative-count", "wcs-negative-count", "td-negative-width",
        "td-non-integer-width", "td-bag-wider-than-header", "steiner-line-before-header", "steiner-second-k",
        "setcover-second-k", "second-a", "second-i", "map-id-0", "family-index-0", "tree-solution-id-0",
    ],
)
def test_bad_line_is_named(parse, text, message):
    with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
        parse(text)


@pytest.mark.parametrize(
    "parse, text, line, announced",
    [
        (fileio.parse_graph_text, "p wcm 3 5\ne 1 2 1\n", 1, "5 edges, file has 1"),
        (fileio.parse_graph_text, "c x\np wcm 3 0\ne 1 2 1\n", 2, "0 edges, file has 1"),
        (fileio.parse_cnf_text, "c x\n\np cnf 2 2\n1 -2 0\n", 3, "2 clauses, file has 1"),
        (fileio.parse_steiner_text, "p steiner 2 2\ne 1 2\nt 1\nk 1\n", 1, "2 edges, file has 1"),
        (fileio.parse_setcover_text, "c x\np setcover 1 2\ns 1\nk 1\n", 2, "2 sets, file has 1"),
        (fileio.parse_wcs_text, "p wcs 2 0\nv 1 1\nv 2 1\ne 1 2\n", 1, "0 edges, file has 1"),
    ],
    ids=["graph-bulk-layout", "graph", "cnf", "steiner", "setcover", "wcs"],
)
def test_count_mismatch_names_the_header_line(parse, text, line, announced):
    with pytest.raises(FormatError, match=f"^line {line}: header announces {announced}$"):
        parse(text)


class TestNonUtf8:
    @pytest.mark.parametrize(
        "parse, data, line",
        [
            (fileio.parse_graph, b"p wcm 2 1\ne 1 2 \xff\n", 2),
            (fileio.parse_graph, b"\xc3p wcm 2 1\ne 1 2 1\n", 1),
            (fileio.parse_td, b"s td 2 2 3\nb 1 1 2\r\nb 2 2 \xe9\n1 2\n", 3),
        ],
        ids=["graph-line-2", "graph-line-1", "td-crlf-line-3"],
    )
    def test_reports_line(self, tmp_path, parse, data, line):
        path = tmp_path / "bad"
        path.write_bytes(data)
        with pytest.raises(FormatError, match=f"^line {line}: file is not valid UTF-8$"):
            parse(path)


class TestCertificateFormat:
    def test_round_trip(self):
        g = cycle_graph([1, 2, 3, 4])
        from connmatch.graphs import Matching

        m = Matching(g, [0, 2])
        text = fileio.write_certificate_text(m)
        back = fileio.parse_certificate_text(text, g)
        assert back.edge_ids == m.edge_ids

    def test_unknown_edge(self):
        g = path_graph([1, 1])
        with pytest.raises(FormatError, match="not in the graph"):
            fileio.parse_certificate_text("m 1 3\n", g)


class TestMapFormat:
    def test_round_trip(self):
        labels = {0: "h+", 1: "x.1*", 2: "cyc.2.7"}
        assert fileio.parse_map_text(fileio.write_map_text(labels)) == labels


class TestSolutionFormats:
    def test_assignment(self):
        a, inst = fileio.parse_assignment_text("a 0 1 1\ni 2\n")
        assert a == (False, True, True) and inst == 2
        assert fileio.parse_assignment_text(fileio.write_assignment_text(a, 2)) == (a, 2)

    def test_bare_instance_line(self):
        with pytest.raises(FormatError, match="line 2: expected 'i <instance>'"):
            fileio.parse_assignment_text("a 0 1\ni\n")

    def test_tree_solution(self):
        edges = [(0, 1), (1, 2)]
        text = fileio.write_tree_solution_text(edges)
        assert fileio.parse_tree_solution_text(text) == edges

    def test_family(self):
        fam = frozenset({0, 2})
        assert fileio.parse_family_text(fileio.write_family_text(fam)) == fam
