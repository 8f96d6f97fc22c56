"""The bulk ``.gr`` path against the line scanner.

``parse_graph_text`` tries the bulk path first and falls back to the line
scanner. On every text the two must agree: the same graph with the same
edge ids, or the same exception type with the same message.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from connmatch import fileio
from connmatch.fileio import _parse_graph_bulk, _parse_graph_lines, parse_graph_text
from connmatch.graphs import WeightedGraph


def outcome(parse, text):
    try:
        g = parse(text)
    except Exception as exc:  # the type and the message are compared
        return type(exc), str(exc)
    return g.n, g.edges


def assert_agree(text):
    want = outcome(_parse_graph_lines, text)
    assert outcome(parse_graph_text, text) == want
    bulk = _parse_graph_bulk(text)
    if bulk is not None:
        assert (bulk.n, bulk.edges) == want
    return bulk is not None


def canonical(n, edges, final_newline=True):
    text = "\n".join([f"p wcm {n} {len(edges)}"] + [f"e {u} {v} {w}" for u, v, w in edges])
    return text + ("\n" if final_newline else "")


BASE = [(1, 2, 5), (2, 3, -4), (4, 1, 0)]

CASES = {
    "canonical": canonical(4, BASE),
    "no final newline": canonical(4, BASE, final_newline=False),
    "no edges": "p wcm 3 0\n",
    "empty": "",
    "comment first": "c hi\n" + canonical(4, BASE),
    "comment between": "p wcm 4 2\nc x\ne 1 2 5\ne 2 3 -4\n",
    "blank line": "p wcm 4 2\n\ne 1 2 5\ne 2 3 -4\n",
    "trailing blank lines": canonical(4, BASE) + "\n\n",
    "crlf": canonical(4, BASE).replace("\n", "\r\n"),
    "bare cr": canonical(4, BASE).replace("\n", "\r"),
    "vertical tab lines": canonical(4, BASE).replace("\n", "\x0b"),
    "vertical tab separator": canonical(4, BASE).replace("e 1 2", "e\x0b1 2"),
    "nbsp separator": canonical(4, BASE).replace("e 1 2", "e\xa01\xa02"),
    "tab separator": canonical(4, BASE).replace(" ", "\t"),
    "double space": canonical(4, BASE).replace("e 1 2", "e  1 2"),
    "leading space": " " + canonical(4, BASE),
    "two edges on one line": "p wcm 4 2\ne 1 2 5 e 2 3 -4\n",
    "tokens shifted between lines": "p wcm 4 2\ne 1 2 3 e\ne 2 4\n",
    "extra token": "p wcm 4 1\ne 1 2 5 6\n",
    "missing token": "p wcm 4 1\ne 1 2\n",
    "header short": "p wcm 4\ne 1 2 5\n",
    "wrong format": "p td 4 1\ne 1 2 5\n",
    "second header": "p wcm 4 1\np wcm 4 1\n",
    "unknown directive": "p wcm 4 1\nx 1 2 5\n",
    "too few edges": "p wcm 4 3\ne 1 2 5\ne 2 3 -4\n",
    "too many edges": "p wcm 4 1\ne 1 2 5\ne 2 3 -4\n",
    "plus sign": "p wcm 4 1\ne +1 2 +5\n",
    "underscore": "p wcm 20 1\ne 1_0 2 1_000\n",
    "arabic digits": "p wcm 4 1\ne \u0661 \u0662 \u0663\n",
    "fullwidth digits": "p wcm \uff14 1\ne 1 2 \uff15\n",
    "float weight": "p wcm 4 1\ne 1 2 1.5\n",
    "word vertex": "p wcm 4 1\ne a 2 5\n",
    "vertex zero": "p wcm 4 1\ne 0 2 5\n",
    "vertex above n": "p wcm 4 2\ne 1 2 5\ne 2 5 1\n",
    "negative vertex": "p wcm 4 1\ne -1 2 5\n",
    "self-loop": "p wcm 4 2\ne 1 2 5\ne 3 3 1\n",
    "duplicate edge": "p wcm 4 3\ne 1 2 5\ne 2 3 1\ne 2 1 7\n",
    "duplicate after self-loop": "p wcm 4 3\ne 2 2 5\ne 1 3 1\ne 3 1 7\n",
    "weight 2**63": f"p wcm 4 1\ne 1 2 {2**63}\n",
    "weight 2**63 - 1": f"p wcm 4 1\ne 1 2 {2**63 - 1}\n",
    "weight -2**63": f"p wcm 4 1\ne 1 2 {-(2**63)}\n",
    "weight -2**63 - 1": f"p wcm 4 1\ne 1 2 {-(2**63) - 1}\n",
    "negative n without edges": "p wcm -1 0\n",
    "negative n with an edge": "p wcm -1 1\ne 1 2 5\n",
    "negative m": "p wcm 3 -1\n",
    "huge n": f"p wcm {10**12} 1\ne 1 {10**12} 5\n",
    "leading zeros": "p wcm 4 1\ne 001 2 -0\n",
    "20-digit token": f"p wcm 4 1\ne 1 2 {'0' * 19}5\n",
    "20-digit weight": f"p wcm 4 1\ne 1 2 {10**19}\n",
    "20-digit header": f"p wcm {'0' * 19}4 1\ne 1 2 5\n",
    "double minus": "p wcm 4 1\ne 1 2 --1\n",
    "trailing minus": "p wcm 4 1\ne 1 2 1-\n",
    "lone minus": "p wcm 4 1\ne 1 2 -\n",
    "header announces an edge, none follows": "p wcm 0 1\n",
    "lone surrogate": "p wcm 4 1\ne 1 2 \ud800\n",
    "unicode line separator": canonical(4, BASE).replace("\n", "\u2028"),
    "bom": "\ufeff" + canonical(4, BASE),
}


class TestDifferential:
    @pytest.mark.parametrize("name", sorted(CASES))
    def test_case(self, name):
        assert_agree(CASES[name])

    @pytest.mark.parametrize(
        "name",
        ["canonical", "no final newline", "no edges", "weight 2**63 - 1", "weight -2**63", "huge n",
         "leading zeros"],
    )
    def test_bulk_path_taken(self, name):
        assert assert_agree(CASES[name])

    @pytest.mark.parametrize(
        "name",
        ["plus sign", "underscore", "arabic digits", "fullwidth digits", "weight 2**63", "20-digit token",
         "20-digit weight", "20-digit header", "double minus", "trailing minus", "lone minus",
         "header announces an edge, none follows"],
    )
    def test_line_scanner_taken(self, name):
        """Tokens outside ASCII ``-?[0-9]{1,19}`` or outside int64, and an
        edge count that differs from the header's, leave the bulk path; the
        line scanner still gives the same outcome."""
        assert _parse_graph_bulk(CASES[name]) is None
        assert not assert_agree(CASES[name])

    def test_writer_output_takes_bulk_path(self):
        rng = random.Random(3)
        for _ in range(50):
            n = rng.randint(2, 40)
            pairs = {tuple(sorted(rng.sample(range(n), 2))) for _ in range(rng.randint(0, 3 * n))}
            g = WeightedGraph(n, [(u, v, rng.randint(-(2**63), 2**63 - 1)) for u, v in pairs])
            text = fileio.write_graph_text(g)
            assert assert_agree(text)
            assert parse_graph_text(text) == g

    def test_messages_keep_line_numbers(self):
        assert outcome(parse_graph_text, CASES["duplicate edge"]) == (
            fileio.FormatError, "line 4: duplicate edge (2, 1), first on line 2"
        )
        assert outcome(parse_graph_text, CASES["self-loop"]) == (
            fileio.FormatError, "line 3: self-loop at vertex 3"
        )


SEPARATORS = st.sampled_from([" ", " ", " ", "  ", "\t", "\xa0", "\x0b"])
LINE_ENDS = st.sampled_from(["\n", "\n", "\n", "\r\n", "\r", ""])
TOKENS = st.sampled_from(
    ["p", "wcm", "e", "c", "x", "0", "1", "2", "3", "4", "-1", "+2", "1_0", "\u0663", "1.5",
     str(2**63), str(-(2**63)), str(2**63 - 1), str(-(2**63) - 1), "007", "-0", "--1", "1-", str(10**19)]
)


@st.composite
def line_texts(draw):
    """Arbitrary lines over a small vocabulary: mostly errors and fallbacks."""
    lines = draw(st.lists(st.lists(TOKENS, max_size=6), max_size=8))
    out = []
    for toks in lines:
        sep = draw(SEPARATORS)
        out.append(sep.join(toks) + draw(LINE_ENDS))
    return "".join(out)


@st.composite
def near_canonical_texts(draw):
    """Writer-shaped files with small edits: mostly the bulk path."""
    n = draw(st.integers(-1, 6))
    count = draw(st.integers(0, 6))
    vertex = st.integers(-1, 7)
    weight = st.one_of(st.integers(-3, 3), st.sampled_from([2**63 - 1, 2**63, -(2**63), -(2**63) - 1]))
    edges = [(draw(vertex), draw(vertex), draw(weight)) for _ in range(count)]
    header_m = draw(st.sampled_from([count, count, count, count + 1, max(count - 1, 0)]))
    lines = [f"p wcm {n} {header_m}"] + [f"e {u} {v} {w}" for u, v, w in edges]
    if lines and draw(st.booleans()):
        i = draw(st.integers(0, len(lines) - 1))
        edit = draw(st.sampled_from(["comment", "blank", "crlf", "drop token", "add token", "join"]))
        if edit == "comment":
            lines.insert(i, "c note")
        elif edit == "blank":
            lines.insert(i, "")
        elif edit == "crlf":
            lines[i] += "\r"
        elif edit == "drop token":
            lines[i] = lines[i].rsplit(" ", 1)[0]
        elif edit == "add token":
            lines[i] += " 9"
        elif i + 1 < len(lines):
            lines[i : i + 2] = [lines[i] + " " + lines[i + 1]]
    return "\n".join(lines) + draw(st.sampled_from(["\n", ""]))


@settings(max_examples=300, deadline=None, database=None)
@given(line_texts())
def test_fuzz_arbitrary_lines(text):
    assert_agree(text)


@settings(max_examples=300, deadline=None, database=None)
@given(near_canonical_texts())
def test_fuzz_near_canonical(text):
    assert_agree(text)
