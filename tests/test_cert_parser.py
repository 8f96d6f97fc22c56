"""The certificate path against the code it replaced.

``parse_certificate_text`` tries a bulk path first and falls back to the
line scanner. On every text the two must agree: the same edge ids, or the
same exception type with the same message.

``reference_matching`` is the ordered loop ``Matching.__init__`` ran before
its one-pass disjointness check, and ``reference_certificate_text`` is the
per-edge writer that ``write_certificate_text`` replaced. The library must
give the same matchings, the same error texts and the same bytes.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from connmatch import fileio
from connmatch.fileio import _parse_certificate_bulk, _parse_certificate_lines, parse_certificate_text
from connmatch.graphs import GraphError, Matching, WeightedGraph


def outcome(parse, text, g):
    try:
        m = parse(text, g)
    except Exception as exc:  # the type and the message are compared
        return type(exc), str(exc)
    return m.edge_ids


def assert_agree(text, g):
    want = outcome(_parse_certificate_lines, text, g)
    assert outcome(parse_certificate_text, text, g) == want
    bulk = _parse_certificate_bulk(text, g)
    if bulk is not None:
        assert bulk.edge_ids == want
    return bulk is not None


# 1-based pairs, listed in an order whose lo*n+hi keys do not increase and
# partly with the larger endpoint first.
PAIRS = [(6, 1), (2, 3), (10, 1), (3, 4), (1, 2), (5, 2), (4, 5), (12, 11), (5, 6), (3, 7)]
G = WeightedGraph(12, [(u - 1, v - 1, 10 * i - 30) for i, (u, v) in enumerate(PAIRS)])
G0 = WeightedGraph(0, [])
HUGE = WeightedGraph(10**12, [(0, 1, 4), (2, 10**12 - 1, 5)])

CASES = {
    "canonical": (G, "m 1 2\nm 3 4\nm 5 6\n"),
    "one edge": (G, "m 11 12\n"),
    "empty": (G, ""),
    "no final newline": (G, "m 1 2\nm 3 4"),
    "comment": (G, "c note\nm 1 2\nm 3 4\n"),
    "comment between": (G, "m 1 2\nc note\nm 3 4\n"),
    "blank line": (G, "m 1 2\n\nm 3 4\n"),
    "trailing blank lines": (G, "m 1 2\n\n\n"),
    "crlf": (G, "m 1 2\r\nm 3 4\r\n"),
    "vertical tab lines": (G, "m 1 2\x0bm 3 4\x0b"),
    "vertical tab separator": (G, "m\x0b1 2\nm 3 4\n"),
    "nbsp separator": (G, "m\xa01\xa02\nm 3 4\n"),
    "unicode line separator": (G, "m 1 2\u2028m 3 4\n"),
    "tab separator": (G, "m\t1\t2\n"),
    "double space": (G, "m  1 2\n"),
    "leading space": (G, " m 1 2\n"),
    "bom": (G, "\ufeffm 1 2\n"),
    "reversed pair": (G, "m 2 1\nm 4 3\n"),
    "plus sign": (G, "m +1 2\n"),
    "underscore": (G, "m 1_0 1\n"),
    "arabic digits": (G, "m \u0661 \u0662\n"),
    "fullwidth digits": (G, "m \uff11\uff10 1\n"),
    "float vertex": (G, "m 1.0 2\n"),
    "word vertex": (G, "m a 2\n"),
    "extra token": (G, "m 1 2 3\n"),
    "missing token": (G, "m 1\n"),
    "bare m": (G, "m\n"),
    "two pairs on one line": (G, "m 1 2 m 3 4\n"),
    "tokens shifted between lines": (G, "m 1\n2 m 3 4\n"),
    "m as a vertex": (G, "m 1 2\nm m 3 4\n"),
    "wrong directive": (G, "e 1 2\n"),
    "vertex 0": (G, "m 0 1\n"),
    "vertex n+1": (G, "m 1 2\nm 12 13\n"),
    "negative vertex": (G, "m -1 2\n"),
    "vertex 2**70": (G, f"m 1 {2**70}\n"),
    "self pair": (G, "m 1 2\nm 3 3\n"),
    "non-edge": (G, "m 1 2\nm 3 5\n"),
    "repeated edge": (G, "m 1 2\nm 3 4\nm 1 2\n"),
    "repeated reversed": (G, "m 1 2\nm 2 1\n"),
    "overlapping edges": (G, "m 1 2\nm 2 3\n"),
    "overlap on the second vertex": (G, "m 3 4\nm 5 4\n"),
    "overlap after a comment": (G, "m 1 2\nc x\nm 3 4\nm 4 5\n"),
    "n = 0, empty": (G0, ""),
    "n = 0, a pair": (G0, "m 1 2\n"),
    "n = 0, comment": (G0, "c only\n"),
    "huge n": (HUGE, f"m {10**12} 3\n"),
    "huge n, empty": (HUGE, ""),
    "leading zeros": (G, "m 001 02\nm 3 0004\n"),
    "20-digit vertex": (G, f"m {'0' * 19}1 2\n"),
    "vertex 2**63": (G, f"m 1 {2**63}\n"),
    "double minus": (G, "m --1 2\n"),
    "trailing minus": (G, "m 1- 2\n"),
    "lone minus": (G, "m - 2\n"),
    "lone surrogate": (G, "m 1 \ud800\n"),
}


class TestDifferential:
    @pytest.mark.parametrize("name", sorted(CASES))
    def test_case(self, name):
        g, text = CASES[name]
        assert_agree(text, g)

    @pytest.mark.parametrize(
        "name",
        ["canonical", "one edge", "empty", "no final newline", "reversed pair", "n = 0, empty",
         "leading zeros"],
    )
    def test_bulk_path_taken(self, name):
        g, text = CASES[name]
        assert assert_agree(text, g)

    @pytest.mark.parametrize(
        "name",
        ["plus sign", "underscore", "arabic digits", "fullwidth digits", "20-digit vertex", "vertex 2**63",
         "double minus", "trailing minus", "lone minus"],
    )
    def test_line_scanner_taken(self, name):
        """Tokens outside ASCII ``-?[0-9]{1,19}`` or outside int64 leave the
        bulk path; the line scanner still gives the same outcome."""
        g, text = CASES[name]
        assert _parse_certificate_bulk(text, g) is None
        assert not assert_agree(text, g)

    def test_isolated_vertices_take_the_line_scanner(self):
        g, text = CASES["huge n"]
        assert not assert_agree(text, g)
        assert parse_certificate_text(text, g).edge_ids == (1,)

    @pytest.mark.parametrize(
        "name, message",
        [
            ("repeated edge", "line 3: edge (1, 2) repeats line 1"),
            ("repeated reversed", "line 2: edge (2, 1) repeats line 1"),
            ("overlapping edges", "line 2: edge (2, 3) shares vertex 2 with line 1"),
            ("overlap on the second vertex", "line 2: edge (5, 4) shares vertex 4 with line 1"),
            ("overlap after a comment", "line 4: edge (4, 5) shares vertex 4 with line 3"),
            ("non-edge", "line 2: edge (3, 5) is not in the graph"),
            ("vertex n+1", "line 2: vertex out of range 1..12"),
            ("self pair", "line 2: edge (3, 3) is not in the graph"),
        ],
    )
    def test_messages_name_lines(self, name, message):
        g, text = CASES[name]
        assert outcome(parse_certificate_text, text, g) == (fileio.FormatError, message)


TOKENS = st.sampled_from(
    ["m", "m", "c", "x", "0", "1", "2", "3", "4", "5", "6", "7", "+2", "1_0", "\u0663", "-1", "007", "-0", "--1",
     "1-", str(10**19)]
)
SEPARATORS = st.sampled_from(["  ", "\t", "\xa0", "\x0b", "\n", "\u2028"])
LINE_ENDS = st.sampled_from(["\r\n", "\r", " ", "\x0b", "\n\n", ""])
EDITS = st.sampled_from(["pair", "tokens", "separator", "line end", "repeat", "reverse", "drop token"])


@st.composite
def certificate_texts(draw):
    """Matchings of a dense graph in the writer's layout, with a few edits:
    mostly the bulk path, and every kind of fallback."""
    perm = draw(st.permutations(range(7)))
    lines = [f"m {perm[2 * i] + 1} {perm[2 * i + 1] + 1}" for i in range(draw(st.integers(0, 3)))]
    ends = ["\n"] * len(lines)
    for _ in range(draw(st.integers(0, 2))):
        edit = draw(EDITS)
        if edit in ("pair", "tokens") or not lines:
            i = draw(st.integers(0, len(lines)))
            if edit == "tokens":
                line = " ".join(draw(st.lists(TOKENS, max_size=5)))
            else:
                line = f"m {draw(st.integers(0, 8))} {draw(st.integers(0, 8))}"
            lines.insert(i, line)
            ends.insert(i, "\n")
            continue
        i = draw(st.integers(0, len(lines) - 1))
        if edit == "separator":
            lines[i] = lines[i].replace(" ", draw(SEPARATORS), 1)
        elif edit == "line end":
            ends[i] = draw(LINE_ENDS)
        elif edit == "repeat":
            lines.insert(draw(st.integers(0, len(lines))), lines[i])
            ends.append("\n")
        elif edit == "reverse":
            toks = lines[i].split(" ")
            lines[i] = " ".join(toks[:1] + toks[:0:-1])
        else:
            lines[i] = lines[i].rsplit(" ", 1)[0]
    if lines and draw(st.booleans()):
        ends[-1] = ""
    return "".join(map(str.__add__, lines, ends))


DENSE = WeightedGraph(7, [(u, v, u - v) for u in range(7) for v in range(u) if (u + 2 * v) % 5])


@settings(max_examples=500, deadline=None, database=None)
@given(certificate_texts())
def test_fuzz(text):
    assert_agree(text, DENSE)


# ---------------------------------------------------------------------------
# Matching and the writer against the code they replaced


def reference_matching(g: WeightedGraph, edge_ids):
    ids = tuple(sorted(set(edge_ids)))
    saturated: set[int] = set()
    total = 0
    m, lo, hi, ws = g.m, g.lo, g.hi, g.weights
    for eid in ids:
        if not (0 <= eid < m):
            raise GraphError(f"matching references unknown edge id {eid}")
        u = lo[eid]
        v = hi[eid]
        if u in saturated or v in saturated:
            raise GraphError(f"edges share endpoint at edge id {eid}")
        saturated.add(u)
        saturated.add(v)
        total += ws[eid]
    return ids, total, frozenset(saturated)


def reference_certificate_text(m: Matching) -> str:
    out = []
    for u, v in sorted(m.edge_pairs()):
        out.append(f"m {u + 1} {v + 1}")
    return "\n".join(out) + ("\n" if out else "")


def matching_outcome(build, g, edge_ids):
    try:
        got = build(g, edge_ids)
    except Exception as exc:  # the type and the message are compared
        return type(exc), str(exc)
    if isinstance(got, Matching):
        return got.edge_ids, got.weight, got.vertices
    return got


def shuffled_graph(rng: random.Random) -> WeightedGraph:
    """A random graph whose edge list is shuffled, with endpoints in random
    order, so ``lo * n + hi`` does not increase along the edge ids."""
    n = rng.randint(2, 30)
    pairs = {tuple(sorted(rng.sample(range(n), 2))) for _ in range(rng.randint(1, 3 * n))}
    edges = [(u, v, rng.randint(-(2**40), 2**40)) if rng.random() < 0.5 else (v, u, rng.randint(-9, 9))
             for u, v in pairs]
    rng.shuffle(edges)
    return WeightedGraph(n, edges)


def random_id_list(rng: random.Random, g: WeightedGraph) -> list[int]:
    """Edge ids of a matching, unsorted, some listed twice."""
    used = set()
    ids = []
    for e in rng.sample(range(g.m), g.m):
        u, v = g.endpoints(e)
        if u not in used and v not in used and rng.random() < 0.7:
            used.update((u, v))
            ids.append(e)
    return ids + rng.sample(ids, min(len(ids), rng.randint(0, 2)))


def invalid_id_lists(rng: random.Random, g: WeightedGraph, ids: list[int]):
    yield ids + [g.m]
    yield [g.m + 3] + ids
    yield ids + [-1]
    yield [-5, *ids, g.m]
    for v in range(g.n):
        touching = [e for e in range(g.m) if v in g.endpoints(e)]
        if len(touching) >= 2:
            yield rng.sample(touching, 2) + ids
            break
    if ids:
        e = ids[0]
        others = [f for f in range(g.m) if f != e and set(g.endpoints(f)) & set(g.endpoints(e))]
        if others:
            yield ids + [rng.choice(others)]


class TestMatchingAndWriterReference:
    def test_random_graphs(self):
        rng = random.Random(5)
        unsorted = bulk = 0
        for _ in range(200):
            g = shuffled_graph(rng)
            keys = [u * g.n + v for u, v in zip(g.lo, g.hi)]
            unsorted += keys != sorted(keys)
            ids = random_id_list(rng, g)
            assert matching_outcome(Matching, g, ids) == matching_outcome(reference_matching, g, ids)
            for bad in invalid_id_lists(rng, g, ids):
                want = matching_outcome(reference_matching, g, bad)
                assert want[0] is GraphError
                assert matching_outcome(Matching, g, bad) == want
            m = Matching(g, ids)
            text = fileio.write_certificate_text(m)
            assert text == reference_certificate_text(m)
            back = parse_certificate_text(text, g)
            assert back.edge_ids == m.edge_ids
            assert fileio.write_certificate_text(back) == text
            bulk += _parse_certificate_bulk(text, g) is not None
        assert unsorted > 150 and bulk > 100

    def test_empty_matching(self):
        for g in (G, G0):
            m = Matching(g, [])
            assert (m.edge_ids, m.weight, m.vertices) == ((), 0, frozenset())
            assert fileio.write_certificate_text(m) == "" == reference_certificate_text(m)
            assert parse_certificate_text("", g).edge_ids == ()

    def test_huge_n_writer(self):
        m = Matching(HUGE, [1, 0])
        assert fileio.write_certificate_text(m) == reference_certificate_text(m) == f"m 1 2\nm 3 {10**12}\n"

    def test_array_ids_match_the_list_form(self):
        """Ids given as an int64 array: the same matching, the same errors,
        repeats dropped, on graphs built from tuples and from arrays."""
        import numpy as np

        rng = random.Random(6)
        for _ in range(150):
            g = shuffled_graph(rng)
            h = WeightedGraph.from_columns(g.n, *(np.array(c, dtype=np.int64) for c in (g.lo, g.hi, g.weights)))
            ids = random_id_list(rng, g)
            want = matching_outcome(reference_matching, g, ids)
            for graph in (g, h):
                assert matching_outcome(Matching, graph, np.array(ids, dtype=np.int64)) == want
                assert matching_outcome(Matching, graph, ids) == want
                for bad in invalid_id_lists(rng, g, ids):
                    assert matching_outcome(Matching, graph, np.array(bad, dtype=np.int64)) == matching_outcome(
                        reference_matching, g, bad
                    )
            m = Matching(h, np.array(ids, dtype=np.int64))
            assert m.edge_id_array().tolist() == list(m.edge_ids)
            assert m == Matching(g, ids) and len(m) == len(set(ids))
            assert fileio.write_certificate_text(m) == reference_certificate_text(m)

    def test_array_ids_keep_the_weight_exact(self):
        import numpy as np

        for w in (2**63 - 1, -(2**63)):
            cols = (np.array(c, dtype=np.int64) for c in ([0, 2, 4], [1, 3, 5], [w] * 3))
            g = WeightedGraph.from_columns(6, *cols)
            m = Matching(g, np.array([2, 0, 1, 2], dtype=np.int64))
            assert (m.edge_ids, m.weight, m.vertices) == ((0, 1, 2), 3 * w, frozenset(range(6)))
        # weights past int64 exist only on graphs built from Python ints
        g = WeightedGraph(4, [(0, 1, 2**64), (2, 3, -1)])
        assert g.weight_array() is None
        assert Matching(g, np.array([1, 0], dtype=np.int64)).weight == 2**64 - 1
        # another dtype takes the path of Python ints
        assert Matching(g, np.array([1], dtype=np.int32)).edge_ids == (1,)

    def test_writer_at_every_power_of_ten(self, tmp_path):
        """1-based ids 10**k - 1, 10**k and 10**k + 1 for k = 1..18, each
        beside a 19-digit partner, against the per-edge writer."""
        n = 10**18 + 40
        edges = [(10**k - 2, 10**k - 1, k) for k in range(1, 19)]
        edges += [(10**k, 10**18 + k, -k) for k in range(1, 19)]
        edges += [(0, 1, 0), (2, 3, 0)]
        g = WeightedGraph(n, edges)
        m = Matching(g, range(g.m))
        text = fileio.write_certificate_text(m)
        assert text == reference_certificate_text(m)
        assert "m 999999999999999999 1000000000000000000\n" in text
        assert "m 1000000000000000001 1000000000000000019\n" in text
        assert parse_certificate_text(text, g) == m
        fileio.write_certificate(m, tmp_path / "c.cert")
        assert (tmp_path / "c.cert").read_bytes() == text.encode("ascii")
