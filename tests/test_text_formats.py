"""Every text format, read and written: pinned corpora, round trips and fuzz.

* A seeded corpus of valid texts per format, laid out with comments, blank
  lines, extra spaces, ``\\r\\n`` ends and directives in any order the
  format allows, is parsed and written back (or, for Steiner and set cover,
  which have no writer, shown with ``repr``). The sha256 of those outputs is
  pinned, so a parser change that reads any valid text differently fails.
* Writing, parsing and writing again gives the same bytes, for every format
  that has a writer.
* Every parser either returns or raises a :class:`GraphError` subclass on
  arbitrary line-structured text, and a header count of 10**12 is refused
  at once, with nothing allocated for it.

``python tests/test_text_formats.py`` prints the digest table for the
current code.
"""

from __future__ import annotations

import hashlib
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from connmatch import fileio
from connmatch.graphs import GraphError, Matching, VertexWeightedGraph, WeightedGraph
from connmatch.reductions import Cnf
from connmatch.treedecomp import TreeDecomposition

CORPUS = 120  # texts per format
INT64 = 2**63 - 1


def _layout(rng: random.Random, lines: list[str]) -> str:
    """``lines`` with comment and blank lines mixed in, tokens split by runs
    of blanks, and ``\\n`` or ``\\r\\n`` line ends."""
    out = []
    for line in lines:
        while rng.random() < 0.15:
            out.append(rng.choice(["c a comment", "", "   ", "c"]))
        if rng.random() < 0.2:
            line = "  " + line.replace(" ", rng.choice(["  ", "\t", " \t "])) + " "
        out.append(line)
    end = rng.choice(["\n", "\r\n"])
    return end.join(out) + rng.choice([end, ""])


def _headed(rng: random.Random, header: str, body: list[str]) -> str:
    rng.shuffle(body)
    return _layout(rng, [header] + body)


def _pairs(rng: random.Random, n: int, m: int) -> list[tuple[int, int]]:
    """Up to m distinct vertex pairs of 0..n-1, each in a random orientation."""
    pairs = {tuple(sorted(rng.sample(range(n), 2))) for _ in range(m)} if n >= 2 else set()
    return [(u, v) if rng.random() < 0.5 else (v, u) for u, v in sorted(pairs)]


def _weight(rng: random.Random) -> int:
    return rng.choice([rng.randint(-9, 9), rng.randint(-INT64 - 1, INT64), INT64, -INT64 - 1])


def _graph(rng: random.Random) -> WeightedGraph:
    n = rng.randint(0, 14)
    return WeightedGraph(n, [(u, v, _weight(rng)) for u, v in _pairs(rng, n, rng.randint(0, 2 * n))])


def _matching(rng: random.Random, g: WeightedGraph) -> Matching:
    used, ids = set(), []
    for eid in rng.sample(range(g.m), g.m):
        u, v, _ = g.edges[eid]
        if u not in used and v not in used and rng.random() < 0.6:
            used |= {u, v}
            ids.append(eid)
    return Matching(g, ids)


def _gr_bulk(rng):
    return fileio.write_graph_text(fileio.parse_graph_text(fileio.write_graph_text(_graph(rng))))


def _gr_lines(rng):
    g = _graph(rng)
    body = [f"e {u + 1} {v + 1} {w}" if rng.random() < 0.5 else f"e {v + 1} {u + 1} {w}" for u, v, w in g.edges]
    return fileio.write_graph_text(fileio.parse_graph_text(_headed(rng, f"p wcm {g.n} {g.m}", body)))


def _cnf(rng):
    nvars = rng.randint(1, 8)
    clauses = [
        [rng.choice([-1, 1]) * rng.randint(1, nvars) for _ in range(rng.randint(1, 4))]
        for _ in range(rng.randint(0, 8))
    ]
    tokens = [str(lit) for clause in clauses for lit in clause + [0]]
    lines, i = [], 0
    while i < len(tokens):  # clauses run across lines and share them
        j = i + rng.randint(1, 6)
        lines.append(" ".join(tokens[i:j]))
        i = j
    return fileio.write_cnf_text(fileio.parse_cnf_text(_layout(rng, [f"p cnf {nvars} {len(clauses)}"] + lines)))


def _steiner(rng):
    n = rng.randint(1, 12)
    edges = _pairs(rng, n, rng.randint(0, 2 * n))
    body = [f"e {u + 1} {v + 1}" for u, v in edges]
    body += [f"t {rng.randint(1, n)}" for _ in range(rng.randint(0, 4))]
    body.append(f"k {rng.randint(-2, 20)}")
    return repr(fileio.parse_steiner_text(_headed(rng, f"p steiner {n} {len(edges)}", body)))


def _setcover(rng):
    q = rng.randint(1, 10)
    sets = [rng.sample(range(1, q + 1), rng.randint(1, q)) for _ in range(rng.randint(0, 5))]
    sets.append(rng.sample(range(1, q + 1), q))  # covers every element
    body = ["s " + " ".join(map(str, s)) for s in sets] + [f"k {rng.randint(0, 6)}"]
    return repr(fileio.parse_setcover_text(_headed(rng, f"p setcover {q} {len(sets)}", body)))


def _wcs(rng):
    n = rng.randint(0, 12)
    edges = _pairs(rng, n, rng.randint(0, 2 * n))
    body = [f"v {v + 1} {_weight(rng)}" for v in range(n)] + [f"e {u + 1} {v + 1}" for u, v in edges]
    return fileio.write_wcs_text(fileio.parse_wcs_text(_headed(rng, f"p wcs {n} {len(edges)}", body)))


def _td(rng):
    n = rng.randint(1, 12)
    bags = [rng.sample(range(1, n + 1), rng.randint(0, min(n, 5))) for _ in range(rng.randint(1, 8))]
    tree = [(rng.randint(1, i), i + 1) for i in range(1, len(bags))]
    body = ["b " + " ".join(map(str, [i] + bag)) for i, bag in enumerate(bags, start=1)]
    body += [f"{i} {j}" if rng.random() < 0.5 else f"{j} {i}" for i, j in tree]
    header = f"s td {len(bags)} {max(map(len, bags)) + rng.randint(0, 1)} {n}"
    return fileio.write_td_text(fileio.parse_td_text(_headed(rng, header, body)), n)


def _certificate(rng):
    g = _graph(rng)
    m = _matching(rng, g)
    if rng.random() < 0.5:
        text = fileio.write_certificate_text(m)
    else:
        pairs = [g.edges[eid][:2] for eid in m.edge_ids]
        body = [f"m {u + 1} {v + 1}" if rng.random() < 0.5 else f"m {v + 1} {u + 1}" for u, v in pairs]
        rng.shuffle(body)
        text = _layout(rng, body)
    return fileio.write_certificate_text(fileio.parse_certificate_text(text, g))


def _id_lists(rng, tag, high):
    """``tag <ids...>`` lines of 1-based ids up to ``high``, repeats allowed."""
    return [
        " ".join([tag] + [str(rng.randint(1, high)) for _ in range(rng.randint(0, 5))])
        for _ in range(rng.randint(1, 3))
    ]


def _vertex_set(rng):
    n = rng.randint(1, 12)
    g = VertexWeightedGraph(n, [], [0] * n)
    return fileio.write_vertex_set_text(fileio.parse_vertex_set_text(_layout(rng, _id_lists(rng, "v", n)), g))


def _family(rng):
    return fileio.write_family_text(fileio.parse_family_text(_layout(rng, _id_lists(rng, "s", 30))))


def _assignment(rng):
    lines = ["a " + " ".join(rng.choice("01") for _ in range(rng.randint(0, 9)))]
    if rng.random() < 0.6:
        lines.insert(rng.randint(0, 1), f"i {rng.randint(1, 9)}")
    return fileio.write_assignment_text(*fileio.parse_assignment_text(_layout(rng, lines)))


def _tree_solution(rng):
    body = [f"e {rng.randint(1, 40)} {rng.randint(1, 40)}" for _ in range(rng.randint(0, 8))]
    return fileio.write_tree_solution_text(fileio.parse_tree_solution_text(_layout(rng, body)))


def _map(rng):
    ids = rng.sample(range(1, 60), rng.randint(0, 10))
    labels = ["h+", "x.1*", "c.2-", "vw.3.4", "cyc.2.7", "q", "y.1"]
    body = [f"map {v} {rng.choice(labels)}" for v in ids]
    return fileio.write_map_text(fileio.parse_map_text(_layout(rng, body)))


CORPORA = {
    "gr-bulk": _gr_bulk,
    "gr-lines": _gr_lines,
    "cnf": _cnf,
    "steiner": _steiner,
    "setcover": _setcover,
    "wcs": _wcs,
    "td": _td,
    "certificate": _certificate,
    "vertex-set": _vertex_set,
    "family": _family,
    "assignment": _assignment,
    "tree-solution": _tree_solution,
    "map": _map,
}


def corpus_digest(name: str) -> str:
    rng = random.Random(f"{name}-corpus")
    outputs = [CORPORA[name](rng) for _ in range(CORPUS)]
    return hashlib.sha256("\x00".join(outputs).encode()).hexdigest()


DIGESTS = {
    'gr-bulk': '49f444a075feb007c4be70819de7945ed6eda7f9f2bea965c0a27a500fb5a24a',
    'gr-lines': 'a5363fc1c3019e1f29280f832fdd104812fabd4b881210582ae571e55dbdf250',
    'cnf': 'd9fb8a79a05d11d15112e315a737ed14090e894dcf71e3a9000d718fb6f3fc17',
    'steiner': '35b0a20a9083c24fb5466b7ea16686d3ae711be6087a3e9d089f45252e532cd0',
    'setcover': 'afdd2b6c1bde52ccdb1057a416593d8c00e1ce8a20158c4904ef33077685bfca',
    'wcs': '1fa847308a24e3aa854a2fd91d947d70d7bc6e0b6ad8665a136b350668789c70',
    'td': '44458845fb88f5a0db9e1dc01b2887f382eca8b4d4c8e2a5621abb84537ab813',
    'certificate': '17bf3c16f065598abc494a567c63a51000db861551775b5f4da007b87e3234b5',
    'vertex-set': '63ed57fae3f7a881db1ac620f74ae4d8215401360b440763476dcb677832ec2c',
    'family': 'c18a521b93cfd038a2370991d2a0cf43d0d409db832216d4d1b00abf0ee0bcc7',
    'assignment': '8d00965763dfc012b0f68d1dcbd82cf147eeb570150b1f4dbd04a90b32fe28a8',
    'tree-solution': '4bb428bb3684a810ac1bf58cce5f293dafabc7e69a12ba640900a5d2fd59a6a1',
    'map': 'ada05153992b66324df0aaa90a202a25678cf63badb645d67dd91fe31833f0a5',
}


@pytest.mark.parametrize("name", sorted(CORPORA))
def test_valid_corpus_reads_as_pinned(name):
    assert corpus_digest(name) == DIGESTS[name]


def _cnf_object(rng):
    nvars = rng.randint(0, 8)
    clauses = [
        [rng.choice([-1, 1]) * rng.randint(1, nvars) for _ in range(rng.randint(1, 4))]
        for _ in range(rng.randint(0, 6) if nvars else 0)
    ]
    return Cnf.build(nvars, clauses)


def _wcs_object(rng):
    n = rng.randint(0, 12)
    return VertexWeightedGraph(n, _pairs(rng, n, rng.randint(0, 2 * n)), [_weight(rng) for _ in range(n)])


def _td_object(rng):
    n = rng.randint(1, 12)
    bags = [rng.sample(range(n), rng.randint(0, min(n, 5))) for _ in range(rng.randint(1, 8))]
    return TreeDecomposition.build(bags, [(rng.randrange(i), i) for i in range(1, len(bags))]), n


def _ids(rng, high=40):
    return frozenset(rng.randrange(high) for _ in range(rng.randint(0, 6)))


# name -> (random object, writer, parser given the text and the object)
ROUND_TRIPS = {
    "gr-bulk": (_graph, fileio.write_graph_text, lambda t, g: fileio.parse_graph_text(t)),
    "gr-lines": (_graph, fileio.write_graph_text, lambda t, g: fileio._parse_graph_lines(t)),
    "cnf": (_cnf_object, fileio.write_cnf_text, lambda t, f: fileio.parse_cnf_text(t)),
    "wcs": (_wcs_object, fileio.write_wcs_text, lambda t, g: fileio.parse_wcs_text(t)),
    "td": (_td_object, lambda o: fileio.write_td_text(*o), lambda t, o: (fileio.parse_td_text(t), o[1])),
    "certificate": (
        lambda rng: _matching(rng, _graph(rng)),
        fileio.write_certificate_text,
        lambda t, m: fileio.parse_certificate_text(t, m.graph),
    ),
    "vertex-set": (
        lambda rng: _ids(rng, 12),
        fileio.write_vertex_set_text,
        lambda t, s: fileio.parse_vertex_set_text(t, VertexWeightedGraph(12, [], [0] * 12)),
    ),
    "assignment": (
        lambda rng: (tuple(rng.random() < 0.5 for _ in range(rng.randint(0, 9))), rng.choice([None, 1, 7])),
        lambda o: fileio.write_assignment_text(*o),
        lambda t, o: fileio.parse_assignment_text(t),
    ),
    "tree-solution": (
        lambda rng: _pairs(rng, 12, rng.randint(0, 8)),
        fileio.write_tree_solution_text,
        lambda t, e: fileio.parse_tree_solution_text(t),
    ),
    "family": (_ids, fileio.write_family_text, lambda t, s: fileio.parse_family_text(t)),
    "map": (
        lambda rng: {v: rng.choice(["h+", "x.1*", "vw.3.4"]) for v in _ids(rng)},
        fileio.write_map_text,
        lambda t, labels: fileio.parse_map_text(t),
    ),
}


@pytest.mark.parametrize("name", sorted(ROUND_TRIPS))
@settings(max_examples=30, derandomize=True, database=None, deadline=None)
@given(rng=st.randoms(use_true_random=False))
def test_write_parse_write_is_byte_stable(name, rng):
    make, write, parse = ROUND_TRIPS[name]
    obj = make(rng)
    text = write(obj)
    assert write(parse(text, obj)) == text


_G = WeightedGraph(4, [(0, 1, 5), (1, 2, -1), (2, 3, 2)])
PARSERS = [
    fileio.parse_graph_text,
    fileio.parse_cnf_text,
    fileio.parse_steiner_text,
    fileio.parse_setcover_text,
    fileio.parse_wcs_text,
    fileio.parse_td_text,
    lambda t: fileio.parse_certificate_text(t, _G),
    lambda t: fileio.parse_vertex_set_text(t, VertexWeightedGraph(3, [(0, 1)], [1, 2, 3])),
    fileio.parse_assignment_text,
    fileio.parse_tree_solution_text,
    fileio.parse_family_text,
    fileio.parse_map_text,
]
HEADERS = st.sampled_from(["p wcm", "p cnf", "p steiner", "p setcover", "p wcs", "s td", "p", "s"])
TAGS = st.sampled_from(["e", "v", "t", "k", "s", "b", "m", "map", "a", "i", "p", "c", "x", "1", "2"])
NUMBERS = st.sampled_from(
    ["0", "1", "2", "3", "4", "-1", "1", "2", "10", str(10**12), str(2**63), "1.5", "+2", "x.1+", "\u0663"]
)


@st.composite
def line_texts(draw):
    """A header of any format (or none) with a few counts, then lines of a
    tag and small, negative, huge or malformed numbers."""
    lines = []
    if draw(st.booleans()):
        lines.append(" ".join([draw(HEADERS)] + draw(st.lists(NUMBERS, max_size=4))))
    for _ in range(draw(st.integers(0, 6))):
        lines.append(" ".join([draw(TAGS)] + draw(st.lists(NUMBERS, max_size=4))))
    return "\n".join(lines) + "\n"


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(line_texts())
def test_every_parser_returns_or_raises_a_graph_error(text):
    for parse in PARSERS:
        try:
            parse(text)
        except GraphError:
            pass


@pytest.mark.parametrize(
    "parse, text, message",
    [
        (fileio.parse_wcs_text, "p wcs 1000000000000 0\n", "^vertex 1 has no weight line$"),
        (
            fileio.parse_setcover_text,
            "p setcover 1000000000000 1\ns 1\nk 1\n",
            "^element 2 is covered by no set$",
        ),
        (fileio.parse_td_text, "s td 1000000000000 2 3\nb 1 1 2\n", "^bag 2 has no 'b' line$"),
    ],
    ids=["wcs", "setcover", "td"],
)
def test_huge_header_count_is_refused_at_once(parse, text, message):
    start = time.perf_counter()
    with pytest.raises(GraphError, match=message):
        parse(text)
    assert time.perf_counter() - start < 1.0


if __name__ == "__main__":  # print the digest table for the current code
    for name in CORPORA:
        print(f"    {name!r}: {corpus_digest(name)!r},")
