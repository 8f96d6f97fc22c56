"""Plain-text file formats.

All formats are newline-delimited UTF-8 with ``c``-prefixed comment lines
and 1-based vertex ids externally (0-based in memory):

* graphs (``.gr``): ``p wcm <n> <m>`` then exactly m lines ``e <u> <v> <w>``
* CNF (DIMACS): ``p cnf <vars> <clauses>``, clauses 0-terminated
* Steiner: ``p steiner <n> <m>``, ``e u v``, ``t v``, ``k <int>``
* set cover: ``p setcover <q> <p>``, ``s <elements...>``, ``k <int>``
* vertex-weighted graphs (``.wcs``): ``p wcs <n> <m>``, ``v <id> <w>``, ``e u v``
* tree decompositions (``.td``, PACE style): ``s td <bags> <width+1> <n>``,
  ``b <id> <vertices...>``, then bag-tree edge lines ``<i> <j>``
* matching certificates: ``m <u> <v>`` lines
* label maps: ``map <id> <label>`` lines

Parsers report the offending line number; writers emit canonical output
(sorted edge lists) so a parse/write round trip is byte-stable. The line
scanners share one copy of each line check: the header (first, once, with
non-negative counts), a 1-based id in range, an edge line (arity, range,
self-loop, repeated pair) and a line that may appear once.

Graphs and certificates laid out exactly as the writers lay them out take
a bulk path. ``parse_graph`` and ``parse_certificate`` hand it the file's
bytes, and decode them only when the line scanner has to read the text.
One numpy tokenizer serves both: it works on the bytes of an ASCII text
(any other text falls back at once), takes the positions of the space and
``\n`` bytes, checks from them that every row is ``e <u> <v> <w>`` (after
the ``p wcm <n> <m>`` header) or ``m <u> <v>`` with single spaces and a
``\n`` after each row (optional after the last), then parses every token
at once by Horner steps over its digit positions. A token is taken only in
the ASCII form ``-?[0-9]{1,19}`` and within the signed 64-bit range;
magnitudes add up in uint64, so -2**63 parses too.

A graph is then built straight from the int64 columns
(:meth:`WeightedGraph.from_columns`). A certificate must not list an edge
twice or two edges that share a vertex; on the bulk path one sort of its
endpoints proves that no vertex is listed twice, then a partner table
indexed by vertex finds every listed edge in one pass over the graph's
endpoint arrays, and the edge ids come out sorted.

On any doubt (another layout, comments, blank lines, ``\r``, a token such
as ``+1``, ``1_0``, non-ASCII digits or more than 19 digits, a value out of
range, a vertex listed twice, a pair that is not an edge, a certificate for
a graph with isolated vertices) the line scanner reads the text instead. It
gives the same graph or matching, or the same error with its line number.
The certificate writer sorts the matched edges on the endpoint arrays and
writes the digits of all of them into one byte buffer.
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING, Union

from .graphs import GraphError, Matching, VertexWeightedGraph, WeightedGraph
from .treedecomp import TreeDecomposition

if TYPE_CHECKING:  # the parsers below import them when they build one
    from .reductions import Cnf, SetCoverInstance, SteinerInstance

_INT64_MIN = -(2**63)
_INT64_MAX = 2**63 - 1


class FormatError(GraphError):
    """Malformed input file; the message carries the line number."""


def _lines(text: str):
    for no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        yield no, line.split()


def _int(tok: str, no: int, what: str = "integer") -> int:
    try:
        return int(tok)
    except ValueError:
        raise FormatError(f"line {no}: expected {what}, got {tok!r}") from None


def _header(toks, no: int, usage: str, names) -> list[int]:
    """The counts of the header line ``toks``, which must match ``usage``
    (such as ``'p wcm <n> <m>'``); ``names`` names the counts in order."""
    words = usage.split()
    if len(toks) != len(words) or toks[:2] != words[:2]:
        raise FormatError(f"line {no}: expected '{usage}'")
    counts = [_int(tok, no) for tok in toks[2:]]
    for name, count in zip(names, counts):
        if count < 0:
            raise FormatError(f"line {no}: {name} count must be non-negative")
    return counts


def _headed_lines(text: str, usage: str, names):
    """The header's counts, its line number and the ``(no, tokens)`` of the
    lines after it. The first line that is neither blank nor a comment must
    be the header ``usage``, and no later line may start with the header's
    tag."""
    lines = _lines(text)
    for no, toks in lines:
        return _header(toks, no, usage, names), no, _after_header(lines, toks[0])
    raise FormatError(f"missing '{' '.join(usage.split()[:2])}' header")


def _after_header(lines, tag: str):
    for no, toks in lines:
        if toks[0] == tag:
            raise FormatError(f"line {no}: duplicate header")
        yield no, toks


def _announced(head: int, count: int, got: int, what: str) -> None:
    """Check ``got``, the number of ``what`` read, against the ``count`` the
    header on line ``head`` announced."""
    if got != count:
        raise FormatError(f"line {head}: header announces {count} {what}, file has {got}")


def _id(tok: str, no: int, n: int, what: str) -> int:
    """The 0-based index of the 1-based id ``tok``, which must lie in 1..n."""
    x = _int(tok, no)
    if not 1 <= x <= n:
        raise FormatError(f"line {no}: {what} {x} out of range 1..{n}")
    return x - 1


def _edge_line(toks, no: int, n: int, usage: str, seen=None) -> tuple:
    """The ints of an edge line ``toks`` of the form ``usage`` (such as
    ``'e <u> <v> <w>'``), with ``u`` and ``v`` in 1..n made 0-based. Given
    ``seen``, a dict from each vertex pair read so far to its line, a
    self-loop or a pair read before is an error too."""
    words = usage.split()
    if toks[0] != words[0] or len(toks) != len(words):
        raise FormatError(f"line {no}: expected '{usage}'")
    u, v, *rest = [_int(t, no) for t in toks[1:]]
    if not (1 <= u <= n and 1 <= v <= n):
        raise FormatError(f"line {no}: vertex out of range 1..{n}")
    if seen is not None:
        if u == v:
            raise FormatError(f"line {no}: self-loop at vertex {u}")
        key = (min(u, v), max(u, v))
        if key in seen:
            raise FormatError(f"line {no}: duplicate edge ({u}, {v}), first on line {seen[key]}")
        seen[key] = no
    return (u - 1, v - 1, *rest)


def _weight(w: int, no: int) -> int:
    if not (_INT64_MIN <= w <= _INT64_MAX):
        raise FormatError(f"line {no}: weight outside the signed 64-bit range")
    return w


def _once(prev, toks, no: int) -> None:
    """Reject a second line with the tag of ``toks``; ``prev`` is what the
    first one gave, or None."""
    if prev is not None:
        raise FormatError(f"line {no}: duplicate '{toks[0]}' line")


def _single_int(prev, toks, no: int, usage: str) -> int:
    """The int of a line ``toks`` of the form ``usage`` (such as
    ``'k <budget>'``) that may appear once; ``prev`` as for :func:`_once`."""
    _once(prev, toks, no)
    if len(toks) != 2:
        raise FormatError(f"line {no}: expected '{usage}'")
    return _int(toks[1], no)


def _decode(data: bytes) -> str:
    """``data`` as UTF-8 text; bytes that are not UTF-8 raise
    :class:`FormatError` naming the line they sit on."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise FormatError(f"line {line}: file is not valid UTF-8") from None


def read_text(path) -> str:
    """The file's text; bytes that are not UTF-8 raise :class:`FormatError`
    naming the line they sit on."""
    return _decode(Path(path).read_bytes())


def _ascii_bytes(text):
    """The bytes of an ASCII ``str`` or ``bytes`` text, else None."""
    if not text.isascii():
        return None
    return text if isinstance(text, bytes) else text.encode("ascii")


# ---------------------------------------------------------------------------
# graphs


def parse_graph_text(text: str) -> WeightedGraph:
    g = _parse_graph_bulk(text)
    return g if g is not None else _parse_graph_lines(text)


def _int_rows(data: bytes, start: int, tag: bytes, k: int):
    """The integers of ``data[start:]`` as an ``(rows, k)`` int64 array, if
    every row there is ``<tag> <int> ... <int>`` with k ints, single spaces
    and a ``\n`` after each row (optional after the last) and every int is
    an ASCII ``-?[0-9]{1,19}`` within int64; None otherwise."""
    import numpy as np

    a = np.frombuffer(data, dtype=np.uint8, offset=start)
    if not a.size:
        return np.zeros((0, k), dtype=np.int64)
    if a[-1] != 10:
        a = np.append(a, np.uint8(10))
    # Every byte up to the space is taken for a separator here, so the
    # column checks below also reject tabs, carriage returns and the like.
    seps = np.flatnonzero(a <= 32)
    rows, rest = divmod(seps.size, k + 1)
    if rest:
        return None
    seps = seps.reshape(rows, k + 1)
    ends = seps[:, k]
    starts = np.concatenate(([0], ends[:-1] + 1))
    # With every row end a newline, rows * k spaces are the other separators.
    if not (
        (a[ends] == 10).all()
        and np.count_nonzero(a == 32) == rows * k
        and (seps[:, 0] == starts + 1).all()
        and (a[starts] == ord(tag)).all()
    ):
        return None
    # Token j of a row is the bytes between its separators j and j + 1,
    # with an optional leading minus. The separators and tags hold no
    # digit, so the digits are where they should be iff they are as many
    # as the tokens claim.
    first = seps[:, :k] + 1
    neg = a[first] == 45
    first += neg
    last = np.ascontiguousarray(seps[:, 1:])
    ndig = last - first
    del seps, ends, starts, first
    if not (1 <= ndig.min() and ndig.max() <= 19):
        return None
    digits = a - 48  # uint8: every byte that is not a digit wraps to >= 10
    if np.count_nonzero(digits < 10) != ndig.sum():
        return None
    # Horner steps over the digit positions, right-aligned: a token shorter
    # than the widest reads as zeros before its first digit. Nineteen
    # digits fit in uint64, and so does the magnitude of -2**63.
    mag = np.zeros(ndig.shape, dtype=np.uint64)
    for shift in range(int(ndig.max()), 0, -1):
        digit = digits.take(last - shift, mode="clip")
        digit *= ndig >= shift
        mag *= np.uint64(10)
        mag += digit
    if (mag > np.uint64(_INT64_MAX) + neg).any():
        return None
    np.negative(mag, out=mag, where=neg)
    return mag.view(np.int64)


def _header_int(tok: bytes):
    """``int(tok)`` for a token of the bulk domain ``-?[0-9]{1,19}``, else None."""
    digits = tok[1:] if tok[:1] == b"-" else tok
    return int(tok) if 0 < len(digits) <= 19 and digits.isdigit() else None


def _parse_graph_bulk(text):
    """The graph of a valid ``.gr`` text (``str`` or ``bytes``) in the
    writer's layout; None for any other text, which the line scanner then
    reads or rejects."""
    data = _ascii_bytes(text)
    if data is None or not data.startswith(b"p wcm "):
        return None
    nl = data.find(b"\n")
    if nl < 0:
        nl = len(data)
    head = data[6:nl].split(b" ")
    if len(head) != 2:
        return None
    n, m = map(_header_int, head)
    if n is None or m is None or n < 0 or m < 0:
        return None
    rows = _int_rows(data, min(nl + 1, len(data)), b"e", 3)
    if rows is None or len(rows) != m:
        return None
    try:
        return WeightedGraph.from_columns(n, rows[:, 0] - 1, rows[:, 1] - 1, rows[:, 2])
    except GraphError:
        return None


def _parse_graph_lines(text: str) -> WeightedGraph:
    (n, m), head, lines = _headed_lines(text, "p wcm <n> <m>", ("vertex", "edge"))
    edges = []
    seen = {}
    for no, toks in lines:
        u, v, w = _edge_line(toks, no, n, "e <u> <v> <w>", seen)
        edges.append((u, v, _weight(w, no)))
    _announced(head, m, len(edges), "edges")
    return WeightedGraph(n, edges)


def parse_graph(path) -> WeightedGraph:
    data = Path(path).read_bytes()
    g = _parse_graph_bulk(data)
    return g if g is not None else _parse_graph_lines(_decode(data))


def write_graph_text(g: WeightedGraph) -> str:
    out = [f"p wcm {g.n} {g.m}"]
    for u, v, w in sorted(g.edges):
        out.append(f"e {u + 1} {v + 1} {w}")
    return "\n".join(out) + "\n"


def write_graph(g: WeightedGraph, path) -> None:
    Path(path).write_text(write_graph_text(g), encoding="utf-8")


# ---------------------------------------------------------------------------
# CNF


def parse_cnf_text(text: str) -> Cnf:
    (nvars, nclauses), head, lines = _headed_lines(text, "p cnf <vars> <clauses>", ("variable", "clause"))
    clauses = []
    current = []
    for no, toks in lines:
        for tok in toks:
            lit = _int(tok, no, "literal")
            if lit == 0:
                if not current:
                    raise FormatError(f"line {no}: empty clause")
                clauses.append(tuple(current))
                current = []
            else:
                if abs(lit) > nvars:
                    raise FormatError(f"line {no}: literal {lit} out of range")
                current.append(lit)
    if current:
        raise FormatError("unterminated clause at end of file")
    _announced(head, nclauses, len(clauses), "clauses")
    from .reductions import Cnf

    return Cnf.build(nvars, clauses)


def parse_cnf(path) -> Cnf:
    return parse_cnf_text(read_text(path))


def write_cnf_text(f: Cnf) -> str:
    out = [f"p cnf {f.num_vars} {len(f.clauses)}"]
    for clause in f.clauses:
        out.append(" ".join(str(l) for l in clause) + " 0")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# Steiner


def parse_steiner_text(text: str) -> SteinerInstance:
    (n, m), head, lines = _headed_lines(text, "p steiner <n> <m>", ("vertex", "edge"))
    edges = []
    seen = {}
    terminals = []
    budget = None
    for no, toks in lines:
        kind = toks[0]
        if kind == "e":
            edges.append(_edge_line(toks, no, n, "e <u> <v>", seen))
        elif kind == "t":
            if len(toks) != 2:
                raise FormatError(f"line {no}: expected 't <v>'")
            terminals.append(_id(toks[1], no, n, "terminal"))
        elif kind == "k":
            budget = _single_int(budget, toks, no, "k <budget>")
        else:
            raise FormatError(f"line {no}: unknown directive {kind!r}")
    if budget is None:
        raise FormatError("missing 'k' line")
    _announced(head, m, len(edges), "edges")
    from .reductions import SteinerInstance

    return SteinerInstance.build(n, edges, terminals, budget)


def parse_steiner(path) -> SteinerInstance:
    return parse_steiner_text(read_text(path))


# ---------------------------------------------------------------------------
# set cover


def parse_setcover_text(text: str) -> SetCoverInstance:
    (q, p), head, lines = _headed_lines(text, "p setcover <q> <p>", ("element", "set"))
    sets = []
    budget = None
    for no, toks in lines:
        kind = toks[0]
        if kind == "s":
            sets.append({_id(t, no, q, "element") for t in toks[1:]})
        elif kind == "k":
            budget = _single_int(budget, toks, no, "k <budget>")
        else:
            raise FormatError(f"line {no}: unknown directive {kind!r}")
    if budget is None:
        raise FormatError("missing 'k' line")
    _announced(head, p, len(sets), "sets")
    from .reductions import SetCoverInstance

    return SetCoverInstance.build(q, sets, budget)


def parse_setcover(path) -> SetCoverInstance:
    return parse_setcover_text(read_text(path))


# ---------------------------------------------------------------------------
# vertex-weighted graphs


def parse_wcs_text(text: str) -> VertexWeightedGraph:
    (n, m), head, lines = _headed_lines(text, "p wcs <n> <m>", ("vertex", "edge"))
    weights = {}
    edges = []
    seen = {}
    for no, toks in lines:
        kind = toks[0]
        if kind == "v":
            if len(toks) != 3:
                raise FormatError(f"line {no}: expected 'v <id> <w>'")
            v = _id(toks[1], no, n, "vertex")
            w = _weight(_int(toks[2], no), no)
            if v in weights:
                raise FormatError(f"line {no}: duplicate weight for vertex {v + 1}")
            weights[v] = w
        elif kind == "e":
            edges.append(_edge_line(toks, no, n, "e <u> <v>", seen))
        else:
            raise FormatError(f"line {no}: unknown directive {kind!r}")
    _announced(head, m, len(edges), "edges")
    if len(weights) != n:
        v = next(v for v in range(n) if v not in weights)
        raise FormatError(f"vertex {v + 1} has no weight line")
    return VertexWeightedGraph(n, edges, [weights[v] for v in range(n)])


def parse_wcs(path) -> VertexWeightedGraph:
    return parse_wcs_text(read_text(path))


def write_wcs_text(g: VertexWeightedGraph) -> str:
    out = [f"p wcs {g.n} {len(g.edges)}"]
    for v, w in enumerate(g.vertex_weights):
        out.append(f"v {v + 1} {w}")
    for u, v in sorted(g.edges):
        out.append(f"e {u + 1} {v + 1}")
    return "\n".join(out) + "\n"


def write_wcs(g: VertexWeightedGraph, path) -> None:
    Path(path).write_text(write_wcs_text(g), encoding="utf-8")


# ---------------------------------------------------------------------------
# tree decompositions (PACE 2017 style)


def parse_td_text(text: str) -> TreeDecomposition:
    counts, _, lines = _headed_lines(text, "s td <bags> <width+1> <n>", ("bag", "bag size", "vertex"))
    nbags, size, n = counts
    bags: dict[int, set] = {}
    tree_edges = []
    for no, toks in lines:
        if toks[0] == "b":
            if len(toks) < 2:
                raise FormatError(f"line {no}: expected 'b <id> <vertices...>'")
            i = _id(toks[1], no, nbags, "bag id")
            if i in bags:
                raise FormatError(f"line {no}: duplicate bag {i + 1}")
            bag = {_id(t, no, n, "vertex") for t in toks[2:]}
            if len(bag) > size:
                raise FormatError(f"line {no}: bag {i + 1} has {len(bag)} vertices, more than width+1 = {size}")
            bags[i] = bag
        else:
            if len(toks) != 2:
                raise FormatError(f"line {no}: expected a bag-tree edge '<i> <j>'")
            tree_edges.append((_id(toks[0], no, nbags, "bag id"), _id(toks[1], no, nbags, "bag id")))
    if len(bags) != nbags:
        i = next(i for i in range(nbags) if i not in bags)
        raise FormatError(f"bag {i + 1} has no 'b' line")
    return TreeDecomposition.build([bags[i] for i in range(nbags)], tree_edges)


def parse_td(path) -> TreeDecomposition:
    return parse_td_text(read_text(path))


def write_td_text(td: TreeDecomposition, n: int) -> str:
    out = [f"s td {len(td.bags)} {td.width + 1} {n}"]
    for i, bag in enumerate(td.bags, start=1):
        out.append("b " + " ".join([str(i)] + [str(v + 1) for v in sorted(bag)]))
    for i, j in sorted(td.tree_edges):
        out.append(f"{i + 1} {j + 1}")
    return "\n".join(out) + "\n"


def write_td(td: TreeDecomposition, n: int, path) -> None:
    Path(path).write_text(write_td_text(td, n), encoding="utf-8")


# ---------------------------------------------------------------------------
# certificates and label maps


def parse_certificate_text(text: str, g: WeightedGraph) -> Matching:
    m = _parse_certificate_bulk(text, g)
    return m if m is not None else _parse_certificate_lines(text, g)


def _parse_certificate_bulk(text, g: WeightedGraph):
    """The matching of a valid certificate (``str`` or ``bytes``) in the
    writer's layout; None for any other text, which the line scanner then
    reads or rejects."""
    n = g.n
    # The partner table below has one entry per vertex. A graph with more
    # vertices than edge endpoints has isolated ones, maybe very many, and is
    # left to the line scanner, so the table is never larger than the graph.
    data = _ascii_bytes(text)
    if n > 2 * g.m or data is None:
        return None
    pairs = _int_rows(data, 0, b"m", 2)
    if pairs is None:
        return None
    if not pairs.size:
        return Matching(g, [])
    if pairs.min() < 1 or pairs.max() > n:
        return None
    import numpy as np

    # No vertex twice rules out shared vertices, repeated pairs and self
    # pairs; then each vertex has at most one partner, and an edge is listed
    # iff its ``lo`` has its ``hi`` as partner.
    ends = np.sort(pairs, axis=None)
    if (ends[1:] == ends[:-1]).any():
        return None
    del ends
    u = pairs[:, 0] - 1
    v = pairs[:, 1] - 1
    partner = np.full(n, -1, dtype=np.int64)
    partner[u] = v
    partner[v] = u
    lo, hi = g.endpoint_arrays()
    eids = np.flatnonzero(partner[lo] == hi)
    if eids.size != u.size:  # a pair that is not an edge
        return None
    return Matching(g, eids)


def _parse_certificate_lines(text: str, g: WeightedGraph) -> Matching:
    eids = []
    line_of_edge = {}
    line_of_vertex = {}
    for no, toks in _lines(text):
        u, v = _edge_line(toks, no, g.n, "m <u> <v>")
        eid = g.edge_id(u, v)
        if eid is None:
            raise FormatError(f"line {no}: edge ({u + 1}, {v + 1}) is not in the graph")
        if eid in line_of_edge:
            raise FormatError(f"line {no}: edge ({u + 1}, {v + 1}) repeats line {line_of_edge[eid]}")
        for x in (u, v):
            if x in line_of_vertex:
                raise FormatError(
                    f"line {no}: edge ({u + 1}, {v + 1}) shares vertex {x + 1} with line {line_of_vertex[x]}"
                )
        line_of_edge[eid] = line_of_vertex[u] = line_of_vertex[v] = no
        eids.append(eid)
    return Matching(g, eids)


def parse_certificate(path, g: WeightedGraph) -> Matching:
    data = Path(path).read_bytes()
    m = _parse_certificate_bulk(data, g)
    return m if m is not None else _parse_certificate_lines(_decode(data), g)


def _certificate_bytes(m: Matching) -> bytes:
    """One ``m <u> <v>`` line per edge (``u < v``), in increasing order of
    ``u``; the ``u`` of a matching's edges are distinct, so that is the
    order of the pairs.

    The lines are laid out in one byte buffer: each id's digit count comes
    from comparisons with the powers of ten, which fixes every line's
    length and offset, then one pass per digit position writes that digit
    of every id wide enough to have it."""
    if not len(m):
        return b""
    import numpy as np

    lo, hi = m.graph.endpoint_arrays()
    ids = m.edge_id_array()
    us = lo[ids]
    order = np.argsort(us)
    cols = (us[order] + 1, hi[ids][order] + 1)
    powers = 10 ** np.arange(1, 19, dtype=np.int64)
    widths = [np.searchsorted(powers, c, side="right") + 1 for c in cols]
    # "m", then " <digits>" per column, then "\n"
    lens = widths[0] + widths[1] + 4
    ends = np.cumsum(lens)
    buf = np.full(int(ends[-1]), ord(" "), dtype=np.uint8)
    buf[ends - lens] = ord("m")
    buf[ends - 1] = ord("\n")
    # the position of each column's last digit
    lasts = (ends - 3 - widths[1], ends - 2)
    for c, width, last in zip(cols, widths, lasts):
        for d in range(int(width.max())):
            digit = (c % 10).astype(np.uint8) + ord("0")
            if d < width.min():
                buf[last - d] = digit
            else:
                wide = width > d
                buf[last[wide] - d] = digit[wide]
            c //= 10
    return buf.tobytes()


def write_certificate_text(m: Matching) -> str:
    """One ``m <u> <v>`` line per edge (``u < v``), in increasing order of
    ``u``."""
    return _certificate_bytes(m).decode("ascii")


def write_certificate(m: Matching, path) -> None:
    Path(path).write_bytes(_certificate_bytes(m))


def parse_vertex_set_text(text: str, g: VertexWeightedGraph) -> frozenset:
    verts = []
    for no, toks in _lines(text):
        if toks[0] != "v":
            raise FormatError(f"line {no}: expected 'v <ids...>'")
        verts.extend(_id(tok, no, g.n, "vertex") for tok in toks[1:])
    return frozenset(verts)


def write_vertex_set_text(subset) -> str:
    if not subset:
        return "v\n"
    return "v " + " ".join(str(v + 1) for v in sorted(subset)) + "\n"


# ---------------------------------------------------------------------------
# source-solution files (used by the certificate mapper)
#
#   assignment:  "a 0 1 1 ..."  (one 0/1 per variable; crosscomp solutions
#                add a line "i <instance>")
#   steiner tree: "e <u> <v>" lines
#   set family:   "s <indices...>" (1-based member-set indices)
#   vertex set:   "v <ids...>"


def parse_assignment_text(text: str) -> tuple[tuple, Union[int, None]]:
    assignment = None
    instance = None
    for no, toks in _lines(text):
        if toks[0] == "a":
            _once(assignment, toks, no)
            vals = []
            for tok in toks[1:]:
                if tok not in ("0", "1"):
                    raise FormatError(f"line {no}: assignment values must be 0 or 1")
                vals.append(tok == "1")
            assignment = tuple(vals)
        elif toks[0] == "i":
            instance = _single_int(instance, toks, no, "i <instance>")
        else:
            raise FormatError(f"line {no}: expected 'a <bits...>' or 'i <instance>'")
    if assignment is None:
        raise FormatError("missing 'a' assignment line")
    return assignment, instance


def write_assignment_text(assignment, instance: Union[int, None] = None) -> str:
    out = ["a " + " ".join("1" if b else "0" for b in assignment)]
    if instance is not None:
        out.append(f"i {instance}")
    return "\n".join(out) + "\n"


def parse_tree_solution_text(text: str) -> list[tuple[int, int]]:
    edges = []
    for no, toks in _lines(text):
        edges.append(_edge_line(toks, no, _INT64_MAX, "e <u> <v>"))
    return edges


def write_tree_solution_text(edges) -> str:
    out = [f"e {u + 1} {v + 1}" for u, v in sorted(edges)]
    return "\n".join(out) + ("\n" if out else "")


def parse_family_text(text: str) -> frozenset:
    chosen = []
    for no, toks in _lines(text):
        if toks[0] != "s":
            raise FormatError(f"line {no}: expected 's <indices...>'")
        chosen.extend(_id(t, no, _INT64_MAX, "set index") for t in toks[1:])
    return frozenset(chosen)


def write_family_text(chosen) -> str:
    if not chosen:
        return "s\n"
    return "s " + " ".join(str(j + 1) for j in sorted(chosen)) + "\n"


def parse_map_text(text: str) -> dict:
    labels = {}
    for no, toks in _lines(text):
        if toks[0] != "map" or len(toks) != 3:
            raise FormatError(f"line {no}: expected 'map <id> <label>'")
        v = _id(toks[1], no, _INT64_MAX, "vertex")
        if v in labels:
            raise FormatError(f"line {no}: duplicate map entry for vertex {v + 1}")
        labels[v] = toks[2]
    return labels


def parse_map(path) -> dict:
    return parse_map_text(read_text(path))


def write_map_text(labels: dict) -> str:
    out = []
    for v in sorted(labels):
        out.append(f"map {v + 1} {labels[v]}")
    return "\n".join(out) + "\n"


def write_map(labels: dict, path) -> None:
    Path(path).write_text(write_map_text(labels), encoding="utf-8")
