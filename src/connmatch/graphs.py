"""Weighted graphs, matchings and the structural queries used for solver dispatch.

Vertices are dense 0-based integers. Edge weights are signed integers; the
file layer enforces the 64-bit range. All objects are immutable after
construction and safe to share between concurrent solves.

A :class:`WeightedGraph` keeps its edges as three flat columns: the
endpoints ``lo`` and ``hi`` (``lo[e] < hi[e]``) and ``weights``. A graph
built by :meth:`WeightedGraph.from_columns` from int64 numpy arrays (the
``.gr`` bulk parser's) keeps the columns only as read-only int64 arrays,
:meth:`WeightedGraph.endpoint_arrays` and
:meth:`WeightedGraph.weight_array`; the tuples of Python ints ``lo``, ``hi``
and ``weights`` are built from them on first use. A graph built from
Python ints keeps the tuples, and the arrays are built from them on first
use. Construction validates the columns in bulk: range, self-loops, plain
int values and duplicates. Columns of Python ints are checked with a set of
exact ``lo * n + hi`` int keys. int64 columns are checked in numpy, with
one sort of the same keys in uint64; above n = 2**32 these wrap, and a
repeated key only counts as doubt. On the first doubt the per-edge check
reruns in edge order, so an error names the same edge as before. What
derives from the columns is built on first use and cached: the
``(u, v, w)`` triples ``edges``, the adjacency lists ``adj`` and the pair
index behind :meth:`WeightedGraph.edge_id`. Two threads that race on a
cache build equal values.

Connectivity (:meth:`WeightedGraph.components`, :func:`is_connected`,
:func:`induced_by_matching_connected`) runs on one numpy labeller that
gives each vertex the smallest vertex id of its component. numpy is
imported inside the functions that use it, so importing the package stays
cheap; the first labelling in a process pays for loading numpy.
"""

from __future__ import annotations

import heapq
from collections import deque
from itertools import count, repeat
from operator import add, eq, itemgetter, lt, mul
from typing import Iterable, NamedTuple, Optional, Sequence


class GraphError(ValueError):
    """Raised for malformed graphs, matchings or violated solver preconditions."""


def _pair_keys(n: int, lo: Iterable[int], hi: Iterable[int]):
    """``lo * n + hi`` per edge: one int per vertex pair when ``lo < hi < n``."""
    return map(add, map(mul, lo, repeat(n)), hi)


def _check_columns(n: int, us: Sequence, vs: Sequence, ws: Sequence):
    """``(lo, hi)`` if the columns form a valid edge list of plain ints,
    otherwise None; the ordered check then finds the first bad edge."""
    if not (set(map(type, us)) | set(map(type, vs)) | set(map(type, ws))) <= {int}:
        return None
    if us and (min(us) < 0 or min(vs) < 0 or max(us) >= n or max(vs) >= n):
        return None
    if all(map(lt, us, vs)):
        lo, hi = us, vs
    elif any(map(eq, us, vs)):
        return None
    else:
        lo, hi = tuple(map(min, us, vs)), tuple(map(max, us, vs))
    if len(set(_pair_keys(n, lo, hi))) != len(lo):
        return None
    return lo, hi


def _check_arrays(n: int, us, vs, ws):
    """Read-only int64 ``(lo, hi)`` arrays if the int64 columns form a valid
    edge list, otherwise None.

    Duplicates show as equal ``lo * n + hi`` keys, computed in uint64. Up to
    n = 2**32 distinct pairs have distinct keys; above it the keys wrap, and
    a collision only counts as doubt, which the per-edge check settles.
    """
    import numpy as np

    cols = (us, vs, ws)
    if not (
        type(n) is int
        and 0 <= n < 2**63
        and all(isinstance(c, np.ndarray) and c.dtype == np.int64 and c.ndim == 1 for c in cols)
        and len(us) == len(vs) == len(ws)
    ):
        return None
    if us.size and (min(us.min(), vs.min()) < 0 or max(us.max(), vs.max()) >= n):
        return None
    lo = np.minimum(us, vs)
    hi = np.maximum(us, vs)
    if (lo == hi).any():
        return None
    keys = lo.astype(np.uint64)
    keys *= np.uint64(n)
    keys += hi.astype(np.uint64)
    keys.sort()
    if (keys[1:] == keys[:-1]).any():
        return None
    lo.flags.writeable = hi.flags.writeable = False
    return lo, hi


def _checked_edges(n: int, edges: Iterable) -> list[tuple[int, int, int]]:
    """The edges with ``u < v``, checked one by one in order; raises
    :class:`GraphError` naming the first bad edge."""
    normalized = []
    seen: set[tuple[int, int]] = set()
    for u, v, w in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise GraphError(f"edge ({u}, {v}) out of range for n={n}")
        if u == v:
            raise GraphError(f"self-loop at vertex {u}")
        if not isinstance(w, int) or isinstance(w, bool):
            raise GraphError(f"edge ({u}, {v}) has non-integer weight {w!r}")
        if u > v:
            u, v = v, u
        if (u, v) in seen:
            raise GraphError(f"parallel edge ({u}, {v})")
        seen.add((u, v))
        normalized.append((u, v, w))
    return normalized


def _component_labels(n: int, lo, hi):
    """The smallest vertex id of each vertex's component, as an int64 array.

    ``lo`` and ``hi`` are int64 arrays of edge endpoints. Each round, every
    root hooks onto the smallest root across its edges, then pointer jumping
    points every vertex at its root again, and edges inside one tree are
    dropped. Roots only move to smaller ids, so the root left in each
    component is its smallest vertex.
    """
    import numpy as np

    label = np.arange(n, dtype=np.int64)
    while lo.size:
        a = label[lo]
        b = label[hi]
        cross = a != b
        if not cross.any():
            break
        a, b, lo, hi = a[cross], b[cross], lo[cross], hi[cross]
        np.minimum.at(label, a, b)
        np.minimum.at(label, b, a)
        while True:
            up = label[label]
            if np.array_equal(up, label):
                break
            label = up
    return label


def _label_groups(label) -> list[list[int]]:
    """The vertices of each component, as sorted lists in label order, from
    the labelling of :func:`_component_labels`."""
    import numpy as np

    order = np.argsort(label, kind="stable")
    grouped = label[order]
    cuts = (np.flatnonzero(grouped[1:] != grouped[:-1]) + 1).tolist()
    flat = order.tolist()
    return [flat[a:b] for a, b in zip([0, *cuts], [*cuts, len(flat)])]


def _component_subgraphs(g: "WeightedGraph", label) -> list[tuple["WeightedGraph", object]]:
    """The subgraph of each component of ``g`` that has an edge, in label
    order, with the int64 array of its edges' ids in ``g``. ``label`` is the
    labelling of :func:`_component_labels`. A subgraph equals
    ``g.induced(component)[0]``, edges in the same order, but it is cut from
    the edge columns grouped by label, so ``g.adj`` is never built."""
    import numpy as np

    lo, hi = g.endpoint_arrays()
    if not lo.size:
        return []
    ws = g.weight_array()
    if ws is None:  # a weight beyond int64: index the Python ints instead
        ws = np.array(g.weights, dtype=object)
    size = np.bincount(label)
    # a vertex's id in its subgraph: its rank in its component
    keep = np.flatnonzero(size[label] >= 2)
    order = keep[np.argsort(label[keep], kind="stable")]
    grouped = label[order]
    pos = np.zeros(g.n, dtype=np.int64)
    pos[order] = np.arange(order.size) - np.searchsorted(grouped, grouped)
    elabel = label[lo]
    eorder = np.argsort(elabel, kind="stable")
    egrouped = elabel[eorder]
    cuts = (np.flatnonzero(egrouped[1:] != egrouped[:-1]) + 1).tolist()
    sub_lo, sub_hi = pos[lo], pos[hi]
    out = []
    for a, b in zip([0, *cuts], [*cuts, eorder.size]):
        ids = eorder[a:b]
        sub = WeightedGraph.from_columns(int(size[egrouped[a]]), sub_lo[ids], sub_hi[ids], ws[ids])
        out.append((sub, ids))
    return out


class WeightedGraph:
    """Undirected simple graph with integer edge weights.

    ``edges`` is a tuple of ``(u, v, w)`` triples with ``u < v``; edge ids are
    positions in that tuple. ``lo``, ``hi`` and ``weights`` are the same
    edges as columns of Python ints: ``edges[e] == (lo[e], hi[e],
    weights[e])``. A graph built from int64 arrays holds the columns as
    arrays first (:meth:`endpoint_arrays`, :meth:`weight_array`) and builds
    the tuples, ``edges`` and ``adj`` only when they are read; ``adj[v]``
    lists the ids of edges incident to ``v`` in increasing order.
    """

    __slots__ = (
        "n", "m", "_lo", "_hi", "_weights", "_edges", "_adj", "_pair_index", "_arrays", "_weight_array",
    )

    def __init__(self, n: int, edges: Iterable[tuple[int, int, int]]):
        if n < 0:
            raise GraphError("vertex count must be non-negative")
        edges = tuple(edges)
        cols = None
        if set(map(type, edges)) <= {tuple} and set(map(len, edges)) <= {3}:
            us, vs, ws = zip(*edges) if edges else ((), (), ())
            cols = _check_columns(n, us, vs, ws)
        if cols is None:
            edges = tuple(_checked_edges(n, edges))
            us, vs, ws = zip(*edges) if edges else ((), (), ())
            cols = us, vs
        self._set(n, *cols, ws)
        if cols[0] is us:  # the triples were already normalized
            self._edges = edges

    @classmethod
    def from_columns(cls, n: int, us: Sequence[int], vs: Sequence[int], ws: Sequence[int]) -> "WeightedGraph":
        """``WeightedGraph(n, zip(us, vs, ws))``, built without the
        intermediate triples; errors are the same. The columns are sequences
        of ints or int64 numpy arrays; arrays are checked in numpy, and the
        graph keeps the ``lo``/``hi`` arrays built there and a read-only
        copy of ``ws`` as its columns, with no tuples."""
        if hasattr(us, "dtype"):
            arrays = _check_arrays(n, us, vs, ws)
            if arrays is None:
                return cls(n, zip(us.tolist(), vs.tolist(), ws.tolist()))
            ws = ws.copy()
            ws.flags.writeable = False
            g = cls.__new__(cls)
            g._set(n, *arrays, ws)
            return g
        cols = _check_columns(n, us, vs, ws) if n >= 0 else None
        if cols is None:
            return cls(n, zip(us, vs, ws))
        g = cls.__new__(cls)
        g._set(n, *cols, ws)
        return g

    def _set(self, n: int, lo: Sequence[int], hi: Sequence[int], ws: Sequence[int]) -> None:
        """Store the columns: read-only int64 arrays as they are, anything
        else as tuples."""
        self.n = n
        self.m = len(lo)
        self._edges: Optional[tuple[tuple[int, int, int], ...]] = None
        self._adj: Optional[list[list[int]]] = None
        self._pair_index: Optional[dict[int, int]] = None
        if hasattr(lo, "dtype"):
            self._lo = self._hi = self._weights = None
            self._arrays = lo, hi
            self._weight_array = ws
        else:
            self._lo, self._hi, self._weights = tuple(lo), tuple(hi), tuple(ws)
            self._arrays = self._weight_array = None

    @property
    def lo(self) -> tuple[int, ...]:
        lo = self._lo
        if lo is None:
            lo = self._lo = tuple(self._arrays[0].tolist())
        return lo

    @property
    def hi(self) -> tuple[int, ...]:
        hi = self._hi
        if hi is None:
            hi = self._hi = tuple(self._arrays[1].tolist())
        return hi

    @property
    def weights(self) -> tuple[int, ...]:
        ws = self._weights
        if ws is None:
            ws = self._weights = tuple(self._weight_array.tolist())
        return ws

    @property
    def edges(self) -> tuple[tuple[int, int, int], ...]:
        edges = self._edges
        if edges is None:
            edges = self._edges = tuple(zip(self.lo, self.hi, self.weights))
        return edges

    @property
    def adj(self) -> list[list[int]]:
        adj = self._adj
        if adj is None:
            adj = [[] for _ in range(self.n)]
            for eid, u, v in zip(count(), self.lo, self.hi):
                adj[u].append(eid)
                adj[v].append(eid)
            self._adj = adj
        return adj

    def endpoint_arrays(self):
        """``lo`` and ``hi`` as read-only int64 numpy arrays, built on first use."""
        arrays = self._arrays
        if arrays is None:
            import numpy as np

            arrays = (np.array(self._lo, dtype=np.int64), np.array(self._hi, dtype=np.int64))
            for a in arrays:
                a.flags.writeable = False
            self._arrays = arrays
        return arrays

    def weight_array(self):
        """``weights`` as a read-only int64 numpy array, built on first use;
        None if a weight lies outside the int64 range, which only a graph
        built from Python ints can hold."""
        ws = self._weight_array
        if ws is None:
            import numpy as np

            try:
                ws = np.array(self._weights, dtype=np.int64)
            except OverflowError:
                return None
            ws.flags.writeable = False
            self._weight_array = ws
        return ws

    def weight(self, eid: int) -> int:
        return self.weights[eid]

    def endpoints(self, eid: int) -> tuple[int, int]:
        return self.lo[eid], self.hi[eid]

    def other(self, eid: int, v: int) -> int:
        u = self.lo[eid]
        return self.hi[eid] if v == u else u

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def max_degree(self) -> int:
        return max((len(a) for a in self.adj), default=0)

    def neighbors(self, v: int) -> list[int]:
        return [self.other(eid, v) for eid in self.adj[v]]

    def edge_id(self, u: int, v: int) -> Optional[int]:
        """Edge id for the pair ``{u, v}``, or ``None`` if absent."""
        n = self.n
        if not (0 <= u < n and 0 <= v < n):
            return None
        if self._pair_index is None:
            self._pair_index = dict(zip(_pair_keys(n, self.lo, self.hi), count()))
        if u > v:
            u, v = v, u
        return self._pair_index.get(u * n + v)

    def components(self, label=None) -> list[list[int]]:
        """Connected components as sorted vertex lists, in order of their
        smallest vertex. ``label`` is the graph's component labelling, if
        the caller has already computed it."""
        n = self.n
        if n == 0:
            return []
        if label is None:
            label = _component_labels(n, *self.endpoint_arrays())
        if not label.any():
            return [list(range(n))]
        return _label_groups(label)

    def induced(self, vertices: Sequence[int]) -> tuple["WeightedGraph", list[int], dict[int, int]]:
        """Subgraph induced by ``vertices``.

        Returns ``(subgraph, old_ids, edge_map)`` where ``old_ids[new] = old``
        and ``edge_map`` maps new edge ids back to ids of this graph. Edges
        keep their relative order. The work is proportional to the degrees
        of ``vertices`` (plus building ``adj`` on the first call).
        """
        old_ids = sorted(set(vertices))
        new_of = {v: i for i, v in enumerate(old_ids)}
        n, adj, lo, hi, ws = self.n, self.adj, self.lo, self.hi, self.weights
        eids = sorted(
            eid
            for v in old_ids
            if 0 <= v < n
            for eid in adj[v]
            if lo[eid] == v and hi[eid] in new_of
        )
        sub_edges = [(new_of[lo[e]], new_of[hi[e]], ws[e]) for e in eids]
        return WeightedGraph(len(old_ids), sub_edges), old_ids, dict(enumerate(eids))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, WeightedGraph)
            and self.n == other.n
            and sorted(self.edges) == sorted(other.edges)
        )

    def __hash__(self):
        return hash((self.n, tuple(sorted(self.edges))))

    def __repr__(self):
        return f"WeightedGraph(n={self.n}, m={self.m})"


class VertexWeightedGraph:
    """Simple unweighted-edge graph with one integer weight per vertex."""

    __slots__ = ("n", "edges", "vertex_weights", "adj")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]], vertex_weights: Sequence[int]):
        if len(vertex_weights) != n:
            raise GraphError("need exactly one weight per vertex")
        for w in vertex_weights:
            if not isinstance(w, int) or isinstance(w, bool):
                raise GraphError(f"non-integer vertex weight {w!r}")
        normalized = _checked_edges(n, ((u, v, 0) for u, v in edges))
        self.n = n
        self.edges = tuple((u, v) for u, v, _ in normalized)
        self.vertex_weights = tuple(vertex_weights)
        adj: list[list[int]] = [[] for _ in range(n)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        self.adj = adj

    def __repr__(self):
        return f"VertexWeightedGraph(n={self.n}, m={len(self.edges)})"


def _pick(seq: Sequence[int], ids: Sequence[int]) -> tuple[int, ...]:
    """``tuple(seq[i] for i in ids)``, in one call for two or more ids."""
    return itemgetter(*ids)(seq) if len(ids) > 1 else tuple(map(seq.__getitem__, ids))


def _raise_first_conflict(m: int, lo: Sequence[int], hi: Sequence[int], ids: Sequence[int]) -> None:
    """Raise :class:`GraphError` for the first edge id in ``ids`` that is
    out of range or shares an endpoint with an earlier one."""
    saturated: set[int] = set()
    for eid in ids:
        if not (0 <= eid < m):
            raise GraphError(f"matching references unknown edge id {eid}")
        u = lo[eid]
        v = hi[eid]
        if u in saturated or v in saturated:
            raise GraphError(f"edges share endpoint at edge id {eid}")
        saturated.add(u)
        saturated.add(v)
    raise AssertionError("the edge ids form a matching")


class Matching:
    """A set of vertex-disjoint edges of a :class:`WeightedGraph`.

    ``edge_ids`` is the sorted tuple of distinct edge ids, ``weight`` their
    total weight and ``vertices`` the saturated vertex set. The edges are
    disjoint iff their endpoint list has no repeat; only when that one-pass
    check fails does an ordered loop run, to name the first bad edge id.

    The ids may also come as an int64 numpy array. Then the sort, the range
    check and the endpoint check run in numpy, and the weight is summed in
    int64 when ``max|w| * k < 2**62`` rules out overflow. ``edge_ids`` and
    ``vertices`` are built on first use, and :meth:`edge_id_array` keeps the
    array. On any doubt (a bad id, a shared endpoint, another dtype) the
    ids take the path of Python ints, with the same errors.
    """

    __slots__ = ("graph", "weight", "_ids", "_id_array", "_vertices")

    def __init__(self, graph: WeightedGraph, edge_ids: Iterable[int]):
        self.graph = graph
        self._ids = self._id_array = self._vertices = None
        if hasattr(edge_ids, "dtype"):
            if self._set_array(edge_ids):
                return
            edge_ids = edge_ids.tolist()
        ids = tuple(sorted(set(edge_ids)))
        m, lo, hi = graph.m, graph.lo, graph.hi
        in_range = not ids or (0 <= ids[0] and ids[-1] < m)
        ends = _pick(lo, ids) + _pick(hi, ids) if in_range else ()
        saturated = frozenset(ends)
        if not in_range or len(saturated) != len(ends):
            _raise_first_conflict(m, lo, hi, ids)
        self._ids = ids
        self.weight = sum(_pick(graph.weights, ids))
        self._vertices = saturated

    def _set_array(self, ids) -> bool:
        """Take a valid int64 id array; False on any doubt."""
        import numpy as np

        g = self.graph
        if ids.dtype != np.int64 or ids.ndim != 1:
            return False
        ids = np.sort(ids)
        if ids.size:
            ids = ids[np.concatenate(([True], ids[1:] != ids[:-1]))]
            if ids[0] < 0 or ids[-1] >= g.m:
                return False
            lo, hi = g.endpoint_arrays()
            ends = np.concatenate((lo[ids], hi[ids]))
            ends.sort()
            if (ends[1:] == ends[:-1]).any():
                return False
        ws = g.weight_array()
        if ws is None:
            return False
        ws = ws[ids]
        big = max(-int(ws.min()), int(ws.max())) if ws.size else 0
        self.weight = int(ws.sum()) if big * ws.size < 2**62 else sum(ws.tolist())
        ids.flags.writeable = False
        self._id_array = ids
        return True

    @property
    def edge_ids(self) -> tuple[int, ...]:
        ids = self._ids
        if ids is None:
            ids = self._ids = tuple(self._id_array.tolist())
        return ids

    @property
    def vertices(self) -> frozenset:
        verts = self._vertices
        if verts is None:
            lo, hi = self.graph.endpoint_arrays()
            ids = self._id_array
            verts = self._vertices = frozenset(lo[ids].tolist() + hi[ids].tolist())
        return verts

    def edge_id_array(self):
        """``edge_ids`` as a read-only int64 numpy array, built on first use."""
        ids = self._id_array
        if ids is None:
            import numpy as np

            ids = np.array(self._ids, dtype=np.int64)
            ids.flags.writeable = False
            self._id_array = ids
        return ids

    def edge_pairs(self) -> list[tuple[int, int]]:
        lo, hi = self.graph.lo, self.graph.hi
        return [(lo[eid], hi[eid]) for eid in self.edge_ids]

    def __len__(self):
        return len(self._ids if self._ids is not None else self._id_array)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Matching)
            and self.graph == other.graph
            and self.edge_ids == other.edge_ids
        )

    def __hash__(self):
        return hash(self.edge_ids)

    def __repr__(self):
        return f"Matching(weight={self.weight}, edges={self.edge_pairs()})"


class GraphClassReport(NamedTuple):
    """Structural facts about a graph, used to pick a solver."""

    connected: bool
    is_tree: bool
    max_degree: int
    is_path: bool
    is_cycle: bool
    bipartition: Optional[tuple[int, ...]]
    chordal_peo: Optional[tuple[int, ...]]
    all_weights_nonnegative: bool


def is_connected(g: WeightedGraph) -> bool:
    """True iff ``g`` has at most one connected component (empty graph counts)."""
    if g.n == 0:
        return True
    return not _component_labels(g.n, *g.endpoint_arrays()).any()


def induced_by_matching_connected(g: WeightedGraph, m: Matching) -> bool:
    """True iff the subgraph induced by the matched vertices is connected.

    The empty matching induces the empty graph, which counts as connected.
    Only edges with both ends matched are labelled.
    """
    import numpy as np

    if m.graph is not g and m.graph != g:
        raise GraphError("matching belongs to a different graph")
    if not len(m):
        return True
    ids = m.edge_id_array()
    mlo, mhi = m.graph.endpoint_arrays()  # edge ids are positions in m.graph
    matched = np.concatenate((mlo[ids], mhi[ids]))
    inside = np.zeros(g.n, dtype=bool)
    inside[matched] = True
    lo, hi = g.endpoint_arrays()
    keep = inside[lo] & inside[hi]
    label = _component_labels(g.n, lo[keep], hi[keep])[matched]
    return bool((label == label[0]).all())


def two_coloring(g: WeightedGraph) -> Optional[tuple[int, ...]]:
    """A proper 2-coloring as a tuple of 0/1 per vertex, or None."""
    adj = g.adj
    color = [-1] * g.n
    for s in range(g.n):
        if color[s] != -1:
            continue
        color[s] = 0
        queue = deque([s])
        while queue:
            v = queue.popleft()
            for eid in adj[v]:
                u = g.other(eid, v)
                if color[u] == -1:
                    color[u] = 1 - color[v]
                    queue.append(u)
                elif color[u] == color[v]:
                    return None
    return tuple(color)


def _mcs_order(g: WeightedGraph) -> list[int]:
    # maximum-cardinality search; visit order, ties by smallest id. The heap
    # holds (-weight, v). Weights only grow, so a vertex's newest entry pops
    # before its older ones, which then find it visited.
    weight = [0] * g.n
    visited = [False] * g.n
    heap = [(0, v) for v in range(g.n)]
    order = []
    while heap:
        _, best = heapq.heappop(heap)
        if visited[best]:
            continue
        visited[best] = True
        order.append(best)
        for u in g.neighbors(best):
            if not visited[u]:
                weight[u] += 1
                heapq.heappush(heap, (-weight[u], u))
    return order


def check_peo(g: WeightedGraph, order: Sequence[int]) -> bool:
    """Verify that ``order`` is a perfect elimination ordering of ``g``."""
    if sorted(order) != list(range(g.n)):
        return False
    pos = {v: i for i, v in enumerate(order)}
    neighbor_sets = [set(g.neighbors(v)) for v in range(g.n)]
    for i, v in enumerate(order):
        later = [u for u in neighbor_sets[v] if pos[u] > i]
        if not later:
            continue
        anchor = min(later, key=lambda u: pos[u])
        for u in later:
            if u != anchor and u not in neighbor_sets[anchor]:
                return False
    return True


def chordal_peo(g: WeightedGraph) -> Optional[tuple[int, ...]]:
    """A perfect elimination ordering if ``g`` is chordal, else None."""
    order = list(reversed(_mcs_order(g)))
    return tuple(order) if check_peo(g, order) else None


def classify(g: WeightedGraph) -> GraphClassReport:
    """Compute the full structural report for ``g``."""
    connected = is_connected(g)
    degrees = [g.degree(v) for v in range(g.n)]
    max_degree = max(degrees, default=0)
    is_tree = connected and g.m == g.n - 1
    is_cycle = connected and g.n >= 3 and all(d == 2 for d in degrees)
    is_path = is_tree and max_degree <= 2
    return GraphClassReport(
        connected=connected,
        is_tree=is_tree,
        max_degree=max_degree,
        is_path=is_path,
        is_cycle=is_cycle,
        bipartition=two_coloring(g),
        chordal_peo=chordal_peo(g),
        all_weights_nonnegative=all(w >= 0 for w in g.weights),
    )


def articulation_points(g: WeightedGraph) -> set[int]:
    """Vertices whose removal increases the number of components (iterative lowlink)."""
    n = g.n
    adj = g.adj
    disc = [-1] * n
    low = [0] * n
    result: set[int] = set()
    timer = 0
    for root in range(n):
        if disc[root] != -1:
            continue
        root_children = 0
        stack: list[tuple[int, int, int]] = [(root, -1, 0)]  # vertex, parent, next adj index
        while stack:
            v, parent, idx = stack.pop()
            if idx == 0:
                disc[v] = low[v] = timer
                timer += 1
            if idx < len(adj[v]):
                stack.append((v, parent, idx + 1))
                u = g.other(adj[v][idx], v)
                if disc[u] == -1:
                    stack.append((u, v, 0))
                elif u != parent:
                    low[v] = min(low[v], disc[u])
            else:
                if parent != -1:
                    low[parent] = min(low[parent], low[v])
                    if parent == root:
                        root_children += 1
                    elif low[v] >= disc[parent]:
                        result.add(parent)
        if root_children >= 2:
            result.add(root)
    return result


def diameter(g: WeightedGraph) -> int:
    """Maximum unweighted shortest-path length; requires a connected graph."""
    if g.n == 0 or not is_connected(g):
        raise GraphError("diameter is only defined for non-empty connected graphs")
    adj = g.adj
    best = 0
    for s in range(g.n):
        dist = [-1] * g.n
        dist[s] = 0
        queue = deque([s])
        while queue:
            v = queue.popleft()
            for eid in adj[v]:
                u = g.other(eid, v)
                if dist[u] == -1:
                    dist[u] = dist[v] + 1
                    queue.append(u)
        best = max(best, max(dist))
    return best
