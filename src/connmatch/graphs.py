"""Weighted graphs, matchings and the structural queries used for solver dispatch.

Vertices are dense 0-based integers. Edge weights are signed integers; the
file layer enforces the 64-bit range. All objects are immutable after
construction and safe to share between concurrent solves.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence


class GraphError(ValueError):
    """Raised for malformed graphs, matchings or violated solver preconditions."""


class WeightedGraph:
    """Undirected simple graph with integer edge weights.

    ``edges`` is a tuple of ``(u, v, w)`` triples with ``u < v``; edge ids are
    positions in that tuple. ``adj[v]`` lists the ids of edges incident to
    ``v``.
    """

    __slots__ = ("n", "edges", "adj", "_pair_index")

    def __init__(self, n: int, edges: Iterable[tuple[int, int, int]]):
        if n < 0:
            raise GraphError("vertex count must be non-negative")
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
        self.n = n
        self.edges = tuple(normalized)
        adj: list[list[int]] = [[] for _ in range(n)]
        for eid, (u, v, _) in enumerate(self.edges):
            adj[u].append(eid)
            adj[v].append(eid)
        self.adj = adj
        self._pair_index: Optional[dict[tuple[int, int], int]] = None

    @property
    def m(self) -> int:
        return len(self.edges)

    def weight(self, eid: int) -> int:
        return self.edges[eid][2]

    def endpoints(self, eid: int) -> tuple[int, int]:
        u, v, _ = self.edges[eid]
        return u, v

    def other(self, eid: int, v: int) -> int:
        u, w, _ = self.edges[eid]
        return w if v == u else u

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def max_degree(self) -> int:
        return max((len(a) for a in self.adj), default=0)

    def neighbors(self, v: int) -> list[int]:
        return [self.other(eid, v) for eid in self.adj[v]]

    def edge_id(self, u: int, v: int) -> Optional[int]:
        """Edge id for the pair ``{u, v}``, or ``None`` if absent."""
        if self._pair_index is None:
            self._pair_index = {(a, b): i for i, (a, b, _) in enumerate(self.edges)}
        if u > v:
            u, v = v, u
        return self._pair_index.get((u, v))

    def has_edge(self, u: int, v: int) -> bool:
        return self.edge_id(u, v) is not None

    def components(self) -> list[list[int]]:
        """Connected components as sorted vertex lists."""
        seen = [False] * self.n
        out = []
        for s in range(self.n):
            if seen[s]:
                continue
            seen[s] = True
            comp = [s]
            queue = deque([s])
            while queue:
                v = queue.popleft()
                for eid in self.adj[v]:
                    u = self.other(eid, v)
                    if not seen[u]:
                        seen[u] = True
                        comp.append(u)
                        queue.append(u)
            out.append(sorted(comp))
        return out

    def induced(self, vertices: Sequence[int]) -> tuple["WeightedGraph", list[int], dict[int, int]]:
        """Subgraph induced by ``vertices``.

        Returns ``(subgraph, old_ids, edge_map)`` where ``old_ids[new] = old``
        and ``edge_map`` maps new edge ids back to ids of this graph.
        """
        old_ids = sorted(set(vertices))
        new_of = {v: i for i, v in enumerate(old_ids)}
        sub_edges = []
        edge_map = {}
        for eid, (u, v, w) in enumerate(self.edges):
            if u in new_of and v in new_of:
                edge_map[len(sub_edges)] = eid
                sub_edges.append((new_of[u], new_of[v], w))
        return WeightedGraph(len(old_ids), sub_edges), old_ids, edge_map

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
        normalized = []
        seen: set[tuple[int, int]] = set()
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise GraphError(f"self-loop at vertex {u}")
            if u > v:
                u, v = v, u
            if (u, v) in seen:
                raise GraphError(f"parallel edge ({u}, {v})")
            seen.add((u, v))
            normalized.append((u, v))
        self.n = n
        self.edges = tuple(normalized)
        self.vertex_weights = tuple(vertex_weights)
        adj: list[list[int]] = [[] for _ in range(n)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        self.adj = adj

    def __repr__(self):
        return f"VertexWeightedGraph(n={self.n}, m={len(self.edges)})"


class Matching:
    """A set of vertex-disjoint edges of a :class:`WeightedGraph`.

    Total weight and the saturated vertex set are computed once and cached.
    """

    __slots__ = ("graph", "edge_ids", "weight", "vertices")

    def __init__(self, graph: WeightedGraph, edge_ids: Iterable[int]):
        ids = tuple(sorted(set(edge_ids)))
        saturated: set[int] = set()
        total = 0
        for eid in ids:
            if not (0 <= eid < graph.m):
                raise GraphError(f"matching references unknown edge id {eid}")
            u, v, w = graph.edges[eid]
            if u in saturated or v in saturated:
                raise GraphError(f"edges share endpoint at edge id {eid}")
            saturated.add(u)
            saturated.add(v)
            total += w
        self.graph = graph
        self.edge_ids = ids
        self.weight = total
        self.vertices = frozenset(saturated)

    def edge_pairs(self) -> list[tuple[int, int]]:
        return [self.graph.endpoints(eid) for eid in self.edge_ids]

    def __len__(self):
        return len(self.edge_ids)

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


@dataclass(frozen=True)
class GraphClassReport:
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
    seen = [False] * g.n
    seen[0] = True
    queue = deque([0])
    count = 1
    while queue:
        v = queue.popleft()
        for eid in g.adj[v]:
            u = g.other(eid, v)
            if not seen[u]:
                seen[u] = True
                count += 1
                queue.append(u)
    return count == g.n


def induced_by_matching_connected(g: WeightedGraph, m: Matching) -> bool:
    """True iff the subgraph induced by the matched vertices is connected.

    The empty matching induces the empty graph, which counts as connected.
    """
    if m.graph is not g and m.graph != g:
        raise GraphError("matching belongs to a different graph")
    verts = m.vertices
    if not verts:
        return True
    start = next(iter(verts))
    seen = {start}
    queue = deque([start])
    while queue:
        v = queue.popleft()
        for eid in g.adj[v]:
            u = g.other(eid, v)
            if u in verts and u not in seen:
                seen.add(u)
                queue.append(u)
    return len(seen) == len(verts)


def two_coloring(g: WeightedGraph) -> Optional[tuple[int, ...]]:
    """A proper 2-coloring as a tuple of 0/1 per vertex, or None."""
    color = [-1] * g.n
    for s in range(g.n):
        if color[s] != -1:
            continue
        color[s] = 0
        queue = deque([s])
        while queue:
            v = queue.popleft()
            for eid in g.adj[v]:
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
        all_weights_nonnegative=all(w >= 0 for _, _, w in g.edges),
    )


def articulation_points(g: WeightedGraph) -> set[int]:
    """Vertices whose removal increases the number of components (iterative lowlink)."""
    n = g.n
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
            if idx < len(g.adj[v]):
                stack.append((v, parent, idx + 1))
                u = g.other(g.adj[v][idx], v)
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
    best = 0
    for s in range(g.n):
        dist = [-1] * g.n
        dist[s] = 0
        queue = deque([s])
        while queue:
            v = queue.popleft()
            for eid in g.adj[v]:
                u = g.other(eid, v)
                if dist[u] == -1:
                    dist[u] = dist[v] + 1
                    queue.append(u)
        best = max(best, max(dist))
    return best
