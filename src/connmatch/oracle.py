"""Exhaustive reference solvers.

These are deliberately simple exponential searches used as ground truth by
every other module's tests. ``brute_mwcm`` enumerates connected matchings
directly: each one is grown edge-by-edge from its lowest-ranked edge, so the
search space is the set of connected matchings rather than all edge subsets.
An admissible bound (sum of still-usable positive edge weights) prunes
branches that cannot beat the incumbent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .graphs import GraphError, Matching, VertexWeightedGraph, WeightedGraph


class OracleError(GraphError):
    """Raised when an oracle precondition (size limit, parity) is violated."""


@dataclass(frozen=True)
class OracleResult:
    optimum: int
    witness: Union[Matching, frozenset]
    explored: int


def brute_mwcm(g: WeightedGraph, edge_limit: int = 24) -> OracleResult:
    """Maximum weight connected matching by exhaustive enumeration.

    The empty matching (weight 0) is always a candidate. ``edge_limit`` is a
    guard against accidental blowup; callers may raise it explicitly for
    instances known to be tractable.
    """
    m = g.m
    if m > edge_limit:
        raise OracleError(f"graph has {m} edges, exceeding edge_limit={edge_limit}")

    edge_u = [e[0] for e in g.edges]
    edge_v = [e[1] for e in g.edges]
    edge_w = [e[2] for e in g.edges]
    nbr = [set(g.neighbors(v)) for v in range(g.n)]
    pos_edges = [e for e in range(m) if edge_w[e] > 0]

    # rank edges by descending weight so good solutions are found early
    order = sorted(range(m), key=lambda e: (-edge_w[e], e))

    saturated = bytearray(g.n)
    banned = bytearray(m)
    chosen: list[int] = []

    best_w = 0
    best_edges: tuple[int, ...] = ()
    explored = 1  # the empty matching
    cur_w = 0

    def usable_positive_sum() -> int:
        s = 0
        for e in pos_edges:
            if not banned[e] and not saturated[edge_u[e]] and not saturated[edge_v[e]]:
                s += edge_w[e]
        return s

    def frontier() -> list[int]:
        out = []
        for e in range(m):
            if banned[e]:
                continue
            u, v = edge_u[e], edge_v[e]
            if saturated[u] or saturated[v]:
                continue
            if any(saturated[x] for x in nbr[u]) or any(saturated[x] for x in nbr[v]):
                out.append(e)
        return out

    def take(e: int) -> None:
        nonlocal cur_w
        saturated[edge_u[e]] = 1
        saturated[edge_v[e]] = 1
        chosen.append(e)
        cur_w += edge_w[e]

    def untake(e: int) -> None:
        nonlocal cur_w
        saturated[edge_u[e]] = 0
        saturated[edge_v[e]] = 0
        chosen.pop()
        cur_w -= edge_w[e]

    def dfs() -> None:
        nonlocal best_w, best_edges, explored
        explored += 1
        if cur_w > best_w:
            best_w = cur_w
            best_edges = tuple(chosen)
        if cur_w + usable_positive_sum() <= best_w:
            return
        tried: list[int] = []
        for e in frontier():
            take(e)
            dfs()
            untake(e)
            banned[e] = 1
            tried.append(e)
        for e in tried:
            banned[e] = 0

    for root in order:
        take(root)
        dfs()
        untake(root)
        banned[root] = 1  # later roots may not reuse it: the root is the minimum-rank edge

    witness = Matching(g, best_edges)
    return OracleResult(optimum=best_w, witness=witness, explored=explored)


def brute_wcs(g: VertexWeightedGraph, vertex_limit: int = 20) -> OracleResult:
    """Maximum weight connected vertex subset by subset enumeration.

    The empty set (weight 0) is always a candidate.
    """
    n = g.n
    if n > vertex_limit:
        raise OracleError(f"graph has {n} vertices, exceeding vertex_limit={vertex_limit}")

    adj_mask = [0] * n
    for u, v in g.edges:
        adj_mask[u] |= 1 << v
        adj_mask[v] |= 1 << u
    weights = g.vertex_weights

    def mask_connected(mask: int) -> bool:
        start = mask & (-mask)
        reach = start
        frontier = start
        while frontier:
            grow = 0
            f = frontier
            while f:
                b = f & (-f)
                grow |= adj_mask[b.bit_length() - 1]
                f ^= b
            frontier = grow & mask & ~reach
            reach |= frontier
        return reach == mask

    best_w = 0
    best_mask = 0
    explored = 1
    for mask in range(1, 1 << n):
        w = 0
        mm = mask
        while mm:
            b = mm & (-mm)
            w += weights[b.bit_length() - 1]
            mm ^= b
        if w <= best_w:
            continue
        if mask_connected(mask):
            explored += 1
            best_w = w
            best_mask = mask

    witness = frozenset(v for v in range(n) if best_mask >> v & 1)
    return OracleResult(optimum=best_w, witness=witness, explored=explored)
