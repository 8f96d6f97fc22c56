"""The tree DP as it stood before leaf peeling rooted every tree: a
reference the tree-solver tests compare against.

It roots the tree by BFS over ``g.adj``, runs the recurrences in reverse BFS
order, and rebuilds the witness by walking ``adj`` again. ``tree_dp`` and
``_reconstruct`` below are kept verbatim; do not change them to follow the
library, or the comparison loses its point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from connmatch.graphs import GraphError, WeightedGraph

_NEG = float("-inf")



@dataclass
class TreeDpState:
    """Per-vertex DP values for one rooting of the tree."""

    root: int
    parent: list[int]
    parent_edge: list[int]
    order: list[int]  # BFS order from the root
    score: list[int]  # best weight with v matched to a child (0 at leaves)
    score_unmatched: list[int]  # sum of positive child scores
    best_child: list[Optional[int]]


def tree_dp(g: WeightedGraph, root: int = 0) -> TreeDpState:
    """Run the rooted DP; raises if ``g`` is not a connected tree."""
    n = g.n
    if n == 0:
        raise GraphError("tree solver needs at least one vertex")
    if g.m != n - 1:
        raise GraphError("not a tree: edge count differs from n-1")
    if not (0 <= root < n):
        raise GraphError(f"root {root} out of range")

    adj = g.adj
    if n == 1:
        return TreeDpState(root, [root], [-1], [root], [0], [0], [None])
    eu, ev, ew = g.lo, g.hi, g.weights

    parent = [-1] * n
    parent_edge = [-1] * n
    wpar = [0] * n
    order = [root]
    parent[root] = root
    append = order.append
    head = 0
    while head < len(order):
        v = order[head]
        head += 1
        for eid in adj[v]:
            a = eu[eid]
            u = ev[eid] if a == v else a
            if parent[u] == -1:
                parent[u] = v
                parent_edge[u] = eid
                wpar[u] = ew[eid]
                append(u)
    if len(order) != n:
        raise GraphError("not a tree: graph is disconnected")

    score = [0] * n
    score_un = [0] * n
    best_gain = [_NEG] * n
    best_child: list[Optional[int]] = [None] * n

    for i in range(n - 1, -1, -1):
        v = order[i]
        bg = best_gain[v]
        su = score_un[v]
        sv = su + bg if bg != _NEG else 0
        score[v] = sv
        if v == root:
            continue
        p = parent[v]
        mb = sv if sv > 0 else 0
        score_un[p] += mb
        gain = su + wpar[v] - mb
        pg = best_gain[p]
        if gain > pg or (gain == pg and v < best_child[p]):
            best_gain[p] = gain
            best_child[p] = v

    return TreeDpState(
        root=root,
        parent=parent,
        parent_edge=parent_edge,
        order=order,
        score=score,
        score_unmatched=score_un,
        best_child=best_child,
    )


def _reconstruct(g: WeightedGraph, state: TreeDpState, top: int) -> list[int]:
    adj = g.adj
    eu, ev = g.lo, g.hi
    parent = state.parent
    score = state.score
    best_child = state.best_child
    parent_edge = state.parent_edge
    chosen = []
    stack = [top]
    while stack:
        v = stack.pop()
        b = best_child[v]
        chosen.append(parent_edge[b])
        for eid in adj[v]:
            a = eu[eid]
            u = ev[eid] if a == v else a
            if u != b and parent[u] == v and score[u] > 0:
                stack.append(u)
        for eid in adj[b]:
            a = eu[eid]
            u = ev[eid] if a == b else a
            if parent[u] == b and score[u] > 0:
                stack.append(u)
    return chosen

