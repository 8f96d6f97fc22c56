"""Linear-time maximum weight connected matching on trees.

Rooted DP: for each vertex ``v``, ``score[v]`` is the best weight of a
connected matching inside ``v``'s subtree that saturates ``v`` by matching it
to one of its children (0 at leaves), and ``score_unmatched[v]`` is the total
of the positive child scores, i.e. the best extension hanging below ``v``
when ``v`` itself is saturated from above. The candidate for matching ``v``
to child ``u`` is::

    score_unmatched[u] + w(vu) + sum over other children s of max(score[s], 0)

where the trailing sum is obtained from ``score_unmatched[v]`` by subtracting
``max(score[u], 0)``, keeping the whole pass linear. The overall optimum is
``max(0, max_v score[v])``; the witness is rebuilt by following the recorded
best-child links.

Everything is iterative (million-vertex trees must not touch the recursion
limit) and the hot loops index flat arrays; attribute lookups and method
calls in them are deliberately avoided.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .graphs import GraphError, Matching, WeightedGraph

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


def _solve_tree_layered(g: WeightedGraph, root: int) -> Optional[tuple[int, Matching]]:
    """Vectorized variant of the same DP, processing BFS layers with numpy.

    Returns None when the instance is unsuitable (possible int64 overflow or
    a decomposition into too many layers, where per-layer overhead dominates).
    Produces results identical to the Python path; the equivalence is pinned
    by tests.
    """
    import numpy as np

    n = g.n
    max_abs = max(map(abs, g.weights), default=0)
    if (max_abs + 1) * (n + 1) >= 2**62:
        return None

    eu, ev = g.endpoint_arrays()
    ew = np.array(g.weights, dtype=np.int64)
    eids = np.arange(g.m, dtype=np.int64)

    src = np.concatenate([eu, ev])
    dst = np.concatenate([ev, eu])
    dw = np.concatenate([ew, ew])
    did = np.concatenate([eids, eids])
    perm = np.argsort(src, kind="stable")
    dst, dw, did = dst[perm], dw[perm], did[perm]
    deg = np.bincount(src, minlength=n)
    starts = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(deg, out=starts[1:])

    SENT = -(2**62)
    parent = np.full(n, -1, dtype=np.int64)
    parent_edge = np.full(n, -1, dtype=np.int64)
    wpar = np.zeros(n, dtype=np.int64)
    parent[root] = root
    frontier = np.array([root], dtype=np.int64)
    layers = [frontier]
    visited = 1
    max_layers = 20000
    while frontier.size:
        if len(layers) > max_layers:
            return None
        cnt = deg[frontier]
        total = int(cnt.sum())
        if total == 0:
            break
        cum = np.cumsum(cnt)
        offs = np.arange(total, dtype=np.int64) - np.repeat(cum - cnt, cnt)
        pos = np.repeat(starts[frontier], cnt) + offs
        nb = dst[pos]
        mask = parent[nb] == -1
        new = nb[mask]
        if new.size == 0:
            break
        parent[new] = np.repeat(frontier, cnt)[mask]
        parent_edge[new] = did[pos][mask]
        wpar[new] = dw[pos][mask]
        visited += new.size
        frontier = new
        layers.append(frontier)
    if visited != n:
        raise GraphError("not a tree: graph is disconnected")

    score = np.zeros(n, dtype=np.int64)
    score_un = np.zeros(n, dtype=np.int64)
    best_gain = np.full(n, SENT, dtype=np.int64)
    best_child = np.full(n, n, dtype=np.int64)  # n acts as "none"

    for d in range(len(layers) - 1, -1, -1):
        vs = layers[d]
        bg = best_gain[vs]
        su = score_un[vs]
        sv = np.where(bg != SENT, su + bg, 0)
        score[vs] = sv
        if d == 0:
            break
        ps = parent[vs]
        mb = np.maximum(sv, 0)
        np.add.at(score_un, ps, mb)
        gains = su + wpar[vs] - mb
        np.maximum.at(best_gain, ps, gains)
        tie = gains == best_gain[ps]
        np.minimum.at(best_child, ps[tie], vs[tie])

    best = int(score.max())
    if best <= 0:
        return 0, Matching(g, [])
    top = int(np.flatnonzero(score == best)[0])

    depth = np.zeros(n, dtype=np.int64)
    for i, layer in enumerate(layers):
        depth[layer] = i
    d_top = int(depth[top])

    active = np.zeros(n, dtype=bool)
    mate_open = np.zeros(n, dtype=bool)
    chosen: list = []
    for d in range(d_top, len(layers)):
        layer = layers[d]
        if d == d_top:
            active[top] = True
        else:
            ps = parent[layer]
            active[layer] = (score[layer] > 0) & (
                (active[ps] & (layer != best_child[ps])) | mate_open[ps]
            )
        sat = layer[active[layer]]
        if sat.size:
            mates = best_child[sat]
            chosen.append(parent_edge[mates])
            mate_open[mates] = True
        elif not mate_open[layer].any():
            break
    edge_ids = np.concatenate(chosen).tolist() if chosen else []
    return best, Matching(g, edge_ids)


def solve_tree(g: WeightedGraph, root: int = 0) -> tuple[int, Matching]:
    """Optimum connected matching weight and a witness for a tree.

    The all-non-positive case yields weight 0 with the empty matching. Large
    trees are solved by the layered numpy variant of the DP when applicable.
    """
    if g.n >= 4096:
        if g.m != g.n - 1:
            raise GraphError("not a tree: edge count differs from n-1")
        if not (0 <= root < g.n):
            raise GraphError(f"root {root} out of range")
        result = _solve_tree_layered(g, root)
        if result is not None:
            return result
    state = tree_dp(g, root)
    best = max(state.score)
    if best <= 0:
        return 0, Matching(g, [])
    top = min(v for v in range(g.n) if state.score[v] == best)
    matching = Matching(g, _reconstruct(g, state, top))
    return best, matching
