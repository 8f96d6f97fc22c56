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

Trees of 4096 vertices or more run the same DP in numpy on the graph's
int64 columns (:func:`_solve_tree_layered`). It needs no adjacency lists,
no CSR and no BFS: it roots the tree by peeling rounds of leaves, with each
vertex's parent read off the XOR of its remaining neighbour ids, and runs
the DP once per round. The witness is handed to :class:`Matching` as an id
array, so a bulk-parsed tree is solved without one Python object per edge.
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
    """Vectorized variant of the same DP on int64 arrays, one round of
    leaves at a time.

    The tree is rooted by peeling leaves with ``root`` pinned. Each vertex
    keeps its degree and the XOR of its remaining neighbour ids and of its
    remaining incident edge ids, so a leaf's parent and parent edge are its
    two XORs; peeling a round of leaves updates their parents' XORs and
    degrees, and the parents left with degree 1 are the next round. A vertex
    is peeled only after all its children, so the DP runs once per round.
    The witness is rebuilt top-down over the rounds in reverse.

    Returns None when the instance is unsuitable (possible int64 overflow or
    more rounds than ``max_rounds``, where per-round overhead dominates).
    Produces results identical to the Python path; the equivalence is pinned
    by tests.
    """
    import numpy as np

    n = g.n
    ew = g.weight_array()
    if ew is None:
        return None
    # exact: np.abs wraps at -2**63
    max_abs = max(-int(ew.min()), int(ew.max())) if ew.size else 0
    if (max_abs + 1) * (n + 1) >= 2**62:
        return None
    eu, ev = g.endpoint_arrays()
    eids = np.arange(g.m, dtype=np.int64)

    deg = np.bincount(eu, minlength=n) + np.bincount(ev, minlength=n)
    deg[root] += n + 1  # pinned: its degree never falls to 1
    nbr_x = np.zeros(n, dtype=np.int64)
    edge_x = np.zeros(n, dtype=np.int64)
    np.bitwise_xor.at(nbr_x, eu, ev)
    np.bitwise_xor.at(nbr_x, ev, eu)
    np.bitwise_xor.at(edge_x, eu, eids)
    np.bitwise_xor.at(edge_x, ev, eids)
    del eids

    parent = np.full(n, -1, dtype=np.int64)
    parent_edge = np.full(n, -1, dtype=np.int64)
    slot = np.zeros(n, dtype=np.int64)  # scratch for removing repeats
    rounds = []
    leaves = np.flatnonzero(deg == 1)
    peeled = 0
    max_rounds = 20000
    while leaves.size:
        if len(rounds) >= max_rounds:
            return None
        rounds.append(leaves)
        peeled += leaves.size
        ps = nbr_x[leaves]
        pe = edge_x[leaves]
        parent[leaves] = ps
        parent_edge[leaves] = pe
        np.bitwise_xor.at(nbr_x, ps, leaves)
        np.bitwise_xor.at(edge_x, ps, pe)
        np.subtract.at(deg, ps, 1)
        nxt = ps[deg[ps] == 1]
        # Keep one copy of each: whichever write to a slot lands, exactly
        # one copy finds its own position there.
        pos = np.arange(nxt.size, dtype=np.int64)
        slot[nxt] = pos
        leaves = nxt[slot[nxt] == pos]
    if peeled != n - 1:
        raise GraphError("not a tree: graph is disconnected")
    del nbr_x, edge_x, deg, slot
    parent[root] = root

    SENT = -(2**62)
    score = np.zeros(n, dtype=np.int64)
    score_un = np.zeros(n, dtype=np.int64)
    best_gain = np.full(n, SENT, dtype=np.int64)
    best_child = np.full(n, n, dtype=np.int64)  # n acts as "none"

    for vs in rounds:
        bg = best_gain[vs]
        su = score_un[vs]
        sv = np.where(bg != SENT, su + bg, 0)
        score[vs] = sv
        ps = parent[vs]
        mb = np.maximum(sv, 0)
        np.add.at(score_un, ps, mb)
        gains = su + ew[parent_edge[vs]] - mb
        before = best_gain[ps]
        np.maximum.at(best_gain, ps, gains)
        after = best_gain[ps]
        # A parent's children fall in different rounds: a larger gain than
        # an earlier round's drops that round's best child.
        best_child[ps[after > before]] = n
        tie = gains == after
        np.minimum.at(best_child, ps[tie], vs[tie])
    bg = best_gain[root]
    score[root] = score_un[root] + bg if bg != SENT else 0

    best = int(score.max())
    if best <= 0:
        return 0, Matching(g, [])
    top = int(np.flatnonzero(score == best)[0])

    # Top-down: a round's parents lie in later rounds (or are the root), so
    # every round is visited, and only ``top`` and the vertices below it
    # can be active.
    active = np.zeros(n, dtype=bool)
    mate_open = np.zeros(n, dtype=bool)
    active[top] = True
    chosen = []
    for vs in [np.array([root], dtype=np.int64), *reversed(rounds)]:
        ps = parent[vs]
        act = active[vs] | (
            (score[vs] > 0) & ((active[ps] & (vs != best_child[ps])) | mate_open[ps])
        )
        sat = vs[act]
        if sat.size:
            active[sat] = True
            mates = best_child[sat]
            chosen.append(parent_edge[mates])
            mate_open[mates] = True
    return best, Matching(g, np.concatenate(chosen))


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
