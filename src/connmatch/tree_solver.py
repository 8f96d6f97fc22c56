"""Linear-time maximum weight connected matching on trees.

Rooted DP: for each vertex ``v``, ``score[v]`` is the best weight of a
connected matching inside ``v``'s subtree that saturates ``v`` by matching it
to one of its children (0 at leaves), and ``score_unmatched[v]`` is the total
of the positive child scores, i.e. the best extension hanging below ``v``
when ``v`` itself is saturated from above. The candidate for matching ``v``
to child ``u`` is::

    score_unmatched[u] + w(vu) + sum over other children s of max(score[s], 0)

where the trailing sum is obtained from ``score_unmatched[v]`` by subtracting
``max(score[u], 0)``, keeping the whole pass linear. Ties go to the child of
smallest id. The overall optimum is ``max(0, max_v score[v])``, reached first
at the vertex ``top`` of smallest id; the witness is rebuilt top-down from
the recorded best-child links.

The tree is rooted by peeling leaves with the root pinned, without
adjacency lists or a search: each vertex keeps its degree and the XOR of its
remaining neighbour ids and of its remaining incident edge ids, so a leaf's
parent and parent edge are its two XORs. A vertex is peeled only after all
its children, so the DP runs in peeling order, and the witness in reverse.

The one algorithm runs two ways, which share one numpy setup
(:func:`_peel_start`: the degrees and the two XORs, from the graph's int64
endpoint columns). :func:`_solve_tree_layered` peels whole rounds of leaves
in numpy, paying a fixed cost per round; :func:`_solve_tree_scalar` takes
the setup as Python lists and peels one leaf at a time from a FIFO, paying
per vertex. A numpy round costs about as much as 25 scalar steps, so the
rounds pay only while they are wide: they give up once they average fewer
than ``WIDE`` vertices, and the scalar loop then solves the tree from a
fresh setup. A deep tree, such as a path or a caterpillar, thus loses at
most about a tenth of the scalar loop's time to rounds it gives up, and a
tree of fewer than ``WIDE`` vertices pays the setup but skips the rounds,
which could not pass the rule. Weights outside the int64 guard also take
the scalar loop; the setup reads only the endpoints, which always fit.
"""

from __future__ import annotations

from typing import Optional

from .graphs import GraphError, Matching, WeightedGraph

_NEG = float("-inf")

# The fewest vertices per round, on average, for which the numpy rounds
# keep going. A round costs about as much as 25 scalar steps, so at 256 per
# round its fixed cost stays near a tenth of the scalar loop's time, and so
# do the rounds thrown away when they give up.
WIDE = 256


def _peel_start(g: WeightedGraph, root: int):
    """Each vertex's degree and the XORs of its neighbour ids and of its
    incident edge ids, as int64 arrays, with ``root`` pinned: its degree
    gets ``n + 1`` more, so it never falls to 1."""
    import numpy as np

    n = g.n
    eu, ev = g.endpoint_arrays()
    eids = np.arange(g.m, dtype=np.int64)
    deg = np.bincount(eu, minlength=n) + np.bincount(ev, minlength=n)
    deg[root] += n + 1
    nbr_x = np.zeros(n, dtype=np.int64)
    edge_x = np.zeros(n, dtype=np.int64)
    np.bitwise_xor.at(nbr_x, eu, ev)
    np.bitwise_xor.at(nbr_x, ev, eu)
    np.bitwise_xor.at(edge_x, eu, eids)
    np.bitwise_xor.at(edge_x, ev, eids)
    return deg, nbr_x, edge_x


def _solve_tree_scalar(g: WeightedGraph, root: int) -> tuple[int, Matching]:
    """The DP one vertex at a time, on Python ints.

    Leaves are peeled from a FIFO with ``root`` pinned, and each peeled
    vertex's recurrences run at once: all its children were peeled before
    it. Once ``v`` is peeled its two XORs change no more, so they stay its
    parent and parent edge for the witness.
    """
    import numpy as np

    n = g.n
    ew = g.weights
    deg, nbr_x, edge_x = [a.tolist() for a in _peel_start(g, root)]
    order = [v for v in range(n) if deg[v] == 1]
    append = order.append

    score = [0] * n
    score_un = [0] * n
    best_gain = [_NEG] * n
    best_child = [-1] * n
    for v in order:
        # A queued leaf whose last neighbour was peeled first: the two
        # closed a component without the root.
        if deg[v] != 1:
            raise GraphError("not a tree: graph is disconnected")
        p = nbr_x[v]
        e = edge_x[v]
        nbr_x[p] ^= v
        edge_x[p] ^= e
        d = deg[p] - 1
        deg[p] = d
        if d == 1:
            append(p)
        bg = best_gain[v]
        su = score_un[v]
        sv = su + bg if bg != _NEG else 0
        score[v] = sv
        mb = sv if sv > 0 else 0
        score_un[p] += mb
        gain = su + ew[e] - mb
        pg = best_gain[p]
        if gain > pg or (gain == pg and v < best_child[p]):
            best_gain[p] = gain
            best_child[p] = v
    if len(order) != n - 1:
        raise GraphError("not a tree: graph is disconnected")
    del deg
    order.append(root)
    parent, parent_edge = nbr_x, edge_x
    parent[root] = root
    bg = best_gain[root]
    score[root] = score_un[root] + bg if bg != _NEG else 0

    best = max(score)
    if best <= 0:
        return 0, Matching(g, [])
    top = score.index(best)

    active = [False] * n
    mate_open = [False] * n
    active[top] = True
    chosen = []
    for v in reversed(order):
        if not active[v]:
            p = parent[v]
            if score[v] <= 0 or not (mate_open[p] or (active[p] and v != best_child[p])):
                continue
            active[v] = True
        b = best_child[v]
        chosen.append(parent_edge[b])
        mate_open[b] = True
    # given an id array, the matching reads the endpoint arrays, so the
    # lo/hi tuples are never built
    return best, Matching(g, np.array(chosen, dtype=np.int64))


def _solve_tree_layered(g: WeightedGraph, root: int) -> Optional[tuple[int, Matching]]:
    """Vectorized variant of the same DP on int64 arrays, one round of
    leaves at a time.

    The tree is rooted by peeling leaves with ``root`` pinned, from the
    state :func:`_peel_start` sets up: a leaf's parent and parent edge are
    its two XORs, peeling a round of leaves updates their parents' XORs and
    degrees, and the parents left with degree 1 are the next round. A vertex
    is peeled only after all its children, so the DP runs once per round.
    The witness is rebuilt top-down over the rounds in reverse.

    Returns None when the instance is unsuitable: possible int64 overflow,
    or rounds that average fewer than ``WIDE`` vertices, where the per-round
    overhead dominates. Produces results identical to the scalar loop; the
    equivalence is pinned by tests.
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
    deg, nbr_x, edge_x = _peel_start(g, root)

    parent = np.full(n, -1, dtype=np.int64)
    parent_edge = np.full(n, -1, dtype=np.int64)
    slot = np.zeros(n, dtype=np.int64)  # scratch for removing repeats
    rounds = []
    leaves = np.flatnonzero(deg == 1)
    peeled = 0
    while leaves.size:
        if (len(rounds) + 1) * WIDE > peeled + leaves.size:
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

    The all-non-positive case yields weight 0 with the empty matching.
    Raises :class:`GraphError` if ``g`` is not a connected tree.
    """
    n = g.n
    if n == 0:
        raise GraphError("tree solver needs at least one vertex")
    if g.m != n - 1:
        raise GraphError("not a tree: edge count differs from n-1")
    if not (0 <= root < n):
        raise GraphError(f"root {root} out of range")
    if n >= WIDE:
        result = _solve_tree_layered(g, root)
        if result is not None:
            return result
    return _solve_tree_scalar(g, root)
