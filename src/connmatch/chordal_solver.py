"""Polynomial maximum weight connected matching on chordal graphs with
non-negative weights.

The input g (n vertices, m edges) is doubled: g itself on vertices 0..n-1
with its own edge ids 0..m-1, a copy of g on n..2n-1, and one rung
``(v, v+n)`` per vertex. A perfect matching of the doubled graph restricts
to two matchings of g that leave the same vertices free (a free vertex is
exactly one whose rung is used), so a maximum weight perfect matching picks
the best matching of g twice. The answer is read back from the first copy:
keep its matched edges, then greedily saturate leftover vertex pairs joined
by weight-0 edges.

Rungs weigh 0, except at an articulation point of g, where they are priced
at ``-(1 + S)`` with S the sum of the positive weights. Some matching of g
saturates every articulation (pair each articulation into one of its child
blocks along the block-cutpoint tree), and the optimum never uses a penalty
rung. Two penalty rungs cost more than both copies can carry (2S). With
one, at articulation a, take the heavier copy M: some component C of
g - a holds at most S/2 of it, and replacing M on C and a by a matching
that saturates a and the articulations in C leaves a matching of weight
at least w(M) - S/2 that saturates every articulation; two copies of it
outweigh the perfect matching with the rung. Without the penalty the
matching may leave an articulation free and the extracted matching can
come out disconnected or overweighted.

Two checks run on every solve. The extracted matching weighs half the
perfect matching: the copies carry equal weight in an optimum, and a
penalty rung would make the first copy's weight negative to keep the
equality, so the check also proves that every articulation is saturated.
And the extracted matching is connected.
"""

from __future__ import annotations

from .graphs import (
    GraphError,
    Matching,
    WeightedGraph,
    articulation_points,
    chordal_peo,
    induced_by_matching_connected,
    is_connected,
)


def build_gp(g: WeightedGraph) -> WeightedGraph:
    """The doubled graph of ``g`` on 2n vertices: g's edges (same ids), a
    copy of g on n..2n-1, and a rung ``(v, v+n)`` per vertex, weighing 0
    except at an articulation, where a penalty keeps the rung out of any
    maximum weight perfect matching."""
    n = g.n
    arts = articulation_points(g)
    penalty = -(1 + sum(w for w in g.weights if w > 0))
    rungs = tuple(penalty if v in arts else 0 for v in range(n))
    return WeightedGraph.from_columns(
        2 * n,
        g.lo + tuple(u + n for u in g.lo) + tuple(range(n)),
        g.hi + tuple(v + n for v in g.hi) + tuple(range(n, 2 * n)),
        g.weights + g.weights + rungs,
    )


def max_weight_perfect_matching(g: WeightedGraph) -> Matching:
    """Exact maximum weight perfect matching (blossom algorithm).

    Raises if the vertex count is odd or no perfect matching exists.
    """
    if g.n % 2 != 0:
        raise GraphError("no perfect matching: odd number of vertices")
    if g.n == 0:
        return Matching(g, [])
    import networkx as nx

    nxg = nx.Graph()
    nxg.add_nodes_from(range(g.n))
    for u, v, w in g.edges:
        nxg.add_edge(u, v, weight=w)
    pairs = nx.max_weight_matching(nxg, maxcardinality=True)
    if 2 * len(pairs) != g.n:
        raise GraphError("no perfect matching exists")
    eids = []
    for u, v in pairs:
        eid = g.edge_id(u, v)
        assert eid is not None
        eids.append(eid)
    return Matching(g, eids)


def solve_chordal(g: WeightedGraph) -> tuple[int, Matching]:
    """Optimum connected matching on a connected chordal graph, weights >= 0."""
    if g.n == 0 or not is_connected(g):
        raise GraphError("chordal solver needs a connected non-empty graph")
    if any(w < 0 for w in g.weights):
        raise GraphError("chordal solver requires non-negative weights")
    if chordal_peo(g) is None:
        raise GraphError("graph is not chordal")

    mp = max_weight_perfect_matching(build_gp(g))

    # the doubled graph's ids below g.m are g's own edges
    eids = [eid for eid in mp.edge_ids if eid < g.m]
    saturated = {x for eid in eids for x in g.endpoints(eid)}
    # saturate a maximal set of weight-0 edges over free vertices,
    # scanning in edge-id order for determinism
    for eid, (u, v, w) in enumerate(g.edges):
        if w == 0 and u not in saturated and v not in saturated:
            eids.append(eid)
            saturated.update((u, v))

    matching = Matching(g, eids)
    if 2 * matching.weight != mp.weight:
        raise GraphError("internal error: the copies differ or an articulation is free")
    if not induced_by_matching_connected(g, matching):
        raise GraphError("internal error: extracted matching is not connected")
    return matching.weight, matching
