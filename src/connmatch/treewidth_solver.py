"""Single-exponential maximum weight connected matching via dynamic
programming over a nice tree decomposition with rank-based table pruning.

Each node ``x`` keeps one plain dict as its table. A cell is keyed by
``(S, U)``, the matched and the half-matched bag vertices (disjoint), each a
bitmask over positions in the node's sorted bag. Its value is an entry dict
of :mod:`connmatch.partitions` over the ground set ``S | U`` in bag order:
each partition tracks which selected bag vertices are already connected
through the partial solution below ``x``, with the best matched weight so
far. Transitions:

* introduce ``v``: either skip ``v``; commit it half-matched (gluing its
  block to all already-selected bag neighbors, since any edge between two
  saturated vertices is part of the induced subgraph); or match it to a
  half-matched bag neighbor ``u``, paying the edge weight. ``u`` is one of
  the glued neighbors, so both cells share one glued entry dict, built once
  per child cell; mates are visited in bag order.
* forget ``v``: solutions with ``v`` unused pass through; solutions with
  ``v`` matched survive only if ``v``'s block keeps another bag contact
  (project); half-matched vertices must not be forgotten, so those entries
  are dropped.
* join: combine children cells whose matched sets partition ``S``, with the
  other side's matched vertices counted half-matched, overlaying partitions
  and adding weights. A left cell ``(Sy, Uy)`` combines only with right
  cells ``(Sz, Sy | (Uy - Sz))`` for ``Sz`` a submask of ``Uy``, so each left
  cell looks up its at most ``2^|Uy|`` partners instead of scanning the
  right table; partners are visited in right-table order, so cells are
  built exactly as a scan over all pairs would build them.

One bottom-up pass builds every table. A child table is dropped once its
parent is built, so a cell that passes through unchanged keeps its child's
entry dict instead of copying it. Pruning reduces a cell over the
``2^(|S | U| - 1)`` bound only once its node's table is built.

A completed connected matching surfaces exactly where its last saturated
vertex ``v`` is forgotten: the child cell ``({v}, {})`` holds it as a
single-block entry, so the same pass reads off the optimum at every forget.
"""

from __future__ import annotations

from typing import Iterator, Optional

from .graphs import GraphError, Matching, WeightedGraph, is_connected
from .partitions import (
    glue_entries,
    insert_entries,
    join_entries,
    merge_entries,
    project_entries,
    reduce_entries,
    trace_edges,
)
from .treedecomp import NiceNode, NiceTreeDecomposition, TreeDecomposition, heuristic_td, make_nice, validate_td


def _below(bag, v: int) -> int:
    """The position ``v`` has, or would have, in the sorted ``bag``."""
    return sum(1 for u in bag if u < v)


def _introduce(g: WeightedGraph, node: NiceNode, child: dict) -> dict:
    v = node.vertex
    bag_rank = {u: i for i, u in enumerate(sorted(node.bag))}
    bit = 1 << bag_rank[v]
    low = bit - 1
    # v's bag neighbours: position bit -> (edge id, weight)
    edge_at = {}
    for eid in g.adj[v]:
        r = bag_rank.get(g.other(eid, v))
        if r is not None:
            edge_at[1 << r] = (eid, g.weight(eid))
    nbrs = sum(edge_at)  # distinct bits, so the sum is their union

    table: dict = {}
    for (s, u), entries in child.items():
        s = (s & low) | ((s & ~low) << 1)
        u = (u & low) | ((u & ~low) << 1)
        table[(s, u)] = entries  # v stays unused
        sel = s | u
        q = (sel & low).bit_count()
        half = insert_entries(entries, q)
        links = sel & nbrs
        if links:
            sel |= bit
            block = [q]
            while links:
                r = links & -links
                links ^= r
                block.append((sel & (r - 1)).bit_count())
            half = glue_entries(half, block)
        table[(s, u | bit)] = half
        mates = u & nbrs
        while mates:
            r = mates & -mates
            mates ^= r
            eid, ew = edge_at[r]
            cell = (s | bit | r, u ^ r)
            out = table.get(cell)
            if out is None:
                out = table[cell] = {}
            for labels, (w, tr) in half.items():
                w += ew
                cur = out.get(labels)
                if cur is None or w > cur[0]:
                    out[labels] = (w, ("e", eid, tr))
    return table


def _forget(node: NiceNode, child: dict) -> dict:
    p = _below(node.bag, node.vertex)
    bit = 1 << p
    low = bit - 1
    table: dict = {}
    for (s, u), entries in child.items():
        if u & bit:
            continue  # half-matched vertices must not be forgotten
        cell = ((s & low) | ((s >> 1) & ~low), (u & low) | ((u >> 1) & ~low))
        out = table.get(cell)
        if s & bit:
            q = ((s | u) & low).bit_count()  # v's ground position
            if out is None:
                out = {}
            project_entries(entries, (q,), out)
            if out:  # a cell only when some entry survives
                table[cell] = out
        elif out is None:
            table[cell] = entries
        else:
            merge_entries(out, entries)
    return table


def _splits(u: int) -> list[tuple[int, int]]:
    """Every ``(sz, u - sz)`` with ``sz`` a submask of ``u``."""
    out = []
    sz = u
    while True:
        out.append((sz, u ^ sz))
        if not sz:
            return out
        sz = (sz - 1) & u


def _join(left: dict, right: dict, memo: dict) -> dict:
    right_pos = {cell: i for i, cell in enumerate(right)}
    right_entries = list(right.values())
    splits: dict = {}
    table: dict = {}
    for (sy, uy), a in left.items():
        by_u = splits.get(uy)
        if by_u is None:
            by_u = splits[uy] = _splits(uy)
        partners = []
        for sz, shared in by_u:
            i = right_pos.get((sz, sy | shared))
            if i is not None:
                partners.append((i, sz | sy, shared))
        partners.sort()  # right-table positions are unique
        for i, s, shared in partners:
            cell = (s, shared)
            out = table.get(cell)
            if out is None:
                out = table[cell] = {}
            join_entries(a, right_entries[i], out, memo)
    return table


def _node_table(
    g: WeightedGraph, node: NiceNode, child_tables: list[dict], use_reduce: bool, memo: dict
) -> dict:
    """The table of ``node`` from its children's tables; ``memo`` is the
    solve's overlay memo (see :func:`join_entries`). With ``use_reduce``, each
    cell over ``2^(|S | U| - 1)`` entries is reduced once the table is built."""
    kind = node.kind
    if kind == "leaf":
        return {(0, 0): {(): (0, None)}}
    if kind == "introduce":
        table = _introduce(g, node, child_tables[0])
    elif kind == "forget":
        table = _forget(node, child_tables[0])
    elif kind == "join":
        table = _join(child_tables[0], child_tables[1], memo)
    else:
        raise AssertionError(f"unknown node kind {kind!r}")
    if use_reduce:
        for (s, u), entries in table.items():
            if len(entries) > 1:
                ground = (s | u).bit_count()
                if len(entries) > 1 << (ground - 1):
                    table[(s, u)] = reduce_entries(entries, ground)
    return table


def _walk(g: WeightedGraph, nd: NiceTreeDecomposition, use_reduce: bool) -> Iterator[tuple]:
    """``(x, table, child_tables)`` for every node ``x`` in postorder: its
    table and the child tables it was built from, which the walk then drops.

    A forget's pass-through cells share its child's entry dicts, and the
    forget may merge more entries into them: each table is handed out before
    the next step can change it, so use it before asking for the next node.
    The forget never changes its child's cell ``({v}, {})``, so reading that
    cell off the yielded child table sees it as the child's step built it.
    """
    tables: dict[int, dict] = {}
    memo: dict = {}  # join overlays, shared by this walk's joins only
    for x in nd.postorder():
        node = nd.nodes[x]
        kids = [tables.pop(c) for c in node.children]
        table = tables[x] = _node_table(g, node, kids, use_reduce, memo)
        yield x, table, kids
        kids.clear()  # the caller may still hold the list: drop the children now


def _run_dp(g: WeightedGraph, nd: NiceTreeDecomposition, use_reduce: bool) -> Optional[tuple]:
    """Bottom-up pass over all nodes, reading candidates at every forget.

    A ``(weight, trace)`` pair of the best single-block entry found in a
    child cell ``({v}, {})`` across all forget nodes, or None.
    """
    best: Optional[tuple] = None
    for x, _, kids in _walk(g, nd, use_reduce):
        node = nd.nodes[x]
        if node.kind == "forget":
            cell = kids[0].get((1 << _below(node.bag, node.vertex), 0))
            if cell is not None:
                top = cell[(0,)]  # the only partition of a one-element ground
                if best is None or top[0] > best[0]:
                    best = top
    return best


def _witness(g: WeightedGraph, candidate: Optional[tuple]) -> tuple[int, Matching]:
    if candidate is None or candidate[0] <= 0:
        return 0, Matching(g, [])
    weight, trace = candidate
    matching = Matching(g, trace_edges(trace))
    if matching.weight != weight:
        raise GraphError("internal error: witness weight mismatch")
    return weight, matching


def solve_treewidth(
    g: WeightedGraph,
    td: Optional[TreeDecomposition] = None,
    *,
    use_reduce: bool = True,
) -> tuple[int, Matching]:
    """Optimum connected matching weight and witness via the treewidth DP.

    ``td`` defaults to a min-fill heuristic decomposition. ``use_reduce``
    toggles the representative-set pruning (results must not change; the
    flag exists for the equivalence harness).
    """
    if g.n == 0:
        raise GraphError("treewidth solver needs a non-empty graph")
    if not is_connected(g):
        raise GraphError("treewidth solver expects a connected graph")
    if td is None:
        td = heuristic_td(g)
    validate_td(g, td)

    # validate_td has checked that the bags cover vertex 0
    return _witness(g, _run_dp(g, make_nice(td, 0), use_reduce))
