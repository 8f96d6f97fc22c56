"""Single-exponential maximum weight connected matching via dynamic
programming over a nice tree decomposition with rank-based table pruning.

Each node ``x`` keeps a table mapping ``(S, U)`` (matched bag vertices,
half-matched bag vertices, disjoint) to a :class:`WeightedPartitionSet` over
ground set ``S | U``: the partition tracks which selected bag vertices are
already connected through the partial solution below ``x``; the weight is
the matched weight so far. Transitions:

* introduce ``v``: either skip ``v``; commit it half-matched (gluing its
  block to all already-selected bag neighbors, since any edge between two
  saturated vertices is part of the induced subgraph); or match it to a
  half-matched bag neighbor ``u``, paying the edge weight.
* forget ``v``: solutions with ``v`` unused pass through; solutions with
  ``v`` matched survive only if ``v``'s block keeps another bag contact
  (project); half-matched vertices must not be forgotten, so those entries
  are dropped.
* join: combine children cells whose matched sets partition ``S``, with the
  other side's matched vertices counted half-matched, overlaying partitions
  and adding weights. A left cell ``(Sy, Uy)`` combines only with right
  cells ``(Sz, Sy | (Uy - Sz))`` for ``Sz`` a subset of ``Uy``, so each left
  cell looks up its at most ``2^|Uy|`` partners instead of scanning the
  right table; partners are visited in right-table order, so cells are
  built exactly as a scan over all pairs would build them.

A completed connected matching surfaces exactly where its last saturated
vertex ``v`` is forgotten: the child cell ``({v}, {})`` holds it as a
single-block entry. Scanning every forget node therefore reads off the
optimum in one pass.
"""

from __future__ import annotations

from typing import Optional

from .graphs import GraphError, Matching, WeightedGraph, is_connected
from .partitions import WeightedPartitionSet, overlay_memo, trace_edges
from .treedecomp import NiceTreeDecomposition, TreeDecomposition, make_nice, validate_td

Cell = tuple[frozenset, frozenset]


def _reduce_cell(wps: WeightedPartitionSet, use_reduce: bool) -> WeightedPartitionSet:
    return wps.reduce() if use_reduce else wps


def _accumulate(table: dict, cell: Cell, wps: WeightedPartitionSet) -> None:
    cur = table.get(cell)
    if cur is None:
        table[cell] = wps.copy()
    else:
        cur.union_into(wps)


def _splits(u: frozenset) -> list[tuple[frozenset, frozenset]]:
    """Every ``(sz, u - sz)`` with ``sz`` a subset of ``u``."""
    subsets = [frozenset()]
    for v in u:
        subsets += [sz | {v} for sz in subsets]
    return [(sz, u - sz) for sz in subsets]


def _node_table(
    g: WeightedGraph,
    nd: NiceTreeDecomposition,
    x: int,
    child_tables: list[dict],
    use_reduce: bool,
) -> dict:
    node = nd.nodes[x]
    kind = node.kind
    table: dict = {}

    if kind == "leaf":
        empty: frozenset = frozenset()
        table[(empty, empty)] = WeightedPartitionSet.empty_partition_unit()
        return table

    if kind == "introduce":
        (child,) = child_tables
        v = node.vertex
        nbrs_v = set(g.neighbors(v))
        for (s, u), wps in child.items():
            _accumulate(table, (s, u), wps)  # v stays unused
            selected = s | u
            links = nbrs_v & selected
            inserted = wps.insert([v])
            half = inserted.glue({v} | links)
            _accumulate(table, (s, u | {v}), half)
            for mate in u & nbrs_v:
                eid = g.edge_id(v, mate)
                merged = inserted.glue({v, mate} | links)
                matched = merged.shift(g.weight(eid), edge=eid)
                _accumulate(table, (s | {v, mate}, u - {mate}), matched)
        return {cell: _reduce_cell(wps, use_reduce) for cell, wps in table.items()}

    if kind == "forget":
        (child,) = child_tables
        v = node.vertex
        for (s, u), wps in child.items():
            if v in u:
                continue  # half-matched vertices must not be forgotten
            if v in s:
                projected = wps.project({v})
                if projected.entries:
                    _accumulate(table, (s - {v}, u), projected)
            else:
                _accumulate(table, (s, u), wps)
        return {cell: _reduce_cell(wps, use_reduce) for cell, wps in table.items()}

    if kind == "join":
        left, right = child_tables
        bound_factor = 4
        right_pos = {cell: i for i, cell in enumerate(right)}
        splits: dict = {}
        for (sy, uy), a in left.items():
            by_u = splits.get(uy)
            if by_u is None:
                by_u = splits[uy] = _splits(uy)
            partners = []
            for sz, shared in by_u:
                partner = (sz, sy | shared)
                i = right_pos.get(partner)
                if i is not None:
                    partners.append((i, sz, shared, partner))
            partners.sort()  # right-table positions are unique
            for _, sz, shared, partner in partners:
                cell = (sy | sz, shared)
                _accumulate(table, cell, a.join(right[partner]))
                wps = table[cell]
                if use_reduce and len(wps) > bound_factor * (1 << max(len(wps.ground) - 1, 0)):
                    table[cell] = wps.reduce()
        return {cell: _reduce_cell(wps, use_reduce) for cell, wps in table.items()}

    raise AssertionError(f"unknown node kind {kind!r}")


def _run_dp(
    g: WeightedGraph,
    nd: NiceTreeDecomposition,
    use_reduce: bool,
) -> Optional[tuple]:
    """Bottom-up pass over all nodes, reading candidates at every forget.

    A ``(weight, trace)`` pair of the best single-block entry found in a
    child cell ``({v}, {})`` across all forget nodes, or None.
    """
    tables: dict[int, dict] = {}
    best: Optional[tuple] = None

    for x in nd.postorder():
        node = nd.nodes[x]
        kids = node.children
        if node.kind == "forget":
            cell = tables[kids[0]].get((frozenset([node.vertex]), frozenset()))
            if cell is not None:
                top = cell.best()
                if top is not None and (best is None or top[0] > best[0]):
                    best = (top[0], top[2])
        child_tabs = [tables[c] for c in kids]
        tables[x] = _node_table(g, nd, x, child_tabs, use_reduce)
        for c in kids:
            del tables[c]
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
        from .treedecomp import heuristic_td

        td = heuristic_td(g)
    validate_td(g, td)

    pi0 = min(set().union(*td.bags))
    nd = make_nice(td, pi0)
    with overlay_memo():
        best = _run_dp(g, nd, use_reduce)
    return _witness(g, best)
