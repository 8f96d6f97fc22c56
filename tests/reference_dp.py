"""The treewidth DP as it stood before its tables became flat dicts: a
reference the differential tests in ``test_dp_reference.py`` compare
against.

Cells are keyed by ``(S, U)`` frozensets of vertices and hold a
:class:`WeightedPartitionSet` built through the union-find operators. The
operator bodies and ``_node_table`` below are kept verbatim; do not change
them to follow the library, or the comparison loses its point.
"""

from __future__ import annotations

from typing import Iterable, Optional


class PartitionError(ValueError):
    pass


def _find(rep: list[int], x: int) -> int:
    while rep[x] != x:
        rep[x] = rep[rep[x]]
        x = rep[x]
    return x


def _union(rep: list[int], a: int, b: int) -> None:
    ra, rb = _find(rep, a), _find(rep, b)
    if ra != rb:
        if ra > rb:
            ra, rb = rb, ra
        rep[rb] = ra


def _canon_from_uf(rep: list[int]) -> tuple:
    out = [0] * len(rep)
    first: dict[int, int] = {}
    for i in range(len(rep)):
        r = _find(rep, i)
        m = first.get(r)
        if m is None:
            first[r] = i
            out[i] = i
        else:
            out[i] = m
    return tuple(out)


def _canon_labels(raw: list[int]) -> tuple:
    rep = list(range(len(raw)))
    for i, lab in enumerate(raw):
        _union(rep, i, lab)
    return _canon_from_uf(rep)



# Canonical overlay of two label tuples, keyed by ``(la, lb)``; a dict only
# inside an ``overlay_memo()`` block.
_overlay_memo: Optional[dict] = None


class WeightedPartitionSet:
    """Partitions of one ground set, each with its best weight and trace."""

    __slots__ = ("ground", "entries")

    def __init__(self, ground: tuple, entries: Optional[dict] = None):
        self.ground = tuple(ground)
        self.entries: dict = entries if entries is not None else {}

    # -- construction ------------------------------------------------------

    @staticmethod
    def empty_partition_unit(weight: int = 0) -> "WeightedPartitionSet":
        return WeightedPartitionSet((), {(): (weight, None)})

    def __len__(self):
        return len(self.entries)

    def copy(self) -> "WeightedPartitionSet":
        return WeightedPartitionSet(self.ground, dict(self.entries))

    # -- the representation-preserving operators ----------------------------

    def union_into(self, other: "WeightedPartitionSet") -> None:
        """In-place max-merge of ``other`` (same ground) into this set."""
        if self.ground != other.ground:
            raise PartitionError("union needs identical ground sets")
        entries = self.entries
        for labels, (w, tr) in other.entries.items():
            cur = entries.get(labels)
            if cur is None or w > cur[0]:
                entries[labels] = (w, tr)

    def insert(self, new_elements: Iterable) -> "WeightedPartitionSet":
        """Add fresh elements, each as its own singleton block."""
        new_elements = set(new_elements)
        if new_elements & set(self.ground):
            raise PartitionError("insert elements must be disjoint from the ground set")
        ground = tuple(sorted(set(self.ground) | new_elements))
        old_pos = {v: i for i, v in enumerate(self.ground)}
        mapping = []  # new position -> old position or None
        for v in ground:
            mapping.append(old_pos.get(v))
        out = {}
        for labels, payload in self.entries.items():
            remap: dict[int, int] = {}
            new_labels = []
            for new_i, old_i in enumerate(mapping):
                if old_i is None:
                    new_labels.append(new_i)
                else:
                    new_labels.append(remap.setdefault(labels[old_i], new_i))
            out[tuple(new_labels)] = payload
        return WeightedPartitionSet(ground, out)

    def shift(self, delta: int, edge: Optional[int] = None) -> "WeightedPartitionSet":
        """Add ``delta`` to all weights; optionally record a matched edge."""
        out = {}
        for labels, (w, tr) in self.entries.items():
            out[labels] = (w + delta, ("e", edge, tr) if edge is not None else tr)
        return WeightedPartitionSet(self.ground, out)

    def glue(self, block: Iterable) -> "WeightedPartitionSet":
        """Merge all elements of ``block``, a subset of the ground set, into one block."""
        block = set(block)
        pos = {v: i for i, v in enumerate(self.ground)}
        if not block <= pos.keys():
            raise PartitionError("glued block must lie inside the ground set")
        bpos = sorted(pos[v] for v in block)
        out = {}
        for labels, (w, tr) in self.entries.items():
            rep = list(labels)
            for p in bpos[1:]:
                _union(rep, bpos[0], p)
            key = _canon_from_uf(rep)
            cur = out.get(key)
            if cur is None or w > cur[0]:
                out[key] = (w, tr)
        return WeightedPartitionSet(self.ground, out)

    def project(self, drop: Iterable) -> "WeightedPartitionSet":
        """Remove ``drop`` from the ground set.

        An entry survives only if every dropped element shares its block with
        a surviving element (otherwise its connectivity can never be
        completed and the partial solution is dead).
        """
        drop = set(drop)
        if not drop <= set(self.ground):
            raise PartitionError("projected-out set must be inside the ground set")
        keep_idx = [i for i, v in enumerate(self.ground) if v not in drop]
        drop_idx = [i for i, v in enumerate(self.ground) if v in drop]
        ground = tuple(self.ground[i] for i in keep_idx)
        out = {}
        for labels, (w, tr) in self.entries.items():
            kept_labels = {labels[i] for i in keep_idx}
            if any(labels[i] not in kept_labels for i in drop_idx):
                continue  # a dropped element was alone with other dropped ones
            remap: dict[int, int] = {}
            new_labels = []
            for new_i, old_i in enumerate(keep_idx):
                new_labels.append(remap.setdefault(labels[old_i], new_i))
            key = tuple(new_labels)
            cur = out.get(key)
            if cur is None or w > cur[0]:
                out[key] = (w, tr)
        return WeightedPartitionSet(ground, out)

    def join(self, other: "WeightedPartitionSet") -> "WeightedPartitionSet":
        """Pairwise overlay of two cells over their common ground set.

        Inside an :func:`overlay_memo` block, overlays are shared across calls.
        """
        if self.ground != other.ground:
            raise PartitionError("join needs identical ground sets")
        g = len(self.ground)
        memo = _overlay_memo if _overlay_memo is not None else {}
        out = {}
        for la, (wa, ta) in self.entries.items():
            for lb, (wb, tb) in other.entries.items():
                key = memo.get((la, lb))
                if key is None:
                    rep = list(la)
                    for i in range(g):
                        _union(rep, i, lb[i])
                    key = memo[(la, lb)] = _canon_from_uf(rep)
                w = wa + wb
                cur = out.get(key)
                if cur is None or w > cur[0]:
                    out[key] = (w, ("j", ta, tb))
        return WeightedPartitionSet(self.ground, out)

    # -- the representative-set reduction -------------------------------------

    def reduce(self) -> "WeightedPartitionSet":
        """Keep a max-weight-first GF(2) row basis of the cut-consistency matrix.

        The result is a subset of the entries, has at most ``2^(|ground|-1)``
        of them, and preserves ``opt(q, .)`` for every partition ``q`` of the
        ground set. Cells already within the bound are returned unchanged.
        """
        g = len(self.ground)
        if g == 0 or len(self.entries) <= (1 << (g - 1)):
            return self
        rows = sorted(self.entries.items(), key=lambda kv: (-kv[1][0], kv[0]))
        basis: dict[int, int] = {}
        kept = {}
        for labels, payload in rows:
            vec = _cut_vector(labels, g)
            cur = vec
            while cur:
                pivot = cur.bit_length() - 1
                other = basis.get(pivot)
                if other is None:
                    basis[pivot] = cur
                    kept[labels] = payload
                    break
                cur ^= other
        assert len(kept) <= 1 << (g - 1)
        return WeightedPartitionSet(self.ground, kept)


def _cut_vector(labels: tuple, g: int) -> int:
    """Bitmask over the 2^(g-1) cuts (element 0 pinned left) consistent with
    the partition: exactly the cuts whose right side is a union of blocks
    not containing element 0. Cut index = right side as a bitmask over
    positions 1..g-1."""
    lab0 = labels[0]
    block_masks: dict[int, int] = {}
    for i in range(1, g):
        lab = labels[i]
        if lab == lab0:
            continue  # element 0's block is pinned to the left side
        block_masks[lab] = block_masks.get(lab, 0) | (1 << (i - 1))
    subsets = [0]
    for m in block_masks.values():
        subsets += [s | m for s in subsets]
    vec = 0
    for s in subsets:
        vec |= 1 << s
    return vec


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
