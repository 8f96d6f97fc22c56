"""Weighted sets of partitions: the table cells of the treewidth DP.

A partition of a ground set is stored canonically: the ground set is a
sorted vertex tuple and each position is labeled with the smallest position
of its block. The order is fixed where a ground is built: ``from_weighted``
sorts, ``insert`` sorts the enlarged ground and ``project`` keeps the order;
every other operator reuses its operand's ground, and ``join`` and ``glue``
work within one ground set. Entries of a :class:`WeightedPartitionSet` map
canonical partitions to ``(weight, trace)`` pairs where the trace records
how the entry was derived (which matched edges, which child entries) so a
witness matching can be rebuilt from any surviving entry.

All operators keep only the maximum weight per partition (the problem
maximizes, so duplicate-removal and the representative-set reduction are
max-oriented). ``reduce`` prunes a cell to at most ``2^(|ground|-1)``
entries: rows are the entries' consistency vectors against all two-sided
cuts of the ground set with a fixed element pinned to the left side, and a
greedy basis over GF(2), visiting rows by descending weight, preserves
``opt(q, .)`` for every possible future coarsening ``q``.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

from .graphs import GraphError


class PartitionError(GraphError):
    """Raised on ground-set mismatches in partition operations."""


# ---------------------------------------------------------------------------
# canonical partitions over explicit ground sets


@dataclass(frozen=True)
class Partition:
    """A partition of ``ground`` in canonical min-position labeling."""

    ground: tuple
    labels: tuple

    def __post_init__(self):
        if tuple(sorted(set(self.ground))) != self.ground:
            raise PartitionError("ground set must be strictly sorted")
        if len(self.labels) != len(self.ground):
            raise PartitionError("labels must cover the ground set")
        if self.labels != _canon_labels(list(self.labels)):
            raise PartitionError("labels are not canonical")

    def blocks(self) -> list[frozenset]:
        by_label: dict[int, list] = {}
        for i, lab in enumerate(self.labels):
            by_label.setdefault(lab, []).append(self.ground[i])
        return [frozenset(by_label[k]) for k in sorted(by_label)]


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


# ---------------------------------------------------------------------------
# weighted partition sets

# Canonical overlay of two label tuples, keyed by ``(la, lb)``; a dict only
# inside an ``overlay_memo()`` block.
_overlay_memo: Optional[dict] = None


@contextmanager
def overlay_memo() -> Iterator[None]:
    """Share join overlays across all ``join`` calls inside the block.

    The overlay of two label tuples depends on nothing else, so one solve
    repeats the same few overlays across many cells. The memo is dropped on
    exit, also on an exception, so no memory or warm state outlives the block.
    """
    global _overlay_memo
    outer = _overlay_memo
    _overlay_memo = {}
    try:
        yield
    finally:
        _overlay_memo = outer


# entry traces for witness reconstruction:
#   None                     base entry, no matched edges recorded
#   ("e", edge_id, trace)    edge taken on top of a child entry
#   ("j", trace, trace)      combination of two child entries


def trace_edges(trace) -> list[int]:
    out = []
    stack = [trace]
    while stack:
        t = stack.pop()
        if t is None:
            continue
        if t[0] == "e":
            out.append(t[1])
            stack.append(t[2])
        else:
            stack.append(t[1])
            stack.append(t[2])
    return out


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

    @staticmethod
    def from_weighted(ground, pairs) -> "WeightedPartitionSet":
        """rmc over raw (labels, weight[, trace]) items: keep the max per partition."""
        wps = WeightedPartitionSet(tuple(sorted(ground)))
        entries = wps.entries
        for item in pairs:
            labels, weight = item[0], item[1]
            trace = item[2] if len(item) > 2 else None
            labels = _canon_labels(list(labels))
            cur = entries.get(labels)
            if cur is None or weight > cur[0]:
                entries[labels] = (weight, trace)
        return wps

    def __len__(self):
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries.items())

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

    # -- queries -------------------------------------------------------------

    def best(self) -> Optional[tuple]:
        """The maximum-weight entry as ``(weight, labels, trace)``, or None."""
        best = None
        for labels, (w, tr) in self.entries.items():
            if best is None or w > best[0] or (w == best[0] and labels < best[1]):
                best = (w, labels, tr)
        return best

    def opt(self, q: Partition) -> Optional[int]:
        """Max weight among entries whose overlay with ``q`` is one block."""
        if q.ground != self.ground:
            raise PartitionError("opt query needs the cell's ground set")
        g = len(self.ground)
        best = None
        for labels, (w, _) in self.entries.items():
            rep = list(labels)
            for i in range(g):
                _union(rep, i, q.labels[i])
            roots = {_find(rep, i) for i in range(g)}
            if len(roots) == 1 and (best is None or w > best):
                best = w
        return best

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
