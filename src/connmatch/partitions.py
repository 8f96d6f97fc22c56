"""Weighted sets of partitions: the table cells of the treewidth DP.

A partition of a ground set is stored canonically: the ground set is a
strictly sorted tuple and each position is labelled with the smallest
position of its block. A cell is a plain dict of entries mapping such label
tuples to ``(weight, trace)`` pairs, where the trace records how the entry
was derived (which matched edges, which child entries) so a witness matching
can be rebuilt from any surviving entry.

Each operator (insert, glue, project, join, reduce, and the max-merge of
two cells) is one module-level function on entry dicts over ground
positions, which the treewidth DP calls directly. The join memoizes
overlays in a dict that its caller owns, one per solve, so no state
outlives a solve. :class:`WeightedPartitionSet` pairs an entry dict with
its ground tuple and wraps five of the functions over ground elements, for
the benchmark tracer only.

All operators keep only the maximum weight per partition, the first one seen
on ties (the problem maximizes, so duplicate removal and the
representative-set reduction are max-oriented). ``reduce`` prunes a cell to
at most ``2^(|ground|-1)`` entries: rows are the entries' consistency
vectors against all two-sided cuts of the ground set with a fixed element
pinned to the left side, and a greedy basis over GF(2), visiting rows by
descending weight, preserves ``opt(q, .)``, the best weight among entries
whose overlay with ``q`` is one block, for every possible future
coarsening ``q``.
"""

from __future__ import annotations

from typing import Iterable, Optional

from .graphs import GraphError


class PartitionError(GraphError):
    """Raised on ground-set mismatches in partition operations."""


# ---------------------------------------------------------------------------
# canonical labellings


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


def _overlay(la, lb) -> tuple:
    """Canonical labels of the finest partition coarser than both labellings.

    ``la`` must be canonical (``range(g)`` is the partition into singletons);
    ``lb`` may be any labelling by positions.
    """
    rep = list(la)
    for i, lab in enumerate(lb):
        _union(rep, i, lab)
    # unions hang the larger root below the smaller, so each block's root
    # is its smallest position
    return tuple([_find(rep, i) for i in range(len(rep))])


# ---------------------------------------------------------------------------
# the operators on entry dicts

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


def merge_entries(out: dict, entries: dict) -> None:
    """Max-merge ``entries`` into ``out`` (one ground set)."""
    for labels, payload in entries.items():
        cur = out.get(labels)
        if cur is None or payload[0] > cur[0]:
            out[labels] = payload


def insert_entries(entries: dict, q: int) -> dict:
    """A fresh singleton block at ground position ``q``; the positions from
    ``q`` on move up by one."""
    out = {}
    for labels, payload in entries.items():
        head = labels[:q] + (q,)  # canonical labels before q are below q
        out[head + tuple([lab + (lab >= q) for lab in labels[q:]])] = payload
    return out


def glue_entries(entries: dict, block: list[int]) -> dict:
    """Merge the blocks of the ground positions ``block`` into one.

    The touched blocks take the smallest of their labels, which is the
    merged block's smallest position, so the result stays canonical.
    """
    out = {}
    for labels, payload in entries.items():
        touched = {labels[i] for i in block}
        if len(touched) > 1:
            low = min(touched)
            labels = tuple([low if lab in touched else lab for lab in labels])
        cur = out.get(labels)
        if cur is None or payload[0] > cur[0]:
            out[labels] = payload
    return out


def project_entries(entries: dict, drop: Iterable[int], out: dict) -> None:
    """Max-merge into ``out`` the entries with the ground positions ``drop``
    (in descending order) removed.

    An entry survives only if every dropped element shares its block with a
    kept element (otherwise its connectivity can never be completed and the
    partial solution is dead).
    """
    for labels, payload in entries.items():
        for q in drop:
            rest = labels[:q] + labels[q + 1 :]
            if labels[q] == q:
                # q heads its block: its next member, if any, heads it now
                try:
                    head = labels.index(q, q + 1) - 1
                except ValueError:
                    break
                labels = tuple([head if lab == q else lab - (lab > q) for lab in rest])
            else:
                labels = tuple([lab - (lab > q) for lab in rest])
        else:
            cur = out.get(labels)
            if cur is None or payload[0] > cur[0]:
                out[labels] = payload


def join_entries(a: dict, b: dict, out: dict, memo: dict) -> None:
    """Max-merge into ``out`` the overlay of every pair of entries of ``a``
    and ``b`` (one ground set), with added weights and a join trace.

    ``memo`` maps ``(la, lb)`` to the canonical overlay of the two label
    tuples, which depends on nothing else, so one solve shares one memo
    across all its joins and drops it at the end.
    """
    for la, (wa, ta) in a.items():
        for lb, (wb, tb) in b.items():
            key = memo.get((la, lb))
            if key is None:
                key = memo[(la, lb)] = _overlay(la, lb)
            w = wa + wb
            cur = out.get(key)
            if cur is None or w > cur[0]:
                out[key] = (w, ("j", ta, tb))


def reduce_entries(entries: dict, g: int) -> dict:
    """Keep a max-weight-first GF(2) row basis of the cut-consistency matrix.

    ``g`` is the ground size. The result is a subset of the entries, has at
    most ``2^(g-1)`` of them, and preserves ``opt(q, .)`` for every partition
    ``q`` of the ground set. A cell already within the bound is returned
    itself.
    """
    if g == 0 or len(entries) <= (1 << (g - 1)):
        return entries
    rows = sorted(entries.items(), key=lambda kv: (-kv[1][0], kv[0]))
    basis: dict[int, int] = {}
    kept = {}
    for labels, payload in rows:
        cur = _cut_vector(labels, g)
        while cur:
            pivot = cur.bit_length() - 1
            other = basis.get(pivot)
            if other is None:
                basis[pivot] = cur
                kept[labels] = payload
                break
            cur ^= other
    assert len(kept) <= 1 << (g - 1)
    return kept


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


# ---------------------------------------------------------------------------
# weighted partition sets


class WeightedPartitionSet:
    """Partitions of one ground set, each with its best weight and trace."""

    # The DP calls the entry functions above. The five wrappers below stay
    # because ``perfbench/layers.py`` times them by name; it is their only
    # caller outside the tests.

    __slots__ = ("ground", "entries")

    def __init__(self, ground: tuple, entries: Optional[dict] = None):
        self.ground = tuple(ground)
        self.entries: dict = entries if entries is not None else {}

    def insert(self, new_elements: Iterable) -> "WeightedPartitionSet":
        """Add fresh elements, each as its own singleton block."""
        new_elements = set(new_elements)
        if new_elements & set(self.ground):
            raise PartitionError("insert elements must be disjoint from the ground set")
        ground = tuple(sorted(set(self.ground) | new_elements))
        entries = dict(self.entries)
        for q, v in enumerate(ground):
            if v in new_elements:
                entries = insert_entries(entries, q)
        return WeightedPartitionSet(ground, entries)

    def glue(self, block: Iterable) -> "WeightedPartitionSet":
        """Merge all elements of ``block``, a subset of the ground set, into one block."""
        block = set(block)
        pos = {v: i for i, v in enumerate(self.ground)}
        if not block <= pos.keys():
            raise PartitionError("glued block must lie inside the ground set")
        return WeightedPartitionSet(self.ground, glue_entries(self.entries, [pos[v] for v in block]))

    def project(self, drop: Iterable) -> "WeightedPartitionSet":
        """Remove ``drop`` from the ground set (see :func:`project_entries`)."""
        drop = set(drop)
        if not drop <= set(self.ground):
            raise PartitionError("projected-out set must be inside the ground set")
        positions = [i for i, v in enumerate(self.ground) if v in drop]
        out: dict = {}
        project_entries(self.entries, positions[::-1], out)
        return WeightedPartitionSet(tuple(v for v in self.ground if v not in drop), out)

    def join(self, other: "WeightedPartitionSet") -> "WeightedPartitionSet":
        """Pairwise overlay of two cells over their common ground set."""
        if self.ground != other.ground:
            raise PartitionError("join needs identical ground sets")
        out: dict = {}
        join_entries(self.entries, other.entries, out, {})
        return WeightedPartitionSet(self.ground, out)

    def reduce(self) -> "WeightedPartitionSet":
        """The representative-set reduction (see :func:`reduce_entries`);
        a cell already within the bound is returned itself."""
        kept = reduce_entries(self.entries, len(self.ground))
        return self if kept is self.entries else WeightedPartitionSet(self.ground, kept)
