"""Test-side views of :mod:`connmatch.partitions`.

The DP works on bare entry dicts; these helpers build cells from raw
labellings and query them, so the tests can state what an operator must
preserve: :func:`opt` is the quantity the representative-set reduction
keeps for every partition ``q`` of the ground set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from connmatch.partitions import PartitionError, WeightedPartitionSet, _overlay, merge_entries


@dataclass(frozen=True)
class Partition:
    """A partition of ``ground`` in canonical min-position labeling."""

    ground: tuple
    labels: tuple

    def __post_init__(self):
        if tuple(sorted(set(self.ground))) != self.ground:
            raise PartitionError("ground set must be strictly sorted")
        g = len(self.ground)
        if len(self.labels) != g or not all(0 <= lab < g for lab in self.labels):
            raise PartitionError("labels must give a ground position for each element")
        if self.labels != _overlay(range(len(self.labels)), self.labels):
            raise PartitionError("labels are not canonical")

    def blocks(self) -> list[frozenset]:
        by_label: dict[int, list] = {}
        for i, lab in enumerate(self.labels):
            by_label.setdefault(lab, []).append(self.ground[i])
        return [frozenset(by_label[k]) for k in sorted(by_label)]


def from_weighted(ground, pairs) -> WeightedPartitionSet:
    """rmc over raw (labels, weight) pairs: keep the max per partition.

    ``ground`` must be strictly sorted, and each raw labelling must name a
    ground position for every element; it is canonicalized.
    """
    ground = tuple(ground)
    if tuple(sorted(set(ground))) != ground:
        raise PartitionError("ground set must be strictly sorted")
    g = len(ground)
    entries: dict = {}
    for labels, weight in pairs:
        if len(labels) != g or not all(0 <= lab < g for lab in labels):
            raise PartitionError("labels must give a ground position for each element")
        labels = _overlay(range(g), labels)
        cur = entries.get(labels)
        if cur is None or weight > cur[0]:
            entries[labels] = (weight, None)
    return WeightedPartitionSet(ground, entries)


def union_into(a: WeightedPartitionSet, b: WeightedPartitionSet) -> None:
    """In-place max-merge of ``b`` (same ground) into ``a``."""
    if a.ground != b.ground:
        raise PartitionError("union needs identical ground sets")
    merge_entries(a.entries, b.entries)


def opt(cell: WeightedPartitionSet, q: Partition) -> Optional[int]:
    """Max weight among entries whose overlay with ``q`` is one block."""
    if q.ground != cell.ground:
        raise PartitionError("opt query needs the cell's ground set")
    best = None
    for labels, (w, _) in cell.entries.items():
        if len(set(_overlay(labels, q.labels))) == 1 and (best is None or w > best):
            best = w
    return best
