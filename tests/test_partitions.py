import random

import pytest

from connmatch.partitions import Partition, PartitionError, WeightedPartitionSet, trace_edges


def P(ground, *blocks):
    """The partition of ``ground`` into ``blocks``: each element is labelled
    with the position of its block's first element in the sorted ground."""
    ground = tuple(sorted(ground))
    pos = {v: i for i, v in enumerate(ground)}
    labels = [None] * len(ground)
    for block in blocks:
        head = min(pos[v] for v in block)
        for v in block:
            labels[pos[v]] = head
    return Partition(ground, tuple(labels))


def all_partitions(ground):
    """Every partition of ``ground`` (Bell-number many)."""
    ground = sorted(ground)
    if not ground:
        yield Partition((), ())
        return

    def rec(i, blocks):
        if i == len(ground):
            yield [list(b) for b in blocks]
            return
        v = ground[i]
        for b in blocks:
            b.append(v)
            yield from rec(i + 1, blocks)
            b.pop()
        blocks.append([v])
        yield from rec(i + 1, blocks)
        blocks.pop()

    for blocks in rec(0, []):
        yield P(ground, *blocks)


class TestOperators:
    def test_rmc_keeps_max(self):
        labels = P("ab", "ab").labels
        wps = WeightedPartitionSet.from_weighted("ab", [(labels, 3), (labels, 5)])
        assert len(wps) == 1
        assert wps.entries[labels][0] == 5

    def test_rmc_distinct_unchanged(self):
        wps = WeightedPartitionSet.from_weighted(
            "ab", [(P("ab", "ab").labels, 3), (P("ab", "a", "b").labels, 5)]
        )
        assert len(wps) == 2

    def test_glue(self):
        wps = WeightedPartitionSet.from_weighted("ab", [(P("ab", "a", "b").labels, 4)])
        glued = wps.glue("ab")
        assert list(glued.entries) == [P("ab", "ab").labels]
        assert glued.entries[P("ab", "ab").labels][0] == 4

    def test_project_kills_isolated_blocks(self):
        wps = WeightedPartitionSet.from_weighted("ab", [(P("ab", "a", "b").labels, 4)])
        assert len(wps.project("b")) == 0

    def test_project_keeps_merged_blocks(self):
        wps = WeightedPartitionSet.from_weighted("ab", [(P("ab", "ab").labels, 4)])
        out = wps.project("b")
        assert len(out) == 1
        assert out.ground == ("a",)

    def test_join_weights_add(self):
        a = WeightedPartitionSet.from_weighted("abc", [(P("abc", "ab", "c").labels, 2)])
        b = WeightedPartitionSet.from_weighted("abc", [(P("abc", "bc", "a").labels, 3)])
        joined = a.join(b)
        assert joined.ground == ("a", "b", "c")
        assert list(joined.entries) == [P("abc", "abc").labels]
        assert joined.entries[P("abc", "abc").labels][0] == 5

    def test_join_ground_mismatch_rejected(self):
        a = WeightedPartitionSet.from_weighted("ab", [(P("ab", "ab").labels, 2)])
        b = WeightedPartitionSet.from_weighted("ac", [(P("ac", "ac").labels, 3)])
        with pytest.raises(PartitionError):
            a.join(b)

    def test_glue_outside_ground_rejected(self):
        wps = WeightedPartitionSet.from_weighted("ab", [(P("ab", "a", "b").labels, 4)])
        with pytest.raises(PartitionError):
            wps.glue("ac")

    def test_insert_disjointness_enforced(self):
        wps = WeightedPartitionSet.from_weighted("ab", [(P("ab", "ab").labels, 1)])
        with pytest.raises(PartitionError):
            wps.insert("b")

    def test_trace_edges_reads_edge_and_join_traces(self):
        # two edges taken on one side of a join, one on the other
        tr = ("j", ("e", 3, ("e", 17, None)), ("e", 5, None))
        assert sorted(trace_edges(tr)) == [3, 5, 17]
        assert trace_edges(None) == []

    def test_bad_grounds_and_labels_rejected(self):
        # an unsorted ground must not be sorted silently: (0, 0, 2) pairs
        # 3 with 1 over (3, 1, 2), but 1 with 2 over (1, 2, 3)
        for ground in ((3, 1, 2), (1, 1, 2)):
            with pytest.raises(PartitionError):
                WeightedPartitionSet.from_weighted(ground, [((0, 0, 2), 1)])
        for labels in ((0, 0), (0, 0, 2, 3), (0, 3, 2), (0, -1, 2)):
            with pytest.raises(PartitionError):
                WeightedPartitionSet.from_weighted((1, 2, 3), [(labels, 1)])
            with pytest.raises(PartitionError):
                Partition((1, 2, 3), labels)

    def test_union_max_merges(self):
        a = WeightedPartitionSet.from_weighted("ab", [(P("ab", "ab").labels, 2)])
        b = WeightedPartitionSet.from_weighted("ab", [(P("ab", "ab").labels, 7), (P("ab", "a", "b").labels, 1)])
        a.union_into(b)
        assert len(a) == 2
        assert a.entries[P("ab", "ab").labels][0] == 7


class TestReduce:
    def test_two_block_ground_keeps_both(self):
        wps = WeightedPartitionSet.from_weighted(
            "ab", [(P("ab", "ab").labels, 3), (P("ab", "a", "b").labels, 5)]
        )
        red = wps.reduce()
        assert len(red) == 2  # the two cut rows (1,0) and (1,1) are independent

    def test_bound_enforced(self):
        # |ground| = 2 allows at most 2^(2-1) = 2 entries; feed 2 distinct
        # partitions plus weight duplicates, nothing to drop beyond the bound
        entries = [
            (P("ab", "ab").labels, 1),
            (P("ab", "a", "b").labels, 2),
        ]
        wps = WeightedPartitionSet.from_weighted("ab", entries)
        assert len(wps.reduce()) <= 2

    def test_three_element_ground_drops_dependent_rows(self):
        parts = list(all_partitions("abc"))  # 5 partitions, bound is 4
        wps = WeightedPartitionSet.from_weighted("abc", [(p.labels, i) for i, p in enumerate(parts)])
        red = wps.reduce()
        assert len(red) <= 4
        assert set(red.entries) <= set(wps.entries)

    def test_singleton_unchanged(self):
        wps = WeightedPartitionSet.from_weighted("abc", [(P("abc", "abc").labels, 3)])
        assert wps.reduce() is wps

    def test_opt_preserved_exhaustively(self):
        rng = random.Random(2718)
        for trial in range(120):
            k = rng.randint(1, 4)
            ground = "abcd"[:k]
            parts = list(all_partitions(ground))
            chosen = rng.sample(parts, rng.randint(1, len(parts)))
            wps = WeightedPartitionSet.from_weighted(
                ground, [(p.labels, rng.randint(-20, 20)) for p in chosen]
            )
            red = wps.reduce()
            assert len(red) <= 1 << (k - 1)
            assert set(red.entries) <= set(wps.entries)
            for q in parts:
                assert red.opt(q) == wps.opt(q), (trial, q.blocks())
