"""The flat-table treewidth DP against the frozenset-keyed DP it replaced.

``reference_dp`` keeps that DP's ``_node_table`` and union-find operators
verbatim. Both run node by node on the same nice decomposition; the flat
tables are translated from bag-position bitmasks back to vertex sets before
they are compared. Each entry operator of ``connmatch.partitions`` is also
checked against the operator it replaced, on random label tuples.
"""

import random

import pytest

import reference_dp as ref
from connmatch.partitions import (
    glue_entries,
    insert_entries,
    join_entries,
    merge_entries,
    project_entries,
    reduce_entries,
)
from connmatch.treedecomp import heuristic_td, make_nice
from connmatch.treewidth_solver import _walk
from conftest import dp_instance, random_connected_graph


def _vertex_keyed(table: dict, bag) -> dict:
    """``(S, U)`` bitmasks over the sorted bag to vertex sets; entries to
    ``{labels: weight}``."""
    order = sorted(bag)

    def verts(mask):
        return frozenset(v for i, v in enumerate(order) if mask >> i & 1)

    return {
        (verts(s), verts(u)): {labels: w for labels, (w, _) in entries.items()}
        for (s, u), entries in table.items()
    }


def _compare(g, use_reduce):
    """Build both DPs' tables node by node and compare each node's cells."""
    nd = make_nice(heuristic_td(g), 0)
    old_tabs = {}
    for x, table, _ in _walk(g, nd, use_reduce):
        node = nd.nodes[x]
        old_tabs[x] = ref._node_table(g, nd, x, [old_tabs.pop(c) for c in node.children], use_reduce)
        new = _vertex_keyed(table, node.bag)
        old = {
            cell: {labels: w for labels, (w, _) in wps.entries.items()}
            for cell, wps in old_tabs[x].items()
        }
        assert new.keys() == old.keys(), f"node {x} ({node.kind}): cells differ"
        if use_reduce:
            for (s, u), entries in new.items():
                assert max(entries.values()) == max(old[(s, u)].values()), (x, s, u)
                assert len(entries) <= 1 << max(len(s | u) - 1, 0), (x, s, u)
        else:
            assert new == old, f"node {x} ({node.kind}): entries differ"


@pytest.mark.parametrize("use_reduce", [False, True], ids=["plain", "reduce"])
class TestNodeTables:
    def test_random_graphs(self, use_reduce):
        rng = random.Random(2015)
        for _ in range(200):
            n = rng.randint(1, 10)
            _compare(random_connected_graph(rng, n, rng.randint(0, 2 * n)), use_reduce)

    def test_ktree_dp_instance(self, use_reduce):
        _compare(dp_instance("ktree-dp-0"), use_reduce)

    def test_starlike_gadget(self, use_reduce):
        _compare(dp_instance("starlike-3"), use_reduce)


def _random_entries(rng, g, count):
    """Up to ``count`` random canonical partitions of ``g`` positions."""
    entries = {}
    for _ in range(count):
        labels = ref._canon_labels([rng.randrange(i + 1) for i in range(g)])
        entries[labels] = (rng.randint(-9, 9), ("e", rng.randrange(100), None))
    return entries


def _old(g, entries):
    return ref.WeightedPartitionSet(tuple(range(g)), dict(entries))


class TestEntryOperators:
    """Each entry function equals the union-find operator it replaced,
    entry order and ties included."""

    def test_insert(self):
        rng = random.Random(1)
        for _ in range(300):
            g = rng.randint(0, 6)
            entries = _random_entries(rng, g, rng.randint(1, 8))
            q = rng.randint(0, g)
            old = _old(g, entries)
            old.ground = tuple(range(0, 2 * g, 2))  # leave room for the new element
            want = old.insert([2 * q - 1]).entries
            assert list(insert_entries(entries, q).items()) == list(want.items())

    def test_glue(self):
        rng = random.Random(2)
        for _ in range(300):
            g = rng.randint(1, 7)
            entries = _random_entries(rng, g, rng.randint(1, 12))
            block = rng.sample(range(g), rng.randint(1, g))
            want = _old(g, entries).glue(block).entries
            assert list(glue_entries(entries, block).items()) == list(want.items())

    def test_project(self):
        rng = random.Random(3)
        for _ in range(300):
            g = rng.randint(1, 7)
            entries = _random_entries(rng, g, rng.randint(1, 12))
            drop = sorted(rng.sample(range(g), rng.randint(1, g)), reverse=True)
            want = _old(g, entries).project(drop).entries
            out: dict = {}
            project_entries(entries, drop, out)
            assert list(out.items()) == list(want.items())

    def test_join_and_merge(self):
        rng = random.Random(4)
        for _ in range(300):
            g = rng.randint(0, 6)
            a = _random_entries(rng, g, rng.randint(1, 6))
            b = _random_entries(rng, g, rng.randint(1, 6))
            prior = _random_entries(rng, g, rng.randint(0, 4))
            want = _old(g, prior)
            want.union_into(_old(g, a).join(_old(g, b)))
            out = dict(prior)
            join_entries(a, b, out, {})
            assert list(out.items()) == list(want.entries.items())
            merged = dict(prior)
            merge_entries(merged, a)
            want = _old(g, prior)
            want.union_into(_old(g, a))
            assert list(merged.items()) == list(want.entries.items())

    def test_reduce(self):
        rng = random.Random(5)
        for _ in range(300):
            g = rng.randint(0, 6)
            entries = _random_entries(rng, g, rng.randint(1, 40))
            want = _old(g, entries).reduce().entries
            assert list(reduce_entries(entries, g).items()) == list(want.items())
