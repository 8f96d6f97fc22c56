"""Tree decompositions and the rank-based DP, step by step.

Builds a decomposition heuristically, converts it to nice form, runs the DP
with and without the representative-set pruning, and shows table sizes.
Run as: python demos/treewidth_walkthrough.py
"""

import random

from connmatch import WeightedGraph, brute_mwcm, heuristic_td, make_nice, solve_treewidth, validate_td
from connmatch.treewidth_solver import _node_table

rng = random.Random(3)
n = 12
edges = [(v - 1, v, rng.randint(-7, 7)) for v in range(1, n)]
edges += [(v - 3, v, rng.randint(-7, 7)) for v in range(3, n)]
edges += [(v - 5, v, rng.randint(-7, 7)) for v in range(5, n, 2)]
g = WeightedGraph(n, edges)
print(f"graph: n={g.n} m={g.m}")

td = heuristic_td(g, "min-fill")
print(f"min-fill decomposition: {len(td.bags)} bags, width {validate_td(g, td)}")
for i, bag in enumerate(td.bags):
    print(f"  bag {i}: {sorted(bag)}")

nd = make_nice(td, pi=0)
kinds = [nd.nodes[i].kind for i in nd.postorder()]
print(f"\nnice form rooted at the forget node of vertex 0: {len(nd.nodes)} nodes")
print("  node kinds:", {k: kinds.count(k) for k in ("leaf", "introduce", "forget", "join")})

# run the DP manually to watch the table sizes, with pruning on and off;
# every cell must stay within the representative bound 2^(|ground|-1)
for use_reduce in (True, False):
    tables, memo = {}, {}  # memo: the join overlays of this pass
    biggest = 0
    total_entries = 0
    within_bound = True
    for x in nd.postorder():
        kids = nd.nodes[x].children
        tables[x] = _node_table(g, nd, x, [tables[c] for c in kids], use_reduce, memo)
        # cells are keyed by (S, U) bitmasks over the bag; the ground is S | U
        for (s, u), entries in tables[x].items():
            biggest = max(biggest, len(entries))
            total_entries += len(entries)
            if use_reduce and len(entries) > 1 << max((s | u).bit_count() - 1, 0):
                within_bound = False
        for c in kids:
            del tables[c]
    mode = "with reduce" if use_reduce else "without reduce"
    note = f", all cells within the 2^(g-1) bound: {within_bound}" if use_reduce else ""
    print(f"{mode:15s}: largest cell {biggest} entries, {total_entries} entries in total{note}")

w, m = solve_treewidth(g, td)
print(f"\noptimum {w} via {m.edge_pairs()}")
print(f"oracle agrees: {brute_mwcm(g, edge_limit=40).optimum == w}")
