"""Tree decompositions and the rank-based DP, step by step.

Builds a decomposition heuristically, converts it to nice form, runs the DP
with and without the representative-set pruning, and shows table sizes.
Run as: python demos/treewidth_walkthrough.py
"""

import random

from connmatch import WeightedGraph, brute_mwcm, heuristic_td, make_nice, solve_treewidth, validate_td
from connmatch.treedecomp import cell_bound
from connmatch.treewidth_solver import _walk

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
# a node's cells are keyed by disjoint (S, U): each bag vertex is unused,
# matched or half-matched, so the sum of 3^|bag| bounds the DP's cells
print("  sum of 3^|bag| over the nodes:", cell_bound(nd))

# walk the solver's DP node by node to watch the table sizes, with pruning
# on and off; every cell must stay within the representative bound 2^(|ground|-1)
for use_reduce in (True, False):
    sizes = []
    within_bound = True
    for _, table, _ in _walk(g, nd, use_reduce):
        # cells are keyed by (S, U) bitmasks over the bag; the ground is S | U
        for (s, u), entries in table.items():
            sizes.append(len(entries))
            within_bound &= len(entries) <= 1 << max((s | u).bit_count() - 1, 0)
    mode = "with reduce" if use_reduce else "without reduce"
    note = f", all cells within the 2^(g-1) bound: {within_bound}" if use_reduce else ""
    print(f"{mode:15s}: largest cell {max(sizes)} entries, {sum(sizes)} entries in total{note}")

w, m = solve_treewidth(g, td)
print(f"\noptimum {w} via {m.edge_pairs()}")
print(f"oracle agrees: {brute_mwcm(g, edge_limit=40).optimum == w}")
