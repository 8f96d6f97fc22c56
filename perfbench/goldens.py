"""Golden optima for the benchmark instances, and the second path that checks them.

``goldens.json`` maps workload -> seed -> ``{"optimum", "sha256"}``. Each
entry was made by solving the generated instance twice, through
``connmatch.dispatch_solve`` and through an independent second path, and
keeping it only if both agreed. The second path is:

* ``tree-cli``: :func:`tree_mwcm`, a tree DP written here, not in ``connmatch``;
* ``mixed-components``: per component, the same tree DP on trees,
  ``brute_mwcm`` on components with at most 24 edges, and otherwise the
  treewidth DP without representative-set pruning over a min-degree
  decomposition; the optimum is the best component;
* ``ktree-dp``: ``solve_treewidth(..., use_reduce=False)``.

Regenerate or extend the table with::

    PYTHONPATH=src python3 perfbench/goldens.py --seeds 0-39

``--check WORKLOAD SEED`` prints the second-path optimum and the instance
digest of one seed without touching the table; ``run.py`` uses it for seeds
the table does not hold.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import instances

TABLE = Path(__file__).resolve().parent / "goldens.json"


def tree_mwcm(n: int, edges) -> int:
    """Maximum weight connected matching of a tree.

    In a tree the matched vertices form a subtree S that the matching covers
    perfectly. Rooting S at its top vertex v: ``full[v]`` is the best such S
    below v with v matched to a child, ``open_[v]`` the best with every
    vertex but v matched (v will be matched to its parent).
    """
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for u, v, w in edges:
        adj[u].append((v, w))
        adj[v].append((u, w))
    order = [0]
    parent = [-1] * n
    parent_w = [0] * n
    seen = [False] * n
    seen[0] = True
    for v in order:
        for u, w in adj[v]:
            if not seen[u]:
                seen[u] = True
                parent[u] = v
                parent_w[u] = w
                order.append(u)
    if len(order) != n or len(edges) != n - 1:
        raise ValueError("tree_mwcm needs a tree")
    neg_inf = float("-inf")
    full = [neg_inf] * n
    open_ = [0] * n
    best_step = [neg_inf] * n  # best gain of matching v to one of its children
    for v in reversed(order):
        full[v] = open_[v] + best_step[v]
        p = parent[v]
        if p >= 0:
            keep = max(0, full[v])
            open_[p] += keep
            best_step[p] = max(best_step[p], open_[v] + parent_w[v] - keep)
    best = max(full, default=neg_inf)
    return max(0, int(best)) if best != neg_inf else 0


def _component_second_path(kind: str, n: int, edges) -> int:
    from connmatch.graphs import WeightedGraph
    from connmatch.oracle import brute_mwcm
    from connmatch.treedecomp import heuristic_td
    from connmatch.treewidth_solver import solve_treewidth

    if kind == "tree":
        return tree_mwcm(n, edges)
    g = WeightedGraph(n, edges)
    if g.m <= 24:
        return brute_mwcm(g, edge_limit=24).optimum
    return solve_treewidth(g, heuristic_td(g, "min-degree"), use_reduce=False)[0]


def second_path(workload: str, inst) -> int:
    n, edges, parts = inst
    if workload == "tree-cli":
        return tree_mwcm(n, edges)
    if workload == "mixed-components":
        return max(_component_second_path(kind, pn, pe) for kind, pn, pe in parts)
    if workload == "ktree-dp":
        from connmatch.graphs import WeightedGraph
        from connmatch.treewidth_solver import solve_treewidth

        return solve_treewidth(WeightedGraph(n, edges), use_reduce=False)[0]
    raise ValueError(f"unknown workload {workload!r}")


def main_path(inst) -> int:
    from connmatch.dispatch import dispatch_solve
    from connmatch.graphs import WeightedGraph

    n, edges, _ = inst
    return dispatch_solve(WeightedGraph(n, edges))[0]


def load() -> dict:
    return json.loads(TABLE.read_text()) if TABLE.exists() else {}


def _seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seeds", help="seed range such as 0-39, added to goldens.json")
    p.add_argument("--workloads", default=",".join(instances.WORKLOADS))
    p.add_argument("--check", nargs=2, metavar=("WORKLOAD", "SEED"))
    args = p.parse_args(argv)
    if not args.check and not args.seeds:
        p.error("give --seeds or --check")

    if args.check:
        workload, seed = args.check[0], int(args.check[1])
        inst = instances.WORKLOADS[workload](seed)
        sha = instances.sha256(instances.graph_text(inst[0], inst[1]))
        print(json.dumps({"optimum": second_path(workload, inst), "sha256": sha}))
        return 0

    table = load()
    for workload in args.workloads.split(","):
        for seed in _seed_range(args.seeds):
            inst = instances.WORKLOADS[workload](seed)
            sha = instances.sha256(instances.graph_text(inst[0], inst[1]))
            first, second = main_path(inst), second_path(workload, inst)
            if first != second:
                print(f"{workload} seed {seed}: dispatch_solve {first} != second path {second}")
                return 1
            print(f"{workload} seed {seed}: optimum {first}", flush=True)
            table.setdefault(workload, {})[str(seed)] = {"optimum": first, "sha256": sha}
            TABLE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
