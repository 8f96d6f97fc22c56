"""Solver selection.

``auto`` picks the cheapest applicable exact method per connected component:
trees, then paths/cycles, then chordal graphs with non-negative weights,
then brute force for small edge counts, and the treewidth DP for the rest.
A connected matching lives inside one component, so disconnected inputs are
solved per component with an edge and the maximum is returned.
"""

from __future__ import annotations

from typing import Optional

from .chordal_solver import solve_chordal
from .degree2_solver import solve_degree_two
from .graphs import GraphError, Matching, WeightedGraph, _component_labels, _label_groups, chordal_peo
from .oracle import brute_mwcm
from .tree_solver import solve_tree
from .treedecomp import TreeDecomposition, heuristic_td, validate_td
from .treewidth_solver import solve_treewidth

SOLVERS = ("auto", "brute", "tree", "cycle", "chordal", "treewidth")


def _solve_component(
    g: WeightedGraph,
    solver: str,
    td: Optional[TreeDecomposition],
    brute_limit: int,
) -> tuple[int, Matching]:
    if solver == "tree":
        return solve_tree(g)
    if solver == "cycle":
        return solve_degree_two(g)
    if solver == "chordal":
        return solve_chordal(g)
    if solver == "brute":
        res = brute_mwcm(g, edge_limit=brute_limit)
        return res.optimum, res.witness
    if solver == "treewidth":
        return solve_treewidth(g, td)
    if g.m == g.n - 1:
        return solve_tree(g)
    if g.max_degree() <= 2:
        return solve_degree_two(g)
    if all(w >= 0 for w in g.weights) and chordal_peo(g) is not None:
        return solve_chordal(g)
    if g.m <= brute_limit:
        res = brute_mwcm(g, edge_limit=brute_limit)
        return res.optimum, res.witness
    return solve_treewidth(g, td if td is not None else heuristic_td(g))


def dispatch_solve(
    g: WeightedGraph,
    solver: str = "auto",
    td: Optional[TreeDecomposition] = None,
    brute_limit: int = 24,
) -> tuple[int, Matching]:
    """Solve ``g`` with the requested solver; disconnected inputs are solved
    per component and the best component answer is returned. A given ``td``
    is validated against ``g`` whichever solver runs."""
    if solver not in SOLVERS:
        raise GraphError(f"unknown solver {solver!r}; choose one of {SOLVERS}")
    if g.n == 0:
        return 0, Matching(g, [])
    label = _component_labels(g.n, *g.endpoint_arrays())
    if not label.any():
        if td is not None:
            validate_td(g, td)
        return _solve_component(g, solver, td, brute_limit)
    if td is not None:
        raise GraphError("an explicit decomposition requires a connected graph")
    best_w = 0
    best: Matching = Matching(g, [])
    # a component of one vertex has no edge, so it scores 0 and never beats best_w
    for comp in _label_groups(label, 2):
        sub, _, edge_map = g.induced(comp)
        w, m = _solve_component(sub, solver, None, brute_limit)
        if w > best_w:
            best_w = w
            best = Matching(g, [edge_map[e] for e in m.edge_ids])
    return best_w, best
