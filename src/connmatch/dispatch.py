"""Solver selection.

``auto`` picks the cheapest applicable exact method per connected component:
trees, then paths/cycles, then chordal graphs with non-negative weights,
then brute force for small edge counts, and the treewidth DP for the rest.
A chordal component's perfect elimination ordering gives an exact tree
decomposition; the treewidth DP runs on it while its cell bound stays at
most ``CHORDAL_DP_CELLS_PER_VERTEX`` per vertex, and the chordal solver's
blossom takes the denser ones. A connected matching lives inside one
component, so disconnected inputs are solved per component with an edge,
each cut from the edge columns, and the maximum is returned.
"""

from __future__ import annotations

from typing import Optional

from .chordal_solver import solve_chordal
from .degree2_solver import solve_degree_two
from .graphs import GraphError, Matching, WeightedGraph, _component_labels, _component_subgraphs, chordal_peo
from .oracle import brute_mwcm
from .tree_solver import solve_tree
from .treedecomp import TreeDecomposition, cell_bound, heuristic_td, make_nice, peo_td, validate_td
from .treewidth_solver import solve_treewidth

SOLVERS = ("auto", "brute", "tree", "cycle", "chordal", "treewidth")

# A chordal component goes to the treewidth DP while its nice decomposition
# has at most this many cells (cell_bound) per vertex, else to the blossom.
# Measured crossovers: a k-tree with n=100 ran the DP in 0.97x the blossom's
# time at 184 cells per vertex and in 2.7x at 549.
CHORDAL_DP_CELLS_PER_VERTEX = 300


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
    if all(w >= 0 for w in g.weights):
        peo = chordal_peo(g)
        if peo is not None:
            chordal_td = peo_td(g, peo)
            if cell_bound(make_nice(chordal_td, 0)) <= CHORDAL_DP_CELLS_PER_VERTEX * g.n:
                return solve_treewidth(g, chordal_td)
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
    for sub, edge_ids in _component_subgraphs(g, label):
        w, m = _solve_component(sub, solver, None, brute_limit)
        if w > best_w:
            best_w = w
            best = Matching(g, edge_ids[m.edge_id_array()])
    return best_w, best
