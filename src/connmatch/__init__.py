"""Exact solvers, gadget generators and certificate tools for maximum
weight connected matchings."""

from .chordal_solver import build_gp, max_weight_perfect_matching, solve_chordal
from .degree2_solver import solve_cycle, solve_degree_two
from .dispatch import dispatch_solve
from .graphs import (
    GraphClassReport,
    GraphError,
    Matching,
    VertexWeightedGraph,
    WeightedGraph,
    articulation_points,
    classify,
    diameter,
    induced_by_matching_connected,
    is_connected,
)
from .oracle import OracleError, OracleResult, brute_mwcm, brute_wcs
from .partitions import Partition, WeightedPartitionSet
from .tree_solver import solve_tree
from .treedecomp import (
    NiceTreeDecomposition,
    TdError,
    TreeDecomposition,
    heuristic_td,
    make_nice,
    validate_td,
)
from .treewidth_solver import solve_treewidth

__all__ = [
    "GraphClassReport",
    "GraphError",
    "Matching",
    "NiceTreeDecomposition",
    "OracleError",
    "OracleResult",
    "Partition",
    "TdError",
    "TreeDecomposition",
    "VertexWeightedGraph",
    "WeightedGraph",
    "WeightedPartitionSet",
    "articulation_points",
    "brute_mwcm",
    "brute_wcs",
    "build_gp",
    "classify",
    "diameter",
    "dispatch_solve",
    "heuristic_td",
    "induced_by_matching_connected",
    "is_connected",
    "make_nice",
    "max_weight_perfect_matching",
    "solve_chordal",
    "solve_cycle",
    "solve_degree_two",
    "solve_tree",
    "solve_treewidth",
    "validate_td",
]

__version__ = "0.1.0"
