"""Command-line interface.

Subcommands: solve, verify, generate, map-cert, decompose, classify.
Exit status is 0 for success/yes, 1 for a "no" answer, 2 for errors.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from . import fileio
from .dispatch import SOLVERS, dispatch_solve
from .graphs import (
    GraphError,
    VertexWeightedGraph,
    classify,
    induced_by_matching_connected,
)
from .treedecomp import heuristic_td

if TYPE_CHECKING:  # only generate and map-cert load the reductions
    from .reductions import LabeledInstance

GENERATE_KINDS = (
    "starlike",
    "bip4",
    "planar-bipartite",
    "steiner",
    "crosscomp",
    "wcs-wcm",
    "setcover-wcs",
)


def _build_instance(args) -> LabeledInstance:
    from .reductions import (
        gen_bip4,
        gen_crosscomp,
        gen_planar_bipartite,
        gen_planar_subcubic,
        gen_setcover_to_wcs,
        gen_starlike,
        gen_wcs_to_wcm,
    )

    kind = args.kind
    if kind in ("starlike", "bip4", "planar-bipartite"):
        if len(args.cnf or []) != 1:
            raise GraphError(f"{kind} needs exactly one --cnf input")
        f = fileio.parse_cnf(args.cnf[0])
        return {"starlike": gen_starlike, "bip4": gen_bip4, "planar-bipartite": gen_planar_bipartite}[kind](f)
    if kind == "crosscomp":
        if not args.cnf:
            raise GraphError("crosscomp needs one or more --cnf inputs")
        return gen_crosscomp([fileio.parse_cnf(p) for p in args.cnf])
    if kind == "steiner":
        if not args.steiner:
            raise GraphError("steiner needs --steiner <file>")
        return gen_planar_subcubic(fileio.parse_steiner(args.steiner))
    if kind == "wcs-wcm":
        if not args.wcs or args.k is None:
            raise GraphError("wcs-wcm needs --wcs <file> and --k <target>")
        return gen_wcs_to_wcm(fileio.parse_wcs(args.wcs), args.k)
    if kind == "setcover-wcs":
        if not args.setcover:
            raise GraphError("setcover-wcs needs --setcover <file>")
        return gen_setcover_to_wcs(fileio.parse_setcover(args.setcover))
    raise GraphError(f"unknown generator kind {kind!r}")


def _cmd_solve(args) -> int:
    g = fileio.parse_graph(args.graph)
    td = fileio.parse_td(args.td) if args.td else None
    weight, matching = dispatch_solve(g, solver=args.solver, td=td, brute_limit=args.brute_limit)
    print(f"w {weight}")
    if args.cert:
        fileio.write_certificate(matching, args.cert)
    if args.k is not None:
        return 0 if weight >= args.k else 1
    return 0


def _cmd_verify(args) -> int:
    g = fileio.parse_graph(args.graph)
    m = fileio.parse_certificate(args.cert, g)
    if induced_by_matching_connected(g, m) and m.weight >= args.k:
        print("yes")
        return 0
    print("no")
    return 1


def _cmd_generate(args) -> int:
    inst = _build_instance(args)
    if isinstance(inst.graph, VertexWeightedGraph):
        fileio.write_wcs(inst.graph, args.out)
    else:
        fileio.write_graph(inst.graph, args.out)
    if args.map:
        fileio.write_map(inst.labels, args.map)
    print(f"k {inst.k}")
    return 0


def _cmd_map_cert(args) -> int:
    from .reductions import lift_certificate, project_certificate

    inst = _build_instance(args)
    if args.map:
        stored = fileio.parse_map(args.map)
        if stored != inst.labels:
            raise GraphError("label map does not match the regenerated instance")

    if args.direction == "lift":
        text = fileio.read_text(args.solution)
        if inst.kind in ("starlike", "bip4", "planar-bipartite"):
            assignment, _ = fileio.parse_assignment_text(text)
            cert = lift_certificate(inst, assignment)
        elif inst.kind == "crosscomp":
            assignment, ell = fileio.parse_assignment_text(text)
            if ell is None:
                raise GraphError("crosscomp solutions need an 'i <instance>' line")
            cert = lift_certificate(inst, (assignment, ell))
        elif inst.kind == "steiner":
            cert = lift_certificate(inst, fileio.parse_tree_solution_text(text))
        elif inst.kind == "wcs-wcm":
            cert = lift_certificate(inst, fileio.parse_vertex_set_text(text, inst.source))
        else:  # setcover-wcs
            cert = lift_certificate(inst, fileio.parse_family_text(text))
        if isinstance(cert, frozenset):
            out_text = fileio.write_vertex_set_text(cert)
        else:
            out_text = fileio.write_certificate_text(cert)
        Path(args.out).write_text(out_text, encoding="utf-8")
        return 0

    # project: certificate file -> source solution file
    if inst.kind == "setcover-wcs":
        subset = fileio.parse_vertex_set_text(fileio.read_text(args.cert), inst.graph)
        family = project_certificate(inst, subset)
        Path(args.out).write_text(fileio.write_family_text(family), encoding="utf-8")
        return 0
    m = fileio.parse_certificate(args.cert, inst.graph)
    solution = project_certificate(inst, m)
    if inst.kind in ("starlike", "bip4", "planar-bipartite"):
        out_text = fileio.write_assignment_text(solution)
    elif inst.kind == "crosscomp":
        assignment, ell = solution
        out_text = fileio.write_assignment_text(assignment, ell)
    elif inst.kind == "steiner":
        _, edges = solution
        out_text = fileio.write_tree_solution_text(edges)
    else:  # wcs-wcm
        out_text = fileio.write_vertex_set_text(solution)
    Path(args.out).write_text(out_text, encoding="utf-8")
    return 0


def _cmd_decompose(args) -> int:
    g = fileio.parse_graph(args.graph)
    td = heuristic_td(g, args.method)
    fileio.write_td(td, g.n, args.out)
    print(f"width {td.width}")
    return 0


def _cmd_classify(args) -> int:
    g = fileio.parse_graph(args.graph)
    rep = classify(g)
    print(f"connected {str(rep.connected).lower()}")
    print(f"tree {str(rep.is_tree).lower()}")
    print(f"path {str(rep.is_path).lower()}")
    print(f"cycle {str(rep.is_cycle).lower()}")
    print(f"max-degree {rep.max_degree}")
    print(f"bipartite {str(rep.bipartition is not None).lower()}")
    print(f"chordal {str(rep.chordal_peo is not None).lower()}")
    print(f"nonnegative-weights {str(rep.all_weights_nonnegative).lower()}")
    return 0


def _add_source_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--cnf", action="append", help="CNF input (repeat for crosscomp)")
    p.add_argument("--steiner", help="Steiner instance input")
    p.add_argument("--setcover", help="set cover instance input")
    p.add_argument("--wcs", help="vertex-weighted graph input")
    p.add_argument("--k", type=int, help="budget for wcs-wcm")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="connmatch",
        description="Exact maximum weight connected matching toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve an instance")
    p.add_argument("--graph", required=True)
    p.add_argument("--solver", default="auto", choices=SOLVERS)
    p.add_argument("--td", help="tree decomposition file")
    p.add_argument("--k", type=int, help="decision threshold: exit 0 iff optimum >= k")
    p.add_argument("--cert", help="write the witness matching here")
    p.add_argument("--brute-limit", type=int, default=24)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("verify", help="verify a matching certificate")
    p.add_argument("--graph", required=True)
    p.add_argument("--cert", required=True)
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("generate", help="generate a hardness-gadget instance")
    p.add_argument("kind", choices=GENERATE_KINDS)
    _add_source_flags(p)
    p.add_argument("--out", required=True, help="output graph file")
    p.add_argument("--map", help="output label map file")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("map-cert", help="translate certificates across a reduction")
    p.add_argument("kind", choices=GENERATE_KINDS)
    _add_source_flags(p)
    p.add_argument("--map", help="label map to cross-check")
    p.add_argument("--direction", required=True, choices=("lift", "project"))
    p.add_argument("--solution", help="source-problem solution file (lift)")
    p.add_argument("--cert", help="matching certificate file (project)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_map_cert)

    p = sub.add_parser("decompose", help="heuristic tree decomposition")
    p.add_argument("--graph", required=True)
    p.add_argument("--method", default="min-fill", choices=("min-degree", "min-fill"))
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("classify", help="print the structural report")
    p.add_argument("--graph", required=True)
    p.set_defaults(func=_cmd_classify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (GraphError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # any other failure is an error too, in one line
        print(f"error: {type(exc).__name__}: {' '.join(str(exc).split())}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
