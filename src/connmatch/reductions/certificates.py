"""Bidirectional certificate translation for generated instances.

``lift_certificate`` turns a source-problem solution into a matching (or a
vertex set for the subgraph-flavored target) reaching the instance target
``k``; ``project_certificate`` recovers a source solution from any valid
certificate of weight at least ``k``. Both directions re-validate their
input and name the violated constraint on failure.

Each source problem has one check that both directions share, and its
message names the failing side ("source ...", "certificate ..." or
"projected ..."): a CNF assignment goes through
:meth:`Cnf.unsatisfied_clause`, a set family through :func:`_require_cover`,
a Steiner tree through :func:`_normalize_tree`, and a vertex set (a wcs-wcm
source or a setcover-wcs certificate) through
:func:`_require_connected_subset`. Matchings, lifted or given, go through
:func:`_require_connected_matching`. Every connectivity test on the source
side runs the one search :func:`_bfs`.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Union

from ..graphs import Matching, VertexWeightedGraph, induced_by_matching_connected
from .generators import _cycle_labels, steiner_parameters
from .instances import Cnf, LabeledInstance, ReductionError, SetCoverInstance, SteinerInstance

_SAT_KINDS = ("starlike", "bip4", "planar-bipartite")


def _bfs(verts, edges: Iterable, start: int) -> tuple[set, list]:
    """Breadth-first search from ``start`` over the ``edges`` with both ends
    in ``verts``, visiting neighbours in edge order. Returns the reached
    vertices and the search-tree edges as ``(min, max)`` pairs in discovery
    order."""
    adj = {v: [] for v in verts}
    for u, v in edges:
        if u in adj and v in adj:
            adj[u].append(v)
            adj[v].append(u)
    seen = {start}
    tree = []
    queue = deque([start])
    while queue:
        x = queue.popleft()
        for y in adj[x]:
            if y not in seen:
                seen.add(y)
                tree.append((min(x, y), max(x, y)))
                queue.append(y)
    return seen, tree


# ---------------------------------------------------------------------------
# the checks, one per source problem and one for matchings


def _require_satisfying(f: Cnf, assignment, side: str) -> None:
    ci = f.unsatisfied_clause(assignment)
    if ci is not None:
        raise ReductionError(f"{side} assignment does not satisfy clause {ci}")


def _require_cover(src: SetCoverInstance, chosen: frozenset, side: str) -> None:
    outside = [j for j in chosen if not 0 <= j < len(src.sets)]
    if outside:
        raise ReductionError(f"{side} family names set index {min(outside) + 1}, out of range")
    missing = set(range(src.universe_size)).difference(*(src.sets[j] for j in chosen))
    if missing:
        raise ReductionError(f"{side} family leaves element {min(missing) + 1} uncovered")
    if len(chosen) > src.budget:
        raise ReductionError(f"{side} family has {len(chosen)} sets, budget is {src.budget}")


def _require_connected_subset(g: VertexWeightedGraph, subset: frozenset, k: int, what: str) -> None:
    outside = [v for v in subset if not 0 <= v < g.n]
    if outside:
        raise ReductionError(f"{what} has vertex {min(outside)} out of range")
    total = sum(g.vertex_weights[v] for v in subset)
    if total < k:
        raise ReductionError(f"{what} weighs {total}, below target {k}")
    if subset and _bfs(subset, g.edges, min(subset))[0] != subset:
        raise ReductionError(f"{what} is not connected")


def _normalize_tree(inst: SteinerInstance, edges: Iterable) -> tuple[frozenset, tuple]:
    """The vertices and sorted ``(min, max)`` edges of a Steiner tree of
    ``inst`` within its budget; raises unless ``edges`` is one."""
    g = inst.as_graph()
    tree_edges = []
    for u, v in edges:
        if g.edge_id(u, v) is None:
            raise ReductionError(f"tree edge ({u}, {v}) is not a source edge")
        tree_edges.append((min(u, v), max(u, v)))
    if len(set(tree_edges)) != len(tree_edges):
        raise ReductionError("tree repeats an edge")
    verts = {x for e in tree_edges for x in e} or set(inst.terminals)
    if not tree_edges and len(verts) != 1:
        raise ReductionError("an edgeless tree can only cover a single terminal")
    if len(tree_edges) != len(verts) - 1:
        raise ReductionError("edge set is not a tree (wrong edge count)")
    if _bfs(verts, tree_edges, min(verts))[0] != verts:
        raise ReductionError("edge set is not a tree (disconnected)")
    if not inst.terminals <= verts:
        raise ReductionError(f"tree misses terminal {min(inst.terminals - verts)}")
    if len(tree_edges) > inst.budget:
        raise ReductionError(f"tree has {len(tree_edges)} edges, budget is {inst.budget}")
    return frozenset(verts), tuple(sorted(tree_edges))


def _require_connected_matching(inst: LabeledInstance, m: Matching, what: str) -> Matching:
    if not isinstance(m, Matching):
        raise ReductionError(f"{what} is not a Matching")
    if m.graph is not inst.graph and m.graph != inst.graph:
        raise ReductionError(f"{what} belongs to a different graph")
    if m.weight < inst.k:
        raise ReductionError(f"{what} weighs {m.weight}, below target {inst.k}")
    if not induced_by_matching_connected(inst.graph, m):
        raise ReductionError(f"{what} is not a connected matching")
    return m


# ---------------------------------------------------------------------------
# lifting source solutions into certificates


def _edge_id(inst: LabeledInstance, label_u: str, label_v: str) -> int:
    eid = inst.graph.edge_id(inst.vertex(label_u), inst.vertex(label_v))
    if eid is None:
        raise ReductionError(f"edge {label_u!r}-{label_v!r} does not exist")
    return eid


def _lifted_matching(inst: LabeledInstance, pairs) -> Matching:
    m = Matching(inst.graph, [_edge_id(inst, a, b) for a, b in pairs])
    return _require_connected_matching(inst, m, "internal error: lifted matching")


def _choice_pairs(assignment, center: str) -> list:
    return [(center.format(i=i), f"x.{i}{'+' if b else '-'}") for i, b in enumerate(assignment, start=1)]


def _clause_pairs(count: int) -> list:
    return [(f"c.{ci}+", f"c.{ci}-") for ci in range(1, count + 1)]


def lift_certificate(inst: LabeledInstance, source_solution) -> Union[Matching, frozenset]:
    kind = inst.kind
    if kind in _SAT_KINDS:
        return _lift_sat(inst, source_solution)
    if kind == "crosscomp":
        return _lift_crosscomp(inst, source_solution)
    if kind == "steiner":
        return _lift_steiner(inst, source_solution)
    if kind == "wcs-wcm":
        subset = frozenset(source_solution)
        _require_connected_subset(inst.source, subset, inst.k, "source vertex set")
        return _lifted_matching(inst, [(f"vert.{w + 1}", f"pair.{w + 1}") for w in subset])
    if kind == "setcover-wcs":
        return _lift_setcover(inst, source_solution)
    raise ReductionError(f"unknown reduction kind {inst.kind!r}")


def _lift_sat(inst: LabeledInstance, assignment) -> Matching:
    f: Cnf = inst.source
    _require_satisfying(f, assignment, "source")
    pairs = _choice_pairs(assignment, "x.{i}") + _clause_pairs(len(f.clauses))
    if inst.kind == "bip4":
        pairs.append(("h+", "h-"))
    elif inst.kind == "planar-bipartite":
        pairs += [(f"v.{i}", f"u.{i}") for i in range(1, f.num_vars + 1)]
    return _lifted_matching(inst, pairs)


def _lift_crosscomp(inst: LabeledInstance, source_solution) -> Matching:
    try:
        assignment, ell = source_solution
    except (TypeError, ValueError):
        raise ReductionError("crosscomp solution must be (assignment, instance index)") from None
    instances = inst.source
    if not (1 <= ell <= len(instances)):
        raise ReductionError(f"instance index {ell} out of range")
    f = instances[ell - 1]
    _require_satisfying(f, assignment, "source")
    nclauses = inst.k - f.num_vars - 2  # k = |C| + |X| + 2 over the clause union C
    pairs = _choice_pairs(assignment, "x.{i}*") + _clause_pairs(nclauses)
    return _lifted_matching(inst, pairs + [("h+", "h-"), ("q", f"y.{ell}")])


def _lift_steiner(inst: LabeledInstance, source_solution) -> Matching:
    src: SteinerInstance = inst.source
    verts, tree_edges = _normalize_tree(src, source_solution)
    q, p, r, _ = steiner_parameters(src)
    pairs = []
    for w in sorted(verts):
        labels = _cycle_labels(src, w, q, r)
        pairs += zip(labels[::2], labels[1::2])
    for w, u in tree_edges:
        pairs += [(f"path.{w + 1}.{u + 1}.{t}", f"path.{w + 1}.{u + 1}.{t + 1}") for t in range(0, 2 * p, 2)]
    return _lifted_matching(inst, pairs)


def _lift_setcover(inst: LabeledInstance, source_solution) -> frozenset:
    src: SetCoverInstance = inst.source
    chosen = frozenset(source_solution)
    _require_cover(src, chosen, "source")
    labels = ["h+"] + [f"x.{u}" for u in range(1, src.universe_size + 1)] + [f"c.{j + 1}+" for j in chosen]
    subset = frozenset(map(inst.vertex, labels))
    _require_connected_subset(inst.graph, subset, inst.k, "internal error: lifted vertex set")
    return subset


# ---------------------------------------------------------------------------
# projecting certificates back onto source solutions


def project_certificate(inst: LabeledInstance, certificate):
    kind = inst.kind
    if kind in _SAT_KINDS:
        m = _require_connected_matching(inst, certificate, "certificate")
        f: Cnf = inst.source
        assignment = tuple(inst.vertex(f"x.{i}+") in m.vertices for i in range(1, f.num_vars + 1))
        _require_satisfying(f, assignment, "projected")
        return assignment
    if kind == "crosscomp":
        return _project_crosscomp(inst, certificate)
    if kind == "steiner":
        return _project_steiner(inst, certificate)
    if kind == "wcs-wcm":
        return _project_wcs_wcm(inst, certificate)
    if kind == "setcover-wcs":
        return _project_setcover(inst, certificate)
    raise ReductionError(f"unknown reduction kind {inst.kind!r}")


def _project_crosscomp(inst: LabeledInstance, certificate) -> tuple:
    ids = set(_require_connected_matching(inst, certificate, "certificate").edge_ids)
    instances = inst.source
    ell = next((ell for ell in range(1, len(instances) + 1) if _edge_id(inst, "q", f"y.{ell}") in ids), None)
    if ell is None:
        raise ReductionError("certificate does not match the selector hub to any leaf")
    assignment = tuple(
        _edge_id(inst, f"x.{i}*", f"x.{i}+") in ids for i in range(1, instances[0].num_vars + 1)
    )
    _require_satisfying(instances[ell - 1], assignment, "projected")
    return assignment, ell


def _project_steiner(inst: LabeledInstance, certificate) -> tuple[frozenset, tuple]:
    saturated = _require_connected_matching(inst, certificate, "certificate").vertices
    src: SteinerInstance = inst.source
    q, p, r, _ = steiner_parameters(src)
    touched = {
        w for w in range(src.n) if any(inst.vertex(lab) in saturated for lab in _cycle_labels(src, w, q, r))
    }
    missing = src.terminals - touched
    if missing:
        raise ReductionError(f"certificate leaves terminal {min(missing)} untouched")
    paths = [
        (w, u)
        for w, u in src.edges
        if all(inst.vertex(f"path.{w + 1}.{u + 1}.{t}") in saturated for t in range(2 * p))
    ]
    # the saturated paths may close cycles; keep a spanning tree of the ones
    # between touched vertices, which must reach all of them
    reached, kept = _bfs(touched, paths, min(touched))
    if reached != touched:
        raise ReductionError("touched replacement cycles are not tree-connected")
    if len(kept) > src.budget:
        raise ReductionError(f"certificate spends {len(kept)} edges, budget is {src.budget}")
    return frozenset(touched), tuple(sorted(kept))


def _project_wcs_wcm(inst: LabeledInstance, certificate) -> frozenset:
    ids = set(_require_connected_matching(inst, certificate, "certificate").edge_ids)
    gvw: VertexWeightedGraph = inst.source
    subset = frozenset(w for w in range(gvw.n) if _edge_id(inst, f"vert.{w + 1}", f"pair.{w + 1}") in ids)
    _require_connected_subset(gvw, subset, inst.k, "projected vertex set")
    return subset


def _project_setcover(inst: LabeledInstance, certificate) -> frozenset:
    subset = frozenset(certificate)
    _require_connected_subset(inst.graph, subset, inst.k, "certificate")
    src: SetCoverInstance = inst.source
    chosen = frozenset(j for j in range(len(src.sets)) if inst.vertex(f"c.{j + 1}+") in subset)
    _require_cover(src, chosen, "projected")
    return chosen
