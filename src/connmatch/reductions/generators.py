"""Gadget constructions turning source problems into connected-matching
instances (and set cover into a vertex-weighted connected-subgraph
instance). Every generated vertex carries a structured label so
certificates can be translated in both directions.
"""

from __future__ import annotations

from ..graphs import VertexWeightedGraph
from .instances import (
    Cnf,
    InstanceBuilder,
    LabeledInstance,
    ReductionError,
    SetCoverInstance,
    SteinerInstance,
)


def _literal_label(lit: int) -> str:
    return f"x.{abs(lit)}{'+' if lit > 0 else '-'}"


def gen_starlike(f: Cnf) -> LabeledInstance:
    """3SAT to a starlike graph with weights in {-1, +1}; k = |X| + |C|.

    Per variable a triangle (center, positive literal, negative literal);
    all literal vertices of distinct variables are pairwise joined by -1
    edges, making the literal set a clique, so every maximal clique meets it
    and the clique tree is a star. Clause pairs attach to their literals.
    """
    f.require_three_sat()
    b = InstanceBuilder()
    n = f.num_vars
    for i in range(1, n + 1):
        b.edge(f"x.{i}", f"x.{i}+", 1)
        b.edge(f"x.{i}", f"x.{i}-", 1)
        b.edge(f"x.{i}+", f"x.{i}-", -1)
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            for si in ("+", "-"):
                for sj in ("+", "-"):
                    b.edge(f"x.{i}{si}", f"x.{j}{sj}", -1)
    for ci, clause in enumerate(f.clauses, start=1):
        b.edge(f"c.{ci}+", f"c.{ci}-", 1)
        for lit in clause:
            b.edge(f"c.{ci}-", _literal_label(lit), -1)
            b.edge(f"c.{ci}+", _literal_label(lit), -1)
    return LabeledInstance(b.graph(), n + len(f.clauses), b.labels, "starlike", f)


def gen_bip4(f: Cnf) -> LabeledInstance:
    """3SAT to a bipartite graph of diameter at most 4, weights in {0, 1};
    k = |X| + |C| + 1."""
    f.require_three_sat()
    b = InstanceBuilder()
    n = f.num_vars
    b.edge("h+", "h-", 1)
    for i in range(1, n + 1):
        b.edge(f"x.{i}+", f"x.{i}", 1)
        b.edge(f"x.{i}", f"x.{i}-", 1)
        b.edge(f"x.{i}", "h+", 0)
    for ci, clause in enumerate(f.clauses, start=1):
        b.edge(f"c.{ci}+", f"c.{ci}-", 1)
        for lit in clause:
            b.edge(f"c.{ci}+", _literal_label(lit), 0)
    # diameter-shrinking edges
    b.vertex("u")
    for ci in range(1, len(f.clauses) + 1):
        b.edge(f"c.{ci}+", "u", 0)
    for i in range(1, n + 1):
        b.edge(f"x.{i}+", "h-", 0)
        b.edge(f"x.{i}-", "h-", 0)
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i != j:
                b.edge(f"x.{i}", f"x.{j}+", 0)
                b.edge(f"x.{i}", f"x.{j}-", 0)
    return LabeledInstance(b.graph(), n + len(f.clauses) + 1, b.labels, "bip4", f)


def steiner_parameters(inst: SteinerInstance) -> tuple[int, int, int, int]:
    """(q, p, r, k): replacement cycle half-lengths, path half-length, target."""
    g = inst.as_graph()
    q = g.max_degree()
    p = q * (inst.n - len(inst.terminals)) + 1
    r = p * len(inst.edges) + 1
    k = r * len(inst.terminals) - p * inst.budget
    return q, p, r, k


def _cycle_labels(inst: SteinerInstance, w: int, q: int, r: int) -> list[str]:
    """Labels around vertex w's replacement cycle (2r long for a terminal,
    2q otherwise), with one connector slot per neighbor at evenly spaced
    positions."""
    length = 2 * r if w in inst.terminals else 2 * q
    nbrs = inst.neighbors(w)
    labels = [f"cyc.{w + 1}.{t}" for t in range(length)]
    if nbrs:
        step = length // len(nbrs)
        for idx, u in enumerate(nbrs):
            labels[idx * step] = f"vw.{w + 1}.{u + 1}"
    return labels


def gen_planar_subcubic(inst: SteinerInstance) -> LabeledInstance:
    """Steiner tree to a max-degree-3 graph with weights in {-1, +1}.

    Terminals become long cycles (2r edges of weight +1), other vertices
    short ones (2q); each source edge becomes a 2p-vertex path of -1 edges
    whose endpoints hook onto the two cycles by -1 connector edges. Planarity
    of the output is inherited from the source embedding and is not checked.
    """
    if not inst.terminals:
        raise ReductionError("the terminal set must be non-empty")
    from ..graphs import is_connected

    if not is_connected(inst.as_graph()):
        raise ReductionError("source graph must be connected")
    q, p, r, k = steiner_parameters(inst)
    b = InstanceBuilder()
    for w in range(inst.n):
        labels = _cycle_labels(inst, w, q, r)
        length = len(labels)
        if length >= 3:
            for t in range(length):
                b.edge(labels[t], labels[(t + 1) % length], 1)
        else:
            for t in range(length - 1):
                b.edge(labels[t], labels[t + 1], 1)
    for w, u in inst.edges:
        path = [f"path.{w + 1}.{u + 1}.{t}" for t in range(2 * p)]
        for t in range(2 * p - 1):
            b.edge(path[t], path[t + 1], -1)
        b.edge(f"vw.{w + 1}.{u + 1}", path[0], -1)
        b.edge(path[-1], f"vw.{u + 1}.{w + 1}", -1)
    out = LabeledInstance(b.graph(), k, b.labels, "steiner", inst)
    if out.graph.max_degree() > 3:
        raise ReductionError("internal error: output exceeds degree 3")
    return out


def gen_planar_bipartite(f: Cnf) -> LabeledInstance:
    """Monotone planar SAT to a bipartite graph with weights in {0, 1};
    k = 2|X| + |C|. Planarity is inherited from the source formula's
    embedding and is not checked.

    Each variable contributes the weight-1 pendant pair (v_i, u_i) plus the
    two weight-1 choice edges from the variable vertex to its literal
    vertices; a clause hangs off its literal vertices by weight-0 edges, so
    its weight-1 pendant pair can only connect through a literal the chosen
    assignment saturates.
    """
    bad = f.monotone_violation()
    if bad is not None:
        raise ReductionError(f"clause {bad} mixes positive and negative literals")
    b = InstanceBuilder()
    n = f.num_vars
    for i in range(1, n + 1):
        b.edge(f"x.{i}", f"x.{i}+", 1)
        b.edge(f"x.{i}", f"x.{i}-", 1)
        b.edge(f"v.{i}", f"u.{i}", 1)
    for i in range(1, n + 1):
        nxt = i + 1 if i < n else 1
        b.edge(f"v.{i}", f"x.{i}", 0)
        if nxt != i:
            b.edge(f"v.{i}", f"x.{nxt}", 0)
    for ci, clause in enumerate(f.clauses, start=1):
        b.edge(f"c.{ci}+", f"c.{ci}-", 1)
        for lit in clause:
            b.edge(f"c.{ci}+", _literal_label(lit), 0)
    return LabeledInstance(b.graph(), 2 * n + len(f.clauses), b.labels, "planar-bipartite", f)


def _canon_clause(clause) -> tuple:
    return tuple(sorted(set(clause)))


def gen_crosscomp(instances: list[Cnf]) -> LabeledInstance:
    """OR-composition of many 3SAT instances over one variable set.

    The clause side is the union of all clause sets; a selector star picks
    the instance whose clauses must be satisfied through the literal
    gadgets, while every foreign clause pair is absorbed by its selector
    leaf. k = |C| + |X| + 2. Output is bipartite with weights in {0, 1}.
    """
    if not instances:
        raise ReductionError("need at least one instance")
    nvars = instances[0].num_vars
    for idx, f in enumerate(instances):
        if f.num_vars != nvars:
            raise ReductionError(f"instance {idx + 1} has a different variable set")
        f.require_three_sat()
    t = len(instances)

    all_clauses = list(dict.fromkeys(_canon_clause(c) for f in instances for c in f.clauses))
    member = [frozenset(_canon_clause(c) for c in f.clauses) for f in instances]

    b = InstanceBuilder()
    for cj, clause in enumerate(all_clauses, start=1):
        b.edge(f"c.{cj}+", f"c.{cj}-", 1)
    for i in range(1, nvars + 1):
        b.edge(f"x.{i}-", f"x.{i}*", 1)
        b.edge(f"x.{i}*", f"x.{i}+", 1)
    for cj, clause in enumerate(all_clauses, start=1):
        for lit in clause:
            b.edge(_literal_label(lit), f"c.{cj}+", 0)
    b.edge("h+", "h-", 1)
    for i in range(1, nvars + 1):
        b.edge("h+", f"x.{i}*", 0)
    for ell in range(1, t + 1):
        b.edge("q", f"y.{ell}", 1)
        # unconditional: the chosen selector leaf must reach the hub even
        # when its instance owns every clause (e.g. t = 1)
        b.edge("h+", f"y.{ell}", 0)
    for ell in range(1, t + 1):
        for cj, clause in enumerate(all_clauses, start=1):
            if clause not in member[ell - 1]:
                b.edge(f"c.{cj}-", f"y.{ell}", 0)
    k = len(all_clauses) + nvars + 2
    return LabeledInstance(b.graph(), k, b.labels, "crosscomp", tuple(instances))


def wcs_blocking_weight(gvw: VertexWeightedGraph) -> int:
    """The -q pricing used by :func:`gen_wcs_to_wcm` for adjacency edges."""
    return 1 + sum(w for w in gvw.vertex_weights if w > 0)


def gen_wcs_to_wcm(gvw: VertexWeightedGraph, budget: int) -> LabeledInstance:
    """Vertex-weighted connected subgraph to connected matching; k = k'.

    Each vertex becomes a pendant pair whose edge carries the vertex weight;
    original adjacencies become edges of weight -q, too costly to ever match.
    """
    q = wcs_blocking_weight(gvw)
    b = InstanceBuilder()
    for w in range(gvw.n):
        b.edge(f"vert.{w + 1}", f"pair.{w + 1}", gvw.vertex_weights[w])
    for x, y in gvw.edges:
        b.edge(f"vert.{x + 1}", f"vert.{y + 1}", -q)
    return LabeledInstance(b.graph(), budget, b.labels, "wcs-wcm", gvw)


def gen_setcover_to_wcs(inst: SetCoverInstance) -> LabeledInstance:
    """Set cover to vertex-weighted connected subgraph.

    One vertex per member set (weight -1), one per universe element and one
    hub, both at weight |S|+1; k = (|U|+1)(|S|+1) - k'. The heavy weight
    forces the hub and every element vertex into any solution reaching k,
    leaving room for at most k' chosen member sets.
    """
    q = inst.universe_size
    p = len(inst.sets)
    heavy = p + 1
    # hub 0, member sets 1..p, elements p+1..p+q
    labels = {0: "h+"}
    labels.update((j, f"c.{j}+") for j in range(1, p + 1))
    labels.update((p + u, f"x.{u}") for u in range(1, q + 1))
    weights = [heavy] + [-1] * p + [heavy] * q
    edges = []
    for j, members in enumerate(inst.sets, start=1):
        edges.append((0, j))
        edges.extend((p + 1 + u, j) for u in members)
    graph = VertexWeightedGraph(p + q + 1, edges, weights)
    k = (q + 1) * (p + 1) - inst.budget
    return LabeledInstance(graph, k, labels, "setcover-wcs", inst)
