"""Source-problem instance types and generated-instance containers.

Each source type validates itself on construction. :meth:`Cnf.unsatisfied_clause`
is the one clause-satisfaction loop: both translation directions of
:mod:`connmatch.reductions.certificates` check assignments through it, and
:meth:`Cnf.satisfied_by` is its yes/no form. A :class:`SteinerInstance` is
validated through the graph it builds once, which also answers its
neighbour queries; a :class:`LabeledInstance` indexes its labels once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

from ..graphs import GraphError, VertexWeightedGraph, WeightedGraph


class ReductionError(GraphError):
    """Raised for malformed source instances or invalid certificates."""


@dataclass(frozen=True)
class Cnf:
    """A CNF formula; literals are non-zero ints whose sign is the polarity."""

    num_vars: int
    clauses: tuple

    def __post_init__(self):
        for clause in self.clauses:
            if not clause:
                raise ReductionError("empty clause")
            for lit in clause:
                if lit == 0 or abs(lit) > self.num_vars:
                    raise ReductionError(f"literal {lit} out of range")

    @staticmethod
    def build(num_vars: int, clauses) -> "Cnf":
        return Cnf(num_vars, tuple(tuple(c) for c in clauses))

    def require_three_sat(self) -> None:
        for i, clause in enumerate(self.clauses):
            if len(clause) != 3:
                raise ReductionError(f"clause {i + 1} has {len(clause)} literals, need exactly 3")

    def monotone_violation(self) -> Optional[int]:
        """1-based index of the first mixed-polarity clause, or None."""
        for i, clause in enumerate(self.clauses):
            if any(l > 0 for l in clause) and any(l < 0 for l in clause):
                return i + 1
        return None

    def unsatisfied_clause(self, assignment: Sequence[bool]) -> Optional[int]:
        """1-based index of the first clause ``assignment`` leaves unsatisfied, or None."""
        if len(assignment) != self.num_vars:
            raise ReductionError(f"assignment has {len(assignment)} values for {self.num_vars} variables")
        for ci, clause in enumerate(self.clauses, start=1):
            if not any((lit > 0) == bool(assignment[abs(lit) - 1]) for lit in clause):
                return ci
        return None

    def satisfied_by(self, assignment: Sequence[bool]) -> bool:
        return self.unsatisfied_clause(assignment) is None


@dataclass(frozen=True)
class SteinerInstance:
    """Unweighted graph, terminal set, edge budget."""

    n: int
    edges: tuple  # (u, v) pairs, 0-based
    terminals: frozenset
    budget: int
    _graph: WeightedGraph = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        try:
            graph = WeightedGraph(self.n, [(u, v, 0) for u, v in self.edges])
        except GraphError as exc:
            raise ReductionError(str(exc)) from None
        object.__setattr__(self, "_graph", graph)
        for t in self.terminals:
            if not (0 <= t < self.n):
                raise ReductionError(f"terminal {t} out of range")

    @staticmethod
    def build(n, edges, terminals, budget) -> "SteinerInstance":
        return SteinerInstance(n, tuple((min(u, v), max(u, v)) for u, v in edges), frozenset(terminals), budget)

    def as_graph(self) -> WeightedGraph:
        """The source graph with zero edge weights, built once."""
        return self._graph

    def neighbors(self, v: int) -> list[int]:
        return sorted(self._graph.neighbors(v))


@dataclass(frozen=True)
class SetCoverInstance:
    """Universe 0..universe_size-1, family of member sets, size budget.
    Messages number elements and sets from 1, as set-cover files do."""

    universe_size: int
    sets: tuple  # of frozensets
    budget: int

    def __post_init__(self):
        covered = set()
        for i, s in enumerate(self.sets):
            if not s:
                raise ReductionError(f"member set {i + 1} is empty")
            for e in s:
                if not (0 <= e < self.universe_size):
                    raise ReductionError(f"element {e + 1} out of range in set {i + 1}")
            covered |= s
        if len(covered) < self.universe_size:
            e = next(e for e in range(self.universe_size) if e not in covered)
            raise ReductionError(f"element {e + 1} is covered by no set")

    @staticmethod
    def build(universe_size, sets, budget) -> "SetCoverInstance":
        return SetCoverInstance(universe_size, tuple(frozenset(s) for s in sets), budget)


@dataclass
class LabeledInstance:
    """A generated instance: graph, target weight, vertex labels, provenance."""

    graph: Union[WeightedGraph, VertexWeightedGraph]
    k: int
    labels: dict  # vertex id -> label string
    kind: str
    source: object = None
    _by_label: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = self.graph.n
        if sorted(self.labels) != list(range(n)):
            raise ReductionError("every vertex must carry exactly one label")
        self._by_label = {lab: v for v, lab in self.labels.items()}
        if len(self._by_label) != n:
            raise ReductionError("labels must be injective")

    def vertex(self, label: str) -> int:
        try:
            return self._by_label[label]
        except KeyError:
            raise ReductionError(f"no vertex labeled {label!r}") from None


class InstanceBuilder:
    """Accumulates labeled vertices and deduplicated edges."""

    def __init__(self):
        self.labels: dict[int, str] = {}
        self._ids: dict[str, int] = {}
        self._edges: dict[tuple[int, int], int] = {}

    def vertex(self, label: str) -> int:
        if label in self._ids:
            return self._ids[label]
        v = len(self._ids)
        self._ids[label] = v
        self.labels[v] = label
        return v

    def edge(self, label_u: str, label_v: str, weight: int) -> None:
        u, v = self.vertex(label_u), self.vertex(label_v)
        if u == v:
            raise ReductionError(f"self-loop at {label_u!r}")
        key = (min(u, v), max(u, v))
        cur = self._edges.get(key)
        if cur is None:
            self._edges[key] = weight
        elif cur != weight:
            raise ReductionError(f"conflicting weights for edge {label_u!r}-{label_v!r}")

    def graph(self) -> WeightedGraph:
        return WeightedGraph(len(self._ids), [(u, v, w) for (u, v), w in self._edges.items()])
