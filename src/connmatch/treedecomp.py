"""Tree decompositions: validation, elimination-order heuristics, the exact
decomposition of a chordal graph, and conversion to nice form rooted at a
chosen vertex's forget node.

Costs: :func:`heuristic_td` keeps the elimination candidates in a heap and,
after each elimination, re-scores only the vertices whose score can change
(the eliminated vertex's neighbours, plus their neighbours for min-fill), so
on sparse graphs of bounded width it runs in about O(n log n).
:func:`peo_td` reads a chordal graph's decomposition off a perfect
elimination ordering in O(n + m), and both link their bags the same way.
:func:`validate_td` indexes bags by vertex once and is linear in the total
bag size plus the number of edges.

The treewidth DP's work grows with :func:`cell_bound`, the sum of 3^|bag|
over the nodes of the nice form. :func:`make_nice` therefore joins children
on the bag vertices they share with their parent, not on the whole parent
bag, and introduces the parent's other vertices once, after the last join.
"""

from __future__ import annotations

import heapq
from typing import Iterable, NamedTuple, Optional

from .graphs import GraphError, WeightedGraph, is_connected


class TdError(GraphError):
    """Raised when a tree decomposition is malformed or violates an axiom."""


class TreeDecomposition(NamedTuple):
    bags: tuple  # tuple of frozensets of vertex ids
    tree_edges: tuple  # pairs of bag indices

    @property
    def width(self) -> int:
        return max((len(b) for b in self.bags), default=0) - 1

    @staticmethod
    def build(bags: Iterable[Iterable[int]], tree_edges: Iterable[tuple[int, int]]) -> "TreeDecomposition":
        return TreeDecomposition(
            bags=tuple(frozenset(b) for b in bags),
            tree_edges=tuple((min(i, j), max(i, j)) for i, j in tree_edges),
        )


def _bag_tree_order(td: TreeDecomposition, root: int) -> tuple[list[int], list[int]]:
    """Breadth-first order of the bag tree from bag ``root``, and each bag's
    parent (``root`` is its own). Raises :class:`TdError` unless the bags and
    ``tree_edges`` form a tree."""
    nbags = len(td.bags)
    adj: list[list[int]] = [[] for _ in range(nbags)]
    for i, j in td.tree_edges:
        if not (0 <= i < nbags and 0 <= j < nbags) or i == j:
            raise TdError(f"bag-tree edge ({i}, {j}) is out of range or a loop")
        adj[i].append(j)
        adj[j].append(i)
    if len(td.tree_edges) != nbags - 1:
        raise TdError(f"bag graph is not a tree: {nbags} bags, {len(td.tree_edges)} edges")
    parent = [-1] * nbags
    parent[root] = root
    order = [root]
    for i in order:  # order grows while it is read, as the BFS queue
        for j in adj[i]:
            if parent[j] < 0:
                parent[j] = i
                order.append(j)
    if len(order) != nbags:
        raise TdError("bag graph is not a tree: disconnected")
    return order, parent


def validate_td(g: WeightedGraph, td: TreeDecomposition) -> int:
    """Check all decomposition axioms; return the width on success.

    Failures raise :class:`TdError` naming the violated axiom and a witness.
    """
    if not td.bags:
        raise TdError("decomposition has no bags")
    _bag_tree_order(td, 0)

    covered = set().union(*td.bags)
    for v in range(g.n):
        if v not in covered:
            raise TdError(f"vertex coverage fails: vertex {v} is in no bag")
    for v in covered:
        if not (0 <= v < g.n):
            raise TdError(f"bag mentions unknown vertex {v}")

    holders: list[list[int]] = [[] for _ in range(g.n)]
    for i, b in enumerate(td.bags):
        for v in b:
            holders[v].append(i)

    for u, v, _ in g.edges:
        hu, hv = holders[u], holders[v]
        hold, other = (hu, v) if len(hu) <= len(hv) else (hv, u)
        if not any(other in td.bags[i] for i in hold):
            raise TdError(f"edge coverage fails: edge ({u}, {v}) is in no bag")

    # The bags form a tree, so the bags holding v are connected iff the tree
    # edges between two of them number one less than the bags.
    inner = [0] * g.n
    for i, j in td.tree_edges:
        bi, bj = td.bags[i], td.bags[j]
        if len(bj) < len(bi):
            bi, bj = bj, bi
        for v in bi:
            if v in bj:
                inner[v] += 1
    for v in range(g.n):
        if inner[v] != len(holders[v]) - 1:
            raise TdError(f"occurrence connectivity fails: bags of vertex {v} are disconnected")

    return td.width


def heuristic_td(g: WeightedGraph, method: str = "min-fill") -> TreeDecomposition:
    """Decomposition from a greedy elimination ordering.

    ``method`` is ``"min-degree"`` or ``"min-fill"``. The width is an upper
    bound on the treewidth, with no optimality claim.
    """
    if g.n == 0:
        raise GraphError("cannot decompose the empty graph")
    if not is_connected(g):
        raise GraphError("heuristic decomposition expects a connected graph")
    if method not in ("min-degree", "min-fill"):
        raise GraphError(f"unknown elimination method: {method}")

    nbrs = [set(g.neighbors(v)) for v in range(g.n)]
    elim_pos = {}
    bags = []

    def fill_count(v: int) -> int:
        ns = nbrs[v]
        missing = 0
        for a in ns:
            missing += len(ns - nbrs[a]) - 1  # a itself is in ns, never in nbrs[a]
        return missing // 2

    def degree_key(x: int) -> tuple:
        return (len(nbrs[x]), x)

    def fill_key(x: int) -> tuple:
        return (fill_count(x), len(nbrs[x]), x)

    # Each key ends in the vertex id, so the heap pops what min() over the
    # live keys would pick. Entries whose key has since changed, or whose
    # vertex is gone (key None), are skipped.
    min_fill = method == "min-fill"
    score = fill_key if min_fill else degree_key
    key = [score(x) for x in range(g.n)]
    heap = list(key)
    heapq.heapify(heap)

    while heap:
        k = heapq.heappop(heap)
        v = k[-1]
        if key[v] != k:
            continue
        bag = frozenset(nbrs[v] | {v})
        elim_pos[v] = len(bags)
        bags.append(bag)
        ns = list(nbrs[v])
        for i, a in enumerate(ns):
            for b in ns[i + 1 :]:
                if b not in nbrs[a]:
                    nbrs[a].add(b)
                    nbrs[b].add(a)
        for a in ns:
            nbrs[a].discard(v)
        nbrs[v] = set()
        key[v] = None
        # Degrees change only on N(v); fill counts also on the neighbours of
        # N(v), whose neighbourhoods may have gained an edge inside N(v).
        touched = set(ns)
        if min_fill:
            for a in ns:
                touched |= nbrs[a]
        for x in touched:
            kx = score(x)
            if kx != key[x]:
                key[x] = kx
                heapq.heappush(heap, kx)

    return _link_elimination_bags(bags, elim_pos)


def _link_elimination_bags(bags: list, elim_pos) -> TreeDecomposition:
    """The decomposition of the bags of an elimination ordering: ``bags[i]``
    holds the i-th eliminated vertex and its neighbours left at that point,
    and ``elim_pos[v]`` is the step that eliminates ``v``. Each bag hangs on
    the bag of its earliest later member; a bag without one (the last bag of
    a connected graph) hangs on the next bag."""
    tree_edges = []
    for i, bag in enumerate(bags):
        later = [elim_pos[u] for u in bag if elim_pos[u] > i]
        if later:
            tree_edges.append((i, min(later)))
        elif i + 1 < len(bags):
            tree_edges.append((i, i + 1))
    return TreeDecomposition.build(bags, tree_edges)


def peo_td(g: WeightedGraph, order) -> TreeDecomposition:
    """The decomposition of a chordal graph from a perfect elimination
    ordering ``order`` (as :func:`~connmatch.graphs.chordal_peo` returns):
    the bag of ``v`` is ``v`` and its neighbours later in ``order``. Every
    bag is a clique and every maximal clique is a bag, so the width is the
    treewidth, the largest clique minus one. Linear in n + m."""
    pos = [0] * g.n
    for i, v in enumerate(order):
        pos[v] = i
    bags = [frozenset([v, *(u for u in g.neighbors(v) if pos[u] > i)]) for i, v in enumerate(order)]
    return _link_elimination_bags(bags, pos)


class NiceNode(NamedTuple):
    kind: str  # "leaf" | "introduce" | "forget" | "join"
    bag: frozenset
    children: list[int]
    vertex: Optional[int] = None  # for introduce / forget


class NiceTreeDecomposition(NamedTuple):
    nodes: list[NiceNode]
    root: int
    pi: int

    @property
    def width(self) -> int:
        return max(len(nd.bag) for nd in self.nodes) - 1

    def postorder(self) -> list[int]:
        out = []
        stack = [self.root]
        while stack:
            x = stack.pop()
            out.append(x)
            stack.extend(self.nodes[x].children)
        out.reverse()
        return out


def cell_bound(nd: NiceTreeDecomposition) -> int:
    """The sum of 3^|bag| over the nice nodes. A DP cell keys each bag
    vertex as unused, matched or half-matched, so this bounds the treewidth
    DP's table cells, and its time grows with it."""
    return sum(3 ** len(node.bag) for node in nd.nodes)


def make_nice(td: TreeDecomposition, pi: int) -> NiceTreeDecomposition:
    """Convert ``td`` to nice form whose root is the empty forget bag for ``pi``.

    The bag tree is re-rooted at a bag containing ``pi`` so that ``pi`` is
    forgotten last. Each original bag is assembled bottom-up: every child
    chain forgets down to the vertices it shares with the bag, the children
    are joined in order, each join on the union of the shared vertices
    joined so far, and one chain then introduces the rest of the bag (from a
    leaf, for a bag without children). No node is wider than the widest bag.
    """
    holders = [i for i, b in enumerate(td.bags) if pi in b]
    if not holders:
        raise TdError(f"vertex {pi} appears in no bag")
    root_bag = holders[0]

    order, parent = _bag_tree_order(td, root_bag)
    children: dict[int, list[int]] = {i: [] for i in order}
    for i in order[1:]:
        children[parent[i]].append(i)

    nodes: list[NiceNode] = []

    def add(kind, bag, kids=(), vertex=None) -> int:
        nodes.append(NiceNode(kind=kind, bag=frozenset(bag), children=list(kids), vertex=vertex))
        return len(nodes) - 1

    def chain_to(top: int, target: frozenset) -> int:
        """Forget/introduce one vertex at a time until the bag equals target."""
        cur = set(nodes[top].bag)
        for v in sorted(cur - target):
            cur.remove(v)
            top = add("forget", cur, [top], v)
        for v in sorted(target - cur):
            cur.add(v)
            top = add("introduce", cur, [top], v)
        return top

    built: dict[int, int] = {}
    for bag_id in reversed(order):
        target = td.bags[bag_id]
        kid_tops = [chain_to(built[c], td.bags[c] & target) for c in children[bag_id]]
        if not kid_tops:
            top = add("leaf", frozenset())
        else:
            top = kid_tops[0]
            for other in kid_tops[1:]:
                union = nodes[top].bag | nodes[other].bag
                top = add("join", union, [chain_to(top, union), chain_to(other, union)])
        built[bag_id] = chain_to(top, target)

    top = built[root_bag]
    cur = set(td.bags[root_bag])
    for v in sorted(cur - {pi}):
        cur.remove(v)
        top = add("forget", cur, [top], v)
    top = add("forget", frozenset(), [top], pi)
    return NiceTreeDecomposition(nodes=nodes, root=top, pi=pi)
