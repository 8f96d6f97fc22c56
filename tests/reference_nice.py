"""``make_nice`` as it stood before each join ran on the bag vertices its
children share: every child chain was extended to the whole parent bag and
then joined there. A reference the nice-form tests in ``test_treedecomp.py``
compare against. The function body below is kept verbatim; do not change it
to follow the library, or the comparison loses its point.
"""

from __future__ import annotations

from connmatch.treedecomp import NiceNode, NiceTreeDecomposition, TdError, TreeDecomposition, _bag_tree_order


def make_nice(td: TreeDecomposition, pi: int) -> NiceTreeDecomposition:
    """Convert ``td`` to nice form whose root is the empty forget bag for ``pi``.

    The bag tree is re-rooted at a bag containing ``pi`` so that ``pi`` is
    forgotten last; each original bag is assembled bottom-up from leaf /
    introduce / forget / join nodes of the same width.
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
        kid_tops = []
        for c in children[bag_id]:
            kid_tops.append(chain_to(built[c], target))
        if not kid_tops:
            top = add("leaf", frozenset())
            top = chain_to(top, target)
        else:
            top = kid_tops[0]
            for other in kid_tops[1:]:
                top = add("join", target, [top, other])
        built[bag_id] = top

    top = built[root_bag]
    cur = set(td.bags[root_bag])
    for v in sorted(cur - {pi}):
        cur.remove(v)
        top = add("forget", cur, [top], v)
    top = add("forget", frozenset(), [top], pi)
    return NiceTreeDecomposition(nodes=nodes, root=top, pi=pi)
