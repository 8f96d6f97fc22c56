"""Seeded instance generators for the benchmark workloads.

Everything here is plain Python on ``random.Random``, independent of the
``connmatch`` package, so the parent commit and a change read the same bytes
for the same seed. Graphs are ``(n, edges)`` pairs with 0-based ``(u, v, w)``
edges; :func:`graph_text` writes them in the ``.gr`` format.
"""

from __future__ import annotations

import hashlib
import random

TREE_N = 300_000
BAND_N = 2000
CHORDAL_N = 200
KTREE_N = 80
KTREE_K = 4
KTREE_KEEP = 0.7
KTREE_EXTRA_EDGES = 2
# The DP cost of a partial k-tree depends on its shape far more than on its
# weights: shapes drawn from seeds 0..7 took 1.7 s to 21 s. The shape is
# therefore fixed by this seed (min-fill width 5, ~6 s) and --seed draws the
# weights, so runs on different seeds stay comparable.
KTREE_SHAPE_SEED = 2


def _weights(rng: random.Random, pairs, lo: int, hi: int) -> list[tuple[int, int, int]]:
    return [(u, v, rng.randint(lo, hi)) for u, v in pairs]


def random_tree(rng: random.Random, n: int, lo: int = -10, hi: int = 10):
    """Random recursive tree: vertex v hangs below a uniform earlier vertex."""
    return n, [(rng.randrange(v), v, rng.randint(lo, hi)) for v in range(1, n)]


def cycle(rng: random.Random, n: int, lo: int = -10, hi: int = 10):
    return n, _weights(rng, [(i, (i + 1) % n) for i in range(n)], lo, hi)


def band(rng: random.Random, n: int, offsets=(2, 3), lo: int = -10, hi: int = 10):
    """A path plus, per vertex, one edge back by a random offset with
    probability 1/2: pathwidth at most ``max(offsets)``."""
    pairs = [(v - 1, v) for v in range(1, n)]
    for v in range(2, n):
        if rng.random() < 0.5:
            d = rng.choice(offsets)
            if v - d >= 0:
                pairs.append((v - d, v))
    return n, _weights(rng, pairs, lo, hi)


def chordal(rng: random.Random, n: int, max_clique: int = 4, lo: int = 0, hi: int = 10):
    """Connected chordal graph: each new vertex joins a subset of an existing
    clique. Cliques stay at most ``max_clique`` large (treewidth below it),
    so the treewidth DP can cross-check the chordal solver."""
    cliques = [[0]]
    pairs = []
    for v in range(1, n):
        base = rng.choice(cliques)
        attach = rng.sample(base, rng.randint(1, min(len(base), max_clique - 1)))
        pairs += [(u, v) for u in attach]
        cliques.append(attach + [v])
    return n, _weights(rng, pairs, lo, hi)


def small_dense(rng: random.Random, n: int, m: int, lo: int = -10, hi: int = 10):
    """Connected graph with exactly ``m >= n`` edges, one vertex of degree 3
    or more and a negative edge, so ``auto`` sends it to brute force (with at
    most 24 edges) or the treewidth DP, never to the tree, cycle or chordal
    solvers."""
    while True:
        pairs = {(rng.randrange(v), v) for v in range(1, n)}
        while len(pairs) < m:
            a, b = sorted(rng.sample(range(n), 2))
            pairs.add((a, b))
        deg = [0] * n
        for a, b in pairs:
            deg[a] += 1
            deg[b] += 1
        if max(deg) >= 3:
            break
    edges = _weights(rng, sorted(pairs), lo, hi)
    if all(w >= 0 for _, _, w in edges):
        u, v, w = edges[0]
        edges[0] = (u, v, -1 - w)
    return n, edges


def partial_ktree_shape(rng: random.Random, n: int, k: int, keep: float, extra: int):
    """Edge pairs of a random k-tree thinned to a random spanning tree plus
    each other edge with probability ``keep``, plus ``extra`` random chords."""
    cliques = [list(range(k + 1))]
    all_pairs = {(a, b) for a in range(k + 1) for b in range(a + 1, k + 1)}
    back: dict[int, list[int]] = {b: [a for a in range(b)] for b in range(1, k + 1)}
    for v in range(k + 1, n):
        base = rng.choice(cliques)
        drop = rng.randrange(k + 1)
        attach = base[:drop] + base[drop + 1 :]
        all_pairs.update((u, v) for u in attach)
        back[v] = attach
        cliques.append(attach + [v])
    pairs = {(rng.choice(sorted(back[v])), v) for v in range(1, n)}
    for p in sorted(all_pairs):
        if p not in pairs and rng.random() < keep:
            pairs.add(p)
    while extra:
        p = tuple(sorted(rng.sample(range(n), 2)))
        if p not in pairs:
            pairs.add(p)
            extra -= 1
    return sorted(pairs)


def merge_components(rng: random.Random, parts):
    """Disjoint union of ``(n, edges)`` parts with the vertex ids randomly permuted."""
    n = sum(pn for pn, _ in parts)
    perm = list(range(n))
    rng.shuffle(perm)
    edges = []
    offset = 0
    for pn, pedges in parts:
        for u, v, w in pedges:
            a, b = perm[offset + u], perm[offset + v]
            edges.append((min(a, b), max(a, b), w))
        offset += pn
    edges.sort()
    return n, edges


# -- the three workloads ------------------------------------------------------
#
# Each returns ``(n, edges, parts)``; ``parts`` is None except for
# mixed-components.


def tree_cli(seed: int):
    return (*random_tree(random.Random(seed), TREE_N), None)


def mixed_components(seed: int):
    """~140 components covering every ``auto`` dispatch branch; ``parts``
    lists each as ``(kind, part_n, part_edges)`` in its own 0-based ids."""
    rng = random.Random(seed)
    parts = [("band", *band(rng, BAND_N)), ("chordal", *chordal(rng, CHORDAL_N))]
    parts += [("tree", *random_tree(rng, rng.randint(5, 60))) for _ in range(60)]
    parts += [("cycle", *cycle(rng, rng.randint(4, 40))) for _ in range(30)]
    for _ in range(30):
        pn = rng.randint(6, 12)
        parts.append(("brute", *small_dense(rng, pn, rng.randint(pn + 1, min(24, 2 * pn)))))
    parts += [("band", *band(rng, rng.randint(30, 80))) for _ in range(10)]
    parts += [("chordal", *chordal(rng, rng.randint(12, 30))) for _ in range(10)]
    rng.shuffle(parts)
    return (*merge_components(rng, [(pn, pedges) for _, pn, pedges in parts]), parts)


def ktree_dp(seed: int):
    shape = partial_ktree_shape(
        random.Random(KTREE_SHAPE_SEED), KTREE_N, KTREE_K, KTREE_KEEP, KTREE_EXTRA_EDGES
    )
    return KTREE_N, _weights(random.Random(seed), shape, -10, 10), None


WORKLOADS = {"tree-cli": tree_cli, "mixed-components": mixed_components, "ktree-dp": ktree_dp}


def graph_text(n: int, edges) -> bytes:
    lines = [f"p wcm {n} {len(edges)}"]
    lines += [f"e {u + 1} {v + 1} {w}" for u, v, w in edges]
    return ("\n".join(lines) + "\n").encode("ascii")


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()
