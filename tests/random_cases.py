"""Seeded random instances built with the standard library alone.

Kept apart from the Hypothesis strategies so that
``scripts/random_verify.py`` runs under any interpreter the package
supports, installed test tools or not.
"""

from __future__ import annotations

import random
from collections import deque
from fractions import Fraction

from parapath import DualWeightGraph, Edge


def reachable_pairs(graph: DualWeightGraph) -> list[tuple[int, int]]:
    """All ordered pairs (s, t), s != t, with t reachable from s."""
    n = graph.vertex_count
    heads: list[list[int]] = [[] for _ in range(n)]
    for edge in graph.edges:
        heads[edge.tail].append(edge.head)
    pairs: list[tuple[int, int]] = []
    for s in range(n):
        seen = [False] * n
        seen[s] = True
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for v in heads[u]:
                if not seen[v]:
                    seen[v] = True
                    queue.append(v)
        pairs.extend((s, t) for t in range(n) if t != s and seen[t])
    return pairs


def random_instance(
    rng: random.Random,
    max_vertices: int = 8,
    max_edges: int = 20,
    allow_self_loops: bool = True,
    max_weight: int = 1000,
    weight_scale: int = 100,
) -> tuple[DualWeightGraph, int, int]:
    """Seeded random instance with a connected (source, target) pair.

    Weights are ``randint(1, max_weight) / weight_scale``: hundredths in
    (0, 10] by default, while a small ``max_weight`` with scale 1 gives
    tie-heavy instances.  Parallel edges are kept; self-loops appear
    occasionally (they are legal and must never show up on a shortest
    path).  Resamples until some pair is connected, which almost always
    succeeds first try.
    """
    while True:
        n = rng.randint(2, max_vertices)
        m = rng.randint(1, max_edges)
        edges = []
        for _ in range(m):
            tail = rng.randrange(n)
            head = rng.randrange(n)
            if tail == head and not allow_self_loops:
                continue
            edges.append(
                Edge(
                    tail,
                    head,
                    Fraction(rng.randint(1, max_weight), weight_scale),
                    Fraction(rng.randint(1, max_weight), weight_scale),
                )
            )
        if not edges:
            continue
        graph = DualWeightGraph.build(n, tuple(edges))
        pairs = reachable_pairs(graph)
        if pairs:
            source, target = rng.choice(pairs)
            return graph, source, target


def random_grid(
    rng: random.Random, side: int, max_weight: int = 3
) -> tuple[DualWeightGraph, int, int]:
    """Two-way ``side`` x ``side`` grid with its corner-to-corner pair.

    Each street gets weights ``randint(1, max_weight)``, the same both
    ways, and edge ids are shuffled: the default gives many tied paths.
    """
    rows = []
    for r in range(side):
        for c in range(side):
            for r2, c2 in ((r, c + 1), (r + 1, c)):
                if r2 < side and c2 < side:
                    a, b = r * side + c, r2 * side + c2
                    w0, w1 = rng.randint(1, max_weight), rng.randint(1, max_weight)
                    rows += [(a, b, w0, w1), (b, a, w0, w1)]
    rng.shuffle(rows)
    return DualWeightGraph.build(side * side, rows), 0, side * side - 1


def random_lambda(rng: random.Random, max_denominator: int = 997) -> Fraction:
    den = rng.randint(1, max_denominator)
    return Fraction(rng.randint(0, den), den)
