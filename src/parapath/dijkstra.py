"""Single-pair Dijkstra variants on the interpolated graph.

``dijkstra_extreme_slope`` finds a shortest source-to-target path under
the blended weights at a fixed parameter and, among all tied shortest
paths, returns one whose cost line has minimal (or maximal) slope.  Each
vertex label is a (length, slope) pair compared lexicographically; the
length component of every edge relaxation is strictly positive, so
settled labels are final even though slope increments may be negative.

The search runs on the graph's int columns: weights ``W = w * D`` over
their common denominator ``D``.  At ``lam = p/q`` an edge adds
``(q - p) * W0 + p * W1`` to a length and ``W1 - W0`` to a slope, which
are its blended weight times ``q * D`` and its slope times ``D``.  Labels
are therefore ints scaled by two positive constants, and they compare
exactly as the rationals they stand for.  The target's label ``(L, S)``
gives its path's line over ``D``: slope ``S``, value ``(L - p*S) / q`` at 0.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heappop, heappush
from typing import Literal

from .errors import UnreachableError
from .model import (
    CostLine, DualWeightGraph, ONE, Path, ZERO, validate_lambda, validate_pair,
)

SlopeMode = Literal["min-slope", "max-slope"]

MIN_SLOPE: SlopeMode = "min-slope"
MAX_SLOPE: SlopeMode = "max-slope"


def dijkstra_extreme_slope(
    graph: DualWeightGraph,
    lam: Fraction,
    source: int,
    target: int,
    mode: SlopeMode,
    dead: list[bool] | None = None,
    labels: list[int | None] | None = None,
) -> tuple[Path, CostLine]:
    """Shortest source->target path at ``lam`` with extremal cost-line slope.

    Returns the path's edge ids and its line, scaled over the graph's
    denominator exactly as :func:`~parapath.model.cost_line` gives it.
    Output is deterministic: equal labels keep the incumbent predecessor,
    and heap ties resolve by vertex id.  The search stops once the target is
    settled.  Raises UnreachableError when no path exists, and as
    ``validate_lambda`` and ``validate_pair`` do for a bad ``lam`` or pair.

    ``dead`` marks vertices the search never enters: it serves as the
    search's settled mask, so a relaxation pays no extra check, and the
    search marks the vertices it settles in it.  The source and target
    must not be marked.  ``labels``, a list of ``vertex_count`` Nones,
    receives the length labels: exact over the unmarked vertices for a
    settled vertex, at least the target's for any other reached vertex,
    and None for an unreached one.
    """
    # Inline int checks, so a probe pays no call; the validators name a failure.
    n = graph.vertex_count
    p, q = getattr(lam, "numerator", -1), getattr(lam, "denominator", 0)
    if not (0 <= p <= q and 0 <= source < n and 0 <= target < n):
        validate_lambda(lam)
        validate_pair(graph, source, target)
    if source == target:
        return (), CostLine.from_scaled(0, 0, graph.den)

    lengths = [None] * n if labels is None else labels
    # Slopes enter as ``sign * slope``, so both modes prefer the smaller
    # (length, key) pair and a tie keeps the incumbent.
    keys = [0] * n
    prev_edge = [-1] * n
    settled = [False] * n if dead is None else dead
    sign = -1 if mode == MAX_SLOPE else 1
    a = q - p
    adjacency = graph.adjacency

    lengths[source] = 0
    # Heap entries are (length, key, vertex): ties on the label break
    # toward the smaller vertex id, which pins down the output.
    heap: list[tuple[int, int, int]] = [(0, 0, source)]
    while heap:
        ell, key, u = heappop(heap)
        # Each push lowers its vertex's label, so a vertex's first pop holds
        # its current label and every later pop finds it settled.
        if settled[u]:
            continue
        settled[u] = True
        if u == target:
            break
        for v, w0, w1, eid in adjacency[u]:
            if settled[v]:
                continue
            new_len = ell + a * w0 + p * w1
            new_key = key + sign * (w1 - w0)
            cur = lengths[v]
            if cur is None or new_len < cur or (new_len == cur and new_key < keys[v]):
                lengths[v] = new_len
                keys[v] = new_key
                prev_edge[v] = eid
                heappush(heap, (new_len, new_key, v))
    if not settled[target]:
        raise UnreachableError(f"vertex {target} not reachable from {source}")

    tails = graph.tails
    edges: list[int] = []
    v = target
    while v != source:
        eid = prev_edge[v]
        if eid < 0:  # only the source lacks a predecessor
            raise RuntimeError(f"settled vertex {v} has no predecessor edge")
        edges.append(eid)
        v = tails[eid]
    edges.reverse()
    slope = sign * keys[target]
    line = CostLine.from_scaled((lengths[target] - p * slope) // q, slope, graph.den)
    return tuple(edges), line


def reverse_lengths(
    graph: DualWeightGraph,
    lam: Fraction,
    source: int,
    target: int,
    dead: list[bool] | None = None,
) -> list[int | None]:
    """Plain lengths ``d(v, target)`` at ``lam``, from a search over reversed edges.

    Labels are scaled like :func:`dijkstra_extreme_slope`'s, by ``q * D``
    at ``lam = p/q``, and ``dead`` marks vertices the search never enters,
    as it does there, and receives the settled marks.
    The search stops once ``source`` is settled, so a label is exact over
    the unmarked vertices for a settled vertex and at least the source's
    for any other reached vertex; an unreached vertex keeps None.  The
    caller checks ``lam`` and the pair.
    """
    p, q = lam.as_integer_ratio()
    a = q - p
    lengths: list[int | None] = [None] * graph.vertex_count
    settled = [False] * graph.vertex_count if dead is None else dead
    into = graph.reverse_adjacency
    lengths[target] = 0
    heap: list[tuple[int, int]] = [(0, target)]
    while heap:
        ell, u = heappop(heap)
        if settled[u]:
            continue
        settled[u] = True
        if u == source:
            break
        for v, w0, w1 in into[u]:
            if settled[v]:
                continue
            new_len = ell + a * w0 + p * w1
            cur = lengths[v]
            if cur is None or new_len < cur:
                lengths[v] = new_len
                heappush(heap, (new_len, v))
    return lengths


def shortest_path_length(
    graph: DualWeightGraph, lam: Fraction, source: int, target: int
) -> Fraction:
    """Plain exact Dijkstra distance at ``lam``, ignoring slopes.

    Kept separate from the lexicographic search so it can serve as an
    independent point check on envelope output: it sums the ``Fraction``
    weights of ``graph.edges`` and takes only the adjacency from the columns.
    """
    adjacency = graph.adjacency
    validate_lambda(lam)
    validate_pair(graph, source, target)
    n = graph.vertex_count
    dist: list[Fraction | None] = [None] * n
    done = [False] * n
    one_minus = ONE - lam
    dist[source] = ZERO
    heap: list[tuple[Fraction, int]] = [(ZERO, source)]
    while heap:
        d, u = heappop(heap)
        if done[u]:
            continue
        done[u] = True
        if u == target:
            return d
        for v, _w0, _w1, eid in adjacency[u]:
            if done[v]:
                continue
            edge = graph.edges[eid]
            nd = d + one_minus * edge.w0 + lam * edge.w1
            if dist[v] is None or nd < dist[v]:
                dist[v] = nd
                heappush(heap, (nd, v))
    raise UnreachableError(f"vertex {target} not reachable from {source}")
