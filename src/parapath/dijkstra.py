"""Single-pair Dijkstra variants on the interpolated graph.

``dijkstra_extreme_slope`` finds a shortest source-to-target path under
the blended weights at a fixed parameter and, among all tied shortest
paths, returns one whose cost line has minimal (or maximal) slope.  Each
vertex label is a (length, slope) pair compared lexicographically; the
length component of every edge relaxation is strictly positive, so
settled labels are final even though slope increments may be negative.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from typing import Literal

from .errors import UnreachableError
from .model import DualWeightGraph, EMPTY_PATH, ONE, Path, ZERO, validate_pair

SlopeMode = Literal["min-slope", "max-slope"]

MIN_SLOPE: SlopeMode = "min-slope"
MAX_SLOPE: SlopeMode = "max-slope"


@dataclass(frozen=True)
class DistSlopeLabel:
    """Distance under the blended weights plus accumulated weight drift."""

    length: Fraction
    slope: Fraction


def dijkstra_extreme_slope(
    graph: DualWeightGraph,
    lam: Fraction,
    source: int,
    target: int,
    mode: SlopeMode,
) -> tuple[Path, DistSlopeLabel]:
    """Shortest source->target path at ``lam`` with extremal cost-line slope.

    Returns the path and its exact (length, slope) label.  Output is
    deterministic: equal labels keep the incumbent predecessor, and heap
    ties resolve by vertex id.  The search stops once the target is
    settled.  Raises UnreachableError when no path exists.
    """
    if source == target:
        return EMPTY_PATH, DistSlopeLabel(ZERO, ZERO)

    n = graph.vertex_count
    lengths: list[Fraction | None] = [None] * n
    slopes: list[Fraction | None] = [None] * n
    prev_edge: list[int | None] = [None] * n
    settled = [False] * n
    prefer_max = mode == MAX_SLOPE
    sign = -1 if prefer_max else 1

    one_minus = ONE - lam
    lengths[source] = ZERO
    slopes[source] = ZERO
    # Heap entries are (length, sign*slope, vertex): ties on the label
    # break toward the smaller vertex id, which pins down the output.
    heap: list[tuple[Fraction, Fraction, int]] = [(ZERO, ZERO, source)]

    while heap:
        ell, _skey, u = heapq.heappop(heap)
        # Each push lowers its vertex's key, so a vertex's first pop holds
        # its current label and every later pop finds it settled.
        if settled[u]:
            continue
        settled[u] = True
        if u == target:
            break
        slope_u = slopes[u]
        for eid in graph.out_edges(u):
            edge = graph.edges[eid]
            v = edge.head
            if settled[v]:
                continue
            new_len = ell + one_minus * edge.w0 + lam * edge.w1
            new_slope = slope_u + edge.w1 - edge.w0
            cur_len = lengths[v]
            if cur_len is None:
                better = True
            elif new_len != cur_len:
                better = new_len < cur_len
            elif prefer_max:
                better = new_slope > slopes[v]
            else:
                better = new_slope < slopes[v]
            if better:
                lengths[v] = new_len
                slopes[v] = new_slope
                prev_edge[v] = eid
                heapq.heappush(heap, (new_len, sign * new_slope, v))
    if not settled[target]:
        raise UnreachableError(f"vertex {target} not reachable from {source}")

    edges: list[int] = []
    v = target
    while v != source:
        eid = prev_edge[v]
        if eid is None:  # only the source lacks a predecessor
            raise RuntimeError(f"settled vertex {v} has no predecessor edge")
        edges.append(eid)
        v = graph.edges[eid].tail
    edges.reverse()
    return Path(tuple(edges)), DistSlopeLabel(lengths[target], slopes[target])


def shortest_path_length(
    graph: DualWeightGraph, lam: Fraction, source: int, target: int
) -> Fraction:
    """Plain exact Dijkstra distance at ``lam``, ignoring slopes.

    Kept separate from the lexicographic search so it can serve as an
    independent point check on envelope output.
    """
    validate_pair(graph, source, target)
    n = graph.vertex_count
    dist: list[Fraction | None] = [None] * n
    done = [False] * n
    one_minus = ONE - lam
    dist[source] = ZERO
    heap: list[tuple[Fraction, int]] = [(ZERO, source)]
    while heap:
        d, u = heapq.heappop(heap)
        if done[u]:
            continue
        done[u] = True
        if u == target:
            return d
        for eid in graph.out_edges(u):
            edge = graph.edges[eid]
            v = edge.head
            if done[v]:
                continue
            nd = d + one_minus * edge.w0 + lam * edge.w1
            if dist[v] is None or nd < dist[v]:
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    raise UnreachableError(f"vertex {target} not reachable from {source}")
