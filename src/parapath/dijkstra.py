"""Single-pair Dijkstra searches on the interpolated graph, run by one heap loop.

``dijkstra_extreme_slope`` finds a shortest source-to-target path under
the blended weights at a fixed parameter and, among all tied shortest
paths, returns one whose cost line has minimal (or maximal) slope.
``reverse_lengths`` gives plain lengths to a target over reversed edges,
for the builder's pruning.  Both are one plain Dijkstra over int labels,
:func:`_dijkstra`, in which an edge adds ``a * W0 + b * W1`` for a pair
``(a, b)`` fixed per search.

The slope-extremal search comes in two parts, which the builder calls
apart.  :func:`extreme_slope_search` is its int entry: it takes
``lam = p/q`` as two ints and the mode as a sign, checks none of them,
and returns the search's predecessor edges and its target line's
numerators ``(m, s)``; it raises UnreachableError, and nothing else.
:func:`walk_back` turns predecessor edges into a path and holds the
guard: a vertex on the way without a predecessor edge is a broken search
tree, a RuntimeError.  ``dijkstra_extreme_slope`` is the checked wrapper
over the two, for callers that hold a ``Fraction`` and want a
``CostLine``.

The searches run on the graph's int columns: weights ``W = w * D`` over
their common denominator ``D``.  At ``lam = p/q`` an edge adds
``(q - p) * W0 + p * W1`` to a length and ``W1 - W0`` to a slope, which
are its blended weight times ``q * D`` and its slope times ``D``, so
lengths and slopes are ints scaled by two positive constants and compare
exactly as the rationals they stand for.  ``reverse_lengths`` takes the
length alone: ``a = q - p`` and ``b = p``.

Label layout.  The slope-extremal search orders vertices by the pair
``(length, sign * slope)``, with ``sign`` 1 for the minimal slope and -1
for the maximal one, and holds the pair as one int::

    label = (length << shift) + sign * slope + bound

``bound`` is the graph's ``slope_bound``, ``(V - 1) * Wmax`` for ``V``
vertices and ``Wmax`` the largest scaled weight, and ``shift`` is the
graph's ``label_shift``, the bit length of ``2 * bound``.  A label is the
cost of a simple path, as it extends a settled vertex's tree path by an
unsettled vertex, so it has at most ``V - 1`` edges, each changing the
slope by less than ``Wmax``.  The low part
``sign * slope + bound`` therefore lies in ``[0, 2 * bound]``, below
``2**shift``, and never carries into the length: labels order exactly as
their pairs do, and equal labels are equal pairs.  The source's label is
``bound``, the pair (0, 0).  An edge adds
``(((q - p) * W0 + p * W1) << shift) + sign * (W1 - W0)``, which is
positive: both weights are at least 1, so the length part is at least
``q << shift``, more than ``2 * bound``, which is at least ``2 * Wmax``
(a search needs ``V >= 2``), while the slope part is less than ``Wmax``
in absolute value.  ``reverse_lengths`` labels a vertex with its length
alone, ``shift = 0``, and its steps are positive for the same reason.

Heap entries.  The kernel stores and pushes each label with its vertex in
the low bits, one int::

    entry = (label << vb) | v

with ``vb`` the graph's ``vertex_bits``, the bit length of ``V``, so
``v < 2**vb``.  Entries therefore order exactly as the pairs
``(label, v)``, which is the order a heap of ``(label, v)`` tuples pops
in: vertices settle by label, ties by vertex id.  Two entries of one
vertex share its low bits, so they compare as its labels do, and "equal
labels keep the incumbent" holds as before.  A popped entry ``e`` of
vertex ``u = e & (2**vb - 1)`` extends to ``v`` over an edge as
``(e - u) + a * W0 + b * W1 + v``, for a step ``a * W0 + b * W1`` that is
the label's step shifted left by ``vb``: still positive, and its low
``vb`` bits are zero, so ``v`` fills them without a carry.  A label is
thus final when its vertex is popped.  The callers fold ``vb`` into
``a``, ``b`` and the start entry; the forward search uses
``a = ((q - p) << (shift + vb)) - (sign << vb)`` and
``b = (p << (shift + vb)) + (sign << vb)``, the reverse search
``a = (q - p) << vb`` and ``b = p << vb``.  An entry ``E`` of the forward
search gives length ``E >> (shift + vb)``; the target's gives label
``L = E >> vb`` and slope ``S = sign * ((L mod 2**shift) - bound)``, and
its path's line over ``D`` has slope ``S`` and value ``(length - p*S) / q``
at 0.  An entry of the reverse search gives length ``E >> vb``.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heappop, heappush
from typing import Literal, Sequence

from .errors import UnreachableError
from .model import (
    CostLine, DualWeightGraph, ONE, Path, ZERO, validate_lambda, validate_pair,
)

SlopeMode = Literal["min-slope", "max-slope"]

MIN_SLOPE: SlopeMode = "min-slope"
MAX_SLOPE: SlopeMode = "max-slope"


def _dijkstra(
    adjacency: Sequence[Sequence[tuple[int, int, int, int]]], a: int, b: int,
    start: int, vb: int, stop: int, settled: list[bool], labels: list[int | None],
) -> list[int]:
    """Plain Dijkstra over heap entries ``(label << vb) | v``, from the entry
    ``start`` of the vertex in its low ``vb`` bits, in which an entry
    ``(v, w0, w1, eid)`` of ``adjacency[u]`` adds ``a * w0 + b * w1``, which
    must be positive with its low ``vb`` bits zero.  Returns, for each
    vertex, the id of the edge whose relaxation set its entry, or -1.

    The search stops once ``stop`` is settled.  ``settled`` marks the
    vertices it never enters and receives its settled marks, so a
    relaxation pays no extra check.  ``labels``, all None, receives the
    entries: exact over the unmarked vertices for a settled vertex, at
    least the stop vertex's label for any other reached vertex, and None
    for an unreached one.  Equal labels keep the incumbent predecessor, and
    heap ties resolve by vertex id, so the output is deterministic.
    """
    mask = (1 << vb) - 1
    prev_edge = [-1] * len(labels)
    labels[start & mask] = start
    heap = [start]
    while heap:
        e = heappop(heap)
        u = e & mask
        # Each push lowers its vertex's entry, so a vertex's first pop holds
        # its current entry and every later pop finds it settled.
        if settled[u]:
            continue
        settled[u] = True
        if u == stop:
            break
        base = e - u
        for v, w0, w1, eid in adjacency[u]:
            if settled[v]:
                continue
            new = base + a * w0 + b * w1 + v
            cur = labels[v]
            if cur is None or new < cur:
                labels[v] = new
                prev_edge[v] = eid
                heappush(heap, new)
    return prev_edge


def extreme_slope_search(
    graph: DualWeightGraph, p: int, q: int, source: int, target: int, sign: int,
    dead: list[bool] | None, labels: list[int | None] | None,
) -> tuple[list[int], int, int]:
    """The slope-extremal search at ``lam = p/q``, unchecked: ``0 <= p <= q``,
    ``q >= 1``, a valid pair and ``sign`` 1 (minimal slope) or -1 (maximal).

    Returns the search's predecessor edges, for :func:`walk_back`, and the
    numerators ``(m, s)`` of the target's line, worth ``(m + lam*s) / D`` at
    ``lam``.  Raises UnreachableError when the search does not reach the
    target.

    ``dead``, the search's settled mask, marks the vertices it never enters
    and receives its settled marks; the source and target must not be
    marked.  ``labels``, ``vertex_count`` Nones, receives the heap entries,
    laid out as the module docstring says and exact as :func:`_dijkstra`
    says.  None asks for a fresh mask or list.
    """
    bound, shift, vb = graph.slope_bound, graph.label_shift, graph.vertex_bits
    top, step = shift + vb, sign << vb
    labels = [None] * graph.vertex_count if labels is None else labels
    settled = [False] * graph.vertex_count if dead is None else dead
    prev_edge = _dijkstra(
        graph.adjacency, ((q - p) << top) - step, (p << top) + step,
        (bound << vb) | source, vb, target, settled, labels,
    )
    entry = labels[target]
    if entry is None:  # a reached vertex is settled once the heap runs dry
        raise UnreachableError(f"vertex {target} not reachable from {source}")
    label = entry >> vb
    length = label >> shift
    slope = sign * (label - (length << shift) - bound)
    return prev_edge, (length - p * slope) // q, slope


def walk_back(
    graph: DualWeightGraph, prev_edge: list[int], source: int, target: int
) -> Path:
    """The edge ids of the search tree's path from ``source`` to ``target``.

    Raises RuntimeError if a vertex on the way lacks a predecessor edge,
    which only the source may: the guard against a broken search tree.
    """
    tails = graph.tails
    edges: list[int] = []
    v = target
    while v != source:
        eid = prev_edge[v]
        if eid < 0:
            raise RuntimeError(f"settled vertex {v} has no predecessor edge")
        edges.append(eid)
        v = tails[eid]
    edges.reverse()
    return tuple(edges)


def dijkstra_extreme_slope(
    graph: DualWeightGraph,
    lam: Fraction,
    source: int,
    target: int,
    mode: SlopeMode,
) -> tuple[Path, CostLine]:
    """Shortest source->target path at ``lam`` with extremal cost-line slope.

    Returns the path's edge ids and its line, scaled over the graph's
    denominator exactly as :func:`~parapath.model.cost_line` gives it.
    Output is deterministic: equal labels keep the incumbent predecessor,
    and heap ties resolve by vertex id.  The search stops once the target is
    settled.  Raises UnreachableError when no path exists, ValueError for a
    ``mode`` other than ``MIN_SLOPE`` or ``MAX_SLOPE``, and as
    ``validate_lambda`` and ``validate_pair`` do for a bad ``lam`` or pair.
    """
    validate_lambda(lam)
    validate_pair(graph, source, target)
    p, q = lam.numerator, lam.denominator
    sign = 1 if mode == MIN_SLOPE else -1 if mode == MAX_SLOPE else 0
    if not sign:
        raise ValueError(f"unknown slope mode {mode!r:.40}")
    if source == target:
        return (), CostLine.from_scaled(0, 0, graph.den)
    prev_edge, m, s = extreme_slope_search(graph, p, q, source, target, sign, None, None)
    path = walk_back(graph, prev_edge, source, target)
    return path, CostLine.from_scaled(m, s, graph.den)


def reverse_lengths(
    graph: DualWeightGraph,
    p: int,
    q: int,
    source: int,
    target: int,
    dead: list[bool] | None = None,
) -> list[int | None]:
    """Plain lengths ``d(v, target)`` at ``lam = p/q``, over reversed edges.

    Returns the search's heap entries ``(length << vb) | v``, for ``vb``
    the graph's ``vertex_bits``, so ``entry >> vb`` is a length.  Lengths
    are scaled by ``q * D``, as the slope-extremal labels' are, and
    ``dead`` marks vertices the search never enters, as it does there, and
    receives the settled marks.  The search stops once ``source`` is
    settled, so a length is exact over the unmarked vertices for a settled
    vertex and at least the source's for any other reached vertex; an
    unreached vertex keeps None.  The caller checks ``p``, ``q`` and the pair.
    """
    n, vb = graph.vertex_count, graph.vertex_bits
    entries: list[int | None] = [None] * n
    settled = [False] * n if dead is None else dead
    _dijkstra(
        graph.reverse_adjacency, (q - p) << vb, p << vb, target, vb, source,
        settled, entries,
    )
    return entries


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
