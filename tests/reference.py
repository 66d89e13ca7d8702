"""Per-edge reference code the library no longer carries.

``interpolate_weight`` blends one edge's ``Fraction`` weights, and
``cost_line_loop`` is the edge-by-edge walk check that
``parapath.cost_line`` falls back to: the library's fast path must return
the same line, or raise the same class and message, on every path.
"""

from __future__ import annotations

from fractions import Fraction

from parapath import (
    CostLine,
    DualWeightGraph,
    GraphStructureError,
    MalformedPathError,
)
from parapath.model import validate_lambda


def interpolate_weight(graph: DualWeightGraph, edge_id: int, lam: Fraction) -> Fraction:
    """Exact blended weight of one edge at parameter ``lam`` in [0, 1]."""
    validate_lambda(lam)
    if not (0 <= edge_id < len(graph.edges)):
        raise GraphStructureError(f"edge id {edge_id} out of range")
    edge = graph.edges[edge_id]
    return (1 - lam) * edge.w0 + lam * edge.w1


def cost_line_loop(graph: DualWeightGraph, path) -> CostLine:
    """``cost_line`` as an edge-by-edge Python loop over range, contiguity
    and a set of the vertices seen so far."""
    tails, heads = graph.tails, graph.heads
    count = len(tails)
    seen: set[int] = set()
    prev_head: int | None = None
    for eid in path:
        if not 0 <= eid < count:
            raise MalformedPathError(f"edge id {eid} out of range")
        tail, head = tails[eid], heads[eid]
        if prev_head is None:
            seen.add(tail)
        elif tail != prev_head:
            raise MalformedPathError(
                f"edge {eid} starts at {tail}, expected {prev_head}"
            )
        if head in seen:
            raise MalformedPathError(f"vertex {head} repeated; path not simple")
        seen.add(head)
        prev_head = head
    c0 = sum(map(graph.w0.__getitem__, path))
    c1 = sum(map(graph.w1.__getitem__, path))
    return CostLine.from_scaled(c0, c1 - c0, graph.den)
