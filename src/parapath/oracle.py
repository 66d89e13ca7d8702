"""Independent ground truth for small instances.

Enumerates every simple source-to-target path outright, then builds the
lower envelope of their cost lines geometrically: sort by slope, sweep
with a convex-chain stack, clip to [0, 1].  It shares no search,
bisection or segment check with the builder, so the two cannot agree by
accident; only the model types and the graph's adjacency are shared.
The oracle sums the ``Fraction`` weights of ``graph.edges``, not the int
columns the builder sums.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .envelope import EnvelopeSegment
from .errors import OracleScaleError, ParallelLinesError
from .model import (
    CostLine, DualWeightGraph, ONE, Path, ZERO, ZERO_LINE, validate_pair
)

MAX_ENUMERATION_STEPS = 1_000_000
MAX_WITNESS_EDGES = 2_000_000


def enumerate_paths(
    graph: DualWeightGraph, source: int, target: int
) -> tuple[tuple[CostLine, Path], ...]:
    """Depth-first enumeration of all simple source->target paths.

    Returns one ``(cost line, witness path)`` pair per distinct line:
    paths sharing a cost line are collapsed to the first one found (the
    DFS visits edges in id order, so the witness is deterministic).
    Raises OracleScaleError past ``MAX_ENUMERATION_STEPS`` out-edges taken
    (counting those that reach the target or lead back onto the path) or
    ``MAX_WITNESS_EDGES`` edges stored in witnesses: the path count is
    worst-case factorial, so time and memory are bounded by work instead.
    """
    adjacency = graph.adjacency
    validate_pair(graph, source, target)
    if source == target:
        return ((ZERO_LINE, ()),)

    found: dict[tuple[Fraction, Fraction], Path] = {}
    on_path = [False] * graph.vertex_count
    on_path[source] = True
    edge_stack: list[int] = []
    # One frame per vertex on the current path: its out-edges not yet
    # tried and the path's cost so far.  An explicit stack, because paths
    # can be longer than the interpreter's recursion limit.
    frames = [(iter(adjacency[source]), ZERO, ZERO)]
    steps = witness_edges = 0
    while frames:
        if steps > MAX_ENUMERATION_STEPS or witness_edges > MAX_WITNESS_EDGES:
            raise OracleScaleError("oracle passes its edge-step or witness-edge budget")
        pending, c0, c1 = frames[-1]
        out = next(pending, None)
        if out is None:
            frames.pop()
            if edge_stack:
                on_path[graph.edges[edge_stack.pop()].head] = False
            continue
        steps += 1
        head, _w0, _w1, eid = out
        if on_path[head]:
            continue
        edge = graph.edges[eid]
        e0, e1 = c0 + edge.w0, c1 + edge.w1
        if head == target:
            # Extending past the target can never stay simple.
            if (e0, e1) not in found:
                witness_edges += len(edge_stack) + 1
                found[e0, e1] = (*edge_stack, eid)
            continue
        on_path[head] = True
        edge_stack.append(eid)
        frames.append((iter(adjacency[head]), e0, e1))
    return tuple((CostLine(*line), path) for line, path in found.items())


def intersect_lines(a: CostLine, b: CostLine) -> Fraction:
    """Unique parameter where two non-parallel cost lines agree."""
    ma, sa, da = a.scaled()
    mb, sb, db = b.scaled()
    denom = sa * db - sb * da
    if denom == 0:
        raise ParallelLinesError(f"lines {a} and {b} have equal slope {a.slope}")
    return Fraction(mb * da - ma * db, denom)


def envelope_of_lines(
    lines: Sequence[tuple[CostLine, Path]],
) -> list[EnvelopeSegment]:
    """Exact lower envelope over [0, 1] of ``(line, path)`` pairs.

    Slope-sorted convex sweep: among parallel lines only the lowest can
    touch the envelope; a line whose crossing with its left neighbor
    does not advance past the previous crossing is dominated and popped.
    """
    if not lines:
        raise ValueError("cannot take the envelope of an empty line set")

    lowest_per_slope: dict[Fraction, tuple[CostLine, Path]] = {}
    for line, path in lines:
        cur = lowest_per_slope.get(line.slope)
        if cur is None or line.c0 < cur[0].c0:
            lowest_per_slope[line.slope] = (line, path)
    candidates = sorted(
        lowest_per_slope.values(), key=lambda entry: entry[0].slope, reverse=True
    )

    chain: list[tuple[CostLine, Path]] = []
    for line, path in candidates:
        while len(chain) >= 2:
            x_prev = intersect_lines(chain[-2][0], chain[-1][0])
            x_new = intersect_lines(chain[-2][0], line)
            if x_new <= x_prev:
                chain.pop()  # middle line never strictly below both neighbors
            else:
                break
        chain.append((line, path))

    crossings = (intersect_lines(a, b) for (a, _), (b, _) in zip(chain, chain[1:]))
    bounds = [ZERO, *crossings, ONE]
    segments: list[EnvelopeSegment] = []
    for i, (line, path) in enumerate(chain):
        lo, hi = max(bounds[i], ZERO), min(bounds[i + 1], ONE)
        if lo < hi:
            segments.append(EnvelopeSegment(lo, hi, path, line))
    return segments


def compare_envelopes(
    a: Sequence[EnvelopeSegment], b: Sequence[EnvelopeSegment]
) -> str | None:
    """None when the envelopes match; otherwise the first difference.

    Matching means identical intervals and identical lines per position;
    witness paths are allowed to differ because tied paths share a line.
    """
    for i, (sa, sb) in enumerate(zip(a, b)):
        if sa.lo != sb.lo or sa.hi != sb.hi:
            return (
                f"segment {i}: interval [{sa.lo}, {sa.hi}] != [{sb.lo}, {sb.hi}]"
            )
        if sa.line != sb.line:
            return (
                f"segment {i}: line ({sa.line.c0}, {sa.line.c1}) != "
                f"({sb.line.c0}, {sb.line.c1})"
            )
    if len(a) != len(b):
        return f"segment count {len(a)} != {len(b)}"
    return None
