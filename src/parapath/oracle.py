"""Independent ground truth for small instances.

Enumerates every simple source-to-target path outright, then builds the
lower envelope of their cost lines geometrically: sort by slope, sweep
with a convex-chain stack, clip to [0, 1].  Deliberately shares no
machinery with the bisection builder so the two cannot agree by
accident.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .envelope import EnvelopeSegment, check_segments, intersect_lines
from .errors import OracleScaleError
from .model import CostLine, DualWeightGraph, EMPTY_PATH, ONE, Path, ZERO, ZERO_LINE

DEFAULT_VERTEX_BOUND = 12


def enumerate_paths(
    graph: DualWeightGraph,
    source: int,
    target: int,
    max_vertices: int = DEFAULT_VERTEX_BOUND,
) -> tuple[tuple[CostLine, Path], ...]:
    """Depth-first enumeration of all simple source->target paths.

    Returns one ``(cost line, witness path)`` pair per distinct line:
    paths sharing a cost line are collapsed to the first one found (the
    DFS visits edges in id order, so the witness is deterministic).
    Refuses graphs above ``max_vertices``: the path count is worst-case
    factorial in the vertex count.
    """
    if graph.vertex_count > max_vertices:
        raise OracleScaleError(
            f"{graph.vertex_count} vertices exceeds enumeration bound {max_vertices}"
        )
    if source == target:
        return ((ZERO_LINE, EMPTY_PATH),)

    entries: list[tuple[CostLine, Path]] = []
    seen_lines: set[tuple[Fraction, Fraction]] = set()
    on_path = [False] * graph.vertex_count
    on_path[source] = True
    edge_stack: list[int] = []
    # One frame per vertex on the current path: its out-edges not yet
    # tried and the path's cost so far.  An explicit stack, because paths
    # can be longer than the interpreter's recursion limit.
    frames = [(iter(graph.out_edges(source)), ZERO, ZERO)]
    while frames:
        pending, c0, c1 = frames[-1]
        eid = next(pending, None)
        if eid is None:
            frames.pop()
            if edge_stack:
                on_path[graph.edges[edge_stack.pop()].head] = False
            continue
        edge = graph.edges[eid]
        if on_path[edge.head]:
            continue
        e0, e1 = c0 + edge.w0, c1 + edge.w1
        if edge.head == target:
            # Extending past the target can never stay simple.
            if (e0, e1) not in seen_lines:
                seen_lines.add((e0, e1))
                entries.append((CostLine(e0, e1), Path((*edge_stack, eid))))
            continue
        on_path[edge.head] = True
        edge_stack.append(eid)
        frames.append((iter(graph.out_edges(edge.head)), e0, e1))
    return tuple(entries)


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

    crossings = [
        intersect_lines(chain[i][0], chain[i + 1][0]) for i in range(len(chain) - 1)
    ]
    segments: list[EnvelopeSegment] = []
    for i, (line, path) in enumerate(chain):
        lo = ZERO if i == 0 else crossings[i - 1]
        hi = ONE if i == len(chain) - 1 else crossings[i]
        lo = max(lo, ZERO)
        hi = min(hi, ONE)
        if lo < hi:
            segments.append(EnvelopeSegment(lo, hi, path, line))
    return segments


def compare_envelopes(
    a: Sequence[EnvelopeSegment], b: Sequence[EnvelopeSegment]
) -> str | None:
    """None when the envelopes match; otherwise the first difference.

    Matching means identical intervals and identical lines per position;
    witness paths are allowed to differ because tied paths share a line.
    Both inputs must at least tile [0, 1].
    """
    check_segments(a, strict=False)
    check_segments(b, strict=False)
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
