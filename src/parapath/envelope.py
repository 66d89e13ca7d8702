"""Construction of the full shortest-path map over the parameter range.

The map is the lower envelope of the cost lines of all source-to-target
paths, built without enumerating paths: bisect the interval at the
intersection of the two endpoint-optimal lines, run the slope-extremal
Dijkstra once at the intersection, and recurse.  A line that is optimal
at both ends of an interval is optimal throughout it (two lines cross at
most once), which is the recursion's base case.

Interval endpoints always carry a shortest path for their parameter
value: the left endpoint the one of minimal slope, the right endpoint
any one.  That is enough to put the computed intersection strictly
inside the interval.  A right line tying the left one at the left
endpoint can have no smaller slope (the left line's is least among the
lines optimal there) and no larger one (it is optimal at the right
endpoint), so it would be the left line itself, which the base-case test
has already taken.  One minimal-slope search at the intersection
therefore serves as both the right endpoint of the left half and the
left endpoint of the right half, and a build with ``k`` segments runs
at most ``max(2, 2k - 1)`` searches.  The right end of [0, 1] still
takes the maximal-slope path: a line that is optimal only at 1 would
cost extra splits.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from typing import Sequence

from .dijkstra import MAX_SLOPE, MIN_SLOPE, SlopeMode, dijkstra_extreme_slope
from .errors import ParallelLinesError
from .model import (
    CostLine,
    DualWeightGraph,
    ONE,
    Path,
    ZERO,
    cost_line,
    validate_graph,
    validate_pair,
)

# A path together with its cost line, as carried by interval endpoints.
PathLine = tuple[Path, CostLine]


@dataclass(frozen=True)
class EnvelopeSegment:
    """Maximal parameter interval on which one path is optimal."""

    lo: Fraction
    hi: Fraction
    path: Path
    line: CostLine


@dataclass(frozen=True)
class ShortestPathIndex:
    """Sorted envelope segments tiling [0, 1] for one source/target pair."""

    source: int
    target: int
    segments: tuple[EnvelopeSegment, ...]

    @property
    def k(self) -> int:
        return len(self.segments)

    @cached_property
    def upper_bounds(self) -> tuple[Fraction, ...]:
        """Segment right endpoints; the binary-search keys for queries."""
        return tuple(seg.hi for seg in self.segments)


@dataclass(frozen=True)
class BuildResult:
    index: ShortestPathIndex
    dijkstra_calls: int


def intersect_lines(a: CostLine, b: CostLine) -> Fraction:
    """Unique parameter where two non-parallel cost lines agree."""
    ma, sa, da = a.scaled()
    mb, sb, db = b.scaled()
    denom = sa * db - sb * da
    if denom == 0:
        raise ParallelLinesError(f"lines {a} and {b} have equal slope {a.slope}")
    return Fraction(mb * da - ma * db, denom)


def check_segments(segments: Sequence[EnvelopeSegment], strict: bool = True) -> None:
    """Validate the segment-array invariants, raising ValueError on failure.

    Reads ``lo``, ``hi`` and ``line``, so it serves envelope-file records
    as well as index segments.  Non-strict mode checks only the interval
    structure; it is used when comparing against possibly-wrong envelopes.
    Strict mode adds exact line agreement at breakpoints and strictly
    decreasing slopes.
    """
    if not segments:
        raise ValueError("segment array is empty")
    if segments[0].lo != ZERO:
        raise ValueError(f"first segment starts at {segments[0].lo}, not 0")
    if segments[-1].hi != ONE:
        raise ValueError(f"last segment ends at {segments[-1].hi}, not 1")
    for i, seg in enumerate(segments):
        if not seg.lo < seg.hi:
            raise ValueError(f"segment {i} has empty interval [{seg.lo}, {seg.hi}]")
    scaled = [seg.line.scaled() for seg in segments] if strict else []
    for i in range(len(segments) - 1):
        a, b = segments[i], segments[i + 1]
        if a.hi != b.lo:
            raise ValueError(f"gap between segments {i} and {i + 1}")
        if not strict:
            continue
        (ma, sa, da), (mb, sb, db) = scaled[i], scaled[i + 1]
        if (ma, sa, da) == (mb, sb, db):
            raise ValueError(f"segments {i} and {i + 1} share a line")
        if sa * db <= sb * da:
            raise ValueError(f"slope not decreasing at segment {i + 1}")
        p, q = a.hi.numerator, a.hi.denominator
        if (q * ma + p * sa) * db != (q * mb + p * sb) * da:
            raise ValueError(
                f"lines disagree at breakpoint {a.hi} between {i} and {i + 1}"
            )


def check_index_invariants(index: ShortestPathIndex) -> None:
    """Strict invariant check over a whole index."""
    check_segments(index.segments, strict=True)


def build_index_detailed(
    graph: DualWeightGraph, source: int, target: int
) -> BuildResult:
    """Build the full shortest-path map over [0, 1], reporting search count.

    Raises GraphStructureError for a source or target outside the graph
    and UnreachableError when the target cannot be reached (positive
    weights make reachability independent of the parameter).  Intervals
    wait on an explicit stack, because the number of segments (and hence
    the recursion depth) can be large relative to interpreter stack limits.
    """
    validate_graph(graph)
    validate_pair(graph, source, target)
    calls = 0

    def probe(lam: Fraction, mode: SlopeMode) -> PathLine:
        nonlocal calls
        calls += 1
        path, _label = dijkstra_extreme_slope(graph, lam, source, target, mode)
        return path, cost_line(graph, path)

    segments: list[EnvelopeSegment] = []
    stack = [(ZERO, ONE, probe(ZERO, MIN_SLOPE), probe(ONE, MAX_SLOPE))]
    while stack:
        lo, hi, (p_lo, l_lo), (p_hi, l_hi) = stack.pop()
        if l_lo.value(hi) == l_hi.value(hi):
            # The left line is optimal at both ends, hence on all of [lo, hi].
            if segments and segments[-1].line == l_lo:
                # A probe interior to one optimal stretch splits it in two;
                # fuse the halves and keep the leftmost witness path.
                segments[-1] = replace(segments[-1], hi=hi)
            else:
                segments.append(EnvelopeSegment(lo, hi, p_lo, l_lo))
            continue
        r = intersect_lines(l_lo, l_hi)
        # Holds by the endpoint invariant, and keeps both halves nonempty.
        if not (l_lo.slope > l_hi.slope and lo < r < hi):
            raise RuntimeError(
                f"bisection invariant broken on [{lo}, {hi}]: lines {l_lo} "
                f"and {l_hi} cross at {r}"
            )
        rep = probe(r, MIN_SLOPE)
        # Right pushed first so the left half is processed first (LIFO),
        # keeping the output in increasing parameter order.
        stack.append((r, hi, rep, (p_hi, l_hi)))
        stack.append((lo, r, (p_lo, l_lo), rep))
    index = ShortestPathIndex(source, target, tuple(segments))
    check_index_invariants(index)
    return BuildResult(index, calls)


def build_index(graph: DualWeightGraph, source: int, target: int) -> ShortestPathIndex:
    """Like :func:`build_index_detailed` but returns only the index."""
    return build_index_detailed(graph, source, target).index
