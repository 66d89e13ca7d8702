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

Each search returns its path's cost line over the graph's one weight
denominator ``D``, so lines compare by their numerators alone: the
base-case test, the crossing, its bounds check and the fusing of equal
lines are int arithmetic with no denominator in it.  A ``Fraction`` is
built only for each crossing, the next probe's parameter.  The cost line
of each output segment's witness is then walked once with
:func:`cost_line`, and must equal the line its search returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence

from .dijkstra import MAX_SLOPE, MIN_SLOPE, SlopeMode, dijkstra_extreme_slope
from .model import (
    CostLine,
    DualWeightGraph,
    ONE,
    Path,
    ZERO,
    cost_line,
    show_number,
    validate_graph,
)


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
    # Numerator/denominator pairs, each in lowest terms.
    los = [seg.lo.as_integer_ratio() for seg in segments]
    his = [seg.hi.as_integer_ratio() for seg in segments]
    if los[0][0] != 0:
        lo = show_number(segments[0].lo)
        raise ValueError(f"first segment starts at {lo}, not 0")
    if his[-1][0] != his[-1][1]:
        hi = show_number(segments[-1].hi)
        raise ValueError(f"last segment ends at {hi}, not 1")
    for i, ((lp, lq), (hp, hq)) in enumerate(zip(los, his)):
        if lp * hq >= hp * lq:
            ends = ", ".join(map(show_number, (segments[i].lo, segments[i].hi)))
            raise ValueError(f"segment {i} has empty interval [{ends}]")
    lines = [seg.line.scaled() for seg in segments] if strict else []
    for i in range(len(segments) - 1):
        p, q = his[i]
        if his[i] != los[i + 1]:
            raise ValueError(f"gap between segments {i} and {i + 1}")
        if not strict:
            continue
        (ma, sa, da), (mb, sb, db) = lines[i], lines[i + 1]
        if ma * db == mb * da and sa * db == sb * da:
            raise ValueError(f"segments {i} and {i + 1} share a line")
        if sa * db <= sb * da:
            raise ValueError(f"slope not decreasing at segment {i + 1}")
        if (q * ma + p * sa) * db != (q * mb + p * sb) * da:
            raise ValueError(
                f"lines disagree at breakpoint {show_number(segments[i].hi)} "
                f"between {i} and {i + 1}"
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
    Raises RuntimeError if the bisection invariant breaks or a witness's
    walked line differs from the one its search returned: neither can
    happen on a correct build.
    """
    validate_graph(graph)
    den = graph.den

    def probe(lam: Fraction, mode: SlopeMode) -> tuple:
        """lam, its numerator and denominator, the search's path, and the
        numerators (m, s) of the path's line, worth (m + lam*s) / den."""
        path, line = dijkstra_extreme_slope(graph, lam, source, target, mode)
        m, s, _ = line.scaled()
        p, q = lam.as_integer_ratio()
        return lam, p, q, path, m, s

    # The sweep keeps the left end of the current interval in locals and
    # the right ends still ahead on a stack, nearest on top; each is a probe.
    lo, pl, ql, p_lo, ma, sa = probe(ZERO, MIN_SLOPE)
    stack = [probe(ONE, MAX_SLOPE)]
    calls = 2
    segments: list[EnvelopeSegment] = []
    last = None  # the last segment's (m, s)
    while stack:
        hi, ph, qh, _, mb, sb = stack[-1]
        if qh * ma + ph * sa == qh * mb + ph * sb:
            # The left line is optimal at both ends, hence on all of [lo, hi].
            if (ma, sa) == last:
                # A probe interior to one optimal stretch splits it in two;
                # fuse the halves and keep the leftmost witness path.
                seg = segments[-1]
                segments[-1] = EnvelopeSegment(seg.lo, hi, seg.path, seg.line)
            else:
                # One walk per output segment, which must give the search's line.
                line = cost_line(graph, p_lo)
                if line.scaled() != (ma, sa, den):
                    raise RuntimeError(
                        f"witness {p_lo.edges} has line {line}, but its search "
                        f"gave {CostLine.from_scaled(ma, sa, den)}"
                    )
                segments.append(EnvelopeSegment(lo, hi, p_lo, line))
                last = ma, sa
            lo, pl, ql, p_lo, ma, sa = stack.pop()
            continue
        # The lines cross at r = num / gap.  By the endpoint invariant the
        # left slope is the larger and r lies strictly inside [lo, hi],
        # which keeps both halves nonempty.
        gap = sa - sb
        num = mb - ma
        if not (gap > 0 and pl * gap < num * ql and num * qh < ph * gap):
            raise RuntimeError(
                f"bisection invariant broken on [{lo}, {hi}]: lines "
                f"{(ma, sa)} and {(mb, sb)} over {den} do not cross inside it"
            )
        # The probe at r becomes the right end of [lo, r] and, once that is
        # done, the left end of [r, hi].
        stack.append(probe(Fraction(num, gap), MIN_SLOPE))
        calls += 1

    index = ShortestPathIndex(source, target, tuple(segments))
    check_index_invariants(index)
    return BuildResult(index, calls)


def build_index(graph: DualWeightGraph, source: int, target: int) -> ShortestPathIndex:
    """Like :func:`build_index_detailed` but returns only the index."""
    return build_index_detailed(graph, source, target).index
