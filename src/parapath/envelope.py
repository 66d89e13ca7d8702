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

The builder talks to the search in ints, through its int entry: a probe
passes its parameter as ``p/q`` in lowest terms and gets back its
search's predecessor edges and the numerators of its path's cost line
over the graph's one weight denominator ``D``, so lines compare by their
numerators alone: the base-case test, the crossing, its bounds check and
the fusing of equal lines are int arithmetic with no denominator in it.
A crossing ``num / gap`` is reduced with one gcd to the next probe's
``p/q``.  Only a probe that starts an output segment is walked back to a
path, and only a segment end becomes a ``Fraction``: ``k - 1`` of them.
Each witness is then walked once with :func:`cost_line`, and its line
must equal the one its search returned.

Interval pruning.  A probe inside ``[lo, hi]`` need only search the
vertices that can lie on a shortest path somewhere in the interval.  For
a probe at ``x`` with optimal length ``OPT_x``, the slack of a vertex is
``sigma_x(v) = d_x(s, v) + d_x(v, t) - OPT_x >= 0``: the forward term
from the probe's own search, the reverse term from one plain-length
search from ``t`` over reversed edges and the same vertices.  Let the
interval's lines ``l_lo`` and ``l_hi`` cross at ``r``, put
``U = min(l_lo, l_hi)`` and ``G = U(r) - chord_OPT(r)``.  A vertex is
live when ``sigma_lo(v) = 0``, ``sigma_hi(v) = 0`` or
``(hi - r)/(hi - lo) * sigma_lo(v) + (r - lo)/(hi - lo) * sigma_hi(v) <= G``.
With ``r = num / gap``, ``X = q_lo * (r - lo) * gap`` and
``Y = q_hi * (hi - r) * gap`` are ints, and over the probes' scaled
slacks the last test reads ``Y * sigma_lo + X * sigma_hi <= X * Y``.

*The test keeps every vertex of every length-optimal path in the
interval.*  Let ``P`` be optimal at some ``lam`` in ``[lo, hi]`` and
``v`` on it, and assume (induction, below) that ``P`` lies in the vertex
set each endpoint's search ran over.  Distances within a vertex set are
minima of lines, so concave, and within either endpoint's set they are
at most those within the two sets' intersection, which holds ``P``.  So
the chords through the endpoints' values lie below the costs of ``P``'s
parts before and after ``v``, and their sum ``B_v`` has
``B_v(lam) <= cost_P(lam) = OPT(lam) <= U(lam)``.  A label that a search
left unsettled is replaced by ``OPT``, a lower bound (the forward search
stops at ``t``, the reverse one at ``s``), which only lowers ``B_v``.
``B_v - U`` is convex with its one kink at ``r``, so it is at most 0
somewhere in ``[lo, hi]`` only if it is at ``lo``, ``r`` or ``hi``, where
it equals ``sigma_lo(v)``, the weighted sum minus ``G``, and
``sigma_hi(v)``.  The root probes search every vertex, and the probe at
``r`` searches the live set of ``[lo, hi]`` or every vertex, so an
optimal path anywhere in ``[lo, r]`` or ``[r, hi]`` lies in both of that
child's endpoint sets: the induction holds.  The sets therefore nest,
and a child's candidates are the set of its newer endpoint.

*The restricted search returns the same path and line.*  The unpruned
search's witness is length-optimal at ``r``, and so is every tied
predecessor of a vertex on it: a vertex whose label plus the edge gives
the vertex's final label lies on a shortest path to it, which extends to
``t``.  All of these are live, and so is every vertex of every shortest
path to them, so their labels are exact in the restricted search.
Vertices with exact labels settle in ``(label, id)`` order in both
searches, adjacency order is unchanged, and a dead vertex never ties a
live vertex's final label (it would be a tied predecessor).  So each
witness vertex keeps the same first predecessor to reach its final
label, and the walk back from ``t`` is the same.

The probes inside the root interval and its two halves search every
vertex, and an endpoint's reverse search runs only when a deeper
interval first needs its slack.  A build with ``k <= 3`` probes no
deeper (the first crossing lies on the middle segment, whose ends are
the two further probes, and all four quarters are base cases), so it
settles exactly what it would unpruned.  A pruned probe searches its
live set twice and every live set holds its ends' paths, so pruning is
on only when ``2 * (|P0| + |P1| + 2) < vertex_count``, for the edge
counts of the two root paths.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import NamedTuple, Sequence

# The int entry keeps the old name: perfbench's ``dijkstra.search`` span and
# test_every_probe_and_walk_goes_through_the_module_names pin it (ROADMAP item 6).
from .dijkstra import extreme_slope_search as dijkstra_extreme_slope
from .dijkstra import reverse_lengths, walk_back
from .model import (
    CostLine,
    DualWeightGraph,
    ONE,
    Path,
    ZERO,
    cost_line,
    derived,
    show_number,
    validate_graph,
    validate_pair,
)

Columns = tuple[tuple[int, ...], tuple[int, ...], tuple[tuple[int, int, int], ...]]


class EnvelopeSegment(NamedTuple):
    """Maximal parameter interval on which one path is optimal.

    ``path`` is the witness's edge ids, a plain tuple, or None for a
    segment read from an envelope file: a vertex walk cannot tell parallel
    edges apart.  ``vertices`` is the witness's vertex walk, which an
    envelope file holds and :func:`~parapath.graphio.document_from_index`
    fills in; the builder leaves it None.  A segment is a tuple, and
    compares equal to a plain tuple of its fields.
    """

    lo: Fraction
    hi: Fraction
    path: Path | None
    line: CostLine
    vertices: tuple[int, ...] | None = None

    @property
    def c0(self) -> Fraction:
        return self.line.c0

    @property
    def c1(self) -> Fraction:
        return self.line.c1


@dataclass(frozen=True)
class ShortestPathIndex:
    """Sorted envelope segments tiling [0, 1] for one source/target pair."""

    source: int
    target: int
    segments: tuple[EnvelopeSegment, ...]

    @property
    def k(self) -> int:
        return len(self.segments)

    @derived
    def query_columns(self) -> Columns:
        """What a query reads: :func:`check_segments`' endpoint ints and
        lines, kept by a build or a file load, else computed on the first query."""
        return check_segments(self.segments)


class BuildResult(NamedTuple):
    index: ShortestPathIndex
    dijkstra_calls: int


def check_segments(segments: Sequence[EnvelopeSegment]) -> Columns:
    """Validate the segment-array invariants, raising ValueError on failure:
    nonempty intervals tiling [0, 1], strictly decreasing slopes and lines
    agreeing exactly at each breakpoint.  Returns the ints it read as
    :attr:`ShortestPathIndex.query_columns`.  After the ends of [0, 1],
    segments are checked in order, each against the one before it, so the
    first fault is the one reported.
    """
    if not segments:
        raise ValueError("segment array is empty")
    # Endpoints are read as numerator/denominator pairs, each in lowest terms.
    lo = segments[0].lo
    lp, lq = lo.as_integer_ratio()
    if lp != 0:
        raise ValueError(f"first segment starts at {show_number(lo)}, not 0")
    hp, hq = segments[-1].hi.as_integer_ratio()
    if hp != hq:
        raise ValueError(f"last segment ends at {show_number(segments[-1].hi)}, not 1")
    nums, dens, lines = [], [], []
    hi = lo
    for i, seg in enumerate(segments):
        # A built index shares one Fraction per breakpoint between its segments.
        if seg.lo is not hi and seg.lo.as_integer_ratio() != (lp, lq):
            raise ValueError(f"gap between segments {i - 1} and {i}")
        hi = seg.hi
        hp, hq = hi.as_integer_ratio()
        if lp * hq >= hp * lq:
            ends = ", ".join(map(show_number, (seg.lo, hi)))
            raise ValueError(f"segment {i} has empty interval [{ends}]")
        nums.append(hp)
        dens.append(hq)
        mb, sb, db = line = seg.line.scaled()
        if lines:  # against the line of the segment before
            ma, sa, da = lines[-1]
            if (left := sa * db) <= (right := sb * da):
                if left == right and ma * db == mb * da:
                    raise ValueError(f"segments {i - 1} and {i} share a line")
                raise ValueError(f"slope not decreasing at segment {i}")
            if (lq * ma + lp * sa) * db != (lq * mb + lp * sb) * da:
                raise ValueError(
                    f"lines disagree at breakpoint {show_number(seg.lo)} "
                    f"between {i - 1} and {i}"
                )
        lines.append(line)
        lp, lq = hp, hq
    return tuple(nums), tuple(dens), tuple(lines)


def check_index_invariants(index: ShortestPathIndex) -> None:
    """The segment check over a whole index, kept as its query_columns."""
    object.__setattr__(index, "query_columns", check_segments(index.segments))


# Builds an EnvelopeSegment from its five fields, as ``_make`` does.
_segment = tuple.__new__

# Intervals shallower than this, the root and its two halves, probe every
# vertex: the reverse searches over the whole graph that pruning them takes
# would cost more than their probes save.  Tests lower it to reach the
# pruned path on small builds.
_PRUNE_FROM_DEPTH = 2


def _dead(n: int, live: Sequence[int]) -> list[bool] | None:
    """A fresh mask of the vertices outside ``live``, or None if there are none."""
    if len(live) == n:
        return None
    dead = [True] * n
    for v in live:
        dead[v] = False
    return dead


@dataclass(slots=True)
class _Bounds:
    """A probe's slack over the vertices its search ran over, in the
    probe's length units, for the live tests of the intervals it ends.

    Holds the search's heap entries until first asked: the reverse search
    that completes the slack runs then, since a probe between two
    base-case intervals never needs it.  ``depth`` is the probe's in the
    bisection tree: 0 at the root ends, and one more than its interval's,
    which is the larger of its ends' depths.
    """

    p: int
    q: int
    live: Sequence[int]
    labels: list | None
    depth: int
    _slack: dict[int, int] | None = None

    def slack(self, graph: DualWeightGraph, source: int, target: int) -> dict[int, int]:
        """``{v: sigma(v)}``, each label a search left unsettled lowered to
        ``OPT``, the target's label, which it is at least."""
        if self._slack is None:
            labels, live, vb = self.labels, self.live, graph.vertex_bits
            top = graph.label_shift + vb  # an entry's length sits above it
            opt = labels[target] >> top
            back = reverse_lengths(
                graph, self.p, self.q, source, target, _dead(graph.vertex_count, live)
            )
            self._slack = {
                v: (opt if (f := labels[v]) is None or (f := f >> top) > opt else f)
                + (b if (b := back[v]) is not None and (b := b >> vb) < opt else opt)
                - opt
                for v in live
            }
            self.labels = None
        return self._slack


def _live(low: dict[int, int], high: dict[int, int], x: int, y: int) -> list[int]:
    """The live set of an interval from its ends' slacks, ``X`` and ``Y``.

    The newer end's vertex set is the smaller, and lies in the older's.
    """
    xy = x * y
    return [
        v for v in (low if len(low) <= len(high) else high)
        if not (a := low[v]) or not (b := high[v]) or y * a + x * b <= xy
    ]


def build_index_detailed(
    graph: DualWeightGraph, source: int, target: int, *, _prune: bool | None = None
) -> BuildResult:
    """Build the full shortest-path map over [0, 1], reporting search count.

    Raises GraphStructureError for a source or target outside the graph
    and UnreachableError when the target cannot be reached (positive
    weights make reachability independent of the parameter).  Intervals
    wait on an explicit stack, because the number of segments (and hence
    the recursion depth) can be large relative to interpreter stack limits.
    Raises RuntimeError if the bisection invariant breaks or a witness's
    walked line differs from the one its search returned: neither can
    happen on a correct build.  ``_prune`` overrides the pruning gate.
    """
    validate_graph(graph)
    den, n = graph.den, graph.vertex_count
    if not (0 <= source < n and 0 <= target < n):
        validate_pair(graph, source, target)

    # The sweep keeps the left end of the current interval in locals and
    # the right ends still ahead on a stack, nearest on top.  A probe is
    # (p, q, predecessor edges, m, s, bounds): lam = p/q in lowest terms,
    # its line worth (m + lam*s) / den, and its _Bounds, or None unpruned.
    # The root probes search every vertex and keep their labels, and get
    # bounds once the gate, which needs their paths, turns pruning on.  A
    # probe's path is walked back only if it starts a segment; the left
    # root's always does.
    everything = range(n)
    roots = [None] * n, [None] * n
    prev_lo, ma, sa = dijkstra_extreme_slope(
        graph, 0, 1, source, target, 1, None, roots[0]
    )
    prev_hi, mb, sb = dijkstra_extreme_slope(
        graph, 1, 1, source, target, -1, None, roots[1]
    )
    calls = 2
    witness = walk_back(graph, prev_lo, source, target)
    prune = _prune
    if prune is None:  # the left root's path alone may close the gate
        prune = 2 * (len(witness) + 2) < n and 2 * (
            len(witness) + len(walk_back(graph, prev_hi, source, target)) + 2
        ) < n
    pl, ql, b_lo, b_hi = 0, 1, None, None
    if prune:
        b_lo = _Bounds(0, 1, everything, roots[0], 0)
        b_hi = _Bounds(1, 1, everything, roots[1], 0)
    stack = [(1, 1, prev_hi, mb, sb, b_hi)]
    segments: list[EnvelopeSegment] = []
    lm = ls = None  # the (m, s) of the pending segment, built once its end is known
    while stack:
        ph, qh, _, mb, sb, b_hi = stack[-1]
        if qh * ma + ph * sa == qh * mb + ph * sb:
            # The left line is optimal at both ends, hence on all of [lo, hi].
            # A probe interior to one optimal stretch splits it in two; the
            # halves fuse, keeping the leftmost witness path.
            if ma != lm or sa != ls:
                lo = ZERO
                if lm is not None:  # the pending segment ends here
                    lo = Fraction(pl, ql)
                    seg = start, lo, witness, line, None
                    segments.append(_segment(EnvelopeSegment, seg))
                    witness = walk_back(graph, prev_lo, source, target)
                # One walk per output segment, which must give the search's line.
                line = cost_line(graph, witness)
                if line.scaled() != (ma, sa, den):
                    raise RuntimeError(
                        f"witness {witness} has line {line}, but its search "
                        f"gave {CostLine.from_scaled(ma, sa, den)}"
                    )
                start, lm, ls = lo, ma, sa
            pl, ql, prev_lo, ma, sa, b_lo = stack.pop()
            continue
        # The lines cross at r = num / gap.  By the endpoint invariant the
        # left slope is the larger and r lies strictly inside [lo, hi],
        # which keeps both halves nonempty: x and y are positive.
        gap = sa - sb
        num = mb - ma
        x, y = num * ql - pl * gap, ph * gap - num * qh
        if not (gap > 0 and x > 0 and y > 0):
            raise RuntimeError(
                f"bisection invariant broken on [{Fraction(pl, ql)}, "
                f"{Fraction(ph, qh)}]: lines {(ma, sa)} and {(mb, sb)} over "
                f"{den} do not cross inside it"
            )
        # The probe at r becomes the right end of [lo, r] and, once that is
        # done, the left end of [r, hi].
        g = gcd(num, gap)
        p, q = num // g, gap // g
        dead = labels = bounds = None
        if prune:
            depth = max(b_lo.depth, b_hi.depth) + 1
            live = everything
            if depth > _PRUNE_FROM_DEPTH:
                slack_lo = b_lo.slack(graph, source, target)
                live = _live(slack_lo, b_hi.slack(graph, source, target), x, y)
            labels, dead = [None] * n, _dead(n, live)
            bounds = _Bounds(p, q, live, labels, depth)
        prev, m, s = dijkstra_extreme_slope(
            graph, p, q, source, target, 1, dead, labels
        )
        stack.append((p, q, prev, m, s, bounds))
        calls += 1

    segments.append(_segment(EnvelopeSegment, (start, ONE, witness, line, None)))
    index = ShortestPathIndex(source, target, tuple(segments))
    check_index_invariants(index)
    return BuildResult(index, calls)


def build_index(graph: DualWeightGraph, source: int, target: int) -> ShortestPathIndex:
    """Like :func:`build_index_detailed` but returns only the index."""
    return build_index_detailed(graph, source, target).index
