"""The integer cross-multiplication paths against plain ``Fraction`` formulas.

The slope-extremal search, line values, intersections, segment lookup
and the strict segment check compute on ints directly.  Each test here
keeps the ``Fraction`` formula the code used to run as its reference,
over lambdas at 0, at 1, at breakpoints and with 125-bit denominators.
"""

import copy
import heapq
import math
import pickle
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import strategies as own
from parapath import (
    MAX_SLOPE,
    MIN_SLOPE,
    CostLine,
    DualWeightGraph,
    Edge,
    ParallelLinesError,
    Path,
    UnreachableError,
    cost_line,
    dijkstra_extreme_slope,
)
from parapath.envelope import EnvelopeSegment, check_segments
from parapath.model import _fraction
from parapath.oracle import intersect_lines
from parapath.query import locate_segment

BIG = 2**125

denominators = st.one_of(st.integers(1, 12), st.integers(1, BIG))
rationals = st.builds(F, st.integers(-(2**130), 2**130), denominators)
cost_lines = st.builds(CostLine, rationals, rationals)


@st.composite
def interior_rationals(draw):
    """A rational in (0, 1) with a small or a 125-bit denominator."""
    q = draw(st.one_of(st.integers(2, 12), st.integers(2, BIG)))
    return F(draw(st.integers(1, q - 1)), q)


interior = interior_rationals()
unit_rationals = st.one_of(st.just(F(0)), st.just(F(1)), interior)


def reference_value(line, lam):
    return (1 - lam) * line.c0 + lam * line.c1


def reference_slope(line):
    return line.c1 - line.c0


numerators = st.one_of(st.integers(-300, 300), st.integers(-(2**260), 2**260))
helper_denominators = st.one_of(st.just(1), st.integers(1, 300), st.integers(1, 2**260))


@given(numerators, helper_denominators, rationals)
@example(0, 1, F(1, 3))
@example(0, 2**201, F(-5, 2))
@example(-6, 4, F(3, 2))
@example(2**201 + 1, 1, F(0))
@example(-(3 * 2**201), 2**201, F(2**210, 3))
@settings(max_examples=400, deadline=None)
def test_fraction_helper_is_fraction(p, q, other):
    got, want = _fraction(p, q), F(p, q)
    assert type(got) is F
    assert (got.numerator, got.denominator) == (want.numerator, want.denominator)
    assert type(got.numerator) is int and type(got.denominator) is int
    assert got.denominator > 0 and math.gcd(got.numerator, got.denominator) == 1
    assert hash(got) == hash(want)
    assert repr(got) == repr(want) and str(got) == str(want)
    for back in (pickle.loads(pickle.dumps(got)), copy.copy(got), copy.deepcopy(got)):
        assert type(back) is F
        assert back.as_integer_ratio() == want.as_integer_ratio()
    for a, b in ((got, other), (other, got), (got, p), (got, want)):
        a2, b2 = (want if x is got else x for x in (a, b))
        assert (a == b, a < b, a <= b, a > b, a >= b) == (
            a2 == b2, a2 < b2, a2 <= b2, a2 > b2, a2 >= b2
        )
        assert (a + b, a - b, a * b) == (a2 + b2, a2 - b2, a2 * b2)
        if b2:
            assert (a / b, a // b, a % b) == (a2 / b2, a2 // b2, a2 % b2)
    assert (-got, abs(got), got**2, int(got), round(got), math.floor(got)) == (
        -want, abs(want), want**2, int(want), round(want), math.floor(want)
    )


@given(cost_lines, unit_rationals)
@settings(max_examples=300, deadline=None)
def test_value_matches_fraction_formula(line, lam):
    got = line.value(lam)
    assert type(got) is F
    assert got == reference_value(line, lam)


@given(cost_lines, unit_rationals)
@settings(max_examples=200, deadline=None)
def test_cost_at_matches_fraction_formula(line, lam):
    # A segment as an envelope file loads it: its line rebuilt from c0, c1.
    record = EnvelopeSegment(F(0), F(1), None, CostLine(line.c0, line.c1), (0, 1))
    assert record.line.value(lam) == reference_value(line, lam)


@given(cost_lines, cost_lines, st.booleans())
@settings(max_examples=300, deadline=None)
def test_intersect_lines_matches_fraction_formula(a, b, parallel):
    if parallel:
        b = CostLine(b.c0, b.c0 + reference_slope(a))
    denom = reference_slope(a) - reference_slope(b)
    if denom == 0:
        with pytest.raises(ParallelLinesError):
            intersect_lines(a, b)
        return
    got = intersect_lines(a, b)
    assert got == (b.c0 - a.c0) / denom
    assert reference_value(a, got) == reference_value(b, got)


def reference_locate(upper_bounds, lam):
    """The lookup as it was written over ``Fraction`` comparisons."""
    lo, hi = 0, len(upper_bounds) - 1
    comparisons = 0
    while lo < hi:
        mid = (lo + hi) // 2
        comparisons += 1
        if lam <= upper_bounds[mid]:
            hi = mid
        else:
            lo = mid + 1
    return lo, comparisons


@st.composite
def bounds_and_lambda(draw):
    inner = draw(st.lists(interior, max_size=20, unique=True))
    bounds = tuple(sorted(inner)) + (F(1),)
    pick = st.sampled_from(bounds)
    lam = draw(
        st.one_of(
            unit_rationals,
            pick,
            # Just either side of a bound, by less than any 125-bit gap.
            pick.map(lambda b: b - b / BIG**2),
            pick.map(lambda b: b + (1 - b) / BIG**2),
        )
    )
    return bounds, lam


@given(bounds_and_lambda())
@settings(max_examples=300, deadline=None)
def test_locate_segment_matches_linear_scan(case):
    bounds, lam = case
    nums = [b.numerator for b in bounds]
    dens = [b.denominator for b in bounds]
    index, comparisons = locate_segment(nums, dens, *lam.as_integer_ratio())
    assert index == next(i for i, b in enumerate(bounds) if lam <= b)
    assert (index, comparisons) == reference_locate(bounds, lam)


def reference_verdict(a, b, h):
    """The strict check of one breakpoint, in ``Fraction`` arithmetic."""
    if a == b:
        return "share a line"
    if reference_slope(a) <= reference_slope(b):
        return "slope not decreasing"
    if reference_value(a, h) != reference_value(b, h):
        return "lines disagree"
    return None


@st.composite
def breakpoint_pairs(draw):
    """Two lines meeting at ``h``, or sharing a line, or not meeting at all."""
    h = draw(interior)
    a = draw(cost_lines)
    shape = draw(st.sampled_from(["meet", "same", "free"]))
    if shape == "same":
        return a, a, h
    if shape == "free":
        return a, draw(cost_lines), h
    slope = reference_slope(a) + draw(st.sampled_from([-1, 1, 0])) * draw(rationals)
    c0 = reference_value(a, h) - h * slope
    return a, CostLine(c0, c0 + slope), h


@given(breakpoint_pairs())
@settings(max_examples=400, deadline=None)
def test_strict_check_verdict_matches_fraction_formula(case):
    a, b, h = case
    segments = (
        EnvelopeSegment(F(0), h, Path(()), a),
        EnvelopeSegment(h, F(1), Path(()), b),
    )
    want = reference_verdict(a, b, h)
    if want is None:
        check_segments(segments)
    else:
        with pytest.raises(ValueError, match=want):
            check_segments(segments)


def reference_extreme_slope(graph, lam, source, target, mode):
    """The slope-extremal search as it was written over ``Fraction`` labels.

    Returns (edge ids, length, slope), or None when ``target`` is
    unreachable.
    """
    if source == target:
        return (), F(0), F(0)
    n = graph.vertex_count
    out_edges = [[] for _ in range(n)]
    for eid, edge in enumerate(graph.edges):
        out_edges[edge.tail].append(eid)
    lengths = [None] * n
    slopes = [None] * n
    prev_edge = [None] * n
    settled = [False] * n
    prefer_max = mode == MAX_SLOPE
    sign = -1 if prefer_max else 1
    lengths[source] = slopes[source] = F(0)
    heap = [(F(0), F(0), source)]
    while heap:
        ell, _skey, u = heapq.heappop(heap)
        if settled[u]:
            continue
        settled[u] = True
        if u == target:
            break
        for eid in out_edges[u]:
            edge = graph.edges[eid]
            v = edge.head
            if settled[v]:
                continue
            new_len = ell + (1 - lam) * edge.w0 + lam * edge.w1
            new_slope = slopes[u] + edge.w1 - edge.w0
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
        return None
    edges = []
    v = target
    while v != source:
        edges.append(prev_edge[v])
        v = graph.edges[prev_edge[v]].tail
    return tuple(reversed(edges)), lengths[target], slopes[target]


search_weights = st.one_of(
    st.integers(1, 3).map(F),  # tie-heavy
    st.builds(F, st.integers(1, 40), st.integers(1, 12)),  # mixed p/q
    own.weights,
)


@st.composite
def search_cases(draw):
    """A small multigraph with mixed weights, an ordered pair and a lambda."""
    n = draw(st.integers(2, 7))
    tie_heavy = draw(st.booleans())
    weight = st.integers(1, 3).map(F) if tie_heavy else search_weights
    edges = tuple(
        Edge(draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1)),
             draw(weight), draw(weight))
        for _ in range(draw(st.integers(1, 18)))
    )
    source, target = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    return DualWeightGraph.build(n, edges), source, target, draw(unit_rationals)


@given(search_cases())
@settings(max_examples=400, deadline=None)
def test_search_matches_fraction_reference(case):
    graph, source, target, lam = case
    for mode in (MIN_SLOPE, MAX_SLOPE):
        want = reference_extreme_slope(graph, lam, source, target, mode)
        if want is None:
            with pytest.raises(UnreachableError):
                dijkstra_extreme_slope(graph, lam, source, target, mode)
            continue
        path, line = dijkstra_extreme_slope(graph, lam, source, target, mode)
        assert (path, line.value(lam), line.slope) == want
        # The builder compares lines by numerators alone, which needs every
        # search to return the walked line's scaling over the one ``D``.
        assert line.scaled() == cost_line(graph, path).scaled()
        assert line.scaled()[2] == graph.den


@st.composite
def steep_ties(draw):
    """Rows of a chain of ``m`` layers of parallel edges with ``w0 = 1`` and
    ``w1`` of at least half the largest weight plus 1, so all its paths tie
    in length at 0 and each has a slope of at least half the graph's
    ``slope_bound``, ``m`` times the largest weight."""
    m = draw(st.integers(1, 6))
    top = draw(st.integers(2, 60))
    rows = []
    for i in range(m):
        steep = st.integers((top + 1) // 2 + 1, top)
        rises = draw(st.lists(steep, min_size=1, max_size=3))
        rows += [(i, i + 1, 1, w1) for w1 in rises]
    return m, rows


@given(steep_ties(), unit_rationals)
@example((3, [(0, 1, 1, 10), (1, 2, 1, 10), (2, 3, 1, 10)]), F(1, 2))
@settings(max_examples=200, deadline=None)
def test_search_keeps_steep_tied_slopes_exact(case, lam):
    # The search packs a slope into the low bits of its label, below the
    # length, and slopes this close to the bound use nearly all of them: a
    # label laid out one bit short reads a wrong length or slope here.  At
    # 0 the paths tie; mirrored, with w0 and w1 swapped, they tie at 1.
    m, rows = case
    mirrored = [(t, h, w1, w0) for t, h, w0, w1 in rows]
    for weights, tie in ((rows, F(0)), (mirrored, F(1))):
        graph = DualWeightGraph.build(m + 1, weights)
        for at in (tie, lam):
            for mode in (MIN_SLOPE, MAX_SLOPE):
                want = reference_extreme_slope(graph, at, 0, m, mode)
                path, line = dijkstra_extreme_slope(graph, at, 0, m, mode)
                assert (path, line.value(at), line.slope) == want
                assert 2 * abs(line.scaled()[1]) >= graph.slope_bound
