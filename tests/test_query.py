import math
import numbers
import random
from decimal import Decimal
from fractions import Fraction as F

import pytest
from hypothesis import given, settings

import strategies as own
from parapath import (
    CostLine,
    LambdaRangeError,
    Path,
    QueryResult,
    breakpoints,
    build_index,
    chain_endpoints,
    chain_graph,
    check_index_invariants,
    document_from_index,
    query,
)
from parapath.envelope import EnvelopeSegment, ShortestPathIndex
from parapath.graphio import format_envelope, parse_envelope
from parapath.model import validate_lambda
from parapath.query import locate_segment


def synthetic_index(k: int) -> ShortestPathIndex:
    """A valid index with k segments at breakpoints i/k, built directly.

    Slopes fall by 2 per segment and values stay positive, so the strict
    invariants hold even though no graph backs the paths.
    """
    segments = []
    x = F(0)
    value = F(k * k)
    for i in range(k):
        slope = F(k - 2 * i)
        hi = F(i + 1, k)
        c0 = value - slope * x
        line = CostLine(c0, c0 + slope)
        segments.append(EnvelopeSegment(x, hi, Path(()), line))
        value = line.value(hi)
        x = hi
    index = ShortestPathIndex(0, 1, tuple(segments))
    check_index_invariants(index)
    return index


def test_diamond_queries(diamond):
    index = build_index(diamond, 0, 3)
    hit = query(index, F(1, 4))
    assert hit.segment_index == 0
    assert hit.path == (0, 1)
    assert hit.cost == F(3, 2)
    # Exactly at the breakpoint both lines give 2; leftmost segment wins.
    at_break = query(index, F(1, 2))
    assert at_break.segment_index == 0
    assert at_break.cost == F(2)
    assert query(index, F(0)).cost == index.segments[0].line.c0
    assert query(index, F(1)).segment_index == 1


def test_lambda_domain_is_closed_and_strict(diamond):
    index = build_index(diamond, 0, 3)
    for bad in (F(-1, 1000), F(1001, 1000)):
        with pytest.raises(LambdaRangeError):
            query(index, bad)


def test_inexact_lambda_is_refused():
    # A float would carry binary rounding into the comparisons: at 0.3 the
    # cost would come out as 6.299999999999999.
    index = build_index(chain_graph(3), 0, 9)
    for bad in (0.3, 0.0, Decimal("0.3"), "3/10"):
        with pytest.raises(TypeError):
            query(index, bad)
    assert query(index, F(3, 10)).cost == F(63, 10)


def test_breakpoints_accessor(diamond, three_route, single_edge):
    assert breakpoints(build_index(single_edge, 0, 1)) == ()
    assert breakpoints(build_index(diamond, 0, 3)) == (F(1, 2),)
    assert breakpoints(build_index(three_route, 0, 4)) == (F(3, 8), F(5, 8))


@pytest.mark.parametrize("k", [1, 2, 3, 17, 1000, 10_000])
def test_comparison_budget(k):
    index = synthetic_index(k)
    budget = math.ceil(math.log2(k)) + 2 if k > 1 else 2
    rng = random.Random(k)
    probes = [F(0), F(1)] + list(breakpoints(index))
    probes += [own.random_lambda(rng) for _ in range(200)]
    for lam in probes:
        hit = query(index, lam)
        assert hit.comparisons <= budget
        seg = index.segments[hit.segment_index]
        assert seg.lo <= lam <= seg.hi


def test_breakpoint_resolves_to_leftmost_segment():
    index = synthetic_index(8)
    for i, bp in enumerate(breakpoints(index)):
        assert query(index, bp).segment_index == i
        nums, dens, _ = index.query_columns
        assert locate_segment(nums, dens, *bp.as_integer_ratio()) == (i, 3)


@given(own.graphs_with_pair(max_vertices=6, max_edges=12), own.lambdas)
@settings(max_examples=100, deadline=None)
def test_query_equals_minimum_over_all_segments(instance, lam):
    graph, source, target = instance
    index = build_index(graph, source, target)
    hit = query(index, lam)
    assert hit.cost == min(seg.line.value(lam) for seg in index.segments)
    assert hit.cost == hit.line.value(lam)


def test_thousand_random_probes_hit_the_minimum(three_route):
    index = build_index(three_route, 0, 4)
    rng = random.Random(7)
    for _ in range(1000):
        lam = own.random_lambda(rng)
        assert query(index, lam).cost == min(
            seg.line.value(lam) for seg in index.segments
        )


@given(own.graphs_with_pair(max_vertices=6, max_edges=12))
@settings(max_examples=60, deadline=None)
def test_cost_function_is_concave(instance):
    graph, source, target = instance
    index = build_index(graph, source, target)
    rng = random.Random(1)
    lams = sorted(own.random_lambda(rng) for _ in range(3))
    l1, l2, l3 = lams
    if l1 == l2 or l2 == l3:
        return
    c1, c2, c3 = (query(index, lam).cost for lam in lams)
    assert c2 >= ((l3 - l2) * c1 + (l2 - l1) * c3) / (l3 - l1)


def built_and_loaded(graph, source, target):
    """The index as built and as read back from its file."""
    built = build_index(graph, source, target)
    return built, parse_envelope(format_envelope(document_from_index(built, graph)))


def chain7_indexes() -> tuple[ShortestPathIndex, ShortestPathIndex]:
    """``chain_graph(7)``'s index as built and as read back from its file."""
    return built_and_loaded(chain_graph(7), *chain_endpoints(7))


def test_built_and_loaded_indexes_hold_their_query_columns(three_route):
    """The build and the load each end in the strict check, which leaves
    its ints as the index's columns before any query."""
    built = build_index(three_route, 0, 4)
    loaded = parse_envelope(format_envelope(document_from_index(built, three_route)))
    for index in (*chain7_indexes(), built, loaded):
        assert "query_columns" in vars(index)
        nums, dens = zip(*[seg.hi.as_integer_ratio() for seg in index.segments])
        lines = tuple(seg.line.scaled() for seg in index.segments)
        assert vars(index)["query_columns"] == (nums, dens, lines)


def assert_reduced(value, p, q):
    """``value`` is exactly ``Fraction(p, q)``: a plain one, in lowest terms."""
    want = F(p, q)
    assert type(value) is F
    assert type(value.numerator) is int and type(value.denominator) is int
    assert (value.numerator, value.denominator) == (want.numerator, want.denominator)
    assert hash(value) == hash(want)


@pytest.mark.parametrize("blocks", [1, 3, 6])
def test_costs_and_line_endpoints_are_reduced_fractions(blocks, three_route):
    """The query cost, the segment ends and every ``CostLine`` read on built
    and loaded indexes are plain ``Fraction``s in lowest terms."""
    for index in (*built_and_loaded(chain_graph(blocks), *chain_endpoints(blocks)),
                  *built_and_loaded(three_route, 0, 4)):
        mids = [(seg.lo + seg.hi) / 2 for seg in index.segments]
        for seg in index.segments:
            assert_reduced(seg.lo, *seg.lo.as_integer_ratio())
            assert_reduced(seg.hi, *seg.hi.as_integer_ratio())
            m, s, d = seg.line.scaled()
            assert_reduced(seg.line.c0, m, d)
            assert_reduced(seg.line.c1, m + s, d)
            assert_reduced(seg.line.slope, s, d)
            for lam in (F(0), F(1), seg.lo, seg.hi, *mids):
                assert_reduced(seg.line.value(lam), lam.denominator * m
                               + lam.numerator * s, lam.denominator * d)
        for lam in (F(0), F(1), *breakpoints(index), *mids):
            hit = query(index, lam)
            m, s, d = hit.line.scaled()
            p, q = lam.as_integer_ratio()
            assert_reduced(hit.cost, q * m + p * s, q * d)


def test_point_queries_compare_no_fractions(monkeypatch):
    """Lookup and cost run on the index's int columns: with every
    ``Fraction`` comparison raising, a built and a loaded index (each
    holding the columns its build or load kept) still answer at 0, 1, each
    breakpoint and just either side of it as a linear scan does."""
    built, loaded = chain7_indexes()
    tiny = F(1, 2**80)
    lams = [F(0), F(1)] + [b + e for b in breakpoints(built) for e in (-tiny, 0, tiny)]
    expected = []
    for lam in lams:
        i = next(i for i, seg in enumerate(built.segments) if lam <= seg.hi)
        expected.append((i, built.segments[i].line, built.segments[i].line.value(lam)))

    def refuse(*args):
        raise AssertionError("a point query compared Fractions")

    with monkeypatch.context() as patch:
        for name in ("__eq__", "__lt__", "__le__", "__gt__", "__ge__"):
            patch.setattr(F, name, refuse)
        answers = [[query(index, lam) for lam in lams] for index in (built, loaded)]
    for hits in answers:
        assert [(hit.segment_index, hit.line, hit.cost) for hit in hits] == expected


def test_query_result_is_an_immutable_named_tuple():
    assert QueryResult._fields == (
        "segment_index", "path", "line", "cost", "comparisons"
    )
    built, loaded = chain7_indexes()
    mids = [(seg.lo + seg.hi) / 2 for seg in built.segments]
    for lam in [F(0), F(1), *breakpoints(built), *mids]:
        hit = query(built, lam)
        with pytest.raises(AttributeError):
            hit.cost = F(0)
        assert hit.path is not None
        assert query(loaded, lam) == hit._replace(path=None)


def reference_locate_segment(nums, dens, lam):
    """``locate_segment`` as it was written, reading ``lam`` itself."""
    p, q = lam.numerator, lam.denominator
    lo, hi = 0, len(nums) - 1
    comparisons = 0
    while lo < hi:
        mid = (lo + hi) // 2
        comparisons += 1
        if p * dens[mid] <= nums[mid] * q:
            hi = mid
        else:
            lo = mid + 1
    return lo, comparisons


def reference_query(index, lam):
    """``query`` as it was written: ``validate_lambda`` on every call,
    ``numerator``/``denominator`` read twice, ``QueryResult``'s constructor."""
    validate_lambda(lam)
    nums, dens, lines = index.query_columns
    pos, comparisons = reference_locate_segment(nums, dens, lam)
    m, s, d = lines[pos]
    p, q = lam.numerator, lam.denominator
    seg = index.segments[pos]
    cost = F(q * m + p * s, q * d)
    return QueryResult(pos, seg.path, seg.line, cost, comparisons)


class FractionSub(F):
    """A ``Fraction`` subclass, which ``query`` reads through ``validate_lambda``."""


class PlainRational:
    """A ``numbers.Rational`` with a numerator and a denominator and nothing
    else: no ``as_integer_ratio``."""

    def __init__(self, value):
        self.numerator, self.denominator = value.numerator, value.denominator


numbers.Rational.register(PlainRational)

TINY = F(1, 2**80)
REFUSED = (0.5, Decimal("0.5"), "1/2", None, F(3, 2), F(-1, 2), 2, FractionSub(3, 2))


def spellings(lam):
    """``lam`` as each exact type a caller may pass it as."""
    out = [lam, FractionSub(lam), PlainRational(lam)]
    if lam in (0, 1):
        out += [int(lam), bool(lam)]
    return out


def assert_query_agrees(index, lam):
    """``query`` answers, or refuses, ``lam`` exactly as ``reference_query`` does."""
    try:
        ref = reference_query(index, lam)
    except (TypeError, LambdaRangeError) as exc:
        with pytest.raises(type(exc)) as refused:
            query(index, lam)
        assert (type(refused.value), str(refused.value)) == (type(exc), str(exc))
        return
    hit = query(index, lam)
    assert type(hit) is QueryResult
    assert (hit.segment_index, hit.comparisons) == (ref.segment_index, ref.comparisons)
    assert hit.path is ref.path or hit.path == ref.path
    assert hit.line.scaled() == ref.line.scaled()
    assert type(hit.cost) is F
    assert hit.cost.as_integer_ratio() == ref.cost.as_integer_ratio()


def edge_lambdas(index):
    """0, 1, every breakpoint, and 2**-80 either side of each of them."""
    points = [F(0), *breakpoints(index), F(1)]
    return [b + e for b in points for e in (-TINY, 0, TINY)]


@pytest.mark.parametrize("blocks", range(1, 16))
def test_query_equals_reference_on_chains(blocks):
    for index in built_and_loaded(chain_graph(blocks), *chain_endpoints(blocks)):
        for lam in edge_lambdas(index):
            for spelled in spellings(lam):
                assert_query_agrees(index, spelled)
        for bad in REFUSED:
            assert_query_agrees(index, bad)


@given(own.graphs_with_pair(), own.lambdas)
@settings(max_examples=100, deadline=None)
def test_query_equals_reference_on_random_graphs(instance, lam):
    for index in built_and_loaded(*instance):
        for point in (lam, *edge_lambdas(index)):
            for spelled in spellings(point):
                assert_query_agrees(index, spelled)
