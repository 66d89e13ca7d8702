import math
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
        assert locate_segment(*index.query_columns[:2], bp) == (i, 3)


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


def chain7_indexes() -> tuple[ShortestPathIndex, ShortestPathIndex]:
    """``chain_graph(7)``'s index as built and as read back from its file."""
    graph, (source, target) = chain_graph(7), chain_endpoints(7)
    built = build_index(graph, source, target)
    return built, parse_envelope(format_envelope(document_from_index(built, graph)))


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
