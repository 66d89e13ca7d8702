import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import parapath.envelope
import strategies as own
from parapath import (
    MIN_SLOPE,
    CostLine,
    DualWeightGraph,
    ParallelLinesError,
    Path,
    UnreachableError,
    breakpoints,
    build_index,
    build_index_detailed,
    chain_endpoints,
    chain_graph,
    check_index_invariants,
    compare_envelopes,
    dijkstra_extreme_slope,
    enumerate_paths,
    envelope_of_lines,
    intersect_lines,
    query,
    shortest_path_length,
)
from parapath.envelope import EnvelopeSegment, ShortestPathIndex


@pytest.mark.parametrize(
    "a, b, expected",
    [
        (CostLine(F(1), F(3)), CostLine(F(3), F(1)), F(1, 2)),
        (CostLine(F(1), F(5)), CostLine(F(5, 2), F(5, 2)), F(3, 8)),
    ],
)
def test_intersect_lines(a, b, expected):
    assert intersect_lines(a, b) == expected


def test_intersect_parallel_lines_rejected():
    with pytest.raises(ParallelLinesError):
        intersect_lines(CostLine(F(1), F(3)), CostLine(F(2), F(4)))


def test_single_edge_gives_one_segment(single_edge):
    index = build_index(single_edge, 0, 1)
    assert index.k == 1
    seg = index.segments[0]
    assert (seg.lo, seg.hi) == (F(0), F(1))
    assert seg.line == CostLine(F(1), F(3))


def test_diamond_splits_at_one_half(diamond):
    result = build_index_detailed(diamond, 0, 3)
    index = result.index
    assert index.k == 2
    assert [seg.line for seg in index.segments] == [
        CostLine(F(1), F(3)),
        CostLine(F(3), F(1)),
    ]
    assert index.segments[0].hi == F(1, 2)
    assert result.dijkstra_calls <= 8


def test_three_route_breakpoints(three_route):
    index = build_index(three_route, 0, 4)
    assert index.k == 3
    assert [seg.hi for seg in index.segments[:-1]] == [F(3, 8), F(5, 8)]
    assert index.segments[1].line == CostLine(F(5, 2), F(5, 2))


def test_source_equals_target():
    graph = DualWeightGraph.build(2, [(0, 1, 1, 1)])
    result = build_index_detailed(graph, 0, 0)
    assert result.index.k == 1
    seg = result.index.segments[0]
    assert seg.path == Path(())
    assert seg.line == CostLine(F(0), F(0))
    assert result.dijkstra_calls == 2


def test_stable_winner_means_one_segment_and_two_calls():
    # One route strictly cheaper at both ends: its line covers [0, 1].
    graph = DualWeightGraph.build(
        4, [(0, 1, 1, 1), (1, 3, 1, 1), (0, 2, 5, 5), (2, 3, 5, 5)]
    )
    result = build_index_detailed(graph, 0, 3)
    assert result.index.k == 1
    assert result.dijkstra_calls == 2


def test_unreachable_target_propagates():
    graph = DualWeightGraph.build(3, [(0, 1, 1, 1)])
    with pytest.raises(UnreachableError):
        build_index(graph, 0, 2)


def test_dijkstra_calls_counts_every_search(monkeypatch, diamond):
    searches = 0
    search = parapath.envelope.dijkstra_extreme_slope

    def counting_search(*args, **kwargs):
        nonlocal searches
        searches += 1
        return search(*args, **kwargs)

    monkeypatch.setattr(parapath.envelope, "dijkstra_extreme_slope", counting_search)
    rng = random.Random(7)
    instances = [(diamond, 0, 3), (chain_graph(5), *chain_endpoints(5))]
    instances += [own.random_instance(rng, max_vertices=8, max_edges=20) for _ in range(8)]
    for graph, source, target in instances:
        searches = 0
        result = build_index_detailed(graph, source, target)
        assert result.dijkstra_calls == searches


def test_merge_keeps_leftmost_witness_path():
    # Two parallel edges with identical weights: identical lines, so one
    # segment must come back, carrying the first edge found.
    graph = DualWeightGraph.build(2, [(0, 1, 2, 1), (0, 1, 2, 1)])
    index = build_index(graph, 0, 1)
    assert index.k == 1
    assert index.segments[0].path == (0,)


def test_split_stretch_keeps_leftmost_witness():
    # Lines (1,5), (2,2) on two routes, and (5,1).  The probe at 1/2 lands
    # inside the (2,2) stretch [1/4, 3/4] and splits it; the two (2,2)
    # routes swap their tie order at 1/2, so each half has its own witness.
    # The fused segment keeps the left half's route, edges 0 and 1.
    graph = DualWeightGraph.build(
        6,
        [
            (0, 1, "0.2", "1.8"),
            (1, 5, "1.8", "0.2"),
            (0, 2, "1.8", "0.2"),
            (2, 5, "0.2", "1.8"),
            (0, 3, "0.5", "2.5"),
            (3, 5, "0.5", "2.5"),
            (0, 4, "2.5", "0.5"),
            (4, 5, "2.5", "0.5"),
        ],
    )
    index = build_index(graph, 0, 5)
    assert index.k == 3
    assert breakpoints(index) == (F(1, 4), F(3, 4))
    assert index.segments[1].path == (0, 1)


def test_paths_are_plain_edge_id_tuples():
    def is_edge_ids(path):
        return type(path) is tuple and all(type(eid) is int for eid in path)

    blocks = 3
    graph, (source, target) = chain_graph(blocks), chain_endpoints(blocks)
    assert Path((0, 1)) == (0, 1) and type(Path((0, 1))) is tuple
    for lam in (F(0), F(1, 3), F(1)):
        path, _line = dijkstra_extreme_slope(graph, lam, source, target, MIN_SLOPE)
        assert is_edge_ids(path) and path
    assert dijkstra_extreme_slope(graph, F(0), source, source, MIN_SLOPE)[0] == ()
    index = build_index(graph, source, target)
    assert index.k == blocks + 1
    assert all(is_edge_ids(seg.path) for seg in index.segments)
    witnesses = enumerate_paths(graph, source, target)
    assert witnesses and all(is_edge_ids(path) for _line, path in witnesses)
    for lam in (F(0), F(1, 2), F(1)):
        assert is_edge_ids(query(index, lam).path)


def test_invariant_checker_rejects_bad_tilings(diamond):
    """A hand-made index that fails the strict check answers no query either:
    its first lookup runs the same check."""
    index = build_index(diamond, 0, 3)
    seg0, seg1 = index.segments
    gap = (EnvelopeSegment(seg0.lo, F(1, 3), seg0.path, seg0.line), seg1)
    shared = (seg0, EnvelopeSegment(seg1.lo, seg1.hi, seg1.path, seg0.line))
    # Segments are checked in order, so the gap before segment 1 is found
    # before segment 1's empty interval.
    both = (
        EnvelopeSegment(F(0), F(1, 3), seg0.path, seg0.line),
        EnvelopeSegment(F(1, 2), F(1, 2), seg1.path, seg1.line),
        EnvelopeSegment(F(1, 2), F(1), seg1.path, seg1.line),
    )
    for segments, match in (
        (gap, "gap"), (shared, "share a line"),
        (both, r"^gap between segments 0 and 1$"),
    ):
        bad = ShortestPathIndex(0, 3, segments)
        with pytest.raises(ValueError, match=match):
            check_index_invariants(bad)
        with pytest.raises(ValueError, match=match):
            query(bad, F(1, 4))
        assert "query_columns" not in vars(bad)


@given(own.graphs_with_pair(max_vertices=7, max_edges=16))
@settings(max_examples=120, deadline=None)
def test_matches_oracle_and_respects_call_budget(instance):
    graph, source, target = instance
    result = build_index_detailed(graph, source, target)
    index = result.index
    check_index_invariants(index)
    expected = envelope_of_lines(enumerate_paths(graph, source, target))
    assert compare_envelopes(index.segments, expected) is None
    assert result.dijkstra_calls <= max(2, 2 * index.k - 1)
    if index.k == 1:
        assert result.dijkstra_calls == 2


@given(own.graphs_with_pair(max_vertices=6, max_edges=12))
@settings(max_examples=60, deadline=None)
def test_every_segment_is_pointwise_sound(instance):
    """Segment lines agree with a plain shortest-path run at lo, mid, hi."""
    graph, source, target = instance
    index = build_index(graph, source, target)
    for seg in index.segments:
        for lam in (seg.lo, (seg.lo + seg.hi) / 2, seg.hi):
            assert seg.line.value(lam) == shortest_path_length(
                graph, lam, source, target
            )


@given(st.one_of(
    own.graphs_with_pair(max_vertices=8, max_edges=20),
    st.integers(0, 2**32 - 1).map(lambda seed: own.random_instance(
        random.Random(seed), max_vertices=10, max_edges=30, weight_scale=7
    )),
))
@settings(max_examples=150, deadline=None)
def test_breakpoint_denominators_stay_under_twice_the_slope_bound(instance):
    # A breakpoint is a difference of two lines' values over the difference
    # of their scaled slopes, each less than ``slope_bound`` in absolute
    # value, so its reduced denominator is at most twice the bound.
    graph, source, target = instance
    for seg in build_index(graph, source, target).segments[:-1]:
        assert seg.hi.denominator <= 2 * graph.slope_bound


def test_chain_breakpoints_stay_under_twice_the_slope_bound():
    for blocks in (1, 2, 3, 7, 15, 31, 63):
        graph = chain_graph(blocks)
        index = build_index(graph, *chain_endpoints(blocks))
        largest = max(seg.hi.denominator for seg in index.segments)
        assert largest <= 2 * graph.slope_bound
    # chain_graph(63), the benchmark's chain: 65-bit breakpoints, a 73-bit bound.
    assert (largest.bit_length(), (2 * graph.slope_bound).bit_length()) == (65, 73)


@pytest.mark.parametrize("workload", ["chain-deep", "grid-wide"])
def test_every_probe_and_walk_goes_through_the_module_names(
    workload, bench_instances, monkeypatch
):
    # The benchmark's tracer times the search and the cost-line walk by
    # wrapping ``envelope.dijkstra_extreme_slope`` and ``envelope.cost_line``.
    # A build that reached either some other way would leave its time out
    # of those layers, so each probe and each segment's walk must be one
    # call through these names.
    if workload == "chain-deep":
        graph, (source, target) = chain_graph(63), chain_endpoints(63)
    else:
        inst = bench_instances.grid_instance(1)
        graph = DualWeightGraph.build(inst.vertex_count, inst.rows)
        source, target = inst.source, inst.target
    calls = {"search": 0, "walk": 0}

    def counted(name, fn):
        def call(*args):
            calls[name] += 1
            return fn(*args)
        return call

    envelope = parapath.envelope
    monkeypatch.setattr(
        envelope, "dijkstra_extreme_slope",
        counted("search", envelope.dijkstra_extreme_slope),
    )
    monkeypatch.setattr(envelope, "cost_line", counted("walk", envelope.cost_line))
    result = build_index_detailed(graph, source, target)
    assert calls == {"search": result.dijkstra_calls, "walk": result.index.k}
    assert (result.dijkstra_calls, result.index.k) == {
        "chain-deep": (122, 64), "grid-wide": (39, 20)
    }[workload]
