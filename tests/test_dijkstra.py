import math
import time
from decimal import Decimal
from fractions import Fraction as F

import pytest
from hypothesis import given, settings

import strategies as own
from parapath import (
    DualWeightGraph,
    GraphStructureError,
    LambdaRangeError,
    MAX_SLOPE,
    MIN_SLOPE,
    Path,
    UnreachableError,
    chain_endpoints,
    chain_graph,
    cost_line,
    dijkstra_extreme_slope,
    enumerate_paths,
    random_graph,
    shortest_path_length,
)


@pytest.fixture
def tied_diamond() -> DualWeightGraph:
    """Routes 0->1->3 (line (2,4)) and 0->2->3 (line (2,1)): tied at lam=0."""
    return DualWeightGraph.build(
        4,
        [
            (0, 1, 1, 2),
            (1, 3, 1, 2),
            (0, 2, 1, "0.5"),
            (2, 3, 1, "0.5"),
        ],
    )


def test_source_equals_target_gives_empty_path(tied_diamond):
    path, line = dijkstra_extreme_slope(tied_diamond, F(0), 2, 2, MIN_SLOPE)
    assert path == Path(())
    assert (line.value(F(0)), line.slope) == (F(0), F(0))


def test_min_slope_breaks_tie_downward(tied_diamond):
    path, line = dijkstra_extreme_slope(tied_diamond, F(0), 0, 3, MIN_SLOPE)
    assert path == (2, 3)
    assert (line.value(F(0)), line.slope) == (F(2), F(-1))


def test_max_slope_breaks_tie_upward(tied_diamond):
    path, line = dijkstra_extreme_slope(tied_diamond, F(0), 0, 3, MAX_SLOPE)
    assert path == (0, 1)
    assert (line.value(F(0)), line.slope) == (F(2), F(2))


def test_single_edge_midpoint(single_edge):
    path, line = dijkstra_extreme_slope(single_edge, F(1, 2), 0, 1, MIN_SLOPE)
    assert path == (0,)
    assert (line.value(F(1, 2)), line.slope) == (F(2), F(2))


def test_unreachable_raises():
    graph = DualWeightGraph.build(3, [(0, 1, 1, 1)])
    with pytest.raises(UnreachableError):
        dijkstra_extreme_slope(graph, F(0), 0, 2, MIN_SLOPE)
    with pytest.raises(UnreachableError):
        shortest_path_length(graph, F(0), 0, 2)


@pytest.mark.parametrize(
    "lam, source, target, error",
    [
        (F(2), 0, 2, LambdaRangeError),
        (F(-1, 3), 0, 2, LambdaRangeError),
        (0.5, 0, 2, TypeError),
        (Decimal("0.5"), 0, 2, TypeError),
        (F(1, 2), 0, -1, GraphStructureError),
        (F(1, 2), -3, 2, GraphStructureError),
        (F(1, 2), 5, 5, GraphStructureError),
    ],
    ids=["above-1", "below-0", "float", "decimal", "target-negative",
         "source-negative", "pair-outside"],
)
def test_search_checks_its_inputs(lam, source, target, error):
    # Unchecked, lam = 2 would give length -3, target -1 the answer for
    # vertex 2, source -3 a RuntimeError and (5, 5) an empty path.
    graph = DualWeightGraph.build(3, [(0, 1, 1, 2), (1, 2, 1, 2)])
    for mode in (MIN_SLOPE, MAX_SLOPE):
        with pytest.raises(error):
            dijkstra_extreme_slope(graph, lam, source, target, mode)
    with pytest.raises(error):
        shortest_path_length(graph, lam, source, target)


def test_search_refuses_an_unknown_mode():
    # Unchecked, "max" ran the min-slope search: on chain_graph(3) at 1/2
    # it returned the min-slope path (2, 3, 6, 7, 10, 11).
    graph = chain_graph(3)
    source, target = chain_endpoints(3)
    for mode, shown in (("max", "'max'"), ("x" * 500, "'" + "x" * 39)):
        for pair in ((source, target), (source, source)):
            with pytest.raises(ValueError) as caught:
                dijkstra_extreme_slope(graph, F(1, 2), *pair, mode)
            assert str(caught.value) == f"unknown slope mode {shown}"


def _enumerated_extremes(graph, source, target, lam):
    entries = enumerate_paths(graph, source, target)
    values = [(line.value(lam), line.slope) for line, _ in entries]
    best = min(v for v, _ in values)
    tied = [m for v, m in values if v == best]
    return best, min(tied), max(tied)


@given(own.graphs_with_pair(), own.lambdas)
@settings(max_examples=150, deadline=None)
def test_labels_match_exhaustive_extrema(instance, lam):
    graph, source, target = instance
    best, lo_slope, hi_slope = _enumerated_extremes(graph, source, target, lam)
    path_min, line_min = dijkstra_extreme_slope(graph, lam, source, target, MIN_SLOPE)
    path_max, line_max = dijkstra_extreme_slope(graph, lam, source, target, MAX_SLOPE)
    assert (line_min.value(lam), line_min.slope) == (best, lo_slope)
    assert (line_max.value(lam), line_max.slope) == (best, hi_slope)
    # Returned lines must be reproducible from the returned paths.
    for path, line in ((path_min, line_min), (path_max, line_max)):
        walked = cost_line(graph, path)
        assert walked.value(lam) == line.value(lam)
        assert walked.slope == line.slope


@given(own.graphs_with_pair(), own.lambdas)
@settings(max_examples=80, deadline=None)
def test_no_edge_improves_any_label_after_full_run(instance, lam):
    """Every relaxation is neutral once the search has settled everything.

    Holds because each edge adds a strictly positive length even when
    its slope contribution is negative.  Settled labels are final, so
    the label a search to ``v`` returns is the one a full run leaves.
    """
    graph, source, _target = instance
    for mode in (MIN_SLOPE, MAX_SLOPE):
        labels = {}
        for v in range(graph.vertex_count):
            try:
                _path, line = dijkstra_extreme_slope(graph, lam, source, v, mode)
            except UnreachableError:
                continue
            labels[v] = line.value(lam), line.slope
        for edge in graph.edges:
            if edge.tail not in labels:
                continue
            tail_len, tail_slope = labels[edge.tail]
            new_len = tail_len + (1 - lam) * edge.w0 + lam * edge.w1
            new_slope = tail_slope + edge.w1 - edge.w0
            assert edge.head in labels
            head_len, head_slope = labels[edge.head]
            assert head_len <= new_len
            if head_len == new_len:
                if mode == MIN_SLOPE:
                    assert head_slope <= new_slope
                else:
                    assert head_slope >= new_slope


@given(own.graphs_with_pair(), own.lambdas)
@settings(max_examples=50, deadline=None)
def test_repeated_runs_return_identical_paths(instance, lam):
    graph, source, target = instance
    for mode in (MIN_SLOPE, MAX_SLOPE):
        first = dijkstra_extreme_slope(graph, lam, source, target, mode)
        second = dijkstra_extreme_slope(graph, lam, source, target, mode)
        assert first == second


def test_runtime_tracks_edges_times_log_vertices():
    """Coarse growth check: time per E*log(V) unit stays within a band.

    Absolute timing is hostage to the host, so only the ratio between a
    small and a large instance is checked, with generous slack.
    """
    sizes = [(150, 600), (600, 2400)]
    per_unit = []
    for n, m in sizes:
        graph = random_graph(n, m, seed=42)
        # No edge reaches the extra vertex n, so a search for it settles
        # every vertex reachable from the source before it gives up.
        padded = DualWeightGraph.build(n + 1, graph.edges)
        best = min(_timed_full_settle(padded, 0, n) for _ in range(3))
        per_unit.append(best / (m * math.log2(n)))
    ratio = max(per_unit) / min(per_unit)
    assert ratio < 10, f"per-unit cost drifted by {ratio:.1f}x"


def _timed_full_settle(graph, source, unreachable):
    start = time.perf_counter()
    with pytest.raises(UnreachableError):
        dijkstra_extreme_slope(graph, F(1, 3), source, unreachable, MIN_SLOPE)
    return time.perf_counter() - start
