import math
import time
from fractions import Fraction as F

import pytest
from hypothesis import given, settings

import strategies as own
from parapath import (
    DualWeightGraph,
    MAX_SLOPE,
    MIN_SLOPE,
    Path,
    UnreachableError,
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
    path, label = dijkstra_extreme_slope(tied_diamond, F(0), 2, 2, MIN_SLOPE)
    assert path == Path(())
    assert (label.length, label.slope) == (F(0), F(0))


def test_min_slope_breaks_tie_downward(tied_diamond):
    path, label = dijkstra_extreme_slope(tied_diamond, F(0), 0, 3, MIN_SLOPE)
    assert path.edges == (2, 3)
    assert (label.length, label.slope) == (F(2), F(-1))


def test_max_slope_breaks_tie_upward(tied_diamond):
    path, label = dijkstra_extreme_slope(tied_diamond, F(0), 0, 3, MAX_SLOPE)
    assert path.edges == (0, 1)
    assert (label.length, label.slope) == (F(2), F(2))


def test_single_edge_midpoint(single_edge):
    path, label = dijkstra_extreme_slope(single_edge, F(1, 2), 0, 1, MIN_SLOPE)
    assert path.edges == (0,)
    assert (label.length, label.slope) == (F(2), F(2))


def test_unreachable_raises():
    graph = DualWeightGraph.build(3, [(0, 1, 1, 1)])
    with pytest.raises(UnreachableError):
        dijkstra_extreme_slope(graph, F(0), 0, 2, MIN_SLOPE)
    with pytest.raises(UnreachableError):
        shortest_path_length(graph, F(0), 0, 2)


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
    path_min, label_min = dijkstra_extreme_slope(graph, lam, source, target, MIN_SLOPE)
    path_max, label_max = dijkstra_extreme_slope(graph, lam, source, target, MAX_SLOPE)
    assert (label_min.length, label_min.slope) == (best, lo_slope)
    assert (label_max.length, label_max.slope) == (best, hi_slope)
    # Returned labels must be reproducible from the returned paths.
    for path, label in ((path_min, label_min), (path_max, label_max)):
        line = cost_line(graph, path)
        assert line.value(lam) == label.length
        assert line.slope == label.slope


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
                _path, label = dijkstra_extreme_slope(graph, lam, source, v, mode)
            except UnreachableError:
                continue
            labels[v] = label
        for edge in graph.edges:
            if edge.tail not in labels:
                continue
            tail = labels[edge.tail]
            new_len = tail.length + (1 - lam) * edge.w0 + lam * edge.w1
            new_slope = tail.slope + edge.w1 - edge.w0
            head = labels.get(edge.head)
            assert head is not None and head.length <= new_len
            if head.length == new_len:
                if mode == MIN_SLOPE:
                    assert head.slope <= new_slope
                else:
                    assert head.slope >= new_slope


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
        padded = DualWeightGraph(n + 1, graph.edges)
        best = min(_timed_full_settle(padded, 0, n) for _ in range(3))
        per_unit.append(best / (m * math.log2(n)))
    ratio = max(per_unit) / min(per_unit)
    assert ratio < 10, f"per-unit cost drifted by {ratio:.1f}x"


def _timed_full_settle(graph, source, unreachable):
    start = time.perf_counter()
    with pytest.raises(UnreachableError):
        dijkstra_extreme_slope(graph, F(1, 3), source, unreachable, MIN_SLOPE)
    return time.perf_counter() - start
