import heapq
import math
import random
import time
from decimal import Decimal
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from parapath.dijkstra import extreme_slope_search, reverse_lengths, walk_back
from parapath.model import validate_lambda, validate_pair


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
        (F(3, 2), 0, 2, LambdaRangeError),
        (F(1, 2), True, 2, GraphStructureError),
        (F(1, 2), 0, 3, GraphStructureError),
    ],
    ids=["above-1", "below-0", "float", "decimal", "target-negative",
         "source-negative", "pair-outside", "three-halves", "bool-source",
         "target-outside"],
)
def test_search_checks_its_inputs(lam, source, target, error):
    # Unchecked, lam = 2 would give length -3, target -1 the answer for
    # vertex 2, source -3 a RuntimeError and (5, 5) an empty path.  The
    # search refuses with the validators' exact class and text.
    graph = DualWeightGraph.build(3, [(0, 1, 1, 2), (1, 2, 1, 2)])
    with pytest.raises(error) as expected:
        validate_lambda(lam)
        validate_pair(graph, source, target)
    for mode in (MIN_SLOPE, MAX_SLOPE):
        with pytest.raises(error) as caught:
            dijkstra_extreme_slope(graph, lam, source, target, mode)
        assert type(caught.value) is type(expected.value)
        assert str(caught.value) == str(expected.value)
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


def tuple_heap_kernel(adjacency, a, b, origin, start, stop, settled, labels):
    """The search loop over a heap of ``(label, vertex)`` tuples, as it was
    before heap entries carried their vertex in the label's low bits: the
    packed entries must settle, relax and break ties exactly as it does."""
    prev_edge = [-1] * len(labels)
    labels[origin] = start
    heap = [(start, origin)]
    while heap:
        ell, u = heapq.heappop(heap)
        if settled[u]:
            continue
        settled[u] = True
        if u == stop:
            break
        for v, w0, w1, eid in adjacency[u]:
            if settled[v]:
                continue
            new = ell + a * w0 + b * w1
            cur = labels[v]
            if cur is None or new < cur:
                labels[v] = new
                prev_edge[v] = eid
                heapq.heappush(heap, (new, v))
    return prev_edge


def tuple_heap_search(graph, lam, source, target, mode, settled):
    """(path, scaled line, labels) of the slope-extremal search run by
    :func:`tuple_heap_kernel`, or None when ``target`` is unreachable;
    ``settled`` receives the settled marks."""
    p, q = lam.as_integer_ratio()
    sign = 1 if mode == MIN_SLOPE else -1
    bound = graph.slope_bound
    shift = (2 * bound).bit_length()
    labels = [None] * graph.vertex_count
    if source == target:
        return (), (0, 0, graph.den), labels
    prev_edge = tuple_heap_kernel(
        graph.adjacency, ((q - p) << shift) - sign, (p << shift) + sign,
        source, bound, target, settled, labels,
    )
    if not settled[target]:
        return None
    path, v = [], target
    while v != source:
        path.append(prev_edge[v])
        v = graph.tails[prev_edge[v]]
    length = labels[target] >> shift
    slope = sign * (labels[target] - (length << shift) - bound)
    return tuple(reversed(path)), ((length - p * slope) // q, slope, graph.den), labels


def unpacked(entries, graph):
    """Each heap entry's label, after checking its low bits hold its vertex."""
    vb = graph.vertex_bits
    assert vb == graph.vertex_count.bit_length()
    for v, entry in enumerate(entries):
        assert entry is None or entry & ((1 << vb) - 1) == v
    return [None if entry is None else entry >> vb for entry in entries]


def dead_masks(graph, source, target, seed):
    """No mask, a mask marking nothing, and a seeded mask marking some
    vertices other than the pair."""
    rng = random.Random(seed)
    n = graph.vertex_count
    some = [v not in (source, target) and rng.random() < 0.3 for v in range(n)]
    return None, [False] * n, some


def assert_packed_matches_tuple_heap(graph, source, target, lam, seed):
    for dead in dead_masks(graph, source, target, seed):
        for mode in (MIN_SLOPE, MAX_SLOPE):
            want_settled = [False] * graph.vertex_count if dead is None else list(dead)
            want = tuple_heap_search(graph, lam, source, target, mode, want_settled)
            got_settled = None if dead is None else list(dead)
            labels = [None] * graph.vertex_count
            if want is None:
                with pytest.raises(UnreachableError):
                    dijkstra_extreme_slope(
                        graph, lam, source, target, mode, got_settled, labels
                    )
            else:
                path, line = dijkstra_extreme_slope(
                    graph, lam, source, target, mode, got_settled, labels
                )
                assert (path, line.scaled(), unpacked(labels, graph)) == want
            if dead is not None:
                assert got_settled == want_settled
        # The reverse search: plain lengths toward the target.
        p, q = lam.as_integer_ratio()
        n = graph.vertex_count
        want_settled = [False] * n if dead is None else list(dead)
        want_lengths = [None] * n
        tuple_heap_kernel(
            graph.reverse_adjacency, q - p, p, target, 0, source,
            want_settled, want_lengths,
        )
        got_settled = None if dead is None else list(dead)
        got = reverse_lengths(graph, p, q, source, target, got_settled)
        assert unpacked(got, graph) == want_lengths
        if dead is not None:
            assert got_settled == want_settled


seeds = st.integers(0, 2**32 - 1)


@given(
    st.one_of(
        own.graphs_with_pair(max_vertices=9, max_edges=24),
        seeds.map(lambda seed: own.random_instance(
            random.Random(seed), max_vertices=10, max_edges=30,
            max_weight=3, weight_scale=1,
        )),
    ),
    own.lambdas,
    seeds,
)
@settings(max_examples=300, deadline=None)
def test_packed_heap_entries_match_a_tuple_heap(instance, lam, seed):
    assert_packed_matches_tuple_heap(*instance, lam, seed)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33])
def test_packed_heap_entries_at_vertex_bit_boundaries(n):
    # With ``vertex_count`` at 2**j - 1 or 2**j + 1 the highest vertex id
    # needs every vertex bit, and at 2**j all but one: a layout one bit
    # short mixes the high vertex ids into the labels.  Tied two-route
    # steps run through every vertex, so ties break by vertex id all along.
    rng = random.Random(n)
    rows = [(0, 0, 1, 1)]
    for v in range(n - 1):
        rows += [(v, v + 1, 1, 2), (v, v + 1, 2, 1), (v + 1, v, 1, 1)]
    rows += [
        (rng.randrange(n), rng.randrange(n), rng.randint(1, 3), rng.randint(1, 3))
        for _ in range(2 * n)
    ]
    graph = DualWeightGraph.build(n, rows)
    for source, target in {(0, n - 1), (n - 1, 0), (n // 2, n - 1)}:
        for lam in (F(0), F(1, 3), F(1, 2), F(1)):
            assert_packed_matches_tuple_heap(graph, source, target, lam, n)


@given(own.graphs_with_pair(), own.lambdas, seeds)
@settings(max_examples=200, deadline=None)
def test_int_entry_and_walk_back_are_the_checked_search(instance, lam, seed):
    # The builder calls the int entry and walks back only witness paths;
    # together they must be the public search, labels and settled marks too.
    graph, source, target = instance
    p, q = lam.as_integer_ratio()
    n = graph.vertex_count
    for dead in dead_masks(graph, source, target, seed):
        for mode, sign in ((MIN_SLOPE, 1), (MAX_SLOPE, -1)):
            want_dead = None if dead is None else list(dead)
            got_dead = None if dead is None else list(dead)
            want_labels, got_labels = [None] * n, [None] * n
            try:
                path, line = dijkstra_extreme_slope(
                    graph, lam, source, target, mode, want_dead, want_labels
                )
            except UnreachableError as exc:
                with pytest.raises(UnreachableError, match=str(exc)):
                    extreme_slope_search(
                        graph, p, q, source, target, sign, got_dead, got_labels
                    )
                continue
            prev_edge, m, s = extreme_slope_search(
                graph, p, q, source, target, sign, got_dead, got_labels
            )
            assert walk_back(graph, prev_edge, source, target) == path
            assert (m, s, graph.den) == line.scaled()
            if source != target:  # the wrapper answers a pair (v, v) unsearched
                assert (got_labels, got_dead) == (want_labels, want_dead)
