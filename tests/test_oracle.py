import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings

import strategies as own
from parapath import (
    CostLine,
    DualWeightGraph,
    Edge,
    GraphStructureError,
    OracleScaleError,
    Path,
    WeightDomainError,
    build_index,
    compare_envelopes,
    enumerate_paths,
    envelope_of_lines,
    shortest_path_length,
)
from parapath.envelope import EnvelopeSegment


def entry_lines(entries):
    return [line for line, _ in entries]


def test_single_edge_enumeration(single_edge):
    lines = enumerate_paths(single_edge, 0, 1)
    assert entry_lines(lines) == [CostLine(F(1), F(3))]


def test_diamond_enumeration(diamond):
    lines = enumerate_paths(diamond, 0, 3)
    assert sorted((l.c0, l.c1) for l in entry_lines(lines)) == [
        (F(1), F(3)),
        (F(3), F(1)),
    ]


def test_identical_lines_deduplicated():
    graph = DualWeightGraph.build(3, [(0, 1, 1, 1), (1, 2, 1, 1), (0, 2, 2, 2)])
    lines = enumerate_paths(graph, 0, 2)
    assert entry_lines(lines) == [CostLine(F(2), F(2))]
    # Witness is the first path found in DFS edge order.
    assert lines[0][1] == (0, 1)


def test_no_paths_gives_empty_set():
    graph = DualWeightGraph.build(3, [(1, 0, 1, 1)])
    assert len(enumerate_paths(graph, 0, 2)) == 0


def test_source_equals_target_is_the_empty_path():
    graph = DualWeightGraph.build(2, [(0, 1, 1, 1)])
    lines = enumerate_paths(graph, 1, 1)
    assert lines == ((CostLine(F(0), F(0)), Path(())),)


def test_enumeration_work_bounded():
    # Vertex count alone no longer refuses a graph; only the work does.
    graph = DualWeightGraph.build(13, [(0, 1, 1, 1)])
    assert entry_lines(enumerate_paths(graph, 0, 1)) == [CostLine(F(1), F(1))]
    # A complete 11-vertex digraph has about 10^7 edge steps from 0 to 10.
    n = 11
    edges = [(u, v, 1, 2) for u in range(n) for v in range(n) if u != v]
    with pytest.raises(OracleScaleError):
        enumerate_paths(DualWeightGraph.build(n, edges), 0, n - 1)


def test_witness_copies_count_against_the_budget():
    # A long path fanning out over parallel edges to the target: few edge
    # steps, but each distinct line stores the whole path as its witness.
    def path_then_fan(n):
        edges = [(i, i + 1, 1, 1) for i in range(n)]
        edges += [(n, n + 1, w, w) for w in range(1, n + 1)]
        return DualWeightGraph.build(n + 2, edges)

    assert len(enumerate_paths(path_then_fan(100), 0, 101)) == 100
    # 2000 witnesses of up to 2001 edges: about 4 * 10^6 edges stored.
    with pytest.raises(OracleScaleError):
        enumerate_paths(path_then_fan(2000), 0, 2001)


@pytest.mark.parametrize("source, target", [(-1, 1), (0, 3), (1, -3)])
def test_vertex_ids_outside_graph_rejected(source, target):
    # A negative id would otherwise index from the end of the vertex arrays.
    graph = DualWeightGraph.build(3, [(0, 1, 1, 2), (2, 1, 1, 1)])
    with pytest.raises(GraphStructureError):
        enumerate_paths(graph, source, target)
    with pytest.raises(GraphStructureError):
        shortest_path_length(graph, F(1, 2), source, target)


@pytest.mark.parametrize(
    "vertex_count, edge, source, target, error",
    [
        # Tail -1 would index from the end: an edge 2 -> 1 that is not there.
        (3, Edge(-1, 1, F(1), F(1)), 2, 1, GraphStructureError),
        (2, Edge(0, 1, F(-1), F(1)), 0, 1, WeightDomainError),
        (2, Edge(5, 1, F(1), F(1)), 0, 1, GraphStructureError),
    ],
    ids=["negative-tail", "negative-weight", "tail-outside"],
)
def test_references_refuse_what_the_builder_refuses(
    vertex_count, edge, source, target, error
):
    # A graph is checked when it is constructed, so no caller, the builder
    # or a reference, ever holds one of these.
    with pytest.raises(error):
        build_index(DualWeightGraph.build(vertex_count, (edge,)), source, target)
    with pytest.raises(error):
        enumerate_paths(DualWeightGraph.build(vertex_count, (edge,)), source, target)
    with pytest.raises(error):
        shortest_path_length(
            DualWeightGraph.build(vertex_count, (edge,)), F(1, 2), source, target
        )


def test_path_longer_than_recursion_limit():
    n = 1500
    graph = DualWeightGraph.build(n, [(i, i + 1, 1, 2) for i in range(n - 1)])
    lines = enumerate_paths(graph, 0, n - 1)
    assert lines == (
        (CostLine(F(n - 1), F(2 * (n - 1))), Path(tuple(range(n - 1)))),
    )


def line_set(*pairs):
    return tuple(
        (CostLine(F(c0), F(c1)), Path((i,))) for i, (c0, c1) in enumerate(pairs)
    )


class TestEnvelopeOfLines:
    def test_single_line(self):
        segs = envelope_of_lines(line_set((2, 3)))
        assert len(segs) == 1
        assert (segs[0].lo, segs[0].hi) == (F(0), F(1))

    def test_two_crossing_lines(self):
        segs = envelope_of_lines(line_set((1, 3), (3, 1)))
        assert [s.hi for s in segs] == [F(1, 2), F(1)]
        assert [s.line.slope for s in segs] == [F(2), F(-2)]

    def test_dominated_parallel_line_excluded(self):
        segs = envelope_of_lines(
            line_set((1, 5), (F(5, 2), F(5, 2)), (5, 1), (4, 4))
        )
        assert [s.hi for s in segs] == [F(3, 8), F(5, 8), F(1)]
        assert all(s.line != CostLine(F(4), F(4)) for s in segs)

    def test_line_touching_at_a_single_point_excluded(self):
        # Crosses the (1,3)x(3,1) vertex exactly at (1/2, 2): zero width.
        segs = envelope_of_lines(line_set((1, 3), (3, 1), (2, 2)))
        assert [s.line.slope for s in segs] == [F(2), F(-2)]

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            envelope_of_lines(())


class TestCompareEnvelopes:
    def test_equal_to_itself(self, diamond):
        segs = envelope_of_lines(enumerate_paths(diamond, 0, 3))
        assert compare_envelopes(segs, segs) is None

    def test_perturbed_breakpoint_reported(self, diamond):
        segs = envelope_of_lines(enumerate_paths(diamond, 0, 3))
        shifted = F(1, 2) + F(1, 1000)
        corrupted = [
            EnvelopeSegment(segs[0].lo, shifted, segs[0].path, segs[0].line),
            EnvelopeSegment(shifted, segs[1].hi, segs[1].path, segs[1].line),
        ]
        report = compare_envelopes(segs, corrupted)
        assert report is not None and report.startswith("segment 0")

    def test_differing_counts_reported(self, diamond, single_edge):
        a = envelope_of_lines(enumerate_paths(diamond, 0, 3))
        b = envelope_of_lines(enumerate_paths(single_edge, 0, 1))
        report = compare_envelopes(a, b)
        assert report is not None

    def test_partial_envelope_reported_by_count(self, diamond):
        # A prefix that does not reach 1 matches position by position, and
        # the count tells it apart; no tiling check runs first.
        segs = envelope_of_lines(enumerate_paths(diamond, 0, 3))
        assert compare_envelopes([segs[0]], segs) == "segment count 1 != 2"


def test_envelope_evaluates_to_minimum_of_lines():
    rng = random.Random(3)
    entries = line_set(*(((rng.randint(1, 40), rng.randint(1, 40))) for _ in range(12)))
    segs = envelope_of_lines(entries)
    uppers = [s.hi for s in segs]
    for _ in range(1000):
        lam = own.random_lambda(rng)
        want = min(line.value(lam) for line, _ in entries)
        seg = next(s for s, hi in zip(segs, uppers) if lam <= hi)
        assert seg.line.value(lam) == want


@given(own.graphs_with_pair(max_vertices=6, max_edges=12))
@settings(max_examples=100, deadline=None)
def test_endpoint_dominant_line_owns_the_whole_range(instance):
    """If one line is the strict minimum at both ends, it is the envelope."""
    graph, source, target = instance
    lines = [line for line, _ in enumerate_paths(graph, source, target)]
    at0 = sorted(line.c0 for line in lines)
    at1 = sorted(line.c1 for line in lines)
    best = min(lines, key=lambda l: (l.c0, l.c1))
    strict0 = len(at0) == 1 or at0[0] < at0[1]
    strict1 = len(at1) == 1 or at1[0] < at1[1]
    if not (strict0 and strict1 and best.c0 == at0[0] and best.c1 == at1[0]):
        return
    segs = envelope_of_lines(enumerate_paths(graph, source, target))
    assert len(segs) == 1
    assert segs[0].line == best
