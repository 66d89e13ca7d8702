"""Interval-pruned probes: a pruned build is the unpruned build, and the
live test keeps every vertex that can lie on a shortest path.

Builds are forced to prune through ``build_index_detailed``'s private
``_prune`` seam, since the gate leaves every small graph unpruned, and
most checks also prune from the root interval on, through the module's
``_PRUNE_FROM_DEPTH``, since only builds with ``k >= 4`` reach the depth
that a default build prunes from.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from fractions import Fraction
from heapq import heappop, heappush

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import parapath.envelope
import strategies as own
from parapath import (
    DualWeightGraph,
    build_index_detailed,
    chain_endpoints,
    chain_graph,
    compare_envelopes,
    enumerate_paths,
    envelope_of_lines,
)
from parapath.dijkstra import reverse_lengths

seeds = st.integers(0, 2**32 - 1)
instances = st.one_of(
    own.graphs_with_pair(max_vertices=8, max_edges=20),
    seeds.map(lambda seed: own.random_instance(
        random.Random(seed), max_vertices=10, max_edges=30, max_weight=3, weight_scale=1
    )),
    st.tuples(seeds, st.integers(2, 4)).map(
        lambda case: own.random_grid(random.Random(case[0]), case[1])
    ),
)


DEPTHS = (0, parapath.envelope._PRUNE_FROM_DEPTH)


@contextmanager
def pruning_from(depth):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(parapath.envelope, "_PRUNE_FROM_DEPTH", depth)
        yield


def segments(result):
    return [(s.lo, s.hi, s.path, s.line.scaled()) for s in result.index.segments]


def assert_pruning_changes_nothing(graph, source, target):
    plain = build_index_detailed(graph, source, target, _prune=False)
    expected = envelope_of_lines(enumerate_paths(graph, source, target))
    assert compare_envelopes(plain.index.segments, expected) is None
    for depth in DEPTHS:
        with pruning_from(depth):
            pruned = build_index_detailed(graph, source, target, _prune=True)
        assert segments(pruned) == segments(plain), depth
        assert pruned.dijkstra_calls == plain.dijkstra_calls, depth


@given(instances)
@settings(max_examples=300, deadline=None)
def test_pruned_build_is_the_unpruned_build(instance):
    assert_pruning_changes_nothing(*instance)


@pytest.mark.parametrize("blocks", range(1, 9))
def test_pruned_chain_is_the_unpruned_chain(blocks):
    assert_pruning_changes_nothing(chain_graph(blocks), *chain_endpoints(blocks))


def distances(graph, lam, origin, forward):
    """Exact ``Fraction`` distances from ``origin`` (to it, if not ``forward``)."""
    out = [[] for _ in range(graph.vertex_count)]
    for edge in graph.edges:
        weight = (1 - lam) * edge.w0 + lam * edge.w1
        tail, head = (edge.tail, edge.head) if forward else (edge.head, edge.tail)
        out[tail].append((head, weight))
    dist = {origin: Fraction(0)}
    heap = [(Fraction(0), origin)]
    done = set()
    while heap:
        d, u = heappop(heap)
        if u in done:
            continue
        done.add(u)
        for v, weight in out[u]:
            if v not in dist or d + weight < dist[v]:
                dist[v] = d + weight
                heappush(heap, (d + weight, v))
    return dist


def on_shortest_paths(graph, lam, source, target):
    """The vertices of every length-optimal source-target path at ``lam``."""
    ahead = distances(graph, lam, source, True)
    behind = distances(graph, lam, target, False)
    best = ahead[target]
    return {v for v in ahead if v in behind and ahead[v] + behind[v] == best}


def probes(graph, source, target, prune):
    """``(lam, live)`` for each probe of a build, ``live`` the vertices its
    search may enter."""
    seen = []
    search = parapath.envelope.dijkstra_extreme_slope

    def recording(graph, p, q, source, target, sign, dead, labels):
        mask = dead or [False] * graph.vertex_count
        seen.append((Fraction(p, q), {v for v, gone in enumerate(mask) if not gone}))
        return search(graph, p, q, source, target, sign, dead, labels)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(parapath.envelope, "dijkstra_extreme_slope", recording)
        build_index_detailed(graph, source, target, _prune=prune)
    return seen


def assert_live_sets_sound(graph, source, target):
    """Check each probe's live set at the oracle's breakpoints and segment
    midpoints, and at its interval's midpoint; returns how many probes
    searched fewer than all vertices."""
    expected = envelope_of_lines(enumerate_paths(graph, source, target))
    checkpoints = {seg.lo for seg in expected} | {Fraction(1)}
    checkpoints |= {(seg.lo + seg.hi) / 2 for seg in expected}
    optimal = {lam: on_shortest_paths(graph, lam, source, target) for lam in checkpoints}
    seen = probes(graph, source, target, prune=True)
    pruned = 0
    for i, (r, live) in enumerate(seen[2:], start=2):
        # The probe's interval is bounded by the nearest earlier probes.
        lo = max(lam for lam, _ in seen[:i] if lam < r)
        hi = min(lam for lam, _ in seen[:i] if lam > r)
        optimal.setdefault((lo + hi) / 2, on_shortest_paths(graph, (lo + hi) / 2, source, target))
        for lam, vertices in optimal.items():
            if lo <= lam <= hi:
                assert vertices <= live, (lo, hi, lam, sorted(vertices - live))
        pruned += len(live) < graph.vertex_count
    return pruned


@given(st.one_of(
    instances,
    st.tuples(seeds, st.integers(3, 4)).map(
        lambda case: own.random_grid(random.Random(case[0]), case[1], max_weight=9)
    ),
))
# A vertex on a shortest path of this grid at 1/3 meets the root
# interval's live test with equality.
@example(own.random_grid(random.Random(3102), 3, max_weight=9))
@settings(max_examples=200, deadline=None)
def test_live_sets_hold_every_shortest_path(instance):
    for depth in DEPTHS:
        with pruning_from(depth):
            assert_live_sets_sound(*instance)


def test_live_sets_prune_chains_and_grids():
    rng = random.Random(12)
    cases = [(chain_graph(blocks), *chain_endpoints(blocks)) for blocks in range(2, 9)]
    cases += [own.random_grid(rng, 4, max_weight=9) for _ in range(60)]
    ks = [build_index_detailed(*case).index.k for case in cases]
    pruned = [assert_live_sets_sound(*case) for case in cases]
    with pruning_from(0):
        for case in cases:
            assert_live_sets_sound(*case)
    # Only a build with k >= 4 probes below the root interval's halves, and
    # each of these prunes there: chains from 3 blocks on, and the grids.
    assert [k >= 4 for k in ks] == list(map(bool, pruned)), (ks, pruned)
    assert sum(k >= 4 for k in ks) >= 15, ks


def test_gate_prunes_grid_wide_and_never_chains(bench_instances):
    inst = bench_instances.grid_instance(1)
    graph = DualWeightGraph.build(inst.vertex_count, inst.rows)
    sizes = [len(live) for _, live in probes(graph, inst.source, inst.target, None)]
    assert min(sizes) < graph.vertex_count // 4, sizes
    for blocks in range(1, 64):
        graph = chain_graph(blocks)
        sizes = {len(live) for _, live in probes(graph, *chain_endpoints(blocks), None)}
        assert sizes == {graph.vertex_count}, blocks


@given(own.graphs_with_pair(), own.lambdas)
@settings(max_examples=150, deadline=None)
def test_reverse_lengths_are_exact_up_to_the_source(instance, lam):
    graph, source, target = instance
    scale = lam.denominator * graph.den
    entries = reverse_lengths(graph, *lam.as_integer_ratio(), source, target)
    vb = graph.vertex_bits  # an entry holds its length above the vertex bits
    got = [None if e is None else e >> vb for e in entries]
    exact = distances(graph, lam, target, False)
    best = exact[source]
    for v in range(graph.vertex_count):
        if v not in exact:
            assert got[v] is None
        elif exact[v] <= best:
            assert Fraction(got[v], scale) == exact[v]
        else:  # so the lower of a label and the source's is a lower bound
            assert got[v] is None or Fraction(got[v], scale) >= best


def test_unsettled_labels_count_as_the_optimum():
    # Direct edges 0 -> 4 with lines (1, 10), (5, 5), (10, 1), and the
    # route 0 -> 1 -> 2 -> 4 with line (2.8, 7.5), optimal only around 4/9,
    # inside [0, 1/2].  At 0 the search stops at 4 before settling 1, so 2
    # keeps the label 100 of the decoy edge 0 -> 2, far above its distance
    # 2.7: its slack must count the label as the optimum, 1, or 2 is cut
    # from the probe at 4/9 and the route is lost.  Reversed, the same
    # holds for the reverse search's labels.
    rows = [(0, 4, 1, 10), (0, 4, 5, 5), (0, 4, 10, 1), (0, 2, 100, 100),
            (0, 1, "1.4", "2.5"), (1, 2, "1.3", "2.5"), (2, 4, "0.1", "2.5")]
    graph = DualWeightGraph.build(5, rows)
    backward = DualWeightGraph.build(5, [(h, t, w0, w1) for t, h, w0, w1 in rows])
    for instance in ((graph, 0, 4), (backward, 4, 0)):
        assert build_index_detailed(*instance).index.k == 4
        assert_pruning_changes_nothing(*instance)
        with pruning_from(1):  # the probe at 4/9 is one level down
            assert assert_live_sets_sound(*instance)
