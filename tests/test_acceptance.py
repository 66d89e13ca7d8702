"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with -s to see them on success).

The shared corpus is 1,000 seeded random instances with 2..8 vertices,
1..20 edges, hundredth-grained weights in (0, 10], and a random
connected source/target pair; several criteria reuse it, and so does
the search-count check that tightens criterion 5's budget.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass
from fractions import Fraction as F

import pytest

import strategies as own
from parapath import (
    DualWeightGraph,
    Edge,
    MAX_SLOPE,
    MIN_SLOPE,
    breakpoints,
    build_index,
    build_index_detailed,
    chain_endpoints,
    chain_graph,
    compare_envelopes,
    dijkstra_extreme_slope,
    document_from_index,
    enumerate_paths,
    envelope_of_lines,
    query,
    shortest_path_length,
)
from parapath.envelope import check_segments
from parapath.graphio import format_envelope
from test_query import synthetic_index

CORPUS_SIZE = 1000
CORPUS_SEED = 20240901
SCALING_REPEATS = 25


def _report(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] criterion {number}: {name}{suffix}")


@dataclass
class CorpusRecord:
    graph: DualWeightGraph
    source: int
    target: int
    index: object
    dijkstra_calls: int
    oracle_segments: list


@dataclass
class Corpus:
    records: list[CorpusRecord]
    wall_seconds: float  # generation + build + oracle for every instance

    def __iter__(self):
        return iter(self.records)

    def __len__(self):
        return len(self.records)


@pytest.fixture(scope="session")
def corpus() -> Corpus:
    rng = random.Random(CORPUS_SEED)
    records: list[CorpusRecord] = []
    start = time.perf_counter()
    for _ in range(CORPUS_SIZE):
        graph, source, target = own.random_instance(rng, max_vertices=8, max_edges=20)
        result = build_index_detailed(graph, source, target)
        oracle_env = envelope_of_lines(enumerate_paths(graph, source, target))
        records.append(
            CorpusRecord(
                graph, source, target, result.index, result.dijkstra_calls, oracle_env
            )
        )
    return Corpus(records, time.perf_counter() - start)


def test_criterion_1_oracle_equivalence(corpus):
    start = time.perf_counter()
    mismatches = [
        i
        for i, rec in enumerate(corpus)
        if compare_envelopes(rec.index.segments, rec.oracle_segments) is not None
    ]
    total = corpus.wall_seconds + (time.perf_counter() - start)
    ok = not mismatches and total < 60.0
    _report(
        1,
        "oracle equivalence on random corpus",
        ok,
        f"{len(corpus)} instances, {total:.1f}s",
    )
    assert not mismatches, f"mismatching instances: {mismatches[:5]}"
    assert total < 60.0, f"corpus run took {total:.1f}s"


def test_criterion_2_point_soundness(corpus):
    rng = random.Random(CORPUS_SEED + 1)
    bad = 0
    probes = 0
    for rec in corpus:
        for _ in range(20):
            lam = own.random_lambda(rng)
            got = query(rec.index, lam).cost
            want = shortest_path_length(rec.graph, lam, rec.source, rec.target)
            probes += 1
            if got != want:
                bad += 1
    ok = bad == 0
    _report(2, "query equals plain shortest-path run", ok, f"{probes} probes")
    assert ok, f"{bad} probes disagreed"


def _dominant_line_instance(rng: random.Random) -> tuple[DualWeightGraph, int, int]:
    """Random instance plus an express route that is the strict winner at
    both endpoints: every other route costs at least 1/100, the express
    at most 8/1000."""
    graph, source, target = own.random_instance(rng, max_vertices=6, max_edges=12)
    mid = graph.vertex_count
    express = (
        Edge(source, mid, F(rng.randint(1, 4), 1000), F(rng.randint(1, 4), 1000)),
        Edge(mid, target, F(rng.randint(1, 4), 1000), F(rng.randint(1, 4), 1000)),
    )
    return DualWeightGraph.build(mid + 1, graph.edges + express), source, target


def test_criterion_3_stable_winner_collapses_to_one_segment():
    rng = random.Random(CORPUS_SEED + 2)
    failures = 0
    for _ in range(200):
        graph, source, target = _dominant_line_instance(rng)
        if build_index(graph, source, target).k != 1:
            failures += 1
    ok = failures == 0
    _report(3, "strict winner at both ends gives k=1", ok, "200 instances")
    assert ok, f"{failures} instances produced k > 1"


def test_criterion_4_structural_invariants(corpus):
    violations = 0
    for rec in corpus:
        try:
            check_segments(rec.index.segments)
        except ValueError:
            violations += 1
    ok = violations == 0
    _report(4, "tiling/agreement/concavity invariants", ok, f"{len(corpus)} indexes")
    assert ok, f"{violations} indexes violated invariants"


def test_criterion_5_search_budget(corpus):
    over_budget = [
        i for i, rec in enumerate(corpus) if rec.dijkstra_calls > 4 * rec.index.k
    ]
    wrong_base = [
        i
        for i, rec in enumerate(corpus)
        if rec.index.k == 1 and rec.dijkstra_calls != 2
    ]
    ok = not over_budget and not wrong_base
    _report(5, "at most 4k searches, exactly 2 when k=1", ok)
    assert not over_budget, f"instances over budget: {over_budget[:5]}"
    assert not wrong_base, f"k=1 instances with extra searches: {wrong_base[:5]}"


def test_one_search_per_bisection_probe(corpus):
    """At most max(2, 2k - 1) searches: two endpoint searches plus one per
    split, on the corpus and on a tie-heavy family (weights in {1, 2, 3})
    where many paths tie at the probed parameters."""
    rng = random.Random(CORPUS_SEED + 6)
    builds = [(rec.index.k, rec.dijkstra_calls) for rec in corpus]
    mismatches = 0
    for _ in range(CORPUS_SIZE):
        graph, source, target = own.random_instance(
            rng, max_vertices=8, max_edges=20, max_weight=3, weight_scale=1
        )
        result = build_index_detailed(graph, source, target)
        builds.append((result.index.k, result.dijkstra_calls))
        expected = envelope_of_lines(enumerate_paths(graph, source, target))
        if compare_envelopes(result.index.segments, expected) is not None:
            mismatches += 1
    over = [(k, calls) for k, calls in builds if calls > max(2, 2 * k - 1)]
    assert not over, f"builds over max(2, 2k - 1) searches: {over[:5]}"
    assert mismatches == 0, f"{mismatches} tie-heavy instances mismatch the oracle"


def test_criterion_6_query_comparison_bound():
    rng = random.Random(CORPUS_SEED + 3)
    worst = 0
    probes = 0
    for k in (1, 2, 5, 117, 1024, 10_000):
        index = synthetic_index(k)
        budget = (math.ceil(math.log2(k)) if k > 1 else 0) + 2
        lams = [F(0), F(1)]
        lams += list(breakpoints(index))[:500]
        lams += [own.random_lambda(rng) for _ in range(500)]
        for lam in lams:
            hit = query(index, lam)
            probes += 1
            worst = max(worst, hit.comparisons - budget)
            seg = index.segments[hit.segment_index]
            assert seg.lo <= lam <= seg.hi
    ok = worst <= 0
    _report(6, "queries stay within ceil(log2 k)+2 comparisons", ok, f"{probes} probes")
    assert ok, f"worst overshoot {worst}"


def test_criterion_7_slope_extremal_search():
    rng = random.Random(CORPUS_SEED + 4)
    failures = 0
    for _ in range(500):
        graph, source, target = own.random_instance(rng, max_vertices=7, max_edges=14)
        lam = own.random_lambda(rng)
        entries = enumerate_paths(graph, source, target)
        values = [(line.value(lam), line.slope) for line, _ in entries]
        best = min(v for v, _ in values)
        tied = [m for v, m in values if v == best]
        for mode, want in ((MIN_SLOPE, min(tied)), (MAX_SLOPE, max(tied))):
            _, line = dijkstra_extreme_slope(graph, lam, source, target, mode)
            if (line.value(lam), line.slope) != (best, want):
                failures += 1
    ok = failures == 0
    _report(7, "slope-extremal search matches enumeration", ok, "500 instances x 2 modes")
    assert ok, f"{failures} runs off the extremum"


def test_criterion_8_scaling_benchmark():
    """Wall time per build should scale like k * |E| * log|V| across a
    chain family whose segment count doubles instance to instance.

    The repeats go round-robin over the sizes, so a change in machine
    speed during the run reaches every size rather than one.
    """
    cases = []
    for blocks in (3, 7, 15):
        graph = chain_graph(blocks)
        source, target = chain_endpoints(blocks)
        oracle_k = len(envelope_of_lines(enumerate_paths(graph, source, target)))
        assert oracle_k == blocks + 1
        cases.append((graph, source, target, oracle_k, []))
    for _ in range(SCALING_REPEATS):
        for graph, source, target, oracle_k, walls in cases:
            start = time.perf_counter_ns()
            result = build_index_detailed(graph, source, target)
            walls.append(time.perf_counter_ns() - start)
            assert result.index.k == oracle_k
    rows = []
    for graph, _source, _target, oracle_k, walls in cases:
        unit = oracle_k * len(graph.edges) * math.log2(graph.vertex_count)
        rows.append((oracle_k, min(walls) / unit))
    ks = [k for k, _ in rows]
    assert all(2 * ks[i] == ks[i + 1] for i in range(len(ks) - 1))
    ratios = [r for _, r in rows]
    spread = max(ratios) / min(ratios)
    ok = spread <= 3.0
    _report(
        8,
        "build time within 3x of linear in k*E*logV",
        ok,
        f"k={ks}, spread {spread:.2f}x",
    )
    assert ok, f"per-unit spread {spread:.2f}x exceeds 3x"


def test_criterion_9_deterministic_output():
    rng = random.Random(CORPUS_SEED + 5)
    diffs = 0
    for _ in range(100):
        graph, source, target = own.random_instance(rng, max_vertices=7, max_edges=14)
        runs = [build_index(graph, source, target) for _ in range(2)]
        payloads = {
            format_envelope(document_from_index(index, graph)).encode()
            for index in runs
        }
        if len(payloads) != 1:
            diffs += 1
    ok = diffs == 0
    _report(9, "repeat builds byte-identical", ok, "100 instances x 2 builds")
    assert ok, f"{diffs} instances produced differing bytes"
