import random
import sys
import tracemalloc
from fractions import Fraction as F

import pytest
from hypothesis import given, settings

import strategies as own
from parapath import (
    DualWeightGraph,
    Edge,
    GeneratorParameterError,
    build_index,
    chain_endpoints,
    chain_graph,
    enumerate_paths,
    envelope_of_lines,
    random_graph,
    validate_graph,
)
from parapath.errors import NumberSizeError
from parapath.generators import max_chain_blocks
from parapath.graphio import format_graph, format_weight
from parapath.model import MAX_EDGES, MAX_VERTICES, as_rational


def list_of_pairs_random_graph(vertices, edges, seed):
    """Reference: sample the materialized list of ordered pairs."""
    rng = random.Random(seed)
    pairs = [(i, j) for i in range(vertices) for j in range(vertices) if i != j]
    chosen = rng.sample(pairs, edges)
    rows = tuple(
        Edge(i, j, F(rng.randint(1, 1000), 100), F(rng.randint(1, 1000), 100))
        for i, j in chosen
    )
    return DualWeightGraph.build(vertices, rows)


class TestRandomGraph:
    def test_same_seed_same_graph(self):
        a = random_graph(6, 10, seed=7)
        b = random_graph(6, 10, seed=7)
        assert a == b
        assert format_graph(a) == format_graph(b)

    def test_different_seeds_differ(self):
        assert random_graph(6, 10, seed=7) != random_graph(6, 10, seed=8)

    def test_simple_digraph_shape(self):
        graph = random_graph(5, 20, seed=1)
        validate_graph(graph)
        seen = set()
        for edge in graph.edges:
            assert edge.tail != edge.head
            assert (edge.tail, edge.head) not in seen
            seen.add((edge.tail, edge.head))
            assert 0 < edge.w0 <= 10 and 0 < edge.w1 <= 10

    @pytest.mark.parametrize(
        "vertices, edges",
        [(1, 1), (3, 0), (3, 7), (2, 3), (MAX_VERTICES + 1, 1),
         (MAX_VERTICES, MAX_EDGES + 1)],
    )
    def test_infeasible_parameters_rejected(self, vertices, edges):
        with pytest.raises(GeneratorParameterError):
            random_graph(vertices, edges)

    def test_matches_list_of_pairs_reference(self):
        rng = random.Random(11)
        for _ in range(300):
            vertices = rng.randint(2, 30)
            edges = rng.randint(1, vertices * (vertices - 1))
            seed = rng.randrange(10**6)
            assert random_graph(vertices, edges, seed=seed) == (
                list_of_pairs_random_graph(vertices, edges, seed)
            )

    def test_few_edges_cost_no_pair_list(self):
        # Building all V(V - 1) pairs here took 88 MB at its peak.
        tracemalloc.start()
        try:
            graph = random_graph(1000, 5, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(graph.edges) == 5
        assert peak < 1_000_000

    def test_weight_bound_respected(self):
        graph = random_graph(4, 6, weight_max="0.05", seed=3)
        assert all(e.w0 <= F(1, 20) and e.w1 <= F(1, 20) for e in graph.edges)


@pytest.fixture
def digit_limit():
    """Set Python's int-to-text digit limit for one test, then restore it."""
    saved = sys.get_int_max_str_digits()
    yield sys.set_int_max_str_digits
    sys.set_int_max_str_digits(saved)


class TestChainGraph:
    def test_single_block_is_a_diamond(self):
        graph = chain_graph(1)
        assert graph.vertex_count == 4
        assert len(graph.edges) == 4
        assert chain_endpoints(1) == (0, 3)
        validate_graph(graph)

    def test_block_count_below_one_rejected(self):
        with pytest.raises(GeneratorParameterError):
            chain_graph(0)

    def test_unwritable_block_count_refused_before_allocating(self, digit_limit):
        # Weights reach 2**(blocks+1), so a chain past the cap could never
        # be written; refusing it must cost nothing near what building it
        # would (15000 blocks take about 77 MB).
        digit_limit(4300)  # Python's default
        cap = max_chain_blocks()
        assert cap == 14280
        tracemalloc.start()
        try:
            with pytest.raises(NumberSizeError):
                chain_graph(cap + 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    @pytest.mark.parametrize("limit", [640, 4300])
    def test_widest_weight_at_the_cap_formats(self, digit_limit, limit):
        digit_limit(limit)
        cap = max_chain_blocks()
        assert format_weight(F(1 + 2 ** (cap + 1), 2)).endswith(".5")
        with pytest.raises(NumberSizeError):
            format_weight(F(1 + 2 ** (cap + 2), 2))

    def test_no_cap_without_a_digit_limit(self, digit_limit):
        digit_limit(0)
        assert max_chain_blocks() is None

    @pytest.mark.parametrize("blocks", [1, 2, 3, 4])
    def test_envelope_size_is_blocks_plus_one(self, blocks):
        graph = chain_graph(blocks)
        source, target = chain_endpoints(blocks)
        index = build_index(graph, source, target)
        assert index.k == blocks + 1

    def test_route_combinations_have_distinct_lines(self):
        blocks = 5
        graph = chain_graph(blocks)
        source, target = chain_endpoints(blocks)
        lines = enumerate_paths(graph, source, target)
        assert len(lines) == 2**blocks

    def test_oracle_confirms_chain_envelope(self):
        blocks = 3
        graph = chain_graph(blocks)
        source, target = chain_endpoints(blocks)
        segs = envelope_of_lines(enumerate_paths(graph, source, target))
        assert len(segs) == blocks + 1
        # Deterministic construction: rebuilding gives the same graph.
        assert chain_graph(blocks) == graph


# The generators and the writer as they were written over ``Fraction``
# rows and ``graph.edges``: references for the int-column versions.


def reference_random_graph(vertices, edges, weight_max, seed):
    """``random_graph`` for valid parameters, its rows going through ``build``."""
    cents = int(as_rational(weight_max) * 100)
    rng = random.Random(seed)
    pairs = rng.sample(range(vertices * (vertices - 1)), edges)
    chosen = [divmod(m, vertices - 1) for m in pairs]
    rows = [
        (tail, r if r < tail else r + 1, F(rng.randint(1, cents), 100),
         F(rng.randint(1, cents), 100))
        for tail, r in chosen
    ]
    return DualWeightGraph.build(vertices, rows)


def reference_chain_graph(blocks):
    """``chain_graph`` for ``blocks >= 1``, its rows going through ``build``."""
    rows = []
    for i in range(blocks):
        start = 3 * i
        upper, lower, end = start + 1, start + 2, start + 3
        up = F(1, 2), F(1 + 2 ** (blocks + 1 - i), 2)
        low = F(1 + 2**i, 2), F(1, 2)
        rows += [(start, upper, *up), (upper, end, *up)]
        rows += [(start, lower, *low), (lower, end, *low)]
    return DualWeightGraph.build(3 * blocks + 1, rows)


def reference_format_graph(graph, comments=()):
    """``format_graph`` written from the ``Fraction`` edges."""
    lines = [f"# {c}" for c in comments]
    lines.append(f"psp {graph.vertex_count} {len(graph.edges)}")
    for tail, head, w0, w1 in graph.edges:
        lines.append(f"e {tail} {head} {format_weight(w0)} {format_weight(w1)}")
    return "\n".join(lines) + "\n"


def assert_same_graph_and_text(ours, theirs):
    # ``==`` leaves the adjacency out, so it is compared too.
    assert ours == theirs and ours.adjacency == theirs.adjacency
    assert format_graph(ours, ["c"]) == reference_format_graph(theirs, ["c"])


class TestColumnsMatchBuildReference:
    def test_chain_graph(self):
        for blocks in range(1, 64):
            assert_same_graph_and_text(chain_graph(blocks), reference_chain_graph(blocks))

    def test_random_graph(self):
        rng = random.Random(5)
        bounds = ["10", "0.5", "1/3", "12.34", "0.01", F(7, 4), 1, "0.05", "100"]
        dens = set()
        for i in range(360):
            vertices = rng.randint(2, 12)
            edges = rng.randint(1, min(vertices * (vertices - 1), 40))
            bound, seed = bounds[i % len(bounds)], rng.randrange(10**6)
            ours = random_graph(vertices, edges, weight_max=bound, seed=seed)
            assert_same_graph_and_text(
                ours, reference_random_graph(vertices, edges, bound, seed)
            )
            dens.add(ours.den)
        # Some draws share a factor with 100, so the denominator varies too.
        assert len(dens) > 3

    @given(own.graphs())
    @settings(max_examples=200, deadline=None)
    def test_writer_leaves_the_edges_underived(self, graph):
        text = format_graph(graph)
        assert "edges" not in vars(graph)
        assert text == reference_format_graph(graph)
