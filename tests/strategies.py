"""Hypothesis strategies and deterministic builders shared by the tests.

The seeded builders that need only the standard library live in
``random_cases`` and are re-exported here.
"""

from __future__ import annotations

import json
from fractions import Fraction

from hypothesis import strategies as st

from parapath import DualWeightGraph, Edge
from random_cases import (  # noqa: F401
    random_grid,
    random_instance,
    random_lambda,
    reachable_pairs,
)

# Weights are hundredths in (0, 10], mirroring what the random generator
# and the file format produce in practice.
weights = st.integers(min_value=1, max_value=1000).map(lambda c: Fraction(c, 100))

lambdas = st.builds(
    Fraction,
    st.integers(min_value=0, max_value=720),
    st.just(720),
)


@st.composite
def graphs(draw, max_vertices: int = 6, max_edges: int = 14) -> DualWeightGraph:
    n = draw(st.integers(min_value=2, max_value=max_vertices))
    m = draw(st.integers(min_value=1, max_value=max_edges))
    edges = []
    for _ in range(m):
        tail = draw(st.integers(min_value=0, max_value=n - 1))
        head = draw(st.integers(min_value=0, max_value=n - 1))
        edges.append(Edge(tail, head, draw(weights), draw(weights)))
    return DualWeightGraph.build(n, tuple(edges))


@st.composite
def graphs_with_pair(draw, max_vertices: int = 6, max_edges: int = 14):
    """A graph plus a (source, target) pair with target reachable."""
    graph = draw(graphs(max_vertices=max_vertices, max_edges=max_edges))
    pairs = reachable_pairs(graph)
    if not pairs:
        # Guarantee at least one connected pair instead of rejecting.
        graph = DualWeightGraph.build(
            graph.vertex_count,
            graph.edges + (Edge(0, graph.vertex_count - 1, Fraction(1), Fraction(1)),),
        )
        pairs = reachable_pairs(graph)
    idx = draw(st.integers(min_value=0, max_value=len(pairs) - 1))
    source, target = pairs[idx]
    return graph, source, target


@st.composite
def chain_with_path(draw, max_links: int = 5):
    """A graph containing a known simple path 0 -> 1 -> ... -> L.

    Returns (graph, path edge ids); extra noise edges may exist but the
    designated chain always occupies the first edge ids.
    """
    links = draw(st.integers(min_value=0, max_value=max_links))
    n = max(links + 1, 2)
    edges = [
        Edge(i, i + 1, draw(weights), draw(weights)) for i in range(links)
    ]
    noise = draw(st.integers(min_value=0, max_value=4))
    for _ in range(noise):
        tail = draw(st.integers(min_value=0, max_value=n - 1))
        head = draw(st.integers(min_value=0, max_value=n - 1))
        edges.append(Edge(tail, head, draw(weights), draw(weights)))
    return DualWeightGraph.build(n, tuple(edges)), tuple(range(links))


# The diamond's envelope file: lines (1, 3) and (3, 1) crossing at 1/2.
DIAMOND_ENVELOPE = {
    "format": 1,
    "source": 0,
    "target": 3,
    "k": 2,
    "segments": [
        {"lo": "0/1", "hi": "1/2", "c0": "1/1", "c1": "3/1", "vertices": [0, 1, 3]},
        {"lo": "1/2", "hi": "1/1", "c0": "3/1", "c1": "1/1", "vertices": [0, 2, 3]},
    ],
}


def _tampered(**changes) -> str:
    """The diamond's envelope text with top-level keys or ``seg<i>_<key>`` replaced."""
    payload = json.loads(json.dumps(DIAMOND_ENVELOPE))
    for key, value in changes.items():
        if key.startswith("seg"):
            index, field = key[3:].split("_", 1)
            payload["segments"][int(index)][field] = value
        else:
            payload[key] = value
    return json.dumps(payload)


# Envelope texts that parse as JSON and tile [0, 1] but that the writer
# can never emit.  Coercing the ids with ``int()`` and checking only the
# tiling would load each of them and answer queries from it.
TAMPERED_ENVELOPES = {
    "float-source": _tampered(source=0.9),
    "string-target": _tampered(target="3"),
    "float-vertex": _tampered(seg0_vertices=[0, 1.7, 3]),
    "bool-vertex": _tampered(seg0_vertices=[0, True, 3]),
    "bool-format": _tampered(format=True),
    "float-k": _tampered(k=2.0),
    "lines-disagree-at-breakpoint": _tampered(seg1_c0="4/1"),
    "slope-not-decreasing": _tampered(seg1_c0="0/1", seg1_c1="4/1"),
    "walk-misses-source": _tampered(seg1_vertices=[1, 3]),
    "walk-misses-target": _tampered(seg1_vertices=[0, 2]),
    "empty-walk": _tampered(seg0_vertices=[]),
    "vertices-not-a-list": _tampered(seg0_vertices="013"),
    "negative-source": _tampered(
        source=-1, seg0_vertices=[-1, 1, 3], seg1_vertices=[-1, 3]
    ),
    "negative-inner-vertex": _tampered(seg0_vertices=[0, -1, 3]),
    "walk-repeats-vertex": _tampered(seg0_vertices=[0, 1, 0, 1, 3]),
    # Each spelling below parses to the right rational, but the writer
    # emits only unsigned ASCII ``p/q`` in lowest terms.
    "lo-decimal": _tampered(seg0_lo="0.0"),
    "lo-not-lowest-terms": _tampered(seg0_lo="0/2"),
    "lo-plus-sign": _tampered(seg0_lo="+0/1"),
    "lo-leading-space": _tampered(seg0_lo=" 0/1"),
    "lo-exponent": _tampered(seg0_lo="0e5"),
    "lo-underscore": _tampered(seg0_lo="0_0/1"),
    "lo-minus-zero": _tampered(seg0_lo="-0/1"),
    "lo-leading-zero": _tampered(seg0_lo="00/1"),
    "hi-not-lowest-terms": _tampered(seg0_hi="2/4", seg1_lo="2/4"),
    "c0-integer": _tampered(seg0_c0="1"),
    "c0-not-lowest-terms": _tampered(seg0_c0="2/2"),
    "c1-not-lowest-terms": _tampered(seg0_c1="6/2"),
    "c1-non-ascii-digits": _tampered(seg1_c1="\u0661/\u0661"),
    "all-at-once": _tampered(
        source=0.9, target="3", seg0_vertices=[0, 1.7, True], seg1_c0="4/1"
    ),
}
