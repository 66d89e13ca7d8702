import copy
import json
import math
import os
import pickle
import random
import re
import sys
import tracemalloc
from fractions import Fraction
from fractions import Fraction as F
from math import lcm
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import strategies as own
from parapath import (
    CostLine,
    DualWeightGraph,
    Edge,
    EnvelopeFormatError,
    EnvelopeSegment,
    GraphFormatError,
    ShortestPathIndex,
    breakpoints,
    build_index,
    chain_endpoints,
    chain_graph,
    document_from_index,
    query,
    random_graph,
)
from parapath.envelope import check_index_invariants
from parapath.errors import NumberSizeError, WeightScaleError
from parapath.graphio import (
    format_envelope,
    format_fraction,
    format_graph,
    format_weight,
    parse_envelope,
    parse_graph,
    read_envelope,
    read_graph,
    write_envelope,
    write_graph,
)
from parapath.model import (
    MAX_NUMBER_CHARS,
    MAX_VERTICES,
    check_scale,
    parse_rational,
    path_vertices,
    show_number,
)


DIAMOND_TEXT = """\
# two routes crossing at 1/2
psp 4 4
e 0 1 0.5 1.5
e 1 3 0.5 1.5
e 0 2 1.5 0.5
e 2 3 1.5 0.5
"""


@pytest.mark.parametrize(
    "value, expected",
    [
        (F(1), "1"),
        (F(1, 4), "0.25"),
        (F(7, 2), "3.5"),
        (F(1, 8), "0.125"),
        (F(3, 20), "0.15"),
        (F(1, 3), "1/3"),
        (F(10), "10"),
    ],
)
def test_weight_formatting(value, expected):
    assert format_weight(value) == expected
    assert F(expected) == value


def test_parse_graph_roundtrip():
    graph = parse_graph(DIAMOND_TEXT)
    assert graph.vertex_count == 4
    assert graph.edges[0].w0 == F(1, 2)
    assert parse_graph(format_graph(graph)) == graph


@given(own.graphs())
@settings(max_examples=60, deadline=None)
def test_graph_roundtrip_is_field_exact(graph):
    assert parse_graph(format_graph(graph)) == graph


mixed_weights = st.one_of(
    st.integers(1, 3).map(F),
    st.builds(F, st.integers(1, 40), st.integers(1, 12)),
    own.weights,
)


@st.composite
def mixed_graphs(draw):
    n = draw(st.integers(1, 6))
    vertex = st.integers(0, n - 1)
    edges = st.builds(Edge, vertex, vertex, mixed_weights, mixed_weights)
    return DualWeightGraph.build(n, tuple(draw(st.lists(edges, max_size=12))))


@given(mixed_graphs())
@settings(max_examples=150, deadline=None)
def test_every_constructor_gives_one_graph(graph):
    # ``build`` and the parser both end in the same int columns over the
    # least common denominator, and an ``Edge`` is a ``build`` row.
    built = DualWeightGraph.build(graph.vertex_count, graph.edges)
    parsed = parse_graph(format_graph(graph))
    assert parsed == graph == built and hash(parsed) == hash(built)
    # ``adjacency`` is left out of ``==``, so a copy's is compared by hand.
    for copied in (pickle.loads(pickle.dumps(graph)), copy.deepcopy(graph)):
        assert copied == graph and copied.adjacency == graph.adjacency
    weights = [w for e in graph.edges for w in (e.w0, e.w1)]
    assert graph.den == math.lcm(*(w.denominator for w in weights))
    adjacency = [[] for _ in range(graph.vertex_count)]
    for eid, edge in enumerate(graph.edges):
        assert F(graph.w0[eid], graph.den) == edge.w0
        assert F(graph.w1[eid], graph.den) == edge.w1
        assert (graph.tails[eid], graph.heads[eid]) == (edge.tail, edge.head)
        adjacency[edge.tail].append((edge.head, graph.w0[eid], graph.w1[eid], eid))
    assert graph.adjacency == tuple(map(tuple, adjacency))


def test_nondecimal_weights_survive_roundtrip():
    graph = parse_graph("psp 2 1\ne 0 1 1/3 2/7\n")
    assert graph.edges[0].w0 == F(1, 3)
    assert parse_graph(format_graph(graph)) == graph


@pytest.mark.parametrize(
    "text, line_no",
    [
        ("psq 2 1\ne 0 1 1 1\n", 1),
        ("psp 2 x\ne 0 1 1 1\n", 1),
        ("psp 2 1\ne 0 1 1\n", 2),
        ("psp 2 1\ne 0 7 1 1\n", 2),
        ("psp 2 1\ne 0 1 0 1\n", 2),
        ("psp 2 1\ne 0 1 -1 1\n", 2),
        ("psp 2 1\ne 0 1 1 banana\n", 2),
        ("psp 2 1\ne 0 1 1e1001 1\n", 2),
        ("psp 2 1\ne 0 1 1 1." + "0" * (MAX_NUMBER_CHARS - 1) + "\n", 2),
        ("psp 2 1\ne 0 1 1 1\ne 1 0 1 1\n", 3),
        # A repeated bad or non-positive token is reported where first used.
        ("psp 3 3\ne 0 1 1 2\ne 1 2 2 1/0\ne 0 2 1/0 1\n", 3),
        ("psp 3 3\ne 0 1 1 2\ne 1 2 2 -1\ne 0 2 -1 1\n", 3),
        (f"psp {MAX_VERTICES + 1} 0\n", 1),
    ],
)
def test_parse_errors_carry_line_numbers(text, line_no):
    with pytest.raises(GraphFormatError) as exc_info:
        parse_graph(text)
    assert exc_info.value.line == line_no


def test_vertex_cap_itself_parses():
    # Parsing allocates nothing per vertex; a search would.
    assert parse_graph(f"psp {MAX_VERTICES} 0\n").vertex_count == MAX_VERTICES


def test_missing_header_and_missing_edges_rejected():
    with pytest.raises(GraphFormatError):
        parse_graph("# nothing here\n")
    with pytest.raises(GraphFormatError, match="declares 2"):
        parse_graph("psp 2 2\ne 0 1 1 1\n")


def test_overstated_edge_count_is_a_count_error():
    # Scaled by the declared count, the one weight's denominator would
    # pass the scale cap; the file holds one edge, so the count is wrong.
    with pytest.raises(GraphFormatError) as info:
        parse_graph("psp 2 100000000\ne 0 1 0.5 1\n")
    assert str(info.value) == "header declares 100000000 edges, file has 1"


def test_comments_and_blank_lines_ignored():
    text = "\n# lead\n\npsp 2 1\n# middle\ne 0 1 1 2\n\n# end\n"
    graph = parse_graph(text)
    assert len(graph.edges) == 1


def file_fields(index):
    """What an envelope file keeps of each segment: interval, line and walk."""
    return [(seg.lo, seg.hi, seg.line, seg.vertices) for seg in index.segments]


def test_envelope_document_roundtrip(diamond):
    index = build_index(diamond, 0, 3)
    doc = document_from_index(index, diamond)
    text = format_envelope(doc)
    loaded = parse_envelope(text)
    assert (loaded.source, loaded.target) == (doc.source, doc.target)
    assert file_fields(loaded) == file_fields(doc)
    assert all(seg.path is None for seg in loaded.segments)
    # Serialization is deterministic byte for byte.
    assert format_envelope(loaded) == text


def test_writing_a_built_index_names_document_from_index(diamond, tmp_path):
    index = build_index(diamond, 0, 3)
    out = tmp_path / "diamond.env"
    for write in (format_envelope, lambda index: write_envelope(index, out)):
        with pytest.raises(ValueError, match=r"^[^\n]*document_from_index[^\n]*$"):
            write(index)
    assert not out.exists()


def test_documenting_a_loaded_index_names_the_missing_paths():
    # A loaded index already holds its walks, and its segments have no
    # edge path to gather them from: one ValueError says so.
    graph = chain_graph(2)
    built = build_index(graph, *chain_endpoints(2))
    loaded = parse_envelope(format_envelope(document_from_index(built, graph)))
    with pytest.raises(ValueError, match=r"^segments carry no edge path; [^\n]*walks$"):
        document_from_index(loaded, graph)


def roundtrip_cases():
    cases = [(chain_graph(b), *chain_endpoints(b)) for b in range(1, 9)]
    rng = random.Random(13)
    cases += [own.random_instance(rng) for _ in range(30)]
    cases += [own.random_instance(rng, max_weight=3, weight_scale=1) for _ in range(30)]
    return cases


def test_loaded_index_matches_built_one():
    for graph, source, target in roundtrip_cases():
        index = build_index(graph, source, target)
        doc = document_from_index(index, graph)
        assert [seg.path for seg in doc.segments] == [s.path for s in index.segments]
        assert [seg.vertices for seg in doc.segments] == [
            path_vertices(graph, seg.path, source) for seg in index.segments
        ]
        loaded = parse_envelope(format_envelope(doc))
        assert (loaded.source, loaded.target) == (source, target)
        assert file_fields(loaded) == file_fields(doc)
        assert all(seg.path is None for seg in loaded.segments)
        mids = [(seg.lo + seg.hi) / 2 for seg in index.segments]
        for lam in [F(0), F(1), *breakpoints(index), *mids]:
            built, read = query(index, lam), query(loaded, lam)
            assert read.path is None
            assert (read.segment_index, read.cost, read.line, read.comparisons) == (
                built.segment_index, built.cost, built.line, built.comparisons
            )


def test_envelope_rationals_are_ratio_strings(diamond):
    index = build_index(diamond, 0, 3)
    text = format_envelope(document_from_index(index, diamond))
    assert '"lo": "0/1"' in text
    assert '"hi": "1/2"' in text
    assert format_fraction(F(3, 2)) == "3/2"


@pytest.mark.parametrize(
    "mutate",
    [
        lambda text: text.replace('"format": 1', '"format": 2'),
        lambda text: text.replace('"k": 2', '"k": 5'),
        lambda text: text.replace('"1/2"', '"1/0"'),
        lambda text: text.replace('"lo": "1/2"', '"lo": "2/3"'),
        lambda text: text[:-20],
        lambda text: "[]",
        lambda text: text.replace('"1/2"', '"5e-1001"'),
        lambda text: text.replace('"1/2"', '"0.' + "0" * (MAX_NUMBER_CHARS - 2) + '5"'),
        lambda text: text.replace('"source": 0', '"source": ' + "1" * 5000),
        # json.loads recurses once per nesting level.
        lambda text: "[" * 100_000 + "]" * 100_000,
    ],
)
def test_malformed_envelopes_rejected(diamond, mutate):
    index = build_index(diamond, 0, 3)
    text = format_envelope(document_from_index(index, diamond))
    with pytest.raises(EnvelopeFormatError):
        parse_envelope(mutate(text))


def test_empty_path_document_uses_single_vertex(single_edge):
    index = build_index(single_edge, 1, 1)
    doc = document_from_index(index, single_edge)
    assert doc.segments[0].vertices == (1,)


def file_index(source, target, *rows):
    """An index as a file holds it, from ``(lo, hi, c0, c1, vertices)`` rows."""
    return ShortestPathIndex(source, target, tuple(
        EnvelopeSegment(lo, hi, None, CostLine(c0, c1), vertices)
        for lo, hi, c0, c1, vertices in rows
    ))


def test_segment_record_cost():
    doc = file_index(0, 1, (F(0), F(1), F(1), F(3), (0, 1)))
    record = doc.segments[0]
    assert (record.c0, record.c1) == (F(1), F(3))
    assert record.line.value(F(1, 4)) == F(3, 2)
    assert breakpoints(doc) == ()


@pytest.mark.parametrize("name", sorted(own.TAMPERED_ENVELOPES))
def test_tampered_envelopes_rejected(name):
    text = own.TAMPERED_ENVELOPES[name]
    outcome = envelope_outcome(parse_envelope, text)
    assert outcome[0] is EnvelopeFormatError
    assert outcome == envelope_outcome(reference_parse_envelope, text)


def test_untampered_base_document_loads():
    doc = parse_envelope(json.dumps(own.DIAMOND_ENVELOPE))
    assert (doc.source, doc.target) == (0, 3)
    assert [seg.vertices for seg in doc.segments] == [(0, 1, 3), (0, 2, 3)]


def test_undecodable_files_are_format_errors(tmp_path):
    binary = tmp_path / "binary"
    binary.write_bytes(b"psp 2 1\ne 0 1 1 \xff\n")
    with pytest.raises(GraphFormatError, match="not text"):
        read_graph(binary)
    with pytest.raises(EnvelopeFormatError, match="not text"):
        read_envelope(binary)


@pytest.mark.parametrize("kind", [str, Path])
def test_files_are_named_by_str_or_path(kind, diamond, tmp_path):
    graph_file, env_file = kind(tmp_path / "d.psp"), kind(tmp_path / "d.env")
    write_graph(diamond, graph_file)
    assert read_graph(graph_file) == diamond
    document = document_from_index(build_index(diamond, 0, 3), diamond)
    write_envelope(document, env_file)
    assert format_envelope(read_envelope(env_file)) == format_envelope(document)


def _file_calls(diamond):
    document = document_from_index(build_index(diamond, 0, 3), diamond)
    return {
        "read_graph": read_graph,
        "read_envelope": read_envelope,
        "write_graph": lambda path: write_graph(diamond, path),
        "write_envelope": lambda path: write_envelope(document, path),
    }


@pytest.mark.parametrize("name", [b"d.psp", 0, 1, 7])
def test_bytes_and_int_names_are_refused_as_pathlib_refuses_them(name, diamond):
    with pytest.raises(TypeError) as refusal:
        Path(name)
    for call in _file_calls(diamond).values():
        with pytest.raises(type(refusal.value)) as info:
            call(name)
        assert str(info.value) == str(refusal.value)


def test_an_int_is_never_a_file_descriptor(diamond, tmp_path):
    graph_file = tmp_path / "d.psp"
    write_graph(diamond, graph_file)
    before = graph_file.read_bytes()
    fd = os.open(graph_file, os.O_RDWR)
    try:
        for name, call in _file_calls(diamond).items():
            with pytest.raises(TypeError):
                call(fd)
            assert os.lseek(fd, 0, os.SEEK_CUR) == 0, name  # nothing read
        os.fstat(fd)  # still open
    finally:
        os.close(fd)
    assert graph_file.read_bytes() == before


def reference_parse_graph(text: str) -> DualWeightGraph:
    """A valid graph file read token by token with ``Fraction(str)``."""
    rows = [
        line.split()
        for line in text.splitlines()
        if line.strip() and not line.lstrip().startswith("#")
    ]
    (_psp, vertices, _count), *edges = rows
    return DualWeightGraph.build(
        int(vertices),
        tuple(Edge(int(t), int(h), F(w0), F(w1)) for _e, t, h, w0, w1 in edges),
    )


# The line-by-line reader ``parse_graph`` replaced, kept verbatim as the
# reference for its error contract: a file whose faults lie on one line
# must be refused with this reader's class, message and line.
def _parse_weight(token: str, line_no: int, parsed: dict[str, Fraction]) -> Fraction:
    """``token``'s value, parsed on its first use and then taken from ``parsed``."""
    value = parsed.get(token)
    if value is None:
        try:
            value = parsed[token] = parse_rational(token)
        except (ValueError, ZeroDivisionError) as exc:
            raise GraphFormatError(
                f"bad weight {token!r:.40}: {exc!s:.150}", line_no
            ) from None
    return value


def _parse_int(token: str, line_no: int, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise GraphFormatError(f"bad {what} {token!r:.40}", line_no) from None


def _parse_lines(text: str) -> DualWeightGraph:
    """Read graph-file text line by line, raising at the first fault.

    Reads straight into the graph's int columns.  Each distinct weight
    token is parsed, checked and scaled once, and the common denominator
    grows as new tokens come in, so :func:`check_scale` refuses it while
    the file is read.  It counts the edges the header declares, but no
    more than the lines left can hold, so a header that overstates its
    edge count meets the count check instead.
    """
    vertex_count: int | None = None
    edge_count, most, den = 0, 0, 1
    rows: list[tuple[int, int, str, str]] = []
    weights: dict[str, Fraction] = {}
    lines = text.splitlines()
    for line_no, raw in enumerate(lines, start=1):
        fields = raw.split()
        if not fields or fields[0][0] == "#":
            continue
        if vertex_count is None:
            if fields[0] != "psp" or len(fields) != 3:
                raise GraphFormatError(
                    "expected header 'psp <vertices> <edges>'", line_no
                )
            vertex_count = _parse_int(fields[1], line_no, "vertex count")
            edge_count = _parse_int(fields[2], line_no, "edge count")
            if not 1 <= vertex_count <= MAX_VERTICES or edge_count < 0:
                raise GraphFormatError(
                    f"header counts out of range (vertices 1..{MAX_VERTICES})", line_no
                )
            most = min(edge_count, len(lines) - line_no)
            continue
        if fields[0] != "e" or len(fields) != 5:
            raise GraphFormatError("expected 'e <tail> <head> <w0> <w1>'", line_no)
        if len(rows) >= edge_count:
            raise GraphFormatError("more edge lines than the header declares", line_no)
        _e, t, h, t0, t1 = fields
        try:
            tail, head = int(t), int(h)
        except ValueError:
            tail, head = _parse_int(t, line_no, "tail"), _parse_int(h, line_no, "head")
        w0, w1 = weights.get(t0), weights.get(t1)
        fresh = w0 is None or w1 is None
        if fresh:
            w0, w1 = (_parse_weight(token, line_no, weights) for token in (t0, t1))
        if not (0 <= tail < vertex_count and 0 <= head < vertex_count):
            raise GraphFormatError(f"vertex id outside 0..{vertex_count - 1}", line_no)
        if fresh:  # only a token's first line can fail these; failing ends the parse
            if w0.numerator <= 0 or w1.numerator <= 0:
                raise GraphFormatError("weights must be strictly positive", line_no)
            den = check_scale(lcm(den, w0.denominator, w1.denominator), most)
        rows.append((tail, head, t0, t1))
    if vertex_count is None:
        raise GraphFormatError("missing 'psp' header line")
    if len(rows) != edge_count:
        raise GraphFormatError(
            f"header declares {show_number(edge_count)} edges, file has {len(rows)}"
        )
    tails, heads, *tokens = zip(*rows) if rows else ((),) * 4
    scaled = {t: w.numerator * (den // w.denominator) for t, w in weights.items()}
    w0, w1 = (tuple(map(scaled.__getitem__, ts)) for ts in tokens)
    del rows, weights, tokens, scaled  # not held while the adjacency is built
    return DualWeightGraph(vertex_count, den, tails, heads, w0, w1)


def json_reference_envelope(doc: ShortestPathIndex) -> str:
    """The envelope layout as ``json.dumps`` writes it; ``format_envelope``
    must produce the same bytes."""
    payload = {
        "format": 1,
        "source": doc.source,
        "target": doc.target,
        "k": doc.k,
        "segments": [
            {
                "lo": format_fraction(seg.lo),
                "hi": format_fraction(seg.hi),
                "c0": format_fraction(seg.c0),
                "c1": format_fraction(seg.c1),
                "vertices": list(seg.vertices),
            }
            for seg in doc.segments
        ],
    }
    return json.dumps(payload, indent=2) + "\n"


def test_parse_graph_matches_token_reference(bench_instances):
    texts = [
        format_graph(random_graph(n, m, weight_max=wmax, seed=seed), ["gen random"])
        for seed, (n, m, wmax) in enumerate(
            [(2, 1, 10), (8, 30, 10), (30, 200, 3), (60, 400, 100), (100, 900, 1)]
        )
    ]
    texts += [bench_instances.format_psp(bench_instances.grid_instance(1))]
    for text in texts:
        assert parse_graph(text) == reference_parse_graph(text)


def test_ratio_weights_not_in_lowest_terms_are_reduced_and_shared():
    text = "psp 3 2\ne 0 1 2/4 6/8\ne 1 2 2/4 0.50\n"
    graph = parse_graph(text)
    assert graph == reference_parse_graph(text)
    first, second = graph.edges
    assert (first.w0.numerator, first.w0.denominator) == (1, 2)
    assert second.w0 is first.w0 and second.w1 == first.w0


def parse_outcome(parse, text):
    """The graph and its adjacency, or the refusal's class, message and line."""
    try:
        graph = parse(text)
    except (GraphFormatError, WeightScaleError) as exc:
        return type(exc), str(exc), getattr(exc, "line", None)
    return graph, graph.adjacency


# Every separator ``str.splitlines`` splits at.
LINE_BREAKS = ["\n", "\r\n", "\r", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85",
               "\u2028", "\u2029"]
odd_tokens = st.sampled_from(
    ["1e2", "+3", "3_0", "-1", "0", "1/0", "2/4", "0.50", "1e1001", "abc", "",
     "#", "#1", "e", "psp", "7", "٣", "1\u00a0", "9" * 5000]
)
odd_lines = st.sampled_from(["", "  ", "\t", "# c", "#", "  # c", "#e 0 1 1 1"])


@st.composite
def graph_file_texts(draw, max_edits=3):
    """``format_graph`` text of a graph, then up to ``max_edits`` edits to it."""
    comments = draw(st.lists(st.sampled_from(["gen random", "", "x"]), max_size=2))
    lines = format_graph(draw(own.graphs()), comments).splitlines()
    for _ in range(draw(st.integers(0, max_edits))):
        i = draw(st.integers(0, max(len(lines) - 1, 0)))
        edit = draw(st.sampled_from(["token", "weight", "repeat", "drop", "insert"]))
        if edit == "insert" or not lines:
            lines.insert(draw(st.integers(0, len(lines))), draw(odd_lines))
        elif edit == "repeat":
            lines.insert(i, lines[i])
        elif edit == "drop":
            del lines[i]
        elif fields := lines[i].split():
            # A weight edit lands on a weight field, if the line has one.
            j = draw(st.integers(3 if edit == "weight" else 0, 4))
            fields[min(j, len(fields) - 1)] = draw(odd_tokens)
            lines[i] = " ".join(fields)
    brk = draw(st.sampled_from(LINE_BREAKS))
    return brk.join(lines) + draw(st.sampled_from(["", brk]))


@given(graph_file_texts(max_edits=1))
@example("psp 2 1\r\ne 0 1 1e2 +3\r\n")
@example("\n# lead\npsp 2 1\n\ne 0 1 3_0 1\n")
@example("psp 2 1\u2028e 0 1 1 1\u2029")
@example("psp 2 1\nx 0 1 1 1\n")
@example("psp 2 1\n#e 0 1 1 1\n")
@example("psp 2 2\ne 0 1 1 1\ne 0 1 1 1 1\n")
@example("psp 2 1\ne -1 1 1 1\n")
@example("psp 2 1\ne 2 1 1 1\n")
@example("psp 2 1\ne 0 2 1 1\n")
@example("psp 2 1\ne 0 -1 1 1\n")
@example("psq 2 1\ne 0 1 1 1\n")
@example(f"psp {MAX_VERTICES + 1} 1\ne 0 1 1 1\n")
@example("psp 2 1\ne 0 1 1/0 1\n")
@settings(max_examples=300, deadline=None)
def test_column_reader_agrees_with_line_reader(text):
    assert parse_outcome(parse_graph, text) == parse_outcome(_parse_lines, text)


@given(graph_file_texts())
@settings(max_examples=300, deadline=None)
def test_edited_files_keep_the_line_readers_outcome_class(text):
    ours, theirs = (parse_outcome(parse, text) for parse in (parse_graph, _parse_lines))
    if isinstance(theirs[0], DualWeightGraph):
        assert ours == theirs
    else:
        assert ours[0] is theirs[0]


def capped_text(line):
    """A file of 10,000 edge lines whose line 2, ``line``, alone takes the
    weights' common denominator past the scale cap."""
    return f"psp 3 10000\n{line}\n" + "e 0 1 1 1\n" * 9999


@pytest.mark.parametrize(
    "line",
    [
        f"e 0 1 1/{2**13500} 1",
        # Both weights are new, so the cap is named at their common denominator.
        f"e 0 1 1/{2**13500} 1/{3**8000}",
        # The line's own faults come before the cap, as the line reader has them.
        f"e 0 5 1/{2**13500} 1",
        f"e 0 1 -1/{2**13500} 1",
        f"e 0 1 1/{2**13500} x",
    ],
    ids=["cap", "cap-two-new-weights", "cap-and-range", "cap-and-sign", "cap-and-bad-weight"],
)
def test_cap_on_one_line_is_refused_as_the_line_reader_refuses_it(line):
    text = capped_text(line)
    assert parse_outcome(parse_graph, text) == parse_outcome(_parse_lines, text)


@pytest.mark.parametrize(
    "text, message, line",
    [
        # Surplus edge lines are found before a bad endpoint on an earlier
        # line; the line reader named line 2, "bad tail".
        ("psp 2 1\ne 1e2 0 0.01 0.01\ne 0 0 0.01 0.01",
         "more edge lines than the header declares", 3),
        # A bad endpoint on a later line before a bad weight on an earlier one.
        ("psp 2 2\ne 0 1 x 1\ne 0 y 1 1\n", "bad head 'y'", 3),
        # A bad weight on a later line before an endpoint out of range.
        ("psp 2 2\ne 0 5 1 1\ne 0 1 1 x\n", "bad weight 'x'", 3),
        # The shortfall before an endpoint out of range.
        ("psp 2 3\ne 0 5 1 1\n", "header declares 3 edges, file has 1", None),
    ],
)
def test_multi_fault_files_follow_the_documented_order(text, message, line):
    with pytest.raises(GraphFormatError) as info:
        parse_graph(text)
    assert info.value.line == line and message in str(info.value)


ratios = st.builds(
    F,
    st.one_of(
        st.integers(min_value=-(10**6), max_value=10**6),
        st.integers(min_value=10**4298, max_value=10**4301),
    ),
    st.one_of(
        st.integers(min_value=1, max_value=10**6),
        st.integers(min_value=10**4298, max_value=10**4301),
    ),
)
vertex_ids = st.integers(min_value=0, max_value=10**6)
documents = st.builds(
    ShortestPathIndex,
    vertex_ids,
    vertex_ids,
    st.lists(
        st.builds(
            EnvelopeSegment,
            ratios,
            ratios,
            st.none(),
            st.builds(CostLine, ratios, ratios),
            st.lists(vertex_ids, max_size=5).map(tuple),
        ),
        max_size=4,
    ).map(tuple),
)


@given(documents)
@example(file_index(2, 2, (F(0), F(1), F(0), F(0), (2,))))
@example(file_index(0, 1, (F(0), F(1), F(1), F(3), ())))
@example(file_index(0, 1))
@example(file_index(0, 1, (F(0), F(1), F(10**4299), F(1), (0, 1))))
@settings(max_examples=150, deadline=None)
def test_format_envelope_matches_json_reference(doc):
    try:
        expected = json_reference_envelope(doc)
    except NumberSizeError:
        with pytest.raises(NumberSizeError):
            format_envelope(doc)
    else:
        assert format_envelope(doc) == expected


def test_format_envelope_refuses_numbers_past_the_digit_limit():
    # Not a Hypothesis example: Hypothesis prints examples, and such a
    # Fraction has no repr.
    doc = file_index(0, 1, (F(0), F(1), F(10**4300), F(1), (0, 1)))
    for writer in (json_reference_envelope, format_envelope):
        with pytest.raises(NumberSizeError):
            writer(doc)


def test_built_envelopes_match_json_reference(bench_instances):
    cases = [(chain_graph(b), *chain_endpoints(b)) for b in range(1, 64)]
    for seed in range(1, 11):
        inst = bench_instances.grid_instance(seed)
        graph = DualWeightGraph.build(inst.vertex_count, inst.rows)
        cases.append((graph, inst.source, inst.target))
    for graph, source, target in cases:
        doc = document_from_index(build_index(graph, source, target), graph)
        assert format_envelope(doc) == json_reference_envelope(doc)


def test_walk_strings_are_sized_by_the_ids_in_the_walks():
    # A string table indexed by vertex id would hold a million entries here.
    top = MAX_VERTICES - 1
    doc = file_index(0, top, (F(0), F(1), F(1), F(3), (0, top - 7, top)))
    expected = json_reference_envelope(doc)
    tracemalloc.start()
    try:
        text = format_envelope(doc)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert text == expected
    assert peak < 16 * 1024, peak


# -- the envelope reader before it parsed each breakpoint once -----------
# Kept as the reference the reader must agree with: verbatim but for the
# refusals that once carried Python's own text (a JSON syntax error, an int
# past the digit limit, a value of the wrong JSON type), which it words as
# the reader does.


def _reference_json_int(value: object, what: str) -> int:
    if type(value) is not int or value < 0:
        raise EnvelopeFormatError(f"{what} must be an integer >= 0, got {value!r:.40}")
    return value


def _reference_json_ints(values: list) -> tuple[int, ...]:
    if type(values) is not list or not set(map(type, values)) <= {int}:
        raise EnvelopeFormatError(
            f"vertices must be a list of integers, got {values!r:.40}"
        )
    return tuple(values)


_REFERENCE_CANONICAL = re.compile(r"(0|[1-9][0-9]*)/([1-9][0-9]*)")


def _reference_parse_canonical(text: str) -> tuple[int, int]:
    match = (type(text) is str and len(text) <= MAX_NUMBER_CHARS
             and _REFERENCE_CANONICAL.fullmatch(text))
    if not match:
        raise ValueError(f"not a canonical p/q: {text!r:.40}")
    try:
        p, q = int(match[1]), int(match[2])
    except ValueError:  # past Python's int digit limit
        raise ValueError(f"not a canonical p/q: {text!r:.40}") from None
    if math.gcd(p, q) != 1:
        raise ValueError(f"{text!r:.40} is not in lowest terms")
    return p, q


def _reference_parse_segment(seg: dict) -> EnvelopeSegment:
    lo, hi = (Fraction(*_reference_parse_canonical(seg[key])) for key in ("lo", "hi"))
    (a, b), (c, d) = (_reference_parse_canonical(seg[key]) for key in ("c0", "c1"))
    line = CostLine.from_scaled(a * d, c * b - a * d, b * d)
    return EnvelopeSegment(lo, hi, None, line, _reference_json_ints(seg["vertices"]))


def reference_parse_envelope(text: str) -> ShortestPathIndex:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError:
        raise EnvelopeFormatError("not valid JSON") from None
    except ValueError:  # an int past Python's digit limit
        raise EnvelopeFormatError(
            f"document holds an integer over {sys.get_int_max_str_digits()} digits"
        ) from None
    except RecursionError:
        raise EnvelopeFormatError("not valid JSON: nested too deeply") from None
    if type(payload) is not dict:
        raise EnvelopeFormatError(f"document must be an object, got {payload!r:.40}")
    try:
        version = _reference_json_int(payload["format"], "format")
        if version != 1:
            shown = show_number(version)
            raise EnvelopeFormatError(f"unsupported format version {shown}")
        source = _reference_json_int(payload["source"], "source")
        target = _reference_json_int(payload["target"], "target")
        declared_k = _reference_json_int(payload["k"], "k")
        records = payload["segments"]
        if type(records) is not list or not set(map(type, records)) <= {dict}:
            raise EnvelopeFormatError(
                f"segments must be a list of objects, got {records!r:.40}"
            )
        segments = tuple(map(_reference_parse_segment, records))
    except (KeyError, TypeError, ValueError) as exc:
        raise EnvelopeFormatError(f"malformed envelope document: {exc}") from None
    index = ShortestPathIndex(source, target, segments)
    if declared_k != len(segments):
        raise EnvelopeFormatError(
            f"document declares k={show_number(declared_k)} "
            f"but holds {len(segments)} segments"
        )
    for i, seg in enumerate(segments):
        walk = seg.vertices
        simple = min(walk, default=-1) >= 0 and len(set(walk)) == len(walk)
        if not simple or (walk[0], walk[-1]) != (source, target):
            ends = " to ".join(map(show_number, (source, target)))
            raise EnvelopeFormatError(
                f"segment {i}: walk is not a simple path from {ends}"
            )
    try:
        check_index_invariants(index)
    except ValueError as exc:
        raise EnvelopeFormatError(str(exc)) from None
    return index


def envelope_outcome(parse, text):
    """The index and its query columns, or the refusal's class and message."""
    try:
        index = parse(text)
    except Exception as exc:
        return type(exc), str(exc)
    return index, index.query_columns


def chain_envelope(blocks: int) -> str:
    graph = chain_graph(blocks)
    index = build_index(graph, *chain_endpoints(blocks))
    return format_envelope(document_from_index(index, graph))


def test_chain_envelopes_load_as_the_reference_loads_them():
    for blocks in range(1, 64):
        text = chain_envelope(blocks)
        outcome = envelope_outcome(parse_envelope, text)
        assert outcome == envelope_outcome(reference_parse_envelope, text)
        segments = outcome[0].segments
        # Each breakpoint is parsed once: a segment starts at the Fraction
        # the one before it ends at.
        assert all(b.lo is a.hi for a, b in zip(segments, segments[1:]))


ENVELOPE_BASES = [json.dumps(own.DIAMOND_ENVELOPE), chain_envelope(3)]
# Tokens that are near the writer's spelling: digits that are not ASCII
# (``int()`` reads "\u0661" as 1 and refuses "\u00b2"), signs, spaces, stray
# slashes, zeros, and a length one past the cap.
ODD_SPELLINGS = [
    "\u0661/\u0662", "\u00b2/3", "\uff11/\uff12", "+1/2", " 1/2", "1 /2", "1//2", "/2",
    "1/", "00/1", "0/0", "1/" + "1" * (MAX_NUMBER_CHARS - 1),
]
EDIT_CHARS = '{}[]":,0123456789/ -.\nlohicvertsk'


@st.composite
def character_edits(draw):
    """A base envelope text with one to four characters inserted, deleted or
    replaced, some of them at a digit or slash."""
    text = draw(st.sampled_from(ENVELOPE_BASES))
    for _ in range(draw(st.integers(1, 4))):
        digits = [i for i, ch in enumerate(text) if ch in "0123456789/"]
        anywhere = st.integers(0, len(text))
        at = draw(st.sampled_from(digits) | anywhere if digits else anywhere)
        new = draw(st.sampled_from(["", *EDIT_CHARS]))
        cut = draw(st.integers(0, 1)) if at < len(text) else 0
        text = text[:at] + new + text[at + cut:]
    return text


@st.composite
def field_edits(draw):
    """A base envelope with one to three fields replaced, removed or
    duplicated, drawing values from the document's own numbers too, so a
    ``lo`` can be spelled as some other segment's ``hi``."""
    payload = json.loads(draw(st.sampled_from(ENVELOPE_BASES)))
    segments = payload["segments"]
    numbers = sorted({seg[key] for seg in segments for key in ("lo", "hi", "c0", "c1")})
    values = st.one_of(
        st.sampled_from(numbers),
        st.sampled_from(["0/2", "2/4", "1/0", "01/2", "1/2 ", "x", "", *ODD_SPELLINGS]),
        st.integers(-2, 9),
        st.none(),
        st.lists(st.integers(0, 9), max_size=4),
    )
    for _ in range(draw(st.integers(1, 3))):
        action = draw(st.sampled_from(["set", "set", "digit", "delete", "segments"]))
        target = draw(st.sampled_from([payload, *segments, *segments]))
        key = draw(st.sampled_from(sorted(target) or ["lo"]))
        if action == "set":
            target[key] = draw(values)
        elif action == "digit" and isinstance(target.get(key), str) and target[key]:
            at = draw(st.integers(0, len(target[key]) - 1))
            new = draw(st.sampled_from("0123456789/"))
            target[key] = target[key][:at] + new + target[key][at + 1:]
        elif action == "delete":
            target.pop(key, None)
        elif segments:
            i = draw(st.integers(0, len(segments) - 1))
            edit = draw(st.sampled_from(["drop", "copy", "swap"]))
            if edit == "drop":
                del segments[i]
            elif edit == "copy":
                segments.insert(i, copy.deepcopy(segments[i]))
            else:
                j = draw(st.integers(0, len(segments) - 1))
                segments[i], segments[j] = segments[j], segments[i]
    return json.dumps(payload)


def test_breakpoint_not_in_lowest_terms_is_refused():
    text = ENVELOPE_BASES[0].replace('"hi": "1/2"', '"hi": "2/4"', 1)
    assert text != ENVELOPE_BASES[0]
    with pytest.raises(EnvelopeFormatError) as caught:
        parse_envelope(text)
    assert str(caught.value) == "malformed envelope document: '2/4' is not in lowest terms"


@given(st.one_of(character_edits(), field_edits()))
@settings(max_examples=400, deadline=None)
@example(ENVELOPE_BASES[1].replace('"hi": "1/2"', '"hi": "2/4"', 1))
@example(own._tampered(seg0_hi="\u0661/\u0662"))
@example(own._tampered(seg0_c1="\u00b2/3"))
@example(own._tampered(seg1_lo="\uff11/\uff12"))
@example(own._tampered(seg0_c0="+1/2"))
@example(own._tampered(seg0_hi=" 1/2"))
@example(own._tampered(seg1_c1="1 /2"))
@example(own._tampered(seg1_hi="1//2"))
@example(own._tampered(seg0_c0="/2"))
@example(own._tampered(seg0_c1="1/"))
@example(own._tampered(seg0_lo="00/1"))
@example(own._tampered(seg0_lo="0/0"))
@example(own._tampered(seg1_c0="1/" + "1" * (MAX_NUMBER_CHARS - 1)))
def test_edited_envelopes_load_as_the_reference_loads_them(text):
    assert envelope_outcome(parse_envelope, text) == envelope_outcome(
        reference_parse_envelope, text
    )
