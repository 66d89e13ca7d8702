import copy
import dataclasses
import math
import pickle
import random
import re
import sys
from decimal import Decimal
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import strategies as own
from reference import cost_line_loop, interpolate_weight
from parapath import (
    CostLine,
    DualWeightGraph,
    Edge,
    GraphStructureError,
    LambdaRangeError,
    MAX_SLOPE,
    MIN_SLOPE,
    MalformedPathError,
    Path,
    WeightDomainError,
    WeightScaleError,
    as_rational,
    build_index,
    build_index_detailed,
    chain_graph,
    cost_line,
    dijkstra_extreme_slope,
    enumerate_paths,
    path_vertices,
    shortest_path_length,
    validate_graph,
)
from parapath.graphio import parse_graph
from parapath.model import (
    MAX_DECIMAL_EXPONENT,
    MAX_NUMBER_CHARS,
    MAX_SCALED_WEIGHT_BITS,
    parse_rational,
    validate_lambda,
    validate_pair,
)


def hostile_star(routes: int = 4000) -> DualWeightGraph:
    """Routes 0 -> m -> 1 whose weights 1/(10**12 + i) share no denominator.

    The common denominator grows by some 40 bits per route, so scaling all
    the weights by it would take memory quadratic in the edge count.
    """
    rows = []
    for i in range(routes):
        w = F(1, 10**12 + i)
        rows += [(0, i + 2, w, w), (i + 2, 1, w, w)]
    return DualWeightGraph.build(routes + 2, rows)


class TestRationalConversion:
    def test_decimal_strings_are_exact(self):
        assert as_rational("0.25") == F(1, 4)
        assert as_rational("3.5") == F(7, 2)
        assert as_rational("1") == F(1)

    def test_ratio_strings(self):
        assert as_rational("1/3") == F(1, 3)

    def test_floats_rejected(self):
        with pytest.raises(TypeError):
            as_rational(0.1)

    def test_length_cap(self):
        # Fraction allows padding around a token, so these differ only in length.
        assert parse_rational(" " * (MAX_NUMBER_CHARS - 1) + "1") == F(1)
        with pytest.raises(ValueError, match="longer than"):
            parse_rational(" " * MAX_NUMBER_CHARS + "1")

    def test_exponent_cap(self):
        cap = MAX_DECIMAL_EXPONENT
        assert parse_rational(f"1e-{cap}") == F(1, 10**cap)
        assert as_rational(f"2E{cap}") == 2 * 10**cap
        # Each of these is refused before any power of ten is built.
        for text in (f"1e{cap + 1}", f"1E-{cap + 1}", "1e1000000"):
            with pytest.raises(ValueError, match="exponent"):
                as_rational(text)


@pytest.mark.parametrize("text", ["True", "one", "2e5x", "e", "1e", "1e+"])
def test_letter_e_outside_an_exponent_reads_as_fraction_does(text):
    # The exponent cap once ran int() on whatever followed the first "e".
    with pytest.raises(ValueError, match="^Invalid literal for Fraction"):
        parse_rational(text)


def test_exponent_past_the_digit_limit_is_refused():
    with pytest.raises(ValueError, match="digits"):
        parse_rational("1e" + "9" * 4301)


def reference_parse_rational(text: str) -> F:
    """``parse_rational`` without its int fast path: the caps, then ``Fraction``
    on Python 3.10's grammar, which has no ``_``, no inner whitespace and no
    letter ``d`` after the point (3.11 and 3.12 take ``d*`` for ``\\d*`` there),
    and a number past the int digit limit refused in ``parse_rational``'s words."""
    if len(text) > MAX_NUMBER_CHARS:
        raise ValueError(f"number longer than {MAX_NUMBER_CHARS} characters")
    _mantissa, marker, exponent = text.lower().partition("e")
    if marker:
        try:
            exp = int(exponent)
        except ValueError:  # no exponent: Fraction refuses the token
            exp = 0
        if abs(exp) > MAX_DECIMAL_EXPONENT:
            raise ValueError(f"decimal exponent beyond {MAX_DECIMAL_EXPONENT}")
    if re.search(r"_|\S\s+\S|\.d", text, re.IGNORECASE):
        raise ValueError(f"Invalid literal for Fraction: {text!r}")
    try:
        return F(text)
    except ValueError as exc:  # the digit limit's text differs from 3.10 to 3.11
        if not str(exc).startswith("Exceeds the limit"):
            raise
        raise ValueError(f"number over {sys.get_int_max_str_digits()} digits") from None


def parse_outcome(parse, text: str):
    """The value ``parse`` returns, or the class and message of what it raises."""
    try:
        return parse(text)
    except (ValueError, ZeroDivisionError) as exc:
        return type(exc), str(exc)


@given(st.text(alphabet="0123456789./+-_eEdD \u0661", max_size=12))
@settings(max_examples=400, deadline=None)
@example("1.d")
@example("1.dd")
@example("1/0")
@example("0/0")
@example("5.")
@example(".5")
@example(".")
@example("/")
@example("1e5")
def test_parse_rational_matches_fraction_reference(text):
    assert parse_outcome(parse_rational, text) == parse_outcome(
        reference_parse_rational, text
    )


@pytest.mark.parametrize(
    "text, expected",
    [
        ("007/010", F(7, 10)),
        ("5.", F(5)),
        (".5", F(1, 2)),
        ("0/5", F(0)),
        ("1/0", ZeroDivisionError),
        ("+1", F(1)),
        (" 1", F(1)),
        ("1_0", ValueError),
        ("\u0661", F(1)),
        ("1" * 4301, ValueError),
        ("1." + "0" * 4300, F(1)),
        ("1" * MAX_NUMBER_CHARS, ValueError),
        ("1" * (MAX_NUMBER_CHARS + 1), ValueError),
        (" " * (MAX_NUMBER_CHARS - 3) + "1/3", F(1, 3)),
        (" " * (MAX_NUMBER_CHARS - 2) + "1/3", ValueError),
        ("1_000", ValueError),
        ("1 /2", ValueError),
        ("1/ 2", ValueError),
        ("1e1_0", ValueError),
        (" 1/2 ", F(1, 2)),
        ("1.d", ValueError),
        ("1.dd", ValueError),
    ],
    ids=lambda value: f"{value[:8]!r}x{len(value)}" if isinstance(value, str) else None,
)
def test_parse_rational_edge_spellings(text, expected):
    outcome = parse_outcome(parse_rational, text)
    assert outcome == parse_outcome(reference_parse_rational, text)
    if isinstance(expected, F):
        assert type(outcome) is F and outcome == expected
    else:
        assert outcome[0] is expected


@pytest.mark.parametrize(
    "text", ["1_000", "1 /2", "1/ 2", "1e1_0", "1.d", "1.dd", "1.D"]
)
def test_spellings_outside_python_310s_grammar_get_its_message(text):
    # Later versions read some of these, and 3.11 and 3.12 refuse ``1.d``
    # with ``int()``'s message; every version must give 3.10's.
    with pytest.raises(ValueError) as info:
        parse_rational(text)
    assert str(info.value) == f"Invalid literal for Fraction: {text!r}"


def test_validate_pair():
    graph = DualWeightGraph.build(3, [(0, 1, 1, 1)])
    validate_pair(graph, 0, 2)
    for source, target in ((-1, 0), (0, 3), (3, 0), (0, -3)):
        with pytest.raises(GraphStructureError, match="outside 0..2"):
            validate_pair(graph, source, target)


ENTRY_POINTS = {
    "build_index": lambda g, s, t: build_index(g, s, t),
    "build_index_detailed": lambda g, s, t: build_index_detailed(g, s, t),
    "min-slope search": lambda g, s, t: dijkstra_extreme_slope(g, F(1, 2), s, t, MIN_SLOPE),
    "max-slope search": lambda g, s, t: dijkstra_extreme_slope(g, F(1, 2), s, t, MAX_SLOPE),
    "shortest_path_length": lambda g, s, t: shortest_path_length(g, F(1, 2), s, t),
    "enumerate_paths": lambda g, s, t: enumerate_paths(g, s, t),
    "validate_pair": validate_pair,
}


@pytest.mark.parametrize("entry", ENTRY_POINTS)
@pytest.mark.parametrize("bad, shown", [
    (0.0, "float"), (6.0, "float"), ("0", "str"), (None, "NoneType"), (True, "bool"),
    (F(0), "Fraction"),
])
def test_vertex_ids_that_are_not_ints_are_refused(entry, bad, shown):
    # Unchecked, a float or a str ended in Python's own TypeError or was
    # read as an int (the oracle took target 6.0), and True built from vertex 1.
    graph, call = chain_graph(2), ENTRY_POINTS[entry]
    for role, pair in (("source", (bad, 6)), ("target", (0, bad)), ("source", (bad, bad))):
        with pytest.raises(GraphStructureError) as caught:
            call(graph, *pair)
        assert str(caught.value) == f"{role} vertex is a {shown}, not an int"


def test_search_attributes_are_plain_fields_outside_init_eq_and_repr():
    """``slope_bound``, ``label_shift`` and ``vertex_bits`` are set by the
    constructor, as fields that ``__init__``, ``==``, ``hash`` and ``repr``
    leave out; pickles, copies and ``replace`` keep or recompute them."""
    kept = {"slope_bound", "label_shift", "vertex_bits"}
    flags = {f.name: (f.init, f.repr, f.compare) for f in dataclasses.fields(DualWeightGraph)}
    assert {name for name, on in flags.items() if on != (True, True, True)} == kept
    assert all(flags[name] == (False, False, False) for name in kept)
    graph = chain_graph(3)
    assert kept <= set(vars(graph)) and not {"adjacency", "edges"} & set(vars(graph))
    wmax = max(*graph.w0, *graph.w1)
    assert graph.slope_bound == (graph.vertex_count - 1) * wmax
    assert graph.label_shift == (2 * graph.slope_bound).bit_length()
    assert graph.vertex_bits == graph.vertex_count.bit_length()
    assert repr(graph) == (
        f"DualWeightGraph(vertex_count={graph.vertex_count}, den={graph.den}, "
        f"tails={graph.tails}, heads={graph.heads}, w0={graph.w0}, w1={graph.w1})"
    )
    columns = (graph.vertex_count, graph.den, graph.tails, graph.heads, graph.w0, graph.w1)
    twin = DualWeightGraph(*columns)
    assert twin == graph and hash(twin) == hash(graph)
    graph.adjacency  # a built cache travels with a pickle or a copy, as before
    for other in (pickle.loads(pickle.dumps(graph)), copy.copy(graph),
                  copy.deepcopy(graph), dataclasses.replace(graph)):
        assert other == graph and hash(other) == hash(graph)
        assert [getattr(other, name) for name in sorted(kept)] == [
            getattr(graph, name) for name in sorted(kept)
        ]
        assert build_index(other, 0, 9).segments == build_index(graph, 0, 9).segments
    wider = dataclasses.replace(graph, w0=(100, *graph.w0[1:]))
    assert wider.slope_bound == (graph.vertex_count - 1) * 100


@pytest.mark.parametrize(
    "w0, w1, lam, expected",
    [
        (2, 4, F(0), F(2)),
        (2, 4, F(1, 2), F(3)),
        (1, 3, F(1, 4), F(3, 2)),
    ],
)
def test_interpolate_weight(w0, w1, lam, expected):
    graph = DualWeightGraph.build(2, [(0, 1, w0, w1)])
    assert interpolate_weight(graph, 0, lam) == expected


def test_interpolate_weight_domain_errors():
    graph = DualWeightGraph.build(2, [(0, 1, 1, 1)])
    with pytest.raises(LambdaRangeError):
        interpolate_weight(graph, 0, F(-1, 10))
    with pytest.raises(LambdaRangeError):
        interpolate_weight(graph, 0, F(11, 10))
    with pytest.raises(GraphStructureError):
        interpolate_weight(graph, 1, F(0))


class TestCostLine:
    def test_empty_path(self):
        graph = DualWeightGraph.build(2, [(0, 1, 1, 1)])
        assert cost_line(graph, Path(())) == CostLine(F(0), F(0))

    def test_single_edge(self):
        graph = DualWeightGraph.build(2, [(0, 1, 1, 3)])
        assert cost_line(graph, Path((0,))) == CostLine(F(1), F(3))

    def test_two_edges_sum_componentwise(self):
        graph = DualWeightGraph.build(3, [(0, 1, 1, 3), (1, 2, 2, 2)])
        assert cost_line(graph, Path((0, 1))) == CostLine(F(3), F(5))

    def test_noncontiguous_sequence_rejected(self):
        graph = DualWeightGraph.build(4, [(0, 1, 1, 1), (2, 3, 1, 1)])
        with pytest.raises(MalformedPathError):
            cost_line(graph, Path((0, 1)))

    def test_repeated_vertex_rejected(self):
        graph = DualWeightGraph.build(2, [(0, 1, 1, 1), (1, 0, 1, 1)])
        with pytest.raises(MalformedPathError):
            cost_line(graph, Path((0, 1)))


@pytest.mark.parametrize(
    "line, lam, expected",
    [
        (CostLine(F(1), F(3)), F(0), F(1)),
        (CostLine(F(1), F(3)), F(1, 2), F(2)),
        (CostLine(F(3), F(1)), F(3, 4), F(3, 2)),
    ],
)
def test_eval_cost(line, lam, expected):
    assert line.value(lam) == expected


@pytest.mark.parametrize(
    "lam", [0.5, Decimal("0.5"), "1/2"], ids=lambda lam: type(lam).__name__
)
def test_line_value_refuses_an_inexact_lambda_as_validate_lambda_does(lam):
    line = CostLine(F(1), F(3))
    with pytest.raises(TypeError) as caught:
        line.value(lam)
    with pytest.raises(TypeError) as expected:
        validate_lambda(lam)
    name = type(lam).__name__
    assert str(caught.value) == str(expected.value)
    assert str(caught.value) == f"lambda must be an exact rational, not {name}"
    # A line is defined outside [0, 1]: no range check.
    assert line.value(F(3, 2)) == F(4) and line.value(-1) == F(-1)


class TestValidateGraph:
    def test_positive_weights_accepted(self):
        validate_graph(DualWeightGraph.build(2, [(0, 1, "0.01", "10")]))

    def test_zero_weight_rejected(self):
        with pytest.raises(WeightDomainError, match="edge 0"):
            validate_graph(DualWeightGraph.build(2, [(0, 1, 0, 1)]))

    def test_out_of_range_head_rejected(self):
        with pytest.raises(GraphStructureError):
            validate_graph(DualWeightGraph.build(2, [(0, 2, 1, 1)]))

    def test_hostile_denominators_refused_early(self):
        routes = 4000
        with pytest.raises(WeightScaleError) as info:
            validate_graph(hostile_star(routes))
        # The refusal comes while the denominator is being accumulated, at
        # the cap's size, not after all 8000 weights have been scaled.
        bits = int(info.value.args[0].split(" bits")[0].split()[-1])
        assert bits * 2 * (2 * routes) <= 2 * MAX_SCALED_WEIGHT_BITS
        with pytest.raises(WeightScaleError):
            build_index(hostile_star(routes), 0, 1)


def reference_refusal(vertex_count, edges):
    """What the check over a ``Fraction`` edge list raised, as (class,
    message), or None: the walk the graph's integer view made before the
    view became the graph's own columns."""
    if vertex_count < 1:
        return GraphStructureError, "graph needs at least one vertex"
    den, last = 1, vertex_count - 1
    for eid, edge in enumerate(edges):
        tail, head, w0, w1 = edge.tail, edge.head, edge.w0, edge.w1
        if not (0 <= tail <= last and 0 <= head <= last):
            message = f"edge {eid}: endpoint ({tail}, {head}) outside 0..{last}"
            return GraphStructureError, message
        if w0.numerator <= 0 or w1.numerator <= 0:
            message = f"edge {eid}: weights must be strictly positive, got ({w0}, {w1})"
            return WeightDomainError, message
        grown = math.lcm(den, w0.denominator, w1.denominator)
        if grown != den:
            den = grown
            if 2 * len(edges) * den.bit_length() > MAX_SCALED_WEIGHT_BITS:
                return WeightScaleError, (
                    f"weights need a common denominator of at least "
                    f"{den.bit_length()} bits; {len(edges)} edges scaled "
                    f"by it pass the cap of {MAX_SCALED_WEIGHT_BITS} bits"
                )
    return None


def construction_outcome(vertex_count, edges):
    try:
        DualWeightGraph.build(vertex_count, edges)
    except (GraphStructureError, WeightDomainError, WeightScaleError) as exc:
        return type(exc), str(exc)
    return None


@st.composite
def maybe_invalid_edge_lists(draw):
    n = draw(st.integers(0, 4))
    vertex = st.integers(-2, n + 1)
    weight = st.builds(F, st.integers(-2, 5), st.integers(1, 6))
    edges = st.builds(Edge, vertex, vertex, weight, weight)
    return n, tuple(draw(st.lists(edges, max_size=6)))


@given(maybe_invalid_edge_lists())
@settings(max_examples=400, deadline=None)
def test_constructor_refuses_what_the_edge_list_check_refused(case):
    vertex_count, edges = case
    assert construction_outcome(vertex_count, edges) == reference_refusal(*case)


def test_constructor_refuses_hostile_denominators_like_the_edge_list_check():
    with pytest.raises(WeightScaleError) as info:
        hostile_star()
    edges = tuple(
        Edge(t, h, w, w)
        for i in range(4000)
        for t, h, w in ((0, i + 2, F(1, 10**12 + i)), (i + 2, 1, F(1, 10**12 + i)))
    )
    assert (WeightScaleError, str(info.value)) == reference_refusal(4002, edges)


@pytest.mark.parametrize(
    "columns, error, message",
    [
        ((2, -3, (0,), (1,), (1,), (2,)), WeightDomainError,
         "weight denominator -3 is below 1"),
        ((2, 0, (0,), (1,), (1,), (1,)), WeightDomainError,
         "weight denominator 0 is below 1"),
        ((2, -(10**200), (), (), (), ()), WeightDomainError,
         "weight denominator <a number of about 200 digits> is below 1"),
        ((2, 1, (0, 1), (1, 0), (1,), (1, 1)), GraphStructureError,
         "edge columns of unequal length (2, 2, 1, 2)"),
        # The vertex count is checked first, then ``den``, then the lengths,
        # and only then each edge.
        ((0, 0, (0,), (), (), ()), GraphStructureError,
         "graph needs at least one vertex"),
        ((2, 0, (0,), (), (), ()), WeightDomainError,
         "weight denominator 0 is below 1"),
        ((2, 1, (5,), (1,), (0,), ()), GraphStructureError,
         "edge columns of unequal length (1, 1, 1, 0)"),
        # ``den`` must be the weights' least common denominator, so one edge
        # set has one set of columns; each edge is checked before that.
        ((2, 2, (0,), (1,), (2,), (2,)), WeightDomainError,
         "weight denominator 2 is not the weights' least common denominator"),
        ((3, 12, (0, 1), (1, 2), (6, 4), (8, 2)), WeightDomainError,
         "weight denominator 12 is not the weights' least common denominator"),
        ((2, 10**200, (0,), (1,), (10**200,), (10**200,)), WeightDomainError,
         "weight denominator <a number of about 200 digits> is not the weights' "
         "least common denominator"),
        ((2, 2, (0,), (1,), (0,), (2,)), WeightDomainError,
         "edge 0: weights must be strictly positive, got (0, 1)"),
        # Every number is exactly an int, since the searches pack vertex ids
        # and weights into bit fields: a float weight or endpoint used to
        # pass and fail later inside a build, and a bool passed as an int.
        ((2, 1, (0,), (1,), (0.5,), (1,)), WeightDomainError,
         "edge column w0 holds a float, not only ints"),
        ((2, 1, (0,), (1,), (1,), (True,)), WeightDomainError,
         "edge column w1 holds a bool, not only ints"),
        ((2, 1, (0.0,), (1,), (1,), (1,)), GraphStructureError,
         "edge column tails holds a float, not only ints"),
        ((2, 1, (0, 0), (1, True), (1, 1), (1, 1)), GraphStructureError,
         "edge column heads holds a bool, not only ints"),
        ((2.0, 1, (), (), (), ()), GraphStructureError,
         "vertex count is a float, not an int"),
        ((True, 1, (), (), (), ()), GraphStructureError,
         "vertex count is a bool, not an int"),
        ((2, 1.0, (), (), (), ()), WeightDomainError,
         "weight denominator is a float, not an int"),
        ((2, True, (), (), (), ()), WeightDomainError,
         "weight denominator is a bool, not an int"),
        # The types of ``vertex_count`` and ``den`` are checked before their
        # ranges, the column lengths before the columns' types, and those
        # before any edge: edge 0's endpoint 5 is out of range here.
        (("2", -1, (), (), (), ()), GraphStructureError,
         "vertex count is a str, not an int"),
        ((2, "1", (), (), (), ()), WeightDomainError,
         "weight denominator is a str, not an int"),
        ((2, 1, (0.5,), (1,), (1,), ()), GraphStructureError,
         "edge columns of unequal length (1, 1, 1, 0)"),
        ((2, 1, (5,), (1,), (1,), (0.5,)), WeightDomainError,
         "edge column w1 holds a float, not only ints"),
    ],
)
def test_constructor_refuses_columns_that_are_not_one_edge_set(columns, error, message):
    with pytest.raises(error) as info:
        DualWeightGraph(*columns)
    assert str(info.value) == message


def test_constructor_keeps_its_columns_as_tuples():
    columns = [0], [1], [1], [3]
    graph = DualWeightGraph(2, 2, *columns)
    built = DualWeightGraph.build(2, [(0, 1, F(1, 2), F(3, 2))])
    assert graph == built and hash(graph) == hash(built)
    columns_kept = graph.tails, graph.heads, graph.w0, graph.w1
    assert all(type(column) is tuple for column in columns_kept)
    columns[2][0] = -5  # the caller's list, not the graph's column
    assert graph.w0 == (1,) and build_index(graph, 0, 1).k == 1


def hostile_star_text(routes: int = 4000) -> str:
    """:func:`hostile_star` as graph-file text."""
    lines = [f"psp {routes + 2} {2 * routes}"]
    for i in range(routes):
        w = f"1/{10**12 + i}"
        lines += [f"e 0 {i + 2} {w} {w}", f"e {i + 2} 1 {w} {w}"]
    return "\n".join(lines) + "\n"


def test_hostile_text_refused_while_read():
    # The parser grows the denominator token by token and refuses at the
    # same edge, with the same message, as the constructor does.
    with pytest.raises(WeightScaleError) as parsed:
        parse_graph(hostile_star_text())
    with pytest.raises(WeightScaleError) as built:
        hostile_star()
    assert str(parsed.value) == str(built.value)


@given(own.graphs())
@settings(max_examples=60, deadline=None)
def test_integer_view_scales_every_weight(graph):
    for eid, edge in enumerate(graph.edges):
        assert F(graph.w0[eid], graph.den) == edge.w0
        assert F(graph.w1[eid], graph.den) == edge.w1
        assert (edge.head, graph.w0[eid], graph.w1[eid], eid) in graph.adjacency[edge.tail]


def test_cost_line_equality_ignores_scaling():
    line = CostLine(F(1, 2), F(3, 2))
    scaled = CostLine.from_scaled(6, 12, 12)
    assert scaled == line and hash(scaled) == hash(line)
    assert (scaled.c0, scaled.c1, scaled.slope) == (F(1, 2), F(3, 2), F(1))
    assert repr(scaled) == repr(line)
    assert CostLine.from_scaled(6, 12, 11) != line


def test_path_vertices_starts_at_source():
    graph = DualWeightGraph.build(2, [(0, 1, 1, 1)])
    assert path_vertices(graph, Path(()), source=1) == (1,)
    assert path_vertices(graph, Path((0,)), source=0) == (0, 1)


@given(own.chain_with_path(), own.lambdas)
@settings(max_examples=80, deadline=None)
def test_line_value_matches_edgewise_interpolation(graph_and_path, lam):
    graph, edge_ids = graph_and_path
    line = cost_line(graph, Path(tuple(edge_ids)))
    total = sum(
        (interpolate_weight(graph, eid, lam) for eid in edge_ids), start=F(0)
    )
    assert line.value(lam) == total


@given(own.chain_with_path(max_links=4), st.integers(min_value=0, max_value=4))
@settings(max_examples=60, deadline=None)
def test_cost_line_additive_under_concatenation(graph_and_path, cut):
    graph, edge_ids = graph_and_path
    cut = min(cut, len(edge_ids))
    whole = cost_line(graph, Path(tuple(edge_ids)))
    front = cost_line(graph, Path(tuple(edge_ids[:cut])))
    back = cost_line(graph, Path(tuple(edge_ids[cut:])))
    assert (front.c0 + back.c0, front.c1 + back.c1) == (whole.c0, whole.c1)


def chain_with_back_edges(links):
    """Edges ``i``: ``i -> i + 1`` for ``i < links``, then ``links + i``:
    ``i + 1 -> i``, then a self-loop on 0, so a walk can repeat a vertex
    without a break in contiguity."""
    rows = [(i, i + 1, 1 + i % 3, 3 - i % 3) for i in range(links)]
    rows += [(i + 1, i, 2, 2) for i in range(links)] + [(0, 0, 1, 1)]
    return DualWeightGraph.build(links + 1, rows)


def mutated(kind, path, count, rng):
    """``path`` with one fault of ``kind`` in it, on a graph of ``count``
    edges built by :func:`chain_with_back_edges`."""
    path, links = list(path), len(path)
    at = rng.randrange(links + 1)
    if kind == "out of range":
        path.insert(at, count + rng.randrange(3))
    elif kind == "negative":
        path.insert(at, -rng.randint(1, count + 1))
    elif kind == "float":
        path.insert(at, float(rng.randrange(count)))
    elif kind == "break":
        if links >= 3:
            del path[rng.randrange(1, links - 1)]
        else:
            path = [count - 2, count - 1, *path]
    elif kind == "repeat":
        if links:
            at = rng.randrange(links)
            path[at + 1:at + 1] = [links + at, at]  # back to ``at`` and on again
        else:
            path = [count - 1, count - 1]
    return tuple(path)


def outcome(walk, graph, path):
    try:
        return walk(graph, path).scaled()
    except Exception as exc:  # the refusal is compared, class and message
        return type(exc), str(exc)


KINDS = ("out of range", "negative", "float", "break", "repeat")


@given(st.integers(0, 6), st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_cost_line_matches_the_edge_by_edge_loop(links, seed):
    # Every path the fast check takes or refuses gets the loop's line, or
    # its class and message, also with two faults on one path, and also
    # when the path comes as an iterator.
    rng = random.Random(seed)
    graph = chain_with_back_edges(links)
    count = len(graph.tails)
    start = rng.randrange(links + 1)
    paths = [tuple(range(start, links)), tuple(range(rng.randrange(links + 1)))]
    for kind in KINDS:
        paths.append(mutated(kind, paths[0], count, rng))
        first, second = rng.sample(KINDS, 2)
        paths.append(mutated(second, mutated(first, paths[0], count, rng), count, rng))
    for path in paths:
        expected = outcome(cost_line_loop, graph, path)
        assert outcome(cost_line, graph, path) == expected, path
        assert outcome(cost_line, graph, iter(path)) == expected, path


@given(own.chain_with_path(), own.lambdas)
@settings(max_examples=60, deadline=None)
def test_nonempty_path_cost_strictly_positive(graph_and_path, lam):
    graph, edge_ids = graph_and_path
    if not edge_ids:
        return
    line = cost_line(graph, Path(tuple(edge_ids)))
    assert line.value(lam) > 0
