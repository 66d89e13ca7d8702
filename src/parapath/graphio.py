"""On-disk formats: graph edge lists and envelope documents.

Graph files are line-oriented text:

    # comment
    psp <vertex_count> <edge_count>
    e <tail> <head> <w0> <w1>

Weights are written as exact decimals when the denominator divides a
power of ten and as ``p/q`` otherwise; both spellings parse back to the
identical rational, so write/read round-trips are field-exact.

Envelope documents are JSON with every rational rendered as the string
``numerator/denominator`` in lowest terms, plus a format version field.
Each segment is stored as its interval, its line's values at 0 and 1,
and its witness's vertex walk.  A document is written from, and read
back as, a :class:`ShortestPathIndex`; a read one answers
:func:`~parapath.query.query` like a built one, but its segments have no
edge-id ``path``, because a vertex walk cannot tell parallel edges apart.
"""

from __future__ import annotations

import json
import re
import sys
from fractions import Fraction
from math import gcd, lcm
from pathlib import Path as FilePath
from typing import Iterable

from .envelope import EnvelopeSegment, ShortestPathIndex, check_index_invariants
from .errors import (
    EnvelopeFormatError,
    GraphFormatError,
    NumberSizeError,
    WeightScaleError,
)
from .model import (
    MAX_NUMBER_CHARS,
    MAX_VERTICES,
    CostLine,
    DualWeightGraph,
    check_scale,
    parse_rational,
    path_vertices,
    plain_ratio,
    show_number,
)

ENVELOPE_FORMAT_VERSION = 1


def _digits(value: int) -> str:
    """``str(value)``, or NumberSizeError past Python's int-to-str digit limit."""
    try:
        return str(value)
    except ValueError:
        limit = sys.get_int_max_str_digits()
        raise NumberSizeError(f"cannot write a number over {limit} digits") from None


def format_fraction(value: Fraction) -> str:
    """Canonical ``p/q`` spelling, denominator always present."""
    return f"{_digits(value.numerator)}/{_digits(value.denominator)}"


def format_weight(value: Fraction) -> str:
    """Exact decimal when one exists, otherwise ``p/q``."""
    rest = value.denominator
    twos = fives = 0
    while rest % 2 == 0:
        rest //= 2
        twos += 1
    while rest % 5 == 0:
        rest //= 5
        fives += 1
    if rest != 1:
        return format_fraction(value)
    places = max(twos, fives)
    if places == 0:
        return _digits(value.numerator)
    scaled = value.numerator * 10**places // value.denominator
    sign = "-" if scaled < 0 else ""
    digits = _digits(abs(scaled)).rjust(places + 1, "0")
    return f"{sign}{digits[:-places]}.{digits[-places:]}"


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


def parse_graph(text: str) -> DualWeightGraph:
    """Parse graph-file text; errors carry the 1-based offending line.

    A well-formed file, its header first after any blank or comment lines
    and then exactly the declared edge lines, is read column-wise: all
    fields at once into five columns, each distinct weight token reduced to
    lowest terms once, the common denominator checked by
    :func:`check_scale` as it grows.  Any other text, and any anomaly the
    column reader meets, is read by the line-by-line reader, which gives
    the same graph for what it accepts and raises every error, so a file
    fails with the same error and line whichever reader met it first.
    """
    columns = _read_columns(text)
    return DualWeightGraph(*columns) if columns else _parse_lines(text)


def _read_columns(text: str) -> tuple | None:
    """The constructor's arguments for a well-formed file, else None."""
    lines = text.splitlines()
    for at, line in enumerate(lines):
        header = line.split()
        if header and header[0][0] != "#":
            break
    else:
        return None
    try:
        psp, n, m = header
        n, m = int(n), int(m)
    except ValueError:
        return None
    if psp != "psp" or not 1 <= n <= MAX_VERTICES or len(lines) - at - 1 != m:
        return None
    rows = list(map(str.split, lines[at + 1:]))
    if set(map(len, rows)) != {5}:
        return None
    es, tails, heads, t0, t1 = zip(*rows)
    del rows
    try:
        tails, heads = tuple(map(int, tails)), tuple(map(int, heads))
    except ValueError:
        return None
    if set(es) != {"e"} or min(tails) < 0 or min(heads) < 0:
        return None
    if max(tails) >= n or max(heads) >= n:
        return None
    den, ratios = 1, {}
    for token in {*t0, *t1}:
        ratio = plain_ratio(token)
        if ratio is None:
            try:
                ratio = parse_rational(token).as_integer_ratio()
            except (ValueError, ZeroDivisionError):
                return None
        p, q = ratio
        if p <= 0:
            return None
        g = gcd(p, q)
        p, q = p // g, q // g
        ratios[token] = p, q
        if den % q:
            try:
                den = check_scale(lcm(den, q), m)
            except WeightScaleError:
                return None
    scaled = {token: p * (den // q) for token, (p, q) in ratios.items()}.__getitem__
    return n, den, tails, heads, tuple(map(scaled, t0)), tuple(map(scaled, t1))


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


def format_graph(graph: DualWeightGraph, comments: Iterable[str] = ()) -> str:
    lines = [f"# {c}" for c in comments]
    lines.append(f"psp {graph.vertex_count} {len(graph.edges)}")
    for tail, head, w0, w1 in graph.edges:
        lines.append(f"e {tail} {head} {format_weight(w0)} {format_weight(w1)}")
    return "\n".join(lines) + "\n"


def _read_text(path: str | FilePath, error: type[Exception]) -> str:
    try:
        return FilePath(path).read_text()
    except UnicodeDecodeError as exc:
        raise error(
            f"{str(path)!r:.40} is not text: {exc.reason} at byte {exc.start}"
        ) from None


def read_graph(path: str | FilePath) -> DualWeightGraph:
    return parse_graph(_read_text(path, GraphFormatError))


def write_graph(
    graph: DualWeightGraph, path: str | FilePath, comments: Iterable[str] = ()
) -> None:
    FilePath(path).write_text(format_graph(graph, comments))


def document_from_index(
    index: ShortestPathIndex, graph: DualWeightGraph
) -> ShortestPathIndex:
    """``index`` with each segment's vertex walk filled in, ready to write."""
    segments = tuple(
        EnvelopeSegment(
            seg.lo, seg.hi, seg.path, seg.line,
            path_vertices(graph, seg.path, source=index.source),
        )
        for seg in index.segments
    )
    return ShortestPathIndex(index.source, index.target, segments)


def _json_array(items: list[str], depth: int) -> str:
    """Rendered ``items`` as a JSON array nested ``depth`` levels deep, laid
    out as ``json.dumps(..., indent=2)`` lays it out."""
    if not items:
        return "[]"
    inner = "\n" + "  " * (depth + 1)
    return f"[{inner}{(',' + inner).join(items)}\n{'  ' * depth}]"


def format_envelope(index: ShortestPathIndex) -> str:
    """The index as ``json.dumps(payload, indent=2)`` writes it, plus a newline.

    Each segment must carry its walk, as :func:`document_from_index` gives
    it, or ValueError is raised.  The fixed layout is written directly: any
    ``indent`` sends ``json.dumps`` to its pure-Python encoder, several
    times slower.  Every rational goes through :func:`format_fraction`, so
    one past the digit limit raises NumberSizeError.
    """
    if any(seg.vertices is None for seg in index.segments):
        raise ValueError("segments carry no vertex walk; write document_from_index()")
    segments = [
        f'{{\n      "lo": "{format_fraction(seg.lo)}",'
        f'\n      "hi": "{format_fraction(seg.hi)}",'
        f'\n      "c0": "{format_fraction(seg.c0)}",'
        f'\n      "c1": "{format_fraction(seg.c1)}",'
        f'\n      "vertices": {_json_array(list(map(str, seg.vertices)), 3)}\n    }}'
        for seg in index.segments
    ]
    return (
        f'{{\n  "format": {ENVELOPE_FORMAT_VERSION},\n  "source": {index.source},'
        f'\n  "target": {index.target},\n  "k": {index.k},'
        f'\n  "segments": {_json_array(segments, 1)}\n}}\n'
    )


# ``int()`` would take 0.9, "3" and true; only a JSON integer is an id.
def _json_int(value: object, what: str) -> int:
    if type(value) is not int or value < 0:
        raise EnvelopeFormatError(f"{what} must be an integer >= 0, got {value!r:.40}")
    return value


def _json_ints(values: list) -> tuple[int, ...]:
    if type(values) is not list or not set(map(type, values)) <= {int}:
        raise EnvelopeFormatError(
            f"vertices must be a list of integers, got {values!r:.40}"
        )
    return tuple(values)


_CANONICAL = re.compile(r"(0|[1-9][0-9]*)/([1-9][0-9]*)")


def _parse_canonical(text: str) -> tuple[int, int]:
    """``(p, q)`` of the writer's one spelling: unsigned ``p/q``, lowest terms."""
    match = len(text) <= MAX_NUMBER_CHARS and _CANONICAL.fullmatch(text)
    if not match:
        raise ValueError(f"not a canonical p/q: {text!r:.40}")
    p, q = int(match[1]), int(match[2])
    if gcd(p, q) != 1:
        raise ValueError(f"{text!r:.40} is not in lowest terms")
    return p, q


def _parse_segment(seg: dict) -> EnvelopeSegment:
    """One segment record, its line scaled as ``CostLine(c0, c1)`` scales it."""
    lo, hi = (Fraction(*_parse_canonical(seg[key])) for key in ("lo", "hi"))
    (a, b), (c, d) = _parse_canonical(seg["c0"]), _parse_canonical(seg["c1"])
    line = CostLine.from_scaled(a * d, c * b - a * d, b * d)
    return EnvelopeSegment(lo, hi, None, line, _json_ints(seg["vertices"]))


def parse_envelope(text: str) -> ShortestPathIndex:
    """Load an envelope document as an index, refusing anything the writer
    cannot emit.

    Beyond the JSON structure, rationals must be canonical ``p/q``, the
    segments must pass the strict segment check (tiling of [0, 1], strictly
    decreasing slopes, lines agreeing at breakpoints) and every vertex walk
    must be a simple path from source to target: queries answer from the
    file alone, so a tampered file would otherwise answer wrongly.  The
    index keeps the strict check's ints as its ``query_columns``.
    """
    try:
        payload = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an int past Python's digit limit
        raise EnvelopeFormatError(f"not valid JSON: {exc}") from None
    except RecursionError:
        raise EnvelopeFormatError("not valid JSON: nested too deeply") from None
    try:
        version = _json_int(payload["format"], "format")
        if version != ENVELOPE_FORMAT_VERSION:
            shown = show_number(version)
            raise EnvelopeFormatError(f"unsupported format version {shown}")
        source = _json_int(payload["source"], "source")
        target = _json_int(payload["target"], "target")
        declared_k = _json_int(payload["k"], "k")
        segments = tuple(map(_parse_segment, payload["segments"]))
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


def read_envelope(path: str | FilePath) -> ShortestPathIndex:
    return parse_envelope(_read_text(path, EnvelopeFormatError))


def write_envelope(index: ShortestPathIndex, path: str | FilePath) -> None:
    FilePath(path).write_text(format_envelope(index))
