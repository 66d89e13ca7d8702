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
The reader checks each record in one pass with ``str`` methods, builds its
objects without their Python-level constructors and words every refusal.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from math import gcd, lcm
from operator import countOf, itemgetter
from pathlib import Path as FilePath
from typing import Iterable, Sequence

from .envelope import (
    EnvelopeSegment, ShortestPathIndex, _segment, check_index_invariants,
)
from .errors import (
    EnvelopeFormatError, GraphFormatError, GraphStructureError, NumberSizeError,
    WeightDomainError, WeightScaleError,
)
from .model import (
    MAX_NUMBER_CHARS, MAX_VERTICES, CostLine, DualWeightGraph, _new_object,
    check_scale, parse_rational, plain_ratio, show_number,
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


def parse_graph(text: str) -> DualWeightGraph:
    """Parse graph-file text; errors carry the 1-based offending line.

    Reads the edge lines column-wise and each distinct weight token once,
    growing the common denominator ``D`` under :func:`check_scale` over the
    edge lines present; blank and ``#`` lines are looked for only when some
    line after the header is not five fields led by ``e``.  Refuses for the
    first fault in this order, at its first line: (1) the header; (2) an
    edge line's shape, up to the first surplus line; (3) a surplus edge
    line; (4) an endpoint not an int; (5) a weight token, in first-use
    order, that does not parse, then ``D`` past the cap (WeightScaleError,
    no line) at the line taking it past, unless step 7 refuses that line;
    (6) fewer edge lines than declared (no line); (7) per edge line, as the
    constructor checks, an endpoint out of range, then a weight not > 0.
    So faults on one line are refused as a line-by-line reader refuses them.
    """
    rows = list(map(str.split, text.splitlines()))
    at = next((at for at, row in enumerate(rows) if row and row[0][0] != "#"), None)
    if at is None:
        raise GraphFormatError("missing 'psp' header line")
    header, rows, numbers = rows[at], rows[at + 1:], range(at + 2, len(rows) + 1)
    if header[0] != "psp" or len(header) != 3:
        raise GraphFormatError("expected header 'psp <vertices> <edges>'", at + 1)
    _check_ints(header[1:], ("vertex count", "edge count"), at + 1)
    n, m = map(int, header[1:])
    if not 1 <= n <= MAX_VERTICES or m < 0:
        raise GraphFormatError(
            f"header counts out of range (vertices 1..{MAX_VERTICES})", at + 1
        )
    # Rows are zipped only once all have five fields, as zip cuts longer ones.
    columns = tuple(zip(*rows)) if set(map(len, rows)) == {5} else ()
    if not columns or set(columns[0]) != {"e"}:
        kept = [(no, row) for no, row in zip(numbers, rows) if row and row[0][0] != "#"]
        for no, row in kept[:m + 1]:
            if len(row) != 5 or row[0] != "e":
                raise GraphFormatError("expected 'e <tail> <head> <w0> <w1>'", no)
        numbers, rows = tuple(zip(*kept)) or ((), ())
        columns = tuple(zip(*rows)) or ((),) * 5
    if len(rows) > m:
        raise GraphFormatError("more edge lines than the header declares", numbers[m])
    _es, tails, heads, t0, t1 = columns
    del rows, columns
    try:
        tails, heads = tuple(map(int, tails)), tuple(map(int, heads))
    except ValueError:
        for no, ends in zip(numbers, zip(tails, heads)):
            _check_ints(ends, ("tail", "head"), no)
    tokens = [""] * (2 * len(t0))  # the weight tokens in first-use order
    tokens[::2], tokens[1::2] = t0, t1
    ratios: dict[str, tuple[int, int]] = {}
    for token in dict.fromkeys(tokens):
        try:
            p, q = plain_ratio(token) or parse_rational(token).as_integer_ratio()
        except (ValueError, ZeroDivisionError) as exc:
            message = f"bad weight {token!r:.40}: {exc!s:.150}"
            raise GraphFormatError(message, numbers[tokens.index(token) // 2]) from None
        g = gcd(p, q)
        ratios[token] = p // g, q // g
    den = 1
    for token, (_p, q) in ratios.items():
        if den % q:
            try:
                den = check_scale(lcm(den, q), len(tails))
            except WeightScaleError:  # at the first line that takes D past
                r = tokens.index(token) // 2
                (p0, q0), (p1, q1) = ratios[t0[r]], ratios[t1[r]]
                _check_edges(n, [(numbers[r], tails[r], heads[r], p0, p1)])
                check_scale(lcm(den, q0, q1), len(tails))  # a multiple: raises
    if len(tails) != m:
        shown = f"{show_number(m)} edges, file has {len(tails)}"
        raise GraphFormatError(f"header declares {shown}")
    scaled = {token: p * (den // q) for token, (p, q) in ratios.items()}.__getitem__
    w0, w1 = tuple(map(scaled, t0)), tuple(map(scaled, t1))
    try:
        return DualWeightGraph(n, den, tails, heads, w0, w1)
    except (GraphStructureError, WeightDomainError):
        _check_edges(n, zip(numbers, tails, heads, w0, w1))
        raise


def _check_ints(tokens: Iterable[str], names: Iterable[str], line_no: int) -> None:
    """Raise GraphFormatError for the first of ``tokens`` ``int()`` refuses."""
    for name, token in zip(names, tokens):
        try:
            int(token)
        except ValueError:
            raise GraphFormatError(f"bad {name} {token!r:.40}", line_no) from None


def _check_edges(n: int, rows: Iterable[tuple[int, int, int, int, int]]) -> None:
    """Raise GraphFormatError at the first bad ``(line, tail, head, w0, w1)`` row."""
    for line_no, tail, head, w0, w1 in rows:
        if not (0 <= tail < n and 0 <= head < n):
            raise GraphFormatError(f"vertex id outside 0..{n - 1}", line_no)
        if w0 <= 0 or w1 <= 0:
            raise GraphFormatError("weights must be strictly positive", line_no)


def format_graph(graph: DualWeightGraph, comments: Iterable[str] = ()) -> str:
    shown = {w: format_weight(Fraction(w, graph.den)) for w in {*graph.w0, *graph.w1}}
    lines = [f"# {c}" for c in comments]
    lines.append(f"psp {graph.vertex_count} {len(graph.tails)}")
    for tail, head, w0, w1 in zip(graph.tails, graph.heads, graph.w0, graph.w1):
        lines.append(f"e {tail} {head} {shown[w0]} {shown[w1]}")
    return "\n".join(lines) + "\n"


def _open(path: str | FilePath, mode: str = "r"):
    """``open(path, mode)`` for a ``str`` or ``os.PathLike`` path.  Any other
    type goes to ``pathlib.Path``, which refuses it with the class and text it
    always did, so an int is never opened as a file descriptor."""
    return open(path if type(path) is str else FilePath(path), mode)


def _read_text(path: str | FilePath, error: type[Exception]) -> str:
    try:
        with _open(path) as file:
            return file.read()
    except UnicodeDecodeError as exc:
        raise error(
            f"{str(path)!r:.40} is not text: {exc.reason} at byte {exc.start}"
        ) from None


def read_graph(path: str | FilePath) -> DualWeightGraph:
    return parse_graph(_read_text(path, GraphFormatError))


def write_graph(
    graph: DualWeightGraph, path: str | FilePath, comments: Iterable[str] = ()
) -> None:
    text = format_graph(graph, comments)
    with _open(path, "w") as file:
        file.write(text)


def _gather(src, keys) -> Sequence:
    """``src[key]`` for each key, by one ``itemgetter`` call for 2+ keys."""
    return itemgetter(*keys)(src) if len(keys) > 1 else [*map(src.__getitem__, keys)]


def document_from_index(
    index: ShortestPathIndex, graph: DualWeightGraph
) -> ShortestPathIndex:
    """``index`` with each segment's vertex walk, gathered from ``graph.heads``."""
    source, heads = index.source, graph.heads
    if None in [seg.path for seg in index.segments]:
        raise ValueError("segments carry no edge path; an index read from an "
                         "envelope file already holds its walks")
    return ShortestPathIndex(source, index.target, tuple(
        EnvelopeSegment(*seg[:4], (source, *_gather(heads, seg.path)))
        for seg in index.segments
    ))


def _json_array(items: Sequence[str], depth: int) -> str:
    """``items`` as ``json.dumps(..., indent=2)`` lays out an array ``depth`` deep."""
    if not items:
        return "[]"
    inner = "\n" + "  " * (depth + 1)
    return f"[{inner}{(',' + inner).join(items)}\n{'  ' * depth}]"


def format_envelope(index: ShortestPathIndex) -> str:
    """The index as ``json.dumps(payload, indent=2)`` writes it, plus a newline.

    Each segment must carry its walk, as :func:`document_from_index` gives it,
    or ValueError is raised.  The fixed layout is written directly: any
    ``indent`` sends ``json.dumps`` to its pure-Python encoder, several times
    slower.  Each walk is joined from one string per distinct vertex id, and
    ``c0``/``c1`` from ``line.scaled()`` with one gcd each.  A rational past
    the digit limit raises NumberSizeError.
    """
    walks = [seg.vertices for seg in index.segments]
    if None in walks:
        raise ValueError("segments carry no vertex walk; write document_from_index()")
    shown, segments = {v: str(v) for v in set().union(*walks)}, []
    for seg, walk in zip(index.segments, walks):
        m, s, d = seg.line.scaled()
        g0, g1 = gcd(m, d), gcd(m + s, d)
        segments.append(
            f'{{\n      "lo": "{format_fraction(seg.lo)}",'
            f'\n      "hi": "{format_fraction(seg.hi)}",'
            f'\n      "c0": "{_digits(m // g0)}/{_digits(d // g0)}",'
            f'\n      "c1": "{_digits((m + s) // g1)}/{_digits(d // g1)}",'
            f'\n      "vertices": {_json_array(_gather(shown, walk), 3)}\n    }}'
        )
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


def _parse_canonical(text: object) -> tuple[int, int]:
    """``(p, q)`` of the writer's one spelling, unsigned ``p/q`` in lowest
    terms: one ``/`` between ASCII digits, no leading zero but a lone ``0``,
    each side within Python's int digit limit.  Any other value is not."""
    if type(text) is str and len(text) <= MAX_NUMBER_CHARS and text.isascii():
        num, _slash, den = text.partition("/")
        if num.isdigit() and den.isdigit() and den[0] != "0" and (
            num[0] != "0" or num == "0"
        ):
            try:
                p, q = int(num), int(den)
            except ValueError:  # a side past Python's int digit limit
                raise ValueError(f"not a canonical p/q: {text!r:.40}") from None
            if gcd(p, q) == 1:
                return p, q
            raise ValueError(f"{text!r:.40} is not in lowest terms")
    raise ValueError(f"not a canonical p/q: {text!r:.40}")


def _point(text: object) -> Fraction:
    """The breakpoint ``text`` spells, its coprime ints set in ``Fraction``'s
    two slots as :func:`~parapath.model._fraction` sets them."""
    value = _new_object(Fraction)
    value._numerator, value._denominator = _parse_canonical(text)
    return value


def _parse_segments(records: list, source: int, target: int) -> tuple[tuple, int | None]:
    """The segments, lines scaled as ``CostLine(c0, c1)`` scales them and
    filled in as ``from_scaled`` and ``_make`` fill them, and the index of the
    first walk that is not a simple path from source to target, else None."""
    if type(records) is not list or countOf(map(type, records), dict) != len(records):
        got = f"got {records!r:.40}"
        raise EnvelopeFormatError(f"segments must be a list of objects, {got}")
    # No JSON value equals hi_text before the first record.
    segments, hi_text, hi, bad = [], object(), None, None
    for seg in records:
        lo = hi if (text := seg["lo"]) == hi_text else _point(text)
        hi = _point(hi_text := seg["hi"])
        (a, b), (c, d) = _parse_canonical(seg["c0"]), _parse_canonical(seg["c1"])
        line = _new_object(CostLine)
        line._scaled = (m := a * d, c * b - m, b * d)
        walk = seg["vertices"]
        if type(walk) is not list or countOf(map(type, walk), int) != len(walk):
            got = f"got {walk!r:.40}"
            raise EnvelopeFormatError(f"vertices must be a list of integers, {got}")
        if bad is None and not (walk and walk[0] == source and walk[-1] == target
                                and min(walk) >= 0 and len(set(walk)) == len(walk)):
            bad = len(segments)
        segments.append(_segment(EnvelopeSegment, (lo, hi, None, line, tuple(walk))))
    return tuple(segments), bad


def parse_envelope(text: str) -> ShortestPathIndex:
    """Load an envelope document, refusing anything the writer cannot emit.

    Beyond the JSON structure, rationals must be canonical ``p/q``, the
    segments must pass the segment check (tiling of [0, 1], strictly
    decreasing slopes, lines agreeing at breakpoints) and every vertex walk
    must be a simple path from source to target: queries answer from the
    file alone, so a tampered file would otherwise answer wrongly.  Records
    are read, and walks tested, in one pass with no Python-level
    constructor.  Refused first, in parapath's words, is the JSON, then the
    document's type, a header field, the record types, a record, ``k``, a
    walk, the segment check.  A ``lo`` spelled as the ``hi`` before it is
    that ``hi``'s Fraction, so each breakpoint is parsed once and the check
    finds it shared.  The index keeps the check's ints as its ``query_columns``.
    """
    try:
        payload = json.loads(text)
    except json.JSONDecodeError:
        raise EnvelopeFormatError("not valid JSON") from None
    except ValueError:  # the one other: an int past Python's digit limit
        over = f"over {sys.get_int_max_str_digits()} digits"
        raise EnvelopeFormatError(f"document holds an integer {over}") from None
    except RecursionError:
        raise EnvelopeFormatError("not valid JSON: nested too deeply") from None
    if type(payload) is not dict:
        raise EnvelopeFormatError(f"document must be an object, got {payload!r:.40}")
    try:
        version = _json_int(payload["format"], "format")
        if version != ENVELOPE_FORMAT_VERSION:
            shown = show_number(version)
            raise EnvelopeFormatError(f"unsupported format version {shown}")
        source = _json_int(payload["source"], "source")
        target = _json_int(payload["target"], "target")
        declared_k = _json_int(payload["k"], "k")
        segments, bad = _parse_segments(payload["segments"], source, target)
    except (KeyError, ValueError) as exc:  # a missing field, or a bad token
        raise EnvelopeFormatError(f"malformed envelope document: {exc}") from None
    index = ShortestPathIndex(source, target, segments)
    if declared_k != len(segments):
        shown = f"k={show_number(declared_k)} but holds {len(segments)} segments"
        raise EnvelopeFormatError(f"document declares {shown}")
    if bad is not None:
        ends = " to ".join(map(show_number, (source, target)))
        raise EnvelopeFormatError(f"segment {bad}: walk is not a simple path from {ends}")
    try:
        check_index_invariants(index)
    except ValueError as exc:
        raise EnvelopeFormatError(str(exc)) from None
    return index


def read_envelope(path: str | FilePath) -> ShortestPathIndex:
    return parse_envelope(_read_text(path, EnvelopeFormatError))


def write_envelope(index: ShortestPathIndex, path: str | FilePath) -> None:
    text = format_envelope(index)
    with _open(path, "w") as file:
        file.write(text)
