"""Core graph, path, and cost-line types with exact rational arithmetic.

A dual-weight digraph carries two strictly positive weights per edge.
Blending them with a parameter ``lam`` in [0, 1] yields the interpolated
weight ``(1 - lam) * w0 + lam * w1``, so the cost of any fixed path, the
tuple of its edge ids, is a linear function of ``lam``.  A graph holds its
edges as int columns: endpoints, and both weights as ints over their least
common denominator ``D``, plus one adjacency built on first use; the
constructor checks the columns, and ``build`` converts ``Edge`` rows into
them.  Searches and cost lines sum those ints exactly, without a gcd per
addition, and return lines over ``D``; the ``Fraction`` edges are derived
only when asked for.  All types are immutable after construction and safe
to share between threads.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm, log10
from operator import countOf, itemgetter
from typing import Iterable, NamedTuple

from .errors import (
    GraphStructureError,
    LambdaRangeError,
    MalformedPathError,
    WeightDomainError,
    WeightScaleError,
)

ZERO = Fraction(0)
ONE = Fraction(1)

# Caps on number tokens from outside the program.  ``Fraction`` builds
# ``10**exponent`` outright, so without them one short token costs
# unbounded time and memory.  The length cap admits any ``p/q`` the
# envelope writer can emit (Python prints ints of up to 4300 digits).
MAX_NUMBER_CHARS = 10_000
MAX_DECIMAL_EXPONENT = 1_000

# Cap on a graph file's declared vertex count.  A search allocates about
# 110 bytes per declared vertex, edges or not, so without it the 17-byte
# header ``psp 1000000000 0`` asks for some 100 GB; at the cap it is 110 MB.
MAX_VERTICES = 1_000_000

# Cap on ``gen random``'s edges: at a measured 0.5 KB each (Python 3.11), 0.5 GB in all.
MAX_EDGES = 1_000_000

# Cap on the scaled weights' size, taken as 2 * edges * bits(D).  The common
# denominator D can have as many bits as all weight denominators together,
# and every scaled weight carries it, so without the cap E coprime
# denominators would cost memory quadratic in E.  At the cap the scaled
# weights take about 32 MB.
MAX_SCALED_WEIGHT_BITS = 2**28

_new_object = object.__new__


def _fraction(p: int, q: int) -> Fraction:
    """The ``Fraction`` ``p/q`` for ints ``p`` and ``q > 0``, reduced by one gcd.

    Equal to ``Fraction(p, q)`` in type, value, hash, repr and pickle, at
    about two thirds of its cost: ``Fraction.__new__`` dispatches on its
    arguments' types in Python before it reaches the gcd.  It relies on
    ``Fraction`` keeping its value in the two slots ``_numerator`` and
    ``_denominator``, in lowest terms with the denominator positive, which
    holds on every supported Python (3.12's ``Fraction._from_coprime_ints``
    builds the same way).  Callers guarantee the int types and the sign of
    ``q``: every number a library result is built from here is an int sum
    or product over positive denominators.  Error messages, the oracle and
    the reference search keep ``Fraction(...)``, so they stay independent.
    """
    g = gcd(p, q)
    value = _new_object(Fraction)
    value._numerator = p // g
    value._denominator = q // g
    return value


def plain_ratio(text: str) -> tuple[int, int] | None:
    """``(p, q)``, ``q > 0`` and not reduced, for the spellings the writers
    emit: ASCII ``digits[.digits]`` and ``digits/digits``, read with
    ``int()``.  None for any other spelling, for a zero denominator, for a
    token longer than ``MAX_NUMBER_CHARS`` and for one ``int()`` refuses."""
    if len(text) > MAX_NUMBER_CHARS or not text.isascii():
        return None
    num, slash, den = text.partition("/")
    try:
        if slash:
            if num.isdigit() and den.isdigit():
                q = int(den)
                return (int(num), q) if q else None
        else:
            whole, _dot, frac = text.partition(".")
            digits = whole + frac
            if digits.isdigit():
                return int(digits), 10 ** len(frac)
    except ValueError:  # past Python's int-from-str digit limit
        pass
    return None


# Python 3.10's ``Fraction(str)`` grammar: no ``_``, no space inside a ratio,
# digits after the point.  ``\d`` takes any Unicode digit, as ``int()`` does.
_FRACTION_310 = re.compile(
    r"\s*[-+]?(?=\d|\.\d)\d*(?:/\d+|(?:\.\d*)?(?:e[-+]?\d+)?)\s*", re.IGNORECASE
)


def parse_rational(text: str) -> Fraction:
    """Parse a decimal ("0.25", "25e-2") or ratio ("1/4") string exactly.

    Raises ValueError (ZeroDivisionError for a zero denominator) like
    ``Fraction`` does, and also for a token longer than ``MAX_NUMBER_CHARS``
    or with a decimal exponent beyond ``MAX_DECIMAL_EXPONENT`` in size.
    The spellings :func:`plain_ratio` reads are taken from it and reduced
    by :func:`_fraction`; every other spelling, and one it refuses, goes to
    ``Fraction(text)``, so values and errors are ``Fraction``'s either way.
    A token outside Python 3.10's ``Fraction`` grammar is refused with
    3.10's message: later versions read ``1_000`` and ``1 / 2``, which no
    writer emits, and 3.11 and 3.12 refuse ``1.d`` with another message.
    A number past the int digit limit is refused as ``number over 4300 digits``.
    """
    ratio = plain_ratio(text)
    if ratio is not None:
        return _fraction(*ratio)
    if len(text) > MAX_NUMBER_CHARS:
        raise ValueError(f"number longer than {MAX_NUMBER_CHARS} characters")
    _mantissa, marker, exponent = text.lower().partition("e")
    try:
        wide = marker and abs(int(exponent)) > MAX_DECIMAL_EXPONENT
    except ValueError:  # not an exponent, or past the digit limit: Fraction refuses it
        wide = False
    if wide:
        raise ValueError(f"decimal exponent beyond {MAX_DECIMAL_EXPONENT}")
    if not _FRACTION_310.fullmatch(text):
        raise ValueError(f"Invalid literal for Fraction: {text!r}")
    try:
        return Fraction(text)
    except ValueError:  # the one refusal left: a number past the int digit limit
        raise ValueError(f"number over {sys.get_int_max_str_digits()} digits") from None


def as_rational(value: int | str | Fraction) -> Fraction:
    """Convert exactly to a Fraction.

    Accepts ints, Fractions, and strings in either decimal ("0.25") or
    ratio ("1/4") form; strings go through :func:`parse_rational`.
    Floats are rejected: they would smuggle binary rounding error into an
    exact pipeline.
    """
    if isinstance(value, float):
        raise TypeError("refusing inexact float; pass a string or Fraction")
    if isinstance(value, str):
        return parse_rational(value)
    return Fraction(value)


class Edge(NamedTuple):
    """Directed edge with its two endpoint weights: a ``build`` row."""

    tail: int
    head: int
    w0: Fraction
    w1: Fraction


Ints = tuple[int, ...]
Adjacency = tuple[tuple[tuple[int, int, int, int], ...], ...]
Row = tuple[int, int, int | str | Fraction, int | str | Fraction]


class derived(cached_property):
    """A ``cached_property`` kept with ``object.__setattr__``: CPython 3.11 and
    3.12 read every attribute about 3x slower once ``__dict__`` is written."""

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = self.func(obj)
        object.__setattr__(obj, self.attrname, value)
        return value


@dataclass(frozen=True)
class DualWeightGraph:
    """Directed multigraph on int columns; parallel edges and self-loops are allowed.

    Edge ``e`` runs ``tails[e] -> heads[e]`` with weights ``w0[e] / den`` and
    ``w1[e] / den``, ``den`` being the weights' least common denominator, and
    ``adjacency[v]`` lists ``(head, w0, w1, edge id)`` for the edges leaving
    ``v`` in edge-id order.  The constructor checks the columns, so a graph
    that exists is valid, and keeps each column as a tuple, so it stays
    valid.  Every number must be exactly an ``int``, not a bool or a float,
    as the searches add and compare them exactly and pack vertex ids into
    their labels' low bits.  In this order, it raises
    GraphStructureError for a ``vertex_count`` that is not an int or is
    below 1, WeightDomainError for a ``den`` that is not an int or is below
    1, GraphStructureError for columns of unequal length, then, column by
    column, GraphStructureError for an endpoint and WeightDomainError for a
    weight that is not an int, then, at the first edge at fault,
    GraphStructureError for an endpoint outside ``0..vertex_count - 1`` and
    WeightDomainError for a weight that is not positive, then as
    :func:`check_scale` does, then WeightDomainError for a ``den`` that is
    not the weights' least common denominator, so one edge set has one set
    of columns.

    ``slope_bound``, ``label_shift`` and ``vertex_bits`` are set once the
    checks pass: plain attributes, which every search probe reads at field
    speed, kept out of ``__init__``, ``==`` and ``repr``.  The adjacencies
    and ``edges`` are built on first use.
    """

    vertex_count: int
    den: int
    tails: Ints
    heads: Ints
    w0: Ints
    w1: Ints
    # ``(vertex_count - 1) * Wmax``, for ``Wmax`` the largest scaled weight:
    # at least the scaled slope's absolute value on any simple path, which
    # has at most ``vertex_count - 1`` edges, each changing the slope by
    # ``w1 - w0``, less than ``Wmax`` in absolute value.  A breakpoint's
    # reduced denominator divides a difference of two such slopes, so it is
    # at most twice the bound.
    slope_bound: int = field(init=False, repr=False, compare=False)
    # How far a slope-extremal search's label shifts its length: the bit
    # length of ``2 * slope_bound``, as ``parapath.dijkstra`` lays labels out.
    label_shift: int = field(init=False, repr=False, compare=False)
    # The low bits a search's heap entry keeps for its vertex: the bit
    # length of ``vertex_count``.
    vertex_bits: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        n, den = self.vertex_count, self.den
        columns = tuple(map(tuple, (self.tails, self.heads, self.w0, self.w1)))
        for name, column in zip(("tails", "heads", "w0", "w1"), columns):
            object.__setattr__(self, name, column)
        if type(n) is not int:
            raise GraphStructureError(
                f"vertex count is a {type(n).__name__:.40}, not an int"
            )
        if n < 1:
            raise GraphStructureError("graph needs at least one vertex")
        if type(den) is not int:
            raise WeightDomainError(
                f"weight denominator is a {type(den).__name__:.40}, not an int"
            )
        if den < 1:
            raise WeightDomainError(f"weight denominator {show_number(den)} is below 1")
        lengths = tuple(map(len, columns))
        if len(set(lengths)) > 1:
            shown = ", ".join(map(show_number, lengths))
            raise GraphStructureError(f"edge columns of unequal length ({shown})")
        for name, column in zip(("tails", "heads", "w0", "w1"), columns):
            if countOf(map(type, column), int) != len(column):
                bad = next(type(x).__name__ for x in column if type(x) is not int)
                error = WeightDomainError if name[0] == "w" else GraphStructureError
                raise error(f"edge column {name} holds a {bad:.40}, not only ints")
        tails, heads, w0, w1 = columns
        if lengths[0] and not (
            0 <= min(tails) and max(tails) < n and 0 <= min(heads) and max(heads) < n
            and min(w0) > 0 and min(w1) > 0
        ):  # a column is at fault: name its first edge
            for eid, (tail, head, a, b) in enumerate(zip(*columns)):
                if not (0 <= tail < n and 0 <= head < n):
                    raise GraphStructureError(
                        f"edge {eid}: endpoint ({tail}, {head}) outside 0..{n - 1}"
                    )
                if a <= 0 or b <= 0:
                    got = ", ".join(show_number(Fraction(w, den)) for w in (a, b))
                    raise WeightDomainError(
                        f"edge {eid}: weights must be strictly positive, got ({got})"
                    )
        check_scale(den, lengths[0])
        if den > 1 and gcd(den, *w0, *w1) > 1:
            raise WeightDomainError(
                f"weight denominator {show_number(den)} is not the weights' "
                "least common denominator"
            )
        bound = (n - 1) * max(max(w0, default=0), max(w1, default=0))
        object.__setattr__(self, "slope_bound", bound)
        object.__setattr__(self, "label_shift", (2 * bound).bit_length())
        object.__setattr__(self, "vertex_bits", n.bit_length())

    @classmethod
    def build(cls, vertex_count: int, rows: Iterable[Row]) -> "DualWeightGraph":
        """Construct from (tail, head, w0, w1) rows such as ``Edge``s, converting
        weights exactly; their common denominator goes through
        :func:`check_scale` as it grows, before anything is scaled by it."""
        rows = [(t, h, as_rational(a), as_rational(b)) for t, h, a, b in rows]
        den = 1
        for _tail, _head, a, b in rows:
            den = check_scale(lcm(den, a.denominator, b.denominator), len(rows))
        tails, heads, *weights = zip(*rows) if rows else ((),) * 4
        w0, w1 = ([w.numerator * (den // w.denominator) for w in ws] for ws in weights)
        return cls(vertex_count, den, tails, heads, tuple(w0), tuple(w1))

    @derived
    def adjacency(self) -> Adjacency:
        """``adjacency[v]`` lists ``(head, w0, w1, edge id)`` for the edges
        leaving ``v`` in edge-id order: built on first use, so a graph that
        is only written out never pays for it."""
        out: list[list[tuple]] = [[] for _ in range(self.vertex_count)]
        entries = zip(self.heads, self.w0, self.w1, range(len(self.tails)))
        for tail, entry in zip(self.tails, entries):
            out[tail].append(entry)
        return tuple(map(tuple, out))

    @derived
    def reverse_adjacency(self) -> Adjacency:
        """``reverse_adjacency[v]`` lists ``(tail, w0, w1, edge id)`` for the
        edges entering ``v`` in edge-id order, the shape of ``adjacency``:
        built on first use, for searches toward a target."""
        into: list[list[tuple]] = [[] for _ in range(self.vertex_count)]
        entries = zip(self.tails, self.w0, self.w1, range(len(self.tails)))
        for head, entry in zip(self.heads, entries):
            into[head].append(entry)
        return tuple(map(tuple, into))

    @derived
    def edges(self) -> tuple[Edge, ...]:
        """The edges with ``Fraction`` weights, one shared per distinct value:
        derived on first use, for the reference code, which no build runs."""
        shared = {w: Fraction(w, self.den) for w in {*self.w0, *self.w1}}.__getitem__
        w0, w1 = map(shared, self.w0), map(shared, self.w1)
        return tuple(map(Edge, self.tails, self.heads, w0, w1))


def check_scale(den: int, edges: int) -> int:
    """``den``, unless as the common denominator of ``edges`` edges it would
    make their scaled weights pass ``MAX_SCALED_WEIGHT_BITS``."""
    if den > 1 and 2 * edges * den.bit_length() > MAX_SCALED_WEIGHT_BITS:
        raise WeightScaleError(
            f"weights need a common denominator of at least {den.bit_length()} "
            f"bits; {show_number(edges)} edges scaled by it pass the cap of "
            f"{MAX_SCALED_WEIGHT_BITS} bits"
        )
    return den


def validate_graph(graph: DualWeightGraph) -> None:
    """Reject anything but a graph: a graph's checks ran when it was built."""
    if not isinstance(graph, DualWeightGraph):
        raise TypeError(f"expected a DualWeightGraph, not {type(graph).__name__}")


def show_number(value: int | Fraction) -> str:
    """``str(value)``, or only its size past 128 bits: ``str`` refuses ints
    past 4300 digits, and an error message stays one short line."""
    p, q = value.numerator, value.denominator
    bits = abs(p).bit_length() + (q.bit_length() if q > 1 else 0)
    if bits <= 128:
        return str(value)
    return f"<a number of about {round(bits * log10(2))} digits>"


def validate_pair(graph: DualWeightGraph, source: int, target: int) -> None:
    """Reject a source or target that is not an int in ``0..vertex_count - 1``.

    Both raise GraphStructureError, the source checked first.  An id must be
    exactly an ``int``, as the graph's own columns must: a bool or another
    int subclass is refused like a float, since a search packs the id into
    its heap entries' low bits.  Without the range check a negative id
    would silently index from the end of the per-vertex arrays.
    """
    n = graph.vertex_count
    for role, vertex in (("source", source), ("target", target)):
        if type(vertex) is not int:
            raise GraphStructureError(
                f"{role} vertex is a {type(vertex).__name__:.40}, not an int"
            )
        if not 0 <= vertex < n:
            raise GraphStructureError(
                f"{role} vertex {show_number(vertex)} outside 0..{n - 1}"
            )


def _exact_ratio(lam: Fraction) -> tuple[int, int]:
    """``lam``'s numerator and denominator, or TypeError for a value
    without them, such as a float, a ``Decimal`` or a str."""
    try:
        return lam.numerator, lam.denominator
    except AttributeError:
        name = type(lam).__name__
        raise TypeError(f"lambda must be an exact rational, not {name}") from None


def validate_lambda(lam: Fraction) -> None:
    """Reject a parameter that is not an exact rational in [0, 1].

    Raises TypeError for a ``lam`` without a numerator and denominator,
    such as a float or a ``Decimal``, like :func:`as_rational`, and
    LambdaRangeError outside [0, 1]; values are never clamped.
    """
    p, q = _exact_ratio(lam)
    if not 0 <= p <= q:
        raise LambdaRangeError(f"lambda {show_number(lam)} outside [0, 1]")


# A path's edge ids in order, empty when source == target; a name for annotations.
Path = tuple[int, ...]


def path_vertices(graph: DualWeightGraph, path: Path, source: int) -> tuple[int, ...]:
    """Vertex sequence visited by ``path``, which starts at ``source``.

    ``source`` names the single vertex of an empty path.
    """
    return (source, *map(graph.heads.__getitem__, path))


class CostLine:
    """Cost of a fixed path as a linear function of the blend parameter.

    Characterized by its values ``c0`` and ``c1`` at the two endpoints;
    slope and interior values are derived.  Held as ints ``(m, s, d)``,
    ``d > 0``, worth ``(m + lam*s) / d`` at ``lam``: evaluating and
    comparing lines in this form takes a few int multiplications, which
    Python does in C, where ``Fraction`` operators reduce every
    intermediate result by a gcd.  The endpoint Fractions are built when
    read.  Equal lines compare and hash equal however they are scaled.
    """

    __slots__ = ("_scaled",)

    def __init__(self, c0: Fraction, c1: Fraction) -> None:
        a, b = c0.as_integer_ratio()
        c, d = c1.as_integer_ratio()
        m = a * d
        self._scaled = (m, c * b - m, b * d)

    @staticmethod
    def from_scaled(m: int, s: int, d: int) -> "CostLine":
        """The line worth ``(m + lam*s) / d`` at ``lam``, for ``d > 0``.

        A static method: every cost-line walk and checked search makes one, and a
        class method's binding costs about a fifth of the call."""
        line = object.__new__(CostLine)
        line._scaled = (m, s, d)
        return line

    @property
    def c0(self) -> Fraction:
        m, _s, d = self._scaled
        return _fraction(m, d)

    @property
    def c1(self) -> Fraction:
        m, s, d = self._scaled
        return _fraction(m + s, d)

    @property
    def slope(self) -> Fraction:
        _m, s, d = self._scaled
        return _fraction(s, d)

    def scaled(self) -> tuple[int, int, int]:
        """Integers ``(m, s, d)``, ``d > 0``, with ``value(lam) = (m + lam*s) / d``."""
        return self._scaled

    def value(self, lam: Fraction) -> Fraction:
        """The line at any exact rational ``lam``, TypeError as validate_lambda."""
        m, s, d = self._scaled
        p, q = _exact_ratio(lam)
        return _fraction(q * m + p * s, q * d)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CostLine):
            return NotImplemented
        (ma, sa, da), (mb, sb, db) = self._scaled, other._scaled
        return ma * db == mb * da and sa * db == sb * da

    def __hash__(self) -> int:
        return hash((self.c0, self.c1))

    def __repr__(self) -> str:
        return f"CostLine(c0={self.c0!r}, c1={self.c1!r})"


ZERO_LINE = CostLine(ZERO, ZERO)


def cost_line(graph: DualWeightGraph, path: Path) -> CostLine:
    """Sum the endpoint weights along ``path`` into its cost line.

    Raises MalformedPathError unless ``path`` is a contiguous simple path;
    a malformed edge sequence would silently produce a meaningless line
    otherwise.  Sums the graph's int weights, so the line comes out
    scaled by their common denominator.

    A path of two or more edges is checked with C-level gathers: one
    ``itemgetter`` call per column, a slice comparison for contiguity and
    one set for simplicity.  On any failure, an exception from a gather
    too, the edge-by-edge loop runs and names the first fault.  Any
    iterable of edge ids is read once, as a tuple.
    """
    path = tuple(path)
    if len(path) > 1:
        try:
            gather = itemgetter(*path)
            tails, heads = gather(graph.tails), gather(graph.heads)
            walk = set(heads)
            walk.add(tails[0])
            simple = min(path) >= 0 and len(walk) > len(path)
        except (IndexError, TypeError):
            simple = False
        if simple and tails[1:] == heads[:-1]:
            c0 = sum(gather(graph.w0))
            return CostLine.from_scaled(c0, sum(gather(graph.w1)) - c0, graph.den)
    tails, heads = graph.tails, graph.heads
    count = len(tails)
    seen: set[int] = set()
    prev_head: int | None = None
    for eid in path:
        if not 0 <= eid < count:
            raise MalformedPathError(f"edge id {eid} out of range")
        tail, head = tails[eid], heads[eid]
        if prev_head is None:
            seen.add(tail)
        elif tail != prev_head:
            raise MalformedPathError(
                f"edge {eid} starts at {tail}, expected {prev_head}"
            )
        if head in seen:
            raise MalformedPathError(f"vertex {head} repeated; path not simple")
        seen.add(head)
        prev_head = head
    c0 = sum(map(graph.w0.__getitem__, path))
    c1 = sum(map(graph.w1.__getitem__, path))
    return CostLine.from_scaled(c0, c1 - c0, graph.den)
