"""Core graph, path, and cost-line types with exact rational arithmetic.

A dual-weight digraph carries two strictly positive weights per edge.
Blending them with a parameter ``lam`` in [0, 1] yields the interpolated
weight ``(1 - lam) * w0 + lam * w1``, so the cost of any fixed path is a
linear function of ``lam``.  Everything here is computed over
``fractions.Fraction`` so that comparisons of path costs and of
interval breakpoints are exact; all types are immutable after
construction and safe to share between threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable

from .errors import (
    GraphStructureError,
    LambdaRangeError,
    MalformedPathError,
    WeightDomainError,
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


def parse_rational(text: str) -> Fraction:
    """Parse a decimal ("0.25", "25e-2") or ratio ("1/4") string exactly.

    Raises ValueError (ZeroDivisionError for a zero denominator) like
    ``Fraction`` does, and also for a token longer than ``MAX_NUMBER_CHARS``
    or with a decimal exponent beyond ``MAX_DECIMAL_EXPONENT`` in size.
    """
    if len(text) > MAX_NUMBER_CHARS:
        raise ValueError(f"number longer than {MAX_NUMBER_CHARS} characters")
    _mantissa, marker, exponent = text.lower().partition("e")
    if marker and abs(int(exponent)) > MAX_DECIMAL_EXPONENT:
        raise ValueError(f"decimal exponent beyond {MAX_DECIMAL_EXPONENT}")
    return Fraction(text)


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


@dataclass(frozen=True)
class Edge:
    """Directed edge with its two endpoint weights."""

    tail: int
    head: int
    w0: Fraction
    w1: Fraction


@dataclass(frozen=True)
class DualWeightGraph:
    """Directed multigraph; parallel edges and self-loops are allowed.

    ``edges`` is the authoritative ordered edge list; edge ids are
    positions in it.
    """

    vertex_count: int
    edges: tuple[Edge, ...]

    @classmethod
    def build(
        cls,
        vertex_count: int,
        rows: Iterable[tuple[int, int, int | str | Fraction, int | str | Fraction]],
    ) -> "DualWeightGraph":
        """Construct from (tail, head, w0, w1) rows, converting weights exactly."""
        edges = tuple(
            Edge(tail, head, as_rational(w0), as_rational(w1))
            for tail, head, w0, w1 in rows
        )
        return cls(vertex_count, edges)

    @cached_property
    def _adjacency(self) -> tuple[tuple[int, ...], ...]:
        out: list[list[int]] = [[] for _ in range(self.vertex_count)]
        for eid, edge in enumerate(self.edges):
            out[edge.tail].append(eid)
        return tuple(tuple(ids) for ids in out)

    def out_edges(self, vertex: int) -> tuple[int, ...]:
        """Edge ids leaving ``vertex``, in edge-list order."""
        return self._adjacency[vertex]


def validate_graph(graph: DualWeightGraph) -> None:
    """Reject graphs with out-of-range endpoints or nonpositive weights."""
    n = graph.vertex_count
    if n < 1:
        raise GraphStructureError("graph needs at least one vertex")
    for eid, edge in enumerate(graph.edges):
        if not (0 <= edge.tail < n and 0 <= edge.head < n):
            raise GraphStructureError(
                f"edge {eid}: endpoint ({edge.tail}, {edge.head}) outside 0..{n - 1}"
            )
        if edge.w0 <= 0 or edge.w1 <= 0:
            raise WeightDomainError(
                f"edge {eid}: weights must be strictly positive, got "
                f"({edge.w0}, {edge.w1})"
            )


def validate_pair(graph: DualWeightGraph, source: int, target: int) -> None:
    """Reject a source or target outside ``0..vertex_count - 1``.

    Without this a negative id would silently index from the end of the
    per-vertex arrays.
    """
    n = graph.vertex_count
    for role, vertex in (("source", source), ("target", target)):
        if not 0 <= vertex < n:
            raise GraphStructureError(f"{role} vertex {vertex} outside 0..{n - 1}")


@dataclass(frozen=True)
class Path:
    """A path stored as an ordered tuple of edge ids; empty means source==target."""

    edges: tuple[int, ...]


EMPTY_PATH = Path(())


def check_path(graph: DualWeightGraph, path: Path) -> None:
    """Raise MalformedPathError unless ``path`` is a contiguous simple path."""
    seen: set[int] = set()
    prev_head: int | None = None
    for eid in path.edges:
        if not (0 <= eid < len(graph.edges)):
            raise MalformedPathError(f"edge id {eid} out of range")
        edge = graph.edges[eid]
        if prev_head is not None and edge.tail != prev_head:
            raise MalformedPathError(
                f"edge {eid} starts at {edge.tail}, expected {prev_head}"
            )
        if prev_head is None:
            seen.add(edge.tail)
        if edge.head in seen:
            raise MalformedPathError(f"vertex {edge.head} repeated; path not simple")
        seen.add(edge.head)
        prev_head = edge.head


def path_vertices(graph: DualWeightGraph, path: Path, source: int) -> tuple[int, ...]:
    """Vertex sequence visited by ``path``, which starts at ``source``.

    ``source`` names the single vertex of an empty path.
    """
    verts = [source]
    for eid in path.edges:
        verts.append(graph.edges[eid].head)
    return tuple(verts)


@dataclass(frozen=True)
class CostLine:
    """Cost of a fixed path as a linear function of the blend parameter.

    Characterized by its values at the two endpoints; slope and
    interior values are derived.
    """

    c0: Fraction
    c1: Fraction

    @property
    def slope(self) -> Fraction:
        return self.c1 - self.c0

    def scaled(self) -> tuple[int, int, int]:
        """Integers ``(m, s, d)``, ``d > 0``, with ``value(lam) = (m + lam*s) / d``.

        Evaluating and comparing lines in this form takes a few int
        multiplications, which Python does in C, where ``Fraction``
        operators reduce every intermediate result by a gcd.
        """
        a, b = self.c0.numerator, self.c0.denominator
        c, d = self.c1.numerator, self.c1.denominator
        m = a * d
        return m, c * b - m, b * d

    def value(self, lam: Fraction) -> Fraction:
        m, s, d = self.scaled()
        p, q = lam.numerator, lam.denominator
        return Fraction(q * m + p * s, q * d)


ZERO_LINE = CostLine(ZERO, ZERO)


def interpolate_weight(graph: DualWeightGraph, edge_id: int, lam: Fraction) -> Fraction:
    """Exact blended weight of one edge at parameter ``lam`` in [0, 1]."""
    if not (ZERO <= lam <= ONE):
        raise LambdaRangeError(f"lambda {lam} outside [0, 1]")
    if not (0 <= edge_id < len(graph.edges)):
        raise GraphStructureError(f"edge id {edge_id} out of range")
    edge = graph.edges[edge_id]
    return (ONE - lam) * edge.w0 + lam * edge.w1


def cost_line(graph: DualWeightGraph, path: Path) -> CostLine:
    """Sum the endpoint weights along ``path`` into its cost line.

    Validates contiguity; a malformed edge sequence would silently
    produce a meaningless line otherwise.
    """
    check_path(graph, path)
    c0 = ZERO
    c1 = ZERO
    for eid in path.edges:
        edge = graph.edges[eid]
        c0 += edge.w0
        c1 += edge.w1
    return CostLine(c0, c1)
