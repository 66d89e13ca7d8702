"""Point queries against a shortest-path index, built or read from a file.

Lookup is a binary search over segment right endpoints, instrumented so
tests can pin the comparison count to the logarithmic bound.  At a
breakpoint the two adjacent lines agree exactly; the leftmost containing
segment is returned to keep outputs deterministic.  Comparisons
cross-multiply numerators and denominators, which Python does in C,
instead of going through ``Fraction``'s operators.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .model import CostLine, Path, validate_lambda
from .envelope import ShortestPathIndex


@dataclass(frozen=True)
class QueryResult:
    """The answer at one ``lam``.  ``path`` is the witness's edge-id tuple,
    None for an index read from an envelope file, whose segments hold
    vertex walks instead: ``index.segments[segment_index].vertices``."""

    segment_index: int
    path: Path | None
    line: CostLine
    cost: Fraction
    comparisons: int


def locate_segment(
    upper_bounds: Sequence[Fraction], lam: Fraction
) -> tuple[int, int]:
    """Index of the leftmost segment whose interval contains ``lam``.

    ``upper_bounds`` are the strictly increasing segment right
    endpoints, the last being 1.  Returns (index, comparison count).
    """
    p, q = lam.numerator, lam.denominator
    lo, hi = 0, len(upper_bounds) - 1
    comparisons = 0
    while lo < hi:
        mid = (lo + hi) // 2
        comparisons += 1
        bound = upper_bounds[mid]
        if p * bound.denominator <= bound.numerator * q:
            hi = mid
        else:
            lo = mid + 1
    return lo, comparisons


def query(index: ShortestPathIndex, lam: Fraction) -> QueryResult:
    """Optimal path, its line, and its exact cost at ``lam``.

    Raises as :func:`~parapath.model.validate_lambda` does for a ``lam``
    that is not an exact rational in [0, 1].
    """
    validate_lambda(lam)
    pos, comparisons = locate_segment(index.upper_bounds, lam)
    seg = index.segments[pos]
    return QueryResult(pos, seg.path, seg.line, seg.line.value(lam), comparisons)


def breakpoints(index: ShortestPathIndex) -> tuple[Fraction, ...]:
    """The interior segment boundaries, strictly increasing, each in (0, 1)."""
    return index.upper_bounds[:-1]
