"""Point queries against a shortest-path index, built or read from a file.

A query runs in ints: the index holds its segments' right-endpoint
numerators and denominators and their scaled lines ``(m, s, d)``
(:attr:`~parapath.envelope.ShortestPathIndex.query_columns`, kept from the
segment check that ends its build or load).  ``lam`` is read once, as
``p/q`` from one ``as_integer_ratio()`` when it is a ``Fraction``; any other
type goes through :func:`~parapath.model.validate_lambda` first.  Lookup is
a binary search over the endpoints, instrumented so tests can pin the
comparison count to the logarithmic bound; each comparison cross-multiplies
ints, which Python does in C.  At a breakpoint the two adjacent lines agree
exactly; the leftmost containing segment is returned to keep outputs
deterministic.  The one ``Fraction`` a query builds is its cost,
``(q*m + p*s) / (q*d)`` reduced by one gcd in
:func:`~parapath.model._fraction`, which skips ``Fraction``'s argument
dispatch, and its :class:`QueryResult` is filled in by ``tuple.__new__``,
as ``namedtuple._make`` does: no Python-level constructor runs.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Sequence

from .model import CostLine, Path, _fraction, validate_lambda
from .envelope import ShortestPathIndex


class QueryResult(NamedTuple):
    """The answer at one ``lam``, an immutable named tuple.  ``path`` is
    the witness's edge-id tuple, None for an index read from an envelope
    file, whose segments hold vertex walks instead:
    ``index.segments[segment_index].vertices``."""

    segment_index: int
    path: Path | None
    line: CostLine
    cost: Fraction
    comparisons: int


_new = tuple.__new__  # builds a QueryResult from its five fields, as ``_make`` does


def locate_segment(
    nums: Sequence[int], dens: Sequence[int], p: int, q: int
) -> tuple[int, int]:
    """Index of the leftmost segment whose interval contains ``p/q``.

    The segment right endpoints, strictly increasing and the last being
    1, are ``nums[i] / dens[i]`` with ``dens[i] > 0``, as
    ``ShortestPathIndex.query_columns`` holds them, and ``q > 0``.  Each
    comparison is ``p * dens[i] <= nums[i] * q``.  Returns (index,
    comparison count).
    """
    lo, hi = 0, len(nums) - 1
    comparisons = 0
    while lo < hi:
        mid = (lo + hi) // 2
        comparisons += 1
        if p * dens[mid] <= nums[mid] * q:
            hi = mid
        else:
            lo = mid + 1
    return lo, comparisons


def query(index: ShortestPathIndex, lam: Fraction) -> QueryResult:
    """Optimal path, its line, and its exact cost at ``lam``.

    Raises as :func:`~parapath.model.validate_lambda` does for a ``lam``
    that is not an exact rational in [0, 1].
    """
    # A Fraction in [0, 1] is read once; any other value is checked first.
    p, q = lam.as_integer_ratio() if type(lam) is Fraction else (-1, 0)
    if not 0 <= p <= q:
        validate_lambda(lam)
        p, q = lam.numerator, lam.denominator
    nums, dens, lines = index.query_columns
    pos, comparisons = locate_segment(nums, dens, p, q)
    m, s, d = lines[pos]
    seg = index.segments[pos]
    return _new(QueryResult, (pos, seg.path, seg.line,
                              _fraction(q * m + p * s, q * d), comparisons))


def breakpoints(index: ShortestPathIndex) -> tuple[Fraction, ...]:
    """The interior segment boundaries, strictly increasing, each in (0, 1)."""
    return tuple(seg.hi for seg in index.segments[:-1])
