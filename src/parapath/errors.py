"""Exception types shared across the package.

The CLI maps each class to a stable exit code, so library code should
raise these rather than bare ValueError wherever a caller might need to
tell failure modes apart.
"""

from __future__ import annotations


class ParapathError(Exception):
    """Base class for all errors raised by this package."""


class WeightDomainError(ParapathError):
    """An edge weight is zero or negative (weights must be > 0)."""


class WeightScaleError(ParapathError):
    """The weights' common denominator makes the scaled weights too large."""


class GraphStructureError(ParapathError):
    """A vertex or edge reference is out of range or otherwise invalid."""


class MalformedPathError(ParapathError):
    """An edge sequence is not a contiguous simple path in the graph."""


class LambdaRangeError(ParapathError):
    """A query parameter lies outside the closed interval [0, 1]."""


class UnreachableError(ParapathError):
    """The target vertex cannot be reached from the source."""


class ParallelLinesError(ParapathError):
    """Two cost lines with equal slope have no unique intersection."""


class OracleScaleError(ParapathError):
    """The exhaustive enumeration would exceed its work budget."""


class GraphFormatError(ParapathError):
    """A graph file failed to parse.

    Carries the 1-based line number of the offending line when known.
    """

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class EnvelopeFormatError(ParapathError):
    """An envelope file is malformed or has an unsupported version."""


class GeneratorParameterError(ParapathError):
    """Instance generator parameters are infeasible."""


class NumberSizeError(ParapathError):
    """A number has too many digits for Python to write it in decimal."""
