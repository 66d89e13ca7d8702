"""Exact parametric shortest paths on linearly interpolated edge weights.

Given a digraph with two strictly positive weights per edge, the library
computes every distinct shortest path between a vertex pair as the blend
parameter sweeps [0, 1], stores them as a sorted interval index, and
answers point queries by binary search.  All arithmetic is exact
rational arithmetic.
"""

from .dijkstra import (
    MAX_SLOPE,
    MIN_SLOPE,
    dijkstra_extreme_slope,
    shortest_path_length,
)
from .envelope import (
    BuildResult,
    EnvelopeSegment,
    ShortestPathIndex,
    build_index,
    build_index_detailed,
    check_index_invariants,
)
from .errors import (
    EnvelopeFormatError,
    GeneratorParameterError,
    GraphFormatError,
    GraphStructureError,
    LambdaRangeError,
    MalformedPathError,
    OracleScaleError,
    ParallelLinesError,
    ParapathError,
    UnreachableError,
    WeightDomainError,
    WeightScaleError,
)
from .generators import chain_endpoints, chain_graph, random_graph
from .graphio import (
    document_from_index,
    read_envelope,
    read_graph,
    write_envelope,
    write_graph,
)
from .model import (
    CostLine,
    DualWeightGraph,
    Edge,
    Path,
    as_rational,
    cost_line,
    path_vertices,
    validate_graph,
)
from .oracle import compare_envelopes, enumerate_paths, envelope_of_lines
from .query import QueryResult, breakpoints, query

__version__ = "0.1.0"

__all__ = [
    "BuildResult",
    "CostLine",
    "DualWeightGraph",
    "Edge",
    "EnvelopeFormatError",
    "EnvelopeSegment",
    "GeneratorParameterError",
    "GraphFormatError",
    "GraphStructureError",
    "LambdaRangeError",
    "MalformedPathError",
    "MAX_SLOPE",
    "MIN_SLOPE",
    "OracleScaleError",
    "ParallelLinesError",
    "ParapathError",
    "Path",
    "QueryResult",
    "ShortestPathIndex",
    "UnreachableError",
    "WeightDomainError",
    "WeightScaleError",
    "as_rational",
    "breakpoints",
    "build_index",
    "build_index_detailed",
    "chain_endpoints",
    "chain_graph",
    "check_index_invariants",
    "compare_envelopes",
    "cost_line",
    "dijkstra_extreme_slope",
    "document_from_index",
    "enumerate_paths",
    "envelope_of_lines",
    "path_vertices",
    "query",
    "random_graph",
    "read_envelope",
    "read_graph",
    "shortest_path_length",
    "validate_graph",
    "write_envelope",
    "write_graph",
]
