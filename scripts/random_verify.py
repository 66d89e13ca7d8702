#!/usr/bin/env python3
"""Mass cross-check of the builder against exhaustive enumeration.

Generates seeded random instances, builds each index, and compares the
result segment-for-segment with the brute-force envelope.  Each instance
is also written as graph-file text and parsed back, as the command line
reads it: the parsed graph must equal the generated one, adjacency
included, and so must the same text with a ``# c`` line after every edge
line and a blank line at the end, which the reader must drop, and it must
build the same segments.  Its index is written as an envelope file and
read back too: the loaded segments must keep the built ones' intervals
and lines and hold each witness's vertex walk, and the loaded index's
query columns must hold the built one's endpoint ints and lines.
``query()`` on the built index and on the one read back must answer the
brute-force envelope's minimum cost at 0, at 1, at each breakpoint (from
the leftmost segment there) and at each segment midpoint.  The builder
forced to prune its probes must build the same result too, both from its
usual depth of the bisection on and from the root on, for every random
instance and for tie-heavy 4x4 and 5x5 grids (weights 1..3), one per 100
instances and at least two, which are also checked against the
brute-force envelope.  Number spellings outside Python 3.10's
``Fraction`` grammar (``_``, inner whitespace, ``1.d``) must be refused
with its message.  Exits nonzero on the first mismatch and prints the
instance so it can be replayed.

    python3 scripts/random_verify.py --instances 5000 --seed 1
"""

from __future__ import annotations

import argparse
import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import parapath.envelope
from parapath import (
    CostLine,
    build_index_detailed,
    compare_envelopes,
    enumerate_paths,
    envelope_of_lines,
    query,
)
from parapath.graphio import (
    document_from_index,
    format_envelope,
    format_graph,
    parse_envelope,
    parse_graph,
)
from parapath.model import parse_rational, path_vertices

TESTS_DIR = Path(__file__).resolve().parent.parent / "tests"
sys.path.insert(0, str(TESTS_DIR))

from random_cases import random_grid, random_instance  # noqa: E402


# Fraction reads the first four on Python 3.11 or 3.12 and later, and 3.11
# and 3.12 refuse the last two with int()'s message; the program refuses
# each with Python 3.10's message.
REFUSED_SPELLINGS = ("1_000", "1 /2", "1/ 2", "1e1_0", "1.d", "1.dd")


def check_spellings() -> str | None:
    """Why a spelling in ``REFUSED_SPELLINGS`` is not refused as Python 3.10
    refuses it, or None."""
    for token in REFUSED_SPELLINGS:
        try:
            value = parse_rational(token)
        except ValueError as exc:
            if str(exc) == f"Invalid literal for Fraction: {token!r}":
                continue
            return f"the number spelling {token!r} is refused with {exc}"
        return f"the number spelling {token!r} reads as {value}, not refused"
    return None


def check_pruned(graph, source: int, target: int, result) -> str | None:
    """Why the builder forced to prune disagrees with ``result``, or None."""
    usual = parapath.envelope._PRUNE_FROM_DEPTH
    for depth in (usual, 0):
        parapath.envelope._PRUNE_FROM_DEPTH = depth
        try:
            pruned = build_index_detailed(graph, source, target, _prune=True)
        finally:
            parapath.envelope._PRUNE_FROM_DEPTH = usual
        if pruned != result:
            return f"the build pruned from depth {depth} differs from the unpruned one"
    return None


def check_parsed(graph, source: int, target: int, result) -> str | None:
    """Why the graph read back from its own text differs or builds another
    result, or None."""
    text = format_graph(graph)
    parsed = parse_graph(text)
    # ``==`` leaves the adjacency out, so it is compared too.
    if parsed != graph or parsed.adjacency != graph.adjacency:
        return "graph parsed from its own text differs"
    commented = "".join(
        f"{line}\n# c\n" if line.startswith("e ") else f"{line}\n"
        for line in text.splitlines()
    )
    again = parse_graph(commented + "\n")
    if again != parsed or again.adjacency != parsed.adjacency:
        return "the graph's text with comment and blank lines parses differently"
    if build_index_detailed(parsed, source, target) != result:
        return "graph parsed from its own text builds other segments"
    return None


def check_envelope_file(graph, index, loaded) -> str | None:
    """Why ``loaded``, ``index`` read back from its envelope file, differs,
    or None."""
    built = [(seg.lo, seg.hi, seg.line) for seg in index.segments]
    if [(seg.lo, seg.hi, seg.line) for seg in loaded.segments] != built:
        return "the envelope file holds other intervals or lines"
    walks = [path_vertices(graph, seg.path, index.source) for seg in index.segments]
    if [seg.vertices for seg in loaded.segments] != walks:
        return "the envelope file holds other walks"
    # The endpoints must agree in ints.  A built line is scaled by the
    # graph's common denominator and a loaded one by its endpoint values'
    # own, so the lines must agree as values.
    ours, theirs = (
        (nums, dens, [CostLine.from_scaled(*line) for line in lines])
        for nums, dens, lines in (index.query_columns, loaded.query_columns)
    )
    if theirs != ours:
        return "the loaded index holds other query columns"
    return None


def check_queries(index, loaded, expected) -> str | None:
    """Why ``query()`` on the built or the loaded index misses the oracle
    envelope ``expected``, or None: at 0, 1, each breakpoint and each
    segment midpoint the answer must be the envelope's minimum cost, from
    the leftmost segment that holds the parameter."""
    lams = [seg.lo for seg in expected] + [expected[-1].hi]
    lams += [(seg.lo + seg.hi) / 2 for seg in expected]
    for lam in lams:
        cost = min(seg.line.value(lam) for seg in expected)
        leftmost = next(i for i, seg in enumerate(expected) if lam <= seg.hi)
        for name, idx in (("built", index), ("loaded", loaded)):
            hit = query(idx, lam)
            if (hit.cost, hit.segment_index) != (cost, leftmost):
                return (f"query on the {name} index at {lam} answers cost "
                        f"{hit.cost} from segment {hit.segment_index}, "
                        f"not {cost} from {leftmost}")
    return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--instances", type=int, default=2000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--max-vertices", type=int, default=8)
    parser.add_argument("--max-edges", type=int, default=20)
    args = parser.parse_args(argv)
    grids = max(2, args.instances // 100)
    report = check_spellings()
    if report is not None:
        print(f"MISMATCH: {report}")
        return 1

    rng = random.Random(args.seed)
    start = time.perf_counter()
    k_histogram: dict[int, int] = {}
    for i in range(args.instances):
        graph, source, target = random_instance(
            rng, max_vertices=args.max_vertices, max_edges=args.max_edges
        )
        result = build_index_detailed(graph, source, target)
        expected = envelope_of_lines(enumerate_paths(graph, source, target))
        index = result.index
        loaded = parse_envelope(format_envelope(document_from_index(index, graph)))
        report = (
            compare_envelopes(index.segments, expected)
            or check_parsed(graph, source, target, result)
            or check_envelope_file(graph, index, loaded)
            or check_queries(index, loaded, expected)
            or check_pruned(graph, source, target, result)
        )
        if report is not None:
            print(f"MISMATCH on instance {i} ({source}->{target}): {report}")
            print(format_graph(graph))
            return 1
        k = result.index.k
        k_histogram[k] = k_histogram.get(k, 0) + 1
        budget = max(2, 2 * k - 1)
        if result.dijkstra_calls > budget:
            print(
                f"BUDGET EXCEEDED on instance {i}: {result.dijkstra_calls} > "
                f"max(2, 2*{k} - 1)"
            )
            print(format_graph(graph))
            return 1
    for i in range(grids):
        graph, source, target = random_grid(rng, 4 + i % 2)
        result = build_index_detailed(graph, source, target)
        expected = envelope_of_lines(enumerate_paths(graph, source, target))
        report = compare_envelopes(result.index.segments, expected)
        report = report or check_pruned(graph, source, target, result)
        if report is not None:
            print(f"MISMATCH on grid {i} ({source}->{target}): {report}")
            print(format_graph(graph))
            return 1
    elapsed = time.perf_counter() - start
    print(f"verified {args.instances} instances and {grids} grids in {elapsed:.1f}s")
    print("k histogram:", dict(sorted(k_histogram.items())))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
