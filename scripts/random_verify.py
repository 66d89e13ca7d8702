#!/usr/bin/env python3
"""Mass cross-check of the builder against exhaustive enumeration.

Generates seeded random instances, builds each index, and compares the
result segment-for-segment with the brute-force envelope.  Each instance
is also written as graph-file text and parsed back, as the command line
reads it: the parsed graph must equal the generated one and build the same
segments.  Exits nonzero on the first mismatch and prints the instance so
it can be replayed.

    python3 scripts/random_verify.py --instances 5000 --seed 1
"""

from __future__ import annotations

import argparse
import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from parapath import (
    build_index_detailed,
    compare_envelopes,
    enumerate_paths,
    envelope_of_lines,
)
from parapath.graphio import format_graph, parse_graph

TESTS_DIR = Path(__file__).resolve().parent.parent / "tests"
sys.path.insert(0, str(TESTS_DIR))

from strategies import random_instance  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--instances", type=int, default=2000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--max-vertices", type=int, default=8)
    parser.add_argument("--max-edges", type=int, default=20)
    args = parser.parse_args(argv)

    rng = random.Random(args.seed)
    start = time.perf_counter()
    k_histogram: dict[int, int] = {}
    for i in range(args.instances):
        graph, source, target = random_instance(
            rng, max_vertices=args.max_vertices, max_edges=args.max_edges
        )
        result = build_index_detailed(graph, source, target)
        expected = envelope_of_lines(enumerate_paths(graph, source, target))
        report = compare_envelopes(result.index.segments, expected)
        parsed = parse_graph(format_graph(graph))
        if parsed != graph:
            report = "graph parsed from its own text differs"
        elif build_index_detailed(parsed, source, target) != result:
            report = "graph parsed from its own text builds other segments"
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
    elapsed = time.perf_counter() - start
    print(f"verified {args.instances} instances in {elapsed:.1f}s")
    print("k histogram:", dict(sorted(k_histogram.items())))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
