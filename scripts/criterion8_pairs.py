#!/usr/bin/env python3
"""Interleaved readings of acceptance criterion 8 on two source trees.

Each round runs ``tests/test_acceptance.py::test_criterion_8_scaling_benchmark``
once in each tree, as one pytest subprocess each, with the tree's own
``src`` first on ``PYTHONPATH``, and swaps which tree goes first every
round, so that a change in machine speed reaches both sides.  It reads the
per-unit spread the test prints, also when the test's 3x gate fails, and
prints every reading and each side's median.

    python3 scripts/criterion8_pairs.py PARENT_TREE CHANGE_TREE --rounds 12

Exits 1 if a run prints no spread.
"""

from __future__ import annotations

import argparse
import os
import re
import statistics
import subprocess
import sys
from pathlib import Path

TEST = "tests/test_acceptance.py::test_criterion_8_scaling_benchmark"
SPREAD = re.compile(r"criterion 8: .*spread (\d+(?:\.\d+)?)x")


def reading(tree: Path) -> float | None:
    """The spread one run of the test prints in ``tree``, or None."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-s", "-p", "no:cacheprovider", TEST],
        cwd=tree, env=env, capture_output=True, text=True,
    )
    found = SPREAD.search(run.stdout)
    return float(found.group(1)) if found else None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="the parent's source tree")
    parser.add_argument("change", type=Path, help="the change's source tree")
    parser.add_argument("--rounds", type=int, default=12, help="runs per side")
    args = parser.parse_args(argv)
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    readings: dict[str, list[float]] = {side: [] for side in sides}
    for i in range(args.rounds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            spread = reading(sides[side])
            if spread is None:
                print(f"round {i + 1} {side}: no spread printed", flush=True)
                return 1
            readings[side].append(spread)
            print(f"round {i + 1} {side}: {spread:.2f}", flush=True)
    for side, values in readings.items():
        shown = ", ".join(f"{v:.2f}" for v in values)
        print(f"{side}: median {statistics.median(values):.2f} over [{shown}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
