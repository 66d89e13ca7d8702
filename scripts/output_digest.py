#!/usr/bin/env python3
"""One sha256 over the program's outputs, to show a change leaves them unchanged.

Run it on two source trees: equal digests mean equal outputs on this sweep.
It hashes, in this order:

- ``parapath build``'s exit code, stdout, stderr and ``.env`` bytes on
  ``chain_graph(b)`` for ``b`` in 1..``--chain-blocks``, and on the
  benchmark's grid-wide instance (``perfbench/instances.py``, read only)
  for seeds 1..``--grid-seeds``;
- the segments and ``dijkstra_calls`` of ``--instances`` seeded
  ``random_instance`` builds, each with pruning forced off and on;
- ``format_graph``'s text of the same chains and of ``--random-graphs``
  seeded ``random_graph`` parameter sets.

It needs only the standard library, so it runs under every supported
interpreter.

    python3 scripts/output_digest.py
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import io
import random
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))

from parapath import (  # noqa: E402
    build_index_detailed, chain_endpoints, chain_graph, random_graph,
)
from parapath.cli import main as cli_main  # noqa: E402
from parapath.graphio import format_graph  # noqa: E402
from random_cases import random_instance  # noqa: E402

WEIGHT_BOUNDS = ("10", "0.5", "1/3", "12.34", "0.01", Fraction(7, 4), "100")


def load_bench_instances():
    """``perfbench/instances.py`` as a module, loaded from its file."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_instances", ROOT / "perfbench" / "instances.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def build_outputs(text: str, source: int, target: int, workdir: Path) -> bytes:
    """The exit code, stdout, stderr and ``.env`` bytes of ``parapath build``
    on ``text``."""
    graph, env = workdir / "g.psp", workdir / "g.env"
    graph.write_text(text)
    env.unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    argv = ["build", str(graph), "--source", str(source), "--target", str(target),
            "--out", str(env)]
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(argv)
    written = env.read_bytes() if env.exists() else b"<no file>"
    return f"{code}\n{out.getvalue()}\n{err.getvalue()}\n".encode() + written


def build_record(graph, source: int, target: int, prune: bool) -> bytes:
    """The segments and search count of one build, one line each."""
    result = build_index_detailed(graph, source, target, _prune=prune)
    lines = [f"{seg.lo} {seg.hi} {seg.path} {seg.line.c0} {seg.line.c1}"
             for seg in result.index.segments]
    lines.append(f"dijkstra_calls={result.dijkstra_calls}")
    return "\n".join(lines).encode()


def digest(chain_blocks: int, grid_seeds: int, instances: int,
           random_graphs: int) -> str:
    sha = hashlib.sha256()

    def add(part: bytes) -> None:
        # Length-prefixed, so no two sweeps hash the same stream.
        sha.update(len(part).to_bytes(8, "big"))
        sha.update(part)

    bench = load_bench_instances()
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        for blocks in range(1, chain_blocks + 1):
            add(build_outputs(format_graph(chain_graph(blocks)),
                              *chain_endpoints(blocks), workdir))
        for seed in range(1, grid_seeds + 1):
            inst = bench.grid_instance(seed)
            add(build_outputs(bench.format_psp(inst), inst.source, inst.target, workdir))

    rng = random.Random(7)
    for _ in range(instances):
        graph, source, target = random_instance(rng)
        for prune in (False, True):
            add(build_record(graph, source, target, prune))

    for blocks in range(1, chain_blocks + 1):
        add(format_graph(chain_graph(blocks)).encode())
    rng = random.Random(11)
    for i in range(random_graphs):
        vertices = rng.randint(2, 40)
        edges = rng.randint(1, min(vertices * (vertices - 1), 200))
        bound = WEIGHT_BOUNDS[i % len(WEIGHT_BOUNDS)]
        graph = random_graph(vertices, edges, weight_max=bound, seed=rng.randrange(10**6))
        add(format_graph(graph).encode())
    return sha.hexdigest()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--chain-blocks", type=int, default=63)
    parser.add_argument("--grid-seeds", type=int, default=10)
    parser.add_argument("--instances", type=int, default=1200)
    parser.add_argument("--random-graphs", type=int, default=200)
    args = parser.parse_args(argv)
    print(digest(args.chain_blocks, args.grid_seeds, args.instances, args.random_graphs))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
