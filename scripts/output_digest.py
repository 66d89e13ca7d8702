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
  seeded ``random_graph`` parameter sets;
- ``parapath query``'s exit code, stdout and stderr at 0, 1, every
  breakpoint and every segment midpoint, and ``parapath export-plot``'s
  exit code, stdout, stderr and CSV bytes, on the ``.env`` files built
  from ``chain_graph(1)``, ``(3)`` and ``(6)`` and grid-wide seeds 1-3;
- the same two commands on ``--edits`` seeded edits of those files: two
  in three change one to four characters, three in four at a digit or
  slash, the rest change one to three
  JSON fields (a value set, a digit changed, a key removed, or a segment
  dropped, copied or swapped);
- ``parapath``'s exit code, stdout, stderr and written file on each argv of
  ``cli_corpus``: ``-h`` before and after each command, one valid call of
  each command, and the usage errors around it;
- ``parapath query`` on each of ``refused_envelopes``, edits of
  ``chain_graph(1)``'s file that once gave Python's own error text (a value
  of the wrong JSON type, a JSON syntax error, an int or a token past the
  int digit limit); ``parapath query`` at a ``--lambda``, and ``parapath
  build`` on a weight, one digit past that limit; and the exception class and
  message ``dijkstra_extreme_slope`` raises in each mode for each of
  ``REFUSED_SEARCHES``;
- ``parapath query`` and ``parapath export-plot`` on ``unknown_field_edits``
  of each reader file: one edit adds a field the writer never writes to the
  document, and one more per record adds one to that record;
- library ``query`` results (type, segment index, path, scaled line, cost
  and comparison count) on the built and the loaded index of
  ``chain_graph(1)``, ``(3)``, ``(6)`` and ``(63)`` and grid-wide seeds 1-3,
  at 0, 1, every breakpoint, every segment midpoint and 2**-80 either side
  of each breakpoint, with the cost's type and ``hash`` and the result
  line's ``c0``, ``c1``, ``slope`` and ``value(lam)``, each with its type
  and ``hash``, and the exception class and message ``query`` raises
  for each of ``REFUSED_LAMBDAS``.

Help text is laid out for ``COLUMNS=80``, whatever the terminal.  It needs only the standard library, so it runs under every supported
interpreter.

    python3 scripts/output_digest.py
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import os
import random
import sys
import tempfile
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))

from parapath import (  # noqa: E402
    build_index, build_index_detailed, chain_endpoints, chain_graph, document_from_index,
    query, random_graph,
)
from parapath.cli import main as cli_main  # noqa: E402
from parapath.dijkstra import MAX_SLOPE, MIN_SLOPE, dijkstra_extreme_slope  # noqa: E402
from parapath.graphio import (  # noqa: E402
    format_envelope, format_fraction, format_graph, parse_envelope, parse_graph,
    read_envelope,
)
from random_cases import random_instance  # noqa: E402

WEIGHT_BOUNDS = ("10", "0.5", "1/3", "12.34", "0.01", Fraction(7, 4), "100")
READER_CHAINS = (1, 3, 6)
READER_GRID_SEEDS = (1, 2, 3)
EDIT_CHARS = '{}[]":,0123456789/ -.\nlohicvertsk'
# Non-ASCII digits (``int()`` reads "\u0661" as 1) and a sign reach the reader's
# str-method check as well as its regex.
EDIT_VALUES = ("0/2", "2/4", "1/0", "01/2", "1/2 ", "x", "", -1, 0, 3, None, [], [0, 1],
               "\u0661/\u0662", "\u00b2/3", "\uff11/\uff12", "+1/2")
PLOT_SAMPLES = 17
QUERY_CHAINS = (1, 3, 6, 63)
TINY = Fraction(1, 2**80)


class FractionSub(Fraction):
    """A ``Fraction`` subclass, to hash how ``query`` refuses one."""


REFUSED_LAMBDAS = (0.5, Decimal("0.5"), "1/2", None, Fraction(3, 2), Fraction(-1, 2),
                   2, FractionSub(3, 2))
# (lam, source, target) on chain_graph(1), whose vertices are 0..3.
REFUSED_SEARCHES = ((0.5, 0, 3), (Fraction(3, 2), 0, 3), (Fraction(1, 2), True, 3),
                    (Fraction(1, 2), 0, 4), (Fraction(1, 2), 0.0, 3))


def cli_corpus(graph: str, env: str, out: str) -> list[list[str]]:
    """Argvs around one valid call of each command, on a graph file whose
    path runs from vertex 0 to 3, its envelope file, and a file to write:
    no command, an unknown one, ``-h`` before and after each command, the
    call itself, with ``-h`` added, with its last (required) option left
    out, with an unknown option, with an extra positional, with ``--``
    before and after its arguments, and ``--lam`` for ``--lambda``."""
    pair = ["--source", "0", "--target", "3"]
    calls = {
        "build": [graph, *pair, "--out", out],
        "query": [env, "--lambda", "1/2"],
        "verify": [graph, *pair],
        "gen": ["random", "--out", out],
        "export-plot": [env, "--samples", "3", "--out", out],
        "sssp": [graph, *pair, "--lambda", "1/2"],
    }
    argvs = [[], ["-h"], ["--help"], ["bench"], ["bench", "-h"], ["--bogus", "query"]]
    for name, args in calls.items():
        argvs += [
            [name], [name, "-h"], ["-h", name], [name, *args], [name, *args, "-h"],
            [name, *args[:-2]], [name, *args, "--bogus"], [name, "--bogus", "1", *args],
            [name, *args, "extra"], [name, "extra", *args], [name, "--", *args],
            [name, *args, "--"],
        ]
    argvs += [["query", env, "--lam", "1/2"], ["query", env, "--lambda"],
              ["sssp", graph, *pair, "--lam", "0", "--mode", "max"],
              ["build", graph, "--source", "x", "--target", "3", "--out", out],
              ["gen", "nope", "--out", out], ["export-plot", env, "--samples", "two"]]
    return argvs


def refused_envelopes(text: str) -> list[str]:
    """Edits of the envelope ``text`` that the reader refuses: values of the
    wrong JSON type where a document, a list, a record, a token or a header
    int belongs, a trailing comma, and an int and a token past Python's int
    digit limit."""
    huge = "1" * (sys.get_int_max_str_digits() + 1)
    texts = [json.dumps(value) for value in ([1, 2], "doc", 3, None)]
    for key, value in (("segments", "abc"), ("segments", {"lo": "0/1"}),
                       ("segments", 3), ("format", {}), ("k", [2])):
        texts.append(json.dumps({**json.loads(text), key: value}))
    for field, value in (("record", "abc"), ("record", [1]), ("lo", [0, 1]),
                         ("hi", 1), ("c0", None), ("c1", {"p": 1}), ("lo", 0.5),
                         ("c0", huge + "/1"), ("c1", "1/" + huge)):
        payload = json.loads(text)
        if field == "record":
            payload["segments"][0] = value
        else:
            payload["segments"][0][field] = value
        texts.append(json.dumps(payload))
    texts.append(text.replace("]", ",]", 1))
    texts.append(text.replace('"vertices": [', f'"vertices": [{huge}, ', 1))
    return texts


def unknown_field_edits(text: str) -> list[str]:
    """The envelope ``text`` with a field the writer never writes added:
    ``"note": "x"`` to the document, then ``"x": null`` to each record alone."""
    payload = json.loads(text)
    texts = [json.dumps({**payload, "note": "x"})]
    for seg in payload["segments"]:
        seg["x"] = None
        texts.append(json.dumps(payload))
        del seg["x"]
    return texts


def load_bench_instances():
    """``perfbench/instances.py`` as a module, loaded from its file."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_instances", ROOT / "perfbench" / "instances.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def cli_outputs(argv: list[str], written: Path | None = None) -> bytes:
    """The exit code, stdout and stderr of ``parapath`` on ``argv``, and the
    bytes of the file it was asked to write."""
    if written is not None:
        written.unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli_main(argv)
        except SystemExit as exc:  # a usage error or a help text
            code = exc.code
    result = f"{code}\n{out.getvalue()}\n{err.getvalue()}\n".encode()
    if written is not None:
        result += written.read_bytes() if written.exists() else b"<no file>"
    return result


def build_outputs(text: str, source: int, target: int, workdir: Path) -> bytes:
    """The exit code, stdout, stderr and ``.env`` bytes of ``parapath build``
    on ``text``."""
    graph, env = workdir / "g.psp", workdir / "g.env"
    graph.write_text(text)
    argv = ["build", str(graph), "--source", str(source), "--target", str(target),
            "--out", str(env)]
    return cli_outputs(argv, env)


def reader_outputs(env: Path, lams: list[str], workdir: Path) -> bytes:
    """``parapath query`` at each of ``lams`` and ``parapath export-plot`` on
    ``env``, one after the other, with ``workdir`` named ``<workdir>``."""
    parts = [cli_outputs(["query", str(env), "--lambda", lam]) for lam in lams]
    csv = workdir / "plot.csv"
    argv = ["export-plot", str(env), "--samples", str(PLOT_SAMPLES), "--out", str(csv)]
    parts.append(cli_outputs(argv, csv))
    return b"\n".join(parts).replace(str(workdir).encode(), b"<workdir>")


def probe_lambdas(env: Path) -> list[str]:
    """0, 1, every breakpoint and every segment midpoint of a built file."""
    segments = read_envelope(env).segments
    lams = [Fraction(0), Fraction(1), *(seg.hi for seg in segments[:-1])]
    lams += [(seg.lo + seg.hi) / 2 for seg in segments]
    return [format_fraction(lam) for lam in lams]


def character_edit(rng: random.Random, text: str) -> str:
    """``text`` with one to four characters inserted, deleted or replaced,
    three in four at a digit or slash, so a number changes and the JSON holds."""
    for _ in range(rng.randint(1, 4)):
        digits = [i for i, ch in enumerate(text) if ch in "0123456789/"]
        at = rng.choice(digits) if digits and rng.random() < 0.75 else None
        at = rng.randint(0, len(text)) if at is None else at
        new = rng.choice(["", *EDIT_CHARS])
        cut = rng.randint(0, 1) if at < len(text) else 0
        text = text[:at] + new + text[at + cut:]
    return text


def field_edit(rng: random.Random, text: str) -> str:
    """``text`` with one to three JSON fields changed; values are drawn from
    the document's own numbers too, so a ``lo`` can be spelled as some
    other segment's ``hi``."""
    payload = json.loads(text)
    segments = payload["segments"]
    numbers = sorted({seg[key] for seg in segments for key in ("lo", "hi", "c0", "c1")})
    for _ in range(rng.randint(1, 3)):
        action = rng.choice(["set", "set", "digit", "delete", "segments"])
        target = rng.choice([payload, *segments, *segments])
        key = rng.choice(sorted(target) or ["lo"])
        if action == "set":
            target[key] = rng.choice([rng.choice(numbers), rng.choice(EDIT_VALUES)])
        elif action == "digit" and isinstance(target.get(key), str) and target[key]:
            at = rng.randrange(len(target[key]))
            value = target[key]
            target[key] = value[:at] + rng.choice("0123456789/") + value[at + 1:]
        elif action == "delete":
            target.pop(key, None)
        elif segments:
            i = rng.randrange(len(segments))
            edit = rng.choice(["drop", "copy", "swap"])
            if edit == "drop":
                del segments[i]
            elif edit == "copy":
                segments.insert(i, json.loads(json.dumps(segments[i])))
            else:
                j = rng.randrange(len(segments))
                segments[i], segments[j] = segments[j], segments[i]
    return json.dumps(payload, indent=rng.choice([None, 2]))


def exact(value) -> str:
    """A rational's type, value and ``hash``, which a digest compares."""
    kind = f"{type(value).__module__}.{type(value).__qualname__}"
    return f"{kind}:{value.numerator}/{value.denominator}#{hash(value)}"


def query_outputs(graph, source: int, target: int) -> bytes:
    """Library ``query`` on the built and the loaded index of one instance,
    one line per answer, then one line per refused parameter."""
    built = build_index(graph, source, target)
    loaded = parse_envelope(format_envelope(document_from_index(built, graph)))
    segments = built.segments
    points = [seg.hi for seg in segments[:-1]]
    lams = [Fraction(0), Fraction(1), *points]
    lams += [(seg.lo + seg.hi) / 2 for seg in segments]
    lams += [b + e for b in points for e in (-TINY, TINY)]
    lines = []
    for index in (built, loaded):
        for lam in lams:
            r = query(index, lam)
            line = r.line
            values = map(exact, (r.cost, line.c0, line.c1, line.slope, line.value(lam)))
            lines.append(f"{type(r).__name__} {r.segment_index} {r.path} "
                         f"{line.scaled()} {' '.join(values)} {r.comparisons}")
        for lam in REFUSED_LAMBDAS:
            try:
                query(index, lam)
                lines.append(f"{lam!r} accepted")
            except Exception as exc:
                lines.append(f"{lam!r} {type(exc).__name__}: {exc}")
    return "\n".join(lines).encode()


def build_record(graph, source: int, target: int, prune: bool) -> bytes:
    """The segments and search count of one build, one line each."""
    result = build_index_detailed(graph, source, target, _prune=prune)
    lines = [f"{seg.lo} {seg.hi} {seg.path} {seg.line.c0} {seg.line.c1}"
             for seg in result.index.segments]
    lines.append(f"dijkstra_calls={result.dijkstra_calls}")
    return "\n".join(lines).encode()


def digest(chain_blocks: int, grid_seeds: int, instances: int,
           random_graphs: int, edits: int) -> str:
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
            text = bench.format_psp(inst)
            add(build_outputs(text, inst.source, inst.target, workdir))

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
        seed = rng.randrange(10**6)
        graph = random_graph(vertices, edges, weight_max=bound, seed=seed)
        add(format_graph(graph).encode())

    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        bases = []  # (text, lambdas) of each built reader file
        env = workdir / "g.env"
        for blocks in READER_CHAINS:
            build_outputs(format_graph(chain_graph(blocks)),
                          *chain_endpoints(blocks), workdir)
            bases.append((env.read_text(), probe_lambdas(env)))
        for seed in READER_GRID_SEEDS:
            inst = bench.grid_instance(seed)
            build_outputs(bench.format_psp(inst), inst.source, inst.target, workdir)
            bases.append((env.read_text(), probe_lambdas(env)))
        edited = workdir / "edited.env"
        for text, lams in bases:
            edited.write_text(text)
            add(reader_outputs(edited, lams, workdir))
        rng = random.Random(13)
        for i in range(edits):
            text, lams = rng.choice(bases)
            edit = character_edit if i % 3 else field_edit
            edited.write_text(edit(rng, text))
            add(reader_outputs(edited, [rng.choice(lams)], workdir))

        build_outputs(format_graph(chain_graph(1)), *chain_endpoints(1), workdir)
        out = workdir / "out"
        for argv in cli_corpus(str(workdir / "g.psp"), str(env), str(out)):
            add(cli_outputs(argv, out).replace(str(workdir).encode(), b"<workdir>"))

        for text in refused_envelopes(bases[0][0]):
            edited.write_text(text)
            add(reader_outputs(edited, ["1/4"], workdir))
        huge = "1" * (sys.get_int_max_str_digits() + 1)
        add(reader_outputs(env, [f"{huge}/3"], workdir))
        add(build_outputs(f"psp 2 1\ne 0 1 1 {huge}\n", 0, 1, workdir))
        for text, lams in bases:
            for edit in unknown_field_edits(text):
                edited.write_text(edit)
                add(reader_outputs(edited, lams[:1], workdir))
    graph = chain_graph(1)
    for lam, source, target in REFUSED_SEARCHES:
        for mode in (MIN_SLOPE, MAX_SLOPE):
            try:
                dijkstra_extreme_slope(graph, lam, source, target, mode)
                add(b"accepted")
            except Exception as exc:
                add(f"{type(exc).__name__}: {exc}".encode())

    for blocks in QUERY_CHAINS:
        add(query_outputs(chain_graph(blocks), *chain_endpoints(blocks)))
    for seed in READER_GRID_SEEDS:
        inst = bench.grid_instance(seed)
        graph = parse_graph(bench.format_psp(inst))
        add(query_outputs(graph, inst.source, inst.target))
    return sha.hexdigest()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--chain-blocks", type=int, default=63)
    parser.add_argument("--grid-seeds", type=int, default=10)
    parser.add_argument("--instances", type=int, default=1200)
    parser.add_argument("--random-graphs", type=int, default=200)
    parser.add_argument("--edits", type=int, default=6000)
    args = parser.parse_args(argv)
    os.environ["COLUMNS"] = "80"  # argparse lays help out for the terminal's width
    print(digest(args.chain_blocks, args.grid_seeds, args.instances, args.random_graphs,
                 args.edits))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
