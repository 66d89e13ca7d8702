"""Command-line interface.

Exit codes are a stable contract: 0 success, 2 bad input (parse errors,
invalid weights, infeasible generator parameters), 3 unreachable target,
4 query parameter out of range, 5 envelope-vs-oracle mismatch, 6 graph
too large for the exhaustive oracle (over its work budget).
"""

from __future__ import annotations

import argparse
import decimal
import functools
import sys
from fractions import Fraction

from . import envelope, generators, graphio, oracle
from .dijkstra import MAX_SLOPE, MIN_SLOPE, dijkstra_extreme_slope
from .errors import (
    LambdaRangeError,
    OracleScaleError,
    ParapathError,
    UnreachableError,
)
from .model import _fraction, parse_rational, path_vertices, validate_graph
from .query import locate_segment, query

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_UNREACHABLE = 3
EXIT_LAMBDA = 4
EXIT_MISMATCH = 5
EXIT_ORACLE_SCALE = 6

_PLOT_CONTEXT = decimal.Context(prec=12)
# Plot time and memory grow linearly with the sample count.
MAX_PLOT_SAMPLES = 1_000_000


def _fail(code: int, message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _parse_lambda(text: str) -> Fraction:
    try:
        return parse_rational(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise LambdaRangeError(
            f"cannot parse lambda {text!r:.40}: {exc!s:.150}"
        ) from None


def _int(text: str) -> int:
    """``int``, refusing with the token cut to 40 characters, as argparse would not."""
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r:.40}") from None


def _twelve_digits(value: Fraction) -> str:
    return str(_PLOT_CONTEXT.divide(value.numerator, value.denominator))


def _load_graph(path: str) -> "graphio.DualWeightGraph":
    graph = graphio.read_graph(path)
    validate_graph(graph)
    return graph


def cmd_build(args: argparse.Namespace) -> int:
    graph = _load_graph(args.graph)
    result = envelope.build_index_detailed(graph, args.source, args.target)
    graphio.write_envelope(graphio.document_from_index(result.index, graph), args.out)
    k = result.index.k
    print(f"k={k} breakpoints={k - 1} dijkstra_calls={result.dijkstra_calls}")
    return EXIT_OK


def cmd_query(args: argparse.Namespace) -> int:
    index = graphio.read_envelope(args.envelope)
    hit = query(index, _parse_lambda(args.lam))
    seg = index.segments[hit.segment_index]
    verts = ",".join(map(str, seg.vertices))
    print(
        f"cost={graphio.format_fraction(hit.cost)} path={verts} "
        f"segment=[{graphio.format_fraction(seg.lo)},{graphio.format_fraction(seg.hi)}]"
    )
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    graph = _load_graph(args.graph)
    # Oracle first: its budget refuses a huge graph unbuilt.  The build then
    # exits 3 on an unreachable target, before an empty envelope of lines.
    lines = oracle.enumerate_paths(graph, args.source, args.target)
    index = envelope.build_index(graph, args.source, args.target)
    expected = oracle.envelope_of_lines(lines)
    report = oracle.compare_envelopes(index.segments, expected)
    if report is not None:
        return _fail(EXIT_MISMATCH, f"envelope mismatch: {report}")
    print(f"VERIFIED k={index.k}")
    return EXIT_OK


def cmd_gen(args: argparse.Namespace) -> int:
    if args.kind == "random":
        graph = generators.random_graph(
            args.vertices, args.edges, weight_max=args.weight_max, seed=args.seed
        )
        note = f"random n={args.vertices} m={args.edges} seed={args.seed}"
    else:
        graph = generators.chain_graph(args.blocks)
        src, dst = generators.chain_endpoints(args.blocks)
        note = f"gadget-chain blocks={args.blocks} source={src} target={dst}"
    graphio.write_graph(graph, args.out, comments=[note])
    print(f"wrote {args.out} vertices={graph.vertex_count} edges={len(graph.tails)}")
    return EXIT_OK


def cmd_export_plot(args: argparse.Namespace) -> int:
    if not 2 <= args.samples <= MAX_PLOT_SAMPLES:
        return _fail(EXIT_INPUT, f"--samples must be in 2..{MAX_PLOT_SAMPLES}")
    index = graphio.read_envelope(args.envelope)
    grid = {_fraction(j, args.samples - 1) for j in range(args.samples)}
    interior = {seg.hi for seg in index.segments[:-1]}
    nums, dens, _ = index.query_columns
    rows: list[str] = ["lambda,cost,segment_index"]
    for lam in sorted(grid | interior):
        pos, _ = locate_segment(nums, dens, *lam.as_integer_ratio())
        positions = [pos]
        if lam in interior:
            positions.append(pos + 1)  # breakpoint belongs to both neighbors
        for p in positions:
            cost = index.segments[p].line.value(lam)
            rows.append(f"{_twelve_digits(lam)},{_twelve_digits(cost)},{p}")
    with open(args.out, "w") as file:
        file.write("\n".join(rows) + "\n")
    print(f"wrote {args.out} rows={len(rows) - 1}")
    return EXIT_OK


def cmd_sssp(args: argparse.Namespace) -> int:
    graph = _load_graph(args.graph)
    lam = _parse_lambda(args.lam)
    path, line = dijkstra_extreme_slope(graph, lam, args.source, args.target, args.mode)
    verts = ",".join(str(v) for v in path_vertices(graph, path, source=args.source))
    print(
        f"length={graphio.format_fraction(line.value(lam))} "
        f"slope={graphio.format_fraction(line.slope)} "
        f"c0={graphio.format_fraction(line.c0)} "
        f"c1={graphio.format_fraction(line.c1)} path={verts}"
    )
    return EXIT_OK


_PAIR = (("--source", dict(type=_int, required=True, help="source vertex id")),
         ("--target", dict(type=_int, required=True, help="target vertex id")))
_LAMBDA = dict(dest="lam", required=True)

# Each command's help line, handler and arguments (``add_argument``'s name
# and keywords), in the order ``-h`` lists them.
COMMANDS = {
    "build": ("build the envelope index for a graph file", cmd_build, (
        ("graph", {}), *_PAIR,
        ("--out", dict(required=True, help="envelope file to write")),
    )),
    "query": ("evaluate an envelope file at one parameter", cmd_query, (
        ("envelope", {}), ("--lambda", dict(_LAMBDA, help="parameter in [0, 1]")),
    )),
    "verify": ("cross-check the builder against enumeration", cmd_verify, (
        ("graph", {}), *_PAIR,
    )),
    "gen": ("write a generated instance to a graph file", cmd_gen, (
        ("kind", dict(choices=["random", "gadget-chain"])),
        ("--out", dict(required=True)),
        ("--seed", dict(type=_int, default=0)),
        ("--vertices", dict(type=_int, default=6, help="random: vertex count")),
        ("--edges", dict(type=_int, default=10, help="random: edge count")),
        ("--weight-max", dict(default="10", help="random: weight upper bound")),
        ("--blocks", dict(type=_int, default=1, help="gadget-chain: block count")),
    )),
    "export-plot": ("sample an envelope file to CSV for plotting", cmd_export_plot, (
        ("envelope", {}), ("--samples", dict(type=_int, required=True)),
        ("--out", dict(required=True)),
    )),
    "sssp": ("debug: one slope-extremal shortest-path run", cmd_sssp, (
        ("graph", {}), *_PAIR, ("--lambda", _LAMBDA),
        ("--mode", dict(choices=[MIN_SLOPE, MAX_SLOPE], default=MIN_SLOPE)),
    )),
}
# The arguments that name files.  The OS cannot open a name holding NUL.
PATH_ARGUMENTS = ("graph", "envelope", "out")


def _define(parser: argparse.ArgumentParser, name: str) -> argparse.ArgumentParser:
    _help, handler, arguments = COMMANDS[name]
    for flag, options in arguments:
        parser.add_argument(flag, **options)
    parser.set_defaults(handler=handler)
    return parser


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The full argument parser, one subparser per command, built once per process.

    ``main`` needs it only for ``-h`` before a command, a missing or unknown
    command, ``--``, or arguments a command's own parser leaves over: it
    writes those help texts and usage errors.
    """
    parser = argparse.ArgumentParser(
        prog="parapath",
        description=(
            "Exact shortest-path maps for digraphs whose edge weights blend "
            "linearly between two endpoint weightings."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, _handler, _arguments) in COMMANDS.items():
        _define(sub.add_parser(name, help=help_line), name)
    return parser


@functools.cache
def command_parser(name: str) -> argparse.ArgumentParser:
    """The parser of command ``name`` alone, built on first use.

    It equals ``build_parser()``'s subparser for ``name``, so it writes the
    same help and the same errors, and building it takes a fraction of the
    time the full tree takes.
    """
    return _define(argparse.ArgumentParser(prog=f"parapath {name}"), name)


def _parse(argv: list[str]) -> argparse.Namespace:
    """``build_parser().parse_args(argv)``, through the command's own parser
    when ``argv`` starts with a command name and holds no ``--``, whose path
    to a subparser has changed between Python releases."""
    if argv and argv[0] in COMMANDS and "--" not in argv:
        args, rest = command_parser(argv[0]).parse_known_args(argv[1:])
        if not rest:
            return args
    # The full tree names what is left over, with its own usage line.
    return build_parser().parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    for path in map(vars(args).get, PATH_ARGUMENTS):
        if path is not None and "\0" in path:
            return _fail(EXIT_INPUT, f"a path cannot hold a NUL byte: {path!r:.40}")
    try:
        return args.handler(args)
    except UnreachableError as exc:
        return _fail(EXIT_UNREACHABLE, str(exc))
    except LambdaRangeError as exc:
        return _fail(EXIT_LAMBDA, str(exc))
    except OracleScaleError as exc:
        return _fail(EXIT_ORACLE_SCALE, str(exc))
    except OSError as exc:  # its text would echo the whole path
        if exc.filename is None:
            return _fail(EXIT_INPUT, str(exc))
        return _fail(EXIT_INPUT, f"{exc.strerror}: {str(exc.filename)!r:.40}")
    except UnicodeEncodeError as exc:  # a path no file can have
        return _fail(EXIT_INPUT, str(exc))
    except ParapathError as exc:  # anything else from the library is bad input
        return _fail(EXIT_INPUT, str(exc))


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
