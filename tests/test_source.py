import argparse
import ast
import importlib
import importlib.util
import re
import sys
from fractions import Fraction
from pathlib import Path

import parapath
from parapath import (
    build_index,
    chain_endpoints,
    chain_graph,
    query,
    read_envelope,
    read_graph,
    shortest_path_length,
    write_graph,
)
from parapath.cli import build_parser, main

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "parapath"


def _load_by_path(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_no_assert_statements_in_package():
    # ``python -O`` strips asserts, so no check may live only in one.
    files = sorted(PACKAGE.glob("*.py"))
    assert files
    found = [
        f"{path.name}:{node.lineno}"
        for path in files
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"assert statements: {found}"


def test_benchmark_trace_targets_resolve():
    # The benchmark's tracer swaps wrappers in for these attributes, so a
    # rename or deletion breaks ``perfbench/run.py --trace 1``.
    tracing = _load_by_path("perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    assert tracing.TARGETS
    missing = [
        f"{module}.{attr}"
        for module, attr, _span in tracing.TARGETS
        if not hasattr(importlib.import_module(f"parapath.{module}"), attr)
    ]
    assert not missing, f"tracer targets missing: {missing}"


def test_benchmark_tracer_sees_every_layer(tmp_path, capsys):
    # A layer the program no longer looks up through the traced module
    # global (say ``envelope.cost_line``, or ``query.locate_segment`` in a
    # library query) would read 0 in a traced run.
    tracing = _load_by_path("perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    modules = {name: importlib.import_module(f"parapath.{name}")
               for name in ("graphio", "cli", "envelope", "query")}
    tracer = tracing.Tracer(modules)
    graph_file, env_file = tmp_path / "chain.psp", tmp_path / "chain.env"
    write_graph(chain_graph(3), graph_file)
    source, target = chain_endpoints(3)
    index = build_index(chain_graph(3), source, target)
    with tracer.installed():
        with tracer.op("build") as build_op:
            assert main(["build", str(graph_file), "--source", str(source),
                         "--target", str(target), "--out", str(env_file)]) == 0
        with tracer.op("cli_query"):
            assert main(["query", str(env_file), "--lambda", "1/2"]) == 0
        with tracer.op("query"):
            query(index, Fraction(1, 2))
    _totals, searches, _rest, problems = tracer.summary()
    assert problems == []
    calls = re.search(r"dijkstra_calls=(\d+)", capsys.readouterr().out)
    assert searches[build_op] == int(calls.group(1))


def test_benchmark_reads_of_the_library_resolve(tmp_path, monkeypatch, capsys):
    # Outside the tracer the benchmark reads ``Edge`` fields (``instances``),
    # segment and line fields (``checks``), ``QueryResult`` fields and the
    # build's stdout.  ``run.py`` stays unimported: it drops ``parapath``
    # from ``sys.modules``.
    perfbench = ROOT / "perfbench"
    monkeypatch.syspath_prepend(str(perfbench))
    bench = {}
    for name in ("instances", "checks"):
        spec = importlib.util.spec_from_file_location(name, perfbench / f"{name}.py")
        bench[name] = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, name, bench[name])  # dataclasses look it up
        spec.loader.exec_module(bench[name])
    instances, checks = bench["instances"], bench["checks"]
    inst = instances.chain_instance(chain_graph)
    graph_file, env_file = tmp_path / "chain.psp", tmp_path / "chain.env"
    graph_file.write_text(instances.format_psp(inst))
    assert main(["build", str(graph_file), "--source", str(inst.source),
                 "--target", str(inst.target), "--out", str(env_file)]) == 0
    out = capsys.readouterr().out
    assert re.fullmatch(r"k=\d+ breakpoints=\d+ dijkstra_calls=\d+\n", out)
    graph = read_graph(graph_file)
    index = build_index(graph, inst.source, inst.target)
    segs, problems = checks.envelope_problems(env_file.read_text(), inst)
    lambdas = (Fraction(0), Fraction(1), *inst.breakpoints[:3])
    problems += checks.index_problems(index, segs)
    problems += checks.document_problems(read_envelope(env_file), segs)
    problems += checks.oracle_problems(segs, graph, inst, lambdas, shortest_path_length)
    assert problems == []
    for lam in lambdas:
        got, want = query(index, lam), checks.answer(segs, lam)
        assert (got.segment_index, got.cost, got.line.c0, got.line.c1) == (
            want.segment, want.cost, want.c0, want.c1)


def test_readme_options_exist():
    # A README that still documents a deleted option sends its readers
    # to an argparse usage error.  Other tools' command lines are skipped.
    lines = [
        line
        for line in (ROOT / "README.md").read_text().splitlines()
        if not any(tool in line for tool in ("pip ", "pytest", "scripts/"))
    ]
    documented = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", "\n".join(lines)))
    (subcommands,) = [
        action
        for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    defined = {
        option
        for parser in subcommands.choices.values()
        for option in parser._option_string_actions
    }
    assert documented
    missing = sorted(documented - defined)
    assert not missing, f"README documents options no subcommand defines: {missing}"


def test_public_names_resolve():
    missing = [name for name in parapath.__all__ if not hasattr(parapath, name)]
    assert not missing, f"names in __all__ missing: {missing}"


def test_random_verify_script_runs(capsys):
    # The 5000-instance oracle check is too slow for this suite; a short
    # run keeps the script in step with the library it imports.
    script = _load_by_path("random_verify", ROOT / "scripts" / "random_verify.py")
    assert script.main(["--instances", "20", "--seed", "1"]) == 0
    assert "verified 20 instances" in capsys.readouterr().out


def test_output_digest_script_runs(capsys):
    # A short sweep keeps the script in step with the library and the
    # benchmark instances it reads; equal runs print equal digests.
    script = _load_by_path("output_digest", ROOT / "scripts" / "output_digest.py")
    argv = ["--chain-blocks", "3", "--grid-seeds", "1", "--instances", "5",
            "--random-graphs", "5"]
    assert script.main(argv) == 0
    first = capsys.readouterr().out
    assert re.fullmatch(r"[0-9a-f]{64}\n", first)
    assert script.main(argv) == 0
    assert capsys.readouterr().out == first


def test_criterion8_pairs_script_runs(capsys):
    # One round with the repository as both trees: each side's reading and
    # median are printed, whether or not the test's 3x gate held.
    script = _load_by_path("criterion8_pairs", ROOT / "scripts" / "criterion8_pairs.py")
    assert script.main([str(ROOT), str(ROOT), "--rounds", "1"]) == 0
    out = capsys.readouterr().out
    for side in ("parent", "change"):
        assert re.search(rf"^round 1 {side}: \d+\.\d\d$", out, re.M), out
        assert re.search(rf"^{side}: median \d+\.\d\d over \[\d+\.\d\d\]$", out, re.M), out
