import argparse
import decimal
import importlib.util
import io
import json
import random
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction as F
from pathlib import Path

import pytest

import strategies as own
from parapath import (
    build_index, chain_endpoints, chain_graph, graphio, query, read_envelope,
    write_graph,
)
from parapath import cli
from parapath.cli import COMMANDS, PATH_ARGUMENTS, build_parser, command_parser, main
from parapath.model import MAX_EDGES, MAX_VERTICES

DIAMOND_TEXT = """\
psp 4 4
e 0 1 0.5 1.5
e 1 3 0.5 1.5
e 0 2 1.5 0.5
e 2 3 1.5 0.5
"""


@pytest.fixture
def diamond_file(tmp_path):
    path = tmp_path / "diamond.psp"
    path.write_text(DIAMOND_TEXT)
    return path


@pytest.fixture
def diamond_envelope(tmp_path, diamond_file):
    out = tmp_path / "diamond.env"
    code = main(
        ["build", str(diamond_file), "--source", "0", "--target", "3", "--out", str(out)]
    )
    assert code == 0
    return out


def test_build_reports_counts(diamond_file, tmp_path, capsys):
    out = tmp_path / "d.env"
    code = main(
        ["build", str(diamond_file), "--source", "0", "--target", "3", "--out", str(out)]
    )
    assert code == 0
    assert capsys.readouterr().out.strip() == "k=2 breakpoints=1 dijkstra_calls=3"
    payload = json.loads(out.read_text())
    assert payload["format"] == 1
    assert payload["k"] == 2
    assert payload["segments"][0]["hi"] == "1/2"


def test_build_parse_error_names_line(tmp_path, capsys):
    bad = tmp_path / "bad.psp"
    bad.write_text("psp 2 1\ne 0 1 1 oops\n")
    assert main(["build", str(bad), "--source", "0", "--target", "1", "--out", "x"]) == 2
    assert "line 2" in capsys.readouterr().err


def test_build_zero_weight_is_input_error(tmp_path):
    bad = tmp_path / "zero.psp"
    bad.write_text("psp 2 1\ne 0 1 0 1\n")
    assert main(["build", str(bad), "--source", "0", "--target", "1", "--out", "x"]) == 2


def test_build_hostile_denominators_is_input_error(tmp_path, capsys, monkeypatch):
    # 4000 routes whose weights 1/(10**12 + i) share no denominator.  The
    # file is refused in one pass: no weight token is read twice.
    seen = []
    for name in ("plain_ratio", "parse_rational"):
        def counting(token, read=getattr(graphio, name)):
            seen.append(token)
            return read(token)

        monkeypatch.setattr(graphio, name, counting)
    rows = "".join(
        f"e 0 {i + 2} 1/{10**12 + i} 1/{10**12 + i}\n"
        f"e {i + 2} 1 1/{10**12 + i} 1/{10**12 + i}\n"
        for i in range(4000)
    )
    star = tmp_path / "star.psp"
    star.write_text(f"psp 4002 8000\n{rows}")
    code = main(["build", str(star), "--source", "0", "--target", "1", "--out", "x"])
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: weights need a common")
    assert seen and len(seen) == len(set(seen))


def test_build_never_derives_fraction_edges(tmp_path, monkeypatch):
    # ``graph.edges`` is for the references and the file writer; every step
    # of a build reads the int columns.
    parsed = []
    parse = graphio.parse_graph

    def recording_parse(text):
        parsed.append(parse(text))
        return parsed[-1]

    monkeypatch.setattr(graphio, "parse_graph", recording_parse)
    graph_file = tmp_path / "chain.psp"
    write_graph(chain_graph(5), graph_file)
    out = tmp_path / "chain.env"
    argv = ["build", str(graph_file), "--source", "0", "--target", "15", "--out", str(out)]
    assert main(argv) == 0
    (graph,) = parsed
    assert "edges" not in vars(graph)


def test_build_unreachable_target(tmp_path):
    g = tmp_path / "g.psp"
    g.write_text("psp 3 1\ne 0 1 1 1\n")
    out = tmp_path / "g.env"
    code = main(["build", str(g), "--source", "0", "--target", "2", "--out", str(out)])
    assert code == 3


def test_query_outputs(diamond_envelope, capsys):
    assert main(["query", str(diamond_envelope), "--lambda", "0.25"]) == 0
    out = capsys.readouterr().out.strip()
    assert out == "cost=3/2 path=0,1,3 segment=[0/1,1/2]"
    assert main(["query", str(diamond_envelope), "--lambda", "0"]) == 0
    assert capsys.readouterr().out.startswith("cost=1/1 ")


def test_query_lambda_out_of_range(diamond_envelope):
    assert main(["query", str(diamond_envelope), "--lambda", "1.5"]) == 4
    assert main(["query", str(diamond_envelope), "--lambda", "-0.1"]) == 4
    # Past the exponent cap: refused before any power of ten is built.
    assert main(["query", str(diamond_envelope), "--lambda", "1e-1001"]) == 4


@pytest.mark.parametrize("command", ["query", "sssp"])
@pytest.mark.parametrize("token, shown", [("1.5", "3/2"), ("-0.1", "-1/10")])
def test_lambda_out_of_range_is_one_error(
    command, token, shown, diamond_file, diamond_envelope, capsys
):
    # The one range check is the library's: query's, or the search's.
    argv = {
        "query": ["query", str(diamond_envelope)],
        "sssp": ["sssp", str(diamond_file), "--source", "0", "--target", "3"],
    }[command]
    capsys.readouterr()
    assert main([*argv, "--lambda", token]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: lambda {shown} outside [0, 1]\n"


# Words with an e, and spellings with "_" that only Python 3.11 and later read.
@pytest.mark.parametrize("token", ["True", "one", "2e5x", "1_000", "1e1_0"])
def test_word_with_an_e_is_refused_as_fraction_refuses_it(
    token, diamond_envelope, tmp_path, capsys
):
    capsys.readouterr()
    assert main(["query", str(diamond_envelope), "--lambda", token]) == 4
    err = capsys.readouterr().err
    assert err == (
        f"error: cannot parse lambda {token!r}: "
        f"Invalid literal for Fraction: {token!r}\n"
    )
    graph = tmp_path / "word.psp"
    graph.write_text(f"psp 2 1\ne 0 1 1 {token}\n")
    out = str(tmp_path / "word.env")
    argv = ["build", str(graph), "--source", "0", "--target", "1", "--out", out]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"bad weight {token!r}: Invalid literal for Fraction: {token!r}" in err


@pytest.mark.parametrize("token", ["1 /2", "1/ 2"])
def test_lambda_with_inner_whitespace_is_refused(token, diamond_envelope, capsys):
    # Python 3.12 and later read these; every Python refuses them here.
    capsys.readouterr()
    assert main(["query", str(diamond_envelope), "--lambda", token]) == 4
    assert capsys.readouterr().err == (
        f"error: cannot parse lambda {token!r}: "
        f"Invalid literal for Fraction: {token!r}\n"
    )


def test_query_malformed_envelope(tmp_path):
    bad = tmp_path / "bad.env"
    bad.write_text("{}")
    assert main(["query", str(bad), "--lambda", "0.5"]) == 2


@pytest.mark.parametrize("name", sorted(own.TAMPERED_ENVELOPES))
def test_query_tampered_envelope_is_input_error(name, tmp_path, capsys):
    env = tmp_path / "tampered.env"
    env.write_text(own.TAMPERED_ENVELOPES[name])
    assert main(["query", str(env), "--lambda", "1/4"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("error: ")


# One case from each place that once put Python's own text into a refusal:
# a TypeError, ``json``'s message, and the int digit limit's message, whose
# wording differs between Python versions.  ``{huge}`` stands for an int one
# digit past the limit.
@pytest.mark.parametrize(
    "text, message",
    [
        (json.dumps({**own.DIAMOND_ENVELOPE, "segments": ["abc"]}),
         "segments must be a list of objects, got ['abc']"),
        (own._tampered(seg0_lo=[0, 1]),
         "malformed envelope document: not a canonical p/q: [0, 1]"),
        ("[1, 2]", "document must be an object, got [1, 2]"),
        (own._tampered().replace("]", ",]", 1), "not valid JSON"),
        (own._tampered(seg0_vertices=[0, "{huge}", 3]),
         "document holds an integer over {limit} digits"),
        (own._tampered(seg0_c0="{huge}/1"),
         "malformed envelope document: not a canonical p/q: '{head}"),
    ],
    ids=["segment-string", "lo-list", "document-array", "trailing-comma",
         "vertex-past-digit-limit", "token-past-digit-limit"],
)
def test_envelope_refusals_are_worded_by_parapath(text, message, tmp_path, capsys):
    limit = sys.get_int_max_str_digits()
    huge = "1" * (limit + 1)
    env = tmp_path / "edited.env"
    env.write_text(text.replace('"{huge}"', huge).replace("{huge}", huge))
    capsys.readouterr()
    assert main(["query", str(env), "--lambda", "1/4"]) == 2
    shown = message.format(limit=limit, head=huge[:39])
    assert capsys.readouterr() == ("", f"error: {shown}\n")


def test_numbers_past_the_digit_limit_are_refused_in_one_wording(
    diamond_envelope, tmp_path, capsys
):
    # Python words this refusal differently in 3.10 and 3.11 and later.
    limit = sys.get_int_max_str_digits()
    huge = "1" * (limit + 1)
    over = f"number over {limit} digits"
    capsys.readouterr()
    assert main(["query", str(diamond_envelope), "--lambda", f"{huge}/3"]) == 4
    assert capsys.readouterr() == (
        "", f"error: cannot parse lambda '{huge[:39]}: {over}\n"
    )
    graph = tmp_path / "huge.psp"
    graph.write_text(f"psp 2 1\ne 0 1 1 {huge}\n")
    out = str(tmp_path / "huge.env")
    assert main(["build", str(graph), "--source", "0", "--target", "1", "--out", out]) == 2
    assert capsys.readouterr() == (
        "", f"error: line 2: bad weight '{huge[:39]}: {over}\n"
    )


def test_parser_survives_bad_argv(diamond_envelope, capsys):
    # One parser serves every call in a process; a failed parse must not
    # leave state behind for the next call, nor a good parse for a bad one.
    assert build_parser() is build_parser()
    good = ["query", str(diamond_envelope), "--lambda", "0.25"]
    for argv in (["query", "--lambda"], good, ["nope"], good, ["query", "--bogus"]):
        if argv is good:
            assert main(argv) == 0
            assert capsys.readouterr().out.startswith("cost=3/2 ")
        else:
            with pytest.raises(SystemExit) as exc_info:
                main(argv)
            assert exc_info.value.code == 2
            capsys.readouterr()


def test_gen_bad_weight_bound_is_input_error(tmp_path, capsys):
    out = tmp_path / "x.psp"
    for bound in ("abc", "1/0", "1e1001", "1_000"):
        argv = ["gen", "random", "--weight-max", bound, "--out", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: bad weight bound ")
    assert not out.exists()


def test_verify_accepts_diamond(diamond_file, capsys):
    assert main(["verify", str(diamond_file), "--source", "0", "--target", "3"]) == 0
    assert capsys.readouterr().out.strip() == "VERIFIED k=2"


def test_verify_rejects_oversized_graph(tmp_path, capsys, monkeypatch):
    # The oracle's bound is its own work, not the vertex count.
    path = tmp_path / "path.psp"
    rows = [f"e {i} {i + 1} 1 1" for i in range(12)]
    path.write_text("psp 13 12\n" + "\n".join(rows) + "\n")
    assert main(["verify", str(path), "--source", "0", "--target", "12"]) == 0
    assert capsys.readouterr().out.strip() == "VERIFIED k=1"
    # Past the budget (shrunk here; test_oracle runs a real one) verify exits 6.
    monkeypatch.setattr("parapath.oracle.MAX_ENUMERATION_STEPS", 11)
    assert main(["verify", str(path), "--source", "0", "--target", "12"]) == 6
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("error: ")


def test_verify_reports_mismatch(diamond_file, monkeypatch):
    # Force disagreement to exercise the failure exit path.
    monkeypatch.setattr(
        "parapath.cli.oracle.compare_envelopes",
        lambda a, b: "segment 0: forced difference",
    )
    assert main(["verify", str(diamond_file), "--source", "0", "--target", "3"]) == 5


def test_gen_random_is_seed_deterministic(tmp_path):
    a = tmp_path / "a.psp"
    b = tmp_path / "b.psp"
    args = ["gen", "random", "--vertices", "6", "--edges", "10", "--seed", "7"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_gen_infeasible_params(tmp_path):
    out = tmp_path / "x.psp"
    code = main(
        ["gen", "random", "--vertices", "3", "--edges", "99", "--out", str(out)]
    )
    assert code == 2


def test_gen_refuses_edges_past_the_cap(tmp_path, capsys):
    # Refused before ``random.sample`` is asked for the slots.
    out = tmp_path / "x.psp"
    argv = ["gen", "random", "--vertices", str(MAX_VERTICES),
            "--edges", str(MAX_EDGES + 1), "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: edge count ") and err.count("\n") == 1
    assert not out.exists()


def test_gen_chain_has_stable_envelope(tmp_path, capsys):
    out = tmp_path / "chain.psp"
    assert main(["gen", "gadget-chain", "--blocks", "3", "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["verify", str(out), "--source", "0", "--target", "9"]) == 0
    first = capsys.readouterr().out.strip()
    assert first == "VERIFIED k=4"
    assert main(["verify", str(out), "--source", "0", "--target", "9"]) == 0
    assert capsys.readouterr().out.strip() == first


def test_export_plot_duplicates_breakpoints(diamond_envelope, tmp_path, capsys):
    out = tmp_path / "plot.csv"
    code = main(
        ["export-plot", str(diamond_envelope), "--samples", "3", "--out", str(out)]
    )
    assert code == 0
    rows = out.read_text().strip().splitlines()
    assert rows[0] == "lambda,cost,segment_index"
    assert rows[1:] == ["0,1,0", "0.5,2,0", "0.5,2,1", "1,1,1"]


def test_export_plot_matches_a_fraction_scan(tmp_path, capsys):
    """Rows at 11 grid points and every breakpoint, each segment found by a
    ``Fraction`` linear scan: a breakpoint's row comes once per segment."""
    graph, (source, target) = chain_graph(7), chain_endpoints(7)
    psp, env, out = tmp_path / "c.psp", tmp_path / "c.env", tmp_path / "plot.csv"
    write_graph(graph, psp)
    pair = ["--source", str(source), "--target", str(target)]
    assert main(["build", str(psp), *pair, "--out", str(env)]) == 0
    assert main(["export-plot", str(env), "--samples", "11", "--out", str(out)]) == 0
    segments = read_envelope(env).segments

    def twelve(value):
        return str(decimal.Context(prec=12).divide(value.numerator, value.denominator))

    rows = ["lambda,cost,segment_index"]
    lams = {F(j, 10) for j in range(11)} | {seg.hi for seg in segments[:-1]}
    for lam in sorted(lams):
        for i, seg in enumerate(segments):
            if seg.lo <= lam <= seg.hi:
                rows.append(f"{twelve(lam)},{twelve(seg.line.value(lam))},{i}")
    assert len(rows) == 1 + len(lams) + len(segments) - 1
    assert out.read_text() == "\n".join(rows) + "\n"


def test_export_plot_single_segment(tmp_path, capsys):
    g = tmp_path / "one.psp"
    g.write_text("psp 2 1\ne 0 1 1 3\n")
    env = tmp_path / "one.env"
    assert main(["build", str(g), "--source", "0", "--target", "1", "--out", str(env)]) == 0
    out = tmp_path / "plot.csv"
    assert main(["export-plot", str(env), "--samples", "4", "--out", str(out)]) == 0
    rows = out.read_text().strip().splitlines()[1:]
    assert all(row.endswith(",0") for row in rows)


def test_export_plot_needs_two_samples(diamond_envelope, tmp_path):
    out = tmp_path / "plot.csv"
    code = main(
        ["export-plot", str(diamond_envelope), "--samples", "1", "--out", str(out)]
    )
    assert code == 2


def test_export_plot_caps_samples(diamond_envelope, tmp_path, capsys, monkeypatch):
    # Refused before the envelope is read: plot cost is linear in samples.
    def unread(path):
        raise AssertionError("envelope read before the sample count was checked")

    monkeypatch.setattr(graphio, "read_envelope", unread)
    out = tmp_path / "plot.csv"
    code = main(
        ["export-plot", str(diamond_envelope), "--samples", "1000001", "--out", str(out)]
    )
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert not out.exists()


def test_sssp_debug_output(diamond_file, capsys):
    code = main(
        [
            "sssp",
            str(diamond_file),
            "--source",
            "0",
            "--target",
            "3",
            "--lambda",
            "0",
            "--mode",
            "min-slope",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out.strip()
    assert out == "length=1/1 slope=2/1 c0=1/1 c1=3/1 path=0,1,3"


def test_sssp_debug_output_at_a_ratio(diamond_file, capsys):
    # The length at p/q comes from the search's line, not from q * D.
    argv = ["sssp", str(diamond_file), "--source", "0", "--target", "3",
            "--lambda", "1/3", "--mode", "max-slope"]
    assert main(argv) == 0
    out = capsys.readouterr().out.strip()
    assert out == "length=5/3 slope=2/1 c0=1/1 c1=3/1 path=0,1,3"


@pytest.mark.parametrize(
    "argv",
    [
        ["build", "{diamond}", "--source", "-1", "--target", "3", "--out", "{out}"],
        ["build", "{six}", "--source", "0", "--target", "99", "--out", "{out}"],
        ["sssp", "{six}", "--source", "0", "--target", "-2", "--lambda", "0.5"],
        ["verify", "{diamond}", "--source", "0", "--target", "-1"],
    ],
)
def test_vertex_ids_outside_graph_are_input_errors(argv, diamond_file, tmp_path, capsys):
    # Negative ids used to index from the end of the vertex arrays.
    six = tmp_path / "six.psp"
    six.write_text("psp 6 5\n" + "".join(f"e {i} {i + 1} 1 2\n" for i in range(5)))
    out = tmp_path / "x.env"
    code = main([arg.format(diamond=diamond_file, six=six, out=out) for arg in argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("error: ") and "outside 0.." in captured.err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["build", "{huge}", "--source", "0", "--target", "1", "--out", "{out}"],
        ["gen", "gadget-chain", "--blocks", "15000", "--out", "{out}"],
        ["query", "{wide}", "--lambda", "1/" + "3" * 4000],
    ],
)
def test_number_past_write_limit_is_input_error(argv, tmp_path, capsys):
    # Python refuses to print an int of more than 4300 digits: the first
    # envelope holds a 5300-digit cost, the chain a weight near 2**15001,
    # and the query's cost an 8300-digit numerator.
    huge = tmp_path / "huge.psp"
    huge.write_text("psp 2 1\ne 0 1 " + "1" * 4300 + "e1000 1\n")
    wide = tmp_path / "wide.env"
    wide.write_text(
        '{"format": 1, "source": 0, "target": 1, "k": 1, "segments": [{"lo": "0/1", '
        f'"hi": "1/1", "c0": "{"7" * 4300}/1", "c1": "1/1", "vertices": [0, 1]}}]}}'
    )
    out = tmp_path / "out"
    code = main([arg.format(huge=huge, wide=wide, out=out) for arg in argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: cannot write a number over ")
    assert len(captured.err.splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["query", "\ud800", "--lambda", "0"],
        ["build", "\ud800", "--source", "0", "--target", "0", "--out", "x"],
        ["gen", "random", "--out", "\ud800"],
    ],
    ids=["query", "build", "gen"],
)
def test_unencodable_path_is_input_error(argv, capsys):
    # A lone surrogate cannot be encoded as a file name; the argv fuzz test
    # drew one.
    assert main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


def test_missing_graph_file_is_input_error(tmp_path):
    code = main(
        ["build", str(tmp_path / "nope.psp"), "--source", "0", "--target", "1", "--out", "x"]
    )
    assert code == 2


def test_cli_query_agrees_with_library(tmp_path, capsys):
    # 100 (instance, lambda) pairs through the file interface.
    rng = random.Random(2024)
    for trial in range(20):
        graph, source, target = own.random_instance(rng, max_vertices=6, max_edges=12)
        gfile = tmp_path / f"g{trial}.psp"
        write_graph(graph, gfile)
        efile = tmp_path / f"g{trial}.env"
        code = main(
            [
                "build",
                str(gfile),
                "--source",
                str(source),
                "--target",
                str(target),
                "--out",
                str(efile),
            ]
        )
        assert code == 0
        index = build_index(graph, source, target)
        doc = read_envelope(efile)
        for _ in range(5):
            lam = own.random_lambda(rng)
            capsys.readouterr()
            assert main(["query", str(efile), "--lambda", str(lam)]) == 0
            printed = capsys.readouterr().out
            want = query(index, lam).cost
            assert printed.startswith(f"cost={want.numerator}/{want.denominator} ")
        assert doc.k == index.k


# -- each command's own parser -------------------------------------------

ROOT = Path(__file__).resolve().parent.parent


def _cli_corpus():
    """``cli_corpus`` of ``scripts/output_digest.py``, which hashes the same argvs."""
    spec = importlib.util.spec_from_file_location(
        "output_digest", ROOT / "scripts" / "output_digest.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.cli_corpus


@pytest.fixture
def chain_files(tmp_path):
    """``chain_graph(1)``'s graph file (a path from 0 to 3), its envelope
    file, and a name to write to."""
    graph, env = tmp_path / "chain.psp", tmp_path / "chain.env"
    write_graph(chain_graph(1), graph)
    argv = ["build", str(graph), "--source", "0", "--target", "3", "--out", str(env)]
    assert main(argv) == 0
    return str(graph), str(env), tmp_path / "out"


def _outputs(argv, written):
    """Exit code, stdout, stderr and the bytes written to ``written``."""
    written.unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # a usage error or a help text
            code = exc.code
    data = written.read_bytes() if written.exists() else None
    return code, out.getvalue(), err.getvalue(), data


def test_command_parsers_match_the_full_tree():
    subparsers = next(action for action in build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction))
    assert list(subparsers.choices) == list(COMMANDS)
    for name, full in subparsers.choices.items():
        own_parser = command_parser(name)
        assert own_parser is command_parser(name)
        assert own_parser.format_help() == full.format_help()
        assert own_parser.format_usage() == full.format_usage()


def test_direct_parse_matches_the_full_tree(chain_files, monkeypatch, capsys):
    graph, env, out = chain_files
    corpus = _cli_corpus()(graph, env, str(out))
    direct = [_outputs(argv, out) for argv in corpus]
    monkeypatch.setattr(cli, "_parse", lambda argv: build_parser().parse_args(argv))
    full = [_outputs(argv, out) for argv in corpus]
    assert [argv for argv, a, b in zip(corpus, direct, full) if a != b] == []
    # The corpus reaches every way out: runs, help, usage errors, run errors.
    assert {code for code, *_ in direct} == {0, 2}
    assert any(err.startswith("usage: parapath [-h]") for _, _, err, _ in direct)
    assert any(err.startswith("usage: parapath query") for _, _, err, _ in direct)


def test_valid_calls_never_build_the_full_tree(chain_files, capsys):
    graph, env, out = chain_files
    build_parser.cache_clear()
    assert main(["query", env, "--lambda", "1/2"]) == 0
    argv = ["build", graph, "--source", "0", "--target", "3", "--out", str(out)]
    assert main(argv) == 0
    assert build_parser.cache_info().misses == 0


# One valid call of each command, with its file names as placeholders.
VALID_CALLS = {
    "build": ["GRAPH", "--source", "0", "--target", "3", "--out", "OUT"],
    "query": ["ENV", "--lambda", "1/2"],
    "verify": ["GRAPH", "--source", "0", "--target", "3"],
    "gen": ["random", "--out", "OUT"],
    "export-plot": ["ENV", "--samples", "3", "--out", "OUT"],
    "sssp": ["GRAPH", "--source", "0", "--target", "3", "--lambda", "1/2"],
}


def test_nul_byte_in_any_path_is_one_error(chain_files, capsys):
    # ``open`` raises ValueError for such a name, which was a traceback.
    graph, env, out = chain_files
    files = {"GRAPH": graph, "ENV": env, "OUT": str(out)}
    assert list(VALID_CALLS) == list(COMMANDS)
    for name, call in VALID_CALLS.items():
        slots = [at for at, token in enumerate(call) if token in files]
        dests = {action.dest for action in command_parser(name)._actions}
        assert len(slots) == len(dests & set(PATH_ARGUMENTS)), name
        assert main([name, *[files.get(token, token) for token in call]]) == 0
        capsys.readouterr()
        for at in slots:
            argv = [name, *[files.get(token, token) for token in call]]
            argv[1 + at] = argv[1 + at][:-3] + "\0" + "x" * 50
            code, stdout, stderr, written = _outputs(argv, out)
            assert (code, stdout, written) == (2, "", None), argv
            assert stderr.startswith("error: a path cannot hold a NUL byte: ")
            assert len(stderr.splitlines()) == 1 and len(stderr) < 100
