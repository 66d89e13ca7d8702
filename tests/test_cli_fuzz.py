"""Hypothesis fuzzing of the command line: argv, graph files and envelope files.

Every run must end in a documented exit code (0, 2, 3, 4, 5 or 6), never
in a traceback.  ``main`` returns the code, or argparse raises
SystemExit for a usage error (2) or ``--help`` (0); a failure that
``main`` reports is one ``error:`` line.  Sizes stay small (at most 50
vertices, edges, blocks or samples) so that every run is cheap.
"""

import io
import json
import os
import shutil
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import strategies as own
from parapath.cli import main

DOCUMENTED_EXITS = {0, 2, 3, 4, 5, 6}

DIAMOND_TEXT = """\
psp 4 4
e 0 1 0.5 1.5
e 1 3 0.5 1.5
e 0 2 1.5 0.5
e 2 3 1.5 0.5
"""

# Linux hands undecodable bytes to Python as lone surrogates, which
# hypothesis's default alphabet leaves out.  A NUL, which no OS argv holds,
# stays in: ``main`` refuses it in a path with one line.
free_text = st.text(max_size=12)
small_ints = st.integers(-3, 50).map(str)
counts = st.integers(1, 50).map(str)
number_tokens = st.sampled_from(
    ["0", "1", "3", "9", "-1", "0.5", "1/3", "2/3", "1e-1001", "1e1001", "1/0",
     "abc", "", "nan", "inf", "0x10", "1_0", "+1", "1.5", "-0.1"]
)
options = st.sampled_from(
    ["--source", "--target", "--out", "--lambda", "--seed", "--vertices", "--edges",
     "--weight-max", "--blocks", "--samples", "--mode", "--help", "-h", "--", "-"]
)
words = st.sampled_from(
    ["build", "query", "verify", "gen", "export-plot", "sssp", "bench", "random",
     "gadget-chain", "min-slope", "max-slope"]
)


def make_files(root):
    """The fuzzed calls' inputs and outputs under ``root``: a diamond graph
    and its envelope, an undecodable file, missing names and an output
    directory."""
    (root / "diamond.psp").write_text(DIAMOND_TEXT)
    (root / "diamond.env").write_text(json.dumps(own.DIAMOND_ENVELOPE))
    (root / "binary").write_bytes(b"\x00\xff\xfe psp 1 0\n")
    out = root / "out"
    out.mkdir()
    inputs = ["diamond.psp", "diamond.env", "binary", "missing.psp", "out", "fuzz.psp",
              "fuzz.env"]
    outputs = ["out/x.env", "out/x.psp", "out/x.csv", "out", "missing-dir/x.env"]
    return root, [str(root / name) for name in inputs + outputs]


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """Shared by the tests below that only read ``diamond.psp`` and
    ``diamond.env``, so these must stay as written."""
    return make_files(tmp_path_factory.mktemp("fuzz"))


@pytest.fixture(scope="module")
def argv_files(tmp_path_factory):
    """The fuzzed argv's own files: a drawn ``gen`` or ``build --out`` may
    write over any of them."""
    return make_files(tmp_path_factory.mktemp("fuzz-argv"))


def run_cli(argv, root):
    """Run ``main`` in process; returns (exit code, stdout, stderr).

    It runs inside ``root/out``, so that an output path drawn as a bare
    token lands there and is removed with the rest.
    """
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(root / "out")
    try:
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse: usage error or --help
                assert exc.code in (0, 2), (argv, exc.code)
                return exc.code, out.getvalue(), err.getvalue()
    finally:
        os.chdir(cwd)
        # Outputs of one run must not become inputs of the next.
        shutil.rmtree(root / "out")
        (root / "out").mkdir()
    assert code in DOCUMENTED_EXITS, (argv, code)
    if code != 0:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), (argv, lines)
    return code, out.getvalue(), err.getvalue()


# Each subcommand's positional argument and options.
SUBCOMMANDS = {
    "build": ("graph", ["--source", "--target", "--out"]),
    "query": ("envelope", ["--lambda"]),
    "verify": ("graph", ["--source", "--target"]),
    "gen": ("kind", ["--out", "--seed", "--vertices", "--edges", "--weight-max",
                     "--blocks"]),
    "export-plot": ("envelope", ["--samples", "--out"]),
    "sssp": ("graph", ["--source", "--target", "--lambda", "--mode"]),
}


def usually(draw, common, rare):
    """Draw from ``common`` five times in six; hypothesis leans to small draws."""
    return draw(rare if draw(st.integers(0, 5)) == 5 else common)


@st.composite
def argvs(draw, root, paths):
    """Mostly well-formed calls with fuzzed values, plus stray tokens."""
    any_token = st.one_of(options, small_ints, number_tokens, words,
                          st.sampled_from(paths), free_text)
    vertex = st.sampled_from(["0", "1", "2", "3"])
    values = {
        "graph": st.sampled_from([str(root / "diamond.psp"), *paths]),
        "envelope": st.sampled_from([str(root / "diamond.env"), *paths]),
        "kind": st.sampled_from(["random", "gadget-chain"]),
        "--out": st.sampled_from([str(root / "out" / "x"), *paths]),
        "--source": vertex,
        "--target": vertex,
        "--lambda": st.one_of(number_tokens, st.sampled_from(["1/4", "3/4"])),
        "--mode": st.sampled_from(["min-slope", "max-slope"]),
        "--weight-max": number_tokens,
    }
    command = usually(draw, st.sampled_from(sorted(SUBCOMMANDS)), any_token)
    positional, opts = SUBCOMMANDS.get(command, ("graph", []))
    argv = [command, usually(draw, values[positional], any_token)]
    for opt in opts:
        if usually(draw, st.just(True), st.just(False)):
            argv += [opt, usually(draw, values.get(opt, counts), any_token)]
    return argv + draw(st.lists(any_token, max_size=2))


@given(data=st.data())
@settings(max_examples=400, deadline=None)
def test_fuzzed_argv_ends_in_documented_exit(argv_files, data):
    root, paths = argv_files
    run_cli(data.draw(argvs(root, paths)), root)


# -- file text ---------------------------------------------------------

graph_tokens = st.one_of(
    small_ints, number_tokens, st.sampled_from(["psp", "e", "#", "x"]), free_text
)


@st.composite
def graph_texts(draw):
    lines = DIAMOND_TEXT.splitlines()
    kind = draw(st.sampled_from(["token", "line", "text", "bytes"]))
    if kind == "bytes":
        return draw(st.binary(max_size=60))
    if kind == "text":
        return draw(st.text(st.sampled_from("psp e01234 ./-\n#x"), max_size=40))
    if kind == "line":
        i = draw(st.integers(0, len(lines) - 1))
        lines[i:i + 1] = draw(st.sampled_from([[], [lines[i]] * 2, ["e " + lines[i]]]))
    else:
        for _ in range(draw(st.integers(1, 3))):
            i = draw(st.integers(0, len(lines) - 1))
            fields = lines[i].split()
            j = draw(st.integers(0, len(fields) - 1))
            fields[j] = draw(graph_tokens)
            lines[i] = " ".join(fields)
    return "\n".join(lines) + "\n"


json_values = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-5, 5),
              st.floats(allow_nan=False, allow_infinity=False), number_tokens,
              st.sampled_from(["0/1", "1/2", "1/1", "3/1"])),
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(st.sampled_from(["lo", "hi", "c0", "k"]),
                                            inner, max_size=3)),
    max_leaves=6,
)


@st.composite
def envelope_texts(draw):
    kind = draw(st.sampled_from(["value", "value", "text", "bytes"]))
    if kind == "bytes":
        return draw(st.binary(max_size=60))
    if kind == "text":
        return draw(st.text(st.sampled_from('{}[]":,0123/ abc'), max_size=40))
    payload = json.loads(json.dumps(own.DIAMOND_ENVELOPE))
    targets = [payload, *payload["segments"]]
    for _ in range(draw(st.integers(1, 2))):
        target = draw(st.sampled_from(targets))
        key = draw(st.sampled_from(sorted(target)))
        target[key] = draw(json_values)
    return json.dumps(payload)


lambda_texts = st.one_of(number_tokens, st.sampled_from(["1/4", "1/2", "3/4"]))


@given(text=graph_texts(), lam=lambda_texts)
@settings(max_examples=150, deadline=None)
def test_fuzzed_graph_file_ends_in_documented_exit(files, text, lam):
    root, _ = files
    graph = root / "fuzz.psp"
    # A drawn token can hold a lone surrogate, which goes into the file as
    # the bytes that encode it rather than failing the write.
    if not isinstance(text, bytes):
        text = text.encode("utf-8", "surrogatepass")
    graph.write_bytes(text)
    pair = ["--source", "0", "--target", "3"]
    run_cli(["build", str(graph), *pair, "--out", str(root / "out" / "x.env")], root)
    run_cli(["verify", str(graph), *pair], root)
    run_cli(["sssp", str(graph), *pair, "--lambda", lam], root)


@given(text=envelope_texts(), lam=lambda_texts)
@settings(max_examples=150, deadline=None)
def test_fuzzed_envelope_file_ends_in_documented_exit(files, text, lam):
    root, _ = files
    env = root / "fuzz.env"
    if not isinstance(text, bytes):
        text = text.encode("utf-8", "surrogatepass")
    env.write_bytes(text)
    csv = root / "out" / "x.csv"
    run_cli(["query", str(env), "--lambda", lam], root)
    run_cli(["export-plot", str(env), "--samples", "5", "--out", str(csv)], root)


# -- numbers past Python's int-to-str limit ------------------------------

# Error messages name such a number by its size and cut echoed tokens to
# 40 characters and parse errors to 150, so each stays one short line.
MAX_MESSAGE = 250


@st.composite
def long_tokens(draw):
    """A 4301- to 10,000-character token: too long for ``int``, within the
    number-length cap, or a number whose value is that wide."""
    size = draw(st.integers(4301, 10_000))
    half = size // 2
    p_digits = min(size - 2, 4300)
    return draw(st.sampled_from([
        "9" * size,
        "9" * half + "." + "9" * (size - half - 1),
        "1" + "0" * (size - 3) + "/3",
        "1/" + "3" * (size - 2),
        "-" + "7" * (size - 1),
        " " * (size - 1) + "3",
        "0." + "0" * (size - 3) + "1",
        "x" * size,
        # Padded to the size, values that ``int`` and ``Fraction`` still read.
        " " * (size - 4300) + "9" * 4300,
        "1" + "0" * (p_digits - 1) + "/" + "3" * (size - 1 - p_digits),
    ]))


def run_bounded(argv, root, codes):
    code, _out, err = run_cli(argv, root)
    assert code in codes, (argv[0], code)
    # argparse prints its usage line before the error line.
    assert all(len(line) <= MAX_MESSAGE for line in err.splitlines()), err[:300]


# The two spellings that ended in a traceback or a 4475-character message.
HUGE_LAMBDA = "9" * 4300 + "." + "9" * 4300
WIDE_LAMBDA = "1" + "0" * 4300 + "/3"


@given(token=long_tokens())
@example(token=HUGE_LAMBDA)
@example(token=WIDE_LAMBDA)
@settings(max_examples=40, deadline=None)
def test_long_lambda_ends_in_one_short_line(files, token):
    root, _ = files
    # The files are sound, so only the lambda can be refused.
    run_bounded(["query", str(root / "diamond.env"), "--lambda", token], root, {0, 4})
    pair = ["--source", "0", "--target", "3"]
    run_bounded(["sssp", str(root / "diamond.psp"), *pair, "--lambda", token], root,
                {0, 4})


@given(token=long_tokens(), role=st.sampled_from(["--source", "--target"]))
@settings(max_examples=40, deadline=None)
def test_long_vertex_id_ends_in_one_short_line(files, token, role):
    root, _ = files
    pair = {"--source": "0", "--target": "3", role: token}
    argv = [str(root / "diamond.psp"), *(x for kv in pair.items() for x in kv)]
    # A token reads as no vertex or as 3, and both 0 and 3 reach 3.
    run_bounded(["build", *argv, "--out", str(root / "out" / "x.env")], root, {0, 2})
    run_bounded(["verify", *argv], root, {0, 2})
    run_bounded(["sssp", *argv, "--lambda", "1/2"], root, {0, 2})


@given(token=long_tokens(), line=st.integers(0, 4), field=st.integers(1, 4))
@settings(max_examples=60, deadline=None)
def test_long_graph_field_ends_in_one_short_line(files, token, line, field):
    root, _ = files
    lines = [line_text.split() for line_text in DIAMOND_TEXT.splitlines()]
    fields = lines[line]
    fields[min(field, len(fields) - 1)] = token
    graph = root / "fuzz.psp"
    graph.write_text("\n".join(map(" ".join, lines)) + "\n")
    pair = ["--source", "0", "--target", "3"]
    out = str(root / "out" / "x.env")
    run_bounded(["build", str(graph), *pair, "--out", out], root, {0, 2, 3})


@given(token=long_tokens(), key=st.sampled_from(
    ["format", "source", "target", "k", "lo", "hi", "c0", "c1", "vertex"]),
    quoted=st.booleans())
@example(token="1" + "0" * 4299 + "/" + "3" * 4300, key="lo", quoted=True)
@example(token="1" + "0" * 4299 + "/" + "3" * 4300, key="c1", quoted=True)
@example(token=" " + "9" * 4300, key="format", quoted=False)
@example(token=" " + "9" * 4300, key="target", quoted=False)
@settings(max_examples=60, deadline=None)
def test_long_envelope_field_ends_in_one_short_line(files, token, key, quoted):
    root, _ = files
    payload = json.loads(json.dumps(own.DIAMOND_ENVELOPE))
    if key in ("lo", "hi", "c0", "c1"):
        payload["segments"][0][key] = "@"
    elif key == "vertex":
        payload["segments"][0]["vertices"][1] = "@"
    else:
        payload[key] = "@"
    # Unquoted, the token stands as a raw JSON value, such as a 5000-digit int.
    text = json.dumps(payload).replace('"@"', json.dumps(token) if quoted else token)
    env = root / "fuzz.env"
    env.write_text(text)
    run_bounded(["query", str(env), "--lambda", "1/4"], root, {0, 2})


# -- file names ----------------------------------------------------------

# Error messages cut an echoed path to 40 characters, as they cut tokens.
MAX_PATH_MESSAGE = 200


@pytest.mark.parametrize("name", ["x" * 5000, "d/" * 2499 + "x"])
def test_long_path_ends_in_one_short_line(files, name):
    root, _ = files
    path = str(root / name)
    assert len(path) > 5000
    pair = ["--source", "0", "--target", "3"]
    for argv in (
        ["build", path, *pair, "--out", str(root / "out" / "x.env")],
        ["build", str(root / "diamond.psp"), *pair, "--out", path],
        ["query", path, "--lambda", "1/2"],
        ["verify", path, *pair],
    ):
        code, _out, err = run_cli(argv, root)
        assert code == 2, argv[:2]
        assert len(err.splitlines()) == 1, err[:300]
        assert err.startswith("error: ") and len(err.rstrip("\n")) <= MAX_PATH_MESSAGE, err[:300]
