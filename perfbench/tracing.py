"""In-memory spans around the program's layers, and the metrics they give.

The tracer swaps wrappers in for module attributes that the program looks
up at call time (``envelope.dijkstra_extreme_slope``, ``graphio.parse_graph``
and so on), so nothing inside the program changes.  Each span is
``(name, start_ns, end_ns, parent, op)`` in thread CPU time, like the
benchmark's operation times; the benchmark opens one root span per
operation, and the spans of one operation share its ``op`` id.  Spans live
in flat arrays, since a traced run records hundreds of thousands.
"""

from __future__ import annotations

import gzip
import json
import statistics
from array import array
from contextlib import contextmanager
from time import thread_time_ns

# (module, attribute, span name).  The span name is the layer that owns the
# code, which is not always the module the attribute lives in.
TARGETS = (
    ("graphio", "read_graph", "graphio.read_graph"),
    ("graphio", "parse_graph", "graphio.parse_graph"),
    ("cli", "validate_graph", "model.validate_graph"),
    ("envelope", "build_index_detailed", "envelope.build_index_detailed"),
    ("envelope", "validate_graph", "model.validate_graph"),
    ("envelope", "dijkstra_extreme_slope", "dijkstra.search"),
    ("envelope", "cost_line", "model.cost_line"),
    ("envelope", "check_index_invariants", "envelope.check_index_invariants"),
    ("graphio", "document_from_index", "graphio.document_from_index"),
    ("graphio", "write_envelope", "graphio.write_envelope"),
    ("graphio", "format_envelope", "graphio.format_envelope"),
    ("graphio", "read_envelope", "graphio.read_envelope"),
    ("graphio", "parse_envelope", "graphio.parse_envelope"),
    ("cli", "locate_segment", "query.locate_segment"),
    ("query", "locate_segment", "query.locate_segment"),
)


# Spans that every traced operation of a kind must contain.
EXPECTED = {
    "build": {
        "graphio.read_graph", "graphio.parse_graph", "model.validate_graph",
        "envelope.build_index_detailed", "dijkstra.search", "model.cost_line",
        "envelope.check_index_invariants", "graphio.document_from_index",
        "graphio.write_envelope", "graphio.format_envelope",
    },
    "cli_query": {"graphio.read_envelope", "graphio.parse_envelope", "query.locate_segment"},
    "query": {"query.locate_segment"},
}

# The layers a build is split into, each counted by its whole duration
# (False) or by its self time (True).  They do not overlap, so with the
# rest of the root span (argument parsing, file reads and writes,
# printing; ``build.other_ms``) they add up to the traced build time.
BUILD_LAYERS = {
    "graphio.parse_graph": False,
    "model.validate_graph": False,
    "dijkstra.search": False,
    "model.cost_line": False,
    "envelope.build_index_detailed": True,
    "envelope.check_index_invariants": False,
    "graphio.document_from_index": False,
    "graphio.format_envelope": False,
}


class Tracer:
    def __init__(self, modules: dict) -> None:
        self.targets = [(modules[m], attr, name) for m, attr, name in TARGETS]
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name, self.start, self.end = array("H"), array("q"), array("q")
        self.parent, self.opid = array("q"), array("q")
        self.op_kinds: dict[int, str] = {}
        self._stack: list[int] = []
        self._op = 0

    def _open(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        i = len(self.start)
        self.name.append(self._ids[name])
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.opid.append(self._op)
        self.end.append(0)
        self._stack.append(i)
        self.start.append(thread_time_ns())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = thread_time_ns()
        self._stack.pop()

    def _wrap(self, fn, name: str):
        def traced(*args, **kwargs):
            i = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(i)

        return traced

    @contextmanager
    def installed(self):
        """Trace the program's layers inside the block, restore them after."""
        originals = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in self.targets]
        for (mod, attr, fn), (_, _, name) in zip(originals, self.targets):
            setattr(mod, attr, self._wrap(fn, name))
        try:
            yield
        finally:
            for mod, attr, fn in originals:
                setattr(mod, attr, fn)

    @contextmanager
    def op(self, kind: str):
        """Root span of one benchmark operation; yields its op id."""
        self._op += 1
        self.op_kinds[self._op] = kind
        i = self._open(f"op.{kind}")
        try:
            yield self._op
        finally:
            self._close(i)

    def write(self, path) -> None:
        """One JSON array per line: name, start_ns, end_ns, parent index, op id."""
        with gzip.open(path, "wt") as fh:
            for row in zip(self.name, self.start, self.end, self.parent, self.opid):
                fh.write(json.dumps([self.names[row[0]], *row[1:]]) + "\n")

    def summary(self) -> tuple[dict, dict, dict, list[str]]:
        """Totals per (op kind, span name), searches and layer time per op, problems.

        A span's self time is its duration minus the part its child spans
        cover.  Every operation must contain each span that EXPECTED names
        for its kind: a missing one means a wrapper no longer sits where
        the program looks the function up, so that layer would read 0.
        Each build's BUILD_LAYERS times must leave a non-negative rest of
        its root span, the time in no named layer.
        """
        n = len(self.start)
        child = array("q", bytes(8 * n))
        for i in range(n):
            if self.parent[i] >= 0:
                child[self.parent[i]] += self.end[i] - self.start[i]
        ids = {name: i for i, name in enumerate(self.names)}
        layer_ids = {ids[name]: own for name, own in BUILD_LAYERS.items() if name in ids}
        totals: dict[tuple[str, str], list[int]] = {}
        searches: dict[int, int] = {}
        seen: dict[int, int] = {}
        rest: dict[int, int] = {}
        search_id = ids.get("dijkstra.search")
        for i in range(n):
            op, name = self.opid[i], self.name[i]
            kind = self.op_kinds[op]
            dur = self.end[i] - self.start[i]
            own = dur - child[i]
            seen[op] = seen.get(op, 0) | 1 << name
            if self.parent[i] < 0:
                rest[op] = rest.get(op, 0) + dur
            elif kind == "build" and name in layer_ids:
                rest[op] = rest.get(op, 0) - (own if layer_ids[name] else dur)
            if name == search_id:
                searches[op] = searches.get(op, 0) + 1
            t = totals.setdefault((kind, self.names[name]), [0, 0, 0])
            t[0] += 1
            t[1] += dur
            t[2] += own
        problems = []
        for kind, names in EXPECTED.items():
            need = sum(1 << ids[name] for name in names if name in ids)
            ops = [op for op, k in self.op_kinds.items() if k == kind]
            bad = [op for op in ops if not names <= ids.keys() or seen[op] & need != need]
            if bad:
                got = {name for name, i in ids.items() if seen[bad[0]] >> i & 1}
                problems.append(f"{len(bad)} of {len(ops)} {kind} ops lack a span; "
                                f"op {bad[0]} lacks {', '.join(sorted(names - got))}")
        problems += [f"op {op}: layers exceed the build by {-ns} ns"
                     for op, ns in rest.items() if self.op_kinds[op] == "build" and ns < 0]
        builds_rest = {op: ns for op, ns in rest.items() if self.op_kinds[op] == "build"}
        return totals, searches, builds_rest, problems


def layer_metrics(tracer: Tracer, k: int, den_bits: int, env_bytes: int,
                  comparisons_mean: float, reported_calls: dict[int, int],
                  traced_build_s: list[float],
                  untraced_build_s: list[float]) -> tuple[dict, list[str]]:
    """Per-layer metrics (value, unit) from the spans, plus trace problems.

    ``reported_calls`` maps each traced build's op id to the search count
    the build printed (``BuildResult.dijkstra_calls``).  Measured builds
    alternate untraced and traced, and their times are scaled to the
    reference speed, so the tracing overhead is the median over those
    pairs of traced minus untraced time.  Per-layer times are not scaled.
    """
    totals, searches_by_op, build_rest, problems = tracer.summary()
    for op, calls in reported_calls.items():
        if searches_by_op.get(op, 0) != calls:
            problems.append(f"op {op}: traced searches differ from dijkstra_calls={calls}")

    def total(kind: str, name: str) -> list[int]:
        """[count, duration_ns, self_ns] over every span of that name in that kind of op."""
        return totals.get((kind, name), [0, 0, 0])

    nb = total("build", "op.build")[0]
    nc = total("cli_query", "op.cli_query")[0]
    nq = total("query", "op.query")[0]
    if not (nb and nc and nq):
        return {}, problems + [f"traced {nb} builds, {nc} CLI and {nq} library queries"]

    def per_build_ms(name: str, field: int = 1) -> float:
        return total("build", name)[field] / nb / 1e6

    searches, search_ns, _ = total("build", "dijkstra.search")
    lookups, lookup_ns, _ = total("query", "query.locate_segment")
    metrics = {
        "dijkstra.search_ms": (search_ns / nb / 1e6, "ms"),
        "dijkstra.searches": (searches / nb, "count"),
        "dijkstra.search_ms_mean": (search_ns / searches / 1e6, "ms"),
        "dijkstra.searches_per_segment": (searches / nb / k, "ratio"),
        "model.cost_line_ms": (per_build_ms("model.cost_line"), "ms"),
        "model.validate_ms": (per_build_ms("model.validate_graph"), "ms"),
        "envelope.self_ms": (per_build_ms("envelope.build_index_detailed", 2), "ms"),
        "envelope.check_ms": (per_build_ms("envelope.check_index_invariants"), "ms"),
        "envelope.k": (k, "count"),
        "envelope.max_den_bits": (den_bits, "bits"),
        "graphio.parse_graph_ms": (per_build_ms("graphio.parse_graph"), "ms"),
        "graphio.document_ms": (per_build_ms("graphio.document_from_index"), "ms"),
        "graphio.format_envelope_ms": (per_build_ms("graphio.format_envelope"), "ms"),
        "build.other_ms": (sum(build_rest.values()) / nb / 1e6, "ms"),
        "graphio.env_bytes": (env_bytes, "bytes"),
        "graphio.parse_envelope_ms": (
            total("cli_query", "graphio.parse_envelope")[1] / nc / 1e6, "ms"),
        "cli.overhead_ms": (total("cli_query", "op.cli_query")[2] / nc / 1e6, "ms"),
        "query.lookup_us": (lookup_ns / lookups / 1e3, "us"),
        "query.comparisons_mean": (comparisons_mean, "count"),
        "trace.overhead_ms": (statistics.median(
            t - u for t, u in zip(traced_build_s, untraced_build_s)) * 1e3, "ms"),
    }
    return metrics, problems
