#!/usr/bin/env python3
"""Layered build/query benchmark for parapath.

    python3 perfbench/run.py --workload chain-deep --seed 1 --seconds 10 --trace 0

Run from the repository root.  One workload runs in this one
single-threaded process as a closed loop with one caller: each operation
starts when the previous one has returned.  The program is driven only
through ``parapath.cli.main`` (in process, output captured),
``build_index``, ``query``, ``read_graph`` and ``read_envelope``, with the
sequential builder.

Each run sets up several times (import, generate, write the ``.psp``, build
the ``.env`` and the library index), then spends ``--seconds`` on three
kinds of operation: file-to-file ``parapath build``, library ``query``
calls, and in-process ``parapath query`` against the ``.env``.  Every
answer is checked outside the timed regions; a wrong one is a failed
operation.

Operation times are this thread's CPU time (``time.thread_time_ns``),
scaled to a reference machine speed by the probe in speed.py, which runs
between every two units of work.  The program is single-threaded and
CPU-bound (its files live in the page cache), so on a quiet machine CPU
time is wall time; on a virtual machine it leaves out the stalls when the
host takes the CPU away.  The ``--seconds`` window itself is wall-clock
time.

With ``--trace 0`` the last line carries the end-to-end metrics; with
``--trace 1`` the layers are traced (see tracing.py) and it carries the
per-layer metrics.  Earlier lines name every metric with its unit.
"""

from __future__ import annotations

import argparse
import array
import gc
import importlib
import io
import json
import os
import platform
import random
import re
import resource
import shutil
import statistics
import sys
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter, thread_time_ns

import checks
import instances
import speed
import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUPS = 5
QUERY_BATCH = 512
CLI_BATCH = 4
ORACLE_SAMPLES = 8
# Most timing samples kept per kind; beyond that, a uniform sample of them.
SAMPLE_CAP = 1 << 16
BUILD_OUTPUT = re.compile(r"k=(\d+) breakpoints=\d+ dijkstra_calls=(\d+)\n")


@dataclass(frozen=True)
class Workload:
    # chain_graph(63) with the edge-case lambda mix, else the seeded grid
    # with uniform lambdas (its breakpoints are not known by construction).
    chain: bool
    # Shares of --seconds for builds, library queries and CLI queries.
    shares: tuple[float, float, float]


WORKLOADS = {
    "chain-deep": Workload(chain=True, shares=(0.4, 0.2, 0.4)),
    "grid-wide": Workload(chain=False, shares=(0.6, 0.1, 0.3)),
}


def fresh_import() -> dict:
    """Import parapath from this checkout's ``src``, dropping any earlier copy."""
    for name in [n for n in sys.modules if n == "parapath" or n.startswith("parapath.")]:
        del sys.modules[name]
    mods = {
        "lib": importlib.import_module("parapath"),
        "cli": importlib.import_module("parapath.cli"),
    }
    for name in ("envelope", "graphio", "query"):
        mods[name] = sys.modules[f"parapath.{name}"]
    if SRC.resolve() not in Path(mods["lib"].__file__).resolve().parents:
        raise ImportError(f"parapath imported from {mods['lib'].__file__}, not {SRC}")
    return mods


class Samples:
    """A uniform sample of at most SAMPLE_CAP values (Vitter's algorithm R).

    The array is allocated up front, so the benchmark's own memory, and
    with it ``peak_rss_mb``, does not grow with the program's speed.
    """

    def __init__(self) -> None:
        self.values = array.array("d", bytes(8 * SAMPLE_CAP))
        self.offered = 0
        self.rng = random.Random(0)

    def add(self, x) -> None:
        i = self.offered
        if i >= SAMPLE_CAP:
            i = self.rng.randrange(self.offered + 1)
        if i < SAMPLE_CAP:
            self.values[i] = x
        self.offered += 1

    def kept(self) -> array.array:
        return self.values[:min(self.offered, SAMPLE_CAP)]


def percentile(sorted_values: list, p: float) -> float:
    """Linear interpolation between closest ranks (inclusive method)."""
    pos = (len(sorted_values) - 1) * p / 100
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def timing(values) -> dict:
    """Median, p90, p99, and the highest percentile with at least ten samples beyond it."""
    v = sorted(values)
    out = {"n": len(v), "p50": statistics.median(v), "p90": percentile(v, 90),
           "p99": percentile(v, 99)}
    tail = [p for p in (90, 99, 99.9, 99.99) if len(v) * (100 - p) / 100 >= 10]
    if tail:
        out["tail"] = (f"p{tail[-1]:g}", percentile(v, tail[-1]))
    return out


class Run:
    def __init__(self, name: str, seed: int, seconds: float, trace: bool, work: Path):
        self.seed, self.seconds, self.trace = seed, seconds, trace
        self.workload = WORKLOADS[name]
        self.psp = work / "graph.psp"
        self.env = work / "index.env"
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        # Scaled to the reference speed (see speed.py), in the metrics' units.
        self.setup_s: list[float] = []  # filled by execute()
        self.build_s: list[float] = []  # untraced builds only
        self.traced_build_s: list[float] = []
        self.query_us = Samples()
        self.query_rates = Samples()
        self.cli_ms = Samples()
        self.probe_ns = Samples()
        self.last_probe = speed.probe_ns()
        # Untraced build times as measured, for the run record.
        self.build_ns: list[int] = []
        self.reported_calls: dict[int, int] = {}
        self.batch_ns = array.array("q", bytes(8 * QUERY_BATCH))
        self.comparisons = 0
        self.answered = 0
        self.reference: bytes | None = None
        self.tracer = None
        self.samples: dict = {}

    # -- set-up ---------------------------------------------------------

    def probe(self) -> float:
        """Probe the machine's speed; return the scale for the unit just run.

        The scale is REFERENCE_NS over the mean of the probes on either
        side of the unit.
        """
        before, self.last_probe = self.last_probe, speed.probe_ns()
        self.probe_ns.add(self.last_probe)
        return 2 * speed.REFERENCE_NS / (before + self.last_probe)

    def setup(self) -> float:
        """Import, generate, write the graph, build the ``.env`` and the index.

        Returns the time it took in s, each of its three steps scaled by
        the probes on either side of it.
        """
        seconds = 0.0
        for step in (self._prepare, self.build, self._build_index):
            gc.collect()
            start = thread_time_ns()
            step()
            seconds += (thread_time_ns() - start) * self.probe() / 1e9
        return seconds

    def _prepare(self) -> None:
        self.mods = fresh_import()
        lib = self.mods["lib"]
        w = self.workload
        self.inst = (instances.chain_instance(lib.chain_graph) if w.chain
                     else instances.grid_instance(self.seed))
        self.pool = (instances.mixed_pool(self.seed, self.inst.breakpoints) if w.chain
                     else instances.uniform_pool(self.seed))
        self.psp.write_text(instances.format_psp(self.inst))
        self.graph = lib.read_graph(self.psp)

    def _build_index(self) -> None:
        self.index = self.mods["lib"].build_index(self.graph, self.inst.source, self.inst.target)

    # -- operations -----------------------------------------------------

    def _cli(self, argv: list[str],
             traced: str | None = None) -> tuple[int, int | None, str, int | None]:
        """Run ``parapath.cli.main`` in process: (time, exit code, stdout, op id).

        With ``traced`` set, the layers are traced and the call is the root
        span of one operation of that kind.
        """
        out = io.StringIO()
        tracer = self.tracer if traced else None
        with (redirect_stdout(out), redirect_stderr(io.StringIO()),
              tracer.installed() if tracer else nullcontext()):
            start = thread_time_ns()
            with tracer.op(traced) if tracer else nullcontext() as op:
                try:
                    code = self.mods["cli"].main(argv)
                except (Exception, SystemExit):
                    code = None
            ns = thread_time_ns() - start
        return ns, code, out.getvalue(), op

    def build(self, traced: bool = False) -> int:
        """One file-to-file ``parapath build``; its bytes must match the first.

        Returns its thread CPU time in ns.
        """
        inst = self.inst
        ns, code, out, op = self._cli(
            ["build", str(self.psp), "--source", str(inst.source), "--target",
             str(inst.target), "--out", str(self.env)], "build" if traced else None)
        self.attempted += 1
        m = BUILD_OUTPUT.fullmatch(out)
        if code != 0 or m is None:
            self.failed += 1
            return ns
        if traced:
            self.reported_calls[op] = int(m.group(2))
        data = self.env.read_bytes()
        if self.reference is None:
            self.reference = data
        elif data != self.reference:
            self.failed += 1
            self.problems.append("a build wrote different bytes from the first build")
        return ns

    def query_batch(self, first: int) -> int:
        """QUERY_BATCH library queries, timed one by one, checked afterwards.

        The times go into ``batch_ns``; returns the time of the whole batch.
        """
        query, index, pool, n = self.mods["lib"].query, self.index, self.pool, len(self.pool)
        results = []
        times = self.batch_ns
        batch_start = thread_time_ns()
        for i, j in enumerate(range(first, first + QUERY_BATCH)):
            lam = pool[j % n]
            start = thread_time_ns()
            try:
                r = query(index, lam)
            except Exception:
                r = None
            times[i] = thread_time_ns() - start
            results.append(r)
        batch_ns = thread_time_ns() - batch_start
        self._check_queries(first, results)
        return batch_ns

    def traced_query_batch(self, first: int) -> None:
        query, index, pool, n = self.mods["lib"].query, self.index, self.pool, len(self.pool)
        results = []
        with self.tracer.installed():
            for j in range(first, first + QUERY_BATCH):
                with self.tracer.op("query"):
                    try:
                        results.append(query(index, pool[j % n]))
                    except Exception:
                        results.append(None)
        self._check_queries(first, results)

    def _check_queries(self, first: int, results: list) -> None:
        n = len(self.pool)
        for j, r in enumerate(results, start=first):
            a = self.expected[j % n]
            self.attempted += 1
            if r is None or not (r.segment_index == a.segment and r.cost == a.cost
                                 and r.line.c0 == a.c0 and r.line.c1 == a.c1):
                self.failed += 1
            else:
                self.comparisons += r.comparisons
                self.answered += 1

    def cli_query(self, j: int) -> int:
        """One in-process ``parapath query ENV --lambda X``, checked afterwards.

        Returns its thread CPU time in ns.
        """
        n = len(self.pool)
        argv = ["query", str(self.env), "--lambda", str(self.pool[j % n])]
        ns, code, out, _ = self._cli(argv, "cli_query" if self.trace else None)
        self.attempted += 1
        if code != 0 or out != self.expected[j % n].cli_line:
            self.failed += 1
        return ns

    # -- the run ----------------------------------------------------------

    def check_reference(self) -> None:
        """Full check of the first build's file; every later build must equal it."""
        inst = self.inst
        text = self.reference.decode() if self.reference else ""
        self.segs, problems = checks.envelope_problems(text, inst)
        if not problems:
            lib = self.mods["lib"]
            problems += checks.index_problems(self.index, self.segs)
            problems += checks.document_problems(lib.read_envelope(self.env), self.segs)
            picks = self.pool[:ORACLE_SAMPLES // 2] + tuple(
                s.hi for s in self.segs[:: max(1, len(self.segs) // (ORACLE_SAMPLES // 2))]
            )
            problems += checks.oracle_problems(self.segs, self.graph, inst, picks,
                                               lib.shortest_path_length)
        self.problems += problems
        if not problems:
            self.expected = [checks.answer(self.segs, lam) for lam in self.pool]

    def measure(self) -> None:
        """Interleave the three operation kinds across the whole window.

        Each step runs one unit of the kind furthest behind its share of
        the time, so every kind samples the same stretch of machine noise,
        and then probes the machine's speed to scale the unit's times.  A
        unit is one build, QUERY_BATCH library queries or CLI_BATCH CLI
        queries.  There are at least two builds, so that a traced run has
        a traced and an untraced one; it scales only the build times.
        """
        shares = self.workload.shares
        spent = [0.0, 0.0, 0.0]
        units = [0, 0, 0]
        end = perf_counter() + self.seconds
        while perf_counter() < end or units[0] < 2 or 0 in units:
            kind = min(range(3), key=lambda i: (units[i] > 0, spent[i] / shares[i]))
            start = perf_counter()
            if kind == 0:
                gc.collect()
                traced = self.trace and units[0] % 2 == 1
                ns = self.build(traced)
                scale = self.probe()
                (self.traced_build_s if traced else self.build_s).append(ns * scale / 1e9)
                if not traced:
                    self.build_ns.append(ns)
            elif kind == 1 and self.trace:
                self.traced_query_batch(units[1] * QUERY_BATCH)
                self.probe()
            elif kind == 1:
                batch_ns = self.query_batch(units[1] * QUERY_BATCH)
                scale = self.probe()
                for ns in self.batch_ns:
                    self.query_us.add(ns * scale / 1e3)
                self.query_rates.add(QUERY_BATCH * 1e9 / (batch_ns * scale))
            else:
                times = [self.cli_query(j)
                         for j in range(units[2] * CLI_BATCH, (units[2] + 1) * CLI_BATCH)]
                scale = self.probe()
                if not self.trace:
                    for ns in times:
                        self.cli_ms.add(ns * scale / 1e6)
            spent[kind] += perf_counter() - start
            units[kind] += 1

    def execute(self) -> None:
        self.setup_s = [self.setup() for _ in range(SETUPS)]
        self.check_reference()
        if self.problems:
            return
        if self.trace:
            self.tracer = tracing.Tracer(self.mods)
        self.measure()
        # Before the samples are sorted into new lists.
        self.rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    def end_to_end(self) -> dict:
        build = timing(self.build_s)
        query = timing(self.query_us.kept())
        cli = timing(self.cli_ms.kept())
        self.samples = {"build_s": build, "query_us": query, "query_file_ms": cli,
                        "raw_build_s": timing(ns / 1e9 for ns in self.build_ns),
                        "probe_ms": timing(ns / 1e6 for ns in self.probe_ns.kept())}
        return {
            "build_s.p50": (build["p50"], "s"),
            "query_us.p50": (query["p50"], "us"),
            "query_us.p99": (query["p99"], "us"),
            "query_per_s": (statistics.median(self.query_rates.kept()), "1/s"),
            "query_file_ms.p50": (cli["p50"], "ms"),
            "query_file_ms.p90": (cli["p90"], "ms"),
            "setup_s": (statistics.median(self.setup_s), "s"),
            "peak_rss_mb": (self.rss_kb / 1024, "MB"),
        }

    def per_layer(self) -> dict:
        k = len(self.segs)
        den_bits = max(s.hi.denominator.bit_length() for s in self.segs)
        metrics, problems = tracing.layer_metrics(
            self.tracer, k, den_bits, len(self.reference),
            self.comparisons / max(self.answered, 1), self.reported_calls,
            self.traced_build_s, self.build_s)
        self.problems += problems
        self.samples = {"build_s": timing(self.build_s),
                        "traced_build_s": timing(self.traced_build_s)}
        return metrics


def run_record(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "parapath" / "__init__.py").is_file():
        print(f"error: no parapath sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    record = run_record(args)
    print("# run " + json.dumps(record))

    WORK.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = WORK / f"{stem}-{os.getpid()}"
    work.mkdir()
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace), work)
    try:
        run.execute()
        metrics = {}
        if not run.problems:
            metrics = run.per_layer() if run.trace else run.end_to_end()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if run.problems:
        run.failed = run.attempted  # answers were checked against a wrong envelope
    if run.tracer is not None:
        run.tracer.write(WORK / f"{stem}.spans.jsonl.gz")

    for problem in run.problems[:20]:
        print(f"# problem: {problem}")
    for key, stats in run.samples.items():
        tail = " {}={:.6g}".format(*stats["tail"]) if "tail" in stats else ""
        print(f"# samples {key}: n={stats['n']} p50={stats['p50']:.6g}{tail}")
    attempted = max(run.attempted, 1)
    print(f"# failed_ratio {run.failed / attempted:.6g} ratio "
          f"({run.failed} of {run.attempted} operations)")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value!r} {unit}")

    result = {
        "correct": not run.problems and run.failed == 0,
        "attempted": attempted,
        "failed": run.failed if run.attempted else 1,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    record.update(result, problems=run.problems, samples=run.samples)
    (WORK / f"{stem}.json").write_text(json.dumps(record, indent=1, default=str) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
