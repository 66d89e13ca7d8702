#!/usr/bin/env python3
"""Self-test of the benchmark's checker and output contract.

    python3 perfbench/selftest.py

1. A tampered ``.env`` is caught: the envelope check reports it, a CLI
   query against it is a failed operation, and a build whose bytes differ
   from the first build is a failed operation.  A traced build in which one
   layer's wrapper is missing is reported as a trace problem.
2. A one-second run of every workload, traced and untraced, exits 0,
   reports no failure, and prints every metric that ``BENCHMARK.json``
   names, with its unit, on a ``metric`` line and in the final JSON.
3. Without the program's sources next to it, the benchmark exits non-zero
   and prints no result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction

import checks
import run
import tracing

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text())
failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(("PASS " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def tampered_envelope() -> None:
    sys.path.insert(0, str(run.SRC))
    work = run.WORK / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    r = run.Run("chain-deep", 1, 0.0, False, work)
    r.setup()
    r.check_reference()
    expect(not r.problems, "the untampered envelope passes every check")

    # Shift the line of the segment that answers the first pool parameter.
    doc = json.loads(r.reference)
    seg = doc["segments"][r.expected[0].segment]
    for key in ("c0", "c1"):
        seg[key] = str(Fraction(seg[key]) + 1)
    text = json.dumps(doc, indent=2) + "\n"
    _, problems = checks.envelope_problems(text, r.inst)
    expect(bool(problems), "the envelope check rejects the tampered file")

    r.env.write_text(text)
    before = r.failed
    r.cli_query(0)
    expect(r.failed == before + 1, "a CLI query against the tampered file is a failed operation")

    r.reference = text.encode()
    before = r.failed
    r.build()
    expect(r.failed == before + 1, "a build whose bytes differ from the first is a failed operation")

    r.tracer = tracing.Tracer(r.mods)
    r.tracer.targets = [t for t in r.tracer.targets if t[2] != "model.cost_line"]
    r.build(traced=True)
    *_, problems = r.tracer.summary()
    expect(any("model.cost_line" in p for p in problems),
           "a traced build without the cost_line span is a trace problem")
    shutil.rmtree(work)


def tiny_runs() -> None:
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in BENCH[group]}
        for w in BENCH["workloads"]:
            name = w["name"]
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", name, "--seed", "7",
                 "--seconds", "1", "--trace", str(trace)],
                cwd=run.ROOT, capture_output=True, text=True, timeout=180)
            lines = proc.stdout.strip().splitlines()
            what = f"{name} --trace {trace}"
            if proc.returncode != 0 or not lines:
                expect(False, f"{what} exits 0 with a result ({proc.stderr[-300:]})")
                continue
            result = json.loads(lines[-1])
            expect(result["correct"] and result["failed"] == 0, f"{what} has no failed operation")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(got == want, f"{what} reports exactly the {group} metrics with their units")
            printed = {tuple(l.split()[1::2]) for l in lines if l.startswith("metric ")}
            expect(printed == set(want.items()), f"{what} prints each metric with its unit")


def bare_directory() -> None:
    bare = run.WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    for path in BENCH["paths"]:
        shutil.copytree(run.ROOT / path, bare / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *BENCH["command"][1:], "--workload", BENCH["workloads"][0]["name"],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180)
    expect(proc.returncode != 0 and '"metrics"' not in proc.stdout,
           "without the sources it exits non-zero and prints no result")
    shutil.rmtree(bare)


def main() -> int:
    tampered_envelope()
    tiny_runs()
    bare_directory()
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
