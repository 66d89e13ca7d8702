"""Answer checks that do not trust the program's own parser or checker.

Envelope files are parsed here with ``json`` and ``Fraction``, checked
for structure, and walked over the generated rows.  Lines are compared,
not witness paths, since an equally short witness is an equally right
answer.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from instances import Instance


@dataclass(frozen=True)
class Segment:
    lo: Fraction
    hi: Fraction
    c0: Fraction
    c1: Fraction
    vertices: tuple[int, ...]

    def cost(self, lam: Fraction) -> Fraction:
        return (1 - lam) * self.c0 + lam * self.c1


@dataclass(frozen=True)
class Answer:
    """The expected answer at one parameter, from a linear scan."""

    segment: int
    cost: Fraction
    c0: Fraction
    c1: Fraction
    cli_line: str


def parse_envelope_text(text: str) -> tuple[int, int, list[Segment]]:
    """Parse an ``.env`` document; raises ValueError/KeyError/TypeError if malformed."""
    doc = json.loads(text)
    if doc["format"] != 1:
        raise ValueError(f"format {doc['format']!r}")
    segments = [
        Segment(
            Fraction(s["lo"]),
            Fraction(s["hi"]),
            Fraction(s["c0"]),
            Fraction(s["c1"]),
            tuple(int(v) for v in s["vertices"]),
        )
        for s in doc["segments"]
    ]
    if doc["k"] != len(segments):
        raise ValueError(f"k={doc['k']} but {len(segments)} segments")
    return int(doc["source"]), int(doc["target"]), segments


def envelope_problems(text: str, inst: Instance) -> tuple[list[Segment], list[str]]:
    """Structural and path checks of one envelope file against its instance."""
    try:
        source, target, segs = parse_envelope_text(text)
    except (ValueError, KeyError, TypeError, ZeroDivisionError) as exc:
        return [], [f"unparseable envelope: {exc!r}"]
    problems = []
    if (source, target) != (inst.source, inst.target):
        problems.append(f"pair ({source}, {target}) is not ({inst.source}, {inst.target})")
    if not segs:
        return segs, problems + ["no segments"]
    if segs[0].lo != 0 or segs[-1].hi != 1:
        problems.append("segments do not span [0, 1]")
    for i, seg in enumerate(segs):
        if not seg.lo < seg.hi:
            problems.append(f"segment {i} is empty")
    for i, (a, b) in enumerate(zip(segs, segs[1:])):
        if a.hi != b.lo:
            problems.append(f"segments {i} and {i + 1} do not meet")
        if not a.c1 - a.c0 > b.c1 - b.c0:
            problems.append(f"slope does not decrease at segment {i + 1}")
        if a.cost(a.hi) != b.cost(a.hi):
            problems.append(f"lines disagree at breakpoint {a.hi}")
    if inst.breakpoints is not None and tuple(s.hi for s in segs[:-1]) != inst.breakpoints:
        problems.append("breakpoints differ from the ones known by construction")
    weights = {(t, h): (w0, w1) for t, h, w0, w1 in inst.rows}
    for i, seg in enumerate(segs):
        problems += walk_problems(i, seg, weights, inst)
    return segs, problems


def walk_problems(i: int, seg: Segment, weights: dict, inst: Instance) -> list[str]:
    verts = seg.vertices
    if verts[0] != inst.source or verts[-1] != inst.target:
        return [f"segment {i}: walk does not go from source to target"]
    if len(set(verts)) != len(verts):
        return [f"segment {i}: walk repeats a vertex"]
    c0 = c1 = Fraction(0)
    for u, v in zip(verts, verts[1:]):
        if (u, v) not in weights:
            return [f"segment {i}: no edge {u}->{v}"]
        w0, w1 = weights[(u, v)]
        c0 += w0
        c1 += w1
    if (c0, c1) != (seg.c0, seg.c1):
        return [f"segment {i}: walk costs ({c0}, {c1}), line says ({seg.c0}, {seg.c1})"]
    return []


def _q(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def answer(segs: list[Segment], lam: Fraction) -> Answer:
    """Linear scan; at a breakpoint the leftmost segment owns the parameter."""
    for i, seg in enumerate(segs):
        if seg.lo <= lam <= seg.hi:
            cost = seg.cost(lam)
            line = (
                f"cost={_q(cost)} path={','.join(map(str, seg.vertices))} "
                f"segment=[{_q(seg.lo)},{_q(seg.hi)}]\n"
            )
            return Answer(i, cost, seg.c0, seg.c1, line)
    raise ValueError(f"no segment contains {lam}")


def index_problems(index, segs: list[Segment]) -> list[str]:
    """The library index must hold the same intervals and lines as the file."""
    got = [(s.lo, s.hi, s.line.c0, s.line.c1) for s in index.segments]
    want = [(s.lo, s.hi, s.c0, s.c1) for s in segs]
    return [] if got == want else ["library index differs from the envelope file"]


def document_problems(doc, segs: list[Segment]) -> list[str]:
    """The program's own reader must see what this parser sees."""
    got = [(s.lo, s.hi, s.c0, s.c1, tuple(s.vertices)) for s in doc.segments]
    want = [(s.lo, s.hi, s.c0, s.c1, s.vertices) for s in segs]
    return [] if got == want else ["read_envelope disagrees with the file"]


def oracle_problems(segs, graph, inst, lambdas, shortest_path_length) -> list[str]:
    """Envelope cost must equal a plain Dijkstra distance at sampled parameters."""
    problems = []
    for lam in lambdas:
        want = shortest_path_length(graph, lam, inst.source, inst.target)
        got = answer(segs, lam).cost
        if got != want:
            problems.append(f"at {lam}: envelope cost {got}, shortest path {want}")
    return problems
