"""Seeded inputs for the benchmark workloads.

Instances are plain rows ``(tail, head, w0, w1)`` with exact ``Fraction``
weights, so the checker can walk them without going through the
program's own parser.  The benchmark writes them to ``.psp`` text itself.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

CHAIN_BLOCKS = 63
GRID_SIDE = 20
# The grid's weights come from this fixed seed (k=20, 76 searches); the run
# seed only relabels vertices and reorders edges.  An isomorphic instance has
# the same envelope lines, so build cost does not depend on the run seed,
# while ids, file bytes and tie-breaks do.
GRID_SHAPE_SEED = 3
POOL_SIZE = 1024

Row = tuple[int, int, Fraction, Fraction]


@dataclass(frozen=True)
class Instance:
    vertex_count: int
    rows: tuple[Row, ...]
    source: int
    target: int
    # Interior breakpoints known by construction, or None when unknown.
    breakpoints: tuple[Fraction, ...] | None


def chain_instance(chain_graph) -> Instance:
    """``chain_graph(63)`` from the library, with its breakpoints derived here.

    Block i's routes have lines (1, 1 + 2**(b+1-i)) and (1 + 2**i, 1) (each
    split over two half-weight edges), which cross at
    2**i / (2**i + 2**(b+1-i)); the envelope breaks once per block.
    """
    b = CHAIN_BLOCKS
    graph = chain_graph(b)
    rows = tuple((e.tail, e.head, e.w0, e.w1) for e in graph.edges)
    bps = sorted(Fraction(2**i, 2**i + 2 ** (b + 1 - i)) for i in range(b))
    return Instance(graph.vertex_count, rows, 0, 3 * b, tuple(bps))


def grid_instance(seed: int) -> Instance:
    """Bidirectional 20x20 grid, corner to corner, with anti-correlated weights.

    Each street gets a distance d and a travel time near 10.01 - d, both in
    hundredths: short streets are slow and long ones fast, the shape of a
    time-versus-distance road trade-off.
    """
    side = GRID_SIDE
    shape = random.Random(GRID_SHAPE_SEED)
    streets = []
    for r in range(side):
        for c in range(side):
            for r2, c2 in ((r, c + 1), (r + 1, c)):
                if r2 < side and c2 < side:
                    d = shape.randint(1, 1000)
                    t = min(1000, max(1, 1001 - d + shape.randint(-100, 100)))
                    streets.append((r * side + c, r2 * side + c2, d, t))
    rng = random.Random(seed)
    label = list(range(side * side))
    rng.shuffle(label)
    rows = []
    for a, b, d, t in streets:
        w0, w1 = Fraction(d, 100), Fraction(t, 100)
        rows.append((label[a], label[b], w0, w1))
        rows.append((label[b], label[a], w0, w1))
    rng.shuffle(rows)
    return Instance(side * side, tuple(rows), label[0], label[-1], None)


def format_psp(inst: Instance) -> str:
    lines = [f"psp {inst.vertex_count} {len(inst.rows)}"]
    lines += [f"e {t} {h} {w0} {w1}" for t, h, w0, w1 in inst.rows]
    return "\n".join(lines) + "\n"


def uniform_lambda(rng: random.Random) -> Fraction:
    q = rng.randint(1, 10**6)
    return Fraction(rng.randint(0, q), q)


def uniform_pool(seed: int) -> tuple[Fraction, ...]:
    rng = random.Random(seed)
    return tuple(uniform_lambda(rng) for _ in range(POOL_SIZE))


def mixed_pool(seed: int, breakpoints: tuple[Fraction, ...]) -> tuple[Fraction, ...]:
    """Mostly uniform rationals, plus the cases a lookup can get wrong.

    10% exact breakpoints (the leftmost segment must win), 5% each of 0 and
    1, and 10% values within a relative 2**-40..2**-60 of a breakpoint, whose
    denominators reach about 125 bits.
    """
    rng = random.Random(seed)
    pool = []
    for _ in range(POOL_SIZE):
        u = rng.random()
        if u < 0.70:
            pool.append(uniform_lambda(rng))
        elif u < 0.80:
            pool.append(rng.choice(breakpoints))
        elif u < 0.85:
            pool.append(Fraction(0))
        elif u < 0.90:
            pool.append(Fraction(1))
        else:
            bp = rng.choice(breakpoints)
            eps = Fraction(1, rng.randint(2**40, 2**60))
            pool.append(bp - bp * eps if rng.random() < 0.5 else bp + (1 - bp) * eps)
    return tuple(pool)
