"""Seed-deterministic instance generators.

Two families: uniform random simple digraphs for fuzzing, and serial
two-route "chain" instances whose envelope size is known by
construction, used to exercise scaling.
"""

from __future__ import annotations

import random
import sys
from fractions import Fraction
from math import gcd

from .errors import GeneratorParameterError, NumberSizeError
from .model import MAX_EDGES, MAX_VERTICES, DualWeightGraph, as_rational, show_number


def random_graph(
    vertices: int,
    edges: int,
    weight_max: int | str | Fraction = 10,
    seed: int = 0,
) -> DualWeightGraph:
    """Random simple digraph (no self-loops, no parallel edges).

    Weights are drawn uniformly from the hundredths in (0, weight_max],
    so files render as two-decimal strings.  The same seed always yields
    the same graph.
    """
    try:
        wmax = as_rational(weight_max)
    except (ValueError, ZeroDivisionError) as exc:
        raise GeneratorParameterError(
            f"bad weight bound {weight_max!r:.40}: {exc!s:.150}"
        ) from None
    if not 2 <= vertices <= MAX_VERTICES:
        raise GeneratorParameterError(
            f"vertex count {show_number(vertices)} outside 2..{MAX_VERTICES}"
        )
    max_edges = vertices * (vertices - 1)
    if not (1 <= edges <= min(max_edges, MAX_EDGES)):
        raise GeneratorParameterError(
            f"edge count {show_number(edges)} outside "
            f"1..{min(max_edges, MAX_EDGES)} for {vertices} vertices"
        )
    if wmax <= 0:
        raise GeneratorParameterError("weight bound must be positive")
    cents = int(wmax * 100)
    if cents < 1:
        raise GeneratorParameterError("weight bound below 0.01")

    rng = random.Random(seed)
    # Pair m of the row-major list of ordered pairs (i, j), i != j, has
    # i, r = divmod(m, V - 1) and j = r or r + 1.  Sampling indices draws
    # what sampling that list would, since ``sample``'s draws depend only on
    # the population size, without building all V(V - 1) pairs.
    chosen = [divmod(m, vertices - 1) for m in rng.sample(range(max_edges), edges)]
    tails = [tail for tail, _r in chosen]
    heads = [r if r < tail else r + 1 for tail, r in chosen]
    draws = [rng.randint(1, cents) for _ in range(2 * edges)]
    g = gcd(100, *draws)
    w0 = [w // g for w in draws[::2]]
    w1 = [w // g for w in draws[1::2]]
    del chosen, draws  # not held while the graph is built
    return DualWeightGraph(vertices, 100 // g, tails, heads, w0, w1)


def max_chain_blocks() -> int | None:
    """Largest block count whose graph file can be written, or None if any can.

    The widest weight, ``(1 + 2**(b+1)) / 2``, is written as the decimal
    ``2**b + 0.5``: ``10 * 2**b + 5`` in digits.  That fits in ``n``
    digits exactly when ``2**b < 10**(n-1)``, with ``n`` Python's int
    printing limit.
    """
    limit = sys.get_int_max_str_digits()
    return (10 ** (limit - 1)).bit_length() - 1 if limit else None


def chain_graph(blocks: int) -> DualWeightGraph:
    """Serial chain of two-route blocks with blocks+1 envelope segments.

    Block i offers an upper and a lower two-edge route between junction
    3i and junction 3(i+1).  The upper route costs (1, 1 + 2**(b+1-i))
    across the parameter range and the lower (1 + 2**i, 1), so the
    routes swap optimality at a distinct parameter per block and every
    combination of route choices has a distinct cost line (the level
    offsets 2**i are super-increasing, so subset sums are unique).

    Raises NumberSizeError above :func:`max_chain_blocks`, before
    building weights whose total size grows with the square of
    ``blocks``.
    """
    if blocks < 1:
        raise GeneratorParameterError("need at least 1 block")
    cap = max_chain_blocks()
    if cap is not None and blocks > cap:
        raise NumberSizeError(
            f"cannot write a number over {sys.get_int_max_str_digits()} digits: "
            f"a chain of {show_number(blocks)} blocks has wider weights "
            f"(at most {cap} blocks)"
        )
    # Weights in halves: 1/2 is among them, so 2 is their least common denominator.
    tails, heads, w0, w1 = [], [], [], []
    for i in range(blocks):
        start = 3 * i
        upper, lower, end = start + 1, start + 2, start + 3
        tails += [start, upper, start, lower]
        heads += [upper, end, lower, end]
        w0 += [1, 1, 1 + 2**i, 1 + 2**i]
        w1 += [1 + 2 ** (blocks + 1 - i), 1 + 2 ** (blocks + 1 - i), 1, 1]
    return DualWeightGraph(3 * blocks + 1, 2, tails, heads, w0, w1)


def chain_endpoints(blocks: int) -> tuple[int, int]:
    """Natural source/target pair for :func:`chain_graph`."""
    return 0, 3 * blocks
