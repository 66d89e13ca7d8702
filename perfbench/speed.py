"""Machine speed, measured by a fixed piece of pure-Python work.

On a shared virtual machine the speed of one thread changes from one
moment to the next as other tenants come and go: on the 2-vCPU machine
used to set the benchmark's bounds it switched between two levels about
1.7x apart, often several times a second, and thread CPU time rose and
fell with it.  A median over a window then depends on how much of the
window the machine spent slow.

The benchmark therefore runs this probe between every two units of work
and scales each unit's times by REFERENCE_NS over the mean of the probes
on either side of it: times are reported at the speed at which the probe
takes REFERENCE_NS.  The probe does what the program mostly does (a
Dijkstra search over ``Fraction`` weights, then JSON and ``Fraction``
parsing) and uses no parapath code, so a change to the program moves the
scaled times and not the probe.
"""

from __future__ import annotations

import heapq
import json
import random
from fractions import Fraction
from time import thread_time_ns

REFERENCE_NS = 2_000_000

_rng = random.Random(12345)
# A fixed graph of 45 vertices, each with 4 out-edges of two Fraction weights.
_ADJ = tuple(
    tuple((_rng.randrange(45), Fraction(_rng.randint(1, 999), 100),
           Fraction(_rng.randint(1, 999), 100)) for _ in range(4))
    for _ in range(45)
)
_LAM = Fraction(3, 7)
# A small document of the shape of an ``.env`` file.
_DOC = json.dumps({"segments": [
    {"lo": f"{_rng.randint(1, 10**9)}/{_rng.randint(1, 10**9)}",
     "c0": str(_rng.randint(1, 10**12)), "vertices": list(range(40))}
    for _ in range(12)
]})


def _work() -> None:
    # Dijkstra at a fixed parameter, as the program's searches do.
    dist = {0: Fraction(0)}
    heap = [(Fraction(0), 0)]
    done = set()
    while heap:
        d, u = heapq.heappop(heap)
        if u in done:
            continue
        done.add(u)
        for v, w0, w1 in _ADJ[u]:
            nd = d + (1 - _LAM) * w0 + _LAM * w1
            if v not in dist or nd < dist[v]:
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    # Parse and format, as a CLI query does.
    for _ in range(3):
        for seg in json.loads(_DOC)["segments"]:
            Fraction(seg["lo"]) + Fraction(seg["c0"])
            ",".join(str(v) for v in seg["vertices"])


def probe_ns() -> int:
    """Thread CPU time of one fixed piece of work, in ns."""
    start = thread_time_ns()
    _work()
    return thread_time_ns() - start
