"""Host-speed calibration, independent of the program under test.

Shared small hosts change speed by tens of percent within seconds (other
tenants on the same cores).  The benchmark therefore times a fixed kernel
-- pure-Python BFS over a fixed random graph plus a few numpy bit
operations, the two kinds of work the program does -- right before and
right after each operation, and scales the operation's time by
``REFERENCE_S / kernel time``.  The result reads as seconds on a host on
which the kernel takes ``REFERENCE_S``.  The kernel never calls the
program, so a change to the program cannot move it.
"""

from __future__ import annotations

import gc
import random
import statistics
import time
from typing import List

import numpy as np

#: Mean kernel time on a shared 2-vCPU Intel Xeon host with no other load.
REFERENCE_S = 0.0072
_REPEATS = 5

_rng = random.Random(20150323)
_N = 3000
_adj = {i: set() for i in range(_N)}
for _ in range(4 * _N):
    a, b = _rng.randrange(_N), _rng.randrange(_N)
    if a != b:
        _adj[a].add(b)
        _adj[b].add(a)
_ADJ = [sorted(_adj[u]) for u in range(_N)]
del _adj, _rng
_UNSEEN = [-1] * _N
_DIST = [-1] * _N
_QUEUE = [0] * _N
_WORDS = np.random.default_rng(20150323).integers(
    0, 2**62, size=200_000, dtype=np.uint64
)
_BUF = np.empty_like(_WORDS)
_MASK = np.empty_like(_WORDS)


def _kernel() -> int:
    """BFS and bit work on preallocated buffers.

    It allocates (almost) nothing, so its time does not depend on the
    size of the heap of the process that runs it.
    """
    reached = 0
    dist, queue, adj = _DIST, _QUEUE, _ADJ
    for source in range(6):
        dist[:] = _UNSEEN
        dist[source] = 0
        queue[0] = source
        head, tail = 0, 1
        while head < tail:
            u = queue[head]
            head += 1
            du = dist[u] + 1
            for v in adj[u]:
                if dist[v] < 0:
                    dist[v] = du
                    queue[tail] = v
                    tail += 1
        reached += tail
    for shift in range(1, 6):
        np.right_shift(_WORDS, np.uint64(shift), out=_BUF)
        np.bitwise_xor(_BUF, _WORDS, out=_BUF)
        np.bitwise_and(_BUF, np.uint64(7), out=_MASK)
        reached += int(np.count_nonzero(_MASK))
    return reached


def sample() -> List[float]:
    """Kernel times in seconds of a few back-to-back repeats."""
    times = []
    collecting = gc.isenabled()
    gc.disable()
    try:
        for _ in range(_REPEATS):
            start = time.perf_counter()
            _kernel()
            times.append(time.perf_counter() - start)
    finally:
        if collecting:
            gc.enable()
    return times


def scale(seconds: float, before: List[float], after: List[float]) -> float:
    """``seconds`` measured between two samples, at reference speed."""
    return seconds * REFERENCE_S / statistics.mean(before + after)
