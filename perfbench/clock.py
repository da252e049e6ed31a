"""Reference-speed clock: wall time rescaled by an interleaved fixed kernel.

On a shared machine the interpreter's speed drifts by tens of percent over
seconds, which no amount of in-run repetition removes.  The loop therefore
runs a fixed pure-Python kernel before every case and after the last one:
sorting, dict and set building, graph search, per-update dispatch through a
table larger than a core's cache, and a bitmask closure, the operations the
library spends its time on.  A case's wall time is divided by the mean of
the kernel times on either side of it and multiplied by ``REF_SECONDS``: the
result is the case's duration on a machine where the kernel takes exactly
``REF_SECONDS``.  The kernel is the benchmark's own code, so a change to the
library scales the rescaled times by the same factor as the wall times.
"""

from __future__ import annotations

import random
import time

# Kernel duration that rescaled times refer to: its typical wall time on the
# 2-vCPU virtual machine (Python 3.11) on which BASELINE.md was measured.
REF_SECONDS = 0.011

_RNG = random.Random(20260217)
_N = 400
_ARCS = [(_RNG.randrange(_N), _RNG.randrange(_N)) for _ in range(2000)]
# a stream of signed updates and a rank table, larger than a core's cache
_UPDATES = [(_RNG.choice((1, -1)), _RNG.randrange(_N), _RNG.randrange(_N)) for _ in range(10000)]
_RANK = {(u, v): i for i, (_, u, v) in enumerate(_UPDATES[::2])}
# adjacency bitmask rows of a 160-node graph
_ROWS = [_RNG.getrandbits(160) & _RNG.getrandbits(160) & _RNG.getrandbits(160) for _ in range(160)]


class _Counters:
    __slots__ = ("counts",)

    def __init__(self) -> None:
        self.counts = [0] * 64

    def observe(self, rank: int, sign: int) -> None:
        self.counts[rank & 63] += sign


def kernel() -> int:
    """Graph search over sorted arcs, per-update dispatch through a rank
    table, and a bitmask closure: the access patterns of the library's hot
    loops."""
    adj: dict[int, list[int]] = {}
    for u, v in sorted(set(_ARCS)):
        adj.setdefault(u, []).append(v)
    total = 0
    for src in range(0, _N, 8):
        seen = {src}
        stack = [src]
        while stack:
            x = stack.pop()
            for y in adj.get(x, ()):
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        total += len(seen)
    counters = _Counters()
    for sign, u, v in _UPDATES:
        rank = _RANK.get((u, v))
        if rank is not None:
            counters.observe(rank, sign)
    for s in range(0, len(_ROWS), 8):
        seen = 0
        frontier = _ROWS[s]
        while frontier:
            seen |= frontier
            nxt = 0
            while frontier:
                low = frontier & -frontier
                nxt |= _ROWS[low.bit_length() - 1]
                frontier ^= low
            frontier = nxt & ~seen
        total += seen.bit_count()
    return total + sum(counters.counts)


def kernel_seconds() -> float:
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def scale(before: float, after: float) -> float:
    """Factor turning wall seconds between two kernel runs into reference seconds."""
    return REF_SECONDS / ((before + after) / 2)
