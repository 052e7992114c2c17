"""The benchmark's fixed reference block: the yardstick for the host's speed.

A shared host runs the same code at different speeds from one half-minute
to the next (other tenants, clock changes), by up to about 1.5x.  A run
that happens to fall into a slow stretch would read as a regression.  So
the benchmark times this block right before and right after every program
iteration, in the same process, and reports each iteration's time in
units of the block's time next to it, scaled back to seconds by
:data:`REFERENCE_S`.

The block is the same kind of work the program does: interpreted loops
over heaps, dicts and small tuples, JSON encoding and decoding, and many
small numpy calls.  It depends on nothing in ``src/``, so a change to the
program never changes the yardstick.  Changing this file changes every
normalized metric, like changing the benchmark.
"""

from __future__ import annotations

import heapq
import json
import time

import numpy as np

__all__ = ["REFERENCE_S", "reference_block", "time_reference"]

#: A round figure near the block's time on the host the bounds were set on
#: when it was quiet (0.25-0.28 s; 2-core shared VM, Python 3.11): a
#: normalized time is ``measured * REFERENCE_S / measured_block``.
REFERENCE_S = 0.3

_ROUNDS = 5


def _interpreted(n: int = 50_000) -> int:
    heap: list[int] = []
    table: dict[int, int] = {}
    for i in range(n):
        heapq.heappush(heap, (i * 7919) % 10007)
        table[i % 1000] = table.get(i % 1000, 0) + i
    drained = [heapq.heappop(heap) for _ in range(len(heap))]
    rows = [{"id": k, "sum": v, "pair": (k, v % 97)} for k, v in table.items()]
    return len(json.loads(json.dumps(rows))) + drained[0]


def _numeric(n: int = 3_000) -> float:
    base = np.arange(128, dtype=np.float64)
    total = 0.0
    for i in range(n):
        capped = np.minimum(base * 0.5 + i, 64.0)
        total += float(capped.sum()) + int(np.argmax(capped))
    return total


def reference_block() -> float:
    """A fixed amount of work; the result only keeps it from being skipped."""
    total = 0.0
    for _ in range(_ROUNDS):
        total += _interpreted() + _numeric()
    return total


def time_reference() -> float:
    """Wall seconds of one :func:`reference_block`."""
    start = time.perf_counter()
    reference_block()
    return time.perf_counter() - start
