"""Host-speed probe: what the wall clock is worth right now.

This container shares its cores: the same round of the same queries
takes 6 ms or 11 ms per query from one second to the next, whatever the
program does.  A fixed kernel of the benchmark's own — interpreter
bytecode, pointer chasing and small numpy blocks, the mix the engine
runs on — is timed between operations all through a round, and the
round's wall statistics are divided by ``slowdown`` = median probe time
over :data:`REFERENCE_NS`.  Reported wall metrics are therefore wall
time *at reference host speed*; the simulated clock needs none of this.

The kernel calls nothing in ``repro``, so no change to the program can
move it.
"""

from __future__ import annotations

import statistics
from time import perf_counter_ns
from typing import List, Tuple

import numpy as np

# Median probe time on the quiet reference container (2-core Xeon 2.1 GHz).
REFERENCE_NS = 950_000

_NODES = 4096
_STEPS = 4096
_rng = np.random.default_rng(0)
_GRAPH = [row.tolist() for row in _rng.integers(0, _NODES, (_NODES, 8))]
_BLOCK = _rng.random((32, 64), dtype=np.float32)
_QUERY = _rng.random(64, dtype=np.float32)


def _kernel() -> int:
    node = total = 0
    for step in range(_STEPS):
        node = _GRAPH[node][step & 7]
        total += node * 3 % 7
        if step & 63 == 0:
            diff = _BLOCK - _QUERY
            total += int(np.einsum("ij,ij->i", diff, diff).argmin())
    return total


class Probe:
    """Collects probe samples; :meth:`finish` summarises and resets."""

    def __init__(self) -> None:
        self._samples: List[int] = []
        self.last = 1.0  # the most recent sample, as a multiple of the reference

    def sample(self) -> float:
        start = perf_counter_ns()
        _kernel()
        self._samples.append(perf_counter_ns() - start)
        self.last = self._samples[-1] / REFERENCE_NS
        return self.last

    def finish(self) -> Tuple[float, float]:
        """(slowdown, seconds spent probing) since the last call.

        ``slowdown`` is the median sample as a multiple of the reference.
        """
        slowdown = statistics.median(self._samples) / REFERENCE_NS
        spent_s = sum(self._samples) / 1e9
        self._samples.clear()
        return slowdown, spent_s
