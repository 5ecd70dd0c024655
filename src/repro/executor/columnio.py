"""Scalar column fetch and the read-amplification optimizations.

Hybrid queries fetch scalar columns for rows chosen by *semantic*
similarity, which are scattered arbitrarily through columns organized by
insertion/sort order (paper §IV-C "Read amplification").  The model:

* **Baseline** — every touched segment column is read as one full block
  from remote storage, however few rows are needed.
* **Reduced granularity** — a ranged read fetches only the needed rows'
  bytes (one request latency + per-row bytes).
* **Adaptive cache** — an LRU over column blocks makes repeat access
  RAM-speed; a :data:`CACHE_ROW_LIMIT` guard bypasses the cache for huge
  reads so scans cannot thrash it.

READ_Opt (Fig 17) is the last two together: a reader built with
``read_opt=False`` is the baseline.  Data values themselves come from
the in-memory segment (the simulation holds them); only *costs* differ.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Sequence, Tuple

from repro.simulate.clock import SimulatedClock
from repro.simulate.costmodel import DeviceCostModel
from repro.simulate.metrics import MetricRegistry
from repro.storage.cache import LRUCache, object_size
from repro.storage.segment import Segment


CACHE_ROW_LIMIT = 4096  # reads of more rows bypass the block cache
DATA_CACHE_BYTES = 256 << 20


class ColumnReader:
    """Charges simulated I/O for scalar column access."""

    def __init__(
        self,
        clock: SimulatedClock,
        cost: DeviceCostModel,
        metrics: Optional[MetricRegistry] = None,
        read_opt: bool = True,
    ) -> None:
        self._clock = clock
        self._cost = cost
        self._metrics = metrics or MetricRegistry()
        self._read_opt = read_opt
        self._cache = LRUCache(DATA_CACHE_BYTES, size_of=object_size)
        # Per-(segment, column) memo of the block's cache key, its bytes
        # and its bytes per row: segments are immutable, so a fetch
        # looks them up once, with one dict probe.
        self._facts: Dict[Tuple[str, str], Tuple[str, int, float]] = {}

    # ------------------------------------------------------------------
    # Cost accounting
    # ------------------------------------------------------------------
    def _column_facts(self, segment: Segment, column: str) -> Tuple[str, int, float]:
        """(cache key, block bytes, bytes per row) of one segment column."""
        memo = (segment.segment_id, column)
        facts = self._facts.get(memo)
        if facts is None:
            rows = segment.row_count
            block_bytes = segment.meta.nbytes_by_column.get(column, 8 * rows)
            facts = (f"{memo[0]}/{column}", block_bytes, block_bytes / max(1, rows))
            self._facts[memo] = facts
        return facts

    def _charge_fetch(self, segment: Segment, column: str, n_rows: int) -> None:
        key, block_bytes, cell_bytes = self._column_facts(segment, column)
        if self._read_opt and n_rows <= CACHE_ROW_LIMIT:
            if self._cache.get(key) is not None:
                self._clock.advance(self._cost.ram_read(int(n_rows * cell_bytes)))
                self._metrics.incr("columnio.cache_hits")
                return
            # Miss: fetch (possibly reduced) then populate the cache.
            self._charge_remote(n_rows, block_bytes, cell_bytes)
            self._cache.put(key, ("block", block_bytes))
            self._metrics.incr("columnio.cache_fills")
            return
        self._charge_remote(n_rows, block_bytes, cell_bytes)
        if n_rows > CACHE_ROW_LIMIT:
            self._metrics.incr("columnio.cache_bypass")

    def _charge_remote(self, n_rows: int, block_bytes: int, cell_bytes: float) -> None:
        if self._read_opt:
            nbytes = int(n_rows * cell_bytes)
            self._clock.advance(self._cost.object_store_read(nbytes))
            self._metrics.incr("columnio.ranged_reads")
        else:
            # Full-block read: the read-amplification baseline.
            self._clock.advance(self._cost.object_store_read(int(block_bytes)))
            self._metrics.incr("columnio.block_reads")

    # ------------------------------------------------------------------
    # Data access
    # ------------------------------------------------------------------
    def fetch(
        self, segment: Segment, column: str, offsets: Sequence[int]
    ) -> Any:
        """Values of ``column`` at ``offsets``, charging simulated I/O."""
        if len(offsets) == 0:
            return []
        self._charge_fetch(segment, column, len(offsets))
        return segment.scalar_at(column, offsets)

    def clear_cache(self) -> None:
        """Drop cached blocks (tests / between benchmark phases)."""
        self._cache.clear()
        self._facts.clear()
