"""Physical execution.

* :mod:`repro.executor.annscan` — the three ANN physical scan operators
  (SearchWithFilter, SearchWithRange, SearchIterator), charging simulated
  compute to the clock; a segment without an index is searched through
  a FLAT view of its vectors (:mod:`repro.vindex.flat`), the one exact
  kernel.
* :mod:`repro.executor.columnio` — scalar column fetch with the paper's
  read-amplification treatment: reduced read granularity and an adaptive
  split-buffer cache (§IV-C).
* :mod:`repro.executor.pipeline` — per-segment plan execution and the
  global partial top-k merge.
* :mod:`repro.executor.parallel` — lane-makespan accounting of
  simulated scan parallelism and the batched ``nq > 1`` segment kernel.
"""

from repro.executor.columnio import ColumnReader
from repro.executor.parallel import BatchExecutionResult, lane_makespan
from repro.executor.pipeline import ExecContext, PartialResult, QueryResult

__all__ = [
    "BatchExecutionResult",
    "ColumnReader",
    "ExecContext",
    "PartialResult",
    "QueryResult",
    "lane_makespan",
]
