"""pgvector-like baseline: a generalized standalone extension.

Behavioural model of pgvector 0.7.x as the paper exercises it:

* **Ingestion** — a single PostgreSQL backend builds the HNSW index with
  limited parallelism: the slowest load in Table IV.
* **Hybrid search** — *post-filter only, without iterative search*: the
  planner puts the filter above the index scan, the index returns its
  ``ef_search`` candidates once, and whatever survives the filter is the
  answer.  When most rows are filtered out this returns far fewer than
  ``k`` relevant rows — the "< 10% recall" (VectorBench 99% selectivity)
  and "< 0.35 recall" (production workload) failures the paper reports.
* **Query path** — PostgreSQL's executor is genuinely fast for this
  shape (the paper credits pgvector with beating Milvus on pure vector
  search); only a modest per-query overhead applies.
"""

from __future__ import annotations

from typing import Any, Optional, Tuple

import numpy as np

from repro.baselines.common import BaselineProfile, BaselineVectorDB
from repro.vindex.hnsw import DEFAULT_EF_SEARCH


class PgVectorLike(BaselineVectorDB):
    """Generalized standalone baseline (post-filter without iterator)."""

    profile = BaselineProfile(
        name="pgvector",
        pipelined_build=False,
        serial_factor=2.1,        # single-backend build
        build_overhead=1.0,
        query_overhead_s=3.5e-4,  # parse/plan/execute on one backend
        kernel_slowdown=1.1,
    )

    def search(
        self,
        query: np.ndarray,
        k: int,
        mask: Optional[np.ndarray] = None,
        partition_filter: Optional[set] = None,
        ef_search: int = DEFAULT_EF_SEARCH,
        mask_eval_columns: int = 1,
        **params: Any,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Top-k via one index scan, filter applied afterwards.

        The scan depth is ``max(ef_search, k)`` rows *before* filtering;
        pgvector does not iterate when the filter starves the result,
        which is precisely its low-recall failure mode.
        """
        self._charge_query_overhead()
        query = np.asarray(query, dtype=np.float32)
        depth = max(int(ef_search), k)
        result = self._merged_index_search(
            query, depth, None, partition_filter, ef_search=ef_search, **params
        )
        ids, distances = result.ids, result.distances
        if mask is not None and ids.size:
            # Post-filter evaluates predicates only on returned candidates.
            self.clock.advance(
                int(result.ids.size) * mask_eval_columns * self.cost.row_decode_s
            )
            keep = mask[ids]
            ids, distances = ids[keep], distances[keep]
            self.clock.advance(self.cost.bitmap_cost(int(result.ids.size)))
        return ids[:k], distances[:k]
