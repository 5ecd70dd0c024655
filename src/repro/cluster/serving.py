"""Vector search serving: remote access to another worker's index cache.

When scaling (or failure recovery) hands a segment to a worker whose
cache does not hold its index, the worker calls the *previous owner's*
search RPC instead of falling back to brute force or blocking on a full
index load (paper Fig 4).  The ANN scan is lightweight relative to the
end-to-end query, so borrowing a little compute from the old owner beats
both alternatives — this is what keeps latency flat in Fig 11 and QPS
climbing immediately in Fig 18.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

import numpy as np

from repro.cluster.rpc import RpcFabric
from repro.executor.cancel import CancelToken
from repro.vindex.api import SearchResult, range_by_doubling
from repro.vindex.iterator import GenericRestartIterator, SearchIterator


@dataclass
class RemoteSearchProvider:
    """A SearchProvider that proxies to a remote worker's cached index.

    Satisfies the same execution-layer interface as a local index, so
    the ANN scan operators cannot tell the difference — only the charged
    RPC latency differs.
    """

    fabric: RpcFabric
    target_id: str
    index_key: str
    dim: int
    ntotal: int
    # Cancellation token of the query this provider is serving; checked
    # by the fabric before each remote dispatch.
    cancel: Optional[CancelToken] = None

    def _payload_bytes(self, k: int, bitset: Optional[np.ndarray]) -> int:
        query_bytes = self.dim * 4
        bitset_bytes = 0 if bitset is None else (len(bitset) + 7) // 8
        return 64 + query_bytes + bitset_bytes

    def search_with_filter(
        self,
        query: np.ndarray,
        k: int,
        bitset: Optional[np.ndarray] = None,
        **params: Any,
    ) -> SearchResult:
        """Top-k via the remote worker's index cache."""
        response_bytes = 16 * max(1, k)
        return self.fabric.call(
            self.target_id,
            "search",
            self._payload_bytes(k, bitset),
            response_bytes,
            self.index_key,
            query,
            k,
            bitset,
            params,
            cancel=self.cancel,
        )

    def search_with_range(
        self,
        query: np.ndarray,
        radius: float,
        bitset: Optional[np.ndarray] = None,
        **params: Any,
    ) -> SearchResult:
        """Range search: over-fetch through the remote top-k interface."""
        return range_by_doubling(self, query, radius, bitset, **params)

    def search_iterator(
        self,
        query: np.ndarray,
        bitset: Optional[np.ndarray] = None,
        batch_size: int = 64,
        **params: Any,
    ) -> SearchIterator:
        """Iterative search over RPC uses the generic restart wrapper —
        serving keeps no per-client iterator state on the remote side."""
        return GenericRestartIterator(
            self, query, bitset=bitset, batch_size=batch_size, **params
        )
