"""HNSWSQ: HNSW over 8-bit scalar-quantized vectors.

Each dimension is affinely mapped to uint8 using per-dimension min/max
learned at train time (or lazily from the first added batch).  The graph
is built and searched over the *quantized* values, so the recall drop
versus full-precision HNSW is real — the trade the paper's Table VI /
Fig 13 exercise (≈4× smaller index, slightly lower recall ceiling).

Substrate note: real SQ kernels compute distances directly on uint8; the
numpy substrate models the SQ8 *asymmetric* kernel by decoding codes on
the gather (:meth:`HNSWSQIndex._gather_rows`) — the float32 query is
compared against rows reconstructed from uint8 at the moment they enter
the distance block, exactly like an asymmetric distance computation that
dequantizes in registers.  The affine decode ``code * scale + min`` is
elementwise, so decode-on-gather is bitwise identical to searching a
precomputed float mirror; the mirror kept by the parent class serves
graph construction only.  It is not persisted — the image holds codes,
ranges and the link CSR, the paper's ≈4× at rest as well as in RAM — and
a loaded index rebuilds it with one ``_decode(codes)`` if it is ever
extended.  :meth:`memory_bytes` reports the quantized footprint, which
is what Table VI measures.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

import numpy as np

from repro.errors import IndexParameterError
from repro.vindex.hnsw import DEFAULT_EF_CONSTRUCTION, DEFAULT_M, HNSWIndex
from repro.vindex.image import array_field


class HNSWSQIndex(HNSWIndex):
    """Scalar-quantized HNSW (faiss ``HNSW,SQ8`` analogue)."""

    index_type = "HNSWSQ"
    requires_training = False

    def __init__(
        self,
        dim: int,
        metric: str = "l2",
        m: int = DEFAULT_M,
        ef_construction: int = DEFAULT_EF_CONSTRUCTION,
        seed: int = 0,
    ) -> None:
        super().__init__(dim, metric, m=m, ef_construction=ef_construction, seed=seed)
        self._vmin: Optional[np.ndarray] = None
        self._vscale: Optional[np.ndarray] = None
        self._codes = np.empty((0, dim), dtype=np.uint8)

    # ------------------------------------------------------------------
    # Quantization
    # ------------------------------------------------------------------
    def train(self, vectors: np.ndarray) -> None:
        """Learn per-dimension quantization ranges."""
        vectors = self._check_vectors(vectors)
        if vectors.shape[0] == 0:
            raise IndexParameterError("cannot train SQ ranges on zero vectors")
        vmin = vectors.min(axis=0)
        vmax = vectors.max(axis=0)
        span = vmax - vmin
        span[span == 0] = 1.0
        self._vmin = vmin.astype(np.float32)
        self._vscale = (span / 255.0).astype(np.float32)
        self.stats.train_points = int(vectors.shape[0])

    @property
    def is_trained(self) -> bool:
        return self._vmin is not None

    def _encode(self, vectors: np.ndarray) -> np.ndarray:
        assert self._vmin is not None and self._vscale is not None
        scaled = (vectors - self._vmin) / self._vscale
        return np.clip(np.rint(scaled), 0, 255).astype(np.uint8)

    def _decode(self, codes: np.ndarray) -> np.ndarray:
        assert self._vmin is not None and self._vscale is not None
        return codes.astype(np.float32) * self._vscale + self._vmin

    def _gather_rows(self, nodes: np.ndarray) -> np.ndarray:
        """SQ8 asymmetric kernel: decode uint8 codes on the gather.

        Bitwise identical to gathering from the decoded float mirror
        (the affine decode is elementwise), but models the real kernel
        shape — quantized storage, dequantize-in-registers compare.
        """
        return self._decode(self._codes[nodes])

    # ------------------------------------------------------------------
    # Overrides
    # ------------------------------------------------------------------
    def add_with_ids(self, vectors: np.ndarray, ids: np.ndarray) -> None:
        vectors = self._check_vectors(vectors)
        if self._vmin is None:
            # Lazy range learning keeps the uniform no-training call path.
            self.train(vectors)
        codes = self._encode(vectors)
        if self._vectors.shape[0] != self._codes.shape[0]:
            self._vectors = self._decode(self._codes)  # first add after a load
        self._codes = np.vstack([self._codes, codes])
        # The parent builds the graph over the vectors it is handed;
        # feed it the decoded (lossy) ones so search sees SQ error.
        super().add_with_ids(self._decode(codes), ids)

    def memory_bytes(self) -> int:
        codes = int(self._codes.nbytes)
        ids = int(self._ids.nbytes)
        ranges = 0
        if self._vmin is not None and self._vscale is not None:
            ranges = int(self._vmin.nbytes + self._vscale.nbytes)
        return codes + ids + ranges + self._link_bytes()

    def _rows_payload(self) -> Dict[str, Any]:
        return {"vmin": self._vmin, "vscale": self._vscale, "codes": self._codes}

    def _load_rows(self, payload: Dict[str, Any]) -> None:
        self._codes = array_field(payload, "codes", np.uint8, self.ntotal, self.dim)
        if payload["vmin"] is not None:
            self._vmin = array_field(payload, "vmin", np.float32, self.dim)
            self._vscale = array_field(payload, "vscale", np.float32, self.dim)
