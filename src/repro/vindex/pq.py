"""Product quantization with asymmetric distance computation (ADC).

A :class:`ProductQuantizer` splits vectors into ``m`` sub-spaces, learns a
small codebook per sub-space, and encodes each vector as ``m`` small
codes.  At query time an ADC table of query-to-codeword distances lets the
scan approximate squared L2 with ``m`` table lookups per code — the
``c_c`` term in the paper's cost model (Equation 2/3, citing Jégou et al.).

``nbits = 8`` gives faiss-style PQ; ``nbits = 4`` gives the fast-scan
codebook size (16 centroids per sub-space) used by IVFPQFS.
"""

from __future__ import annotations

from typing import Any, Dict

import numpy as np

from repro.errors import IndexNotTrainedError, IndexParameterError
from repro.vindex.image import array_field
from repro.vindex.kmeans import BUILD_ITERATIONS, assign_to_centroids, kmeans


class ProductQuantizer:
    """Trainable PQ codec.

    Parameters
    ----------
    dim:
        Vector dimensionality; must be divisible by ``m``.
    m:
        Number of sub-quantizers (code length in code units).
    nbits:
        Bits per code unit; the codebook has ``2**nbits`` centroids per
        sub-space.  4 (fast-scan) and 8 (classic) are the useful values.
    """

    def __init__(self, dim: int, m: int = 8, nbits: int = 8, seed: int = 0) -> None:
        if dim <= 0 or m <= 0:
            raise IndexParameterError("dim and m must be positive")
        if dim % m != 0:
            raise IndexParameterError(f"dim {dim} not divisible by m {m}")
        if nbits not in (4, 8):
            raise IndexParameterError(f"nbits must be 4 or 8, got {nbits}")
        self.dim = dim
        self.m = m
        self.nbits = nbits
        self.ksub = 2 ** nbits
        self.dsub = dim // m
        self.seed = seed
        self._codebooks: np.ndarray = np.empty((0,), dtype=np.float32)
        self._trained = False

    @property
    def is_trained(self) -> bool:
        """Whether codebooks have been learned."""
        return self._trained

    @property
    def codebooks(self) -> np.ndarray:
        """``(m, ksub, dsub)`` codeword array."""
        if not self._trained:
            raise IndexNotTrainedError("product quantizer is not trained")
        return self._codebooks

    def train(self, vectors: np.ndarray) -> None:
        """Learn one k-means codebook per sub-space."""
        vectors = np.ascontiguousarray(vectors, dtype=np.float32)
        if vectors.ndim != 2 or vectors.shape[1] != self.dim:
            raise IndexParameterError(
                f"expected (*, {self.dim}) training vectors, got {vectors.shape}"
            )
        n = vectors.shape[0]
        ksub = min(self.ksub, n)  # tiny segments: fewer codewords than 2^nbits
        codebooks = np.zeros((self.m, self.ksub, self.dsub), dtype=np.float32)
        for sub in range(self.m):
            block = vectors[:, sub * self.dsub : (sub + 1) * self.dsub]
            fitted = kmeans(block, ksub, max_iterations=BUILD_ITERATIONS, seed=self.seed + sub)
            codebooks[sub, :ksub] = fitted.centroids
            if ksub < self.ksub:
                # Pad unused codewords far away so they are never chosen.
                codebooks[sub, ksub:] = fitted.centroids[0] + 1e6
        self._codebooks = codebooks
        self._trained = True

    def encode(self, vectors: np.ndarray) -> np.ndarray:
        """Quantize ``vectors`` to ``(n, m)`` uint8 codes."""
        if not self._trained:
            raise IndexNotTrainedError("train() the quantizer before encode()")
        vectors = np.ascontiguousarray(vectors, dtype=np.float32)
        if vectors.ndim != 2 or vectors.shape[1] != self.dim:
            raise IndexParameterError(f"expected (*, {self.dim}) vectors")
        if self._codebooks.shape[1] > 256:
            # uint8 codes silently wrap past 255; fail loudly instead.
            raise IndexParameterError(
                f"codebook has {self._codebooks.shape[1]} centroids per sub-space; "
                "uint8 PQ codes address at most 256"
            )
        codes = np.empty((vectors.shape[0], self.m), dtype=np.uint8)
        for sub in range(self.m):
            block = vectors[:, sub * self.dsub : (sub + 1) * self.dsub]
            assignment = assign_to_centroids(block, self._codebooks[sub])
            codes[:, sub] = assignment.astype(np.uint8)
        return codes

    def decode(self, codes: np.ndarray) -> np.ndarray:
        """Reconstruct approximate vectors from codes."""
        if not self._trained:
            raise IndexNotTrainedError("train() the quantizer before decode()")
        codes = np.asarray(codes, dtype=np.int64)
        out = np.empty((codes.shape[0], self.dim), dtype=np.float32)
        for sub in range(self.m):
            out[:, sub * self.dsub : (sub + 1) * self.dsub] = self._codebooks[sub][codes[:, sub]]
        return out

    def adc_table(self, query: np.ndarray) -> np.ndarray:
        """``(m, ksub)`` table of squared distances query-block → codeword."""
        if not self._trained:
            raise IndexNotTrainedError("train() the quantizer before adc_table()")
        query = np.asarray(query, dtype=np.float32).reshape(-1)
        if query.shape[0] != self.dim:
            raise IndexParameterError(
                f"query dimension {query.shape[0]} != {self.dim}"
            )
        table = np.empty((self.m, self.ksub), dtype=np.float32)
        for sub in range(self.m):
            block = query[sub * self.dsub : (sub + 1) * self.dsub]
            diff = self._codebooks[sub] - block
            table[sub] = np.einsum("ij,ij->i", diff, diff)
        return table

    def adc_tables(self, residuals: np.ndarray) -> np.ndarray:
        """``(c, m, ksub)`` ADC tables for ``c`` query residuals at once.

        One einsum over all residuals replaces ``c`` calls to
        :meth:`adc_table`; each ``tables[i]`` is bitwise identical to
        ``adc_table(residuals[i])`` because the reduction runs over the
        same contiguous sub-space axis element by element.
        """
        if not self._trained:
            raise IndexNotTrainedError("train() the quantizer before adc_tables()")
        residuals = np.ascontiguousarray(residuals, dtype=np.float32)
        if residuals.ndim != 2 or residuals.shape[1] != self.dim:
            raise IndexParameterError(f"expected (*, {self.dim}) residuals")
        blocks = residuals.reshape(residuals.shape[0], self.m, 1, self.dsub)
        diff = self._codebooks[None, :, :, :] - blocks
        return np.einsum("cmkd,cmkd->cmk", diff, diff)

    def adc_distances(self, table: np.ndarray, codes: np.ndarray) -> np.ndarray:
        """Approximate squared L2 distances for ``codes`` via table lookups."""
        codes = np.asarray(codes, dtype=np.int64)
        # Gather per-subspace: distances[i] = sum_m table[m, codes[i, m]].
        return table[np.arange(self.m)[None, :], codes].sum(axis=1)

    def memory_bytes(self) -> int:
        """Resident codebook size."""
        return int(self._codebooks.nbytes) if self._trained else 0

    def code_bytes_per_vector(self) -> float:
        """Bytes each encoded vector occupies (0.5/unit at 4 bits)."""
        return self.m * self.nbits / 8.0

    def to_payload(self) -> Dict[str, Any]:
        """Serializable state."""
        return {
            "dim": self.dim,
            "m": self.m,
            "nbits": self.nbits,
            "seed": self.seed,
            "codebooks": self._codebooks if self._trained else None,
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "ProductQuantizer":
        """Inverse of :meth:`to_payload`."""
        pq = cls(payload["dim"], payload["m"], payload["nbits"], payload["seed"])
        if payload["codebooks"] is not None:
            pq._codebooks = array_field(
                payload, "codebooks", np.float32, pq.m, pq.ksub, pq.dsub
            )
            pq._trained = True
        return pq
