"""Seeded inputs: clustered-Gaussian vectors, a uniform scalar, SQL text.

Everything the program receives is generated here from ``--seed``; the
same seed gives the same bytes.  Row ``i`` has ``id == i`` throughout,
so the oracle can address rows by id.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

TABLE = "bench"
K = 10
ATTR_RANGE = 10_000  # attr is uniform in [0, ATTR_RANGE): `attr < t` passes t / ATTR_RANGE
CENTERS = 16
SPREAD = 0.35
USER_SCALAR_BYTES = 16  # id UInt64 + attr Int64


@dataclass(frozen=True)
class Dataset:
    """One seed's table contents and query vectors."""

    vectors: np.ndarray  # (rows, dim) float32
    attr: np.ndarray  # (rows,) int64
    queries: np.ndarray  # (n_queries, dim) float32, exactly what the SQL text says

    @property
    def rows(self) -> int:
        return int(self.vectors.shape[0])

    @property
    def dim(self) -> int:
        return int(self.vectors.shape[1])


def vector_literal(vector: np.ndarray) -> str:
    """The SQL array literal for ``vector`` (six decimals per component)."""
    return "[" + ",".join(f"{float(x):.6f}" for x in vector) + "]"


def _as_written(vector: np.ndarray) -> np.ndarray:
    """The float32 vector the engine parses out of :func:`vector_literal`."""
    return np.array([float(f"{float(x):.6f}") for x in vector], dtype=np.float32)


def make_dataset(seed: int, rows: int, dim: int, n_queries: int) -> Dataset:
    """A mixture of ``CENTERS`` Gaussians; queries come from the same mixture."""
    rng = np.random.default_rng(seed)
    centers = rng.normal(0.0, 1.0, (CENTERS, dim))

    def draw(count: int) -> np.ndarray:
        member = rng.integers(0, CENTERS, count)
        return (centers[member] + SPREAD * rng.normal(0.0, 1.0, (count, dim))).astype(np.float32)

    vectors = draw(rows)
    attr = rng.integers(0, ATTR_RANGE, rows).astype(np.int64)
    queries = np.stack([_as_written(q) for q in draw(n_queries)])
    return Dataset(vectors=vectors, attr=attr, queries=queries)


def create_table_sql(index_type: str, dim: int, params: str = "") -> str:
    options = f"'DIM={dim}'" + (f", '{params}'" if params else "")
    return (
        f"CREATE TABLE {TABLE} (id UInt64, attr Int64, embedding Array(Float32), "
        f"INDEX ann embedding TYPE {index_type}({options}))"
    )


def knn_sql(query: np.ndarray, threshold: Optional[int] = None) -> str:
    """Top-``K`` nearest rows, optionally restricted to ``attr < threshold``."""
    where = f"WHERE attr < {int(threshold)} " if threshold is not None else ""
    return (
        f"SELECT id, dist FROM {TABLE} {where}"
        f"ORDER BY L2Distance(embedding, {vector_literal(query)}) AS dist LIMIT {K}"
    )


def user_bytes(rows: int, dim: int) -> int:
    """Bytes of user data in ``rows`` live rows."""
    return rows * (dim * 4 + USER_SCALAR_BYTES)
