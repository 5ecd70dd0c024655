"""Synthetic datasets mirroring the paper's Table III.

Real embedding datasets are clustered (topics, image classes), which is
what makes IVF and semantic partitioning work at all, so every generator
draws from a mixture of Gaussians rather than one isotropic blob.  Sizes
and dimensions are scaled to laptop budgets; the *structure* — vector
column + scalar predicate columns + (for LAION) text captions and an
image-text similarity score — matches the paper's workloads.

=============== ======================= ==============================
paper dataset    paper shape             generator default
=============== ======================= ==============================
Cohere           1,000,000 × 768, text   ``make_cohere_like``  8k × 64
OpenAI           5,000,000 × 1536, text  ``make_openai_like`` 10k × 96
LAION            1,000,448 × 512, image  ``make_laion_like``   6k × 48
production       30M × (multi-column)    ``make_production_like`` 8k × 48
=============== ======================= ==============================
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict

import numpy as np

_WORDS = (
    "dog cat bird fish sunset mountain river city street portrait food "
    "car bicycle flower tree ocean beach snow forest night light people "
    "child building bridge train plane market festival art mural sky"
).split()


@dataclass
class Dataset:
    """A generated dataset: vectors, scalar columns, and query vectors."""

    name: str
    vectors: np.ndarray                 # (n, dim) float32, L2-normalized
    scalars: Dict[str, Any]             # column name -> array or list
    queries: np.ndarray                 # (q, dim) float32
    n_clusters: int
    extras: Dict[str, Any] = field(default_factory=dict)

    @property
    def n(self) -> int:
        """Number of base vectors."""
        return int(self.vectors.shape[0])

    @property
    def dim(self) -> int:
        """Vector dimensionality."""
        return int(self.vectors.shape[1])


def _clustered_vectors(
    n: int, dim: int, n_clusters: int, rng: np.random.Generator,
    cluster_std: float = 0.35,
) -> np.ndarray:
    """Mixture-of-Gaussians embeddings, L2-normalized like real encoders."""
    centers = rng.normal(size=(n_clusters, dim)).astype(np.float32)
    centers /= np.linalg.norm(centers, axis=1, keepdims=True)
    assignments = rng.integers(0, n_clusters, size=n)
    points = centers[assignments] + rng.normal(
        scale=cluster_std, size=(n, dim)
    ).astype(np.float32)
    norms = np.linalg.norm(points, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return (points / norms).astype(np.float32)


def _queries_from(
    vectors: np.ndarray, n_queries: int, rng: np.random.Generator,
    noise: float = 0.05,
) -> np.ndarray:
    """Query vectors: perturbed base vectors (realistic ANN workloads)."""
    picks = rng.choice(vectors.shape[0], size=n_queries, replace=False)
    queries = vectors[picks] + rng.normal(
        scale=noise, size=(n_queries, vectors.shape[1])
    ).astype(np.float32)
    norms = np.linalg.norm(queries, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return (queries / norms).astype(np.float32)


def make_cohere_like(
    n: int = 8000, dim: int = 64, n_queries: int = 100, seed: int = 0
) -> Dataset:
    """Cohere-analog: text embeddings + one random-int predicate column.

    Predicate operators in the paper: ``ranges(x1, x2)`` on the int.
    """
    rng = np.random.default_rng(seed)
    n_clusters = max(8, n // 500)
    vectors = _clustered_vectors(n, dim, n_clusters, rng)
    scalars = {
        "id": np.arange(n, dtype=np.uint64),
        "attr": rng.integers(0, 10_000, size=n).astype(np.int64),
    }
    return Dataset(
        name="cohere-like",
        vectors=vectors,
        scalars=scalars,
        queries=_queries_from(vectors, n_queries, rng),
        n_clusters=n_clusters,
    )


def make_openai_like(
    n: int = 10_000, dim: int = 96, n_queries: int = 100, seed: int = 1
) -> Dataset:
    """OpenAI-analog: larger/higher-dimensional text embeddings."""
    rng = np.random.default_rng(seed)
    n_clusters = max(10, n // 500)
    vectors = _clustered_vectors(n, dim, n_clusters, rng)
    scalars = {
        "id": np.arange(n, dtype=np.uint64),
        "attr": rng.integers(0, 10_000, size=n).astype(np.int64),
    }
    return Dataset(
        name="openai-like",
        vectors=vectors,
        scalars=scalars,
        queries=_queries_from(vectors, n_queries, rng),
        n_clusters=n_clusters,
    )


def _random_caption(rng: np.random.Generator) -> str:
    length = int(rng.integers(3, 9))
    words = [str(_WORDS[int(rng.integers(len(_WORDS)))]) for _ in range(length)]
    if rng.random() < 0.3:
        words.insert(0, str(int(rng.integers(0, 100))))
    return " ".join(words)


def make_laion_like(
    n: int = 6000, dim: int = 48, n_queries: int = 100, seed: int = 2
) -> Dataset:
    """LAION-analog: image embeddings, text captions, similarity scores.

    Matches the paper's multi-predicate LAION workload: regex over
    captions plus a range filter on the caption-image similarity column
    (threshold ≥ 0.3, as the LAION team suggests).
    """
    rng = np.random.default_rng(seed)
    n_clusters = max(8, n // 400)
    vectors = _clustered_vectors(n, dim, n_clusters, rng)
    captions = [_random_caption(rng) for _ in range(n)]
    similarity = np.clip(rng.normal(0.32, 0.08, size=n), 0.0, 1.0).astype(np.float64)
    scalars = {
        "id": np.arange(n, dtype=np.uint64),
        "caption": captions,
        "similarity": similarity,
    }
    return Dataset(
        name="laion-like",
        vectors=vectors,
        scalars=scalars,
        queries=_queries_from(vectors, n_queries, rng),
        n_clusters=n_clusters,
        extras={"similarity_threshold": 0.3},
    )


def make_production_like(
    n: int = 8000, dim: int = 48, n_queries: int = 100, seed: int = 3
) -> Dataset:
    """Production image-search analog: multi-column query conditions.

    Columns mirror an image-search trace: a category label, a source
    site, an ingestion day, and a quality score; queries combine several
    predicates with a top-k image similarity search.
    """
    rng = np.random.default_rng(seed)
    n_clusters = max(12, n // 400)
    vectors = _clustered_vectors(n, dim, n_clusters, rng)
    categories = [
        str(np.array(["animal", "人物", "landscape", "product", "meme", "food"])
            [int(rng.integers(6))])
        for _ in range(n)
    ]
    scalars = {
        "id": np.arange(n, dtype=np.uint64),
        "category": categories,
        "source": [f"site-{int(rng.integers(20))}" for _ in range(n)],
        "day": rng.integers(20241001, 20241004, size=n).astype(np.int64),
        "score": np.clip(rng.normal(0.5, 0.2, size=n), 0, 1).astype(np.float64),
    }
    return Dataset(
        name="production-like",
        vectors=vectors,
        scalars=scalars,
        queries=_queries_from(vectors, n_queries, rng),
        n_clusters=n_clusters,
    )
