"""Auto index: rule-based build-parameter selection (paper §III-B, Fig 7).

The paper finds that for IVF-family indexes the cell count ``K_IVF`` must
track the segment size ``N``: too few cells make each probe scan huge
posting lists; too many cells starve k-means of training points and push
probe overhead up.  LSM segments vary wildly in size (L0 flushes are
small, compacted segments are large), so BlendHouse selects parameters
per segment at build time.

The rule follows the faiss guideline ``K ≈ c·sqrt(N)`` with two clamps:

* at least :data:`MIN_TRAIN_POINTS_PER_CENTROID` training points per
  centroid so k-means remains well-posed, and
* within ``[MIN_NLIST, MAX_NLIST]``.

Data ingestion and background compaction both use this rule.  The paper
adds measured auto-tuning for compaction; it is left out here because a
parameter picked by timing searches depends on the host's speed, and an
engine's stored indexes must depend only on its inputs.
"""

from __future__ import annotations

import math

from repro.vindex.api import IndexFamily
from repro.vindex.registry import IndexSpec, index_class

SQRT_COEFFICIENT = 4.0
MIN_TRAIN_POINTS_PER_CENTROID = 39   # faiss's documented minimum
MIN_NLIST = 1
MAX_NLIST = 65536


def select_ivf_nlist(n_rows: int) -> int:
    """Rule-based ``K_IVF`` for a segment of ``n_rows`` vectors."""
    if n_rows <= 0:
        return MIN_NLIST
    by_sqrt = int(SQRT_COEFFICIENT * math.sqrt(n_rows))
    by_training = n_rows // MIN_TRAIN_POINTS_PER_CENTROID
    return max(MIN_NLIST, min(by_sqrt, max(by_training, MIN_NLIST), MAX_NLIST))


def select_nprobe(nlist: int, target_beta: float = 0.1) -> int:
    """Probe count hitting roughly ``target_beta`` of the data per query."""
    if not 0 < target_beta <= 1:
        raise ValueError(f"target_beta must be in (0, 1], got {target_beta}")
    return max(1, min(nlist, int(round(nlist * target_beta))))


def auto_build_spec(spec: IndexSpec, n_rows: int) -> IndexSpec:
    """Apply the rule table to a spec for a segment of ``n_rows`` rows.

    Only IVF-family parameters are auto-selected; graph indexes keep
    their declared ``M``/``ef_construction`` (the paper's finding is
    specific to the IVF family).  Explicit user-provided ``nlist`` wins
    over the rule.
    """
    if index_class(spec.index_type).family is not IndexFamily.IVF:
        return spec
    if "nlist" in spec.params:
        return spec
    return spec.with_params(nlist=select_ivf_nlist(n_rows))

