"""Simulated vector-index build cost model.

Wall-clock Python build times reflect interpreter overhead, not the
algorithmic work a C++ engine does, so load-time experiments (paper
Tables IV and V) charge *simulated* build seconds derived from operation
counts: distance computations for graph construction, k-means iterations
for IVF training, code assignments for PQ encoding.  The constants are
set so the *ordering and rough ratios* match the paper:

* HNSW is the slowest build (full-precision beam per insert),
* HNSWSQ ≈ 0.6× HNSW (cheap quantized distances),
* IVFPQFS ≈ 0.5× HNSW (train on a sample + one encode pass).

:func:`build_segment_index` is the one index build, for ingest and
compaction alike, charged by :func:`estimate_index_build_cost`.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

import numpy as np

from repro.simulate.costmodel import DeviceCostModel
from repro.storage.lsm import index_storage_key
from repro.storage.objectstore import ObjectStore
from repro.storage.segment import Segment
from repro.vindex import diskann, hnsw, ivfpq, registry
from repro.vindex.api import IndexFamily, VectorIndex
from repro.vindex.autoindex import auto_build_spec
from repro.vindex.ivf import DEFAULT_NLIST
from repro.vindex.kmeans import BUILD_ITERATIONS, Seeds
from repro.vindex.registry import IndexSpec, create_index, serialize_index

# Effective fraction of peak distance throughput graph builds achieve
# (branch-heavy traversal vs. dense scans).
_GRAPH_EFFICIENCY = 0.5
# k-means training sample: points per centroid (faiss default region).
_TRAIN_POINTS_PER_CENTROID = 50


def estimate_index_build_cost(
    index_type: str,
    n_rows: int,
    dim: int,
    params: Dict[str, Any],
    cost: DeviceCostModel,
) -> float:
    """Simulated seconds to build an index of ``index_type`` over
    ``n_rows`` × ``dim`` vectors with the given build parameters."""
    if n_rows <= 0:
        return 0.0
    index_type = index_type.upper()
    flop = cost.distance_flop_s

    if index_type == "FLAT":
        # No structure to build; copying is covered by segment write cost.
        return n_rows * dim * flop * 0.01

    if index_type in ("HNSW", "HNSWSQ"):
        m = int(params.get("m", hnsw.DEFAULT_M))
        ef = int(params.get("ef_construction", hnsw.DEFAULT_EF_CONSTRUCTION))
        # Each insert runs a beam of ~ef expansions touching ~m neighbors.
        per_insert = ef * m * dim * flop / _GRAPH_EFFICIENCY
        total = n_rows * per_insert
        if index_type == "HNSWSQ":
            # uint8 distance kernels are ~2x cheaper; add one encode pass.
            total = total * 0.55 + n_rows * dim * flop
        return total

    registered = index_type in registry.registered_types()
    if registered and registry.index_class(index_type).family is IndexFamily.IVF:
        nlist = int(params.get("nlist", DEFAULT_NLIST))
        train_points = min(n_rows, _TRAIN_POINTS_PER_CENTROID * nlist)
        total = cost.kmeans_cost(train_points, dim, nlist, BUILD_ITERATIONS)
        # Assignment of every vector to its coarse cell.
        total += n_rows * nlist * dim * flop * 0.1
        if index_type in ("IVFPQ", "IVFPQFS"):
            m = int(params.get("m", ivfpq.DEFAULT_M))
            ksub = 16 if index_type == "IVFPQFS" else 256
            dsub = max(1, dim // m)
            # Sub-quantizer training on the sample + one encode pass.
            total += m * cost.kmeans_cost(train_points, dsub, ksub, BUILD_ITERATIONS)
            total += n_rows * m * ksub * dsub * flop * 0.25
        return total

    if index_type == "DISKANN":
        r = int(params.get("r", diskann.DEFAULT_R))
        beam = int(params.get("build_beam", diskann.DEFAULT_BUILD_BEAM))
        per_insert = beam * r * dim * flop / _GRAPH_EFFICIENCY
        return n_rows * per_insert

    # Unknown plugin types get a conservative graph-like estimate.
    return n_rows * 64 * dim * flop


def build_segment_index(
    segment: Segment,
    declared: IndexSpec,
    store: ObjectStore,
    cost: DeviceCostModel,
    charged: float = 0.0,
    seeds: Optional[Seeds] = None,
) -> Tuple[VectorIndex, IndexSpec, str, float]:
    """Build, persist and price the index of one written segment.

    The auto-index rule sizes ``declared`` to the segment; the index is
    trained on and filled with the segment's vectors under their row
    offsets, its image is put under ``index_storage_key`` and the
    segment's meta names its type.  An IVF-family build starts its
    coarse quantizer from ``seeds`` when a merge offers them.  Returns
    the index, the spec it was built from, its storage key, and
    ``charged`` plus the simulated build seconds plus the image write,
    added in that order.
    """
    spec = auto_build_spec(declared, segment.row_count)
    vindex = create_index(spec)
    vectors = segment.vectors()
    if seeds is None:
        vindex.train(vectors)
    else:
        vindex.train(vectors, seeds)
    vindex.add_with_ids(vectors, np.arange(segment.row_count))
    # PQ refinement re-ranks from the owning segment's raw vectors.
    vindex.set_refiner(segment.vectors_at)
    payload = serialize_index(vindex)
    index_key = index_storage_key(segment.segment_id, spec.index_type)
    store.put(index_key, payload)
    segment.meta.index_type = spec.index_type
    charged += estimate_index_build_cost(
        spec.index_type, segment.row_count, segment.dim, spec.params, cost
    )
    charged += cost.object_store_write(len(payload))
    return vindex, spec, index_key, charged
