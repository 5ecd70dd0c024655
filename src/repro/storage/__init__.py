"""Disaggregated storage substrate.

Implements the storage side of the paper's architecture (Fig 1):

* :mod:`repro.storage.objectstore` — the remote shared store every virtual
  warehouse persists segments and vector indexes to.
* :mod:`repro.storage.localdisk` — the per-worker local disk cache tier.
* :mod:`repro.storage.segment` — immutable columnar segments with row
  offsets, the unit of scheduling, caching, and per-segment indexing.
* :mod:`repro.storage.deletebitmap` — delete bitmaps for realtime update.
* :mod:`repro.storage.lsm` — the LSM-style segment manager (multi-version
  visibility, tombstones).
* :mod:`repro.storage.compaction` — background merge of small segments
  with automatic vector-index rebuild.
* :mod:`repro.storage.cache` — the byte-budgeted LRU cache and the
  hierarchical memory → local disk → object store index read path.
"""

from repro.storage.cache import HierarchicalIndexCache, LRUCache
from repro.storage.deletebitmap import DeleteBitmap
from repro.storage.localdisk import LocalDisk
from repro.storage.lsm import SegmentManager
from repro.storage.objectstore import ObjectStore
from repro.storage.segment import Segment, SegmentMeta

__all__ = [
    "DeleteBitmap",
    "HierarchicalIndexCache",
    "LocalDisk",
    "LRUCache",
    "ObjectStore",
    "Segment",
    "SegmentManager",
    "SegmentMeta",
]
