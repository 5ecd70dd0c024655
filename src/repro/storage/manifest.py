"""Versioned table manifests: the MVCC layer under the segment store.

ByteHouse-style realtime update (paper §III) assumes readers observe a
*consistent version* of the segment set while writers commit new ones.
This module supplies that guarantee with immutable, versioned manifests:

* a :class:`Manifest` is a frozen snapshot of one table's visible state —
  segment ids in commit order, each mapped to a :class:`SegmentVersion`
  (segment object, frozen copy-on-write delete bitmap, index key) — under
  a monotonically increasing ``manifest_id``;
* a :class:`ManifestStore` retains recent manifests (for ``AS OF`` time
  travel), tracks reader pins, and refcounts segments so a segment (and
  its vector index) is physically retired only once **no** live manifest
  references it;
* a :class:`TransactionManager` batches edits — ingest, delete, and
  compaction each become one atomic manifest swap; readers either see the
  whole commit or none of it;
* a :class:`Snapshot` pins one manifest for a query's lifetime, keeping
  its segments, bitmaps, and index keys alive and unchanged even while
  concurrent ingest commits new manifests or compaction drops the
  snapshot's segments from the current view.

Writers serialize on the transaction lock; readers never block — pinning
is a refcount bump on an already-immutable object.
"""

from __future__ import annotations

import threading
import weakref
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.errors import ManifestError, SegmentError, SnapshotExpiredError
from repro.observe.events import emit_event
from repro.simulate.metrics import MetricRegistry
from repro.storage.deletebitmap import DeleteBitmap
from repro.storage.segment import Segment, SegmentMeta

# Manifests kept addressable for AS OF time travel (beyond any pinned
# ones, which stay alive regardless).  Old manifests past this window
# expire and their exclusively-held segments are retired.
DEFAULT_RETAINED_MANIFESTS = 8

# (segment, index_key) fired when the last referencing manifest dies.
RetireCallback = Callable[[Segment, Optional[str]], None]

# Every live store, for process-wide leak checks: a pinned snapshot that
# outlives its query is a refcount leak that blocks segment retirement.
_ALL_STORES: "weakref.WeakSet[ManifestStore]" = weakref.WeakSet()


def live_pinned_snapshots() -> int:
    """Outstanding snapshot pins across every live :class:`ManifestStore`.

    The concurrency-stress CI job asserts this is zero at process exit
    (``MVCC_LEAK_CHECK=1``): queries must release their pins.
    """
    return sum(store.pinned_count for store in _ALL_STORES)


@dataclass(frozen=True)
class SegmentVersion:
    """One segment exactly as a manifest pins it.

    ``bitmap`` is a frozen copy-on-write :class:`DeleteBitmap`; writers
    that need to mark more rows dead commit a *successor* version into a
    *new* manifest, never this one.
    """

    segment: Segment
    bitmap: DeleteBitmap
    index_key: Optional[str] = None

    @property
    def segment_id(self) -> str:
        """The pinned segment's id."""
        return self.segment.segment_id


class _ManifestView:
    """Shared read API over a ``{segment_id: SegmentVersion}`` mapping.

    Both the immutable :class:`Manifest` and the in-flight
    :class:`ManifestEdit` expose this surface, so code that runs inside a
    transaction reads its own pending writes through the same methods a
    snapshot reader uses.
    """

    _versions: Dict[str, SegmentVersion]
    _order: List[str]

    def __contains__(self, segment_id: str) -> bool:
        return segment_id in self._versions

    def __len__(self) -> int:
        return len(self._versions)

    def version(self, segment_id: str) -> SegmentVersion:
        """The pinned :class:`SegmentVersion` for ``segment_id``."""
        try:
            return self._versions[segment_id]
        except KeyError:
            raise SegmentError(f"segment {segment_id!r} is not visible") from None

    def segment(self, segment_id: str) -> Segment:
        """The segment object for ``segment_id``."""
        return self.version(segment_id).segment

    def bitmap(self, segment_id: str) -> DeleteBitmap:
        """The (frozen) delete bitmap for ``segment_id``."""
        return self.version(segment_id).bitmap

    def index_key(self, segment_id: str) -> Optional[str]:
        """Object-store key of the segment's persisted vector index."""
        return self.version(segment_id).index_key

    def segment_ids(self) -> List[str]:
        """Ids of visible segments in commit order."""
        return list(self._order)

    def segments(self) -> List[Segment]:
        """All visible segments in commit order."""
        return [self._versions[sid].segment for sid in self._order]

    def metas(self) -> List[SegmentMeta]:
        """Metadata of all visible segments in commit order."""
        return [self._versions[sid].segment.meta for sid in self._order]

    def alive_rows(self) -> int:
        """Visible (non-deleted) rows across all segments."""
        return sum(v.bitmap.alive_count for v in self._versions.values())

    def total_rows(self) -> int:
        """Physical rows including logically deleted ones."""
        return sum(v.segment.row_count for v in self._versions.values())

    def deleted_rows(self) -> int:
        """Logically deleted rows awaiting compaction."""
        return self.total_rows() - self.alive_rows()

    def segments_by_level(self) -> Dict[int, List[Segment]]:
        """Visible segments grouped by LSM level."""
        by_level: Dict[int, List[Segment]] = {}
        for sid in self._order:
            segment = self._versions[sid].segment
            by_level.setdefault(segment.meta.level, []).append(segment)
        return by_level


class Manifest(_ManifestView):
    """An immutable snapshot of one table's visible segment set."""

    def __init__(
        self,
        manifest_id: int,
        table: str,
        versions: Dict[str, SegmentVersion],
        order: Tuple[str, ...],
    ) -> None:
        self.manifest_id = manifest_id
        self.table = table
        self._versions = dict(versions)
        self._order = list(order)

    def edit(self) -> "ManifestEdit":
        """A mutable working copy seeded from this manifest."""
        return ManifestEdit(self)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Manifest(id={self.manifest_id}, table={self.table!r}, "
            f"segments={len(self._order)})"
        )


class ManifestEdit(_ManifestView):
    """A pending manifest: the working state of one open transaction."""

    def __init__(self, base: Manifest) -> None:
        self.base = base
        self._versions = dict(base._versions)
        self._order = list(base._order)
        self.dirty = False

    def commit(self, segment: Segment, index_key: Optional[str] = None) -> None:
        """Stage a freshly written segment for visibility.

        Raises
        ------
        SegmentError
            If a segment with the same id is already visible.
        """
        if segment.segment_id in self._versions:
            raise SegmentError(f"segment {segment.segment_id!r} already committed")
        bitmap = DeleteBitmap(segment.row_count).freeze()
        self._versions[segment.segment_id] = SegmentVersion(
            segment=segment, bitmap=bitmap, index_key=index_key
        )
        self._order.append(segment.segment_id)
        self.dirty = True

    def drop(self, segment_id: str) -> Segment:
        """Stage removal of a segment (compaction retires inputs)."""
        version = self._versions.pop(segment_id, None)
        if version is None:
            raise SegmentError(f"segment {segment_id!r} is not visible")
        self._order.remove(segment_id)
        self.dirty = True
        return version.segment

    def set_index_key(self, segment_id: str, key: str) -> None:
        """Stage where the segment's vector index was persisted."""
        version = self.version(segment_id)
        self._versions[segment_id] = SegmentVersion(
            segment=version.segment, bitmap=version.bitmap, index_key=key
        )
        self.dirty = True

    def set_bitmap(self, segment_id: str, bitmap: DeleteBitmap) -> None:
        """Stage a successor delete-bitmap version for ``segment_id``.

        The bitmap must already be frozen — the copy-on-write step is the
        caller's: ``old.copy()`` → mutate → ``freeze()`` → stage here.
        """
        if not bitmap.frozen:
            raise ManifestError("manifest bitmaps must be frozen (freeze() first)")
        version = self.version(segment_id)
        if bitmap.row_count != version.segment.row_count:
            raise ManifestError(
                f"bitmap covers {bitmap.row_count} rows, segment has "
                f"{version.segment.row_count}"
            )
        self._versions[segment_id] = SegmentVersion(
            segment=version.segment, bitmap=bitmap, index_key=version.index_key
        )
        self.dirty = True


class Snapshot(_ManifestView):
    """A pinned manifest: consistent reads for one query's lifetime.

    Usable as a context manager; :meth:`release` is idempotent.  While
    pinned, every segment, index key, and delete-bitmap version in the
    manifest stays alive — compaction may retire them from the *current*
    view but physical deletion waits for the last pin.
    """

    def __init__(self, store: "ManifestStore", manifest: Manifest) -> None:
        self._store = store
        self.manifest = manifest
        self._versions = manifest._versions
        self._order = manifest._order
        self._released = False

    @property
    def manifest_id(self) -> int:
        """The pinned manifest's id."""
        return self.manifest.manifest_id

    def release(self) -> None:
        """Unpin; the store may now retire what only this pin kept alive."""
        if not self._released:
            self._released = True
            self._store.release(self.manifest.manifest_id)

    @property
    def released(self) -> bool:
        """Whether this snapshot has been released."""
        return self._released

    def __enter__(self) -> "Snapshot":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.release()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "released" if self._released else "pinned"
        return f"Snapshot(manifest_id={self.manifest_id}, {state})"


class ManifestStore:
    """Versioned manifest history with pins and refcounted retirement.

    Commit protocol (writers hold the transaction lock):

    1. build a :class:`ManifestEdit` from the current manifest;
    2. stage segment adds/drops/bitmap successors on the edit;
    3. :meth:`publish` freezes the edit under the next ``manifest_id``
       and atomically swaps it in as current.

    Retirement: a manifest is *strong* while it is current, or while it
    is pinned and has been pinned continuously since it was current.
    Strong manifests hold one reference on each of their segments; when
    a segment's last strong reference drops (the current view moved on
    and no live snapshot still pins a manifest containing it), its
    retire callbacks fire — that is the only point where object-store
    payloads and cached indexes may be physically deleted.

    Manifests inside the retention window stay *addressable* for
    ``AS OF`` time travel after losing strength: their in-memory segment
    objects and frozen bitmaps reproduce historical results exactly,
    with execution falling back to exact scans where a physically
    retired index is no longer loadable.
    """

    def __init__(
        self,
        table: str = "",
        retain: int = DEFAULT_RETAINED_MANIFESTS,
        metrics: Optional[MetricRegistry] = None,
    ) -> None:
        self.table = table
        self.metrics = metrics if metrics is not None else MetricRegistry()
        self._retain = max(1, int(retain))
        self._lock = threading.RLock()
        self._manifests: Dict[int, Manifest] = {}
        self._retained: List[int] = []
        self._pins: Dict[int, int] = {}
        self._strong: set = set()  # manifest ids holding segment refs
        self._segment_refs: Dict[str, int] = {}
        self._retire_callbacks: List[RetireCallback] = []
        self._publish_hooks: List[Callable[[Manifest, Manifest], None]] = []
        self._next_id = 1
        root = Manifest(0, table, {}, ())
        self._manifests[0] = root
        self._retained.append(0)
        self._strong.add(0)
        self.current: Manifest = root
        _ALL_STORES.add(self)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def current_id(self) -> int:
        """The live manifest's id."""
        return self.current.manifest_id

    @property
    def pinned_count(self) -> int:
        """Total outstanding snapshot pins across all manifests."""
        with self._lock:
            return sum(self._pins.values())

    @property
    def retained_ids(self) -> List[int]:
        """Manifest ids currently addressable by ``AS OF``."""
        with self._lock:
            return list(self._retained)

    def on_retire(self, hook: RetireCallback) -> None:
        """Register a callback fired with ``(segment, index_key)`` once a
        segment leaves its last live manifest (safe to delete payloads)."""
        self._retire_callbacks.append(hook)

    def on_publish(self, hook: Callable[[Manifest, Manifest], None]) -> None:
        """Register ``(previous, published)`` callback fired inside every
        :meth:`publish`, under the store lock — callbacks therefore
        observe commits in ``manifest_id`` order.  The durability layer
        uses this to turn manifest swaps into WAL records."""
        self._publish_hooks.append(hook)

    @property
    def next_id(self) -> int:
        """The id the next published manifest will receive."""
        with self._lock:
            return self._next_id

    # ------------------------------------------------------------------
    # Commit
    # ------------------------------------------------------------------
    def publish(self, edit: ManifestEdit) -> Manifest:
        """Atomically swap ``edit`` in as the current manifest."""
        with self._lock:
            if edit.base.manifest_id != self.current.manifest_id:
                raise ManifestError(
                    f"stale edit: based on manifest {edit.base.manifest_id}, "
                    f"current is {self.current.manifest_id}"
                )
            manifest_id = self._next_id
            self._next_id += 1
            manifest = Manifest(
                manifest_id, self.table, edit._versions, tuple(edit._order)
            )
            self._manifests[manifest_id] = manifest
            for sid in manifest.segment_ids():
                self._segment_refs[sid] = self._segment_refs.get(sid, 0) + 1
            self._strong.add(manifest_id)
            self._retained.append(manifest_id)
            previous = self.current
            self.current = manifest
            self.metrics.gauge("mvcc.manifest_id", manifest_id)
            self.metrics.incr("mvcc.commits")
            emit_event(
                self.metrics, "manifest.publish", table=self.table,
                manifest_id=manifest_id,
                previous_id=previous.manifest_id,
                segments=len(manifest.segment_ids()),
            )
            # The replaced manifest keeps its segment refs only while
            # snapshots pin it; otherwise its exclusively-held segments
            # retire now.
            if self._pins.get(previous.manifest_id, 0) == 0:
                self._demote(previous.manifest_id)
            # Retention trim: weak manifests past the window lose even
            # AS OF addressability (pinned ones stay until release).
            while len(self._retained) > self._retain:
                victim = self._retained.pop(0)
                if self._pins.get(victim, 0) == 0:
                    self._manifests.pop(victim, None)
            for hook in self._publish_hooks:
                hook(previous, manifest)
        return manifest

    def restore(self, manifest: Manifest, next_id: int) -> None:
        """Install a recovered manifest as current (recovery only).

        Preserves ``manifest_id`` monotonicity across a cold restart:
        the restored manifest keeps the id it was checkpointed under and
        subsequent commits continue from ``next_id``, so ``AS OF`` and
        plan-cache keys stay comparable with the pre-crash history.
        Publish hooks do NOT fire — a restore replays state that is
        already durable.

        Raises
        ------
        ManifestError
            If the store has published anything (restore targets a
            pristine store only).
        """
        with self._lock:
            if self.current.manifest_id != 0 or len(self._manifests) != 1:
                raise ManifestError("restore requires a pristine manifest store")
            if next_id <= manifest.manifest_id:
                raise ManifestError(
                    f"next_id {next_id} must exceed restored manifest id "
                    f"{manifest.manifest_id}"
                )
            self._next_id = next_id
            if manifest.manifest_id == 0:
                # An empty table checkpointed before any commit: the
                # pristine root already is that manifest.
                return
            self._manifests[manifest.manifest_id] = manifest
            self._retained.append(manifest.manifest_id)
            self._strong.add(manifest.manifest_id)
            for sid in manifest.segment_ids():
                self._segment_refs[sid] = self._segment_refs.get(sid, 0) + 1
            previous = self.current
            self.current = manifest
            self.metrics.gauge("mvcc.manifest_id", manifest.manifest_id)
            if self._pins.get(previous.manifest_id, 0) == 0:
                self._demote(previous.manifest_id)

    # ------------------------------------------------------------------
    # Pins
    # ------------------------------------------------------------------
    def pin(self, manifest_id: Optional[int] = None) -> Snapshot:
        """Pin a manifest (current when ``manifest_id`` is None).

        Raises
        ------
        SnapshotExpiredError
            If the requested manifest was never published or has already
            expired out of the retention window.
        """
        with self._lock:
            if manifest_id is None:
                manifest_id = self.current.manifest_id
            manifest = self._manifests.get(manifest_id)
            if manifest is None:
                raise SnapshotExpiredError(
                    f"manifest {manifest_id} of table {self.table!r} is not "
                    f"available (current={self.current.manifest_id}, "
                    f"retained={self._retained})"
                )
            self._pins[manifest_id] = self._pins.get(manifest_id, 0) + 1
            self.metrics.gauge("mvcc.pinned_snapshots", sum(self._pins.values()))
            self.metrics.incr("mvcc.snapshots_opened")
            emit_event(
                self.metrics, "snapshot.pin", table=self.table,
                manifest_id=manifest_id, pins=self._pins[manifest_id],
            )
            return Snapshot(self, manifest)

    def release(self, manifest_id: int) -> None:
        """Drop one pin; retires what only this pin kept alive."""
        with self._lock:
            count = self._pins.get(manifest_id, 0)
            if count <= 0:
                raise ManifestError(f"manifest {manifest_id} is not pinned")
            if count == 1:
                del self._pins[manifest_id]
            else:
                self._pins[manifest_id] = count - 1
            self.metrics.gauge("mvcc.pinned_snapshots", sum(self._pins.values()))
            emit_event(
                self.metrics, "snapshot.unpin", table=self.table,
                manifest_id=manifest_id,
                pins=self._pins.get(manifest_id, 0),
            )
            if self._pins.get(manifest_id, 0) > 0:
                return
            if manifest_id != self.current.manifest_id:
                self._demote(manifest_id)
                if manifest_id not in self._retained:
                    self._manifests.pop(manifest_id, None)

    # ------------------------------------------------------------------
    # Retirement
    # ------------------------------------------------------------------
    def _demote(self, manifest_id: int) -> None:
        """Strip a manifest's segment references (lock held, idempotent).

        Fires retire callbacks for every segment whose last strong
        reference this was.
        """
        if manifest_id not in self._strong:
            return
        self._strong.discard(manifest_id)
        manifest = self._manifests.get(manifest_id)
        if manifest is None:  # pragma: no cover - defensive
            return
        for sid in manifest.segment_ids():
            remaining = self._segment_refs.get(sid, 0) - 1
            if remaining > 0:
                self._segment_refs[sid] = remaining
                continue
            self._segment_refs.pop(sid, None)
            version = manifest.version(sid)
            self.metrics.incr("mvcc.segments_retired")
            emit_event(
                self.metrics, "manifest.retire", table=self.table,
                manifest_id=manifest_id, segment_id=sid,
            )
            for hook in self._retire_callbacks:
                hook(version.segment, version.index_key)


class TransactionManager:
    """Atomic multi-operation commits over one :class:`ManifestStore`.

    ``transaction()`` nests: inner blocks join the outer edit and only
    the outermost exit publishes — so an UPDATE's delete-marks and its
    re-ingested segments land in one manifest swap.  Writers from other
    threads serialize on the transaction lock; readers are never blocked
    (they pin the last *published* manifest).
    """

    def __init__(self, store: ManifestStore) -> None:
        self.store = store
        self._lock = threading.RLock()
        self._edit: Optional[ManifestEdit] = None
        self._owner: Optional[int] = None
        self._depth = 0
        self._aborted = False

    @property
    def view(self) -> _ManifestView:
        """What the calling thread should read: its own open edit when it
        is mid-transaction, the published current manifest otherwise."""
        edit = self._edit
        if edit is not None and self._owner == threading.get_ident():
            return edit
        return self.store.current

    @contextmanager
    def transaction(self) -> Iterator[ManifestEdit]:
        """Open (or join) a transaction; publishes at outermost exit."""
        self._lock.acquire()
        self._depth += 1
        if self._edit is None:
            self._edit = self.store.current.edit()
            self._owner = threading.get_ident()
            self._aborted = False
        try:
            yield self._edit
        except BaseException:
            self._aborted = True
            raise
        finally:
            self._depth -= 1
            if self._depth == 0:
                edit, self._edit = self._edit, None
                self._owner = None
                aborted, self._aborted = self._aborted, False
                if not aborted and edit is not None and edit.dirty:
                    self.store.publish(edit)
            self._lock.release()
