"""Delete bitmaps for realtime update (paper §III-B, Fig 6).

Updates never mutate an immutable segment in place.  Instead a new segment
carries the fresh rows and the old rows are marked dead in a per-segment
:class:`DeleteBitmap`.  Queries AND the alive mask into every scan;
compaction physically drops dead rows and retires the bitmap.

Bitmaps are copy-on-write under MVCC: the version committed into a table
manifest is :meth:`frozen <DeleteBitmap.freeze>` (mutation raises), and a
writer that needs to mark more rows dead first takes a :meth:`copy`,
which bumps the ``version`` counter.  Pinned snapshots therefore keep
seeing the exact alive set they were opened against.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

import numpy as np

from repro.errors import SegmentError
from repro.storage.blockio import decode_block, encode_block


class DeleteBitmap:
    """A per-segment bitmap of logically deleted row offsets."""

    def __init__(self, row_count: int, version: int = 0) -> None:
        if row_count < 0:
            raise ValueError("row_count must be non-negative")
        self._deleted = np.zeros(row_count, dtype=bool)
        self.version = version
        self._frozen = False
        # A frozen version's deleted count, taken on its first read.
        self._count: Optional[int] = None

    @property
    def row_count(self) -> int:
        """Number of rows the bitmap covers."""
        return int(self._deleted.shape[0])

    @property
    def deleted_count(self) -> int:
        """Number of rows currently marked deleted.

        Every scan asks; a frozen version is immutable, so it counts
        once and keeps the count (a pickle carries it).  A mutable one
        counts afresh each time.
        """
        if self._count is not None:
            return self._count
        count = int(self._deleted.sum())
        if self._frozen:
            self._count = count
        return count

    @property
    def alive_count(self) -> int:
        """Number of rows not marked deleted."""
        return self.row_count - self.deleted_count

    @property
    def frozen(self) -> bool:
        """Whether this bitmap version has been sealed against mutation."""
        return self._frozen

    def freeze(self) -> "DeleteBitmap":
        """Seal this version: further mutation raises.  Returns ``self``.

        Called when a bitmap is committed into a manifest so every pinned
        snapshot observes an immutable alive set.
        """
        self._frozen = True
        self._deleted.setflags(write=False)
        return self

    def _require_mutable(self) -> None:
        if self._frozen:
            raise SegmentError(
                f"delete bitmap version {self.version} is frozen; "
                "take a copy() before mutating (copy-on-write)"
            )

    def mark_deleted(self, offsets: Iterable[int]) -> int:
        """Mark row ``offsets`` deleted; returns how many were newly marked.

        Re-deleting an already-dead row is a no-op (idempotent), matching
        how repeated UPDATEs of the same key behave.
        """
        self._require_mutable()
        newly = 0
        for offset in offsets:
            if not 0 <= offset < self.row_count:
                raise ValueError(
                    f"row offset {offset} out of range for {self.row_count} rows"
                )
            if not self._deleted[offset]:
                self._deleted[offset] = True
                newly += 1
        return newly

    def is_deleted(self, offset: int) -> bool:
        """Whether the row at ``offset`` is logically deleted."""
        if not 0 <= offset < self.row_count:
            raise ValueError(f"row offset {offset} out of range")
        return bool(self._deleted[offset])

    def alive_mask(self) -> np.ndarray:
        """Boolean mask (True = visible) over all row offsets."""
        return ~self._deleted

    def deleted_offsets(self) -> np.ndarray:
        """Sorted array of deleted row offsets."""
        return np.flatnonzero(self._deleted)

    def merge(self, other: "DeleteBitmap") -> None:
        """OR another bitmap of the same shape into this one."""
        self._require_mutable()
        if other.row_count != self.row_count:
            raise ValueError(
                f"bitmap size mismatch: {other.row_count} vs {self.row_count}"
            )
        self._deleted |= other._deleted

    def filter_alive(self, offsets: Sequence[int]) -> np.ndarray:
        """Subset of ``offsets`` that are still visible, order preserved."""
        arr = np.asarray(offsets, dtype=np.int64)
        if arr.size == 0:
            return arr
        if arr.min() < 0 or arr.max() >= self.row_count:
            raise ValueError("offset out of range in filter_alive")
        return arr[~self._deleted[arr]]

    def to_bytes(self) -> bytes:
        """Serialize for persistence alongside the segment."""
        return encode_block(self._deleted)

    @classmethod
    def from_bytes(cls, payload: bytes) -> "DeleteBitmap":
        """Inverse of :meth:`to_bytes`."""
        deleted = decode_block(payload)
        bitmap = cls(int(deleted.shape[0]))
        bitmap._deleted = deleted.astype(bool)
        return bitmap

    def copy(self) -> "DeleteBitmap":
        """Mutable successor version (the copy-on-write step).

        The clone starts unfrozen with ``version + 1`` and an independent
        backing array, so marking rows dead in it never disturbs readers
        of the frozen predecessor.
        """
        clone = DeleteBitmap(self.row_count, version=self.version + 1)
        clone._deleted = self._deleted.copy()
        return clone

    def __setstate__(self, state) -> None:
        # numpy arrays unpickle writeable: re-seal a frozen mask.
        self.__dict__.update(state)
        if self._frozen:
            self._deleted.setflags(write=False)
