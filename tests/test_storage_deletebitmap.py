"""Tests for delete bitmaps, including hypothesis invariants."""

import pickle

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.errors import SegmentError
from repro.storage.deletebitmap import DeleteBitmap


class TestBasics:
    def test_initially_all_alive(self):
        bitmap = DeleteBitmap(10)
        assert bitmap.alive_count == 10
        assert bitmap.deleted_count == 0

    def test_mark_deleted(self):
        bitmap = DeleteBitmap(10)
        assert bitmap.mark_deleted([1, 3]) == 2
        assert bitmap.is_deleted(1)
        assert not bitmap.is_deleted(2)

    def test_idempotent_delete(self):
        bitmap = DeleteBitmap(10)
        bitmap.mark_deleted([5])
        assert bitmap.mark_deleted([5]) == 0
        assert bitmap.deleted_count == 1

    def test_out_of_range_rejected(self):
        bitmap = DeleteBitmap(4)
        with pytest.raises(ValueError):
            bitmap.mark_deleted([4])
        with pytest.raises(ValueError):
            bitmap.is_deleted(-1)

    def test_negative_row_count_rejected(self):
        with pytest.raises(ValueError):
            DeleteBitmap(-1)

    def test_zero_rows(self):
        bitmap = DeleteBitmap(0)
        assert bitmap.alive_count == 0
        assert bitmap.deleted_offsets().size == 0


class TestMasksAndFilters:
    def test_alive_mask(self):
        bitmap = DeleteBitmap(4)
        bitmap.mark_deleted([0, 2])
        np.testing.assert_array_equal(
            bitmap.alive_mask(), [False, True, False, True]
        )

    def test_filter_alive_preserves_order(self):
        bitmap = DeleteBitmap(6)
        bitmap.mark_deleted([1, 4])
        out = bitmap.filter_alive([5, 4, 3, 1, 0])
        np.testing.assert_array_equal(out, [5, 3, 0])

    def test_filter_alive_out_of_range(self):
        bitmap = DeleteBitmap(3)
        with pytest.raises(ValueError):
            bitmap.filter_alive([3])

    def test_deleted_offsets_sorted(self):
        bitmap = DeleteBitmap(10)
        bitmap.mark_deleted([7, 2, 5])
        np.testing.assert_array_equal(bitmap.deleted_offsets(), [2, 5, 7])


class TestMergeAndCopy:
    def test_merge_or_semantics(self):
        a = DeleteBitmap(5)
        b = DeleteBitmap(5)
        a.mark_deleted([0])
        b.mark_deleted([1])
        a.merge(b)
        assert a.deleted_count == 2
        assert b.deleted_count == 1

    def test_merge_size_mismatch(self):
        with pytest.raises(ValueError):
            DeleteBitmap(3).merge(DeleteBitmap(4))

    def test_copy_is_independent(self):
        a = DeleteBitmap(5)
        clone = a.copy()
        a.mark_deleted([0])
        assert clone.deleted_count == 0


class TestSerialization:
    def test_roundtrip(self):
        bitmap = DeleteBitmap(8)
        bitmap.mark_deleted([1, 6])
        restored = DeleteBitmap.from_bytes(bitmap.to_bytes())
        assert restored.row_count == 8
        np.testing.assert_array_equal(restored.alive_mask(), bitmap.alive_mask())

    def test_pickle_keeps_a_frozen_mask_immutable(self):
        import pickle

        bitmap = DeleteBitmap(30)
        bitmap.mark_deleted([5])
        bitmap.freeze()
        clone = pickle.loads(pickle.dumps(bitmap))
        assert clone.frozen and clone.is_deleted(5)
        with pytest.raises(SegmentError):
            clone.mark_deleted([1])
        assert not clone._deleted.flags.writeable


class TestProperties:
    @given(
        rows=st.integers(min_value=1, max_value=200),
        data=st.data(),
    )
    def test_alive_plus_deleted_is_total(self, rows, data):
        def draw():
            return data.draw(
                st.lists(st.integers(min_value=0, max_value=rows - 1), max_size=50)
            )

        def assert_counts(bitmap):
            # The count a scan reads agrees with the mask, however the
            # bitmap was reached and whether or not it was read before.
            assert bitmap.deleted_count == int((~bitmap.alive_mask()).sum())
            assert bitmap.alive_count + bitmap.deleted_count == rows

        bitmap = DeleteBitmap(rows)
        offsets = draw()
        bitmap.mark_deleted(offsets)
        assert_counts(bitmap)
        assert bitmap.deleted_count == len(set(offsets))
        bitmap.mark_deleted(draw())  # mutable: read, then mark again
        assert_counts(bitmap)
        bitmap.freeze()
        assert_counts(bitmap)
        successor = bitmap.copy()  # copy of a read frozen version, then mark
        successor.mark_deleted(draw())
        assert_counts(successor)
        other = DeleteBitmap(rows)
        other.mark_deleted(draw())
        successor.merge(other)
        assert_counts(successor)
        successor.freeze()
        assert_counts(successor)
        assert_counts(DeleteBitmap.from_bytes(successor.to_bytes()))
        clone = pickle.loads(pickle.dumps(successor))
        assert_counts(clone)
        assert clone.frozen

    @given(
        rows=st.integers(min_value=1, max_value=100),
        data=st.data(),
    )
    def test_roundtrip_preserves_state(self, rows, data):
        bitmap = DeleteBitmap(rows)
        offsets = data.draw(
            st.lists(st.integers(min_value=0, max_value=rows - 1), max_size=30)
        )
        bitmap.mark_deleted(offsets)
        restored = DeleteBitmap.from_bytes(bitmap.to_bytes())
        np.testing.assert_array_equal(
            restored.deleted_offsets(), bitmap.deleted_offsets()
        )
