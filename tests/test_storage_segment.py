"""Tests for immutable columnar segments."""

import numpy as np
import pytest

from repro.errors import SegmentError
from repro.storage.blockio import decode_block, encode_block
from repro.storage.segment import ColumnStats, Segment
from repro.vindex.registry import IndexSpec, create_index

INDEX_TYPES = ["FLAT", "IVFFLAT", "IVFPQ", "IVFPQFS", "HNSW", "HNSWSQ", "DISKANN"]


def make_segment(n=50, dim=8, seed=0, **kwargs):
    rng = np.random.default_rng(seed)
    vectors = rng.normal(size=(n, dim)).astype(np.float32)
    scalars = {
        "id": np.arange(n, dtype=np.uint64),
        "score": rng.random(n),
        "label": [f"l{i % 3}" for i in range(n)],
    }
    return Segment.from_columns("t/seg-0", "t", scalars, vectors, **kwargs)


class TestConstruction:
    def test_meta_fields(self):
        seg = make_segment()
        assert seg.row_count == 50
        assert seg.dim == 8
        assert seg.segment_id == "t/seg-0"
        assert set(seg.scalar_column_names) == {"id", "score", "label"}

    def test_stats_computed(self):
        seg = make_segment()
        stats = seg.meta.column_stats
        assert stats["id"].minimum == 0
        assert stats["id"].maximum == 49
        assert stats["label"].minimum == "l0"
        assert stats["label"].maximum == "l2"

    def test_centroid_defaults_to_mean(self):
        seg = make_segment()
        np.testing.assert_allclose(
            seg.meta.centroid, seg.vectors().mean(axis=0), rtol=1e-5
        )

    def test_column_length_mismatch_rejected(self):
        with pytest.raises(SegmentError):
            Segment.from_columns(
                "s", "t", {"id": np.arange(3)}, np.zeros((4, 2), dtype=np.float32)
            )

    def test_vectors_must_be_2d(self):
        with pytest.raises(SegmentError):
            Segment.from_columns("s", "t", {}, np.zeros(4, dtype=np.float32))

    def test_vectors_read_only(self):
        seg = make_segment()
        with pytest.raises(ValueError):
            seg.vectors()[0, 0] = 99.0


class TestAccess:
    def test_vectors_at(self):
        seg = make_segment()
        sub = seg.vectors_at([3, 1])
        np.testing.assert_array_equal(sub[0], seg.vectors()[3])
        np.testing.assert_array_equal(sub[1], seg.vectors()[1])

    def test_scalar_at_numeric(self):
        seg = make_segment()
        np.testing.assert_array_equal(seg.scalar_at("id", [5, 2]), [5, 2])

    def test_scalar_at_strings(self):
        seg = make_segment()
        assert seg.scalar_at("label", [0, 1, 2]) == ["l0", "l1", "l2"]

    def test_unknown_column_raises(self):
        with pytest.raises(SegmentError):
            make_segment().scalar_column("ghost")

    def test_row_materialization(self):
        seg = make_segment()
        row = seg.row(7)
        assert row["id"] == 7
        assert row["label"] == "l1"

    def test_row_out_of_range(self):
        with pytest.raises(SegmentError):
            make_segment().row(1000)


class TestPersistence:
    def test_persist_and_load_roundtrip(self, store):
        seg = make_segment(partition_key=("a", 1), bucket_id=2, level=1)
        seg.persist(store)
        loaded = Segment.load(store, seg.segment_id)
        assert loaded.row_count == seg.row_count
        assert loaded.meta.partition_key == ("a", 1)
        assert loaded.meta.bucket_id == 2
        assert loaded.meta.level == 1
        np.testing.assert_array_equal(loaded.vectors(), seg.vectors())
        assert loaded.scalar_column("label") == seg.scalar_column("label")

    def test_persist_charges_clock(self, store, clock):
        before = clock.now
        make_segment().persist(store)
        assert clock.now > before

    def test_column_keys_stable(self):
        assert Segment.column_key("s1", "c") == "segments/s1/columns/c"
        assert Segment.meta_key("s1") == "segments/s1/meta"


class TestColumnStats:
    def test_overlap_inside(self):
        stats = ColumnStats(minimum=10, maximum=20)
        assert stats.overlaps_range(15, 25)
        assert stats.overlaps_range(None, 15)
        assert stats.overlaps_range(15, None)

    def test_no_overlap(self):
        stats = ColumnStats(minimum=10, maximum=20)
        assert not stats.overlaps_range(21, 30)
        assert not stats.overlaps_range(None, 9)

    def test_string_ranges(self):
        stats = ColumnStats(minimum="apple", maximum="melon")
        assert stats.overlaps_range("banana", "banana")
        assert not stats.overlaps_range("zebra", None)


class TestReadOnlyContract:
    """Segment arrays are read-only views (concurrent queries and cached
    index images share them): no hot-path kernel may mutate one in place."""

    def test_decoded_blocks_are_read_only(self, rng):
        payload = encode_block(rng.normal(size=(20, 4)).astype(np.float32))
        decoded = decode_block(payload)
        assert not decoded.flags.writeable
        with pytest.raises(ValueError):
            decoded[0, 0] = 1.0

    def test_segment_views_are_read_only(self, rng):
        segment = Segment.from_columns(
            "t/seg-00000010", "t",
            {"id": np.arange(30, dtype=np.uint64)},
            rng.normal(size=(30, 8)).astype(np.float32),
        )
        assert not segment.vectors().flags.writeable
        assert not segment.scalar_column("id").flags.writeable
        with pytest.raises(ValueError):
            segment.vectors()[0, 0] = 9.9

    def test_caller_arrays_stay_writable(self, rng):
        ids = np.arange(30, dtype=np.uint64)
        Segment.from_columns(
            "t/seg-00000011", "t", {"id": ids},
            rng.normal(size=(30, 8)).astype(np.float32),
        )
        ids[0] = 7  # the segment holds a locked *view*, not the base

    @pytest.mark.parametrize("name", INDEX_TYPES)
    def test_no_kernel_mutates_segment_vectors(self, rng, name):
        """Search every index type against a segment's read-only payload
        and prove the bytes are untouched afterwards."""
        data = rng.normal(size=(300, 16)).astype(np.float32)
        segment = Segment.from_columns(
            f"t/seg-ro-{name}", "t",
            {"id": np.arange(300, dtype=np.uint64)}, data,
        )
        held = segment.vectors()
        before = held.tobytes()
        params = {"m": 4} if name.startswith("IVFPQ") else {}
        index = create_index(IndexSpec(index_type=name, dim=16, params=params))
        index.train(held)
        index.add_with_ids(held, np.arange(300))
        refiner = getattr(index, "set_refiner", None)
        if callable(refiner):
            refiner(lambda ids: segment.vectors_at(ids))
        for query in held[:5]:
            index.search_with_filter(query, 10)
        bitset = np.ones(300, dtype=bool)
        bitset[::3] = False
        index.search_with_filter(held[7], 10, bitset=bitset)
        assert held.tobytes() == before
