"""The on-store index image (DESIGN.md §5): layout, zero-copy load,
validation of outside bytes, and what the image must leave unchanged.

Every public index type is checked on one fixed 500 x 64 fixture — the
one ISSUE 19's micro numbers use — so the byte counts and
``memory_bytes()`` values pinned here are the parent commit's, measured
with its pickle format.
"""

import gc
import sys

import numpy as np
import pytest

from repro.errors import IndexCorruptError, UnknownIndexTypeError
from repro.vindex.image import ALIGNMENT, decode_image, encode_image
from repro.vindex.registry import (
    IndexSpec,
    create_index,
    deserialize_index,
    serialize_index,
)

from tests.helpers import reference_search

N, DIM = 500, 64
PARAMS = {
    "FLAT": {},
    "IVFFLAT": {"nlist": 22},
    "IVFPQ": {"nlist": 22, "m": 8},
    "IVFPQFS": {"nlist": 22, "m": 8},
    "HNSW": {"m": 8, "ef_construction": 64},
    "HNSWSQ": {"m": 8, "ef_construction": 64},
    "DISKANN": {},
}
TYPES = sorted(PARAMS)

# What the parent commit's pickle format took for the same indexes, and
# what memory_bytes() reported (it sizes every simulated cache, so it
# must not move).
PARENT_PICKLE_BYTES = {
    "FLAT": 132_261, "IVFFLAT": 139_083, "IVFPQ": 80_721, "IVFPQFS": 19_273,
    "HNSW": 152_011, "HNSWSQ": 184_667, "DISKANN": 164_373,
}
PARENT_MEMORY_BYTES = {
    "FLAT": 132_000, "IVFFLAT": 137_632, "IVFPQ": 79_168, "IVFPQFS": 15_728,
    "HNSW": 194_832, "HNSWSQ": 99_352, "DISKANN": 4_064,
}
PARENT_DISKANN_DISK_BYTES = 231_584

# Where each type keeps the arrays that must be views of the image —
# the graph's CSR too, narrow neighbour ids and all.
ADJACENCY = ["_frozen.offsets", "_frozen.indices", "_frozen.upper_ptr"]
BULK = {
    "FLAT": ["_vectors", "_ids"],
    "IVFFLAT": ["_centroids", "_vectors", "_ids", "_cell_ptr"],
    "IVFPQ": ["_centroids", "_codes", "_ids", "_cell_ptr", "_pq._codebooks"],
    "IVFPQFS": ["_centroids", "_codes", "_ids", "_cell_ptr", "_pq._codebooks"],
    "HNSW": ["_vectors", "_ids", *ADJACENCY],
    "HNSWSQ": ["_codes", "_ids", "_vmin", "_vscale", *ADJACENCY],
    "DISKANN": ["_vectors", "_ids", "_csr.0", "_csr.1"],
}


def _fresh(index_type):
    return create_index(IndexSpec(index_type=index_type, dim=DIM, params=PARAMS[index_type]))


@pytest.fixture(scope="module")
def vectors():
    return np.random.default_rng(11).standard_normal((N, DIM)).astype(np.float32)


@pytest.fixture(scope="module")
def queries():
    return np.random.default_rng(3).standard_normal((6, DIM)).astype(np.float32)


@pytest.fixture(scope="module")
def built(vectors):
    out = {}
    for index_type in TYPES:
        index = _fresh(index_type)
        index.train(vectors)
        index.add_with_ids(vectors, np.arange(N))
        out[index_type] = index
    return out


@pytest.fixture(scope="module")
def images(built):
    return {index_type: serialize_index(index) for index_type, index in built.items()}


def _attr(index, dotted):
    for name in dotted.split("."):
        index = index[int(name)] if name.isdigit() else getattr(index, name)
    return index


def _arrays(tree):
    if isinstance(tree, np.ndarray):
        yield tree
    elif isinstance(tree, dict):
        for value in tree.values():
            yield from _arrays(value)


def _same_answers(left, right, queries, search=None):
    """``right`` answers every query as ``left``'s own search does,
    through its own search or ``search(right, query, k)``."""
    search = search or type(right).search_with_filter
    for query in queries:
        a, b = left.search_with_filter(query, 10), search(right, query, 10)
        assert a.ids.tobytes() == b.ids.tobytes()
        assert a.distances.tobytes() == b.distances.tobytes()
        assert a.visited == b.visited


@pytest.mark.parametrize("index_type", TYPES)
class TestLayout:
    def test_sections_are_aligned_readonly_views(self, images, index_type):
        blob = images[index_type]
        base = np.frombuffer(blob, dtype=np.uint8)
        arrays = list(_arrays(decode_image(blob)))
        assert arrays
        for array in arrays:
            assert not array.flags.writeable
            assert array.flags.c_contiguous
            assert np.shares_memory(array, base)
            assert (array.ctypes.data - base.ctypes.data) % ALIGNMENT == 0

    def test_loaded_bulk_arrays_are_views(self, images, index_type):
        blob = images[index_type]
        base = np.frombuffer(blob, dtype=np.uint8)
        loaded = deserialize_index(blob)
        for dotted in BULK[index_type]:
            array = _attr(loaded, dotted)
            assert np.shares_memory(array, base), dotted
            assert not array.flags.writeable, dotted

    def test_image_no_larger_than_the_pickle_it_replaces(self, images, index_type):
        assert len(images[index_type]) <= PARENT_PICKLE_BYTES[index_type]

    def test_any_buffer_loads_identically(self, built, images, queries, index_type):
        blob = images[index_type]
        for buffer in (blob, bytearray(blob), memoryview(blob), memoryview(bytearray(blob))):
            loaded = deserialize_index(buffer)
            assert serialize_index(loaded) == blob
            assert not _attr(loaded, BULK[index_type][0]).flags.writeable
            _same_answers(built[index_type], loaded, queries[:2])

    def test_payload_holds_only_arrays_and_scalars(self, built, index_type):
        # ISSUE 19 rule 2: nothing whose length grows with rows, cells
        # or edges may be a Python container.
        def walk(value, path):
            if isinstance(value, dict):
                for key, item in value.items():
                    assert isinstance(key, str)
                    walk(item, f"{path}.{key}")
            else:
                assert value is None or isinstance(
                    value, (bool, int, float, str, np.ndarray)
                ), f"{path} is a {type(value).__name__}"

        walk(built[index_type].to_payload(), index_type)


@pytest.mark.parametrize("index_type", TYPES)
class TestAccounting:
    def test_memory_bytes_built_equals_loaded_equals_parent(self, built, images, index_type):
        loaded = deserialize_index(images[index_type])
        assert built[index_type].memory_bytes() == PARENT_MEMORY_BYTES[index_type]
        assert loaded.memory_bytes() == PARENT_MEMORY_BYTES[index_type]

    def test_memory_bytes_closed_form(self, built, index_type):
        index = built[index_type]
        ids = N * 8
        centroids = 22 * DIM * 4
        if index_type in ("HNSW", "HNSWSQ"):
            # The loop the CSR replaced, kept here as the reference.
            links = sum(8 * len(layer) + 16 for node in index._thawed_links() for layer in node)
        expected = {
            "FLAT": lambda: N * DIM * 4 + ids,
            "IVFFLAT": lambda: centroids + N * DIM * 4 + ids,
            "IVFPQ": lambda: 256 * DIM * 4 + centroids + N * 8 + ids,
            "IVFPQFS": lambda: 16 * DIM * 4 + centroids + N * 4 + ids,
            "HNSW": lambda: N * DIM * 4 + ids + links,
            "HNSWSQ": lambda: N * DIM + ids + 2 * DIM * 4 + links,
            "DISKANN": lambda: ids + 64,
        }[index_type]()
        assert index.memory_bytes() == expected


def test_diskann_disk_bytes(built, images):
    index = built["DISKANN"]
    graph = sum(8 * len(neighbors) + 16 for neighbors in index._graph)
    assert index.disk_bytes() == N * DIM * 4 + graph == PARENT_DISKANN_DISK_BYTES
    assert deserialize_index(images["DISKANN"]).disk_bytes() == PARENT_DISKANN_DISK_BYTES


@pytest.mark.parametrize("index_type", TYPES)
class TestRoundTrips:
    def test_untrained_index(self, index_type):
        index = _fresh(index_type)
        blob = serialize_index(index)
        loaded = deserialize_index(blob)
        assert loaded.ntotal == 0
        assert loaded.is_trained == index.is_trained
        assert serialize_index(loaded) == blob

    def test_trained_but_empty_index(self, vectors, queries, index_type):
        index = _fresh(index_type)
        index.train(vectors)
        blob = serialize_index(index)
        loaded = deserialize_index(blob)
        assert loaded.ntotal == 0 and loaded.is_trained
        assert serialize_index(loaded) == blob
        assert len(loaded.search_with_filter(queries[0], 5)) == 0
        loaded.add_with_ids(vectors[:50], np.arange(50))
        assert loaded.ntotal == 50
        assert loaded.search_with_filter(vectors[7], 1).ids[0] == 7

    def test_add_after_load_matches_add_without_round_trip(self, vectors, queries, index_type):
        original = _fresh(index_type)
        original.train(vectors)
        original.add_with_ids(vectors[:400], np.arange(400))
        loaded = deserialize_index(serialize_index(original))
        # The views are read-only; growing must reallocate, not write.
        original.add_with_ids(vectors[400:], np.arange(400, N))
        loaded.add_with_ids(vectors[400:], np.arange(400, N))
        assert loaded.ntotal == N
        assert serialize_index(loaded) == serialize_index(original)
        for search in (None, reference_search):
            _same_answers(original, loaded, queries, search)

    def test_reference_kernel_runs_on_a_loaded_index(self, built, images, queries, index_type):
        # The reference kernels (for a graph, the list walk over the lists
        # thawed from the loaded CSR) answer as the built index's search...
        loaded = deserialize_index(images[index_type])
        _same_answers(built[index_type], loaded, queries, reference_search)
        # ...and thawing for it does not disturb the image.
        assert serialize_index(loaded) == images[index_type]


class TestSaveRejectsWhatAnImageCannotHold:
    @pytest.mark.parametrize(
        "value", [{1, 2}, b"raw", np.int64(3), np.array(["a", "b"]), np.array([None]), {1: "x"}]
    )
    def test_type_error_names_the_key(self, value):
        with pytest.raises(TypeError, match="extras.bad"):
            encode_image({"index_type": "FLAT", "extras": {"bad": value}})

    def test_nested_containers_round_trip(self):
        payload = {
            "index_type": "X",
            "none": None, "flag": True, "n": 7, "x": 1.25, "s": "é",
            "nested": {"inner": np.arange(5, dtype=np.uint16), "list": [1, [2.5, "a"], None]},
            "arrays": [np.zeros((2, 3), dtype=np.float32), np.empty((0, 4), dtype=np.int8)],
            "big_endian": np.arange(4, dtype=">i4"),
            "scalar": np.array(2.0),
        }
        blob = encode_image(payload)
        tree = decode_image(blob)
        assert encode_image(tree) == blob
        assert tree["nested"]["list"] == [1, [2.5, "a"], None]
        assert tree["s"] == "é" and tree["flag"] is True and tree["none"] is None
        np.testing.assert_array_equal(tree["nested"]["inner"], np.arange(5))
        np.testing.assert_array_equal(tree["big_endian"], np.arange(4))
        assert tree["arrays"][0].shape == (2, 3) and tree["arrays"][1].shape == (0, 4)
        assert tree["scalar"].shape == () and float(tree["scalar"]) == 2.0


class TestCorruptImages:
    """Bytes from a store are outside input: one typed error, always."""

    def test_truncated(self, images):
        blob = images["HNSW"]
        for cut in (0, 3, 11, 12, 40, 200, len(blob) // 2, len(blob) - 1):
            with pytest.raises(IndexCorruptError):
                deserialize_index(blob[:cut])

    def test_bad_magic_and_version(self, images):
        blob = images["FLAT"]
        with pytest.raises(IndexCorruptError):
            deserialize_index(b"XHIX" + blob[4:])
        with pytest.raises(IndexCorruptError):
            deserialize_index(blob[:4] + b"\x02" + blob[5:])

    def test_not_an_image_at_all(self):
        import pickle

        for junk in (b"", b"garbage", pickle.dumps({"index_type": "FLAT"}), bytes(4096)):
            with pytest.raises(IndexCorruptError):
                deserialize_index(junk)

    @pytest.mark.parametrize("index_type", ["HNSW", "IVFPQ"])
    def test_every_header_bit_flip_is_typed_or_harmless(self, images, index_type):
        blob = images[index_type]
        header_end = 12 + int.from_bytes(blob[8:12], "little")
        outcomes = set()
        for position in range(header_end):
            for bit in range(8):
                flipped = bytearray(blob)
                flipped[position] ^= 1 << bit
                try:
                    deserialize_index(flipped)
                    outcomes.add("loaded")
                except (IndexCorruptError, UnknownIndexTypeError) as exc:
                    outcomes.add(type(exc).__name__)
        # e.g. a flipped digit of ``seed`` is still a valid image; a
        # flipped letter of the type name is an unknown type; the rest
        # are corrupt.  Nothing else may escape.
        assert "IndexCorruptError" in outcomes
        assert outcomes <= {"loaded", "IndexCorruptError", "UnknownIndexTypeError"}

    def test_dtype_outside_the_whitelist(self, images):
        blob = images["FLAT"]
        for alien in (b'"<c8"', b'"|O8"', b'"<M8"', b'"<U1"'):
            bad = blob.replace(b'"<f4"', alien, 1)
            assert len(bad) == len(blob) and bad != blob
            with pytest.raises(IndexCorruptError):
                deserialize_index(bad)

    def test_section_leaving_the_buffer(self, images):
        blob = images["FLAT"]
        grown = blob.replace(b"[500,64]", b"[900,64]", 1)
        moved = blob.replace(b",128000]", b",999936]", 1)
        misaligned = blob.replace(b",128000]", b",128008]", 1)
        negative = blob.replace(b"[500,64]", b"[-50,64]", 1)
        for bad in (grown, moved, misaligned, negative):
            assert len(bad) == len(blob) and bad != blob
            with pytest.raises(IndexCorruptError):
                deserialize_index(bad)

    def test_header_disagreeing_with_its_type(self, images):
        blob = images["FLAT"]
        for bad in (
            blob.replace(b'"dim":64', b'"dim":32', 1),       # vectors are not (n, dim)
            blob.replace(b'"<i8"', b'"<f8"', 1),             # ids of the wrong dtype
            blob.replace(b'"metric"', b'"metrik"', 1),       # a field is missing
            blob.replace(b'"dim":64', b'"dim":-4', 1),       # a parameter is invalid
        ):
            assert len(bad) == len(blob) and bad != blob
            with pytest.raises(IndexCorruptError):
                deserialize_index(bad)

    @pytest.mark.parametrize(
        "index_type, field",
        [("HNSW", "link_offsets"), ("HNSW", "upper_ptr"), ("HNSWSQ", "link_offsets"),
         ("DISKANN", "graph_offsets"), ("IVFFLAT", "cell_ptr"), ("IVFPQ", "cell_ptr")],
    )
    def test_offsets_that_are_not_monotone_or_overrun(self, built, index_type, field):
        payload = built[index_type].to_payload()
        good = payload[field]
        swapped = good.copy()
        swapped[[3, 4]] = swapped[[4, 3]] + np.array([1, 0], dtype=good.dtype)
        overrun = good.copy()
        overrun[-1] += 5
        short = good[:-1]
        for bad in (swapped, overrun, short):
            with pytest.raises(IndexCorruptError):
                deserialize_index(encode_image({**payload, field: bad}))

    @pytest.mark.parametrize(
        "index_type, field", [("HNSW", "link_indices"), ("DISKANN", "graph_indices")]
    )
    def test_neighbour_outside_the_index(self, built, index_type, field):
        payload = built[index_type].to_payload()
        bad = payload[field].copy()
        bad[17] = N
        with pytest.raises(IndexCorruptError):
            deserialize_index(encode_image({**payload, field: bad}))

    def test_hnsw_upper_link_to_a_node_without_that_layer(self, built):
        # The fast descent steps onto a neighbour and reads *its* list on
        # the same layer; a link to a layer-0-only node would read another
        # node's slot (or past the last one).
        index = built["HNSW"]
        payload = index.to_payload()
        levels = np.diff(payload["upper_ptr"])
        flat_node = int(np.flatnonzero(levels == 0)[0])
        bad = payload["link_indices"].copy()
        first_upper_link = int(payload["link_offsets"][N])
        bad[first_upper_link] = flat_node
        with pytest.raises(IndexCorruptError):
            deserialize_index(encode_image({**payload, "link_indices": bad}))
        for key, value in (("entry_point", flat_node), ("entry_point", N), ("max_level", 9)):
            with pytest.raises(IndexCorruptError):
                deserialize_index(encode_image({**payload, key: value}))

    def test_fastscan_code_past_the_codebook(self, built):
        payload = built["IVFPQFS"].to_payload()
        bad = payload["codes"].copy()
        bad[5, 2] = 200
        with pytest.raises(IndexCorruptError):
            deserialize_index(encode_image({**payload, "codes": bad}))


class TestLoadIsAllocationFree:
    def test_hnsw_load_allocates_few_python_blocks(self, images):
        # The GC-cliff regression test: the pickle format rebuilt ~1,050
        # link lists of boxed ints per load (thousands of blocks, all of
        # them gc-tracked); a load is now a handful of array headers.
        blob = images["HNSW"]
        deserialize_index(blob)  # warm caches (imports, dtype singletons)
        gc.collect()
        gc.disable()
        try:
            before = sys.getallocatedblocks()
            loaded = deserialize_index(blob)
            delta = sys.getallocatedblocks() - before
        finally:
            gc.enable()
        assert loaded.ntotal == N
        assert delta < 200, delta

    def test_loaded_index_builds_no_rng_until_a_row_is_added(self, images, vectors):
        loaded = deserialize_index(images["HNSW"])
        loaded.search_with_filter(vectors[0], 5)
        assert loaded._rng is None
        loaded.add_with_ids(vectors[:1], np.array([N]))
        assert loaded._rng is not None
