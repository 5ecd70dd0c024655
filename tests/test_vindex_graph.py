"""The graph family's one traversal: ``repro.vindex.graph``.

The list walk and the CSR walk are independent implementations of one
beam search, so they are held against each other here on adjacency the
index builders never produce — isolated nodes, self-loops, repeated
edges, disconnected components — over points chosen so that tied and
zero distances are the common case; the CSR walk also over the same
adjacency as python lists, as a built HNSW keeps its layer 0.  ``test_kernel_equivalence.py``
holds built indexes' searches against the list walk; the cost side it
leaves open (``visited`` under a bitset, DiskANN's charged reads) is
pinned below, then the per-query distance table, then the native
iterator's CSR loop against the list walk's, then — at the bottom —
the build: exact candidates under the size rule against a brute-force
oracle and the kept table's block sort against ``_nearest``, Algorithm
4 against a numpy one, and a build with its tables writing the image
one without them writes, non-finite rows included.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.vindex import hnsw
from repro.vindex.api import pairwise_distance
from repro.vindex.graph import beam_search_csr, beam_search_lists, filtered_top_k
from repro.vindex.image import freeze_adjacency, thaw_adjacency
from repro.vindex.registry import IndexSpec, create_index, deserialize_index, serialize_index

from tests.helpers import reference_iterator, reference_search


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(11)
    return rng.normal(size=(300, 12)).astype(np.float32)


@pytest.fixture(scope="module")
def built(data):
    out = {}
    for name in ("HNSW", "HNSWSQ", "DISKANN"):
        index = create_index(IndexSpec(index_type=name, dim=12))
        index.add_with_ids(data, np.arange(data.shape[0]))
        out[name] = index
    return out


@st.composite
def walks(draw):
    """(points, adjacency lists, query, entry, width) over ≤ 12 nodes on
    a 3 × 3 integer grid: most distances tie, many are zero."""
    n = draw(st.integers(1, 12))
    coords = st.integers(-1, 1)
    points = np.array(
        draw(st.lists(st.tuples(coords, coords), min_size=n, max_size=n)), dtype=np.float32
    )
    lists = draw(
        st.lists(st.lists(st.integers(0, n - 1), max_size=6), min_size=n, max_size=n)
    )
    query = np.array(draw(st.tuples(coords, coords)), dtype=np.float32)
    return points, lists, query, draw(st.integers(0, n - 1)), draw(st.integers(1, n + 3))


def distance_over(points):
    def distance(query, nodes):
        diff = points[np.asarray(nodes, dtype=np.int64)] - query
        return np.einsum("ij,ij->i", diff, diff)

    return distance


def both_walks(points, lists, query, entry, width):
    distance = distance_over(points)
    reads_lists, reads_csr = [], []
    by_lists = beam_search_lists(
        distance, query, lists, entry, width, on_read=reads_lists.append
    )
    csr = freeze_adjacency(lists)
    by_csr = beam_search_csr(distance, query, *csr, entry, width, on_read=reads_csr.append)
    reads_kept = []
    by_kept = beam_search_csr(
        distance, query, *csr, entry, width, on_read=reads_kept.append, lists=lists
    )
    assert (by_kept, reads_kept) == (by_csr, reads_csr)
    return by_lists, reads_lists, by_csr, reads_csr


def reachable(lists, entry):
    found, stack = {entry}, [entry]
    while stack:
        for neighbor in lists[stack.pop()]:
            if neighbor not in found:
                found.add(neighbor)
                stack.append(neighbor)
    return found


class TestTwoWalksOneTraversal:
    @given(walk=walks())
    @settings(max_examples=300, deadline=None)
    def test_lists_and_csr_agree(self, walk):
        by_lists, reads_lists, by_csr, reads_csr = both_walks(*walk)
        assert by_lists == by_csr  # beam, settled and marked count
        assert reads_lists == reads_csr
        beam, settled, marked = by_lists
        assert beam == sorted(beam) and len(beam) <= walk[4]
        assert reads_lists[0] == 1 and sum(reads_lists) == marked

    @given(walk=walks())
    @settings(max_examples=100, deadline=None)
    def test_hnsw_layer_lists(self, walk):
        # ``layer`` reads links[node][layer]: HNSW's per-node layout.
        points, lists, query, entry, width = walk
        distance = distance_over(points)
        layered = [[[], neighbors] for neighbors in lists]
        assert beam_search_lists(
            distance, query, layered, entry, width, layer=1
        ) == beam_search_lists(distance, query, lists, entry, width)

    @given(walk=walks())
    @settings(max_examples=300, deadline=None)
    def test_wide_beam_returns_every_reachable_node_once(self, walk):
        # Every walk gathers a node at most once, so repeated edges,
        # self-loops, isolated nodes and unreachable components all
        # leave one beam entry and one mark per reachable node.
        points, lists, query, entry, _ = walk
        want = sorted(reachable(lists, entry))
        for width in (len(lists), len(lists) + 1):
            by_lists, _, by_csr, _ = both_walks(points, lists, query, entry, width)
            assert by_lists == by_csr
            beam, settled, marked = by_lists
            assert sorted(node for _, node in beam) == want
            assert marked == len(want)
            expanded = [node for _, node in settled]
            assert len(expanded) == len(set(expanded)) and set(expanded) <= set(want)
        # A beam that can never fill never stops early: everything is expanded.
        assert sorted(expanded) == want


class TestFilteredTopK:
    def test_all_false_bitset_stops_at_ntotal_with_nothing(self):
        ids = np.arange(100, dtype=np.int64)
        widths = []

        def search(width):
            widths.append(width)
            return [(float(node), node) for node in range(width)], width

        result = filtered_top_k(search, 5, 8, ids, np.zeros(100, dtype=bool), "l2")
        assert widths == [8, 16, 32, 64, 100]
        assert len(result) == 0 and result.visited == 100

    def test_no_bitset_searches_once(self):
        ids = np.arange(100, dtype=np.int64) + 1000
        widths = []

        def search(width):
            widths.append(width)
            return [(float(node * node), node) for node in range(width)], 7

        result = filtered_top_k(search, 3, 8, ids, None, "l2")
        assert widths == [8]
        assert result.ids.tolist() == [1000, 1001, 1002]
        assert result.distances.tolist() == [0.0, 1.0, 2.0]  # sqrt at the boundary
        assert result.visited == 7

    def test_widens_until_k_survive(self):
        ids = np.arange(100, dtype=np.int64)
        bitset = np.zeros(100, dtype=bool)
        bitset[30:] = True
        widths = []

        def search(width):
            widths.append(width)
            return [(float(node), node) for node in range(width)], width

        result = filtered_top_k(search, 3, 8, ids, bitset, "ip")
        assert widths == [8, 16, 32, 64]
        assert result.ids.tolist() == [30, 31, 32]

    @pytest.mark.parametrize("name", ["HNSW", "HNSWSQ", "DISKANN"])
    def test_indexes_return_empty_under_all_false_bitset(self, built, data, name):
        index, bitset = built[name], np.zeros(data.shape[0], dtype=bool)
        for result in (
            index.search_with_filter(data[0], 5, bitset=bitset),
            reference_search(index, data[0], 5, bitset=bitset),
        ):
            assert len(result) == 0 and result.visited > 0


@pytest.mark.parametrize("name", ["HNSW", "HNSWSQ", "DISKANN"])
class TestModesAgreeOnCost:
    """What the simulated clock is charged from is what the list walk
    counts: ``visited`` (also when a sparse bitset re-runs the walk with
    a wider beam) and every simulated node read."""

    def test_visited_under_bitsets(self, built, data, name):
        sparse = np.zeros(data.shape[0], dtype=bool)
        sparse[::37] = True  # 9 rows: k=5 needs the beam doubled
        dense = np.ones(data.shape[0], dtype=bool)
        dense[::3] = False
        for bitset in (None, dense, sparse):
            for query in data[:6] + 0.05:
                fast = built[name].search_with_filter(query, 5, bitset=bitset)
                ref = reference_search(built[name], query, 5, bitset=bitset)
                assert fast.visited == ref.visited > 0
                assert fast.ids.tolist() == ref.ids.tolist()

    def test_iterator_visited(self, built, data, name):
        fast = built[name].search_iterator(data[1] + 0.05, batch_size=8)
        ref = reference_iterator(built[name], data[1] + 0.05, batch_size=8)
        for fast, ref in [(fast.next_batch(), ref.next_batch()) for _ in range(3)]:
            assert fast.visited == ref.visited > 0
            assert fast.ids.tolist() == ref.ids.tolist()

    def test_charged_reads(self, built, data, name):
        index = built[name]
        sparse = np.zeros(data.shape[0], dtype=bool)
        sparse[::37] = True
        charged, read = [], []
        index.set_io_charger(charged.append)
        try:
            for bitset in (None, sparse):
                index.search_with_filter(data[2] + 0.05, 5, bitset=bitset)
                if name == "DISKANN":  # the list walk's reads, by node count
                    reference_search(index, data[2] + 0.05, 5, bitset=bitset, on_read=read.append)
        finally:
            index.set_io_charger(None)
        if name == "DISKANN":
            # The same reads in the same order, not just the same total.
            node_bytes = index.dim * 4 + index.r * 8
            assert charged == [count * node_bytes for count in read]
            assert charged[0] == node_bytes  # the medoid, first
        else:
            assert charged == []  # memory-resident: nothing to charge


# ----------------------------------------------------------------------
# The per-query distance table (DESIGN.md §9, "One graph walk")
# ----------------------------------------------------------------------
def stored(rows, form):
    """``rows`` as a built index holds them (owned), as a frozen one does
    (read-only), or as a loaded one does: a read-only view at an odd
    byte offset into a ``bytes`` image."""
    if form == "owned":
        return rows.copy()
    if form == "readonly":
        out = rows.copy()
        out.setflags(write=False)
        return out
    image = b"\x00" * form + rows.tobytes()
    return np.frombuffer(image, dtype=rows.dtype, count=rows.size, offset=form).reshape(rows.shape)


def unbuilt(name, rows, form):
    """An index holding ``rows`` with no graph: enough for the distance
    arithmetic, at 600 rows a hypothesis example can afford."""
    n, dim = rows.shape
    index = create_index(IndexSpec(index_type=name, dim=dim))
    index._ids = np.arange(n, dtype=np.int64)
    if name == "HNSWSQ":
        index.train(rows)
        index._codes = stored(index._encode(rows), form)
        index._vmin = stored(index._vmin, form)
        index._vscale = stored(index._vscale, form)
    else:
        index._vectors = stored(rows, form)
    return index


class TestDistanceTableBits:
    """What the table rests on: scoring the whole store at once gives
    every node the bits the per-hop gather gives it."""

    @pytest.mark.parametrize("name", ["HNSW", "HNSWSQ"])
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 600),
        dim=st.integers(1, 200),
        form=st.sampled_from(["owned", "readonly", 1, 3, 5, 7]),
        scale=st.sampled_from([1e-3, 1.0, 1e3]),
    )
    @settings(max_examples=60, deadline=None)
    def test_table_equals_gathered_distance(self, name, seed, n, dim, form, scale):
        rng = np.random.default_rng(seed)
        rows = (rng.normal(size=(n, dim)) * scale).astype(np.float32)
        rows[rng.integers(0, n)] = rows[0]  # a duplicate row
        rows[rng.integers(0, n)] = 0.0      # a zero row
        index = unbuilt(name, rows, form)
        query = (rng.normal(size=dim) * scale).astype(np.float32)
        with pytest.MonkeyPatch.context() as patch:  # whatever the size rule says
            patch.setattr(hnsw, "_TABLE_MAX_FLOATS", float("inf"))
            table = index._distance_table(query)
        assert isinstance(table, list) and len(table) == n
        for size in (1, min(n, 16), n):
            nodes = rng.permutation(n)[:size]
            assert [table[node] for node in nodes] == index._distance(query, nodes).tolist()


class TestDistanceSymmetry:
    """``d(a, b)`` scored from ``a`` has the bits of ``d(b, a)`` scored
    from ``b``: what a carried back-link distance rests on (DESIGN §9)."""

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("name", ["HNSW", "HNSWSQ"])
    @given(
        seed=st.integers(0, 2**32 - 1),
        dim=st.integers(1, 200),
        scale=st.sampled_from([1e-3, 1.0, 1e3, 1e20]),
        special=st.sampled_from([0.0, np.inf, -np.inf, np.nan]),
    )
    @settings(max_examples=60, deadline=None)
    def test_distance_is_symmetric_to_the_bit(self, name, seed, dim, scale, special):
        rng = np.random.default_rng(seed)
        rows = (rng.normal(size=(8, dim)) * scale).astype(np.float32)
        rows[1], rows[2, 0] = rows[0], special  # a duplicate row; a zero or non-finite
        index = unbuilt(name, rows, "owned")
        stored = index._gather_rows(slice(None))
        for a, b in zip(*np.triu_indices(8)):
            assert index._distance(stored[a], [b]).tobytes() == index._distance(stored[b], [a]).tobytes()


@pytest.fixture(scope="module")
def across_the_rule(built):
    """An HNSW on each side of the size rule (the small one also as SQ)."""
    rng = np.random.default_rng(5)
    wide = rng.normal(size=(700, 192)).astype(np.float32)
    assert wide.size > hnsw._TABLE_MAX_FLOATS
    big = create_index(IndexSpec(index_type="HNSW", dim=192, params={"m": 6}))
    big.add_with_ids(wide, np.arange(700))
    return {"small": built["HNSW"], "small-sq": built["HNSWSQ"], "big": big}


def table_spy(monkeypatch):
    """Record what every ``_distance_table`` call returns."""
    returned = []
    real = hnsw.HNSWIndex._distance_table

    def spy(self, query):
        returned.append(real(self, query))
        return returned[-1]

    monkeypatch.setattr(hnsw.HNSWIndex, "_distance_table", spy)
    return returned


def everything(index, query, search=None, iterate=None):
    """Every search shape that can take a table, as comparable bytes:
    through ``index``'s own search and iterator unless others are given."""
    search = search or type(index).search_with_filter
    iterate = iterate or type(index).search_iterator
    n = index.ntotal
    half = np.arange(n) % 2 == 0
    tenth = np.arange(n) % 10 == 3
    out = []
    for bitset in (None, half, tenth, np.zeros(n, dtype=bool)):
        result = search(index, query, 5, bitset=bitset, ef_search=8)
        out.append((result.ids.tobytes(), result.distances.tobytes(), result.visited))
    for bitset in (None, tenth):
        for batch in iterate(index, query, bitset=bitset, batch_size=32):
            out.append((batch.ids.tobytes(), batch.distances.tobytes(), batch.visited))
    return out


class TestTableChangesNothing:
    @pytest.mark.parametrize("which", ["small", "small-sq", "big"])
    def test_same_bytes_with_and_without(self, monkeypatch, across_the_rule, which):
        index = across_the_rule[which]
        query = index._gather_rows(np.array([3]))[0] + np.float32(0.05)
        want = everything(index, query, reference_search, reference_iterator)
        assert all(ids for ids, _, _ in want[:3]) and not want[3][0]  # all-false: nothing
        tables = table_spy(monkeypatch)
        assert everything(index, query) == want  # the rule as committed
        assert all((table is None) == (which == "big") for table in tables)
        for limit, built_one in ((float("inf"), True), (-1, False)):
            del tables[:]
            monkeypatch.setattr(hnsw, "_TABLE_MAX_FLOATS", limit)
            assert everything(index, query) == want
            assert tables and all((table is not None) == built_one for table in tables)

    def test_one_table_per_call_and_no_numpy_per_hop(self, monkeypatch, built, data):
        index = built["HNSW"]
        sparse = np.zeros(data.shape[0], dtype=bool)
        sparse[::37] = True
        tables = table_spy(monkeypatch)
        hops = []
        real = hnsw.HNSWIndex._distance
        monkeypatch.setattr(
            hnsw.HNSWIndex, "_distance", lambda self, q, nodes: hops.append(1) or real(self, q, nodes)
        )
        widths = []
        real_walk = hnsw.beam_search_csr

        def walk(*args, **kwargs):
            widths.append(args[5])
            return real_walk(*args, **kwargs)

        monkeypatch.setattr(hnsw, "beam_search_csr", walk)
        index.search_with_filter(data[2] + 0.05, 5, bitset=sparse, ef_search=8)
        assert len(widths) > 2 and widths == sorted(widths)  # the beam was widened
        assert len(tables) == 1 and hops == []
        iterator = index.search_iterator(data[2] + 0.05, bitset=sparse, batch_size=8)
        assert sum(len(batch) for batch in iterator) == int(sparse.sum())
        assert len(tables) == 2 and hops == []

    @pytest.mark.parametrize("metric", ["ip", "cosine"])
    def test_ip_and_cosine_get_no_table(self, monkeypatch, data, metric):
        index = create_index(IndexSpec(index_type="HNSW", dim=12, metric=metric))
        index.add_with_ids(data[:120], np.arange(120))
        tables = table_spy(monkeypatch)
        index.search_with_filter(data[0], 5)
        index.search_iterator(data[0], batch_size=8).next_batch()
        assert tables == [None, None]

    def test_diskann_passes_no_table(self, monkeypatch, built, data):
        from repro.vindex import diskann

        passed = []
        real = diskann.beam_search_csr

        def walk(*args, **kwargs):
            passed.append((len(args), kwargs))
            return real(*args, **kwargs)

        monkeypatch.setattr(diskann, "beam_search_csr", walk)
        assert not hasattr(built["DISKANN"], "_distance_table")
        built["DISKANN"].search_with_filter(data[0], 5)
        assert passed and all(count <= 7 and "table" not in kwargs for count, kwargs in passed)


class TestCsrWalkWithTable:
    @given(walk=walks())
    @settings(max_examples=300, deadline=None)
    def test_table_walk_is_the_same_walk(self, walk):
        points, lists, query, entry, width = walk
        distance = distance_over(points)
        table = distance(query, np.arange(len(lists))).tolist()
        csr = freeze_adjacency(lists)
        reads_plain, reads_table = [], []
        plain = beam_search_csr(distance, query, *csr, entry, width, reads_plain.append)
        tabled = beam_search_csr(
            None, None, *csr, entry, width, on_read=reads_table.append, table=table
        )
        reads_kept = []
        kept = beam_search_csr(
            None, None, *csr, entry, width, on_read=reads_kept.append, table=table, lists=lists
        )
        assert plain == tabled == kept == beam_search_lists(distance, query, lists, entry, width)
        assert reads_plain == reads_table == reads_kept


# ----------------------------------------------------------------------
# The native iterator: its CSR loop against the list walk's one node a
# step, ``tests.helpers.ListWalkIterator`` (DESIGN.md §9, "One table,
# one loop")
# ----------------------------------------------------------------------
def drain(index, query, **params):
    """Every batch of the native iterator and of the list walk's, as
    comparable bytes, and whether the native one got a distance table."""
    native = index.search_iterator(query, **params)
    out = []
    for iterator in (native, reference_iterator(index, query, **params)):
        batches = []
        for _ in range(4096):  # a stream that never ends fails, not hangs
            if iterator.exhausted:
                break
            batch = iterator.next_batch()
            batches.append((batch.ids.tobytes(), batch.distances.tobytes(), batch.visited))
        assert iterator.exhausted
        out.append(batches)
    return out[0], out[1], native._table is not None


def hand_made(points, lists, entry, kept=False):
    """An HNSW whose layer 0 is ``lists`` verbatim — repeated edges,
    self-loops, isolated nodes — with no upper layer; ``kept``: frozen
    with the lists kept, as a build freezes."""
    n = len(lists)
    index = create_index(IndexSpec(index_type="HNSW", dim=points.shape[1]))
    index._vectors = points
    index._ids = np.arange(n, dtype=np.int64)
    index._links = None
    index._frozen = hnsw._FrozenLinks(
        *freeze_adjacency(lists), np.zeros(n + 1, dtype=np.uint32), lists if kept else None
    )
    index._entry_point, index._max_level = entry, 0
    return index


@pytest.fixture(scope="module")
def by_metric(data):
    """HNSW and HNSWSQ over 200 rows under each metric, as built and as
    loaded from an image (read-only views, narrow neighbour ids)."""
    out = {}
    for name in ("HNSW", "HNSWSQ"):
        for metric in ("l2", "ip", "cosine"):
            index = create_index(
                IndexSpec(index_type=name, dim=12, metric=metric, params={"m": 6})
            )
            index.add_with_ids(data[:200], np.arange(200))
            out[name, metric, "built"] = index
            out[name, metric, "loaded"] = deserialize_index(serialize_index(index))
    return out


class TestFastIteratorIsTheReference:
    """The native iterator streams what the list walk, one node a step,
    streams: batch for batch, ``visited`` included."""

    @pytest.mark.parametrize("form", ["built", "loaded"])
    @pytest.mark.parametrize("metric", ["l2", "ip", "cosine"])
    @pytest.mark.parametrize("name", ["HNSW", "HNSWSQ"])
    def test_batch_for_batch_until_exhausted(
        self, monkeypatch, by_metric, data, name, metric, form
    ):
        index = by_metric[name, metric, form]
        assert index._frozen.indices.flags.writeable == (form == "built")
        assert (index._frozen.layer0 is not None) == (form == "built")
        n = index.ntotal
        dense = np.arange(n) % 3 != 0
        sparse = np.arange(n) % 10 == 3
        query = data[7] + np.float32(0.05)
        # l2 walks on a table under the rule and on the gather above it.
        for limit in (hnsw._TABLE_MAX_FLOATS, -1) if metric == "l2" else (hnsw._TABLE_MAX_FLOATS,):
            monkeypatch.setattr(hnsw, "_TABLE_MAX_FLOATS", limit)
            for bitset in (None, dense, sparse):
                for batch_size in (1, 16, 64):
                    params = {"bitset": bitset, "batch_size": batch_size}
                    fast, ref, tabled = drain(index, query, **params)
                    assert tabled == (metric == "l2" and limit > 0)
                    assert fast == ref
                    emitted = np.concatenate([np.frombuffer(ids, np.int64) for ids, _, _ in fast])
                    assert np.unique(emitted).size == emitted.size > 0

    @given(
        walk=walks(),
        allowed=st.lists(st.booleans(), min_size=12, max_size=12),
        ef=st.integers(1, 8),
        tabled=st.booleans(),
        form=st.sampled_from(["csr", "kept", "loaded"]),
    )
    @settings(max_examples=300, deadline=None)
    def test_on_any_adjacency(self, walk, allowed, ef, tabled, form):
        # Ties and zero distances everywhere, and repeated edges: the
        # fast loop marks a neighbour as it gathers it, as the list form
        # does, over the CSR and over kept lists alike.
        points, lists, query, entry, batch_size = walk
        index = hand_made(points, lists, entry, kept=form == "kept")
        if form == "loaded":
            index = deserialize_index(serialize_index(index))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(hnsw, "_TABLE_MAX_FLOATS", float("inf") if tabled else -1)
            for bitset in (None, np.array(allowed[: len(lists)])):
                params = {"bitset": bitset, "batch_size": batch_size, "ef_search": ef}
                fast, ref, got_table = drain(index, query, **params)
                assert got_table == tabled
                assert fast == ref


class TestKeptLayer0:
    """A built graph walks the layer-0 lists its freeze kept, a loaded
    one its CSR (DESIGN.md §9, "Built graphs walk their own lists"); an
    add drops the kept lists with the CSR and thaws from the CSR."""

    @pytest.mark.parametrize("name", ["HNSW", "HNSWSQ"])
    def test_built_keeps_its_lists_and_loaded_walks_the_csr(self, by_metric, data, name):
        built, loaded = by_metric[name, "l2", "built"], by_metric[name, "l2", "loaded"]
        frozen = built._frozen_links()
        n = built.ntotal
        assert frozen.layer0 == thaw_adjacency(frozen.offsets, frozen.indices)[:n]
        assert loaded._frozen_links().layer0 is None
        query = data[7] + np.float32(0.05)
        assert everything(built, query) == everything(loaded, query)

    @pytest.mark.parametrize("name", ["HNSW", "HNSWSQ"])
    def test_extended_index_walks_its_new_graph(self, data, name):
        spec = IndexSpec(index_type=name, dim=12, params={"m": 6})
        first, rows = 150, data[:300]
        extended, before = create_index(spec), create_index(spec)
        for index in (extended, before):
            index.add_with_ids(rows[:first], np.arange(first))
        query = data[11] + np.float32(0.05)
        extended.search_with_filter(query, 5)  # freezes, keeping layer 0
        opened = extended.search_iterator(query, batch_size=16)
        first_batch = opened.next_batch()
        extended.add_with_ids(rows[first:], np.arange(first, len(rows)))
        fresh = create_index(spec)
        if name == "HNSWSQ":
            fresh.train(rows[:first])  # the range the first add learned
        fresh.add_with_ids(rows, np.arange(len(rows)))
        assert extended._frozen is None
        for probe in (query, data[200], data[40] - np.float32(0.1)):
            assert everything(extended, probe) == everything(fresh, probe)
        # The iterator opened before the add streams the graph it was
        # opened on: the add thawed the CSR, not the lists it walks.
        reference = before.search_iterator(query, batch_size=16)
        streams = []
        for iterator, head in ((opened, first_batch), (reference, None)):
            batches = [head or iterator.next_batch()]
            while not iterator.exhausted:
                batches.append(iterator.next_batch())
            streams.append([(b.ids.tobytes(), b.distances.tobytes(), b.visited) for b in batches])
        assert streams[0] == streams[1]


# ----------------------------------------------------------------------
# The build (DESIGN.md §9, "Build from the table"): under the size rule
# each layer's candidates are the exact nearest earlier rows on it, and
# Algorithm 4 reads subtract-form distances; above it the list walk
# (with DiskANN's optional table) finds them and Algorithm 4 reads the
# norms-form candidate matrix.
# ----------------------------------------------------------------------
class TestListWalkWithTable:
    @given(walk=walks(), layered=st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_table_walk_is_the_same_walk(self, walk, layered):
        points, lists, query, entry, width = walk
        distance = distance_over(points)
        table = distance(query, np.arange(len(lists))).tolist()
        links, layer = ([[[], neighbors] for neighbors in lists], 1) if layered else (lists, None)
        reads_plain, reads_table = [], []
        plain = beam_search_lists(
            distance, query, links, entry, width, layer, on_read=reads_plain.append
        )
        tabled = beam_search_lists(
            None, None, links, entry, width, layer, on_read=reads_table.append, table=table
        )
        assert plain == tabled  # beam, settled and marked count
        assert reads_plain == reads_table


def algorithm4(rows, candidates, m, metric):
    """Algorithm 4 in numpy: the whole candidate-to-candidate matrix at
    once, then ``np.minimum`` per selected row.  l2 and ip are summed in
    float64 (exact on the integer grid below, whatever the order); cosine
    is the canonical ``pairwise_distance`` row by row."""
    if len(candidates) <= m:
        return candidates
    nodes = [idx for _, idx in candidates]
    wide = rows[nodes].astype(np.float64)
    if metric == "l2":
        pairwise = ((wide[:, None, :] - wide[None, :, :]) ** 2).sum(axis=-1)
    elif metric == "ip":
        pairwise = -(wide @ wide.T)
    else:
        pairwise = np.stack([pairwise_distance(row, rows[nodes], metric) for row in rows[nodes]])
    min_to_selected = np.full(len(candidates), np.inf)
    chosen, selected = set(), []
    for row, (dist, node) in enumerate(candidates):
        if len(selected) >= m:
            break
        if dist <= min_to_selected[row]:
            chosen.add(row)
            selected.append((dist, node))
            np.minimum(min_to_selected, pairwise[row], out=min_to_selected)
    for row, pair in enumerate(candidates):
        if len(selected) >= m:
            break
        if row not in chosen:
            selected.append(pair)
    return selected


def all_pairs_l2(rows):
    """``d(i, j)`` for every pair, one subtract-form row per ``i``."""
    return np.stack([np.einsum("ij,ij->i", rows - row, rows - row) for row in rows])


class TestSelectHeuristic:
    @pytest.mark.parametrize("metric", ["l2", "ip", "cosine"])
    @given(seed=st.integers(0, 2**32 - 1), count=st.integers(1, 40), m=st.integers(1, 12))
    @settings(max_examples=60, deadline=None)
    def test_same_selection_from_ascending_candidates(self, metric, seed, count, m):
        rng = np.random.default_rng(seed)
        # A coarse grid: tied distances and duplicate rows are common,
        # so dominance ties (``<=``) and the fill order are exercised.
        rows = rng.integers(-2, 3, size=(60, 3)).astype(np.float32)
        index = create_index(IndexSpec(index_type="HNSW", dim=3, metric=metric))
        index._vectors = rows
        query = rng.integers(-2, 3, size=3).astype(np.float32)
        nodes = rng.permutation(60)[:count]
        candidates = sorted(zip(index._distance(query, nodes).tolist(), nodes.tolist()))
        got = algorithm4(rows, candidates, m, metric)
        assert index._select_heuristic(candidates, m) == got  # gathered
        # A walked row's norms-form matrix: exact on the grid.
        assert index._select_heuristic(candidates, m, walked=True) == got
        assert len(got) == min(m, count) and len(set(got)) == len(got)
        if metric == "l2":  # the same choice read from kept tables
            start = int(rng.integers(0, 60))
            kept = hnsw._Kept(start, all_pairs_l2(rows)[start:])
            assert index._select_heuristic(candidates, m, kept) == got


# Squared distances: +0, a subnormal, the largest finite float, +inf,
# and NaN with either sign bit (``inf - inf`` gives the negative one).
SORT_VALUES = np.concatenate([
    np.array([0.0, 1e-45, 1.0, 2.0, 2.5, np.finfo(np.float32).max, np.inf], dtype=np.float32),
    np.array([0x7FC00000, 0xFFC00000], dtype=np.uint32).view(np.float32),
])


class TestLayer0Sort:
    """``_Kept.layer0`` sorts a block of rows at once; each row's
    candidates must be ``_nearest`` of its own scores, bit for bit."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        start=st.integers(0, 40),
        rows=st.integers(1, 60),
        ef=st.integers(1, 50),
        bound=st.sampled_from([0, 2000, 20000, hnsw._KEPT_MAX_FLOATS]),
        discrete=st.booleans(),
    )
    @settings(max_examples=80, deadline=None)
    def test_each_row_gets_its_nearest(self, seed, start, rows, ef, bound, discrete):
        rng = np.random.default_rng(seed)
        # Few distinct values: ties at the ``ef``-th value, NaN, +inf
        # and zeros in most rows.  Otherwise mostly distinct scores with
        # the same specials sprinkled in.
        table = rng.choice(SORT_VALUES, size=(rows, start + rows))
        if not discrete:
            table = np.where(
                rng.random(table.shape) < 0.8, rng.random(table.shape), table
            ).astype(np.float32)
        with pytest.MonkeyPatch.context() as patch:  # the bound sets the block height
            patch.setattr(hnsw, "_KEPT_MAX_FLOATS", bound)
            got = list(hnsw._Kept(start, table).layer0(ef))
        assert len(got) == rows
        for row, candidates in enumerate(got):
            scores = table[row, : start + row]
            want = hnsw._nearest(scores, ef)
            assert [node for _, node in candidates] == want.tolist()
            dists = np.array([dist for dist, _ in candidates], dtype=np.float32)
            assert dists.tobytes() == scores[want].tobytes()


def candidate_spy(monkeypatch):
    """``(node, candidates)`` for every list an insert hands Algorithm 4
    (a shrink's re-selection is not recorded)."""
    handed, shrinking = [], []
    real_select = hnsw.HNSWIndex._select_heuristic
    real_shrink = hnsw.HNSWIndex._shrink_links

    def select(self, candidates, m, *rest):
        if not shrinking:
            handed.append((len(self._links) - 1, list(candidates)))
        return real_select(self, candidates, m, *rest)

    def shrink(self, *args):
        shrinking.append(1)
        try:
            return real_shrink(self, *args)
        finally:
            shrinking.pop()

    monkeypatch.setattr(hnsw.HNSWIndex, "_select_heuristic", select)
    monkeypatch.setattr(hnsw.HNSWIndex, "_shrink_links", shrink)
    return handed


def walk_spy(monkeypatch):
    """The node each build-time ``beam_search_lists`` call inserts."""
    walked = []
    real = hnsw.beam_search_lists

    def walk(distance, query, links, *rest, **kwargs):
        walked.append(len(links) - 1)
        return real(distance, query, links, *rest, **kwargs)

    monkeypatch.setattr(hnsw, "beam_search_lists", walk)
    return walked


def distance_spy(monkeypatch):
    """The query row bytes of every ``_distance`` call (each a gather)."""
    queries = []
    real = hnsw.HNSWIndex._distance
    monkeypatch.setattr(
        hnsw.HNSWIndex, "_distance",
        lambda self, query, nodes: queries.append(query.tobytes()) or real(self, query, nodes),
    )
    return queries


def gathering_spy(monkeypatch):
    """The node being inserted at every ``_distance`` call."""
    inserting = []
    real = hnsw.HNSWIndex._distance
    monkeypatch.setattr(
        hnsw.HNSWIndex, "_distance",
        lambda self, query, nodes: inserting.append(len(self._links) - 1)
        or real(self, query, nodes),
    )
    return inserting


def gemm_spy(monkeypatch):
    """The candidate count of every ``candidate_pairwise`` call."""
    calls = []
    real = hnsw.candidate_pairwise
    monkeypatch.setattr(
        hnsw, "candidate_pairwise", lambda rows, metric: calls.append(len(rows)) or real(rows, metric)
    )
    return calls


def brute_force_candidates(index, node):
    """Each layer's ``ef_construction`` nearest rows before ``node`` that
    reach the layer, by (distance, node), top layer first: every earlier
    row scored in numpy, then sorted in python."""
    levels = [len(lists) - 1 for lists in index._thawed_links()]
    rows = index._gather_rows(np.arange(node))
    query = index._gather_rows(np.array([node]))[0]
    if index.metric == "l2":
        dists = np.einsum("ij,ij->i", rows - query, rows - query)
    else:
        dists = pairwise_distance(query, rows, index.metric)
    scored = list(zip(dists.tolist(), range(node)))
    top = min(levels[node], max(levels[:node]))
    return [
        sorted(pair for pair in scored if levels[pair[1]] >= layer)[: index.ef_construction]
        for layer in range(top, -1, -1)
    ]


BUILD_PARAMS = {"m": 6, "ef_construction": 32}


@pytest.mark.parametrize("metric", ["l2", "ip", "cosine"])
@pytest.mark.parametrize("name", ["HNSW", "HNSWSQ"])
class TestExactCandidates:
    @pytest.mark.parametrize("rows", ["gaussian", "grid"])
    def test_each_layer_gets_the_brute_force_nearest(self, monkeypatch, data, name, metric, rows):
        if rows == "grid":  # duplicate rows and tied distances everywhere
            rng = np.random.default_rng(2)
            points = rng.integers(-2, 3, size=(260, 3)).astype(np.float32)
            assert len(np.unique(points, axis=0)) < 130
        else:
            points = data[:260]
        index = create_index(
            IndexSpec(index_type=name, dim=points.shape[1], metric=metric, params=BUILD_PARAMS)
        )
        handed = candidate_spy(monkeypatch)
        walked = walk_spy(monkeypatch)
        index.add_with_ids(points, np.arange(260))
        assert walked == []  # 260 x 12 is under the rule: no construction walk
        by_node = {}
        for node, candidates in handed:
            by_node.setdefault(node, []).append(candidates)
        assert sorted(by_node) == list(range(1, 260))
        for node, lists in by_node.items():
            assert lists == brute_force_candidates(index, node), node

    def test_above_the_rule_the_walk_finds_them(self, monkeypatch, data, name, metric):
        monkeypatch.setattr(hnsw, "_TABLE_MAX_FLOATS", 0)
        walked = walk_spy(monkeypatch)
        index = create_index(IndexSpec(index_type=name, dim=12, metric=metric, params=BUILD_PARAMS))
        index.add_with_ids(data[:100], np.arange(100))
        assert sorted(set(walked)) == list(range(1, 100))


# The size rule, scaled so a 260 x 12 build crosses it: rows up to 150
# take exact candidates, later ones walk.
STRADDLED = 150 * 12


def build_image(name, metric, rows, how, ranges=None):
    """The image of ``rows`` built one of three ways under the active
    kernel mode: one ``add_with_ids``; several; or some, a save and a
    load (lists thawed from the CSR, ``start > 0``), then the rest.
    HNSWSQ learns its range from ``ranges`` (default: ``rows``)."""
    n = rows.shape[0]
    index = create_index(
        IndexSpec(index_type=name, dim=rows.shape[1], metric=metric, params=BUILD_PARAMS)
    )
    if name == "HNSWSQ":
        index.train(rows if ranges is None else ranges)  # one range, however the rows arrive
    cuts = {"once": [n], "incremental": [1, 2, n // 3, n // 3 + 1, n], "reloaded": [n // 2, n]}[how]
    lo = 0
    for hi in cuts:
        if how == "reloaded" and lo:
            index = deserialize_index(serialize_index(index))
        index.add_with_ids(rows[lo:hi], np.arange(lo, hi))
        lo = hi
    return serialize_index(index)


def unkept(build, *args):
    """``build(*args)`` with ``_KEPT_MAX_FLOATS`` at 0: no row's scores
    are kept, so every layer-0 list comes from ``_nearest_on_layer`` and
    Algorithm 4 gathers — the reference build the kept tables must not
    change a byte of."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(hnsw, "_KEPT_MAX_FLOATS", 0)
        return build(*args)


@pytest.mark.parametrize("how", ["once", "incremental", "reloaded"])
@pytest.mark.parametrize("metric", ["l2", "ip", "cosine"])
@pytest.mark.parametrize("name", ["HNSW", "HNSWSQ"])
class TestBuildModesWriteOneImage:
    def test_fast_and_reference_images_are_equal(self, monkeypatch, data, name, metric, how):
        rows = data[:260]
        walked = walk_spy(monkeypatch)
        # All under the rule; across it; all above it.  The rule shapes
        # the graph, so it is patched for both builds.
        for limit in (hnsw._TABLE_MAX_FLOATS, STRADDLED, 0):
            monkeypatch.setattr(hnsw, "_TABLE_MAX_FLOATS", limit)
            want = unkept(build_image, name, metric, rows, how)
            assert build_image(name, metric, rows, how) == want
            # Both builds walk for exactly the rows above the rule.
            above = [node for node in range(1, 260) if node * 12 > limit]
            assert sorted(set(walked)) == above and len(walked) % 2 == 0
            del walked[:]


def non_finite(data):
    """260 rows with a NaN row, two rows sharing a +inf component (their
    distance is NaN), a -inf component and duplicate rows."""
    rows = data[:260].copy()
    rows[7] = np.nan
    rows[[30, 160], 2] = np.inf
    rows[90, 5] = -np.inf
    rows[[40, 41, 200]] = rows[3]
    return rows


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("how", ["once", "reloaded"])
@pytest.mark.parametrize("metric", ["l2", "ip", "cosine"])
@pytest.mark.parametrize("name", ["HNSW", "HNSWSQ"])
class TestNonFiniteRows:
    def test_fast_and_reference_images_are_equal(self, monkeypatch, data, name, metric, how):
        """NaN and infinite distances reach the candidate sort, Algorithm
        4 and the shrinks (an SQ range learnt from finite rows decodes
        them finite, so HNSWSQ sees the duplicates only)."""
        rows = non_finite(data)
        for limit in (hnsw._TABLE_MAX_FLOATS, STRADDLED, 0):
            monkeypatch.setattr(hnsw, "_TABLE_MAX_FLOATS", limit)
            want = unkept(build_image, name, metric, rows, how, data[:260])
            assert build_image(name, metric, rows, how, ranges=data[:260]) == want


@pytest.mark.parametrize("how", ["once", "incremental", "reloaded"])
@pytest.mark.parametrize("name", ["HNSW", "HNSWSQ"])
class TestKeptTablesBound:
    def test_fast_and_reference_images_are_equal(self, monkeypatch, data, name, how):
        """Rows under the rule but past ``_KEPT_MAX_FLOATS`` keep no
        scores and gather Algorithm 4's distances: the same image.  No
        row under the rule runs the candidate GEMM, and a fresh build
        gathers only while it inserts a row past the bound."""
        rows = data[:260]
        want = unkept(build_image, name, "l2", rows, how)
        inserting = gathering_spy(monkeypatch)
        gemms = gemm_spy(monkeypatch)
        committed = hnsw._KEPT_MAX_FLOATS
        # Every row kept; the first 100.
        for bound, kept in ((committed, 260), (100 * 100, 100)):
            monkeypatch.setattr(hnsw, "_KEPT_MAX_FLOATS", bound)
            del inserting[:]
            assert build_image(name, "l2", rows, how) == want
            assert gemms == []
            if how == "once":  # a row's first gather needs more than m candidates
                assert set(inserting) == set(range(max(kept, BUILD_PARAMS["m"] + 1), 260))
            else:  # rows of an earlier call gather
                assert inserting


def layer0_spy(monkeypatch):
    """The node of every layer-0 ``_nearest_on_layer`` call: a row the
    kept table's sort did not serve."""
    unsorted = []
    real = hnsw.HNSWIndex._nearest_on_layer

    def spy(self, scores, levels, node, layer):
        if layer == 0:
            unsorted.append(node)
        return real(self, scores, levels, node, layer)

    monkeypatch.setattr(hnsw.HNSWIndex, "_nearest_on_layer", spy)
    return unsorted


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestOneSortCandidates:
    @pytest.mark.parametrize("how", ["once", "reloaded", "past the bound"])
    def test_each_row_gets_its_nearest(self, monkeypatch, data, how):
        """Every layer-0 list a fast l2 build hands Algorithm 4 is
        ``_nearest`` of the row's own scores, bit for bit, over rows with
        NaN and infinite distances: for a fresh call, an extend after a
        load (``start > 0``), and a call whose later rows are past
        ``_KEPT_MAX_FLOATS`` (those alone take ``_nearest_on_layer``)."""
        rows = non_finite(data)
        lo = 130 if how == "reloaded" else 0
        if how == "past the bound":
            monkeypatch.setattr(hnsw, "_KEPT_MAX_FLOATS", 100 * 100)  # 100 rows kept
        index = create_index(IndexSpec(index_type="HNSW", dim=12, params=BUILD_PARAMS))
        if lo:
            index.add_with_ids(rows[:lo], np.arange(lo))
            index = deserialize_index(serialize_index(index))
        handed = candidate_spy(monkeypatch)
        unsorted = layer0_spy(monkeypatch)
        index.add_with_ids(rows[lo:], np.arange(lo, 260))
        layer0 = dict(handed)  # a row hands its layer-0 list last
        assert sorted(layer0) == list(range(max(lo, 1), 260))
        assert unsorted == (list(range(100, 260)) if how == "past the bound" else [])
        for node, candidates in layer0.items():
            scores = index._scores(index._vectors[node], node)
            want = hnsw._nearest(scores, index.ef_construction)
            assert [idx for _, idx in candidates] == want.tolist(), node
            dists = np.array([dist for dist, _ in candidates], dtype=np.float32)
            assert dists.tobytes() == scores[want].tobytes(), node


class TestBuildLooksDistancesUp:
    def test_no_numpy_distance_in_a_tabled_build(self, monkeypatch, data):
        """Under the rule a fast l2 build scores each row once and looks
        every other distance up — the shrink's in the carried lists,
        Algorithm 4's in the kept tables — so it never calls
        ``_distance`` or ``candidate_pairwise``; without kept tables,
        Algorithm 4 gathers."""
        gathered = distance_spy(monkeypatch)
        gemms = gemm_spy(monkeypatch)
        shrunk = []
        real_shrink = hnsw.HNSWIndex._shrink_links
        monkeypatch.setattr(
            hnsw.HNSWIndex, "_shrink_links",
            lambda self, node, layer, *rest: shrunk.append((node, layer))
            or real_shrink(self, node, layer, *rest),
        )
        index = create_index(IndexSpec(index_type="HNSW", dim=12, params=BUILD_PARAMS))
        index.add_with_ids(data[:200], np.arange(200))
        assert shrunk and gathered == [] and gemms == []
        with monkeypatch.context() as patch:
            patch.setattr(hnsw, "_KEPT_MAX_FLOATS", 0)
            index = create_index(IndexSpec(index_type="HNSW", dim=12, params=BUILD_PARAMS))
            index.add_with_ids(data[:200], np.arange(200))
        assert gathered and gemms == []

    def test_extend_after_a_load_gathers_only_for_earlier_rows(self, monkeypatch, data):
        index = create_index(IndexSpec(index_type="HNSW", dim=12, params=BUILD_PARAMS))
        index.add_with_ids(data[:200], np.arange(200))
        index = deserialize_index(serialize_index(index))
        gathered = distance_spy(monkeypatch)
        index.add_with_ids(data[200:260], np.arange(200, 260))
        # Every gather is from a row the load brought (a thawed list's
        # shrink scores, or an earlier row selected by Algorithm 4).
        earlier = {row.tobytes() for row in data[:200]}
        assert gathered and set(gathered) <= earlier

    def test_real_rule_boundary(self, monkeypatch):
        """No scaling: a 192-wide store crosses 2**17 floats at row 682.
        Only the rows that walk score Algorithm 4 with the norms-form
        GEMM, and no insert asks the query side's table rule."""
        rng = np.random.default_rng(5)
        wide = rng.normal(size=(700, 192)).astype(np.float32)
        index = create_index(IndexSpec(index_type="HNSW", dim=192, params=BUILD_PARAMS))
        walked = walk_spy(monkeypatch)
        gemms = []
        real_gemm = hnsw.candidate_pairwise
        monkeypatch.setattr(
            hnsw, "candidate_pairwise",
            lambda rows, metric: gemms.append(len(index._links) - 1) or real_gemm(rows, metric),
        )
        monkeypatch.setattr(hnsw, "table_granted", lambda *args: pytest.fail("asked for a table"))
        index.add_with_ids(wide, np.arange(700))
        above = list(range(hnsw._TABLE_MAX_FLOATS // 192 + 1, 700))
        assert sorted(set(walked)) == above
        assert gemms and set(gemms) <= set(above)
        monkeypatch.undo()
        twin = create_index(IndexSpec(index_type="HNSW", dim=192, params=BUILD_PARAMS))
        unkept(twin.add_with_ids, wide, np.arange(700))
        assert serialize_index(index) == serialize_index(twin)


def recall_and_visited(index, queries, truth, ef_search):
    found, visited = 0, 0
    for query, want in zip(queries, truth):
        result = index.search_with_filter(query, 10, ef_search=ef_search)
        found += len(set(result.ids.tolist()) & set(want.tolist()))
        visited += result.visited
    return found / truth.size, visited / len(queries)


class TestExactBuildRecall:
    @pytest.mark.parametrize("kind", ["clustered", "uniform"])
    def test_no_worse_than_the_walk(self, monkeypatch, kind):
        """A 2,000 x 64 segment (all under the rule) built from exact
        candidates against the same rows built by the walk.  On uniform
        rows at ``ef_search`` 10 the two differ by -0.5 to +0.8 points
        from seed to seed (500 queries), so the guard's 0.005 holds for
        every seed tried; at 32 the exact build is ahead on every one."""
        rng = np.random.default_rng(6)
        n, dim = 2000, 64
        centers = rng.normal(size=(16, dim)) if kind == "clustered" else None

        def draw(size):
            if centers is None:
                return rng.random((size, dim)).astype(np.float32)
            member = centers[rng.integers(0, 16, size)]
            return (member + 0.35 * rng.normal(size=(size, dim))).astype(np.float32)

        rows, queries = draw(n), draw(500)
        truth = np.stack(
            [np.argsort(np.einsum("ij,ij->i", rows - q, rows - q), kind="stable")[:10] for q in queries]
        )
        params = {"m": 8, "ef_construction": 64}
        exact = create_index(IndexSpec(index_type="HNSW", dim=dim, params=params))
        exact.add_with_ids(rows, np.arange(n))
        walked = create_index(IndexSpec(index_type="HNSW", dim=dim, params=params))
        with monkeypatch.context() as patch:
            patch.setattr(hnsw, "_TABLE_MAX_FLOATS", 0)
            walked.add_with_ids(rows, np.arange(n))
        for ef_search in (10, 16, 32):
            recall, visited = recall_and_visited(exact, queries, truth, ef_search)
            walk_recall, walk_visited = recall_and_visited(walked, queries, truth, ef_search)
            assert recall >= walk_recall - 0.005, ef_search
            assert abs(visited / walk_visited - 1) <= 0.02, ef_search


class TestVamanaPassWithTable:
    @pytest.mark.parametrize("metric", ["l2", "ip", "cosine"])
    def test_fast_and_reference_images_are_equal(self, monkeypatch, data, metric):
        from repro.vindex import diskann

        def build():
            params = {"r": 8, "build_beam": 16}
            index = create_index(
                IndexSpec(index_type="DISKANN", dim=12, metric=metric, params=params)
            )
            index.add_with_ids(data[:200], np.arange(200))
            return serialize_index(index)

        with monkeypatch.context() as patch:  # the pass without a table
            patch.setattr(hnsw, "_TABLE_MAX_FLOATS", -1)
            want = build()
        tables = []
        real = diskann.beam_search_lists

        def walk(*args, **kwargs):
            tables.append(kwargs.get("table"))
            return real(*args, **kwargs)

        monkeypatch.setattr(diskann, "beam_search_lists", walk)
        for limit, tabled in ((hnsw._TABLE_MAX_FLOATS, metric == "l2"), (200 * 12 - 1, False)):
            monkeypatch.setattr(hnsw, "_TABLE_MAX_FLOATS", limit)
            del tables[:]
            assert build() == want
            assert len(tables) == 200
            assert all((table is not None and len(table) == 200) == tabled for table in tables)
