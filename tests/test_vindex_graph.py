"""The graph family's one traversal: ``repro.vindex.graph``.

The list walk and the CSR walk are independent implementations of one
beam search, so they are held against each other here on adjacency the
index builders never produce — isolated nodes, self-loops, repeated
edges, disconnected components — over points chosen so that tied and
zero distances are the common case.  ``test_kernel_equivalence.py``
pins the two kernel modes on built indexes; the cost side it leaves
open (``visited`` under a bitset, DiskANN's charged reads) is pinned at
the bottom.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.vindex.api import kernel_mode
from repro.vindex.graph import beam_search_csr, beam_search_lists, filtered_top_k
from repro.vindex.image import freeze_adjacency
from repro.vindex.registry import IndexSpec, create_index


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
def walks(draw, repeats=True):
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
    if not repeats:
        lists = [list(dict.fromkeys(neighbors)) for neighbors in lists]
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
    by_csr = beam_search_csr(
        distance, query, *freeze_adjacency(lists), entry, width, on_read=reads_csr.append
    )
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

    @given(walk=walks(repeats=False))
    @settings(max_examples=300, deadline=None)
    def test_wide_beam_returns_every_reachable_node_once(self, walk):
        # Lists that name a neighbour once — the builders' guarantee;
        # a repeated edge is admitted once per repeat by both walks
        # (test_lists_and_csr_agree covers those).  Self-loops,
        # isolated nodes and unreachable components are all in play.
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
        for mode in ("fast", "reference"):
            with kernel_mode(mode):
                result = built[name].search_with_filter(
                    data[0], 5, bitset=np.zeros(data.shape[0], dtype=bool)
                )
            assert len(result) == 0 and result.visited > 0


@pytest.mark.parametrize("name", ["HNSW", "HNSWSQ", "DISKANN"])
class TestModesAgreeOnCost:
    """What the simulated clock is charged from must not depend on the
    kernel mode: ``visited`` (also when a sparse bitset re-runs the walk
    with a wider beam) and every simulated node read."""

    def test_visited_under_bitsets(self, built, data, name):
        sparse = np.zeros(data.shape[0], dtype=bool)
        sparse[::37] = True  # 9 rows: k=5 needs the beam doubled
        dense = np.ones(data.shape[0], dtype=bool)
        dense[::3] = False
        for bitset in (None, dense, sparse):
            for query in data[:6] + 0.05:
                with kernel_mode("fast"):
                    fast = built[name].search_with_filter(query, 5, bitset=bitset)
                with kernel_mode("reference"):
                    ref = built[name].search_with_filter(query, 5, bitset=bitset)
                assert fast.visited == ref.visited > 0
                assert fast.ids.tolist() == ref.ids.tolist()

    def test_iterator_visited(self, built, data, name):
        batches = {}
        for mode in ("fast", "reference"):
            with kernel_mode(mode):
                iterator = built[name].search_iterator(data[1] + 0.05, batch_size=8)
                batches[mode] = [iterator.next_batch() for _ in range(3)]
        for fast, ref in zip(batches["fast"], batches["reference"]):
            assert fast.visited == ref.visited > 0
            assert fast.ids.tolist() == ref.ids.tolist()

    def test_charged_reads(self, built, data, name):
        index = built[name]
        sparse = np.zeros(data.shape[0], dtype=bool)
        sparse[::37] = True
        charged = {}
        for mode in ("fast", "reference"):
            charged[mode] = []
            index.set_io_charger(charged[mode].append)
            try:
                with kernel_mode(mode):
                    for bitset in (None, sparse):
                        index.search_with_filter(data[2] + 0.05, 5, bitset=bitset)
            finally:
                index.set_io_charger(None)
        # The same reads in the same order, not just the same total.
        assert charged["fast"] == charged["reference"]
        if name == "DISKANN":
            node_bytes = index.dim * 4 + index.r * 8
            assert charged["fast"][0] == node_bytes  # the medoid, first
            assert all(nbytes % node_bytes == 0 for nbytes in charged["fast"])
        else:
            assert charged["fast"] == []  # memory-resident: nothing to charge
