"""Shared test helpers (importable: tests/ is a package)."""

import functools
import heapq
from types import SimpleNamespace
from unittest import mock

import numpy as np

from repro.vindex.api import SearchResult, boundary_distances
from repro.vindex.diskann import DEFAULT_SEARCH_BEAM
from repro.vindex.graph import beam_search_lists, filtered_top_k
from repro.vindex.hnsw import DEFAULT_EF_SEARCH
from repro.vindex.iterator import GenericRestartIterator, SearchIterator


def vector_sql(vector) -> str:
    """Render a numpy vector as a SQL vector literal."""
    return "[" + ",".join(f"{float(x):.6f}" for x in vector) + "]"


def walk_spans(span):
    """Every span of a trace tree, depth-first, parents before children."""
    yield span
    for child in span.children:
        yield from walk_spans(child)


def payload_ids(store):
    """Ids of the segments whose payloads the object store holds: column
    blocks and meta under ``segments/<id>/``, indexes under
    ``indexes/<id>/`` (an id is ``<table>/seg-<n>``).  Iterating the
    store charges nothing."""
    return {
        "/".join(key.split("/")[1:3])
        for key in store
        if key.startswith(("segments/", "indexes/"))
    }


def drop_and_recreate(engine, k=3, before_drop=None):
    """Fill, preload and query an 8-d HNSW table ``t`` on ``engine``,
    call ``before_drop()`` if given, drop the table, create it again
    with other vectors and ids, and run one top-``k`` query on the new
    table.

    The new table's segment ids continue past the dropped table's, so
    none of its segments or index keys is one of the dropped table's.
    Returns the query's ids, numpy's top-``k`` ids and the
    ``columnio.cache_hits`` the query counted.
    """
    ddl = (
        "CREATE TABLE t (id UInt64, embedding Array(Float32), "
        "INDEX ann embedding TYPE HNSW('DIM=8'))"
    )
    rng = np.random.default_rng(0)
    old, new = (rng.normal(size=(200, 8)).astype(np.float32) for _ in range(2))

    def knn(query):
        sql = (
            f"SELECT id, d FROM t ORDER BY L2Distance(embedding, "
            f"{vector_sql(query)}) AS d LIMIT {k}"
        )
        return engine.execute(sql).rows

    def fill(first_id, vectors):
        engine.execute(ddl)
        engine.table("t").writer.config.max_segment_rows = 50
        engine.insert_rows(
            "t", [{"id": first_id + i, "embedding": v} for i, v in enumerate(vectors)]
        )

    fill(0, old)
    engine.preload("t")
    knn(old[5])
    if before_drop is not None:
        before_drop()
    engine.execute("DROP TABLE t")
    fill(2000, new)
    hits = engine.metrics.count("columnio.cache_hits")
    rows = knn(new[5])
    hits = engine.metrics.count("columnio.cache_hits") - hits
    exact = (2000 + np.argsort(((new - new[5]) ** 2).sum(axis=1))[:k]).tolist()
    return [row[0] for row in rows], exact, hits


def run_plan_on_segments(plan, segments, bitmaps, ctx):
    """One plan over ``segments`` through the executor's two pieces —
    ``execute_segment`` per segment, then ``merge_and_project`` — with
    the time it charged to ``ctx.clock`` on the result."""
    from repro.executor.pipeline import PreparedScan, execute_segment, merge_and_project

    start = ctx.clock.now
    scan = PreparedScan.of(plan)
    partials = [
        execute_segment(scan, segment, bitmaps.get(segment.segment_id), ctx)
        for segment in segments
    ]
    result = merge_and_project(plan, partials, ctx, len(segments))
    result.simulated_seconds = ctx.clock.elapsed_since(start)
    return result


def parse_exposition(text):
    """Exposition text → ({series_with_labels: value}, {(name, type)}).

    Strict: a family typed twice or a sample line written twice is an
    assertion error, as it is to a Prometheus scraper.
    """
    values, types = {}, set()
    for line in text.splitlines():
        if not line:
            continue
        if line.startswith("# TYPE "):
            _, _, name, kind = line.split(" ")
            assert name not in {typed for typed, _ in types}, (
                f"family {name} typed twice"
            )
            types.add((name, kind))
            continue
        assert not line.startswith("#"), f"unexpected comment: {line}"
        series, value = line.rsplit(" ", 1)
        assert series not in values, f"sample {series} repeated"
        values[series] = float(value)
    return values, types


def reference_search(index, query, k, bitset=None, on_read=None, **params):
    """``index.search_with_filter`` through the kernels kept beside the
    query ones: the builders' list walk and descent over the thawed
    lists for the graphs (``on_read`` gets DiskANN's reads), a per-cell
    ``adc_table`` for IVFPQ, the batched scan for FLAT and IVFFLAT."""
    kind = index.index_type
    if kind.startswith("IVFPQ"):
        centroids = index._centroids
        tables = {cell: index._pq.adc_table(query - centroids[cell]) for cell in range(index.nlist)}
        with mock.patch.object(index, "_tables_for", lambda query, probe: tables):
            return index.search_with_filter(query, k, bitset=bitset, **params)
    if kind in ("FLAT", "IVFFLAT"):
        return index.search_batch(query[None], k, bitset=bitset, **params)[0]
    if kind == "DISKANN":
        def search(width):
            nearest, settled, _ = beam_search_lists(
                index._dist_internal, query, index._graph, index._medoid, width, on_read=on_read
            )
            pool = sorted(set(settled).union(nearest))  # a node has one distance
            return pool, len(pool)

        width = params.get("beam", DEFAULT_SEARCH_BEAM)
    else:
        links, entry = reference_entry(index, query)

        def search(width):
            beam, _, marked = beam_search_lists(index._distance, query, links, entry, width, 0)
            return beam, marked

        width = params.get("ef_search", DEFAULT_EF_SEARCH)
    return filtered_top_k(search, k, max(width, k), index._ids, bitset, index.metric)


def reference_entry(index, query):
    """An HNSW's thawed lists and the layer-0 entry the builders' greedy
    descent over them reaches from the entry point."""
    links, entry = index._thawed_links(), index._entry_point
    for layer in range(index._max_level, 0, -1):
        entry = index._greedy_closest(query, entry, layer)
    return links, entry


def reference_iterator(index, query, bitset=None, batch_size=64, **params):
    """``index.search_iterator`` through the references: HNSW's stream
    as :class:`ListWalkIterator`, the restart wrapper over
    :func:`reference_search` for the rest."""
    if index.index_type.startswith("HNSW"):
        ef = params.get("ef_search", DEFAULT_EF_SEARCH)
        return ListWalkIterator(index, query, bitset, batch_size, ef)
    reference = SimpleNamespace(
        ntotal=index.ntotal, search_with_filter=functools.partial(reference_search, index)
    )
    return GenericRestartIterator(reference, query, bitset, batch_size, **params)


class ListWalkIterator(SearchIterator):
    """The native HNSW iterator's stream, one node a step over the
    thawed lists and a ``set``: the reference its CSR loop is held to."""

    def __init__(self, index, query, bitset, batch_size, ef):
        self.index, self.query, self.want, self.slack = index, query, batch_size, max(ef, batch_size)
        self.allowed = None if bitset is None else bitset[index._ids]
        self.candidates, self.pool, self.visited_total = [], [], 0
        if index.ntotal and index._entry_point >= 0:
            self.links, entry = reference_entry(index, query)
            self.seen, self.visited_total = {entry}, 1
            self.candidates.append((float(index._distance(query, [entry])[0]), entry))

    @property
    def exhausted(self):
        return not self.candidates and not self.pool

    def _expand_one(self):
        nearest = heapq.heappop(self.candidates)
        if self.allowed is None or self.allowed[nearest[1]]:
            heapq.heappush(self.pool, nearest)
        fresh = []
        for neighbor in self.links[nearest[1]][0]:
            if neighbor not in self.seen:
                self.seen.add(neighbor)
                fresh.append(neighbor)
        self.visited_total += len(fresh)
        if fresh:
            for pair in zip(self.index._distance(self.query, fresh).tolist(), fresh):
                heapq.heappush(self.candidates, pair)

    def next_batch(self):
        pool, candidates = self.pool, self.candidates
        while candidates and len(pool) < self.want + self.slack:
            if len(pool) >= self.slack and candidates[0][0] > pool[0][0]:
                break  # the frontier cannot improve on what is held
            self._expand_one()
        out = [heapq.heappop(pool) for _ in range(min(self.want, len(pool)))]
        ids = self.index._ids[np.array([node for _, node in out], dtype=np.intp)]
        dists = np.array([dist for dist, _ in out], dtype=np.float32)
        return SearchResult(
            ids, boundary_distances(dists, self.index.metric), visited=self.visited_total
        )
