"""Kernel byte-identity as a small committed digest.

Runs the Fig 13 sweep of ``bench_fig13_index_recall_qps.py`` plus a
DISKANN sweep, an HNSW / HNSWSQ post-filter (Plan C) sweep, three
IVFFLAT sweeps (nprobe, bitset, Plan C), two FLAT sweeps (bitset, Plan
C) and three over a table with no vector index (kNN and Plans A, B and
C) through the full engine and
keeps, per (index, knob value), the simulated QPS, the recall, one
sha256 over every query's ids, and one sha256 per query over its ids +
``float.hex()`` distances; and, per sweep, one sha256 per segment image
its load built.  Two
kernels that build the same images, return the same rows and charge
the same simulated seconds produce the same file, so a build or
traversal change is checked against
``benchmarks/baselines/kernel_digests.json`` instead of a raw row dump:

    PYTHONPATH=src:. python benchmarks/capture_kernel_state.py capture
    ... apply kernel changes ...
    PYTHONPATH=src:. python benchmarks/capture_kernel_state.py check

Both run the sweep once.  ``capture`` rewrites the baseline (do it at
the parent commit of a kernel pass); ``check`` exits 1 on any image
byte, id, distance or simulated-QPS mismatch.
Distances come from float32 numpy kernels, so the baseline names the
numpy it was captured with: equal ids with differing distances on
another build means the float kernels differ, not the traversal.

``time`` claims nothing about bytes: it prints the wall-clock grids the
size rule (``repro.vindex.hnsw._TABLE_MAX_FLOATS``, DESIGN.md §9) was
chosen on — µs per HNSW search with the distance table forced on and
forced off; then where one ledger-sized build spends its time (scores,
candidate sort, insert selection, shrinks) and µs per inserted row with
exact candidates forced on and the construction walk forced on, and
which side the committed constant picks — ms per ``kmeans`` call at
the LSM's IVF training shapes, seeding and Lloyd apart, then at the two
largest ``ingest_mixed`` merges cold and warm-started, uncapped and
capped at the build's Lloyd rounds (DESIGN.md §9), and µs per
IVFFLAT search at ``ingest_mixed``'s segment shapes.  ``time search`` /
``time build`` / ``time kmeans`` / ``time ivf`` print one.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import time

if sys.argv[1:2] == ["time"]:
    # One BLAS thread, like the ledger, set before numpy loads; the
    # digest commands keep the host's default, which they were captured with.
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(_var, "1")

import numpy as np

from benchmarks.common import load_blendhouse
from repro.vindex import hnsw, kmeans
from repro.vindex.autoindex import select_ivf_nlist
from repro.vindex.registry import IndexSpec, create_index
from repro.workloads.datasets import make_cohere_like
from repro.workloads.recall import recall_at_k
from repro.workloads.vectorbench import make_hybrid_workload, qps_from_latencies

BASELINE = "benchmarks/baselines/kernel_digests.json"

# DISKANN has no SET depth knob, so its sweep is the filter's pass
# percentage under a forced bitmap scan: 100 is the pure search, the
# rest walk the graph under a bitset and widen the beam.  The ``post_pct``
# sweeps force Plan C at three pass percentages, so HNSW's native
# iterator is covered as well as its one-shot search.  IVFFLAT (the
# ledger's ingest index, ``nlist`` picked per segment by the auto-index
# rule) is swept by ``nprobe``, under a forced bitmap scan (its bitset
# path) and under a forced post-filter (the generic restart iterator).
# FLAT is swept as a bitmap scan and as Plan C, and a table declared with
# no vector index (``None``) by kNN and Plans A, B and C: the exact scans.
FORCED = {"pass_pct": "pre_filter", "post_pct": "post_filter", "brute_pct": "brute_force"}
SWEEPS = (
    ("BH-HNSW", "HNSW", "M=8, ef_construction=64", "ef_search", [16, 32, 64, 128]),
    ("BH-HNSWSQ", "HNSWSQ", "M=8, ef_construction=64", "ef_search", [16, 32, 64, 128]),
    ("BH-IVFPQFS", "IVFPQFS", "m=8", "nprobe", [2, 4, 8, 16]),
    ("BH-DISKANN", "DISKANN", "R=16, build_beam=32", "pass_pct", [100, 50, 25, 10]),
    ("BH-HNSW-C", "HNSW", "M=8, ef_construction=64", "post_pct", [50, 20, 5]),
    ("BH-HNSWSQ-C", "HNSWSQ", "M=8, ef_construction=64", "post_pct", [50, 20, 5]),
    ("BH-IVFFLAT", "IVFFLAT", "", "nprobe", [1, 2, 8, 32]),
    ("BH-IVFFLAT-B", "IVFFLAT", "", "pass_pct", [50, 20, 5]),
    ("BH-IVFFLAT-C", "IVFFLAT", "", "post_pct", [50, 20, 5]),
    ("BH-FLAT-B", "FLAT", "", "pass_pct", [100, 50, 20, 5]),
    ("BH-FLAT-C", "FLAT", "", "post_pct", [50, 20, 5]),
    ("BH-NONE", None, "", "pass_pct", [100, 20, 5]),
    ("BH-NONE-A", None, "", "brute_pct", [20, 5]),
    ("BH-NONE-C", None, "", "post_pct", [20, 5]),
)


def _sha256(parts: list) -> str:
    return hashlib.sha256(json.dumps(parts).encode()).hexdigest()


def segment_images(db) -> list:
    """One sha256 per index image the load wrote, by storage key."""
    table = db.table("bench")
    return [
        hashlib.sha256(table.store.get(key)).hexdigest()
        for key in sorted(table.writer.built_indexes)
    ]


def sweep() -> tuple:
    """Every sweep point, and every sweep's segment images."""
    dataset = make_cohere_like(n=3000, dim=32, n_queries=40)
    pure = make_hybrid_workload(dataset, k=10)
    out, images = {}, {}
    for label, index_type, options, knob, values in SWEEPS:
        db = load_blendhouse(dataset, index_type=index_type, index_options=options)
        db.execute(pure.sql(0))  # warmup: plan + column caches
        points = []
        for value in values:
            workload = pure
            if knob not in FORCED:
                db.execute(f"SET {knob} = {value}")
            elif value < 100:
                db.execute(f"SET forced_strategy = '{FORCED[knob]}'")
                workload = make_hybrid_workload(dataset, k=10, pass_fraction=value / 100)
            latencies = []
            rows_per_query = []
            for qi in range(len(workload.queries)):
                start = db.clock.now
                result = db.execute(workload.sql(qi))
                latencies.append(db.clock.now - start)
                rows_per_query.append(
                    [[int(row[0]), float(row[1]).hex()] for row in result.rows]
                )
            ids = [[row[0] for row in rows] for rows in rows_per_query]
            points.append(
                {
                    "knob": knob,
                    "value": value,
                    "qps": qps_from_latencies(latencies),
                    "recall": recall_at_k(ids, workload.truth, workload.k),
                    "ids": _sha256(ids),
                    "rows": [_sha256(rows) for rows in rows_per_query],
                }
            )
        out[label] = points
        images[label] = segment_images(db)  # after the points: a read moves the clock
    return out, images


def compare_images(baseline: dict, current: dict) -> int:
    """Print one line per sweep's images; returns the number of segment
    images whose bytes differ (or that one side lacks)."""
    mismatches = 0
    for label, digests in baseline.items():
        built = current[label]
        differ = sum(a != b for a, b in zip(digests, built)) + abs(len(digests) - len(built))
        mismatches += differ
        status = f"MISMATCH {differ} of {len(digests)}" if differ else "ok"
        print(f"{label:12s} images {len(built)} segments  [{status}]")
    print(f"image mismatches: {mismatches} segments")
    return mismatches


def compare(baseline: dict, current: dict) -> int:
    """Print one line per sweep point; returns the number of mismatches."""
    id_mismatches = dist_mismatches = qps_mismatches = 0
    for label, points in baseline.items():
        for point, other in zip(points, current[label]):
            qps = point["qps"]
            ids_differ = point["ids"] != other["ids"]
            rows_differ = sum(a != b for a, b in zip(point["rows"], other["rows"]))
            rows_differ += abs(len(point["rows"]) - len(other["rows"]))
            qps_differs = (qps, point["recall"]) != (other["qps"], other["recall"])
            id_mismatches += ids_differ
            dist_mismatches += 0 if ids_differ else rows_differ
            qps_mismatches += qps_differs
            status = "ok"
            if ids_differ or rows_differ or qps_differs:
                status = (
                    f"MISMATCH ids={'differ' if ids_differ else 'equal'} "
                    f"rows_differing={rows_differ}"
                )
            print(
                f"{label:12s} {point['knob']}={point['value']:<4d} "
                f"qps {qps:9.1f} -> {other['qps']:9.1f}  "
                f"recall {point['recall']:.4f} -> {other['recall']:.4f}  [{status}]"
            )
    print(
        f"id mismatches: {id_mismatches} points; distance mismatches: "
        f"{dist_mismatches} queries; simulated qps/recall mismatches: {qps_mismatches} points"
    )
    return id_mismatches + dist_mismatches + qps_mismatches


TIME_ROWS = (500, 2000, 4000, 16000)
TIME_DIMS = (64, 256, 768)


def time_table_grid() -> None:
    """µs per pure ``search_with_filter`` (k=10, default ef_search, the
    ledger's HNSW build parameters) with the distance table forced on
    and off: best of five passes over 40 queries, clustered data."""
    committed = hnsw._TABLE_MAX_FLOATS
    print("ntotal   dim  table-on us  table-off us   on/off  rule")
    try:
        for n in TIME_ROWS:
            for dim in TIME_DIMS:
                dataset = make_cohere_like(n=n, dim=dim, n_queries=40)
                index = create_index(
                    IndexSpec("HNSW", dim, params={"m": 8, "ef_construction": 64})
                )
                index.add_with_ids(dataset.vectors, np.arange(n))
                best = {}
                for label, limit in (("on", float("inf")), ("off", -1)):
                    hnsw._TABLE_MAX_FLOATS = limit
                    passes = []
                    for _ in range(5):
                        start = time.perf_counter()
                        for query in dataset.queries:
                            index.search_with_filter(query, 10)
                        passes.append(time.perf_counter() - start)
                    best[label] = min(passes) / len(dataset.queries) * 1e6
                rule = "on" if n * dim <= committed else "off"
                print(
                    f"{n:6d} {dim:5d} {best['on']:12.1f} {best['off']:13.1f} "
                    f"{best['on'] / best['off']:8.2f}  {rule}"
                )
    finally:
        hnsw._TABLE_MAX_FLOATS = committed


BUILD_ROWS = (250, 500, 1000, 2000, 4000, 8000, 16000)
BUILD_CHUNK = 50


def time_build_phases() -> None:
    """ms per phase of one fast l2 HNSW build at the ledger's segment
    shape (500 x 64 mixture rows, ``M=8, ef_construction=64``), best of
    five builds each.  ``scores`` fills the call's kept table and
    ``sort`` takes every row's layer-0 candidates from it, both timed
    on their own; ``select`` is Algorithm 4 for the inserted rows and
    ``shrink`` the back-link shrinks (their own Algorithm 4 included),
    both timed inside a build whose two methods are wrapped (``wrapped``
    is that build's time: the wrappers add ≈ 1 µs a call); ``rest`` is
    the wrapped build minus the four — level draws, upper-layer
    candidates, list bookkeeping."""
    rows = _mixture(500, 64)
    spec = IndexSpec("HNSW", 64, params={"m": 8, "ef_construction": 64})

    def build():
        index = create_index(spec)
        index.add_with_ids(rows, np.arange(len(rows)))
        return index

    total, index = _best_ms(build, 5)
    scores, kept = _best_ms(lambda: index._kept_tables(0, len(rows)), 5)
    sort, _ = _best_ms(lambda: list(kept.layer0(index.ef_construction)), 5)
    real_select = hnsw.HNSWIndex._select_heuristic
    real_shrink = hnsw.HNSWIndex._shrink_links
    spent = {"select": 0.0, "shrink": 0.0}
    shrinking = []

    def select(self, *args):
        if shrinking:
            return real_select(self, *args)
        start = time.perf_counter()
        try:
            return real_select(self, *args)
        finally:
            spent["select"] += time.perf_counter() - start

    def shrink(self, *args):
        shrinking.append(1)
        start = time.perf_counter()
        try:
            return real_shrink(self, *args)
        finally:
            spent["shrink"] += time.perf_counter() - start
            shrinking.pop()

    hnsw.HNSWIndex._select_heuristic, hnsw.HNSWIndex._shrink_links = select, shrink
    try:
        runs = []
        for _ in range(5):
            spent.update(select=0.0, shrink=0.0)
            wrapped, _ = _best_ms(build, 1)
            runs.append((wrapped, spent["select"] * 1e3, spent["shrink"] * 1e3))
    finally:
        hnsw.HNSWIndex._select_heuristic, hnsw.HNSWIndex._shrink_links = real_select, real_shrink
    wrapped, select_ms, shrink_ms = min(runs)
    rest = wrapped - scores - sort - select_ms - shrink_ms
    print("build 500 x 64  total ms  wrapped ms  scores ms  sort ms  select ms  shrink ms  rest ms")
    print(
        f"{'':15s} {total:8.1f} {wrapped:11.1f} {scores:10.1f} {sort:8.1f} {select_ms:10.1f} "
        f"{shrink_ms:10.1f} {rest:8.1f}"
    )


def time_build_grid() -> None:
    """µs per inserted row with exact candidates (the size rule forced
    on) against the construction walk (forced off), at store sizes
    around each of ``BUILD_ROWS``.

    The two sides build different graphs, but the cost of an insert
    depends on the store it joins, not on how that store's links were
    found, so one index per dim serves both: it grows under the
    committed rule to ``4 * BUILD_CHUNK`` rows short of each size, then
    takes four timed chunks — exact, walk, walk, exact, so neither side
    sees the larger store on average.  Each chunk pays one ``vstack`` of
    the row store, the same on both sides.

    An insert reads the limit in two places only: the size rule that
    picks its path, and the count of rows whose scores are kept (at most
    ``_KEPT_MAX_FLOATS``).  It never asks ``table_granted``, so each
    column times the code a row on that side of a moved rule would run:
    the walk with the candidate GEMM, or exact candidates whose
    dominance is looked up for the chunk's own rows and gathered for the
    rows before it.
    """
    committed = hnsw._TABLE_MAX_FLOATS
    limits = {"exact": float("inf"), "walk": -1}
    print("  stop   dim     exact us      walk us  exact/walk  rule")
    try:
        for dim in TIME_DIMS:
            rows = make_cohere_like(n=BUILD_ROWS[-1], dim=dim, n_queries=1).vectors
            index = create_index(IndexSpec("HNSW", dim, params={"m": 8, "ef_construction": 64}))

            def grow(stop: int) -> float:
                start = time.perf_counter()
                index.add_with_ids(rows[index.ntotal:stop], np.arange(index.ntotal, stop))
                return time.perf_counter() - start

            for n in BUILD_ROWS:
                grow(n - 4 * BUILD_CHUNK)
                spent = {"exact": 0.0, "walk": 0.0}
                for label in ("exact", "walk", "walk", "exact"):
                    hnsw._TABLE_MAX_FLOATS = limits[label]
                    spent[label] += grow(index.ntotal + BUILD_CHUNK)
                hnsw._TABLE_MAX_FLOATS = committed
                exact, walk = (spent[label] / (2 * BUILD_CHUNK) * 1e6 for label in limits)
                rule = "exact" if n * dim <= committed else "walk"
                print(f"{n:6d} {dim:5d} {exact:12.1f} {walk:12.1f} {exact / walk:11.2f}  {rule}")
    finally:
        hnsw._TABLE_MAX_FLOATS = committed


KMEANS_ROWS = (500, 2000, 8000, 16000)
KMEANS_DIMS = (64, 256)


def _mixture(n: int, dim: int) -> np.ndarray:
    """16 well-separated Gaussians, the shape of the ledger's ingest rows
    (``ledger/data.py``).  ``make_cohere_like`` normalises its mixture onto
    the unit sphere, where the clusters all but vanish."""
    rng = np.random.default_rng(0)
    centers = rng.normal(size=(16, dim))
    return (centers[rng.integers(0, 16, n)] + 0.35 * rng.normal(size=(n, dim))).astype(
        np.float32
    )


def _best_ms(call, repeats: int = 3):
    """Best wall-clock ms of ``repeats`` calls, and the last call's result."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        result = call()
        best = min(best, time.perf_counter() - start)
    return best * 1e3, result


def time_kmeans_grid() -> None:
    """ms per ``kmeans`` call at the shapes the LSM trains IVF segments
    on — ``k = select_ivf_nlist(rows)``, seed 0 as ``IVFFlatIndex.train``
    — on two kinds of data, best of three calls.  Seeding
    (``_kmeanspp_init``) is timed on its own; Lloyd is the call minus it."""
    data = {
        "mixture": _mixture,
        "cohere": lambda n, dim: make_cohere_like(n=n, dim=dim, n_queries=1).vectors,
    }
    print("data       rows   dim     k  seeding ms  lloyd ms  total ms  iterations")
    for name, make in data.items():
        for dim in KMEANS_DIMS:
            for n in KMEANS_ROWS:
                vectors = np.ascontiguousarray(make(n, dim), dtype=np.float32)
                k = select_ivf_nlist(n)
                seeding, _ = _best_ms(
                    lambda: kmeans._kmeanspp_init(vectors, k, np.random.default_rng(0))
                )
                total, fit = _best_ms(lambda: kmeans.kmeans(vectors, k, seed=0))
                print(
                    f"{name:8s} {n:6d} {dim:5d} {k:5d} {seeding:11.1f} "
                    f"{total - seeding:9.1f} {total:9.1f} {fit.iterations:11d}"
                )
    if hasattr(kmeans, "Seeds"):  # absent from a parent ``src`` put on the path
        time_merge_grid()


MERGE_ROWS = (1925, 6175)


def _merge_seeds(vectors: np.ndarray, inputs: int = 4) -> kmeans.Seeds:
    """The seeds a merge of ``inputs`` equal segments of ``vectors``
    offers: each input's build-trained centroids with its cell counts."""
    offered = []
    for part in np.array_split(vectors, inputs):
        fit = kmeans.kmeans(
            part, select_ivf_nlist(len(part)), max_iterations=kmeans.BUILD_ITERATIONS, seed=0
        )
        offered.append((fit.centroids, np.bincount(fit.assignments, minlength=len(fit.centroids))))
    return kmeans.Seeds(*map(np.concatenate, zip(*offered)))


def time_merge_grid() -> None:
    """ms per merge-time ``kmeans`` at ``ingest_mixed``'s two largest
    compaction shapes (mixture data, dim 64, four inputs), cold and warm,
    uncapped (the call's default 25 rounds) and capped at
    ``BUILD_ITERATIONS``; seeding is the k-means++ draw, or the top-up a
    warm start draws for the cells its seeds leave missing.  Inertia is
    relative to the cold uncapped fit; max/mean is the largest cell's
    population over the mean cell population (1.0 is perfectly even)."""
    print(
        "\n       rows   dim     k seeds  start  cap  seeding ms  lloyd ms"
        "  total ms  iterations  inertia  max/mean"
    )
    for n in MERGE_ROWS:
        vectors = _mixture(n, 64)
        k = select_ivf_nlist(n)
        seeds = _merge_seeds(vectors)
        init = seeds.best(k)
        reference = None
        for start, cap in (("cold", 25), ("warm", 25), ("cold", kmeans.BUILD_ITERATIONS),
                           ("warm", kmeans.BUILD_ITERATIONS)):
            given = init if start == "warm" else None
            seeding = 0.0
            if given is None or len(given) < k:
                seeding, _ = _best_ms(
                    lambda: kmeans._kmeanspp_init(vectors, k, np.random.default_rng(0), given)
                )
            total, fit = _best_ms(
                lambda: kmeans.kmeans(vectors, k, max_iterations=cap, seed=0, init=given)
            )
            reference = reference or fit.inertia
            cells = np.bincount(fit.assignments, minlength=k)
            print(
                f"{n:11d} {64:5d} {k:5d} {len(seeds.population):5d} {start:>6s} {cap:4d} "
                f"{seeding:11.1f} {total - seeding:9.1f} {total:9.1f} {fit.iterations:11d} "
                f"{fit.inertia / reference:8.4f} {cells.max() / cells.mean():9.2f}"
            )


IVF_ROWS = (500, 1450, 6175)
IVF_DIM = 64


def time_ivf_grid() -> None:
    """µs per IVFFLAT ``search_with_filter`` call (k=10, nprobe 8) at the
    segment sizes the ledger's ``ingest_mixed`` searches, ``nlist`` by the
    auto-index rule, with no bitset and with a 30 % bitset: best of seven
    passes over 40 queries, mixture data at dim 64."""
    print("  rows   dim  nlist  no bitset us  30% bitset us")
    for n in IVF_ROWS:
        rows = _mixture(n + 40, IVF_DIM)
        vectors, queries = rows[:n], rows[n:]
        spec = IndexSpec("IVFFLAT", IVF_DIM, params={"nlist": select_ivf_nlist(n)})
        index = create_index(spec)
        index.train(vectors)
        index.add_with_ids(vectors, np.arange(n))
        bitset = np.random.default_rng(1).random(n) < 0.3
        search, best = index.search_with_filter, []
        for allowed in (None, bitset):
            ms, _ = _best_ms(lambda: [search(q, 10, bitset=allowed, nprobe=8) for q in queries], 7)
            best.append(ms / len(queries) * 1e3)
        print(f"{n:6d} {IVF_DIM:5d} {index.nlist:6d} {best[0]:13.1f} {best[1]:14.1f}")


def time_build() -> None:
    time_build_phases()
    time_build_grid()


TIME_GRIDS = {
    "search": time_table_grid,
    "build": time_build,
    "kmeans": time_kmeans_grid,
    "ivf": time_ivf_grid,
}


def main(argv: list) -> int:
    command = argv[0] if argv else "check"
    if command == "time":
        names = argv[1:2] or list(TIME_GRIDS)
        if not set(names) <= set(TIME_GRIDS):
            print(__doc__, file=sys.stderr)
            return 2
        for name in names:
            TIME_GRIDS[name]()
        return 0
    path = argv[1] if len(argv) > 1 else BASELINE
    if command == "capture":
        points, images = sweep()
        with open(path, "w") as handle:
            json.dump(
                {"numpy": np.__version__, "images": images, "points": points}, handle, indent=1
            )
            handle.write("\n")
        print(f"wrote {path}")
        return 0
    if command != "check":
        print(__doc__, file=sys.stderr)
        return 2
    with open(path) as handle:
        baseline = json.load(handle)
    print(f"baseline {path} captured with numpy {baseline['numpy']}; this is {np.__version__}")
    points, images = sweep()
    mismatches = compare_images(baseline["images"], images)
    mismatches += compare(baseline["points"], points)
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
