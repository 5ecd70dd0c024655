"""Ablation — multi-probe consistent hashing vs naive modulo placement.

Not a paper figure: this isolates the design choice behind §II-D
("scaling-friendly segment allocation").  Two claims are measured:

* **stability** — adding one worker to n moves ≈ 1/(n+1) of segments
  under consistent hashing, vs ≈ n/(n+1) under ``hash(key) % n``;
* **balance** — multi-probe keeps per-worker load close to uniform with
  a single ring point per worker.
"""

import hashlib


from benchmarks.common import fmt_table
from repro.cluster.hashring import MultiProbeHashRing

N_SEGMENTS = 600
WORKER_COUNTS = [4, 8, 16]


def _segment_ids():
    return [f"t/seg-{i:05d}" for i in range(N_SEGMENTS)]


def _mod_assign(keys, workers):
    out = {}
    for key in keys:
        digest = hashlib.blake2b(key.encode(), digest_size=8).digest()
        out[key] = workers[int.from_bytes(digest, "big") % len(workers)]
    return out


def _ring_assign(keys, workers):
    ring = MultiProbeHashRing()
    for worker in workers:
        ring.add_worker(worker)
    return ring.assignment(keys)


def _moved_fraction(assign_fn, n_workers):
    keys = _segment_ids()
    workers = [f"w{i}" for i in range(n_workers)]
    before = assign_fn(keys, workers)
    after = assign_fn(keys, workers + [f"w{n_workers}"])
    moved = sum(1 for key in keys if before[key] != after[key])
    return moved / len(keys)


def _imbalance(assign_fn, n_workers):
    keys = _segment_ids()
    workers = [f"w{i}" for i in range(n_workers)]
    assignment = assign_fn(keys, workers)
    counts = {worker: 0 for worker in workers}
    for worker in assignment.values():
        counts[worker] += 1
    mean = len(keys) / n_workers
    return max(counts.values()) / mean


def test_ablation_consistent_hashing():
    rows = []
    results = {}
    for n in WORKER_COUNTS:
        ring_moved = _moved_fraction(_ring_assign, n)
        mod_moved = _moved_fraction(_mod_assign, n)
        ring_balance = _imbalance(_ring_assign, n)
        ideal = 1.0 / (n + 1)
        rows.append([n, ideal, ring_moved, mod_moved, ring_balance])
        results[n] = (ring_moved, mod_moved)
    print(fmt_table(
        "Ablation: segments moved when scaling n -> n+1 workers",
        ["workers n", "ideal 1/(n+1)", "multi-probe CH", "hash % n",
         "CH max/mean load"],
        rows,
    ))

    for n in WORKER_COUNTS:
        ring_moved, mod_moved = results[n]
        ideal = 1.0 / (n + 1)
        # Consistent hashing stays in the neighbourhood of the ideal...
        assert ring_moved < 2.5 * ideal, f"n={n}"
        # ...while modulo reshuffles almost everything.
        assert mod_moved > 0.7, f"n={n}"
        assert ring_moved < mod_moved / 3, f"n={n}"
        # Balance within 2.5x of uniform with one ring point per worker.
        assert _imbalance(_ring_assign, n) < 2.5
