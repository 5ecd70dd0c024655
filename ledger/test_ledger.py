"""Self-tests of the ledger at ``--smoke`` scale.

Run with ``pytest ledger -q`` from the repository root.  They live
outside the tier-1 ``testpaths`` on purpose: they test the ruler, not
the engine.
"""

import json
import os
import re
from dataclasses import replace

import numpy as np
import pytest

from ledger.__main__ import DEFAULT_SECONDS, ROOT
from ledger.data import K, make_dataset
from ledger.interpose import (
    ASYNC,
    END,
    OP,
    PARENT,
    START,
    Interposer,
    Recorder,
    self_times,
    summarize,
    union_ns,
)
from ledger.metrics import END_TO_END, PER_LAYER
from ledger.oracle import Oracle
from ledger.run import run_traced, run_untraced
from ledger.workloads import SMOKE, WORKLOADS

SEED = 11
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


@pytest.fixture(scope="module")
def benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def traced():
    return {name: run_traced(name, SEED, SMOKE) for name in WORKLOADS}


def test_names_match_benchmark_json_both_ways(benchmark_json):
    assert [w["name"] for w in benchmark_json["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in benchmark_json["workloads"]] == [
        cls.why for cls in WORKLOADS.values()
    ]
    assert benchmark_json["end_to_end"] == [
        {"name": s.name, "unit": s.unit, "better": s.better, "bound": s.bound}
        for s in END_TO_END
    ]
    assert benchmark_json["per_layer"] == [
        {"name": s.name, "unit": s.unit, "better": s.better} for s in PER_LAYER
    ]
    assert benchmark_json["run_seconds"] == DEFAULT_SECONDS
    assert benchmark_json["paths"] == ["ledger"]
    names = [s.name for s in END_TO_END + PER_LAYER] + list(WORKLOADS)
    assert len(set(names)) == len(names)
    assert all(NAME.match(name) for name in names)
    assert all(0 < s.bound <= 0.25 for s in END_TO_END)
    assert all(len(w["why"]) <= 200 for w in benchmark_json["workloads"])


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_runs_print_every_metric_and_pass_their_checks(name, traced):
    untraced = run_untraced(name, SEED, 0, SMOKE)
    assert untraced.correct and untraced.failed == 0 and untraced.attempted > 0
    assert set(untraced.result_line()["metrics"]) == {s.name for s in END_TO_END}
    assert all(value != 0 for value, _ in untraced.metrics.values())
    assert traced[name].correct and traced[name].failed == 0
    assert set(traced[name].result_line()["metrics"]) == {s.name for s in PER_LAYER}


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_span_tree_is_well_formed(name, traced):
    recorder = traced[name].recorder
    spans = recorder.spans
    assert spans
    for span in spans:
        assert span[END] >= span[START]
        parent = span[PARENT]
        if parent >= 0:
            assert spans[parent][OP] == span[OP]
            # A child lies inside its parent's interval.
            assert spans[parent][START] <= span[START] and span[END] <= spans[parent][END]
    own = self_times(spans, 0, len(spans))
    assert all(
        self_ns >= 0 for self_ns, span in zip(own, spans) if not span[ASYNC]
    )
    # Self times add up to what the root spans cover (coroutine roots
    # overlap, so their union), within 1 %.
    roots = [span for span in spans if span[PARENT] < 0]
    covered = union_ns([(s[START], s[END]) for s in roots if s[ASYNC]]) + sum(
        s[END] - s[START] for s in roots if not s[ASYNC]
    )
    total = sum(stats.self_ns for stats in summarize(recorder, 0, len(spans)).values())
    assert all(stats.self_ns >= 0 for stats in summarize(recorder, 0, len(spans)).values())
    assert abs(total - covered) <= 0.01 * covered


def test_every_interposed_attribute_is_restored():
    import repro.core.database
    import repro.sqlparser.parser
    from repro.storage.manifest import Snapshot, _ManifestView

    interposer = Interposer(Recorder())
    interposer.install()
    assert not interposer.all_restored()
    assert repro.core.database.parse_statement is not repro.sqlparser.parser.parse_statement
    interposer.restore()
    assert interposer.patched and interposer.all_restored()
    assert repro.core.database.parse_statement is repro.sqlparser.parser.parse_statement
    assert "bitmap" not in Snapshot.__dict__ and Snapshot.bitmap is _ManifestView.bitmap


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_run_returns_what_the_untraced_run_returns(name, traced):
    # The traced round is the third replay of a process (warm-up,
    # reference, traced): compare it with the untraced run's third.
    untraced = run_untraced(name, SEED, 0, replace(SMOKE, min_rounds=2))
    assert untraced.logs[1].rows == traced[name].logs[1].rows
    assert untraced.logs[1].sim_s == traced[name].logs[1].sim_s


def test_oracle_rejects_corrupted_results():
    data = make_dataset(SEED, rows=200, dim=8, n_queries=1)
    oracle = Oracle(data)
    oracle.delete(0, 50)
    query = data.queries[0]
    truth = oracle.truth(query, threshold=6000)
    allowed = np.flatnonzero(oracle.alive & (oracle.attr < 6000))
    dist = np.linalg.norm(data.vectors[allowed].astype(np.float64) - query, axis=1)
    order = np.argsort(dist)
    good = [(int(allowed[i]), float(dist[i])) for i in order[:K]]
    assert oracle.check(truth, good, exact=True).ok
    assert oracle.check(truth, good, exact=True).recall == 1.0

    deleted = [(7, good[0][1])] + good[1:]
    filtered_out = [(int(np.flatnonzero(oracle.attr >= 6000)[-1]), good[0][1])] + good[1:]
    reordered = [good[1], good[0]] + good[2:]
    wrong_distance = [(good[0][0], good[0][1] * 0.5)] + good[1:]
    duplicated = [good[0]] + good[:-1]
    far = order[-1]
    not_nearest = sorted(good[:-1] + [(int(allowed[far]), float(dist[far]))], key=lambda r: r[1])
    for corrupted in (deleted, filtered_out, reordered, wrong_distance, duplicated, good * 2):
        assert not oracle.check(truth, corrupted, exact=False).ok
    # A missed neighbour is lower recall on an approximate plan, a failure on an exact one.
    assert oracle.check(truth, not_nearest, exact=False).recall == pytest.approx(0.9)
    assert not oracle.check(truth, not_nearest, exact=True).ok
    assert not oracle.check(truth, good[:-1], exact=True).ok
