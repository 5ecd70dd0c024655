"""The bench regression gate (``benchmarks/check_regression.py``)."""

import json

import pytest

from benchmarks.check_regression import BASELINES, check

# Every gated value of the two baselines this gate replaced:
# ``BENCH_fig13_baseline.json`` (QPS and recall per sweep point) and
# ``serving.json`` (p99 per lane, completed per mode).
PARENT_VALUES = {
    "fig13_index_recall_qps": {
        "BH-HNSW/ef_search=16/qps": 44518.84037323915,
        "BH-HNSW/ef_search=16/recall": 0.9425000000000001,
        "BH-HNSW/ef_search=32/qps": 41836.242904568004,
        "BH-HNSW/ef_search=32/recall": 0.9700000000000001,
        "BH-HNSW/ef_search=64/qps": 38152.32851290771,
        "BH-HNSW/ef_search=64/recall": 0.9974999999999999,
        "BH-HNSW/ef_search=128/qps": 33813.75922438775,
        "BH-HNSW/ef_search=128/recall": 1.0,
        "BH-HNSWSQ/ef_search=16/qps": 44525.50064473331,
        "BH-HNSWSQ/ef_search=16/recall": 0.9275,
        "BH-HNSWSQ/ef_search=32/qps": 41869.87512728643,
        "BH-HNSWSQ/ef_search=32/recall": 0.9574999999999999,
        "BH-HNSWSQ/ef_search=64/qps": 38149.53396529538,
        "BH-HNSWSQ/ef_search=64/recall": 0.9824999999999999,
        "BH-HNSWSQ/ef_search=128/qps": 33812.11285130946,
        "BH-HNSWSQ/ef_search=128/recall": 0.9824999999999999,
        "BH-IVFPQFS/nprobe=2/qps": 46237.00162291005,
        "BH-IVFPQFS/nprobe=2/recall": 0.625,
        "BH-IVFPQFS/nprobe=4/qps": 44949.678834535414,
        "BH-IVFPQFS/nprobe=4/recall": 0.77,
        "BH-IVFPQFS/nprobe=8/qps": 42649.37945152179,
        "BH-IVFPQFS/nprobe=8/recall": 0.8525,
        "BH-IVFPQFS/nprobe=16/qps": 38757.73701324559,
        "BH-IVFPQFS/nprobe=16/recall": 0.9100000000000001,
    },
    "serving_closed": {
        "completed": 143,
        "latency/batch/p99": 0.0012690462350000002,
        "latency/interactive/p99": 0.0019570468879999965,
        "latency/overall/p99": 0.0017324806940000102,
    },
    "serving_open": {
        "completed": 120,
        "latency/batch/p99": 0.00016198820000000013,
        "latency/interactive/p99": 0.003681618051000029,
        "latency/overall/p99": 0.0017009686790000046,
    },
}


def _write(directory, name, metrics):
    payload = {"metrics": {key: {"value": value, "unit": "x"} for key, value in metrics.items()}}
    (directory / f"{name}.json").write_text(json.dumps(payload))


@pytest.fixture
def dirs(tmp_path):
    """(results dir, baselines dir) with one gated result, ``r``."""
    results, baselines = tmp_path / "results", tmp_path / "baselines"
    results.mkdir()
    baselines.mkdir()
    (baselines / "gates.json").write_text(json.dumps([
        {"result": "r", "metric": "*/qps", "better": "higher", "bound": 0.10},
        {"result": "r", "metric": "lat/p99", "better": "lower", "bound": 0.15},
    ]))
    _write(baselines, "r", {"a/qps": 100.0, "b/qps": 200.0, "lat/p99": 1.0, "other": 5.0})
    return results, baselines


FRESH = {"a/qps": 100.0, "b/qps": 200.0, "lat/p99": 1.0}


def _check(dirs, fresh):
    results, baselines = dirs
    _write(results, "r", fresh)
    return check(["r"], results_dir=str(results), baselines_dir=str(baselines))


class TestGate:
    def test_within_bound_passes(self, dirs):
        assert _check(dirs, {**FRESH, "a/qps": 90.0, "lat/p99": 1.15}) == []

    def test_higher_is_better_breach_fails(self, dirs):
        (failure,) = _check(dirs, {**FRESH, "b/qps": 179.0})
        assert "b/qps" in failure and "REGRESSION" in failure

    def test_lower_is_better_breach_fails(self, dirs):
        (failure,) = _check(dirs, {**FRESH, "lat/p99": 1.16})
        assert "lat/p99" in failure and "REGRESSION" in failure

    def test_missing_gated_metric_fails(self, dirs):
        (failure,) = _check(dirs, {"a/qps": 100.0, "lat/p99": 1.0})
        assert "b/qps" in failure and "MISSING" in failure

    def test_row_matching_nothing_fails(self, dirs):
        _, baselines = dirs
        gates = json.loads((baselines / "gates.json").read_text())
        gates.append({"result": "r", "metric": "*/recall", "better": "higher", "bound": 0})
        (baselines / "gates.json").write_text(json.dumps(gates))
        (failure,) = _check(dirs, FRESH)
        assert "*/recall" in failure and "matches no baseline metric" in failure

    def test_result_without_rows_or_file_fails(self, dirs):
        results, baselines = dirs
        assert check(["nope"], str(results), str(baselines)) == ["nope: no gate rows"]
        (failure,) = check(["r"], str(results), str(baselines))
        assert "no fresh result" in failure


class TestCommittedBaselines:
    def test_hold_exactly_the_replaced_values(self):
        for result, values in PARENT_VALUES.items():
            with open(f"{BASELINES}/{result}.json") as handle:
                metrics = json.load(handle)["metrics"]
            for name, value in values.items():
                assert metrics[name]["value"] == value, (result, name)

    def test_gate_the_same_32_metrics(self, capsys):
        # The baselines compared against themselves: every gated metric
        # is printed once and passes.
        results = sorted(PARENT_VALUES)
        assert check(results, results_dir=BASELINES) == []
        gated = capsys.readouterr().out.splitlines()
        assert len(gated) == 32
        for result, values in PARENT_VALUES.items():
            for name in values:
                assert sum(line.startswith(f"{result} {name}:") for line in gated) == 1
