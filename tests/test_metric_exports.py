"""The metric registry's exports, read off one seeded engine run.

One run touches every ``record_latency`` call site: a clustered cold
read served over RPC, an ``execute_batch`` and a ``ServingFrontend``
round.  Its Prometheus text must be a valid exposition (one ``# TYPE``
per family, no sample line twice, ``_total`` only on ``incr``
counters), and every latency recorded on a path that charges simulated
time must read above zero — a clock delta taken inside a scan capture
reads 0.
"""

from unittest import mock

import numpy as np
import pytest

from repro.cluster.engine import ClusteredBlendHouse
from repro.cluster.warehouse import WarehouseConfig
from repro.core.database import BlendHouse
from repro.observe.slo import SLObjective, SLOMonitor
from repro.serving import Lane, QueryRequest, ServingFrontend, run_virtual
from repro.simulate.metrics import MetricRegistry, _prom_name
from tests.helpers import parse_exposition, vector_sql

DIM = 8

# Every series a ``record_latency`` call site writes in the seeded run.
RECORDED = {
    "index_cache.tier.memory",   # storage/cache.py
    "index_cache.tier.disk",     # storage/cache.py
    "warehouse.makespan",        # cluster/warehouse.py
    "rpc.latency",               # cluster/rpc.py
    "query.latency",             # core/database.py, the finish stage
    "batch.latency",             # core/database.py, execute_batch
    "serving.latency.interactive",     # serving/frontend.py
    "serving.queue_wait.interactive",  # serving/frontend.py
    "serving.service",                 # serving/frontend.py
}


def knn_sql(query):
    return (
        f"SELECT id FROM t ORDER BY "
        f"L2Distance(embedding, {vector_sql(query)}) LIMIT 5"
    )


def freeze_background_loads(cluster):
    for worker in cluster.read_vw.workers.values():
        worker.schedule_background_load = lambda key: None


@pytest.fixture(scope="module")
def seeded_run():
    """(cluster, names passed to ``incr``) after one seeded run."""
    incremented = set()
    incr = MetricRegistry.incr

    def spy(registry, name, delta=1):
        incremented.add(name)
        incr(registry, name, delta)

    rng = np.random.default_rng(5)
    queries = rng.normal(size=(4, DIM)).astype(np.float32)
    with mock.patch.object(MetricRegistry, "incr", spy):
        cluster = ClusteredBlendHouse(
            read_workers=2, warehouse_config=WarehouseConfig(serving_enabled=True)
        )
        cluster.execute(
            "CREATE TABLE t (id UInt64, attr Int64, embedding Array(Float32), "
            f"INDEX ann embedding TYPE HNSW('DIM={DIM}'))"
        )
        cluster.table("t").writer.config.max_segment_rows = 60
        cluster.insert_rows("t", [
            {"id": i, "attr": i % 10,
             "embedding": rng.normal(size=DIM).astype(np.float32)}
            for i in range(240)
        ])
        cluster.execute("DELETE FROM t WHERE id = 3")
        cluster.preload("t")
        cluster.execute(knn_sql(queries[0]))
        # Cold read: every worker restarts with its disk tier only.
        for worker in cluster.read_vw.workers.values():
            worker.lose_memory()
        cluster.execute(knn_sql(queries[1]))
        # A joined worker serves its new segments over RPC.
        freeze_background_loads(cluster)
        cluster.scale_to(3)
        freeze_background_loads(cluster)
        cluster.execute(knn_sql(queries[2]))
        cluster.execute_batch([knn_sql(q) for q in queries[:3]])
        frontend = ServingFrontend(cluster)
        reply = run_virtual(frontend.submit(
            QueryRequest(sql=knn_sql(queries[3]), lane=Lane.INTERACTIVE)
        ))
        assert reply.ok
    return cluster, incremented


def exposition_types(text):
    """``{family: type}`` of a Prometheus exposition, parsed strictly."""
    _, types = parse_exposition(text)
    return dict(types)


class TestSeededRun:
    def test_every_record_latency_site_is_reached(self, seeded_run):
        cluster, _ = seeded_run
        latencies = cluster.export_metrics().as_dict()["latencies"]
        assert RECORDED <= set(latencies)
        assert cluster.metrics.count("worker.serving_calls") > 0

    def test_latencies_that_charge_simulated_time_read_positive(self, seeded_run):
        cluster, _ = seeded_run
        latencies = cluster.export_metrics().as_dict()["latencies"]
        for name, summary in latencies.items():
            if name.startswith("serving.queue_wait."):
                continue  # an uncontended request never queues
            assert summary["mean"] > 0, name

    def test_render_is_a_strict_exposition(self, seeded_run):
        cluster, incremented = seeded_run
        types = exposition_types(cluster.export_metrics().render())
        counters = {family for family, kind in types.items() if kind == "counter"}
        assert counters == {f"{_prom_name(name)}_total" for name in incremented}
        assert not any(
            family.endswith("_total")
            for family, kind in types.items() if kind != "counter"
        )
        assert types["query_latency_seconds"] == "summary"
        assert types["mvcc_manifest_id"] == "gauge"
        assert types["warehouse_queue_depth"] == "gauge"


class TestGaugeExport:
    @pytest.mark.parametrize("target,bad,total,burn", [
        (0.5, 9, 20, 0.9),
        (0.9, 27, 100, 2.7),
    ])
    def test_burn_rate_reads_back_as_a_float_gauge(self, target, bad, total, burn):
        db = BlendHouse()
        monitor = SLOMonitor(db.clock, metrics=db.metrics)
        monitor.add_objective(SLObjective(name="x", kind="latency", target=target))
        for i in range(total):
            monitor.record("x", bad=i < bad)
        status = monitor.evaluate()["x"]
        assert status["fast_burn"] == pytest.approx(burn)
        exporter = db.export_metrics()
        assert exporter.gauge("slo.x.fast_burn") == status["fast_burn"]
        assert exporter.gauge("slo.x.slow_burn") == status["slow_burn"]
        types = exposition_types(exporter.render())
        assert types["slo_x_fast_burn"] == "gauge"
        assert "slo_x_fast_burn_total" not in types
        assert f"slo_x_fast_burn {status['fast_burn']:.9g}" in exporter.render()
