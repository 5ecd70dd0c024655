"""Elastic fleet subsystem: routing, failover, autoscaling, cold-cache
masking.

Covers the fleet's membership protocol (masked joins wait out their
warm-up on the simulated clock before the router sees them), failover
past members with no live workers, the SLO-burn autoscaler's control
loop, byte-identical query results while the fleet scales mid-workload,
and staged serving routed across warehouses (and a member scaled in
under one).
"""

import asyncio
import contextlib

import numpy as np
import pytest

from repro.core.database import BlendHouse
from repro.elastic import (
    AutoscalerPolicy,
    BackgroundPreloader,
    FleetAutoscaler,
    FleetBlendHouse,
    FleetConfig,
    FleetRouter,
)
from repro.elastic.router import route_key
from repro.errors import NoWorkersError
from repro.observe.slo import SLObjective, SLOMonitor
from repro.serving import Lane, QueryRequest, ServingConfig, ServingFrontend, run_virtual

from tests.helpers import drop_and_recreate, vector_sql, walk_spans

DIM = 8
SEGMENT_ROWS = 60
ROWS = 360


def load_docs(engine, seed=0):
    """Create and fill ``docs`` on any engine; returns the rows."""
    engine.execute(
        "CREATE TABLE docs (id UInt64, label String, "
        f"embedding Array(Float32), INDEX ann embedding "
        f"TYPE FLAT('DIM={DIM}'))"
    )
    engine.table("docs").writer.config.max_segment_rows = SEGMENT_ROWS
    rng = np.random.default_rng(seed)
    rows = [
        {
            "id": i,
            "label": ["a", "b"][i % 2],
            "embedding": rng.normal(size=DIM).astype(np.float32),
        }
        for i in range(ROWS)
    ]
    engine.insert_rows("docs", rows)
    return rows


def make_fleet_db(seed=0, warehouses=2, **cfg) -> FleetBlendHouse:
    db = FleetBlendHouse(
        fleet_config=FleetConfig(
            warehouses=warehouses, workers_per_warehouse=2, **cfg
        )
    )
    db._rows = load_docs(db, seed)
    return db


def ann_sql(db, k=6, row=17):
    query = db._rows[row]["embedding"]
    return (
        f"SELECT id, dist FROM docs ORDER BY "
        f"L2Distance(embedding, {vector_sql(query)}) AS dist LIMIT {k}"
    )


def top_ids(db, sql, tenant="default", lane="interactive"):
    return [row[0] for row in db.execute(sql, tenant=tenant, lane=lane).rows]


class TestFleetRouter:
    def test_routes_only_admitted(self):
        router = FleetRouter()
        with pytest.raises(NoWorkersError):
            router.route("t", "interactive")
        router.admit("vw-a")
        assert router.route("t", "interactive") == "vw-a"
        assert "vw-a" in router and len(router) == 1

    def test_sticky_per_tenant_lane(self):
        router = FleetRouter()
        for name in ("vw-a", "vw-b", "vw-c"):
            router.admit(name)
        first = router.route("tenant-1", "interactive")
        assert all(
            router.route("tenant-1", "interactive") == first for _ in range(10)
        )

    def test_distribution_spreads_tenants(self):
        router = FleetRouter()
        for name in ("vw-a", "vw-b", "vw-c", "vw-d"):
            router.admit(name)
        keys = [route_key(f"tenant-{i}", "interactive") for i in range(200)]
        counts = router.distribution(keys)
        assert set(counts) == {"vw-a", "vw-b", "vw-c", "vw-d"}
        assert max(counts.values()) < 2.5 * (200 / 4)

    def test_eviction_minimal_movement(self):
        router = FleetRouter()
        for name in ("vw-a", "vw-b", "vw-c", "vw-d"):
            router.admit(name)
        keys = [route_key(f"tenant-{i}", "interactive") for i in range(200)]
        before = router.assignment(keys)
        router.evict("vw-d")
        moved = router.moved_keys(keys, before)
        victims = sum(1 for owner in before.values() if owner == "vw-d")
        assert moved == victims


class TestFleetMembership:
    def test_initial_members_admitted(self):
        db = make_fleet_db()
        assert db.fleet.size == 2
        assert db.fleet.warehouse_names == ["fleet-vw0", "fleet-vw1"]
        assert not db.fleet.pending

    def test_unmasked_join_routable_immediately(self):
        db = make_fleet_db()
        name = db.scale_out(masked=False)
        assert db.fleet.size == 3
        assert name in db.fleet.router

    def test_masked_join_waits_for_warmup(self):
        db = make_fleet_db()
        db.execute(ann_sql(db))  # generate heat so the preloader has a hot set
        name = db.scale_out(masked=True)
        assert name in db.fleet.pending
        assert name not in db.fleet.router
        assert db.fleet.size == 2
        ready_at = db.fleet.pending[name]
        assert ready_at > db.clock.now  # warm-up cost was captured, not free
        db.clock.advance(ready_at - db.clock.now)
        assert db.fleet.poll() == [name]
        assert name in db.fleet.router and db.fleet.size == 3

    def test_masked_join_enters_warm(self):
        db = make_fleet_db()
        db.execute(ann_sql(db))
        name = db.scale_out(masked=True)
        joined = db.fleet.warehouse(name)
        # The preloader recorded per-segment preloads on the new member.
        snapshot = joined.access_stats.snapshot()
        assert sum(e["preloads"] for e in snapshot.values()) > 0

    def test_scale_in_refuses_last_member(self):
        db = make_fleet_db(warehouses=1)
        assert db.scale_in() is None
        assert db.fleet.size == 1

    def test_scale_in_folds_stats(self):
        db = make_fleet_db()
        db.execute(ann_sql(db))
        before = db.fleet.access_stats().total_hits + (
            db.fleet.access_stats().total_misses
        )
        assert before > 0
        removed = db.scale_in()
        assert removed is not None
        after_stats = db.fleet.access_stats()
        assert after_stats.total_hits + after_stats.total_misses == before


class TestPreloader:
    def test_warm_cost_is_captured_not_applied(self):
        db = make_fleet_db()
        db.execute(ann_sql(db))
        preloader = BackgroundPreloader(db.fleet, db)
        fresh = db.fleet.add_warehouse(masked=False)
        warehouse = db.fleet.warehouse(fresh)
        warehouse.invalidate_index(None)  # no-op; keep caches as-built
        before = db.clock.now
        loaded, cost_s = preloader.warm(warehouse)
        assert db.clock.now == before  # background timeline
        assert loaded > 0 and cost_s > 0

    def test_hot_set_filters_to_accessed_segments(self):
        db = make_fleet_db()
        # Touch one specific query so only scheduled segments get heat.
        db.execute(ann_sql(db))
        hot = db.fleet.hot_segments()
        assert hot
        all_segments = db.table("docs").manager.segment_ids()
        assert set(hot) <= set(all_segments)

    def test_no_heat_warms_full_catalog(self):
        db = make_fleet_db()
        preloader = BackgroundPreloader(db.fleet, db)
        name = db.fleet.add_warehouse(masked=False)
        loaded, _ = preloader.warm(db.fleet.warehouse(name))
        assert loaded == len(db.table("docs").manager.segment_ids())


class TestAutoscaler:
    @staticmethod
    def _scaler(db, threshold_s, **policy):
        monitor = SLOMonitor(db.clock)
        monitor.add_objective(
            SLObjective(
                "interactive-p99", kind="latency", target=0.99,
                threshold_s=threshold_s, lane="interactive",
            )
        )
        defaults = dict(
            objective="interactive-p99", cooldown_s=0.5, max_warehouses=4
        )
        defaults.update(policy)
        return db.attach_autoscaler(monitor, AutoscalerPolicy(**defaults))

    def test_burn_triggers_masked_scale_out(self):
        db = make_fleet_db()
        scaler = self._scaler(db, threshold_s=1e-9)  # everything breaches
        sql = ann_sql(db)
        for i in range(40):
            db.execute(sql, tenant=f"t{i % 4}")
            if scaler.history:
                break
        assert scaler.history and scaler.history[0].action == "scale_out"
        name = scaler.history[0].warehouse
        assert name in db.fleet.pending or name in db.fleet.router

    def test_cooldown_limits_action_rate(self):
        db = make_fleet_db()
        scaler = self._scaler(db, threshold_s=1e-9, cooldown_s=1e9)
        sql = ann_sql(db)
        for i in range(30):
            db.execute(sql, tenant=f"t{i % 4}")
        assert len(scaler.history) <= 1

    def test_max_warehouses_bounds_growth(self):
        db = make_fleet_db()
        scaler = self._scaler(db, threshold_s=1e-9, cooldown_s=0.0,
                              max_warehouses=3)
        sql = ann_sql(db)
        for i in range(60):
            db.execute(sql, tenant=f"t{i % 6}")
        assert db.fleet.size + len(db.fleet.pending) <= 3

    def test_quiet_burn_scales_in(self):
        db = make_fleet_db(warehouses=3)
        scaler = self._scaler(db, threshold_s=1e9, cooldown_s=0.0,
                              min_warehouses=2)
        sql = ann_sql(db)
        for i in range(20):
            db.execute(sql, tenant=f"t{i % 4}")
        assert any(d.action == "scale_in" for d in scaler.history)
        assert db.fleet.size >= 2


class TestDropTable:
    def test_recreated_table_reads_nothing_of_the_dropped_one(self):
        """DROP TABLE retires the table's indexes from every member's
        workers; a re-created table reuses its segment ids and keys."""
        db = FleetBlendHouse(fleet_config=FleetConfig(warehouses=2))
        ids, exact, cache_hits = drop_and_recreate(db)
        assert ids == exact
        assert cache_hits == 0

    def test_recreated_table_inherits_no_heat(self):
        """No member, and no member scaled in before the drop, keeps the
        dropped table's access stats: the new table's segments read no
        hit and no preload fleet-wide."""
        db = FleetBlendHouse(fleet_config=FleetConfig(warehouses=2))
        drop_and_recreate(db, before_drop=db.fleet.remove_warehouse)
        stats = db.fleet.access_stats()
        segment_ids = db.table("t").manager.segment_ids()
        assert len(segment_ids) == 4
        for segment_id in segment_ids:
            entry = stats.get(segment_id)
            assert (entry.hits, entry.misses, entry.preloads) == (0, 1, 0)
        assert db.fleet.hot_segments() == segment_ids


class TestFleetQueries:
    def test_results_match_core_engine(self):
        fleet_db = make_fleet_db(seed=5)
        core = BlendHouse()
        load_docs(core, seed=5)
        sql = ann_sql(fleet_db)
        assert fleet_db.execute(sql).rows == core.execute(sql).rows

    def test_identical_across_warehouses(self):
        db = make_fleet_db()
        sql = ann_sql(db)
        results = {
            tuple(top_ids(db, sql, tenant=f"tenant-{i}")) for i in range(12)
        }
        assert len(results) == 1  # every member returns the same bytes
        served = {
            name for name in db.fleet.warehouse_names
            if db.metrics.count(f"fleet.served_by.{name}") > 0
        }
        assert len(served) > 1  # and more than one member actually served

    def test_staged_generator_close_releases_pin(self):
        db = make_fleet_db()
        gen = db.select_stages(ann_sql(db))
        next(gen)
        assert db.table("docs").manager.store.pinned_count == 1
        gen.close()
        assert db.table("docs").manager.store.pinned_count == 0

    def test_results_stable_through_masked_scale_event(self):
        """The tentpole acceptance shape: byte-identical rows before,
        during (warm-up pending), and after a masked scale-out."""
        db = make_fleet_db()
        sql = ann_sql(db)
        tenants = [f"tenant-{i}" for i in range(8)]
        before = {t: top_ids(db, sql, tenant=t) for t in tenants}
        name = db.scale_out(masked=True)
        assert name in db.fleet.pending
        during = {t: top_ids(db, sql, tenant=t) for t in tenants}
        ready_at = db.fleet.pending.get(name)
        if ready_at is not None:
            db.clock.advance(max(0.0, ready_at - db.clock.now) + 1e-9)
        db.fleet.poll()
        assert name in db.fleet.router
        after = {t: top_ids(db, sql, tenant=t) for t in tenants}
        assert before == during == after

    def test_scale_event_races_ingest(self):
        """Scale out between a snapshot-pinned manifest and a concurrent
        ingest commit: the query, routed and pinned at its first step,
        drains on its warehouse across the scale event and sees exactly
        its pinned manifest's rows, whatever the new member caches."""
        db = make_fleet_db()
        sql = ann_sql(db)
        expected = top_ids(db, sql, tenant="race")
        gen = db.select_stages(sql, tenant="race")
        next(gen)  # route, pin the current manifest and plan
        rng = np.random.default_rng(99)
        db.insert_rows(
            "docs",
            [
                {
                    "id": 10_000 + i,
                    "label": "new",
                    "embedding": rng.normal(size=DIM).astype(np.float32),
                }
                for i in range(SEGMENT_ROWS)
            ],
        )
        joined = db.scale_out(masked=True)
        stages = list(gen)  # drain the pinned query across the scale event
        assert [r[0] for r in stages[-1].result.rows] == expected
        ready_at = db.fleet.pending.get(joined)
        if ready_at is not None:
            db.clock.advance(max(0.0, ready_at - db.clock.now) + 1e-9)
        db.fleet.poll()
        post = top_ids(db, sql, tenant="race")
        assert post == top_ids(db, sql, tenant="race-check")
        assert db.table("docs").manager.store.pinned_count == 0


TENANT = "tenant-0"


def routed_and_other(db):
    """The member ``TENANT`` routes to and the other one (two members)."""
    routed = db.fleet.route(TENANT, "interactive").name
    (other,) = set(db.fleet.warehouse_names) - {routed}
    return routed, other


def served_by(db, name):
    return db.metrics.count(f"fleet.served_by.{name}")


class TestFleetFailover:
    """A routed member with no live workers is passed over at routing."""

    def test_dead_routed_member_fails_over(self):
        db = make_fleet_db()
        core = BlendHouse()
        load_docs(core)
        sql = ann_sql(db)
        routed, other = routed_and_other(db)
        db.fleet.warehouse(routed).scale_to(0)
        assert db.execute(sql, tenant=TENANT).rows == core.execute(sql).rows
        assert db.metrics.count("fleet.failovers") == 1
        assert served_by(db, other) == 1 and served_by(db, routed) == 0
        assert routed in db.fleet.router  # skipped, not evicted

    def test_failed_over_rows_match_before_and_core(self):
        db = make_fleet_db()
        core = BlendHouse()
        load_docs(core)
        sql = ann_sql(db, k=3, row=9)
        baseline = db.execute(sql, tenant=TENANT).rows
        assert baseline[0][0] == 9
        routed, _ = routed_and_other(db)
        db.fleet.warehouse(routed).scale_to(0)
        assert db.execute(sql, tenant=TENANT).rows == baseline == core.execute(sql).rows

    def test_every_member_workerless_raises(self):
        db = make_fleet_db()
        for name in db.fleet.warehouse_names:
            db.fleet.warehouse(name).scale_to(0)
        with pytest.raises(NoWorkersError):
            db.execute(ann_sql(db), tenant=TENANT)
        assert db.table("docs").manager.store.pinned_count == 0

    def test_member_with_workers_again_takes_its_key_back(self):
        db = make_fleet_db()
        sql = ann_sql(db)
        routed, other = routed_and_other(db)
        db.fleet.warehouse(routed).scale_to(0)
        db.execute(sql, tenant=TENANT)
        db.fleet.warehouse(routed).scale_to(2)
        db.execute(sql, tenant=TENANT)
        assert served_by(db, routed) == 1 and served_by(db, other) == 1
        assert db.metrics.count("fleet.failovers") == 1

    def test_worker_failure_is_absorbed_inside_the_member(self):
        db = make_fleet_db()
        sql = ann_sql(db)
        expected = top_ids(db, sql, tenant=TENANT)
        routed, _ = routed_and_other(db)
        warehouse = db.fleet.warehouse(routed)
        warehouse.fail_worker(sorted(warehouse.workers)[0])
        assert top_ids(db, sql, tenant=TENANT) == expected
        assert db.metrics.count("fleet.failovers") == 0
        assert served_by(db, routed) == 2

    def test_preload_all_warms_every_member(self):
        db = make_fleet_db()
        manager = db.table("docs").manager
        assert db.preload("docs") == db.fleet.size * len(manager)
        for name in db.fleet.warehouse_names:
            workers = db.fleet.warehouse(name).workers.values()
            for segment_id in manager.segment_ids():
                key = manager.index_key(segment_id)
                assert any(worker.has_index_in_memory(key) for worker in workers)

    def test_retired_index_dropped_on_every_member(self):
        db = make_fleet_db()
        db.preload("docs")
        manager = db.table("docs").manager
        keys = {manager.index_key(sid) for sid in manager.segment_ids()}
        assert db.compact("docs")
        retired = keys - {manager.index_key(sid) for sid in manager.segment_ids()}
        assert retired
        for name in db.fleet.warehouse_names:
            for worker in db.fleet.warehouse(name).workers.values():
                assert not any(worker.has_index_in_memory(key) for key in retired)


class TestRoutedServing:
    def test_frontend_routes_by_tenant(self):
        db = make_fleet_db()
        sql = ann_sql(db)
        frontend = ServingFrontend(db, ServingConfig(max_inflight=4))
        direct = db.execute(sql)

        async def main():
            tasks = [
                asyncio.ensure_future(
                    frontend.submit(
                        QueryRequest(
                            sql=sql, tenant=f"tenant-{i}",
                            lane=Lane.INTERACTIVE,
                        )
                    )
                )
                for i in range(8)
            ]
            return await asyncio.gather(*tasks)

        replies = run_virtual(main())
        warehouses = set()
        for reply in replies:
            assert reply.ok, reply.error
            assert reply.result.rows == direct.rows
            warehouses.add(reply.flight["warehouse"])
        assert len(warehouses) > 1
        assert db.table("docs").manager.store.pinned_count == 0

    def test_member_scaled_in_under_an_in_flight_query(self):
        """The query fails typed and leaks nothing; the tenant's next
        query is served by a live member."""
        db = make_fleet_db()
        sql = ann_sql(db)
        routed, other = routed_and_other(db)
        stages_of = db.select_stages

        def scale_in_after_plan(*args, **kwargs):
            with contextlib.closing(stages_of(*args, **kwargs)) as stages:
                for stage in stages:
                    yield stage
                    if stage.name == "plan":
                        assert db.scale_in(routed) == routed

        db.select_stages = scale_in_after_plan
        frontend = ServingFrontend(db, ServingConfig(max_inflight=4))
        db.tracer.reset()
        reply = run_virtual(frontend.submit(QueryRequest(sql=sql, tenant=TENANT)))
        assert reply.status == "error"
        assert reply.error.startswith("NoWorkersError")
        assert db.table("docs").manager.store.pinned_count == 0
        assert db.tracer.current is None
        (root,) = db.tracer.roots
        assert root.name == "query"
        assert all(span.finished for span in walk_spans(root))

        del db.select_stages
        reply = run_virtual(frontend.submit(QueryRequest(sql=sql, tenant=TENANT)))
        assert reply.ok and reply.flight["warehouse"] == other
        assert served_by(db, other) == 1
        assert db.metrics.count("fleet.failovers") == 0
