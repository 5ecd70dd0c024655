"""Background cache preloading: the cold-cache masking half.

The paper masks scale-out cliffs by warming a joining warehouse's
hierarchical index cache *before* the router sends it traffic.  Which
segments to warm comes from the per-segment access statistics every
warehouse records while serving (``VirtualWarehouse.access_stats``):
the preloader ranks segments fleet-wide by observed heat and preloads
the hot set into the joining warehouse's workers, charging the warm-up
cost to a *background* timeline — the fetches run with the shared clock
capturing, and the fleet admits the warehouse only once that captured
cost has elapsed on the simulated clock (``WarehouseFleet.poll``).

Each index is read from the object store, as in the paper's §II-D
preload: a joining warehouse's caches are cold, and no tier sits
between its workers' local disks and the store.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.cluster.warehouse import VirtualWarehouse
from repro.observe.events import emit_event


class BackgroundPreloader:
    """Warms joining warehouses from fleet-wide access statistics."""

    def __init__(self, fleet, engine) -> None:
        self.fleet = fleet
        # The engine the fleet serves: every table of its catalog is warmed.
        self.engine = engine
        self.warmups = 0

    def _hot_set(self) -> Optional[set]:
        """Segment ids worth warming, or None to warm the full catalog.

        Before any query has run there is no heat signal; warming
        everything is the only defensible choice (matches the paper's
        initial preload).  Once stats exist, every accessed segment is
        warmed — cold data stays cold and the warm-up budget goes where
        queries actually land.
        """
        hot = self.fleet.hot_segments()
        return set(hot) if hot else None

    def warm(self, warehouse: VirtualWarehouse) -> Tuple[int, float]:
        """Preload the hot set into ``warehouse`` off the query path.

        Returns ``(indexes_loaded, background_cost_s)``.  The cost is
        *captured*, not applied: the caller models the warm-up running
        concurrently with foreground traffic by delaying ring admission
        until ``clock.now + background_cost_s``.
        """
        hot = self._hot_set()
        loaded = 0
        with warehouse.clock.capturing() as captured:
            for entry in self.engine.catalog.entries():
                manager = self.engine.table(entry.schema.name).manager
                segment_ids = manager.segment_ids()
                if hot is not None:
                    segment_ids = [s for s in segment_ids if s in hot]
                loaded += warehouse.preload_indexes(segment_ids, manager.index_key)
        self.warmups += 1
        self.fleet.metrics.incr("fleet.preloaded_indexes", loaded)
        emit_event(
            self.fleet.metrics, "fleet.preload", warehouse=warehouse.name,
            loaded=loaded, cost_s=round(captured.total, 6),
            hot_only=hot is not None,
        )
        return loaded, captured.total
