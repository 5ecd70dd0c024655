"""Fleet-level query routing with multi-probe consistent hashing.

One routing decision per query: ``(tenant, lane)`` hashes onto the ring
of *admitted* warehouses, so a tenant's interactive traffic keeps
landing on the same warehouse — whose hierarchical cache is hot for that
tenant's segments — and membership churn moves only ≈ 1/(n+1) of the
routing keys (the multi-probe minimal-movement property).  A joining
warehouse is **not** on the ring while the background preloader warms
it; :meth:`admit` is the masking protocol's final step.
"""

from __future__ import annotations

from typing import Collection, Dict, List, Sequence

from repro.cluster.hashring import DEFAULT_PROBES, MultiProbeHashRing


def route_key(tenant: str, lane: str) -> str:
    """The ring key one query routes by."""
    return f"{tenant}::{lane}"


class FleetRouter:
    """Spreads (tenant, lane) traffic across admitted warehouses."""

    def __init__(self, probes: int = DEFAULT_PROBES) -> None:
        self.ring = MultiProbeHashRing(probes=probes)
        self.routed = 0

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------
    def admit(self, warehouse_id: str) -> None:
        """Make ``warehouse_id`` routable (idempotent)."""
        self.ring.add_worker(warehouse_id)

    def evict(self, warehouse_id: str) -> bool:
        """Stop routing to ``warehouse_id``; returns whether it was in."""
        return self.ring.remove_worker(warehouse_id)

    @property
    def members(self) -> List[str]:
        """Admitted warehouse ids, sorted."""
        return self.ring.worker_ids

    def __contains__(self, warehouse_id: str) -> bool:
        return warehouse_id in self.ring

    def __len__(self) -> int:
        return len(self.ring)

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def route(
        self, tenant: str = "default", lane: str = "interactive",
        skip: Collection[str] = (),
    ) -> str:
        """Warehouse id serving this (tenant, lane); admitted members in
        ``skip`` are passed over as if evicted.

        Raises
        ------
        NoWorkersError
            When no warehouse outside ``skip`` is admitted.
        """
        self.routed += 1
        return self.ring.assign(route_key(tenant, lane), skip)

    def distribution(self, keys: Sequence[str]) -> Dict[str, int]:
        """Routing-key counts per warehouse (balance diagnostics)."""
        return self.ring.load_distribution(keys)

    def moved_keys(self, keys: Sequence[str], before: Dict[str, str]) -> int:
        """How many of ``keys`` route differently than ``before`` said."""
        return sum(1 for key in keys if self.ring.assign(key) != before.get(key))

    def assignment(self, keys: Sequence[str]) -> Dict[str, str]:
        """Key → warehouse snapshot (pair with :meth:`moved_keys`)."""
        return self.ring.assignment(keys)
