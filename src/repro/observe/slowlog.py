"""Per-query flight recorder: the slow-query log.

Production warehouses keep a *flight record* for every query that ran
long: not just its latency, but everything needed to diagnose it after
the fact — the full span tree, the plan the optimizer chose and the CBO
alternatives it rejected, cache hit/miss deltas, the manifest the query
pinned, its serving lane/tenant, and how long it waited for an
admission slot.

:class:`SlowQueryLog` holds that record for every query whose
simulated latency is at or over the ``slowlog_threshold_ms`` setting, plus
every ``slowlog_sample_every``-th query it is offered (tail sampling),
so the log also shows what *healthy* executions look like.  The policy
lives in the engine settings alone: ``BlendHouse.offer_flight`` makes
the decision and appends the record.  Records live in a bounded ring;
``SHOW SLOW QUERIES`` and the REPL's ``.slowlog`` render them, and
``MetricsExporter.as_dict`` exports them.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass, field
from collections import deque
from typing import Any, Deque, Dict, List, Optional

# Flight records retained; diagnosis wants recency, not history.
DEFAULT_MAX_RECORDS = 128


@dataclass
class FlightRecord:
    """Everything captured about one recorded query."""

    timestamp: float
    sql: str
    latency_s: float
    reason: str  # "slow" | "sampled"
    # Position in the log's lifetime, set by :meth:`SlowQueryLog.append`.
    query_id: int = -1
    lane: Optional[str] = None
    tenant: Optional[str] = None
    queue_wait_s: Optional[float] = None
    manifest_id: Optional[int] = None
    plan: Dict[str, Any] = field(default_factory=dict)
    cache: Dict[str, int] = field(default_factory=dict)
    # The query's root Span, serialized lazily: it may still be open at
    # capture time.
    trace: Any = None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "query_id": self.query_id,
            "ts": self.timestamp,
            "sql": self.sql,
            "latency_s": self.latency_s,
            "reason": self.reason,
            "lane": self.lane,
            "tenant": self.tenant,
            "queue_wait_s": self.queue_wait_s,
            "manifest_id": self.manifest_id,
            "plan": dict(self.plan),
            "cache": dict(self.cache),
            "trace": self.trace.to_dict() if self.trace is not None else None,
        }


@dataclass
class SlowQueryReport:
    """Renderable result of ``SHOW SLOW QUERIES``."""

    records: List[FlightRecord]
    threshold_s: float
    total_recorded: int

    def render(self) -> str:
        header = (
            f"slow queries: {len(self.records)} shown / {self.total_recorded} recorded"
            f" (threshold {self.threshold_s * 1e3:.1f} sim-ms)"
        )
        if not self.records:
            return header + "\n  (none)"
        lines = [header]
        for rec in reversed(self.records):  # newest first
            where = rec.lane or "-"
            if rec.tenant:
                where += f"/{rec.tenant}"
            plan = rec.plan.get("strategy", "?")
            wait = (
                f" wait={rec.queue_wait_s * 1e3:.2f}ms"
                if rec.queue_wait_s is not None
                else ""
            )
            lines.append(
                f"  #{rec.query_id} [{rec.reason}] {rec.latency_s * 1e3:.3f} sim-ms"
                f"  lane={where} plan={plan}"
                f" manifest={rec.manifest_id if rec.manifest_id is not None else '-'}"
                f"{wait}"
            )
            sql = rec.sql.strip().replace("\n", " ")
            if len(sql) > 100:
                sql = sql[:97] + "..."
            lines.append(f"      {sql}")
        return "\n".join(lines)


class SlowQueryLog:
    """Bounded, thread-safe ring of :class:`FlightRecord`."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._ring: Deque[FlightRecord] = deque(maxlen=DEFAULT_MAX_RECORDS)
        self._seen = 0
        self._recorded = 0

    @property
    def seen(self) -> int:
        """Queries offered to the log (recorded or not)."""
        return self._seen

    @property
    def recorded(self) -> int:
        """Flight records captured over the log's lifetime."""
        return self._recorded

    def offer(self) -> int:
        """Count one offered query; returns the count including it.

        Tail sampling is "every Nth query the log *saw*", so call this
        exactly once per query.
        """
        with self._lock:
            self._seen += 1
            return self._seen

    def append(self, record: FlightRecord) -> None:
        """Number ``record`` and append it to the ring."""
        with self._lock:
            record.query_id = self._recorded
            self._recorded += 1
            self._ring.append(record)

    def records(self, limit: Optional[int] = None) -> List[FlightRecord]:
        """Retained records oldest-first (the ``limit`` newest when given)."""
        with self._lock:
            retained = list(self._ring)
        if limit is not None and limit >= 0:
            retained = retained[-limit:] if limit else []
        return retained

    def dump_jsonl(self, path: Any) -> int:
        """Write retained records to ``path`` as JSONL; returns the count."""
        retained = self.records()
        with open(path, "w", encoding="utf-8") as fh:
            for record in retained:
                fh.write(json.dumps(record.to_dict(), sort_keys=True) + "\n")
        return len(retained)
