"""Closed- and open-loop load generation against the serving front-end.

Two canonical load models (see "Open Versus Closed" — Schroeder et al.):

* **Closed loop** — a fixed population of workers, each issuing its next
  query the instant the previous reply lands.  Throughput self-adjusts
  to capacity; this measures best-case pipeline latency under a known
  concurrency level.
* **Open loop** — queries arrive by a Poisson process at a configured
  rate regardless of completions, the way real user traffic behaves.
  When the arrival rate approaches capacity, queues build and the tail
  (p99/p999) blows up — the regime the paper's serving claims are about.

Both report the same :class:`LoadReport`: per-lane latency percentiles
(p50/p99/p999), queue-wait and queue-depth statistics, and counts of
admission rejections, quota rejections, timeouts, and errors.  Driven on
a :class:`~repro.serving.loop.VirtualTimeEventLoop` with a seeded RNG,
every number is exactly reproducible run to run.
"""

from __future__ import annotations

import asyncio
import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from repro.serving.frontend import ServingFrontend
from repro.serving.session import Lane, QueryRequest
from repro.simulate.metrics import percentile

_REJECT_STATUSES = ("rejected_admission", "rejected_quota")


@dataclass
class LoadReport:
    """Outcome of one load-generation run (latencies in virtual seconds)."""

    mode: str
    offered: int
    completed: int
    rejected_admission: int
    rejected_quota: int
    timeouts: int
    errors: int
    duration_s: float
    qps: float
    latency: Dict[str, Dict[str, float]]
    queue_wait: Optional[Dict[str, float]]
    queue_depth: Optional[Dict[str, float]]
    tail_samples: List[Optional[float]] = field(default_factory=list)


def _distribution(values: Sequence[float]) -> Optional[Dict[str, float]]:
    if not values:
        return None
    ordered = sorted(values)
    return {
        "count": len(ordered),
        "mean": sum(ordered) / len(ordered),
        "p50": percentile(ordered, 50),
        "p95": percentile(ordered, 95),
        "p99": percentile(ordered, 99),
        "p999": percentile(ordered, 99.9),
        "max": ordered[-1],
    }


class _Collector:
    """Accumulates replies and builds the final report."""

    def __init__(self, frontend: ServingFrontend, mode: str) -> None:
        self.frontend = frontend
        self.mode = mode
        self.statuses: Dict[str, int] = {}
        self.latencies: Dict[Lane, List[float]] = {lane: [] for lane in Lane}
        self.queue_waits: List[float] = []
        self.depth_start = frontend.metrics.sampled("serving.queue_depth").count

    def add(self, lane: Lane, reply: Any) -> None:
        self.statuses[reply.status] = self.statuses.get(reply.status, 0) + 1
        if reply.ok:
            self.latencies[lane].append(reply.latency_s)
            self.queue_waits.append(reply.queue_wait_s)

    def report(
        self,
        offered: int,
        duration_s: float,
        tail_samples: Optional[List[Optional[float]]] = None,
    ) -> LoadReport:
        combined = [v for values in self.latencies.values() for v in values]
        latency: Dict[str, Dict[str, float]] = {}
        overall = _distribution(combined)
        if overall is not None:
            latency["overall"] = overall
        for lane in Lane:
            dist = _distribution(self.latencies[lane])
            if dist is not None:
                latency[lane.value] = dist
        depths = self.frontend.metrics.sampled("serving.queue_depth").values[
            self.depth_start:
        ]
        completed = self.statuses.get("ok", 0)
        return LoadReport(
            mode=self.mode,
            offered=offered,
            completed=completed,
            rejected_admission=self.statuses.get("rejected_admission", 0),
            rejected_quota=self.statuses.get("rejected_quota", 0),
            timeouts=self.statuses.get("timeout", 0),
            errors=self.statuses.get("error", 0)
            + self.statuses.get("cancelled", 0),
            duration_s=duration_s,
            qps=completed / duration_s if duration_s > 0 else 0.0,
            latency=latency,
            queue_wait=_distribution(self.queue_waits),
            queue_depth=_distribution(depths),
            tail_samples=list(tail_samples or []),
        )


def _make_request(
    rng: random.Random,
    sqls: Sequence[str],
    batch_fraction: float,
    tenants: Sequence[str],
    timeout_s: Optional[float],
) -> QueryRequest:
    lane = Lane.BATCH if rng.random() < batch_fraction else Lane.INTERACTIVE
    return QueryRequest(
        sql=sqls[rng.randrange(len(sqls))],
        tenant=tenants[rng.randrange(len(tenants))],
        lane=lane,
        timeout_s=timeout_s,
    )


async def run_closed_loop(
    frontend: ServingFrontend,
    sqls: Sequence[str],
    concurrency: int = 16,
    total_queries: int = 200,
    batch_fraction: float = 0.25,
    tenants: Sequence[str] = ("default",),
    timeout_s: Optional[float] = None,
    seed: int = 0,
    retry_backoff_s: float = 0.002,
) -> LoadReport:
    """Fixed worker population, think time zero; returns the report.

    The run targets ``total_queries`` *completions*: a worker whose
    submission bounces off admission or quota control backs off
    ``retry_backoff_s`` virtual seconds and tries again (spinning
    through rejections without yielding would starve the loop), so
    rejections show up in the report without consuming the budget.
    """
    rng = random.Random(seed)
    collector = _Collector(frontend, "closed")
    completions = 0
    offered = 0
    loop = asyncio.get_running_loop()
    start = loop.time()

    async def worker() -> None:
        nonlocal completions, offered
        while completions < total_queries:
            request = _make_request(rng, sqls, batch_fraction, tenants, timeout_s)
            offered += 1
            reply = await frontend.submit(request)
            collector.add(request.lane, reply)
            if reply.status in _REJECT_STATUSES:
                await asyncio.sleep(retry_backoff_s)
                continue
            completions += 1

    await asyncio.gather(*(worker() for _ in range(max(1, concurrency))))
    return collector.report(offered, loop.time() - start)


async def run_open_loop(
    frontend: ServingFrontend,
    sqls: Sequence[str],
    arrival_rate_qps: float = 200.0,
    total_queries: int = 200,
    batch_fraction: float = 0.25,
    tenants: Sequence[str] = ("default",),
    timeout_s: Optional[float] = None,
    seed: int = 0,
    poll_every: int = 50,
) -> LoadReport:
    """Poisson arrivals at ``arrival_rate_qps``, independent of completions.

    Every ``poll_every`` arrivals the generator samples the live
    interactive p99 from the metrics registry — ``None`` entries in
    ``tail_samples`` are polls that landed before the first completion.
    """
    if arrival_rate_qps <= 0:
        raise ValueError("arrival rate must be positive")
    rng = random.Random(seed)
    collector = _Collector(frontend, "open")
    recorder = frontend.metrics.latency(f"serving.latency.{Lane.INTERACTIVE.value}")
    tail_samples: List[Optional[float]] = []
    tasks: List[asyncio.Task] = []
    loop = asyncio.get_running_loop()
    start = loop.time()

    async def one(request: QueryRequest) -> None:
        reply = await frontend.submit(request)
        collector.add(request.lane, reply)

    for arrival in range(total_queries):
        if arrival % max(1, poll_every) == 0:
            # None until the first interactive completion lands — the
            # Series.percentile empty-window contract.
            tail_samples.append(recorder.percentile(99.0))
        request = _make_request(rng, sqls, batch_fraction, tenants, timeout_s)
        tasks.append(loop.create_task(one(request)))
        await asyncio.sleep(rng.expovariate(arrival_rate_qps))
    await asyncio.gather(*tasks)
    return collector.report(total_queries, loop.time() - start, tail_samples)
