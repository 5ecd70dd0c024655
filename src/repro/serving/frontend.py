"""The asyncio serving front-end: admission, lanes, quotas, timeouts.

:class:`ServingFrontend` sits between client sessions and one
:class:`~repro.core.database.BlendHouse` engine and provides the
flow-control a cloud deployment needs under heavy concurrent traffic:

* **Admission control** — at most ``max_inflight`` queries execute at
  once; excess queries queue up to ``max_queue_depth``, beyond which
  they are rejected immediately rather than building an unbounded
  backlog.
* **Priority lanes** — queued interactive queries are always granted
  slots before queued batch queries.
* **Per-tenant quotas** — a tenant may hold at most ``tenant_quota``
  queries in flight (queued + running); the next one bounces with
  ``rejected_quota``.
* **Timeout / cancellation** — a request's own deadline
  (``QueryRequest.timeout_s``) or a disconnect cancels the
  query *wherever* it is: waiting for a slot, or mid-execution, where
  the staged generator's ``finally`` releases the MVCC snapshot pin and
  the query's :class:`~repro.executor.cancel.CancelToken` stops segment
  scans and serving RPCs at the next boundary.  No pin ever leaks.

Execution itself drives the engine's ``select_stages``: each stage's
simulated advance becomes an ``await asyncio.sleep`` on the
(virtual-time) event loop — stages that advance nothing are not awaited
— so thousands of queries genuinely contend for slots on one timeline
while every latency number stays deterministic.
"""

from __future__ import annotations

import asyncio
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, Optional

from repro.core.database import BlendHouse
from repro.errors import (
    AdmissionRejectedError,
    QueryCancelledError,
    ServingError,
    TenantQuotaExceededError,
)
from repro.executor.pipeline import QueryResult
from repro.observe.events import emit_event
from repro.serving.session import Lane, QueryReply, QueryRequest, Session

_LANE_ORDER = (Lane.INTERACTIVE, Lane.BATCH)


@dataclass
class ServingConfig:
    """Serving-tier flow-control knobs."""

    # Concurrent executing queries; the admission-control cap.
    max_inflight: int = 8
    # Queries allowed to wait for a slot before rejections start.
    max_queue_depth: int = 64
    # Per-tenant in-flight (queued + running) cap; 0 = unlimited.
    tenant_quota: int = 0
    # Multiplier on every stage's simulated advance: what-if derating
    # for capacity planning, and the CI gate's fault-injection lever
    # (SERVING_SLOWDOWN=2 must trip the regression check).
    time_scale: float = 1.0


class ServingFrontend:
    """Admission-controlled async facade over one BlendHouse engine."""

    def __init__(
        self, db: BlendHouse, config: Optional[ServingConfig] = None
    ) -> None:
        self.db = db
        self.config = config or ServingConfig()
        self.metrics = db.metrics
        # Optional SLOMonitor observing every reply (see observe/slo.py);
        # benches attach one to assert burn-rate behaviour.
        self.slo = None
        self._running = 0
        self._queues: Dict[Lane, Deque[asyncio.Future]] = {
            lane: deque() for lane in _LANE_ORDER
        }
        self._tenant_inflight: Dict[str, int] = {}
        self._next_session = 0
        self._open_sessions = 0
        # Bridges loop time onto the engine's simulated clock: engine
        # now == _epoch + loop.time() while _epoch_loop is running.
        self._epoch = 0.0
        self._epoch_loop: Optional[asyncio.AbstractEventLoop] = None

    # ------------------------------------------------------------------
    # Sessions
    # ------------------------------------------------------------------
    def session(
        self,
        tenant: str = "default",
        lane: Lane = Lane.INTERACTIVE,
        timeout_s: Optional[float] = None,
    ) -> Session:
        """Open a connection-level handle bound to this front-end."""
        self._next_session += 1
        self._open_sessions += 1
        self.metrics.gauge("serving.open_sessions", self._open_sessions)
        return Session(
            self, self._next_session, tenant=tenant, lane=lane,
            timeout_s=timeout_s,
        )

    def _session_closed(self, session_id: int) -> None:
        self._open_sessions = max(0, self._open_sessions - 1)
        self.metrics.gauge("serving.open_sessions", self._open_sessions)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def running(self) -> int:
        """Queries currently holding an execution slot."""
        return self._running

    @property
    def queued(self) -> int:
        """Queries currently waiting for a slot across all lanes."""
        return sum(
            sum(0 if fut.done() else 1 for fut in queue)
            for queue in self._queues.values()
        )

    def tenant_inflight(self, tenant: str) -> int:
        """Queued + running queries charged to ``tenant``."""
        return self._tenant_inflight.get(tenant, 0)

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    async def submit(self, request: QueryRequest) -> QueryReply:
        """Run one request through admission and execution.

        Flow-control failures come back as reply statuses, never
        exceptions — a load generator can count rejections without
        try/except around every call.
        """
        lane = request.lane
        self.metrics.incr("serving.requests")
        self.metrics.incr(f"serving.requests.{lane.value}")
        quota = self.config.tenant_quota
        if quota > 0 and self._tenant_inflight.get(request.tenant, 0) >= quota:
            self.metrics.incr("serving.rejected_quota")
            emit_event(
                self.metrics, "serving.rejected", reason="quota",
                tenant=request.tenant, lane=lane.value,
            )
            reply = QueryReply(
                status="rejected_quota",
                error=f"tenant {request.tenant!r} has {quota} queries in flight",
            )
            self._record_reply(request, reply)
            return reply
        if (
            self._running >= self.config.max_inflight
            and self.queued >= self.config.max_queue_depth
        ):
            self.metrics.incr("serving.rejected_admission")
            emit_event(
                self.metrics, "serving.rejected", reason="admission",
                tenant=request.tenant, lane=lane.value,
                running=self._running, queued=self.queued,
            )
            reply = QueryReply(
                status="rejected_admission",
                error=(
                    f"saturated: {self._running} running, "
                    f"{self.queued} queued"
                ),
            )
            self._record_reply(request, reply)
            return reply
        self._tenant_inflight[request.tenant] = (
            self._tenant_inflight.get(request.tenant, 0) + 1
        )
        loop = asyncio.get_running_loop()
        submitted = loop.time()
        timeout = request.timeout_s
        reply: QueryReply
        try:
            reply = await asyncio.wait_for(
                self._admit_and_run(request, submitted), timeout
            )
        except asyncio.TimeoutError:
            request.cancel.cancel("timeout")
            self.metrics.incr("serving.timeouts")
            emit_event(
                self.metrics, "serving.timeout", tenant=request.tenant,
                lane=lane.value, timeout_s=timeout,
            )
            reply = QueryReply(
                status="timeout",
                error=f"deadline of {timeout}s exceeded",
                latency_s=loop.time() - submitted,
            )
        except QueryCancelledError as exc:
            self.metrics.incr("serving.cancelled")
            emit_event(
                self.metrics, "serving.cancelled", tenant=request.tenant,
                lane=lane.value, reason=str(exc),
            )
            reply = QueryReply(
                status="cancelled", error=str(exc),
                latency_s=loop.time() - submitted,
            )
        except asyncio.CancelledError:
            # The submitter's task itself was cancelled (client gone):
            # flag the token so engine-level checks fire, then propagate.
            request.cancel.cancel("client disconnected")
            self.metrics.incr("serving.cancelled")
            emit_event(
                self.metrics, "serving.cancelled", tenant=request.tenant,
                lane=lane.value, reason="client disconnected",
            )
            raise
        except Exception as exc:  # engine errors surface as replies too
            self.metrics.incr("serving.errors")
            reply = QueryReply(
                status="error", error=f"{type(exc).__name__}: {exc}",
                latency_s=loop.time() - submitted,
            )
        finally:
            remaining = self._tenant_inflight.get(request.tenant, 0) - 1
            if remaining > 0:
                self._tenant_inflight[request.tenant] = remaining
            else:
                self._tenant_inflight.pop(request.tenant, None)
        self._record_reply(request, reply)
        return reply

    def unwrap(self, reply: QueryReply) -> QueryResult:
        """The reply's result, or the matching exception for failures.

        Raises
        ------
        AdmissionRejectedError, TenantQuotaExceededError,
        QueryCancelledError, ServingError
            Depending on the reply status.
        """
        if reply.ok and reply.result is not None:
            return reply.result
        message = reply.error or reply.status
        if reply.status == "rejected_admission":
            raise AdmissionRejectedError(message)
        if reply.status == "rejected_quota":
            raise TenantQuotaExceededError(message)
        if reply.status in ("timeout", "cancelled"):
            raise QueryCancelledError(message)
        raise ServingError(message)

    # ------------------------------------------------------------------
    # Slot dispatch
    # ------------------------------------------------------------------
    async def _admit_and_run(
        self, request: QueryRequest, submitted: float
    ) -> QueryReply:
        loop = asyncio.get_running_loop()
        await self._acquire_slot(request.lane)
        granted = loop.time()
        emit_event(
            self.metrics, "serving.admitted", tenant=request.tenant,
            lane=request.lane.value, queue_wait_s=granted - submitted,
        )
        try:
            result, flight = await self._run_stages(request)
        finally:
            self._release_slot()
        finished = loop.time()
        root = flight["trace"]  # the query's one tree: say who it served
        root.set_tag("lane", request.lane.value)
        root.set_tag("tenant", request.tenant)
        root.set_tag("queue_wait_s", round(granted - submitted, 9))
        return QueryReply(
            status="ok",
            result=result,
            queue_wait_s=granted - submitted,
            service_s=finished - granted,
            latency_s=finished - submitted,
            flight=flight,
        )

    async def _acquire_slot(self, lane: Lane) -> None:
        # Invariant: a non-empty queue implies every slot is taken —
        # _pump() drains waiters whenever a slot frees — so the fast
        # path cannot overtake queued queries.
        if self._running < self.config.max_inflight:
            self._running += 1
            return
        loop = asyncio.get_running_loop()
        fut: asyncio.Future = loop.create_future()
        self._queues[lane].append(fut)
        self.metrics.gauge("serving.queue_depth", self.queued)
        try:
            await fut
        except asyncio.CancelledError:
            if fut.done() and not fut.cancelled():
                # The slot was granted in the same tick the wait was
                # cancelled; hand it to the next waiter.
                self._release_slot()
            else:
                try:
                    self._queues[lane].remove(fut)
                except ValueError:
                    pass
            raise

    def _release_slot(self) -> None:
        self._running -= 1
        self._pump()

    def _pump(self) -> None:
        """Grant free slots to waiters, interactive before batch."""
        while self._running < self.config.max_inflight:
            fut: Optional[asyncio.Future] = None
            for lane in _LANE_ORDER:
                queue = self._queues[lane]
                while queue and queue[0].done():
                    queue.popleft()
                if queue:
                    fut = queue.popleft()
                    break
            if fut is None:
                return
            self._running += 1
            fut.set_result(None)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    async def _run_stages(
        self, request: QueryRequest
    ) -> "tuple[QueryResult, Optional[Dict[str, object]]]":
        """Drive the staged generator, sleeping each stage's advance.

        Only a stage that moves time is awaited, and the clock is synced
        only after time moved.  Awaiting a zero-advance stage (``pin``,
        each ``segment:<id>``) would cost an event-loop pass and change
        nothing: on the virtual loop no timer can fire until the running
        query sleeps, and the engine itself checks the query's
        ``CancelToken`` before every segment it scans.

        Closing the generator (any exception at the awaits, including
        cancellation) releases the snapshot pin via its ``finally``.
        """
        # One signature on whatever engine this fronts; a fleet engine
        # routes each query by (tenant, lane) to one warehouse.
        stages = self.db.select_stages(
            request.sql, cancel=request.cancel,
            tenant=request.tenant, lane=request.lane.value,
        )
        try:
            self._sync_clock()
            for stage in stages:
                advance = stage.advance_s * self.config.time_scale
                if advance > 0:
                    await asyncio.sleep(advance)
                    self._sync_clock()
        finally:
            stages.close()
            self._sync_clock()
        # The generator ends on its finish stage.
        return stage.result, stage.flight

    def _sync_clock(self) -> None:
        """Pull the engine's simulated clock up to serving virtual time.

        Stage costs are captured (never applied) during staged
        execution, so the loop's timeline is authoritative; the shared
        clock follows it so engine-side timestamps (spans, throughput
        windows) line up with serving latencies.
        """
        loop = asyncio.get_running_loop()
        if loop is not self._epoch_loop:
            self._epoch_loop = loop
            self._epoch = self.db.clock.now - loop.time()
        self.db.clock.advance_to(self._epoch + loop.time())

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------
    def _record_reply(self, request: QueryRequest, reply: QueryReply) -> None:
        lane = request.lane
        if self.slo is not None:
            # Every terminal outcome feeds the SLO monitor — rejections
            # count against the availability objective, completions
            # against the latency objective.
            self.slo.observe_reply(lane.value, reply)
        if not reply.ok:
            return
        self.metrics.incr("serving.completed")
        self.metrics.record_latency(
            f"serving.latency.{lane.value}", reply.latency_s
        )
        self.metrics.record_latency(
            f"serving.queue_wait.{lane.value}", reply.queue_wait_s
        )
        self.metrics.record_latency("serving.service", reply.service_s)
        self.db.offer_flight(
            request.sql, reply.latency_s, reply.flight,
            lane=lane.value, tenant=request.tenant,
            queue_wait_s=reply.queue_wait_s,
        )
