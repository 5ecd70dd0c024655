"""Simulated intra-warehouse RPC.

Calls between workers go through an :class:`RpcFabric`, which charges
the round-trip plus payload-transfer cost to the shared clock and routes
to the target's registered handler.  Failure injection marks endpoints
unreachable so fault-tolerance paths can be exercised.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional

from repro.errors import WorkerUnavailableError
from repro.executor.cancel import CancelToken
from repro.observe.trace import Tracer
from repro.simulate.clock import SimulatedClock
from repro.simulate.costmodel import DeviceCostModel
from repro.simulate.metrics import MetricRegistry

Handler = Callable[..., Any]


class RpcEndpoint:
    """One worker's set of callable RPC methods."""

    def __init__(self, owner_id: str) -> None:
        self.owner_id = owner_id
        self._methods: Dict[str, Handler] = {}
        self.reachable = True

    def register(self, method: str, handler: Handler) -> None:
        """Expose ``handler`` under ``method``."""
        self._methods[method] = handler

    def invoke(self, method: str, *args: Any, **kwargs: Any) -> Any:
        """Dispatch to a registered handler.

        Raises
        ------
        WorkerUnavailableError
            If the method is not registered (treated as unreachable).
        """
        handler = self._methods.get(method)
        if handler is None:
            raise WorkerUnavailableError(
                f"{self.owner_id} exposes no RPC method {method!r}"
            )
        return handler(*args, **kwargs)


class RpcFabric:
    """Routes calls between endpoints, charging network cost."""

    def __init__(
        self,
        clock: SimulatedClock,
        cost: DeviceCostModel,
        metrics: MetricRegistry,
        tracer: Tracer,
    ) -> None:
        self._clock = clock
        self._cost = cost
        self._metrics = metrics
        self._tracer = tracer
        self._endpoints: Dict[str, RpcEndpoint] = {}

    def endpoint(self, worker_id: str) -> RpcEndpoint:
        """The endpoint for ``worker_id``, created on first use."""
        if worker_id not in self._endpoints:
            self._endpoints[worker_id] = RpcEndpoint(worker_id)
        return self._endpoints[worker_id]

    def remove(self, worker_id: str) -> None:
        """Tear down a worker's endpoint (worker left the warehouse)."""
        self._endpoints.pop(worker_id, None)

    def set_reachable(self, worker_id: str, reachable: bool) -> None:
        """Failure injection: mark an endpoint (un)reachable."""
        self.endpoint(worker_id).reachable = reachable

    def call(
        self,
        target_id: str,
        method: str,
        request_bytes: int,
        response_bytes: int,
        *args: Any,
        cancel: Optional[CancelToken] = None,
        **kwargs: Any,
    ) -> Any:
        """Invoke ``method`` on ``target_id``, charging RPC cost.

        Raises
        ------
        WorkerUnavailableError
            If the target endpoint does not exist or is marked down.
        QueryCancelledError
            If ``cancel`` was set before dispatch; nothing is charged.
        """
        if cancel is not None:
            cancel.raise_if_cancelled()
        endpoint = self._endpoints.get(target_id)
        if endpoint is None or not endpoint.reachable:
            self._metrics.incr("rpc.failures")
            raise WorkerUnavailableError(f"worker {target_id!r} is unreachable")
        with self._tracer.span("rpc.call", target=target_id, method=method):
            cost = self._cost.rpc_call(request_bytes, response_bytes)
            self._clock.advance(cost)
            self._metrics.incr("rpc.calls")
            self._metrics.record_latency("rpc.latency", cost)
            return endpoint.invoke(method, *args, **kwargs)
