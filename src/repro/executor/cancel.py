"""Cooperative query cancellation.

A :class:`CancelToken` is handed to a query at submission and checked at
every scan boundary — before every segment either scan backend (the
in-process loop, a virtual warehouse's workers) scans, between the
SELECT's stages, and before every RPC dispatch.  Setting the token does
not interrupt a kernel mid-flight (numpy calls are not interruptible);
execution unwinds at the next boundary by raising
:class:`~repro.errors.QueryCancelledError`, which the serving tier
catches while releasing the query's snapshot pin.

The token is thread-safe and one-way: once cancelled it stays cancelled,
so a fan-out task observing it late still aborts instead of racing a
reset.
"""

from __future__ import annotations

import threading

from repro.errors import QueryCancelledError


class CancelToken:
    """Thread-safe one-way cancellation flag checked at scan boundaries."""

    __slots__ = ("_event", "reason")

    def __init__(self) -> None:
        self._event = threading.Event()
        self.reason = ""

    def cancel(self, reason: str = "cancelled") -> None:
        """Set the flag; later checks raise. Idempotent (first reason wins)."""
        if not self._event.is_set():
            self.reason = reason or "cancelled"
        self._event.set()

    @property
    def cancelled(self) -> bool:
        """Whether :meth:`cancel` has been called."""
        return self._event.is_set()

    def raise_if_cancelled(self) -> None:
        """Raise :class:`QueryCancelledError` when the token is set.

        Raises
        ------
        QueryCancelledError
            If the token has been cancelled.
        """
        if self._event.is_set():
            raise QueryCancelledError(self.reason or "query cancelled")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = f"cancelled: {self.reason!r}" if self.cancelled else "live"
        return f"CancelToken({state})"
