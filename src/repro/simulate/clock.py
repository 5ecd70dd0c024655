"""A simulated clock that operators charge costs to.

The clock is a monotonically non-decreasing float measured in seconds.
Components never sleep; they call :meth:`SimulatedClock.advance` with the
cost of the work they model.  Benchmarks measure simulated elapsed time
with :meth:`SimulatedClock.elapsed_since`.

A clock may be *frozen* for code paths that must not accrue simulated cost
(e.g. building ground truth for recall measurement).
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Iterator, List, Tuple


class CostCapture:
    """Accumulator receiving charges while a capture context is active.

    A plain (not generator-based) context manager: every segment scan of
    every SELECT sits inside one."""

    __slots__ = ("total", "_stack")

    def __init__(self, stack: List["CostCapture"]) -> None:
        self.total = 0.0
        self._stack = stack

    def add(self, seconds: float) -> None:
        """Record a charge without moving the clock."""
        self.total += seconds

    def __enter__(self) -> "CostCapture":
        self._stack.append(self)
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._stack.pop()


class SimulatedClock:
    """Monotonic simulated time in seconds.

    Parameters
    ----------
    start:
        Initial timestamp.  Defaults to zero.
    """

    def __init__(self, start: float = 0.0) -> None:
        if start < 0:
            raise ValueError("clock cannot start before time zero")
        self._now = float(start)
        self._frozen_depth = 0
        # Capture stacks are per-thread: a parallel fan-out opens one
        # capture in each worker thread, and every charge a thread makes
        # (distance kernels, column reads, index loads) lands in *its*
        # capture without racing the shared timeline.
        self._captures_local = threading.local()
        self._lock = threading.Lock()

    @property
    def _captures(self) -> List[CostCapture]:
        """The calling thread's capture stack (created on first use)."""
        stack = getattr(self._captures_local, "stack", None)
        if stack is None:
            stack = []
            self._captures_local.stack = stack
        return stack

    @property
    def now(self) -> float:
        """Current simulated timestamp in seconds."""
        return self._now

    @property
    def frozen(self) -> bool:
        """Whether :meth:`advance` calls are currently ignored."""
        return self._frozen_depth > 0

    def advance(self, seconds: float) -> float:
        """Charge ``seconds`` of simulated work; returns the new timestamp.

        Negative charges are rejected because simulated time is monotonic.
        While the clock is frozen the charge is dropped; while a capture
        is active the charge accumulates there instead of moving time.
        """
        if seconds < 0:
            raise ValueError(f"cannot advance clock by negative time: {seconds}")
        if self.frozen:
            return self._now
        captures = self._captures
        if captures:
            captures[-1].add(seconds)
            return self._now
        with self._lock:
            self._now += seconds
            return self._now

    def meter(self) -> Tuple[float, float]:
        """``(now, reading)`` for whoever times work on this clock (trace
        spans): the timestamp, and a reading of whatever the calling
        thread's charges are moving right now — its innermost capture's
        total, else the clock itself.  The difference of two readings is
        what the work between them charged."""
        captures = getattr(self._captures_local, "stack", None)
        now = self._now
        return now, (captures[-1].total if captures else now)

    def advance_to(self, timestamp: float) -> float:
        """Move the clock forward to ``timestamp`` if it is in the future.

        Used by schedulers that wait for an event completing at a known
        time; moving to a past timestamp is a no-op (never rewinds).
        """
        if not self.frozen:
            with self._lock:
                if timestamp > self._now:
                    self._now = timestamp
        return self._now

    def elapsed_since(self, mark: float) -> float:
        """Simulated seconds elapsed since ``mark``."""
        return self._now - mark

    @contextmanager
    def paused(self) -> Iterator["SimulatedClock"]:
        """Context manager under which :meth:`advance` is a no-op.

        Nested pauses are supported; the clock resumes when the outermost
        pause exits.
        """
        self._frozen_depth += 1
        try:
            yield self
        finally:
            self._frozen_depth -= 1

    def capturing(self) -> CostCapture:
        """Record charges into an accumulator instead of advancing time.

        Used to model parallelism: a virtual warehouse captures each
        worker's charged cost separately, then advances the clock by the
        *maximum* (the makespan), not the sum.

        Capture stacks are thread-local, so concurrent fan-out threads
        each capture their own charges; the shared timeline only moves
        when the coordinating thread advances it by the makespan.
        """
        return CostCapture(self._captures)

    def reset(self, start: float = 0.0) -> None:
        """Rewind the clock (only sensible between independent runs)."""
        if start < 0:
            raise ValueError("clock cannot start before time zero")
        self._now = float(start)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "frozen" if self.frozen else "running"
        return f"SimulatedClock(now={self._now:.6f}, {state})"
