"""Bounded structured event log for control-plane state transitions.

Metrics answer "how much"; the event log answers "what happened, when,
in what order".  Subsystems emit typed events at their state
transitions — serving admission/rejection/cancellation, WAL group
commits, checkpoint pointer swaps, manifest publish/retire, snapshot
pin/unpin, cache-tier promotion/eviction, compaction start/finish —
and the log retains a bounded ring of the most recent ones, timestamped
on the shared simulated clock.

Deep components do not take an :class:`EventLog` in their constructors;
the owning engine attaches the log to its ``MetricRegistry`` (the one
object already threaded everywhere) and components emit through
:func:`emit_event`, which is a no-op when no log is attached.

Sinks (:class:`JsonlSink`) observe every event *as it is emitted*, so a
JSONL sink sees the full stream even though the in-memory ring is
bounded.
"""

from __future__ import annotations

import json
import threading
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, IO, List, Optional

from repro.simulate.clock import SimulatedClock

# Events retained in memory; the stream keeps flowing to sinks after the
# ring wraps, and ``dropped`` counts what the ring forgot.
DEFAULT_MAX_EVENTS = 4096

# Canonical event types.  Emission is not restricted to this set, but
# everything the engine emits is named here so tests and docs have one
# place to look.
EVENT_TYPES = (
    "serving.admitted",
    "serving.rejected",
    "serving.cancelled",
    "serving.timeout",
    "wal.group_commit",
    "checkpoint.swap",
    "manifest.publish",
    "manifest.retire",
    "snapshot.pin",
    "snapshot.unpin",
    "cache.promotion",
    "cache.eviction",
    "compaction.start",
    "compaction.finish",
    "slo.alert",
    # Process scan plane: a pool worker died mid-scan / was replaced.
    "worker.crash",
    "worker.respawn",
    # Elastic fleet: membership and cold-cache-masking transitions.
    "fleet.scale_out",
    "fleet.scale_in",
    "fleet.preload",
    "fleet.warehouse_ready",
)


@dataclass(frozen=True)
class Event:
    """One structured event: a type, a simulated timestamp, and fields."""

    seq: int
    timestamp: float
    etype: str
    fields: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe flat representation (fields inline, reserved keys first)."""
        out: Dict[str, Any] = {"seq": self.seq, "ts": self.timestamp, "type": self.etype}
        for key, value in self.fields.items():
            if key not in out:
                out[key] = value
        return out


class JsonlSink:
    """Writes each event as one JSON line to a file-like object.

    The sink owns flushing, not closing: pass an open handle (or a path,
    which the sink opens and then does own).  Attach via
    :meth:`EventLog.add_sink`.
    """

    def __init__(self, target: Any) -> None:
        if hasattr(target, "write"):
            self._fh: IO[str] = target
            self._owns = False
        else:
            self._fh = open(target, "a", encoding="utf-8")
            self._owns = True
        self.written = 0

    def __call__(self, event: Event) -> None:
        self._fh.write(json.dumps(event.to_dict(), sort_keys=True) + "\n")
        self.written += 1

    def flush(self) -> None:
        self._fh.flush()

    def close(self) -> None:
        self.flush()
        if self._owns:
            self._fh.close()


class EventLog:
    """Thread-safe bounded ring of :class:`Event` plus pluggable sinks."""

    def __init__(
        self,
        clock: SimulatedClock,
        max_events: int = DEFAULT_MAX_EVENTS,
    ) -> None:
        if max_events < 1:
            raise ValueError(f"max_events must be positive: {max_events}")
        self._clock = clock
        self._lock = threading.Lock()
        self._ring: Deque[Event] = deque(maxlen=max_events)
        self._sinks: List[Callable[[Event], None]] = []
        self._seq = 0
        # Events the bounded ring has forgotten (sinks still saw them).
        self.dropped = 0
        # Per-type totals over the whole stream, not just the ring.
        self._counts: Dict[str, int] = {}

    @property
    def max_events(self) -> int:
        return self._ring.maxlen or 0

    def add_sink(self, sink: Callable[[Event], None]) -> None:
        """Attach a sink invoked synchronously for every future event."""
        with self._lock:
            self._sinks.append(sink)

    def emit(self, etype: str, **fields: Any) -> Event:
        """Record one event at clock-now and fan it out to sinks."""
        with self._lock:
            event = Event(self._seq, self._clock.now, etype, dict(fields))
            self._seq += 1
            if len(self._ring) == self._ring.maxlen:
                self.dropped += 1
            self._ring.append(event)
            self._counts[etype] = self._counts.get(etype, 0) + 1
            sinks = list(self._sinks)
        for sink in sinks:
            sink(event)
        return event

    def events(self, etype: Optional[str] = None) -> List[Event]:
        """Retained events oldest-first, optionally filtered by type."""
        with self._lock:
            retained = list(self._ring)
        if etype is None:
            return retained
        return [event for event in retained if event.etype == etype]

    def last(self, etype: Optional[str] = None) -> Optional[Event]:
        """Most recent retained event (of ``etype`` when given), or None."""
        filtered = self.events(etype)
        return filtered[-1] if filtered else None

    def count(self, etype: str) -> int:
        """Total emissions of ``etype`` over the stream (survives ring wrap)."""
        with self._lock:
            return self._counts.get(etype, 0)

    def summary(self) -> Dict[str, Any]:
        """JSON-safe stream summary for :meth:`MetricsExporter.as_dict`."""
        with self._lock:
            return {
                "total": self._seq,
                "retained": len(self._ring),
                "dropped": self.dropped,
                "by_type": dict(sorted(self._counts.items())),
            }

    def dump_jsonl(self, path: Any) -> int:
        """Write the retained ring to ``path`` as JSONL; returns event count."""
        retained = self.events()
        with open(path, "w", encoding="utf-8") as fh:
            for event in retained:
                fh.write(json.dumps(event.to_dict(), sort_keys=True) + "\n")
        return len(retained)

    def clear(self) -> None:
        """Drop retained events and reset stream accounting."""
        with self._lock:
            self._ring.clear()
            self._counts.clear()
            self._seq = 0
            self.dropped = 0


def emit_event(metrics: Any, etype: str, **fields: Any) -> None:
    """Emit through the EventLog attached to ``metrics``, if any.

    The single emission helper deep components use: a bare
    :class:`MetricRegistry` (whose ``events`` is None until an engine
    attaches its log) silently drops the event.
    """
    log = getattr(metrics, "events", None)
    if log is not None:
        log.emit(etype, **fields)
