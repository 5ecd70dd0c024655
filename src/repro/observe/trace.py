"""Hierarchical trace spans carrying both clocks.

A :class:`Tracer` is threaded through the query path; every layer
boundary (parse, plan, prune, per-segment scan, cache-tier resolution,
serving RPC, delete-bitmap filtering, merge) opens a :class:`Span`.  A
span is the engine's one timing record:

* ``duration`` — the *simulated* seconds its work charged.  Inside a
  :class:`~repro.simulate.clock.CostCapture` (every SELECT stage, every
  segment scan) charges land in the capture instead of moving the clock,
  so the span measures the capture's total; otherwise it measures the
  clock.  Either way sequential children sum to at most their parent.
* ``wall_s`` — the real ``perf_counter`` seconds it took.

One query yields one ``query`` tree whichever path ran it; that tree is
what ``EXPLAIN ANALYZE`` renders, what the slow-query log stores, and
what :func:`profile` folds into a wall-vs-simulated table.
"""

from __future__ import annotations

import threading
from collections import deque
from contextlib import nullcontext
from time import perf_counter
from typing import Any, ContextManager, Dict, Iterable, List, Optional

from repro.simulate.clock import SimulatedClock

# Roots retained by a tracer; old query trees fall off so a long-lived
# engine does not accumulate unbounded trace state.
DEFAULT_MAX_ROOTS = 64

_NULL_CONTEXT: ContextManager[None] = nullcontext()


class Span:
    """One timed operation in a trace tree.

    A span opened by a :class:`Tracer` is its own context manager:
    leaving the ``with`` block finishes it.
    """

    __slots__ = ("name", "start", "end", "duration", "wall_s", "tags",
                 "parent", "children", "_tracer", "_mark", "_wall_start")

    def __init__(
        self,
        name: str,
        start: float,
        parent: Optional["Span"] = None,
        tags: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.name = name
        self.start = start
        self.end: Optional[float] = None
        # Simulated seconds charged / real seconds taken (0.0 while open).
        self.duration = 0.0
        self.wall_s = 0.0
        self.tags: Dict[str, Any] = tags if tags is not None else {}
        self.parent = parent
        self.children: List["Span"] = []
        self._tracer: Optional["Tracer"] = None
        if parent is not None:
            parent.children.append(self)

    @property
    def finished(self) -> bool:
        """Whether :meth:`finish` has been called."""
        return self.end is not None

    def finish(
        self, end: float, duration: Optional[float] = None, wall_s: float = 0.0
    ) -> None:
        """Close the span at simulated timestamp ``end``; ``duration`` is
        what it charged when that is not the clock delta (captured work)."""
        if end < self.start:
            raise ValueError(f"span cannot end before it starts: {end} < {self.start}")
        self.end = end
        self.duration = end - self.start if duration is None else duration
        self.wall_s = wall_s

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._tracer.finish(self)

    def set_tag(self, key: str, value: Any) -> None:
        """Attach or overwrite one tag."""
        self.tags[key] = value

    def find(self, name: str) -> Optional["Span"]:
        """First descendant (depth-first, self included) named ``name``."""
        if self.name == name:
            return self
        for child in self.children:
            found = child.find(name)
            if found is not None:
                return found
        return None

    def find_all(self, name: str) -> List["Span"]:
        """Every descendant (self included) named ``name``, depth-first."""
        out: List["Span"] = []
        if self.name == name:
            out.append(self)
        for child in self.children:
            out.extend(child.find_all(name))
        return out

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe nested representation of the subtree."""
        return {
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "duration": self.duration,
            "wall_s": self.wall_s,
            "tags": dict(self.tags),
            "children": [child.to_dict() for child in self.children],
        }

    def render(self, indent: str = "") -> str:
        """ASCII tree of the subtree: simulated time, tags, wall time."""
        return "\n".join(self._render_lines(indent))

    def _render_lines(self, indent: str) -> List[str]:
        tag_text = ""
        if self.tags:
            inner = ", ".join(f"{k}={_fmt_tag(v)}" for k, v in sorted(self.tags.items()))
            tag_text = f"  [{inner}]"
        lines = [
            f"{indent}{self.name}  {self.duration * 1e3:.3f} sim-ms{tag_text}"
            f"  {self.wall_s * 1e3:.3f} wall-ms"
        ]
        for child in self.children:
            lines.extend(child._render_lines(indent + "  "))
        return lines

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Span({self.name!r}, {self.duration * 1e3:.3f}ms, tags={self.tags})"


def _fmt_tag(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


class _NoopSpan(Span):
    """Shared inert span handed out while a tracer is disabled.

    Callers hold span references and call ``set_tag`` on them; a single
    immutable instance keeps the disabled path allocation-free.
    """

    __slots__ = ()

    def set_tag(self, key: str, value: Any) -> None:
        pass

    def finish(self, *args: Any, **kwargs: Any) -> None:
        pass

    def __exit__(self, *exc_info: object) -> None:
        pass


_NOOP_SPAN = _NoopSpan("tracing-disabled", 0.0)


class _Stack(threading.local):
    """Per-thread stack of open spans."""

    def __init__(self) -> None:
        self.spans: List[Span] = []


class _Under:
    """Makes an already-open span current for a block (see Tracer.under)."""

    __slots__ = ("_spans", "_span", "_depth")

    def __init__(self, spans: List[Span], span: Span) -> None:
        self._spans = spans
        self._span = span

    def __enter__(self) -> Span:
        self._depth = len(self._spans)
        self._spans.append(self._span)
        return self._span

    def __exit__(self, *exc_info: object) -> None:
        del self._spans[self._depth:]


class Tracer:
    """Builds span trees against a :class:`SimulatedClock`.

    The tracer keeps a *per-thread* stack of open spans; :meth:`span`
    opens a child of the calling thread's innermost open span (or a new
    root).  Thread-local stacks keep concurrent queries (the MVCC stress
    path runs searches from many threads) from splicing their spans into
    each other's trees; completed roots are retained (bounded, shared)
    for ``EXPLAIN ANALYZE`` and tests via :meth:`last_root`.

    The stack only nests spans inside one synchronous block.  A span
    that outlives its block — a staged SELECT's ``query`` and ``execute``
    spans across ``yield``s — is held by its owner *off* the stack and
    made current with :meth:`under`.
    """

    def __init__(
        self,
        clock: SimulatedClock,
        max_roots: int = DEFAULT_MAX_ROOTS,
        metrics: Optional[Any] = None,
    ) -> None:
        self._clock = clock
        self._local = _Stack()
        self._roots: "deque[Span]" = deque(maxlen=max_roots)
        self._metrics = metrics
        # Root trees silently truncated by the retention bound; long
        # soak runs watch this (also exported as ``trace.roots_dropped``)
        # to know their trace history is incomplete.
        self.roots_dropped = 0
        # When False, span()/start() hand out an inert shared span and
        # record nothing — the tracing-off baseline for overhead benches.
        self.enabled = True

    @property
    def current(self) -> Optional[Span]:
        """The calling thread's innermost open span, or None."""
        spans = self._local.spans
        return spans[-1] if spans else None

    @property
    def roots(self) -> List[Span]:
        """Retained root spans, oldest first."""
        return list(self._roots)

    def last_root(self) -> Optional[Span]:
        """The most recently *started* root span, or None."""
        return self._roots[-1] if self._roots else None

    def open(self, name: str, parent: Optional[Span] = None, **tags: Any) -> Span:
        """Open a span its owner holds *off* the stack — a new retained
        root, or a child of ``parent``.  Nothing nests under it except
        inside :meth:`under`; the owner must :meth:`finish` it."""
        if not self.enabled:
            return _NOOP_SPAN
        return self._open(name, parent, tags)

    def start(self, name: str, **tags: Any) -> Span:
        """Open a child of the calling thread's innermost open span (or
        a root) and make it current.  The span is a context manager;
        otherwise the caller must :meth:`finish` it."""
        if not self.enabled:
            return _NOOP_SPAN
        spans = self._local.spans
        span = self._open(name, spans[-1] if spans else None, tags)
        spans.append(span)
        return span

    span = start  # the name ``with tracer.span(...)`` call sites read best with

    def _open(self, name: str, parent: Optional[Span], tags: Dict[str, Any]) -> Span:
        now, span_mark = self._clock.meter()
        span = Span(name, now, parent, tags)
        span._tracer = self
        span._mark = span_mark
        if parent is None:
            if len(self._roots) == self._roots.maxlen:
                self.roots_dropped += 1
                if self._metrics is not None:
                    self._metrics.incr("trace.roots_dropped")
            self._roots.append(span)
        span._wall_start = perf_counter()
        return span

    def finish(self, span: Span) -> None:
        """Close ``span``, wherever it is: on the calling thread's stack
        (deeper spans left open close with it) or held off it."""
        wall = perf_counter()
        if span is _NOOP_SPAN:
            return
        if span._tracer is not self:
            raise ValueError(f"span {span.name!r} is not open on this tracer")
        now, reading = self._clock.meter()
        spans = self._local.spans
        if spans and spans[-1] is span:
            spans.pop()
        elif span in spans:
            while (top := spans.pop()) is not span:
                top.finish(now, reading - top._mark, wall - top._wall_start)
        span.end = now
        span.duration = reading - span._mark
        span.wall_s = wall - span._wall_start

    def under(self, span: Span) -> ContextManager[Any]:
        """Make an already-open ``span`` current for a block.

        Spans opened in the block nest under it; on exit the stack is
        back where it was.
        """
        if span is _NOOP_SPAN or not self.enabled:
            return _NULL_CONTEXT
        return _Under(self._local.spans, span)

    def annotate(self, key: str, value: Any) -> None:
        """Tag the innermost open span; no-op when no span is open.

        Lets deep components (cache tiers, RPC fabric) attribute facts
        to whatever operation is in flight without being handed the span.
        """
        spans = self._local.spans
        if spans:
            spans[-1].set_tag(key, value)

    def reset(self) -> None:
        """Drop retained roots and abandon any open spans."""
        self._local.spans.clear()
        self._roots.clear()


def maybe_span(
    tracer: Optional[Tracer], name: str, **tags: Any
) -> ContextManager[Optional[Span]]:
    """``tracer.span`` when a tracer is present, else a shared no-op
    context (yielding None)."""
    if tracer is None:
        return _NULL_CONTEXT
    return tracer.start(name, **tags)


def profile(roots: Iterable[Span]) -> Dict[str, Dict[str, Any]]:
    """Fold span trees into per-span-name totals, widest wall time first.

    ``{name: {calls, wall_s, sim_s, wall_per_sim}}`` — times are
    inclusive of children; ``wall_per_sim`` is the real python seconds
    spent per simulated second modelled (None where nothing was charged).
    This is the whole wall-clock profiler: a view over what the tracer
    already retained.
    """
    totals: Dict[str, Dict[str, Any]] = {}
    pending = list(roots)
    while pending:
        span = pending.pop()
        pending.extend(span.children)
        row = totals.setdefault(span.name, {"calls": 0, "wall_s": 0.0, "sim_s": 0.0})
        row["calls"] += 1
        row["wall_s"] += span.wall_s
        row["sim_s"] += span.duration
    for row in totals.values():
        row["wall_per_sim"] = row["wall_s"] / row["sim_s"] if row["sim_s"] > 0 else None
    return dict(sorted(totals.items(), key=lambda item: -item[1]["wall_s"]))
