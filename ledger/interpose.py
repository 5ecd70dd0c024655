"""Span recording from outside the program: the interposition table.

The traced run wraps a fixed table of the layers' public callables with
shims that record ``{name, start, end, parent, op_id}`` spans using
``time.perf_counter_ns``.  Nothing under ``src/`` is edited: module-level
functions are rebound in every ``repro`` module that imported them, and
methods are rebound on their class.  :meth:`Interposer.restore` puts
every original back.

The current span lives in a :class:`contextvars.ContextVar`, so the
parent link survives ``await`` (each asyncio task carries its own
context) and generator ``yield`` (a staged SELECT records one span per
``next()``, opened and closed inside that call).

A span's *self time* is its duration minus the part covered by its
child spans.  Coroutine spans of two interleaved clients overlap on the
one thread, so for those the per-name total is the union of their
intervals minus their children (see :func:`summarize`).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from contextvars import ContextVar
from dataclasses import dataclass
from time import perf_counter_ns
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

# Span record layout (a list, mutated once at close).
NAME, START, END, PARENT, OP, ASYNC, VALUE = range(7)

_CURRENT: ContextVar[int] = ContextVar("ledger_span", default=-1)
_MISSING = object()

# Layer names are this repository's modules; a span belongs to the layer
# that is the longest prefix of its name.
LAYERS = (
    "sqlparser", "planner", "partition", "storage.manifest", "core", "executor",
    "vindex", "storage.cache", "storage.objectstore", "serving", "cluster",
    "elastic", "ingest", "durability", "storage.compaction", "catalog",
)


def layer_of(span_name: str) -> str:
    matches = [layer for layer in LAYERS if span_name.startswith(layer + ".")]
    return max(matches, key=len)


@dataclass(frozen=True)
class Point:
    """One interposed callable: ``module:attr`` or ``module:Class.method``."""

    span: str
    module: str
    attr: str
    # Optional: a number derived from the call's result, kept on the span.
    value: Optional[Callable[[Any], float]] = None


def _rows_rewritten(results: List[Any]) -> float:
    return float(sum(result.rows_out for result in results))


_STATIC_POINTS: Tuple[Point, ...] = (
    Point("sqlparser.parse", "repro.sqlparser.parser", "parse_statement"),
    Point("planner.bind", "repro.planner.logical", "bind_select"),
    Point("planner.rules", "repro.planner.rules", "apply_rules"),
    Point("planner.choose", "repro.planner.optimizer", "Optimizer.choose"),
    Point("planner.rebind", "repro.planner.optimizer", "PhysicalPlan.rebound"),
    Point("planner.cache_lookup", "repro.planner.plancache", "PlanCache.lookup"),
    Point("planner.cache_store", "repro.planner.plancache", "PlanCache.store"),
    Point("partition.prune_scalar", "repro.partition.pruning", "prune_segments_scalar"),
    Point("partition.select_semantic", "repro.partition.pruning", "select_semantic_candidates"),
    Point("storage.manifest.snapshot", "repro.storage.lsm", "SegmentManager.snapshot"),
    Point("storage.manifest.bitmap", "repro.storage.manifest", "Snapshot.bitmap"),
    Point("storage.manifest.release", "repro.storage.manifest", "Snapshot.release"),
    Point("storage.manifest.publish", "repro.storage.manifest", "ManifestStore.publish"),
    Point("core.execute", "repro.core.database", "BlendHouse.execute"),
    Point("core.select_stages.step", "repro.core.database", "BlendHouse.select_stages"),
    Point("core.insert_columns", "repro.core.database", "BlendHouse.insert_columns"),
    Point("core.resolve_index", "repro.core.table", "TableRuntime.resolve_index_at"),
    Point("executor.scan", "repro.executor.pipeline", "execute_segment"),
    Point("executor.merge", "repro.executor.pipeline", "merge_and_project"),
    Point("executor.columnio", "repro.executor.columnio", "ColumnReader.fetch"),
    Point("vindex.deserialize", "repro.vindex.registry", "deserialize_index"),
    Point("vindex.serialize", "repro.vindex.registry", "serialize_index"),
    Point("storage.cache.get", "repro.storage.cache", "HierarchicalIndexCache.get"),
    Point("storage.cache.preload", "repro.storage.cache", "HierarchicalIndexCache.preload"),
    Point("storage.objectstore.put", "repro.storage.objectstore", "ObjectStore.put"),
    Point("storage.objectstore.get", "repro.storage.objectstore", "ObjectStore.get"),
    Point("storage.objectstore.get", "repro.storage.objectstore", "ObjectStore.get_range"),
    Point("serving.submit", "repro.serving.frontend", "ServingFrontend.submit"),
    Point("cluster.warehouse.execute", "repro.cluster.warehouse", "VirtualWarehouse.execute_query"),
    Point("cluster.warehouse.scans", "repro.cluster.warehouse", "VirtualWarehouse.capture_scans"),
    Point("cluster.warehouse.merge", "repro.cluster.warehouse", "VirtualWarehouse.merge_partials"),
    Point("cluster.scheduler.assign", "repro.cluster.scheduler", "SegmentScheduler.assign"),
    Point("cluster.rpc", "repro.cluster.rpc", "RpcFabric.call"),
    Point("cluster.worker.resolve", "repro.cluster.worker", "Worker.resolve_provider"),
    Point("elastic.execute", "repro.elastic.engine", "FleetBlendHouse.execute"),
    Point("elastic.route", "repro.elastic.fleet", "WarehouseFleet.route"),
    Point("elastic.route", "repro.elastic.router", "FleetRouter.route"),
    Point("elastic.scale_out", "repro.elastic.fleet", "WarehouseFleet.add_warehouse"),
    Point("elastic.scale_in", "repro.elastic.fleet", "WarehouseFleet.remove_warehouse"),
    Point("elastic.poll", "repro.elastic.fleet", "WarehouseFleet.poll"),
    Point("elastic.preload", "repro.elastic.preloader", "BackgroundPreloader.warm"),
    Point("ingest.write", "repro.ingest.writer", "SegmentWriter.ingest_columns"),
    Point("ingest.delete", "repro.ingest.update", "apply_delete"),
    Point("ingest.update", "repro.ingest.update", "apply_update"),
    Point("durability.wal.append", "repro.durability.wal", "WriteAheadLog.append"),
    Point("durability.wal.flush", "repro.durability.wal", "WriteAheadLog.flush"),
    Point("durability.checkpoint", "repro.durability.checkpoint", "Checkpointer.write"),
    Point("durability.recover", "repro.core.database", "BlendHouse.restart"),
    Point("storage.compaction.run", "repro.storage.compaction", "Compactor.run_once",
          value=_rows_rewritten),
    Point("catalog.statistics.refresh", "repro.catalog.statistics", "TableStatistics.refresh"),
)

_VINDEX_METHODS = {
    "search_with_filter": "vindex.search",
    "search_with_range": "vindex.search",
    "search_iterator": "vindex.search",
    "next_batch": "vindex.search",
    "train": "vindex.build",
    "add_with_ids": "vindex.build",
}


def _all_subclasses(cls: type) -> List[type]:
    found: List[type] = []
    for sub in cls.__subclasses__():
        found.append(sub)
        found.extend(_all_subclasses(sub))
    return found


def points() -> List[Point]:
    """The full table: the static entries plus, for every index and
    iterator class the registry knows, the search/build methods that
    class defines itself."""
    from repro.vindex.api import VectorIndex
    from repro.vindex.iterator import SearchIterator

    table = list(_STATIC_POINTS)
    for base in (VectorIndex, SearchIterator):
        for cls in [base] + _all_subclasses(base):
            for method, span in _VINDEX_METHODS.items():
                raw = cls.__dict__.get(method)
                if inspect.isfunction(raw) and not getattr(raw, "__isabstractmethod__", False):
                    table.append(Point(span, cls.__module__, f"{cls.__name__}.{method}"))
    return table


class Recorder:
    """In-memory span store; ``on`` gates recording without uninstalling."""

    def __init__(self) -> None:
        self.on = False
        self.names: List[str] = []
        self.spans: List[list] = []

    def name_index(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for span_id, span in enumerate(self.spans):
                name = self.names[span[NAME]]
                out.write(json.dumps({
                    "id": span_id, "name": name, "layer": layer_of(name),
                    "start": span[START], "end": span[END],
                    "parent": span[PARENT], "op_id": span[OP],
                }) + "\n")


def _open(recorder: Recorder, name_idx: int, is_async: bool) -> Tuple[int, Any]:
    spans = recorder.spans
    parent = _CURRENT.get()
    span_id = len(spans)
    op = spans[parent][OP] if parent >= 0 else span_id
    span = [name_idx, 0, 0, parent, op, is_async, 0.0]
    spans.append(span)
    token = _CURRENT.set(span_id)
    span[START] = perf_counter_ns()
    return span_id, token


def _close(recorder: Recorder, span_id: int, token: Any) -> None:
    recorder.spans[span_id][END] = perf_counter_ns()
    _CURRENT.reset(token)


def _make_shim(recorder: Recorder, point: Point, original: Callable) -> Callable:
    name_idx = recorder.name_index(point.span)
    value_of = point.value

    if inspect.iscoroutinefunction(original):
        @functools.wraps(original)
        async def async_shim(*args: Any, **kwargs: Any) -> Any:
            if not recorder.on:
                return await original(*args, **kwargs)
            span_id, token = _open(recorder, name_idx, True)
            try:
                return await original(*args, **kwargs)
            finally:
                _close(recorder, span_id, token)
        return async_shim

    if inspect.isgeneratorfunction(original):
        @functools.wraps(original)
        def generator_shim(*args: Any, **kwargs: Any) -> Iterator[Any]:
            inner = original(*args, **kwargs)
            try:
                while True:
                    if not recorder.on:
                        try:
                            item = next(inner)
                        except StopIteration:
                            return
                    else:
                        # One span per step, opened and closed inside this
                        # next(): nothing is held across the yield.
                        span_id, token = _open(recorder, name_idx, False)
                        try:
                            item = next(inner)
                        except StopIteration:
                            return
                        finally:
                            _close(recorder, span_id, token)
                    yield item
            finally:
                inner.close()
        return generator_shim

    @functools.wraps(original)
    def shim(*args: Any, **kwargs: Any) -> Any:
        if not recorder.on:
            return original(*args, **kwargs)
        span_id, token = _open(recorder, name_idx, False)
        try:
            result = original(*args, **kwargs)
            if value_of is not None:
                recorder.spans[span_id][VALUE] = value_of(result)
            return result
        finally:
            _close(recorder, span_id, token)
    return shim


class Interposer:
    """Installs the table's shims and restores the originals."""

    def __init__(self, recorder: Recorder) -> None:
        self.recorder = recorder
        # (owner, attribute, what owner.__dict__ held before, the original callable)
        self.patched: List[Tuple[Any, str, Any, Callable]] = []

    def install(self) -> None:
        importlib.import_module("repro.serving")
        importlib.import_module("repro.elastic")
        for point in points():
            module = importlib.import_module(point.module)
            if "." in point.attr:
                class_name, method = point.attr.split(".")
                owner = getattr(module, class_name)
                own = owner.__dict__.get(method, _MISSING)
                original = getattr(owner, method)
                if not inspect.isfunction(original):
                    raise TypeError(f"{point.module}:{point.attr} is not a plain method")
                self._bind(owner, method, own, original, point)
            else:
                original = getattr(module, point.attr)
                # Rebind every `from x import f` copy as well as the definition.
                for name, mod in list(sys.modules.items()):
                    if name.split(".")[0] == "repro" and vars(mod).get(point.attr) is original:
                        self._bind(mod, point.attr, original, original, point)

    def _bind(self, owner: Any, attr: str, own: Any, original: Callable, point: Point) -> None:
        setattr(owner, attr, _make_shim(self.recorder, point, original))
        self.patched.append((owner, attr, own, original))

    def restore(self) -> None:
        for owner, attr, own, _ in reversed(self.patched):
            if own is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, own)

    def all_restored(self) -> bool:
        """Whether every interposed attribute is its original again."""
        return all(
            inspect.getattr_static(owner, attr) is original
            for owner, attr, _, original in self.patched
        )


# ----------------------------------------------------------------------
# Self time
# ----------------------------------------------------------------------
@dataclass
class SpanStats:
    count: int = 0
    self_ns: int = 0
    max_ns: int = 0
    value: float = 0.0


def self_times(spans: List[list], lo: int, hi: int) -> List[int]:
    """Per-span duration minus its direct children's, for ``spans[lo:hi]``."""
    own = [span[END] - span[START] for span in spans[lo:hi]]
    for span in spans[lo:hi]:
        if span[PARENT] >= lo:
            own[span[PARENT] - lo] -= span[END] - span[START]
    return own


def union_ns(intervals: List[Tuple[int, int]]) -> int:
    total, reach = 0, -1
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def summarize(
    recorder: Recorder, lo: int, hi: int, slowdown: float = 1.0
) -> Dict[str, SpanStats]:
    """Per-span-name totals over ``spans[lo:hi]``, times divided by ``slowdown``.

    Coroutine spans of interleaved clients overlap in time although one
    thread runs them; their per-name self time is the union of their
    intervals minus their children, so a slice of wall time is counted
    once, not once per client waiting through it.
    """
    spans = recorder.spans
    own = self_times(spans, lo, hi)
    stats: Dict[str, SpanStats] = {}
    overlapping: Dict[str, List[Tuple[int, int]]] = {}
    for offset, span in enumerate(spans[lo:hi]):
        name = recorder.names[span[NAME]]
        entry = stats.setdefault(name, SpanStats())
        duration = span[END] - span[START]
        entry.count += 1
        entry.self_ns += own[offset]
        entry.max_ns = max(entry.max_ns, duration)
        entry.value += span[VALUE]
        if span[ASYNC]:
            overlapping.setdefault(name, []).append((span[START], span[END]))
            entry.self_ns -= duration
    for name, intervals in overlapping.items():
        stats[name].self_ns += union_ns(intervals)
    for entry in stats.values():
        entry.self_ns = round(entry.self_ns / slowdown)
        entry.max_ns = round(entry.max_ns / slowdown)
    return stats
