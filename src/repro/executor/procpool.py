"""Persistent process pool for segment scans (the GIL escape hatch).

The thread fan-out in :mod:`repro.executor.parallel` overlaps only the
numpy inner kernels; every python-level loop (graph traversal, probe
selection, post-filter batches) serializes on the GIL.  This module runs
per-segment scans in *worker processes* instead:

* Workers are persistent and spawn-started (safe with the engine's
  threads); each holds an **attach cache** keyed by
  ``(segment_id, manifest_id, block token, has_index)`` so a segment's
  shared-memory vector block is mapped once and its index loaded once
  — an index image (:mod:`repro.vindex.image`) shipped as bytes, whose
  arrays the worker views in place — then reused across queries.
* Scan requests ship **pickled scan specs, never data**: the plan, the
  cost model, and :class:`~repro.storage.sharedblock.SharedBlockSpec`
  attach handles.  Vector payloads — and frozen delete bitmaps, which
  under MVCC copy-on-write are immutable per version — cross the
  process boundary zero-copy through ``multiprocessing.shared_memory``;
  only mutable bitmaps still fall back to inline pickling.
* Simulated-time accounting is preserved: the worker runs the scan
  under a private :class:`~repro.simulate.clock.SimulatedClock` capture
  and returns the charged cost, which the parent feeds into the same
  LPT :func:`~repro.executor.parallel.lane_makespan` packing the thread
  path uses.  Results stay byte-identical — same kernels, same inputs,
  same ``(distance, segment_id, offset)`` merge.
* ``CancelToken`` semantics survive the boundary: the pool holds a
  shared ``multiprocessing.Event`` cancel flag; the parent sets it when
  its token fires and workers check it between segments (each scan
  request is one segment), acknowledging with a ``cancelled`` reply.
* Crashes are contained: a worker dying mid-scan (OOM, segfault, the
  ``WORKER_CRASH`` fault lever) is detected on its pipe, the process is
  replaced, the segment retried on the fresh worker, and
  ``worker.crash`` / ``worker.respawn`` events are emitted through
  :func:`repro.observe.events.emit_event`.

Providers that are not plain :class:`~repro.vindex.api.VectorIndex`
instances (e.g. the cluster tier's ``RemoteSearchProvider``, which wraps
live RPC state) cannot be shipped; those scans transparently fall back
to in-process execution with identical results.
"""

from __future__ import annotations

import atexit
import multiprocessing
import threading
import traceback
import weakref
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.errors import ExecutionError, QueryCancelledError
from repro.executor.columnio import ColumnReader, ReadOptConfig
from repro.executor.pipeline import (
    ExecContext,
    PartialResult,
    _resolve_index,
    _scan_segment,
)
from repro.observe.events import emit_event
from repro.observe.trace import Span, Tracer, maybe_under
from repro.planner.cost import CostModelParams
from repro.planner.optimizer import PhysicalPlan
from repro.simulate.clock import SimulatedClock
from repro.simulate.costmodel import DeviceCostModel
from repro.simulate.metrics import MetricRegistry
from repro.storage.deletebitmap import DeleteBitmap
from repro.storage.segment import Segment
from repro.storage.sharedblock import SharedVectorBlock
from repro.vindex.api import VectorIndex, get_kernel_mode, set_kernel_mode
from repro.vindex.registry import deserialize_index, serialize_index

DEFAULT_POOL_WORKERS = 2
# Payload entries a worker keeps mapped before evicting LRU-first.
WORKER_CACHE_ENTRIES = 64
# Attempts per segment before a repeatedly crashing scan is abandoned.
MAX_SCAN_ATTEMPTS = 3


@dataclass
class ScanSpec:
    """One segment scan, fully described without vector payloads."""

    plan: PhysicalPlan
    bitmap: Optional[DeleteBitmap]
    cost: DeviceCostModel
    params: CostModelParams
    read_config: ReadOptConfig
    manifest_id: Optional[int]
    kernel_mode: str
    # Frozen delete bitmaps ship as shared-memory attach handles instead
    # of re-pickling the mask per scan; ``bitmap`` is None in that case
    # and stays as the inline fallback for mutable/unshareable bitmaps.
    bitmap_spec: Optional[Any] = None
    bitmap_version: int = 0
    # Whether the driver's tracer is recording: the worker then traces
    # the scan and ships its spans back beside the partial.
    traced: bool = False


# ----------------------------------------------------------------------
# Worker process
# ----------------------------------------------------------------------
def _install_payload(
    payload: Dict[str, Any], clock: SimulatedClock
) -> Tuple[Optional[SharedVectorBlock], Segment, Optional[VectorIndex]]:
    """Materialize a shipped segment payload inside the worker."""
    spec = payload["vector_spec"]
    if spec is not None:
        block = SharedVectorBlock.attach(spec)
        vectors = block.view()
    else:
        block = None
        vectors = payload["vectors_inline"]
    segment = Segment(payload["meta"], payload["scalars"], vectors)
    provider: Optional[VectorIndex] = None
    if payload["index_payload"] is not None:
        provider = deserialize_index(payload["index_payload"])
        provider.set_refiner(segment.vectors_at)
        # Mirror the parent's hook state exactly: a freshly *built*
        # index charges no per-search disk reads (its io_charger is
        # unset), so the worker copy must not either — simulated time
        # stays identical between the two planes.
        if payload["attach_io_charger"]:
            cost = payload["cost"]
            provider.set_io_charger(lambda nbytes: clock.advance(cost.disk_read(nbytes)))
    return block, segment, provider


def _resolve_bitmap(
    spec: ScanSpec, cache: "OrderedDict[str, DeleteBitmap]"
) -> Optional[DeleteBitmap]:
    """The scan's delete bitmap: attached from shared memory when shipped
    by spec (mapped once per worker, reused across queries), else the
    inline-pickled fallback.  Attaching charges no simulated time — the
    thread plane reads the same committed mask for free, and process
    mode must stay exact-equal in simulated seconds."""
    if spec.bitmap_spec is None:
        return spec.bitmap
    name = spec.bitmap_spec.name
    bitmap = cache.get(name)
    if bitmap is None:
        bitmap = DeleteBitmap.from_shared(spec.bitmap_spec, spec.bitmap_version)
        cache[name] = bitmap
        while len(cache) > WORKER_CACHE_ENTRIES:
            # Dropping the entry closes its mapping via the bitmap's
            # finalizer once nothing else references it.
            cache.popitem(last=False)
    else:
        cache.move_to_end(name)
    return bitmap


def _run_scan(
    spec: ScanSpec,
    segment: Segment,
    provider: Optional[VectorIndex],
    clock: SimulatedClock,
    bitmap: Optional[DeleteBitmap],
) -> Tuple[np.ndarray, Optional[np.ndarray], float, MetricRegistry, List[Span]]:
    """Execute one scan under a cost capture on the worker's clock.

    The driver resolved ``provider`` (and recorded ``index_resolve``);
    when it is tracing, the spans of everything after that are built
    here, with a private tracer on the private clock, and returned.
    """
    if get_kernel_mode() != spec.kernel_mode:
        set_kernel_mode(spec.kernel_mode)
    metrics = MetricRegistry()
    reader = ColumnReader(clock, spec.cost, metrics, spec.read_config)
    tracer = Tracer(clock, max_roots=1) if spec.traced else None
    holder = Span("scan", clock.now)
    ctx = ExecContext(
        clock=clock,
        cost=spec.cost,
        params=spec.params,
        reader=reader,
        resolve_index=lambda _segment: provider,
        metrics=metrics,
        tracer=tracer,
        manifest_id=spec.manifest_id,
    )
    with clock.capturing() as captured, maybe_under(tracer, holder):
        partial = _scan_segment(spec.plan, segment, bitmap, ctx, provider)
    return (
        partial.offsets, partial.distances, captured.total, metrics,
        holder.children,
    )


def _worker_main(conn, cancel_flag) -> None:
    """Worker loop: attach-cache + scan dispatch over one duplex pipe."""
    clock = SimulatedClock()
    cache: "OrderedDict[Any, Tuple[Any, Segment, Optional[VectorIndex]]]" = (
        OrderedDict()
    )
    bitmap_cache: "OrderedDict[str, DeleteBitmap]" = OrderedDict()
    try:
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                break
            kind = message[0]
            if kind == "shutdown":
                break
            if kind == "ping":
                conn.send(("pong",))
                continue
            if kind != "scan":  # pragma: no cover - protocol guard
                conn.send(("error", None, "protocol", f"unknown {kind!r}", ""))
                continue
            _, req_id, key, payload, spec = message
            if cancel_flag.is_set():
                conn.send(("cancelled", req_id))
                continue
            try:
                entry = cache.get(key)
                if entry is None:
                    if payload is None:
                        conn.send(("need_payload", req_id))
                        continue
                    entry = _install_payload(payload, clock)
                    cache[key] = entry
                    while len(cache) > WORKER_CACHE_ENTRIES:
                        _evict_key, (old_block, _s, _p) = cache.popitem(last=False)
                        if old_block is not None:
                            old_block.close()
                cache.move_to_end(key)
                _block, segment, provider = entry
                bitmap = _resolve_bitmap(spec, bitmap_cache)
                conn.send(
                    ("ok", req_id, *_run_scan(spec, segment, provider, clock, bitmap))
                )
            except BaseException as exc:  # noqa: BLE001 - shipped to parent
                conn.send((
                    "error", req_id, type(exc).__name__, str(exc),
                    traceback.format_exc(limit=8),
                ))
    finally:
        for _key, (block, _segment, _provider) in cache.items():
            if block is not None:
                block.close()
        try:
            conn.close()
        except OSError:  # pragma: no cover
            pass


# ----------------------------------------------------------------------
# Parent-side pool
# ----------------------------------------------------------------------
class _WorkerHandle:
    """Parent bookkeeping for one worker process."""

    def __init__(self, slot: int, process, conn) -> None:
        self.slot = slot
        self.process = process
        self.conn = conn
        # Payload cache keys this worker is known to hold; cleared on
        # respawn (the replacement starts with an empty attach cache).
        self.shipped: set = set()
        self.lock = threading.Lock()


class ProcessScanPool:
    """Persistent spawn-started worker pool executing segment scans."""

    def __init__(
        self,
        workers: int = DEFAULT_POOL_WORKERS,
        metrics: Optional[MetricRegistry] = None,
        start_method: str = "spawn",
    ) -> None:
        self.metrics = metrics or MetricRegistry()
        self._ctx = multiprocessing.get_context(start_method)
        self._cancel_flag = self._ctx.Event()
        self._workers: List[_WorkerHandle] = []
        self._lock = threading.Lock()
        self._resolve_lock = threading.Lock()
        self._req_seq = 0
        self._rr = 0
        self._active = 0
        self._crash_budget = 0
        self._closed = False
        # Serialized index bytes memoized per provider object (weak so a
        # retired index's payload dies with it).
        self._index_bytes: "weakref.WeakKeyDictionary[Any, bytes]" = (
            weakref.WeakKeyDictionary()
        )
        self.crashes = 0
        self.respawns = 0
        for slot in range(max(1, int(workers))):
            self._workers.append(self._spawn(slot))

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        return len(self._workers)

    @property
    def alive(self) -> bool:
        return not self._closed

    def worker_pids(self) -> List[int]:
        """Live worker process ids (introspection / tests)."""
        return [handle.process.pid for handle in self._workers]

    def _spawn(self, slot: int) -> _WorkerHandle:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        process = self._ctx.Process(
            target=_worker_main,
            args=(child_conn, self._cancel_flag),
            name=f"bh-scan-{slot}",
            daemon=True,
        )
        process.start()
        # The parent must drop its handle on the child end, or a dead
        # worker's pipe never reaches EOF and crashes go undetected.
        child_conn.close()
        return _WorkerHandle(slot, process, parent_conn)

    def grow(self, workers: int) -> None:
        """Add workers until the pool has at least ``workers``."""
        with self._lock:
            while len(self._workers) < workers:
                self._workers.append(self._spawn(len(self._workers)))

    def shutdown(self) -> None:
        """Stop every worker and close their pipes."""
        if self._closed:
            return
        self._closed = True
        for handle in self._workers:
            try:
                handle.conn.send(("shutdown",))
            except (OSError, BrokenPipeError):
                pass
        for handle in self._workers:
            handle.process.join(timeout=5)
            if handle.process.is_alive():  # pragma: no cover - stuck worker
                handle.process.kill()
                handle.process.join(timeout=5)
            try:
                handle.conn.close()
            except OSError:  # pragma: no cover
                pass
        self._workers = []

    # ------------------------------------------------------------------
    # Fault injection (WORKER_CRASH lever)
    # ------------------------------------------------------------------
    def inject_crash(self, times: int = 1) -> None:
        """Arm the pool to kill a live worker mid-scan ``times`` times."""
        with self._lock:
            self._crash_budget += int(times)

    def _maybe_inject_crash(self, handle: _WorkerHandle) -> None:
        with self._lock:
            if self._crash_budget <= 0:
                return
            self._crash_budget -= 1
        handle.process.kill()

    # ------------------------------------------------------------------
    # Crash handling
    # ------------------------------------------------------------------
    def _respawn(self, handle: _WorkerHandle) -> None:
        dead_pid = handle.process.pid
        self.crashes += 1
        self.metrics.incr("procpool.worker_crashes")
        emit_event(
            self.metrics, "worker.crash", worker=handle.slot, pid=dead_pid
        )
        try:
            handle.conn.close()
        except OSError:  # pragma: no cover
            pass
        handle.process.join(timeout=5)
        fresh = self._spawn(handle.slot)
        handle.process = fresh.process
        handle.conn = fresh.conn
        handle.shipped.clear()
        self.respawns += 1
        self.metrics.incr("procpool.worker_respawns")
        emit_event(
            self.metrics, "worker.respawn",
            worker=handle.slot, pid=handle.process.pid, replaced=dead_pid,
        )

    @staticmethod
    def _recv(handle: _WorkerHandle):
        """Receive a reply, detecting worker death while waiting."""
        while True:
            if handle.conn.poll(0.05):
                return handle.conn.recv()
            if not handle.process.is_alive():
                # Drain anything flushed before death, then report EOF.
                if handle.conn.poll(0):
                    return handle.conn.recv()
                raise EOFError(f"scan worker {handle.slot} died")

    # ------------------------------------------------------------------
    # Payload shipping
    # ------------------------------------------------------------------
    def _payload_key(
        self, segment: Segment, manifest_id: Optional[int], has_index: bool
    ) -> Tuple[str, Optional[int], str, bool]:
        spec = segment.shared_spec
        token = spec.name if spec is not None else f"inline-{id(segment)}"
        return (segment.segment_id, manifest_id, token, has_index)

    def _build_payload(
        self, segment: Segment, provider: Optional[VectorIndex]
    ) -> Dict[str, Any]:
        spec = segment.shared_spec
        index_payload: Optional[bytes] = None
        if provider is not None:
            index_payload = self._index_bytes.get(provider)
            if index_payload is None:
                index_payload = serialize_index(provider)
                self._index_bytes[provider] = index_payload
        return {
            "meta": segment.meta,
            "scalars": {
                name: segment.scalar_column(name)
                for name in segment.scalar_column_names
            },
            "vector_spec": spec,
            "vectors_inline": None if spec is not None else segment.vectors(),
            "index_payload": index_payload,
            "attach_io_charger": (
                getattr(provider, "_io_charger", None) is not None
            ),
            "cost": None,  # filled by the caller (per-engine cost model)
        }

    # ------------------------------------------------------------------
    # Scan execution
    # ------------------------------------------------------------------
    def _begin(self, cancel) -> None:
        with self._lock:
            if self._active == 0 and not (
                cancel is not None and cancel.cancelled
            ):
                # New query epoch: clear a stale cancel flag left over
                # from the previous (cancelled) query.
                self._cancel_flag.clear()
            self._active += 1

    def _end(self) -> None:
        with self._lock:
            self._active -= 1

    def _next_slot(self) -> _WorkerHandle:
        with self._lock:
            handle = self._workers[self._rr % len(self._workers)]
            self._rr += 1
            return handle

    def scan_segment(
        self,
        plan: PhysicalPlan,
        segment: Segment,
        bitmap: Optional[DeleteBitmap],
        ctx: ExecContext,
    ) -> Tuple[PartialResult, float]:
        """Run one segment scan on a worker process.

        Returns ``(partial, charged_cost)`` without touching the shared
        clock; the caller decides how cost becomes simulated time (serial
        advance or LPT makespan).  The worker's metrics fold into
        ``ctx.metrics``, where an in-process fallback charges directly.
        """
        if ctx.cancel is not None and ctx.cancel.cancelled:
            self._cancel_flag.set()
            ctx.cancel.raise_if_cancelled()
        # Index resolution stays on the driver, charged exactly like the
        # thread path (against engine metrics, under ``index_resolve``).
        with ctx.clock.capturing() as captured, self._resolve_lock:
            provider = _resolve_index(plan, segment, ctx)
        resolve_cost = captured.total
        if provider is not None and not isinstance(provider, VectorIndex):
            # Live-state providers (serving RPC wrappers) cannot cross
            # the process boundary; execute in-process, same results.
            with ctx.clock.capturing() as captured:
                partial = _scan_segment(plan, segment, bitmap, ctx, provider)
            self.metrics.incr("procpool.inprocess_fallbacks")
            return partial, resolve_cost + captured.total

        try:
            spec = segment.ensure_shared()
        except Exception:  # pragma: no cover - no shm and no tmpdir
            spec = None
        del spec  # the payload reads segment.shared_spec directly
        bitmap_spec = None
        if bitmap is not None:
            try:
                # Frozen bitmaps ship zero-copy; mutable ones (or a
                # failed allocation) fall back to inline pickling.
                bitmap_spec = bitmap.ensure_shared()
            except Exception:  # pragma: no cover - no shm and no tmpdir
                bitmap_spec = None
            if bitmap_spec is not None:
                self.metrics.incr("procpool.bitmap_shm_ships")
        # The worker traces the scan only while the driver is recording:
        # its spans graft under the caller's ``segment_scan``, after the
        # driver-side ``index_resolve``.
        current = ctx.tracer.current if ctx.tracer is not None else None
        scan_spec = ScanSpec(
            plan=plan,
            bitmap=None if bitmap_spec is not None else bitmap,
            cost=ctx.cost,
            params=ctx.params,
            read_config=ctx.reader.config,
            manifest_id=ctx.manifest_id,
            kernel_mode=get_kernel_mode(),
            bitmap_spec=bitmap_spec,
            bitmap_version=bitmap.version if bitmap is not None else 0,
            traced=current is not None,
        )
        key = self._payload_key(segment, ctx.manifest_id, provider is not None)
        handle = self._next_slot()
        offsets, distances, worker_cost, worker_metrics, spans = self._dispatch(
            handle, key, scan_spec, segment, provider, ctx,
        )
        ctx.metrics.merge(worker_metrics)
        if current is not None:
            current.adopt(spans)
        return PartialResult(segment, offsets, distances), resolve_cost + worker_cost

    def _dispatch(
        self,
        handle: _WorkerHandle,
        key: Tuple[Any, ...],
        spec: ScanSpec,
        segment: Segment,
        provider: Optional[VectorIndex],
        ctx: ExecContext,
    ):
        attempts = 0
        force_payload = False
        while True:
            attempts += 1
            with self._lock:
                self._req_seq += 1
                req_id = self._req_seq
            with handle.lock:
                payload = None
                if force_payload or key not in handle.shipped:
                    payload = self._build_payload(segment, provider)
                    payload["cost"] = ctx.cost
                try:
                    handle.conn.send(("scan", req_id, key, payload, spec))
                    self._maybe_inject_crash(handle)
                    reply = self._recv(handle)
                except (EOFError, OSError, BrokenPipeError):
                    self._respawn(handle)
                    if attempts >= MAX_SCAN_ATTEMPTS:
                        raise ExecutionError(
                            f"segment {segment.segment_id!r} crashed the scan "
                            f"worker {attempts} times; giving up"
                        ) from None
                    force_payload = False
                    continue
                if payload is not None:
                    handle.shipped.add(key)
            kind = reply[0]
            if kind == "ok":
                self.metrics.incr("procpool.scans")
                return reply[2:]
            if kind == "need_payload":
                # The worker lost the entry (eviction); re-ship once.
                with handle.lock:
                    handle.shipped.discard(key)
                force_payload = True
                continue
            if kind == "cancelled":
                raise QueryCancelledError("query cancelled during segment scan")
            if kind == "error":
                _, _req, exc_type, exc_text, exc_tb = reply
                raise ExecutionError(
                    f"scan worker failed on segment {segment.segment_id!r}: "
                    f"{exc_type}: {exc_text}\n{exc_tb}"
                )
            raise ExecutionError(  # pragma: no cover - protocol guard
                f"unexpected scan worker reply {kind!r}"
            )

    def scan_one(
        self,
        plan: PhysicalPlan,
        segment: Segment,
        bitmap: Optional[DeleteBitmap],
        ctx: ExecContext,
    ) -> Tuple[PartialResult, float]:
        """:meth:`scan_segment` as one query epoch of the pool: what
        :func:`~repro.executor.pipeline.execute_segment` calls, from the
        serial path, the warehouse worker loop, staged SELECT and every
        task of a fan-out alike."""
        self._begin(ctx.cancel)
        try:
            return self.scan_segment(plan, segment, bitmap, ctx)
        finally:
            self._end()


# ----------------------------------------------------------------------
# Shared pool (one per engine process)
# ----------------------------------------------------------------------
_shared_pool: Optional[ProcessScanPool] = None
_shared_lock = threading.Lock()


def shared_pool(
    workers: int = DEFAULT_POOL_WORKERS,
    metrics: Optional[MetricRegistry] = None,
) -> ProcessScanPool:
    """The process-wide scan pool, created on first use.

    Worker processes take ~0.5 s each to spawn (fresh interpreter +
    numpy import), so engines share one pool instead of owning one
    each; per-payload tokens keep attach caches correct across engine
    instances.  ``metrics`` rebinds the pool's event/metric sink to the
    calling engine.
    """
    global _shared_pool
    with _shared_lock:
        if _shared_pool is None or not _shared_pool.alive:
            _shared_pool = ProcessScanPool(workers=workers, metrics=metrics)
        elif _shared_pool.size < workers:
            _shared_pool.grow(workers)
        if metrics is not None:
            _shared_pool.metrics = metrics
        return _shared_pool


def shutdown_shared_pool() -> None:
    """Tear down the shared pool (tests, leak checks, interpreter exit)."""
    global _shared_pool
    with _shared_lock:
        if _shared_pool is not None:
            _shared_pool.shutdown()
            _shared_pool = None


atexit.register(shutdown_shared_pool)
