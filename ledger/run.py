"""One workload, one process: the untraced and the traced run.

Untraced (``--trace 0``): nothing is installed.  Build the table
``sizes.setups`` times, replay one warm-up round, then timed rounds
until ``--seconds`` is used up (at least ``sizes.min_rounds``), then
checkpoint and cold restarts.  Reports the end-to-end metrics.

Traced (``--trace 1``): the interposition table is installed before the
build.  One warm-up round and one reference round run with recording
off, one round with recording on, then the restart phase.  Reports the
per-layer metrics and writes the spans to ``ledger/out``.
"""

from __future__ import annotations

import gc
import os
import statistics
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, Optional

from ledger.interpose import (
    ASYNC,
    END,
    PARENT,
    START,
    Interposer,
    Recorder,
    summarize,
    union_ns,
)
from ledger.metrics import END_TO_END, PER_LAYER, Sampled, end_to_end, per_layer
from ledger.workloads import (
    WORKLOADS,
    RoundLog,
    Sizes,
    Workload,
    WriteLog,
    checkpoint_and_restart,
    judge,
)

OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")


@dataclass
class Report:
    """What one run prints: the contract's result line plus a table."""

    workload: str
    traced: bool
    attempted: int = 0
    failed: int = 0
    correct: bool = True
    metrics: Dict[str, Sampled] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)
    # The measured rounds in order (untraced: every timed round; traced:
    # the reference round, then the traced one) for the self-tests.
    logs: List[RoundLog] = field(default_factory=list)
    recorder: Optional[Recorder] = None  # traced runs only

    def result_line(self) -> Dict[str, object]:
        specs = PER_LAYER if self.traced else END_TO_END
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                spec.name: {"value": self.metrics[spec.name][0], "unit": spec.unit}
                for spec in specs
            },
        }

    def table(self) -> str:
        specs = PER_LAYER if self.traced else END_TO_END
        lines = [f"== {self.workload} ({'traced' if self.traced else 'untraced'}) =="]
        for spec in specs:
            value, samples = self.metrics[spec.name]
            lines.append(f"{spec.name:<52} {value:>16.6g} {spec.unit:<6} n={samples}")
        lines.extend(self.notes)
        verdict = "ok" if self.correct else "FAILED"
        lines.append(f"checks: {verdict} ({self.failed} of {self.attempted} ops failed)")
        return "\n".join(lines)


def _account(report: Report, workload: Workload, log: RoundLog) -> List[float]:
    """Judge one round's answers; returns the recalls of the accepted reads."""
    failed, recalls, rejected = judge(workload, log)
    report.attempted += len(log.rows) + len(log.writes.all_s)
    report.failed += failed + log.write_errors
    for verdict in rejected[:3]:
        report.notes.append(f"oracle rejected a result: {verdict.reason}")
    return recalls


def _check_recall(report: Report, workload: Workload, recalls: List[float]) -> None:
    mean = statistics.fmean(recalls) if recalls else 0.0
    if mean < workload.recall_floor:
        report.correct = False
        report.notes.append(
            f"recall_at_10 {mean:.4f} is below the floor {workload.recall_floor}"
        )


def run_untraced(name: str, seed: int, seconds: float, sizes: Sizes) -> Report:
    report = Report(name, traced=False)
    workload: Workload = WORKLOADS[name](seed, sizes)
    setup_s: List[float] = []
    builds: List[WriteLog] = []
    for _ in range(sizes.setups):
        start = perf_counter()
        builds.append(workload.build())
        setup_s.append(perf_counter() - start)
    warmup = workload.round(warmup=True)

    rounds: List[RoundLog] = []
    used = 0.0
    while len(rounds) < sizes.min_rounds or used + used / len(rounds) <= seconds:
        gc.collect()
        start = perf_counter()
        rounds.append(workload.round())
        used += perf_counter() - start
    recalls = [_account(report, workload, log) for log in rounds][0]
    _check_recall(report, workload, recalls)

    restarts = checkpoint_and_restart(workload)
    report.attempted += restarts.attempted
    report.failed += restarts.failed
    write_units = [log.writes for log in rounds] if workload.writes_in_rounds else builds
    report.metrics = end_to_end(
        workload, setup_s, builds, warmup, rounds, write_units, recalls, restarts
    )
    report.correct = report.correct and report.failed == 0
    report.logs = rounds
    report.notes.append(f"rounds: {len(rounds)} of {len(rounds[0].wall_s)} reads each")
    slow = sorted(log.slowdown for log in rounds)
    report.notes.append(
        f"host slowdown over the rounds: {slow[0]:.3f} .. {slow[-1]:.3f} "
        "(wall metrics are divided by it)"
    )
    if "worker_mem_bytes" in rounds[0].extra:
        report.notes.append(f"worker_mem_data_bytes: {rounds[0].extra['worker_mem_bytes']}")
    return report


def _root_ns(recorder: Recorder, lo: int, hi: int) -> int:
    """Wall time covered by root spans (overlapping coroutine roots once)."""
    roots = [span for span in recorder.spans[lo:hi] if span[PARENT] < lo]
    overlapping = [(span[START], span[END]) for span in roots if span[ASYNC]]
    return union_ns(overlapping) + sum(
        span[END] - span[START] for span in roots if not span[ASYNC]
    )


def run_traced(name: str, seed: int, sizes: Sizes) -> Report:
    report = Report(name, traced=True)
    recorder = Recorder()
    interposer = Interposer(recorder)
    interposer.install()
    try:
        workload: Workload = WORKLOADS[name](seed, sizes)
        recorder.on = True
        build = workload.build()
        recorder.on = False
        built = len(recorder.spans)
        workload.round(warmup=True)
        gc.collect()
        reference = workload.round()
        gc.collect()
        recorder.on = True
        log = workload.round()
        recorder.on = False
        rounded = len(recorder.spans)
        recalls = _account(report, workload, log)
        _check_recall(report, workload, recalls)
        recorder.on = True
        restarts = checkpoint_and_restart(workload)
        recorder.on = False
    finally:
        interposer.restore()
    report.attempted += restarts.attempted
    report.failed += restarts.failed
    if log.rows != reference.rows:
        report.failed += 1
        report.notes.append("traced round returned other rows than the reference round")
    if not interposer.all_restored():
        report.correct = False
        report.notes.append("an interposed attribute was not restored")
    end = len(recorder.spans)
    values = per_layer(
        workload,
        setup=summarize(recorder, 0, built, build.slowdown),
        traced=summarize(recorder, built, rounded, log.slowdown),
        recover=summarize(recorder, rounded, end, restarts.slowdown),
        root_ns=_root_ns(recorder, built, rounded),
        span_count=rounded - built,
        reference=reference,
        log=log,
    )
    samples = len(log.wall_s)
    report.metrics = {spec.name: (values[spec.name], samples) for spec in PER_LAYER}
    report.correct = report.correct and report.failed == 0
    report.logs = [reference, log]
    report.recorder = recorder
    os.makedirs(OUT_DIR, exist_ok=True)
    recorder.write_jsonl(os.path.join(OUT_DIR, f"trace_{name}.jsonl"))
    report.notes.append(f"spans: {end} recorded, {rounded - built} in the traced round")
    return report
