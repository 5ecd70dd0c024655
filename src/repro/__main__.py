"""Interactive SQL shell: ``python -m repro``.

A minimal client for poking at a BlendHouse instance: type SQL
statements (terminated by ``;``), get result tables back.  Prefix any
SELECT with ``EXPLAIN`` to see the chosen physical plan, or with
``EXPLAIN ANALYZE`` to run it and get the recorded span tree with
per-operator simulated time and cache-tier attribution.  Extra
dot-commands:

=============== ====================================================
``.help``        this text
``.tables``      list tables
``.describe t``  table summary (segments, rows, index)
``.metrics``     Prometheus-style metrics dump (counters, latencies)
``.slowlog``     flight recorder (same as ``SHOW SLOW QUERIES``)
``.profile``     wall-clock vs simulated time per span name (retained traces)
``.compact t``   run compaction for table ``t``
``.seed t n d``  create demo table ``t`` with ``n`` random rows, dim ``d``
``.quit``        exit
=============== ====================================================
"""

from __future__ import annotations

import sys
from typing import Iterable, List, Optional

import numpy as np

from repro.core.database import BlendHouse, ExplainResult
from repro.errors import BlendHouseError
from repro.executor.pipeline import QueryResult
from repro.observe.slowlog import SlowQueryReport
from repro.observe.trace import profile

PROMPT = "blendhouse> "
CONTINUATION = "        ...> "


def format_result(result: QueryResult, max_rows: int = 40) -> str:
    """Render a query result as an aligned text table."""
    headers = result.columns
    rows = [
        [_cell(value) for value in row] for row in result.rows[:max_rows]
    ]
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in rows)) if rows else len(headers[i])
        for i in range(len(headers))
    ]
    lines = ["  ".join(h.ljust(widths[i]) for i, h in enumerate(headers))]
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(row[i].ljust(widths[i]) for i in range(len(headers))))
    truncated = len(result.rows) - max_rows
    if truncated > 0:
        lines.append(f"... ({truncated} more rows)")
    lines.append(
        f"({len(result.rows)} rows, strategy={result.strategy.value}, "
        f"{result.simulated_seconds * 1e3:.3f} sim-ms)"
    )
    return "\n".join(lines)


def _cell(value) -> str:
    if isinstance(value, float):
        return f"{value:.4f}"
    if isinstance(value, np.ndarray):
        head = ", ".join(f"{v:.3f}" for v in value[:4])
        return f"[{head}, ...]" if value.shape[0] > 4 else f"[{head}]"
    return str(value)


def seed_demo_table(db: BlendHouse, name: str, rows: int, dim: int) -> str:
    """Create and populate a demo table with random labelled vectors."""
    db.execute(
        f"CREATE TABLE {name} (id UInt64, label String, views UInt64, "
        f"embedding Array(Float32), INDEX ann embedding TYPE HNSW('DIM={dim}'))"
    )
    rng = np.random.default_rng(0)
    report = db.insert_rows(
        name,
        [
            {
                "id": i,
                "label": ["news", "sports", "tech"][i % 3],
                "views": int(rng.integers(0, 1000)),
                "embedding": rng.normal(size=dim).astype(np.float32),
            }
            for i in range(rows)
        ],
    )
    return (
        f"seeded {report.rows} rows into {len(report.segment_ids)} segments "
        f"(try: SELECT id, dist FROM {name} ORDER BY "
        f"L2Distance(embedding, [{', '.join(['0.1'] * dim)}]) AS dist LIMIT 5;)"
    )


def handle_dot_command(db: BlendHouse, line: str) -> Optional[str]:
    """Execute a dot-command; returns output text or None for .quit."""
    parts = line.split()
    command = parts[0]
    if command in (".quit", ".exit"):
        return None
    if command == ".help":
        return __doc__ or ""
    if command == ".tables":
        names = db.catalog.table_names()
        return "\n".join(names) if names else "(no tables)"
    if command == ".describe" and len(parts) == 2:
        return "\n".join(f"{k}: {v}" for k, v in db.describe(parts[1]).items())
    if command == ".metrics":
        return db.export_metrics().render() or "(no metrics yet)"
    if command == ".slowlog":
        return db.execute("SHOW SLOW QUERIES").render()
    if command == ".profile":
        return "\n".join(
            f"{name:<22} calls {row['calls']:>6}  wall {row['wall_s'] * 1e3:>10.3f} ms"
            f"  sim {row['sim_s'] * 1e3:>10.3f} ms  wall/sim {row['wall_per_sim'] or float('nan'):.2f}"
            for name, row in profile(db.tracer.roots).items()
        ) or "profile: (no traces retained)"
    if command == ".compact" and len(parts) == 2:
        merges = db.compact(parts[1])
        return f"{len(merges)} merges"
    if command == ".seed" and len(parts) == 4:
        return seed_demo_table(db, parts[1], int(parts[2]), int(parts[3]))
    return f"unknown command {line!r} (try .help)"


def execute_line(db: BlendHouse, sql: str) -> str:
    """Run one SQL statement and describe its effect."""
    result = db.execute(sql)
    if isinstance(result, ExplainResult):
        return result.render()
    if isinstance(result, SlowQueryReport):
        return result.render()
    if isinstance(result, QueryResult):
        return format_result(result)
    if hasattr(result, "rows") and hasattr(result, "segment_ids"):  # IngestReport
        return (
            f"inserted {result.rows} rows into "
            f"{len(result.segment_ids)} segments"
        )
    if hasattr(result, "matched_rows"):  # UpdateResult
        return f"matched {result.matched_rows} rows"
    return str(result)


def repl(lines: Iterable[str], out=sys.stdout) -> BlendHouse:
    """Drive the shell over an iterable of input lines (testable core)."""
    db = BlendHouse()
    buffer: List[str] = []
    print("BlendHouse reproduction shell — .help for commands", file=out)
    for line in lines:
        stripped = line.strip()
        if not stripped:
            continue
        if not buffer and stripped.startswith("."):
            output = handle_dot_command(db, stripped)
            if output is None:
                break
            print(output, file=out)
            continue
        buffer.append(line)
        if stripped.endswith(";"):
            sql = "\n".join(buffer)
            buffer.clear()
            try:
                print(execute_line(db, sql), file=out)
            except BlendHouseError as error:
                print(f"error: {error}", file=out)
    return db


def _stdin_lines() -> Iterable[str]:
    interactive = sys.stdin.isatty()
    while True:
        try:
            yield input(PROMPT if interactive else "")
        except EOFError:
            return
        except KeyboardInterrupt:
            print()
            return


def main() -> None:
    """Entry point for ``python -m repro``."""
    repl(_stdin_lines())


if __name__ == "__main__":
    main()
