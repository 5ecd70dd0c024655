"""Shared test helpers (importable: tests/ is a package)."""

def vector_sql(vector) -> str:
    """Render a numpy vector as a SQL vector literal."""
    return "[" + ",".join(f"{float(x):.6f}" for x in vector) + "]"


def walk_spans(span):
    """Every span of a trace tree, depth-first, parents before children."""
    yield span
    for child in span.children:
        yield from walk_spans(child)


def run_plan_on_segments(plan, segments, bitmaps, ctx):
    """One plan over ``segments`` through the executor's two pieces —
    ``execute_segment`` per segment, then ``merge_and_project`` — with
    the time it charged to ``ctx.clock`` on the result."""
    from repro.executor.pipeline import PreparedScan, execute_segment, merge_and_project

    start = ctx.clock.now
    scan = PreparedScan.of(plan)
    partials = [
        execute_segment(scan, segment, bitmaps.get(segment.segment_id), ctx)
        for segment in segments
    ]
    result = merge_and_project(plan, partials, ctx, len(segments))
    result.simulated_seconds = ctx.clock.elapsed_since(start)
    return result


def parse_exposition(text):
    """Exposition text → ({series_with_labels: value}, {(name, type)}).

    Strict: a family typed twice or a sample line written twice is an
    assertion error, as it is to a Prometheus scraper.
    """
    values, types = {}, set()
    for line in text.splitlines():
        if not line:
            continue
        if line.startswith("# TYPE "):
            _, _, name, kind = line.split(" ")
            assert name not in {typed for typed, _ in types}, (
                f"family {name} typed twice"
            )
            types.add((name, kind))
            continue
        assert not line.startswith("#"), f"unexpected comment: {line}"
        series, value = line.rsplit(" ", 1)
        assert series not in values, f"sample {series} repeated"
        values[series] = float(value)
    return values, types
