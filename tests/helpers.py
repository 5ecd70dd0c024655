"""Shared test helpers (importable: tests/ is a package)."""

def vector_sql(vector) -> str:
    """Render a numpy vector as a SQL vector literal."""
    return "[" + ",".join(f"{float(x):.6f}" for x in vector) + "]"


def walk_spans(span):
    """Every span of a trace tree, depth-first, parents before children."""
    yield span
    for child in span.children:
        yield from walk_spans(child)
