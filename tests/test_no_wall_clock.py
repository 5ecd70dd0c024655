"""No wall-clock read under ``src/`` outside the tracer.

Every scan runs serially on the simulated clock, so an engine's whole
history is a function of its inputs and seed.  ``observe/trace.py``
records each span's wall time beside its simulated time; it measures
and decides nothing.  Any other wall-clock read could let the host's
speed pick engine state.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
ALLOWED = {SRC / "observe" / "trace.py"}
CLOCKS = {"perf_counter", "perf_counter_ns", "time", "time_ns", "monotonic", "monotonic_ns"}


def wall_clock_reads(source):
    """``(line, name)`` for every wall clock ``source`` imports or reads."""
    tree = ast.parse(source)
    modules = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
        if alias.name == "time"
    }
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "time":
            found += [(node.lineno, alias.name) for alias in node.names if alias.name in CLOCKS]
        elif (
            isinstance(node, ast.Attribute)
            and node.attr in CLOCKS
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
        ):
            found.append((node.lineno, f"{node.value.id}.{node.attr}"))
    return found


def test_the_walker_sees_each_form():
    source = (
        "import time\n"
        "import time as clock\n"
        "from time import perf_counter_ns, sleep\n"
        "start = time.time() + clock.monotonic()\n"
        "time.sleep(0)\n"
    )
    assert sorted(wall_clock_reads(source)) == [
        (3, "perf_counter_ns"),
        (4, "clock.monotonic"),
        (4, "time.time"),
    ]


def test_no_wall_clock_outside_the_tracer():
    offenders = [
        f"{path.relative_to(SRC)}:{line} {name}"
        for path in sorted(SRC.rglob("*.py"))
        if path not in ALLOWED
        for line, name in wall_clock_reads(path.read_text())
    ]
    assert offenders == []
