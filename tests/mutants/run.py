"""Recorded mutants: every patch in this directory must fail its test file.

Usage, from the repository root::

    python tests/mutants/run.py [--rev REV] [name ...]

For each ``<name>.patch`` here (or only the named ones) the runner
extracts ``git archive REV`` (default ``HEAD``, so commit first) into a
temporary directory, applies the patch there with ``patch -p1`` and no
fuzz, runs ``python -m pytest -x -q <test file>`` on that copy with
``PYTHONPATH=src`` and prints one line per patch:

* ``caught`` — the test file failed, as it must;
* ``missed`` — it passed with the mutation in place;
* ``stale`` — the patch no longer applies to REV;
* ``error`` — pytest exited with neither 0 nor 1 (say, a collection error).

A patch's first line is ``test: <path>``, its second says what the
mutation does, and the unified diff follows.  The exit status is 0 only
when every mutant is caught.  The working tree is never touched; the
copies go under ``$TMPDIR``.  This is not part of the test suite.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUTCOMES = {0: "missed", 1: "caught"}


def run_mutant(patch: Path, test: str, rev: str) -> str:
    """Apply ``patch`` to a fresh copy of ``rev`` and run ``test`` there."""
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", rev], check=True, capture_output=True
    ).stdout
    with tempfile.TemporaryDirectory(prefix="mutant-") as copy:
        subprocess.run(["tar", "-x", "-C", copy], input=archive, check=True)
        applied = subprocess.run(
            ["patch", "-p1", "-F0", "-N", "-s", "-i", str(patch)],
            cwd=copy, capture_output=True,
        )
        if applied.returncode:
            return "stale"
        tests = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", test],
            cwd=copy, env=dict(os.environ, PYTHONPATH="src"), capture_output=True,
        )
        return OUTCOMES.get(tests.returncode, "error")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rev", default="HEAD", help="commit to mutate (default HEAD)")
    parser.add_argument("names", nargs="*", help="patch names without .patch (default: all)")
    args = parser.parse_args()
    patches = [HERE / f"{name}.patch" for name in args.names] or sorted(HERE.glob("*.patch"))
    outcomes = []
    for patch in patches:
        test, what = patch.read_text().splitlines()[:2]
        outcome = run_mutant(patch, test.removeprefix("test:").strip(), args.rev)
        outcomes.append(outcome)
        print(f"{outcome:7} {patch.stem:34} {test} — {what}", flush=True)
    return 0 if all(outcome == "caught" for outcome in outcomes) else 1


if __name__ == "__main__":
    sys.exit(main())
