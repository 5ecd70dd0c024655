"""CI regression gate: fresh bench results against committed baselines.

Usage::

    python benchmarks/check_regression.py <result> [<result> ...]

For each named result it compares ``benchmarks/results/<result>.json``
(written by the bench through ``common.write_results``) against
``benchmarks/baselines/<result>.json``, metric by metric, under the rows
of ``benchmarks/baselines/gates.json``.  A row is
``{"result", "metric", "better", "bound"}`` in ``BENCHMARK.json``'s
vocabulary: ``metric`` is an ``fnmatch`` pattern over the slash-named
metrics, ``better`` is ``higher`` or ``lower``, and ``bound`` is the
allowed move the wrong way, relative to the baseline value.

The gated numbers are simulated (cost-model seconds, virtual-time
latencies), so a run reproduces them bit for bit and the bounds can be
tight: a breach can only come from a code change.

It fails on any breach, on any gated baseline metric missing from the
fresh result, and on any row that matches no baseline metric, so a
rename cannot silently un-gate a metric.  After a deliberate change,
refresh a baseline by copying the fresh result over it (CI uploads
``benchmarks/results/``) and commit it alongside the change.
"""

from __future__ import annotations

import json
import os
import sys
from fnmatch import fnmatchcase
from typing import List

HERE = os.path.dirname(os.path.abspath(__file__))
RESULTS = os.path.join(HERE, "results")
BASELINES = os.path.join(HERE, "baselines")


def _metrics(path: str) -> dict:
    with open(path) as handle:
        return {name: m["value"] for name, m in json.load(handle)["metrics"].items()}


def breached(value: float, base: float, better: str, bound: float) -> bool:
    """Whether ``value`` moved past ``bound`` (relative) the wrong way."""
    if better == "higher":
        return value < base * (1.0 - bound)
    if better == "lower":
        return value > base * (1.0 + bound)
    raise ValueError(f"better must be 'higher' or 'lower', got {better!r}")


def check(results: List[str], results_dir: str = RESULTS,
          baselines_dir: str = BASELINES) -> List[str]:
    """Every failure, one line each; empty when all gates hold."""
    with open(os.path.join(baselines_dir, "gates.json")) as handle:
        gates = json.load(handle)
    failures = []
    for result in results:
        rows = [row for row in gates if row["result"] == result]
        if not rows:
            failures.append(f"{result}: no gate rows")
            continue
        fresh = os.path.join(results_dir, f"{result}.json")
        if not os.path.exists(fresh):
            failures.append(f"{result}: no fresh result at {fresh}")
            continue
        baseline = _metrics(os.path.join(baselines_dir, f"{result}.json"))
        current = _metrics(fresh)
        for row in rows:
            names = sorted(n for n in baseline if fnmatchcase(n, row["metric"]))
            if not names:
                failures.append(f"{result}: {row['metric']!r} matches no baseline metric")
            for name in names:
                base, value = baseline[name], current.get(name)
                if value is None:
                    status = "MISSING"
                elif breached(value, base, row["better"], row["bound"]):
                    status = "REGRESSION"
                else:
                    status = "ok"
                line = (f"{result} {name}: {base!r} -> {value!r} "
                        f"({row['better']} is better, bound {row['bound']:.1%})")
                print(f"{line}  [{status}]")
                if status != "ok":
                    failures.append(f"{line}: {status}")
    return failures


def main(argv: List[str]) -> int:
    if not argv:
        print(__doc__, file=sys.stderr)
        return 2
    failures = check(argv)
    if failures:
        print("\nregression gate FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print("\nregression gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
