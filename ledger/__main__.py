"""Command line of the ledger.

``python3 -m ledger --workload NAME --seed N --seconds S --trace 0|1``
    One run in this process.  Prints every metric by name with its unit
    and sample count, then the result object as the last line of
    standard output.  Exits non-zero if a check failed.

``python3 -m ledger [--seed N]``
    Every workload, untraced then traced, each in a fresh process.

``python3 -m ledger --check [--seed N]``
    Every workload twice; exits non-zero unless the two sets agree:
    timings within their bound, counts exactly.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from typing import Dict, List, Optional

DEFAULT_SEED = 11
HELD_OUT_SEED = 29
DEFAULT_SECONDS = 10  # BENCHMARK.json run_seconds
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _parse(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="python3 -m ledger", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", help="run one workload in this process")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"input seed (default {DEFAULT_SEED}; held out: {HELD_OUT_SEED})")
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="how long the timed rounds of an untraced run last")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?", const=1, default=0,
                        help="1: the traced run (per-layer metrics)")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes for the self-tests; numbers are not comparable")
    parser.add_argument("--check", action="store_true",
                        help="run everything twice and compare")
    return parser.parse_args(argv)


def _run_one(args: argparse.Namespace) -> int:
    from ledger.run import run_traced, run_untraced
    from ledger.workloads import FULL, SMOKE, WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    sizes = SMOKE if args.smoke else FULL
    if args.trace:
        report = run_traced(args.workload, args.seed, sizes)
    else:
        report = run_untraced(args.workload, args.seed, args.seconds, sizes)
    print(report.table())
    if args.smoke:
        print("smoke sizes: not comparable")
    print(json.dumps(report.result_line()))
    return 0 if report.correct else 1


def _child(args: argparse.Namespace, workload: str, trace: int) -> Optional[Dict]:
    """One run in a fresh process; its result object, or None if it died."""
    command = [
        sys.executable, "-m", "ledger", "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(trace),
    ] + (["--smoke"] if args.smoke else [])
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    print("\n".join(lines[:-1]))
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        print(f"{workload} (trace {trace}) exited {done.returncode} without a result")
        return None


def _run_set(args: argparse.Namespace) -> Dict[str, Optional[Dict]]:
    from ledger.workloads import WORKLOADS

    return {
        f"{workload}/{'per_layer' if trace else 'end_to_end'}": _child(args, workload, trace)
        for workload in WORKLOADS
        for trace in (0, 1)
    }


def _all_correct(results: Dict[str, Optional[Dict]]) -> bool:
    return all(result is not None and result["correct"] for result in results.values())


def _run_all(args: argparse.Namespace) -> int:
    import numpy

    from ledger.run import OUT_DIR

    results = _run_set(args)
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"ledger_seed{args.seed}.json")
    with open(path, "w", encoding="utf-8") as out:
        json.dump({
            "seed": args.seed, "seconds": args.seconds, "smoke": args.smoke,
            "host": {
                "cpu_count": os.cpu_count(), "python": platform.python_version(),
                "numpy": numpy.__version__, "machine": platform.machine(),
            },
            "results": results,
        }, out, indent=1, sort_keys=True)
    print(f"wrote {os.path.relpath(path, ROOT)}")
    return 0 if _all_correct(results) else 1


def _run_check(args: argparse.Namespace) -> int:
    from ledger.metrics import END_TO_END, PER_LAYER

    first, second = _run_set(args), _run_set(args)
    specs = {spec.name: spec for spec in END_TO_END + PER_LAYER}
    disagreements = 0
    print(f"{'workload/metric':<72} {'first':>14} {'second':>14}  verdict")
    for key in first:
        if first[key] is None or second[key] is None:
            disagreements += 1
            continue
        for name, entry in first[key]["metrics"].items():
            a, b = entry["value"], second[key]["metrics"][name]["value"]
            spec = specs[name]
            if spec.exact:
                agree, rule = a == b, "exact"
            elif spec.bound:
                agree, rule = abs(a - b) <= spec.bound * min(abs(a), abs(b)), f"<= {spec.bound}"
            else:
                agree, rule = True, "timing, no bound"
            disagreements += not agree
            verdict = "ok" if agree else "DISAGREE"
            print(f"{key + ' ' + name:<72} {a:>14.6g} {b:>14.6g}  {verdict} ({rule})")
    print(f"{disagreements} disagreement(s)")
    return 0 if disagreements == 0 and _all_correct(first) and _all_correct(second) else 1


def main(argv: Optional[List[str]] = None) -> int:
    args = _parse(argv)
    if args.check:
        return _run_check(args)
    if args.workload:
        return _run_one(args)
    return _run_all(args)


if __name__ == "__main__":
    sys.exit(main())
