"""The two-clock ledger: this repository's benchmark.

Four closed-loop workloads drive the engine through four entry points
and report end-to-end metrics on both clocks (wall and simulated) from
an untraced run, and per-layer self times and counts from a separate
traced run whose spans are recorded from this package's own files.  It
claims no gain; it is the ruler later changes are measured with.  See
``ledger/README.md``.

Run from the repository root: ``python3 -m ledger`` (every workload) or
``python3 -m ledger --workload ann_direct --seed 11 --seconds 10 --trace 0``.
"""

import importlib.util
import os
import sys

# One BLAS thread, set before numpy loads.  With two threads on a
# 2-vCPU host OpenBLAS is bimodal per process (a 512x512 GEMM takes 2 ms
# in one process and 24 ms in the next), which no ruler can sit on.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

# The package runs from a plain checkout (no install, no PYTHONPATH):
# make ``repro`` importable from the sibling ``src`` tree when it is not
# already on the path.
if importlib.util.find_spec("repro") is None:
    _SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    if os.path.isdir(_SRC):
        sys.path.insert(0, _SRC)
