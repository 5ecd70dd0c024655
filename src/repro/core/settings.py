"""Session settings: the names ``SET name = value`` accepts.

Each one is an ablation switch of the paper or a value some caller
sets: the CBO (Fig 15), semantic pruning's keep count (Fig 16), the
plan cache, short-circuit and READ_Opt (Fig 17), the index depth knobs
the recall/QPS sweeps turn, the simulated cores a scan is packed onto,
auto-compaction for the write workloads and the flight recorder's
thresholds.  :meth:`EngineSettings.apply` parses and range-checks a
value before it stores anything, so a bad ``SET`` leaves every setting
as it was.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any, Optional

from repro.errors import SQLError
from repro.planner.optimizer import ExecutionStrategy

# What ``SET forced_strategy`` may pin a hybrid query to.
_FORCEABLE = {
    strategy.value: strategy
    for strategy in (
        ExecutionStrategy.BRUTE_FORCE,
        ExecutionStrategy.PRE_FILTER,
        ExecutionStrategy.POST_FILTER,
    )
}


@dataclass
class EngineSettings:
    """Session settings, adjustable via SET statements."""

    enable_cbo: bool = True
    enable_plan_cache: bool = True
    enable_short_circuit: bool = True
    enable_read_opt: bool = True
    semantic_prune_keep: int = 4          # segments kept per round
    ef_search: Optional[int] = None
    nprobe: Optional[int] = None
    forced_strategy: Optional[ExecutionStrategy] = None
    auto_compaction: bool = False
    # Simulated cores a query's per-segment scan costs are packed onto
    # (>= 1).  Scans always run one after another on the calling thread;
    # rows are identical at any value, only simulated wall-time changes.
    parallel_workers: int = 1
    # Flight-recorder knobs: queries slower than the threshold are always
    # recorded; one in every ``slowlog_sample_every`` fast queries is
    # tail-sampled too (0 disables sampling).
    slowlog_threshold_ms: float = 50.0
    slowlog_sample_every: int = 100

    def apply(self, name: str, value: Any) -> None:
        """Apply one SET name = value (``read_opt`` names ``enable_read_opt``).

        Raises
        ------
        SQLError
            For an unknown name, or a value of the wrong type or out of
            range; nothing is changed then.
        """
        key = name.lower()
        if key == "read_opt":
            key = "enable_read_opt"
        parse = _PARSERS.get(key)
        if parse is None:
            raise SQLError(f"unknown setting {name!r}")
        setattr(self, key, parse(key, value))


def _number(key: str, value: Any, kind: type, minimum: float) -> Any:
    """``value`` as a ``kind`` (int or float) of at least ``minimum``."""
    try:
        if isinstance(value, bool):
            raise ValueError
        number = kind(value)
        if number != value and not isinstance(value, str):
            raise ValueError  # 2.5 is not an integer
    except (TypeError, ValueError):
        noun = "an integer" if kind is int else "a number"
        raise SQLError(f"{key} must be {noun}, got {value!r}") from None
    if not number >= minimum:  # NaN fails too
        raise SQLError(f"{key} must be >= {minimum}, got {value!r}")
    return number


def _flag(key: str, value: Any) -> bool:
    if isinstance(value, bool):
        return value
    number = _number(key, value, int, 0)
    if number > 1:
        raise SQLError(f"{key} must be 0 or 1, got {value!r}")
    return number == 1


def _strategy(key: str, value: Any) -> Optional[ExecutionStrategy]:
    text = str(value).lower()
    if text in ("", "none", "auto"):
        return None
    if text not in _FORCEABLE:
        raise SQLError(
            f"{key} must be auto or one of {', '.join(_FORCEABLE)}, got {value!r}"
        )
    return _FORCEABLE[text]


_PARSERS = {
    "enable_cbo": _flag,
    "enable_plan_cache": _flag,
    "enable_short_circuit": _flag,
    "enable_read_opt": _flag,
    "semantic_prune_keep": partial(_number, kind=int, minimum=1),
    "ef_search": partial(_number, kind=int, minimum=1),
    "nprobe": partial(_number, kind=int, minimum=1),
    "forced_strategy": _strategy,
    "auto_compaction": _flag,
    "parallel_workers": partial(_number, kind=int, minimum=1),
    "slowlog_threshold_ms": partial(_number, kind=float, minimum=0.0),
    "slowlog_sample_every": partial(_number, kind=int, minimum=0),
}
