"""Parameterized plan cache (paper §IV-C "Query processing overhead").

Hybrid workloads repeat the same query *shape* with different search
vectors, filter constants, and thresholds, so BlendHouse caches under the
statement's *signature*: its token stream with every literal (numbers,
strings, whole vector literals) replaced by a placeholder — the lexer's
one scan yields it along with the literals.  Two kinds of entry share
the cache and its capacity:

* ``signature`` → the shape's :class:`PreparedSelect` (template AST +
  bound logical plan): a repeat statement is bound straight from its
  literals, without parser, binder or rules.  It depends on the table's
  *schema* only, so it survives data commits and dies with
  :meth:`PlanCache.invalidate` (CREATE / DROP TABLE).
* ``(version, signature)`` → the physical plan chosen at that manifest.
  A hit reuses the strategy (or re-costs it for the new literals) and is
  charged ``plan_cached_overhead_s`` instead of ``plan_overhead_s`` —
  the Fig 17 "Query_Opt" effect.  Statistics and segment layout belong
  to one manifest, so commits fence by changing the key, and the write
  paths also drop the dead versions (:meth:`PlanCache.invalidate_plans`):
  an ``AS OF n`` query re-run after a later commit is planned again,
  from its still-cached template.

The cache is locked so concurrent readers can share it.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Optional

from repro.planner.logical import PreparedSelect
from repro.planner.optimizer import PhysicalPlan


class PlanCache:
    """LRU cache of physical plans keyed by (version, signature) and of
    prepared SELECT templates keyed by signature, under one capacity.

    ``version`` is the manifest id the plan was optimized against; 0 for
    single-version callers that never pass one.
    """

    def __init__(self, capacity: int = 256) -> None:
        if capacity <= 0:
            raise ValueError("plan cache capacity must be positive")
        self.capacity = capacity
        self._entries: "OrderedDict[Any, Any]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        """Cached physical plans (templates share the capacity but are
        not plans, and outlive them)."""
        with self._lock:
            return sum(type(key) is tuple for key in self._entries)

    def lookup(self, signature: str, version: int = 0) -> Optional[PhysicalPlan]:
        """Cached plan for the shape ``signature`` at ``version``."""
        key = (version, signature)
        with self._lock:
            plan = self._entries.get(key)
            if plan is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return plan

    def store(self, signature: str, plan: PhysicalPlan, version: int = 0) -> None:
        """Remember ``plan`` for the shape ``signature`` at ``version``."""
        self._put((version, signature), plan)

    def template(self, signature: str) -> Optional[PreparedSelect]:
        """The prepared SELECT of this shape, if cached."""
        with self._lock:
            prepared = self._entries.get(signature)
            if prepared is not None:
                self._entries.move_to_end(signature)
            return prepared

    def store_template(self, signature: str, prepared: PreparedSelect) -> None:
        """Remember ``prepared`` as this shape's template."""
        self._put(signature, prepared)

    def _put(self, key: Any, value: Any) -> None:
        with self._lock:
            if key in self._entries:
                self._entries.pop(key)
            elif len(self._entries) >= self.capacity:
                self._entries.popitem(last=False)
            self._entries[key] = value

    def invalidate(self) -> None:
        """Drop everything: a table was created or dropped, so templates
        bound against the old schema and every version's plans are dead."""
        with self._lock:
            self._entries.clear()

    def invalidate_plans(self) -> None:
        """Drop the physical plans after a data commit.  The new manifest
        id already fences them; the templates stay — they depend on the
        schema only."""
        with self._lock:
            for key in [key for key in self._entries if type(key) is tuple]:
                del self._entries[key]
