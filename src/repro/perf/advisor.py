"""Workload-adaptive index advisor: budgeted build/keep/evict decisions.

A :class:`~repro.core.session.DatasetSession` memoises one
:class:`~repro.index.eclipse_index.EclipseIndex` per *full* parameter set and
builds each eagerly on first use, so the cache grows without bound — at
millions of users / parameter sets that is the scaling wall named in the
roadmap.  :class:`IndexAdvisor` closes it: an online policy that observes the
session's query/update stream and decides, per cache key, whether to

* **build** an index now (greedy admission: only when the projected saving
  over the best index-free method clears :data:`DEFAULT_MIN_COST_IMPROVEMENT`
  *and* the projected bytes fit the budget, possibly by evicting resident
  indexes with a lower benefit-per-byte — the Extend heuristic's budgeted
  selection rule),
* **keep** it resident (its decayed realised savings keep its
  benefit-per-byte above the eviction line),
* **delta-patch** it on updates (the :func:`~repro.core.plan.plan_update`
  cost arm, reached through the memoised what-if wrapper below), or
* **evict** it — the lowest benefit-per-byte resident goes first whenever
  the exact resident footprint (arena ``nbytes`` rollups, headroom included)
  exceeds the byte budget.

Correctness never rides on any of these decisions: an evicted index is
simply rebuilt (or the planner falls back to the transformation) on next
use, so answers stay byte-identical whatever the advisor does.

The budget resolves like every other kernel knob (explicit argument, then
the ``REPRO_INDEX_BUDGET_MB`` environment variable, then unbounded), and a
misconfigured environment value warns via :class:`RuntimeWarning` instead of
failing silently, matching ``REPRO_KERNEL_THREADS``.

:class:`WhatIfCostModel` is the advisor's estimator: a memoised wrapper
around :func:`~repro.core.plan.plan_query` / :func:`~repro.core.plan.plan_update`
with ``cost_requests`` / ``cache_hits`` counters, the cost-evaluation cache
pattern of the Index_EAB tooling.
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.plan import (
    INDEX_METHODS,
    QueryPlan,
    UpdatePlan,
    expected_skyline_size,
    plan_query,
    plan_update,
)

#: Relative cost-improvement an index must project over the best index-free
#: method before the advisor admits its build under a budget (the Extend
#: heuristic's ``min_cost_improvement`` gate; its reference value is 1.003).
DEFAULT_MIN_COST_IMPROVEMENT = 1.003

#: Per-tick decay of a ledger entry's accumulated benefit.  One tick is one
#: advisor event (an index access, build, or update batch), so benefit is
#: recency- *and* frequency-weighted: an index accessed every tick keeps
#: adding fresh savings faster than the old ones decay, an idle one only
#: decays.
BENEFIT_DECAY = 0.95

#: Nominal benefit (planner seconds) credited per memoised degenerate-build
#: failure: small beside any index that saved real work, so failures are the
#: first to go when the budget binds.
FAILURE_ENTRY_BENEFIT = 1e-6

#: Nominal resident bytes charged per memoised degenerate-build failure.
#: The exception objects are tiny, but charging them keeps the failure cache
#: under the same ledger (and therefore bounded) instead of growing without
#: bound per doomed parameter set.
FAILURE_ENTRY_BYTES = 512

#: Environment variable holding the index byte budget in MiB.
_BUDGET_ENV = "REPRO_INDEX_BUDGET_MB"

#: Bound on the what-if memo and the benefit ledger so the advisor itself
#: can never become the unbounded cache it exists to prevent.
_WHATIF_CACHE_LIMIT = 4096
_LEDGER_LIMIT = 1024

_MISS = object()


def index_budget_from_env() -> Optional[int]:
    """Read ``REPRO_INDEX_BUDGET_MB``, warning on misconfiguration.

    Returns the budget in bytes, or ``None`` (unbounded) when the variable
    is unset, unparseable, or non-positive.  Misconfigured values warn via
    :class:`RuntimeWarning` instead of failing silently, matching the
    ``REPRO_KERNEL_THREADS`` convention.
    """
    env = os.environ.get(_BUDGET_ENV)
    if not env:
        return None
    try:
        budget_mb = float(env)
    except ValueError:
        warnings.warn(
            f"ignoring unparseable {_BUDGET_ENV}={env!r} (expected a "
            f"positive number of MiB); index memory stays unbounded",
            RuntimeWarning,
            stacklevel=2,
        )
        return None
    if budget_mb <= 0:
        warnings.warn(
            f"ignoring non-positive {_BUDGET_ENV}={env!r}; "
            f"index memory stays unbounded",
            RuntimeWarning,
            stacklevel=2,
        )
        return None
    return int(budget_mb * 1024 * 1024)


def validate_index_budget(budget_bytes: Optional[int]) -> Optional[int]:
    """Validate an explicit byte budget (``None`` = defer to environment)."""
    if budget_bytes is None:
        return None
    budget = int(budget_bytes)
    if budget <= 0:
        raise ValueError(
            f"index_budget_bytes must be a positive byte count, got {budget_bytes!r}"
        )
    return budget


def resolve_index_budget(budget_bytes: Optional[int] = None) -> Optional[int]:
    """Effective budget: explicit argument, then environment, then unbounded."""
    if budget_bytes is not None:
        return validate_index_budget(budget_bytes)
    return index_budget_from_env()


def estimate_index_nbytes(num_skyline: float, dimensions: int) -> int:
    """Projected resident bytes of an index before it is built.

    Sizes the slot/alive arenas (per skyline point), the dual arenas (per
    point, ``d - 1`` coefficients + offset), and the ``O(u^2)`` pair arenas
    plus tree/sorted stores (per intersection pair), then doubles for the
    geometric arena headroom.  Used only for admission feasibility — once
    built, the exact ``nbytes()`` rollup replaces the estimate.
    """
    u = max(1.0, float(num_skyline))
    dual = max(1, int(dimensions) - 1)
    pairs = 0.5 * u * (u - 1.0)
    per_slot = 8 + 1 + 8 * dual + 8  # slot id, alive flag, dual coeffs, offset
    per_pair = 16 + 8 * dual + 8 + 16  # pair ids, coeffs, rhs, tree/sorted stores
    return int(2.0 * (u * per_slot + pairs * per_pair))


class WhatIfCostModel:
    """Memoised what-if estimator over the calibrated planner cost model.

    Every estimate the advisor (or its session) requests flows through
    here; repeated workload shapes hit the memo instead of recomputing the
    plan arithmetic.  ``cost_requests`` counts every request and
    ``cache_hits`` the ones served from the memo — the cost-evaluation
    counters of the Index_EAB template, surfaced through
    :class:`~repro.core.session.SessionStats`.
    """

    def __init__(self):
        self._cache: Dict[Tuple, object] = {}
        self.cost_requests = 0
        self.cache_hits = 0

    def _memoised(self, key: Tuple, compute):
        self.cost_requests += 1
        value = self._cache.get(key, _MISS)
        if value is not _MISS:
            self.cache_hits += 1
            return value
        value = compute()
        if len(self._cache) >= _WHATIF_CACHE_LIMIT:
            self._cache.pop(next(iter(self._cache)))
        self._cache[key] = value
        return value

    def plan_query(
        self,
        num_points: int,
        dimensions: int,
        method: str = "auto",
        num_queries: int = 1,
        num_skyline: Optional[int] = None,
        threads: int = 1,
        backend: str = "thread",
        num_unique_skyline: Optional[int] = None,
    ) -> QueryPlan:
        """Memoised :func:`repro.core.plan.plan_query` (plans are frozen)."""
        key = (
            "query",
            num_points,
            dimensions,
            method,
            num_queries,
            num_skyline,
            threads,
            backend,
            num_unique_skyline,
        )
        return self._memoised(
            key,
            lambda: plan_query(
                num_points,
                dimensions,
                method=method,
                num_queries=num_queries,
                num_skyline=num_skyline,
                threads=threads,
                backend=backend,
                num_unique_skyline=num_unique_skyline,
            ),
        )

    def plan_update(
        self,
        num_points: int,
        dimensions: int,
        num_inserts: int,
        num_deletes: int,
        num_skyline: Optional[int] = None,
        artifact: str = "skyline",
        index_backend: Optional[str] = None,
        dead_fraction: float = 0.0,
        num_pairs: Optional[int] = None,
        threads: int = 1,
        backend: str = "thread",
    ) -> UpdatePlan:
        """Memoised :func:`repro.core.plan.plan_update` (plans are frozen)."""
        key = (
            "update",
            num_points,
            dimensions,
            num_inserts,
            num_deletes,
            num_skyline,
            artifact,
            index_backend,
            dead_fraction,
            num_pairs,
            threads,
            backend,
        )
        return self._memoised(
            key,
            lambda: plan_update(
                num_points,
                dimensions,
                num_inserts,
                num_deletes,
                num_skyline=num_skyline,
                artifact=artifact,
                index_backend=index_backend,
                dead_fraction=dead_fraction,
                num_pairs=num_pairs,
                threads=threads,
                backend=backend,
            ),
        )


@dataclass
class LedgerEntry:
    """Benefit bookkeeping of one cache key (index or memoised failure).

    ``benefit`` holds the decayed accumulated savings in the planner's
    predicted seconds; ``clock`` is the advisor tick of the last credit,
    so the effective benefit at any later tick is
    ``benefit * BENEFIT_DECAY ** (now - clock)``.
    """

    benefit: float = 0.0
    hits: int = 0
    clock: int = 0
    nbytes: int = 0
    resident: bool = False
    kind: str = "index"

    def decayed(self, now: int) -> float:
        """Benefit discounted to tick ``now``."""
        age = max(0, now - self.clock)
        return self.benefit * (BENEFIT_DECAY ** age)

    def benefit_per_byte(self, now: int) -> float:
        """The eviction-ranking score (decayed benefit per resident byte)."""
        return self.decayed(now) / max(1, self.nbytes)


class IndexAdvisor:
    """Online budgeted build/keep/evict policy over a session's index cache.

    The advisor never touches the cache itself — it ranks and decides, and
    the session applies the verdicts — so it stays independently testable
    and the session stays the single owner of its artifacts.

    Parameters
    ----------
    budget_bytes:
        Resident byte budget for all cached indexes together (exact arena
        ``nbytes`` rollups, headroom included) plus the nominal footprint of
        memoised degenerate-build failures.  ``None`` defers to the
        ``REPRO_INDEX_BUDGET_MB`` environment variable; unset means
        unbounded — the pre-advisor behaviour.
    min_cost_improvement:
        Relative projected improvement an index build must clear before it
        is admitted under a budget (see
        :data:`DEFAULT_MIN_COST_IMPROVEMENT`).
    """

    def __init__(
        self,
        budget_bytes: Optional[int] = None,
        min_cost_improvement: float = DEFAULT_MIN_COST_IMPROVEMENT,
    ):
        self.budget_bytes = validate_index_budget(budget_bytes)
        self.min_cost_improvement = float(min_cost_improvement)
        self.cost_model = WhatIfCostModel()
        self._ledger: Dict[Tuple, LedgerEntry] = {}
        self._clock = 0
        #: Resident bytes after the last :meth:`enforce` call (indexes plus
        #: nominal failure entries).
        self.bytes_resident = 0
        self.builds_skipped = 0
        self.evictions = 0

    # ------------------------------------------------------------------
    # Budget resolution
    # ------------------------------------------------------------------
    def effective_budget(self) -> Optional[int]:
        """The budget in force right now (argument beats environment)."""
        return resolve_index_budget(self.budget_bytes)

    # ------------------------------------------------------------------
    # Ledger events
    # ------------------------------------------------------------------
    def _entry(self, key: Tuple, kind: str = "index") -> LedgerEntry:
        entry = self._ledger.get(key)
        if entry is None:
            entry = LedgerEntry(clock=self._clock, kind=kind)
            self._ledger[key] = entry
        entry.kind = kind
        return entry

    def credit(self, key: Tuple, saving: float, nbytes: Optional[int] = None) -> None:
        """Record realised savings of one use of a cached (or built) index.

        The entry's benefit decays to the current tick, then the fresh
        saving is added — recency- and frequency-weighted bookkeeping in
        one rule.
        """
        self._clock += 1
        entry = self._entry(key)
        entry.benefit = entry.decayed(self._clock) + max(0.0, float(saving))
        entry.clock = self._clock
        entry.hits += 1
        entry.resident = True
        if nbytes is not None:
            entry.nbytes = int(nbytes)
        self._prune_ledger()

    def on_built(self, key: Tuple, nbytes: int, build_cost: float = 0.0) -> None:
        """Register a freshly built index (benefit seeded with its build cost).

        Keeping a resident index saves exactly its rebuild on the next use,
        so the build-cost seed makes a just-built index worth its own
        construction until decay says otherwise.
        """
        self.credit(key, build_cost, nbytes=int(nbytes))

    def on_failure(self, key: Tuple) -> None:
        """Register one memoised degenerate-build failure under the ledger."""
        self._clock += 1
        entry = self._entry(key, kind="failure")
        entry.benefit = entry.decayed(self._clock) + FAILURE_ENTRY_BENEFIT
        entry.clock = self._clock
        entry.hits += 1
        entry.resident = True
        entry.nbytes = FAILURE_ENTRY_BYTES
        self._prune_ledger()

    def clear_failures(self) -> None:
        """Forget failure entries (the dataset changed under an update)."""
        for key in [k for k, e in self._ledger.items() if e.kind == "failure"]:
            del self._ledger[key]

    def _prune_ledger(self) -> None:
        if len(self._ledger) <= _LEDGER_LIMIT:
            return
        stale = sorted(
            (k for k, e in self._ledger.items() if not e.resident),
            key=lambda k: self._ledger[k].clock,
        )
        for key in stale[: len(self._ledger) - _LEDGER_LIMIT]:
            del self._ledger[key]

    # ------------------------------------------------------------------
    # Decisions
    # ------------------------------------------------------------------
    def should_build(self, plan: QueryPlan, pinned: bool = False) -> bool:
        """Greedy admission of one index build under the budget.

        Unbounded sessions always build (the pre-advisor behaviour).  Under
        a budget the build is admitted only when (1) the projected total
        cost of the best index-free method, relative to the index's, clears
        ``min_cost_improvement``; (2) the projected index bytes fit the
        budget at all; and (3) the bytes can actually be made available —
        from free space plus residents whose decayed benefit-per-byte is
        lower than the newcomer's projected benefit-per-byte (the Extend
        rule: never displace a resident that earns its bytes better).

        ``pinned`` marks a build the caller *named* (``method="cutting"``
        rather than ``"auto"``, PR 9): the cost-improvement heuristic (1)
        is waived — an explicit preference is not second-guessed on
        projected speed — but the byte-feasibility checks (2) and (3)
        still apply, because a pinned method is a preference, not a
        licence to blow the byte budget.
        """
        budget = self.effective_budget()
        if budget is None:
            return True
        if plan.method not in INDEX_METHODS:
            return True
        queries = max(1, plan.num_queries)
        index_total = plan.estimate_for(plan.method).total(queries)
        best_alternative = plan.best_alternative_cost(queries)
        if best_alternative is None:
            return True
        if not pinned:
            ratio = plan.index_improvement_ratio(queries)
            if ratio is None or ratio < self.min_cost_improvement:
                self.builds_skipped += 1
                return False
        num_skyline = (
            plan.num_skyline
            if plan.num_skyline is not None
            else expected_skyline_size(plan.num_points, plan.dimensions)
        )
        projected_bytes = estimate_index_nbytes(num_skyline, plan.dimensions)
        if projected_bytes > budget:
            self.builds_skipped += 1
            return False
        resident = [
            (entry.benefit_per_byte(self._clock), entry.nbytes)
            for entry in self._ledger.values()
            if entry.resident
        ]
        free = budget - sum(nbytes for _, nbytes in resident)
        if projected_bytes <= free:
            return True
        newcomer_per_byte = max(0.0, best_alternative - index_total) / max(
            1, projected_bytes
        )
        for per_byte, nbytes in sorted(resident):
            if per_byte >= newcomer_per_byte:
                break
            free += nbytes
            if projected_bytes <= free:
                return True
        self.builds_skipped += 1
        return False

    def enforce(self, index_sizes: Dict[Tuple, int]) -> List[Tuple]:
        """Reconcile the ledger with the live cache and pick evictions.

        ``index_sizes`` maps every *currently cached* index key to its exact
        resident bytes; ledger entries absent from it are marked
        non-resident (the session dropped them for its own reasons).
        Returns the keys to evict — lowest decayed benefit-per-byte first —
        until the resident total fits the effective budget.  The caller
        removes them from its caches; nothing is mutated here beyond the
        ledger's resident flags.
        """
        for key, nbytes in index_sizes.items():
            entry = self._entry(key)
            entry.resident = True
            entry.nbytes = int(nbytes)
        for key, entry in self._ledger.items():
            if entry.kind == "index" and key not in index_sizes:
                entry.resident = False
        total = sum(
            entry.nbytes for entry in self._ledger.values() if entry.resident
        )
        budget = self.effective_budget()
        evicted: List[Tuple] = []
        if budget is not None and total > budget:
            ranked = sorted(
                (k for k, e in self._ledger.items() if e.resident),
                key=lambda k: (
                    self._ledger[k].benefit_per_byte(self._clock),
                    self._ledger[k].clock,
                ),
            )
            for key in ranked:
                if total <= budget:
                    break
                entry = self._ledger[key]
                entry.resident = False
                total -= entry.nbytes
                evicted.append(key)
                self.evictions += 1
        self.bytes_resident = total
        return evicted


__all__ = [
    "BENEFIT_DECAY",
    "DEFAULT_MIN_COST_IMPROVEMENT",
    "FAILURE_ENTRY_BENEFIT",
    "FAILURE_ENTRY_BYTES",
    "IndexAdvisor",
    "LedgerEntry",
    "WhatIfCostModel",
    "estimate_index_nbytes",
    "index_budget_from_env",
    "resolve_index_budget",
    "validate_index_budget",
]
