"""Unit tests of the index advisor (:mod:`repro.perf.advisor`).

The advisor's contract: exact resident-byte accounting through the arena
``nbytes`` rollups, a memoised what-if estimator with honest
``cost_requests``/``cache_hits`` counters, greedy budgeted admission gated
by ``min_cost_improvement``, benefit-per-byte eviction, and an
``REPRO_INDEX_BUDGET_MB`` environment knob that never fails silently.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core.plan import CostEstimate, plan_query
from repro.data.generators import generate_dataset
from repro.index.eclipse_index import EclipseIndex
from repro.perf.advisor import (
    FAILURE_ENTRY_BYTES,
    IndexAdvisor,
    WhatIfCostModel,
    estimate_index_nbytes,
    index_budget_from_env,
    resolve_index_budget,
    validate_index_budget,
)
from repro.perf.arena import GrowableArena
from repro.perf.blocking import GrowableBuffer


class TestNbytesAccounting:
    def test_arena_counts_capacity_not_just_valid_prefix(self):
        arena = GrowableArena(np.zeros((4, 3)), capacity=32)
        assert arena.nbytes() == 32 * 3 * 8  # full headroom, not 4 rows

    def test_arena_counts_resident_spare_buffer(self):
        arena = GrowableArena(np.arange(8, dtype=float))
        before = arena.nbytes()
        arena.insert(np.array([0, 4]), np.array([100.0, 200.0]))
        # The sorted-merge path keeps a spare buffer of equal capacity.
        assert arena.nbytes() >= 2 * before

    def test_growable_buffer_counts_all_stores(self):
        buf = GrowableBuffer(3, capacity=16, track_sums=True)
        assert buf.nbytes() == 16 * 3 * 8 + 16 * np.dtype(np.intp).itemsize + 16 * 8

    def test_index_rollup_positive_and_grows_with_appends(self):
        data = generate_dataset("ANTI", 400, 3, seed=3)
        index = EclipseIndex(backend="quadtree").build(data)
        base = index.nbytes()
        assert base > 0
        # The rollup must dominate the raw pair-arena payload it contains.
        pairs = index.intersection_index.num_pairs
        assert base >= pairs * 2 * np.dtype(np.intp).itemsize

    def test_unbuilt_index_is_free(self):
        assert EclipseIndex().nbytes() == 0

    def test_estimate_is_a_sane_admission_proxy(self):
        data = generate_dataset("ANTI", 800, 3, seed=5)
        index = EclipseIndex(backend="cutting").build(data)
        u = index.num_skyline_points
        estimate = estimate_index_nbytes(u, 3)
        actual = index.nbytes()
        # Within an order of magnitude either way is enough for feasibility.
        assert actual / 10 <= estimate <= actual * 10


class TestBudgetResolution:
    def test_explicit_beats_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_INDEX_BUDGET_MB", "1")
        assert resolve_index_budget(123456) == 123456

    def test_environment_used_when_unset(self, monkeypatch):
        monkeypatch.setenv("REPRO_INDEX_BUDGET_MB", "2")
        assert resolve_index_budget(None) == 2 * 1024 * 1024

    def test_default_is_unbounded(self, monkeypatch):
        monkeypatch.delenv("REPRO_INDEX_BUDGET_MB", raising=False)
        assert resolve_index_budget(None) is None

    def test_unparseable_env_warns_and_stays_unbounded(self, monkeypatch):
        monkeypatch.setenv("REPRO_INDEX_BUDGET_MB", "lots")
        with pytest.warns(RuntimeWarning, match="unparseable"):
            assert index_budget_from_env() is None

    def test_non_positive_env_warns_and_stays_unbounded(self, monkeypatch):
        monkeypatch.setenv("REPRO_INDEX_BUDGET_MB", "0")
        with pytest.warns(RuntimeWarning, match="non-positive"):
            assert index_budget_from_env() is None

    def test_fractional_env_resolves_to_bytes(self, monkeypatch):
        monkeypatch.setenv("REPRO_INDEX_BUDGET_MB", "0.5")
        assert index_budget_from_env() == 512 * 1024

    def test_validate_rejects_non_positive(self):
        with pytest.raises(ValueError):
            validate_index_budget(0)
        with pytest.raises(ValueError):
            validate_index_budget(-5)
        assert validate_index_budget(None) is None
        assert validate_index_budget(7) == 7


class TestWhatIfCostModel:
    def test_counters_and_memo(self):
        model = WhatIfCostModel()
        first = model.plan_query(1000, 3, num_queries=8, num_skyline=120)
        again = model.plan_query(1000, 3, num_queries=8, num_skyline=120)
        other = model.plan_query(2000, 3, num_queries=8, num_skyline=120)
        assert first is again  # frozen plans are shared from the memo
        assert other is not first
        assert model.cost_requests == 3
        assert model.cache_hits == 1

    def test_unique_skyline_count_is_part_of_the_key(self):
        model = WhatIfCostModel()
        first = model.plan_query(
            50_000, 3, num_queries=8, num_skyline=248, num_unique_skyline=248
        )
        collapsed = model.plan_query(
            50_000, 3, num_queries=8, num_skyline=248, num_unique_skyline=1
        )
        assert model.cache_hits == 0
        assert collapsed.num_unique_skyline == 1
        assert (
            collapsed.estimate_for("transform").per_query
            < first.estimate_for("transform").per_query
        )

    def test_matches_unmemoised_planner(self):
        model = WhatIfCostModel()
        got = model.plan_query(5000, 4, num_queries=16, num_skyline=900, threads=2)
        want = plan_query(5000, 4, num_queries=16, num_skyline=900, threads=2)
        assert got.method == want.method
        assert got.estimates == want.estimates

    def test_update_plans_memoised(self):
        model = WhatIfCostModel()
        first = model.plan_update(
            1000, 3, 10, 10, num_skyline=100, artifact="index",
            index_backend="quadtree", dead_fraction=0.1, num_pairs=4000,
        )
        again = model.plan_update(
            1000, 3, 10, 10, num_skyline=100, artifact="index",
            index_backend="quadtree", dead_fraction=0.1, num_pairs=4000,
        )
        assert first is again
        assert model.cache_hits == 1


class TestEvictionPolicy:
    def test_evicts_lowest_benefit_per_byte_first(self, monkeypatch):
        monkeypatch.delenv("REPRO_INDEX_BUDGET_MB", raising=False)
        advisor = IndexAdvisor(budget_bytes=1000)
        advisor.credit(("cold",), 1.0, nbytes=600)
        advisor.credit(("hot",), 1000.0, nbytes=600)
        evicted = advisor.enforce({("cold",): 600, ("hot",): 600})
        assert evicted == [("cold",)]
        assert advisor.bytes_resident == 600
        assert advisor.evictions == 1

    def test_no_budget_never_evicts(self, monkeypatch):
        monkeypatch.delenv("REPRO_INDEX_BUDGET_MB", raising=False)
        advisor = IndexAdvisor()
        advisor.credit(("a",), 0.0, nbytes=10**9)
        assert advisor.enforce({("a",): 10**9}) == []
        assert advisor.bytes_resident == 10**9

    def test_failure_entries_counted_and_evictable(self, monkeypatch):
        monkeypatch.delenv("REPRO_INDEX_BUDGET_MB", raising=False)
        advisor = IndexAdvisor(budget_bytes=FAILURE_ENTRY_BYTES * 3)
        for name in ("f1", "f2", "f3", "f4", "f5"):
            advisor.on_failure((name,))
        evicted = advisor.enforce({})
        assert len(evicted) == 2  # down to 3 * FAILURE_ENTRY_BYTES
        assert advisor.bytes_resident == FAILURE_ENTRY_BYTES * 3

    def test_failures_go_before_indexes_that_saved_work(self, monkeypatch):
        # Benefits are planner seconds: a failure's nominal credit must sit
        # far below any index whose build the planner priced (here 1 ms).
        monkeypatch.delenv("REPRO_INDEX_BUDGET_MB", raising=False)
        advisor = IndexAdvisor(budget_bytes=600 + FAILURE_ENTRY_BYTES)
        advisor.on_built(("index",), 600, build_cost=1e-3)
        advisor.on_failure(("doomed",))
        advisor.on_failure(("doomed-again",))
        evicted = advisor.enforce({("index",): 600})
        assert ("index",) not in evicted
        assert len(evicted) == 1
        assert advisor.bytes_resident == 600 + FAILURE_ENTRY_BYTES

    def test_recency_breaks_benefit_ties(self, monkeypatch):
        monkeypatch.delenv("REPRO_INDEX_BUDGET_MB", raising=False)
        advisor = IndexAdvisor(budget_bytes=1000)
        advisor.credit(("old",), 5.0, nbytes=600)
        for _ in range(50):
            advisor.credit(("fresh",), 5.0, nbytes=600)
        evicted = advisor.enforce({("old",): 600, ("fresh",): 600})
        assert evicted == [("old",)]  # decay demoted the idle entry


class TestAdmission:
    def _plan(self, num_queries):
        # A pinned index plan: admission is asked about this build whatever
        # the cost model would pick for the shape.
        return plan_query(
            20_000, 3, method="cutting", num_queries=num_queries, num_skyline=500
        )

    def test_plan_improvement_helpers(self):
        plan = self._plan(64)
        assert plan.uses_index
        best = plan.best_alternative_cost()
        index_total = plan.estimate_for(plan.method).total(plan.num_queries)
        assert best == min(
            plan.estimate_for(m).total(64) for m in ("baseline", "transform")
        )
        assert plan.index_improvement_ratio() == pytest.approx(best / index_total)
        single = plan_query(200, 3, num_queries=1)
        assert not single.uses_index
        assert single.index_improvement_ratio() is None
        assert single.best_alternative_cost() is not None

    def test_unbounded_always_admits(self, monkeypatch):
        monkeypatch.delenv("REPRO_INDEX_BUDGET_MB", raising=False)
        advisor = IndexAdvisor()
        assert advisor.should_build(self._plan(64))

    def test_oversized_projection_is_declined(self, monkeypatch):
        monkeypatch.delenv("REPRO_INDEX_BUDGET_MB", raising=False)
        advisor = IndexAdvisor(budget_bytes=1024)  # far below any projection
        plan = self._plan(64)
        assert plan.uses_index
        assert not advisor.should_build(plan, pinned=True)
        assert advisor.builds_skipped == 1

    def test_fitting_projection_is_admitted(self, monkeypatch):
        monkeypatch.delenv("REPRO_INDEX_BUDGET_MB", raising=False)
        advisor = IndexAdvisor(budget_bytes=512 * 1024 * 1024)
        plan = self._plan(64)
        assert plan.uses_index
        assert advisor.should_build(plan, pinned=True)

    def test_strong_residents_are_not_displaced(self, monkeypatch):
        monkeypatch.delenv("REPRO_INDEX_BUDGET_MB", raising=False)
        # The newcomer must project a saving to outbid anyone: price its
        # index at a tenth of the best index-free method.
        pinned = self._plan(64)
        cheap = CostEstimate("cutting", 0.0, pinned.best_alternative_cost() / 640)
        plan = dataclasses.replace(
            pinned,
            estimates=tuple(
                cheap if e.method == "cutting" else e for e in pinned.estimates
            ),
        )
        need = estimate_index_nbytes(500, 3)
        advisor = IndexAdvisor(budget_bytes=need + 100)
        # A resident earning far more per byte than the newcomer projects.
        advisor.credit(("hot",), 1e18, nbytes=need)
        advisor.enforce({("hot",): need})
        assert not advisor.should_build(plan, pinned=True)
        # A worthless resident is displaceable: admission succeeds.
        weak = IndexAdvisor(budget_bytes=need + 100)
        weak.credit(("cold",), 0.0, nbytes=need)
        weak.enforce({("cold",): need})
        assert weak.should_build(plan, pinned=True)
        # Without a projected saving nothing is worth displacing for.
        assert not weak.should_build(pinned, pinned=True)
