"""Tests for the cost-model planner (repro.core.plan)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import plan
from repro.core.plan import (
    CostEstimate,
    canonical_method,
    choose_skyline_method,
    expected_skyline_size,
    method_cost_estimates,
    plan_query,
)
from repro.errors import AlgorithmNotSupportedError, InvalidPlanInputError
from tests.core.test_plan_calibration import GRID


class TestCanonicalMethod:
    @pytest.mark.parametrize(
        "alias, canonical",
        [
            ("base", "baseline"),
            ("BASELINE", "baseline"),
            ("tran", "transform"),
            ("quad", "quadtree"),
            ("cut", "cutting"),
            ("auto", "auto"),
        ],
    )
    def test_aliases(self, alias, canonical):
        assert canonical_method(alias) == canonical

    def test_unknown_method(self):
        with pytest.raises(AlgorithmNotSupportedError):
            canonical_method("magic")
        with pytest.raises(AlgorithmNotSupportedError):
            canonical_method(None)


class TestSkylineSubstrate:
    # Snapshot of the n-and-d-aware dispatch across the (n, d) grid; the
    # substrates all return identical indices, so these pins document the
    # *speed* policy and catch accidental dispatch drift.
    @pytest.mark.parametrize(
        "n, d, expected",
        [
            (10, 2, "sweep2d"),
            (1_000_000, 2, "sweep2d"),
            (100, 3, "sfs"),  # small-n: recursion never recoups its overhead
            (511, 4, "sfs"),
            (512, 3, "divide_conquer"),
            (50_000, 3, "divide_conquer"),
            (50_000, 4, "divide_conquer"),
            (100, 5, "sfs"),
            (50_000, 5, "sfs"),
            (50_000, 8, "sfs"),
        ],
    )
    def test_grid_snapshot(self, n, d, expected):
        assert choose_skyline_method(n, d) == expected

    def test_expected_skyline_size_monotone_in_d(self):
        assert expected_skyline_size(10_000, 2) < expected_skyline_size(10_000, 4)

    def test_expected_skyline_size_bounded_by_n(self):
        assert expected_skyline_size(10, 9) <= 10
        assert expected_skyline_size(0, 3) == 0


class TestCostEstimates:
    def test_all_methods_estimated(self):
        estimates = method_cost_estimates(1000, 3)
        assert sorted(e.method for e in estimates) == [
            "baseline",
            "cutting",
            "quadtree",
            "transform",
        ]

    def test_scan_methods_have_no_build(self):
        estimates = {e.method: e for e in method_cost_estimates(1000, 3)}
        assert estimates["baseline"].build == 0.0
        assert estimates["transform"].build == 0.0
        assert estimates["quadtree"].build > 0.0

    def test_cutting_build_priced_below_quadtree_for_high_d(self):
        # The PR 3 measured constants: ~0.3 us/pair for the flattened
        # cutting build vs ~tens of us/pair for the non-separating quadtree.
        estimates = {e.method: e for e in method_cost_estimates(10_000, 4)}
        assert estimates["cutting"].build < estimates["quadtree"].build
        # In two dimensions both share the sorted structure's price.
        estimates_2d = {e.method: e for e in method_cost_estimates(10_000, 2)}
        assert estimates_2d["cutting"].build == estimates_2d["quadtree"].build

    def test_measured_skyline_size_drives_index_cost(self):
        small = {e.method: e for e in method_cost_estimates(10_000, 4, num_skyline=50)}
        large = {
            e.method: e for e in method_cost_estimates(10_000, 4, num_skyline=5000)
        }
        assert small["quadtree"].build < large["quadtree"].build
        assert small["quadtree"].per_query < large["quadtree"].per_query

    def test_total_includes_build_once(self):
        estimate = CostEstimate("quadtree", build=100.0, per_query=1.0)
        assert estimate.total(1) == pytest.approx(101.0)
        assert estimate.total(10) == pytest.approx(110.0)


class TestPlanQuery:
    @pytest.mark.parametrize("n", [10, 1000, 100_000])
    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_one_shot_always_transform(self, n, d):
        plan = plan_query(n, d, method="auto", num_queries=1)
        assert plan.method == "transform"
        assert plan.index_backend is None
        assert not plan.uses_index

    def test_large_batches_amortise_an_index(self):
        # 200-query batches amortise each index build four times further
        # than the calibration grid's 50-spec batches.  On every grid cell
        # auto must pick an arm whose measured ms/q at 200 queries (build
        # amortised) is within 1.5x of the best arm's: an index exactly
        # where the measurements say it amortises.
        for row in GRID["rows"]:
            q = 200
            measured = {
                arm: entry["build_ms"] / q + entry["query_ms"]
                for arm, entry in row["arms"].items()
                if "query_ms" in entry
            }
            plan = plan_query(
                row["n"],
                row["d"],
                method="auto",
                num_queries=q,
                num_skyline=row["skyline"],
                num_unique_skyline=row["unique_skyline"],
            )
            assert plan.index_backend == (plan.method if plan.uses_index else None)
            assert measured[plan.method] <= 1.5 * min(measured.values()), row

    def test_anti_batches_stay_on_the_transformation(self):
        # The measured misroute this cost model fixes: ANTI n=20k d=3
        # batches went to a cutting index ~20-40x slower per query.
        plan = plan_query(20_000, 3, num_queries=10, num_skyline=540, num_unique_skyline=517)
        assert plan.method == "transform"
        ratio = plan.estimate_for("cutting").total(10) / plan.expected_cost
        assert ratio > 10

    def test_huge_measured_skyline_disables_index_choice(self):
        # When every point is a skyline point (worst case), the u^2 pair
        # enumeration dwarfs repeated transformation passes.
        plan = plan_query(
            50_000, 3, method="auto", num_queries=20, num_skyline=50_000
        )
        assert plan.method == "transform"

    def test_explicit_method_is_respected(self):
        plan = plan_query(1000, 3, method="cutting", num_queries=1)
        assert plan.method == "cutting"
        assert plan.index_backend == "cutting"
        assert "explicitly" in plan.reason

    def test_substrates_recorded(self):
        plan = plan_query(50_000, 4, method="auto", num_queries=1)
        assert plan.skyline_method == "divide_conquer"
        # The corner-score substrate is chosen for the ~211 estimated
        # skyline rows in 2^(d-1) = 8 columns: block-SFS measures fastest.
        assert plan.mapped_skyline_method == "sfs"

    def test_mapped_substrate_follows_the_skyline_rows(self):
        # One distinct skyline row: the cheapest call, not the n-based pick.
        many = plan_query(50_000, 3, num_skyline=500, num_unique_skyline=500)
        one = plan_query(50_000, 3, num_skyline=500, num_unique_skyline=1)
        assert many.mapped_skyline_method == plan.choose_mapped_skyline_method(500, 4)
        assert one.mapped_skyline_method == plan.choose_mapped_skyline_method(1, 4)
        assert (
            one.estimate_for("transform").per_query
            < many.estimate_for("transform").per_query
        )

    @pytest.mark.parametrize("bad", ["5", 2.5, True, None, 0, -3])
    def test_num_queries_must_be_a_positive_integer(self, bad):
        with pytest.raises(InvalidPlanInputError):
            plan_query(1000, 3, num_queries=bad)

    def test_numpy_integer_num_queries_accepted(self):
        assert plan_query(1000, 3, num_queries=np.int64(7)).num_queries == 7

    def test_estimate_for_unknown_method_raises(self):
        plan = plan_query(100, 3)
        with pytest.raises(KeyError):
            plan.estimate_for("magic")


class TestExplain:
    def test_explain_mentions_workload_and_choice(self):
        plan = plan_query(2_000, 3, method="auto", num_queries=50, num_skyline=240)
        text = plan.explain()
        assert "n=2000" in text
        assert "d=3" in text
        assert "50 ratio-range queries" in text
        assert "240 (measured)" in text
        assert plan.method in text
        assert "-> " + plan.method[:4] in text.replace("  ", " ") or plan.method in text

    def test_explain_lists_every_method(self):
        text = plan_query(2_000, 3).explain()
        for method in ("baseline", "transform", "quadtree", "cutting"):
            assert method in text

    def test_explain_singular_query(self):
        text = plan_query(100, 2, num_queries=1).explain()
        assert "1 ratio-range query" in text

    def test_explain_prints_predicted_milliseconds(self):
        plan = plan_query(20_000, 3, num_queries=10, num_skyline=540)
        text = plan.explain()
        assert "predicted cost (ms" in text
        expected = f"{1e3 * plan.estimate_for('transform').total(10):.4g}"
        assert expected in text


class TestBackendCalibration:
    """PR 9: the per-backend dispatch-cost model in the planner.

    The thread and serial arithmetic must reproduce the PR 7 model bit
    for bit (``work`` is ignored there), and the process backend must
    price its measured dispatch-overhead floor: tiny kernels stay serial,
    large ones approach the ideal process scaling from below.
    """

    def test_thread_backend_reproduces_pr7_model_bitwise(self):
        for threads in (1, 2, 4, 8, 16):
            expected = (
                1.0
                if threads == 1
                else 1.0 + plan.PARALLEL_EFFICIENCY * (threads - 1)
            )
            assert plan.parallel_speedup(threads) == expected
            # `work` must not perturb the thread model at all.
            for work in (None, 0.0, 1.0, 1e3, 1e9):
                assert plan.parallel_speedup(
                    threads, backend="thread", work=work
                ) == expected

    def test_serial_backend_is_always_one(self):
        for threads in (1, 2, 8):
            assert plan.parallel_speedup(threads, backend="serial") == 1.0
            assert (
                plan.parallel_speedup(threads, backend="serial", work=1e12)
                == 1.0
            )

    def test_process_small_work_stays_serial(self):
        below = plan.MIN_PROCESS_PARALLEL_OPS / 2
        assert plan.parallel_speedup(8, backend="process", work=below) == 1.0

    def test_process_large_work_approaches_ideal_from_below(self):
        ideal = 1.0 + plan.PROCESS_EFFICIENCY * 7
        moderate = plan.parallel_speedup(
            8, backend="process", work=plan.MIN_PROCESS_PARALLEL_OPS * 2
        )
        huge = plan.parallel_speedup(8, backend="process", work=1e12)
        assert 1.0 <= moderate < huge < ideal or np.isclose(huge, ideal)
        # The floor monotonically hurts less as work grows.
        assert moderate < huge

    def test_process_without_work_prices_ideal(self):
        assert plan.parallel_speedup(4, backend="process") == 1.0 + (
            plan.PROCESS_EFFICIENCY * 3
        )

    def test_thread_estimates_unchanged_by_backend_param_default(self):
        # method_cost_estimates(backend="thread") must be byte-identical
        # to the PR 7 call without the parameter.
        for threads in (1, 4):
            base = plan.method_cost_estimates(50_000, 4, threads=threads)
            explicit = plan.method_cost_estimates(
                50_000, 4, threads=threads, backend="thread"
            )
            for a, b in zip(base, explicit):
                assert a.method == b.method
                assert a.build == b.build
                assert a.per_query == b.per_query

    def test_process_backend_prices_dispatch_floor_into_estimates(self):
        threaded = plan.method_cost_estimates(
            200_000, 4, threads=8, backend="thread"
        )
        processed = plan.method_cost_estimates(
            200_000, 4, threads=8, backend="process"
        )
        # The process backend never beats the thread model's optimistic
        # scaling in the planner's own units (its efficiency constant is
        # lower and the floor only adds cost).
        for a, b in zip(threaded, processed):
            assert a.method == b.method
            assert b.total(8) >= a.total(8)

    def test_plan_query_accepts_backend_and_still_picks_a_method(self):
        chosen = plan.plan_query(
            100_000, 4, num_queries=16, threads=8, backend="process"
        )
        assert chosen.method in plan.METHOD_ALIASES.values()
