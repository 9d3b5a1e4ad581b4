"""Tests for the dynamic dataset core (DatasetSession.apply_updates)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.plan import MAX_DEAD_FRACTION, plan_update
from repro.core.session import DatasetSession
from repro.core.weights import RatioVector
from repro.data.generators import generate_dataset
from repro.errors import DegenerateHyperplaneError, DimensionMismatchError


def random_specs(rng, count, dims):
    specs = []
    for _ in range(count):
        low = float(rng.uniform(0.05, 1.0))
        specs.append(RatioVector.uniform(low, low + float(rng.uniform(0.1, 3.0)), dims))
    return specs


class TestApplyUpdatesBasics:
    def test_noop_batch_keeps_generation(self, hotels):
        session = DatasetSession(hotels)
        report = session.apply_updates()
        assert report.generation == 0
        assert session.generation == 0
        assert session.stats.update_batches == 0

    def test_data_composition_matches_numpy(self, hotels):
        session = DatasetSession(hotels)
        inserts = np.array([[2.0, 2.0], [9.0, 9.0]])
        session.apply_updates(inserts=inserts, deletes=[1])
        expected = np.vstack([np.delete(hotels, [1], axis=0), inserts])
        assert np.array_equal(session.data, expected)
        assert session.generation == 1

    def test_insert_dimension_mismatch_rejected(self, hotels):
        session = DatasetSession(hotels)
        with pytest.raises(DimensionMismatchError):
            session.apply_updates(inserts=np.ones((1, 3)))

    def test_updates_clear_degenerate_memo(self):
        t = np.arange(40, dtype=float)
        data = np.array([5.0, 5.0, 5.0]) + t[:, None] * np.array([1.0, -1.0, 0.5])
        session = DatasetSession(data)
        with pytest.raises(DegenerateHyperplaneError):
            session.index_for("cutting")
        # Replacing the collinear cloud with generic points must allow a
        # fresh build: the memoised degeneracy belongs to the old dataset.
        rng = np.random.default_rng(0)
        session.apply_updates(
            inserts=rng.uniform(0, 10, size=(30, 3)),
            deletes=np.arange(40),
        )
        index = session.index_for("cutting")
        assert index.num_points == 30


class TestDynamicParityFuzz:
    @pytest.mark.parametrize("method", ["auto", "transform", "quadtree", "cutting"])
    @pytest.mark.parametrize("dims", [2, 3])
    def test_incremental_session_byte_identical_to_rebuilt(self, method, dims):
        rng = np.random.default_rng(dims * 7 + len(method))
        data = rng.uniform(0, 10, size=(int(rng.integers(25, 80)), dims))
        session = DatasetSession(data, index_kwargs={"capacity": 4})
        specs = random_specs(rng, 3, dims)
        session.run_batch(specs, method=method)  # warm every artifact
        for step in range(4):
            num_deletes = int(rng.integers(0, max(1, session.num_points // 4)))
            deletes = (
                rng.choice(session.num_points, size=num_deletes, replace=False)
                if num_deletes
                else None
            )
            num_inserts = int(rng.integers(0, 12))
            inserts = (
                rng.uniform(0, 10, size=(num_inserts, dims)) if num_inserts else None
            )
            session.apply_updates(inserts=inserts, deletes=deletes)
            if session.num_points == 0:
                break
            rebuilt = DatasetSession(
                session.data.copy(), index_kwargs={"capacity": 4}
            )
            got = session.run_batch(specs, method=method)
            want = rebuilt.run_batch(specs, method=method)
            for g, w in zip(got, want):
                assert np.array_equal(g.indices, w.indices), (method, dims, step)

    def test_single_queries_also_match_after_updates(self):
        rng = np.random.default_rng(23)
        data = rng.uniform(0, 10, size=(60, 3))
        session = DatasetSession(data)
        session.run_batch(random_specs(rng, 4, 3))
        session.apply_updates(
            inserts=rng.uniform(0, 10, size=(9, 3)), deletes=[0, 5, 7]
        )
        rebuilt = DatasetSession(session.data.copy())
        for spec in random_specs(rng, 5, 3):
            for method in ("transform", "cutting", "baseline"):
                assert np.array_equal(
                    session.run_indices(spec, method=method),
                    rebuilt.run_indices(spec, method=method),
                )


class TestAscendingAnswers:
    def test_skyline_and_batch_answers_stay_strictly_ascending(self):
        # The batched transformation re-expands its answers with a boolean
        # gather over skyline(), so both must stay strictly ascending on
        # every path that assigns the skyline: the initial build, in-place
        # maintenance and the recompute after an oversized batch.
        # Duplicated rows exercise the unique-row re-expansion too.
        rng = np.random.default_rng(31)
        data = generate_dataset("anti", 3000, 3, seed=4)
        data = np.vstack([data, data[:40]])
        session = DatasetSession(data)
        specs = random_specs(rng, 5, 3)
        batches = [(8, 3), (2, 4), (6, 0), (12000, 10), (8, 2)]
        for step, (num_inserts, num_deletes) in enumerate([(0, 0)] + batches):
            if num_inserts or num_deletes:
                inserts = generate_dataset("anti", num_inserts, 3, seed=step)
                inserts[:2] = session.data[:2]
                deletes = rng.choice(
                    session.num_points, size=num_deletes, replace=False
                )
                session.apply_updates(inserts=inserts, deletes=deletes)
            sky = session.skyline()
            assert np.all(np.diff(sky) > 0), step
            for method in ("auto", "transform"):
                for result in session.run_batch(specs, method=method):
                    assert np.all(np.diff(result.indices) > 0), (step, method)
                    assert np.isin(result.indices, sky).all()
        assert session.stats.skyline_inplace_updates >= 1
        assert session.stats.rebuilds_triggered >= 1


class TestSharedSkylineIsolation:
    def test_two_cached_indexes_update_independently(self):
        # Regression: indexes built from the session's memoised skyline must
        # copy it — delete_points remaps its slot->position array in place,
        # and a shared ndarray would let the first index's remap corrupt
        # both the second index and the session's cached skyline.
        rng = np.random.default_rng(12)
        # Big enough that the update cost arm picks in-place maintenance
        # (a toy dataset's skyline rebuild is genuinely cheaper).
        data = rng.uniform(0, 10, size=(4000, 3))
        session = DatasetSession(data)
        specs = random_specs(rng, 3, 3)
        session.run_batch(specs, method="quadtree")
        session.run_batch(specs, method="cutting")
        assert session.stats.index_builds == 2
        report = session.apply_updates(
            inserts=rng.uniform(0, 10, size=(6, 3)), deletes=[0, 3, 8, 9]
        )
        assert report.skyline_plan.inplace
        assert report.index_updates == 2
        rebuilt = DatasetSession(session.data.copy())
        for method in ("quadtree", "cutting", "transform"):
            for g, w in zip(
                session.run_batch(specs, method=method),
                rebuilt.run_batch(specs, method=method),
            ):
                assert np.array_equal(g.indices, w.indices), method


class TestUpdateStatsAndGenerations:
    def test_inplace_updates_keep_artifacts_warm(self):
        rng = np.random.default_rng(3)
        data = generate_dataset("inde", 3000, 3, seed=0)
        session = DatasetSession(data)
        specs = random_specs(rng, 8, 3)
        session.run_batch(specs, method="cutting")
        assert session.stats.artifact_counts() == (1, 0, 1)
        report = session.apply_updates(
            inserts=rng.uniform(0, 1, size=(4, 3)), deletes=[0, 1]
        )
        assert report.skyline_plan is not None and report.skyline_plan.inplace
        assert report.index_updates == 1 and report.index_invalidations == 0
        session.run_batch(specs, method="cutting")
        # No artifact was rebuilt: the update maintained them in place.
        assert session.stats.artifact_counts() == (1, 0, 1)
        assert session.stats.skyline_inplace_updates == 1
        assert session.stats.index_inplace_updates == 1
        assert session.stats.inserts_applied == 4
        assert session.stats.deletes_applied == 2
        assert session.stats.rebuilds_triggered == 0
        assert session.generation == 1

    def test_huge_batch_recomputes_and_delta_patches_cached_indexes(self):
        data = generate_dataset("inde", 500, 3, seed=1)
        session = DatasetSession(data)
        session.run_batch(random_specs(np.random.default_rng(0), 6, 3), method="cutting")
        report = session.apply_updates(
            inserts=generate_dataset("inde", 20_000, 3, seed=2)
        )
        assert report.skyline_plan is not None
        assert report.skyline_plan.strategy == "rebuild"
        assert session.stats.rebuilds_triggered >= 1
        # The skyline recompute happened eagerly (counted as a build) so
        # the cached index could be patched with the membership diff
        # instead of being dropped (PR 4 dropped every cached index here).
        assert session.stats.skyline_builds == 2
        assert report.skyline_added >= 0 and report.skyline_removed >= 0
        assert (
            report.index_delta_patches + report.index_invalidations >= 1
        )
        builds_before = session.stats.skyline_builds
        results = session.run_batch(
            random_specs(np.random.default_rng(1), 6, 3), method="cutting"
        )
        # Nothing stale was left behind: the next batch reuses the
        # recomputed skyline as-is.
        assert session.stats.skyline_builds == builds_before
        rebuilt = DatasetSession(session.data.copy())
        for got, want in zip(
            results,
            rebuilt.run_batch(random_specs(np.random.default_rng(1), 6, 3), method="cutting"),
        ):
            assert np.array_equal(got.indices, want.indices)

    def test_stale_skyline_without_indexes_recomputed_lazily(self):
        data = generate_dataset("inde", 500, 3, seed=1)
        session = DatasetSession(data)
        session.skyline()
        report = session.apply_updates(
            inserts=generate_dataset("inde", 20_000, 3, seed=2)
        )
        # No cached index to patch: the rebuild decision leaves the tag
        # stale and the recompute happens lazily on the next access.
        assert report.skyline_plan is not None
        assert report.skyline_plan.strategy == "rebuild"
        assert report.skyline_added == -1
        assert session.stats.artifact_invalidations >= 1
        builds_before = session.stats.skyline_builds
        session.run_batch(random_specs(np.random.default_rng(1), 6, 3))
        assert session.stats.skyline_builds == builds_before + 1

    def test_generation_tags_invalidate_stale_indexes(self):
        data = generate_dataset("inde", 400, 3, seed=4)
        session = DatasetSession(data)
        session.index_for("cutting")
        # Deleting most of the dataset makes any incremental path dearer
        # than recomputing over the 50 survivors, so the update cost model
        # invalidates instead of maintaining.
        report = session.apply_updates(deletes=np.arange(350))
        if report.index_invalidations:
            builds = session.stats.index_builds
            session.index_for("cutting")
            assert session.stats.index_builds == builds + 1

    def test_degenerate_update_falls_back_in_auto_batches(self, force_auto_index):
        rng = np.random.default_rng(6)
        data = rng.uniform(4.0, 10.0, size=(60, 3))
        session = DatasetSession(data, index_kwargs={"capacity": 4})
        force_auto_index(session)
        specs = random_specs(rng, 6, 3)
        first = session.run_batch(specs, method="auto")
        assert session.last_plan.method == "cutting"
        assert session.stats.index_builds == 1
        # Collinear arrivals that dominate the whole cloud: the in-place
        # index update must fail with DegenerateHyperplaneError internally,
        # drop the index, and the next auto batch must fall back to the
        # transformation (the fresh build memoises the degeneracy).
        t = np.arange(50, dtype=float) * 0.01
        arrivals = np.array([1.0, 3.0, 2.0]) + t[:, None] * np.array(
            [1.0, -1.0, 0.5]
        )
        report = session.apply_updates(inserts=arrivals)
        assert report.index_invalidations >= 1
        results = session.run_batch(specs, method="auto")
        assert session.last_plan.method == "transform"
        rebuilt = DatasetSession(session.data.copy())
        expected = rebuilt.run_batch(specs, method="transform")
        for got, want in zip(results, expected):
            assert np.array_equal(got.indices, want.indices)
        with pytest.raises(DegenerateHyperplaneError):
            session.index_for("cutting")


class TestPlanUpdateArm:
    def test_small_batch_prefers_inplace(self):
        plan = plan_update(50_000, 3, 8, 8, num_skyline=200, artifact="skyline")
        assert plan.inplace

    def test_full_replacement_prefers_rebuild(self):
        plan = plan_update(1000, 3, 1000, 1000, num_skyline=50, artifact="skyline")
        assert plan.strategy == "rebuild"

    def test_dead_fraction_triggers_compaction(self):
        plan = plan_update(
            10_000,
            3,
            1,
            1,
            num_skyline=100,
            artifact="index",
            index_backend="cutting",
            dead_fraction=MAX_DEAD_FRACTION + 0.1,
            num_pairs=9000,
        )
        # Reclaiming the arenas is mandatory above the threshold, and the
        # in-place compaction pass undercuts re-enumerating and re-indexing
        # every pair by a wide margin.
        assert plan.strategy == "compact"
        assert plan.inplace and plan.compacts
        assert "dead slot fraction" in plan.reason

    def test_dead_fraction_falls_back_to_rebuild_when_patch_is_huge(self):
        # A churn so large that the incremental pass alone dwarfs a fresh
        # build: compaction cannot save it, the plan must say rebuild.
        plan = plan_update(
            1_000,
            3,
            500,
            500,
            num_skyline=60,
            artifact="index",
            index_backend="cutting",
            dead_fraction=MAX_DEAD_FRACTION + 0.2,
            num_pairs=5_000,
        )
        assert plan.strategy == "rebuild"
        assert not plan.inplace
        assert "dead slot fraction" in plan.reason

    def test_index_update_cheaper_than_quadtree_rebuild(self):
        plan = plan_update(
            20_000,
            4,
            5,
            5,
            num_skyline=400,
            artifact="index",
            index_backend="quadtree",
        )
        assert plan.inplace

    def test_unknown_artifact_rejected(self):
        from repro.errors import AlgorithmNotSupportedError

        with pytest.raises(AlgorithmNotSupportedError):
            plan_update(10, 2, 1, 1, artifact="corner-matrix")


class TestEmptySessionGrowth:
    def test_grow_from_empty_dataset(self):
        session = DatasetSession(np.empty((0, 3)))
        session.index_for("cutting")  # degenerate empty index, cached
        rng = np.random.default_rng(8)
        session.apply_updates(inserts=rng.uniform(0, 10, size=(25, 3)))
        rebuilt = DatasetSession(session.data.copy())
        spec = RatioVector.uniform(0.4, 2.0, 3)
        assert np.array_equal(
            session.run_indices(spec, method="cutting"),
            rebuilt.run_indices(spec, method="cutting"),
        )

    def test_drain_and_refill(self):
        rng = np.random.default_rng(9)
        data = rng.uniform(0, 10, size=(20, 3))
        session = DatasetSession(data)
        session.run_batch([RatioVector.uniform(0.3, 2.0, 3)], method="cutting")
        session.apply_updates(deletes=np.arange(20))
        assert session.num_points == 0
        assert session.run_batch([RatioVector.uniform(0.3, 2.0, 3)]) != []
        session.apply_updates(inserts=rng.uniform(0, 10, size=(15, 3)))
        rebuilt = DatasetSession(session.data.copy())
        spec = RatioVector.uniform(0.5, 1.8, 3)
        for method in ("transform", "cutting"):
            assert np.array_equal(
                session.run_indices(spec, method=method),
                rebuilt.run_indices(spec, method=method),
            )


class TestUpdateValidation:
    """Hostile inputs must fail loudly, before any state changes."""

    def test_nan_inserts_rejected(self, hotels):
        from repro.errors import InvalidDatasetError

        session = DatasetSession(hotels)
        with pytest.raises(InvalidDatasetError, match="finite"):
            session.apply_updates(inserts=np.array([[1.0, np.nan]]))
        assert session.generation == 0
        assert session.num_points == hotels.shape[0]

    def test_infinite_inserts_rejected(self, hotels):
        from repro.errors import InvalidDatasetError

        session = DatasetSession(hotels)
        for bad in (np.inf, -np.inf):
            with pytest.raises(InvalidDatasetError, match="finite"):
                session.apply_updates(inserts=np.array([[bad, 2.0]]))
        assert session.generation == 0

    def test_dimension_mismatch_rejected(self, hotels):
        session = DatasetSession(hotels)
        with pytest.raises(DimensionMismatchError):
            session.apply_updates(inserts=np.ones((2, 5)))
        assert session.generation == 0

    def test_out_of_range_deletes_rejected(self, hotels):
        session = DatasetSession(hotels)
        for bad in ([99], [-1]):
            with pytest.raises(Exception):
                session.apply_updates(deletes=np.array(bad))
        assert session.num_points == hotels.shape[0]

    def test_failed_batch_leaves_queries_unaffected(self, hotels, paper_ratio):
        from repro.errors import InvalidDatasetError

        session = DatasetSession(hotels)
        want = session.run_indices(paper_ratio)
        with pytest.raises(InvalidDatasetError):
            session.apply_updates(inserts=np.array([[np.nan, np.nan]]))
        assert np.array_equal(session.run_indices(paper_ratio), want)

    def test_fractional_deletes_rejected(self, hotels):
        from repro.errors import InvalidDatasetError

        session = DatasetSession(hotels)
        # Cast to intp, [1.7, 2.2] would delete rows 1 and 2.
        with pytest.raises(InvalidDatasetError, match="integers"):
            session.apply_updates(deletes=[1.7, 2.2])
        assert session.generation == 0
        assert session.num_points == hotels.shape[0]

    def test_boolean_mask_deletes_rejected(self, hotels):
        from repro.errors import InvalidDatasetError

        session = DatasetSession(hotels)
        # Cast to intp, a short mask would delete rows 0 and 1; a
        # full-length one is not a position list either.
        full = np.zeros(hotels.shape[0], dtype=bool)
        full[2] = True
        for mask in ([True, False], full):
            with pytest.raises(InvalidDatasetError, match="integers"):
                session.apply_updates(deletes=mask)
        assert session.generation == 0

    def test_string_deletes_rejected(self, hotels):
        from repro.errors import InvalidDatasetError

        session = DatasetSession(hotels)
        with pytest.raises(InvalidDatasetError):
            session.apply_updates(deletes=["a"])
        assert session.generation == 0

    def test_empty_float_deletes_accepted(self, hotels):
        session = DatasetSession(hotels)
        report = session.apply_updates(deletes=np.array([], dtype=float))
        assert report.num_deleted == 0
        assert session.generation == 0

    def test_non_numeric_inserts_rejected(self, hotels):
        from repro.errors import InvalidDatasetError

        session = DatasetSession(hotels)
        with pytest.raises(InvalidDatasetError, match="numeric"):
            session.apply_updates(inserts=[["a", "b"]])
        assert session.generation == 0
