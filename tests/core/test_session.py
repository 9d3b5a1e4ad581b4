"""Tests for the DatasetSession executor layer (repro.core.session)."""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.core.query import EclipseQuery
from repro.core.session import DatasetSession, index_cache_key
from repro.core.transform import eclipse_transform_indices
from repro.core.weights import RatioVector
from repro.data.generators import generate_dataset
from repro.errors import (
    AlgorithmNotSupportedError,
    InvalidPlanInputError,
    InvalidWeightRangeError,
    ReproError,
)


def random_ratio_specs(rng, count, dimensions):
    """Fuzzed uniform ratio ranges with strictly positive upper bounds."""
    specs = []
    for _ in range(count):
        low = float(rng.uniform(0.05, 1.0))
        high = low + float(rng.uniform(0.05, 3.0))
        specs.append(RatioVector.uniform(low, high, dimensions))
    return specs


class TestSessionBasics:
    def test_properties(self, hotels):
        session = DatasetSession(hotels, ratios=(0.25, 2.0))
        assert session.num_points == 4
        assert session.dimensions == 2
        assert session.default_ratios == RatioVector.uniform(0.25, 2.0, 2)

    def test_run_matches_facade(self, hotels):
        session = DatasetSession(hotels)
        result = session.run(ratios=(0.25, 2.0))
        assert result.method == "transform"
        assert result.indices.tolist() == [0, 1, 2]

    def test_skyline_computed_once(self, hotels):
        session = DatasetSession(hotels)
        first = session.skyline()
        second = session.skyline()
        assert first is second
        assert session.stats.skyline_builds == 1

    def test_result_is_slotted_and_picklable(self, hotels):
        result = DatasetSession(hotels).run(ratios=(0.25, 2.0))
        assert not hasattr(result, "__dict__")
        clone = pickle.loads(pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL))
        assert np.array_equal(clone.indices, result.indices)
        assert np.array_equal(clone.points, result.points)
        assert (clone.method, clone.ratios) == (result.method, result.ratios)

    def test_empty_dataset_batch(self):
        session = DatasetSession(np.empty((0, 3)))
        results = session.run_batch([(0.5, 2.0), (0.25, 1.0)])
        assert [len(r) for r in results] == [0, 0]
        assert all(r.points.shape == (0, 3) for r in results)

    def test_empty_spec_list(self, hotels):
        assert DatasetSession(hotels).run_batch([]) == []

    def test_unknown_index_kwarg_rejected_eagerly(self, hotels):
        with pytest.raises(AlgorithmNotSupportedError):
            DatasetSession(hotels, index_kwargs={"capactiy": 8})

    def test_dimensionless_empty_dataset_requires_ratio_vector(self):
        with pytest.raises(InvalidWeightRangeError):
            DatasetSession([], ratios=(0.5, 2.0))


class TestIndexCache:
    def test_same_parameters_reuse_the_index(self, hotels):
        session = DatasetSession(hotels)
        assert session.index_for("quadtree") is session.index_for("quadtree")
        assert session.stats.index_builds == 1

    def test_backend_parameters_are_part_of_the_key(self):
        # Seed bug: the facade cached indexes by backend name only, so a
        # changed capacity/max_ratio/dense_threshold silently reused a stale
        # index.  Every parameter must produce a distinct cache entry.
        data = generate_dataset("anti", 80, 3, seed=7)
        session = DatasetSession(data)
        default = session.index_for("quadtree")
        assert session.index_for("quadtree", capacity=4) is not default
        assert session.index_for("quadtree", max_ratio=16.0) is not default
        assert session.index_for("quadtree", dense_threshold=2) is not default
        assert session.index_for("quadtree", seed=99) is not default
        assert session.stats.index_builds == 5
        # ...and explicitly passing a default maps onto the cached default.
        assert session.index_for("quadtree", capacity=None) is default

    def test_facade_honours_index_kwargs_in_cache(self):
        data = generate_dataset("anti", 60, 3, seed=3)
        small = EclipseQuery(data, capacity=2).build_index("quad")
        large = EclipseQuery(data, capacity=64).build_index("quad")
        assert small.intersection_index.tree.capacity == 2
        assert large.intersection_index.tree.capacity == 64

    def test_index_for_rejects_scan_methods(self, hotels):
        with pytest.raises(AlgorithmNotSupportedError):
            DatasetSession(hotels).index_for("transform")

    def test_cache_key_normalises_defaults(self):
        assert index_cache_key("quadtree", {}) == index_cache_key(
            "quadtree", {"capacity": None, "seed": 0}
        )
        assert index_cache_key("quadtree", {}) != index_cache_key(
            "quadtree", {"capacity": 8}
        )


class TestBatchSharedWork:
    def test_transform_batch_builds_artifacts_exactly_once(self):
        # The acceptance contract of the batch executor: >= 50 ratio specs,
        # one skyline, one corner-score matrix, results identical to
        # independent facade queries.
        data = generate_dataset("anti", 1500, 3, seed=11)
        rng = np.random.default_rng(42)
        specs = random_ratio_specs(rng, 50, 3)

        session = DatasetSession(data)
        results = session.run_batch(specs, method="transform")
        assert session.stats.skyline_builds == 1
        assert session.stats.corner_matrix_builds == 1
        assert session.stats.index_builds == 0
        assert session.stats.queries == 50

        for ratio_vector, result in zip(specs, results):
            independent = EclipseQuery(data).run(
                ratios=ratio_vector, method="transform"
            )
            assert np.array_equal(result.indices, independent.indices)
            assert result.method == "transform"

    def test_index_batch_builds_index_exactly_once(self):
        data = generate_dataset("anti", 1500, 3, seed=11)
        rng = np.random.default_rng(43)
        specs = random_ratio_specs(rng, 50, 3)

        session = DatasetSession(data)
        results = session.run_batch(specs, method="quad")
        assert session.stats.skyline_builds == 1
        assert session.stats.index_builds == 1
        assert session.stats.queries == 50

        for ratio_vector, result in zip(specs, results):
            independent = EclipseQuery(data).run(ratios=ratio_vector, method="quad")
            assert np.array_equal(result.indices, independent.indices)

    def test_shared_session_reuses_artifacts_across_batches(self):
        # transform batch then index batch on one session: the raw skyline
        # is computed once for both.
        data = generate_dataset("anti", 800, 3, seed=5)
        rng = np.random.default_rng(44)
        specs = random_ratio_specs(rng, 25, 3)
        session = DatasetSession(data)
        session.run_batch(specs, method="transform")
        session.run_batch(specs, method="cutting")
        assert session.stats.artifact_counts() == (1, 1, 1)
        assert session.stats.batches == 2

    @pytest.mark.parametrize("method", ["auto", "transform", "quad", "cutting"])
    @pytest.mark.parametrize("dimensions", [2, 3, 4])
    def test_fuzzed_batch_parity(self, method, dimensions):
        rng = np.random.default_rng(dimensions * 100 + len(method))
        data = generate_dataset("anti", 300, dimensions, seed=dimensions)
        specs = random_ratio_specs(rng, 8, dimensions)
        session = DatasetSession(data)
        results = session.run_batch(specs, method=method)
        for ratio_vector, result in zip(specs, results):
            independent = EclipseQuery(data).run(ratios=ratio_vector, method=method)
            # `auto` may resolve to different methods for the batch and the
            # one-shot runs; all methods return identical eclipse sets.
            assert np.array_equal(result.indices, independent.indices)

    def test_index_batch_issues_one_batched_probe(self, monkeypatch):
        # The index branch of run_batch must go through the batched probe
        # (one order-vector GEMM + one tree traversal for the whole batch),
        # not through per-query lookups.
        from repro.index.eclipse_index import EclipseIndex as _EI

        calls = {"many": 0, "single": 0}
        orig_many = _EI.query_indices_many
        orig_single = _EI.query_indices

        def spy_many(self, specs):
            calls["many"] += 1
            return orig_many(self, specs)

        def spy_single(self, ratios):
            calls["single"] += 1
            return orig_single(self, ratios)

        monkeypatch.setattr(_EI, "query_indices_many", spy_many)
        monkeypatch.setattr(_EI, "query_indices", spy_single)
        data = generate_dataset("anti", 400, 3, seed=11)
        session = DatasetSession(data)
        specs = random_ratio_specs(np.random.default_rng(7), 10, 3)
        session.run_batch(specs, method="quad")
        assert calls["many"] == 1
        assert calls["single"] == 0
        assert session.stats.queries == 10

    def test_auto_index_batch_falls_back_on_degenerate_data(self, force_auto_index):
        # Collinear points: every intersection hyperplane is a coincident
        # duplicate, so tree index builds raise DegenerateHyperplaneError.
        # An auto batch whose plan picks an index must transparently fall
        # back to the transformation; an explicitly pinned index method
        # must surface the error.
        from repro.errors import DegenerateHyperplaneError

        t = np.arange(40, dtype=float)
        data = np.array([5.0, 5.0, 5.0]) + t[:, None] * np.array([1.0, -1.0, 0.5])
        specs = [RatioVector.uniform(0.4, 2.2, 3), RatioVector.uniform(0.7, 1.6, 3)]

        session = DatasetSession(data)
        force_auto_index(session)
        plan = session.plan(method="auto", num_queries=len(specs))
        assert plan.uses_index
        results = session.run_batch(specs, method="auto")
        expected = DatasetSession(data).run_batch(specs, method="transform")
        for got, want in zip(results, expected):
            assert np.array_equal(got.indices, want.indices)
            assert got.method == "transform"
        # last_plan reflects what actually ran, not the doomed index.
        assert session.last_plan.method == "transform"
        assert session.stats.index_builds == 0
        # The failed configuration is memoised: a second batch must not
        # re-attempt the build, and index_for fails instantly.
        failures = len(session._degenerate_index_keys)
        assert failures == 1
        session.run_batch(specs, method="auto")
        assert len(session._degenerate_index_keys) == failures
        assert session.last_plan.method == "transform"
        with pytest.raises(DegenerateHyperplaneError):
            session.index_for(plan.index_backend)
        with pytest.raises(DegenerateHyperplaneError):
            DatasetSession(data).run_batch(specs, method="cutting")

    def test_baseline_batch_matches_independent_runs(self):
        data = generate_dataset("inde", 150, 3, seed=2)
        specs = [RatioVector.uniform(0.5, 2.0, 3), RatioVector.uniform(0.2, 1.1, 3)]
        session = DatasetSession(data)
        results = session.run_batch(specs, method="baseline")
        for ratio_vector, result in zip(specs, results):
            independent = EclipseQuery(data).run(
                ratios=ratio_vector, method="baseline"
            )
            assert np.array_equal(result.indices, independent.indices)
            assert result.method == "baseline"

    def test_zero_upper_bound_disables_prefilter_but_stays_exact(self):
        # A high bound of zero makes a corner weight zero, for which the
        # raw-space skyline prefilter is unsound; the batch must detect it
        # and still return the per-query transform answer.
        data = generate_dataset("inde", 120, 3, seed=9)
        specs = [
            RatioVector.from_bounds([0.0, 0.5], [0.0, 2.0]),
            RatioVector.uniform(0.5, 2.0, 3),
        ]
        session = DatasetSession(data)
        results = session.run_batch(specs, method="transform")
        assert session.stats.corner_matrix_builds == 0
        for ratio_vector, result in zip(specs, results):
            independent = EclipseQuery(data).run(
                ratios=ratio_vector, method="transform"
            )
            assert np.array_equal(result.indices, independent.indices)

    def test_baseline_batch_never_computes_the_skyline(self):
        # A pinned baseline batch uses neither the skyline nor an index, so
        # the session must not pay for either.
        data = generate_dataset("anti", 200, 3, seed=4)
        session = DatasetSession(data)
        session.run_batch([(0.5, 2.0), (0.2, 1.1)], method="baseline")
        assert session.stats.artifact_counts() == (0, 0, 0)

    def test_index_skyline_method_override_is_honoured(self):
        # An explicit skyline_method index parameter must reach the build
        # instead of being shadowed by the session's memoised auto skyline.
        data = generate_dataset("anti", 120, 3, seed=6)
        session = DatasetSession(data, index_kwargs={"skyline_method": "bnl"})
        auto_session = DatasetSession(data)
        index = session.index_for("quadtree")
        np.testing.assert_array_equal(
            index.skyline_indices, auto_session.index_for("quadtree").skyline_indices
        )
        # The override bypasses the session's memoised skyline entirely.
        assert session.stats.skyline_builds == 0

    def test_batch_plan_recorded(self):
        data = generate_dataset("anti", 400, 3, seed=1)
        session = DatasetSession(data)
        session.run_batch(random_ratio_specs(np.random.default_rng(0), 30, 3))
        assert session.last_plan is not None
        assert session.last_plan.num_queries == 30
        assert session.last_plan.num_skyline == int(session.skyline().size)

    def test_batch_transform_runs_the_planned_substrate(self, monkeypatch):
        import repro.core.session as session_module

        data = generate_dataset("anti", 2_000, 3, seed=4)
        session = DatasetSession(data)
        specs = random_ratio_specs(np.random.default_rng(2), 6, 3)
        seen = []
        real = session_module._skyline_indices

        def spy(points, method="auto", **kwargs):
            seen.append(method)
            return real(points, method=method, **kwargs)

        session.skyline()
        monkeypatch.setattr(session_module, "_skyline_indices", spy)
        session.run_batch(specs, method="transform")
        assert seen == [session.last_plan.mapped_skyline_method] * len(specs)


class TestDuplicateSkylineRows:
    """The batched transformation maps each distinct skyline row once."""

    def test_corr_all_origin_skyline_byte_parity(self):
        # CORR clips at the origin: every skyline row is the same point.
        data = generate_dataset("CORR", 5_000, 3, seed=1000)
        specs = random_ratio_specs(np.random.default_rng(5), 8, 3)
        session = DatasetSession(data)
        results = session.run_batch(specs, method="auto")
        sky = session.skyline()
        assert sky.size > 1
        assert session.last_plan.num_unique_skyline == 1
        assert session.last_plan.method == "transform"
        for spec, result in zip(specs, results):
            # Every copy of the shared row survives, exactly as in the
            # uncollapsed transformation over the whole dataset.
            want = np.sort(eclipse_transform_indices(data, spec))
            assert np.array_equal(result.indices, want)
            assert np.array_equal(result.indices, np.sort(sky))
        for method in ("cutting", "quadtree", "baseline"):
            for got, want in zip(
                DatasetSession(data).run_batch(specs, method=method), results
            ):
                assert np.array_equal(got.indices, want.indices)

    @pytest.mark.parametrize("dims", [2, 3, 4])
    def test_partial_duplicates_byte_parity(self, dims):
        base = generate_dataset("ANTI", 300, dims, seed=dims)
        rng = np.random.default_rng(dims)
        data = np.vstack([base, base[rng.choice(300, 120)], base[:5], base[:5]])
        specs = random_ratio_specs(rng, 6, dims)
        session = DatasetSession(data)
        results = session.run_batch(specs, method="transform")
        plan = session.last_plan
        assert plan.num_unique_skyline < plan.num_skyline
        for spec, result in zip(specs, results):
            assert np.array_equal(
                result.indices, np.sort(eclipse_transform_indices(data, spec))
            )
        for got, want in zip(
            DatasetSession(data).run_batch(specs, method="cutting"), results
        ):
            assert np.array_equal(got.indices, want.indices)

    def test_unique_rows_follow_updates(self):
        data = generate_dataset("CORR", 2_000, 3, seed=3)
        specs = random_ratio_specs(np.random.default_rng(1), 4, 3)
        session = DatasetSession(data)
        session.run_batch(specs)
        assert session.last_plan.num_unique_skyline == 1
        # Two distinct new skyline rows below nothing else.
        session.apply_updates(inserts=np.array([[0.0, 0.0, -1.0], [-1.0, 0.0, 0.0]]))
        results = session.run_batch(specs)
        assert session.last_plan.num_unique_skyline == 2
        fresh = DatasetSession(session.data.copy()).run_batch(specs, method="baseline")
        for got, want in zip(results, fresh):
            assert np.array_equal(got.indices, want.indices)


class TestPlanInputValidation:
    """Malformed planner inputs fail with a ReproError before any planning."""

    @pytest.fixture
    def session(self):
        return DatasetSession(generate_dataset("inde", 200, 3, seed=1))

    def test_unhashable_method_is_rejected(self, session):
        with pytest.raises(AlgorithmNotSupportedError):
            session.plan(method=["auto"])
        with pytest.raises(AlgorithmNotSupportedError):
            session.run_batch([(0.5, 2.0)], method=["auto"])

    @pytest.mark.parametrize("bad", ["5", 2.0, True, None])
    def test_non_integer_num_queries_is_rejected(self, session, bad):
        with pytest.raises(InvalidPlanInputError):
            session.plan(num_queries=bad)

    @pytest.mark.parametrize("bad", [0, -3, np.int64(-1)])
    def test_num_queries_below_one_is_rejected(self, session, bad):
        with pytest.raises(InvalidPlanInputError):
            session.plan(num_queries=bad)

    def test_errors_are_repro_errors(self, session):
        with pytest.raises(ReproError):
            session.plan(num_queries=-3)

    def test_aliases_share_one_memo_entry(self, session):
        session.skyline()
        first = session.plan(method="cut", num_queries=np.int64(4))
        again = session.plan(method="CUTTING", num_queries=4)
        assert first is again
        assert first.num_queries == 4


class TestFacadeShim:
    def test_facade_exposes_session(self, hotels):
        query = EclipseQuery(hotels)
        assert query.session.num_points == 4
        query.run(ratios=(0.25, 2.0), method="quad")
        assert query.session.stats.index_builds == 1

    def test_facade_explain(self, hotels):
        plan = EclipseQuery(hotels).explain(num_queries=10)
        assert plan.num_queries == 10
        assert "eclipse query plan" in plan.explain()
