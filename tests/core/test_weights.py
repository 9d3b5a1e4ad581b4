"""Tests for attribute weight-ratio ranges and their user-facing helpers."""

from __future__ import annotations

import math
import pickle

import numpy as np
import pytest

from repro.core.weights import (
    RATIO_INFINITY,
    ImportanceCategory,
    RatioVector,
    WeightRange,
    angle_range_to_ratio_range,
    category_to_ratio_range,
    make_ratio_vector,
    ratio_range_to_angle_range,
    weight_interval_to_ratio_range,
)
from repro.errors import InvalidWeightRangeError


class TestWeightRange:
    def test_valid_range(self):
        rng = WeightRange(0.25, 2.0)
        assert rng.low == 0.25
        assert rng.high == 2.0
        assert rng.width == pytest.approx(1.75)

    def test_degenerate_range_is_1nn(self):
        assert WeightRange(2.0, 2.0).is_degenerate

    def test_unbounded_range_is_skyline(self):
        assert WeightRange(0.0, math.inf).is_unbounded

    def test_infinite_high_clamped(self):
        assert WeightRange(0.0, math.inf).high == RATIO_INFINITY

    def test_contains(self):
        rng = WeightRange(0.25, 2.0)
        assert rng.contains(1.0)
        assert rng.contains(0.25)
        assert rng.contains(2.0)
        assert not rng.contains(2.1)
        assert not rng.contains(0.2)

    def test_dual_query_interval(self):
        assert WeightRange(0.25, 2.0).dual_query_interval() == (-2.0, -0.25)

    def test_rejects_inverted_bounds(self):
        with pytest.raises(InvalidWeightRangeError):
            WeightRange(2.0, 1.0)

    def test_rejects_negative_bounds(self):
        with pytest.raises(InvalidWeightRangeError):
            WeightRange(-0.5, 1.0)

    def test_rejects_nan(self):
        with pytest.raises(InvalidWeightRangeError):
            WeightRange(float("nan"), 1.0)

    def test_rejects_infinite_low(self):
        with pytest.raises(InvalidWeightRangeError):
            WeightRange(math.inf, math.inf)

    def test_slotted_and_picklable(self):
        # Slotted (no per-instance dict) yet frozen, and pickles across
        # the service's process boundary.
        rng = WeightRange(0.5, math.inf)
        assert not hasattr(rng, "__dict__")
        with pytest.raises(AttributeError):
            rng.low = 1.0
        for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
            clone = pickle.loads(pickle.dumps(rng, protocol=protocol))
            assert clone == rng and hash(clone) == hash(rng)


class TestRatioVector:
    def test_slotted_and_picklable(self):
        vector = RatioVector.from_bounds([0.2, 0.5], [1.5, 3.0])
        assert not hasattr(vector, "__dict__")
        clone = pickle.loads(pickle.dumps(vector, protocol=pickle.HIGHEST_PROTOCOL))
        assert clone == vector and hash(clone) == hash(vector)
        assert np.array_equal(clone.corner_weight_vectors(), vector.corner_weight_vectors())

    def test_uniform_builds_d_minus_1_ranges(self):
        rv = RatioVector.uniform(0.25, 2.0, 4)
        assert rv.num_ratios == 3
        assert rv.dimensions == 4
        assert all(r.low == 0.25 and r.high == 2.0 for r in rv)

    def test_uniform_requires_at_least_two_dimensions(self):
        with pytest.raises(InvalidWeightRangeError):
            RatioVector.uniform(0.25, 2.0, 1)

    def test_exact_is_1nn_instantiation(self):
        rv = RatioVector.exact([2.0, 0.5])
        assert rv.is_exact
        assert not rv.is_skyline

    def test_skyline_instantiation(self):
        rv = RatioVector.skyline(3)
        assert rv.is_skyline
        assert not rv.is_exact

    def test_from_weight_vector_normalises(self):
        rv = RatioVector.from_weight_vector([2.0, 4.0, 2.0])
        np.testing.assert_allclose(rv.lows, [1.0, 2.0])
        np.testing.assert_allclose(rv.highs, [1.0, 2.0])

    def test_from_weight_vector_rejects_zero_last_weight(self):
        with pytest.raises(InvalidWeightRangeError):
            RatioVector.from_weight_vector([1.0, 0.0])

    def test_from_categories(self):
        rv = RatioVector.from_categories([ImportanceCategory.SIMILAR])
        low, high = category_to_ratio_range(ImportanceCategory.SIMILAR)
        assert rv[0].low == pytest.approx(low)
        assert rv[0].high == pytest.approx(high)

    def test_corner_weight_vectors_shape_and_content(self):
        rv = RatioVector.from_bounds([0.25, 0.5], [2.0, 3.0])
        corners = rv.corner_weight_vectors()
        assert corners.shape == (4, 3)
        # All-lows first, all-highs last, trailing 1 everywhere.
        np.testing.assert_allclose(corners[0], [0.25, 0.5, 1.0])
        np.testing.assert_allclose(corners[-1], [2.0, 3.0, 1.0])
        np.testing.assert_allclose(corners[:, -1], 1.0)

    def test_corner_count_is_two_to_the_d_minus_1(self):
        for d in (2, 3, 4, 5):
            rv = RatioVector.uniform(0.5, 2.0, d)
            assert rv.corner_weight_vectors().shape == (2 ** (d - 1), d)

    def test_selected_domination_vectors(self):
        rv = RatioVector.from_bounds([0.25, 0.5], [2.0, 3.0])
        selected = rv.selected_domination_vectors()
        assert selected.shape == (3, 3)
        np.testing.assert_allclose(selected[0], [0.25, 0.5, 1.0])
        np.testing.assert_allclose(selected[1], [2.0, 0.5, 1.0])
        np.testing.assert_allclose(selected[2], [0.25, 3.0, 1.0])

    def test_widen(self):
        rv = RatioVector.uniform(0.5, 2.0, 2).widen(2.0)
        assert rv[0].low == pytest.approx(0.25)
        assert rv[0].high == pytest.approx(4.0)

    def test_widen_rejects_factor_below_one(self):
        with pytest.raises(InvalidWeightRangeError):
            RatioVector.uniform(0.5, 2.0, 2).widen(0.5)

    def test_contains(self):
        rv = RatioVector.from_bounds([0.25, 0.5], [2.0, 3.0])
        assert rv.contains([1.0, 1.0])
        assert not rv.contains([3.0, 1.0])
        assert not rv.contains([1.0])

    def test_equality_and_hash(self):
        a = RatioVector.uniform(0.25, 2.0, 3)
        b = RatioVector.uniform(0.25, 2.0, 3)
        c = RatioVector.uniform(0.25, 3.0, 3)
        assert a == b
        assert hash(a) == hash(b)
        assert a != c

    def test_empty_rejected(self):
        with pytest.raises(InvalidWeightRangeError):
            RatioVector([])


class TestConversions:
    def test_weight_interval_to_ratio_range(self):
        low, high = weight_interval_to_ratio_range(0.3, 0.5)
        assert low == pytest.approx(0.3 / 0.7)
        assert high == pytest.approx(1.0)

    def test_weight_interval_validation(self):
        with pytest.raises(InvalidWeightRangeError):
            weight_interval_to_ratio_range(0.8, 0.2)

    def test_angle_roundtrip(self):
        low, high = 0.36, 2.75
        angle_low, angle_high = ratio_range_to_angle_range(low, high)
        back_low, back_high = angle_range_to_ratio_range(angle_low, angle_high)
        assert back_low == pytest.approx(low, rel=1e-9)
        assert back_high == pytest.approx(high, rel=1e-9)

    def test_table4_angles_match_table4_ratios(self):
        # Table IV pairs each ratio setting with an angle setting.
        pairs = [
            ((0.18, 5.67), (100, 170)),
            ((0.36, 2.75), (110, 160)),
            ((0.58, 1.73), (120, 150)),
            ((0.84, 1.19), (130, 140)),
        ]
        for (low, high), (angle_low, angle_high) in pairs:
            computed_low, computed_high = ratio_range_to_angle_range(low, high)
            assert computed_low == pytest.approx(angle_low, abs=1.0)
            assert computed_high == pytest.approx(angle_high, abs=1.0)

    def test_angle_validation(self):
        with pytest.raises(InvalidWeightRangeError):
            angle_range_to_ratio_range(80, 170)

    def test_category_rejects_non_category(self):
        with pytest.raises(InvalidWeightRangeError):
            category_to_ratio_range("similar")


class TestMakeRatioVector:
    def test_none_gives_skyline(self):
        assert make_ratio_vector(None, 3).is_skyline

    def test_pair_applied_uniformly(self):
        rv = make_ratio_vector((0.25, 2.0), 4)
        assert rv.num_ratios == 3
        assert all(r.low == 0.25 for r in rv)

    def test_existing_vector_passthrough(self):
        rv = RatioVector.uniform(0.5, 1.5, 3)
        assert make_ratio_vector(rv, 3) is rv

    def test_existing_vector_dimension_mismatch(self):
        rv = RatioVector.uniform(0.5, 1.5, 3)
        with pytest.raises(InvalidWeightRangeError):
            make_ratio_vector(rv, 4)

    def test_list_of_pairs(self):
        rv = make_ratio_vector([(0.1, 1.0), (0.2, 2.0)], 3)
        np.testing.assert_allclose(rv.lows, [0.1, 0.2])
        np.testing.assert_allclose(rv.highs, [1.0, 2.0])

    def test_categories(self):
        rv = make_ratio_vector(
            [ImportanceCategory.IMPORTANT, ImportanceCategory.SIMILAR], 3
        )
        assert rv.num_ratios == 2

    def test_wrong_number_of_ranges(self):
        with pytest.raises(InvalidWeightRangeError):
            make_ratio_vector([(0.1, 1.0)], 4)

    def test_single_weight_range(self):
        rng = WeightRange(0.5, 1.5)
        rv = make_ratio_vector(rng, 3)
        assert rv.num_ratios == 2
        assert rv[0] == rng
