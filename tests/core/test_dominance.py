"""Tests for the dominance predicates and the eclipse properties of Section II."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.dominance import (
    as_dataset,
    as_point,
    eclipse_dominance_matrix,
    eclipse_dominates,
    nn_dominates,
    score,
    scores,
    skyline_dominates,
)
from repro.core.weights import RATIO_INFINITY, RatioVector
from repro.errors import DimensionMismatchError, InvalidDatasetError


class TestCoercion:
    def test_as_point_rejects_nan(self):
        with pytest.raises(InvalidDatasetError):
            as_point([1.0, float("nan")])

    def test_as_point_rejects_empty(self):
        with pytest.raises(InvalidDatasetError):
            as_point([])

    def test_as_dataset_promotes_1d(self):
        assert as_dataset([1.0, 2.0]).shape == (1, 2)

    def test_as_dataset_rejects_3d(self):
        with pytest.raises(InvalidDatasetError):
            as_dataset(np.zeros((2, 2, 2)))

    def test_as_dataset_rejects_inf(self):
        with pytest.raises(InvalidDatasetError):
            as_dataset([[1.0, np.inf]])

    def test_as_dataset_rejects_non_numeric(self):
        with pytest.raises(InvalidDatasetError, match="numeric"):
            as_dataset([["a", "b"]])
        with pytest.raises(InvalidDatasetError, match="numeric"):
            as_dataset([[1.0, 2.0], [3.0]])

    def test_as_dataset_empty(self):
        assert as_dataset([]).shape[0] == 0


class TestScores:
    def test_score_matches_manual_sum(self):
        assert score([1.0, 6.0], [2.0, 1.0]) == pytest.approx(8.0)

    def test_scores_vectorised(self, hotels):
        np.testing.assert_allclose(
            scores(hotels, [2.0, 1.0]), [8.0, 12.0, 13.0, 21.0]
        )

    def test_score_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            score([1.0, 2.0], [1.0])

    def test_scores_dimension_mismatch(self, hotels):
        with pytest.raises(DimensionMismatchError):
            scores(hotels, [1.0, 2.0, 3.0])

    def test_scores_empty(self):
        assert scores([], [1.0, 2.0]).size == 0


class TestDominancePredicates:
    def test_skyline_dominance_requires_strictness(self):
        assert not skyline_dominates([1.0, 2.0], [1.0, 2.0])
        assert skyline_dominates([1.0, 2.0], [1.0, 3.0])
        assert not skyline_dominates([1.0, 4.0], [2.0, 3.0])

    def test_nn_dominance_is_strict(self):
        assert nn_dominates([1.0, 1.0], [2.0, 2.0], [1.0, 1.0])
        assert not nn_dominates([1.0, 1.0], [1.0, 1.0], [1.0, 1.0])

    def test_eclipse_dominance_on_paper_example(self, hotels, paper_ratio):
        assert eclipse_dominates(hotels[0], hotels[3], paper_ratio)
        assert not eclipse_dominates(hotels[3], hotels[0], paper_ratio)

    def test_duplicates_never_dominate_each_other(self, paper_ratio):
        assert not eclipse_dominates([1.0, 1.0], [1.0, 1.0], paper_ratio)

    def test_dimension_mismatch(self, paper_ratio):
        with pytest.raises(DimensionMismatchError):
            eclipse_dominates([1.0, 2.0, 3.0], [1.0, 2.0, 3.0], paper_ratio)
        with pytest.raises(DimensionMismatchError):
            skyline_dominates([1.0], [1.0, 2.0])

    def test_precomputed_corners_give_same_answer(self, hotels, paper_ratio):
        corners = paper_ratio.corner_weight_vectors()
        assert eclipse_dominates(
            hotels[0], hotels[3], paper_ratio, corners=corners
        ) == eclipse_dominates(hotels[0], hotels[3], paper_ratio)


class TestEclipseProperties:
    """Properties 1-4 of Section II-B."""

    def setup_method(self):
        rng = np.random.default_rng(3)
        self.points = rng.random((30, 3))
        self.ratios = RatioVector.uniform(0.5, 2.0, 3)

    def test_property1_asymmetry(self):
        for a in self.points[:10]:
            for b in self.points[:10]:
                if eclipse_dominates(a, b, self.ratios):
                    assert not eclipse_dominates(b, a, self.ratios)

    def test_property2_transitivity(self):
        matrix = eclipse_dominance_matrix(self.points, self.ratios)
        n = matrix.shape[0]
        for i in range(n):
            for j in range(n):
                if not matrix[i, j]:
                    continue
                for k in range(n):
                    if matrix[j, k]:
                        assert matrix[i, k]

    def test_property3_skyline_dominance_implies_eclipse_dominance(self):
        for a in self.points[:12]:
            for b in self.points[:12]:
                if skyline_dominates(a, b):
                    assert eclipse_dominates(a, b, self.ratios)

    def test_property4_eclipse_can_dominate_without_skyline_dominance(self, hotels, paper_ratio):
        # The introduction's example: p1 ⊀s p4 but p1 ≺e p4.
        assert not skyline_dominates(hotels[0], hotels[3])
        assert eclipse_dominates(hotels[0], hotels[3], paper_ratio)

    def test_skyline_instantiation_matches_skyline_dominance(self):
        wide = RatioVector.uniform(0.0, RATIO_INFINITY, 3)
        for a in self.points[:12]:
            for b in self.points[:12]:
                if skyline_dominates(a, b):
                    assert eclipse_dominates(a, b, wide)


class TestDominanceMatrix:
    def test_matrix_matches_pairwise_predicate(self, hotels, paper_ratio):
        matrix = eclipse_dominance_matrix(hotels, paper_ratio)
        for i in range(4):
            for j in range(4):
                expected = (
                    eclipse_dominates(hotels[i], hotels[j], paper_ratio)
                    if i != j
                    else False
                )
                assert matrix[i, j] == expected

    def test_diagonal_is_false(self, hotels, paper_ratio):
        matrix = eclipse_dominance_matrix(hotels, paper_ratio)
        assert not matrix.diagonal().any()
