"""TRAN: transformation-based eclipse algorithms (Algorithms 2 and 3).

The key insight of Section III is that eclipse dominance can be decided from
finitely many weight vectors (Theorems 1 and 2), so the eclipse query can be
rewritten as a skyline query over transformed points.  Two transformations
are implemented:

* :func:`map_to_corner_scores` — map every point to its scores under all
  ``2^{d-1}`` corner weight vectors.  By Theorem 2, ``p`` eclipse-dominates
  ``p'`` exactly when the corner-score vector of ``p`` Pareto-dominates that
  of ``p'``, so the skyline of the mapped points is *exactly* the eclipse
  set in every dimensionality.  This is the default mapping of
  :func:`eclipse_transform`.

* :func:`map_to_intercept_space` — the paper's intercept mapping: the
  smallest per-axis intercepts of the domination hyperplanes (Algorithm 2
  for ``d = 2``, Algorithm 3 for ``d > 2``).  For two-dimensional data the
  two corner scores and the two intercepts are positive rescalings of each
  other, so this mapping is exact and coincides with the corner-score
  transformation.

**Reproduction note (deviation from the paper).**  For ``d >= 3`` the
intercept mapping uses only ``d`` of the ``2^{d-1}`` corner vectors (the
all-lows vector and the ``d - 1`` single-high vectors).  Dominance on those
``d`` corners does *not* imply dominance on the remaining corners — a point
can be better on every single-high corner yet worse on a corner with two or
more ratios at their upper bounds — so Algorithm 3 as published can prune
points that are eclipse points under Definition 3 (it never adds false
points, because the ``d`` selected corners are a subset of all corners).
``repro`` therefore uses the corner-score mapping by default and keeps the
paper's mapping available via ``mapping="intercept"`` for faithfulness
experiments; ``tests/core/test_transform.py`` and ``EXPERIMENTS.md``
document a concrete counterexample.
"""

from __future__ import annotations

import numpy as np

from repro._types import ArrayLike2D, IndexArray
from repro.core.dominance import as_dataset
from repro.core.weights import RatioVector, make_ratio_vector
from repro.errors import (
    AlgorithmNotSupportedError,
    DimensionMismatchError,
    InvalidWeightRangeError,
)
from repro.skyline.api import skyline_indices

#: Supported mappings of :func:`eclipse_transform`.
MAPPINGS = ("corner", "intercept")


def map_to_corner_scores(points: ArrayLike2D, ratios: RatioVector) -> np.ndarray:
    """Map points to their ``2^{d-1}`` corner weight-vector scores.

    Returns an array of shape ``(n, 2^{d-1})`` whose (minimisation) skyline
    indices are exactly the eclipse indices of the original points
    (Theorem 2: eclipse dominance holds iff the score is no larger at every
    corner weight vector and strictly smaller at one).
    """
    data = as_dataset(points)
    if data.shape[0] == 0:
        return np.empty((0, 2 ** (ratios.dimensions - 1)), dtype=float)
    if ratios.dimensions != data.shape[1]:
        raise DimensionMismatchError(
            f"ratio vector is for d={ratios.dimensions}, dataset has d={data.shape[1]}"
        )
    corners = ratios.corner_weight_vectors()
    return data @ corners.T


def map_to_intercept_space(points: ArrayLike2D, ratios: RatioVector) -> np.ndarray:
    """Map points to their domination-hyperplane intercept vectors.

    Implements Lines 1–3 of Algorithm 2 (``d = 2``) and Lines 1–4 of
    Algorithm 3 (``d > 2``)::

        c[d] = sum_k l_k p[k] + p[d]
        c[j] = (p[d] + h_j p[j] + sum_{k != j} l_k p[k]) / h_j      j < d

    Requires every upper ratio bound ``h_j`` to be strictly positive — with
    ``h_j = 0`` the corresponding domination hyperplane is parallel to axis
    ``j`` and has no finite intercept.

    For ``d = 2`` the skyline of the mapped points is exactly the eclipse
    set (Theorem 4); for ``d >= 3`` it may be a strict subset (see the
    module docstring).
    """
    data = as_dataset(points)
    if data.shape[0] == 0:
        return np.empty((0, ratios.dimensions), dtype=float)
    if ratios.dimensions != data.shape[1]:
        raise DimensionMismatchError(
            f"ratio vector is for d={ratios.dimensions}, dataset has d={data.shape[1]}"
        )
    lows = ratios.lows
    highs = ratios.highs
    if np.any(highs <= 0):
        raise InvalidWeightRangeError(
            "the intercept mapping requires every upper ratio bound to be "
            "strictly positive (h_j > 0)"
        )

    d = data.shape[1]
    mapped = np.empty_like(data)
    # c[d]: the intercept on the last axis given by the all-lows vector.
    mapped[:, d - 1] = data[:, : d - 1] @ lows + data[:, d - 1]
    # c[j]: intercept on axis j given by the vector with h_j at position j
    # and lower bounds elsewhere, normalised by h_j.
    low_part = data[:, : d - 1] @ lows  # sum_k l_k p[k]
    for j in range(d - 1):
        numerator = (
            data[:, d - 1]
            + highs[j] * data[:, j]
            + (low_part - lows[j] * data[:, j])
        )
        mapped[:, j] = numerator / highs[j]
    return mapped


def eclipse_transform_indices(
    points: ArrayLike2D,
    ratios,
    skyline_method: str = "auto",
    mapping: str = "corner",
    collapse_duplicates: bool = False,
) -> IndexArray:
    """Return eclipse indices using the transformation algorithm.

    Parameters
    ----------
    points:
        Dataset of shape ``(n, d)`` with minimisation semantics.
    ratios:
        Anything accepted by :func:`repro.core.weights.make_ratio_vector`.
    skyline_method:
        Which skyline substrate to run on the mapped points; ``"auto"``
        (default) applies :func:`repro.core.plan.choose_skyline_method` to
        the mapped shape ``(n, 2^{d-1})``: the two-dimensional sweep when
        the mapped space is two-dimensional (``d = 2``), block-SFS below
        512 points or beyond four mapped columns (``d >= 4``), and
        divide-and-conquer otherwise.  (The batched
        :meth:`~repro.core.session.DatasetSession.run_batch` maps only the
        distinct skyline rows and runs the substrate its plan picked for
        that row count.)
    mapping:
        ``"corner"`` (default, exact in every dimensionality) or
        ``"intercept"`` (the paper's Algorithm 3 mapping; exact for
        ``d = 2``, a lower bound on the result set for ``d >= 3`` — see the
        module docstring).
    collapse_duplicates:
        Opt-in fast path for duplicate-heavy data: the skyline of the mapped
        points is computed over unique mapped rows only and re-expanded
        afterwards.  Points with identical mapped rows never dominate each
        other and share the same dominators, so the result is unchanged.
    """
    data = as_dataset(points)
    if data.shape[0] == 0:
        return np.empty(0, dtype=np.intp)
    ratio_vector = (
        ratios
        if isinstance(ratios, RatioVector)
        else make_ratio_vector(ratios, data.shape[1])
    )
    if mapping == "corner":
        mapped = map_to_corner_scores(data, ratio_vector)
    elif mapping == "intercept":
        mapped = map_to_intercept_space(data, ratio_vector)
    else:
        raise AlgorithmNotSupportedError(
            f"unknown mapping {mapping!r}; choose from {MAPPINGS}"
        )
    return skyline_indices(
        mapped, method=skyline_method, collapse_duplicates=collapse_duplicates
    )


def eclipse_transform(
    points: ArrayLike2D,
    ratios,
    skyline_method: str = "auto",
    mapping: str = "corner",
    collapse_duplicates: bool = False,
) -> np.ndarray:
    """Return the eclipse points (rows) using the transformation algorithm."""
    data = as_dataset(points)
    return data[
        eclipse_transform_indices(
            data,
            ratios,
            skyline_method=skyline_method,
            mapping=mapping,
            collapse_duplicates=collapse_duplicates,
        )
    ]
