"""Dominance relations: 1NN-, skyline-, and eclipse-dominance (Table I).

All relations assume the "smaller is better" orientation: the query point is
the origin and every attribute measures a distance-like quantity (price,
distance, ...).  Scores are weighted L1 sums ``S(p) = Σ_j w[j] p[j]``
(footnote 2 of the paper notes that L_p extensions are mechanical).

The eclipse-dominance test uses Theorems 1 and 2: it suffices to compare
scores at the ``2^{d-1}`` corner weight vectors of the ratio ranges rather
than over the whole continuum.  As discussed in ``DESIGN.md`` we require at
least one strictly smaller corner score so that dominance is irreflexive and
duplicate points do not dominate each other; this matches the behaviour of
the transformation algorithm (which runs an ordinary strict skyline on the
mapped points).
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro._types import ArrayLike2D, PointLike
from repro.core.weights import RatioVector
from repro.errors import DimensionMismatchError, InvalidDatasetError


def as_point(point: PointLike) -> np.ndarray:
    """Coerce a point-like object to a 1-D float array and validate it."""
    arr = np.asarray(point, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise InvalidDatasetError("a point must be a non-empty 1-D sequence")
    if not np.all(np.isfinite(arr)):
        raise InvalidDatasetError("points must contain only finite values")
    return arr


def as_dataset(points: ArrayLike2D) -> np.ndarray:
    """Coerce a collection of points to an ``(n, d)`` float array.

    An empty collection is allowed (returns an array of shape ``(0, 0)``);
    individual operations decide whether empty input is meaningful.
    """
    try:
        arr = np.asarray(points, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InvalidDatasetError(
            f"dataset must be numeric (n points x d attributes): {exc}"
        ) from exc
    if arr.size == 0:
        return arr.reshape(0, arr.shape[1] if arr.ndim == 2 else 0)
    if arr.ndim == 1:
        arr = arr.reshape(1, -1)
    if arr.ndim != 2:
        raise InvalidDatasetError(
            f"dataset must be 2-D (n points x d attributes), got shape {arr.shape}"
        )
    if not np.all(np.isfinite(arr)):
        raise InvalidDatasetError("dataset must contain only finite values")
    return arr


def corner_weight_vectors(ratios: RatioVector) -> np.ndarray:
    """Return the ``(2^{d-1}, d)`` corner weight matrix of a ratio vector.

    Thin functional wrapper over
    :meth:`repro.core.weights.RatioVector.corner_weight_vectors` for callers
    that prefer free functions.
    """
    return ratios.corner_weight_vectors()


def score(point: PointLike, weights: Sequence[float]) -> float:
    """Weighted L1 score ``S(p) = Σ_j w[j] p[j]`` of a single point."""
    p = as_point(point)
    w = np.asarray(weights, dtype=float)
    if p.shape != w.shape:
        raise DimensionMismatchError(
            f"point has d={p.size} but weight vector has d={w.size}"
        )
    return float(p @ w)


def scores(points: ArrayLike2D, weights: Sequence[float]) -> np.ndarray:
    """Weighted L1 scores of every point in a dataset.

    Returns an array of shape ``(n,)``.
    """
    data = as_dataset(points)
    w = np.asarray(weights, dtype=float)
    if data.shape[0] == 0:
        return np.empty(0, dtype=float)
    if data.shape[1] != w.size:
        raise DimensionMismatchError(
            f"dataset has d={data.shape[1]} but weight vector has d={w.size}"
        )
    return data @ w


def _corner_scores(point: np.ndarray, corners: np.ndarray) -> np.ndarray:
    """Scores of ``point`` under every corner weight vector."""
    return corners @ point


def eclipse_dominates(
    p: PointLike,
    q: PointLike,
    ratios: RatioVector,
    corners: Optional[np.ndarray] = None,
) -> bool:
    """Return ``True`` when ``p`` eclipse-dominates ``q`` under ``ratios``.

    ``p ≺_e q`` holds when ``S(p) <= S(q)`` for every weight vector whose
    ratios lie in the query ranges, with strict inequality for at least one
    corner (see the module docstring).  By Theorem 2 it suffices to check the
    ``2^{d-1}`` corner weight vectors.

    Parameters
    ----------
    p, q:
        The candidate dominator and dominated point.
    ratios:
        The eclipse query parameter.
    corners:
        Optional pre-computed corner matrix (``ratios.corner_weight_vectors()``)
        to avoid recomputation in tight loops.
    """
    pa, qa = as_point(p), as_point(q)
    if pa.size != qa.size:
        raise DimensionMismatchError("points must share the same dimensionality")
    if ratios.dimensions != pa.size:
        raise DimensionMismatchError(
            f"ratio vector is for d={ratios.dimensions}, points have d={pa.size}"
        )
    if corners is None:
        corners = ratios.corner_weight_vectors()
    sp = _corner_scores(pa, corners)
    sq = _corner_scores(qa, corners)
    return bool(np.all(sp <= sq) and np.any(sp < sq))


def skyline_dominates(p: PointLike, q: PointLike) -> bool:
    """Return ``True`` when ``p`` skyline-dominates ``q``.

    ``p ≺_s q`` holds when ``p`` is no worse than ``q`` on every attribute and
    strictly better on at least one (minimisation semantics), which is
    equivalent to ``S(p) <= S(q)`` for every non-negative weight vector
    (Definition 2).
    """
    pa, qa = as_point(p), as_point(q)
    if pa.size != qa.size:
        raise DimensionMismatchError("points must share the same dimensionality")
    return bool(np.all(pa <= qa) and np.any(pa < qa))


def nn_dominates(p: PointLike, q: PointLike, weights: Sequence[float]) -> bool:
    """Return ``True`` when ``p`` 1NN-dominates ``q`` for a weight vector.

    ``p ≺_1 q`` holds when ``S(p) < S(q)`` for the given weight vector
    (Definition 1).
    """
    return score(p, weights) < score(q, weights)


def eclipse_dominance_matrix(
    points: ArrayLike2D, ratios: RatioVector
) -> np.ndarray:
    """Return the full ``(n, n)`` boolean eclipse-dominance matrix.

    ``matrix[i, j]`` is ``True`` when point ``i`` eclipse-dominates point
    ``j``.  The matrix is materialised through the chunked broadcast kernel
    so the comparison scratch stays memory-bounded, but the output itself is
    ``O(n^2)`` — the query algorithms never materialise it.
    """
    # Imported locally: repro.skyline.dominance imports this module, so a
    # top-level import of the kernels would create an import cycle.
    from repro.skyline.kernels import dominates_matrix

    data = as_dataset(points)
    n = data.shape[0]
    if n and ratios.dimensions != data.shape[1]:
        raise DimensionMismatchError(
            f"ratio vector is for d={ratios.dimensions}, dataset has d={data.shape[1]}"
        )
    corners = ratios.corner_weight_vectors()
    corner_scores = data @ corners.T  # (n, 2^{d-1})
    matrix = dominates_matrix(corner_scores, corner_scores)
    np.fill_diagonal(matrix, False)
    return matrix
