"""Sort-filter-skyline (SFS) algorithm, block-vectorised.

SFS (Chomicki et al.) improves on BNL by first sorting the points by a
monotone scoring function — here the plain attribute sum.  After sorting, a
point can only be dominated by points that appear *earlier* in the order, so
the candidate window never needs to evict members and every point is compared
against confirmed skyline points only.

This implementation processes the sorted points in blocks
(:func:`repro.skyline.kernels.block_sfs_indices`): each block is screened
against the confirmed-skyline matrix in one memory-bounded broadcast, and
intra-block dominance is resolved by the output-sensitive self-screen
(:func:`repro.skyline.kernels.self_dominated_mask`) over the block's
survivors, which are already in sort order: a dominated survivor stops
acting as a dominator, so the pairs screened follow the number of skyline
rows rather than the square of the block.  The output is identical to the
classic one-point-at-a-time SFS.
"""

from __future__ import annotations

import numpy as np

from repro._types import ArrayLike2D, IndexArray
from repro.core.dominance import as_dataset
from repro.perf.blocking import DEFAULT_BLOCK_SIZE
from repro.skyline.kernels import block_sfs_indices


def skyline_sfs_indices(
    points: ArrayLike2D, block_size: int = DEFAULT_BLOCK_SIZE
) -> IndexArray:
    """Return the indices of the skyline points using sort-filter-skyline.

    Ties on the sort key are broken lexicographically by the attribute
    values, which keeps exact duplicates adjacent and — crucially — orders a
    dominator before the rows it dominates even when floating-point
    rounding collapses their different sums to the same computed key (see
    :func:`repro.skyline.kernels.monotone_sort_order`).  Duplicates are all
    retained (they never dominate each other), identical to the other
    implementations.

    The returned indices are sorted in ascending order so that all skyline
    implementations produce byte-identical outputs.
    """
    data = as_dataset(points)
    if data.shape[0] == 0:
        return np.empty(0, dtype=np.intp)
    return block_sfs_indices(data, block_size=block_size)


def skyline_sfs(points: ArrayLike2D) -> np.ndarray:
    """Return the skyline points (rows) of ``points`` via sort-filter-skyline."""
    data = as_dataset(points)
    return data[skyline_sfs_indices(data)]
