"""Block-nested-loop (BNL) skyline algorithm, vectorised.

The original skyline algorithm of Börzsönyi, Kossmann and Stocker (ICDE
2001, reference [4] of the paper): maintain a window of candidate skyline
points and compare incoming points against the window.  Worst-case
``O(n^2)`` comparisons, but simple and often competitive on correlated data
where the window stays tiny.

True to its name, this implementation is *block*-oriented: the window is a
contiguous ``(m, d)`` array (:class:`repro.perf.blocking.GrowableBuffer`)
and incoming points are processed in blocks — one broadcast kernel call
screens the whole block against the window, the self-screen kernel
resolves dominance inside the block, and a third call evicts window
members dominated by the block's survivors.  The surviving window is the
skyline, so the output is identical to the classic per-point formulation.
"""

from __future__ import annotations

import numpy as np

from repro._types import ArrayLike2D, IndexArray
from repro.core.dominance import as_dataset
from repro.perf.blocking import DEFAULT_BLOCK_SIZE, GrowableBuffer, iter_blocks
from repro.skyline.kernels import dominated_mask, self_dominated_mask


def skyline_bnl_indices(
    points: ArrayLike2D, block_size: int = DEFAULT_BLOCK_SIZE
) -> IndexArray:
    """Return the indices of the skyline points of ``points``.

    Minimisation semantics.  Duplicate points are all retained (none of them
    strictly dominates the others), matching the other skyline algorithms in
    this package.

    The returned indices are sorted in ascending order so that all skyline
    implementations produce byte-identical outputs.
    """
    data = as_dataset(points)
    n = data.shape[0]
    if n == 0:
        return np.empty(0, dtype=np.intp)

    sums = data.sum(axis=1)
    window = GrowableBuffer(
        data.shape[1], capacity=min(1024, max(64, n // 8)), track_sums=True
    )
    for start, stop in iter_blocks(n, block_size):
        block = data[start:stop]
        block_sums = sums[start:stop]
        # 1. Screen the block against the current window.
        screened = dominated_mask(
            block, window.rows, cand_sums=block_sums, dom_sums=window.sums
        )
        keep = ~screened
        survivors = block[keep]
        survivor_idx = np.arange(start, stop, dtype=np.intp)[keep]
        survivor_sums = block_sums[keep]
        if survivors.shape[0] > 1:
            # 2. Resolve dominance inside the block.
            keep = ~self_dominated_mask(survivors, sums=survivor_sums)
            survivors = survivors[keep]
            survivor_idx = survivor_idx[keep]
            survivor_sums = survivor_sums[keep]
        if survivors.shape[0] == 0:
            continue
        # 3. Evict window members dominated by the new survivors.
        if len(window):
            evicted = dominated_mask(
                window.rows, survivors, cand_sums=window.sums, dom_sums=survivor_sums
            )
            if evicted.any():
                window.keep(~evicted)
        window.append_batch(survivors, survivor_idx, sums=survivor_sums)
    return np.sort(window.indices)


def skyline_bnl(points: ArrayLike2D) -> np.ndarray:
    """Return the skyline points (rows) of ``points`` via block-nested-loop."""
    data = as_dataset(points)
    return data[skyline_bnl_indices(data)]
