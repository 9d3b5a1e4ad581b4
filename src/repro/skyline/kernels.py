"""Memory-bounded broadcast dominance kernels.

Every skyline and eclipse hot path in this repository reduces to one
primitive: *which of these candidate rows is Pareto-dominated by one of
those dominator rows?*  (Minimisation semantics; ``p`` dominates ``q`` when
``p <= q`` everywhere and ``p < q`` somewhere.)  The seed implementations
answered it one candidate at a time from Python; the kernels here answer it
for a whole block of candidates with a single ``(B, k, d)`` broadcast,
chunked so the boolean scratch never exceeds a configurable memory cap
(see :mod:`repro.perf.blocking`).

Kernels provided:

* :func:`dominated_mask` — the core primitive, with candidate- and
  dominator-axis chunking plus early exit once every candidate in a block
  is dominated.
* :func:`dominates_matrix` — the full ``(m, k)`` pairwise dominance matrix,
  chunked over candidate rows (used by
  :func:`repro.core.dominance.eclipse_dominance_matrix`).
* :func:`self_dominated_mask` — the self-screen: which rows of one set are
  dominated by another row of the same set.  It replaces the quadratic
  ``dominated_mask(rows, rows)`` of every intra-set pass (block-SFS,
  block-BNL, incremental inserts and delete promotions).
* :func:`block_sfs_indices` — block sort-filter-skyline: presort by a
  monotone key, then screen candidates in blocks against the confirmed
  skyline matrix, resolving intra-block dominance with the self-screen.
* :func:`monotone_sort_order` — the shared presort (key sum with a
  lexicographic tie-break) that makes the one-directional screening of
  block-SFS, the self-screen and the baseline's prefix filter valid.

The self-screen is output-sensitive.  Its precondition is the monotone
sort order: after :func:`monotone_sort_order` a row can only be dominated
by an earlier row (callers holding a subset of sorted rows say so with
``presorted=True``; the others get sorted).  It then walks the pending
rows in :data:`_DOMINATOR_CHUNK` slices: one :func:`dominated_mask` call
screens the slice and every later pending row against the slice, the
victims leave the candidates *and* every later slice, and the slice's
survivors are final.  Using dominated rows as dominators would be wasted
work, and dropping them is exact by transitivity: a dropped row's victims
are also dominated by some skyline row, which sorts before them, is never
dropped, and screens them in its own slice.  The pairs screened therefore
track the answer size instead of the square of the input: on the
mapped-space skylines of the batched transformation (540 rows, ~30
answers) they fall ~10x.  Each slice goes through :func:`dominated_mask`,
so the thread and process backends and the memory cap apply unchanged.

The comparisons build the ``(B, k)`` ``<=`` matrix one column at a time
(``&=`` per column) rather than reducing a ``(B, k, d)`` broadcast with
``.all(axis=2)``: a reduction over a 2-8 wide axis costs several times
more than ``d`` flat compares.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro._types import IndexArray
from repro.perf.blocking import (
    DEFAULT_BLOCK_SIZE,
    GrowableBuffer,
    iter_blocks,
    resolve_block_size,
)
from repro.perf.executor import (
    ShmKernel,
    map_blocks,
    note_float32,
    parallel_block_size,
    resolve_dtype,
    resolve_threads,
    split_memory_cap,
)


#: Dominator rows compared against a candidate block per kernel step, and
#: the slice width of :func:`self_dominated_mask`.  Kept deliberately small:
#: dominators are usually supplied strongest-first (sum order), so the first
#: chunk eliminates the bulk of the candidates and the compression step
#: drops them before the remaining chunks run.  Re-measured with the
#: self-screen (2-vCPU x86-64, serial): the mapped-space skyline of the
#: batched transformation takes 0.42 ms/spec at 32 vs 0.53 at 16 and
#: 0.65-0.67 at 64-128 (ANTI n=20k d=3, 441 distinct skyline rows), and
#: 1.74 vs 1.94 / 1.79 / 2.35 ms at ANTI n=20k d=4 (2644 rows).  Raw-space
#: block-SFS would prefer 64-128 (45 -> 35-38 ms at ANTI n=20k d=3), but
#: the mapped skyline is the hot path.
_DOMINATOR_CHUNK = 32

#: Upper bound on the candidate rows per kernel step.  When the dominator
#: set is small the memory cap admits very large candidate blocks; this cap
#: keeps the scratch allocation bounded without degenerating into the tiny
#: fixed blocks that made many-call overhead dominate.  It also sizes the
#: dominator step of a short candidate block (see :func:`_dominator_step`).
_CANDIDATE_BLOCK = 16384


def _dominator_step(
    block_rows: int, num_dominators: int, dimensions: int, memory_cap: Optional[int]
) -> int:
    """Dominator rows per kernel step for a block of ``block_rows`` candidates.

    :data:`_DOMINATOR_CHUNK` suits blocks of 512 rows or more, where one
    step already compares ``_CANDIDATE_BLOCK`` pairs.  A short block (50
    arrivals of an update batch against a 540-row skyline) would pay 17
    steps of per-call overhead for the same work, so it takes about
    ``_CANDIDATE_BLOCK`` pairs per step instead, as far as the memory cap
    admits.  Blocks of 512 rows or more, and dominator sets that fit one
    step anyway (the self-screen's slices), keep :data:`_DOMINATOR_CHUNK`.
    A fixed step of 32 raised the perfbench ``stream-anti`` median
    ``update_p50_ms`` from 1.17 to 1.53 ms (2-vCPU x86-64, 10 seeds, 10/10).
    """
    if (
        num_dominators <= _DOMINATOR_CHUNK
        or block_rows * _DOMINATOR_CHUNK >= _CANDIDATE_BLOCK
    ):
        return _DOMINATOR_CHUNK
    wide = resolve_block_size(
        block_rows,
        dimensions,
        memory_cap=memory_cap,
        preferred=_CANDIDATE_BLOCK // block_rows,
    )
    return max(_DOMINATOR_CHUNK, wide)


def _le_columns(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``(a <= b).all(axis=-1)`` for broadcastable ``(..., d)`` views, one
    column at a time."""
    le = a[..., 0] <= b[..., 0]
    for j in range(1, a.shape[-1]):
        le &= a[..., j] <= b[..., j]
    return le


def _dominates_rows(rows: np.ndarray, others: np.ndarray) -> np.ndarray:
    """``out[i, j]`` iff ``rows[i]`` dominates ``others[j]``."""
    a, b = rows[:, None, :], others[None, :, :]
    lt = a[..., 0] < b[..., 0]
    for j in range(1, a.shape[-1]):
        lt |= a[..., j] < b[..., j]
    return _le_columns(a, b) & lt


def _screen_block_exact(
    cand: np.ndarray,
    csums: np.ndarray,
    dominators: np.ndarray,
    dom_sums: np.ndarray,
    out: np.ndarray,
    step: int = _DOMINATOR_CHUNK,
) -> None:
    """Exact float64 screen of one candidate block; writes into ``out``.

    ``out`` is a boolean view over the block's slice of the result mask —
    blocks write disjoint slices, so the screen is safe to dispatch across
    worker threads.  The arithmetic is the serial kernel's, unchanged: the
    sum-based strictness test, the rounding rescue for computed-sum ties,
    and the early-exit compression over dominator chunks of ``step`` rows.
    """
    k = dominators.shape[0]
    alive = np.arange(cand.shape[0])
    for dstart, dstop in iter_blocks(k, step):
        dom = dominators[dstart:dstop]
        dsums = dom_sums[dstart:dstop]
        le = _le_columns(dom[None, :, :], cand[:, None, :])
        sum_lt = dsums[None, :] < csums[:, None]
        hit = (le & sum_lt).any(axis=1)
        # Rounding rescue: a dominator that is <= everywhere but whose
        # *computed* sum ties the candidate's either equals it (no
        # domination) or strictly improves a coordinate too small to
        # register in the sum.  Decide those few pairs exactly.
        ties = le & ~sum_lt & (dsums[None, :] == csums[:, None])
        if ties.any():
            rows = np.flatnonzero(~hit & ties.any(axis=1))
            if rows.size:
                ii, jj = np.nonzero(ties[rows])
                strict = (dom[jj] < cand[rows][ii]).any(axis=1)
                if strict.any():
                    hit[rows[np.unique(ii[strict])]] = True
        if hit.any():
            out[alive[hit]] = True
            keep = ~hit
            alive = alive[keep]
            if alive.size == 0:
                break
            cand = cand[keep]
            csums = csums[keep]


def _screen_block_f32(
    cand64: np.ndarray,
    cand32: np.ndarray,
    dominators: np.ndarray,
    dom32: np.ndarray,
    dom_sums: np.ndarray,
    csums64: Optional[np.ndarray],
    out: np.ndarray,
) -> tuple:
    """Float32 screen of one candidate block with an exact fallback.

    Rounding float64 to float32 is monotone, so a *strict* float32
    inequality is certain in raw space: a dominator strictly below a
    candidate in every float32 coordinate strictly dominates it exactly.
    Only float32 **ties** are ambiguous — the two float64 values may order
    either way (or be equal).  The screen therefore decides candidates on
    strict float32 comparisons alone and re-verifies the rest — candidates
    with at least one tied-but-never-worse dominator and no certain hit —
    with the exact float64 kernel, making the result byte-identical to the
    float64 path by construction.

    Returns ``(fastpath_rows, fallback_rows)`` for the executor telemetry.
    """
    k = dom32.shape[0]
    block_rows = cand32.shape[0]
    ambiguous = np.zeros(block_rows, dtype=bool)
    alive = np.arange(block_rows)
    cand = cand32
    for dstart, dstop in iter_blocks(k, _DOMINATOR_CHUNK):
        dom = dom32[dstart:dstop]
        le = (dom[None, :, :] <= cand[:, None, :]).all(axis=2)
        lt = (dom[None, :, :] < cand[:, None, :]).all(axis=2)
        hit = lt.any(axis=1)
        near_tie = (le & ~lt).any(axis=1)
        if near_tie.any():
            ambiguous[alive[near_tie]] = True
        if hit.any():
            out[alive[hit]] = True
            keep = ~hit
            alive = alive[keep]
            if alive.size == 0:
                break
            cand = cand[keep]
    fallback = np.flatnonzero(ambiguous & ~out)
    if fallback.size:
        rows = cand64[fallback]
        csums = (
            rows.sum(axis=1) if csums64 is None else csums64[fallback]
        )
        exact = np.zeros(fallback.size, dtype=bool)
        _screen_block_exact(rows, csums, dominators, dom_sums, exact)
        out[fallback[exact]] = True
    return block_rows - int(fallback.size), int(fallback.size)


def _screen_chunk_shm(arrays, start: int, stop: int, step: int) -> None:
    """Process-backend candidate block of the exact screen (same arithmetic)."""
    _screen_block_exact(
        arrays["cand"][start:stop],
        arrays["csums"][start:stop],
        arrays["dom"],
        arrays["dsums"],
        arrays["mask"][start:stop],
        step,
    )


def _screen_chunk_f32_shm(arrays, start: int, stop: int) -> tuple:
    """Process-backend candidate block of the float32 screen."""
    csums = arrays.get("csums")
    return _screen_block_f32(
        arrays["cand"][start:stop],
        arrays["cand32"][start:stop],
        arrays["dom"],
        arrays["dom32"],
        arrays["dsums"],
        None if csums is None else csums[start:stop],
        arrays["mask"][start:stop],
    )


def dominated_mask(
    candidates: np.ndarray,
    dominators: np.ndarray,
    memory_cap: Optional[int] = None,
    cand_sums: Optional[np.ndarray] = None,
    dom_sums: Optional[np.ndarray] = None,
    threads: Optional[int] = None,
    compute_dtype: Optional[str] = None,
) -> np.ndarray:
    """Boolean mask over ``candidates``: True where some dominator dominates.

    Strict Pareto dominance under minimisation semantics.  Rows of
    ``candidates`` that also appear in ``dominators`` (duplicates, or the
    candidate itself) are never flagged: equality fails the strictness
    requirement, so the kernel is safe to call with overlapping inputs.

    The strictness test rides on the attribute sum instead of a second
    ``(B, K, d)`` broadcast: ``p`` dominates ``q`` iff ``p <= q`` everywhere
    *and* ``sum(p) < sum(q)`` — a strict coordinate forces a strictly
    smaller sum, and equal-everywhere rows have equal sums.  When floating
    point rounding collapses two mathematically different sums to the same
    value the kernel falls back to an exact elementwise check for just those
    pairs, so the result matches the definition bit for bit.

    The ``(B, K, d)`` comparison broadcast is chunked on both the candidate
    axis (``B``, bounded by the memory cap) and the dominator axis
    (:data:`_DOMINATOR_CHUNK`, wider for short blocks, see
    :func:`_dominator_step`); candidates already known to be dominated are
    dropped from subsequent dominator chunks, which turns sum-ordered
    dominator sets into an early-exit filter.

    ``cand_sums`` / ``dom_sums`` accept precomputed row sums (callers that
    already sorted by the monotone key pass them to avoid recomputation).

    ``threads`` dispatches the candidate blocks across the shared kernel
    executor (default: the ambient :func:`repro.perf.executor.kernel_context`
    or ``REPRO_KERNEL_THREADS``; 1 takes the exact serial code path).  The
    memory cap divides across workers, and blocks write disjoint slices of
    the result, so answers are byte-identical at every thread count.

    ``compute_dtype="float32"`` opts one call into the single-precision
    fast path (see :func:`_screen_block_f32`): comparisons run in float32
    and only float32-tied rows are re-verified in exact float64, so the
    result is still byte-identical to the float64 kernel.
    """
    m, k = candidates.shape[0], dominators.shape[0]
    if m == 0 or k == 0:
        return np.zeros(m, dtype=bool)
    d = candidates.shape[1]
    count = resolve_threads(threads)
    use_f32 = (
        resolve_dtype(compute_dtype) == "float32"
        and candidates.dtype == np.float64
        and dominators.dtype == np.float64
    )
    if dom_sums is None:
        dom_sums = dominators.sum(axis=1)
    if cand_sums is None and not use_f32:
        cand_sums = candidates.sum(axis=1)

    mask = np.zeros(m, dtype=bool)
    effective_cap = memory_cap if count <= 1 else split_memory_cap(memory_cap, count)
    block = resolve_block_size(
        min(k, _DOMINATOR_CHUNK),
        d,
        memory_cap=effective_cap,
        preferred=_CANDIDATE_BLOCK,
    )
    if count > 1:
        block = parallel_block_size(m, block, count)

    # The broadcast scratch (m x k boolean comparisons over d coordinates)
    # dwarfs the wire payload, so the process-backend gate measures the
    # former: a compact candidate/dominator pair can still be worth a
    # dispatch when the comparison volume is large.
    work_hint = int(m) * int(k) * int(d)
    if use_f32:
        cand32 = candidates.astype(np.float32)
        dom32 = dominators.astype(np.float32)

        def worker(start: int, stop: int) -> tuple:
            return _screen_block_f32(
                candidates[start:stop],
                cand32[start:stop],
                dominators,
                dom32,
                dom_sums,
                None if cand_sums is None else cand_sums[start:stop],
                mask[start:stop],
            )

        inputs = {
            "cand": candidates,
            "cand32": cand32,
            "dom": dominators,
            "dom32": dom32,
            "dsums": dom_sums,
        }
        if cand_sums is not None:
            inputs["csums"] = cand_sums
        kernel = ShmKernel(
            _screen_chunk_f32_shm,
            inputs=inputs,
            outputs={"mask": mask},
            work_hint_bytes=work_hint,
        )
        counts = map_blocks(worker, m, block, threads=count, shm_kernel=kernel)
        note_float32(
            sum(c[0] for c in counts), sum(c[1] for c in counts)
        )
    else:
        step = _dominator_step(min(m, block), k, d, effective_cap)

        def worker(start: int, stop: int) -> None:
            _screen_block_exact(
                candidates[start:stop],
                cand_sums[start:stop],
                dominators,
                dom_sums,
                mask[start:stop],
                step,
            )

        kernel = ShmKernel(
            _screen_chunk_shm,
            inputs={
                "cand": candidates,
                "csums": cand_sums,
                "dom": dominators,
                "dsums": dom_sums,
            },
            outputs={"mask": mask},
            const={"step": step},
            work_hint_bytes=work_hint,
        )
        map_blocks(worker, m, block, threads=count, shm_kernel=kernel)
    return mask


def _dominates_chunk_shm(arrays, start: int, stop: int) -> None:
    """Process-backend row chunk of :func:`dominates_matrix` (same split)."""
    arrays["out"][start:stop] = _dominates_rows(
        arrays["rows"][start:stop], arrays["others"]
    )


def dominates_matrix(
    rows: np.ndarray,
    others: np.ndarray,
    memory_cap: Optional[int] = None,
    threads: Optional[int] = None,
) -> np.ndarray:
    """Full pairwise dominance matrix: ``out[i, j]`` iff row i dominates other j.

    Chunked over the first axis so the broadcast scratch respects the memory
    cap; the chunks are independent row ranges of ``out``, so they dispatch
    across the kernel executor when ``threads`` (or the ambient context)
    asks for more than one worker.  Note the orientation is the transpose
    of :func:`dominated_mask`: here the *first* argument supplies the
    dominators.
    """
    m, k = rows.shape[0], others.shape[0]
    out = np.zeros((m, k), dtype=bool)
    if m == 0 or k == 0:
        return out
    d = rows.shape[1]
    count = resolve_threads(threads)
    effective_cap = memory_cap if count <= 1 else split_memory_cap(memory_cap, count)
    block = resolve_block_size(k, d, memory_cap=effective_cap)
    if count > 1:
        block = parallel_block_size(m, block, count)

    def worker(start: int, stop: int) -> None:
        out[start:stop] = _dominates_rows(rows[start:stop], others)

    kernel = ShmKernel(
        _dominates_chunk_shm,
        inputs={"rows": rows, "others": others},
        outputs={"out": out},
        work_hint_bytes=int(m) * int(k) * int(d),
    )
    map_blocks(worker, m, block, threads=count, shm_kernel=kernel)
    return out


def monotone_sort_order(
    data: np.ndarray, sums: Optional[np.ndarray] = None
) -> np.ndarray:
    """Sort order by attribute sum with a lexicographic tie-break.

    The sum is monotone under Pareto dominance: a strict dominator has a
    strictly smaller *mathematical* sum, so after sorting a row can only be
    dominated by earlier rows.  The lexicographic tie-break is load-bearing,
    not cosmetic: floating-point rounding can collapse two mathematically
    different sums to the same computed value, and among such ties a
    dominator (``<=`` everywhere, ``<`` somewhere) always precedes the row
    it dominates lexicographically.  Without it, a block algorithm could
    confirm a dominated row before its equal-computed-sum dominator is ever
    compared against it.
    """
    if sums is None:
        sums = data.sum(axis=1)
    order = np.argsort(sums, kind="stable")
    ranked = sums[order]
    if not (ranked[1:] == ranked[:-1]).any():
        # No computed-sum ties: the tie-break never fires, so the stable
        # sum order already is the lexicographic one.  The full lexsort
        # costs ~10x as much on the 540 x 4 mapped skylines of the batched
        # transformation, where skipping it measured +30% batch throughput
        # (2-vCPU x86-64).
        return order
    keys = tuple(data[:, j] for j in range(data.shape[1] - 1, -1, -1)) + (sums,)
    return np.lexsort(keys)


def self_dominated_mask(
    rows: np.ndarray,
    sums: Optional[np.ndarray] = None,
    presorted: bool = False,
    memory_cap: Optional[int] = None,
    threads: Optional[int] = None,
    compute_dtype: Optional[str] = None,
) -> np.ndarray:
    """Boolean mask over ``rows``: True where another row of ``rows`` dominates.

    Equivalent to ``dominated_mask(rows, rows)``, but dominated rows stop
    acting as dominators, so the pairs screened follow the answer size (see
    the module docstring for the argument).  The rows are taken in
    :func:`monotone_sort_order`; ``presorted=True`` promises they already
    are, as any subset of sorted rows is.  ``sums`` accepts precomputed row
    sums.  ``memory_cap`` / ``threads`` / ``compute_dtype`` forward to every
    :func:`dominated_mask` call.
    """
    n = rows.shape[0]
    mask = np.zeros(n, dtype=bool)
    if n < 2:
        return mask
    if sums is None:
        sums = rows.sum(axis=1)
    if presorted:
        order = np.arange(n)
    else:
        order = monotone_sort_order(rows, sums=sums)
        rows = rows[order]
        sums = sums[order]
    pending = np.arange(n)
    while pending.size > 1:
        head = pending[:_DOMINATOR_CHUNK]
        hit = dominated_mask(
            rows[pending],
            rows[head],
            memory_cap=memory_cap,
            cand_sums=sums[pending],
            dom_sums=sums[head],
            threads=threads,
            compute_dtype=compute_dtype,
        )
        mask[order[pending[hit]]] = True
        pending = pending[head.size :][~hit[head.size :]]
    return mask


def block_sfs_indices(
    data: np.ndarray,
    block_size: int = DEFAULT_BLOCK_SIZE,
    memory_cap: Optional[int] = None,
    threads: Optional[int] = None,
    compute_dtype: Optional[str] = None,
) -> IndexArray:
    """Sorted skyline indices of ``data`` via block sort-filter-skyline.

    Sorts by the monotone key, then screens candidates in blocks of
    ``block_size``: one broadcast against the confirmed-skyline matrix
    eliminates candidates dominated by earlier blocks, and
    :func:`self_dominated_mask` over the survivors — still in sort order,
    so ``presorted=True`` — resolves intra-block dominance.

    Duplicates never strictly dominate each other, so all copies survive,
    exactly as in the seed implementations.

    ``threads`` / ``compute_dtype`` forward to every :func:`dominated_mask`
    call — the outer block loop stays sequential (each block depends on
    the confirmed window of all earlier ones), so the parallelism lives in
    the per-block screens, whose candidate chunks are independent.
    """
    n = data.shape[0]
    if n == 0:
        return np.empty(0, dtype=np.intp)
    sums = data.sum(axis=1)
    order = monotone_sort_order(data, sums=sums)
    ranked = data[order]
    ranked_sums = sums[order]

    confirmed = GrowableBuffer(
        data.shape[1], capacity=min(1024, max(64, n // 8)), track_sums=True
    )
    for start, stop in iter_blocks(n, block_size):
        block = ranked[start:stop]
        block_sums = ranked_sums[start:stop]
        screened = dominated_mask(
            block,
            confirmed.rows,
            memory_cap=memory_cap,
            cand_sums=block_sums,
            dom_sums=confirmed.sums,
            threads=threads,
            compute_dtype=compute_dtype,
        )
        keep = ~screened
        survivors = block[keep]
        survivor_idx = order[start:stop][keep]
        survivor_sums = block_sums[keep]
        if survivors.shape[0] > 1:
            keep = ~self_dominated_mask(
                survivors,
                sums=survivor_sums,
                presorted=True,
                memory_cap=memory_cap,
                threads=threads,
                compute_dtype=compute_dtype,
            )
            survivors = survivors[keep]
            survivor_idx = survivor_idx[keep]
            survivor_sums = survivor_sums[keep]
        confirmed.append_batch(survivors, survivor_idx, sums=survivor_sums)
    return np.sort(confirmed.indices)
