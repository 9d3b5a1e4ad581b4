"""Parity and unit tests for the broadcast dominance-kernel layer.

The vectorised hot paths (block-SFS, block-BNL, the divide-and-conquer
merge, the presorted baseline) must return indices byte-identical to the
straightforward point-at-a-time formulations on every distribution,
including datasets with exact duplicates and single-attribute ties.  The
reference implementations below mirror the seed code paths.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro.core.baseline import eclipse_baseline_indices
from repro.core.dominance import eclipse_dominance_matrix
from repro.core.transform import eclipse_transform_indices
from repro.core.weights import RatioVector
from repro.data.generators import generate_dataset
from repro.perf.blocking import (
    GrowableBuffer,
    iter_blocks,
    memory_cap_bytes,
    resolve_block_size,
)
from repro.skyline.api import skyline_indices
from repro.skyline.kernels import (
    block_sfs_indices,
    dominated_mask,
    dominates_matrix,
    monotone_sort_order,
    self_dominated_mask,
)
from repro.skyline import kernels

DISTRIBUTIONS = ("corr", "inde", "anti")
RATIO = (0.36, 2.75)


# ----------------------------------------------------------------------
# Reference (seed-style) implementations
# ----------------------------------------------------------------------
def naive_dominated_mask(candidates: np.ndarray, dominators: np.ndarray) -> np.ndarray:
    mask = np.zeros(candidates.shape[0], dtype=bool)
    for i in range(candidates.shape[0]):
        c = candidates[i]
        le = np.all(dominators <= c, axis=1)
        lt = np.any(dominators < c, axis=1)
        mask[i] = bool(np.any(le & lt))
    return mask


def naive_skyline_indices(data: np.ndarray) -> np.ndarray:
    """Quadratic reference skyline (minimisation, strict dominance)."""
    keep = ~naive_dominated_mask(data, data)
    return np.flatnonzero(keep).astype(np.intp)


def naive_eclipse_indices(data: np.ndarray, ratios: RatioVector) -> np.ndarray:
    """Seed BASE: per-point corner-score dominance loop."""
    corner_scores = data @ ratios.corner_weight_vectors().T
    eclipse = []
    for i in range(data.shape[0]):
        le = np.all(corner_scores <= corner_scores[i], axis=1)
        lt = np.any(corner_scores < corner_scores[i], axis=1)
        dominated_by = le & lt
        dominated_by[i] = False
        if not dominated_by.any():
            eclipse.append(i)
    return np.array(eclipse, dtype=np.intp)


def dataset_with_ties(distribution: str, n: int, d: int, seed: int) -> np.ndarray:
    """Generated data with injected exact duplicates and per-column ties."""
    rng = np.random.default_rng(seed)
    data = generate_dataset(distribution, n, d, seed=seed)
    if n >= 8:
        # Exact duplicates: copy a handful of rows over other rows.
        src = rng.integers(0, n, size=n // 8)
        dst = rng.integers(0, n, size=n // 8)
        data[dst] = data[src]
        # Single-attribute ties: quantise one column coarsely.
        col = int(rng.integers(0, d))
        data[:, col] = np.round(data[:, col], 1)
    return data


# ----------------------------------------------------------------------
# Skyline substrate parity
# ----------------------------------------------------------------------
class TestSkylineSubstrateParity:
    @pytest.mark.parametrize("distribution", DISTRIBUTIONS)
    @pytest.mark.parametrize("d", [2, 3, 4, 6])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_all_substrates_match_naive(self, distribution, d, seed):
        data = dataset_with_ties(distribution, 200, d, seed=seed)
        expected = naive_skyline_indices(data).tolist()
        methods = ["bnl", "sfs", "divide_conquer", "auto"]
        if d == 2:
            methods.append("sweep2d")
        for method in methods:
            got = skyline_indices(data, method=method)
            assert got.tolist() == expected, f"{method} diverged"
            collapsed = skyline_indices(data, method=method, collapse_duplicates=True)
            assert collapsed.tolist() == expected, f"{method}+collapse diverged"

    @pytest.mark.parametrize("seed", [3, 4])
    def test_large_randomised_cross_substrate(self, seed):
        data = dataset_with_ties("anti", 3000, 4, seed=seed)
        reference = skyline_indices(data, method="bnl").tolist()
        for method in ("sfs", "divide_conquer", "auto"):
            assert skyline_indices(data, method=method).tolist() == reference

    def test_all_duplicates_retained(self):
        data = np.tile([[1.0, 2.0, 3.0]], (7, 1))
        for method in ("bnl", "sfs", "divide_conquer", "auto"):
            assert skyline_indices(data, method=method).tolist() == list(range(7))
            assert (
                skyline_indices(
                    data, method=method, collapse_duplicates=True
                ).tolist()
                == list(range(7))
            )


# ----------------------------------------------------------------------
# Eclipse method parity
# ----------------------------------------------------------------------
class TestEclipseMethodParity:
    @pytest.mark.parametrize("distribution", DISTRIBUTIONS)
    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("seed", [5, 6])
    def test_base_and_tran_match_naive(self, distribution, d, seed):
        data = dataset_with_ties(distribution, 180, d, seed=seed)
        ratios = RatioVector.uniform(*RATIO, d)
        expected = naive_eclipse_indices(data, ratios).tolist()
        assert eclipse_baseline_indices(data, ratios).tolist() == expected
        assert eclipse_transform_indices(data, ratios).tolist() == expected
        assert (
            eclipse_transform_indices(data, ratios, collapse_duplicates=True).tolist()
            == expected
        )
        for skyline_method in ("bnl", "sfs", "divide_conquer"):
            got = eclipse_transform_indices(data, ratios, skyline_method=skyline_method)
            assert got.tolist() == expected, f"tran/{skyline_method} diverged"

    def test_base_tran_parity_large(self):
        data = dataset_with_ties("anti", 4000, 4, seed=9)
        ratios = RatioVector.uniform(*RATIO, 4)
        base = eclipse_baseline_indices(data, ratios)
        tran = eclipse_transform_indices(data, ratios)
        assert np.array_equal(base, tran)

    def test_dominance_matrix_matches_naive(self):
        data = dataset_with_ties("inde", 60, 3, seed=11)
        ratios = RatioVector.uniform(*RATIO, 3)
        matrix = eclipse_dominance_matrix(data, ratios)
        corner_scores = data @ ratios.corner_weight_vectors().T
        for i in range(60):
            le = np.all(corner_scores[i] <= corner_scores, axis=1)
            lt = np.any(corner_scores[i] < corner_scores, axis=1)
            expected = le & lt
            expected[i] = False
            assert np.array_equal(matrix[i], expected)


# ----------------------------------------------------------------------
# Kernel unit tests
# ----------------------------------------------------------------------
class TestDominatedMask:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_naive_on_random_inputs(self, seed):
        rng = np.random.default_rng(seed)
        cand = rng.random((rng.integers(1, 300), rng.integers(1, 6)))
        dom = rng.random((rng.integers(1, 300), cand.shape[1]))
        assert np.array_equal(
            dominated_mask(cand, dom), naive_dominated_mask(cand, dom)
        )

    def test_empty_inputs(self):
        empty = np.empty((0, 3))
        rows = np.ones((4, 3))
        assert dominated_mask(empty, rows).shape == (0,)
        assert not dominated_mask(rows, empty).any()

    def test_self_and_duplicates_never_dominate(self):
        rows = np.array([[1.0, 2.0], [1.0, 2.0], [3.0, 4.0]])
        assert not dominated_mask(rows[:2], rows[:2]).any()
        assert dominated_mask(rows, rows).tolist() == [False, False, True]

    def test_sum_rounding_tie_is_decided_exactly(self):
        # The strictness test rides on the row sum; these rows differ only by
        # a coordinate too small to register in the computed sums, forcing
        # the exact elementwise fallback.
        q = np.array([[2e-30, 1.0]])
        p = np.array([[1e-30, 1.0]])
        assert p.sum() == q.sum()  # rounding collapses the sums
        assert dominated_mask(q, p).tolist() == [True]
        assert not dominated_mask(p, q).any()

    def test_memory_cap_does_not_change_results(self):
        rng = np.random.default_rng(42)
        cand = rng.random((500, 5))
        dom = rng.random((400, 5))
        expected = naive_dominated_mask(cand, dom)
        # A tiny cap forces single-digit blocks; results must be identical.
        assert np.array_equal(dominated_mask(cand, dom, memory_cap=256), expected)

    def test_precomputed_sums_accepted(self):
        rng = np.random.default_rng(7)
        cand = rng.random((50, 4))
        dom = rng.random((60, 4))
        got = dominated_mask(
            cand, dom, cand_sums=cand.sum(axis=1), dom_sums=dom.sum(axis=1)
        )
        assert np.array_equal(got, naive_dominated_mask(cand, dom))


class TestDominatesMatrix:
    def test_matches_pairwise_definition(self):
        rng = np.random.default_rng(3)
        rows = rng.random((40, 3))
        others = rng.random((30, 3))
        matrix = dominates_matrix(rows, others)
        for i in range(40):
            le = np.all(rows[i] <= others, axis=1)
            lt = np.any(rows[i] < others, axis=1)
            assert np.array_equal(matrix[i], le & lt)

    def test_empty(self):
        assert dominates_matrix(np.empty((0, 2)), np.ones((3, 2))).shape == (0, 3)
        assert dominates_matrix(np.ones((3, 2)), np.empty((0, 2))).shape == (3, 0)


def self_screen_oracle(rows: np.ndarray) -> np.ndarray:
    """Brute force: rows dominated by any row of the same set."""
    return dominates_matrix(rows, rows).any(axis=0)


def self_screen_cases(n: int, d: int, seed: int) -> dict:
    """Uniform, skyline-heavy, tie-heavy and duplicate-only row sets."""
    rng = np.random.default_rng(seed)
    simplex = rng.random((n, d)) + 1e-3
    simplex /= simplex.sum(axis=1, keepdims=True)
    pool = rng.random((5, d))
    return {
        "uniform": rng.random((n, d)),
        # Near the simplex almost nothing dominates anything, so the
        # screen needs every dominator slice and the sums tie often.
        "skyline_heavy": simplex + 0.01 * rng.random((n, d)),
        "grid": rng.integers(0, 3, size=(n, d)).astype(float),
        "duplicates": pool[rng.integers(0, 5, size=n)],
    }


def rescue_rows(d: int) -> np.ndarray:
    """Pairs whose computed sums tie although one row dominates the other.

    31 mutually incomparable fillers with smaller sums come first, so the
    first pair straddles the 32-row dominator slice boundary.  Every
    victim precedes its dominator in input order.
    """
    fillers = [[0.1 + i * 1e-3, 0.5 - i * 1e-3] for i in range(31)]
    pairs = [[2e-30, 1.0], [1e-30, 1.0], [1e16, 1.0], [1e16, 0.0]]
    rows = np.array(fillers + pairs)
    return np.hstack([rows, np.full((rows.shape[0], d - 2), 0.25)])


class TestSelfDominatedMask:
    @pytest.mark.parametrize("n", [1, 31, 32, 33, 64, 65])
    @pytest.mark.parametrize("d", range(1, 9))
    def test_matches_oracle_unsorted_and_presorted(self, n, d):
        for kind, rows in self_screen_cases(n, d, seed=10 * n + d).items():
            expected = self_screen_oracle(rows)
            assert np.array_equal(self_dominated_mask(rows), expected), kind
            order = monotone_sort_order(rows)
            ranked = rows[order]
            got = self_dominated_mask(
                ranked, sums=ranked.sum(axis=1), presorted=True
            )
            assert np.array_equal(got, expected[order]), kind

    @pytest.mark.parametrize("d", [2, 3, 8])
    def test_rounding_rescue_ties(self, d):
        rows = rescue_rows(d)
        sums = rows.sum(axis=1)
        assert sums[31] == sums[32] and sums[33] == sums[34]
        expected = self_screen_oracle(rows)
        assert np.flatnonzero(expected).tolist() == [31, 33]
        assert np.array_equal(self_dominated_mask(rows), expected)
        order = monotone_sort_order(rows)
        assert np.array_equal(
            self_dominated_mask(rows[order], presorted=True), expected[order]
        )

    def test_memory_cap_and_threads_do_not_change_results(self):
        rows = self_screen_cases(300, 4, seed=2)["skyline_heavy"]
        expected = self_screen_oracle(rows)
        assert np.array_equal(self_dominated_mask(rows, memory_cap=256), expected)
        assert np.array_equal(self_dominated_mask(rows, threads=2), expected)

    def test_screens_fewer_pairs_than_the_quadratic_pass(self, monkeypatch):
        # Dominated rows stop acting as dominators, so on data with a small
        # skyline the screened pairs fall far below the n^2 of
        # dominated_mask(rows, rows).
        screened = []
        original = kernels.dominated_mask

        def counting(cand, dom, **kwargs):
            screened.append(len(cand) * len(dom))
            return original(cand, dom, **kwargs)

        monkeypatch.setattr(kernels, "dominated_mask", counting)
        rows = np.random.default_rng(4).random((512, 3))
        got = self_dominated_mask(rows)
        assert np.array_equal(got, self_screen_oracle(rows))
        assert sum(screened) < 512 * 512 // 8


class TestMonotoneSortOrder:
    @staticmethod
    def lexsort_reference(rows: np.ndarray) -> np.ndarray:
        keys = tuple(rows[:, j] for j in range(rows.shape[1] - 1, -1, -1))
        return np.lexsort(keys + (rows.sum(axis=1),))

    @pytest.mark.parametrize("d", [1, 3, 6])
    def test_tie_free_matches_lexsort(self, d):
        rows = np.random.default_rng(d).random((400, d))
        assert np.unique(rows.sum(axis=1)).size == 400
        assert np.array_equal(monotone_sort_order(rows), self.lexsort_reference(rows))

    @pytest.mark.parametrize("d", [1, 3, 6])
    def test_tie_heavy_matches_lexsort(self, d):
        rows = np.random.default_rng(d).integers(0, 4, size=(400, d)).astype(float)
        assert np.unique(rows.sum(axis=1)).size < 400
        sums = rows.sum(axis=1)
        expected = self.lexsort_reference(rows)
        assert np.array_equal(monotone_sort_order(rows), expected)
        assert np.array_equal(monotone_sort_order(rows, sums=sums), expected)

    def test_computed_sum_tie_puts_dominator_first(self):
        rows = rescue_rows(2)[::-1]
        assert np.array_equal(monotone_sort_order(rows), self.lexsort_reference(rows))


class TestBlockSfs:
    @pytest.mark.parametrize("block_size", [1, 3, 64, 512])
    def test_block_size_invariant(self, block_size):
        data = dataset_with_ties("anti", 150, 3, seed=20)
        expected = naive_skyline_indices(data).tolist()
        assert block_sfs_indices(data, block_size=block_size).tolist() == expected

    def test_monotone_sort_order_is_monotone(self):
        rng = np.random.default_rng(8)
        data = rng.random((100, 4))
        order = monotone_sort_order(data)
        sums = data.sum(axis=1)[order]
        assert np.all(np.diff(sums) >= 0)

    def test_cross_block_float_sum_tie(self):
        # Regression: [1e16, 0.0] strictly dominates [1e16, 1.0] but both
        # have the same *computed* sum (fl(1e16 + 1.0) == 1e16).  The filler
        # rows push the dominated row to the end of the first 512-block and
        # its dominator into the next block; only the lexicographic
        # tie-break in the sort keeps the dominator ahead so the pair is
        # ever compared.
        data = np.array(
            [[float(i), 1e15] for i in range(511)] + [[1e16, 1.0], [1e16, 0.0]]
        )
        expected = naive_skyline_indices(data).tolist()
        assert 511 not in expected
        for method in ("sfs", "bnl", "divide_conquer", "auto"):
            assert skyline_indices(data, method=method).tolist() == expected

    def test_cross_block_float_sum_tie_baseline_parity(self):
        # Same trap in corner-score space: BASE's prefix filter must still
        # include an equal-computed-sum dominator from a later block.
        base = np.array(
            [[float(i), 1e15] for i in range(511)] + [[1e16, 1.0], [1e16, 0.0]]
        )
        ratios = RatioVector.uniform(1.0, 1.0, 2)
        expected = naive_eclipse_indices(base, ratios).tolist()
        assert eclipse_baseline_indices(base, ratios).tolist() == expected
        assert eclipse_transform_indices(base, ratios).tolist() == expected


class TestBlockingHelpers:
    def test_resolve_block_size_respects_cap(self):
        # 2 scratch bytes per (dominator, dim) cell per candidate.
        assert resolve_block_size(100, 5, memory_cap=100 * 5 * 2 * 7) == 7
        assert resolve_block_size(100, 5, memory_cap=1) == 1
        assert resolve_block_size(0, 0, memory_cap=1024) >= 1

    def test_resolve_block_size_honours_preferred(self):
        assert resolve_block_size(1, 1, memory_cap=1 << 30, preferred=9) == 9

    def test_memory_cap_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL_MEMORY_CAP_MB", "2")
        assert memory_cap_bytes() == 2 * 1024 * 1024
        assert memory_cap_bytes(123) == 123
        with pytest.raises(ValueError):
            memory_cap_bytes(0)

    def test_memory_cap_env_bogus_warns_and_falls_back(self, monkeypatch):
        from repro.perf.blocking import DEFAULT_MEMORY_CAP_BYTES

        monkeypatch.setenv("REPRO_KERNEL_MEMORY_CAP_MB", "bogus")
        with pytest.warns(RuntimeWarning, match="unparseable"):
            assert memory_cap_bytes() == DEFAULT_MEMORY_CAP_BYTES
        monkeypatch.setenv("REPRO_KERNEL_MEMORY_CAP_MB", "-3")
        with pytest.warns(RuntimeWarning, match="non-positive"):
            assert memory_cap_bytes() == DEFAULT_MEMORY_CAP_BYTES
        # An explicit cap bypasses the environment entirely: no warning.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert memory_cap_bytes(123) == 123

    def test_iter_blocks_covers_range(self):
        spans = list(iter_blocks(10, 3))
        assert spans == [(0, 3), (3, 6), (6, 9), (9, 10)]
        assert list(iter_blocks(0, 4)) == []
        with pytest.raises(ValueError):
            list(iter_blocks(5, 0))

    def test_growable_buffer_append_and_keep(self):
        buf = GrowableBuffer(2, capacity=1, track_sums=True)
        rows = np.arange(10, dtype=float).reshape(5, 2)
        buf.append_batch(rows, np.arange(5))
        assert len(buf) == 5
        assert np.array_equal(buf.rows, rows)
        assert np.array_equal(buf.sums, rows.sum(axis=1))
        buf.keep(np.array([True, False, True, False, True]))
        assert buf.indices.tolist() == [0, 2, 4]
        assert np.array_equal(buf.sums, rows[[0, 2, 4]].sum(axis=1))
        buf.append_batch(rows[:1], np.array([9]), sums=rows[:1].sum(axis=1))
        assert buf.indices.tolist() == [0, 2, 4, 9]

    def test_growable_buffer_without_sums(self):
        buf = GrowableBuffer(3)
        assert buf.sums is None
        buf.append_batch(np.ones((2, 3)), np.array([1, 2]))
        assert buf.sums is None
        assert len(buf) == 2

    def test_growable_buffer_keep_interleaved_mask(self):
        # The compaction writes the gathered rows back into the same
        # buffer; an interleaved mask makes source and destination ranges
        # overlap, which is exactly the aliasing the explicit copy guards.
        rows = np.arange(200, dtype=float).reshape(100, 2)
        indices = np.arange(100, 200)
        buf = GrowableBuffer(2, capacity=4, track_sums=True)
        buf.append_batch(rows, indices)
        mask = np.zeros(100, dtype=bool)
        mask[1::2] = True
        mask[0] = True  # uneven stride: kept run overlaps dropped run
        buf.keep(mask)
        assert np.array_equal(buf.rows, rows[mask])
        assert np.array_equal(buf.indices, indices[mask])
        assert np.array_equal(buf.sums, rows[mask].sum(axis=1))
        # Compact again down to a sparse tail-heavy subset.
        second = np.zeros(len(buf), dtype=bool)
        second[-3:] = True
        expected = rows[mask][second]
        buf.keep(second)
        assert np.array_equal(buf.rows, expected)
        assert len(buf) == 3


def step_rescue_rows(k: int, boundaries, d: int) -> np.ndarray:
    """``k`` dominators that dominate nothing except at ``boundaries``.

    The fillers lead with a huge first coordinate, so they never sit
    ``<=`` a candidate.  At each boundary index ``i`` the rows ``i - 1``
    and ``i`` are the dominators of the two computed-sum-tie pairs of
    :func:`rescue_rows`, so one ends a kernel step and the next opens one.
    """
    rows = np.full((k, d), 0.25)
    rows[:, 0] = 1e20 + np.arange(k)
    for i in boundaries:
        if 1 <= i < k:
            rows[i - 1, :2] = [1e-30, 1.0]
            rows[i, :2] = [1e16, 0.0]
    return rows


class TestWidenedDominatorStep:
    """``dominated_mask`` against the ``dominates_matrix`` oracle across the
    candidate-block heights where the dominator step widens."""

    @pytest.mark.parametrize("m", [1, 2, 50, 511, 512, 513])
    @pytest.mark.parametrize("k", [0, 1, 31, 33, 540, 2000])
    def test_matches_oracle(self, m, k):
        d = 3
        rng = np.random.default_rng(1000 * m + k)
        grid_cand = rng.integers(0, 4, size=(m, d)).astype(float)
        grid_dom = rng.integers(0, 4, size=(k, d)).astype(float)
        # Near-simplex rows rarely dominate each other, so every step runs.
        simplex = rng.random((m + k, d)) + 1e-3
        simplex /= simplex.sum(axis=1, keepdims=True)
        step = kernels._dominator_step(m, k, d, None)
        tie_cand = grid_cand.copy()
        tie_cand[:2] = np.hstack(
            [[[2e-30, 1.0], [1e16, 1.0]], np.full((2, d - 2), 0.25)]
        )[: tie_cand.shape[0]]
        cases = {
            "grid": (grid_cand, grid_dom),
            "simplex": (simplex[:m], simplex[m:]),
            "rescue": (tie_cand, step_rescue_rows(k, (32, step), d)),
        }
        for kind, (cand, dom) in cases.items():
            expected = dominates_matrix(dom, cand).any(axis=0)
            assert np.array_equal(dominated_mask(cand, dom), expected), kind
            assert np.array_equal(
                dominated_mask(cand, dom, memory_cap=256), expected
            ), kind
            assert np.array_equal(
                dominated_mask(cand, dom, threads=2), expected
            ), kind

    def test_rescue_pairs_are_hit_on_both_sides_of_the_boundary(self):
        d, m, k = 3, 50, 540
        step = kernels._dominator_step(m, k, d, None)
        assert step > kernels._DOMINATOR_CHUNK
        cand = np.full((m, d), -1.0)  # dominated by no row of ``dom``
        cand[:2] = [[2e-30, 1.0, 0.25], [1e16, 1.0, 0.25]]
        dom = step_rescue_rows(k, (step,), d)
        got = dominated_mask(cand, dom)
        assert np.flatnonzero(got).tolist() == [0, 1]
        assert np.array_equal(got, dominates_matrix(dom, cand).any(axis=0))

    def test_step_widens_only_for_short_blocks(self):
        chunk = kernels._DOMINATOR_CHUNK
        # 50 arrivals against a 540-row skyline: one or two steps, not 17.
        assert kernels._dominator_step(50, 540, 3, None) >= 540 // 2
        # Self-screen slices and >= 512-row blocks keep the fixed step.
        assert kernels._dominator_step(50, chunk, 3, None) == chunk
        assert kernels._dominator_step(512, 2000, 3, None) == chunk
        assert kernels._dominator_step(4096, 2000, 3, None) == chunk

    def test_step_stays_inside_the_memory_cap(self):
        chunk = kernels._DOMINATOR_CHUNK
        for rows, d, cap in [(50, 3, 256), (50, 3, 64 * 1024), (2, 8, 4096)]:
            step = kernels._dominator_step(rows, 2000, d, cap)
            per_step = rows * step * d * 2
            assert step == chunk or per_step <= cap

    def test_process_backend_forwards_the_step(self, monkeypatch):
        # Remove the dispatch gate so the screen really crosses processes:
        # the widened step travels as a kernel constant.
        from repro.core.session import SessionStats
        from repro.perf import executor

        monkeypatch.setattr(executor, "MIN_PROCESS_DISPATCH_BYTES", 0)
        d, m, k = 3, 100, 540
        step = kernels._dominator_step(50, k, d, None)
        cand = np.full((m, d), -1.0)
        cand[:2] = [[2e-30, 1.0, 0.25], [1e16, 1.0, 0.25]]
        cand[2:] = np.random.default_rng(5).integers(0, 4, size=(m - 2, d))
        dom = step_rescue_rows(k, (32, step), d)
        expected = dominates_matrix(dom, cand).any(axis=0)
        stats = SessionStats()
        with executor.kernel_context(backend="process", stats=stats):
            got = dominated_mask(cand, dom, threads=2)
        assert stats.process_dispatches > 0
        assert np.array_equal(got, expected)
