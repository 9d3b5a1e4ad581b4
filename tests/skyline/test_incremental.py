"""Tests for incremental skyline maintenance (repro.skyline.incremental)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import DimensionMismatchError, InvalidDatasetError
from repro.skyline import incremental as inc
from repro.skyline.api import skyline_indices


def membership(data, skyline_idx):
    mask = np.zeros(data.shape[0], dtype=bool)
    mask[skyline_idx] = True
    return mask


class TestRemapAfterDelete:
    def test_identity_without_deletes(self):
        remap = inc.remap_after_delete(5, np.empty(0, dtype=np.intp))
        assert remap.tolist() == [0, 1, 2, 3, 4]

    def test_deleted_rows_map_to_minus_one(self):
        remap = inc.remap_after_delete(6, np.array([1, 4]))
        assert remap.tolist() == [0, -1, 1, 2, -1, 3]

    def test_validate_rejects_out_of_range_and_duplicates(self):
        with pytest.raises(InvalidDatasetError):
            inc.validate_deletes(3, [3])
        with pytest.raises(InvalidDatasetError):
            inc.validate_deletes(3, [-1])
        with pytest.raises(InvalidDatasetError):
            inc.validate_deletes(3, [1, 1])


class TestInsertUpdate:
    def test_dominated_arrival_is_buffered(self):
        data = np.array([[1.0, 6.0], [4.0, 4.0], [9.0, 9.0]])
        out, added, demoted = inc.insert_update(
            data, membership(data[:2], [0, 1]), 1
        )
        assert not out[2]
        assert added.size == 0 and demoted.size == 0

    def test_arrival_demotes_dominated_member(self):
        data = np.array([[4.0, 4.0], [6.0, 1.0], [3.0, 3.0]])
        out, added, demoted = inc.insert_update(
            data, np.array([True, True, False]), 1
        )
        assert out.tolist() == [False, True, True]
        assert added.tolist() == [2]
        assert demoted.tolist() == [0]

    def test_intra_batch_dominance_resolved(self):
        data = np.array([[9.0, 9.0], [2.0, 2.0], [3.0, 3.0]])
        out, added, _ = inc.insert_update(data, np.array([True, False, False]), 2)
        # The second arrival is dominated by the first; the prefix demotes.
        assert added.tolist() == [1]
        assert out.tolist() == [False, True, False]

    def test_duplicates_all_survive(self):
        data = np.array([[2.0, 2.0], [2.0, 2.0]])
        out, added, demoted = inc.insert_update(data, np.array([True, False]), 1)
        assert out.tolist() == [True, True]
        assert demoted.size == 0


class TestDeleteUpdate:
    def test_deleting_buffered_point_changes_nothing(self):
        data = np.array([[1.0, 1.0], [5.0, 5.0], [2.0, 9.0]])
        kept_sky, promoted = inc.delete_update(
            data, np.array([True, False, True]), np.array([1])
        )
        assert kept_sky.tolist() == [True, True]
        assert promoted.size == 0

    def test_promotion_chain_only_exposes_top(self):
        # s > y > x (dominance chain); deleting s promotes y, not x.
        data = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        kept_sky, promoted = inc.delete_update(
            data, np.array([True, False, False]), np.array([0])
        )
        assert kept_sky.tolist() == [True, False]
        assert promoted.tolist() == [0]

    def test_shadow_survivor_promoted_when_unblocked(self):
        data = np.array([[1.0, 3.0], [4.0, 1.5], [2.0, 4.0]])
        # 0 and 1 are skyline, 2 is dominated by 0 only.  Deleting 0
        # promotes 2 (1 does not dominate it).
        kept_sky, promoted = inc.delete_update(
            data, np.array([True, True, False]), np.array([0])
        )
        assert kept_sky.tolist() == [True, True]
        assert promoted.tolist() == [1]

    def test_shadow_survivor_blocked_by_remaining_skyline(self):
        data = np.array([[1.0, 3.0], [1.5, 3.5], [2.0, 4.0]])
        # 0 is skyline; both others are dominated by it AND by each other's
        # chain; deleting 0 exposes only 1 (it dominates 2).
        kept_sky, promoted = inc.delete_update(
            data, np.array([True, False, False]), np.array([0])
        )
        assert kept_sky.tolist() == [True, False]
        assert promoted.tolist() == [0]


class TestApplyUpdatesFuzz:
    @pytest.mark.parametrize("dims", [2, 3, 4])
    def test_matches_full_recompute(self, dims):
        rng = np.random.default_rng(dims)
        for trial in range(40):
            n = int(rng.integers(0, 50))
            data = rng.integers(0, 6, size=(n, dims)).astype(float)
            sky = skyline_indices(data)
            num_deletes = int(rng.integers(0, n + 1)) if n else 0
            deletes = (
                rng.choice(n, size=num_deletes, replace=False)
                if num_deletes
                else np.empty(0, dtype=np.intp)
            )
            num_inserts = int(rng.integers(0, 12))
            inserts = (
                rng.integers(0, 6, size=(num_inserts, dims)).astype(float)
                if num_inserts
                else None
            )
            new_data, delta = inc.apply_updates(data, sky, inserts, deletes)
            expected_data = np.delete(data, np.unique(deletes), axis=0)
            if num_inserts:
                expected_data = (
                    np.vstack([expected_data, inserts])
                    if expected_data.size
                    else inserts
                )
            assert np.array_equal(new_data, np.asarray(expected_data))
            assert np.array_equal(
                np.flatnonzero(delta.is_skyline), skyline_indices(new_data)
            ), f"trial {trial}"

    def test_diff_is_pure_membership_diff(self):
        # A point promoted by the delete and demoted again by an arrival in
        # the same batch must appear in neither added nor removed_old.
        data = np.array([[1.0, 1.0], [2.0, 2.0], [9.0, 9.0]])
        sky = skyline_indices(data)  # [0]
        new_data, delta = inc.apply_updates(
            data, sky, np.array([[1.5, 1.5]]), np.array([0])
        )
        # Point (2,2) was transiently promoted, then demoted by (1.5, 1.5).
        assert np.flatnonzero(delta.is_skyline).tolist() == [2]
        assert delta.added.tolist() == [2]
        assert delta.removed_old.tolist() == [0]

    def test_dimension_mismatch_rejected(self):
        data = np.ones((3, 2))
        with pytest.raises(DimensionMismatchError):
            inc.apply_updates(data, skyline_indices(data), np.ones((1, 3)), None)

    def test_empty_dataset_insert(self):
        data = np.empty((0, 3))
        new_data, delta = inc.apply_updates(
            data, np.empty(0, dtype=np.intp), np.array([[1.0, 2.0, 3.0]]), None
        )
        assert new_data.shape == (1, 3)
        assert delta.added.tolist() == [0]

    def test_delete_everything(self):
        data = np.array([[1.0, 2.0], [2.0, 1.0]])
        new_data, delta = inc.apply_updates(
            data, skyline_indices(data), None, np.array([0, 1])
        )
        assert new_data.shape == (0, 2)
        assert delta.is_skyline.size == 0
        assert delta.removed_old.tolist() == [0, 1]


# ----------------------------------------------------------------------
# Oracle tests: apply_updates against compose-then-recompute
# ----------------------------------------------------------------------
def recompute_oracle(data, deletes, inserts):
    """``(new_data, delta)`` the slow way: ``np.delete`` + ``np.vstack``, a
    from-scratch block-SFS skyline of both sides, and ``membership_delta``."""
    deletes = np.unique(np.asarray([] if deletes is None else deletes, dtype=np.intp))
    new_data = np.delete(data, deletes, axis=0)
    if inserts is not None and inserts.shape[0]:
        new_data = np.vstack([new_data, inserts])
    old_sky = membership(data, skyline_indices(data, method="sfs"))
    new_sky = membership(new_data, skyline_indices(new_data, method="sfs"))
    return new_data, inc.membership_delta(data.shape[0], deletes, old_sky, new_sky)


def assert_matches_oracle(data, deletes, inserts):
    sky = skyline_indices(data, method="sfs")
    new_data, delta = inc.apply_updates(data, sky, inserts, deletes)
    want_data, want = recompute_oracle(data, deletes, inserts)
    assert new_data.shape == want_data.shape
    assert new_data.tobytes() == want_data.tobytes()
    assert not np.shares_memory(new_data, data)
    assert np.array_equal(delta.is_skyline, want.is_skyline)
    for field in ("added", "removed_old", "skyline"):
        got, expected = getattr(delta, field), getattr(want, field)
        assert got.dtype == np.intp, field
        assert got.tolist() == expected.tolist(), field
    assert delta.num_points == new_data.shape[0]
    return delta


def grid(rng, n, d, high=5):
    """Tie-heavy integer grid rows: duplicates and per-column ties abound."""
    return rng.integers(0, high, size=(n, d)).astype(float)


def wide_skyline(rng, d):
    """A lattice antichain of more than 32 skyline rows (one kernel step; all
    coordinate sums equal), plus grid rows each dominated by one of them."""
    total = {2: 40, 3: 10, 4: 6, 5: 4}[d]
    lattice = np.array(
        [p for p in np.ndindex(*([total + 1] * d)) if sum(p) == total], dtype=float
    )
    assert lattice.shape[0] > 32
    shadow = lattice[rng.integers(0, lattice.shape[0], size=60)] + rng.integers(
        0, 3, size=(60, d)
    )
    rows = np.vstack([lattice, shadow])
    return rows[rng.permutation(rows.shape[0])]


@pytest.mark.parametrize("d", [2, 3, 4, 5])
class TestApplyUpdatesOracle:
    def test_random_batches(self, d):
        rng = np.random.default_rng(100 + d)
        for _ in range(60):
            n = int(rng.integers(0, 60))
            data = grid(rng, n, d)
            deletes = rng.choice(n, size=int(rng.integers(0, n + 1)), replace=False)
            inserts = grid(rng, int(rng.integers(0, 16)), d)
            assert_matches_oracle(data, deletes, inserts)

    def test_delete_every_skyline_row(self, d):
        rng = np.random.default_rng(200 + d)
        for data in (grid(rng, 50, d), wide_skyline(rng, d)):
            sky = skyline_indices(data, method="sfs")
            assert_matches_oracle(data, sky, None)
            assert_matches_oracle(data, sky, grid(rng, 10, d))

    def test_delete_around_one_kernel_step_of_skyline_rows(self, d):
        # Shadows of up to and past one kernel step of deleted skyline rows,
        # screened against the rest of an equal-sum skyline.
        rng = np.random.default_rng(250 + d)
        data = wide_skyline(rng, d)
        sky = skyline_indices(data, method="sfs")
        for count in (1, 31, 32, 33):
            deletes = rng.choice(sky, size=count, replace=False)
            assert_matches_oracle(data, deletes, grid(rng, 5, d, high=3))

    def test_delete_all_rows(self, d):
        rng = np.random.default_rng(300 + d)
        data = grid(rng, 40, d)
        delta = assert_matches_oracle(data, np.arange(40), None)
        assert delta.is_skyline.size == 0
        assert_matches_oracle(data, np.arange(40), grid(rng, 7, d))

    def test_inserts_only(self, d):
        rng = np.random.default_rng(400 + d)
        data = grid(rng, 50, d)
        for _ in range(10):
            delta = assert_matches_oracle(data, None, grid(rng, 12, d))
            assert delta.added.size == 0 or delta.added.min() >= 50

    def test_deletes_only(self, d):
        rng = np.random.default_rng(500 + d)
        data = grid(rng, 50, d)
        for _ in range(10):
            deletes = rng.choice(50, size=int(rng.integers(1, 50)), replace=False)
            assert_matches_oracle(data, deletes, None)

    def test_arrivals_duplicating_skyline_rows(self, d):
        # Duplicates never dominate each other: copies of skyline rows join
        # the skyline and demote nobody.
        rng = np.random.default_rng(600 + d)
        data = grid(rng, 50, d)
        sky = skyline_indices(data, method="sfs")
        copies = data[sky[: max(1, sky.size // 2)]]
        delta = assert_matches_oracle(data, None, copies)
        assert delta.removed_old.size == 0
        assert delta.added.size == copies.shape[0]
        assert_matches_oracle(data, sky[:1], np.vstack([copies, copies]))

    def test_transient_promotion_is_in_neither_list(self, d):
        # Deleting s promotes y; the arrival z then demotes y again.
        s, y, far, z = np.ones(d), np.full(d, 2.0), np.full(d, 9.0), np.full(d, 1.5)
        data = np.vstack([s, y, far])
        delta = assert_matches_oracle(data, [0], z[None, :])
        assert delta.added.tolist() == [2]
        assert delta.removed_old.tolist() == [0]
        assert delta.skyline.tolist() == [2]


class TestComposeUpdatedData:
    def test_matches_delete_then_vstack(self):
        rng = np.random.default_rng(9)
        data = rng.random((2000, 3))
        inserts = rng.random((7, 3))
        assert 2000 // inc._ROWS_PER_SLICE == 15
        cases = [  # slice runs up to 15 deletes, a mask gather past that
            np.array([0]),
            np.array([1999]),
            np.array([0, 1, 2, 1998, 1999]),
            np.arange(0, 2000, 134),  # 15 deletes
            np.arange(0, 2000, 125),  # 16 deletes
            np.arange(0, 2000, 3),
        ]
        for deletes in cases:
            for arrivals in (None, inserts):
                got = inc.compose_updated_data(data, deletes, arrivals)
                want = np.delete(data, deletes, axis=0)
                if arrivals is not None:
                    want = np.vstack([want, arrivals])
                assert got.tobytes() == want.tobytes() and got.shape == want.shape
                assert not np.shares_memory(got, data)
                assert not np.shares_memory(got, inserts)

    def test_no_change_is_a_fresh_copy(self):
        data = np.arange(6.0).reshape(3, 2)
        got = inc.compose_updated_data(data, np.empty(0, dtype=np.intp), None)
        assert np.array_equal(got, data) and not np.shares_memory(got, data)

    def test_empty_prefix_takes_the_arrivals_shape(self):
        inserts = np.ones((2, 3))
        for data, deletes in (
            (np.empty((0, 0)), np.empty(0, dtype=np.intp)),
            (np.ones((2, 3)), np.array([0, 1])),
        ):
            got = inc.compose_updated_data(data, deletes, inserts)
            assert got.shape == (2, 3) and not np.shares_memory(got, inserts)


class TestDeleteValidation:
    """Malformed delete positions raise instead of deleting the wrong rows."""

    def test_fractional_positions_rejected(self):
        with pytest.raises(InvalidDatasetError, match="integers"):
            inc.validate_deletes(5, [1.7, 2.2])

    def test_boolean_mask_rejected(self):
        with pytest.raises(InvalidDatasetError, match="integers"):
            inc.validate_deletes(5, [True, False])
        with pytest.raises(InvalidDatasetError, match="integers"):
            inc.validate_deletes(5, np.ones(5, dtype=bool))

    def test_strings_rejected(self):
        with pytest.raises(InvalidDatasetError):
            inc.validate_deletes(5, ["a"])

    def test_ragged_rejected(self):
        with pytest.raises(InvalidDatasetError):
            inc.validate_deletes(5, [[1], [2, 3]])

    def test_empty_input_of_any_dtype_accepted(self):
        for empty in (None, [], np.array([], dtype=float)):
            got = inc.validate_deletes(5, empty)
            assert got.size == 0 and got.dtype == np.intp

    def test_integer_dtypes_accepted(self):
        for dtype in (np.int8, np.uint16, np.int64):
            got = inc.validate_deletes(5, np.array([3, 1], dtype=dtype))
            assert got.tolist() == [1, 3] and got.dtype == np.intp

    def test_non_numeric_inserts_rejected(self):
        data = np.ones((3, 2))
        with pytest.raises(InvalidDatasetError, match="numeric"):
            inc.apply_updates(data, np.array([0]), [["a", "b"]], None)
