"""Incremental skyline maintenance under point inserts and deletes.

The static pipeline recomputes the whole skyline whenever the dataset
changes.  This module maintains it instead, on the same memory-bounded
dominance kernels (:mod:`repro.skyline.kernels`), so a
:class:`~repro.core.session.DatasetSession` can absorb a stream of updates
without paying a full ``O(n · u)`` recompute per batch:

* **insert** — one :func:`~repro.skyline.kernels.dominated_mask` pass of the
  new points against the current skyline screens out dominated arrivals
  (dominance is transitive, so screening against the skyline alone is
  exact); an intra-batch self-screen
  (:func:`~repro.skyline.kernels.self_dominated_mask`) resolves dominance
  among the survivors; a final pass demotes current skyline points
  dominated by a surviving arrival into the dominated buffer.
* **delete** — removing a *dominated* point never changes anyone else's
  status, so only deleted skyline points trigger work: the points they used
  to shadow (the members of the dominated buffer they dominate) are the
  only possible promotions.  One kernel pass computes that shadow, a second
  screens it against the surviving skyline, and an intra-shadow
  self-screen resolves chains (``s ≻ y ≻ x``: deleting ``s`` promotes
  ``y`` but not ``x``).  The cost is proportional to the buffer size times
  the number of *deleted skyline* points — localized, instead of the full
  recompute.

The "dominated buffer" is the complement partition: every point is either a
skyline point or buffered, and the functions below move points between the
two sides exactly.  All results are set-identical to a from-scratch
recompute (the dynamic-parity fuzz tests pin this bit for bit on the sorted
index arrays).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro._types import IndexArray
from repro.errors import DimensionMismatchError, InvalidDatasetError
from repro.skyline.kernels import dominated_mask, self_dominated_mask


@dataclass(frozen=True)
class SkylineDelta:
    """The exact skyline diff produced by one update batch.

    Attributes
    ----------
    is_skyline:
        Boolean membership mask over the *new* dataset (post-delete,
        post-insert row order).
    added:
        New-dataset positions that joined the skyline (promotions out of the
        dominated buffer plus surviving arrivals), sorted.
    removed_old:
        Old-dataset positions that left the skyline (deleted skyline points
        plus points demoted by an arrival), sorted.  Expressed in *old*
        coordinates because downstream index arenas key their hyperplane
        slots by the positions the points had when they were indexed.
    """

    is_skyline: np.ndarray
    added: IndexArray
    removed_old: IndexArray


def remap_after_delete(num_points: int, deletes: np.ndarray) -> np.ndarray:
    """Old-position → new-position map of a row deletion (``-1`` = deleted).

    Rows keep their relative order; the map is what every index-carrying
    artifact needs to renumber itself after ``np.delete(data, deletes)``.
    """
    keep = np.ones(num_points, dtype=bool)
    keep[deletes] = False
    remap = np.cumsum(keep, dtype=np.intp) - 1
    remap[~keep] = -1
    return remap


def validate_deletes(num_points: int, deletes) -> np.ndarray:
    """Normalise delete positions: unique, in-range, sorted ``intp`` array."""
    positions = np.asarray(deletes if deletes is not None else [], dtype=np.intp)
    if positions.ndim != 1:
        raise InvalidDatasetError("delete positions must be a 1-D integer array")
    if positions.size == 0:
        return positions
    if positions.min() < 0 or positions.max() >= num_points:
        raise InvalidDatasetError(
            f"delete positions must lie in [0, {num_points}), got "
            f"[{positions.min()}, {positions.max()}]"
        )
    unique = np.unique(positions)
    if unique.size != positions.size:
        raise InvalidDatasetError("delete positions must be unique")
    return unique


def compose_updated_data(
    data: np.ndarray, deletes: np.ndarray, inserts: Optional[np.ndarray]
) -> np.ndarray:
    """``np.vstack([np.delete(data, deletes, axis=0), inserts])``, minimally.

    The single home of the composition's aliasing rules: ``np.delete``
    already produces a fresh array (only the zero-delete alias of ``data``
    needs a defensive copy), and an empty prefix may carry a different —
    even zero — column count, in which case the arrivals alone define the
    result.  Used by both :func:`apply_updates` and the session's
    invalidation path so the two can never diverge.
    """
    kept = np.delete(data, deletes, axis=0) if deletes.size else data
    if inserts is None or inserts.shape[0] == 0:
        return kept.copy() if deletes.size == 0 else kept
    if kept.shape[0] == 0:
        return inserts.copy()
    return np.vstack([kept, inserts])


def delete_update(
    data: np.ndarray,
    is_skyline: np.ndarray,
    deletes: np.ndarray,
    memory_cap: Optional[int] = None,
) -> Tuple[np.ndarray, IndexArray]:
    """Skyline membership of the kept rows after deleting ``deletes``.

    Parameters
    ----------
    data, is_skyline:
        The *old* dataset and its skyline membership mask.
    deletes:
        Sorted unique old-dataset positions to remove.

    Returns
    -------
    (kept_is_skyline, promoted_kept_positions):
        Membership mask over the kept rows (old order, deleted rows
        dropped), and the kept-row positions that were promoted out of the
        dominated buffer.
    """
    keep = np.ones(data.shape[0], dtype=bool)
    keep[deletes] = False
    kept_sky = is_skyline[keep].copy()
    deleted_sky = data[deletes][is_skyline[deletes]]
    if deleted_sky.shape[0] == 0:
        # Only buffered points left: nobody's dominators changed.
        return kept_sky, np.empty(0, dtype=np.intp)

    kept_data = data[keep]
    buffer_positions = np.flatnonzero(~kept_sky)
    if buffer_positions.size == 0:
        return kept_sky, np.empty(0, dtype=np.intp)
    buffer_points = kept_data[buffer_positions]

    # The dominance shadow: buffered points one of the deleted skyline
    # points used to dominate.  Only they can possibly be exposed.
    shadow = dominated_mask(buffer_points, deleted_sky, memory_cap=memory_cap)
    candidates = buffer_positions[shadow]
    if candidates.size == 0:
        return kept_sky, candidates
    candidate_points = kept_data[candidates]

    # Still shadowed by a surviving skyline point?  (Transitivity makes the
    # skyline screen sufficient for non-shadow dominators; chains inside the
    # shadow are resolved by the intra pass below.)
    survivors_mask = ~dominated_mask(
        candidate_points, kept_data[kept_sky], memory_cap=memory_cap
    )
    candidates = candidates[survivors_mask]
    candidate_points = candidate_points[survivors_mask]
    if candidates.size > 1:
        intra = self_dominated_mask(candidate_points, memory_cap=memory_cap)
        candidates = candidates[~intra]
    kept_sky[candidates] = True
    return kept_sky, candidates


def insert_update(
    data: np.ndarray,
    is_skyline: np.ndarray,
    num_inserted: int,
    memory_cap: Optional[int] = None,
) -> Tuple[np.ndarray, IndexArray, IndexArray]:
    """Skyline membership after appending ``num_inserted`` rows to ``data``.

    ``data`` already contains the arrivals as its last ``num_inserted``
    rows; ``is_skyline`` is the membership mask of the *prefix* (arrival
    entries may be anything — they are recomputed here).

    Returns
    -------
    (is_skyline, added_positions, demoted_positions):
        The updated membership mask over all of ``data``, the appended
        positions that joined the skyline, and the prefix positions demoted
        by an arrival.
    """
    n = data.shape[0]
    base = n - num_inserted
    out = np.zeros(n, dtype=bool)
    out[:base] = is_skyline[:base]
    if num_inserted == 0:
        return out, np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp)

    new_points = data[base:]
    old_sky_positions = np.flatnonzero(out[:base])
    # Screening against the current skyline is exact: any old dominator of
    # an arrival is itself dominated by (or is) an old skyline point.
    screened = dominated_mask(
        new_points, data[old_sky_positions], memory_cap=memory_cap
    )
    surviving = np.flatnonzero(~screened)
    if surviving.size > 1:
        intra = self_dominated_mask(new_points[surviving], memory_cap=memory_cap)
        surviving = surviving[~intra]
    added = base + surviving
    out[added] = True

    demoted = np.empty(0, dtype=np.intp)
    if surviving.size and old_sky_positions.size:
        demoted_mask = dominated_mask(
            data[old_sky_positions], data[added], memory_cap=memory_cap
        )
        demoted = old_sky_positions[demoted_mask]
        out[demoted] = False
    return out, added, demoted


def membership_delta(
    num_old: int,
    deletes: np.ndarray,
    old_is_skyline: np.ndarray,
    new_is_skyline: np.ndarray,
) -> SkylineDelta:
    """Diff old-vs-new skyline membership into a :class:`SkylineDelta`.

    ``old_is_skyline`` is the membership mask over the *old* dataset,
    ``new_is_skyline`` over the *new* one (old rows minus the sorted unique
    ``deletes``, arrivals appended), exactly the frame
    :func:`compose_updated_data` produces.  The diff is membership-only —
    it does not care *how* ``new_is_skyline`` was obtained, which is what
    lets a session that recomputed its skyline from scratch still patch its
    cached indexes with the (usually small) insert/delete sets instead of
    dropping them all.
    """
    kept_old_positions = np.delete(np.arange(num_old, dtype=np.intp), deletes)
    was_sky_new_coords = np.zeros(new_is_skyline.shape[0], dtype=bool)
    was_sky_new_coords[: kept_old_positions.size] = old_is_skyline[
        kept_old_positions
    ]
    removed_old = np.concatenate(
        [
            deletes[old_is_skyline[deletes]],  # deleted skyline members
            kept_old_positions[  # kept members that lost membership
                was_sky_new_coords[: kept_old_positions.size]
                & ~new_is_skyline[: kept_old_positions.size]
            ],
        ]
    )
    promoted_or_new = np.flatnonzero(new_is_skyline)
    # ``added``: new positions that were NOT skyline before the batch —
    # promotions (kept rows whose old membership was False) and arrivals.
    added = promoted_or_new[~was_sky_new_coords[promoted_or_new]]
    return SkylineDelta(
        is_skyline=new_is_skyline,
        added=np.sort(added).astype(np.intp),
        removed_old=np.sort(removed_old).astype(np.intp),
    )


def apply_updates(
    data: np.ndarray,
    skyline_idx: IndexArray,
    inserts: Optional[np.ndarray],
    deletes: Optional[np.ndarray],
    memory_cap: Optional[int] = None,
) -> Tuple[np.ndarray, SkylineDelta]:
    """Apply one mixed update batch and return ``(new_data, delta)``.

    Deletes are applied first (promotions from the dominated buffer), then
    the inserts are appended (survivor screening plus demotions), matching
    ``np.vstack([np.delete(data, deletes, axis=0), inserts])`` row order.

    ``skyline_idx`` is the current skyline of ``data``;
    :attr:`SkylineDelta.removed_old` reports both deleted and demoted
    skyline members in *old* coordinates so index arenas can retire the
    matching hyperplane slots before renumbering.
    """
    n = data.shape[0]
    deletes = validate_deletes(n, deletes)
    if inserts is None:
        inserts = np.empty((0, data.shape[1]), dtype=float)
    else:
        inserts = np.asarray(inserts, dtype=float)
        if inserts.ndim != 2:
            raise InvalidDatasetError("inserts must be a 2-D (b, d) array")
        if n and inserts.shape[0] and inserts.shape[1] != data.shape[1]:
            raise DimensionMismatchError(
                f"inserted points have d={inserts.shape[1]}, "
                f"dataset has d={data.shape[1]}"
            )

    is_sky = np.zeros(n, dtype=bool)
    is_sky[np.asarray(skyline_idx, dtype=np.intp)] = True

    kept_sky, _ = delete_update(data, is_sky, deletes, memory_cap=memory_cap)
    new_data = compose_updated_data(data, deletes, inserts)

    partial = np.zeros(new_data.shape[0], dtype=bool)
    partial[: kept_sky.size] = kept_sky
    final_sky, _, _ = insert_update(
        new_data, partial, inserts.shape[0], memory_cap=memory_cap
    )

    # Diff against the OLD membership, in the coordinates each side needs.
    # Transient members — promoted by the delete step, demoted again by an
    # arrival in the same batch — appear in neither list: ``removed_old``
    # and ``added`` are pure before/after membership diffs.
    return new_data, membership_delta(n, deletes, is_sky, final_sky)
