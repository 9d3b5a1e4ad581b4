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
  only possible promotions.  ``d`` column compares of the raw rows against
  each deleted skyline point collect a superset of that shadow (rows ``>=``
  it everywhere) without copying the buffer; the kernels then decide it
  exactly — a screen against the surviving skyline, and an intra-shadow
  self-screen that resolves chains (``s ≻ y ≻ x``: deleting ``s`` promotes
  ``y`` but not ``x``).

The "dominated buffer" is the complement partition: every point is either a
skyline point or buffered, and the functions below move points between the
two sides exactly.  All results are set-identical to a from-scratch
recompute (the dynamic-parity fuzz tests pin this bit for bit on the sorted
index arrays).

Cost of one :func:`apply_updates` batch: one copy of the kept rows into the
new data array, one ``O(n · d)`` column pass per deleted skyline point, and
kernel work on the changed rows and the skyline only.  The skyline diff and
the new sorted skyline come from the small sets of the batch — deleted
skyline rows, promotions, surviving arrivals and demotions — with old
positions shifted past the sorted deletes by binary search.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple, Type

import numpy as np

from repro._types import IndexArray
from repro.errors import DimensionMismatchError, InvalidDatasetError, ReproError
from repro.skyline.kernels import dominated_mask, self_dominated_mask

#: Rows a boolean-mask gather copies in the time one slice copy takes.
#: :func:`compose_updated_data` copies the runs between the deletes one
#: slice (one Python-level call) each while there are fewer deletes than
#: ``rows / _ROWS_PER_SLICE``, and gathers through a mask past that.
#: Measured (2-vCPU x86-64, n=20k, d=3): the mask gather takes ~135 us at
#: any delete count, slice runs 35 us at 20 deletes and 225 us at 256.
#: End to end, the mask gather alone raised the perfbench ``stream-anti``
#: median ``update_p50_ms`` from 1.17 to 1.48 ms (10 seeds, 10/10).
_ROWS_PER_SLICE = 128


@dataclass(frozen=True)
class SkylineDelta:
    """The exact skyline diff produced by one update batch.

    Attributes
    ----------
    num_points:
        Row count of the *new* dataset (post-delete, post-insert).
    skyline:
        New-dataset positions of the skyline, sorted.
    added:
        New-dataset positions that joined the skyline (promotions out of the
        dominated buffer plus surviving arrivals), sorted.
    removed_old:
        Old-dataset positions that left the skyline (deleted skyline points
        plus points demoted by an arrival), sorted.  Expressed in *old*
        coordinates because downstream index arenas key their hyperplane
        slots by the positions the points had when they were indexed.
    """

    num_points: int
    skyline: IndexArray
    added: IndexArray
    removed_old: IndexArray

    @property
    def is_skyline(self) -> np.ndarray:
        """Boolean membership mask over the new dataset, built from
        :attr:`skyline` on each access."""
        mask = np.zeros(self.num_points, dtype=bool)
        mask[self.skyline] = True
        return mask


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


def integer_positions(
    values, what: str, error: Type[ReproError] = InvalidDatasetError
) -> np.ndarray:
    """``values`` as a 1-D ``intp`` array, rejecting anything but integers.

    ``None`` and empty input (of any dtype) give an empty array.  Floats,
    booleans (a mask is not a position list), strings and ragged input
    raise ``error`` instead of being cast: a silent ``astype`` would turn
    ``[1.7, 2.2]`` into rows 1 and 2, and a mask into rows 0 and 1.
    """
    if values is None:
        return np.empty(0, dtype=np.intp)
    try:
        raw = np.asarray(values)
    except (TypeError, ValueError) as exc:
        raise error(f"{what} must be a 1-D integer array: {exc}") from exc
    if raw.ndim != 1:
        raise error(f"{what} must be a 1-D integer array")
    if raw.size == 0:
        return np.empty(0, dtype=np.intp)
    if not np.issubdtype(raw.dtype, np.integer):
        raise error(f"{what} must be integers, got dtype {raw.dtype}")
    return raw.astype(np.intp, copy=False)


def validate_deletes(num_points: int, deletes) -> np.ndarray:
    """Normalise delete positions: unique, in-range, sorted ``intp`` array."""
    positions = integer_positions(deletes, "delete positions")
    if positions.size == 0:
        return positions
    if positions.min() < 0 or positions.max() >= num_points:
        raise InvalidDatasetError(
            f"delete positions must lie in [0, {num_points}), got "
            f"[{positions.min()}, {positions.max()}]"
        )
    ordered = np.sort(positions)
    if (ordered[1:] == ordered[:-1]).any():
        raise InvalidDatasetError("delete positions must be unique")
    return ordered


def compose_updated_data(
    data: np.ndarray, deletes: np.ndarray, inserts: Optional[np.ndarray]
) -> np.ndarray:
    """``np.vstack([np.delete(data, deletes, axis=0), inserts])`` in one copy.

    ``deletes`` are sorted unique positions.  The result is allocated once;
    the kept runs between the deletes are copied into it as slices (or
    gathered through a mask when the deletes are many, see
    :data:`_ROWS_PER_SLICE`), and the arrivals after them.  The result
    never aliases ``data`` or ``inserts``.  An empty prefix may carry a
    different — even zero — column count, in which case the arrivals
    alone define the result.  Used by both
    :func:`apply_updates` and the session's invalidation path so the two
    can never diverge.
    """
    num_kept = data.shape[0] - deletes.size
    num_inserted = 0 if inserts is None else inserts.shape[0]
    if num_inserted == 0:
        out = np.empty((num_kept,) + data.shape[1:], dtype=data.dtype)
    elif num_kept == 0:
        return inserts.copy()
    else:
        out = np.empty(
            (num_kept + num_inserted, data.shape[1]),
            dtype=np.result_type(data, inserts),
        )
        out[num_kept:] = inserts
    kept = out[:num_kept]
    if deletes.size * _ROWS_PER_SLICE > data.shape[0]:
        keep = np.ones(data.shape[0], dtype=bool)
        keep[deletes] = False
        np.compress(keep, data, axis=0, out=kept)
        return out
    row = start = 0
    for position in deletes.tolist():
        kept[row : row + position - start] = data[start:position]
        row += position - start
        start = position + 1
    kept[row:] = data[start:]
    return out


def _shadow_candidates(
    data: np.ndarray, buffered: np.ndarray, deleted_sky: np.ndarray
) -> IndexArray:
    """Sorted old positions of ``buffered`` rows a deleted skyline row may
    have dominated: a superset of its shadow.

    Each deleted skyline row costs ``d`` column compares over the raw rows
    (``>=`` everywhere: dominated or equal); no buffer is gathered.
    """
    near = np.zeros(data.shape[0], dtype=bool)
    for row in deleted_sky:
        ge = data[:, 0] >= row[0]
        for j in range(1, data.shape[1]):
            ge &= data[:, j] >= row[j]
        near |= ge
    return np.flatnonzero(near & buffered)


def _promotions(
    data: np.ndarray,
    is_skyline: np.ndarray,
    skyline: IndexArray,
    deletes: np.ndarray,
    memory_cap: Optional[int],
) -> Tuple[IndexArray, IndexArray, IndexArray]:
    """The delete half of a batch, in old coordinates.

    ``skyline`` holds the sorted positions of ``is_skyline``.  Returns
    ``(deleted_sky, kept_sky, promoted)``: the deleted skyline positions,
    the surviving old skyline positions and the buffered rows the deletes
    expose, each sorted.
    """
    deleted_sky = deletes[is_skyline[deletes]]
    if deleted_sky.size == 0:
        # Only buffered points left: nobody's dominators changed.
        return deleted_sky, skyline, np.empty(0, dtype=np.intp)
    kept_sky = np.delete(skyline, np.searchsorted(skyline, deleted_sky))
    buffered = ~is_skyline
    buffered[deletes] = False
    candidates = _shadow_candidates(data, buffered, data[deleted_sky])
    if candidates.size == 0:
        return deleted_sky, kept_sky, candidates
    # Still dominated by a surviving skyline point?  (The superset's rows
    # outside the true shadow always are; transitivity makes the skyline
    # screen sufficient for every other dominator; chains inside the shadow
    # are resolved by the intra pass below.)
    candidate_points = data[candidates]
    free = ~dominated_mask(candidate_points, data[kept_sky], memory_cap=memory_cap)
    candidates = candidates[free]
    if candidates.size > 1:
        intra = self_dominated_mask(candidate_points[free], memory_cap=memory_cap)
        candidates = candidates[~intra]
    return deleted_sky, kept_sky, candidates


def _arrivals(
    front: np.ndarray, arrivals: np.ndarray, memory_cap: Optional[int]
) -> Tuple[IndexArray, np.ndarray]:
    """The insert half of a batch against the skyline rows ``front``.

    Returns ``(surviving, demoted)``: the arrival rows that join the
    skyline, and a mask over ``front`` of the rows one of them dominates.
    """
    # Screening against the current skyline is exact: any old dominator of
    # an arrival is itself dominated by (or is) an old skyline point.
    screened = dominated_mask(arrivals, front, memory_cap=memory_cap)
    surviving = np.flatnonzero(~screened)
    if surviving.size > 1:
        intra = self_dominated_mask(arrivals[surviving], memory_cap=memory_cap)
        surviving = surviving[~intra]
    if surviving.size and front.shape[0]:
        demoted = dominated_mask(front, arrivals[surviving], memory_cap=memory_cap)
    else:
        demoted = np.zeros(front.shape[0], dtype=bool)
    return surviving, demoted


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
    _, _, promoted = _promotions(
        data, is_skyline, np.flatnonzero(is_skyline), deletes, memory_cap
    )
    keep = np.ones(data.shape[0], dtype=bool)
    keep[deletes] = False
    kept_sky = is_skyline[keep]
    promoted = promoted - np.searchsorted(deletes, promoted)
    kept_sky[promoted] = True
    return kept_sky, promoted


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
    old_sky_positions = np.flatnonzero(out[:base])
    surviving, demoted_mask = _arrivals(
        data[old_sky_positions], data[base:], memory_cap
    )
    added = base + surviving
    out[added] = True
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
    dropping them all.  :func:`apply_updates` does not need it: it derives
    the same diff from the small sets its batch touched.
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
        num_points=new_is_skyline.shape[0],
        skyline=promoted_or_new.astype(np.intp),
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
    matching hyperplane slots before renumbering.  Both halves run on the
    old rows, so the new data array is composed once, at the end.
    """
    n = data.shape[0]
    deletes = validate_deletes(n, deletes)
    if inserts is None:
        inserts = np.empty((0, data.shape[1]), dtype=float)
    else:
        try:
            inserts = np.asarray(inserts, dtype=float)
        except (TypeError, ValueError) as exc:
            raise InvalidDatasetError(
                f"inserts must be a numeric (b, d) array: {exc}"
            ) from exc
        if inserts.ndim != 2:
            raise InvalidDatasetError("inserts must be a 2-D (b, d) array")
        if n and inserts.shape[0] and inserts.shape[1] != data.shape[1]:
            raise DimensionMismatchError(
                f"inserted points have d={inserts.shape[1]}, "
                f"dataset has d={data.shape[1]}"
            )

    skyline = np.asarray(skyline_idx, dtype=np.intp)
    if (skyline[1:] <= skyline[:-1]).any():
        skyline = np.unique(skyline)
    is_sky = np.zeros(n, dtype=bool)
    is_sky[skyline] = True
    deleted_sky, kept_sky, promoted = _promotions(
        data, is_sky, skyline, deletes, memory_cap
    )
    # The skyline between the two halves, sorted old positions.
    front = kept_sky
    if promoted.size:
        front = np.sort(np.concatenate([kept_sky, promoted]))
    surviving, demoted = _arrivals(data[front], inserts, memory_cap)

    # Transient members — promoted by the delete step, demoted again by an
    # arrival in the same batch — appear in neither list: ``removed_old``
    # and ``added`` are pure before/after membership diffs.
    stays = front[~demoted]
    removed_old = np.sort(
        np.concatenate([deleted_sky, front[demoted & is_sky[front]]])
    )
    kept_promotions = stays[~is_sky[stays]]
    base = n - deletes.size
    arrived = base + surviving
    new_skyline = np.concatenate(
        [stays - np.searchsorted(deletes, stays), arrived]
    )
    added = np.concatenate(
        [kept_promotions - np.searchsorted(deletes, kept_promotions), arrived]
    )
    new_data = compose_updated_data(data, deletes, inserts)
    return new_data, SkylineDelta(
        num_points=new_data.shape[0],
        skyline=new_skyline,
        added=added,
        removed_old=removed_old,
    )
