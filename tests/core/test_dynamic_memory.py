"""The amortised dynamic-core memory engine (PR 5).

Covers the three mechanisms end to end:

* **capacity-doubling arenas** — :class:`repro.perf.arena.GrowableArena`
  unit behaviour (append/replace/sorted-insert parity, grow accounting,
  the exact-fit ``GROWTH_FACTOR = 1.0`` benchmark mode) and the growth
  counters surfaced through :class:`repro.core.session.SessionStats`;
* **in-place compaction** — byte-identical query results after
  :meth:`EclipseIndex.compact` on every backend, reclamation of the arena
  slices abandoned by subtree rebuilds, and the session's dead-fraction
  trigger choosing compaction mid-stream;
* **delta-driven index maintenance** — cached indexes patched with the
  membership diff of a from-scratch skyline recompute instead of being
  dropped, byte-identical to a fresh session.

Everything parity-asserted here compares against a from-scratch build over
the same data, which is the repo-wide dynamic-core contract.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.session import DatasetSession
from repro.core.weights import RatioVector
from repro.data.generators import generate_dataset
from repro.index.eclipse_index import EclipseIndex
from repro.perf import arena as arena_module
from repro.perf.arena import GrowableArena
from repro.skyline import incremental as inc
from repro.skyline.api import skyline_indices


def random_specs(rng, count, dims):
    specs = []
    for _ in range(count):
        low = float(rng.uniform(0.05, 1.0))
        specs.append(RatioVector.uniform(low, low + float(rng.uniform(0.1, 3.0)), dims))
    return specs


def apply_index_updates(index, data, sky, inserts, deletes):
    deletes = inc.validate_deletes(data.shape[0], deletes)
    new_data, delta = inc.apply_updates(data, sky, inserts, deletes)
    remap = inc.remap_after_delete(data.shape[0], deletes)
    index.delete_points(remap, delta.removed_old)
    index.insert_points(new_data, delta.added)
    return new_data, np.flatnonzero(delta.is_skyline)


class TestGrowableArena:
    def test_append_view_and_grow_accounting(self):
        arena = GrowableArena(np.arange(4, dtype=np.intp), capacity=4)
        assert len(arena) == 4 and arena.capacity == 4 and arena.grows == 0
        arena.append(np.array([4, 5], dtype=np.intp))
        assert arena.grows == 1
        assert np.array_equal(arena.view, np.arange(6))
        # Headroom absorbs further appends without reallocating.
        spare = arena.capacity - len(arena)
        arena.append(np.arange(6, 6 + spare, dtype=np.intp))
        assert arena.grows == 1
        assert np.array_equal(arena.view, np.arange(6 + spare))

    def test_two_dimensional_rows(self):
        arena = GrowableArena(np.zeros((2, 3)))
        arena.append(np.ones((5, 3)))
        assert arena.view.shape == (7, 3)
        assert np.all(arena.view[2:] == 1.0)

    def test_replace_keeps_capacity(self):
        arena = GrowableArena(np.arange(100.0))
        cap = arena.capacity
        arena.replace(np.arange(10.0))
        assert len(arena) == 10 and arena.capacity == cap
        assert np.array_equal(arena.view, np.arange(10.0))

    def test_sorted_insert_matches_np_insert(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            base = np.sort(rng.integers(0, 12, size=rng.integers(0, 30)).astype(float))
            arena = GrowableArena(base.copy())
            expected = base.copy()
            for _ in range(4):
                values = np.sort(
                    rng.integers(0, 12, size=rng.integers(1, 9)).astype(float)
                )
                positions = np.searchsorted(expected, values, side="left")
                expected = np.insert(expected, positions, values)
                arena.insert(positions, values)
                assert np.array_equal(arena.view, expected)

    def test_exact_fit_mode_reallocates_every_append(self, monkeypatch):
        # GROWTH_FACTOR = 1.0 is the benchmark's replica of the pre-arena
        # concatenating path: every append reallocates exactly.
        monkeypatch.setattr(arena_module, "GROWTH_FACTOR", 1.0)
        arena = GrowableArena(np.arange(32.0), capacity=32)
        for step in range(5):
            arena.append(np.array([float(step)]))
        assert arena.grows == 5


class TestCompactionParity:
    @pytest.mark.parametrize("backend", ["quadtree", "cutting"])
    @pytest.mark.parametrize("dims", [2, 3, 4])
    def test_compact_is_invisible_to_queries(self, backend, dims):
        rng = np.random.default_rng(10 * dims + len(backend))
        data = rng.uniform(0, 10, size=(70, dims))
        index = EclipseIndex(backend=backend, capacity=4).build(data)
        sky = skyline_indices(data)
        # Retire a good fraction of the indexed skyline points.
        victims = rng.choice(sky, size=max(2, sky.size // 2), replace=False)
        data, sky = apply_index_updates(index, data, sky, None, victims)
        assert index.num_dead_slots > 0
        specs = random_specs(rng, 4, dims)
        before = [index.query_indices(spec) for spec in specs]
        index.compact()
        assert index.num_dead_slots == 0
        fresh = EclipseIndex(backend=backend, capacity=4).build(data)
        for spec, want in zip(specs, before):
            got = index.query_indices(spec)
            assert np.array_equal(got, want)
            assert np.array_equal(got, fresh.query_indices(spec))
        for spec, got in zip(specs, index.query_indices_many(specs)):
            assert np.array_equal(got, index.query_indices(spec))

    @pytest.mark.parametrize("dims", [2, 3])
    def test_updates_keep_working_after_compaction(self, dims):
        rng = np.random.default_rng(3 * dims)
        data = rng.uniform(0, 10, size=(50, dims))
        index = EclipseIndex(backend="cutting", capacity=4).build(data)
        sky = skyline_indices(data)
        for step in range(4):
            deletes = rng.choice(data.shape[0], size=min(8, data.shape[0] - 1), replace=False)
            inserts = rng.uniform(0, 10, size=(9, dims))
            data, sky = apply_index_updates(index, data, sky, inserts, deletes)
            if step % 2 == 0:
                index.compact()
            fresh = EclipseIndex(backend="cutting", capacity=4).build(data)
            for spec in random_specs(rng, 3, dims):
                assert np.array_equal(
                    index.query_indices(spec), fresh.query_indices(spec)
                )

    def test_ties_and_duplicates_survive_compaction(self):
        rng = np.random.default_rng(21)
        dims = 3
        data = rng.integers(0, 6, size=(40, dims)).astype(float)
        index = EclipseIndex(backend="cutting", capacity=4).build(data)
        sky = skyline_indices(data)
        for _ in range(3):
            inserts = rng.integers(0, 6, size=(7, dims)).astype(float)
            deletes = rng.choice(data.shape[0], size=5, replace=False)
            data, sky = apply_index_updates(index, data, sky, inserts, deletes)
            index.compact()
            fresh = EclipseIndex(backend="cutting", capacity=4).build(data)
            for spec in (RatioVector.uniform(0.4, 2.0, dims),
                         RatioVector.uniform(0.9, 1.1, dims)):
                assert np.array_equal(
                    index.query_indices(spec), fresh.query_indices(spec)
                )

    def test_flattree_compaction_reclaims_abandoned_slices(self):
        # Subtree rebuilds abandon the old leaf's arena slice; a compaction
        # with an all-alive keep mask must still shrink the item arena back
        # to the referenced positions, with identical query results.
        from repro.geometry.boxes import Box
        from repro.geometry.flattree import build_cutting_core

        rng = np.random.default_rng(5)
        k = 2
        dom = Box(lows=np.full(k, -16.0), highs=np.zeros(k))
        coeffs = rng.uniform(-1, 1, size=(60, k))
        rhs = -rng.uniform(0.1, 8.0, size=60)
        tree = build_cutting_core(coeffs, rhs, dom, 4, 12, 4096, seed=0)
        for _ in range(6):
            extra_c = rng.uniform(-1, 1, size=(30, k))
            extra_r = -rng.uniform(0.1, 8.0, size=30)
            tree.insert_hyperplanes(extra_c, extra_r)
        items_before = tree.items.size
        probe = Box(np.full(k, -6.0), np.full(k, -0.5))
        want = np.sort(tree.query(probe))
        keep = np.ones(tree.size, dtype=bool)
        tree.compact_items(keep, np.arange(tree.size, dtype=np.intp))
        assert tree.items.size <= items_before
        assert np.array_equal(np.sort(tree.query(probe)), want)


class TestSessionDynamicMemory:
    def test_arena_grow_counter_surfaces(self):
        rng = np.random.default_rng(2)
        data = generate_dataset("inde", 3000, 3, seed=0)
        session = DatasetSession(data)
        session.run_batch(random_specs(rng, 6, 3), method="cutting")
        for _ in range(6):
            session.apply_updates(
                inserts=rng.uniform(0, 1, size=(12, 3)),
                deletes=rng.choice(session.num_points, size=6, replace=False),
            )
        assert session.stats.arena_grows > 0
        assert session.stats.index_inplace_updates >= 1

    def test_mid_stream_compaction_triggered_and_exact(self):
        rng = np.random.default_rng(14)
        data = generate_dataset("inde", 20_000, 3, seed=3)
        session = DatasetSession(data)
        specs = random_specs(rng, 4, 3)
        session.run_batch(specs, method="cutting")
        # Keep deleting currently indexed skyline rows: dead slots pile up
        # until the dead-fraction trigger fires, and the cost arm must pick
        # the in-place compaction over the (much dearer) full rebuild.
        for _ in range(12):
            sky = session.skyline()
            victims = rng.choice(sky, size=max(2, sky.size // 4), replace=False)
            session.apply_updates(
                inserts=rng.uniform(0, 1, size=(3, 3)), deletes=victims
            )
            if session.stats.compactions:
                break
        assert session.stats.compactions >= 1
        assert session.stats.index_builds == 1  # never rebuilt
        rebuilt = DatasetSession(session.data.copy())
        for got, want in zip(
            session.run_batch(specs, method="cutting"),
            rebuilt.run_batch(specs, method="cutting"),
        ):
            assert np.array_equal(got.indices, want.indices)

    def test_delta_patch_preserves_index_and_results(self):
        rng = np.random.default_rng(8)
        data = generate_dataset("inde", 20_000, 3, seed=1)
        session = DatasetSession(data)
        specs = random_specs(rng, 4, 3)
        session.run_batch(specs, method="cutting")
        assert session.stats.index_builds == 1
        # A massive delete batch of (mostly) buffered rows: the skyline arm
        # prefers a fresh recompute, but the membership churn is small, so
        # the cached index is patched with the diff instead of dropped.
        deletes = rng.choice(session.num_points, size=10_000, replace=False)
        report = session.apply_updates(deletes=deletes)
        assert report.skyline_plan is not None
        assert report.skyline_plan.strategy == "rebuild"
        assert report.index_delta_patches == 1
        assert session.stats.index_delta_patches == 1
        session.run_batch(specs, method="cutting")
        assert session.stats.index_builds == 1  # still the original build
        rebuilt = DatasetSession(session.data.copy())
        for got, want in zip(
            session.run_batch(specs, method="cutting"),
            rebuilt.run_batch(specs, method="cutting"),
        ):
            assert np.array_equal(got.indices, want.indices)

    def test_degenerate_arrivals_after_dead_slots_fall_back(self, force_auto_index):
        rng = np.random.default_rng(6)
        data = rng.uniform(4.0, 10.0, size=(60, 3))
        session = DatasetSession(data, index_kwargs={"capacity": 4})
        force_auto_index(session)
        specs = random_specs(rng, 5, 3)
        session.run_batch(specs, method="auto")
        assert session.last_plan.method == "cutting"
        assert session.stats.index_builds == 1
        # First retire some slots, then pile in collinear dominators: the
        # in-place update must fail internally, drop the index, and the
        # next auto batch must fall back to the exact transformation.
        sky = session.skyline()
        session.apply_updates(deletes=sky[:2])
        t = np.arange(50, dtype=float) * 0.01
        arrivals = np.array([1.0, 3.0, 2.0]) + t[:, None] * np.array([1.0, -1.0, 0.5])
        report = session.apply_updates(inserts=arrivals)
        assert report.index_invalidations >= 1
        results = session.run_batch(specs, method="auto")
        assert session.last_plan.method == "transform"
        rebuilt = DatasetSession(session.data.copy())
        for got, want in zip(results, rebuilt.run_batch(specs, method="transform")):
            assert np.array_equal(got.indices, want.indices)

    @pytest.mark.parametrize("dims", [2, 3])
    def test_long_stream_fuzz_parity(self, dims):
        # The end-to-end contract: a long mixed stream over one session —
        # arena growth, dead slots, occasional compactions and delta
        # patches all interleaved — answers every query byte-identically
        # to a from-scratch session over the same data.
        rng = np.random.default_rng(31 + dims)
        data = rng.uniform(0, 10, size=(120, dims))
        session = DatasetSession(data, index_kwargs={"capacity": 4})
        specs = random_specs(rng, 3, dims)
        method = "quadtree" if dims == 2 else "cutting"
        session.run_batch(specs, method=method)
        for step in range(8):
            num_deletes = int(rng.integers(0, max(1, session.num_points // 3)))
            deletes = (
                rng.choice(session.num_points, size=num_deletes, replace=False)
                if num_deletes
                else None
            )
            num_inserts = int(rng.integers(0, 15))
            inserts = (
                rng.uniform(0, 10, size=(num_inserts, dims)) if num_inserts else None
            )
            session.apply_updates(inserts=inserts, deletes=deletes)
            if session.num_points == 0:
                break
            rebuilt = DatasetSession(session.data.copy(), index_kwargs={"capacity": 4})
            for got, want in zip(
                session.run_batch(specs, method=method),
                rebuilt.run_batch(specs, method=method),
            ):
                assert np.array_equal(got.indices, want.indices), (dims, step)
