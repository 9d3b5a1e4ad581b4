"""EclipseService behaviour: exact sharded answers, batching, degradation,
validation, and basic fault absorption."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.session import DatasetSession
from repro.core.weights import RatioVector
from repro.data.generators import generate_dataset
from repro.errors import (
    DimensionMismatchError,
    InvalidDatasetError,
    ServiceError,
)
from repro.service import EclipseService, ServiceConfig
from repro.service.supervisor import _QueryWork

FAST = ServiceConfig(
    num_shards=2, backoff_base=0.01, backoff_cap=0.05, snapshot_every=4
)


def _specs(dimensions: int, count: int = 5, seed: int = 0):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        low = float(rng.uniform(0.1, 1.0))
        out.append(
            RatioVector.uniform(low, low + float(rng.uniform(0.2, 2.5)), dimensions)
        )
    return out


def _assert_matches_reference(service, reference, ref_gids, specs):
    """Every service answer must be byte-identical to the reference's."""
    results = service.query_batch(specs)
    for spec, got in zip(specs, results):
        want = reference.run(ratios=spec)
        np.testing.assert_array_equal(ref_gids[want.indices], got.gids)
        assert want.points.tobytes() == got.points.tobytes()


class TestExactShardedAnswers:
    @pytest.mark.parametrize("num_shards", [1, 2, 3])
    def test_queries_match_single_process(self, num_shards):
        data = generate_dataset("ANTI", 240, 3, seed=7)
        config = ServiceConfig(num_shards=num_shards, backoff_base=0.01)
        reference = DatasetSession(data)
        ref_gids = np.arange(data.shape[0], dtype=np.intp)
        with EclipseService(data, config=config) as service:
            _assert_matches_reference(service, reference, ref_gids, _specs(3))
            assert service.stats.queries == 5

    def test_updates_then_queries_match_single_process(self):
        data = generate_dataset("INDE", 200, 3, seed=3)
        reference = DatasetSession(data)
        ref_gids = np.arange(data.shape[0], dtype=np.intp)
        rng = np.random.default_rng(42)
        with EclipseService(data, config=FAST) as service:
            for round_number in range(4):
                inserts = rng.uniform(0.1, 0.9, size=(6, 3))
                positions = np.sort(
                    rng.choice(ref_gids.size, size=4, replace=False)
                )
                ack = service.apply_updates(
                    inserts=inserts, delete_gids=ref_gids[positions]
                )
                assert ack.seq == round_number + 1
                assert ack.rows_deleted == 4
                reference.apply_updates(inserts=inserts, deletes=positions)
                ref_gids = np.concatenate(
                    [np.delete(ref_gids, positions), ack.insert_gids]
                )
                _assert_matches_reference(
                    service, reference, ref_gids, _specs(3, count=3, seed=round_number)
                )
            assert service.acked_seq == 4
            assert service.stats.rows_inserted == 24
            assert service.stats.rows_deleted == 16

    def test_insert_only_and_delete_only_batches(self):
        data = generate_dataset("CORR", 120, 2, seed=1)
        reference = DatasetSession(data)
        ref_gids = np.arange(data.shape[0], dtype=np.intp)
        with EclipseService(data, config=FAST) as service:
            inserts = np.array([[0.2, 0.9], [0.8, 0.1], [0.5, 0.5]])
            ack = service.apply_updates(inserts=inserts)
            reference.apply_updates(inserts=inserts)
            ref_gids = np.concatenate([ref_gids, ack.insert_gids])
            ack = service.apply_updates(delete_gids=ref_gids[:5])
            reference.apply_updates(deletes=np.arange(5))
            ref_gids = ref_gids[5:]
            assert ack.rows_deleted == 5
            _assert_matches_reference(
                service, reference, ref_gids, _specs(2, count=3)
            )


class TestAdmissionBatching:
    def test_window_coalesces_and_counts(self):
        data = generate_dataset("ANTI", 200, 3, seed=5)
        with EclipseService(data, config=FAST) as service:
            # Drive the window path directly (deterministic, no queue races).
            window = [_QueryWork(spec=spec) for spec in _specs(3, count=4)]
            service._do_query_window(window)
            assert service.stats.query_windows == 1
            assert service.stats.coalesced_queries == 4
            assert service.stats.max_window == 4
            reference = DatasetSession(data)
            for work in window:
                assert work.done.is_set()
                want = reference.run(ratios=work.spec)
                np.testing.assert_array_equal(want.indices, work.result.gids)

    def test_concurrent_batch_ends_to_end(self):
        data = generate_dataset("INDE", 200, 3, seed=9)
        reference = DatasetSession(data)
        with EclipseService(data, config=FAST) as service:
            specs = _specs(3, count=8, seed=2)
            results = service.query_batch(specs)
            assert service.stats.queries == 8
            assert service.stats.query_windows <= 8
            for spec, got in zip(specs, results):
                want = reference.run(ratios=spec)
                np.testing.assert_array_equal(want.indices, got.gids)


class TestGracefulDegradation:
    def test_overload_sheds_window_to_transform(self):
        data = generate_dataset("ANTI", 200, 3, seed=6)
        config = ServiceConfig(
            num_shards=2, overload_threshold=2, backoff_base=0.01
        )
        reference = DatasetSession(data)
        with EclipseService(data, config=config) as service:
            window = [_QueryWork(spec=spec) for spec in _specs(3, count=5)]
            service._do_query_window(window)
            assert service.stats.overload_sheds == 1
            assert service.stats.degraded_queries == 5
            for work in window:
                assert work.result.degraded
                assert work.result.method == "transform"
                want = reference.run(ratios=work.spec)
                np.testing.assert_array_equal(want.indices, work.result.gids)

    def test_small_windows_not_shed(self):
        data = generate_dataset("ANTI", 150, 3, seed=6)
        config = ServiceConfig(
            num_shards=2, overload_threshold=4, backoff_base=0.01
        )
        with EclipseService(data, config=config) as service:
            result = service.query(RatioVector.uniform(0.3, 2.0, 3))
            assert not result.degraded
            assert service.stats.overload_sheds == 0


class TestCrashAbsorption:
    def test_killed_worker_is_respawned_and_query_retried(self):
        data = generate_dataset("ANTI", 220, 3, seed=8)
        reference = DatasetSession(data)
        with EclipseService(data, config=FAST) as service:
            service._handles[0].process.kill()
            service._handles[0].process.join(timeout=5.0)
            spec = RatioVector.uniform(0.25, 2.0, 3)
            got = service.query(spec)
            want = reference.run(ratios=spec)
            np.testing.assert_array_equal(want.indices, got.gids)
            assert want.points.tobytes() == got.points.tobytes()
            assert service.stats.retries >= 1
            assert service.stats.worker_respawns >= 1

    def test_killed_worker_recovers_acknowledged_updates(self):
        data = generate_dataset("INDE", 180, 3, seed=4)
        reference = DatasetSession(data)
        ref_gids = np.arange(data.shape[0], dtype=np.intp)
        with EclipseService(data, config=FAST) as service:
            inserts = np.full((4, 3), 0.25)
            ack = service.apply_updates(inserts=inserts, delete_gids=ref_gids[:3])
            reference.apply_updates(inserts=inserts, deletes=np.arange(3))
            ref_gids = np.concatenate([ref_gids[3:], ack.insert_gids])
            for handle in service._handles:
                handle.process.kill()
                handle.process.join(timeout=5.0)
            _assert_matches_reference(
                service, reference, ref_gids, _specs(3, count=3)
            )
            assert service.stats.worker_respawns >= 2

    def test_deadline_exceeded_surfaces_after_bounded_retries(self):
        data = generate_dataset("ANTI", 150, 3, seed=2)
        config = ServiceConfig(
            num_shards=1, max_retries=1, backoff_base=0.001, backoff_cap=0.002
        )
        with EclipseService(data, config=config) as service:
            object.__setattr__(service.config, "deadline", 1e-7)
            with pytest.raises(ServiceError):
                service.query(RatioVector.uniform(0.3, 2.0, 3))
            assert service.stats.deadline_timeouts >= 1
            object.__setattr__(service.config, "deadline", 30.0)


class TestValidationAndLifecycle:
    def test_non_finite_inserts_rejected(self):
        data = generate_dataset("CORR", 80, 2, seed=0)
        with EclipseService(data, config=FAST) as service:
            before = service.acked_seq
            with pytest.raises(InvalidDatasetError):
                service.apply_updates(inserts=np.array([[0.5, np.nan]]))
            with pytest.raises(InvalidDatasetError):
                service.apply_updates(inserts=np.array([[np.inf, 0.5]]))
            # Nothing was enqueued: the service still answers and the
            # sequence number did not advance.
            assert service.acked_seq == before
            assert len(service.query(RatioVector.uniform(0.25, 2.0, 2))) > 0

    def test_dimension_mismatch_rejected(self):
        data = generate_dataset("CORR", 80, 2, seed=0)
        with EclipseService(data, config=FAST) as service:
            with pytest.raises(DimensionMismatchError):
                service.apply_updates(inserts=np.ones((2, 3)))
            with pytest.raises(DimensionMismatchError):
                service.query(RatioVector.uniform(0.25, 2.0, 4))
            with pytest.raises(ServiceError):
                service.apply_updates(delete_gids=np.ones((2, 2), dtype=int))

    def test_non_integer_delete_gids_rejected(self):
        data = generate_dataset("CORR", 80, 2, seed=0)
        with EclipseService(data, config=FAST) as service:
            before = service.acked_seq
            # Cast to intp these would silently delete gids 1 and 3.
            with pytest.raises(ServiceError, match="integers"):
                service.apply_updates(delete_gids=[1.9, 3.2])
            with pytest.raises(ServiceError, match="integers"):
                service.apply_updates(delete_gids=[True, False])
            with pytest.raises(ServiceError):
                service.apply_updates(delete_gids=["a"])
            assert service.acked_seq == before
            # Empty input of any dtype is still a valid (empty) delete list.
            ack = service.apply_updates(delete_gids=np.array([], dtype=float))
            assert ack.rows_deleted == 0

    def test_non_numeric_inserts_rejected(self):
        data = generate_dataset("CORR", 80, 2, seed=0)
        with EclipseService(data, config=FAST) as service:
            with pytest.raises(InvalidDatasetError):
                service.apply_updates(inserts=[["a", "b"]])

    def test_bad_shard_count_rejected(self):
        with pytest.raises(ServiceError):
            EclipseService(np.ones((4, 2)), config=ServiceConfig(num_shards=0))

    def test_ping_and_force_snapshot(self, tmp_path):
        data = generate_dataset("INDE", 100, 2, seed=1)
        with EclipseService(
            data, config=FAST, snapshot_dir=str(tmp_path)
        ) as service:
            health = service.ping()
            assert len(health) == 2
            assert {h["shard"] for h in health} == {0, 1}
            assert all(h["last_seq"] == 0 for h in health)
            reports = service.force_snapshot()
            assert service.stats.snapshots_taken == 2
            for shard, report in enumerate(reports):
                assert report["bytes"] > 0
                assert (tmp_path / f"shard-{shard}.snapshot").exists()

    def test_close_is_idempotent_and_final(self):
        data = generate_dataset("CORR", 60, 2, seed=0)
        service = EclipseService(data, config=FAST)
        assert len(service.query(RatioVector.uniform(0.25, 2.0, 2))) > 0
        service.close()
        service.close()
        with pytest.raises(ServiceError):
            service.query(RatioVector.uniform(0.25, 2.0, 2))


class TestProcessBackendShards:
    """PR 9 regression: the process kernel backend composes with the service.

    Shard workers are themselves pool processes; their post-fork hook must
    drop the parent's executor pools and *forget* (never unlink) the
    parent's shared segments, and nested kernel dispatch inside a shard
    resolves to the exact serial path — so a ``kernel_backend="process"``
    service answers byte-identically and leaks nothing into ``/dev/shm``.
    """

    def test_process_backend_shards_match_single_process(self):
        import os as _os

        from repro.perf import shm

        data = generate_dataset("ANTI", 240, 3, seed=17)
        config = ServiceConfig(
            num_shards=2,
            backoff_base=0.01,
            backoff_cap=0.05,
            snapshot_every=4,
            kernel_backend="process",
            threads=2,
        )
        reference = DatasetSession(data)
        ref_gids = np.arange(data.shape[0], dtype=np.intp)
        with EclipseService(data, config=config) as service:
            _assert_matches_reference(service, reference, ref_gids, _specs(3))
            inserts = np.random.default_rng(18).uniform(0.1, 0.9, size=(6, 3))
            ack = service.apply_updates(inserts=inserts, delete_gids=ref_gids[:4])
            reference.apply_updates(inserts=inserts, deletes=np.arange(4))
            ref_gids = np.concatenate([ref_gids[4:], ack.insert_gids])
            _assert_matches_reference(
                service, reference, ref_gids, _specs(3, count=3, seed=19)
            )
        shm.reset_global_pool()
        leftovers = [
            f
            for f in _os.listdir("/dev/shm")
            if f.startswith(shm.SEGMENT_PREFIX)
        ]
        assert leftovers == []

    def test_shard_fork_resets_executor_pools_and_segment_registry(self):
        # The supervisor forks shard workers *after* the dispatching process
        # may have touched pools and shared segments.  Simulate that order
        # directly: warm the parent's pool registry, then verify the
        # post-fork hook leaves a child with empty caches and a segment
        # registry that forgets (but does not unlink) the parent's segment.
        import os as _os

        from repro.perf import executor, shm

        pool = shm.global_pool()
        lease = pool.acquire(4096)
        name = lease.name
        pool.release(lease)
        assert pool.total_bytes > 0
        pid = _os.fork()
        if pid == 0:  # child
            status = 0
            try:
                child_pool = shm.global_pool()
                assert child_pool.total_bytes == 0
                assert executor._POOLS == {}
                assert executor._PROCESS_POOLS == {}
                assert name in _os.listdir("/dev/shm")
            except BaseException:
                status = 1
            finally:
                _os._exit(status)
        _, exit_status = _os.waitpid(pid, 0)
        assert _os.waitstatus_to_exitcode(exit_status) == 0
        # The parent's registry survived the fork untouched.
        assert name in pool.segment_names()
        shm.reset_global_pool()
        assert name not in _os.listdir("/dev/shm")

    def test_fault_injection_with_process_backend(self):
        from repro.service.faults import FaultPlan, run_fault_injection

        config = ServiceConfig(
            num_shards=2,
            backoff_base=0.01,
            backoff_cap=0.05,
            snapshot_every=4,
            kernel_backend="process",
        )
        plan = FaultPlan(kill_every=6, drop_response_rate=0.1, seed=3)
        report = run_fault_injection(
            n=400,
            steps=16,
            update_fraction=0.3,
            batch=3,
            update_size=8,
            plan=plan,
            config=config,
            seed=3,
            verify=True,
        )
        assert report.ok
        assert report.mismatches == 0
        assert report.queries > 0 and report.update_batches > 0


class TestCloseRobustness:
    """``close()`` must be safe to call twice, after worker death, after a
    dispatcher crash, and on a service whose constructor failed."""

    def test_double_close_is_idempotent(self):
        data = generate_dataset("INDE", 120, 3, seed=1)
        service = EclipseService(data, config=FAST)
        service.close()
        service.close()

    def test_use_after_close_raises_cleanly(self):
        data = generate_dataset("INDE", 120, 3, seed=2)
        service = EclipseService(data, config=FAST)
        service.close()
        with pytest.raises(ServiceError):
            service.query(RatioVector.uniform(0.5, 2.0, 3))
        with pytest.raises(ServiceError):
            service.apply_updates(inserts=np.ones((1, 3)))

    def test_close_after_all_workers_killed(self):
        data = generate_dataset("INDE", 150, 3, seed=3)
        service = EclipseService(data, config=FAST)
        for handle in service._handles:
            handle.kill()
        service.close()
        service.close()

    @pytest.mark.filterwarnings(
        "ignore::pytest.PytestUnhandledThreadExceptionWarning"
    )
    def test_close_after_dispatcher_crash(self):
        import time

        data = generate_dataset("INDE", 150, 3, seed=4)
        service = EclipseService(data, config=FAST)
        # A foreign object in the work queue crashes the dispatcher
        # thread (its error handler cannot mark it done).  close() must
        # still tear everything down without hanging or raising.
        service._queue.put(object())
        deadline = time.monotonic() + 5.0
        while service._dispatcher.is_alive() and time.monotonic() < deadline:
            time.sleep(0.01)
        assert not service._dispatcher.is_alive()
        service.close()
        service.close()

    def test_constructor_failure_leaves_no_live_workers(self, monkeypatch):
        data = generate_dataset("INDE", 120, 3, seed=5)
        original = EclipseService._spawn
        calls = {"n": 0}

        def flaky(self, shard, **kwargs):
            calls["n"] += 1
            if calls["n"] >= 2:
                raise ServiceError("injected spawn failure")
            return original(self, shard, **kwargs)

        monkeypatch.setattr(EclipseService, "_spawn", flaky)
        with pytest.raises(ServiceError, match="injected spawn failure"):
            EclipseService(data, config=FAST)

    def test_recover_requires_snapshot_dir(self):
        data = generate_dataset("INDE", 120, 3, seed=6)
        with pytest.raises(ServiceError, match="snapshot"):
            EclipseService(data, config=FAST, recover=True)


class TestSupervisorRecovery:
    """``recover=True`` rebuilds supervisor state (sequence counter,
    global-id allocator, client-acknowledgement cache) from the WALs of a
    dead process and repairs lagging shards."""

    def test_recover_restores_seq_gids_and_acks(self, tmp_path):
        data = generate_dataset("ANTI", 200, 3, seed=7)
        rng = np.random.default_rng(8)
        inserts = np.abs(rng.normal(size=(5, 3))) + 0.05
        spec = RatioVector.uniform(0.2, 2.2, 3)
        with EclipseService(
            data, config=FAST, snapshot_dir=str(tmp_path)
        ) as service:
            ack = service.apply_updates(
                inserts=inserts, client_key=("c1", 1)
            )
            before = service.query(spec)
        # A brand-new process over the same WAL directory: recovery must
        # restore the sequence, keep answers identical, dedup the client
        # resend, and hand out fresh (non-colliding) global ids.
        with EclipseService(
            data, config=FAST, snapshot_dir=str(tmp_path), recover=True
        ) as recovered:
            assert recovered.acked_seq == ack.seq
            assert recovered.stats.supervisor_recoveries == 1
            after = recovered.query(spec)
            np.testing.assert_array_equal(before.gids, after.gids)
            assert before.points.tobytes() == after.points.tobytes()
            replay = recovered.apply_updates(
                inserts=inserts, client_key=("c1", 1)
            )
            assert replay.seq == ack.seq
            np.testing.assert_array_equal(
                replay.insert_gids, ack.insert_gids
            )
            assert recovered.stats.client_ack_replays == 1
            fresh = recovered.apply_updates(
                inserts=inserts, client_key=("c1", 2)
            )
            assert fresh.seq == ack.seq + 1
            assert not np.intersect1d(
                fresh.insert_gids, ack.insert_gids
            ).size

    def test_recover_on_empty_dir_is_a_fresh_start(self, tmp_path):
        data = generate_dataset("INDE", 150, 3, seed=9)
        with EclipseService(
            data, config=FAST, snapshot_dir=str(tmp_path), recover=True
        ) as service:
            assert service.acked_seq == 0
            assert service.query(RatioVector.uniform(0.4, 2.0, 3)).gids.size

    def test_deadline_argument_validated(self):
        data = generate_dataset("INDE", 120, 3, seed=10)
        with EclipseService(data, config=FAST) as service:
            with pytest.raises(ServiceError):
                service.query(RatioVector.uniform(0.4, 2.0, 3), deadline=0)
            with pytest.raises(ServiceError):
                service.query_batch(
                    [RatioVector.uniform(0.4, 2.0, 3)], deadline=-1.0
                )
            assert service.query(
                RatioVector.uniform(0.4, 2.0, 3), deadline=30.0
            ).gids is not None
