"""The service supervisor: sharding, admission batching, fault tolerance.

:class:`EclipseService` serves eclipse queries and dataset updates from a
pool of shard worker processes (:mod:`repro.service.worker`), each holding
a long-lived :class:`~repro.core.session.DatasetSession` over one shard of
the data.  Rows are addressed by **global ids** assigned once and never
reused; a row with global id ``g`` lives on shard ``g % num_shards``, so
routing is stateless and a recovered worker reconstructs exactly the same
assignment.

**Admission batching.**  All client calls enqueue work on one FIFO queue
drained by a single dispatcher thread.  The dispatcher coalesces every
consecutively queued query into one *window* and answers the whole window
with one ``run_batch`` round-trip per shard — concurrently arriving queries
share one skyline / corner GEMM / index probe per shard, which is exactly
the amortisation :meth:`DatasetSession.run_batch` provides (the batch
break-even is single-digit).  Updates act as barriers: every query admitted
before an update batch is answered against the pre-update view, pinned by
the acknowledged sequence number (workers refuse to answer a query at any
other sequence number, so a torn or stale view is never served).

**Exact sharded answers.**  Each shard returns its *shard-local* eclipse
(global ids + points).  Eclipse dominance in corner-score space is
transitive, so the union of per-shard eclipses is a superset of the global
eclipse that contains every global maximal element; one final exact filter
over the merged candidates (the transformation, with the baseline fallback
when the ratio range makes it inapplicable) reproduces the single-process
answer byte for byte.

**Fault tolerance.**  Every worker round-trip carries a deadline; a missed
deadline, broken pipe, dead process, or stale view is retried with bounded
exponential backoff plus jitter after the worker is respawned from its
latest snapshot and write-ahead-log tail.  Updates are WAL-first and keyed
by sequence number, so a retried batch is never double-applied.  Under
overload (window longer than ``overload_threshold``) or repeated
index-path failure the window is shed to the transform path — degraded
throughput, identical answers — and the degradation is surfaced in
:class:`ServiceStats`.
"""

from __future__ import annotations

import itertools
import logging
import multiprocessing
import os
import queue
import shutil
import tempfile
import threading
import time
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.baseline import eclipse_baseline_indices
from repro.core.dominance import as_dataset
from repro.core.transform import eclipse_transform_indices
from repro.core.weights import RatioVector, make_ratio_vector
from repro.errors import (
    DeadlineExceededError,
    DimensionMismatchError,
    InvalidWeightRangeError,
    ServiceError,
    WorkerCrashError,
)
from repro.service.worker import worker_main
from repro.skyline.incremental import integer_positions

logger = logging.getLogger(__name__)

# Workers are forked where possible: the shard base data is inherited
# copy-on-write instead of being re-pickled through a spawn, which keeps
# respawn — the hot path of crash recovery — cheap.
if "fork" in multiprocessing.get_all_start_methods():
    _MP = multiprocessing.get_context("fork")
else:  # pragma: no cover - non-POSIX fallback
    _MP = multiprocessing.get_context()


@dataclass(frozen=True)
class ServiceConfig:
    """Knobs of the concurrent query service.

    Attributes
    ----------
    num_shards:
        Worker processes the dataset is partitioned across.
    deadline:
        Per-request round-trip budget in seconds.  A worker that does not
        answer within it is presumed hung, killed, and respawned.
    max_retries:
        Retries per request after the first attempt; each retry respawns
        the worker (when it died) and backs off exponentially.
    backoff_base, backoff_cap, backoff_jitter:
        Retry sleep = ``min(cap, base * 2**(attempt-1))`` scaled by a
        uniform ``1 ± jitter`` factor (seeded, so runs are reproducible).
    snapshot_every:
        Update batches a worker absorbs between automatic snapshots.  The
        WAL keeps the full history, so any retained snapshot (or none at
        all) suffices for recovery; this knob only tunes the warm-restart
        replay tail.
    overload_threshold:
        Admission-window length above which the window is shed to the
        transform path (identical answers, no index dependency).  ``0``
        disables shedding.
    method:
        Default query method handed to each shard's ``run_batch``.
    seed:
        Seed of the jitter RNG.
    threads:
        Kernel-executor worker threads *inside each shard worker*
        (:class:`~repro.core.session.DatasetSession`'s ``threads`` knob).
        ``None`` defers to the worker's ``REPRO_KERNEL_THREADS``
        environment.  Note the multiplication: ``num_shards`` processes
        each run up to ``threads`` kernel threads.
    dtype:
        Kernel compute dtype for each shard (``"float64"`` exact, or the
        ``"float32"`` fast path with exact fallback — byte-identical
        answers either way).
    kernel_backend:
        Kernel dispatch backend inside each shard worker (``"thread"``,
        ``"process"``, or ``"serial"``; ``None`` defers to the worker's
        ``REPRO_KERNEL_BACKEND`` environment).  Shard workers are
        themselves pool processes, so a ``"process"`` shard resolves
        nested kernel dispatch to the exact serial path rather than
        forking grandchildren — the knob is harmless there and useful
        when ``num_shards=1`` concentrates the kernels in one worker.
    index_budget_bytes:
        Resident byte budget of each shard session's index cache (the
        :class:`~repro.perf.advisor.IndexAdvisor` knob).  ``None`` defers
        to the worker's ``REPRO_INDEX_BUDGET_MB`` environment (unset =
        unbounded).  Re-applied after every snapshot load, so the
        service's configuration wins over the snapshot-era value.
    """

    num_shards: int = 2
    deadline: float = 30.0
    max_retries: int = 3
    backoff_base: float = 0.05
    backoff_cap: float = 1.0
    backoff_jitter: float = 0.25
    snapshot_every: int = 8
    overload_threshold: int = 0
    method: str = "auto"
    seed: int = 0
    threads: Optional[int] = None
    dtype: Optional[str] = None
    kernel_backend: Optional[str] = None
    index_budget_bytes: Optional[int] = None


@dataclass
class ServiceStats:
    """Service-level observability counters (the ``SessionStats`` analogue).

    The fault-tolerance contract rides on these: ``retries`` /
    ``worker_respawns`` / ``deadline_timeouts`` / ``dropped_responses``
    count the failures absorbed without surfacing to callers,
    ``warm_restarts`` vs ``cold_rebuilds`` split recoveries by whether the
    snapshot was usable (``snapshot_failures`` counts the corrupt /
    truncated / version-mismatched ones that demoted a recovery to cold),
    and ``degraded_windows`` / ``overload_sheds`` surface every window
    answered on the transform path instead of the configured method.
    """

    queries: int = 0
    query_windows: int = 0
    coalesced_queries: int = 0
    max_window: int = 0
    update_batches: int = 0
    rows_inserted: int = 0
    rows_deleted: int = 0
    retries: int = 0
    deadline_timeouts: int = 0
    dropped_responses: int = 0
    injected_kills: int = 0
    worker_respawns: int = 0
    fresh_starts: int = 0
    warm_restarts: int = 0
    cold_rebuilds: int = 0
    snapshot_failures: int = 0
    wal_records_replayed: int = 0
    snapshots_taken: int = 0
    degraded_windows: int = 0
    degraded_queries: int = 0
    overload_sheds: int = 0
    client_ack_replays: int = 0
    repair_redeliveries: int = 0
    supervisor_recoveries: int = 0

    def as_dict(self) -> Dict[str, int]:
        """Plain-dict view (stable keys; handy for JSON reports)."""
        return asdict(self)


@dataclass(frozen=True)
class ServiceResult:
    """Answer of one service query.

    ``gids`` are stable global row ids (ascending); ``points`` are the
    matching coordinate rows, byte-identical to what a single-process
    session answers for the same logical dataset state.  ``seq`` is the
    acknowledged update sequence number the answer is pinned to.
    """

    gids: np.ndarray
    points: np.ndarray
    method: str
    seq: int
    degraded: bool = False

    def __len__(self) -> int:
        return int(self.gids.size)


@dataclass(frozen=True)
class UpdateAck:
    """Acknowledgement of one durable update batch."""

    seq: int
    insert_gids: np.ndarray
    rows_deleted: int


class _NullInjector:
    """No-fault default injector (see :mod:`repro.service.faults`)."""

    def on_update(self, seq: int, num_shards: int):
        return None, None

    def drop_response(self, shard: int) -> bool:
        return False

    def response_delay(self) -> float:
        return 0.0

    def before_respawn(self, shard: int, snapshot_path: str) -> None:
        return None


class _DroppedResponseError(WorkerCrashError):
    """Internal: an injected response drop (worker itself is healthy)."""


class _IndexPathError(ServiceError):
    """Internal: a shard answered with an execution error response."""


@dataclass
class _QueryWork:
    spec: RatioVector
    deadline: Optional[float] = None
    done: threading.Event = field(default_factory=threading.Event)
    result: Optional[ServiceResult] = None
    error: Optional[BaseException] = None


@dataclass
class _UpdateWork:
    insert_points: np.ndarray
    delete_gids: np.ndarray
    client_key: Optional[Tuple[str, int]] = None
    deadline: Optional[float] = None
    done: threading.Event = field(default_factory=threading.Event)
    result: Optional[UpdateAck] = None
    error: Optional[BaseException] = None


@dataclass
class _ControlWork:
    kind: str  # "snapshot" | "ping"
    done: threading.Event = field(default_factory=threading.Event)
    result: Optional[List[dict]] = None
    error: Optional[BaseException] = None


_STOP = object()


class _WorkerHandle:
    """Supervisor-side record of one live shard worker."""

    def __init__(self, shard: int, process, conn):
        self.shard = shard
        self.process = process
        self.conn = conn

    def kill(self) -> None:
        try:
            if self.process.is_alive():
                self.process.kill()
            self.process.join(timeout=5.0)
        finally:
            try:
                self.conn.close()
            except OSError:
                pass


class EclipseService:
    """Fault-tolerant sharded query/update service (see module docstring).

    Parameters
    ----------
    points:
        Initial dataset of shape ``(n, d)``; row ``i`` receives global id
        ``i`` (so the initial ids coincide with single-process positions).
    config:
        :class:`ServiceConfig`; defaults are test-friendly.
    snapshot_dir:
        Directory for per-shard snapshots and write-ahead logs.  ``None``
        creates (and owns, and removes on close) a temporary directory.
    injector:
        A :class:`~repro.service.faults.FaultInjector` for deterministic
        fault injection; ``None`` injects nothing.
    index_kwargs:
        Forwarded to each shard's :class:`DatasetSession`.
    recover:
        Resume a previous service incarnation from ``snapshot_dir``: after
        the workers warm-restart from their snapshots and write-ahead
        logs, the supervisor rebuilds its *own* state from the same logs —
        the acknowledged sequence number, the next free global id, and the
        client idempotency table — and redelivers any update batch that
        reached some shards' logs but not others before the previous
        process died (a SIGKILL can tear a batch across shards; the
        repair converges every shard to the highest logged sequence).
        ``points`` must be the same base dataset the original service was
        created with (the logs hold only the deltas for cold rebuilds).
    """

    # Class-level defaults keep ``close()`` a safe no-op on an instance
    # whose ``__init__`` never ran (or died before these were assigned).
    _closed = True
    _queue = None
    _dispatcher = None
    _owns_dir = False
    _dir: Optional[str] = None
    _handles: List[Optional[_WorkerHandle]] = []

    def __init__(
        self,
        points,
        config: Optional[ServiceConfig] = None,
        snapshot_dir: Optional[str] = None,
        injector=None,
        index_kwargs: Optional[Dict[str, object]] = None,
        recover: bool = False,
    ):
        self.config = config or ServiceConfig()
        if self.config.num_shards < 1:
            raise ServiceError(
                f"num_shards must be >= 1, got {self.config.num_shards}"
            )
        if recover and snapshot_dir is None:
            raise ServiceError(
                "recover=True needs the snapshot_dir of the previous "
                "incarnation (a fresh temporary directory has no state)"
            )
        data = as_dataset(points)
        self._dims = int(data.shape[1])
        self._injector = injector if injector is not None else _NullInjector()
        self._rng = np.random.default_rng(self.config.seed)
        self._owns_dir = snapshot_dir is None
        self._dir = (
            tempfile.mkdtemp(prefix="repro-service-")
            if snapshot_dir is None
            else str(snapshot_dir)
        )
        os.makedirs(self._dir, exist_ok=True)
        self._index_kwargs = dict(index_kwargs or {})
        self._session_kwargs = {
            "threads": self.config.threads,
            "dtype": self.config.dtype,
            "backend": self.config.kernel_backend,
            "index_budget_bytes": self.config.index_budget_bytes,
        }
        num_shards = self.config.num_shards
        n = int(data.shape[0])
        # Shard s holds global ids s, s + S, s + 2S, ... in ascending order;
        # the base arrays stay resident for the service's lifetime so a
        # worker whose snapshot is unusable can always be rebuilt cold.
        self._base_data = [
            np.ascontiguousarray(data[s::num_shards]) for s in range(num_shards)
        ]
        self._base_gids = [
            np.arange(s, n, num_shards, dtype=np.intp) for s in range(num_shards)
        ]
        self._next_gid = n
        self._seq = 0
        self._req_ids = itertools.count(1)
        self.stats = ServiceStats()
        self._client_acks: Dict[Tuple[str, int], UpdateAck] = {}
        self._ready_info: List[dict] = [{} for _ in range(num_shards)]
        self._handles = [None] * num_shards
        self._closed = False
        try:
            for shard in range(num_shards):
                self._handles[shard] = self._spawn(shard)
            if recover:
                self._recover_supervisor(n)
        except BaseException:
            # A failed spawn/recovery must not leak earlier workers (or
            # the owned scratch directory).
            self.close()
            raise
        self._queue = queue.Queue()
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="eclipse-service-dispatcher",
            daemon=True,
        )
        self._dispatcher.start()

    # ------------------------------------------------------------------
    # Public API (thread-safe: every call enqueues onto the dispatcher)
    # ------------------------------------------------------------------
    def __enter__(self) -> "EclipseService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    @property
    def num_shards(self) -> int:
        return self.config.num_shards

    @property
    def acked_seq(self) -> int:
        """Sequence number of the last fully acknowledged update batch."""
        return self._seq

    def query(self, ratios, deadline: Optional[float] = None) -> ServiceResult:
        """Answer one eclipse query (blocking; coalesced with concurrent ones).

        ``deadline`` overrides :attr:`ServiceConfig.deadline` for this
        request only (the network front end propagates per-request client
        deadlines through it).
        """
        return self.query_batch([ratios], deadline=deadline)[0]

    def query_batch(
        self, ratio_specs: Sequence, deadline: Optional[float] = None
    ) -> List[ServiceResult]:
        """Submit many queries at once; they coalesce into one window."""
        deadline = self._resolve_deadline(deadline)
        works = [
            _QueryWork(spec=self._resolve_spec(spec), deadline=deadline)
            for spec in ratio_specs
        ]
        for work in works:
            self._submit(work)
        return [self._await(work) for work in works]

    def apply_updates(
        self,
        inserts=None,
        delete_gids=None,
        client_key: Optional[Tuple[str, int]] = None,
        deadline: Optional[float] = None,
    ) -> UpdateAck:
        """Durably apply one update batch; returns once every shard acked.

        ``inserts`` is a ``(b, d)`` array (global ids are assigned in order
        and returned in the ack); ``delete_gids`` names rows by global id.
        Validation is strict — non-finite coordinates and dimension
        mismatches raise before anything is enqueued.

        ``client_key`` is an optional ``(client_id, client_seq)`` pair that
        makes the batch **exactly-once across redelivery and restarts**: a
        batch whose key was already acknowledged is answered with the
        recorded acknowledgement instead of being reapplied.  The key rides
        inside every shard's fsynced write-ahead-log record, so the
        idempotency table survives a crash of this process and is rebuilt
        by ``recover=True`` (a resend after a dropped acknowledgement is a
        no-op even against the restarted service).  ``deadline`` overrides
        the configured per-request deadline for this batch.
        """
        if inserts is None:
            insert_points = np.empty((0, self._dims), dtype=float)
        else:
            insert_points = as_dataset(inserts)
            if insert_points.shape[0] and insert_points.shape[1] != self._dims:
                raise DimensionMismatchError(
                    f"inserted points have d={insert_points.shape[1]}, "
                    f"service datasets have d={self._dims}"
                )
        deletes = integer_positions(delete_gids, "delete_gids", ServiceError)
        if client_key is not None:
            client_key = (str(client_key[0]), int(client_key[1]))
        work = _UpdateWork(
            insert_points=insert_points,
            delete_gids=deletes,
            client_key=client_key,
            deadline=self._resolve_deadline(deadline),
        )
        self._submit(work)
        return self._await(work)

    def force_snapshot(self) -> List[dict]:
        """Snapshot every shard now (serialized with in-flight updates)."""
        work = _ControlWork(kind="snapshot")
        self._submit(work)
        return self._await(work)

    def ping(self) -> List[dict]:
        """Heartbeat every shard; returns per-shard health payloads."""
        work = _ControlWork(kind="ping")
        self._submit(work)
        return self._await(work)

    def close(self) -> None:
        """Stop the dispatcher and every worker; remove owned scratch dirs.

        Idempotent and defensive by contract: a second call is a no-op, and
        a close on a half-dead service — dispatcher crashed, workers killed
        externally, pipes already broken, ``__init__`` aborted partway —
        still tears down whatever exists without raising.
        """
        if self._closed:
            return
        self._closed = True
        if self._queue is not None:
            self._queue.put(_STOP)
        if self._dispatcher is not None:
            try:
                self._dispatcher.join(timeout=30.0)
            except RuntimeError:  # never-started thread
                pass
        for handle in self._handles:
            if handle is None:
                continue
            try:
                handle.conn.send(("stop", 0))
                if handle.conn.poll(1.0):
                    handle.conn.recv()
            except Exception:
                # A dead worker / closed pipe is exactly what close() must
                # absorb; the kill below is the authoritative teardown.
                pass
            try:
                handle.kill()
            except Exception:  # pragma: no cover - kill itself is defensive
                logger.warning(
                    "shard %d worker did not tear down cleanly", handle.shard,
                    exc_info=True,
                )
        self._handles = [None] * len(self._handles)
        if self._owns_dir and self._dir:
            shutil.rmtree(self._dir, ignore_errors=True)

    # ------------------------------------------------------------------
    # Dispatcher
    # ------------------------------------------------------------------
    def _submit(self, work) -> None:
        if self._closed:
            raise ServiceError("the service is closed")
        self._queue.put(work)

    def _await(self, work):
        work.done.wait()
        if work.error is not None:
            raise work.error
        return work.result

    def _dispatch_loop(self) -> None:
        while True:
            item = self._queue.get()
            if item is _STOP:
                return
            if isinstance(item, _QueryWork):
                window = [item]
                stashed = None
                while True:
                    try:
                        nxt = self._queue.get_nowait()
                    except queue.Empty:
                        break
                    if isinstance(nxt, _QueryWork):
                        window.append(nxt)
                        continue
                    stashed = nxt
                    break
                self._run_safely(self._do_query_window, window)
                if stashed is _STOP:
                    return
                if stashed is not None:
                    self._run_safely(self._do_barrier, stashed)
            else:
                self._run_safely(self._do_barrier, item)

    def _run_safely(self, fn, item) -> None:
        try:
            fn(item)
        except BaseException as exc:  # surfaced to the waiting caller(s)
            works = item if isinstance(item, list) else [item]
            for work in works:
                if not work.done.is_set():
                    work.error = exc
                    work.done.set()

    def _do_barrier(self, item) -> None:
        if isinstance(item, _UpdateWork):
            self._do_update(item)
        elif isinstance(item, _ControlWork):
            self._do_control(item)
        else:  # pragma: no cover - queue only ever holds the three kinds
            raise ServiceError(f"unknown work item {item!r}")

    # ------------------------------------------------------------------
    # Query windows
    # ------------------------------------------------------------------
    def _do_query_window(self, window: List[_QueryWork]) -> None:
        self.stats.query_windows += 1
        self.stats.max_window = max(self.stats.max_window, len(window))
        if len(window) > 1:
            self.stats.coalesced_queries += len(window)
        specs = [work.spec for work in window]
        # A coalesced window answers every member in one shard round-trip,
        # so the tightest member deadline bounds the whole round.
        deadlines = [w.deadline for w in window if w.deadline is not None]
        deadline = min(deadlines) if deadlines else None
        method = self.config.method
        degraded = False
        if (
            self.config.overload_threshold
            and len(window) > self.config.overload_threshold
        ):
            # Overload shedding: the transform path needs no index build
            # and degrades gracefully (identical answers, bounded memory).
            method = "transform"
            degraded = True
            self.stats.overload_sheds += 1
        expected = self._seq
        try:
            payloads = self._query_all_shards(specs, method, expected, deadline)
        except _IndexPathError as exc:
            if method == "transform":
                raise ServiceError(
                    f"query failed even on the transform path: {exc}"
                ) from exc
            # Index-path failure (e.g. a degenerate build the shard cannot
            # plan around for a pinned method): degrade the window.
            logger.warning(
                "query window degraded to the transform path: %s", exc
            )
            method = "transform"
            degraded = True
            self.stats.degraded_windows += 1
            payloads = self._query_all_shards(specs, method, expected, deadline)
        if degraded:
            self.stats.degraded_queries += len(window)
        for position, work in enumerate(window):
            gid_parts = [p["results"][position][0] for p in payloads]
            point_parts = [p["results"][position][1] for p in payloads]
            gids, points = self._merge_candidates(
                gid_parts, point_parts, work.spec
            )
            self.stats.queries += 1
            work.result = ServiceResult(
                gids=gids,
                points=points,
                method=method,
                seq=expected,
                degraded=degraded,
            )
            work.done.set()

    def _query_all_shards(
        self,
        specs: List[RatioVector],
        method: str,
        expected: int,
        deadline: Optional[float] = None,
    ) -> List[dict]:
        """One fan-out round plus per-shard retries; returns per-shard payloads."""
        num_shards = self.config.num_shards
        payloads: List[Optional[dict]] = [None] * num_shards
        pending: List[Tuple[int, int]] = []  # (shard, req_id)
        failed: List[int] = []
        # Optimistic parallel round: send to every shard first so the
        # workers compute concurrently, then collect.
        for shard in range(num_shards):
            req_id = next(self._req_ids)
            try:
                self._handles[shard].conn.send(
                    ("query", req_id, specs, method, expected)
                )
                pending.append((shard, req_id))
            except (OSError, BrokenPipeError):
                failed.append(shard)
        for shard, req_id in pending:
            try:
                payloads[shard] = self._collect(shard, req_id, "query", deadline)
            except (WorkerCrashError, DeadlineExceededError):
                failed.append(shard)
        # Sequential recovery round for whatever failed.
        for shard in failed:
            payloads[shard] = self._request_with_retries(
                shard,
                lambda req_id: ("query", req_id, specs, method, expected),
                kind="query",
                already_failed=True,
                deadline=deadline,
            )
        return payloads  # type: ignore[return-value]

    def _merge_candidates(
        self,
        gid_parts: List[np.ndarray],
        point_parts: List[np.ndarray],
        spec: RatioVector,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Exact merge of per-shard eclipse candidates (see module docstring)."""
        gids = np.concatenate(
            [np.asarray(g, dtype=np.intp) for g in gid_parts]
        )
        if gids.size == 0:
            return gids, np.empty((0, self._dims), dtype=float)
        points = np.vstack([np.asarray(p, dtype=float) for p in point_parts])
        order = np.argsort(gids)  # global ids are unique across shards
        gids = gids[order]
        points = points[order]
        if gids.size > 1:
            try:
                local = eclipse_transform_indices(points, spec)
            except InvalidWeightRangeError:
                local = eclipse_baseline_indices(points, spec)
            local = np.sort(np.asarray(local, dtype=np.intp))
            gids = gids[local]
            points = points[local]
        return gids, points

    # ------------------------------------------------------------------
    # Updates (barriers)
    # ------------------------------------------------------------------
    def _do_update(self, work: _UpdateWork) -> None:
        num_shards = self.config.num_shards
        if work.client_key is not None and work.client_key in self._client_acks:
            # Exactly-once redelivery: the batch was already acknowledged
            # (this incarnation or, via recover=True, a previous one) —
            # replay the recorded ack instead of reapplying.
            self.stats.client_ack_replays += 1
            work.result = self._client_acks[work.client_key]
            work.done.set()
            return
        seq = self._seq + 1
        inserts = work.insert_points
        count = int(inserts.shape[0])
        insert_gids = np.arange(
            self._next_gid, self._next_gid + count, dtype=np.intp
        )
        kill_shard, die_mode = self._injector.on_update(seq, num_shards)
        rows_deleted = 0
        for shard in range(num_shards):
            mask = (insert_gids % num_shards) == shard
            record = {
                "seq": seq,
                "insert_points": inserts[mask],
                "insert_gids": insert_gids[mask],
                "delete_gids": work.delete_gids,
                # The full (unmasked) batch plus the client key ride in
                # every shard's fsynced WAL record: recover=True rebuilds
                # the idempotency table from them and can re-mask the
                # batch for a shard whose own log never received it.
                "all_insert_points": inserts,
                "all_insert_gids": insert_gids,
                "client": work.client_key,
            }
            die = die_mode if (shard == kill_shard and die_mode != "kill") else None
            kill_after_send = shard == kill_shard and die_mode == "kill"
            payload = self._update_one_shard(
                shard, record, die, kill_after_send, work.deadline
            )
            if payload.get("applied"):
                rows_deleted += int(payload.get("num_deleted", 0))
        # Commit only after every shard acknowledged.
        self._seq = seq
        self._next_gid += count
        self.stats.update_batches += 1
        self.stats.rows_inserted += count
        self.stats.rows_deleted += rows_deleted
        work.result = UpdateAck(
            seq=seq, insert_gids=insert_gids, rows_deleted=rows_deleted
        )
        if work.client_key is not None:
            self._client_acks[work.client_key] = work.result
        work.done.set()

    def _update_one_shard(
        self,
        shard: int,
        record: dict,
        die: Optional[str],
        kill_after_send: bool,
        deadline: Optional[float] = None,
    ) -> dict:
        """Deliver one update record to one shard, retrying until acked.

        The first attempt carries the injected fault (worker-side ``die``
        mode, or a supervisor-side SIGKILL right after the send — the
        "kill a worker mid-batch" case); retries are clean.  Idempotency
        is the worker's: a redelivered sequence number is acked without
        being reapplied.
        """
        req_id = next(self._req_ids)
        first_error: Optional[BaseException] = None
        try:
            self._handles[shard].conn.send(("update", req_id, record, die))
            if kill_after_send:
                self.stats.injected_kills += 1
                self._handles[shard].process.kill()
            response = self._collect(shard, req_id, "update", deadline)
            return response
        except (WorkerCrashError, DeadlineExceededError) as exc:
            first_error = exc
        return self._request_with_retries(
            shard,
            lambda rid: ("update", rid, record, None),
            kind="update",
            already_failed=True,
            cause=first_error,
            deadline=deadline,
        )

    # ------------------------------------------------------------------
    # Control barriers
    # ------------------------------------------------------------------
    def _do_control(self, work: _ControlWork) -> None:
        kind = work.kind
        results = []
        for shard in range(self.config.num_shards):
            payload = self._request_with_retries(
                shard, lambda rid: (kind, rid), kind=kind
            )
            results.append(payload)
        if kind == "snapshot":
            self.stats.snapshots_taken += len(results)
        work.result = results
        work.done.set()

    # ------------------------------------------------------------------
    # Transport, deadlines, retries, respawn
    # ------------------------------------------------------------------
    def _resolve_deadline(self, deadline: Optional[float]) -> Optional[float]:
        """Validate a per-request deadline override (``None`` = configured)."""
        if deadline is None:
            return None
        deadline = float(deadline)
        if not deadline > 0:
            raise ServiceError(
                f"a per-request deadline must be positive, got {deadline!r}"
            )
        return deadline

    def _collect(
        self, shard: int, req_id: int, kind: str,
        deadline: Optional[float] = None,
    ) -> dict:
        """Receive (with deadline) and validate one response for ``req_id``."""
        handle = self._handles[shard]
        budget = self.config.deadline if deadline is None else deadline
        deadline_at = time.monotonic() + budget
        while True:
            remaining = deadline_at - time.monotonic()
            if remaining <= 0:
                self.stats.deadline_timeouts += 1
                raise DeadlineExceededError(
                    f"shard {shard} missed its {budget:.3f}s "
                    f"deadline on a {kind} request"
                )
            try:
                if not handle.conn.poll(remaining):
                    continue
                response = handle.conn.recv()
            except (EOFError, OSError, BrokenPipeError) as exc:
                raise WorkerCrashError(
                    f"shard {shard} died mid-{kind}: {exc}"
                ) from exc
            delay = self._injector.response_delay()
            if delay:
                time.sleep(delay)
            if self._injector.drop_response(shard):
                self.stats.dropped_responses += 1
                raise _DroppedResponseError(
                    f"injected drop of shard {shard}'s {kind} response"
                )
            status, got_id = response[0], response[1]
            if got_id != req_id:
                # A response to an older request (e.g. answered after we
                # timed out in a previous life of this pipe) — skip it.
                continue
            if status == "ok":
                return response[2]
            if status == "stale":
                raise WorkerCrashError(
                    f"shard {shard} answered at seq "
                    f"{response[2].get('last_seq')} instead of the pinned view"
                )
            raise _IndexPathError(
                f"shard {shard} {kind} failed: "
                f"{response[2].get('kind')}: {response[2].get('message')}"
            )

    def _request_with_retries(
        self,
        shard: int,
        build_message,
        kind: str,
        already_failed: bool = False,
        cause: Optional[BaseException] = None,
        deadline: Optional[float] = None,
    ) -> dict:
        """Send/receive with crash recovery: respawn + backoff + bounded retries."""
        attempt = 0
        last_error: Optional[BaseException] = cause
        while attempt <= self.config.max_retries:
            if already_failed or attempt > 0:
                self.stats.retries += 1
                self._backoff(max(1, attempt))
                self._respawn(shard, drop_only=isinstance(
                    last_error, _DroppedResponseError
                ))
            attempt += 1
            req_id = next(self._req_ids)
            try:
                self._handles[shard].conn.send(build_message(req_id))
                return self._collect(shard, req_id, kind, deadline)
            except (WorkerCrashError, DeadlineExceededError) as exc:
                last_error = exc
        raise ServiceError(
            f"shard {shard} {kind} failed after "
            f"{self.config.max_retries + 1} attempts: {last_error}"
        ) from last_error

    def _backoff(self, attempt: int) -> None:
        base = min(
            self.config.backoff_cap,
            self.config.backoff_base * (2.0 ** (attempt - 1)),
        )
        jitter = 1.0 + self.config.backoff_jitter * float(
            self._rng.uniform(-1.0, 1.0)
        )
        time.sleep(max(0.0, base * jitter))

    def _spawn(self, shard: int) -> _WorkerHandle:
        """Start (or restart) one shard worker and wait for its ready message."""
        parent_conn, child_conn = _MP.Pipe(duplex=True)
        process = _MP.Process(
            target=worker_main,
            args=(
                shard,
                child_conn,
                self._base_data[shard],
                self._base_gids[shard],
                self._snapshot_path(shard),
                self._wal_path(shard),
                self.config.snapshot_every,
                self._index_kwargs,
                self._session_kwargs,
            ),
            daemon=True,
            name=f"eclipse-shard-{shard}",
        )
        process.start()
        child_conn.close()
        handle = _WorkerHandle(shard, process, parent_conn)
        if not parent_conn.poll(self.config.deadline):
            handle.kill()
            raise ServiceError(
                f"shard {shard} worker did not become ready within "
                f"{self.config.deadline:.3f}s"
            )
        try:
            status, info = parent_conn.recv()
        except (EOFError, OSError) as exc:
            handle.kill()
            raise WorkerCrashError(
                f"shard {shard} worker died during recovery: {exc}"
            ) from exc
        if status != "ready":  # pragma: no cover - workers always lead with it
            handle.kill()
            raise ServiceError(
                f"shard {shard} worker sent {status!r} instead of ready"
            )
        mode = info.get("mode")
        if mode == "warm":
            self.stats.warm_restarts += 1
        elif mode == "cold":
            self.stats.cold_rebuilds += 1
        else:
            self.stats.fresh_starts += 1
        self.stats.wal_records_replayed += int(info.get("replayed", 0))
        if info.get("snapshot_error"):
            self.stats.snapshot_failures += 1
            logger.warning(
                "shard %d recovered cold: %s", shard, info["snapshot_error"]
            )
        self._ready_info[shard] = dict(info)
        return handle

    # ------------------------------------------------------------------
    # Supervisor-state recovery (recover=True)
    # ------------------------------------------------------------------
    def _recover_supervisor(self, base_n: int) -> None:
        """Rebuild supervisor state from the shard write-ahead logs.

        Called after every worker has finished its own recovery.  Three
        jobs, in order:

        1. **Repair torn batches.**  A crash of the previous process can
           leave a batch logged (and hence replayed) on some shards but
           not others.  Every batch is delivered to *every* shard, so the
           shard with the highest applied sequence number holds the full
           record history; batches missing from a lagging shard are
           re-masked from those records and redelivered (workers treat a
           known sequence number as an idempotent no-op).
        2. **Restore the commit state**: the acknowledged sequence number
           and the next free global id.
        3. **Rebuild the client idempotency table** from the ``client``
           keys the records carry, so a client resend after the crash is
           answered with the recorded acknowledgement, not reapplied.
        """
        from repro.service.wal import WriteAheadLog

        num_shards = self.config.num_shards
        last_seqs = [
            int(self._ready_info[shard].get("last_seq", 0))
            for shard in range(num_shards)
        ]
        target = max(last_seqs)
        self.stats.supervisor_recoveries += 1
        if target == 0:
            return
        lead = int(np.argmax(last_seqs))
        records_by_seq: Dict[int, dict] = {}
        for record in WriteAheadLog(self._wal_path(lead)).replay():
            records_by_seq.setdefault(int(record["seq"]), record)
        next_gid = base_n
        for record in records_by_seq.values():
            gids = np.asarray(
                record.get("all_insert_gids", record["insert_gids"]),
                dtype=np.intp,
            )
            if gids.size:
                next_gid = max(next_gid, int(gids.max()) + 1)
        # Repair: bring every lagging shard up to the lead's sequence.
        for shard in range(num_shards):
            for seq in range(last_seqs[shard] + 1, target + 1):
                record = records_by_seq.get(seq)
                if record is None or "all_insert_gids" not in record:
                    raise ServiceError(
                        f"cannot repair shard {shard} to seq {seq}: the "
                        f"lead shard's log is missing the full record "
                        "(written by a pre-network service version?)"
                    )
                all_gids = np.asarray(record["all_insert_gids"], dtype=np.intp)
                all_points = np.asarray(
                    record["all_insert_points"], dtype=float
                )
                mask = (all_gids % num_shards) == shard
                shard_record = dict(record)
                shard_record["insert_gids"] = all_gids[mask]
                shard_record["insert_points"] = all_points[mask]
                self._update_one_shard(shard, shard_record, None, False)
                self.stats.repair_redeliveries += 1
        self._seq = target
        self._next_gid = next_gid
        for record in records_by_seq.values():
            client = record.get("client")
            if client is None:
                continue
            gids = np.asarray(record["all_insert_gids"], dtype=np.intp)
            # rows_deleted is not reconstructible from the logs (it was
            # counted against the pre-batch liveness); replayed acks
            # carry 0 there — metadata only, the state itself is exact.
            self._client_acks[(str(client[0]), int(client[1]))] = UpdateAck(
                seq=int(record["seq"]), insert_gids=gids, rows_deleted=0
            )

    def _respawn(self, shard: int, drop_only: bool = False) -> None:
        """Kill and restart one worker from its snapshot + WAL tail.

        ``drop_only`` marks an injected response drop: the worker is
        healthy and in sync, so it is left alone (retrying against it is
        exactly the duplicate-delivery case the protocol must absorb).
        """
        handle = self._handles[shard]
        if drop_only and handle is not None and handle.process.is_alive():
            return
        if handle is not None:
            handle.kill()
        self._injector.before_respawn(shard, self._snapshot_path(shard))
        self.stats.worker_respawns += 1
        self._handles[shard] = self._spawn(shard)

    def _snapshot_path(self, shard: int) -> str:
        return os.path.join(self._dir, f"shard-{shard}.snapshot")

    def _wal_path(self, shard: int) -> str:
        return os.path.join(self._dir, f"shard-{shard}.wal")

    def _resolve_spec(self, ratios) -> RatioVector:
        if isinstance(ratios, RatioVector):
            spec = ratios
        else:
            spec = make_ratio_vector(ratios, self._dims)
        if self._dims and spec.dimensions != self._dims:
            raise DimensionMismatchError(
                f"ratio vector is for d={spec.dimensions}, "
                f"service datasets have d={self._dims}"
            )
        return spec
