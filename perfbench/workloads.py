"""The three workloads, each driven from one process through the public API.

Each workload runs *passes*.  A pass sets the program up (timed, until its
first answer), runs a loop of operations, and afterwards checks every
answer against an independent reference; nothing the reference does is
inside a timed region.  A pass stops at a deadline (the measured runs) or
after a fixed number of operations (the two passes of a traced run, which
must do identical work).

``batch-anti``   closed loop, ``DatasetSession.run_batch`` of 10 specs.
``stream-anti``  closed loop, ``apply_updates`` then a 5-spec ``run_batch``.
``tcp-inde``     open loop at a fixed rate through ``EclipseClient`` to an
                 ``EclipseNetServer`` over a 2-shard ``EclipseService``.

The datasets are a fixed corpus (see :func:`corpus_seed`); ``--seed``
draws the query specs and the update stream.  The ANTI workloads go
through several datasets per pass (``datasets``), one after another, each
measured for ``seconds / datasets``, so a run covers more than one
dataset.  Each dataset is set up once, which also gives several set-up
times per run to take the median of.
"""

from __future__ import annotations

import contextlib
import glob
import json
import multiprocessing
import os
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from perfbench import stats
from perfbench.tracing import Tracer

ANTI_N, ANTI_D = 20_000, 3
INDE_N, INDE_D = 50_000, 4
NUM_SPECS = 50

#: Open-loop rate of ``tcp-inde`` (requests per second), under the 65-175
#: requests/s a single waiting client reached on the 2-vCPU host measured.
TCP_RATE = 40.0
#: Every block of this many ``tcp-inde`` requests holds one update batch.
TCP_UPDATE_EVERY = 10
#: Query latency limit of ``tcp-inde`` at its tail percentile.
TCP_LATENCY_LIMIT_MS = 100.0


@dataclass
class Pass:
    """What one pass measured and checked."""

    setup_s: List[float] = field(default_factory=list)
    reads: List[float] = field(default_factory=list)    # seconds per read op
    updates: List[float] = field(default_factory=list)  # seconds per update op
    queries: int = 0          # ratio specs answered in the window
    window_s: float = 0.0     # wall time of the operation loop
    cpu_s: float = 0.0        # CPU time the program spent in the operation loop
    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)
    info: Dict[str, object] = field(default_factory=dict)
    peak_rss_mb: float = 0.0
    # Filled on traced passes: the material of the per-layer metrics.
    layer_inputs: Dict[str, object] = field(default_factory=dict)

    def check(self, ok: bool, what: str, count: int = 1) -> None:
        """Count ``count`` checked answers; record a failure unless ``ok``."""
        self.attempted += count
        if not ok:
            self.failed += count
            if len(self.failures) < 20:
                self.failures.append(what)


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
def ratio_specs(rng: np.random.Generator, count: int, dims: int) -> List[list]:
    """``count`` ratio-range specs of ``dims - 1`` ranges each.

    Lower bounds are drawn from [0.2, 1), upper bounds 1.5-4x above them:
    strictly positive weights, so every eclipse point is a skyline point.
    """
    specs = []
    for _ in range(count):
        lows = rng.uniform(0.2, 1.0, size=dims - 1)
        highs = lows * rng.uniform(1.5, 4.0, size=dims - 1)
        specs.append([(float(lo), float(hi)) for lo, hi in zip(lows, highs)])
    return specs


def corpus_seed(k: int) -> int:
    """Generator seed of dataset ``k`` of the corpus, the same on every run.

    The work of an ANTI batch follows the dataset's skyline size: six
    datasets with skylines of 447-501 rows took 2.1-2.9 s per 50 specs,
    each repeatable within about 5%.  Over the same five seeds, datasets
    drawn from ``--seed`` spread a run's throughput by 0.18 (IQR/median)
    and this fixed corpus by 0.07, so only the specs and updates vary.
    """
    return 1000 + k


def dataset(family: str, n: int, dims: int, seed: int) -> np.ndarray:
    from repro import generate_dataset

    return np.ascontiguousarray(generate_dataset(family, n, dims, seed=seed))


def reference_answers(data: np.ndarray, specs: Sequence) -> List[np.ndarray]:
    """Eclipse answers computed off the timed path.

    Block-SFS skyline (the timed path uses divide and conquer), then the
    corner-score transformation of each spec over the skyline points alone.
    With strictly positive weights every eclipse point is a skyline point,
    so this equals the transformation over the whole dataset.
    """
    from repro.core.transform import eclipse_transform_indices
    from repro.skyline.api import skyline_indices

    sky = np.sort(skyline_indices(data, method="sfs"))
    points = data[sky]
    return [np.sort(sky[eclipse_transform_indices(points, spec)]) for spec in specs]


def peak_rss_mb(workers_kb: Sequence[int] = ()) -> float:
    """Peak resident set of this process plus ``workers_kb`` (Linux: KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return (own + sum(workers_kb)) / 1024.0


def cpu_seconds(pids: Sequence[int] = ()) -> float:
    """CPU time (user + system) of this process plus the processes ``pids``.

    Other processes are read from ``/proc`` (Linux), in clock ticks.
    """
    total = time.process_time()
    tick = os.sysconf("SC_CLK_TCK")
    for pid in pids:
        with open(f"/proc/{pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        total += (int(fields[11]) + int(fields[12])) / tick
    return total


def _stop(deadline: Optional[float], max_ops: Optional[int], done: int) -> bool:
    if max_ops is not None and done >= max_ops:
        return True
    return deadline is not None and time.perf_counter() >= deadline


# ----------------------------------------------------------------------
# The ANTI workloads: one dataset after another
# ----------------------------------------------------------------------
def _record_choice(out: Pass, session) -> None:
    chosen = out.info.setdefault("chosen", {})
    method = session.last_plan.method
    chosen[method] = chosen.get(method, 0) + 1


def _finish_anti(out: Pass, shares: List[float], sessions: list, batches) -> Pass:
    out.info["skyline_share"] = statistics.median(shares)
    out.peak_rss_mb = peak_rss_mb()
    out.layer_inputs = {"sessions": sessions, "batches": batches}
    return out


def _check_batch(out: Pass, results, expected: Sequence[np.ndarray], what: str) -> None:
    if isinstance(results, Exception):
        out.check(False, f"{what}: {type(results).__name__}: {results}", len(expected))
        return
    missing = len(expected) - len(results)
    if missing > 0:
        out.check(False, f"{what}: {missing} of {len(expected)} answers missing", missing)
    for i, (got, want) in enumerate(zip(results, expected)):
        out.check(np.array_equal(got.indices, want), f"{what} spec {i}: answer differs")


# ----------------------------------------------------------------------
# batch-anti
# ----------------------------------------------------------------------
BATCH_SPECS = 10


def batch_anti(seed: int, datasets: int, seconds: Optional[float], max_ops: Optional[int],
               quiet=contextlib.nullcontext) -> Pass:
    """Closed loop of 10-spec ``run_batch`` calls, ``seconds / datasets`` per dataset.

    A pass with ``max_ops`` keeps its sessions for the per-layer metrics;
    a measured pass drops each session before building the next one.
    """
    from repro import DatasetSession

    out = Pass()
    specs = ratio_specs(np.random.default_rng(seed), NUM_SPECS, ANTI_D)
    batches = [specs[i:i + BATCH_SPECS] for i in range(0, NUM_SPECS, BATCH_SPECS)]
    share = None if seconds is None else seconds / datasets
    shares, kept = [], []
    for k in range(datasets):
        data = dataset("ANTI", ANTI_N, ANTI_D, corpus_seed(k))
        with quiet():
            refs = reference_answers(data, specs)
        start = time.perf_counter()
        session = DatasetSession(data)
        first = session.run_batch(batches[0])
        out.setup_s.append(time.perf_counter() - start)
        _check_batch(out, first, refs[:BATCH_SPECS], f"dataset {k} set-up batch")
        shares.append(session.skyline().size / session.num_points)
        log = []
        cpu = time.process_time()
        begin = time.perf_counter()
        stop_at = None if share is None else begin + share
        while not _stop(stop_at, max_ops, len(log)):
            b = len(log) % len(batches)
            t0 = time.perf_counter()
            try:
                results = session.run_batch(batches[b])
            except Exception as exc:  # counted as failed answers, run goes on
                results = exc
            out.reads.append(time.perf_counter() - t0)
            log.append((b, results))
            _record_choice(out, session)
        out.window_s += time.perf_counter() - begin
        out.cpu_s += time.process_time() - cpu
        out.queries += len(log) * BATCH_SPECS
        for b, results in log:
            expected = refs[b * BATCH_SPECS:(b + 1) * BATCH_SPECS]
            _check_batch(out, results, expected, f"dataset {k} batch {b}")
        if max_ops is not None:
            kept.append(session)
    return _finish_anti(out, shares, kept, batches)


def chosen_over_best(out: Pass, session, batches: Sequence[list], repeats: int = 3) -> float:
    """Time ``auto`` and every pinned arm on the same batches.

    Returns the median over batches of (time of ``auto``) / (time of the
    fastest pinned arm).  Every arm's answers are checked against the
    reference into ``out``.  Each arm runs once untimed first, so index
    builds are not charged to it.
    """
    from repro.core.plan import INDEX_METHODS

    arms = ("auto", "transform") + tuple(INDEX_METHODS)
    ratios = []
    for b, batch in enumerate(batches[:repeats]):
        want = reference_answers(session.data, batch)
        times = {}
        for arm in arms:
            session.run_batch(batch, method=arm)
            t0 = time.perf_counter()
            results = session.run_batch(batch, method=arm)
            times[arm] = time.perf_counter() - t0
            _check_batch(out, results, want, f"pinned {arm}, batch {b}")
        ratios.append(times["auto"] / min(t for arm, t in times.items() if arm != "auto"))
    return statistics.median(ratios)


# ----------------------------------------------------------------------
# stream-anti
# ----------------------------------------------------------------------
STREAM_SPECS, STREAM_INSERTS, STREAM_DELETES = 5, 50, 20


def stream_anti(seed: int, datasets: int, seconds: Optional[float], max_ops: Optional[int],
                quiet=contextlib.nullcontext) -> Pass:
    """Closed loop of (update batch, 5-spec ``run_batch``) cycles per dataset.

    Every update and answer is replayed afterwards on a reference session
    answering with the pinned transformation (see :func:`_replay_stream`).
    """
    from repro import DatasetSession

    out = Pass()
    specs = ratio_specs(np.random.default_rng(seed), NUM_SPECS, ANTI_D)
    batches = [specs[i:i + STREAM_SPECS] for i in range(0, NUM_SPECS, STREAM_SPECS)]
    share = None if seconds is None else seconds / datasets
    shares, kept = [], []
    for k in range(datasets):
        data = dataset("ANTI", ANTI_N, ANTI_D, corpus_seed(k))
        base = data.copy()
        rng = np.random.default_rng([seed, k])
        start = time.perf_counter()
        session = DatasetSession(data)
        first = session.run_batch(batches[0])
        out.setup_s.append(time.perf_counter() - start)
        shares.append(session.skyline().size / session.num_points)
        with quiet():
            _check_batch(out, first, reference_answers(base, batches[0]), f"dataset {k} set-up batch")
        size = ANTI_N
        log = []
        cpu = time.process_time()
        begin = time.perf_counter()
        stop_at = None if share is None else begin + share
        while not _stop(stop_at, max_ops, len(log)):
            inserts = dataset("ANTI", STREAM_INSERTS, ANTI_D, int(rng.integers(2**31)))
            deletes = np.sort(rng.choice(size, STREAM_DELETES, replace=False))
            b = (len(log) + 1) % len(batches)
            t0 = time.perf_counter()
            try:
                session.apply_updates(inserts=inserts, deletes=deletes)
                update_error = None
            except Exception as exc:
                update_error = exc
            t1 = time.perf_counter()
            try:
                results = session.run_batch(batches[b])
            except Exception as exc:
                results = exc
            t2 = time.perf_counter()
            out.updates.append(t1 - t0)
            out.reads.append(t2 - t1)
            size += STREAM_INSERTS - STREAM_DELETES
            log.append((inserts, deletes, update_error, b, results))
            _record_choice(out, session)
        out.window_s += time.perf_counter() - begin
        out.cpu_s += time.process_time() - cpu
        out.queries += len(log) * STREAM_SPECS
        with quiet():
            _replay_stream(out, k, session, base, batches, log)
        if max_ops is not None:
            kept.append(session)
    return _finish_anti(out, shares, kept, batches)


def _replay_stream(out: Pass, k: int, session, base, batches, log) -> None:
    """Replay one dataset's stream on a reference session.

    The reference answers with the pinned transformation and keeps rows at
    the same positions as the measured session.  Its skyline, maintained
    through the same updates, is finally checked against a fresh block-SFS
    skyline of the final data.
    """
    from repro import DatasetSession
    from repro.skyline.api import skyline_indices

    ref = DatasetSession(base)
    for inserts, deletes, update_error, b, results in log:
        out.check(update_error is None, f"dataset {k} update: {update_error!r}")
        ref.apply_updates(inserts=inserts, deletes=deletes)
        expected = [r.indices for r in ref.run_batch(batches[b], method="transform")]
        _check_batch(out, results, expected, f"dataset {k} batch {b}")
    out.check(np.array_equal(session.data, ref.data), f"dataset {k}: data diverged")
    fresh = np.sort(skyline_indices(ref.data, method="sfs"))
    out.check(np.array_equal(np.sort(ref.skyline()), fresh),
              f"dataset {k}: maintained skyline differs from a fresh one")


# ----------------------------------------------------------------------
# tcp-inde
# ----------------------------------------------------------------------
TCP_INSERTS, TCP_DELETES = 20, 10


class WorkerReports:
    """Installs the shard-worker entry point that reports back at ``stop``.

    The service forks its shard workers from ``worker_main``; the replacement
    runs the original with a connection whose ``recv`` notices the ``stop``
    request and, before the worker acknowledges it, writes the worker's peak
    RSS (and, when tracing, its spans, counters and session stats) to a file
    in ``run_dir``.  The supervisor waits for that acknowledgement before it
    reaps the worker, so the file is complete when the service has closed.
    """

    def __init__(self, run_dir: str, tracer: Optional[Tracer]) -> None:
        import repro.service.supervisor as supervisor

        self.run_dir = run_dir
        # Files of this pass only: a traced run makes two passes in one directory.
        self.prefix = f"p{time.perf_counter_ns()}"
        self.tag = f"{self.prefix}-setup"
        self._module = supervisor
        self._original = supervisor.worker_main
        reports = self

        def worker_main(shard_id, conn, *args, **kwargs):
            if tracer is not None:
                tracer.reset()
            tag = reports.tag
            return reports._original(
                shard_id, _ReportingConn(conn, lambda: reports._write(tag, shard_id, tracer)),
                *args, **kwargs)

        supervisor.worker_main = worker_main

    def _write(self, tag: str, shard: int, tracer: Optional[Tracer]) -> None:
        from perfbench.layers import session_stats

        report = {"shard": shard, "pid": os.getpid(),
                  "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
        if tracer is not None:
            report.update(tracer.export())
            report["session_stats"] = session_stats(tracer.state["sessions"].values())
        path = os.path.join(self.run_dir, f"worker-{tag}-{os.getpid()}.json")
        with open(path, "w") as handle:
            json.dump(report, handle)

    def read(self, tag: str) -> List[dict]:
        reports = []
        for path in sorted(glob.glob(os.path.join(self.run_dir, f"worker-{tag}-*.json"))):
            with open(path) as handle:
                reports.append(json.load(handle))
        return reports

    def uninstall(self) -> None:
        self._module.worker_main = self._original


class _ReportingConn:
    """A worker's pipe end that runs ``on_stop`` when ``stop`` arrives."""

    def __init__(self, conn, on_stop: Callable[[], None]) -> None:
        self._conn = conn
        self._on_stop = on_stop
        self.send = conn.send
        self.poll = conn.poll
        self.close = conn.close

    def recv(self):
        message = self._conn.recv()
        if message[0] == "stop":
            self._on_stop()
        return message


def _open_service(data: np.ndarray, seed: int):
    from repro.service import (
        ClientConfig, EclipseClient, EclipseService, NetServerConfig, ServiceConfig,
        start_in_thread,
    )

    service = EclipseService(data, ServiceConfig(num_shards=2))
    try:
        handle = start_in_thread(service, NetServerConfig(host="127.0.0.1", port=0))
    except BaseException:
        service.close()
        raise
    client = EclipseClient(handle.host, handle.port, ClientConfig(seed=seed))
    return service, handle, client


def _close_service(service, handle, client) -> None:
    client.close()
    try:
        handle.shutdown()
    finally:
        service.close()


def tcp_inde(seed: int, setups: int, seconds: Optional[float], max_ops: Optional[int],
             run_dir: str, tracer: Optional[Tracer] = None) -> Pass:
    """Open loop through one TCP connection, after ``setups`` timed set-ups.

    Every set-up starts a fresh service, server and client and ends at the
    first answer (both shards answer it); all but the last are closed again.
    The last one serves the open loop.
    """
    from repro import DatasetSession

    quiet = tracer.paused if tracer is not None else contextlib.nullcontext
    out = Pass()
    rng = np.random.default_rng(seed)
    specs = ratio_specs(rng, NUM_SPECS, INDE_D)
    data = dataset("INDE", INDE_N, INDE_D, corpus_seed(0))
    count = max_ops if max_ops is not None else int(round(TCP_RATE * seconds))
    kinds = []
    for _ in range(0, count, TCP_UPDATE_EVERY):
        block = ["q"] * TCP_UPDATE_EVERY
        block[int(rng.integers(TCP_UPDATE_EVERY))] = "u"
        kinds.extend(block)
    kinds = kinds[:count]
    inserts = [dataset("INDE", TCP_INSERTS, INDE_D, int(rng.integers(2**31)))
               for kind in kinds if kind == "u"]
    with quiet():
        first_ref = reference_answers(data, specs[:1])[0]
    reports = WorkerReports(run_dir, tracer)
    ports = []
    try:
        for attempt in range(setups):
            reports.tag = f"{reports.prefix}-s{attempt}"
            start = time.perf_counter()
            service, handle, client = _open_service(data, seed)
            try:
                first = client.query(specs[0])
                out.setup_s.append(time.perf_counter() - start)
                ports.append(handle.port)
                out.check(np.array_equal(first.gids, first_ref), f"set-up {attempt}: answer differs")
            except BaseException:
                _close_service(service, handle, client)
                raise
            if attempt < setups - 1:
                _close_service(service, handle, client)
        measured = reports.tag
        log = _open_loop(client, specs, kinds, inserts, rng, out)
        out.info["service"] = service.stats.as_dict()
        out.info["client"] = client.stats.as_dict()
        out.info["server"] = handle.server.stats.as_dict()
        _close_service(service, handle, client)
    finally:
        reports.uninstall()
    workers = reports.read(measured)
    out.info["ports"] = ports
    out.info["pids"] = [r["pid"] for r in reports.read(reports.prefix + "-*")]
    out.peak_rss_mb = peak_rss_mb([r["maxrss_kb"] for r in workers])
    with quiet():
        _check_tcp(out, DatasetSession(data.copy()), specs, log)
    out.layer_inputs = {"workers": workers}
    return out


def _open_loop(client, specs, kinds, inserts, rng, out: Pass) -> list:
    """Send ``kinds`` at :data:`TCP_RATE`; each request timed from its due time."""
    alive = np.ones(INDE_N, dtype=bool)
    log = []
    shards = [c.pid for c in multiprocessing.active_children() if c.name.startswith("eclipse-shard-")]
    cpu = cpu_seconds(shards)
    due = stats.due_times(time.perf_counter() + 0.05, TCP_RATE, len(kinds))
    sent, done, read_idx, update_idx = [], [], [], []
    next_insert = 0
    for i, kind in enumerate(kinds):
        if kind == "u":
            batch = inserts[next_insert]
            next_insert += 1
            deletes = np.sort(rng.choice(np.flatnonzero(alive), TCP_DELETES, replace=False))
        now = time.perf_counter()
        while now < due[i]:
            time.sleep(due[i] - now)
            now = time.perf_counter()
        sent.append(now)
        try:
            if kind == "q":
                spec = i % NUM_SPECS
                result = client.query(specs[spec])
                log.append(("q", spec, result))
            else:
                ack = client.apply_updates(inserts=batch, delete_gids=deletes)
                log.append(("u", batch, deletes, ack))
                alive[deletes] = False
                alive = np.concatenate([alive, np.ones(len(ack.insert_gids), dtype=bool)])
        except Exception as exc:  # a failed or refused request
            log.append(("x", kind, exc))
        done.append(time.perf_counter())
        (read_idx if kind == "q" else update_idx).append(i)
    out.cpu_s = cpu_seconds(shards) - cpu
    timing = stats.open_loop_timing(due, sent, done)
    out.reads = [timing.latency[i] for i in read_idx]
    out.updates = [timing.latency[i] for i in update_idx]
    out.queries = len(read_idx)
    out.window_s = done[-1] - due[0] if done else 0.0
    out.info["lateness"] = stats.lateness_report(timing.lateness, 1.0 / TCP_RATE)
    out.info["service_p50_ms"] = stats.percentile(timing.service, 0.5) * 1e3 if done else 0.0
    # One client waiting for each reply could send at most this many per second.
    out.info["capacity_per_s"] = len(done) / sum(timing.service) if done else 0.0
    return log


def _check_tcp(out: Pass, ref, specs, log) -> None:
    """Replay the acknowledged stream on an in-process reference session.

    Service rows are named by global id; the reference keeps the id of each
    of its rows (deletes remove positions, inserts append), so answers
    compare as ids and as exact coordinates.
    """
    gids = np.arange(ref.num_points, dtype=np.intp)
    next_gid = ref.num_points
    for entry in log:
        if entry[0] == "x":
            out.check(False, f"{entry[1]} request failed: {entry[2]!r}")
            continue
        if entry[0] == "u":
            _, batch, deletes, ack = entry
            expected_ids = np.arange(next_gid, next_gid + len(batch))
            out.check(np.array_equal(ack.insert_gids, expected_ids), "update: unexpected insert ids")
            positions = np.searchsorted(gids, deletes)
            ref.apply_updates(inserts=batch, deletes=positions)
            gids = np.concatenate([np.delete(gids, positions), expected_ids])
            next_gid += len(batch)
            continue
        _, spec, result = entry
        want = ref.run_batch([specs[spec]], method="transform")[0]
        ok = (np.array_equal(result.gids, gids[want.indices])
              and np.array_equal(result.points, want.points))
        out.check(ok, f"query spec {spec}: answer differs")
    out.info["skyline_share"] = ref.skyline().size / ref.num_points
