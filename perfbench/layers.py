"""Which entry points each layer is traced at, and its per-layer metrics.

:func:`install` wraps the public entry points of every layer of the
program with spans (see :mod:`perfbench.tracing`); :func:`layer_metrics`
turns the spans, counters and the program's own stats objects of one
traced pass into the ``per_layer`` metrics named in ``BENCHMARK.json``.

Every ``*_ms`` metric is a total over the traced pass, which does a fixed
amount of work (one set-up plus a fixed number of operations), so totals
compare across commits.  ``*_self_ms`` subtracts the time covered by child
spans; the other ``*_ms`` metrics are inclusive.
"""

from __future__ import annotations

import os
from collections import Counter, defaultdict
from dataclasses import asdict
from typing import Dict, Iterable, Optional, Sequence, Tuple

from perfbench.tracing import Span, Tracer, self_times, trace_ids

#: ``(name, unit)`` of every per-layer metric, in report order.
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("skyline.calls", "count"),
    ("skyline.self_ms", "ms"),
    ("skyline.rows_out_per_in", "ratio"),
    ("kernels.screen_calls", "count"),
    ("kernels.screen_ms", "ms"),
    ("kernels.screen_pairs", "count"),
    ("executor.matmul_calls", "count"),
    ("executor.matmul_ms", "ms"),
    ("executor.parallel_chunks", "count"),
    ("plan.calls", "count"),
    ("plan.self_ms", "ms"),
    ("plan.chose_index", "count"),
    ("plan.chose_transform", "count"),
    ("plan.chosen_over_best", "ratio"),
    ("advisor.memo_hit_ratio", "ratio"),
    ("advisor.builds_skipped", "count"),
    ("advisor.evictions", "count"),
    ("advisor.bytes_resident", "B"),
    ("index.builds", "count"),
    ("index.build_ms", "ms"),
    ("index.order_vector_ms", "ms"),
    ("index.candidates_ms", "ms"),
    ("index.adjust_ms", "ms"),
    ("index.candidates_per_query", "count"),
    ("index.eclipse_per_candidate", "ratio"),
    ("index.maintain_ms", "ms"),
    ("index.compactions", "count"),
    ("flattree.probe_calls", "count"),
    ("flattree.probe_ms", "ms"),
    ("session.run_batch_self_ms", "ms"),
    ("session.apply_updates_self_ms", "ms"),
    ("session.rebuilds_triggered", "count"),
    ("session.skyline_inplace_updates", "count"),
    ("session.index_delta_patches", "count"),
    ("supervisor.query_self_ms", "ms"),
    ("supervisor.update_self_ms", "ms"),
    ("supervisor.windows_per_query", "ratio"),
    ("supervisor.retries", "count"),
    ("supervisor.degraded_queries", "count"),
    ("wal.appends", "count"),
    ("wal.append_ms", "ms"),
    ("wal.bytes_per_append", "B"),
    ("framing.encode_ms", "ms"),
    ("framing.decode_ms", "ms"),
    ("framing.bytes_per_request", "B"),
    ("framing.bytes_per_response", "B"),
    ("net.client_self_ms", "ms"),
    ("client.resends", "count"),
    ("client.reconnects", "count"),
    ("net.frames_rejected", "count"),
    ("trace.overhead_frac", "ratio"),
    ("trace.self_sum_over_root", "ratio"),
)


def install(tracer: Tracer) -> None:
    """Wrap every layer's public entry points (imports the program)."""
    from repro.core.plan import INDEX_METHODS
    from repro.core.session import DatasetSession
    from repro.geometry.flattree import FlatTree
    from repro.index.eclipse_index import EclipseIndex
    from repro.index.intersection import IntersectionIndex
    from repro.index.order_vector import OrderVectorIndex
    from repro.perf.executor import parallel_matmul
    from repro.service import framing
    from repro.service.netclient import EclipseClient
    from repro.service.supervisor import EclipseService
    from repro.service.wal import WriteAheadLog
    from repro.skyline import incremental
    from repro.skyline.api import skyline_indices
    from repro.skyline.kernels import dominated_mask

    def rows(t, args, kwargs, result):
        t.add("skyline.rows_in", len(args[0]))
        t.add("skyline.rows_out", len(result))

    def pairs(t, args, kwargs, result):
        t.add("kernels.screen_pairs", len(args[0]) * len(args[1]))

    def planned(t, args, kwargs, result):
        method = args[1] if len(args) > 1 else kwargs.get("method", "auto")
        if method == "auto":
            t.add("plan.chose_index" if result.method in INDEX_METHODS else "plan.chose_" + result.method)

    def probed(t, args, kwargs, result):
        t.add("index.queries", len(result))
        t.add("index.eclipse", sum(len(r) for r in result))

    def candidates(t, args, kwargs, result):
        t.add("index.candidates", sum(len(c) for c in result))

    def session_seen(t, args, kwargs, result):
        t.state["sessions"][id(args[0])] = args[0]

    def framed(t, args, kwargs, result):
        side = "request" if args[0] in framing.REQUEST_KINDS else "response"
        t.add(f"framing.{side}s")
        t.add(f"framing.{side}_bytes", len(result))

    def wal_bytes(t, args, kwargs, result):
        path = args[0].path
        size = os.path.getsize(path)
        t.add("wal.bytes", size - t.state["wal_sizes"].get(path, 0))
        t.state["wal_sizes"][path] = size

    tracer.wrap_function(skyline_indices, "skyline", after=rows)
    tracer.wrap_function(incremental.apply_updates, "skyline.incremental")
    tracer.wrap_function(incremental.membership_delta, "skyline.incremental")
    tracer.wrap_function(dominated_mask, "kernels.screen", after=pairs)
    tracer.wrap_function(parallel_matmul, "executor.matmul")
    tracer.wrap_method(DatasetSession, "plan", "plan", after=planned)
    tracer.wrap_method(DatasetSession, "run_batch", "session.run_batch", after=session_seen)
    tracer.wrap_method(DatasetSession, "apply_updates", "session.apply_updates", after=session_seen)
    tracer.wrap_method(EclipseIndex, "build", "index.build")
    tracer.wrap_method(EclipseIndex, "query_indices_many", "index.query", after=probed)
    tracer.wrap_method(EclipseIndex, "insert_points", "index.maintain")
    tracer.wrap_method(EclipseIndex, "delete_points", "index.maintain")
    tracer.wrap_method(EclipseIndex, "compact", "index.compact")
    tracer.wrap_method(OrderVectorIndex, "initial_states", "index.order_vector")
    tracer.wrap_method(IntersectionIndex, "candidates_many", "index.candidates", after=candidates)
    tracer.wrap_method(FlatTree, "query_many", "flattree.probe")
    tracer.wrap_method(EclipseService, "query_batch", "supervisor.query")
    tracer.wrap_method(EclipseService, "apply_updates", "supervisor.update")
    tracer.wrap_method(WriteAheadLog, "append", "wal.append", after=wal_bytes)
    tracer.wrap_function(framing.encode_frame, "framing.encode", after=framed)
    tracer.wrap_function(framing.decode_payload, "framing.decode")
    tracer.wrap_method(EclipseClient, "query_batch", "client.query")
    tracer.wrap_method(EclipseClient, "apply_updates", "client.update")


def session_stats(sessions: Iterable) -> Dict[str, float]:
    """Sum of the ``SessionStats`` of ``sessions`` (all created in the pass)."""
    total: Counter = Counter()
    for session in sessions:
        total.update(asdict(session.stats))
    return dict(total)


def _ratio(num: float, den: float) -> float:
    return float(num) / float(den) if den else 0.0


def layer_metrics(
    spans: Sequence[Span],
    counters: Dict[str, float],
    stats: Dict[str, float],
    service: Optional[Dict[str, float]] = None,
    client: Optional[Dict[str, float]] = None,
    server: Optional[Dict[str, float]] = None,
    extra: Optional[Dict[str, float]] = None,
) -> Dict[str, float]:
    """Per-layer metrics of one traced pass, keyed as in :data:`PER_LAYER`.

    ``stats`` is the summed ``SessionStats`` of every session of the pass,
    ``service``/``client``/``server`` the service, client and server stats
    (``None`` on workloads without them); ``extra`` supplies the metrics
    measured outside the spans (``plan.chosen_over_best``, the trace
    overhead and the self-time check).
    """
    selfs = self_times(spans)
    calls: Counter = Counter()
    total_ns: Dict[str, int] = defaultdict(int)
    self_ns: Dict[str, int] = defaultdict(int)
    for span in spans:
        calls[span.name] += 1
        total_ns[span.name] += span.end - span.start
        self_ns[span.name] += selfs[span.sid]

    def ms(table, *names):
        return sum(table[n] for n in names) / 1e6

    service = service or {}
    client = client or {}
    server = server or {}
    c = Counter(counters)
    metrics = {
        "skyline.calls": calls["skyline"] + calls["skyline.incremental"],
        "skyline.self_ms": ms(self_ns, "skyline", "skyline.incremental"),
        "skyline.rows_out_per_in": _ratio(c["skyline.rows_out"], c["skyline.rows_in"]),
        "kernels.screen_calls": calls["kernels.screen"],
        "kernels.screen_ms": ms(total_ns, "kernels.screen"),
        "kernels.screen_pairs": c["kernels.screen_pairs"],
        "executor.matmul_calls": calls["executor.matmul"],
        "executor.matmul_ms": ms(total_ns, "executor.matmul"),
        "executor.parallel_chunks": stats.get("parallel_chunks", 0),
        "plan.calls": calls["plan"],
        "plan.self_ms": ms(self_ns, "plan"),
        "plan.chose_index": c["plan.chose_index"],
        "plan.chose_transform": c["plan.chose_transform"],
        "advisor.memo_hit_ratio": _ratio(stats.get("cache_hits", 0), stats.get("cost_requests", 0)),
        "advisor.builds_skipped": stats.get("index_builds_skipped", 0),
        "advisor.evictions": stats.get("index_evictions", 0),
        "advisor.bytes_resident": stats.get("advisor_bytes_resident", 0),
        "index.builds": calls["index.build"],
        "index.build_ms": ms(total_ns, "index.build"),
        "index.order_vector_ms": ms(total_ns, "index.order_vector"),
        "index.candidates_ms": ms(total_ns, "index.candidates"),
        "index.adjust_ms": ms(self_ns, "index.query"),
        "index.candidates_per_query": _ratio(c["index.candidates"], c["index.queries"]),
        "index.eclipse_per_candidate": _ratio(c["index.eclipse"], c["index.candidates"]),
        "index.maintain_ms": ms(total_ns, "index.maintain", "index.compact"),
        "index.compactions": calls["index.compact"],
        "flattree.probe_calls": calls["flattree.probe"],
        "flattree.probe_ms": ms(total_ns, "flattree.probe"),
        "session.run_batch_self_ms": ms(self_ns, "session.run_batch"),
        "session.apply_updates_self_ms": ms(self_ns, "session.apply_updates"),
        "session.rebuilds_triggered": stats.get("rebuilds_triggered", 0),
        "session.skyline_inplace_updates": stats.get("skyline_inplace_updates", 0),
        "session.index_delta_patches": stats.get("index_delta_patches", 0),
        "supervisor.query_self_ms": ms(self_ns, "supervisor.query"),
        "supervisor.update_self_ms": ms(self_ns, "supervisor.update"),
        "supervisor.windows_per_query": _ratio(service.get("query_windows", 0), service.get("queries", 0)),
        "supervisor.retries": service.get("retries", 0),
        "supervisor.degraded_queries": service.get("degraded_queries", 0),
        "wal.appends": calls["wal.append"],
        "wal.append_ms": ms(total_ns, "wal.append"),
        "wal.bytes_per_append": _ratio(c["wal.bytes"], calls["wal.append"]),
        "framing.encode_ms": ms(total_ns, "framing.encode"),
        "framing.decode_ms": ms(total_ns, "framing.decode"),
        "framing.bytes_per_request": _ratio(c["framing.request_bytes"], c["framing.requests"]),
        "framing.bytes_per_response": _ratio(c["framing.response_bytes"], c["framing.responses"]),
        "net.client_self_ms": ms(self_ns, "client.query", "client.update"),
        "client.resends": client.get("resends", 0),
        "client.reconnects": client.get("reconnects", 0),
        "net.frames_rejected": server.get("frames_rejected", 0),
    }
    metrics.update(extra or {})
    missing = [name for name, _ in PER_LAYER if name not in metrics]
    if missing:
        raise KeyError(f"per-layer metrics not computed: {missing}")
    return {name: float(metrics[name]) for name, _ in PER_LAYER}


def self_sum_over_root(spans: Sequence[Span], root_name: str) -> Tuple[float, int]:
    """Worst ratio of summed self times to root duration over every request.

    For each root span named ``root_name``, the self times of its whole
    tree must add up to the root's duration exactly; returns the ratio
    furthest from 1 and how many requests were checked.
    """
    selfs = self_times(spans)
    ids = trace_ids(spans)
    per_trace: Dict[int, int] = defaultdict(int)
    for span in spans:
        per_trace[ids[span.sid]] += selfs[span.sid]
    worst, checked = 1.0, 0
    for span in spans:
        if span.parent is None and span.name == root_name:
            ratio = per_trace[span.sid] / max(1, span.end - span.start)
            checked += 1
            if abs(ratio - 1.0) > abs(worst - 1.0):
                worst = ratio
    return worst, checked
