"""Tests of the benchmark's own arithmetic and bookkeeping.

They need no program run: percentiles and the tail rule, self time from
nested spans, open-loop due-time and lateness accounting, the tracer's
wrappers, and the agreement of ``BENCHMARK.json`` with the code.
"""

import json
import os
import socket
import sys
import types

import pytest

from perfbench import hygiene, layers, stats, tracing
from perfbench.tracing import Span

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


# ----------------------------------------------------------------------
# Percentiles and the tail rule
# ----------------------------------------------------------------------
def test_nearest_rank_percentiles():
    values = list(range(1, 101))  # 1..100
    assert stats.percentile(values, 0.5) == 50
    assert stats.percentile(values, 0.9) == 90
    assert stats.percentile(values, 0.99) == 99
    assert stats.percentile(values, 1.0) == 100
    assert stats.percentile([7.0], 0.99) == 7.0
    assert stats.percentile([3, 1, 2], 0.5) == 2  # order of input is irrelevant


def test_samples_beyond_counts_the_tail():
    assert stats.samples_beyond(100, 0.9) == 10
    assert stats.samples_beyond(99, 0.9) == 9
    assert stats.samples_beyond(1000, 0.99) == 10
    assert stats.samples_beyond(999, 0.99) == 9


def test_highest_supported_percentile():
    assert stats.highest_supported(1000) == 0.99
    assert stats.highest_supported(999) == 0.95
    assert stats.highest_supported(100) == 0.9
    assert stats.highest_supported(40) == 0.75
    assert stats.highest_supported(5) == 0.5


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        stats.percentile([], 0.5)
    with pytest.raises(ValueError):
        stats.percentile([1.0], 0.0)


# ----------------------------------------------------------------------
# Open loop
# ----------------------------------------------------------------------
def test_due_times_are_fixed_rate():
    assert stats.due_times(5.0, 4.0, 3) == [5.0, 5.25, 5.5]
    with pytest.raises(ValueError):
        stats.due_times(0.0, 0.0, 3)


def test_open_loop_charges_a_stall_to_later_requests():
    due = stats.due_times(0.0, 10.0, 3)  # 0.0, 0.1, 0.2
    # Request 0 stalls for 0.35 s; 1 and 2 can only leave once it is done.
    sent = [0.0, 0.35, 0.36]
    done = [0.35, 0.36, 0.37]
    timing = stats.open_loop_timing(due, sent, done)
    assert timing.latency == pytest.approx([0.35, 0.26, 0.17])
    assert timing.service == pytest.approx([0.35, 0.01, 0.01])
    assert timing.lateness == pytest.approx([0.0, 0.25, 0.16])
    late = stats.lateness_report(timing.lateness, 0.1)
    assert late["late_share"] == pytest.approx(2 / 3)
    assert late["max_ms"] == pytest.approx(250.0)
    assert late["p50_ms"] == pytest.approx(160.0)


def test_open_loop_rejects_impossible_timestamps():
    with pytest.raises(ValueError):
        stats.open_loop_timing([1.0], [0.5], [2.0])  # sent before due
    with pytest.raises(ValueError):
        stats.open_loop_timing([1.0], [1.5], [1.2])  # done before sent


# ----------------------------------------------------------------------
# Spans and self time
# ----------------------------------------------------------------------
def _span(sid, parent, name, start, end, pid=1):
    return Span(sid, parent, name, start, end, pid)


def test_self_time_subtracts_children():
    spans = [
        _span(1, None, "batch", 0, 100),
        _span(2, 1, "plan", 5, 10),
        _span(3, 1, "index", 20, 90),
        _span(4, 3, "probe", 30, 60),
    ]
    selfs = tracing.self_times(spans)
    assert selfs == {1: 100 - 5 - 70, 2: 5, 3: 70 - 30, 4: 30}
    assert sum(selfs.values()) == 100
    worst, checked = layers.self_sum_over_root(spans, "batch")
    assert (worst, checked) == (1.0, 1)


def test_self_time_counts_parallel_children_once():
    # Two shards answering in parallel under one supervisor call.
    spans = [
        _span(1, None, "supervisor", 0, 100),
        _span(2, 1, "shard", 10, 60, pid=2),
        _span(3, 1, "shard", 20, 80, pid=3),
    ]
    assert tracing.self_times(spans)[1] == 100 - 70
    assert tracing.covered([(10, 60), (20, 80), (90, 200)], 0, 100) == 80


def test_attach_uses_the_innermost_containing_span():
    parents = [_span(1, None, "client", 0, 100), _span(2, 1, "supervisor", 10, 90)]
    orphans = [_span(7, None, "shard", 20, 30, pid=9), _span(8, None, "late", 95, 120, pid=9)]
    attached = tracing.attach(parents, orphans)
    assert [s.parent for s in attached] == [2, None]
    ids = tracing.trace_ids(parents + attached)
    assert ids[7] == ids[2] == ids[1] == 1
    assert ids[8] == 8


def test_tracer_wraps_every_name_a_caller_resolves():
    home = types.ModuleType("pbtest.home")
    user = types.ModuleType("pbtest.user")

    def leaf(x):
        return x + 1

    def outer(x):
        return user.leaf_alias(x) * 2

    home.leaf = leaf
    user.leaf_alias = leaf  # imported by name under another name
    home.outer = outer
    sys.modules.update({"pbtest.home": home, "pbtest.user": user})
    tracer = tracing.Tracer()
    try:
        patched = tracer.wrap_function(leaf, "leaf", prefix="pbtest",
                                       after=lambda t, a, k, r: t.add("leaf.calls"))
        tracer.wrap_function(outer, "outer", prefix="pbtest")
        assert patched == 2
        assert home.outer(1) == 4
        with tracer.paused():
            assert home.outer(1) == 4
    finally:
        tracer.uninstall()
        del sys.modules["pbtest.home"], sys.modules["pbtest.user"]
    assert home.leaf is leaf and user.leaf_alias is leaf and home.outer is outer
    names = {s.name: s for s in tracer.spans}
    assert len(tracer.spans) == 2  # the paused call recorded nothing
    assert names["leaf"].parent == names["outer"].sid
    assert tracer.counters["leaf.calls"] == 1
    assert sum(tracing.self_times(tracer.spans).values()) == (
        names["outer"].end - names["outer"].start
    )


def test_tracer_export_round_trips():
    tracer = tracing.Tracer()
    tracer.call("x", lambda: None, (), {})
    tracer.add("n", 3)
    shipped = json.loads(json.dumps(tracer.export()))
    assert tracing.load_spans(shipped["spans"]) == tracer.spans
    assert shipped["counters"] == {"n": 3}


def test_layer_metrics_cover_every_per_layer_name():
    spans = [_span(1, None, "session.run_batch", 0, 2_000_000),
             _span(2, 1, "index.query", 0, 1_000_000),
             _span(3, 2, "index.candidates", 0, 400_000)]
    counters = {"index.candidates": 30, "index.queries": 3, "index.eclipse": 6}
    metrics = layers.layer_metrics(spans, counters, {"cache_hits": 1, "cost_requests": 4},
                                   extra={"plan.chosen_over_best": 2.0,
                                          "trace.overhead_frac": 0.01,
                                          "trace.self_sum_over_root": 1.0})
    assert list(metrics) == [name for name, _ in layers.PER_LAYER]
    assert metrics["index.adjust_ms"] == pytest.approx(0.6)
    assert metrics["index.candidates_per_query"] == 10
    assert metrics["index.eclipse_per_candidate"] == pytest.approx(0.2)
    assert metrics["session.run_batch_self_ms"] == pytest.approx(1.0)
    assert metrics["advisor.memo_hit_ratio"] == 0.25


def test_check_batch_counts_missing_answers_as_failed():
    import numpy as np
    from perfbench import workloads

    out = workloads.Pass()
    answer = types.SimpleNamespace(indices=np.array([1, 2]))
    workloads._check_batch(out, [answer], [np.array([1, 2])] * 3, "batch")
    assert (out.attempted, out.failed) == (3, 2)


# ----------------------------------------------------------------------
# Pinned environment and leak check
# ----------------------------------------------------------------------
def test_pin_environment_clears_and_records(monkeypatch):
    # Let monkeypatch restore every pinned variable: a CI leg may export them
    # for the rest of the session.
    for name in hygiene.PINNED_ENV:
        monkeypatch.delenv(name, raising=False)
    monkeypatch.setenv("REPRO_KERNEL_THREADS", "2")
    prior = hygiene.pin_environment()
    assert prior["REPRO_KERNEL_THREADS"] == "2"
    assert prior["REPRO_KERNEL_BACKEND"] is None
    assert not any(name in os.environ for name in hygiene.PINNED_ENV)
    assert hygiene.host_record(5, prior)["env_cleared"] == {"REPRO_KERNEL_THREADS": "2"}


def test_leak_check_reports_scratch_dirs_and_listeners(tmp_path):
    # Other tests may leave pool processes or threads behind; look only at
    # the leaks made here.
    check = hygiene.LeakCheck(str(tmp_path))
    (tmp_path / "repro-service-x").mkdir()
    with socket.socket() as listener:
        listener.bind(("127.0.0.1", 0))
        listener.listen()
        port = listener.getsockname()[1]
        leaks = check.find(ports=[port])
    assert any("repro-service-x" in leak for leak in leaks)
    assert any(f":{port}" in leak for leak in leaks)
    assert (tmp_path / "repro-service-x").is_dir()  # reported, never removed
    assert not any(f":{port}" in leak for leak in check.find(ports=[port]))


# ----------------------------------------------------------------------
# BENCHMARK.json agrees with the code
# ----------------------------------------------------------------------
def test_benchmark_json_matches_the_code():
    from perfbench import run

    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(layers.PER_LAYER)
