"""Run one benchmark workload and print its metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload batch-anti --seed 1 --seconds 28 --trace 0

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json`` with
tracing off.  ``--trace 1`` runs two passes that do identical, fixed work:
one untraced and one with every layer's entry points wrapped in spans.  It
prints the per-layer metrics, the end-to-end metrics of both passes side by
side with the median read latency, and their relative difference (the
tracing overhead).

Lines starting with ``#`` are the human-readable report; the last line is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.  The exit
code is 0 when every answer was correct and nothing leaked, 1 otherwise,
and 2 when the program's source is missing or the arguments are bad.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import sys
import tempfile
from dataclasses import dataclass
from typing import Dict, List, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


@dataclass(frozen=True)
class Workload:
    """How one workload is run and reported."""

    name: str
    datasets: int          # datasets (ANTI) or set-ups (tcp) per measured run
    trace_ops: int         # operations of each pass of a traced run
    read_name: str         # what one read operation is called in the report


WORKLOADS = {
    w.name: w
    for w in (
        Workload("batch-anti", 8, 16, "batch"),
        Workload("stream-anti", 8, 24, "query"),
        Workload("tcp-inde", 5, 900, "query"),
    )
}

#: The end-to-end metrics every run prints.  Latencies are in the report
#: only: on the 2-vCPU host measured, the median TCP query latency moved
#: between 5 and 21 ms from run to run with the host's load, and tails and
#: update latencies moved more, beyond any bound a regression check can use.
#: On the closed loops, queries_per_s carries the same signal as latency; on
#: tcp-inde it is the open loop's fixed rate, and cpu_ms_per_query (CPU time
#: of the client, server and shard processes per query) is what the serving
#: path sets.
END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("queries_per_s", "1/s"),
    ("cpu_ms_per_query", "ms"),
)


def run_pass(workload: Workload, seed: int, seconds: Optional[float], max_ops: Optional[int],
             run_dir: str, tracer=None, datasets: Optional[int] = None):
    from perfbench import workloads as w

    count = workload.datasets if datasets is None else datasets
    if workload.name == "tcp-inde":
        return w.tcp_inde(seed, count, seconds, max_ops, run_dir, tracer)
    quiet = tracer.paused if tracer is not None else contextlib.nullcontext
    run = w.batch_anti if workload.name == "batch-anti" else w.stream_anti
    return run(seed, count, seconds, max_ops, quiet)


def end_to_end(p) -> Dict[str, float]:
    return {
        "setup_s": statistics.median(p.setup_s),
        "peak_rss_mb": p.peak_rss_mb,
        "queries_per_s": p.queries / p.window_s if p.window_s else 0.0,
        "cpu_ms_per_query": p.cpu_s * 1e3 / p.queries if p.queries else 0.0,
    }


def read_p50_ms(p) -> float:
    from perfbench import stats

    return stats.percentile([x * 1e3 for x in p.reads], 0.5)


def report(workload: Workload, p, label: str) -> List[str]:
    """The report lines of one pass, under the workload's own metric names."""
    from perfbench import stats

    lines = []
    e2e = end_to_end(p)
    lines.append(f"[{label}] setup_s {e2e['setup_s']:.4f} s "
                 f"(median of {len(p.setup_s)}: {', '.join(f'{s:.3f}' for s in p.setup_s)})")
    lines.append(f"[{label}] peak_rss_mb {e2e['peak_rss_mb']:.1f} MB")
    rate = p.failed / p.attempted if p.attempted else 0.0
    lines.append(f"[{label}] error_rate {rate:.6f} ({p.failed} of {p.attempted} answers and updates)")
    for key, values in ((workload.read_name, p.reads), ("update", p.updates)):
        if not values:
            continue
        ms = [x * 1e3 for x in values]
        lines.append(f"[{label}] {key}_p50_ms {stats.percentile(ms, 0.5):.3f} ms (n={len(ms)})")
        for q in (0.8, 0.9, 0.99):
            beyond = stats.samples_beyond(len(ms), q)
            note = "" if beyond >= stats.MIN_BEYOND else \
                f"; below the {stats.MIN_BEYOND}-sample rule, highest supported is " \
                f"p{round(stats.highest_supported(len(ms)) * 100)}"
            lines.append(f"[{label}] {key}_p{round(q * 100)}_ms {stats.percentile(ms, q):.3f} ms "
                         f"(n={len(ms)}, {beyond} beyond{note})")
    if workload.name == "tcp-inde" and p.reads:
        from perfbench.workloads import TCP_LATENCY_LIMIT_MS

        # A failed or refused request misses the limit whatever its time.
        p99 = stats.percentile([x * 1e3 for x in p.reads], 0.99)
        verdict = "met" if p99 <= TCP_LATENCY_LIMIT_MS and not p.failed else "MISSED"
        lines.append(f"[{label}] query latency limit {TCP_LATENCY_LIMIT_MS:g} ms at p99: {verdict}")
    lines.append(f"[{label}] queries_per_s {e2e['queries_per_s']:.3f} 1/s "
                 f"({p.queries} ratio specs in {p.window_s:.2f} s)")
    lines.append(f"[{label}] cpu_ms_per_query {e2e['cpu_ms_per_query']:.4f} ms "
                 f"({p.cpu_s:.3f} CPU s over {p.queries} ratio specs)")
    share = p.info.get("skyline_share")
    if share is not None:
        lines.append(f"[{label}] skyline share of n {share:.4f}")
    if p.info.get("chosen"):
        lines.append(f"[{label}] planner chose (per read op) {p.info['chosen']}")
    if "lateness" in p.info:
        late = p.info["lateness"]
        lines.append(f"[{label}] open loop at {p.queries / max(p.window_s, 1e-9):.1f} queries/s: "
                     f"generator lateness p50 {late['p50_ms']:.3f} ms, max {late['max_ms']:.3f} ms, "
                     f"late share {late['late_share']:.4f}; service time p50 "
                     f"{p.info['service_p50_ms']:.3f} ms; closed-loop capacity "
                     f"{p.info['capacity_per_s']:.1f} requests/s")
    for failure in p.failures:
        lines.append(f"[{label}] FAILED {failure}")
    return lines


def traced_run(workload: Workload, seed: int, run_dir: str):
    """Untraced and traced pass over the same fixed work; per-layer metrics."""
    from perfbench import layers, tracing, workloads as w

    base = run_pass(workload, seed, None, workload.trace_ops, run_dir, datasets=1)
    tracer = tracing.Tracer()
    layers.install(tracer)
    try:
        traced = run_pass(workload, seed, None, workload.trace_ops, run_dir, tracer, datasets=1)
    finally:
        tracer.uninstall()
    spans = list(tracer.spans)
    counters = dict(tracer.counters)
    extra = {"plan.chosen_over_best": 0.0}
    if workload.name == "tcp-inde":
        workers = traced.layer_inputs["workers"]
        orphans = [s for r in workers for s in tracing.load_spans(r["spans"]) if s.parent is None]
        children = [s for r in workers for s in tracing.load_spans(r["spans"]) if s.parent is not None]
        # Shard work runs while a supervisor call waits for it.
        waiting = [s for s in spans if s.name.startswith("supervisor.")]
        spans += tracing.attach(waiting, orphans) + children
        for r in workers:
            for key, value in r["counters"].items():
                counters[key] = counters.get(key, 0) + value
        session_stats: Dict[str, float] = {}
        for r in workers:
            for key, value in r["session_stats"].items():
                session_stats[key] = session_stats.get(key, 0) + value
        root = "client.query"
        others = dict(service=traced.info["service"], client=traced.info["client"],
                      server=traced.info["server"])
    else:
        sessions = traced.layer_inputs["sessions"]
        session_stats = layers.session_stats(sessions)
        root = "session.run_batch"
        others = {}
        extra["plan.chosen_over_best"] = w.chosen_over_best(
            traced, sessions[0], traced.layer_inputs["batches"])
    worst, checked = layers.self_sum_over_root(spans, root)
    extra["trace.self_sum_over_root"] = worst
    before, after = end_to_end(base), end_to_end(traced)
    before["read_p50_ms"], after["read_p50_ms"] = read_p50_ms(base), read_p50_ms(traced)
    extra["trace.overhead_frac"] = (after["read_p50_ms"] - before["read_p50_ms"]) / before["read_p50_ms"]
    if workload.name == "batch-anti" and (checked == 0 or abs(worst - 1.0) > 1e-9):
        traced.check(False, f"self times of a batch do not add up to its root span ({worst!r})")
    metrics = layers.layer_metrics(spans, counters, session_stats, extra=extra, **others)
    lines = report(workload, base, "untraced") + report(workload, traced, "traced")
    for key in before:
        diff = (after[key] - before[key]) / before[key] if before[key] else 0.0
        lines.append(f"[overhead] {key}: untraced {before[key]:.4f}, traced {after[key]:.4f}, "
                     f"trace_overhead_frac {diff:+.4f}")
    lines.append(f"[trace] {len(spans)} spans; self times checked against {checked} '{root}' roots")
    return base, traced, metrics, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: the program's source ({SRC}/repro) is missing", file=sys.stderr)
        return 2
    if not args.seconds > 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    # Import the benchmark as a package and the program from its source tree.
    sys.path[:] = [ROOT, SRC] + [p for p in sys.path[1:] if p not in (ROOT, SRC)]
    from perfbench import hygiene, layers

    prior_env = hygiene.pin_environment()
    workload = WORKLOADS[args.workload]
    run_dir = os.path.join(ROOT, "perfbench", "_run", f"{workload.name}-{os.getpid()}")
    os.makedirs(run_dir)
    # The service's own scratch directories go here, where the leak check looks.
    tempfile.tempdir = run_dir
    leaks = hygiene.LeakCheck(run_dir)

    lines = [f"perfbench {workload.name} seed={args.seed} seconds={args.seconds:g} trace={args.trace}",
             f"host {json.dumps(hygiene.host_record(args.seed, prior_env), sort_keys=True)}"]
    if args.trace:
        base, traced, values, more = traced_run(workload, args.seed, run_dir)
        passes = [base, traced]
        units = dict(layers.PER_LAYER)
        lines += more
    else:
        p = run_pass(workload, args.seed, args.seconds, None, run_dir)
        passes = [p]
        values = end_to_end(p)
        units = dict(END_TO_END)
        lines += report(workload, p, "measured")
    ports = [port for p in passes for port in p.info.get("ports", ())]
    pids = [pid for p in passes for pid in p.info.get("pids", ())]
    found = leaks.find(ports=ports, pids=pids)
    for leak in found:
        lines.append(f"LEAK {leak}")
        print(f"perfbench: LEAK {leak}", file=sys.stderr)
    if found:
        lines.append(f"leaving {run_dir} in place for inspection")
    else:
        shutil.rmtree(run_dir)
        with contextlib.suppress(OSError):  # other runs may still use it
            os.rmdir(os.path.dirname(run_dir))
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    correct = failed == 0 and not found
    for line in lines:
        print("# " + line)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
