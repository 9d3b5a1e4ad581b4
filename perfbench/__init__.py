"""Layered benchmark of the eclipse reproduction.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>``
runs one workload from ``BENCHMARK.json`` through the public API, checks
every answer against an independent reference, and prints one JSON result
line.  Modules:

``stats``      percentiles, the tail-sample rule, open-loop accounting.
``tracing``    in-memory spans and counters, self time from nested spans.
``layers``     which public entry points are wrapped, and the per-layer
               metrics computed from their spans.
``workloads``  the three workloads and their answer checks.
``hygiene``    pinned environment, host record, leak checks.
``run``        the command line.
"""
