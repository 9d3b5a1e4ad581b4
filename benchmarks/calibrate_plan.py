"""Measure the planner's cost constants and the arm grid they are checked on.

Runs every batch arm the planner can pick — the batched transformation, the
cutting and quadtree indexes and (for small ``n``) the baseline — warm, on
ANTI/INDE/CORR x d in {2, 3, 4} x n in {5k, 20k, 50k}, with one fixed set of
50 ratio specs per ``d``.  Every arm's answers must equal the transformation's
(the script fails otherwise).  Besides the end-to-end time of each arm it times
the layers the planner prices separately: the corner GEMM, each mapped-space
skyline substrate, the index order vector, tree probe and adjustment pass,
and the index builds.

From those layer timings it fits the seconds-per-operation constants of
``repro.core.plan`` (``t = overhead + slope * ops`` per layer, weighted least
squares on the relative error) and writes grid and constants to
``benchmarks/plan_calibration.json``.  The constants are then copied by hand
into ``CALIBRATION`` in ``src/repro/core/plan.py``; ``tests/core/
test_plan_calibration.py`` checks that the two agree and that ``auto``
stays within 1.5x of the best measured arm on every row.

Every timed quantity is the median of several runs, not the fastest one,
and the batch arms of a cell are timed in interleaved rounds (one batch of
each arm per round), so a host that slows down for a few seconds slows all
arms of the cell alike instead of misranking them.  Each arm also records
``query_spread``: (max - min) / median of its rounds.  Index builds are timed
on ``BUILD_REPEATS`` fresh sessions.

Run single-threaded on an idle host::

    PYTHONPATH=src python benchmarks/calibrate_plan.py [--output PATH]

``--refit`` re-derives the constants from an existing grid without timing.
Index arms whose pair arena exceeds ``MAX_INDEX_PAIRS`` are not run (their
builds take minutes and gigabytes; they are recorded as ``skipped``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path
from typing import Dict, List, Sequence

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

# Single-threaded, unbudgeted kernels: the constants describe one core.
for _name in ("REPRO_KERNEL_THREADS", "REPRO_KERNEL_BACKEND", "REPRO_INDEX_BUDGET_MB",
              "REPRO_KERNEL_MEMORY_CAP_MB"):
    os.environ.pop(_name, None)

from repro import DatasetSession, generate_dataset  # noqa: E402
from repro.core import plan as P  # noqa: E402
from repro.core.baseline import eclipse_baseline_indices  # noqa: E402
from repro.core.weights import make_ratio_vector  # noqa: E402
from repro.errors import DegenerateHyperplaneError  # noqa: E402
from repro.perf.executor import parallel_matmul  # noqa: E402
from repro.skyline.api import skyline_indices  # noqa: E402

OUTPUT = ROOT / "benchmarks" / "plan_calibration.json"
FAMILIES = ("ANTI", "INDE", "CORR")
DIMS = (2, 3, 4)
SIZES = (5_000, 20_000, 50_000)
NUM_QUERIES = 50
#: Timed runs per quantity (and interleaved rounds of the batch arms).
REPEATS = 5
#: Index layers run for seconds per pass on the larger cells: fewer repeats.
INDEX_REPEATS = 3
#: Fresh-session builds timed per index arm.
BUILD_REPEATS = 3
SEED = 1000
#: Index arms above this many intersection pairs are not run.
MAX_INDEX_PAIRS = 300_000
#: The baseline arm (one query, O(n^2) screens) runs only up to this n.
MAX_BASELINE_N = 20_000


def ratio_specs(rng: np.random.Generator, count: int, dims: int) -> List[list]:
    """Strictly positive ratio ranges: lows in [0.2, 1), highs 1.5-4x above."""
    specs = []
    for _ in range(count):
        lows = rng.uniform(0.2, 1.0, size=dims - 1)
        highs = lows * rng.uniform(1.5, 4.0, size=dims - 1)
        specs.append([(float(lo), float(hi)) for lo, hi in zip(lows, highs)])
    return specs


def timed(fn) -> float:
    """Wall time of one call of ``fn`` (seconds)."""
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def median_of(fn, repeats: int = REPEATS) -> float:
    """Median wall time of ``repeats`` calls of ``fn`` (seconds)."""
    return float(np.median([timed(fn) for _ in range(repeats)]))


def same_answers(got, want, what: str) -> None:
    for i, (g, w) in enumerate(zip(got, want)):
        if not np.array_equal(np.asarray(g), np.asarray(w)):
            raise SystemExit(f"calibration aborted: {what} spec {i} differs from transform")


def measure_cell(family: str, d: int, n: int) -> Dict[str, object]:
    data = generate_dataset(family, n, d, seed=SEED)
    specs = ratio_specs(np.random.default_rng(SEED + d), NUM_QUERIES, d)
    session = DatasetSession(data)
    u = int(session.skyline().size)
    unique_points = session._unique_skyline()[0]  # the rows the executor maps
    uu = int(unique_points.shape[0])
    corners = 2 ** (d - 1)
    pairs = int(P.distinct_pairs(u, uu))
    row: Dict[str, object] = {
        "family": family, "d": d, "n": n, "num_queries": NUM_QUERIES,
        "skyline": u, "unique_skyline": uu, "pairs": pairs, "arms": {}, "layers": {},
    }
    arms: Dict[str, Dict[str, object]] = row["arms"]
    layers: Dict[str, object] = row["layers"]

    # -- transformation arm, by layer --------------------------------------
    session.run_batch(specs, method="transform")
    want = [r.indices for r in session.run_batch(specs, method="transform")]
    arms["transform"] = {"build_ms": 0.0, "substrate": session.last_plan.mapped_skyline_method}
    batches = {"transform": lambda: session.run_batch(specs, method="transform")}

    vectors = [make_ratio_vector(spec, d) for spec in specs]
    all_corners = np.vstack([rv.corner_weight_vectors() for rv in vectors])
    layers["gemm_ms"] = 1e3 * median_of(lambda: parallel_matmul(unique_points, all_corners.T)) / NUM_QUERIES
    scores = parallel_matmul(unique_points, all_corners.T)
    blocks = [scores[:, i * corners:(i + 1) * corners] for i in range(NUM_QUERIES)]
    substrates = ("sweep2d", "sfs", "divide_conquer") if corners == 2 else ("sfs", "divide_conquer")
    mapped = {}
    reference = None
    for substrate in substrates:
        answers = [np.sort(skyline_indices(b, method=substrate)) for b in blocks]
        if reference is None:
            reference = answers
        same_answers(answers, reference, f"mapped skyline {substrate}")
        mapped[substrate] = 1e3 * median_of(
            lambda s=substrate: [skyline_indices(b, method=s) for b in blocks]
        ) / NUM_QUERIES
    layers["mapped_skyline_ms"] = mapped

    # -- index arms: builds and layers ---------------------------------------
    for backend in P.INDEX_METHODS:
        if pairs > MAX_INDEX_PAIRS:
            arms[backend] = {"skipped": f"{pairs} pairs > {MAX_INDEX_PAIRS}"}
            continue
        start = time.perf_counter()
        try:
            index = session.index_for(backend)
        except DegenerateHyperplaneError as exc:
            arms[backend] = {"skipped": f"degenerate: {exc}"[:120]}
            continue
        builds = [time.perf_counter() - start]
        for _ in range(BUILD_REPEATS - 1):
            fresh = DatasetSession(data)
            fresh.skyline()
            builds.append(timed(lambda b=backend: fresh.index_for(b)))
        same_answers([r.indices for r in session.run_batch(specs, method=backend)], want, backend)
        batches[backend] = lambda b=backend: session.run_batch(specs, method=b)
        boxes = [index._query_box(rv) for rv in vectors]
        order = index.order_vector_index
        inter = index.intersection_index
        ov = median_of(lambda: order.initial_states(boxes), INDEX_REPEATS)
        probe = median_of(lambda: inter.candidates_many(boxes), INDEX_REPEATS)
        candidates = sum(len(c) for c in inter.candidates_many(boxes))
        many = median_of(lambda: index.query_indices_many(vectors), INDEX_REPEATS)
        arms[backend] = {"build_ms": 1e3 * float(np.median(builds))}
        layers[backend] = {
            "order_vector_ms": 1e3 * ov / NUM_QUERIES,
            "probe_ms": 1e3 * probe / NUM_QUERIES,
            "adjust_ms": 1e3 * max(0.0, many - ov - probe) / NUM_QUERIES,
            "candidates_per_query": candidates / NUM_QUERIES,
        }

    # -- batch arms end to end, in interleaved rounds ------------------------
    rounds: Dict[str, List[float]] = {arm: [] for arm in batches}
    for _ in range(REPEATS):
        for arm, batch in batches.items():
            rounds[arm].append(timed(batch))
    for arm, times in rounds.items():
        seconds = float(np.median(times))
        arms[arm]["query_ms"] = 1e3 * seconds / NUM_QUERIES
        arms[arm]["query_spread"] = (max(times) - min(times)) / seconds

    # -- baseline (one query; the arm is per-query and shares nothing) -----
    if n <= MAX_BASELINE_N:
        got = eclipse_baseline_indices(data, vectors[0])
        same_answers([np.sort(got)], want[:1], "baseline")
        seconds = timed(lambda: eclipse_baseline_indices(data, vectors[0]))
        arms["baseline"] = {"build_ms": 0.0, "query_ms": 1e3 * seconds}
    for arm in arms.values():
        if "query_ms" in arm:
            arm["ms_per_query"] = arm["build_ms"] / NUM_QUERIES + arm["query_ms"]
    return row


# ----------------------------------------------------------------------
# Fitting
# ----------------------------------------------------------------------
def fit_linear(features: Sequence[Sequence[float]], ts: Sequence[float], scale=None) -> List[float]:
    """Non-negative coefficients of ``t = c0 + c1 * f1 + ...``.

    ``features`` holds one ``(f1, ...)`` tuple per measurement.  Least
    squares on the error relative to ``scale`` (default ``t`` itself), so
    small and large cells weigh alike; the most negative coefficient is
    dropped and the rest refitted until none is negative.  Measurements
    whose scale is zero (an index adjustment pass is timed as the
    difference of two noisy timings and can come out at zero) carry no
    relative error and are left out.
    """
    t = np.asarray(ts, dtype=float)
    scale = t if scale is None else np.asarray(scale, dtype=float)
    kept = scale > 0
    t, w = t[kept], 1.0 / scale[kept]
    features = np.asarray(features, dtype=float)[kept]
    design = np.column_stack([np.ones_like(t), features]) * w[:, None]
    active = list(range(design.shape[1]))
    while True:
        coef = np.zeros(design.shape[1])
        coef[active] = np.linalg.lstsq(design[:, active], t * w, rcond=None)[0]
        if coef.min() >= 0.0:
            return [float(c) for c in coef]
        active.remove(int(np.argmin(coef)))


def fit_affine(xs: Sequence[float], ts: Sequence[float], scale=None) -> List[float]:
    """``[overhead, slope]`` (both >= 0) of ``t = overhead + slope * x``."""
    return fit_linear([(x,) for x in xs], ts, scale)


def fit(rows: Sequence[Dict[str, object]]) -> Dict[str, object]:
    """Fit every constant of ``repro.core.plan.CALIBRATION`` from the grid."""
    gemm, ov, base = [], [], []
    sky: Dict[str, Dict[str, list]] = {}
    probe: Dict[str, list] = {}
    adjust: Dict[str, list] = {}
    build: Dict[str, list] = {}
    share: Dict[str, list] = {}
    resid_t, resid_i = [], []
    for row in rows:
        d, n, uu, u, pairs = row["d"], row["n"], row["unique_skyline"], row["skyline"], row["pairs"]
        layers, arms = row["layers"], row["arms"]
        mapped = layers["mapped_skyline_ms"]
        gemm.append((P.gemm_ops(uu, d), layers["gemm_ms"] / 1e3))
        for substrate, ms in mapped.items():
            sky.setdefault(str(2 ** (d - 1)), {}).setdefault(substrate, []).append((uu, ms / 1e3))
        transform = arms["transform"]
        resid_t.append((u, transform["query_ms"] - layers["gemm_ms"] - mapped[transform["substrate"]],
                        transform["query_ms"]))
        for backend in P.INDEX_METHODS:
            if backend not in layers:
                continue
            key = P.index_layout(backend, d)
            lay = layers[backend]
            ov.append((P.order_vector_ops(u, d), lay["order_vector_ms"] / 1e3))
            cand = lay["candidates_per_query"] * max(1, d - 1)
            probe.setdefault(key, []).append((cand, lay["probe_ms"] / 1e3))
            adjust.setdefault(key, []).append((cand, lay["adjust_ms"] / 1e3))
            dims = max(1, d - 1)
            build.setdefault(key, []).append(
                ((u * (u - 1) // 2 * dims, pairs * dims), arms[backend]["build_ms"] / 1e3)
            )
            if pairs:
                share.setdefault(key, []).append(lay["candidates_per_query"] / pairs)
            query_ms = arms[backend]["query_ms"]
            resid_i.append((u, query_ms - sum(
                lay[k] for k in ("order_vector_ms", "probe_ms", "adjust_ms")), query_ms))
        if "baseline" in arms:
            base.append((P.baseline_ops(n, d), arms["baseline"]["query_ms"] / 1e3))

    def affine(points):
        xs, ts = zip(*points)
        return fit_affine(xs, ts)

    def residual(points):
        # What each arm pays per query beyond its priced layers (ratio
        # parsing, expanding, sorting and wrapping up to u result rows),
        # fitted relative to the arm's whole per-query time.
        xs, ms, totals = zip(*points)
        return fit_affine(xs, np.asarray(ms) / 1e3, scale=np.asarray(totals) / 1e3)

    return {
        "gemm": affine(gemm),
        "mapped_skyline": {
            c: {s: affine(p) for s, p in sorted(by.items())} for c, by in sorted(sky.items())
        },
        "order_vector": affine(ov),
        "probe": {k: affine(p) for k, p in sorted(probe.items())},
        "adjust": {k: affine(p) for k, p in sorted(adjust.items())},
        "build": {k: fit_linear(*zip(*p)) for k, p in sorted(build.items())},
        # The largest measured share, so the index is never priced below
        # what its worst cell probed.
        "candidate_share": {k: float(max(v)) for k, v in sorted(share.items())},
        "baseline": affine(base),
        "transform_query": residual(resid_t),
        "index_query": residual(resid_i),
    }


def python_literal(constants: Dict[str, object]) -> str:
    """The ``CALIBRATION = {...}`` block to paste into ``plan.py``."""

    def fmt(value, indent):
        pad = " " * indent
        if isinstance(value, dict):
            inner = "".join(
                f'{pad}    "{k}": {fmt(v, indent + 4)},\n' for k, v in value.items()
            )
            return "{\n" + inner + pad + "}"
        if isinstance(value, list):
            return "[" + ", ".join(f"{v:.6g}" for v in value) + "]"
        return f"{value:.6g}"

    return "CALIBRATION: Dict[str, object] = " + fmt(constants, 0)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--output", type=Path, default=OUTPUT)
    parser.add_argument("--refit", action="store_true",
                        help="re-fit the constants of an existing grid without timing")
    args = parser.parse_args(argv)
    if args.refit:
        payload = json.loads(args.output.read_text())
        rows = payload["rows"]
    else:
        rows = []
        for family in FAMILIES:
            for d in DIMS:
                for n in SIZES:
                    start = time.perf_counter()
                    row = measure_cell(family, d, n)
                    rows.append(row)
                    arms = " ".join(
                        f"{k}={v['ms_per_query']:.3f}" for k, v in row["arms"].items()
                        if "ms_per_query" in v
                    )
                    print(f"{family} d={d} n={n} u={row['skyline']}/{row['unique_skyline']} "
                          f"ms/q: {arms}  ({time.perf_counter() - start:.1f} s)", flush=True)
        payload = {
            "host": {"cpu_count": os.cpu_count(), "python": platform.python_version(),
                     "numpy": np.__version__, "machine": platform.machine()},
            "num_queries": NUM_QUERIES, "repeats": REPEATS, "index_repeats": INDEX_REPEATS,
            "build_repeats": BUILD_REPEATS, "seed": SEED,
            "rows": rows,
        }
    payload["constants"] = fit(rows)
    args.output.write_text(json.dumps(payload, indent=1) + "\n")
    print(f"wrote {args.output}")
    print(python_literal(payload["constants"]))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
