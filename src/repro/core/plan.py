"""Query planning: the measured cost model behind every dispatch choice.

This module is the bottom layer of the plan → session → kernels stack: it
knows nothing about datasets or algorithms, only about their *costs*.  It
replaces two hand-rolled heuristics that used to live elsewhere:

* the ``if``/``else`` method selection of the old :class:`EclipseQuery`
  facade (one-shot transform vs. amortised index queries), and
* the purely d-based skyline ``auto`` dispatch of ``repro.skyline.api``.

Query estimates are **predicted seconds**: each batch arm is priced from
the layers the executor actually runs (the corner GEMM and corner-space
skyline over the distinct skyline rows for the transformation; the order
vector, tree probe and adjustment pass over the measured candidate share
of the pair arena for the indexes; the index build per pair), with
seconds-per-operation constants (:data:`CALIBRATION`) fitted by
``benchmarks/calibrate_plan.py`` from a checked-in grid of warm timings.
Where the caller knows better (a :class:`~repro.core.session.DatasetSession`
that has already computed the raw-space skyline passes the *actual*
skyline size ``u`` and its number of distinct rows), the model uses the
measurement instead of the estimate.  The update arm (:func:`plan_update`)
still compares abstract element-op counts of one artifact's two paths.

Everything here is pure arithmetic over ``(n, d, num_queries)``; the module
must not import from ``repro.skyline`` or its ``repro.core`` siblings so
that both can depend on it without cycles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral
from typing import Dict, Optional, Tuple

from repro.errors import AlgorithmNotSupportedError, InvalidPlanInputError

#: Canonical eclipse method names; several aliases map onto them.
METHOD_ALIASES: Dict[str, str] = {
    "base": "baseline",
    "baseline": "baseline",
    "tran": "transform",
    "transform": "transform",
    "quad": "quadtree",
    "quadtree": "quadtree",
    "cutting": "cutting",
    "cut": "cutting",
    "auto": "auto",
}

#: Canonical method names in the paper's presentation order.
METHODS: Tuple[str, ...] = ("baseline", "transform", "quadtree", "cutting")

#: The index-backed methods (one amortised build, cheap repeated queries).
INDEX_METHODS: Tuple[str, ...] = ("quadtree", "cutting")

#: Below this many points the recursion overhead of divide-and-conquer beats
#: its pruning gains and one block-SFS pass through the kernels is faster.
SMALL_N_SFS_CUTOFF = 512

#: Measured seconds of every layer a batch arm runs, fitted by
#: ``benchmarks/calibrate_plan.py`` from the grid checked in as
#: ``benchmarks/plan_calibration.json`` (ANTI/INDE/CORR x d in {2, 3, 4} x
#: n in {5k, 20k, 50k}, 50-spec batches, serial kernels, one core of a
#: 2-vCPU x86-64 host).  Each layer is ``[overhead_s, seconds_per_op]`` of
#: ``t = overhead + slope * ops`` per query, with ``ops`` counted by the
#: functions named beside it; index layers are keyed by
#: :func:`index_layout`.
#:
#: * ``gemm`` — the corner GEMM over the unique skyline rows
#:   (:func:`gemm_ops`);
#: * ``mapped_skyline`` — one corner-space skyline per corner count and
#:   substrate, per distinct skyline row;
#: * ``order_vector`` — the reference-corner order vector
#:   (:func:`order_vector_ops`);
#: * ``probe`` / ``adjust`` — the tree probe and the adjustment pass, per
#:   candidate pair and dual dimension;
#: * ``candidate_share`` — candidates per probe over the pair arena
#:   (:func:`distinct_pairs`), the largest share measured on the grid;
#: * ``build`` — ``[overhead, per enumerated pair, per stored pair]`` of one
#:   index build, pairs counted per dual dimension: every row pair
#:   ``u (u - 1) / 2`` is enumerated, only :func:`distinct_pairs` are
#:   stored and indexed (the skyline the build starts from is shared with
#:   the transformation and not charged);
#: * ``baseline`` — one baseline query (:func:`baseline_ops`);
#: * ``transform_query`` / ``index_query`` — the rest of each arm's
#:   per-query time (ratio parsing, expanding, sorting and wrapping the
#:   result), per skyline row: end-to-end minus the measured layers.
CALIBRATION: Dict[str, object] = {
    "gemm": [8.60509e-08, 1.56792e-10],
    "mapped_skyline": {
        "2": {
            "divide_conquer": [8.21782e-07, 7.71051e-06],
            "sfs": [2.1337e-05, 6.06313e-06],
            "sweep2d": [8.25068e-06, 2.84064e-06],
        },
        "4": {
            "divide_conquer": [4.36863e-06, 4.33277e-06],
            "sfs": [2.67294e-05, 1.26278e-06],
        },
        "8": {
            "divide_conquer": [9.13391e-07, 7.34782e-06],
            "sfs": [2.54639e-05, 7.94855e-07],
        },
    },
    "order_vector": [6.16246e-06, 7.61355e-10],
    "probe": {
        "cutting": [3.30422e-06, 1.8908e-07],
        "quadtree": [2.88208e-06, 1.95977e-07],
        "sorted": [3.40168e-06, 5.05715e-08],
    },
    "adjust": {
        "cutting": [2.36719e-05, 7.44967e-08],
        "quadtree": [2.22336e-05, 5.14655e-08],
        "sorted": [2.58674e-05, 2.52873e-07],
    },
    "build": {
        "cutting": [0.000451494, 3.56211e-08, 2.07034e-07],
        "quadtree": [0.000465323, 3.72768e-08, 4.32497e-06],
        "sorted": [0.000488654, 5.53558e-08, 1.37761e-05],
    },
    "candidate_share": {
        "cutting": 0.762146,
        "quadtree": 0.762146,
        "sorted": 0.5825,
    },
    "baseline": [0.00287978, 1.52688e-11],
    "transform_query": [2.91294e-05, 8.96312e-09],
    "index_query": [1.64261e-05, 7.90983e-09],
}

# The update arm (:func:`plan_update`) compares the in-place maintenance of
# one artifact against rebuilding that same artifact; it is not calibrated
# in seconds yet and keeps the abstract element-op constants below.

#: Per-pair constant of the *quadtree* index build (``d >= 3``).  The
#: flattened level-order engine removed the per-node Python recursion, but
#: the quadtree's midpoint splits separate poorly when the dual domain
#: dwarfs the region where the hyperplanes vary (the default
#: ``[-128, 0]^{d-1}`` box), so each level re-masks nearly the whole pair
#: set across ``2^{d-1}`` children: measured ~11-55 µs/pair on ANTI/INDE
#: workloads at ``d ∈ {3, 4}`` (PR 3), i.e. thousands of element-ops.
PAIR_BUILD_FACTOR_QUAD = 2000.0

#: Per-pair constant of the *cutting* index build (``d >= 3``).  The
#: flattened engine's load-reduction rollback stops cuts that do not
#: actually reduce cell load, so degenerate regions are abandoned instead
#: of re-masked level after level: measured ~0.3-0.8 µs/pair on the same
#: workloads (PR 3) — roughly 30 element-ops per pair.
PAIR_BUILD_FACTOR_CUTTING = 30.0

#: Per-pair constant of the two-dimensional build: the sorted binary-search
#: structure is a vectorised argsort, with no tree levels to pay for.
PAIR_BUILD_FACTOR_2D = 10.0

#: Per-element constant of one incremental *skyline* maintenance pass
#: (PR 4): the insert screen is one ``(b, u, d)`` dominance broadcast, the
#: delete shadow pass one ``(buffer, deleted, d)`` broadcast — a handful of
#: comparisons per element, same order as the kernels they run on.
UPDATE_SKYLINE_FACTOR = 4.0

#: Per appended intersection-pair constant of an incremental *index* update
#: (PR 5): the pair-enumeration kernel, the backend merge (the sorted
#: scatter-merge or the tree's overflow routing with amortised subtree
#: rebuilds), and the slot bookkeeping.  The PR 4 value (60) silently
#: absorbed an ``O(m)``-row re-concatenation of the full arenas per batch;
#: with the capacity-doubling arenas only the appended rows are touched.
#: Measured ~1.5 µs per appended pair total (~0.5-0.7 µs per dual
#: dimension) on ANTI update streams at d ∈ {3, 4}, n = 20k — flat in the
#: arena size, where the old path scaled with ``m``.  The arena-copy share
#: is priced separately by :data:`ARENA_GROWTH_FACTOR`.
PAIR_UPDATE_FACTOR = 40.0

#: Amortised arena-growth cost per appended pair: geometric doubling copies
#: every row at most ~2 extra times over its lifetime (a plain memcpy per
#: element), plus the tree backends' amortised overflow/subtree-rebuild
#: share.  Modelled explicitly (instead of being smeared into
#: :data:`PAIR_UPDATE_FACTOR`, as the PR 4 constant did with the full-copy
#: cost) so the in-place arm's estimate tracks the bytes actually moved.
ARENA_GROWTH_FACTOR = 8.0

#: Per *stored* pair cost of one in-place arena compaction: a vectorised
#: renumber-and-rewrite pass over every pair/sorted/tree-item row (alive and
#: dead), with no tree restructuring and no pair re-enumeration.  Measured
#: 0.07-0.15 µs/pair (~0.03-0.05 µs per dual dimension) at m up to 3.9M —
#: 6.8x-23x faster than the full rebuild it replaces on the same data,
#: which is why tripping the dead-slot threshold now compacts instead of
#: rebuilding.
COMPACT_FACTOR = 5.0

#: Above this fraction of dead (retired but uncompacted) hyperplane slots
#: the arenas are reclaimed regardless of the per-batch arithmetic: dead
#: pairs tax every candidate set until the dead rows go.  The cost model
#: then chooses between an in-place compaction (:data:`COMPACT_FACTOR`,
#: the usual winner) and a full rebuild.
MAX_DEAD_FRACTION = 0.5

#: Fraction of the ideal per-thread speedup the parallel kernels retain
#: (PR 7).  The executor's worker threads run numpy comparisons that
#: release the GIL, but chunk dispatch, the divided memory cap (smaller
#: blocks), and memory-bandwidth contention eat part of the ideal scaling:
#: effective speedup = ``1 + PARALLEL_EFFICIENCY * (threads - 1)``, i.e.
#: ~2.8x at 4 threads, capped by the cores the host actually has.
PARALLEL_EFFICIENCY = 0.6

#: Share of the per-pair index-build cost (the ``build`` slopes of
#: :data:`CALIBRATION`, and :data:`PAIR_BUILD_FACTOR_QUAD` /
#: :data:`PAIR_BUILD_FACTOR_CUTTING` in the update arm) that rides the
#: parallel kernels — the pairwise-intersection enumeration
#: and the skyline prefilter screens.  The rest (level-batched tree
#: structuring, argsort regrouping, cut sampling) is sequential per level
#: and does not scale with the executor, which is why index builds gain
#: less from threads than the screens and GEMMs do — and why the planner's
#: build-vs-transform break-even shifts *toward* the transform as threads
#: grow.  The same share applies to :data:`PAIR_UPDATE_FACTOR` (pair
#: enumeration parallel, arena merge sequential).
PAIR_BUILD_PARALLEL_SHARE = 0.25

#: Fraction of the ideal per-worker speedup the *process* backend retains
#: (PR 9).  Lower than :data:`PARALLEL_EFFICIENCY`: on top of the thread
#: backend's dispatch and bandwidth losses, every process dispatch pays the
#: shared-memory export copies, per-group task pickling, and result IPC.
#: Measured on the PR 9 bench sweep against the thread backend's re-validated
#: (unchanged) constant.
PROCESS_EFFICIENCY = 0.45

#: Fixed element-op cost of one process-backend dispatch — the export
#: copies into pooled shared segments, worker attach, task pickling, and
#: result IPC.  Measured at ~1-4 ms per dispatch, i.e. a few million of the
#: operations each priced term counts; it is the floor
#: that keeps small kernels priced honestly under ``backend="process"``.
PROCESS_DISPATCH_FLOOR_OPS = 2.0e6

#: Kernel work (element-ops) below which the process backend is modeled —
#: and, via ``MIN_PROCESS_DISPATCH_BYTES`` in the executor, actually
#: executed — as serial: under this floor the dispatch overhead exceeds any
#: parallel gain, so tiny inputs never leave the calling process.
MIN_PROCESS_PARALLEL_OPS = 4.0e6


def parallel_speedup(
    threads: int, backend: str = "thread", work: Optional[float] = None
) -> float:
    """Effective kernel speedup of ``threads`` executor workers.

    ``threads <= 1`` is exactly 1.0 (the serial code path), as is the
    ``"serial"`` backend at any thread count.  The linear
    :data:`PARALLEL_EFFICIENCY` model deliberately ignores the host's
    physical core count — the plan must be a pure function of its inputs
    so tests and snapshots reproduce across machines; callers that know
    their core budget pass an appropriate ``threads``.

    ``backend="process"`` (PR 9) uses :data:`PROCESS_EFFICIENCY` and, when
    the caller supplies the kernel's ``work`` (element-ops), applies the
    measured dispatch-overhead floor: below
    :data:`MIN_PROCESS_PARALLEL_OPS` the dispatch stays serial (speedup
    1.0), above it the fixed :data:`PROCESS_DISPATCH_FLOOR_OPS` cost is
    amortised into the effective speedup, so small kernels approach 1.0
    smoothly instead of pretending the ideal scaling.  The default
    ``backend="thread"`` ignores ``work`` and reproduces the PR 7 model
    bit for bit.
    """
    count = max(1, int(threads))
    if count == 1 or backend == "serial":
        return 1.0
    if backend == "process":
        if work is not None and work < MIN_PROCESS_PARALLEL_OPS:
            return 1.0
        ideal = 1.0 + PROCESS_EFFICIENCY * (count - 1)
        if work is None or work <= 0.0:
            return ideal
        return max(1.0, work / (work / ideal + PROCESS_DISPATCH_FLOOR_OPS))
    return 1.0 + PARALLEL_EFFICIENCY * (count - 1)


def canonical_method(method: str) -> str:
    """Resolve a method alias (``"quad"``, ``"tran"``, ...) to its canonical name."""
    try:
        return METHOD_ALIASES[method.lower()]
    except (KeyError, AttributeError):
        raise AlgorithmNotSupportedError(
            f"unknown eclipse method {method!r}; choose from "
            f"{sorted(set(METHOD_ALIASES))}"
        ) from None


# ----------------------------------------------------------------------
# Skyline substrate
# ----------------------------------------------------------------------
def expected_skyline_size(n: int, d: int) -> float:
    """Expected skyline size of ``n`` independent points in ``d`` dimensions.

    The classic estimate ``(ln n)^{d-1} / (d-1)!`` (Bentley et al.).  Real
    data can deviate wildly — anticorrelated inputs have far larger
    skylines — which is exactly why planners prefer a measured ``u`` when one
    is available (see :func:`plan_query`'s ``num_skyline``).
    """
    if n <= 1 or d <= 1:
        return float(max(n, 0))
    estimate = math.log(n) ** (d - 1) / math.factorial(d - 1)
    return float(min(n, max(1.0, estimate)))


def choose_skyline_method(n: int, d: int) -> str:
    """Pick the fastest skyline substrate for an ``(n, d)`` input.

    The choice is what the old d-based heuristic prescribed — the
    two-dimensional sweep for ``d = 2`` (Algorithm 2), divide-and-conquer
    for ``3 <= d <= 4`` (Algorithm 3), block sort-filter-skyline for
    ``d >= 5`` where hyperplane splits lose their pruning power — refined
    with the n-awareness the ROADMAP queued up: below
    :data:`SMALL_N_SFS_CUTOFF` points the divide-and-conquer recursion
    never recoups its bookkeeping, so small mid-dimensional inputs run
    through one block-SFS screening pass instead.  All substrates return
    identical indices; this is purely a speed decision.
    """
    if d <= 2:
        return "sweep2d"
    if d >= 5:
        return "sfs"
    if n < SMALL_N_SFS_CUTOFF:
        return "sfs"
    return "divide_conquer"


def skyline_cost(n: int, d: int, method: Optional[str] = None) -> float:
    """Abstract element-op cost of one skyline over an ``(n, d)`` input.

    Prices the skyline artifact in the update arm (:func:`plan_update`).
    """
    if n <= 1:
        return float(max(n, 0))
    if method is None:
        method = choose_skyline_method(n, d)
    log_n = math.log2(n)
    if method == "sweep2d":
        return n * log_n
    if method == "divide_conquer":
        # O(n log^{d-1} n); the exponent is capped because the kernelised
        # merge flattens the constant for the high-d recursions.
        return n * log_n ** max(1, min(d - 1, 3))
    # sfs / bnl: every candidate is screened against the running window.
    return 0.5 * n * expected_skyline_size(n, d) * d


def _layer_seconds(layer, ops: float, speed: float = 1.0) -> float:
    """``overhead + slope * ops`` of one calibrated layer, slope sped up."""
    overhead, slope = layer
    return overhead + slope * ops / speed


def mapped_skyline_layers(corners: int) -> Dict[str, list]:
    """Calibrated substrates of a ``corners``-column corner-score space.

    Corner counts beyond the grid use the largest calibrated one.
    """
    table = CALIBRATION["mapped_skyline"]
    key = str(corners) if str(corners) in table else max(table, key=int)
    return table[key]


def choose_mapped_skyline_method(rows: int, corners: int) -> str:
    """The substrate with the lowest calibrated time on ``rows`` mapped rows.

    The transformation maps only the distinct skyline rows, so this is
    chosen for that row count, not for ``n``; all substrates return
    identical indices.
    """
    layers = mapped_skyline_layers(corners)
    return min(layers, key=lambda method: _layer_seconds(layers[method], rows))


def gemm_ops(rows: float, d: int) -> float:
    """Multiply-adds of one query's corner GEMM over ``rows`` rows."""
    return float(rows) * d * 2 ** (d - 1)


def order_vector_ops(u: float, d: int) -> float:
    """One query's order vector: dual values of ``u`` slots, then a sort."""
    return float(u) * (max(1, d - 1) + math.log2(u + 2.0))


def baseline_ops(n: int, d: int) -> float:
    """Corner-score comparisons of one baseline query (all point pairs)."""
    return 0.5 * n * n * 2 ** (d - 1)


def distinct_pairs(u: float, unique: float) -> float:
    """Skyline row pairs that are not exact duplicates (lower bound).

    Duplicate rows have coincident dual hyperplanes, which never intersect,
    so the index stores only pairs of distinct rows.  Knowing ``u`` rows
    and ``unique`` distinct ones, the fewest such pairs arise when every
    duplicate copies one row.
    """
    copies = max(0.0, u - unique) + 1.0
    return 0.5 * u * max(0.0, u - 1.0) - 0.5 * copies * (copies - 1.0)


def index_layout(backend: str, d: int) -> str:
    """Calibration key of an index: both backends share one 2-D structure."""
    return "sorted" if d == 2 else backend


# ----------------------------------------------------------------------
# Method cost estimates
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CostEstimate:
    """Predicted seconds of one eclipse method, split into build and per-query.

    Attributes
    ----------
    method:
        Canonical method name.
    build:
        One-time seconds paid before the first query (index construction;
        zero for the scan-based methods).
    per_query:
        Seconds of answering one ratio-range query once any build is done.
    """

    method: str
    build: float
    per_query: float

    def total(self, num_queries: int) -> float:
        """Total seconds of ``num_queries`` queries including the build."""
        return self.build + max(1, num_queries) * self.per_query


def method_cost_estimates(
    num_points: int,
    dimensions: int,
    num_skyline: Optional[int] = None,
    threads: int = 1,
    backend: str = "thread",
    num_unique_skyline: Optional[int] = None,
) -> Tuple[CostEstimate, ...]:
    """Predicted seconds of all four eclipse methods on one dataset shape.

    Each arm is priced from the layers the batch executor runs, with the
    constants of :data:`CALIBRATION`:

    * **transform** — one corner GEMM over the distinct skyline rows plus
      one corner-space skyline over them with the substrate
      :func:`choose_mapped_skyline_method` picks;
    * **quadtree / cutting** — the order vector over the ``u`` skyline
      slots, the tree probe and the adjustment pass over the measured
      candidate share of the stored pair arena (:func:`distinct_pairs`);
      the build per enumerated pair, ``u (u - 1) / 2``;
    * **baseline** — one all-pairs query.

    The skyline both batch arms start from is shared and not charged.

    Parameters
    ----------
    num_points, dimensions:
        Dataset shape ``(n, d)``.
    num_skyline:
        Measured raw-space skyline size ``u`` when the caller has one (it
        sizes both arms far more tightly than the independence estimate,
        especially on anticorrelated data).
    threads:
        Executor worker count the kernels will run with.  The kernel-bound
        slopes (GEMM, screens, probes, adjustments, pair enumeration)
        divide by :func:`parallel_speedup`; the per-call overheads and the
        sequential tree-structuring share of the index builds
        (:data:`PAIR_BUILD_PARALLEL_SHARE`) do not.
    backend:
        Dispatch backend the kernels will run with (``"thread"``,
        ``"process"`` with its dispatch floor per term, or ``"serial"``).
    num_unique_skyline:
        Number of distinct skyline rows; the transformation collapses
        duplicates before its GEMM, so it is priced on this count
        (defaults to ``u``).
    """
    n = max(0, int(num_points))
    d = max(2, int(dimensions))
    corners = 2 ** (d - 1)
    u = float(num_skyline) if num_skyline is not None else expected_skyline_size(n, d)
    rows = float(num_unique_skyline) if num_unique_skyline is not None else u
    cal = CALIBRATION

    def _speed(work: float) -> float:
        return parallel_speedup(threads, backend=backend, work=work)

    def _layer(layer, ops: float) -> float:
        return _layer_seconds(layer, ops, _speed(ops))

    substrate = choose_mapped_skyline_method(int(rows), corners)
    transform_q = (
        _layer_seconds(cal["transform_query"], u)
        + _layer(cal["gemm"], gemm_ops(rows, d))
        + _layer(mapped_skyline_layers(corners)[substrate], rows)
    )
    baseline_q = _layer(cal["baseline"], baseline_ops(n, d))
    # A build enumerates every row pair; only pairs of distinct rows are
    # stored and probed.
    pair_work = 0.5 * u * max(0.0, u - 1.0) * max(1, d - 1)
    stored_work = distinct_pairs(u, rows) * max(1, d - 1)
    # Pair enumeration parallelises; the per-level tree structuring does not.
    build_scale = PAIR_BUILD_PARALLEL_SHARE / _speed(pair_work) + (
        1.0 - PAIR_BUILD_PARALLEL_SHARE
    )
    estimates = [
        CostEstimate("baseline", 0.0, baseline_q),
        CostEstimate("transform", 0.0, transform_q),
    ]
    for method in INDEX_METHODS:
        layout = index_layout(method, d)
        overhead, per_pair, per_stored = cal["build"][layout]
        candidates = cal["candidate_share"][layout] * stored_work
        index_q = (
            _layer_seconds(cal["index_query"], u)
            + _layer(cal["order_vector"], order_vector_ops(u, d))
            + _layer(cal["probe"][layout], candidates)
            + _layer(cal["adjust"][layout], candidates)
        )
        build = overhead + (per_pair * pair_work + per_stored * stored_work) * build_scale
        estimates.append(CostEstimate(method, build, index_q))
    return tuple(estimates)


# ----------------------------------------------------------------------
# The plan
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class QueryPlan:
    """The planner's decision for one query (or one batch of queries).

    Attributes
    ----------
    method:
        Canonical eclipse method the executor should run.
    skyline_method:
        Skyline substrate for raw-space computations (the index build's
        prefilter and the batch executor's shared skyline).
    mapped_skyline_method:
        Substrate the batched transformation runs on the corner scores of
        the unique skyline rows (``2^{d-1}`` columns); the executor uses
        exactly this one.
    index_backend:
        Intersection-index backend for the index methods, ``None`` otherwise.
    num_points, dimensions, num_queries:
        The workload the plan was made for.
    num_skyline:
        Measured skyline size the estimates used, when one was available.
    estimates:
        :class:`CostEstimate` for every method, for :meth:`explain`.
    reason:
        One-line human-readable justification of the choice.
    num_unique_skyline:
        Measured number of distinct skyline rows, when available.
    """

    method: str
    skyline_method: str
    mapped_skyline_method: str
    index_backend: Optional[str]
    num_points: int
    dimensions: int
    num_queries: int
    num_skyline: Optional[int]
    estimates: Tuple[CostEstimate, ...]
    reason: str
    num_unique_skyline: Optional[int] = None

    @property
    def uses_index(self) -> bool:
        """``True`` when the plan pays an index build."""
        return self.method in INDEX_METHODS

    def estimate_for(self, method: str) -> CostEstimate:
        """The cost estimate of one method (canonical name)."""
        for estimate in self.estimates:
            if estimate.method == method:
                return estimate
        raise KeyError(method)

    @property
    def expected_cost(self) -> float:
        """Predicted total seconds of the chosen method for this workload."""
        return self.estimate_for(self.method).total(self.num_queries)

    def best_alternative_cost(self, num_queries: Optional[int] = None) -> Optional[float]:
        """Total seconds of the cheapest index-free method, ``None`` if none.

        The index advisor's admission gate compares the chosen index
        method against this: skipping the build always leaves an exact
        index-free fallback, and this is what that fallback would cost.
        """
        queries = max(1, self.num_queries if num_queries is None else num_queries)
        totals = [
            estimate.total(queries)
            for estimate in self.estimates
            if estimate.method not in INDEX_METHODS
        ]
        return min(totals) if totals else None

    def index_improvement_ratio(self, num_queries: Optional[int] = None) -> Optional[float]:
        """How much the chosen index method beats the best index-free one.

        ``> 1`` means the index wins by that factor over this workload
        (build amortised across ``num_queries``); ``None`` when the plan
        does not use an index or no index-free estimate exists.
        """
        if not self.uses_index:
            return None
        best = self.best_alternative_cost(num_queries)
        if best is None:
            return None
        queries = max(1, self.num_queries if num_queries is None else num_queries)
        index_total = self.estimate_for(self.method).total(queries)
        if index_total <= 0.0:
            return math.inf
        return best / index_total

    def explain(self) -> str:
        """Render the plan as an aligned, human-readable text block."""
        u_text = (
            f"{self.num_skyline} (measured)"
            if self.num_skyline is not None
            else f"~{expected_skyline_size(self.num_points, self.dimensions):.0f} (estimated)"
        )
        if self.num_unique_skyline is not None:
            u_text += f", {self.num_unique_skyline} unique"
        lines = [
            "eclipse query plan",
            f"  dataset        n={self.num_points} points, d={self.dimensions} "
            f"attributes ({2 ** (self.dimensions - 1)} corner vectors)",
            f"  workload       {self.num_queries} ratio-range "
            f"quer{'y' if self.num_queries == 1 else 'ies'}",
            f"  skyline size   {u_text}",
            f"  method         {self.method}"
            + (f" [{self.index_backend} backend]" if self.index_backend else ""),
            f"  substrates     raw-space skyline: {self.skyline_method}, "
            f"corner-score space: {self.mapped_skyline_method}",
            f"  reason         {self.reason}",
            "  predicted cost (ms, calibrated serial kernels; shared skyline not charged):",
        ]
        for estimate in self.estimates:
            marker = "->" if estimate.method == self.method else "  "
            lines.append(
                f"    {marker} {estimate.method:<9} build={1e3 * estimate.build:>12.4g}  "
                f"per-query={1e3 * estimate.per_query:>12.4g}  "
                f"total={1e3 * estimate.total(self.num_queries):>12.4g}"
            )
        return "\n".join(lines)


def validate_num_queries(num_queries) -> int:
    """``num_queries`` as an int, or :class:`InvalidPlanInputError`.

    Accepts Python and numpy integers of at least 1; rejects booleans,
    floats and strings instead of coercing them.
    """
    if (
        isinstance(num_queries, bool)
        or not isinstance(num_queries, Integral)
        or num_queries < 1
    ):
        raise InvalidPlanInputError(
            f"num_queries must be an integer >= 1, got {num_queries!r}"
        )
    return int(num_queries)


def plan_query(
    num_points: int,
    dimensions: int,
    method: str = "auto",
    num_queries: int = 1,
    num_skyline: Optional[int] = None,
    threads: int = 1,
    backend: str = "thread",
    num_unique_skyline: Optional[int] = None,
) -> QueryPlan:
    """Build a :class:`QueryPlan` for a workload of ratio-range queries.

    Parameters
    ----------
    num_points, dimensions:
        Dataset shape ``(n, d)``.
    method:
        A method name/alias to pin the choice, or ``"auto"`` to let the cost
        model decide.  ``auto`` keeps the paper's one-shot behaviour — the
        corner-score transformation, exact in every dimensionality — and for
        batches picks whichever of the batched transformation and the
        cheapest index (its build amortised over the batch) has the lower
        predicted total seconds.
    num_queries:
        Number of ratio-range queries that will share the plan (an
        integer >= 1, see :func:`validate_num_queries`).
    num_skyline, num_unique_skyline:
        Measured raw-space skyline size and number of distinct skyline
        rows, when available (see :func:`method_cost_estimates`).
    threads:
        Executor worker count the kernels will run with (see
        :func:`method_cost_estimates`).
    backend:
        Dispatch backend the kernels will run with (see
        :func:`method_cost_estimates`).
    """
    chosen = canonical_method(method)
    q = validate_num_queries(num_queries)
    n = max(0, int(num_points))
    d = max(2, int(dimensions))
    estimates = method_cost_estimates(
        n,
        d,
        num_skyline=num_skyline,
        threads=threads,
        backend=backend,
        num_unique_skyline=num_unique_skyline,
    )

    if chosen != "auto":
        reason = f"method {chosen!r} requested explicitly"
    elif q == 1:
        # One-shot: the corner-score transformation is exact for every ratio
        # range and dimensionality and never pays a build, which is the
        # paper's own default; an index build cannot amortise over one query.
        chosen = "transform"
        reason = "one-shot query: transformation needs no index build"
    else:
        transform_total = next(
            e for e in estimates if e.method == "transform"
        ).total(q)
        best_index = min(
            (e for e in estimates if e.method in INDEX_METHODS),
            key=lambda e: e.total(q),
        )
        index_total = best_index.total(q)
        if index_total < transform_total:
            chosen = best_index.method
            reason = (
                f"batch of {q}: one {best_index.method} build amortised over "
                f"the batch beats {q} batched transformation queries "
                f"({1e3 * index_total:.3g} vs {1e3 * transform_total:.3g} ms)"
            )
        else:
            chosen = "transform"
            reason = (
                f"batch of {q}: the batched transformation beats the cheapest "
                f"index ({best_index.method}, build included) "
                f"({1e3 * transform_total:.3g} vs {1e3 * index_total:.3g} ms)"
            )

    u = float(num_skyline) if num_skyline is not None else expected_skyline_size(n, d)
    rows = num_unique_skyline if num_unique_skyline is not None else u
    return QueryPlan(
        method=chosen,
        skyline_method=choose_skyline_method(n, d),
        mapped_skyline_method=choose_mapped_skyline_method(int(rows), 2 ** (d - 1)),
        index_backend=chosen if chosen in INDEX_METHODS else None,
        num_points=n,
        dimensions=d,
        num_queries=q,
        num_skyline=None if num_skyline is None else int(num_skyline),
        estimates=estimates,
        reason=reason,
        num_unique_skyline=(
            None if num_unique_skyline is None else int(num_unique_skyline)
        ),
    )


# ----------------------------------------------------------------------
# The update arm: in-place maintenance vs rebuild
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class UpdatePlan:
    """The cost model's decision for one artifact under one update batch.

    Attributes
    ----------
    strategy:
        ``"inplace"`` (maintain the artifact incrementally), ``"compact"``
        (maintain in place *and* reclaim the dead arena rows with an
        in-place compaction pass), or ``"rebuild"`` (invalidate the
        artifact and recompute lazily on next use).
    artifact:
        What the decision is about: ``"skyline"`` or ``"index"``.
    update_cost, rebuild_cost:
        The two estimated costs, in abstract kernel element-ops (for
        ``"compact"`` the update cost includes the compaction pass).
    reason:
        One-line human-readable justification.
    """

    strategy: str
    artifact: str
    update_cost: float
    rebuild_cost: float
    reason: str

    @property
    def inplace(self) -> bool:
        """``True`` when the artifact should be maintained in place."""
        return self.strategy in ("inplace", "compact")

    @property
    def compacts(self) -> bool:
        """``True`` when the in-place update should also compact the arenas."""
        return self.strategy == "compact"


def plan_update(
    num_points: int,
    dimensions: int,
    num_inserts: int,
    num_deletes: int,
    num_skyline: Optional[int] = None,
    artifact: str = "skyline",
    index_backend: Optional[str] = None,
    dead_fraction: float = 0.0,
    num_pairs: Optional[int] = None,
    threads: int = 1,
    backend: str = "thread",
) -> UpdatePlan:
    """Decide update-in-place vs compact vs rebuild for one artifact/batch.

    Parameters
    ----------
    num_points, dimensions:
        Shape of the dataset *after* the batch.
    num_inserts, num_deletes:
        Rows arriving in / leaving the artifact's input: dataset rows for
        the ``"skyline"`` artifact, skyline-membership churn (slots added /
        retired) for an ``"index"`` artifact.
    num_skyline:
        Measured skyline size when available (as in :func:`plan_query`).
    artifact:
        ``"skyline"`` or ``"index"``.
    index_backend:
        Backend of the index artifact (prices the rebuild side with the
        PR 3 per-strategy build constants).
    dead_fraction:
        Fraction of dead hyperplane slots the index would carry *after* an
        in-place update; above :data:`MAX_DEAD_FRACTION` the arenas must be
        reclaimed — by an in-place compaction (:data:`COMPACT_FACTOR`) when
        that undercuts the rebuild, by a rebuild otherwise.
    num_pairs:
        Measured pair-arena row count (alive + dead) of the index artifact,
        when the caller has one; prices the compaction pass exactly instead
        of extrapolating from the alive estimate.
    threads:
        Executor worker count the kernels will run with.  The dominance
        screens of the incremental skyline pass and the pair-enumeration
        share of the index update divide by :func:`parallel_speedup`; the
        array recomposition, arena merges, and the compaction pass stay
        sequential.
    backend:
        Dispatch backend the kernels will run with (``"thread"`` reproduces
        the PR 7 arithmetic exactly; ``"process"`` applies its efficiency
        constant and dispatch-overhead floor per parallel term).
    """
    n = max(0, int(num_points))
    d = max(2, int(dimensions))
    inserts = max(0, int(num_inserts))
    deletes = max(0, int(num_deletes))
    u = float(num_skyline) if num_skyline is not None else expected_skyline_size(n, d)

    def _speed(work: float) -> float:
        return parallel_speedup(threads, backend=backend, work=work)

    if artifact == "skyline":
        # Insert screen (b_i x u) plus the delete shadow pass — the latter
        # only runs over *deleted skyline* points (an expected u/n fraction
        # of the deletes), each screened against the whole buffer, so its
        # expected mass is deletes * (u/n) * n = deletes * u.  The array
        # recomposition (np.delete + vstack) touches every element once.
        kernel_ops = UPDATE_SKYLINE_FACTOR * d * (inserts + deletes) * u
        compose_ops = 2.0 * n * d
        update_cost = kernel_ops / _speed(kernel_ops) + compose_ops
        sky_work = skyline_cost(n, d)
        rebuild_cost = sky_work / _speed(sky_work)
    elif artifact == "index":
        pairs = 0.5 * u * max(0.0, u - 1.0)
        tree_backend = index_backend or ("cutting" if d >= 3 else "quadtree")
        if d == 2:
            factor = PAIR_BUILD_FACTOR_2D
        elif canonical_method(tree_backend) == "quadtree":
            factor = PAIR_BUILD_FACTOR_QUAD
        else:
            factor = PAIR_BUILD_FACTOR_CUTTING
        pair_work = pairs * max(1, d - 1)
        build_scale = PAIR_BUILD_PARALLEL_SHARE / _speed(pair_work) + (
            1.0 - PAIR_BUILD_PARALLEL_SHARE
        )
        sky_work = skyline_cost(n, d)
        rebuild_cost = (
            sky_work / _speed(sky_work) + pair_work * factor * build_scale
        )
        # Appended pairs: every added/removed slot touches ~u pairs (added
        # slots append alive x new pairs, removed slots retire theirs).
        # The arena-growth share (amortised doubling copies) is priced
        # separately from the kernel work so the estimate tracks the bytes
        # the capacity-doubling arenas actually move.  Pair enumeration
        # rides the parallel kernels; the arena merge and doubling copies
        # are sequential.
        appended_pairs = (inserts + deletes) * max(1.0, u)
        update_cost = appended_pairs * max(1, d - 1) * (
            PAIR_UPDATE_FACTOR * build_scale + ARENA_GROWTH_FACTOR
        )
        if dead_fraction > MAX_DEAD_FRACTION:
            # The arenas must be reclaimed.  An in-place compaction is one
            # renumbering pass over every stored row (alive + dead); a
            # rebuild additionally re-enumerates and re-indexes every pair.
            total_rows = (
                float(num_pairs)
                if num_pairs is not None
                else pairs / max(0.25, 1.0 - dead_fraction)
            )
            compact_cost = COMPACT_FACTOR * total_rows * max(1, d - 1)
            if update_cost + compact_cost < rebuild_cost:
                return UpdatePlan(
                    strategy="compact",
                    artifact="index",
                    update_cost=update_cost + compact_cost,
                    rebuild_cost=rebuild_cost,
                    reason=(
                        f"dead slot fraction {dead_fraction:.2f} exceeds "
                        f"{MAX_DEAD_FRACTION}: in-place compaction "
                        f"({update_cost + compact_cost:.2e}) reclaims the "
                        f"arenas for a fraction of the rebuild "
                        f"({rebuild_cost:.2e} element-ops)"
                    ),
                )
            return UpdatePlan(
                strategy="rebuild",
                artifact="index",
                update_cost=update_cost + compact_cost,
                rebuild_cost=rebuild_cost,
                reason=(
                    f"dead slot fraction {dead_fraction:.2f} exceeds "
                    f"{MAX_DEAD_FRACTION} and a rebuild "
                    f"({rebuild_cost:.2e}) undercuts compaction plus the "
                    f"incremental pass ({update_cost + compact_cost:.2e} "
                    "element-ops)"
                ),
            )
    else:
        raise AlgorithmNotSupportedError(
            f"unknown update artifact {artifact!r}; choose 'skyline' or 'index'"
        )

    if update_cost < rebuild_cost:
        return UpdatePlan(
            strategy="inplace",
            artifact=artifact,
            update_cost=update_cost,
            rebuild_cost=rebuild_cost,
            reason=(
                f"batch of {inserts}+{deletes} rows: incremental maintenance "
                f"({update_cost:.2e}) beats a {artifact} rebuild "
                f"({rebuild_cost:.2e} element-ops)"
            ),
        )
    return UpdatePlan(
        strategy="rebuild",
        artifact=artifact,
        update_cost=update_cost,
        rebuild_cost=rebuild_cost,
        reason=(
            f"batch of {inserts}+{deletes} rows: a fresh {artifact} "
            f"computation ({rebuild_cost:.2e}) undercuts the incremental "
            f"path ({update_cost:.2e} element-ops)"
        ),
    )
