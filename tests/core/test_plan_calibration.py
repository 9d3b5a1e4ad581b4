"""The planner against its checked-in calibration grid (no timing here).

``benchmarks/plan_calibration.json`` holds, for every cell of the grid
ANTI/INDE/CORR x d in {2, 3, 4} x n in {5k, 20k, 50k}, the measured
milliseconds per query of each batch arm (index builds amortised over the
cell's batch) and of each corner-space skyline substrate, written by
``benchmarks/calibrate_plan.py``.  ``auto`` must stay near the measured best
on every cell, and the constants in ``repro.core.plan`` must be the ones
that grid fits to.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.core import plan as P

GRID_PATH = Path(__file__).resolve().parents[2] / "benchmarks" / "plan_calibration.json"
GRID = json.loads(GRID_PATH.read_text())
ROWS = GRID["rows"]

#: How far above the measured-best arm the planner's pick may be.
MAX_OVER_BEST = 1.5


def row_id(row):
    return f"{row['family']}-d{row['d']}-n{row['n']}"


def measured(row):
    return {
        arm: entry["ms_per_query"]
        for arm, entry in row["arms"].items()
        if "ms_per_query" in entry
    }


def test_grid_covers_every_calibrated_cell():
    cells = {(r["family"], r["d"], r["n"]) for r in ROWS}
    assert cells == {
        (f, d, n)
        for f in ("ANTI", "INDE", "CORR")
        for d in (2, 3, 4)
        for n in (5_000, 20_000, 50_000)
    }


def test_constants_are_the_fit_of_the_grid():
    def close(a, b):
        if isinstance(a, dict):
            return a.keys() == b.keys() and all(close(a[k], b[k]) for k in a)
        if isinstance(a, list):
            return len(a) == len(b) and all(close(x, y) for x, y in zip(a, b))
        return a == pytest.approx(b, rel=1e-3, abs=1e-12)

    assert close(P.CALIBRATION, GRID["constants"])


@pytest.mark.parametrize("row", ROWS, ids=row_id)
def test_auto_within_bound_of_measured_best(row):
    plan = P.plan_query(
        row["n"],
        row["d"],
        method="auto",
        num_queries=row["num_queries"],
        num_skyline=row["skyline"],
        num_unique_skyline=row["unique_skyline"],
    )
    arms = measured(row)
    assert plan.method in arms, f"auto picked {plan.method}, which was not measured"
    best = min(arms.values())
    assert arms[plan.method] <= MAX_OVER_BEST * best, (
        f"auto picked {plan.method} at {arms[plan.method]:.3f} ms/q; "
        f"best measured {min(arms, key=arms.get)} at {best:.3f} ms/q"
    )


@pytest.mark.parametrize("row", ROWS, ids=row_id)
def test_mapped_substrate_within_bound_of_measured_best(row):
    plan = P.plan_query(
        row["n"],
        row["d"],
        num_queries=row["num_queries"],
        num_skyline=row["skyline"],
        num_unique_skyline=row["unique_skyline"],
    )
    times = row["layers"]["mapped_skyline_ms"]
    best = min(times.values())
    assert times[plan.mapped_skyline_method] <= MAX_OVER_BEST * best
