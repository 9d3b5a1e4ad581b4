"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.weights import RatioVector
from repro.data.generators import generate_dataset


@pytest.fixture
def hotels() -> np.ndarray:
    """The four-hotel running example of the paper (distance, price)."""
    return np.array(
        [
            [1.0, 6.0],  # p1
            [4.0, 4.0],  # p2
            [6.0, 1.0],  # p3
            [8.0, 5.0],  # p4
        ]
    )


@pytest.fixture
def paper_ratio() -> RatioVector:
    """The ratio range [1/4, 2] used throughout the paper's running example."""
    return RatioVector.uniform(0.25, 2.0, 2)


@pytest.fixture(params=["corr", "inde", "anti"])
def distribution(request) -> str:
    """The three synthetic distributions of the evaluation."""
    return request.param


def small_dataset(distribution: str, dimensions: int, n: int = 120, seed: int = 5):
    """Helper used by cross-algorithm tests (kept small so BASE stays fast)."""
    return generate_dataset(distribution, n, dimensions, seed=seed)


@pytest.fixture
def force_auto_index(monkeypatch):
    """Make a session's ``auto`` plans pick an index, to drive its fallbacks.

    Returns ``force(session, backend="cutting")``.  Afterwards every
    ``session.plan(method="auto")`` returns the plan of the pinned
    ``backend``, so the auto-only degenerate-index fallbacks run whatever
    the cost model would choose.  The index budget is cleared so the
    advisor admits the build under every environment.
    """
    monkeypatch.delenv("REPRO_INDEX_BUDGET_MB", raising=False)

    def force(session, backend="cutting"):
        real = session.plan

        def plan(method="auto", num_queries=1):
            if method == "auto":
                method = backend
            return real(method=method, num_queries=num_queries)

        monkeypatch.setattr(session, "plan", plan)

    return force
