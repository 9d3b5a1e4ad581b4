"""Session-level tests of the budgeted index advisor (PR 8).

The contract under test: whatever the advisor decides — skip a build,
evict a cached index, bound the degenerate-failure cache — every answer a
budgeted session returns is byte-identical to an unbounded session's, and
the resident accounting never exceeds the configured budget.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.session import DatasetSession
from repro.data.generators import generate_dataset
from repro.errors import DegenerateHyperplaneError
from repro.perf.advisor import FAILURE_ENTRY_BYTES

from tests.core.test_session import random_ratio_specs


TINY = 16 * 1024          # below any index footprint: everything evicts
GENEROUS = 64 * 1024 * 1024


def assert_batches_equal(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        np.testing.assert_array_equal(g.indices, w.indices)
        np.testing.assert_array_equal(g.points, w.points)


@pytest.fixture
def collinear():
    # Every point on one line: quadtree/cutting builds raise
    # DegenerateHyperplaneError, feeding the failure cache.
    t = np.arange(40, dtype=float)
    return np.array([5.0, 5.0, 5.0]) + t[:, None] * np.array([1.0, -1.0, 0.5])


class TestEvictionParity:
    @pytest.mark.parametrize("method", ["quad", "cutting", "auto"])
    def test_mixed_stream_byte_identical_under_tiny_budget(self, method):
        rng = np.random.default_rng(42)
        data = generate_dataset("ANTI", 500, 3, seed=11)
        budgeted = DatasetSession(data, index_budget_bytes=TINY)
        reference = DatasetSession(data)
        for _ in range(5):
            specs = random_ratio_specs(rng, 10, 3)
            assert_batches_equal(
                budgeted.run_batch(specs, method=method),
                reference.run_batch(specs, method=method),
            )
            # Enforcement runs after every batch and update: the exact
            # rollup must sit at or under the budget at every point.
            assert budgeted.stats.advisor_bytes_resident <= TINY
            if method == "auto":
                assert budgeted.last_plan.method == "transform"
            inserts = rng.uniform(0.0, 10.0, size=(12, 3))
            deletes = rng.choice(budgeted.num_points, size=4, replace=False)
            budgeted.apply_updates(inserts=inserts, deletes=deletes)
            reference.apply_updates(inserts=inserts, deletes=deletes)
        # Tiny budget: a pinned index method is declined because the
        # projected bytes do not fit the budget at all, and each batch falls
        # back to the exact transformation; auto plans the transformation
        # on every batch, so no build is ever put to the advisor.  Either
        # way no index is ever cached.
        if method == "auto":
            assert budgeted.stats.index_builds_skipped == 0
        else:
            assert budgeted.stats.index_builds_skipped > 0
        assert budgeted.stats.index_builds == 0

    def test_generous_budget_keeps_and_delta_patches(self):
        rng = np.random.default_rng(7)
        data = generate_dataset("ANTI", 500, 3, seed=3)
        budgeted = DatasetSession(data, index_budget_bytes=GENEROUS)
        reference = DatasetSession(data)
        for _ in range(4):
            specs = random_ratio_specs(rng, 8, 3)
            assert_batches_equal(
                budgeted.run_batch(specs, method="quad"),
                reference.run_batch(specs, method="quad"),
            )
            inserts = rng.uniform(0.0, 10.0, size=(10, 3))
            budgeted.apply_updates(inserts=inserts, deletes=[0, 1])
            reference.apply_updates(inserts=inserts, deletes=[0, 1])
        # Everything fits: nothing is evicted, the one cached index is kept
        # across updates (patched, not rebuilt) — patch-after-keep.
        assert budgeted.stats.index_evictions == 0
        assert budgeted.stats.index_builds == reference.stats.index_builds
        assert budgeted.stats.advisor_bytes_resident > 0
        assert budgeted.stats.advisor_bytes_resident <= GENEROUS

    def test_rebuild_after_evict_serves_same_answers(self):
        # Direct index construction (index_for) is not admission-gated, so
        # it still exercises the build → evict → rebuild cycle under a
        # budget too small to retain the index; batch answers meanwhile
        # stay byte-identical on the declined-admission transform path.
        data = generate_dataset("ANTI", 400, 3, seed=9)
        specs = random_ratio_specs(np.random.default_rng(1), 6, 3)
        budgeted = DatasetSession(data, index_budget_bytes=TINY)
        reference = DatasetSession(data)
        for _ in range(3):  # build → evict → rebuild, three times over
            budgeted.index_for("cutting")
            assert len(budgeted._indexes) == 0  # evicted on enforcement
            assert_batches_equal(
                budgeted.run_batch(specs, method="cutting"),
                reference.run_batch(specs, method="cutting"),
            )
        assert budgeted.stats.index_builds == 3
        assert budgeted.stats.index_evictions == 3

    def test_pinned_admission_declines_oversized_but_admits_fitting(self):
        # PR 9: pinned methods answer through the advisor's byte checks.
        # A budget the projected index cannot fit → declined, transform
        # fallback, no build; a generous budget → built exactly once even
        # though the improvement-ratio heuristic (waived for pinned) might
        # have said no.
        data = generate_dataset("ANTI", 400, 3, seed=9)
        specs = random_ratio_specs(np.random.default_rng(4), 4, 3)
        tiny = DatasetSession(data, index_budget_bytes=TINY)
        tiny.run_batch(specs, method="cutting")
        assert tiny.stats.index_builds == 0
        assert tiny.stats.index_builds_skipped > 0
        tiny_single = DatasetSession(data, index_budget_bytes=TINY)
        tiny_single.run(ratios=specs[0], method="cutting")
        assert tiny_single.stats.index_builds == 0
        assert tiny_single.stats.index_builds_skipped > 0
        roomy = DatasetSession(data, index_budget_bytes=GENEROUS)
        roomy.run_batch(specs, method="cutting")
        assert roomy.stats.index_builds == 1
        assert roomy.stats.index_builds_skipped == 0
        # Answers agree across all three admission outcomes.
        reference = DatasetSession(data)
        want = reference.run_batch(specs, method="cutting")
        assert_batches_equal(tiny.run_batch(specs, method="cutting"), want)
        assert_batches_equal(roomy.run_batch(specs, method="cutting"), want)


class TestAdvisorTelemetry:
    def test_counters_flow_into_stats(self):
        data = generate_dataset("ANTI", 400, 3, seed=5)
        session = DatasetSession(data, index_budget_bytes=TINY)
        specs = random_ratio_specs(np.random.default_rng(2), 20, 3)
        session.run_batch(specs, method="auto")
        session.run_batch(specs, method="auto")
        stats = session.stats
        assert stats.cost_requests > 0
        assert stats.cache_hits > 0  # second identical batch hits the memo
        assert stats.cost_requests >= stats.cache_hits
        assert stats.advisor_bytes_resident <= TINY

    def test_unbounded_session_never_skips_or_evicts(self):
        data = generate_dataset("ANTI", 400, 3, seed=5)
        session = DatasetSession(data)
        specs = random_ratio_specs(np.random.default_rng(2), 20, 3)
        session.run_batch(specs, method="auto")
        session.run_batch(specs, method="quad")
        assert session.stats.index_builds_skipped == 0
        assert session.stats.index_evictions == 0


class TestDegenerateCacheBounded:
    def test_failure_cache_bounded_under_budget(self, collinear):
        budget = FAILURE_ENTRY_BYTES * 4
        session = DatasetSession(collinear, index_budget_bytes=budget)
        for seed in range(16):
            with pytest.raises(DegenerateHyperplaneError):
                session.index_for("quadtree", seed=seed)
        # Sixteen distinct cache keys failed, but the ledger holds the
        # memoised-failure set to the budget.
        assert len(session._degenerate_index_keys) <= 4
        assert session.stats.advisor_bytes_resident <= budget

    def test_failure_cache_unbounded_without_budget(self, collinear):
        session = DatasetSession(collinear)
        for seed in range(16):
            with pytest.raises(DegenerateHyperplaneError):
                session.index_for("quadtree", seed=seed)
        assert len(session._degenerate_index_keys) == 16

    def test_kept_failures_still_memoise(self, collinear):
        session = DatasetSession(
            collinear, index_budget_bytes=FAILURE_ENTRY_BYTES * 4
        )
        with pytest.raises(DegenerateHyperplaneError):
            session.index_for("quadtree")
        before = session.stats.index_builds
        with pytest.raises(DegenerateHyperplaneError):
            session.index_for("quadtree")  # memoised: no second attempt
        assert session.stats.index_builds == before


class TestBudgetKnobPlumbing:
    def test_constructor_validates(self, hotels):
        with pytest.raises(ValueError):
            DatasetSession(hotels, index_budget_bytes=0)
        with pytest.raises(ValueError):
            DatasetSession(hotels, index_budget_bytes=-1)

    def test_env_var_applies_when_no_explicit_budget(self, hotels, monkeypatch):
        # The session stores only the *explicit* budget; the environment is
        # resolved at enforcement time, so a changed env var takes effect
        # without reconstructing long-lived sessions.
        monkeypatch.setenv("REPRO_INDEX_BUDGET_MB", "3")
        session = DatasetSession(hotels)
        assert session.index_budget_bytes is None
        assert session.advisor.effective_budget() == 3 * 1024 * 1024

    def test_explicit_budget_beats_env(self, hotels, monkeypatch):
        monkeypatch.setenv("REPRO_INDEX_BUDGET_MB", "3")
        session = DatasetSession(hotels, index_budget_bytes=1024)
        assert session.index_budget_bytes == 1024
        assert session.advisor.effective_budget() == 1024

    def test_configure_kernels_rewires_live_advisor(self, hotels, monkeypatch):
        monkeypatch.delenv("REPRO_INDEX_BUDGET_MB", raising=False)
        session = DatasetSession(hotels, index_budget_bytes=1024)
        advisor = session.advisor
        session.configure_kernels(index_budget_bytes=2048)
        assert session.index_budget_bytes == 2048
        assert advisor.budget_bytes == 2048  # same advisor, new budget

    def test_snapshot_roundtrip_then_service_config_wins(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.delenv("REPRO_INDEX_BUDGET_MB", raising=False)
        data = generate_dataset("CORR", 200, 3, seed=4)
        specs = random_ratio_specs(np.random.default_rng(3), 5, 3)
        session = DatasetSession(data, index_budget_bytes=5 * 1024 * 1024)
        want = session.run_batch(specs, method="quad")
        path = str(tmp_path / "state.snapshot")
        session.save_snapshot(path)
        restored, _ = DatasetSession.load_snapshot(path)
        # A plain load keeps the snapshot-era budget...
        assert restored.index_budget_bytes == 5 * 1024 * 1024
        # ...but the PR 7 warm-restart convention reapplies the service's
        # configuration, which wins over whatever the snapshot carried.
        restored.configure_kernels(index_budget_bytes=TINY)
        assert restored.index_budget_bytes == TINY
        assert_batches_equal(restored.run_batch(specs, method="quad"), want)
        assert restored.stats.advisor_bytes_resident <= TINY
