"""Runtime-level tests for run-vectorized grid searches.

Every search trains whole run sets as stacked sweeps; its
``SearchOutcome`` winner and accuracies equal the scalar oracle's
(:func:`scalar_oracle.scalar_search`), sequential and pooled;
measured-cost packing feeds chunk wall times back into the packer.
"""

import numpy as np
import pytest

from repro.core.grid_search import TrainingSettings, grid_search
from repro.core.search_space import classical_search_space, hybrid_search_space
from repro.data import make_spiral, stratified_split
from repro.nn.training import History
from repro.runtime import ChunkCostModel, PersistentPool, execute_runs
from repro.runtime.jobs import (
    ChunkResult,
    TrainingJob,
    execute_chunk,
    execute_job,
    make_chunk,
)
from scalar_oracle import scalar_search


@pytest.fixture(scope="module")
def easy_split():
    ds = make_spiral(4, n_points=120, noise=0.0, turns=0.4, seed=7)
    return stratified_split(ds, seed=7)


def hybrid_space():
    return hybrid_search_space(
        4, "sel", qubit_options=(3, 4), depth_options=(1, 2)
    )


def _assert_same_outcome(a, b):
    assert a.succeeded == b.succeeded
    if a.winner is not None:
        assert a.winner.spec == b.winner.spec
        assert a.winner.train_accuracies == b.winner.train_accuracies
        assert a.winner.val_accuracies == b.winner.val_accuracies
    assert [c.spec for c in a.evaluated] == [c.spec for c in b.evaluated]
    assert [c.train_accuracies for c in a.evaluated] == [
        c.train_accuracies for c in b.evaluated
    ]
    assert [c.val_accuracies for c in a.evaluated] == [
        c.val_accuracies for c in b.evaluated
    ]
    assert [c.epochs_run for c in a.evaluated] == [
        c.epochs_run for c in b.evaluated
    ]


class TestExecuteRuns:
    def test_matches_scalar_jobs(self, easy_split):
        spec = hybrid_space()[0]
        settings = TrainingSettings(epochs=3, batch_size=8, runs=3)
        stacked = execute_runs(
            spec, 7, 0, range(3), easy_split, settings, vectorized=True
        )
        scalar = execute_runs(
            spec, 7, 0, range(3), easy_split, settings, vectorized=False
        )
        assert len(stacked) == len(scalar) == 3
        for s, ref in zip(stacked, scalar):
            assert s.candidate_index == ref.candidate_index
            assert s.run == ref.run
            assert s.train_accuracy == ref.train_accuracy
            assert s.val_accuracy == ref.val_accuracy
            assert s.epochs_run == ref.epochs_run

    def test_single_run_uses_scalar_path(self, easy_split):
        spec = classical_search_space(4, neuron_options=(4,), max_layers=1)[0]
        settings = TrainingSettings(epochs=2, batch_size=16, runs=1)
        [got] = execute_runs(
            spec, 3, 0, [0], easy_split, settings, vectorized=True
        )
        ref = execute_job(
            TrainingJob(spec, 3, 0, 0), easy_split, settings
        )
        assert got.train_accuracy == ref.train_accuracy
        assert got.val_accuracy == ref.val_accuracy

    def test_histories_attached_on_request(self, easy_split):
        spec = hybrid_space()[0]
        settings = TrainingSettings(
            epochs=2, batch_size=16, runs=2, return_histories=True
        )
        results = execute_runs(
            spec, 1, 0, range(2), easy_split, settings, vectorized=True
        )
        for rr in results:
            assert isinstance(rr.history, History)
            assert rr.history.epochs_run == rr.epochs_run
            assert rr.history.max_val_accuracy == rr.val_accuracy


class TestSearchDifferential:
    """Run-stacked searches, sequential and pooled, reproduce the
    scalar oracle's SearchOutcome."""

    settings = TrainingSettings(
        epochs=8, batch_size=8, runs=3, early_stop_threshold=0.6
    )

    def test_sequential_matches_scalar_oracle(self, easy_split):
        kwargs = dict(
            specs=hybrid_space(), split=easy_split, threshold=0.6, seed=3
        )
        got = grid_search(**kwargs, settings=self.settings, workers=1)
        _assert_same_outcome(
            got, scalar_search(**kwargs, settings=self.settings)
        )

    def test_pooled_matches_scalar_oracle(self, easy_split):
        kwargs = dict(
            specs=hybrid_space(), split=easy_split, threshold=0.6, seed=3
        )
        with PersistentPool(2) as pool:
            pooled = grid_search(**kwargs, settings=self.settings, pool=pool)
            # delivered chunks calibrated the pool's deadline rate
            assert pool.cost_model.observations > 0
        _assert_same_outcome(
            pooled, scalar_search(**kwargs, settings=self.settings)
        )

    def test_classical_family_matches_scalar_oracle(self, easy_split):
        specs = classical_search_space(4, neuron_options=(2, 8), max_layers=2)
        kwargs = dict(
            specs=specs,
            split=easy_split,
            threshold=1.01,
            seed=5,
            settings=TrainingSettings(epochs=2, batch_size=16, runs=2),
            max_candidates=3,
        )
        _assert_same_outcome(
            grid_search(**kwargs, workers=1), scalar_search(**kwargs)
        )

    def test_histories_identical_through_pool(self, easy_split):
        """return_histories payloads survive the agent round-trip and
        match the sequential path's histories run for run."""
        settings = TrainingSettings(
            epochs=3, batch_size=16, runs=2, return_histories=True
        )
        kwargs = dict(
            specs=hybrid_space()[:2],
            split=easy_split,
            threshold=1.01,
            settings=settings,
            max_candidates=2,
        )
        seq = grid_search(**kwargs, workers=1)
        with PersistentPool(2) as pool:
            par = grid_search(**kwargs, pool=pool)
        for a, b in zip(seq.evaluated, par.evaluated):
            assert len(a.histories) == len(b.histories) == 2
            for ha, hb in zip(a.histories, b.histories):
                assert ha.train_loss == hb.train_loss
                assert ha.val_accuracy == hb.val_accuracy


class TestChunkPacking:
    def test_chunk_covers_whole_run_set(self, easy_split):
        spec = hybrid_space()[0]
        settings = TrainingSettings(runs=5)
        chunk = make_chunk([(spec, 0)], 1, settings)
        assert [j.run for j in chunk.jobs] == [0, 1, 2, 3, 4]

    def test_stacked_failure_falls_back_scalar_and_is_flagged(
        self, easy_split, monkeypatch
    ):
        """A stacked sweep that raises re-runs scalar (entries complete,
        results correct) and the chunk is flagged so the scheduler can count
        the silent double-work."""
        import repro.runtime.jobs as jobs_mod

        def boom(*args, **kwargs):
            raise RuntimeError("stacked path exploded")

        monkeypatch.setattr(jobs_mod, "execute_candidates", boom)
        spec = classical_search_space(
            4, neuron_options=(2,), max_layers=1
        )[0]
        settings = TrainingSettings(epochs=1, batch_size=32, runs=2)
        chunk = make_chunk([(spec, 0)], 1, settings)
        result = execute_chunk(chunk, easy_split, lambda: False)
        assert isinstance(result, ChunkResult)
        assert result.sweep_fallback
        assert len(result.entries) == 2
        ref = execute_job(
            TrainingJob(spec, 1, 0, 0), easy_split, settings
        )
        assert result.entries[0].train_accuracy == ref.train_accuracy

    def test_chunk_is_candidate_major(self):
        specs = hybrid_space()[:2]
        settings = TrainingSettings(runs=2)
        chunk = make_chunk([(specs[0], 3), (specs[1], 5)], 1, settings)
        assert [(j.spec, j.candidate_index, j.run) for j in chunk.jobs] == [
            (specs[0], 3, 0),
            (specs[0], 3, 1),
            (specs[1], 5, 0),
            (specs[1], 5, 1),
        ]
        assert {j.seed for j in chunk.jobs} == {1}
        assert chunk.split is None and chunk.settings is settings

    def test_chunk_result_carries_wall_time(self, easy_split):
        spec = classical_search_space(
            4, neuron_options=(2,), max_layers=1
        )[0]
        settings = TrainingSettings(epochs=1, batch_size=32, runs=2)
        chunk = make_chunk([(spec, 0)], 1, settings)
        result = execute_chunk(chunk, easy_split, lambda: False)
        assert isinstance(result, ChunkResult)
        assert not result.cancelled
        assert result.wall_time_s > 0.0
        assert len(result.entries) == 2


class TestChunkCostModel:
    """One EWMA of seconds per FLOP-run, read by the chunk deadlines."""

    def test_uncalibrated_model_has_no_seconds(self):
        assert ChunkCostModel().seconds(100) is None

    def test_rate_scales_with_work_and_follows_evidence(self):
        model = ChunkCostModel()
        model.observe(10, 4.0)
        assert model.seconds(10) == pytest.approx(4.0)
        assert model.seconds(5) == pytest.approx(2.0)
        # EWMA: 0.4 s per unit moves 30 % of the way to 0.2.
        model.observe(10, 2.0)
        assert model.seconds(10) == pytest.approx(3.4)
        assert model.observations == 2

    def test_ignores_degenerate_observations(self):
        model = ChunkCostModel()
        model.observe(10, 0.0)
        model.observe(0, 1.0)
        assert model.observations == 0
        assert model.seconds(10) is None

    def test_degenerate_observations_keep_a_calibrated_rate(self):
        model = ChunkCostModel()
        model.observe(10, 4.0)
        for work, seconds in ((10, 0.0), (0, 1.0), (-5, 1.0), (10, -2.0)):
            model.observe(work, seconds)
        assert model.observations == 1
        assert model.seconds(10) == pytest.approx(4.0)
