"""Runtime-level tests for run-vectorized grid searches.

Acceptance checks from the issue: ``SearchOutcome`` winner and
accuracies identical with ``vectorized_runs`` on/off, sequential and
pooled; measured-cost packing feeds chunk wall times back into the
packer.
"""

import numpy as np
import pytest

from repro.core.grid_search import TrainingSettings, grid_search
from repro.core.search_space import classical_search_space, hybrid_search_space
from repro.data import make_spiral, stratified_split
from repro.exceptions import SearchError
from repro.nn.training import History
from repro.runtime import ChunkCostModel, PersistentPool, execute_runs
from repro.runtime.jobs import (
    ChunkResult,
    TrainingJob,
    execute_chunk,
    execute_job,
    make_chunks,
)


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
    """The issue's acceptance check: identical SearchOutcome with
    vectorized_runs on/off, sequential and pooled."""

    def _settings(self, vectorized):
        return TrainingSettings(
            epochs=8,
            batch_size=8,
            runs=3,
            early_stop_threshold=0.6,
            vectorized_runs=vectorized,
        )

    def test_sequential_on_off_identical(self, easy_split):
        kwargs = dict(
            specs=hybrid_space(), split=easy_split, threshold=0.6, seed=3
        )
        on = grid_search(**kwargs, settings=self._settings(True), workers=1)
        off = grid_search(**kwargs, settings=self._settings(False), workers=1)
        _assert_same_outcome(on, off)

    def test_pooled_matches_sequential_both_modes(self, easy_split):
        kwargs = dict(
            specs=hybrid_space(), split=easy_split, threshold=0.6, seed=3
        )
        seq = grid_search(**kwargs, settings=self._settings(True), workers=1)
        with PersistentPool(2) as pool:
            pool_on = grid_search(
                **kwargs, settings=self._settings(True), pool=pool
            )
            pool_off = grid_search(
                **kwargs, settings=self._settings(False), pool=pool
            )
            # vectorized chunks fed measured costs back into the packer
            assert pool.cost_model.observations > 0
        _assert_same_outcome(pool_on, seq)
        _assert_same_outcome(pool_off, seq)

    def test_classical_family_on_off_identical(self, easy_split):
        specs = classical_search_space(4, neuron_options=(2, 8), max_layers=2)
        kwargs = dict(specs=specs, split=easy_split, threshold=1.01, seed=5)
        settings = dict(epochs=2, batch_size=16, runs=2)
        on = grid_search(
            **kwargs,
            settings=TrainingSettings(**settings, vectorized_runs=True),
            max_candidates=3,
            workers=1,
        )
        off = grid_search(
            **kwargs,
            settings=TrainingSettings(**settings, vectorized_runs=False),
            max_candidates=3,
            workers=1,
        )
        _assert_same_outcome(on, off)

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
    def test_vectorized_chunks_cover_whole_run_set(self, easy_split):
        spec = hybrid_space()[0]
        settings = TrainingSettings(runs=5, vectorized_runs=True)
        chunks = make_chunks(spec, 0, 1, 5, 5, settings, vectorized=True)
        assert len(chunks) == 1
        assert chunks[0].vectorized
        assert [j.run for j in chunks[0].jobs] == [0, 1, 2, 3, 4]

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
        [chunk] = make_chunks(spec, 0, 1, 2, 2, settings, vectorized=True)
        result = execute_chunk(chunk, easy_split, lambda: False)
        assert isinstance(result, ChunkResult)
        assert result.vectorized_fallback
        assert len(result.entries) == 2
        ref = execute_job(
            TrainingJob(spec, 1, 0, 0), easy_split, settings
        )
        assert result.entries[0].train_accuracy == ref.train_accuracy

    def test_chunk_result_carries_wall_time(self, easy_split):
        spec = classical_search_space(
            4, neuron_options=(2,), max_layers=1
        )[0]
        settings = TrainingSettings(epochs=1, batch_size=32, runs=2)
        [chunk] = make_chunks(spec, 0, 1, 2, 2, settings, vectorized=True)
        result = execute_chunk(chunk, easy_split, lambda: False)
        assert isinstance(result, ChunkResult)
        assert not result.cancelled
        assert result.wall_time_s > 0.0
        assert len(result.entries) == 2


class TestChunkCostModel:
    def test_unobserved_falls_back_to_flops(self):
        model = ChunkCostModel()
        assert model.estimate("A", 100, 2) == 200.0
        assert model.estimate("B", 50) == 50.0

    def test_observation_overrides_flops_rank(self):
        model = ChunkCostModel(alpha=0.5)
        # label A is *cheap* by FLOPs but measured slow
        model.observe("A", flops=10, wall_time_s=4.0, n_runs=2)
        assert model.estimate("A", 10) == pytest.approx(2.0)
        # unseen label B estimated via the global seconds-per-FLOP rate
        assert model.estimate("B", 100) == pytest.approx(20.0)
        # EWMA moves with new evidence
        model.observe("A", flops=10, wall_time_s=2.0, n_runs=2)
        assert model.estimate("A", 10) == pytest.approx(1.5)
        assert model.observations == 2

    def test_ignores_degenerate_observations(self):
        model = ChunkCostModel()
        model.observe("A", 10, 0.0, 1)
        model.observe("A", 10, 1.0, 0)
        assert model.observations == 0
        assert model.snapshot() == {}

    def test_bad_alpha_rejected(self):
        with pytest.raises(SearchError):
            ChunkCostModel(alpha=0.0)
