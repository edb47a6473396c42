"""Tests for the parallel search runtime.

The headline guarantee: ``grid_search(..., workers=N)`` returns the same
:class:`SearchOutcome` as the sequential path — same winner, same
evaluated list (order, per-run accuracy/epoch histories), same progress
sequence — for any worker count, because both paths run the same
``(seed, candidate, run)``-keyed job primitive and the scheduler commits
candidates strictly in FLOPs order.
"""

import pickle

import pytest

from repro.core.grid_search import (
    CandidateResult,
    TrainingSettings,
    grid_search,
    rank_by_flops,
)
from repro.core.search_space import ClassicalSpec, classical_search_space
from repro.data import make_spiral, stratified_split
from repro.exceptions import SearchError
from repro.runtime import (
    PersistentPool,
    RunResult,
    TrainingJob,
    execute_job,
    resolve_workers,
)


class ExplodingSpec(ClassicalSpec):
    """A spec whose training always fails (picklable by reference)."""

    def build(self, rng=None):
        raise RuntimeError("exploding candidate was trained")


@pytest.fixture(scope="module")
def easy_split():
    """A split an MLP can fit within a few epochs (same recipe as the
    sequential grid-search tests)."""
    ds = make_spiral(4, n_points=150, noise=0.0, turns=0.4, seed=7)
    return stratified_split(ds, seed=7)


def small_space(n_features=4):
    return classical_search_space(
        n_features, neuron_options=(2, 8), max_layers=2
    )


class TestResolveWorkers:
    def test_default_passthrough(self):
        assert resolve_workers(1) == 1
        assert resolve_workers(4) == 4

    def test_none_and_zero_mean_all_cores(self):
        assert resolve_workers(None) >= 1
        assert resolve_workers(0) == resolve_workers(None)

    def test_negative_rejected(self):
        with pytest.raises(SearchError):
            resolve_workers(-2)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_zero_runs_rejected_in_both_modes(self, easy_split, workers):
        settings = TrainingSettings(epochs=1, runs=0)
        with pytest.raises(SearchError):
            grid_search(
                small_space(),
                easy_split,
                settings=settings,
                workers=workers,
            )


class TestJobPrimitive:
    def test_job_payloads_picklable(self, easy_split):
        job = TrainingJob(small_space()[0], seed=3, candidate_index=0, run=1)
        clone = pickle.loads(pickle.dumps(job))
        assert clone == job
        settings = TrainingSettings(epochs=1, batch_size=64, runs=1)
        result = execute_job(clone, easy_split, settings)
        assert pickle.loads(pickle.dumps(result)) == result

    def test_deterministic_per_job(self, easy_split):
        settings = TrainingSettings(epochs=3, batch_size=32, runs=2)
        job = TrainingJob(small_space()[2], seed=9, candidate_index=2, run=1)
        a = execute_job(job, easy_split, settings)
        b = execute_job(job, easy_split, settings)
        # bit-identical metrics; only the measured wall time may differ
        assert a.train_accuracy == b.train_accuracy
        assert a.val_accuracy == b.val_accuracy
        assert a.epochs_run == b.epochs_run
        assert isinstance(a, RunResult)
        assert a.candidate_index == 2 and a.run == 1


class TestParallelDifferential:
    def test_same_outcome_as_sequential(self, easy_split):
        """The ISSUE's acceptance check: same winning spec, accuracies and
        per-run histories for workers=4 vs workers=1."""
        settings = TrainingSettings(
            epochs=60, batch_size=16, runs=2, early_stop_threshold=0.85
        )
        kwargs = dict(
            specs=small_space(),
            split=easy_split,
            threshold=0.85,
            settings=settings,
            seed=3,
        )
        seq = grid_search(**kwargs, workers=1)
        par = grid_search(**kwargs, workers=4)

        assert seq.succeeded and par.succeeded
        assert par.winner.spec == seq.winner.spec
        assert par.winner.train_accuracies == seq.winner.train_accuracies
        assert par.winner.val_accuracies == seq.winner.val_accuracies
        assert [c.spec for c in par.evaluated] == [
            c.spec for c in seq.evaluated
        ]
        assert [c.train_accuracies for c in par.evaluated] == [
            c.train_accuracies for c in seq.evaluated
        ]
        assert [c.val_accuracies for c in par.evaluated] == [
            c.val_accuracies for c in seq.evaluated
        ]
        assert [c.epochs_run for c in par.evaluated] == [
            c.epochs_run for c in seq.evaluated
        ]

    def test_exhausted_space_matches(self, easy_split):
        """No winner: every candidate is evaluated under both modes."""
        settings = TrainingSettings(epochs=1, batch_size=64, runs=1)
        kwargs = dict(
            specs=small_space(),
            split=easy_split,
            threshold=1.01,  # unreachable
            settings=settings,
            max_candidates=3,
        )
        seq = grid_search(**kwargs, workers=1)
        par = grid_search(**kwargs, workers=3)
        assert not par.succeeded
        assert par.candidates_trained == seq.candidates_trained == 3
        assert [c.spec for c in par.evaluated] == [
            c.spec for c in seq.evaluated
        ]
        assert [c.train_accuracies for c in par.evaluated] == [
            c.train_accuracies for c in seq.evaluated
        ]

    def test_progress_commit_order(self, easy_split):
        """Progress fires once per committed candidate, in FLOPs order,
        regardless of which worker finished first."""
        settings = TrainingSettings(epochs=1, batch_size=64, runs=1)
        seen = []
        grid_search(
            small_space(),
            easy_split,
            settings=settings,
            threshold=1.01,
            max_candidates=4,
            progress=seen.append,
            workers=4,
        )
        assert len(seen) == 4
        assert all(isinstance(c, CandidateResult) for c in seen)
        flops = [c.flops for c in seen]
        assert flops == sorted(flops)


def _assert_same_outcome(par, seq):
    assert par.succeeded == seq.succeeded
    if seq.winner is not None:
        assert par.winner.spec == seq.winner.spec
        assert par.winner.train_accuracies == seq.winner.train_accuracies
        assert par.winner.val_accuracies == seq.winner.val_accuracies
    assert [c.spec for c in par.evaluated] == [c.spec for c in seq.evaluated]
    assert [c.train_accuracies for c in par.evaluated] == [
        c.train_accuracies for c in seq.evaluated
    ]
    assert [c.val_accuracies for c in par.evaluated] == [
        c.val_accuracies for c in seq.evaluated
    ]
    assert [c.epochs_run for c in par.evaluated] == [
        c.epochs_run for c in seq.evaluated
    ]


class TestPersistentPoolDifferential:
    """The persistent-pool acceptance check: two consecutive searches on
    one reused pool (warm agents, the dataset sent once, FLOPs-aware
    packing, chunked runs) stay bit-identical to workers=1."""

    def test_pool_reuse_two_searches_bit_identical(self, easy_split):
        settings = TrainingSettings(
            epochs=60, batch_size=16, runs=2, early_stop_threshold=0.85
        )
        kwargs = dict(
            specs=small_space(),
            split=easy_split,
            threshold=0.85,
            settings=settings,
        )
        seq_a = grid_search(**kwargs, seed=3, workers=1)
        seq_b = grid_search(**kwargs, seed=5, workers=1)
        with PersistentPool(4) as pool:
            par_a = grid_search(**kwargs, seed=3, pool=pool)
            pids_after_first = pool.agent_pids()
            par_b = grid_search(**kwargs, seed=5, pool=pool)
            # The whole point: the second search reuses the same warm
            # agents instead of starting fresh ones.
            assert len(pids_after_first) == 4
            assert pool.agent_pids() == pids_after_first
            assert pool.stats()["agents_started"] == 4
            assert pool.searches_started == 2
        _assert_same_outcome(par_a, seq_a)
        _assert_same_outcome(par_b, seq_b)

    def test_pool_exhausted_space_matches(self, easy_split):
        """Chunked submission (runs batched per candidate) commits the
        same evaluated list as the sequential loop."""
        settings = TrainingSettings(epochs=1, batch_size=64, runs=3)
        kwargs = dict(
            specs=small_space(),
            split=easy_split,
            threshold=1.01,  # unreachable
            settings=settings,
            max_candidates=3,
        )
        seq = grid_search(**kwargs, workers=1)
        with PersistentPool(2) as pool:
            par = grid_search(**kwargs, pool=pool)
        assert par.candidates_trained == seq.candidates_trained == 3
        _assert_same_outcome(par, seq)

    def test_pool_progress_commit_order(self, easy_split):
        settings = TrainingSettings(epochs=1, batch_size=64, runs=1)
        seen = []
        with PersistentPool(4) as pool:
            grid_search(
                small_space(),
                easy_split,
                settings=settings,
                threshold=1.01,
                max_candidates=4,
                progress=seen.append,
                pool=pool,
            )
        assert len(seen) == 4
        flops = [c.flops for c in seen]
        assert flops == sorted(flops)

    def test_closed_pool_rejected(self, easy_split):
        settings = TrainingSettings(epochs=1, batch_size=64, runs=1)
        pool = PersistentPool(2)
        pool.close()
        with pytest.raises(SearchError, match="closed"):
            grid_search(
                small_space(),
                easy_split,
                settings=settings,
                threshold=1.01,
                max_candidates=1,
                pool=pool,
            )


class TestCancellation:
    def test_early_pass_discards_speculative_candidates(self, easy_split):
        """With a threshold the cheapest candidate meets, speculative
        training of higher-FLOPs candidates must not leak into the
        outcome: the evaluated list stops at the winner, exactly as in
        the sequential early-stopped search."""
        settings = TrainingSettings(epochs=1, batch_size=64, runs=1)
        space = small_space()
        outcome = grid_search(
            space,
            easy_split,
            threshold=0.0,  # everything passes; cheapest must win
            settings=settings,
            workers=4,
        )
        assert outcome.succeeded
        assert len(outcome.evaluated) == 1
        assert outcome.evaluated[-1] is outcome.winner
        assert outcome.winner.spec == rank_by_flops(space)[0]

    def test_mid_space_winner_prunes_tail(self, easy_split):
        """The committed winner is the lowest-FLOPs passing candidate and
        nothing beyond it is reported, even though workers speculated
        past it."""
        settings = TrainingSettings(
            epochs=60, batch_size=16, runs=1, early_stop_threshold=0.85
        )
        space = small_space()
        outcome = grid_search(
            space,
            easy_split,
            threshold=0.85,
            settings=settings,
            seed=3,
            workers=4,
        )
        assert outcome.succeeded
        assert outcome.evaluated[-1] is outcome.winner
        flops = [c.flops for c in outcome.evaluated]
        assert flops == sorted(flops)
        # every earlier candidate failed; the winner is the first pass
        assert all(not c.passes(0.85) for c in outcome.evaluated[:-1])


class TestErrorSemantics:
    """Worker errors surface exactly where the sequential loop would hit
    them: at their candidate's commit turn — and never if a cheaper
    candidate passes first."""

    def _space_with_exploding_tail(self):
        # strictly more FLOPs than anything in the 2-layer base space
        return small_space() + [ExplodingSpec(n_features=4, hidden=(8, 8, 8))]

    def test_speculative_error_discarded_when_cheaper_candidate_wins(
        self, easy_split
    ):
        settings = TrainingSettings(
            epochs=60, batch_size=16, runs=1, early_stop_threshold=0.85
        )
        kwargs = dict(
            specs=self._space_with_exploding_tail(),
            split=easy_split,
            threshold=0.85,
            settings=settings,
            seed=3,
        )
        seq = grid_search(**kwargs, workers=1)
        par = grid_search(**kwargs, workers=3)  # speculates into the tail
        assert seq.succeeded and par.succeeded
        assert par.winner.spec == seq.winner.spec
        assert [c.train_accuracies for c in par.evaluated] == [
            c.train_accuracies for c in seq.evaluated
        ]

    @pytest.mark.parametrize("workers", [1, 3])
    def test_error_raised_at_commit_turn_in_both_modes(
        self, easy_split, workers
    ):
        settings = TrainingSettings(epochs=1, batch_size=64, runs=1)
        with pytest.raises(RuntimeError, match="exploding"):
            grid_search(
                self._space_with_exploding_tail(),
                easy_split,
                threshold=1.01,  # nothing passes; the error's turn comes
                settings=settings,
                workers=workers,
            )
