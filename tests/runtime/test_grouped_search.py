"""Runtime tests for cross-candidate stacked execution.

Bit-identical ``SearchOutcome`` with fused candidate groups, with
one-candidate groups (``MAX_GROUP_CANDIDATES`` patched to 1) and from
the scalar oracle, sequential and pooled; chunks submitted in rank
order within the memory budget, measured as one unit of work, and given
deadlines from that rate; stacked-path failures re-attributed
through the per-candidate fallback with the correct candidate
coordinates; chunk results counted into the executor's counters.
"""

import importlib
from dataclasses import replace

import numpy as np
import pytest

from repro.core.grid_search import (
    MAX_GROUP_CANDIDATES,
    TrainingSettings,
    grid_search,
    rank_by_flops,
)
from repro.core.search_space import (
    ClassicalSpec,
    HybridSpec,
    classical_search_space,
    hybrid_search_space,
)
from repro.data import make_spiral, stratified_split
from repro.exceptions import ConfigurationError
from repro.flops.conventions import get_convention
from repro.nn.layers import Dropout
from repro.nn.training import History
from repro.runtime import ChunkCostModel, PersistentPool, execute_candidates
from repro.runtime.frontier import SearchFrontier
from repro.runtime.jobs import RunResult, TrainingJob, execute_job
from repro.runtime.parallel import (
    Delivered,
    ExecutorCounters,
    Scheduler,
    Starved,
    chunk_candidates,
)
from repro.runtime.jobs import (
    ChunkResult,
    RunError,
    execute_chunk,
    make_chunk,
    pack_candidates,
)
from scalar_oracle import scalar_search

# The module, not the ``grid_search`` function ``repro.core`` re-exports
# under the same name: the in-process executor and the scheduler read
# its MAX_GROUP_CANDIDATES at call time.
GRID_SEARCH = importlib.import_module("repro.core.grid_search")


@pytest.fixture(scope="module")
def easy_split():
    ds = make_spiral(4, n_points=120, noise=0.0, turns=0.4, seed=7)
    return stratified_split(ds, seed=7)


def head_varied_space():
    """Four head variants per (qubits, depth) cell: same tape, distinct
    candidates — exactly what cross-candidate stacking exploits."""
    return hybrid_search_space(
        4,
        "sel",
        qubit_options=(3,),
        depth_options=(1, 2),
        head_options=((), (4,), (6,)),
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


def _settings(**kw):
    defaults = dict(epochs=6, batch_size=8, runs=2, early_stop_threshold=0.6)
    defaults.update(kw)
    return TrainingSettings(**defaults)


class BoomSpec(HybridSpec):
    """A hybrid spec whose model build always fails (shares its group
    key with same-structure HybridSpecs, so it lands inside groups)."""

    def build(self, rng=None):
        raise RuntimeError(f"boom: {self.label}")


class KeylessSpec(ClassicalSpec):
    """A classical spec that opts out of grouping."""

    def group_key(self):
        return None


class DropoutSpec(ClassicalSpec):
    """A classical spec with a Dropout layer after its first hidden
    layer: no stacker exists for it, so it never fuses."""

    def build(self, rng=None):
        model = super().build(rng=rng)
        model.layers.insert(2, Dropout(0.2, rng=rng))
        return model


class TestSearchDifferential:
    """Fused candidate groups reproduce the scalar oracle's
    SearchOutcome exactly, as one-candidate groups do."""

    def test_sequential_matches_scalar_oracle(self, easy_split, monkeypatch):
        kwargs = dict(
            specs=head_varied_space(),
            split=easy_split,
            threshold=0.6,
            seed=3,
            settings=_settings(),
        )
        grouped = grid_search(**kwargs, workers=1)
        monkeypatch.setattr(GRID_SEARCH, "MAX_GROUP_CANDIDATES", 1)
        single = grid_search(**kwargs, workers=1)
        scalar = scalar_search(**kwargs)
        _assert_same_outcome(grouped, scalar)
        _assert_same_outcome(single, scalar)

    def test_pooled_matches_scalar_oracle(self, easy_split, monkeypatch):
        kwargs = dict(
            specs=head_varied_space(),
            split=easy_split,
            threshold=0.6,
            seed=3,
            settings=_settings(),
        )
        with PersistentPool(2) as pool:
            packed = grid_search(**kwargs, pool=pool)
            monkeypatch.setattr(GRID_SEARCH, "MAX_GROUP_CANDIDATES", 1)
            single = grid_search(**kwargs, pool=pool)
            assert pool.cost_model.observations > 0
        scalar = scalar_search(**kwargs)
        _assert_same_outcome(packed, scalar)
        _assert_same_outcome(single, scalar)

    def test_single_run_candidates_group(self, easy_split):
        """runs=1 (smoke-profile shape) has no run axis to stack, but
        same-structure candidates still fuse across the group."""
        kwargs = dict(
            specs=head_varied_space(),
            split=easy_split,
            threshold=1.01,
            seed=5,
            settings=_settings(runs=1, early_stop_threshold=None),
            max_candidates=4,
        )
        _assert_same_outcome(
            grid_search(**kwargs, workers=1), scalar_search(**kwargs)
        )

    def test_classical_space_matches_scalar_oracle(self, easy_split):
        """Classical candidates group (shared first and last layers);
        the outcome is the scalar oracle's."""
        specs = classical_search_space(4, neuron_options=(2, 8), max_layers=2)
        kwargs = dict(
            specs=specs,
            split=easy_split,
            threshold=1.01,
            seed=5,
            settings=_settings(runs=2, early_stop_threshold=None),
            max_candidates=3,
        )
        _assert_same_outcome(
            grid_search(**kwargs, workers=1), scalar_search(**kwargs)
        )


class TestPackCandidates:
    """The one packing rule: consecutive same-key candidates share a
    pack of at most ``cap`` members."""

    def test_groups_consecutive_same_key(self):
        ranked = head_varied_space()
        pack = pack_candidates(
            ranked, range(len(ranked)), MAX_GROUP_CANDIDATES
        )[0]
        assert pack[0] == 0
        assert 1 < len(pack) <= MAX_GROUP_CANDIDATES
        key = ranked[0].group_key()
        assert all(ranked[j].group_key() == key for j in pack)

    def test_one_member_cap_or_keyless_packs_alone(self, easy_split):
        ranked = head_varied_space()
        assert pack_candidates(ranked, range(3), 1) == [[0], [1], [2]]
        keyless = [KeylessSpec(n_features=4, hidden=(h,)) for h in (2, 4, 6)]
        assert pack_candidates(
            keyless, range(3), MAX_GROUP_CANDIDATES
        ) == [[0], [1], [2]]
        # classical candidates group like any other family: the next
        # MAX_GROUP_CANDIDATES, whatever their depths and widths
        classical = classical_search_space(4, neuron_options=(2, 4))
        assert pack_candidates(
            classical, range(len(classical)), MAX_GROUP_CANDIDATES
        )[0] == list(range(MAX_GROUP_CANDIDATES))
        group = [
            (classical[j], j, range(2)) for j in range(MAX_GROUP_CANDIDATES)
        ]
        settings = _settings(epochs=3)
        fused = execute_candidates(group, 7, easy_split, settings)
        assert len(fused) == 2 * MAX_GROUP_CANDIDATES
        for rr in fused:
            job = TrainingJob(
                classical[rr.candidate_index], 7, rr.candidate_index, rr.run
            )
            ref = execute_job(job, easy_split, settings)
            assert rr.train_accuracy == ref.train_accuracy
            assert rr.val_accuracy == ref.val_accuracy
            assert rr.epochs_run == ref.epochs_run

    def test_in_process_pack_skips_ready_verdicts(
        self, easy_split, monkeypatch
    ):
        """The in-process executor packs past a verdict already in
        ``ready`` and never retrains it."""
        jobs = importlib.import_module("repro.runtime.jobs")
        ranked = _sel_depth_space()
        settings = _settings(epochs=2, early_stop_threshold=None)
        frontier = SearchFrontier(
            ranked, 1.01, get_convention("paper"), settings.runs
        )
        for run in range(settings.runs):
            frontier.offer(RunResult(1, run, 0.5, 0.5, 1, 0.1))
        groups = []
        real = jobs.execute_candidates

        def recording(group, *args, **kwargs):
            groups.append([index for _, index, _ in group])
            return real(group, *args, **kwargs)

        monkeypatch.setattr(jobs, "execute_candidates", recording)
        outcome = frontier.run_in_process(easy_split, settings, 7)
        assert groups == [[0, 2, 3]]
        assert outcome.evaluated[1].train_accuracies == [0.5, 0.5]
        assert len(outcome.evaluated) == len(ranked)


class TestExecuteCandidates:
    def test_matches_per_candidate_runs(self, easy_split):
        specs = head_varied_space()[:3]
        settings = _settings(early_stop_threshold=None, epochs=3)
        group = [(spec, i, range(2)) for i, spec in enumerate(specs)]
        fused = execute_candidates(group, 7, easy_split, settings)
        assert fused is not None
        assert len(fused) == 6
        for rr in fused:
            ref = execute_job(
                TrainingJob(
                    specs[rr.candidate_index], 7, rr.candidate_index, rr.run
                ),
                easy_split,
                settings,
            )
            assert rr.train_accuracy == ref.train_accuracy
            assert rr.val_accuracy == ref.val_accuracy
            assert rr.epochs_run == ref.epochs_run

    def test_single_slice_returns_none(self, easy_split):
        spec = head_varied_space()[0]
        settings = _settings()
        assert (
            execute_candidates([(spec, 0, [0])], 7, easy_split, settings)
            is None
        )

    def test_classical_shapes_match_per_candidate_runs(self, easy_split):
        specs = classical_search_space(4, neuron_options=(2, 8), max_layers=1)
        settings = _settings(return_histories=True)
        group = [(spec, i, range(2)) for i, spec in enumerate(specs[:2])]
        fused = execute_candidates(group, 7, easy_split, settings)
        assert [(rr.candidate_index, rr.run) for rr in fused] == [
            (0, 0), (0, 1), (1, 0), (1, 1)
        ]
        for rr in fused:
            ref = execute_job(
                TrainingJob(
                    specs[rr.candidate_index], 7, rr.candidate_index, rr.run
                ),
                easy_split,
                settings,
            )
            assert rr.history.train_loss == ref.history.train_loss
            assert rr.history.train_accuracy == ref.history.train_accuracy
            assert rr.history.val_accuracy == ref.history.val_accuracy
            assert rr.epochs_run == ref.epochs_run

    def test_unstackable_group_returns_none(self, easy_split):
        specs = [DropoutSpec(n_features=4, hidden=(h,)) for h in (2, 8)]
        settings = _settings()
        group = [(spec, i, range(2)) for i, spec in enumerate(specs)]
        assert execute_candidates(group, 7, easy_split, settings) is None

    def test_build_error_raises(self, easy_split):
        specs = [
            head_varied_space()[0],
            BoomSpec(n_features=4, n_qubits=3, n_layers=1),
        ]
        group = [(spec, i, range(2)) for i, spec in enumerate(specs)]
        with pytest.raises(RuntimeError, match="boom"):
            execute_candidates(group, 7, easy_split, _settings())


class TestErrorAttribution:
    """A stacked-path failure must resurface as the exact per-candidate
    error, at that candidate's commit turn, with cheaper candidates
    unaffected."""

    def _specs_with_failure(self):
        base = hybrid_search_space(
            4, "sel", qubit_options=(3,), depth_options=(1,),
            head_options=((), (4,)),
        )
        # FLOPs-ranked order: plain head first, then C[4], then the
        # failing C[6] variant — all three share one group key.
        boom = BoomSpec(
            n_features=4, n_qubits=3, n_layers=1, hidden=(6,)
        )
        return base + [boom]

    def test_sequential_raises_at_failing_candidates_turn(self, easy_split):
        specs = self._specs_with_failure()
        progressed = []
        with pytest.raises(RuntimeError, match=r"boom: SEL\(3,1\)\+C\[6\]"):
            grid_search(
                specs,
                easy_split,
                threshold=1.01,
                settings=_settings(early_stop_threshold=None, epochs=1),
                workers=1,
                seed=3,
                progress=lambda c: progressed.append(c.spec.label),
            )
        # both cheaper group members committed before the error surfaced
        assert progressed == ["SEL(3,1)", "SEL(3,1)+C[4]"]

    def test_winner_before_failure_suppresses_error(self, easy_split):
        """If a cheaper group member passes, the speculatively trained
        failing member's error is discarded — as sequential semantics
        require."""
        specs = self._specs_with_failure()
        outcome = grid_search(
            specs,
            easy_split,
            threshold=0.0,  # first candidate passes immediately
            settings=_settings(early_stop_threshold=None, epochs=1),
            workers=1,
            seed=3,
        )
        assert outcome.winner is not None
        assert outcome.winner.spec.label == "SEL(3,1)"

    def test_grouped_chunk_reattributes_error(self, easy_split):
        """Agent path: a grouped chunk containing a failing candidate
        falls back per candidate; entries carry the correct candidate
        coordinates and the healthy candidate's results are intact."""
        good = head_varied_space()[0]
        boom = BoomSpec(n_features=4, n_qubits=3, n_layers=1, hidden=(4,))
        settings = _settings(early_stop_threshold=None, epochs=1)
        merged = make_chunk([(good, 0), (boom, 1)], 7, settings)
        result = execute_chunk(merged, easy_split, lambda: False)
        assert isinstance(result, ChunkResult)
        assert result.sweep_fallback
        assert len(result.entries) == 4
        by_candidate = {}
        for entry in result.entries:
            by_candidate.setdefault(entry.candidate_index, []).append(entry)
        assert all(
            isinstance(e, RunResult) for e in by_candidate[0]
        )
        assert all(isinstance(e, RunError) for e in by_candidate[1])
        assert all(
            "boom: SEL(3,1)+C[4]" in str(e.error)
            for e in by_candidate[1]
        )
        ref = execute_job(TrainingJob(good, 7, 0, 0), easy_split, settings)
        assert by_candidate[0][0].train_accuracy == ref.train_accuracy

    def test_grouped_chunk_trains_fused_when_healthy(self, easy_split):
        specs = head_varied_space()[:2]
        settings = _settings(early_stop_threshold=None, epochs=1)
        merged = make_chunk(list(zip(specs, range(2))), 7, settings)
        result = execute_chunk(merged, easy_split, lambda: False)
        assert isinstance(result, ChunkResult)
        assert not result.sweep_fallback
        assert sorted(
            (e.candidate_index, e.run) for e in result.entries
        ) == [(0, 0), (0, 1), (1, 0), (1, 1)]
        ref = execute_job(
            TrainingJob(specs[1], 7, 1, 1), easy_split, settings
        )
        got = next(
            e for e in result.entries
            if (e.candidate_index, e.run) == (1, 1)
        )
        assert got.train_accuracy == ref.train_accuracy
        assert got.val_accuracy == ref.val_accuracy


class _RecordingExecutor:
    """An executor that records what the scheduler submits and never
    delivers: enough to drive ``Scheduler.top_up`` and ``_accept``."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.cost_model = ChunkCostModel()
        self.counters = ExecutorCounters()
        self.submitted = {}

    def memory_budget(self, settings):
        return None

    def submit(self, cid, attempt, chunk):
        self.submitted[cid] = chunk


class _BudgetedExecutor(_RecordingExecutor):
    """A recording executor with a fixed memory budget."""

    def __init__(self, capacity, budget):
        super().__init__(capacity)
        self.budget = budget

    def memory_budget(self, settings):
        return self.budget


class _StarvingExecutor(_RecordingExecutor):
    """Delivers the ``[2, 3]`` chunk only, trained for real, then
    reports starvation, so the scheduler finishes the search in-process
    with candidates 2 and 3 already in ``ready``."""

    def __init__(self, capacity):
        super().__init__(capacity)
        self.split = None
        self.polls = 0

    def open(self, split):
        self.split = split

    def poll(self, timeout):
        self.polls += 1
        if self.polls > 1:
            return [Starved("no agent left")]
        cid, chunk = next(
            (cid, c)
            for cid, c in self.submitted.items()
            if chunk_candidates(c) == [2, 3]
        )
        return [Delivered(cid, execute_chunk(chunk, self.split, None))]

    def cancel(self, cid):
        pass

    def abort(self):
        pass

    def close(self):
        pass

    def stats(self):
        return {}


def _sel_depth_space():
    """SEL(3,1)-SEL(3,4): one group key, ranked by FLOPs."""
    return rank_by_flops(
        hybrid_search_space(
            4, "sel", qubit_options=(3,), depth_options=(1, 2, 3, 4)
        ),
        get_convention("paper"),
    )


def _scheduler(ranked, settings, executor, events=None):
    frontier = SearchFrontier(
        ranked, 1.01, get_convention("paper"), settings.runs
    )
    return Scheduler(
        frontier, None, settings, 7, executor, on_event=events
    )


def _packs(executor):
    return sorted(chunk_candidates(c) for c in executor.submitted.values())


class TestSchedulerPacking:
    """The scheduler packs consecutive same-key candidates of its
    lookahead into one chunk, which a worker trains as one fused
    sweep."""

    def test_capacity_two_submits_pairs(self):
        executor = _RecordingExecutor(capacity=2)
        _scheduler(_sel_depth_space(), _settings(), executor).top_up()
        assert _packs(executor) == [[0, 1], [2, 3]]
        for chunk in executor.submitted.values():
            assert len(chunk.jobs) == 4  # two candidates x two runs

    def test_submits_in_rank_order(self):
        """The window fills cheapest candidates first, the order the
        frontier commits them in."""
        executor = _RecordingExecutor(capacity=2)
        _scheduler(_sel_depth_space(), _settings(), executor).top_up()
        assert [
            chunk_candidates(c) for c in executor.submitted.values()
        ] == [[0, 1], [2, 3]]

    def test_commits_advance_the_window_in_rank_order(self):
        """Once the head chunk commits, the window moves on to the next
        candidates in rank order, behind the chunk still in flight."""
        ranked = rank_by_flops(
            hybrid_search_space(
                4, "sel", qubit_options=(3,), depth_options=range(1, 7)
            ),
            get_convention("paper"),
        )
        executor = _RecordingExecutor(capacity=2)
        scheduler = _scheduler(ranked, _settings(), executor)
        scheduler.top_up()
        head = next(iter(executor.submitted))
        _accept_untrained(scheduler, head, executor.submitted[head])
        scheduler.frontier.commit()
        assert scheduler.frontier.next_commit == 2
        scheduler.top_up()
        assert [
            chunk_candidates(c) for c in executor.submitted.values()
        ] == [[0, 1], [2, 3], [4, 5]]

    def test_budget_holds_back_the_next_chunk(self):
        """Admission keeps the predicted bytes in flight within the
        budget; a held-back chunk is not overtaken by a later one."""
        from repro.runtime.memory import estimate_group_bytes

        ranked = _sel_depth_space()
        settings = _settings()
        first, second = (
            estimate_group_bytes(ranked[i : i + 2], settings.batch_size, 2)
            for i in (0, 2)
        )
        executor = _BudgetedExecutor(capacity=2, budget=first + second - 1)
        scheduler = _scheduler(ranked, settings, executor)
        scheduler.top_up()
        assert _packs(executor) == [[0, 1]]
        assert [chunk_candidates(c) for c in scheduler._waiting] == [[2, 3]]

    def test_lone_chunk_is_admitted_over_budget(self):
        """With nothing in flight the head chunk goes out whatever its
        size, or one over-budget candidate would stall the search."""
        executor = _BudgetedExecutor(capacity=2, budget=1)
        scheduler = _scheduler(_sel_depth_space(), _settings(), executor)
        scheduler.top_up()
        assert _packs(executor) == [[0, 1]]
        assert [chunk_candidates(c) for c in scheduler._waiting] == [[2, 3]]

    @pytest.mark.parametrize("runs", [1, 3])
    def test_every_chunk_carries_whole_run_sets(self, runs):
        """Chunks are never cut inside a run set, whatever ``runs``:
        with ``runs=1`` a keyless candidate's chunk is one slice, the
        ladder's scalar floor."""
        ranked = [KeylessSpec(n_features=4, hidden=(h,)) for h in (2, 4)]
        ranked += _sel_depth_space()[:2]
        executor = _RecordingExecutor(capacity=2)  # a window of four
        scheduler = _scheduler(ranked, _settings(runs=runs), executor)
        scheduler.top_up()
        chunks = list(executor.submitted.values()) + list(scheduler._waiting)
        queued = []
        for chunk in chunks:
            members = chunk_candidates(chunk)
            assert [(j.candidate_index, j.run) for j in chunk.jobs] == [
                (c, run) for c in members for run in range(runs)
            ]
            queued += members
        assert sorted(queued) == [0, 1, 2, 3]
        assert sorted(map(len, map(chunk_candidates, chunks))) == [1, 1, 2]

    @pytest.mark.parametrize(
        "ranked",
        [
            [KeylessSpec(n_features=4, hidden=(h,)) for h in (2, 4, 6, 8)],
            [
                ClassicalSpec(n_features=4, hidden=(2,)),
                HybridSpec(n_features=4, n_qubits=3, n_layers=1),
                HybridSpec(n_features=4, n_qubits=3, ansatz="bel"),
                ClassicalSpec(n_features=4, hidden=(4,)),
            ],
        ],
        ids=["keyless", "mixed-keys"],
    )
    def test_keyless_and_mixed_keys_never_pack(self, ranked):
        executor = _RecordingExecutor(capacity=2)
        _scheduler(ranked, _settings(), executor).top_up()
        assert _packs(executor) == [[0], [1], [2], [3]]

    def test_one_member_cap_keeps_one_candidate_chunks(self, monkeypatch):
        monkeypatch.setattr(GRID_SEARCH, "MAX_GROUP_CANDIDATES", 1)
        executor = _RecordingExecutor(capacity=2)
        _scheduler(_sel_depth_space(), _settings(), executor).top_up()
        assert _packs(executor) == [[0], [1], [2], [3]]

    @pytest.mark.parametrize("capacity", [1, 2, 3])
    def test_lookahead_unchanged(self, capacity, monkeypatch):
        """Packing regroups the lookahead; it queues the same
        candidates as one-candidate chunks do."""
        ranked = hybrid_search_space(
            4, "sel", qubit_options=(3, 4), depth_options=(1, 2, 3, 4)
        )
        queued = []
        for cap in (MAX_GROUP_CANDIDATES, 1):
            monkeypatch.setattr(
                GRID_SEARCH, "MAX_GROUP_CANDIDATES", cap
            )
            executor = _RecordingExecutor(capacity=capacity)
            scheduler = _scheduler(ranked, _settings(), executor)
            scheduler.top_up()
            chunks = list(executor.submitted.values()) + list(
                scheduler._waiting
            )
            queued.append(
                sorted(c for chunk in chunks for c in chunk_candidates(chunk))
            )
        assert queued[0] == queued[1]
        window = max(2 * capacity, capacity + 1)
        assert queued[0] == list(range(window))

    def test_delivery_observes_the_chunks_work(self, easy_split):
        ranked = _sel_depth_space()
        events = []
        executor = _RecordingExecutor(capacity=2)
        settings = _settings(early_stop_threshold=None, epochs=1)
        scheduler = _scheduler(ranked, settings, executor, events.append)
        scheduler.top_up()
        cid, chunk = next(
            (cid, c)
            for cid, c in executor.submitted.items()
            if chunk_candidates(c) == [0, 1]
        )
        result = execute_chunk(chunk, easy_split, lambda: False)
        result = replace(result, memory_degrades=1)
        scheduler._accept(cid, result)
        model = executor.cost_model
        assert model.observations == 1
        # One rate per FLOP-run: the chunk's work prices back to its
        # measured seconds.
        conv = get_convention("paper")
        work = sum(spec.flops(conv) * settings.runs for spec in ranked[:2])
        assert model.seconds(work) == pytest.approx(result.wall_time_s)
        degrade = next(e for e in events if e.kind == "memory-degrade")
        assert degrade.candidates == (0, 1)


class TestSequentialFallback:
    """The in-process floor reuses verdicts a distributed executor
    already delivered."""

    def test_fallback_reuses_ready_verdicts(self, easy_split, monkeypatch):
        jobs = importlib.import_module("repro.runtime.jobs")
        trained = []
        candidates, job = jobs.execute_candidates, jobs.execute_job

        def counted_candidates(group, *args, **kwargs):
            results = candidates(group, *args, **kwargs)
            if results is not None:
                trained.extend(r.candidate_index for r in results)
            return results

        def counted_job(training_job, *args, **kwargs):
            trained.append(training_job.candidate_index)
            return job(training_job, *args, **kwargs)

        monkeypatch.setattr(jobs, "execute_candidates", counted_candidates)
        monkeypatch.setattr(jobs, "execute_job", counted_job)
        ranked = _sel_depth_space()
        settings = _settings(early_stop_threshold=None)
        executor = _StarvingExecutor(capacity=2)
        frontier = SearchFrontier(
            ranked, 1.01, get_convention("paper"), settings.runs
        )
        events = []
        outcome = Scheduler(
            frontier, easy_split, settings, 7, executor, events.append
        ).run()
        assert executor.counters.sequential_fallbacks == 1
        assert "sequential-fallback" in [e.kind for e in events]
        for index in range(len(ranked)):
            assert trained.count(index) == settings.runs
        _assert_same_outcome(
            outcome,
            scalar_search(
                ranked, easy_split, 1.01, settings, seed=7
            ),
        )


class ShiftSpec(HybridSpec):
    """A hybrid spec whose quantum layer differentiates by parameter
    shift: its models never stack, and the layer runs on the reference
    executor."""

    def build(self, rng=None):
        from repro.hybrid import build_hybrid_model

        return build_hybrid_model(
            self.n_features,
            self.n_qubits,
            self.n_layers,
            ansatz=self.ansatz,
            n_classes=self.n_classes,
            hidden=self.hidden,
            gradient_method="parameter_shift",
            rng=rng,
        )


class TestParameterShiftSearch:
    def test_matches_scalar_oracle(self, easy_split, monkeypatch):
        """The group declines to stack, each candidate falls to the
        scalar floor, and the layers train on the reference executor:
        the outcome is the scalar oracle's."""
        from repro.hybrid import QuantumLayer

        def refuse(self, x):
            raise AssertionError("a parameter-shift layer compiled")

        monkeypatch.setattr(QuantumLayer, "_compile_engine", refuse)
        specs = [
            ShiftSpec(n_features=4, n_qubits=3, n_layers=depth)
            for depth in (1, 2)
        ]
        kwargs = dict(
            specs=specs,
            split=easy_split,
            threshold=1.01,
            seed=5,
            settings=_settings(epochs=2, early_stop_threshold=None),
        )
        outcome = grid_search(**kwargs, workers=1)
        assert len(outcome.evaluated) == 2
        _assert_same_outcome(outcome, scalar_search(**kwargs))


def _accept_untrained(scheduler, cid, chunk, wall_time_s=0.1, error=None):
    """Deliver chunk ``cid`` as if trained: every run fails the
    unreachable threshold, or raises ``error``."""
    entries = tuple(
        RunResult(job.candidate_index, job.run, 0.5, 0.5, 1, 0.1)
        if error is None
        else RunError(job.candidate_index, job.run, error)
        for job in chunk.jobs
    )
    scheduler._accept(
        cid,
        ChunkResult(
            cancelled=False, entries=entries, wall_time_s=wall_time_s
        ),
    )


class TestChunkDeadlines:
    """Only the deadlines read the cost model: no deadline before a
    chunk was measured, then a multiple of the predicted seconds."""

    def test_uncalibrated_chunks_have_no_deadline(self):
        executor = _RecordingExecutor(capacity=2)
        scheduler = _scheduler(_sel_depth_space(), _settings(), executor)
        scheduler.top_up()
        assert scheduler._flights
        for flight in scheduler._flights.values():
            assert flight.soft_s is None and flight.hard_s is None

    @pytest.mark.parametrize("rate", [1e-12, 1.0], ids=["floored", "scaled"])
    def test_calibrated_deadlines(self, rate):
        from repro.runtime.parallel import (
            _CHUNK_DEADLINE_FACTOR,
            _CHUNK_DEADLINE_FLOOR_S,
            _HARD_DEADLINE_FACTOR,
        )

        executor = _RecordingExecutor(capacity=2)
        executor.cost_model.observe(1, rate)
        scheduler = _scheduler(_sel_depth_space(), _settings(), executor)
        scheduler.top_up()
        for flight in scheduler._flights.values():
            expected = rate * scheduler._work(flight.chunk)
            soft = max(
                _CHUNK_DEADLINE_FACTOR * expected, _CHUNK_DEADLINE_FLOOR_S
            )
            hard = _HARD_DEADLINE_FACTOR * soft
            assert flight.soft_s == pytest.approx(soft)
            assert flight.hard_s == pytest.approx(hard)
        floored = [
            f.soft_s == _CHUNK_DEADLINE_FLOOR_S
            for f in scheduler._flights.values()
        ]
        assert all(floored) if rate < 1e-6 else not any(floored)

    def test_failed_chunk_is_not_measured(self):
        """A chunk whose runs raised measured the failure, not the
        work: it leaves the rate alone."""
        executor = _RecordingExecutor(capacity=2)
        scheduler = _scheduler(_sel_depth_space(), _settings(), executor)
        scheduler.top_up()
        cid, chunk = next(iter(executor.submitted.items()))
        _accept_untrained(scheduler, cid, chunk, error=RuntimeError("boom"))
        assert executor.cost_model.observations == 0
        assert executor.cost_model.seconds(1) is None

    def test_next_search_starts_calibrated(self):
        """The rate lives on the executor: a later search on the same
        executor gives its first chunks deadlines at once."""
        executor = _RecordingExecutor(capacity=2)
        first = _scheduler(_sel_depth_space(), _settings(), executor)
        first.top_up()
        cid, chunk = next(iter(executor.submitted.items()))
        _accept_untrained(first, cid, chunk, wall_time_s=2.0)
        assert executor.cost_model.observations == 1
        second = _scheduler(_sel_depth_space(), _settings(), executor)
        second.top_up()
        assert second._flights
        for flight in second._flights.values():
            assert flight.soft_s is not None and flight.hard_s is not None


class TestResultCounters:
    """Every accepted chunk's fallback and memory-degrade counts reach
    the executor's counters: the scheduler counts them on delivery,
    whatever the agents."""

    def _accept(self, **changes):
        ranked = _sel_depth_space()
        executor = _RecordingExecutor(capacity=2)
        settings = _settings(early_stop_threshold=None, epochs=1)
        scheduler = _scheduler(ranked, settings, executor)
        scheduler.top_up()
        for cid, chunk in executor.submitted.items():
            entries = tuple(
                RunResult(job.candidate_index, job.run, 0.5, 0.5, 1, 0.1)
                for job in chunk.jobs
            )
            scheduler._accept(
                cid,
                ChunkResult(
                    cancelled=False, entries=entries, wall_time_s=0.1, **changes
                ),
            )
        return executor.counters, len(executor.submitted)

    def test_healthy_result_counts_nothing(self):
        counters, _ = self._accept()
        assert counters.sweep_fallbacks == 0
        assert counters.memory_degrades == 0

    def test_fallback_counter_still_counted(self):
        counters, chunks = self._accept(sweep_fallback=True)
        assert counters.sweep_fallbacks == chunks > 0

    def test_memory_degrades_accumulate(self):
        counters, chunks = self._accept(memory_degrades=3)
        assert counters.memory_degrades == 3 * chunks


class TestHeadVariedSpecs:
    def test_group_key_is_family_and_data_shape(self):
        a = HybridSpec(n_features=4, n_qubits=3, n_layers=2, hidden=())
        b = HybridSpec(n_features=4, n_qubits=3, n_layers=2, hidden=(6, 4))
        c = HybridSpec(n_features=4, n_qubits=5, n_layers=3, hidden=(6, 4))
        assert a.group_key() == b.group_key() == c.group_key()
        assert a.label != b.label  # cost-model labels stay distinct
        others = [
            HybridSpec(n_features=5, n_qubits=3, n_layers=2),
            HybridSpec(n_features=4, n_classes=4, n_qubits=3, n_layers=2),
            HybridSpec(n_features=4, n_qubits=3, n_layers=2, ansatz="bel"),
            ClassicalSpec(n_features=4, hidden=(3,)),
        ]
        keys = {spec.group_key() for spec in [a] + others}
        assert len(keys) == 1 + len(others)
        assert ClassicalSpec(n_features=4, hidden=(2, 8)).group_key() == (
            ClassicalSpec(n_features=4, hidden=(10,)).group_key()
        )

    def test_head_changes_flops_and_params(self):
        a = HybridSpec(n_features=4, n_qubits=3, n_layers=2)
        b = HybridSpec(n_features=4, n_qubits=3, n_layers=2, hidden=(6,))
        assert b.flops() > a.flops()
        assert b.param_count > a.param_count

    def test_bad_head_rejected(self):
        with pytest.raises(ConfigurationError):
            HybridSpec(n_features=4, n_qubits=3, n_layers=1, hidden=(0,))

    def test_head_round_trips_through_results(self):
        from repro.core.results import spec_from_dict, spec_to_dict

        spec = HybridSpec(n_features=4, n_qubits=3, n_layers=2, hidden=(6, 4))
        assert spec_from_dict(spec_to_dict(spec)) == spec
        # pre-head snapshots (no "hidden" key) load as the empty head
        legacy = spec_to_dict(spec)
        del legacy["hidden"]
        assert spec_from_dict(legacy).hidden == ()
