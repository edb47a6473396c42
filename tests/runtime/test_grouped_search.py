"""Runtime tests for cross-candidate stacked execution.

Bit-identical ``SearchOutcome`` with candidate stacking on vs off,
sequential and pooled; multi-candidate chunks priced and observed per
candidate; stacked-path failures re-attributed through the
per-candidate fallback with the correct candidate coordinates; chunk
results counted into the executor's counters.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.core.grid_search import (
    GROUP_LOOKAHEAD,
    MAX_GROUP_CANDIDATES,
    TrainingSettings,
    grid_search,
    plan_group,
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
    ExecutorCounters,
    Scheduler,
    chunk_candidates,
)
from repro.runtime.jobs import (
    ChunkResult,
    JobChunk,
    RunError,
    execute_chunk,
    make_chunks,
)


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


def _settings(stacked, vectorized=True, **kw):
    defaults = dict(epochs=6, batch_size=8, runs=2, early_stop_threshold=0.6)
    defaults.update(kw)
    return TrainingSettings(
        **defaults,
        vectorized_runs=vectorized,
        stacked_candidates=stacked,
    )


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
    """array_equal-identical SearchOutcome with candidate stacking on
    vs off."""

    def test_sequential_on_off_identical(self, easy_split):
        kwargs = dict(
            specs=head_varied_space(), split=easy_split, threshold=0.6, seed=3
        )
        off = grid_search(**kwargs, settings=_settings(False), workers=1)
        on = grid_search(**kwargs, settings=_settings(True), workers=1)
        scalar = grid_search(
            **kwargs, settings=_settings(False, vectorized=False), workers=1
        )
        _assert_same_outcome(off, on)
        _assert_same_outcome(off, scalar)

    def test_pooled_matches_sequential_both_modes(self, easy_split):
        kwargs = dict(
            specs=head_varied_space(), split=easy_split, threshold=0.6, seed=3
        )
        seq = grid_search(**kwargs, settings=_settings(True), workers=1)
        with PersistentPool(2) as pool:
            pool_on = grid_search(
                **kwargs, settings=_settings(True), pool=pool
            )
            pool_off = grid_search(
                **kwargs, settings=_settings(False), pool=pool
            )
            assert pool.cost_model.observations > 0
        _assert_same_outcome(pool_on, seq)
        _assert_same_outcome(pool_off, seq)

    def test_single_run_candidates_group(self, easy_split):
        """runs=1 (smoke-profile shape) has no run axis to stack, but
        same-structure candidates still fuse across the group."""
        kwargs = dict(
            specs=head_varied_space(), split=easy_split, threshold=1.01, seed=5
        )
        on = grid_search(
            **kwargs,
            settings=_settings(True, runs=1, early_stop_threshold=None),
            max_candidates=4,
            workers=1,
        )
        off = grid_search(
            **kwargs,
            settings=_settings(False, runs=1, early_stop_threshold=None),
            max_candidates=4,
            workers=1,
        )
        _assert_same_outcome(on, off)

    def test_classical_space_unaffected(self, easy_split):
        """Classical candidates group (shared first and last layers);
        the outcome is the same with stacking on or off."""
        specs = classical_search_space(4, neuron_options=(2, 8), max_layers=2)
        kwargs = dict(specs=specs, split=easy_split, threshold=1.01, seed=5)
        on = grid_search(
            **kwargs,
            settings=_settings(True, runs=2, early_stop_threshold=None),
            max_candidates=3,
            workers=1,
        )
        off = grid_search(
            **kwargs,
            settings=_settings(False, runs=2, early_stop_threshold=None),
            max_candidates=3,
            workers=1,
        )
        _assert_same_outcome(on, off)


class TestPlanGroup:
    def test_groups_same_key_within_lookahead(self):
        ranked = head_varied_space()
        group = plan_group(ranked, 0, _settings(True))
        assert group[0] == 0
        assert 1 < len(group) <= MAX_GROUP_CANDIDATES
        key = ranked[0].group_key()
        assert all(ranked[j].group_key() == key for j in group)

    def test_disabled_or_keyless_returns_anchor(self, easy_split):
        ranked = head_varied_space()
        assert plan_group(ranked, 0, _settings(False)) == [0]
        assert plan_group(
            ranked, 0, _settings(True, vectorized=False)
        ) == [0]
        assert plan_group(
            [KeylessSpec(n_features=4, hidden=(h,)) for h in (2, 4, 6)],
            0,
            _settings(True),
        ) == [0]
        # classical candidates group like any other family: the next
        # MAX_GROUP_CANDIDATES, whatever their depths and widths
        classical = classical_search_space(4, neuron_options=(2, 4))
        assert plan_group(classical, 0, _settings(True)) == list(
            range(MAX_GROUP_CANDIDATES)
        )
        group = [
            (classical[j], j, range(2)) for j in range(MAX_GROUP_CANDIDATES)
        ]
        settings = _settings(True, epochs=3)
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

    def test_skip_excludes_speculated(self):
        ranked = head_varied_space()
        full = plan_group(ranked, 0, _settings(True))
        pruned = plan_group(ranked, 0, _settings(True), skip={full[1]})
        assert full[1] not in pruned

    def test_lookahead_bounded(self):
        ranked = head_varied_space()
        for anchor in range(len(ranked)):
            group = plan_group(ranked, anchor, _settings(True))
            assert all(j - anchor <= GROUP_LOOKAHEAD for j in group)


class TestExecuteCandidates:
    def test_matches_per_candidate_runs(self, easy_split):
        specs = head_varied_space()[:3]
        settings = _settings(True, early_stop_threshold=None, epochs=3)
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
        settings = _settings(True)
        assert (
            execute_candidates([(spec, 0, [0])], 7, easy_split, settings)
            is None
        )

    def test_classical_shapes_match_per_candidate_runs(self, easy_split):
        specs = classical_search_space(4, neuron_options=(2, 8), max_layers=1)
        settings = _settings(True, return_histories=True)
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
        settings = _settings(True)
        group = [(spec, i, range(2)) for i, spec in enumerate(specs)]
        assert execute_candidates(group, 7, easy_split, settings) is None

    def test_build_error_raises(self, easy_split):
        specs = [
            head_varied_space()[0],
            BoomSpec(n_features=4, n_qubits=3, n_layers=1),
        ]
        group = [(spec, i, range(2)) for i, spec in enumerate(specs)]
        with pytest.raises(RuntimeError, match="boom"):
            execute_candidates(group, 7, easy_split, _settings(True))


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
                settings=_settings(True, early_stop_threshold=None, epochs=1),
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
            settings=_settings(True, early_stop_threshold=None, epochs=1),
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
        settings = _settings(True, early_stop_threshold=None, epochs=1)
        [chunk_a] = make_chunks(good, 0, 7, 2, 2, settings, vectorized=True)
        [chunk_b] = make_chunks(boom, 1, 7, 2, 2, settings, vectorized=True)
        merged = JobChunk(
            jobs=chunk_a.jobs + chunk_b.jobs,
            split=None,
            settings=settings,
            vectorized=True,
        )
        result = execute_chunk(merged, easy_split, lambda: False)
        assert isinstance(result, ChunkResult)
        assert result.vectorized_fallback
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
        settings = _settings(True, early_stop_threshold=None, epochs=1)
        chunks = [
            make_chunks(spec, i, 7, 2, 2, settings, vectorized=True)[0]
            for i, spec in enumerate(specs)
        ]
        merged = JobChunk(
            jobs=chunks[0].jobs + chunks[1].jobs,
            split=None,
            settings=settings,
            vectorized=True,
        )
        result = execute_chunk(merged, easy_split, lambda: False)
        assert isinstance(result, ChunkResult)
        assert not result.vectorized_fallback
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
        _scheduler(_sel_depth_space(), _settings(True), executor).top_up()
        assert _packs(executor) == [[0, 1], [2, 3]]
        for chunk in executor.submitted.values():
            assert chunk.vectorized
            assert len(chunk.jobs) == 4  # two candidates x two runs

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
        _scheduler(ranked, _settings(True), executor).top_up()
        assert _packs(executor) == [[0], [1], [2], [3]]

    @pytest.mark.parametrize(
        "settings",
        [_settings(False), _settings(True, vectorized=False)],
        ids=["unstacked", "scalar"],
    )
    def test_packing_off_keeps_one_candidate_chunks(self, settings):
        executor = _RecordingExecutor(capacity=2)
        _scheduler(_sel_depth_space(), settings, executor).top_up()
        assert all(len(c) == 1 for c in _packs(executor))

    @pytest.mark.parametrize("capacity", [1, 2, 3])
    def test_lookahead_unchanged(self, capacity):
        """Packing regroups the lookahead; it queues the same
        candidates as one-candidate chunks do."""
        ranked = hybrid_search_space(
            4, "sel", qubit_options=(3, 4), depth_options=(1, 2, 3, 4)
        )
        queued = []
        for stacked in (True, False):
            executor = _RecordingExecutor(capacity=capacity)
            scheduler = _scheduler(ranked, _settings(stacked), executor)
            scheduler.top_up()
            chunks = list(executor.submitted.values()) + [
                chunk for _, _, chunk in scheduler._waiting
            ]
            queued.append(
                sorted(c for chunk in chunks for c in chunk_candidates(chunk))
            )
        assert queued[0] == queued[1]
        window = max(2 * capacity, capacity + 1)
        assert queued[0] == list(range(window))

    def test_delivery_observes_each_member(self, easy_split):
        ranked = _sel_depth_space()
        events = []
        executor = _RecordingExecutor(capacity=2)
        settings = _settings(True, early_stop_threshold=None, epochs=1)
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
        labels = [ranked[0].label, ranked[1].label]
        assert model.observations == 2
        assert sorted(model.snapshot()) == sorted(labels)
        # Per-run EWMAs: the members' shares add up to the chunk.
        assert sum(
            model.estimate(label, 0, settings.runs) for label in labels
        ) == pytest.approx(result.wall_time_s)
        degrade = next(e for e in events if e.kind == "memory-degrade")
        assert degrade.candidates == (0, 1)


class TestResultCounters:
    """Every accepted chunk's fallback and memory-degrade counts reach
    the executor's counters: the scheduler counts them on delivery,
    whatever the agents."""

    def _accept(self, **changes):
        ranked = _sel_depth_space()
        executor = _RecordingExecutor(capacity=2)
        settings = _settings(True, early_stop_threshold=None, epochs=1)
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
        assert counters.vectorized_fallbacks == 0
        assert counters.memory_degrades == 0

    def test_fallback_counter_still_counted(self):
        counters, chunks = self._accept(vectorized_fallback=True)
        assert counters.vectorized_fallbacks == chunks > 0

    def test_memory_degrades_accumulate(self):
        counters, chunks = self._accept(memory_degrades=3)
        assert counters.memory_degrades == 3 * chunks


class TestCostModelPersistence:
    def test_round_trip(self, tmp_path):
        model = ChunkCostModel(alpha=0.5)
        model.observe("A", flops=10, wall_time_s=4.0, n_runs=2)
        model.observe("B", flops=100, wall_time_s=1.0, n_runs=1)
        path = tmp_path / "costs" / "chunk_costs.json"
        model.save_json(path)

        fresh = ChunkCostModel()
        assert fresh.load_json(path)
        assert fresh.snapshot() == model.snapshot()
        assert fresh.observations == model.observations
        assert fresh.alpha == model.alpha
        assert fresh.estimate("A", 10) == model.estimate("A", 10)
        # the global seconds-per-FLOP rate survives too (unseen labels)
        assert fresh.estimate("Z", 1000) == model.estimate("Z", 1000)

    def test_missing_or_corrupt_files_are_noops(self, tmp_path):
        model = ChunkCostModel()
        assert not model.load_json(tmp_path / "absent.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert not model.load_json(bad)
        bad.write_text('["a list"]')
        assert not model.load_json(bad)
        assert model.snapshot() == {}

    def test_restore_ignores_garbage_entries(self):
        model = ChunkCostModel()
        model.restore(
            {
                "per_label": {"A": 1.5, "B": "nan?", "C": -1.0},
                "rate": "fast",
                "observations": -3,
            }
        )
        assert model.snapshot() == {"A": 1.5}
        assert model.observations == 0
        assert model.estimate("unseen", 100) == 100.0


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
