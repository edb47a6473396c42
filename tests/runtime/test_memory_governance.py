"""Differential tests for memory-governed execution.

The acceptance bar: a search's :class:`SearchOutcome` is bit-identical
to the unbudgeted baseline under *any* ``memory_budget`` — a 1-byte
budget that forces every group apart, or a huge explicit budget that
grows groups past the fixed cap — and under injected out-of-memory
faults, sequential and pooled alike.  Governance and the OOM recovery
ladder shape only the execution: group width, in-flight bytes, and
which backend/granularity a chunk ends up training on.

Sizing decisions surface as ``group-resize`` events and ladder steps as
``memory-degrade`` events, so the suite also asserts the observability
contract: an over-budget group demonstrably splits, a predicted-cheap
same-structure workload demonstrably merges past
``MAX_GROUP_CANDIDATES``, and an injected OOM lands on a degraded path
instead of an error.

Set ``REPRO_CAP_AS`` (bytes) to run the whole module under a capped
address space (``RLIMIT_AS``) — CI uses this to prove the suite holds
when allocations can genuinely fail.
"""

import errno
import os

import numpy as np
import pytest

from repro.core.grid_search import (
    MAX_ADAPTIVE_GROUP,
    MAX_GROUP_CANDIDATES,
    TrainingSettings,
    grid_search,
    plan_group,
)
from repro.core.search_space import ClassicalSpec, HybridSpec, classical_search_space
from repro.data import make_spiral, stratified_split
from repro.exceptions import ConfigurationError
from repro.runtime import FaultPlan, PersistentPool
from repro.runtime.memory import (
    MEMORY_BUDGET_ENV_VAR,
    MemoryBudget,
    estimate_candidate_bytes,
    is_memory_error,
    parse_memory_budget,
    resolve_memory_budget,
)
from repro.runtime import parallel as parallel_mod
from repro.runtime.pool import ChunkCostModel

pytestmark = pytest.mark.timeout(120)


@pytest.fixture(autouse=True, scope="module")
def _capped_address_space():
    """Optionally run the module under a bounded address space.

    Gated on ``REPRO_CAP_AS`` so local runs stay unconstrained; CI sets
    it to prove governance and the recovery ladder behave when the OS
    can actually refuse an allocation.
    """
    cap = os.environ.get("REPRO_CAP_AS")
    if not cap:
        yield
        return
    import resource

    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    resource.setrlimit(resource.RLIMIT_AS, (int(cap), hard))
    try:
        yield
    finally:
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))


@pytest.fixture(autouse=True)
def snappy_watchdog(monkeypatch):
    """Worker death detected in ~0.2s instead of the production 10s."""
    monkeypatch.setattr(parallel_mod, "_WATCHDOG_INTERVAL_S", 0.2)


@pytest.fixture(scope="module")
def easy_split():
    ds = make_spiral(4, n_points=150, noise=0.0, turns=0.4, seed=7)
    return stratified_split(ds, seed=7)


def _settings(**overrides):
    base = dict(epochs=3, batch_size=32, runs=2)
    base.update(overrides)
    return TrainingSettings(**base)


def _assert_same_outcome(got, expected):
    assert got.succeeded == expected.succeeded
    if expected.winner is not None:
        assert got.winner.spec == expected.winner.spec
        assert got.winner.val_accuracies == expected.winner.val_accuracies
    assert [c.spec for c in got.evaluated] == [
        c.spec for c in expected.evaluated
    ]
    assert [c.train_accuracies for c in got.evaluated] == [
        c.train_accuracies for c in expected.evaluated
    ]
    assert [c.val_accuracies for c in got.evaluated] == [
        c.val_accuracies for c in expected.evaluated
    ]
    assert [c.epochs_run for c in got.evaluated] == [
        c.epochs_run for c in expected.evaluated
    ]


def _search_kwargs(easy_split):
    # Unreachable threshold: every candidate must complete, so a budget
    # or fault that silently dropped work could not pass unnoticed.
    return dict(
        specs=classical_search_space(4, neuron_options=(2, 8), max_layers=2),
        split=easy_split,
        threshold=1.01,
        max_candidates=4,
        seed=5,
    )


def _head_varied_hybrids(n=6):
    """Same tape structure, different classical heads: one group key."""
    heads = [()] + [(w,) for w in range(2, n + 1)]
    return [
        HybridSpec(n_features=4, n_qubits=2, n_layers=1, ansatz="sel", hidden=h)
        for h in heads[:n]
    ]


class TestBudgetParsing:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("123", 123.0),
            ("2K", 2 * 1024.0),
            ("512M", 512 * 1024**2),
            ("2G", 2 * 1024**3),
            ("1T", 1024**4),
            ("2GB", 2 * 1024**3),
            ("off", 0.0),
            ("none", 0.0),
        ],
    )
    def test_units(self, text, expected):
        assert parse_memory_budget(text) == expected

    @pytest.mark.parametrize("text", ["", "lots", "12Q", "G2"])
    def test_invalid_rejected(self, text):
        with pytest.raises(ConfigurationError):
            parse_memory_budget(text)


class TestBudgetResolution:
    def test_explicit_wins_over_env(self, monkeypatch):
        monkeypatch.setenv(MEMORY_BUDGET_ENV_VAR, "1M")
        budget = resolve_memory_budget(123.0)
        assert budget == MemoryBudget(bytes=123, source="settings")
        assert budget.active and budget.explicit

    def test_env_wins_over_auto(self, monkeypatch):
        monkeypatch.setenv(MEMORY_BUDGET_ENV_VAR, "1M")
        budget = resolve_memory_budget(None)
        assert budget == MemoryBudget(bytes=1024**2, source="env")
        assert budget.active and budget.explicit

    def test_auto_default(self, monkeypatch):
        monkeypatch.delenv(MEMORY_BUDGET_ENV_VAR, raising=False)
        budget = resolve_memory_budget(None)
        # Auto budgets govern (split/admit) but never grow groups.
        if budget.active:  # a probe-less platform resolves to "off"
            assert budget.source == "auto"
            assert budget.bytes > 0
            assert not budget.explicit

    def test_zero_disables(self, monkeypatch):
        monkeypatch.setenv(MEMORY_BUDGET_ENV_VAR, "1M")
        budget = resolve_memory_budget(0.0)
        assert not budget.active

    def test_invalid_env_disables(self, monkeypatch):
        monkeypatch.setenv(MEMORY_BUDGET_ENV_VAR, "banana")
        assert not resolve_memory_budget(None).active


class TestMemoryErrorClassification:
    def test_memoryerror_and_enomem(self):
        assert is_memory_error(MemoryError())
        assert is_memory_error(OSError(errno.ENOMEM, "no mem"))
        assert is_memory_error(OSError(errno.ENOSPC, "shm full"))

    def test_ordinary_errors_are_not(self):
        assert not is_memory_error(ValueError("shape mismatch"))
        assert not is_memory_error(OSError(errno.ENOENT, "missing"))


class TestAnalyticEstimates:
    def test_candidate_bytes_positive_and_monotone(self):
        spec = ClassicalSpec(n_features=4, hidden=(8,))
        small = estimate_candidate_bytes(spec, 8, 2)
        assert small > 0
        assert estimate_candidate_bytes(spec, 16, 2) > small
        assert estimate_candidate_bytes(spec, 8, 4) > small

    def test_hybrid_counts_state_buffers(self):
        classical = ClassicalSpec(n_features=4, hidden=(8,))
        hybrid = HybridSpec(n_features=4, n_qubits=3, n_layers=2)
        assert estimate_candidate_bytes(
            hybrid, 8, 2
        ) > estimate_candidate_bytes(classical, 8, 2)

    def test_unstacked_width_sizes_one_run(self):
        """n > 5 candidates never stack, so their runs train one by one:
        only the per-run parameter stacks grow with ``runs``."""
        spec = HybridSpec(n_features=4, n_qubits=6, n_layers=2)
        one = estimate_candidate_bytes(spec, 8, 1)
        four = estimate_candidate_bytes(spec, 8, 4)
        assert four - one == 3 * 4 * spec.param_count * 8
        assert one > 6 * 8 * 2**6 * 16

    def test_engine_peak_bytes(self):
        from repro.quantum import (
            angle_embedding,
            compiled_tape,
            random_sel_weights,
            strongly_entangling_layers,
        )

        rng = np.random.default_rng(0)
        x = rng.uniform(-1, 1, (4, 3))
        w = random_sel_weights(2, 3, rng)
        tape = angle_embedding(x, 3) + strongly_entangling_layers(w, 3)
        engine = compiled_tape(tape, 3)
        fwd = engine.peak_bytes(8, runs=2, mode="forward")
        adj = engine.peak_bytes(8, runs=2, mode="adjoint")
        assert 0 < fwd < adj
        assert engine.peak_bytes(16, runs=2, mode="forward") > fwd

    def test_stacked_peak_bytes_covers_adam_moments(self):
        from repro.nn.stacked import stack_models

        models = [
            ClassicalSpec(n_features=4, hidden=(8,)).build(
                np.random.default_rng(i)
            )
            for i in range(2)
        ]
        stacked = stack_models(models)
        assert stacked is not None
        param_bytes = sum(p.nbytes for p in stacked.parameters())
        # Parameters + gradients + both Adam moments, at minimum.
        assert stacked.peak_bytes(8) >= 4 * param_bytes

    @pytest.mark.parametrize("n_layers", [1, 2, 3, 4])
    @pytest.mark.parametrize("n_qubits", [3, 4, 5])
    @pytest.mark.parametrize("ansatz", ["bel", "sel"])
    def test_hybrid_estimate_covers_dense_record(
        self, ansatz, n_qubits, n_layers
    ):
        """The pre-build estimate covers what the built candidate's
        dense engine predicts for an adjoint step of the same rows."""
        from repro.hybrid.quantum_layer import QuantumLayer
        from repro.quantum.engine import CompiledTape

        spec = HybridSpec(
            n_features=4, n_qubits=n_qubits, n_layers=n_layers, ansatz=ansatz
        )
        model = spec.build(np.random.default_rng(0))
        [qlayer] = [l for l in model.layers if isinstance(l, QuantumLayer)]
        engine = CompiledTape(
            qlayer.build_tape(np.zeros((1, n_qubits))), n_qubits
        )
        batch, runs = 8, 2
        assert estimate_candidate_bytes(spec, batch, runs) >= (
            engine.peak_bytes(batch * runs, runs=runs, mode="adjoint")
        )


class TestPlanGroupSizing:
    def test_explicit_budget_grows_past_fixed_cap(self):
        ranked = _head_varied_hybrids(MAX_ADAPTIVE_GROUP + 1)
        settings = _settings()
        huge = MemoryBudget(bytes=2**44, source="settings")
        group = plan_group(ranked, 0, settings, budget=huge)
        assert len(group) == MAX_ADAPTIVE_GROUP > MAX_GROUP_CANDIDATES

    def test_auto_budget_never_grows(self):
        ranked = _head_varied_hybrids(6)
        auto = MemoryBudget(bytes=2**44, source="auto")
        group = plan_group(ranked, 0, _settings(), budget=auto)
        assert len(group) <= MAX_GROUP_CANDIDATES

    def test_tiny_budget_shrinks_to_anchor(self):
        ranked = _head_varied_hybrids(6)
        tiny = MemoryBudget(bytes=1, source="settings")
        assert plan_group(ranked, 0, _settings(), budget=tiny) == [0]

    def test_no_budget_keeps_default_cap(self):
        ranked = _head_varied_hybrids(6)
        group = plan_group(ranked, 0, _settings())
        assert 1 < len(group) <= MAX_GROUP_CANDIDATES


class TestSequentialDifferential:
    def test_any_budget_is_bit_identical(self, easy_split):
        kwargs = _search_kwargs(easy_split)
        baseline = grid_search(**kwargs, settings=_settings(), workers=1)
        for budget in (1.0, 2.0**44):
            governed = grid_search(
                **kwargs,
                settings=_settings(memory_budget=budget),
                workers=1,
            )
            _assert_same_outcome(governed, baseline)

    def test_tiny_budget_emits_group_resize(self, easy_split):
        specs = _head_varied_hybrids(5)
        kwargs = dict(
            specs=specs,
            split=easy_split,
            threshold=1.01,
            seed=5,
        )
        baseline = grid_search(**kwargs, settings=_settings(), workers=1)
        events = []
        shrunk = grid_search(
            **kwargs,
            settings=_settings(memory_budget=1.0),
            workers=1,
            on_event=events.append,
        )
        _assert_same_outcome(shrunk, baseline)
        resizes = [e for e in events if e.kind == "group-resize"]
        assert resizes and "shrank" in str(resizes[0])

    def test_huge_budget_merges_past_fixed_cap(self, easy_split):
        specs = _head_varied_hybrids(6)
        kwargs = dict(
            specs=specs,
            split=easy_split,
            threshold=1.01,
            seed=5,
        )
        baseline = grid_search(**kwargs, settings=_settings(), workers=1)
        events = []
        grown = grid_search(
            **kwargs,
            settings=_settings(memory_budget=2.0**44),
            workers=1,
            on_event=events.append,
        )
        _assert_same_outcome(grown, baseline)
        resizes = [e for e in events if e.kind == "group-resize"]
        assert resizes and "grew" in str(resizes[0])
        # The grown group covers more members than the fixed cap allows.
        assert any(
            len(e.candidates) > MAX_GROUP_CANDIDATES for e in resizes
        )

    def test_sequential_oom_walks_ladder(self, easy_split, monkeypatch):
        """A fused-sweep MemoryError splits the group and retries; the
        outcome matches the fault-free baseline and the degradation is
        visible as memory-degrade events."""
        import importlib

        jobs = importlib.import_module("repro.runtime.jobs")
        # Classical specs never group, so use the head-varied hybrid
        # space — its candidates train as one fused sweep.
        kwargs = dict(
            specs=_head_varied_hybrids(4),
            split=easy_split,
            threshold=1.01,
            seed=5,
        )
        baseline = grid_search(**kwargs, settings=_settings(), workers=1)

        real = jobs.execute_candidates
        fired = []

        def oom_once(group, *args, **kw):
            if not fired and len(group) > 1:
                fired.append(True)
                raise MemoryError("injected fused-sweep OOM")
            return real(group, *args, **kw)

        monkeypatch.setattr(jobs, "execute_candidates", oom_once)
        events = []
        degraded = grid_search(
            **kwargs, settings=_settings(), workers=1,
            on_event=events.append,
        )
        assert fired  # the fault actually hit a fused sweep
        _assert_same_outcome(degraded, baseline)
        kinds = [e.kind for e in events]
        assert "memory-degrade" in kinds


class TestPooledDifferential:
    def test_tiny_budget_pooled_bit_identical(self, easy_split):
        kwargs = _search_kwargs(easy_split)
        baseline = grid_search(**kwargs, settings=_settings(), workers=1)
        with PersistentPool(2) as pool:
            governed = grid_search(
                **kwargs,
                settings=_settings(memory_budget=1.0),
                pool=pool,
            )
            _assert_same_outcome(governed, baseline)
            # Admission control throttled concurrency, nothing degraded.
            assert pool.memory_degrades == 0

    def test_injected_oom_pooled_bit_identical(self, easy_split):
        """The ISSUE's ladder acceptance: an ``oom`` fault mid-chunk
        degrades gracefully — same outcome, counted and surfaced."""
        kwargs = _search_kwargs(easy_split)
        baseline = grid_search(**kwargs, settings=_settings(), workers=1)
        with PersistentPool(2) as pool:
            events = []
            pool.install_fault(FaultPlan(kind="oom", candidate=1))
            try:
                faulted = grid_search(
                    **kwargs,
                    settings=_settings(),
                    pool=pool,
                    on_event=events.append,
                )
            finally:
                pool.clear_fault()
            _assert_same_outcome(faulted, baseline)
            assert pool.memory_degrades >= 1
            assert pool.stats()["memory_degrades"] == pool.memory_degrades
            degrade = next(
                e for e in events if e.kind == "memory-degrade"
            )
            assert 1 in degrade.candidates
            # No crash/retry machinery involved: OOM is a resource
            # failure, not an infrastructure one.
            assert pool.chunk_retries == 0
            assert "worker-lost" not in [e.kind for e in events]

    def test_oom_on_scalar_chunk_absorbed(self, easy_split):
        """A chunk with no fused sweep to degrade absorbs the fault at
        the ladder's floor (the scalar path) instead of erroring."""
        kwargs = _search_kwargs(easy_split)
        settings = _settings(vectorized_runs=False)
        baseline = grid_search(**kwargs, settings=settings, workers=1)
        with PersistentPool(2) as pool:
            pool.install_fault(FaultPlan(kind="oom", candidate=0))
            try:
                faulted = grid_search(**kwargs, settings=settings, pool=pool)
            finally:
                pool.clear_fault()
            _assert_same_outcome(faulted, baseline)
            assert pool.memory_degrades >= 1


class TestCostModelBytes:
    def test_bytes_ewma_round_trip(self, tmp_path):
        model = ChunkCostModel()
        assert model.bytes_estimate("a") is None
        model.observe_bytes("a", 1000, 2)
        assert model.bytes_estimate("a") == pytest.approx(500.0)
        assert model.bytes_estimate("a", 4) == pytest.approx(2000.0)
        state = model.state()
        assert state["schema"] == 2
        path = tmp_path / "costs.json"
        model.save_json(path)
        fresh = ChunkCostModel()
        assert fresh.load_json(path)
        assert fresh.bytes_estimate("a") == pytest.approx(500.0)

    def test_zero_readings_are_skipped(self):
        model = ChunkCostModel()
        model.observe_bytes("a", 0, 2)  # ru_maxrss delta of 0 = unseen
        assert model.bytes_estimate("a") is None

    def test_v1_state_still_restores(self):
        model = ChunkCostModel()
        model.restore(
            {"alpha": 0.3, "per_label": {"a": 1.5}, "rate": 1e-9,
             "observations": 3}
        )
        assert model.estimate("a", 10, 1) == pytest.approx(1.5)
        assert model.bytes_estimate("a") is None


class TestConfigPlumbing:
    def test_protocol_config_threads_budget(self):
        from repro.core.experiment import ProtocolConfig

        cfg = ProtocolConfig(memory_budget=123.0)
        assert cfg.training_settings().memory_budget == 123.0
        assert ProtocolConfig().training_settings().memory_budget is None

    def test_cli_flag_parses_and_validates(self):
        from repro.cli import build_parser, validate_args

        parser = build_parser()
        args = parser.parse_args(["fig8", "--memory-budget", "2G"])
        validate_args(parser, args)
        assert parse_memory_budget(args.memory_budget) == 2 * 1024**3
        bad = parser.parse_args(["fig8", "--memory-budget", "banana"])
        with pytest.raises(SystemExit):
            validate_args(parser, bad)

    def test_budget_not_in_cache_key(self, micro_profile, tmp_path):
        """A budget selects execution mechanics only, so budgeted and
        unbudgeted runs must share one results cache entry."""
        from repro.experiments.runner import run_family_cached

        run_family_cached(
            "classical", micro_profile, cache_dir=tmp_path, threshold=0.4
        )
        cached = sorted(p.name for p in tmp_path.iterdir())
        run_family_cached(
            "classical",
            micro_profile,
            cache_dir=tmp_path,
            threshold=0.4,
            memory_budget=1.0,
        )
        assert sorted(p.name for p in tmp_path.iterdir()) == cached
