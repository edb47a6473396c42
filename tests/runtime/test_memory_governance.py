"""Differential tests for memory-governed execution.

The acceptance bar: a search's :class:`SearchOutcome` is bit-identical
to the unbudgeted baseline under *any* ``memory_budget`` — a 1-byte
budget that forces every group apart, or a huge one that changes
nothing — and under injected out-of-memory faults, sequential and
pooled alike.  Governance and the OOM recovery ladder shape only the
execution: group width, in-flight bytes, and which
backend/granularity a chunk ends up training on.

Sizing decisions surface as ``group-resize`` events and ladder steps as
``memory-degrade`` events, so the suite also asserts the observability
contract: an over-budget group demonstrably splits, and an injected
OOM lands on a degraded path instead of an error.

Set ``REPRO_CAP_AS`` (bytes) to run the whole module under a capped
address space (``RLIMIT_AS``) — CI uses this to prove the suite holds
when allocations can genuinely fail.
"""

import dataclasses
import errno
import os

import numpy as np
import pytest

from repro.core.grid_search import (
    MAX_GROUP_CANDIDATES,
    TrainingSettings,
    grid_search,
)
from repro.core.search_space import ClassicalSpec, HybridSpec, classical_search_space
from repro.data import make_spiral, stratified_split
from repro.exceptions import ConfigurationError
from repro.runtime import FaultPlan, PersistentPool, faults
from repro.quantum.engine import dense_peak_bytes
from repro.runtime.memory import (
    estimate_candidate_bytes,
    estimate_group_bytes,
    fit_group,
    is_memory_error,
    parse_memory_budget,
    resolve_memory_budget,
)
from repro.runtime import memory as memory_mod
from repro.runtime.jobs import pack_candidates
from repro.runtime import parallel as parallel_mod
from scalar_oracle import scalar_search

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


class KeylessSpec(ClassicalSpec):
    """A classical spec that never groups (picklable by reference)."""

    def group_key(self):
        return None


def _head_varied_hybrids(n=6):
    """Same tape structure, different classical heads: one group key."""
    heads = [()] + [(w,) for w in range(2, n + 1)]
    return [
        HybridSpec(n_features=4, n_qubits=2, n_layers=1, ansatz="sel", hidden=h)
        for h in heads[:n]
    ]


def _dense_record(engine, rows, runs, mode="adjoint"):
    """:func:`dense_peak_bytes` for a compiled tape's own shape."""
    plan = engine._plan
    return dense_peak_bytes(
        engine.n_qubits,
        plan.n_layers,
        plan.n_params,
        plan.enc_wires.size,
        rows,
        runs,
        mode,
    )


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

    @pytest.mark.parametrize(
        "text", ["", "lots", "12Q", "G2", "nan", "inf", "-inf", "1e400"]
    )
    def test_invalid_rejected(self, text):
        with pytest.raises(ConfigurationError):
            parse_memory_budget(text)


class TestBudgetResolution:
    def test_setting_wins(self):
        assert resolve_memory_budget(123.0) == 123

    def test_auto_default(self):
        budget = resolve_memory_budget(None)
        # A probe-less platform resolves to None (governance off).
        if budget is not None:
            assert budget > 0

    def test_zero_disables(self):
        assert resolve_memory_budget(0.0) is None

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_setting_rejected(self, value):
        with pytest.raises(ConfigurationError):
            resolve_memory_budget(value)


class TestMemoryErrorClassification:
    def test_memoryerror_and_enomem(self):
        assert is_memory_error(MemoryError())
        assert is_memory_error(OSError(errno.ENOMEM, "no mem"))
        assert is_memory_error(OSError(errno.ENOSPC, "shm full"))

    def test_ordinary_errors_are_not(self):
        assert not is_memory_error(ValueError("shape mismatch"))
        assert not is_memory_error(OSError(errno.ENOENT, "missing"))

    @pytest.mark.parametrize(
        "name,message",
        [
            ("OutOfMemoryError", "CUDA out of memory"),
            ("RuntimeError", "CUDA out of memory. Tried to allocate 2 GiB"),
            ("OutOfMemoryError", "Out of memory allocating 1024 bytes"),
        ],
    )
    def test_device_library_errors_are_not(self, name, message):
        """Only host allocations are classified: an error named or
        worded like a GPU library's OOM is an ordinary failure."""
        exc = type(name, (RuntimeError,), {})(message)
        assert not is_memory_error(exc)


class TestHostProbe:
    """``_free_host_bytes`` reads ``MemAvailable`` from
    ``/proc/meminfo`` and falls back to ``sysconf``."""

    @staticmethod
    def _meminfo(monkeypatch, text=None):
        """Serve ``text`` as ``/proc/meminfo``; ``None`` makes it
        unreadable."""
        real_open = open

        def fake_open(path, *args, **kwargs):
            if path != "/proc/meminfo":
                return real_open(path, *args, **kwargs)
            if text is None:
                raise OSError(errno.ENOENT, "no meminfo")
            import io

            return io.BytesIO(text.encode())

        monkeypatch.setattr(memory_mod, "open", fake_open, raising=False)

    @staticmethod
    def _sysconf(monkeypatch, pages, page_size):
        values = {"SC_AVPHYS_PAGES": pages, "SC_PAGE_SIZE": page_size}

        def fake_sysconf(name):
            value = values[name]
            if isinstance(value, Exception):
                raise value
            return value

        monkeypatch.setattr(memory_mod.os, "sysconf", fake_sysconf)

    def test_reads_mem_available(self, monkeypatch):
        self._meminfo(
            monkeypatch,
            "MemTotal:  8000 kB\nMemFree:  100 kB\nMemAvailable:  2048 kB\n",
        )
        self._sysconf(monkeypatch, 1, 1)
        assert memory_mod._free_host_bytes() == 2048 * 1024

    def test_unreadable_meminfo_falls_back_to_sysconf(self, monkeypatch):
        self._meminfo(monkeypatch, None)
        self._sysconf(monkeypatch, 300, 4096)
        assert memory_mod._free_host_bytes() == 300 * 4096

    def test_meminfo_without_available_falls_back(self, monkeypatch):
        self._meminfo(monkeypatch, "MemTotal:  8000 kB\nMemFree:  1 kB\n")
        self._sysconf(monkeypatch, 7, 4096)
        assert memory_mod._free_host_bytes() == 7 * 4096

    @pytest.mark.parametrize(
        "pages,page_size",
        [
            (0, 4096),
            (10, 0),
            (-1, 4096),
            (ValueError("unknown name"), 4096),
            (10, OSError(errno.EINVAL, "unsupported")),
        ],
    )
    def test_no_answer_is_none(self, monkeypatch, pages, page_size):
        self._meminfo(monkeypatch, None)
        self._sysconf(monkeypatch, pages, page_size)
        assert memory_mod._free_host_bytes() is None

    def test_budget_is_a_fraction_of_the_probe(self, monkeypatch):
        monkeypatch.setattr(memory_mod, "_free_host_bytes", lambda: 1000)
        assert resolve_memory_budget(None) == int(
            1000 * memory_mod.MEMORY_BUDGET_FRACTION
        )

    def test_silent_probe_turns_governance_off(self, monkeypatch):
        monkeypatch.setattr(memory_mod, "_free_host_bytes", lambda: None)
        assert resolve_memory_budget(None) is None

    @pytest.mark.skipif(
        not os.path.exists("/proc/meminfo"), reason="no /proc/meminfo"
    )
    def test_live_probe_is_positive(self):
        free = memory_mod._free_host_bytes()
        assert isinstance(free, int) and free > 0


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
        fwd = _dense_record(engine, 8, runs=2, mode="forward")
        adj = _dense_record(engine, 8, runs=2, mode="adjoint")
        assert 0 < fwd < adj
        assert _dense_record(engine, 16, runs=2, mode="forward") > fwd

    def test_candidate_bytes_cover_adam_moments(self):
        from repro.nn.stacked import stack_candidates

        spec = ClassicalSpec(n_features=4, hidden=(8,))
        models = [spec.build(np.random.default_rng(i)) for i in range(2)]
        stacked = stack_candidates([models])
        assert stacked is not None
        param_bytes = sum(p.nbytes for p in stacked.parameters())
        # Parameters + gradients + both Adam moments, at minimum.
        assert estimate_candidate_bytes(spec, 8, 2) >= 4 * param_bytes

    def test_ragged_group_sized_at_padded_depth(self):
        """A fused quantum layer runs every slice at its deepest
        member's depth, so a ragged group is sized like the same group
        at uniform maximum depth."""
        shallow, deep = (
            HybridSpec(n_features=4, n_qubits=3, n_layers=depth)
            for depth in (1, 4)
        )
        ragged = estimate_group_bytes([shallow, deep], 8, 2)
        assert ragged == estimate_group_bytes([deep, deep], 8, 2)
        assert ragged > (
            estimate_candidate_bytes(shallow, 8, 2)
            + estimate_candidate_bytes(deep, 8, 2)
        )

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
            _dense_record(engine, batch * runs, runs=runs)
        )


def _first_pack(ranked):
    """The in-process executor's first pack: same-key neighbours up to
    the group cap."""
    return pack_candidates(
        ranked, range(len(ranked)), MAX_GROUP_CANDIDATES
    )[0]


class TestGroupSizing:
    """The in-process executor trims each pack's tail to the budget
    (:func:`fit_group`); the anchor always trains."""

    def _fit(self, ranked, settings, budget):
        return fit_group(ranked, settings.batch_size, settings.runs, budget)

    def test_huge_budget_never_grows(self):
        ranked = _head_varied_hybrids(6)
        pack = _first_pack(ranked)
        assert len(pack) == MAX_GROUP_CANDIDATES
        specs = [ranked[j] for j in pack]
        assert self._fit(specs, _settings(), 2**44) == MAX_GROUP_CANDIDATES

    def test_tiny_budget_shrinks_to_anchor(self):
        ranked = _head_varied_hybrids(6)
        specs = [ranked[j] for j in _first_pack(ranked)]
        assert self._fit(specs, _settings(), 1) == 1

    def test_ragged_group_shrinks_at_padded_depth(self):
        """A budget between the own-depth sum and the padded estimate
        cannot hold the ragged pair: its shallow member runs at the deep
        member's depth."""
        ranked = [
            HybridSpec(n_features=4, n_qubits=3, n_layers=depth)
            for depth in (1, 4)
        ]
        settings = _settings()
        own_depth = sum(
            estimate_candidate_bytes(spec, settings.batch_size, settings.runs)
            for spec in ranked
        )
        padded = estimate_group_bytes(
            ranked, settings.batch_size, settings.runs
        )
        assert own_depth < padded
        budget = (own_depth + padded) // 2
        assert _first_pack(ranked) == [0, 1]
        assert self._fit(ranked, settings, None) == 2
        assert self._fit(ranked, settings, budget) == 1

    def test_no_budget_keeps_default_cap(self):
        ranked = _head_varied_hybrids(6)
        pack = _first_pack(ranked)
        assert 1 < len(pack) <= MAX_GROUP_CANDIDATES
        specs = [ranked[j] for j in pack]
        assert self._fit(specs, _settings(), None) == len(pack)


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


class TestRecoveryLadder:
    """:func:`~repro.runtime.jobs.chunk_entries` walks one ladder for
    groups of any size.  Whatever every fused sweep does — run out of
    memory, fail, or decline to stack — the entries equal the scalar
    loop's, the flags count the steps taken, and every sweep attempt
    is an ``execute_candidates`` call: a memory error halves a group
    down to lone candidates, which then fall to the scalar floor (NumPy
    needs no backend retry); any other failure or a decline splits the
    group per candidate once."""

    @pytest.mark.parametrize(
        "n_candidates,failure,flags,attempts",
        [
            (1, "memory", (False, 1), [(0,)]),
            (1, "other", (True, 0), [(0,)]),
            (1, "declined", (False, 0), [(0,)]),
            (3, "memory", (False, 5), [(0, 1, 2), (0, 1), (0,), (1,), (2,)]),
            (3, "other", (True, 0), [(0, 1, 2), (0,), (1,), (2,)]),
            (3, "declined", (False, 0), [(0, 1, 2), (0,), (1,), (2,)]),
        ],
    )
    def test_ladder_steps(
        self, easy_split, monkeypatch, n_candidates, failure, flags, attempts
    ):
        from repro.runtime import jobs

        seen = []

        def sweep(group, *args, **kw):
            seen.append(tuple(index for _, index, _ in group))
            if failure == "memory":
                raise MemoryError("injected sweep OOM")
            if failure == "other":
                raise RuntimeError("injected sweep failure")
            return None

        monkeypatch.setattr(jobs, "execute_candidates", sweep)
        settings = _settings(epochs=2)
        specs = classical_search_space(4, neuron_options=(2, 8), max_layers=2)
        batch = [
            jobs.TrainingJob(spec, 5, index, run)
            for index, spec in enumerate(specs[:n_candidates])
            for run in range(settings.runs)
        ]
        entries, fallback, degrades = jobs.chunk_entries(
            batch, easy_split, settings
        )
        assert (fallback, degrades) == flags
        assert seen == attempts
        assert len(entries) == len(batch)
        for job, entry in zip(batch, entries):
            ref = jobs.execute_job(job, easy_split, settings)
            assert (entry.candidate_index, entry.run) == (
                job.candidate_index,
                job.run,
            )
            assert entry.train_accuracy == ref.train_accuracy
            assert entry.val_accuracy == ref.val_accuracy
            assert entry.epochs_run == ref.epochs_run

    def test_one_slice_batch_trains_scalar(self, easy_split, monkeypatch):
        """A batch of one run of one candidate has no sweep to try: it
        trains through the scalar floor, unflagged."""
        from repro.runtime import jobs

        def sweep(*args, **kw):
            raise AssertionError("a one-slice batch must not sweep")

        monkeypatch.setattr(jobs, "execute_candidates", sweep)
        settings = _settings(epochs=2, runs=1)
        spec = classical_search_space(4, neuron_options=(2,), max_layers=1)[0]
        job = jobs.TrainingJob(spec, 5, 0, 0)
        [entry], fallback, degrades = jobs.chunk_entries(
            [job], easy_split, settings
        )
        assert (fallback, degrades) == (False, 0)
        ref = jobs.execute_job(job, easy_split, settings)
        assert entry == dataclasses.replace(ref, wall_time_s=entry.wall_time_s)


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
            assert pool.counters.memory_degrades == 0

    def test_injected_oom_pooled_bit_identical(self, easy_split, tmp_path):
        """The ladder acceptance: an ``oom`` fault mid-chunk degrades
        gracefully — same outcome, counted and surfaced."""
        kwargs = _search_kwargs(easy_split)
        baseline = grid_search(**kwargs, settings=_settings(), workers=1)
        with PersistentPool(2, fault_dir=tmp_path) as pool:
            events = []
            faults.arm_file_fault(tmp_path, FaultPlan(kind="oom", candidate=1))
            faulted = grid_search(
                **kwargs,
                settings=_settings(),
                pool=pool,
                on_event=events.append,
            )
            _assert_same_outcome(faulted, baseline)
            degrades = pool.counters.memory_degrades
            assert degrades >= 1
            assert pool.stats()["memory_degrades"] == degrades
            degrade = next(
                e for e in events if e.kind == "memory-degrade"
            )
            assert 1 in degrade.candidates
            # No crash/retry machinery involved: OOM is a resource
            # failure, not an infrastructure one.
            assert pool.counters.chunk_retries == 0
            assert "conn-lost" not in [e.kind for e in events]

    def test_oom_on_scalar_chunk_absorbed(self, easy_split, tmp_path):
        """A chunk with no fused sweep to degrade (one run of one
        keyless candidate) absorbs the fault at the ladder's floor (the
        scalar path) instead of erroring."""
        kwargs = _search_kwargs(easy_split)
        kwargs["specs"] = [
            KeylessSpec(n_features=spec.n_features, hidden=spec.hidden)
            for spec in kwargs["specs"]
        ]
        settings = _settings(runs=1)
        with PersistentPool(2, fault_dir=tmp_path) as pool:
            faults.arm_file_fault(tmp_path, FaultPlan(kind="oom", candidate=0))
            faulted = grid_search(**kwargs, settings=settings, pool=pool)
            assert pool.counters.memory_degrades >= 1
        _assert_same_outcome(
            faulted, scalar_search(**kwargs, settings=settings)
        )


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

    @pytest.mark.parametrize("text", ["nan", "inf", "1e400"])
    def test_cli_rejects_non_finite_budget(self, text, capsys):
        from repro.cli import build_parser, validate_args

        parser = build_parser()
        args = parser.parse_args(["fig8", "--memory-budget", text])
        with pytest.raises(SystemExit) as exit_info:
            validate_args(parser, args)
        assert exit_info.value.code == 2  # parser.error's usage exit
        assert "invalid memory budget" in capsys.readouterr().err

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
