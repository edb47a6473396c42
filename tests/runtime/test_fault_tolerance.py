"""Fault-tolerance tests for the parallel search supervisor.

The ISSUE's acceptance bar: a pooled search whose worker is ``kill
-9``-ed mid-chunk completes with an outcome array-equal to the
fault-free baseline (chunk retry); chunks past their hard deadline are
cancelled and retried (deadline watchdog); an interrupted journaled
search resumes bit-identically (checkpoint/resume); retry exhaustion
degrades to an in-process sequential finish instead of a dead sweep;
and orphaned shared-memory segments from crashed runs are swept at
pool startup.

All process-death faults here are *real* SIGKILLs delivered by the
deterministic fault-injection harness (:mod:`repro.runtime.faults`):
the worker kills itself at the start of a matching chunk, exercising
the same ``multiprocessing.Pool`` respawn and lost-callback hole a
production OOM kill hits.  ``times`` bounds each plan so retried
chunks run clean — which is what makes the bit-identity assertions
possible.
"""

import os
import subprocess
import sys

import pytest

from repro.core.grid_search import TrainingSettings, grid_search
from repro.core.search_space import classical_search_space
from repro.data import make_spiral, stratified_split
from repro.exceptions import SearchError
from repro.runtime import FaultPlan, PersistentPool, sweep_stale_segments

# A supervision regression's failure mode is a hang (a lost chunk whose
# completion never arrives); bound every test so CI fails fast instead.
# Enforced when pytest-timeout is installed (CI); inert otherwise.
pytestmark = pytest.mark.timeout(120)


@pytest.fixture(scope="module")
def easy_split():
    ds = make_spiral(4, n_points=150, noise=0.0, turns=0.4, seed=7)
    return stratified_split(ds, seed=7)


def small_space(n_features=4):
    return classical_search_space(
        n_features, neuron_options=(2, 8), max_layers=2
    )


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


def _settings(**overrides):
    """Fast settings with a snappy watchdog (death detected in ~0.2s
    instead of the production 10s)."""
    base = dict(epochs=3, batch_size=32, runs=2, watchdog_interval_s=0.2)
    base.update(overrides)
    return TrainingSettings(**base)


def _search_kwargs(easy_split, settings):
    # threshold 1.01 is unreachable: every candidate must complete, so
    # the faulted chunk *must* be retried before the search can finish
    # (a reachable threshold could let an early winner mask a lost
    # chunk and make these tests pass vacuously).
    return dict(
        specs=small_space(),
        split=easy_split,
        threshold=1.01,
        settings=settings,
        max_candidates=4,
        seed=5,
    )


class TestKilledWorkerRetry:
    """Tentpole acceptance: kill -9 a worker mid-chunk; the search
    completes and the outcome is bit-identical to the fault-free one."""

    @pytest.mark.parametrize("victim", [0, 1])
    def test_kill_retry_bit_identical(self, easy_split, victim):
        settings = _settings()
        kwargs = _search_kwargs(easy_split, settings)
        seq = grid_search(**kwargs, workers=1)
        with PersistentPool(2) as pool:
            # Warm run first: it both provides the pooled fault-free
            # baseline and leaves the workers spawned, so the faulted
            # search samples its pid baseline from live processes.
            clean = grid_search(**kwargs, pool=pool)
            _assert_same_outcome(clean, seq)

            events = []
            pool.install_fault(FaultPlan(kind="kill", candidate=victim))
            try:
                faulted = grid_search(
                    **kwargs, pool=pool, on_event=events.append
                )
            finally:
                pool.clear_fault()
            _assert_same_outcome(faulted, seq)
            assert pool.chunk_retries >= 1
            kinds = [e.kind for e in events]
            assert "worker-lost" in kinds
            assert "retry" in kinds
            # Events carry the affected candidates and attempt counts.
            lost = next(e for e in events if e.kind == "worker-lost")
            assert victim in lost.candidates
            retry = next(e for e in events if e.kind == "retry")
            assert retry.attempts >= 2
            assert "worker" in str(lost)  # str(event) is the message

            # The pool survives supervision: a later fault-free search
            # on the same workers is still bit-identical.
            again = grid_search(**kwargs, pool=pool)
            _assert_same_outcome(again, seq)


class TestRetryExhaustion:
    def test_exhaustion_falls_back_to_sequential(self, easy_split):
        """A fault that keeps killing (times > retry budget) exhausts
        retries; the sweep then finishes in-process, identically."""
        settings = _settings(max_retries=1)
        kwargs = _search_kwargs(easy_split, settings)
        seq = grid_search(**kwargs, workers=1)
        with PersistentPool(2) as pool:
            grid_search(**kwargs, pool=pool)  # warm the workers
            events = []
            pool.install_fault(
                FaultPlan(kind="kill", candidate=1, times=4)
            )
            try:
                faulted = grid_search(
                    **kwargs, pool=pool, on_event=events.append
                )
            finally:
                pool.clear_fault()
            _assert_same_outcome(faulted, seq)
            assert pool.sequential_fallbacks == 1
            kinds = [e.kind for e in events]
            assert "sequential-fallback" in kinds
            fallback = next(
                e for e in events if e.kind == "sequential-fallback"
            )
            assert fallback.attempts == settings.max_retries + 1

    def test_fallback_floor_walks_oom_ladder(self, easy_split, monkeypatch):
        """The in-process floor a pool falls back to is the same executor
        as ``workers=1``: an out-of-memory sweep there degrades through
        the OOM ladder instead of killing the search."""
        from repro.nn.training import VectorizedTrainer

        settings = _settings(max_retries=1)
        kwargs = _search_kwargs(easy_split, settings)
        seq = grid_search(**kwargs, workers=1)
        with PersistentPool(2) as pool:
            grid_search(**kwargs, pool=pool)  # warm the workers
            # Pool workers are separate processes: only the driver's
            # in-process sweeps see this patch.
            real_train = VectorizedTrainer.train
            fired = []

            def oom_once(self, *args, **kw):
                if not fired:
                    fired.append(True)
                    raise MemoryError("injected in-process sweep OOM")
                return real_train(self, *args, **kw)

            monkeypatch.setattr(VectorizedTrainer, "train", oom_once)
            events = []
            pool.install_fault(
                FaultPlan(kind="kill", candidate=1, times=4)
            )
            try:
                faulted = grid_search(
                    **kwargs, pool=pool, on_event=events.append
                )
            finally:
                pool.clear_fault()
            assert fired  # the fault hit the driver's fallback sweep
            _assert_same_outcome(faulted, seq)
            assert pool.sequential_fallbacks == 1
            kinds = [e.kind for e in events]
            assert "memory-degrade" in kinds

    def test_exhaustion_raises_with_attempts_when_fallback_disabled(
        self, easy_split
    ):
        settings = _settings(max_retries=0, fallback_sequential=False)
        kwargs = _search_kwargs(easy_split, settings)
        with PersistentPool(2) as pool:
            grid_search(**kwargs, pool=pool)  # warm the workers
            pool.install_fault(
                FaultPlan(kind="kill", candidate=0, times=3)
            )
            try:
                with pytest.raises(
                    SearchError, match="died unexpectedly"
                ) as excinfo:
                    grid_search(**kwargs, pool=pool)
            finally:
                pool.clear_fault()
            # The error reports how many executions were lost.
            assert excinfo.value.attempts == 1


class TestDeadlineWatchdog:
    def test_hard_timeout_cancels_and_retries(self, easy_split):
        """A chunk delayed past its hard deadline is cancelled via the
        generation mechanism and retried; results stay identical."""
        settings = _settings(chunk_timeout_s=0.8)
        kwargs = _search_kwargs(easy_split, settings)
        seq = grid_search(**kwargs, workers=1)
        with PersistentPool(2) as pool:
            clean = grid_search(**kwargs, pool=pool)
            _assert_same_outcome(clean, seq)
            events = []
            pool.install_fault(
                FaultPlan(kind="delay", candidate=1, delay_s=2.5)
            )
            try:
                faulted = grid_search(
                    **kwargs, pool=pool, on_event=events.append
                )
            finally:
                pool.clear_fault()
            _assert_same_outcome(faulted, seq)
            assert pool.chunk_timeouts >= 1
            kinds = [e.kind for e in events]
            assert "chunk-overdue" in kinds  # soft-deadline warning
            assert "chunk-timeout" in kinds
            timeout = next(e for e in events if e.kind == "chunk-timeout")
            assert 1 in timeout.candidates


class TestCorruptResultRetry:
    def test_corrupt_result_segment_retries_single_chunk(self, easy_split):
        """A worker shipping garbage through the shared-memory return
        path fails result inflation in the parent; that chunk (alone)
        is re-executed — no generation bump, no worker loss."""
        settings = _settings()
        kwargs = _search_kwargs(easy_split, settings)
        seq = grid_search(**kwargs, workers=1)
        with PersistentPool(2) as pool:
            events = []
            pool.install_fault(
                FaultPlan(kind="corrupt-result", candidate=1)
            )
            try:
                faulted = grid_search(
                    **kwargs, pool=pool, on_event=events.append
                )
            finally:
                pool.clear_fault()
            _assert_same_outcome(faulted, seq)
            assert pool.chunk_retries >= 1
            kinds = [e.kind for e in events]
            assert "retry" in kinds
            assert "worker-lost" not in kinds  # no process died
            # The retry slept through the shared backoff policy, and
            # the pause is accounted in the stats snapshot.
            assert pool.stats()["retry_backoff_s"] > 0
            retry = next(e for e in events if e.kind == "retry")
            assert "retrying in" in str(retry)


class TestJournalResume:
    def _interrupt_after(self, n, seen):
        """A progress callback that dies after n candidates — the
        driver-crash scenario.  Journal appends happen *before* the
        progress callback, so committed work is already durable."""

        class Interrupted(Exception):
            pass

        def progress(candidate):
            seen.append(candidate)
            if len(seen) >= n:
                raise Interrupted()

        return progress, Interrupted

    @pytest.mark.parametrize(
        "interrupt_mode, resume_mode",
        [
            pytest.param("sequential", "sequential", id="sequential"),
            pytest.param("pooled", "pooled", id="pooled"),
            # A journal written under one execution mode resumes under
            # any other (search_key covers no execution knob).
            pytest.param(
                "pooled", "sequential", id="pooled-then-sequential"
            ),
            pytest.param(
                "sequential", "pooled", id="sequential-then-pooled"
            ),
        ],
    )
    def test_interrupted_search_resumes_bit_identically(
        self, easy_split, tmp_path, interrupt_mode, resume_mode
    ):
        settings = _settings()
        kwargs = _search_kwargs(easy_split, settings)
        journal = tmp_path / "search.jsonl"
        baseline = grid_search(**kwargs, workers=1)

        needs_pool = "pooled" in (interrupt_mode, resume_mode)
        pool = PersistentPool(2) if needs_pool else None

        def run_kwargs(mode):
            return dict(pool=pool) if mode == "pooled" else dict(workers=1)

        try:
            seen = []
            progress, Interrupted = self._interrupt_after(2, seen)
            with pytest.raises(Interrupted):
                grid_search(
                    **kwargs,
                    **run_kwargs(interrupt_mode),
                    journal=str(journal),
                    progress=progress,
                )
            committed = len(journal.read_text().splitlines())
            assert committed >= 2  # the interrupt point is durable

            replayed = []
            resumed = grid_search(
                **kwargs,
                **run_kwargs(resume_mode),
                journal=str(journal),
                progress=replayed.append,
            )
            _assert_same_outcome(resumed, baseline)
            # The resumed run replays the restored prefix through
            # progress (same callback sequence as an uninterrupted run)
            # and only appends the candidates it actually trained.
            assert len(replayed) == len(baseline.evaluated)
            lines = journal.read_text().splitlines()
            assert len(lines) == len(baseline.evaluated)
        finally:
            if pool is not None:
                pool.close()

    @pytest.mark.parametrize("change", ["seed", "split"])
    def test_mismatched_key_is_ignored(self, easy_split, tmp_path, change):
        """A journal written under another configuration must never
        smuggle stale results into a resume; resuming under a new key
        compacts the file down to that key's records."""
        settings = _settings()
        journal = tmp_path / "search.jsonl"
        kwargs = _search_kwargs(easy_split, settings)
        first = grid_search(**kwargs, workers=1, journal=str(journal))
        if change == "seed":
            other_kwargs = dict(kwargs, seed=6)
        else:
            # Same specs, seed and settings over a different dataset.
            bigger = make_spiral(4, n_points=300, noise=0.0, turns=0.4, seed=7)
            other_kwargs = dict(kwargs, split=stratified_split(bigger, seed=7))
        fresh = grid_search(**other_kwargs, workers=1)
        # Same journal file, different key: full re-run, same results.
        resumed = grid_search(
            **other_kwargs, workers=1, journal=str(journal)
        )
        _assert_same_outcome(resumed, fresh)
        # The resume compacted the foreign-key records away: the file
        # now holds exactly the new configuration's commits.
        lines = journal.read_text().splitlines()
        assert len(lines) == len(fresh.evaluated)
        # The original configuration therefore re-runs from scratch —
        # and still lands on identical results.
        again = grid_search(**kwargs, workers=1, journal=str(journal))
        _assert_same_outcome(again, first)

    def test_key_covers_resolved_backend(self, easy_split, monkeypatch):
        """Only NumPy is bit-exact: a journal written on one resolved
        backend must not resume on another."""
        from repro import backends
        from repro.core.grid_search import rank_by_flops
        from repro.flops.conventions import get_convention
        from repro.runtime.journal import search_key

        class DeviceBackend(backends.ArrayBackend):
            name = "torch"

        # Register a stand-in so "torch" resolves even where the
        # library is not installed.
        monkeypatch.setitem(backends._INSTANCES, "torch", DeviceBackend())
        conv = get_convention("paper")
        ranked = rank_by_flops(small_space(), conv)

        def key(backend):
            settings = _settings(backend=backend)
            return search_key(ranked, easy_split, 1.01, settings, conv, 5)

        assert key("torch") != key("numpy")

    def test_journal_from_other_arithmetic_is_ignored(
        self, easy_split, tmp_path, monkeypatch
    ):
        """A journal written by older engine kernels must not resume:
        its records are forged here so that trusting them would show."""
        import json

        from repro.runtime import journal as journal_module

        settings = _settings()
        journal = tmp_path / "search.jsonl"
        kwargs = _search_kwargs(easy_split, settings)
        fresh = grid_search(**kwargs, workers=1)
        with monkeypatch.context() as patch:
            patch.setattr(
                journal_module,
                "ARITHMETIC_VERSION",
                journal_module.ARITHMETIC_VERSION - 1,
            )
            grid_search(**kwargs, workers=1, journal=str(journal))
        lines = journal.read_text().splitlines()
        records = [json.loads(line) for line in lines]
        for record in records:
            record["candidate"]["val_accuracies"] = [
                0.0 for _ in record["candidate"]["val_accuracies"]
            ]
        journal.write_text("".join(json.dumps(r) + "\n" for r in records))
        resumed = grid_search(**kwargs, workers=1, journal=str(journal))
        _assert_same_outcome(resumed, fresh)

    def test_torn_trailing_line_is_tolerated(self, easy_split, tmp_path):
        """A crash mid-append leaves a torn last line; resume must use
        the intact prefix instead of erroring out, and the resume's
        compaction pass must scrub the torn line from disk."""
        settings = _settings()
        journal = tmp_path / "search.jsonl"
        kwargs = _search_kwargs(easy_split, settings)
        baseline = grid_search(**kwargs, workers=1, journal=str(journal))
        with open(journal, "a", encoding="utf-8") as fh:
            fh.write('{"v": 1, "key": "truncated mid-wri')  # no newline
        resumed = grid_search(**kwargs, workers=1, journal=str(journal))
        _assert_same_outcome(resumed, baseline)
        lines = journal.read_text().splitlines()
        assert len(lines) == len(baseline.evaluated)
        assert all(line.rstrip().endswith("}") for line in lines)


class TestPoolStats:
    def test_stats_snapshot_reflects_supervision(self, easy_split):
        """`PersistentPool.stats()` collects every counter in one dict;
        a faulted search must show up there, and the snapshot must be a
        copy (mutating it cannot touch the live counters)."""
        settings = _settings()
        kwargs = _search_kwargs(easy_split, settings)
        with PersistentPool(2) as pool:
            before = pool.stats()
            assert before["searches_started"] == 0
            assert before["chunk_retries"] == 0
            assert before["memory_degrades"] == 0
            grid_search(**kwargs, pool=pool)  # warm the workers
            pool.install_fault(FaultPlan(kind="kill", candidate=0))
            try:
                grid_search(**kwargs, pool=pool)
            finally:
                pool.clear_fault()
            stats = pool.stats()
            assert stats["workers"] == 2
            assert stats["searches_started"] == 2
            assert stats["chunk_retries"] >= 1
            assert stats["chunk_retries"] == pool.chunk_retries
            assert stats["cost_observations"] == pool.cost_model.observations
            stats["chunk_retries"] = -1
            assert pool.stats()["chunk_retries"] == pool.chunk_retries


@pytest.mark.skipif(
    not os.path.isdir("/dev/shm"), reason="POSIX shm not exposed as files"
)
class TestStartupSweeper:
    def _dead_pid(self):
        """A pid guaranteed to be dead: a just-exited child's."""
        proc = subprocess.run(
            [sys.executable, "-c", "import os; print(os.getpid())"],
            capture_output=True,
            text=True,
            timeout=60,
        )
        return int(proc.stdout)

    def test_sweep_reclaims_only_dead_owned_segments(self):
        dead = f"repro_{self._dead_pid()}_ds{'0' * 8}"
        live = f"repro_{os.getpid()}_ds{'1' * 8}"
        unparsable = "repro_notapid_ds"
        paths = {n: os.path.join("/dev/shm", n) for n in (dead, live, unparsable)}
        for path in paths.values():
            with open(path, "wb") as fh:
                fh.write(b"\0" * 16)
        try:
            reclaimed = sweep_stale_segments()
            assert dead in reclaimed
            assert not os.path.exists(paths[dead])
            # A live owner's segment and anything we cannot attribute
            # stay untouched.
            assert os.path.exists(paths[live])
            assert os.path.exists(paths[unparsable])
            assert live not in reclaimed
        finally:
            for name in (live, unparsable):
                if os.path.exists(paths[name]):
                    os.unlink(paths[name])

    def test_pool_startup_sweeps(self):
        name = f"repro_{self._dead_pid()}_ctrl{'2' * 8}"
        path = os.path.join("/dev/shm", name)
        with open(path, "wb") as fh:
            fh.write(b"\0" * 16)
        try:
            with PersistentPool(1) as pool:
                assert name in pool.swept_segments
            assert not os.path.exists(path)
        finally:
            if os.path.exists(path):
                os.unlink(path)
