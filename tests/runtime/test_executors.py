"""One scheduler, one executor, two kinds of agents.

Every search runs the same :class:`Scheduler` on a ``TcpExecutor``,
whether its agents are the processes of a persistent pool or agents
that dial a coordinator, so a setting means the same thing on each:
retries bound the same way and exhaust into the same fallback (or
error), and an agent's out-of-memory recovery surfaces as the same
``memory-degrade`` event.  Each test is parametrized over the two;
dialing agents run on daemon threads in this process.
"""

import random
import socket
import threading
from contextlib import contextmanager

import pytest

from repro.core.grid_search import TrainingSettings, grid_search, rank_by_flops
from repro.core.search_space import classical_search_space
from repro.data import make_spiral, stratified_split
from repro.exceptions import SearchError
from repro.flops.conventions import get_convention
from repro.runtime import FaultPlan, PersistentPool, faults
from repro.runtime.cluster_tcp import (
    Coordinator,
    TcpConfig,
    TcpExecutor,
    run_tcp_agent,
)
from repro.runtime.frontier import SearchFrontier
from repro.runtime.parallel import speculative_search

# A scheduler regression's failure mode is a hang; fail fast instead.
pytestmark = pytest.mark.timeout(180)


@pytest.fixture(scope="module")
def easy_split():
    ds = make_spiral(4, n_points=150, noise=0.0, turns=0.4, seed=7)
    return stratified_split(ds, seed=7)


def small_space(n_features=4):
    return classical_search_space(
        n_features, neuron_options=(2, 8), max_layers=2
    )


def _settings(**overrides):
    base = dict(epochs=3, batch_size=32, runs=2)
    base.update(overrides)
    return TrainingSettings(**base)


def _search_kwargs(easy_split, settings):
    # threshold 1.01 is unreachable: every candidate must complete, so a
    # lost chunk cannot be masked by an early winner.
    return dict(
        specs=small_space(),
        split=easy_split,
        threshold=1.01,
        settings=settings,
        max_candidates=4,
        seed=5,
    )


def _assert_same_outcome(par, seq):
    assert par.succeeded == seq.succeeded
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


def _free_port():
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def _start(target, *args, **kwargs):
    thread = threading.Thread(
        target=target, args=args, kwargs=kwargs, daemon=True
    )
    thread.start()
    return thread


@contextmanager
def _tcp_agent(tmp_path, fault=None):
    """A TCP address served by one thread agent; yields its config."""
    cfg = TcpConfig(
        address=f"127.0.0.1:{_free_port()}",
        lease_timeout_s=2.0,
        agent_grace_s=30.0,
        frame_timeout_s=5.0,
    )
    fault_dir = tmp_path / "faults"
    fault_dir.mkdir()
    if fault is not None:
        faults.arm_file_fault(fault_dir, fault)
    stop = threading.Event()
    agent = _start(
        run_tcp_agent,
        cfg.address,
        heartbeat_s=0.2,
        fault_dir=fault_dir,
        stop=stop,
        rng=random.Random(0),
    )
    try:
        yield cfg
    finally:
        stop.set()
        agent.join(timeout=30)
        faults.clear_file_fault(fault_dir)
    assert not agent.is_alive()


@contextmanager
def _chunk_losing_executor(kind, tmp_path, easy_split):
    """An executor whose medium loses candidate 1's first chunk."""
    if kind == "pool":
        with PersistentPool(2, fault_dir=tmp_path) as pool:
            faults.arm_file_fault(tmp_path, FaultPlan(kind="kill", candidate=1))
            yield TcpExecutor(pool)
    else:
        fault = FaultPlan(kind="conn-drop", candidate=1)
        with _tcp_agent(tmp_path, fault) as cfg, Coordinator(cfg) as coordinator:
            yield TcpExecutor(coordinator)


EXECUTORS = ["pool", "tcp"]


class TestRetryExhaustion:
    """``max_retries=0`` exhausts on the first lost chunk, on every
    executor, into the one fallback path (or the one error)."""

    @pytest.mark.parametrize("kind", EXECUTORS)
    def test_exhaustion_falls_back_once(self, easy_split, tmp_path, kind):
        settings = _settings(max_retries=0)
        seq = grid_search(**_search_kwargs(easy_split, settings), workers=1)
        conv = get_convention("paper")
        ranked = rank_by_flops(small_space(), conv)[:4]
        events = []
        with _chunk_losing_executor(kind, tmp_path, easy_split) as executor:
            outcome = speculative_search(
                SearchFrontier(ranked, 1.01, conv, settings.runs),
                easy_split,
                settings,
                5,
                executor,
                on_event=events.append,
            )
        _assert_same_outcome(outcome, seq)
        kinds = [e.kind for e in events]
        assert kinds.count("sequential-fallback") == 1
        assert executor.stats()["sequential_fallbacks"] == 1

    @pytest.mark.parametrize("kind", EXECUTORS)
    def test_exhaustion_raises_when_fallback_disabled(
        self, easy_split, tmp_path, kind
    ):
        settings = _settings(max_retries=0, fallback_sequential=False)
        conv = get_convention("paper")
        ranked = rank_by_flops(small_space(), conv)[:4]
        with _chunk_losing_executor(kind, tmp_path, easy_split) as executor:
            with pytest.raises(SearchError) as excinfo:
                speculative_search(
                    SearchFrontier(ranked, 1.01, conv, settings.runs),
                    easy_split,
                    settings,
                    5,
                    executor,
                )
        assert excinfo.value.attempts == 1


class TestMemoryDegradeVisibility:
    """An agent's OOM ladder is visible to the coordinator exactly as a
    pool worker's is: one ``memory-degrade`` event, unchanged results."""

    @pytest.mark.parametrize("kind", ["tcp"])
    def test_agent_oom_emits_memory_degrade(
        self, easy_split, tmp_path, monkeypatch, kind
    ):
        from repro.runtime import jobs

        kwargs = _search_kwargs(easy_split, _settings())
        seq = grid_search(**kwargs, workers=1)
        # Thread agents train in this process, so they see the patch.
        # Every sweep a chunk may run first — the cross-candidate one of
        # a packed chunk or a lone candidate's — enters
        # execute_candidates.
        real_candidates = jobs.execute_candidates
        fired = []

        def oom_once_grouped(*args, **kw):
            if not fired:
                fired.append(True)
                raise MemoryError("injected agent sweep OOM")
            return real_candidates(*args, **kw)

        monkeypatch.setattr(jobs, "execute_candidates", oom_once_grouped)
        events = []
        with _tcp_agent(tmp_path) as cfg:
            par = grid_search(**kwargs, connect=cfg, on_event=events.append)
        assert fired
        _assert_same_outcome(par, seq)
        assert "memory-degrade" in [e.kind for e in events]
