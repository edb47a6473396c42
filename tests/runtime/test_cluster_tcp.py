"""Tests for the TCP cluster transport (repro.runtime.cluster_tcp).

The acceptance bar from the ISSUE: a TCP-sharded search returns a
``SearchOutcome`` bit-identical to the sequential baseline for any
agent count — including under injected connection drops, agent SIGKILL,
partitions with duplicate re-delivery, and mid-frame stalls — duplicate
results resolve first-commit-wins, and losing every agent degrades to
an in-process sequential finish.

In-process tests run agents on daemon threads (an agent is pure
function + heartbeat thread, so thread agents exercise the whole
hello/claim/result protocol over real loopback sockets).  Agent-death
tests use real subprocess agents killed by the ``host-kill`` fault — a
genuine SIGKILL, connection and all.
"""

import os
import pickle
import random
import socket
import subprocess
import sys
import threading

import pytest

from repro.core.grid_search import TrainingSettings, grid_search
from repro.core.search_space import classical_search_space
from repro.data import make_spiral, stratified_split
from repro.runtime import faults
from repro.runtime.cluster import _frame
from repro.runtime.cluster_tcp import (
    TcpConfig,
    TcpExecutor,
    _recv_msg,
    _send_msg,
    run_tcp_agent,
)
from repro.runtime.faults import FaultPlan
from repro.runtime.frontier import SearchFrontier
from repro.runtime.parallel import Scheduler, speculative_search
from repro.runtime.pool import ChunkResult

# A transport regression's failure mode is a hang (a chunk nobody
# serves, a lease nobody expires); bound every test so CI fails fast.
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
    # threshold 1.01 is unreachable: every candidate must complete, so
    # a lost chunk *must* be recovered before the search can finish.
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


def _free_port():
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def _fast_tcp(port=None, **overrides):
    """A TcpConfig with test-speed polling and timeouts."""
    base = dict(
        address=f"127.0.0.1:{port if port is not None else _free_port()}",
        lease_timeout_s=2.0,
        poll_interval_s=0.05,
        agent_grace_s=30.0,
        frame_timeout_s=5.0,
    )
    base.update(overrides)
    return TcpConfig(**base)


def _thread_agent(cfg, stop, stats_out=None, **kwargs):
    """Start an in-process agent on a daemon thread.

    Agents dial with backoff, so it is safe to start them before the
    coordinator binds.  ``stats_out`` (a list) receives the final
    :class:`~repro.runtime.cluster.AgentStats`.
    """
    kwargs.setdefault("poll_interval_s", 0.05)
    kwargs.setdefault("heartbeat_s", 0.2)
    kwargs.setdefault("rng", random.Random(0))
    kwargs["stop"] = stop

    def serve():
        stats = run_tcp_agent(cfg.address, **kwargs)
        if stats_out is not None:
            stats_out.append(stats)

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    return thread


def _join_agents(stop, threads, timeout=30):
    stop.set()
    for thread in threads:
        thread.join(timeout=timeout)
        assert not thread.is_alive()


_AGENT_SCRIPT = (
    "import sys; from repro.runtime.cluster_tcp import run_tcp_agent; "
    "run_tcp_agent(sys.argv[1], poll_interval_s=0.05, heartbeat_s=0.2, "
    "reconnect_timeout_s=10.0, "
    "fault_dir=(sys.argv[2] if len(sys.argv) > 2 else None))"
)


def _subprocess_agent(cfg, fault_dir=None):
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get(
        "PYTHONPATH", ""
    )
    argv = [sys.executable, "-c", _AGENT_SCRIPT, cfg.address]
    if fault_dir is not None:
        argv.append(str(fault_dir))
    return subprocess.Popen(argv, env=env)


class TestBitIdentity:
    """The core invariant: TCP execution never changes results."""

    @pytest.mark.parametrize("n_agents", [1, 2])
    def test_tcp_search_matches_sequential(
        self, easy_split, n_agents
    ):
        settings = _settings()
        kwargs = _search_kwargs(easy_split, settings)
        seq = grid_search(**kwargs, workers=1)
        cfg = _fast_tcp()
        stop = threading.Event()
        agents = [_thread_agent(cfg, stop) for _ in range(n_agents)]
        try:
            par = grid_search(**kwargs, connect=cfg)
        finally:
            _join_agents(stop, agents)
        _assert_same_outcome(par, seq)

    def test_no_agents_falls_back_to_sequential(self, easy_split):
        """A port nobody dials must still complete, identically."""
        from repro.core.grid_search import rank_by_flops
        from repro.flops.conventions import get_convention

        settings = _settings()
        kwargs = _search_kwargs(easy_split, settings)
        seq = grid_search(**kwargs, workers=1)
        conv = get_convention("paper")
        ranked = rank_by_flops(small_space(), conv)[:4]
        events = []
        coordinator = TcpExecutor(_fast_tcp(port=0, agent_grace_s=0.5))
        outcome = speculative_search(
            SearchFrontier(ranked, 1.01, conv, settings.runs),
            easy_split,
            settings,
            5,
            coordinator,
            on_event=events.append,
        )
        _assert_same_outcome(outcome, seq)
        kinds = [e.kind for e in events]
        assert "no-agents" in kinds
        assert "sequential-fallback" in kinds
        assert coordinator.stats()["sequential_fallbacks"] == 1


class TestAgentDeath:
    def test_sigkill_agent_recovers_bit_identically(
        self, easy_split, tmp_path
    ):
        """An agent process SIGKILLed mid-lease (real host death: the
        kernel closes its socket with it) is detected by the broken
        connection, its leases requeued, and the chunk re-executed —
        outcome identical to the baseline."""
        settings = _settings()
        kwargs = _search_kwargs(easy_split, settings)
        seq = grid_search(**kwargs, workers=1)
        cfg = _fast_tcp()
        fault_root = tmp_path / "faults"
        fault_root.mkdir()
        faults.arm_spool_fault(
            fault_root, FaultPlan(kind="host-kill", candidate=1)
        )
        procs = [_subprocess_agent(cfg, fault_root) for _ in range(2)]
        events = []
        try:
            par = grid_search(**kwargs, connect=cfg, on_event=events.append)
        finally:
            for proc in procs:
                try:
                    proc.wait(timeout=30)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait()
            faults.clear_spool_fault(fault_root)
        _assert_same_outcome(par, seq)
        # Exactly one agent died: SIGKILL shows as a negative return code.
        assert sorted(p.returncode for p in procs) == [-9, 0]
        kinds = [e.kind for e in events]
        assert "conn-lost" in kinds
        assert "retry" in kinds


class TestConnDrop:
    def test_mid_frame_drop_requeues_and_reconnects(
        self, easy_split, tmp_path
    ):
        """An agent whose connection dies halfway through a result
        frame: the coordinator sees a torn read, requeues the chunk,
        and the agent redials with backoff and re-executes it."""
        settings = _settings()
        kwargs = _search_kwargs(easy_split, settings)
        seq = grid_search(**kwargs, workers=1)
        cfg = _fast_tcp()
        fault_root = tmp_path / "faults"
        fault_root.mkdir()
        faults.arm_spool_fault(
            fault_root, FaultPlan(kind="conn-drop", candidate=1)
        )
        stop = threading.Event()
        stats_out = []
        agents = [
            _thread_agent(cfg, stop, stats_out, fault_dir=fault_root)
        ]
        events = []
        try:
            par = grid_search(**kwargs, connect=cfg, on_event=events.append)
        finally:
            _join_agents(stop, agents)
            faults.clear_spool_fault(fault_root)
        _assert_same_outcome(par, seq)
        kinds = [e.kind for e in events]
        assert "conn-lost" in kinds
        assert "retry" in kinds
        assert stats_out[0].reconnects >= 1
        assert stats_out[0].faults_fired == ["conn-drop"]


class TestPartition:
    def test_partition_expires_lease_and_redelivery_is_harmless(
        self, easy_split, tmp_path
    ):
        """A partitioned agent (heartbeats suspended past the lease
        timeout, socket still open) loses its lease; the chunk re-runs
        elsewhere; the stale agent rejoins and still delivers its
        result.  The search must not double-commit — and must not
        change results."""
        settings = _settings()
        kwargs = _search_kwargs(easy_split, settings)
        seq = grid_search(**kwargs, workers=1)
        cfg = _fast_tcp(lease_timeout_s=1.0)
        fault_root = tmp_path / "faults"
        fault_root.mkdir()
        faults.arm_spool_fault(
            fault_root,
            FaultPlan(kind="partition", candidate=1, delay_s=3.0),
        )
        stop = threading.Event()
        agents = [
            _thread_agent(cfg, stop, fault_dir=fault_root)
            for _ in range(2)
        ]
        events = []
        try:
            par = grid_search(**kwargs, connect=cfg, on_event=events.append)
        finally:
            _join_agents(stop, agents)
            faults.clear_spool_fault(fault_root)
        _assert_same_outcome(par, seq)
        kinds = [e.kind for e in events]
        assert "lease-expired" in kinds
        assert "retry" in kinds


class TestSlowFrame:
    def test_mid_frame_stall_is_cut_and_retried(self, easy_split, tmp_path):
        """A result frame that starts arriving and then stalls past the
        frame timeout (heartbeat wedged with it): the coordinator kills
        the connection — distinguishing a stuck frame from an agent
        that is merely training — requeues the chunk, and the agent
        redials and re-executes."""
        settings = _settings()
        kwargs = _search_kwargs(easy_split, settings)
        seq = grid_search(**kwargs, workers=1)
        cfg = _fast_tcp(frame_timeout_s=1.0, lease_timeout_s=2.0)
        fault_root = tmp_path / "faults"
        fault_root.mkdir()
        faults.arm_spool_fault(
            fault_root,
            FaultPlan(kind="slow-frame", candidate=1, delay_s=4.0),
        )
        stop = threading.Event()
        stats_out = []
        agents = [
            _thread_agent(
                cfg, stop, stats_out, fault_dir=fault_root,
                frame_timeout_s=1.0,
            )
        ]
        events = []
        try:
            par = grid_search(**kwargs, connect=cfg, on_event=events.append)
        finally:
            _join_agents(stop, agents)
            faults.clear_spool_fault(fault_root)
        _assert_same_outcome(par, seq)
        kinds = [e.kind for e in events]
        assert "conn-lost" in kinds or "lease-expired" in kinds
        assert "retry" in kinds
        assert stats_out[0].reconnects >= 1


class TestDuplicateResults:
    def test_first_commit_wins(self, easy_split):
        """Two copies of one result (a stale agent's late delivery):
        the first ingested copy commits, the second is counted and
        dropped — deterministically, by construction."""
        from repro.core.grid_search import rank_by_flops
        from repro.flops.conventions import get_convention

        settings = _settings()
        kwargs = _search_kwargs(easy_split, settings)
        seq = grid_search(**kwargs, workers=1)
        conv = get_convention("paper")
        ranked = rank_by_flops(small_space(), conv)[:4]
        coordinator = TcpExecutor(_fast_tcp(port=0))
        scheduler = Scheduler(
            SearchFrontier(ranked, 1.01, conv, settings.runs),
            easy_split,
            settings,
            5,
            coordinator,
        )
        # Accepting; the scheduler loop is not running.
        coordinator.open(easy_split)
        try:
            coordinator.capacity = 2  # window 4: every candidate enqueued
            scheduler.top_up()
            # Serve every chunk inline over a real connection, then
            # forge a duplicate of one queued result under a different
            # agent id before the coordinator ever drains.
            stats = run_tcp_agent(
                coordinator.address,
                poll_interval_s=0.05,
                max_chunks=len(ranked),
            )
            assert stats.chunks_done == len(ranked)
            victim = coordinator._results.get(timeout=5)
            coordinator._results.put(victim)
            coordinator._results.put(
                (
                    victim[0],
                    victim[1],
                    ChunkResult(
                        cancelled=False,
                        entries=victim[2].entries,
                        wall_time_s=victim[2].wall_time_s,
                    ),
                )
            )
            outcome = scheduler.run()
        finally:
            coordinator.close()
        _assert_same_outcome(outcome, seq)
        assert coordinator.stats()["duplicate_results"] == 1


def _rogue_agent(address, corrupt, closed):
    """Claim one chunk over a raw connection and answer it with a
    corrupted result frame (``corrupt`` is ``"magic"`` or
    ``"checksum"``); appends to ``closed`` once the coordinator has
    dropped the connection instead of acking."""
    host, port = address.rsplit(":", 1)
    lock = threading.Lock()
    with socket.create_connection((host, int(port)), timeout=30) as sock:
        _send_msg(sock, ("hello", {"agent": "rogue"}), 5.0, lock)
        _recv_msg(sock, 5.0)
        _send_msg(sock, ("claim", {"agent": "rogue"}), 5.0, lock)
        kind, grant = _recv_msg(sock, 5.0)
        if kind != "chunk":
            return
        cid, attempt, _ = grant
        frame = bytearray(
            _frame(pickle.dumps(("result", (cid, attempt, None))))
        )
        frame[0 if corrupt == "magic" else -1] ^= 0xFF
        sock.sendall(bytes(frame))
        try:
            closed.append(sock.recv(1) == b"")
        except ConnectionResetError:
            closed.append(True)


class TestCorruptFrame:
    @pytest.mark.parametrize("corrupt", ["magic", "checksum"])
    def test_corrupt_result_frame_requeues_chunk(self, easy_split, corrupt):
        """A result frame with a foreign magic or a bad checksum: the
        coordinator counts it, drops the connection and requeues the
        chunk, which a healthy agent re-runs; results unchanged."""
        from repro.core.grid_search import rank_by_flops
        from repro.flops.conventions import get_convention

        settings = _settings()
        kwargs = _search_kwargs(easy_split, settings)
        seq = grid_search(**kwargs, workers=1)
        conv = get_convention("paper")
        ranked = rank_by_flops(small_space(), conv)[:4]
        coordinator = TcpExecutor(_fast_tcp(port=0))
        events = []
        scheduler = Scheduler(
            SearchFrontier(ranked, 1.01, conv, settings.runs),
            easy_split,
            settings,
            5,
            coordinator,
            on_event=events.append,
        )
        coordinator.open(easy_split)
        stop = threading.Event()
        agents = []
        try:
            scheduler.top_up()
            # The rogue claims the first queued chunk before any
            # healthy agent dials, so the corrupt frame is its only
            # delivery.
            closed = []
            _rogue_agent(coordinator.address, corrupt, closed)
            assert closed == [True]
            agents.append(
                _thread_agent(TcpConfig(address=coordinator.address), stop)
            )
            outcome = scheduler.run()
        finally:
            coordinator.close()
            _join_agents(stop, agents)
        _assert_same_outcome(outcome, seq)
        assert coordinator.stats()["torn_frames"] == 1
        assert "retry" in [e.kind for e in events]


class TestCoordinatorRestart:
    def test_restart_resumes_from_journal(self, easy_split, tmp_path):
        """A coordinator that dies mid-run (after committing a durable
        prefix) restarts on the same address against the same journal;
        the agent redials it and the search completes bit-identically."""

        class Interrupted(Exception):
            pass

        settings = _settings()
        kwargs = _search_kwargs(easy_split, settings)
        seq = grid_search(**kwargs, workers=1)
        journal = tmp_path / "cluster.jsonl"
        cfg = _fast_tcp()
        stop = threading.Event()
        agents = [_thread_agent(cfg, stop)]
        try:
            seen = []

            def die_after_two(candidate):
                seen.append(candidate)
                if len(seen) >= 2:
                    raise Interrupted()

            with pytest.raises(Interrupted):
                grid_search(
                    **kwargs,
                    connect=cfg,
                    journal=str(journal),
                    progress=die_after_two,
                )
            assert len(journal.read_text().splitlines()) >= 2
            replayed = []
            resumed = grid_search(
                **kwargs,
                connect=cfg,
                journal=str(journal),
                progress=replayed.append,
            )
        finally:
            _join_agents(stop, agents)
        _assert_same_outcome(resumed, seq)
        assert len(replayed) == len(seq.evaluated)


class TestReconnectBackoff:
    def test_agent_outlives_coordinator_and_serves_the_next(
        self, easy_split
    ):
        """An agent that loses its coordinator redials with backoff and
        serves the next search bound on the same port — both searches
        bit-identical to the baseline."""
        settings = _settings()
        kwargs = _search_kwargs(easy_split, settings)
        seq = grid_search(**kwargs, workers=1)
        cfg = _fast_tcp()
        stop = threading.Event()
        stats_out = []
        agents = [_thread_agent(cfg, stop, stats_out)]
        try:
            first = grid_search(**kwargs, connect=cfg)
            # The first coordinator is gone; the agent is now redialing
            # a dead port with decorrelated-jitter backoff.
            second = grid_search(**kwargs, connect=cfg)
        finally:
            _join_agents(stop, agents)
        _assert_same_outcome(first, seq)
        _assert_same_outcome(second, seq)
        assert stats_out[0].reconnects >= 1
        assert stats_out[0].chunks_done >= 2 * len(seq.evaluated)


class TestCostModel:
    def test_tcp_coordinator_learns_and_persists_chunk_costs(
        self, easy_split, tmp_path
    ):
        """Every delivered ``SpoolResult.wall_time_s`` feeds the
        coordinator's cost model, and ``cost_cache`` persists it."""
        from repro.core.grid_search import rank_by_flops
        from repro.flops.conventions import get_convention
        from repro.runtime.pool import ChunkCostModel

        settings = _settings()
        kwargs = _search_kwargs(easy_split, settings)
        seq = grid_search(**kwargs, workers=1)
        cache = tmp_path / "chunk_costs.json"
        conv = get_convention("paper")
        ranked = rank_by_flops(small_space(), conv)[:4]
        coordinator = TcpExecutor(_fast_tcp(port=0, cost_cache=str(cache)))
        coordinator.open(easy_split)
        stop = threading.Event()
        agents = [
            _thread_agent(
                TcpConfig(address=coordinator.address), stop
            )
        ]
        try:
            outcome = speculative_search(
                SearchFrontier(ranked, 1.01, conv, settings.runs),
                easy_split,
                settings,
                5,
                coordinator,
            )
        finally:
            coordinator.close()
            _join_agents(stop, agents)
        _assert_same_outcome(outcome, seq)
        assert (
            coordinator.stats()["cost_observations"] == len(seq.evaluated)
        )
        # The cache round-trips: a fresh model warm-starts from it.
        warm = ChunkCostModel()
        assert warm.load_json(cache)
        assert warm.observations == len(seq.evaluated)


class TestCliTcpSmoke:
    """The CI smoke: a real coordinator and two real agent processes
    talking only through a loopback socket, vs the sequential baseline."""

    def test_cli_agents_serve_coordinator(self, easy_split):
        settings = _settings()
        kwargs = _search_kwargs(easy_split, settings)
        seq = grid_search(**kwargs, workers=1)
        # Default lease timeout: CLI agents beat at the production 5s
        # interval, so a test-speed timeout would expire live leases.
        cfg = TcpConfig(
            address=f"127.0.0.1:{_free_port()}", poll_interval_s=0.1
        )
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get(
            "PYTHONPATH", ""
        )
        procs = [
            subprocess.Popen(
                [
                    sys.executable,
                    "-m",
                    "repro.cli",
                    "cluster-agent",
                    "--connect",
                    cfg.address,
                    "--idle-timeout",
                    "5",
                    "--quiet",
                ],
                env=env,
            )
            for _ in range(2)
        ]
        try:
            par = grid_search(**kwargs, connect=cfg)
        finally:
            for proc in procs:
                try:
                    assert proc.wait(timeout=30) == 0
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait()
                    raise
        _assert_same_outcome(par, seq)
