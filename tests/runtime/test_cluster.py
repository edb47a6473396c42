"""Tests for the cross-host spool transport (repro.runtime.cluster).

The acceptance bar from the ISSUE: a spool-sharded search returns a
``SearchOutcome`` bit-identical to the sequential baseline for any
agent count — including under injected host death, stolen leases, and
torn files — duplicate results resolve first-commit-wins, losing every
agent degrades to an in-process sequential finish, and dead-owner
spool garbage is swept at coordinator startup.

In-process tests run agents on daemon threads (an agent is pure
function + heartbeat thread, so thread agents exercise the whole
claim/train/result protocol).  Host-death tests use real subprocess
agents killed by the ``host-kill`` spool fault — a genuine SIGKILL,
heartbeat and all.
"""

import hashlib
import os
import pickle
import subprocess
import sys
import threading
import time

import pytest

from repro.core.grid_search import TrainingSettings, grid_search
from repro.core.search_space import classical_search_space
from repro.data import make_spiral, stratified_split
from repro.runtime import cluster, faults
from repro.runtime.cluster import (
    SpoolConfig,
    SpoolExecutor,
    run_agent,
    stop_agents,
    sweep_stale_leases,
)
from repro.runtime.faults import FaultPlan
from repro.runtime.frontier import SearchFrontier
from repro.runtime.parallel import Scheduler, speculative_search

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


def _fast_spool(tmp_path, **overrides):
    """A SpoolConfig with test-speed polling and timeouts."""
    base = dict(
        path=str(tmp_path / "spool"),
        lease_timeout_s=2.0,
        poll_interval_s=0.05,
        agent_grace_s=30.0,
    )
    base.update(overrides)
    return SpoolConfig(**base)


def _thread_agent(spool, **kwargs):
    """Start an in-process agent on a daemon thread."""
    kwargs.setdefault("poll_interval_s", 0.05)
    kwargs.setdefault("heartbeat_s", 0.2)
    thread = threading.Thread(
        target=run_agent, args=(str(spool.path),), kwargs=kwargs, daemon=True
    )
    thread.start()
    return thread


def _join_agents(spool, threads, timeout=30):
    stop_agents(spool.path)
    for thread in threads:
        thread.join(timeout=timeout)
        assert not thread.is_alive()


_AGENT_SCRIPT = (
    "import sys; from repro.runtime.cluster import run_agent; "
    "run_agent(sys.argv[1], poll_interval_s=0.05, heartbeat_s=0.2)"
)


def _subprocess_agent(spool):
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get(
        "PYTHONPATH", ""
    )
    return subprocess.Popen(
        [sys.executable, "-c", _AGENT_SCRIPT, str(spool.path)], env=env
    )


class TestBitIdentity:
    """The core invariant: spool execution never changes results."""

    @pytest.mark.parametrize("n_agents", [1, 2])
    def test_spool_search_matches_sequential(
        self, easy_split, tmp_path, n_agents
    ):
        settings = _settings()
        kwargs = _search_kwargs(easy_split, settings)
        seq = grid_search(**kwargs, workers=1)
        spool = _fast_spool(tmp_path)
        agents = [_thread_agent(spool) for _ in range(n_agents)]
        try:
            par = grid_search(**kwargs, spool=spool)
        finally:
            _join_agents(spool, agents)
        _assert_same_outcome(par, seq)

    def test_no_agents_falls_back_to_sequential(self, easy_split, tmp_path):
        """A spool nobody serves must still complete, identically."""
        from repro.core.grid_search import rank_by_flops
        from repro.flops.conventions import get_convention

        settings = _settings()
        kwargs = _search_kwargs(easy_split, settings)
        seq = grid_search(**kwargs, workers=1)
        conv = get_convention("paper")
        ranked = rank_by_flops(small_space(), conv)[:4]
        events = []
        coordinator = SpoolExecutor(_fast_spool(tmp_path, agent_grace_s=0.5))
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


class TestHostDeath:
    def test_host_kill_recovers_bit_identically(self, easy_split, tmp_path):
        """An agent process SIGKILLed mid-lease (real host death: the
        heartbeat dies with it) is detected, its lease reclaimed, and
        the chunk re-executed — outcome identical to the baseline."""
        settings = _settings()
        kwargs = _search_kwargs(easy_split, settings)
        seq = grid_search(**kwargs, workers=1)
        spool = _fast_spool(tmp_path)
        os.makedirs(spool.path, exist_ok=True)
        faults.arm_spool_fault(
            spool.path, FaultPlan(kind="host-kill", candidate=1)
        )
        procs = [_subprocess_agent(spool) for _ in range(2)]
        events = []
        try:
            par = grid_search(**kwargs, spool=spool, on_event=events.append)
        finally:
            stop_agents(spool.path)
            for proc in procs:
                try:
                    proc.wait(timeout=30)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait()
            faults.clear_spool_fault(spool.path)
        _assert_same_outcome(par, seq)
        # Exactly one agent died: SIGKILL shows as a negative return code.
        assert sorted(p.returncode for p in procs) == [-9, 0]
        kinds = [e.kind for e in events]
        assert "lease-expired" in kinds
        assert "retry" in kinds

    def test_lease_steal_rejoin_delivers_harmless_duplicate(
        self, easy_split, tmp_path
    ):
        """A partitioned agent (heartbeats suspended past the lease
        timeout) loses its lease; the chunk re-runs elsewhere; the
        stale agent rejoins and still writes its result.  The search
        must not double-commit — and must not change results."""
        settings = _settings()
        kwargs = _search_kwargs(easy_split, settings)
        seq = grid_search(**kwargs, workers=1)
        spool = _fast_spool(tmp_path, lease_timeout_s=1.0)
        os.makedirs(spool.path, exist_ok=True)
        faults.arm_spool_fault(
            spool.path,
            FaultPlan(kind="lease-steal", candidate=1, delay_s=3.0),
        )
        agents = [_thread_agent(spool) for _ in range(2)]
        events = []
        try:
            par = grid_search(**kwargs, spool=spool, on_event=events.append)
        finally:
            _join_agents(spool, agents)
            faults.clear_spool_fault(spool.path)
        _assert_same_outcome(par, seq)
        kinds = [e.kind for e in events]
        assert "lease-expired" in kinds
        assert "retry" in kinds


class TestDuplicateResults:
    def test_first_commit_wins(self, easy_split, tmp_path):
        """Two result files for one chunk (a stale agent's late
        delivery): the first ingested copy commits, the second is
        counted and dropped — deterministically, by construction."""
        from repro.core.grid_search import rank_by_flops
        from repro.flops.conventions import get_convention

        settings = _settings()
        kwargs = _search_kwargs(easy_split, settings)
        seq = grid_search(**kwargs, workers=1)
        conv = get_convention("paper")
        ranked = rank_by_flops(small_space(), conv)[:4]
        spool = _fast_spool(tmp_path, agent_grace_s=30.0)
        coordinator = SpoolExecutor(spool)
        scheduler = Scheduler(
            SearchFrontier(ranked, 1.01, conv, settings.runs),
            easy_split,
            settings,
            5,
            coordinator,
        )
        coordinator.open(easy_split)
        coordinator.capacity = 2  # window 4: every candidate enqueued
        scheduler.top_up()
        # Serve every task inline, then forge a duplicate of one result
        # under a different (live-owner) agent id before the coordinator
        # ever polls.
        stats = run_agent(
            spool.path, poll_interval_s=0.05, max_chunks=len(ranked)
        )
        assert stats.chunks_done == len(ranked)
        results_dir = os.path.join(str(spool.path), "results")
        victim = sorted(os.listdir(results_dir))[0]
        token, cid, att, _agent = victim.rsplit(".result", 1)[0].split(".")
        forged = f"{token}.{cid}.{att}.{cluster._new_owner_id()}.result"
        with open(os.path.join(results_dir, victim), "rb") as fh:
            blob = fh.read()
        with open(os.path.join(results_dir, forged), "wb") as fh:
            fh.write(blob)
        outcome = scheduler.run()
        _assert_same_outcome(outcome, seq)
        assert coordinator.stats()["duplicate_results"] == 1


class TestTornFiles:
    def test_torn_result_is_quarantined_and_retried(
        self, easy_split, tmp_path
    ):
        """An agent shipping a truncated result frame: the checksum
        check catches it, the file is quarantined, the chunk re-runs
        clean, results unchanged."""
        settings = _settings()
        kwargs = _search_kwargs(easy_split, settings)
        seq = grid_search(**kwargs, workers=1)
        spool = _fast_spool(tmp_path)
        os.makedirs(spool.path, exist_ok=True)
        faults.arm_spool_fault(
            spool.path, FaultPlan(kind="torn-file", candidate=1)
        )
        agents = [_thread_agent(spool)]
        events = []
        try:
            par = grid_search(**kwargs, spool=spool, on_event=events.append)
        finally:
            _join_agents(spool, agents)
            faults.clear_spool_fault(spool.path)
        _assert_same_outcome(par, seq)
        assert "torn-file" in [e.kind for e in events]
        quarantined = os.listdir(os.path.join(str(spool.path), "quarantine"))
        assert len(quarantined) == 1
        assert quarantined[0].endswith(".result")

    def test_torn_lease_payload_is_quarantined_by_agent(self, tmp_path):
        """A task file torn *before* the claim: the claiming agent
        detects it at unframe time and quarantines instead of parsing
        garbage into a training job."""
        spool = _fast_spool(tmp_path)
        root = str(spool.path)
        for sub in ("tasks", "leases", "quarantine", "agents", "data",
                    "results"):
            os.makedirs(os.path.join(root, sub), exist_ok=True)
        token = cluster._new_owner_id()
        torn = cluster._frame(pickle.dumps("not a chunk"))[:-4]
        task = os.path.join(root, "tasks", f"{token}.c00000.a01.task")
        with open(task, "wb") as fh:
            fh.write(torn)
        stats = run_agent(
            root, poll_interval_s=0.05, idle_timeout_s=0.5
        )
        assert stats.quarantined == 1
        assert stats.chunks_done == 0
        names = os.listdir(os.path.join(root, "quarantine"))
        assert len(names) == 1 and names[0].endswith(".lease")
        assert os.listdir(os.path.join(root, "results")) == []
        # An intact frame from an older wire version (an agent or
        # coordinator from another checkout) is refused the same way,
        # never unpickled into a class that no longer exists.
        payload = pickle.dumps("a version-1 chunk")
        old = cluster._HEADER.pack(
            cluster._MAGIC, 1, len(payload), hashlib.sha256(payload).digest()
        )
        task = os.path.join(root, "tasks", f"{token}.c00001.a01.task")
        with open(task, "wb") as fh:
            fh.write(old + payload)
        stats = run_agent(root, poll_interval_s=0.05, idle_timeout_s=0.5)
        assert stats.quarantined == 1
        assert stats.chunks_done == 0
        assert len(os.listdir(os.path.join(root, "quarantine"))) == 2
        assert os.listdir(os.path.join(root, "results")) == []


class TestCostModel:
    def test_spool_coordinator_learns_and_persists_chunk_costs(
        self, easy_split, tmp_path
    ):
        """Every delivered ``SpoolResult.wall_time_s`` feeds the
        coordinator's cost model, and ``cost_cache`` persists it for
        the next invocation's packing order."""
        from repro.core.grid_search import rank_by_flops
        from repro.flops.conventions import get_convention
        from repro.runtime.pool import ChunkCostModel

        settings = _settings()
        kwargs = _search_kwargs(easy_split, settings)
        seq = grid_search(**kwargs, workers=1)
        cache = tmp_path / "chunk_costs.json"
        conv = get_convention("paper")
        ranked = rank_by_flops(small_space(), conv)[:4]
        spool = _fast_spool(tmp_path, cost_cache=str(cache))
        coordinator = SpoolExecutor(spool)
        agents = [_thread_agent(spool)]
        try:
            outcome = speculative_search(
                SearchFrontier(ranked, 1.01, conv, settings.runs),
                easy_split,
                settings,
                5,
                coordinator,
            )
        finally:
            _join_agents(spool, agents)
        _assert_same_outcome(outcome, seq)
        assert (
            coordinator.stats()["cost_observations"] == len(seq.evaluated)
        )
        # The cache round-trips: a fresh model warm-starts from it.
        warm = ChunkCostModel()
        assert warm.load_json(cache)
        assert warm.observations == len(seq.evaluated)


class TestStopIdempotency:
    def test_stop_agents_tolerates_cleaned_up_spool(self, tmp_path):
        """Winding down a cluster whose spool directory is already gone
        (or unwritable) must be a no-op, not a crash: the CLI calls
        ``stop_agents`` unconditionally on exit."""
        stop_agents(tmp_path / "never-created")
        # Harsher: the parent path is a *file*, so mkdir itself fails.
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        stop_agents(blocker / "spool")
        # And calling it twice on a live spool stays idempotent.
        live = tmp_path / "live"
        stop_agents(live)
        stop_agents(live)
        assert (live / "stop").exists()


class TestCoordinatorRestart:
    def test_restart_resumes_from_journal(self, easy_split, tmp_path):
        """A coordinator that dies mid-run (after committing a durable
        prefix) restarts against the same journal and spool and
        completes bit-identically."""

        class Interrupted(Exception):
            pass

        settings = _settings()
        kwargs = _search_kwargs(easy_split, settings)
        seq = grid_search(**kwargs, workers=1)
        journal = tmp_path / "cluster.jsonl"
        spool = _fast_spool(tmp_path)
        agents = [_thread_agent(spool)]
        try:
            seen = []

            def die_after_two(candidate):
                seen.append(candidate)
                if len(seen) >= 2:
                    raise Interrupted()

            with pytest.raises(Interrupted):
                grid_search(
                    **kwargs,
                    spool=spool,
                    journal=str(journal),
                    progress=die_after_two,
                )
            assert len(journal.read_text().splitlines()) >= 2
            replayed = []
            resumed = grid_search(
                **kwargs,
                spool=spool,
                journal=str(journal),
                progress=replayed.append,
            )
        finally:
            _join_agents(spool, agents)
        _assert_same_outcome(resumed, seq)
        assert len(replayed) == len(seq.evaluated)


class TestStartupHygiene:
    def _dead_owner(self):
        proc = subprocess.run(
            [sys.executable, "-c", "import os; print(os.getpid())"],
            capture_output=True,
            text=True,
            timeout=60,
        )
        return f"repro_{cluster._host_tag()}_{int(proc.stdout)}_{'a' * 6}"

    def test_sweep_removes_only_dead_owned_files(self, tmp_path):
        root = tmp_path / "spool"
        (root / "leases").mkdir(parents=True)
        (root / "agents").mkdir()
        dead = self._dead_owner()
        live = f"repro_{cluster._host_tag()}_{os.getpid()}_{'b' * 6}"
        remote = f"repro_otherhost_{1}_{'c' * 6}"
        names = {
            "dead-lease": f"{dead}.tok.c00001.a01.lease",
            "live-lease": f"{live}.tok.c00002.a01.lease",
            "remote-lease": f"{remote}.tok.c00003.a01.lease",
            "dead-agent": f"{dead}.agent",
        }
        for sub, name in (
            ("leases", names["dead-lease"]),
            ("leases", names["live-lease"]),
            ("leases", names["remote-lease"]),
            ("agents", names["dead-agent"]),
        ):
            (root / sub / name).write_bytes(b"x")
        removed = sweep_stale_leases(root)
        assert sorted(removed) == sorted(
            [names["dead-lease"], names["dead-agent"]]
        )
        # A live local owner and an unprobeable remote owner survive.
        assert (root / "leases" / names["live-lease"]).exists()
        assert (root / "leases" / names["remote-lease"]).exists()

    def test_coordinator_prepare_sweeps_and_counts(
        self, easy_split, tmp_path
    ):
        from repro.core.grid_search import rank_by_flops
        from repro.flops.conventions import get_convention

        conv = get_convention("paper")
        ranked = rank_by_flops(small_space(), conv)[:2]
        spool = _fast_spool(tmp_path)
        root = tmp_path / "spool"
        (root / "leases").mkdir(parents=True)
        (root / "tasks").mkdir()
        dead = self._dead_owner()
        (root / "leases" / f"{dead}.tok.c00001.a01.lease").write_bytes(b"x")
        (root / "tasks" / f"{dead}.c00001.a01.task").write_bytes(b"x")
        # A stop file from a previous wound-down run must not survive
        # prepare, or fresh agents would exit immediately.
        (root / "stop").touch()
        coordinator = SpoolExecutor(spool)
        coordinator.open(easy_split)
        stats = coordinator.stats()
        assert stats["swept_leases"] == 1
        assert stats["swept_files"] == 1
        assert not (root / "stop").exists()
        assert not (root / "leases" / f"{dead}.tok.c00001.a01.lease").exists()


class TestProtocolIntegration:
    def test_run_protocol_over_spool_with_journals(self, tmp_path):
        """The protocol layer: ``ProtocolConfig.spool`` routes every
        search through the coordinator, and the configured journal path
        forks into one derived file per (level, experiment) — sharing a
        file would lose checkpoints to compaction."""
        from repro.core.experiment import ProtocolConfig, run_protocol

        cfg = ProtocolConfig(
            feature_sizes=(4,),
            n_experiments=2,
            runs_per_candidate=1,
            epochs=2,
            batch_size=32,
            n_points=90,
            max_candidates=2,
            threshold=1.01,
        )
        seq = run_protocol("classical", cfg)
        spool = _fast_spool(tmp_path)
        agents = [_thread_agent(spool)]
        try:
            par = run_protocol(
                "classical",
                cfg.with_(
                    spool=str(spool.path),
                    journal=str(tmp_path / "ckpt.jsonl"),
                ),
            )
        finally:
            _join_agents(spool, agents)
        assert not (tmp_path / "ckpt.jsonl").exists()
        for experiment in range(2):
            assert (tmp_path / f"ckpt-f4-e{experiment}.jsonl").exists()
        for lvl_seq, lvl_par in zip(seq.levels, par.levels):
            for a, b in zip(lvl_seq.outcomes, lvl_par.outcomes):
                _assert_same_outcome(b, a)


class TestCliClusterSmoke:
    """The CI smoke: a real coordinator and two real agent processes
    talking only through a tmpdir spool, vs the sequential baseline."""

    def test_cli_agents_serve_coordinator(self, easy_split, tmp_path):
        settings = _settings()
        kwargs = _search_kwargs(easy_split, settings)
        seq = grid_search(**kwargs, workers=1)
        # Default lease timeout: CLI agents beat at the production 5s
        # interval, so a test-speed timeout would expire live leases.
        spool = SpoolConfig(
            path=str(tmp_path / "spool"), poll_interval_s=0.1
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
                    "--spool",
                    str(spool.path),
                    "--quiet",
                ],
                env=env,
            )
            for _ in range(2)
        ]
        try:
            par = grid_search(**kwargs, spool=spool)
        finally:
            stop_agents(spool.path)
            for proc in procs:
                try:
                    assert proc.wait(timeout=30) == 0
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait()
                    raise
        _assert_same_outcome(par, seq)
