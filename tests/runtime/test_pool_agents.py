"""Lifecycle tests for the persistent pool: a loopback coordinator plus
the agent processes it starts itself.

Nothing starts before the first chunk; ``close()`` leaves no agent and
no listening socket behind; an agent that dies between searches is
replaced and the next outcome is unchanged; a ``cancel`` stops a
running chunk at its next epoch boundary; a chunk names its dataset by
a token instead of carrying it; and a pooled search in a fresh
interpreter exits clean, needs no ``__main__`` guard, and leaves no
zygote or agent behind when its driver is killed.
"""

import os
import pickle
import signal
import socket
import subprocess
import sys
import textwrap
import threading
import time

import numpy as np
import pytest

from repro.core.grid_search import TrainingSettings, grid_search
from repro.core.search_space import ClassicalSpec, classical_search_space
from repro.data import make_spiral, stratified_split
from repro.exceptions import SearchError, TrainingCancelled
from repro.runtime import Coordinator, PersistentPool, TcpExecutor
from repro.runtime.cluster_tcp import _frame, run_tcp_agent
from repro.runtime.jobs import make_chunk

pytestmark = pytest.mark.timeout(180)


class CrashingSpec(ClassicalSpec):
    """A spec whose training hard-kills the process building it
    (picklable by reference, like ExplodingSpec in test_parallel_search)."""

    def build(self, rng=None):
        os._exit(13)


@pytest.fixture(scope="module")
def easy_split():
    ds = make_spiral(4, n_points=150, noise=0.0, turns=0.4, seed=7)
    return stratified_split(ds, seed=7)


def small_space(n_features=4):
    return classical_search_space(
        n_features, neuron_options=(2, 8), max_layers=2
    )


def _search_kwargs(easy_split):
    return dict(
        specs=small_space(),
        split=easy_split,
        threshold=1.01,
        settings=TrainingSettings(epochs=2, batch_size=32, runs=2),
        max_candidates=4,
        seed=5,
    )


_TRIPPED = []


def _trip(tag):
    _TRIPPED.append(tag)


class _Tripwire:
    """Records it was unpickled (in whichever thread unpickles it)."""

    def __reduce__(self):
        return (_trip, ("unpickled",))


def _send_raw(address, frame):
    """Send ``frame`` on a fresh connection; True once the peer hangs up."""
    host, port = address.rsplit(":", 1)
    with socket.create_connection((host, int(port)), timeout=10) as sock:
        sock.sendall(frame)
        try:
            return sock.recv(1) == b""
        except ConnectionResetError:
            return True


def _accuracies(outcome):
    return [c.val_accuracies for c in outcome.evaluated]


def _gone(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    return False


def _running(pid):
    """Alive and not a zombie (an orphan waits for its new parent to
    reap it)."""
    if _gone(pid):
        return False
    try:
        with open(f"/proc/{pid}/stat", encoding="utf-8") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return not _gone(pid)


def _wait_for(condition, timeout=30.0):
    deadline = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < deadline, "condition not reached"
        time.sleep(0.01)


def _refused(address):
    host, port = address.rsplit(":", 1)
    try:
        socket.create_connection((host, int(port)), timeout=2).close()
    except ConnectionRefusedError:
        return True
    return False


class TestLifecycle:
    def test_construction_starts_nothing(self):
        """A pool created "just in case" (a CLI run whose experiments
        all hit the results cache) costs no process and no socket."""
        with PersistentPool(2) as pool:
            assert pool.agent_pids() == set()
            assert pool._server is None
            assert pool.address.endswith(":0")
            assert pool.stats()["agents_started"] == 0

    def test_close_leaves_no_agent_and_no_port(self, easy_split):
        pool = PersistentPool(2)
        try:
            grid_search(**_search_kwargs(easy_split), pool=pool)
            pids = pool.agent_pids()
            address = pool.address
            assert len(pids) == 2
        finally:
            pool.close()
        assert pool.closed
        assert all(_gone(pid) for pid in pids)
        assert _refused(address)
        pool.close()  # idempotent

    def test_early_pass_close_leaves_nothing(self, easy_split):
        """The winner commits while speculative chunks still train;
        closing right away still kills and reaps every agent."""
        pool = PersistentPool(2)
        try:
            outcome = grid_search(
                small_space(),
                easy_split,
                threshold=0.0,  # cheapest candidate wins immediately
                settings=TrainingSettings(epochs=1, batch_size=64, runs=1),
                pool=pool,
            )
            assert outcome.succeeded
            pids = pool.agent_pids()
        finally:
            pool.close()
        assert pids and all(_gone(pid) for pid in pids)

    def test_killed_agent_is_replaced_between_searches(self, easy_split):
        kwargs = _search_kwargs(easy_split)
        seq = grid_search(**kwargs, workers=1)
        with PersistentPool(2) as pool:
            first = grid_search(**kwargs, pool=pool)
            victim = min(pool.agent_pids())
            os.kill(victim, signal.SIGKILL)
            _wait_for(lambda: victim not in pool.agent_pids())
            again = grid_search(**kwargs, pool=pool)
            assert pool.stats()["agents_started"] == 3
            assert len(pool.agent_pids()) == 2
            assert victim not in pool.agent_pids()
        assert _accuracies(first) == _accuracies(seq)
        assert _accuracies(again) == _accuracies(seq)

    def test_peer_without_the_key_is_dropped_before_unpickling(
        self, easy_split
    ):
        """Another local user who finds the loopback port: a frame not
        signed with the pool's key is torn before its payload is
        unpickled, and the pool's own agents serve on unchanged."""
        kwargs = _search_kwargs(easy_split)
        seq = grid_search(**kwargs, workers=1)
        payload = pickle.dumps(_Tripwire())
        _TRIPPED.clear()
        with PersistentPool(2) as pool:
            assert len(pool.key) == 32
            assert PersistentPool(2).key != pool.key
            first = grid_search(**kwargs, pool=pool)
            assert _send_raw(pool.address, _frame(payload))
            assert _TRIPPED == []
            assert pool.stats()["torn_frames"] == 1
            # The control: the same frame under the key is unpickled.
            assert _send_raw(pool.address, _frame(payload, pool.key))
            assert _TRIPPED == ["unpickled"]
            again = grid_search(**kwargs, pool=pool)
            assert pool.stats()["agents_started"] == 2
        assert _accuracies(first) == _accuracies(seq)
        assert _accuracies(again) == _accuracies(seq)

    def test_crashing_chunk_fails_the_search_not_the_pool(self, easy_split):
        """An agent that dies inside a chunk (here: ``os._exit`` while
        building the model) loses its connection; with retries and the
        in-process floor off the search fails, and the pool replaces the
        agent for the next search."""
        settings = TrainingSettings(
            epochs=1,
            batch_size=64,
            runs=1,
            max_retries=0,
            fallback_sequential=False,
        )
        with PersistentPool(2) as pool:
            with pytest.raises(SearchError, match="connection dropped"):
                grid_search(
                    [CrashingSpec(n_features=4, hidden=(2,))],
                    easy_split,
                    threshold=1.01,
                    settings=settings,
                    pool=pool,
                )
            _wait_for(lambda: len(pool.agent_pids()) == 1)
            outcome = grid_search(
                small_space(),
                easy_split,
                threshold=1.01,
                settings=settings,
                max_candidates=1,
                pool=pool,
            )
            assert outcome.candidates_trained == 1
            assert pool.stats()["agents_started"] == 3

    def test_protocol_closes_its_own_pool(self, monkeypatch):
        """run_protocol with workers > 1 creates one pool for all its
        searches and leaves no agent behind when it returns."""
        from repro.core.experiment import ProtocolConfig, run_protocol

        cfg = ProtocolConfig(
            feature_sizes=(4, 6),
            n_experiments=1,
            runs_per_candidate=1,
            epochs=1,
            n_points=60,
            max_candidates=1,
            threshold=1.01,
            workers=2,
        )
        agents = []
        close = PersistentPool.close

        def recording_close(pool):
            if not pool.closed:
                agents.append(pool.agent_pids())
            close(pool)

        monkeypatch.setattr(PersistentPool, "close", recording_close)
        result = run_protocol("classical", cfg)
        assert len(result.levels) == 2
        [pids] = agents
        assert len(pids) == 2
        assert all(_gone(pid) for pid in pids)

    def test_no_fork_names_the_sequential_fallback(
        self, easy_split, monkeypatch
    ):
        """Without ``os.fork`` the pool cannot start: its first submit
        says so and points at ``--workers 1``."""
        monkeypatch.delattr(os, "fork")
        chunk = make_chunk(
            [(small_space()[0], 0)], 3, TrainingSettings(epochs=1, runs=1)
        )
        with PersistentPool(2) as pool:
            with pytest.raises(SearchError, match="--workers 1"):
                pool.submit(chunk, print, print)
            assert pool.agent_pids() == set()


class TestSplitTokens:
    def test_chunk_carries_a_token_not_arrays(self):
        """The dataset reaches each agent once, with its first chunk;
        chunks name it by a token, so their payload does not grow with
        the dataset."""
        small = stratified_split(make_spiral(4, n_points=120, seed=1), seed=1)
        big = stratified_split(make_spiral(4, n_points=1200, seed=1), seed=1)
        spec = small_space()[0]
        settings = TrainingSettings(epochs=1, runs=5)
        sizes = []
        with Coordinator("127.0.0.1:0") as coordinator:
            for split in (small, big):
                executor = TcpExecutor(coordinator)
                executor.open(split)
                chunk = make_chunk([(spec, 0)], 3, settings)
                executor.submit(0, 1, chunk)
                [sent] = [d.chunk for d in coordinator._dispatches.values()]
                assert isinstance(sent.split, str)
                assert sent.split == coordinator.publish(split)
                sizes.append(len(pickle.dumps(sent)))
                executor.close()
        assert sizes[1] - sizes[0] <= 16
        assert sizes[1] < 4096 < len(pickle.dumps(big)) / 10

    def test_publish_is_per_split_object_and_weak(self):
        import gc

        with Coordinator("127.0.0.1:0") as coordinator:
            split = stratified_split(make_spiral(4, n_points=90, seed=2), seed=2)
            token = coordinator.publish(split)
            assert coordinator.publish(split) == token
            del split
            gc.collect()
            other = stratified_split(make_spiral(4, n_points=90, seed=4), seed=4)
            assert coordinator.publish(other) != token
            assert token not in coordinator._splits


class TestCancel:
    def test_cancel_stops_a_running_chunk_at_its_next_epoch(self, easy_split):
        """A speculative chunk the scheduler no longer needs is
        cancelled mid-training: its agent stops at the next epoch
        boundary, nothing is delivered, and the agent serves on."""
        spec = small_space()[-1]
        long = TrainingSettings(epochs=5000, batch_size=8, runs=1)
        stop = threading.Event()
        stats = []
        with Coordinator("127.0.0.1:0") as coordinator:
            executor = TcpExecutor(coordinator)
            executor.open(easy_split)
            agent = threading.Thread(
                target=lambda: stats.append(
                    run_tcp_agent(coordinator.address, stop=stop)
                ),
                daemon=True,
            )
            agent.start()
            chunk = make_chunk([(spec, 0)], 3, long)
            executor.submit(0, 1, chunk)
            _wait_for(
                lambda: any(
                    d.conn_id is not None
                    for d in coordinator._dispatches.values()
                )
            )
            time.sleep(0.2)  # well into training
            cancelled_at = time.monotonic()
            executor.cancel(0)
            stop.set()
            agent.join(timeout=30)
            stopped_after = time.monotonic() - cancelled_at
            assert executor.poll(0.1) == []
        assert stats[0].cancelled == 1
        assert stats[0].chunks_done == 0
        # 5000 epochs would take minutes; one more epoch takes
        # milliseconds.
        assert stopped_after < 5.0


class TestFreshInterpreter:
    def test_pooled_search_exits_clean(self, tmp_path):
        """A pooled search in a fresh interpreter finishes with a clean
        stderr and leaves no process behind."""
        script = tmp_path / "pooled_search.py"
        script.write_text(textwrap.dedent("""
            def main():
                from repro.core.grid_search import TrainingSettings, grid_search
                from repro.core.search_space import classical_search_space
                from repro.data import make_spiral, stratified_split
                from repro.runtime import PersistentPool

                split = stratified_split(
                    make_spiral(4, n_points=120, noise=0.0, seed=3), seed=3
                )
                space = classical_search_space(
                    4, neuron_options=(2,), max_layers=1
                )
                settings = TrainingSettings(epochs=1, batch_size=64, runs=2)
                with PersistentPool(2) as pool:
                    outcome = grid_search(
                        space, split, threshold=1.01,
                        settings=settings, pool=pool,
                    )
                    print("agents", *sorted(pool.agent_pids()))
                assert outcome.candidates_trained == len(space)
                print("ok")

            if __name__ == "__main__":
                main()
        """))
        result = subprocess.run(
            [sys.executable, str(script)],
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert result.returncode == 0, result.stderr
        assert "ok" in result.stdout
        assert "Traceback" not in result.stderr
        assert "resource_tracker" not in result.stderr
        agents = next(
            line for line in result.stdout.splitlines()
            if line.startswith("agents")
        ).split()[1:]
        assert len(agents) == 2
        assert all(_gone(int(pid)) for pid in agents)


    def test_driver_without_main_guard(self, tmp_path):
        """Agents are forked, never started by re-importing the driver:
        a script with no ``__main__`` guard runs its top level once and
        its pooled search needs no retry and no in-process fallback."""
        script = tmp_path / "unguarded.py"
        script.write_text(textwrap.dedent("""
            from repro.core.grid_search import TrainingSettings, grid_search
            from repro.core.search_space import classical_search_space
            from repro.data import make_spiral, stratified_split
            from repro.runtime import PersistentPool

            print("top level")
            split = stratified_split(
                make_spiral(4, n_points=120, noise=0.0, seed=3), seed=3
            )
            space = classical_search_space(4, neuron_options=(2,), max_layers=1)
            settings = TrainingSettings(epochs=1, batch_size=64, runs=2)
            with PersistentPool(2) as pool:
                outcome = grid_search(
                    space, split, threshold=1.01, settings=settings, pool=pool
                )
                stats = pool.stats()
            assert outcome.candidates_trained == len(space)
            print(
                "stats", stats["agents_started"], stats["chunk_retries"],
                stats["sequential_fallbacks"],
            )
        """))
        result = subprocess.run(
            [sys.executable, str(script)],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
        assert result.stderr == ""
        lines = result.stdout.splitlines()
        assert lines.count("top level") == 1
        assert "stats 2 0 0" in lines

    def test_killed_driver_leaves_no_zygote_and_no_agent(self, tmp_path):
        """SIGKILL the driver after a pooled search: the zygote sees its
        socket close, kills and reaps the agents and exits.  The line
        the driver printed before its first submit reaches the pipe
        exactly once: it was flushed before the fork, and no child ran
        the driver's exit handlers."""
        script = tmp_path / "killed_driver.py"
        script.write_text(textwrap.dedent("""
            import atexit
            import sys
            import time

            from repro.core.grid_search import TrainingSettings, grid_search
            from repro.core.search_space import classical_search_space
            from repro.data import make_spiral, stratified_split
            from repro.runtime import PersistentPool

            atexit.register(print, "atexit")
            split = stratified_split(
                make_spiral(4, n_points=120, noise=0.0, seed=3), seed=3
            )
            space = classical_search_space(4, neuron_options=(2,), max_layers=1)
            settings = TrainingSettings(epochs=1, batch_size=64, runs=2)
            pool = PersistentPool(2)
            print("before the first submit")  # block-buffered on a pipe
            grid_search(space, split, threshold=1.01, settings=settings, pool=pool)
            print("pids", pool._zygote.pid, *sorted(pool.agent_pids()), flush=True)
            time.sleep(600)
        """))
        env = dict(os.environ)
        env.pop("PYTHONUNBUFFERED", None)  # keep stdout block-buffered
        driver = subprocess.Popen(
            [sys.executable, str(script)],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
        try:
            lines = []
            for line in driver.stdout:
                lines.append(line.strip())
                if line.startswith("pids"):
                    break
            pids = [int(pid) for pid in lines[-1].split()[1:]]
            assert len(pids) == 3, (lines, driver.stderr.read())
            driver.kill()
            driver.wait(timeout=30)
            _wait_for(lambda: not any(map(_running, pids)), timeout=30.0)
            # Every holder of the pipe's write end is gone: EOF.
            lines += [line.strip() for line in driver.stdout]
        finally:
            driver.kill()
            driver.wait()
        assert lines.count("before the first submit") == 1
        assert "atexit" not in lines
        assert driver.stderr.read() == ""


class TestCancelHook:
    def test_train_model_cancel_check(self, easy_split):
        from repro.hybrid.builders import build_classical_model
        from repro.nn.training import train_model

        rng = np.random.default_rng(0)
        model = build_classical_model(4, hidden=(2,), rng=rng)
        calls = []

        def cancel():
            calls.append(True)
            return len(calls) >= 2  # let one epoch run, then cancel

        with pytest.raises(TrainingCancelled):
            train_model(
                model,
                easy_split.x_train,
                easy_split.y_train,
                easy_split.x_val,
                easy_split.y_val,
                epochs=50,
                batch_size=64,
                rng=rng,
                cancel_check=cancel,
            )
        assert len(calls) == 2
