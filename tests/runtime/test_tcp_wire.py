"""Unit tests for the TCP cluster transport's wire layer and endpoints.

``test_cluster_tcp.py`` drives whole searches through real agents;
this file pins the pieces underneath, one at a time: the ``RSPL``
frame (layout, round trip and every validation failure), message
decoding, address parsing and owner ids, the coordinator's handling of
raw client connections (grant order, leases, delivery, protocol
violations, shutdown and its cost cache), and an agent's reaction to a
coordinator that speaks garbage.  Every socket is loopback.
"""

import hmac
import os
import pickle
import random
import re
import socket
import threading
import time

import numpy as np
import pytest

from repro.core.grid_search import TrainingSettings
from repro.data import make_spiral, stratified_split
from repro.exceptions import SearchError
from repro.runtime import cluster_tcp
from repro.runtime.cluster_tcp import (
    ConnectionDead,
    Coordinator,
    TcpConfig,
    TcpExecutor,
    TornFrameError,
    _frame,
    _FRAME_VERSION,
    _HEADER,
    _HELLO_MAX_BYTES,
    _MAGIC,
    _MAX_FRAME_BYTES,
    _new_owner_id,
    _parse_address,
    _recv_frame,
    _recv_msg,
    _send_frame,
    _send_msg,
    run_tcp_agent,
)
from repro.runtime.parallel import Delivered, Lost, Notice, Starved
from repro.runtime.jobs import ChunkResult, JobChunk
from repro.runtime.parallel import ChunkCostModel

# A wire regression's failure mode is a hang; bound every test.
pytestmark = pytest.mark.timeout(60)


@pytest.fixture
def pair():
    a, b = socket.socketpair()
    yield a, b
    a.close()
    b.close()


def _send_async(sock, data, pause_after=None, pause_s=0.0):
    """Write ``data`` from a thread (optionally pausing mid-way)."""

    def write():
        if pause_after is None:
            sock.sendall(data)
        else:
            sock.sendall(data[:pause_after])
            time.sleep(pause_s)
            sock.sendall(data[pause_after:])

    thread = threading.Thread(target=write, daemon=True)
    thread.start()
    return thread


class TestFrameFormat:
    def test_header_layout_is_rspl_version_3(self):
        """The wire format, byte for byte: magic, u32 version, u64
        payload length, HMAC-SHA-256 of the payload under the
        coordinator's key (empty here), then the payload."""
        payload = b"abc"
        frame = _frame(payload)
        assert _HEADER.size == 48
        assert frame == (
            b"RSPL"
            + (3).to_bytes(4, "little")
            + (3).to_bytes(8, "little")
            + hmac.digest(b"", payload, "sha256")
            + payload
        )

    @pytest.mark.parametrize("size", [0, 1, (1 << 18) + 3])
    def test_frame_round_trip(self, pair, size):
        a, b = pair
        payload = random.Random(size).randbytes(size)
        writer = threading.Thread(
            target=_send_frame,
            args=(a, payload, 10.0, threading.Lock()),
            daemon=True,
        )
        writer.start()
        assert _recv_frame(b, frame_timeout_s=10.0) == payload
        writer.join(timeout=10)

    def test_message_round_trip(self, pair):
        a, b = pair
        msg = ("result", (7, 2, {"nested": [1.5, None, "x"]}))
        _send_msg(a, msg, 5.0, threading.Lock())
        assert _recv_msg(b, 5.0) == msg

    def test_keyed_frame_verifies_only_under_its_key(self, pair):
        a, b = pair
        _send_frame(a, b"keyed", 5.0, threading.Lock(), b"k" * 32)
        assert _recv_frame(b, 5.0, key=b"k" * 32) == b"keyed"
        for key in (b"", b"j" * 32):
            _send_frame(a, b"keyed", 5.0, threading.Lock(), b"k" * 32)
            with pytest.raises(TornFrameError, match="checksum"):
                _recv_frame(b, 5.0, key=key)

    def test_header_split_across_reads(self, pair):
        """A header that arrives in pieces is reassembled, not rejected."""
        a, b = pair
        frame = _frame(b"split header")
        writer = _send_async(a, frame, pause_after=10, pause_s=0.1)
        assert _recv_frame(b, frame_timeout_s=5.0) == b"split header"
        writer.join(timeout=5)


def _corrupt(kind):
    payload = pickle.dumps(("beat", {"agent": "x"}))
    digest = hmac.digest(b"", payload, "sha256")
    if kind == "magic":
        return b"XXXX" + _frame(payload)[4:]
    if kind == "version":
        # An intact frame from an older checkout's wire version.
        return _HEADER.pack(_MAGIC, 1, len(payload), digest) + payload
    if kind == "length":
        return _HEADER.pack(
            _MAGIC, _FRAME_VERSION, _MAX_FRAME_BYTES + 1, digest
        )
    frame = bytearray(_frame(payload))
    frame[-1] ^= 0xFF
    return bytes(frame)


class TestFrameValidation:
    @pytest.mark.parametrize("kind", ["magic", "version", "length", "checksum"])
    def test_invalid_frame_is_torn(self, pair, kind):
        a, b = pair
        a.sendall(_corrupt(kind))
        with pytest.raises(TornFrameError):
            _recv_frame(b, frame_timeout_s=5.0)

    def test_truncated_frame_is_a_dead_connection(self, pair):
        a, b = pair
        a.sendall(_frame(b"0123456789")[:-3])
        a.shutdown(socket.SHUT_WR)
        with pytest.raises(ConnectionDead, match="mid-frame"):
            _recv_frame(b, frame_timeout_s=5.0)

    def test_close_before_any_frame(self, pair):
        a, b = pair
        a.shutdown(socket.SHUT_WR)
        with pytest.raises(ConnectionDead, match="closed"):
            _recv_frame(b, frame_timeout_s=5.0)

    def test_reply_wait_is_bounded_without_stop(self, pair):
        """Awaiting a reply (agent side), the header itself must arrive
        within the frame timeout."""
        _a, b = pair
        t0 = time.monotonic()
        with pytest.raises(ConnectionDead, match="awaiting a frame header"):
            _recv_frame(b, frame_timeout_s=0.2)
        assert time.monotonic() - t0 < 5.0

    def test_stop_interrupts_inter_frame_wait(self, pair):
        """Coordinator side: silence between frames is legal and only a
        shutdown ends the wait, promptly."""
        _a, b = pair
        stopping = threading.Event()
        timer = threading.Timer(0.6, stopping.set)
        timer.start()
        t0 = time.monotonic()
        with pytest.raises(ConnectionDead, match="shutting down"):
            _recv_frame(b, frame_timeout_s=0.1, stop=stopping.is_set)
        elapsed = time.monotonic() - t0
        timer.join()
        # Waited past several frame timeouts, then noticed the stop.
        assert 0.5 < elapsed < 5.0

    def test_stall_mid_frame_is_cut(self, pair):
        """Once a frame starts, every read must progress within the
        frame timeout, even where inter-frame silence is unbounded."""
        a, b = pair
        a.sendall(_frame(b"payload that never finishes")[: _HEADER.size + 4])
        with pytest.raises(ConnectionDead, match="stalled mid-frame"):
            _recv_frame(b, frame_timeout_s=0.2, stop=lambda: False)

    @pytest.mark.parametrize(
        "payload",
        [
            b"\x80\x05not a pickle",
            pickle.dumps(["hello", {}]),
            pickle.dumps(("result", 1, 2)),
            pickle.dumps((1, None)),
        ],
        ids=["undecodable", "list", "triple", "non-str-kind"],
    )
    def test_malformed_message_is_torn(self, pair, payload):
        a, b = pair
        _send_frame(a, payload, 5.0, threading.Lock())
        with pytest.raises(TornFrameError):
            _recv_msg(b, 5.0)


class TestAddressAndIdentity:
    @pytest.mark.parametrize(
        "address, expected",
        [
            ("10.0.0.1:5000", ("10.0.0.1", 5000)),
            (":0", ("127.0.0.1", 0)),
            ("node-3.cluster:61000", ("node-3.cluster", 61000)),
        ],
    )
    def test_parse_address(self, address, expected):
        assert _parse_address(address) == expected

    @pytest.mark.parametrize("address", ["localhost", "host:", "host:http"])
    def test_parse_address_rejects(self, address):
        with pytest.raises(SearchError, match="HOST:PORT"):
            _parse_address(address)

    def test_owner_id_names_host_process_and_nonce(self):
        first, second = _new_owner_id(), _new_owner_id()
        pattern = rf"repro_[A-Za-z0-9-]+_{os.getpid()}_[0-9a-f]{{6}}"
        assert re.fullmatch(pattern, first)
        assert first != second

    @pytest.mark.parametrize(
        "hostname, tag", [("node_1.example", "node-1-example"), ("", "host")]
    )
    def test_owner_id_sanitizes_hostname(self, monkeypatch, hostname, tag):
        monkeypatch.setattr(cluster_tcp.socket, "gethostname", lambda: hostname)
        assert _new_owner_id().startswith(f"repro_{tag}_")


# -- the coordinator, spoken to over raw sockets ----------------------------


@pytest.fixture(scope="module")
def tiny_split():
    ds = make_spiral(2, n_points=20, noise=0.0, turns=0.4, seed=1)
    return stratified_split(ds, seed=1)


def _chunk(tag):
    """A genuine (empty) JobChunk; the coordinator never looks inside."""
    return JobChunk(
        jobs=(),
        split=None,
        settings=TrainingSettings(epochs=tag, batch_size=8, runs=1),
    )


@pytest.fixture
def coordinator(tiny_split):
    executor = TcpExecutor(
        Coordinator(
            TcpConfig(
                address="127.0.0.1:0",
                lease_timeout_s=30.0,
                agent_grace_s=30.0,
                frame_timeout_s=2.0,
            )
        )
    )
    executor.open(tiny_split)
    yield executor
    executor.close()
    executor.coordinator.close()


class _Client:
    """One raw connection speaking the agent side of the protocol."""

    def __init__(self, executor):
        host, port = executor.address.rsplit(":", 1)
        self.sock = socket.create_connection((host, int(port)), timeout=10)
        self.lock = threading.Lock()

    def send(self, kind, data=None):
        _send_msg(self.sock, (kind, data), 5.0, self.lock)

    def recv(self):
        return _recv_msg(self.sock, 5.0)

    def hello(self, agent="client"):
        self.send("hello", {"agent": agent})
        return self.recv()

    def claim(self):
        self.send("claim", {"agent": "client"})
        return self.recv()

    def closed_by_peer(self):
        try:
            return self.sock.recv(1) == b""
        except ConnectionResetError:
            return True

    def close(self):
        self.sock.close()


def _poll_until(executor, predicate, timeout=10.0):
    """Poll until ``predicate(all reports so far)``; return the reports."""
    reports = []
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        reports.extend(executor.poll(0.05))
        if predicate(reports):
            return reports
    raise AssertionError(f"condition not reached; saw {reports}")


def _wait_for(condition, timeout=10.0):
    deadline = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < deadline, "condition not reached"
        time.sleep(0.01)


class TestCoordinatorProtocol:
    def test_welcome_carries_the_token(self, coordinator):
        client = _Client(coordinator)
        kind, data = client.hello(agent="a1")
        client.close()
        assert kind == "welcome"
        assert data == {"token": coordinator.coordinator.token}
        assert coordinator.coordinator.agents_seen == {"a1"}

    def test_claims_follow_submission_order(self, coordinator, tiny_split):
        coordinator.submit(4, 1, _chunk(4))
        coordinator.submit(2, 3, _chunk(2))
        client = _Client(coordinator)
        client.hello()
        granted = [client.claim(), client.claim(), client.claim()]
        client.close()
        assert [kind for kind, _ in granted] == ["chunk", "chunk", "idle"]
        (_, first, split), (_, second, again) = granted[0][1], granted[1][1]
        assert first.settings.epochs == 4 and second.settings.epochs == 2
        # Chunks carry the split's token; the split itself rides along
        # with the connection's first grant only.
        assert first.split == second.split is not None
        assert np.array_equal(split.x_train, tiny_split.x_train)
        assert again is None

    def test_claim_waits_for_work(self, coordinator):
        """A claim with nothing pending is held open and answered the
        moment a chunk arrives, not with an ``idle`` to poll again."""
        client = _Client(coordinator)
        client.hello()
        client.send("claim", {"agent": "client"})
        time.sleep(0.2)
        coordinator.submit(7, 1, _chunk(7))
        kind, (_wire, chunk, _split) = client.recv()
        client.close()
        assert (kind, chunk.settings.epochs) == ("chunk", 7)

    def test_abort_withdraws_ungranted_work(self, coordinator):
        coordinator.submit(1, 1, _chunk(1))
        coordinator.abort()
        client = _Client(coordinator)
        client.hello()
        assert client.claim() == ("idle", None)
        client.close()

    def test_cancel_reaches_the_agent_holding_the_chunk(self, coordinator):
        coordinator.submit(1, 1, _chunk(1))
        client = _Client(coordinator)
        client.hello()
        _kind, (wire, _chunk_, _split) = client.claim()
        coordinator.cancel(1)
        assert client.recv() == ("cancel", wire)
        # A result the agent sends anyway is acked and dropped.
        client.send("result", (wire, ChunkResult(cancelled=False)))
        assert client.recv() == ("ack", None)
        client.close()
        assert coordinator.poll(0.2) == []

    def test_dropped_connection_releases_its_lease(self, coordinator):
        coordinator.submit(1, 1, _chunk(1))
        client = _Client(coordinator)
        client.hello()
        assert client.claim()[0] == "chunk"
        client.close()
        reports = _poll_until(
            coordinator, lambda r: any(isinstance(x, Lost) for x in r)
        )
        notices = [r for r in reports if isinstance(r, Notice)]
        assert [n.kind for n in notices] == ["conn-lost"]
        assert [r.cids for r in reports if isinstance(r, Lost)] == [(1,)]
        assert coordinator.coordinator.expired_leases == 0

    def test_silent_lease_expires(self, tiny_split):
        executor = TcpExecutor(
            Coordinator(
                TcpConfig(
                    address="127.0.0.1:0",
                    lease_timeout_s=0.3,
                    agent_grace_s=30.0,
                    frame_timeout_s=2.0,
                )
            )
        )
        executor.open(tiny_split)
        client = _Client(executor)
        try:
            executor.submit(5, 2, _chunk(5))
            client.hello()
            assert client.claim()[0] == "chunk"
            # The socket stays open but no frame arrives: a partition.
            reports = _poll_until(
                executor, lambda r: any(isinstance(x, Lost) for x in r)
            )
        finally:
            client.close()
            executor.close()
            executor.coordinator.close()
        assert [n.kind for n in reports if isinstance(n, Notice)] == [
            "lease-expired"
        ]
        assert [r.cids for r in reports if isinstance(r, Lost)] == [(5,)]
        assert executor.stats()["expired_leases"] == 1

    def test_result_is_acked_delivered_and_withdraws_retry(
        self, coordinator
    ):
        coordinator.submit(3, 1, _chunk(3))
        client = _Client(coordinator)
        client.hello()
        _kind, (wire, _chunk_, _split) = client.claim()
        # A retry of the same chunk queued while the first attempt ran.
        coordinator.submit(3, 2, _chunk(3))
        result = ChunkResult(cancelled=False, entries=(), wall_time_s=0.25)
        client.send("result", (wire, result))
        assert client.recv() == ("ack", None)
        reports = _poll_until(
            coordinator, lambda r: any(isinstance(x, Delivered) for x in r)
        )
        assert [r for r in reports if isinstance(r, Delivered)] == [
            Delivered(3, result)
        ]
        assert not any(isinstance(r, Lost) for r in reports)
        # The delivered chunk's queued retry is never granted.
        assert client.claim() == ("idle", None)
        client.close()

    def test_chunk_error_is_a_lost_chunk_with_its_error(self, coordinator):
        coordinator.submit(6, 1, _chunk(6))
        client = _Client(coordinator)
        client.hello()
        _kind, (wire, _chunk_, _split) = client.claim()
        client.send("error", (wire, "RuntimeError: boom"))
        assert client.recv() == ("ack", None)
        [lost] = _poll_until(coordinator, lambda r: bool(r))
        client.close()
        assert isinstance(lost, Lost) and lost.cids == (6,)
        assert "boom" in str(lost.error)

    @pytest.mark.parametrize(
        "first", [("claim", {"agent": "x"}), ("result", None)],
        ids=["claim", "result"],
    )
    def test_message_before_hello_drops_connection(self, coordinator, first):
        client = _Client(coordinator)
        client.send(*first)
        assert client.closed_by_peer()
        client.close()
        stats = coordinator.stats
        _wait_for(lambda: stats()["connections_lost"] == 1)
        assert stats()["torn_frames"] == 0

    def test_unknown_kind_drops_connection(self, coordinator):
        client = _Client(coordinator)
        client.hello()
        client.send("bogus")
        assert client.closed_by_peer()
        client.close()
        stats = coordinator.stats
        _wait_for(lambda: stats()["connections_lost"] == 1)
        assert stats()["torn_frames"] == 0

    @pytest.mark.parametrize("kind", ["magic", "version", "checksum"])
    def test_torn_frame_is_counted_and_dropped(self, coordinator, kind):
        client = _Client(coordinator)
        client.hello()
        client.sock.sendall(_corrupt(kind))
        assert client.closed_by_peer()
        client.close()
        stats = coordinator.stats
        _wait_for(lambda: stats()["connections_lost"] == 1)
        assert stats()["torn_frames"] == 1

    def test_malformed_result_is_torn(self, coordinator):
        client = _Client(coordinator)
        client.hello()
        client.send("result", (1, "not a ChunkResult"))
        assert client.closed_by_peer()
        client.close()
        _wait_for(lambda: coordinator.stats()["torn_frames"] == 1)

    def test_capacity_counts_live_agents(self, coordinator):
        clients = [_Client(coordinator) for _ in range(2)]
        for i, client in enumerate(clients):
            client.hello(agent=f"a{i}")
        coordinator.poll(0.0)
        assert coordinator.capacity == 2
        for client in clients:
            client.close()
        _wait_for(lambda: coordinator.stats()["connections_lost"] == 2)
        coordinator.poll(0.0)
        assert coordinator.capacity == 0

    def test_starves_once_no_agent_for_grace(self, tiny_split):
        executor = TcpExecutor(
            Coordinator(TcpConfig(address="127.0.0.1:0", agent_grace_s=0.2))
        )
        executor.open(tiny_split)
        try:
            t0 = time.monotonic()
            reports = _poll_until(
                executor, lambda r: any(isinstance(x, Starved) for x in r)
            )
        finally:
            executor.close()
            executor.coordinator.close()
        assert time.monotonic() - t0 >= 0.2
        assert [n.kind for n in reports if isinstance(n, Notice)] == [
            "no-agents"
        ]


class TestCoordinatorLifecycle:
    def test_close_is_idempotent(self, tiny_split, tmp_path):
        """Closing a coordinator that never listened, or twice, is a
        no-op: callers close unconditionally on every exit path."""
        cache = tmp_path / "costs.json"
        Coordinator("127.0.0.1:0", cost_cache=cache).close()
        executor = TcpExecutor(Coordinator("127.0.0.1:0", cost_cache=cache))
        executor.open(tiny_split)
        executor.coordinator.close()
        executor.coordinator.close()
        # Nothing observed, nothing persisted.
        assert not cache.exists()

    def test_closed_coordinator_refuses_to_listen(self):
        coordinator = Coordinator("127.0.0.1:0")
        coordinator.close()
        with pytest.raises(SearchError, match="closed"):
            coordinator.listen()

    def test_close_returns_promptly(self, tiny_split):
        """Shutdown wakes the accept thread and a held claim instead of
        waiting out their timeouts."""
        executor = TcpExecutor(Coordinator("127.0.0.1:0"))
        executor.open(tiny_split)
        # One accepted agent with a claim held open.
        client = _Client(executor)
        client.hello()
        client.send("claim", {"agent": "client"})
        time.sleep(0.1)
        t0 = time.monotonic()
        executor.close()
        executor.coordinator.close()
        client.close()
        assert time.monotonic() - t0 < 2.0
        assert not executor.coordinator._accept_thread.is_alive()

    def test_cost_cache_round_trips(self, tiny_split, tmp_path):
        cache = tmp_path / "nested" / "costs.json"
        coordinator = Coordinator("127.0.0.1:0", cost_cache=cache)
        coordinator.cost_model.observe("Dense(4)", 100, 0.5, 1)
        coordinator.close()
        warm = Coordinator("127.0.0.1:0", cost_cache=cache)
        assert warm.cost_model.observations == 1
        assert warm.stats()["cost_observations"] == 1

    def test_cost_cache_of_another_identity_is_ignored(self, tmp_path):
        cache = tmp_path / "costs.json"
        smoke = Coordinator("127.0.0.1:0", cost_cache=cache, cost_identity="smoke")
        smoke.cost_model.observe("Dense(4)", 100, 0.5, 1)
        smoke.close()
        reduced = Coordinator(
            "127.0.0.1:0", cost_cache=cache, cost_identity="reduced"
        )
        assert reduced.cost_model.observations == 0
        again = Coordinator("127.0.0.1:0", cost_cache=cache, cost_identity="smoke")
        assert again.cost_model.observations == 1

    def test_corrupt_cost_cache_is_ignored(self, tmp_path):
        cache = tmp_path / "costs.json"
        cache.write_text("{not json")
        coordinator = Coordinator("127.0.0.1:0", cost_cache=cache)
        assert coordinator.cost_model.observations == 0

    def test_unwritable_cost_cache_does_not_fail_close(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        cache = blocker / "costs.json"
        coordinator = Coordinator("127.0.0.1:0", cost_cache=cache)
        coordinator.cost_model.observe("Dense(4)", 100, 0.5, 1)
        coordinator.close()
        assert not ChunkCostModel().load_json(cache)

    def test_unproven_peer_cannot_declare_a_large_frame(self, coordinator):
        """Before its hello verifies, a connection may declare only a
        small frame: a larger header is torn at once, before any buffer
        is allocated or any payload awaited."""
        client = _Client(coordinator)
        try:
            client.sock.sendall(
                _HEADER.pack(
                    _MAGIC, _FRAME_VERSION, _HELLO_MAX_BYTES + 1, bytes(32)
                )
            )
            assert client.closed_by_peer()
        finally:
            client.close()
        assert coordinator.stats()["torn_frames"] == 1

    def test_agents_get_no_memory_budget(self):
        executor = TcpExecutor(Coordinator("127.0.0.1:0"))
        assert executor.memory_budget(TrainingSettings()) is None


# -- an agent facing a misbehaving coordinator ------------------------------


def _fake_coordinator(misbehave, seen):
    """Accept one agent, answer its hello (and first claim) wrongly.

    ``misbehave`` is ``"no-welcome"`` (an ``idle`` reply to hello) or a
    :func:`_corrupt` kind sent as the chunk grant.  The listener closes
    right after the accept, so the agent's redials are refused and it
    gives up after its reconnect window.  ``seen`` receives the message
    kinds read from the agent and finally ``"eof"`` once the agent hung
    up instead of answering.
    """
    server = socket.create_server(("127.0.0.1", 0))
    port = server.getsockname()[1]

    def serve():
        conn, _ = server.accept()
        server.close()
        lock = threading.Lock()
        with conn:
            seen.append(_recv_msg(conn, 10.0)[0])
            if misbehave == "no-welcome":
                _send_msg(conn, ("idle", None), 5.0, lock)
            else:
                _send_msg(conn, ("welcome", {"token": "t"}), 5.0, lock)
                while True:
                    kind = _recv_msg(conn, 10.0)[0]
                    if kind == "claim":
                        seen.append(kind)
                        break
                conn.sendall(_corrupt(misbehave))
            conn.settimeout(10.0)
            try:
                while conn.recv(4096):
                    pass  # heartbeats in flight, never a result
            except OSError:
                pass
            seen.append("eof")

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    return f"127.0.0.1:{port}", thread


class TestAgentFacingBadCoordinator:
    @pytest.mark.parametrize(
        "misbehave", ["no-welcome", "magic", "version", "checksum"]
    )
    def test_agent_hangs_up_and_never_trains(self, misbehave):
        """A reply the agent cannot trust (wrong greeting, foreign or
        older wire version, bad checksum) ends that connection: no
        chunk is decoded or trained, and the agent redials."""
        seen = []
        address, server = _fake_coordinator(misbehave, seen)
        stats = run_tcp_agent(
            address,
            heartbeat_s=0.1,
            frame_timeout_s=5.0,
            reconnect_timeout_s=0.5,
            rng=random.Random(0),
        )
        server.join(timeout=10)
        expected = ["hello"] if misbehave == "no-welcome" else [
            "hello",
            "claim",
        ]
        assert seen == expected + ["eof"]
        assert stats.chunks_done == 0
        assert stats.cancelled == 0
        assert stats.reconnects >= 1

    def test_agent_gives_up_without_coordinator(self):
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        t0 = time.monotonic()
        stats = run_tcp_agent(
            f"127.0.0.1:{port}",
            reconnect_timeout_s=0.3,
            rng=random.Random(0),
        )
        assert time.monotonic() - t0 < 10.0
        assert (stats.chunks_done, stats.reconnects) == (0, 0)
