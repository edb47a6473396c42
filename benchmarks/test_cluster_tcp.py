"""TCP-transport overhead: socket-sharded search vs sequential.

The TCP coordinator promises that "distribution is free,
determinism-wise" over a partition-prone medium; this benchmark makes
the *time* cost visible in the committed ``BENCH_<rev>.json``
snapshots.  A loopback, single-agent run is a pure-overhead
configuration: every training second the sequential baseline pays,
plus framing, socket writes, acks, claims and heartbeats.  The delta between the two entries is the transport tax a
real multi-host run amortizes across agents.

``test_tcp_frame_roundtrip`` isolates the per-message cost (frame +
send + receive + validate) over a real loopback socket pair, away from
any training work.
"""

import pickle
import socket
import threading

import pytest

from repro.core.grid_search import TrainingSettings, grid_search
from repro.core.search_space import classical_search_space
from repro.data import make_spiral, stratified_split
from repro.runtime.cluster_tcp import (
    Coordinator,
    TcpConfig,
    _recv_frame,
    _send_frame,
    run_tcp_agent,
)

_SETTINGS = TrainingSettings(epochs=8, batch_size=16, runs=2)


def _bench_case():
    ds = make_spiral(4, n_points=240, noise=0.0, turns=0.8, seed=7)
    split = stratified_split(ds, seed=7)
    space = classical_search_space(4, neuron_options=(2, 6), max_layers=1)
    return space, split


def _search(space, split, **kwargs):
    return grid_search(
        space,
        split,
        threshold=1.01,  # exhaust the space: a fixed amount of work
        settings=_SETTINGS,
        seed=3,
        **kwargs,
    )


def _free_port():
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


class TestTcpOverhead:
    def test_sequential_baseline(self, benchmark):
        space, split = _bench_case()
        outcome = benchmark.pedantic(
            lambda: _search(space, split, workers=1), rounds=2, iterations=1
        )
        assert outcome.candidates_trained == len(space)

    def test_tcp_single_agent(self, benchmark):
        space, split = _bench_case()
        cfg = TcpConfig(
            address=f"127.0.0.1:{_free_port()}",
        )
        stop = threading.Event()
        agent = threading.Thread(
            target=run_tcp_agent,
            args=(cfg.address,),
            kwargs=dict(heartbeat_s=0.5, stop=stop),
            daemon=True,
        )
        agent.start()

        def tcp_search():
            # One coordinator per round, bound and closed with its search.
            with Coordinator(cfg) as coordinator:
                return _search(space, split, pool=coordinator)

        try:
            outcome = benchmark.pedantic(tcp_search, rounds=2, iterations=1)
        finally:
            stop.set()
            agent.join(timeout=30)
        assert outcome.candidates_trained == len(space)


class TestFraming:
    def test_tcp_frame_roundtrip(self, benchmark):
        _, split = _bench_case()
        payload = pickle.dumps(split, protocol=pickle.HIGHEST_PROTOCOL)
        server = socket.create_server(("127.0.0.1", 0))
        client = socket.create_connection(server.getsockname(), timeout=30)
        peer, _ = server.accept()
        peer.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        client.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        lock = threading.Lock()
        echo_halt = threading.Event()

        def echo():
            # The peer bounces every frame back, revalidating on each
            # side: one benchmark iteration = 2 sends + 2 checked reads.
            while not echo_halt.is_set():
                try:
                    blob = _recv_frame(peer, frame_timeout_s=30.0)
                except Exception:
                    return
                _send_frame(peer, blob, timeout_s=30.0, lock=lock)

        echo_thread = threading.Thread(target=echo, daemon=True)
        echo_thread.start()
        wlock = threading.Lock()

        def roundtrip():
            _send_frame(client, payload, timeout_s=30.0, lock=wlock)
            return _recv_frame(client, frame_timeout_s=30.0)

        try:
            out = benchmark(roundtrip)
        finally:
            echo_halt.set()
            for sock in (client, peer, server):
                try:
                    sock.close()
                except OSError:
                    pass
            echo_thread.join(timeout=5)
        assert out == payload
        benchmark.extra_info["payload_bytes"] = len(payload)
