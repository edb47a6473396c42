"""Cross-host sharded grid search over plain TCP sockets.

The single-host seams — picklable :class:`~repro.runtime.pool.JobChunk`
chunks, ``(seed, candidate, run)``-derived RNG streams, strict
FLOPs-order commit — make distributed execution a pure transport
problem.  This module is the one cross-host transport: a
:class:`TcpExecutor` that listens on a socket for agents
(:func:`run_tcp_agent`, ``repro cluster-agent --connect HOST:PORT``)
that dial in and claim chunks over the wire.  Hosts need to share
nothing but a network; a site whose compute nodes only share a
filesystem forwards the coordinator's port over SSH instead (see
``docs/parallel_runtime.md``).

Every message is one ``RSPL`` frame — magic, version, payload length,
SHA-256 — so it is length-prefixed and checksummed, and the payloads
are the same pickled :class:`~repro.runtime.pool.JobChunk` /
:class:`~repro.runtime.pool.ChunkResult` types a pool worker sees.  On
top of the stream, eight message kinds::

    agent -> coordinator    ("hello",  {"agent": id})
    coordinator -> agent    ("welcome", {"token", "split"})
    agent -> coordinator    ("claim",  {"agent": id})
    coordinator -> agent    ("chunk",  (cid, attempt, JobChunk))
                            | ("idle", None)
    agent -> coordinator    ("beat",   {"agent": id})      # no reply
    agent -> coordinator    ("result", (cid, attempt, ChunkResult))
    coordinator -> agent    ("ack",    None)

The robustness ladder for the partition-prone medium:

* **heartbeats** are application-level ``beat`` frames.  TCP keepalive
  is useless here — a wedged peer keeps a socket "open" for hours — so
  the coordinator judges liveness only on *frames observed*, timed on
  its **own** ``time.monotonic()``.  Remote wall clocks are never
  compared; arbitrary skew between hosts cannot cause a false (or
  missed) lease expiry;

* **leases** live in coordinator memory: a granted chunk is leased to
  the granting connection and expires after ``lease_timeout_s`` without
  a frame from it.  A connection that dies outright (EOF, reset, torn
  frame) releases its leases immediately — faster than waiting out the
  timeout — and either way the scheduler resubmits the chunk under the
  next attempt, bounded by ``settings.max_retries``;

* **per-frame timeouts**: silence *between* frames is legal (that is
  what the lease table is for), but a frame that started arriving must
  keep moving — any single read or write stalled past
  ``frame_timeout_s`` marks the connection dead.  This is what tells a
  mid-frame partition apart from an agent that is merely training;

* **reconnect** uses the shared decorrelated-jitter policy
  (:mod:`repro.runtime.backoff`): a disconnected agent redials with
  jittered, capped delays — no thundering herd when a coordinator
  restarts — and gives up after ``reconnect_timeout_s`` without a
  successful connection;

* **duplicates** are harmless: a partitioned agent whose lease was
  re-issued can reconnect and deliver its (bit-identical, because
  chunks are deterministic) result anyway; the scheduler keeps the
  first delivered copy and counts and drops later ones;

* losing **every** agent for ``agent_grace_s`` starves the executor,
  and the scheduler finishes the remaining candidates in-process.

All of the correctness machinery — speculation, packing, attempt
bounding, duplicate arbitration, cost feedback, FLOPs-order commit and
the in-process floor — is the :class:`~repro.runtime.parallel.Scheduler`'s,
shared with the pool, which is why a TCP-sharded
:class:`~repro.core.grid_search.SearchOutcome` is bit-identical to a
pooled or sequential one under any failure history.
"""

from __future__ import annotations

import hashlib
import itertools
import logging
import os
import pickle
import queue
import random
import re
import secrets
import socket
import struct
import threading
import time
from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING, Callable

from ..config import (
    TCP_AGENT_GRACE_S,
    TCP_FRAME_TIMEOUT_S,
    TCP_HEARTBEAT_S,
    TCP_LEASE_TIMEOUT_S,
    TCP_POLL_INTERVAL_S,
    TCP_RECONNECT_CAP_S,
    TCP_RECONNECT_TIMEOUT_S,
)
from ..exceptions import SearchError, TrainingCancelled
from . import faults
from .backoff import Backoff
from .parallel import Delivered, ExecutorCounters, Lost, Notice, Starved
from .pool import ChunkCostModel, ChunkResult, JobChunk, execute_chunk

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.grid_search import TrainingSettings
    from ..data.splits import DataSplit

__all__ = [
    "TcpConfig",
    "TcpExecutor",
    "AgentStats",
    "run_tcp_agent",
    "ConnectionDead",
    "TornFrameError",
]

logger = logging.getLogger("repro.runtime")

#: Upper bound on a declared frame payload.  A corrupt length field that
#: somehow carried a valid magic must not make the reader allocate (or
#: wait for) gigabytes; the largest legitimate payload is one pickled
#: DataSplit, well under this.
_MAX_FRAME_BYTES = 1 << 30

#: How often a blocked coordinator-side read wakes up to notice shutdown.
_STOP_POLL_S = 0.25


class ConnectionDead(SearchError):
    """The peer closed, reset, or stalled the connection mid-frame."""


class TornFrameError(SearchError):
    """A frame failed validation (magic, version, length or checksum)."""


_MAGIC = b"RSPL"
#: Version 2: payloads are JobChunk/ChunkResult.  A peer from an older
#: checkout fails validation instead of unpickling a missing class.
_FRAME_VERSION = 2
_HEADER = struct.Struct("<4sIQ32s")  # magic, version, payload len, sha256


def _frame(payload: bytes) -> bytes:
    return (
        _HEADER.pack(
            _MAGIC,
            _FRAME_VERSION,
            len(payload),
            hashlib.sha256(payload).digest(),
        )
        + payload
    )


def _new_owner_id() -> str:
    """``repro_<host>_<pid>_<nonce>``: one coordinator or agent identity."""
    host = re.sub(r"[^A-Za-z0-9-]", "-", socket.gethostname()) or "host"
    return f"repro_{host}_{os.getpid()}_{secrets.token_hex(3)}"


def _parse_address(address: "str | os.PathLike") -> tuple[str, int]:
    """``(host, port)`` for a ``HOST:PORT`` string (host may be empty)."""
    text = os.fspath(address)
    host, sep, port = text.rpartition(":")
    if not sep or not port.isdigit():
        raise SearchError(
            f"cluster TCP address must be HOST:PORT, got {text!r}"
        )
    return host or "127.0.0.1", int(port)


# -- socket framing ---------------------------------------------------------


def _send_frame(
    sock: socket.socket,
    payload: bytes,
    timeout_s: float,
    lock: threading.Lock,
) -> None:
    """Write one framed payload; a stalled or failed write is death.

    The lock serializes writers (an agent's heartbeat thread and its
    serve loop share one socket) so frames can never interleave
    mid-wire.
    """
    frame = _frame(payload)
    with lock:
        try:
            sock.settimeout(timeout_s)
            sock.sendall(frame)
        except OSError as error:
            raise ConnectionDead(f"send failed: {error}") from None


def _recv_exact(sock: socket.socket, n: int) -> bytes:
    buf = bytearray()
    while len(buf) < n:
        try:
            piece = sock.recv(n - len(buf))
        except socket.timeout:
            raise ConnectionDead(
                f"peer stalled mid-frame ({len(buf)}/{n} bytes)"
            ) from None
        except OSError as error:
            raise ConnectionDead(f"recv failed: {error}") from None
        if not piece:
            raise ConnectionDead("peer closed the connection mid-frame")
        buf += piece
    return bytes(buf)


def _recv_frame(
    sock: socket.socket,
    frame_timeout_s: float,
    stop: Callable[[], bool] | None = None,
) -> bytes:
    """Read and validate one frame; return its payload.

    With ``stop`` (coordinator side) the wait for the next frame to
    *start* is unbounded — inter-frame silence is legal, liveness is
    the lease table's job — polling ``stop()`` so shutdown is prompt.
    Without it (agent side, awaiting a prompt reply) the header itself
    must arrive within ``frame_timeout_s``.  Either way, once the first
    byte lands every subsequent read must progress within
    ``frame_timeout_s`` or the connection is declared dead.  A frame
    that fails validation raises
    :class:`TornFrameError` — on a byte stream
    there is no way to resync past a bad frame, so callers treat the
    connection as unusable afterwards.
    """
    sock.settimeout(_STOP_POLL_S if stop is not None else frame_timeout_s)
    while True:
        if stop is not None and stop():
            raise ConnectionDead("shutting down")
        try:
            head = sock.recv(_HEADER.size)
        except socket.timeout:
            if stop is None:
                raise ConnectionDead(
                    "timed out awaiting a frame header"
                ) from None
            continue
        except OSError as error:
            raise ConnectionDead(f"recv failed: {error}") from None
        if not head:
            raise ConnectionDead("peer closed the connection")
        break
    sock.settimeout(frame_timeout_s)
    if len(head) < _HEADER.size:
        head += _recv_exact(sock, _HEADER.size - len(head))
    magic, version, length, digest = _HEADER.unpack(head)
    if magic != _MAGIC:
        raise TornFrameError("TCP frame carries a foreign magic")
    if version != _FRAME_VERSION:
        raise TornFrameError(
            f"TCP frame version {version} != {_FRAME_VERSION}"
        )
    if length > _MAX_FRAME_BYTES:
        raise TornFrameError(
            f"TCP frame declares an absurd payload of {length} bytes"
        )
    payload = _recv_exact(sock, length)
    if hashlib.sha256(payload).digest() != digest:
        raise TornFrameError("TCP frame checksum mismatch")
    return payload


def _send_msg(
    sock: socket.socket,
    msg: tuple,
    timeout_s: float,
    lock: threading.Lock,
) -> None:
    _send_frame(
        sock,
        pickle.dumps(msg, protocol=pickle.HIGHEST_PROTOCOL),
        timeout_s,
        lock,
    )


def _recv_msg(
    sock: socket.socket,
    frame_timeout_s: float,
    stop: Callable[[], bool] | None = None,
) -> tuple:
    payload = _recv_frame(sock, frame_timeout_s, stop=stop)
    try:
        msg = pickle.loads(payload)
    except Exception as error:
        raise TornFrameError(f"undecodable TCP message: {error}") from None
    if (
        not isinstance(msg, tuple)
        or len(msg) != 2
        or not isinstance(msg[0], str)
    ):
        raise TornFrameError(
            "malformed TCP message (want a (kind, data) pair)"
        )
    return msg


# -- configuration ----------------------------------------------------------


@dataclass(frozen=True)
class TcpConfig:
    """TCP transport knobs (``address`` is ``HOST:PORT``).

    The executor binds the address (port 0 picks an ephemeral port,
    readable as ``executor.address`` after ``open()``); agents dial the
    same string.  ``cost_cache`` names an optional JSON file for the
    executor's measured-cost model, loaded when the executor is built
    and saved on close.
    """

    address: str
    lease_timeout_s: float = TCP_LEASE_TIMEOUT_S
    poll_interval_s: float = TCP_POLL_INTERVAL_S
    agent_grace_s: float = TCP_AGENT_GRACE_S
    frame_timeout_s: float = TCP_FRAME_TIMEOUT_S
    cost_cache: "str | os.PathLike | None" = None


class _Lease:
    """One granted chunk: who holds it, over which connection, since when."""

    __slots__ = ("agent", "conn_id", "attempt", "last_seen")

    def __init__(
        self, agent: str, conn_id: int, attempt: int, last_seen: float
    ) -> None:
        self.agent = agent
        self.conn_id = conn_id
        self.attempt = attempt
        self.last_seen = last_seen


# -- executor ---------------------------------------------------------------


class TcpExecutor:
    """A listening socket as an executor of the
    :class:`~repro.runtime.parallel.Scheduler`.

    Owns only the medium and its liveness: ``submit`` queues a chunk
    for the next ``claim`` (granted in submission order, which the
    scheduler already packed most-expensive-first); ``poll`` requeues
    the leases of dropped connections, expires the leases of silent
    agents, delivers received results and reports starvation once no
    agent has been live for ``agent_grace_s``.  Connection handling
    runs on daemon threads and reaches the scheduler thread through a
    lock-guarded lease table and a result queue.

    Single-writer: one listening socket, one commit stream; agents
    scale horizontally.  ``address`` holds the bound
    ``HOST:PORT`` once :meth:`open` ran (port 0 picks a free one).
    """

    def __init__(self, config: "TcpConfig | str") -> None:
        self.cfg = (
            config if isinstance(config, TcpConfig) else TcpConfig(config)
        )
        self.host, self.port = _parse_address(self.cfg.address)
        self.address = self.cfg.address
        self.token = _new_owner_id()
        self.cost_model = ChunkCostModel()
        if self.cfg.cost_cache:
            self.cost_model.load_json(self.cfg.cost_cache)
        self.counters = ExecutorCounters()
        self.capacity = 0
        self._split: "DataSplit | None" = None
        # Shared between the scheduler thread and connection-handler
        # threads, all guarded by one lock: unclaimed chunks, the lease
        # table, per-agent last-frame times, open connections and the
        # ids of connections that died since the last poll.
        self._lock = threading.Lock()
        self._pending: list[tuple[int, int, JobChunk]] = []
        self._leases: dict[int, _Lease] = {}  # cid -> lease
        self._agent_seen: dict[str, float] = {}  # agent -> monotonic
        self._agent_conns: dict[int, str] = {}  # conn_id -> agent
        self._conns: dict[int, socket.socket] = {}
        self._lost_conns: list[int] = []
        #: (cid, attempt, ChunkResult) as received.
        self._results: "queue.SimpleQueue[tuple]" = queue.SimpleQueue()
        self._conn_ids = itertools.count(1)
        self._closing = False
        self._draining = False
        self._idle_since: float | None = None
        self._server: socket.socket | None = None
        self._accept_thread: threading.Thread | None = None
        self.agents_seen: set[str] = set()
        self.connections_accepted = 0
        self.connections_lost = 0
        self.expired_leases = 0
        self.torn_frames = 0

    def memory_budget(self, settings: "TrainingSettings") -> int | None:
        # Agents do not share this host's memory, so no budget governs them.
        return None

    def stats(self) -> dict:
        """One snapshot of the executor's instrumentation counters."""
        return {
            "token": self.token,
            **asdict(self.counters),
            "cost_observations": self.cost_model.observations,
            "agents_seen": len(self.agents_seen),
            "connections_accepted": self.connections_accepted,
            "connections_lost": self.connections_lost,
            "expired_leases": self.expired_leases,
            "torn_frames": self.torn_frames,
        }

    # -- lifecycle ---------------------------------------------------------

    def open(self, split: "DataSplit", chunk_seconds=None) -> None:
        """Bind the listening socket and start accepting agents."""
        if self._server is not None:
            return
        self._split = split
        self._server = socket.create_server(
            (self.host, self.port), backlog=64
        )
        self.port = self._server.getsockname()[1]
        self.address = f"{self.host}:{self.port}"
        self._accept_thread = threading.Thread(
            target=self._accept_loop, daemon=True, name="tcp-coord-accept"
        )
        self._accept_thread.start()
        logger.info(
            "tcp coordinator %s listening on %s", self.token, self.address
        )

    def close(self) -> None:
        """Close every socket and persist the cost model."""
        if self._server is None or self._closing:
            return
        self._closing = True
        try:
            # close() alone does not wake a thread blocked in accept();
            # shutdown() does, so the join below returns at once.
            self._server.shutdown(socket.SHUT_RDWR)
        except OSError:  # pragma: no cover - platform refuses on a listener
            pass
        try:
            self._server.close()
        except OSError:  # pragma: no cover - already closed
            pass
        with self._lock:
            conns = list(self._conns.values())
            self._conns.clear()
        for conn in conns:
            try:
                conn.close()
            except OSError:  # pragma: no cover - already closed
                pass
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5.0)
        if self.cfg.cost_cache and self.cost_model.observations:
            try:
                self.cost_model.save_json(self.cfg.cost_cache)
            except OSError as error:  # pragma: no cover - cache dir gone
                logger.warning(
                    "could not save cluster cost cache %s: %s",
                    self.cfg.cost_cache,
                    error,
                )

    # -- connection handling (daemon threads) ------------------------------

    def _accept_loop(self) -> None:
        assert self._server is not None
        while not self._closing:
            try:
                conn, _addr = self._server.accept()
            except OSError:
                return  # listening socket closed: shutdown
            self.connections_accepted += 1
            conn_id = next(self._conn_ids)
            with self._lock:
                self._conns[conn_id] = conn
            threading.Thread(
                target=self._serve_conn,
                args=(conn, conn_id),
                daemon=True,
                name=f"tcp-coord-conn-{conn_id}",
            ).start()

    def _touch(self, conn_id: int, now: float) -> None:
        """Any frame from a connection proves its agent (and leases) live."""
        with self._lock:
            agent = self._agent_conns.get(conn_id)
            if agent is not None:
                self._agent_seen[agent] = now
            for lease in self._leases.values():
                if lease.conn_id == conn_id:
                    lease.last_seen = now

    def _grant(self, agent: str, conn_id: int) -> tuple | None:
        """Lease out the oldest pending chunk as ``(cid, attempt, chunk)``."""
        with self._lock:
            if self._draining or not self._pending:
                return None
            grant = self._pending.pop(0)
            self._leases[grant[0]] = _Lease(
                agent, conn_id, grant[1], time.monotonic()
            )
        return grant

    def _serve_conn(self, conn: socket.socket, conn_id: int) -> None:
        agent: str | None = None
        wlock = threading.Lock()
        timeout = self.cfg.frame_timeout_s
        try:
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            while not self._closing:
                msg = _recv_msg(
                    conn, timeout, stop=lambda: self._closing
                )
                kind, data = msg[0], msg[1]
                now = time.monotonic()
                if kind == "hello":
                    agent = str(data["agent"])
                    with self._lock:
                        self._agent_conns[conn_id] = agent
                        self._agent_seen[agent] = now
                        self.agents_seen.add(agent)
                    logger.info(
                        "agent %s connected (connection %d)",
                        agent,
                        conn_id,
                    )
                    _send_msg(
                        conn,
                        (
                            "welcome",
                            {"token": self.token, "split": self._split},
                        ),
                        timeout,
                        wlock,
                    )
                elif agent is None:
                    raise ConnectionDead(
                        f"protocol violation: {kind!r} before hello"
                    )
                elif kind == "beat":
                    self._touch(conn_id, now)
                elif kind == "claim":
                    self._touch(conn_id, now)
                    grant = self._grant(agent, conn_id)
                    reply = ("chunk", grant) if grant else ("idle", None)
                    _send_msg(conn, reply, timeout, wlock)
                elif kind == "result":
                    self._touch(conn_id, now)
                    if not (
                        isinstance(data, tuple)
                        and len(data) == 3
                        and isinstance(data[2], ChunkResult)
                    ):
                        raise TornFrameError("malformed result message")
                    cid, attempt, result = data
                    with self._lock:
                        lease = self._leases.get(cid)
                        if lease is not None and lease.conn_id == conn_id:
                            del self._leases[cid]
                    self._results.put((cid, attempt, result))
                    _send_msg(conn, ("ack", None), timeout, wlock)
                else:
                    raise ConnectionDead(
                        f"protocol violation: unknown kind {kind!r}"
                    )
        except TornFrameError as error:
            # A framing violation poisons the whole stream (no resync
            # on TCP): count it and drop the connection; the next poll
            # requeues whatever it held.
            self.torn_frames += 1
            logger.warning(
                "closing connection %d after a torn frame: %s",
                conn_id,
                error,
            )
        except ConnectionDead as error:
            logger.info("connection %d to %s died: %s", conn_id, agent, error)
        except OSError as error:  # pragma: no cover - exotic socket error
            logger.info("connection %d errored: %s", conn_id, error)
        finally:
            try:
                conn.close()
            except OSError:  # pragma: no cover - already closed
                pass
            with self._lock:
                self._conns.pop(conn_id, None)
                self._agent_conns.pop(conn_id, None)
                self._lost_conns.append(conn_id)
            self.connections_lost += 1

    # -- the executor protocol (scheduler thread) --------------------------

    def submit(self, cid: int, attempt: int, chunk: JobChunk) -> None:
        with self._lock:
            self._pending.append((cid, attempt, chunk))

    def poll(self, timeout: float) -> list:
        now = time.monotonic()
        with self._lock:
            lost = set(self._lost_conns)
            self._lost_conns.clear()
            dropped = [
                (cid, lease)
                for cid, lease in self._leases.items()
                if lease.conn_id in lost
            ]
            silent = [
                (cid, lease)
                for cid, lease in self._leases.items()
                if lease.conn_id not in lost
                and now - lease.last_seen > self.cfg.lease_timeout_s
            ]
            for cid, _lease in dropped + silent:
                del self._leases[cid]
            live = {
                agent
                for agent in set(self._agent_conns.values())
                if now - self._agent_seen.get(agent, 0.0)
                <= self.cfg.lease_timeout_s
            }
        self.capacity = len(live)
        self.expired_leases += len(silent)
        reports: list = []
        for cid, lease in dropped:
            reports.append(
                Notice(
                    "conn-lost",
                    f"the connection to agent {lease.agent} dropped while it "
                    f"held the lease for chunk {cid} (attempt "
                    f"{lease.attempt}); reclaiming",
                    (cid,),
                )
            )
            reports.append(Lost((cid,), "its connection dropped"))
        for cid, lease in silent:
            # A half-open partition: the socket looks open, no frames.
            reports.append(
                Notice(
                    "lease-expired",
                    f"lease for chunk {cid} (attempt {lease.attempt}) "
                    f"expired: agent {lease.agent} is silent or "
                    "partitioned; reclaiming",
                    (cid,),
                )
            )
            reports.append(Lost((cid,), "its lease expired"))
        while True:
            try:
                cid, _attempt, result = self._results.get_nowait()
            except queue.Empty:
                break
            with self._lock:
                # A retry of a chunk that is now delivered must not be
                # granted (or its lease reclaimed) again.
                self._pending = [p for p in self._pending if p[0] != cid]
                self._leases.pop(cid, None)
            reports.append(Delivered(cid, result))
        if live:
            self._idle_since = None
        elif self._idle_since is None:
            self._idle_since = now
        elif now - self._idle_since > self.cfg.agent_grace_s:
            reports.append(
                Notice(
                    "no-agents",
                    f"no live cluster agent for {self.cfg.agent_grace_s:.1f}s",
                )
            )
            reports.append(Starved("no live agent is connected"))
        if not reports:
            time.sleep(min(timeout, self.cfg.poll_interval_s))
        return reports

    def abort(self) -> None:
        """Withdraw ungranted work; later claims are answered ``idle``."""
        with self._lock:
            self._draining = True
            self._pending.clear()


# -- agent ------------------------------------------------------------------


@dataclass
class AgentStats:
    """What one agent serve loop did, for logs and tests.

    ``reconnects`` counts every re-dial after the first established
    connection.
    """

    agent_id: str
    chunks_done: int = 0
    cancelled: int = 0
    reconnects: int = 0
    faults_fired: list = field(default_factory=list)


class _TcpHeartbeat(threading.Thread):
    """Sends a ``beat`` frame every ``interval_s`` over the agent's socket.

    A failed beat write is the earliest proof the connection is gone
    mid-training, so it sets ``conn_dead`` — which the serve loop's
    cancellation check watches, aborting the doomed chunk at the next
    epoch boundary instead of training to completion for nobody.
    ``suspend``/``resume`` model a network partition for the
    ``partition`` fault.
    """

    def __init__(
        self,
        sock: socket.socket,
        wlock: threading.Lock,
        agent_id: str,
        interval_s: float,
        frame_timeout_s: float,
        conn_dead: threading.Event,
    ) -> None:
        super().__init__(daemon=True, name="tcp-heartbeat")
        self._sock = sock
        self._wlock = wlock
        self._payload = pickle.dumps(
            ("beat", {"agent": agent_id}),
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        self.interval_s = interval_s
        self.frame_timeout_s = frame_timeout_s
        self.conn_dead = conn_dead
        self._halt = threading.Event()  # Thread uses _stop internally
        self._suspended = threading.Event()

    def beat(self) -> None:
        try:
            _send_frame(
                self._sock, self._payload, self.frame_timeout_s, self._wlock
            )
        except (ConnectionDead, OSError):
            self.conn_dead.set()

    def run(self) -> None:
        self.beat()  # visible before the first claim
        while not self._halt.wait(self.interval_s):
            if self.conn_dead.is_set():
                return
            if not self._suspended.is_set():
                self.beat()

    def suspend(self) -> None:
        self._suspended.set()

    def resume(self) -> None:
        self._suspended.clear()
        self.beat()

    def stop(self) -> None:
        self._halt.set()
        self.join(timeout=5.0)


class _ExitServeLoop(Exception):
    """Internal: the agent hit a terminal condition (stop/max/idle)."""


def run_tcp_agent(
    address: str,
    poll_interval_s: float = TCP_POLL_INTERVAL_S,
    heartbeat_s: float = TCP_HEARTBEAT_S,
    idle_timeout_s: float | None = None,
    max_chunks: int | None = None,
    frame_timeout_s: float = TCP_FRAME_TIMEOUT_S,
    reconnect_timeout_s: float = TCP_RECONNECT_TIMEOUT_S,
    fault_dir: "str | os.PathLike | None" = None,
    stop: threading.Event | None = None,
    rng: "random.Random | None" = None,
) -> AgentStats:
    """Serve a TCP coordinator: dial, claim chunks, train, deliver.

    Runs until ``stop`` is set, ``idle_timeout_s`` passes without
    completing work, ``max_chunks`` chunks have been executed, or the
    coordinator stays unreachable for ``reconnect_timeout_s``.  A
    dropped connection is redialed with decorrelated-jitter backoff
    (:mod:`repro.runtime.backoff`; ``rng`` makes the delays
    deterministic in tests), and a chunk in flight when the connection
    died is simply abandoned — the coordinator requeues it, and chunks
    are deterministic, so the retry is bit-identical.  ``fault_dir``
    names the directory :func:`repro.runtime.faults.arm_file_fault`
    armed, for the deterministic TCP fault plans (tests only).
    """
    from ..quantum.engine import compile_cache_scope

    host, port = _parse_address(address)
    agent_id = _new_owner_id()
    stats = AgentStats(agent_id=agent_id)
    halt = stop if stop is not None else threading.Event()
    backoff = Backoff(base_s=0.05, cap_s=TCP_RECONNECT_CAP_S, rng=rng)
    logger.info("cluster agent %s dialing %s:%d", agent_id, host, port)
    last_work = [time.monotonic()]
    last_connected = time.monotonic()
    connected_before = False
    with compile_cache_scope():
        try:
            while not halt.is_set():
                if max_chunks is not None and stats.chunks_done >= max_chunks:
                    break
                if (
                    idle_timeout_s is not None
                    and time.monotonic() - last_work[0] > idle_timeout_s
                ):
                    break
                try:
                    conn = socket.create_connection(
                        (host, port), timeout=frame_timeout_s
                    )
                except OSError:
                    if (
                        time.monotonic() - last_connected
                        > reconnect_timeout_s
                    ):
                        logger.info(
                            "agent %s giving up: no coordinator at %s:%d "
                            "for %.1fs",
                            agent_id,
                            host,
                            port,
                            reconnect_timeout_s,
                        )
                        break
                    if connected_before:
                        stats.reconnects += 1
                    halt.wait(backoff.next_delay())
                    continue
                if connected_before:
                    stats.reconnects += 1
                connected_before = True
                backoff.reset()
                try:
                    _serve_connection(
                        conn,
                        agent_id,
                        stats,
                        poll_interval_s=poll_interval_s,
                        heartbeat_s=heartbeat_s,
                        frame_timeout_s=frame_timeout_s,
                        idle_timeout_s=idle_timeout_s,
                        max_chunks=max_chunks,
                        fault_dir=fault_dir,
                        halt=halt,
                        last_work=last_work,
                    )
                except _ExitServeLoop:
                    break
                except (ConnectionDead, TornFrameError, OSError) as error:
                    logger.info(
                        "agent %s lost its connection (%s); redialing",
                        agent_id,
                        error,
                    )
                finally:
                    try:
                        conn.close()
                    except OSError:  # pragma: no cover - already closed
                        pass
                last_connected = time.monotonic()
        finally:
            logger.info("cluster agent %s exiting: %s", agent_id, stats)
    return stats


def _serve_connection(
    conn: socket.socket,
    agent_id: str,
    stats: AgentStats,
    poll_interval_s: float,
    heartbeat_s: float,
    frame_timeout_s: float,
    idle_timeout_s: float | None,
    max_chunks: int | None,
    fault_dir: "str | os.PathLike | None",
    halt: threading.Event,
    last_work: list,
) -> None:
    """Serve one established connection until it dies or the agent is done.

    Raises :class:`_ExitServeLoop` for terminal conditions (stop event,
    ``max_chunks``, idle timeout) and :class:`ConnectionDead` /
    :class:`TornFrameError` when the connection
    must be redialed.
    """
    conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    wlock = threading.Lock()
    conn_dead = threading.Event()
    _send_msg(conn, ("hello", {"agent": agent_id}), frame_timeout_s, wlock)
    msg = _recv_msg(conn, frame_timeout_s)
    if msg[0] != "welcome":
        raise ConnectionDead(f"expected welcome, got {msg[0]!r}")
    split = msg[1]["split"]
    heartbeat = _TcpHeartbeat(
        conn, wlock, agent_id, heartbeat_s, frame_timeout_s, conn_dead
    )
    heartbeat.start()

    def cancelled() -> bool:
        # The coordinator abandons a search by closing the socket; the
        # heartbeat notices within one interval and this check aborts
        # the chunk at the next epoch boundary.
        return conn_dead.is_set() or halt.is_set()

    try:
        while True:
            if halt.is_set():
                raise _ExitServeLoop
            if conn_dead.is_set():
                raise ConnectionDead("heartbeat write failed")
            if max_chunks is not None and stats.chunks_done >= max_chunks:
                raise _ExitServeLoop
            if (
                idle_timeout_s is not None
                and time.monotonic() - last_work[0] > idle_timeout_s
            ):
                raise _ExitServeLoop
            _send_msg(
                conn, ("claim", {"agent": agent_id}), frame_timeout_s, wlock
            )
            msg = _recv_msg(conn, frame_timeout_s)
            if msg[0] == "idle":
                halt.wait(poll_interval_s)
                continue
            if msg[0] != "chunk":
                raise ConnectionDead(f"expected chunk, got {msg[0]!r}")
            cid, attempt, chunk = msg[1]
            plan = (
                faults.claim_file_fault(
                    fault_dir, {job.candidate_index for job in chunk.jobs}
                )
                if fault_dir is not None
                else None
            )
            drop_mid_frame = False
            stall_mid_frame_s = 0.0
            if plan is not None:
                stats.faults_fired.append(plan.kind)
                logger.warning(
                    "agent %s firing %s fault on candidate(s) %s",
                    agent_id,
                    plan.kind,
                    sorted({job.candidate_index for job in chunk.jobs}),
                )
                if plan.kind == faults.HOST_KILL:
                    # The real thing: the whole agent process disappears
                    # mid-lease, connection and all.
                    import signal

                    os.kill(os.getpid(), signal.SIGKILL)
                elif plan.kind == faults.PARTITION:
                    # Total silence — no beats, no frames — long enough
                    # for the coordinator to expire our lease and
                    # re-issue the chunk; then we "rejoin" (the socket
                    # never closed) and deliver a duplicate anyway.
                    heartbeat.suspend()
                    halt.wait(plan.delay_s)
                    heartbeat.resume()
                elif plan.kind == faults.CONN_DROP:
                    drop_mid_frame = True
                elif plan.kind == faults.SLOW_FRAME:
                    stall_mid_frame_s = plan.delay_s
            try:
                result = execute_chunk(chunk, split, cancelled)
            except TrainingCancelled:
                stats.cancelled += 1
                continue  # the dead-connection check at the loop head
            payload = pickle.dumps(
                ("result", (cid, attempt, result)),
                protocol=pickle.HIGHEST_PROTOCOL,
            )
            frame = _frame(payload)
            # Past the header, inside the payload: the coordinator must
            # be genuinely mid-frame when the fault lands.
            cut = _HEADER.size + max(1, len(payload) // 2)
            if drop_mid_frame:
                with wlock:
                    try:
                        conn.settimeout(frame_timeout_s)
                        conn.sendall(frame[:cut])
                    except OSError:
                        pass
                    conn.close()
                raise ConnectionDead("conn-drop fault: closed mid-frame")
            if stall_mid_frame_s > 0.0:
                # Holding the write lock through the stall wedges the
                # heartbeat too — the connection really is stuck.
                with wlock:
                    conn.settimeout(frame_timeout_s)
                    conn.sendall(frame[:cut])
                    halt.wait(stall_mid_frame_s)
                    try:
                        conn.sendall(frame[cut:])
                    except OSError as error:
                        raise ConnectionDead(
                            f"send failed after stall: {error}"
                        ) from None
            else:
                _send_frame(conn, payload, frame_timeout_s, wlock)
            msg = _recv_msg(conn, frame_timeout_s)
            if msg[0] != "ack":
                raise ConnectionDead(f"expected ack, got {msg[0]!r}")
            stats.chunks_done += 1
            last_work[0] = time.monotonic()
    finally:
        heartbeat.stop()
