"""The one parallel transport: a coordinator that leases chunks to agents
over TCP.

The single-host seams — picklable :class:`~repro.runtime.jobs.JobChunk`
chunks, ``(seed, candidate, run)``-derived RNG streams, strict
FLOPs-order commit — make parallel execution a pure transport problem.
This module solves it once.  A :class:`Coordinator` listens on a socket
for agents (:func:`run_tcp_agent`) that dial in and claim chunks over
the wire, and a :class:`TcpExecutor` drives one search on it for the
:class:`~repro.runtime.parallel.Scheduler`.  The agents are either the
local processes of a :class:`~repro.runtime.pool.PersistentPool`
(``--workers N``: a loopback coordinator plus N agents it starts
itself) or remote hosts (``repro cluster-agent --connect HOST:PORT``);
the wire and every liveness rule are the same.  Hosts need to share
nothing but a network; a site whose compute nodes only share a
filesystem forwards the coordinator's port over SSH instead (see
``docs/parallel_runtime.md``).

Every message is one ``RSPL`` frame — magic, version, payload length,
HMAC-SHA-256 of the payload — so it is length-prefixed and checksummed,
and the payloads are pickled ``(kind, data)`` pairs::

    agent -> coordinator    ("hello",  {"agent": id})
    coordinator -> agent    ("welcome", {"token": coordinator id})
    agent -> coordinator    ("claim",  {"agent": id})
    coordinator -> agent    ("chunk",  (wire, JobChunk, DataSplit | None))
                            | ("idle", None)
    agent -> coordinator    ("beat",   {"agent": id})      # no reply
    agent -> coordinator    ("result", (wire, ChunkResult))
                            | ("error", (wire, message))
    coordinator -> agent    ("ack",    None)
    coordinator -> agent    ("cancel", wire)                # no reply

``wire`` is the coordinator's id for one submitted attempt of a chunk.
A chunk names its dataset by the token :meth:`Coordinator.publish`
returned; the split itself rides along with the first grant of that
token on a connection, so it crosses the wire once per agent, never
once per chunk.  A ``claim`` is answered as soon as a chunk is pending,
or ``idle`` after a bounded long-poll, after which the agent claims
again at once.  Each agent reads every frame on one reader thread, so a
``cancel`` reaches a chunk mid-training and stops it at its next epoch
boundary.  A chunk that raises comes back as an ``error`` and the agent
serves on.

The frame digest is keyed by the coordinator's ``key``, and a frame
whose digest does not verify is dropped *before* its payload is
unpickled.  A :class:`~repro.runtime.pool.PersistentPool` draws a
random 32-byte key and hands it only to the agents it starts, so on a
shared host another local user who finds the loopback port can neither
run code in the coordinator nor forge results.  Until a connection's
first frame verifies, it may declare at most :data:`_HELLO_MAX_BYTES`,
so an unauthenticated peer cannot make the coordinator allocate a large
buffer either.  A ``--connect`` coordinator has no channel to hand
remote agents a key, so it runs with the empty key: its frames are
checksummed, not authenticated, and its port must be reachable only
from trusted hosts.

The robustness ladder:

* **heartbeats** are application-level ``beat`` frames.  TCP keepalive
  is useless here — a wedged peer keeps a socket "open" for hours — so
  the coordinator judges liveness only on *frames observed*, timed on
  its **own** ``time.monotonic()``.  Remote wall clocks are never
  compared; arbitrary skew between hosts cannot cause a false (or
  missed) lease expiry;

* **leases** live in coordinator memory: a granted chunk is leased to
  the granting connection and expires after ``lease_timeout_s`` without
  a frame from it.  A connection that dies outright (EOF — a killed
  agent's socket closes with it — reset, or a torn frame) releases its
  leases immediately, and either way the scheduler resubmits the chunk
  under the next attempt, bounded by ``settings.max_retries``;

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

* **late and duplicate deliveries** are harmless: a result for an
  expired or cancelled lease is acked and dropped, and should two
  copies of a chunk reach the scheduler (chunks are deterministic) it
  keeps the first and counts and drops the other;

* losing **every** agent for ``agent_grace_s`` starves the executor,
  and the scheduler finishes the remaining candidates in-process.

All of the correctness machinery — speculation, packing, attempt
bounding, chunk deadlines, duplicate arbitration, cost feedback,
FLOPs-order commit and the in-process floor — is the
:class:`~repro.runtime.parallel.Scheduler`'s, which is why a sharded
:class:`~repro.core.grid_search.SearchOutcome` is bit-identical to a
sequential one under any failure history.
"""

from __future__ import annotations

import collections
import hmac
import itertools
import logging
import math
import os
import pickle
import queue
import random
import re
import secrets
import signal
import socket
import struct
import threading
import time
import weakref
from dataclasses import asdict, dataclass, field, replace
from typing import TYPE_CHECKING, Callable

from ..config import (
    TCP_AGENT_GRACE_S,
    TCP_FRAME_TIMEOUT_S,
    TCP_HEARTBEAT_S,
    TCP_LEASE_TIMEOUT_S,
    TCP_RECONNECT_CAP_S,
    TCP_RECONNECT_TIMEOUT_S,
)
from ..exceptions import SearchError, TrainingCancelled
from . import faults
from .backoff import Backoff
from .jobs import ChunkResult, JobChunk, execute_chunk
from .parallel import (
    ChunkCostModel,
    Delivered,
    ExecutorCounters,
    Lost,
    Notice,
    Starved,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.grid_search import TrainingSettings
    from ..data.splits import DataSplit

__all__ = [
    "TcpConfig",
    "Coordinator",
    "TcpExecutor",
    "AgentStats",
    "run_tcp_agent",
    "ConnectionDead",
    "TornFrameError",
    "LeaseLost",
    "ChunkFailed",
]

logger = logging.getLogger("repro.runtime")

#: Upper bound on a declared frame payload.  A corrupt length field that
#: somehow carried a valid magic must not make the reader allocate (or
#: wait for) gigabytes; the largest legitimate payload is one grant
#: carrying a pickled DataSplit, well under this.
_MAX_FRAME_BYTES = 1 << 30

#: Upper bound on a frame declared before the peer has proven its key
#: (a ``hello`` is a few dozen bytes).
_HELLO_MAX_BYTES = 1 << 12

#: How often a blocked read wakes up to notice shutdown.
_STOP_POLL_S = 0.25

#: The longest a ``claim`` waits for work before it is answered
#: ``idle``: long enough that an idle agent costs a frame a second, short
#: enough that a silent connection is noticed between claims.
_CLAIM_WAIT_S = 1.0


class ConnectionDead(SearchError):
    """The peer closed, reset, or stalled the connection mid-frame."""


class TornFrameError(SearchError):
    """A frame failed validation (magic, version, length or checksum)."""


class LeaseLost(SearchError):
    """A granted chunk's agent went away before it delivered.

    ``kind`` is ``"conn-lost"`` (the connection died) or
    ``"lease-expired"`` (no frame from the agent for the lease timeout).
    """

    def __init__(self, kind: str, agent: str | None) -> None:
        super().__init__(f"{kind}: agent {agent}")
        self.kind = kind
        self.agent = agent


class ChunkFailed(SearchError):
    """An agent's chunk runner raised; the agent itself serves on."""


_MAGIC = b"RSPL"
#: Version 3: grants carry a wire id and the split on first use, and
#: ``cancel``/``error`` exist.  A peer from an older checkout fails
#: validation instead of misreading a message.
_FRAME_VERSION = 3
_HEADER = struct.Struct("<4sIQ32s")  # magic, version, payload len, mac


def _digest(payload: bytes, key: bytes) -> bytes:
    """HMAC-SHA-256 of ``payload`` under ``key`` (a checksum that
    authenticates nothing when ``key`` is empty)."""
    return hmac.digest(key, payload, "sha256")


def _header(payload: bytes, key: bytes = b"") -> bytes:
    return _HEADER.pack(
        _MAGIC, _FRAME_VERSION, len(payload), _digest(payload, key)
    )


def _frame(payload: bytes, key: bytes = b"") -> bytes:
    return _header(payload, key) + payload


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
    key: bytes = b"",
) -> None:
    """Write one framed payload; a stalled or failed write is death.

    The lock serializes writers (an agent's heartbeat thread and its
    serve loop share one socket, as do a coordinator's connection thread
    and a ``cancel``) so frames can never interleave mid-wire.
    """
    header = _header(payload, key)
    with lock:
        try:
            sock.settimeout(timeout_s)
            # Two writes instead of one concatenated frame: a grant that
            # carries a split is not copied once more to be sent.
            sock.sendall(header)
            sock.sendall(payload)
        except OSError as error:
            raise ConnectionDead(f"send failed: {error}") from None


def _recv_exact(sock: socket.socket, n: int) -> bytearray:
    """Read exactly ``n`` bytes into one buffer (no per-piece copies)."""
    buf = bytearray(n)
    view = memoryview(buf)
    got = 0
    while got < n:
        try:
            count = sock.recv_into(view[got:])
        except socket.timeout:
            raise ConnectionDead(
                f"peer stalled mid-frame ({got}/{n} bytes)"
            ) from None
        except OSError as error:
            raise ConnectionDead(f"recv failed: {error}") from None
        if not count:
            raise ConnectionDead("peer closed the connection mid-frame")
        got += count
    return buf


def _recv_frame(
    sock: socket.socket,
    frame_timeout_s: float,
    stop: Callable[[], bool] | None = None,
    key: bytes = b"",
    max_bytes: int = _MAX_FRAME_BYTES,
) -> bytearray:
    """Read and validate one frame; return its payload.

    With ``stop`` (the reader thread of either end) the wait for the
    next frame to *start* is unbounded — inter-frame silence is legal,
    liveness is the lease table's job — polling ``stop()`` so shutdown
    is prompt.  Without it (an agent awaiting its welcome) the header
    itself must arrive within ``frame_timeout_s``.  Either way, once the first
    byte lands every subsequent read must progress within
    ``frame_timeout_s`` or the connection is declared dead.  A frame
    that fails validation — one longer than ``max_bytes``, or whose
    digest does not verify under ``key`` — raises
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
    if length > max_bytes:
        raise TornFrameError(
            f"TCP frame declares a payload of {length} bytes "
            f"(at most {max_bytes} allowed here)"
        )
    payload = _recv_exact(sock, length)
    if not hmac.compare_digest(_digest(payload, key), digest):
        raise TornFrameError("TCP frame checksum mismatch")
    return payload


def _send_msg(
    sock: socket.socket,
    msg: tuple,
    timeout_s: float,
    lock: threading.Lock,
    key: bytes = b"",
) -> None:
    _send_frame(
        sock,
        pickle.dumps(msg, protocol=pickle.HIGHEST_PROTOCOL),
        timeout_s,
        lock,
        key,
    )


def _recv_msg(
    sock: socket.socket,
    frame_timeout_s: float,
    stop: Callable[[], bool] | None = None,
    key: bytes = b"",
    max_bytes: int = _MAX_FRAME_BYTES,
) -> tuple:
    # The digest is verified before anything is unpickled.
    payload = _recv_frame(
        sock, frame_timeout_s, stop=stop, key=key, max_bytes=max_bytes
    )
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

    The coordinator binds the address (port 0 picks an ephemeral port,
    readable as ``coordinator.address`` once it listens); agents dial
    the same string.
    """

    address: str
    lease_timeout_s: float = TCP_LEASE_TIMEOUT_S
    agent_grace_s: float = TCP_AGENT_GRACE_S
    frame_timeout_s: float = TCP_FRAME_TIMEOUT_S


@dataclass
class _Dispatch:
    """One submitted attempt of a chunk: pending until granted, then
    leased to one connection until it delivers, dies or goes silent."""

    chunk: JobChunk
    callback: Callable[[ChunkResult], None]
    error_callback: Callable[[Exception], None]
    conn_id: int | None = None
    agent: str | None = None
    last_seen: float = 0.0


@dataclass
class _Conn:
    """One agent connection: its socket, write lock and the split token
    whose split it last received."""

    sock: socket.socket
    wlock: threading.Lock = field(default_factory=threading.Lock)
    agent: str | None = None
    split_token: str | None = None


# -- coordinator ------------------------------------------------------------


class Coordinator:
    """A listening socket that leases chunks to the agents dialing it.

    :meth:`submit` follows the ``apply_async`` contract: a submitted
    chunk ends in ``callback(ChunkResult)`` once an agent delivers it,
    or in ``error_callback(error)`` — :class:`LeaseLost` when its agent
    went away, :class:`ChunkFailed` when its runner raised — unless
    :meth:`cancel` withdrew it first.  Chunks are granted in submission
    order.  Connection handling runs on daemon threads; callbacks run on
    them too (or, for lease expiry, on the thread calling
    :meth:`expire_leases`).

    A coordinator outlives searches: ``publish``/``submit``/``cancel``
    serve one search after another while agents stay connected.  It owns
    the measured-cost model the scheduler packs by; with ``cost_cache``
    the model is loaded at construction and saved on :meth:`close`,
    under ``cost_identity`` (see
    :class:`~repro.runtime.parallel.ChunkCostModel`).  ``key`` signs
    every frame both ways; a peer that does not hold it is dropped
    before any of its frames is unpickled.  Nothing binds until
    :meth:`listen`.
    """

    #: Agents this coordinator starts itself (see PersistentPool); a
    #: plain coordinator only serves agents that dial in.
    workers = 0

    def __init__(
        self,
        config: "TcpConfig | str",
        cost_cache: "str | os.PathLike | None" = None,
        cost_identity: str | None = None,
        key: bytes = b"",
    ) -> None:
        self.cfg = (
            config if isinstance(config, TcpConfig) else TcpConfig(config)
        )
        self.host, self.port = _parse_address(self.cfg.address)
        self.address = self.cfg.address
        self.token = _new_owner_id()
        self.key = key
        self.cost_cache = cost_cache
        self.cost_model = ChunkCostModel(identity=cost_identity)
        if cost_cache:
            self.cost_model.load_json(cost_cache)
        self.counters = ExecutorCounters()
        self.searches_started = 0
        # Shared between callers and connection threads, all guarded by
        # one lock (``_work`` waits on it): pending and leased dispatches
        # by wire id, the pending order, open connections and the last
        # frame time of each agent.
        self._lock = threading.Lock()
        self._work = threading.Condition(self._lock)
        self._dispatches: dict[int, _Dispatch] = {}
        self._pending: collections.deque[int] = collections.deque()
        self._conns: dict[int, _Conn] = {}
        self._agent_seen: dict[str, float] = {}
        self._splits: dict[str, weakref.ref] = {}
        self._wires = itertools.count(1)
        self._conn_ids = itertools.count(1)
        self._split_ids = itertools.count(1)
        self._closed = False
        self._server: socket.socket | None = None
        self._accept_thread: threading.Thread | None = None
        self.agents_seen: set[str] = set()
        self.connections_accepted = 0
        self.connections_lost = 0
        self.expired_leases = 0
        self.torn_frames = 0

    def memory_budget(self, settings: "TrainingSettings") -> int | None:
        # Remote agents do not share this host's memory: no budget.
        return None

    def stats(self) -> dict:
        """One snapshot of the coordinator's instrumentation counters."""
        return {
            "token": self.token,
            "workers": self.workers,
            "searches_started": self.searches_started,
            **asdict(self.counters),
            "cost_observations": self.cost_model.observations,
            "agents_seen": len(self.agents_seen),
            "connections_accepted": self.connections_accepted,
            "connections_lost": self.connections_lost,
            "expired_leases": self.expired_leases,
            "torn_frames": self.torn_frames,
        }

    # -- lifecycle ---------------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._closed

    def listen(self) -> None:
        """Bind the listening socket and start accepting agents (once)."""
        if self._closed:
            raise SearchError(f"{type(self).__name__} is closed")
        if self._server is not None:
            return
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
        """Close every socket and persist the cost model (idempotent)."""
        if self._closed:
            return
        with self._work:
            self._closed = True
            self._work.notify_all()  # end every claim's long-poll
            conns = list(self._conns.values())
            self._conns.clear()
        if self._server is not None:
            try:
                # close() alone does not wake a thread blocked in
                # accept(); shutdown() does, so the join returns at once.
                self._server.shutdown(socket.SHUT_RDWR)
            except OSError:  # pragma: no cover - platform refuses on a listener
                pass
            self._server.close()
        for conn in conns:
            try:
                conn.sock.close()
            except OSError:  # pragma: no cover - already closed
                pass
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5.0)
        if self.cost_cache and self.cost_model.observations:
            try:
                self.cost_model.save_json(self.cost_cache)
            except OSError as error:
                logger.warning(
                    "could not save cost cache %s: %s", self.cost_cache, error
                )

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- what a search calls -----------------------------------------------

    def publish(self, split: "DataSplit") -> str:
        """The token chunks name ``split`` by (one per split object).

        Only a weak reference is kept: a split reaches agents while some
        search holds it, and a token outlives nothing else.
        """
        with self._lock:
            for token, ref in list(self._splits.items()):
                held = ref()
                if held is split:
                    return token
                if held is None:
                    del self._splits[token]
            token = f"{self.token}-{next(self._split_ids)}"
            self._splits[token] = weakref.ref(split)
        return token

    def submit(self, chunk: JobChunk, callback, error_callback) -> int:
        """Queue ``chunk`` (its ``split`` a :meth:`publish` token) for
        the next claim; returns its wire id."""
        with self._work:
            wire = next(self._wires)
            self._dispatches[wire] = _Dispatch(chunk, callback, error_callback)
            self._pending.append(wire)
            self._work.notify()
        return wire

    def cancel(self, wire: int) -> None:
        """Withdraw a pending chunk, or tell its agent to stop it at the
        next epoch boundary; its callbacks never fire."""
        with self._lock:
            dispatch = self._dispatches.pop(wire, None)
            if dispatch is None:
                return
            if dispatch.conn_id is None:
                self._pending.remove(wire)
                return
            conn = self._conns.get(dispatch.conn_id)
        if conn is not None:
            try:
                _send_msg(
                    conn.sock, ("cancel", wire), self.cfg.frame_timeout_s,
                    conn.wlock, self.key,
                )
            except ConnectionDead:
                pass  # the connection thread reports the death

    def expire_leases(self, now: float) -> float:
        """Fail every lease whose agent was silent past the lease
        timeout; return when the next one would expire (``inf`` if no
        chunk is leased)."""
        timeout = self.cfg.lease_timeout_s
        with self._lock:
            expired = [
                (wire, d)
                for wire, d in self._dispatches.items()
                if d.conn_id is not None and now - d.last_seen > timeout
            ]
            for wire, _dispatch in expired:
                del self._dispatches[wire]
            next_expiry = min(
                (
                    d.last_seen + timeout
                    for d in self._dispatches.values()
                    if d.conn_id is not None
                ),
                default=math.inf,
            )
        self.expired_leases += len(expired)
        for _wire, dispatch in expired:
            # A half-open partition: the socket looks open, no frames.
            dispatch.error_callback(LeaseLost("lease-expired", dispatch.agent))
        return next_expiry

    def live_agents(self, now: float) -> int:
        """Connected agents heard from within the lease timeout."""
        with self._lock:
            return sum(
                1
                for agent in {c.agent for c in self._conns.values()}
                if agent is not None
                and now - self._agent_seen.get(agent, -math.inf)
                <= self.cfg.lease_timeout_s
            )

    # -- connection handling (daemon threads) ------------------------------

    def _accept_loop(self) -> None:
        assert self._server is not None
        while not self._closed:
            try:
                sock, _addr = self._server.accept()
            except OSError:
                return  # listening socket closed: shutdown
            self.connections_accepted += 1
            conn_id = next(self._conn_ids)
            with self._lock:
                if self._closed:
                    sock.close()
                    return
                self._conns[conn_id] = _Conn(sock)
            threading.Thread(
                target=self._serve_conn,
                args=(conn_id,),
                daemon=True,
                name=f"tcp-coord-conn-{conn_id}",
            ).start()

    def _touch(self, conn_id: int, agent: str) -> None:
        """Any frame from a connection proves its agent (and leases) live."""
        now = time.monotonic()
        with self._lock:
            self._agent_seen[agent] = now
            for dispatch in self._dispatches.values():
                if dispatch.conn_id == conn_id:
                    dispatch.last_seen = now

    def _grant(self, conn_id: int, agent: str):
        """Lease the oldest pending chunk as ``(wire, chunk, split)``,
        waiting up to :data:`_CLAIM_WAIT_S` for one; ``split`` is the
        chunk's dataset when this connection has not received it yet.
        ``None`` when nothing came."""
        deadline = time.monotonic() + _CLAIM_WAIT_S
        with self._work:
            while not self._pending and not self._closed:
                remaining = deadline - time.monotonic()
                if remaining <= 0.0:
                    return None
                self._work.wait(remaining)
            conn = self._conns.get(conn_id)
            if self._closed or conn is None:
                return None
            wire = self._pending.popleft()
            dispatch = self._dispatches[wire]
            dispatch.conn_id, dispatch.agent = conn_id, agent
            dispatch.last_seen = time.monotonic()
            token = dispatch.chunk.split
            split = None
            if conn.split_token != token:
                ref = self._splits.get(token)
                split = ref() if ref is not None else None
                conn.split_token = token
        return wire, dispatch.chunk, split

    def _finish(self, wire: int) -> "_Dispatch | None":
        """Take a delivered (or failed) chunk out of the table."""
        with self._lock:
            return self._dispatches.pop(wire, None)

    def _serve_conn(self, conn_id: int) -> None:
        with self._lock:
            conn = self._conns.get(conn_id)
        if conn is None:
            return  # closed before this thread started
        sock, wlock = conn.sock, conn.wlock
        agent: str | None = None
        timeout, key = self.cfg.frame_timeout_s, self.key
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            while not self._closed:
                kind, data = _recv_msg(
                    sock,
                    timeout,
                    stop=lambda: self._closed,
                    key=key,
                    max_bytes=(
                        _HELLO_MAX_BYTES if agent is None else _MAX_FRAME_BYTES
                    ),
                )
                if kind == "hello":
                    agent = str(data["agent"])
                    with self._lock:
                        conn.agent = agent
                        self.agents_seen.add(agent)
                    self._touch(conn_id, agent)
                    logger.info(
                        "agent %s connected (connection %d)", agent, conn_id
                    )
                    _send_msg(
                        sock,
                        ("welcome", {"token": self.token}),
                        timeout,
                        wlock,
                        key,
                    )
                elif agent is None:
                    raise ConnectionDead(
                        f"protocol violation: {kind!r} before hello"
                    )
                elif kind == "beat":
                    self._touch(conn_id, agent)
                elif kind == "claim":
                    self._touch(conn_id, agent)
                    grant = self._grant(conn_id, agent)
                    reply = ("chunk", grant) if grant else ("idle", None)
                    _send_msg(sock, reply, timeout, wlock, key)
                    self._touch(conn_id, agent)
                elif kind in ("result", "error"):
                    self._touch(conn_id, agent)
                    expected = ChunkResult if kind == "result" else str
                    if not (
                        isinstance(data, tuple)
                        and len(data) == 2
                        and isinstance(data[1], expected)
                    ):
                        raise TornFrameError(f"malformed {kind} message")
                    wire, payload = data
                    dispatch = self._finish(wire)
                    _send_msg(sock, ("ack", None), timeout, wlock, key)
                    # A late copy (its lease expired, or it was
                    # cancelled) finds no dispatch and is dropped.
                    if dispatch is None:
                        continue
                    if kind == "result":
                        dispatch.callback(payload)
                    else:
                        dispatch.error_callback(
                            ChunkFailed(f"agent {agent}: {payload}")
                        )
                else:
                    raise ConnectionDead(
                        f"protocol violation: unknown kind {kind!r}"
                    )
        except TornFrameError as error:
            # A framing violation poisons the whole stream (no resync
            # on TCP): count it and drop the connection, releasing
            # whatever it held.
            self.torn_frames += 1
            logger.warning(
                "closing connection %d after a torn frame: %s", conn_id, error
            )
        except ConnectionDead as error:
            logger.info("connection %d to %s died: %s", conn_id, agent, error)
        except OSError as error:  # pragma: no cover - exotic socket error
            logger.info("connection %d errored: %s", conn_id, error)
        finally:
            try:
                sock.close()
            except OSError:  # pragma: no cover - already closed
                pass
            with self._lock:
                self._conns.pop(conn_id, None)
                dropped = [
                    (wire, d)
                    for wire, d in self._dispatches.items()
                    if d.conn_id == conn_id
                ]
                for wire, _dispatch in dropped:
                    del self._dispatches[wire]
            self.connections_lost += 1
            for _wire, dispatch in dropped:
                dispatch.error_callback(LeaseLost("conn-lost", agent))


# -- the scheduler's executor -----------------------------------------------


class TcpExecutor:
    """One search of the :class:`~repro.runtime.parallel.Scheduler` on a
    :class:`Coordinator`.

    The executor borrows ``coordinator`` — a
    :class:`~repro.runtime.pool.PersistentPool`, or one a caller keeps
    across searches — and never closes it.  :meth:`poll`
    blocks on the coordinator's callbacks (deliveries, chunk errors,
    lost leases), waking early only to expire leases on time, and
    reports starvation once no agent has been live for
    ``agent_grace_s``.  ``capacity`` is the coordinator's local agent
    count, or else its live agents at the last poll.
    """

    def __init__(self, coordinator: Coordinator) -> None:
        self.coordinator = coordinator
        self.cost_model = self.coordinator.cost_model
        self.counters = self.coordinator.counters
        self.capacity = self.coordinator.workers
        self._token: str | None = None
        #: cid -> (wire id, attempt) of its outstanding submission.
        self._live: dict[int, tuple[int, int]] = {}
        #: (cid, [wire id], result, error) from the coordinator's
        #: callbacks; the wire id is filled once submit returns.
        self._completions: "queue.SimpleQueue[tuple]" = queue.SimpleQueue()
        self._idle_since: float | None = None

    @property
    def address(self) -> str:
        return self.coordinator.address

    def memory_budget(self, settings: "TrainingSettings") -> int | None:
        return self.coordinator.memory_budget(settings)

    def stats(self) -> dict:
        return self.coordinator.stats()

    def open(self, split: "DataSplit") -> None:
        if self._token is not None:
            return
        self.coordinator.listen()
        self._token = self.coordinator.publish(split)
        self.coordinator.searches_started += 1

    def submit(self, cid: int, attempt: int, chunk: JobChunk) -> None:
        wire: list[int] = []
        put = self._completions.put
        wire.append(
            self.coordinator.submit(
                replace(chunk, split=self._token),
                lambda result: put((cid, wire, result, None)),
                lambda error: put((cid, wire, None, error)),
            )
        )
        self._live[cid] = (wire[0], attempt)

    def cancel(self, cid: int) -> None:
        live = self._live.pop(cid, None)
        if live is not None:
            self.coordinator.cancel(live[0])

    def abort(self) -> None:
        for cid in list(self._live):
            self.cancel(cid)

    def close(self) -> None:
        """End the search: withdraw or cancel what is still out."""
        self.abort()

    def poll(self, timeout: float) -> list:
        now = time.monotonic()
        # A chunk granted while this poll waits expires a full lease
        # timeout after the grant at the earliest: waking at least that
        # often checks every lease on time.
        lease_timeout = self.coordinator.cfg.lease_timeout_s
        wake = min(
            now + min(timeout, lease_timeout),
            self.coordinator.expire_leases(now),
        )
        live = self.coordinator.live_agents(now)
        if not self.coordinator.workers:
            self.capacity = live
        reports: list = []
        if live:
            self._idle_since = None
        elif self._idle_since is None:
            self._idle_since = now
        grace = self.coordinator.cfg.agent_grace_s
        if self._idle_since is not None:
            if now - self._idle_since > grace:
                reports.append(
                    Notice("no-agents", f"no live cluster agent for {grace:.1f}s")
                )
                reports.append(Starved("no live agent is connected"))
            wake = min(wake, self._idle_since + grace)
        items = []
        if not reports:
            try:
                items.append(
                    self._completions.get(timeout=max(0.0, wake - now))
                )
            except queue.Empty:
                pass
        while True:
            try:
                items.append(self._completions.get_nowait())
            except queue.Empty:
                break
        for cid, wire, result, error in items:
            reports.extend(self._report(cid, wire[0], result, error))
        return reports

    def _report(self, cid: int, wire: int, result, error) -> list:
        live = self._live.get(cid)
        current = live is not None and live[0] == wire
        if error is None:
            # Any copy of a chunk is the chunk (they are deterministic);
            # an outstanding retry of it is now pointless.
            if live is not None:
                del self._live[cid]
                if not current:
                    self.coordinator.cancel(live[0])
            return [Delivered(cid, result)]
        if not current:
            return []  # a superseded attempt's failure
        del self._live[cid]
        attempt = live[1]
        if isinstance(error, LeaseLost) and error.kind == "conn-lost":
            return [
                Notice(
                    "conn-lost",
                    f"the connection to agent {error.agent} dropped while it "
                    f"held the lease for chunk {cid} (attempt {attempt}); "
                    "reclaiming",
                    (cid,),
                ),
                Lost((cid,), "its connection dropped"),
            ]
        if isinstance(error, LeaseLost):
            return [
                Notice(
                    "lease-expired",
                    f"lease for chunk {cid} (attempt {attempt}) expired: agent "
                    f"{error.agent} is silent or partitioned; reclaiming",
                    (cid,),
                ),
                Lost((cid,), "its lease expired"),
            ]
        return [
            Lost(
                (cid,),
                f"chunk {cid} (attempt {attempt}) failed on its agent "
                f"({error})",
                error=error,
            )
        ]


# -- agent ------------------------------------------------------------------


@dataclass
class AgentStats:
    """What one agent serve loop did, for logs and tests.

    ``reconnects`` counts every re-dial after the first established
    connection; ``cancelled`` counts chunks stopped by a ``cancel`` (or
    a dead connection), ``chunk_errors`` chunks whose runner raised.
    """

    agent_id: str
    chunks_done: int = 0
    cancelled: int = 0
    chunk_errors: int = 0
    reconnects: int = 0
    faults_fired: list = field(default_factory=list)


class _TcpHeartbeat(threading.Thread):
    """Sends a ``beat`` frame every ``interval_s`` over the agent's socket.

    A failed beat write proves the connection is gone mid-training (as
    does EOF on the reader thread), so it sets ``conn_dead`` — which the
    serve loop's cancellation check watches, aborting the doomed chunk
    at the next epoch boundary instead of training to completion for
    nobody.
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
        key: bytes,
    ) -> None:
        super().__init__(daemon=True, name="tcp-heartbeat")
        self._sock = sock
        self._wlock = wlock
        self._payload = pickle.dumps(
            ("beat", {"agent": agent_id}),
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        self.key = key
        self.interval_s = interval_s
        self.frame_timeout_s = frame_timeout_s
        self.conn_dead = conn_dead
        self._halt = threading.Event()  # Thread uses _stop internally
        self._suspended = threading.Event()

    def beat(self) -> None:
        try:
            _send_frame(
                self._sock,
                self._payload,
                self.frame_timeout_s,
                self._wlock,
                self.key,
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
    heartbeat_s: float = TCP_HEARTBEAT_S,
    idle_timeout_s: float | None = None,
    max_chunks: int | None = None,
    frame_timeout_s: float = TCP_FRAME_TIMEOUT_S,
    reconnect_timeout_s: float = TCP_RECONNECT_TIMEOUT_S,
    fault_dir: "str | os.PathLike | None" = None,
    stop: threading.Event | None = None,
    rng: "random.Random | None" = None,
    key: bytes = b"",
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
    armed, for the deterministic fault plans (tests only).  ``key`` is
    the coordinator's frame key (see :class:`Coordinator`).
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
                        heartbeat_s=heartbeat_s,
                        frame_timeout_s=frame_timeout_s,
                        idle_timeout_s=idle_timeout_s,
                        max_chunks=max_chunks,
                        fault_dir=fault_dir,
                        halt=halt,
                        last_work=last_work,
                        key=key,
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


def _read_frames(
    conn: socket.socket,
    frame_timeout_s: float,
    replies: "queue.SimpleQueue",
    cancelled: set,
    conn_dead: threading.Event,
    done: threading.Event,
    key: bytes,
) -> None:
    """The agent's one reader: ``cancel`` frames mark their chunk,
    every other frame is a reply for the serve loop.  A dead or torn
    stream ends the connection: the error is handed to the serve loop
    and ``conn_dead`` stops the chunk in training."""
    try:
        while True:
            kind, data = _recv_msg(
                conn, frame_timeout_s, stop=done.is_set, key=key
            )
            if kind == "cancel":
                cancelled.add(data)
            else:
                replies.put((kind, data))
    except (ConnectionDead, TornFrameError) as error:
        conn_dead.set()
        replies.put(error)


def _serve_connection(
    conn: socket.socket,
    agent_id: str,
    stats: AgentStats,
    heartbeat_s: float,
    frame_timeout_s: float,
    idle_timeout_s: float | None,
    max_chunks: int | None,
    fault_dir: "str | os.PathLike | None",
    halt: threading.Event,
    last_work: list,
    key: bytes,
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
    done = threading.Event()
    _send_msg(
        conn, ("hello", {"agent": agent_id}), frame_timeout_s, wlock, key
    )
    msg = _recv_msg(conn, frame_timeout_s, key=key)
    if msg[0] != "welcome":
        raise ConnectionDead(f"expected welcome, got {msg[0]!r}")
    replies: "queue.SimpleQueue" = queue.SimpleQueue()
    cancelled: set[int] = set()
    reader = threading.Thread(
        target=_read_frames,
        args=(conn, frame_timeout_s, replies, cancelled, conn_dead, done, key),
        daemon=True,
        name="tcp-agent-reader",
    )
    heartbeat = _TcpHeartbeat(
        conn, wlock, agent_id, heartbeat_s, frame_timeout_s, conn_dead, key
    )
    reader.start()
    heartbeat.start()

    def reply(*kinds: str) -> tuple:
        try:
            msg = replies.get(timeout=frame_timeout_s + _CLAIM_WAIT_S)
        except queue.Empty:
            raise ConnectionDead("timed out awaiting a reply") from None
        if isinstance(msg, Exception):
            raise msg
        if msg[0] not in kinds:
            raise ConnectionDead(f"expected {'/'.join(kinds)}, got {msg[0]!r}")
        return msg

    def send(msg: tuple) -> None:
        _send_msg(conn, msg, frame_timeout_s, wlock, key)

    held: tuple | None = None  # (token, DataSplit) last received
    try:
        while True:
            if halt.is_set():
                raise _ExitServeLoop
            if conn_dead.is_set():
                raise ConnectionDead("the connection died")
            if max_chunks is not None and stats.chunks_done >= max_chunks:
                raise _ExitServeLoop
            if (
                idle_timeout_s is not None
                and time.monotonic() - last_work[0] > idle_timeout_s
            ):
                raise _ExitServeLoop
            send(("claim", {"agent": agent_id}))
            kind, grant = reply("chunk", "idle")
            if kind == "idle":
                continue
            wire, chunk, split = grant
            if split is not None:
                held = (chunk.split, split)
            if held is None or held[0] != chunk.split:
                raise ConnectionDead(
                    f"granted a chunk of split {chunk.split!r} never sent"
                )
            candidates = {job.candidate_index for job in chunk.jobs}
            plan = (
                faults.claim_file_fault(fault_dir, candidates)
                if fault_dir is not None
                else None
            )
            fired = plan.kind if plan is not None else None
            if plan is not None:
                stats.faults_fired.append(plan.kind)
                logger.warning(
                    "agent %s firing %s fault on candidate(s) %s",
                    agent_id,
                    plan.kind,
                    sorted(candidates),
                )
                if fired in (faults.KILL, faults.HOST_KILL):
                    # The real thing: the whole agent process disappears
                    # mid-lease, connection and all — exactly what the
                    # OOM killer does.
                    os.kill(os.getpid(), signal.SIGKILL)
                elif fired == faults.DELAY:
                    halt.wait(plan.delay_s)
                elif fired == faults.PARTITION:
                    # Total silence — no beats, no frames — long enough
                    # for the coordinator to expire our lease and
                    # re-issue the chunk; then we "rejoin" (the socket
                    # never closed) and deliver a late copy anyway.
                    heartbeat.suspend()
                    halt.wait(plan.delay_s)
                    heartbeat.resume()

            def is_cancelled() -> bool:
                return wire in cancelled or conn_dead.is_set() or halt.is_set()

            try:
                if fired == faults.ERROR:
                    raise RuntimeError("injected chunk-runner failure")
                # An armed "oom" fault is raised by the chunk's first
                # recoverable attempt, so it engages the degradation
                # ladder rather than the retry machinery.
                result = execute_chunk(
                    chunk, held[1], is_cancelled, inject=[fired == faults.OOM]
                )
            except TrainingCancelled:
                stats.cancelled += 1
                cancelled.discard(wire)
                continue  # the dead-connection check at the loop head
            except Exception as error:  # noqa: BLE001 - reported, not fatal
                stats.chunk_errors += 1
                logger.warning(
                    "agent %s: chunk %d raised %r", agent_id, wire, error
                )
                send(("error", (wire, f"{type(error).__name__}: {error}")))
                reply("ack")
                continue
            _deliver(
                conn, wlock, frame_timeout_s, key, wire, result, fired, plan,
                halt,
            )
            reply("ack")
            stats.chunks_done += 1
            last_work[0] = time.monotonic()
    finally:
        done.set()
        heartbeat.stop()


def _deliver(
    conn, wlock, frame_timeout_s, key, wire, result, fired, plan, halt
):
    """Send a result frame, torn or stalled mid-frame when a
    ``conn-drop``/``slow-frame`` fault fired."""
    payload = pickle.dumps(
        ("result", (wire, result)), protocol=pickle.HIGHEST_PROTOCOL
    )
    if fired not in (faults.CONN_DROP, faults.SLOW_FRAME):
        _send_frame(conn, payload, frame_timeout_s, wlock, key)
        return
    frame = _frame(payload, key)
    # Past the header, inside the payload: the coordinator must be
    # genuinely mid-frame when the fault lands.
    cut = _HEADER.size + max(1, len(payload) // 2)
    if fired == faults.CONN_DROP:
        with wlock:
            try:
                conn.settimeout(frame_timeout_s)
                conn.sendall(frame[:cut])
            except OSError:
                pass
            conn.close()
        raise ConnectionDead("conn-drop fault: closed mid-frame")
    # Holding the write lock through the stall wedges the heartbeat
    # too — the connection really is stuck.
    with wlock:
        conn.settimeout(frame_timeout_s)
        conn.sendall(frame[:cut])
        halt.wait(plan.delay_s)
        try:
            conn.sendall(frame[cut:])
        except OSError as error:
            raise ConnectionDead(f"send failed after stall: {error}") from None
