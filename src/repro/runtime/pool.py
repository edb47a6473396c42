"""The persistent local pool: a loopback coordinator and its own agents.

A protocol run is many grid searches back to back (one per level x
experiment).  :class:`PersistentPool` is created **once per protocol
run** (or once per CLI invocation) and reused by every search, so agent
start-up is paid once, and each agent's compiled-tape cache stays warm
between searches over the same circuit structures.

The pool is a :class:`~repro.runtime.cluster_tcp.Coordinator` bound to
``127.0.0.1`` plus ``workers`` :func:`~repro.runtime.cluster_tcp.run_tcp_agent`
processes it starts itself, so a pooled search runs on the same
executor, wire protocol and liveness rules as one sharded across hosts:

* nothing starts until the pool first listens (a search's first use);
  the driver then forks its **zygote** — once per process, before any
  coordinator thread exists — and the coordinator listens on an
  ephemeral loopback port.  Agents are forked from the zygote at each
  submit that finds a slot empty, so they start with numpy and the
  repro stack already imported and never re-import ``__main__``;
* the pool draws a random frame key and hands it only to its own
  agents, so another local user who finds the port is dropped before
  anything it sends is unpickled;
* a split is published once per split object
  (:meth:`PersistentPool.publish`) and reaches each agent once, with its
  first chunk;
* an agent that exits — killed, out of memory — drops its connection,
  which requeues its chunk at once, and is replaced at the next submit;
* :meth:`PersistentPool.close` kills and reaps every agent, then closes
  the coordinator.

The zygote is single-threaded for its whole life, so forking it is
safe where forking the threaded coordinator is not.  It serves the
driver over a private socket pair: it forks agents, reports which are
alive, and kills and reaps them on request; when the driver's end
closes (the driver exited, however it died) it kills and reaps the
agents it still has and exits.  The driver never reaps the zygote (its
parent does once the driver is gone), so the agents' CPU time is never
folded into the driver's own.  The pool needs ``os.fork`` (POSIX);
elsewhere run with ``--workers 1``.  Python 3.12 and later may warn
that the driver is multi-threaded when the zygote is forked: those
threads are NumPy's OpenBLAS workers, whose own fork handler stops
them first.
"""

from __future__ import annotations

import os
import pickle
import secrets
import signal
import socket
import sys
import threading
import traceback
from typing import TYPE_CHECKING

from ..exceptions import SearchError
from .cluster_tcp import Coordinator, TcpConfig, run_tcp_agent

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.grid_search import TrainingSettings
    from ..data.splits import DataSplit
    from .jobs import JobChunk

__all__ = ["PersistentPool"]


def _flush_std_streams() -> None:
    for stream in (sys.stdout, sys.stderr):
        if stream is not None:
            stream.flush()


def _fork(child) -> int:
    """Fork; the child runs ``child()`` and leaves through ``os._exit``
    (no ``atexit`` handler of the driver, no second flush of its
    buffers)."""
    _flush_std_streams()
    pid = os.fork()
    if pid:
        return pid
    code = 1
    try:
        child()
        code = 0
    except Exception:  # noqa: BLE001 - reported; anything else still exits
        traceback.print_exc()
    finally:
        _flush_std_streams()
        os._exit(code)


def _reap(agents: set[int], block: bool = False) -> None:
    """Drop from ``agents`` every one that has exited, reaping it."""
    for pid in list(agents):
        try:
            done, _status = os.waitpid(pid, 0 if block else os.WNOHANG)
        except ChildProcessError:
            done = pid
        if done:
            agents.discard(pid)


def _kill(agents: set[int], pids) -> None:
    """SIGKILL and reap those of ``pids`` that are in ``agents`` (none
    of which is reaped yet, so each still has a pid to signal)."""
    doomed = agents & set(pids)
    for pid in doomed:
        os.kill(pid, signal.SIGKILL)
    agents -= doomed
    _reap(doomed, block=True)


def _serve_zygote(sock: socket.socket) -> None:
    """The zygote's loop: one ``(op, arg)`` request, one reply."""
    # Ctrl-C reaches the whole process group: the driver unwinds and
    # closes its pool (or dies), and either way its agents go with it.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGCHLD, signal.SIG_DFL)
    rfile, wfile = sock.makefile("rb"), sock.makefile("wb")
    agents: set[int] = set()

    def agent(address: str, key: bytes, fault_dir) -> None:
        for f in (rfile, wfile, sock):
            f.close()
        # Local agents never outlive their coordinator: one failed
        # redial ends them.
        run_tcp_agent(
            address, key=key, fault_dir=fault_dir, reconnect_timeout_s=0.0
        )

    try:
        while True:
            try:
                op, arg = pickle.load(rfile)
            except (EOFError, OSError):
                return  # the driver closed its end, or died
            _reap(agents)
            if op == "spawn":
                reply = _fork(lambda: agent(*arg))
                agents.add(reply)
            elif op == "alive":
                reply = agents & set(arg)
            else:  # "kill"
                _kill(agents, arg)
                reply = None
            pickle.dump(reply, wfile)
            wfile.flush()
    finally:
        _kill(agents, set(agents))


class _Zygote:
    """The driver's end of its zygote (see the module docstring)."""

    def __init__(self) -> None:
        ours, theirs = socket.socketpair()

        def serve() -> None:
            ours.close()
            _serve_zygote(theirs)

        self.pid = _fork(serve)
        theirs.close()
        self.owner = os.getpid()
        self.dead = False
        self._rfile, self._wfile = ours.makefile("rb"), ours.makefile("wb")
        self._lock = threading.Lock()

    def request(self, op: str, arg):
        with self._lock:
            try:
                pickle.dump((op, arg), self._wfile)
                self._wfile.flush()
                return pickle.load(self._rfile)
            except (EOFError, OSError) as error:
                self.dead = True
                raise SearchError(
                    f"the pool's zygote (pid {self.pid}) is gone: {error}"
                ) from None


#: One per process, not per pool: it is forked when the first pool
#: listens, before any pool thread exists; a later pool's driver may
#: already run coordinator threads, so it reuses that clean fork.
_ZYGOTE: _Zygote | None = None


def _zygote() -> _Zygote:
    """This process's zygote, forked on first use."""
    global _ZYGOTE
    if not hasattr(os, "fork"):
        raise SearchError(
            "the local pool forks its agents and needs os.fork (POSIX); "
            "run with --workers 1 instead"
        )
    if _ZYGOTE is None or _ZYGOTE.dead or _ZYGOTE.owner != os.getpid():
        _ZYGOTE = _Zygote()
    return _ZYGOTE


class PersistentPool(Coordinator):
    """``workers`` local agents on a loopback coordinator, reused across
    grid searches.

    Create one per protocol run (or CLI invocation), pass it to
    :func:`repro.core.grid_search.grid_search` via ``pool=``, and close
    it when done (it is a context manager).  ``fault_dir`` is handed to
    every agent for the deterministic fault plans of
    :mod:`repro.runtime.faults` (tests only).
    """

    def __init__(
        self,
        workers: int,
        fault_dir: "str | os.PathLike | None" = None,
    ) -> None:
        if workers < 1:
            raise SearchError(f"pool needs workers >= 1, got {workers}")
        super().__init__(
            TcpConfig("127.0.0.1:0"), key=secrets.token_bytes(32)
        )
        self.workers = workers
        self.fault_dir = fault_dir
        self._zygote: _Zygote | None = None
        self._agents: list[int] = []
        self.agents_started = 0

    def memory_budget(self, settings: "TrainingSettings") -> int | None:
        # Local agents share this host's memory.
        from .memory import resolve_memory_budget

        return resolve_memory_budget(settings.memory_budget)

    def stats(self) -> dict:
        return {**super().stats(), "agents_started": self.agents_started}

    def agent_pids(self) -> set[int]:
        """Pids of the live agents (empty until the first submit)."""
        if not self._agents:
            return set()
        return self._zygote.request("alive", self._agents)

    def listen(self) -> None:
        # The zygote is forked before this pool starts any thread.
        if self._zygote is None and not self.closed:
            self._zygote = _zygote()
        super().listen()

    def publish(self, split: "DataSplit") -> str:
        """The token this pool's chunks name ``split`` by."""
        if self.closed:
            raise SearchError("PersistentPool is closed")
        return super().publish(split)

    def submit(self, chunk: "JobChunk", callback, error_callback) -> int:
        """Queue ``chunk`` for the agents, starting or replacing any
        that are not running."""
        if self.closed:
            raise SearchError("PersistentPool is closed")
        self.listen()
        live = self.agent_pids()
        self._agents = [pid for pid in self._agents if pid in live]
        while len(self._agents) < self.workers:
            self._agents.append(
                self._zygote.request(
                    "spawn", (self.address, self.key, self.fault_dir)
                )
            )
            self.agents_started += 1
        return super().submit(chunk, callback, error_callback)

    def close(self) -> None:
        """Kill and reap every agent, then close the coordinator
        (idempotent)."""
        if self._agents:
            try:
                self._zygote.request("kill", self._agents)
            except SearchError:
                pass  # orphaned agents end at their first failed redial
            self._agents.clear()
        super().close()
