"""The persistent local pool: a loopback coordinator and its own agents.

A protocol run is many grid searches back to back (one per level x
experiment).  :class:`PersistentPool` is created **once per protocol
run** (or once per CLI invocation) and reused by every search, so agent
start-up and module imports are paid once, and each agent's
compiled-tape cache stays warm between searches over the same circuit
structures.

The pool is a :class:`~repro.runtime.cluster_tcp.Coordinator` bound to
``127.0.0.1`` plus ``workers`` :func:`~repro.runtime.cluster_tcp.run_tcp_agent`
processes it starts itself, so a pooled search runs on the same
executor, wire protocol and liveness rules as one sharded across hosts:

* nothing starts until the first :meth:`PersistentPool.submit`; the
  coordinator then listens on an ephemeral loopback port and the agents
  start on the ``forkserver`` context and dial it;
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
"""

from __future__ import annotations

import multiprocessing
import os
import secrets
from typing import TYPE_CHECKING

from ..exceptions import SearchError
from .cluster_tcp import Coordinator, TcpConfig, run_tcp_agent

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.grid_search import TrainingSettings
    from ..data.splits import DataSplit
    from .jobs import JobChunk

__all__ = ["PersistentPool"]

_PRELOAD_SET = False


def _pool_context():
    """The process-start context used for local agents.

    Prefer ``forkserver``: its server process is exec'd clean before
    agents are forked, which sidesteps the fork-with-threads hazard —
    the coordinator runs connection threads in this process, and plain
    ``fork`` from a threaded parent can hand a child a held lock (an
    intermittent deadlock).  The server preloads this module (and with
    it numpy and the repro stack), so agent respawns are cheap forks
    from a warm server.  Platforms without ``forkserver`` (Windows)
    fall back to their default (``spawn``), which is equally
    thread-safe.
    """
    global _PRELOAD_SET
    try:
        ctx = multiprocessing.get_context("forkserver")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context()
    if not _PRELOAD_SET:
        ctx.set_forkserver_preload(["repro.runtime.pool"])
        _PRELOAD_SET = True
    return ctx


class PersistentPool(Coordinator):
    """``workers`` local agents on a loopback coordinator, reused across
    grid searches.

    Create one per protocol run (or CLI invocation), pass it to
    :func:`repro.core.grid_search.grid_search` via ``pool=``, and close
    it when done (it is a context manager).  ``cost_cache`` and
    ``cost_identity`` persist the measured-cost model (see
    :class:`~repro.runtime.cluster_tcp.Coordinator`); ``fault_dir`` is
    handed to every agent for the deterministic fault plans of
    :mod:`repro.runtime.faults` (tests only).
    """

    def __init__(
        self,
        workers: int,
        cost_cache: "str | os.PathLike | None" = None,
        cost_identity: str | None = None,
        fault_dir: "str | os.PathLike | None" = None,
    ) -> None:
        if workers < 1:
            raise SearchError(f"pool needs workers >= 1, got {workers}")
        super().__init__(
            TcpConfig("127.0.0.1:0"),
            cost_cache=cost_cache,
            cost_identity=cost_identity,
            key=secrets.token_bytes(32),
        )
        self.workers = workers
        self.fault_dir = fault_dir
        self._agents: list = []
        self.agents_started = 0

    def memory_budget(self, settings: "TrainingSettings") -> int | None:
        # Local agents share this host's memory.
        from .memory import resolve_memory_budget

        return resolve_memory_budget(settings.memory_budget)

    def stats(self) -> dict:
        return {**super().stats(), "agents_started": self.agents_started}

    def agent_pids(self) -> set[int]:
        """Pids of the live agents (empty until the first submit)."""
        return {proc.pid for proc in self._agents if proc.is_alive()}

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
        ctx = None
        for slot in range(self.workers):
            if slot < len(self._agents) and self._agents[slot].is_alive():
                continue
            ctx = ctx or _pool_context()
            # Local agents never outlive this coordinator: one failed
            # redial ends them.
            agent = ctx.Process(
                target=run_tcp_agent,
                args=(self.address,),
                kwargs={
                    "reconnect_timeout_s": 0.0,
                    "fault_dir": self.fault_dir,
                    "key": self.key,
                },
                daemon=True,
                name=f"repro-agent-{slot}",
            )
            agent.start()
            self.agents_started += 1
            if slot < len(self._agents):
                self._agents[slot].join()
                self._agents[slot] = agent
            else:
                self._agents.append(agent)
        return super().submit(chunk, callback, error_callback)

    def close(self) -> None:
        """Kill and reap every agent, then close the coordinator
        (idempotent)."""
        for agent in self._agents:
            agent.kill()
        for agent in self._agents:
            agent.join()
        self._agents.clear()
        super().close()
