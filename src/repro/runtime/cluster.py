"""Cross-host sharded grid search over a shared-filesystem spool.

The single-host seams — picklable :class:`~repro.runtime.pool.JobChunk`
chunks, ``(seed, candidate, run)``-derived RNG streams, strict
FLOPs-order commit — make distributed execution a pure transport
problem, and the thinnest transport every cluster filesystem provides
is a shared directory.  No sockets, no broker, no new dependencies:
the **spool** directory is the wire.

Spool layout (all files live under one directory)::

    tasks/       <token>.c<cid>.a<attempt>.task      framed JobChunk
    leases/      <agent>.<token>.c<cid>.a<att>.lease a claimed task
    results/     <token>.c<cid>.a<att>.<agent>.result framed ChunkResult
    data/        <token>.split                       framed DataSplit
    agents/      <agent>.agent                       heartbeat counter
    quarantine/  files that failed frame validation
    faults/      spool-armed fault plans (tests only)
    stop                                             agents exit when present

``<cid>`` is the scheduler's chunk id, not a candidate index.
``<token>`` and ``<agent>`` use the owner-id grammar
``repro_<host>_<pid>_<nonce>`` — the same discipline as the pool's
``repro_<pid>_*`` shared-memory segments — so dead-owner garbage is
*sweepable*: a new coordinator unlinks any same-host file whose owner
pid is gone (see :func:`sweep_stale_leases`).

The protocol:

* the coordinator runs the speculative
  :class:`~repro.runtime.parallel.Scheduler` (usually via
  ``grid_search(spool=...)``) on a :class:`SpoolExecutor`, which writes
  each submitted chunk into ``tasks/`` and delivers result files back.
  Speculation, packing, retries, duplicates and FLOPs-order commit are
  the scheduler's, exactly as on a worker pool, so the returned
  :class:`~repro.core.grid_search.SearchOutcome` is bit-identical to
  the sequential baseline for any host count, claim interleaving or
  failure history;

* an **agent** (:func:`run_agent`, ``repro cluster-agent --spool``)
  claims a task by atomically renaming it into ``leases/`` — rename is
  the spool's only mutual-exclusion primitive, and it moves the payload
  with the claim — trains the chunk with the pool workers' chunk
  runner (:func:`~repro.runtime.pool.execute_chunk`, OOM ladder
  included), writes a result file, and releases the lease;

* while training, the agent's heartbeat thread rewrites a per-agent
  counter file.  The coordinator judges liveness **only on its own
  monotonic clock**: it records when it last observed the counter
  *change*, and expires leases after ``lease_timeout_s`` without a
  change (same-host agents are additionally pid-probed).  Remote
  wall-clock timestamps are never compared, so arbitrary clock skew
  between hosts cannot cause a false (or missed) expiry;

* an expired lease's chunk is resubmitted under the next attempt; a
  *stale* agent that rejoins and writes its result anyway just produces
  a duplicate, which the scheduler drops (first delivery wins);

* every payload file is **framed** (magic, version, length, SHA-256)
  and written tmp-then-rename, so a torn or half-written file is
  detected, moved to ``quarantine/`` and its chunk retried — never
  parsed into garbage; all spool I/O retries transient ``OSError``s
  with capped decorrelated-jitter backoff
  (:mod:`repro.runtime.backoff`);

* losing **every** agent for ``agent_grace_s`` starves the executor, and
  the scheduler finishes the remaining candidates in-process.

Determinism, as everywhere in this runtime: distribution, chunking,
claim order, retries, duplicates, quarantines and fallbacks shape only
wall time.  The result stream is a pure function of ``(ranked,
threshold, settings, convention, seed)``.
"""

from __future__ import annotations

import hashlib
import logging
import os
import pathlib
import pickle
import random
import re
import secrets
import socket
import struct
import threading
import time
from dataclasses import asdict, dataclass, field, replace
from typing import TYPE_CHECKING, Callable

from ..config import (
    SPOOL_AGENT_GRACE_S,
    SPOOL_HEARTBEAT_S,
    SPOOL_LEASE_TIMEOUT_S,
    SPOOL_POLL_INTERVAL_S,
)
from ..exceptions import SearchError, TrainingCancelled
from . import faults
from .backoff import retry_call
from .memory import MemoryBudget
from .parallel import Delivered, ExecutorCounters, Lost, Notice, Starved
from .pool import (
    ChunkCostModel,
    ChunkResult,
    JobChunk,
    _pid_alive,
    execute_chunk,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.grid_search import TrainingSettings
    from ..data.splits import DataSplit

__all__ = [
    "SpoolConfig",
    "SpoolExecutor",
    "AgentStats",
    "run_agent",
    "stop_agents",
    "sweep_stale_leases",
    "TornFileError",
]

logger = logging.getLogger("repro.runtime")

_TASK_DIR = "tasks"
_LEASE_DIR = "leases"
_RESULT_DIR = "results"
_DATA_DIR = "data"
_AGENT_DIR = "agents"
_QUARANTINE_DIR = "quarantine"
_STOP_FILE = "stop"
_DIRS = (_TASK_DIR, _LEASE_DIR, _RESULT_DIR, _DATA_DIR, _AGENT_DIR,
         _QUARANTINE_DIR)


class TornFileError(SearchError):
    """A spool file failed frame validation (short, torn, or corrupt)."""


# -- framing ----------------------------------------------------------------

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


def _unframe(blob: bytes) -> bytes:
    """Validate a frame and return its payload, or raise TornFileError."""
    if len(blob) < _HEADER.size:
        raise TornFileError("spool frame shorter than its header")
    magic, version, length, digest = _HEADER.unpack_from(blob)
    if magic != _MAGIC:
        raise TornFileError("spool frame carries a foreign magic")
    if version != _FRAME_VERSION:
        raise TornFileError(
            f"spool frame version {version} != {_FRAME_VERSION}"
        )
    payload = blob[_HEADER.size :]
    if len(payload) != length:
        raise TornFileError(
            f"torn spool frame: {len(payload)} payload byte(s) on disk "
            f"vs {length} declared"
        )
    if hashlib.sha256(payload).digest() != digest:
        raise TornFileError("spool frame checksum mismatch")
    return payload


# -- retried spool I/O ------------------------------------------------------


class _SpoolIO:
    """All spool filesystem access, retried with jittered backoff.

    A network filesystem riding out a failover returns transient
    ``EIO``/``ESTALE``; retrying through :func:`repro.runtime.backoff.
    retry_call` outlasts it without hammering the server.  Missing
    files are *semantic* on a spool (a lost claim race, an already-
    ingested result), so readers map ``FileNotFoundError`` to ``None``
    instead of retrying it.
    """

    def __init__(self, retries: int = 4) -> None:
        self.retries = retries
        self.io_retries = 0
        self.backoff_s = 0.0
        self._rng = random.Random()

    def call(self, fn: Callable):
        def on_retry(error, attempt, delay) -> None:
            self.io_retries += 1
            self.backoff_s += delay
            logger.warning(
                "spool I/O failed (%r); retry %d in %.2fs",
                error,
                attempt,
                delay,
            )

        return retry_call(
            fn,
            retries=self.retries,
            base_s=0.02,
            cap_s=0.5,
            rng=self._rng,
            retry_on=(OSError,),
            on_retry=on_retry,
        )

    def read_bytes(self, path: pathlib.Path) -> bytes | None:
        """File contents, or ``None`` if it does not exist."""

        def attempt() -> bytes | None:
            try:
                return path.read_bytes()
            except FileNotFoundError:
                return None

        return self.call(attempt)

    def write_frame(self, path: pathlib.Path, payload: bytes) -> None:
        """Write a framed payload atomically (tmp + fsync + rename)."""

        def attempt() -> None:
            tmp = path.with_name(f"{path.name}.tmp{os.getpid()}")
            try:
                with open(tmp, "wb") as fh:
                    fh.write(_frame(payload))
                    fh.flush()
                    os.fsync(fh.fileno())
                os.replace(tmp, path)
            except OSError:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise

        self.call(attempt)

    def unlink(self, path: pathlib.Path) -> None:
        def attempt() -> None:
            try:
                os.unlink(path)
            except FileNotFoundError:
                pass

        self.call(attempt)

    def listing(self, directory: pathlib.Path) -> list[str]:
        def attempt() -> list[str]:
            try:
                return sorted(os.listdir(directory))
            except FileNotFoundError:
                return []

        return self.call(attempt)

    def quarantine(self, path: pathlib.Path, root: pathlib.Path) -> None:
        """Move a failed-validation file aside for post-mortem."""

        def attempt() -> None:
            target = root / _QUARANTINE_DIR / path.name
            try:
                os.replace(path, target)
            except FileNotFoundError:
                pass

        self.call(attempt)


# -- owner ids and file names -----------------------------------------------

_OWNER_RE = re.compile(
    r"^repro_(?P<host>[A-Za-z0-9-]+)_(?P<pid>\d+)_(?P<nonce>[0-9a-f]+)$"
)


def _host_tag() -> str:
    return re.sub(r"[^A-Za-z0-9-]", "-", socket.gethostname()) or "host"


def _new_owner_id() -> str:
    return f"repro_{_host_tag()}_{os.getpid()}_{secrets.token_hex(3)}"


def _owner_dead(owner: str) -> bool:
    """True only when the owner is *verifiably* dead (same host, pid gone).

    Remote owners are never judged here — their death shows up as
    heartbeat staleness instead.
    """
    match = _OWNER_RE.match(owner)
    if match is None or match.group("host") != _host_tag():
        return False
    return not _pid_alive(int(match.group("pid")))


def _task_name(token: str, cid: int, attempt: int) -> str:
    return f"{token}.c{cid:05d}.a{attempt:02d}.task"


def _parse_task(name: str) -> "tuple[str, int, int] | None":
    """``(token, cid, attempt)`` for a task file name, else ``None``."""
    if not name.endswith(".task"):
        return None
    parts = name[: -len(".task")].split(".")
    if len(parts) != 3 or not parts[1].startswith("c"):
        return None
    try:
        return parts[0], int(parts[1][1:]), int(parts[2][1:])
    except ValueError:
        return None


def _parse_lease(name: str) -> "tuple[str, str, int, int] | None":
    """``(agent, token, cid, attempt)`` for a lease file name."""
    if not name.endswith(".lease"):
        return None
    parts = name[: -len(".lease")].split(".")
    if len(parts) != 4 or not parts[2].startswith("c"):
        return None
    try:
        return parts[0], parts[1], int(parts[2][1:]), int(parts[3][1:])
    except ValueError:
        return None


def _parse_result(name: str) -> "tuple[str, int, int, str] | None":
    """``(token, cid, attempt, agent)`` for a result file name."""
    if not name.endswith(".result"):
        return None
    parts = name[: -len(".result")].split(".")
    if len(parts) != 4 or not parts[1].startswith("c"):
        return None
    try:
        return parts[0], int(parts[1][1:]), int(parts[2][1:]), parts[3]
    except ValueError:
        return None


def _file_owner(name: str) -> str | None:
    """The owner-id prefix of any spool file name (first dot field)."""
    head = name.split(".", 1)[0]
    return head if _OWNER_RE.match(head) else None


# -- configuration ----------------------------------------------------------


@dataclass(frozen=True)
class SpoolConfig:
    """Spool transport knobs (`path` is the shared directory).

    ``cost_cache`` names an optional JSON file for the executor's
    :class:`~repro.runtime.pool.ChunkCostModel` — measured per-chunk
    wall times loaded at start and saved at the end of the search, the
    cluster twin of the pool's ``--cost-cache`` persistence.
    """

    path: "str | os.PathLike"
    lease_timeout_s: float = SPOOL_LEASE_TIMEOUT_S
    poll_interval_s: float = SPOOL_POLL_INTERVAL_S
    agent_grace_s: float = SPOOL_AGENT_GRACE_S
    io_retries: int = 4
    cost_cache: "str | os.PathLike | None" = None


# -- startup hygiene --------------------------------------------------------


def sweep_stale_leases(spool_dir: "str | os.PathLike") -> list[str]:
    """Unlink lease and heartbeat files whose owner process is dead.

    The spool twin of :func:`repro.runtime.pool.sweep_stale_segments`:
    a ``kill -9``-ed agent never reaches its deterministic unlinks, so
    its lease (named ``repro_<host>_<pid>_*``) would pin a chunk until
    the heartbeat timeout on every later run.  Same-host dead-pid
    owners are swept immediately at coordinator start; remote owners
    are left to heartbeat expiry (a pid cannot be probed across hosts).
    Returns the removed names (also logged).
    """
    root = pathlib.Path(spool_dir)
    removed: list[str] = []
    for sub in (_LEASE_DIR, _AGENT_DIR):
        try:
            names = sorted(os.listdir(root / sub))
        except OSError:
            continue
        for name in names:
            owner = _file_owner(name)
            if owner is None or not _owner_dead(owner):
                continue
            try:
                os.unlink(root / sub / name)
            except OSError:  # pragma: no cover - raced another sweeper
                continue
            removed.append(name)
    if removed:
        logger.warning(
            "swept %d stale spool file(s) left by dead owners: %s",
            len(removed),
            ", ".join(removed),
        )
    return removed


def stop_agents(spool_dir: "str | os.PathLike") -> None:
    """Write the spool's ``stop`` file so every agent exits its loop.

    Idempotent; agents notice the file on their next poll.  The CLI
    calls this after its last coordinated search so a cluster run winds
    down without having to hunt agent processes across hosts.  A spool
    that was already torn down (or whose parent path is no longer
    writable) has no agents left to stop, so failing to write the file
    is a no-op rather than an error.
    """
    root = pathlib.Path(spool_dir)
    try:
        root.mkdir(parents=True, exist_ok=True)
        (root / _STOP_FILE).touch()
    except OSError as error:
        logger.info(
            "not writing stop file under %s (%s); spool already cleaned up",
            root,
            error,
        )


# -- executor ---------------------------------------------------------------

#: Agents do not share this host's memory, so no budget governs them.
_REMOTE_BUDGET = MemoryBudget(bytes=None, source="off")


def _cached_cost_model(path: "str | os.PathLike | None") -> ChunkCostModel:
    """A cost model warm-started from ``path`` when it names a cache."""
    model = ChunkCostModel()
    if path:
        model.load_json(path)
    return model


def _save_cost_model(
    model: ChunkCostModel, path: "str | os.PathLike | None"
) -> None:
    if path and model.observations:
        try:
            model.save_json(path)
        except OSError as error:  # pragma: no cover - cache dir gone
            logger.warning(
                "could not save cluster cost cache %s: %s", path, error
            )


class SpoolExecutor:
    """A spool directory as an executor of the
    :class:`~repro.runtime.parallel.Scheduler`.

    Owns only the medium and its liveness: ``submit`` writes a framed
    task file; ``poll`` judges agent heartbeats, expires the leases of
    dead or partitioned agents, reports chunks that vanished from the
    spool, ingests result files (quarantining torn ones) and reports
    starvation once no agent has been live for ``agent_grace_s``.
    Attempts, duplicates, packing, cost feedback, events and the
    in-process fallback belong to the scheduler.

    Single-writer by design: one coordinator per spool directory at a
    time (agents scale horizontally).  File names carry chunk ids
    (``c<cid>``), not candidate indices.
    """

    def __init__(self, config: "SpoolConfig | str | os.PathLike") -> None:
        self.cfg = (
            config
            if isinstance(config, SpoolConfig)
            else SpoolConfig(path=config)
        )
        self.root = pathlib.Path(self.cfg.path)
        self.io = _SpoolIO(self.cfg.io_retries)
        self.token = _new_owner_id()
        self.dataset_name = f"{self.token}.split"
        self.cost_model = _cached_cost_model(self.cfg.cost_cache)
        self.counters = ExecutorCounters()
        self.capacity = 0
        self._opened = False
        #: cid -> attempt of every chunk in the spool not yet delivered.
        self._live: dict[int, int] = {}
        # Liveness, judged on this process's monotonic clock: agent ->
        # (counter, last change); lease name -> first seen (for agents
        # that died before their first heartbeat landed).
        self.agents: dict[str, tuple[int, float]] = {}
        self.agents_seen: set[str] = set()
        self.lease_seen: dict[str, float] = {}
        self._missing_once: set[int] = set()
        self._idle_since: float | None = None
        self.swept_leases = 0
        self.swept_files = 0
        self.expired_leases = 0
        self.quarantined = 0

    def memory_budget(self, settings: "TrainingSettings") -> MemoryBudget:
        return _REMOTE_BUDGET

    def stats(self) -> dict:
        """One snapshot of the executor's instrumentation counters."""
        return {
            "token": self.token,
            **asdict(self.counters),
            "cost_observations": self.cost_model.observations,
            "agents_seen": len(self.agents_seen),
            "expired_leases": self.expired_leases,
            "swept_leases": self.swept_leases,
            "swept_files": self.swept_files,
            "quarantined": self.quarantined,
            "io_retries": self.io.io_retries,
            "io_backoff_s": round(self.io.backoff_s, 3),
        }

    # -- lifecycle ---------------------------------------------------------

    def open(self, split: "DataSplit", chunk_seconds=None) -> None:
        """Create the layout, sweep dead-owner garbage, publish the split."""
        if self._opened:
            return
        self._opened = True
        for sub in _DIRS:
            (self.root / sub).mkdir(parents=True, exist_ok=True)
        # A leftover stop file from a previous wound-down run would make
        # every freshly started agent exit immediately.
        self.io.unlink(self.root / _STOP_FILE)
        self.swept_leases = len(sweep_stale_leases(self.root))
        self._sweep_dead_files()
        self.io.write_frame(
            self.root / _DATA_DIR / self.dataset_name,
            pickle.dumps(split, protocol=pickle.HIGHEST_PROTOCOL),
        )

    def _sweep_dead_files(self) -> None:
        """Remove task/result/dataset files from finished coordinators.

        A file is garbage when its coordinator token is verifiably dead
        — or belongs to *this* process but a previous search (same pid,
        different token): coordinators are single-writer per spool, so
        a same-pid foreign token can only be an earlier run of ours.
        """
        for sub in (_TASK_DIR, _RESULT_DIR, _DATA_DIR):
            for name in self.io.listing(self.root / sub):
                owner = _file_owner(name)
                if owner is None or owner == self.token:
                    continue
                match = _OWNER_RE.match(owner)
                ours = (
                    match is not None
                    and match.group("host") == _host_tag()
                    and int(match.group("pid")) == os.getpid()
                )
                if ours or _owner_dead(owner):
                    self.io.unlink(self.root / sub / name)
                    self.swept_files += 1
        if self.swept_files:
            logger.warning(
                "swept %d spool file(s) from finished or dead "
                "coordinators",
                self.swept_files,
            )

    def close(self) -> None:
        """Remove everything this search put in the spool (best effort)
        and persist the cost model."""
        if not self._opened:
            return
        self._opened = False
        try:
            for sub in (_TASK_DIR, _RESULT_DIR, _DATA_DIR):
                for name in self.io.listing(self.root / sub):
                    if name.startswith(self.token + "."):
                        self.io.unlink(self.root / sub / name)
        except OSError:  # pragma: no cover - spool died; nothing to clean
            pass
        _save_cost_model(self.cost_model, self.cfg.cost_cache)

    # -- the executor protocol ---------------------------------------------

    def submit(self, cid: int, attempt: int, chunk: JobChunk) -> None:
        self.io.write_frame(
            self.root / _TASK_DIR / _task_name(self.token, cid, attempt),
            pickle.dumps(
                replace(chunk, handle=self.dataset_name),
                protocol=pickle.HIGHEST_PROTOCOL,
            ),
        )
        self._live[cid] = attempt

    def poll(self, timeout: float) -> list:
        live = self._observe_agents()
        self.capacity = len(live)
        reports = self._check_leases(live) + self._ingest_results()
        now = time.monotonic()
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
            reports.append(Starved("no live agent is serving the spool"))
        if not reports:
            time.sleep(min(timeout, self.cfg.poll_interval_s))
        return reports

    def abort(self) -> None:
        """Withdraw unclaimed task files."""
        for name in self.io.listing(self.root / _TASK_DIR):
            if name.startswith(self.token + "."):
                self.io.unlink(self.root / _TASK_DIR / name)
        self._live.clear()

    # -- liveness ----------------------------------------------------------

    def _observe_agents(self) -> set[str]:
        """Live agent ids, judged on this process's monotonic clock."""
        now = time.monotonic()
        present: set[str] = set()
        for name in self.io.listing(self.root / _AGENT_DIR):
            if not name.endswith(".agent"):
                continue
            owner = name[: -len(".agent")]
            if _OWNER_RE.match(owner) is None:
                continue
            present.add(owner)
            self.agents_seen.add(owner)
            raw = self.io.read_bytes(self.root / _AGENT_DIR / name)
            if raw is None:
                continue
            try:
                counter = int(raw.decode("ascii").strip())
            except (ValueError, UnicodeDecodeError):
                continue
            previous = self.agents.get(owner)
            if previous is None or previous[0] != counter:
                self.agents[owner] = (counter, now)
        live: set[str] = set()
        for owner in present:
            if _owner_dead(owner):
                continue
            observed = self.agents.get(owner)
            if (
                observed is not None
                and now - observed[1] <= self.cfg.lease_timeout_s
            ):
                live.add(owner)
        return live

    def _check_leases(self, live: set[str]) -> list:
        """Expire leases of dead/partitioned agents; report lost chunks."""
        reports: list = []
        now = time.monotonic()
        seen_leases: set[str] = set()
        leased_cids: set[int] = set()
        for name in self.io.listing(self.root / _LEASE_DIR):
            parsed = _parse_lease(name)
            if parsed is None:
                continue
            agent, token, cid, attempt = parsed
            if token != self.token:
                continue
            seen_leases.add(name)
            first_seen = self.lease_seen.setdefault(name, now)
            expired = False
            if _owner_dead(agent):
                expired = True
            elif agent not in live:
                # Not live means "no heartbeat change observed recently"
                # — but a lease younger than the timeout may belong to
                # an agent whose first beat simply has not landed yet.
                expired = now - first_seen > self.cfg.lease_timeout_s
            if not expired:
                leased_cids.add(cid)
                continue
            self.io.unlink(self.root / _LEASE_DIR / name)
            self.lease_seen.pop(name, None)
            self.expired_leases += 1
            if self._live.get(cid) == attempt:
                reports.append(
                    Notice(
                        "lease-expired",
                        f"lease for chunk {cid} (attempt {attempt}) expired: "
                        f"agent {agent} is dead or partitioned; reclaiming",
                        (cid,),
                    )
                )
                reports.append(Lost((cid,), "its lease expired"))
        for stale in set(self.lease_seen) - seen_leases:
            del self.lease_seen[stale]
        # Lost chunks: in the spool, yet neither a task file, a lease,
        # nor a result — e.g. an agent quarantined a torn lease payload.
        # Reported on the second consecutive sighting: agents write
        # results *before* releasing leases, so anything genuinely in
        # flight reappears in one of the three places by the next poll.
        present = {
            parsed[1]
            for sub, parse in (
                (_TASK_DIR, _parse_task),
                (_RESULT_DIR, _parse_result),
            )
            for name in self.io.listing(self.root / sub)
            if (parsed := parse(name)) is not None and parsed[0] == self.token
        }
        missing = set(self._live) - present - leased_cids
        for cid in sorted(missing & self._missing_once):
            reports.append(Lost((cid,), "its chunk vanished from the spool"))
        self._missing_once = missing - self._missing_once
        return reports

    def _ingest_results(self) -> list:
        """Deliver result files; quarantine the ones failing validation."""
        reports: list = []
        for name in self.io.listing(self.root / _RESULT_DIR):
            parsed = _parse_result(name)
            if parsed is None or parsed[0] != self.token:
                continue
            _token, cid, attempt, _agent = parsed
            path = self.root / _RESULT_DIR / name
            blob = self.io.read_bytes(path)
            if blob is None:
                continue  # raced its own ingest on a previous poll
            try:
                result = pickle.loads(_unframe(blob))
                if not isinstance(result, ChunkResult):
                    raise TornFileError(f"not a chunk result: {result!r}")
            except Exception as error:
                self.quarantined += 1
                self.io.quarantine(path, self.root)
                if self._live.get(cid) == attempt:
                    reports.append(
                        Notice(
                            "torn-file",
                            f"quarantined spool result {name}: {error}",
                            (cid,),
                        )
                    )
                    reports.append(
                        Lost((cid,), "its result file failed validation")
                    )
                continue
            self.io.unlink(path)
            # Withdraw a still-unclaimed retry of a chunk that is now
            # delivered (a no-op when that attempt is the one delivered).
            pending = self._live.pop(cid, None)
            if pending is not None:
                task = _task_name(self.token, cid, pending)
                self.io.unlink(self.root / _TASK_DIR / task)
            reports.append(Delivered(cid, result))
        return reports


# -- agent ------------------------------------------------------------------


class _Heartbeat(threading.Thread):
    """Rewrites the agent's counter file every ``interval_s``.

    The counter is content, not a timestamp: the coordinator watches for
    *change* on its own clock, so agent and coordinator wall clocks
    never meet.  ``suspend``/``resume`` model a network partition for
    the ``lease-steal`` fault.
    """

    def __init__(self, path: pathlib.Path, interval_s: float) -> None:
        super().__init__(daemon=True, name="spool-heartbeat")
        self.path = path
        self.interval_s = interval_s
        self.counter = 0
        # Not named _stop: threading.Thread uses that name internally.
        self._halt = threading.Event()
        self._suspended = threading.Event()

    def beat(self) -> None:
        self.counter += 1
        tmp = self.path.with_name(f"{self.path.name}.tmp{os.getpid()}")
        try:
            tmp.write_text(str(self.counter))
            os.replace(tmp, self.path)
        except OSError:  # pragma: no cover - spool briefly unreachable
            logger.warning("could not write heartbeat %s", self.path)

    def run(self) -> None:
        self.beat()  # visible before the first claim
        while not self._halt.wait(self.interval_s):
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
        try:
            os.unlink(self.path)
        except OSError:
            pass


@dataclass
class AgentStats:
    """What one agent serve loop did, for logs and tests.

    Shared by both transports: :func:`run_agent` (spool) never
    reconnects, so ``reconnects`` stays 0 there; :func:`repro.runtime.
    cluster_tcp.run_tcp_agent` counts every re-dial after its first
    established connection.
    """

    agent_id: str
    chunks_done: int = 0
    claims_lost: int = 0
    quarantined: int = 0
    cancelled: int = 0
    reconnects: int = 0
    faults_fired: list = field(default_factory=list)


def run_agent(
    spool_dir: "str | os.PathLike",
    poll_interval_s: float = SPOOL_POLL_INTERVAL_S,
    heartbeat_s: float = SPOOL_HEARTBEAT_S,
    idle_timeout_s: float | None = None,
    max_chunks: int | None = None,
    io_retries: int = 4,
) -> AgentStats:
    """Serve a spool: claim chunks, train them, write results.

    Runs until the spool's ``stop`` file appears, ``idle_timeout_s``
    passes without work, or ``max_chunks`` chunks have been executed.
    Any number of agents (across any number of hosts) may serve one
    spool concurrently; the atomic-rename claim makes every chunk
    execute under exactly one live lease.
    """
    from ..quantum.engine import compile_cache_scope

    root = pathlib.Path(spool_dir)
    for sub in _DIRS:
        (root / sub).mkdir(parents=True, exist_ok=True)
    agent_id = _new_owner_id()
    stats = AgentStats(agent_id=agent_id)
    io = _SpoolIO(io_retries)
    splits: dict = {}  # dataset file name -> DataSplit (one per search)
    heartbeat = _Heartbeat(
        root / _AGENT_DIR / f"{agent_id}.agent", heartbeat_s
    )
    heartbeat.start()
    logger.info("cluster agent %s serving spool %s", agent_id, root)
    last_work = time.monotonic()
    try:
        with compile_cache_scope():
            while True:
                if (root / _STOP_FILE).exists():
                    break
                if (
                    max_chunks is not None
                    and stats.chunks_done >= max_chunks
                ):
                    break
                claim = _claim_next(root, agent_id, io, stats)
                if claim is None:
                    if (
                        idle_timeout_s is not None
                        and time.monotonic() - last_work > idle_timeout_s
                    ):
                        break
                    time.sleep(poll_interval_s)
                    continue
                _serve_chunk(
                    root, claim, agent_id, io, splits, heartbeat, stats
                )
                last_work = time.monotonic()
    finally:
        heartbeat.stop()
        logger.info("cluster agent %s exiting: %s", agent_id, stats)
    return stats


def _claim_next(
    root: pathlib.Path, agent_id: str, io: _SpoolIO, stats: AgentStats
) -> "pathlib.Path | None":
    """Claim the lowest-named task via atomic rename, or ``None``.

    Task names sort by (token, chunk id, attempt), so agents take
    chunks in the order the scheduler submitted them: most expensive
    first within its speculation window.
    """
    for name in io.listing(root / _TASK_DIR):
        if not name.endswith(".task"):
            continue
        lease = root / _LEASE_DIR / (
            f"{agent_id}.{name[: -len('.task')]}.lease"
        )
        try:
            os.rename(root / _TASK_DIR / name, lease)
        except FileNotFoundError:
            stats.claims_lost += 1  # another agent won the rename
            continue
        except OSError:  # pragma: no cover - transient spool error
            continue
        return lease
    return None


def _serve_chunk(
    root: pathlib.Path,
    lease: pathlib.Path,
    agent_id: str,
    io: _SpoolIO,
    splits: dict,
    heartbeat: _Heartbeat,
    stats: AgentStats,
) -> None:
    """Execute one claimed chunk and write its framed result."""
    blob = io.read_bytes(lease)
    if blob is None:  # pragma: no cover - lease swept mid-claim
        return
    try:
        chunk = pickle.loads(_unframe(blob))
        if not isinstance(chunk, JobChunk):
            raise TornFileError(f"not a chunk: {chunk!r}")
    except Exception as error:
        # Torn/corrupt lease payload: quarantine it; the coordinator's
        # lost-chunk pass re-enqueues the work.
        stats.quarantined += 1
        logger.warning("quarantining torn lease %s: %s", lease.name, error)
        io.quarantine(lease, root)
        return
    split = splits.get(chunk.handle)
    if split is None:
        raw = io.read_bytes(root / _DATA_DIR / chunk.handle)
        if raw is None:
            # Dataset gone: the owning search has ended; drop the lease
            # so the spool carries no trace of the dead work.
            io.unlink(lease)
            return
        try:
            split = pickle.loads(_unframe(raw))
        except Exception as error:
            logger.warning(
                "quarantining torn dataset %s: %s", chunk.handle, error
            )
            stats.quarantined += 1
            io.quarantine(root / _DATA_DIR / chunk.handle, root)
            io.unlink(lease)
            return
        splits.clear()  # one search's split at a time; keep memory flat
        splits[chunk.handle] = split
    plan = faults.claim_spool_fault(
        root, {job.candidate_index for job in chunk.jobs}
    )
    ignore_lease_loss = False
    tear_result = False
    if plan is not None:
        stats.faults_fired.append(plan.kind)
        logger.warning(
            "agent %s firing %s fault on candidate(s) %s",
            agent_id,
            plan.kind,
            sorted({job.candidate_index for job in chunk.jobs}),
        )
        if plan.kind == faults.HOST_KILL:
            # The real thing: the whole "host" (this agent process)
            # disappears mid-lease, heartbeat and all.
            import signal

            os.kill(os.getpid(), signal.SIGKILL)
        elif plan.kind == faults.LEASE_STEAL:
            # A partition: heartbeats stop long enough for the
            # coordinator to expire our lease and re-issue the chunk;
            # then we "rejoin" and deliver a duplicate result anyway.
            heartbeat.suspend()
            time.sleep(plan.delay_s)
            heartbeat.resume()
            ignore_lease_loss = True
        elif plan.kind == faults.TORN_FILE:
            tear_result = True

    def lease_lost() -> bool:
        # The coordinator reclaims work by unlinking the lease; abort
        # at the next epoch boundary instead of training a dead chunk.
        # A partitioned agent (lease-steal fault) cannot see the spool,
        # so it trains on regardless.
        return not ignore_lease_loss and not lease.exists()

    try:
        result = execute_chunk(chunk, split, lease_lost)
        payload = pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
        # <agent>.<task>.lease -> <task>.<agent>.result, where <task>
        # is <token>.c<cid>.a<att>.
        task = lease.name[len(agent_id) + 1 : -len(".lease")]
        path = root / _RESULT_DIR / f"{task}.{agent_id}.result"
        if tear_result:
            # Fault injection: ship a frame whose payload is cut short,
            # as if the writer died mid-write on a filesystem without
            # atomic rename.  The checksum/length check must catch it.
            torn = _frame(payload)[
                : _HEADER.size + max(1, len(payload) // 2)
            ]
            io.call(lambda: path.write_bytes(torn))
        else:
            io.write_frame(path, payload)
    except TrainingCancelled:
        stats.cancelled += 1
        return
    except Exception as error:
        # Anything unexpected (a result that cannot pickle, a spool
        # unreachable past the retry budget): drop the lease so the
        # coordinator's lost-chunk pass re-enqueues the work, and keep
        # the agent alive for the next chunk.  This agent heartbeats, so
        # an abandoned-but-held lease would pin the chunk forever.
        logger.warning(
            "agent %s dropping chunk %s after %r", agent_id, lease.name, error
        )
        io.unlink(lease)
        return
    # Release only after the result is durable: a crash between the two
    # leaves the lease to expire and the chunk to re-run — never a
    # result-less release the coordinator would trust.
    io.unlink(lease)
    stats.chunks_done += 1
