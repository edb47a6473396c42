"""Deterministic fault injection for the parallel search runtime.

Fault tolerance is only trustworthy if every failure path is exercised
by *real* failures, not by mocks: an agent that is ``kill -9``-ed
mid-chunk closes its connection exactly as a production OOM kill does.
Faults are hooks an agent (:func:`repro.runtime.cluster_tcp.run_tcp_agent`)
executes on itself, armed as *files* in a directory every agent reads
(its ``fault_dir``; a :class:`~repro.runtime.pool.PersistentPool` hands
its own to the agents it starts), so one mechanism serves local and
remote agents alike.  An agent checks for a plan after claiming a chunk:

* ``kill`` / ``host-kill`` — the agent SIGKILLs itself, exactly the
  signal an OOM killer sends: its connection drops and the chunk is
  requeued;
* ``delay`` — the agent sleeps ``delay_s`` before training the chunk,
  pushing it past the scheduler's deadline;
* ``error`` — the agent's chunk runner raises, exercising the
  single-chunk retry path (the agent reports the error and serves on);
* ``oom`` — the agent raises :class:`MemoryError` at the start of the
  chunk's fused sweep, exercising the memory-governance recovery ladder
  (group halving, scalar floor — see :mod:`repro.runtime.jobs`) rather
  than the retry machinery;
* ``conn-drop`` — the agent writes half its result frame and then
  closes the connection, exercising mid-frame torn-delivery detection,
  dead-connection requeue and agent reconnect with backoff;
* ``partition`` — the agent suspends its heartbeat frames for
  ``delay_s`` while holding its chunk (the connection looks silent, not
  closed), lets the coordinator expire the lease and re-issue the
  chunk, then resumes;
* ``slow-frame`` — the agent stalls mid-result-frame for ``delay_s``,
  exercising the coordinator's per-frame read timeout.

A plan targets a ``candidate`` index, so it fires the same way whatever
the agent count or scheduling.  ``times`` bounds how often it fires,
cross-process, by one-shot token files claimed via atomic rename
(:func:`claim_file_fault`), so a retried chunk runs clean on any agent —
which is what lets a test assert the retried search's outcome is
bit-identical to the fault-free one.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

from ..exceptions import SearchError

__all__ = [
    "FaultPlan",
    "KILL",
    "DELAY",
    "ERROR",
    "OOM",
    "HOST_KILL",
    "CONN_DROP",
    "PARTITION",
    "SLOW_FRAME",
    "arm_file_fault",
    "clear_file_fault",
    "claim_file_fault",
]

KILL = "kill"
DELAY = "delay"
ERROR = "error"
OOM = "oom"
HOST_KILL = "host-kill"
CONN_DROP = "conn-drop"
PARTITION = "partition"
SLOW_FRAME = "slow-frame"
_KINDS = (KILL, DELAY, ERROR, OOM, HOST_KILL, CONN_DROP, PARTITION, SLOW_FRAME)


@dataclass(frozen=True)
class FaultPlan:
    """One deterministic fault, armed via :func:`arm_file_fault`.

    ``candidate`` targets any chunk carrying that candidate index (it
    must be set to arm the plan).  ``times`` caps the number of
    firings; the plan is inert afterwards, so retried chunks run clean.
    """

    kind: str
    candidate: int | None = None
    delay_s: float = 0.0
    times: int = 1

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise SearchError(
                f"unknown fault kind {self.kind!r}; options: {_KINDS}"
            )
        if self.times < 1:
            raise SearchError(f"fault times must be >= 1, got {self.times}")


# -- file-armed faults -----------------------------------------------------

_FAULT_DIR = "faults"
_PLAN_FILE = "plan.json"


def _fault_dir(root) -> str:
    return os.path.join(os.fspath(root), _FAULT_DIR)


def arm_file_fault(root, plan: FaultPlan) -> None:
    """Arm one deterministic fault under ``root`` (test/parent side).

    Writes ``faults/plan.json`` plus ``plan.times`` one-shot token files;
    an agent (whose ``fault_dir`` is ``root``) only fires after claiming
    a token by atomic rename, so the firing bound holds across any
    number of agent processes and hosts.  Plans must target a
    ``candidate`` — chunk-counting order is not deterministic across
    agents.
    """
    if plan.candidate is None:
        raise SearchError("file fault plans must target a candidate index")
    directory = _fault_dir(root)
    os.makedirs(directory, exist_ok=True)
    clear_file_fault(root)
    for i in range(plan.times):
        with open(os.path.join(directory, f"token-{i}"), "w"):
            pass
    payload = json.dumps(
        {
            "kind": plan.kind,
            "candidate": plan.candidate,
            "delay_s": plan.delay_s,
            "times": plan.times,
        }
    )
    # Tokens land before the plan becomes visible (and the plan itself
    # lands by rename), so an agent can never read a half-armed fault.
    tmp = os.path.join(directory, f".plan.tmp{os.getpid()}")
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(payload)
    os.replace(tmp, os.path.join(directory, _PLAN_FILE))


def clear_file_fault(root) -> None:
    """Disarm any file-armed plan and remove all tokens, fired or not."""
    directory = _fault_dir(root)
    try:
        names = os.listdir(directory)
    except OSError:
        return
    for name in names:
        try:
            os.unlink(os.path.join(directory, name))
        except OSError:  # pragma: no cover - raced another cleaner
            continue


def claim_file_fault(root, candidates) -> FaultPlan | None:
    """Agent-side hook: the armed plan if it matches and a token remains.

    ``candidates`` is the claimed chunk's candidate-index collection.
    Claiming consumes one token file by atomic rename; with no tokens
    left (or no plan, or no match) nothing fires.
    """
    directory = _fault_dir(root)
    try:
        with open(os.path.join(directory, _PLAN_FILE), encoding="utf-8") as fh:
            data = json.loads(fh.read())
        plan = FaultPlan(
            kind=data["kind"],
            candidate=data["candidate"],
            delay_s=float(data["delay_s"]),
            times=int(data["times"]),
        )
    except (OSError, ValueError, KeyError, SearchError):
        return None  # disarmed, torn, or foreign: never fault spuriously
    if plan.candidate not in set(candidates):
        return None
    try:
        names = sorted(os.listdir(directory))
    except OSError:  # pragma: no cover - directory vanished mid-claim
        return None
    for name in names:
        if not name.startswith("token-") or ".fired" in name:
            continue
        token = os.path.join(directory, name)
        try:
            os.rename(token, f"{token}.fired-{os.getpid()}")
        except OSError:
            continue  # another agent claimed it first
        return plan
    return None

