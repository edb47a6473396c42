"""Deterministic fault injection for the parallel search runtime.

Fault tolerance is only trustworthy if every failure path is exercised
by *real* process death, not by mocks: a worker that is ``kill -9``-ed
mid-chunk goes through the same ``multiprocessing.Pool`` respawn, the
same lost-callback hole and the same watchdog detection as a production
OOM kill.  This module provides hook-based faults that workers execute
on themselves, armed by the parent through the pool's shared control
segment (the same 4 KiB segment that carries the cancellation floor —
see :mod:`repro.runtime.pool`):

* ``kill`` — the worker SIGKILLs itself at the start of a matching
  chunk, exactly the signal an OOM killer sends;
* ``delay`` — the worker sleeps before executing a matching chunk,
  pushing it past its scheduler deadline;
* ``corrupt-result`` — the worker ships a shared-memory result handle
  whose segment holds garbage, exercising the parent's result-inflation
  error path;
* ``oom`` — the worker raises :class:`MemoryError` at the start of a
  matching chunk's fused sweep, exercising the memory-governance
  recovery ladder (group halving, per-candidate, scalar — see
  :mod:`repro.runtime.pool`) rather than the crash/retry machinery.

A plan matches either a specific ``candidate`` index (fully
deterministic regardless of worker count or scheduling) or the Nth
chunk execution counted across all workers (``after_chunks``; the
counter lives in the control segment and is exact for one worker,
best-effort under concurrent increments).  ``times`` bounds how often
the plan fires, so a killed chunk's *retry* runs clean — which is what
lets a test assert the retried search's outcome is bit-identical to the
fault-free one.

Faults never fire outside an armed plan: with the plan region zeroed
(the default), :func:`maybe_fire` is one 4-byte read per chunk.

The TCP cluster transport (:mod:`repro.runtime.cluster_tcp`) has its
own fault kinds — shared memory does not cross hosts, so its plans are
armed as *files* in a directory every agent can read (its
``fault_dir``) instead of control-segment bytes:

* ``host-kill`` — the agent SIGKILLs itself right after claiming a
  matching chunk, exercising lease expiry and chunk re-enqueue;
* ``conn-drop`` — the agent writes half its result frame and then
  closes the connection, exercising mid-frame torn-delivery detection,
  dead-connection requeue and agent reconnect with backoff;
* ``partition`` — the agent suspends its heartbeat frames for
  ``delay_s`` while holding its finished result (the connection looks
  silent, not closed), lets the coordinator expire the lease and
  re-issue the chunk, then resumes and delivers the now-duplicate
  result, exercising first-commit-wins dedup over sockets;
* ``slow-frame`` — the agent stalls mid-result-frame for ``delay_s``,
  exercising the coordinator's per-frame read timeout.

``times`` is enforced cross-process by one-shot token files claimed via
atomic rename (:func:`claim_file_fault`), so a retried chunk runs clean
on any host.
"""

from __future__ import annotations

import json
import os
import signal
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..exceptions import SearchError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .pool import JobChunk, ShmResultHandle

__all__ = [
    "FaultPlan",
    "KILL",
    "DELAY",
    "CORRUPT_RESULT",
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
CORRUPT_RESULT = "corrupt-result"
OOM = "oom"
HOST_KILL = "host-kill"
CONN_DROP = "conn-drop"
PARTITION = "partition"
SLOW_FRAME = "slow-frame"
#: Every kind armed as one-shot token files rather than control-segment
#: bytes: the TCP agents' kinds.
_FILE_KINDS = (HOST_KILL, CONN_DROP, PARTITION, SLOW_FRAME)
_KINDS = (KILL, DELAY, CORRUPT_RESULT, OOM) + _FILE_KINDS

# Control-segment layout.  Byte 0 onward is owned by the cancellation
# protocol (an 8-byte generation floor, see pool._cancel_floor); the
# fault region sits behind it so arming a fault never perturbs
# cancellation and vice versa.
CTRL_SIZE = 4096
_COUNTER_OFF = 8  # u64: chunks started while a plan was armed
_FIRED_OFF = 16  # u64: how often the plan has fired
_PLAN_LEN_OFF = 24  # u32: length of the JSON plan (0 = disarmed)
_PLAN_OFF = 32
_PLAN_MAX = CTRL_SIZE - _PLAN_OFF


@dataclass(frozen=True)
class FaultPlan:
    """One deterministic fault, armed via :meth:`PersistentPool.install_fault`.

    ``candidate`` targets any chunk carrying that candidate index;
    when ``None``, the plan fires on the ``after_chunks``-th chunk
    execution (1-based, counted across workers).  ``times`` caps the
    number of firings; the plan is inert afterwards, so retried chunks
    run clean.
    """

    kind: str
    candidate: int | None = None
    after_chunks: int = 1
    delay_s: float = 0.0
    times: int = 1

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise SearchError(
                f"unknown fault kind {self.kind!r}; options: {_KINDS}"
            )
        if self.times < 1:
            raise SearchError(f"fault times must be >= 1, got {self.times}")


def _read_u64(buf, off: int) -> int:
    return int.from_bytes(buf[off : off + 8], "little")


def _write_u64(buf, off: int, value: int) -> None:
    buf[off : off + 8] = value.to_bytes(8, "little")


def install(buf, plan: FaultPlan) -> None:
    """Arm ``plan`` in a control segment (parent side)."""
    payload = json.dumps(
        {
            "kind": plan.kind,
            "candidate": plan.candidate,
            "after_chunks": plan.after_chunks,
            "delay_s": plan.delay_s,
            "times": plan.times,
        }
    ).encode()
    if len(payload) > _PLAN_MAX:  # pragma: no cover - plans are tiny
        raise SearchError("fault plan too large for the control segment")
    _write_u64(buf, _COUNTER_OFF, 0)
    _write_u64(buf, _FIRED_OFF, 0)
    # Plan bytes land before the length field becomes non-zero, so a
    # worker can never parse a half-written plan.
    buf[_PLAN_OFF : _PLAN_OFF + len(payload)] = payload
    buf[_PLAN_LEN_OFF : _PLAN_LEN_OFF + 4] = len(payload).to_bytes(4, "little")


def clear(buf) -> None:
    """Disarm any plan and reset the counters (parent side)."""
    buf[_PLAN_LEN_OFF : _PLAN_LEN_OFF + 4] = (0).to_bytes(4, "little")
    _write_u64(buf, _COUNTER_OFF, 0)
    _write_u64(buf, _FIRED_OFF, 0)


def read_plan(buf) -> FaultPlan | None:
    """The armed plan, or ``None`` (worker side)."""
    length = int.from_bytes(buf[_PLAN_LEN_OFF : _PLAN_LEN_OFF + 4], "little")
    if length == 0:
        return None
    try:
        data = json.loads(bytes(buf[_PLAN_OFF : _PLAN_OFF + length]))
        return FaultPlan(
            kind=data["kind"],
            candidate=data["candidate"],
            after_chunks=int(data["after_chunks"]),
            delay_s=float(data["delay_s"]),
            times=int(data["times"]),
        )
    except (ValueError, KeyError, SearchError):  # pragma: no cover
        return None  # torn or foreign write: never fault spuriously


def maybe_fire(buf, chunk: "JobChunk") -> str | None:
    """Worker-side hook, called once per live chunk execution.

    Returns the fired kind for faults the caller must act on (``delay``
    already slept; ``corrupt-result`` asks the caller to ship garbage;
    ``oom`` asks the caller to raise :class:`MemoryError` at the start
    of the chunk's first fused sweep), ``None`` when nothing fired.  A
    ``kill`` fault does not return.
    """
    plan = read_plan(buf)
    if plan is None:
        return None
    count = _read_u64(buf, _COUNTER_OFF) + 1
    _write_u64(buf, _COUNTER_OFF, count)
    if plan.candidate is not None:
        matched = any(
            job.candidate_index == plan.candidate for job in chunk.jobs
        )
    else:
        matched = count >= plan.after_chunks
    if not matched:
        return None
    fired = _read_u64(buf, _FIRED_OFF)
    if fired >= plan.times:
        return None
    _write_u64(buf, _FIRED_OFF, fired + 1)
    if plan.kind == KILL:
        # The real thing: an uncatchable SIGKILL mid-chunk, exactly what
        # the OOM killer delivers.  The chunk's callbacks never fire.
        os.kill(os.getpid(), signal.SIGKILL)
    if plan.kind == DELAY:
        time.sleep(plan.delay_s)
    return plan.kind


def corrupt_shipment(nbytes: int = 64) -> "ShmResultHandle":
    """A result handle whose segment holds garbage (worker side).

    The parent's result inflation (`pool._receive_result`) attaches,
    fails to unpickle, unlinks the segment and routes the error to the
    search's error callback — the same path a worker crash mid-result
    takes in production.
    """
    from .pool import ShmResultHandle, _create_named_segment

    shm = _create_named_segment("flt", nbytes)
    shm.buf[:nbytes] = (b"\xde\xad\xbe\xef" * (nbytes // 4 + 1))[:nbytes]
    shm.close()
    return ShmResultHandle(segment=shm.name, nbytes=nbytes)


# -- file-armed faults (cluster agents) -------------------------------------

_FAULT_DIR = "faults"
_PLAN_FILE = "plan.json"


def _fault_dir(root) -> str:
    return os.path.join(os.fspath(root), _FAULT_DIR)


def arm_file_fault(root, plan: FaultPlan) -> None:
    """Arm one deterministic cluster fault under ``root`` (test/parent side).

    Writes ``faults/plan.json`` plus ``plan.times`` one-shot token files;
    an agent (whose ``fault_dir`` is ``root``) only fires after claiming
    a token by atomic rename, so the firing bound holds across any
    number of agent processes and hosts.  File-armed plans must target
    a ``candidate`` — chunk-counting order is not deterministic across
    hosts.
    """
    if plan.kind not in _FILE_KINDS:
        raise SearchError(
            f"fault kind {plan.kind!r} cannot be file-armed; "
            f"options: {_FILE_KINDS}"
        )
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

