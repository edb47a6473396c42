"""Parallel search runtime.

Execution of grid-search training jobs with speculative FLOPs-order
semantics: results are bit-identical to the sequential search (same
winner, same per-run accuracies, same evaluated order) while the
embarrassingly parallel (candidate, run) training work fans out across
agents.

:mod:`repro.runtime.parallel` is the speculative scheduler with
cost-aware job packing (the measured
:class:`~repro.runtime.parallel.ChunkCostModel`), chunk deadlines and
fault-tolerant supervision (chunk retry, duplicate dropping, sequential
fallback) over a small executor protocol.
:mod:`repro.runtime.cluster_tcp` is the one transport under it: a
:class:`~repro.runtime.cluster_tcp.Coordinator` that leases chunks over
checksummed TCP frames (signed with a per-pool key for local agents)
to agents that dial in (connection leases, heartbeat liveness,
per-chunk cancel, reconnect with backoff, partition tolerance), and
the :class:`~repro.runtime.cluster_tcp.TcpExecutor`
that runs one search on it.  :mod:`repro.runtime.pool` provides the
persistent local pool — a loopback coordinator plus the agent processes
it starts itself, spun up once and reused across every grid search of
a protocol run.  :mod:`repro.runtime.jobs` holds the shared run
primitives — the chunk an agent trains, scalar
:func:`~repro.runtime.jobs.execute_job`, the stacked
:func:`~repro.runtime.jobs.execute_candidates` that trains one or more
candidates' whole run sets in one fused sweep (one candidate's:
:func:`~repro.runtime.jobs.execute_runs`), and the one OOM recovery
ladder over them (:func:`~repro.runtime.jobs.chunk_entries`).
:mod:`repro.runtime.frontier` is the FLOPs-order commit frontier every
execution mode shares, including the in-process executor that is both
``workers=1`` and every mode's graceful-degradation floor.

:mod:`repro.runtime.journal` persists every committed candidate to a
JSONL checkpoint so interrupted searches resume bit-identically,
:mod:`repro.runtime.faults` provides the deterministic file-armed fault
hooks (agent kill, chunk delay, chunk-runner error, out-of-memory,
connection drop, partition, stalled frame) the fault-tolerance tests
drive real failures with, and :mod:`repro.runtime.backoff` is the
shared capped decorrelated-jitter retry policy every retry path sleeps
through.
"""

from .backoff import Backoff
from .cluster_tcp import (
    AgentStats,
    Coordinator,
    TcpConfig,
    TcpExecutor,
    run_tcp_agent,
)
from .faults import FaultPlan
from .frontier import SearchFrontier
from .jobs import (
    ChunkResult,
    JobChunk,
    RunResult,
    TrainingJob,
    execute_candidates,
    execute_job,
    execute_runs,
)
from .journal import SearchJournal, search_key
from .parallel import (
    SPECULATION_FACTOR,
    ChunkCostModel,
    Scheduler,
    SearchEvent,
    resolve_workers,
    speculative_search,
)
from .pool import PersistentPool

__all__ = [
    "TrainingJob",
    "RunResult",
    "JobChunk",
    "ChunkResult",
    "execute_job",
    "execute_runs",
    "execute_candidates",
    "resolve_workers",
    "speculative_search",
    "Scheduler",
    "SearchEvent",
    "SearchFrontier",
    "SPECULATION_FACTOR",
    "PersistentPool",
    "ChunkCostModel",
    "FaultPlan",
    "SearchJournal",
    "search_key",
    "Backoff",
    "AgentStats",
    "Coordinator",
    "TcpConfig",
    "TcpExecutor",
    "run_tcp_agent",
]
