"""Parallel search runtime.

Process-pool execution of grid-search training jobs with speculative
FLOPs-order semantics: results are bit-identical to the sequential
search (same winner, same per-run accuracies, same evaluated order)
while the embarrassingly parallel (candidate, run) training work fans
out across workers.

:mod:`repro.runtime.pool` provides the persistent worker pool — spun up
once, reused across every grid search of a protocol run — the
shared-memory dataset protocol (workers attach to published
:class:`~repro.data.splits.DataSplit` segments zero-copy), and the
measured-cost model behind adaptive chunk packing.
:mod:`repro.runtime.parallel` is the speculative scheduler with
cost-aware job packing and fault-tolerant supervision (chunk retry,
duplicate dropping, sequential fallback) over a small executor
protocol, plus the pool executor (generations, worker watchdog,
deadlines), and :mod:`repro.runtime.jobs`
holds the shared run primitives — scalar
:func:`~repro.runtime.jobs.execute_job`, the run-stacked
:func:`~repro.runtime.jobs.execute_runs` that trains a candidate's
whole run set in one vectorized sweep, and the one OOM recovery ladder
over them (:func:`~repro.runtime.jobs.chunk_entries`).
:mod:`repro.runtime.frontier` is the FLOPs-order commit frontier every
execution mode shares, including the in-process executor that is both
``workers=1`` and every mode's graceful-degradation floor.

:mod:`repro.runtime.journal` persists every committed candidate to a
JSONL checkpoint so interrupted searches resume bit-identically, and
:mod:`repro.runtime.faults` provides the deterministic fault-injection
hooks (worker kill, chunk delay, chunk-runner error, agent kill,
connection drop, partition, stalled frame) the fault-tolerance tests
drive real process death with.

:mod:`repro.runtime.cluster_tcp` is the executor that shards one search
across hosts over a listening socket (checksummed frames, connection
leases, heartbeat liveness, reconnect with backoff, partition
tolerance), and :mod:`repro.runtime.backoff` is the shared capped
decorrelated-jitter retry policy every retry path sleeps through.
"""

from .backoff import Backoff
from .cluster_tcp import AgentStats, TcpConfig, TcpExecutor, run_tcp_agent
from .faults import FaultPlan
from .frontier import SearchFrontier
from .jobs import (
    RunResult,
    TrainingJob,
    execute_candidates,
    execute_job,
    execute_runs,
)
from .journal import SearchJournal, search_key
from .parallel import (
    SPECULATION_FACTOR,
    PoolExecutor,
    Scheduler,
    SearchEvent,
    resolve_workers,
    speculative_search,
)
from .pool import (
    ChunkCostModel,
    PersistentPool,
    SharedSplitHandle,
    attach_split,
    publish_split,
    sweep_stale_segments,
)

__all__ = [
    "TrainingJob",
    "RunResult",
    "execute_job",
    "execute_runs",
    "execute_candidates",
    "resolve_workers",
    "speculative_search",
    "Scheduler",
    "PoolExecutor",
    "SearchEvent",
    "SearchFrontier",
    "SPECULATION_FACTOR",
    "PersistentPool",
    "SharedSplitHandle",
    "ChunkCostModel",
    "publish_split",
    "attach_split",
    "sweep_stale_segments",
    "FaultPlan",
    "SearchJournal",
    "search_key",
    "Backoff",
    "AgentStats",
    "TcpConfig",
    "TcpExecutor",
    "run_tcp_agent",
]
