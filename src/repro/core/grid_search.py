"""FLOPs-ordered grid search (paper sections III-E/F).

The paper's trick for taming exhaustive search: sort all candidate
architectures by (statically computed) FLOPs *before* training anything,
then train in ascending order and stop at the first candidate whose
averaged max-over-epochs train **and** validation accuracies reach the
threshold.  The first success is, by construction, the cheapest
successful model.

Every execution mode commits through one
:class:`~repro.runtime.frontier.SearchFrontier`: ``workers=1`` trains
in-process, ``workers > 1`` fans the (candidate, run) training jobs out
across a process pool (:mod:`repro.runtime.parallel`), and ``spool=`` /
``connect=`` shard them across hosts.  Candidates are always committed
in FLOPs order, the winner is always the cheapest pass, and every run
uses the same ``(seed, candidate, run)``-derived RNG stream, so the
returned :class:`SearchOutcome` is identical in every mode.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from ..data.splits import DataSplit
from ..exceptions import SearchError
from ..flops.conventions import CountingConvention, get_convention
from ..runtime.frontier import SearchEvent, SearchFrontier
from ..runtime.jobs import RunResult
from .search_space import ModelSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..runtime.pool import PersistentPool

__all__ = [
    "TrainingSettings",
    "CandidateResult",
    "SearchOutcome",
    "rank_by_flops",
    "aggregate_runs",
    "grid_search",
    "plan_group",
    "MAX_GROUP_CANDIDATES",
    "MAX_ADAPTIVE_GROUP",
    "GROUP_LOOKAHEAD",
]

#: Candidates fused into one cross-candidate sweep are capped: the
#: whole group trains speculatively once its first member's turn comes,
#: so the cap bounds the work discarded when that member passes.
MAX_GROUP_CANDIDATES = 4

#: How far past the commit frontier the in-process executor scans for
#: same-key candidates to group.  Non-matching candidates in
#: between are skipped (they commit from their own, later groups).
GROUP_LOOKAHEAD = 8

#: Member ceiling for budget-driven group growth.  An *explicit* memory
#: budget (``TrainingSettings.memory_budget`` / ``REPRO_MEMORY_BUDGET``)
#: lets :func:`plan_group` grow past :data:`MAX_GROUP_CANDIDATES` while
#: the predicted group bytes stay under budget, but never past the
#: lookahead window — speculation stays bounded by rank distance.
MAX_ADAPTIVE_GROUP = GROUP_LOOKAHEAD + 1


@dataclass(frozen=True)
class TrainingSettings:
    """How each candidate run is trained (paper defaults).

    ``vectorized_runs`` selects the run-stacked execution mode: a
    candidate's whole run set trains as one
    :class:`~repro.nn.training.VectorizedTrainer` sweep (bit-identical
    metrics, one kernel sweep instead of ``runs``).  Models that cannot
    be stacked fall back to per-run training automatically; results are
    the same either way, only wall time changes.

    ``return_histories`` keeps each run's full per-epoch
    :class:`~repro.nn.training.History` on its
    :class:`~repro.runtime.jobs.RunResult` (and on
    :attr:`CandidateResult.histories`) instead of dropping it after the
    max-over-epochs metrics are extracted.

    ``stacked_candidates`` lets an in-process search merge the run sets
    of the next candidates of one family and data shape (equal
    :meth:`~repro.core.search_space.ModelSpec.group_key`) into one
    cross-candidate fused sweep: the layers every member shares at the
    input and output end run once over all of them, the rest per
    candidate.  Speculative, bounded by :data:`MAX_GROUP_CANDIDATES`.
    ``compact_frozen`` drops
    early-stopped runs' rows from subsequent stacked sweeps instead of
    masking them.  Results are bit-identical with either knob on or
    off; only wall time changes.

    The remaining knobs configure the parallel scheduler's *fault
    tolerance* (chunks are deterministic, so none of them can change
    results — see ``docs/parallel_runtime.md``):

    - ``max_retries``: how many times a chunk lost to a worker death,
      hard timeout, or runtime error is re-executed before the search
      gives up on the pool.
    - ``fallback_sequential``: on retry exhaustion, finish the
      remaining candidates in-process (the ``workers=1`` executor,
      with grouping and the OOM ladder) instead of raising.  Disable
      when a candidate is suspected of *killing* its process (an
      in-process rerun would kill the driver).
    - ``chunk_timeout_s``: absolute per-chunk deadline (submission to
      completion).  ``None`` derives deadlines from measured cost:
      ``chunk_deadline_factor`` x the cost model's seconds estimate,
      floored at ``chunk_deadline_floor_s`` — and only once the model
      is calibrated.
    - ``watchdog_interval_s``: how often the scheduler checks worker
      liveness and deadlines while idle (``None`` = runtime default,
      10s).

    ``backend`` selects the array backend the stacked sweeps execute on
    (``"numpy"``, ``"torch"``, ``"cupy"``; ``None`` defers to the
    ``REPRO_BACKEND`` environment variable, then the process default,
    then NumPy).  Only the NumPy backend is bit-exact; device backends
    are tolerance-grade (see ``docs/backends.md``).  A requested
    backend whose library is unimportable falls back to NumPy with a
    ``backend-fallback`` :class:`~repro.runtime.parallel.SearchEvent`.

    ``memory_budget`` caps the predicted concurrent working-set bytes
    of fused sweeps and in-flight chunks (``--memory-budget`` on the
    CLI).  ``None`` defers to the ``REPRO_MEMORY_BUDGET`` environment
    variable, then to a fraction of the backend's free-memory probe; a
    non-positive value disables governance.  An *explicit* budget also
    unlocks group growth past :data:`MAX_GROUP_CANDIDATES` when groups
    are predicted cheap.  Budgets shape wall time and allocation only —
    splitting and the scalar fallback are bit-identity-preserving, so
    the :class:`SearchOutcome` never changes (see
    ``docs/parallel_runtime.md``, "Memory governance").
    """

    epochs: int = 100
    batch_size: int = 8
    learning_rate: float = 0.001
    runs: int = 5
    early_stop_threshold: float | None = None
    vectorized_runs: bool = True
    return_histories: bool = False
    stacked_candidates: bool = True
    compact_frozen: bool = True
    max_retries: int = 2
    fallback_sequential: bool = True
    chunk_timeout_s: float | None = None
    chunk_deadline_factor: float = 8.0
    chunk_deadline_floor_s: float = 30.0
    watchdog_interval_s: float | None = None
    backend: str | None = None
    memory_budget: float | None = None


@dataclass
class CandidateResult:
    """Aggregated outcome of the runs of one candidate architecture.

    ``histories`` is populated (one entry per run, in run order) only
    when :attr:`TrainingSettings.return_histories` is set.
    """

    spec: ModelSpec
    flops: int
    params: int
    train_accuracies: list[float] = field(default_factory=list)
    val_accuracies: list[float] = field(default_factory=list)
    epochs_run: list[int] = field(default_factory=list)
    wall_time_s: float = 0.0
    histories: list = field(default_factory=list)

    @property
    def mean_train_accuracy(self) -> float:
        return float(np.mean(self.train_accuracies))

    @property
    def mean_val_accuracy(self) -> float:
        return float(np.mean(self.val_accuracies))

    def passes(self, threshold: float) -> bool:
        """The paper's success condition: both averages >= threshold."""
        return (
            self.mean_train_accuracy >= threshold
            and self.mean_val_accuracy >= threshold
        )


@dataclass
class SearchOutcome:
    """Result of one grid search at one complexity level."""

    threshold: float
    winner: CandidateResult | None
    evaluated: list[CandidateResult] = field(default_factory=list)

    @property
    def succeeded(self) -> bool:
        return self.winner is not None

    @property
    def candidates_trained(self) -> int:
        return len(self.evaluated)


def rank_by_flops(
    specs: Sequence[ModelSpec],
    convention: str | CountingConvention = "paper",
) -> list[ModelSpec]:
    """Sort ascending by FLOPs; ties broken by parameter count then label
    (fully deterministic)."""
    conv = get_convention(convention)
    return sorted(
        specs, key=lambda s: (s.flops(conv), s.param_count, s.label)
    )


def aggregate_runs(
    spec: ModelSpec,
    convention: CountingConvention,
    run_results: Sequence[RunResult],
) -> CandidateResult:
    """Fold per-run results (in run order) into one :class:`CandidateResult`.

    Called by :meth:`repro.runtime.frontier.SearchFrontier.offer` once a
    candidate's runs are all in, so aggregation is deterministic
    regardless of run completion order.
    """
    result = CandidateResult(
        spec=spec, flops=spec.flops(convention), params=spec.param_count
    )
    for rr in run_results:
        result.train_accuracies.append(rr.train_accuracy)
        result.val_accuracies.append(rr.val_accuracy)
        result.epochs_run.append(rr.epochs_run)
        result.wall_time_s += rr.wall_time_s
        if rr.history is not None:
            result.histories.append(rr.history)
    return result


def plan_group(
    ranked: Sequence[ModelSpec],
    index: int,
    settings: TrainingSettings,
    skip: "frozenset[int] | set[int]" = frozenset(),
    *,
    budget=None,
) -> list[int]:
    """Candidate indices to train as one fused sweep, anchored at ``index``.

    Scans up to :data:`GROUP_LOOKAHEAD` candidates past the anchor for
    equal non-``None`` group keys, capped at
    :data:`MAX_GROUP_CANDIDATES` members; ``skip`` holds indices whose
    results already exist (earlier speculation).  Grouping never
    changes results — members are committed strictly in rank order and
    anything past a winner is discarded — so the plan only shapes wall
    time.

    ``budget`` (a resolved :class:`~repro.runtime.memory.MemoryBudget`)
    makes the plan memory-governed: members are admitted only while the
    group's predicted peak bytes
    (:func:`~repro.runtime.memory.estimate_candidate_bytes`) fit, so an
    overweight group shrinks — down to the anchor alone.  An *explicit*
    budget additionally raises the member ceiling to
    :data:`MAX_ADAPTIVE_GROUP`, growing predicted-cheap groups past the
    legacy cap (still lookahead-bounded).
    """
    if not (settings.stacked_candidates and settings.vectorized_runs):
        return [index]
    key = ranked[index].group_key()
    if key is None:
        return [index]
    active = budget is not None and budget.active
    cap = (
        MAX_ADAPTIVE_GROUP
        if active and budget.explicit
        else MAX_GROUP_CANDIDATES
    )
    group_bytes = 0
    if active:
        from ..runtime.memory import estimate_candidate_bytes

        group_bytes = estimate_candidate_bytes(
            ranked[index], settings.batch_size, settings.runs
        )
    group = [index]
    limit = min(len(ranked), index + 1 + GROUP_LOOKAHEAD)
    for j in range(index + 1, limit):
        if len(group) >= cap:
            break
        if j in skip:
            continue
        if ranked[j].group_key() != key:
            continue
        if active:
            member_bytes = estimate_candidate_bytes(
                ranked[j], settings.batch_size, settings.runs
            )
            if group_bytes + member_bytes > budget.bytes:
                break
            group_bytes += member_bytes
        group.append(j)
    return group


def grid_search(
    specs: Sequence[ModelSpec],
    split: DataSplit,
    threshold: float = 0.90,
    settings: TrainingSettings | None = None,
    convention: str | CountingConvention = "paper",
    seed: int = 0,
    max_candidates: int | None = None,
    progress: Callable[[CandidateResult], None] | None = None,
    workers: int | None = 1,
    pool: "PersistentPool | None" = None,
    journal: "str | None" = None,
    on_event: Callable[..., None] | None = None,
    spool: "str | None" = None,
    connect: "str | None" = None,
) -> SearchOutcome:
    """Run the FLOPs-sorted search.

    Parameters
    ----------
    specs:
        The search space (any order; ranked internally).
    split:
        Train/validation data for this complexity level.
    threshold:
        Accuracy both averaged metrics must reach (paper: 0.90).
    settings:
        Per-candidate training configuration.
    seed:
        Base seed; run ``r`` of candidate ``c`` uses ``(seed, c, r)``
        derived streams, so searches are reproducible.
    max_candidates:
        Optional cap on how many candidates may be trained (reduced
        profiles); ``None`` trains until success or exhaustion.
    progress:
        Optional callback invoked after each candidate (commit order,
        i.e. FLOPs order, under either execution mode).
    workers:
        ``1`` (default) trains in-process
        (:meth:`repro.runtime.frontier.SearchFrontier.run_in_process`).
        ``> 1`` fans (candidate, run) jobs out across that many worker
        processes with speculative FLOPs-order commit semantics
        (:class:`repro.runtime.parallel.Scheduler` on a
        :class:`~repro.runtime.parallel.PoolExecutor`); ``None``
        or ``0`` uses all available cores.  The outcome is identical in
        either mode (only ``wall_time_s`` values differ).
    pool:
        An optional :class:`repro.runtime.pool.PersistentPool` to run
        the parallel search on.  When given it takes precedence over
        ``workers``: warm workers are reused (no per-search pool
        spin-up) and the dataset is served to workers from shared
        memory, published at most once per (pool, split).  The caller
        owns the pool's lifetime.  Results are identical with or
        without a pool.
    journal:
        Optional path to a JSONL checkpoint journal
        (:class:`repro.runtime.journal.SearchJournal`).  Every
        committed candidate is appended durably; rerunning the same
        configuration against the same journal skips the completed
        prefix (replaying it through ``progress``) and produces an
        outcome bit-identical to an uninterrupted run.  A journal
        written under a different configuration is ignored (records are
        keyed by a config hash).  Incompatible with
        ``settings.return_histories`` (histories are not journaled).
    on_event:
        Optional callback receiving a
        :class:`repro.runtime.frontier.SearchEvent` for every execution
        decision: ``backend-fallback`` (any mode), ``group-resize`` and
        ``memory-degrade`` (any mode, including ``workers=1``), and the
        distributed modes' fault-tolerance decisions (worker loss,
        retry, deadline warning/timeout, sequential fallback, lease
        expiry...).
    spool:
        Optional path to a shared-filesystem spool directory (or a
        :class:`repro.runtime.cluster.SpoolConfig`).  When given, the
        search's scheduler runs on a
        :class:`repro.runtime.cluster.SpoolExecutor`: chunks are
        leased to ``repro cluster-agent`` processes — on this or any
        host sharing the filesystem — instead of local pool workers,
        and ``workers``/``pool`` are ignored.  The outcome is
        bit-identical to the sequential baseline regardless of agent
        count or failures; losing every agent finishes the search
        in-process.  An execution knob like ``workers``: it never
        affects results.
    connect:
        Optional ``HOST:PORT`` to bind (or a
        :class:`repro.runtime.cluster_tcp.TcpConfig`).  When given, the
        search's scheduler runs on a
        :class:`repro.runtime.cluster_tcp.TcpExecutor`: chunks
        are leased to ``repro cluster-agent --connect`` processes over
        checksummed socket frames — no shared filesystem required —
        instead of local pool workers, and ``workers``/``pool`` are
        ignored.  Same guarantee as ``spool``: the outcome is
        bit-identical to the sequential baseline regardless of agent
        count, disconnects, or partitions; losing every agent finishes
        the search in-process.  Mutually exclusive with ``spool``.

    Returns
    -------
    SearchOutcome
        ``winner`` is the first (lowest-FLOPs) passing candidate, or
        ``None`` if the space (or the cap) was exhausted.
    """
    if not specs:
        raise SearchError("empty search space")
    if spool is not None and connect is not None:
        raise SearchError(
            "spool= and connect= are mutually exclusive: pick one "
            "cluster transport (shared-filesystem spool or TCP)"
        )
    settings = settings or TrainingSettings()
    if settings.runs < 1:
        raise SearchError(f"settings.runs must be >= 1, got {settings.runs}")
    # Resolve the array backend once up front: an unknown name raises
    # here (typo = configuration bug), and an unimportable backend
    # emits a single structured fallback event — the per-job resolution
    # in the runtime then falls back silently and consistently.
    from ..backends import resolve_backend

    _, backend_fallback = resolve_backend(settings.backend)
    if backend_fallback is not None and on_event is not None:
        on_event(
            SearchEvent(kind="backend-fallback", message=backend_fallback)
        )
    conv = get_convention(convention)
    ranked = rank_by_flops(specs, conv)
    if max_candidates is not None:
        ranked = ranked[:max_candidates]

    # Checkpoint/resume: the frontier replays the journal's committed
    # prefix through the normal commit path — same progress sequence,
    # same early-stop check — and whichever execution mode runs the
    # rest continues from its commit position.
    search_journal = None
    if journal is not None:
        if settings.return_histories:
            raise SearchError(
                "journal= cannot be combined with "
                "settings.return_histories: journal records drop "
                "per-epoch histories, so a resumed outcome could not "
                "be bit-identical"
            )
        from ..runtime.journal import SearchJournal, search_key

        search_journal = SearchJournal(
            journal, search_key(ranked, split, threshold, settings, conv, seed)
        )
    frontier = SearchFrontier(
        ranked,
        threshold,
        conv,
        settings.runs,
        progress=progress,
        journal=search_journal,
    )
    if frontier.resume():
        return frontier.outcome

    from ..runtime.parallel import (
        PoolExecutor,
        resolve_workers,
        speculative_search,
    )

    if spool is not None:
        from ..runtime.cluster import SpoolExecutor

        executor = SpoolExecutor(spool)
    elif connect is not None:
        from ..runtime.cluster_tcp import TcpExecutor

        executor = TcpExecutor(connect)
    elif pool is not None or resolve_workers(workers) > 1:
        executor = PoolExecutor(pool, resolve_workers(workers))
    else:
        return frontier.run_in_process(split, settings, seed, on_event)
    return speculative_search(
        frontier, split, settings, seed, executor, on_event
    )
