"""Process-pool scheduler with speculative FLOPs-order semantics.

The paper's search trains candidates strictly in ascending-FLOPs order
and stops at the first pass, which makes the *decision* sequential even
though the *work* — ``runs`` independent trainings per candidate, each
on its own ``(seed, candidate, run)``-derived RNG stream — is
embarrassingly parallel.  The scheduler exploits that gap:

* work is submitted to a worker pool in bounded-lookahead **chunks**
  (*speculation*: workers may train candidate ``i + k`` before candidate
  ``i``'s verdict is known); each chunk batches consecutive runs of one
  candidate so a single worker invocation shares one dataset attachment
  and one compiled tape across its runs — and, with candidate stacking,
  waiting chunks of candidates with structurally identical tapes merge
  into one multi-candidate chunk the worker trains as a single
  cross-candidate fused sweep;

* within the speculation window, chunks are submitted
  **most-expensive-first** (FLOPs-aware packing): training time scales
  with a candidate's FLOPs, so starting the window's longest jobs first
  minimizes the window's makespan — the classic longest-processing-time
  heuristic.  Submission order never affects results, only wall time,
  because of the commit rule below;

* finished runs are buffered and candidates are **committed strictly in
  FLOPs order** — a candidate's verdict (pass, fail, or even a training
  error) is only acted upon once every cheaper candidate has been
  committed, so a crash in a speculatively-trained expensive candidate
  cannot surface from a search the sequential path would have won
  earlier;

* the first committed pass is the winner (by construction the cheapest,
  exactly as in the sequential path).  In-flight speculative chunks are
  then *cancelled by generation*: queued chunks no-op, running trainings
  abort at the next epoch boundary — and the pool survives for the next
  search instead of being torn down.

The scheduler is also the search's **supervisor**.  Chunks are
deterministic — every run's RNG stream derives from ``(seed, candidate,
run)`` — so a lost chunk can simply be executed again:

* a worker death (OOM kill, segfault; ``multiprocessing.Pool`` silently
  respawns the process and never fires the lost task's callbacks) is
  detected by the pid watchdog; every outstanding chunk is resubmitted
  under a fresh generation, bounded by ``settings.max_retries``;

* each chunk carries a soft/hard **deadline** once the pool's
  :class:`~repro.runtime.pool.ChunkCostModel` has a measured seconds
  scale (or an absolute ``settings.chunk_timeout_s``): overdue chunks
  emit a structured warning, chunks past the hard deadline are cancelled
  via the generation mechanism and retried;

* retry exhaustion degrades gracefully: with
  ``settings.fallback_sequential`` (the default) the remaining
  candidates are trained by the in-process executor
  (:meth:`~repro.runtime.frontier.SearchFrontier.run_in_process`, with
  grouping and the OOM ladder), so the sweep completes — identically —
  instead of dying;

* every supervision decision is surfaced as a :class:`SearchEvent`
  through ``on_event`` (and the ``repro.runtime`` logger).

Execution runs on a :class:`repro.runtime.pool.PersistentPool`.  Pass
one in (``pool=``) to reuse warm workers and published shared-memory
datasets across many searches — the protocol drivers do this — or let
``speculative_search`` create and close an ephemeral one.

The reported :class:`~repro.core.grid_search.SearchOutcome` — winner,
evaluated list, per-run accuracies, progress-callback sequence — is
identical to ``workers=1`` regardless of completion order, chunking,
packing, retries, or a mid-search fallback: commits go through the
same :class:`~repro.runtime.frontier.SearchFrontier` as ``workers=1``,
and every worker runs the same OOM ladder
(:func:`repro.runtime.jobs.chunk_entries`) as the in-process executor.
"""

from __future__ import annotations

import itertools
import logging
import os
import random
import time
from dataclasses import dataclass, replace
from queue import Empty, SimpleQueue
from typing import TYPE_CHECKING, Callable, Sequence

from ..exceptions import SearchError
from .backoff import Backoff
from .frontier import RetriesExhausted, SearchEvent, SearchFrontier
from .jobs import RunError
from .pool import ChunkResult, JobChunk, PersistentPool, make_chunks

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.grid_search import SearchOutcome, TrainingSettings
    from ..data.splits import DataSplit

__all__ = [
    "resolve_workers",
    "speculative_search",
    "SearchEvent",
    "SPECULATION_FACTOR",
]

logger = logging.getLogger("repro.runtime")

#: In-flight chunks are capped at ``SPECULATION_FACTOR * workers``:
#: enough look-ahead to keep every worker busy across uneven run times,
#: small enough to bound the training work discarded when an early
#: candidate passes.
SPECULATION_FACTOR = 2

#: How often (seconds) the scheduler wakes from waiting on completions
#: to check worker liveness and chunk deadlines.
#: ``multiprocessing.Pool`` silently respawns a worker that dies mid-job
#: (OOM kill, native segfault) and the job's callbacks never fire;
#: without this watchdog the search would hang forever on such a loss.
#: ``TrainingSettings.watchdog_interval_s`` overrides it per search.
_WATCHDOG_INTERVAL_S = 10.0

#: Hard deadline as a multiple of the soft deadline when deadlines are
#: derived from the cost model (an absolute ``chunk_timeout_s`` sets
#: both to the same value).
_HARD_DEADLINE_FACTOR = 2.0


@dataclass
class _Flight:
    """One outstanding chunk: identity, provenance, and retry state."""

    chunk: JobChunk
    anchor: int  # candidate index the chunk was queued under
    first_run: int
    attempts: int = 1  # submissions so far (1 = first try)
    submitted_at: float = 0.0  # time.monotonic() of the last submission
    soft_deadline_s: float | None = None
    hard_deadline_s: float | None = None
    warned: bool = False


def resolve_workers(workers: int | None) -> int:
    """Normalize the ``workers`` knob: ``None``/``0`` means all cores."""
    if workers is None or workers == 0:
        return os.cpu_count() or 1
    if workers < 0:
        raise SearchError(f"workers must be >= 0 or None, got {workers}")
    return workers


def speculative_search(
    frontier: SearchFrontier,
    split: "DataSplit",
    settings: "TrainingSettings",
    seed: int,
    workers: int,
    pool: PersistentPool | None = None,
    on_event: Callable[[SearchEvent], None] | None = None,
) -> "SearchOutcome":
    """Parallel grid search from ``frontier``'s commit position.

    Returns a :class:`SearchOutcome` equal to the sequential search's —
    same winner, same ``evaluated`` list (same order, same per-run
    accuracy lists), same ``progress`` call sequence.  Only
    ``wall_time_s`` values differ (they measure actual run time).  A
    training error, too, surfaces exactly when the sequential path would
    hit it: at its candidate's commit turn, and never if a cheaper
    candidate passes first.  Commit, journaling and progress belong to
    the :class:`~repro.runtime.frontier.SearchFrontier`; this scheduler
    only decides what trains where.

    ``pool``: a :class:`~repro.runtime.pool.PersistentPool` to run on.
    When omitted, an ephemeral pool is created and torn down with the
    search (the pre-persistent-pool behaviour); when given, the pool's
    worker count wins over ``workers``, the dataset is published to
    shared memory at most once per pool, and the search leaves the pool
    warm for the caller's next search.  ``on_event`` receives a
    :class:`SearchEvent` for every supervision decision (retry,
    timeout, fallback).
    """
    from ..core.grid_search import MAX_ADAPTIVE_GROUP, MAX_GROUP_CANDIDATES
    from .memory import estimate_candidate_bytes, resolve_memory_budget

    if settings.runs < 1:
        raise SearchError(f"settings.runs must be >= 1, got {settings.runs}")
    if frontier.finished:
        return frontier.outcome
    owns_pool = pool is None
    if owns_pool:
        pool = PersistentPool(workers)
    else:
        workers = pool.workers
    ranked = frontier.ranked
    runs = settings.runs
    max_retries = settings.max_retries
    watchdog_s = (
        settings.watchdog_interval_s
        if settings.watchdog_interval_s is not None
        else _WATCHDOG_INTERVAL_S
    )
    window = max(SPECULATION_FACTOR * workers, workers + 1)
    # Cross-candidate stacking: vectorized chunks of same-structure
    # candidates still waiting for a worker slot are merged into one
    # multi-candidate chunk (one fused sweep on the worker).  Merging is
    # opportunistic — it depends on what is still unsubmitted when a
    # candidate enters the window — which, like packing order, only
    # shapes wall time: every run's arithmetic is bit-identical however
    # its chunk was grouped, and commits stay in FLOPs order.  Stacking
    # makes single-run candidates worth vectorizing too (the group
    # supplies the slices a lone run lacks).
    stacking = settings.vectorized_runs and settings.stacked_candidates
    vectorized = settings.vectorized_runs and (runs > 1 or stacking)
    group_keys = (
        [spec.group_key() for spec in ranked] if stacking else None
    )
    if vectorized:
        # Run-stacked mode: one chunk per candidate carries the whole
        # run set, so a single worker invocation trains all R runs in
        # one stacked sweep.  The candidate lookahead equals the chunk
        # window (one chunk each).
        chunk_size = runs
        lookahead = window
    else:
        # Speculation is bounded in *candidates*, not just in-flight
        # chunks: only candidates within `lookahead` of the commit
        # frontier may be submitted, so the training work discarded on
        # an early pass is capped at ~`window` chunks past the winner
        # even when one cheap candidate trains much slower than
        # everything after it.  The bound still exposes >= `window`
        # submittable chunks (lookahead * runs >= window * chunk), so
        # workers stay busy across uneven run times.
        lookahead = max(1, -(-window // runs))
        # Runs per chunk: 1 unless `runs` is large relative to the
        # window (many runs, few workers), where batching consecutive
        # runs of one candidate into a single submission amortizes IPC
        # and shares one compiled tape per worker invocation without
        # starving any worker — the window always holds >= `window`
        # submittable chunks.
        chunk_size = max(1, (lookahead * runs) // window)
    #: Static per-candidate cost estimates: the same FLOPs the ranking
    #: was computed from seed the packing order below; measured chunk
    #: times refine it through the pool's ChunkCostModel (an EWMA per
    #: candidate label), so later searches on a persistent pool pack by
    #: observed seconds rather than raw FLOPs.
    costs = [spec.flops(frontier.convention) for spec in ranked]
    cost_model = pool.cost_model
    # Memory governance: groups and the in-flight window are sized
    # against this budget.  Sizing never affects results (commits stay
    # in FLOPs order and every execution shape is bit-identical), so
    # the budget only shapes concurrency and group width.
    budget = resolve_memory_budget(settings.memory_budget)
    group_cap = (
        MAX_ADAPTIVE_GROUP
        if budget.active and budget.explicit
        else MAX_GROUP_CANDIDATES
    )

    def candidate_bytes(index: int, n_runs: int) -> float:
        """Predicted working-set bytes for ``n_runs`` of one candidate.

        Prefers the cost model's measured EWMA (fed by worker
        ``ru_maxrss`` readings) and falls back to the analytic
        :func:`~repro.runtime.memory.estimate_candidate_bytes` model
        before any measurement exists.
        """
        measured = cost_model.bytes_estimate(ranked[index].label, n_runs)
        if measured is not None:
            return measured
        return float(
            estimate_candidate_bytes(
                ranked[index], settings.batch_size, n_runs
            )
        )

    def chunk_bytes(job_chunk: JobChunk) -> float:
        return sum(
            candidate_bytes(c, n)
            for c, n in chunk_run_counts(job_chunk).items()
        )

    generation = pool.new_generation()
    handle = pool.acquire_split(split)

    next_unqueued = frontier.next_commit  # next candidate not yet queued
    # Submittable chunks as (candidate_index, first_run, chunk).  The
    # most expensive one is picked at *submit* time — estimates must be
    # priced when the slot frees, not when the chunk was queued, or the
    # first measured chunk would leave stale FLOPs-priced entries
    # competing on a different scale.  The pool is at most
    # `lookahead * ceil(runs/chunk)` entries, so a linear scan is
    # cheaper than keeping a heap consistent with moving estimates.
    # Ties (chunks of one candidate, equal-cost candidates) fall back
    # to (candidate, run) order, keeping submission deterministic for
    # any fixed cost-model state.
    submittable: list[tuple[int, int, JobChunk]] = []
    # In-flight chunks by a stable chunk id.  The id survives retries
    # (a resubmission replaces the flight's chunk but keeps its id), so
    # duplicate completions — a superseded copy finishing after its
    # replacement — are recognized and dropped: a chunk's entries are
    # accepted exactly once no matter how many copies ever ran.
    cid_counter = itertools.count()
    outstanding: dict[int, _Flight] = {}

    # Completions cross from the pool's result-handler thread to this
    # one through a thread-safe queue: (cid, chunk, result, exception).
    completions: SimpleQueue = SimpleQueue()

    # Chunk retries pause with jittered backoff before resubmitting:
    # whatever broke the attempt (a worker riding out memory pressure,
    # a transient result-segment failure) is usually still broken a
    # microsecond later, and an immediate resubmit just burns the retry
    # budget against the same condition.  Seeded for a deterministic
    # delay sequence; delays only shape wall time, never results.
    retry_backoff = Backoff(rng=random.Random(seed))

    def emit(
        kind: str,
        message: str,
        candidates: Sequence[int] = (),
        attempts: int = 0,
    ) -> None:
        logger.warning("%s", message)
        if on_event is not None:
            on_event(
                SearchEvent(
                    kind=kind,
                    message=message,
                    candidates=tuple(candidates),
                    attempts=attempts,
                )
            )

    def chunk_run_counts(job_chunk: JobChunk) -> dict[int, int]:
        """Runs per candidate inside a (possibly merged) chunk."""
        counts: dict[int, int] = {}
        for job in job_chunk.jobs:
            counts[job.candidate_index] = counts.get(job.candidate_index, 0) + 1
        return counts

    def flight_candidates(flight: _Flight) -> list[int]:
        return sorted(chunk_run_counts(flight.chunk))

    def chunk_estimate(job_chunk: JobChunk) -> float:
        """Expected chunk seconds: sum of its candidates' estimates."""
        return sum(
            cost_model.estimate(ranked[c].label, costs[c], n)
            for c, n in chunk_run_counts(job_chunk).items()
        )

    def chunk_deadlines(
        job_chunk: JobChunk,
    ) -> tuple[float | None, float | None]:
        """(soft, hard) deadline seconds for a chunk, or (None, None).

        An absolute ``chunk_timeout_s`` wins.  Otherwise deadlines are
        ``chunk_deadline_factor`` x the cost model's measured seconds
        estimate with a ``chunk_deadline_floor_s`` floor — and only
        exist once the model has a real seconds scale (pre-calibration
        "estimates" are raw FLOPs, meaningless as a time).  The clock
        starts at submission, so deadlines include queue wait; the
        generous factor and floor keep a busy-but-healthy pool from
        tripping them.
        """
        if settings.chunk_timeout_s is not None:
            return settings.chunk_timeout_s, settings.chunk_timeout_s
        estimates = [
            cost_model.seconds_estimate(ranked[c].label, costs[c], n)
            for c, n in chunk_run_counts(job_chunk).items()
        ]
        if any(est is None for est in estimates):
            return None, None
        soft = max(
            settings.chunk_deadline_factor * sum(estimates),
            settings.chunk_deadline_floor_s,
        )
        return soft, _HARD_DEADLINE_FACTOR * soft

    def dispatch(cid: int, flight: _Flight) -> None:
        """(Re)submit a flight's chunk to the pool."""
        flight.submitted_at = time.monotonic()
        flight.warned = False
        flight.soft_deadline_s, flight.hard_deadline_s = chunk_deadlines(
            flight.chunk
        )
        pool.submit(
            flight.chunk,
            callback=lambda res, c=flight.chunk, i=cid: completions.put(
                (i, c, res, None)
            ),
            error_callback=lambda exc, c=flight.chunk, i=cid: completions.put(
                (i, c, None, exc)
            ),
        )

    def try_merge(index: int, job_chunk: JobChunk) -> bool:
        """Merge a new candidate's chunk into a waiting same-key chunk.

        Only still-unsubmitted vectorized chunks are candidates, and a
        merged chunk is capped at MAX_GROUP_CANDIDATES members — or
        MAX_ADAPTIVE_GROUP under an *explicit* memory budget, which lets
        predicted-cheap groups grow past the fixed cap; either way the
        budget's byte prediction can refuse a merge the member cap would
        allow.  The merged jobs stay candidate-major so the worker's
        fused sweep sees each candidate's runs contiguously.

        Merging trades parallelism for per-sweep efficiency, so it only
        happens once the window already holds enough distinct chunks to
        keep every submission slot busy: on an idle pool the group's
        members spread across workers instead of collapsing onto one
        (a fused sweep is ~2x cheaper, but starving N-1 workers costs
        ~Nx).  The excess beyond the window's supply merges.
        """
        if len(submittable) + len(outstanding) < window:
            return False
        key = group_keys[index]
        if key is None:
            return False
        for slot, (anchor, first_run, existing) in enumerate(submittable):
            if not existing.vectorized:
                continue
            counts = chunk_run_counts(existing)
            if index in counts or len(counts) >= group_cap:
                continue
            if any(group_keys[c] != key for c in counts):
                continue
            if budget.active:
                merged_bytes = chunk_bytes(existing) + chunk_bytes(job_chunk)
                if merged_bytes > budget.bytes:
                    emit(
                        "group-resize",
                        f"budget ({budget.source}) refused merging "
                        f"candidate {index} into the stacked group "
                        f"{sorted(counts)}: predicted "
                        f"{merged_bytes / 1e6:.1f} MB exceeds "
                        f"{budget.bytes / 1e6:.1f} MB",
                        candidates=sorted(counts) + [index],
                    )
                    continue
            submittable[slot] = (
                anchor,
                first_run,
                JobChunk(
                    jobs=existing.jobs + job_chunk.jobs,
                    handle=existing.handle,
                    settings=existing.settings,
                    generation=existing.generation,
                    vectorized=True,
                ),
            )
            if len(counts) + 1 > MAX_GROUP_CANDIDATES:
                emit(
                    "group-resize",
                    f"budget ({budget.source}) grew a stacked group to "
                    f"{len(counts) + 1} members (fixed cap: "
                    f"{MAX_GROUP_CANDIDATES}) for candidate(s) "
                    f"{sorted(counts) + [index]}",
                    candidates=sorted(counts) + [index],
                )
            return True
        return False

    def top_up() -> None:
        nonlocal next_unqueued
        limit = min(len(ranked), frontier.next_commit + lookahead)
        while next_unqueued < limit:
            index = next_unqueued
            chunks = make_chunks(
                ranked[index],
                index,
                seed,
                runs,
                chunk_size,
                handle,
                settings,
                generation,
                vectorized=vectorized,
            )
            if stacking and len(chunks) == 1 and try_merge(index, chunks[0]):
                next_unqueued += 1
                continue
            for job_chunk in chunks:
                submittable.append((index, job_chunk.jobs[0].run, job_chunk))
            next_unqueued += 1
        while submittable and len(outstanding) < window:
            best = max(
                range(len(submittable)),
                key=lambda i: (
                    chunk_estimate(submittable[i][2]),
                    -submittable[i][0],
                    -submittable[i][1],
                ),
            )
            if budget.active and outstanding:
                # Admission control: never put more predicted bytes in
                # flight than the budget.  With nothing outstanding the
                # chunk is admitted regardless — otherwise a single
                # over-budget candidate could deadlock the search; the
                # worker's degradation ladder handles a real OOM.
                in_flight = sum(
                    chunk_bytes(f.chunk) for f in outstanding.values()
                )
                if in_flight + chunk_bytes(submittable[best][2]) > (
                    budget.bytes
                ):
                    break
            anchor, first_run, job_chunk = submittable.pop(best)
            cid = next(cid_counter)
            flight = _Flight(
                chunk=job_chunk, anchor=anchor, first_run=first_run
            )
            outstanding[cid] = flight
            dispatch(cid, flight)

    # -- supervision -------------------------------------------------------

    def bump_attempts(flights: Sequence[_Flight], cause: str) -> None:
        """Count one lost execution per flight; raise on exhaustion."""
        for flight in flights:
            flight.attempts += 1
            if flight.attempts > max_retries + 1:
                error = SearchError(
                    f"{cause}; the chunk for candidate(s) "
                    f"{flight_candidates(flight)} was lost "
                    f"{flight.attempts - 1} time(s) "
                    f"(max_retries={max_retries})"
                )
                error.attempts = flight.attempts - 1
                raise RetriesExhausted(error, flight.attempts - 1)

    def resubmit_outstanding() -> None:
        """Move the whole search to a fresh generation and resubmit.

        Cancellation is generation-wide — there is no per-chunk cancel —
        so retrying *any* chunk via the generation mechanism requires
        resubmitting *every* outstanding chunk under the new generation.
        That is cheap in the common case: innocent chunks that complete
        under the old generation before noticing the cancel still count
        (their results are accepted by chunk id), and ones that do abort
        re-run deterministically.
        """
        nonlocal generation
        generation = pool.advance_generation()
        for slot, (anchor, first_run, job_chunk) in enumerate(submittable):
            # Still-queued chunks must ride the new generation too, or
            # they would no-op the moment a worker picked them up.
            submittable[slot] = (
                anchor,
                first_run,
                replace(job_chunk, generation=generation),
            )
        for cid, flight in outstanding.items():
            flight.chunk = replace(flight.chunk, generation=generation)
            pool.chunk_retries += 1
            dispatch(cid, flight)

    def handle_worker_loss() -> None:
        nonlocal worker_pids
        worker_pids = pool.worker_pids()
        lost = sorted(
            {c for f in outstanding.values() for c in flight_candidates(f)}
        )
        emit(
            "worker-lost",
            "a grid-search worker process died unexpectedly (killed or "
            f"out of memory?); {len(outstanding)} in-flight chunk(s) for "
            f"candidate(s) {lost} may be lost",
            candidates=lost,
        )
        bump_attempts(list(outstanding.values()), cause=(
            "a grid-search worker process died unexpectedly "
            "(killed or out of memory?)"
        ))
        resubmit_outstanding()
        emit(
            "retry",
            f"resubmitted {len(outstanding)} chunk(s) under a new "
            "generation after a worker loss",
            candidates=lost,
            attempts=max(f.attempts for f in outstanding.values()),
        )

    def check_deadlines() -> None:
        now = time.monotonic()
        timed_out: list[_Flight] = []
        for flight in outstanding.values():
            elapsed = now - flight.submitted_at
            if (
                not flight.warned
                and flight.soft_deadline_s is not None
                and elapsed > flight.soft_deadline_s
            ):
                flight.warned = True
                emit(
                    "chunk-overdue",
                    f"chunk for candidate(s) {flight_candidates(flight)} "
                    f"is overdue: {elapsed:.1f}s elapsed vs "
                    f"{flight.soft_deadline_s:.1f}s soft deadline "
                    f"(attempt {flight.attempts})",
                    candidates=flight_candidates(flight),
                    attempts=flight.attempts,
                )
            if (
                flight.hard_deadline_s is not None
                and elapsed > flight.hard_deadline_s
            ):
                timed_out.append(flight)
        if not timed_out:
            return
        cands = sorted(
            {c for f in timed_out for c in flight_candidates(f)}
        )
        pool.chunk_timeouts += len(timed_out)
        emit(
            "chunk-timeout",
            f"cancelling {len(timed_out)} chunk(s) past their hard "
            f"deadline [candidate(s) {cands}] and retrying",
            candidates=cands,
            attempts=max(f.attempts for f in timed_out),
        )
        bump_attempts(timed_out, cause="a chunk exceeded its hard deadline")
        resubmit_outstanding()

    def handle_runtime_error(
        cid: int, flight: _Flight, error: Exception
    ) -> None:
        """An infrastructure failure for one chunk (the chunk runner
        died, or its result segment was corrupt/unpicklable) — per-run
        *training* errors are captured as RunError entries instead.
        Retried alone: the failed submission is dead, so resubmitting
        just this chunk cannot double-deliver."""
        flight.attempts += 1
        cands = flight_candidates(flight)
        if flight.attempts > max_retries + 1:
            try:
                error.attempts = flight.attempts - 1
            except Exception:  # pragma: no cover - exotic exception type
                pass
            raise RetriesExhausted(error, flight.attempts - 1)
        pool.chunk_retries += 1
        delay = retry_backoff.next_delay()
        pool.retry_backoff_s += delay
        emit(
            "retry",
            f"chunk for candidate(s) {cands} failed in the runtime "
            f"({error!r}); retrying in {delay:.2f}s "
            f"(attempt {flight.attempts} of {max_retries + 1})",
            candidates=cands,
            attempts=flight.attempts,
        )
        # The sleep runs on the scheduler thread: capped at 2s, it
        # delays watchdog ticks by less than the watchdog's own
        # resolution, and other completions simply queue behind it.
        time.sleep(delay)
        dispatch(cid, flight)

    def wait_timeout() -> float:
        """Sleep until the watchdog tick or the nearest deadline."""
        nearest = watchdog_s
        now = time.monotonic()
        for flight in outstanding.values():
            elapsed = now - flight.submitted_at
            if flight.soft_deadline_s is not None and not flight.warned:
                nearest = min(nearest, flight.soft_deadline_s - elapsed)
            if flight.hard_deadline_s is not None:
                nearest = min(nearest, flight.hard_deadline_s - elapsed)
        return max(0.05, nearest)

    try:
        try:
            top_up()
            # Worker pids once work is submitted (workers start lazily
            # on the first chunk): a changed set later means a worker
            # died and was respawned — its in-flight chunk is lost (Pool
            # fires no callback for it) and must be resubmitted.
            worker_pids = pool.worker_pids()
            while outstanding:
                try:
                    cid, job_chunk, result, error = completions.get(
                        timeout=wait_timeout()
                    )
                except Empty:
                    current = pool.worker_pids()
                    if not worker_pids:
                        # Workers start lazily: a baseline sampled
                        # before the pool populated its process list
                        # would otherwise disable death detection for
                        # the whole search.  Adopt the first real set.
                        worker_pids = current
                    elif current != worker_pids:
                        handle_worker_loss()
                    check_deadlines()
                    continue
                flight = outstanding.get(cid)
                if flight is None:
                    # A superseded copy of an already-accepted chunk
                    # (chunks are deterministic: its entries are the
                    # ones we already have).
                    continue
                if error is not None:
                    if job_chunk.generation < generation:
                        # A superseded copy's failure; the live copy of
                        # this chunk is still in flight.
                        continue
                    handle_runtime_error(cid, flight, error)
                    continue
                assert isinstance(result, ChunkResult)
                if result.cancelled:
                    if job_chunk.generation < generation:
                        # Expected: the copy this retry superseded
                        # noticed the cancelled generation and bailed.
                        continue
                    raise SearchError(
                        "a worker cancelled a chunk of a live search; "
                        "was the pool closed concurrently?"
                    )
                del outstanding[cid]
                # A healthy completion ends the failure episode: later
                # unrelated retries start from the base delay again.
                retry_backoff.reset()
                # Feed the measured chunk time back into the packer:
                # later windows (and later searches on this pool) order
                # by observed cost instead of the static FLOPs estimate.
                # A merged multi-candidate chunk splits its wall time
                # across its candidates by run share.
                counted = chunk_run_counts(job_chunk)
                for chunk_index, n_chunk_runs in counted.items():
                    cost_model.observe(
                        ranked[chunk_index].label,
                        costs[chunk_index],
                        result.wall_time_s
                        * n_chunk_runs
                        / len(job_chunk.jobs),
                        n_chunk_runs,
                    )
                    # Measured working-set feedback for the memory
                    # governor (0 = the chunk never raised the worker's
                    # RSS high-water mark: skipped, see observe_bytes).
                    cost_model.observe_bytes(
                        ranked[chunk_index].label,
                        result.peak_bytes
                        * n_chunk_runs
                        // len(job_chunk.jobs),
                        n_chunk_runs,
                    )
                if result.memory_degrades:
                    emit(
                        "memory-degrade",
                        f"chunk for candidate(s) {sorted(counted)} hit "
                        "out-of-memory and recovered via "
                        f"{result.memory_degrades} degradation step(s); "
                        "results are unchanged",
                        candidates=sorted(counted),
                    )
                for entry in result.entries:
                    if (
                        isinstance(entry, RunError)
                        and entry.attempts != flight.attempts
                    ):
                        entry = replace(entry, attempts=flight.attempts)
                    frontier.offer(entry)
                if frontier.commit():
                    return frontier.outcome
                top_up()
            return frontier.outcome
        except RetriesExhausted as exhausted:
            if not settings.fallback_sequential:
                raise exhausted.error from None
            pool.sequential_fallbacks += 1
            emit(
                "sequential-fallback",
                f"retries exhausted ({exhausted.error}); finishing the "
                f"remaining {len(ranked) - frontier.next_commit} "
                "candidate(s) in-process sequentially",
                attempts=exhausted.attempts,
            )
            # Stop burning workers on doomed chunks before training
            # in-process.
            pool.cancel(generation)
            return frontier.run_in_process(split, settings, seed, on_event)
    finally:
        # End this search's generation: still-queued speculative chunks
        # no-op, running trainings abort at the next epoch boundary.
        pool.release_split(handle)
        pool.cancel(generation)
        logger.info("pool stats at search end: %s", pool.stats())
        if owns_pool:
            # Ephemeral pool: tear down immediately (kills in-flight
            # speculative trainings outright) and unlink the published
            # dataset segment.
            pool.close()
