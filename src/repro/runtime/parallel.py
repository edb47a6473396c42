"""The speculative scheduler every multi-worker execution mode shares.

The paper's search trains candidates strictly in ascending-FLOPs order
and stops at the first pass, which makes the *decision* sequential even
though the *work* — ``runs`` independent trainings per candidate, each
on its own ``(seed, candidate, run)``-derived RNG stream — is
embarrassingly parallel.  :class:`Scheduler` exploits that gap on any
:class:`Executor`:

* work goes out in bounded-lookahead **chunks** (*speculation*: the
  executor may train candidate ``i + k`` before candidate ``i``'s
  verdict is known).  At most ``SPECULATION_FACTOR x capacity`` chunks
  are in flight, where capacity is the executor's worker or live-agent
  count.  Consecutive same-key candidates of the lookahead share a
  chunk, which the worker trains as one fused sweep;

* within the window, chunks are submitted **most-expensive-first**
  (longest-processing-time packing by the measured
  :class:`~repro.runtime.pool.ChunkCostModel`), and a memory budget, on
  executors that share this host's memory, caps the predicted bytes in
  flight.  Submission order never affects results, because of the
  commit rule below;

* delivered runs go to the :class:`~repro.runtime.frontier.SearchFrontier`,
  which commits candidates **strictly in FLOPs order** and stops at the
  first pass;

* chunks are deterministic, so a lost chunk simply runs again: every
  chunk carries a stable id, re-attempts are bounded by
  ``settings.max_retries``, and the first delivered copy of a chunk
  wins (later copies are counted and dropped).  Retry exhaustion either
  raises or, with ``settings.fallback_sequential`` (the default),
  finishes in-process through
  :meth:`~repro.runtime.frontier.SearchFrontier.run_in_process`;

* every decision is a :class:`SearchEvent` through ``on_event`` (and
  the ``repro.runtime`` logger).

An executor keeps only its medium and its liveness:
``submit(cid, attempt, chunk)``, ``poll(timeout)`` (deliveries, losses,
notices, starvation) and ``abort()``.  Two exist:
:class:`PoolExecutor` (a :class:`~repro.runtime.pool.PersistentPool`:
generations, the worker-pid watchdog and chunk deadlines) and
:class:`repro.runtime.cluster_tcp.TcpExecutor` (sockets).  The reported
:class:`~repro.core.grid_search.SearchOutcome` is identical to
``workers=1`` whatever the executor, completion order, packing, retries
or fallback.
"""

from __future__ import annotations

import itertools
import logging
import os
import random
import time
from collections import Counter
from dataclasses import dataclass, replace
from queue import Empty, SimpleQueue
from typing import TYPE_CHECKING, Callable, Protocol, Sequence

from ..exceptions import SearchError
from .backoff import Backoff
from .frontier import SearchEvent, SearchFrontier
from .jobs import RunError
from .pool import (
    ChunkCostModel,
    ChunkResult,
    JobChunk,
    PersistentPool,
    make_chunks,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.grid_search import SearchOutcome, TrainingSettings
    from ..data.splits import DataSplit
    from .memory import MemoryBudget

__all__ = [
    "resolve_workers",
    "speculative_search",
    "Scheduler",
    "Executor",
    "PoolExecutor",
    "ExecutorCounters",
    "Delivered",
    "Lost",
    "Notice",
    "Starved",
    "SearchEvent",
    "SPECULATION_FACTOR",
]

logger = logging.getLogger("repro.runtime")

#: In-flight chunks are capped at ``SPECULATION_FACTOR * capacity``:
#: enough look-ahead to keep every worker busy across uneven run times,
#: small enough to bound the training discarded when an early candidate
#: passes.
SPECULATION_FACTOR = 2

#: How often (seconds) the scheduler wakes an idle executor to check
#: liveness (worker deaths, deadlines, leases).  ``multiprocessing.Pool``
#: silently respawns a worker that dies mid-job and never fires the
#: job's callbacks; without this tick a search would hang on such a
#: loss.
_WATCHDOG_INTERVAL_S = 10.0

#: Chunk deadlines, counted from submission, are derived from the cost
#: model once it has a seconds scale: soft = ``_CHUNK_DEADLINE_FACTOR``
#: x the chunk's seconds estimate, floored at
#: ``_CHUNK_DEADLINE_FLOOR_S``; hard = ``_HARD_DEADLINE_FACTOR`` x soft.
#: The clock includes queue wait; the factor and floor keep a
#: busy-but-healthy pool from tripping them.
_CHUNK_DEADLINE_FACTOR = 8.0
_CHUNK_DEADLINE_FLOOR_S = 30.0
_HARD_DEADLINE_FACTOR = 2.0


def resolve_workers(workers: int | None) -> int:
    """Normalize the ``workers`` knob: ``None``/``0`` means all cores."""
    if workers is None or workers == 0:
        return os.cpu_count() or 1
    if workers < 0:
        raise SearchError(f"workers must be >= 0 or None, got {workers}")
    return workers


def chunk_candidates(chunk: JobChunk) -> list[int]:
    """The candidate indices a chunk trains, ascending."""
    return sorted({job.candidate_index for job in chunk.jobs})


def _share(part: float, parts: Sequence[float]) -> float:
    """``part``'s fraction of ``sum(parts)``; even shares when the
    total is not positive."""
    total = sum(parts)
    return part / total if total > 0 else 1.0 / len(parts)


# -- the executor protocol --------------------------------------------------


@dataclass(frozen=True)
class Delivered:
    """Chunk ``cid``'s result came back (possibly a duplicate copy)."""

    cid: int
    result: ChunkResult


@dataclass(frozen=True)
class Lost:
    """The current executions of ``cids`` are lost; resubmit them.

    ``cause`` says why, in the words of the retry and exhaustion
    messages.  ``error`` marks a runtime failure of the medium: the
    retry backs off first, and exhaustion re-raises ``error`` itself.
    """

    cids: tuple[int, ...]
    cause: str
    error: Exception | None = None


@dataclass(frozen=True)
class Notice:
    """Something the executor observed, reported as a :class:`SearchEvent`."""

    kind: str
    message: str
    cids: tuple[int, ...] = ()


@dataclass(frozen=True)
class Starved:
    """No capacity served the executor past its grace period."""

    reason: str


@dataclass
class ExecutorCounters:
    """What the scheduler counts on an executor (see ``stats()``)."""

    chunk_retries: int = 0
    sequential_fallbacks: int = 0
    duplicate_results: int = 0
    retry_backoff_s: float = 0.0


class Executor(Protocol):
    """What :class:`Scheduler` needs from an execution medium.

    ``capacity`` is how many chunks the medium can work on at once (its
    workers or live agents; it may change between polls).
    ``cost_model`` carries measured chunk costs across searches;
    ``counters`` holds the :class:`ExecutorCounters` fields the
    scheduler increments.  ``open`` and ``close`` are idempotent.
    """

    capacity: int
    cost_model: ChunkCostModel
    counters: ExecutorCounters

    def memory_budget(self, settings: "TrainingSettings") -> "MemoryBudget":
        """The budget for chunks in flight (inactive off this host)."""

    def open(
        self,
        split: "DataSplit",
        chunk_seconds: Callable[[JobChunk], "float | None"],
    ) -> None:
        """Start a search over ``split``.  ``chunk_seconds`` is the
        scheduler's measured-seconds estimate for a chunk (``None``
        before calibration)."""

    def submit(self, cid: int, attempt: int, chunk: JobChunk) -> None:
        """Start attempt ``attempt`` of chunk ``cid``."""

    def poll(
        self, timeout: float
    ) -> "list[Delivered | Lost | Notice | Starved]":
        """What happened since the last poll; waits up to ``timeout``
        seconds when nothing did."""

    def abort(self) -> None:
        """Withdraw or cancel every outstanding chunk."""

    def close(self) -> None:
        """End the search and release the medium's resources."""

    def stats(self) -> dict:
        """One snapshot of the executor's counters."""


# -- the scheduler ----------------------------------------------------------


class RetriesExhausted(Exception):
    """Internal: a chunk ran out of attempts; carries the would-be error."""

    def __init__(self, error: Exception, attempts: int) -> None:
        super().__init__(str(error))
        self.error = error
        self.attempts = attempts


@dataclass
class _Flight:
    chunk: JobChunk
    attempts: int = 1  # submissions so far (1 = first try)


class Scheduler:
    """Speculative FLOPs-order search of one frontier on one executor.

    Returns (from :meth:`run`) a :class:`SearchOutcome` equal to the
    sequential search's — same winner, same ``evaluated`` list, same
    ``progress`` call sequence; only ``wall_time_s`` differs.  A
    training error surfaces at its candidate's commit turn, never if a
    cheaper candidate passes first.  ``top_up`` is public so tests can
    queue work before the loop starts.
    """

    def __init__(
        self,
        frontier: SearchFrontier,
        split: "DataSplit",
        settings: "TrainingSettings",
        seed: int,
        executor: Executor,
        on_event: Callable[[SearchEvent], None] | None = None,
    ) -> None:
        if settings.runs < 1:
            raise SearchError(
                f"settings.runs must be >= 1, got {settings.runs}"
            )
        self.frontier = frontier
        self.split = split
        self.settings = settings
        self.seed = seed
        self.executor = executor
        self.on_event = on_event
        # Run-stacked chunks carry a candidate's whole run set, trained
        # as one sweep; candidate stacking makes single-run candidates
        # worth vectorizing too.
        self.vectorized = settings.vectorized_runs and (
            settings.runs > 1 or settings.stacked_candidates
        )
        #: Static FLOPs per candidate: the packing order before the cost
        #: model has measured anything, on the same scale afterwards.
        self._flops = [
            spec.flops(frontier.convention) for spec in frontier.ranked
        ]
        # Memory governance shapes concurrency only, never results.
        self.budget = executor.memory_budget(settings)
        self._next_unqueued = frontier.next_commit
        #: Chunks not yet submitted, as (candidate, first run, chunk).
        self._waiting: list[tuple[int, int, JobChunk]] = []
        #: Submitted chunks by a stable chunk id.  The id survives
        #: retries, so a late copy of an accepted chunk is recognized and
        #: dropped: a chunk's entries are accepted exactly once.
        self._flights: dict[int, _Flight] = {}
        self._cids = itertools.count()
        # Retries after a runtime failure back off first: whatever broke
        # the attempt is usually still broken a microsecond later.
        # Seeded: delays shape wall time only.
        self._backoff = Backoff(rng=random.Random(seed))

    # -- shaping -------------------------------------------------------------

    def _shape(self) -> tuple[int, int, int]:
        """(window, candidate lookahead, runs per chunk) for the current
        executor capacity."""
        capacity = self.executor.capacity
        window = max(SPECULATION_FACTOR * max(1, capacity), capacity + 1)
        runs = self.settings.runs
        if self.vectorized:
            return window, window, runs
        # Speculation is bounded in candidates, not just chunks, so the
        # work discarded on an early pass stays near `window` chunks even
        # when one cheap candidate trains slowly.  Batch consecutive runs
        # only when `runs` is large relative to the window: the window
        # still holds >= `window` submittable chunks.
        lookahead = max(1, -(-window // runs))
        return window, lookahead, max(1, (lookahead * runs) // window)

    def _members(self, chunk: JobChunk) -> list[tuple[int, int]]:
        """``(candidate, run count)`` for each candidate of a chunk,
        ascending (a packed chunk spans several)."""
        counts = Counter(job.candidate_index for job in chunk.jobs)
        return sorted(counts.items())

    def _member_estimate(self, index: int, n_runs: int) -> float:
        label = self.frontier.ranked[index].label
        return self.executor.cost_model.estimate(
            label, self._flops[index], n_runs
        )

    def _estimate(self, chunk: JobChunk) -> float:
        return sum(
            self._member_estimate(index, n_runs)
            for index, n_runs in self._members(chunk)
        )

    def chunk_seconds(self, chunk: JobChunk) -> float | None:
        """Measured-seconds estimate for a chunk, ``None`` before any
        member has one."""
        total = 0.0
        for index, n_runs in self._members(chunk):
            seconds = self.executor.cost_model.seconds_estimate(
                self.frontier.ranked[index].label, self._flops[index], n_runs
            )
            if seconds is None:
                return None
            total += seconds
        return total

    def _member_bytes(self, index: int, n_runs: int) -> float:
        """Predicted working-set bytes of one candidate's runs: measured
        EWMA, else analytic."""
        from .memory import estimate_candidate_bytes

        spec = self.frontier.ranked[index]
        measured = self.executor.cost_model.bytes_estimate(spec.label, n_runs)
        if measured is not None:
            return measured
        return float(
            estimate_candidate_bytes(spec, self.settings.batch_size, n_runs)
        )

    def _bytes(self, chunk: JobChunk) -> float:
        return sum(
            self._member_bytes(index, n_runs)
            for index, n_runs in self._members(chunk)
        )

    def _packs(self, indices: range, lookahead: int) -> list[list[int]]:
        """Cut newly admitted candidates into the member lists of chunks.

        Consecutive candidates with equal non-``None`` group keys share
        a chunk, which the worker trains as one fused sweep.  A chunk
        holds at most ``min(MAX_GROUP_CANDIDATES, ceil(lookahead /
        capacity))`` candidates, so the lookahead still spreads over
        every worker.
        """
        from ..core.grid_search import MAX_GROUP_CANDIDATES

        settings = self.settings
        if not (settings.vectorized_runs and settings.stacked_candidates):
            return [[index] for index in indices]
        ranked = self.frontier.ranked
        cap = min(
            MAX_GROUP_CANDIDATES,
            -(-lookahead // max(1, self.executor.capacity)),
        )
        packs: list[list[int]] = []
        for index in indices:
            key = ranked[index].group_key()
            last = packs[-1] if packs else None
            if (
                last is not None
                and key is not None
                and len(last) < cap
                and ranked[last[-1]].group_key() == key
            ):
                last.append(index)
            else:
                packs.append([index])
        return packs

    def top_up(self) -> None:
        """Queue candidates within the lookahead; fill the window."""
        window, lookahead, chunk_size = self._shape()
        ranked = self.frontier.ranked
        limit = min(len(ranked), self.frontier.next_commit + lookahead)
        admitted = range(self._next_unqueued, limit)
        self._next_unqueued = max(self._next_unqueued, limit)
        for pack in self._packs(admitted, lookahead):
            chunks = [
                chunk
                for index in pack
                for chunk in make_chunks(
                    ranked[index],
                    index,
                    self.seed,
                    self.settings.runs,
                    chunk_size,
                    None,
                    self.settings,
                    0,
                    vectorized=self.vectorized,
                )
            ]
            if len(pack) > 1:
                # Each member is one run-stacked chunk; merged, the
                # worker trains them as one cross-candidate sweep.
                chunks = [
                    replace(
                        chunks[0],
                        jobs=tuple(job for c in chunks for job in c.jobs),
                    )
                ]
            for chunk in chunks:
                job = chunk.jobs[0]
                self._waiting.append((job.candidate_index, job.run, chunk))
        while self._waiting and len(self._flights) < window:
            # Priced when the slot frees, not when queued: the first
            # measured chunk would otherwise leave stale FLOPs-priced
            # entries competing on another scale.  Ties fall back to
            # (candidate, run) order.
            best = max(
                range(len(self._waiting)),
                key=lambda i: (
                    self._estimate(self._waiting[i][2]),
                    -self._waiting[i][0],
                    -self._waiting[i][1],
                ),
            )
            if self.budget.active and self._flights:
                # Admission control: never more predicted bytes in
                # flight than the budget.  A lone chunk is admitted
                # regardless, or one over-budget candidate would
                # deadlock the search; the OOM ladder handles a real OOM.
                in_flight = sum(
                    self._bytes(f.chunk) for f in self._flights.values()
                )
                admitted = in_flight + self._bytes(self._waiting[best][2])
                if admitted > self.budget.bytes:
                    break
            chunk = self._waiting.pop(best)[2]
            cid = next(self._cids)
            self._flights[cid] = _Flight(chunk)
            self.executor.submit(cid, 1, chunk)

    # -- events --------------------------------------------------------------

    def _emit(self, kind: str, message: str, cids: Sequence[int] = ()) -> None:
        flights = [self._flights[c] for c in cids if c in self._flights]
        candidates = sorted(
            {c for f in flights for c in chunk_candidates(f.chunk)}
        )
        attempts = max((f.attempts for f in flights), default=0)
        self._emit_event(kind, message, candidates, attempts)

    def _emit_event(
        self,
        kind: str,
        message: str,
        candidates: Sequence[int] = (),
        attempts: int = 0,
    ) -> None:
        logger.warning("%s", message)
        if self.on_event is not None:
            self.on_event(
                SearchEvent(
                    kind=kind,
                    message=message,
                    candidates=tuple(candidates),
                    attempts=attempts,
                )
            )

    # -- reports -------------------------------------------------------------

    def _accept(self, cid: int, result: ChunkResult) -> None:
        """Offer a delivered chunk's entries; first copy wins."""
        counters = self.executor.counters
        flight = self._flights.get(cid)
        if flight is None:
            counters.duplicate_results += 1
            logger.info("dropping duplicate result for chunk %d", cid)
            return
        expected = sorted(
            (job.candidate_index, job.run) for job in flight.chunk.jobs
        )
        covered = sorted((e.candidate_index, e.run) for e in result.entries)
        if covered != expected:
            self._emit(
                "torn-file",
                f"rejected result for chunk {cid}: it covers runs {covered}, "
                f"expected {expected}",
                [cid],
            )
            self._retry(Lost((cid,), "its result failed validation"))
            return
        del self._flights[cid]
        # A healthy completion ends the failure episode.
        self._backoff.reset()
        members = self._members(flight.chunk)
        # Measured cost and working set refine later packing (and later
        # searches on a persistent pool).  A failed chunk measures the
        # failure, not the work.  A packed chunk is measured as a whole:
        # each member takes the share it was priced at, so every label's
        # EWMA stays per-run.
        if not any(isinstance(e, RunError) for e in result.entries):
            prices = [self._member_estimate(i, n) for i, n in members]
            sizes = [self._member_bytes(i, n) for i, n in members]
            cost_model = self.executor.cost_model
            for (index, n_runs), price, size in zip(members, prices, sizes):
                label = self.frontier.ranked[index].label
                cost_model.observe(
                    label,
                    self._flops[index],
                    result.wall_time_s * _share(price, prices),
                    n_runs,
                )
                cost_model.observe_bytes(
                    label,
                    round(result.peak_bytes * _share(size, sizes)),
                    n_runs,
                )
        if result.memory_degrades:
            candidates = chunk_candidates(flight.chunk)
            self._emit_event(
                "memory-degrade",
                f"chunk for candidate(s) {candidates} hit out-of-memory and "
                f"recovered via {result.memory_degrades} degradation "
                "step(s); results are unchanged",
                candidates,
            )
        for entry in result.entries:
            if isinstance(entry, RunError):
                entry = replace(entry, attempts=flight.attempts)
            self.frontier.offer(entry)

    def _retry(self, lost: Lost) -> None:
        """Resubmit lost chunks, bounded by ``settings.max_retries``."""
        max_retries = self.settings.max_retries
        flights = {
            cid: self._flights[cid]
            for cid in lost.cids
            if cid in self._flights
        }
        if not flights:
            return  # every copy was delivered meanwhile
        for flight in flights.values():
            flight.attempts += 1
            if flight.attempts > max_retries + 1:
                lost_times = flight.attempts - 1
                error = lost.error or SearchError(
                    f"{lost.cause}; the chunk for candidate(s) "
                    f"{chunk_candidates(flight.chunk)} was lost "
                    f"{lost_times} time(s) (max_retries={max_retries})"
                )
                try:
                    error.attempts = lost_times
                except Exception:  # pragma: no cover - exotic error type
                    pass
                raise RetriesExhausted(error, lost_times)
        delay = self._backoff.next_delay() if lost.error is not None else 0.0
        counters = self.executor.counters
        counters.chunk_retries += len(flights)
        counters.retry_backoff_s += delay
        time.sleep(delay)
        for cid, flight in flights.items():
            self._emit(
                "retry",
                f"{lost.cause}; retrying in {delay:.2f}s (chunk for "
                f"candidate(s) {chunk_candidates(flight.chunk)}, attempt "
                f"{flight.attempts} of {max_retries + 1})",
                [cid],
            )
            self.executor.submit(cid, flight.attempts, flight.chunk)

    def _fallback(self, reason: str, attempts: int = 0) -> "SearchOutcome":
        self.executor.counters.sequential_fallbacks += 1
        self._emit_event(
            "sequential-fallback",
            f"{reason}; finishing the remaining "
            f"{len(self.frontier.ranked) - self.frontier.next_commit} "
            "candidate(s) in-process sequentially",
            attempts=attempts,
        )
        # Stop the medium burning cycles on chunks nobody will read.
        self.executor.abort()
        return self.frontier.run_in_process(
            self.split, self.settings, self.seed, self.on_event
        )

    # -- the loop ------------------------------------------------------------

    def run(self) -> "SearchOutcome":
        """Search to the first committed pass (or exhaustion)."""
        frontier = self.frontier
        try:
            if frontier.finished:
                return frontier.outcome
            self.executor.open(self.split, self.chunk_seconds)
            try:
                self.top_up()
                while True:
                    for report in self.executor.poll(_WATCHDOG_INTERVAL_S):
                        if isinstance(report, Delivered):
                            self._accept(report.cid, report.result)
                            frontier.commit()
                        elif frontier.finished:
                            continue  # decided: losses no longer matter
                        elif isinstance(report, Lost):
                            self._retry(report)
                        elif isinstance(report, Notice):
                            self._emit(
                                report.kind, report.message, report.cids
                            )
                        else:
                            return self._fallback(report.reason)
                    if frontier.finished:
                        return frontier.outcome
                    self.top_up()
            except RetriesExhausted as exhausted:
                if not self.settings.fallback_sequential:
                    raise exhausted.error from None
                return self._fallback(
                    f"retries exhausted ({exhausted.error})",
                    exhausted.attempts,
                )
        finally:
            self.executor.close()
            logger.info(
                "executor stats at search end: %s", self.executor.stats()
            )


def speculative_search(
    frontier: SearchFrontier,
    split: "DataSplit",
    settings: "TrainingSettings",
    seed: int,
    executor: Executor,
    on_event: Callable[[SearchEvent], None] | None = None,
) -> "SearchOutcome":
    """Run ``frontier``'s search on ``executor`` (see :class:`Scheduler`)."""
    return Scheduler(frontier, split, settings, seed, executor, on_event).run()


# -- the pool executor ------------------------------------------------------


@dataclass
class _PoolFlight:
    chunk: JobChunk  # as submitted: handle and generation stamped
    attempt: int
    submitted_at: float
    soft_deadline_s: float | None
    hard_deadline_s: float | None
    warned: bool = False


class PoolExecutor:
    """A :class:`~repro.runtime.pool.PersistentPool` as an executor.

    Liveness is the pool's: each search runs under a generation
    (cancelling it no-ops queued chunks and aborts running ones at the
    next epoch boundary), a changed worker-pid set means a worker died
    with its chunk (``multiprocessing.Pool`` fires no callback for it),
    and chunks carry soft/hard deadlines once the cost model has a
    seconds scale (see :data:`_CHUNK_DEADLINE_FACTOR`).  Cancellation
    is generation-wide, so a deadline retry moves every outstanding
    chunk to a fresh generation.

    ``pool`` is reused warm; ``None`` creates an ephemeral
    ``workers``-process pool that :meth:`close` tears down.
    """

    def __init__(self, pool: PersistentPool | None = None, workers: int = 1):
        self._owns_pool = pool is None
        self.pool = pool if pool is not None else PersistentPool(workers)
        self.capacity = self.pool.workers
        self.cost_model = self.pool.cost_model
        self.counters = self.pool
        self._handle = None
        self._generation = 0
        self._flights: dict[int, _PoolFlight] = {}
        # Completions cross from the pool's result-handler thread to the
        # scheduler's through a thread-safe queue:
        # (cid, generation, result, exception).
        self._completions: SimpleQueue = SimpleQueue()
        self._pids: set[int] = set()
        self._chunk_seconds: Callable[[JobChunk], float | None] = (
            lambda chunk: None
        )

    def memory_budget(self, settings: "TrainingSettings") -> "MemoryBudget":
        from .memory import resolve_memory_budget

        return resolve_memory_budget(settings.memory_budget)

    def stats(self) -> dict:
        return self.pool.stats()

    def open(self, split, chunk_seconds) -> None:
        if self._handle is not None:
            return
        self._generation = self.pool.new_generation()
        self._handle = self.pool.acquire_split(split)
        self._chunk_seconds = chunk_seconds

    def _deadlines(self, chunk: JobChunk) -> tuple[float | None, float | None]:
        """(soft, hard) deadline seconds, counted from submission; none
        before the cost model has a seconds scale."""
        seconds = self._chunk_seconds(chunk)
        if seconds is None:
            return None, None
        soft = max(
            _CHUNK_DEADLINE_FACTOR * seconds, _CHUNK_DEADLINE_FLOOR_S
        )
        return soft, _HARD_DEADLINE_FACTOR * soft

    def submit(self, cid: int, attempt: int, chunk: JobChunk) -> None:
        chunk = replace(
            chunk, handle=self._handle, generation=self._generation
        )
        self._flights[cid] = _PoolFlight(
            chunk, attempt, time.monotonic(), *self._deadlines(chunk)
        )
        generation = self._generation
        self.pool.submit(
            chunk,
            callback=lambda res: self._completions.put(
                (cid, generation, res, None)
            ),
            error_callback=lambda exc: self._completions.put(
                (cid, generation, None, exc)
            ),
        )
        if not self._pids:
            # Workers start lazily: the baseline is sampled once work is
            # submitted, so a later change means a worker died.
            self._pids = self.pool.worker_pids()

    def poll(self, timeout: float) -> list:
        now = time.monotonic()
        for flight in self._flights.values():
            elapsed = now - flight.submitted_at
            if flight.soft_deadline_s is not None and not flight.warned:
                timeout = min(timeout, flight.soft_deadline_s - elapsed)
            if flight.hard_deadline_s is not None:
                timeout = min(timeout, flight.hard_deadline_s - elapsed)
        try:
            cid, generation, result, error = self._completions.get(
                timeout=max(0.05, timeout)
            )
        except Empty:
            return self._check_liveness()
        flight = self._flights.get(cid)
        if error is not None:
            if flight is None or generation < self._generation:
                return []  # a superseded copy's failure
            # An infrastructure failure of this one chunk (its runner
            # raised); per-run training errors arrive as RunError
            # entries instead.
            return [
                Lost(
                    (cid,),
                    f"chunk for candidate(s) {chunk_candidates(flight.chunk)} "
                    f"failed in the runtime ({error!r})",
                    error=error,
                )
            ]
        if result.cancelled:
            if generation < self._generation:
                return []  # the copy a retry superseded bailed out
            raise SearchError(
                "a worker cancelled a chunk of a live search; "
                "was the pool closed concurrently?"
            )
        self._flights.pop(cid, None)
        return [Delivered(cid, result)]

    def _resubmit_all(self, lost: Sequence[int]) -> None:
        """Move the search to a fresh generation.  Chunks not in
        ``lost`` are resubmitted here at their attempt (an innocent copy
        that finishes under the old generation still counts); the
        scheduler resubmits the lost ones."""
        self._generation = self.pool.advance_generation()
        for cid, flight in list(self._flights.items()):
            if cid not in lost:
                self.submit(cid, flight.attempt, flight.chunk)

    def _check_liveness(self) -> list:
        current = self.pool.worker_pids()
        if not self._pids:
            self._pids = current
        elif current != self._pids:
            self._pids = current
            lost = tuple(self._flights)
            candidates = sorted(
                {
                    c
                    for f in self._flights.values()
                    for c in chunk_candidates(f.chunk)
                }
            )
            self._resubmit_all(lost)
            return [
                Notice(
                    "worker-lost",
                    "a grid-search worker process died unexpectedly (killed "
                    f"or out of memory?); {len(lost)} in-flight chunk(s) for "
                    f"candidate(s) {candidates} may be lost",
                    lost,
                ),
                Lost(
                    lost,
                    "a grid-search worker process died unexpectedly "
                    "(killed or out of memory?)",
                ),
            ]
        reports: list = []
        timed_out: list[int] = []
        now = time.monotonic()
        for cid, flight in self._flights.items():
            elapsed = now - flight.submitted_at
            if (
                not flight.warned
                and flight.soft_deadline_s is not None
                and elapsed > flight.soft_deadline_s
            ):
                flight.warned = True
                cands = chunk_candidates(flight.chunk)
                reports.append(
                    Notice(
                        "chunk-overdue",
                        f"chunk for candidate(s) {cands} "
                        f"is overdue: {elapsed:.1f}s elapsed vs "
                        f"{flight.soft_deadline_s:.1f}s soft deadline "
                        f"(attempt {flight.attempt})",
                        (cid,),
                    )
                )
            hard = flight.hard_deadline_s
            if hard is not None and elapsed > hard:
                timed_out.append(cid)
        if timed_out:
            self.pool.chunk_timeouts += len(timed_out)
            candidates = sorted(
                {
                    c
                    for cid in timed_out
                    for c in chunk_candidates(self._flights[cid].chunk)
                }
            )
            reports.append(
                Notice(
                    "chunk-timeout",
                    f"cancelling {len(timed_out)} chunk(s) past their hard "
                    f"deadline [candidate(s) {candidates}] and retrying",
                    tuple(timed_out),
                )
            )
            self._resubmit_all(timed_out)
            reports.append(
                Lost(tuple(timed_out), "a chunk exceeded its hard deadline")
            )
        return reports

    def abort(self) -> None:
        self.pool.cancel(self._generation)

    def close(self) -> None:
        """End the generation: queued speculative chunks no-op, running
        trainings abort at the next epoch boundary."""
        if self._handle is not None:
            self.pool.release_split(self._handle)
            self._handle = None
            self.pool.cancel(self._generation)
            self._flights.clear()
        if self._owns_pool:
            # Ephemeral pool: kill in-flight speculation outright and
            # unlink the published dataset segment.
            self.pool.close()
