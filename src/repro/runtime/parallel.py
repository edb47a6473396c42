"""The speculative scheduler every multi-agent execution mode shares.

The paper's search trains candidates strictly in ascending-FLOPs order
and stops at the first pass, which makes the *decision* sequential even
though the *work* — ``runs`` independent trainings per candidate, each
on its own ``(seed, candidate, run)``-derived RNG stream — is
embarrassingly parallel.  :class:`Scheduler` exploits that gap on any
:class:`Executor`:

* work goes out in bounded-lookahead **chunks** (*speculation*: the
  executor may train candidate ``i + k`` before candidate ``i``'s
  verdict is known).  At most ``SPECULATION_FACTOR x capacity`` chunks
  are in flight, where capacity is the executor's local agent or
  live-agent count.  Consecutive same-key candidates of the lookahead
  share a chunk, which the agent trains as one fused sweep;

* within the window, chunks are submitted **most-expensive-first**
  (longest-processing-time packing by the measured
  :class:`ChunkCostModel`), and a memory budget, on executors that
  share this host's memory, caps the predicted bytes in flight.
  Submission order never affects results, because of the commit rule
  below;

* delivered runs go to the :class:`~repro.runtime.frontier.SearchFrontier`,
  which commits candidates **strictly in FLOPs order** and stops at the
  first pass;

* chunks are deterministic, so a lost chunk simply runs again: every
  chunk carries a stable id, re-attempts are bounded by
  ``settings.max_retries``, and the first delivered copy of a chunk
  wins (later copies are counted and dropped).  Once the cost model
  has a seconds scale, each chunk also carries a soft deadline (a
  warning) and a hard one, past which that one chunk is cancelled and
  resubmitted.  Retry exhaustion either raises or, with
  ``settings.fallback_sequential`` (the default), finishes in-process
  through :meth:`~repro.runtime.frontier.SearchFrontier.run_in_process`;

* every decision is a :class:`SearchEvent` through ``on_event`` (and
  the ``repro.runtime`` logger).

An executor keeps only its medium and that medium's liveness:
``submit(cid, attempt, chunk)``, ``cancel(cid)``, ``poll(timeout)``
(deliveries, losses, notices, starvation) and ``abort()``.  One exists,
:class:`repro.runtime.cluster_tcp.TcpExecutor`, whose agents are the
local processes of a :class:`~repro.runtime.pool.PersistentPool` or
remote hosts.  The reported
:class:`~repro.core.grid_search.SearchOutcome` is identical to
``workers=1`` whatever the agents, completion order, packing, retries
or fallback.
"""

from __future__ import annotations

import itertools
import json
import logging
import os
import pathlib
import random
import time
from collections import Counter
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable, Protocol, Sequence

from ..exceptions import SearchError
from .backoff import Backoff
from .frontier import SearchEvent, SearchFrontier
from .jobs import ChunkResult, JobChunk, RunError, make_chunks

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.grid_search import SearchOutcome, TrainingSettings
    from ..data.splits import DataSplit

__all__ = [
    "resolve_workers",
    "speculative_search",
    "Scheduler",
    "Executor",
    "ExecutorCounters",
    "ChunkCostModel",
    "Delivered",
    "Lost",
    "Notice",
    "Starved",
    "SearchEvent",
    "SPECULATION_FACTOR",
]

logger = logging.getLogger("repro.runtime")

#: In-flight chunks are capped at ``SPECULATION_FACTOR * capacity``:
#: enough look-ahead to keep every agent busy across uneven run times,
#: small enough to bound the training discarded when an early candidate
#: passes.
SPECULATION_FACTOR = 2

#: The longest (seconds) the scheduler waits on an idle executor before
#: it looks at its own deadlines again; executors wake it sooner for
#: every delivery, loss and lease expiry.
_WATCHDOG_INTERVAL_S = 10.0

#: Chunk deadlines, counted from submission, are derived from the cost
#: model once it has a seconds scale: soft = ``_CHUNK_DEADLINE_FACTOR``
#: x the chunk's seconds estimate, floored at
#: ``_CHUNK_DEADLINE_FLOOR_S``; hard = ``_HARD_DEADLINE_FACTOR`` x soft.
#: The clock includes queue wait; the factor and floor keep busy but
#: healthy agents from tripping them.
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


# -- measured-cost packing --------------------------------------------------


class ChunkCostModel:
    """EWMA of measured per-run training cost, keyed by candidate label.

    The scheduler's FLOPs-aware packing submits the speculation window's
    most expensive chunks first (longest-processing-time).  Static FLOPs
    are only a proxy for wall time — per-epoch Python overhead and early
    stopping skew real costs — so each finished chunk's measured
    ``wall_time_s`` feeds an EWMA here, and later packing decisions (the
    next search, the next complexity level on a persistent pool) rank by
    observed seconds instead.  Candidates never seen before are
    estimated from their FLOPs through a global seconds-per-FLOP EWMA,
    which keeps the two kinds of estimate on one comparable scale.

    Packing order never affects results (the scheduler commits strictly
    in FLOPs order); this model only shapes the window's makespan.  It
    measures seconds only: memory admission sizes chunks from their
    specs (:func:`repro.runtime.memory.estimate_group_bytes`).

    Costs are keyed by label only, so a model measured under one
    configuration (say the smoke profile's 5 epochs) misprices another.
    ``identity`` names the configuration the model measures; a saved
    model carries it, and :meth:`load_json` refuses a file saved under
    another one.
    """

    def __init__(self, alpha: float = 0.3, identity: str | None = None) -> None:
        if not 0.0 < alpha <= 1.0:
            raise SearchError(f"EWMA alpha must be in (0, 1], got {alpha}")
        self.alpha = alpha
        self.identity = identity
        self._per_label: dict[str, float] = {}
        self._rate: float | None = None  # seconds per FLOP
        self.observations = 0

    def _ewma(self, old: float | None, new: float) -> float:
        if old is None:
            return new
        return old + self.alpha * (new - old)

    def observe(
        self, label: str, flops: int, wall_time_s: float, n_runs: int
    ) -> None:
        """Record a finished chunk's measured cost."""
        if n_runs < 1 or wall_time_s <= 0.0:
            return
        per_run = wall_time_s / n_runs
        self._per_label[label] = self._ewma(
            self._per_label.get(label), per_run
        )
        if flops > 0:
            self._rate = self._ewma(self._rate, per_run / flops)
        self.observations += 1

    def estimate(self, label: str, flops: int, n_runs: int = 1) -> float:
        """Expected chunk cost in seconds (raw FLOPs before any data)."""
        per_run = self._per_label.get(label)
        if per_run is None:
            if self._rate is None:
                # No measurements yet anywhere: fall back to the static
                # FLOPs ranking (any monotone scale packs identically).
                return float(flops) * n_runs
            per_run = float(flops) * self._rate
        return per_run * n_runs

    def seconds_estimate(
        self, label: str, flops: int, n_runs: int = 1
    ) -> float | None:
        """Expected chunk cost in *wall-clock seconds*, or ``None``.

        Unlike :meth:`estimate` — whose pre-calibration fallback is the
        raw FLOPs count, fine for *ranking* but meaningless as a time —
        this only answers once a measured seconds scale exists.  The
        deadline watchdog uses it: no calibration, no deadline, never a
        spurious timeout from comparing seconds against FLOPs.
        """
        per_run = self._per_label.get(label)
        if per_run is None:
            if self._rate is None:
                return None
            per_run = float(flops) * self._rate
        return per_run * n_runs

    def snapshot(self) -> dict[str, float]:
        """Current per-label EWMA estimates (observability + tests)."""
        return dict(self._per_label)

    # -- persistence -------------------------------------------------------
    #
    # Measured costs survive the coordinator (and the process): the CLI
    # saves the model next to the run-family result cache
    # (``--cost-cache``), so the first search of a rerun packs by
    # observed seconds instead of re-learning from raw FLOPs.  Estimates
    # only shape submission order, never results, so a stale cache costs
    # wall time only; one from another configuration is still refused.

    def state(self) -> dict:
        """JSON-serializable snapshot of the whole model.

        :meth:`restore` is field-lenient: it reads the fields it knows
        and ignores the rest (the measured-bytes map schema-2 files
        carry, for one), so caches of any schema load.
        """
        return {
            "schema": 4,
            "identity": self.identity,
            "alpha": self.alpha,
            "per_label": dict(self._per_label),
            "rate": self._rate,
            "observations": self.observations,
        }

    def restore(self, state: dict) -> None:
        """Adopt a :meth:`state` snapshot (bad entries are ignored)."""
        alpha = state.get("alpha")
        if isinstance(alpha, (int, float)) and 0.0 < alpha <= 1.0:
            self.alpha = float(alpha)
        per_label = state.get("per_label")
        if isinstance(per_label, dict):
            self._per_label = {
                str(k): float(v)
                for k, v in per_label.items()
                if isinstance(v, (int, float)) and v > 0.0
            }
        rate = state.get("rate")
        if isinstance(rate, (int, float)) and rate > 0.0:
            self._rate = float(rate)
        observations = state.get("observations")
        if isinstance(observations, int) and observations >= 0:
            self.observations = observations

    def save_json(self, path) -> None:
        """Write the model's state to ``path`` (parents created)."""
        path = pathlib.Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.state(), indent=2, sort_keys=True))

    def load_json(self, path) -> bool:
        """Restore from ``path``; missing or corrupt files are a no-op
        (returns whether anything was loaded).

        A file saved under another :attr:`identity` is ignored with a
        warning.  Files written before identities were recorded carry
        none and still load.
        """
        path = pathlib.Path(path)
        try:
            state = json.loads(path.read_text())
        except (OSError, ValueError):
            return False
        if not isinstance(state, dict):
            return False
        saved = state.get("identity")
        if saved is not None and self.identity is not None and saved != self.identity:
            logger.warning(
                "ignoring cost cache %s: it measured %r, this run is %r",
                path,
                saved,
                self.identity,
            )
            return False
        self.restore(state)
        return True


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
    """What the scheduler counts on an executor (see ``stats()``).

    Retries, hard-deadline timeouts, in-process fallbacks, late copies
    of accepted chunks and the seconds slept in retry backoff; plus,
    from delivered results, chunks whose stacked sweep was re-run scalar
    and OOM recovery-ladder steps.  Results stay bit-identical either
    way; a climbing counter means wall time is going somewhere.
    """

    chunk_retries: int = 0
    chunk_timeouts: int = 0
    sequential_fallbacks: int = 0
    duplicate_results: int = 0
    retry_backoff_s: float = 0.0
    vectorized_fallbacks: int = 0
    memory_degrades: int = 0


class Executor(Protocol):
    """What :class:`Scheduler` needs from an execution medium.

    ``capacity`` is how many chunks the medium can work on at once (its
    local agents or live agents; it may change between polls).
    ``cost_model`` carries measured chunk costs across searches;
    ``counters`` holds the :class:`ExecutorCounters` fields the
    scheduler increments.  ``open`` and ``close`` are idempotent.
    """

    capacity: int
    cost_model: ChunkCostModel
    counters: ExecutorCounters

    def memory_budget(self, settings: "TrainingSettings") -> int | None:
        """The byte budget for chunks in flight (``None`` off this
        host)."""

    def open(self, split: "DataSplit") -> None:
        """Start a search over ``split``."""

    def submit(self, cid: int, attempt: int, chunk: JobChunk) -> None:
        """Start attempt ``attempt`` of chunk ``cid``."""

    def cancel(self, cid: int) -> None:
        """Withdraw chunk ``cid``, or stop it at its next epoch
        boundary; nothing of its current attempt is reported later."""

    def poll(
        self, timeout: float
    ) -> "list[Delivered | Lost | Notice | Starved]":
        """What happened since the last poll; waits up to ``timeout``
        seconds when nothing did."""

    def abort(self) -> None:
        """Withdraw or cancel every outstanding chunk."""

    def close(self) -> None:
        """End the search (and release a medium it owns)."""

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
    # The current attempt's submission time and (soft, hard) deadlines
    # in seconds after it; no deadlines before calibration.
    submitted_at: float = 0.0
    soft_s: float | None = None
    hard_s: float | None = None
    warned: bool = False


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

    def _bytes(self, chunk: JobChunk) -> int:
        """Predicted working-set bytes of a chunk, sized as one group
        (every member of a packed chunk carries its whole run set)."""
        from .memory import estimate_group_bytes

        members = self._members(chunk)
        return estimate_group_bytes(
            [self.frontier.ranked[index] for index, _ in members],
            self.settings.batch_size,
            max(n_runs for _, n_runs in members),
        )

    def _packs(self, indices: range, lookahead: int) -> list[list[int]]:
        """Cut newly admitted candidates into the member lists of chunks.

        Consecutive candidates with equal non-``None`` group keys share
        a chunk, which the agent trains as one fused sweep.  A chunk
        holds at most ``min(MAX_GROUP_CANDIDATES, ceil(lookahead /
        capacity))`` candidates, so the lookahead still spreads over
        every agent.
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
                    self.settings,
                    vectorized=self.vectorized,
                )
            ]
            if len(pack) > 1:
                # Each member is one run-stacked chunk; merged, the
                # agent trains them as one cross-candidate sweep.
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
            if self.budget is not None and self._flights:
                # Admission control: never more predicted bytes in
                # flight than the budget.  A lone chunk is admitted
                # regardless, or one over-budget candidate would
                # deadlock the search; the OOM ladder handles a real OOM.
                in_flight = sum(
                    self._bytes(f.chunk) for f in self._flights.values()
                )
                admitted = in_flight + self._bytes(self._waiting[best][2])
                if admitted > self.budget:
                    break
            chunk = self._waiting.pop(best)[2]
            cid = next(self._cids)
            self._flights[cid] = _Flight(chunk)
            self._submit(cid)

    def _submit(self, cid: int) -> None:
        """Send chunk ``cid``'s current attempt and start its clocks."""
        flight = self._flights[cid]
        flight.submitted_at = time.monotonic()
        flight.warned = False
        seconds = self.chunk_seconds(flight.chunk)
        if seconds is None:
            flight.soft_s = flight.hard_s = None
        else:
            flight.soft_s = max(
                _CHUNK_DEADLINE_FACTOR * seconds, _CHUNK_DEADLINE_FLOOR_S
            )
            flight.hard_s = _HARD_DEADLINE_FACTOR * flight.soft_s
        self.executor.submit(cid, flight.attempts, flight.chunk)

    # -- deadlines -------------------------------------------------------------

    def _poll_timeout(self) -> float:
        """Seconds until the next soft or hard deadline (capped)."""
        now = time.monotonic()
        timeout = _WATCHDOG_INTERVAL_S
        for flight in self._flights.values():
            elapsed = now - flight.submitted_at
            if flight.soft_s is not None and not flight.warned:
                timeout = min(timeout, flight.soft_s - elapsed)
            if flight.hard_s is not None:
                timeout = min(timeout, flight.hard_s - elapsed)
        return max(0.0, timeout)

    def _check_deadlines(self) -> None:
        """Warn about overdue chunks; cancel and resubmit, alone, each
        chunk past its hard deadline."""
        now = time.monotonic()
        timed_out = []
        for cid, flight in self._flights.items():
            elapsed = now - flight.submitted_at
            if (
                flight.soft_s is not None
                and not flight.warned
                and elapsed > flight.soft_s
            ):
                flight.warned = True
                self._emit(
                    "chunk-overdue",
                    f"chunk for candidate(s) {chunk_candidates(flight.chunk)} "
                    f"is overdue: {elapsed:.1f}s elapsed vs "
                    f"{flight.soft_s:.1f}s soft deadline "
                    f"(attempt {flight.attempts})",
                    [cid],
                )
            if flight.hard_s is not None and elapsed > flight.hard_s:
                timed_out.append(cid)
        if not timed_out:
            return
        self.executor.counters.chunk_timeouts += len(timed_out)
        candidates = sorted(
            {
                c
                for cid in timed_out
                for c in chunk_candidates(self._flights[cid].chunk)
            }
        )
        self._emit(
            "chunk-timeout",
            f"cancelling {len(timed_out)} chunk(s) past their hard "
            f"deadline [candidate(s) {candidates}] and retrying",
            timed_out,
        )
        for cid in timed_out:
            self.executor.cancel(cid)
        self._retry(Lost(tuple(timed_out), "a chunk exceeded its hard deadline"))

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
        counters.vectorized_fallbacks += result.vectorized_fallback
        counters.memory_degrades += result.memory_degrades
        members = self._members(flight.chunk)
        # Measured cost refines later packing (and later searches on a
        # persistent pool).  A failed chunk measures the failure, not
        # the work.  A packed chunk is measured as a whole: each member
        # takes the share it was priced at, so every label's EWMA stays
        # per-run.
        if not any(isinstance(e, RunError) for e in result.entries):
            prices = [self._member_estimate(i, n) for i, n in members]
            for (index, n_runs), price in zip(members, prices):
                self.executor.cost_model.observe(
                    self.frontier.ranked[index].label,
                    self._flops[index],
                    result.wall_time_s * _share(price, prices),
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
            self._submit(cid)

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
            self.executor.open(self.split)
            try:
                self.top_up()
                while True:
                    for report in self.executor.poll(self._poll_timeout()):
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
                    self._check_deadlines()
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
