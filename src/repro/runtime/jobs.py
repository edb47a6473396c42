"""Picklable training-job payloads and the shared run primitives.

The parallel search runtime ships jobs to agent processes, so a job
must be a small, picklable value object: the :class:`ModelSpec` (frozen
dataclass), the base seed and the ``(candidate_index, run)`` coordinates
that derive the job's RNG stream.  Jobs travel in batches, as a
:class:`JobChunk`; a chunk names its
:class:`~repro.data.splits.DataSplit` by a token, and the split itself
reaches each agent once, not once per chunk.  The chunk comes back as
one :class:`ChunkResult` (:func:`execute_chunk`).

:func:`execute_job` is the *only* place a scalar (candidate, run)
training run happens: the sequential grid search and every agent
call the same function with the same ``(seed, candidate_index,
run)``-derived RNG, so parallel results are bit-identical to sequential
ones by construction rather than by testing alone.

:func:`execute_candidates` is its fused sibling: the run sets of one
or more candidates of one family and data shape (equal
:meth:`~repro.core.search_space.ModelSpec.group_key`) train as one
stacked sweep (:func:`repro.nn.stacked.stack_candidates` +
:func:`repro.nn.training.train_stack`).  Per-slice arithmetic is
bit-identical to the scalar path, so stacking and grouping are pure
wall-time optimizations.  :func:`execute_runs` is the one-candidate
case with the scalar loop as fallback.

:func:`chunk_entries` is the one **OOM recovery ladder** over those
primitives, shared by every execution mode: TCP agents, local or remote, and the
in-process executor
(:meth:`repro.runtime.frontier.SearchFrontier.run_in_process`).  It
turns a list of jobs into per-run :class:`RunResult` / :class:`RunError`
entries, degrading an out-of-memory sweep stepwise (halve the group,
fall to the scalar loop) and re-attributing any other
sweep failure to its exact ``(candidate, run)`` through the scalar loop.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from ..exceptions import TrainingCancelled
from ..nn.optimizers import Adam
from ..nn.stacked import stack_candidates
from ..nn.training import train_model, train_stack
from .memory import is_memory_error

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.grid_search import TrainingSettings
    from ..core.search_space import ModelSpec
    from ..data.splits import DataSplit
    from ..nn.training import History

__all__ = [
    "TrainingJob",
    "RunResult",
    "RunError",
    "execute_job",
    "execute_runs",
    "execute_candidates",
    "chunk_entries",
    "JobChunk",
    "ChunkResult",
    "execute_chunk",
    "make_chunks",
]


@dataclass(frozen=True)
class TrainingJob:
    """One (candidate, run) training unit of a grid search."""

    spec: "ModelSpec"
    seed: int
    candidate_index: int
    run: int


@dataclass(frozen=True)
class RunResult:
    """The outcome of one training run, reduced to what aggregation needs.

    By default histories stay in the agent; only the paper's per-run
    metrics (max train/val accuracy over epochs), the epoch count and
    the wall time cross the process boundary.  With
    ``TrainingSettings.return_histories`` the full per-epoch
    :class:`~repro.nn.training.History` rides along too, pickled with
    the rest of the chunk's result.
    """

    candidate_index: int
    run: int
    train_accuracy: float
    val_accuracy: float
    epochs_run: int
    wall_time_s: float
    history: "History | None" = None


@dataclass(frozen=True)
class RunError:
    """A picklable per-run failure, surfaced at the candidate's commit turn.

    ``attempts`` is how many times the run's chunk was executed before
    this entry was accepted (> 1 when the scheduler retried the chunk
    after an agent loss or timeout); the scheduler stamps it so error
    reports distinguish a first-try failure from one that survived
    retries.
    """

    candidate_index: int
    run: int
    error: Exception
    attempts: int = 1


def execute_job(
    job: TrainingJob,
    split: "DataSplit",
    settings: "TrainingSettings",
    cancel_check: Callable[[], bool] | None = None,
) -> RunResult:
    """Train one run of one candidate; deterministic given the job alone.

    The RNG stream is derived from ``(seed, candidate_index, run)`` — no
    state is shared between jobs, which is what makes the search
    embarrassingly parallel without changing its semantics.

    ``cancel_check`` is forwarded to the training loop (polled per
    epoch); it only ever fires on speculative runs whose search already
    finished, so it cannot change any reported result.
    """
    rng = np.random.default_rng((job.seed, job.candidate_index, job.run))
    model = job.spec.build(rng=rng)
    history = train_model(
        model,
        split.x_train,
        split.y_train,
        split.x_val,
        split.y_val,
        epochs=settings.epochs,
        batch_size=settings.batch_size,
        optimizer=Adam(learning_rate=settings.learning_rate),
        rng=rng,
        early_stop_threshold=settings.early_stop_threshold,
        cancel_check=cancel_check,
    )
    return _to_result(job.candidate_index, job.run, history, settings)


def _to_result(
    candidate_index: int,
    run: int,
    history: "History",
    settings: "TrainingSettings",
) -> RunResult:
    return RunResult(
        candidate_index=candidate_index,
        run=run,
        train_accuracy=history.max_train_accuracy,
        val_accuracy=history.max_val_accuracy,
        epochs_run=history.epochs_run,
        wall_time_s=history.wall_time_s,
        history=history if settings.return_histories else None,
    )


def execute_runs(
    spec: "ModelSpec",
    seed: int,
    candidate_index: int,
    runs: Sequence[int],
    split: "DataSplit",
    settings: "TrainingSettings",
    cancel_check: Callable[[], bool] | None = None,
    vectorized: bool = True,
) -> list[RunResult]:
    """Train several runs of one candidate; same results either way.

    With ``vectorized``, the run set trains as a one-candidate
    :func:`execute_candidates` group — one stacked sweep instead of
    ``len(runs)`` scalar loops.  Models that cannot be stacked (custom
    layers, parameter-shift gradients...), and single-run sets, fall
    back to scalar :func:`execute_job` calls.  Both paths produce
    bit-identical :class:`RunResult` metrics; only ``wall_time_s``
    differs (stacked runs share the lockstep clock).
    """
    runs = list(runs)
    results = None
    if vectorized:
        results = execute_candidates(
            [(spec, candidate_index, runs)],
            seed,
            split,
            settings,
            cancel_check=cancel_check,
        )
    if results is None:
        results = [
            execute_job(
                TrainingJob(spec, seed, candidate_index, run),
                split,
                settings,
                cancel_check=cancel_check,
            )
            for run in runs
        ]
    return results


def execute_candidates(
    group: Sequence[tuple["ModelSpec", int, Sequence[int]]],
    seed: int,
    split: "DataSplit",
    settings: "TrainingSettings",
    cancel_check: Callable[[], bool] | None = None,
) -> list[RunResult] | None:
    """Train one or more candidates' run sets as one stacked sweep.

    ``group`` holds ``(spec, candidate_index, runs)`` triples in rank
    order, usually sharing a ``group_key``; their models fuse into one
    shared-head / per-candidate-middle / shared-tail stack
    (:func:`repro.nn.stacked.stack_candidates`).  Every slice — one
    ``(candidate, run)`` pair, candidate-major in group order — builds
    its model from the same ``(seed, candidate_index, run)`` stream the
    scalar path uses, so results are bit-identical to training every
    run scalar.

    Returns ``None`` when the group has fewer than two slices or cannot
    be stacked (:func:`repro.nn.stacked.stack_candidates` declined) —
    the caller falls back to per-candidate (a lone candidate: scalar)
    execution with nothing consumed.  A training (or build) error
    raises: it cannot be attributed to one run from inside the fused
    sweep, so callers re-run per candidate, then scalar, to reproduce
    the exact per-run error.
    """
    slices = [
        (spec, candidate_index, run)
        for spec, candidate_index, runs in group
        for run in runs
    ]
    if len(slices) < 2:
        return None
    rngs = [
        np.random.default_rng((seed, candidate_index, run))
        for _, candidate_index, run in slices
    ]
    models = [spec.build(rng=rng) for (spec, _, _), rng in zip(slices, rngs)]
    model_groups = []
    offset = 0
    for _, _, runs in group:
        model_groups.append(models[offset : offset + len(runs)])
        offset += len(runs)
    stack = stack_candidates(model_groups)
    if stack is None:
        return None
    histories = train_stack(
        stack,
        split.x_train,
        split.y_train,
        split.x_val,
        split.y_val,
        epochs=settings.epochs,
        batch_size=settings.batch_size,
        learning_rate=settings.learning_rate,
        rngs=rngs,
        early_stop_threshold=settings.early_stop_threshold,
        cancel_check=cancel_check,
    )
    return [
        _to_result(candidate_index, run, history, settings)
        for (_, candidate_index, run), history in zip(slices, histories)
    ]


# -- the OOM recovery ladder ------------------------------------------------
#
# The ladder calls execute_candidates through this module's globals, so
# wrapping or patching it here reaches every execution mode at once.


def _maybe_inject_oom(inject: "list[bool] | None") -> None:
    """Raise the armed ``oom`` fault once (agent side, tests only)."""
    if inject and inject[0]:
        inject[0] = False
        raise MemoryError("injected 'oom' fault")


def chunk_entries(
    jobs: Sequence[TrainingJob],
    split: "DataSplit",
    settings: "TrainingSettings",
    *,
    vectorized: bool,
    cancel_check: Callable[[], bool] | None = None,
    inject: "list[bool] | None" = None,
):
    """Execute a batch of runs through the OOM recovery ladder.

    Returns ``(entries, vectorized_fallback, memory_degrades)``; every
    job yields exactly one entry, a per-run failure a :class:`RunError`.
    With ``vectorized``, the batch's candidates first train as one fused
    sweep (:func:`execute_candidates`); see :func:`_ladder` for what
    happens when that sweep runs out of memory, fails, or declines.

    ``cancel_check`` aborts training with
    :class:`~repro.exceptions.TrainingCancelled`; ``inject`` is the
    agent fault hook (a one-shot ``[armed]`` flag raising
    ``MemoryError`` in the first recoverable attempt).
    """
    by_candidate: dict[int, list[TrainingJob]] = {}
    for job in jobs:
        by_candidate.setdefault(job.candidate_index, []).append(job)
    return _ladder(
        list(by_candidate.values()),
        split,
        settings,
        vectorized,
        cancel_check,
        inject,
    )


def _ladder(
    items: "list[list[TrainingJob]]",
    split: "DataSplit",
    settings: "TrainingSettings",
    vectorized: bool,
    cancel_check: Callable[[], bool] | None,
    inject: "list[bool] | None",
):
    """Train ``items`` (one job list per candidate, rank order) as one
    fused sweep, degrading stepwise; returns :func:`chunk_entries`' triple.

    * An *out-of-memory* sweep is a resource, not a correctness,
      problem: a multi-candidate group halves and each half walks the
      ladder again; a lone candidate falls to the scalar per-run loop,
      the floor.  Each step counts one ``memory_degrades``.
    * Any *other* sweep failure cannot be attributed to one run from
      inside the fused sweep: a group splits per candidate and a lone
      candidate re-runs through the scalar loop, which reproduces the
      exact error the sequential loop would hit first (lowest run) and
      still accounts for every other run.  This sets
      ``vectorized_fallback``.
    * A group that declines to stack splits per candidate the same way;
      a lone candidate that declines trains scalar, unflagged.

    Every step trains from the same ``(seed, candidate, run)`` streams,
    per-slice arithmetic does not depend on group membership, and the
    scalar loop is the bit-identity oracle, so no step changes results.
    """
    fallback = False
    degrades = 0
    parts = [[jobs] for jobs in items]
    if vectorized and sum(len(jobs) for jobs in items) > 1:
        group = [
            (jobs[0].spec, jobs[0].candidate_index, [job.run for job in jobs])
            for jobs in items
        ]
        try:
            _maybe_inject_oom(inject)
            results = execute_candidates(
                group,
                items[0][0].seed,
                split,
                settings,
                cancel_check=cancel_check,
            )
        except TrainingCancelled:
            raise
        except Exception as exc:  # noqa: BLE001 - classified below
            if not is_memory_error(exc):
                fallback = True
            else:
                degrades += 1
                if len(items) > 1:
                    mid = (len(items) + 1) // 2
                    parts = [items[:mid], items[mid:]]
        else:
            if results is not None:
                return results, False, degrades
    elif inject and inject[0]:
        # No fused sweep to inject into (scalar chunk): the ladder's
        # floor *is* the scalar path, so the fault is absorbed here —
        # counted, never re-raised — keeping results identical.
        inject[0] = False
        degrades += 1
    entries: list[RunResult | RunError] = []
    if len(items) > 1:
        for part in parts:
            sub_entries, sub_fallback, sub_degrades = _ladder(
                part, split, settings, vectorized, cancel_check, inject
            )
            entries.extend(sub_entries)
            fallback = fallback or sub_fallback
            degrades += sub_degrades
        return entries, fallback, degrades
    for job in items[0]:
        try:
            entries.append(
                execute_job(job, split, settings, cancel_check=cancel_check)
            )
        except TrainingCancelled:
            raise
        except Exception as exc:  # noqa: BLE001 - surfaced at commit turn
            entries.append(RunError(job.candidate_index, job.run, exc))
    return entries, fallback, degrades


# -- chunks: what an agent trains and sends back ---------------------------


@dataclass(frozen=True)
class JobChunk:
    """A batch of training runs shipped to an agent as a single task.

    Batching runs lets one agent invocation share a compiled tape
    across several runs, and cuts per-job messages when ``runs`` is
    large relative to the agent count.  The payload is small by
    construction: jobs are coordinates, and ``split`` is the token the
    coordinator publishes the dataset under (the scheduler builds
    chunks with ``split=None``; its executor stamps the token).

    ``vectorized`` asks the agent to train the chunk's run sets as one
    stacked sweep (:func:`execute_candidates`); the scheduler then puts
    each candidate's whole run set in one chunk.  A vectorized chunk may
    span **several candidates**, whose run sets then fuse into one
    cross-candidate sweep.  The scheduler packs consecutive same-key
    candidates of its lookahead this way.
    """

    jobs: tuple[TrainingJob, ...]
    split: str | None
    settings: "TrainingSettings"
    vectorized: bool = False


@dataclass(frozen=True)
class ChunkResult:
    """What an agent sends back for one chunk.

    ``wall_time_s`` is the measured execution time of the whole chunk on
    its agent — the feedback signal for the scheduler's measured-cost
    packing (:class:`~repro.runtime.parallel.ChunkCostModel`).
    ``vectorized_fallback`` flags a chunk whose stacked sweep raised and
    was re-run scalar (that chunk paid for both attempts); the scheduler
    counts these so a deterministic stacked-path failure is visible
    instead of silently doubling a candidate's cost.

    ``memory_degrades`` counts OOM recovery-ladder steps the agent took
    for this chunk (group halving, scalar floor — see
    :func:`chunk_entries`); the scheduler turns a non-zero count into a
    ``memory-degrade`` :class:`~repro.runtime.frontier.SearchEvent`.
    ``cancelled`` is false on every delivered result: a cancelled chunk
    sends nothing back.
    """

    cancelled: bool
    entries: tuple["RunResult | RunError", ...] = ()
    wall_time_s: float = 0.0
    vectorized_fallback: bool = False
    memory_degrades: int = 0


def execute_chunk(
    chunk: JobChunk,
    split: "DataSplit",
    cancel_check,
    inject: "list[bool] | None" = None,
) -> ChunkResult:
    """Train a chunk through the OOM ladder and measure it.

    The one chunk runner of every agent: :func:`chunk_entries` plus the
    wall time and the ladder's counts the scheduler feeds back.  Raises
    :class:`~repro.exceptions.TrainingCancelled` when ``cancel_check``
    fires.
    """
    started = time.perf_counter()
    entries, fallback, degrades = chunk_entries(
        chunk.jobs,
        split,
        chunk.settings,
        vectorized=chunk.vectorized,
        cancel_check=cancel_check,
        inject=inject,
    )
    return ChunkResult(
        cancelled=False,
        entries=tuple(entries),
        wall_time_s=time.perf_counter() - started,
        vectorized_fallback=fallback,
        memory_degrades=degrades,
    )


def make_chunks(
    spec: "ModelSpec",
    candidate_index: int,
    seed: int,
    runs: int,
    chunk: int,
    settings: "TrainingSettings",
    vectorized: bool = False,
) -> list[JobChunk]:
    """All chunks of one candidate, in run order, ``chunk`` runs each.

    ``vectorized`` marks the chunks for run-stacked execution (the
    caller packs the whole run set into one chunk in that mode).
    """
    return [
        JobChunk(
            jobs=tuple(
                TrainingJob(spec, seed, candidate_index, run)
                for run in range(start, min(start + chunk, runs))
            ),
            split=None,
            settings=settings,
            vectorized=vectorized,
        )
        for start in range(0, runs, chunk)
    ]
