"""Picklable training-job payloads and the shared run primitives.

The parallel search runtime ships jobs to worker processes, so a job
must be a small, picklable value object: the :class:`ModelSpec` (frozen
dataclass), the base seed and the ``(candidate_index, run)`` coordinates
that derive the job's RNG stream.  The heavyweight, per-search constants
— the :class:`~repro.data.splits.DataSplit` and
:class:`~repro.core.grid_search.TrainingSettings` — travel once per
worker via the pool initializer, not once per job.

:func:`execute_job` is the *only* place a scalar (candidate, run)
training run happens: the sequential grid search and every pool worker
call the same function with the same ``(seed, candidate_index,
run)``-derived RNG, so parallel results are bit-identical to sequential
ones by construction rather than by testing alone.

:func:`execute_runs` is its run-vectorized sibling: it trains a whole
run set of one candidate as one stacked sweep
(:class:`repro.nn.training.VectorizedTrainer`) when the model stacks,
and falls back to per-run :func:`execute_job` calls otherwise.  The
stacked path's kernels are bit-identical to the scalar ones per run, so
either path yields the same :class:`RunResult` list.

:func:`execute_candidates` generalizes one step further: several
candidates of one family and data shape (equal
:meth:`~repro.core.search_space.ModelSpec.group_key`) merge their run
sets into one cross-candidate fused sweep
(:func:`repro.nn.stacked.stack_candidates` +
:func:`repro.nn.training.train_stack`).  Per-slice arithmetic is again
bit-identical to the per-candidate paths, so grouping is pure wall-time
optimization.

:func:`chunk_entries` is the one **OOM recovery ladder** over those
primitives, shared by every execution mode: pool workers, TCP cluster
agents and the in-process executor
(:meth:`repro.runtime.frontier.SearchFrontier.run_in_process`).  It
turns a list of jobs into per-run :class:`RunResult` / :class:`RunError`
entries, degrading an out-of-memory sweep stepwise (halve the group,
retry on NumPy, fall to the scalar loop) and re-attributing any other
sweep failure to its exact ``(candidate, run)`` through the scalar loop.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from ..backends import resolve_backend, use_backend
from ..exceptions import TrainingCancelled
from ..nn.optimizers import Adam
from ..nn.stacked import stack_candidates
from ..nn.training import VectorizedTrainer, train_model, train_stack
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

    By default histories stay in the worker; only the paper's per-run
    metrics (max train/val accuracy over epochs), the epoch count and
    the wall time cross the process boundary.  With
    ``TrainingSettings.return_histories`` the full per-epoch
    :class:`~repro.nn.training.History` rides along too — large ones are
    shipped back through shared memory rather than the pool's pickle
    channel (see :mod:`repro.runtime.pool`).
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
    after a worker loss or timeout); the scheduler stamps it so error
    reports distinguish a first-try failure from one that survived
    retries.
    """

    candidate_index: int
    run: int
    error: Exception
    attempts: int = 1


def _settings_backend(settings: "TrainingSettings"):
    """The ``use_backend`` scope for one job's settings.

    Resolves ``settings.backend`` (explicit > ``REPRO_BACKEND`` env >
    process default > numpy) with the standard fallback-to-numpy when
    the requested backend is unimportable; the structured fallback
    event is emitted once by the grid search, not per job.  Scoping the
    active backend around each stacked sweep is what lets pooled
    workers and the sequential path share one selection mechanism.
    """
    backend, _ = resolve_backend(settings.backend)
    return use_backend(backend)


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

    With ``vectorized`` (and at least two runs), the models are built
    from their per-run RNG streams, stacked, and trained in lockstep by
    one :class:`~repro.nn.training.VectorizedTrainer` sweep — the
    innermost hot loop of a grid search becomes one tape sweep instead
    of ``len(runs)``.  Models that cannot be stacked (custom layers,
    parameter-shift gradients...), and single-run sets, fall back to
    scalar :func:`execute_job` calls.  Both paths produce bit-identical
    :class:`RunResult` metrics; only ``wall_time_s`` differs (stacked
    runs share the lockstep clock).

    The stacked sweep runs on the backend resolved from
    ``settings.backend`` (scalar fallbacks always use NumPy — the
    scalar layers are NumPy code).
    """
    runs = list(runs)

    def scalar() -> list[RunResult]:
        return [
            execute_job(
                TrainingJob(spec, seed, candidate_index, run),
                split,
                settings,
                cancel_check=cancel_check,
            )
            for run in runs
        ]

    if not vectorized or len(runs) < 2:
        return scalar()
    with _settings_backend(settings):
        # Build each run's model from its own (seed, candidate, run)
        # stream; the streams then continue into minibatch shuffling,
        # exactly as in execute_job.  Build errors surface at the lowest
        # run first, like the scalar loop's.
        rngs = [
            np.random.default_rng((seed, candidate_index, run))
            for run in runs
        ]
        models = [spec.build(rng=rng) for rng in rngs]
        trainer = VectorizedTrainer(
            models, learning_rate=settings.learning_rate
        )
        if not trainer.available:
            # Unstackable models: train the ones just built (their rngs
            # are already past initialization, exactly where
            # execute_job's would be) instead of rebuilding each from
            # scratch.
            return [
                _to_result(
                    candidate_index,
                    run,
                    train_model(
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
                    ),
                    settings,
                )
                for run, model, rng in zip(runs, models, rngs)
            ]
        histories = trainer.train(
            split.x_train,
            split.y_train,
            split.x_val,
            split.y_val,
            epochs=settings.epochs,
            batch_size=settings.batch_size,
            rngs=rngs,
            early_stop_threshold=settings.early_stop_threshold,
            cancel_check=cancel_check,
        )
    return [
        _to_result(candidate_index, run, history, settings)
        for run, history in zip(runs, histories)
    ]


def execute_candidates(
    group: Sequence[tuple["ModelSpec", int, Sequence[int]]],
    seed: int,
    split: "DataSplit",
    settings: "TrainingSettings",
    cancel_check: Callable[[], bool] | None = None,
) -> list[RunResult] | None:
    """Train several candidates' run sets as one cross-candidate sweep.

    ``group`` holds ``(spec, candidate_index, runs)`` triples in rank
    order, usually sharing a ``group_key``; their models fuse into one
    shared-head / per-candidate-middle / shared-tail stack
    (:func:`repro.nn.stacked.stack_candidates`).  Every slice — one
    ``(candidate, run)`` pair, candidate-major in group order — builds
    its model from the same ``(seed, candidate_index, run)`` stream the
    scalar and per-candidate paths use, so results are bit-identical to
    training each candidate separately.

    Returns ``None`` when the group cannot be stacked
    (:func:`repro.nn.stacked.stack_candidates` declined) — the caller
    falls back to per-candidate execution with nothing consumed.  A
    training (or build) error raises: the error cannot be attributed to
    one candidate from inside the fused sweep, so callers re-run per
    candidate to reproduce the exact per-candidate error.
    """
    slices = [
        (spec, candidate_index, run)
        for spec, candidate_index, runs in group
        for run in runs
    ]
    if len(slices) < 2:
        return None
    with _settings_backend(settings):
        rngs = [
            np.random.default_rng((seed, candidate_index, run))
            for _, candidate_index, run in slices
        ]
        models = [
            spec.build(rng=rng) for (spec, _, _), rng in zip(slices, rngs)
        ]
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
# The ladder calls execute_runs / execute_candidates through this
# module's globals, so wrapping or patching them here reaches every
# execution mode at once.


def _maybe_inject_oom(inject: "list[bool] | None") -> None:
    """Raise the armed ``oom`` fault once (worker side, tests only)."""
    if inject and inject[0]:
        inject[0] = False
        raise MemoryError("injected 'oom' fault")


def _candidate_entries(
    jobs: Sequence[TrainingJob],
    split: "DataSplit",
    settings: "TrainingSettings",
    vectorized: bool,
    cancel_check: Callable[[], bool] | None,
    inject: "list[bool] | None",
):
    """Execute one candidate's runs; per-run errors become RunError entries.

    The vectorized path trains the whole run set in one stacked sweep.
    A failure inside that sweep cannot be attributed to a single run, so
    it falls back to the scalar per-run loop, which reproduces the exact
    error the sequential loop would hit first (lowest run) and still
    accounts for every other run.

    An *out-of-memory* failure in the sweep is a resource, not a
    correctness, problem: it walks the recovery ladder instead — retry
    the fused sweep on the NumPy backend (device OOMs usually fit in
    host RAM), then the per-run scalar path — each step counted in
    ``memory_degrades``.  Every step trains from the same
    ``(seed, candidate, run)`` streams and the scalar path is the
    bit-identity oracle, so degradation never changes results.
    """
    fallback = False
    degrades = 0
    if vectorized and len(jobs) > 1:
        job0 = jobs[0]
        runs = [job.run for job in jobs]
        steps = [settings]
        if not resolve_backend(settings.backend)[0].is_numpy:
            steps.append(replace(settings, backend="numpy"))
        for step in steps:
            try:
                _maybe_inject_oom(inject)
                results = execute_runs(
                    job0.spec,
                    job0.seed,
                    job0.candidate_index,
                    runs,
                    split,
                    step,
                    cancel_check=cancel_check,
                    vectorized=True,
                )
                return results, False, degrades
            except TrainingCancelled:
                raise
            except Exception as exc:  # noqa: BLE001 - classified below
                if not is_memory_error(exc):
                    fallback = True  # re-run scalar for attribution
                    break
                degrades += 1
    elif inject and inject[0]:
        # No fused sweep to inject into (scalar chunk): the ladder's
        # floor *is* the scalar path, so the fault is absorbed here —
        # counted, never re-raised — keeping results identical.
        inject[0] = False
        degrades += 1
    entries: list[RunResult | RunError] = []
    for job in jobs:
        try:
            entries.append(
                execute_job(job, split, settings, cancel_check=cancel_check)
            )
        except TrainingCancelled:
            raise
        except Exception as exc:  # noqa: BLE001 - surfaced at commit turn
            entries.append(RunError(job.candidate_index, job.run, exc))
    return entries, fallback, degrades


def _grouped_entries(
    items: "list[list[TrainingJob]]",
    split: "DataSplit",
    settings: "TrainingSettings",
    cancel_check: Callable[[], bool] | None,
    inject: "list[bool] | None",
):
    """One cross-candidate fused sweep over ``items`` (one job list per
    candidate), with OOM halving.

    ``entries`` is ``None`` when the caller must fall back to
    per-candidate execution (the group declined to stack, or the sweep
    failed for a non-memory reason).  An out-of-memory sweep splits the
    group in half and fuses each half recursively — per-slice arithmetic
    is unchanged by group membership, so every split is bit-identical to
    the unsplit sweep.
    """
    group = [
        (jobs[0].spec, jobs[0].candidate_index, [job.run for job in jobs])
        for jobs in items
    ]
    try:
        _maybe_inject_oom(inject)
        results = execute_candidates(
            group, items[0][0].seed, split, settings, cancel_check=cancel_check
        )
    except TrainingCancelled:
        raise
    except Exception as exc:  # noqa: BLE001 - classified below
        if not (is_memory_error(exc) and len(items) > 1):
            return None, True, 0
        mid = (len(items) + 1) // 2
        entries, fallback, degrades = [], False, 1
        for half in (items[:mid], items[mid:]):
            sub_entries = None
            if len(half) > 1:
                sub_entries, sub_fallback, sub_degrades = _grouped_entries(
                    half, split, settings, cancel_check, inject
                )
                fallback = fallback or sub_fallback
                degrades += sub_degrades
            if sub_entries is None:
                sub_entries, sub_fallback, sub_degrades = _per_candidate(
                    half, split, settings, True, cancel_check, inject
                )
                fallback = fallback or sub_fallback
                degrades += sub_degrades
            entries.extend(sub_entries)
        return entries, fallback, degrades
    if results is None:
        return None, False, 0
    return list(results), False, 0


def _per_candidate(
    items: "list[list[TrainingJob]]",
    split: "DataSplit",
    settings: "TrainingSettings",
    vectorized: bool,
    cancel_check: Callable[[], bool] | None,
    inject: "list[bool] | None",
):
    """:func:`_candidate_entries` over each candidate, flags merged."""
    entries: list[RunResult | RunError] = []
    fallback = False
    degrades = 0
    for jobs in items:
        sub_entries, sub_fallback, sub_degrades = _candidate_entries(
            jobs, split, settings, vectorized, cancel_check, inject
        )
        entries.extend(sub_entries)
        fallback = fallback or sub_fallback
        degrades += sub_degrades
    return entries, fallback, degrades


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
    With ``vectorized``, a multi-candidate batch first attempts one
    cross-candidate fused sweep (:func:`execute_candidates`), halving on
    out-of-memory; if the group declines to stack or the sweep raises,
    every candidate re-runs through the per-candidate path, which
    re-attributes any error to its exact ``(candidate, run)``.  Each
    candidate's run set trains as one stacked sweep (:func:`execute_runs`)
    with a NumPy retry and a scalar floor below it.

    ``cancel_check`` aborts training with
    :class:`~repro.exceptions.TrainingCancelled`; ``inject`` is the
    worker fault hook (a one-shot ``[armed]`` flag raising
    ``MemoryError`` in the first recoverable attempt).
    """
    by_candidate: dict[int, list[TrainingJob]] = {}
    for job in jobs:
        by_candidate.setdefault(job.candidate_index, []).append(job)
    items = list(by_candidate.values())
    fallback = False
    degrades = 0
    if vectorized and len(items) > 1:
        entries, fallback, degrades = _grouped_entries(
            items, split, settings, cancel_check, inject
        )
        if entries is not None:
            return entries, fallback, degrades
    entries, sub_fallback, sub_degrades = _per_candidate(
        items, split, settings, vectorized, cancel_check, inject
    )
    return entries, fallback or sub_fallback, degrades + sub_degrades
