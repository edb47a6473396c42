"""The scalar reference search the differential suites compare against.

Every search trains stacked sweeps through the OOM ladder; this is the
sequential loop those sweeps must reproduce bit for bit: candidates in
FLOPs order, every run through :func:`~repro.runtime.jobs.execute_job`,
each candidate folded by :func:`~repro.core.grid_search.aggregate_runs`,
stopping at the first pass.  Import it from a test module in this
directory as ``from scalar_oracle import scalar_search``.
"""

from __future__ import annotations

from repro.core.grid_search import (
    SearchOutcome,
    TrainingSettings,
    aggregate_runs,
    rank_by_flops,
)
from repro.flops.conventions import get_convention
from repro.runtime.jobs import TrainingJob, execute_job


def scalar_search(
    specs,
    split,
    threshold: float,
    settings: TrainingSettings,
    *,
    convention: str = "paper",
    seed: int = 0,
    max_candidates: int | None = None,
) -> SearchOutcome:
    """``grid_search``'s outcome, trained one run at a time."""
    conv = get_convention(convention)
    ranked = rank_by_flops(specs, conv)
    if max_candidates is not None:
        ranked = ranked[:max_candidates]
    outcome = SearchOutcome(threshold=threshold, winner=None)
    for index, spec in enumerate(ranked):
        results = [
            execute_job(TrainingJob(spec, seed, index, run), split, settings)
            for run in range(settings.runs)
        ]
        candidate = aggregate_runs(spec, conv, results)
        outcome.evaluated.append(candidate)
        if candidate.passes(threshold):
            outcome.winner = candidate
            break
    return outcome
