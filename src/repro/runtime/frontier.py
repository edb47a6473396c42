"""The commit frontier every execution mode of the grid search shares.

The paper's search (sections III-E/F) rests on one rule: train
candidates in ascending-FLOPs order, commit them in that order, and stop
at the first pass.  :class:`SearchFrontier` is the only implementation
of that rule.  Execution modes differ only in how run results reach it:

* in-process (``grid_search(workers=1)``, and the graceful-degradation
  floor of every other mode): :meth:`SearchFrontier.run_in_process`;
* the speculative scheduler (:class:`repro.runtime.parallel.Scheduler`)
  on its executor, whose agents are a persistent pool's local processes
  or remote hosts.

Each mode :meth:`~SearchFrontier.offer`\\ s per-run entries as they
arrive, in any order, and calls :meth:`~SearchFrontier.commit`.  A
candidate's verdict is folded once all of its runs are in, then waits in
``ready`` until every cheaper candidate has committed — so a speculative
higher-FLOPs verdict (or training error) is acted upon only at its turn,
and discarded wholesale if a cheaper candidate passes first.  That is
why the :class:`~repro.core.grid_search.SearchOutcome` is bit-identical
across modes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence

from .jobs import RunError, TrainingJob, chunk_entries

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.grid_search import (
        CandidateResult,
        SearchOutcome,
        TrainingSettings,
    )
    from ..core.search_space import ModelSpec
    from ..data.splits import DataSplit
    from ..flops.conventions import CountingConvention
    from .jobs import RunResult
    from .journal import SearchJournal

__all__ = ["SearchEvent", "SearchFrontier"]


@dataclass(frozen=True)
class SearchEvent:
    """A structured supervision event, delivered to ``on_event``.

    ``kind`` is one of:

    * ``"retry"``: a lost chunk was resubmitted;
    * ``"sequential-fallback"``: retries ran out (or no agent served a
      cluster), so the search finishes in-process;
    * ``"memory-degrade"``: an out-of-memory failure walked the recovery
      ladder (results are unchanged, only the execution shape degraded);
    * ``"group-resize"``: the memory budget resized an in-process group;
    * ``"chunk-overdue"``, ``"chunk-timeout"``: a chunk passed its soft
      or hard deadline;
    * ``"lease-expired"``: a chunk was reclaimed from a silent or
      partitioned agent;
    * ``"conn-lost"``: an agent's connection dropped (it was killed, or
      the link died) while it held a lease;
    * ``"torn-file"``: a socket frame or result failed validation;
    * ``"no-agents"``: no live agent served a cluster within its grace
      period.

    ``candidates`` lists the affected candidate indices (rank order);
    ``attempts`` is the highest submission count among the affected
    chunks at the time of the event.  ``str(event)`` is the human
    message, so string-based progress sinks can display events
    directly.
    """

    kind: str
    message: str
    candidates: tuple[int, ...] = ()
    attempts: int = 0

    def __str__(self) -> str:
        return self.message


class SearchFrontier:
    """FLOPs-order commit state of one search.

    Owns the ranked candidate list, the threshold and counting
    convention, the :class:`~repro.core.grid_search.SearchOutcome`, the
    optional :class:`~repro.runtime.journal.SearchJournal` and
    ``progress`` callback, the commit position ``next_commit`` and the
    ``ready`` buffer of folded verdicts past it.  Candidate indices are
    *absolute* ranks: every run's RNG stream derives from ``(seed,
    candidate_index, run)``.
    """

    def __init__(
        self,
        ranked: Sequence["ModelSpec"],
        threshold: float,
        convention: "CountingConvention",
        runs: int,
        progress: Callable[["CandidateResult"], None] | None = None,
        journal: "SearchJournal | None" = None,
    ) -> None:
        from ..core.grid_search import SearchOutcome

        self.ranked = ranked
        self.threshold = threshold
        self.convention = convention
        self.runs = runs
        self.progress = progress
        self.journal = journal
        self.outcome: "SearchOutcome" = SearchOutcome(
            threshold=threshold, winner=None
        )
        self.next_commit = 0
        self.ready: "dict[int, CandidateResult | RunError]" = {}
        self._runs: "dict[int, dict[int, RunResult | RunError]]" = {}

    @property
    def finished(self) -> bool:
        """A winner is committed, or every candidate is."""
        return (
            self.outcome.winner is not None
            or self.next_commit >= len(self.ranked)
        )

    def resume(self) -> bool:
        """Replay the journal's committed prefix; ``True`` when finished.

        Replay goes through the normal commit path — same ``progress``
        sequence, same early-stop check — minus the journal append.
        """
        if self.journal is not None:
            for candidate in self.journal.load():
                if self.finished:
                    break
                self._commit_one(candidate, replay=True)
        return self.finished

    def offer(self, entry: "RunResult | RunError") -> None:
        """Buffer one run's entry; fold the candidate once all runs are in.

        The fold surfaces the lowest-run :class:`RunError` (the one the
        scalar loop would hit first), otherwise
        :func:`~repro.core.grid_search.aggregate_runs` in run order.
        Entries for candidates already folded are ignored: chunks are
        deterministic, so a late copy carries the same results.
        """
        from ..core.grid_search import aggregate_runs

        index = entry.candidate_index
        if index < self.next_commit or index in self.ready:
            return
        per_run = self._runs.setdefault(index, {})
        per_run[entry.run] = entry
        if len(per_run) < self.runs:
            return
        del self._runs[index]
        ordered = [per_run[run] for run in range(self.runs)]
        errors = [e for e in ordered if isinstance(e, RunError)]
        self.ready[index] = (
            errors[0]
            if errors
            else aggregate_runs(self.ranked[index], self.convention, ordered)
        )

    def commit(self) -> bool:
        """Commit ready verdicts in rank order; ``True`` when finished.

        A :class:`RunError` verdict re-raises its error (with
        ``.attempts`` stamped) at its candidate's turn.
        """
        while not self.finished and self.next_commit in self.ready:
            self._commit_one(self.ready.pop(self.next_commit))
        return self.finished

    def _commit_one(
        self, verdict: "CandidateResult | RunError", replay: bool = False
    ) -> None:
        if isinstance(verdict, RunError):
            error = verdict.error
            try:
                error.attempts = verdict.attempts
            except Exception:  # pragma: no cover - exotic error type
                pass
            raise error
        self.outcome.evaluated.append(verdict)
        if self.journal is not None and not replay:
            # Journal before the progress callback: if the driver dies
            # inside its own callback, the committed candidate is
            # already durable and a resume replays it.
            self.journal.append(self.next_commit, verdict)
        self.next_commit += 1
        if self.progress is not None:
            self.progress(verdict)
        if verdict.passes(self.threshold):
            self.outcome.winner = verdict

    def run_in_process(
        self,
        split: "DataSplit",
        settings: "TrainingSettings",
        seed: int,
        on_event: Callable[[SearchEvent], None] | None = None,
    ) -> "SearchOutcome":
        """Finish the search in this process, from the commit frontier.

        Each step trains the group :func:`~repro.core.grid_search.plan_group`
        anchors at ``next_commit`` through the OOM ladder
        (:func:`~repro.runtime.jobs.chunk_entries`), then offers the
        entries and commits.  Verdicts already in ``ready`` (earlier
        speculation, or a distributed executor's buffered results) are
        reused, never retrained.  This is ``grid_search(workers=1)`` and
        the graceful-degradation floor of every other mode.

        Memory governance: one budget resolution for the whole run
        (the setting, else a fraction of the free-memory probe) caps
        every group; a group the budget shrank emits ``group-resize``,
        and a group whose ladder degraded emits one ``memory-degrade``
        with the step count.  Budgets shape group sizes, never results.
        """
        from ..core.grid_search import plan_group
        from ..quantum.engine import compile_cache_scope
        from .memory import resolve_memory_budget

        def emit(kind: str, message: str, group: Sequence[int]) -> None:
            if on_event is not None:
                on_event(
                    SearchEvent(
                        kind=kind, message=message, candidates=tuple(group)
                    )
                )

        budget = resolve_memory_budget(settings.memory_budget)
        with compile_cache_scope():
            while not self.commit():
                index = self.next_commit
                skip = self.ready.keys()
                group = plan_group(
                    self.ranked, index, settings, skip=skip, budget=budget
                )
                if budget is not None and on_event is not None:
                    ungoverned = plan_group(
                        self.ranked, index, settings, skip=skip
                    )
                    if len(group) < len(ungoverned):
                        emit(
                            "group-resize",
                            f"budget of {budget} bytes shrank group at "
                            f"{index} to {len(group)} members "
                            f"(ungoverned: {len(ungoverned)})",
                            group,
                        )
                jobs = [
                    TrainingJob(self.ranked[j], seed, j, run)
                    for j in group
                    for run in range(settings.runs)
                ]
                entries, _, degrades = chunk_entries(
                    jobs, split, settings, vectorized=settings.vectorized_runs
                )
                if degrades:
                    emit(
                        "memory-degrade",
                        f"group {group} hit out-of-memory and recovered "
                        f"via {degrades} degradation step(s); results "
                        "are unchanged",
                        group,
                    )
                for entry in entries:
                    self.offer(entry)
        return self.outcome
