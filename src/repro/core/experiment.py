"""The paper's full experimental protocol (Fig. 3).

For every complexity level (feature size):

1. generate the spiral dataset at that level;
2. run the FLOPs-sorted grid search; each candidate is averaged over
   ``runs_per_candidate`` independent runs;
3. repeat the whole search ``n_experiments`` times (the paper uses 5) so
   training stochasticity is averaged at the *winner* level too;
4. record the list of winning configurations, their FLOPs and parameter
   counts.

:class:`ProtocolConfig` holds every knob so the experiment drivers can
define smoke/reduced/full profiles by replacing a few fields.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from .. import config as paper_config
from ..data.spiral import make_spiral
from ..data.splits import DataSplit, stratified_split
from ..exceptions import ExperimentError
from .grid_search import (
    CandidateResult,
    SearchOutcome,
    TrainingSettings,
    grid_search,
)
from .identity import check_backend, legacy_backend, setting
from .search_space import search_space_for_family

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..runtime.pool import PersistentPool

__all__ = ["ProtocolConfig", "LevelResult", "ProtocolResult", "run_protocol"]


@dataclass(frozen=True)
class ProtocolConfig:
    """Every knob of the benchmarking protocol.

    Defaults are the paper's full-fidelity settings; the experiment
    drivers override them for the smoke/reduced profiles.  Each field
    is tagged ``affects_results`` (see :mod:`repro.core.identity`): a
    field tagged ``False`` changes wall time, never results, so it
    keys no journal or result cache.
    """

    feature_sizes: tuple[int, ...] = setting(
        paper_config.FEATURE_SIZES, affects_results=True
    )
    n_experiments: int = setting(
        paper_config.N_EXPERIMENTS, affects_results=True
    )
    runs_per_candidate: int = setting(
        paper_config.RUNS_PER_CANDIDATE, affects_results=True
    )
    threshold: float = setting(
        paper_config.ACCURACY_THRESHOLD, affects_results=True
    )
    epochs: int = setting(paper_config.EPOCHS, affects_results=True)
    batch_size: int = setting(paper_config.BATCH_SIZE, affects_results=True)
    learning_rate: float = setting(
        paper_config.LEARNING_RATE, affects_results=True
    )
    n_points: int = setting(paper_config.N_POINTS, affects_results=True)
    val_fraction: float = setting(
        paper_config.VALIDATION_FRACTION, affects_results=True
    )
    early_stop: bool = setting(False, affects_results=True)
    max_candidates: int | None = setting(None, affects_results=True)
    convention: str = setting("paper", affects_results=True)
    dataset_seed: int = setting(0, affects_results=True)
    base_seed: int = setting(0, affects_results=True)
    #: Local agent processes per grid search: 1 (default) = in-process
    #: sequential, 0 = all cores, N > 1 = a pool of that many agents;
    #: negative values are rejected.
    workers: int = setting(1, affects_results=False)
    #: Run-stacked candidate training (one vectorized sweep per run set,
    #: see :class:`~repro.core.grid_search.TrainingSettings`).
    vectorized_runs: bool = setting(True, affects_results=False)
    #: Cross-candidate stacked execution: candidates with structurally
    #: identical tapes merge their run sets into one fused sweep.
    stacked_candidates: bool = setting(True, affects_results=False)
    #: How many times the parallel scheduler re-executes a chunk lost to
    #: a worker death, hard timeout, or runtime error before degrading
    #: to in-process sequential execution.
    max_retries: int = setting(2, affects_results=False)
    #: Optional checkpoint journal path.  Each of the protocol's grid
    #: searches writes its own derived file next to this path (e.g.
    #: ``ckpt-f4-e0.jsonl`` for ``ckpt.jsonl``): journals compact to a
    #: single search's records on resume, so sharing one file across
    #: searches would discard every other search's checkpoint.  An
    #: interrupted protocol rerun skips everything already committed.
    journal: str | None = setting(None, affects_results=False)
    #: Optional ``HOST:PORT`` to bind as a TCP cluster coordinator:
    #: every grid search leases chunks to ``repro cluster-agent
    #: --connect`` processes over checksummed socket frames — no shared
    #: filesystem needed (see ``repro.runtime.cluster_tcp``).  Overrides
    #: ``workers``/pool execution.
    connect: str | None = setting(None, affects_results=False)
    #: ``None`` or ``"numpy"``: every run executes on NumPy (see
    #: :func:`~repro.core.identity.legacy_backend`).
    backend: str | None = legacy_backend()
    #: Memory budget in bytes for the speculative runtime (None = an
    #: automatic fraction of free memory; <= 0 disables governance).  A
    #: budget only shrinks stacked groups and bounds in-flight bytes
    #: (see docs/parallel_runtime.md, "Memory governance").
    memory_budget: float | None = setting(None, affects_results=False)

    def __post_init__(self) -> None:
        check_backend(self)

    def training_settings(self) -> TrainingSettings:
        return TrainingSettings(
            epochs=self.epochs,
            batch_size=self.batch_size,
            learning_rate=self.learning_rate,
            runs=self.runs_per_candidate,
            early_stop_threshold=self.threshold if self.early_stop else None,
            vectorized_runs=self.vectorized_runs,
            stacked_candidates=self.stacked_candidates,
            max_retries=self.max_retries,
            backend=self.backend,
            memory_budget=self.memory_budget,
        )

    def with_(self, **overrides) -> "ProtocolConfig":
        """Copy with some fields replaced."""
        return replace(self, **overrides)


@dataclass
class LevelResult:
    """All experiments at one complexity level."""

    feature_size: int
    outcomes: list[SearchOutcome] = field(default_factory=list)

    @property
    def winners(self) -> list[CandidateResult]:
        """Winning candidates of the successful experiments."""
        return [o.winner for o in self.outcomes if o.winner is not None]

    @property
    def n_successes(self) -> int:
        return len(self.winners)

    @property
    def mean_flops(self) -> float:
        """Average FLOPs of the winning models (paper's plotted value)."""
        winners = self.winners
        if not winners:
            return float("nan")
        return float(np.mean([w.flops for w in winners]))

    @property
    def mean_params(self) -> float:
        winners = self.winners
        if not winners:
            return float("nan")
        return float(np.mean([w.params for w in winners]))

    @property
    def smallest_winner(self) -> CandidateResult | None:
        """Lowest-FLOPs winner (used by the paper's section IV-E)."""
        winners = self.winners
        if not winners:
            return None
        return min(winners, key=lambda w: (w.flops, w.params))

    @property
    def candidates_trained(self) -> int:
        return int(sum(o.candidates_trained for o in self.outcomes))


@dataclass
class ProtocolResult:
    """Outcome of the protocol for one model family."""

    family: str
    config: ProtocolConfig
    levels: list[LevelResult] = field(default_factory=list)

    @property
    def feature_sizes(self) -> list[int]:
        return [lvl.feature_size for lvl in self.levels]

    def mean_flops_series(self) -> list[float]:
        return [lvl.mean_flops for lvl in self.levels]

    def mean_params_series(self) -> list[float]:
        return [lvl.mean_params for lvl in self.levels]

    def smallest_flops_series(self) -> list[float]:
        return [
            float(w.flops) if (w := lvl.smallest_winner) else float("nan")
            for lvl in self.levels
        ]

    def smallest_params_series(self) -> list[float]:
        return [
            float(w.params) if (w := lvl.smallest_winner) else float("nan")
            for lvl in self.levels
        ]

    def level(self, feature_size: int) -> LevelResult:
        for lvl in self.levels:
            if lvl.feature_size == feature_size:
                return lvl
        raise ExperimentError(
            f"no level for feature size {feature_size} in this result"
        )


def _level_seed(cfg: ProtocolConfig, feature_size: int, experiment: int) -> int:
    """Deterministic, collision-free seed per (config, level, experiment)."""
    return (
        cfg.base_seed * 1_000_003 + feature_size * 101 + experiment
    ) % (2**31)


def _search_journal_path(
    journal: str | None, feature_size: int, experiment: int
) -> str | None:
    """One journal file per (level, experiment) search.

    Journals compact to one search's committed prefix on resume
    (:meth:`repro.runtime.journal.SearchJournal.load`), so the
    protocol's searches must not share a file: the derived name keeps
    every search's checkpoint alive across a protocol rerun.
    """
    if journal is None:
        return None
    import pathlib

    base = pathlib.Path(journal)
    return str(
        base.with_name(
            f"{base.stem}-f{feature_size}-e{experiment}{base.suffix}"
        )
    )


def make_level_split(cfg: ProtocolConfig, feature_size: int) -> DataSplit:
    """The dataset split shared by all experiments at one level."""
    dataset = make_spiral(
        feature_size, n_points=cfg.n_points, seed=cfg.dataset_seed
    )
    return stratified_split(
        dataset, val_fraction=cfg.val_fraction, seed=cfg.dataset_seed
    )


def run_protocol(
    family: str,
    cfg: ProtocolConfig | None = None,
    progress: Callable[[str], None] | None = None,
    pool: "PersistentPool | None" = None,
) -> ProtocolResult:
    """Run the full protocol for one model family.

    ``family`` is ``"classical"``, ``"bel"`` or ``"sel"``.

    The protocol is many grid searches back to back (one per level x
    experiment), so with ``cfg.workers > 1`` it creates **one**
    :class:`~repro.runtime.pool.PersistentPool` up front and reuses it
    for every search: agents start once, and each level's dataset
    reaches each agent once.  With ``cfg.connect`` it likewise binds one
    :class:`~repro.runtime.cluster_tcp.Coordinator` for every search, so
    remote agents stay connected between searches.  Pass ``pool`` to
    share an even longer-lived pool or coordinator across protocols (the
    CLI does this for ``repro all``); an explicit one is used as-is and
    left open for the caller.
    """
    cfg = cfg or ProtocolConfig()
    if cfg.n_experiments < 1:
        raise ExperimentError("n_experiments must be >= 1")
    result = ProtocolResult(family=family, config=cfg)
    settings = cfg.training_settings()

    # Fault-tolerance events (worker lost, chunk retried/timed out,
    # sequential fallback) flow into the same string-based progress
    # sink the drivers already display, so retries are visible without
    # a new reporting channel.
    on_event = None
    if progress is not None:
        on_event = lambda event: progress(f"[{family}] runtime: {event}")  # noqa: E731

    from ..runtime.parallel import resolve_workers

    owns_pool = pool is None
    if pool is None and cfg.connect is not None:
        from ..runtime.cluster_tcp import Coordinator

        pool = Coordinator(cfg.connect)
    elif pool is None and resolve_workers(cfg.workers) > 1:
        from ..runtime.pool import PersistentPool

        pool = PersistentPool(resolve_workers(cfg.workers))
    try:
        for feature_size in cfg.feature_sizes:
            split = make_level_split(cfg, feature_size)
            specs = search_space_for_family(family, feature_size)
            level = LevelResult(feature_size=feature_size)
            for experiment in range(cfg.n_experiments):
                outcome = grid_search(
                    specs,
                    split,
                    threshold=cfg.threshold,
                    settings=settings,
                    convention=cfg.convention,
                    seed=_level_seed(cfg, feature_size, experiment),
                    max_candidates=cfg.max_candidates,
                    workers=cfg.workers,
                    pool=pool,
                    journal=_search_journal_path(
                        cfg.journal, feature_size, experiment
                    ),
                    on_event=on_event,
                )
                level.outcomes.append(outcome)
                if progress is not None:
                    winner = (
                        outcome.winner.spec.label if outcome.winner else "-"
                    )
                    progress(
                        f"[{family}] fs={feature_size} "
                        f"exp={experiment + 1}/"
                        f"{cfg.n_experiments} winner={winner} "
                        f"({outcome.candidates_trained} candidates)"
                    )
            result.levels.append(level)
    finally:
        if owns_pool and pool is not None:
            pool.close()
    return result
