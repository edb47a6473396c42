"""Run profiles and shared machinery for the experiment drivers.

The paper's full protocol (11 complexity levels x 5 experiments x 5 runs
x up to 155 candidates x 100 epochs) is far beyond a laptop budget; the
authors rely on FLOPs-sorted early stopping, and even then a full rerun
is hours of compute.  Every experiment driver therefore accepts a
*profile*:

``smoke``
    Seconds.  Tiny dataset, two levels, one experiment, capped candidate
    count.  Exercises every code path; used by the test suite and the
    pytest benchmarks.
``reduced``
    Tens of minutes on a laptop.  The paper's reported feature sizes
    (10/40/80/110), one experiment, two runs per candidate, early
    stopping, threshold 0.85 (see RunProfile).  This is the profile
    behind the numbers in EXPERIMENTS.md.
``full``
    The paper's exact protocol.

Profiles only change *scale* knobs; the methodology (search spaces,
ordering, thresholds, metrics) is identical across profiles.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Callable

from ..core.experiment import ProtocolConfig, ProtocolResult, run_protocol
from ..core.results import protocol_from_dict, save_protocol
from ..exceptions import ExperimentError
from ..quantum.engine import ARITHMETIC_VERSION

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..runtime.pool import PersistentPool

__all__ = [
    "RunProfile",
    "SMOKE",
    "REDUCED",
    "FULL",
    "PROFILES",
    "get_profile",
    "run_family",
    "run_family_cached",
]


@dataclass(frozen=True)
class RunProfile:
    """Scale knobs for one experiment execution.

    ``threshold`` is the iso-accuracy condition.  The full profile uses
    the paper's 0.90.  The reduced profile uses 0.85: with our NumPy
    substrate and dataset realization the achievable validation ceiling
    at the highest complexity level sits at ~0.87-0.91 for *every* model
    family, so the paper's 0.90 line falls inside the sampling noise of a
    300-point validation set (one sample = 0.33 accuracy points) and
    pass/fail decisions near it are coin flips.  Dropping the line to
    0.85 keeps the methodology identical (one fixed threshold for all
    families and levels) while giving every decision a >=2-point margin.
    See EXPERIMENTS.md.
    """

    name: str
    feature_sizes: tuple[int, ...]
    n_experiments: int
    runs_per_candidate: int
    epochs: int
    batch_size: int
    n_points: int
    early_stop: bool
    max_candidates: int | None
    threshold: float | None = None

    def protocol_config(self, **overrides) -> ProtocolConfig:
        """Materialize a :class:`ProtocolConfig` for this profile."""
        cfg = ProtocolConfig(
            feature_sizes=self.feature_sizes,
            n_experiments=self.n_experiments,
            runs_per_candidate=self.runs_per_candidate,
            epochs=self.epochs,
            batch_size=self.batch_size,
            n_points=self.n_points,
            early_stop=self.early_stop,
            max_candidates=self.max_candidates,
        )
        if self.threshold is not None:
            cfg = cfg.with_(threshold=self.threshold)
        return cfg.with_(**overrides) if overrides else cfg


SMOKE = RunProfile(
    name="smoke",
    feature_sizes=(10, 30),
    n_experiments=1,
    runs_per_candidate=1,
    epochs=15,
    batch_size=8,
    n_points=150,
    early_stop=True,
    max_candidates=4,
    threshold=0.4,
)

REDUCED = RunProfile(
    name="reduced",
    feature_sizes=(10, 40, 80, 110),
    n_experiments=1,
    runs_per_candidate=2,
    epochs=100,
    batch_size=8,
    n_points=1500,
    early_stop=True,
    # At 80+ features every width-2-first classical combination (31 of
    # them) costs fewer FLOPs than any width-4 model, so the cap must
    # exceed 31 for the classical search to be able to escalate.
    max_candidates=45,
    threshold=0.85,
)

FULL = RunProfile(
    name="full",
    feature_sizes=tuple(range(10, 120, 10)),
    n_experiments=5,
    runs_per_candidate=5,
    epochs=100,
    batch_size=8,
    n_points=1500,
    early_stop=False,
    max_candidates=None,
)

PROFILES: dict[str, RunProfile] = {p.name: p for p in (SMOKE, REDUCED, FULL)}


def get_profile(name: str | RunProfile) -> RunProfile:
    """Look a profile up by name (pass-through for instances)."""
    if isinstance(name, RunProfile):
        return name
    try:
        return PROFILES[name]
    except KeyError:
        raise ExperimentError(
            f"unknown profile {name!r}; options: {sorted(PROFILES)}"
        ) from None


def run_family(
    family: str,
    profile: str | RunProfile = "smoke",
    progress: Callable[[str], None] | None = None,
    workers: int = 1,
    pool: "PersistentPool | None" = None,
    **config_overrides,
) -> ProtocolResult:
    """Run the protocol for one family under a profile.

    ``workers`` selects the grid-search execution mode (see
    :func:`repro.core.grid_search.grid_search`); it scales wall time
    only — results are identical for any worker count.  ``pool`` lends
    an existing :class:`~repro.runtime.pool.PersistentPool` so warm
    workers carry over across families (without it, ``workers > 1``
    creates one pool per protocol run).
    """
    prof = get_profile(profile)
    cfg = prof.protocol_config(workers=workers, **config_overrides)
    return run_protocol(family, cfg, progress=progress, pool=pool)


def run_family_cached(
    family: str,
    profile: str | RunProfile = "smoke",
    cache_dir: str | Path | None = None,
    progress: Callable[[str], None] | None = None,
    workers: int = 1,
    pool: "PersistentPool | None" = None,
    **config_overrides,
) -> ProtocolResult:
    """Like :func:`run_family`, but reuse a JSON result when present.

    The cache key is ``{family}_{profile}.json`` inside ``cache_dir``;
    pass ``cache_dir=None`` to disable caching entirely.  ``workers``,
    ``pool``, ``vectorized_runs``, ``stacked_candidates``,
    ``max_retries``, ``journal``, ``spool``, ``connect`` and
    ``memory_budget`` do not
    enter the cache key: they select execution/supervision mechanics that
    produce identical results, so any may serve another's cache.  Every other config
    override *does* change results, so it is appended to the key —
    ``repro fig8 --runs 3`` will never be served a default-runs cache
    entry (nor poison it).  ``backend`` is deliberately in the second
    camp: device backends are tolerance-grade, not bit-identical, so
    ``backend="torch"`` results live under their own ``_backend-torch``
    cache files and never serve (or poison) the NumPy reference cache.
    A cached file is served only if it was computed under the engine's
    current :data:`~repro.quantum.engine.ARITHMETIC_VERSION` (stamped
    into every saved result; files written before the stamp carry
    none): results computed by older kernels are recomputed and
    overwritten, never served as current.
    """
    prof = get_profile(profile)
    if cache_dir is None:
        return run_family(
            family,
            prof,
            progress=progress,
            workers=workers,
            pool=pool,
            **config_overrides,
        )
    cache_dir = Path(cache_dir)
    base_cfg = prof.protocol_config()
    affecting = {
        k: v
        for k, v in sorted(config_overrides.items())
        if k
        not in (
            "vectorized_runs",
            "stacked_candidates",
            "max_retries",
            "journal",
            "spool",
            "connect",
            "memory_budget",
        )
        and getattr(base_cfg, k, None) != v
    }
    suffix = "".join(f"_{k}-{v}" for k, v in affecting.items())
    path = cache_dir / f"{family}_{prof.name}{suffix}.json"
    if path.exists():
        data = json.loads(path.read_text())
        if data.get("arithmetic_version") == ARITHMETIC_VERSION:
            return protocol_from_dict(data)
    result = run_family(
        family,
        prof,
        progress=progress,
        workers=workers,
        pool=pool,
        **config_overrides,
    )
    save_protocol(result, path)
    return result
