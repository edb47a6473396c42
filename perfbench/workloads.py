"""The benchmark's workloads: one uncached protocol slice each.

Every slice is one level of the ``reduced`` profile's protocol (1500
points, 0.2 validation split, batch 8, lr 1e-3, threshold 0.85, early
stop, two runs per candidate) cut to 5 epochs, on the NumPy backend,
run through :func:`repro.core.experiment.run_protocol` exactly as
``repro figN`` runs it.  The workload seed sets both ``base_seed`` and
``dataset_seed``.  See README.md for why each workload exists.

Feature sizes and candidate caps are chosen so that every seed commits
the same candidates and trains nearly the same epochs; README.md gives
the measurements behind them.
"""

from __future__ import annotations

from dataclasses import dataclass

#: The seed whose outcome digests are stored below.
DEFAULT_SEED = 0

#: Epochs per run: the reduced profile's 100 cut so that several
#: searches fit one benchmark run.
EPOCHS = 5


@dataclass(frozen=True)
class Workload:
    name: str
    family: str
    feature_size: int
    max_candidates: int
    #: Pool workers; 1 is the in-process sequential search.
    workers: int = 1
    #: Write a checkpoint journal into a fresh directory every search.
    journal: bool = False
    #: Name of the sequential workload whose outcome this one must
    #: reproduce bit for bit (parallel workloads only).
    reference: str | None = None
    #: Outcome digest and commit count of the default seed.
    default_digest: str = ""
    default_committed: int = 0

    def protocol_config(self, seed: int, journal=None):
        from repro.experiments.runner import REDUCED

        return REDUCED.protocol_config(
            feature_sizes=(self.feature_size,),
            epochs=EPOCHS,
            max_candidates=self.max_candidates,
            base_seed=seed,
            dataset_seed=seed,
            workers=self.workers,
            journal=journal,
            backend="numpy",
        )


_SEL = dict(
    family="sel",
    feature_size=110,
    max_candidates=4,
    default_digest="c68b25f828c8d4e3",
    default_committed=4,
)

WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("sel-seq", **_SEL),
        Workload(
            "classical-seq",
            family="classical",
            feature_size=110,
            max_candidates=35,
            journal=True,
            default_digest="f3934488457ce471",
            default_committed=35,
        ),
        Workload("sel-pool2", **_SEL, workers=2, reference="sel-seq"),
    )
}
