"""Synthetic dataset generation (the paper's section III-A).

Names load on first use (see :mod:`repro._lazy`), so a search does not
import the complexity probe; a new public name goes in the table below.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "spiral": ("SpiralDataset", "make_spiral", "DERIVED_FEATURE_KINDS"),
        "splits": ("DataSplit", "one_hot", "stratified_split"),
        "complexity_probe": ("ProbeResult", "probe_complexity"),
    },
)
