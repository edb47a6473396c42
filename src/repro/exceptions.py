"""Exception hierarchy for the :mod:`repro` library.

All library-raised errors derive from :class:`ReproError` so callers can
catch everything coming out of this package with one ``except`` clause
while still being able to discriminate on the finer-grained subclasses.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the :mod:`repro` library."""


class ConfigurationError(ReproError):
    """An object was configured with invalid or inconsistent arguments."""


class WireError(ConfigurationError):
    """A quantum operation referenced a wire outside the register."""


class ShapeError(ConfigurationError):
    """An array argument had an incompatible shape."""


class GateError(ConfigurationError):
    """An unknown gate name or invalid gate parameterization was used."""


class SearchError(ReproError):
    """The model search could not complete (e.g. empty search space)."""


class TrainingCancelled(ReproError):
    """A training run was cooperatively cancelled mid-flight.

    Raised by :func:`repro.nn.training.train_model` when its
    ``cancel_check`` fires; agents use it to abort speculative runs
    whose chunk was cancelled."""


class SearchExhaustedError(SearchError):
    """No candidate in the search space met the accuracy condition."""


class ProfileError(ReproError):
    """The FLOPs profiler encountered a layer it cannot cost."""


class ExperimentError(ReproError):
    """An experiment driver was invoked with an invalid configuration."""
