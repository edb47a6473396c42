"""Which configuration fields decide a result.

Every field of :class:`~repro.core.grid_search.TrainingSettings` and
:class:`~repro.core.experiment.ProtocolConfig` is declared through
:func:`setting`, tagged ``affects_results``.  The journal key
(:func:`repro.runtime.journal.search_key`) and the result-cache filename
are both derived from :func:`result_identity`, so classifying a field is
one edit in one place; a field declared without a tag fails the
classification test.
"""

from __future__ import annotations

from dataclasses import field, fields
from typing import Any, Callable

from ..exceptions import ConfigurationError

__all__ = ["setting", "result_identity", "legacy_backend", "check_backend"]


def setting(
    default: Any,
    *,
    affects_results: bool,
    identity: "Callable[[Any], Any] | None" = None,
):
    """A dataclass field tagged with whether it can change results.

    ``identity`` maps the field's value to what identifies its results
    when the value alone does not (``None`` keeps the value).
    """
    metadata: dict = {"affects_results": affects_results}
    if identity is not None:
        metadata["identity"] = identity
    return field(default=default, metadata=metadata)


def result_identity(config) -> dict:
    """``{name: identity}`` of every result-affecting field of ``config``."""
    identity = {}
    for f in fields(config):
        if f.metadata["affects_results"]:
            value = getattr(config, f.name)
            to_identity = f.metadata.get("identity")
            identity[f.name] = (
                to_identity(value) if to_identity is not None else value
            )
    return identity


def legacy_backend():
    """The ``backend`` field: ``None`` or ``"numpy"``, kept so
    configurations that name it still load.

    Every run executes on NumPy, so its identity is the constant
    ``"numpy"``: the journal key keeps the top-level ``"backend"``
    entry earlier releases hashed, and no value forks a cache name.
    Classes declaring it call :func:`check_backend` at construction.
    """
    return setting(None, affects_results=True, identity=lambda _: "numpy")


def check_backend(config) -> None:
    """Reject any ``config.backend`` but ``None`` and ``"numpy"``."""
    if config.backend not in (None, "numpy"):
        raise ConfigurationError(
            f"backend must be None or 'numpy', got {config.backend!r}"
        )
