"""Which configuration fields decide a result.

Every field of :class:`~repro.core.grid_search.TrainingSettings` and
:class:`~repro.core.experiment.ProtocolConfig` is declared through
:func:`setting`, tagged ``affects_results``.  The journal key
(:func:`repro.runtime.journal.search_key`), the result-cache filename
and the CLI's default cost-cache name are all derived from
:func:`result_identity`, so classifying a field is one edit in one
place; a field declared without a tag fails the classification test.
"""

from __future__ import annotations

from dataclasses import field, fields
from typing import Any, Callable

from ..backends import resolve_backend

__all__ = ["setting", "result_identity", "resolved_backend_name"]


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


def resolved_backend_name(name: "str | None") -> str:
    """The backend a run under ``name`` actually executes on.

    ``None`` defers to ``REPRO_BACKEND``, and an unimportable device
    backend falls back to NumPy, so the request alone does not say
    which arithmetic produced a result.
    """
    return resolve_backend(name)[0].name
