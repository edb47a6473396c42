"""Memory governance: one budget, one analytic estimate, OOM classification.

The stacked execution engine buys throughput by fusing ever-larger
``(C*R*B, 2**n)`` complex sweeps, and nothing in the scheduler used to
bound them: a grid search that merges four 5-qubit candidates allocates
every run's layer unitaries and recorded states at once.  This module
makes memory a governed resource:

* :func:`resolve_memory_budget` turns ``TrainingSettings.memory_budget``
  (``--memory-budget`` on the CLI) into one byte count, or, when it is
  unset, a fraction of the host's available memory (``MemAvailable``
  in ``/proc/meminfo``).  The in-process executor trims its groups
  against it (:func:`fit_group`) and the pool scheduler sizes its
  admissions.
* :func:`estimate_group_bytes` is the analytic peak-bytes model of a
  fused group, built from the specs alone: each member's
  :func:`estimate_candidate_bytes` (parameter stacks with Adam moments,
  dense activations, and the quantum sweep's state buffers and gate
  stacks) at the group's deepest ``n_layers``, since a fused quantum
  layer runs every slice at its deepest member's depth.
* :func:`is_memory_error` classifies an exception as a *resource*
  failure (``MemoryError``, ``ENOMEM``, shm ``ENOSPC``) so the
  chunk runner degrades gracefully instead of retrying the same
  oversized allocation as if a worker had crashed.

A budget only ever shrinks a group or holds back a chunk; the OOM
ladder (:func:`repro.runtime.jobs.chunk_entries`) catches what the
estimate misses.  Group splitting and the scalar fallback are
bit-identity-preserving, so any budget (and any OOM mid-search) yields
the same :class:`~repro.core.grid_search.SearchOutcome`.
"""

from __future__ import annotations

import dataclasses
import math
import os
from typing import Sequence

from ..config import MEMORY_BUDGET_FRACTION
from ..exceptions import ConfigurationError

__all__ = [
    "parse_memory_budget",
    "resolve_memory_budget",
    "is_memory_error",
    "estimate_candidate_bytes",
    "estimate_group_bytes",
    "fit_group",
]

#: float64 / complex128 item sizes used by the analytic byte model.
_REAL_ITEM = 8
_COMPLEX_ITEM = 16

_UNIT_SUFFIXES = {
    "": 1,
    "K": 1024,
    "M": 1024**2,
    "G": 1024**3,
    "T": 1024**4,
}


def parse_memory_budget(text: str) -> float:
    """Parse a ``--memory-budget`` value into bytes.

    Accepts a plain number of bytes or a ``K``/``M``/``G``/``T``
    binary-suffixed value (optional trailing ``B``, case-insensitive):
    ``"2G"`` is 2 GiB.  ``"0"``, ``"none"`` and ``"off"`` disable
    governance (a non-positive budget).  Non-finite values (``nan``,
    ``inf``, ``1e400``) are rejected.
    """
    raw = str(text).strip()
    if raw.lower() in ("none", "off"):
        return 0.0
    body = raw.upper().rstrip("B") if raw.upper().endswith("B") else raw.upper()
    suffix = body[-1:] if body[-1:] in _UNIT_SUFFIXES and body[-1:].isalpha() else ""
    number = body[: len(body) - len(suffix)] if suffix else body
    try:
        value = float(number) * _UNIT_SUFFIXES.get(suffix, 1)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ConfigurationError(
            f"invalid memory budget {text!r}: expected bytes or a "
            f"K/M/G/T-suffixed size (e.g. 512M, 2G), or 0/none/off"
        )
    return value


def resolve_memory_budget(setting: "float | None" = None) -> int | None:
    """The byte ceiling for one search, ``None`` when governance is off.

    ``setting`` is ``TrainingSettings.memory_budget`` (fed by
    ``--memory-budget``); a non-positive value turns governance off.
    Unset, the budget is ``MEMORY_BUDGET_FRACTION`` of the host's
    available memory, or ``None`` when the probe cannot tell.
    """
    if setting is not None:
        value = float(setting)
        if not math.isfinite(value):
            raise ConfigurationError(
                f"memory budget must be finite, got {setting!r}"
            )
        return int(value) if value > 0 else None
    try:
        free = _free_host_bytes()
    except Exception:  # pragma: no cover - probe must never break a search
        return None
    if free is None:
        return None
    return int(free * MEMORY_BUDGET_FRACTION)


def _free_host_bytes() -> "int | None":
    """Available host RAM in bytes (``/proc/meminfo`` ``MemAvailable``,
    falling back to ``sysconf``), or ``None`` when neither can tell."""
    try:
        with open("/proc/meminfo", "rb") as fh:
            for line in fh:
                if line.startswith(b"MemAvailable:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    try:
        pages = os.sysconf("SC_AVPHYS_PAGES")
        page_size = os.sysconf("SC_PAGE_SIZE")
    except (ValueError, OSError, AttributeError):
        return None
    if pages <= 0 or page_size <= 0:
        return None
    return int(pages) * int(page_size)


def is_memory_error(exc: BaseException) -> bool:
    """Whether ``exc`` is an out-of-memory *resource* failure:
    ``MemoryError``, or ``OSError`` with ``ENOMEM``/``ENOSPC`` (a full
    size-capped tmpfs)."""
    if isinstance(exc, MemoryError):
        return True
    if isinstance(exc, OSError):
        import errno

        if exc.errno in (errno.ENOMEM, errno.ENOSPC):
            return True
    return False


def estimate_candidate_bytes(spec, batch: int, runs: int) -> int:
    """Analytic peak working-set bytes for one candidate's fused run set.

    A deliberately simple upper-envelope model — admission only needs
    magnitudes that track reality within a small factor, and the OOM
    ladder catches what it misses.  Terms:

    * parameter stacks x4 (values, grads, Adam ``m``/``v`` moments);
    * dense activations: one input + one output row block per layer,
      cached for backward;
    * quantum sweep (when ``spec`` has ``n_qubits``): at the compiled
      engine's widths (``n <= 5``) the record
      :func:`~repro.quantum.engine.dense_peak_bytes` counts for an
      adjoint step (about ``3L + 2`` states plus the per-layer unitary
      stacks).  Wider registers run on the reference executor and never
      stack (the quantum stacker declines them), so the runs train one
      by one and only one run's working set is live: six
      ``(batch, 2**n)`` complex statevectors (the ``moveaxis`` copies
      of a gate application, the recorded final state and the adjoint's
      ket and bra) plus the per-gate matrices (roughly 3 per qubit per
      layer, per sample for the encoding and once for the weights).

    ``rows = batch * runs`` is the fused run-major activation height of a
    stacked candidate, and ``batch`` for an unstacked one.
    """
    from ..quantum.engine import _DENSE_MAX_QUBITS, dense_peak_bytes

    runs = max(1, int(runs))
    n_qubits = int(getattr(spec, "n_qubits", 0) or 0)
    stacked = n_qubits <= _DENSE_MAX_QUBITS
    rows = max(1, int(batch)) * (runs if stacked else 1)
    total = 4 * int(getattr(spec, "param_count", 0) or 0) * runs * _REAL_ITEM
    widths = [int(getattr(spec, "n_features", 0) or 0)]
    widths.extend(int(h) for h in getattr(spec, "hidden", ()) or ())
    widths.append(int(getattr(spec, "n_classes", 0) or 0))
    total += 2 * rows * sum(widths) * _REAL_ITEM
    if n_qubits:
        n_layers = int(getattr(spec, "n_layers", 1) or 1)
        if stacked:
            # One angle per wire for BEL, three (Rot) for SEL; every
            # wire carries one encoding gate.
            n_params = 3 if getattr(spec, "ansatz", "sel") == "sel" else 1
            return total + dense_peak_bytes(
                n_qubits, n_layers, n_params, n_qubits, rows, runs
            )
        total += 6 * rows * 2**n_qubits * _COMPLEX_ITEM
        gates = n_qubits * (n_layers + 1) * 3
        total += gates * (rows + 1) * 4 * _COMPLEX_ITEM
    return total


def estimate_group_bytes(specs: Sequence, batch: int, runs: int) -> int:
    """Analytic peak working-set bytes of ``specs`` trained as one group.

    The sum of every member's :func:`estimate_candidate_bytes`, each at
    the group's deepest ``n_layers``: a fused quantum layer runs every
    slice at its deepest member's depth (weights padded, states
    recorded at that depth), so a ragged group costs what the same
    group costs at uniform maximum depth.  Specs without ``n_layers``
    (classical) count as they are.
    """
    depth = max((getattr(spec, "n_layers", 0) for spec in specs), default=0)
    return sum(
        estimate_candidate_bytes(
            dataclasses.replace(spec, n_layers=depth)
            if getattr(spec, "n_layers", depth) != depth
            else spec,
            batch,
            runs,
        )
        for spec in specs
    )


def fit_group(
    specs: Sequence, batch: int, runs: int, budget: int | None
) -> int:
    """How many leading ``specs`` one group holds within ``budget`` bytes.

    The first always fits (a lone candidate trains whatever its size;
    the OOM ladder catches a real OOM); each next member joins only
    while the group's :func:`estimate_group_bytes` stays within the
    budget.  ``None`` (governance off) fits them all.
    """
    if budget is None:
        return len(specs)
    size = 1
    while (
        size < len(specs)
        and estimate_group_bytes(specs[: size + 1], batch, runs) <= budget
    ):
        size += 1
    return size
