"""Checkpoint/resume journal for grid searches.

A multi-hour sweep that dies at candidate 47 of 60 — machine reboot,
scheduler preemption, retry exhaustion with fallback disabled — should
not restart from zero.  :class:`SearchJournal` appends every *committed*
:class:`~repro.core.grid_search.CandidateResult` to a JSONL file, one
record per line, flushed and fsynced at commit time so the journal is
never behind the in-memory outcome by more than the record being
written.

Records are keyed by :func:`search_key`, a hash over everything that
determines the result stream: the ranked candidate list, the dataset
split, the threshold, the base seed, the counting convention, the
result-affecting training settings and the resolved array backend.
Runs derive their RNG streams from ``(seed, candidate_index, run)``,
so a candidate's journaled result is bit-identical to what a rerun
would recompute — resuming skips completed candidates and the
final :class:`~repro.core.grid_search.SearchOutcome` is indistinguishable
from an uninterrupted run's.  Records whose key does not match are
ignored, so pointing a changed configuration at an old journal can never
smuggle in stale results.

:meth:`SearchJournal.load` also *compacts*: when the file carries
anything beyond this key's contiguous committed prefix — a torn trailing
line from a crash mid-append, records keyed by a different
configuration, strays past a gap — the prefix is rewritten in place
(atomic tmp + rename) and the junk is dropped rather than carried and
re-skipped forever.  Append semantics are unchanged: one fsynced JSONL
line per commit.

Serialization reuses :mod:`repro.core.results` (the same schema the
run-family cache persists), imported lazily to keep this runtime module
free of a core-package import cycle.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import pathlib
from typing import TYPE_CHECKING, Sequence

import numpy as np

from ..quantum.engine import ARITHMETIC_VERSION

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.grid_search import CandidateResult, TrainingSettings
    from ..core.search_space import ModelSpec
    from ..data.splits import DataSplit
    from ..flops.conventions import CountingConvention

__all__ = ["SearchJournal", "search_key", "JOURNAL_VERSION"]

JOURNAL_VERSION = 1

logger = logging.getLogger("repro.runtime")


#: The split arrays a search trains and validates on.
_SPLIT_ARRAYS = ("x_train", "y_train", "x_val", "y_val")


def search_key(
    ranked: Sequence["ModelSpec"],
    split: "DataSplit",
    threshold: float,
    settings: "TrainingSettings",
    convention: "CountingConvention",
    seed: int,
) -> str:
    """Hash of everything that determines a search's result stream.

    Covers the split's arrays (shape, dtype and bytes), the name of
    the *resolved* array backend — only NumPy is bit-exact, so a journal
    written on one backend must not resume on another — and the
    engine's :data:`~repro.quantum.engine.ARITHMETIC_VERSION`, so a
    journal written by older kernels is not resumed as current.  Of the
    settings, only the fields tagged ``affects_results`` participate
    (:func:`~repro.core.identity.result_identity`), so a journal written
    under one execution mode resumes under any other.
    """
    from ..core.identity import result_identity
    from ..core.results import spec_to_dict

    data = []
    for name in _SPLIT_ARRAYS:
        array = np.ascontiguousarray(getattr(split, name))
        data.append(
            [
                name,
                list(array.shape),
                array.dtype.str,
                hashlib.sha256(array.tobytes()).hexdigest(),
            ]
        )
    identity = result_identity(settings)
    payload = {
        "specs": [
            {"class": type(spec).__name__, **spec_to_dict(spec)}
            for spec in ranked
        ],
        "data": data,
        "threshold": threshold,
        "seed": seed,
        "convention": convention.name,
        # At the top level, where journals written before the tags
        # hashed it, so they keep resuming.
        "backend": identity.pop("backend"),
        "arithmetic": ARITHMETIC_VERSION,
        "settings": identity,
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


class SearchJournal:
    """Append-only JSONL checkpoint of one search's committed candidates.

    Each line is ``{"v": 1, "key": <search_key>, "index": <rank>,
    "candidate": <candidate_to_dict payload>}``.  :meth:`load` returns
    the longest contiguous prefix of committed candidates for this
    journal's key — a gap means later records belong to a different
    interleaved write and cannot be trusted as "everything before me
    committed".  A torn final line (the writer died mid-append) is
    ignored with a warning, never an error.
    """

    def __init__(self, path: "str | os.PathLike", key: str) -> None:
        self.path = pathlib.Path(path)
        self.key = key

    def load(self) -> "list[CandidateResult]":
        """Committed candidates 0..k-1 for this key (empty if none).

        Every line that does not belong to the prefix — torn, malformed,
        foreign-key, or past a gap — is counted as droppable; when any
        exist, the prefix is rewritten in place so the journal holds
        exactly its usable content and nothing is re-skipped on every
        later resume.
        """
        from ..core.results import candidate_from_dict

        try:
            lines = self.path.read_text().splitlines()
        except FileNotFoundError:
            return []
        by_index: dict[int, "CandidateResult"] = {}
        for line in lines:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError:
                # A crash mid-append leaves at most one torn trailing
                # line; everything before it is intact and usable.
                logger.warning(
                    "ignoring corrupt journal line in %s", self.path
                )
                continue
            if not isinstance(record, dict) or record.get("key") != self.key:
                continue
            try:
                by_index[int(record["index"])] = candidate_from_dict(
                    record["candidate"]
                )
            except (KeyError, TypeError, ValueError):
                logger.warning(
                    "ignoring malformed journal record in %s", self.path
                )
        restored: "list[CandidateResult]" = []
        while len(restored) in by_index:
            restored.append(by_index[len(restored)])
        # Any line beyond the prefix — torn, foreign-key, malformed,
        # blank, a duplicate index, or a stray past a gap — is a byte
        # load() will never use again.
        dropped = len(lines) - len(restored)
        if dropped > 0:
            self._compact(restored, dropped)
        if restored:
            logger.info(
                "journal %s: resuming past %d committed candidate(s)",
                self.path,
                len(restored),
            )
        return restored

    def _compact(
        self, restored: "list[CandidateResult]", dropped: int
    ) -> None:
        """Rewrite the journal as exactly its committed prefix.

        Atomic (tmp + fsync + rename), so a crash mid-compaction leaves
        either the old file or the new one, never a mix; a reread of
        either restores the same prefix.
        """
        tmp = self.path.with_name(f"{self.path.name}.tmp{os.getpid()}")
        try:
            with open(tmp, "w", encoding="utf-8") as fh:
                for index, candidate in enumerate(restored):
                    fh.write(self._encode(index, candidate) + "\n")
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, self.path)
        except OSError:
            # Compaction is hygiene, not correctness: a read-only or
            # full filesystem keeps the journal as-is and load() simply
            # re-skips the junk next time.
            logger.warning("could not compact journal %s", self.path)
            try:
                os.unlink(tmp)
            except OSError:
                pass
            return
        logger.info(
            "compacted journal %s: kept %d committed record(s), "
            "dropped %d stale line(s)",
            self.path,
            len(restored),
            dropped,
        )

    def _encode(self, index: int, candidate: "CandidateResult") -> str:
        from ..core.results import candidate_to_dict

        record = {
            "v": JOURNAL_VERSION,
            "key": self.key,
            "index": index,
            "candidate": candidate_to_dict(candidate),
        }
        return json.dumps(record, sort_keys=True)

    def append(self, index: int, candidate: "CandidateResult") -> None:
        """Durably record one committed candidate (called at commit)."""
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.path, "a", encoding="utf-8") as fh:
            fh.write(self._encode(index, candidate) + "\n")
            fh.flush()
            os.fsync(fh.fileno())
