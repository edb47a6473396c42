"""Persistent worker pool with zero-copy shared-memory datasets.

PR 2's scheduler paid two per-search costs that dominate protocol runs
(many grid searches back to back, one per level x experiment): spinning
up a fresh process pool, and pickling the full :class:`DataSplit` into
every worker through the pool initializer.  This module removes both:

* :class:`PersistentPool` is created **once per protocol run** (or once
  per CLI invocation) and reused by every grid search.  Workers survive
  across searches, so pool spin-up and module import costs are paid one
  time, and each worker's compiled-tape cache stays warm between
  searches over the same circuit structures.

* Datasets are published to workers through
  :mod:`multiprocessing.shared_memory`: :meth:`PersistentPool.publish`
  copies the split's arrays into one named segment and returns a tiny
  picklable :class:`SharedSplitHandle` (segment name + array layout).
  Workers attach zero-copy — the job payload carries the handle, never
  the arrays — and cache the attachment per segment, so a dataset
  crosses the process boundary **zero** times after publication.

* Segments are refcounted per search (:meth:`acquire_split` /
  :meth:`release_split`) and unlinked deterministically: on
  :meth:`retire_split` once the last search using them finishes, on
  :meth:`close`, and — via a :mod:`weakref` finalizer — at interpreter
  exit even if the caller forgot to close the pool.  A worker crash
  cannot leak a segment because the parent, not the workers, owns every
  unlink.

Searches are serialized through the pool (one at a time, matching the
protocol's sequential decision structure); *cancellation* is the
replacement for PR 2's ``pool.terminate()``: each search runs under a
monotonically increasing **generation**, published to workers through an
8-byte control segment.  Ending a search bumps the cancel floor, so its
still-queued speculative chunks no-op in microseconds and its running
trainings abort at the next epoch boundary
(:func:`repro.nn.training.train_model`'s ``cancel_check``) — the pool
stays warm for the next search instead of being torn down.
"""

from __future__ import annotations

import gc
import json
import logging
import multiprocessing
import os
import pathlib
import pickle
import secrets
import time
import weakref
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..exceptions import SearchError, TrainingCancelled
from . import faults
from .jobs import RunError, RunResult, TrainingJob, chunk_entries

if TYPE_CHECKING:  # pragma: no cover - typing only
    from multiprocessing.shared_memory import SharedMemory

    from ..core.grid_search import TrainingSettings
    from ..data.splits import DataSplit

__all__ = [
    "SharedSplitHandle",
    "PersistentPool",
    "publish_split",
    "attach_split",
    "JobChunk",
    "ChunkResult",
    "execute_chunk",
    "RunError",
    "ChunkCostModel",
    "sweep_stale_segments",
]

logger = logging.getLogger("repro.runtime")

#: Every segment this runtime creates is named
#: ``repro_<creator pid>_<tag><hex>`` (short enough for macOS's
#: PSHMNAMLEN).  The embedded pid makes crashed-run leftovers
#: *sweepable*: a segment whose creator is gone is garbage by
#: construction (the creator owns the unlink), so a fresh run can
#: reclaim it — see :func:`sweep_stale_segments`.
_SHM_PREFIX = "repro"


def _create_named_segment(tag: str, size: int) -> "SharedMemory":
    """A fresh shared-memory segment with a sweepable name."""
    from multiprocessing.shared_memory import SharedMemory

    while True:
        name = f"{_SHM_PREFIX}_{os.getpid()}_{tag}{secrets.token_hex(4)}"
        try:
            return SharedMemory(create=True, size=size, name=name)
        except FileExistsError:  # pragma: no cover - token collision
            continue


def _pid_alive(pid: int) -> bool:
    if pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - someone else's process
        return True
    return True


def sweep_stale_segments(directory: str = "/dev/shm") -> list[str]:
    """Unlink ``repro``-prefixed segments whose creator process is gone.

    A ``kill -9``-ed or OOM-killed *parent* never reaches its
    deterministic unlinks, and its resource tracker can be killed with
    it, so orphaned dataset/ctrl segments would otherwise sit in tmpfs
    (consuming RAM) until reboot.  Every :class:`PersistentPool` calls
    this at startup; returns the reclaimed names (also logged).  Files
    are unlinked directly rather than attached first, so sweeping never
    registers foreign segments with this process's resource tracker.

    Only POSIX-shm-as-tmpfs platforms (Linux) expose segments as files;
    elsewhere this is a silent no-op.
    """
    reclaimed: list[str] = []
    prefix = _SHM_PREFIX + "_"
    try:
        names = os.listdir(directory)
    except OSError:
        return reclaimed
    for name in names:
        if not name.startswith(prefix):
            continue
        try:
            pid = int(name.split("_")[1])
        except (IndexError, ValueError):
            continue
        if _pid_alive(pid):
            continue
        try:
            os.unlink(os.path.join(directory, name))
        except OSError:  # pragma: no cover - raced another sweeper
            continue
        reclaimed.append(name)
    if reclaimed:
        logger.warning(
            "reclaimed %d orphaned shared-memory segment(s) left by "
            "crashed runs: %s",
            len(reclaimed),
            ", ".join(sorted(reclaimed)),
        )
    return reclaimed

#: Byte alignment for each array inside a published segment (cache-line
#: sized, and a multiple of every dtype itemsize we ship).
_ALIGN = 64

#: The six array fields of a DataSplit, in a fixed publication order.
_SPLIT_FIELDS = (
    "x_train",
    "y_train",
    "x_val",
    "y_val",
    "train_labels",
    "val_labels",
)

#: Worker-side attachment cache cap: segments live one per complexity
#: level, consecutive searches reuse the same one, so a handful covers
#: any interleaving the protocol produces.
_ATTACH_CACHE_MAX = 4


@dataclass(frozen=True)
class _ArrayLayout:
    """Where one array lives inside a shared segment."""

    offset: int
    shape: tuple[int, ...]
    dtype: str


@dataclass(frozen=True)
class SharedSplitHandle:
    """Picklable zero-copy reference to a published :class:`DataSplit`.

    A few hundred bytes regardless of dataset size: the segment name
    plus per-field layout.  This is what job payloads carry instead of
    the arrays themselves.
    """

    segment: str
    fields: tuple[tuple[str, _ArrayLayout], ...]
    total_bytes: int


def _aligned(n: int) -> int:
    return (n + _ALIGN - 1) // _ALIGN * _ALIGN


def publish_split(split: "DataSplit") -> tuple["SharedMemory", SharedSplitHandle]:
    """Copy a split's arrays into one fresh shared-memory segment.

    Returns the owning :class:`SharedMemory` (caller must ``unlink`` it
    eventually) and the handle workers attach with.
    """
    arrays = {
        name: np.ascontiguousarray(getattr(split, name))
        for name in _SPLIT_FIELDS
    }
    offset = 0
    layout: list[tuple[str, _ArrayLayout]] = []
    for name, arr in arrays.items():
        layout.append(
            (name, _ArrayLayout(offset, arr.shape, arr.dtype.str))
        )
        offset = _aligned(offset + arr.nbytes)
    shm = _create_named_segment("ds", max(offset, 1))
    for (name, spec) in layout:
        arr = arrays[name]
        dst = np.ndarray(
            arr.shape, dtype=arr.dtype, buffer=shm.buf, offset=spec.offset
        )
        dst[...] = arr
    handle = SharedSplitHandle(
        segment=shm.name, fields=tuple(layout), total_bytes=offset
    )
    return shm, handle


def _attach_segment(name: str) -> "SharedMemory":
    """Attach to an existing segment by name.

    Attaching registers the name with the
    :mod:`multiprocessing.resource_tracker`.  Forkserver (and POSIX
    spawn) workers inherit the *parent's* tracker process, whose
    registry is a set, so the worker's register is a harmless duplicate
    of the parent's create-time entry and the parent's deterministic
    ``unlink`` clears it exactly once.  (Do **not** unregister here: a
    worker-side unregister would delete the parent's entry from the
    shared tracker and make the parent's unlink complain.)
    """
    from multiprocessing.shared_memory import SharedMemory

    return SharedMemory(name=name)


def attach_split(handle: SharedSplitHandle, shm: "SharedMemory") -> "DataSplit":
    """Rebuild a read-only :class:`DataSplit` over an attached segment."""
    from ..data.splits import DataSplit

    fields = {}
    for name, spec in handle.fields:
        arr = np.ndarray(
            spec.shape,
            dtype=np.dtype(spec.dtype),
            buffer=shm.buf,
            offset=spec.offset,
        )
        arr.flags.writeable = False
        fields[name] = arr
    return DataSplit(**fields)


# --------------------------------------------------------------------------
# Worker side
# --------------------------------------------------------------------------

# Lazily attached control segment (name installed by the initializer)
# and the per-worker segment attachment cache.
_CTRL_NAME: str | None = None
_CTRL = None
_ATTACHED: dict[str, tuple["SharedMemory", "DataSplit"]] = {}


def _init_pool_worker(ctrl_name: str) -> None:
    """Pool initializer: tiny payload by design (one segment name).

    Candidate runs rebuild structurally identical circuits over and
    over; the compiled-tape cache persists for the worker's lifetime,
    which with a persistent pool now spans *every* search of a protocol
    run.
    """
    global _CTRL_NAME
    _CTRL_NAME = ctrl_name
    from ..quantum.engine import enable_compile_cache

    enable_compile_cache()


def _cancel_floor() -> int:
    """The lowest still-live generation, read from the control segment."""
    global _CTRL
    if _CTRL is None:
        if _CTRL_NAME is None:
            return 0  # not a pool worker (direct call in tests)
        try:
            _CTRL = _attach_segment(_CTRL_NAME)
        except FileNotFoundError:
            # Pool already closed: every generation is dead.
            return 2**62
    return int.from_bytes(_CTRL.buf[:8], "little")


def _attached_split(handle: SharedSplitHandle) -> "DataSplit":
    entry = _ATTACHED.get(handle.segment)
    if entry is None:
        shm = _attach_segment(handle.segment)
        entry = (shm, attach_split(handle, shm))
        _ATTACHED[handle.segment] = entry
        while len(_ATTACHED) > _ATTACH_CACHE_MAX:
            old_name, (old_shm, _) = next(iter(_ATTACHED.items()))
            if old_name == handle.segment:
                break
            del _ATTACHED[old_name]
            gc.collect()  # release numpy views before closing the map
            try:
                old_shm.close()
            except BufferError:  # pragma: no cover - view still exported
                pass  # mapping dies with the process
    return entry[1]


@dataclass(frozen=True)
class JobChunk:
    """A batch of training runs shipped to a worker as a single task.

    Batching runs lets one worker invocation share a compiled tape (and
    one dataset attachment) across several runs, and cuts per-job IPC
    when ``runs`` is large relative to the worker count.  The payload is
    small by construction: jobs are coordinates, the handle is a name.
    The scheduler builds chunks with ``handle=None`` and
    ``generation=0``; a pool stamps the :class:`SharedSplitHandle` its
    workers attach and the search generation (TCP agents receive the
    split on connect, so their chunks keep ``handle=None``).

    ``vectorized`` asks the worker to train the chunk's run sets as one
    stacked sweep (:func:`repro.runtime.jobs.execute_candidates`); the
    scheduler then puts each candidate's whole run set in one chunk.  A
    vectorized chunk may span **several candidates**, whose run sets
    then fuse into one cross-candidate sweep.  The scheduler packs
    consecutive same-key candidates of its lookahead this way.
    """

    jobs: tuple[TrainingJob, ...]
    handle: "SharedSplitHandle | None"
    settings: "TrainingSettings"
    generation: int
    vectorized: bool = False


@dataclass(frozen=True)
class ChunkResult:
    """What a pool worker or cluster agent sends back for one chunk.

    ``wall_time_s`` is the measured execution time of the whole chunk on
    its worker — the feedback signal for the scheduler's measured-cost
    packing (:class:`ChunkCostModel`).  ``vectorized_fallback`` flags a
    chunk whose stacked sweep raised and was re-run scalar (that chunk
    paid for both attempts); the pool counts these so a deterministic
    stacked-path failure is visible instead of silently doubling a
    candidate's cost.

    ``memory_degrades`` counts OOM recovery-ladder steps the worker took
    for this chunk (group halving, numpy retry, scalar floor — see
    :func:`repro.runtime.jobs.chunk_entries`); the scheduler turns a
    non-zero count into a ``memory-degrade``
    :class:`~repro.runtime.frontier.SearchEvent` and the pool
    accumulates it.
    """

    cancelled: bool
    entries: tuple["RunResult | RunError", ...] = ()
    wall_time_s: float = 0.0
    vectorized_fallback: bool = False
    memory_degrades: int = 0


_CANCELLED_CHUNK = ChunkResult(cancelled=True)


def _run_chunk(chunk: JobChunk) -> ChunkResult:
    """Worker entry point: execute a chunk's runs under its generation.

    A stale generation (the submitting search already ended) returns
    immediately; a generation going stale mid-training aborts at the
    next epoch boundary.  Per-run exceptions are captured — the
    scheduler surfaces them at the candidate's commit turn, never
    earlier — and the remaining runs still execute so the candidate can
    complete (commit needs all runs accounted for).  An exception that
    escapes reaches the scheduler as the loss of this one chunk.
    """
    generation = chunk.generation
    if _cancel_floor() > generation:
        return _CANCELLED_CHUNK
    # Fault-injection hook (tests only; a 4-byte read when disarmed).
    # Checked *after* the floor so cancelled no-op chunks never consume
    # a fault firing, and only for live chunks of a pool worker.  A
    # "kill" fault does not return; a "delay" fault has already slept,
    # so recheck the floor — the parent may have timed this chunk out.
    fired = None
    if _CTRL is not None:
        fired = faults.maybe_fire(_CTRL.buf, chunk)
        if fired == faults.DELAY and _cancel_floor() > generation:
            return _CANCELLED_CHUNK
    try:
        split = _attached_split(chunk.handle)
    except FileNotFoundError:
        # Segment retired: only possible once its searches ended, i.e.
        # this chunk's generation is already dead.
        return _CANCELLED_CHUNK

    def cancelled() -> bool:
        return _cancel_floor() > generation

    if fired == faults.ERROR:
        raise RuntimeError("injected chunk-runner failure")

    # An armed "oom" fault is raised by the chunk's first recoverable
    # attempt (fused sweep when there is one, absorbed at the scalar
    # floor otherwise) so it engages the degradation ladder rather than
    # the crash/retry machinery.
    try:
        result = execute_chunk(
            chunk, split, cancelled, inject=[fired == faults.OOM]
        )
    except TrainingCancelled:
        return _CANCELLED_CHUNK
    return result


def execute_chunk(
    chunk: JobChunk,
    split: "DataSplit",
    cancel_check,
    inject: "list[bool] | None" = None,
) -> ChunkResult:
    """Train a chunk through the OOM ladder and measure it.

    The one chunk runner of pool workers and TCP cluster agents:
    :func:`~repro.runtime.jobs.chunk_entries` plus the wall time and
    the ladder's counts the scheduler feeds back.  Raises :class:`~repro.exceptions.TrainingCancelled` when
    ``cancel_check`` fires.
    """
    started = time.perf_counter()
    entries, fallback, degrades = chunk_entries(
        chunk.jobs,
        split,
        chunk.settings,
        vectorized=chunk.vectorized,
        cancel_check=cancel_check,
        inject=inject,
    )
    return ChunkResult(
        cancelled=False,
        entries=tuple(entries),
        wall_time_s=time.perf_counter() - started,
        vectorized_fallback=fallback,
        memory_degrades=degrades,
    )


def _count_result(pool: "PersistentPool", result: ChunkResult) -> None:
    """Accumulate a finished chunk's fallback and memory-degrade counts
    into the pool's instrumentation (on the result-handler thread)."""
    if result.vectorized_fallback:
        pool.vectorized_fallbacks += 1
    pool.memory_degrades += result.memory_degrades


# -- measured-cost packing --------------------------------------------------


class ChunkCostModel:
    """EWMA of measured per-run training cost, keyed by candidate label.

    The scheduler's FLOPs-aware packing submits the speculation window's
    most expensive chunks first (longest-processing-time).  Static FLOPs
    are only a proxy for wall time — per-epoch Python overhead and early
    stopping skew real costs — so each finished chunk's measured
    ``wall_time_s`` feeds an EWMA here, and later packing decisions (the
    next search, the next complexity level on a persistent pool) rank by
    observed seconds instead.  Candidates never seen before are
    estimated from their FLOPs through a global seconds-per-FLOP EWMA,
    which keeps the two kinds of estimate on one comparable scale.

    Packing order never affects results (the scheduler commits strictly
    in FLOPs order); this model only shapes the window's makespan.  It
    measures seconds only: memory admission sizes chunks from their
    specs (:func:`repro.runtime.memory.estimate_group_bytes`).
    """

    def __init__(self, alpha: float = 0.3) -> None:
        if not 0.0 < alpha <= 1.0:
            raise SearchError(f"EWMA alpha must be in (0, 1], got {alpha}")
        self.alpha = alpha
        self._per_label: dict[str, float] = {}
        self._rate: float | None = None  # seconds per FLOP
        self.observations = 0

    def _ewma(self, old: float | None, new: float) -> float:
        if old is None:
            return new
        return old + self.alpha * (new - old)

    def observe(
        self, label: str, flops: int, wall_time_s: float, n_runs: int
    ) -> None:
        """Record a finished chunk's measured cost."""
        if n_runs < 1 or wall_time_s <= 0.0:
            return
        per_run = wall_time_s / n_runs
        self._per_label[label] = self._ewma(
            self._per_label.get(label), per_run
        )
        if flops > 0:
            self._rate = self._ewma(self._rate, per_run / flops)
        self.observations += 1

    def estimate(self, label: str, flops: int, n_runs: int = 1) -> float:
        """Expected chunk cost in seconds (raw FLOPs before any data)."""
        per_run = self._per_label.get(label)
        if per_run is None:
            if self._rate is None:
                # No measurements yet anywhere: fall back to the static
                # FLOPs ranking (any monotone scale packs identically).
                return float(flops) * n_runs
            per_run = float(flops) * self._rate
        return per_run * n_runs

    def seconds_estimate(
        self, label: str, flops: int, n_runs: int = 1
    ) -> float | None:
        """Expected chunk cost in *wall-clock seconds*, or ``None``.

        Unlike :meth:`estimate` — whose pre-calibration fallback is the
        raw FLOPs count, fine for *ranking* but meaningless as a time —
        this only answers once a measured seconds scale exists.  The
        deadline watchdog uses it: no calibration, no deadline, never a
        spurious timeout from comparing seconds against FLOPs.
        """
        per_run = self._per_label.get(label)
        if per_run is None:
            if self._rate is None:
                return None
            per_run = float(flops) * self._rate
        return per_run * n_runs

    def snapshot(self) -> dict[str, float]:
        """Current per-label EWMA estimates (observability + tests)."""
        return dict(self._per_label)

    # -- persistence -------------------------------------------------------
    #
    # Measured costs survive the pool (and the process): the CLI saves
    # the model next to the run-family result cache (``--cost-cache``),
    # so the first search of a rerun packs by observed seconds instead
    # of re-learning from raw FLOPs.  Estimates only shape submission
    # order, never results, so a stale or mismatched cache is harmless.

    def state(self) -> dict:
        """JSON-serializable snapshot of the whole model.

        :meth:`restore` is field-lenient: it reads the fields it knows
        and ignores the rest (the measured-bytes map schema-2 files
        carry, for one), so caches of any schema load.
        """
        return {
            "schema": 3,
            "alpha": self.alpha,
            "per_label": dict(self._per_label),
            "rate": self._rate,
            "observations": self.observations,
        }

    def restore(self, state: dict) -> None:
        """Adopt a :meth:`state` snapshot (bad entries are ignored)."""
        alpha = state.get("alpha")
        if isinstance(alpha, (int, float)) and 0.0 < alpha <= 1.0:
            self.alpha = float(alpha)
        per_label = state.get("per_label")
        if isinstance(per_label, dict):
            self._per_label = {
                str(k): float(v)
                for k, v in per_label.items()
                if isinstance(v, (int, float)) and v > 0.0
            }
        rate = state.get("rate")
        if isinstance(rate, (int, float)) and rate > 0.0:
            self._rate = float(rate)
        observations = state.get("observations")
        if isinstance(observations, int) and observations >= 0:
            self.observations = observations

    def save_json(self, path) -> None:
        """Write the model's state to ``path`` (parents created)."""
        path = pathlib.Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.state(), indent=2, sort_keys=True))

    def load_json(self, path) -> bool:
        """Restore from ``path``; missing or corrupt files are a no-op
        (returns whether anything was loaded)."""
        path = pathlib.Path(path)
        try:
            state = json.loads(path.read_text())
        except (OSError, ValueError):
            return False
        if not isinstance(state, dict):
            return False
        self.restore(state)
        return True


# --------------------------------------------------------------------------
# Parent side
# --------------------------------------------------------------------------

_PRELOAD_SET = False


def _pool_context():
    """The process-start context used for worker pools.

    Prefer ``forkserver``: its server process is exec'd clean before
    workers are forked, which sidesteps the fork-with-threads hazard —
    the scheduler runs pool handler threads in this process, and plain
    ``fork`` from a threaded parent can hand a child a held lock (an
    intermittent deadlock).  The server preloads this module (and with
    it numpy and the repro stack), so worker respawns are cheap forks
    from a warm server.  Platforms without ``forkserver`` (Windows)
    fall back to their default (``spawn``), which is equally
    thread-safe; everything a chunk carries is picklable by design.
    """
    global _PRELOAD_SET
    try:
        ctx = multiprocessing.get_context("forkserver")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context()
    if not _PRELOAD_SET:
        ctx.set_forkserver_preload(["repro.runtime.pool"])
        _PRELOAD_SET = True
    return ctx


@dataclass
class _PublishedSplit:
    shm: "SharedMemory"
    handle: SharedSplitHandle
    refs: int = 0
    retired: bool = False
    split_ref: "weakref.ref | None" = None


def _unlink_quietly(shm: "SharedMemory") -> None:
    for step in (shm.close, shm.unlink):
        try:
            step()
        except (FileNotFoundError, OSError):  # pragma: no cover
            pass


def _cleanup(pool_box: list, segments: dict, ctrl: "SharedMemory") -> None:
    """Idempotent teardown shared by close() and the GC/exit finalizer.

    ``terminate`` (not ``close``) so in-flight speculative chunks die
    immediately; their results are discarded by construction.  The
    parent owns every unlink, so segments cannot leak even if workers
    crashed or were killed mid-attach.  ``pool_box`` holds the lazily
    started ``multiprocessing.Pool`` (empty if no search ever ran).
    """
    for pool in pool_box:
        pool.terminate()
        pool.join()
    pool_box.clear()
    for entry in list(segments.values()):
        _unlink_quietly(entry.shm)
    segments.clear()
    _unlink_quietly(ctrl)


class PersistentPool:
    """A long-lived worker pool reused across grid searches.

    Create one per protocol run (or CLI invocation), pass it to
    :func:`repro.core.grid_search.grid_search` via ``pool=``, and close
    it when done (it is a context manager).  See the module docstring
    for the dataset-publication and cancellation protocols.
    """

    def __init__(self, workers: int):
        if workers < 1:
            raise SearchError(f"pool needs workers >= 1, got {workers}")
        self.workers = workers
        self._generation = 0
        #: Segments reclaimed from previously *crashed* runs at startup
        #: (a parent killed before its unlinks leaves tmpfs garbage; a
        #: new pool is the natural sweep point).
        self.swept_segments = sweep_stale_segments()
        # The control segment carries the 8-byte cancellation floor plus
        # the fault-injection plan region (see repro.runtime.faults).
        self._ctrl = _create_named_segment("ctrl", faults.CTRL_SIZE)
        self._ctrl.buf[: faults.CTRL_SIZE] = bytes(faults.CTRL_SIZE)
        self._segments: dict[str, _PublishedSplit] = {}
        self._by_id: dict[int, str] = {}
        self._initargs = (self._ctrl.name,)
        #: Instrumentation: the pickled initializer payload shipped to
        #: each worker.  PR 2 shipped the whole DataSplit here; now it
        #: is one segment name, constant in dataset size (asserted by
        #: tests/runtime/test_shared_memory.py).
        self.init_payload_bytes = len(pickle.dumps(self._initargs))
        self.searches_started = 0
        #: Measured-cost packing state, shared by every search on this
        #: pool: chunk wall times observed at one complexity level shape
        #: the packing order of the next (see :class:`ChunkCostModel`).
        self.cost_model = ChunkCostModel()
        #: Instrumentation: chunks whose stacked sweep failed and was
        #: re-trained scalar (each paid for both attempts).  A climbing
        #: counter means some candidate's vectorized path is broken —
        #: results stay correct, wall time silently doubles.
        self.vectorized_fallbacks = 0
        #: Fault-tolerance instrumentation, incremented by the scheduler
        #: and the pool executor: chunks resubmitted after a loss, chunks
        #: cancelled past their hard deadline, searches that finished
        #: in-process after retry exhaustion, and late copies of chunks
        #: already accepted.
        self.chunk_retries = 0
        self.chunk_timeouts = 0
        self.sequential_fallbacks = 0
        self.duplicate_results = 0
        #: Seconds slept in jittered backoff before chunk resubmissions
        #: (see :mod:`repro.runtime.backoff`); a climbing value means
        #: retries are landing on a still-unhealthy resource.
        self.retry_backoff_s = 0.0
        #: Memory-governance instrumentation: OOM recovery-ladder steps
        #: taken by workers (group halving, numpy retry, scalar floor).
        #: Results stay bit-identical; a climbing counter means groups
        #: are being sized past what the workers can actually hold.
        self.memory_degrades = 0
        # Worker processes start lazily on the first submitted chunk, so
        # a pool created "just in case" (a CLI run whose experiments all
        # hit the results cache, or one that never searches) costs one
        # tiny control segment and zero processes.
        self._pool_box: list = []
        self._finalizer = weakref.finalize(
            self, _cleanup, self._pool_box, self._segments, self._ctrl
        )

    def _worker_pool(self):
        """The underlying process pool, started on first use.

        multiprocessing.Pool rather than concurrent.futures' process
        pool executor: its terminate() kills in-flight work at close(),
        where an executor could only cancel *queued* futures and would stall interpreter
        exit on running speculative trainings.
        """
        if not self._pool_box:
            self._pool_box.append(
                _pool_context().Pool(
                    processes=self.workers,
                    initializer=_init_pool_worker,
                    initargs=self._initargs,
                )
            )
        return self._pool_box[0]

    def stats(self) -> dict:
        """One snapshot of the pool's instrumentation counters.

        Collects the scattered counters (retry/timeout/fallback/
        memory-degrade accounting) into a single plain dict so the
        scheduler can log one line at search end and tests can assert
        on the whole picture at once.  Values are copies — mutating the
        snapshot never touches the live counters.
        """
        return {
            "workers": self.workers,
            "searches_started": self.searches_started,
            "chunk_retries": self.chunk_retries,
            "chunk_timeouts": self.chunk_timeouts,
            "retry_backoff_s": round(self.retry_backoff_s, 3),
            "sequential_fallbacks": self.sequential_fallbacks,
            "duplicate_results": self.duplicate_results,
            "vectorized_fallbacks": self.vectorized_fallbacks,
            "memory_degrades": self.memory_degrades,
            "swept_segments": len(self.swept_segments),
            "live_segments": len(self._segments),
            "init_payload_bytes": self.init_payload_bytes,
            "cost_observations": self.cost_model.observations,
        }

    # -- dataset lifecycle -------------------------------------------------

    def publish(self, split: "DataSplit") -> SharedSplitHandle:
        """Publish a split (idempotent per split object).

        Segments whose split object has been garbage-collected and that
        no search references anymore are swept here: nothing can ever
        acquire them again (acquisition is keyed on the live object), so
        a long-lived pool fed a stream of throwaway datasets does not
        accumulate dead tmpfs copies.  For deterministic early release,
        call :meth:`retire_split`.
        """
        self._ensure_open()
        for entry in list(self._segments.values()):
            if (
                entry.refs == 0
                and entry.split_ref is not None
                and entry.split_ref() is None
            ):
                self._unlink_entry(entry)
        name = self._by_id.get(id(split))
        if name is not None:
            entry = self._segments.get(name)
            if (
                entry is not None
                and entry.split_ref is not None
                and entry.split_ref() is split
            ):
                return entry.handle
            # id() was recycled by a new split object; drop the stale map.
            del self._by_id[id(split)]
        shm, handle = publish_split(split)
        self._segments[handle.segment] = _PublishedSplit(
            shm=shm, handle=handle, split_ref=weakref.ref(split)
        )
        self._by_id[id(split)] = handle.segment
        return handle

    def acquire_split(self, split: "DataSplit") -> SharedSplitHandle:
        """Publish (if new) and take a per-search reference."""
        handle = self.publish(split)
        self._segments[handle.segment].refs += 1
        return handle

    def release_split(self, handle: SharedSplitHandle) -> None:
        """Drop a search's reference; unlink if retired and unused."""
        entry = self._segments.get(handle.segment)
        if entry is None:
            return
        entry.refs = max(0, entry.refs - 1)
        if entry.retired and entry.refs == 0:
            self._unlink_entry(entry)

    def retire_split(self, split: "DataSplit | SharedSplitHandle") -> None:
        """Mark a dataset as done; unlink now or when its last search ends."""
        if isinstance(split, SharedSplitHandle):
            name = split.segment
        else:
            name = self._by_id.get(id(split))
        entry = self._segments.get(name) if name is not None else None
        if entry is None:
            return
        entry.retired = True
        if entry.refs == 0:
            self._unlink_entry(entry)

    def _unlink_entry(self, entry: _PublishedSplit) -> None:
        _unlink_quietly(entry.shm)
        self._segments.pop(entry.handle.segment, None)
        for key, name in list(self._by_id.items()):
            if name == entry.handle.segment:
                del self._by_id[key]

    @property
    def live_segments(self) -> list[str]:
        """Names of still-linked segments (observability + tests)."""
        return list(self._segments)

    # -- search lifecycle --------------------------------------------------

    def new_generation(self) -> int:
        """Start a search: returns the generation its chunks must carry."""
        self._ensure_open()
        self._generation += 1
        self.searches_started += 1
        return self._generation

    def advance_generation(self) -> int:
        """Supersede the current generation *within* a live search.

        The scheduler's retry primitive: cancelling the current
        generation makes every in-flight chunk of the search no-op (or
        abort at the next epoch boundary), after which the scheduler
        resubmits its outstanding chunks under the returned generation.
        Unlike :meth:`new_generation` this does not count a search.
        """
        self._ensure_open()
        self.cancel(self._generation)
        self._generation += 1
        return self._generation

    def cancel(self, generation: int) -> None:
        """End a search: its queued chunks no-op, running ones abort at
        the next epoch boundary.  Monotonic, so late calls are safe."""
        if self._finalizer.alive:
            floor = generation + 1
            if floor > int.from_bytes(self._ctrl.buf[:8], "little"):
                self._ctrl.buf[:8] = floor.to_bytes(8, "little")

    # -- fault injection (tests) -------------------------------------------

    def install_fault(self, plan: "faults.FaultPlan") -> None:
        """Arm a deterministic fault in every worker via the ctrl segment."""
        self._ensure_open()
        faults.install(self._ctrl.buf, plan)

    def clear_fault(self) -> None:
        """Disarm any installed fault plan (idempotent; safe when closed)."""
        if self._finalizer.alive:
            faults.clear(self._ctrl.buf)

    def submit(self, chunk: JobChunk, callback, error_callback) -> None:
        self._ensure_open()

        def counted(result):
            _count_result(self, result)
            callback(result)

        self._worker_pool().apply_async(
            _run_chunk,
            (chunk,),
            callback=counted,
            error_callback=error_callback,
        )

    def worker_pids(self) -> set[int]:
        """Current worker pids (``Pool`` respawns a worker that dies).

        Empty until the first chunk is submitted (workers start lazily).
        """
        if not self._pool_box:
            return set()
        return {p.pid for p in getattr(self._pool_box[0], "_pool", [])}

    # -- teardown ----------------------------------------------------------

    @property
    def closed(self) -> bool:
        return not self._finalizer.alive

    def _ensure_open(self) -> None:
        if self.closed:
            raise SearchError("PersistentPool is closed")

    def close(self) -> None:
        """Terminate workers and unlink every segment (idempotent)."""
        self._finalizer()

    def __enter__(self) -> "PersistentPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def chunk_runs(runs: int, chunk: int) -> list[tuple[int, int]]:
    """Split ``range(runs)`` into ``(start, stop)`` chunks of size ``chunk``."""
    return [(s, min(s + chunk, runs)) for s in range(0, runs, chunk)]


def make_chunks(
    spec,
    candidate_index: int,
    seed: int,
    runs: int,
    chunk: int,
    handle: SharedSplitHandle,
    settings: "TrainingSettings",
    generation: int,
    vectorized: bool = False,
) -> list[JobChunk]:
    """All chunks of one candidate, in run order.

    ``vectorized`` marks the chunks for run-stacked execution (the
    caller packs the whole run set into one chunk in that mode).
    """
    return [
        JobChunk(
            jobs=tuple(
                TrainingJob(spec, seed, candidate_index, run)
                for run in range(start, stop)
            ),
            handle=handle,
            settings=settings,
            generation=generation,
            vectorized=vectorized,
        )
        for start, stop in chunk_runs(runs, chunk)
    ]
