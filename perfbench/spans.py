"""Span recording and the hooks that wrap the program's layers from outside.

Nothing under ``src/`` knows about this module.  :func:`install` rebinds
the public callables of each layer to recording wrappers, in every
``repro`` module that holds a reference to them, so calls made through
names bound at import time (``from ..runtime.jobs import execute_runs``)
are seen too.  Two hook sets exist:

* the *probe* set, always installed: once-per-search hooks (first
  ``grid_search`` entry, pool close) that the end-to-end metrics and the
  fault checks need;
* the *span* set, installed only for the traced run: a span around every
  call into each layer, kept in memory and written out as JSONL when the
  search ends.

Importing this module has no side effects; it imports nothing from
``repro`` until :func:`install` runs.
"""

from __future__ import annotations

import collections
import dataclasses
import functools
import itertools
import json
import os
import sys
import threading
import time

CLK_TCK = os.sysconf("SC_CLK_TCK")


class SetupDone(Exception):
    """Raised at the first ``grid_search`` entry by a set-up probe."""


class Recorder:
    """Spans ``(id, name, start, end, parent)`` plus counters for one run."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[tuple[int, str, float, float, int | None]] = []
        self.counts: collections.Counter = collections.Counter()
        self.sums: collections.defaultdict = collections.defaultdict(float)
        #: Monotonic time of the first ``grid_search`` entry.
        self.search_start: float | None = None
        self.pool_stats: list[dict] = []
        #: CPU seconds and largest VmHWM (KiB) of the driver's
        #: descendants — pool workers and their forkserver — read just
        #: before the pool closes.
        self.children_cpu_s = 0.0
        self.children_hwm_kib = 0
        self._ids = itertools.count()
        self._local = threading.local()

    def span(self, name: str, fn, after=None):
        """``fn`` wrapped so that every call records one span.

        ``after(args, result)`` runs inside the span on success, to
        count what the call did.
        """
        spans, ids, local = self.spans, self._ids, self._local
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            sid = next(ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(args, result)
                return result
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, name, start, end, parent))

        return wrapper

    def dump(self, path: str) -> None:
        """Write the spans as JSONL: a header naming the run and the
        span fields, one array per span, then one counters record."""
        dumps = functools.partial(json.dumps, separators=(",", ":"))
        with open(path, "w", encoding="utf-8") as fh:
            header = {
                "run": self.run_id,
                "fields": ["id", "name", "start", "end", "parent"],
            }
            fh.write(dumps(header) + "\n")
            for span in self.spans:
                fh.write(dumps(span) + "\n")
            record = {
                "counters": dict(self.counts),
                "sums": dict(self.sums),
                "pool_stats": self.pool_stats,
            }
            fh.write(dumps(record) + "\n")


def proc_stat(pid: int) -> list[str] | None:
    """Fields of ``/proc/<pid>/stat`` after the command name (state is
    index 0, ppid 1, session 3, utime 11, stime 12), or None if gone."""
    try:
        with open(f"/proc/{pid}/stat", encoding="utf-8") as fh:
            return fh.read().rsplit(")", 1)[1].split()
    except (OSError, IndexError):
        return None


def live_pids() -> list[int]:
    return [int(entry) for entry in os.listdir("/proc") if entry.isdigit()]


def descendants_usage(root: int) -> tuple[float, int]:
    """(CPU seconds, largest VmHWM KiB) over the live descendants of
    ``root``.  Forkserver pool workers are grandchildren that the driver
    never reaps, so its own rusage misses them."""
    parents: dict[int, int] = {}
    cpu: dict[int, float] = {}
    for pid in live_pids():
        fields = proc_stat(pid)
        if fields is not None:
            parents[pid] = int(fields[1])
            cpu[pid] = (int(fields[11]) + int(fields[12])) / CLK_TCK
    total, hwm = 0.0, 0
    for pid, ancestor in parents.items():
        while ancestor not in (0, 1, root) and ancestor in parents:
            ancestor = parents[ancestor]
        if ancestor != root:
            continue
        total += cpu[pid]
        try:
            with open(f"/proc/{pid}/status", encoding="utf-8") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        hwm = max(hwm, int(line.split()[1]))
        except OSError:
            continue
    return total, hwm


def _rebind(original, replacement) -> None:
    """Point every ``repro`` module attribute bound to ``original`` at
    ``replacement``.

    ``repro.core`` re-exports ``grid_search`` (the package attribute
    shadows the submodule), and ``run_protocol``/``grid_search`` bind
    their collaborators by name at import: patching the defining module
    alone would miss the callers.
    """
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _import_layers() -> dict:
    """Import every module whose names get rebound, so that no later
    import captures an unwrapped reference."""
    import repro.core.experiment  # noqa: F401
    import repro.hybrid.quantum_layer  # noqa: F401
    import repro.runtime.journal  # noqa: F401
    import repro.runtime.parallel  # noqa: F401

    return sys.modules


def install(rec: Recorder, traced: bool, probe: bool = False) -> None:
    """Install the probe hooks, plus the span hooks when ``traced``.

    With ``probe`` the first ``grid_search`` entry raises
    :class:`SetupDone`, which ends a set-up-only run.
    """
    mods = _import_layers()
    original = mods["repro.core.grid_search"].grid_search
    compile_cache_info = mods["repro.quantum.engine"].compile_cache_info

    @functools.wraps(original)
    def search(*args, **kwargs):
        if rec.search_start is None:
            rec.search_start = time.monotonic()
        if probe:
            raise SetupDone
        outcome = original(*args, **kwargs)
        rec.counts["grid_search.committed"] += len(outcome.evaluated)
        # The sequential search enables the compile cache (resetting its
        # counters) on entry and drops it on exit; the counters survive.
        info = compile_cache_info()
        rec.counts["engine.compile_hits"] += info["hits"]
        rec.counts["engine.compile_misses"] += info["misses"]
        return outcome

    _rebind(original, rec.span("grid_search", search) if traced else search)

    Pool = mods["repro.runtime.pool"].PersistentPool
    close = Pool.close

    def pool_close(self):
        if not self.closed:
            rec.pool_stats.append(self.stats())
            cpu, hwm = descendants_usage(os.getpid())
            rec.children_cpu_s += cpu
            rec.children_hwm_kib = max(rec.children_hwm_kib, hwm)
        start = time.perf_counter()
        try:
            return close(self)
        finally:
            rec.sums["pool.close_s"] += time.perf_counter() - start

    Pool.close = pool_close
    if traced:
        _install_spans(rec, mods)


def _count(rec: Recorder, key: str, of):
    def after(args, result):
        rec.counts[key] += of(args, result)

    return after


def _install_spans(rec: Recorder, mods: dict) -> None:
    experiment = mods["repro.core.experiment"]
    jobs = mods["repro.runtime.jobs"]
    training = mods["repro.nn.training"]
    epochs = "training.epochs"
    for name, fn, after in (
        ("data.spiral", experiment.make_spiral, None),
        ("data.split", experiment.stratified_split, None),
        ("search_space.build", experiment.search_space_for_family, None),
        ("flops.rank", mods["repro.core.grid_search"].rank_by_flops, None),
        ("jobs.execute_runs", jobs.execute_runs, None),
        (
            "jobs.execute_candidates",
            jobs.execute_candidates,
            _count(rec, "grid_search.group_members", lambda a, r: len(a[0])),
        ),
        (
            "training.train",
            training.train_stack,
            _count(rec, epochs, lambda a, r: sum(h.epochs_run for h in r)),
        ),
        (
            "training.train",
            training.train_model,
            _count(rec, epochs, lambda a, r: r.epochs_run),
        ),
    ):
        _rebind(fn, rec.span(name, fn, after))

    search_space = mods["repro.core.search_space"]
    stacked = mods["repro.nn.stacked"]
    optimizers = mods["repro.nn.optimizers"]
    qlayer = mods["repro.hybrid.quantum_layer"]
    engine = mods["repro.quantum.engine"]
    for cls, attr, name in (
        (search_space.ClassicalSpec, "build", "jobs.build"),
        (search_space.HybridSpec, "build", "jobs.build"),
        (stacked.StackedDense, "forward", "stacked.dense_fwd"),
        (stacked.StackedDense, "backward", "stacked.dense_bwd"),
        (optimizers.StackedAdam, "step", "optim.step"),
        (optimizers.Adam, "step", "optim.step"),
        (qlayer.StackedQuantumLayer, "forward", "hybrid.qlayer_fwd"),
        (qlayer.StackedQuantumLayer, "backward", "hybrid.qlayer_bwd"),
        (engine.CompiledTape, "execute", "engine.execute"),
        (engine.CompiledTape, "adjoint_gradients", "engine.adjoint"),
        (engine.CompiledTape, "expvals", "engine.expvals"),
        (mods["repro.runtime.journal"].SearchJournal, "append", "journal.append"),
        (mods["repro.runtime.pool"].PersistentPool, "publish", "pool.publish"),
    ):
        setattr(cls, attr, rec.span(name, cls.__dict__[attr]))

    # GATE_SET holds frozen GateInfo records that the engine reads at
    # compile time and on every matrix build: before any tape compiles,
    # swap each record for a copy whose builders are wrapped.
    gate_set = mods["repro.quantum.circuit"].GATE_SET
    for gate, info in list(gate_set.items()):
        changes = {
            field: rec.span("gates.build", getattr(info, field))
            for field in ("matrix_fn", "deriv_fn")
            if getattr(info, field) is not None
        }
        if changes:
            gate_set[gate] = dataclasses.replace(info, **changes)

    _install_pool_hooks(rec, mods["repro.runtime.pool"].PersistentPool)


def _install_pool_hooks(rec: Recorder, Pool) -> None:
    """Count chunks and time each one from submit to its result callback.

    Each counter has one writer, the scheduler thread (submit counts) or
    the pool's result-handler thread (result counts), and all are read
    after the search ends, so no lock is needed.
    """
    submit = Pool.submit
    first_submit: list[float] = []

    def pool_submit(self, chunk, callback, error_callback):
        sent = time.perf_counter()
        if not first_submit:
            first_submit.append(sent)
        rec.counts["pool.chunks"] += 1
        rec.counts["pool.slices_submitted"] += len(chunk.jobs)

        def on_result(result):
            now = time.perf_counter()
            if not result.cancelled:
                rec.counts["pool.results"] += 1
                rec.sums["pool.worker_busy_s"] += result.wall_time_s
                rec.sums["pool.chunk_overhead_s"] += (
                    now - sent - result.wall_time_s
                )
                if "pool.first_result_s" not in rec.sums:
                    rec.sums["pool.first_result_s"] = now - first_submit[0]
            callback(result)

        return submit(self, chunk, on_result, error_callback)

    Pool.submit = pool_submit
