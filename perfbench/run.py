"""End-to-end benchmark: uncached FLOPs-sorted protocol slices.

    python3 perfbench/run.py --workload sel-seq --seed 0 --seconds 10 --trace 0

Runs searches of one workload (see workloads.py and README.md) back to
back for ``--seconds``, each in a fresh ``slice.py`` process, and checks
every outcome against the sequential NumPy reference.  The last line of
standard output is one JSON object: the end-to-end metrics with
``--trace 0``; with ``--trace 1`` the per-layer metrics of one extra
search run with span hooks installed.  Exits non-zero without a result
when the program under test (``src/repro``) is missing.
"""

from __future__ import annotations

import argparse
import glob
import itertools
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

from spans import live_pids, proc_stat
from workloads import DEFAULT_SEED, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Scratch space inside the checkout; traced runs leave their spans here.
WORK = ROOT / ".perfbench"

#: Set-up-only runs per invocation.  With the measured searches' own
#: set-ups they give the setup_s median.
SETUP_PROBES = 3
#: Wall-clock budget of one invocation, under the 180 s allowed.
BUDGET_S = 170.0


def calib_gflops() -> float:
    """Median GFLOP/s of a fixed NumPy block shaped like the engine's
    sweeps: batched complex 5-qubit matmuls and small 2x2-gate einsums,
    none large enough to go multi-threaded.  Context for every other
    number, not a gate."""
    import numpy as np

    rng = np.random.default_rng(12345)

    def complex_normal(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    unitaries, states = complex_normal(16, 32, 32), complex_normal(16, 32, 8)
    gates, amplitudes = complex_normal(16, 2, 2), complex_normal(16, 2, 64)
    matmuls, einsums = 100, 400
    # 8 real flops per complex multiply-add.
    flops = 8 * (matmuls * 16 * 32 * 32 * 8 + einsums * 16 * 2 * 2 * 64)
    rates = []
    for _ in range(7):
        start = time.perf_counter()
        for _ in range(matmuls):
            np.matmul(unitaries, states)
        for _ in range(einsums):
            np.einsum("rij,rjk->rik", gates, amplitudes)
        rates.append(flops / (time.perf_counter() - start) / 1e9)
    return statistics.median(rates)


def shm_segments() -> set[str]:
    return set(glob.glob("/dev/shm/repro_*"))


def session_pids(sid: int) -> list[int]:
    """Live (non-zombie) processes of session ``sid``."""
    pids = []
    for pid in live_pids():
        fields = proc_stat(pid)
        if fields is not None and int(fields[3]) == sid and fields[0] != "Z":
            pids.append(pid)
    return pids


def kill_session(sid: int) -> None:
    for pid in session_pids(sid):
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass


def reap_session(sid: int, grace_s: float = 5.0) -> bool:
    """Wait for session ``sid`` to empty, killing what outlives the
    grace period.  True when something was left behind."""
    deadline = time.monotonic() + grace_s
    while session_pids(sid):
        if time.monotonic() > deadline:
            kill_session(sid)
            while session_pids(sid) and time.monotonic() < deadline + 5.0:
                time.sleep(0.05)
            return True
        time.sleep(0.02)
    return False


class Bench:
    """Runs the slice processes of one invocation."""

    def __init__(self, seed: int, run_dir: Path, deadline: float) -> None:
        self.seed = seed
        self.run_dir = run_dir
        self.deadline = deadline
        path = os.environ.get("PYTHONPATH")
        self.env = dict(
            os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else "")
        )
        self._ids = itertools.count()

    def _spawn(self, cmd: list[str], stdout) -> subprocess.Popen:
        return subprocess.Popen(
            cmd, stdout=stdout, cwd=ROOT, env=self.env, start_new_session=True
        )

    def _wait(self, proc: subprocess.Popen, timeout_s: float):
        """Block until ``proc`` ends; kill its session past ``timeout_s``.
        Returns (exit code, rusage) from ``wait4``."""
        timer = threading.Timer(max(timeout_s, 0.1), kill_session, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, usage

    def slice(self, workload, probe: bool = False, trace_file: str | None = None):
        """One slice process; returns its record with ``errors``."""
        cmd = [
            sys.executable,
            str(HERE / "slice.py"),
            "--workload",
            workload.name,
            "--seed",
            str(self.seed),
        ]
        if probe:
            cmd.append("--probe")
        if trace_file:
            cmd += ["--trace-file", trace_file]
        if workload.journal and not probe:
            cmd += ["--journal-dir", tempfile.mkdtemp(dir=self.run_dir)]
        out = self.run_dir / f"slice-{next(self._ids)}.json"
        segments = shm_segments()
        with open(out, "w", encoding="utf-8") as fh:
            spawned = time.monotonic()
            proc = self._spawn(cmd, stdout=fh)
            status, usage = self._wait(proc, self.deadline - time.monotonic())
        errors = []
        if status != 0:
            errors.append(f"slice exited with status {status}")
        if reap_session(proc.pid):
            errors.append("the search left a process behind")
        leaked = shm_segments() - segments
        for segment in leaked:
            try:
                os.unlink(segment)
            except FileNotFoundError:
                pass
        if leaked:
            errors.append(f"leaked shared memory {sorted(leaked)}")
        lines = out.read_text(encoding="utf-8").splitlines()
        try:
            report = json.loads(lines[-1]) if lines else {}
        except ValueError:
            report = {}
        errors += report.get("errors", [])
        if report.get("search_start") is None:
            return {"errors": errors or ["no report"]}
        record = dict(report, errors=errors)
        record["setup_s"] = report["search_start"] - spawned
        if probe:
            return record
        record["wall_s"] = report["end"] - report["search_start"]
        record["epochs_per_s"] = report["epochs"] / record["wall_s"]
        record["cpu_s"] = usage.ru_utime + usage.ru_stime + report["children_cpu_s"]
        record["rss_kib"] = max(usage.ru_maxrss, report["children_hwm_kib"])
        return record


def measure(args) -> dict:
    workload = WORKLOADS[args.workload]
    WORK.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    start = time.monotonic()
    bench = Bench(args.seed, run_dir, start + BUDGET_S)
    try:
        calib = calib_gflops()
        probes = [bench.slice(workload, probe=True) for _ in range(SETUP_PROBES)]
        # The outcome every search must reproduce: the stored digest for
        # the default seed, else this seed's sequential reference run.
        expected = None
        searches = []
        if args.seed == DEFAULT_SEED:
            expected = workload.default_digest
        elif workload.reference is not None:
            reference = bench.slice(WORKLOADS[workload.reference])
            searches.append(reference)
            expected = reference.get("digest")
        measured = []
        began = time.monotonic()
        while True:
            before = time.monotonic()
            measured.append(bench.slice(workload))
            now = time.monotonic()
            if now - began >= args.seconds:
                break
            reserve = (now - before) * (2 if args.trace else 1)
            if now + reserve > bench.deadline:
                break
        searches += measured
        traced = None
        if args.trace:
            trace_file = str(WORK / f"trace-{workload.name}.jsonl")
            traced = bench.slice(workload, trace_file=trace_file)
            searches.append(traced)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    if expected is None:
        expected = measured[0].get("digest")
    for record in searches:
        if "digest" in record and record["digest"] != expected:
            record["errors"].append(
                f"outcome digest {record['digest']} != reference {expected}"
            )
        if (
            args.seed == DEFAULT_SEED
            and record.get("committed", workload.default_committed)
            != workload.default_committed
        ):
            record["errors"].append(f"committed {record['committed']} candidates")
    failed = sum(1 for r in searches if r["errors"])
    probe_errors = [e for p in probes for e in p["errors"]]
    for record in searches + probes:
        for error in record["errors"]:
            print(f"perfbench: {workload.name}: {error}", file=sys.stderr)
    good = [r for r in measured if not r["errors"]]

    def values_of(key: str, records=good) -> list[float]:
        return [r[key] for r in records if key in r] or [0.0]

    if traced is not None:
        values = dict(traced.get("per_layer") or {})
        untraced = statistics.median(values_of("wall_s"))
        values["host.calib_gflops"] = calib
        values["trace.search_wall_s"] = traced.get("wall_s", 0.0)
        values["trace.overhead_share"] = (
            (traced["wall_s"] - untraced) / untraced
            if "wall_s" in traced and untraced
            else 0.0
        )
    else:
        median = statistics.median
        values = {
            "setup_s": median(values_of("setup_s", probes + good)),
            "search_wall_s": median(values_of("wall_s")),
            "run_epochs_per_s": median(values_of("epochs_per_s")),
            "cpu_s": median(values_of("cpu_s")),
            "peak_rss_mib": median(values_of("rss_kib")) / 1024.0,
        }
    print(
        json.dumps(
            {
                "workload": workload.name,
                "seed": args.seed,
                "host.calib_gflops": calib,
                "searches": [
                    {k: r.get(k) for k in ("digest", "committed", "winner",
                                           "epochs", "setup_s", "wall_s", "cpu_s")}
                    for r in searches
                ],
            }
        )
    )
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = spec["per_layer" if traced is not None else "end_to_end"]
    return {
        "correct": failed == 0 and not probe_errors,
        "attempted": len(searches),
        "failed": failed,
        "metrics": {
            m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
            for m in metrics
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program under test at {SRC}/repro", file=sys.stderr)
        return 2
    print(json.dumps(measure(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
