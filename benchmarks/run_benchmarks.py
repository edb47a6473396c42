#!/usr/bin/env python
"""Run the benchmark suite and snapshot the results for perf tracking.

Writes ``benchmarks/BENCH_<rev>.json`` (``<rev>`` = short git revision,
or ``worktree`` when the tree is dirty/not a checkout) containing one
condensed entry per benchmark: mean / stddev / min runtimes in seconds
plus round counts.  Committing a snapshot per PR gives the repo a perf
trajectory that reviews can diff instead of re-measuring.

Usage:

    python benchmarks/run_benchmarks.py            # micro + grid-search suites
    python benchmarks/run_benchmarks.py --full     # every benchmark file
    python benchmarks/run_benchmarks.py --out PATH # explicit output path
    python benchmarks/run_benchmarks.py --quick    # smoke: run, don't time

``--quick`` executes every default benchmark body exactly once with
timing disabled and writes no snapshot — a fast CI smoke that keeps the
benchmark harness from silently rotting without burning minutes on
calibrated rounds.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import subprocess
import sys
import tempfile

REPO = pathlib.Path(__file__).resolve().parent.parent


def git_revision() -> str:
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=REPO,
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()
        dirty = subprocess.run(
            ["git", "status", "--porcelain", "--untracked-files=no"],
            cwd=REPO,
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()
        return f"{rev}-dirty" if dirty else rev
    except (OSError, subprocess.CalledProcessError):
        return "worktree"


def condense(raw: dict) -> dict:
    """Keep the fields a perf-trajectory diff actually needs."""
    machine = raw.get("machine_info", {})
    snapshot = {
        "datetime": raw.get("datetime"),
        "python": machine.get("python_version"),
        "machine": machine.get("machine"),
        # Host-unique: lets snapshot diffs tell "same arch, different
        # box" apart from a genuine same-machine regression.
        "node": machine.get("node"),
        "cpu_count": os.cpu_count(),
        "benchmarks": {},
    }
    for bench in raw.get("benchmarks", []):
        stats = bench["stats"]
        snapshot["benchmarks"][bench["fullname"]] = {
            "mean_s": stats["mean"],
            "stddev_s": stats["stddev"],
            "min_s": stats["min"],
            "rounds": stats["rounds"],
        }
    return snapshot


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--full",
        action="store_true",
        help="run every benchmark file (the figure-level protocol "
        "benchmarks are minutes-scale), not just the substrate micro suite",
    )
    parser.add_argument(
        "--out", type=pathlib.Path, default=None, help="output JSON path"
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="smoke mode: run each benchmark body once without timing "
        "and write no snapshot (for CI)",
    )
    args = parser.parse_args(argv)

    targets = (
        ["benchmarks"]
        if args.full
        else [
            "benchmarks/test_substrate_micro.py",
            "benchmarks/test_grid_search_parallel.py",
            "benchmarks/test_pool_reuse.py",
            "benchmarks/test_vectorized_runs.py",
            "benchmarks/test_candidate_stacking.py",
            "benchmarks/test_cluster_tcp.py",
        ]
    )
    rev = git_revision()
    out_path = args.out or REPO / "benchmarks" / f"BENCH_{rev}.json"

    env = dict(os.environ)
    src = str(REPO / "src")
    env["PYTHONPATH"] = (
        src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    )
    if args.quick:
        result = subprocess.run(
            [sys.executable, "-m", "pytest", *targets,
             "--benchmark-disable", "-q"],
            cwd=REPO,
            env=env,
        )
        if result.returncode == 0:
            print("quick smoke ok (benchmark bodies ran once, untimed)")
        return result.returncode
    with tempfile.TemporaryDirectory() as tmp:
        raw_path = pathlib.Path(tmp) / "bench.json"
        result = subprocess.run(
            [
                sys.executable,
                "-m",
                "pytest",
                *targets,
                "--benchmark-only",
                f"--benchmark-json={raw_path}",
                "-q",
            ],
            cwd=REPO,
            env=env,
        )
        if result.returncode != 0:
            return result.returncode
        raw = json.loads(raw_path.read_text())

    snapshot = condense(raw)
    snapshot["rev"] = rev
    out_path.write_text(json.dumps(snapshot, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out_path} ({len(snapshot['benchmarks'])} benchmarks)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
