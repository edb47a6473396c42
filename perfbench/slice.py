"""Run one protocol slice in this process and report it as one JSON line.

    python3 perfbench/slice.py --workload sel-seq --seed 0 [--trace-file F]
        [--journal-dir D] [--probe]

``run.py`` starts one of these per search, so every search pays the
imports and set-up a ``repro`` CLI user pays.  ``--probe`` stops at the
first ``grid_search`` entry (a set-up-only run).  ``--trace-file``
installs the span hooks and writes the spans there as JSONL.

The persistent pool's forkserver imports this file as ``__mp_main__``
in every worker, so importing it must do nothing: all work happens
under the ``__main__`` guard.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path


def outcome_digest(outcome) -> str:
    """SHA-256 over everything a search decides, ``wall_time_s`` left out:
    the winner label and, per evaluated candidate, its label, train and
    val accuracies (exact float hex) and epochs run."""
    h = hashlib.sha256()
    h.update(repr(outcome.winner.spec.label if outcome.winner else None).encode())
    for c in outcome.evaluated:
        record = (
            c.spec.label,
            [float(a).hex() for a in c.train_accuracies],
            [float(a).hex() for a in c.val_accuracies],
            [int(e) for e in c.epochs_run],
        )
        h.update(repr(record).encode())
    return h.hexdigest()[:16]


def search_errors(outcome, workload, threshold: float) -> list[str]:
    """Violations of the FLOPs-sorted search's own contract."""
    from repro.core.grid_search import rank_by_flops
    from repro.core.search_space import search_space_for_family

    ranked = rank_by_flops(
        search_space_for_family(workload.family, workload.feature_size)
    )
    labels = [c.spec.label for c in outcome.evaluated]
    errors = []
    if labels != [s.label for s in ranked[: len(labels)]]:
        errors.append("candidates not committed in FLOPs order")
    if any(c.passes(threshold) for c in outcome.evaluated[:-1]):
        errors.append("a passing candidate was not the winner")
    if outcome.winner is None:
        if len(labels) != workload.max_candidates:
            errors.append("no winner before the candidate cap")
    elif outcome.winner is not outcome.evaluated[-1] or not outcome.winner.passes(
        threshold
    ):
        errors.append("winner is not the last, passing candidate")
    return errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace-file")
    parser.add_argument("--journal-dir")
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args(argv)

    import spans
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    rec = spans.Recorder(f"{args.workload}-{args.seed}")
    spans.install(rec, traced=args.trace_file is not None, probe=args.probe)
    from repro.core.experiment import run_protocol

    journal = (
        str(Path(args.journal_dir) / "ckpt.jsonl") if args.journal_dir else None
    )
    cfg = workload.protocol_config(args.seed, journal=journal)
    try:
        result = run_protocol(workload.family, cfg)
    except spans.SetupDone:
        print(json.dumps({"search_start": rec.search_start}))
        return 0
    end = time.monotonic()
    layer_metrics = None
    if args.trace_file:
        from layers import per_layer

        layer_metrics = per_layer(rec, cfg.runs_per_candidate)
        rec.dump(args.trace_file)
    outcome = result.levels[0].outcomes[0]
    errors = search_errors(outcome, workload, cfg.threshold)
    if journal:
        records = sum(
            len(p.read_text().splitlines())
            for p in Path(args.journal_dir).glob("*.jsonl")
        )
        if records != len(outcome.evaluated):
            errors.append(
                f"journal holds {records} records for "
                f"{len(outcome.evaluated)} commits"
            )
    faults = {}
    for stats in rec.pool_stats:
        for key in ("chunk_retries", "sequential_fallbacks"):
            if stats.get(key):
                faults[key] = faults.get(key, 0) + stats[key]
    if faults:
        errors.append(f"fault counters on a fault-free run: {faults}")
    report = {
        "search_start": rec.search_start,
        "end": end,
        "digest": outcome_digest(outcome),
        "committed": len(outcome.evaluated),
        "winner": outcome.winner.spec.label if outcome.winner else None,
        "epochs": sum(sum(c.epochs_run) for c in outcome.evaluated),
        "children_cpu_s": rec.children_cpu_s,
        "children_hwm_kib": rec.children_hwm_kib,
        "per_layer": layer_metrics,
        "errors": errors,
    }
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
