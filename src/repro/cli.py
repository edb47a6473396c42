"""Command-line interface.

Examples::

    repro fig4  --profile smoke
    repro fig6  --profile reduced --cache results/
    repro fig10 --profile reduced --cache results/
    repro table1 --profile smoke
    repro all --profile smoke --cache results/

Figures are emitted as text tables (the numeric series the paper plots);
``--cache`` reuses protocol results across drivers so e.g. fig9/fig10
do not re-run the searches fig6/7/8 already performed.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from .experiments import (
    fig4_dataset_complexity,
    fig6_classical_flops,
    fig7_bel_flops,
    fig8_sel_flops,
    fig9_parameters,
    fig10_comparative,
    table1_ablation,
)
from .experiments.runner import PROFILES

__all__ = ["main", "build_parser"]

_EXPERIMENTS = ("fig4", "fig6", "fig7", "fig8", "fig9", "fig10", "table1")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduce 'Computational Advantage in Hybrid Quantum Neural "
            "Networks: Myth or Reality?' (DAC 2025)"
        ),
    )
    parser.add_argument(
        "experiment",
        choices=_EXPERIMENTS + ("all", "cluster-agent"),
        help="which paper artifact to regenerate, or 'cluster-agent' to "
        "serve training chunks from a shared --spool directory or a "
        "--connect HOST:PORT coordinator",
    )
    parser.add_argument(
        "--profile",
        default="smoke",
        choices=sorted(PROFILES),
        help="run scale: smoke (seconds), reduced (minutes), full (paper)",
    )
    parser.add_argument(
        "--cache",
        default=None,
        metavar="DIR",
        help="directory for cached protocol results (reused across drivers)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help="worker processes per grid search (1 = sequential, 0 = all "
        "cores); results are identical for any value, only wall time "
        "changes",
    )
    parser.add_argument(
        "--runs",
        type=int,
        default=None,
        metavar="R",
        help="override the profile's runs per candidate (changes results; "
        "cached results are keyed separately)",
    )
    parser.add_argument(
        "--no-vectorized-runs",
        action="store_true",
        help="train a candidate's runs one by one instead of as one "
        "run-stacked sweep; results are identical either way, only wall "
        "time changes",
    )
    parser.add_argument(
        "--no-stacked-candidates",
        action="store_true",
        help="do not merge neighbouring candidates' run sets into one "
        "cross-candidate fused sweep; results are identical either way, "
        "only wall time changes",
    )
    parser.add_argument(
        "--cost-cache",
        default=None,
        metavar="PATH",
        help="JSON file persisting the measured chunk-cost model across "
        "invocations so adaptive packing is warm on the first search of "
        "a rerun (default: chunk_costs.json inside --cache when both "
        "--cache and --workers > 1 are given)",
    )
    parser.add_argument(
        "--journal",
        default=None,
        metavar="PATH",
        help="JSONL checkpoint journal: every committed candidate of every "
        "grid search is appended durably, and rerunning the same "
        "configuration against the same journal resumes past the "
        "completed prefix with bit-identical results (each search of "
        "the protocol writes its own derived file next to this path, "
        "e.g. ckpt-f4-e0.jsonl, and journals compact to the valid "
        "committed prefix on resume)",
    )
    parser.add_argument(
        "--max-retries",
        type=int,
        default=None,
        metavar="N",
        help="how many times a parallel search re-executes a chunk lost to "
        "a worker death, hard timeout, or runtime error before finishing "
        "the sweep in-process sequentially (default: 2); never changes "
        "results",
    )
    parser.add_argument(
        "--backend",
        default=None,
        choices=("numpy", "torch", "cupy"),
        help="array backend for the stacked training sweeps (default: "
        "REPRO_BACKEND env var, then numpy); numpy is the bit-exact "
        "reference, torch/cupy keep the fused sweeps device-resident "
        "and fall back to numpy with a warning when unimportable",
    )
    parser.add_argument(
        "--memory-budget",
        default=None,
        metavar="BYTES",
        help="memory budget for the speculative runtime, e.g. 2G, 512M, "
        "or a plain byte count; 'off' disables governance (default: "
        "the REPRO_MEMORY_BUDGET env var, then an automatic fraction "
        "of free memory); budgets size stacked groups and bound "
        "in-flight bytes, and never change results",
    )
    parser.add_argument(
        "--spool",
        default=None,
        metavar="DIR",
        help="shared-filesystem spool directory for cross-host sharding: "
        "experiments run their grid searches as cluster coordinators "
        "leasing chunks to 'repro cluster-agent --spool DIR' processes "
        "on any host sharing the filesystem; results are bit-identical "
        "to a local run, and losing every agent degrades to in-process "
        "sequential execution (see docs/parallel_runtime.md)",
    )
    parser.add_argument(
        "--connect",
        default=None,
        metavar="HOST:PORT",
        help="TCP cluster transport for filesystem-less rigs: experiments "
        "bind the address and run their grid searches as coordinators "
        "leasing chunks to 'repro cluster-agent --connect HOST:PORT' "
        "processes over checksummed frames; results are bit-identical "
        "to a local run, and losing every agent degrades to in-process "
        "sequential execution (mutually exclusive with --spool)",
    )
    parser.add_argument(
        "--idle-timeout",
        type=float,
        default=None,
        metavar="S",
        help="cluster-agent only: exit after this many seconds with no "
        "claimable work (default: serve until the coordinator stops -- "
        "the spool's stop file, or the TCP coordinator going away for "
        "longer than the reconnect window)",
    )
    parser.add_argument(
        "--lease-timeout",
        type=float,
        default=None,
        metavar="S",
        help="coordinator only: reclaim a chunk lease after this many "
        "seconds of agent silence, judged on the coordinator's own "
        "monotonic clock (default: 60); never changes results",
    )
    parser.add_argument(
        "--frame-timeout",
        type=float,
        default=None,
        metavar="S",
        help="TCP only: a frame that started arriving must keep moving -- "
        "any single socket read or write stalling past this many "
        "seconds marks the connection dead (default: 30); never "
        "changes results",
    )
    parser.add_argument(
        "--quiet",
        action="store_true",
        help="suppress per-experiment progress lines",
    )
    return parser


def validate_args(parser: argparse.ArgumentParser, args) -> None:
    """Reject invalid numeric knobs with a parser error (exit code 2)."""
    if args.workers < 0:
        parser.error(f"--workers must be >= 0, got {args.workers}")
    if args.runs is not None and args.runs < 1:
        parser.error(f"--runs must be >= 1, got {args.runs}")
    if args.max_retries is not None and args.max_retries < 0:
        parser.error(f"--max-retries must be >= 0, got {args.max_retries}")
    if args.memory_budget is not None:
        from .exceptions import ConfigurationError
        from .runtime.memory import parse_memory_budget

        try:
            parse_memory_budget(args.memory_budget)
        except ConfigurationError as exc:
            parser.error(str(exc))
    if args.spool and args.connect:
        parser.error("--spool and --connect are mutually exclusive")
    if args.experiment == "cluster-agent" and not (args.spool or args.connect):
        parser.error(
            "cluster-agent requires --spool DIR or --connect HOST:PORT"
        )
    if args.idle_timeout is not None and args.idle_timeout <= 0:
        parser.error(
            f"--idle-timeout must be > 0, got {args.idle_timeout}"
        )
    if args.lease_timeout is not None and args.lease_timeout <= 0:
        parser.error(
            f"--lease-timeout must be > 0, got {args.lease_timeout}"
        )
    if args.frame_timeout is not None and args.frame_timeout <= 0:
        parser.error(
            f"--frame-timeout must be > 0, got {args.frame_timeout}"
        )
    if (args.spool or args.connect) and args.workers not in (0, 1):
        # Not an error -- the cluster transport simply takes precedence
        # -- but the combination suggests a misunderstanding worth
        # flagging early.
        flag = "--spool" if args.spool else "--connect"
        print(
            f"note: {flag} overrides --workers (chunks run on cluster "
            "agents, not a local pool)",
            file=sys.stderr,
        )


def _progress_printer(quiet: bool):
    if quiet:
        return None

    def emit(message: str) -> None:
        print(f"  .. {message}", file=sys.stderr)

    return emit


def _dispatch(
    name: str,
    profile: str,
    cache: str | None,
    quiet: bool,
    workers: int = 1,
    pool=None,
    config_overrides: dict | None = None,
) -> str:
    progress = _progress_printer(quiet)
    kwargs = dict(
        cache_dir=cache, progress=progress, workers=workers, pool=pool
    )
    kwargs.update(config_overrides or {})
    if name == "fig4":
        return fig4_dataset_complexity.render(
            fig4_dataset_complexity.run(profile)
        )
    if name == "fig6":
        return fig6_classical_flops.render(
            fig6_classical_flops.run(profile, **kwargs)
        )
    if name == "fig7":
        return fig7_bel_flops.render(fig7_bel_flops.run(profile, **kwargs))
    if name == "fig8":
        return fig8_sel_flops.render(fig8_sel_flops.run(profile, **kwargs))
    if name == "fig9":
        return fig9_parameters.render(fig9_parameters.run(profile, **kwargs))
    if name == "fig10":
        results = fig10_comparative.run(profile, **kwargs)
        return fig10_comparative.render(fig10_comparative.analyze(results))
    if name == "table1":
        return table1_ablation.render(table1_ablation.run(profile, **kwargs))
    raise AssertionError(f"unhandled experiment {name!r}")


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code.

    With ``--workers N`` (N != 1 after resolving 0 = all cores), one
    :class:`~repro.runtime.pool.PersistentPool` is created up front and
    shared by every experiment of the invocation — workers spin up once
    per ``repro`` run (lazily, on the first real search), not once per
    grid search, and each dataset is published to shared memory at most
    once per protocol run (publication is keyed on the split object;
    each level's segment is retired as soon as its level finishes).
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    validate_args(parser, args)
    if args.experiment == "cluster-agent":
        # Serve chunks until the coordinator stops (spool stop file, or
        # the TCP coordinator going away past the reconnect window) or
        # the idle timeout fires; no experiment runs here.
        if args.connect:
            from .runtime.cluster_tcp import run_tcp_agent

            agent_kwargs = {"idle_timeout_s": args.idle_timeout}
            if args.frame_timeout is not None:
                agent_kwargs["frame_timeout_s"] = args.frame_timeout
            stats = run_tcp_agent(args.connect, **agent_kwargs)
        else:
            from .runtime.cluster import run_agent

            stats = run_agent(args.spool, idle_timeout_s=args.idle_timeout)
        if not args.quiet:
            print(
                f"agent {stats.agent_id}: {stats.chunks_done} chunks, "
                f"{stats.claims_lost} claims lost, "
                f"{stats.cancelled} cancelled, "
                f"{stats.reconnects} reconnects",
                file=sys.stderr,
            )
        return 0
    targets = list(_EXPERIMENTS) if args.experiment == "all" else [args.experiment]

    overrides: dict = {}
    if args.runs is not None:
        overrides["runs_per_candidate"] = args.runs
    if args.no_vectorized_runs:
        overrides["vectorized_runs"] = False
    if args.no_stacked_candidates:
        overrides["stacked_candidates"] = False
    if args.journal:
        overrides["journal"] = args.journal
    if args.max_retries is not None:
        overrides["max_retries"] = args.max_retries
    if args.backend is not None:
        overrides["backend"] = args.backend
    if args.memory_budget is not None:
        from .runtime.memory import parse_memory_budget

        overrides["memory_budget"] = parse_memory_budget(args.memory_budget)
    from .runtime.parallel import resolve_workers

    cluster = bool(args.spool or args.connect)
    pool = None
    if not cluster and resolve_workers(args.workers) > 1:
        from .runtime.pool import PersistentPool

        pool = PersistentPool(resolve_workers(args.workers), backend=args.backend)
    # Warm the adaptive packer from a previous invocation's measured
    # chunk costs; written back below (pool) or by the coordinator
    # itself (cluster transports) so reruns keep learning.  Cost
    # estimates shape submission order only, never results.
    cost_cache = args.cost_cache
    if cost_cache is None and args.cache and (pool is not None or cluster):
        from pathlib import Path

        cost_cache = str(Path(args.cache) / "chunk_costs.json")
    if pool is None and not cluster and args.cost_cache:
        # Sequential runs have no chunk scheduler, so there is nothing
        # to warm or record; say so instead of silently dropping it.
        print(
            "note: --cost-cache has no effect without --workers > 1",
            file=sys.stderr,
        )
    if pool is not None and cost_cache:
        pool.cost_model.load_json(cost_cache)
    if args.spool:
        from .runtime.cluster import SpoolConfig

        spool_kwargs: dict = {"cost_cache": cost_cache}
        if args.lease_timeout is not None:
            spool_kwargs["lease_timeout_s"] = args.lease_timeout
        overrides["spool"] = SpoolConfig(path=args.spool, **spool_kwargs)
    if args.connect:
        from .runtime.cluster_tcp import TcpConfig

        tcp_kwargs: dict = {"cost_cache": cost_cache}
        if args.lease_timeout is not None:
            tcp_kwargs["lease_timeout_s"] = args.lease_timeout
        if args.frame_timeout is not None:
            tcp_kwargs["frame_timeout_s"] = args.frame_timeout
        overrides["connect"] = TcpConfig(address=args.connect, **tcp_kwargs)
    try:
        for target in targets:
            print(
                _dispatch(
                    target,
                    args.profile,
                    args.cache,
                    args.quiet,
                    args.workers,
                    pool=pool,
                    config_overrides=overrides,
                )
            )
            print()
    finally:
        if pool is not None:
            if cost_cache and pool.cost_model.observations:
                pool.cost_model.save_json(cost_cache)
            pool.close()
        if args.spool:
            # Wind the cluster down: agents exit when they see the stop
            # file instead of idling on an empty spool forever.
            from .runtime.cluster import stop_agents

            stop_agents(args.spool)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
