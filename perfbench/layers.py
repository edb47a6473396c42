"""Per-layer metrics derived from one traced run's spans and counters.

A layer's time is the summed duration of its outermost spans (a span
nested in a same-named span is not counted twice); its self time
subtracts the part of each span that its direct child spans cover.
BENCHMARK.json names every metric with its unit; README.md lists the
end-to-end metric and workload each should move.
"""

from __future__ import annotations

import collections

class SpanTree:
    """Spans as ``(id, name, start, end, parent)`` tuples; ids are dense."""

    def __init__(self, spans) -> None:
        self.nodes = [None] * len(spans)
        self.by_name: dict[str, list[tuple]] = collections.defaultdict(list)
        self.child_time: dict[int, float] = collections.defaultdict(float)
        for span in spans:
            sid, name, start, end, parent = span
            self.nodes[sid] = span
            self.by_name[name].append(span)
            if parent is not None:
                self.child_time[parent] += end - start

    def _nested_in(self, parent: int | None, names: set[str]) -> bool:
        while parent is not None:
            node = self.nodes[parent]
            if node[1] in names:
                return True
            parent = node[4]
        return False

    def total(self, *names: str) -> float:
        """Summed duration of the outermost spans among ``names``."""
        wanted = set(names)
        return sum(
            end - start
            for name in names
            for _, _, start, end, parent in self.by_name[name]
            if not self._nested_in(parent, wanted)
        )

    def self_time(self, name: str) -> float:
        return sum(
            end - start - self.child_time[sid]
            for sid, _, start, end, _ in self.by_name[name]
        )

    def calls(self, name: str) -> int:
        return len(self.by_name[name])


def per_layer(rec, runs: int) -> dict[str, float]:
    """Every per-layer metric that one traced run's recorder determines."""
    tree = SpanTree(rec.spans)
    counts = rec.counts
    sums = rec.sums
    pool = collections.Counter()
    for stats in rec.pool_stats:
        pool.update({k: v for k, v in stats.items() if isinstance(v, (int, float))})

    committed = counts["grid_search.committed"]
    group_calls = tree.calls("jobs.execute_candidates")
    slices = counts["pool.slices_submitted"]
    trained = (
        tree.calls("jobs.execute_runs")
        + counts["grid_search.group_members"]
        + slices / runs
    )
    return {
        "data.spiral_s": tree.total("data.spiral"),
        "data.split_s": tree.total("data.split"),
        "search_space.build_s": tree.total("search_space.build"),
        "flops.rank_s": tree.total("flops.rank"),
        "grid_search.self_s": tree.total("grid_search")
        - tree.total("jobs.execute_runs", "jobs.execute_candidates"),
        "grid_search.committed": committed,
        "grid_search.trained": trained,
        "grid_search.useful_ratio": committed / trained if trained else 0.0,
        "grid_search.group_calls": group_calls,
        "grid_search.group_size_mean": (
            counts["grid_search.group_members"] / group_calls if group_calls else 0.0
        ),
        "jobs.execute_runs_s": tree.total("jobs.execute_runs"),
        "jobs.execute_runs_calls": tree.calls("jobs.execute_runs"),
        "jobs.execute_candidates_s": tree.total("jobs.execute_candidates"),
        "jobs.execute_candidates_calls": group_calls,
        "jobs.build_s": tree.total("jobs.build"),
        "training.train_s": tree.total("training.train"),
        "training.self_s": tree.self_time("training.train"),
        "training.epochs": counts["training.epochs"],
        "training.steps": tree.calls("optim.step"),
        "stacked.dense_fwd_s": tree.total("stacked.dense_fwd"),
        "stacked.dense_bwd_s": tree.total("stacked.dense_bwd"),
        "stacked.dense_calls": tree.calls("stacked.dense_fwd")
        + tree.calls("stacked.dense_bwd"),
        "optim.step_s": tree.total("optim.step"),
        "optim.step_calls": tree.calls("optim.step"),
        "hybrid.qlayer_fwd_s": tree.self_time("hybrid.qlayer_fwd"),
        "hybrid.qlayer_bwd_s": tree.self_time("hybrid.qlayer_bwd"),
        "engine.execute_s": tree.total("engine.execute"),
        "engine.execute_calls": tree.calls("engine.execute"),
        "engine.adjoint_s": tree.total("engine.adjoint"),
        "engine.adjoint_calls": tree.calls("engine.adjoint"),
        "engine.expvals_s": tree.total("engine.expvals"),
        "engine.compile_hits": counts["engine.compile_hits"],
        "engine.compile_misses": counts["engine.compile_misses"],
        "gates.build_s": tree.total("gates.build"),
        "gates.build_calls": tree.calls("gates.build"),
        "journal.append_s": tree.total("journal.append"),
        "journal.appends": tree.calls("journal.append"),
        "pool.first_result_s": sums["pool.first_result_s"],
        "pool.chunks": counts["pool.chunks"],
        "pool.slices_submitted": slices,
        "pool.useful_ratio": committed * runs / slices if slices else 0.0,
        "pool.cancelled_chunks": counts["pool.chunks"] - counts["pool.results"],
        "pool.worker_busy_s": sums["pool.worker_busy_s"],
        "pool.chunk_overhead_s": sums["pool.chunk_overhead_s"],
        "pool.publish_s": tree.total("pool.publish"),
        "pool.close_s": sums["pool.close_s"],
        "pool.retries": pool["chunk_retries"],
        "pool.fallbacks": pool["sequential_fallbacks"],
        "pool.memory_degrades": pool["memory_degrades"],
        "pool.shm_results": pool["shm_results_received"],
    }
