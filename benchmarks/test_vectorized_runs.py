"""Run-stacked vs per-run candidate training wall clock.

The innermost hot loop of every figure-reproduction experiment trains
one candidate ``runs`` times with an identical circuit structure.  The
run-vectorized engine executes all R runs as one stacked kernel sweep
per minibatch (``repro.nn.training.train_stack`` over
``CompiledTape.execute(..., runs=R)``) instead of R scalar sweeps.

Two benchmarks pin the issue's acceptance target — stacked at least
1.5x faster than R sequential runs at runs=5, batch 8, 4 qubits — into
the committed ``BENCH_<rev>.json`` snapshots:

* ``test_per_run_training`` — R scalar ``execute_job`` calls (the
  pre-vectorization inner loop).
* ``test_stacked_training`` — one ``execute_runs`` stacked sweep over
  the same (seed, candidate, run) jobs; bit-identical metrics, one
  fused ``(R*B, 2**n)`` buffer instead of R ``(B, 2**n)`` ones.
"""

import pytest

from repro.core.grid_search import TrainingSettings
from repro.core.search_space import HybridSpec
from repro.data import make_spiral, stratified_split
from repro.runtime import execute_runs

_RUNS = 5
_SETTINGS = TrainingSettings(epochs=3, batch_size=8, runs=_RUNS)
_SPEC = HybridSpec(n_features=4, n_qubits=4, n_layers=2, ansatz="sel")


@pytest.fixture(scope="module")
def split():
    ds = make_spiral(4, n_points=96, noise=0.0, turns=0.8, seed=7)
    return stratified_split(ds, seed=7)


def _train(split, vectorized: bool):
    return execute_runs(
        _SPEC,
        7,
        0,
        range(_RUNS),
        split,
        _SETTINGS,
        vectorized=vectorized,
    )


class TestRunVectorizedTraining:
    def test_per_run_training(self, benchmark, split):
        results = benchmark.pedantic(
            lambda: _train(split, vectorized=False), rounds=3, iterations=1
        )
        assert len(results) == _RUNS

    def test_stacked_training(self, benchmark, split):
        results = benchmark.pedantic(
            lambda: _train(split, vectorized=True), rounds=3, iterations=1
        )
        assert len(results) == _RUNS
        # same metrics as the per-run loop — the snapshot's delta is
        # pure execution strategy
        reference = _train(split, vectorized=False)
        for got, ref in zip(results, reference):
            assert got.train_accuracy == ref.train_accuracy
            assert got.val_accuracy == ref.val_accuracy
            assert got.epochs_run == ref.epochs_run
