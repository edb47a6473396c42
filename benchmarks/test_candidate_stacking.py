"""Cross-candidate stacked vs per-candidate grid-search wall clock.

A head-varied hybrid search space holds many candidates whose compiled
tapes are structurally identical (same qubits/ansatz/depth, different
classical heads).  With candidate stacking the sequential search trains
each tape-structure group as **one** fused ``(C*R*B, 2**n)`` sweep
(`repro.nn.stacked.stack_candidates` via
`repro.runtime.jobs.execute_candidates`) instead of one run-stacked
sweep per candidate.

Two benchmarks pin the issue's acceptance target — stacked at least
1.5x faster on a multi-candidate search at the bench config (4
same-structure candidates, runs=2 as in the reduced profile, batch 8,
4 qubits, SEL depth 3) — into the committed ``BENCH_<rev>.json``
snapshots:

* ``test_per_candidate_search`` — ``MAX_GROUP_CANDIDATES`` patched to
  1: one run-stacked sweep per candidate.
* ``test_stacked_candidate_search`` — the default cap: one fused
  sweep for the whole tape-structure group; bit-identical outcome.

A third benchmark times a 6-candidate group, which the fixed
``MAX_GROUP_CANDIDATES`` cap of 4 packs as a 4-member fused sweep plus a
2-member one.
"""

import importlib

import pytest

from repro.core.grid_search import TrainingSettings, grid_search
from repro.core.search_space import HybridSpec
from repro.data import make_spiral, stratified_split

_RUNS = 2
_HEADS = ((), (4,), (6,), (8,))
_SPECS = [
    HybridSpec(n_features=4, n_qubits=4, n_layers=3, ansatz="sel", hidden=h)
    for h in _HEADS
]
# Six same-group-key candidates: the fixed cap of 4 splits them 4 + 2.
_WIDE_HEADS = ((), (3,), (4,), (5,), (6,), (8,))
_WIDE_SPECS = [
    HybridSpec(n_features=4, n_qubits=4, n_layers=3, ansatz="sel", hidden=h)
    for h in _WIDE_HEADS
]


_SETTINGS = TrainingSettings(epochs=3, batch_size=8, runs=_RUNS)
# The module, not the ``grid_search`` function ``repro.core`` re-exports.
GRID_SEARCH = importlib.import_module("repro.core.grid_search")


@pytest.fixture(scope="module")
def split():
    ds = make_spiral(4, n_points=96, noise=0.0, turns=0.8, seed=7)
    return stratified_split(ds, seed=7)


def _search(split):
    # threshold 1.01 is unreachable: every candidate trains, so the
    # snapshot's delta is pure execution strategy on a fixed workload.
    return grid_search(
        _SPECS,
        split,
        threshold=1.01,
        settings=_SETTINGS,
        workers=1,
        seed=7,
    )


def _wide_search(split):
    return grid_search(
        _WIDE_SPECS,
        split,
        threshold=1.01,
        settings=_SETTINGS,
        workers=1,
        seed=7,
    )


class TestCandidateStackedSearch:
    def test_per_candidate_search(self, benchmark, split, monkeypatch):
        monkeypatch.setattr(GRID_SEARCH, "MAX_GROUP_CANDIDATES", 1)
        outcome = benchmark.pedantic(
            lambda: _search(split), rounds=3, iterations=1
        )
        assert outcome.candidates_trained == len(_SPECS)

    def test_stacked_candidate_search(self, benchmark, split, monkeypatch):
        outcome = benchmark.pedantic(
            lambda: _search(split), rounds=3, iterations=1
        )
        assert outcome.candidates_trained == len(_SPECS)
        # same outcome as one-candidate groups — the snapshot's delta
        # is pure execution strategy
        monkeypatch.setattr(GRID_SEARCH, "MAX_GROUP_CANDIDATES", 1)
        reference = _search(split)
        for got, ref in zip(outcome.evaluated, reference.evaluated):
            assert got.spec == ref.spec
            assert got.train_accuracies == ref.train_accuracies
            assert got.val_accuracies == ref.val_accuracies
            assert got.epochs_run == ref.epochs_run


class TestAdaptiveGroupSizing:
    """A 6-candidate group under the fixed 4-cap split."""

    def test_fixed_cap_groups(self, benchmark, split):
        # The 6-candidate group is packed as a 4-member fused sweep
        # plus a 2-member one.
        outcome = benchmark.pedantic(
            lambda: _wide_search(split),
            rounds=3,
            iterations=1,
        )
        assert outcome.candidates_trained == len(_WIDE_SPECS)
