"""Back-to-back search benchmarks: cold pool vs reused persistent pool.

The paper's protocol is many grid searches in sequence (one per
complexity level x experiment).  A pool created per search pays agent
start-up plus the pickled ``DataSplit`` per agent for *each* search;
the persistent pool pays start-up once per protocol run and sends each
split to each agent once (chunks name it by a ~constant-size token).

Two wall-clock benchmarks make the difference visible in the committed
``BENCH_<rev>.json`` snapshots:

* ``test_cold_pool_search`` — create a pool, run one search, tear the
  pool down: what every search paid before the persistent pool.
* ``test_reused_pool_search`` — the same search on an already-warm
  pool: what the second and every later search of a protocol run pays
  now.  The delta between the two is the amortized spin-up.

``test_ship_split_pickle`` vs ``test_ship_chunk_token`` compare the
bytes shipped: pickling the full split (once per agent per split)
against pickling one chunk that names the split by its token (once per
chunk).
"""

import pickle
from dataclasses import replace

import pytest

from repro.core.grid_search import TrainingSettings, grid_search
from repro.core.search_space import classical_search_space
from repro.data import make_spiral, stratified_split
from repro.runtime import PersistentPool
from repro.runtime.jobs import make_chunks

_SETTINGS = TrainingSettings(epochs=8, batch_size=16, runs=2)
_WORKERS = 2


def _bench_case():
    ds = make_spiral(4, n_points=240, noise=0.0, turns=0.8, seed=7)
    split = stratified_split(ds, seed=7)
    space = classical_search_space(4, neuron_options=(2, 6), max_layers=1)
    return space, split


@pytest.fixture(scope="module")
def warm_pool():
    with PersistentPool(_WORKERS) as pool:
        yield pool


def _search(split, space, pool=None, workers=1):
    return grid_search(
        space,
        split,
        threshold=1.01,  # exhaust the space: a fixed amount of work
        settings=_SETTINGS,
        seed=3,
        workers=workers,
        pool=pool,
    )


class TestBackToBackSearches:
    def test_cold_pool_search(self, benchmark):
        space, split = _bench_case()

        def cold():
            with PersistentPool(_WORKERS) as pool:
                return _search(split, space, pool=pool)

        outcome = benchmark.pedantic(cold, rounds=2, iterations=1)
        assert outcome.candidates_trained == len(space)

    def test_reused_pool_search(self, benchmark, warm_pool):
        space, split = _bench_case()
        # Prime: the first search on the pool publishes the dataset and
        # warms worker caches; the benchmark then measures what every
        # later back-to-back search pays.
        _search(split, space, pool=warm_pool)
        searches_before = warm_pool.searches_started
        pids_before = warm_pool.agent_pids()

        outcome = benchmark.pedantic(
            lambda: _search(split, space, pool=warm_pool),
            rounds=2,
            iterations=1,
        )
        assert outcome.candidates_trained == len(space)
        # The measured searches reused the same agents — no start-up.
        assert warm_pool.agent_pids() == pids_before
        assert warm_pool.searches_started > searches_before


class TestDatasetShipping:
    """Bytes shipped: the pickled split vs a chunk naming it by token."""

    def test_ship_split_pickle(self, benchmark):
        _, split = _bench_case()
        payload = benchmark(lambda: pickle.dumps(split))
        benchmark.extra_info["payload_bytes"] = len(payload)

    def test_ship_chunk_token(self, benchmark):
        space, split = _bench_case()
        [chunk] = make_chunks(space[0], 0, 3, 2, 2, _SETTINGS)
        chunk = replace(chunk, split="coordinator-token-1")
        payload = benchmark(lambda: pickle.dumps(chunk))
        benchmark.extra_info["payload_bytes"] = len(payload)
        # Recorded next to the timing: a chunk is orders of magnitude
        # smaller than the dataset it names.
        assert len(payload) < len(pickle.dumps(split)) / 10
