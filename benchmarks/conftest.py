"""Shared fixtures for the benchmark suite.

The figure-level benchmarks all need protocol results; they are computed
once per session under the ``smoke`` profile and shared through a cache
directory, so `pytest benchmarks/ --benchmark-only` stays minutes-scale.
Set ``REPRO_BENCH_PROFILE=reduced`` to regenerate the EXPERIMENTS.md
numbers instead (minutes: on a 2-vCPU host Fig. 6 takes 181 s, Fig. 7
56 s and Fig. 8 59 s).
"""

from __future__ import annotations

import os

import pytest

from repro.backends import active_backend
from repro.experiments.runner import get_profile, run_family_cached


@pytest.fixture(autouse=True)
def _record_backend(request):
    """Stamp every benchmark entry with the array backend that ran it.

    ``run_benchmarks.condense`` copies ``extra_info["backend"]`` into
    the committed ``BENCH_<rev>.json`` snapshot so the regression check
    never mistakes a backend switch for a same-backend perf delta.
    Benchmarks that select a backend explicitly (``test_backend_sweep``)
    overwrite this default with their parametrized name.
    """
    if "benchmark" in request.fixturenames:
        request.getfixturevalue("benchmark").extra_info.setdefault(
            "backend", active_backend().name
        )
    yield


def bench_profile_name() -> str:
    return os.environ.get("REPRO_BENCH_PROFILE", "smoke")


@pytest.fixture(scope="session")
def bench_profile():
    return get_profile(bench_profile_name())


@pytest.fixture(scope="session")
def protocol_cache(tmp_path_factory, bench_profile):
    """Cache directory pre-populated with all three family protocols."""
    cache_dir = tmp_path_factory.mktemp("bench-protocols")
    for family in ("classical", "bel", "sel"):
        run_family_cached(family, bench_profile, cache_dir=cache_dir)
    return cache_dir


@pytest.fixture(scope="session")
def protocol_results(protocol_cache, bench_profile):
    """The three family results, loaded from the session cache."""
    return {
        family: run_family_cached(
            family, bench_profile, cache_dir=protocol_cache
        )
        for family in ("classical", "bel", "sel")
    }
