"""Shared fixtures for the benchmark suite.

The figure-level benchmarks all need protocol results; they are computed
once per session under the ``smoke`` profile and shared through a cache
directory, so `pytest benchmarks/ --benchmark-only` stays minutes-scale.
Set ``REPRO_BENCH_PROFILE=reduced`` to regenerate the EXPERIMENTS.md
numbers instead (minutes: cold, at ``--workers 1`` on a 2-vCPU Xeon
host with Python 3.11 and NumPy 2.4, Fig. 6 takes 52.0 s, Fig. 7
15.1 s and Fig. 8 13.7 s).
"""

from __future__ import annotations

import os

import pytest

from repro.experiments.runner import get_profile, run_family_cached


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
