"""Shared fixtures for the test suite."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from repro.data import make_spiral, stratified_split
from repro.experiments.runner import RunProfile


def pytest_configure(config):
    # The fault-tolerance tests mark themselves with per-test timeouts
    # so a supervision regression that reintroduces a hang fails fast
    # in CI (where pytest-timeout is installed).  Register the marker
    # so runs without the plugin stay warning-free; without the plugin
    # the marks are inert.
    config.addinivalue_line(
        "markers",
        "timeout(seconds): per-test timeout, enforced when pytest-timeout "
        "is installed",
    )


@pytest.fixture
def rng() -> np.random.Generator:
    """Fresh deterministic generator per test."""
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def tiny_split():
    """A small spiral split reused by training-heavy tests."""
    dataset = make_spiral(6, n_points=120, seed=3)
    return stratified_split(dataset, seed=3)


@pytest.fixture(scope="session")
def micro_profile() -> RunProfile:
    """A profile even smaller than 'smoke', for driver tests."""
    return RunProfile(
        name="micro",
        feature_sizes=(4, 6),
        n_experiments=1,
        runs_per_candidate=1,
        epochs=15,
        batch_size=8,
        n_points=90,
        early_stop=True,
        max_candidates=3,
        threshold=0.4,
    )


@pytest.fixture(scope="session")
def cz_ring_layer():
    """``CZRingLayer`` of ``examples/custom_ansatz.py``: a custom
    :class:`~repro.hybrid.QuantumLayer` whose CZ rings the engine
    compiles as signed permutations."""
    path = Path(__file__).parent.parent / "examples" / "custom_ansatz.py"
    spec = importlib.util.spec_from_file_location("custom_ansatz", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.CZRingLayer
