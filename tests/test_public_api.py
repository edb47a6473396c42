"""Smoke tests for the package's public surface."""

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro


class TestPublicImports:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_setup_metadata_matches_package(self):
        """``setup.py`` declares the package's own name and version."""
        root = Path(__file__).resolve().parent.parent
        result = subprocess.run(
            [sys.executable, "setup.py", "--name", "--version"],
            capture_output=True,
            text=True,
            cwd=root,
            timeout=60,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.split() == ["repro", repro.__version__]

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    @pytest.mark.parametrize(
        "module",
        ["quantum", "nn", "hybrid", "flops", "data", "core", "experiments"],
    )
    def test_subpackage_all_resolve(self, module):
        pkg = getattr(repro, module)
        for name in pkg.__all__:
            assert hasattr(pkg, name), f"{module}.{name}"

    def test_no_array_backend_package(self):
        """Every run executes on NumPy; there is no backend layer."""
        import importlib

        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.backends")

    def test_no_backend_unavailable_error(self):
        import repro.exceptions

        assert not hasattr(repro.exceptions, "BackendUnavailable")


class TestQuickstartFlow:
    """The README quickstart, end to end."""

    def test_quickstart(self):
        data = repro.make_spiral(n_features=6, n_points=120, seed=1)
        split = repro.stratified_split(data, seed=1)
        model = repro.build_hybrid_model(
            6, n_qubits=3, n_layers=1, ansatz="sel",
            rng=np.random.default_rng(1),
        )
        history = repro.train_model(
            model,
            split.x_train,
            split.y_train,
            split.x_val,
            split.y_val,
            epochs=3,
            batch_size=16,
            rng=np.random.default_rng(1),
        )
        assert 0.0 <= history.max_val_accuracy <= 1.0
        profile = repro.profile_model(model)
        assert profile.total_flops > 0
        assert profile.param_count == model.param_count
