"""Smoke tests for the package's public surface."""

import importlib
import json
import os
import pkgutil
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import repro

SRC = Path(repro.__file__).resolve().parent.parent


def run_fresh(code: str) -> str:
    """Run ``code`` in a fresh interpreter; return its stdout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")])
    )
    result = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def assert_exports_are_definitions(pkg) -> None:
    """Every name in ``pkg.__all__`` is the object the submodule that
    lists it in its own ``__all__`` holds, or else the submodule of that
    name: a lazy table that returned the wrong object fails here."""
    submodules = {
        info.name: importlib.import_module(f"{pkg.__name__}.{info.name}")
        for info in pkgutil.iter_modules(pkg.__path__)
    }
    for name in pkg.__all__:
        if name.startswith("__"):
            continue
        value = getattr(pkg, name)
        holders = [
            getattr(sub, name)
            for sub in submodules.values()
            if name in getattr(sub, "__all__", ())
        ]
        if not holders:
            assert value is submodules.get(name), f"{pkg.__name__}.{name}"
        for held in holders:
            assert value is held, f"{pkg.__name__}.{name}"


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
        assert_exports_are_definitions(repro)

    @pytest.mark.parametrize(
        "module",
        ["quantum", "nn", "hybrid", "flops", "data", "core", "experiments"],
    )
    def test_subpackage_all_resolve(self, module):
        pkg = getattr(repro, module)
        for name in pkg.__all__:
            assert hasattr(pkg, name), f"{module}.{name}"
        assert_exports_are_definitions(pkg)

    @pytest.mark.parametrize(
        "module", ["repro", "repro.core", "repro.data", "repro.flops"]
    )
    def test_dir_lists_every_public_name(self, module):
        pkg = importlib.import_module(module)
        assert set(pkg.__all__) <= set(dir(pkg))

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            repro.core.no_such_name

    def test_grid_search_is_the_function_whichever_import_comes_first(self):
        """Importing the submodule first must not leave the package
        attribute pointing at the module."""
        out = run_fresh(
            """
            import importlib, inspect, json
            module = importlib.import_module("repro.core.grid_search")
            import repro
            import repro.core
            from repro.core import grid_search
            print(json.dumps([
                inspect.isfunction(module.grid_search),
                repro.grid_search is module.grid_search,
                repro.core.grid_search is module.grid_search,
                grid_search is module.grid_search,
            ]))
            """
        )
        assert json.loads(out) == [True, True, True, True]

    def test_no_array_backend_package(self):
        """Every run executes on NumPy; there is no backend layer."""
        import importlib

        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.backends")

    def test_no_backend_unavailable_error(self):
        import repro.exceptions

        assert not hasattr(repro.exceptions, "BackendUnavailable")


class TestImportGraph:
    """A search loads only what it runs: packages resolve their public
    names lazily, so no figure module, comparison or export module, nor
    the complexity probe, is compiled before a search starts, and a
    journaled search serializes its candidates without the protocol
    result module.

    ``socket`` and ``repro.runtime.cluster_tcp`` join this list once
    ``repro.runtime`` resolves its names lazily too; today its package
    imports every runtime module (the benchmark's span hooks read
    ``repro.runtime.pool`` from ``sys.modules``).
    """

    UNUSED = (
        "repro.experiments",
        "repro.experiments.fig4_dataset_complexity",
        "repro.experiments.table1_ablation",
        "repro.core.comparison",
        "repro.core.export",
        "repro.data.complexity_probe",
        "repro.core.results",
    )

    def test_sequential_protocol_imports_no_unused_module(self, tmp_path):
        out = run_fresh(
            f"""
            import json, sys
            from repro.core.experiment import (
                ProtocolConfig, make_level_split, run_protocol,
            )
            cfg = ProtocolConfig(
                feature_sizes=(4,), n_experiments=1, runs_per_candidate=1,
                epochs=2, batch_size=8, n_points=60, max_candidates=2,
                threshold=0.99, journal={str(tmp_path / "ckpt.jsonl")!r},
            )
            make_level_split(cfg, 4)
            result = run_protocol("classical", cfg)
            assert len(result.levels[0].outcomes[0].evaluated) == 2
            print(json.dumps(sorted(sys.modules)))
            """
        )
        loaded = set(json.loads(out))
        assert "repro.core.grid_search" in loaded
        journal = tmp_path / "ckpt-f4-e0.jsonl"
        assert len(journal.read_text().splitlines()) == 2
        assert loaded.isdisjoint(self.UNUSED), loaded & set(self.UNUSED)


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
