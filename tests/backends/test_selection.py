"""Backend selection plumbing: CLI flag, config threading, fallback
event, pooled-worker inheritance and result-cache keying."""

from __future__ import annotations

import importlib.util

import pytest

from repro.backends import BACKEND_ENV_VAR, set_default_backend
from repro.cli import build_parser
from repro.core.experiment import ProtocolConfig
from repro.core.grid_search import TrainingSettings, grid_search
from repro.core.search_space import ClassicalSpec
from repro.data import make_spiral, stratified_split
from repro.experiments.runner import run_family_cached
from repro.runtime.pool import PersistentPool

torch_missing = importlib.util.find_spec("torch") is None


@pytest.fixture(autouse=True)
def _no_backend_env(monkeypatch):
    monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
    set_default_backend(None)
    yield
    set_default_backend(None)


class TestCliFlag:
    def test_backend_flag_parses(self):
        args = build_parser().parse_args(["fig6", "--backend", "torch"])
        assert args.backend == "torch"

    def test_backend_defaults_to_none(self):
        args = build_parser().parse_args(["fig6"])
        assert args.backend is None

    def test_unknown_backend_rejected_at_parse_time(self, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["fig6", "--backend", "jax"])
        assert exc.value.code == 2
        assert "--backend" in capsys.readouterr().err


class TestConfigThreading:
    def test_protocol_config_threads_backend_into_settings(self):
        cfg = ProtocolConfig(backend="torch")
        assert cfg.training_settings().backend == "torch"

    def test_default_is_none(self):
        assert ProtocolConfig().training_settings().backend is None

    def test_pool_ships_backend_to_worker_init(self):
        pool = PersistentPool(2, backend="numpy")
        try:
            assert pool.backend == "numpy"
            # The worker initializer receives (ctrl_name, backend_name):
            # every job a worker runs inherits the pool's backend.
            assert pool._initargs[-1] == "numpy"
        finally:
            pool.close()

    def test_pool_defaults_to_no_backend(self):
        pool = PersistentPool(2)
        try:
            assert pool._initargs[-1] is None
        finally:
            pool.close()


@pytest.mark.skipif(not torch_missing, reason="torch is installed here")
class TestFallbackEvent:
    def test_grid_search_emits_one_backend_fallback_event(self):
        split = stratified_split(make_spiral(4, n_points=60, seed=5), seed=5)
        events = []
        outcome = grid_search(
            [ClassicalSpec(n_features=4, hidden=(2,))],
            split,
            threshold=0.2,
            settings=TrainingSettings(epochs=2, runs=2, backend="torch"),
            seed=5,
            on_event=lambda e: events.append(e),
        )
        assert outcome.candidates_trained >= 1
        fallbacks = [e for e in events if e.kind == "backend-fallback"]
        assert len(fallbacks) == 1
        assert "torch" in fallbacks[0].message
        assert "numpy" in fallbacks[0].message

    def test_no_event_when_backend_unset(self):
        split = stratified_split(make_spiral(4, n_points=60, seed=5), seed=5)
        events = []
        grid_search(
            [ClassicalSpec(n_features=4, hidden=(2,))],
            split,
            threshold=0.2,
            settings=TrainingSettings(epochs=2, runs=1),
            seed=5,
            on_event=lambda e: events.append(e),
        )
        assert not [e for e in events if e.kind == "backend-fallback"]


class TestCacheKeying:
    def test_explicit_numpy_shares_the_plain_key(
        self, tmp_path, micro_profile
    ):
        """The cache is keyed by the backend a run resolves to, so an
        explicit ``backend="numpy"`` is the default run."""
        run_family_cached(
            "classical",
            micro_profile,
            cache_dir=tmp_path,
            backend="numpy",
        )
        names = [p.name for p in tmp_path.glob("*.json")]
        assert names == ["classical_micro.json"]

    def test_env_selected_backend_keys_its_own_file(
        self, tmp_path, micro_profile, monkeypatch, torch_stub
    ):
        """A run that resolves to torch through ``REPRO_BACKEND`` must
        neither write nor serve the NumPy reference file."""
        monkeypatch.setenv(BACKEND_ENV_VAR, "torch")
        device = run_family_cached(
            "classical", micro_profile, cache_dir=tmp_path
        )
        names = sorted(p.name for p in tmp_path.glob("*.json"))
        assert names == ["classical_micro_backend-torch.json"]
        assert device.config.backend is None
        monkeypatch.delenv(BACKEND_ENV_VAR)
        reference = run_family_cached(
            "classical", micro_profile, cache_dir=tmp_path
        )
        names = sorted(p.name for p in tmp_path.glob("*.json"))
        assert names == [
            "classical_micro.json",
            "classical_micro_backend-torch.json",
        ]
        # From now on each backend is served its own file.
        import repro.experiments.runner as runner_mod

        def no_rerun(*args, **kwargs):
            raise AssertionError("a cached result was recomputed")

        monkeypatch.setattr(runner_mod, "run_family", no_rerun)
        again = run_family_cached(
            "classical", micro_profile, cache_dir=tmp_path
        )

        def accuracies(result):
            return [
                c.val_accuracies
                for level in result.levels
                for outcome in level.outcomes
                for c in outcome.evaluated
            ]

        assert accuracies(again) == accuracies(reference)

    def test_default_backend_uses_the_plain_key(self, tmp_path, micro_profile):
        run_family_cached("classical", micro_profile, cache_dir=tmp_path)
        names = [p.name for p in tmp_path.glob("*.json")]
        assert names == ["classical_micro.json"]
