"""Integration tests for the protocol runner, comparison, and JSON I/O."""

import numpy as np
import pytest

from repro.core import (
    ProtocolConfig,
    comparative_analysis,
    load_protocol,
    protocol_from_dict,
    protocol_to_dict,
    run_protocol,
    save_protocol,
)
from repro.core.results import spec_from_dict, spec_to_dict
from repro.core.search_space import ClassicalSpec, HybridSpec
from repro.exceptions import ExperimentError


@pytest.fixture(scope="module")
def tiny_config():
    """Fast protocol configuration used across these tests."""
    return ProtocolConfig(
        feature_sizes=(4, 8),
        n_experiments=2,
        runs_per_candidate=1,
        epochs=20,
        batch_size=8,
        n_points=120,
        early_stop=True,
        max_candidates=3,
        threshold=0.4,  # low threshold so the tiny budget can succeed
    )


@pytest.fixture(scope="module")
def classical_result(tiny_config):
    return run_protocol("classical", tiny_config)


class TestRunProtocol:
    def test_levels_and_experiments(self, classical_result, tiny_config):
        assert classical_result.family == "classical"
        assert classical_result.feature_sizes == [4, 8]
        for lvl in classical_result.levels:
            assert len(lvl.outcomes) == tiny_config.n_experiments

    def test_winners_recorded(self, classical_result):
        for lvl in classical_result.levels:
            assert lvl.n_successes >= 1
            winner = lvl.smallest_winner
            assert winner is not None
            assert winner.flops <= min(
                w.flops for w in lvl.winners
            )

    def test_series_shapes(self, classical_result):
        assert len(classical_result.mean_flops_series()) == 2
        assert len(classical_result.smallest_params_series()) == 2

    def test_level_lookup(self, classical_result):
        assert classical_result.level(4).feature_size == 4
        with pytest.raises(ExperimentError):
            classical_result.level(99)

    def test_progress_callback(self, tiny_config):
        lines = []
        run_protocol(
            "classical",
            tiny_config.with_(feature_sizes=(4,), n_experiments=1),
            progress=lines.append,
        )
        assert len(lines) == 1 and "classical" in lines[0]

    def test_invalid_config(self, tiny_config):
        with pytest.raises(ExperimentError):
            run_protocol("classical", tiny_config.with_(n_experiments=0))


class TestComparativeAnalysis:
    def test_multi_family(self, tiny_config):
        hybrid_cfg = tiny_config.with_(max_candidates=2)
        sel = run_protocol("sel", hybrid_cfg)
        classical = run_protocol("classical", tiny_config)
        analysis = comparative_analysis([classical, sel])
        assert set(analysis.flops) == {"classical", "sel"}
        table = analysis.summary_table()
        assert "classical" in table and "sel" in table

    def test_mean_mode(self, classical_result):
        analysis = comparative_analysis([classical_result], use="mean")
        assert analysis.flops["classical"].values[0] > 0

    def test_invalid_use(self, classical_result):
        with pytest.raises(ExperimentError):
            comparative_analysis([classical_result], use="median")

    def test_mismatched_levels_rejected(self, classical_result, tiny_config):
        other = run_protocol(
            "classical", tiny_config.with_(feature_sizes=(4,))
        )
        with pytest.raises(ExperimentError):
            comparative_analysis([classical_result, other])

    def test_empty_rejected(self):
        with pytest.raises(ExperimentError):
            comparative_analysis([])


class TestSerialization:
    def test_spec_round_trip(self):
        for spec in (
            ClassicalSpec(n_features=7, hidden=(4, 2)),
            HybridSpec(n_features=9, n_qubits=4, n_layers=3, ansatz="bel"),
        ):
            assert spec_from_dict(spec_to_dict(spec)) == spec

    def test_unknown_spec_type(self):
        with pytest.raises(ExperimentError):
            spec_from_dict({"type": "transformer"})

    def test_protocol_round_trip(self, classical_result):
        data = protocol_to_dict(classical_result)
        restored = protocol_from_dict(data)
        assert restored.family == classical_result.family
        assert restored.feature_sizes == classical_result.feature_sizes
        assert (
            restored.smallest_flops_series()
            == classical_result.smallest_flops_series()
        )
        assert (
            restored.levels[0].winners[0].train_accuracies
            == classical_result.levels[0].winners[0].train_accuracies
        )

    def test_file_round_trip(self, classical_result, tmp_path):
        path = tmp_path / "out" / "classical.json"
        save_protocol(classical_result, path)
        restored = load_protocol(path)
        assert restored.config == classical_result.config

    def test_legacy_spool_key_loads(self, classical_result):
        """Files saved while the config had a ``spool`` or a ``connect``
        transport field carry it (``connect`` as ``null``, an address,
        or a saved ``TcpConfig``); they still load, to the same
        config."""
        from dataclasses import asdict

        from repro.runtime.cluster_tcp import TcpConfig

        legacy = [
            ("spool", None),
            ("connect", None),
            ("connect", "127.0.0.1:7171"),
            ("connect", asdict(TcpConfig("127.0.0.1:0", lease_timeout_s=2.0))),
        ]
        for key, value in legacy:
            data = protocol_to_dict(classical_result)
            data["config"][key] = value
            restored = protocol_from_dict(data)
            assert restored.config == classical_result.config, (key, value)

    def test_legacy_execution_shape_keys_load(self, classical_result):
        """Files saved while the config had ``vectorized_runs`` and
        ``stacked_candidates`` fields carry both; they still load, to
        the same config."""
        data = protocol_to_dict(classical_result)
        data["config"]["vectorized_runs"] = False
        data["config"]["stacked_candidates"] = True
        restored = protocol_from_dict(data)
        assert restored.config == classical_result.config

    def test_unknown_config_key_rejected(self, classical_result):
        data = protocol_to_dict(classical_result)
        data["config"]["bogus"] = None
        with pytest.raises(TypeError, match="bogus"):
            protocol_from_dict(data)

    def test_schema_version_guard(self, classical_result):
        data = protocol_to_dict(classical_result)
        data["schema_version"] = "99.0"
        with pytest.raises(ExperimentError):
            protocol_from_dict(data)
