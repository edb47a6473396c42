"""Unit tests for profiles, cached runs and report formatting."""

import pytest

from repro.core.experiment import ProtocolResult
from repro.exceptions import ExperimentError
from repro.experiments.report import (
    format_level_winners,
    format_protocol_overview,
    format_series,
    format_table,
)
from repro.experiments.runner import (
    FULL,
    PROFILES,
    REDUCED,
    SMOKE,
    get_profile,
    run_family,
    run_family_cached,
)


class TestProfiles:
    def test_registry(self):
        assert set(PROFILES) == {"smoke", "reduced", "full"}
        assert get_profile("smoke") is SMOKE
        assert get_profile(SMOKE) is SMOKE

    def test_unknown(self):
        with pytest.raises(ExperimentError):
            get_profile("huge")

    def test_full_profile_matches_paper(self):
        cfg = FULL.protocol_config()
        assert cfg.feature_sizes == tuple(range(10, 120, 10))
        assert cfg.n_experiments == 5
        assert cfg.runs_per_candidate == 5
        assert cfg.epochs == 100
        assert cfg.batch_size == 8
        assert cfg.n_points == 1500
        assert not cfg.early_stop
        assert cfg.max_candidates is None

    def test_reduced_covers_reported_sizes(self):
        assert REDUCED.feature_sizes == (10, 40, 80, 110)

    def test_overrides(self):
        cfg = SMOKE.protocol_config(threshold=0.5)
        assert cfg.threshold == 0.5
        assert cfg.feature_sizes == SMOKE.feature_sizes


class TestRunFamily:
    def test_micro_run(self, micro_profile):
        result = run_family("classical", micro_profile, threshold=0.4)
        assert isinstance(result, ProtocolResult)
        assert result.feature_sizes == [4, 6]

    def test_cache_round_trip(self, micro_profile, tmp_path):
        first = run_family_cached(
            "classical", micro_profile, cache_dir=tmp_path, threshold=0.4
        )
        path = tmp_path / "classical_micro.json"
        assert path.exists()
        second = run_family_cached(
            "classical", micro_profile, cache_dir=tmp_path, threshold=0.4
        )
        import numpy.testing

        numpy.testing.assert_equal(  # nan-safe comparison
            second.smallest_flops_series(), first.smallest_flops_series()
        )

    @pytest.mark.parametrize("stamp", ["older", "missing"])
    def test_cache_from_other_arithmetic_is_not_loaded(
        self, micro_profile, tmp_path, monkeypatch, stamp
    ):
        """A result cached by other engine kernels (or before results
        carried the stamp) is recomputed and overwritten, never served
        as current."""
        import json

        from repro.experiments import runner
        from repro.quantum.engine import ARITHMETIC_VERSION

        computed = []

        def counting_run_family(*args, **kwargs):
            computed.append(args[0])
            return run_family(*args, **kwargs)

        monkeypatch.setattr(runner, "run_family", counting_run_family)
        kwargs = dict(cache_dir=tmp_path, max_candidates=1)
        run_family_cached("bel", micro_profile, **kwargs)
        path = tmp_path / "bel_micro_max_candidates-1.json"
        data = json.loads(path.read_text())
        assert data["arithmetic_version"] == ARITHMETIC_VERSION
        # Forge the other engine's file: a cache that trusted it would
        # report these accuracies.
        if stamp == "older":
            data["arithmetic_version"] = ARITHMETIC_VERSION - 1
        else:
            del data["arithmetic_version"]
        for level in data["levels"]:
            for outcome in level["outcomes"]:
                for cand in outcome["evaluated"]:
                    n_runs = len(cand["val_accuracies"])
                    cand["val_accuracies"] = [-1.0] * n_runs
        path.write_text(json.dumps(data))

        result = run_family_cached("bel", micro_profile, **kwargs)
        assert computed == ["bel", "bel"]
        assert all(
            acc >= 0.0
            for level in result.levels
            for outcome in level.outcomes
            for cand in outcome.evaluated
            for acc in cand.val_accuracies
        )
        # The recomputed file is current and is served from now on.
        assert json.loads(path.read_text())["arithmetic_version"] == (
            ARITHMETIC_VERSION
        )
        run_family_cached("bel", micro_profile, **kwargs)
        assert computed == ["bel", "bel"]

    def test_cache_with_legacy_spool_key_is_served(
        self, micro_profile, tmp_path, monkeypatch
    ):
        """A current-arithmetic file saved while the config still had a
        ``spool`` field is served, not recomputed."""
        import json

        from repro.experiments import runner

        computed = []

        def counting_run_family(*args, **kwargs):
            computed.append(args[0])
            return run_family(*args, **kwargs)

        monkeypatch.setattr(runner, "run_family", counting_run_family)
        kwargs = dict(cache_dir=tmp_path, threshold=0.4)
        first = run_family_cached("classical", micro_profile, **kwargs)
        path = tmp_path / "classical_micro.json"
        data = json.loads(path.read_text())
        data["config"]["spool"] = None
        path.write_text(json.dumps(data))

        second = run_family_cached("classical", micro_profile, **kwargs)
        assert computed == ["classical"]
        assert second.config == first.config

    def test_cache_disabled(self, micro_profile, tmp_path):
        run_family_cached("classical", micro_profile, cache_dir=None, threshold=0.4)
        assert not list(tmp_path.iterdir())


class TestReportFormatting:
    def test_format_table_alignment(self):
        text = format_table(["a", "bb"], [[1, 2.5], [10, 3.25]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bb" in lines[1]
        assert "2.5" in text and "3.2" in text

    def test_format_table_requires_columns(self):
        with pytest.raises(ExperimentError):
            format_table([], [])

    def test_format_series(self):
        text = format_series(
            [10, 20], {"classical": [1.0, 2.0], "sel": [3.0, 4.0]}, "Fig"
        )
        assert "classical" in text and "sel" in text and "20" in text

    def test_level_winners_and_overview(self, micro_profile):
        result = run_family("classical", micro_profile, threshold=0.4)
        text = format_level_winners(result)
        assert "features=4" in text
        overview = format_protocol_overview([result])
        assert "classical" in overview
