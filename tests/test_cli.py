"""Tests for the command-line interface."""

import socket

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_defaults(self):
        args = build_parser().parse_args(["fig4"])
        assert args.experiment == "fig4"
        assert args.profile == "smoke"
        assert args.cache is None

    def test_all_flags(self):
        args = build_parser().parse_args(
            ["fig10", "--profile", "reduced", "--cache", "out", "--quiet"]
        )
        assert args.experiment == "fig10"
        assert args.profile == "reduced"
        assert args.cache == "out"
        assert args.quiet

    def test_rejects_unknown_experiment(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig99"])

    def test_rejects_unknown_profile(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig4", "--profile", "gigantic"])

    def test_runs_flag(self):
        args = build_parser().parse_args(["fig8", "--runs", "3"])
        assert args.runs == 3
        default = build_parser().parse_args(["fig8"])
        assert default.runs is None

    @pytest.mark.parametrize(
        "argv",
        [
            ["fig8", "--runs", "0"],
            ["fig8", "--runs", "-2"],
            ["fig8", "--workers", "-1"],
            ["fig8", "--idle-timeout", "0"],
        ],
    )
    def test_invalid_numeric_flags_rejected(self, argv):
        with pytest.raises(SystemExit):
            main(argv)

    def test_backend_flag_is_gone(self):
        """Every run is NumPy; ``--backend`` is an unknown argument."""
        with pytest.raises(SystemExit) as exc:
            main(["fig4", "--backend", "torch"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "flag", ["--no-vectorized-runs", "--no-stacked-candidates"]
    )
    def test_execution_shape_flags_are_gone(self, flag):
        """Every search trains stacked sweeps through the OOM ladder;
        the flags that selected older execution shapes are unknown."""
        with pytest.raises(SystemExit) as exc:
            main(["fig4", flag])
        assert exc.value.code == 2

    def test_removed_cost_flag_is_rejected(self):
        """Chunks go out in rank order and no chunk cost is persisted,
        so the flag that named the cost file is an unknown argument."""
        with pytest.raises(SystemExit) as exc:
            main(["fig4", "--cost-cache", "c.json"])
        assert exc.value.code == 2

    def test_cluster_agent_requires_spool(self):
        """``cluster-agent`` without ``--connect`` is a usage error."""
        with pytest.raises(SystemExit):
            main(["cluster-agent"])


class TestMain:
    def test_cluster_agent_idle_timeout_exits_clean(self):
        """A cluster agent dialing a port nobody listens on exits 0 once
        its idle timeout passes (no coordinator ever appears)."""
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        assert (
            main(
                [
                    "cluster-agent",
                    "--connect",
                    f"127.0.0.1:{port}",
                    "--idle-timeout",
                    "0.3",
                    "--quiet",
                ]
            )
            == 0
        )

    def test_fig4_smoke(self, capsys):
        assert main(["fig4", "--profile", "smoke", "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "Fig 4(b)" in out

    def test_table1_smoke_cached(self, capsys, tmp_path):
        code = main(
            [
                "table1",
                "--profile",
                "smoke",
                "--cache",
                str(tmp_path),
                "--quiet",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Table I" in out
        # cache was populated for both hybrid families
        assert (tmp_path / "bel_smoke.json").exists()
        assert (tmp_path / "sel_smoke.json").exists()

    def test_runs_override_keys_cache_separately(self, capsys, tmp_path):
        """--runs changes results, so it must not share the default
        cache entry."""
        code = main(
            [
                "fig8",
                "--profile",
                "smoke",
                "--runs",
                "2",
                "--cache",
                str(tmp_path),
                "--quiet",
            ]
        )
        assert code == 0
        assert "Fig 8" in capsys.readouterr().out
        assert (tmp_path / "sel_smoke_runs_per_candidate-2.json").exists()
        assert not (tmp_path / "sel_smoke.json").exists()

    def test_mechanics_flag_shares_cache_entry(self, capsys, tmp_path):
        """--max-retries does not change results, so it reuses the
        default cache key rather than forking it."""
        code = main(
            [
                "fig8",
                "--profile",
                "smoke",
                "--max-retries",
                "0",
                "--cache",
                str(tmp_path),
                "--quiet",
            ]
        )
        assert code == 0
        assert "Fig 8" in capsys.readouterr().out
        assert (tmp_path / "sel_smoke.json").exists()
