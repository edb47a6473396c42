"""Tests for the command-line interface."""

import pathlib
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

    def test_cost_cache_flag(self):
        args = build_parser().parse_args(["fig8", "--cost-cache", "c.json"])
        assert args.cost_cache == "c.json"
        default = build_parser().parse_args(["fig8"])
        assert default.cost_cache is None

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

    @staticmethod
    def _fake_pools(monkeypatch, cost_paths=None):
        """Stand in an agentless pool and a dispatch that records one
        observation per run; returns the created pools.  ``cost_paths``
        (a list) receives every cost cache a pool is given."""
        import repro.cli as cli_mod
        from repro.runtime.cluster_tcp import Coordinator

        class _FakePool(Coordinator):
            """The pool's cost-model load and save, without agents."""

            def __init__(self, workers, cost_cache=None, cost_identity=None):
                if cost_paths is not None:
                    cost_paths.append(str(cost_cache))
                super().__init__(
                    "127.0.0.1:0",
                    cost_cache=cost_cache,
                    cost_identity=cost_identity,
                )
                self.workers = workers
                self.loaded = self.cost_model.observations

        created = []

        def fake_dispatch(*args, **kwargs):
            pool = kwargs.get("pool") or args[5]
            pool.cost_model.observe("A", 10, 2.0, 1)
            return "ok"

        monkeypatch.setattr(
            "repro.runtime.pool.PersistentPool",
            lambda workers, **kw: created.append(_FakePool(workers, **kw))
            or created[-1],
        )
        monkeypatch.setattr(cli_mod, "_dispatch", fake_dispatch)
        return created

    def test_cost_cache_written_and_reloaded(self, capsys, tmp_path, monkeypatch):
        """With --cache and --workers > 1 the measured-cost model is
        persisted next to the result cache and warms the next run."""
        from repro.runtime.parallel import ChunkCostModel

        created = self._fake_pools(monkeypatch)
        code = main(
            ["fig4", "--workers", "2", "--cache", str(tmp_path), "--quiet"]
        )
        assert code == 0
        cost_path = tmp_path / "chunk_costs_smoke.json"
        assert cost_path.exists()
        assert created and created[0].closed

        warm = ChunkCostModel()
        assert warm.load_json(cost_path)
        assert "A" in warm.snapshot()

    def test_default_cost_cache_is_partitioned_by_result_identity(
        self, tmp_path, monkeypatch
    ):
        """Costs are keyed by candidate label only, so each profile and
        result-affecting override warms from its own default file; a
        mechanics flag shares it, and an explicit --cost-cache wins."""
        loaded = []
        self._fake_pools(monkeypatch, loaded)
        base = ["fig8", "--workers", "2", "--quiet"]
        base += ["--cache", str(tmp_path)]
        for extra in (
            [],
            ["--max-retries", "0"],
            ["--profile", "reduced"],
            ["--runs", "3"],
            ["--cost-cache", str(tmp_path / "mine.json")],
        ):
            assert main(base + extra) == 0
        assert [pathlib.Path(p).name for p in loaded] == [
            "chunk_costs_smoke.json",
            "chunk_costs_smoke.json",
            "chunk_costs_reduced.json",
            "chunk_costs_smoke_runs_per_candidate-3.json",
            "mine.json",
        ]
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "chunk_costs_reduced.json",
            "chunk_costs_smoke.json",
            "chunk_costs_smoke_runs_per_candidate-3.json",
            "mine.json",
        ]

    def test_explicit_cost_cache_keeps_profiles_apart(
        self, tmp_path, monkeypatch
    ):
        """An explicit --cost-cache is one file for every profile, but
        it records the run's identity: a smoke-profile file warms the
        next smoke run and never a reduced one."""
        created = self._fake_pools(monkeypatch)
        cache = str(tmp_path / "costs.json")
        for profile in ("smoke", "smoke", "reduced"):
            argv = ["fig4", "--workers", "2", "--cost-cache", cache]
            assert main(argv + ["--profile", profile, "--quiet"]) == 0
        assert [pool.loaded for pool in created] == [0, 1, 0]
