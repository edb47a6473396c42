"""Integration tests: every figure/table driver runs end to end on a
micro profile and renders the paper-style output."""

import pytest

from repro.core.search_space import HybridSpec
from repro.exceptions import ExperimentError
from repro.experiments import (
    fig4_dataset_complexity,
    fig6_classical_flops,
    fig7_bel_flops,
    fig8_sel_flops,
    fig9_parameters,
    fig10_comparative,
    table1_ablation,
)
from repro.experiments.runner import run_family_cached


@pytest.fixture(scope="module")
def cache(tmp_path_factory, micro_profile_module):
    """Pre-populate the protocol cache once for all driver tests."""
    cache_dir = tmp_path_factory.mktemp("protocols")
    for family in ("classical", "bel", "sel"):
        run_family_cached(
            family, micro_profile_module, cache_dir=cache_dir, threshold=0.4
        )
    return cache_dir


@pytest.fixture(scope="module")
def micro_profile_module():
    from repro.experiments.runner import RunProfile

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


def _run_cached(module, micro_profile_module, cache):
    return module.run(micro_profile_module, cache_dir=cache)


class TestFig4:
    def test_run_and_render(self, micro_profile_module):
        results = fig4_dataset_complexity.run(micro_profile_module)
        text = fig4_dataset_complexity.render(results)
        assert "Fig 4(b)" in text
        assert "noise" in text
        assert len(results) == 2


class TestProtocolFigures:
    def test_fig6(self, micro_profile_module, cache):
        result = _run_cached(fig6_classical_flops, micro_profile_module, cache)
        assert result.family == "classical"
        text = fig6_classical_flops.render(result)
        assert "Fig 6" in text and "features=4" in text

    def test_fig7(self, micro_profile_module, cache):
        result = _run_cached(fig7_bel_flops, micro_profile_module, cache)
        assert result.family == "bel"
        assert "Fig 7" in fig7_bel_flops.render(result)

    def test_fig8(self, micro_profile_module, cache):
        result = _run_cached(fig8_sel_flops, micro_profile_module, cache)
        assert result.family == "sel"
        assert "Fig 8" in fig8_sel_flops.render(result)

    def test_fig9(self, micro_profile_module, cache):
        results = fig9_parameters.run(micro_profile_module, cache_dir=cache)
        assert [r.family for r in results] == ["classical", "bel", "sel"]
        text = fig9_parameters.render(results)
        assert "panel: classical" in text and "panel: sel" in text

    def test_fig6_workers_share_one_cache_entry(
        self, micro_profile_module, tmp_path, monkeypatch
    ):
        """``workers`` reaches the protocol as a config override: a
        2-worker run writes the file a 1-worker run writes, and a
        1-worker run is then served from it without recomputing."""
        from repro.experiments import runner

        pooled = fig6_classical_flops.run(
            micro_profile_module, cache_dir=tmp_path, workers=2
        )
        assert pooled.config.workers == 2
        assert [p.name for p in tmp_path.glob("*.json")] == [
            "classical_micro.json"
        ]

        def no_rerun(*args, **kwargs):
            raise AssertionError("a cached result was recomputed")

        monkeypatch.setattr(runner, "run_family", no_rerun)
        served = fig6_classical_flops.run(
            micro_profile_module, cache_dir=tmp_path, workers=1
        )
        assert served.config == pooled.config
        assert served.smallest_flops_series() == (
            pooled.smallest_flops_series()
        )

    def test_fig9_empty_rejected(self):
        with pytest.raises(ExperimentError):
            fig9_parameters.render([])

    def test_fig10(self, micro_profile_module, cache):
        results = fig10_comparative.run(micro_profile_module, cache_dir=cache)
        analysis = fig10_comparative.analyze(results)
        text = fig10_comparative.render(analysis)
        assert "Fig 10" in text
        assert "panel a: FLOPs" in text and "panel b: params" in text
        assert "classical" in text and "sel" in text


class TestTable1:
    def test_run_and_render(self, micro_profile_module, cache):
        rows = table1_ablation.run(micro_profile_module, cache_dir=cache)
        assert set(rows) == {"bel", "sel"}
        text = table1_ablation.render(rows)
        assert "Table I" in text
        assert "paper (TensorFlow profiler counts)" in text
        assert "hybrid(SEL)" in text

    def test_row_for_spec(self):
        spec = HybridSpec(n_features=10, n_qubits=3, n_layers=2, ansatz="sel")
        row = table1_ablation.row_for_spec(spec)
        assert row.total == row.enc_plus_cl + row.ql
        assert row.enc_plus_cl == row.cl + row.enc
        assert row.best_combination == "(3,2)"

    def test_paper_reference_rows(self):
        sel_rows = table1_ablation.paper_reference_rows("sel")
        assert len(sel_rows) == 4
        assert all(r.ql == 840 for r in sel_rows)  # constant SEL QL
        all_rows = table1_ablation.paper_reference_rows()
        assert len(all_rows) == 8
        # paper internal consistency: TF == Enc+CL+QL on every row
        assert all(r.total == r.enc_plus_cl + r.ql for r in all_rows)

    def test_rows_from_protocol_rejects_classical(
        self, micro_profile_module, cache
    ):
        classical = fig6_classical_flops.run(micro_profile_module, cache_dir=cache)
        with pytest.raises(ExperimentError):
            table1_ablation.rows_from_protocol(classical)
