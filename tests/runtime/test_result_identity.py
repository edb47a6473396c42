"""Result identity: every config field is classified, and the tags hold.

Each field of :class:`TrainingSettings` and :class:`ProtocolConfig`
is tagged ``affects_results`` (see :mod:`repro.core.identity`), and
the journal key and the result-cache filename are derived from those
tags.  These tests pin both directions:

* every field carries a tag, so a new one cannot slip in unclassified;
* every field tagged as *not* affecting results is toggled in one
  differential that must reproduce the reference ``SearchOutcome``;
* the derived journal key and cache filenames are the ones earlier
  releases wrote, so existing journals resume and caches are served.
"""

import dataclasses

import numpy as np
import pytest

from repro.core.experiment import ProtocolConfig, run_protocol
from repro.core.grid_search import TrainingSettings, grid_search
from repro.core.search_space import (
    ClassicalSpec,
    HybridSpec,
    classical_search_space,
)
from repro.data import make_spiral, stratified_split
from repro.data.splits import DataSplit
from repro.exceptions import ConfigurationError
from repro.experiments.runner import cache_name
from repro.flops.conventions import get_convention
from repro.runtime import PersistentPool, search_key

pytestmark = pytest.mark.timeout(180)

CONFIGS = (TrainingSettings, ProtocolConfig)


def _mechanics(cls):
    return {f.name for f in dataclasses.fields(cls)} - _affecting(cls)


def _affecting(cls):
    return {
        f.name
        for f in dataclasses.fields(cls)
        if f.metadata.get("affects_results")
    }


@pytest.mark.parametrize("cls", CONFIGS, ids=lambda c: c.__name__)
def test_every_field_is_classified(cls):
    untagged = [
        f.name
        for f in dataclasses.fields(cls)
        if not isinstance(f.metadata.get("affects_results"), bool)
    ]
    assert untagged == [], (
        f"{cls.__name__} fields without an affects_results tag: "
        f"{untagged}; declare them with repro.core.identity.setting"
    )


# -- the mechanics differential ---------------------------------------------

#: One non-default value per field tagged ``affects_results=False``.
MECHANICS = {
    (TrainingSettings, "return_histories"): True,
    (TrainingSettings, "max_retries"): 0,
    (TrainingSettings, "fallback_sequential"): False,
    # One byte: every fused group splits down to single candidates.
    (TrainingSettings, "memory_budget"): 1.0,
    (ProtocolConfig, "workers"): 2,
    (ProtocolConfig, "max_retries"): 0,
    (ProtocolConfig, "journal"): "ckpt.jsonl",
    (ProtocolConfig, "memory_budget"): 1.0,
}


def test_table_covers_exactly_the_mechanics_fields():
    assert set(MECHANICS) == {
        (cls, name) for cls in CONFIGS for name in _mechanics(cls)
    }


def _assert_same_outcome(got, expected):
    assert got.succeeded == expected.succeeded
    assert [c.spec for c in got.evaluated] == [
        c.spec for c in expected.evaluated
    ]
    for field in ("train_accuracies", "val_accuracies", "epochs_run"):
        assert [getattr(c, field) for c in got.evaluated] == [
            getattr(c, field) for c in expected.evaluated
        ]
    if expected.winner is not None:
        assert got.winner.spec == expected.winner.spec


@pytest.fixture(scope="module")
def easy_split():
    ds = make_spiral(4, n_points=120, noise=0.0, turns=0.4, seed=7)
    return stratified_split(ds, seed=7)


@pytest.fixture(scope="module")
def pool():
    with PersistentPool(2) as shared:
        yield shared


#: Early stopping at 0.5 freezes some runs while their siblings train
#: on (compaction), and the search threshold of 0.95 is out of reach,
#: so all five candidates train.
SETTINGS = TrainingSettings(
    epochs=8, batch_size=8, runs=2, early_stop_threshold=0.5
)

PROTOCOL = ProtocolConfig(
    feature_sizes=(4,),
    n_experiments=1,
    runs_per_candidate=2,
    epochs=3,
    batch_size=32,
    n_points=90,
    max_candidates=3,
    threshold=1.01,
)


def _search(easy_split, settings, **mode):
    return grid_search(
        classical_search_space(4, neuron_options=(2, 4), max_layers=2),
        easy_split,
        threshold=0.95,
        settings=settings,
        max_candidates=5,
        seed=3,
        **mode,
    )


@pytest.mark.parametrize(
    "cls, name",
    sorted(MECHANICS, key=lambda k: (k[0].__name__, k[1])),
    ids=lambda k: getattr(k, "__name__", k),
)
def test_mechanics_field_keeps_the_outcome(
    cls, name, easy_split, pool, tmp_path
):
    value = MECHANICS[cls, name]
    if cls is TrainingSettings:
        reference = _search(easy_split, SETTINGS)
        changed = dataclasses.replace(SETTINGS, **{name: value})
        _assert_same_outcome(_search(easy_split, changed), reference)
        _assert_same_outcome(
            _search(easy_split, changed, pool=pool), reference
        )
        return
    reference = run_protocol("classical", PROTOCOL)
    if name == "journal":
        value = str(tmp_path / value)
    changed = run_protocol("classical", PROTOCOL.with_(**{name: value}))
    for ref_level, level in zip(reference.levels, changed.levels):
        for expected, got in zip(ref_level.outcomes, level.outcomes):
            _assert_same_outcome(got, expected)


# -- the journal key ---------------------------------------------------------


def _literal_split():
    return DataSplit(
        x_train=np.array([[0.0, 0.5], [1.0, -0.5], [0.25, 0.75]]),
        y_train=np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]]),
        x_val=np.array([[0.5, 0.5]]),
        y_val=np.array([[0.0, 1.0]]),
        train_labels=np.array([0, 1, 0]),
        val_labels=np.array([1]),
    )


RANKED = [
    ClassicalSpec(n_features=2, hidden=(2,)),
    HybridSpec(n_features=2, n_qubits=3, n_layers=1, ansatz="sel"),
]
KEYED = TrainingSettings(
    epochs=3,
    batch_size=2,
    learning_rate=0.01,
    runs=2,
    early_stop_threshold=0.9,
    backend="numpy",
)


def _key(settings):
    return search_key(
        RANKED, _literal_split(), 0.9, settings, get_convention("paper"), 7
    )


@pytest.mark.parametrize(
    "settings, digest",
    [
        (
            KEYED,
            "7a44bdd0b4f4283ab5d26eceef446000700b426e3f98941b2a0ccfb52f75f934",
        ),
        (
            TrainingSettings(backend="numpy"),
            "5f941581a43b9907a903ff8c8e94030d9e45b858dd61523cda6d120eff6c497c",
        ),
    ],
    ids=["tiny", "defaults"],
)
def test_search_key_is_stable(settings, digest):
    """Journals written by earlier releases keep resuming."""
    assert _key(settings) == digest


@pytest.mark.parametrize("name", sorted(_mechanics(TrainingSettings)))
def test_mechanics_fields_do_not_key_journals(name):
    value = MECHANICS[TrainingSettings, name]
    assert _key(dataclasses.replace(KEYED, **{name: value})) == _key(KEYED)


#: One changed value per result-affecting training field but the
#: backend (the only one NumPy can run here).
RESULT_VALUES = {
    "epochs": 4,
    "batch_size": 3,
    "learning_rate": 0.02,
    "runs": 3,
    "early_stop_threshold": None,
}


def test_result_values_cover_every_result_field():
    assert set(RESULT_VALUES) == _affecting(TrainingSettings) - {"backend"}


@pytest.mark.parametrize("name", sorted(RESULT_VALUES))
def test_result_fields_key_journals(name):
    changed = dataclasses.replace(KEYED, **{name: RESULT_VALUES[name]})
    assert _key(changed) != _key(KEYED)


# -- the result-cache filename -------------------------------------------------

#: The smoke-profile cache name earlier releases gave each override.
CACHE_NAMES = {
    "feature_sizes": ((10,), "smoke_feature_sizes-(10,)"),
    "n_experiments": (2, "smoke_n_experiments-2"),
    "runs_per_candidate": (3, "smoke_runs_per_candidate-3"),
    "threshold": (0.5, "smoke_threshold-0.5"),
    "epochs": (7, "smoke_epochs-7"),
    "batch_size": (16, "smoke_batch_size-16"),
    "learning_rate": (0.01, "smoke_learning_rate-0.01"),
    "n_points": (90, "smoke_n_points-90"),
    "val_fraction": (0.25, "smoke_val_fraction-0.25"),
    "early_stop": (False, "smoke_early_stop-False"),
    "max_candidates": (2, "smoke_max_candidates-2"),
    "convention": ("first_principles", "smoke_convention-first_principles"),
    "dataset_seed": (1, "smoke_dataset_seed-1"),
    "base_seed": (2, "smoke_base_seed-2"),
    "workers": (3, "smoke"),
    "max_retries": (0, "smoke"),
    "journal": ("ckpt.jsonl", "smoke"),
    "memory_budget": (1e9, "smoke"),
}


def test_cache_name_table_covers_every_field_but_backend():
    fields = {f.name for f in dataclasses.fields(ProtocolConfig)}
    assert set(CACHE_NAMES) == fields - {"backend"}


@pytest.mark.parametrize("name", sorted(CACHE_NAMES))
def test_cache_names_are_unchanged(name):
    value, expected = CACHE_NAMES[name]
    assert cache_name("smoke", **{name: value}) == expected


def test_cache_name_joins_overrides_in_field_order():
    assert (
        cache_name("smoke", runs_per_candidate=3, epochs=7, workers=2)
        == "smoke_epochs-7_runs_per_candidate-3"
    )
    assert cache_name("smoke") == "smoke"


def test_numpy_runs_share_the_reference_name(monkeypatch):
    """Whatever selects it, a run that resolves to NumPy is the
    reference run."""
    monkeypatch.setenv("REPRO_BACKEND", "numpy")
    assert cache_name("smoke") == "smoke"
    assert cache_name("smoke", backend="numpy") == "smoke"


# -- the legacy backend setting ----------------------------------------------


@pytest.mark.parametrize("cls", CONFIGS, ids=lambda c: c.__name__)
@pytest.mark.parametrize(
    "name", ["vectorized_runs", "stacked_candidates", "connect"]
)
def test_execution_shape_fields_are_gone(cls, name):
    """Every search trains stacked sweeps through the OOM ladder, and a
    coordinator reaches a search only as ``pool``; the fields that
    selected older execution shapes or a transport are unknown, to the
    configs and to :func:`grid_search` alike."""
    with pytest.raises(TypeError, match=name):
        cls(**{name: False})
    with pytest.raises(TypeError, match=name):
        grid_search(RANKED, _literal_split(), **{name: "127.0.0.1:7171"})


@pytest.mark.parametrize("cls", CONFIGS, ids=lambda c: c.__name__)
def test_only_numpy_is_a_backend(cls):
    assert cls(backend="numpy").backend == "numpy"
    with pytest.raises(ConfigurationError, match="backend"):
        cls(backend="torch")


def test_backend_env_var_forks_nothing(monkeypatch):
    """Nothing reads ``REPRO_BACKEND``: it forks neither a cache name
    nor a journal key."""
    monkeypatch.delenv("REPRO_BACKEND", raising=False)
    unset = _key(KEYED)
    monkeypatch.setenv("REPRO_BACKEND", "torch")
    assert cache_name("smoke") == "smoke"
    assert _key(KEYED) == unset


@pytest.mark.parametrize("cls", CONFIGS, ids=lambda c: c.__name__)
@pytest.mark.parametrize("name", ["cupy", "jax", "NumPy", "", "cpu"])
def test_unknown_backends_are_rejected(cls, name):
    with pytest.raises(ConfigurationError, match="backend"):
        cls(backend=name)


@pytest.mark.parametrize("cls", CONFIGS, ids=lambda c: c.__name__)
def test_replace_checks_the_backend_too(cls):
    with pytest.raises(ConfigurationError, match="backend"):
        dataclasses.replace(cls(), backend="torch")


def test_protocol_config_threads_backend_into_settings():
    assert ProtocolConfig().training_settings().backend is None
    settings = ProtocolConfig(backend="numpy").training_settings()
    assert settings.backend == "numpy"


def test_unset_and_numpy_backends_share_a_journal_key():
    assert _key(dataclasses.replace(KEYED, backend=None)) == _key(KEYED)


def test_explicit_numpy_run_is_the_cached_reference(
    tmp_path, micro_profile, monkeypatch
):
    """A ``backend="numpy"`` run writes the plain cache file, and the
    default run is served from it without recomputing."""
    import repro.experiments.runner as runner_mod

    explicit = runner_mod.run_family_cached(
        "classical", micro_profile, cache_dir=tmp_path, backend="numpy"
    )
    assert [p.name for p in tmp_path.glob("*.json")] == [
        "classical_micro.json"
    ]

    def no_rerun(*args, **kwargs):
        raise AssertionError("a cached result was recomputed")

    monkeypatch.setattr(runner_mod, "run_family", no_rerun)
    default = runner_mod.run_family_cached(
        "classical", micro_profile, cache_dir=tmp_path
    )

    def accuracies(result):
        return [
            c.val_accuracies
            for level in result.levels
            for outcome in level.outcomes
            for c in outcome.evaluated
        ]

    assert accuracies(default) == accuracies(explicit)


def test_pool_takes_no_backend():
    with pytest.raises(TypeError):
        PersistentPool(1, backend="numpy")
    with PersistentPool(1) as pool:
        assert "backend" not in pool.stats()
