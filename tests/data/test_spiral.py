"""Unit tests for the spiral dataset generator."""

import hashlib

import numpy as np
import pytest

from repro.config import noise_for_features
from repro.data import DERIVED_FEATURE_KINDS, make_spiral
from repro.exceptions import ConfigurationError


class TestBasicProperties:
    def test_shapes_and_counts(self):
        ds = make_spiral(10, n_points=300)
        assert ds.features.shape == (300, 10)
        assert ds.labels.shape == (300,)
        assert ds.n_points == 300
        assert ds.n_features == 10

    def test_class_balance(self):
        ds = make_spiral(5, n_points=300, n_classes=3)
        assert ds.class_counts().tolist() == [100, 100, 100]

    def test_uneven_points_distributed(self):
        ds = make_spiral(4, n_points=301, n_classes=3)
        counts = ds.class_counts()
        assert counts.sum() == 301
        assert counts.max() - counts.min() <= 1

    def test_standardization(self):
        ds = make_spiral(20, n_points=600)
        assert np.allclose(ds.features.mean(axis=0), 0.0, atol=1e-9)
        assert np.allclose(ds.features.std(axis=0), 1.0, atol=1e-9)

    def test_one_hot(self):
        ds = make_spiral(4, n_points=90)
        onehot = ds.one_hot()
        assert onehot.shape == (90, 3)
        assert np.allclose(onehot.sum(axis=1), 1.0)
        assert np.array_equal(np.argmax(onehot, axis=1), ds.labels)

    def test_feature_recipe_recorded(self):
        ds = make_spiral(8, n_points=60)
        assert len(ds.feature_recipe) == 8
        assert ds.feature_recipe[:2] == ("spiral_x", "spiral_y")
        assert all(
            k in DERIVED_FEATURE_KINDS for k in ds.feature_recipe[2:]
        )


class TestDeterminism:
    def test_same_seed_same_data(self):
        a = make_spiral(15, n_points=200, seed=9)
        b = make_spiral(15, n_points=200, seed=9)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)

    def test_different_seed_different_data(self):
        a = make_spiral(15, n_points=200, seed=1)
        b = make_spiral(15, n_points=200, seed=2)
        assert not np.array_equal(a.features, b.features)


#: SHA-256 over seeds 0-2 of each level's feature bytes, labels and
#: recipe, taken from the column-stacking generator this one replaced.
GOLDEN_DIGESTS = {
    2: "f0d7fd5c608bdb61fe15346d2009a5003059ad3494d93c7f4323a677910415ac",
    3: "87c61aa4d5ed292aa5c3fec47ab15ec5bda5e47fbdaac538b32296640d7b11e6",
    10: "58c193d96429efb52c899773986569fee674b590a639b559902868916d67e3ac",
    40: "be6b234e4453ab03f384835b0268da1fff06ade830f8b8c154de9b8f1cf891e1",
    80: "5656e8285d3ba33d55a16c954db9da2334fcce398e8852643f6cff686abfe943",
    110: "f51dbd83b79570641594987062ef914e51764ddbc2997cf7d8a319b1fe44f389",
}


class TestGolden:
    """Every derived feature reads the columns before it, so a change in
    how the matrix is assembled can move results without failing any
    statistical check; these digests pin the bits."""

    @pytest.mark.parametrize("n_features", sorted(GOLDEN_DIGESTS))
    def test_bits_match_golden(self, n_features):
        h = hashlib.sha256()
        for seed in (0, 1, 2):
            ds = make_spiral(n_features, seed=seed)
            h.update(
                repr(
                    (
                        ds.features.shape,
                        str(ds.features.dtype),
                        str(ds.labels.dtype),
                    )
                ).encode()
            )
            h.update(np.ascontiguousarray(ds.features).tobytes())
            h.update(np.ascontiguousarray(ds.labels).tobytes())
            h.update(repr(ds.feature_recipe).encode())
        assert h.hexdigest() == GOLDEN_DIGESTS[n_features]


class TestNoiseSchedule:
    def test_paper_formula_default(self):
        assert make_spiral(10, n_points=60).noise == pytest.approx(0.13)
        assert make_spiral(110, n_points=60).noise == pytest.approx(0.43)
        assert noise_for_features(50) == pytest.approx(0.25)

    def test_noise_override(self):
        assert make_spiral(10, n_points=60, noise=0.05).noise == 0.05

    def test_spiral_arms_separate_at_low_noise(self):
        """With zero noise the two base features determine the class via
        a clean spiral: a 1-nearest-neighbour rule on many points should
        be nearly perfect."""
        ds = make_spiral(2, n_points=300, noise=0.0)
        x = ds.features
        correct = 0
        for i in range(0, 300, 10):
            d = np.sum((x - x[i]) ** 2, axis=1)
            d[i] = np.inf
            correct += ds.labels[np.argmin(d)] == ds.labels[i]
        assert correct / 30 > 0.9


class TestValidation:
    def test_bad_arguments(self):
        with pytest.raises(ConfigurationError):
            make_spiral(1)
        with pytest.raises(ConfigurationError):
            make_spiral(5, n_points=2, n_classes=3)
        with pytest.raises(ConfigurationError):
            make_spiral(5, n_classes=1)
        with pytest.raises(ConfigurationError):
            make_spiral(5, noise=-0.1)
        with pytest.raises(ConfigurationError):
            make_spiral(5, angle_noise_fraction=1.5)

    def test_dataset_is_frozen(self):
        ds = make_spiral(4, n_points=60)
        with pytest.raises(AttributeError):
            ds.noise = 1.0
