"""Synthetic spiral dataset with a problem-complexity dial.

Reimplements the paper's generator (section III-A):

* 1500 points, 3 classes, each class one arm of a planar spiral
  (features 0 and 1, Fig. 4a);
* complexity is raised by adding derived features — "subtle variations
  through non-linear transformations of the existing features";
* noise scales with the feature count:
  ``noise = 0.1 + 0.003 * num_features`` — applied in full as additive
  noise on every derived feature and, attenuated by
  ``angle_noise_fraction``, as angular jitter on the spiral arms.  The
  attenuation keeps the Bayes-optimal accuracy above the paper's 90 %
  threshold at every complexity level (the arms must stay separable)
  while the growing, noisier feature pool still makes the task harder
  (Fig. 4b);
* features are standardized to zero mean / unit variance.

The generator is fully deterministic given its seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..config import N_CLASSES, N_POINTS, noise_for_features
from ..exceptions import ConfigurationError

__all__ = ["SpiralDataset", "make_spiral", "DERIVED_FEATURE_KINDS"]

#: Kinds of non-linear derived features, drawn uniformly per new feature.
DERIVED_FEATURE_KINDS = ("sin", "cos", "product", "square", "tanh", "radial")


@dataclass(frozen=True)
class SpiralDataset:
    """An immutable spiral dataset instance."""

    features: np.ndarray  #: shape (n_points, n_features), standardized
    labels: np.ndarray  #: shape (n_points,), int class ids
    n_classes: int
    noise: float
    turns: float
    seed: int
    feature_recipe: tuple[str, ...] = field(default=())

    @property
    def n_points(self) -> int:
        return int(self.features.shape[0])

    @property
    def n_features(self) -> int:
        return int(self.features.shape[1])

    def one_hot(self) -> np.ndarray:
        """Labels as one-hot rows, shape ``(n_points, n_classes)``."""
        return np.eye(self.n_classes, dtype=np.float64)[self.labels]

    def class_counts(self) -> np.ndarray:
        """Points per class."""
        return np.bincount(self.labels, minlength=self.n_classes)


def _base_spiral(
    n_points: int,
    n_classes: int,
    noise: float,
    turns: float,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Planar spiral arms: features 0 and 1, plus labels."""
    per_class = n_points // n_classes
    remainder = n_points - per_class * n_classes
    xs, ys = [], []
    for c in range(n_classes):
        m = per_class + (1 if c < remainder else 0)
        radius = np.linspace(0.05, 1.0, m)
        angle = (
            radius * turns * 2.0 * np.pi
            + 2.0 * np.pi * c / n_classes
            + rng.normal(0.0, noise, size=m)
        )
        xs.append(
            np.column_stack([radius * np.sin(angle), radius * np.cos(angle)])
        )
        ys.append(np.full(m, c, dtype=np.int64))
    x = np.vstack(xs)
    y = np.concatenate(ys)
    order = rng.permutation(n_points)
    return x[order], y[order]


def _pick_source(n_cols: int, rng: np.random.Generator) -> int:
    """Pick a source column, biased toward the two base coordinates.

    Derived features are "subtle variations" of the signal (paper
    wording): most draw directly on the clean spiral coordinates so the
    growing feature pool stays informative (each new feature is a noisy
    non-linear *view* of the signal rather than compounded noise), which
    keeps the 90 % accuracy threshold reachable at every complexity level.
    """
    if n_cols <= 2 or rng.uniform() < 0.9:
        return int(rng.integers(min(2, n_cols)))
    return int(rng.integers(n_cols))


def _derived_feature(
    kind: str,
    existing: np.ndarray,
    noise: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """One new non-linear feature computed from the existing columns."""
    n_cols = existing.shape[1]
    i = _pick_source(n_cols, rng)
    j = _pick_source(n_cols, rng)
    scale = rng.uniform(0.5, 2.0)
    phase = rng.uniform(0.0, 2.0 * np.pi)
    col_i, col_j = existing[:, i], existing[:, j]
    if kind == "sin":
        value = np.sin(scale * col_i + phase)
    elif kind == "cos":
        value = np.cos(scale * col_i + phase)
    elif kind == "product":
        value = col_i * col_j
    elif kind == "square":
        value = col_i**2
    elif kind == "tanh":
        value = np.tanh(scale * col_i)
    elif kind == "radial":
        value = np.sqrt(col_i**2 + col_j**2)
    else:  # pragma: no cover - guarded by caller
        raise ConfigurationError(f"unknown derived-feature kind {kind!r}")
    return value + rng.normal(0.0, noise, size=value.shape)


def make_spiral(
    n_features: int,
    n_points: int = N_POINTS,
    n_classes: int = N_CLASSES,
    noise: float | None = None,
    turns: float = 0.75,
    angle_noise_fraction: float = 0.15,
    seed: int = 0,
) -> SpiralDataset:
    """Generate the paper's spiral dataset at one complexity level.

    Parameters
    ----------
    n_features:
        The complexity level (the paper sweeps 10..110 in steps of 10).
    noise:
        Defaults to the paper's schedule
        ``0.1 + 0.003 * n_features``; pass a value to override.
    turns:
        How many full revolutions each arm makes.
    angle_noise_fraction:
        Fraction of ``noise`` applied as angular jitter to the arms
        (derived features always receive the full ``noise``).
    seed:
        Controls every random choice (jitter, derived-feature recipe).
    """
    if n_features < 2:
        raise ConfigurationError(
            f"the spiral needs >= 2 features, got {n_features}"
        )
    if n_points < n_classes:
        raise ConfigurationError(
            f"need at least one point per class ({n_classes}), got {n_points}"
        )
    if n_classes < 2:
        raise ConfigurationError(f"n_classes must be >= 2, got {n_classes}")
    if noise is None:
        noise = noise_for_features(n_features)
    if noise < 0:
        raise ConfigurationError(f"noise must be >= 0, got {noise}")
    if not 0.0 <= angle_noise_fraction <= 1.0:
        raise ConfigurationError(
            f"angle_noise_fraction must be in [0, 1], "
            f"got {angle_noise_fraction}"
        )

    rng = np.random.default_rng(seed)
    base, labels = _base_spiral(
        n_points, n_classes, angle_noise_fraction * noise, turns, rng
    )

    # One preallocated matrix: each derived column reads the columns
    # before it through a view, so the loop is linear in n_features.
    features = np.empty((n_points, n_features))
    features[:, :2] = base
    recipe: list[str] = ["spiral_x", "spiral_y"]
    kinds = np.asarray(DERIVED_FEATURE_KINDS)
    for k in range(2, n_features):
        kind = str(rng.choice(kinds))
        features[:, k] = _derived_feature(kind, features[:, :k], noise, rng)
        recipe.append(kind)

    mean = features.mean(axis=0)
    std = features.std(axis=0)
    std[std < 1e-12] = 1.0
    features = (features - mean) / std

    return SpiralDataset(
        features=features,
        labels=labels,
        n_classes=n_classes,
        noise=float(noise),
        turns=float(turns),
        seed=seed,
        feature_recipe=tuple(recipe),
    )
