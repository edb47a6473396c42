"""Paper-level experimental constants.

Every number in this module is taken directly from the text of

    Kashif, Marchisio, Shafique, "Computational Advantage in Hybrid Quantum
    Neural Networks: Myth or Reality?", DAC 2025 (arXiv:2412.04991).

Keeping them in one place makes the provenance auditable and lets the
experiment drivers (``repro.experiments``) build scaled-down *profiles*
(smoke / reduced / full) by overriding a few fields rather than redefining
the protocol.
"""

from __future__ import annotations

# --------------------------------------------------------------------------
# Dataset (paper section III-A)
# --------------------------------------------------------------------------

#: Total number of points in the spiral dataset.
N_POINTS = 1500

#: Number of spiral arms / target classes.
N_CLASSES = 3

#: Feature sizes ("complexity levels") studied by the paper: 10..110 step 10.
FEATURE_SIZES = tuple(range(10, 120, 10))

#: Noise applied to the dataset as a function of the feature count
#: (paper: ``noise = 0.1 + 0.003 * num_features``).
NOISE_INTERCEPT = 0.1
NOISE_SLOPE = 0.003


def noise_for_features(num_features: int) -> float:
    """Return the paper's noise level for a given feature count.

    >>> round(noise_for_features(10), 3)
    0.13
    >>> round(noise_for_features(110), 3)
    0.43
    """
    return NOISE_INTERCEPT + NOISE_SLOPE * num_features


#: Fraction of points held out for validation.  The paper plots train and
#: validation accuracies; an 80/20 split is the conventional choice and the
#: one we adopt (documented substitution, the paper does not state a ratio).
VALIDATION_FRACTION = 0.2

# --------------------------------------------------------------------------
# Model search spaces (paper sections III-B and III-C)
# --------------------------------------------------------------------------

#: Hidden-layer width options for the classical grid search.
CLASSICAL_NEURON_OPTIONS = (2, 4, 6, 8, 10)

#: Maximum number of hidden layers in the classical grid search.
CLASSICAL_MAX_LAYERS = 3

#: Qubit counts explored for hybrid models.
HYBRID_QUBIT_OPTIONS = (3, 4, 5)

#: Quantum-layer depths explored for hybrid models.
HYBRID_DEPTH_OPTIONS = tuple(range(1, 11))

# --------------------------------------------------------------------------
# Training protocol (paper sections III-F and IV)
# --------------------------------------------------------------------------

#: Accuracy that both train and validation must reach (averaged over runs).
ACCURACY_THRESHOLD = 0.90

#: Adam learning rate.
LEARNING_RATE = 0.001

#: Mini-batch size.
BATCH_SIZE = 8

#: Training epochs per run.
EPOCHS = 100

#: Independent runs whose max-accuracy is averaged per candidate model.
RUNS_PER_CANDIDATE = 5

#: Number of times the whole search is repeated per complexity level.
N_EXPERIMENTS = 5

# --------------------------------------------------------------------------
# Reporting (paper section IV-E)
# --------------------------------------------------------------------------

#: Feature sizes for which the paper reports parameter counts and Table I.
REPORTED_FEATURE_SIZES = (10, 40, 80, 110)

# --------------------------------------------------------------------------
# Runtime (not from the paper)
# --------------------------------------------------------------------------

#: Fraction of the probed free memory used as the implicit search-wide
#: memory budget when ``--memory-budget`` (``memory_budget``) is unset.
#: A runtime knob, not a paper constant: it bounds how much of the host
#: the fused sweeps may claim concurrently; see
#: ``repro.runtime.memory``.
MEMORY_BUDGET_FRACTION = 0.5

#: TCP transport defaults for local and remote agents
#: (``repro.runtime.cluster_tcp``; runtime knobs, not paper constants).  An agent sends an application-level
#: heartbeat frame every ``TCP_HEARTBEAT_S``; the coordinator expires a
#: chunk lease after seeing no frame from its holder for
#: ``TCP_LEASE_TIMEOUT_S`` on its own monotonic clock (remote wall
#: clocks are never compared, so host clock skew is irrelevant).  A
#: frame that *started* arriving must keep moving: any single socket
#: read or write stalling past ``TCP_FRAME_TIMEOUT_S`` marks the
#: connection dead, which is how a mid-frame partition is told apart
#: from an agent that is merely training.  With no live agent for ``TCP_AGENT_GRACE_S`` the
#: coordinator finishes in-process; a disconnected agent redials with
#: decorrelated-jitter backoff (``repro.runtime.backoff``) capped at
#: ``TCP_RECONNECT_CAP_S`` and gives up for good after
#: ``TCP_RECONNECT_TIMEOUT_S`` without a successful connection.
TCP_HEARTBEAT_S = 5.0
TCP_LEASE_TIMEOUT_S = 60.0
TCP_AGENT_GRACE_S = 30.0
TCP_FRAME_TIMEOUT_S = 30.0
TCP_RECONNECT_CAP_S = 5.0
TCP_RECONNECT_TIMEOUT_S = 60.0
