"""Minimal Keras-style neural-network framework.

Implements exactly what the paper's classical and hybrid models need:
``Dense``/``ReLU``/``Softmax`` layers, categorical cross-entropy, Adam,
and a training loop recording max-over-epochs train/validation accuracy.
"""

from . import initializers
from .layers import (
    Dense,
    Dropout,
    Flatten,
    Layer,
    ReLU,
    Sigmoid,
    Softmax,
    Tanh,
)
from .losses import CrossEntropy, Loss, MeanSquaredError, SoftmaxCrossEntropy
from .metrics import accuracy, confusion_matrix
from .model import Sequential
from .optimizers import SGD, Adam, Optimizer, StackedAdam
from .stacked import (
    GroupedStack,
    stack_candidates,
)
from .training import (
    History,
    iterate_minibatches,
    train_model,
    train_stack,
)

__all__ = [
    "initializers",
    "Layer",
    "Dense",
    "ReLU",
    "Softmax",
    "Flatten",
    "Tanh",
    "Sigmoid",
    "Dropout",
    "Loss",
    "CrossEntropy",
    "SoftmaxCrossEntropy",
    "MeanSquaredError",
    "accuracy",
    "confusion_matrix",
    "Sequential",
    "Optimizer",
    "SGD",
    "Adam",
    "StackedAdam",
    "GroupedStack",
    "stack_candidates",
    "History",
    "train_model",
    "train_stack",
    "iterate_minibatches",
]
