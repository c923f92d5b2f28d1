"""Natural gradient descent reformulated as a weighted sum of per-sample
gradients, with the weights computed once and shared across later epochs."""

__version__ = "0.1.0"

from .core import (
    CoefficientTable,
    DampingRule,
    TableStateError,
    coefficients,
    damping_lambda,
    epoch_one_step,
    precondition,
    shared_step,
)
from .data import Dataset, batches, load_idx, synthetic_classification
from .nn import Network, backward, forward, loss_value, weight_gradients
from .persample import GramStats, build_u_conv, gram_conv, gram_dense

__all__ = [
    "CoefficientTable",
    "DampingRule",
    "Dataset",
    "GramStats",
    "Network",
    "TableStateError",
    "backward",
    "batches",
    "build_u_conv",
    "coefficients",
    "damping_lambda",
    "epoch_one_step",
    "forward",
    "gram_conv",
    "gram_dense",
    "load_idx",
    "loss_value",
    "precondition",
    "shared_step",
    "synthetic_classification",
    "weight_gradients",
]
