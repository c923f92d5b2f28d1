"""Natural gradient descent reformulated as a weighted sum of per-sample
gradients, with the weights computed once and shared across later epochs."""

__version__ = "0.1.0"

__all__ = ["__version__"]
