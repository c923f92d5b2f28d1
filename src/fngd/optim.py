"""First-order baselines, SGD and heavy-ball momentum, and the stepwise
learning-rate schedule.

All steps mutate the parameter arrays in place.  Gradients arrive as a
dict keyed like Network.parameters(), so the same step functions drive
any stack of layers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "sgd_step",
    "MomentumState",
    "sgd_momentum_step",
    "lr_schedule",
]


def sgd_step(params: dict[str, np.ndarray], grads: dict[str, np.ndarray],
             lr: float) -> None:
    for name, g in grads.items():
        params[name] -= lr * g


@dataclass
class MomentumState:
    beta: float = 0.9
    buffers: dict[str, np.ndarray] = field(default_factory=dict)


def sgd_momentum_step(state: MomentumState, params: dict[str, np.ndarray],
                      grads: dict[str, np.ndarray], lr: float) -> None:
    """Heavy-ball update: v <- beta v + g, w <- w - lr v."""
    for name, g in grads.items():
        buf = state.buffers.get(name)
        buf = g.copy() if buf is None else state.beta * buf + g
        state.buffers[name] = buf
        params[name] -= lr * buf


def lr_schedule(base_lr: float, epochs: int, fractions: tuple[float, ...],
                decay: float) -> list[float]:
    """Each epoch's learning rate under step decay: base_lr times decay
    per milestone passed, with milestones at the given fractions of the
    run.

    No milestone falls on epoch 0, so the first epoch always runs at
    base_lr, however short the run.
    """
    stones = [max(1, int(f * epochs)) for f in fractions]
    return [base_lr * decay ** sum(1 for m in stones if epoch >= m)
            for epoch in range(epochs)]
