"""First-order baselines, SGD and heavy-ball momentum, and the stepwise
learning-rate schedule that every optimizer runs under.

All steps mutate the parameter arrays in place.  Gradients arrive as a
dict keyed like Network.parameters(), so the same step functions drive
any stack of layers.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "sgd_step",
    "sgd_momentum_step",
    "lr_schedule",
]

# Heavy-ball coefficient of sgd_momentum.
MOMENTUM = 0.9
# The learning rate is multiplied by LR_DECAY at each of these fractions of
# the run.
MILESTONES = (0.5, 0.75)
LR_DECAY = 0.1


def sgd_step(params: dict[str, np.ndarray], grads: dict[str, np.ndarray],
             lr: float) -> None:
    """w <- w - lr g.  Each g is scaled by lr in place, so the gradients
    are consumed: after the call they hold the steps taken."""
    for name, g in grads.items():
        g *= lr
        params[name] -= g


def sgd_momentum_step(buffers: dict[str, np.ndarray], params: dict[str, np.ndarray],
                      grads: dict[str, np.ndarray], lr: float) -> None:
    """Heavy-ball update: v <- MOMENTUM v + g, w <- w - lr v.  buffers holds
    each parameter's v by name, starting empty; the first step sets v = g."""
    for name, g in grads.items():
        buf = buffers.get(name)
        buf = g.copy() if buf is None else MOMENTUM * buf + g
        buffers[name] = buf
        params[name] -= lr * buf


def lr_schedule(base_lr: float, epochs: int) -> list[float]:
    """Each epoch's learning rate under step decay: base_lr times
    LR_DECAY per milestone passed, with milestones at the MILESTONES
    fractions of the run.

    No milestone falls on epoch 0, so the first epoch always runs at
    base_lr, however short the run.
    """
    stones = [max(1, int(f * epochs)) for f in MILESTONES]
    return [base_lr * LR_DECAY ** sum(1 for m in stones if epoch >= m)
            for epoch in range(epochs)]
