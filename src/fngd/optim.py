"""The heavy-ball momentum baseline, and the stepwise learning-rate
schedule that every optimizer runs under.

The momentum step mutates the parameter arrays in place.  Gradients
arrive as a dict keyed like Network.parameters(), so the same step
drives any stack of layers.  Plain SGD needs no step function here:
nn.weight_gradients(net, fwd, lr) returns its weight steps already
scaled by lr.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

__all__ = [
    "sgd_momentum_step",
    "lr_schedule",
]

# Heavy-ball coefficient of sgd_momentum.
MOMENTUM = 0.9
# The learning rate is multiplied by LR_DECAY at each of these fractions of
# the run.
MILESTONES = (0.5, 0.75)
LR_DECAY = 0.1


def sgd_momentum_step(buffers: dict[str, np.ndarray], params: dict[str, np.ndarray],
                      grads: dict[str, np.ndarray], lr: float) -> None:
    """Heavy-ball update: v <- MOMENTUM v + g, w <- w - lr v.  buffers holds
    each parameter's v by name, starting empty; the first step sets v = g.
    Each v is updated in place, so a step makes one weight-sized
    temporary, lr v."""
    for name, g in grads.items():
        buf = buffers.get(name)
        if buf is None:
            buffers[name] = buf = g.copy()
        else:
            buf *= MOMENTUM
            buf += g
        params[name] -= lr * buf


def lr_schedule(base_lr: float, epochs: int) -> Iterator[float]:
    """Each epoch's learning rate under step decay, yielded as that epoch
    starts: base_lr times LR_DECAY per milestone passed, with milestones
    at the MILESTONES fractions of the run.  Nothing is built per epoch
    ahead of time, so any epoch count starts at once.

    No milestone falls on epoch 0, so the first epoch always runs at
    base_lr, however short the run.
    """
    stones = [max(1, int(f * epochs)) for f in MILESTONES]
    for epoch in range(epochs):
        yield base_lr * LR_DECAY ** sum(1 for m in stones if epoch >= m)
