"""Baseline optimizers and the stepwise learning-rate schedule.

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
    "AdamWState",
    "adamw_step",
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


@dataclass
class AdamWState:
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 0.0
    step: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)


def adamw_step(state: AdamWState, params: dict[str, np.ndarray],
               grads: dict[str, np.ndarray], lr: float) -> None:
    """Adam with decoupled weight decay.

    Decay shrinks the weights directly (w -= lr * decay * w) before the
    adaptive step, so it never enters the moment estimates.
    """
    state.step += 1
    t = state.step
    for name, g in grads.items():
        p = params[name]
        if state.weight_decay:
            p -= lr * state.weight_decay * p
        m = state.m.get(name)
        v = state.v.get(name)
        m = (1 - state.beta1) * g if m is None else state.beta1 * m + (1 - state.beta1) * g
        v = (1 - state.beta2) * g * g if v is None else state.beta2 * v + (1 - state.beta2) * g * g
        state.m[name], state.v[name] = m, v
        mhat = m / (1 - state.beta1 ** t)
        vhat = v / (1 - state.beta2 ** t)
        p -= lr * mhat / (np.sqrt(vhat) + state.eps)


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
