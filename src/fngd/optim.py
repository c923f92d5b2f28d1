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
    "LrSchedule",
    "schedule_lr",
    "make_lr_schedule",
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


@dataclass(frozen=True)
class LrSchedule:
    """Step decay: lr = base * decay^(milestones passed)."""

    base_lr: float
    milestones: tuple[int, ...] = ()
    decay: float = 0.1

    def __post_init__(self):
        if self.base_lr <= 0.0:
            raise ValueError(f"base_lr must be positive, got {self.base_lr}")
        if not 0.0 < self.decay <= 1.0:
            raise ValueError(f"decay must be in (0, 1], got {self.decay}")
        if any(m < 0 for m in self.milestones):
            raise ValueError(f"milestones must be non-negative: {self.milestones}")
        if list(self.milestones) != sorted(self.milestones):
            raise ValueError(f"milestones must be ascending: {self.milestones}")


def schedule_lr(sched: LrSchedule, epoch: int) -> float:
    passed = sum(1 for m in sched.milestones if epoch >= m)
    return sched.base_lr * sched.decay ** passed


def make_lr_schedule(base_lr: float, epochs: int,
                     fractions: tuple[float, ...] = (0.5, 0.75),
                     decay: float = 0.1) -> LrSchedule:
    """Milestones at fixed fractions of the run (default 50% and 75%).

    No milestone falls on epoch 0, so the first epoch always runs at
    base_lr, however short the run.
    """
    stones = tuple(max(1, int(f * epochs)) for f in fractions)
    return LrSchedule(base_lr, stones, decay)
