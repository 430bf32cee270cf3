"""Numeric helpers for the one network engine in `backbone.py`.

The sigmoid, the Glorot draw, the TrainConfig and momentum-SGD loop that
train both the speaker network and the detector through `backbone.fit`,
and the central-difference gradient checker that tests both.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MAX_CHECK_PARAMETERS = 5000


def glorot_uniform(rng: np.random.Generator, shape, fan_in: int, fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def sigmoid(x: np.ndarray) -> np.ndarray:
    # in x's float dtype; split by sign so exp never overflows, and its underflow to 0 is correct
    out = np.empty_like(x, dtype=np.result_type(x, np.float32))
    pos = x >= 0
    with np.errstate(under="ignore"):
        out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
        ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


@dataclass(frozen=True)
class TrainConfig:
    """A config section plus the seed, and the pipeline's SGD settings; the defaults are the backbone's."""

    epochs: int
    seed: int
    lr: float = 0.01
    momentum: float = 0.9
    batch_size: int = 32
    decay: float = 0.0

    def __post_init__(self):
        if self.lr < 0 or self.decay < 0:
            raise ValueError("learning rate and decay must be non-negative")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must lie in [0, 1)")
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if self.epochs < 0:
            raise ValueError("epochs must be non-negative")


def momentum_sgd(params: dict, loss_and_grads, n: int, rng: np.random.Generator, config: TrainConfig):
    """Train params in place; returns the per-epoch mean losses.

    Each of config.epochs epochs draws one permutation of the n rows from
    rng and walks it in batches; loss_and_grads(row indexes) returns
    (mean loss, grads keyed like params), fresh arrays that the update
    overwrites. The step size decays per global step as
    lr / (1 + decay * t); decay 0 keeps it at lr exactly.
    """
    velocity = {k: np.zeros_like(v) for k, v in params.items()}
    step = 0
    epoch_losses = []
    for _ in range(config.epochs):
        order = rng.permutation(n)
        total = 0.0
        for start in range(0, n, config.batch_size):
            take = order[start : start + config.batch_size]
            loss, grads = loss_and_grads(take)
            lr_t = config.lr / (1.0 + config.decay * step)
            for key, param in params.items():
                # v = momentum * v - lr_t * g; p = p + v, in the same order, in place
                v, g = velocity[key], grads[key]
                v *= config.momentum
                g *= lr_t
                v -= g
                param += v
            step += 1
            total += loss * take.size
        epoch_losses.append(total / n)
    return epoch_losses


def central_difference_check(params: dict, loss, grads, eps: float = 1e-3) -> float:
    """Max relative error between grads(params) and central differences of loss(params).

    Both callables read the float64 tensors in params, which are nudged
    in place and restored. Only meaningful on small nets; refuses above
    MAX_CHECK_PARAMETERS parameters.
    """
    n_params = sum(int(t.size) for t in params.values())
    if n_params > MAX_CHECK_PARAMETERS:
        raise ValueError(f"gradient check limited to {MAX_CHECK_PARAMETERS} parameters, got {n_params}")
    analytic = grads(params)
    worst = 0.0
    for name, tensor in params.items():
        numeric = np.zeros_like(tensor)
        flat = tensor.ravel()
        num_flat = numeric.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            up = loss(params)
            flat[i] = orig - eps
            down = loss(params)
            flat[i] = orig
            num_flat[i] = (up - down) / (2.0 * eps)
        worst = max(worst, max_relative_error(analytic[name], numeric))
    return worst


def max_relative_error(analytic: np.ndarray, numeric: np.ndarray, floor: float = 1e-2) -> float:
    """Element-wise |a-n| / max(|a|, |n|, floor), maximized.

    The floor keeps near-zero gradient components from dominating via
    finite-difference noise; real backprop bugs show up on the large
    components regardless.
    """
    a = np.asarray(analytic, dtype=np.float64).ravel()
    n = np.asarray(numeric, dtype=np.float64).ravel()
    denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), floor)
    if a.size == 0:
        return 0.0
    return float(np.max(np.abs(a - n) / denom))
