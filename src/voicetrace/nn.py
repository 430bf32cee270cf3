"""Numeric helpers for the one network engine in `backbone.py`.

Activations, Glorot init, the momentum-SGD loop that trains both the
speaker network and the detector, and the central-difference gradient
checker that tests both.
"""

from __future__ import annotations

import numpy as np

MAX_CHECK_PARAMETERS = 5000


def glorot_uniform(rng: np.random.Generator, shape, fan_in: int, fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def sigmoid(x: np.ndarray) -> np.ndarray:
    # split by sign to stay overflow-free
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def momentum_sgd(params: dict, loss_and_grads, n: int, rng: np.random.Generator, *,
                 lr: float, momentum: float, epochs: int, batch_size: int, decay: float = 0.0):
    """Train params in place; returns the per-epoch mean losses.

    Each epoch draws one permutation of the n rows from rng and walks it
    in batches; loss_and_grads(row indexes) returns (mean loss, grads
    keyed like params). The step size decays per global step as
    lr / (1 + decay * t); decay 0 keeps it at lr exactly.
    """
    velocity = {k: np.zeros_like(v) for k, v in params.items()}
    step = 0
    epoch_losses = []
    for _ in range(epochs):
        order = rng.permutation(n)
        total = 0.0
        for start in range(0, n, batch_size):
            take = order[start : start + batch_size]
            loss, grads = loss_and_grads(take)
            lr_t = lr / (1.0 + decay * step)
            for key in params:
                velocity[key] = momentum * velocity[key] - lr_t * grads[key]
                params[key] = params[key] + velocity[key]
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
