"""Numeric helpers for the one network engine in `backbone.py`: the sigmoid,
the Glorot draw, and the TrainConfig under which `backbone.fit` trains both
the speaker network and the detector.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


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
