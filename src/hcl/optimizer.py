"""Layer-adaptive momentum SGD (LARS-style trust ratio per weight matrix).

Each weight matrix w with gradient g is scaled by a local rate

    local_lr = trust_coeff * |w| / (|g| + weight_decay * |w| + 1e-12)

and updated through a momentum buffer:

    v <- momentum * v + base_lr * local_lr * (g + weight_decay * w)
    w <- w - v

One-dimensional parameters (biases) skip the trust ratio and use ``base_lr``
directly. There is no learning-rate schedule; ``base_lr`` stays fixed.

The parameters, the gradient and the momentum buffer are each one vector
laid out like ``ModelParams.flat``. A step takes the norms per weight matrix
over its slice, writes each matrix's effective rate over its slice of one
rate vector that holds ``base_lr`` everywhere else, and then updates the
whole model in three whole-buffer operations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, NumericError, ShapeError
from .model import ModelParams, first_nonfinite

_EPS = 1e-12


@dataclass
class OptimizerState:
    """Hyperparameters plus the momentum buffer, laid out like the
    parameter arena and allocated by the first step."""

    base_lr: float = 0.05
    momentum: float = 0.9
    trust_coeff: float = 0.001
    weight_decay: float = 0.0
    velocities: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.base_lr < 0 or self.trust_coeff <= 0:
            raise ContractError(
                f"need base_lr >= 0 and trust_coeff > 0, got "
                f"{self.base_lr} and {self.trust_coeff}"
            )
        if not 0.0 <= self.momentum < 1.0:
            raise ContractError(f"momentum must be in [0, 1), got {self.momentum}")
        if self.weight_decay < 0:
            raise ContractError(f"weight decay must be >= 0, got {self.weight_decay}")


def _norm(x: np.ndarray) -> float:
    """The 2-norm of a 1-D slice, bit-equal to ``np.linalg.norm``."""
    return math.sqrt(x.dot(x))


def lars_step(params: ModelParams, grad: np.ndarray,
              state: OptimizerState) -> None:
    """Update ``params.flat`` in place by the gradient ``grad``, a vector
    laid out like it; the momentum buffer lives in ``state``."""
    w = params.flat
    if grad.shape != w.shape:
        raise ShapeError(f"gradient has shape {grad.shape}, parameters {w.shape}")
    name = first_nonfinite(params, grad)
    if name is not None:
        raise NumericError(f"non-finite gradient for parameter '{name}'")
    v = state.velocities
    if v is None:
        v = state.velocities = np.zeros_like(w)
    elif v.shape != w.shape:
        raise ShapeError(f"velocity buffer has shape {v.shape}, parameters "
                         f"{w.shape}: it belongs to another model")
    decay = state.weight_decay
    step = grad + decay * w if decay else grad
    rates = np.full(w.size, state.base_lr)
    with np.errstate(over="ignore"):
        for stack in params.layout:
            for _, start, stop, _ in stack[0::2]:  # its weight matrices
                w_norm = _norm(w[start:stop])
                g = grad[start:stop]
                g_norm = _norm(g)
                if not math.isfinite(g_norm):  # finite g whose squares overflow
                    m = float(np.max(np.abs(g)))
                    g_norm = m * _norm(g / m)
                local = (state.trust_coeff * w_norm
                         / (g_norm + decay * w_norm + _EPS))
                rates[start:stop] = state.base_lr * local
    v *= state.momentum
    v += rates * step
    w -= v
