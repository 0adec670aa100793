"""Layer-adaptive momentum SGD (LARS-style trust ratio per weight matrix).

Each weight matrix w with gradient g is scaled by a local rate

    local_lr = trust_coeff * |w| / (|g| + weight_decay * |w| + 1e-12)

and updated through a momentum buffer:

    v <- momentum * v + base_lr * local_lr * (g + weight_decay * w)
    w <- w - v

One-dimensional parameters (biases) skip the trust ratio and use ``base_lr``
directly. There is no learning-rate schedule; ``base_lr`` stays fixed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import numpy as np

from .errors import ContractError, NumericError, ShapeError

_EPS = 1e-12


@dataclass
class OptimizerState:
    """Hyperparameters plus per-parameter momentum buffers."""

    base_lr: float = 0.05
    momentum: float = 0.9
    trust_coeff: float = 0.001
    weight_decay: float = 0.0
    velocities: dict[str, np.ndarray] = field(default_factory=dict)

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


def lars_step(params: dict[str, np.ndarray], grads: dict[str, np.ndarray],
              state: OptimizerState) -> None:
    """Update every parameter in place; momentum buffers live in ``state``."""
    for name, w in params.items():
        if name not in grads:
            raise ContractError(f"missing gradient for parameter '{name}'")
        g = grads[name]
        if g.shape != w.shape:
            raise ShapeError(
                f"gradient for '{name}' has shape {g.shape}, parameter {w.shape}"
            )
        if not np.all(np.isfinite(g)):
            raise NumericError(f"non-finite gradient for parameter '{name}'")
        step = g + state.weight_decay * w if state.weight_decay else g
        if w.ndim > 1:
            w_norm = float(np.linalg.norm(w))
            with np.errstate(over="ignore"):
                g_norm = float(np.linalg.norm(g))
            if not np.isfinite(g_norm):  # finite g whose squares overflow
                m = float(np.max(np.abs(g)))
                g_norm = m * float(np.linalg.norm(g / m))
            local = state.trust_coeff * w_norm / (
                g_norm + state.weight_decay * w_norm + _EPS
            )
            eff_lr = state.base_lr * local
        else:
            eff_lr = state.base_lr
        v = state.velocities.get(name)
        if v is None:
            v = np.zeros_like(w)
            state.velocities[name] = v
        v *= state.momentum
        v += eff_lr * step
        w -= v
