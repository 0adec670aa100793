"""Dense float64 linear algebra helpers and the finite-difference oracle.

Every array crossing a public boundary in this package is a 2-D C-ordered
float64 ``numpy.ndarray`` (aliased ``Matrix`` below); randomness always flows
through a seeded ``numpy.random.Generator`` (aliased ``Rng``), which yields
the same stream for the same seed on every platform.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import ContractError, ShapeError

Matrix = np.ndarray
Rng = np.random.Generator

# Norms below this are treated as zero when normalizing.
ZERO_NORM_EPS = 1e-12


def make_rng(seed: int) -> Rng:
    """Return a deterministic generator for ``seed`` (PCG64 stream)."""
    return np.random.Generator(np.random.PCG64(int(seed)))


def as_matrix(a, name: str = "array") -> Matrix:
    """Coerce ``a`` to a 2-D float64 array, or raise ShapeError."""
    m = np.asarray(a, dtype=np.float64)
    if m.ndim != 2:
        raise ShapeError(f"{name} must be 2-D, got shape {m.shape}")
    return m


def unit_rows(m: Matrix) -> Matrix:
    """Row-normalize ``m``; rows with (near-)zero norm come back as zeros."""
    m = as_matrix(m)
    norms = np.linalg.norm(m, axis=1, keepdims=True)
    safe = np.where(norms < ZERO_NORM_EPS, 1.0, norms)
    out = m / safe
    out[norms.ravel() < ZERO_NORM_EPS] = 0.0
    return out


def row_logsumexp(logits: Matrix) -> np.ndarray:
    """Row-wise logsumexp of a 2-D logit array; -inf entries drop out."""
    m = np.max(logits, axis=1, keepdims=True)
    m = np.where(np.isfinite(m), m, 0.0)
    e = np.subtract(logits, m)
    np.exp(e, out=e)
    return (m + np.log(np.sum(e, axis=1, keepdims=True))).ravel()


def finite_diff_grad(fn: Callable[[Matrix], float], x: Matrix, eps: float = 1e-5) -> Matrix:
    """Central-difference gradient of a scalar function at ``x``.

    This is the reference oracle the analytic gradients are tested against,
    so it deliberately loops entry by entry and never calls back into them.
    """
    x = np.array(x, dtype=np.float64)
    if eps <= 0:
        raise ContractError(f"finite-difference step must be positive, got {eps}")
    grad = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        orig = x[idx]
        x[idx] = orig + eps
        f_plus = float(fn(x))
        x[idx] = orig - eps
        f_minus = float(fn(x))
        x[idx] = orig
        grad[idx] = (f_plus - f_minus) / (2.0 * eps)
        it.iternext()
    return grad


def rel_error(a: Matrix, b: Matrix) -> float:
    """max |a-b| / max(1, |a|, |b|), the gradient-check discrepancy measure."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = max(1.0, float(np.max(np.abs(a)) if a.size else 0.0),
                float(np.max(np.abs(b)) if b.size else 0.0))
    diff = float(np.max(np.abs(a - b))) if a.size else 0.0
    return diff / denom
