"""Dense float64 array helpers: coercion, row normalization, logsumexp, gram.

Every array crossing a public boundary in this package is a 2-D C-ordered
float64 ``numpy.ndarray`` (aliased ``Matrix`` below); randomness always flows
through a seeded ``numpy.random.Generator`` (aliased ``Rng``), which yields
the same stream for the same seed on every platform.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeError

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


def row_logsumexp(logits: Matrix) -> tuple[Matrix, Matrix]:
    """Row-wise logsumexp of a 2-D logit array, in place: ``logits`` becomes
    exp(logits - rowmax), rowmax 0 for an all -inf row (-inf entries become
    0). Returns (n, 1) columns ``(lse, rowsum)``, rowsum the new row sums."""
    m = np.max(logits, axis=1, keepdims=True)
    m[~np.isfinite(m)] = 0.0
    np.exp(np.subtract(logits, m, out=logits), out=logits)
    rowsum = np.sum(logits, axis=1, keepdims=True)
    return m + np.log(rowsum), rowsum


def gram(m: Matrix) -> Matrix:
    """``m @ m.T`` by ``gemm`` on a copy, not by numpy's slower ``syrk``."""
    return m @ np.ascontiguousarray(m.T)
