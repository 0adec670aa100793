"""Dense float64 array helpers: coercion, row normalization, gram, the
one-thread pin of numpy's BLAS, and a row-max logsumexp: the losses shift
their exps by a known bound on the logits instead, and redo with it only
the rows that shift leaves out of range.

Every array crossing a public boundary in this package is a 2-D C-ordered
float64 ``numpy.ndarray`` (aliased ``Matrix`` below); randomness always flows
through a seeded ``numpy.random.Generator`` (aliased ``Rng``), which yields
the same stream for the same seed on every platform.
"""

from __future__ import annotations

import ctypes
import functools

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


def _divide_rows(a: Matrix, norms: Matrix, out: Matrix | None = None) -> Matrix:
    """``a / norms`` for an (n, 1) column of row norms, into ``out`` when
    given; rows whose norm is below ``ZERO_NORM_EPS`` come back as zeros.
    The zeroing pass runs only when such a row exists."""
    if norms.min(initial=np.inf) >= ZERO_NORM_EPS:  # False on a NaN norm
        return np.divide(a, norms, out=out)
    zero = norms < ZERO_NORM_EPS
    out = np.divide(a, np.where(zero, 1.0, norms), out=out)
    out[zero.ravel()] = 0.0
    return out


def _unit_rows_norms(m: Matrix) -> tuple[Matrix, Matrix]:
    """The unit rows of 2-D float64 ``m`` (zero rows for (near-)zero norms)
    and its (n, 1) row norms, by the expression ``np.linalg.norm(m, axis=1,
    keepdims=True)`` evaluates for real input, so bit-equal to it."""
    norms = np.sqrt(np.add.reduce(m * m, axis=1, keepdims=True))
    return _divide_rows(m, norms), norms


def unit_rows(m: Matrix) -> Matrix:
    """Row-normalize ``m``; rows with (near-)zero norm come back as zeros."""
    return _unit_rows_norms(as_matrix(m))[0]


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


# (setter, getter) exported by numpy's OpenBLAS: the scipy-openblas wheel's
# ILP64 build first, then plain OpenBLAS builds. Scipy's own LP64 copy
# exports none of these, and nothing here calls BLAS through scipy.
_OPENBLAS_THREAD_CALLS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("openblas_set_num_threads64_", "openblas_get_num_threads64_"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
)


@functools.cache
def pin_blas_threads() -> int | None:
    """Run numpy's OpenBLAS on one thread, once per process.

    A second thread doubles the CPU time of the n x n products and makes
    their last bits, and so a run's checkpoint, depend on the thread count.
    The library is found among the process's mapped files; the setter is
    called through ``ctypes``. Returns the thread count in effect after the
    pin, or None (and changes nothing) when no loaded OpenBLAS exports a
    setter.
    """
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split()[-1] for line in fh
                            if "openblas" in line})
    except OSError:
        return None
    for path in paths:
        if not path.startswith("/"):
            continue
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for set_name, get_name in _OPENBLAS_THREAD_CALLS:
            setter = getattr(lib, set_name, None)
            getter = getattr(lib, get_name, None)
            if setter is None or getter is None:
                continue
            setter.argtypes, setter.restype = [ctypes.c_int], None
            getter.argtypes, getter.restype = [], ctypes.c_int
            setter(1)
            return int(getter())
    return None
