"""Numeric core: as_matrix/unit_rows/row_logsumexp/gram contracts, the
fallbacks of pin_blas_threads, and the finite-difference oracle of
``reference.py``."""

import ctypes
import io
import math
import types

import numpy as np
import pytest
from scipy.special import logsumexp

import hcl.numeric as numeric_mod
from hcl.errors import ContractError, ShapeError
from hcl.numeric import (
    ZERO_NORM_EPS,
    _unit_rows_norms,
    as_matrix,
    gram,
    make_rng,
    pin_blas_threads,
    row_logsumexp,
    unit_rows,
)

from reference import finite_diff_grad, old_unit_rows, rel_error


def test_as_matrix_rejects_non_2d():
    with pytest.raises(ShapeError, match="must be 2-D"):
        as_matrix(np.zeros(3), "operand")


def cosines(a, b):
    """Cosine of every row of ``a`` with every row of ``b``, as the losses
    form it."""
    return unit_rows(np.atleast_2d(a)) @ unit_rows(np.atleast_2d(b)).T


def test_cosine_basic_values():
    assert cosines([1.0, 0.0], [2.0, 0.0])[0, 0] == pytest.approx(1.0, abs=1e-12)
    assert cosines([1.0, 0.0], [-3.0, 0.0])[0, 0] == pytest.approx(-1.0, abs=1e-12)
    assert cosines([1.0, 0.0], [0.0, 5.0])[0, 0] == pytest.approx(0.0, abs=1e-12)


def test_cosine_zero_norm_returns_zero():
    assert cosines([0.0, 0.0], [1.0, 2.0])[0, 0] == 0.0
    assert cosines([1e-13, 0.0], [1.0, 2.0])[0, 0] == 0.0


def test_cosine_clamped_and_scale_invariant():
    rng = make_rng(1)
    for _ in range(200):
        u = rng.normal(size=4)
        v = rng.normal(size=4)
        c = cosines(u, v)[0, 0]
        # Within rounding of [-1, 1]; the losses clip what is left.
        assert -1.0 - 1e-15 <= c <= 1.0 + 1e-15
        assert cosines(3.7 * u, 0.2 * v)[0, 0] == pytest.approx(c, abs=1e-12)
    v = rng.normal(size=5)
    assert cosines(v, v)[0, 0] == pytest.approx(1.0, abs=1e-15)


def lse_rows(m):
    """row_logsumexp's logsumexp column as a vector, on a copy of ``m``."""
    return row_logsumexp(np.array(m, dtype=float))[0].ravel()


def test_logsumexp_overflow_safe():
    got = lse_rows([[1000.0, 1000.0], [-1000.0, -1000.0]])
    assert got[0] == pytest.approx(1000.0 + math.log(2), abs=1e-12)
    assert got[1] == pytest.approx(-1000.0 + math.log(2), abs=1e-12)


def test_logsumexp_matches_direct_sum():
    rng = make_rng(2)
    for _ in range(50):
        v = rng.normal(size=(1, rng.integers(1, 9))) * 3.0
        direct = math.log(sum(math.exp(x) for x in v[0]))
        assert lse_rows(v)[0] == pytest.approx(direct, abs=1e-12)


def test_logsumexp_neg_inf_entries_drop_out():
    with np.errstate(divide="ignore"):
        got = lse_rows([[-np.inf, 0.0], [-np.inf, -np.inf]])
    assert got[0] == pytest.approx(0.0, abs=1e-12)
    assert got[1] == -np.inf


def test_row_logsumexp_consistent_with_scalar():
    rng = make_rng(3)
    m = rng.normal(size=(6, 5)) * 2.0
    m[2, 3] = -np.inf
    rows = lse_rows(m)
    for i in range(6):
        assert rows[i] == pytest.approx(logsumexp(m[i]), abs=1e-12)


def test_row_logsumexp_leaves_shifted_exponentials_in_place():
    rng = make_rng(5)
    m = rng.normal(size=(5, 7)) * 4.0
    m[1, 2] = -np.inf
    m[3] = -np.inf
    buf = m.copy()
    with np.errstate(divide="ignore"):
        lse, rowsum = row_logsumexp(buf)
        want_lse = np.log(buf.sum(axis=1, keepdims=True))
    rowmax = np.where(np.isfinite(m.max(axis=1)), m.max(axis=1), 0.0)
    assert lse.shape == rowsum.shape == (5, 1)
    assert np.allclose(buf, np.exp(m - rowmax[:, None]), rtol=1e-15, atol=0)
    assert buf[1, 2] == 0.0 and not buf[3].any()
    assert np.array_equal(rowsum, buf.sum(axis=1, keepdims=True))
    assert np.array_equal(lse, rowmax[:, None] + want_lse)


def test_gram_equals_product_with_transpose():
    rng = make_rng(6)
    for shape in ((1, 3), (4, 1), (7, 5), (40, 12)):
        m = rng.normal(size=shape)
        g = gram(m)
        assert g.shape == (shape[0], shape[0])
        assert np.allclose(g, np.einsum("ik,jk->ij", m, m), rtol=1e-13, atol=1e-13)


def test_rng_same_seed_same_stream():
    a = make_rng(7).uniform(-1.0, 1.0, size=(5, 4))
    b = make_rng(7).uniform(-1.0, 1.0, size=(5, 4))
    assert np.array_equal(a, b)
    c = make_rng(8).uniform(-1.0, 1.0, size=(5, 4))
    assert not np.array_equal(a, c)


def test_finite_diff_grad_quadratic():
    rng = make_rng(4)
    a = rng.normal(size=(3, 4))
    x = rng.normal(size=(3, 4))

    def fn(m):
        return float(np.sum(a * m * m))

    grad = finite_diff_grad(fn, x)
    assert rel_error(grad, 2.0 * a * x) < 1e-8


def test_finite_diff_grad_does_not_mutate_input():
    x = np.ones((2, 2))
    before = x.copy()
    finite_diff_grad(lambda m: float(np.sum(m**3)), x)
    assert np.array_equal(x, before)


def test_finite_diff_grad_bad_eps():
    with pytest.raises(ContractError):
        finite_diff_grad(lambda m: 0.0, np.ones((1, 1)), eps=0.0)


def test_unit_rows_zero_row_stays_zero():
    m = np.array([[3.0, 4.0], [0.0, 0.0]])
    u = unit_rows(m)
    assert np.allclose(u[0], [0.6, 0.8], atol=1e-12)
    assert np.array_equal(u[1], [0.0, 0.0])


@pytest.mark.parametrize("n, d, zero", [
    (0, 3, []), (1, 4, []), (1, 4, [0]), (40, 37, []), (40, 37, [0, 9, 39]),
])
def test_unit_rows_norms_bitwise_equal_linalg_norm(n, d, zero):
    # the helper's norms are np.linalg.norm's bit for bit, and its unit rows
    # (and unit_rows) the earlier where-and-write formulation's, with or
    # without zero-norm rows: exact zeros, and one just below the threshold
    rng = make_rng(61)
    m = rng.normal(size=(n, d)) * 10.0 ** rng.uniform(-3.0, 3.0, size=(n, 1))
    m[zero] = 0.0
    if len(zero) > 1:
        m[zero[1]] = 0.5 * ZERO_NORM_EPS / math.sqrt(d)
    unit, norms = _unit_rows_norms(m)
    assert norms.shape == (n, 1)
    assert np.array_equal(norms, np.linalg.norm(m, axis=1, keepdims=True))
    want = old_unit_rows(m)
    assert np.array_equal(unit, want)
    assert np.array_equal(unit_rows(m), want)
    assert not unit[zero].any()


def test_rel_error_scales():
    assert rel_error(np.array([1.0]), np.array([1.0])) == 0.0
    assert rel_error(np.array([2.0]), np.array([1.0])) == pytest.approx(0.5)
    assert rel_error(np.array([1e-9]), np.array([0.0])) == pytest.approx(1e-9)


def _own_pin():
    """The process's pin and how many times its body has run."""
    return pin_blas_threads(), pin_blas_threads.cache_info().misses


def test_pin_blas_threads_without_readable_maps_changes_nothing(monkeypatch):
    # the uncached body: the process's own pin, made once, is left alone
    before = _own_pin()

    def unreadable(*args, **kwargs):
        raise PermissionError("no maps")

    monkeypatch.setattr(numeric_mod, "open", unreadable, raising=False)
    assert pin_blas_threads.__wrapped__() is None
    assert _own_pin() == before


def test_pin_blas_threads_skips_what_it_cannot_pin(monkeypatch):
    # a relative path is never loaded, a library that fails to load is
    # passed over, and one that exports a getter but no setter is too
    before = _own_pin()
    maps = "".join(f"7f00-7f01 r-xp 00000000 08:01 42 {p}\n" for p in (
        "libopenblas_rel.so", "/lib/libopenblas_broken.so",
        "/lib/libopenblas_getter.so", "/lib/libc.so.6"))
    monkeypatch.setattr(numeric_mod, "open",
                        lambda *args, **kwargs: io.StringIO(maps),
                        raising=False)
    loaded = []

    def cdll(path):
        loaded.append(path)
        if "broken" in path:
            raise OSError(f"{path}: cannot open shared object file")
        return types.SimpleNamespace(openblas_get_num_threads=lambda: 1)

    monkeypatch.setattr(ctypes, "CDLL", cdll)
    assert pin_blas_threads.__wrapped__() is None
    assert loaded == ["/lib/libopenblas_broken.so", "/lib/libopenblas_getter.so"]
    assert _own_pin() == before
