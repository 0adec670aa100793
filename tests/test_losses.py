"""Loss values against scalar enumerator oracles, gradients against finite
differences, and the documented degeneracy/equality behavior."""

import dataclasses
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.special import logsumexp

import hcl.losses as losses_mod
from hcl.errors import ContractError, DegenerateBatchError, NumericError, ShapeError
from hcl.losses import (
    ContrastiveBatch,
    _info_nce,
    cross_entropy,
    sup_labels,
    total_loss,
    unsup_loss_multiview,
    unsup_loss_single,
    weighted_sup_loss,
)
from hcl.numeric import _unit_rows_norms, make_rng, row_logsumexp, unit_rows

from builders import symmetric_branch_calls
from oracles import (
    finite_diff_grad,
    neg_sets_from_mask,
    old_cross_entropy,
    old_info_nce,
    old_logit_operands,
    old_sup_engine,
    old_symmetric_info_nce,
    old_two_view_pos,
    old_unnormalize_rows,
    random_neg_mask,
    ref_cross_entropy,
    ref_log_weight,
    ref_sup_groups,
    ref_unsup_multiview,
    ref_unsup_single,
    ref_weighted_sup,
    rel_error,
)

GRAD_TOL = 1e-5


def single_view_batch(rng, n=None, d=None, dz=None, project=False):
    n = n or int(rng.integers(3, 9))
    dz = dz or int(rng.integers(2, 6))
    d = d or (int(rng.integers(2, 7)) if project else dz)
    x = rng.normal(size=(n, d))
    z = rng.normal(size=(n, dz))
    x_sim = rng.normal(size=(n, dz)) if project else x
    mask = random_neg_mask(rng, n)
    return ContrastiveBatch(zs=[z], xs=[x], x_sim=x_sim, neg_mask=mask)


def two_view_batch(rng, n=None, dz=None, d1=None, d2=None):
    n = n or int(rng.integers(3, 9))
    dz = dz or int(rng.integers(2, 6))
    d1 = d1 or int(rng.integers(2, 7))
    d2 = d2 or d1
    return ContrastiveBatch(
        zs=[rng.normal(size=(n, dz)), rng.normal(size=(n, dz))],
        xs=[rng.normal(size=(n, d1)), rng.normal(size=(n, d2))],
        neg_mask=random_neg_mask(rng, n),
    )


def with_full_mask(b):
    """The same batch with every other sample in each anchor's negative set
    (a ``neg_mask`` of None), as every full-plan, scene and unsup-bound step
    has it."""
    return dataclasses.replace(b, neg_mask=None)


def mask_of(b):
    """``b``'s negative sets as a mask, the full complement's written out."""
    return ~np.eye(b.n, dtype=bool) if b.neg_mask is None else b.neg_mask


def weighting(b, weighted):
    """``b`` as it is, or without its raw features: plain InfoNCE."""
    return b if weighted else dataclasses.replace(b, xs=None)


def with_view(b, v, z):
    """``b`` with view ``v``'s embeddings replaced by ``z``."""
    zs = list(b.zs)
    zs[v] = z
    return dataclasses.replace(b, zs=zs)


# ---------------------------------------------------------------- batch type


def test_batch_rejects_self_negative():
    mask = np.ones((3, 3), dtype=bool)
    with pytest.raises(ContractError):
        ContrastiveBatch(zs=[np.eye(3)], neg_mask=mask)


def test_batch_rejects_empty_negative_set():
    mask = ~np.eye(3, dtype=bool)
    mask[1, :] = False
    with pytest.raises(DegenerateBatchError, match="anchor 1"):
        ContrastiveBatch(zs=[np.eye(3)], neg_mask=mask)


def test_batch_rejects_row_mismatch():
    # a 4-row entry in a 3-row batch is named, as is a view-count mismatch
    # between xs and zs
    z, x, bad = np.eye(3), np.zeros((3, 2)), np.zeros((4, 2))
    for entry, fields in [
        ("zs[1]", dict(zs=[z, np.eye(4, 3)])),
        ("xs[0]", dict(zs=[z], xs=[bad])),
        ("xs[1]", dict(zs=[z, z], xs=[x, bad])),
        ("x_sim", dict(zs=[z], x_sim=np.zeros((4, 3)))),
        ("xs has 1 views, zs 2", dict(zs=[z, z], xs=[x])),
        ("xs has 2 views, zs 1", dict(zs=[z], xs=[x, x])),
        ("neg_mask must be 3x3, got (3, 4)",
         dict(zs=[z], neg_mask=np.ones((3, 4), dtype=bool))),
    ]:
        with pytest.raises(ShapeError, match=re.escape(entry)):
            ContrastiveBatch(**{"neg_mask": None, **fields})


def test_batch_rejects_views_no_kernel_takes():
    with pytest.raises(ContractError, match="at least one view"):
        ContrastiveBatch(zs=[], neg_mask=None)
    with pytest.raises(ContractError, match="x_sim"):
        ContrastiveBatch(zs=[np.eye(3)] * 2, x_sim=np.eye(3),
                         neg_mask=None)
    with pytest.raises(ShapeError, match="share a dimension"):
        ContrastiveBatch(zs=[np.eye(3), np.eye(3, 2)], neg_mask=None)




# ------------------------------------------------------------- cross entropy


def test_cross_entropy_half_is_log2():
    y_hat = np.full((4, 3), 0.5)
    y = make_rng(0).integers(0, 2, size=(4, 3)).astype(float)
    value, _ = cross_entropy(y_hat, y)
    assert value == pytest.approx(math.log(2), abs=1e-12)


def test_cross_entropy_perfect_predictions():
    y = np.array([[1.0, 0.0], [0.0, 1.0]])
    value, grad = cross_entropy(y, y)
    assert value < 1e-11
    assert float(np.abs(grad).max()) < 1e-8


def test_cross_entropy_clamps_extremes():
    y = np.array([[1.0, 0.0]])
    y_hat = np.array([[0.0, 1.0]])  # worst case, would be log(0) unclamped
    value, grad = cross_entropy(y_hat, y)
    assert math.isfinite(value)
    want = 0.5 * (-math.log(1e-12) - math.log1p(-(1.0 - 1e-12)))
    assert value == pytest.approx(want, abs=1e-9)
    assert np.array_equal(grad, np.zeros_like(grad))


def test_cross_entropy_matches_oracle():
    rng = make_rng(1)
    for _ in range(20):
        n, c = int(rng.integers(1, 9)), int(rng.integers(1, 6))
        y_hat = rng.uniform(0.01, 0.99, size=(n, c))
        y = rng.integers(0, 2, size=(n, c)).astype(float)
        value, _ = cross_entropy(y_hat, y)
        assert value == pytest.approx(ref_cross_entropy(y_hat, y), abs=1e-12)


def test_cross_entropy_gradient():
    rng = make_rng(2)
    for _ in range(10):
        n, c = int(rng.integers(2, 7)), int(rng.integers(1, 5))
        y_hat = rng.uniform(0.05, 0.95, size=(n, c))
        y = rng.integers(0, 2, size=(n, c)).astype(float)
        _, grad = cross_entropy(y_hat, y)
        num = finite_diff_grad(lambda m: cross_entropy(m, y)[0], y_hat)
        assert rel_error(grad, num) < GRAD_TOL


def test_cross_entropy_input_validation():
    with pytest.raises(ShapeError):
        cross_entropy(np.zeros((2, 2)), np.zeros((2, 3)))
    with pytest.raises(ContractError):
        cross_entropy(np.full((1, 2), 0.5), np.array([[0.2, 1.0]]))


@pytest.mark.parametrize("shape", [(0, 3), (4, 0)])
def test_cross_entropy_refuses_an_empty_batch(shape):
    # an empty pair has no mean: it is refused by name, not returned as NaN
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DegenerateBatchError,
                           match=r"empty batch.*shape \(" + str(shape[0])):
            cross_entropy(np.zeros(shape), np.zeros(shape))


@pytest.mark.parametrize("clamped", [False, True])
def test_cross_entropy_bitwise_equals_earlier_formulation(clamped):
    # the clamp's zeros are written only when a cell is clamped; value and
    # gradient keep the earlier formulation's bits either way
    rng = make_rng(3)
    y_hat = rng.uniform(0.01, 0.99, size=(64, 10))
    y = rng.integers(0, 2, size=(64, 10)).astype(float)
    if clamped:
        y_hat[[0, 5, 9], [1, 2, 3]] = [0.0, 1.0, 1e-13]
    value, grad = cross_entropy(y_hat, y)
    want_value, want_grad = old_cross_entropy(y_hat, y)
    assert value == want_value
    assert np.array_equal(grad, want_grad)
    if clamped:
        assert not grad[[0, 5, 9], [1, 2, 3]].any()


# ------------------------------------------------------- single-view unsup


def test_unsup_single_equal_scores_give_log2():
    # One negative per anchor with f(pos) = f(neg) and weights 1.
    row = np.array([0.6, -0.2, 1.1])
    z = np.vstack([row, row])
    batch = ContrastiveBatch(zs=[z], xs=[z.copy()], x_sim=z.copy(),
                             neg_mask=None)
    for weighted in (True, False):
        value, _ = unsup_loss_single(weighting(batch, weighted))
        assert value == pytest.approx(math.log(2), abs=1e-12)


@pytest.mark.parametrize("weighted", [True, False])
@pytest.mark.parametrize("project", [False, True])
def test_unsup_single_matches_oracle(weighted, project):
    rng = make_rng(3)
    for _ in range(15):
        drawn = single_view_batch(rng, project=project)
        tau = float(rng.uniform(0.4, 2.0))
        for b in (drawn, with_full_mask(drawn)):
            value, _ = unsup_loss_single(weighting(b, weighted), tau)
            want = ref_unsup_single(
                b.x_sim, b.xs[0], b.zs[0], neg_sets_from_mask(mask_of(b)),
                tau, weighted
            )
            assert value == pytest.approx(want, abs=1e-10)
            assert value > 0.0


@pytest.mark.parametrize("weighted", [True, False])
def test_unsup_single_gradient(weighted):
    rng = make_rng(4)
    for _ in range(6):
        drawn = single_view_batch(rng, project=bool(rng.integers(0, 2)))
        tau = float(rng.uniform(0.5, 1.5))
        for b in (drawn, with_full_mask(drawn)):
            b = weighting(b, weighted)
            _, grad = unsup_loss_single(b, tau)

            def fn(z, b=b):
                return unsup_loss_single(with_view(b, 0, z), tau)[0]

            assert rel_error(grad, finite_diff_grad(fn, b.zs[0])) < GRAD_TOL


def test_unsup_single_weights_vanish_on_identical_inputs():
    # Raw inputs equal up to positive scale make every g weight exactly 1,
    # so the weighted loss coincides with the unweighted one.
    rng = make_rng(5)
    n, dz = 6, 4
    base = rng.normal(size=dz)
    x = np.outer(rng.uniform(0.2, 3.0, size=n), base)
    b = ContrastiveBatch(zs=[rng.normal(size=(n, dz))], xs=[x],
                         x_sim=rng.normal(size=(n, dz)),
                         neg_mask=random_neg_mask(rng, n))
    w, _ = unsup_loss_single(b)
    u, _ = unsup_loss_single(weighting(b, False))
    assert w == pytest.approx(u, abs=1e-12)


def test_unsup_single_dimension_mismatch_needs_projection():
    rng = make_rng(6)
    b = ContrastiveBatch(zs=[rng.normal(size=(3, 4))], xs=[rng.normal(size=(3, 7))],
                         x_sim=rng.normal(size=(3, 7)), neg_mask=None)
    with pytest.raises(ShapeError, match="x_sim"):
        unsup_loss_single(b)


def test_unsup_single_needs_x_sim():
    # the raw features never stand in for the feature side of f
    x = make_rng(6).normal(size=(3, 4))
    b = ContrastiveBatch(zs=[x], xs=[x], neg_mask=None)
    with pytest.raises(ContractError, match="x_sim"):
        unsup_loss_single(b)


@pytest.mark.parametrize("loss, views, message", [
    (unsup_loss_single, 2, "single-view loss needs 1 view, got 2"),
    (unsup_loss_multiview, 3, "two-view loss needs 2 views, got 3"),
])
def test_unsup_kernels_reject_wrong_view_count(loss, views, message):
    z = make_rng(12).normal(size=(3, 2))
    b = ContrastiveBatch(zs=[z] * views, xs=[z] * views,
                         neg_mask=None)
    with pytest.raises(ContractError, match=message):
        loss(b)


# --------------------------------------------------------- two-view unsup


def test_unsup_multiview_equal_vectors_give_log3():
    # Two samples, every embedding the same unit vector, weights 1:
    # denominator = positive + two equal negatives.
    v = np.array([[0.0, 1.0], [0.0, 1.0]])
    b = ContrastiveBatch(zs=[v, v.copy()], neg_mask=None)
    value, _, _ = unsup_loss_multiview(b)
    assert value == pytest.approx(math.log(3), abs=1e-12)


@pytest.mark.parametrize("weighted,equal_dims", [(True, True), (True, False), (False, True)])
def test_unsup_multiview_matches_oracle(weighted, equal_dims):
    rng = make_rng(7)
    for _ in range(12):
        d1 = int(rng.integers(2, 6))
        d2 = d1 if equal_dims else d1 + int(rng.integers(1, 4))
        drawn = two_view_batch(rng, d1=d1, d2=d2)
        tau = float(rng.uniform(0.4, 2.0))
        for b in (drawn, with_full_mask(drawn)):
            value, _, _ = unsup_loss_multiview(weighting(b, weighted), tau)
            want = ref_unsup_multiview(
                *b.xs, *b.zs, neg_sets_from_mask(mask_of(b)),
                tau, weighted,
            )
            assert value == pytest.approx(want, abs=1e-10)


@pytest.mark.parametrize("weighted", [True, False])
def test_unsup_multiview_gradients(weighted):
    rng = make_rng(8)
    for _ in range(4):
        equal = bool(rng.integers(0, 2))
        d1 = int(rng.integers(2, 5))
        drawn = two_view_batch(rng, d1=d1, d2=d1 if equal else d1 + 2)
        tau = float(rng.uniform(0.5, 1.5))
        for b in (drawn, with_full_mask(drawn)):
            b = weighting(b, weighted)
            for v, g in enumerate(unsup_loss_multiview(b, tau)[1:]):

                def fn(z, b=b, v=v):
                    return unsup_loss_multiview(with_view(b, v, z), tau)[0]

                assert rel_error(g, finite_diff_grad(fn, b.zs[v])) < GRAD_TOL


def test_unsup_multiview_view_swap_symmetry():
    rng = make_rng(9)
    b = two_view_batch(rng, d1=3, d2=3)
    swapped = ContrastiveBatch(zs=b.zs[::-1], xs=b.xs[::-1], neg_mask=b.neg_mask)
    v1, _, _ = unsup_loss_multiview(b)
    v2, _, _ = unsup_loss_multiview(swapped)
    assert v1 == pytest.approx(v2, abs=1e-12)


def test_unsup_multiview_weighted_equals_unweighted_on_identical_raw():
    # Raw features identical across views and samples up to positive scale:
    # every g weight is 1, recovering the unweighted objective.
    rng = make_rng(10)
    n, dz, d = 5, 3, 4
    base = rng.normal(size=d)
    b = ContrastiveBatch(
        zs=[rng.normal(size=(n, dz)), rng.normal(size=(n, dz))],
        xs=[np.outer(rng.uniform(0.1, 2.0, size=n), base),
            np.outer(rng.uniform(0.1, 2.0, size=n), base)],
        neg_mask=random_neg_mask(rng, n),
    )
    w, _, _ = unsup_loss_multiview(b)
    u, _, _ = unsup_loss_multiview(weighting(b, False))
    assert w == pytest.approx(u, abs=1e-12)


def test_unsup_multiview_requires_second_view():
    rng = make_rng(11)
    b = single_view_batch(rng)
    with pytest.raises(ContractError, match="two-view loss needs 2 views, got 1"):
        unsup_loss_multiview(b)


# ------------------------------------------ two-view symmetric branch

# The symmetric branch sums and multiplies in another order than the dense
# path, so the two agree to rounding only: a few ulp of float64 per entry.
SYM_TOL = 1e-13


def _dense(monkeypatch, b, tau):
    """``unsup_loss_multiview`` on ``b`` through the dense path alone."""
    with monkeypatch.context() as m:
        m.setattr(losses_mod, "_symmetric_info_nce", lambda *args: None)
        return unsup_loss_multiview(b, tau)


def _agree(got, want, tol=SYM_TOL):
    (value, *grads), (want_value, *want_grads) = got, want
    assert value == pytest.approx(want_value, rel=tol)
    for g, w in zip(grads, want_grads):
        assert np.abs(g - w).max() <= tol * np.abs(w).max()


# (n, rows per band): 2n rows in bands of ceil(2n / (2n // rows)), here
# 2+2+2, 4+4, then uneven last bands: 4+4+2, 5+5+4, 5+5+5+3, 6+6+4 and,
# at the shipped 128 rows, 129+129+128
@pytest.mark.parametrize("n, rows", [(3, 2), (4, 4), (5, 3), (7, 4), (9, 4),
                                     (8, 5), (193, 128)])
def test_symmetric_branch_matches_dense_path(monkeypatch, n, rows):
    monkeypatch.setattr(losses_mod, "_SYM_BAND_ROWS", rows)
    taken = symmetric_branch_calls(monkeypatch)
    rng = make_rng(61 + n)
    for weighted in (True, False):
        for tau in (0.1, 0.5, 2.0):
            b = weighting(with_full_mask(two_view_batch(rng, n=n, dz=4, d1=3)),
                          weighted)
            _agree(unsup_loss_multiview(b, tau), _dense(monkeypatch, b, tau))
    assert taken == [True] * 6


@pytest.mark.parametrize("tau", [0.3, 0.7])
def test_symmetric_branch_gradient(monkeypatch, tau):
    # 2n = 10 rows in bands of 4, 4 and 2
    monkeypatch.setattr(losses_mod, "_SYM_BAND_ROWS", 3)
    taken = symmetric_branch_calls(monkeypatch)
    rng = make_rng(67)
    for weighted in (True, False):
        b = weighting(with_full_mask(two_view_batch(rng, n=5, d1=3)), weighted)
        for v, g in enumerate(unsup_loss_multiview(b, tau)[1:]):

            def fn(z, b=b, v=v):
                return unsup_loss_multiview(with_view(b, v, z), tau)[0]

            assert rel_error(g, finite_diff_grad(fn, b.zs[v])) < GRAD_TOL
    assert taken and all(taken)


@pytest.mark.parametrize("tau", [1e-4, 1e-20])
def test_symmetric_branch_falls_back_to_dense_path(monkeypatch, tau):
    # at tau = 1e-4 some rows' sums under the bound underflow; at 1e-20 a
    # near-duplicate row's rounding overflows its sum. A stored entry serves
    # two rows and cannot take one row's own shift, so the whole call runs
    # the dense path, bit for bit, and stays finite without a warning.
    monkeypatch.setattr(losses_mod, "_SYM_BAND_ROWS", 3)
    taken = symmetric_branch_calls(monkeypatch)
    rng = make_rng(71)
    for _ in range(5):
        drawn = with_full_mask(two_view_batch(rng, n=7, dz=4, d1=3)) \
            if tau == 1e-4 else _near_duplicate_batches(rng, n=7)[1]
        for weighted in (True, False):
            b = weighting(drawn, weighted)
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                value, *grads = unsup_loss_multiview(b, tau)
            want_value, *want_grads = _dense(monkeypatch, b, tau)
            assert math.isfinite(value) and value == want_value
            for g, w in zip(grads, want_grads):
                assert np.isfinite(g).all() and np.array_equal(g, w)
    assert taken and not any(taken)


def test_symmetric_branch_routing(monkeypatch):
    # only a full-complement batch of one operand pair (no raw features, or
    # raw features of one width) with at least two bands' rows takes it
    monkeypatch.setattr(losses_mod, "_SYM_BAND_ROWS", 3)
    taken = symmetric_branch_calls(monkeypatch)
    rng = make_rng(73)
    full = with_full_mask(two_view_batch(rng, n=6, d1=3))
    sampled = dataclasses.replace(full, neg_mask=random_neg_mask(rng, 6, size=4))
    proxy = with_full_mask(two_view_batch(rng, n=6, d1=3, d2=5))
    for b in (sampled, weighting(sampled, False), proxy):
        unsup_loss_multiview(b, 0.5)
    assert taken == []
    unsup_loss_multiview(with_full_mask(two_view_batch(rng, n=2, d1=3)), 0.5)
    assert taken == []  # 2n = 4 rows: fewer than two bands of 3
    # the full complement written out is a general mask
    unsup_loss_multiview(dataclasses.replace(full, neg_mask=mask_of(full)), 0.5)
    assert taken == []
    for b in (full, weighting(full, False)):
        unsup_loss_multiview(b, 0.5)
    assert taken == [True, True]
    monkeypatch.undo()
    # as shipped: 2n = 256 rows make two bands of 128, 2n = 254 one
    taken = symmetric_branch_calls(monkeypatch)
    for n in (127, 128):
        unsup_loss_multiview(with_full_mask(two_view_batch(rng, n=n)), 0.5)
    assert taken == [True]


# ------------------------------------------------------------- supervised


def test_supcon_two_pos_one_neg_log2():
    s = np.tile(np.array([0.3, 0.4, -0.2]), (3, 1))  # all pairwise f equal
    y = np.array([[1.0], [1.0], [0.0]])
    value, _ = weighted_sup_loss(s, y)
    assert value == pytest.approx(math.log(2), abs=1e-12)


def test_supcon_all_same_class_raises():
    s = make_rng(12).normal(size=(4, 3))
    with pytest.raises(DegenerateBatchError, match="4 samples"):
        weighted_sup_loss(s, np.ones((4, 1)))


def test_supcon_matches_indicator_oracle():
    rng = make_rng(14)
    for _ in range(10):
        n = int(rng.integers(4, 10))
        s = rng.normal(size=(n, int(rng.integers(2, 5))))
        ids = rng.integers(0, 3, size=n).astype(float)
        if len(np.unique(ids)) < 2:
            continue
        one_hot = (ids[:, None] == np.unique(ids)[None, :]).astype(float)
        tau = float(rng.uniform(0.4, 1.6))
        value, _ = weighted_sup_loss(s, one_hot, tau)
        want = ref_weighted_sup(s, one_hot, tau, indicator=True)
        assert value == pytest.approx(want, abs=1e-10)


def test_supcon_gradient():
    rng = make_rng(15)
    for _ in range(5):
        n = int(rng.integers(5, 10))
        s = rng.normal(size=(n, 3))
        ids = rng.integers(0, 3, size=n).astype(float)
        if len(np.unique(ids)) < 2:
            continue
        one_hot = (ids[:, None] == np.unique(ids)[None, :]).astype(float)
        _, grad = weighted_sup_loss(s, one_hot)
        num = finite_diff_grad(lambda m: weighted_sup_loss(m, one_hot)[0], s)
        assert rel_error(grad, num) < GRAD_TOL


def test_weighted_sup_fully_disjoint_negative_gives_log_1_plus_c():
    # Identical label vectors for the pair (agreement weight 1) and one
    # negative differing in all c labels (disagreement weight c), all f
    # equal: every term is -log(f / (f + c f)).
    for c in (2, 4, 7):
        s = np.tile(np.array([1.0, 2.0]), (3, 1))
        y = np.vstack([np.ones(c), np.ones(c), np.zeros(c)])
        value, _ = weighted_sup_loss(s, y)
        assert value == pytest.approx(math.log(1 + c), abs=1e-12)


def test_weighted_sup_matches_enumerating_oracle():
    rng = make_rng(16)
    done = 0
    while done < 15:
        n = int(rng.integers(4, 10))
        c = int(rng.integers(2, 5))
        y = rng.integers(0, 2, size=(n, c)).astype(float)
        ok = any((y[:, a].sum() >= 2 and (1 - y[:, a]).sum() >= 1) for a in range(c))
        if not ok:
            continue
        s = rng.normal(size=(n, int(rng.integers(2, 5))))
        tau = float(rng.uniform(0.4, 1.6))
        value, _ = weighted_sup_loss(s, y, tau)
        want = ref_weighted_sup(s, y, tau)
        assert value == pytest.approx(want, abs=1e-10)
        done += 1


def test_weighted_sup_gradient():
    rng = make_rng(17)
    done = 0
    while done < 5:
        n = int(rng.integers(4, 9))
        c = int(rng.integers(2, 4))
        y = rng.integers(0, 2, size=(n, c)).astype(float)
        if not any((y[:, a].sum() >= 2 and (1 - y[:, a]).sum() >= 1) for a in range(c)):
            continue
        s = rng.normal(size=(n, 3))
        _, grad = weighted_sup_loss(s, y)
        num = finite_diff_grad(lambda m: weighted_sup_loss(m, y)[0], s)
        assert rel_error(grad, num) < GRAD_TOL
        done += 1


def test_weighted_sup_one_hot_equals_supcon_bitwise():
    # routing only: one-hot rows take indicator weights (plain SupCon), the
    # bits of the earlier engine run with them; the values themselves are
    # checked against the oracle above
    rng = make_rng(18)
    for _ in range(10):
        n = int(rng.integers(4, 10))
        ids = rng.integers(0, 3, size=n)
        if len(np.unique(ids)) < 2:
            continue
        y = np.zeros((n, 3))
        y[np.arange(n), ids] = 1.0
        s = rng.normal(size=(n, 4))
        v1, g1 = weighted_sup_loss(s, y)
        v2, g2 = old_sup_engine(s, y, 1.0, True)[1:]
        assert v1 == v2
        assert np.array_equal(g1, g2)


def test_weighted_sup_degenerate_raises_with_composition():
    s = np.eye(2)
    y = np.array([[1.0, 0.0], [1.0, 0.0]])  # label 0 lacks negatives, label 1 positives
    with pytest.raises(DegenerateBatchError, match="positives per label"):
        weighted_sup_loss(s, y)


def test_weighted_sup_needs_a_label_matrix():
    s = np.eye(3)
    with pytest.raises(ShapeError, match="y must be 2-D"):
        weighted_sup_loss(s, np.array([1.0, 1.0, 0.0]))
    with pytest.raises(ShapeError, match="y has 2 rows, expected 3"):
        weighted_sup_loss(s, np.eye(2))


@pytest.mark.parametrize("half_rows", [8, 12])
def test_weighted_sup_refuses_a_label_half_of_another_row_count(half_rows):
    # a half with fewer or more rows than s is refused by name, not by a
    # numpy broadcast error inside the engine
    s = make_rng(63).normal(size=(10, 3))
    half = sup_labels(np.eye(2)[[0, 1] * (half_rows // 2)])
    with pytest.raises(ShapeError,
                       match=f"label half has {half_rows} rows, s has 10"):
        weighted_sup_loss(s, half, 0.5)


def test_weighted_sup_rejects_non_binary():
    with pytest.raises(ContractError):
        weighted_sup_loss(np.eye(2), np.array([[0.5, 1.0], [1.0, 0.0]]))


# ------------------------------------------------------- temperature sweep


@pytest.mark.parametrize("tau", [1e-4, 1e-3, 1e-2, 1.0, 10.0])
def test_every_loss_finite_across_temperatures(tau):
    # Sharp temperatures put logits near 1/tau; values and gradients must
    # stay finite at every temperature the config accepts.
    rng = make_rng(19)
    n = 8
    single = single_view_batch(rng, n=n, project=True)
    two = two_view_batch(rng, n=n)
    s = rng.normal(size=(n, 4))
    ids = np.arange(n) % 3
    one_hot = np.eye(3)[ids]
    multi = np.array([[1, 1, 0], [1, 0, 1], [0, 1, 1], [1, 1, 1],
                      [1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 0]], dtype=float)
    results = [
        loss(weighting(batch, weighted), tau)
        for loss, drawn in ((unsup_loss_single, single),
                            (unsup_loss_multiview, two))
        for batch in (drawn, with_full_mask(drawn))
        for weighted in (True, False)
    ] + [
        weighted_sup_loss(s, one_hot[:, :1], tau),
        weighted_sup_loss(s, one_hot, tau),
        weighted_sup_loss(s, multi, tau),
    ]
    for value, *grads in results:
        assert math.isfinite(value) and value >= 0.0
        for g in grads:
            assert np.isfinite(g).all()


def test_no_runtime_warning_at_small_temperature():
    # at tau = 1e-4 some rows' shared-shift sums underflow and are redone;
    # neither path may take the log of 0 or warn otherwise
    rng = make_rng(19)
    s = rng.normal(size=(8, 4))
    multi = (rng.random((8, 3)) < 0.5).astype(float)
    multi[:3, 0] = [1.0, 1.0, 0.0]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for drawn in (single_view_batch(rng, n=8, project=True),
                      two_view_batch(rng, n=8),
                      two_view_batch(rng, n=8, d1=3, d2=5)):
            loss = unsup_loss_single if len(drawn.zs) == 1 \
                else unsup_loss_multiview
            for b in (drawn, with_full_mask(drawn)):
                for weighted in (True, False):
                    loss(weighting(b, weighted), 1e-4)
        weighted_sup_loss(s, multi, 1e-4)


def test_supervised_pairs_run_by_label_then_anchor_then_partner():
    # the flat pair arrays list what loops over valid labels, anchors and
    # partners would, in that order
    rng = make_rng(43)
    y = (rng.random((9, 4)) < 0.5).astype(float)
    y[:, 1] = 1.0  # no negative: not a valid label
    half = sup_labels(y)
    groups = ref_sup_groups(y)
    assert np.array_equal(1.0 - half.not_y, y[:, [a for a, _, _ in groups]])
    pi, pj = np.divmod(half.pair, len(y))
    assert list(zip(half.pa.tolist(), pi.tolist(), pj.tolist())) == [
        (g, i, j) for g, (_, pos, _) in enumerate(groups)
        for i in pos for j in pos if i != j]


def _sup_data(rng, n=10):
    """Embeddings with one-hot and with multi-label targets of ``n`` rows."""
    s = rng.normal(size=(n, 4))
    one_hot = np.eye(3)[np.arange(n) % 3]
    multi = (rng.random((n, 4)) < 0.5).astype(float)
    return s, one_hot, multi


@pytest.mark.parametrize("tau", [1e-4, 1e-3])
def test_supervised_losses_exact_at_small_temperature(monkeypatch, tau):
    # At small tau a sum of exps shifted by the anchor's largest negative
    # logit can underflow for one of its labels; each such sum is redone
    # with its own shift. Compare against the log-domain scalar oracle.
    s, one_hot, multi = _sup_data(make_rng(41))
    column = one_hot[:, :1]
    for got, y in ((weighted_sup_loss(s, one_hot, tau)[0], one_hot),
                   (weighted_sup_loss(s, column, tau)[0], column),
                   (weighted_sup_loss(s, multi, tau)[0], multi)):
        assert got == pytest.approx(ref_weighted_sup(s, y, tau), rel=1e-12)
    if tau == 1e-4:
        # this data needs the repair: without it the multi-label loss is
        # off by about 1%
        monkeypatch.setattr(losses_mod, "_SUM_FLOOR", 0.0)
        with np.errstate(all="ignore"):
            unrepaired = weighted_sup_loss(s, multi, tau)[0]
        assert unrepaired != pytest.approx(ref_weighted_sup(s, multi, tau),
                                           rel=1e-3)


@pytest.mark.parametrize("tau", [0.01, 0.5])
@pytest.mark.parametrize("repair", ["shared-shift", "every-sum-repaired"])
def test_supervised_gradients_both_shift_paths(monkeypatch, tau, repair):
    # every-sum-repaired raises the floor so that each (anchor, label) sum
    # takes the own-shift path of small temperatures
    if repair == "every-sum-repaired":
        monkeypatch.setattr(losses_mod, "_SUM_FLOOR", np.inf)
    rng = make_rng(42)
    for _ in range(3):
        s, one_hot, multi = _sup_data(rng, n=int(rng.integers(6, 10)))
        for y in (one_hot[:, :1], one_hot, multi):
            _, grad = weighted_sup_loss(s, y, tau)
            num = finite_diff_grad(lambda m: weighted_sup_loss(m, y, tau)[0],
                                   s, eps=1e-6)
            assert rel_error(grad, num) < GRAD_TOL


def test_supervised_repair_path_agrees_with_shared_shift(monkeypatch):
    # at a small tau the flagged sums are repaired and the rest keep the
    # shared shift; repairing every sum must give the same loss
    s, _, multi = _sup_data(make_rng(41))
    tau = 1e-4
    value, grad = weighted_sup_loss(s, multi, tau)
    monkeypatch.setattr(losses_mod, "_SUM_FLOOR", np.inf)
    all_value, all_grad = weighted_sup_loss(s, multi, tau)
    assert value == pytest.approx(all_value, rel=1e-14)
    assert rel_error(grad, all_grad) < 1e-12


def core_on_block(pos, shifted, bound, keep, core=_info_nce):
    """``core`` (``_info_nce`` or ``old_info_nce``) on the shifted logit
    block ``shifted``, handed over as the product ``shifted @ I``, which
    is exact. Returns ``(terms, d_pos, c * e)``: with the identity for
    ``col`` the core's d_neg is (c * e).T, bit for bit, since the product
    adds only exact zeros to each entry."""
    terms, d_pos, d_neg = core(pos, shifted, np.eye(shifted.shape[1]), bound,
                               keep, np.eye(len(shifted)))
    return terms, d_pos, d_neg.T


def test_info_nce_invariants_sweep():
    # the shared core of every loss, on random shapes, finite blocks with
    # dropped negatives, log-weights and logit scales 1/tau up to 1e4
    rng = make_rng(23)
    for _ in range(300):
        rows, n_pos, n_neg = (int(v) for v in rng.integers(1, [9, 7, 13]))
        scale = 10.0 ** rng.uniform(-2.0, 4.0)
        pos = scale * rng.uniform(-1.0, 1.0, (rows, n_pos)) \
            + rng.uniform(-3.0, 3.0, (rows, n_pos))
        neg = scale * rng.uniform(-1.0, 1.0, (rows, n_neg)) \
            + rng.uniform(-3.0, 3.0, (rows, n_neg))
        dropped = rng.random((rows, n_neg)) < 0.4
        dropped[np.arange(rows), rng.integers(0, n_neg, rows)] = False
        # the bound of every logit, shifted in before the call
        bound = scale + 3.0
        terms, d_pos, d_neg = core_on_block(pos, neg - bound, bound,
                                            ~dropped)
        assert not d_neg[dropped].any()  # exact zeros after the exp
        for a in (terms, d_pos, d_neg):
            assert np.isfinite(a).all()
        assert (terms >= 0.0).all()
        assert ((d_pos >= -1.0) & (d_pos <= 0.0)).all()
        assert (d_neg >= 0.0).all()
        # adding one constant to every logit of a row leaves each term as
        # it is, so the row's gradients sum to zero
        shift = d_pos.sum(axis=1) + d_neg.sum(axis=1)
        assert np.abs(shift).max() <= 1e-12


@pytest.mark.parametrize("layout", ["diagonal", "partner"])
def test_info_nce_scaled_block_equals_dense_logit_gradient(layout):
    # The kernels take d_logits as c * e with each row's positive written
    # in where e is 0 (masked): the diagonal for the single-view loss, the
    # other-view partner for the two-view one. That must equal the dense
    # gradient of the summed terms in the full logit matrix, softmax(row)
    # minus the positive's indicator.
    rng = make_rng(31)
    for _ in range(40):
        n = int(rng.integers(2, 9))
        rows = 2 * n if layout == "partner" else n
        r = np.arange(rows)
        positive = (r + n) % rows if layout == "partner" else r
        logits = rng.uniform(-4.0, 4.0, (rows, rows))
        masked = rng.random((rows, rows)) < 0.3
        # at least one negative per row, never the positive
        masked[r, (positive + 1 + rng.integers(0, rows - 1, rows)) % rows] \
            = False
        masked[r, positive] = True
        full = np.where(masked, -np.inf, logits)
        full[r, positive] = logits[r, positive]
        soft = np.exp(full - full.max(axis=1, keepdims=True))
        dense = soft / soft.sum(axis=1, keepdims=True)
        dense[r, positive] -= 1.0

        neg = logits - 4.0  # shifted by the bound
        _, d_pos, d_logits = core_on_block(logits[r, positive][:, None], neg,
                                           4.0, ~masked)
        assert not d_logits[r, positive].any()
        d_logits[r, positive] = d_pos[:, 0]
        np.testing.assert_allclose(d_logits, dense, rtol=1e-12, atol=1e-15)


@pytest.mark.parametrize("tau", [0.3, 0.7, 2.0])
def test_folded_kernels_gradient(tau):
    # 1/tau folded into the thin operand and c into the backward product;
    # at a tau that is not a power of two the fold moves bits, so check
    # both unsupervised losses against finite differences there, on a
    # sampled and on a full negative mask
    rng = make_rng(37)
    for weighted in (True, False):
        single = single_view_batch(rng, n=6, project=True)
        two = two_view_batch(rng, n=5)
        proxy = two_view_batch(rng, n=5, d1=3, d2=4)
        for b in (single, with_full_mask(single)):
            b = weighting(b, weighted)
            _, grad = unsup_loss_single(b, tau)

            def fn(z, b=b):
                return unsup_loss_single(with_view(b, 0, z), tau)[0]

            assert rel_error(grad, finite_diff_grad(fn, b.zs[0])) < GRAD_TOL
        for b in (two, with_full_mask(two), proxy, with_full_mask(proxy)):
            b = weighting(b, weighted)
            for v, g in enumerate(unsup_loss_multiview(b, tau)[1:]):

                def fn(z, b=b, v=v):
                    return unsup_loss_multiview(with_view(b, v, z), tau)[0]

                assert rel_error(g, finite_diff_grad(fn, b.zs[v])) < GRAD_TOL


def _kernel_logits(monkeypatch, loss, batch, tau):
    """The (pos, neg, keep) ``loss`` hands to ``_info_nce``: its logits, with
    the bound it shifted the negatives by added back, and its mask of the
    negatives."""
    seen = []

    def spy(pos, left, right, bound, keep, *rest):
        seen.append((pos.copy(), left @ right.T + bound, keep))
        return _info_nce(pos, left, right, bound, keep, *rest)

    monkeypatch.setattr(losses_mod, "_info_nce", spy)
    loss(batch, tau)
    monkeypatch.undo()
    return seen[0]


@pytest.mark.parametrize("tau", [1e-4, 0.3, 0.7, 2.0])
def test_fused_logit_block_equals_cosine_plus_log_weight(monkeypatch, tau):
    # Each kernel writes cos/tau + log-weight by one product of widened
    # thin operands, unclipped. It must equal the cosine over tau plus the
    # clipped ref_log_weight up to rounding, finite at every entry, with
    # exactly the negative mask selected and the positives unweighted.
    rng = make_rng(43)
    tol = 1e-12 * (1.0 + 1.0 / tau)

    def check(got, want, mask):
        (pos, neg, keep), (want_pos, want_neg) = got, want
        if keep is None:  # the single-view full complement
            keep = ~np.eye(len(neg), dtype=bool)
        assert np.isfinite(neg).all() and np.array_equal(keep, mask)
        assert np.abs(neg[mask] - want_neg[mask]).max() <= tol
        assert np.abs(pos - want_pos).max() <= tol

    for weighted in (True, False):
        for project in (True, False):  # with and without x_sim
            drawn = single_view_batch(rng, n=7, project=project)
            for b in (drawn, with_full_mask(drawn)):
                cos = unit_rows(b.x_sim) @ unit_rows(b.zs[0]).T
                lw = ref_log_weight(b.xs[0], b.xs[0]) if weighted else 0.0
                got = _kernel_logits(monkeypatch, unsup_loss_single,
                                     weighting(b, weighted), tau)
                check(got, (np.diag(cos)[:, None] / tau, cos / tau + lw),
                      mask_of(b))
        for d2 in (4, 6):  # cross-view weights, then the same-view proxy
            drawn = two_view_batch(rng, n=6, d1=4, d2=d2)
            for b in (drawn, with_full_mask(drawn)):
                n = b.n
                zh = unit_rows(np.vstack(b.zs))
                cos = zh @ zh.T
                if not weighted:
                    lw = 0.0
                elif d2 == 4:
                    x = np.vstack(b.xs)
                    lw = ref_log_weight(x, x)
                else:
                    lw = np.vstack([np.tile(ref_log_weight(v, v), 2)
                                    for v in b.xs])
                partner = (np.arange(2 * n) + n) % (2 * n)
                got = _kernel_logits(monkeypatch, unsup_loss_multiview,
                                     weighting(b, weighted), tau)
                want = (cos[np.arange(2 * n), partner][:, None] / tau,
                        cos / tau + lw)
                check(got, want, np.tile(mask_of(b), (2, 2)))


def _repaired_rows(monkeypatch):
    """Count the rows the kernels hand to ``row_logsumexp``: those whose
    sums under the bound's shared shift were redone with their own max."""
    seen = []

    def spy(logits):
        seen.append(len(logits))
        return row_logsumexp(logits)

    monkeypatch.setattr(losses_mod, "row_logsumexp", spy)
    return seen


def _near_duplicate_batches(rng, n=6):
    """Single- and two-view batches of ``n`` embedding rows that all lie
    within a relative 1e-15..1e-6 of one direction, so every cosine rounds
    near 1 and at a tiny tau rounding alone sets each logit's distance to
    the bound."""
    base = rng.normal(size=4)
    eps = 10.0 ** rng.uniform(-15.0, -6.0)
    z1, z2 = (base + eps * rng.normal(size=(n, 4)) for _ in range(2))
    xs = [rng.normal(size=(n, 3)), rng.normal(size=(n, 3))]
    return (ContrastiveBatch([z1], None, xs[:1], x_sim=z2),
            ContrastiveBatch([z1, z2], None, xs))


@pytest.mark.parametrize("tau", [1e-20, 1e-200])
def test_unsup_kernels_finite_on_near_duplicate_rows(monkeypatch, tau):
    # a cosine rounded a few ulp past 1 puts its logit about 1e4 (tau =
    # 1e-20) or 1e184 (tau = 1e-200) past the bound, so its row's shifted
    # sum overflows to inf; that row must be redone like an underflowing one
    repaired = _repaired_rows(monkeypatch)
    rng = make_rng(47)
    for _ in range(25):
        for drawn in _near_duplicate_batches(rng):
            loss = unsup_loss_single if len(drawn.zs) == 1 \
                else unsup_loss_multiview
            for weighted in (True, False):
                with warnings.catch_warnings():
                    warnings.simplefilter("error", RuntimeWarning)
                    value, *grads = loss(weighting(drawn, weighted), tau)
                assert math.isfinite(value)
                for g in grads:
                    assert np.isfinite(g).all()
    assert sum(repaired) > 0


def _unsup_layouts(rng, n=None):
    """(loss, batch) for every kernel layout: single view plain and
    weighted, two views plain, weighted of one width, and the proxy; of
    ``n`` rows, or 7 for one view and 6 for two."""
    single = single_view_batch(rng, n=n or 7, project=True)
    two = two_view_batch(rng, n=n or 6, d1=4, d2=4)
    proxy = two_view_batch(rng, n=n or 6, d1=3, d2=5)
    return [(unsup_loss_single, weighting(single, False)),
            (unsup_loss_single, single),
            (unsup_loss_multiview, weighting(two, False)),
            (unsup_loss_multiview, two),
            (unsup_loss_multiview, proxy)]


@pytest.mark.parametrize("tau", [1e-4, 0.5])
def test_unsup_repair_of_every_row_matches_shared_shift(monkeypatch, tau):
    # forcing every row through the repair (floor inf) rebuilds each row
    # from the thin operands and shifts it by its own max; the result must
    # match the bound's shared shift
    rng = make_rng(53)
    for loss, drawn in _unsup_layouts(rng):
        for b in (drawn, with_full_mask(drawn)):
            value, *grads = loss(b, tau)
            monkeypatch.setattr(losses_mod, "_SUM_FLOOR", np.inf)
            all_value, *all_grads = loss(b, tau)
            monkeypatch.undo()
            assert value == pytest.approx(all_value, rel=1e-14)
            for g, all_g in zip(grads, all_grads):
                assert rel_error(g, all_g) < 1e-12


@pytest.mark.parametrize("tau", [1e-3, 0.5])
def test_unsup_gradients_with_every_row_repaired(monkeypatch, tau):
    monkeypatch.setattr(losses_mod, "_SUM_FLOOR", np.inf)
    repaired = _repaired_rows(monkeypatch)
    rng = make_rng(59)
    eps = 1e-6 * tau
    for loss, drawn in _unsup_layouts(rng):
        for b in (drawn, with_full_mask(drawn)):
            for v, g in enumerate(loss(b, tau)[1:]):

                def fn(z, b=b, v=v, loss=loss):
                    return loss(with_view(b, v, z), tau)[0]

                num = finite_diff_grad(fn, b.zs[v], eps=eps)
                assert rel_error(g, num) < GRAD_TOL
    assert sum(repaired) > 0


def _old_formulation(monkeypatch, loss, b, tau):
    """``loss`` on ``b`` with both unsupervised kernel cores in their
    earlier formulation: -inf at the dropped entries, then the exp."""
    with monkeypatch.context() as m:
        m.setattr(losses_mod, "_info_nce", old_info_nce)
        m.setattr(losses_mod, "_symmetric_info_nce", old_symmetric_info_nce)
        return loss(b, tau)


@pytest.mark.parametrize("tau", [1e-4, 0.5, 2.0])
@pytest.mark.parametrize("n", [7, 130])
def test_finite_exp_kernels_equal_old_formulation_bitwise(monkeypatch, tau, n):
    # zeroing the dropped entries after a finite exp (a 0/1 product with
    # the mask, a write of the diagonal on a full single-view complement,
    # the symmetric branch's self and partner entries) gives the bits of
    # exponentiating -inf there; at n = 130 a full two-view batch of one
    # width takes the symmetric branch, and at tau = 1e-4 rows are repaired
    repaired = _repaired_rows(monkeypatch)
    taken = symmetric_branch_calls(monkeypatch)
    rng = make_rng(83 + n)
    for loss, drawn in _unsup_layouts(rng, n):
        for b in (drawn, with_full_mask(drawn)):
            value, *grads = loss(b, tau)
            want_value, *want_grads = _old_formulation(monkeypatch, loss, b, tau)
            assert value == want_value
            for g, w in zip(grads, want_grads):
                assert np.array_equal(g, w)
    assert (sum(repaired) > 0) == (tau == 1e-4)
    # the plain and the weighted full batch of one width
    assert taken == ([True, True] if n == 130 else [])


def test_finite_exp_kernels_near_old_formulation_on_near_duplicates(
        monkeypatch):
    # at tau = 1e-20 a dropped entry can overflow; its product with 0 is
    # NaN, so its row is redone with its own max where the old formulation
    # kept the shared shift: finite, and equal to rounding
    rng = make_rng(89)
    for _ in range(10):
        for drawn in _near_duplicate_batches(rng, n=7):
            loss = unsup_loss_single if len(drawn.zs) == 1 \
                else unsup_loss_multiview
            sampled = dataclasses.replace(drawn,
                                          neg_mask=random_neg_mask(rng, 7))
            for b in (drawn, sampled, weighting(sampled, False)):
                with warnings.catch_warnings():
                    warnings.simplefilter("error", RuntimeWarning)
                    value, *grads = loss(b, 1e-20)
                want_value, *want_grads = _old_formulation(monkeypatch, loss,
                                                           b, 1e-20)
                assert math.isfinite(value)
                assert value == pytest.approx(want_value, rel=1e-12)
                for g, w in zip(grads, want_grads):
                    assert np.isfinite(g).all() and rel_error(g, w) <= 1e-12


def test_info_nce_redoes_a_row_whose_dropped_entry_overflows(monkeypatch):
    # a dropped entry past 709 above the shift exponentiates to inf, and
    # its product with 0 to NaN, so its row is redone with -inf there and
    # its own max; the old formulation kept that row's shared shift
    repaired = _repaired_rows(monkeypatch)
    rng = make_rng(101)
    pos = rng.uniform(-1.0, 1.0, (4, 2))
    neg = rng.uniform(-3.0, 0.0, (4, 5))
    neg[1, 2] = 1000.0
    keep = np.ones((4, 5), dtype=bool)
    keep[1, 2] = keep[3, 0] = False
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        terms, d_pos, d_neg = core_on_block(pos, neg, 0.0, keep)
    assert repaired == [1]
    assert not d_neg[~keep].any() and np.isfinite(d_neg).all()
    want_terms, want_d_pos, want_d_neg = core_on_block(
        pos, neg, 0.0, keep, core=old_info_nce)
    np.testing.assert_allclose(terms, want_terms, rtol=1e-12)
    np.testing.assert_allclose(d_pos, want_d_pos, rtol=1e-12)
    np.testing.assert_allclose(d_neg, want_d_neg, rtol=1e-12)


class _MatmulNumpy:
    """numpy, save that ``matmul`` records each call: whether it wrote into
    a given ``out``, and a copy of its result."""

    def __init__(self):
        self.calls = []

    def __getattr__(self, name):
        return getattr(np, name)

    def matmul(self, *args, **kwargs):
        result = np.matmul(*args, **kwargs)
        self.calls.append(("out" in kwargs, result.copy()))
        return result


@pytest.mark.parametrize("form", ["mask", "full"])
def test_info_nce_repair_reads_the_fresh_block_and_writes_only_redone_rows(
        monkeypatch, form):
    # rows 1 and 4 sit far below the bound, so their shared-shift sums
    # underflow and only they are redone: from a fresh product of their
    # block, indexed by them before -inf goes in, so neither the block's
    # buffer nor an operand is written. The full complement takes the
    # diagonal write before the repair.
    repaired = _repaired_rows(monkeypatch)
    products = _MatmulNumpy()
    monkeypatch.setattr(losses_mod, "np", products)
    rng = make_rng(103)
    n = 6
    pos = rng.uniform(-1.0, 1.0, (n, 2))
    neg = rng.uniform(-3.0, 0.0, (n, n))
    neg[[1, 4]] -= 1000.0
    mask = ~np.eye(n, dtype=bool)
    if form == "mask":
        mask[[2, 4], [5, 0]] = False
    keep = None if form == "full" else mask
    shifted = neg.copy()
    got = core_on_block(pos, shifted, 0.0, keep)
    assert repaired == [2]
    # the block into its buffer, then the repair's fresh product
    assert [into for into, _ in products.calls] == [True, False]
    assert all(np.array_equal(product, neg) for _, product in products.calls)
    assert np.array_equal(shifted, neg)
    want = core_on_block(pos, neg, 0.0, keep, core=old_info_nce)
    for g, w in zip(got, want, strict=True):
        assert np.array_equal(g, w)
    assert not got[2][~mask].any()


# ---------------------------------------------- row-blocked dense path
#
# _info_nce takes the anchor rows in blocks of _SYM_BAND_ROWS (128): product,
# exp, zeroing, sums, repair, terms and backward products per block.


def _block_calls(monkeypatch):
    """Record the rows of each block of ``_info_nce``, from its one call of
    ``losses._info_nce_terms`` per block."""
    seen = []
    info_nce_terms = losses_mod._info_nce_terms

    def spy(pos, lse_neg):
        seen.append(len(pos))
        return info_nce_terms(pos, lse_neg)

    monkeypatch.setattr(losses_mod, "_info_nce_terms", spy)
    return seen


def _block_rows(size, step=128):
    """The rows of each block of ``_info_nce`` over ``size`` anchor rows."""
    return [min(step, size - lo) for lo in range(0, size, step)]


@pytest.mark.parametrize("n", [1, 127, 128, 129, 257])
def test_info_nce_blocks_match_a_direct_logsumexp(monkeypatch, n):
    # n rows against n + 1 columns (so one row has a negative), in blocks of
    # 128 with a last block of 1 row at 129 and 257; the last row sits far
    # below the bound and is repaired in the last block. Every row against
    # scipy's logsumexp of its negatives, and c * e against the softmax.
    repaired = _repaired_rows(monkeypatch)
    rng = make_rng(107 + n)
    pos = rng.uniform(-1.0, 1.0, (n, 2))
    neg = rng.uniform(-3.0, 0.0, (n, n + 1))
    neg[-1] -= 1000.0
    keep = rng.random((n, n + 1)) < 0.7
    keep[np.arange(n), rng.integers(0, n + 1, n)] = True
    terms, d_pos, d_logits = core_on_block(pos, neg, 0.0, keep)
    assert repaired == [1]
    lse = logsumexp(np.where(keep, neg, -np.inf), axis=1, keepdims=True)
    t = np.logaddexp(pos, lse)
    np.testing.assert_allclose(terms, t - pos, rtol=1e-12)
    np.testing.assert_allclose(d_pos, np.exp(pos - t) - 1.0, rtol=1e-12,
                               atol=1e-15)
    d_neg = np.where(keep, np.exp(neg[:, :, None] - t[:, None, :]).sum(axis=2),
                     0.0)
    np.testing.assert_allclose(d_logits, d_neg, rtol=1e-12, atol=1e-300)
    want = core_on_block(pos, neg, 0.0, keep, core=old_info_nce)
    for g, w in zip((terms, d_pos, d_logits), want, strict=True):
        assert np.array_equal(g, w)


@pytest.mark.parametrize("trained", [False, True])
@pytest.mark.parametrize("form, n", [("mask", n) for n in (1, 127, 128, 129, 257)]
                         # one anchor's full complement has no negative
                         + [("full", n) for n in (127, 128, 129, 257)])
def test_info_nce_returns_the_dense_backward_products(monkeypatch, form, n,
                                                      trained):
    # d_neg = (c * e).T @ col, plus (c * e) @ row when the anchors are
    # trained, with c * e the gradient of the summed terms in the negative
    # logits, here from scipy's logsumexp; one block up to 128 rows, then
    # 128 + 1 and 128 + 128 + 1. The last row's logits, its positives' too,
    # sit far below the bound, so it is repaired in the last block and its
    # gradient does not vanish.
    repaired = _repaired_rows(monkeypatch)
    rng = make_rng(139 + n)
    pos = rng.uniform(-1.0, 1.0, (n, 2))
    neg = rng.uniform(-3.0, 0.0, (n, n))
    neg[-1] -= 1000.0
    pos[-1] -= 1000.0
    if form == "full":
        keep, mask = None, ~np.eye(n, dtype=bool)
    else:
        keep = mask = rng.random((n, n)) < 0.7
        keep[np.arange(n), rng.integers(0, n, n)] = True
    col, row = rng.normal(size=(2, n, 4))
    row = row if trained else None
    terms, d_pos, d_neg = _info_nce(pos, neg, np.eye(n), 0.0, keep, col, row)
    assert repaired == [1]
    t = np.logaddexp(pos, logsumexp(np.where(mask, neg, -np.inf), axis=1,
                                     keepdims=True))
    d_logits = np.where(mask, np.exp(neg[:, :, None] - t[:, None, :])
                        .sum(axis=2), 0.0)
    want = d_logits.T @ col + (0.0 if row is None else d_logits @ row)
    assert np.abs(d_neg - want).max() <= 1e-12 * np.abs(want).max()
    np.testing.assert_allclose(terms, t - pos, rtol=1e-12)


@pytest.mark.parametrize("form", ["mask", "full"])
def test_info_nce_blocks_of_three_rows_keep_every_bit(monkeypatch, form):
    # every step before the backward is row-local, so blocks of 3 rows
    # (3 + 3 + 3 + 2) give the terms, d_pos and c * e of one block of all
    # 11 rows bit for bit (each block adds exact zeros to the other blocks'
    # entries of c * e); row 7 sits far below the bound and is repaired in
    # the third block
    repaired = _repaired_rows(monkeypatch)
    rng = make_rng(109)
    n = 11
    pos = rng.uniform(-1.0, 1.0, (n, 2))
    neg = rng.uniform(-3.0, 0.0, (n, n))
    neg[7] -= 1000.0
    keep = None if form == "full" else random_neg_mask(rng, n)
    whole = core_on_block(pos, neg, 0.0, keep)
    monkeypatch.setattr(losses_mod, "_SYM_BAND_ROWS", 3)
    blocked = core_on_block(pos, neg, 0.0, keep)
    assert repaired == [1, 1]
    for g, w in zip(blocked, whole, strict=True):
        assert np.array_equal(g, w)


@pytest.mark.parametrize("tau", [1e-4, 0.5])
def test_blocks_of_three_rows_move_losses_by_rounding_only(monkeypatch, tau):
    # the backward products of a multi-block call sum over blocks, so its
    # gradients agree with one block's to rounding; the symmetric branch is
    # off, so the full two-view batch of one width runs the dense path too
    rng = make_rng(113)
    layouts = [(unsup_loss_single, single_view_batch(rng, n=11, project=True)),
               (unsup_loss_multiview, two_view_batch(rng, n=7, d1=3)),
               (unsup_loss_multiview, two_view_batch(rng, n=7, d1=3, d2=4))]
    for loss, drawn in layouts:
        for b in (drawn, with_full_mask(drawn)):
            want = loss(b, tau)
            with monkeypatch.context() as m:
                m.setattr(losses_mod, "_SYM_BAND_ROWS", 3)
                m.setattr(losses_mod, "_symmetric_info_nce",
                          lambda *args: None)
                blocks = _block_calls(m)
                got = loss(b, tau)
            assert blocks == _block_rows(len(b.zs) * b.n, 3)
            _agree(got, want, tol=1e-13)


def _check_against_oracles(loss, b, tau, rng):
    """``loss`` on ``b``: its value within 1e-12 of the loop oracle, and its
    gradients against finite differences along three random directions of
    the stacked embeddings (view 1's rows, then view 2's, as the kernel
    lays out its anchor rows): over every row, over the first block's rows
    and over the last block's."""
    value, *grads = loss(b, tau)
    neg_sets = neg_sets_from_mask(mask_of(b))
    if loss is unsup_loss_single:
        want = ref_unsup_single(b.x_sim, b.xs[0], b.zs[0], neg_sets, tau, True)
    else:
        want = ref_unsup_multiview(*b.xs, *b.zs, neg_sets, tau, True)
    assert value == pytest.approx(want, rel=1e-12)
    z = np.vstack(b.zs)
    dirs = rng.normal(size=(3, *z.shape))
    dirs[1, 128:] = 0.0
    dirs[2, :(len(z) - 1) // 128 * 128] = 0.0

    def fn(t):
        moved = np.split(z + np.tensordot(t, dirs, axes=1), len(b.zs))
        return loss(dataclasses.replace(b, zs=moved), tau)[0]

    num = finite_diff_grad(fn, np.zeros(3), eps=1e-5 * tau)
    assert rel_error(np.tensordot(dirs, np.vstack(grads), axes=2), num) \
        < GRAD_TOL


@pytest.mark.parametrize("tau", [1e-4, 0.5])
@pytest.mark.parametrize("n", [127, 128, 129, 257])
def test_single_view_blocks_match_oracles(monkeypatch, n, tau):
    # one block at 127 and 128 rows, then 128 + 1 and 128 + 128 + 1
    rng = make_rng(127 + n)
    drawn = single_view_batch(rng, n=n, d=3, dz=2, project=True)
    blocks = _block_calls(monkeypatch)
    for b in (drawn, with_full_mask(drawn)):
        _check_against_oracles(unsup_loss_single, b, tau, rng)
    calls = _block_rows(n)
    assert blocks[:2 * len(calls)] == calls * 2


@pytest.mark.parametrize("tau", [1e-4, 0.5])
@pytest.mark.parametrize("n", [63, 65])
def test_two_view_dense_blocks_match_oracles(monkeypatch, n, tau):
    # 2n = 126 rows make one block, 130 make 128 + 2; under 128 anchors even
    # the full batch of one width runs the dense path, as does the proxy
    taken = symmetric_branch_calls(monkeypatch)
    rng = make_rng(131 + n)
    blocks = _block_calls(monkeypatch)
    for drawn in (two_view_batch(rng, n=n, dz=2, d1=3),
                  two_view_batch(rng, n=n, dz=2, d1=3, d2=4)):
        for b in (drawn, with_full_mask(drawn)):
            _check_against_oracles(unsup_loss_multiview, b, tau, rng)
    assert taken == []
    first = _block_rows(2 * n)
    assert blocks[:len(first)] == first


def test_single_view_kernel_builds_no_n_by_n_block():
    # at full-plan's n = 1000 the (n, n) float block alone is 8 MB; the
    # blocked path's buffer and a repair's fresh block are (128, n)
    n = 1000
    rng = make_rng(137)
    b = ContrastiveBatch(zs=[rng.normal(size=(n, 16))],
                         xs=[rng.normal(size=(n, 20))],
                         x_sim=rng.normal(size=(n, 16)),
                         neg_mask=None)
    unsup_loss_single(b, 0.5)
    tracemalloc.start()
    try:
        unsup_loss_single(b, 0.5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < n * n * 8 / 2


@pytest.mark.parametrize("n", [7, 130, 300])
@pytest.mark.parametrize("tau", [1e-4, 0.5, 2.0])
def test_full_complement_diagonal_write_equals_mask_product(n, tau):
    # the single-view kernel zeroes the full complement's diagonal by one
    # strided write; a mask equal to it, a general mask, takes the 0/1 product
    # with the mask's rows and must give the same bits (n = 300: blocks of
    # 128, 128 and 44 rows)
    rng = make_rng(107)
    drawn = with_full_mask(single_view_batch(rng, n=n, project=True))
    copy = ~np.eye(n, dtype=bool)
    for weighted in (True, False):
        b = weighting(drawn, weighted)
        value, grad = unsup_loss_single(b, tau)
        want_value, want_grad = unsup_loss_single(
            dataclasses.replace(b, neg_mask=copy), tau)
        assert value == want_value
        assert np.array_equal(grad, want_grad)


@pytest.mark.parametrize("tau", [1e-4, 0.5])
def test_full_complement_copy_takes_the_two_view_dense_path(monkeypatch, tau):
    # a mask equal to the full complement is a general mask, so the
    # two-view kernel runs its dense path for it: only a neg_mask of None
    # reaches the symmetric branch, and the two agree to rounding
    taken = symmetric_branch_calls(monkeypatch)
    n = 130
    b = with_full_mask(two_view_batch(make_rng(139), n=n, d1=3))
    copy = dataclasses.replace(b, neg_mask=~np.eye(n, dtype=bool))
    for weighted in (True, False):
        calls = len(taken)
        want = unsup_loss_multiview(weighting(copy, weighted), tau)
        assert len(taken) == calls
        _agree(unsup_loss_multiview(weighting(b, weighted), tau), want,
               tol=1e-12)
        assert len(taken) == calls + 1


class _FiniteExpNumpy:
    """numpy, save that ``exp`` refuses -inf input."""

    def __getattr__(self, name):
        return getattr(np, name)

    @staticmethod
    def exp(x, *args, **kwargs):
        if np.isneginf(x).any():
            raise AssertionError("a contrastive exp read -inf")
        return np.exp(x, *args, **kwargs)


@pytest.mark.parametrize("tau", [1e-4, 0.5])
def test_no_contrastive_exp_reads_neg_inf(monkeypatch, tau):
    # -inf stays in the repair rows handed to row_logsumexp (numeric's own
    # numpy); every exp in hcl.losses reads finite input: the dense paths
    # on sampled and full masks, the symmetric branch, the supervised
    # engine with label and with indicator weights
    monkeypatch.setattr(losses_mod, "_SYM_BAND_ROWS", 3)
    monkeypatch.setattr(losses_mod, "np", _FiniteExpNumpy())
    taken = symmetric_branch_calls(monkeypatch)
    repaired = _repaired_rows(monkeypatch)
    rng = make_rng(97)
    for loss, drawn in _unsup_layouts(rng):
        for b in (drawn, with_full_mask(drawn)):
            assert math.isfinite(loss(b, tau)[0])
    s, one_hot, multi = _sup_data(rng)
    for y in (one_hot, one_hot[:, :1], multi):
        assert math.isfinite(weighted_sup_loss(s, y, tau)[0])
    # two full batches of one width; at tau = 1e-4 both fall back
    assert taken == [tau == 0.5] * 2
    assert (sum(repaired) > 0) == (tau == 1e-4)


@pytest.mark.parametrize("tau", [0.05, 0.5, 2.0])
def test_unsup_bound_covers_every_logit(monkeypatch, tau):
    # A bound below some logit costs only speed, as repair gives the right
    # values, so check the bound itself: it is at least every unshifted
    # logit up to rounding, no row reaches the repair, and no full batch of
    # a symmetric product falls back. 2n = 12 rows make two bands of 6.
    monkeypatch.setattr(losses_mod, "_SYM_BAND_ROWS", 6)
    repaired = _repaired_rows(monkeypatch)
    taken = symmetric_branch_calls(monkeypatch)
    operands = losses_mod._logit_operands
    excess = []

    def spy(*args):
        left, right, bound = operands(*args)
        # left @ right.T holds each logit minus the bound
        excess.append(np.max(left @ right.T) / (1.0 + bound))
        return left, right, bound

    monkeypatch.setattr(losses_mod, "_logit_operands", spy)
    for loss, drawn in _unsup_layouts(make_rng(79)):
        for b in (drawn, with_full_mask(drawn)):
            loss(b, tau)
    assert len(excess) == 10 and max(excess) <= 1e-14
    assert repaired == []
    assert taken == [True, True]  # two views of one width, plain and weighted


def test_public_losses_invariant_sweep():
    # seeded random shapes, negative masks and temperatures through the
    # three public contrastive losses
    rng = make_rng(29)
    for _ in range(120):
        n = int(rng.integers(3, 11))
        tau = 10.0 ** rng.uniform(-2.0, 1.0)
        single = single_view_batch(rng, n=n, project=bool(rng.integers(2)))
        two = two_view_batch(rng, n=n)
        results = [loss(weighting(batch, weighted), tau)
                   for loss, batch in ((unsup_loss_single, single),
                                       (unsup_loss_multiview, two))
                   for weighted in (True, False)]

        # raw rows all parallel: every weight is 1, so weighting is a no-op
        base = rng.normal(size=single.xs[0].shape[1])
        scales = rng.uniform(0.1, 3.0, size=(2, n))
        flat = dataclasses.replace(single, xs=[np.outer(scales[0], base)])
        flat2 = dataclasses.replace(two, xs=[np.outer(scales[0], base),
                                             np.outer(scales[1], base)])
        for loss, batch in ((unsup_loss_single, flat),
                            (unsup_loss_multiview, flat2)):
            w = loss(batch, tau)[0]
            assert w == pytest.approx(loss(weighting(batch, False), tau)[0],
                                      rel=1e-12, abs=1e-12)

        c = int(rng.integers(2, 5))
        s = rng.normal(size=(n, int(rng.integers(2, 6))))
        ids = rng.integers(0, c, size=n)
        ids[:3] = [0, 0, 1]  # label 0 has two positives and a negative
        one_hot = np.eye(c)[ids]
        v_w, g_w = weighted_sup_loss(s, one_hot, tau)
        assert v_w == pytest.approx(
            ref_weighted_sup(s, one_hot, tau, indicator=True), rel=1e-12)
        multi = (rng.random((n, c)) < 0.5).astype(float)
        multi[:3, 0] = [1.0, 1.0, 0.0]
        results += [(v_w, g_w), weighted_sup_loss(s, multi, tau)]

        for value, *grads in results:
            assert value >= 0.0
            for g in grads:
                assert np.isfinite(g).all()


# ------------------------------------------- bookkeeping, bit for bit


def test_empty_batch_is_refused_by_name():
    # zero anchors pass every per-row check vacuously; the batch refuses
    # them rather than letting a loss average nothing into NaN
    for zs in ([np.zeros((0, 3))], [np.zeros((0, 3)), np.zeros((0, 3))]):
        with pytest.raises(DegenerateBatchError, match="at least one anchor"):
            ContrastiveBatch(zs, np.zeros((0, 0), dtype=bool))


def test_unnormalize_rows_with_zero_norm_rows():
    # the norms that _unit_rows_norms returns stand in for recomputing them
    # from the raw rows; zero-norm rows (exact, and below the threshold)
    # get a zero gradient, and every other row the earlier bits
    rng = make_rng(67)
    raw = rng.normal(size=(9, 6))
    d_unit = rng.normal(size=raw.shape)
    for zero in ([], [0, 3, 8]):
        m = raw.copy()
        m[zero[:2]] = 0.0
        m[zero[2:]] *= 1e-14
        unit, norms = _unit_rows_norms(m)
        got = losses_mod._unnormalize_rows(d_unit, unit, norms)
        assert np.array_equal(got, old_unnormalize_rows(d_unit, m, unit))
        assert not got[zero].any()


@pytest.mark.parametrize("tau", [1e-4, 0.5])
def test_logit_operands_bitwise_equal_hstack(tau):
    # each operand is written into one buffer; its entries, and so the
    # product's, are the hstack form's bit for bit, plain and weighted
    rng = make_rng(71)
    uh, vh = unit_rows(rng.normal(size=(12, 5))), unit_rows(rng.normal(size=(9, 5)))
    xa, xb = unit_rows(rng.normal(size=(12, 4))), unit_rows(rng.normal(size=(9, 4)))
    for args in ((), (xa, xb)):
        left, right, bound = losses_mod._logit_operands(uh, vh, tau, *args)
        want_left, want_right, want_bound = old_logit_operands(uh, vh, tau, *args)
        assert bound == want_bound
        assert np.array_equal(left, want_left)
        assert np.array_equal(right, want_right)
        assert left.flags.c_contiguous and right.flags.c_contiguous
        assert np.array_equal(left @ right.T, want_left @ want_right.T)


@pytest.mark.parametrize("n, dz", [(3, 2), (8, 16), (64, 16), (130, 37)])
def test_two_view_positives_bitwise_equal_2n_row_einsum(monkeypatch, n, dz):
    # one dot per (view-1, view-2) row pair, written to both halves, is the
    # 2n-row einsum of each row with its partner, bit for bit
    seen = []

    def spy(pos, *args):
        seen.append(pos)
        return _info_nce(pos, *args)

    monkeypatch.setattr(losses_mod, "_info_nce", spy)
    rng = make_rng(73)
    b = two_view_batch(rng, n=n, dz=dz)
    unsup_loss_multiview(b, 0.3)
    assert np.array_equal(seen[0], old_two_view_pos(unit_rows(np.vstack(b.zs)), 0.3))


@pytest.mark.parametrize("tau", [0.5, 1e-4])
def test_sup_engine_repairs_only_when_a_sum_needs_it(monkeypatch, tau):
    # at tau = 0.5 no (anchor, label) sum leaves [floor, inf), so the engine
    # never reaches row_logsumexp; at tau = 1e-4 some do, and it repairs
    # them. Either way terms, value and gradient keep the bits of the
    # earlier engine, which ran its repair block on every call.
    s, one_hot, multi = _sup_data(make_rng(41))
    for y, indicator in ((one_hot, True), (multi, False)):
        with monkeypatch.context() as m:
            repaired = _repaired_rows(m)
            terms, value, grad = losses_mod._sup_engine(s, sup_labels(y), tau)
        want_terms, want_value, want_grad = old_sup_engine(s, y, tau, indicator)
        assert bool(repaired) == (tau == 1e-4)
        assert np.array_equal(terms, want_terms)
        assert value == want_value
        assert np.array_equal(grad, want_grad)


def _label_sweep(rng, n=9):
    """Label matrices of ``n`` rows for the label half: one-hot, a single
    column, multi-label, a label every row holds, and a row with no label."""
    one_hot = np.eye(3)[np.arange(n) % 3]
    multi = (rng.random((n, 4)) < 0.5).astype(float)
    multi[:3, 0] = [1.0, 1.0, 0.0]
    held_by_all = multi.copy()
    held_by_all[:, 2] = 1.0  # never valid: no row is its negative
    no_label = multi.copy()
    no_label[4] = 0.0
    return {"one-hot": one_hot, "one column": one_hot[:, :1],
            "multi-label": multi, "held by every row": held_by_all,
            "row with no label": no_label}


@pytest.mark.parametrize("tau", [0.5, 1e-4])
def test_label_half_gives_the_bits_of_the_whole_loss(monkeypatch, tau):
    # one label half serves several embedding batches, each bit-equal to
    # weighted_sup_loss handed that half as y, to weighted_sup_loss making
    # its half afresh and to the engine before the split; at tau = 1e-4 the
    # repair runs and reads the kept logits
    rng = make_rng(61)
    repairs = _repaired_rows(monkeypatch)
    for name, y in _label_sweep(rng).items():
        half = sup_labels(y)
        for _ in range(3):
            s = rng.normal(size=(len(y), 4))
            _, value, grad = losses_mod._sup_engine(s, half, tau)
            for given in (half, y):
                want_value, want_grad = weighted_sup_loss(s, given, tau)
                assert value == want_value, name
                assert np.array_equal(grad, want_grad), name
            _, old_value, old_grad = old_sup_engine(
                s, y, tau, losses_mod._is_one_hot(y))
            assert value == old_value and np.array_equal(grad, old_grad), name
    assert bool(repairs) == (tau == 1e-4)


def test_sup_labels_makes_a_fresh_half_on_every_call():
    # a pure maker: the same label rows give equal halves, never one kept
    y = np.eye(3)[[0, 0, 1, 1, 2, 2]]
    half, again = sup_labels(y), sup_labels(y.copy())
    assert again is not half
    for field in dataclasses.fields(half):
        assert np.array_equal(getattr(again, field.name),
                              getattr(half, field.name)), field.name


def test_label_half_is_read_only_and_switches_like_the_loss():
    rng = make_rng(62)
    for name, y in _label_sweep(rng).items():
        half = sup_labels(y)
        one_hot = losses_mod._is_one_hot(y)
        assert (half.log_gamma is None) == one_hot, name
        assert (half.log_sigma is None) == one_hot, name
        assert half.shift == (0.0 if one_hot else np.log(y.shape[1])), name
        n, g = half.not_y.shape
        # pair p is (anchor i, partner j) as i * n + j, key its (anchor,
        # label) sum as i * g + pa
        i, j = np.divmod(half.pair, n)
        assert np.all(i != j), name
        assert np.array_equal(np.divmod(half.key, g), (i, half.pa)), name
        assert np.array_equal(half.count, np.bincount(half.pa))
        for field in dataclasses.fields(half):
            array = getattr(half, field.name)
            if isinstance(array, np.ndarray):
                with pytest.raises(ValueError, match="read-only"):
                    array.flat[0] = array.flat[0]


def test_label_half_refuses_what_the_loss_refuses():
    with pytest.raises(ContractError, match="binary"):
        sup_labels(np.array([[0.5, 1.0], [1.0, 0.0]]))
    with pytest.raises(DegenerateBatchError, match="positives per label"):
        sup_labels(np.array([[1.0, 0.0], [1.0, 0.0]]))
    half = sup_labels(np.eye(2)[[0, 0, 1, 1]])
    with pytest.raises(ContractError, match="temperature"):
        losses_mod._sup_engine(np.eye(4), half, 0.0)


@pytest.mark.parametrize("tau", [0.5, 1e-4])
def test_label_half_gradient_matches_finite_differences(tau):
    rng = make_rng(63)
    for name, y in _label_sweep(rng, n=7).items():
        half = sup_labels(y)
        s = rng.normal(size=(len(y), 3))
        grad = losses_mod._sup_engine(s, half, tau)[2]
        # a sharp temperature needs a step below the loss's curvature scale
        num = finite_diff_grad(lambda x: losses_mod._sup_engine(x, half, tau)[1],
                               s, eps=1e-5 if tau == 0.5 else 1e-8)
        assert rel_error(grad, num) < GRAD_TOL, name


# ------------------------------------------------------ the full complement


def test_shared_full_mask_is_read_only_and_known_without_a_scan():
    # the full complement is the value None: nothing can write it, and the
    # batch takes it as it is without building or reading an n x n mask
    z = make_rng(64).normal(size=(6, 3))
    assert ContrastiveBatch([z], None, x_sim=z).neg_mask is None
    n = 2000
    wide = np.ones((n, 1))
    tracemalloc.start()
    try:
        assert ContrastiveBatch([wide], None).neg_mask is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * n / 2
    # a mask equal to it is a general mask that passes the batch's checks,
    # and one flipped entry of it is checked and refused
    copy = ~np.eye(6, dtype=bool)
    assert ContrastiveBatch([z], copy, x_sim=z).neg_mask is copy
    copy[3, 3] = True
    with pytest.raises(ContractError, match="own negative set"):
        ContrastiveBatch([z], copy, x_sim=z)


def test_shared_full_mask_of_one_anchor_is_still_refused():
    # one anchor's full complement is empty
    with pytest.raises(DegenerateBatchError, match="empty negative set"):
        ContrastiveBatch([np.ones((1, 2))], None, x_sim=np.ones((1, 2)))


# ------------------------------------------------------------- total loss


def test_total_loss_combination():
    bd = total_loss(1.0, 2.0, 3.0, alpha=0.5, beta=0.1)
    assert bd.j == pytest.approx(2.3, abs=1e-12)
    assert (bd.l_c, bd.l_u, bd.l_s) == (1.0, 2.0, 3.0)


def test_total_loss_rejects_negative_weights():
    with pytest.raises(ContractError):
        total_loss(1.0, 1.0, 1.0, alpha=-0.1, beta=0.0)


@pytest.mark.parametrize("terms, alpha, beta", [
    ((1.0, 2.0, 3.0), 1e308, 1e308),  # finite weights whose products overflow
    ((1.0, math.nan, 3.0), 0.5, 0.1),
    ((math.inf, 2.0, 3.0), 0.5, 0.1),
])
def test_total_loss_rejects_non_finite_objective_by_name(terms, alpha, beta):
    with pytest.raises(NumericError, match=r"objective j .* alpha=.*beta="):
        total_loss(*terms, alpha=alpha, beta=beta)
