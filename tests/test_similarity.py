"""The kernel temperature and the contrastive weights of ``hcl.losses``.

The weights are checked in the log form that gets added to the logits:
``reference.ref_log_weight`` for the raw-input weight exp(1 - cos) (the
definition the kernels' fused product is tested against) and
``_label_log_weights`` for the label weights sigma and gamma.
"""

import math
import sys

import numpy as np
import pytest

from hcl.errors import ContractError
from hcl.losses import (
    ContrastiveBatch,
    _label_log_weights,
    unsup_loss_multiview,
    unsup_loss_single,
    weighted_sup_loss,
)
from hcl.mi import BoundTrainSpec
from hcl.numeric import make_rng

from reference import ref_hamming, ref_log_weight


_Z, _W = make_rng(0).normal(size=(2, 4, 3))
_Y = np.eye(2)[[0, 0, 1, 1]]
# every place a temperature enters, on inputs that are otherwise valid
TAU_ENTRY_POINTS = {
    "unsup_loss_single": lambda tau: unsup_loss_single(
        ContrastiveBatch([_Z], None, x_sim=_W), tau),
    "unsup_loss_multiview": lambda tau: unsup_loss_multiview(
        ContrastiveBatch([_Z, _W], None), tau),
    # one-hot rows take the indicator weights, one column the label weights
    "weighted_sup_loss": lambda tau: weighted_sup_loss(_Z, _Y, tau),
    "weighted_sup_loss_one_column": lambda tau: weighted_sup_loss(
        _Z, _Y[:, :1], tau),
    "BoundTrainSpec": lambda tau: BoundTrainSpec(temperature=tau),
}


# the smallest positive float, and the largest whose reciprocal overflows
TINY_TAUS = [5e-324, 1 / sys.float_info.max]


@pytest.mark.parametrize("entry", list(TAU_ENTRY_POINTS))
@pytest.mark.parametrize("tau", [0.0, -1.0, float("nan"), *TINY_TAUS])
def test_temperature_must_be_positive(entry, tau):
    TAU_ENTRY_POINTS[entry](0.5)  # the inputs are valid
    with pytest.raises(ContractError, match="temperature must be positive "
                       "with a finite reciprocal"):
        TAU_ENTRY_POINTS[entry](tau)


@pytest.mark.parametrize("entry", list(TAU_ENTRY_POINTS))
def test_smallest_temperature_with_finite_reciprocal_passes(entry):
    # the losses may overflow at this scale; the check must let it through
    with np.errstate(all="ignore"):
        TAU_ENTRY_POINTS[entry](math.nextafter(1 / sys.float_info.max, 1.0))


def test_weight_g_known_values():
    v = np.array([[1.0, 2.0, -0.5]])
    assert ref_log_weight(v, 2.5 * v)[0, 0] == pytest.approx(0.0, abs=1e-12)
    assert ref_log_weight(v, -v)[0, 0] == pytest.approx(2.0, abs=1e-12)
    # A zero-norm row has cosine 0 with everything: log-weight exactly 1.
    assert ref_log_weight(np.zeros((1, 3)), v)[0, 0] == 1.0


def test_weight_g_range_many_inputs():
    rng = make_rng(1)
    for _ in range(2000):
        d = int(rng.integers(1, 6))
        a = rng.normal(size=(1, d)) * float(rng.uniform(0.1, 10))
        b = rng.normal(size=(1, d)) * float(rng.uniform(0.1, 10))
        lw = ref_log_weight(a, b)[0, 0]
        # The cosine is clipped to [-1, 1], so the log-weight is in [0, 2].
        assert 0.0 <= lw <= 2.0


def test_hamming_matches_counting_oracle():
    rng = make_rng(2)
    for _ in range(200):
        c = int(rng.integers(1, 12))
        y = rng.integers(0, 2, size=(5, c)).astype(float)
        log_sigma, log_gamma = _label_log_weights(y, ...)
        for i in range(5):
            for k in range(5):
                h = ref_hamming(y[i], y[k])
                # Identical rows (h = 0) are never a negative pair, and
                # their log gamma is log 1 = 0, so that no exp reads -inf.
                assert np.exp(log_gamma[i, k]) == pytest.approx(max(h, 1),
                                                                rel=1e-12)
                assert np.exp(log_sigma[i, k]) == pytest.approx(
                    (c - h) / c, rel=1e-12)


def test_hamming_product_equals_broadcast_bitwise():
    # _label_log_weights counts hamming distances by a product; the counts
    # are exact integers in float64, so its log-weights equal those of the
    # (n, n, c) broadcast count bit for bit
    rng = make_rng(5)
    for _ in range(200):
        n, c = int(rng.integers(2, 130)), int(rng.integers(1, 12))
        y = (rng.random((n, c)) < rng.uniform(0.1, 0.9)).astype(float)
        ham = np.sum(y[:, None, :] != y[None, :, :], axis=2).astype(np.float64)
        with np.errstate(divide="ignore"):
            want = (np.log(np.maximum((c - ham) / c, 0.0)),
                    np.log(np.maximum(ham, 1.0)))
        for got, ref in zip(_label_log_weights(y, ...), want):
            assert got.tobytes() == ref.tobytes()


def test_pos_weight_sigma_values_and_range():
    log_sigma, _ = _label_log_weights(np.array([[1.0, 0.0, 1.0]] * 2), ...)
    assert log_sigma[0, 1] == 0.0
    log_sigma, _ = _label_log_weights(np.array([[1.0, 0.0, 1.0, 0.0],
                                                [1.0, 1.0, 1.0, 0.0]]), ...)
    assert np.exp(log_sigma[0, 1]) == pytest.approx(0.75)
    rng = make_rng(3)
    checked = 0
    while checked < 2000:
        c = int(rng.integers(1, 10))
        y = rng.integers(0, 2, size=(2, c)).astype(float)
        if not np.any((y[0] == 1) & (y[1] == 1)):
            continue  # not a positive pair for any label
        log_sigma, _ = _label_log_weights(y, ...)
        assert np.log(1.0 / c) <= log_sigma[0, 1] <= 0.0
        checked += 1


def test_neg_weight_gamma_values_and_range():
    _, log_gamma = _label_log_weights(np.array([[1.0, 0.0], [0.0, 1.0]]), ...)
    assert np.exp(log_gamma[0, 1]) == pytest.approx(2.0)
    rng = make_rng(4)
    checked = 0
    while checked < 2000:
        c = int(rng.integers(1, 10))
        y = rng.integers(0, 2, size=(2, c)).astype(float)
        if np.array_equal(y[0], y[1]):
            continue
        _, log_gamma = _label_log_weights(y, ...)
        assert 0.0 <= log_gamma[0, 1] <= np.log(c)
        assert np.exp(log_gamma[0, 1]) == pytest.approx(
            ref_hamming(y[0], y[1]), rel=1e-12)
        checked += 1
