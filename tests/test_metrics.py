"""F1 and AUC against brute-force counting/pairwise oracles."""

import numpy as np
import pytest
from scipy.stats import rankdata

from hcl.errors import ContractError, DegenerateBatchError, ShapeError
from hcl.metrics import (
    EvalReport,
    _midranks,
    auc,
    evaluate,
    f1_score,
    per_label_auc,
)
from hcl.numeric import make_rng

from oracles import ref_auc_pairwise, ref_f1_micro


def test_f1_perfect_predictions():
    y = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    assert f1_score(y * 0.9 + 0.05, y) == 1.0


def test_f1_all_negative_predictions():
    y = np.array([[1.0, 0.0], [0.0, 1.0]])
    assert f1_score(np.zeros((2, 2)) + 0.1, y) == 0.0


def test_f1_empty_denominator_returns_zero():
    y = np.zeros((3, 2))
    assert f1_score(np.full((3, 2), 0.2), y) == 0.0


def test_f1_matches_counting_oracle():
    rng = make_rng(0)
    for _ in range(40):
        n, c = int(rng.integers(2, 30)), int(rng.integers(1, 8))
        y = rng.integers(0, 2, size=(n, c)).astype(float)
        scores = rng.uniform(size=(n, c))
        got = f1_score(scores, y)
        want = ref_f1_micro(y, (scores > 0.5).astype(float))
        assert got == want


def test_f1_multiclass_argmax():
    scores = np.array([[0.2, 0.5, 0.3], [0.9, 0.05, 0.05]])
    y = np.array([[0.0, 1.0, 0.0], [0.0, 1.0, 0.0]])
    # row 1 predicted class 1 (correct), row 2 predicted class 0 (wrong)
    got = f1_score(scores, y, multiclass=True)
    assert got == pytest.approx(ref_f1_micro(y, np.array([[0, 1, 0], [1, 0, 0]])))


def test_f1_one_iff_exact_match_property():
    rng = make_rng(1)
    for _ in range(30):
        n, c = int(rng.integers(2, 15)), int(rng.integers(1, 5))
        y = rng.integers(0, 2, size=(n, c)).astype(float)
        if y.sum() == 0:
            continue
        scores = rng.uniform(size=(n, c))
        exact = np.array_equal((scores > 0.5).astype(float), y)
        assert (f1_score(scores, y) == 1.0) == exact


def test_f1_validation():
    y = np.ones((2, 2))
    with pytest.raises(ShapeError):
        f1_score(np.ones((2, 3)), y)
    with pytest.raises(ContractError):
        f1_score(np.ones((2, 2)), y, threshold=1.0)
    with pytest.raises(ContractError):
        f1_score(np.ones((2, 2)), y * 2.0)


def test_auc_perfect_ordering():
    scores = np.array([[0.9], [0.8], [0.2], [0.1]])
    y = np.array([[1.0], [1.0], [0.0], [0.0]])
    assert auc(scores, y) == 1.0


def test_auc_all_ties_is_half():
    scores = np.full((6, 2), 0.4)
    y = np.array([[1, 0], [0, 1], [1, 1], [0, 0], [1, 0], [0, 1]], dtype=float)
    assert auc(scores, y) == 0.5


def test_auc_matches_pairwise_oracle():
    rng = make_rng(2)
    checked = 0
    for _ in range(60):
        n, c = int(rng.integers(3, 40)), int(rng.integers(1, 4))
        y = rng.integers(0, 2, size=(n, c)).astype(float)
        # quantized scores force ties through the midrank path
        scores = np.round(rng.uniform(size=(n, c)), 1)
        per = per_label_auc(scores, y)
        vals = []
        for j in range(c):
            want = ref_auc_pairwise(list(scores[:, j]), list(y[:, j]))
            if want is None:
                assert np.isnan(per[j])
            else:
                assert abs(per[j] - want) < 1e-12
                vals.append(want)
                checked += 1
        if vals:
            assert abs(auc(scores, y) - np.mean(vals)) < 1e-12
    assert checked > 50


def test_midranks_equal_rankdata_bitwise():
    # criterion 9's oracle scores are continuous; here ties dominate
    rng = make_rng(12)
    cols = [np.array([0.3]), np.full(7, -1.5), np.array([2.0, 2.0])]
    for _ in range(400):
        n = int(rng.integers(1, 80))
        levels = int(rng.integers(1, 6))
        cols.append(rng.integers(0, levels, size=n) / levels)
        cols.append(np.round(rng.normal(size=n), 1))
    for col in cols:
        assert _midranks(col).tobytes() == rankdata(col).tobytes(), col


def test_auc_monotone_transform_invariance():
    rng = make_rng(3)
    scores = rng.uniform(size=(25, 3))
    y = rng.integers(0, 2, size=(25, 3)).astype(float)
    a = auc(scores, y)
    b = auc(np.exp(3.0 * scores) + 1.0, y)
    assert abs(a - b) < 1e-12


def test_auc_flip_symmetry():
    rng = make_rng(4)
    scores = rng.uniform(size=(30, 2))
    y = rng.integers(0, 2, size=(30, 2)).astype(float)
    a = auc(scores, y)
    # either flip alone complements the AUC; flipping both restores it
    assert abs(auc(scores, 1.0 - y) - (1.0 - a)) < 1e-12
    assert abs(auc(1.0 - scores, y) - (1.0 - a)) < 1e-12
    assert abs(auc(1.0 - scores, 1.0 - y) - a) < 1e-12


def test_auc_degenerate_raises():
    with pytest.raises(DegenerateBatchError, match="degenerate evaluation"):
        auc(np.ones((3, 2)), np.ones((3, 2)))


def test_auc_skips_single_class_columns():
    scores = np.array([[0.9, 0.5], [0.1, 0.5], [0.5, 0.5]])
    y = np.array([[1.0, 1.0], [0.0, 1.0], [0.0, 1.0]])
    per = per_label_auc(scores, y)
    assert per[0] == 1.0 and np.isnan(per[1])
    assert auc(scores, y) == 1.0


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_predictions_rejected(value):
    rng = make_rng(6)
    y = rng.integers(0, 2, size=(10, 3)).astype(float)
    y[0] = 1.0 - y[1]
    scores = rng.uniform(size=(10, 3))
    scores[4, 2] = value
    for score in (per_label_auc, evaluate):
        with pytest.raises(ContractError,
                           match="1 non-finite value.*row 4, label 2"):
            score(scores, y)


def test_evaluate_single_report():
    rng = make_rng(5)
    y = rng.integers(0, 2, size=(20, 4)).astype(float)
    y[0] = 1.0 - y[1]  # every column has both classes
    scores = rng.uniform(size=(20, 4))
    report = evaluate(scores, y)
    assert report.f1 == f1_score(scores, y)
    assert report.auc == auc(scores, y)
    assert np.array_equal(report.per_label, per_label_auc(scores, y))
    assert report.n_eval == 20


def test_report_fields_write_undefined_auc_as_none():
    report = EvalReport(f1=0.5, auc=0.75,
                        per_label=np.array([0.75, np.nan]), n_eval=4)
    assert report.fields() == {"f1": 0.5, "auc": 0.75,
                               "per_label": [0.75, None], "n_eval": 4}


def test_reports_compare_by_value():
    # per_label is an array: equality is by value, with the NaN AUC of a
    # label lacking a class equal to another
    report = EvalReport(f1=0.5, auc=0.75,
                        per_label=np.array([0.75, np.nan]), n_eval=4)
    same = EvalReport(f1=0.5, auc=0.75,
                      per_label=[0.75, float("nan")], n_eval=4)
    assert report == same and not report != same
    for other in (EvalReport(0.5, 0.75, np.array([0.75, 0.5]), 4),
                  EvalReport(0.5, 0.75, np.array([0.75]), 4),
                  EvalReport(0.5, 0.75, np.array([0.75, np.nan]), 5),
                  EvalReport(0.25, 0.75, np.array([0.75, np.nan]), 4)):
        assert report != other
    assert report != report.fields()


def test_report_validation():
    with pytest.raises(ContractError):
        EvalReport(f1=1.2, auc=0.5, per_label=np.array([0.5]), n_eval=3)
