"""Micro-averaged F1 and per-label rank AUC, plus the evaluation report.

The averaging choices (micro F1, macro AUC over evaluable labels, threshold
0.5, tie midranks) are fixed, so every report's numbers stay comparable
with each other. ``_midranks`` gives tied scores their mean rank by one
stable sort; the ranks are half-integers, exact in float64, so they equal
``scipy.stats.rankdata``'s bit for bit without importing scipy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DegenerateBatchError, ShapeError
from .numeric import Matrix, as_matrix


def _check_pair(y_hat, y) -> tuple[Matrix, Matrix]:
    y_hat = as_matrix(y_hat, "predictions")
    y = as_matrix(y, "labels")
    if y_hat.shape != y.shape:
        raise ShapeError(
            f"predictions have shape {y_hat.shape}, labels {y.shape}"
        )
    if not np.isin(y, (0.0, 1.0)).all():
        raise ContractError("labels must be strictly binary (0/1)")
    bad = ~np.isfinite(y_hat)
    if bad.any():
        row, col = np.argwhere(bad)[0]
        raise ContractError(
            f"predictions must be finite: {int(bad.sum())} non-finite "
            f"value(s), the first at row {row}, label {col}"
        )
    return y_hat, y


def _midranks(col: np.ndarray) -> np.ndarray:
    """Ranks 1..n of ``col``, each tie group given the mean of its ranks."""
    order = np.argsort(col, kind="stable")
    ordered = col[order]
    # sorted positions [start, end) of each tie group hold ranks start+1..end
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    ends = np.r_[starts[1:], col.shape[0]]
    ranks = np.empty(col.shape[0])
    ranks[order] = np.repeat((starts + ends + 1) / 2.0, ends - starts)
    return ranks


def f1_score(y_hat: Matrix, y: Matrix, threshold: float = 0.5, *,
             multiclass: bool = False) -> float:
    """Micro-averaged F1 over all (sample, label) cells.

    Multi-label predictions are thresholded; ``multiclass=True`` predicts
    the row argmax instead (one positive per row).
    """
    y_hat, y = _check_pair(y_hat, y)
    if multiclass:
        pred = np.zeros_like(y_hat)
        pred[np.arange(y_hat.shape[0]), np.argmax(y_hat, axis=1)] = 1.0
    else:
        if not 0.0 < threshold < 1.0:
            raise ContractError(f"threshold must be in (0, 1), got {threshold}")
        pred = (y_hat > threshold).astype(np.float64)
    tp = float(np.sum((pred == 1.0) & (y == 1.0)))
    fp = float(np.sum((pred == 1.0) & (y == 0.0)))
    fn = float(np.sum((pred == 0.0) & (y == 1.0)))
    denom = 2.0 * tp + fp + fn
    if denom == 0.0:
        return 0.0
    return 2.0 * tp / denom


def per_label_auc(scores: Matrix, y: Matrix) -> np.ndarray:
    """Rank AUC per label column (Mann-Whitney with tie midranks).

    Labels missing a class give NaN; they carry no ranking information.
    """
    scores, y = _check_pair(scores, y)
    n, c = y.shape
    out = np.full(c, np.nan)
    for j in range(c):
        pos = y[:, j] == 1.0
        n_pos = int(pos.sum())
        if n_pos == 0 or n_pos == n:
            continue
        ranks = _midranks(scores[:, j])
        rank_sum = float(ranks[pos].sum())
        out[j] = (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * (n - n_pos))
    return out


def auc(scores: Matrix, y: Matrix) -> float:
    """Macro average of per-label rank AUC over labels with both classes."""
    return _macro_auc(per_label_auc(scores, y))


def _macro_auc(per: np.ndarray) -> float:
    usable = per[~np.isnan(per)]
    if usable.size == 0:
        raise DegenerateBatchError(
            "degenerate evaluation: no label column has both classes"
        )
    return float(usable.mean())


@dataclass(eq=False)
class EvalReport:
    """F1/AUC, per-label AUC and the number of scored rows of one evaluation.
    Two reports are equal when their ``fields()`` are: by value, with the
    NaN AUCs of labels lacking a class equal to each other."""

    f1: float
    auc: float
    per_label: np.ndarray
    n_eval: int

    def __post_init__(self) -> None:
        self.per_label = np.asarray(self.per_label, dtype=np.float64)
        for name, v in (("f1", self.f1), ("auc", self.auc)):
            if not 0.0 <= v <= 1.0:
                raise ContractError(f"{name} must be in [0, 1], got {v}")

    def fields(self) -> dict:
        """The report as it is written into run records and eval files; a
        label without both classes in the eval rows has AUC ``None``."""
        per_label = [None if np.isnan(v) else v for v in self.per_label]
        return {"f1": self.f1, "auc": self.auc,
                "per_label": per_label, "n_eval": self.n_eval}

    def __eq__(self, other) -> bool:
        if not isinstance(other, EvalReport):
            return NotImplemented
        return self.fields() == other.fields()


def evaluate(y_hat: Matrix, y: Matrix, *, threshold: float = 0.5,
             multiclass: bool = False) -> EvalReport:
    """Score one prediction matrix against its labels."""
    per = per_label_auc(y_hat, y)
    return EvalReport(
        f1=f1_score(y_hat, y, threshold, multiclass=multiclass),
        auc=_macro_auc(per),
        per_label=per,
        n_eval=as_matrix(y, "labels").shape[0],
    )
