"""Micro-averaged F1 and per-label rank AUC, plus the evaluation report.

The averaging choices (micro F1, macro AUC over evaluable labels, threshold
0.5, tie midranks) are fixed, so every report's numbers stay comparable
with each other.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.stats import rankdata

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
    return y_hat, y


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
        ranks = rankdata(scores[:, j])
        rank_sum = float(ranks[pos].sum())
        out[j] = (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * (n - n_pos))
    return out


def auc(scores: Matrix, y: Matrix) -> float:
    """Macro average of per-label rank AUC over labels with both classes."""
    per = per_label_auc(scores, y)
    usable = per[~np.isnan(per)]
    if usable.size == 0:
        raise DegenerateBatchError(
            "degenerate evaluation: no label column has both classes"
        )
    return float(usable.mean())


@dataclass
class EvalReport:
    """F1/AUC, per-label AUC and the number of scored rows of one evaluation."""

    f1: float
    auc: float
    per_label: np.ndarray
    n_eval: int
    seeds: list[int] = field(default_factory=lambda: [0])

    def __post_init__(self) -> None:
        self.per_label = np.asarray(self.per_label, dtype=np.float64)
        if not self.seeds:
            raise ContractError("a report needs at least one seed")
        for name, v in (("f1", self.f1), ("auc", self.auc)):
            if not 0.0 <= v <= 1.0:
                raise ContractError(f"{name} must be in [0, 1], got {v}")


def evaluate(y_hat: Matrix, y: Matrix, *, threshold: float = 0.5,
             multiclass: bool = False, seed: int = 0) -> EvalReport:
    """Score one prediction matrix against its labels."""
    return EvalReport(
        f1=f1_score(y_hat, y, threshold, multiclass=multiclass),
        auc=auc(y_hat, y),
        per_label=per_label_auc(y_hat, y),
        n_eval=as_matrix(y, "labels").shape[0],
        seeds=[seed],
    )
