"""Contrastive and classification losses with exact analytic gradients.

Every loss returns ``(value, grad...)`` where the gradients are taken with
respect to the embedding arguments (or predicted probabilities for
``cross_entropy``). Every contrastive term, per positive pair, is

    -log( w_pos * f(pos pair) / (w_pos * f(pos pair) + sum_k w_k * f(neg_k)) )

with f = exp(cos/tau) the exponentiated cosine kernel. Its one
hyperparameter, the temperature tau, is a plain float argument of every
contrastive loss (default 1); each refuses, with a ``ContractError``, a
tau that is not positive or whose 1/tau is not finite (``_check_tau``).
``_info_nce`` is the single place this form is computed (its term half,
``_info_nce_terms``, serves the supervised loss): it takes positive logits
``cos/tau + log(weight)`` and the negative ones shifted (see below), and
returns the terms with their gradients, from one in-place exp pass. It
takes the anchor rows in blocks of ``_SYM_BAND_ROWS``, in the style of
FlashAttention's tiling (Dao et al. 2022): every step is row-local, so
each block goes product, exp, sums, terms and backward while it sits in
cache, and no block of all the rows is built. The losses hand it the thin
operands whose product is the shifted logits of every entry, finite, the
mask of the entries that are negatives, and the unit rows that its
backward products multiply: it returns the negatives' gradient in the
unit embedding rows, and the losses chain it back to the embeddings. No
exp here reads -inf (numpy's float64
exp is about 8x slower on it than on finite input, on AVX-512): a dropped
entry is exponentiated like any other and zeroed after the exp. Only the
repair rows handed to ``row_logsumexp`` carry -inf.
Four folds each spare the logit block a pass, by moving work onto the thin
operands of a product:

* 1/tau scales the thin left operand of the cosine product;
* the raw-feature log-weight 1 - cos(x_i, x_k) rides in the same product,
  as extra columns ``[-x_hat | 1]`` and ``[x_hat | 1]`` of the two operands
  (``_logit_operands``), so each unsupervised logit block is one product
  ``left @ right.T`` of one operand pair;
* the shift -B rides in the last column of the right operand;
* the per-row scale multiplies the thin operand of each backward product.

The gradient of cosine(u, v) in u is (v_hat - cos * u_hat)/|u|, applied
row-wise through the unit-normalization of each embedding matrix; 1/tau
scales that thin gradient. The weights are constant in the embeddings, so
they leave the backward as it is.

The supervised loss runs over flat arrays of pairs, with no loop over
labels, in two halves. The label half (``sup_labels``, a ``SupLabels``) is
a pure function of the binary label rows: the valid columns Y, the flat
pair indices, the per-label counts, the one-hot switch and the label
log-weights. The embedding half (``_sup_engine``) takes it with the
embeddings. One product gives every (anchor i, label a) negative sum, S =
exp(L - B) @ (1 - Y), with L = cos/tau + log gamma at every entry: the
zeros of 1 - Y drop the samples that are not negatives of an (anchor,
label), so no entry is masked before the exp.

The shift rule, one for both engines: every exp is shifted by B, a known
upper bound on the logits, so no pass looks for a row max. B = 1/tau for
plain InfoNCE and 1/tau + 2 for the raw-feature weight (cos/tau <= 1/tau,
1 - cos <= 2), and 1/tau + log c for the label weights (log gamma <= log
c; 1/tau with unit weights). ``_logit_operands`` returns the
unsupervised B with the operands whose shift column it sets. A sum of exps
shifted by B holds full precision when it lies in [``_SUM_FLOOR``, inf).
Any row, or supervised (anchor, label) sum, outside it is redone with its
own max (``row_logsumexp``). That catches a row whose logits all lie far
below B at a small tau, and, in the unclipped unsupervised block, a row
with a cosine rounded a few ulp past 1 at a tau so small (below about
1e-18) that the rounding puts a logit more than 709 past B. An
unsupervised row is read from a fresh product of its block of rows; a
supervised sum from the logits the engine keeps.

A negative mask of ``None`` is the full complement: every other anchor
is a negative. It needs no entries, so no n x n mask is built for it:
``_info_nce`` zeroes its diagonal by a strided write and the two-view
kernel may take its symmetric branch. Any mask array, one equal to the
full complement among them, is a general mask: ``ContrastiveBatch``
checks it, ``_info_nce`` zeroes its dropped entries by the 0/1 product and
the two-view kernel takes its dense path for it.

The two-view kernel has one symmetric branch (``_symmetric_info_nce``),
the NT-Xent layout of SimCLR (Chen et al. 2020). It is chosen from the
batch alone: negative sets that are the full complement (a ``neg_mask``
of None), an operand pair whose product is symmetric (no raw features, or
both views' of one width) and at least two bands of ``_SYM_BAND_ROWS``
rows over the 2n anchors. The shifted block, its mask
and its partner map are then symmetric, so each logit pair
is computed and exponentiated once, in row bands, and each row sum gathers
row and column sums. Its repair is all or nothing: a stored entry serves
two rows and cannot take one row's own shift, so when any row's sum lies
outside [``_SUM_FLOOR``, inf) the whole call runs the dense path
(``_info_nce``) unchanged. The branch sums in another order than the
dense path, so the two agree to rounding, not bit for bit. A dense call
of several blocks likewise agrees with a one-block call to rounding: its
backward sums the blocks' products, and BLAS may round a block's rows of
the logit product otherwise than the same rows of the whole product.

The unsupervised losses take a ``ContrastiveBatch`` of one view
(``unsup_loss_single``) or two (``unsup_loss_multiview``). This module is
the one definition of every contrastive weight, each kept as the log-weight
that gets added to the logits:

* a batch without ``xs`` uses weight 1 (the usual InfoNCE denominator);
* a batch with ``xs`` uses ``exp(1 - cos)`` on those *raw input* features,
  in [1, e^2], taken from the fused product (``_logit_operands``), so it
  holds up to the rounding of that product;
* the supervised loss weighs the positive pair by label agreement
  sigma = (c - hamming)/c, in [1/c, 1], and each negative by the hamming
  distance gamma, in [1, c] (``_label_log_weights``), or by 1 when every
  row of the batch is one-hot.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DegenerateBatchError, NumericError, ShapeError
from .numeric import (
    Matrix,
    _divide_rows,
    _unit_rows_norms,
    as_matrix,
    gram,
    row_logsumexp,
)

_NEG_INF = float("-inf")
# A sum of under 2**48 exps this large has a normal float for its largest
# term, so it keeps full precision under a shared shift.
_SUM_FLOOR = np.finfo(np.float64).tiny / np.finfo(np.float64).eps
# Rows per band of the two-view kernel's symmetric branch, which a batch
# of fewer than two bands' rows skips: the dense path is faster there
# (measured at 2n = 12 to 1026; see CHANGES.md). Also the rows per block of
# the dense path, whose (128, n) block stays in cache from its product to
# its backward (64 rows were slower at full-plan's n = 1000).
_SYM_BAND_ROWS = 128


@dataclass(frozen=True)
class LossBreakdown:
    """One training step's objective: j = l_c + alpha*l_u + beta*l_s."""

    l_c: float
    l_u: float
    l_s: float
    j: float


def total_loss(l_c: float, l_u: float, l_s: float,
               alpha: float, beta: float) -> LossBreakdown:
    """Combine the three loss terms into the (finite) training objective."""
    if alpha < 0 or beta < 0:
        raise ContractError(
            f"balance weights must be non-negative, got alpha={alpha}, beta={beta}"
        )
    j = float(l_c) + alpha * float(l_u) + beta * float(l_s)
    if not np.isfinite(j):
        raise NumericError(f"objective j = {j} is not finite: l_c={l_c}, "
                           f"l_u={l_u}, l_s={l_s}, alpha={alpha}, beta={beta}")
    return LossBreakdown(float(l_c), float(l_u), float(l_s), j)


def tau_ok(tau: float) -> bool:
    """Positive (not NaN), with a finite 1/tau: the logits' scale."""
    return tau > 0 and math.isfinite(1.0 / float(tau))


def _check_tau(tau: float) -> None:
    if not tau_ok(tau):
        raise ContractError(
            f"temperature must be positive with a finite reciprocal, got {tau}")


def _rows(a, name: str, n: int) -> Matrix:
    m = as_matrix(a, name)
    if m.shape[0] != n:
        raise ShapeError(f"{name} has {m.shape[0]} rows, expected {n}")
    return m


@dataclass
class ContrastiveBatch:
    """Anchors, their negative sets, and the features behind them.

    Every row is an anchor. ``zs`` holds one embedding matrix per view, of
    one width; ``neg_mask[i, k]`` marks sample ``k`` as a member of anchor
    ``i``'s negative set (never ``i``, at least one per row), and a
    ``neg_mask`` of None is the full complement. ``xs`` holds one
    raw-feature matrix per view: with it the loss weighs each negative by
    raw-input dissimilarity, without it (None) the loss is plain InfoNCE. ``x_sim`` is the feature side of the single-view kernel (e.g.
    a fixed projection of the raw features) and suits one view only.
    """

    zs: list[Matrix]
    neg_mask: np.ndarray | None
    xs: list[Matrix] | None = None
    x_sim: Matrix | None = None

    def __post_init__(self) -> None:
        if not len(self.zs):
            raise ContractError("a batch needs at least one view")
        if self.xs is not None and len(self.xs) != len(self.zs):
            raise ShapeError(f"xs has {len(self.xs)} views, zs {len(self.zs)}")
        if self.x_sim is not None and len(self.zs) != 1:
            raise ContractError(f"x_sim serves the single-view loss, not a "
                                f"batch of {len(self.zs)} views")
        n = as_matrix(self.zs[0], "zs[0]").shape[0]
        if not n:
            raise DegenerateBatchError("a batch needs at least one anchor, "
                                       "got zs[0] with 0 rows")
        self.zs = [_rows(z, f"zs[{v}]", n) for v, z in enumerate(self.zs)]
        if self.xs is not None:
            self.xs = [_rows(x, f"xs[{v}]", n) for v, x in enumerate(self.xs)]
        if self.x_sim is not None:
            self.x_sim = _rows(self.x_sim, "x_sim", n)
        if len({z.shape[1] for z in self.zs}) > 1:
            raise ShapeError(f"view embeddings must share a dimension, got "
                             f"{[z.shape for z in self.zs]}")
        if self.neg_mask is None:
            if n == 1:
                raise DegenerateBatchError("anchor 0 has an empty negative set")
            return  # the full complement: no diagonal, n - 1 per row
        self.neg_mask = np.asarray(self.neg_mask, dtype=bool)
        if self.neg_mask.shape != (n, n):
            raise ShapeError(
                f"neg_mask must be {n}x{n}, got {self.neg_mask.shape}"
            )
        if self.neg_mask.diagonal().any():
            raise ContractError("an anchor may not appear in its own negative set")
        filled = self.neg_mask.any(axis=1)
        if not filled.all():
            raise DegenerateBatchError(
                f"anchor {int(np.argmin(filled))} has an empty negative set")

    @property
    def n(self) -> int:
        return self.zs[0].shape[0]


def cross_entropy(y_hat: Matrix, y: Matrix) -> tuple[float, Matrix]:
    """Mean elementwise binary cross-entropy and its gradient in ``y_hat``.

    Predictions are clamped to [1e-12, 1 - 1e-12] before the logs; the
    gradient is zero where the clamp is active. An empty pair has no mean
    and is refused.
    """
    y_hat = as_matrix(y_hat, "y_hat")
    y = as_matrix(y, "y")
    if y_hat.shape != y.shape:
        raise ShapeError(f"y_hat {y_hat.shape} and y {y.shape} must match")
    if not y.size:
        raise DegenerateBatchError(
            f"cross-entropy of an empty batch: y_hat and y have shape {y.shape}")
    if ((y != 0.0) & (y != 1.0)).any():
        raise ContractError("targets must be binary")
    lo, hi = 1e-12, 1.0 - 1e-12
    p = np.minimum(np.maximum(y_hat, lo), hi)  # np.clip's result, unwrapped
    t = y * np.log(p)
    t += (1.0 - y) * np.log1p(-p)
    value = -_mean(t)
    grad = p - y
    grad /= p * (1.0 - p)
    grad /= y.size
    clamped = (y_hat <= lo) | (y_hat >= hi)
    if clamped.any():
        grad[clamped] = 0.0
    return value, grad


def _unnormalize_rows(d_unit: Matrix, unit: Matrix, norms: Matrix) -> Matrix:
    """Back-propagate a gradient in the unit rows ``unit`` to the raw rows,
    whose (n, 1) norms ``_unit_rows_norms`` returned with them."""
    inner = np.add.reduce(d_unit * unit, axis=1, keepdims=True)
    out = d_unit - inner * unit
    return _divide_rows(out, norms, out=out)


def _logit_operands(uh: Matrix, vh: Matrix, tau: float,
                    xa: Matrix | None = None, xb: Matrix | None = None
                    ) -> tuple[Matrix, Matrix, float]:
    """Thin operands ``(left, right)`` whose product ``left @ right.T`` is the
    shifted logit block cos(u_i, v_k)/tau + 1 - cos(xa_i, xb_k) - bound for
    unit rows, and that ``bound``, an upper bound on every logit:

        [uh/tau | -xa | 1] @ [vh | xb | 1 - bound].T,  bound = 1/tau + 2

    (cos/tau <= 1/tau, 1 - cos <= 2). Without ``xa``/``xb`` the block is
    cos/tau - bound, from ``[uh/tau | 1] @ [vh | -bound].T`` with bound =
    1/tau. Nothing is clipped: rounding can put |cos| a few ulp past 1, and
    so a logit past ``bound``; ``_info_nce`` redoes any row whose shifted
    sum overflows. Each operand is written into one (rows, d + f + 1)
    array, f the raw-feature width (0 without them).
    """
    d = uh.shape[1]
    width = d + 1 + (0 if xa is None else xa.shape[1])
    left, right = np.empty((len(uh), width)), np.empty((len(vh), width))
    np.multiply(uh, 1.0 / tau, out=left[:, :d])
    right[:, :d] = vh
    left[:, -1] = 1.0
    if xa is None:
        bound = 1.0 / tau
        right[:, -1] = -bound
    else:
        bound = 1.0 / tau + 2.0
        np.negative(xa, out=left[:, d:-1])
        right[:, d:-1] = xb
        right[:, -1] = 1.0 - bound
    return left, right, bound


def _mean(a: np.ndarray) -> float:
    """``float(np.mean(a))`` of a float64 array, bit for bit: its sum over
    every axis divided by the count, without ``np.mean``'s Python layers."""
    return float(np.add.reduce(a, axis=None) / a.size)


def _info_nce_terms(pos: Matrix, lse_neg: Matrix) -> tuple[Matrix, Matrix, Matrix]:
    """The term half of ``_info_nce``, given the negatives' log-sum: returns
    the terms, their gradient in ``pos`` and q = exp(lse_neg - t), the
    negatives' share of each denominator t."""
    t = np.logaddexp(pos, lse_neg)
    return t - pos, np.exp(pos - t) - 1.0, np.exp(lse_neg - t)


def _info_nce(pos: Matrix, left: Matrix, right: Matrix, bound: float,
              keep: np.ndarray | None, col: Matrix, row: Matrix | None = None
              ) -> tuple[Matrix, Matrix, Matrix]:
    """Weighted InfoNCE terms and their gradients, one block of anchor rows
    at a time.

    Row i scores each of its positive logits ``pos[i, j]`` against its
    negative logits L[i, k], the entries that ``keep`` selects in row i:

        terms[i, j] = log(exp(pos[i, j]) + sum_k exp(L[i, k])) - pos[i, j]

    Weights arrive as log-weights already added to the logits. The product
    ``left @ right.T`` is L - ``bound`` at every entry, the dropped ones
    too, shifted by a known upper bound on every logit. ``keep`` is the
    boolean mask of the negatives, or None for the full complement of a
    square block: every entry but the diagonal.

    Every step is row-local, so the rows go in blocks of ``_SYM_BAND_ROWS``
    and no block of all the rows is built: each block's product goes into
    one reused (rows, n) buffer and is exponentiated in place, with no
    row-max pass and no -inf. Its dropped entries are zeroed after the exp,
    by one strided write of the block's diagonal for the full complement,
    otherwise by a 0/1 product with the mask's rows. A row whose sum is not
    in [``_SUM_FLOOR``, inf) (all its logits far below the bound, or one
    rounded far past it, which a product with a dropped overflow turns into
    NaN) is read from a fresh product of its block, with -inf at its
    dropped entries, and redone with its own max (``row_logsumexp``).

    The gradient of ``terms.sum()`` in the negative logits of the block's
    rows is ``c * e``: ``e`` is the block exponentiated under its rows'
    shifts, dropped negatives exact zeros, and ``c`` a (rows, 1) column of
    per-row scales, the single-exp softmax of Milakov & Gimelshein 2018
    with the normalisation deferred, as in FlashAttention (Dao et al.
    2022). Each block carries it to thin rows while it sits in cache, with
    ``c`` folded into the thin operand, so no block is scaled:

        d_neg = (c * e).T @ col + (c * e) @ row

    the gradient in the columns' unit rows, given the anchors' ``col``,
    plus, when ``row`` (the columns' rows) is given, the gradient in the
    anchors', for a kernel whose anchors are its columns. Every block
    writes its rows of ``terms`` and ``d_pos``, allocated once, and adds
    its products to ``d_neg``, which starts at zeros. Returns ``(terms,
    d_pos, d_neg)``, ``d_pos`` the gradient in ``pos``. Results overflow
    only as the exact terms do, when 1/tau nears the largest float.
    """
    size, width = len(left), len(right)
    step = min(_SYM_BAND_ROWS, size)
    buf = np.empty((step, width))
    terms, d_pos = np.empty_like(pos), np.empty_like(pos)
    d_neg = np.zeros((width, col.shape[1]))
    for lo in range(0, size, step):
        rows = slice(lo, min(lo + step, size))
        e = np.matmul(left[rows], right.T, out=buf[:rows.stop - lo])
        # a row that overflows, meets inf * 0 = NaN or sums to 0 is redone
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            np.exp(e, out=e)
            if keep is None:
                e.reshape(-1)[lo::width + 1] = 0.0  # entries (i, lo + i)
            else:
                np.multiply(e, keep[rows], out=e)
            rowsum = np.add.reduce(e, axis=1, keepdims=True)
            lse_neg = bound + np.log(rowsum)
        redo = np.flatnonzero(~((rowsum >= _SUM_FLOOR) & (rowsum < np.inf)))
        if redo.size:
            # rows of the block's own product: left[lo + redo] @ right.T
            # can differ from them in the last bits
            own = np.matmul(left[rows], right.T)[redo]
            if keep is None:
                own[np.arange(redo.size), lo + redo] = _NEG_INF
            else:
                own[~keep[lo + redo]] = _NEG_INF
            lse_own, rowsum[redo] = row_logsumexp(own)
            e[redo] = own
            lse_neg[redo] = bound + lse_own
        terms[rows], d_pos[rows], q = _info_nce_terms(pos[rows], lse_neg)
        # d_L[i, k] = sum_j exp(L[i, k] - t[i, j]) = e[i, k] / rowsum[i] * sum_j q[i, j]
        c = np.add.reduce(q, axis=1, keepdims=True) / rowsum
        d_neg += e.T @ (c * col[rows])
        if row is not None:
            d_neg[rows] += c * (e @ row)
    return terms, d_pos, d_neg


def unsup_loss_single(batch: ContrastiveBatch, tau: float = 1.0
                      ) -> tuple[float, Matrix]:
    """Single-view contrastive loss pairing each input with its embedding.

    Per anchor i the positive score is f(x_i, z_i), with x = ``batch.x_sim``
    (of the embeddings' width), and each negative k in the anchor's set
    contributes w_ik * f(x_i, z_k), with w = exp(1 - cos) on the raw
    features ``batch.xs[0]`` when the batch has them (otherwise 1). Returns
    the mean over anchors and the gradient with respect to ``batch.zs[0]``.
    """
    _check_tau(tau)
    if len(batch.zs) != 1:
        raise ContractError(f"single-view loss needs 1 view, got {len(batch.zs)}")
    if batch.x_sim is None:
        raise ContractError("single-view loss needs x_sim, the feature side of f")
    z, x = batch.zs[0], batch.x_sim
    if x.shape[1] != z.shape[1]:
        raise ShapeError(
            f"feature side of f has dim {x.shape[1]} but embeddings have "
            f"{z.shape[1]}; pass x_sim with matching dimension"
        )
    n = batch.n
    xh = _unit_rows_norms(x)[0]
    zh, z_norms = _unit_rows_norms(z)
    x1h = None if batch.xs is None else _unit_rows_norms(batch.xs[0])[0]
    left, right, bound = _logit_operands(xh, zh, tau, x1h, x1h)
    # the positive carries no weight; the block's diagonal does
    pos = np.einsum("ij,ij->i", xh, zh)[:, None] * (1.0 / tau)
    # d_logits = c * e with d_pos on the diagonal, where e is 0 (dropped)
    terms, d_pos, d_neg = _info_nce(pos, left, right, bound,
                                    batch.neg_mask, xh)
    d_zh = d_neg + d_pos * xh
    return _mean(terms), _unnormalize_rows(d_zh / (n * tau), zh, z_norms)


def unsup_loss_multiview(batch: ContrastiveBatch, tau: float = 1.0
                         ) -> tuple[float, Matrix, Matrix]:
    """Two-view contrastive loss, symmetrized over both anchor views.

    Anchor (i, v) scores its other-view partner as the positive and both
    views of every negative-set member as negatives (2|N_i| denominator
    terms). When the batch has raw features ``xs``, they weigh the
    negatives: cross-view when the view dimensions agree, otherwise the
    anchor view's own features stand in for both. Returns (value, grad_z1,
    grad_z2), the mean over the 2n anchor terms.
    """
    _check_tau(tau)
    if len(batch.zs) != 2:
        raise ContractError(f"two-view loss needs 2 views, got {len(batch.zs)}")
    n = batch.n
    # NT-Xent layout: rows 0..n-1 anchor view 1, rows n..2n-1 view 2, and
    # row r's positive is its other-view partner (r + n) mod 2n.
    zh, z_norms = _unit_rows_norms(np.concatenate(batch.zs))
    partner = (np.arange(2 * n) + n) % (2 * n)
    # the positive carries no weight; the block's partner entries do. Rows
    # r and partner[r] multiply the same pair of rows, so one dot per
    # (view-1, view-2) pair serves both
    half = np.einsum("ij,ij->i", zh[:n], zh[n:]) * (1.0 / tau)
    pos = np.concatenate([half, half])[:, None]
    if batch.xs is None:
        xa = xb = None
    elif batch.xs[0].shape[1] == batch.xs[1].shape[1]:
        xa = xb = _unit_rows_norms(np.concatenate(batch.xs))[0]
    else:
        # same-view proxy: anchors of view a weigh both views of each
        # negative by view a's own dissimilarity, as one operand pair:
        # view-1 rows carry [x1h | 0], view-2 rows [0 | x2h], every column
        # [x1h | x2h], so the extra terms are exact zeros
        x1h, x2h = (_unit_rows_norms(x)[0] for x in batch.xs)
        xa = np.block([[x1h, np.zeros_like(x2h)], [np.zeros_like(x1h), x2h]])
        xb = np.tile(np.hstack([x1h, x2h]), (2, 1))
    left, right, bound = _logit_operands(zh, zh, tau, xa, xb)
    symmetric = xa is xb  # left @ right.T is symmetric, save the proxy's

    # on the full complement the block, mask and partner map are symmetric
    out = None
    mask = batch.neg_mask
    if symmetric and n >= _SYM_BAND_ROWS and mask is None:
        out = _symmetric_info_nce(left, right, zh, pos, bound, partner)
    if out is None:
        # the full complement's tiled mask drops the partner entries too
        mask = ~np.eye(n, dtype=bool) if mask is None else mask
        out = _info_nce(pos, left, right, bound, np.tile(mask, (2, 2)), zh, zh)
    terms, d_pos, d_neg = out
    # d_logits = c * e with d_pos written at the partner entries, where e is
    # 0 (dropped). Those entries add d_pos[r] * zh[partner[r]] to row r of
    # d_logits @ zh and, partner being an involution, d_pos[partner[r]] *
    # zh[partner[r]] to row r of d_logits.T @ zh.
    d_zh = d_neg + (d_pos + d_pos[partner]) * zh[partner]
    d_z = _unnormalize_rows(d_zh, zh, z_norms) * (1.0 / (2 * n * tau))
    return _mean(terms), d_z[:n], d_z[n:]


def _symmetric_info_nce(left: Matrix, right: Matrix, zh: Matrix, pos: Matrix,
                        bound: float, partner: np.ndarray
                        ) -> tuple[Matrix, Matrix, Matrix] | None:
    """``_info_nce`` of the two-view kernel on a full-complement batch whose
    operands ``left @ right.T`` form a symmetric block, computing each
    symmetric logit pair once.

    The 2n rows split into bands of about ``_SYM_BAND_ROWS`` rows, the last
    one shorter when they do not divide evenly. Band I holds the block's
    entries in its rows and in the columns from its own first row on: its
    diagonal square and every tile right of it. Each band is one product,
    exponentiated in place; row r's sum adds its band's row sum to the
    column sums of the earlier bands. Only the self and partner entries are
    dropped, zeroed after the band's exp. Returns ``(terms, d_pos,
    d_neg)``, with d_neg = c * (e @ zh) + e.T @ (c * zh) as the dense path
    forms it, here by one product per band side: ``E_IJ @ Y_J`` and
    ``E_IJ.T @ Y_I`` with Y = [zh | c * zh].

    Returns None when a row's shifted sum is outside [``_SUM_FLOOR``, inf):
    a stored entry serves two rows, so it cannot take a row's own shift, and
    the caller runs the dense path instead.
    """
    size = len(zh)
    step = -(-size // (size // _SYM_BAND_ROWS))
    spans = [(lo, min(lo + step, size)) for lo in range(0, size, step)]
    # one buffer for every band: separate band arrays were handed back to
    # the OS and page-faulted in again on every call
    buf = np.empty(sum((hi - lo) * (size - lo) for lo, hi in spans))
    bands, start = [], 0
    rowsum, ones = np.zeros(size), np.ones(size)
    with np.errstate(over="ignore"):  # an overflowing sum falls back
        for lo, hi in spans:
            e = buf[start:start + (hi - lo) * (size - lo)].reshape(hi - lo, -1)
            start += e.size
            np.matmul(left[lo:hi], right[lo:].T, out=e)
            np.exp(e, out=e)
            rows = np.arange(hi - lo)
            e[rows, rows] = 0.0
            # a partner left of the band was dropped in the partner's band
            own = partner[lo:hi] >= lo
            e[rows[own], partner[lo:hi][own] - lo] = 0.0
            rowsum[lo:hi] += e @ ones[lo:]
            rowsum[hi:] += ones[lo:hi] @ e[:, hi - lo:]
            bands.append(e)
    if not np.all((rowsum >= _SUM_FLOOR) & (rowsum < np.inf)):
        return None
    rowsum = rowsum[:, None]
    terms, d_pos, q = _info_nce_terms(pos, bound + np.log(rowsum))
    c = q / rowsum
    y = np.hstack([zh, c * zh])
    prod = np.zeros_like(y)
    for (lo, hi), e in zip(spans, bands):
        prod[lo:hi] += e @ y[lo:]
        prod[hi:] += e[:, hi - lo:].T @ y[lo:hi]
    d = zh.shape[1]
    return terms, d_pos, c * prod[:, :d] + prod[:, d:]


def _label_log_weights(y: Matrix, pair) -> tuple[Matrix, Matrix]:
    """log sigma at the entries ``pair`` of the n x n grid of row pairs (an
    index such as ``(rows, cols)``, or ``...`` for the whole grid), and log
    gamma for every pair of binary label rows of ``y``.

    sigma_ij = (c - hamming_ij)/c weighs positive pairs and gamma_ik =
    hamming_ik weighs negatives. sigma >= 1/c for pairs sharing a positive
    label; gamma >= 1 for anchor-negative pairs. Entries outside those sets
    are never read: log sigma may be -inf there, and log gamma is taken of
    max(hamming, 1), so that identical label rows (hamming 0, which only
    zeros of the engine's 1 - Y meet) give a finite 0.
    """
    c = y.shape[1]
    # hamming_ik = #(y_i = 1, y_k = 0) + #(y_i = 0, y_k = 1): one product
    # and its transpose, exact integer counts in float64
    ones_zeros = y @ (1.0 - y).T
    ham = ones_zeros + ones_zeros.T
    with np.errstate(divide="ignore"):
        log_sigma = np.log((c - ham[pair]) / c)
    return log_sigma, np.log(np.maximum(ham, 1.0))


@dataclass(frozen=True, eq=False)
class SupLabels:
    """The label half of the supervised loss: everything ``_sup_engine``
    reads of the binary label rows, made by ``sup_labels``. Its arrays are
    read-only, so one label half can serve every batch of embeddings with
    those label rows.

    ``not_y`` is 1 - Y over the valid columns Y of ``y``, those with two
    positives and a negative. The pairs are flat arrays: pair p is anchor i
    with another positive j of valid label ``pa[p]``, by label, then anchor,
    then partner. ``pair[p]`` = i * n + j is its flat index into the n x n
    grid of row pairs, so ``np.divmod(pair, n)`` gives (i, j), and
    ``key[p]`` = i * g + ``pa[p]`` its index into the n x g grid of (anchor,
    label) sums. ``count`` is each valid label's pair count. ``log_sigma``
    (per pair) and ``log_gamma`` (n x n) are the label log-weights and
    ``shift`` = log c what they add to the logits' bound; with unit
    weights, which one-hot rows take, they are None, None and 0.
    """

    not_y: Matrix
    absent: np.ndarray  # not_y == 1: the (anchor, label) sums no pair reads
    pa: np.ndarray
    pair: np.ndarray
    key: np.ndarray
    count: np.ndarray
    log_sigma: Matrix | None
    log_gamma: Matrix | None
    shift: float


def sup_labels(y) -> SupLabels:
    """The label half of ``weighted_sup_loss`` for the (n, c) binary label
    rows ``y``, a pure function of them: unit weights when every row
    is one-hot (``_is_one_hot``), label weights otherwise. Refuses labels
    that are not binary, and a batch with no valid label
    (``DegenerateBatchError``)."""
    y = as_matrix(y, "y")
    if np.any((y != 0.0) & (y != 1.0)):
        raise ContractError("multi-label targets must be binary")
    counts = y.sum(axis=0)
    yv = y[:, (counts >= 2) & (counts < len(y))]
    if not yv.size:
        raise DegenerateBatchError(
            f"no label with >=2 positives and >=1 negative in a batch of {len(y)} "
            f"samples (positives per label: {counts.astype(int).tolist()})")
    label, member = np.nonzero(yv.T)
    k = np.bincount(label)
    start = np.repeat(np.cumsum(k) - k, k)  # where each member's label starts
    per = np.repeat(k - 1, k)  # each anchor's partner count
    # step s of the anchor at place r of its label goes to place s + (s >= r)
    step = np.arange(per.sum()) - np.repeat(np.cumsum(per) - per, per)
    place = np.repeat(np.arange(member.size) - start, per)
    pa, pi = np.repeat(label, per), np.repeat(member, per)
    pj = member[np.repeat(start, per) + step + (step >= place)]
    n, g = yv.shape
    log_sigma = log_gamma = None
    shift = 0.0
    if not _is_one_hot(y):
        log_sigma, log_gamma = _label_log_weights(y, (pi, pj))
        shift = np.log(y.shape[1])
    labels = SupLabels(not_y=1.0 - yv, absent=yv == 0.0, pa=pa,
                       pair=pi * n + pj, key=pi * g + pa,
                       count=np.bincount(pa), log_sigma=log_sigma,
                       log_gamma=log_gamma, shift=shift)
    for array in vars(labels).values():
        if isinstance(array, np.ndarray):
            array.flags.writeable = False
    return labels


def _sup_engine(s: Matrix, labels: SupLabels, tau: float
                ) -> tuple[Matrix, float, Matrix]:
    """The embedding half of the supervised loss, over the flat pairs of
    the label half ``labels``. Pair p's term is

        -log( sigma_ij f(s_i, s_j) /
              (sigma_ij f(s_i, s_j) + sum_{k: y_ka = 0} gamma_ik f(s_i, s_k)) )

    with i, j = ``divmod(pair[p], n)``, a = ``pa[p]`` and sigma = gamma = 1
    under unit weights. Returns ``(terms, value, grad)``: value
    averages the terms over each label's pairs, then over labels, and grad
    is its gradient in ``s``.
    """
    _check_tau(tau)
    not_y = labels.not_y
    n, g = not_y.shape
    sh, s_norms = _unit_rows_norms(s)
    logits = np.clip(gram(sh), -1.0, 1.0) / tau
    pos = logits.ravel()[labels.pair]
    # every logit is at most bound: cos/tau <= 1/tau and log gamma <= log c
    bound = 1.0 / tau
    if labels.log_gamma is not None:
        pos += labels.log_sigma
        logits += labels.log_gamma
        bound += labels.shift
    # e is read only through not_y, whose zeros drop the entries outside
    # each (anchor, label)'s negatives, so no entry is masked before the exp
    e = np.subtract(logits, bound)
    np.exp(e, out=e)
    sums = e @ not_y
    sums[labels.absent] = 1.0  # sums no pair reads, in range
    # redo each sum the shared shift left outside [floor, inf) with its own
    # shift; at most temperatures there is none, and the repair is skipped
    fi, fa = np.nonzero(~((sums >= _SUM_FLOOR) & (sums < np.inf)))
    repair = fi.size > 0
    if repair:
        own = logits[fi]
        own[not_y[:, fa].T == 0.0] = _NEG_INF
        lse_own, sums_own = row_logsumexp(own)
        sums[fi, fa] = sums_own[:, 0]
    lse = bound + np.log(sums)
    if repair:
        lse[fi, fa] = lse_own[:, 0]
    key, pa, count = labels.key, labels.pa, labels.count
    terms, d_pos, q = _info_nce_terms(pos, lse.ravel()[key])

    value = float(np.sum(np.bincount(pa, weights=terms) / count)) / g
    w = 1.0 / (g * count * tau)
    # exp(neg[i, k] - t_p) = e[i, k] q_p / sums[i, a]: one rate per (anchor,
    # label), taken back to the negatives by one product through not_y
    r = np.bincount(key, weights=q, minlength=n * g).reshape(n, g) * (w / sums)
    if repair:
        r_own = r[fi, fa]
        r[fi, fa] = 0.0
    d = np.multiply(e, r @ not_y.T, out=e)
    if repair:
        np.add.at(d, fi, r_own[:, None] * own)
    d += np.bincount(labels.pair, weights=d_pos * w[pa],
                     minlength=n * n).reshape(n, n)
    return terms, value, _unnormalize_rows(d @ sh + d.T @ sh, sh, s_norms)


def _is_one_hot(y: Matrix) -> bool:
    """Whether binary ``y`` has two or more columns and one 1 in every row."""
    return bool(y.shape[1] >= 2 and np.all(y.sum(axis=1) == 1.0))


def weighted_sup_loss(s: Matrix, y, tau: float = 1.0) -> tuple[float, Matrix]:
    """The supervised term: a label-weighted supervised contrastive loss.

    ``y`` is an (n, c) binary label matrix, or its label half
    ``sup_labels(y)`` from a caller that keeps one. Positive pairs within each
    valid label are scaled by label agreement (1 - hamming/c) and negatives
    by hamming distance. A batch whose rows are all one-hot (c >= 2) takes
    unit weights instead, which makes the loss plain SupCon (Khosla et
    al. 2020): that is a per-batch switch, not a property of the weights,
    which give every one-hot negative hamming distance 2. With one label
    column every weight is 1 as it stands. Returns the loss and its
    gradient in ``s``.
    """
    s = as_matrix(s, "s")
    if not isinstance(y, SupLabels):
        y = sup_labels(_rows(y, "y", len(s)))
    elif len(y.not_y) != len(s):
        raise ShapeError(f"label half has {len(y.not_y)} rows, s has {len(s)}")
    return _sup_engine(s, y, tau)[1:]
