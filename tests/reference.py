"""Independent reference implementations used as test oracles.

Everything here is written with explicit loops and ``math`` (or, for the
quantized gaussian table, scipy's CDF) so that it cannot share bugs with
the vectorized implementations under test. Keep it slow and obvious. The
one exception is ``ref_log_weight``, the raw-feature log-weight as a
matrix: the definition the kernels' fused product is tested against, and
itself tested against the scalar ``ref_g``. ``ref_lars_step`` takes LARS
one parameter at a time with the numpy arithmetic of the whole-buffer step,
so the two must agree bit for bit. ``old_info_nce`` and
``old_symmetric_info_nce`` keep the unsupervised kernels' earlier
formulation, -inf written by index at the dropped entries and then one exp
over the block, as the bit-equality reference of the finite-exp kernels.
"""

import math

import numpy as np
from scipy.stats import multivariate_normal

import hcl.losses as losses
from hcl.errors import ContractError
from hcl.numeric import row_logsumexp, unit_rows


def ref_cosine(u, v):
    nu = math.sqrt(sum(float(x) * float(x) for x in u))
    nv = math.sqrt(sum(float(x) * float(x) for x in v))
    if nu < 1e-12 or nv < 1e-12:
        return 0.0
    dot = sum(float(a) * float(b) for a, b in zip(u, v))
    return max(-1.0, min(1.0, dot / (nu * nv)))


def ref_f(u, v, tau):
    return math.exp(ref_cosine(u, v) / tau)


def ref_g(a, b):
    return math.exp(1.0 - ref_cosine(a, b))


def ref_log_weight(xa, xb):
    """log of the raw-feature negative weight, 1 - cos(xa_i, xb_k) with the
    cosine clipped to [-1, 1], as one matrix: the definition the kernels'
    fused logit product is tested against."""
    lw = unit_rows(xa) @ unit_rows(xb).T
    np.clip(lw, -1.0, 1.0, out=lw)
    return np.subtract(1.0, lw, out=lw)


def ref_hamming(y1, y2):
    return sum(1 for a, b in zip(y1, y2) if float(a) != float(b))


def neg_sets_from_mask(mask):
    return [list(np.flatnonzero(row)) for row in np.asarray(mask, dtype=bool)]


def ref_unsup_single(x_sim, x_raw, z, neg_sets, tau, weighted):
    n = len(z)
    total = 0.0
    for i in range(n):
        f_pos = ref_f(x_sim[i], z[i], tau)
        den = f_pos
        for k in neg_sets[i]:
            w = ref_g(x_raw[i], x_raw[k]) if weighted else 1.0
            den += w * ref_f(x_sim[i], z[k], tau)
        total += -math.log(f_pos / den)
    return total / n


def ref_unsup_multiview(x1, x2, z1, z2, neg_sets, tau, weighted):
    n = len(z1)
    same_dims = len(x1[0]) == len(x2[0]) if weighted else True
    total = 0.0
    for i in range(n):
        for za, zb, xa in ((z1, z2, x1), (z2, z1, x2)):
            f_pos = ref_f(za[i], zb[i], tau)
            den = f_pos
            for k in neg_sets[i]:
                for zv, xv in ((z1, x1), (z2, x2)):
                    if not weighted:
                        w = 1.0
                    elif same_dims:
                        w = ref_g(xa[i], xv[k])
                    else:
                        w = ref_g(xa[i], xa[k])
                    den += w * ref_f(za[i], zv[k], tau)
            total += -math.log(f_pos / den)
    return total / (2 * n)


def ref_sup_groups(y):
    """(label, positives, negatives) for labels with >=2 pos and >=1 neg."""
    y = np.asarray(y, dtype=float)
    out = []
    for a in range(y.shape[1]):
        pos = [i for i in range(y.shape[0]) if y[i, a] == 1.0]
        neg = [k for k in range(y.shape[0]) if y[k, a] == 0.0]
        if len(pos) >= 2 and len(neg) >= 1:
            out.append((a, pos, neg))
    return out


def ref_weighted_sup(s, y, tau, indicator=None):
    """The label-weighted supervised loss, pair by pair. Each term,
    -log(sigma f_ij / (sigma f_ij + sum_k gamma_ik f_ik)), is taken in the log
    domain, logsumexp(pos, negs) - pos over the logits cos/tau + log weight
    with every denominator shifted by its own max, so it is exact at any
    temperature."""
    y = np.asarray(y, dtype=float)
    c = y.shape[1]
    if indicator is None:
        indicator = c >= 2 and all(
            sorted(row) == [0.0] * (c - 1) + [1.0] for row in y.tolist()
        )
    groups = ref_sup_groups(y)
    assert groups, "oracle needs at least one usable label"
    group_means = []
    for _, pos, neg in groups:
        terms = []
        for i in pos:
            for j in pos:
                if i == j:
                    continue
                sigma = 1.0 if indicator else 1.0 - ref_hamming(y[i], y[j]) / c
                logits = [ref_cosine(s[i], s[j]) / tau + math.log(sigma)]
                for k in neg:
                    gamma = 1.0 if indicator else float(ref_hamming(y[i], y[k]))
                    logits.append(ref_cosine(s[i], s[k]) / tau + math.log(gamma))
                top = max(logits)
                lse = top + math.log(sum(math.exp(v - top) for v in logits))
                terms.append(lse - logits[0])
        group_means.append(sum(terms) / len(terms))
    return sum(group_means) / len(group_means)


def ref_cross_entropy(y_hat, y):
    y_hat = np.asarray(y_hat, dtype=float)
    y = np.asarray(y, dtype=float)
    total = 0.0
    for i in range(y.shape[0]):
        for j in range(y.shape[1]):
            p = min(max(y_hat[i, j], 1e-12), 1.0 - 1e-12)
            t = y[i, j]
            total += -(t * math.log(p) + (1.0 - t) * math.log(1.0 - p))
    return total / y.size


def random_neg_mask(rng, n, size=None):
    """Random negative sets: ``size`` per anchor, or varied sizes if None."""
    mask = np.zeros((n, n), dtype=bool)
    for i in range(n):
        others = [k for k in range(n) if k != i]
        m = size if size is not None else int(rng.integers(1, n))
        picked = rng.choice(others, size=m, replace=False)
        mask[i, picked] = True
    return mask


def ref_f1_micro(y_true, y_pred):
    """Micro F1 by direct TP/FP/FN counting over all cells."""
    tp = fp = fn = 0
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    for i in range(y_true.shape[0]):
        for j in range(y_true.shape[1]):
            t, p = y_true[i, j], y_pred[i, j]
            if p == 1 and t == 1:
                tp += 1
            elif p == 1 and t == 0:
                fp += 1
            elif p == 0 and t == 1:
                fn += 1
    den = 2 * tp + fp + fn
    return 0.0 if den == 0 else 2.0 * tp / den


def ref_auc_pairwise(scores, labels):
    """Rank AUC by exhaustive positive/negative pair comparison."""
    pos = [s for s, t in zip(scores, labels) if t == 1]
    neg = [s for s, t in zip(scores, labels) if t == 0]
    if not pos or not neg:
        return None
    total = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                total += 1.0
            elif p == q:
                total += 0.5
    return total / (len(pos) * len(neg))


def ref_discrete_mi(joint):
    """MI of a joint probability table by direct double loop (natural log)."""
    joint = np.asarray(joint, dtype=float)
    px = joint.sum(axis=1)
    py = joint.sum(axis=0)
    total = 0.0
    for i in range(joint.shape[0]):
        for j in range(joint.shape[1]):
            p = joint[i, j]
            if p > 0.0:
                total += p * math.log(p / (px[i] * py[j]))
    return total


def ref_stratum_sup(s, y, tau):
    """Stratified label-weighted loss: {shared_count: (loss, n_term)}.

    Same pair weighting as ref_weighted_sup, but each per-label mean is
    restricted to ordered positive pairs with a fixed shared-label count,
    and labels are averaged per stratum afterwards.
    """
    y = np.asarray(y, dtype=float)
    c = y.shape[1]
    buckets = {}
    for a, pos, neg in ref_sup_groups(y):
        terms = {}
        for i in pos:
            for j in pos:
                if i == j:
                    continue
                eps = int(sum(float(p) * float(q) for p, q in zip(y[i], y[j])))
                sigma = 1.0 - ref_hamming(y[i], y[j]) / c
                num = sigma * ref_f(s[i], s[j], tau)
                den = num
                for k in neg:
                    den += float(ref_hamming(y[i], y[k])) * ref_f(s[i], s[k], tau)
                terms.setdefault(eps, []).append(-math.log(num / den))
        for eps, vals in terms.items():
            buckets.setdefault(eps, []).append(
                (sum(vals) / len(vals), math.log(len(neg)))
            )
    out = {}
    for eps, pairs in buckets.items():
        losses = [p[0] for p in pairs]
        n_terms = [p[1] for p in pairs]
        out[eps] = (sum(losses) / len(losses), sum(n_terms) / len(n_terms))
    return out


def ref_stratum_pair_tables(ids, y, n_protos):
    """Stratified positive-pair tables over quantized ids, one table per
    shared-label count. Pairs weigh 1/count within each (label, stratum)."""
    y = np.asarray(y, dtype=float)
    tables = {}
    for a, pos, _neg in ref_sup_groups(y):
        cells = {}
        for i in pos:
            for j in pos:
                if i == j:
                    continue
                eps = int(sum(float(p) * float(q) for p, q in zip(y[i], y[j])))
                cells.setdefault(eps, []).append((ids[i], ids[j]))
        for eps, pairs in cells.items():
            table = tables.setdefault(eps, np.zeros((n_protos, n_protos)))
            for i, j in pairs:
                table[i, j] += 1.0 / len(pairs)
    return {eps: t / t.sum() for eps, t in tables.items()}


def ref_lars_step(params, grads, state, velocities):
    """One LARS step, parameter by parameter, on name -> array dicts.

    ``state`` supplies the hyperparameters of an ``OptimizerState``;
    ``velocities`` maps names to momentum buffers and gains the missing
    ones. Updates ``params`` and ``velocities`` in place.
    """
    for name, w in params.items():
        g = grads[name]
        step = g + state.weight_decay * w if state.weight_decay else g
        if w.ndim > 1:
            w_norm = float(np.linalg.norm(w))
            with np.errstate(over="ignore"):
                g_norm = float(np.linalg.norm(g))
            if not np.isfinite(g_norm):  # finite g whose squares overflow
                m = float(np.max(np.abs(g)))
                g_norm = m * float(np.linalg.norm(g / m))
            local = state.trust_coeff * w_norm / (
                g_norm + state.weight_decay * w_norm + 1e-12
            )
            eff_lr = state.base_lr * local
        else:
            eff_lr = state.base_lr
        v = velocities.setdefault(name, np.zeros_like(w))
        v *= state.momentum
        v += eff_lr * step
        w -= v


def finite_diff_grad(fn, x, eps=1e-5):
    """Central-difference gradient of a scalar function at ``x``.

    This is the oracle the analytic gradients are tested against, so it
    deliberately loops entry by entry and never calls back into them.
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


def rel_error(a, b):
    """max |a-b| / max(1, |a|, |b|), the gradient-check discrepancy measure."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = max(1.0, float(np.max(np.abs(a)) if a.size else 0.0),
                float(np.max(np.abs(b)) if b.size else 0.0))
    diff = float(np.max(np.abs(a - b))) if a.size else 0.0
    return diff / denom


def quantized_gaussian_table(rho, bins=64, span=6.0):
    """Joint table of a bivariate gaussian quantized onto ``bins`` cells per
    axis, an independent check on ``gaussian_mi`` through ``discrete_mi``.

    Cell masses come from CDF differences; the outermost edges sit at
    +-span standard deviations. The table is renormalized to absorb CDF
    rounding at the 1e-8 level.
    """
    if bins < 32:
        raise ContractError(f"need >= 32 bins per axis, got {bins}")
    if not abs(rho) < 1.0:
        raise ContractError(f"need |rho| < 1, got {rho}")
    edges = np.linspace(-span, span, bins + 1)
    grid_x, grid_y = np.meshgrid(edges, edges, indexing="ij")
    points = np.column_stack([grid_x.ravel(), grid_y.ravel()])
    dist = multivariate_normal(mean=[0.0, 0.0],
                               cov=[[1.0, rho], [rho, 1.0]])
    cdf = dist.cdf(points).reshape(bins + 1, bins + 1)
    cells = cdf[1:, 1:] - cdf[:-1, 1:] - cdf[1:, :-1] + cdf[:-1, :-1]
    cells = np.clip(cells, 0.0, None)
    return cells / cells.sum()


def old_info_nce(pos, block, bound, keep):
    """``losses._info_nce`` in its earlier formulation, on the same
    arguments: -inf at the dropped entries by boolean index, then one exp
    over the whole block, and every row outside [floor, inf) redone from
    that masked block with its own max."""
    neg = block()
    drop = ~keep
    neg[drop] = -np.inf
    with np.errstate(over="ignore", divide="ignore"):
        np.exp(neg, out=neg)
        rowsum = np.sum(neg, axis=1, keepdims=True)
        lse_neg = bound + np.log(rowsum)
    redo = np.flatnonzero(~((rowsum >= losses._SUM_FLOOR) & (rowsum < np.inf)))
    if redo.size:
        own = block()
        own[drop] = -np.inf
        own = own[redo]
        lse_own, rowsum[redo] = row_logsumexp(own)
        neg[redo] = own
        lse_neg[redo] = bound + lse_own
    terms, d_pos, q = losses._info_nce_terms(pos, lse_neg)
    c = np.sum(q, axis=1, keepdims=True) / rowsum
    return terms, d_pos, neg, c


def old_symmetric_info_nce(left, right, zh, pos, bound, partner):
    """``losses._symmetric_info_nce`` in its earlier formulation: each
    band's self and partner entries set to -inf before its exp."""
    size = len(zh)
    step = -(-size // (size // losses._SYM_BAND_ROWS))
    spans = [(lo, min(lo + step, size)) for lo in range(0, size, step)]
    bands = []
    rowsum, ones = np.zeros(size), np.ones(size)
    with np.errstate(over="ignore"):
        for lo, hi in spans:
            e = left[lo:hi] @ right[lo:].T
            rows = np.arange(hi - lo)
            e[rows, rows] = -np.inf
            own = partner[lo:hi] >= lo
            e[rows[own], partner[lo:hi][own] - lo] = -np.inf
            np.exp(e, out=e)
            rowsum[lo:hi] += e @ ones[lo:]
            rowsum[hi:] += ones[lo:hi] @ e[:, hi - lo:]
            bands.append(e)
    if not np.all((rowsum >= losses._SUM_FLOOR) & (rowsum < np.inf)):
        return None
    rowsum = rowsum[:, None]
    terms, d_pos, q = losses._info_nce_terms(pos, bound + np.log(rowsum))
    c = q / rowsum
    y = np.hstack([zh, c * zh])
    prod = np.zeros_like(y)
    for (lo, hi), e in zip(spans, bands):
        prod[lo:hi] += e @ y[lo:]
        prod[hi:] += e[:, hi - lo:].T @ y[lo:hi]
    d = zh.shape[1]
    return terms, d_pos, c * prod[:, :d] + prod[:, d:]
