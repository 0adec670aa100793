"""Mutual-information references and the empirical bound-check harnesses.

Two bounds are verified on synthetic data with computable ground truth:

* unsupervised: train the two-view weighted contrastive objective, then
  check  -L_u + ln|N|  <=  I(X1; X2)  on held-out data, where the reference
  MI is closed-form for a shared scalar gaussian latent;
* supervised: train the label-weighted objective on a prototype-structured
  multi-label family, then check  (-L_s + N_term) / eps  <=  I(Xi; Xj)
  per stratum of eps (the number of positive labels a pair shares), with
  the reference MI computed by quantizing samples to prototypes and running
  the discrete MI of the enumerated pair distribution.

Training losses are evaluated on held-out batches: the bounds concern the
population quantities, and training-set values would overstate them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.stats import multivariate_normal

from .data import Dataset, sample_batch, take_rows
from .errors import ContractError, DegenerateBatchError, NumericError
from .losses import (ContrastiveBatch, SimilarityConfig, _label_groups,
                     _sup_groups, unsup_loss_multiview, weighted_sup_loss)
from .model import encode, init_params, model_backward, named_parameters
from .numeric import Matrix, Rng, as_matrix, make_rng, unit_rows
from .optimizer import OptimizerState, lars_step


class JointTable:
    """A joint probability table over a finite alphabet pair."""

    def __init__(self, probabilities) -> None:
        p = as_matrix(probabilities, "joint table")
        if (p < 0.0).any():
            raise ContractError("joint probabilities must be >= 0")
        total = float(p.sum())
        if abs(total - 1.0) > 1e-12:
            raise ContractError(
                f"joint probabilities must sum to 1, got {total!r}"
            )
        self.probabilities = p
        self.marginal_x = p.sum(axis=1)
        self.marginal_y = p.sum(axis=0)


def discrete_mi(joint) -> float:
    """sum p(x,y) ln[p(x,y) / (p(x) p(y))], with 0 ln 0 = 0. Never negative."""
    table = joint if isinstance(joint, JointTable) else JointTable(joint)
    p = table.probabilities
    outer = np.outer(table.marginal_x, table.marginal_y)
    mask = p > 0.0
    total = float(np.sum(p[mask] * np.log(p[mask] / outer[mask])))
    # MI >= 0; float cancellation can leave a tiny negative residue
    return max(total, 0.0)


def gaussian_mi(rho: float) -> float:
    """MI of a bivariate gaussian pair with correlation ``rho``, in nats."""
    if not abs(rho) < 1.0:
        raise ContractError(f"need |rho| < 1, got {rho}")
    return -0.5 * math.log1p(-rho * rho)


def quantized_gaussian_table(rho: float, bins: int = 64,
                             span: float = 6.0) -> JointTable:
    """Quantize a bivariate gaussian onto a grid of ``bins`` cells per axis.

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
    return JointTable(cells / cells.sum())


def neg_size_term(labels: Matrix) -> float:
    """(1/c) sum_a ln|N(a)| where N(a) = rows with label a negative."""
    y = as_matrix(labels, "labels")
    neg_counts = (y == 0.0).sum(axis=0)
    if (neg_counts == 0).any():
        bad = int(np.flatnonzero(neg_counts == 0)[0])
        raise DegenerateBatchError(
            f"label {bad} has no negative samples in this batch"
        )
    return float(np.log(neg_counts.astype(np.float64)).mean())


@dataclass
class BoundReport:
    """One empirical bound evaluation against its reference MI."""

    size: int
    seed: int
    loss: float
    bound: float
    reference_mi: float
    tolerance: float = 0.05
    stratum: int | None = None
    satisfied: bool = field(init=False)
    gap: float = field(init=False)

    def __post_init__(self) -> None:
        if self.tolerance <= 0:
            raise ContractError(f"tolerance must be > 0, got {self.tolerance}")
        self.satisfied = bool(self.bound <= self.reference_mi + self.tolerance)
        self.gap = self.reference_mi - self.bound


def reports_to_csv(reports: list[BoundReport], loss_name: str) -> str:
    lines = [f"size,seed,stratum,{loss_name},bound,reference_mi,gap,satisfied"]
    for r in reports:
        stratum = "" if r.stratum is None else str(r.stratum)
        lines.append(
            f"{r.size},{r.seed},{stratum},{r.loss!r},{r.bound!r},"
            f"{r.reference_mi!r},{r.gap!r},{str(r.satisfied).lower()}"
        )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Synthetic families with computable reference MI


@dataclass(frozen=True)
class GaussianPairSpec:
    """Two linear views of a shared gaussian latent u ~ N(0, I_p):
    X_v = signal_v * (u V_v) + noise_v * eps with V_v orthonormal rows.

    Each of the p latent components contributes one canonical correlation
    rho1 * rho2 (rho_v = signal_v / sqrt(signal_v^2 + noise_v^2)), so the
    exact MI is p * gaussian_mi(rho1 * rho2)."""

    latent_dim: int = 4
    d1: int = 8
    d2: int = 8
    signal1: float = 1.0
    signal2: float = 1.0
    noise1: float = 0.1
    noise2: float = 0.1

    def __post_init__(self) -> None:
        if self.latent_dim < 1:
            raise ContractError("latent_dim must be >= 1")
        if min(self.d1, self.d2) < self.latent_dim:
            raise ContractError("view dims must be >= latent_dim")
        if min(self.signal1, self.signal2) < 0 or min(self.noise1, self.noise2) <= 0:
            raise ContractError("need signal >= 0 and noise > 0")

    def rho(self) -> float:
        r1 = self.signal1 / math.hypot(self.signal1, self.noise1)
        r2 = self.signal2 / math.hypot(self.signal2, self.noise2)
        return r1 * r2

    def reference_mi(self) -> float:
        return self.latent_dim * gaussian_mi(self.rho())


def _orthonormal_rows(rng: Rng, p: int, d: int) -> Matrix:
    q, _ = np.linalg.qr(rng.normal(size=(d, p)))
    return q[:, :p].T


def make_gaussian_pair(spec: GaussianPairSpec, n: int, rng: Rng) -> Dataset:
    if n < 2:
        raise ContractError(f"need n >= 2, got {n}")
    p = spec.latent_dim
    u = rng.normal(size=(n, p))
    v1 = _orthonormal_rows(rng, p, spec.d1)
    v2 = _orthonormal_rows(rng, p, spec.d2)
    x1 = spec.signal1 * (u @ v1) + spec.noise1 * rng.normal(size=(n, spec.d1))
    x2 = spec.signal2 * (u @ v2) + spec.noise2 * rng.normal(size=(n, spec.d2))
    labels = np.column_stack([(u[:, 0] > 0).astype(np.float64),
                              (u[:, 0] <= 0).astype(np.float64)])
    meta = {"latent": u, "view_maps": [v1, v2], "spec": spec}
    return Dataset(views=[x1, x2], labels=labels,
                   labeled_mask=np.ones(n, dtype=bool), name="gaussian-pair",
                   meta=meta)


@dataclass(frozen=True)
class RingProtoSpec:
    """c prototype points on a planar ring; a sample from prototype k is the
    prototype plus isotropic noise and carries positive labels k and k+1
    (cyclic). Same-prototype pairs share 2 labels, adjacent-prototype pairs
    share 1, others 0."""

    c: int = 6
    noise_sd: float = 0.05
    radius: float = 1.0

    def __post_init__(self) -> None:
        if self.c < 3:
            raise ContractError(f"need c >= 3 prototypes, got {self.c}")
        if self.noise_sd < 0 or self.radius <= 0:
            raise ContractError("need noise_sd >= 0 and radius > 0")

    def prototypes(self) -> Matrix:
        angles = 2.0 * np.pi * np.arange(self.c) / self.c
        return self.radius * np.column_stack([np.cos(angles), np.sin(angles)])


def make_ring_dataset(spec: RingProtoSpec, n: int, rng: Rng) -> Dataset:
    if n < 2 * spec.c:
        raise ContractError(f"need n >= {2 * spec.c}, got {n}")
    protos = spec.prototypes()
    ids = rng.permutation(np.arange(n) % spec.c)
    x = protos[ids] + spec.noise_sd * rng.normal(size=(n, 2))
    labels = np.zeros((n, spec.c))
    labels[np.arange(n), ids] = 1.0
    labels[np.arange(n), (ids + 1) % spec.c] = 1.0
    meta = {"prototypes": protos, "ids": ids, "spec": spec}
    return Dataset(views=[x], labels=labels, labeled_mask=np.ones(n, dtype=bool),
                   name="ring", meta=meta)


def quantize_to_prototypes(x: Matrix, prototypes: Matrix) -> np.ndarray:
    """Nearest-prototype id per row (the discretized latent)."""
    x = as_matrix(x, "features")
    d2 = ((x[:, None, :] - prototypes[None, :, :]) ** 2).sum(axis=2)
    return np.argmin(d2, axis=1)


# ---------------------------------------------------------------------------
# Bound-check harnesses


@dataclass(frozen=True)
class BoundTrainSpec:
    """Training/evaluation protocol for the bound harnesses."""

    epochs: int = 300
    base_lr: float = 0.5
    momentum: float = 0.9
    trust_coeff: float = 0.05
    temperature: float = 0.1
    latent_dim: int = 8
    hidden_dim: int = 32
    n_train: int = 512
    n_eval: int = 1024
    eval_batches: int = 8
    batch_size: int = 128
    seeds: tuple = (0, 1, 2, 3, 4)
    tolerance: float = 0.05

    def __post_init__(self) -> None:
        if self.epochs < 1 or self.eval_batches < 1 or self.batch_size < 1:
            raise ContractError("epochs, eval_batches, batch_size must be >= 1")
        if self.n_train < 2 or self.n_eval < 2:
            raise ContractError("need n_train >= 2 and n_eval >= 2")
        if not self.seeds:
            raise ContractError("need at least one seed")
        if self.tolerance <= 0:
            raise ContractError(f"tolerance must be > 0, got {self.tolerance}")


def _two_view_batch(ds: Dataset, plan, params) -> tuple[ContrastiveBatch, object, object]:
    rows = plan.anchors
    x1 = ds.views[0][rows]
    x2 = ds.views[1][rows]
    z1, c1 = encode(params, x1, view=1)
    z2, c2 = encode(params, x2, view=2)
    batch = ContrastiveBatch(z1=z1, z2=z2, x1=x1, x2=x2, neg_mask=plan.neg_mask)
    return batch, c1, c2


def _train_two_view(ds: Dataset, size: int, spec: BoundTrainSpec, rng: Rng):
    """Minimize the weighted two-view loss with |N| = size pools."""
    cfg = SimilarityConfig(temperature=spec.temperature)
    params = init_params(
        rng,
        encoder_sizes=[ds.views[0].shape[1], spec.hidden_dim, spec.latent_dim],
        classifier_sizes=[2 * spec.latent_dim, 2],
        encoder2_sizes=[ds.views[1].shape[1], spec.hidden_dim, spec.latent_dim],
    )
    state = OptimizerState(base_lr=spec.base_lr, momentum=spec.momentum,
                           trust_coeff=spec.trust_coeff)
    for _ in range(spec.epochs):
        plan = sample_batch(ds, size + 1, size, rng)
        batch, c1, c2 = _two_view_batch(ds, plan, params)
        _, d_z1, d_z2 = unsup_loss_multiview(batch, cfg, weighted=True)
        grads = model_backward(params, enc1_cache=c1, enc2_cache=c2,
                               d_z1=d_z1, d_z2=d_z2)
        lars_step(named_parameters(params), grads, state)
    return params, cfg


def _eval_unsup(ds: Dataset, size: int, params, cfg, spec: BoundTrainSpec,
                rng: Rng) -> float:
    values = []
    for _ in range(spec.eval_batches):
        plan = sample_batch(ds, size + 1, size, rng)
        batch, _, _ = _two_view_batch(ds, plan, params)
        value, _, _ = unsup_loss_multiview(batch, cfg, weighted=True)
        values.append(value)
    return float(np.mean(values))


def check_unsup_bound(data_spec: GaussianPairSpec, train_spec: BoundTrainSpec,
                      sizes: list[int]) -> list[BoundReport]:
    """Train per (|N|, seed), then verify -L_u + ln|N| <= reference MI on
    held-out pools. A diverged run yields a NaN-bound unsatisfied report
    instead of aborting the sweep."""
    if not sizes or any(int(s) < 1 for s in sizes):
        raise ContractError(f"sizes must be positive, got {sizes}")
    reference = data_spec.reference_mi()
    reports = []
    for size in sorted(int(s) for s in sizes):
        if size + 1 > min(train_spec.n_train, train_spec.n_eval):
            raise ContractError(
                f"|N| = {size} needs more rows than n_train/n_eval allow"
            )
        for seed in train_spec.seeds:
            # One draw per seed keeps the view maps shared between the
            # training rows and the held-out rows.
            data_rng = make_rng(900_000 + seed)
            pool = make_gaussian_pair(
                data_spec, train_spec.n_train + train_spec.n_eval, data_rng
            )
            train_ds = take_rows(pool, np.arange(train_spec.n_train))
            eval_ds = take_rows(
                pool, np.arange(train_spec.n_train, pool.n)
            )
            run_rng = make_rng(seed * 100_000 + size)
            try:
                params, cfg = _train_two_view(train_ds, size, train_spec, run_rng)
                l_u = _eval_unsup(eval_ds, size, params, cfg, train_spec, run_rng)
                bound = -l_u + math.log(size)
            except NumericError:
                l_u, bound = float("nan"), float("nan")
            reports.append(BoundReport(size=size, seed=seed, loss=l_u,
                                       bound=bound, reference_mi=reference,
                                       tolerance=train_spec.tolerance))
    return reports


def _stratum_sup_losses(z: Matrix, labels: Matrix, cfg: SimilarityConfig
                        ) -> dict[int, tuple[float, float]]:
    """Per-shared-label-count stratum: (restricted loss, matching N term).

    Reads the production loss's per-pair terms but averages only over
    ordered positive pairs whose shared-positive count equals the stratum.
    """
    y = as_matrix(labels, "labels")
    shared = (y @ y.T).astype(int)
    per_stratum: dict[int, list[tuple[float, float]]] = {}
    for pos, partners, neg, terms, _, _ in _sup_groups(
            unit_rows(z), y, cfg.temperature, indicator=False):
        eps = shared[pos[:, None], partners]
        for stratum in np.unique(eps):
            per_stratum.setdefault(int(stratum), []).append(
                (float(terms[eps == stratum].mean()), math.log(neg.size))
            )
    out = {}
    for stratum, pairs in per_stratum.items():
        losses, n_terms = zip(*pairs)
        out[stratum] = (float(np.mean(losses)), float(np.mean(n_terms)))
    return out


def _stratum_reference_mi(ids: np.ndarray, labels: Matrix, n_protos: int
                          ) -> dict[int, float]:
    """Reference MI per stratum from the enumerated positive-pair
    distribution over quantized (prototype) ids, weighted exactly as the
    loss weighs pairs: uniform over labels, uniform over pairs per label."""
    y = as_matrix(labels, "labels")
    shared = (y @ y.T).astype(int)
    tables: dict[int, list[np.ndarray]] = {}
    for pos, _ in _label_groups(y):
        eps = shared[np.ix_(pos, pos)]
        offdiag = ~np.eye(pos.size, dtype=bool)
        for stratum in np.unique(eps[offdiag]):
            mask = offdiag & (eps == stratum)
            count = int(mask.sum())
            table = np.zeros((n_protos, n_protos))
            ii, jj = np.nonzero(mask)
            np.add.at(table, (ids[pos[ii]], ids[pos[jj]]), 1.0 / count)
            tables.setdefault(int(stratum), []).append(table)
    out = {}
    for stratum, parts in tables.items():
        joint = np.sum(parts, axis=0)
        out[stratum] = discrete_mi(JointTable(joint / joint.sum()))
    return out


def check_sup_bound(data_spec: RingProtoSpec, train_spec: BoundTrainSpec
                    ) -> list[BoundReport]:
    """Train the label-weighted objective, then verify, per eps stratum,
    (-L_s + N) / eps <= reference MI of the quantized pair distribution."""
    reports = []
    cfg = SimilarityConfig(temperature=train_spec.temperature)
    for seed in train_spec.seeds:
        data_rng = make_rng(800_000 + seed)
        train_ds = make_ring_dataset(data_spec, train_spec.n_train, data_rng)
        eval_ds = make_ring_dataset(data_spec, train_spec.n_eval, data_rng)
        run_rng = make_rng(seed * 100_000 + 777)
        params = init_params(
            run_rng,
            encoder_sizes=[2, train_spec.hidden_dim, train_spec.latent_dim],
            classifier_sizes=[train_spec.latent_dim, data_spec.c],
        )
        state = OptimizerState(base_lr=train_spec.base_lr,
                               momentum=train_spec.momentum,
                               trust_coeff=train_spec.trust_coeff)
        train_rows = train_ds.labeled_indices
        for _ in range(train_spec.epochs):
            rows = run_rng.choice(train_rows,
                                  size=min(train_spec.batch_size, train_rows.size),
                                  replace=False)
            z, cache = encode(params, train_ds.views[0][rows])
            _, d_z = weighted_sup_loss(z, train_ds.labels[rows], cfg)
            grads = model_backward(params, enc1_cache=cache, d_z1=d_z)
            lars_step(named_parameters(params), grads, state)
        rows = run_rng.choice(eval_ds.n, size=min(train_spec.batch_size * 2,
                                                  eval_ds.n), replace=False)
        x_eval = eval_ds.views[0][rows]
        y_eval = eval_ds.labels[rows]
        z_eval, _ = encode(params, x_eval)
        strata = _stratum_sup_losses(z_eval, y_eval, cfg)
        if not strata:
            raise DegenerateBatchError(
                "no label in the evaluation batch has two positives and a negative"
            )
        ids = quantize_to_prototypes(x_eval, eval_ds.meta["prototypes"])
        references = _stratum_reference_mi(ids, y_eval, data_spec.c)
        neg_common = int(round(math.exp(neg_size_term(y_eval))))
        for stratum in sorted(strata):
            loss, n_term = strata[stratum]
            bound = (-loss + n_term) / stratum
            reports.append(BoundReport(size=neg_common, seed=seed, loss=loss,
                                       bound=bound,
                                       reference_mi=references[stratum],
                                       tolerance=train_spec.tolerance,
                                       stratum=stratum))
    return reports
