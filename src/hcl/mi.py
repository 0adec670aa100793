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
from itertools import product

import numpy as np

from .data import BatchPlan, Dataset, sample_batch, take_rows
from .errors import ContractError, NumericError
from .ioutil import csv_text
from .losses import _check_tau, _sup_engine, sup_labels
from .model import encode, init_params
from .numeric import Matrix, Rng, as_matrix, gram, make_rng
from .optimizer import OptimizerState
from .train import run_cells, step_forward, train_step


def discrete_mi(joint) -> float:
    """sum p(x,y) ln[p(x,y) / (p(x) p(y))] of a joint probability table,
    with 0 ln 0 = 0. Never negative."""
    p = as_matrix(joint, "joint table")
    if (p < 0.0).any():
        raise ContractError("joint probabilities must be >= 0")
    total = float(p.sum())
    if abs(total - 1.0) > 1e-12:
        raise ContractError(f"joint probabilities must sum to 1, got {total!r}")
    outer = np.outer(p.sum(axis=1), p.sum(axis=0))
    mask = p > 0.0
    mi = float(np.sum(p[mask] * np.log(p[mask] / outer[mask])))
    # MI >= 0; float cancellation can leave a tiny negative residue
    return max(mi, 0.0)


def gaussian_mi(rho: float) -> float:
    """MI of a bivariate gaussian pair with correlation ``rho``, in nats."""
    if not abs(rho) < 1.0:
        raise ContractError(f"need |rho| < 1, got {rho}")
    return -0.5 * math.log1p(-rho * rho)


@dataclass
class BoundReport:
    """One empirical bound evaluation against its reference MI.

    ``size`` is |N|: the negative-set size of an unsupervised check, and the
    stratum's N term as exp(mean ln|N(a)|), rounded, of a supervised one.
    A supervised seed that diverged has no strata: its one report has size
    0, no stratum, and NaN loss, bound and reference MI.
    """

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
    return csv_text(
        ["size", "seed", "stratum", loss_name, "bound", "reference_mi", "gap",
         "satisfied"],
        [(r.size, r.seed, r.stratum, r.loss, r.bound, r.reference_mi, r.gap,
          r.satisfied) for r in reports])


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
    """n rows of the family, labeled by the sign of the first latent
    component. Draw order: the (n, latent_dim) latent, the view-1 and view-2
    maps (``_orthonormal_rows``), then the view-1 and view-2 noise."""
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
    return Dataset(views=[x1, x2], labels=labels,
                   labeled_mask=np.ones(n, dtype=bool))


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
    """n samples with balanced prototype ids. Draw order: the permutation
    of the ids, then the (n, 2) noise."""
    if n < 2 * spec.c:
        raise ContractError(f"need n >= {2 * spec.c}, got {n}")
    ids = rng.permutation(np.arange(n) % spec.c)
    x = spec.prototypes()[ids] + spec.noise_sd * rng.normal(size=(n, 2))
    labels = np.zeros((n, spec.c))
    labels[np.arange(n), ids] = 1.0
    labels[np.arange(n), (ids + 1) % spec.c] = 1.0
    return Dataset(views=[x], labels=labels, labeled_mask=np.ones(n, dtype=bool))


def quantize_to_prototypes(x: Matrix, prototypes: Matrix) -> np.ndarray:
    """Nearest-prototype id per row (the discretized latent)."""
    x = as_matrix(x, "features")
    d2 = ((x[:, None, :] - prototypes[None, :, :]) ** 2).sum(axis=2)
    return np.argmin(d2, axis=1)


# ---------------------------------------------------------------------------
# Bound-check harnesses


# The bound harnesses' fixed settings: LARS hyperparameters, the encoders'
# hidden and latent widths, and the supervised check's batch size.
_BOUND_LARS = {"base_lr": 0.5, "momentum": 0.9, "trust_coeff": 0.05}
_BOUND_HIDDEN, _BOUND_LATENT = 32, 8
_SUP_BOUND_BATCH = 128


@dataclass(frozen=True)
class BoundTrainSpec:
    """Training/evaluation protocol for the bound harnesses."""

    epochs: int = 300
    temperature: float = 0.1
    n_train: int = 512
    n_eval: int = 1024
    eval_batches: int = 8
    seeds: tuple = (0, 1, 2, 3, 4)
    tolerance: float = 0.05

    def __post_init__(self) -> None:
        if self.epochs < 1 or self.eval_batches < 1:
            raise ContractError("epochs and eval_batches must be >= 1")
        if self.n_train < 2 or self.n_eval < 2:
            raise ContractError("need n_train >= 2 and n_eval >= 2")
        if not self.seeds:
            raise ContractError("need at least one seed")
        if self.tolerance <= 0:
            raise ContractError(f"tolerance must be > 0, got {self.tolerance}")
        _check_tau(self.temperature)


def check_unsup_bound(data_spec: GaussianPairSpec, train_spec: BoundTrainSpec,
                      sizes: list[int]) -> list[BoundReport]:
    """Train per (|N|, seed), then verify -L_u + ln|N| <= reference MI on
    held-out pools. A diverged run yields a NaN-bound unsatisfied report
    instead of aborting the sweep."""
    if not sizes or any(int(s) < 1 for s in sizes):
        raise ContractError(f"sizes must be positive, got {sizes}")
    sizes = sorted(int(s) for s in sizes)
    # every size is checked before the first cell trains
    if sizes[-1] + 1 > min(train_spec.n_train, train_spec.n_eval):
        raise ContractError(
            f"|N| = {sizes[-1]} needs more rows than n_train/n_eval allow"
        )
    reference = data_spec.reference_mi()
    tau = train_spec.temperature

    def check_cell(cell) -> BoundReport:
        size, seed = cell
        # One draw per seed keeps the view maps shared between the training
        # rows and the held-out rows.
        data_rng = make_rng(900_000 + seed)
        pool = make_gaussian_pair(
            data_spec, train_spec.n_train + train_spec.n_eval, data_rng)
        train_ds = take_rows(pool, np.arange(train_spec.n_train))
        eval_ds = take_rows(pool, np.arange(train_spec.n_train, pool.n))
        run_rng = make_rng(seed * 100_000 + size)
        enc = [_BOUND_HIDDEN, _BOUND_LATENT]
        params = init_params(run_rng,
                             [[data_spec.d1, *enc], [data_spec.d2, *enc]],
                             [2 * _BOUND_LATENT, 2])
        state = OptimizerState(**_BOUND_LARS)
        try:
            for _ in range(train_spec.epochs):
                plan = sample_batch(train_ds, size + 1, size, run_rng)
                train_step(params, state, train_ds, plan, (0.0, 1.0, 0.0), tau)
            values = []
            for _ in range(train_spec.eval_batches):
                plan = sample_batch(eval_ds, size + 1, size, run_rng)
                (_, value, _), _ = step_forward(params, eval_ds, plan,
                                                (0.0, 1.0, 0.0), tau)
                values.append(value)
            l_u = float(np.mean(values))
            bound = -l_u + math.log(size)
        except NumericError:
            l_u, bound = float("nan"), float("nan")
        return BoundReport(size=size, seed=seed, loss=l_u, bound=bound,
                           reference_mi=reference,
                           tolerance=train_spec.tolerance)

    reports, failure = run_cells(product(sizes, train_spec.seeds), check_cell)
    if failure is not None:
        raise failure[1]
    return reports


def _stratum_terms(z: Matrix, labels: Matrix, ids: np.ndarray, n_protos: int,
                   tau: float) -> dict[int, tuple[float, float, float]]:
    """Per-shared-label-count stratum: (restricted loss, matching N term,
    reference MI), from one pass over the flat pairs of the label half
    (``losses.sup_labels``). Ring labels give every row two positives, so
    the label half takes the label weights.

    The loss reads the production loss's per-pair terms but averages only
    over ordered positive pairs whose shared-positive count equals the
    stratum. The reference MI is that of the same pairs' distribution over
    quantized (prototype) ids, weighted exactly as the loss weighs pairs:
    uniform over labels, uniform over pairs per label.
    """
    y = as_matrix(labels, "labels")
    half = sup_labels(y)
    terms = _sup_engine(z, half, tau)[0]
    pa, (pi, pj) = half.pa, np.divmod(half.pair, len(y))
    eps = gram(y).astype(int)[pi, pj]
    log_negs = np.log(np.sum(half.absent, axis=0))
    out = {}
    for stratum in np.unique(eps):
        sel = eps == stratum
        # the labels with pairs in this stratum, and each one's pair count
        labels_in, of_label, count = np.unique(
            pa[sel], return_inverse=True, return_counts=True)
        joint = np.zeros((n_protos, n_protos))
        np.add.at(joint, (ids[pi[sel]], ids[pj[sel]]), 1.0 / count[of_label])
        out[int(stratum)] = (
            float(np.mean(np.bincount(of_label, weights=terms[sel]) / count)),
            float(np.mean(log_negs[labels_in])),
            discrete_mi(joint / joint.sum()))
    return out


def check_sup_bound(data_spec: RingProtoSpec, train_spec: BoundTrainSpec
                    ) -> list[BoundReport]:
    """Train the label-weighted objective, then verify, per eps stratum,
    (-L_s + N) / eps <= reference MI of the quantized pair distribution.
    A diverged seed yields one NaN report instead of aborting the sweep."""
    tau = train_spec.temperature
    prototypes = data_spec.prototypes()

    def check_seed(seed: int) -> list[BoundReport]:
        data_rng = make_rng(800_000 + seed)
        train_ds = make_ring_dataset(data_spec, train_spec.n_train, data_rng)
        eval_ds = make_ring_dataset(data_spec, train_spec.n_eval, data_rng)
        run_rng = make_rng(seed * 100_000 + 777)
        params = init_params(run_rng, [[2, _BOUND_HIDDEN, _BOUND_LATENT]],
                             [_BOUND_LATENT, data_spec.c])
        state = OptimizerState(**_BOUND_LARS)
        train_rows = train_ds.labeled_indices
        batch = min(_SUP_BOUND_BATCH, train_rows.size)
        try:
            for _ in range(train_spec.epochs):
                # every row labeled; the bound bits follow the draw order
                rows = run_rng.choice(train_rows, size=batch, replace=False)
                train_step(params, state, train_ds,
                           BatchPlan(rows, np.arange(batch), None),
                           (0.0, 0.0, 1.0), tau)
            rows = run_rng.choice(eval_ds.n, size=min(_SUP_BOUND_BATCH * 2,
                                                      eval_ds.n), replace=False)
            x_eval = eval_ds.views[0][rows]
            z_eval, _ = encode(params, x_eval)
            ids = quantize_to_prototypes(x_eval, prototypes)
            strata = _stratum_terms(z_eval, eval_ds.labels[rows], ids,
                                    data_spec.c, tau)
        except NumericError:
            nan = float("nan")
            return [BoundReport(0, seed, nan, nan, nan,
                                tolerance=train_spec.tolerance)]
        return [BoundReport(size=round(math.exp(n_term)), seed=seed,
                            loss=loss, bound=(-loss + n_term) / stratum,
                            reference_mi=reference,
                            tolerance=train_spec.tolerance, stratum=stratum)
                for stratum, (loss, n_term, reference)
                in sorted(strata.items())]

    per_seed, failure = run_cells(train_spec.seeds, check_seed)
    if failure is not None:
        raise failure[1]
    return [report for reports in per_seed for report in reports]
