"""Training loop: one code path for every method.

A run is fully determined by (config, seed). The seed drives a single rng
whose consumption order is fixed: labeled/unlabeled split, view
construction, the single-view similarity projection, parameter init, then
the per-iteration batch stream. Terms with a zero balance weight are
skipped entirely (not computed and multiplied by zero), so a ``hcl`` run
with alpha = 0 is bit-identical to ``hcl-s``, and with alpha = beta = 0 to
``dnn``.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass

import numpy as np

from .config import RunConfig
from .data import (
    Dataset,
    load_manifest,
    make_cluster_dataset,
    make_scene_like,
    make_views,
    sample_batch,
    split,
    synth_multiview,
)
from .errors import ConfigError, ContractError, DegenerateBatchError
from .losses import (
    ContrastiveBatch,
    LossBreakdown,
    SimilarityConfig,
    cross_entropy,
    supcon_loss,
    total_loss,
    unsup_loss_multiview,
    unsup_loss_single,
    weighted_sup_loss,
)
from .metrics import EvalReport, evaluate
from .model import ModelParams, classify, encode, init_params, model_backward, named_parameters
from .numeric import Matrix, Rng, make_rng
from .optimizer import OptimizerState, lars_step


def build_dataset(cfg: RunConfig) -> Dataset:
    """The base dataset named by the config: a manifest file or a synthetic
    family generated from ``data_seed`` (fixed across run seeds)."""
    if cfg.manifest:
        return load_manifest(cfg.manifest)
    rng = make_rng(cfg.data_seed)
    if cfg.synthetic == "scene-like":
        return make_scene_like(cfg.n_samples, cfg.n_features, cfg.n_classes, rng)
    if cfg.synthetic == "cluster":
        return make_cluster_dataset(cfg.n_samples, cfg.n_features,
                                    cfg.n_classes, rng)
    return synth_multiview(cfg.n_samples, cfg.n_features, cfg.n_features,
                           cfg.n_classes, 0.05, rng)


def dataset_checksum(ds: Dataset) -> str:
    h = hashlib.sha256()
    for v in ds.views:
        h.update(np.ascontiguousarray(v, dtype="<f8").tobytes())
    h.update(np.ascontiguousarray(ds.labels, dtype="<f8").tobytes())
    return h.hexdigest()


def _prepare_views(ds: Dataset, cfg: RunConfig, rng: Rng) -> Dataset:
    """Resolve the mode against the dataset's actual view count."""
    if cfg.mode == "two-view":
        if ds.n_views == 2:
            if cfg.view1_aug != "none" or cfg.view2_aug != "none":
                raise ConfigError(
                    "config field 'view1_aug': augmentations apply only "
                    "when the dataset has a single view"
                )
            return ds
        x1, x2 = make_views(ds.views[0], cfg.view1_aug, cfg.view2_aug, rng)
        return Dataset(views=[x1, x2], labels=ds.labels,
                       labeled_mask=ds.labeled_mask, name=ds.name, meta=ds.meta)
    if ds.n_views == 2:
        # single-view protocol on two-view data: the first view stands alone
        return Dataset(views=[ds.views[0]], labels=ds.labels,
                       labeled_mask=ds.labeled_mask, name=ds.name, meta=ds.meta)
    return ds


@dataclass
class TrainResult:
    params: ModelParams
    trace: list[LossBreakdown]
    report: EvalReport
    labeled_mask: np.ndarray
    wall_seconds: float


def _encode_anchor_views(params, ds: Dataset, anchors: np.ndarray):
    z1, c1 = encode(params, ds.views[0][anchors], view=1)
    if ds.n_views == 2:
        z2, c2 = encode(params, ds.views[1][anchors], view=2)
    else:
        z2 = c2 = None
    return z1, c1, z2, c2


def _embed_rows(params, ds: Dataset, rows: np.ndarray) -> Matrix:
    s, _ = encode(params, ds.views[0][rows], view=1)
    if ds.n_views == 2:
        s2, _ = encode(params, ds.views[1][rows], view=2)
        s = np.hstack([s, s2])
    return s


def run_training(cfg: RunConfig, seed: int,
                 base: Dataset | None = None) -> TrainResult:
    """Train one model for one seed; returns parameters, the per-epoch loss
    trace, and the transductive evaluation on the unlabeled rows."""
    t0 = time.perf_counter()
    if base is None:
        base = build_dataset(cfg)
    if not 0 < cfg.n_labeled < base.n:
        raise ConfigError(
            f"config field 'n_labeled': must be in (0, {base.n}) for this "
            f"dataset, got {cfg.n_labeled}"
        )
    rng = make_rng(seed)
    ds = split(base, cfg.n_labeled, rng)
    ds = _prepare_views(ds, cfg, rng)

    latent = cfg.encoder_sizes[-1]
    # fixed random projection feeding the single-view similarity kernel;
    # drawn for every method so the downstream rng stream never shifts
    if ds.n_views == 1:
        x_sim_all = ds.views[0] @ rng.normal(size=(ds.views[0].shape[1], latent))
    else:
        x_sim_all = None

    enc_sizes = [ds.views[0].shape[1]] + list(cfg.encoder_sizes)
    enc2_sizes = [ds.views[1].shape[1]] + list(cfg.encoder_sizes) \
        if ds.n_views == 2 else None
    params = init_params(rng, enc_sizes,
                         [latent * ds.n_views, ds.c],
                         encoder2_sizes=enc2_sizes,
                         classifier_activation=cfg.classifier_activation)
    state = OptimizerState(base_lr=cfg.base_lr, momentum=cfg.momentum,
                           trust_coeff=cfg.trust_coeff,
                           weight_decay=cfg.weight_decay)
    simcfg = SimilarityConfig(temperature=cfg.temperature)
    weighted = cfg.method != "simclr-style"
    sup_fn = supcon_loss if cfg.method == "supcon-style" else weighted_sup_loss

    n_labeled = int(ds.labeled_mask.sum())
    iterations = max(1, math.ceil(n_labeled / cfg.batch_size))
    # with a full pool and one iteration the plan is deterministic and
    # consumes no rng draws, so it can be built once
    static_plan = None
    if cfg.neg_size == "full" and cfg.batch_size >= n_labeled:
        static_plan = sample_batch(ds, cfg.batch_size, cfg.neg_size, rng)

    trace: list[LossBreakdown] = []
    for epoch in range(cfg.epochs):
        sums = np.zeros(3)
        for _ in range(iterations):
            plan = static_plan if static_plan is not None else \
                sample_batch(ds, cfg.batch_size, cfg.neg_size, rng)
            try:
                l_c, l_u, l_s = _train_iteration(
                    params, state, ds, plan, cfg, simcfg, weighted, sup_fn,
                    x_sim_all, latent,
                )
            except DegenerateBatchError as err:
                raise DegenerateBatchError(f"epoch {epoch}: {err}") from err
            sums += (l_c, l_u, l_s)
        mean = sums / iterations
        trace.append(total_loss(mean[0], mean[1], mean[2], cfg.alpha, cfg.beta))

    rows = ds.unlabeled_indices
    y_hat, _ = classify(params, _embed_rows(params, ds, rows))
    report = evaluate(y_hat, ds.labels[rows], threshold=cfg.threshold,
                      multiclass=cfg.multiclass, seed=seed)
    return TrainResult(params=params, trace=trace, report=report,
                       labeled_mask=ds.labeled_mask.copy(),
                       wall_seconds=time.perf_counter() - t0)


def _train_iteration(params, state, ds, plan, cfg, simcfg, weighted, sup_fn,
                     x_sim_all, latent):
    anchors = plan.anchors
    pos = np.searchsorted(anchors, plan.labeled)
    z1, c1, z2, c2 = _encode_anchor_views(params, ds, anchors)
    s_lab = z1[pos] if z2 is None else np.hstack([z1[pos], z2[pos]])
    y_lab = ds.labels[plan.labeled]

    y_hat, ccache = classify(params, s_lab)
    l_c, d_yhat = cross_entropy(y_hat, y_lab)

    l_u = 0.0
    du1 = du2 = None
    if cfg.alpha > 0:
        if z2 is not None:
            batch = ContrastiveBatch(z1=z1, z2=z2,
                                     x1=ds.views[0][anchors],
                                     x2=ds.views[1][anchors],
                                     neg_mask=plan.neg_mask)
            l_u, du1, du2 = unsup_loss_multiview(batch, simcfg,
                                                 weighted=weighted)
        else:
            batch = ContrastiveBatch(z1=z1, x1=ds.views[0][anchors],
                                     x_sim=x_sim_all[anchors],
                                     neg_mask=plan.neg_mask)
            l_u, du1 = unsup_loss_single(batch, simcfg, weighted=weighted)

    l_s = 0.0
    d_s = None
    if cfg.beta > 0:
        l_s, d_s = sup_fn(s_lab, y_lab, simcfg)

    d_z1 = d_z2 = None
    if du1 is not None or d_s is not None:
        d_z1 = np.zeros_like(z1)
        if z2 is not None:
            d_z2 = np.zeros_like(z2)
        if du1 is not None:
            d_z1 += cfg.alpha * du1
            if du2 is not None:
                d_z2 += cfg.alpha * du2
        if d_s is not None:
            d_z1[pos] += cfg.beta * d_s[:, :latent]
            if z2 is not None:
                d_z2[pos] += cfg.beta * d_s[:, latent:]

    grads = model_backward(params, enc1_cache=c1, enc2_cache=c2,
                           cls_cache=ccache, d_yhat=d_yhat,
                           d_z1=d_z1, d_z2=d_z2, classifier_rows=pos)
    lars_step(named_parameters(params), grads, state)
    return l_c, l_u, l_s


def replay_eval(cfg: RunConfig, seed: int, params: ModelParams,
                base: Dataset | None = None) -> EvalReport:
    """Re-derive the run's evaluation split and views from (config, seed)
    and score the given parameters on the unlabeled rows, without training."""
    if base is None:
        base = build_dataset(cfg)
    if not 0 < cfg.n_labeled < base.n:
        raise ConfigError(
            f"config field 'n_labeled': must be in (0, {base.n}) for this "
            f"dataset, got {cfg.n_labeled}"
        )
    rng = make_rng(seed)
    ds = split(base, cfg.n_labeled, rng)
    ds = _prepare_views(ds, cfg, rng)
    rows = ds.unlabeled_indices
    y_hat, _ = classify(params, _embed_rows(params, ds, rows))
    return evaluate(y_hat, ds.labels[rows], threshold=cfg.threshold,
                    multiclass=cfg.multiclass, seed=seed)


# ---------------------------------------------------------------------------
# Run records


@dataclass
class RunRecord:
    """Everything needed to audit or replay one (config, seed) run."""

    config: dict
    seed: int
    trace: list[LossBreakdown]
    report: EvalReport
    wall_seconds: float
    checksums: dict

    def to_json(self) -> str:
        body = {
            "config": self.config,
            "seed": self.seed,
            "trace": [
                {"epoch": i, "l_c": b.l_c, "l_u": b.l_u, "l_s": b.l_s,
                 "j": b.j}
                for i, b in enumerate(self.trace)
            ],
            "report": {
                "f1": self.report.f1,
                "auc": self.report.auc,
                "per_label": list(self.report.per_label),
                "n_eval": self.report.n_eval,
                "seeds": list(self.report.seeds),
            },
            "wall_seconds": self.wall_seconds,
            "checksums": self.checksums,
        }
        return json.dumps(body, indent=2, sort_keys=True) + "\n"


def metrics_csv(records: list[RunRecord]) -> str:
    """Per-seed metric rows; float fields use repr so equal runs produce
    byte-identical files."""
    if not records:
        raise ContractError("need at least one run record")
    lines = ["method,seed,f1,auc,n_eval"]
    for r in sorted(records, key=lambda r: r.seed):
        method = r.config.get("method", "?")
        lines.append(
            f"{method},{r.seed},{r.report.f1!r},{r.report.auc!r},"
            f"{r.report.n_eval}"
        )
    return "\n".join(lines) + "\n"
