"""Training loop: one code path for every method, one step for every harness.

A run is fully determined by (config, seed), and ``run_training`` returns
its ``RunRecord``; the CLI, which writes the run's files, fills the
record's ``blas_threads`` and ``checksums``. The seed drives a single rng
whose consumption order is fixed: labeled/unlabeled split, view
construction, the single-view similarity projection, parameter init, then
the per-iteration batch stream.

The batch stream reads nothing of the data but its row count and labeled
mask: ``sample_batch`` draws from the rng, ``ds.n``, ``ds.labeled_mask``,
``batch_size`` and ``neg_size`` alone. So two runs whose rng stands in the
same state after the setup draws, on datasets of the same rows and labeled
mask, draw the same plans whatever their features, labels and method. A
``PlanMemo`` keys each stream on exactly that input and the step count, draws
it once and replays it to every later run with the same key; the noise sweep
passes one to all its cells. A memo keeps steps x na^2 mask bytes per stream
of sampled negative sets (na anchors a batch) and none for full
complements, whose plans hold a ``neg_mask`` of None.
Without a memo, plans are drawn one per step and dropped after it.

The supervised loss splits into a label half (``losses.sup_labels``), a
pure function of the batch's label rows, and an embedding half. The label
halves a run asks for are kept by a ``LabelHalves`` on the label rows'
shape and bytes: without a memo, the run's own, which keeps only the last
one; with a memo, the memo's, which keeps one per distinct label rows for
every run it serves. A step's label rows are the same as the last step's
whenever ``batch_size`` covers all labeled rows, since each batch then
labels all of them, so such a run makes its label half once; otherwise it
costs one copy and comparison of the label rows a step. The noise sweep's
cells of one batch stream share their label rows at every step, so its
memo makes each label half once for all of them.

``train_step`` is the one optimizer step: encode the batch's views, take
the weighted terms of J = c*L_c + u*L_u + s*L_s, backpropagate with
``model_backward`` and update with ``lars_step``. ``run_training`` steps
with weights (1, alpha, beta); the bound checks in ``mi`` step with
(0, 1, 0) and (0, 0, 1). A term whose weight is zero is skipped entirely
(not computed and multiplied by zero), so a ``hcl`` run with alpha = 0 is
bit-identical to ``hcl-s``, and with alpha = beta = 0 to ``dnn``.
"""

from __future__ import annotations

import hashlib
import math
import time
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .config import RunConfig, config_for_seed
from .data import (
    BatchPlan,
    Dataset,
    load_manifest,
    make_cluster_dataset,
    make_scene_like,
    make_views,
    sample_batch,
    split,
    synth_multiview,
)
from .errors import ConfigError, ContractError, DegenerateBatchError, HclError
from .ioutil import csv_text, json_text
from .losses import (
    ContrastiveBatch,
    LossBreakdown,
    SupLabels,
    _is_one_hot,
    cross_entropy,
    sup_labels,
    total_loss,
    unsup_loss_multiview,
    unsup_loss_single,
    weighted_sup_loss,
)
from .metrics import EvalReport, evaluate
from .model import ModelParams, classify, encode, init_params, model_backward
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


def check_dataset(ds: Dataset, cfg: RunConfig) -> None:
    """Raise ConfigError, naming the field, when the config cannot train on
    ``ds``: ``n_labeled`` must leave an unlabeled row (the eval set), an
    integer ``neg_size`` must fit in the rows, and the method and
    augmentations must suit the labels and view count."""
    if not 0 < cfg.n_labeled < ds.n:
        raise ConfigError(
            f"config field 'n_labeled': must be in (0, {ds.n}) for this "
            f"dataset, got {cfg.n_labeled}"
        )
    if cfg.neg_size != "full" and cfg.neg_size > ds.n - 1:
        raise ConfigError(
            f"config field 'neg_size': must be <= {ds.n - 1} for this "
            f"dataset of {ds.n} rows, got {cfg.neg_size}"
        )
    # supcon-style trains through weighted_sup_loss, which is plain SupCon
    # exactly when every row is one-hot or there is one label column
    if cfg.method == "supcon-style" and ds.c > 1 and not _is_one_hot(ds.labels):
        raise ConfigError(
            "config field 'method': supcon-style needs single-label data "
            "(one positive label per row); use hcl-s for multi-label data"
        )
    if cfg.mode == "two-view" and ds.n_views == 2:
        for key in ("view1_aug", "view2_aug"):
            if getattr(cfg, key) != "none":
                raise ConfigError(
                    f"config field '{key}': augmentations apply only "
                    "when the dataset has a single view"
                )


def _run_split(cfg: RunConfig, seed: int,
               base: Dataset | None) -> tuple[Dataset, Rng]:
    """The run's labeled/unlabeled split and views, derived from (config,
    seed), with the rng that drew them, positioned for the next draw. The
    mode is resolved against the dataset's actual view count."""
    if base is None:
        base = build_dataset(cfg)
    check_dataset(base, cfg)
    rng = make_rng(seed)
    ds = split(base, cfg.n_labeled, rng)
    if cfg.mode == "two-view" and ds.n_views == 1:
        x1, x2 = make_views(ds.views[0], cfg.view1_aug, cfg.view2_aug, rng)
        ds = replace(ds, views=[x1, x2])
    elif cfg.mode == "single-view" and ds.n_views == 2:
        # single-view protocol on two-view data: the first view stands alone
        ds = replace(ds, views=[ds.views[0]])
    return ds, rng


def _score(cfg: RunConfig, params, ds: Dataset) -> EvalReport:
    """Transductive evaluation of ``params`` on the unlabeled rows."""
    rows = ds.unlabeled_indices
    s = np.hstack([encode(params, x[rows], view=v + 1)[0]
                   for v, x in enumerate(ds.views)])
    y_hat, _ = classify(params, s)
    return evaluate(y_hat, ds.labels[rows], threshold=cfg.threshold,
                    multiclass=cfg.multiclass)


class LabelHalves:
    """Label halves (``losses.sup_labels``) kept on the shape and bytes of
    their label rows: every one made, or with ``last_only`` the last one.
    Called with label rows, it hands out the kept half or makes and keeps
    one."""

    def __init__(self, last_only: bool = False) -> None:
        self.last_only = last_only
        self._kept: dict[tuple, SupLabels] = {}

    def __call__(self, y: Matrix) -> SupLabels:
        key = (y.shape, y.tobytes())
        half = self._kept.get(key)
        if half is None:
            half = sup_labels(y)
            if self.last_only:
                self._kept.clear()
            self._kept[key] = half
        return half


class PlanMemo:
    """The batch streams of a sweep, each drawn once and replayed, and the
    label halves of the runs it serves (``label_halves``).

    A stream is keyed on the exact input of the sampler: the rng's
    ``bit_generator.state`` before the first draw, ``ds.n``, the labeled
    mask's bytes, ``batch_size``, ``neg_size`` and the step count. Plans
    handed out are read-only, since every run with the key shares them.
    """

    def __init__(self) -> None:
        # key -> (the stream's plans, the rng state after drawing them)
        self._streams: dict[tuple, tuple[list[BatchPlan], dict]] = {}
        self.label_halves = LabelHalves()

    def stream(self, ds: Dataset, batch_size: int, neg_size, steps: int,
               rng: Rng) -> list[BatchPlan]:
        """The ``steps`` plans ``sample_batch`` would draw from ``rng`` in
        turn, with ``rng`` left where drawing them leaves it."""
        key = (repr(rng.bit_generator.state), ds.n, ds.labeled_mask.tobytes(),
               batch_size, neg_size, steps)
        if key not in self._streams:
            plans = [self._shared(sample_batch(ds, batch_size, neg_size, rng))
                     for _ in range(steps)]
            self._streams[key] = plans, rng.bit_generator.state
        plans, end = self._streams[key]
        rng.bit_generator.state = end
        return plans

    def _shared(self, plan: BatchPlan) -> BatchPlan:
        for array in (plan.anchors, plan.labeled, plan.neg_mask):
            if array is not None:
                array.flags.writeable = False
        return plan


def run_training(cfg: RunConfig, seed: int, base: Dataset | None = None,
                 memo: PlanMemo | None = None) -> RunRecord:
    """Train one model for one seed; returns its record: the per-epoch loss
    trace, the transductive evaluation on the unlabeled rows and the trained
    parameters. With a ``memo`` the batch stream is replayed from it when an
    earlier run drew the same one, and the label halves are the memo's."""
    t0 = time.perf_counter()
    ds, rng = _run_split(cfg, seed, base)

    latent = cfg.encoder_sizes[-1]
    # fixed random projection feeding the single-view similarity kernel;
    # drawn for every method so the downstream rng stream never shifts
    if ds.n_views == 1:
        x_sim_all = ds.views[0] @ rng.normal(size=(ds.views[0].shape[1], latent))
    else:
        x_sim_all = None

    params = init_params(rng, [[x.shape[1], *cfg.encoder_sizes] for x in ds.views],
                         [latent * ds.n_views, ds.c],
                         classifier_activation=cfg.classifier_activation)
    state = OptimizerState(base_lr=cfg.base_lr, momentum=cfg.momentum,
                           trust_coeff=cfg.trust_coeff,
                           weight_decay=cfg.weight_decay)
    weights = (1.0, cfg.alpha, cfg.beta)

    n_labeled = int(ds.labeled_mask.sum())
    iterations = max(1, math.ceil(n_labeled / cfg.batch_size))
    steps = cfg.epochs * iterations
    if memo is None:
        plans = (sample_batch(ds, cfg.batch_size, cfg.neg_size, rng)
                 for _ in range(steps))
        label_halves = LabelHalves(last_only=True)
    else:
        plans = iter(memo.stream(ds, cfg.batch_size, cfg.neg_size, steps, rng))
        label_halves = memo.label_halves

    trace: list[LossBreakdown] = []
    for epoch in range(cfg.epochs):
        sums = np.zeros(3)
        for _ in range(iterations):
            plan = next(plans)
            try:
                sums += train_step(
                    params, state, ds, plan.anchors, weights, cfg.temperature,
                    labeled=np.searchsorted(plan.anchors, plan.labeled),
                    neg_mask=plan.neg_mask, x_sim=x_sim_all,
                    weighted=cfg.method != "simclr-style",
                    label_half=label_halves,
                )
            except DegenerateBatchError as err:
                raise DegenerateBatchError(f"epoch {epoch}: {err}") from err
        mean = sums / iterations
        trace.append(total_loss(mean[0], mean[1], mean[2], cfg.alpha,
                                cfg.beta))

    report = _score(cfg, params, ds)
    wall_seconds = time.perf_counter() - t0
    return RunRecord(config=config_for_seed(cfg, seed), seed=seed, trace=trace,
                     report=report, wall_seconds=wall_seconds, params=params)


def step_forward(params: ModelParams, ds: Dataset, rows: np.ndarray,
                 weights: tuple[float, float, float], tau: float,
                 *, labeled: np.ndarray | None = None,
                 neg_mask: np.ndarray | None = None,
                 x_sim: np.ndarray | None = None, weighted: bool = True,
                 label_half=sup_labels
                 ) -> tuple[tuple[float, float, float], dict]:
    """The forward half of ``train_step``: the terms (l_c, l_u, l_s) on the
    batch ``rows`` of ``ds``, and the ``model_backward`` arguments for the
    gradient of c*l_c + u*l_u + s*l_s, where (c, u, s) = ``weights`` and
    ``tau`` is the kernel temperature of l_u and l_s.

    ``labeled``: positions in ``rows`` the classifier and l_s see (default
    all). ``neg_mask``: the anchors' negative sets (None: the full
    complement). ``x_sim``: per-dataset-row similarity side of the
    single-view l_u. l_u takes one batch of all views, and ``weighted =
    False`` leaves out its raw features, which gives plain InfoNCE.
    ``label_half``: label rows -> their label half for l_s, made afresh by
    default (``losses.sup_labels``) or kept by a ``LabelHalves``.
    """
    c, u, s = weights
    xs = [x[rows] for x in ds.views]
    zs, caches = zip(*(encode(params, x, view=v + 1) for v, x in enumerate(xs)))
    back = {"enc_caches": list(caches), "classifier_rows": labeled}
    l_c = l_u = l_s = 0.0
    if c > 0 or s > 0:
        pos = slice(None) if labeled is None else labeled
        s_lab = np.concatenate([z[pos] for z in zs], axis=1)
        y_lab = ds.labels[rows[pos]]
    if c > 0:
        y_hat, back["cls_cache"] = classify(params, s_lab)
        l_c, d_yhat = cross_entropy(y_hat, y_lab)
        back["d_yhat"] = c * d_yhat
    if u > 0:
        batch = ContrastiveBatch(list(zs), neg_mask, xs if weighted else None,
                                 None if x_sim is None else x_sim[rows])
        kernel = unsup_loss_single if len(zs) == 1 else unsup_loss_multiview
        l_u, *d_z = kernel(batch, tau)
        back["d_z"] = [u * d for d in d_z]
    if s > 0:
        l_s, d_s = weighted_sup_loss(s_lab, y_lab, tau, label_half(y_lab))
        back["d_s"] = s * d_s
    return (l_c, l_u, l_s), back


def train_step(params: ModelParams, state: OptimizerState, ds: Dataset,
               rows: np.ndarray, weights: tuple[float, float, float],
               tau: float, **inputs) -> tuple[float, float, float]:
    """One LARS step on c*L_c + u*L_u + s*L_s over the batch ``rows`` of
    ``ds``, at kernel temperature ``tau``; returns the terms (l_c, l_u,
    l_s). ``inputs`` are the keyword arguments of ``step_forward``."""
    terms, back = step_forward(params, ds, rows, weights, tau, **inputs)
    lars_step(params, model_backward(params, **back), state)
    return terms


def replay_eval(cfg: RunConfig, seed: int, params: ModelParams,
                base: Dataset | None = None) -> EvalReport:
    """Re-derive the run's evaluation split and views from (config, seed)
    and score the given parameters on the unlabeled rows, without training."""
    ds, _ = _run_split(cfg, seed, base)
    return _score(cfg, params, ds)


def run_cells(cells, run_cell) -> tuple[list, tuple | None]:
    """``run_cell`` on each of ``cells`` in order, the one loop of every
    multi-run command: the finished results, and ``(cell, err)`` for the
    first cell that raised an ``HclError`` (``None`` if none did), after
    which no cell runs. Any other exception propagates as it is."""
    results = []
    for cell in cells:
        try:
            results.append(run_cell(cell))
        except HclError as err:
            return results, (cell, err)
    return results, None


# ---------------------------------------------------------------------------
# Run records


@dataclass
class RunRecord:
    """Everything needed to audit or replay one (config, seed) run. The CLI
    sets ``blas_threads`` and ``checksums``; ``run_training`` sets the rest,
    and the trained ``params`` stay out of ``to_json``, ``==`` and ``repr``.
    ``==`` compares every other field by value, the report too."""

    config: dict
    seed: int
    trace: list[LossBreakdown]
    report: EvalReport
    wall_seconds: float
    params: ModelParams = field(compare=False, repr=False)
    blas_threads: int | None = None  # BLAS threads, None if not settable
    checksums: dict = field(default_factory=dict)

    def to_json(self) -> str:
        return json_text({
            "config": self.config,
            "seed": self.seed,
            "trace": [{"epoch": i, **asdict(b)}
                      for i, b in enumerate(self.trace)],
            "report": self.report.fields(),
            "wall_seconds": self.wall_seconds,
            "blas_threads": self.blas_threads,
            "checksums": self.checksums,
        })


def metrics_csv(records: list[RunRecord]) -> str:
    """Per-seed metric rows, sorted by seed."""
    if not records:
        raise ContractError("need at least one run record")
    return csv_text(["method", "seed", "f1", "auc", "n_eval"], [
        (r.config.get("method", "?"), r.seed, r.report.f1, r.report.auc,
         r.report.n_eval)
        for r in sorted(records, key=lambda r: r.seed)
    ])
