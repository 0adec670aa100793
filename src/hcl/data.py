"""Dataset ingestion, synthetic generation, augmentation, splits, batching.

A ``Dataset`` holds one or two feature views, a binary label matrix and a
per-row labeled flag, and nothing else. A generator whose hidden pieces
(latent, maps) are audited states its draw order, to replay them by seed.
A batch plan is one read-only value: its anchor rows, the positions of
its labeled anchors among them, and each anchor's negative set as a boolean
mask over anchor positions, or None for the full complement, the form in
which the contrastive losses read it (``ContrastiveBatch.neg_mask``).
"""

from __future__ import annotations

import csv
import io
import math
import os
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, ContractError, IngestionError, ShapeError
from .ioutil import parse_kv_text, read_text
from .numeric import Matrix, Rng, as_matrix, unit_rows


@dataclass
class Dataset:
    """Immutable-by-convention container: views, labels, labeled flags."""

    views: list[Matrix]
    labels: Matrix
    labeled_mask: np.ndarray

    def __post_init__(self) -> None:
        if not 1 <= len(self.views) <= 2:
            raise ContractError(f"need one or two views, got {len(self.views)}")
        self.views = [as_matrix(v, f"view {i + 1}") for i, v in enumerate(self.views)]
        self.labels = as_matrix(self.labels, "labels")
        n = self.views[0].shape[0]
        for i, v in enumerate(self.views):
            if v.shape[0] != n:
                raise ShapeError(
                    f"view {i + 1} has {v.shape[0]} rows, view 1 has {n}"
                )
        if self.labels.shape[0] != n:
            raise ShapeError(
                f"labels have {self.labels.shape[0]} rows for {n} samples"
            )
        if not np.isin(self.labels, (0.0, 1.0)).all():
            raise ContractError("labels must be strictly binary (0/1)")
        self.labeled_mask = np.asarray(self.labeled_mask, dtype=bool)
        if self.labeled_mask.shape != (n,):
            raise ShapeError(
                f"labeled_mask has shape {self.labeled_mask.shape}, expected ({n},)"
            )

    @property
    def n(self) -> int:
        return self.views[0].shape[0]

    @property
    def c(self) -> int:
        return self.labels.shape[1]

    @property
    def n_views(self) -> int:
        return len(self.views)

    @property
    def labeled_indices(self) -> np.ndarray:
        return np.flatnonzero(self.labeled_mask)

    @property
    def unlabeled_indices(self) -> np.ndarray:
        return np.flatnonzero(~self.labeled_mask)


@dataclass(frozen=True)
class BatchPlan:
    """Anchor rows, the positions in ``anchors`` of the labeled anchors, and
    per-anchor negative sets; every array is read-only, whoever builds the
    plan, and a pickled or copied plan is read-only too.

    ``neg_mask`` is (n_anchors, n_anchors): entry [i, j] marks anchor
    position j as a negative of anchor position i; None is the full
    complement, every other anchor. ``sample_batch`` makes its plans valid
    by construction: anchors unique and sorted, labeled positions sorted, no
    anchor its own negative and every anchor with at least one. A plan built
    by hand keeps its anchors in the order given; nothing needs them sorted.
    The plan is not checked again here; ``losses.ContrastiveBatch`` checks
    the mask the losses receive.
    """

    anchors: np.ndarray
    labeled: np.ndarray
    neg_mask: np.ndarray | None

    def __post_init__(self) -> None:
        for array in (self.anchors, self.labeled, self.neg_mask):
            if array is not None:
                array.flags.writeable = False

    def __reduce__(self):  # pickled or copied, a plan is built anew
        return BatchPlan, (self.anchors, self.labeled, self.neg_mask)

    @property
    def negatives(self) -> np.ndarray:
        """The flat indices of the (anchor, negative) pairs in the
        (n_anchors, n_anchors) grid, one per pair; ``perfbench`` counts a
        plan's pairs by its size."""
        if self.neg_mask is None:
            return np.flatnonzero(~np.eye(len(self.anchors), dtype=bool))
        return np.flatnonzero(self.neg_mask)


# ---------------------------------------------------------------------------
# CSV ingestion


def _read_matrix(path: str, header: bool) -> tuple[Matrix, list[int]]:
    """Parse a numeric CSV; returns the matrix and per-row source lines."""
    rows: list[list[float]] = []
    lines: list[int] = []
    width = None
    skipped_header = not header
    with io.StringIO(read_text(path, "data file"), newline="") as fh:
        for lineno, record in enumerate(csv.reader(fh), start=1):
            if not record or (len(record) == 1 and not record[0].strip()):
                continue
            if not skipped_header:
                skipped_header = True
                continue
            if width is None:
                width = len(record)
            elif len(record) != width:
                raise IngestionError(
                    f"{path}:{lineno}: expected {width} columns, found {len(record)}"
                )
            parsed = []
            for j, cell in enumerate(record):
                try:
                    value = float(cell)
                except ValueError:
                    raise IngestionError(
                        f"{path}:{lineno}: column {j + 1}: "
                        f"could not parse {cell!r} as a number"
                    ) from None
                if not math.isfinite(value):
                    raise IngestionError(
                        f"{path}:{lineno}: column {j + 1}: non-finite value {cell!r}"
                    )
                parsed.append(value)
            rows.append(parsed)
            lines.append(lineno)
    if not rows:
        raise IngestionError(f"{path}: no data rows")
    return np.array(rows, dtype=np.float64), lines


def load_csv(feature_paths, labels_path: str, *,
             header: bool = False) -> Dataset:
    """Load one or two view CSVs plus a 0/1 labels CSV into a Dataset."""
    if isinstance(feature_paths, (str, os.PathLike)):
        feature_paths = [feature_paths]
    feature_paths = [os.fspath(p) for p in feature_paths]
    labels_path = os.fspath(labels_path)
    if not 1 <= len(feature_paths) <= 2:
        raise ContractError(f"need one or two view files, got {len(feature_paths)}")
    views = []
    read = []
    for p in feature_paths:
        mat, lines = _read_matrix(p, header)
        views.append(mat)
        read.append((p, mat.shape[0], lines[-1]))
    labels, label_lines = _read_matrix(labels_path, header)
    read.append((labels_path, labels.shape[0], label_lines[-1]))
    p0, n0, l0 = read[0]
    for p, n, last in read[1:]:
        if n != n0:
            raise IngestionError(
                f"row count mismatch: {p0} has {n0} data rows (last at line "
                f"{l0}) but {p} has {n} (last at line {last})"
            )
    bad = np.argwhere(~np.isin(labels, (0.0, 1.0)))
    if bad.size:
        i, j = bad[0]
        raise IngestionError(
            f"{labels_path}:{label_lines[i]}: column {j + 1}: "
            f"label value {labels[i, j]:g} is not 0 or 1"
        )
    return Dataset(views=views, labels=labels,
                   labeled_mask=np.ones(n0, dtype=bool))


def load_manifest(path: str) -> Dataset:
    """Load a dataset named by a key-value manifest.

    Keys: ``view1`` (required), ``view2`` (optional), ``labels`` (required),
    ``c`` (required, validated against the labels file) and ``header``
    (optional). A ``name`` key is accepted and ignored, so older manifests
    still load. Relative paths resolve against the manifest.
    """
    kv = parse_kv_text(read_text(path, "manifest"), source=path)
    known = {"view1", "view2", "labels", "c", "name", "header"}
    for key in kv:
        if key not in known:
            raise IngestionError(f"{path}: unknown manifest key {key!r}")
    for key in ("view1", "labels", "c"):
        if key not in kv:
            raise IngestionError(f"{path}: missing manifest key {key!r}")
    base = os.path.dirname(os.path.abspath(path))

    def resolve(p):
        return p if os.path.isabs(p) else os.path.join(base, p)

    header = kv.get("header", "false").lower()
    if header not in ("true", "false"):
        raise IngestionError(f"{path}: header must be true or false, got {header!r}")
    feature_paths = [resolve(kv["view1"])]
    if "view2" in kv:
        feature_paths.append(resolve(kv["view2"]))
    ds = load_csv(feature_paths, resolve(kv["labels"]), header=header == "true")
    try:
        c = int(kv["c"])
    except ValueError:
        raise IngestionError(f"{path}: c must be an integer, got {kv['c']!r}") from None
    if ds.c != c:
        raise IngestionError(
            f"{path}: manifest says c = {c}, labels file has {ds.c} columns"
        )
    return ds


# ---------------------------------------------------------------------------
# Rescaling and augmentation


def rescale01(x: Matrix) -> Matrix:
    """Per-column min-max rescaling to [0, 1]; constant columns map to 0."""
    x = as_matrix(x, "features")
    lo = x.min(axis=0)
    span = x.max(axis=0) - lo
    safe = np.where(span > 0.0, span, 1.0)
    out = (x - lo) / safe
    out[:, span == 0.0] = 0.0
    return out


def inject_noise(x: Matrix, level: float, rng: Rng) -> Matrix:
    """Rescale per column to [0, 1], add uniform [0, 1] noise to an exact
    ``level`` fraction of entries, truncate back to [0, 1]."""
    if not 0.0 <= level <= 1.0:
        raise ContractError(f"noise level must be in [0, 1], got {level}")
    out = rescale01(x)
    count = int(round(level * out.size))
    if count:
        flat = out.reshape(-1)
        picked = rng.choice(out.size, size=count, replace=False)
        flat[picked] += rng.uniform(0.0, 1.0, size=count)
        np.clip(out, 0.0, 1.0, out=out)
    return out


def mask_features(x: Matrix, rate: float, rng: Rng) -> Matrix:
    """Zero an exact ``rate`` fraction of entries, chosen uniformly."""
    if not 0.0 <= rate <= 1.0:
        raise ContractError(f"masking rate must be in [0, 1], got {rate}")
    out = as_matrix(x, "features").copy()
    count = int(round(rate * out.size))
    if count:
        picked = rng.choice(out.size, size=count, replace=False)
        out.reshape(-1)[picked] = 0.0
    return out


def _parse_aug(spec: str) -> tuple[str, float]:
    kind, _, arg = str(spec).strip().lower().partition(":")
    if kind == "none" and not arg:
        return "none", 0.0
    if kind in ("noise", "mask"):
        try:
            rate = float(arg)
        except ValueError:
            raise ConfigError(
                f"augmentation {spec!r} needs a numeric rate, e.g. '{kind}:0.25'"
            ) from None
        if not 0.0 <= rate <= 1.0:
            raise ConfigError(f"augmentation rate must be in [0, 1], got {spec!r}")
        return kind, rate
    raise ConfigError(
        f"unknown augmentation {spec!r} (expected none, noise:LEVEL, or mask:RATE)"
    )


def _apply_aug(x: Matrix, spec: str, rng: Rng) -> Matrix:
    kind, rate = _parse_aug(spec)
    if kind == "none":
        return x.copy()
    if kind == "noise":
        return inject_noise(x, rate, rng)
    return mask_features(x, rate, rng)


def make_views(x: Matrix, aug_a: str, aug_b: str, rng: Rng) -> tuple[Matrix, Matrix]:
    """Two stochastic views of ``x``: rescale once, then apply one
    augmentation per view with independent draws."""
    _parse_aug(aug_a), _parse_aug(aug_b)  # reject bad specs before any rng use
    base = rescale01(x)
    return _apply_aug(base, aug_a, rng), _apply_aug(base, aug_b, rng)


# ---------------------------------------------------------------------------
# Synthetic datasets

# cluster family: per-feature noise around a template, and the "on" level
# of a template coordinate
CLUSTER_SPREAD = 0.05
CLUSTER_ON = 0.55
# scene-like family: latent clusters, latent dimension, feature noise
SCENE_CLUSTERS = 12
SCENE_LATENT_DIM = 6
SCENE_NOISE_SD = 1.0


def synth_multiview(n: int, d1: int, d2: int, c: int, noise_sd: float,
                    rng: Rng) -> Dataset:
    """Two linear views of a shared unit-sphere latent, labels from random
    halfspaces thresholded at per-label medians. Draw order: the normal
    (n, min(d1, d2)) latent (then row-normalized), the view-1 and view-2
    maps, the label directions, then any view-1 and view-2 noise."""
    if n < 2 or d1 < 1 or d2 < 1:
        raise ContractError(f"need n >= 2 and positive dims, got {n}, {d1}, {d2}")
    if c < 2:
        raise ContractError(f"need c >= 2 labels, got {c}")
    if noise_sd < 0:
        raise ContractError(f"noise_sd must be >= 0, got {noise_sd}")
    p = min(d1, d2)
    latent = unit_rows(rng.normal(size=(n, p)))
    map1 = rng.normal(size=(p, d1))
    map2 = rng.normal(size=(p, d2))
    dirs = rng.normal(size=(p, c))
    x1 = latent @ map1
    x2 = latent @ map2
    if noise_sd > 0:
        x1 = x1 + noise_sd * rng.normal(size=(n, d1))
        x2 = x2 + noise_sd * rng.normal(size=(n, d2))
    scores = latent @ dirs
    labels = (scores > np.median(scores, axis=0)).astype(np.float64)
    return Dataset(views=[x1, x2], labels=labels,
                   labeled_mask=np.ones(n, dtype=bool))


def make_cluster_dataset(n: int, d: int, c: int, rng: Rng) -> Dataset:
    """Single-view c-cluster dataset with one-hot labels.

    Class centers are binary on/off templates at {0, CLUSTER_ON}. After a
    per-column rescale the "on" coordinates sit near the top of the range,
    where additive-uniform corruption plus [0, 1] truncation saturates
    instead of destroying them, so the label signal degrades gracefully
    while raw-feature similarity decays much faster.
    """
    if n < c or c < 2 or d < 1:
        raise ContractError(f"need n >= c >= 2 and d >= 1, got {n}, {c}, {d}")
    centers = np.where(rng.uniform(size=(c, d)) < 0.5, 0.0, CLUSTER_ON)
    ids = rng.permutation(np.arange(n) % c)
    x = centers[ids] + CLUSTER_SPREAD * rng.normal(size=(n, d))
    np.clip(x, 0.0, CLUSTER_ON, out=x)
    labels = np.zeros((n, c))
    labels[np.arange(n), ids] = 1.0
    return Dataset(views=[x], labels=labels, labeled_mask=np.ones(n, dtype=bool))


def make_scene_like(n: int, d: int, c: int, rng: Rng) -> Dataset:
    """Single-view multi-label dataset shaped like a small tabular benchmark.

    Rows fall into latent clusters and every cluster carries one fixed
    multi-label pattern of one to three positives, so labels are constant
    within a cluster but nonlinear in the features. Feature noise is tuned
    so the cluster geometry survives in raw similarities while a small
    labeled subset alone pins the patterns down only loosely.
    """
    if n < 2 * SCENE_CLUSTERS or c < 2 or d < SCENE_LATENT_DIM:
        raise ContractError(
            f"need n >= {2 * SCENE_CLUSTERS}, c >= 2, "
            f"d >= {SCENE_LATENT_DIM}, got {n}, {c}, {d}"
        )
    centers = 2.0 * rng.normal(size=(SCENE_CLUSTERS, SCENE_LATENT_DIM))
    ids = rng.permutation(np.arange(n) % SCENE_CLUSTERS)
    latent = centers[ids] + 0.6 * rng.normal(size=(n, SCENE_LATENT_DIM))
    feature_map = rng.normal(size=(SCENE_LATENT_DIM, d))
    x = latent @ feature_map + SCENE_NOISE_SD * rng.normal(size=(n, d))
    # per-cluster label patterns; round-robin base label keeps every label
    # populated, extra positives make some rows genuinely multi-label
    patterns = np.zeros((SCENE_CLUSTERS, c))
    patterns[np.arange(SCENE_CLUSTERS), np.arange(SCENE_CLUSTERS) % c] = 1.0
    extra = rng.integers(0, 3, size=SCENE_CLUSTERS)
    for k in range(SCENE_CLUSTERS):
        if extra[k]:
            # with c = 2 there is one other label to add
            others = np.delete(np.arange(c), k % c)
            patterns[k, rng.choice(others, size=min(extra[k], c - 1),
                                   replace=False)] = 1.0
    labels = patterns[ids]
    return Dataset(views=[x], labels=labels, labeled_mask=np.ones(n, dtype=bool))


# ---------------------------------------------------------------------------
# Splits and batch plans


def take_rows(ds: Dataset, rows) -> Dataset:
    """Row-indexed copy of a dataset."""
    rows = np.asarray(rows)
    if rows.ndim != 1 or rows.size == 0:
        raise ContractError("rows must be a non-empty 1-D index array")
    return replace(ds, views=[v[rows] for v in ds.views],
                   labels=ds.labels[rows], labeled_mask=ds.labeled_mask[rows])


def split(ds: Dataset, n_labeled: int, rng: Rng) -> Dataset:
    """Uniformly random labeled subset; all other rows become unlabeled."""
    if not 0 < n_labeled < ds.n:
        raise ContractError(
            f"n_labeled must be in (0, {ds.n}), got {n_labeled}"
        )
    mask = np.zeros(ds.n, dtype=bool)
    mask[rng.choice(ds.n, size=n_labeled, replace=False)] = True
    return replace(ds, views=list(ds.views), labeled_mask=mask)


def sample_batch(ds: Dataset, batch_size: int, neg_size, rng: Rng) -> BatchPlan:
    """One training batch: up to ``batch_size`` labeled anchors plus enough
    unlabeled rows that each anchor has ``neg_size`` negatives inside the
    pool. ``neg_size='full'`` pools the whole dataset and uses complements,
    and so does its integer spelling n - 1, drawing the same plans.

    When k negatives are fewer than the na - 1 other anchors, all na negative
    sets come from one draw: an (na, na) matrix of uniform keys with the
    diagonal set to +inf, whose k smallest entries per row
    (``np.argpartition``) mark that anchor's negatives. Each row is then a
    uniform k-subset of the other anchors. When k = na - 1 the complement is
    forced and no random number is drawn.

    The plan reads only ``rng``, ``ds.n``, ``ds.labeled_mask``,
    ``batch_size`` and ``neg_size``, never features or labels, so the same
    rng state on datasets with equal rows and labeled mask draws equal
    plans; ``train.PlanMemo`` replays streams on that contract. The labeled
    anchors are found among the sorted anchors once, here, so a replayed
    plan carries their positions too. A full complement is a ``neg_mask`` of
    None; sampled negative sets are a mask of their own.
    """
    if batch_size < 1:
        raise ContractError(f"batch_size must be >= 1, got {batch_size}")
    n = ds.n
    if isinstance(neg_size, str):
        if neg_size != "full":
            raise ContractError(
                f"neg_size must be a positive int or 'full', got {neg_size!r}"
            )
        k = n - 1
    else:
        k = int(neg_size)
        if k < 1:
            raise ContractError(f"neg_size must be >= 1, got {neg_size}")
        if k > n - 1:
            raise ContractError(
                f"neg_size {k} exceeds the limit {n - 1} for {n} rows"
            )
    labeled_rows = ds.labeled_indices
    if labeled_rows.size == 0:
        raise ContractError("dataset has no labeled rows to anchor a batch")
    if batch_size >= labeled_rows.size:
        batch_labeled = labeled_rows.copy()
    else:
        batch_labeled = rng.choice(labeled_rows, size=batch_size, replace=False)
    if k == n - 1:  # 'full' or its integer spelling: every row, no draw
        anchors = np.arange(n)
    else:
        pool = [batch_labeled]
        need = k + 1 - batch_labeled.size
        if need > 0:
            unlabeled = ds.unlabeled_indices
            take = min(need, unlabeled.size)
            if take == unlabeled.size:
                pool.append(unlabeled)
            elif take:
                pool.append(rng.choice(unlabeled, size=take, replace=False))
            need -= take
            if need > 0:
                # not enough unlabeled rows; top up from unused labeled ones
                rest = np.setdiff1d(labeled_rows, batch_labeled)
                pool.append(rng.choice(rest, size=need, replace=False))
        anchors = np.sort(np.concatenate(pool))
    na = anchors.size
    neg_mask = None  # k = na - 1 forces the full complement: nothing to draw
    if k < na - 1:
        # the k smallest of iid uniform keys are a uniform k-subset; an
        # infinite diagonal key is never among them because k <= na - 2
        keys = rng.random((na, na))
        np.fill_diagonal(keys, np.inf)
        neg_mask = np.zeros((na, na), dtype=bool)
        np.put_along_axis(neg_mask, np.argpartition(keys, k - 1, axis=1)[:, :k],
                          True, axis=1)
    return BatchPlan(anchors=anchors,
                     labeled=np.searchsorted(anchors, np.sort(batch_labeled)),
                     neg_mask=neg_mask)
