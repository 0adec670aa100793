"""Run configuration: flat key-value files resolved into a typed RunConfig.

A config file is UTF-8 text with one ``key = value`` pair per line and
``#`` comments. Every key has a default; unknown keys are rejected so a
typo cannot silently fall back. Method coupling is resolved here: ``dnn``
forces alpha = beta = 0, ``hcl-u`` (and ``simclr-style``) force beta = 0,
``hcl-s`` (and ``supcon-style``) force alpha = 0.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from .data import _parse_aug
from .errors import ConfigError
from .ioutil import parse_kv_text

MODES = ("single-view", "two-view")
METHODS = ("dnn", "simclr-style", "supcon-style", "hcl-u", "hcl-s", "hcl")
SYNTHETIC_FAMILIES = ("scene-like", "cluster", "multiview")

DEFAULTS: dict[str, str] = {
    # data source: exactly one of manifest / synthetic
    "manifest": "",
    "synthetic": "",
    "n_samples": "1000",
    "n_features": "20",
    "n_classes": "6",
    "data_seed": "0",
    # protocol
    "mode": "single-view",
    "method": "hcl",
    "alpha": "0.2",
    "beta": "0.01",
    "temperature": "0.5",
    "batch_size": "128",
    "neg_size": "full",
    "epochs": "200",
    "seeds": "0,1,2,3,4",
    "n_labeled": "120",
    "threshold": "0.5",
    "multiclass": "false",
    # model
    "encoder_sizes": "32,16",
    "classifier_activation": "sigmoid",
    # optimizer
    "base_lr": "0.05",
    "momentum": "0.9",
    "trust_coeff": "0.001",
    "weight_decay": "0.0",
    # two-view augmentation of single-view data
    "view1_aug": "none",
    "view2_aug": "none",
    # output
    "out_dir": "runs",
    # bound check
    "bound_kind": "unsup",
    "bound_sizes": "16,64,256",
    "bound_tolerance": "0.05",
    "bound_epochs": "300",
    "bound_temperature": "",
    # sweeps; a methods entry may pin its own mode, e.g. "hcl-u@two-view"
    "methods": "hcl-u",
    "noise_levels": "0,0.25,0.5,0.75,1",
    "perf_train_sizes": "256,512,1024,2048",
    "perf_neg_sizes": "64,128,256,512",
    "perf_epochs": "3",
    "perf_neg_fixed": "32",
}


def _fail(key: str, detail: str) -> ConfigError:
    return ConfigError(f"config field '{key}': {detail}")


def _parse_int(key: str, raw: str, lo: int | None = None) -> int:
    try:
        v = int(raw)
    except ValueError:
        raise _fail(key, f"expected an integer, got {raw!r}") from None
    if lo is not None and v < lo:
        raise _fail(key, f"must be >= {lo}, got {v}")
    return v


def _parse_float(key: str, raw: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise _fail(key, f"expected a number, got {raw!r}") from None


def _parse_bool(key: str, raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("true", "1", "yes"):
        return True
    if low in ("false", "0", "no"):
        return False
    raise _fail(key, f"expected true/false, got {raw!r}")


def _parse_int_list(key: str, raw: str, lo: int | None = None) -> list[int]:
    items = [s.strip() for s in raw.split(",") if s.strip()]
    if not items:
        raise _fail(key, "expected a comma-separated list of integers")
    return [_parse_int(key, s, lo) for s in items]


def _parse_float_list(key: str, raw: str) -> list[float]:
    items = [s.strip() for s in raw.split(",") if s.strip()]
    if not items:
        raise _fail(key, "expected a comma-separated list of numbers")
    return [_parse_float(key, s) for s in items]


@dataclass
class RunConfig:
    """Typed, validated view of one experiment configuration.

    ``snapshot`` holds the effective key-value pairs (after defaults and
    method coupling), so writing it back out replays the run exactly.
    """

    manifest: str
    synthetic: str
    n_samples: int
    n_features: int
    n_classes: int
    data_seed: int
    mode: str
    method: str
    alpha: float
    beta: float
    temperature: float
    batch_size: int
    neg_size: object  # int or "full"
    epochs: int
    seeds: list[int]
    n_labeled: int
    threshold: float
    multiclass: bool
    encoder_sizes: list[int]
    classifier_activation: str
    base_lr: float
    momentum: float
    trust_coeff: float
    weight_decay: float
    view1_aug: str
    view2_aug: str
    out_dir: str
    bound_kind: str
    bound_sizes: list[int]
    bound_tolerance: float
    bound_epochs: int
    bound_temperature: float | None
    methods: list[str]
    noise_levels: list[float]
    perf_train_sizes: list[int]
    perf_neg_sizes: list[int]
    perf_epochs: int
    perf_neg_fixed: int
    snapshot: dict[str, str] = field(default_factory=dict)


def resolve_config(pairs: dict[str, str],
                   overrides: dict[str, str] | None = None) -> RunConfig:
    """Merge file pairs, CLI overrides, and defaults into a RunConfig.

    Raises ConfigError naming the offending field for every violation; no
    partial result is returned.
    """
    for key in pairs:
        if key not in DEFAULTS:
            raise ConfigError(f"unknown config field '{key}'")
    merged = dict(DEFAULTS)
    merged.update(pairs)
    if overrides:
        for key, value in overrides.items():
            if key not in DEFAULTS:
                raise ConfigError(f"unknown config field '{key}'")
            merged[key] = value

    manifest = merged["manifest"].strip()
    synthetic = merged["synthetic"].strip()
    if bool(manifest) == bool(synthetic):
        raise _fail("manifest",
                    "exactly one of 'manifest' or 'synthetic' must be set")
    if manifest and not os.path.isfile(manifest):
        raise _fail("manifest", f"file not found: {manifest}")
    if synthetic and synthetic not in SYNTHETIC_FAMILIES:
        raise _fail("synthetic",
                    f"must be one of {', '.join(SYNTHETIC_FAMILIES)}, "
                    f"got {synthetic!r}")

    mode = merged["mode"].strip()
    if mode not in MODES:
        raise _fail("mode", f"must be one of {', '.join(MODES)}, got {mode!r}")
    method = merged["method"].strip()
    if method not in METHODS:
        raise _fail("method",
                    f"must be one of {', '.join(METHODS)}, got {method!r}")
    if method == "simclr-style" and mode != "two-view":
        raise _fail("method", "simclr-style needs mode = two-view")

    alpha = _parse_float("alpha", merged["alpha"])
    beta = _parse_float("beta", merged["beta"])
    if alpha < 0:
        raise _fail("alpha", f"must be >= 0, got {alpha}")
    if beta < 0:
        raise _fail("beta", f"must be >= 0, got {beta}")
    # method coupling: unused terms are forced off so the objective, the
    # trace, and the gradients match the degenerate method exactly
    if method == "dnn":
        alpha = beta = 0.0
    elif method in ("hcl-u", "simclr-style"):
        beta = 0.0
    elif method in ("hcl-s", "supcon-style"):
        alpha = 0.0

    temperature = _parse_float("temperature", merged["temperature"])
    if not temperature > 0:
        raise _fail("temperature", f"must be > 0, got {temperature}")
    threshold = _parse_float("threshold", merged["threshold"])
    if not 0.0 < threshold < 1.0:
        raise _fail("threshold", f"must be in (0, 1), got {threshold}")

    raw_neg = merged["neg_size"].strip()
    neg_size: object
    if raw_neg == "full":
        neg_size = "full"
    else:
        neg_size = _parse_int("neg_size", raw_neg, lo=1)

    momentum = _parse_float("momentum", merged["momentum"])
    if not 0.0 <= momentum < 1.0:
        raise _fail("momentum", f"must be in [0, 1), got {momentum}")
    base_lr = _parse_float("base_lr", merged["base_lr"])
    if base_lr < 0:
        raise _fail("base_lr", f"must be >= 0, got {base_lr}")
    trust_coeff = _parse_float("trust_coeff", merged["trust_coeff"])
    if not trust_coeff > 0:
        raise _fail("trust_coeff", f"must be > 0, got {trust_coeff}")
    weight_decay = _parse_float("weight_decay", merged["weight_decay"])
    if weight_decay < 0:
        raise _fail("weight_decay", f"must be >= 0, got {weight_decay}")

    for key in ("view1_aug", "view2_aug"):
        try:
            _parse_aug(merged[key].strip())
        except Exception as err:
            raise _fail(key, str(err)) from None
        if mode == "single-view" and merged[key].strip() != "none":
            raise _fail(key, "view augmentations need mode = two-view")

    cls_act = merged["classifier_activation"].strip()
    if cls_act not in ("sigmoid", "softmax"):
        raise _fail("classifier_activation",
                    f"must be sigmoid or softmax, got {cls_act!r}")

    bound_kind = merged["bound_kind"].strip()
    if bound_kind not in ("unsup", "sup"):
        raise _fail("bound_kind", f"must be unsup or sup, got {bound_kind!r}")
    bound_tolerance = _parse_float("bound_tolerance", merged["bound_tolerance"])
    if not bound_tolerance > 0:
        raise _fail("bound_tolerance", f"must be > 0, got {bound_tolerance}")
    raw_bt = merged["bound_temperature"].strip()
    bound_temperature = _parse_float("bound_temperature", raw_bt) if raw_bt else None
    if bound_temperature is not None and not bound_temperature > 0:
        raise _fail("bound_temperature", f"must be > 0, got {bound_temperature}")

    methods = [m.strip() for m in merged["methods"].split(",") if m.strip()]
    if not methods:
        raise _fail("methods", "expected a comma-separated list of methods")
    for m in methods:
        name, _, mode_tag = m.partition("@")
        if name not in METHODS:
            raise _fail("methods", f"unknown method {name!r}")
        if mode_tag and mode_tag not in MODES:
            raise _fail("methods", f"unknown mode qualifier {mode_tag!r} in {m!r}")

    noise_levels = _parse_float_list("noise_levels", merged["noise_levels"])
    for lv in noise_levels:
        if not 0.0 <= lv <= 1.0:
            raise _fail("noise_levels", f"levels must be in [0, 1], got {lv}")

    cfg = RunConfig(
        manifest=manifest,
        synthetic=synthetic,
        n_samples=_parse_int("n_samples", merged["n_samples"], lo=4),
        n_features=_parse_int("n_features", merged["n_features"], lo=1),
        n_classes=_parse_int("n_classes", merged["n_classes"], lo=2),
        data_seed=_parse_int("data_seed", merged["data_seed"], lo=0),
        mode=mode,
        method=method,
        alpha=alpha,
        beta=beta,
        temperature=temperature,
        batch_size=_parse_int("batch_size", merged["batch_size"], lo=1),
        neg_size=neg_size,
        epochs=_parse_int("epochs", merged["epochs"], lo=1),
        seeds=_parse_int_list("seeds", merged["seeds"], lo=0),
        n_labeled=_parse_int("n_labeled", merged["n_labeled"], lo=1),
        threshold=threshold,
        multiclass=_parse_bool("multiclass", merged["multiclass"]),
        encoder_sizes=_parse_int_list("encoder_sizes", merged["encoder_sizes"],
                                      lo=1),
        classifier_activation=cls_act,
        base_lr=base_lr,
        momentum=momentum,
        trust_coeff=trust_coeff,
        weight_decay=weight_decay,
        view1_aug=merged["view1_aug"].strip(),
        view2_aug=merged["view2_aug"].strip(),
        out_dir=merged["out_dir"].strip(),
        bound_kind=bound_kind,
        bound_sizes=_parse_int_list("bound_sizes", merged["bound_sizes"], lo=1),
        bound_tolerance=bound_tolerance,
        bound_epochs=_parse_int("bound_epochs", merged["bound_epochs"], lo=1),
        bound_temperature=bound_temperature,
        methods=methods,
        noise_levels=noise_levels,
        perf_train_sizes=_parse_int_list("perf_train_sizes",
                                         merged["perf_train_sizes"], lo=2),
        perf_neg_sizes=_parse_int_list("perf_neg_sizes",
                                       merged["perf_neg_sizes"], lo=1),
        perf_epochs=_parse_int("perf_epochs", merged["perf_epochs"], lo=1),
        perf_neg_fixed=_parse_int("perf_neg_fixed", merged["perf_neg_fixed"],
                                  lo=1),
    )

    # effective snapshot: replaying these pairs reproduces this RunConfig
    snap = dict(merged)
    snap["alpha"] = repr(alpha)
    snap["beta"] = repr(beta)
    cfg.snapshot = snap
    return cfg


def load_pairs(path: str) -> dict[str, str]:
    """Read a config file into its raw key-value pairs."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as err:
        raise ConfigError(f"cannot read config file {path}: {err}") from None
    return parse_kv_text(text, source=path)


def load_config(path: str, overrides: dict[str, str] | None = None) -> RunConfig:
    return resolve_config(load_pairs(path), overrides)


def config_for_seed(cfg: RunConfig, seed: int) -> dict[str, str]:
    """Snapshot pinned to one seed, for embedding in a RunRecord."""
    snap = dict(cfg.snapshot)
    snap["seeds"] = str(seed)
    return snap
