"""Run configuration: flat key-value files resolved into a typed RunConfig.

A config file is UTF-8 text with one ``key = value`` pair per line and
``#`` comments. Each field is declared once, on ``RunConfig``: one line
gives its name, its type, its default text and its parser, and
``DEFAULTS`` is derived from those lines. Every key has a default; unknown
keys are rejected so a typo cannot silently fall back. Method coupling is
resolved here: ``dnn`` forces alpha = beta = 0, ``hcl-u`` (and
``simclr-style``) force beta = 0, ``hcl-s`` (and ``supcon-style``) force
alpha = 0.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, fields

from .data import SCENE_CLUSTERS, SCENE_LATENT_DIM, _parse_aug
from .errors import ConfigError
from .ioutil import parse_kv_text, read_text
from .losses import tau_ok

MODES = ("single-view", "two-view")
METHODS = ("dnn", "simclr-style", "supcon-style", "hcl-u", "hcl-s", "hcl")
SYNTHETIC_FAMILIES = ("scene-like", "cluster", "multiview")


def _fail(key: str, detail: str) -> ConfigError:
    return ConfigError(f"config field '{key}': {detail}")


# A parser takes (key, raw text) and returns the typed value or raises the
# ConfigError that names the key.


def _text(key: str, raw: str) -> str:
    return raw.strip()


def _int(lo: int):
    def parse(key: str, raw: str) -> int:
        try:
            v = int(raw)
        except ValueError:
            raise _fail(key, f"expected an integer, got {raw!r}") from None
        if v < lo:
            raise _fail(key, f"must be >= {lo}, got {v}")
        return v
    return parse


_RANGES = {
    ">= 0": lambda v: v >= 0,
    "> 0": lambda v: v > 0,
    "> 0 with a finite reciprocal": tau_ok,
    "in (0, 1)": lambda v: 0.0 < v < 1.0,
    "in [0, 1)": lambda v: 0.0 <= v < 1.0,
    "in [0, 1]": lambda v: 0.0 <= v <= 1.0,
}


def _float(within: str | None = None, noun: str = "must be"):
    """A finite float, optionally inside one of ``_RANGES``."""
    def parse(key: str, raw: str) -> float:
        try:
            v = float(raw)
        except ValueError:
            raise _fail(key, f"expected a number, got {raw!r}") from None
        if not math.isfinite(v):
            raise _fail(key, f"expected a finite number, got {raw!r}")
        if within is not None and not _RANGES[within](v):
            raise _fail(key, f"{noun} {within}, got {v}")
        return v
    return parse


def _bool(key: str, raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("true", "1", "yes"):
        return True
    if low in ("false", "0", "no"):
        return False
    raise _fail(key, f"expected true/false, got {raw!r}")


def _choice(*options: str):
    def parse(key: str, raw: str) -> str:
        v = raw.strip()
        if v not in options:
            raise _fail(key, f"must be one of {', '.join(options)}, got {v!r}")
        return v
    return parse


def _or(word: str, value: object, parse):
    """``word`` (after stripping) stands for ``value``; other text goes to
    ``parse``."""
    def parse_or(key: str, raw: str):
        v = raw.strip()
        return value if v == word else parse(key, v)
    return parse_or


def _list(item, what: str, distinct: bool = True):
    """A non-empty comma-separated list of ``item`` values, distinct if asked."""
    def parse(key: str, raw: str) -> list:
        items = [s.strip() for s in raw.split(",") if s.strip()]
        if not items:
            raise _fail(key, f"expected a comma-separated list of {what}")
        values = [item(key, s) for s in items]
        for i, v in enumerate(values):
            if distinct and v in values[:i]:
                raise _fail(key, f"lists {v!r} more than once")
        return values
    return parse


def _ints(lo: int):
    return _list(_int(lo), "integers")


_level = _float("in [0, 1]", "levels must be")  # one noise level
_tau = _float("> 0 with a finite reciprocal")  # one temperature


def _aug(key: str, raw: str) -> str:
    v = raw.strip().lower()
    try:
        _parse_aug(v)
    except ConfigError as err:
        raise _fail(key, str(err)) from None
    return v


def _method_entry(key: str, entry: str) -> str:
    """A sweep method, optionally pinned to a mode: ``hcl-u@two-view``."""
    name, _, mode_tag = entry.partition("@")
    if name not in METHODS:
        raise _fail(key, f"unknown method {name!r}")
    if mode_tag and mode_tag not in MODES:
        raise _fail(key, f"unknown mode qualifier {mode_tag!r} in {entry!r}")
    return entry


def _key(default: str, parse):
    """One config field: the text of its default and its parser."""
    return field(metadata={"default": default, "parse": parse})


@dataclass
class RunConfig:
    """Typed, validated view of one experiment configuration.

    ``snapshot`` holds the effective key-value pairs (after defaults and
    method coupling), so writing it back out replays the run exactly.
    """

    # data source: exactly one of manifest / synthetic
    manifest: str = _key("", _text)
    synthetic: str = _key("", _or("", "", _choice(*SYNTHETIC_FAMILIES)))
    n_samples: int = _key("1000", _int(4))
    n_features: int = _key("20", _int(1))
    n_classes: int = _key("6", _int(2))
    data_seed: int = _key("0", _int(0))
    # protocol
    mode: str = _key("single-view", _choice(*MODES))
    method: str = _key("hcl", _choice(*METHODS))
    alpha: float = _key("0.2", _float(">= 0"))
    beta: float = _key("0.01", _float(">= 0"))
    temperature: float = _key("0.5", _tau)
    batch_size: int = _key("128", _int(1))
    neg_size: int | str = _key("full", _or("full", "full", _int(1)))
    epochs: int = _key("200", _int(1))
    seeds: list[int] = _key("0,1,2,3,4", _ints(0))
    n_labeled: int = _key("120", _int(1))
    threshold: float = _key("0.5", _float("in (0, 1)"))
    multiclass: bool = _key("false", _bool)
    # model
    encoder_sizes: list[int] = _key("32,16", _list(_int(1), "integers", distinct=False))
    classifier_activation: str = _key("sigmoid", _choice("sigmoid", "softmax"))
    # optimizer
    base_lr: float = _key("0.05", _float(">= 0"))
    momentum: float = _key("0.9", _float("in [0, 1)"))
    trust_coeff: float = _key("0.001", _float("> 0"))
    weight_decay: float = _key("0.0", _float(">= 0"))
    # two-view augmentation of single-view data
    view1_aug: str = _key("none", _aug)
    view2_aug: str = _key("none", _aug)
    # output
    out_dir: str = _key("runs", _text)
    # bound check
    bound_kind: str = _key("unsup", _choice("unsup", "sup"))
    bound_sizes: list[int] = _key("16,64,256", _ints(1))
    bound_tolerance: float = _key("0.05", _float("> 0"))
    bound_epochs: int = _key("300", _int(1))
    bound_temperature: float | None = _key("", _or("", None, _tau))
    # sweeps; a methods entry may pin its own mode, e.g. "hcl-u@two-view"
    methods: list[str] = _key("hcl-u", _list(_method_entry, "methods"))
    noise_levels: list[float] = _key("0,0.25,0.5,0.75,1", _list(_level, "numbers"))
    perf_train_sizes: list[int] = _key("256,512,1024,2048", _ints(32))
    perf_neg_sizes: list[int] = _key("64,128,256,512", _ints(1))
    perf_epochs: int = _key("3", _int(1))
    perf_neg_fixed: int = _key("32", _int(1))
    snapshot: dict[str, str] = field(default_factory=dict)


_FIELDS = [f for f in fields(RunConfig) if "parse" in f.metadata]
DEFAULTS: dict[str, str] = {f.name: f.metadata["default"] for f in _FIELDS}


def resolve_config(pairs: dict[str, str],
                   overrides: dict[str, str] | None = None) -> RunConfig:
    """Merge file pairs, CLI overrides, and defaults into a RunConfig.

    Raises ConfigError naming the offending field for every violation; no
    partial result is returned. The rules that need the dataset's rows
    (``n_labeled``, ``neg_size``) are ``train.check_dataset``'s.
    """
    merged = dict(DEFAULTS)
    for source in (pairs, overrides or {}):
        for key, value in source.items():
            if key not in DEFAULTS:
                raise ConfigError(f"unknown config field '{key}'")
            merged[key] = value
    cfg = RunConfig(**{f.name: f.metadata["parse"](f.name, merged[f.name])
                       for f in _FIELDS})

    if bool(cfg.manifest) == bool(cfg.synthetic):
        raise _fail("manifest",
                    "exactly one of 'manifest' or 'synthetic' must be set")
    if cfg.manifest:
        if not os.path.isfile(cfg.manifest):
            raise _fail("manifest", f"file not found: {cfg.manifest}")
        # absolute, so that the snapshot replays from any directory
        cfg.manifest = os.path.abspath(cfg.manifest)
    if cfg.synthetic == "scene-like":
        if cfg.n_samples < 2 * SCENE_CLUSTERS:
            raise _fail("n_samples", f"scene-like data needs at least "
                        f"{2 * SCENE_CLUSTERS} (two per latent cluster), got "
                        f"{cfg.n_samples}")
        if cfg.n_features < SCENE_LATENT_DIM:
            raise _fail("n_features", f"scene-like data needs at least "
                        f"{SCENE_LATENT_DIM} (its latent dimension), got "
                        f"{cfg.n_features}")
    if cfg.synthetic == "cluster" and cfg.n_samples < cfg.n_classes:
        raise _fail("n_samples", f"cluster data needs at least n_classes = "
                    f"{cfg.n_classes} (one per class), got {cfg.n_samples}")
    if cfg.method == "simclr-style" and cfg.mode != "two-view":
        raise _fail("method", "simclr-style needs mode = two-view")
    # method coupling: unused terms are forced off so the objective, the
    # trace, and the gradients match the degenerate method exactly
    if cfg.method in ("dnn", "hcl-s", "supcon-style"):
        cfg.alpha = 0.0
    if cfg.method in ("dnn", "hcl-u", "simclr-style"):
        cfg.beta = 0.0
    if cfg.beta > 0 and cfg.batch_size < 3:
        raise _fail("batch_size", f"must be >= 3 when beta > 0, got "
                    f"{cfg.batch_size}: a label group needs two positives "
                    "and a negative")
    if cfg.beta > 0 and cfg.n_labeled < 3:
        raise _fail("n_labeled", f"must be >= 3 when beta > 0, got "
                    f"{cfg.n_labeled}: a label group needs two labeled "
                    "positives and a labeled negative")
    for key in ("view1_aug", "view2_aug"):
        if cfg.mode == "single-view" and getattr(cfg, key) != "none":
            raise _fail(key, "view augmentations need mode = two-view")
    # a sweep trains one cell per (method, mode): with mode = single-view,
    # "hcl-u" and "hcl-u@single-view" are the same cell
    cells: dict[tuple[str, str], str] = {}
    for entry in cfg.methods:
        name, _, tag = entry.partition("@")
        first = cells.setdefault((name, tag or cfg.mode), entry)
        if first != entry:
            raise _fail("methods", f"lists {name}@{tag or cfg.mode} more than "
                        f"once: {first!r} and {entry!r}")

    # effective snapshot: replaying these pairs reproduces this RunConfig
    cfg.snapshot = dict(merged, manifest=cfg.manifest,
                        alpha=repr(cfg.alpha), beta=repr(cfg.beta))
    return cfg


def load_pairs(path: str) -> dict[str, str]:
    """Read a config file into its raw key-value pairs."""
    return parse_kv_text(read_text(path, "config file", ConfigError), source=path)


def config_for_seed(cfg: RunConfig, seed: int) -> dict[str, str]:
    """Snapshot pinned to one seed, for embedding in a RunRecord."""
    snap = dict(cfg.snapshot)
    snap["seeds"] = str(seed)
    return snap
