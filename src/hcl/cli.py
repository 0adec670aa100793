"""Command-line entry point.

Subcommands: ``train``, ``eval``, ``bound-check``, ``noise-sweep``,
``perf-sweep``. Every command reads a flat key-value config file; the
shared flags override individual fields. Outputs are one JSON RunRecord
per run, whose ``blas_threads`` and ``checksums`` ``train`` fills, plus
one aggregated CSV per sweep, all written atomically, with seeds processed
in deterministic order. A command that trains a list of runs stops at the
first failed run and re-raises its error through ``_failed``, naming the
run; ``train`` and ``noise-sweep`` first write the runs that finished,
``perf-sweep`` writes nothing. A ``train`` seed whose checkpoint or record
cannot be written has failed like one that could not train, and its
checkpoint is removed.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from dataclasses import replace

import numpy as np

from .config import RunConfig, load_pairs, resolve_config
from .data import Dataset, inject_noise, take_rows
from .errors import ConfigError, ContractError, HclError, IngestionError
from .ioutil import atomic_write_text, csv_text, json_text, sha256_file
from .metrics import EvalReport
from .mi import (
    BoundTrainSpec,
    GaussianPairSpec,
    RingProtoSpec,
    check_sup_bound,
    check_unsup_bound,
    reports_to_csv,
)
from .model import load_checkpoint, save_checkpoint
from .numeric import make_rng, pin_blas_threads
from .train import (
    PlanMemo,
    RunRecord,
    build_dataset,
    check_dataset,
    dataset_checksum,
    metrics_csv,
    replay_eval,
    run_training,
)


def _ensure_out(path: str, name: str = "config field 'out_dir'") -> str:
    try:
        os.makedirs(path, exist_ok=True)
    except (OSError, ValueError) as err:  # ValueError: a NUL byte in path
        reason = getattr(err, "strerror", None) or err
        raise ConfigError(
            f"{name}: cannot create {path!r}: {reason}") from None
    return path


def _failed(run: str, err: HclError, kept: str = "") -> HclError:
    """``err``'s own type, naming the failed run and what was kept."""
    note = f" ({kept})" if kept else ""
    return type(err)(f"{run} failed: {err}{note}")


# ---------------------------------------------------------------------------
# train


def cmd_train(pairs: dict[str, str],
              overrides: dict[str, str] | None = None) -> list[RunRecord]:
    cfg = resolve_config(pairs, overrides)
    out = _ensure_out(cfg.out_dir)
    base = build_dataset(cfg)
    data_sha = dataset_checksum(base)
    records, failure = [], None
    for seed in cfg.seeds:
        stem = f"run-{cfg.method}-seed{seed}"
        ckpt_path = os.path.join(out, f"{stem}.ckpt")
        saved = False
        try:
            # a seed fails as a whole, its training or one of its writes,
            # and leaves no checkpoint without its record
            record = run_training(cfg, seed, base)
            save_checkpoint(record.params, ckpt_path,
                            extra={"config": record.config, "seed": seed,
                                   "dataset": data_sha})
            saved = True
            record.blas_threads = pin_blas_threads()
            record.checksums = {"checkpoint": sha256_file(ckpt_path),
                                "dataset": data_sha}
            atomic_write_text(os.path.join(out, f"{stem}.json"),
                              record.to_json())
        except HclError as err:
            if saved:
                os.remove(ckpt_path)
            failure = (f"seed {seed}", err)
            break
        records.append(record)
        print(f"{stem}: f1={record.report.f1:.4f} auc={record.report.auc:.4f} "
              f"({record.wall_seconds:.1f}s)")
    if records:
        # a failed seed keeps the seeds that finished before it
        atomic_write_text(os.path.join(out, f"metrics-{cfg.method}.csv"),
                          metrics_csv(records))
        f1s = [r.report.f1 for r in records]
        print(f"{cfg.method}: mean f1={np.mean(f1s):.4f} "
              f"std={np.std(f1s):.4f} over {len(f1s)} seeds")
    if failure is not None:
        run, err = failure
        kept = (f"{len(records)} finished seed(s) written to "
                f"metrics-{cfg.method}.csv" if records else "")
        raise _failed(run, err, kept) from err
    return records


# ---------------------------------------------------------------------------
# eval


def cmd_eval(checkpoint: str, data: str | None = None,
             out_dir: str | None = None) -> EvalReport:
    params, extra = load_checkpoint(checkpoint)
    if not isinstance(extra, dict) or "config" not in extra or "seed" not in extra:
        raise ContractError(
            f"{checkpoint} has no embedded run config; it was not written "
            "by the train command"
        )
    pairs, seed = extra["config"], extra["seed"]
    if not (isinstance(pairs, dict) and all(
            isinstance(k, str) and isinstance(v, str) for k, v in pairs.items())):
        raise IngestionError(f"{checkpoint}: the embedded run config must map "
                             f"field names to text, got {pairs!r}")
    if type(seed) is not int or seed < 0:  # a bool is no seed
        raise IngestionError(f"{checkpoint}: the embedded seed must be a "
                             f"non-negative integer, got {seed!r}")
    overrides: dict[str, str] = {}
    if data is not None:
        overrides["manifest"] = data
        overrides["synthetic"] = ""
    cfg = resolve_config(dict(pairs), overrides)
    base = build_dataset(cfg)
    # --data names other data on purpose; without it the run's own dataset
    # must be unchanged since training
    trained = extra.get("dataset")
    if data is None and trained != dataset_checksum(base):
        raise ContractError(
            f"{checkpoint}: the dataset does not match the one it was trained "
            f"on (recorded sha256: {trained or 'none'}); name the data with "
            "--data to evaluate on it anyway"
        )
    report = replay_eval(cfg, seed, params, base)
    target = out_dir if out_dir is not None else os.path.dirname(checkpoint) or "."
    _ensure_out(target, "--out")
    stem = os.path.splitext(os.path.basename(checkpoint))[0]
    atomic_write_text(os.path.join(target, f"eval-{stem}.json"), json_text({
        "checkpoint": os.path.basename(checkpoint), "seed": seed,
        **report.fields(),
    }))
    print(f"eval {stem}: f1={report.f1:.4f} auc={report.auc:.4f} "
          f"n={report.n_eval}")
    return report


# ---------------------------------------------------------------------------
# bound-check


def cmd_bound_check(pairs: dict[str, str],
                    overrides: dict[str, str] | None = None) -> str:
    cfg = resolve_config(pairs, overrides, splits=False)
    out = _ensure_out(cfg.out_dir)
    if cfg.bound_temperature is not None:
        tau = cfg.bound_temperature
    else:
        # the label-weighted check needs the wide-temperature regime; the
        # two-view check trains best sharp
        tau = 1.0 if cfg.bound_kind == "sup" else 0.1
    spec = BoundTrainSpec(epochs=cfg.bound_epochs, temperature=tau,
                          seeds=tuple(cfg.seeds),
                          tolerance=cfg.bound_tolerance)
    if cfg.bound_kind == "unsup":
        reports = check_unsup_bound(GaussianPairSpec(), spec, cfg.bound_sizes)
        text = reports_to_csv(reports, "unsup_loss")
    else:
        reports = check_sup_bound(RingProtoSpec(), spec)
        text = reports_to_csv(reports, "sup_loss")
    path = os.path.join(out, f"bounds-{cfg.bound_kind}.csv")
    atomic_write_text(path, text)
    n_ok = sum(r.satisfied for r in reports)
    print(f"bound-check {cfg.bound_kind}: {n_ok}/{len(reports)} satisfied "
          f"-> {path}")
    return text


# ---------------------------------------------------------------------------
# noise-sweep


def _noise_cells(cfg: RunConfig, base: Dataset,
                 variants: list[tuple[str, RunConfig]]):
    """Each sweep cell in order: (level, method entry, seed, the entry's
    resolved config, the noisy dataset it trains on)."""
    for level in cfg.noise_levels:
        # two independent corruptions per level, shared by every method and
        # seed: the first is the single-view input and doubles as view one,
        # the second corrupts the same clean features again to make view two
        noise_rng = make_rng(1_000_000 * cfg.data_seed
                             + int(round(level * 1000)))
        noisy1 = inject_noise(base.views[0], level, noise_rng)
        noisy2 = inject_noise(base.views[0], level, noise_rng)
        noisy = replace(base, views=[noisy1, noisy2])
        for entry, variant in variants:
            for seed in cfg.seeds:
                yield level, entry, seed, variant, noisy


def cmd_noise_sweep(pairs: dict[str, str],
                    overrides: dict[str, str] | None = None) -> str:
    cfg = resolve_config(pairs, overrides)
    out = _ensure_out(cfg.out_dir)
    base = build_dataset(cfg)
    if base.n_views != 1:
        raise ConfigError(
            "config field 'manifest': the noise sweep builds its own views "
            "by corrupting a single-view dataset; got a two-view source"
        )
    merged = dict(pairs)
    if overrides:
        merged.update(overrides)
    # every entry's config is resolved and checked against the labels and
    # views its cells train on before the first cell trains, so a rejected
    # entry costs no finished cells
    variants = []
    for entry in cfg.methods:
        method, _, mode = entry.partition("@")
        variant = resolve_config(merged, {
            "methods": method, "method": method, "mode": mode or cfg.mode,
        })
        try:
            clean = base.views[0]
            check_dataset(replace(base, views=[clean, clean]), variant)
        except ConfigError as err:
            raise ConfigError(f"method entry {entry}: {err}") from err
        variants.append((entry, variant))
    rows, summary = [], []
    failure = None
    # cells of one seed and view mode draw one batch stream at every level
    # and for every method: the memo draws it once
    memo = PlanMemo()
    for level, entry, seed, variant, noisy in _noise_cells(cfg, base, variants):
        try:
            report = run_training(variant, seed, noisy, memo=memo).report
        except HclError as err:
            failure = (f"noise level {level:g}, method {entry}, seed {seed}",
                       err)
            break
        rows.append((level, entry, seed, report.f1, report.auc))
        if len(rows) % len(cfg.seeds) == 0:
            # cells run level, entry, seed: the last len(seeds) rows are this
            # group's, and a group is summarized only when all its seeds finish
            f1s, aucs = zip(*(r[3:] for r in rows[-len(cfg.seeds):]))
            summary.append((level, entry, np.mean(f1s), np.std(f1s),
                            np.mean(aucs), np.std(aucs)))
            print(f"noise {level:g} {entry}: mean f1={np.mean(f1s):.4f} "
                  f"std={np.std(f1s):.4f} mean auc={np.mean(aucs):.4f}")

    text = csv_text(["level", "method", "seed", "f1", "auc"], rows)
    if rows:
        # a failed cell keeps the cells that finished before it
        atomic_write_text(os.path.join(out, "noise_sweep.csv"), text)

    if summary:
        atomic_write_text(os.path.join(out, "noise_summary.csv"), csv_text(
            ["level", "method", "f1_mean", "f1_std", "auc_mean", "auc_std"],
            summary))
    if failure is not None:
        run, err = failure
        kept = (f"{len(rows)} finished cell(s) written to noise_sweep.csv"
                if rows else "")
        raise _failed(run, err, kept) from err
    return text


# ---------------------------------------------------------------------------
# perf-sweep


def _fit_r2(x, y, degree: int):
    coeffs = np.polyfit(x, y, degree)
    pred = np.polyval(coeffs, x)
    ss_res = float(np.sum((np.asarray(y) - pred) ** 2))
    ss_tot = float(np.sum((np.asarray(y) - np.mean(y)) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 0.0
    return [float(c) for c in coeffs], r2


def cmd_perf_sweep(pairs: dict[str, str],
                   overrides: dict[str, str] | None = None) -> dict:
    # each timed variant sets its own n_labeled
    cfg = resolve_config(pairs, overrides, splits=False)
    need = max(max(cfg.perf_train_sizes), max(cfg.perf_neg_sizes) + 2)
    # a synthetic family's row count is known now, a manifest's once read
    base = None if cfg.synthetic else build_dataset(cfg)
    have = cfg.n_samples if base is None else base.n
    if have < need:
        raise ConfigError(
            f"config field 'n_samples': the sweep needs at least {need} "
            f"rows, the dataset has {have}"
        )
    out = _ensure_out(cfg.out_dir)
    if base is None:
        base = build_dataset(cfg)
    merged = dict(pairs)
    if overrides:
        merged.update(overrides)
    # timings isolate the contrastive path: one view, no label term
    common = {"method": "hcl-u", "mode": "single-view",
              "view1_aug": "none", "view2_aug": "none", "seeds": "0"}
    # cost per epoch is iterations x fixed batch work, so it scales with
    # the labeled-set size
    variants = [("train-size", size, take_rows(base, np.arange(size)), {
        "n_labeled": str(size - 16), "batch_size": "64",
        "neg_size": str(cfg.perf_neg_fixed), "epochs": str(cfg.perf_epochs),
    }) for size in cfg.perf_train_sizes]
    # a pool of k+1 anchors with k negatives each gives the k^2 regime
    variants += [("neg-size", k, base, {
        "n_labeled": "1", "batch_size": "1", "neg_size": str(k),
        "epochs": str(cfg.perf_epochs * 10),
    }) for k in cfg.perf_neg_sizes]

    # a variant's time is its best wall clock over three rounds, each of
    # which trains every variant once: a slow stretch of a shared host then
    # costs one round, not all three repetitions of one size
    best = [float("inf")] * len(variants)
    for _ in range(3):
        for k, (sweep, size, sub, extra) in enumerate(variants):
            try:
                variant = resolve_config(merged, {**common, **extra})
                seconds = run_training(variant, 0, sub).wall_seconds
            except HclError as err:
                raise _failed(f"perf {sweep} {size}", err) from err
            best[k] = min(best[k], seconds)
    rows = [(sweep, size, seconds)
            for (sweep, size, _, _), seconds in zip(variants, best)]
    for sweep, size, seconds in rows:
        print(f"perf {sweep} {size}: {seconds:.4f}s")

    atomic_write_text(os.path.join(out, "perf.csv"),
                      csv_text(["sweep", "size", "seconds"], rows))

    times = [seconds for _, _, seconds in rows]
    n_train = len(cfg.perf_train_sizes)
    lin_coeffs, lin_r2 = _fit_r2(cfg.perf_train_sizes, times[:n_train], 1)
    quad_coeffs, quad_r2 = _fit_r2(cfg.perf_neg_sizes, times[n_train:], 2)
    fits = {
        "train_size": {"coefficients": lin_coeffs, "r_squared": lin_r2},
        "neg_size": {"coefficients": quad_coeffs, "r_squared": quad_r2},
    }
    atomic_write_text(os.path.join(out, "perf_fits.json"), json_text(fits))
    print(f"perf fits: train-size linear R2={lin_r2:.4f}, "
          f"neg-size quadratic R2={quad_r2:.4f}")
    return fits


# ---------------------------------------------------------------------------
# argument parsing


# flag -> (the config field it overrides, help)
_FLAGS = {
    "--seed": ("seeds", "comma-separated seed list"),
    "--out": ("out_dir", "output directory"),
    "--method": ("method", "method"),
    "--alpha": ("alpha", "unsupervised weight"),
    "--beta": ("beta", "supervised weight"),
    "--neg-size": ("neg_size", "negative-set size (int or 'full')"),
    "--epochs": ("epochs", "epoch count"),
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of every command line, built once per process: a parse
    keeps nothing from an earlier one."""
    parser = argparse.ArgumentParser(
        prog="hcl",
        description="weighted contrastive learning experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name in ("train", "bound-check", "noise-sweep", "perf-sweep"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="key-value config file")
        for flag, (key, what) in _FLAGS.items():
            p.add_argument(flag, dest=key, help=f"{what} override")

    p_eval = sub.add_parser("eval")
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--data", help="dataset manifest to evaluate on")
    p_eval.add_argument("--out", help="output directory")
    return parser


def _overrides(args) -> dict[str, str]:
    return {key: getattr(args, key) for key, _ in _FLAGS.values()
            if getattr(args, key) is not None}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    pin_blas_threads()
    try:
        if args.command == "eval":
            cmd_eval(args.checkpoint, data=args.data, out_dir=args.out)
            return 0
        pairs = load_pairs(args.config)
        overrides = _overrides(args)
        if args.command == "train":
            cmd_train(pairs, overrides)
        elif args.command == "bound-check":
            cmd_bound_check(pairs, overrides)
        elif args.command == "noise-sweep":
            cmd_noise_sweep(pairs, overrides)
        else:
            cmd_perf_sweep(pairs, overrides)
        return 0
    except HclError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
