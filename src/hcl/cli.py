"""Command-line entry point.

Subcommands: ``train``, ``eval``, ``bound-check``, ``noise-sweep``,
``perf-sweep``. Every command reads a flat key-value config file; the
shared flags override individual fields. Outputs are one JSON RunRecord
per run, whose ``blas_threads`` and ``checksums`` ``train`` fills, plus
one aggregated CSV per sweep, all written atomically.

``train``, ``noise-sweep`` and ``perf-sweep`` check each config against
the rows it trains on (``train.check_dataset``) before the first cell and
before making the output directory, so a rejected config leaves none.
A multi-run command runs its cells in order through ``train.run_cells``:
``train``'s seeds, ``noise-sweep``'s (level, method, seed) cells,
``perf-sweep``'s three interleaved timing rounds and a bound check's cells.
The first cell that fails with an ``HclError`` ends the command. ``train``
and ``noise-sweep`` write the cells that finished, then re-raise the error
through ``_failed``, naming the cell and what was kept; ``perf-sweep``
names the variant and writes nothing; a bound check raises the error as it
is. A bound cell whose training diverges is no failure: it gives NaN loss
and bound. A ``train`` seed whose checkpoint or record cannot be written
has failed like one that could not train, and its checkpoint is removed.
The first output write that fails ends the command by name, and no later
output is written: a failed ``noise_sweep.csv`` leaves no
``noise_summary.csv``.
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
    run_cells,
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


def _failed(run: str, err: HclError, kept: int = 0,
            where: str = "") -> HclError:
    """``err``'s own type, naming the failed run and the ``kept`` runs that
    finished before it, written to ``where``."""
    note = f" ({kept} finished {where})" if kept else ""
    return type(err)(f"{run} failed: {err}{note}")


# ---------------------------------------------------------------------------
# train


def cmd_train(pairs: dict[str, str],
              overrides: dict[str, str] | None = None) -> list[RunRecord]:
    cfg = resolve_config(pairs, overrides)
    base = build_dataset(cfg)
    check_dataset(base, cfg)
    out = _ensure_out(cfg.out_dir)
    data_sha = dataset_checksum(base)

    def train_seed(seed: int) -> RunRecord:
        # a seed fails as a whole, its training or one of its writes, and
        # leaves no checkpoint without its record
        stem = f"run-{cfg.method}-seed{seed}"
        ckpt_path = os.path.join(out, f"{stem}.ckpt")
        record = run_training(cfg, seed, base)
        save_checkpoint(record.params, ckpt_path,
                        extra={"config": record.config, "seed": seed,
                               "dataset": data_sha})
        try:
            record.blas_threads = pin_blas_threads()
            record.checksums = {"checkpoint": sha256_file(ckpt_path),
                                "dataset": data_sha}
            atomic_write_text(os.path.join(out, f"{stem}.json"),
                              record.to_json())
        except BaseException:
            os.remove(ckpt_path)
            raise
        print(f"{stem}: f1={record.report.f1:.4f} auc={record.report.auc:.4f} "
              f"({record.wall_seconds:.1f}s)")
        return record

    records, failure = run_cells(cfg.seeds, train_seed)
    if records:
        # a failed seed keeps the seeds that finished before it
        atomic_write_text(os.path.join(out, f"metrics-{cfg.method}.csv"),
                          metrics_csv(records))
        f1s = [r.report.f1 for r in records]
        print(f"{cfg.method}: mean f1={np.mean(f1s):.4f} "
              f"std={np.std(f1s):.4f} over {len(f1s)} seeds")
    if failure is not None:
        seed, err = failure
        raise _failed(f"seed {seed}", err, len(records),
                      f"seed(s) written to metrics-{cfg.method}.csv") from err
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
    overrides = {} if data is None else {"manifest": data, "synthetic": ""}
    cfg = resolve_config(pairs, overrides)
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
    cfg = resolve_config(pairs, overrides)
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
    else:
        reports = check_sup_bound(RingProtoSpec(), spec)
    text = reports_to_csv(reports, f"{cfg.bound_kind}_loss")
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
        noisy = replace(base, views=[
            inject_noise(base.views[0], level, noise_rng) for _ in range(2)])
        yield from ((level, entry, seed, variant, noisy)
                    for entry, variant in variants for seed in cfg.seeds)


def cmd_noise_sweep(pairs: dict[str, str],
                    overrides: dict[str, str] | None = None) -> str:
    cfg = resolve_config(pairs, overrides)
    base = build_dataset(cfg)
    if base.n_views != 1:
        raise ConfigError(
            "config field 'manifest': the noise sweep builds its own views "
            "by corrupting a single-view dataset; got a two-view source"
        )
    # every config is checked before the first cell trains: the sweep's own
    # against its rows, whose rules every entry shares, then each entry's
    # against the labels and views its cells train on
    check_dataset(base, cfg)
    variants = []
    for entry in cfg.methods:
        method, _, mode = entry.partition("@")
        variant = resolve_config(pairs, {
            **(overrides or {}),
            "methods": method, "method": method, "mode": mode or cfg.mode,
        })
        try:
            check_dataset(replace(base, views=[base.views[0]] * 2), variant)
        except ConfigError as err:
            raise ConfigError(f"method entry {entry}: {err}") from err
        variants.append((entry, variant))
    out = _ensure_out(cfg.out_dir)
    # cells of one seed and view mode draw one batch stream at every level
    # and for every method: the memo draws it once
    memo = PlanMemo()

    def train_cell(cell) -> tuple:
        level, entry, seed, variant, noisy = cell
        report = run_training(variant, seed, noisy, memo=memo).report
        return level, entry, seed, report.f1, report.auc

    rows, failure = run_cells(_noise_cells(cfg, base, variants), train_cell)
    summary = []
    # cells run level, entry, seed: each run of len(seeds) rows is one
    # group, summarized only when all its seeds finished
    group = len(cfg.seeds)
    for start in range(0, len(rows) - group + 1, group):
        level, entry = rows[start][:2]
        f1s, aucs = zip(*(r[3:] for r in rows[start:start + group]))
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
        (level, entry, seed, _, _), err = failure
        raise _failed(f"noise level {level:g}, method {entry}, seed {seed}",
                      err, len(rows), "cell(s) written to noise_sweep.csv"
                      ) from err
    return text


# ---------------------------------------------------------------------------
# perf-sweep


def _fit(x, y, degree: int) -> dict:
    """A least-squares polynomial of ``degree``: its coefficients and R^2."""
    coeffs = np.polyfit(x, y, degree)
    pred = np.polyval(coeffs, x)
    ss_res = float(np.sum((np.asarray(y) - pred) ** 2))
    ss_tot = float(np.sum((np.asarray(y) - np.mean(y)) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 0.0
    return {"coefficients": [float(c) for c in coeffs], "r_squared": r2}


def cmd_perf_sweep(pairs: dict[str, str],
                   overrides: dict[str, str] | None = None) -> dict:
    cfg = resolve_config(pairs, overrides)
    need = max(max(cfg.perf_train_sizes), max(cfg.perf_neg_sizes) + 2)
    base = build_dataset(cfg)
    if base.n < need:
        raise ConfigError(
            f"config field 'n_samples': the sweep needs at least {need} "
            f"rows, the dataset has {base.n}"
        )
    # the flags; timings isolate the contrastive path: one view, no label term
    common = {**(overrides or {}), "method": "hcl-u", "mode": "single-view",
              "view1_aug": "none", "view2_aug": "none", "seeds": "0"}
    # cost per epoch is iterations x fixed batch work, so it scales with
    # the labeled-set size
    specs = [("train-size", size, take_rows(base, np.arange(size)), {
        "n_labeled": str(size - 16), "batch_size": "64",
        "neg_size": str(cfg.perf_neg_fixed), "epochs": str(cfg.perf_epochs),
    }) for size in cfg.perf_train_sizes]
    # a pool of k+1 anchors with k negatives each gives the k^2 regime
    specs += [("neg-size", k, base, {
        "n_labeled": "1", "batch_size": "1", "neg_size": str(k),
        "epochs": str(cfg.perf_epochs * 10),
    }) for k in cfg.perf_neg_sizes]

    def checked_variant(spec) -> tuple:
        sweep, size, sub, extra = spec
        variant = resolve_config(pairs, {**common, **extra})
        check_dataset(sub, variant)
        return sweep, size, sub, variant

    # every variant is resolved once and checked against its rows before
    # round 1, so a rejected variant costs no timing
    variants, failure = run_cells(specs, checked_variant)
    if failure is None:
        out = _ensure_out(cfg.out_dir)
        # a variant's time is its best wall clock over three rounds, each
        # of which trains every variant once: a slow stretch of a shared
        # host then costs one round, not all three repetitions of one size
        rounds, failure = run_cells(variants * 3, lambda cell: run_training(
            cell[3], 0, cell[2]).wall_seconds)
    if failure is not None:
        (sweep, size, _, _), err = failure
        raise _failed(f"perf {sweep} {size}", err) from err
    times = [min(rounds[k::len(variants)]) for k in range(len(variants))]
    rows = [(sweep, size, seconds)
            for (sweep, size, _, _), seconds in zip(variants, times)]
    for sweep, size, seconds in rows:
        print(f"perf {sweep} {size}: {seconds:.4f}s")

    atomic_write_text(os.path.join(out, "perf.csv"),
                      csv_text(["sweep", "size", "seconds"], rows))

    n_train = len(cfg.perf_train_sizes)
    fits = {"train_size": _fit(cfg.perf_train_sizes, times[:n_train], 1),
            "neg_size": _fit(cfg.perf_neg_sizes, times[n_train:], 2)}
    atomic_write_text(os.path.join(out, "perf_fits.json"), json_text(fits))
    print(f"perf fits: train-size linear "
          f"R2={fits['train_size']['r_squared']:.4f}, neg-size quadratic "
          f"R2={fits['neg_size']['r_squared']:.4f}")
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
    # a non-finite result that matters is a named HclError: no numpy warnings
    try:
        with np.errstate(all="ignore"):
            if args.command == "eval":
                cmd_eval(args.checkpoint, data=args.data, out_dir=args.out)
            else:
                command = {"train": cmd_train, "bound-check": cmd_bound_check,
                           "noise-sweep": cmd_noise_sweep,
                           "perf-sweep": cmd_perf_sweep}[args.command]
                command(load_pairs(args.config), _overrides(args))
        return 0
    except HclError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
