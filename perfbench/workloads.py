"""The benchmark's four workloads and the checks on their outputs.

Each workload is one ``hcl`` subcommand on a config made from the run seed
(the seed sets both ``data_seed`` and the run seed). One *unit* is one call
of the command; a run repeats units on the same config, so every unit must
write byte-identical metric files.

Why these four (the layer each stresses, and the one it leaves alone):

* ``scene``: criterion 6's two-view config, the paper's headline setting.
  The two-view weighted kernel at n = 513 dominates; kernel and allocation
  work show here.
* ``noise-sweep``: criterion 7's sweep, many tiny steps. Batch sampling,
  the supervised loss and per-step glue dominate; the big kernels do not.
* ``full-plan``: the repo defaults on scene-like data. The single-view
  kernel at n = 1000 on a static full plan, re-expanded into a mask every
  epoch; per-run caching shows here and nowhere else.
* ``unsup-bound``: the unsupervised bound check at |N| = 256, the only
  workload in the ``mi`` layer. The two-view kernel at n = 257 with no
  classifier or supervised term.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
from dataclasses import dataclass, field

NAMES = ("scene", "noise-sweep", "full-plan", "unsup-bound")

# criterion 6 of tests/test_acceptance.py, one seed per run and 10 of its
# 200 epochs
_SCENE = {
    "synthetic": "scene-like", "n_samples": "2407", "n_features": "20",
    "n_classes": "6", "n_labeled": "120", "epochs": "10", "alpha": "0.2",
    "beta": "0.01", "base_lr": "1.0", "batch_size": "128", "neg_size": "512",
    "encoder_sizes": "32,16", "mode": "two-view", "view1_aug": "mask:0.25",
    "view2_aug": "mask:0.25", "method": "hcl",
}
# criterion 7, with three of its five noise levels and 12 of its 80 epochs.
# Every workload runs few epochs so that one call takes about half a second:
# the reference kernel around each call then tracks the host's speed
# closely (see reference.py)
_NOISE = {
    "synthetic": "cluster", "n_samples": "500", "n_features": "48",
    "n_classes": "10", "n_labeled": "120", "epochs": "12", "base_lr": "1.0",
    "alpha": "1.0", "neg_size": "32", "batch_size": "64",
    "encoder_sizes": "32,16", "noise_levels": "0,0.5,1",
    "methods": "hcl-u@single-view,hcl-u@two-view,hcl-s@two-view",
}
# every other key at its default: n 1000, neg_size full, single-view, hcl
_FULL = {"synthetic": "scene-like", "epochs": "10"}
_BOUND = {
    "synthetic": "scene-like", "bound_kind": "unsup", "bound_sizes": "256",
    "bound_epochs": "50",
}
# short runs for the smoke test
_TINY = {"epochs": "2", "bound_epochs": "3"}

_COMMANDS = {"scene": "train", "noise-sweep": "noise-sweep",
             "full-plan": "train", "unsup-bound": "bound-check"}
_BASE = {"scene": _SCENE, "noise-sweep": _NOISE, "full-plan": _FULL,
         "unsup-bound": _BOUND}


def config(name: str, seed: int, tiny: bool = False) -> dict[str, str]:
    """The workload's config pairs for one run seed."""
    pairs = dict(_BASE[name])
    if tiny:
        pairs.update({k: v for k, v in _TINY.items() if k in pairs})
    pairs["data_seed"] = str(seed)
    pairs["seeds"] = str(seed)
    return pairs


def command(name: str) -> str:
    return _COMMANDS[name]


def steps_per_unit(name: str, cfg) -> int:
    """Optimizer steps one call of the command takes, from the resolved
    ``hcl.config.RunConfig``."""
    if name == "unsup-bound":
        return expected_cells(name, cfg) * cfg.bound_epochs
    return expected_cells(name, cfg) * cfg.epochs * math.ceil(
        cfg.n_labeled / cfg.batch_size)


@dataclass
class Outcome:
    """Checked outputs of one unit."""

    cells: int
    failed: int = 0
    quality: float = float("nan")  # mean f1, or mean bound gap for unsup-bound
    csv_bytes: bytes = b""
    problems: list[str] = field(default_factory=list)

    def fail_all(self, why: str) -> None:
        self.failed = self.cells
        self.problems.append(why)


def expected_cells(name: str, cfg) -> int:
    """Runs, sweep cells or bound reports one call should produce."""
    if name == "noise-sweep":
        return len(cfg.seeds) * len(cfg.noise_levels) * len(cfg.methods)
    if name == "unsup-bound":
        return len(cfg.seeds) * len(cfg.bound_sizes)
    return len(cfg.seeds)


def _finite(*values) -> bool:
    return all(math.isfinite(float(v)) for v in values)


def _rows(blob: bytes) -> list[dict]:
    return list(csv.DictReader(io.StringIO(blob.decode("utf-8"))))


def _check_train(out: str, cfg, outcome: Outcome) -> None:
    method = cfg.method
    with open(os.path.join(out, f"metrics-{method}.csv"), "rb") as fh:
        outcome.csv_bytes = fh.read()
    rows = _rows(outcome.csv_bytes)
    if len(rows) != outcome.cells:
        outcome.fail_all(f"metrics csv has {len(rows)} rows, "
                         f"expected {outcome.cells}")
        return
    f1s = []
    for row in rows:
        path = os.path.join(out, f"run-{method}-seed{row['seed']}.json")
        with open(path, encoding="utf-8") as fh:
            record = json.load(fh)
        losses = [e[k] for e in record["trace"]
                  for k in ("l_c", "l_u", "l_s", "j")]
        report = record["report"]
        f1 = float(row["f1"])
        if not (losses and _finite(*losses, report["f1"], report["auc"],
                                   row["auc"])
                and 0.0 <= f1 <= 1.0 and f1 == report["f1"]):
            outcome.failed += 1
            outcome.problems.append(f"seed {row['seed']}: non-finite loss "
                                    "trace or report")
        f1s.append(f1)
    outcome.quality = sum(f1s) / len(f1s)


def _check_noise(out: str, cfg, outcome: Outcome) -> None:
    with open(os.path.join(out, "noise_sweep.csv"), "rb") as fh:
        outcome.csv_bytes = fh.read()
    rows = _rows(outcome.csv_bytes)
    if len(rows) != outcome.cells:
        outcome.fail_all(f"noise sweep has {len(rows)} cells, "
                         f"expected {outcome.cells}")
        return
    f1s = []
    for row in rows:
        f1 = float(row["f1"])
        if not (_finite(f1, row["auc"]) and 0.0 <= f1 <= 1.0):
            outcome.failed += 1
            outcome.problems.append(
                f"cell {row['level']} {row['method']}: non-finite report")
        f1s.append(f1)
    outcome.quality = sum(f1s) / len(f1s)


def _check_bound(out: str, cfg, outcome: Outcome) -> None:
    with open(os.path.join(out, "bounds-unsup.csv"), "rb") as fh:
        outcome.csv_bytes = fh.read()
    rows = _rows(outcome.csv_bytes)
    if len(rows) != outcome.cells:
        outcome.fail_all(f"bound check has {len(rows)} reports, "
                         f"expected {outcome.cells}")
        return
    # criterion 4: -L_u + ln|N| <= I(X1; X2) + tolerance
    tolerance = cfg.bound_tolerance
    gaps = []
    for row in rows:
        bound, ref = float(row["bound"]), float(row["reference_mi"])
        if not (_finite(row["unsup_loss"], bound, ref)
                and bound <= ref + tolerance):
            outcome.failed += 1
            outcome.problems.append(f"size {row['size']} seed {row['seed']}: "
                                    f"bound {bound!r} vs reference {ref!r}")
        gaps.append(ref - bound)
    outcome.quality = sum(gaps) / len(gaps)


_CHECKS = {"scene": _check_train, "full-plan": _check_train,
           "noise-sweep": _check_noise, "unsup-bound": _check_bound}


def check(name: str, out: str, cfg) -> Outcome:
    """Read the unit's output files and check them against the resolved
    config."""
    outcome = Outcome(cells=expected_cells(name, cfg))
    try:
        _CHECKS[name](out, cfg, outcome)
    except (OSError, ValueError, KeyError, TypeError) as err:
        outcome.fail_all(f"unreadable outputs: {err!r}")
    return outcome
