"""Digest every CSV and JSON output of a fixed set of tiny ``hcl`` runs.

    python tests/output_digests.py > digests.txt
    python tests/output_digests.py --against digests.txt

Runs ``hcl.cli.main`` from the ``src/`` next to this file (which runs
numpy's BLAS on one thread itself, whatever ``OPENBLAS_NUM_THREADS`` says)
on fixed tiny configs: a two-view train followed by ``eval``, the same
train once with weight decay 0.01 and once at temperature 1e-4, a two-view
full-complement train at temperature 0.5 and at 1e-4, a two-view train on a
manifest whose views have different widths (8 and 5 columns), single-view
trains with sampled negatives and with the full complement, both at
temperature 1e-4, a single-view full-complement train over 300 rows (three
blocks of the dense kernel), a single-view full-plan train, a noise sweep
and both bound checks. Prints one ``sha256  relative/path`` line per CSV
and JSON output, sorted by path.

Every JSON output is first parsed strictly: a NaN or Infinity token stops
the script, naming the file. Run records are digested after their ``out_dir`` and ``manifest`` are
replaced by fixed names and ``wall_seconds`` and the checkpoint checksum
are dropped (the checkpoint embeds the config, so its bytes depend on the
output directory); every other file is digested as written. The manifest's
input files are written to a separate directory and are not listed.
Diffing the listings of two checkouts shows which outputs a change moved.
With ``--against LISTING`` the script compares its listing with a saved
one instead of printing it: it prints each changed, added or missing line
(``changed``, ``added``, ``missing``, then the path and digests) and exits
1 on any difference, or prints that all lines are equal and exits 0.
This is a script, not a test module: pytest does not collect it.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, os.pardir, "src"))
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402

from builders import save_csv, save_manifest, strict_json  # noqa: E402
from hcl.cli import main  # noqa: E402

TINY = {"n_samples": "60", "n_features": "8", "n_classes": "3",
        "n_labeled": "15", "epochs": "3", "encoder_sizes": "8,6",
        "base_lr": "0.5"}

TWO_VIEW = dict(TINY, synthetic="multiview", mode="two-view", seeds="0,1",
                batch_size="8", neg_size="4")
TWO_VIEW_FULL = dict(TWO_VIEW, n_samples="193", neg_size="full")

# case -> (subcommand, config pairs)
CASES = {
    "two-view": ("train", TWO_VIEW),
    # the weight-decay branch of the LARS update
    "two-view-decay": ("train", dict(TWO_VIEW, weight_decay="0.01")),
    # sharp enough that some rows' sums under the logits' bound underflow
    # and take the kernels' own-max repair
    "two-view-sharp": ("train", dict(TWO_VIEW, temperature="0.0001")),
    # every row an anchor with the full complement: 2n = 386 rows take the
    # two-view kernel's symmetric branch, in bands of 129, 129 and 128
    "two-view-full": ("train", TWO_VIEW_FULL),
    # so sharp that at each seed's first step some row's sum underflows and
    # the symmetric branch hands the whole call to the dense path; after
    # that step every row has a near neighbour and the branch finishes
    "two-view-full-sharp": ("train", dict(TWO_VIEW_FULL, temperature="0.0001")),
    "two-view-manifest": ("train", dict(TINY, mode="two-view", seeds="0",
                                        batch_size="8", neg_size="4")),
    # one view, sampled negatives, sharp enough that the single-view
    # kernel's dropped entries meet underflowing rows and their repair
    "single-view-sharp": ("train", dict(TWO_VIEW, mode="single-view",
                                        temperature="0.0001")),
    # one view, the full complement at the same sharpness: the single-view
    # kernel's diagonal write, then rows repaired under it
    "single-view-full-sharp": ("train", dict(TWO_VIEW, mode="single-view",
                                             neg_size="full",
                                             temperature="0.0001")),
    # one view, the full complement over a pool of 300 rows: the dense
    # kernel's blocks of 128, 128 and 44 anchor rows
    "single-view-full": ("train", dict(TWO_VIEW, mode="single-view",
                                       n_samples="300", neg_size="full",
                                       seeds="0")),
    "full-plan": ("train", dict(TINY, synthetic="scene-like", n_features="10",
                                n_classes="4", method="hcl", seeds="3",
                                batch_size="64", neg_size="full")),
    "noise-sweep": ("noise-sweep", dict(
        TINY, synthetic="cluster", seeds="0,1", batch_size="8", neg_size="4",
        noise_levels="0,0.5",
        methods="hcl,supcon-style,hcl-u@two-view,simclr-style@two-view")),
    "bound-unsup": ("bound-check", {"synthetic": "cluster", "seeds": "0",
                                    "bound_kind": "unsup",
                                    "bound_sizes": "6,10",
                                    "bound_epochs": "10"}),
    "bound-sup": ("bound-check", {"synthetic": "cluster", "seeds": "0,1",
                                  "bound_kind": "sup", "bound_epochs": "10"}),
}


def _write_manifest(inputs: str) -> str:
    """A 40-row, 3-label dataset with views of 8 and 5 columns, both linear
    in the labels plus noise; returns the manifest's path."""
    rng = np.random.default_rng(0)
    y = (rng.random((40, 3)) < 0.5).astype(float)
    views = [y @ rng.normal(size=(3, d)) + 0.3 * rng.normal(size=(40, d))
             for d in (8, 5)]
    for name, m in (("view1.csv", views[0]), ("view2.csv", views[1]),
                    ("labels.csv", y)):
        save_csv(os.path.join(inputs, name), m)
    path = os.path.join(inputs, "data.manifest")
    save_manifest(path, ["view1.csv", "view2.csv"], "labels.csv", 3)
    return path


def _run(root: str, inputs: str) -> None:
    manifest = _write_manifest(inputs)
    for case, (command, pairs) in CASES.items():
        if case == "two-view-manifest":
            pairs = dict(pairs, manifest=manifest)
        out = os.path.join(root, case)
        cfg_path = os.path.join(root, f"{case}.cfg")
        with open(cfg_path, "w", encoding="utf-8") as fh:
            fh.writelines(f"{k} = {v}\n"
                          for k, v in dict(pairs, out_dir=out).items())
        argvs = [[command, "--config", cfg_path]]
        if case == "two-view":
            argvs += [["eval", "--checkpoint",
                       os.path.join(out, f"run-hcl-seed{seed}.ckpt")]
                      for seed in (0, 1)]
        for argv in argvs:
            with contextlib.redirect_stdout(io.StringIO()):
                code = main(argv)
            if code != 0:
                raise SystemExit(f"{case}: hcl {' '.join(argv)} exited {code}")


def _digest(path: str, rel: str) -> str:
    with open(path, "rb") as fh:
        blob = fh.read()
    name = os.path.basename(rel)
    if name.endswith(".json"):
        record = strict_json(blob, rel)
        if name.startswith("run-"):
            record["config"]["out_dir"] = "<out>"
            if record["config"]["manifest"]:
                record["config"]["manifest"] = "<manifest>"
            del record["wall_seconds"], record["checksums"]["checkpoint"]
            blob = json.dumps(record, indent=2, sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def _listing() -> dict[str, str]:
    """relative path -> sha256 of every CSV and JSON output."""
    with tempfile.TemporaryDirectory() as root, \
            tempfile.TemporaryDirectory() as inputs:
        _run(root, inputs)
        listing = {}
        for dirpath, _, files in os.walk(root):
            for name in files:
                if name.endswith((".csv", ".json")):
                    path = os.path.join(dirpath, name)
                    rel = os.path.relpath(path, root)
                    listing[rel] = _digest(path, rel)
    return listing


def _read_listing(path: str) -> dict[str, str]:
    """A saved listing's ``sha256  path`` lines as path -> sha256."""
    saved = {}
    with open(path, encoding="utf-8") as fh:
        for number, line in enumerate(fh, 1):
            if not line.strip():
                continue
            digest, sep, rel = line.rstrip("\n").partition("  ")
            if not sep or not rel:
                raise SystemExit(f"{path}:{number}: not a 'sha256  path' line")
            saved[rel] = digest
    return saved


def _compare(listing: dict[str, str], saved: dict[str, str]) -> list[str]:
    """One line per path whose digest changed, or that only one side has."""
    out = []
    for rel in sorted(listing.keys() | saved.keys()):
        old, new = saved.get(rel), listing.get(rel)
        if old is None:
            out.append(f"added    {rel}  {new}")
        elif new is None:
            out.append(f"missing  {rel}  {old}")
        elif old != new:
            out.append(f"changed  {rel}  {old} -> {new}")
    return out


def main_digests(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", metavar="LISTING",
                        help="compare with a saved listing instead of "
                             "printing this one; exit 1 on any difference")
    args = parser.parse_args(argv)
    saved = None if args.against is None else _read_listing(args.against)
    listing = _listing()
    if saved is None:
        for rel, digest in sorted(listing.items()):
            print(f"{digest}  {rel}")
        return 0
    differences = _compare(listing, saved)
    for line in differences:
        print(line)
    if differences:
        return 1
    print(f"all {len(listing)} lines equal {args.against}")
    return 0


if __name__ == "__main__":
    sys.exit(main_digests())
