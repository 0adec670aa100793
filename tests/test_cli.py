"""CLI commands: artifacts, replays, sweeps, arg parsing, exit codes."""

import csv
import errno
import json
import math
import os
import re
import shutil
import subprocess
import sys
import warnings

import numpy as np
import pytest

import hcl.cli as cli_mod
import hcl.losses as losses_mod
import hcl.train as train_mod
from hcl.cli import (
    cmd_bound_check,
    cmd_eval,
    cmd_noise_sweep,
    cmd_perf_sweep,
    cmd_train,
    main,
)
from hcl.config import resolve_config
from hcl.data import sample_batch
from hcl.errors import ConfigError, ContractError, NumericError
from hcl.model import init_params, load_checkpoint, save_checkpoint
from hcl.numeric import make_rng, pin_blas_threads
from hcl.train import build_dataset

from builders import (
    save_csv,
    save_manifest,
    strict_json,
    symmetric_branch_calls,
)

SMALL = {
    "synthetic": "cluster", "n_samples": "60", "n_features": "8",
    "n_classes": "3", "n_labeled": "15", "epochs": "3", "seeds": "0,1",
    "batch_size": "16", "neg_size": "8", "encoder_sizes": "8,6",
    "base_lr": "0.5",
}


def small_pairs(tmp_path, sub="out", **over):
    pairs = dict(SMALL)
    pairs["out_dir"] = str(tmp_path / sub)
    pairs.update({k: str(v) for k, v in over.items()})
    return pairs


def write_cfg(tmp_path, pairs, name="run.cfg"):
    path = tmp_path / name
    path.write_text("".join(f"{k} = {v}\n" for k, v in pairs.items()),
                    encoding="utf-8")
    return str(path)


def read_strict_json(path):
    return strict_json(path.read_text(encoding="utf-8"), path)


# ---------------------------------------------------------------------------
# train


def test_cmd_train_writes_artifacts(tmp_path):
    records = cmd_train(small_pairs(tmp_path))
    out = tmp_path / "out"
    assert len(records) == 2
    for seed in (0, 1):
        assert (out / f"run-hcl-seed{seed}.ckpt").is_file()
        body = json.loads((out / f"run-hcl-seed{seed}.json").read_text())
        assert body["seed"] == seed
        assert len(body["trace"]) == 3
        assert set(body["checksums"]) == {"checkpoint", "dataset"}
        assert body["config"]["seeds"] == str(seed)
        assert body["blas_threads"] == pin_blas_threads()
    csv_text = (out / "metrics-hcl.csv").read_text()
    assert csv_text.startswith("method,seed,f1,auc,n_eval\n")
    assert csv_text.count("\n") == 3


def test_cmd_train_writes_the_records_it_returns(tmp_path):
    # each run's files are its record: the JSON is to_json() byte for
    # byte, the checkpoint holds the record's trained params
    records = cmd_train(small_pairs(tmp_path))
    for record in records:
        stem = tmp_path / "out" / f"run-hcl-seed{record.seed}"
        written = stem.with_suffix(".json").read_text(encoding="utf-8")
        assert written == record.to_json()
        params, extra = load_checkpoint(str(stem.with_suffix(".ckpt")))
        assert np.array_equal(params.flat, record.params.flat)
        assert extra["config"] == record.config


def test_cmd_train_metric_csv_byte_identical_across_reruns(tmp_path):
    cmd_train(small_pairs(tmp_path, sub="a"))
    cmd_train(small_pairs(tmp_path, sub="b"))
    a = (tmp_path / "a" / "metrics-hcl.csv").read_bytes()
    b = (tmp_path / "b" / "metrics-hcl.csv").read_bytes()
    assert a == b


@pytest.mark.parametrize("failing", [0, 1])
def test_cmd_train_keeps_finished_seeds_when_a_seed_fails(
        tmp_path, monkeypatch, capsys, failing):
    real = cli_mod.run_training

    def fail_on_one_seed(cfg, seed, base):
        if seed == failing:
            raise NumericError("loss diverged")
        return real(cfg, seed, base)

    monkeypatch.setattr(cli_mod, "run_training", fail_on_one_seed)
    pairs = small_pairs(tmp_path, seeds="0,1,2")
    with pytest.raises(NumericError, match=f"seed {failing} failed: "
                       "loss diverged") as info:
        cmd_train(pairs)
    csv = tmp_path / "out" / "metrics-hcl.csv"
    if failing == 0:
        assert "metrics-hcl.csv" not in str(info.value)
        assert not csv.exists()
    else:
        assert "1 finished seed(s) written to metrics-hcl.csv" in str(info.value)
        rows = csv.read_text().splitlines()
        assert len(rows) == 2 and rows[1].startswith("hcl,0,")
        # seed 0's files were written as it finished, and they replay
        ckpt = tmp_path / "out" / "run-hcl-seed0.ckpt"
        assert ckpt.exists()
        assert (tmp_path / "out" / "run-hcl-seed0.json").exists()
        f1 = float(rows[1].split(",")[2])
        assert cmd_eval(str(ckpt)).f1 == f1
    assert not (tmp_path / "out" / "run-hcl-seed2.json").exists()
    assert main(["train", "--config", write_cfg(tmp_path, pairs)]) == 2
    assert f"error: seed {failing} failed" in capsys.readouterr().err


SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                   "src")


def test_train_bytes_do_not_depend_on_blas_threads(tmp_path):
    # hcl pins numpy's BLAS to one thread itself, so a run's record and
    # checkpoint are the same bytes whatever OPENBLAS_NUM_THREADS says.
    # The scene config's 2n = 1026 products are large enough for OpenBLAS
    # to split across two threads, which moves their last bits.
    pairs = {
        "synthetic": "scene-like", "n_samples": "2407", "n_features": "20",
        "n_classes": "6", "n_labeled": "120", "epochs": "10", "alpha": "0.2",
        "beta": "0.01", "base_lr": "1.0", "batch_size": "128",
        "neg_size": "512", "encoder_sizes": "32,16", "mode": "two-view",
        "view1_aug": "mask:0.25", "view2_aug": "mask:0.25", "seeds": "7",
    }
    blobs = []
    for threads in ("1", "2"):
        # the checkpoint embeds out_dir: the same relative --out in each
        work = tmp_path / f"threads{threads}"
        work.mkdir()
        cfg = write_cfg(work, pairs)
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(
                       filter(None, [SRC, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-m", "hcl.cli", "train", "--config", cfg,
             "--out", "out"], cwd=work, env=env, capture_output=True,
            text=True, timeout=300, check=False)
        assert proc.returncode == 0, proc.stderr
        record = json.loads((work / "out" / "run-hcl-seed7.json").read_text())
        del record["wall_seconds"]
        blobs.append((record,
                      (work / "out" / "run-hcl-seed7.ckpt").read_bytes()))
    assert blobs[0][0] == blobs[1][0]
    assert blobs[0][1] == blobs[1][1]


NO_SCIPY_SCRIPT = """
import sys
from hcl.cli import main
train_cfg, ckpt, bound_cfg = sys.argv[1:]
assert main(["train", "--config", train_cfg]) == 0
assert main(["eval", "--checkpoint", ckpt]) == 0
assert main(["bound-check", "--config", bound_cfg]) == 0
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_commands_run_without_scipy(tmp_path):
    # scipy is a test dependency only: neither importing hcl nor running a
    # command may load it, lazily or not
    train_cfg = write_cfg(tmp_path, small_pairs(tmp_path, seeds="0",
                                                mode="two-view",
                                                synthetic="multiview"))
    bound_cfg = write_cfg(tmp_path, {
        "synthetic": "multiview", "out_dir": str(tmp_path / "b"),
        "bound_sizes": "6", "bound_epochs": "2", "seeds": "0",
    }, name="bound.cfg")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", NO_SCIPY_SCRIPT, train_cfg,
         str(tmp_path / "out" / "run-hcl-seed0.ckpt"), bound_cfg],
        env=env, capture_output=True, text=True, timeout=300, check=False)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def test_cmd_train_overrides_apply(tmp_path):
    records = cmd_train(small_pairs(tmp_path),
                        {"method": "dnn", "seeds": "4"})
    assert len(records) == 1 and records[0].seed == 4
    assert (tmp_path / "out" / "metrics-dnn.csv").is_file()


def test_main_supcon_style_rejects_multi_label_data(tmp_path, monkeypatch,
                                                    capsys):
    pairs = small_pairs(tmp_path, synthetic="scene-like", n_classes=4,
                        method="supcon-style")
    assert (build_dataset(resolve_config(pairs)).labels.sum(axis=1) > 1).any()
    steps = []
    monkeypatch.setattr(train_mod, "train_step",
                        lambda *args, **kwargs: steps.append(args))
    assert main(["train", "--config", write_cfg(tmp_path, pairs)]) == 2
    assert "config field 'method'" in capsys.readouterr().err
    assert not steps


def test_dataset_checksum_shared_across_seeds(tmp_path):
    records = cmd_train(small_pairs(tmp_path))
    checks = {r.checksums["dataset"] for r in records}
    assert len(checks) == 1


# ---------------------------------------------------------------------------
# eval


def test_cmd_eval_replays_training_report(tmp_path):
    records = cmd_train(small_pairs(tmp_path))
    report = cmd_eval(str(tmp_path / "out" / "run-hcl-seed1.ckpt"))
    assert report.f1 == records[1].report.f1
    assert report.auc == records[1].report.auc
    body = json.loads(
        (tmp_path / "out" / "eval-run-hcl-seed1.json").read_text())
    assert body["seed"] == 1 and body["f1"] == report.f1


def test_cmd_eval_separate_out_dir(tmp_path):
    cmd_train(small_pairs(tmp_path))
    cmd_eval(str(tmp_path / "out" / "run-hcl-seed0.ckpt"),
             out_dir=str(tmp_path / "elsewhere"))
    assert (tmp_path / "elsewhere" / "eval-run-hcl-seed0.json").is_file()


def test_cmd_eval_rejects_bare_checkpoint(tmp_path):
    params = init_params(make_rng(0), [[8, 6, 4]], [4, 3])
    path = str(tmp_path / "bare.ckpt")
    save_checkpoint(params, path)
    with pytest.raises(ContractError, match="no embedded run config"):
        cmd_eval(path)


def test_cmd_eval_on_other_manifest(tmp_path):
    cmd_train(small_pairs(tmp_path))
    # same shape, different rows: replay uses the new data
    base = build_dataset(resolve_config(small_pairs(tmp_path, data_seed="5")))
    save_csv(str(tmp_path / "x.csv"), base.views[0])
    save_csv(str(tmp_path / "y.csv"), base.labels)
    save_manifest(str(tmp_path / "m.manifest"), str(tmp_path / "x.csv"),
                  str(tmp_path / "y.csv"), base.c)
    report = cmd_eval(str(tmp_path / "out" / "run-hcl-seed0.ckpt"),
                      data=str(tmp_path / "m.manifest"))
    direct = cmd_eval(str(tmp_path / "out" / "run-hcl-seed0.ckpt"))
    assert report.auc != direct.auc


def test_main_eval_relative_manifest_from_elsewhere(tmp_path, monkeypatch):
    data_dir = tmp_path / "data"
    data_dir.mkdir()
    base = build_dataset(resolve_config(small_pairs(tmp_path)))
    save_csv(str(data_dir / "x.csv"), base.views[0])
    save_csv(str(data_dir / "y.csv"), base.labels)
    save_manifest(str(data_dir / "m.manifest"), "x.csv", "y.csv", base.c)
    pairs = small_pairs(tmp_path, manifest="data/m.manifest", seeds="0")
    del pairs["synthetic"]
    monkeypatch.chdir(tmp_path)
    assert main(["train", "--config", write_cfg(tmp_path, pairs)]) == 0
    trained = json.loads((tmp_path / "out" / "run-hcl-seed0.json").read_text())
    monkeypatch.chdir(data_dir)
    assert main(["eval", "--checkpoint",
                 str(tmp_path / "out" / "run-hcl-seed0.ckpt")]) == 0
    replay = json.loads((tmp_path / "out" / "eval-run-hcl-seed0.json").read_text())
    assert replay["auc"] == trained["report"]["auc"]


def test_main_eval_rejects_changed_dataset(tmp_path, capsys):
    base = build_dataset(resolve_config(small_pairs(tmp_path)))
    save_csv(str(tmp_path / "x.csv"), base.views[0])
    save_csv(str(tmp_path / "y.csv"), base.labels)
    save_manifest(str(tmp_path / "m.manifest"), "x.csv", "y.csv", base.c)
    pairs = small_pairs(tmp_path, manifest=str(tmp_path / "m.manifest"),
                        seeds="0")
    del pairs["synthetic"]
    assert main(["train", "--config", write_cfg(tmp_path, pairs)]) == 0
    ckpt = str(tmp_path / "out" / "run-hcl-seed0.ckpt")
    assert main(["eval", "--checkpoint", ckpt]) == 0
    # one feature value edited after training
    edited = base.views[0].copy()
    edited[3, 2] += 0.5
    save_csv(str(tmp_path / "x.csv"), edited)
    capsys.readouterr()
    assert main(["eval", "--checkpoint", ckpt]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "does not match" in err
    # naming the data on purpose still evaluates on it
    assert main(["eval", "--checkpoint", ckpt,
                 "--data", str(tmp_path / "m.manifest")]) == 0


def test_cmd_eval_needs_dataset_checksum(tmp_path):
    cmd_train(small_pairs(tmp_path, seeds="0"))
    path = tmp_path / "out" / "run-hcl-seed0.ckpt"
    doc = json.loads(path.read_text())
    record = json.loads((tmp_path / "out" / "run-hcl-seed0.json").read_text())
    assert doc["extra"]["dataset"] == record["checksums"]["dataset"]
    del doc["extra"]["dataset"]
    path.write_text(json.dumps(doc))
    with pytest.raises(ContractError, match="recorded sha256: none"):
        cmd_eval(str(path))


@pytest.mark.parametrize("command", ["train", "noise-sweep"])
def test_main_refuses_an_oversized_neg_size_before_any_output(
        tmp_path, capsys, command):
    # 40 rows hold at most 39 negatives: checked against the data by field
    # before the first cell trains and before the output directory is made
    pairs = small_pairs(tmp_path, sub="big-neg", n_samples=40, neg_size=60)
    assert main([command, "--config", write_cfg(tmp_path, pairs)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: config field 'neg_size': must be <= 39 for this dataset of "
        "40 rows, got 60"]
    assert not (tmp_path / "big-neg").exists()


# ---------------------------------------------------------------------------
# bound-check


def test_cmd_bound_check_unsup_rows(tmp_path):
    pairs = {"synthetic": "multiview", "out_dir": str(tmp_path / "b"),
             "bound_sizes": "6,10", "bound_epochs": "10", "seeds": "0,1"}
    text = cmd_bound_check(pairs)
    rows = list(csv.DictReader(text.splitlines()))
    assert len(rows) == 4
    assert {r["size"] for r in rows} == {"6", "10"}
    assert all(r["satisfied"] in ("true", "false") for r in rows)
    assert (tmp_path / "b" / "bounds-unsup.csv").read_text() == text


def test_cmd_bound_check_ignores_n_labeled(tmp_path):
    # the check trains on its own data, so the default n_labeled = 120 on
    # 30 samples is no error here
    pairs = {"synthetic": "cluster", "n_samples": "30",
             "out_dir": str(tmp_path / "b"), "bound_sizes": "6",
             "bound_epochs": "2", "seeds": "0"}
    assert len(cmd_bound_check(pairs).splitlines()) == 2


def test_cmd_bound_check_sup_rows(tmp_path):
    pairs = {"synthetic": "multiview", "out_dir": str(tmp_path / "b"),
             "bound_kind": "sup", "bound_epochs": "10", "seeds": "0"}
    text = cmd_bound_check(pairs)
    rows = list(csv.DictReader(text.splitlines()))
    assert rows and all(r["stratum"] in ("1", "2") for r in rows)
    assert "sup_loss" in rows[0]
    assert (tmp_path / "b" / "bounds-sup.csv").is_file()


# ---------------------------------------------------------------------------
# noise-sweep


def test_cmd_noise_sweep_rows_and_modes(tmp_path):
    pairs = small_pairs(tmp_path, sub="n", epochs=2, seeds="0,1",
                        noise_levels="0,1",
                        methods="hcl-u@single-view,hcl-u@two-view")
    text = cmd_noise_sweep(pairs)
    rows = list(csv.DictReader(text.splitlines()))
    # levels x methods x seeds
    assert len(rows) == 2 * 2 * 2
    assert {r["method"] for r in rows} == {"hcl-u@single-view",
                                           "hcl-u@two-view"}
    summary = (tmp_path / "n" / "noise_summary.csv").read_text()
    srows = list(csv.DictReader(summary.splitlines()))
    assert len(srows) == 4
    for r in srows:
        float(r["f1_mean"]), float(r["f1_std"])  # plain parseable floats


def test_cmd_noise_sweep_rejects_two_view_base(tmp_path):
    pairs = small_pairs(tmp_path, sub="n2", synthetic="multiview")
    with pytest.raises(ConfigError, match="single-view dataset"):
        cmd_noise_sweep(pairs)


@pytest.mark.parametrize("over,field", [
    ({"methods": "hcl,supcon-style", "synthetic": "scene-like"}, "method"),
    ({"methods": "hcl-u@two-view", "mode": "two-view",
      "view1_aug": "mask:0.25"}, "view1_aug"),
])
def test_main_noise_sweep_rejects_last_entry_before_any_cell(
        tmp_path, monkeypatch, capsys, over, field):
    # supcon-style cannot take multi-label rows, and a two-view entry cannot
    # take augmentations (its views are the two corruptions): both are
    # known before the first cell trains
    calls = []
    monkeypatch.setattr(cli_mod, "run_training",
                        lambda *args: calls.append(args))
    pairs = small_pairs(tmp_path, sub="n5", noise_levels="0,1", **over)
    assert main(["noise-sweep", "--config", write_cfg(tmp_path, pairs)]) == 2
    err = capsys.readouterr().err
    assert f"config field '{field}'" in err
    assert f"method entry {over['methods'].split(',')[-1]}:" in err
    assert calls == []
    assert not (tmp_path / "n5" / "noise_sweep.csv").exists()


def test_cmd_noise_sweep_deterministic(tmp_path):
    pairs = small_pairs(tmp_path, sub="n3", epochs=2, seeds="0",
                        noise_levels="0.5", methods="hcl-u")
    assert cmd_noise_sweep(pairs) == cmd_noise_sweep(pairs)


def test_cmd_noise_sweep_draws_each_batch_stream_once(tmp_path,
                                                      monkeypatch):
    # the cells of one seed and view mode draw one stream at every level and
    # for every method: 2 seeds x 2 view modes = 4 streams of 3 x 2 steps
    draws = []

    def count_draws(*args):
        draws.append(args)
        return sample_batch(*args)

    cells, handed_out = [], []
    real_run, real_step = cli_mod.run_training, train_mod.train_step

    def run_cell(cfg, seed, base, memo):
        cells.append((cfg, seed, base, real_run(cfg, seed, base, memo)))
        return cells[-1][-1]

    def keep_inputs(params, state, ds, plan, *args, **inputs):
        handed_out.append(plan)
        return real_step(params, state, ds, plan, *args, **inputs)

    monkeypatch.setattr(train_mod, "sample_batch", count_draws)
    monkeypatch.setattr(train_mod, "train_step", keep_inputs)
    monkeypatch.setattr(cli_mod, "run_training", run_cell)
    pairs = small_pairs(tmp_path, sub="n6", epochs=3, batch_size=8,
                        noise_levels="0,1", methods="hcl-u@single-view,"
                        "hcl-u@two-view,hcl-s@two-view")
    text = cmd_noise_sweep(pairs)
    assert len(cells) == 12 and len(draws) == 4 * 3 * 2
    for plan in handed_out:
        for array in (plan.anchors, plan.labeled, plan.neg_mask):
            if array is not None:  # a full complement holds no mask
                with pytest.raises(ValueError, match="read-only"):
                    array[0] = array[0]
    # each cell equals the same cell run alone, drawing its own stream
    monkeypatch.undo()
    rows = list(csv.DictReader(text.splitlines()))
    for row, (cfg, seed, base, shared) in zip(rows, cells, strict=True):
        alone = cli_mod.run_training(cfg, seed, base)
        assert (repr(alone.report.f1), repr(alone.report.auc)) \
            == (repr(shared.report.f1), repr(shared.report.auc))
        assert (row["f1"], row["auc"]) == (repr(alone.report.f1),
                                           repr(alone.report.auc))


def test_cmd_noise_sweep_makes_each_label_half_once(tmp_path, monkeypatch):
    # the hcl-s cells of every level share one batch stream, so their label
    # rows repeat across cells: the sweep's memo makes one label half per
    # distinct label rows, not one per step
    asked, made = [], []
    real_call, real_make = train_mod.LabelHalves.__call__, train_mod.sup_labels

    def call(self, y):
        asked.append((y.shape, y.tobytes()))
        return real_call(self, y)

    def make(y):
        made.append(y)
        return real_make(y)

    monkeypatch.setattr(train_mod.LabelHalves, "__call__", call)
    monkeypatch.setattr(train_mod, "sup_labels", make)
    pairs = small_pairs(tmp_path, sub="n8", epochs=3, batch_size=8, seeds="0",
                        noise_levels="0,0.5,1", methods="hcl-u@single-view,"
                        "hcl-u@two-view,hcl-s@two-view")
    cmd_noise_sweep(pairs)
    steps = 3 * 2  # epochs x ceil(15 labeled rows / batch of 8)
    assert len(asked) == 3 * steps  # only the three hcl-s cells ask
    assert len(made) == len(set(asked)) <= steps


def test_cmd_noise_sweep_keeps_finished_cells_when_a_cell_fails(
        tmp_path, monkeypatch, capsys):
    real = cli_mod.run_training
    calls = []

    def fail_on_last_cell(cfg, seed, base, memo):
        calls.append(seed)
        if len(calls) == 8:  # level 1, hcl-u@two-view, seed 1
            raise NumericError("loss diverged")
        return real(cfg, seed, base, memo)

    monkeypatch.setattr(cli_mod, "run_training", fail_on_last_cell)
    pairs = small_pairs(tmp_path, sub="n4", epochs=2, seeds="0,1",
                        noise_levels="0,1",
                        methods="hcl-u@single-view,hcl-u@two-view")
    with pytest.raises(NumericError, match="noise level 1, method "
                       "hcl-u@two-view, seed 1 failed: loss diverged") as info:
        cmd_noise_sweep(pairs)
    assert "7 finished cell(s) written to noise_sweep.csv" in str(info.value)
    rows = list(csv.DictReader(
        (tmp_path / "n4" / "noise_sweep.csv").read_text().splitlines()))
    assert len(rows) == 7
    assert (float(rows[-1]["level"]), rows[-1]["method"], rows[-1]["seed"]) \
        == (1.0, "hcl-u@two-view", "0")
    # the failed cell's (level, method) group lost a seed: no summary row
    summary = list(csv.DictReader(
        (tmp_path / "n4" / "noise_summary.csv").read_text().splitlines()))
    assert [(float(r["level"]), r["method"]) for r in summary] == [
        (0.0, "hcl-u@single-view"), (0.0, "hcl-u@two-view"),
        (1.0, "hcl-u@single-view")]
    calls.clear()
    assert main(["noise-sweep", "--config", write_cfg(tmp_path, pairs)]) == 2
    assert "error: noise level 1, method hcl-u@two-view, seed 1 failed" \
        in capsys.readouterr().err


# ---------------------------------------------------------------------------
# perf-sweep


def perf_pairs(tmp_path):
    return {
        "synthetic": "cluster", "n_samples": "200", "n_features": "8",
        "n_classes": "3", "out_dir": str(tmp_path / "p"),
        "perf_train_sizes": "64,96,128", "perf_neg_sizes": "8,16,24",
        "perf_epochs": "1", "encoder_sizes": "8,6",
    }


def test_cmd_perf_sweep_outputs(tmp_path):
    fits = cmd_perf_sweep(perf_pairs(tmp_path))
    assert set(fits) == {"train_size", "neg_size"}
    assert len(fits["train_size"]["coefficients"]) == 2
    assert len(fits["neg_size"]["coefficients"]) == 3
    text = (tmp_path / "p" / "perf.csv").read_text()
    rows = list(csv.DictReader(text.splitlines()))
    assert len(rows) == 6
    saved = json.loads((tmp_path / "p" / "perf_fits.json").read_text())
    assert saved["train_size"]["r_squared"] == fits["train_size"]["r_squared"]


def test_cmd_perf_sweep_times_variants_in_interleaved_rounds(tmp_path,
                                                             monkeypatch):
    # three rounds, each training every variant once; a variant's time is
    # its best of the three
    real = cli_mod.run_training
    calls = []

    def timed(cfg, seed, base):
        result = real(cfg, seed, base)
        calls.append(((base.n, cfg.n_labeled, cfg.neg_size),
                      result.wall_seconds))
        return result

    monkeypatch.setattr(cli_mod, "run_training", timed)
    cmd_perf_sweep(perf_pairs(tmp_path))
    order = [key for key, _ in calls]
    assert len(set(order[:6])) == 6 and order == order[:6] * 3
    rows = list(csv.DictReader(
        (tmp_path / "p" / "perf.csv").read_text().splitlines()))
    assert [float(r["seconds"]) for r in rows] == [
        min(t for key, t in calls if key == variant) for variant in order[:6]]


def test_cmd_perf_sweep_names_a_failed_variant(tmp_path, monkeypatch,
                                                capsys):
    real = cli_mod.run_training

    def fail_on_neg_size(cfg, seed, base):
        if cfg.batch_size == 1:  # every neg-size variant, none of train-size
            raise NumericError("loss diverged")
        return real(cfg, seed, base)

    monkeypatch.setattr(cli_mod, "run_training", fail_on_neg_size)
    pairs = perf_pairs(tmp_path)
    with pytest.raises(NumericError,
                       match="^perf neg-size 8 failed: loss diverged$"):
        cmd_perf_sweep(pairs)
    # no partial timing table or fit
    assert list((tmp_path / "p").iterdir()) == []
    assert main(["perf-sweep", "--config", write_cfg(tmp_path, pairs)]) == 2
    assert "error: perf neg-size 8 failed: loss diverged\n" \
        in capsys.readouterr().err


def test_cmd_perf_sweep_checks_every_variant_before_round_one(tmp_path,
                                                             monkeypatch):
    # a 32-row train-size variant cannot hold the default 32 negatives: it
    # is refused by field before any variant trains or the output directory
    # is made. The config's own n_labeled, which every variant sets anew,
    # is not checked
    calls = []
    monkeypatch.setattr(cli_mod, "run_training",
                        lambda *args: calls.append(args))
    pairs = dict(perf_pairs(tmp_path), perf_train_sizes="64,32",
                 n_labeled="500")
    with pytest.raises(ConfigError, match=re.escape(
            "perf train-size 32 failed: config field 'neg_size': must be "
            "<= 31 for this dataset of 32 rows, got 32")):
        cmd_perf_sweep(pairs)
    assert calls == []
    assert not (tmp_path / "p").exists()


def test_cmd_perf_sweep_validates_sizes(tmp_path):
    pairs = {"synthetic": "cluster", "n_samples": "200",
             "out_dir": str(tmp_path / "p2"), "perf_train_sizes": "8,64"}
    with pytest.raises(ConfigError, match="perf_train_sizes"):
        cmd_perf_sweep(pairs)
    pairs = {"synthetic": "cluster", "n_samples": "100", "n_features": "8",
             "n_classes": "3", "out_dir": str(tmp_path / "p2"),
             "perf_train_sizes": "64,128"}
    with pytest.raises(ConfigError, match="n_samples"):
        cmd_perf_sweep(pairs)


def test_cmd_perf_sweep_checks_the_rows_of_the_one_dataset_it_builds(
        tmp_path, monkeypatch):
    # the base dataset is built once, synthetic or read from a manifest, and
    # too few rows fail by name before the output directory is made; a
    # synthetic family has exactly n_samples rows
    built = []
    real = cli_mod.build_dataset

    def spy(cfg):
        built.append(cfg.manifest or cfg.synthetic)
        return real(cfg)

    monkeypatch.setattr(cli_mod, "build_dataset", spy)
    pairs = {"synthetic": "cluster", "n_samples": "200",
             "out_dir": str(tmp_path / "p")}
    with pytest.raises(ConfigError, match="^config field 'n_samples': the "
                       "sweep needs at least 2048 rows, the dataset has 200$"):
        cmd_perf_sweep(pairs)
    assert built == ["cluster"] and not (tmp_path / "p").exists()
    manifest = tmp_path / "data.manifest"
    rng = make_rng(0)
    save_csv(tmp_path / "x.csv", rng.normal(size=(40, 3)))
    save_csv(tmp_path / "y.csv", np.eye(2)[np.arange(40) % 2])
    save_manifest(manifest, ["x.csv"], "y.csv", 2)
    with pytest.raises(ConfigError, match="needs at least 2048 rows, the "
                       "dataset has 40$"):
        cmd_perf_sweep({"manifest": str(manifest),
                        "out_dir": str(tmp_path / "m")})
    assert built == ["cluster", str(manifest)]
    assert not (tmp_path / "m").exists()


# ---------------------------------------------------------------------------
# main


def test_main_train_and_eval_paths(tmp_path, capsys):
    cfg = write_cfg(tmp_path, small_pairs(tmp_path, seeds="0"))
    assert main(["train", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "run-hcl-seed0" in out and "mean f1" in out
    ckpt = str(tmp_path / "out" / "run-hcl-seed0.ckpt")
    assert main(["eval", "--checkpoint", ckpt]) == 0


def test_main_flag_overrides(tmp_path):
    cfg = write_cfg(tmp_path, small_pairs(tmp_path, seeds="0"))
    flagged = tmp_path / "flagged"
    assert main(["train", "--config", cfg, "--method", "dnn",
                 "--seed", "2", "--epochs", "2", "--neg-size", "full",
                 "--alpha", "0.9", "--beta", "0.2",
                 "--out", str(flagged)]) == 0
    # the run files land in the --out directory, not the config's out_dir
    assert not (tmp_path / "out").exists()
    assert {p.name for p in flagged.iterdir()} == {
        "run-dnn-seed2.json", "run-dnn-seed2.ckpt", "metrics-dnn.csv"}
    body = json.loads((flagged / "run-dnn-seed2.json").read_text())
    assert len(body["trace"]) == 2
    # dnn coupling forces the overridden weights back to zero
    assert float(body["config"]["alpha"]) == 0.0


@pytest.mark.parametrize("command", ["train", "noise-sweep"])
def test_main_non_finite_objective_fails_by_name(tmp_path, capsys, command):
    # each weight is finite and legal, but alpha*l_u overflows; LARS is
    # scale-free, so only the objective itself shows it
    pairs = small_pairs(tmp_path, sub="inf", method="hcl", alpha="1e308",
                        beta="1e308", epochs=1, seeds="0", methods="hcl",
                        noise_levels="0")
    assert main([command, "--config", write_cfg(tmp_path, pairs)]) == 2
    err = capsys.readouterr().err
    assert "seed 0 failed: objective j" in err
    assert "alpha=1e+308, beta=1e+308" in err
    assert not list((tmp_path / "inf").glob("*.json"))


def test_main_writes_undefined_auc_as_null(tmp_path):
    # seed 1's eval rows leave a label without both classes: its AUC is
    # undefined and both the run record and the eval file write it as null
    pairs = {"synthetic": "scene-like", "n_samples": "40", "n_classes": "3",
             "n_labeled": "20", "seeds": "0,1", "method": "dnn",
             "epochs": "2", "out_dir": str(tmp_path / "out")}
    assert main(["train", "--config", write_cfg(tmp_path, pairs)]) == 0
    out = tmp_path / "out"
    assert main(["eval", "--checkpoint", str(out / "run-dnn-seed1.ckpt")]) == 0
    per_label = read_strict_json(out / "run-dnn-seed1.json")["report"]["per_label"]
    assert None in per_label
    assert read_strict_json(out / "eval-run-dnn-seed1.json")["per_label"] == per_label


@pytest.mark.parametrize("command", ["train", "noise-sweep", "bound-check",
                                     "perf-sweep"])
def test_main_out_dir_naming_a_file_fails_by_name(tmp_path, capsys, command):
    # an out_dir that names an existing file is refused by name with exit
    # 2, not a traceback, before anything trains
    taken = tmp_path / "taken"
    taken.write_text("")
    pairs = perf_pairs(tmp_path) if command == "perf-sweep" \
        else small_pairs(tmp_path)
    pairs["out_dir"] = str(taken)
    assert main([command, "--config", write_cfg(tmp_path, pairs)]) == 2
    captured = capsys.readouterr()
    assert captured.err == ("error: config field 'out_dir': cannot create "
                            f"{str(taken)!r}: File exists\n")
    assert captured.out == ""


def test_main_eval_out_naming_a_file_fails_by_name(tmp_path, capsys):
    cfg = write_cfg(tmp_path, small_pairs(tmp_path, seeds="0"))
    assert main(["train", "--config", cfg]) == 0
    taken = tmp_path / "taken"
    taken.write_text("")
    capsys.readouterr()
    ckpt = str(tmp_path / "out" / "run-hcl-seed0.ckpt")
    assert main(["eval", "--checkpoint", ckpt, "--out", str(taken)]) == 2
    assert capsys.readouterr().err == (
        f"error: --out: cannot create {str(taken)!r}: File exists\n")


@pytest.mark.parametrize("leaf, reason", [
    pytest.param("taken/sub", "Not a directory", id="file-child"),
    pytest.param("nul\0byte", "embedded null byte", id="nul-byte"),
])
def test_cmd_train_out_dir_that_cannot_be_made_is_named(tmp_path, leaf,
                                                        reason):
    (tmp_path / "taken").write_text("")
    path = f"{tmp_path}/{leaf}"
    with pytest.raises(ConfigError, match="^config field 'out_dir': cannot "
                       f"create .*: {reason}$"):
        cmd_train(small_pairs(tmp_path, out_dir=path))


def test_main_train_write_that_fails_is_named(tmp_path, capsys):
    # a directory where seed 0's run record goes: the record's write fails
    # after the seed's checkpoint is written, by name with exit 2; neither
    # a temp file nor the checkpoint without its record is left
    out = tmp_path / "out"
    taken = out / "run-hcl-seed0.json"
    taken.mkdir(parents=True)
    cfg = write_cfg(tmp_path, small_pairs(tmp_path, seeds="0"))
    assert main(["train", "--config", cfg]) == 2
    assert capsys.readouterr().err == (
        f"error: seed 0 failed: cannot write {taken}: Is a directory\n")
    assert [p.name for p in out.iterdir()] == ["run-hcl-seed0.json"]
    assert not any(taken.iterdir())


def _files(out):
    """Each file's bytes with its timings set to 0, the one thing two runs
    of one config need not share: a run record's ``wall_seconds`` and each
    ``perf.csv`` row's seconds."""
    def untimed(data):
        data = re.sub(rb'"wall_seconds": [^,\n]+', b'"wall_seconds": 0', data)
        return re.sub(rb"(?m)^((?:train|neg)-size,\d+),.*$", rb"\1,0", data)
    return {p.name: untimed(p.read_bytes()) for p in sorted(out.iterdir())}


def test_main_train_write_that_fails_keeps_the_seeds_before_it(
        tmp_path, monkeypatch, capsys):
    # the k-th of a 2-seed train's renames fails, for every k: checkpoint
    # and record of seed 0, of seed 1, then the metric CSV. Each time the
    # command exits 2 with one error line naming the file (and, from seed
    # 1 on, the seed and what was kept), leaves no temp file and no
    # checkpoint whose record failed, and every file written before the
    # fault and kept is byte-equal to a clean run's (but for the records'
    # timings)
    cfg = write_cfg(tmp_path, small_pairs(tmp_path))
    out = tmp_path / "out"
    real_replace, targets = os.replace, []

    def recording(src, dst):
        targets.append(str(dst))
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", recording)
    assert main(["train", "--config", cfg]) == 0
    monkeypatch.setattr(os, "replace", real_replace)
    clean = _files(out)
    names = [os.path.basename(t) for t in targets]
    assert names == ["run-hcl-seed0.ckpt", "run-hcl-seed0.json",
                     "run-hcl-seed1.ckpt", "run-hcl-seed1.json",
                     "metrics-hcl.csv"]
    header, row0, _ = clean["metrics-hcl.csv"].decode().splitlines(True)
    for k in range(1, len(targets) + 1):
        shutil.rmtree(out)
        calls = []

        def failing(src, dst):
            calls.append(dst)
            if len(calls) == k:
                raise OSError(errno.EIO, "injected fault")
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", failing)
        capsys.readouterr()
        assert main(["train", "--config", cfg]) == 2
        monkeypatch.setattr(os, "replace", real_replace)
        fault = f"cannot write {targets[k - 1]}: injected fault"
        if k <= 2:
            want = f"seed 0 failed: {fault}"
        elif k <= 4:
            want = (f"seed 1 failed: {fault} (1 finished seed(s) written "
                    "to metrics-hcl.csv)")
        else:
            want = fault
        assert capsys.readouterr().err == f"error: {want}\n"
        got = _files(out)
        assert not [name for name in got if name.endswith(".tmp")]
        before = names[:k - 1]
        if k in (2, 4):
            before = before[:-1]  # the failed seed's checkpoint is removed
        for name in before:
            assert got[name] == clean[name], (k, name)
        kept = {"metrics-hcl.csv": (header + row0).encode()} \
            if 2 < k <= 4 else {}
        assert got == {**{name: clean[name] for name in before}, **kept}


def _fault_argv(tmp_path, command):
    """The command line of a small ``command`` run that writes to
    ``tmp_path / "out"``; ``eval`` first trains the checkpoint it reads."""
    out = str(tmp_path / "out")
    if command == "eval":
        pairs = small_pairs(tmp_path, sub="trained", seeds="0")
        assert main(["train", "--config", write_cfg(tmp_path, pairs)]) == 0
        ckpt = str(tmp_path / "trained" / "run-hcl-seed0.ckpt")
        return ["eval", "--checkpoint", ckpt, "--out", out]
    pairs = {
        "noise-sweep": small_pairs(tmp_path, epochs=2, noise_levels="0,1",
                                   methods="hcl-u@single-view,hcl-u@two-view"),
        "bound-check": {"synthetic": "multiview", "out_dir": out,
                        "bound_sizes": "6", "bound_epochs": "5",
                        "seeds": "0,1"},
        "perf-sweep": dict(perf_pairs(tmp_path), out_dir=out),
    }[command]
    return [command, "--config", write_cfg(tmp_path, pairs)]


@pytest.mark.parametrize("command, names", [
    ("noise-sweep", ["noise_sweep.csv", "noise_summary.csv"]),
    ("eval", ["eval-run-hcl-seed0.json"]),
    ("bound-check", ["bounds-unsup.csv"]),
    ("perf-sweep", ["perf.csv", "perf_fits.json"]),
])
def test_main_write_that_fails_ends_the_command_by_name(
        tmp_path, monkeypatch, capsys, command, names):
    # the k-th of the command's renames fails, for every k. Each time the
    # command exits 2 with one error line naming the file, leaves no temp
    # file, and has written exactly the files before the fault, byte-equal
    # to a clean run's (but for perf-sweep's timings): the first failed
    # write ends the command, and no later output is written
    argv = _fault_argv(tmp_path, command)
    out = tmp_path / "out"
    real_replace, targets = os.replace, []

    def recording(src, dst):
        targets.append(str(dst))
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", recording)
    assert main(argv) == 0
    monkeypatch.setattr(os, "replace", real_replace)
    clean = _files(out)
    assert [os.path.basename(t) for t in targets] == names
    for k in range(1, len(targets) + 1):
        shutil.rmtree(out)
        calls = []

        def failing(src, dst):
            calls.append(dst)
            if len(calls) == k:
                raise OSError(errno.EIO, "injected fault")
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", failing)
        capsys.readouterr()
        assert main(argv) == 2
        monkeypatch.setattr(os, "replace", real_replace)
        assert capsys.readouterr().err == (
            f"error: cannot write {targets[k - 1]}: injected fault\n")
        got = _files(out) if out.exists() else {}
        assert not [name for name in got if name.endswith(".tmp")]
        assert got == {name: clean[name] for name in names[:k - 1]}, k


def test_main_sweep_flags_reach_every_cell(tmp_path, monkeypatch):
    # a command-line flag overrides the config file in every cell of a
    # sweep; perf-sweep's variants still set their own epochs, neg_size
    # and seeds over the flags
    real, seen = cli_mod.run_training, []

    def record(cfg, seed, base, **memo):
        seen.append(cfg)
        return real(cfg, seed, base, **memo)

    monkeypatch.setattr(cli_mod, "run_training", record)
    pairs = small_pairs(tmp_path, sub="n", noise_levels="0,1",
                        methods="hcl-u@single-view,hcl-s@two-view")
    assert main(["noise-sweep", "--config", write_cfg(tmp_path, pairs),
                 "--epochs", "1"]) == 0
    assert len(seen) == 2 * 2 * 2
    assert all(cfg.epochs == 1 for cfg in seen)
    seen.clear()
    assert main(["perf-sweep", "--config",
                 write_cfg(tmp_path, perf_pairs(tmp_path)), "--alpha", "0.5",
                 "--epochs", "7", "--neg-size", "5", "--seed", "3"]) == 0
    assert len(seen) == 6 * 3
    assert all(cfg.alpha == 0.5 for cfg in seen)
    # perf_epochs for train-size, ten times it for neg-size
    assert {cfg.epochs for cfg in seen} == {1, 10}
    assert {cfg.neg_size for cfg in seen} == {32, 8, 16, 24}
    assert all(cfg.seeds == [0] for cfg in seen)


def test_main_parses_each_command_line_on_its_own(tmp_path, monkeypatch):
    # one process, one parser (built once), many command lines: each call
    # sees only its own subcommand and flags
    seen = []
    for name in ("cmd_train", "cmd_noise_sweep", "cmd_bound_check",
                 "cmd_perf_sweep"):
        monkeypatch.setattr(cli_mod, name,
                            lambda pairs, overrides, name=name:
                            seen.append((name, pairs, overrides)))
    monkeypatch.setattr(cli_mod, "cmd_eval",
                        lambda checkpoint, data, out_dir:
                        seen.append(("cmd_eval", checkpoint, data, out_dir)))
    cfg = write_cfg(tmp_path, {"epochs": "2"})
    pairs = {"epochs": "2"}
    assert cli_mod._build_parser() is cli_mod._build_parser()
    assert main(["train", "--config", cfg, "--seed", "3", "--epochs", "5"]) == 0
    assert main(["noise-sweep", "--config", cfg]) == 0
    assert main(["eval", "--checkpoint", "a.ckpt", "--data", "m.txt"]) == 0
    with pytest.raises(SystemExit):
        main(["train", "--seed", "4"])  # no --config: argparse refuses it
    assert main(["eval", "--checkpoint", "b.ckpt"]) == 0
    assert main(["train", "--config", cfg, "--method", "dnn"]) == 0
    assert main(["bound-check", "--config", cfg, "--out", "x"]) == 0
    assert main(["perf-sweep", "--config", cfg]) == 0
    assert seen == [
        ("cmd_train", pairs, {"seeds": "3", "epochs": "5"}),
        ("cmd_noise_sweep", pairs, {}),
        ("cmd_eval", "a.ckpt", "m.txt", None),
        ("cmd_eval", "b.ckpt", None, None),
        ("cmd_train", pairs, {"method": "dnn"}),
        ("cmd_bound_check", pairs, {"out_dir": "x"}),
        ("cmd_perf_sweep", pairs, {}),
    ]


def test_main_error_exit_code(tmp_path, capsys):
    missing = str(tmp_path / "nope.cfg")
    assert main(["train", "--config", missing]) == 2
    assert "error:" in capsys.readouterr().err


TINY_TAU = math.nextafter(1 / sys.float_info.max, 1.0)


def _fuzz_pairs(rng, out_dir) -> dict[str, str]:
    """One tiny random config: legal or not, it must train or fail by name.
    The numeric fields reach the edges of what the parser accepts."""
    n = int(rng.integers(6, 40))
    pick = lambda *options: str(options[int(rng.integers(len(options)))])

    def spread(lo, hi, *edges):
        # half the draws at an edge or a usual value, half log-uniform in
        # [10**lo, 10**hi]
        if rng.random() < 0.5:
            return pick(*edges)
        return repr(10.0 ** float(rng.uniform(lo, hi)))

    mode = pick("single-view", "two-view")
    # augmentations mostly where they are legal, so most configs train
    augs = ("none", "mask:0.25", "noise:0.5") if mode == "two-view" \
        else ("none",) * 5 + ("mask:0.25",)
    return {
        "synthetic": pick("cluster", "multiview", "scene-like"),
        "n_samples": str(n), "n_features": str(int(rng.integers(1, 10))),
        "n_classes": str(int(rng.integers(2, 5))),
        "n_labeled": str(int(rng.integers(1, n + 1))),
        "data_seed": str(int(rng.integers(100))),
        "mode": mode,
        "method": pick("dnn", "simclr-style", "supcon-style", "hcl-u",
                       "hcl-s", "hcl"),
        "alpha": spread(-300, 308, 0, 0.5, 1, 1e308),
        "beta": spread(-300, 308, 0, 0.01, 1, 1e308),
        # 5e-324 has an infinite reciprocal and is refused; the next edge is
        # the smallest temperature with a finite one
        "temperature": spread(-323, 300, 5e-324, TINY_TAU, 1e-4, 0.05, 0.5,
                              2, 1e300),
        "batch_size": str(int(rng.integers(1, 13))),
        "neg_size": pick("full", int(rng.integers(1, n + 1))),
        "epochs": pick(1, 2), "seeds": pick("0", "3,4"),
        "encoder_sizes": pick("4", "5,3"),
        "classifier_activation": pick("sigmoid", "softmax"),
        "base_lr": spread(-300, 300, 0, 0.1, 1.0, 1e300),
        "trust_coeff": spread(-323, 300, 5e-324, 0.001, 1e300),
        "weight_decay": spread(-300, 300, 0, 0.01, 1e300),
        "momentum": pick(0, 0.9, 0.999999, float(rng.uniform(0.0, 0.999999))),
        "multiclass": pick("false", "true"),
        "view1_aug": pick(*augs), "view2_aug": pick(*augs),
        "out_dir": str(out_dir),
    }


def _finishes_or_fails_by_name(tmp_path, capsys, command, pairs, name):
    """Run one fuzzed config: it exits 0, or 2 with one named error line,
    and emits no warning; any other exception escapes ``main`` and fails
    the test."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main([command, "--config",
                     write_cfg(tmp_path, pairs, f"{name}.cfg")])
    assert [str(w.message) for w in caught] == [], pairs
    err = capsys.readouterr().err
    if code == 2:
        assert err.startswith("error:") and err.count("error:") == 1, \
            (pairs, err)
    assert code in (0, 2), pairs
    return code


def _assert_metric_cells_finite(out_dir, pairs):
    """Every number in every metric CSV a finished command wrote is finite."""
    tables = sorted(out_dir.glob("*.csv"))
    assert tables, pairs
    for path in tables:
        for row in list(csv.reader(path.read_text().splitlines()))[1:]:
            for cell in row:
                try:
                    value = float(cell)
                except ValueError:  # a method name
                    continue
                assert math.isfinite(value), (path.name, row, pairs)


def _symmetric_outcomes(monkeypatch):
    """Put every two-view full-complement batch of 4 or more rows per view
    through the kernel's symmetric branch, whose shipped bands need 128,
    and record per call whether it finished (True) or fell back (False)."""
    monkeypatch.setattr(losses_mod, "_SYM_BAND_ROWS", 4)
    return symmetric_branch_calls(monkeypatch)


def test_main_train_fuzz_finishes_or_fails_by_name(tmp_path, capsys, monkeypatch):
    # every config either trains to a finite trace in strict JSON and finite
    # metric cells (exit 0) or is refused with a named error (exit 2)
    # this seed's 120 configs include 14 that train, scene-like data among
    # them; most of the rest fail by name at an extreme value
    symmetric = _symmetric_outcomes(monkeypatch)
    rng = np.random.default_rng(9)
    outcomes = []
    for i in range(120):
        pairs = _fuzz_pairs(rng, tmp_path / f"f{i}")
        code = _finishes_or_fails_by_name(tmp_path, capsys, "train", pairs, f"f{i}")
        outcomes.append(code)
        if code == 2:
            continue
        records = sorted((tmp_path / f"f{i}").glob("run-*.json"))
        assert len(records) == len(pairs["seeds"].split(",")), pairs
        for path in records:
            trace = read_strict_json(path)["trace"]
            assert trace and all(np.isfinite(
                [e["l_c"], e["l_u"], e["l_s"], e["j"]]).all() for e in trace), pairs
        _assert_metric_cells_finite(tmp_path / f"f{i}", pairs)
    # both outcomes are exercised, and the symmetric branch both finishes
    # and hands calls back to the dense path
    assert 0 in outcomes and 2 in outcomes
    assert True in symmetric and False in symmetric


def test_main_sweep_fuzz_finishes_or_fails_by_name(tmp_path, capsys, monkeypatch):
    # the same contract for noise sweeps and bound checks; a finished run
    # writes its CSV with one row per cell
    _symmetric_outcomes(monkeypatch)
    rng = np.random.default_rng(11)
    pick = lambda *options: str(options[int(rng.integers(len(options)))])
    outcomes = []
    for i in range(36):
        # the sweep corrupts one view into two itself: single-view sources,
        # and no augmentations on top
        pairs = dict(_fuzz_pairs(rng, tmp_path / f"s{i}"),
                     synthetic=pick("cluster", "scene-like"),
                     view1_aug="none", view2_aug="none",
                     noise_levels=pick("0", "0,0.5", "1"),
                     methods=pick("hcl", "supcon-style,hcl-u@two-view",
                                  "hcl-s@two-view,dnn", "simclr-style"))
        code = _finishes_or_fails_by_name(tmp_path, capsys, "noise-sweep",
                                          pairs, f"s{i}")
        outcomes.append(code)
        if code == 0:
            rows = (tmp_path / f"s{i}" / "noise_sweep.csv").read_text()
            cells = (len(pairs["noise_levels"].split(","))
                     * len(pairs["methods"].split(","))
                     * len(pairs["seeds"].split(",")))
            assert rows.count("\n") == 1 + cells, pairs
            _assert_metric_cells_finite(tmp_path / f"s{i}", pairs)
    for i in range(16):
        pairs = {"synthetic": "cluster", "out_dir": str(tmp_path / f"b{i}"),
                 "bound_kind": pick("unsup", "sup"),
                 "bound_sizes": pick("0", "1", "2,4", "6"),
                 "bound_epochs": pick(0, 1, 3),
                 "bound_temperature": pick("", 1e-4, 0.5, 1e3),
                 "bound_tolerance": pick(0.05, 1e-9),
                 "seeds": pick("0", "1,2")}
        code = _finishes_or_fails_by_name(tmp_path, capsys, "bound-check",
                                          pairs, f"b{i}")
        outcomes.append(code)
        if code == 0:
            assert (tmp_path / f"b{i}" / f"bounds-{pairs['bound_kind']}.csv"
                    ).is_file(), pairs
    assert 0 in outcomes and 2 in outcomes


def _stack(**weight) -> dict:
    """One 1 -> 1 checkpoint layer of zeros, with ``weight`` fields replaced."""
    zero = "AAAAAAAAAAA="  # base64 of one little-endian 0.0
    return {"output_activation": "identity",
            "weights": [dict({"shape": [1, 1], "data": zero}, **weight)],
            "biases": [{"shape": [1], "data": zero}]}


def _checkpoint_text(**entries) -> str:
    doc = {"format": "hcl-checkpoint", "version": 1, "encoder1": _stack(),
           "classifier": _stack(), "encoder2": None, **entries}
    return json.dumps(doc)


@pytest.mark.parametrize("content, message", [
    (None, "cannot read checkpoint"),
    ('{"format": "hcl-checkpoint", "vers', "not valid checkpoint JSON"),
    ("[" * 100_000, "not valid checkpoint JSON"),
    ('{"format": "hcl-checkpoint", "version": 1}', "no 'encoder1' entry"),
    (_checkpoint_text(encoder1="x"), "malformed checkpoint entry"),
    (_checkpoint_text(classifier=[1, 2]), "malformed checkpoint entry"),
    (_checkpoint_text(encoder1=_stack(data="A")),
     "malformed checkpoint entry"),
    (_checkpoint_text(classifier=_stack(shape=[2, 2])),
     "malformed checkpoint entry"),
    # one little-endian NaN
    (_checkpoint_text(classifier=_stack(data="AAAAAAAA+H8=")),
     "checkpoint parameter cls.w0 holds non-finite values"),
    (_checkpoint_text(extra="config seed"), "has no embedded run config"),
    (_checkpoint_text(extra={"config": 5, "seed": 0}),
     "embedded run config must map field names to text"),
    (_checkpoint_text(extra={"config": {"synthetic": None}, "seed": 0}),
     "embedded run config must map field names to text"),
    (_checkpoint_text(extra={"config": {"epochs": 3}, "seed": 0}),
     "embedded run config must map field names to text"),
    (_checkpoint_text(extra={"config": {}, "seed": "x"}),
     "embedded seed must be a non-negative integer"),
    (_checkpoint_text(extra={"config": {}, "seed": -1}),
     "embedded seed must be a non-negative integer"),
], ids=["missing", "truncated", "too-deep", "incomplete", "wrong-type", "list-entry",
        "bad-base64", "wrong-shape", "non-finite", "extra-text",
        "config-number", "config-null-value", "config-number-value",
        "seed-text", "seed-negative"])
def test_main_eval_bad_checkpoint_named(tmp_path, capsys, content, message):
    path = tmp_path / "run.ckpt"
    if content is not None:
        path.write_text(content, encoding="utf-8")
    assert main(["eval", "--checkpoint", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err


@pytest.mark.parametrize("view1, labels, not_utf8, message", [
    ("nope.csv", "y.csv", None, "cannot read data file"),
    ("x.csv", "nope.csv", None, "cannot read data file"),
    ("sub", "y.csv", None, "cannot read data file"),
    ("x.csv", "y.csv", "x.csv", "cannot read data file"),
    ("x.csv", "y.csv", "m.manifest", "cannot read manifest"),
    ("x.csv", "y.csv", "run.cfg", "cannot read config file"),
], ids=["missing-view", "missing-labels", "directory-view", "view-not-utf8",
        "manifest-not-utf8", "config-not-utf8"])
def test_main_train_unreadable_input_named(tmp_path, capsys, view1, labels,
                                           not_utf8, message):
    save_csv(str(tmp_path / "x.csv"), np.eye(4))
    save_csv(str(tmp_path / "y.csv"), np.eye(4)[:, :2])
    (tmp_path / "sub").mkdir()
    save_manifest(str(tmp_path / "m.manifest"), view1, labels, 2)
    cfg = write_cfg(tmp_path, small_pairs(
        tmp_path, synthetic="", manifest=str(tmp_path / "m.manifest")))
    if not_utf8:
        path = tmp_path / not_utf8
        path.write_bytes(path.read_bytes() + "# caf\xe9\n".encode("latin-1"))
    assert main(["train", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err


def test_main_unknown_config_field(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text("synthetic = cluster\nlearning_rate = 1\n")
    assert main(["train", "--config", str(path)]) == 2
    assert "unknown config field" in capsys.readouterr().err


@pytest.mark.parametrize("text, message", [
    ("synthetic = cluster\n = 1\n", "bad.cfg:2: empty key"),
    ("epochs = 2\n# a comment\nepochs = 3\n",
     "bad.cfg:3: duplicate key 'epochs'"),
], ids=["empty-key", "duplicate-key"])
def test_main_malformed_config_file_names_the_line(tmp_path, capsys, text,
                                                   message):
    path = tmp_path / "bad.cfg"
    path.write_text(text)
    assert main(["train", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err


def test_main_bound_check_path(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {
        "synthetic": "multiview", "out_dir": str(tmp_path / "b"),
        "bound_sizes": "6", "bound_epochs": "5", "seeds": "0",
    })
    assert main(["bound-check", "--config", cfg]) == 0
    assert "bound-check unsup" in capsys.readouterr().out


def test_main_bound_check_rejects_small_batch_with_beta(tmp_path, capsys):
    # resolve_config's cross-field rules apply to every command, including
    # bound-check, which never reads batch_size
    cfg = write_cfg(tmp_path, {
        "synthetic": "multiview", "out_dir": str(tmp_path / "b"),
        "batch_size": "2", "beta": "0.5",
    })
    assert main(["bound-check", "--config", cfg]) == 2
    assert "config field 'batch_size'" in capsys.readouterr().err
