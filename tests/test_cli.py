"""CLI commands: artifacts, replays, sweeps, arg parsing, exit codes."""

import csv
import json
import os

import numpy as np
import pytest

from hcl.cli import (
    cmd_bound_check,
    cmd_eval,
    cmd_noise_sweep,
    cmd_perf_sweep,
    cmd_train,
    main,
)
from hcl.config import resolve_config
from hcl.data import save_csv, save_manifest
from hcl.errors import ConfigError, ContractError
from hcl.model import init_params, save_checkpoint
from hcl.numeric import make_rng
from hcl.train import build_dataset

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
    csv_text = (out / "metrics-hcl.csv").read_text()
    assert csv_text.startswith("method,seed,f1,auc,n_eval\n")
    assert csv_text.count("\n") == 3


def test_cmd_train_metric_csv_byte_identical_across_reruns(tmp_path):
    cmd_train(small_pairs(tmp_path, sub="a"))
    cmd_train(small_pairs(tmp_path, sub="b"))
    a = (tmp_path / "a" / "metrics-hcl.csv").read_bytes()
    b = (tmp_path / "b" / "metrics-hcl.csv").read_bytes()
    assert a == b


def test_cmd_train_overrides_apply(tmp_path):
    records = cmd_train(small_pairs(tmp_path),
                        {"method": "dnn", "seeds": "4"})
    assert len(records) == 1 and records[0].seed == 4
    assert (tmp_path / "out" / "metrics-dnn.csv").is_file()


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
    params = init_params(make_rng(0), [8, 6, 4], [4, 3])
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


def test_cmd_noise_sweep_deterministic(tmp_path):
    pairs = small_pairs(tmp_path, sub="n3", epochs=2, seeds="0",
                        noise_levels="0.5", methods="hcl-u")
    assert cmd_noise_sweep(pairs) == cmd_noise_sweep(pairs)


# ---------------------------------------------------------------------------
# perf-sweep


def test_cmd_perf_sweep_outputs(tmp_path):
    pairs = {
        "synthetic": "cluster", "n_samples": "200", "n_features": "8",
        "n_classes": "3", "out_dir": str(tmp_path / "p"),
        "perf_train_sizes": "64,96,128", "perf_neg_sizes": "8,16,24",
        "perf_epochs": "1", "encoder_sizes": "8,6",
    }
    fits = cmd_perf_sweep(pairs)
    assert set(fits) == {"train_size", "neg_size"}
    assert len(fits["train_size"]["coefficients"]) == 2
    assert len(fits["neg_size"]["coefficients"]) == 3
    text = (tmp_path / "p" / "perf.csv").read_text()
    rows = list(csv.DictReader(text.splitlines()))
    assert len(rows) == 6
    saved = json.loads((tmp_path / "p" / "perf_fits.json").read_text())
    assert saved["train_size"]["r_squared"] == fits["train_size"]["r_squared"]


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
    assert main(["train", "--config", cfg, "--method", "dnn",
                 "--seed", "2", "--epochs", "2", "--neg-size", "full",
                 "--alpha", "0.9", "--beta", "0.2"]) == 0
    body = json.loads((tmp_path / "out" / "run-dnn-seed2.json").read_text())
    assert len(body["trace"]) == 2
    # dnn coupling forces the overridden weights back to zero
    assert float(body["config"]["alpha"]) == 0.0


def test_main_error_exit_code(tmp_path, capsys):
    missing = str(tmp_path / "nope.cfg")
    assert main(["train", "--config", missing]) == 2
    assert "error:" in capsys.readouterr().err


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
    ('{"format": "hcl-checkpoint", "version": 1}', "no 'encoder1' entry"),
    (_checkpoint_text(encoder1="x"), "malformed checkpoint entry"),
    (_checkpoint_text(classifier=[1, 2]), "malformed checkpoint entry"),
    (_checkpoint_text(encoder1=_stack(data="A")),
     "malformed checkpoint entry"),
    (_checkpoint_text(classifier=_stack(shape=[2, 2])),
     "malformed checkpoint entry"),
], ids=["missing", "truncated", "incomplete", "wrong-type", "list-entry",
        "bad-base64", "wrong-shape"])
def test_main_eval_bad_checkpoint_named(tmp_path, capsys, content, message):
    path = tmp_path / "run.ckpt"
    if content is not None:
        path.write_text(content, encoding="utf-8")
    assert main(["eval", "--checkpoint", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err


def test_main_unknown_config_field(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text("synthetic = cluster\nlearning_rate = 1\n")
    assert main(["train", "--config", str(path)]) == 2
    assert "unknown config field" in capsys.readouterr().err


def test_main_bound_check_path(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {
        "synthetic": "multiview", "out_dir": str(tmp_path / "b"),
        "bound_sizes": "6", "bound_epochs": "5", "seeds": "0",
    })
    assert main(["bound-check", "--config", cfg]) == 0
    assert "bound-check unsup" in capsys.readouterr().out
