"""Config resolution: defaults, validation, method coupling, snapshots."""

import pytest

from hcl.config import (
    DEFAULTS,
    METHODS,
    config_for_seed,
    load_pairs,
    resolve_config,
)
from hcl.errors import ConfigError

BASE = {"synthetic": "cluster"}


def resolve(**overrides):
    pairs = dict(BASE)
    pairs.update({k: str(v) for k, v in overrides.items()})
    return resolve_config(pairs)


# ---------------------------------------------------------------------------
# Defaults and basic typing


def test_defaults_resolve():
    cfg = resolve()
    assert cfg.synthetic == "cluster" and cfg.manifest == ""
    assert cfg.mode == "single-view" and cfg.method == "hcl"
    assert cfg.alpha == 0.2 and cfg.beta == 0.01
    assert cfg.temperature == 0.5 and cfg.neg_size == "full"
    assert cfg.seeds == [0, 1, 2, 3, 4]
    assert cfg.encoder_sizes == [32, 16]
    assert cfg.multiclass is False
    assert cfg.bound_temperature is None
    assert cfg.noise_levels == [0.0, 0.25, 0.5, 0.75, 1.0]


def test_every_default_key_parses():
    # the schema must agree with its own defaults
    cfg = resolve()
    assert set(cfg.snapshot) == set(DEFAULTS)


def test_unknown_keys_rejected():
    with pytest.raises(ConfigError, match="unknown config field 'negsize'"):
        resolve_config({"synthetic": "cluster", "negsize": "4"})
    with pytest.raises(ConfigError, match="unknown config field 'lr'"):
        resolve_config(BASE, {"lr": "0.1"})


def test_overrides_win_over_pairs():
    cfg = resolve_config({"synthetic": "cluster", "epochs": "5"},
                         {"epochs": "9"})
    assert cfg.epochs == 9


# ---------------------------------------------------------------------------
# Data source


def test_exactly_one_source_required():
    with pytest.raises(ConfigError, match="'manifest' or 'synthetic'"):
        resolve_config({})
    with pytest.raises(ConfigError, match="'manifest' or 'synthetic'"):
        resolve_config({"manifest": "x.cfg", "synthetic": "cluster"})


def test_manifest_must_exist(tmp_path):
    with pytest.raises(ConfigError, match="file not found"):
        resolve_config({"manifest": str(tmp_path / "nope.manifest")})


def test_synthetic_family_validated():
    with pytest.raises(ConfigError, match="config field 'synthetic'"):
        resolve(synthetic="blobs")


# ---------------------------------------------------------------------------
# Mode, method, and coupling


def test_mode_and_method_enums():
    with pytest.raises(ConfigError, match="config field 'mode'"):
        resolve(mode="three-view")
    with pytest.raises(ConfigError, match="config field 'method'"):
        resolve(method="cpc")


def test_simclr_style_needs_two_view():
    with pytest.raises(ConfigError, match="simclr-style needs mode"):
        resolve(method="simclr-style")
    cfg = resolve(method="simclr-style", mode="two-view")
    assert cfg.alpha == 0.2 and cfg.beta == 0.0


@pytest.mark.parametrize("method,alpha,beta", [
    ("dnn", 0.0, 0.0),
    ("hcl-u", 0.7, 0.0),
    ("hcl-s", 0.0, 0.3),
    ("supcon-style", 0.0, 0.3),
    ("hcl", 0.7, 0.3),
])
def test_method_coupling_forces_weights(method, alpha, beta):
    cfg = resolve(method=method, alpha="0.7", beta="0.3",
                  mode="two-view")
    assert (cfg.alpha, cfg.beta) == (alpha, beta)
    # the snapshot stores the forced values, not the raw ones
    assert float(cfg.snapshot["alpha"]) == alpha
    assert float(cfg.snapshot["beta"]) == beta


# ---------------------------------------------------------------------------
# Field validation, each error naming its field


@pytest.mark.parametrize("key,value", [
    ("alpha", "-0.1"),
    ("beta", "-1"),
    ("temperature", "0"),
    ("threshold", "1.0"),
    ("threshold", "0"),
    ("neg_size", "0"),
    ("neg_size", "some"),
    ("momentum", "1.0"),
    ("momentum", "-0.1"),
    ("base_lr", "-1"),
    ("trust_coeff", "0"),
    ("weight_decay", "-0.5"),
    ("epochs", "0"),
    ("n_samples", "3"),
    ("n_samples", "5"),  # cluster data with the default 6 classes
    ("n_classes", "1"),
    ("seeds", "-1"),
    ("seeds", ""),
    ("encoder_sizes", "16,0"),
    ("classifier_activation", "tanh"),
    ("bound_kind", "both"),
    ("bound_tolerance", "0"),
    ("bound_temperature", "-2"),
    ("methods", "cpc"),
    ("methods", "hcl-u@dual"),
    ("noise_levels", "0,1.5"),
    ("multiclass", "maybe"),
    ("alpha", "much"),
    ("batch_size", "0"),
    ("alpha", "nan"),
    ("beta", "nan"),
    ("base_lr", "inf"),
    ("temperature", "inf"),
    ("temperature", "5e-324"),  # positive, but 1/temperature overflows
    ("bound_temperature", "5e-324"),
    ("bound_tolerance", "inf"),
    ("perf_train_sizes", "16"),
    ("batch_size", "2"),
    ("batch_size", "1"),
    ("n_labeled", "2"),
])
def test_invalid_field_raises_named_error(key, value):
    with pytest.raises(ConfigError, match=f"config field '{key}'"):
        resolve(**{key: value})


@pytest.mark.parametrize("key, least", [("n_samples", 24), ("n_features", 6)])
def test_scene_like_size_rule_raises_named_error(key, least):
    # checked before any data is drawn; the least size passes (with fewer
    # labeled rows than samples)
    with pytest.raises(ConfigError, match=f"config field '{key}'"):
        resolve(synthetic="scene-like", **{key: least - 1})
    resolve(synthetic="scene-like", n_labeled=20, **{key: least})


def test_small_batch_needs_supervised_term_off():
    # two rows can never hold two positives and a negative of one label
    with pytest.raises(ConfigError, match="config field 'batch_size'"):
        resolve(batch_size="2", beta="0.5", method="hcl")
    for method in ("dnn", "hcl-u", "simclr-style"):  # beta forced to 0
        cfg = resolve(batch_size="2", beta="0.5", method=method,
                      mode="two-view")
        assert cfg.batch_size == 2 and cfg.beta == 0.0
    assert resolve(batch_size="3", beta="0.5").batch_size == 3


def test_few_labeled_rows_need_supervised_term_off():
    # two labeled rows can never form a label group either
    with pytest.raises(ConfigError, match="config field 'n_labeled'"):
        resolve(n_labeled="2", beta="0.5", method="hcl-s")
    for method in ("dnn", "hcl-u"):  # beta forced to 0
        cfg = resolve(n_labeled="2", beta="0.5", method=method)
        assert cfg.n_labeled == 2 and cfg.beta == 0.0
    assert resolve(n_labeled="3", beta="0.5").n_labeled == 3


def test_neg_size_accepts_int_and_full():
    assert resolve(neg_size="7").neg_size == 7
    assert resolve(neg_size="full").neg_size == "full"


@pytest.mark.parametrize("key, value, again", [
    ("seeds", "0,0", "0"),
    ("seeds", "3,1,03", "3"),
    ("methods", "hcl-u,hcl-u", "'hcl-u'"),
    # one (method, mode) cell under two spellings at the default single-view
    ("methods", "hcl-u,hcl-u@single-view", "hcl-u@single-view"),
    ("noise_levels", "0,0.0", "0.0"),
    ("noise_levels", "0.5,1,.5", "0.5"),
    ("bound_sizes", "6,6", "6"),
    ("perf_train_sizes", "256,256", "256"),
    ("perf_neg_sizes", "64,128,64", "64"),
])
def test_duplicate_list_entries_rejected_by_name(key, value, again):
    # entries are compared as parsed values, so "0" and "0.0" are one level
    with pytest.raises(ConfigError,
                       match=f"config field '{key}': lists {again} more than once"):
        resolve(**{key: value})


def test_encoder_sizes_may_repeat():
    assert resolve(encoder_sizes="32,32").encoder_sizes == [32, 32]


def test_methods_mode_qualifier_parsed():
    cfg = resolve(methods="hcl-u@single-view, hcl-u@two-view ,hcl-s")
    assert cfg.methods == ["hcl-u@single-view", "hcl-u@two-view", "hcl-s"]


# ---------------------------------------------------------------------------
# Augmentations


def test_single_view_rejects_augmentations():
    with pytest.raises(ConfigError, match="config field 'view1_aug'"):
        resolve(view1_aug="mask:0.2")


def test_bad_augmentation_spec_named():
    with pytest.raises(ConfigError, match="config field 'view2_aug'"):
        resolve(mode="two-view", view2_aug="blur:0.2")


def test_augmentation_spec_case_insensitive():
    cfg = resolve(view1_aug=" NONE ", view2_aug="None")
    assert (cfg.view1_aug, cfg.view2_aug) == ("none", "none")
    cfg = resolve(mode="two-view", view1_aug="Mask:0.2")
    assert cfg.view1_aug == "mask:0.2"


def test_two_view_augmentations_accepted():
    cfg = resolve(mode="two-view", view1_aug="noise:0.3", view2_aug="mask:0.2")
    assert (cfg.view1_aug, cfg.view2_aug) == ("noise:0.3", "mask:0.2")


# ---------------------------------------------------------------------------
# Snapshot replay


def test_snapshot_replays_to_equal_config():
    cfg = resolve(method="hcl-u", alpha="0.9", temperature="0.1",
                  neg_size="33", seeds="7,8")
    replay = resolve_config(cfg.snapshot)
    assert replay == cfg


@pytest.mark.parametrize("method", METHODS)
def test_snapshot_replay_stable_for_every_method(method):
    mode = "two-view" if method == "simclr-style" else "single-view"
    cfg = resolve(method=method, mode=mode)
    assert resolve_config(cfg.snapshot) == cfg


def test_config_for_seed_pins_single_seed():
    cfg = resolve(seeds="3,4,5")
    snap = config_for_seed(cfg, 4)
    assert snap["seeds"] == "4"
    pinned = resolve_config(snap)
    assert pinned.seeds == [4]
    # the original is untouched
    assert cfg.snapshot["seeds"] == "3,4,5"


# ---------------------------------------------------------------------------
# File loading


def test_load_config_reads_kv_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("# comment\nsynthetic = cluster\nepochs = 7\n",
                    encoding="utf-8")
    cfg = resolve_config(load_pairs(str(path)), {"epochs": "11"})
    assert cfg.synthetic == "cluster" and cfg.epochs == 11


def test_load_config_missing_file():
    with pytest.raises(ConfigError, match="cannot read config file"):
        resolve_config(load_pairs("/definitely/not/here.cfg"))
