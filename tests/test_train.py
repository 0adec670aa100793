"""Training loop: determinism, method degenerations, records, and CSVs."""

import gc
import json
import pickle
import weakref
from dataclasses import replace

import numpy as np
import pytest

import hcl.train as train_mod
from hcl.config import config_for_seed, resolve_config
from hcl.data import BatchPlan, Dataset, inject_noise, sample_batch, split
from hcl.errors import (
    ConfigError,
    ContractError,
    DegenerateBatchError,
    NumericError,
)
from hcl.losses import (
    ContrastiveBatch,
    cross_entropy,
    unsup_loss_multiview,
    unsup_loss_single,
    weighted_sup_loss,
)
from hcl.model import (
    ModelParams,
    classify,
    encode,
    init_params,
    named_parameters,
)
from hcl.numeric import make_rng
from hcl.optimizer import OptimizerState
from hcl.train import (
    LabelHalves,
    PlanMemo,
    RunRecord,
    build_dataset,
    check_dataset,
    dataset_checksum,
    metrics_csv,
    replay_eval,
    run_cells,
    run_training,
    train_step,
)

from builders import (
    safe_model_instance,
    save_csv,
    save_manifest,
    symmetric_branch_calls,
)
from oracles import finite_diff_grad, rel_error

SMALL = {
    "synthetic": "cluster", "n_samples": "60", "n_features": "8",
    "n_classes": "3", "n_labeled": "15", "epochs": "4", "seeds": "0",
    "batch_size": "16", "neg_size": "8", "encoder_sizes": "8,6",
    "base_lr": "0.5",
}


def small_cfg(**over):
    return resolve_config(SMALL, {k: str(v) for k, v in over.items()})


def trace_rows(result):
    return [(b.l_c, b.l_u, b.l_s, b.j) for b in result.trace]


def run_bytes(result):
    """A run's parameters, trace and report, each as bytes."""
    report = result.report
    return ([(k, v.tobytes()) for k, v in named_parameters(result.params).items()],
            np.array(trace_rows(result)).tobytes(),
            np.array([report.f1, report.auc, report.n_eval,
                      *report.per_label]).tobytes())


# ---------------------------------------------------------------------------
# Dataset construction


def test_build_dataset_families():
    for family in ("cluster", "scene-like", "multiview"):
        cfg = small_cfg(synthetic=family, n_samples=64, n_features=10)
        ds = build_dataset(cfg)
        assert ds.n == 64
        assert ds.n_views == (2 if family == "multiview" else 1)


def test_build_dataset_fixed_by_data_seed():
    a = build_dataset(small_cfg())
    b = build_dataset(small_cfg())
    c = build_dataset(small_cfg(data_seed=1))
    assert dataset_checksum(a) == dataset_checksum(b)
    assert dataset_checksum(a) != dataset_checksum(c)


def test_build_dataset_from_manifest(tmp_path):
    ds = build_dataset(small_cfg())
    save_csv(str(tmp_path / "x.csv"), ds.views[0])
    save_csv(str(tmp_path / "y.csv"), ds.labels)
    save_manifest(str(tmp_path / "m.manifest"), str(tmp_path / "x.csv"),
                  str(tmp_path / "y.csv"), ds.c)
    cfg = small_cfg(synthetic="", manifest=str(tmp_path / "m.manifest"))
    loaded = build_dataset(cfg)
    assert dataset_checksum(loaded) == dataset_checksum(ds)


# ---------------------------------------------------------------------------
# Determinism


def test_same_config_same_seed_is_bitwise_identical():
    a = run_training(small_cfg(), 3)
    b = run_training(small_cfg(), 3)
    assert trace_rows(a) == trace_rows(b)
    assert a.report.f1 == b.report.f1 and a.report.auc == b.report.auc
    pa, pb = named_parameters(a.params), named_parameters(b.params)
    assert list(pa) == list(pb)
    for name in pa:
        assert np.array_equal(pa[name], pb[name])


def test_different_seeds_differ():
    a = run_training(small_cfg(), 0)
    b = run_training(small_cfg(), 1)
    assert trace_rows(a) != trace_rows(b)


# ---------------------------------------------------------------------------
# Batch-stream memo


def memo_dataset(n_labeled=10):
    return split(build_dataset(small_cfg()), n_labeled, make_rng(50))


def count_draws(monkeypatch):
    calls = []

    def spy(*args):
        calls.append(args)
        return sample_batch(*args)

    monkeypatch.setattr(train_mod, "sample_batch", spy)
    return calls


@pytest.mark.parametrize("neg_size", [8, "full"])
def test_plan_memo_replays_a_stream_it_drew(monkeypatch, neg_size):
    ds = memo_dataset()
    calls = count_draws(monkeypatch)
    memo, drawn = PlanMemo(), make_rng(51)
    direct = [sample_batch(ds, 4, neg_size, drawn) for _ in range(5)]
    first, again = make_rng(51), make_rng(51)
    plans = memo.stream(ds, 4, neg_size, 5, first)
    assert memo.stream(ds, 4, neg_size, 5, again) is plans
    assert len(calls) == 5
    for plan, want in zip(plans, direct, strict=True):
        for field in ("anchors", "labeled", "neg_mask"):
            assert np.array_equal(getattr(plan, field), getattr(want, field))
    # a replay leaves the rng where drawing the stream leaves it
    assert first.bit_generator.state == drawn.bit_generator.state
    assert again.bit_generator.state == drawn.bit_generator.state


def test_plan_memo_keys_on_every_input_of_the_sampler(monkeypatch):
    ds = memo_dataset()
    calls = count_draws(monkeypatch)
    memo = PlanMemo()
    memo.stream(ds, 4, 8, 3, make_rng(52))
    other_mask = memo_dataset(n_labeled=11)
    other_rows = replace(ds, views=[ds.views[0][:-1]], labels=ds.labels[:-1],
                         labeled_mask=ds.labeled_mask[:-1])
    rng = make_rng(52)
    rng.random()
    for args in [(ds, 4, 8, 3, make_rng(53)), (ds, 4, 8, 3, rng),
                 (other_mask, 4, 8, 3, make_rng(52)),
                 (other_rows, 4, 8, 3, make_rng(52)),
                 (ds, 5, 8, 3, make_rng(52)), (ds, 4, 7, 3, make_rng(52)),
                 (ds, 4, 8, 4, make_rng(52))]:
        before = len(calls)
        memo.stream(*args)
        assert len(calls) == before + args[3]
    # features and labels are not read: a relabelled copy replays
    relabelled = replace(ds, views=[-ds.views[0]], labels=1.0 - ds.labels)
    before = len(calls)
    memo.stream(relabelled, 4, 8, 3, make_rng(52))
    assert len(calls) == before


@pytest.mark.parametrize("neg_size", [8, "full"])
def test_plan_memo_hands_out_read_only_plans(neg_size):
    # 10 labeled anchors with 8 negatives each: a sampled mask
    plans = PlanMemo().stream(memo_dataset(), 10, neg_size, 3, make_rng(54))
    for plan in plans:
        # a full complement holds no mask, so no plan keeps an n x n of it
        assert (plan.neg_mask is None) == (neg_size == "full")
        for array in (plan.anchors, plan.labeled, plan.neg_mask):
            if array is not None:
                with pytest.raises(ValueError, match="read-only"):
                    array[0] = array[0]


def test_run_training_with_a_memo_equals_drawing(monkeypatch):
    cfg = small_cfg(batch_size=8)
    memo = PlanMemo()
    calls = count_draws(monkeypatch)
    plain = run_training(cfg, 3)
    steps = len(calls)
    assert steps == cfg.epochs * 2
    once = run_training(cfg, 3, memo=memo)
    replayed = run_training(cfg, 3, memo=memo)
    assert len(calls) == 2 * steps
    assert run_bytes(once) == run_bytes(plain) == run_bytes(replayed)


@pytest.mark.parametrize("neg_size", [4, "full"])
def test_plan_memo_replay_equals_drawing_on_either_mask(monkeypatch, neg_size):
    # a full-complement stream holds no mask at all; every run, drawn or
    # replayed, keeps the same bits
    cfg = small_cfg(method="hcl", neg_size=neg_size, batch_size=8)
    memo = PlanMemo()
    plain = run_training(cfg, 4)
    once = run_training(cfg, 4, memo=memo)
    replayed = run_training(cfg, 4, memo=memo)
    assert run_bytes(once) == run_bytes(plain) == run_bytes(replayed)
    masks = [plan.neg_mask for (plans, _) in memo._streams.values()
             for plan in plans]
    assert all((mask is None) == (neg_size == "full") for mask in masks)


def two_view_full_cfg(n_samples):
    """A two-view run on the full complement of n_samples >= 128 anchors
    with raw features of one width: the symmetric branch's batches."""
    return small_cfg(synthetic="multiview", mode="two-view", method="hcl",
                     n_samples=n_samples, neg_size="full", epochs=2)


def test_a_pickled_plan_trains_to_the_same_bits(monkeypatch):
    # the full complement is a value, so a plan that has been through
    # pickle, as a worker pool would send it, takes the kernel branch of
    # the original, the symmetric one, and trains to its bits
    taken = symmetric_branch_calls(monkeypatch)
    cfg = two_view_full_cfg(200)
    ds, rng = train_mod._run_split(cfg, 0, None)
    plan = sample_batch(ds, cfg.batch_size, cfg.neg_size, rng)
    sent = pickle.loads(pickle.dumps(plan))
    assert not any(array.flags.writeable for array in (
        sent.anchors, sent.labeled, sent.neg_mask) if array is not None)
    flats = []
    for p in (plan, sent):
        params = init_params(make_rng(1), [[8, 8, 6], [8, 8, 6]], [12, 3])
        state = OptimizerState(base_lr=0.5)
        for _ in range(2):
            train_step(params, state, ds, p, (1.0, 0.2, 0.01), 0.5)
        flats.append(params.flat)
    assert np.array_equal(*flats)
    assert taken == [True] * 4


def test_plan_memo_streams_two_anchor_counts_in_turn():
    # one memo serving runs of 200 and 150 anchors in turn: every run keeps
    # the bits of the same run drawing its own stream without a memo
    memo = PlanMemo()
    alone = {n: run_bytes(run_training(two_view_full_cfg(n), 2))
             for n in (200, 150)}
    for n in (200, 150, 200, 150):
        assert run_bytes(run_training(two_view_full_cfg(n), 2, memo=memo)) \
            == alone[n]
    assert len(memo._streams) == 2


def count_label_halves(monkeypatch):
    """Count the label halves the training loop makes."""
    made, real = [], train_mod.sup_labels

    def spy(y):
        made.append(len(y))
        return real(y)

    monkeypatch.setattr(train_mod, "sup_labels", spy)
    return made


@pytest.mark.parametrize("method, batch_size, over", [
    ("hcl", 16, {}),  # every batch labels all 15 labeled rows
    ("hcl-s", 16, {"mode": "two-view", "view1_aug": "mask:0.25",
                   "view2_aug": "mask:0.25"}),
    ("hcl", 6, {}),  # the labeled rows change every step
    ("supcon-style", 16, {"mode": "two-view"}),
])
def test_reusing_the_label_half_keeps_every_bit(monkeypatch, method,
                                                batch_size, over):
    cfg = small_cfg(method=method, batch_size=batch_size, **over)
    steps = cfg.epochs * -(-cfg.n_labeled // batch_size)
    made = 1 if batch_size >= cfg.n_labeled else steps
    calls = count_label_halves(monkeypatch)
    reused = run_training(cfg, 5)
    assert len(calls) == made
    with monkeypatch.context() as m:
        # a label half made afresh on every step
        m.setattr(train_mod, "LabelHalves", lambda: train_mod.sup_labels)
        fresh = run_training(cfg, 5)
    assert len(calls) == made + steps
    assert reused.trace == fresh.trace and reused.report == fresh.report
    assert np.array_equal(reused.params.flat, fresh.params.flat)


@pytest.mark.parametrize("fails", [False, True])
def test_run_training_drops_the_label_half_however_it_ends(monkeypatch,
                                                           fails):
    # the first step makes a label half, which only the run keeps: once the
    # run ends, whether its steps finished or the second step raised,
    # nothing holds it
    made = []
    real_step, real_halves = train_mod.train_step, train_mod.LabelHalves

    def step(*args, **kwargs):
        if fails and made:
            raise NumericError("non-finite gradient for parameter 'e1.w0'")
        return real_step(*args, **kwargs)

    def halves():
        kept = real_halves()

        def made_and_kept(y):
            half = kept(y)
            made.append(weakref.ref(half))
            return half
        return made_and_kept

    monkeypatch.setattr(train_mod, "train_step", step)
    monkeypatch.setattr(train_mod, "LabelHalves", halves)
    cfg = small_cfg(method="hcl")
    if fails:
        with pytest.raises(NumericError, match="e1.w0"):
            run_training(cfg, 0)
    else:
        run_training(cfg, 0)
    assert len(made) == (1 if fails else cfg.epochs)
    gc.collect()
    assert all(ref() is None for ref in made)


def test_a_run_without_a_memo_keeps_one_label_half(monkeypatch):
    # a batch that covers all 15 labeled rows labels the same rows at every
    # step, so the run makes one label half and keeps it; smaller batches
    # label other rows every step, so each step makes a fresh half and
    # nothing is kept
    sizes, real = [], LabelHalves.__call__

    def call(self, y):
        half = real(self, y)
        sizes.append(len(self._kept))
        return half

    monkeypatch.setattr(LabelHalves, "__call__", call)
    made = count_label_halves(monkeypatch)
    cfg = small_cfg(method="hcl", batch_size=16)
    run_training(cfg, 5)
    assert len(made) == 1
    assert sizes == [1] * cfg.epochs
    cfg = small_cfg(method="hcl", batch_size=6)
    run_training(cfg, 5)
    assert len(made) == 1 + cfg.epochs * 3
    assert len(sizes) == cfg.epochs


# ---------------------------------------------------------------------------
# Method degenerations (end to end, bitwise)


def test_hcl_with_zero_weights_is_dnn():
    full = run_training(small_cfg(method="hcl", alpha=0, beta=0), 2)
    dnn = run_training(small_cfg(method="dnn"), 2)
    assert trace_rows(full) == trace_rows(dnn)
    assert full.report.f1 == dnn.report.f1


def test_hcl_without_beta_is_hcl_u():
    a = run_training(small_cfg(method="hcl", beta=0), 2)
    b = run_training(small_cfg(method="hcl-u"), 2)
    assert trace_rows(a) == trace_rows(b)


def test_hcl_without_alpha_is_hcl_s():
    a = run_training(small_cfg(method="hcl", alpha=0), 2)
    b = run_training(small_cfg(method="hcl-s"), 2)
    assert trace_rows(a) == trace_rows(b)


def test_supcon_style_matches_hcl_s_on_single_label_data():
    # on one-hot labels weighted_sup_loss switches to indicator weights
    a = run_training(small_cfg(method="hcl-s", beta=0.4), 1)
    b = run_training(small_cfg(method="supcon-style", beta=0.4), 1)
    assert trace_rows(a) == trace_rows(b)


def test_first_epoch_classifier_loss_shared_across_methods():
    # identical rng stream: before the first step every method sees the
    # same parameters, so the first cross-entropy readings agree
    cfgs = [small_cfg(method=m) for m in ("dnn", "hcl-u", "hcl-s", "hcl")]
    first = [run_training(c, 5).trace[0].l_c for c in cfgs]
    assert max(first) == min(first)


# ---------------------------------------------------------------------------
# Modes


def test_two_view_augmented_run():
    cfg = small_cfg(mode="two-view", view1_aug="noise:0.2",
                    view2_aug="mask:0.2", method="hcl")
    result = run_training(cfg, 0)
    assert len(result.trace) == 4
    assert result.params.latent_dim == 6
    assert len(result.params.encoders) == 2


def test_multiview_family_two_view_run():
    cfg = small_cfg(synthetic="multiview", mode="two-view")
    result = run_training(cfg, 0)
    assert result.report.n_eval == 45


def test_multiview_family_single_view_uses_first_view():
    cfg = small_cfg(synthetic="multiview", mode="single-view")
    result = run_training(cfg, 0)
    assert len(result.params.encoders) == 1


@pytest.mark.parametrize("method", ["hcl", "supcon-style"])
def test_single_view_run_ignores_a_second_view(method):
    # a noise-sweep level hands every entry both corruptions; a single-view
    # entry must train exactly as on the first corruption alone
    cfg = small_cfg(method=method, beta=0.4)
    base = build_dataset(cfg)
    rng = make_rng(3)
    a = inject_noise(base.views[0], 0.5, rng)
    b = inject_noise(base.views[0], 0.5, rng)
    runs = [run_training(cfg, 1, replace(base, views=views))
            for views in ([a, b], [a])]
    params, trace, report = zip(*map(run_bytes, runs))
    assert params[0] == params[1]
    assert trace[0] == trace[1]
    assert report[0] == report[1]


@pytest.mark.parametrize("labels, accepted", [
    ([[1.0], [0.0], [1.0]], True),  # one column: every weight is 1
    ([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]], True),
    ([[1.0, 0.0], [1.0, 1.0], [0.0, 1.0]], False),
])
def test_check_dataset_supcon_style_label_shapes(labels, accepted):
    # each label row twice: 6 rows, of which 3 labeled leave an eval set
    ds = Dataset(views=[np.eye(6)], labels=np.tile(labels, (2, 1)),
                 labeled_mask=np.ones(6, dtype=bool))
    cfg = small_cfg(method="supcon-style", beta=0.4, n_labeled=3,
                    neg_size="full")
    if accepted:
        check_dataset(ds, cfg)
    else:
        with pytest.raises(ConfigError, match="config field 'method'"):
            check_dataset(ds, cfg)


def test_check_dataset_n_labeled_must_leave_an_unlabeled_row():
    # the unlabeled rows are the eval set; the most labeled rows that leave
    # one pass, and one more fails by field, before the run draws anything
    for family in ("cluster", "multiview", "scene-like"):
        cfg = small_cfg(synthetic=family, n_samples=30, n_labeled=29)
        ds = build_dataset(cfg)
        check_dataset(ds, cfg)
        over = small_cfg(synthetic=family, n_samples=30, n_labeled=30)
        with pytest.raises(ConfigError, match="config field 'n_labeled'"):
            check_dataset(ds, over)
        with pytest.raises(ConfigError, match="config field 'n_labeled'"):
            run_training(over, 0, ds)
    # resolving needs no rows, so bound-check and perf-sweep, which never
    # split the config's dataset by it, take any n_labeled
    assert resolve_config(dict(SMALL, n_samples="30",
                               n_labeled="120")).n_labeled == 120


@pytest.mark.parametrize("neg_size, accepted", [
    ("29", True), ("30", False), ("full", True)])
def test_check_dataset_neg_size_must_fit_the_rows(neg_size, accepted):
    cfg = small_cfg(n_samples=30, neg_size=neg_size)
    ds = build_dataset(cfg)
    if accepted:
        check_dataset(ds, cfg)
    else:
        with pytest.raises(ConfigError, match="config field 'neg_size': "
                           "must be <= 29 for this dataset of 30 rows"):
            check_dataset(ds, cfg)


def test_multiview_family_accepts_upper_case_none_augmentation():
    cfg = small_cfg(synthetic="multiview", mode="two-view", view1_aug="NONE",
                    view2_aug=" None ")
    plain = small_cfg(synthetic="multiview", mode="two-view")
    assert trace_rows(run_training(cfg, 0)) == \
        trace_rows(run_training(plain, 0))


@pytest.mark.parametrize("field", ["view1_aug", "view2_aug"])
def test_two_view_dataset_rejects_augmentation_naming_its_field(field):
    # the error names the augmentation that is set, not always view1_aug
    cfg = small_cfg(synthetic="multiview", mode="two-view",
                    **{field: "mask:0.25"})
    with pytest.raises(ConfigError, match=f"config field '{field}'"):
        run_training(cfg, 0)


def test_simclr_style_differs_from_weighted_two_view():
    a = run_training(small_cfg(synthetic="multiview", mode="two-view",
                               method="hcl-u"), 0)
    b = run_training(small_cfg(synthetic="multiview", mode="two-view",
                               method="simclr-style"), 0)
    assert trace_rows(a) != trace_rows(b)


# ---------------------------------------------------------------------------
# The training step


def _step_grad_error(monkeypatch, seed, two_view):
    """rel_error between the gradient ``train_step`` hands to LARS and a
    finite-difference gradient of l_c + a*l_u + b*l_s."""
    params, x1, x2, y, rng = safe_model_instance(seed, two_view=two_view,
                                                 n=8, c=3)
    views = [x1, x2] if two_view else [x1]
    ds = Dataset(views=views, labels=y, labeled_mask=np.ones(8, dtype=bool))
    # the two-view classifier and supervised term see a strict subset
    pos = np.array([0, 1, 3, 4, 6]) if two_view else np.arange(8)
    x_sim = None if two_view else rng.normal(size=(8, params.latent_dim))
    mask = None  # the full complement
    tau = 0.5
    alpha, beta = 0.7, 0.3
    flat = params.flat.copy()

    def objective(vec):
        params.flat[:] = vec
        z1, _ = encode(params, x1, view=1)
        if two_view:
            z2, _ = encode(params, x2, view=2)
            l_u = unsup_loss_multiview(ContrastiveBatch(
                zs=[z1, z2], xs=[x1, x2], neg_mask=mask), tau)[0]
            s = np.hstack([z1, z2])[pos]
        else:
            l_u = unsup_loss_single(ContrastiveBatch(
                zs=[z1], xs=[x1], x_sim=x_sim, neg_mask=mask), tau)[0]
            s = z1[pos]
        l_c = cross_entropy(classify(params, s)[0], y[pos])[0]
        l_s = weighted_sup_loss(s, y[pos], tau)[0]
        return l_c + alpha * l_u + beta * l_s

    captured = []
    monkeypatch.setattr(train_mod, "lars_step",
                        lambda p, grad, state: captured.append(grad))
    train_step(params, OptimizerState(), ds, BatchPlan(np.arange(8), pos, mask),
               (1.0, alpha, beta), tau, x_sim=x_sim)
    num = finite_diff_grad(lambda m: objective(m.ravel()), flat.reshape(1, -1))
    return rel_error(captured[0], num.ravel())


@pytest.mark.parametrize("two_view", [True, False])
def test_train_step_gradient_matches_finite_differences(monkeypatch, two_view):
    errors = [_step_grad_error(monkeypatch, seed, two_view)
              for seed in range(30, 40)]
    assert max(errors) < 1e-5


# ---------------------------------------------------------------------------
# Validation and degenerate batches


def test_n_labeled_validated_against_dataset(tmp_path):
    # synthetic data is sized by the config, so resolving refuses it; a
    # manifest's rows are counted only when the run reads it
    with pytest.raises(ConfigError, match="n_labeled"):
        run_training(small_cfg(n_labeled=60), 0)
    ds = build_dataset(small_cfg())
    save_csv(str(tmp_path / "x.csv"), ds.views[0])
    save_csv(str(tmp_path / "y.csv"), ds.labels)
    save_manifest(str(tmp_path / "m.manifest"), str(tmp_path / "x.csv"),
                  str(tmp_path / "y.csv"), ds.c)
    cfg = small_cfg(synthetic="", manifest=str(tmp_path / "m.manifest"),
                    n_labeled=60)
    with pytest.raises(ConfigError, match="n_labeled.*in \\(0, 60\\)"):
        run_training(cfg, 0)


def test_degenerate_supervised_batch_names_epoch():
    # twelve classes on twelve rows: every row has its own label, so no
    # label ever has two positives
    cfg = resolve_config({
        "synthetic": "cluster", "n_samples": "12", "n_features": "4",
        "n_classes": "12", "n_labeled": "3", "epochs": "2", "seeds": "0",
        "batch_size": "8", "neg_size": "full", "encoder_sizes": "6,4",
        "method": "hcl-s", "beta": "0.5",
    })
    with pytest.raises(DegenerateBatchError, match="epoch 0"):
        run_training(cfg, 0)


# ---------------------------------------------------------------------------
# Replay evaluation


def test_replay_eval_matches_training_report():
    cfg = small_cfg(method="hcl")
    result = run_training(cfg, 4)
    replay = replay_eval(cfg, 4, result.params)
    assert replay.f1 == result.report.f1
    assert replay.auc == result.report.auc
    assert np.array_equal(replay.per_label, result.report.per_label)


def test_replay_eval_two_view_matches():
    cfg = small_cfg(mode="two-view", view1_aug="noise:0.3",
                    view2_aug="none")
    result = run_training(cfg, 1)
    replay = replay_eval(cfg, 1, result.params)
    assert replay.f1 == result.report.f1


# ---------------------------------------------------------------------------
# Records and CSVs


def make_record(seed, method="hcl"):
    """``run_training``'s record with the fields a writer fills set."""
    record = run_training(small_cfg(method=method), seed)
    record.blas_threads = 1
    record.checksums = {"dataset": "d" * 8}
    return record


def test_run_training_returns_the_run_record():
    cfg = small_cfg(method="hcl")
    record = run_training(cfg, 2)
    assert isinstance(record, RunRecord)
    assert record.config == config_for_seed(cfg, 2)
    assert record.config["seeds"] == "2" and record.seed == 2
    assert len(record.trace) == 4 and record.wall_seconds > 0
    # the writer's fields are left to the writer
    assert record.blas_threads is None and record.checksums == {}
    # the record carries the trained model: it scores as the report says
    assert isinstance(record.params, ModelParams)
    assert replay_eval(cfg, 2, record.params).f1 == record.report.f1


def test_run_record_leaves_params_out_of_json_eq_and_repr():
    record = run_training(small_cfg(method="hcl"), 0)
    assert "params" not in json.loads(record.to_json())
    other = replace(record, params=init_params(
        make_rng(9), [[8, 8, 6]], [6, 3]))
    assert not np.array_equal(other.params.flat, record.params.flat)
    assert other == record
    assert repr(other) == repr(record) and "params" not in repr(record)
    assert replace(record, seed=1) != record


def test_run_records_of_one_config_and_seed_compare_by_value():
    # two runs of one (config, seed) differ only in their wall time; a
    # report with a NaN per-label AUC equals its twin
    cfg = small_cfg(method="hcl")
    first, second = run_training(cfg, 0), run_training(cfg, 0)
    assert first.report == second.report
    assert (first == second) == (first.wall_seconds == second.wall_seconds)
    assert first == replace(second, wall_seconds=first.wall_seconds)
    nan_auc = [replace(r.report, per_label=np.append(r.report.per_label,
                                                     np.nan))
               for r in (first, second)]
    assert replace(first, report=nan_auc[0]) == replace(
        second, report=nan_auc[1], wall_seconds=first.wall_seconds)
    assert replace(first, report=nan_auc[0]) != first
    assert replace(first, trace=first.trace[:-1]) != first


def test_run_record_json_round_trip():
    rec = make_record(0)
    body = json.loads(rec.to_json())
    assert body["seed"] == 0
    assert len(body["trace"]) == 4
    assert body["trace"][0]["epoch"] == 0
    assert set(body["trace"][0]) == {"epoch", "l_c", "l_u", "l_s", "j"}
    assert set(body["report"]) == {"f1", "auc", "per_label", "n_eval"}
    assert body["report"]["f1"] == rec.report.f1
    assert body["checksums"] == {"dataset": "dddddddd"}
    assert body["blas_threads"] == 1
    assert body["config"]["seeds"] == "0"


def test_metrics_csv_layout_and_determinism():
    recs = [make_record(s) for s in (1, 0)]
    text = metrics_csv(recs)
    lines = text.strip().split("\n")
    assert lines[0] == "method,seed,f1,auc,n_eval"
    # rows sorted by seed regardless of input order
    assert lines[1].startswith("hcl,0,") and lines[2].startswith("hcl,1,")
    again = metrics_csv([make_record(s) for s in (1, 0)])
    assert text == again


def test_metrics_csv_rejects_empty():
    with pytest.raises(ContractError):
        metrics_csv([])


# ---------------------------------------------------------------------------
# The cell map


@pytest.mark.parametrize("failing", [0, 1, 2, 3])
def test_run_cells_stops_at_the_first_failed_cell(failing):
    # cells run in order; the HclError of cell k ends the map, no later
    # cell is called, and the k finished results come back with (cell, err)
    calls, err = [], NumericError("loss diverged")

    def run_cell(cell):
        calls.append(cell)
        if cell == failing:
            raise err
        return 10 * cell

    results, failure = run_cells(range(4), run_cell)
    assert calls == list(range(failing + 1))
    assert results == [10 * cell for cell in range(failing)]
    assert failure == (failing, err)


def test_run_cells_returns_every_result_when_no_cell_fails():
    assert run_cells(iter([1, 2, 3]), lambda c: -c) == ([-1, -2, -3], None)
    assert run_cells([], lambda c: c) == ([], None)


def test_run_cells_lets_any_other_exception_through_as_it_is():
    calls = []

    def run_cell(cell):
        calls.append(cell)
        return {}[cell]

    with pytest.raises(KeyError) as info:
        run_cells(["a", "b"], run_cell)
    assert info.type is KeyError and calls == ["a"]
