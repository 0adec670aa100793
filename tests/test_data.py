"""Ingestion, augmentation, synthetic data, splits, and batch plans."""

import re

import numpy as np
import pytest

from hcl.data import (
    Dataset,
    inject_noise,
    load_csv,
    load_manifest,
    make_cluster_dataset,
    make_scene_like,
    make_views,
    mask_features,
    rescale01,
    sample_batch,
    split,
    synth_multiview,
    take_rows,
)
from hcl.errors import ConfigError, ContractError, IngestionError, ShapeError
from hcl.numeric import make_rng, unit_rows

from builders import save_csv, save_manifest


def toy_dataset(n=8, d=3, c=2, seed=0, two_view=False, labeled=None):
    rng = make_rng(seed)
    views = [rng.normal(size=(n, d))]
    if two_view:
        views.append(rng.normal(size=(n, d + 1)))
    labels = rng.integers(0, 2, size=(n, c)).astype(float)
    mask = np.ones(n, dtype=bool) if labeled is None else labeled
    return Dataset(views=views, labels=labels, labeled_mask=mask)


# ---------------------------------------------------------------------------
# Dataset validation


def test_dataset_validation():
    rng = make_rng(0)
    x = rng.normal(size=(4, 3))
    y = np.ones((4, 2))
    Dataset(views=[x], labels=y, labeled_mask=np.ones(4, bool))
    with pytest.raises(ShapeError, match="rows"):
        Dataset(views=[x, rng.normal(size=(5, 3))], labels=y,
                labeled_mask=np.ones(4, bool))
    with pytest.raises(ShapeError):
        Dataset(views=[x], labels=np.ones((3, 2)), labeled_mask=np.ones(4, bool))
    with pytest.raises(ContractError, match="binary"):
        Dataset(views=[x], labels=y * 2.0, labeled_mask=np.ones(4, bool))
    with pytest.raises(ShapeError):
        Dataset(views=[x], labels=y, labeled_mask=np.ones(5, bool))
    with pytest.raises(ContractError):
        Dataset(views=[], labels=y, labeled_mask=np.ones(4, bool))


# ---------------------------------------------------------------------------
# CSV round trips and ingestion errors


def test_csv_round_trip_unchanged(tmp_path):
    rng = make_rng(1)
    x = rng.normal(size=(3, 4))
    y = rng.integers(0, 2, size=(3, 2)).astype(float)
    save_csv(str(tmp_path / "x.csv"), x)
    save_csv(str(tmp_path / "y.csv"), y)
    ds = load_csv(str(tmp_path / "x.csv"), str(tmp_path / "y.csv"))
    assert np.array_equal(ds.views[0], x)
    assert np.array_equal(ds.labels, y)
    assert ds.n == 3 and ds.c == 2 and ds.n_views == 1


def test_csv_two_views_and_header(tmp_path):
    (tmp_path / "a.csv").write_text("f1,f2\n1.0,2.0\n3.0,4.0\n")
    (tmp_path / "b.csv").write_text("g1\n5.0\n6.0\n")
    (tmp_path / "y.csv").write_text("l1\n1\n0\n")
    ds = load_csv([str(tmp_path / "a.csv"), str(tmp_path / "b.csv")],
                  str(tmp_path / "y.csv"), header=True)
    assert ds.n_views == 2
    assert np.array_equal(ds.views[1], [[5.0], [6.0]])


def test_csv_nonbinary_label_names_row_and_column(tmp_path):
    (tmp_path / "x.csv").write_text("1.0\n2.0\n3.0\n")
    (tmp_path / "y.csv").write_text("1,0\n0,2\n1,1\n")
    with pytest.raises(IngestionError, match=r"y\.csv:2: column 2.*not 0 or 1"):
        load_csv(str(tmp_path / "x.csv"), str(tmp_path / "y.csv"))


def test_csv_row_count_mismatch_reports_lines(tmp_path):
    (tmp_path / "x.csv").write_text("1.0\n2.0\n3.0\n")
    (tmp_path / "y.csv").write_text("1\n0\n")
    with pytest.raises(IngestionError, match="line 3.*line 2"):
        load_csv(str(tmp_path / "x.csv"), str(tmp_path / "y.csv"))


def test_csv_parse_errors(tmp_path):
    (tmp_path / "bad.csv").write_text("1.0,2.0\n3.0,oops\n")
    (tmp_path / "y.csv").write_text("1\n0\n")
    with pytest.raises(IngestionError, match=r"bad\.csv:2: column 2"):
        load_csv(str(tmp_path / "bad.csv"), str(tmp_path / "y.csv"))
    (tmp_path / "ragged.csv").write_text("1.0,2.0\n3.0\n")
    with pytest.raises(IngestionError, match="expected 2 columns"):
        load_csv(str(tmp_path / "ragged.csv"), str(tmp_path / "y.csv"))
    (tmp_path / "inf.csv").write_text("1.0\ninf\n")
    with pytest.raises(IngestionError, match="non-finite"):
        load_csv(str(tmp_path / "inf.csv"), str(tmp_path / "y.csv"))
    (tmp_path / "empty.csv").write_text("\n")
    with pytest.raises(IngestionError, match="no data rows"):
        load_csv(str(tmp_path / "empty.csv"), str(tmp_path / "y.csv"))


def test_csv_benchmark_shape(tmp_path):
    ds = make_scene_like(2407, 20, 6, make_rng(2))
    save_csv(str(tmp_path / "x.csv"), ds.views[0])
    save_csv(str(tmp_path / "y.csv"), ds.labels)
    loaded = load_csv(str(tmp_path / "x.csv"), str(tmp_path / "y.csv"))
    assert loaded.n == 2407 and loaded.c == 6
    assert np.array_equal(loaded.views[0], ds.views[0])


def test_manifest_round_trip(tmp_path):
    ds = toy_dataset(two_view=True)
    save_csv(str(tmp_path / "v1.csv"), ds.views[0])
    save_csv(str(tmp_path / "v2.csv"), ds.views[1])
    save_csv(str(tmp_path / "y.csv"), ds.labels)
    save_manifest(str(tmp_path / "data.manifest"), ["v1.csv", "v2.csv"],
                  "y.csv", c=2, name="toy")  # the name key is read and ignored
    loaded = load_manifest(str(tmp_path / "data.manifest"))
    assert loaded.n_views == 2
    assert np.array_equal(loaded.views[1], ds.views[1])
    assert np.array_equal(loaded.labels, ds.labels)


def test_manifest_errors(tmp_path):
    (tmp_path / "y.csv").write_text("1\n0\n")
    (tmp_path / "x.csv").write_text("1.0\n2.0\n")
    m = tmp_path / "m.manifest"
    m.write_text("view1 = x.csv\nlabels = y.csv\n")
    with pytest.raises(IngestionError, match="missing.*'c'"):
        load_manifest(str(m))
    m.write_text("view1 = x.csv\nlabels = y.csv\nc = 2\n")
    with pytest.raises(IngestionError, match="manifest says c = 2"):
        load_manifest(str(m))
    m.write_text("view1 = x.csv\nlabels = y.csv\nc = 1\nbogus = 3\n")
    with pytest.raises(IngestionError, match="unknown manifest key 'bogus'"):
        load_manifest(str(m))
    m.write_text("view1 x.csv\n")
    with pytest.raises(ConfigError, match="m.manifest:1"):
        load_manifest(str(m))
    m.write_text("view1 = x.csv\nlabels = y.csv\nc = 1\nheader = maybe\n")
    with pytest.raises(IngestionError, match=f"^{re.escape(str(m))}: header "
                       "must be true or false, got 'maybe'$"):
        load_manifest(str(m))
    m.write_text("view1 = x.csv\nlabels = y.csv\nc = one\n")
    with pytest.raises(IngestionError, match=f"^{re.escape(str(m))}: c must "
                       "be an integer, got 'one'$"):
        load_manifest(str(m))


def test_load_csv_needs_one_or_two_view_files(tmp_path):
    save_csv(str(tmp_path / "x.csv"), np.ones((2, 1)))
    save_csv(str(tmp_path / "y.csv"), np.ones((2, 1)))
    for views in ([], [tmp_path / "x.csv"] * 3):
        with pytest.raises(ContractError, match="^need one or two view files, "
                           f"got {len(views)}$"):
            load_csv(views, tmp_path / "y.csv")


# ---------------------------------------------------------------------------
# Rescaling and augmentation


def test_rescale01_columns():
    x = np.array([[0.0, 5.0, 7.0], [10.0, 5.0, 3.0], [5.0, 5.0, 5.0]])
    out = rescale01(x)
    assert np.array_equal(out[:, 0], [0.0, 1.0, 0.5])
    # constant column collapses to zero
    assert np.array_equal(out[:, 1], [0.0, 0.0, 0.0])
    assert out.min() >= 0.0 and out.max() <= 1.0


def test_inject_noise_level_zero_is_rescale():
    x = make_rng(3).normal(size=(20, 5))
    out = inject_noise(x, 0.0, make_rng(4))
    assert np.array_equal(out, rescale01(x))


def test_inject_noise_level_one_bounds():
    x = make_rng(5).normal(size=(40, 5))
    out = inject_noise(x, 1.0, make_rng(6))
    assert out.min() >= 0.0 and out.max() <= 1.0
    changed = np.count_nonzero(out != rescale01(x))
    # every entry perturbed; only entries clipped back to 1.0 can coincide
    assert changed >= out.size - 40 * 5 * 0.2


def test_inject_noise_fraction_of_changed_entries():
    x = make_rng(7).uniform(size=(1000, 10))
    out = inject_noise(x, 0.75, make_rng(8))
    frac = np.count_nonzero(out != rescale01(x)) / out.size
    assert abs(frac - 0.75) < 0.01


def test_inject_noise_validates_level():
    with pytest.raises(ContractError):
        inject_noise(np.ones((2, 2)), 1.5, make_rng(0))
    with pytest.raises(ContractError):
        inject_noise(np.ones((2, 2)), -0.1, make_rng(0))


def test_inject_noise_output_range_sweep():
    rng = make_rng(9)
    for _ in range(25):
        x = rng.normal(size=(rng.integers(2, 30), rng.integers(1, 8))) * 10
        out = inject_noise(x, float(rng.uniform(0, 1)), rng)
        assert out.min() >= 0.0 and out.max() <= 1.0


def test_mask_features_counts():
    x = np.ones((10, 10))
    out = mask_features(x, 0.3, make_rng(10))
    assert np.count_nonzero(out == 0.0) == 30
    assert np.array_equal(mask_features(x, 1.0, make_rng(0)), np.zeros((10, 10)))
    assert np.array_equal(mask_features(x, 0.0, make_rng(0)), x)


@pytest.mark.parametrize("rate", [-0.1, 1.5])
def test_mask_features_validates_rate(rate):
    with pytest.raises(ContractError,
                       match=rf"^masking rate must be in \[0, 1\], got {rate}$"):
        mask_features(np.ones((2, 2)), rate, make_rng(0))


def test_make_views_identity_augs():
    x = make_rng(11).normal(size=(6, 4))
    x1, x2 = make_views(x, "none", "none", make_rng(12))
    assert np.array_equal(x1, rescale01(x))
    assert np.array_equal(x1, x2)
    assert x1 is not x2


def test_make_views_full_mask_zeroes_view():
    x = make_rng(13).normal(size=(6, 4))
    x1, x2 = make_views(x, "mask:1.0", "none", make_rng(14))
    assert not x1.any()
    assert x2.any()


def test_make_views_independent_randomness():
    x = make_rng(15).normal(size=(30, 6))
    x1, x2 = make_views(x, "noise:0.25", "noise:0.25", make_rng(16))
    assert x1.shape == x2.shape == x.shape
    assert not np.array_equal(x1, x2)


def test_make_views_rejects_bad_specs():
    x = np.ones((2, 2))
    with pytest.raises(ConfigError, match="unknown augmentation"):
        make_views(x, "blur:0.5", "none", make_rng(0))
    with pytest.raises(ConfigError, match="numeric rate"):
        make_views(x, "noise:lots", "none", make_rng(0))
    with pytest.raises(ConfigError, match=r"\[0, 1\]"):
        make_views(x, "none", "mask:1.5", make_rng(0))


# ---------------------------------------------------------------------------
# Synthetic datasets


def test_synth_multiview_latent_recoverable_without_noise():
    ds = synth_multiview(200, 5, 8, 4, 0.0, make_rng(17))
    # the latent is the generator's first draw; replay it from the seed
    latent = unit_rows(make_rng(17).normal(size=(200, 5)))
    for v in ds.views:
        coef, residuals, rank, _ = np.linalg.lstsq(v, latent, rcond=None)
        recon = v @ coef
        assert float(np.abs(recon - latent).max()) < 1e-8


def test_synth_multiview_top_canonical_correlation():
    ds = synth_multiview(300, 6, 9, 3, 0.0, make_rng(18))
    bases = []
    for v in ds.views:
        centered = v - v.mean(axis=0)
        u, s, _ = np.linalg.svd(centered, full_matrices=False)
        bases.append(u[:, s > 1e-9 * s[0]])
    corr = np.linalg.svd(bases[0].T @ bases[1], compute_uv=False)
    assert abs(corr[0] - 1.0) < 1e-6


def test_synth_multiview_reproducible_and_balanced():
    a = synth_multiview(1000, 4, 7, 4, 0.1, make_rng(19))
    b = synth_multiview(1000, 4, 7, 4, 0.1, make_rng(19))
    assert np.array_equal(a.labels, b.labels)
    assert np.array_equal(a.views[0], b.views[0])
    pos = a.labels.sum(axis=0)
    assert np.all(pos >= 1) and np.all(pos <= 999)


def test_synth_multiview_validation():
    with pytest.raises(ContractError):
        synth_multiview(1, 4, 4, 2, 0.0, make_rng(0))
    with pytest.raises(ContractError):
        synth_multiview(10, 4, 4, 1, 0.0, make_rng(0))
    with pytest.raises(ContractError):
        synth_multiview(10, 4, 4, 2, -1.0, make_rng(0))


def test_cluster_dataset_shapes():
    ds = make_cluster_dataset(120, 8, 10, make_rng(20))
    assert ds.n == 120 and ds.c == 10
    assert np.array_equal(ds.labels.sum(axis=1), np.ones(120))
    assert ds.views[0].min() >= 0.0 and ds.views[0].max() <= 0.55
    # balanced round-robin assignment populates every class
    assert np.all(ds.labels.sum(axis=0) == 12)


def test_scene_like_shapes():
    ds = make_scene_like(400, 20, 6, make_rng(21))
    assert ds.n == 400 and ds.c == 6 and ds.n_views == 1
    per_label = ds.labels.sum(axis=0)
    assert np.all(per_label >= 1) and np.all(per_label <= 399)
    # multi-label: some rows carry more than one positive
    assert (ds.labels.sum(axis=1) > 1).any()


def test_scene_like_two_labels():
    # a cluster's extra positives are capped at the one other label
    for seed in range(5):
        ds = make_scene_like(48, 6, 2, make_rng(seed))
        counts = ds.labels.sum(axis=1)
        assert np.all((counts >= 1) & (counts <= 2))


def test_generators_name_the_sizes_they_need():
    for args in ((2, 3, 3), (4, 0, 2), (4, 3, 1)):
        with pytest.raises(ContractError, match=r"^need n >= c >= 2 and "
                           rf"d >= 1, got {args[0]}, {args[2]}, {args[1]}$"):
            make_cluster_dataset(*args, make_rng(0))
    for args in ((23, 6, 2), (24, 5, 2), (24, 6, 1)):
        with pytest.raises(ContractError, match=r"^need n >= 24, c >= 2, "
                           rf"d >= 6, got {args[0]}, {args[2]}, {args[1]}$"):
            make_scene_like(*args, make_rng(0))


# ---------------------------------------------------------------------------
# Splits


def test_split_counts_and_reproducibility():
    ds = toy_dataset(n=50)
    a = split(ds, 10, make_rng(22))
    b = split(ds, 10, make_rng(22))
    assert a.labeled_mask.sum() == 10
    assert np.array_equal(a.labeled_mask, b.labeled_mask)
    assert not np.array_equal(a.labeled_mask, split(ds, 10, make_rng(23)).labeled_mask)


def test_split_single_unlabeled_row():
    ds = toy_dataset(n=5)
    out = split(ds, 4, make_rng(24))
    assert out.unlabeled_indices.size == 1


def test_split_benchmark_protocol():
    rng = make_rng(25)
    ds = Dataset(views=[rng.normal(size=(2407, 3))],
                 labels=rng.integers(0, 2, size=(2407, 6)).astype(float),
                 labeled_mask=np.ones(2407, bool))
    out = split(ds, 120, make_rng(26))
    assert out.labeled_mask.sum() == 120
    assert out.unlabeled_indices.size == 2287


def test_split_validation():
    ds = toy_dataset(n=5)
    with pytest.raises(ContractError):
        split(ds, 0, make_rng(0))
    with pytest.raises(ContractError):
        split(ds, 5, make_rng(0))


@pytest.mark.parametrize("rows", [[], [[0, 1]]])
def test_take_rows_needs_a_non_empty_index(rows):
    with pytest.raises(ContractError,
                       match="^rows must be a non-empty 1-D index array$"):
        take_rows(toy_dataset(), rows)


# ---------------------------------------------------------------------------
# Batch plans


def plan_mask(plan):
    """The plan's negative sets as a mask, the full complement's (a
    ``neg_mask`` of None) written out."""
    if plan.neg_mask is None:
        return ~np.eye(plan.anchors.size, dtype=bool)
    return plan.neg_mask


def test_sample_batch_three_rows_forced_complement():
    ds = toy_dataset(n=3)
    plan = sample_batch(ds, 3, 2, make_rng(27))
    assert np.array_equal(plan.anchors, [0, 1, 2])
    for i in range(3):
        assert sorted(plan.anchors[plan_mask(plan)[i]]) == sorted(set(range(3)) - {i})


def test_sample_batch_full_complement_mode():
    ds = split(toy_dataset(n=12), 4, make_rng(28))
    plan = sample_batch(ds, 4, "full", make_rng(29))
    assert np.array_equal(plan.anchors, np.arange(12))
    assert np.all(plan_mask(plan).sum(axis=1) == 11)
    assert np.array_equal(np.sort(plan.labeled), ds.labeled_indices)


def test_sample_batch_pool_fills_with_unlabeled():
    ds = split(toy_dataset(n=40), 8, make_rng(30))
    plan = sample_batch(ds, 5, 9, make_rng(31))
    # pool = 5 labeled anchors + 5 unlabeled fills
    assert plan.anchors.size == 10
    assert plan.labeled.size == 5
    assert np.all(plan_mask(plan).sum(axis=1) == 9)
    unlabeled_in_pool = np.setdiff1d(plan.anchors, plan.anchors[plan.labeled])
    assert np.all(~ds.labeled_mask[unlabeled_in_pool])


def test_sample_batch_labeled_pool_larger_than_negatives():
    ds = toy_dataset(n=8)  # everything labeled
    plan = sample_batch(ds, 8, 3, make_rng(32))
    assert plan.anchors.size == 8
    assert plan.neg_mask.shape == (8, 8)
    assert np.all(plan.neg_mask.sum(axis=1) == 3)


def test_sample_batch_protocol_scale():
    ds = split(toy_dataset(n=4200, d=2), 200, make_rng(33))
    plan = sample_batch(ds, 200, 4199, make_rng(34))
    assert plan.anchors.size == 4200
    assert plan.neg_mask is None  # full complement is forced at this size
    assert plan.labeled.size == 200
    i = 1234
    assert np.array_equal(plan.anchors[plan_mask(plan)[i]],
                          np.setdiff1d(np.arange(4200), [plan.anchors[i]]))


def test_sample_batch_anchor_exclusion_sweep():
    # sample_batch is the only builder of a plan and nothing checks it
    # afterwards, so every invariant must hold by construction
    rng = make_rng(35)
    for trial in range(60):
        n = int(rng.integers(4, 30))
        ds = split(toy_dataset(n=n, seed=int(rng.integers(10**6))),
                   int(rng.integers(1, n)), rng)
        k = "full" if trial % 3 == 0 else int(rng.integers(1, n))
        plan = sample_batch(ds, int(rng.integers(1, 6)), k, rng)
        na = plan.anchors.size
        if k == "full":
            k = n - 1
            assert np.array_equal(plan.anchors, np.arange(n))
        assert np.all(np.diff(plan.anchors) > 0)  # unique and sorted
        assert np.all(np.diff(plan.labeled) > 0)  # positions, sorted
        assert plan.labeled.min() >= 0 and plan.labeled.max() < na
        assert ds.labeled_mask[plan.anchors[plan.labeled]].all()
        assert (plan.neg_mask is None) == (k == na - 1)
        mask = plan_mask(plan)
        assert mask.shape == (na, na)
        assert not mask.diagonal().any()
        assert np.all(mask.sum(axis=1) == k)
        for i in range(na):
            rows = plan.anchors[mask[i]]
            assert np.unique(rows).size == k and plan.anchors[i] not in rows
        # the benchmark counts one negative per (anchor, negative) pair
        assert plan.negatives.size == na * k


def test_sample_batch_full_single_batch_draws_nothing():
    # a full pool whose batch takes every labeled row is fixed, so training
    # can rebuild it every epoch without shifting the rng stream
    ds = split(toy_dataset(n=20), 6, make_rng(38))
    rng = make_rng(39)
    before = rng.bit_generator.state
    plan = sample_batch(ds, 6, "full", rng)
    assert rng.bit_generator.state == before
    assert np.array_equal(plan.labeled, ds.labeled_indices)
    again = sample_batch(ds, 50, "full", rng)
    assert rng.bit_generator.state == before
    assert np.array_equal(again.neg_mask, plan.neg_mask)


def test_sample_batch_full_complement_is_none():
    # a full pool and a forced complement (k = na - 1) both hand out no
    # mask, and still count their n(n - 1) (anchor, negative) pairs, as the
    # benchmark reads them; a sampled set is a mask of its own, read-only
    # like every array of a plan
    ds = split(toy_dataset(n=20), 6, make_rng(40))
    rng = make_rng(41)
    full = sample_batch(ds, 6, "full", rng)
    forced = sample_batch(ds, 4, 3, rng)
    for plan, na in ((full, 20), (forced, 4)):
        assert plan.neg_mask is None and plan.anchors.size == na
        assert plan.negatives.size == na * (na - 1)
        assert np.array_equal(plan.negatives,
                              np.flatnonzero(~np.eye(na, dtype=bool)))
    sampled = sample_batch(ds, 4, 2, rng)
    for array in (sampled.anchors, sampled.labeled, sampled.neg_mask):
        assert not array.flags.writeable
    assert sampled.negatives.size == 4 * 2


def test_sample_batch_full_and_its_integer_spelling_draw_one_stream():
    # neg_size n - 1 names every other row as 'full' does: with a batch below
    # the labeled count both draw equal plans and leave the rng in one
    # state, with no draw spent on topping up the pool
    ds = split(toy_dataset(n=12), 6, make_rng(28))
    rng_full, rng_int = make_rng(5), make_rng(5)
    for _ in range(3):
        a = sample_batch(ds, 3, "full", rng_full)
        b = sample_batch(ds, 3, 11, rng_int)
        assert a.neg_mask is None and b.neg_mask is None
        for field in ("anchors", "labeled"):
            assert np.array_equal(getattr(a, field), getattr(b, field)), field
    assert rng_full.bit_generator.state == rng_int.bit_generator.state


@pytest.mark.parametrize("batch_size,neg_size", [
    (4, 12), (4, 2), (12, 6), (5, "full"), (40, "full")])
def test_sample_batch_reads_only_rows_labeled_mask_and_sizes(batch_size,
                                                            neg_size):
    # the contract a batch-stream memo keys on: two datasets that differ in
    # their views (count, width, values) and labels but share the row count
    # and labeled mask draw equal plans and leave the rng in one state
    labeled = split(toy_dataset(n=30), 10, make_rng(36)).labeled_mask
    one = toy_dataset(n=30, d=3, c=2, seed=1, labeled=labeled)
    two = toy_dataset(n=30, d=5, c=4, seed=2, two_view=True, labeled=labeled)
    rng_one, rng_two = make_rng(37), make_rng(37)
    for _ in range(3):
        a = sample_batch(one, batch_size, neg_size, rng_one)
        b = sample_batch(two, batch_size, neg_size, rng_two)
        for field in ("anchors", "labeled", "neg_mask"):
            assert np.array_equal(getattr(a, field), getattr(b, field))
    assert rng_one.bit_generator.state == rng_two.bit_generator.state


def test_sample_batch_reproducible():
    ds = split(toy_dataset(n=30), 10, make_rng(36))
    a = sample_batch(ds, 4, 12, make_rng(37))
    b = sample_batch(ds, 4, 12, make_rng(37))
    assert np.array_equal(a.anchors, b.anchors)
    assert np.array_equal(a.neg_mask, b.neg_mask)


def test_sample_batch_golden_stream():
    # pins the negative sets drawn for a fixed seed, and the rng state after
    # the draw, so a change to the sampling stream cannot pass unnoticed
    ds = split(toy_dataset(n=12), 8, make_rng(40))
    rng = make_rng(41)
    plan = sample_batch(ds, 6, 2, rng)
    assert plan.anchors.tolist() == [2, 4, 5, 9, 10, 11]
    assert plan.labeled.tolist() == [0, 1, 2, 3, 4, 5]
    assert plan.anchors[plan.labeled].tolist() == [2, 4, 5, 9, 10, 11]
    assert [plan.anchors[row].tolist() for row in plan.neg_mask] == [
        [4, 5], [2, 11], [4, 11], [10, 11], [4, 11], [9, 10]]
    assert int(rng.integers(10**6)) == 349782


@pytest.mark.parametrize("k", [1, 3, 6])
def test_sample_batch_negatives_uniform(k):
    # every anchor's negative set is a uniform k-subset of the other 7
    # anchors, so each off-diagonal cell is selected with probability k / 7;
    # the tolerance is five binomial standard errors over the draws
    na, draws = 8, 3000
    ds = toy_dataset(n=na)  # all labeled: the pool is every row
    rng = make_rng(42 + k)
    counts = np.zeros((na, na))
    for _ in range(draws):
        plan = sample_batch(ds, na, k, rng)
        assert np.all(plan.neg_mask.sum(axis=1) == k)
        counts += plan.neg_mask
    assert not counts.diagonal().any()
    p = k / (na - 1)
    tol = 5.0 * np.sqrt(p * (1.0 - p) / draws)
    freq = counts[~np.eye(na, dtype=bool)] / draws
    assert np.abs(freq - p).max() < tol


def test_sample_batch_validation():
    ds = toy_dataset(n=6)
    with pytest.raises(ContractError, match="limit 5"):
        sample_batch(ds, 2, 6, make_rng(0))
    with pytest.raises(ContractError):
        sample_batch(ds, 0, 2, make_rng(0))
    with pytest.raises(ContractError):
        sample_batch(ds, 2, 0, make_rng(0))
    with pytest.raises(ContractError, match="'total'"):
        sample_batch(ds, 2, "total", make_rng(0))
    unlabeled = Dataset(views=[np.ones((4, 2))], labels=np.ones((4, 1)),
                        labeled_mask=np.zeros(4, bool))
    with pytest.raises(ContractError, match="no labeled rows"):
        sample_batch(unlabeled, 2, 2, make_rng(0))
