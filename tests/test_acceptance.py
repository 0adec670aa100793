"""End-to-end acceptance checks for the whole package.

Ten numbered checks cover the gradient suite, the loss degenerations, the
weight ranges, both empirical bound harnesses, three experiment-level case
studies, the metric oracles, and byte-level reproducibility. Each test
prints one `[criterion NN] PASS/FAIL ...` line (visible under `pytest -s`)
before asserting, so a full run reads as a checklist; budgeted checks also
assert their wall-clock limits.

Run with:  pytest tests/test_acceptance.py -v -s
"""

import json
import os
import time

import numpy as np

from builders import safe_model_instance
from reference import (finite_diff_grad, random_neg_mask, ref_auc_pairwise,
                       ref_f1_micro, ref_log_weight, ref_weighted_sup,
                       rel_error)

from hcl.cli import main
from hcl.config import resolve_config
from hcl.losses import (
    ContrastiveBatch,
    _label_log_weights,
    cross_entropy,
    unsup_loss_multiview,
    unsup_loss_single,
    weighted_sup_loss,
)
from hcl.metrics import auc, f1_score, per_label_auc
from hcl.mi import (
    BoundTrainSpec,
    GaussianPairSpec,
    RingProtoSpec,
    check_sup_bound,
    check_unsup_bound,
)
from hcl.model import classify, encode, model_backward
from hcl.numeric import make_rng
from hcl.train import build_dataset, run_training

GRAD_TOL = 1e-5
EXACT_TOL = 1e-12


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {detail}")


def _write_cfg(tmp_path, pairs, name="run.cfg"):
    path = tmp_path / name
    path.write_text("".join(f"{k} = {v}\n" for k, v in pairs.items()),
                    encoding="utf-8")
    return str(path)


def _read_csv_rows(path):
    with open(path, encoding="utf-8") as fh:
        header, *rows = fh.read().strip().splitlines()
    return header.split(","), [r.split(",") for r in rows]


# ---------------------------------------------------------------------------
# criterion 1: analytic gradients against central finite differences


def _rand_dims(rng):
    return int(rng.integers(4, 11)), int(rng.integers(2, 7))


def _single_view_batch(rng):
    n, dz = _rand_dims(rng)
    d = int(rng.integers(2, 7))
    x = rng.normal(size=(n, d))
    return ContrastiveBatch(
        zs=[rng.normal(size=(n, dz))], xs=[x],
        x_sim=x @ rng.normal(size=(d, dz)),
        neg_mask=random_neg_mask(rng, n),
    )


def _two_view_batch(rng):
    n, dz = _rand_dims(rng)
    d1 = int(rng.integers(2, 7))
    # same feature dims half the time, exercising cross-view weights
    d2 = d1 if rng.uniform() < 0.5 else int(rng.integers(2, 7))
    return ContrastiveBatch(
        zs=[rng.normal(size=(n, dz)), rng.normal(size=(n, dz))],
        xs=[rng.normal(size=(n, d1)), rng.normal(size=(n, d2))],
        neg_mask=random_neg_mask(rng, n),
    )


def _single_label_targets(rng, n):
    """One-hot rows with every class populated at least twice."""
    k = int(rng.integers(2, max(3, n // 2 + 1)))
    ids = np.concatenate([np.repeat(np.arange(k), 2),
                          rng.integers(0, k, size=n - 2 * k)])
    return np.eye(k)[rng.permutation(ids)]


def _multi_label_targets(rng, n, c):
    """Binary labels where every column has 2..n-1 positives."""
    y = np.empty((n, c))
    for j in range(c):
        while True:
            col = rng.integers(0, 2, size=n).astype(float)
            if 2 <= col.sum() <= n - 1:
                y[:, j] = col
                break
    return y


def _err_cross_entropy(seed):
    rng = make_rng(1_000 + seed)
    n, c = _rand_dims(rng)
    y_hat = rng.uniform(0.05, 0.95, size=(n, c))
    y = rng.integers(0, 2, size=(n, c)).astype(float)
    _, grad = cross_entropy(y_hat, y)
    num = finite_diff_grad(lambda m: cross_entropy(m, y)[0], y_hat)
    return rel_error(grad, num)


def _err_unsup_single(seed, weighted):
    rng = make_rng(2_000 + seed)
    b = _single_view_batch(rng)
    xs = b.xs if weighted else None  # no raw features: plain InfoNCE

    def value(z):
        probe = ContrastiveBatch(zs=[z], xs=xs, x_sim=b.x_sim,
                                 neg_mask=b.neg_mask)
        return unsup_loss_single(probe)[0]

    _, grad = unsup_loss_single(ContrastiveBatch(b.zs, b.neg_mask, xs, b.x_sim))
    return rel_error(grad, finite_diff_grad(value, b.zs[0]))


def _err_unsup_multiview(seed, weighted):
    rng = make_rng(3_000 + seed)
    b = _two_view_batch(rng)
    xs = b.xs if weighted else None  # no raw features: plain InfoNCE

    def value(z1, z2):
        probe = ContrastiveBatch(zs=[z1, z2], xs=xs, neg_mask=b.neg_mask)
        return unsup_loss_multiview(probe)[0]

    z1, z2 = b.zs
    _, g1, g2 = unsup_loss_multiview(ContrastiveBatch(b.zs, b.neg_mask, xs))
    n1 = finite_diff_grad(lambda m: value(m, z2), z1)
    n2 = finite_diff_grad(lambda m: value(z1, m), z2)
    return rel_error(np.concatenate([g1.ravel(), g2.ravel()]),
                     np.concatenate([n1.ravel(), n2.ravel()]))


def _err_supcon(seed):
    rng = make_rng(4_000 + seed)
    n, dz = _rand_dims(rng)
    s = rng.normal(size=(n, dz))
    y = _single_label_targets(rng, n)  # one-hot: the indicator weights
    _, grad = weighted_sup_loss(s, y)
    return rel_error(grad,
                     finite_diff_grad(lambda m: weighted_sup_loss(m, y)[0], s))


def _err_weighted_sup(seed):
    rng = make_rng(5_000 + seed)
    n, dz = _rand_dims(rng)
    c = int(rng.integers(2, 7))
    s = rng.normal(size=(n, dz))
    y = _multi_label_targets(rng, n, c)
    _, grad = weighted_sup_loss(s, y)
    return rel_error(grad,
                     finite_diff_grad(lambda m: weighted_sup_loss(m, y)[0], s))


def _err_model_backward(seed):
    """Full objective l_c + alpha*l_u + beta*l_s through the network."""
    params, x, _, y0, rng = safe_model_instance(6_000 + seed)
    n = x.shape[0]
    y = _multi_label_targets(rng, n, y0.shape[1])
    proj = rng.normal(size=(x.shape[1], params.latent_dim))
    mask = random_neg_mask(rng, n)
    alpha, beta = 0.7, 0.4
    flat = params.flat.copy()

    def batch(z):
        return ContrastiveBatch(zs=[z], xs=[x], x_sim=x @ proj, neg_mask=mask)

    def objective(vec):
        params.flat[:] = vec
        z, _ = encode(params, x)
        y_hat, _ = classify(params, z)
        l_c = cross_entropy(y_hat, y)[0]
        l_u = unsup_loss_single(batch(z))[0]
        l_s = weighted_sup_loss(z, y)[0]
        return l_c + alpha * l_u + beta * l_s

    z, enc_cache = encode(params, x)
    y_hat, cls_cache = classify(params, z)
    _, d_yhat = cross_entropy(y_hat, y)
    _, d_u = unsup_loss_single(batch(z))
    _, d_s = weighted_sup_loss(z, y)
    grad = model_backward(params, enc_caches=[enc_cache], cls_cache=cls_cache,
                          d_yhat=d_yhat, d_z=[alpha * d_u + beta * d_s])
    num = finite_diff_grad(lambda m: objective(m.ravel()), flat.reshape(1, -1))
    params.flat[:] = flat
    return rel_error(grad, num.ravel())


def test_criterion_01_gradient_suite():
    t0 = time.perf_counter()
    checks = [
        ("cross_entropy", _err_cross_entropy),
        ("unsup_single_weighted", lambda s: _err_unsup_single(s, True)),
        ("unsup_single_unweighted", lambda s: _err_unsup_single(s, False)),
        ("unsup_multiview_weighted", lambda s: _err_unsup_multiview(s, True)),
        ("unsup_multiview_unweighted", lambda s: _err_unsup_multiview(s, False)),
        ("supcon", _err_supcon),
        ("weighted_sup", _err_weighted_sup),
        ("model_backward", _err_model_backward),
    ]
    worst = {name: max(fn(seed) for seed in range(50)) for name, fn in checks}
    elapsed = time.perf_counter() - t0
    peak = max(worst.values())
    ok = peak < GRAD_TOL and elapsed < 60.0
    _report(1, ok, f"gradient suite: max rel err {peak:.2e} over "
                   f"{50 * len(checks)} instances ({elapsed:.1f}s)")
    assert peak < GRAD_TOL, worst
    assert elapsed < 60.0


# ---------------------------------------------------------------------------
# criterion 2: weighted losses degenerate to their unweighted forms


def test_criterion_02_degenerations():
    # one-hot labels: the value against the pair-by-pair SupCon oracle, the
    # gradient (which the oracle lacks) against finite differences
    sup_diff = sup_grad_err = 0.0
    for seed in range(100):
        rng = make_rng(20_000 + seed)
        n, dz = _rand_dims(rng)
        s = rng.normal(size=(n, dz))
        one_hot = _single_label_targets(rng, n)
        vw, gw = weighted_sup_loss(s, one_hot)
        vi = ref_weighted_sup(s, one_hot, 1.0, indicator=True)
        sup_diff = max(sup_diff, abs(vw - vi))
        num = finite_diff_grad(lambda m: weighted_sup_loss(m, one_hot)[0], s)
        sup_grad_err = max(sup_grad_err, rel_error(gw, num))

    unsup_diff = 0.0
    for seed in range(100):
        rng = make_rng(21_000 + seed)
        n, dz = _rand_dims(rng)
        d = int(rng.integers(2, 7))
        base = rng.normal(size=d)
        b = ContrastiveBatch(
            zs=[rng.normal(size=(n, dz)), rng.normal(size=(n, dz))],
            xs=[np.outer(rng.uniform(0.1, 2.0, size=n), base),
                np.outer(rng.uniform(0.1, 2.0, size=n), base)],
            neg_mask=random_neg_mask(rng, n),
        )
        vw, gw1, gw2 = unsup_loss_multiview(b)
        vu, gu1, gu2 = unsup_loss_multiview(ContrastiveBatch(b.zs, b.neg_mask))
        unsup_diff = max(unsup_diff, abs(vw - vu),
                         float(np.abs(gw1 - gu1).max()),
                         float(np.abs(gw2 - gu2).max()))

    ok = (sup_diff <= EXACT_TOL and sup_grad_err < GRAD_TOL
          and unsup_diff <= EXACT_TOL)
    _report(2, ok, f"degenerations: one-hot sup diff vs SupCon oracle "
                   f"{sup_diff:.2e} (grad rel err vs finite differences "
                   f"{sup_grad_err:.2e}), identical-raw two-view diff "
                   f"{unsup_diff:.2e} (100 batches each)")
    assert sup_diff <= EXACT_TOL
    assert sup_grad_err < GRAD_TOL
    assert unsup_diff <= EXACT_TOL


# ---------------------------------------------------------------------------
# criterion 3: weight ranges on random valid inputs


def test_criterion_03_weight_ranges():
    # The weights the losses add to their logits, in that log form:
    # 0 <= log g <= 2, log(1/c) <= log sigma <= 0 on pairs sharing a
    # positive label, 0 <= log gamma <= log c on pairs that differ.
    rng = make_rng(30)
    trials = 10_000
    violations = 0
    checked = {"g": 0, "sigma": 0, "gamma": 0}
    for _ in range(trials):
        c = int(rng.integers(1, 13))
        y1 = rng.integers(0, 2, size=c).astype(float)
        y2 = rng.integers(0, 2, size=c).astype(float)
        j = int(rng.integers(0, c))
        y1[j] = y2[j] = 1.0  # a shared positive label makes the pair valid
        y3 = y1.copy()
        y3[j] = 0.0  # force at least one disagreement
        y = np.vstack([y1, y2, y3])
        log_sigma, log_gamma = _label_log_weights(y, ...)
        shares = ((y @ y.T) > 0) & ~np.eye(3, dtype=bool)
        differs = np.any(y[:, None, :] != y[None, :, :], axis=2)
        violations += int(np.sum(~((np.log(1.0 / c) <= log_sigma[shares])
                                   & (log_sigma[shares] <= 0.0))))
        violations += int(np.sum(~((0.0 <= log_gamma[differs])
                                   & (log_gamma[differs] <= np.log(c)))))
        checked["sigma"] += int(shares.sum())
        checked["gamma"] += int(differs.sum())

        dim = int(rng.integers(1, 9))
        u = rng.normal(size=dim)
        r = rng.uniform()
        if r < 0.05:
            v = rng.uniform(0.1, 3.0) * u
        elif r < 0.10:
            v = -rng.uniform(0.1, 3.0) * u
        elif r < 0.12:
            v = np.zeros(dim)
        else:
            v = rng.normal(size=dim)
        x = np.vstack([u, v])
        lw = ref_log_weight(x, x)
        violations += int(np.sum(~((0.0 <= lw) & (lw <= 2.0))))
        checked["g"] += lw.size

    ok = violations == 0 and min(checked.values()) >= trials
    _report(3, ok, f"weight ranges: {violations} violations over "
                   f"{checked['g']} log g, {checked['sigma']} log sigma and "
                   f"{checked['gamma']} log gamma entries ({trials} trials)")
    assert violations == 0
    assert min(checked.values()) >= trials


# ---------------------------------------------------------------------------
# criterion 4: unsupervised bound against the gaussian reference MI


def test_criterion_04_unsup_bound():
    t0 = time.perf_counter()
    sizes = [16, 64, 256]
    reports = check_unsup_bound(GaussianPairSpec(), BoundTrainSpec(), sizes)
    elapsed = time.perf_counter() - t0
    unsat = [r for r in reports if not r.satisfied]
    means = [float(np.mean([r.bound for r in reports if r.size == s]))
             for s in sizes]
    monotone = all(a <= b for a, b in zip(means, means[1:]))
    ok = not unsat and monotone and elapsed < 600.0
    _report(4, ok, "unsup bound: "
            f"{len(reports) - len(unsat)}/{len(reports)} satisfied, "
            f"means {[round(m, 3) for m in means]} for sizes {sizes} "
            f"({elapsed:.1f}s)")
    assert not unsat, unsat
    assert monotone, means
    assert elapsed < 600.0


# ---------------------------------------------------------------------------
# criterion 5: supervised bound per shared-label stratum


def test_criterion_05_sup_bound():
    t0 = time.perf_counter()
    reports = check_sup_bound(RingProtoSpec(), BoundTrainSpec(temperature=1.0))
    elapsed = time.perf_counter() - t0
    unsat = [r for r in reports if not r.satisfied]
    strata = sorted({r.stratum for r in reports})
    ok = bool(reports) and not unsat
    _report(5, ok, "sup bound: "
            f"{len(reports) - len(unsat)}/{len(reports)} satisfied across "
            f"strata {strata} ({elapsed:.1f}s)")
    assert reports
    assert not unsat, unsat


# ---------------------------------------------------------------------------
# criterion 6: combined objective beats plain cross-entropy on the
# scene-style benchmark (2407 samples, 6 labels, 120 labeled)


SCENE_PAIRS = {
    "synthetic": "scene-like",
    "n_samples": "2407",
    "n_features": "20",
    "n_classes": "6",
    "n_labeled": "120",
    "epochs": "200",
    "alpha": "0.2",
    "beta": "0.01",
    "base_lr": "1.0",
    "batch_size": "128",
    "neg_size": "512",
    "encoder_sizes": "32,16",
    "mode": "two-view",
    "view1_aug": "mask:0.25",
    "view2_aug": "mask:0.25",
    "data_seed": "0",
    "seeds": "0,1,2,3,4",
}


def _seed_mean_f1(pairs, method):
    cfg = resolve_config(pairs, {"method": method})
    ds = build_dataset(cfg)
    f1s = [run_training(cfg, seed, base=ds).report.f1 for seed in cfg.seeds]
    return float(np.mean(f1s)), f1s


def test_criterion_06_scene_style_ordering():
    t0 = time.perf_counter()
    hcl_mean, hcl_f1s = _seed_mean_f1(SCENE_PAIRS, "hcl")
    dnn_mean, dnn_f1s = _seed_mean_f1(SCENE_PAIRS, "dnn")
    elapsed = time.perf_counter() - t0
    margin = hcl_mean - dnn_mean
    ok = margin > 0 and elapsed < 600.0
    _report(6, ok, f"scene-style ordering: hcl F1 {hcl_mean:.4f} vs "
                   f"dnn F1 {dnn_mean:.4f}, margin {margin:+.4f} over "
                   f"5 seeds ({elapsed:.1f}s)")
    assert margin > 0, (hcl_f1s, dnn_f1s)
    assert elapsed < 600.0


# ---------------------------------------------------------------------------
# criterion 7: noise case study (two-view robustness, supervised stability)


NOISE_PAIRS = {
    "synthetic": "cluster",
    "n_samples": "500",
    "n_features": "48",
    "n_classes": "10",
    "n_labeled": "120",
    "epochs": "80",
    "seeds": "0,1,2",
    "base_lr": "1.0",
    "alpha": "1.0",
    "neg_size": "32",
    "batch_size": "64",
    "encoder_sizes": "32,16",
    "noise_levels": "0,0.25,0.5,0.75,1",
    "methods": "hcl-u@single-view,hcl-u@two-view,hcl-s@two-view",
}


def test_criterion_07_noise_case_study(tmp_path):
    t0 = time.perf_counter()
    pairs = dict(NOISE_PAIRS, out_dir=str(tmp_path))
    assert main(["noise-sweep", "--config", _write_cfg(tmp_path, pairs)]) == 0
    elapsed = time.perf_counter() - t0

    _, rows = _read_csv_rows(tmp_path / "noise_summary.csv")
    f1_mean = {(float(r[0]), r[1]): float(r[2]) for r in rows}
    two_view = f1_mean[(1.0, "hcl-u@two-view")]
    single = f1_mean[(1.0, "hcl-u@single-view")]
    sup_f1s = [v for (lvl, m), v in f1_mean.items() if m == "hcl-s@two-view"]
    spread = max(sup_f1s) - min(sup_f1s)

    ok = two_view > single and spread < 0.05
    _report(7, ok, f"noise case study: level-1.0 F1 two-view {two_view:.4f} "
                   f"vs single-view {single:.4f}; supervised spread "
                   f"{spread:.4f} across levels ({elapsed:.1f}s)")
    assert two_view > single
    assert spread < 0.05


# ---------------------------------------------------------------------------
# criterion 8: runtime scaling fits


PERF_PAIRS = {
    "synthetic": "cluster",
    "n_samples": "2048",
    "n_features": "10",
    "n_classes": "4",
    "encoder_sizes": "16,8",
}


def test_criterion_08_perf_scaling(tmp_path):
    t0 = time.perf_counter()
    pairs = dict(PERF_PAIRS, out_dir=str(tmp_path))
    assert main(["perf-sweep", "--config", _write_cfg(tmp_path, pairs)]) == 0
    elapsed = time.perf_counter() - t0

    with open(tmp_path / "perf_fits.json", encoding="utf-8") as fh:
        fits = json.load(fh)
    r2_train = fits["train_size"]["r_squared"]
    r2_neg = fits["neg_size"]["r_squared"]
    ok = r2_train >= 0.95 and r2_neg >= 0.95 and elapsed < 900.0
    _report(8, ok, f"perf scaling: train-size linear R2 {r2_train:.4f}, "
                   f"neg-size quadratic R2 {r2_neg:.4f} ({elapsed:.1f}s)")
    assert r2_train >= 0.95
    assert r2_neg >= 0.95
    assert elapsed < 900.0


# ---------------------------------------------------------------------------
# criterion 9: metrics against brute-force oracles


def test_criterion_09_metric_oracles():
    f1_mismatches = 0
    for seed in range(200):
        rng = make_rng(90_000 + seed)
        n = int(rng.integers(2, 41))
        c = int(rng.integers(1, 9))
        y = rng.integers(0, 2, size=(n, c)).astype(float)
        scores = rng.uniform(size=(n, c))
        want = ref_f1_micro(y, (scores > 0.5).astype(float))
        f1_mismatches += f1_score(scores, y) != want

    auc_diff = 0.0
    for seed in range(200):
        rng = make_rng(91_000 + seed)
        n = int(rng.integers(4, 41))
        c = int(rng.integers(1, 9))
        y = rng.integers(0, 2, size=(n, c)).astype(float)
        scores = rng.uniform(size=(n, c))
        per_label = per_label_auc(scores, y)
        refs = [ref_auc_pairwise(list(scores[:, j]), list(y[:, j]))
                for j in range(c)]
        for j, want in enumerate(refs):
            if want is None:
                auc_diff = max(auc_diff, 0.0 if np.isnan(per_label[j]) else 1.0)
            else:
                auc_diff = max(auc_diff, abs(per_label[j] - want))
        usable = [w for w in refs if w is not None]
        if usable:
            auc_diff = max(auc_diff,
                           abs(auc(scores, y) - float(np.mean(usable))))

    ok = f1_mismatches == 0 and auc_diff <= EXACT_TOL
    _report(9, ok, f"metric oracles: {f1_mismatches} F1 mismatches, "
                   f"max AUC diff {auc_diff:.2e} (200 instances each)")
    assert f1_mismatches == 0
    assert auc_diff <= EXACT_TOL


# ---------------------------------------------------------------------------
# criterion 10: repeated training runs agree byte-for-byte


REPRO_PAIRS = {
    "synthetic": "cluster",
    "n_samples": "240",
    "n_features": "12",
    "n_classes": "4",
    "n_labeled": "40",
    "epochs": "40",
    "seeds": "0,1",
    "method": "hcl",
    "neg_size": "16",
    "batch_size": "32",
    "base_lr": "1.0",
    "encoder_sizes": "12,8",
}


def test_criterion_10_reproducibility(tmp_path):
    cfg_path = _write_cfg(tmp_path, REPRO_PAIRS)
    dirs = [str(tmp_path / "a"), str(tmp_path / "b")]
    for out in dirs:
        assert main(["train", "--config", cfg_path, "--out", out]) == 0
    blobs = [open(os.path.join(out, "metrics-hcl.csv"), "rb").read()
             for out in dirs]
    ok = blobs[0] == blobs[1]
    _report(10, ok, f"reproducibility: metric CSVs byte-identical across "
                    f"repeated runs ({len(blobs[0])} bytes)")
    assert blobs[0] == blobs[1]
