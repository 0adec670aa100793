"""MI estimators, synthetic families, and the empirical bound harnesses."""

import gc
import math
import weakref

import numpy as np
import pytest

import hcl.losses as losses_mod
import hcl.mi as mi
from hcl.errors import ContractError, DegenerateBatchError, NumericError
from hcl.mi import (
    BoundReport,
    BoundTrainSpec,
    GaussianPairSpec,
    RingProtoSpec,
    _stratum_terms,
    check_sup_bound,
    check_unsup_bound,
    discrete_mi,
    gaussian_mi,
    make_gaussian_pair,
    make_ring_dataset,
    quantize_to_prototypes,
    reports_to_csv,
)
from hcl.losses import sup_labels
from hcl.numeric import make_rng
from hcl.train import train_step

from reference import (
    quantized_gaussian_table,
    ref_discrete_mi,
    ref_stratum_pair_tables,
    ref_stratum_sup,
)


# ---------------------------------------------------------------------------
# discrete MI


def test_joint_table_rejects_negative_entries():
    with pytest.raises(ContractError, match=">= 0"):
        discrete_mi([[0.5, 0.6], [-0.1, 0.0]])


def test_joint_table_rejects_bad_total():
    with pytest.raises(ContractError, match="sum to 1"):
        discrete_mi([[0.25, 0.25], [0.25, 0.1]])


def test_discrete_mi_independent_is_exactly_zero():
    # dyadic marginals make p == px * py without rounding
    px = np.array([0.25, 0.75])
    py = np.array([0.5, 0.25, 0.25])
    assert discrete_mi(np.outer(px, py)) == 0.0


def test_discrete_mi_perfect_correlation_is_ln_alphabet():
    assert abs(discrete_mi(np.eye(2) / 2) - math.log(2)) < 1e-12
    assert abs(discrete_mi(np.eye(5) / 5) - math.log(5)) < 1e-12


def test_discrete_mi_matches_loop_oracle():
    rng = make_rng(11)
    for _ in range(25):
        shape = (int(rng.integers(2, 6)), int(rng.integers(2, 6)))
        p = rng.uniform(size=shape)
        p[rng.uniform(size=shape) < 0.2] = 0.0
        p[0, 0] += 0.1  # keep the total positive
        p /= p.sum()
        got = discrete_mi(p)
        assert got >= 0.0
        assert abs(got - max(ref_discrete_mi(p), 0.0)) < 1e-12
        # symmetry in the two alphabets
        assert abs(got - discrete_mi(p.T)) < 1e-12


def test_discrete_mi_entropy_identity():
    rng = make_rng(12)
    p = rng.uniform(size=(4, 4))
    p /= p.sum()

    def entropy(q):
        q = q[q > 0]
        return float(-(q * np.log(q)).sum())

    hx = entropy(p.sum(axis=1))
    hy = entropy(p.sum(axis=0))
    hxy = entropy(p.ravel())
    assert abs(discrete_mi(p) - (hx + hy - hxy)) < 1e-12


def test_discrete_mi_accepts_joint_table():
    # any 2-D array-like is a joint table
    table = (np.eye(3) / 3).tolist()
    assert abs(discrete_mi(table) - math.log(3)) < 1e-12


# ---------------------------------------------------------------------------
# Gaussian MI and its quantized cross-check


def test_gaussian_mi_values():
    assert gaussian_mi(0.0) == 0.0
    assert abs(gaussian_mi(0.9) - (-0.5 * math.log(1.0 - 0.81))) < 1e-15
    assert gaussian_mi(-0.6) == gaussian_mi(0.6)


def test_gaussian_mi_rejects_unit_correlation():
    for rho in (1.0, -1.0, 1.5):
        with pytest.raises(ContractError, match="rho"):
            gaussian_mi(rho)


def test_quantized_gaussian_table_matches_closed_form():
    for rho in (0.0, 0.3, 0.6, 0.9):
        q = discrete_mi(quantized_gaussian_table(rho))
        assert abs(q - gaussian_mi(rho)) < 0.02
    # quantization only discards information
    assert discrete_mi(quantized_gaussian_table(0.9)) < gaussian_mi(0.9)


def test_quantized_gaussian_table_validation():
    with pytest.raises(ContractError, match="bins"):
        quantized_gaussian_table(0.5, bins=8)
    with pytest.raises(ContractError, match="rho"):
        quantized_gaussian_table(1.0)


# ---------------------------------------------------------------------------
# Reports


def test_bound_report_derived_fields():
    r = BoundReport(size=16, seed=0, loss=1.0, bound=1.5, reference_mi=2.0)
    assert r.satisfied and abs(r.gap - 0.5) < 1e-15
    r = BoundReport(size=16, seed=0, loss=1.0, bound=2.1, reference_mi=2.0)
    assert not r.satisfied
    # within tolerance counts as satisfied
    r = BoundReport(size=16, seed=0, loss=1.0, bound=2.04, reference_mi=2.0)
    assert r.satisfied


def test_bound_report_nan_bound_is_unsatisfied():
    r = BoundReport(size=16, seed=3, loss=float("nan"), bound=float("nan"),
                    reference_mi=2.0)
    assert not r.satisfied
    assert math.isnan(r.gap)


def test_bound_report_validation():
    with pytest.raises(ContractError, match="tolerance"):
        BoundReport(size=16, seed=0, loss=1.0, bound=1.0, reference_mi=2.0,
                    tolerance=0.0)


@pytest.mark.parametrize("field, message", [
    ({"epochs": 0}, "epochs and eval_batches"),
    ({"eval_batches": 0}, "epochs and eval_batches"),
    ({"n_train": 1}, "n_train >= 2"),
    ({"n_eval": 1}, "n_eval >= 2"),
    ({"seeds": ()}, "at least one seed"),
    ({"tolerance": 0.0}, "tolerance must be > 0"),
])
def test_bound_train_spec_validation(field, message):
    with pytest.raises(ContractError, match=message):
        BoundTrainSpec(**field)


def test_reports_to_csv_layout():
    reports = [
        BoundReport(size=16, seed=0, loss=1.25, bound=1.5, reference_mi=2.0),
        BoundReport(size=32, seed=1, loss=0.5, bound=3.0, reference_mi=2.0,
                    stratum=2),
    ]
    text = reports_to_csv(reports, "unsup_loss")
    lines = text.splitlines()
    assert lines[0] == "size,seed,stratum,unsup_loss,bound,reference_mi,gap,satisfied"
    assert lines[1] == "16,0,,1.25,1.5,2.0,0.5,true"
    assert lines[2].startswith("32,1,2,0.5,3.0,2.0,") and lines[2].endswith("false")
    assert text.endswith("\n")


# ---------------------------------------------------------------------------
# Gaussian pair family


def test_gaussian_pair_spec_reference_mi():
    spec = GaussianPairSpec(latent_dim=3, signal1=1.0, signal2=2.0,
                            noise1=0.5, noise2=0.1)
    r1 = 1.0 / math.hypot(1.0, 0.5)
    r2 = 2.0 / math.hypot(2.0, 0.1)
    assert abs(spec.rho() - r1 * r2) < 1e-15
    assert abs(spec.reference_mi() - 3 * gaussian_mi(r1 * r2)) < 1e-12


def test_gaussian_pair_spec_validation():
    with pytest.raises(ContractError, match="latent_dim"):
        GaussianPairSpec(latent_dim=0)
    with pytest.raises(ContractError, match="latent_dim"):
        GaussianPairSpec(latent_dim=9, d1=8)
    with pytest.raises(ContractError, match="noise"):
        GaussianPairSpec(noise1=0.0)


def replay_gaussian_pair(spec, n, seed):
    """The latent and view maps ``make_gaussian_pair`` draws from ``seed``,
    replayed in its draw order: latent, view-1 map, view-2 map."""
    rng = make_rng(seed)
    u = rng.normal(size=(n, spec.latent_dim))
    maps = [np.linalg.qr(rng.normal(size=(d, spec.latent_dim)))[0].T
            for d in (spec.d1, spec.d2)]
    return u, maps


def ring_ids(labels):
    """A ring row's prototype id: its positive label whose cyclic successor
    is positive too."""
    return np.argmax(labels * np.roll(labels, -1, axis=1), axis=1)


def test_make_gaussian_pair_shapes_and_maps():
    spec = GaussianPairSpec(latent_dim=4, d1=8, d2=6)
    ds = make_gaussian_pair(spec, 200, make_rng(5))
    _, view_maps = replay_gaussian_pair(spec, 200, 5)
    assert ds.views[0].shape == (200, 8)
    assert ds.views[1].shape == (200, 6)
    assert ds.labels.shape == (200, 2)
    assert np.array_equal(ds.labels.sum(axis=1), np.ones(200))
    for vm, d in zip(view_maps, (8, 6)):
        assert vm.shape == (4, d)
        assert np.allclose(vm @ vm.T, np.eye(4), atol=1e-12)


def test_make_gaussian_pair_latent_recovery():
    # projecting a view back through its orthonormal map recovers the
    # latent up to the noise level
    spec = GaussianPairSpec(latent_dim=4, noise1=0.01, noise2=0.01)
    ds = make_gaussian_pair(spec, 500, make_rng(6))
    u, view_maps = replay_gaussian_pair(spec, 500, 6)
    back = ds.views[0] @ view_maps[0].T
    assert np.abs(back - u).max() < 0.06


def test_make_gaussian_pair_deterministic():
    spec = GaussianPairSpec()
    a = make_gaussian_pair(spec, 50, make_rng(7))
    b = make_gaussian_pair(spec, 50, make_rng(7))
    assert np.array_equal(a.views[0], b.views[0])
    assert np.array_equal(a.views[1], b.views[1])
    assert np.array_equal(a.labels, b.labels)
    with pytest.raises(ContractError, match="n >= 2"):
        make_gaussian_pair(spec, 1, make_rng(7))


# ---------------------------------------------------------------------------
# Ring prototype family


def test_ring_spec_prototypes_on_circle():
    spec = RingProtoSpec(c=6, radius=2.0)
    protos = spec.prototypes()
    assert protos.shape == (6, 2)
    assert np.allclose(np.linalg.norm(protos, axis=1), 2.0, atol=1e-12)
    with pytest.raises(ContractError, match="c >= 3"):
        RingProtoSpec(c=2)
    with pytest.raises(ContractError, match="noise_sd"):
        RingProtoSpec(noise_sd=-0.1)


def test_make_ring_dataset_labels_follow_ids():
    spec = RingProtoSpec()
    ds = make_ring_dataset(spec, 60, make_rng(9))
    ids = ring_ids(ds.labels)
    assert ds.labels.shape == (60, 6)
    assert np.array_equal(ds.labels.sum(axis=1), np.full(60, 2.0))
    assert (ds.labels[np.arange(60), ids] == 1.0).all()
    assert (ds.labels[np.arange(60), (ids + 1) % 6] == 1.0).all()
    # balanced prototype usage
    assert np.array_equal(np.bincount(ids, minlength=6), np.full(6, 10))
    with pytest.raises(ContractError, match="n >="):
        make_ring_dataset(spec, 5, make_rng(9))


def test_quantize_recovers_ids_at_low_noise():
    spec = RingProtoSpec(noise_sd=0.02)
    ds = make_ring_dataset(spec, 120, make_rng(10))
    got = quantize_to_prototypes(ds.views[0], spec.prototypes())
    assert np.array_equal(got, ring_ids(ds.labels))


# ---------------------------------------------------------------------------
# Stratified supervised pieces against loop oracles


def test_stratum_sup_losses_match_loop_oracle():
    rng = make_rng(31)
    for _ in range(15):
        n = int(rng.integers(6, 14))
        ds = make_ring_dataset(RingProtoSpec(c=4), max(n, 8), rng)
        z = rng.normal(size=(ds.n, 3))
        got = _stratum_terms(z, ds.labels, ring_ids(ds.labels), 6, 0.7)
        want = ref_stratum_sup(z, ds.labels, 0.7)
        assert set(got) == set(want)
        for eps in want:
            assert abs(got[eps][0] - want[eps][0]) < 1e-10
            assert abs(got[eps][1] - want[eps][1]) < 1e-12


@pytest.mark.parametrize("c", [3, 6])
def test_ring_labels_take_label_weights(c):
    # every ring row holds two labels, so the strata's label half takes
    # the label weights with no forcing
    labels = make_ring_dataset(RingProtoSpec(c=c), 4 * c, make_rng(33)).labels
    assert not losses_mod._is_one_hot(labels)
    assert sup_labels(labels).log_gamma is not None


def test_stratum_reference_mi_matches_loop_oracle():
    rng = make_rng(32)
    ds = make_ring_dataset(RingProtoSpec(), 48, rng)
    ids = ring_ids(ds.labels)
    z = rng.normal(size=(ds.n, 3))
    got = _stratum_terms(z, ds.labels, ids, 6, 1.0)
    want = {eps: max(ref_discrete_mi(t), 0.0)
            for eps, t in ref_stratum_pair_tables(ids, ds.labels, 6).items()}
    assert set(got) == set(want)
    for eps in want:
        assert abs(got[eps][2] - want[eps]) < 1e-12


def test_ring_reference_mi_near_analytic_values():
    # same-prototype pairs identify the prototype (ln 6); adjacent pairs
    # leave a two-way ambiguity (ln 6 - ln 2 = ln 3)
    ds = make_ring_dataset(RingProtoSpec(), 600, make_rng(33))
    refs = _stratum_terms(ds.views[0], ds.labels, ring_ids(ds.labels), 6, 1.0)
    assert abs(refs[2][2] - math.log(6)) < 0.05
    assert abs(refs[1][2] - math.log(3)) < 0.05


# ---------------------------------------------------------------------------
# Bound harnesses (small protocols)


SMALL_UNSUP = BoundTrainSpec(epochs=80, n_train=192, n_eval=256,
                             eval_batches=4, seeds=(0, 1))


def test_check_unsup_bound_small_run():
    reports = check_unsup_bound(GaussianPairSpec(), SMALL_UNSUP, [8, 32])
    assert len(reports) == 4
    assert [r.size for r in reports] == [8, 8, 32, 32]
    assert all(r.satisfied for r in reports)
    assert all(math.isfinite(r.bound) for r in reports)
    ref = GaussianPairSpec().reference_mi()
    assert all(r.reference_mi == ref for r in reports)
    # larger pools tighten the estimate on this family
    assert np.mean([r.bound for r in reports[2:]]) > np.mean(
        [r.bound for r in reports[:2]]
    )


def test_check_unsup_bound_zero_signal():
    spec = GaussianPairSpec(signal1=0.0, signal2=0.0)
    assert spec.reference_mi() == 0.0
    reports = check_unsup_bound(spec, SMALL_UNSUP, [8])
    # no shared signal: the held-out loss cannot beat chance level, so the
    # bound stays at or below zero(+tolerance)
    assert all(r.satisfied for r in reports)
    assert all(r.bound <= 0.05 for r in reports)


def test_check_unsup_bound_divergence_reports_nan(monkeypatch):
    def boom(*args, **kwargs):
        raise NumericError("non-finite gradient for parameter 'e1.w0'")

    monkeypatch.setattr(mi, "train_step", boom)
    reports = check_unsup_bound(GaussianPairSpec(), SMALL_UNSUP, [8])
    assert len(reports) == 2
    assert all(math.isnan(r.bound) and not r.satisfied for r in reports)


def test_check_sup_bound_divergence_keeps_finished_seeds(monkeypatch):
    # seed 1 diverges at its first step; seed 0's strata are kept as they
    # are, and seed 1 gets one unsatisfied NaN report with no stratum
    spec = BoundTrainSpec(temperature=1.0, epochs=20, n_train=96, n_eval=128,
                          seeds=(0, 1))
    calls = []

    def step_then_boom(*args, **kwargs):
        calls.append(1)
        if len(calls) > spec.epochs:
            raise NumericError("non-finite gradient for parameter 'e1.w0'")
        return train_step(*args, **kwargs)

    monkeypatch.setattr(mi, "train_step", step_then_boom)
    reports = check_sup_bound(RingProtoSpec(), spec)
    monkeypatch.undo()
    finished = check_sup_bound(RingProtoSpec(), BoundTrainSpec(
        temperature=1.0, epochs=20, n_train=96, n_eval=128, seeds=(0,)))
    assert reports[:-1] == finished and len(finished) == 2
    diverged = reports[-1]
    assert (diverged.seed, diverged.size, diverged.stratum) == (1, 0, None)
    assert all(math.isnan(v) for v in (diverged.loss, diverged.bound,
                                       diverged.reference_mi))
    assert not diverged.satisfied


def test_check_unsup_bound_validation(monkeypatch):
    # every size is checked before the first cell trains
    steps = []

    def counted_step(*args, **kwargs):
        steps.append(1)
        return train_step(*args, **kwargs)

    monkeypatch.setattr(mi, "train_step", counted_step)
    with pytest.raises(ContractError, match="sizes"):
        check_unsup_bound(GaussianPairSpec(), SMALL_UNSUP, [])
    with pytest.raises(ContractError, match="n_train"):
        check_unsup_bound(GaussianPairSpec(), SMALL_UNSUP, [8, 512])
    assert len(steps) == 0


def test_check_sup_bound_small_run():
    spec = BoundTrainSpec(temperature=1.0, epochs=80, n_train=192,
                          n_eval=256, seeds=(0, 1))
    reports = check_sup_bound(RingProtoSpec(), spec)
    strata = {(r.seed, r.stratum) for r in reports}
    assert strata == {(0, 1), (0, 2), (1, 1), (1, 2)}
    assert all(r.satisfied for r in reports)
    for r in reports:
        want = math.log(3) if r.stratum == 1 else math.log(6)
        assert abs(r.reference_mi - want) < 0.1
        assert math.isfinite(r.bound)


@pytest.mark.parametrize("fails", [False, True])
def test_check_sup_bound_drops_the_label_half_however_it_ends(monkeypatch,
                                                              fails):
    # each step makes its label half afresh and nothing keeps it: once the
    # check's cells are done, whether they finished or the second step
    # raised, no label half the steps made is alive
    made, engine = [], losses_mod._sup_engine

    def spy(s, labels, tau):
        made.append(weakref.ref(labels))
        return engine(s, labels, tau)

    def step(*args, **kwargs):
        if fails and made:
            raise DegenerateBatchError("injected")
        return train_step(*args, **kwargs)

    monkeypatch.setattr(losses_mod, "_sup_engine", spy)
    monkeypatch.setattr(mi, "train_step", step)
    spec = BoundTrainSpec(epochs=2, n_train=64, n_eval=64, seeds=(0,))
    if fails:
        with pytest.raises(DegenerateBatchError, match="injected"):
            check_sup_bound(RingProtoSpec(), spec)
    else:
        assert check_sup_bound(RingProtoSpec(), spec)
    assert len(made) == (1 if fails else spec.epochs)
    gc.collect()
    assert all(ref() is None for ref in made)


@pytest.mark.parametrize("check", ["unsup", "sup"])
def test_bound_checks_reraise_a_failed_cell_unchanged(monkeypatch, check):
    # an error that is not a divergence stops the check at the first step:
    # the very error comes out, its cell is not retried and no later cell
    # runs
    err = DegenerateBatchError("injected")
    calls = []

    def boom(*args, **kwargs):
        calls.append(1)
        raise err

    monkeypatch.setattr(mi, "train_step", boom)
    with pytest.raises(DegenerateBatchError) as caught:
        if check == "unsup":
            check_unsup_bound(GaussianPairSpec(), SMALL_UNSUP, [8, 32])
        else:
            check_sup_bound(RingProtoSpec(), BoundTrainSpec(
                epochs=2, n_train=64, n_eval=64, seeds=(0, 1)))
    assert caught.value is err and str(caught.value) == "injected"
    assert calls == [1]
