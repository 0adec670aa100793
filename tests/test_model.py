"""Model stack: initialization, forward heads, exact backprop, checkpoints."""

import base64
import json
import re
import warnings

import numpy as np
import pytest
from scipy.special import expit

from hcl.errors import ContractError, IngestionError, ShapeError
from hcl.ioutil import json_text
from hcl.losses import cross_entropy
from hcl.model import (
    LayerStack,
    ModelParams,
    classify,
    encode,
    init_params,
    load_checkpoint,
    model_backward,
    named_parameters,
    save_checkpoint,
)
from hcl.numeric import make_rng
from hcl.optimizer import OptimizerState, lars_step

from builders import safe_model_instance
from reference import finite_diff_grad, rel_error


def small_params(seed=0, **kw):
    return init_params(make_rng(seed), encoder_sizes=[[4, 3, 2]],
                       classifier_sizes=[2, 3], **kw)


def test_init_glorot_bounds_and_zero_biases():
    rng = make_rng(0)
    params = init_params(rng, [[3, 3, 3]], [3, 3])
    for name, arr in named_parameters(params).items():
        if ".w" in name:
            # fan_in = fan_out = 3 gives limit exactly 1
            assert float(np.abs(arr).max()) < 1.0
        else:
            assert not arr.any()


def test_init_deterministic_per_seed():
    a = named_parameters(small_params(7))
    b = named_parameters(small_params(7))
    c = named_parameters(small_params(8))
    assert all(np.array_equal(a[k], b[k]) for k in a)
    assert any(not np.array_equal(a[k], c[k]) for k in a)


def test_init_rejects_bad_sizes():
    with pytest.raises(ContractError):
        init_params(make_rng(0), [[4]], [4, 2])
    with pytest.raises(ContractError):
        init_params(make_rng(0), [[4, 0]], [0, 2])


def test_model_params_dimension_checks():
    rng = make_rng(1)
    with pytest.raises(ShapeError, match="classifier"):
        init_params(rng, [[4, 3]], [5, 2])
    with pytest.raises(ShapeError, match="share an output dimension"):
        init_params(rng, [[4, 3], [4, 2]], [6, 2])
    # two-view classifier consumes the concatenation
    init_params(rng, [[4, 3], [5, 3]], [6, 2])


@pytest.mark.parametrize("n_encoders", [0, 3])
def test_model_params_needs_one_or_two_encoders(n_encoders):
    stack = LayerStack(weights=[np.eye(2)], biases=[np.zeros(2)])
    with pytest.raises(ContractError, match=f"1 or 2 view encoders, got {n_encoders}"):
        ModelParams(encoders=[stack] * n_encoders, classifier=LayerStack(
            weights=[np.zeros((2 * n_encoders, 1))], biases=[np.zeros(1)]))


def test_model_params_copies_the_stacks_passed_in():
    # one stack passed for both views still gives two encoders of their own
    stack = LayerStack(weights=[np.eye(2)], biases=[np.zeros(2)])
    params = ModelParams(encoders=[stack, stack], classifier=LayerStack(
        weights=[np.ones((4, 1))], biases=[np.zeros(1)]))
    lars_step(params, np.ones_like(params.flat), OptimizerState())
    assert np.array_equal(stack.weights[0], np.eye(2))
    assert not stack.biases[0].any()
    e1, e2 = params.encoders
    assert e1 is not stack and e2 is not stack
    assert not np.shares_memory(e1.weights[0], e2.weights[0])
    assert np.array_equal(e1.weights[0], e2.weights[0])
    assert not np.array_equal(e1.weights[0], np.eye(2))


def _built(how, tmp_path):
    if how == "init":
        return init_params(make_rng(4), [[4, 3, 2], [5, 2]], [4, 3, 2])
    if how == "checkpoint":
        path = str(tmp_path / "model.ckpt")
        save_checkpoint(_built("init", tmp_path), path)
        return load_checkpoint(path)[0]
    rng = make_rng(5)
    return ModelParams(
        encoders=[LayerStack(weights=[rng.normal(size=(3, 4)),
                                      rng.normal(size=(4, 2))],
                             biases=[np.zeros(4), np.arange(2.0)])],
        classifier=LayerStack(weights=[rng.normal(size=(2, 3))],
                              biases=[np.ones(3)], output_activation="sigmoid"))


@pytest.mark.parametrize("how", ["init", "checkpoint", "hand-built"])
def test_parameters_tile_the_arena(tmp_path, how):
    params = _built(how, tmp_path)
    flat = params.flat
    assert flat.dtype == np.float64 and flat.flags.c_contiguous
    held = [a for stack in [*params.encoders, params.classifier]
            for w, b in zip(stack.weights, stack.biases) for a in (w, b)]
    named = named_parameters(params)
    assert len(held) == len(named)
    offset = 0
    for arr, (name, view) in zip(held, named.items()):
        for a in (arr, view):
            assert np.shares_memory(a, flat), name
            assert a.flags.c_contiguous, name
            # in order, with no gap and no overlap
            assert a.ctypes.data == flat.ctypes.data + offset * flat.itemsize, name
        assert arr.shape == view.shape
        offset += arr.size
    assert offset == flat.size
    before = [a.copy() for a in held]
    lars_step(params, np.ones_like(flat), OptimizerState())
    # the step moved the arrays the stacks themselves hold
    for arr, old, name in zip(held, before, named):
        assert not np.array_equal(arr, old), name
    with pytest.raises(ShapeError, match="buffer"):
        named_parameters(params, flat[1:])


def test_encode_identity_layer_passes_through():
    stack = LayerStack(weights=[np.eye(4)], biases=[np.zeros(4)])
    params = ModelParams(encoders=[stack], classifier=LayerStack(
        weights=[np.zeros((4, 2))], biases=[np.zeros(2)],
        output_activation="sigmoid"))
    x = make_rng(2).normal(size=(5, 4))
    z, _ = encode(params, x)
    assert np.array_equal(z, x)


def test_encode_second_view_requires_encoder():
    params = small_params()
    with pytest.raises(ContractError):
        encode(params, np.zeros((1, 4)), view=2)


def test_classify_sigmoid_extreme_logits_safe():
    stack = LayerStack(weights=[np.array([[1.0, 1.0]])], biases=[np.array([1000.0, -2000.0])],
                       output_activation="sigmoid")
    params = ModelParams(
        encoders=[LayerStack(weights=[np.eye(1)], biases=[np.zeros(1)])],
        classifier=stack)
    with np.errstate(over="raise"):
        y, _ = classify(params, np.array([[1000.0]]))
    assert 0.0 <= y[0, 1] < 1e-12
    assert 1.0 - 1e-12 < y[0, 0] <= 1.0
    assert np.all(np.isfinite(y))


def _sigmoid_head(pre: np.ndarray) -> np.ndarray:
    """The sigmoid output of a one-unit identity layer fed ``pre``."""
    stack = LayerStack(weights=[np.eye(1)], biases=[np.zeros(1)],
                       output_activation="sigmoid")
    params = ModelParams(
        encoders=[LayerStack(weights=[np.eye(1)], biases=[np.zeros(1)])],
        classifier=stack)
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        y, _ = classify(params, pre.reshape(-1, 1))
    return y[:, 0]


def test_sigmoid_head_matches_expit():
    # the numpy sigmoid may differ from scipy's expit in its last bits
    # (numpy's exp is not libm's); both saturate to exactly 0 and 1
    rng = make_rng(11)
    pre = np.concatenate([rng.normal(size=4000) * 30.0,
                          rng.uniform(-760.0, 760.0, size=4000)])
    got, want = _sigmoid_head(pre), expit(pre)
    scale = np.where(want > 0.0, want, 1.0)
    assert float(np.max(np.abs(got - want) / scale)) <= 1e-15
    special = np.array([0.0, 800.0, -800.0, np.inf, -np.inf])
    assert _sigmoid_head(special).tobytes() == expit(special).tobytes()


def test_classify_softmax_rows_sum_to_one():
    rng = make_rng(3)
    params = init_params(rng, [[4, 3]], [3, 5], classifier_activation="softmax")
    z, _ = encode(params, rng.normal(size=(7, 4)) * 100.0)
    y, _ = classify(params, z)
    assert np.all(np.abs(y.sum(axis=1) - 1.0) < 1e-12)
    assert np.all(y >= 0.0)


@pytest.mark.parametrize("multiclass", [False, True])
def test_backward_matches_finite_differences_classifier_path(multiclass):
    params, x, _, y, _ = safe_model_instance(10 + multiclass, multiclass=multiclass)
    flat = params.flat.copy()

    def objective(vec):
        params.flat[:] = vec
        z, _ = encode(params, x)
        y_hat, _ = classify(params, z)
        return cross_entropy(y_hat, y)[0]

    z, enc_cache = encode(params, x)
    y_hat, cls_cache = classify(params, z)
    _, d_yhat = cross_entropy(y_hat, y)
    grad = model_backward(params, enc_caches=[enc_cache], cls_cache=cls_cache,
                          d_yhat=d_yhat)
    num = finite_diff_grad(lambda m: objective(m.ravel()), flat.reshape(1, -1))
    params.flat[:] = flat  # restore
    assert rel_error(grad, num.ravel()) < 1e-5


def test_backward_direct_embedding_gradient():
    params, x, _, _, rng = safe_model_instance(12)
    flat = params.flat.copy()
    w = rng.normal(size=(x.shape[0], params.latent_dim))

    def objective(vec):
        params.flat[:] = vec
        z, _ = encode(params, x)
        return float(np.sum(w * z * z))

    z, enc_cache = encode(params, x)
    grad = model_backward(params, enc_caches=[enc_cache], d_z=[2.0 * w * z])
    num = finite_diff_grad(lambda m: objective(m.ravel()), flat.reshape(1, -1))
    params.flat[:] = flat
    assert rel_error(grad, num.ravel()) < 1e-5
    # classifier untouched on this path
    assert not named_parameters(params, grad)["cls.w0"].any()


def test_backward_two_view_classifier_subset_rows():
    params, x1, x2, y, _ = safe_model_instance(13, two_view=True)
    flat = params.flat.copy()
    rows = np.array([0, 2, 3])

    def objective(vec):
        params.flat[:] = vec
        z1, _ = encode(params, x1, view=1)
        z2, _ = encode(params, x2, view=2)
        s = np.hstack([z1, z2])[rows]
        y_hat, _ = classify(params, s)
        return cross_entropy(y_hat, y[rows])[0]

    z1, c1 = encode(params, x1, view=1)
    z2, c2 = encode(params, x2, view=2)
    s = np.hstack([z1, z2])[rows]
    y_hat, cc = classify(params, s)
    _, d_yhat = cross_entropy(y_hat, y[rows])
    grad = model_backward(params, enc_caches=[c1, c2], cls_cache=cc,
                          d_yhat=d_yhat, classifier_rows=rows)
    num = finite_diff_grad(lambda m: objective(m.ravel()), flat.reshape(1, -1))
    params.flat[:] = flat
    assert rel_error(grad, num.ravel()) < 1e-5


def _backward_by_recomputed_pre(stack, x, d_out, relu_on):
    """Each layer's weight and bias gradient of an identity-output stack,
    masking by its recomputed pre-activation: ``relu_on(pre)``."""
    inputs, pres, h = [], [], x
    for w, b in zip(stack.weights, stack.biases):
        inputs.append(h)
        pres.append(h @ w + b)
        h = np.maximum(pres[-1], 0.0)
    grads, d_pre = [], d_out
    for i in range(len(stack.weights) - 1, -1, -1):
        if i != len(stack.weights) - 1:
            d_pre = d_pre * relu_on(pres[i])
        grads[:0] = [inputs[i].T @ d_pre, d_pre.sum(axis=0)]
        d_pre = d_pre @ stack.weights[i].T
    return grads


def test_relu_mask_at_the_kink_matches_the_pre_activation_mask():
    # hidden unit 1 of layer 0 sits exactly at 0.0 on the rows whose first
    # two features are equal, and hidden unit 2 of layer 1 on every row:
    # the mask read off the forward record (acts[i + 1] > 0) is pre > 0
    params = init_params(make_rng(5), [[3, 4, 3, 2]], [2, 2])
    enc = params.encoders[0]
    enc.weights[0][:, 1] = [1.0, -1.0, 0.0]
    enc.biases[0][1] = 0.0
    enc.weights[1][:, 2] = 0.0
    enc.biases[1][2] = 0.0
    x = make_rng(6).normal(size=(6, 3))
    x[::2, 1] = x[::2, 0]
    assert not (x[::2] @ enc.weights[0][:, 1]).any()
    z, acts = encode(params, x)
    assert acts[-1] is z and acts[0] is x and len(acts) == 4
    d_z = make_rng(7).normal(size=z.shape)
    grad = named_parameters(
        params, model_backward(params, enc_caches=[acts], d_z=[d_z]))
    got = [grad[f"e1.{p}{i}"] for i in range(3) for p in "wb"]
    want = _backward_by_recomputed_pre(enc, x, d_z, lambda pre: pre > 0.0)
    for g, w in zip(got, want):
        assert np.array_equal(g, w)
    assert not grad["e1.w1"][:, 2].any() and grad["e1.b1"][2] == 0.0
    assert not grad["e1.w2"][2].any()
    # the kink rows matter: a mask that passes 0.0 gives other gradients
    leaky = _backward_by_recomputed_pre(enc, x, d_z, lambda pre: pre >= 0.0)
    assert not all(np.array_equal(g, w) for g, w in zip(got, leaky))


def test_backward_needs_one_cache_and_d_z_per_view():
    params, x1, x2, _, _ = safe_model_instance(13, two_view=True)
    z1, c1 = encode(params, x1, view=1)
    z2, c2 = encode(params, x2, view=2)
    with pytest.raises(ContractError, match="one encoder cache per view"):
        model_backward(params, enc_caches=[c1], d_z=[z1, z2])
    with pytest.raises(ContractError, match="one d_z per view"):
        model_backward(params, enc_caches=[c1, c2], d_z=[z1])
    one_view, x, _, _, _ = safe_model_instance(12)
    z, cache = encode(one_view, x)
    with pytest.raises(ContractError, match="one d_z per view"):
        model_backward(one_view, enc_caches=[cache], d_z=[z, z])


def test_backward_zero_upstream_gives_zero_grads():
    params, x, _, y, _ = safe_model_instance(14)
    z, enc_cache = encode(params, x)
    y_hat, cls_cache = classify(params, z)
    grad = model_backward(params, enc_caches=[enc_cache], cls_cache=cls_cache,
                          d_yhat=np.zeros_like(y_hat))
    assert float(np.abs(grad).max()) < 1e-8


def test_backward_perfect_predictions_zero_classifier_grad():
    params, x, _, _, _ = safe_model_instance(15)
    z, enc_cache = encode(params, x)
    y_hat, cls_cache = classify(params, z)
    y = (y_hat > 0.5).astype(float)
    # drive predictions to their targets exactly via the clamp region
    _, d_yhat = cross_entropy(y, y)
    grad = model_backward(params, enc_caches=[enc_cache], cls_cache=cls_cache,
                          d_yhat=d_yhat)
    assert float(np.abs(grad).max()) < 1e-8


@pytest.mark.parametrize("two_view", [False, True], ids=["one-view", "two-view"])
def test_checkpoint_round_trip_bit_exact(tmp_path, two_view):
    params, _, _, _, _ = safe_model_instance(16, two_view=two_view)
    path = str(tmp_path / "model.ckpt")
    extra = {"threshold": 0.5, "label_kind": "multilabel"}
    save_checkpoint(params, path, extra)
    loaded, extra2 = load_checkpoint(path)
    a = named_parameters(params)
    b = named_parameters(loaded)
    assert sorted(a) == sorted(b)
    for k in a:
        assert a[k].dtype == b[k].dtype == np.float64
        assert np.array_equal(a[k], b[k])
        assert np.array_equal(a[k].view(np.uint64), b[k].view(np.uint64))
    assert extra2 == extra
    assert loaded.flat.tobytes() == params.flat.tobytes()
    # the v1 layout: a one-view model stores a null second encoder
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    doc = json.loads(text)
    assert text == json_text(doc)  # the one JSON formatter wrote it
    assert sorted(doc) == ["classifier", "encoder1", "encoder2", "extra",
                           "format", "version"]
    assert (doc["encoder2"] is None) == (not two_view)
    # save -> load -> save reproduces the file byte for byte
    again = str(tmp_path / "again.ckpt")
    save_checkpoint(loaded, again, extra2)
    with open(path, "rb") as fa, open(again, "rb") as fb:
        assert fa.read() == fb.read()


def test_checkpoint_hand_built_v1_layout_loads(tmp_path):
    # written as the v1 format spells it, without the writer's "sizes" keys
    def stack(w, b, activation="identity"):
        def arr(a):
            a = np.asarray(a, dtype="<f8")
            return {"shape": list(a.shape),
                    "data": base64.b64encode(a.tobytes()).decode("ascii")}
        return {"output_activation": activation,
                "weights": [arr(w)], "biases": [arr(b)]}

    w1, w2 = np.arange(6.0).reshape(3, 2), np.arange(8.0).reshape(4, 2)
    wc = np.arange(8.0).reshape(4, 2) / 10.0
    for second, cls_in in ((None, 2), (stack(w2, [0.5, -0.5]), 4)):
        doc = {"format": "hcl-checkpoint", "version": 1,
               "encoder1": stack(w1, [1.0, 2.0]), "encoder2": second,
               "classifier": stack(wc[:cls_in], [0.0, 0.25], "sigmoid"),
               "extra": {"threshold": 0.5}}
        path = tmp_path / "v1.ckpt"
        path.write_text(json.dumps(doc), encoding="utf-8")
        params, extra = load_checkpoint(str(path))
        assert extra == {"threshold": 0.5}
        assert len(params.encoders) == (1 if second is None else 2)
        named = named_parameters(params)
        assert named["e1.w0"].tobytes() == w1.tobytes()
        assert named["cls.w0"].tobytes() == wc[:cls_in].tobytes()
        if second is not None:
            assert named["e2.w0"].tobytes() == w2.tobytes()
            assert named["e2.b0"].tolist() == [0.5, -0.5]


@pytest.mark.parametrize("key", ["encoder1", "encoder2", "classifier"])
def test_checkpoint_rejects_sizes_that_disagree_with_weights(tmp_path, key):
    params, _, _, _, _ = safe_model_instance(16, two_view=True)
    path = tmp_path / "model.ckpt"
    save_checkpoint(params, str(path))
    doc = json.loads(path.read_text(encoding="utf-8"))
    want = doc[key]["sizes"]
    doc[key]["sizes"] = [99, 1]
    path.write_text(json.dumps(doc), encoding="utf-8")
    message = f"{key} sizes [99, 1] disagree with its weights, which give {want}"
    with pytest.raises(IngestionError, match=re.escape(message)):
        load_checkpoint(str(path))


@pytest.mark.parametrize("name, value", [
    ("cls.w0", np.nan), ("e1.b1", np.inf), ("e2.w1", -np.inf),
])
def test_checkpoint_rejects_non_finite_values_by_name(tmp_path, name, value):
    params, _, _, _, _ = safe_model_instance(16, two_view=True)
    named_parameters(params)[name].flat[0] = value
    path = str(tmp_path / "model.ckpt")
    save_checkpoint(params, path)
    with pytest.raises(IngestionError, match=f"checkpoint parameter {name} "
                       "holds non-finite values"):
        load_checkpoint(path)


def test_checkpoint_rejects_foreign_files(tmp_path):
    path = tmp_path / "not_a_checkpoint.json"
    path.write_text('{"format": "something-else"}')
    with pytest.raises(ContractError):
        load_checkpoint(str(path))


def _encoded(a):
    a = np.asarray(a, dtype="<f8")
    return {"shape": list(a.shape),
            "data": base64.b64encode(a.tobytes()).decode("ascii")}


# a written checkpoint edited by hand -> the message ``load_checkpoint``
# gives after ``{path}: malformed checkpoint entry: ``, for a two-view model
# whose first encoder is 5 -> 2 -> 3
_BROKEN_STACKS = {
    "one bias short": (
        lambda doc: doc["encoder1"]["biases"].pop(),
        "stack needs one bias per weight layer"),
    "bias of the wrong width": (
        lambda doc: doc["encoder1"]["biases"].__setitem__(0, _encoded([0.0])),
        "layer 0: weight (5, 2) and bias (1,) mismatch"),
    "layers that do not chain": (
        lambda doc: doc["encoder1"]["weights"].__setitem__(
            1, _encoded(np.zeros((4, 3)))),
        "layer 1 input dim 4 does not follow layer 0 output dim 2"),
    "unknown output activation": (
        lambda doc: doc["classifier"].__setitem__("output_activation", "tanh"),
        "unknown output activation 'tanh'"),
}


@pytest.mark.parametrize("case", sorted(_BROKEN_STACKS))
def test_checkpoint_rejects_a_malformed_stack_by_name(tmp_path, case):
    edit, message = _BROKEN_STACKS[case]
    params = init_params(make_rng(0), [[5, 2, 3], [3, 2, 3]], [6, 3])
    path = tmp_path / "model.ckpt"
    save_checkpoint(params, str(path))
    doc = json.loads(path.read_text(encoding="utf-8"))
    edit(doc)
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(IngestionError, match=re.escape(
            f"{path}: malformed checkpoint entry: {message}")):
        load_checkpoint(str(path))


def test_checkpoint_rejects_another_version(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(small_params(), str(path))
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc["version"] = 2
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ContractError,
                       match="^unsupported checkpoint version 2$"):
        load_checkpoint(str(path))


def test_forward_and_backward_reject_mismatched_inputs():
    params = small_params()
    with pytest.raises(ShapeError,
                       match="^input has 3 features, stack expects 4$"):
        encode(params, np.ones((2, 3)))
    z, enc_cache = encode(params, np.ones((2, 4)))
    y_hat, cls_cache = classify(params, z)
    with pytest.raises(ContractError, match="^classifier gradient needs its "
                       "forward cache$"):
        model_backward(params, enc_caches=[enc_cache], d_yhat=y_hat)
    with pytest.raises(ShapeError, match="^classifier_rows has 1 entries "
                       "for 2 classifier rows$"):
        model_backward(params, enc_caches=[enc_cache], cls_cache=cls_cache,
                       d_yhat=y_hat, classifier_rows=[0])
