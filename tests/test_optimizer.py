"""Layer-adaptive momentum SGD: exact step formulas and descent on a quadratic."""

import numpy as np
import pytest

from hcl.errors import ContractError, NumericError, ShapeError
from hcl.model import LayerStack, ModelParams, named_parameters
from hcl.numeric import make_rng
from hcl.optimizer import OptimizerState, lars_step

from builders import safe_model_instance
from oracles import ref_lars_step


def one_layer(w=None, b=None):
    """A one-view model whose encoder is the single layer (``w``, ``b``) and
    whose classifier is zero; give either array, the other is zeros."""
    if w is None:
        w = np.zeros((1, b.shape[0]))
    if b is None:
        b = np.zeros(w.shape[1])
    return ModelParams([LayerStack([w.copy()], [b.copy()])], LayerStack(
        [np.zeros((w.shape[1], 1))], [np.zeros(1)]))


def grad_for(params, name, g):
    """A gradient laid out like ``params.flat``: ``g`` at ``name``, zero
    elsewhere (a zero gradient leaves a zero weight and any bias in place)."""
    grad = np.zeros_like(params.flat)
    named_parameters(params, grad)[name][...] = g
    return grad


def weight(params):
    return params.encoders[0].weights[0]


def bias(params):
    return params.encoders[0].biases[0]


def test_state_validation():
    OptimizerState()
    with pytest.raises(ContractError):
        OptimizerState(base_lr=-0.1)
    with pytest.raises(ContractError):
        OptimizerState(trust_coeff=0.0)
    with pytest.raises(ContractError):
        OptimizerState(momentum=1.0)
    with pytest.raises(ContractError):
        OptimizerState(momentum=-0.2)
    with pytest.raises(ContractError):
        OptimizerState(weight_decay=-1.0)


def test_weight_step_matches_hand_formula():
    rng = make_rng(0)
    w0 = rng.normal(size=(4, 3))
    g = rng.normal(size=(4, 3))
    state = OptimizerState(base_lr=0.2, momentum=0.9, trust_coeff=0.001,
                           weight_decay=0.01)
    params = one_layer(w0)
    lars_step(params, grad_for(params, "e1.w0", g), state)

    step = g + 0.01 * w0
    local = 0.001 * np.linalg.norm(w0) / (
        np.linalg.norm(g) + 0.01 * np.linalg.norm(w0) + 1e-12)
    v1 = (0.2 * local) * step
    assert np.allclose(weight(params), w0 - v1, rtol=0, atol=1e-15)

    # second step folds the previous velocity in
    w1 = weight(params).copy()
    lars_step(params, grad_for(params, "e1.w0", g), state)
    step2 = g + 0.01 * w1
    local2 = 0.001 * np.linalg.norm(w1) / (
        np.linalg.norm(g) + 0.01 * np.linalg.norm(w1) + 1e-12)
    v2 = 0.9 * v1 + (0.2 * local2) * step2
    assert np.allclose(weight(params), w1 - v2, rtol=0, atol=1e-15)


def test_weight_step_does_not_depend_on_gradient_scale():
    # the trust ratio divides by |g|, so scaling g scales nothing; at 1e160
    # the sum of squares overflows, and a norm read as inf would freeze w
    rng = make_rng(5)
    w0 = rng.normal(size=(4, 3))
    g0 = rng.normal(size=(4, 3))
    moves = []
    for scale in (1.0, 1e160):
        params = one_layer(w0)
        lars_step(params, grad_for(params, "e1.w0", scale * g0), OptimizerState())
        moves.append(weight(params) - w0)
    assert np.linalg.norm(moves[0]) > 0.0
    assert np.linalg.norm(moves[1] - moves[0]) <= 1e-9 * np.linalg.norm(moves[0])


def test_trust_ratio_equal_norms_yields_trust_coeff():
    w = np.array([[3.0, 0.0], [0.0, 4.0]])
    g = np.array([[0.0, 3.0], [4.0, 0.0]])  # same Frobenius norm as w
    state = OptimizerState(base_lr=1.0, momentum=0.0, trust_coeff=0.001)
    params = one_layer(w)
    lars_step(params, grad_for(params, "e1.w0", g), state)
    assert np.allclose(weight(params), w - 0.001 * g, rtol=0, atol=1e-12)


def test_bias_path_skips_trust_ratio():
    b = np.array([1.0, -2.0, 0.5])
    g = np.array([10.0, 20.0, -30.0])
    state = OptimizerState(base_lr=0.1, momentum=0.9)
    params = one_layer(b=b)
    lars_step(params, grad_for(params, "e1.b0", g), state)
    assert np.array_equal(bias(params), b - 0.1 * g)
    # with a constant gradient the second displacement is exactly 1.9x
    before = bias(params).copy()
    lars_step(params, grad_for(params, "e1.b0", g), state)
    assert np.array_equal(bias(params), before - (0.9 * (0.1 * g) + 0.1 * g))


def test_velocity_reuse():
    state = OptimizerState(base_lr=0.1, momentum=0.5)
    params = one_layer(b=np.zeros(2))
    grad = grad_for(params, "e1.b0", np.ones(2))
    lars_step(params, grad, state)
    v = state.velocities
    for _ in range(2):
        lars_step(params, grad, state)
    assert state.velocities is v
    assert v.shape == params.flat.shape


def test_gradient_of_wrong_length_raises():
    params = one_layer(np.zeros((2, 2)))
    with pytest.raises(ShapeError, match="gradient"):
        lars_step(params, np.zeros(params.flat.size - 1), OptimizerState())


def test_gradient_shape_mismatch_raises():
    params = one_layer(np.zeros((2, 2)))
    grad = np.zeros((1, params.flat.size))  # right size, not laid out flat
    with pytest.raises(ShapeError, match="gradient"):
        lars_step(params, grad, OptimizerState())


def test_velocity_of_another_model_raises():
    state = OptimizerState()
    small = one_layer(np.zeros((2, 2)))
    lars_step(small, np.zeros_like(small.flat), state)
    other = one_layer(np.zeros((3, 2)))
    with pytest.raises(ShapeError, match="velocity buffer"):
        lars_step(other, np.zeros_like(other.flat), state)


def test_nonfinite_gradient_names_parameter():
    state = OptimizerState()
    params = one_layer(np.zeros((1, 2)))
    with pytest.raises(NumericError, match="'e1.w0'"):
        lars_step(params, grad_for(params, "e1.w0", [[0.0, np.nan]]), state)
    with pytest.raises(NumericError, match="'e1.b0'"):
        lars_step(params, grad_for(params, "e1.b0", [1.0, np.inf]), state)
    assert not params.flat.any()  # a rejected gradient moves nothing


@pytest.mark.parametrize("two_view", [False, True], ids=["one-view", "two-view"])
@pytest.mark.parametrize("weight_decay", [0.0, 0.01])
@pytest.mark.parametrize("momentum", [0.0, 0.9])
def test_arena_step_bitwise_equals_per_parameter_oracle(two_view, weight_decay,
                                                        momentum):
    params, _, _, _, rng = safe_model_instance(40 + two_view, two_view=two_view)
    state = OptimizerState(base_lr=0.3, momentum=momentum,
                           weight_decay=weight_decay)
    ref = {k: v.copy() for k, v in named_parameters(params).items()}
    ref_velocities = {}
    for t in range(5):
        grad = rng.normal(size=params.flat.shape)
        if t == 2:
            grad *= 1e160  # the squares overflow: the rescaled norm
        grads = {k: v.copy() for k, v in named_parameters(params, grad).items()}
        lars_step(params, grad, state)
        ref_lars_step(ref, grads, state, ref_velocities)
        for name, arr in named_parameters(params).items():
            assert arr.tobytes() == ref[name].tobytes(), (t, name)
        assert state.velocities.tobytes() == np.concatenate(
            [v.ravel() for v in ref_velocities.values()]).tobytes()


def quadratic(params):
    b = bias(params)
    return 0.5 * float(b @ b), grad_for(params, "e1.b0", b)


def descend(params, state, n_steps):
    """Take ``n_steps`` LARS steps on the quadratic in the encoder bias;
    return the loss before each step."""
    trace = []
    for _ in range(n_steps):
        loss, grad = quadratic(params)
        trace.append(loss)
        lars_step(params, grad, state)
    return trace


def test_probe_zero_lr_trace_is_constant():
    params = one_layer(b=np.array([1.0, 2.0]))
    state = OptimizerState(base_lr=0.0, momentum=0.9)
    trace = descend(params, state, n_steps=25)
    assert all(t == trace[0] for t in trace)
    assert np.array_equal(bias(params), np.array([1.0, 2.0]))


def test_probe_converges_on_quadratic():
    params = one_layer(b=np.array([1.0, -2.0]))
    state = OptimizerState(base_lr=0.05, momentum=0.0)
    trace = descend(params, state, n_steps=200)
    assert all(b < a for a, b in zip(trace, trace[1:]))
    assert trace[-1] < 1e-6
    assert 0.5 * float(bias(params) @ bias(params)) < trace[-1]
