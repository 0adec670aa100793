"""Layer-adaptive momentum SGD: exact step formulas and descent on a quadratic."""

import numpy as np
import pytest

from hcl.errors import ContractError, NumericError, ShapeError
from hcl.numeric import make_rng
from hcl.optimizer import OptimizerState, lars_step


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
    params = {"w": w0.copy()}
    lars_step(params, {"w": g}, state)

    step = g + 0.01 * w0
    local = 0.001 * np.linalg.norm(w0) / (
        np.linalg.norm(g) + 0.01 * np.linalg.norm(w0) + 1e-12)
    v1 = (0.2 * local) * step
    assert np.allclose(params["w"], w0 - v1, rtol=0, atol=1e-15)

    # second step folds the previous velocity in
    w1 = params["w"].copy()
    lars_step(params, {"w": g}, state)
    step2 = g + 0.01 * w1
    local2 = 0.001 * np.linalg.norm(w1) / (
        np.linalg.norm(g) + 0.01 * np.linalg.norm(w1) + 1e-12)
    v2 = 0.9 * v1 + (0.2 * local2) * step2
    assert np.allclose(params["w"], w1 - v2, rtol=0, atol=1e-15)


def test_weight_step_does_not_depend_on_gradient_scale():
    # the trust ratio divides by |g|, so scaling g scales nothing; at 1e160
    # the sum of squares overflows, and a norm read as inf would freeze w
    rng = make_rng(5)
    w0 = rng.normal(size=(4, 3))
    g0 = rng.normal(size=(4, 3))
    moves = []
    for scale in (1.0, 1e160):
        params = {"w": w0.copy()}
        lars_step(params, {"w": scale * g0}, OptimizerState())
        moves.append(params["w"] - w0)
    assert np.linalg.norm(moves[0]) > 0.0
    assert np.linalg.norm(moves[1] - moves[0]) <= 1e-9 * np.linalg.norm(moves[0])


def test_trust_ratio_equal_norms_yields_trust_coeff():
    w = np.array([[3.0, 0.0], [0.0, 4.0]])
    g = np.array([[0.0, 3.0], [4.0, 0.0]])  # same Frobenius norm as w
    state = OptimizerState(base_lr=1.0, momentum=0.0, trust_coeff=0.001)
    params = {"w": w.copy()}
    lars_step(params, {"w": g}, state)
    assert np.allclose(params["w"], w - 0.001 * g, rtol=0, atol=1e-12)


def test_bias_path_skips_trust_ratio():
    b = np.array([1.0, -2.0, 0.5])
    g = np.array([10.0, 20.0, -30.0])
    state = OptimizerState(base_lr=0.1, momentum=0.9)
    params = {"b": b.copy()}
    lars_step(params, {"b": g}, state)
    assert np.array_equal(params["b"], b - 0.1 * g)
    # with a constant gradient the second displacement is exactly 1.9x
    before = params["b"].copy()
    lars_step(params, {"b": g}, state)
    assert np.array_equal(params["b"], before - (0.9 * (0.1 * g) + 0.1 * g))


def test_velocity_reuse():
    state = OptimizerState(base_lr=0.1, momentum=0.5)
    params = {"b": np.zeros(2)}
    for _ in range(3):
        lars_step(params, {"b": np.ones(2)}, state)
    assert set(state.velocities) == {"b"}


def test_missing_gradient_raises():
    state = OptimizerState()
    with pytest.raises(ContractError, match="'w'"):
        lars_step({"w": np.zeros((2, 2))}, {}, state)


def test_gradient_shape_mismatch_raises():
    state = OptimizerState()
    with pytest.raises(ShapeError, match="'w'"):
        lars_step({"w": np.zeros((2, 2))}, {"w": np.zeros((2, 3))}, state)


def test_nonfinite_gradient_names_parameter():
    state = OptimizerState()
    g = np.array([[0.0, np.nan]])
    with pytest.raises(NumericError, match="'e1.w0'"):
        lars_step({"e1.w0": np.zeros((1, 2))}, {"e1.w0": g}, state)
    with pytest.raises(NumericError):
        lars_step({"b": np.zeros(2)}, {"b": np.array([1.0, np.inf])}, state)


def quadratic(params):
    b = params["b"]
    return 0.5 * float(b @ b), {"b": b.copy()}


def descend(params, state, n_steps):
    """Take ``n_steps`` LARS steps on the quadratic; return the loss before
    each step."""
    trace = []
    for _ in range(n_steps):
        loss, grads = quadratic(params)
        trace.append(loss)
        lars_step(params, grads, state)
    return trace


def test_probe_zero_lr_trace_is_constant():
    params = {"b": np.array([1.0, 2.0])}
    state = OptimizerState(base_lr=0.0, momentum=0.9)
    trace = descend(params, state, n_steps=25)
    assert all(t == trace[0] for t in trace)
    assert np.array_equal(params["b"], np.array([1.0, 2.0]))


def test_probe_converges_on_quadratic():
    params = {"b": np.array([1.0, -2.0])}
    state = OptimizerState(base_lr=0.05, momentum=0.0)
    trace = descend(params, state, n_steps=200)
    assert all(b < a for a, b in zip(trace, trace[1:]))
    assert trace[-1] < 1e-6
    assert 0.5 * float(params["b"] @ params["b"]) < trace[-1]
