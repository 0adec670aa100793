"""MLP encoder/classifier stacks with exact backpropagation.

The model is a pair of feed-forward stacks: one encoder per view (ReLU
hidden layers, linear output) and a classifier head (ReLU hidden layers,
sigmoid or softmax output) that reads the concatenated view embeddings.
``model_backward`` propagates upstream gradients from the classifier output
and/or directly from the embeddings (where the contrastive losses attach)
down to every weight and bias.

Checkpoints are JSON with base64-encoded little-endian float64 buffers, so a
write -> read round trip reproduces every parameter bit for bit.
"""

from __future__ import annotations

import base64
import json
from dataclasses import dataclass, field

import numpy as np
from scipy.special import expit

from .errors import ContractError, IngestionError, ShapeError
from .ioutil import atomic_write_text
from .numeric import Matrix, Rng, as_matrix

CHECKPOINT_FORMAT = "hcl-checkpoint"
CHECKPOINT_VERSION = 1

_ACTIVATIONS = ("identity", "sigmoid", "softmax")


@dataclass
class LayerStack:
    """Dense layers: x @ w + b per layer, ReLU between, one output activation."""

    weights: list[Matrix]
    biases: list[np.ndarray]
    output_activation: str = "identity"

    def __post_init__(self) -> None:
        if self.output_activation not in _ACTIVATIONS:
            raise ContractError(
                f"unknown output activation {self.output_activation!r}"
            )
        if len(self.weights) != len(self.biases) or not self.weights:
            raise ContractError("stack needs one bias per weight layer")
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.ndim != 2 or b.ndim != 1 or b.shape[0] != w.shape[1]:
                raise ShapeError(
                    f"layer {i}: weight {w.shape} and bias {b.shape} mismatch"
                )
            if i and self.weights[i - 1].shape[1] != w.shape[0]:
                raise ShapeError(
                    f"layer {i} input dim {w.shape[0]} does not follow "
                    f"layer {i - 1} output dim {self.weights[i - 1].shape[1]}"
                )

    @property
    def sizes(self) -> list[int]:
        return [self.weights[0].shape[0]] + [w.shape[1] for w in self.weights]

    @property
    def in_dim(self) -> int:
        return self.weights[0].shape[0]

    @property
    def out_dim(self) -> int:
        return self.weights[-1].shape[1]


@dataclass
class ModelParams:
    encoder1: LayerStack
    classifier: LayerStack
    encoder2: LayerStack | None = None

    def __post_init__(self) -> None:
        latent = self.encoder1.out_dim
        if self.encoder2 is not None and self.encoder2.out_dim != latent:
            raise ShapeError(
                f"encoders must share an output dimension, got {latent} "
                f"and {self.encoder2.out_dim}"
            )
        expected = latent * (2 if self.encoder2 is not None else 1)
        if self.classifier.in_dim != expected:
            raise ShapeError(
                f"classifier expects input dim {self.classifier.in_dim}, "
                f"encoders provide {expected}"
            )

    @property
    def latent_dim(self) -> int:
        return self.encoder1.out_dim


@dataclass
class ForwardCache:
    """Per-layer inputs and pre-activations recorded by a forward pass."""

    inputs: list[Matrix] = field(default_factory=list)
    pre: list[Matrix] = field(default_factory=list)
    out: Matrix | None = None


def glorot_uniform(rng: Rng, fan_in: int, fan_out: int) -> Matrix:
    """Uniform(-limit, limit) with limit = sqrt(6 / (fan_in + fan_out))."""
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out)).astype(np.float64)


def _init_stack(rng: Rng, sizes: list[int], output_activation: str) -> LayerStack:
    if len(sizes) < 2 or any(int(s) <= 0 for s in sizes):
        raise ContractError(f"layer sizes must be >=2 positive ints, got {sizes}")
    weights = [glorot_uniform(rng, sizes[i], sizes[i + 1])
               for i in range(len(sizes) - 1)]
    biases = [np.zeros(sizes[i + 1], dtype=np.float64)
              for i in range(len(sizes) - 1)]
    return LayerStack(weights, biases, output_activation)


def init_params(rng: Rng, encoder_sizes: list[int], classifier_sizes: list[int],
                encoder2_sizes: list[int] | None = None,
                classifier_activation: str = "sigmoid") -> ModelParams:
    """Glorot-uniform weights, zero biases, in a fixed draw order
    (encoder1, encoder2, classifier) so a seed pins every parameter."""
    e1 = _init_stack(rng, list(encoder_sizes), "identity")
    e2 = _init_stack(rng, list(encoder2_sizes), "identity") if encoder2_sizes else None
    cls = _init_stack(rng, list(classifier_sizes), classifier_activation)
    return ModelParams(encoder1=e1, classifier=cls, encoder2=e2)


def _apply_output(pre: Matrix, kind: str) -> Matrix:
    if kind == "identity":
        return pre
    if kind == "sigmoid":
        return expit(pre)
    # softmax, row-wise with max shift
    shifted = pre - np.max(pre, axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=1, keepdims=True)


def forward_stack(stack: LayerStack, x: Matrix) -> tuple[Matrix, ForwardCache]:
    x = as_matrix(x, "input")
    if x.shape[1] != stack.in_dim:
        raise ShapeError(
            f"input has {x.shape[1]} features, stack expects {stack.in_dim}"
        )
    cache = ForwardCache()
    h = x
    last = len(stack.weights) - 1
    for i, (w, b) in enumerate(zip(stack.weights, stack.biases)):
        cache.inputs.append(h)
        pre = h @ w + b
        cache.pre.append(pre)
        h = _apply_output(pre, stack.output_activation) if i == last \
            else np.maximum(pre, 0.0)
    cache.out = h
    return h, cache


def encode(params: ModelParams, x: Matrix, view: int = 1) -> tuple[Matrix, ForwardCache]:
    """Embed raw features with the view's encoder (linear output layer)."""
    if view == 1:
        return forward_stack(params.encoder1, x)
    if view == 2:
        if params.encoder2 is None:
            raise ContractError("model has no second-view encoder")
        return forward_stack(params.encoder2, x)
    raise ContractError(f"view must be 1 or 2, got {view}")


def classify(params: ModelParams, s: Matrix) -> tuple[Matrix, ForwardCache]:
    """Class probabilities for embeddings ``s`` (concatenated for two views).

    Sigmoid heads give independent per-label probabilities; softmax rows
    sum to one for single-label problems.
    """
    return forward_stack(params.classifier, s)


def _backward_stack(stack: LayerStack, cache: ForwardCache, d_out: Matrix,
                    grads: dict[str, Matrix], prefix: str) -> Matrix:
    """Accumulate parameter grads; return the gradient at the stack input."""
    last = len(stack.weights) - 1
    kind = stack.output_activation
    if kind == "identity":
        d_pre = d_out
    elif kind == "sigmoid":
        y = cache.out
        d_pre = d_out * y * (1.0 - y)
    else:  # softmax: rows couple through the normalizer
        y = cache.out
        d_pre = y * (d_out - np.sum(d_out * y, axis=1, keepdims=True))
    for i in range(last, -1, -1):
        if i != last:
            d_pre = d_pre * (cache.pre[i] > 0.0)
        grads[f"{prefix}.w{i}"] += cache.inputs[i].T @ d_pre
        grads[f"{prefix}.b{i}"] += d_pre.sum(axis=0)
        d_pre = d_pre @ stack.weights[i].T
    return d_pre


def named_parameters(params: ModelParams) -> dict[str, np.ndarray]:
    """Flat name -> array views ('e1.w0', 'e1.b0', ..., 'cls.w0', ...).

    The arrays are the live parameters; optimizers update them in place.
    """
    out: dict[str, np.ndarray] = {}
    stacks = [("e1", params.encoder1)]
    if params.encoder2 is not None:
        stacks.append(("e2", params.encoder2))
    stacks.append(("cls", params.classifier))
    for prefix, stack in stacks:
        for i, (w, b) in enumerate(zip(stack.weights, stack.biases)):
            out[f"{prefix}.w{i}"] = w
            out[f"{prefix}.b{i}"] = b
    return out


def zero_grads(params: ModelParams) -> dict[str, Matrix]:
    return {name: np.zeros_like(arr) for name, arr in named_parameters(params).items()}


def model_backward(params: ModelParams, *,
                   enc1_cache: ForwardCache,
                   enc2_cache: ForwardCache | None = None,
                   cls_cache: ForwardCache | None = None,
                   d_yhat: Matrix | None = None,
                   d_z1: Matrix | None = None,
                   d_z2: Matrix | None = None,
                   classifier_rows: np.ndarray | None = None) -> dict[str, Matrix]:
    """Exact gradients of the composite objective for every parameter.

    ``d_yhat`` is the upstream gradient at the classifier output (rows =
    classifier batch); ``d_z1``/``d_z2`` attach directly at the encoder
    outputs (rows = encoder batch). ``classifier_rows`` maps classifier rows
    into encoder rows when the classifier saw a subset (e.g. only labeled
    samples); by default they are assumed aligned.
    """
    grads = zero_grads(params)
    n1 = enc1_cache.out.shape[0]
    latent = params.latent_dim
    acc1 = np.zeros((n1, latent))
    acc2 = np.zeros((n1, latent)) if params.encoder2 is not None else None
    if d_z1 is not None:
        acc1 += d_z1
    if d_z2 is not None:
        if acc2 is None:
            raise ContractError("d_z2 given but the model has one encoder")
        acc2 += d_z2

    if d_yhat is not None:
        if cls_cache is None:
            raise ContractError("classifier gradient needs its forward cache")
        d_s = _backward_stack(params.classifier, cls_cache, d_yhat, grads, "cls")
        rows = np.arange(d_s.shape[0]) if classifier_rows is None \
            else np.asarray(classifier_rows, dtype=int)
        if rows.shape[0] != d_s.shape[0]:
            raise ShapeError(
                f"classifier_rows has {rows.shape[0]} entries for "
                f"{d_s.shape[0]} classifier rows"
            )
        if acc2 is None:
            np.add.at(acc1, rows, d_s)
        else:
            np.add.at(acc1, rows, d_s[:, :latent])
            np.add.at(acc2, rows, d_s[:, latent:])

    _backward_stack(params.encoder1, enc1_cache, acc1, grads, "e1")
    if acc2 is not None:
        if enc2_cache is None:
            raise ContractError("second-view gradient needs enc2_cache")
        _backward_stack(params.encoder2, enc2_cache, acc2, grads, "e2")
    return grads


def _encode_array(arr: np.ndarray) -> dict:
    data = np.ascontiguousarray(arr, dtype="<f8")
    return {"shape": list(arr.shape),
            "data": base64.b64encode(data.tobytes()).decode("ascii")}


def _decode_array(obj: dict) -> np.ndarray:
    raw = base64.b64decode(obj["data"])
    return np.frombuffer(raw, dtype="<f8").reshape(obj["shape"]).copy()


def _stack_to_json(stack: LayerStack) -> dict:
    return {
        "sizes": stack.sizes,
        "output_activation": stack.output_activation,
        "weights": [_encode_array(w) for w in stack.weights],
        "biases": [_encode_array(b) for b in stack.biases],
    }


def _stack_from_json(obj: dict) -> LayerStack:
    return LayerStack(
        weights=[_decode_array(w) for w in obj["weights"]],
        biases=[_decode_array(b) for b in obj["biases"]],
        output_activation=obj["output_activation"],
    )


def save_checkpoint(params: ModelParams, path: str, extra: dict | None = None) -> None:
    """Serialize parameters (and JSON-safe ``extra`` metadata) atomically."""
    doc = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "encoder1": _stack_to_json(params.encoder1),
        "encoder2": _stack_to_json(params.encoder2) if params.encoder2 else None,
        "classifier": _stack_to_json(params.classifier),
        "extra": extra or {},
    }
    atomic_write_text(path, json.dumps(doc, indent=1, sort_keys=True))


def load_checkpoint(path: str) -> tuple[ModelParams, dict]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as err:
        raise IngestionError(f"cannot read checkpoint {path}: {err.strerror}") from None
    except ValueError as err:
        raise IngestionError(f"{path} is not valid checkpoint JSON: {err}") from None
    if not isinstance(doc, dict) or doc.get("format") != CHECKPOINT_FORMAT:
        raise ContractError(f"{path} is not a model checkpoint")
    if doc.get("version") != CHECKPOINT_VERSION:
        raise ContractError(
            f"unsupported checkpoint version {doc.get('version')!r}"
        )
    try:
        params = ModelParams(
            encoder1=_stack_from_json(doc["encoder1"]),
            classifier=_stack_from_json(doc["classifier"]),
            encoder2=_stack_from_json(doc["encoder2"]) if doc["encoder2"] else None,
        )
    except KeyError as err:
        raise IngestionError(f"{path}: checkpoint has no {err.args[0]!r} entry") from None
    except (TypeError, ValueError) as err:
        raise IngestionError(f"{path}: malformed checkpoint entry: {err}") from None
    return params, doc.get("extra", {})
