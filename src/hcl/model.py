"""MLP encoder/classifier stacks with exact backpropagation.

The model is a list of feed-forward encoders, one per view (ReLU hidden
layers, linear output), and a classifier head (ReLU hidden layers, sigmoid
or softmax output) that reads the view embeddings concatenated in view
order. ``model_backward`` propagates upstream gradients from the classifier
output and/or directly from the embeddings (where the contrastive losses
attach) down to every weight and bias. A forward pass returns its output
and its forward record, the list of its activations ``[x, h_1, ..., out]``;
the backward reads each layer's input, ReLU mask and output from it, so no
pre-activation is kept.

Every weight and bias is a view into one float64 arena, ``ModelParams.flat``,
laid out in ``named_parameters`` order; ``model_backward`` returns the
gradient as one vector with the same layout, so an optimizer updates the
whole model with a few whole-buffer operations.

Checkpoints are JSON with base64-encoded little-endian float64 buffers, so a
write -> read round trip reproduces every parameter bit for bit.
"""

from __future__ import annotations

import base64
import json
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError, IngestionError, ShapeError
from .ioutil import atomic_write_text, json_text, read_text
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
    """One encoder per view (view v is ``encoders[v - 1]``) and a classifier.

    Construction copies every weight and bias into the arena ``flat`` and
    gives the model its own stacks, whose arrays are views of it, so writing
    ``flat`` moves the layers; the stacks passed in are left as they were.
    ``layout`` holds one ``(name, start, stop, shape)`` per parameter: its
    slice ``flat[start:stop]``, in ``named_parameters`` order.
    ``param_sizes`` holds each parameter's ``stop - start`` in that order,
    and ``slots`` one list per stack (the encoders, then the classifier) of
    its parameters' ``(start, stop)``: w0, b0, w1, b1, ...
    """

    encoders: list[LayerStack]
    classifier: LayerStack
    flat: np.ndarray = field(init=False, repr=False, compare=False)
    layout: list[tuple[str, int, int, tuple[int, ...]]] = field(
        init=False, repr=False, compare=False)
    param_sizes: np.ndarray = field(init=False, repr=False, compare=False)
    slots: list[list[tuple[int, int]]] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        n_views = len(self.encoders)
        if not 1 <= n_views <= 2:
            raise ContractError(f"model needs 1 or 2 view encoders, got {n_views}")
        latent = self.encoders[0].out_dim
        if any(e.out_dim != latent for e in self.encoders):
            raise ShapeError("encoders must share an output dimension, got "
                             f"{[e.out_dim for e in self.encoders]}")
        expected = latent * n_views
        if self.classifier.in_dim != expected:
            raise ShapeError(
                f"classifier expects input dim {self.classifier.in_dim}, "
                f"encoders provide {expected}"
            )
        stacks = [(f"e{v + 1}", e) for v, e in enumerate(self.encoders)]
        stacks.append(("cls", self.classifier))
        self.layout, self.slots, arrays, start = [], [], [], 0
        for prefix, stack in stacks:
            self.slots.append([])
            for i, (w, b) in enumerate(zip(stack.weights, stack.biases)):
                for name, arr in ((f"{prefix}.w{i}", w), (f"{prefix}.b{i}", b)):
                    self.layout.append((name, start, start + arr.size, arr.shape))
                    self.slots[-1].append((start, start + arr.size))
                    arrays.append(arr.ravel())
                    start += arr.size
        self.flat = np.concatenate(arrays, dtype=np.float64)
        self.param_sizes = np.array([stop - start
                                     for _, start, stop, _ in self.layout])
        views = named_parameters(self)
        own = []
        for prefix, stack in stacks:
            layers = range(len(stack.weights))
            own.append(LayerStack([views[f"{prefix}.w{i}"] for i in layers],
                                  [views[f"{prefix}.b{i}"] for i in layers],
                                  stack.output_activation))
        self.encoders, self.classifier = own[:-1], own[-1]

    @property
    def latent_dim(self) -> int:
        return self.encoders[0].out_dim


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


def init_params(rng: Rng, encoder_sizes: list[list[int]],
                classifier_sizes: list[int],
                classifier_activation: str = "sigmoid") -> ModelParams:
    """Glorot-uniform weights, zero biases; ``encoder_sizes`` holds one
    layer-size list per view. Each view's encoder is drawn in view order,
    then the classifier, so a seed pins every parameter."""
    encoders = [_init_stack(rng, list(sizes), "identity") for sizes in encoder_sizes]
    cls = _init_stack(rng, list(classifier_sizes), classifier_activation)
    return ModelParams(encoders, cls)


def _apply_output(pre: Matrix, kind: str) -> Matrix:
    if kind == "identity":
        return pre
    if kind == "sigmoid":
        # exp(-pre) overflows to inf far below zero, which gives exactly 0,
        # and underflows to 0 far above it, which gives exactly 1
        with np.errstate(over="ignore", under="ignore"):
            return 1.0 / (1.0 + np.exp(-pre))
    # softmax, row-wise with max shift
    shifted = pre - np.max(pre, axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=1, keepdims=True)


def forward_stack(stack: LayerStack, x: Matrix) -> tuple[Matrix, list[Matrix]]:
    """The stack's output and its forward record ``[x, h_1, ..., out]``."""
    x = as_matrix(x, "input")
    if x.shape[1] != stack.in_dim:
        raise ShapeError(
            f"input has {x.shape[1]} features, stack expects {stack.in_dim}"
        )
    acts = [x]
    last = len(stack.weights) - 1
    for i, (w, b) in enumerate(zip(stack.weights, stack.biases)):
        pre = acts[-1] @ w
        pre += b
        acts.append(_apply_output(pre, stack.output_activation) if i == last
                    else np.maximum(pre, 0.0))
    return acts[-1], acts


def encode(params: ModelParams, x: Matrix, view: int = 1) -> tuple[Matrix, list[Matrix]]:
    """Embed raw features with the encoder of ``view`` (1-based)."""
    if not 1 <= view <= len(params.encoders):
        raise ContractError(f"model has no encoder for view {view}")
    return forward_stack(params.encoders[view - 1], x)


def classify(params: ModelParams, s: Matrix) -> tuple[Matrix, list[Matrix]]:
    """Class probabilities for embeddings ``s`` (concatenated for two views).

    Sigmoid heads give independent per-label probabilities; softmax rows
    sum to one for single-label problems.
    """
    return forward_stack(params.classifier, s)


def _backward_stack(stack: LayerStack, acts: list[Matrix], d_out: Matrix,
                    grad: np.ndarray, slots: list[tuple[int, int]]) -> Matrix:
    """Accumulate parameter grads into their ``slots`` of the flat ``grad``
    (``ModelParams.slots`` of this stack); return the gradient at the first
    layer's pre-activation. Only the classifier needs the gradient at its
    input (that times ``weights[0].T``), so the encoders skip that product.
    Layer i of the forward record ``acts`` reads its input ``acts[i]`` and
    its ReLU mask ``acts[i + 1] > 0``, which is its ``pre > 0``."""
    last = len(stack.weights) - 1
    kind = stack.output_activation
    y = acts[-1]
    if kind == "identity":
        d_pre = d_out
    elif kind == "sigmoid":
        d_pre = d_out * y * (1.0 - y)
    else:  # softmax: rows couple through the normalizer
        d_pre = y * (d_out - np.sum(d_out * y, axis=1, keepdims=True))
    for i in range(last, -1, -1):
        if i != last:  # d_pre is the fresh product below
            d_pre *= acts[i + 1] > 0.0
        (w_lo, w_hi), (b_lo, b_hi) = slots[2 * i], slots[2 * i + 1]
        grad[w_lo:w_hi] += (acts[i].T @ d_pre).ravel()
        grad[b_lo:b_hi] += d_pre.sum(axis=0)
        if i:
            d_pre = d_pre @ stack.weights[i].T
    return d_pre


def named_parameters(params: ModelParams,
                     buf: np.ndarray | None = None) -> dict[str, np.ndarray]:
    """Name -> array views ('e1.w0', 'e1.b0', ..., 'cls.w0', ...), in arena order.

    By default the arrays are the live parameters, views into
    ``params.flat`` that optimizers update in place. ``buf``, a vector laid
    out like ``params.flat`` (such as a gradient from ``model_backward``),
    gives the same names and shapes over views of it instead.
    """
    buf = params.flat if buf is None else buf
    if buf.shape != params.flat.shape:
        raise ShapeError(f"buffer has shape {buf.shape}, parameters "
                         f"{params.flat.shape}")
    return {name: buf[start:stop].reshape(shape)
            for name, start, stop, shape in params.layout}


def first_nonfinite(params: ModelParams, buf: np.ndarray) -> str | None:
    """The name of the first parameter whose slice of ``buf`` (laid out like
    ``params.flat``) holds a NaN or an infinity, or None if none does."""
    if np.isfinite(buf).all():
        return None
    return next(name for name, start, stop, _ in params.layout
                if not np.isfinite(buf[start:stop]).all())


def model_backward(params: ModelParams, *,
                   enc_caches: list[list[Matrix]],
                   cls_cache: list[Matrix] | None = None,
                   d_yhat: Matrix | None = None,
                   d_s: Matrix | None = None,
                   d_z: list[Matrix] | None = None,
                   classifier_rows: np.ndarray | None = None) -> np.ndarray:
    """Exact gradient of the composite objective, one vector laid out like
    ``params.flat`` (``named_parameters(params, grad)`` names its pieces).

    ``enc_caches`` and ``d_z`` hold one entry per view, in view order: the
    encoder's forward record from ``encode`` and the gradient attached
    directly at its output (rows = encoder batch). ``cls_cache`` is the
    classifier's forward record, ``d_yhat`` the upstream gradient at its
    output and ``d_s`` an extra one at its input (rows = classifier batch).
    ``classifier_rows`` maps classifier rows into encoder rows when the
    classifier saw a subset (e.g. only labeled samples); by default they
    are assumed aligned. Only this function splits the concatenated
    embedding.
    """
    n_views = len(params.encoders)
    for what, given in (("encoder cache", enc_caches), ("d_z", d_z)):
        if given is not None and len(given) != n_views:
            raise ContractError(f"need one {what} per view ({n_views}), "
                                f"got {len(given)}")
    grad = np.zeros(params.flat.size)
    latent = params.latent_dim
    accs = [np.zeros((len(enc_caches[0][0]), latent)) for _ in range(n_views)]
    for acc, d in zip(accs, d_z or []):
        acc += d

    # d_s lands before the classifier's own gradient: a classifier row sums
    # (d_z + d_s) + d_cls
    at_input = [] if d_s is None else [d_s]
    if d_yhat is not None:
        if cls_cache is None:
            raise ContractError("classifier gradient needs its forward cache")
        d_pre = _backward_stack(params.classifier, cls_cache, d_yhat, grad,
                                params.slots[-1])
        at_input.append(d_pre @ params.classifier.weights[0].T)
    for d in at_input:
        rows = np.arange(d.shape[0]) if classifier_rows is None \
            else np.asarray(classifier_rows, dtype=int)
        if rows.shape[0] != d.shape[0]:
            raise ShapeError(
                f"classifier_rows has {rows.shape[0]} entries for "
                f"{d.shape[0]} classifier rows"
            )
        for v, acc in enumerate(accs):
            np.add.at(acc, rows, d[:, v * latent:(v + 1) * latent])

    for stack, cache, acc, slots in zip(params.encoders, enc_caches, accs,
                                        params.slots):
        _backward_stack(stack, cache, acc, grad, slots)
    return grad


def _encode_array(arr: np.ndarray) -> dict:
    data = np.ascontiguousarray(arr, dtype="<f8")
    return {"shape": list(arr.shape),
            "data": base64.b64encode(data.tobytes()).decode("ascii")}


def _decode_array(obj: dict) -> np.ndarray:
    raw = base64.b64decode(obj["data"])
    # read-only, but ModelParams copies it into its arena
    return np.frombuffer(raw, dtype="<f8").reshape(obj["shape"])


def _stack_to_json(stack: LayerStack) -> dict:
    return {
        "sizes": stack.sizes,
        "output_activation": stack.output_activation,
        "weights": [_encode_array(w) for w in stack.weights],
        "biases": [_encode_array(b) for b in stack.biases],
    }


def _stack_from_json(obj: dict, key: str) -> LayerStack:
    stack = LayerStack(
        weights=[_decode_array(w) for w in obj["weights"]],
        biases=[_decode_array(b) for b in obj["biases"]],
        output_activation=obj["output_activation"],
    )
    if obj.get("sizes", stack.sizes) != stack.sizes:  # v1 files may omit it
        raise ValueError(f"{key} sizes {obj['sizes']} disagree with its "
                         f"weights, which give {stack.sizes}")
    return stack


def save_checkpoint(params: ModelParams, path: str, extra: dict | None = None) -> None:
    """Serialize parameters (and JSON-safe ``extra`` metadata) atomically."""
    # the v1 layout: "encoder2" is null for a one-view model
    encoders = [_stack_to_json(e) for e in params.encoders] + [None]
    doc = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "encoder1": encoders[0],
        "encoder2": encoders[1],
        "classifier": _stack_to_json(params.classifier),
        "extra": extra or {},
    }
    atomic_write_text(path, json_text(doc))


def load_checkpoint(path: str) -> tuple[ModelParams, dict]:
    text = read_text(path, "checkpoint")
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as err:  # nesting past the stack
        raise IngestionError(f"{path} is not valid checkpoint JSON: {err}") from None
    if not isinstance(doc, dict) or doc.get("format") != CHECKPOINT_FORMAT:
        raise ContractError(f"{path} is not a model checkpoint")
    if doc.get("version") != CHECKPOINT_VERSION:
        raise ContractError(
            f"unsupported checkpoint version {doc.get('version')!r}"
        )
    try:
        encoders = [_stack_from_json(doc["encoder1"], "encoder1")]
        if doc["encoder2"]:
            encoders.append(_stack_from_json(doc["encoder2"], "encoder2"))
        params = ModelParams(encoders, _stack_from_json(doc["classifier"], "classifier"))
    except KeyError as err:
        raise IngestionError(f"{path}: checkpoint has no {err.args[0]!r} entry") from None
    except (TypeError, ValueError) as err:
        raise IngestionError(f"{path}: malformed checkpoint entry: {err}") from None
    name = first_nonfinite(params, params.flat)
    if name is not None:
        raise IngestionError(
            f"{path}: checkpoint parameter {name} holds non-finite values"
        )
    return params, doc.get("extra", {})
