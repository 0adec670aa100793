"""Shared builders for the tests: random model instances and data files.

Instances are resampled until every ReLU pre-activation sits away from zero
and every embedding row away from the zero vector: the finite-difference
oracle is invalid at the ReLU kink, and the cosine has no derivative at a
zero row. ``save_csv`` and ``save_manifest`` write the files that
``hcl.data.load_manifest`` reads, and ``strict_json`` reads the JSON the
package writes. ``symmetric_branch_calls`` records the two-view kernel's
symmetric branch.
"""

import json

import numpy as np

import hcl.losses as losses_mod
from hcl.ioutil import atomic_write_text
from hcl.model import classify, encode, init_params
from hcl.numeric import as_matrix, make_rng

RELU_MARGIN = 1e-4
EMBED_MIN_NORM = 1e-3


def safe_model_instance(seed, *, two_view=False, multiclass=False,
                        n=None, d1=None, d2=None, latent=None, c=None):
    """A small random model + data whose hidden pre-activations avoid the
    ReLU kink and whose embedding rows are all nonzero, suitable for
    finite-difference gradient checks."""
    rng = make_rng(seed)
    n = n or int(rng.integers(4, 10))
    d1 = d1 or int(rng.integers(2, 6))
    d2 = d2 or int(rng.integers(2, 6))
    latent = latent or int(rng.integers(2, 5))
    c = c or int(rng.integers(2, 5))
    hidden = int(rng.integers(2, 6))
    cls_in = latent * (2 if two_view else 1)
    for attempt in range(200):
        params = init_params(
            rng,
            encoder_sizes=[[d, hidden, latent]
                           for d in ([d1, d2] if two_view else [d1])],
            classifier_sizes=[cls_in, hidden, c],
            classifier_activation="softmax" if multiclass else "sigmoid",
        )
        x1 = rng.normal(size=(n, d1))
        x2 = rng.normal(size=(n, d2)) if two_view else None
        if multiclass:
            ids = rng.integers(0, c, size=n)
            y = np.zeros((n, c))
            y[np.arange(n), ids] = 1.0
        else:
            y = rng.integers(0, 2, size=(n, c)).astype(float)
        if _margins_ok(params, x1, x2, two_view):
            return params, x1, x2, y, rng
    raise AssertionError("could not find a kink-free instance")


def _hidden_pre(stack, acts):
    """The hidden layers' pre-activations, recomputed from the forward
    record ``acts``."""
    return [acts[i] @ w + b for i, (w, b)
            in enumerate(zip(stack.weights[:-1], stack.biases[:-1]))]


def _margins_ok(params, x1, x2, two_view):
    for view, x in ((1, x1), (2, x2)):
        if x is None:
            continue
        z, acts = encode(params, x, view=view)
        for pre in _hidden_pre(params.encoders[view - 1], acts):
            if np.min(np.abs(pre)) < RELU_MARGIN:
                return False
        if np.min(np.linalg.norm(z, axis=1)) < EMBED_MIN_NORM:
            return False
    # classifier hidden layers see the embeddings
    z1, _ = encode(params, x1, view=1)
    s = z1 if not two_view else np.hstack([z1, encode(params, x2, view=2)[0]])
    _, acts = classify(params, s)
    for pre in _hidden_pre(params.classifier, acts):
        if np.min(np.abs(pre)) < RELU_MARGIN:
            return False
    return True


def save_csv(path, matrix):
    """Write a matrix as CSV with round-trip-exact float formatting."""
    lines = [",".join(repr(float(v)) for v in row)
             for row in as_matrix(matrix, "matrix")]
    atomic_write_text(path, "\n".join(lines) + "\n")


def save_manifest(path, view_files, labels_file, c, name="dataset"):
    """Write a dataset manifest naming one or two view files and a labels
    file; relative names resolve against the manifest's directory."""
    if isinstance(view_files, str):
        view_files = [view_files]
    pairs = {f"view{i + 1}": p for i, p in enumerate(view_files)}
    pairs.update({"labels": labels_file, "c": str(int(c)), "name": name})
    atomic_write_text(path, "".join(f"{k} = {v}\n" for k, v in pairs.items()))


def strict_json(text, name):
    """Parse the JSON document ``text`` read from ``name``, refusing the NaN
    and Infinity tokens that strict JSON parsers reject."""
    def refuse(token):
        raise ValueError(f"{name}: non-standard JSON token {token}")
    return json.loads(text, parse_constant=refuse)


def symmetric_branch_calls(monkeypatch):
    """Record each call of ``losses._symmetric_info_nce``: True when it
    finished, False when it handed the batch back to the dense path."""
    seen = []
    branch = losses_mod._symmetric_info_nce

    def spy(*args):
        out = branch(*args)
        seen.append(out is not None)
        return out

    monkeypatch.setattr(losses_mod, "_symmetric_info_nce", spy)
    return seen
