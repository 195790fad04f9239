"""Minimal dense feed-forward network: forward, reverse-mode gradients, Adam.

Supports exactly what the authenticator networks need: fully connected
layers with leaky-ReLU / tanh / sigmoid / linear activations, inverted
dropout, binary cross-entropy, and Adam with bias correction, applied in one
update over each network's flat parameter buffer. Inputs are (n, dim) rows
only; a single sample is a (1, dim) row.

`forward` is the inference entry point. Training runs the kernels alone
(`_tape`, `_forward`, `_backward`, `_bce`, `_adam`, `_apply`), which check
no shapes: their caller allocates their buffers once and checks shapes
there, as csiauth.gan does.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .packed import finite_array, number, pack, read_document
from .rng import RngStream

ACTIVATIONS = ("leaky_relu", "tanh", "sigmoid", "linear")
CHECKPOINT_FORMAT_VERSION = 2
_CLIP = 1e-7
_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8  # Adam's moment decays and denominator floor


@dataclass
class DenseLayer:
    weights: np.ndarray  # (out_dim, in_dim)
    biases: np.ndarray  # (out_dim,)
    activation: str
    alpha: float = 0.3  # leaky_relu slope; ignored by other activations

    @property
    def in_dim(self) -> int:
        return self.weights.shape[1]

    @property
    def out_dim(self) -> int:
        return self.weights.shape[0]


@dataclass
class Mlp:
    """Dense layers whose weights and biases are views into one buffer, `params`.

    Construction copies them in, in `parameters()` order. Rebinding one later
    detaches it from the buffer, and an Adam update (`_apply`) refuses it.
    """

    layers: list[DenseLayer]
    dropout: dict[int, float] = field(default_factory=dict)
    params: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        for i, layer in enumerate(self.layers):
            if layer.activation not in ACTIVATIONS:
                raise ValueError(f"unknown activation {layer.activation!r}")
            # np.maximum(pre, alpha * pre) is leaky ReLU only for 0 <= alpha <= 1
            if layer.activation == "leaky_relu" and not 0.0 <= layer.alpha <= 1.0:
                raise ValueError(f"leaky_relu alpha must be in [0, 1], got {layer.alpha}")
            w_shape, b_shape = np.shape(layer.weights), np.shape(layer.biases)
            if len(w_shape) != 2 or b_shape != w_shape[:1]:
                raise ValueError(
                    f"layer {i} has weights of shape {w_shape} and biases of shape "
                    f"{b_shape}; need (out, in) and (out,)"
                )
            if i and layer.in_dim != self.layers[i - 1].out_dim:
                raise ValueError(
                    f"layer {i} expects {layer.in_dim} inputs, previous emits "
                    f"{self.layers[i - 1].out_dim}"
                )
        for idx, rate in self.dropout.items():
            if not 0 <= idx < len(self.layers):
                raise ValueError(f"dropout index {idx} out of range")
            if not 0.0 <= rate < 1.0:
                raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
        self.params = np.concatenate([np.ravel(p) for p in self.parameters()], dtype=float)
        offset = 0
        for layer in self.layers:
            for name in ("weights", "biases"):
                shape = np.shape(getattr(layer, name))
                size = int(np.prod(shape))
                setattr(layer, name, self.params[offset : offset + size].reshape(shape))
                offset += size

    def parameters(self) -> list[np.ndarray]:
        out = []
        for layer in self.layers:
            out += [layer.weights, layer.biases]
        return out

    def param_count(self) -> int:
        return self.params.size


def dense_layer(
    in_dim: int, out_dim: int, activation: str, rng: RngStream, alpha: float = 0.3
) -> DenseLayer:
    """Glorot-uniform weights, zero biases."""
    if in_dim < 1 or out_dim < 1:
        raise ValueError(f"layer dims must be >= 1, got {in_dim}->{out_dim}")
    limit = np.sqrt(6.0 / (in_dim + out_dim))
    g = rng.generator()
    w = g.uniform(-limit, limit, size=(out_dim, in_dim))
    return DenseLayer(weights=w, biases=np.zeros(out_dim), activation=activation, alpha=alpha)


@dataclass
class Tape:
    """Activation record of one forward pass, consumed by _backward."""

    inputs: list[np.ndarray]
    pres: list[np.ndarray]
    acts: list[np.ndarray]
    dropout_masks: dict[int, np.ndarray]


def _tape(net: Mlp, rows: int, masks: dict[int, np.ndarray]) -> Tape:
    """A tape whose pre-activation and activation buffers fit `rows` rows,
    applying `masks` (the dropout masks by layer) when it is run. A linear
    layer's activation is its pre-activation unless it is masked."""
    pres = [np.empty((rows, layer.out_dim)) for layer in net.layers]
    acts = [
        pre if layer.activation == "linear" and i not in masks else np.empty_like(pre)
        for i, (layer, pre) in enumerate(zip(net.layers, pres))
    ]
    return Tape([None] * len(net.layers), pres, acts, masks)


def _forward(net: Mlp, x: np.ndarray, tape: Tape) -> np.ndarray:
    """Run net on the checked rows x into the buffers of `tape`, applying
    its dropout masks; returns the output, the tape's last activation."""
    for i, layer in enumerate(net.layers):
        tape.inputs[i] = x
        pre = np.matmul(x, layer.weights.T, out=tape.pres[i])
        pre += layer.biases
        x = _activate(pre, layer, tape.acts[i])
        mask = tape.dropout_masks.get(i)
        if mask is not None:
            x = np.multiply(x, mask, out=tape.acts[i])
    return x


def _dropout_mask(u: np.ndarray, rate: float) -> np.ndarray:
    """The inverted-dropout mask (u >= rate) / (1 - rate) of uniform draws
    u, computed in u's buffer."""
    np.greater_equal(u, rate, out=u)
    u *= 1.0 / (1.0 - rate)
    return u


def forward(net: Mlp, x: np.ndarray) -> np.ndarray:
    """The network's (n, out_dim) output on (n, in_dim) rows, without dropout."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[1] != net.layers[0].in_dim:
        raise ValueError(f"input must be (n, {net.layers[0].in_dim}) rows, got shape {x.shape}")
    return _forward(net, x, _tape(net, len(x), {}))


class _Backprop:
    """The scratch of reverse passes of `net` over `rows` rows with the
    dropout layers `masked`, and the flat parameter gradient they write:
    `grads` holds its (dW, db) views in layer order, `flat` the whole, in
    the order of net.params."""

    def __init__(self, net: Mlp, rows: int, masked):
        self.masked = {i: np.empty((rows, net.layers[i].out_dim)) for i in masked}
        self.deltas = [np.empty((rows, layer.out_dim)) for layer in net.layers]
        self.dinputs = [np.empty((rows, layer.in_dim)) for layer in net.layers]
        self.flat = np.empty(net.param_count())
        self.grads, offset = [], 0
        for layer in net.layers:
            w_end = offset + layer.weights.size
            b_end = w_end + layer.out_dim
            self.grads.append(
                (self.flat[offset:w_end].reshape(layer.weights.shape), self.flat[w_end:b_end])
            )
            offset = b_end


def _backward(net: Mlp, tape: Tape, g: np.ndarray, work: _Backprop, param_grads: bool,
              input_grad: bool):
    """Exact reverse-mode gradients of the pass recorded on `tape`, its dropout
    masks replayed, for the (n, out_dim) upstream gradient g, into the buffers
    of `work`: the parameter gradients into work.grads if param_grads; returns
    the input gradient, or None without input_grad, which skips the first
    layer's input product. The parameters must be those of the pass."""
    for i in range(len(net.layers) - 1, -1, -1):
        layer = net.layers[i]
        mask = tape.dropout_masks.get(i)
        if mask is not None:
            g = np.multiply(g, mask, out=work.masked[i])
        g = _backprop_activation(g, tape.pres[i], tape.acts[i], layer, mask is not None,
                                 work.deltas[i])
        if param_grads:
            dw, db = work.grads[i]
            np.matmul(g.T, tape.inputs[i], out=dw)
            np.add.reduce(g, axis=0, out=db)
        if i == 0 and not input_grad:
            return None
        g = np.matmul(g, layer.weights, out=work.dinputs[i])
    return g


def _activate(pre: np.ndarray, layer: DenseLayer, out: np.ndarray | None = None) -> np.ndarray:
    """The layer's activation of `pre`, into `out` if given; a linear
    layer returns `pre` itself."""
    if layer.activation == "leaky_relu":
        # exact, signed zeros and NaN included, except that alpha 0 maps +inf
        # to NaN
        out = np.multiply(pre, layer.alpha, out=out)
        return np.maximum(pre, out, out=out)
    if layer.activation == "tanh":
        return np.tanh(pre, out=out)
    if layer.activation == "sigmoid":
        return _sigmoid(pre, out)
    return pre


def _sigmoid(pre: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    # overflow-free in both tails: exp only sees -|pre|, written as a minimum
    # so that a NaN keeps its sign bit through exp
    e = np.negative(pre, out=out)
    np.minimum(pre, e, out=e)
    np.exp(e, out=e)
    d = 1.0 + e
    np.divide(e, d, out=e)  # e / d where pre < 0 (and where it is NaN)
    np.copyto(e, np.divide(1.0, d, out=d), where=pre >= 0)
    return e


def _backprop_activation(g, pre, act, layer: DenseLayer, act_was_masked: bool, out=None):
    """`g` times the activation's derivative at `pre`, into `out` (which
    must not be `g`) if given."""
    if layer.activation == "leaky_relu":
        slope = np.greater(pre, 0.0, out=np.empty_like(pre) if out is None else out)
        np.maximum(slope, layer.alpha, out=slope)  # 1.0 where pre > 0, else alpha
        slope *= g
        return slope
    if layer.activation == "tanh":
        t = np.tanh(pre, out=out) if act_was_masked else act
        d = np.multiply(t, t, out=out)
        np.subtract(1.0, d, out=d)
        return np.multiply(g, d, out=d)
    if layer.activation == "sigmoid":
        s = _sigmoid(pre) if act_was_masked else act
        d = np.subtract(1.0, s, out=out)
        np.multiply(s, d, out=d)
        return np.multiply(g, d, out=d)
    return g


def _bce_scratch(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Float and bool scratch for _bce over n predictions."""
    return np.empty((5, n)), np.empty((2, n), dtype=bool)


def _bce(p: np.ndarray, t: np.ndarray, scratch) -> tuple[float, np.ndarray]:
    """Binary cross-entropy with saturation clipping of (n,) predictions p
    against (n,) targets t, in the buffers of _bce_scratch(n). Returns
    (mean loss, (n,) gradient of the mean w.r.t. each prediction), the
    gradient one of those buffers; it is zero where the prediction was
    clipped, consistent with the clipped loss surface."""
    (clipped, q, u, v, grad), (ok, below) = scratch
    np.maximum(p, _CLIP, out=clipped)
    np.minimum(clipped, 1.0 - _CLIP, out=clipped)
    np.subtract(1.0, clipped, out=q)
    np.multiply(t, np.log(clipped, out=u), out=u)
    np.subtract(1.0, t, out=v)
    np.multiply(v, np.log(q, out=grad), out=v)
    # -sum / n rounds exactly as the mean of the negated terms
    loss = -float(np.add.reduce(np.add(u, v, out=u))) / p.size
    np.subtract(clipped, t, out=u)
    np.divide(u, np.multiply(clipped, q, out=v), out=u)
    u /= p.size
    np.greater(p, _CLIP, out=ok)
    np.logical_and(ok, np.less(p, 1.0 - _CLIP, out=below), out=ok)
    grad.fill(0.0)
    np.copyto(grad, u, where=ok)
    return loss, grad


@dataclass
class AdamState:
    lr: float
    t: int = 0
    m: np.ndarray | None = None
    v: np.ndarray | None = None
    # two arrays of the parameters' shape that each update works in
    scratch: np.ndarray | None = field(default=None, init=False, repr=False)


def _adam(state: AdamState, params: np.ndarray, grads: np.ndarray) -> None:
    """One bias-corrected Adam update of the array `params` by `grads`, in place."""
    if state.m is None:
        state.m, state.v = np.zeros_like(params), np.zeros_like(params)
        state.scratch = np.empty((2, *params.shape))
    s, r = state.scratch
    state.t += 1
    c1 = 1.0 - _BETA1**state.t
    c2 = 1.0 - _BETA2**state.t
    state.m *= _BETA1
    state.m += np.multiply(1.0 - _BETA1, grads, out=s)
    state.v *= _BETA2
    state.v += np.multiply(1.0 - _BETA2, np.square(grads, out=s), out=s)
    # lr * (m / c1) / (sqrt(v / c2) + eps)
    np.multiply(state.lr, np.divide(state.m, c1, out=s), out=s)
    np.sqrt(np.divide(state.v, c2, out=r), out=r)
    r += _EPS
    params -= np.divide(s, r, out=s)


def _apply(net: Mlp, state: AdamState, flat: np.ndarray) -> None:
    """One Adam update of net.params by the gradient `flat`."""
    if any(p.base is not net.params for p in net.parameters()):
        raise ValueError("a layer's weights or biases were rebound after the network was built")
    _adam(state, net.params, flat)


# ---------------------------------------------------------------------------
# Checkpoints

def save_checkpoint(net: Mlp, path) -> None:
    """Write a network as one JSON object: per layer its activation, its
    leaky-ReLU slope and its packed (out, in) weights and (out,) biases
    (csiauth.packed), plus the dropout rates. A non-finite weight or bias
    raises ValueError naming the layer, and nothing is written."""
    for i, layer in enumerate(net.layers):
        if not (np.isfinite(layer.weights).all() and np.isfinite(layer.biases).all()):
            raise ValueError(f"{path}: layer {i} has a non-finite weight or bias; not saved")
    doc = {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "layers": [
            {
                "activation": l.activation,
                "alpha": l.alpha,
                "weights": pack(l.weights),
                "biases": pack(l.biases),
            }
            for l in net.layers
        ],
        "dropout": {str(i): rate for i, rate in sorted(net.dropout.items())},
    }
    Path(path).write_text(json.dumps(doc, sort_keys=True) + "\n")


def load_checkpoint(path) -> Mlp:
    """Read a network written by save_checkpoint; a malformed file, or one
    of an older format, raises ValueError naming it."""
    return read_document(
        path, _mlp_from_doc, CHECKPOINT_FORMAT_VERSION, "checkpoint", "csiauth train"
    )


def _mlp_from_doc(doc: dict) -> Mlp:
    layers = []
    for i, spec in enumerate(doc["layers"]):
        try:
            w = finite_array(spec, "weights", ndim=2)
            b = finite_array(spec, "biases", ndim=1)
        except ValueError as exc:
            raise ValueError(f"layer {i} {exc}") from None
        alpha = number(spec["alpha"], float, f'layer {i} "alpha"')
        layers.append(DenseLayer(w, b, spec["activation"], alpha))
    if not isinstance(doc["dropout"], dict):
        raise ValueError("dropout must be a JSON object")
    index = {str(i): i for i in range(len(layers))}  # the keys save_checkpoint writes
    if bad := [key for key in doc["dropout"] if key not in index]:
        raise ValueError(f"dropout key {bad[0]!r} is not a layer index 0 to {len(layers) - 1}")
    dropout = {index[i]: number(r, float, f'dropout "{i}"') for i, r in doc["dropout"].items()}
    return Mlp(layers, dropout)
