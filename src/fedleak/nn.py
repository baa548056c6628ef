"""Dense feed-forward classifier with hand-written float64 gradients.

The output layer acts on the activated output of the last hidden layer
(the "embedding"); for a single linear layer the embedding is the input
itself. Forward and backward are pure functions of their arguments, so a
model instance can be shared freely across threads for reads.

ParamVec owns the layout of a parameter vector (a weights list and a
biases list, with or without a leading stack axis): ParamVec.map is the
one place that zips those lists into a new vector.

Checkpoint format (save_model/load_model): one UTF-8 JSON header line
{"layer_sizes": [...], "activation": "<name>"} terminated by "\\n",
followed by the raw row-major little-endian float64 bytes of W then b
for each layer in order. Round-trips are bit-exact.
"""

import json
from dataclasses import dataclass

import numpy as np

SELU_ALPHA = 1.6732632423543772
SELU_LAMBDA = 1.0507009873554805

# The entry ParamVec.max_abs starts from, so a vector with no entries gives 0.0.
_ZERO = np.zeros(1)
_ZERO.flags.writeable = False


def _relu(z, out=None):
    return np.maximum(z, 0.0, out=out)


def _relu_grad(z):
    return (z > 0.0).astype(np.float64)


def _tanh(z, out=None):
    return np.tanh(z, out=out)


def _tanh_grad(z):
    t = np.tanh(z)
    return 1.0 - t * t


def _copy_into(z, out):
    """out holding z's values: a new float64 copy when out is None."""
    if out is None:
        return np.array(z, dtype=np.float64)
    if out is not z:
        np.copyto(out, z)
    return out


def _elu(z, out=None):
    # expm1 only where z <= 0, which is np.where(z > 0, z, expm1(z)) bit
    # for bit, NaN included, without an expm1 of the whole array
    out = _copy_into(z, out)
    return np.expm1(out, out=out, where=out <= 0.0)


def _elu_grad(z):
    return np.where(z > 0.0, 1.0, np.exp(z))


def _selu(z, out=None):
    out = _copy_into(z, out)
    neg = out <= 0.0
    np.expm1(out, out=out, where=neg)
    np.multiply(out, SELU_ALPHA, out=out, where=neg)
    out *= SELU_LAMBDA
    return out


def _selu_grad(z):
    return SELU_LAMBDA * np.where(z > 0.0, 1.0, SELU_ALPHA * np.exp(z))


def _silu(z, out=None):
    s = np.negative(z)
    np.exp(s, out=s)
    s += 1.0
    np.divide(1.0, s, out=s)
    return np.multiply(z, s, out=out)


def _silu_grad(z):
    s = 1.0 / (1.0 + np.exp(-z))
    return s * (1.0 + z * (1.0 - s))


# name -> (activation, gradient). Each activation takes an optional out=,
# which may be z itself, and gives the same bits either way.
ACTIVATIONS = {
    "relu": (_relu, _relu_grad),
    "tanh": (_tanh, _tanh_grad),
    "elu": (_elu, _elu_grad),
    "selu": (_selu, _selu_grad),
    "silu": (_silu, _silu_grad),
}


@dataclass
class ParamVec:
    """A list of (W, b) arrays shaped like a model's parameters.

    Used for gradients, update deltas, control variates and drift terms.
    """

    weights: list
    biases: list

    def map(self, fn, *others) -> "ParamVec":
        """A new ParamVec of fn over each array and the same-layer arrays of others."""
        return ParamVec(
            [fn(*layer) for layer in zip(self.weights, *(o.weights for o in others))],
            [fn(*layer) for layer in zip(self.biases, *(o.biases for o in others))],
        )

    def __getitem__(self, idx) -> "ParamVec":
        """Every array indexed on its leading axis: vec[k] is slice k of a stack."""
        return self.map(lambda arr: arr[idx])

    def copy(self) -> "ParamVec":
        # ndarray.copy, not np.copy: C order whatever the source's layout
        return self.map(np.ndarray.copy)

    def add_(self, other: "ParamVec", scale: float = 1.0) -> "ParamVec":
        """In-place self += scale * other; at scale 1.0, other is added as is."""
        for w, ow in zip(self.weights, other.weights):
            w += ow if scale == 1.0 else scale * ow
        for b, ob in zip(self.biases, other.biases):
            b += ob if scale == 1.0 else scale * ob
        return self

    def scaled(self, s: float) -> "ParamVec":
        return self.map(lambda arr: s * arr)

    def sub(self, other: "ParamVec") -> "ParamVec":
        return self.map(np.subtract, other)

    def max_abs(self) -> float:
        """Largest absolute entry, 0.0 when there is none; NaN if any entry is NaN.

        One flat copy of every entry and a leading zero, made absolute in
        place, and one max: three numpy calls whatever the layer count.
        """
        flat = np.concatenate([_ZERO, *self.weights, *self.biases], axis=None)
        return float(np.abs(flat, out=flat).max())


@dataclass
class Model:
    """Stack of dense layers; `activation` applies after every layer but the last."""

    weights: list
    biases: list
    activation: str = "relu"

    def __post_init__(self):
        self._check(scan=True)

    @classmethod
    def _prechecked(cls, weights, biases, activation: str) -> "Model":
        """A Model of parameters the caller has already checked finite.

        Makes every check of the constructor but the scan for non-finite
        entries, so arrays that were just scanned are not scanned again.
        """
        model = cls.__new__(cls)
        model.weights, model.biases, model.activation = weights, biases, activation
        model._check(scan=False)
        return model

    def _check(self, scan: bool) -> None:
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        if len(self.weights) != len(self.biases) or not self.weights:
            raise ValueError("weights and biases must be non-empty and aligned")
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.ndim != 2 or b.ndim != 1 or w.shape[0] != b.shape[0]:
                raise ValueError(f"layer {i}: W must be (out, in) and b (out,)")
            if i > 0 and w.shape[1] != self.weights[i - 1].shape[0]:
                raise ValueError(f"layer {i}: fan-in does not match previous fan-out")
            if scan and not (np.isfinite(w).all() and np.isfinite(b).all()):
                raise ValueError(f"layer {i}: non-finite parameters")

    @property
    def n_classes(self) -> int:
        return self.weights[-1].shape[0]

    @property
    def layer_sizes(self) -> list:
        return [self.weights[0].shape[1]] + [w.shape[0] for w in self.weights]

    def copy(self) -> "Model":
        return Model([w.copy() for w in self.weights], [b.copy() for b in self.biases], self.activation)

    def params(self) -> ParamVec:
        """Live view of the parameters (shared arrays, not copies)."""
        return ParamVec(list(self.weights), list(self.biases))


def zeros_like_params(model: Model) -> ParamVec:
    return model.params().map(np.zeros_like)


def init_model(layer_sizes, activation: str = "relu", seed: int = 0) -> Model:
    """Uniform [-1/sqrt(fan_in), +1/sqrt(fan_in)] init, seeded."""
    if len(layer_sizes) < 2:
        raise ValueError("need at least input and output sizes")
    if any(size < 1 for size in layer_sizes):
        raise ValueError(f"every layer size must be at least 1, got {list(layer_sizes)}")
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:]):
        bound = 1.0 / np.sqrt(fan_in)
        weights.append(rng.uniform(-bound, bound, size=(fan_out, fan_in)))
        biases.append(rng.uniform(-bound, bound, size=fan_out))
    return Model(weights, biases, activation)


def forward_batch(model: Model, features: np.ndarray):
    """Forward pass for a (B, d) batch. Returns (logits (B, N), embeddings (B, L)).

    The embeddings are row-major (C-contiguous). The logits are stored
    class-major (F-contiguous): the output layer is computed as
    W @ h.T + b[:, None] and returned transposed. The tests check that
    this gives the bits of the row-major h @ W.T + b. Per-row and
    per-class reductions over the logits (softmax_rows,
    attack.plugin_confusion) then run over contiguous class vectors.
    """
    act, _ = ACTIVATIONS[model.activation]
    h = np.asarray(features, dtype=np.float64)
    # each layer's bias and activation are applied in place on its fresh
    # product, so at most two activations are alive at once, a layer's input
    # and its output: every attack runs this over the whole auxiliary set,
    # and a smaller transient lets the allocator reuse its memory instead of
    # returning it to the OS and faulting it in again
    for w, b in zip(model.weights[:-1], model.biases[:-1]):
        h = h @ w.T
        h += b
        act(h, out=h)
    logits = model.weights[-1] @ h.T
    logits += model.biases[-1][:, None]
    return logits.T, h


def softmax_rows(q: np.ndarray) -> np.ndarray:
    """Numerically stable softmax of each row of a (B, N) logit matrix.

    q is never written. For float logits the result is the one new (B, N)
    array, in q's memory order: the shifted logits are exponentiated and
    normalized in place. Integer logits give float probabilities, as
    np.exp does.
    """
    e = q - q.max(axis=1, keepdims=True)
    e = np.exp(e, out=e if e.dtype.kind == "f" else None)
    e /= e.sum(axis=1, keepdims=True)
    return e


def output_layer_gradient(q: np.ndarray, y: int) -> np.ndarray:
    """Cross-entropy gradient w.r.t. the output bias for one sample.

    Equals softmax(q) minus the one-hot of the true label: the true-class
    entry is softmax_y - 1, every other entry is the softmax probability.
    The entries always sum to zero.
    """
    g = softmax_rows(q[None, :])[0]
    g[y] -= 1.0
    return g


def cross_entropy(logits: np.ndarray, labels: np.ndarray) -> float:
    """Mean cross-entropy over a batch, via log-sum-exp."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1))
    rows = np.arange(len(labels))
    return float(np.mean(lse - shifted[rows, labels]))


def backward(model: Model, features: np.ndarray, labels: np.ndarray):
    """Mean cross-entropy loss and its gradient over a batch.

    Returns (loss, ParamVec of gradients). Gradients are means over the
    batch, so duplicating a sample leaves them unchanged. This is the
    one-model case of backward_stack.
    """
    x = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    losses, grad = backward_stack(model.params()[None], model.activation, x[None], y[None])
    return float(losses[0]), grad[0]


def backward_stack(params: ParamVec, activation: str, features: np.ndarray, labels: np.ndarray):
    """Mean cross-entropy losses and gradients of K models, each on its own batch.

    params holds (K, out, in) weights and (K, out) biases, features is
    (K, B, d) and labels (K, B). Returns (losses (K,), ParamVec of (K, ...)
    gradients). Slice k is bit for bit what model k gives alone: every
    matmul runs per slice with the one-model shapes and transposes,
    elementwise ops are per element, and each batch reduction keeps its
    order within the slice.
    """
    act, act_grad = ACTIVATIONS[activation]
    x = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    stack, batch = y.shape
    if batch == 0:
        raise ValueError("empty batch")
    weights, biases = params.weights, params.biases

    pre = []
    h = x
    hs = [h]
    for w, b in zip(weights[:-1], biases[:-1]):
        z = h @ w.transpose(0, 2, 1) + b[:, None, :]
        pre.append(z)
        h = act(z)
        hs.append(h)
    logits = h @ weights[-1].transpose(0, 2, 1) + biases[-1][:, None, :]

    # the log-sum-exp of the loss and the softmax of the delta share one exp
    shifted = logits - logits.max(axis=2, keepdims=True)
    e = np.exp(shifted)
    total = e.sum(axis=2, keepdims=True)
    true_class = (np.arange(stack)[:, None], np.arange(batch), y)
    losses = np.mean(np.log(total[:, :, 0]) - shifted[true_class], axis=1)
    delta = e / total
    delta[true_class] -= 1.0
    delta /= batch

    grad_w = [None] * len(weights)
    grad_b = [None] * len(biases)
    grad_w[-1] = delta.transpose(0, 2, 1) @ hs[-1]
    grad_b[-1] = delta.sum(axis=1)
    up = delta
    for i in range(len(weights) - 2, -1, -1):
        up = (up @ weights[i + 1]) * act_grad(pre[i])
        grad_w[i] = up.transpose(0, 2, 1) @ hs[i]
        grad_b[i] = up.sum(axis=1)
    return losses, ParamVec(grad_w, grad_b)


def accuracy(model: Model, features: np.ndarray, labels: np.ndarray) -> float:
    logits, _ = forward_batch(model, features)
    return float(np.mean(logits.argmax(axis=1) == labels))


def save_model(path, model: Model) -> None:
    header = json.dumps(
        {"layer_sizes": model.layer_sizes, "activation": model.activation},
        separators=(",", ":"),
    )
    with open(path, "wb") as fh:
        fh.write(header.encode("utf-8") + b"\n")
        for w, b in zip(model.weights, model.biases):
            fh.write(np.ascontiguousarray(w, dtype="<f8").tobytes())
            fh.write(np.ascontiguousarray(b, dtype="<f8").tobytes())


def load_model(path) -> Model:
    with open(path, "rb") as fh:
        header = fh.readline()
        try:
            meta = json.loads(header.decode("utf-8"))
            sizes = meta["layer_sizes"]
            activation = meta["activation"]
        except (ValueError, KeyError, TypeError, UnicodeDecodeError) as exc:
            raise ValueError(f"corrupt checkpoint header in {path}") from exc
        # exact ints only: a float would be truncated and a zero width would
        # load a model whose logits are its output bias
        if not (isinstance(sizes, list) and len(sizes) >= 2 and all(type(s) is int and s >= 1 for s in sizes)):
            raise ValueError(
                f"checkpoint {path} has layer_sizes {json.dumps(sizes)}; need two or more integers, each at least 1"
            )
        blob = fh.read()
    weights, biases = [], []
    offset = 0
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        wn = fan_out * fan_in * 8
        bn = fan_out * 8
        if offset + wn + bn > len(blob):
            raise ValueError(f"truncated checkpoint {path}")
        weights.append(
            np.frombuffer(blob, dtype="<f8", count=fan_out * fan_in, offset=offset)
            .reshape(fan_out, fan_in)
            .copy()
        )
        offset += wn
        biases.append(np.frombuffer(blob, dtype="<f8", count=fan_out, offset=offset).copy())
        offset += bn
    if offset != len(blob):
        raise ValueError(f"trailing bytes in checkpoint {path}")
    return Model(weights, biases, activation)
