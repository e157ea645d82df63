"""Shared-weight twin feed-forward network, pair losses, and gradients.

There is exactly one parameter set: both twins are the same object, so
weight sharing is structural rather than synchronised. Embeddings are
produced by a plain MLP (hidden activations, linear output); pair distance
is the Euclidean norm between the two embeddings.

A training step works on the step's distinct feature rows: each is
embedded once in one forward trace, however many pairs it is in, and each
pair's embedding difference is read from those embeddings by position.
The loss gradient with respect to a row's embedding is the sum over its
pairs of +g where it is the left instance and -g where it is the right
one (g being the pair's gradient with respect to the difference), so
those sums go down one backprop together, and both twins' contributions
land in the shared parameters at once. Activation derivatives are read
from the stored activations.

The model's parameters, their gradients and their momentum are one
contiguous 1-D array each (weight matrices in layer order, then biases),
and the per-layer arrays are views into it. Backprop writes each layer's
gradient straight into its view; scaling, the finiteness check and the
momentum update each run once over the whole vector.

Every step and every embedding runs in the weights' dtype (the trainer
uses float32; `init_model` draws float64): input rows are cast to it, and
activations, gradients and momentum stay in it. Only `_pair_terms` works in
float64, on the per-pair distance vector, because in float32
1 - CLAMP_EPS rounds to 1. Activations are computed in place on the fresh
pre-activation.

`_pair_terms` is the one loss formula, for two losses:

* contrastive: similar pairs contribute d^2, dissimilar pairs
  max(margin - d, 0)^2; the batch loss is the sum over pairs.
* regularized_log: the distance is mapped to a similarity s = exp(-d)
  in (0, 1], the batch loss is the negated log-likelihood
  -sum(y log s + (1-y) log(1-s)) plus an L2 weight penalty added once
  per batch.

Gradients are exact analytic derivatives of those batch sums.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np
from numpy.typing import DTypeLike

from .dataset import is_integer, is_real

CLAMP_EPS = 1e-12
CHECKPOINT_FORMAT = "twin-embedding-checkpoint"
CHECKPOINT_VERSION = 1

CONTRASTIVE = "contrastive"
REGULARIZED_LOG = "regularized_log"


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-z)), overwriting z."""
    np.negative(z, out=z)
    np.exp(z, out=z)
    z += 1.0
    return np.reciprocal(z, out=z)


# (activation a = f(z), overwriting z; derivative f'(z) written in terms of
# a, in a's dtype)
_ACTIVATIONS = {
    "relu": (lambda z: np.maximum(z, 0.0, out=z), lambda a: (a > 0.0).astype(a.dtype)),
    "tanh": (lambda z: np.tanh(z, out=z), lambda a: 1.0 - a**2),
    "sigmoid": (_sigmoid, lambda a: a * (1.0 - a)),
    "linear": (lambda z: z, np.ones_like),
}


class ConfigError(ValueError):
    """A rejected config value; `fields` names the config fields at fault."""

    def __init__(self, message: str, *fields: str):
        super().__init__(message)
        self.fields = fields


@dataclass(frozen=True)
class LossConfig:
    kind: str = CONTRASTIVE
    margin: float = 1.0
    l2: float = 1e-4

    def __post_init__(self):
        if self.kind not in (CONTRASTIVE, REGULARIZED_LOG):
            raise ConfigError(f"unknown loss kind {self.kind!r}", "kind")
        for name in ("margin", "l2"):
            value = getattr(self, name)
            if not is_real(value):
                raise ConfigError(f"{name} must be a real number, got {value!r}", name)
        if self.kind == CONTRASTIVE and not 0 < self.margin < np.inf:
            raise ConfigError(f"contrastive loss requires finite margin > 0, got {self.margin!r}",
                              "margin")
        if not 0 <= self.l2 < np.inf:
            raise ConfigError(f"l2 coefficient must be finite and >= 0, got {self.l2!r}", "l2")


def _views(
    flat: np.ndarray, layer_sizes: Sequence[int]
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Per-layer weight and bias views into `flat`, which holds every weight
    matrix (row-major, in layer order) and then every bias vector."""
    shapes = list(zip(layer_sizes, layer_sizes[1:]))
    weights, biases = [], []
    start = 0
    for fan_in, fan_out in shapes:
        weights.append(flat[start:start + fan_in * fan_out].reshape(fan_in, fan_out))
        start += fan_in * fan_out
    for _, fan_out in shapes:
        biases.append(flat[start:start + fan_out])
        start += fan_out
    return weights, biases


@dataclass
class SiameseModel:
    """One parameter set serving both twins (f1 and f2 are identical).

    The given arrays are copied into one vector, `params`, in the dtype of
    `weights[0]`; `weights` and `biases` then hold views into it, so
    updating `params` updates every layer. Update the views in place:
    an array assigned into the lists is not part of `params`.
    """

    layer_sizes: tuple[int, ...]
    weights: list[np.ndarray]      # weights[k]: (layer_sizes[k], layer_sizes[k+1])
    biases: list[np.ndarray]
    activation: str = "sigmoid"
    params: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.layer_sizes = checked_layers(self.layer_sizes, self.activation)
        if len(self.layer_sizes) < 2:
            raise ValueError(f"need at least input and embedding widths, got {list(self.layer_sizes)}")
        shapes = list(zip(self.layer_sizes, self.layer_sizes[1:]))
        if len(self.weights) != len(shapes) or len(self.biases) != len(shapes):
            raise ValueError(
                f"layer_sizes {list(self.layer_sizes)} need {len(shapes)} weights and biases, "
                f"got {len(self.weights)} and {len(self.biases)}"
            )
        for k, ((fan_in, fan_out), w, b) in enumerate(zip(shapes, self.weights, self.biases)):
            if w.shape != (fan_in, fan_out) or b.shape != (fan_out,):
                raise ValueError(
                    f"layer {k}: weight {w.shape} and bias {b.shape} do not match layer_sizes "
                    f"{list(self.layer_sizes)}, which need {(fan_in, fan_out)} and {(fan_out,)}"
                )
        self.params = np.empty(sum(w.size + b.size for w, b in zip(self.weights, self.biases)),
                               dtype=self.weights[0].dtype)
        weights, biases = _views(self.params, self.layer_sizes)
        for view, given in zip(weights + biases, self.weights + self.biases):
            view[...] = given
        self.weights, self.biases = weights, biases

    @property
    def n_layers(self) -> int:
        return len(self.weights)

    @property
    def input_width(self) -> int:
        return self.layer_sizes[0]

    @property
    def dtype(self) -> np.dtype:
        """The compute dtype: inputs are cast to it, every step runs in it."""
        return self.params.dtype

    def copy(self, dtype: DTypeLike = None) -> "SiameseModel":
        """An independent copy, its parameters cast to `dtype` if given."""
        dtype = self.dtype if dtype is None else dtype
        return SiameseModel(
            self.layer_sizes,
            [w.astype(dtype, copy=False) for w in self.weights],
            [b.astype(dtype, copy=False) for b in self.biases],
            self.activation,
        )


def checked_layers(widths: Sequence[int], activation: str) -> tuple[int, ...]:
    """`widths` as ints, once every one is a positive integer (`is_integer`)
    and `activation` is known."""
    if not all(is_integer(s) for s in widths):
        raise ConfigError(f"layer widths must be integers, got {list(widths)}", "architecture")
    sizes = tuple(int(s) for s in widths)
    if any(s <= 0 for s in sizes):
        raise ConfigError(f"layer widths must be positive, got {list(sizes)}", "architecture")
    if activation not in _ACTIVATIONS:
        raise ConfigError(f"unknown activation {activation!r}; have {sorted(_ACTIVATIONS)}",
                          "activation")
    return sizes


def init_model(
    layer_sizes: Sequence[int],
    activation: str = "sigmoid",
    rng: int | np.random.Generator = 0,
) -> SiameseModel:
    """Scaled-uniform weight init (bound sqrt(6/(fan_in+fan_out))), zero biases,
    in float64."""
    sizes = checked_layers(layer_sizes, activation)
    if isinstance(rng, (int, np.integer)):
        rng = np.random.default_rng(rng)
    weights, biases = [], []
    for fan_in, fan_out in zip(sizes, sizes[1:]):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return SiameseModel(sizes, weights, biases, activation)


def _forward_trace(model: SiameseModel, x: np.ndarray) -> list[np.ndarray]:
    """Forward pass keeping every layer's activations, the input first."""
    act_fn, _ = _ACTIVATIONS[model.activation]
    last = model.n_layers - 1
    acts = [x]
    # an overflowing pre-activation is caught below; a sigmoid's exp(-z) may
    # overflow to inf, which gives 0
    with np.errstate(over="ignore", invalid="ignore"):
        for k, (w, b) in enumerate(zip(model.weights, model.biases)):
            z = acts[-1] @ w
            z += b
            if not np.isfinite(z).all():
                raise FloatingPointError(f"numerical overflow in layer {k}")
            acts.append(z if k == last else act_fn(z))
    return acts


def embed(model: SiameseModel, x: np.ndarray) -> np.ndarray:
    """Embed a (rows, input width) block in the model's dtype; the output
    layer is linear."""
    x = np.asarray(x, dtype=model.dtype)
    if x.ndim != 2 or x.shape[1] != model.input_width:
        raise ValueError(f"input of shape {x.shape} is not a block of rows of the model's "
                         f"input width {model.input_width}")
    return _forward_trace(model, x)[-1]


@dataclass
class Gradients:
    """dL/d(parameter) as one vector laid out like `SiameseModel.params`
    for `layer_sizes`; `d_weights` and `d_biases` are views into it."""

    layer_sizes: tuple[int, ...]
    flat: np.ndarray
    d_weights: list[np.ndarray] = field(init=False, repr=False)
    d_biases: list[np.ndarray] = field(init=False, repr=False)

    def __post_init__(self):
        self.d_weights, self.d_biases = _views(self.flat, self.layer_sizes)

    def scale(self, factor: float) -> None:
        """Multiply every gradient by `factor`, in place."""
        self.flat *= factor

    def check_finite(self) -> None:
        """Raise FloatingPointError naming the first layer with a non-finite
        gradient, if any."""
        if np.isfinite(self.flat).all():
            return
        for k, (g_w, g_b) in enumerate(zip(self.d_weights, self.d_biases)):
            if not (np.isfinite(g_w).all() and np.isfinite(g_b).all()):
                raise FloatingPointError(f"numerical overflow in layer {k}")


def _pair_terms(d: np.ndarray, similar: np.ndarray, loss: LossConfig, model: SiameseModel):
    """Per-pair losses and the coefficient c with dL/d(e1-e2) = c * (e1-e2),
    the target y being the similar mask read as 1.0 or 0.0.

    Works in float64 whatever d's dtype: in float32, 1 - CLAMP_EPS rounds to
    1, and a dissimilar pair at d = 0 would take log(0). The losses are
    float64; c comes back in d's dtype.
    """
    dtype = d.dtype
    d = d.astype(np.float64, copy=False)
    if loss.kind == CONTRASTIVE:
        slack = np.maximum(loss.margin - d, 0.0)
        losses = np.square(np.where(similar, d, slack))
        # c = 2 for a similar pair and -2 * slack / d for a dissimilar one,
        # 0 at d = 0; written 0 - 2 * slack / d so an inactive hinge gives
        # +0.0, as the y-weighted sum 2y - 2(1 - y) slack / d does
        repel = np.divide(slack, d, out=np.zeros_like(d), where=d > 0.0)
        coeff = np.where(similar, 2.0, 0.0 - 2.0 * repel)
        return losses, coeff.astype(dtype, copy=False), 0.0
    y = np.asarray(similar, dtype=np.float64)
    raw = np.exp(-d)
    s = np.clip(raw, CLAMP_EPS, 1.0 - CLAMP_EPS)
    losses = -(y * np.log(s) + (1.0 - y) * np.log(1.0 - s))
    clamped = (raw <= CLAMP_EPS) | (raw >= 1.0 - CLAMP_EPS)
    dl_ds = np.where(clamped, 0.0, -(y / s - (1.0 - y) / (1.0 - s)))
    dl_dd = dl_ds * -raw
    with np.errstate(divide="ignore", invalid="ignore"):
        coeff = np.where(d > 0.0, dl_dd / d, 0.0)
    penalty = loss.l2 * sum(
        float(np.sum(np.square(w, dtype=np.float64))) for w in model.weights
    )
    return losses, coeff.astype(dtype, copy=False), penalty


def _backprop(model: SiameseModel, acts: list[np.ndarray], upstream: np.ndarray) -> Gradients:
    """Parameter gradients from dL/d(output) for every traced row."""
    _, act_deriv = _ACTIVATIONS[model.activation]
    grads = Gradients(model.layer_sizes, np.empty_like(model.params))
    # a bias gradient is a column sum; as a matrix-vector product it costs a
    # fifth of delta.sum(axis=0) on these narrow blocks
    ones = np.ones(len(upstream), dtype=upstream.dtype)
    delta = upstream
    for k in range(model.n_layers - 1, -1, -1):
        np.matmul(acts[k].T, delta, out=grads.d_weights[k])
        np.matmul(ones, delta, out=grads.d_biases[k])
        if k > 0:
            delta = delta @ model.weights[k].T
            delta *= act_deriv(acts[k])
    return grads


def _row_sums(g: np.ndarray, left: np.ndarray, right: np.ndarray, n_rows: int) -> np.ndarray:
    """dL/d(embedding) for each of `n_rows` rows: the sum of g[k] over the
    pairs k whose left row it is, minus the sum over those whose right row
    it is, in g's dtype.

    One `np.bincount` over flat (row, column) indices adds every slot; it
    sums in float64.
    """
    width = g.shape[1]
    slots = np.concatenate((left, right))[:, None] * width + np.arange(width)
    sums = np.bincount(slots.ravel(), np.concatenate((g, -g)).ravel(), minlength=n_rows * width)
    return sums.reshape(n_rows, width).astype(g.dtype, copy=False)


def batch_gradients(
    model: SiameseModel,
    left: np.ndarray,
    right: np.ndarray,
    similar: np.ndarray,
    rows: np.ndarray,
    loss: LossConfig,
) -> tuple[Gradients, float]:
    """Exact gradients of the batch loss for every weight and bias.

    Pair k is the feature rows rows[left[k]] and rows[right[k]], similar
    or not by the bool mask similar[k]; `left` and `right` are positions
    into `rows`, one per pair. Each row of `rows` is embedded once, and
    both twins backpropagate into the same parameter set in one pass, so
    a row that several pairs share costs one row's work. Returns the
    gradients together with the batch loss.
    """
    n = len(left)
    if n == 0:
        raise ValueError("batch is empty")
    if len(right) != n or len(similar) != n:
        raise ValueError(f"{n} left rows, {len(right)} right rows and {len(similar)} targets")
    acts = _forward_trace(model, np.asarray(rows, dtype=model.dtype))
    emb = acts[-1]
    diff = np.take(emb, left, axis=0)
    diff -= np.take(emb, right, axis=0)
    # the distances as `evaluator._pair_distances` computes them (square,
    # sum, root: bit-identical to np.linalg.norm)
    d = np.sqrt(np.add.reduce(np.square(diff), axis=-1))
    losses, coeff, penalty = _pair_terms(d, similar, loss, model)
    diff *= coeff[:, None]    # g = dL/d(e_left - e_right), pair by pair
    grads = _backprop(model, acts, _row_sums(diff, left, right, len(emb)))
    if loss.kind == REGULARIZED_LOG and loss.l2 > 0:
        for k, w in enumerate(model.weights):
            grads.d_weights[k] += 2.0 * loss.l2 * w
    grads.check_finite()
    return grads, float(losses.sum() + penalty)


@dataclass
class MomentumState:
    """Classic momentum over the flat parameter vector:
    v <- momentum*v + g; params <- params - lr*v."""

    momentum: float
    velocity: np.ndarray


def init_momentum_state(model: SiameseModel, momentum: float = 0.9) -> MomentumState:
    return MomentumState(momentum, np.zeros_like(model.params))


def apply_update(
    model: SiameseModel,
    grads: Gradients,
    state: MomentumState,
    learning_rate: float,
) -> None:
    """One momentum gradient-descent step, updating the model's parameter
    vector and the velocity in place."""
    v = state.velocity
    v *= state.momentum
    v += grads.flat
    model.params -= learning_rate * v


def _shortest_digits(a: np.ndarray) -> list:
    """`a` as nested lists of Python floats, each printed by `json` in the
    shortest digits that read back to the same value in `a`'s dtype (at
    most 9 significant digits for float32, not its float64 repr)."""
    return np.array([float(str(v)) for v in a.ravel()]).reshape(a.shape).tolist()


def save_model(model: SiameseModel, path: str | Path) -> None:
    """Text checkpoint; float32 and float64 parameters round-trip exactly,
    in their dtype."""
    payload = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "layer_sizes": list(model.layer_sizes),
        "activation": model.activation,
        "dtype": model.dtype.name,
        "weights": [_shortest_digits(w) for w in model.weights],
        "biases": [_shortest_digits(b) for b in model.biases],
    }
    Path(path).write_text(json.dumps(payload), encoding="utf-8")


def load_model(path: str | Path) -> SiameseModel:
    """The model `save_model` wrote to `path`; a file that is not such a
    checkpoint raises ValueError, naming the path."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:   # not UTF-8, or not JSON
        raise ValueError(f"{path}: not a model checkpoint: {exc}") from None
    if not isinstance(payload, dict) or payload.get("format") != CHECKPOINT_FORMAT:
        raise ValueError(f"{path}: not a model checkpoint")
    if payload.get("version") != CHECKPOINT_VERSION:
        raise ValueError(f"{path}: unsupported checkpoint version {payload.get('version')!r}")
    # a checkpoint written before the dtype was recorded holds float64
    dtype = payload.get("dtype", "float64")
    if dtype not in ("float32", "float64"):
        raise ValueError(f"{path}: unsupported parameter dtype {dtype!r}")
    for key in ("layer_sizes", "weights", "biases", "activation"):
        if key not in payload:
            raise ValueError(f"{path}: checkpoint has no {key!r}")
        if key != "activation" and not isinstance(payload[key], list):
            raise ValueError(f"{path}: checkpoint {key!r} is not a list")
    try:
        return SiameseModel(
            tuple(payload["layer_sizes"]),
            [np.array(w, dtype=dtype) for w in payload["weights"]],
            [np.array(b, dtype=dtype) for b in payload["biases"]],
            payload["activation"],
        )
    except ConfigError as exc:   # widths or an activation that `checked_layers` refuses
        key = "layer_sizes" if "architecture" in exc.fields else "activation"
        raise ValueError(f"{path}: {exc} (checkpoint {key!r})") from None
    except (TypeError, ValueError) as exc:   # a list entry of the wrong type, or a bad shape
        raise ValueError(f"{path}: {exc}") from None
