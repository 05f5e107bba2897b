"""Dense rectifier network with a single sigmoid output, plus Adam.

The instance classifier is a small fully connected network: rectifier hidden
layers, one sigmoid-activated output interpreted as the positive-class
probability.  Forward and backward passes are written directly in numpy with
analytic gradients; the test suite checks them against central finite
differences.

Dense products go through ``np.einsum`` rather than the ``@`` operator on
purpose: BLAS matmul picks different summation orders depending on the batch
size, while einsum's fixed-order reduction makes a row's output bit-identical
whether the instance is scored alone or inside a batch.

Parameters live in one flat float64 vector with layout
``W0, b0, W1, b1, ...`` where each weight matrix is stored row-major with
shape (fan_in, fan_out).
"""

import json
from dataclasses import dataclass, replace

import numpy as np

from .errors import FormatError, NumericalError, UsageError
from .files import write_atomic

CHECKPOINT_FORMAT = "llpkit-checkpoint"
CHECKPOINT_VERSION = 1


@dataclass(frozen=True, eq=False)
class ClassifierParams:
    """Architecture descriptor plus the flat parameter vector."""

    layer_sizes: tuple[int, ...]
    theta: np.ndarray

    def __post_init__(self):
        sizes = tuple(int(w) for w in self.layer_sizes)
        object.__setattr__(self, "layer_sizes", sizes)
        _validate_sizes(sizes)
        theta = np.asarray(self.theta, dtype=np.float64)
        if theta.shape != (param_count(sizes),):
            raise UsageError(
                f"parameter vector has {theta.size} entries, architecture "
                f"{sizes} needs {param_count(sizes)}"
            )
        if not np.all(np.isfinite(theta)):
            raise UsageError("parameter vector contains non-finite entries")
        object.__setattr__(self, "theta", theta)

    @property
    def input_dim(self) -> int:
        return self.layer_sizes[0]

    def with_theta(self, theta: np.ndarray) -> "ClassifierParams":
        return ClassifierParams(self.layer_sizes, theta)


@dataclass(frozen=True, eq=False)
class OptimizerState:
    """Adam accumulators and hyperparameters for one parameter vector."""

    first_moment: np.ndarray
    second_moment: np.ndarray
    step: int = 0
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8


def _validate_sizes(layer_sizes) -> None:
    if len(layer_sizes) < 2:
        raise UsageError("architecture needs at least an input and an output layer")
    if any(w < 1 for w in layer_sizes):
        raise UsageError(f"zero-width layer in architecture {tuple(layer_sizes)}")
    if layer_sizes[-1] != 1:
        raise UsageError("output layer must have width 1")


def _layers(layer_sizes):
    """Yield (weight_slice, bias_slice, (fan_in, fan_out)) per layer."""
    offset = 0
    for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:]):
        w = slice(offset, offset + fan_in * fan_out)
        b = slice(w.stop, w.stop + fan_out)
        offset = b.stop
        yield w, b, (fan_in, fan_out)


def param_count(layer_sizes) -> int:
    return sum(i * o + o for i, o in zip(layer_sizes[:-1], layer_sizes[1:]))


def init_params(layer_sizes, seed: int) -> ClassifierParams:
    """Zero-mean weights scaled by 1/sqrt(fan_in), zero biases."""
    sizes = tuple(int(w) for w in layer_sizes)
    _validate_sizes(sizes)
    rng = np.random.default_rng(seed)
    theta = np.zeros(param_count(sizes))
    for w, _, (fan_in, fan_out) in _layers(sizes):
        theta[w] = rng.standard_normal(fan_in * fan_out) / np.sqrt(fan_in)
    return ClassifierParams(sizes, theta)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # Piecewise-stable form; never exponentiates a positive argument.
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _check_batch(params: ClassifierParams, batch) -> np.ndarray:
    batch = np.asarray(batch, dtype=np.float64)
    if batch.ndim != 2:
        raise UsageError(f"batch must be a 2-d matrix, got shape {batch.shape}")
    if batch.shape[1] != params.input_dim:
        raise UsageError(
            f"batch has {batch.shape[1]} feature columns, network expects "
            f"{params.input_dim}"
        )
    return batch


def _forward_trace(params: ClassifierParams, batch: np.ndarray):
    """Run the network, keeping pre-activations for the backward pass."""
    theta = params.theta
    activations = [batch]
    pre = []
    a = batch
    last = len(params.layer_sizes) - 2
    for idx, (w, b, (fan_in, fan_out)) in enumerate(_layers(params.layer_sizes)):
        weight = theta[w].reshape(fan_in, fan_out)
        z = np.einsum("ni,io->no", a, weight) + theta[b]
        pre.append(z)
        a = _sigmoid(z) if idx == last else np.maximum(z, 0.0)
        activations.append(a)
    return activations[-1][:, 0], pre, activations


def forward(params: ClassifierParams, batch) -> np.ndarray:
    """Positive-class probability per batch row, each strictly in (0, 1)
    up to float64 saturation."""
    batch = _check_batch(params, batch)
    probs, _, _ = _forward_trace(params, batch)
    return probs


def backward(params: ClassifierParams, batch, loss) -> tuple[float, np.ndarray]:
    """One network pass over ``batch``, the loss on its outputs, and the
    chain rule back through the same pass.

    ``loss(probs)`` returns ``(value, dvalue/dprobs)`` with one gradient
    entry per batch row; the result is ``(value, dvalue/dtheta)`` with the
    gradient in the layout of ``params.theta``.
    """
    batch = _check_batch(params, batch)
    probs, pre, activations = _forward_trace(params, batch)
    value, g = loss(probs)
    g = np.asarray(g, dtype=np.float64)
    if g.shape != probs.shape:
        raise UsageError(
            f"loss gradient has shape {g.shape}, expected {probs.shape}"
        )

    grad = np.zeros_like(params.theta)
    layers = list(_layers(params.layer_sizes))
    # Sigmoid output layer: dz = dLoss/dprob * prob * (1 - prob).
    dz = (g * probs * (1.0 - probs))[:, None]
    for idx in range(len(layers) - 1, -1, -1):
        w, b, (fan_in, fan_out) = layers[idx]
        a_prev = activations[idx]
        grad[w] = np.einsum("ni,no->io", a_prev, dz).reshape(-1)
        grad[b] = dz.sum(axis=0)
        if idx > 0:
            weight = params.theta[w].reshape(fan_in, fan_out)
            da = np.einsum("no,io->ni", dz, weight)
            dz = da * (pre[idx - 1] > 0.0)
    return value, grad


def init_optimizer(
    params: ClassifierParams, learning_rate: float = 1e-3
) -> OptimizerState:
    return OptimizerState(
        first_moment=np.zeros_like(params.theta),
        second_moment=np.zeros_like(params.theta),
        learning_rate=learning_rate,
    )


def optimizer_step(
    params: ClassifierParams, state: OptimizerState, grad
) -> tuple[ClassifierParams, OptimizerState]:
    """One bias-corrected Adam update; returns new params and state."""
    grad = np.asarray(grad, dtype=np.float64)
    if grad.shape != params.theta.shape:
        raise UsageError(
            f"gradient shape {grad.shape} does not match parameters "
            f"{params.theta.shape}"
        )
    if not np.all(np.isfinite(grad)):
        bad = int(np.flatnonzero(~np.isfinite(grad))[0])
        raise NumericalError(f"non-finite gradient entry at index {bad}")
    t = state.step + 1
    m = state.beta1 * state.first_moment + (1.0 - state.beta1) * grad
    v = state.beta2 * state.second_moment + (1.0 - state.beta2) * grad * grad
    m_hat = m / (1.0 - state.beta1**t)
    v_hat = v / (1.0 - state.beta2**t)
    theta = params.theta - state.learning_rate * m_hat / (np.sqrt(v_hat) + state.eps)
    new_state = replace(state, first_moment=m, second_moment=v, step=t)
    return params.with_theta(theta), new_state


def save_checkpoint(
    path, params: ClassifierParams, optimizer: OptimizerState | None = None
) -> None:
    """Write a versioned JSON checkpoint.

    Floats are serialized with shortest-roundtrip repr, so a save/load
    cycle reproduces every value bit for bit.
    """
    record = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "layer_sizes": list(params.layer_sizes),
        "theta": params.theta.tolist(),
    }
    if optimizer is not None:
        record["optimizer"] = {
            "first_moment": optimizer.first_moment.tolist(),
            "second_moment": optimizer.second_moment.tolist(),
            "step": optimizer.step,
            "learning_rate": optimizer.learning_rate,
            "beta1": optimizer.beta1,
            "beta2": optimizer.beta2,
            "eps": optimizer.eps,
        }
    else:
        record["optimizer"] = None

    def write(fh):
        json.dump(record, fh)
        fh.write("\n")

    write_atomic(path, write)


def load_checkpoint(path) -> tuple[ClassifierParams, OptimizerState | None]:
    """Read a checkpoint written by :func:`save_checkpoint`.

    Raises FormatError when the file is not a JSON object of the current
    format and version, or when a field is missing or of the wrong type.
    """
    with open(path, encoding="utf-8") as fh:
        try:
            record = json.load(fh)
        except UnicodeDecodeError:
            raise FormatError(f"checkpoint {path} is not UTF-8 text") from None
        except json.JSONDecodeError as exc:
            raise FormatError(f"checkpoint {path} is not valid JSON: {exc}") from exc
    if not isinstance(record, dict) or record.get("format") != CHECKPOINT_FORMAT:
        raise FormatError(f"{path} is not a llpkit checkpoint")
    if record.get("version") != CHECKPOINT_VERSION:
        raise FormatError(f"unsupported checkpoint version {record.get('version')}")

    # JSON decodes to exact types, so a type() test rejects booleans where
    # numbers are due; set(map(type, ...)) checks a long vector quickly.
    def field(obj, key, types, items=None):
        value = obj.get(key)
        if type(value) not in types or (
            items is not None and not set(map(type, value)) <= items
        ):
            where = "optimizer " if obj is not record else ""
            raise FormatError(
                f"checkpoint {path}: {where}{key!r} is missing or malformed"
            )
        return value

    number = {int, float}
    try:
        params = ClassifierParams(
            tuple(field(record, "layer_sizes", {list}, {int})),
            np.asarray(field(record, "theta", {list}, number), dtype=np.float64),
        )
    except UsageError as exc:
        raise FormatError(f"checkpoint {path}: {exc}") from exc
    opt = record.get("optimizer")
    if opt is None:
        return params, None
    if not isinstance(opt, dict):
        raise FormatError(f"checkpoint {path}: 'optimizer' is not an object")
    moments = [
        np.asarray(field(opt, key, {list}, number), dtype=np.float64)
        for key in ("first_moment", "second_moment")
    ]
    if any(m.shape != params.theta.shape for m in moments):
        raise FormatError(f"checkpoint {path}: optimizer moments do not match theta")
    state = OptimizerState(
        first_moment=moments[0],
        second_moment=moments[1],
        step=field(opt, "step", {int}),
        learning_rate=float(field(opt, "learning_rate", number)),
        beta1=float(field(opt, "beta1", number)),
        beta2=float(field(opt, "beta2", number)),
        eps=float(field(opt, "eps", number)),
    )
    return params, state
