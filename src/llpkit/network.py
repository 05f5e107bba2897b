"""Dense rectifier network with a single sigmoid output, plus Adam.

The instance classifier is a small fully connected network: rectifier hidden
layers, one sigmoid-activated output interpreted as the positive-class
probability.  Forward and backward passes are written directly in numpy with
analytic gradients; the test suite checks them against central finite
differences.

A row's output is bit-identical whether the instance is scored alone or
inside a batch, of any size, at any position, in any memory layout.  BLAS
picks its summation order from the shape and layout of the product, so the
forward pass never hands BLAS the batch itself: it pads the batch once to
whole blocks of exactly ``BLOCK_ROWS`` rows, as one C-ordered copy, and
runs each layer as one matmul over those blocks, so every block of a
layer is multiplied alike.  The pad rows are cut off the outputs.
:func:`forward` streams the batch through the network in chunks of whole
blocks, so a pass allocates memory in proportion to the widest layer, not
to the batch, and the blocks and their outputs are the same as in one pass
over the whole batch.  The backward pass uses the batch's rows of each
stored activation in plain BLAS products, and a broadcast product for a
width-1 layer; gradients promise no row invariance, and the same batch
shape gives the same sums, so reruns stay byte-identical.

Parameters live in one flat float64 vector with layout
``W0, b0, W1, b1, ...`` where each weight matrix is stored row-major with
shape (fan_in, fan_out).

:func:`optimizer_step` is one Adam step, written in place into that
vector and its two moment vectors.  The moments are not part of
:class:`ClassifierParams`: the trainer allocates them once per run and
counts the steps.
"""

import json
from dataclasses import dataclass
from functools import cache

import numpy as np

from .errors import FormatError, NumericalError, UsageError
from .files import write_atomic

CHECKPOINT_FORMAT = "llpkit-checkpoint"
CHECKPOINT_VERSION = 1

# Adam's decay rates and denominator offset, at the defaults of Kingma and
# Ba, "Adam: A Method for Stochastic Optimization", ICLR 2015.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

# Rows per BLAS call in the forward pass; every call for a layer has this
# shape, which is what makes outputs independent of the batch.
BLOCK_ROWS = 64

# Floats in one layer's activations for one chunk of forward's stream
# (64 KiB), rounded down to whole blocks and at least one block.
_STREAM_FLOATS = 1 << 13


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


def _validate_sizes(layer_sizes) -> None:
    if len(layer_sizes) < 2:
        raise UsageError("architecture needs at least an input and an output layer")
    if any(w < 1 for w in layer_sizes):
        raise UsageError(f"zero-width layer in architecture {tuple(layer_sizes)}")
    if layer_sizes[-1] != 1:
        raise UsageError("output layer must have width 1")


@cache
def _chunk_rows(layer_sizes: tuple[int, ...]) -> int:
    """Rows per chunk of :func:`forward`'s stream: whole blocks."""
    return BLOCK_ROWS * max(1, _STREAM_FLOATS // (BLOCK_ROWS * max(layer_sizes)))


@cache
def _layers(layer_sizes: tuple[int, ...]):
    """(weight_slice, bias_slice, (fan_in, fan_out)) per layer."""
    layers = []
    offset = 0
    for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:]):
        w = slice(offset, offset + fan_in * fan_out)
        b = slice(w.stop, w.stop + fan_out)
        offset = b.stop
        layers.append((w, b, (fan_in, fan_out)))
    return tuple(layers)


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
    # Stable in both tails: never exponentiates a positive argument.  The
    # exponent is -|z| as min(z, -z), which keeps a NaN's sign.
    e = np.exp(np.minimum(z, -z))
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


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
    """Run the network, keeping each layer's activations for the backward pass.

    The batch is padded once to whole blocks of ``BLOCK_ROWS`` rows, as one
    C-ordered copy (or taken as it is when it already is that), and each
    layer is one matmul over its ``(blocks, BLOCK_ROWS, fan_in)`` view.  The
    activations keep the pad rows; only the first ``len(batch)`` rows of
    each belong to the batch.  A rectifier writes over its input: its output
    is positive exactly where the input was, which is all backward needs.

    Raises NumericalError when an output is not finite; overflow on the
    way there is not warned about, since the result is reported anyway.
    """
    theta = params.theta
    n = len(batch)
    blocks = -(-n // BLOCK_ROWS)
    a = batch
    if n % BLOCK_ROWS or not batch.flags.c_contiguous:
        a = np.zeros((blocks * BLOCK_ROWS, batch.shape[1]))
        a[:n] = batch
    activations = [a]
    last = len(params.layer_sizes) - 2
    with np.errstate(over="ignore", invalid="ignore"):
        for idx, (w, b, (fan_in, fan_out)) in enumerate(_layers(params.layer_sizes)):
            z = np.matmul(
                a.reshape(blocks, BLOCK_ROWS, fan_in),
                theta[w].reshape(fan_in, fan_out),
            ).reshape(-1, fan_out)
            z += theta[b]
            a = _sigmoid(z) if idx == last else np.maximum(z, 0.0, out=z)
            activations.append(a)
    probs = a[:n, 0]
    if not np.isfinite(probs).all():
        raise NumericalError("network output is not finite")
    return probs, activations


def forward(params: ClassifierParams, batch) -> np.ndarray:
    """Positive-class probability per batch row, each strictly in (0, 1)
    up to float64 saturation.  Raises NumericalError if one is not finite."""
    batch = _check_batch(params, batch)
    chunk = _chunk_rows(params.layer_sizes)
    probs = np.empty(len(batch))
    for lo in range(0, len(batch), chunk):
        probs[lo : lo + chunk] = _forward_trace(params, batch[lo : lo + chunk])[0]
    return probs


def backward(params: ClassifierParams, batch, loss) -> tuple[float, np.ndarray]:
    """One network pass over ``batch``, the loss on its outputs, and the
    chain rule back through the same pass.

    ``loss(probs)`` returns ``(value, dvalue/dprobs)`` with one gradient
    entry per batch row; the result is ``(value, dvalue/dtheta)`` with the
    gradient in the layout of ``params.theta``.
    """
    batch = _check_batch(params, batch)
    n = len(batch)
    probs, activations = _forward_trace(params, batch)
    value, g = loss(probs)
    g = np.asarray(g, dtype=np.float64)
    if g.shape != probs.shape:
        raise UsageError(
            f"loss gradient has shape {g.shape}, expected {probs.shape}"
        )

    theta = params.theta
    grad = np.empty_like(theta)
    layers = _layers(params.layer_sizes)
    with np.errstate(over="ignore", invalid="ignore"):
        # Sigmoid output layer: dz = dLoss/dprob * prob * (1 - prob).
        dz = (g * probs * (1.0 - probs))[:, None]
        for idx in range(len(layers) - 1, -1, -1):
            w, b, (fan_in, fan_out) = layers[idx]
            grad[w] = (activations[idx][:n].T @ dz).reshape(-1)
            grad[b] = dz.sum(axis=0)
            if idx > 0:
                # A width-1 layer's product has one term per entry, so the
                # broadcast gives BLAS's bits, bar a zero's sign, which the
                # sums into the gradient drop.
                weight = theta[w].reshape(fan_in, fan_out).T
                dz = dz * weight if fan_out == 1 else dz @ weight
                dz *= activations[idx][:n] > 0.0
    return value, grad


def optimizer_step(
    theta, first_moment, second_moment, step: int, learning_rate: float, grad
) -> None:
    """Adam step number ``step`` (from 1), bias-corrected, in place on
    ``theta`` and its two moment vectors.

    Raises NumericalError, before anything is written, for a non-finite
    gradient entry; and, leaving ``theta`` as it was, for a non-finite
    update.
    """
    if not np.isfinite(grad).all():
        bad = int(np.flatnonzero(~np.isfinite(grad))[0])
        raise NumericalError(f"non-finite gradient entry at index {bad}")
    with np.errstate(over="ignore", invalid="ignore"):
        first_moment *= ADAM_BETA1
        first_moment += (1.0 - ADAM_BETA1) * grad
        second_moment *= ADAM_BETA2
        # Multiplied left to right: (1 - beta2) * (g * g) rounds differently.
        second_moment += (1.0 - ADAM_BETA2) * grad * grad
        m_hat = first_moment / (1.0 - ADAM_BETA1**step)
        v_hat = second_moment / (1.0 - ADAM_BETA2**step)
        updated = theta - learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    if not np.isfinite(updated).all():
        raise NumericalError("parameter update is not finite")
    theta[:] = updated


def save_checkpoint(path, params: ClassifierParams) -> None:
    """Write a versioned JSON checkpoint of the parameters.

    Floats are serialized with shortest-roundtrip repr, so a save/load
    cycle reproduces every value bit for bit.  The ``optimizer`` key is
    always ``null``: nothing resumes training from a checkpoint.
    """
    record = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "layer_sizes": list(params.layer_sizes),
        "theta": params.theta.tolist(),
        "optimizer": None,
    }

    def write(fh):
        json.dump(record, fh)
        fh.write("\n")

    write_atomic(path, write)


def load_checkpoint(path) -> tuple[ClassifierParams, None]:
    """Read a checkpoint written by :func:`save_checkpoint`.

    Returns ``(params, None)``; the second item is kept so that callers
    unpacking a pair keep working.  Any ``optimizer`` value is ignored, so
    checkpoints that carry Adam state still load.  Raises FormatError when
    the file is not a JSON object of the current format and version, or
    when ``layer_sizes`` or ``theta`` is missing or of the wrong type.
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
    def field(key, items):
        value = record.get(key)
        if type(value) is not list or not set(map(type, value)) <= items:
            raise FormatError(f"checkpoint {path}: {key!r} is missing or malformed")
        return value

    try:
        params = ClassifierParams(
            tuple(field("layer_sizes", {int})),
            np.asarray(field("theta", {int, float}), dtype=np.float64),
        )
    except (UsageError, OverflowError) as exc:
        # OverflowError: an integer in theta beyond float range.
        raise FormatError(f"checkpoint {path}: {exc}") from exc
    return params, None
