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
over the whole batch.  What does not depend on the rows it does once per
pass, not once per chunk: the weight views, each layer's bias repeated into
one chunk's rows (a chunk adds a contiguous block, not a broadcast row), the
floating-point error state and the check for a non-finite output.  The
chunks write their output pre-activations into the output vector, and the
sigmoid runs over it in blocks of ``_STREAM_FLOATS`` rows, which keeps the
pass's extra memory bounded.  The backward pass uses the
batch's rows of each stored activation in plain BLAS products, and a
broadcast product for a width-1 layer; gradients promise no row
invariance, and the same batch shape gives the same sums, so reruns stay
byte-identical.

Parameters live in one flat float64 vector with layout
``W0, b0, W1, b1, ...`` where each weight matrix is stored row-major with
shape (fan_in, fan_out).  :func:`init_params` and :func:`load_checkpoint`
allocate it on a 64-byte boundary, where BLAS runs the layer products
fastest.

Training runs one :class:`TrainingStep` per fit.  It builds once what
depends only on the fit: the weight views into the parameter vector, the
gradient vector with a view per layer, and Adam's two moments, two scratch
vectors and step count.  Each call runs the network pass, the loss, the
chain rule (:meth:`TrainingStep.gradient`), the gradient's scaling and one
Adam step (:meth:`TrainingStep.update`), in place on ``params.theta``: the
package's one chain rule and one Adam.
"""

import json
import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from .errors import FormatError, NumericalError, UsageError, check_floats
from .files import write_json

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
# (64 KiB), rounded down to whole blocks and at least one block; also the
# rows of forward's output per sigmoid call.
_STREAM_FLOATS = 1 << 13


@dataclass(frozen=True, eq=False)
class ClassifierParams:
    """Architecture descriptor plus the flat parameter vector."""

    layer_sizes: tuple[int, ...]
    theta: np.ndarray

    def __post_init__(self):
        sizes = tuple(int(w) for w in self.layer_sizes)
        object.__setattr__(self, "layer_sizes", sizes)
        check_layer_sizes(sizes)
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


def check_layer_sizes(layer_sizes) -> None:
    """Raise UsageError unless :func:`init_params` can make ``layer_sizes``:
    two or more layers, none empty, a width-1 output, one array of weights."""
    if len(layer_sizes) < 2:
        raise UsageError("architecture needs at least an input and an output layer")
    if any(w < 1 for w in layer_sizes):
        raise UsageError(f"zero-width layer in architecture {tuple(layer_sizes)}")
    if layer_sizes[-1] != 1:
        raise UsageError("output layer must have width 1")
    check_floats(param_count(layer_sizes), f"architecture {tuple(layer_sizes)}")


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
    check_layer_sizes(sizes)
    rng = np.random.default_rng(seed)
    theta = _aligned(np.zeros(param_count(sizes)))
    for w, _, (fan_in, fan_out) in _layers(sizes):
        theta[w] = rng.standard_normal(fan_in * fan_out) / np.sqrt(fan_in)
    return ClassifierParams(sizes, theta)


def _aligned(values) -> np.ndarray:
    """A float64 copy of ``values`` whose data starts on a 64-byte boundary."""
    values = np.asarray(values, dtype=np.float64)
    # numpy's allocations are 8-byte aligned at least, so 7 spare floats
    # always hold a 64-byte boundary.
    buffer = np.empty(values.size + 7)
    start = -buffer.ctypes.data % 64 // 8
    theta = buffer[start : start + values.size]
    theta[:] = values
    return theta


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # Stable in both tails: never exponentiates a positive argument.  The
    # exponent is -|z| as min(z, -z), which keeps a NaN's sign; the result
    # is 1 / (1 + e) where z >= 0 and e / (1 + e) elsewhere.
    e = np.exp(np.minimum(z, -z))
    return np.divide(np.where(z >= 0, 1.0, e), 1.0 + e)


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


def _weights(params: ClassifierParams):
    """(weight matrix, bias row) per layer, as views into ``theta``; the
    bias is a ``(1, fan_out)`` row."""
    theta = params.theta
    return [
        (theta[w].reshape(fan_in, fan_out), theta[b].reshape(1, fan_out))
        for w, b, (fan_in, fan_out) in _layers(params.layer_sizes)
    ]


def _forward_trace(weights, batch: np.ndarray):
    """Run the network up to its output pre-activation, keeping each
    layer's input for the backward pass.

    ``weights`` is :func:`_weights` of the parameters, or the same with
    each bias repeated over at least as many rows as the padded batch has.
    The batch is padded once to whole blocks of ``BLOCK_ROWS`` rows, as one
    C-ordered copy (or taken as it is when it already is that), and each
    layer is one matmul over its ``(blocks, BLOCK_ROWS, fan_in)`` view.
    The activations keep the pad rows; only the first ``len(batch)`` rows
    of each belong to the batch.  A rectifier writes over its input: its
    output is positive exactly where the input was, which is all the chain
    rule needs.  Returns the batch's output pre-activations and the
    activations; the caller applies :func:`_sigmoid`.

    The caller ignores overflow and invalid-value warnings around the call,
    since a non-finite output is reported anyway, and checks the outputs
    with :func:`_check_outputs`.
    """
    n = len(batch)
    blocks = -(-n // BLOCK_ROWS)
    a = batch
    if n % BLOCK_ROWS or not batch.flags.c_contiguous:
        a = np.zeros((blocks * BLOCK_ROWS, batch.shape[1]))
        a[:n] = batch
    activations = [a]
    last = len(weights) - 1
    for idx, (weight, bias) in enumerate(weights):
        fan_in, fan_out = weight.shape
        z = np.matmul(a.reshape(blocks, BLOCK_ROWS, fan_in), weight).reshape(-1, fan_out)
        z += bias[: len(z)]
        if idx < last:
            a = np.maximum(z, 0.0, out=z)
            activations.append(a)
    return z[:n, 0], activations


def _check_outputs(probs: np.ndarray) -> None:
    if not np.isfinite(probs).all():
        raise NumericalError("network output is not finite")


def forward(params: ClassifierParams, batch) -> np.ndarray:
    """Positive-class probability per batch row, each strictly in (0, 1)
    up to float64 saturation.  Raises NumericalError if one is not finite."""
    batch = _check_batch(params, batch)
    n = len(batch)
    chunk = _chunk_rows(params.layer_sizes)
    rows = min(chunk, -(-n // BLOCK_ROWS) * BLOCK_ROWS)
    weights = [(w, np.repeat(b, rows, axis=0)) for w, b in _weights(params)]
    probs = np.empty(n)
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, n, chunk):
            probs[lo : lo + chunk] = _forward_trace(weights, batch[lo : lo + chunk])[0]
        for lo in range(0, n, _STREAM_FLOATS):
            probs[lo : lo + _STREAM_FLOATS] = _sigmoid(probs[lo : lo + _STREAM_FLOATS])
    _check_outputs(probs)
    return probs


class TrainingStep:
    """One fit's training step: a network pass over a batch, the loss on
    its outputs, the chain rule back through the same pass, the gradient's
    scaling and one Adam step, in place on ``params.theta``.

    Built once per fit, so that a step pays none of it: the weight views
    into ``params.theta`` and their transposes, which the chain rule
    multiplies by; the gradient vector :attr:`grad`, written through one
    ``(fan_in, fan_out)`` and one bias view per layer; and Adam's two
    moments, two scratch vectors and step count.
    """

    def __init__(self, params: ClassifierParams, learning_rate: float):
        theta = params.theta
        self.params = params
        self.learning_rate = learning_rate
        self._row_shape = (params.input_dim,)
        self._weights = _weights(params)
        self.grad = np.empty_like(theta)
        # Per layer: the gradient's weight and bias views, and the weight
        # matrix's transpose as a view; BLAS sums ``dz @ weight.T`` in
        # another order for some row counts when the transpose is a copy.
        self._per_layer = [
            (self.grad[w].reshape(fan_in, fan_out), self.grad[b], weight.T)
            for (w, b, (fan_in, fan_out)), (weight, _) in zip(
                _layers(params.layer_sizes), self._weights
            )
        ]
        self.first_moment = np.zeros_like(theta)
        self.second_moment = np.zeros_like(theta)
        self._scratch = (np.empty_like(theta), np.empty_like(theta))
        self.steps = 0

    def __call__(self, batch: np.ndarray, loss, items: int) -> float:
        """Train on ``batch``: :meth:`gradient`, the gradient divided by
        ``items``, then :meth:`update`, under one ``errstate``.  Returns the
        loss value; raises as those two do, and NumericalError for a
        non-finite loss.
        """
        with np.errstate(over="ignore", invalid="ignore"):
            value = self.gradient(batch, loss)
            if not math.isfinite(value):
                raise NumericalError("non-finite loss")
            self.grad /= items
            self.update()
        return value

    def gradient(self, batch: np.ndarray, loss) -> float:
        """One network pass over ``batch``, a float64 matrix as wide as the
        network's input, ``loss(probs) -> (value, dvalue/dprobs)`` on its
        outputs, and the chain rule back through the same pass into
        :attr:`grad`; returns the value.

        Raises UsageError for a batch or a loss gradient of the wrong shape
        and NumericalError for a non-finite output.  Outside the ``errstate``
        of :meth:`__call__`, numpy may warn before such an error.
        """
        if batch.shape[1:] != self._row_shape:
            raise UsageError(f"batch has shape {batch.shape}, not (n, {self._row_shape[0]})")
        n = len(batch)
        z, activations = _forward_trace(self._weights, batch)
        probs = _sigmoid(z)
        _check_outputs(probs)
        value, g = loss(probs)
        g = np.asarray(g, dtype=np.float64)
        if g.shape != probs.shape:
            raise UsageError(
                f"loss gradient has shape {g.shape}, expected {probs.shape}"
            )
        # Sigmoid output layer: dz = dLoss/dprob * prob * (1 - prob).
        dz = (g * probs * (1.0 - probs))[:, None]
        for idx in range(len(self._per_layer) - 1, -1, -1):
            grad_weight, grad_bias, weight = self._per_layer[idx]
            np.matmul(activations[idx][:n].T, dz, out=grad_weight)
            np.add.reduce(dz, axis=0, out=grad_bias)
            if idx > 0:
                # A width-1 layer's product has one term per entry, so the
                # broadcast gives BLAS's bits, bar a zero's sign, which the
                # sums into the gradient drop.
                dz = dz * weight if weight.shape[0] == 1 else dz @ weight
                dz *= activations[idx][:n] > 0.0
        return value

    def update(self) -> None:
        """Adam step number ``steps + 1``, bias-corrected, from :attr:`grad`,
        in place on ``params.theta`` and the two moments, through the two
        scratch vectors; :attr:`steps` counts it once ``theta`` is written.

        Raises NumericalError, before anything is written, for a non-finite
        gradient entry; and for a non-finite update, which leaves ``theta``
        and :attr:`steps` as they were and the moments advanced.  Warns as
        :meth:`gradient` does outside an ``errstate``.
        """
        grad = self.grad
        if not np.isfinite(grad).all():
            bad = int(np.flatnonzero(~np.isfinite(grad))[0])
            raise NumericalError(f"non-finite gradient entry at index {bad}")
        a, b = self._scratch
        m, v = self.first_moment, self.second_moment
        step = self.steps + 1
        m *= ADAM_BETA1
        m += np.multiply(1.0 - ADAM_BETA1, grad, out=a)
        v *= ADAM_BETA2
        # Multiplied left to right: (1 - beta2) * (g * g) rounds differently.
        np.multiply(1.0 - ADAM_BETA2, grad, out=a)
        v += np.multiply(a, grad, out=a)
        # theta - learning_rate * m_hat / (sqrt(v_hat) + eps), left to right.
        np.divide(m, 1.0 - ADAM_BETA1**step, out=a)
        np.multiply(self.learning_rate, a, out=a)
        np.divide(v, 1.0 - ADAM_BETA2**step, out=b)
        np.sqrt(b, out=b)
        b += ADAM_EPS
        a /= b
        np.subtract(self.params.theta, a, out=a)
        if not np.isfinite(a).all():
            raise NumericalError("parameter update is not finite")
        np.copyto(self.params.theta, a)
        self.steps = step


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
    write_json(path, record)


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
            tuple(field("layer_sizes", {int})), _aligned(field("theta", {int, float}))
        )
    except (UsageError, OverflowError) as exc:
        # OverflowError: an integer in theta beyond float range.
        raise FormatError(f"checkpoint {path}: {exc}") from exc
    return params, None
