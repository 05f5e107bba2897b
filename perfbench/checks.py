"""Reference computations and the correctness checks of the benchmark.

Every check compares an output of llpkit with a value computed here,
apart from the program (own CSV parsing, own forward pass, own Poisson
binomial pmf by repeated ``np.convolve``), or with a property the method
must have.  Nothing is compared with a stored copy of earlier output.
Each check raises :class:`CheckError` with a message naming what broke.
"""

import csv
import json
import math

import numpy as np

# Same clamp as the README's numerical contract.
CLAMP_EPS = 1e-7


class CheckError(Exception):
    """An output of the program is wrong."""


def bayes_accuracy(sep: float) -> float:
    """Accuracy of the Bayes rule for two unit-variance blobs at prior 1/2."""
    return 0.5 * (1.0 + math.erf(sep / 2.0 / math.sqrt(2.0)))


def accuracy_ceiling(sep: float, n: int) -> float:
    """Bayes accuracy plus three binomial standard errors at sample size n."""
    b = bayes_accuracy(sep)
    return b + 3.0 * math.sqrt(b * (1.0 - b) / n)


# ---------------------------------------------------------------------------
# Files
# ---------------------------------------------------------------------------


def write_instance_csv(path, features: np.ndarray, labels: np.ndarray) -> None:
    """Instance CSV in the documented format, floats in round-trip repr."""
    dim = features.shape[1]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join([f"f{i}" for i in range(dim)] + ["label"]) + "\n")
        for row, label in zip(features.tolist(), labels.tolist()):
            fh.write(",".join(map(repr, row)) + f",{label}\n")


def read_bag_csv(path):
    """Parse a labeled bag CSV: list of (y, instance ids, features, labels)."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = [row for row in csv.reader(fh) if row]
    if not rows or rows[0] != ["bag_id", "y", "n"]:
        raise CheckError(f"{path}: bad header")
    bags = []
    idx = 1
    while idx < len(rows):
        _, y, n = (int(v) for v in rows[idx])
        members = rows[idx + 1 : idx + 1 + n]
        if len(members) != n:
            raise CheckError(f"{path}: file ends inside bag {len(bags)}")
        ids = np.array([int(r[1]) for r in members], dtype=np.int64)
        feats = np.array([[float(v) for v in r[2:-1]] for r in members])
        labels = np.array([int(r[-1]) for r in members], dtype=np.int64)
        bags.append((y, ids, feats, labels))
        idx += 1 + n
    return bags


def read_checkpoint(path):
    """(layer sizes, theta) from a checkpoint file, parsed here."""
    with open(path, encoding="utf-8") as fh:
        record = json.load(fh)
    return tuple(record["layer_sizes"]), np.asarray(record["theta"], dtype=np.float64)


# ---------------------------------------------------------------------------
# Reference maths
# ---------------------------------------------------------------------------


def forward_ref(layer_sizes, theta, x) -> np.ndarray:
    """The documented network: ReLU hidden layers, sigmoid output.

    Uses BLAS ``@`` rather than the program's einsum, so it agrees with
    the program to rounding, not bit for bit.
    """
    a = np.asarray(x, dtype=np.float64)
    offset = 0
    last = len(layer_sizes) - 2
    for idx, (fan_in, fan_out) in enumerate(zip(layer_sizes[:-1], layer_sizes[1:])):
        weight = theta[offset : offset + fan_in * fan_out].reshape(fan_in, fan_out)
        offset += fan_in * fan_out
        bias = theta[offset : offset + fan_out]
        offset += fan_out
        z = a @ weight + bias
        if idx == last:
            with np.errstate(over="ignore"):
                a = np.where(z >= 0, 1.0 / (1.0 + np.exp(-z)), np.exp(z) / (1.0 + np.exp(z)))
        else:
            a = np.maximum(z, 0.0)
    return a[:, 0]


def clamp(p) -> np.ndarray:
    return np.clip(np.asarray(p, dtype=np.float64), CLAMP_EPS, 1.0 - CLAMP_EPS)


def count_pmf(p) -> np.ndarray:
    """Poisson binomial pmf over counts 0..n by repeated convolution."""
    pmf = np.ones(1)
    for pi in p:
        pmf = np.convolve(pmf, [1.0 - pi, pi])
    return pmf


def loo_posteriors(p, y: int) -> np.ndarray:
    """P(instance i positive | count y), leave-one-out from count_pmf."""
    total = count_pmf(p)[y]
    phi = np.empty(len(p))
    for i in range(len(p)):
        rest = count_pmf(np.delete(p, i))
        phi[i] = p[i] * rest[y - 1] / total if y >= 1 else 0.0
    return phi


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------


def check_bag_file(bags, features, labels, size_range) -> int:
    """The bag CSV holds the instances written, each at most once, unchanged.

    Bagging drops fewer than ``min_size`` leftover instances, so with
    ``min_size`` 1 every instance must be present.  Returns the number of
    bagged instances.
    """
    lo, hi = size_range
    seen = np.zeros(len(labels), dtype=np.int64)
    for j, (y, ids, feats, labs) in enumerate(bags):
        if not lo <= len(ids) <= hi:
            raise CheckError(f"bag {j} has size {len(ids)} outside [{lo}, {hi}]")
        if ids.min() < 0 or ids.max() >= len(labels):
            raise CheckError(f"bag {j} names an instance id that was never written")
        if int(labs.sum()) != y:
            raise CheckError(f"bag {j}: count {y} but its labels sum to {labs.sum()}")
        if not np.array_equal(feats, features[ids]):
            raise CheckError(f"bag {j}: features differ from the ones written")
        if not np.array_equal(labs, labels[ids]):
            raise CheckError(f"bag {j}: labels differ from the ones written")
        np.add.at(seen, ids, 1)
    if seen.max() > 1:
        raise CheckError(f"instance {int(seen.argmax())} appears in two bags")
    missing = int((seen == 0).sum())
    if missing >= lo:
        raise CheckError(f"{missing} instances missing from the bags")
    return int(seen.sum())


def check_same_bytes(path_a, path_b, what: str) -> None:
    with open(path_a, "rb") as fa, open(path_b, "rb") as fb:
        if fa.read() != fb.read():
            raise CheckError(f"{what}: {path_b} differs from {path_a}")


def check_checkpoint(saved, loaded, path) -> None:
    """Save/load round trip is bit-exact, also against our own parse."""
    candidates = {
        "loaded": (tuple(loaded.layer_sizes), loaded.theta),
        "file": read_checkpoint(path),
    }
    for name, (sizes, theta) in candidates.items():
        if sizes != tuple(saved.layer_sizes):
            raise CheckError(f"checkpoint {name} layer sizes {sizes} differ")
        if theta.shape != saved.theta.shape or theta.tobytes() != saved.theta.tobytes():
            raise CheckError(f"checkpoint {name} parameters differ from the saved ones")


def check_log_likelihood(reported: float, bags, layer_sizes, theta) -> None:
    """Last recorded mle log-likelihood equals our pmf sum to 1e-9 relative."""
    total = 0.0
    for y, _, feats, _ in bags:
        p = clamp(forward_ref(layer_sizes, theta, feats))
        total += math.log(count_pmf(p)[y])
    if not abs(reported - total) <= 1e-9 * abs(total):
        raise CheckError(f"log-likelihood {reported!r} but reference gives {total!r}")


def check_posteriors(posteriors, p, y: int, where: str) -> None:
    """E-step posteriors: in [0, 1], sum to y, equal the leave-one-out ones."""
    phi = np.asarray(posteriors, dtype=np.float64)
    if phi.shape != (len(p),):
        raise CheckError(f"{where}: {phi.shape} posteriors for {len(p)} instances")
    if phi.min() < 0.0 or phi.max() > 1.0:
        raise CheckError(f"{where}: posterior outside [0, 1]")
    if abs(phi.sum() - y) > 1e-10:
        raise CheckError(f"{where}: posteriors sum to {phi.sum()!r}, count is {y}")
    err = float(np.abs(phi - loo_posteriors(p, y)).max())
    if err > 1e-10:
        raise CheckError(f"{where}: posteriors differ from leave-one-out by {err:.3e}")


def check_accuracy_curve(accuracies, target: float, ceiling: float, where: str) -> int:
    """Held-out accuracy reaches the target and never beats the Bayes ceiling.

    Returns the first epoch (1-based) at which the target is reached.
    """
    if not accuracies or any(a is None for a in accuracies):
        raise CheckError(f"{where}: held-out accuracy missing from the curve")
    if max(accuracies) > ceiling:
        raise CheckError(f"{where}: accuracy {max(accuracies)} above the Bayes ceiling {ceiling:.6f}")
    for epoch, acc in enumerate(accuracies, start=1):
        if acc >= target:
            return epoch
    raise CheckError(f"{where}: accuracy never reached the target {target:.6f}")


def check_reported_accuracy(reported: float, predictions, labels, where: str) -> None:
    """A reported accuracy matches our own predictions to one instance."""
    own = float(np.mean(predictions == labels))
    if abs(reported - own) > 1.5 / len(labels):
        raise CheckError(f"{where}: reported accuracy {reported} but own forward gives {own}")


def check_eval_output(payload: dict, predictions, labels) -> None:
    """Confusion counts of ``llpkit eval`` equal our own; accuracy to 6 places."""
    own = {
        "true_positive": int(np.sum((predictions == 1) & (labels == 1))),
        "false_positive": int(np.sum((predictions == 1) & (labels == 0))),
        "true_negative": int(np.sum((predictions == 0) & (labels == 0))),
        "false_negative": int(np.sum((predictions == 0) & (labels == 1))),
        "count": len(labels),
    }
    for key, value in own.items():
        if payload.get(key) != value:
            raise CheckError(f"eval {key} = {payload.get(key)}, own count is {value}")
    accuracy = float(np.mean(predictions == labels))
    if not abs(payload.get("accuracy", -1.0) - accuracy) <= 5e-7 + 1e-12:
        raise CheckError(f"eval accuracy {payload.get('accuracy')} but own is {accuracy:.6f}")


def check_folds(assignment, num_bags: int, k: int, bag_sizes, fold_counts) -> None:
    """Every bag is held out exactly once, and each fold scored its bags.

    ``fold_counts`` maps fold -> number of instances the fold's model was
    scored on.
    """
    if assignment is None or sorted(assignment) != list(range(num_bags)):
        raise CheckError("fold assignment does not cover every bag exactly once")
    folds = sorted(set(assignment.values()))
    if folds != list(range(k)):
        raise CheckError(f"fold labels {folds}, expected 0..{k - 1}")
    per_fold = {f: 0 for f in folds}
    for bag, fold in assignment.items():
        per_fold[fold] += int(bag_sizes[bag])
    if dict(fold_counts) != per_fold:
        raise CheckError(f"held-out sizes {dict(fold_counts)} differ from the folds' {per_fold}")


def check_cv_mean(mean: float, fold_accuracies) -> None:
    own = float(np.mean(fold_accuracies))
    if abs(mean - own) > 1e-12:
        raise CheckError(f"cross-validation mean {mean!r} but folds average {own!r}")
