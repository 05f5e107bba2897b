"""Epoch loop, cross-validation, and the bag-size sweep.

One :func:`train` call drives any of the four objectives:

* ``mle``: run one epoch of minibatch cross-entropy against per-instance
  soft targets from the count posterior.  Batches are instance-level,
  since the soft targets decouple instances inside an epoch; bags never
  need to fit in one batch.  One E-step runs before the first epoch and
  one after each epoch.  The one after epoch e gives that epoch's count
  log-likelihood and the targets for epoch e + 1.
* ``amle`` / ``dllp``: per-bag losses, batched as groups of whole bags.
* ``supervised``: ordinary instance-level cross-entropy on true labels.

All four share one minibatch loop; a method only decides what a batch
indexes (instances or bags) and how the network's outputs on it turn into
a loss.  Each step runs the network once over the batch, in
:func:`network.backward`.

Early stopping watches the training objective (count log-likelihood for
``mle``, mean epoch loss otherwise), never test data: it stops after
``patience`` consecutive epochs without a relative improvement above
``rel_tol``.  Everything is deterministic given (dataset, config, seed);
wall-clock time only ever lands in the record's ``seconds`` column.
"""

import csv
import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import network, objectives
from .data import BagDataset, Instances, assign_folds, make_bags
from .errors import NumericalError, UsageError
from .files import write_atomic

METHODS = ("mle", "amle", "dllp", "supervised")
RECORD_HEADER = ["epoch", "loss", "log_likelihood", "test_accuracy", "seconds"]


@dataclass(frozen=True)
class TrainConfig:
    """Everything a run needs besides the data.

    ``batch_size`` counts instances for mle/supervised and whole bags for
    amle/dllp.  Every step is an Adam step.
    """

    method: str
    max_epochs: int = 200
    batch_size: int = 64
    learning_rate: float = 1e-3
    patience: int = 10
    rel_tol: float = 1e-5
    seed: int = 0
    threshold: float = 0.5
    hidden_widths: tuple[int, ...] = (32, 32)

    def __post_init__(self):
        if self.method not in METHODS:
            raise UsageError(f"unknown method {self.method!r}, expected {METHODS}")
        if self.max_epochs < 1:
            raise UsageError("max_epochs must be at least 1")
        if self.batch_size < 1:
            raise UsageError("batch_size must be at least 1")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise UsageError(
                f"learning_rate must be finite and positive, got {self.learning_rate}"
            )
        if self.patience < 1:
            raise UsageError("patience must be at least 1")
        if not (math.isfinite(self.rel_tol) and self.rel_tol >= 0):
            raise UsageError(
                f"rel_tol must be finite and nonnegative, got {self.rel_tol}"
            )
        if self.seed < 0:
            raise UsageError(f"seed must be nonnegative, got {self.seed}")
        if not 0.0 < self.threshold < 1.0:
            raise UsageError(f"threshold must be in (0, 1), got {self.threshold}")
        object.__setattr__(self, "hidden_widths", tuple(self.hidden_widths))
        if any(w < 1 for w in self.hidden_widths):
            raise UsageError(
                f"hidden layer widths must be at least 1, got {self.hidden_widths}"
            )


@dataclass(frozen=True)
class EpochRow:
    epoch: int
    loss: float
    log_likelihood: float | None
    test_accuracy: float | None
    seconds: float


@dataclass
class TrainingRecord:
    """Per-epoch curve data; ``seconds`` is cumulative wall-clock time."""

    rows: list[EpochRow] = field(default_factory=list)

    def write_csv(self, path) -> None:
        def write(fh):
            writer = csv.writer(fh)
            writer.writerow(RECORD_HEADER)
            for row in self.rows:
                writer.writerow(
                    [
                        row.epoch,
                        repr(row.loss),
                        "" if row.log_likelihood is None else repr(row.log_likelihood),
                        "" if row.test_accuracy is None else repr(row.test_accuracy),
                        repr(row.seconds),
                    ]
                )

        write_atomic(path, write)


@dataclass(frozen=True)
class EvalMetrics:
    accuracy: float
    true_positive: int
    false_positive: int
    true_negative: int
    false_negative: int

    @property
    def count(self) -> int:
        return (
            self.true_positive
            + self.false_positive
            + self.true_negative
            + self.false_negative
        )

    def as_dict(self) -> dict:
        return {
            "accuracy": self.accuracy,
            "true_positive": self.true_positive,
            "false_positive": self.false_positive,
            "true_negative": self.true_negative,
            "false_negative": self.false_negative,
            "count": self.count,
        }


def _labeled(instances: Instances) -> tuple[np.ndarray, np.ndarray]:
    """(features, labels) of a labeled, nonempty evaluation set."""
    if len(instances) == 0:
        raise UsageError("evaluation set is empty")
    if instances.labels is None:
        raise UsageError("evaluation requires instance labels")
    return instances.features, instances.labels


def evaluate(params, instances: Instances, threshold: float = 0.5) -> EvalMetrics:
    """Accuracy and confusion counts of thresholded predictions."""
    features, labels = _labeled(instances)
    preds = objectives.predict(params, features, threshold)
    return EvalMetrics(
        accuracy=float(np.mean(preds == labels)),
        true_positive=int(np.sum((preds == 1) & (labels == 1))),
        false_positive=int(np.sum((preds == 1) & (labels == 0))),
        true_negative=int(np.sum((preds == 0) & (labels == 0))),
        false_negative=int(np.sum((preds == 0) & (labels == 1))),
    )


def train(
    dataset: BagDataset, config: TrainConfig, eval_instances: Instances | None = None
) -> tuple[network.ClassifierParams, TrainingRecord]:
    """Run the configured method on a bag dataset.

    ``eval_instances``, when given, must be labeled; test accuracy is then
    recorded every epoch.  Returns the final parameters and the per-epoch
    record (one row per completed epoch).
    """
    check_train(dataset, config, eval_instances)
    init_seed, shuffle_seed = np.random.SeedSequence(config.seed).generate_state(2)
    params = network.init_params(
        (dataset.feature_dim, *config.hidden_widths, 1), int(init_seed)
    )
    opt_state = network.init_optimizer(params, config.learning_rate)
    rng = np.random.default_rng(int(shuffle_seed))
    features = dataset.instances.features

    # step(params, batch) -> (summed loss, dloss/dtheta), where a batch
    # indexes instances or bags.
    bag_level = config.method in ("amle", "dllp")
    if bag_level:
        num_items = dataset.num_bags
        batch_loss = (
            objectives.amle_batch_loss
            if config.method == "amle"
            else objectives.dllp_batch_loss
        )
        sizes, counts = dataset.sizes, dataset.counts

        def step(params, bags):
            return network.backward(
                params,
                features[dataset.bag_rows(bags)],
                lambda probs: batch_loss(probs, sizes[bags], counts[bags]),
            )

    else:
        num_items = dataset.num_instances
        if config.method == "supervised":
            targets = dataset.instances.labels.astype(np.float64)
        else:
            try:
                targets = objectives.e_step(params, dataset).targets
            except NumericalError as exc:
                raise NumericalError(f"{exc} in the E-step before epoch 1") from exc

        # Reads ``targets`` when called, so mle's E-steps below take effect.
        def step(params, rows):
            return network.backward(
                params,
                features[rows],
                lambda probs: objectives.m_step_loss(probs, targets[rows]),
            )

    eval_features = eval_labels = None
    if eval_instances is not None:
        eval_features, eval_labels = _labeled(eval_instances)

    record = TrainingRecord()
    start = time.perf_counter()
    best = None
    stale = 0
    for epoch in range(1, config.max_epochs + 1):
        order = rng.permutation(num_items)
        total = 0.0
        for bi, lo in enumerate(range(0, num_items, config.batch_size)):
            batch = order[lo : lo + config.batch_size]
            try:
                loss, grad = step(params, batch)
                if not math.isfinite(loss):
                    raise NumericalError("non-finite loss")
                params, opt_state = network.optimizer_step(
                    params, opt_state, grad / batch.size
                )
            except NumericalError as exc:
                where = f"epoch {epoch}, batch {bi}"
                if bag_level:
                    where += f", bags {batch.tolist()}"
                raise NumericalError(f"{exc} at {where}") from exc
            total += loss
        epoch_loss = total / num_items

        log_likelihood = accuracy = None
        try:
            if config.method == "mle":
                state = objectives.e_step(params, dataset)
                log_likelihood, targets = state.log_likelihood, state.targets
            if eval_features is not None:
                preds = objectives.predict(params, eval_features, config.threshold)
                accuracy = float(np.mean(preds == eval_labels))
        except NumericalError as exc:
            raise NumericalError(f"{exc} after epoch {epoch}") from exc
        record.rows.append(
            EpochRow(
                epoch=epoch,
                loss=epoch_loss,
                log_likelihood=log_likelihood,
                test_accuracy=accuracy,
                seconds=time.perf_counter() - start,
            )
        )

        # Early stopping: smaller is better, so mle monitors -L.
        monitored = -log_likelihood if config.method == "mle" else epoch_loss
        if best is None:
            best = monitored
        elif best - monitored > config.rel_tol * max(abs(best), 1e-12):
            best = monitored
            stale = 0
        else:
            stale += 1
            if stale >= config.patience:
                break
    return params, record


def check_train(
    dataset: BagDataset, config: TrainConfig, eval_instances: Instances | None = None
) -> None:
    """Raise UsageError unless :func:`train` can run ``config`` on
    ``dataset`` and score ``eval_instances``, so that a run fails before
    its first epoch."""
    if config.method == "supervised" and dataset.instances.labels is None:
        raise UsageError("supervised training requires instance labels")
    if eval_instances is not None:
        _labeled(eval_instances)
        if eval_instances.dim != dataset.feature_dim:
            raise UsageError(
                f"evaluation set has {eval_instances.dim} features, the bags "
                f"have {dataset.feature_dim}"
            )


@dataclass(frozen=True)
class FoldResult:
    fold: int
    metrics: EvalMetrics
    record: TrainingRecord


@dataclass(frozen=True)
class CrossValResult:
    folds: list[FoldResult]
    mean_accuracy: float
    std_accuracy: float

    def summary(self) -> dict:
        return {
            "folds": [
                {"fold": fr.fold, **fr.metrics.as_dict()} for fr in self.folds
            ],
            "mean_accuracy": self.mean_accuracy,
            "std_accuracy": self.std_accuracy,
        }


def cross_validate(dataset: BagDataset, config: TrainConfig, k=None) -> CrossValResult:
    """Train per fold, score each model on its held-out fold's instances.

    Reuses the dataset's fold assignment when present, otherwise assigns
    ``k`` seeded folds.  Every fold trains with the same config seed, so
    symmetric folds give symmetric results.
    """
    if dataset.fold_assignment is None:
        if k is None:
            raise UsageError("dataset has no fold assignment; pass k")
        dataset = assign_folds(dataset, k, config.seed)
    results = []
    for fold in dataset.folds():
        train_ds, held = dataset.fold_split(fold)
        params, record = train(train_ds, config, eval_instances=held)
        metrics = evaluate(params, held, config.threshold)
        results.append(FoldResult(fold=fold, metrics=metrics, record=record))

    accuracies = [fr.metrics.accuracy for fr in results]
    mean = float(np.mean(accuracies))
    std = float(np.std(accuracies, ddof=1)) if len(accuracies) > 1 else 0.0
    return CrossValResult(folds=results, mean_accuracy=mean, std_accuracy=std)


@dataclass(frozen=True)
class SweepRow:
    bag_size: int
    mean_accuracy: float
    std_accuracy: float


def check_sweep(num_instances: int, sizes, k: int) -> None:
    """Raise UsageError unless ``k``-fold cross-validation can run at every
    bag size, so that a sweep fails before its first fit."""
    if not sizes:
        raise UsageError("no bag sizes given")
    if k < 2:
        raise UsageError(f"need at least 2 folds, got {k}")
    for size in sizes:
        if size < 1:
            raise UsageError(f"bag size must be positive, got {size}")
        available = num_instances // size
        if available < k:
            raise UsageError(
                f"bag size {size}: only {available} bags from "
                f"{num_instances} instances, need at least {k} for "
                f"{k}-fold cross-validation"
            )


def bag_size_sweep(
    instances: Instances, sizes, config: TrainConfig, k: int = 10
) -> list[SweepRow]:
    """Rebag at each fixed size and cross-validate.

    Every size uses the same instances and seed, so rows differ only in
    how much the bag structure dilutes the supervision.
    """
    check_sweep(len(instances), sizes, k)
    rows = []
    for size in sizes:
        bagged = make_bags(instances, size, size, config.seed)
        result = cross_validate(bagged, config, k=k)
        rows.append(SweepRow(size, result.mean_accuracy, result.std_accuracy))
    return rows
