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

All four share one minibatch loop over items: whole bags for ``amle`` and
``dllp``, single instances for ``mle`` and ``supervised``.  An item is its
bag's rows (or one row) with its size and count (or its target).  Each
epoch gathers the shuffled items' features and entries once, and a batch
of ``batch_size`` items is a slice of that gather.  Each step runs the
network once over the batch, in :func:`network.backward`, then takes one
Adam step, :func:`network.optimizer_step`, in place on the parameter
vector and on two moment vectors that :func:`train` allocates once per run.

Early stopping watches the training objective (count log-likelihood for
``mle``, mean epoch loss otherwise), never test data: it stops after
``patience`` consecutive epochs without a relative improvement above
``rel_tol``.  Everything is deterministic given (dataset, config, seed);
wall-clock time only ever lands in the record's ``seconds`` column.
"""

import itertools
import math
import time
from dataclasses import asdict, astuple, dataclass, field, fields

import numpy as np

from . import network, objectives
from .data import BagDataset, Instances, assign_folds, make_bags
from .errors import NumericalError, UsageError
from .files import write_lines

METHODS = ("mle", "amle", "dllp", "supervised")


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


RECORD_HEADER = [f.name for f in fields(EpochRow)]


@dataclass
class TrainingRecord:
    """Per-epoch curve data; ``seconds`` is cumulative wall-clock time.
    ``metrics`` is the evaluation after the last epoch, if there was one."""

    rows: list[EpochRow] = field(default_factory=list)
    metrics: "EvalMetrics | None" = None

    def write_csv(self, path) -> None:
        lines = (
            ",".join("" if cell is None else repr(cell) for cell in astuple(row))
            for row in self.rows
        )
        write_lines(path, itertools.chain([",".join(RECORD_HEADER)], lines))


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
        return {**asdict(self), "count": self.count}


def _check_scorable(instances: Instances, dim: int) -> None:
    """Raise UsageError unless ``instances`` is nonempty, labeled and
    ``dim`` features wide, so that a classifier of input width ``dim`` can
    score it."""
    if len(instances) == 0:
        raise UsageError("evaluation set is empty")
    if instances.labels is None:
        raise UsageError("evaluation requires instance labels")
    if instances.dim != dim:
        raise UsageError(
            f"evaluation set has {instances.dim} features, the classifier takes {dim}"
        )


def evaluate(params, instances: Instances, threshold: float = 0.5) -> EvalMetrics:
    """Accuracy and confusion counts of thresholded predictions."""
    _check_scorable(instances, params.input_dim)
    labels = instances.labels
    preds = objectives.predict(params, instances.features, threshold)
    tn, fp, fn, tp = np.bincount(2 * labels + preds, minlength=4).tolist()
    return EvalMetrics(
        accuracy=float(np.mean(preds == labels)),
        true_positive=tp,
        false_positive=fp,
        true_negative=tn,
        false_negative=fn,
    )


def train(
    dataset: BagDataset, config: TrainConfig, eval_instances: Instances | None = None
) -> tuple[network.ClassifierParams, TrainingRecord]:
    """Run the configured method on a bag dataset.

    ``eval_instances``, when given, must be labeled; test accuracy is then
    recorded every epoch.  Returns the final parameters and the per-epoch
    record (one row per completed epoch).  The returned parameters'
    ``theta`` is the vector that every Adam step updated in place.
    """
    check_train(dataset, config, eval_instances)
    init_seed, shuffle_seed = np.random.SeedSequence(config.seed).generate_state(2)
    params = network.init_params(
        (dataset.feature_dim, *config.hidden_widths, 1), int(init_seed)
    )
    first_moment = np.zeros_like(params.theta)
    second_moment = np.zeros_like(params.theta)
    rng = np.random.default_rng(int(shuffle_seed))
    features = dataset.instances.features

    # Item j spans rows[j] feature rows from starts[j] and carries entry j
    # of every array in per_item.
    bag_level = config.method in ("amle", "dllp")
    em = config.method == "mle"
    rows = np.ones(dataset.num_instances, dtype=np.int64)
    batch_loss = objectives.m_step_loss
    if bag_level:
        rows = dataset.sizes
        per_item = (rows, dataset.counts.astype(np.float64))
        batch_loss = (
            objectives.amle_batch_loss
            if config.method == "amle"
            else objectives.dllp_batch_loss
        )
    elif em:
        try:
            per_item = (objectives.e_step(params, dataset).targets,)
        except NumericalError as exc:
            raise NumericalError(f"{exc} in the E-step before epoch 1") from exc
    else:
        per_item = (dataset.instances.labels.astype(np.float64),)
    starts = np.cumsum(rows) - rows

    record = TrainingRecord()
    start = time.perf_counter()
    best = None
    stale = 0
    steps = 0
    for epoch in range(1, config.max_epochs + 1):
        # One gather per epoch, in shuffled order; a batch is a slice of it:
        # items lo:hi are feature rows bounds[lo]:bounds[hi].  Targets only
        # change between epochs, after mle's E-step.
        order = rng.permutation(rows.size)
        bounds = np.concatenate(([0], np.cumsum(rows[order])))
        shift = np.repeat(starts[order] - bounds[:-1], rows[order])
        epoch_features = features[shift + np.arange(bounds[-1])]
        epoch_items = [a[order] for a in per_item]
        total = 0.0
        for bi, lo in enumerate(range(0, rows.size, config.batch_size)):
            hi = min(lo + config.batch_size, rows.size)
            items = [a[lo:hi] for a in epoch_items]

            def loss_fn(probs):
                return batch_loss(probs, *items)

            try:
                loss, grad = network.backward(
                    params, epoch_features[bounds[lo] : bounds[hi]], loss_fn
                )
                if not math.isfinite(loss):
                    raise NumericalError("non-finite loss")
                # backward returns a fresh gradient, so it is scaled in place.
                grad /= hi - lo
                steps += 1
                network.optimizer_step(
                    params.theta,
                    first_moment,
                    second_moment,
                    steps,
                    config.learning_rate,
                    grad,
                )
            except NumericalError as exc:
                where = f"epoch {epoch}, batch {bi}"
                if bag_level:
                    where += f", bags {order[lo:hi].tolist()}"
                raise NumericalError(f"{exc} at {where}") from exc
            total += loss
        epoch_loss = total / rows.size

        log_likelihood = accuracy = None
        try:
            if em:
                state = objectives.e_step(params, dataset)
                log_likelihood, per_item = state.log_likelihood, (state.targets,)
            if eval_instances is not None:
                record.metrics = evaluate(params, eval_instances, config.threshold)
                accuracy = record.metrics.accuracy
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
        monitored = epoch_loss if log_likelihood is None else -log_likelihood
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
        _check_scorable(eval_instances, dataset.feature_dim)


def check_cross_validate(dataset: BagDataset, config: TrainConfig) -> None:
    """Raise UsageError unless :func:`cross_validate` can run ``config`` on
    ``dataset``, so that a run fails before its first fold: it needs the
    folds that :func:`~llpkit.data.assign_folds` gives and labeled bags."""
    if dataset.fold_assignment is None:
        raise UsageError("dataset has no fold assignment")
    if dataset.instances.labels is None:
        raise UsageError(
            "cross-validation needs labeled bags: it scores each held-out "
            "fold on its instance labels"
        )
    check_train(dataset, config)


@dataclass(frozen=True)
class FoldResult:
    fold: int
    record: TrainingRecord

    @property
    def metrics(self) -> EvalMetrics:
        return self.record.metrics


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


def cross_validate(dataset: BagDataset, config: TrainConfig) -> CrossValResult:
    """Train per fold, score each model on its held-out fold's instances.

    Runs the folds of the dataset's fold assignment, in fold order.  Every
    fold trains with the same config seed, so symmetric folds give
    symmetric results.
    """
    check_cross_validate(dataset, config)
    results = []
    for fold in sorted(set(dataset.fold_assignment.values())):
        train_ds, held = dataset.fold_split(fold)
        _, record = train(train_ds, config, eval_instances=held)
        results.append(FoldResult(fold, record))

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
        result = cross_validate(assign_folds(bagged, k, config.seed), config)
        rows.append(SweepRow(size, result.mean_accuracy, result.std_accuracy))
    return rows
