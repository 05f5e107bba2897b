"""Epoch loop and cross-validation.

One :func:`train` call drives any of the four objectives:

* ``mle``: run one epoch of minibatch cross-entropy against per-instance
  soft targets from the count posterior.  Batches are instance-level,
  since the soft targets decouple instances inside an epoch; bags never
  need to fit in one batch.  One E-step runs before the first epoch and
  one after each epoch.  The one after epoch e gives that epoch's count
  log-likelihood and the targets for epoch e + 1.  The first one builds
  the grouping of the dataset's bags that the kernel runs on,
  ``BagDataset.posterior_plan``, and every later one reuses it.
* ``amle`` / ``dllp``: per-bag losses, batched as groups of whole bags.
* ``supervised``: ordinary instance-level cross-entropy on true labels.

All four share one minibatch loop over items: whole bags for ``amle`` and
``dllp``, single instances for ``mle`` and ``supervised``.  An item is its
bag's rows (or one row) with its size and count (or its target).  Each
epoch gathers the shuffled items' features and entries once, and a batch
of ``batch_size`` items is a slice of that gather.  :func:`train` builds
one :class:`network.TrainingStep` per fit, which holds the weight views,
the gradient buffer and the Adam state; each step runs its ``gradient``
(the network once over the batch, the method's loss and the chain rule)
and its ``update`` (one Adam step), in place on the parameter vector.

Early stopping watches the training objective (count log-likelihood for
``mle``, mean epoch loss otherwise), never test data: it stops after
``patience`` consecutive epochs without a relative improvement above
``rel_tol``.  Everything is deterministic given (dataset, config, seed);
wall-clock time only ever lands in the record's ``seconds`` column.

A bag-size sweep is one :func:`cross_validate` per dataset that
:func:`llpkit.data.sweep_datasets` returns.
"""

import math
import time
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import network, objectives
from .data import BagDataset, Instances
from .errors import NumericalError, UsageError, check_whole
from .files import write_csv

METHODS = ("mle", "amle", "dllp", "supervised")


@dataclass(frozen=True)
class TrainConfig:
    """Everything a run needs besides the data.

    ``batch_size`` counts instances for mle/supervised and whole bags for
    amle/dllp.  Every step is an Adam step.  The integer fields, and each
    hidden width, must be whole numbers; they are stored as ints.
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
        for name in ("max_epochs", "batch_size", "patience", "seed"):
            object.__setattr__(self, name, check_whole(getattr(self, name), name))
        widths = tuple(check_whole(w, "hidden layer widths") for w in self.hidden_widths)
        object.__setattr__(self, "hidden_widths", widths)
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
        """Write the curve CSV: one row per epoch, and an empty cell for
        a None, as :func:`llpkit.files.write_csv` writes every CSV."""
        columns = [[getattr(row, name) for row in self.rows] for name in RECORD_HEADER]
        write_csv(path, RECORD_HEADER, columns)


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
    step = network.TrainingStep(params, config.learning_rate)
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
                total += step(
                    epoch_features[bounds[lo] : bounds[hi]], loss_fn, hi - lo
                )
            except NumericalError as exc:
                where = f"epoch {epoch}, batch {bi}"
                if bag_level:
                    where += f", bags {order[lo:hi].tolist()}"
                raise NumericalError(f"{exc} at {where}") from exc
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
    network.check_layer_sizes((dataset.feature_dim, *config.hidden_widths, 1))
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
