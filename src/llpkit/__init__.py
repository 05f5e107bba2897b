"""Learning from label proportions for small bags.

Trains binary instance classifiers when the only supervision is the number
of positive instances per bag: exact count-likelihood EM on the Poisson
binomial distribution, a normal-approximation variant, a proportion-loss
baseline, and a fully supervised skyline, plus the bagging and
cross-validation harness around them.
"""

__version__ = "0.1.0"

from .data import (
    BagDataset,
    Instances,
    assign_folds,
    generate_synthetic,
    load_bags_csv,
    load_instances_csv,
    make_bags,
    save_bags_csv,
    save_instances_csv,
)
from .errors import FormatError, LlpError, NumericalError, UsageError
from .network import (
    ClassifierParams,
    backward,
    forward,
    init_params,
    load_checkpoint,
    save_checkpoint,
)
from .objectives import EmState, e_step, m_step_loss, predict
from .poisson_binomial import bag_log_likelihood, instance_posteriors
from .training import (
    CrossValResult,
    EvalMetrics,
    TrainConfig,
    TrainingRecord,
    bag_size_sweep,
    cross_validate,
    evaluate,
    train,
)
