"""Learning-curve comparison of the four training methods.

Cross-validates each method on the same bagged blobs, records per-epoch
test accuracy, and reports how many epochs each method needs to reach 95%
of its final accuracy.  The exact count-likelihood EM method gets there in
a handful of epochs; the bag-level gradient baselines take several times
longer.  Curves are written as CSV for external plotting.

Run from the repository root:

    python demos/em_convergence.py
"""

from pathlib import Path

import numpy as np

from llpkit import TrainConfig, assign_folds, cross_validate, generate_synthetic, make_bags

OUT_DIR = Path("demo_output")
METHODS = ("supervised", "mle", "amle", "dllp")


def epochs_to_fraction(record, fraction=0.95):
    accuracies = [row.test_accuracy for row in record.rows]
    target = fraction * accuracies[-1]
    return next(i + 1 for i, a in enumerate(accuracies) if a >= target)


def main():
    OUT_DIR.mkdir(exist_ok=True)
    print("Building 1500 instances (separation 4) in bags of 1..8...")
    instances = generate_synthetic(1500, 2, 4.0, 0.5, seed=606)
    dataset = make_bags(instances, 1, 8, seed=606)
    print(f"{dataset.num_bags} bags; running 5-fold cross-validation per method\n")

    print(f"{'method':<12}{'accuracy':<20}{'median epochs to 95%':>22}")
    for method in METHODS:
        config = TrainConfig(method=method, max_epochs=200, seed=11)
        result = cross_validate(assign_folds(dataset, 5, config.seed), config)
        medians = np.median([epochs_to_fraction(fr.record) for fr in result.folds])
        print(
            f"{method:<12}"
            f"{result.mean_accuracy:.4f} +- {result.std_accuracy:.4f}"
            f"{medians:>18.0f}"
        )
        for fr in result.folds:
            fr.record.write_csv(OUT_DIR / f"curve_{method}_fold{fr.fold}.csv")

    print(f"\nPer-epoch curves written to {OUT_DIR}/curve_<method>_fold<k>.csv")
    print("Columns: epoch,loss,log_likelihood,test_accuracy,seconds")


if __name__ == "__main__":
    main()
