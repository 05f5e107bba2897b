"""Walkthrough: train an instance classifier from bag-level counts.

The setting: instances are grouped into bags, and the only supervision is
how many instances in each bag are positive.  This script builds a toy
dataset, hides the instance labels behind counts, trains the exact
count-likelihood EM method, and shows that the recovered instance
classifier is nearly as good as one trained on the labels themselves.

Run from the repository root:

    python demos/quickstart.py
"""

import numpy as np

from llpkit import (
    TrainConfig,
    e_step,
    evaluate,
    generate_synthetic,
    make_bags,
    train,
)

# Two Gaussian blobs, means 4 units apart: easy, but not trivial.
print("1. Generating 1200 labeled instances (two blobs, separation 4)...")
instances = generate_synthetic(1200, 2, 4.0, 0.5, seed=42)
holdout = generate_synthetic(800, 2, 4.0, 0.5, seed=43)

print("2. Grouping them into bags of 1..8 instances; from here on, the")
print("   only supervision is each bag's count of positives.")
dataset = make_bags(instances, 1, 8, seed=42)
sizes = dataset.sizes
print(f"   {dataset.num_bags} bags, sizes {sizes.min()}..{sizes.max()}")

# strip_labels() proves nothing below peeks at instance labels: the
# training result is identical either way (the test suite pins this).
blind = dataset.strip_labels()

print("3. Training with the exact count-likelihood EM method...")
config = TrainConfig(method="mle", max_epochs=100, seed=7)
params, record = train(blind, config)
print(f"   stopped after {len(record.rows)} epochs, "
      f"final count log-likelihood {record.rows[-1].log_likelihood:.2f}")

print("4. Training the fully supervised skyline on the same instances...")
supervised_params, _ = train(dataset, TrainConfig(method="supervised",
                                                  max_epochs=100, seed=7))

acc_counts = evaluate(params, holdout, threshold=0.5).accuracy
acc_labels = evaluate(supervised_params, holdout, threshold=0.5).accuracy
print(f"5. Held-out accuracy: counts only {acc_counts:.4f} vs "
      f"labels {acc_labels:.4f}")

print("6. Peeking inside one E-step: the per-instance posteriors of the")
print("   first bag, given its count, which become soft targets:")
state = e_step(params, blind)
lo, hi = blind.offsets[:2]
with np.printoptions(precision=3, suppress=True):
    print(f"   bag count y={blind.counts[0]} of n={hi - lo} -> "
          f"targets {state.targets[lo:hi]}")
print("   (they always sum to y exactly)")

print()
print("The same workflow via the command line:")
print("   llpkit synth --n 1200 --sep 4 --seed 42 --out data.csv")
print("   llpkit bag   --in data.csv --min 1 --max 8 --seed 42 --out bags.csv")
print("   llpkit train --method mle --bags bags.csv --out run/")
print("   llpkit eval  --checkpoint run/checkpoint.json --data data.csv")
