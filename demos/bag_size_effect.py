"""How bag size erodes count supervision.

Rebags the same overlapping blobs at fixed sizes 2, 4, 8, 16 and
cross-validates the exact count-likelihood method at each size.  As bags
grow, the label mix inside each bag drifts toward the class prior, so the
counts carry less information and accuracy decays toward the unsupervised
floor.

Run from the repository root:

    python demos/bag_size_effect.py
"""

from pathlib import Path

from llpkit import TrainConfig, cross_validate, generate_synthetic, sweep_datasets

OUT = Path("demo_output")


def main():
    OUT.mkdir(exist_ok=True)
    print("Overlapping blobs (separation 1.5): even perfect supervision")
    print("tops out near 77% accuracy here, so every point matters.\n")
    instances = generate_synthetic(960, 2, 1.5, 0.5, seed=808)
    config = TrainConfig(method="mle", max_epochs=150, seed=13)
    sizes = [2, 4, 8, 16]
    datasets = sweep_datasets(instances, sizes, 5, config.seed)
    rows = [(size, cross_validate(d, config)) for size, d in zip(sizes, datasets)]

    print(f"{'bag size':>8}  {'accuracy':<20}")
    for size, result in rows:
        mean, std = result.mean_accuracy, result.std_accuracy
        bar = "#" * int((mean - 0.5) * 100)
        print(f"{size:>8}  {mean:.4f} +- {std:.4f}  {bar}")

    path = OUT / "bag_size_effect.csv"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("bag_size,mean_accuracy,std\n")
        for size, result in rows:
            fh.write(f"{size},{result.mean_accuracy!r},{result.std_accuracy!r}\n")
    print(f"\nTable written to {path}")


if __name__ == "__main__":
    main()
