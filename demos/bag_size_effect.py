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

from llpkit import TrainConfig, bag_size_sweep, generate_synthetic

OUT = Path("demo_output")


def main():
    OUT.mkdir(exist_ok=True)
    print("Overlapping blobs (separation 1.5): even perfect supervision")
    print("tops out near 77% accuracy here, so every point matters.\n")
    instances = generate_synthetic(960, 2, 1.5, 0.5, seed=808)
    config = TrainConfig(method="mle", max_epochs=150, seed=13)
    rows = bag_size_sweep(instances, [2, 4, 8, 16], config, k=5)

    print(f"{'bag size':>8}  {'accuracy':<20}")
    for row in rows:
        bar = "#" * int((row.mean_accuracy - 0.5) * 100)
        print(f"{row.bag_size:>8}  {row.mean_accuracy:.4f} +- {row.std_accuracy:.4f}  {bar}")

    path = OUT / "bag_size_effect.csv"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("bag_size,mean_accuracy,std\n")
        for row in rows:
            fh.write(f"{row.bag_size},{row.mean_accuracy!r},{row.std_accuracy!r}\n")
    print(f"\nTable written to {path}")


if __name__ == "__main__":
    main()
