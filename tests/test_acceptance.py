"""Acceptance suite: one test per shipping criterion.

Each test prints a single ``[criterion N] ...: PASS/FAIL`` line (visible
with ``pytest tests/test_acceptance.py -v -s``) and enforces the stated
tolerance.  Expensive experiment fixtures are shared between the criteria
that examine the same run.
"""

import csv
import math
import time

import numpy as np
import pytest

from helpers import (
    check_loss_gradient,
    configuration_posterior,
    pb_dp,
    pb_enumerated,
    run_em_full_batch,
    through_network,
)
from llpkit import objectives
from llpkit.cli import main as cli_main
from llpkit.data import (
    BagDataset,
    assign_folds,
    generate_synthetic,
    make_bags,
    sweep_datasets,
)
from llpkit.network import init_params
from llpkit.poisson_binomial import bag_log_likelihood, instance_posteriors
from llpkit.training import (
    TrainConfig,
    cross_validate,
    evaluate,
    train,
)


def report(number, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {number:2d}] {name}: {status} ({detail})")
    assert ok, f"criterion {number} ({name}): {detail}"


# ---------------------------------------------------------------------------
# Shared experiment fixtures
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def em_trace():
    """Fixed 50-bag dataset (sizes 1..6, separation 2) driven through 30
    full-batch EM cycles of 200 plain-gradient steps each."""
    rng = np.random.default_rng(4242)
    sizes = rng.integers(1, 7, size=50)
    instances = generate_synthetic(int(sizes.sum()), 2, 2.0, 0.5, seed=4242)
    offsets = np.concatenate(([0], np.cumsum(sizes)))
    counts = np.add.reduceat(instances.labels, offsets[:-1])
    dataset = BagDataset(instances, offsets, counts)
    assert dataset.num_bags == 50

    t0 = time.perf_counter()
    trace = run_em_full_batch(
        dataset, cycles=30, inner_steps=200, learning_rate=1e-3, seed=7
    )
    return trace, time.perf_counter() - t0


@pytest.fixture(scope="module")
def convergence_runs():
    """10-fold cross-validation of all four methods on easy blobs
    (2000 instances, separation 4, bag sizes 1..8)."""
    instances = generate_synthetic(2000, 2, 4.0, 0.5, seed=606)
    dataset = make_bags(instances, 1, 8, seed=606)
    results = {}
    t0 = time.perf_counter()
    for method in ("supervised", "mle", "amle", "dllp"):
        config = TrainConfig(method=method, max_epochs=200, seed=11)
        folded = assign_folds(dataset, 10, config.seed)
        results[method] = cross_validate(folded, config)
    return results, time.perf_counter() - t0


# ---------------------------------------------------------------------------
# Criteria
# ---------------------------------------------------------------------------


def test_criterion_01_pmf_oracle_equivalence():
    rng = np.random.default_rng(12345)
    t0 = time.perf_counter()
    worst = 0.0
    worst_library = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 13))
        p = rng.random(n)
        y = int(rng.integers(0, n + 1))
        enumerated = pb_enumerated(p, y)
        worst = max(worst, abs(pb_dp(p, y) - enumerated))
        library = math.exp(bag_log_likelihood(p, y))
        worst_library = max(worst_library, abs(library - enumerated))
    elapsed = time.perf_counter() - t0
    report(
        1,
        "pmf equivalence on 1000 random bags",
        worst <= 1e-12 and worst_library <= 1e-12 and elapsed < 5.0,
        f"max |dp - enumerated| = {worst:.2e}, "
        f"max |exp(bag_log_likelihood) - enumerated| = {worst_library:.2e}, "
        f"{elapsed:.2f}s",
    )


def test_criterion_02_posterior_consistency():
    rng = np.random.default_rng(23456)
    worst_sum = 0.0
    worst_gap = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 13))
        p = rng.random(n)
        y = int(rng.integers(0, n + 1))
        phi = instance_posteriors(p, y)
        worst_sum = max(worst_sum, abs(float(phi.sum()) - y))
        marginals = np.zeros(n)
        for config, weight in configuration_posterior(p, y).items():
            marginals += weight * np.asarray(config, dtype=np.float64)
        worst_gap = max(worst_gap, float(np.abs(phi - marginals).max()))
    report(
        2,
        "posterior consistency on 1000 random bags",
        worst_sum <= 1e-10 and worst_gap <= 1e-10,
        f"max |sum(phi) - y| = {worst_sum:.2e}, "
        f"max |loo - enumerated| = {worst_gap:.2e}",
    )


def test_criterion_03_gradient_suite():
    rng = np.random.default_rng(34567)
    worst = 0.0
    for trial in range(100):
        params = init_params((3, 6, 1), seed=trial)
        n = int(rng.integers(1, 6))
        X = rng.standard_normal((n, 3))
        y = int(rng.integers(0, n + 1))
        soft = rng.random(n)
        hard = rng.integers(0, 2, size=n).astype(np.float64)
        losses = (
            lambda probs: objectives.m_step_loss(probs, soft),
            lambda probs: objectives.amle_batch_loss(probs, [n], [y]),
            lambda probs: objectives.dllp_batch_loss(probs, [n], [y]),
            lambda probs: objectives.m_step_loss(probs, hard),
        )
        for loss in losses:
            loss_fn = through_network(X, loss)
            worst = max(worst, check_loss_gradient(loss_fn, params, tol=1e-5))
    report(
        3,
        "analytic gradients of all four losses vs finite differences",
        worst <= 1e-5,
        f"max relative error over 400 checks = {worst:.2e}",
    )


def test_criterion_04_em_monotonicity(em_trace):
    trace, elapsed = em_trace
    steps = np.diff(trace.log_likelihoods)
    worst = float(steps.min())
    report(
        4,
        "30 full-batch EM cycles never decrease the log-likelihood",
        worst >= -1e-8 and elapsed < 60.0,
        f"smallest step = {worst:+.3e}, "
        f"L {trace.log_likelihoods[0]:.2f} -> {trace.log_likelihoods[-1]:.2f}, "
        f"{elapsed:.1f}s",
    )


def test_criterion_05_bound_tightness(em_trace):
    trace, _ = em_trace
    worst = max(trace.bound_gaps)
    report(
        5,
        "lower bound tight after every posterior refresh",
        worst <= 1e-9,
        f"max per-bag |bound - log-likelihood| = {worst:.2e}",
    )


def test_criterion_06_convergence_gap(convergence_runs):
    results, elapsed = convergence_runs
    supervised = results["supervised"].mean_accuracy
    gap_mle = supervised - results["mle"].mean_accuracy
    gap_amle = supervised - results["amle"].mean_accuracy
    gap_dllp = supervised - results["dllp"].mean_accuracy
    epochs_ok = all(
        len(fr.record.rows) <= 200 for cv in results.values() for fr in cv.folds
    )
    ok = (
        gap_mle <= 0.03
        and gap_amle <= 0.06
        and gap_dllp <= 0.06
        and epochs_ok
        and elapsed < 600.0
    )
    report(
        6,
        "count-EM within 3 points of supervised, baselines within 6",
        ok,
        f"supervised {supervised:.4f}, gaps: mle {gap_mle:+.4f}, "
        f"amle {gap_amle:+.4f}, dllp {gap_dllp:+.4f}, {elapsed:.0f}s",
    )


def _median_epochs_to_95(result):
    per_fold = []
    for fr in result.folds:
        accuracies = [row.test_accuracy for row in fr.record.rows]
        target = 0.95 * accuracies[-1]
        per_fold.append(next(i + 1 for i, a in enumerate(accuracies) if a >= target))
    return float(np.median(per_fold))


def test_criterion_07_epoch_efficiency(convergence_runs):
    results, _ = convergence_runs
    mle = _median_epochs_to_95(results["mle"])
    amle = _median_epochs_to_95(results["amle"])
    dllp = _median_epochs_to_95(results["dllp"])
    report(
        7,
        "count-EM reaches 95% of final accuracy in fewest epochs",
        mle <= amle and mle <= dllp,
        f"median epochs: mle {mle:.0f}, amle {amle:.0f}, dllp {dllp:.0f}",
    )


def test_criterion_08_bag_size_degradation():
    instances = generate_synthetic(1600, 2, 1.5, 0.5, seed=808)
    config = TrainConfig(method="mle", max_epochs=200, seed=13)
    sizes = [2, 4, 8, 16]
    datasets = sweep_datasets(instances, sizes, 10, config.seed)
    rows = list(zip(sizes, (cross_validate(d, config) for d in datasets)))
    details = []
    ok = True
    for (size_a, a), (size_b, b) in zip(rows, rows[1:]):
        pooled = float(np.sqrt((a.std_accuracy**2 + b.std_accuracy**2) / 2.0))
        step_ok = b.mean_accuracy <= a.mean_accuracy + pooled
        ok = ok and step_ok
        details.append(
            f"{size_a}->{size_b}: "
            f"{b.mean_accuracy - a.mean_accuracy:+.4f} vs {pooled:.4f}"
        )
    report(
        8,
        "accuracy non-increasing in bag size within one pooled std",
        ok,
        "; ".join(details),
    )


def test_criterion_09_singleton_bag_equivalence():
    instances = generate_synthetic(1000, 2, 4.0, 0.5, seed=909)
    holdout = generate_synthetic(1000, 2, 4.0, 0.5, seed=910)
    dataset = make_bags(instances, 1, 1, seed=909)
    accuracies = {}
    for method in ("supervised", "mle", "amle", "dllp"):
        config = TrainConfig(method=method, max_epochs=200, seed=17)
        params, _ = train(dataset, config)
        accuracies[method] = evaluate(params, holdout).accuracy
    supervised = accuracies["supervised"]
    gaps = {m: abs(accuracies[m] - supervised) for m in ("mle", "amle", "dllp")}
    report(
        9,
        "all methods match supervised on single-instance bags",
        max(gaps.values()) <= 0.02,
        f"supervised {supervised:.4f}, gaps "
        + ", ".join(f"{m} {g:.4f}" for m, g in gaps.items()),
    )


def test_criterion_10_cli_determinism(tmp_path, capsys):
    data_csv = tmp_path / "data.csv"
    bags_csv = tmp_path / "bags.csv"
    assert cli_main(
        ["synth", "--n", "300", "--sep", "4", "--seed", "5", "--out", str(data_csv)]
    ) == 0
    assert cli_main(
        ["bag", "--in", str(data_csv), "--min", "1", "--max", "6", "--seed", "2",
         "--out", str(bags_csv)]
    ) == 0
    args = [
        "train", "--method", "mle", "--bags", str(bags_csv),
        "--epochs", "8", "--seed", "3", "--hidden", "16",
    ]
    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    assert cli_main(args + ["--out", str(dir_a)]) == 0
    assert cli_main(args + ["--out", str(dir_b)]) == 0
    capsys.readouterr()

    checkpoints_equal = (dir_a / "checkpoint.json").read_bytes() == (
        dir_b / "checkpoint.json"
    ).read_bytes()

    def curve_without_seconds(path):
        with open(path, newline="") as fh:
            return [row[:-1] for row in csv.reader(fh)]

    curves_equal = curve_without_seconds(dir_a / "curve.csv") == curve_without_seconds(
        dir_b / "curve.csv"
    )
    report(
        10,
        "identical train runs produce identical artifacts",
        checkpoints_equal and curves_equal,
        f"checkpoints equal: {checkpoints_equal}, curves equal: {curves_equal}",
    )
