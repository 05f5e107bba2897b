"""Self-tests of the benchmark: tiny runs of every workload, and proof that
each correctness check rejects a corrupted output.

Run from the root of the repository:  python3 -m pytest perfbench -q
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import run  # noqa: E402
from checks import CheckError  # noqa: E402
from llpkit import cli, data, network, poisson_binomial  # noqa: E402


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_run_passes_every_check(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", trace, "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    expected = run.PER_LAYER if trace == "1" else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())
    else:
        passes = result["metrics"]["network.pass_rows_per_train_row"]["value"]
        assert passes == (4.0 if workload.startswith("em-") else 2.0)


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "ingest", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_benchmark_json_matches_the_reported_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


# ---------------------------------------------------------------------------
# Each check rejects a corrupted output
# ---------------------------------------------------------------------------


@pytest.fixture
def bagged(tmp_path):
    """A small instance CSV bagged by llpkit, and the data written."""
    rng = np.random.default_rng(5)
    labels = (rng.random(60) < 0.5).astype(np.int64)
    features = rng.standard_normal((60, 2))
    checks.write_instance_csv(tmp_path / "train.csv", features, labels)
    argv = ["bag", "--in", str(tmp_path / "train.csv"), "--min", "1", "--max", "5",
            "--seed", "2", "--out", str(tmp_path / "bags.csv")]
    assert cli.main(argv) == 0
    return tmp_path, features, labels


def test_bag_file_check(bagged):
    tmp_path, features, labels = bagged
    bags = checks.read_bag_csv(tmp_path / "bags.csv")
    assert checks.check_bag_file(bags, features, labels, (1, 5)) == 60
    with pytest.raises(CheckError):
        checks.check_bag_file(bags, features, labels, (2, 5))
    flipped = labels.copy()
    flipped[int(bags[0][1][0])] ^= 1
    with pytest.raises(CheckError):
        checks.check_bag_file(bags, features, flipped, (1, 5))
    nudged = features.copy()
    nudged[int(bags[0][1][0]), 1] += 1e-12
    with pytest.raises(CheckError):
        checks.check_bag_file(bags, nudged, labels, (1, 5))
    with pytest.raises(CheckError):
        checks.check_bag_file(bags[1:], features, labels, (1, 5))


def test_label_flipped_after_reload(bagged):
    tmp_path, _, _ = bagged
    loaded = data.load_bags_csv(tmp_path / "bags.csv")
    data.save_bags_csv(tmp_path / "resaved.csv", loaded)
    checks.check_same_bytes(tmp_path / "bags.csv", tmp_path / "resaved.csv", "reload")
    bag = loaded.bags[0]
    inst = bag.instances[0]
    flipped = data.Instance(inst.features, 1 - inst.true_label, inst.instance_id)
    bad_bag = data.Bag((flipped,) + bag.instances[1:], bag.positive_count + (1 if flipped.true_label else -1))
    corrupted = data.BagDataset((bad_bag,) + loaded.bags[1:], loaded.feature_dim)
    data.save_bags_csv(tmp_path / "resaved.csv", corrupted)
    with pytest.raises(CheckError):
        checks.check_same_bytes(tmp_path / "bags.csv", tmp_path / "resaved.csv", "reload")


def test_parameter_changed_after_checkpoint_load(tmp_path):
    params = network.init_params((2, 4, 1), seed=1)
    network.save_checkpoint(tmp_path / "c.json", params)
    loaded, _ = network.load_checkpoint(tmp_path / "c.json")
    checks.check_checkpoint(params, loaded, tmp_path / "c.json")
    theta = loaded.theta.copy()
    theta[3] = np.nextafter(theta[3], np.inf)
    with pytest.raises(CheckError):
        checks.check_checkpoint(params, loaded.with_theta(theta), tmp_path / "c.json")


def test_posterior_nudged():
    rng = np.random.default_rng(7)
    p = checks.clamp(rng.random(9))
    phi = poisson_binomial.instance_posteriors(p, 4)
    checks.check_posteriors(phi, p, 4, "bag")
    for i in (0, 5):
        nudged = phi.copy()
        nudged[i] += 1e-6
        with pytest.raises(CheckError):
            checks.check_posteriors(nudged, p, 4, "bag")
    shifted = phi.copy()
    shifted[0] += 1e-6
    shifted[1] -= 1e-6  # still sums to y, but not the leave-one-out value
    with pytest.raises(CheckError):
        checks.check_posteriors(shifted, p, 4, "bag")


def test_log_likelihood_off():
    rng = np.random.default_rng(8)
    sizes = (2, 3, 1)
    params = network.init_params(sizes, seed=2)
    bags = [(1, None, rng.standard_normal((3, 2)), None), (2, None, rng.standard_normal((4, 2)), None)]
    p = [checks.clamp(network.forward(params, b[2])) for b in bags]
    exact = sum(poisson_binomial.bag_log_likelihood(pi, b[0]) for pi, b in zip(p, bags))
    checks.check_log_likelihood(exact, bags, sizes, params.theta)
    with pytest.raises(CheckError):
        checks.check_log_likelihood(exact * (1 + 1e-8), bags, sizes, params.theta)


def test_accuracy_above_bayes_or_below_target():
    ceiling = checks.accuracy_ceiling(2.0, 1000)
    assert checks.check_accuracy_curve([0.70, 0.80, 0.83], 0.80, ceiling, "fit") == 2
    with pytest.raises(CheckError):
        checks.check_accuracy_curve([0.80, ceiling + 1e-3], 0.80, ceiling, "fit")
    with pytest.raises(CheckError):
        checks.check_accuracy_curve([0.70, 0.79], 0.80, ceiling, "fit")
    labels = np.tile([1, 0, 0, 1], 5)
    predictions = labels.copy()
    predictions[:5] ^= 1  # 15 of 20 right
    checks.check_reported_accuracy(0.75, predictions, labels, "fit")
    checks.check_reported_accuracy(0.80, predictions, labels, "fit")  # one instance off
    with pytest.raises(CheckError):
        checks.check_reported_accuracy(0.85, predictions, labels, "fit")


def test_eval_output_off():
    predictions = np.array([1, 0, 1, 1, 0])
    labels = np.array([1, 0, 0, 1, 1])
    good = {"accuracy": 0.6, "true_positive": 2, "false_positive": 1,
            "true_negative": 1, "false_negative": 1, "count": 5}
    checks.check_eval_output(good, predictions, labels)
    for key, value in (("true_negative", 2), ("count", 4), ("accuracy", 0.60001)):
        with pytest.raises(CheckError):
            checks.check_eval_output({**good, key: value}, predictions, labels)


def test_folds_and_cv_mean_off():
    sizes = np.array([2, 3, 1, 4])
    assignment = {0: 0, 1: 1, 2: 0, 3: 1}
    checks.check_folds(assignment, 4, 2, sizes, {0: 3, 1: 7})
    with pytest.raises(CheckError):
        checks.check_folds({0: 0, 1: 1, 2: 0}, 4, 2, sizes, {0: 3, 1: 4})
    with pytest.raises(CheckError):
        checks.check_folds(assignment, 4, 2, sizes, {0: 4, 1: 6})
    checks.check_cv_mean(0.75, [0.7, 0.8])
    with pytest.raises(CheckError):
        checks.check_cv_mean(0.75 + 1e-9, [0.7, 0.8])
