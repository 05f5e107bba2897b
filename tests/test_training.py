"""Tests for the epoch loop, cross-validation, and the bag-size sweep."""

import csv
import re

import numpy as np
import pytest

from helpers import adam_step, network_gradient, run_em_full_batch, strip_labels
from llpkit.data import (
    BagDataset,
    Instances,
    assign_folds,
    generate_synthetic,
    make_bags,
    sweep_datasets,
)
from llpkit import network, objectives, training
from llpkit.errors import NumericalError, UsageError
from llpkit.objectives import e_step, m_step_loss, predict
from llpkit.training import (
    METHODS,
    RECORD_HEADER,
    EpochRow,
    TrainConfig,
    TrainingRecord,
    cross_validate,
    evaluate,
    train,
)


def blob_bags(n=120, sep=4.0, min_size=1, max_size=6, seed=0, dim=2):
    instances = generate_synthetic(n, dim, sep, 0.5, seed=seed)
    return make_bags(instances, min_size, max_size, seed=seed), instances


def quick_config(method, **overrides):
    defaults = dict(
        method=method,
        max_epochs=30,
        batch_size=32,
        learning_rate=3e-3,
        patience=30,
        seed=1,
        hidden_widths=(8,),
    )
    defaults.update(overrides)
    return TrainConfig(**defaults)


class TestTrain:
    def test_single_epoch_single_row(self):
        dataset, _ = blob_bags(n=40)
        _, record = train(dataset, quick_config("mle", max_epochs=1))
        assert len(record.rows) == 1
        assert record.rows[0].epoch == 1

    def test_all_negative_bags_full_batch_predicts_negative(self):
        features = np.tile(np.random.default_rng(3).standard_normal(2), (40, 1))
        dataset = make_bags(Instances(features, np.zeros(40, dtype=int)), 2, 4, seed=0)
        config = quick_config(
            "mle",
            max_epochs=40,
            batch_size=10_000,
            learning_rate=0.5,
        )
        params, _ = train(dataset, config)
        np.testing.assert_array_equal(predict(params, features), 0)

    def test_deterministic_given_seed(self):
        dataset, instances = blob_bags(n=60)
        config = quick_config("amle", max_epochs=10)
        params_a, record_a = train(dataset, config, eval_instances=instances)
        params_b, record_b = train(dataset, config, eval_instances=instances)
        assert params_a.theta.tobytes() == params_b.theta.tobytes()
        for ra, rb in zip(record_a.rows, record_b.rows):
            assert (ra.epoch, ra.loss, ra.log_likelihood, ra.test_accuracy) == (
                rb.epoch,
                rb.loss,
                rb.log_likelihood,
                rb.test_accuracy,
            )

    @pytest.mark.parametrize("method", ["mle", "amle", "dllp"])
    def test_count_methods_never_read_labels(self, method):
        dataset, _ = blob_bags(n=60)
        config = quick_config(method, max_epochs=8)
        with_labels, record_full = train(dataset, config)
        without_labels, record_blind = train(strip_labels(dataset), config)
        assert with_labels.theta.tobytes() == without_labels.theta.tobytes()
        assert [r.loss for r in record_full.rows] == [
            r.loss for r in record_blind.rows
        ]

    def test_supervised_requires_labels(self):
        dataset, _ = blob_bags(n=30)
        with pytest.raises(UsageError):
            train(strip_labels(dataset), quick_config("supervised"))

    def test_early_stop_respects_patience(self):
        dataset, _ = blob_bags(n=40)
        config = quick_config(
            "dllp", max_epochs=500, patience=3, rel_tol=0.5, learning_rate=1e-5
        )
        # An absurd tolerance means nothing ever counts as an improvement.
        _, record = train(dataset, config)
        assert len(record.rows) == 4

    def test_seconds_column_is_cumulative(self):
        dataset, _ = blob_bags(n=40)
        _, record = train(dataset, quick_config("supervised", max_epochs=5))
        seconds = [row.seconds for row in record.rows]
        assert all(b >= a for a, b in zip(seconds, seconds[1:]))

    def test_log_likelihood_only_for_mle(self):
        dataset, _ = blob_bags(n=30)
        _, record = train(dataset, quick_config("mle", max_epochs=2))
        assert all(row.log_likelihood is not None for row in record.rows)
        _, record = train(dataset, quick_config("dllp", max_epochs=2))
        assert all(row.log_likelihood is None for row in record.rows)

    @pytest.mark.parametrize("method", ["mle", "amle"])
    def test_returned_theta_is_64_byte_aligned(self, method):
        dataset, _ = blob_bags(n=60)
        params, _ = train(dataset, quick_config(method, max_epochs=2))
        assert params.theta.ctypes.data % 64 == 0

    @pytest.mark.parametrize(
        "method,extra_passes", [("amle", 0), ("dllp", 0), ("supervised", 0), ("mle", 1)]
    )
    def test_one_network_pass_per_training_row(self, monkeypatch, method, extra_passes):
        # Each training step runs the network once over its batch; mle adds
        # one E-step pass over the data before epoch 1 and after each epoch.
        dataset, _ = blob_bags(n=60)
        rows = []
        trace = network._forward_trace

        def counting(params, batch):
            rows.append(len(batch))
            return trace(params, batch)

        monkeypatch.setattr(network, "_forward_trace", counting)
        _, record = train(dataset, quick_config(method, max_epochs=3))
        epochs, n = len(record.rows), dataset.num_instances
        assert epochs == 3
        assert sum(rows) == epochs * n + extra_passes * (epochs + 1) * n

    def test_mle_learns_blobs(self):
        # About 200 bags of sizes 1..8; the supervised run on the same data
        # is the oracle that the problem itself is learnable.
        dataset, _ = blob_bags(n=900, sep=4.0, min_size=1, max_size=8, seed=5)
        assert 180 <= dataset.num_bags <= 230
        holdout = generate_synthetic(600, 2, 4.0, 0.5, seed=99)
        mle_params, record = train(
            dataset, TrainConfig(method="mle", max_epochs=100, seed=1)
        )
        assert len(record.rows) <= 100
        supervised_params, _ = train(
            dataset, TrainConfig(method="supervised", max_epochs=100, seed=1)
        )
        assert evaluate(supervised_params, holdout).accuracy >= 0.93
        assert evaluate(mle_params, holdout).accuracy >= 0.9


def reference_loop(dataset, config):
    """The epoch loop of any method with a fresh step's chain rule per
    batch (``helpers.network_gradient``) and the out-of-place Adam formula
    (``helpers.adam_step``): for mle, an E-step at the start of every epoch
    and the count log-likelihood after each epoch.  No early stopping."""
    init_seed, shuffle_seed = np.random.SeedSequence(config.seed).generate_state(2)
    params = network.init_params(
        (dataset.feature_dim, *config.hidden_widths, 1), int(init_seed)
    )
    theta = params.theta
    m, v = np.zeros_like(theta), np.zeros_like(theta)
    rng = np.random.default_rng(int(shuffle_seed))
    features = dataset.instances.features
    bag_level = config.method in ("amle", "dllp")
    num_items = dataset.num_bags if bag_level else len(features)
    if bag_level:
        batch_loss = getattr(objectives, f"{config.method}_batch_loss")
    elif config.method == "supervised":
        targets = dataset.instances.labels.astype(np.float64)
    rows = []
    step = 0
    for epoch in range(1, config.max_epochs + 1):
        if config.method == "mle":
            targets = e_step(params, dataset).targets
        order = rng.permutation(num_items)
        total = 0.0
        for lo in range(0, num_items, config.batch_size):
            sel = order[lo : lo + config.batch_size]
            if bag_level:
                sizes, counts = dataset.sizes[sel], dataset.counts[sel]
                loss, grad = network_gradient(
                    params,
                    features[dataset.bag_rows(sel)],
                    lambda probs: batch_loss(probs, sizes, counts),
                )
            else:
                loss, grad = network_gradient(
                    params,
                    features[sel],
                    lambda probs: m_step_loss(probs, targets[sel]),
                )
            step += 1
            theta, m, v = adam_step(
                theta, m, v, step, config.learning_rate, grad / sel.size
            )
            params = params.with_theta(theta)
            total += loss
        log_likelihood = None
        if config.method == "mle":
            log_likelihood = e_step(params, dataset).log_likelihood
        rows.append((epoch, total / num_items, log_likelihood))
    return params, rows


class TestNumericalFailures:
    @pytest.mark.parametrize(
        "failing_call,where", [(1, "before epoch 1"), (3, "after epoch 2")]
    )
    def test_e_step_failure_names_the_epoch(self, monkeypatch, failing_call, where):
        dataset, _ = blob_bags(n=60)
        real_e_step = objectives.e_step
        calls = []

        def e_step(params, data):
            calls.append(1)
            if len(calls) == failing_call:
                raise NumericalError("network output is not finite")
            return real_e_step(params, data)

        monkeypatch.setattr(objectives, "e_step", e_step)
        with pytest.raises(NumericalError, match=where):
            train(dataset, quick_config("mle", max_epochs=5))

    @pytest.mark.parametrize("method", METHODS)
    def test_diverging_step_names_epoch_and_batch(self, method):
        """The error names the epoch and batch of the failing step and, for
        the bag-level methods, the bags in that batch: ``order[lo:hi]`` of
        the epoch's permutation."""
        dataset, _ = blob_bags(n=60)
        config = quick_config(method, batch_size=4, learning_rate=1e200)
        with pytest.raises(NumericalError) as info:
            train(dataset, config)
        found = re.search(
            r" at epoch 1, batch (\d+)(?:, bags \[(.*)\])?$", str(info.value)
        )
        assert found, str(info.value)
        if method in ("amle", "dllp"):
            shuffle_seed = np.random.SeedSequence(config.seed).generate_state(2)[1]
            order = np.random.default_rng(int(shuffle_seed)).permutation(
                dataset.num_bags
            )
            lo = int(found[1]) * config.batch_size
            assert found[2] == ", ".join(map(str, order[lo : lo + config.batch_size]))
        else:
            assert found[2] is None

    @pytest.mark.parametrize("method", METHODS)
    def test_step_calls_the_public_loss(self, monkeypatch, method):
        """Each step reaches its method's loss by its public name on
        ``objectives``: a loss replaced there is the one that trains."""
        name = {"amle": "amle_batch_loss", "dllp": "dllp_batch_loss"}.get(
            method, "m_step_loss"
        )
        monkeypatch.setattr(
            objectives,
            name,
            lambda probs, *items: (float("nan"), np.zeros_like(probs)),
        )
        dataset, _ = blob_bags(n=60)
        config = quick_config(method, batch_size=4)
        with pytest.raises(NumericalError) as info:
            train(dataset, config)
        expected = "non-finite loss at epoch 1, batch 0"
        if method in ("amle", "dllp"):
            shuffle_seed = np.random.SeedSequence(config.seed).generate_state(2)[1]
            order = np.random.default_rng(int(shuffle_seed)).permutation(
                dataset.num_bags
            )
            expected += f", bags {order[:4].tolist()}"
        assert str(info.value) == expected


class TestFusedEStep:
    def test_curve_log_likelihood_is_objective_at_epoch_parameters(self):
        dataset, _ = blob_bags(n=60)
        _, record = train(dataset, quick_config("mle", max_epochs=4))
        for epoch in range(1, 5):
            params, _ = train(dataset, quick_config("mle", max_epochs=epoch))
            assert (
                record.rows[epoch - 1].log_likelihood
                == e_step(params, dataset).log_likelihood
            )

    # Unit batches, a ragged last batch, the default test batch and one
    # batch larger than the 60 instances (and so than the bags).
    @pytest.mark.parametrize("batch_size", [1, 7, 32, 61])
    def test_refresh_interval_matches_reference_loop(self, tmp_path, batch_size):
        dataset, _ = blob_bags(n=60)
        # train refreshes mle's targets after every epoch, with the E-step
        # that gives the epoch's log-likelihood, and every method's Adam
        # step is the reference formula, bit for bit.
        for method in METHODS:
            config = quick_config(method, max_epochs=7, batch_size=batch_size)
            params, record = train(dataset, config)
            ref_params, ref_rows = reference_loop(dataset, config)
            curve = [(r.epoch, r.loss, r.log_likelihood) for r in record.rows]
            assert curve == ref_rows, method
            network.save_checkpoint(tmp_path / "train.json", params)
            network.save_checkpoint(tmp_path / "reference.json", ref_params)
            assert (tmp_path / "train.json").read_bytes() == (
                tmp_path / "reference.json"
            ).read_bytes(), method


class TestEvaluate:
    def setup_method(self):
        self.instances = generate_synthetic(400, 2, 6.0, 0.5, seed=31)
        dataset = make_bags(self.instances, 1, 1, seed=0)
        self.params, _ = train(dataset, quick_config("supervised", max_epochs=40))

    def test_confusion_counts_sum_to_total(self):
        metrics = evaluate(self.params, self.instances)
        assert metrics.count == len(self.instances)

    def test_perfect_predictions(self):
        # Evaluate against the model's own predictions as pseudo-labels.
        features = self.instances.features
        relabeled = Instances(features, predict(self.params, features))
        assert evaluate(self.params, relabeled).accuracy == 1.0

    def test_flipped_predictions(self):
        features = self.instances.features
        flipped = Instances(features, 1 - predict(self.params, features))
        metrics = evaluate(self.params, flipped)
        assert metrics.accuracy == 0.0
        assert metrics.true_positive == 0 and metrics.true_negative == 0

    def test_independent_labels_score_near_chance(self):
        rng = np.random.default_rng(41)
        coin = Instances(self.instances.features, rng.integers(0, 2, size=400))
        accuracy = evaluate(self.params, coin).accuracy
        # Binomial(400, 0.5) concentration: 4 sigma is 0.1.
        assert abs(accuracy - 0.5) < 0.1

    def test_empty_set_rejected(self):
        with pytest.raises(UsageError, match="empty"):
            evaluate(self.params, Instances(np.zeros((0, 2))))

    def test_unlabeled_rejected(self):
        with pytest.raises(UsageError, match="labels"):
            evaluate(self.params, Instances(np.zeros((1, 2))))


class TestCrossValidate:
    def test_duplicated_folds_score_identically(self):
        rng = np.random.default_rng(51)
        feats = rng.standard_normal((12, 2))
        labels = rng.integers(0, 2, size=12)
        counts = [int(labels[i : i + 3].sum()) for i in (0, 3, 6, 9)]
        # Two folds containing byte-identical bags.
        dataset = BagDataset(
            Instances(np.vstack([feats, feats]), np.concatenate([labels, labels])),
            offsets=np.arange(0, 25, 3),
            counts=counts + counts,
            fold_assignment={i: i // 4 for i in range(8)},
        )
        result = cross_validate(dataset, quick_config("mle", max_epochs=5))
        accs = [fr.metrics.accuracy for fr in result.folds]
        assert accs[0] == accs[1]

    def test_mean_matches_fold_accuracies(self):
        dataset, _ = blob_bags(n=80)
        config = quick_config("dllp", max_epochs=5)
        result = cross_validate(assign_folds(dataset, 4, config.seed), config)
        accs = [fr.metrics.accuracy for fr in result.folds]
        assert result.mean_accuracy == pytest.approx(np.mean(accs), abs=1e-12)
        assert len(result.folds) == 4

    def test_scores_each_fold_once(self, monkeypatch):
        # train scores the held-out fold after every epoch, and each fold's
        # metrics are the last of those scores, not one more evaluation.
        dataset, _ = blob_bags(n=80)
        dataset = assign_folds(dataset, 3, seed=7)
        calls = []
        score = training.evaluate

        def counting(params, instances, threshold=0.5):
            calls.append(len(instances))
            return score(params, instances, threshold)

        monkeypatch.setattr(training, "evaluate", counting)
        result = cross_validate(dataset, quick_config("amle", max_epochs=4))
        assert len(calls) == sum(len(fr.record.rows) for fr in result.folds)
        for fr in result.folds:
            _, held = dataset.fold_split(fr.fold)
            assert fr.metrics.accuracy == fr.record.rows[-1].test_accuracy
            assert fr.metrics.count == len(held)

    def test_existing_assignment_reused(self):
        dataset, _ = blob_bags(n=40)
        dataset = assign_folds(dataset, 3, seed=7)
        result = cross_validate(dataset, quick_config("supervised", max_epochs=3))
        assert sorted(fr.fold for fr in result.folds) == [0, 1, 2]

    def test_unlabeled_bags_fail_before_the_first_fold(self, monkeypatch):
        dataset, _ = blob_bags(n=40)
        config = quick_config("mle")
        dataset = strip_labels(assign_folds(dataset, 2, config.seed))
        monkeypatch.setattr(training, "train", None)
        with pytest.raises(UsageError, match="cross-validation needs labeled bags"):
            cross_validate(dataset, config)

    def test_missing_folds_need_k(self):
        dataset, _ = blob_bags(n=40)
        with pytest.raises(UsageError):
            cross_validate(dataset, quick_config("supervised", max_epochs=1))


class TestBagSizeSweep:
    """A sweep is cross_validate on each dataset of sweep_datasets."""

    def test_row_per_size(self):
        instances = generate_synthetic(120, 2, 4.0, 0.5, seed=61)
        datasets = sweep_datasets(instances, [2, 4], 3, seed=1)
        assert [np.unique(d.sizes).tolist() for d in datasets] == [[2], [4]]
        assert [set(d.fold_assignment.values()) for d in datasets] == [{0, 1, 2}] * 2
        config = quick_config("dllp", max_epochs=3)
        results = [cross_validate(d, config) for d in datasets]
        assert [len(r.folds) for r in results] == [3, 3]

    def test_sizes_share_one_shuffled_copy(self):
        """Each size's rows are a prefix of one shuffled copy of the
        instances, and its dataset is the one make_bags would make."""
        instances = generate_synthetic(1000, 2, 4.0, 0.5, seed=64)
        sizes = [2, 4, 8, 16]
        datasets = sweep_datasets(instances, sizes, 3, seed=1)
        for size, got in zip(sizes, datasets):
            want = assign_folds(make_bags(instances, size, size, seed=1), 3, seed=1)
            assert got.instances.features.tobytes() == want.instances.features.tobytes()
            np.testing.assert_array_equal(got.instances.labels, want.instances.labels)
            np.testing.assert_array_equal(got.offsets, want.offsets)
            np.testing.assert_array_equal(got.counts, want.counts)
            np.testing.assert_array_equal(got.instance_ids, want.instance_ids)
            assert got.fold_assignment == want.fold_assignment
            assert np.shares_memory(got.instances.features, datasets[0].instances.features)
            assert not np.shares_memory(got.instances.features, instances.features)

    def test_insufficient_instances_names_the_size(self):
        instances = generate_synthetic(30, 2, 4.0, 0.5, seed=62)
        with pytest.raises(UsageError, match="bag size 16: cannot split 1 bags"):
            sweep_datasets(instances, [16], 10, seed=1)

    def test_sizes_must_be_given_and_positive(self):
        instances = generate_synthetic(30, 2, 4.0, 0.5, seed=62)
        with pytest.raises(UsageError, match="no bag sizes given"):
            sweep_datasets(instances, [], 3, seed=1)
        with pytest.raises(UsageError, match=r"bag size 0: need 1 <= min_size"):
            sweep_datasets(instances, [2, 0], 3, seed=1)

    def test_singleton_bags_match_supervised(self):
        instances = generate_synthetic(240, 2, 4.0, 0.5, seed=63)
        (dataset,) = sweep_datasets(instances, [1], 3, seed=1)
        config = quick_config("mle", max_epochs=40, patience=40)
        mle = cross_validate(dataset, config)
        supervised = cross_validate(
            dataset, quick_config("supervised", max_epochs=40, patience=40)
        )
        assert abs(mle.mean_accuracy - supervised.mean_accuracy) <= 0.02


class TestFullBatchEm:
    def test_log_likelihood_never_decreases(self):
        dataset, _ = blob_bags(n=50, sep=2.0, max_size=4, seed=71)
        trace = run_em_full_batch(
            dataset, cycles=6, inner_steps=60, learning_rate=1e-2, seed=3,
            hidden_widths=(8,),
        )
        values = trace.log_likelihoods
        assert all(b >= a - 1e-8 for a, b in zip(values, values[1:]))

    def test_bound_is_tight_at_each_refresh(self):
        dataset, _ = blob_bags(n=40, sep=2.0, max_size=4, seed=72)
        trace = run_em_full_batch(
            dataset, cycles=4, inner_steps=40, learning_rate=1e-2, seed=4,
            hidden_widths=(8,),
        )
        assert all(gap <= 1e-9 for gap in trace.bound_gaps)


def read_curve(path):
    """(epoch, loss, log_likelihood, test_accuracy, seconds) per curve row,
    with None for a blank column."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        assert next(reader) == RECORD_HEADER
        return [
            (int(r[0]), *(None if v == "" else float(v) for v in r[1:]))
            for r in reader
        ]


class TestTrainingRecordCsv:
    def test_round_trip(self, tmp_path):
        dataset, instances = blob_bags(n=30)
        _, record = train(
            dataset, quick_config("mle", max_epochs=3), eval_instances=instances
        )
        path = tmp_path / "curve.csv"
        record.write_csv(path)
        assert read_curve(path) == [
            (r.epoch, r.loss, r.log_likelihood, r.test_accuracy, r.seconds)
            for r in record.rows
        ]

    def test_bytes_match_csv_writer(self, tmp_path):
        record = TrainingRecord(
            [
                EpochRow(1, 0.1, None, None, 0.5),
                EpochRow(2, 1 / 3, -3.5, 0.75, 1e-9),
                EpochRow(10, 2.0, float("-inf"), 1.0, 3.0),
            ]
        )
        record.write_csv(tmp_path / "new.csv")
        with open(tmp_path / "ref.csv", "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(RECORD_HEADER)
            for r in record.rows:
                writer.writerow(
                    [r.epoch, repr(r.loss)]
                    + ["" if v is None else repr(v) for v in (r.log_likelihood, r.test_accuracy)]
                    + [repr(r.seconds)]
                )
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    def test_blank_columns_round_trip(self, tmp_path):
        dataset, _ = blob_bags(n=30)
        _, record = train(dataset, quick_config("dllp", max_epochs=3))
        path = tmp_path / "curve.csv"
        record.write_csv(path)
        rows = read_curve(path)
        assert len(rows) == len(record.rows)
        assert all(row[2] is None and row[3] is None for row in rows)


class TestConfigValidation:
    def test_rejects_unknown_method(self):
        with pytest.raises(UsageError):
            TrainConfig(method="gan")

    def test_rejects_bad_fields(self):
        with pytest.raises(UsageError):
            TrainConfig(method="mle", max_epochs=0)
        with pytest.raises(UsageError):
            TrainConfig(method="mle", batch_size=0)
        with pytest.raises(UsageError):
            TrainConfig(method="mle", patience=0)
        with pytest.raises(UsageError):
            TrainConfig(method="mle", threshold=1.5)
        for lr in (0.0, -1e-3, float("nan"), float("inf")):
            with pytest.raises(UsageError, match="learning_rate"):
                TrainConfig(method="mle", learning_rate=lr)
        for tol in (-1e-5, float("nan"), float("inf")):
            with pytest.raises(UsageError, match="rel_tol"):
                TrainConfig(method="mle", rel_tol=tol)
        for widths in ((0,), (32, 0), (-3,)):
            with pytest.raises(UsageError, match="hidden layer widths"):
                TrainConfig(method="mle", hidden_widths=widths)
        with pytest.raises(UsageError, match="seed"):
            TrainConfig(method="mle", seed=-1)

    def test_no_hidden_layer_is_valid(self):
        assert TrainConfig(method="mle", hidden_widths=()).hidden_widths == ()
