"""Tests for CSV ingestion, bagging, fold assignment, and synthetic data."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from llpkit.data import (
    BagDataset,
    Instances,
    SyntheticSpec,
    assign_folds,
    generate_synthetic,
    load_bags_csv,
    load_instances_csv,
    make_bags,
    save_bags_csv,
    save_instances_csv,
)
from llpkit.errors import FormatError, UsageError


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


class TestInstanceCsv:
    def test_labeled_rows(self, tmp_path):
        path = write(
            tmp_path / "data.csv",
            "f0,f1,label\n0.5,1.5,1\n-1.0,2.0,0\n3.25,-0.5,1\n",
        )
        instances = load_instances_csv(path)
        assert len(instances) == 3
        assert instances.dim == 2
        assert instances.labels.tolist() == [1, 0, 1]
        np.testing.assert_array_equal(instances.features[0], [0.5, 1.5])

    def test_unlabeled_rows(self, tmp_path):
        path = write(tmp_path / "data.csv", "f0,f1\n0.5,1.5\n-1.0,2.0\n3.0,4.0\n")
        instances = load_instances_csv(path)
        assert len(instances) == 3
        assert instances.labels is None

    def test_nan_feature_rejected(self, tmp_path):
        path = write(tmp_path / "data.csv", "f0,f1\n0.5,1.0\n\n0.5,NaN\n")
        with pytest.raises(FormatError, match="line 4, column 2: 'NaN'"):
            load_instances_csv(path)

    def test_empty_file_rejected(self, tmp_path):
        path = write(tmp_path / "data.csv", "")
        with pytest.raises(FormatError):
            load_instances_csv(path)

    def test_header_only_rejected(self, tmp_path):
        path = write(tmp_path / "data.csv", "f0,f1\n")
        with pytest.raises(FormatError):
            load_instances_csv(path)

    def test_ragged_row_rejected(self, tmp_path):
        path = write(tmp_path / "data.csv", "f0,f1\n1.0,2.0\n1.0\n")
        with pytest.raises(FormatError):
            load_instances_csv(path)

    def test_bad_header_rejected(self, tmp_path):
        path = write(tmp_path / "data.csv", "x,y\n1.0,2.0\n")
        with pytest.raises(FormatError):
            load_instances_csv(path)

    def test_bad_label_rejected(self, tmp_path):
        path = write(tmp_path / "data.csv", "f0,label\n1.0,2\n")
        with pytest.raises(FormatError):
            load_instances_csv(path)

    def test_round_trip_preserves_values(self, tmp_path):
        spec = SyntheticSpec(50, 3, 2.0, 0.4, seed=5)
        instances = generate_synthetic(spec)
        path = tmp_path / "out.csv"
        save_instances_csv(path, instances)
        loaded = load_instances_csv(path)
        assert len(loaded) == 50
        assert instances.features.tobytes() == loaded.features.tobytes()
        np.testing.assert_array_equal(instances.labels, loaded.labels)


class TestGenerateSynthetic:
    def test_positive_count_concentrates(self):
        spec = SyntheticSpec(1000, 2, 4.0, 0.5, seed=7)
        instances = generate_synthetic(spec)
        assert abs(instances.labels.sum() - 500) < 80

    def test_bit_identical_for_same_spec(self):
        spec = SyntheticSpec(100, 3, 1.0, 0.3, seed=11)
        a = generate_synthetic(spec)
        b = generate_synthetic(spec)
        assert a.features.tobytes() == b.features.tobytes()
        assert a.labels.tobytes() == b.labels.tobytes()

    def test_wide_separation_is_linearly_separable(self):
        # The midpoint hyperplane along the first axis is a linear
        # separator; misclassification needs a 5-sigma deviation.
        spec = SyntheticSpec(2000, 2, 10.0, 0.5, seed=13)
        instances = generate_synthetic(spec)
        correct = (instances.features[:, 0] > 5.0) == instances.labels
        assert correct.mean() > 0.99

    def test_zero_separation_classes_overlap(self):
        spec = SyntheticSpec(2000, 2, 0.0, 0.5, seed=17)
        instances = generate_synthetic(spec)
        # With identical class distributions no separator can beat the
        # prior by much; the midpoint rule should hover near chance.
        correct = (instances.features[:, 0] > 0.0) == instances.labels
        assert abs(correct.mean() - 0.5) < 0.05

    def test_spec_validation(self):
        with pytest.raises(UsageError):
            SyntheticSpec(1, 2, 1.0, 0.5, seed=0)
        with pytest.raises(UsageError):
            SyntheticSpec(10, 2, -1.0, 0.5, seed=0)
        with pytest.raises(UsageError):
            SyntheticSpec(10, 2, 1.0, 1.0, seed=0)


def bag_ids(dataset):
    """Instance ids of each bag, as tuples."""
    ids = dataset.instance_ids.tolist()
    return [tuple(ids[lo:hi]) for lo, hi in zip(dataset.offsets[:-1], dataset.offsets[1:])]


class TestMakeBags:
    def labeled(self, n, d=2, seed=0):
        rng = np.random.default_rng(seed)
        return Instances(rng.standard_normal((n, d)), rng.integers(0, 2, size=n))

    def test_forced_sizes(self):
        dataset = make_bags(self.labeled(10), 2, 2, seed=1)
        assert dataset.num_bags == 5
        assert (dataset.sizes == 2).all()
        assert sorted(dataset.instance_ids.tolist()) == list(range(10))

    def test_all_positive_bag(self):
        instances = Instances(np.zeros((4, 2)), np.ones(4, dtype=int))
        dataset = make_bags(instances, 4, 4, seed=2)
        assert dataset.num_bags == 1
        assert dataset.counts[0] == 4

    def test_seeds_change_partition_not_membership(self):
        instances = self.labeled(100, seed=3)
        a = make_bags(instances, 1, 12, seed=10)
        b = make_bags(instances, 1, 12, seed=11)
        ids_a = sorted(a.instance_ids.tolist())
        ids_b = sorted(b.instance_ids.tolist())
        assert ids_a == ids_b == list(range(100))
        partition_a = sorted(tuple(sorted(bag)) for bag in bag_ids(a))
        partition_b = sorted(tuple(sorted(bag)) for bag in bag_ids(b))
        assert partition_a != partition_b

    def test_counts_match_labels(self):
        instances = self.labeled(60, seed=4)
        dataset = make_bags(instances, 1, 7, seed=5)
        # Each row is the input instance its id names.
        ids = dataset.instance_ids
        np.testing.assert_array_equal(dataset.instances.features, instances.features[ids])
        np.testing.assert_array_equal(dataset.instances.labels, instances.labels[ids])
        for bag, y in zip(bag_ids(dataset), dataset.counts):
            assert y == instances.labels[list(bag)].sum()

    def test_unlabeled_instance_rejected(self):
        instances = Instances(self.labeled(5).features)
        with pytest.raises(UsageError):
            make_bags(instances, 1, 2, seed=0)

    def test_size_bounds_validated(self):
        with pytest.raises(UsageError):
            make_bags(self.labeled(5), 0, 2, seed=0)
        with pytest.raises(UsageError):
            make_bags(self.labeled(5), 3, 2, seed=0)
        with pytest.raises(UsageError):
            make_bags(self.labeled(5), 1, 6, seed=0)

    def test_deterministic(self):
        instances = self.labeled(40, seed=6)
        a = make_bags(instances, 1, 6, seed=9)
        b = make_bags(instances, 1, 6, seed=9)
        assert bag_ids(a) == bag_ids(b)

    @given(
        st.integers(min_value=5, max_value=60),
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=0, max_value=6),
        st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=40, deadline=None)
    def test_partition_properties(self, n, min_size, extra, seed):
        max_size = min(min_size + extra, n)
        min_size = min(min_size, max_size)
        instances = self.labeled(n, seed=seed)
        dataset = make_bags(instances, min_size, max_size, seed=seed)
        ids = dataset.instance_ids.tolist()
        # No instance reused, sizes inside bounds, leftovers below min_size.
        assert len(ids) == len(set(ids))
        assert all(min_size <= size <= max_size for size in dataset.sizes)
        assert n - len(ids) < min_size
        for bag, y in zip(bag_ids(dataset), dataset.counts):
            assert y == instances.labels[list(bag)].sum()


class TestAssignFolds:
    def bagged(self, m):
        return make_bags(Instances(np.zeros((m, 2)), np.arange(m) % 2), 1, 1, seed=0)

    def test_one_bag_per_fold(self):
        dataset = assign_folds(self.bagged(10), 10, seed=1)
        sizes = [0] * 10
        for fold in dataset.fold_assignment.values():
            sizes[fold] += 1
        assert sizes == [1] * 10

    def test_balanced_split(self):
        dataset = assign_folds(self.bagged(23), 10, seed=2)
        sizes = [0] * 10
        for fold in dataset.fold_assignment.values():
            sizes[fold] += 1
        assert sorted(sizes) == [2] * 7 + [3] * 3

    def test_deterministic(self):
        a = assign_folds(self.bagged(15), 4, seed=3)
        b = assign_folds(self.bagged(15), 4, seed=3)
        assert a.fold_assignment == b.fold_assignment

    def test_too_few_bags(self):
        with pytest.raises(UsageError):
            assign_folds(self.bagged(5), 10, seed=0)
        with pytest.raises(UsageError):
            assign_folds(self.bagged(5), 1, seed=0)


class TestBagCsv:
    def test_round_trip(self, tmp_path):
        instances = generate_synthetic(SyntheticSpec(30, 3, 2.0, 0.5, seed=21))
        dataset = make_bags(instances, 1, 5, seed=4)
        path = tmp_path / "bags.csv"
        save_bags_csv(path, dataset)
        loaded = load_bags_csv(path)
        assert loaded.num_bags == dataset.num_bags
        assert loaded.feature_dim == 3
        np.testing.assert_array_equal(loaded.offsets, dataset.offsets)
        np.testing.assert_array_equal(loaded.counts, dataset.counts)
        np.testing.assert_array_equal(loaded.instance_ids, dataset.instance_ids)
        assert loaded.instances.features.tobytes() == dataset.instances.features.tobytes()
        np.testing.assert_array_equal(loaded.instances.labels, dataset.instances.labels)

    def test_single_feature_round_trip(self, tmp_path):
        instances = generate_synthetic(SyntheticSpec(12, 1, 2.0, 0.5, seed=22))
        dataset = make_bags(instances, 2, 3, seed=5)
        path = tmp_path / "bags.csv"
        save_bags_csv(path, dataset)
        loaded = load_bags_csv(path)
        assert loaded.feature_dim == 1
        np.testing.assert_array_equal(loaded.instances.labels, dataset.instances.labels)

    def test_unlabeled_round_trip(self, tmp_path):
        instances = generate_synthetic(SyntheticSpec(20, 2, 2.0, 0.5, seed=23))
        dataset = make_bags(instances, 2, 4, seed=6).strip_labels()
        path = tmp_path / "bags.csv"
        save_bags_csv(path, dataset)
        loaded = load_bags_csv(path)
        assert loaded.instances.labels is None
        np.testing.assert_array_equal(loaded.offsets, dataset.offsets)
        np.testing.assert_array_equal(loaded.counts, dataset.counts)
        assert loaded.instances.features.tobytes() == dataset.instances.features.tobytes()

    def test_truncated_file_rejected(self, tmp_path):
        path = write(
            tmp_path / "bags.csv",
            "bag_id,y,n\n0,1,2\n0,0,1.0,0.5,1\n",
        )
        with pytest.raises(FormatError):
            load_bags_csv(path)

    def test_bad_header_rejected(self, tmp_path):
        path = write(tmp_path / "bags.csv", "a,b,c\n")
        with pytest.raises(FormatError):
            load_bags_csv(path)

    def test_inconsistent_count_rejected(self, tmp_path):
        path = write(tmp_path / "bags.csv", "bag_id,y,n\n0,3,2\n0,0,1.0\n0,1,2.0\n")
        with pytest.raises(FormatError):
            load_bags_csv(path)


    def test_resave_is_byte_identical(self, tmp_path):
        instances = generate_synthetic(SyntheticSpec(40, 2, 2.0, 0.5, seed=24))
        path = tmp_path / "bags.csv"
        save_bags_csv(path, make_bags(instances, 1, 5, seed=7))
        save_bags_csv(tmp_path / "resaved.csv", load_bags_csv(path))
        assert (tmp_path / "resaved.csv").read_bytes() == path.read_bytes()

    @pytest.mark.parametrize(
        "text,where",
        [
            # A NaN feature in bag 1, on file line 5 (column 4 is f1).
            ("0,1,1\n0,0,1.0,0.5,1\n1,0,1\n1,1,2.0,nan,0\n", "line 5, column 4: 'nan'"),
            # A blank line shifts the file line but not the bag.
            ("0,1,1\n0,0,1.0,0.5,1\n\n1,0,1\n1,1,2.0,x,0\n", "line 6, column 4: 'x'"),
            ("0,1,1\n0,seven,1.0,0.5,1\n", "line 3, column 2: 'seven' is not an integer"),
            ("0,1,1\n0,0,1.0,0.5,1\n1,zero,1\n1,1,2.0,0.5,0\n", "line 4: expected bag summary"),
        ],
    )
    def test_parse_errors_name_line_and_column(self, tmp_path, text, where):
        path = write(tmp_path / "bags.csv", "bag_id,y,n\n" + text)
        with pytest.raises(FormatError, match=where) as exc:
            load_bags_csv(path)
        assert str(exc.value).startswith(f"{path}: ")

    def test_values_parse_as_python_float(self, tmp_path):
        cells = ["0.1", "1e-310", " 2.5", "1_0", "-0.0", "1.7976931348623157e308"]
        rows = "".join(f"0,{i},{c},3.0\n" for i, c in enumerate(cells))
        path = write(tmp_path / "bags.csv", f"bag_id,y,n\n0,0,{len(cells)}\n" + rows)
        features = load_bags_csv(path).instances.features[:, 0]
        assert features.tobytes() == np.array([float(c) for c in cells]).tobytes()


class TestDomainTypes:
    def test_bag_invariants(self):
        instances = Instances(np.zeros((2, 2)))
        with pytest.raises(UsageError):
            BagDataset(instances, [0, 0, 2], [0, 0])  # an empty bag
        with pytest.raises(UsageError):
            BagDataset(instances, [0, 1, 2], [0, 2])  # count above size
        with pytest.raises(UsageError):
            BagDataset(instances, [0], [])  # no bag

    def test_instance_invariants(self):
        with pytest.raises(UsageError):
            Instances(np.array([[np.inf, 0.0]]))
        with pytest.raises(UsageError):
            Instances(np.zeros((1, 2)), labels=[3])
        with pytest.raises(UsageError):
            Instances(np.zeros((2, 2)), labels=[0])
        with pytest.raises(UsageError):
            Instances(np.zeros(2))

    def test_dataset_requires_consistent_dims(self):
        # The bags must cover the instance rows exactly.
        instances = Instances(np.zeros((3, 2)), np.zeros(3, dtype=int))
        with pytest.raises(UsageError):
            BagDataset(instances, [0, 2], [0])
        with pytest.raises(UsageError):
            BagDataset(instances, [0, 2, 3], [0, 0], instance_ids=[0, 1])

    def test_strip_labels_hides_ground_truth(self):
        instances = Instances(np.array([[0.0, 0.0], [1.0, 1.0]]), [1, 0])
        dataset = make_bags(instances, 1, 1, seed=0).strip_labels()
        assert dataset.instances.labels is None
        # Counts survive: they are the supervision, not the labels.
        assert dataset.counts.sum() == 1

    def test_fold_split_is_index_arithmetic(self):
        instances = generate_synthetic(SyntheticSpec(50, 2, 2.0, 0.5, seed=25))
        dataset = assign_folds(make_bags(instances, 1, 6, seed=8), 3, seed=1)
        starts, ends = dataset.offsets[:-1], dataset.offsets[1:]
        for fold in dataset.folds():
            train_set, held = dataset.fold_split(fold)
            mine = [j for j in range(dataset.num_bags) if dataset.fold_assignment[j] == fold]
            rest = [j for j in range(dataset.num_bags) if dataset.fold_assignment[j] != fold]
            held_rows = np.concatenate([np.arange(starts[j], ends[j]) for j in mine])
            train_rows = np.concatenate([np.arange(starts[j], ends[j]) for j in rest])
            features = dataset.instances.features
            np.testing.assert_array_equal(held.features, features[held_rows])
            np.testing.assert_array_equal(held.labels, dataset.instances.labels[held_rows])
            np.testing.assert_array_equal(train_set.instances.features, features[train_rows])
            np.testing.assert_array_equal(train_set.counts, dataset.counts[rest])
            np.testing.assert_array_equal(train_set.sizes, dataset.sizes[rest])
            np.testing.assert_array_equal(
                train_set.instance_ids, dataset.instance_ids[train_rows]
            )
