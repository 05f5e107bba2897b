"""Tests for CSV ingestion, bagging, fold assignment, and synthetic data."""

import codecs
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helpers import csv_write_bags, csv_write_instances, make_bags_loop, strip_labels
from llpkit import data, files
from llpkit.data import (
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
        instances = generate_synthetic(50, 3, 2.0, 0.4, seed=5)
        path = tmp_path / "out.csv"
        save_instances_csv(path, instances)
        loaded = load_instances_csv(path)
        assert len(loaded) == 50
        assert instances.features.tobytes() == loaded.features.tobytes()
        np.testing.assert_array_equal(instances.labels, loaded.labels)


class TestGenerateSynthetic:
    def test_positive_count_concentrates(self):
        instances = generate_synthetic(1000, 2, 4.0, 0.5, seed=7)
        assert abs(instances.labels.sum() - 500) < 80

    def test_bit_identical_for_same_spec(self):
        a = generate_synthetic(100, 3, 1.0, 0.3, seed=11)
        b = generate_synthetic(100, 3, 1.0, 0.3, seed=11)
        assert a.features.tobytes() == b.features.tobytes()
        assert a.labels.tobytes() == b.labels.tobytes()

    def test_wide_separation_is_linearly_separable(self):
        # The midpoint hyperplane along the first axis is a linear
        # separator; misclassification needs a 5-sigma deviation.
        instances = generate_synthetic(2000, 2, 10.0, 0.5, seed=13)
        correct = (instances.features[:, 0] > 5.0) == instances.labels
        assert correct.mean() > 0.99

    def test_zero_separation_classes_overlap(self):
        instances = generate_synthetic(2000, 2, 0.0, 0.5, seed=17)
        # With identical class distributions no separator can beat the
        # prior by much; the midpoint rule should hover near chance.
        correct = (instances.features[:, 0] > 0.0) == instances.labels
        assert abs(correct.mean() - 0.5) < 0.05

    def test_spec_validation(self):
        with pytest.raises(UsageError):
            generate_synthetic(1, 2, 1.0, 0.5, seed=0)
        for separation in (-1.0, float("nan"), float("inf")):
            with pytest.raises(UsageError, match="class separation"):
                generate_synthetic(10, 2, separation, 0.5, seed=0)
        with pytest.raises(UsageError, match="feature dimension must be positive"):
            generate_synthetic(10, 0, 1.0, 0.5, seed=0)
        with pytest.raises(UsageError):
            generate_synthetic(10, 2, 1.0, 1.0, seed=0)
        with pytest.raises(UsageError, match="number of instances must be a whole number"):
            generate_synthetic(10.5, 2, 1.0, 0.5, seed=0)
        with pytest.raises(UsageError, match="feature dimension must be a whole number"):
            generate_synthetic(10, None, 1.0, 0.5, seed=0)
        with pytest.raises(UsageError, match="seed must be a whole number"):
            generate_synthetic(10, 2, 1.0, 0.5, seed="1")


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
        with pytest.raises(UsageError, match="no instances to bag"):
            make_bags(Instances(np.zeros((0, 2)), []), 1, 2, seed=0)

    def test_size_bounds_validated(self):
        with pytest.raises(UsageError):
            make_bags(self.labeled(5), 0, 2, seed=0)
        with pytest.raises(UsageError):
            make_bags(self.labeled(5), 3, 2, seed=0)
        with pytest.raises(UsageError):
            make_bags(self.labeled(5), 1, 6, seed=0)
        with pytest.raises(UsageError, match="min_size must be a whole number"):
            make_bags(self.labeled(5), 2.5, 4, seed=0)
        with pytest.raises(UsageError, match="max_size must be a whole number"):
            make_bags(self.labeled(5), 1, "4", seed=0)
        with pytest.raises(UsageError, match="seed must be a whole number"):
            make_bags(self.labeled(5), 1, 4, seed=1.5)
        whole = make_bags(self.labeled(5), 2.0, np.int32(3), seed=np.uint8(4))
        self.assert_same_bags(whole, make_bags(self.labeled(5), 2, 3, seed=4))

    def test_deterministic(self):
        instances = self.labeled(40, seed=6)
        a = make_bags(instances, 1, 6, seed=9)
        b = make_bags(instances, 1, 6, seed=9)
        assert bag_ids(a) == bag_ids(b)

    SIZE_RANGES = [(1, 8), (2, 4), (16, 64), (3, 3), (1, 1)]

    @staticmethod
    def assert_same_bags(got, want):
        for name in ("offsets", "instance_ids", "counts"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name

    @pytest.mark.parametrize("min_size,max_size", SIZE_RANGES)
    def test_one_call_draw_matches_draw_per_bag(self, min_size, max_size):
        """All sizes come from one draw, and give the bags that one draw
        per bag gave; a range wider than n is cut to n."""
        instances = self.labeled(300, seed=7)
        for n in range(1, 301):
            hi = min(max_size, n)
            lo = min(min_size, hi)
            part = instances.take(np.arange(n))
            want = make_bags_loop(part, lo, hi, seed=n)
            self.assert_same_bags(make_bags(part, lo, hi, seed=n), want)

    @pytest.mark.parametrize("min_size,max_size", SIZE_RANGES)
    def test_one_call_draw_matches_draw_per_bag_at_scale(self, min_size, max_size):
        instances = self.labeled(100_000, seed=8)
        got = make_bags(instances, min_size, max_size, seed=11)
        self.assert_same_bags(got, make_bags_loop(instances, min_size, max_size, seed=11))

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
        with pytest.raises(UsageError, match="seed must be nonnegative"):
            assign_folds(self.bagged(5), 2, seed=-1)
        with pytest.raises(UsageError, match="number of folds must be a whole number"):
            assign_folds(self.bagged(5), 2.5, seed=0)
        with pytest.raises(UsageError, match="seed must be a whole number"):
            assign_folds(self.bagged(5), 2, seed=float("nan"))
        whole = assign_folds(self.bagged(5), 2.0, seed=np.int64(0))
        assert whole.fold_assignment == assign_folds(self.bagged(5), 2, seed=0).fold_assignment


class TestBagCsv:
    def test_round_trip(self, tmp_path):
        instances = generate_synthetic(30, 3, 2.0, 0.5, seed=21)
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
        instances = generate_synthetic(12, 1, 2.0, 0.5, seed=22)
        dataset = make_bags(instances, 2, 3, seed=5)
        path = tmp_path / "bags.csv"
        save_bags_csv(path, dataset)
        loaded = load_bags_csv(path)
        assert loaded.feature_dim == 1
        np.testing.assert_array_equal(loaded.instances.labels, dataset.instances.labels)

    def test_unlabeled_round_trip(self, tmp_path):
        instances = generate_synthetic(20, 2, 2.0, 0.5, seed=23)
        dataset = strip_labels(make_bags(instances, 2, 4, seed=6))
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
        instances = generate_synthetic(40, 2, 2.0, 0.5, seed=24)
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


class TestByteOrderMark:
    """Spreadsheets save "CSV UTF-8" with a leading byte-order mark; it is
    not part of the first header name."""

    def with_bom(self, path):
        marked = path.with_name("bom_" + path.name)
        marked.write_bytes(codecs.BOM_UTF8 + path.read_bytes())
        return marked

    def test_instance_csv_loads_as_plain(self, tmp_path):
        path = tmp_path / "data.csv"
        save_instances_csv(path, generate_synthetic(20, 2, 2.0, 0.5, seed=3))
        plain, marked = load_instances_csv(path), load_instances_csv(self.with_bom(path))
        assert marked.features.tobytes() == plain.features.tobytes()
        np.testing.assert_array_equal(marked.labels, plain.labels)

    def test_bag_csv_loads_as_plain(self, tmp_path):
        instances = generate_synthetic(30, 2, 2.0, 0.5, seed=4)
        path = tmp_path / "bags.csv"
        save_bags_csv(path, make_bags(instances, 1, 5, seed=6))
        plain, marked = load_bags_csv(path), load_bags_csv(self.with_bom(path))
        for name in ("offsets", "counts", "instance_ids"):
            np.testing.assert_array_equal(getattr(marked, name), getattr(plain, name))
        assert marked.instances.features.tobytes() == plain.instances.features.tobytes()
        np.testing.assert_array_equal(marked.instances.labels, plain.instances.labels)

    def test_parse_errors_name_line_and_column(self, tmp_path):
        path = write(tmp_path / "data.csv", "\ufefff0,f1\n0.5,1.0\n\n0.5,NaN\n")
        with pytest.raises(FormatError, match="line 4, column 2: 'NaN'"):
            load_instances_csv(path)
        text = "\ufeffbag_id,y,n\n0,1,1\n0,0,1.0,0.5,1\n1,0,1\n1,1,2.0,nan,0\n"
        path = write(tmp_path / "bags.csv", text)
        with pytest.raises(FormatError, match="line 5, column 4: 'nan'"):
            load_bags_csv(path)


# Cells on both sides of every known difference between numpy's C reader
# and float()/int() on csv.reader cells: underscores, Unicode digits and
# spaces, quotes, padding, comment marks, the characters str.splitlines()
# breaks lines at and csv.reader does not, ids beyond int64, and labels
# that are 0/1 in value but not in text.
TRICKY_CELLS = [
    "1_0", "\u0661\u0662", "\u0661.5", '"1.5"', '"0"', '"1"', " 2.5", "2.5 ", "\t3", "3\t",
    "#4", "1.0", "0.0", "0", "1", " 1", "1 ", "+1", "01", "", " ", "nan", "inf", "-inf",
    "1e400", "5e-324", "-0.0", "1.7976931348623157e308", "0.1", "99999999999999999999",
    "9223372036854775807", "-9223372036854775808", "9223372036854775808", "+7", "007",
    "0x1f", "1.5\x0c", "\x0c1.5", "1\x0c2", "\x1c1.5", "1.5\x1d", "1\x1e2", "1.5\x1f",
    "1.5\x0b", "\xa01.5", "1.5\x85", "1\u20282", "\u2029", "1\x002", "abc", "1,5",
]
cells = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-3, 3).map(str),
    st.sampled_from(TRICKY_CELLS),
    st.text(st.sampled_from('01.e-+_ \t"#\x0c\x1c\u0661,'), max_size=4),
)


@st.composite
def _rarely(draw, common, rare, one_in):
    """Mostly ``common``, ``rare`` once in ``one_in`` draws: most files are
    valid and take numpy's reader, the rest probe its edges."""
    return draw(rare if draw(st.integers(1, one_in)) == one_in else common)


feature_cells = _rarely(st.floats(allow_nan=False, allow_infinity=False).map(repr), cells, 16)
label_cells = _rarely(st.sampled_from(["0", "1"]), cells, 12)
id_cells = _rarely(st.integers(0, 2**63 - 1).map(str), cells, 12)
line_ends = st.sampled_from(["\n", "\r\n", "\r"])
# Lines that are not rows: blank, or looking blank or commented.
stray_lines = _rarely(
    st.just([]),
    st.lists(_rarely(st.just(""), st.sampled_from(["#", "# f0", " ", "\t", "\x0c", "\x1c"]), 4),
             min_size=1, max_size=2),
    6,
)


@st.composite
def _file_text(draw, lines):
    """``lines`` with stray lines mixed in, each ended by a drawn line end
    (the last one possibly by none)."""
    text = []
    for line in lines:
        text += [stray + draw(line_ends) for stray in draw(stray_lines)]
        text.append(line + draw(line_ends))
    if draw(st.booleans()):
        text[-1] = lines[-1]
    return "".join(text)


@st.composite
def instance_csv_text(draw):
    dim = draw(st.integers(1, 3))
    has_label = draw(st.booleans())
    header = [f"f{i}" for i in range(dim)] + ["label"] * has_label
    lines = [",".join(header)]
    for _ in range(draw(st.integers(0, 5))):
        row = [draw(feature_cells) for _ in range(dim)]
        row += [draw(label_cells)] * has_label
        row = draw(_rarely(st.just(row), st.sampled_from([row[:-1], row + row[-1:]]), 30))
        lines.append(",".join(row))
    return draw(_file_text(lines))


@st.composite
def bag_csv_text(draw):
    dim = draw(st.integers(1, 2))
    labeled = draw(st.booleans())
    with_ids = draw(_rarely(st.just(True), st.just(False), 4))
    lines = ["bag_id,y,n"]
    for j in range(draw(st.integers(1, 3))):
        n = draw(st.integers(1, 3))
        rows, ones = [], 0
        for _ in range(n):
            bag_cell = draw(_rarely(st.just(str(j)), cells, 40))
            row = [bag_cell, draw(id_cells) if with_ids else ""]
            row += [draw(feature_cells) for _ in range(dim)]
            if labeled:
                row.append(draw(label_cells))
                ones += row[-1].strip(' "') in ("1", "1.0", "+1", "01")
            rows.append(",".join(draw(_rarely(st.just(row), st.just(row[:-1]), 40))))
        summary = [str(j), str(ones if labeled else draw(st.integers(0, n))), str(n)]
        summary[0] = draw(_rarely(st.just(summary[0]), cells, 20))
        lines += [",".join(summary)] + rows
    return draw(_file_text(lines))


def _outcome(load, path):
    try:
        return load(path)
    except FormatError as exc:
        return str(exc)


def _assert_same(got, want):
    """Both raised FormatError with one message, or both loaded the same
    arrays bit for bit."""
    assert type(got) is type(want), (got, want)
    if isinstance(want, str):
        assert got == want
        return
    if isinstance(want, BagDataset):
        for name in ("offsets", "counts", "instance_ids"):
            a, b = getattr(got, name), getattr(want, name)
            assert (a is None) == (b is None)
            if b is not None:
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
        got, want = got.instances, want.instances
    assert got.features.shape == want.features.shape
    assert got.features.tobytes() == want.features.tobytes()
    assert (got.labels is None) == (want.labels is None)
    if want.labels is not None:
        assert got.labels.tobytes() == want.labels.tobytes()


def _compare(load, oracle, text: str, bom: bool):
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "data.csv"
        path.write_bytes((codecs.BOM_UTF8 if bom else b"") + text.encode("utf-8"))
        _assert_same(_outcome(load, path), _outcome(oracle, path))


@pytest.mark.filterwarnings("ignore::DeprecationWarning")
class TestCsvDifferential:
    """The readers against their exact csv.reader parse, the fallback
    ``data._load_csv_*``: on every file, the same arrays bit for bit or the
    same FormatError message.  Deprecation warnings are ignored, as they are
    outside the tests."""

    @given(instance_csv_text(), st.booleans())
    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_instance_csv(self, text, bom):
        _compare(load_instances_csv, data._load_csv_instances, text, bom)

    @given(bag_csv_text(), st.booleans())
    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_bag_csv(self, text, bom):
        _compare(load_bags_csv, data._load_csv_bags, text, bom)

    @pytest.mark.parametrize(
        "text",
        [
            # str.splitlines() breaks these lines at \x0c, \x1c and \u2028;
            # csv.reader does not, so each has 3 columns and is rejected.
            "f0,f1\n1.0,2.0\x0c3.0,4.0\n",
            "f0,f1\n1.0,2.0\x1c3.0,4.0\n",
            "f0,f1\n1.0,2.0\u20283.0,4.0\n",
            # float() does not strip \x1c-\x1f from ASCII text; loadtxt would.
            "f0,f1\n1.0,\x1c2.0\n",
            # loadtxt would skip neither, and "#" starts no comment.
            "f0,f1\n#1.0,2.0\n",
            "f0,f1\n1.0,2.0\n \n",
            # Python's float() reads these; numpy's reader does not.
            "f0,f1\n1_0,2.0\n",
            "f0,f1\n\u0661,2.0\n",
            'f0,f1\n"1.5",2.0\n',
            # Lone CR line ends around a blank line.
            "f0,f1\r1.0,2.0\r\r3.0,4.0\r",
            # A cell past csv.reader's field size limit, which float() reads.
            pytest.param(f"f0,f1\n{'0' * 200_000}1.5,2.0\n", id="over-field-limit"),
        ],
    )
    def test_edge_cases(self, text):
        _compare(load_instances_csv, data._load_csv_instances, text, bom=False)

    @pytest.mark.parametrize(
        "text",
        [
            # The trailing column is 0/1 and sums to y, so it reads as labels.
            "bag_id,y,n\n0,1,1\n0,7,1\n",
            # An instance row with an id and nothing after it.
            "bag_id,y,n\n0,0,1\n0,7\n",
            # An instance row of its bag id alone.
            "bag_id,y,n\n0,0,1\n0\n",
        ],
    )
    def test_bag_rows_without_a_feature(self, tmp_path, text):
        path = write(tmp_path / "bags.csv", text)
        for load in (load_bags_csv, data._load_csv_bags):
            with pytest.raises(FormatError, match="instance rows need at least one feature"):
                load(path)

    @pytest.mark.parametrize(
        "text,where",
        [
            (
                "bag_id,y,n\n0,1,2\n0,0,0.5,1\nabc,1,1.5,0\n1,0,1\n9,2,2.5,0\n",
                "line 4, column 1: bag_id 'abc' is not 0",
            ),
            # n = 3 miscounts bag 0, so bag 1's summary reads as its row.
            ("bag_id,y,n\n0,0,3\n0,5,1\n1,0,1\n1,7,2\n", "line 4, column 1: bag_id '1' is not 0"),
        ],
    )
    def test_instance_row_of_another_bag(self, tmp_path, text, where):
        path = write(tmp_path / "bags.csv", text)
        for load in (load_bags_csv, data._load_csv_bags):
            with pytest.raises(FormatError) as exc:
                load(path)
            assert str(exc.value) == f"{path}: {where}, the id of its bag summary"

    @pytest.mark.parametrize("text", ["bag_id,y,n\n", "bag_id,y,n\r\n\r\n", "bag_id,y,n"])
    def test_header_only_bag_file(self, tmp_path, text):
        path = write(tmp_path / "bags.csv", text)
        for load in (load_bags_csv, data._load_csv_bags):
            with pytest.raises(FormatError) as exc:
                load(path)
            assert str(exc.value) == f"{path}: no bags"

    @pytest.mark.parametrize(
        "text,message",
        [
            # Bag 1's y is bad and bag 2 runs past the end; bag 1 comes first.
            ("0,1,1\n0,5,1.0,1\n1,3,1\n1,6,2.0,0\n2,0,5\n2,7,3.0,0\n",
             "bag 1: invalid counts y=3, n=1"),
            ("0,1,1\n0,5,1.0,1\n2,0,5\n2,7,3.0,0\n", "bag 2: file ends mid-bag"),
            ("0,1,1\n0,5,1.0,1\n1,0\n1,6,2.0,0\n",
             "line 4: expected bag summary bag_id,y,n of integers"),
            ("0,1,1,1\n0,5,1.0,1\n", "line 2: expected bag summary bag_id,y,n of integers"),
            ("0,1,1\n0,5,1.0,1\n1,0,1,1\n1,6,2.0,0\n",
             "line 4: expected bag summary bag_id,y,n of integers"),
            ("0,0,0\n0,5,1.0,1\n", "bag 0: invalid counts y=0, n=0"),
            # A bad n stops the walk, but bag 0's bad id is reported first.
            ("x,1,1\n0,5,1.0,1\n1,0,zero\n", "line 2: expected bag summary bag_id,y,n of integers"),
            # Blank lines shift the file line of a summary.
            ("\n0,1,1\n0,5,1.0,1\n\n\n1,0\n1,6,2.0,0\n",
             "line 7: expected bag summary bag_id,y,n of integers"),
        ],
    )
    def test_summary_faults(self, tmp_path, text, message):
        """The walk reads each summary's n alone, yet both parses name a
        file's first faulty summary, in file order, as before."""
        path = write(tmp_path / "bags.csv", "bag_id,y,n\n" + text)
        assert _outcome(data._load_csv_bags, path) == f"{path}: {message}"
        assert _outcome(load_bags_csv, path) == f"{path}: {message}"

    @pytest.mark.parametrize(
        "text,offsets,dim",
        [
            # Instance rows of 3 cells, as many as a summary: one feature.
            ("0,1,2\n0,5,1.5\n0,6,2.5\n1,0,1\n1,7,0.5\n", [0, 2, 3], 1),
            ("\n0,1,1\n\n0,5,1.0,1\n\n\n1,0,2\n1,6,2.0,0\n\n1,7,3.0,0\n\n", [0, 1, 3], 1),
        ],
        ids=["three-cell-rows", "blank-lines"],
    )
    def test_summary_walk_loads(self, tmp_path, text, offsets, dim):
        path = write(tmp_path / "bags.csv", "bag_id,y,n\n" + text)
        exact = data._load_csv_bags(path)
        assert exact.offsets.tolist() == offsets and exact.feature_dim == dim
        _assert_same(data._load_plain_bags(path), exact)
        _assert_same(load_bags_csv(path), exact)

    INEXACT_LABELS = ["1.0", "01", " 1", "1 ", "+1", "-0"]

    @pytest.mark.parametrize("label", INEXACT_LABELS)
    def test_inexact_instance_label(self, tmp_path, label):
        """numpy's reader reads each as 0 or 1; the fast path declines the
        file, and the exact parse rejects it."""
        path = write(tmp_path / "data.csv", f"f0,label\n0.5,1\n0.25,{label}\n")
        with pytest.raises(ValueError, match="a label is not 0 or 1"):
            data._load_plain_instances(path)
        message = f"{path}: line 3, column 2: label must be 0 or 1, got {label!r}"
        assert _outcome(data._load_csv_instances, path) == message
        assert _outcome(load_instances_csv, path) == message

    @pytest.mark.parametrize("label", INEXACT_LABELS)
    def test_inexact_bag_label(self, tmp_path, label):
        """Each bag sums to its y, but one cell is not exactly 0 or 1, so
        both parses load the column as a feature."""
        ones = float(label) == 1
        text = f"bag_id,y,n\n0,{1 + ones},2\n0,0,0.5,1\n0,1,0.25,{label}\n"
        path = write(tmp_path / "bags.csv", text)
        plain, exact = data._load_plain_bags(path), data._load_csv_bags(path)
        assert exact.instances.labels is None and exact.feature_dim == 2
        _assert_same(plain, exact)
        _assert_same(load_bags_csv(path), exact)

    @pytest.mark.parametrize(
        "text,load_plain,load_exact",
        [
            ("f0,label\r\n0.5,0\r\n\r\n0.25,1\r\n\r\n",
             data._load_plain_instances, data._load_csv_instances),
            ("bag_id,y,n\r\n0,1,2\r\n\r\n0,0,0.5,0\r\n0,1,0.25,1\r\n\r\n",
             data._load_plain_bags, data._load_csv_bags),
        ],
        ids=["instances", "bags"],
    )
    def test_labels_with_crlf_and_blank_lines(self, tmp_path, text, load_plain, load_exact):
        """The fast path reads the labels of such a file, as the exact
        parse does."""
        path = tmp_path / "data.csv"
        path.write_bytes(text.encode("ascii"))
        exact = load_exact(path)
        instances = exact if isinstance(exact, Instances) else exact.instances
        assert instances.labels.tolist() == [0, 1]
        _assert_same(load_plain(path), exact)

    @pytest.mark.parametrize(
        "rows",
        [
            "0,99999999999999999999,1.0,1\n",  # an id beyond int64
            "0,9223372036854775807,1.0,1\n",
            "0,+7,1.0,1\n",
            "0, 7 ,1.0,1\n",
            "0,1_0,1.0,1\n",
            "0,,1.0,1\n",  # no ids at all
            "0,1.0,1.0,1\n",
        ],
    )
    def test_instance_ids_as_int(self, rows):
        _compare(load_bags_csv, data._load_csv_bags, "bag_id,y,n\n0,1,1\n" + rows, bom=False)

    @pytest.mark.parametrize("id_text", ["1.0", "1e3", "nan", "99999999999999999999"])
    def test_float_ids_rejected_whatever_the_warning_filters(self, tmp_path, monkeypatch, id_text):
        """Older numpy releases read an int field's float text through a
        float, with only a DeprecationWarning; ignoring that warning must
        not let such an id load."""
        path = write(tmp_path / "bags.csv", f"bag_id,y,n\n0,1,1\n0,{id_text},1.5,1\n")
        message = f"{path}: line 3, column 2: {id_text!r} is not an integer"
        real_loadtxt = np.loadtxt

        def loadtxt_via_float(lines, dtype, **kwargs):
            warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.",
                          DeprecationWarning)
            as_float = np.dtype([(name, np.float64, dtype[name].shape) for name in dtype.names])
            with np.errstate(invalid="ignore"):
                return real_loadtxt(lines, as_float, **kwargs).astype(dtype)

        with pytest.raises(FormatError) as exc:
            load_bags_csv(path)
        assert str(exc.value) == message
        monkeypatch.setattr(np, "loadtxt", loadtxt_via_float)
        with pytest.raises(FormatError) as exc:
            load_bags_csv(path)
        assert str(exc.value) == message

    def test_file_without_ids_is_walked_once(self, tmp_path, monkeypatch):
        """A bag file without instance ids goes to the exact parse before
        numpy's reader walks it."""
        instances = Instances(np.array([[0.5], [1.5], [2.5]]), [1, 0, 1])
        save_bags_csv(tmp_path / "bags.csv", BagDataset(instances, [0, 2, 3], [1, 1]))
        walks = []
        bag_members = data._bag_members
        monkeypatch.setattr(data, "_bag_members", lambda *a: walks.append(1) or bag_members(*a))
        loaded = load_bags_csv(tmp_path / "bags.csv")
        assert loaded.instance_ids is None and loaded.instances.labels.tolist() == [1, 0, 1]
        assert len(walks) == 1

    def test_program_files_take_numpy_reader(self, tmp_path, monkeypatch):
        """Files the writers produce, labeled or not, and such files with a
        byte-order mark or LF line ends, never need the csv.reader parse."""
        instances = generate_synthetic(40, 2, 2.0, 0.5, seed=9)
        dataset = make_bags(instances, 1, 5, seed=3)
        save_instances_csv(tmp_path / "labeled.csv", instances)
        save_instances_csv(tmp_path / "unlabeled.csv", Instances(instances.features))
        save_bags_csv(tmp_path / "bags.csv", dataset)
        save_bags_csv(tmp_path / "stripped.csv", strip_labels(dataset))
        bom = tmp_path / "bom.csv"
        bom.write_bytes(codecs.BOM_UTF8 + (tmp_path / "bags.csv").read_bytes())
        lf = tmp_path / "lf.csv"
        lf.write_bytes((tmp_path / "labeled.csv").read_bytes().replace(b"\r\n", b"\n"))

        instance_files = ("labeled.csv", "unlabeled.csv", "lf.csv")
        bag_files = ("bags.csv", "stripped.csv", "bom.csv")
        exact = {name: data._load_csv_instances(tmp_path / name) for name in instance_files}
        exact |= {name: data._load_csv_bags(tmp_path / name) for name in bag_files}

        def fallback(path):
            raise AssertionError(f"{path} took the csv.reader parse")

        monkeypatch.setattr(data, "_load_csv_instances", fallback)
        monkeypatch.setattr(data, "_load_csv_bags", fallback)
        for name in instance_files:
            _assert_same(load_instances_csv(tmp_path / name), exact[name])
        for name in bag_files:
            _assert_same(load_bags_csv(tmp_path / name), exact[name])

    @pytest.mark.parametrize("error", [MemoryError, TypeError])
    def test_faults_are_not_retried(self, tmp_path, monkeypatch, error):
        """Only a decline of the numpy reader falls back to the csv.reader
        parse; any other error of the fast path is raised as it is."""
        dataset = make_bags(generate_synthetic(12, 2, 2.0, 0.5, seed=9), 1, 3, seed=3)
        save_instances_csv(tmp_path / "data.csv", dataset.instances)
        save_bags_csv(tmp_path / "bags.csv", dataset)

        def loadtxt(lines, fields):
            raise error("from _loadtxt")

        def fallback(path):
            raise AssertionError(f"{path} took the csv.reader parse")

        monkeypatch.setattr(data, "_loadtxt", loadtxt)
        monkeypatch.setattr(data, "_load_csv_instances", fallback)
        monkeypatch.setattr(data, "_load_csv_bags", fallback)
        with pytest.raises(error, match="from _loadtxt"):
            load_instances_csv(tmp_path / "data.csv")
        with pytest.raises(error, match="from _loadtxt"):
            load_bags_csv(tmp_path / "bags.csv")


class TestLabelColumn:
    """How the label column is told apart; the rule itself is unchanged."""

    def test_bag_column_of_float_zeros_and_ones_is_a_feature(self, tmp_path):
        # Its values are 0/1 and each bag's sum equals y, but the text is
        # not exactly 0 or 1, so it is read as a feature.
        text = "bag_id,y,n\n0,1,2\n0,0,0.5,1.0\n0,1,0.25,0.0\n1,0,1\n1,2,0.75,0.0\n"
        loaded = load_bags_csv(write(tmp_path / "bags.csv", text))
        assert loaded.instances.labels is None
        np.testing.assert_array_equal(
            loaded.instances.features, [[0.5, 1.0], [0.25, 0.0], [0.75, 0.0]]
        )

    def test_bag_column_of_zeros_and_ones_is_labels(self, tmp_path):
        text = "bag_id,y,n\n0,1,2\n0,0,0.5,1\n0,1,0.25,0\n1,0,1\n1,2,0.75,0\n"
        loaded = load_bags_csv(write(tmp_path / "bags.csv", text))
        assert loaded.instances.labels.tolist() == [1, 0, 0]
        np.testing.assert_array_equal(loaded.instances.features, [[0.5], [0.25], [0.75]])

    @pytest.mark.parametrize("label", ["1.0", " 1", "1 ", "01", "+1", "-0"])
    def test_instance_label_must_read_0_or_1(self, tmp_path, label):
        path = write(tmp_path / "data.csv", f"f0,label\n0.5,0\n\n0.5,{label}\n")
        with pytest.raises(FormatError, match="line 4, column 2: label must be 0 or 1"):
            load_instances_csv(path)


class TestWriters:
    """Both writers produce the bytes csv.writer produced."""

    FEATURES = np.array([[-0.0, 5e-324], [1.7976931348623157e308, 0.1], [0.1, -2.5e-8]])

    @pytest.mark.parametrize("labeled", [True, False])
    def test_instance_csv_bytes(self, tmp_path, labeled):
        instances = Instances(self.FEATURES, [1, 0, 1] if labeled else None)
        save_instances_csv(tmp_path / "new.csv", instances)
        csv_write_instances(tmp_path / "ref.csv", instances)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    @pytest.mark.parametrize("labeled", [True, False])
    @pytest.mark.parametrize("with_ids", [True, False])
    def test_bag_csv_bytes(self, tmp_path, labeled, with_ids):
        instances = Instances(self.FEATURES, [1, 0, 1] if labeled else None)
        ids = [7, 0, 2**62] if with_ids else None
        dataset = BagDataset(instances, [0, 2, 3], [1, 1], instance_ids=ids)
        save_bags_csv(tmp_path / "new.csv", dataset)
        csv_write_bags(tmp_path / "ref.csv", dataset)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    @staticmethod
    def offsets(layout, n):
        """Bag offsets of ``n`` rows that span several blocks."""
        block = files._BLOCK_ROWS
        if layout == "bags-of-1":
            return np.arange(n + 1)
        if layout == "bag-over-a-block":
            return np.array([0, 3, block + 20, n])
        if layout == "bags-at-block-edges":
            # One bag straddles the first edge, one ends at the second and
            # the next starts there.
            return np.array([0, block - 2, block + 3, 2 * block, 2 * block + 1, n])
        sizes = np.random.default_rng(5).integers(1, 9, n)
        return np.concatenate(([0], np.cumsum(sizes)[np.cumsum(sizes) < n], [n]))

    def seeded(self, labeled):
        """Features of several blocks, of many magnitudes, with the edge
        floats around the first block edge."""
        n = 3 * files._BLOCK_ROWS + 5
        rng = np.random.default_rng(4)
        features = rng.standard_normal((n, 2)) * 10.0 ** rng.integers(-30, 30, (n, 2))
        features[files._BLOCK_ROWS - 1 : files._BLOCK_ROWS + 2] = self.FEATURES
        return Instances(features, rng.integers(0, 2, n) if labeled else None)

    @pytest.mark.parametrize("labeled", [True, False])
    def test_instance_csv_bytes_over_blocks(self, tmp_path, labeled):
        instances = self.seeded(labeled)
        save_instances_csv(tmp_path / "new.csv", instances)
        csv_write_instances(tmp_path / "ref.csv", instances)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    @pytest.mark.parametrize(
        "layout", ["bags-of-1", "bag-over-a-block", "bags-at-block-edges", "sizes-1-8"]
    )
    @pytest.mark.parametrize("labeled", [True, False])
    @pytest.mark.parametrize("with_ids", [True, False])
    def test_bag_csv_bytes_over_blocks(self, tmp_path, layout, labeled, with_ids):
        instances = self.seeded(labeled)
        n = len(instances)
        offsets = self.offsets(layout, n)
        labels = instances.labels
        if labels is None:  # counts the file states, with no label column
            labels = np.random.default_rng(6).integers(0, 2, n)
        ids = np.random.default_rng(7).integers(0, 2**63 - 1, n) if with_ids else None
        counts = np.add.reduceat(labels, offsets[:-1])
        dataset = BagDataset(instances, offsets, counts, instance_ids=ids)
        save_bags_csv(tmp_path / "new.csv", dataset)
        csv_write_bags(tmp_path / "ref.csv", dataset)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    def test_zero_instances_rejected(self, tmp_path):
        with pytest.raises(UsageError, match="nothing to write"):
            save_instances_csv(tmp_path / "empty.csv", Instances(np.zeros((0, 2))))
        assert not (tmp_path / "empty.csv").exists()


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
        with pytest.raises(UsageError, match="fold assignment must cover every bag exactly once"):
            BagDataset(instances, [0, 2, 3], [0, 0], fold_assignment={0: 0})
        # Offsets, counts and ids are whole numbers, never truncated.
        for offsets, counts, ids, what in [
            ([0, 2.5, 3], [1, 1], None, "bag offsets"),
            ([0, np.nan, 3], [0, 0], None, "bag offsets"),
            (["0", "2", "3"], [0, 0], None, "bag offsets"),
            ([0, 2, 3], [1.5, 1], None, "bag counts"),
            ([0, 2, 3], [0, "1"], None, "bag counts"),
            ([0, 2, 3], [0, 0], [0, 1.5, 2], "instance ids"),
        ]:
            with pytest.raises(UsageError, match=what):
                BagDataset(instances, offsets, counts, instance_ids=ids)
        # Whole numbers of any numeric type still load as int64.
        dataset = BagDataset(
            instances, np.array([0.0, 2.0, 3.0]), np.array([1, 0], dtype=np.uint8)
        )
        assert dataset.offsets.dtype == dataset.counts.dtype == np.int64
        assert dataset.offsets.tolist() == [0, 2, 3] and dataset.counts.tolist() == [1, 0]

    def test_strip_labels_hides_ground_truth(self):
        instances = Instances(np.array([[0.0, 0.0], [1.0, 1.0]]), [1, 0])
        dataset = strip_labels(make_bags(instances, 1, 1, seed=0))
        assert dataset.instances.labels is None
        # Counts survive: they are the supervision, not the labels.
        assert dataset.counts.sum() == 1

    def test_folds_need_an_assignment(self):
        instances = Instances(np.zeros((2, 2)), [0, 1])
        dataset = BagDataset(instances, [0, 1, 2], [0, 1])
        with pytest.raises(UsageError, match="no fold assignment"):
            dataset.fold_split(0)
        folded = BagDataset(instances, [0, 1, 2], [0, 1], fold_assignment={0: 0, 1: 1})
        with pytest.raises(UsageError, match="fold 5 leaves an empty split"):
            folded.fold_split(5)

    def test_fold_split_is_index_arithmetic(self):
        instances = generate_synthetic(50, 2, 2.0, 0.5, seed=25)
        dataset = assign_folds(make_bags(instances, 1, 6, seed=8), 3, seed=1)
        starts, ends = dataset.offsets[:-1], dataset.offsets[1:]
        for fold in range(3):
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
