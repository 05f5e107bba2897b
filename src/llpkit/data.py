"""Instances and bag datasets: CSV ingestion, bagging, the folded datasets
of a bag-size sweep, synthetic blobs.

Supervision model: a bag is a run of consecutive instance rows annotated
only with the number of positive labels it contains.  Ground-truth
instance labels may travel along (bagging keeps them so held-out folds can
be scored), but training objectives only ever see feature rows and bag
counts; see :mod:`llpkit.objectives`.

File formats
------------
Instance CSV: header ``f0,f1,...,f{d-1}[,label]``, one instance per row,
UTF-8, decimal point.  The label column, when present, holds 0 or 1.

Bag CSV (written by the ``bag`` CLI command): header line ``bag_id,y,n``,
then for each bag one summary row ``bag_id,y,n`` followed by exactly ``n``
instance rows ``bag_id,instance_id,f0,...,f{d-1}[,label]``.  The summary
row's ``n`` says how many instance rows follow, so the two row kinds never
need to be distinguished by shape; an instance row's ``bag_id`` must be its
summary's, so that with distinct bag ids a miscounted ``n`` is an error.
``instance_id`` is an integer on every row or empty on every row.  A file
of the header alone holds no bags and is rejected.

Accepted cell text: a feature is any text Python's ``float()`` reads as a
finite number, an instance id any text ``int()`` reads as an int64, and a
label exactly ``0`` or ``1``.  Cells may be quoted as CSV quotes them.  A
file that is printable ASCII without double quotes (plus tabs and line
ends) is parsed by numpy's C reader; any file or cell that reader declines
goes through the exact ``csv.reader`` parse, which accepts the same files
and names the bad cell of a rejected one; any other error of the fast
parse, such as a MemoryError, is raised as it is.  Parse errors name the
file, the 1-based line and the 1-based column.  The writers pass their
columns, and the cells of each bag's summary row, to
:func:`llpkit.files.write_csv`, which writes the bytes ``csv.writer``
wrote in earlier versions; this module builds no CSV text.
"""

import codecs
import csv
import itertools
import warnings
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .errors import FormatError, LlpError, UsageError, check_floats
from .files import write_csv
from .poisson_binomial import PosteriorPlan


@dataclass(frozen=True, eq=False)
class Instances:
    """N feature vectors of one dimension, optionally with 0/1 labels."""

    features: np.ndarray
    labels: np.ndarray | None = None

    def __post_init__(self):
        feats = np.asarray(self.features, dtype=np.float64)
        if feats.ndim != 2 or feats.shape[1] == 0:
            raise UsageError(f"features must be an (N, d) matrix, got {feats.shape}")
        if not np.all(np.isfinite(feats)):
            raise UsageError("features contain non-finite values")
        object.__setattr__(self, "features", feats)
        if self.labels is not None:
            labels = np.asarray(self.labels)
            if labels.shape != (len(feats),) or not np.isin(labels, (0, 1)).all():
                raise UsageError("labels must be one 0 or 1 per instance")
            object.__setattr__(self, "labels", labels.astype(np.int64))

    def __len__(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    def take(self, rows) -> "Instances":
        """The instances at the given row indices, in that order."""
        labels = None if self.labels is None else self.labels[rows]
        return Instances(self.features[rows], labels)


@dataclass(frozen=True, eq=False)
class BagDataset:
    """Instances cut into consecutive bags, each with its positive count.

    ``instance_ids`` (one integer per row, or None) says where each row
    came from; ``fold_assignment`` maps every bag index to a fold.
    """

    instances: Instances
    offsets: np.ndarray
    counts: np.ndarray
    instance_ids: np.ndarray | None = None
    fold_assignment: dict[int, int] | None = None

    def __post_init__(self):
        n = len(self.instances)
        offsets = np.asarray(self.offsets, dtype=np.int64)
        counts = np.asarray(self.counts, dtype=np.int64)
        object.__setattr__(self, "offsets", offsets)
        object.__setattr__(self, "counts", counts)
        if offsets.ndim != 1 or offsets.size < 2:
            raise UsageError("dataset needs at least one bag")
        sizes = self.sizes
        if offsets[0] != 0 or offsets[-1] != n or sizes.min() < 1:
            raise UsageError(f"bag offsets must rise strictly from 0 to {n}")
        if counts.shape != sizes.shape or np.any((counts < 0) | (counts > sizes)):
            raise UsageError("each bag needs a positive count in [0, bag size]")
        if self.instance_ids is not None:
            ids = np.asarray(self.instance_ids, dtype=np.int64)
            if ids.shape != (n,):
                raise UsageError(f"{ids.size} instance ids for {n} rows")
            object.__setattr__(self, "instance_ids", ids)
        if self.fold_assignment is not None:
            if set(self.fold_assignment) != set(range(self.num_bags)):
                raise UsageError("fold assignment must cover every bag exactly once")

    @property
    def num_bags(self) -> int:
        return self.counts.size

    @property
    def num_instances(self) -> int:
        return len(self.instances)

    @property
    def feature_dim(self) -> int:
        return self.instances.dim

    @property
    def sizes(self) -> np.ndarray:
        return np.diff(self.offsets)

    @cached_property
    def posterior_plan(self) -> PosteriorPlan:
        """The E-step's grouping of these bags, built from their sizes and
        counts at the first E-step and reused by every later one."""
        return PosteriorPlan(self.sizes, self.counts)

    def bag_rows(self, bags) -> np.ndarray:
        """Row indices of the given bags, bag after bag in the given order."""
        bags = np.asarray(bags, dtype=np.int64)
        starts = self.offsets[bags]
        sizes = self.offsets[bags + 1] - starts
        ends = np.cumsum(sizes)
        shift = np.repeat(starts - (ends - sizes), sizes)
        return shift + np.arange(shift.size)

    def fold_split(self, fold: int) -> tuple["BagDataset", Instances]:
        """(training dataset, held-out instances) for one fold."""
        if self.fold_assignment is None:
            raise UsageError("dataset has no fold assignment")
        folds = np.array([self.fold_assignment[j] for j in range(self.num_bags)])
        train, held = np.flatnonzero(folds != fold), np.flatnonzero(folds == fold)
        if not train.size or not held.size:
            raise UsageError(f"fold {fold} leaves an empty split")
        rows = self.bag_rows(train)
        train_set = BagDataset(
            self.instances.take(rows),
            np.concatenate(([0], np.cumsum(self.sizes[train]))),
            self.counts[train],
            None if self.instance_ids is None else self.instance_ids[rows],
        )
        return train_set, self.instances.take(self.bag_rows(held))


def generate_synthetic(
    num_instances: int,
    feature_dim: int,
    class_separation: float,
    positive_prior: float,
    seed: int,
) -> Instances:
    """Labeled blobs: class 0 at the origin, class 1 at ``class_separation`` on axis 0.

    Both classes have unit isotropic covariance; labels are drawn first
    with probability ``positive_prior``.  Bit-identical for the same arguments.
    """
    if num_instances < 2:
        raise UsageError("need at least 2 instances")
    if feature_dim < 1:
        raise UsageError("feature dimension must be positive")
    check_floats(
        num_instances * feature_dim, f"{num_instances} instances of {feature_dim} features"
    )
    if not (np.isfinite(class_separation) and class_separation >= 0):
        raise UsageError(
            "class separation must be finite and nonnegative, got "
            f"{class_separation}"
        )
    if not 0.0 < positive_prior < 1.0:
        raise UsageError("positive prior must lie strictly inside (0, 1)")
    if seed < 0:
        raise UsageError(f"seed must be nonnegative, got {seed}")
    rng = np.random.default_rng(seed)
    labels = (rng.random(num_instances) < positive_prior).astype(np.int64)
    feats = rng.standard_normal((num_instances, feature_dim))
    feats[:, 0] += class_separation * labels
    return Instances(feats, labels)


# Bytes of a file that numpy's C reader parses: printable ASCII without the
# double quote, plus tab and line ends.  On such text str.splitlines() breaks
# lines where csv.reader does (it would also break them at \x0b, \x0c and
# \x1c-\x1e), str.split(",") gives csv.reader's cells, and np.loadtxt strips
# the padding that float() and int() strip (it would also strip \x1c-\x1f).
_PLAIN = bytes(range(0x20, 0x7F)).replace(b'"', b"") + b"\t\n\r"


def _plain_lines(path) -> list[str]:
    """The nonblank lines of a file of ``_PLAIN`` bytes after an optional
    byte-order mark; ValueError for any other file, one under two lines, or
    one with a line longer than ``csv.field_size_limit()``, whose cells the
    exact parse may reject."""
    with open(path, "rb") as fh:
        raw = fh.read().removeprefix(codecs.BOM_UTF8)
    if raw.translate(None, _PLAIN):
        raise ValueError(f"{path}: not plain ASCII text")
    lines = list(filter(None, raw.decode("ascii").splitlines()))
    if len(lines) < 2:
        raise ValueError(f"{path}: fewer than two lines")
    if max(map(len, lines)) > csv.field_size_limit():
        raise ValueError(f"{path}: a line longer than the CSV field size limit")
    return lines


def _loadtxt(lines, fields):
    """One record of ``fields`` per comma-separated line, parsed by numpy's C
    reader; ValueError unless every line has exactly the fields' cells.

    Any warning is raised as an error, whatever the caller's filters: older
    numpy releases read an int field's ``1.0``, ``nan`` or ``1e20`` as a
    float cast to int64, with only a DeprecationWarning, where ``int()``
    rejects the text."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return np.loadtxt(lines, np.dtype(fields), delimiter=",", comments=None, ndmin=1)


# What the numpy-reader parse raises when it declines a file: its own
# ValueErrors and the reader's, warnings that _loadtxt raises as errors, and
# the LlpErrors of checks that the exact parse repeats with a precise message.
_DECLINES = (ValueError, Warning, LlpError)


def _exact_labels(lines) -> bool:
    """Whether the last cell of every line (of two or more cells) reads
    exactly 0 or 1."""
    return all(map(str.endswith, lines, itertools.repeat((",0", ",1"))))


def _read_rows(path) -> list[list[str]]:
    """The nonblank CSV rows of a file; FormatError if it is empty, not
    UTF-8 text, or not CSV that ``csv.reader`` reads (a cell over its field
    size limit).  A leading byte-order mark, as spreadsheets write, is
    skipped."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            rows = [row for row in reader if row]
    except UnicodeDecodeError:
        raise FormatError(f"{path}: not UTF-8 text") from None
    except csv.Error as exc:
        raise FormatError(f"{path}: line {reader.line_num}: {exc}") from None
    if not rows:
        raise FormatError(f"{path}: empty file")
    return rows


def _line_number(path, index: int) -> int:
    """1-based file line of nonblank CSV row ``index`` (the header is row
    0); only error messages need it."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        lines = (reader.line_num for row in reader if row)
        return next(itertools.islice(lines, index, None))


def _parse_cells(path, rows, first_col, width, file_rows, parse):
    """Parse ``width`` cells from column ``first_col`` of every row with
    ``parse`` (``float`` or ``int``) into a (len(rows), width) array of
    finite values; ``file_rows[k]`` is row k's nonblank-row index."""
    cells = [c for row in rows for c in row[first_col : first_col + width]]
    k = 0

    def values():
        nonlocal k  # the cell being parsed, if parsing raises
        for k, cell in enumerate(cells):
            yield parse(cell)

    try:
        dtype = np.float64 if parse is float else np.int64
        parsed = np.fromiter(values(), dtype, len(cells))
        bad = np.flatnonzero(~np.isfinite(parsed))
        if not bad.size:
            return parsed.reshape(len(rows), width)
        k = int(bad[0])
    except (ValueError, OverflowError):
        pass
    row, col = divmod(k, width)
    kind = "a finite number" if parse is float else "an integer"
    raise FormatError(
        f"{path}: line {_line_number(path, int(file_rows[row]))}, column "
        f"{first_col + col + 1}: {cells[k]!r} is not {kind}"
    )


def _instance_header(path, cells) -> tuple[int, bool]:
    """(feature count, whether a label column follows) of an instance CSV
    header row."""
    header = [name.strip() for name in cells]
    has_label = header[-1] == "label"
    feature_names = header[:-1] if has_label else header
    expected = [f"f{i}" for i in range(len(feature_names))]
    if not feature_names or feature_names != expected:
        raise FormatError(
            f"{path}: header must be f0,...,f{{d-1}}[,label], got {header}"
        )
    return len(feature_names), has_label


def load_instances_csv(path) -> Instances:
    """Read an instance CSV; labels are parsed when the column exists."""
    try:
        return _load_plain_instances(path)
    except _DECLINES:  # the exact parse loads the file or names its fault
        pass
    return _load_csv_instances(path)


def _load_plain_instances(path) -> Instances:
    lines = _plain_lines(path)
    dim, has_label = _instance_header(path, lines[0].split(","))
    values = _loadtxt(lines[1:], [("values", np.float64, (dim + has_label,))])["values"]
    labels = None
    if has_label:
        if not _exact_labels(lines[1:]):
            raise ValueError(f"{path}: a label is not 0 or 1")
        labels = values[:, dim].astype(np.int64)
    # Instances rejects non-finite features, which the exact parse names.
    return Instances(np.ascontiguousarray(values[:, :dim]), labels)


def _load_csv_instances(path) -> Instances:
    rows = _read_rows(path)
    dim, has_label = _instance_header(path, rows[0])
    width = dim + has_label
    body = rows[1:]
    if not body:
        raise FormatError(f"{path}: no instance rows")
    if set(map(len, body)) != {width}:
        k = next(k for k, row in enumerate(body) if len(row) != width)
        raise FormatError(
            f"{path}: line {_line_number(path, k + 1)} has {len(body[k])} "
            f"columns, header declares {width}"
        )
    feats = _parse_cells(path, body, 0, dim, range(1, len(rows)), float)
    labels = None
    if has_label:
        text = np.array([row[dim] for row in body])
        bad = np.flatnonzero((text != "0") & (text != "1"))
        if bad.size:
            k = int(bad[0])
            raise FormatError(
                f"{path}: line {_line_number(path, k + 1)}, column {dim + 1}: "
                f"label must be 0 or 1, got {body[k][dim]!r}"
            )
        labels = (text == "1").astype(np.int64)
    return Instances(feats, labels)


def save_instances_csv(path, instances: Instances) -> None:
    """Write instances in the loadable CSV format, with labels if known."""
    if len(instances) == 0:
        raise UsageError("nothing to write")
    header = [f"f{i}" for i in range(instances.dim)]
    columns = list(instances.features.T)
    if instances.labels is not None:
        header.append("label")
        columns.append(instances.labels)
    write_csv(path, header, columns)


def make_bags(
    instances: Instances, min_size: int, max_size: int, seed: int
) -> BagDataset:
    """Partition labeled instances into bags of uniform random sizes.

    Sizes are drawn uniformly from [min_size, max_size]; instances are
    consumed without replacement in a seeded shuffle order.  When fewer
    than ``min_size`` instances remain they are discarded; a final draw
    that exceeds the remainder is truncated to it (still >= min_size), so
    no usable instance is dropped.  Each bag's positive count is the number
    of label-1 instances it received, and each row's instance id is its
    index in ``instances``.
    """
    order, offsets = _draw_bags(instances, min_size, max_size, seed)
    return _bagged(instances.take(order[: offsets[-1]]), order, offsets)


def _draw_bags(instances: Instances, min_size: int, max_size: int, seed: int):
    """:func:`make_bags`'s checks and draws: (the seeded shuffle order of
    all rows, the bag offsets into it).  The order depends on the seed and
    the number of instances alone."""
    n = len(instances)
    if n == 0:
        raise UsageError("no instances to bag")
    if instances.labels is None:
        raise UsageError("bagging requires every instance to be labeled")
    if not 1 <= min_size <= max_size <= n:
        raise UsageError(
            f"need 1 <= min_size <= max_size <= {n}, got [{min_size}, {max_size}]"
        )
    if seed < 0:
        raise UsageError(f"seed must be nonnegative, got {seed}")
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    # Each bag takes at least min_size instances, so n // min_size sizes
    # always reach a remainder under min_size.  Bag k + 1 starts at
    # ends[k] and is made when at least min_size instances remain there.
    ends = np.cumsum(rng.integers(min_size, max_size + 1, n // min_size))
    made = np.searchsorted(ends, n - min_size, "right") + 1
    offsets = np.concatenate(([0], np.minimum(ends[:made], n)))
    return order, offsets


def _bagged(bagged: Instances, order, offsets) -> BagDataset:
    """The dataset of ``bagged``, the rows ``order[:offsets[-1]]`` of the
    instances, cut at ``offsets``."""
    counts = np.add.reduceat(bagged.labels, offsets[:-1])
    return BagDataset(bagged, offsets, counts, instance_ids=order[: offsets[-1]])


def assign_folds(dataset: BagDataset, k: int, seed: int) -> BagDataset:
    """Seeded partition of bags into k folds with sizes differing by <= 1."""
    if k < 2:
        raise UsageError(f"need at least 2 folds, got {k}")
    if dataset.num_bags < k:
        raise UsageError(
            f"cannot split {dataset.num_bags} bags into {k} folds"
        )
    if seed < 0:
        raise UsageError(f"seed must be nonnegative, got {seed}")
    rng = np.random.default_rng(seed)
    order = rng.permutation(dataset.num_bags)
    assignment = {int(bag): i % k for i, bag in enumerate(order)}
    return replace(dataset, fold_assignment=assignment)


def sweep_datasets(instances: Instances, sizes, k: int, seed: int) -> list[BagDataset]:
    """``instances`` in bags of each fixed size in ``sizes``, split into
    ``k`` folds, all with ``seed``; a size that cannot be bagged or folded
    is a UsageError that names it.

    Each dataset is ``assign_folds(make_bags(instances, size, size, seed),
    k, seed)``.  Every size shuffles with the same seed, so each size's rows
    are a prefix of one shuffled copy, and the datasets' features are views
    of that one copy."""
    if not sizes:
        raise UsageError("no bag sizes given")
    datasets = []
    shuffled = None
    for size in sizes:
        try:
            order, offsets = _draw_bags(instances, size, size, seed)
            if shuffled is None:
                shuffled = instances.take(order)
            rows = slice(offsets[-1])
            bagged = Instances(shuffled.features[rows], shuffled.labels[rows])
            datasets.append(assign_folds(_bagged(bagged, order, offsets), k, seed))
        except UsageError as exc:
            raise UsageError(f"bag size {size}: {exc}") from exc
    return datasets


def save_bags_csv(path, dataset: BagDataset) -> None:
    """Write a bag CSV; the label column is kept when labels are known."""
    bags = np.arange(dataset.num_bags)
    columns = [np.repeat(bags, dataset.sizes), dataset.instance_ids]
    columns += list(dataset.instances.features.T)
    if dataset.instances.labels is not None:
        columns.append(dataset.instances.labels)
    heads = (dataset.offsets[:-1], [bags, dataset.counts, dataset.sizes])
    write_csv(path, ["bag_id", "y", "n"], columns, heads)


def _bag_members(path, rows, cells):
    """Walk a bag file's summary rows by their ``n``: (the instance rows,
    the bag offsets, the counts, the bag ids).  ``cells(row)`` splits a row
    into cells."""
    if [c.strip() for c in cells(rows[0])] != ["bag_id", "y", "n"]:
        raise FormatError(f"{path}: header must be bag_id,y,n, got {cells(rows[0])}")
    members, offsets, counts, ids = [], [0], [], []
    idx = 1
    while idx < len(rows):
        try:
            bag_id, y, n = map(int, cells(rows[idx]))
        except ValueError:
            raise FormatError(
                f"{path}: line {_line_number(path, idx)}: expected bag summary "
                f"bag_id,y,n of integers"
            ) from None
        if n < 1 or not 0 <= y <= n:
            raise FormatError(f"{path}: bag {bag_id}: invalid counts y={y}, n={n}")
        if idx + 1 + n > len(rows):
            raise FormatError(f"{path}: bag {bag_id}: file ends mid-bag")
        members.extend(rows[idx + 1 : idx + 1 + n])
        offsets.append(offsets[-1] + n)
        counts.append(y)
        ids.append(bag_id)
        idx += 1 + n
    if not counts:
        raise FormatError(f"{path}: no bags")
    return members, np.array(offsets), np.array(counts), np.array(ids)


def load_bags_csv(path) -> BagDataset:
    """Read a bag CSV back into a dataset.

    The trailing instance-row column is treated as the label column when
    every value is 0/1 and each bag's column sum equals its declared count;
    otherwise it is a feature.  Files written by :func:`save_bags_csv` from
    labeled data always satisfy the first case.
    """
    try:
        return _load_plain_bags(path)
    except _DECLINES:
        pass
    return _load_csv_bags(path)


def _load_plain_bags(path) -> BagDataset:
    lines = _plain_lines(path)
    if len(lines) < 3 or lines[2].split(",")[1:2] == [""]:
        # No instance rows, or no instance ids: numpy's reader rejects an
        # empty id cell, but only after the walk, so skip to the exact parse.
        raise ValueError(f"{path}: no instance rows or ids")
    members, offsets, counts, ids = _bag_members(path, lines, lambda line: line.split(","))
    width = members[0].count(",") + 1
    if width < 3:
        raise ValueError(f"{path}: no feature column")
    cells = _loadtxt(
        members, [("bag", np.int64), ("id", np.int64), ("values", np.float64, (width - 2,))]
    )
    if not np.array_equal(cells["bag"], np.repeat(ids, np.diff(offsets))):
        raise ValueError(f"{path}: an instance row's bag_id is not its bag's")
    values = cells["values"]
    is_label = values[:, -1] == 1
    labeled = np.array_equal(
        np.add.reduceat(is_label.astype(np.int64), offsets[:-1]), counts
    ) and _exact_labels(members)
    dim = values.shape[1] - labeled
    if dim < 1:
        raise ValueError(f"{path}: no feature column")
    labels = is_label.astype(np.int64) if labeled else None
    # Instances rejects non-finite features, which the exact parse names.
    instances = Instances(np.ascontiguousarray(values[:, :dim]), labels)
    return BagDataset(instances, offsets, counts, np.ascontiguousarray(cells["id"]))


def _load_csv_bags(path) -> BagDataset:
    rows = _read_rows(path)
    members, offsets, counts, ids = _bag_members(path, rows, list)
    # Member k of bag j comes after the header and j + 1 summary rows.
    file_rows = np.arange(len(members))
    file_rows += np.repeat(np.arange(2, counts.size + 2), np.diff(offsets))
    # A miscounted n moves rows between bags; the bag_id column shows it.
    expected = np.repeat(ids, np.diff(offsets)).tolist()
    for k, (row, bag_id) in enumerate(zip(members, expected)):
        try:
            if int(row[0]) == bag_id:
                continue
        except ValueError:
            pass
        raise FormatError(
            f"{path}: line {_line_number(path, int(file_rows[k]))}, column 1: "
            f"bag_id {row[0]!r} is not {bag_id}, the id of its bag summary"
        )
    widths = set(map(len, members))
    if len(widths) != 1:
        raise FormatError(f"{path}: instance rows have mixed column counts")
    width = widths.pop()

    last = np.array([row[-1] for row in members])
    is_label = last == "1"
    labeled = bool(np.all(is_label | (last == "0"))) and np.array_equal(
        np.add.reduceat(is_label.astype(np.int64), offsets[:-1]), counts
    )
    dim = width - 3 if labeled else width - 2
    if dim < 1:
        raise FormatError(f"{path}: instance rows need at least one feature")

    ids = None
    if any(row[1] != "" for row in members):
        ids = _parse_cells(path, members, 1, 1, file_rows, int)[:, 0]
    feats = _parse_cells(path, members, 2, dim, file_rows, float)
    labels = is_label.astype(np.int64) if labeled else None
    return BagDataset(Instances(feats, labels), offsets, counts, instance_ids=ids)
