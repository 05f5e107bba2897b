"""End-to-end tests of the command-line interface.

Commands run in-process through main(), which returns the exit code:
0 success, 1 numerical or I/O failure, 2 usage error.
"""

import csv
import json
from dataclasses import asdict

import numpy as np
import pytest

from helpers import strip_labels
from llpkit import cli, data, network, objectives, training
from llpkit.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def instance_csv(tmp_path, capsys):
    path = tmp_path / "data.csv"
    code, _, _ = run(
        capsys,
        "synth", "--n", "300", "--dim", "2", "--sep", "4", "--prior", "0.5",
        "--seed", "7", "--out", str(path),
    )
    assert code == 0
    return path


@pytest.fixture
def bag_csv(tmp_path, instance_csv, capsys):
    path = tmp_path / "bags.csv"
    code, _, _ = run(
        capsys,
        "bag", "--in", str(instance_csv), "--min", "1", "--max", "6",
        "--seed", "3", "--out", str(path),
    )
    assert code == 0
    return path


@pytest.fixture
def unlabeled_csv(tmp_path, instance_csv):
    """The instance file without its label column."""
    path = tmp_path / "unlabeled.csv"
    with open(instance_csv, newline="") as fh:
        rows = list(csv.reader(fh))
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(row[:-1] for row in rows)
    return path


@pytest.fixture
def unlabeled_bags_csv(tmp_path, bag_csv):
    """The bag file without its label column."""
    path = tmp_path / "unlabeled_bags.csv"
    data.save_bags_csv(path, strip_labels(data.load_bags_csv(bag_csv)))
    return path


class TestSynth:
    def test_writes_requested_rows(self, tmp_path, capsys):
        out = tmp_path / "data.csv"
        code, stdout, _ = run(
            capsys, "synth", "--n", "1000", "--dim", "2", "--sep", "4",
            "--prior", "0.5", "--seed", "7", "--out", str(out),
        )
        assert code == 0
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["f0", "f1", "label"]
        assert len(rows) == 1001
        assert "1000 instances" in stdout

    def test_missing_out_is_usage_error(self, capsys):
        code, _, err = run(capsys, "synth", "--n", "10")
        assert code == 2
        assert err.strip() != ""

    def test_rerun_is_byte_identical(self, tmp_path, capsys):
        args = ["synth", "--n", "200", "--seed", "5"]
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert run(capsys, *args, "--out", str(a))[0] == 0
        assert run(capsys, *args, "--out", str(b))[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_each_flag_reaches_its_argument(self, tmp_path, capsys):
        out, expected = tmp_path / "cli.csv", tmp_path / "library.csv"
        code, _, _ = run(
            capsys, "synth", "--n", "300", "--dim", "3", "--sep", "2.5",
            "--prior", "0.3", "--seed", "9", "--out", str(out),
        )
        assert code == 0
        data.save_instances_csv(expected, data.generate_synthetic(
            num_instances=300, feature_dim=3, class_separation=2.5,
            positive_prior=0.3, seed=9,
        ))
        assert out.read_bytes() == expected.read_bytes()

    def test_invalid_flags_are_usage_errors(self, tmp_path, capsys):
        for flag, value, message in [
            ("--prior", "1.5", "positive prior"),
            ("--sep", "-1", "class separation"),
            ("--sep", "nan", "class separation"),
            ("--sep", "inf", "class separation"),
            # numpy refuses these arrays before it allocates anything.
            ("--n", "99999999999999999999",
             "99999999999999999999 instances of 2 features would need"),
            ("--dim", "99999999999999999999",
             "10 instances of 99999999999999999999 features would need"),
        ]:
            code, stdout, err = run(
                capsys, "synth", "--n", "10", flag, value,
                "--out", str(tmp_path / "x.csv"),
            )
            assert code == 2
            assert stdout == ""
            lines = err.splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: " + message)
            assert not (tmp_path / "x.csv").exists()


class TestBag:
    def test_summary_and_histogram(self, tmp_path, instance_csv, capsys):
        out = tmp_path / "bags.csv"
        code, stdout, _ = run(
            capsys, "bag", "--in", str(instance_csv), "--min", "2", "--max", "2",
            "--seed", "1", "--out", str(out),
        )
        assert code == 0
        assert "bags: 150" in stdout
        assert "size histogram: 2:150" in stdout

    def test_unlabeled_input_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "plain.csv"
        path.write_text("f0,f1\n1.0,2.0\n3.0,4.0\n")
        code, _, err = run(
            capsys, "bag", "--in", str(path), "--out", str(tmp_path / "b.csv"),
        )
        assert code == 2
        assert err.startswith("error: ")

    def test_histogram_counts_sum_to_bag_count(self, tmp_path, instance_csv, capsys):
        out = tmp_path / "bags.csv"
        code, stdout, _ = run(
            capsys, "bag", "--in", str(instance_csv), "--min", "1", "--max", "6",
            "--seed", "2", "--out", str(out),
        )
        assert code == 0
        lines = stdout.splitlines()
        total = int(lines[0].split(":")[1])
        histogram = lines[1].split(":", 1)[1]
        counts = sum(int(part.split(":")[1]) for part in histogram.split())
        assert counts == total


class TestTrain:
    def test_writes_all_artifacts(self, tmp_path, bag_csv, capsys):
        out_dir = tmp_path / "run1"
        code, stdout, _ = run(
            capsys, "train", "--method", "mle", "--bags", str(bag_csv),
            "--epochs", "5", "--seed", "1", "--hidden", "8",
            "--out", str(out_dir),
        )
        assert code == 0
        assert (out_dir / "checkpoint.json").exists()
        assert (out_dir / "curve.csv").exists()
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["command"] == "train"
        assert manifest["config"]["method"] == "mle"
        assert manifest["dataset"]["sha256"]
        assert "mle" in stdout

    def test_folds_summary_has_one_entry_per_fold(self, tmp_path, bag_csv, capsys):
        out_dir = tmp_path / "cv"
        code, _, _ = run(
            capsys, "train", "--method", "dllp", "--bags", str(bag_csv),
            "--epochs", "3", "--folds", "10", "--hidden", "8",
            "--out", str(out_dir),
        )
        assert code == 0
        summary = json.loads((out_dir / "cv_summary.json").read_text())
        assert len(summary["folds"]) == 10
        assert 0.0 <= summary["mean_accuracy"] <= 1.0
        for fold in range(10):
            assert (out_dir / f"curve_fold{fold}.csv").exists()

    def test_supervised_needs_labels(self, tmp_path, instance_csv, capsys):
        bags = tmp_path / "unlabeled_bags.csv"
        code, _, _ = run(
            capsys, "bag", "--in", str(instance_csv), "--min", "2", "--max", "3",
            "--seed", "1", "--out", str(bags),
        )
        assert code == 0
        # Rewrite the bag file without its label column.
        with open(bags, newline="") as fh:
            rows = list(csv.reader(fh))
        with open(bags, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(rows[0])
            idx = 1
            while idx < len(rows):
                summary = rows[idx]
                writer.writerow(summary)
                n = int(summary[2])
                for member in rows[idx + 1 : idx + 1 + n]:
                    writer.writerow(member[:-1])
                idx += 1 + n
        code, _, err = run(
            capsys, "train", "--method", "supervised", "--bags", str(bags),
            "--epochs", "2", "--out", str(tmp_path / "run2"),
        )
        assert code == 2
        assert err.startswith("error: ")
        assert not (tmp_path / "run2").exists()

    @pytest.mark.parametrize(
        "eval_file, expected_code, message",
        [
            ("missing", 1, "error: "),
            ("unlabeled", 2, "error: evaluation requires instance labels"),
            ("wide", 2, "error: evaluation set has 3 features, the classifier takes 2"),
            ("empty", 1, "error: [Errno 2] No such file or directory: ''"),
        ],
        ids=["missing", "unlabeled", "wide", "empty"],
    )
    def test_unusable_eval_file_writes_nothing(
        self, tmp_path, bag_csv, unlabeled_csv, capsys, eval_file, expected_code,
        message,
    ):
        path = {"missing": tmp_path / "missing.csv", "unlabeled": unlabeled_csv,
                "wide": tmp_path / "wide.csv", "empty": ""}[eval_file]
        if eval_file == "wide":
            assert run(
                capsys, "synth", "--n", "20", "--dim", "3", "--out", str(path)
            )[0] == 0
        out_dir = tmp_path / "run"
        code, stdout, err = run(
            capsys, "train", "--method", "amle", "--bags", str(bag_csv),
            "--eval", str(path), "--epochs", "1", "--out", str(out_dir),
        )
        assert code == expected_code
        assert stdout == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(message)
        assert not out_dir.exists()

    def test_eval_scores_every_epoch_like_eval(
        self, tmp_path, bag_csv, instance_csv, capsys
    ):
        out_dir = tmp_path / "run"
        code, stdout, _ = run(
            capsys, "train", "--method", "amle", "--bags", str(bag_csv),
            "--eval", str(instance_csv), "--epochs", "3", "--hidden", "8",
            "--out", str(out_dir),
        )
        assert code == 0
        with open(out_dir / "curve.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 3 and all(row["test_accuracy"] != "" for row in rows)
        accuracy = float(rows[-1]["test_accuracy"])
        assert stdout.splitlines()[0].endswith(f", test accuracy {accuracy:.6f}")
        code, stdout, _ = run(
            capsys, "eval", "--checkpoint", str(out_dir / "checkpoint.json"),
            "--data", str(instance_csv),
        )
        assert code == 0
        assert stdout.splitlines()[0] == f"accuracy: {accuracy:.6f}"

    def test_folds_on_unlabeled_bags_writes_nothing(
        self, tmp_path, unlabeled_bags_csv, capsys
    ):
        out_dir = tmp_path / "cv"
        code, stdout, err = run(
            capsys, "train", "--method", "mle", "--bags", str(unlabeled_bags_csv),
            "--folds", "3", "--epochs", "1", "--out", str(out_dir),
        )
        assert code == 2
        assert stdout == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(
            "error: cross-validation needs labeled bags"
        )
        assert not out_dir.exists()

    def test_bad_method_is_usage_error(self, tmp_path, bag_csv, capsys):
        code, _, _ = run(
            capsys, "train", "--method", "gan", "--bags", str(bag_csv),
            "--out", str(tmp_path / "x"),
        )
        assert code == 2

    def test_eval_with_folds_is_usage_error(
        self, tmp_path, bag_csv, instance_csv, capsys
    ):
        out_dir = tmp_path / "cv"
        # An empty --eval is still an --eval.
        for eval_path in (str(instance_csv), ""):
            code, out, err = run(
                capsys, "train", "--method", "dllp", "--bags", str(bag_csv),
                "--folds", "3", "--eval", eval_path, "--out", str(out_dir),
            )
            assert code == 2
            assert out == ""
            lines = err.splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: --eval")
            assert not out_dir.exists()

    def test_more_folds_than_bags_writes_nothing(self, tmp_path, bag_csv, capsys):
        out_dir = tmp_path / "cv"
        code, out, err = run(
            capsys, "train", "--method", "dllp", "--bags", str(bag_csv),
            "--folds", "1000", "--out", str(out_dir),
        )
        assert code == 2
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: cannot split")
        assert not (out_dir / "manifest.json").exists()

    def test_refresh_is_an_unknown_flag(self, tmp_path, bag_csv, capsys):
        code, _, err = run(
            capsys, "train", "--method", "mle", "--bags", str(bag_csv),
            "--refresh", "2", "--out", str(tmp_path / "run"),
        )
        assert code == 2
        assert "unrecognized arguments: --refresh 2" in err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("lr", ["0", "-1", "nan", "inf"])
    def test_invalid_learning_rate_writes_nothing(self, tmp_path, bag_csv, capsys, lr):
        out_dir = tmp_path / "run"
        code, _, err = run(
            capsys, "train", "--method", "mle", "--bags", str(bag_csv),
            "--lr", lr, "--out", str(out_dir),
        )
        assert code == 2
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: learning_rate")
        assert not out_dir.exists()

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
    def test_invalid_rel_tol_writes_nothing(self, tmp_path, bag_csv, capsys, tol):
        out_dir = tmp_path / "run"
        code, _, err = run(
            capsys, "train", "--method", "amle", "--bags", str(bag_csv),
            "--rel-tol", tol, "--patience", "2", "--out", str(out_dir),
        )
        assert code == 2
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: rel_tol")
        assert not out_dir.exists()

    @pytest.mark.parametrize("hidden", ["0", "32,0", "-3"])
    def test_zero_width_hidden_layer_writes_nothing(
        self, tmp_path, bag_csv, capsys, hidden
    ):
        out_dir = tmp_path / "run"
        code, _, err = run(
            capsys, "train", "--method", "amle", "--bags", str(bag_csv),
            f"--hidden={hidden}", "--out", str(out_dir),
        )
        assert code == 2
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: hidden layer widths")
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "flags",
        [
            ["--hidden", "99999999999999999999"],
            ["--folds", "3", "--hidden", "99999999999999999999"],
            ["--hidden", "4294967296,4294967296"],
        ],
        ids=["huge-width", "huge-width-folds", "huge-product"],
    )
    def test_oversized_network_writes_nothing(self, tmp_path, bag_csv, capsys, flags):
        # numpy refuses the parameter vector before it allocates anything.
        out_dir = tmp_path / "run"
        code, stdout, err = run(
            capsys, "train", "--method", "amle", "--bags", str(bag_csv), *flags,
            "--out", str(out_dir),
        )
        assert code == 2
        assert stdout == ""
        lines = err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: architecture (2, ")
        assert "would need" in lines[0]
        assert not out_dir.exists()

    @pytest.mark.filterwarnings("error")
    def test_diverging_fit_is_a_numerical_error(self, tmp_path, bag_csv, capsys):
        code, _, err = run(
            capsys, "train", "--method", "mle", "--bags", str(bag_csv),
            "--lr", "1e200", "--epochs", "3", "--out", str(tmp_path / "run"),
        )
        assert code == 1
        lines = err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: ") and "epoch" in lines[0]

    def test_identical_reruns_identical_outputs(self, tmp_path, bag_csv, capsys):
        args = [
            "train", "--method", "mle", "--bags", str(bag_csv),
            "--epochs", "4", "--seed", "9", "--hidden", "8",
        ]
        dir_a = tmp_path / "a"
        dir_b = tmp_path / "b"
        assert run(capsys, *args, "--out", str(dir_a))[0] == 0
        assert run(capsys, *args, "--out", str(dir_b))[0] == 0
        assert (dir_a / "checkpoint.json").read_bytes() == (
            dir_b / "checkpoint.json"
        ).read_bytes()

        def strip_seconds(path):
            with open(path, newline="") as fh:
                return [row[:-1] for row in csv.reader(fh)]

        assert strip_seconds(dir_a / "curve.csv") == strip_seconds(dir_b / "curve.csv")


def parsed_config(command, *flags):
    """The TrainConfig that ``command`` builds from ``flags``, parsed by the
    real parser, for the method ``dllp``."""
    required = {
        "train": ["--bags", "b.csv", "--method", "dllp", "--out", "run"],
        "sweep": ["--data", "d.csv", "--sizes", "2", "--methods", "dllp",
                  "--out", "s.csv"],
    }
    args = cli.build_parser().parse_args([command, *required[command], *flags])
    if command == "sweep":
        return cli._train_config(args, method="dllp")
    return cli._train_config(args)


class TestTrainFlags:
    @pytest.mark.parametrize("command", ["train", "sweep"])
    def test_flags_left_out_keep_train_config_defaults(self, command):
        config = parsed_config(command)
        assert asdict(config) == asdict(training.TrainConfig(method="dllp"))

    @pytest.mark.parametrize("command", ["train", "sweep"])
    def test_each_flag_lands_in_its_field(self, command):
        config = parsed_config(
            command, "--epochs", "7", "--batch-size", "5", "--lr", "0.25",
            "--seed", "3", "--patience", "2", "--rel-tol", "0.125",
            "--threshold", "0.75", "--hidden", "4,3",
        )
        expected = {
            "method": "dllp", "max_epochs": 7, "batch_size": 5,
            "learning_rate": 0.25, "patience": 2, "rel_tol": 0.125, "seed": 3,
            "threshold": 0.75, "hidden_widths": (4, 3),
        }
        assert asdict(config) == expected
        defaults = asdict(training.TrainConfig(method="dllp"))
        changed = [name for name in defaults if expected[name] != defaults[name]]
        assert changed == [name for name in defaults if name != "method"]


class TestEval:
    @pytest.fixture
    def checkpoint(self, tmp_path, bag_csv, capsys):
        out_dir = tmp_path / "run"
        code, _, _ = run(
            capsys, "train", "--method", "supervised", "--bags", str(bag_csv),
            "--epochs", "20", "--seed", "2", "--hidden", "8",
            "--out", str(out_dir),
        )
        assert code == 0
        return out_dir / "checkpoint.json"

    def test_reports_six_decimals(self, tmp_path, instance_csv, checkpoint, capsys):
        out = tmp_path / "metrics.json"
        code, stdout, _ = run(
            capsys, "eval", "--checkpoint", str(checkpoint),
            "--data", str(instance_csv), "--out", str(out),
        )
        assert code == 0
        first = stdout.splitlines()[0]
        assert first.startswith("accuracy: ")
        decimals = first.split("accuracy: ")[1].split(".")[1]
        assert len(decimals) == 6
        payload = json.loads(out.read_text())
        assert 0.0 <= payload["accuracy"] <= 1.0
        assert payload["count"] == 300

    def test_unlabeled_data_is_usage_error(self, tmp_path, checkpoint, capsys):
        path = tmp_path / "plain.csv"
        path.write_text("f0,f1\n1.0,2.0\n")
        code, _, err = run(
            capsys, "eval", "--checkpoint", str(checkpoint), "--data", str(path),
        )
        assert code == 2
        assert "label" in err

    def test_dimension_mismatch_names_both_dims(self, tmp_path, checkpoint, capsys):
        path = tmp_path / "wide.csv"
        path.write_text("f0,f1,f2,label\n1.0,2.0,3.0,1\n0.0,0.0,0.0,0\n")
        code, _, err = run(
            capsys, "eval", "--checkpoint", str(checkpoint), "--data", str(path),
        )
        assert code == 2
        assert "2" in err and "3" in err

    @pytest.mark.parametrize("eval_file", ["unlabeled", "wide"])
    def test_eval_and_train_eval_reject_a_file_alike(
        self, tmp_path, bag_csv, unlabeled_csv, checkpoint, capsys, eval_file
    ):
        """eval and train --eval print the same error line for a file that
        the classifier cannot score."""
        path = unlabeled_csv
        if eval_file == "wide":
            path = tmp_path / "wide.csv"
            assert run(
                capsys, "synth", "--n", "20", "--dim", "3", "--out", str(path)
            )[0] == 0
        code, stdout, eval_err = run(
            capsys, "eval", "--checkpoint", str(checkpoint), "--data", str(path),
        )
        assert (code, stdout) == (2, "")
        code, stdout, train_err = run(
            capsys, "train", "--method", "amle", "--bags", str(bag_csv),
            "--eval", str(path), "--epochs", "1", "--out", str(tmp_path / "r"),
        )
        assert (code, stdout) == (2, "")
        assert len(eval_err.splitlines()) == 1
        assert eval_err.startswith("error: ")
        assert eval_err == train_err

    @pytest.mark.parametrize("edit", ["list", "missing-theta"])
    def test_malformed_checkpoint_is_single_line_error(
        self, tmp_path, instance_csv, checkpoint, capsys, edit
    ):
        record = json.loads(checkpoint.read_text())
        if edit == "list":
            record = [record]
        else:
            del record["theta"]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(record))
        code, _, err = run(
            capsys, "eval", "--checkpoint", str(bad), "--data", str(instance_csv),
        )
        assert code == 2
        lines = err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")

    def test_rerun_identical_json(self, tmp_path, instance_csv, checkpoint, capsys):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        run(capsys, "eval", "--checkpoint", str(checkpoint),
            "--data", str(instance_csv), "--out", str(a))
        run(capsys, "eval", "--checkpoint", str(checkpoint),
            "--data", str(instance_csv), "--out", str(b))
        assert a.read_bytes() == b.read_bytes()


class TestSweep:
    def test_row_count_is_sizes_times_methods(self, tmp_path, instance_csv, capsys):
        out = tmp_path / "results.csv"
        code, _, _ = run(
            capsys, "sweep", "--data", str(instance_csv), "--sizes", "2,4",
            "--methods", "dllp,supervised", "--folds", "3", "--epochs", "3",
            "--hidden", "8", "--out", str(out),
        )
        assert code == 0
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["method", "bag_size", "mean_accuracy", "std"]
        assert len(rows) == 1 + 2 * 2
        assert (tmp_path / "results.csv.manifest.json").exists()

    def test_rows_end_with_crlf(self, tmp_path, instance_csv, capsys):
        """sweep.csv ends its lines like every other CSV the package writes."""
        out = tmp_path / "sweep.csv"
        code, _, _ = run(
            capsys, "sweep", "--data", str(instance_csv), "--sizes", "2,4",
            "--methods", "dllp", "--folds", "3", "--epochs", "1",
            "--out", str(out),
        )
        assert code == 0
        content = out.read_bytes()
        assert content.startswith(b"method,bag_size,mean_accuracy,std\r\n")
        assert content.count(b"\r\n") == 3
        assert content.count(b"\n") == 3

    def test_bytes_match_csv_writer(self, tmp_path, instance_csv, capsys, monkeypatch):
        """sweep.csv holds the bytes csv.writer writes for its rows, with
        the accuracies in round-trip repr."""
        rows = []
        cross_validate = training.cross_validate

        def recorded(dataset, config):
            result = cross_validate(dataset, config)
            size = int(dataset.sizes[0])
            rows.append((config.method, size, result.mean_accuracy, result.std_accuracy))
            return result

        monkeypatch.setattr(training, "cross_validate", recorded)
        out = tmp_path / "sweep.csv"
        code, _, _ = run(
            capsys, "sweep", "--data", str(instance_csv), "--sizes", "2,4",
            "--methods", "dllp,supervised", "--folds", "3", "--epochs", "2",
            "--hidden", "8", "--out", str(out),
        )
        assert code == 0 and len(rows) == 4
        with open(tmp_path / "ref.csv", "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["method", "bag_size", "mean_accuracy", "std"])
            for method, size, mean, std in rows:
                writer.writerow([method, size, repr(mean), repr(std)])
        assert out.read_bytes() == (tmp_path / "ref.csv").read_bytes()

    def test_each_size_is_bagged_once(self, tmp_path, instance_csv, capsys, monkeypatch):
        """Every method of a sweep shares its seed, and so its bags: each
        size draws its bags once, through the draw that make_bags makes."""
        sizes = []
        draw_bags = data._draw_bags

        def counted(instances, min_size, max_size, seed):
            sizes.append(min_size)
            return draw_bags(instances, min_size, max_size, seed)

        monkeypatch.setattr(data, "_draw_bags", counted)
        code, _, _ = run(
            capsys, "sweep", "--data", str(instance_csv), "--sizes", "2,4",
            "--methods", "dllp,supervised", "--folds", "3", "--epochs", "1",
            "--hidden", "4", "--out", str(tmp_path / "s.csv"),
        )
        assert code == 0
        assert sizes == [2, 4]

    def test_mle_runs_above_bag_size_64(self, tmp_path, instance_csv, capsys):
        out = tmp_path / "r.csv"
        code, _, _ = run(
            capsys, "sweep", "--data", str(instance_csv), "--sizes", "2,128",
            "--methods", "mle", "--folds", "2", "--epochs", "1",
            "--out", str(out),
        )
        assert code == 0
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert [row[:2] for row in rows[1:]] == [["mle", "2"], ["mle", "128"]]

    def test_unknown_method_rejected(self, tmp_path, instance_csv, capsys):
        code, _, err = run(
            capsys, "sweep", "--data", str(instance_csv), "--sizes", "2",
            "--methods", "gan", "--out", str(tmp_path / "r.csv"),
        )
        assert code == 2
        assert err.startswith("error: ")

    @pytest.mark.parametrize(
        "flags,message",
        [
            ({"--sizes": "2,1000"},
             "bag size 1000: need 1 <= min_size <= max_size <= 300, got [1000, 1000]"),
            ({"--folds": "1"}, "bag size 2: need at least 2 folds, got 1"),
            ({"--sizes": ","}, "--sizes is empty"),
            ({"--hidden": "3,x"}, "--hidden expects a comma-separated integer list"),
            ({"--methods": ","}, "--methods is empty"),
            ({"--methods": "dllp,gan"}, "unknown method 'gan'"),
            ({"--data": "unlabeled.csv"}, "{data} has no label column"),
            ({"--hidden": "99999999999999999999"},
             "architecture (2, 99999999999999999999, 1) would need"),
        ],
        ids=[
            "size-too-large", "one-fold", "no-sizes", "bad-hidden", "no-methods",
            "unknown-method", "unlabeled", "huge-hidden",
        ],
    )
    def test_invalid_sweep_writes_nothing(
        self, tmp_path, instance_csv, unlabeled_csv, capsys, flags, message
    ):
        flags = {"--data": instance_csv.name, "--sizes": "2", "--methods": "dllp",
                 "--folds": "3", **flags}
        flags["--data"] = str(tmp_path / flags["--data"])
        code, stdout, err = run(
            capsys, "sweep", *(part for flag in flags.items() for part in flag),
            "--epochs", "1", "--out", str(tmp_path / "sweep" / "s.csv"),
        )
        assert code == 2
        assert stdout == ""
        lines = err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: " + message.format(data=flags["--data"]))
        assert not (tmp_path / "sweep").exists()

    def test_supervised_upper_bounds_count_methods_on_easy_data(
        self, tmp_path, capsys
    ):
        # Supervision through counts can only lose information, so on easy
        # data the supervised row should top the table.
        data = tmp_path / "easy.csv"
        code, _, _ = run(
            capsys, "synth", "--n", "480", "--sep", "3", "--seed", "303",
            "--out", str(data),
        )
        assert code == 0
        out = tmp_path / "results.csv"
        code, _, _ = run(
            capsys, "sweep", "--data", str(data), "--sizes", "8",
            "--methods", "mle,dllp,supervised", "--folds", "3",
            "--epochs", "30", "--hidden", "16", "--seed", "4",
            "--out", str(out),
        )
        assert code == 0
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        accuracy = {row[0]: float(row[2]) for row in rows}
        assert accuracy["supervised"] >= accuracy["mle"]
        assert accuracy["supervised"] >= accuracy["dllp"]


def snapshot(root):
    """Every path under ``root``, with a file's bytes."""
    return {p: p.is_file() and p.read_bytes() for p in root.rglob("*")}


class TestOutputRoot:
    @pytest.fixture
    def argv(self, tmp_path, instance_csv, bag_csv):
        """Each command's flags but --out, for a small run that succeeds."""
        checkpoint = tmp_path / "checkpoint.json"
        network.save_checkpoint(checkpoint, network.init_params((2, 4, 1), seed=0))
        return {
            "synth": ["--n", "10"],
            "bag": ["--in", str(instance_csv)],
            "train": ["--method", "amle", "--bags", str(bag_csv), "--epochs", "1"],
            "eval": ["--checkpoint", str(checkpoint), "--data", str(instance_csv)],
            "sweep": [
                "--data", str(instance_csv), "--sizes", "2", "--methods", "dllp",
                "--folds", "3", "--epochs", "1",
            ],
        }

    def test_relative_paths_resolve_against_env_root(
        self, tmp_path, monkeypatch, capsys
    ):
        root = tmp_path / "outputs"
        root.mkdir()
        monkeypatch.setenv("LLPKIT_OUT", str(root))
        monkeypatch.chdir(tmp_path)
        code, _, _ = run(capsys, "synth", "--n", "50", "--out", "data.csv")
        assert code == 0
        assert (root / "data.csv").exists()
        assert not (tmp_path / "data.csv").exists()

    def test_missing_env_root_is_made(self, tmp_path, monkeypatch, capsys):
        root = tmp_path / "outputs" / "today"
        monkeypatch.setenv("LLPKIT_OUT", str(root))
        monkeypatch.chdir(tmp_path)
        code, _, _ = run(capsys, "synth", "--n", "50", "--out", "data.csv")
        assert code == 0
        assert (root / "data.csv").exists()

    @pytest.mark.parametrize("command", ["synth", "bag", "train", "eval", "sweep"])
    def test_missing_parent_directories_are_made(self, tmp_path, argv, capsys, command):
        out = tmp_path / "new" / "deeper" / "x.csv"
        code, _, err = run(capsys, command, *argv[command], "--out", str(out))
        assert code == 0, err
        expected = out / "manifest.json" if command == "train" else out
        assert expected.is_file()

    @pytest.mark.parametrize("command", ["synth", "bag", "train", "eval", "sweep"])
    def test_out_of_the_wrong_kind_writes_nothing(
        self, tmp_path, argv, capsys, command
    ):
        """An --out that names an existing directory (an existing file for
        train) is a usage error before any work."""
        if command == "train":
            out, message = tmp_path / "afile", "is a file, not a directory"
            out.write_text("kept\n")
        else:
            out, message = tmp_path / "adir", "is a directory, not a file"
            out.mkdir()
        before = snapshot(tmp_path)
        code, stdout, err = run(capsys, command, *argv[command], "--out", str(out))
        assert code == 2
        assert stdout == ""
        assert err.splitlines() == [f"error: --out {out} {message}"]
        assert snapshot(tmp_path) == before

    @pytest.mark.parametrize("below", ["x.csv", "deeper/x.csv"])
    @pytest.mark.parametrize("command", ["synth", "bag", "train", "eval", "sweep"])
    def test_out_below_a_file_writes_nothing(
        self, tmp_path, argv, capsys, command, below
    ):
        """An --out whose nearest existing ancestor is a file is a usage
        error before any work."""
        blocker = tmp_path / "afile"
        blocker.write_text("kept\n")
        out = blocker / below
        before = snapshot(tmp_path)
        code, stdout, err = run(capsys, command, *argv[command], "--out", str(out))
        assert code == 2
        assert stdout == ""
        assert err.splitlines() == [
            f"error: --out {out} is below {blocker}, which is not a directory"
        ]
        assert snapshot(tmp_path) == before

    def test_absolute_paths_ignore_env_root(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("LLPKIT_OUT", str(tmp_path / "elsewhere"))
        target = tmp_path / "direct.csv"
        code, _, _ = run(capsys, "synth", "--n", "50", "--out", str(target))
        assert code == 0
        assert target.exists()


class TestErrorContract:
    @pytest.mark.parametrize(
        "failure,expected_code",
        [("usage", 2), ("format", 2), ("numerical", 1), ("io", 1), ("memory", 1)],
    )
    def test_every_failure_class_is_one_error_line(
        self, tmp_path, bag_csv, monkeypatch, capsys, failure, expected_code
    ):
        bags, epochs = str(bag_csv), "2"
        if failure == "usage":
            epochs = "0"
        elif failure == "format":
            bags = str(tmp_path / "bad.csv")
            (tmp_path / "bad.csv").write_text("bag_id,y,n\n0,1,x\n")
        elif failure == "numerical":
            monkeypatch.setattr(
                objectives, "m_step_loss",
                lambda probs, targets: (float("nan"), np.zeros_like(probs)),
            )
        elif failure == "io":
            bags = str(tmp_path / "missing.csv")
        else:
            def out_of_memory(*args, **kwargs):
                raise MemoryError()

            monkeypatch.setattr(training, "train", out_of_memory)
        code, _, err = run(
            capsys, "train", "--method", "supervised", "--bags", bags,
            "--epochs", epochs, "--out", str(tmp_path / "run"),
        )
        assert code == expected_code
        lines = err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: ") and len(lines[0]) > len("error: ")

    def test_missing_file_is_single_line_error(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "train", "--method", "mle", "--bags", str(tmp_path / "no.csv"),
            "--out", str(tmp_path / "out"),
        )
        assert code == 1
        lines = [line for line in err.splitlines() if line]
        assert len(lines) == 1
        assert lines[0].startswith("error: ")

    def test_unknown_command(self, capsys):
        code, _, _ = run(capsys, "frobnicate")
        assert code == 2

    @pytest.mark.parametrize("command", ["synth", "bag", "train", "sweep"])
    def test_negative_seed_writes_nothing(
        self, tmp_path, instance_csv, bag_csv, capsys, command
    ):
        argv = {
            "synth": ["--n", "10"],
            "bag": ["--in", str(instance_csv)],
            "train": ["--method", "mle", "--bags", str(bag_csv)],
            "sweep": [
                "--data", str(instance_csv), "--sizes", "2", "--methods", "dllp",
            ],
        }[command]
        out = tmp_path / "out" / "result"
        code, stdout, err = run(
            capsys, command, *argv, "--seed", "-1", "--out", str(out)
        )
        assert code == 2
        assert stdout == ""
        assert err.splitlines() == ["error: seed must be nonnegative, got -1"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["synth", "bag", "train", "eval", "sweep"])
    def test_empty_out_writes_nothing(
        self, tmp_path, instance_csv, bag_csv, monkeypatch, capsys, command
    ):
        checkpoint = tmp_path / "checkpoint.json"
        network.save_checkpoint(checkpoint, network.init_params((2, 4, 1), seed=0))
        argv = {
            "synth": ["--n", "10"],
            "bag": ["--in", str(instance_csv)],
            "train": ["--method", "amle", "--bags", str(bag_csv), "--epochs", "1"],
            "eval": ["--checkpoint", str(checkpoint), "--data", str(instance_csv)],
            "sweep": [
                "--data", str(instance_csv), "--sizes", "2", "--methods", "dllp",
                "--epochs", "1",
            ],
        }[command]
        workdir = tmp_path / "cwd"
        workdir.mkdir()
        monkeypatch.chdir(workdir)
        monkeypatch.delenv("LLPKIT_OUT", raising=False)
        before = sorted(tmp_path.rglob("*"))
        code, stdout, err = run(capsys, command, *argv, "--out", "")
        assert code == 2
        assert stdout == ""
        assert err.splitlines() == ["error: --out is empty"]
        assert sorted(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize("quote", ['"', ""], ids=["quoted", "bare"])
    def test_cell_over_csv_field_limit_writes_nothing(self, tmp_path, capsys, quote):
        # numpy's reader declines both files, one for its quote and the
        # other for a line past csv.reader's default field size limit of
        # 131 072 characters, so csv.reader rejects the cell in both.
        data = tmp_path / "big.csv"
        cell = f"{quote}{'0' * 200_000}1.5{quote}"
        data.write_text(f"f0,f1,label\n{cell},2.0,1\n3.0,4.0,0\n")
        out = tmp_path / "out" / "bags.csv"
        code, stdout, err = run(capsys, "bag", "--in", str(data), "--out", str(out))
        assert code == 2
        assert stdout == ""
        assert err.splitlines() == [
            f"error: {data}: line 2: field larger than field limit (131072)"
        ]
        assert not (tmp_path / "out").exists()


class TestBagCsvErrors:
    """A malformed bag file is a format error: one ``error:`` line naming
    the file, line and column, and the usage exit code."""

    @pytest.mark.parametrize(
        "text,where",
        [
            ("0,1,1\n0,x7,1.0,0.5,1\n", "line 3, column 2: 'x7' is not an integer"),
            (
                "0,1,1\n0,0,1.0,0.5,1\n1,0,1\n1,1,2.0,nan,0\n",
                "line 5, column 4: 'nan' is not a finite number",
            ),
            ("0,1,1\n0,0,1.0,0.5,1\n1,y,1\n1,1,2.0,0.5,0\n", "line 4: expected bag summary"),
            (
                "0,1,2\n0,0,1.0,0.5,1\n1,1,2.0,0.5,0\n",
                "line 4, column 1: bag_id '1' is not 0, the id of its bag summary",
            ),
            ("", "no bags"),
        ],
        ids=["instance-id", "nan-feature", "bag-summary", "bag-id", "header-only"],
    )
    def test_single_error_line(self, tmp_path, capsys, text, where):
        bags = tmp_path / "bad.csv"
        bags.write_text("bag_id,y,n\n" + text, encoding="utf-8")
        code, out, err = run(
            capsys, "train", "--bags", str(bags), "--method", "amle",
            "--epochs", "1", "--out", str(tmp_path / "run"),
        )
        assert code == 2
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error: {bags}: ")
        assert where in lines[0]
        assert not (tmp_path / "run").exists()


class TestNonUtf8Input:
    """A file that is not UTF-8 text is a format error naming the file:
    one ``error:`` line and the usage exit code."""

    @pytest.fixture
    def latin1_csv(self, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes("f0,label\n1.0,0\n\u00e9,1\n".encode("latin-1"))
        return path

    def check_single_error(self, capsys, path, *argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert str(path) in lines[0] and "UTF-8" in lines[0]

    def test_eval_checkpoint(self, tmp_path, instance_csv, capsys):
        checkpoint = tmp_path / "checkpoint.json"
        checkpoint.write_bytes(b'{"format": "llpkit-checkpoint\xff"}\n')
        self.check_single_error(
            capsys, checkpoint,
            "eval", "--checkpoint", str(checkpoint), "--data", str(instance_csv),
        )

    def test_bag_instances(self, tmp_path, latin1_csv, capsys):
        self.check_single_error(
            capsys, latin1_csv,
            "bag", "--in", str(latin1_csv), "--out", str(tmp_path / "bags.csv"),
        )

    def test_train_bags(self, tmp_path, latin1_csv, capsys):
        self.check_single_error(
            capsys, latin1_csv,
            "train", "--method", "amle", "--bags", str(latin1_csv),
            "--out", str(tmp_path / "run"),
        )
