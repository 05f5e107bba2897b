"""Command-line front end: synth, bag, train, eval, sweep.

Every command is batch-style and reproducible: the train and sweep
commands write a manifest (resolved config, dataset content hash, seed,
tool version, output paths) before any training starts, and rerunning with
the same flags produces identical output files except for wall-clock
columns.  Exit codes: 0 success, 1 numerical, I/O or out-of-memory
failure, 2 usage error.  Errors print a single ``error: ...`` line on
stderr.

Relative output paths resolve against the ``LLPKIT_OUT`` environment
variable when it is set.  Before any work, every command rejects an
``--out`` that names an existing directory (for ``train``, an existing
file) or lies below an existing file.
"""

import argparse
import hashlib
import os
import sys
from collections import Counter
from dataclasses import asdict, fields
from pathlib import Path

from . import __version__, data, network, training
from .errors import LlpError, UsageError
from .files import write_json, write_lines


def _out_path(raw, directory=False) -> Path:
    """Resolve ``--out``; an existing path of the wrong kind, or one below
    an existing file, is a UsageError."""
    if raw == "":
        raise UsageError("--out is empty")
    path = Path(raw)
    root = os.environ.get("LLPKIT_OUT")
    if root and not path.is_absolute():
        path = Path(root) / path
    if path.exists() and path.is_dir() != directory:
        found, wanted = ("file", "directory") if directory else ("directory", "file")
        raise UsageError(f"--out {path} is a {found}, not a {wanted}")
    ancestor = next((p for p in path.parents if p.exists()), None)
    if ancestor is not None and not ancestor.is_dir():
        raise UsageError(f"--out {path} is below {ancestor}, which is not a directory")
    return path


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _parse_int_list(text, flag) -> list[int]:
    try:
        values = [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise UsageError(f"{flag} expects a comma-separated integer list") from exc
    if not values:
        raise UsageError(f"{flag} is empty")
    return values


def _train_config(args, **overrides) -> training.TrainConfig:
    # A training flag left out is absent from args, so TrainConfig's
    # default holds; each flag's dest is its TrainConfig field.
    names = {f.name for f in fields(training.TrainConfig)}
    given = {name: value for name, value in vars(args).items() if name in names}
    if "hidden_widths" in given:
        given["hidden_widths"] = _parse_int_list(given["hidden_widths"], "--hidden")
    return training.TrainConfig(**{**given, **overrides})


def _manifest(command, config, dataset_path, outputs) -> dict:
    return {
        "tool": "llpkit",
        "version": __version__,
        "command": command,
        "config": asdict(config),
        "seed": config.seed,
        "dataset": {
            "path": str(dataset_path),
            "sha256": _sha256(dataset_path),
        },
        "outputs": {name: str(p) for name, p in outputs.items()},
    }


def cmd_synth(args) -> int:
    out = _out_path(args.out)
    instances = data.generate_synthetic(args.n, args.dim, args.sep, args.prior, args.seed)
    data.save_instances_csv(out, instances)
    positives = int(instances.labels.sum())
    print(
        f"wrote {len(instances)} instances ({positives} positive, "
        f"{len(instances) - positives} negative) to {out}"
    )
    return 0


def cmd_bag(args) -> int:
    out = _out_path(args.out)
    instances = data.load_instances_csv(args.input)
    dataset = data.make_bags(instances, args.min_size, args.max_size, args.seed)
    data.save_bags_csv(out, dataset)
    histogram = Counter(dataset.sizes.tolist())
    positives = int(dataset.counts.sum())
    total = dataset.num_instances
    print(f"bags: {dataset.num_bags}")
    print(
        "size histogram: "
        + " ".join(f"{size}:{histogram[size]}" for size in sorted(histogram))
    )
    print(f"positives: {positives}/{total} ({100.0 * positives / total:.1f}%)")
    print(f"wrote {out}")
    return 0


def cmd_train(args) -> int:
    out_dir = _out_path(args.out, directory=True)
    dataset = data.load_bags_csv(args.bags)
    config = _train_config(args)
    # Before anything is written: fails on fewer bags than folds, and on
    # data the run cannot use.
    if args.folds is not None:
        if args.eval_data is not None:
            raise UsageError(
                "--eval cannot be combined with --folds: cross-validation scores "
                "each held-out fold instead"
            )
        dataset = data.assign_folds(dataset, args.folds, config.seed)
        training.check_cross_validate(dataset, config)
        outputs = {"summary": out_dir / "cv_summary.json"}
        for fold in range(args.folds):
            outputs[f"curve_fold{fold}"] = out_dir / f"curve_fold{fold}.csv"
    else:
        eval_instances = None
        if args.eval_data is not None:
            eval_instances = data.load_instances_csv(args.eval_data)
        training.check_train(dataset, config, eval_instances)
        outputs = {
            "checkpoint": out_dir / "checkpoint.json",
            "curve": out_dir / "curve.csv",
        }
    manifest = _manifest("train", config, args.bags, outputs)
    write_json(out_dir / "manifest.json", manifest, indent=2)

    if args.folds is not None:
        result = training.cross_validate(dataset, config)
        write_json(outputs["summary"], result.summary(), indent=2)
        for fr in result.folds:
            fr.record.write_csv(outputs[f"curve_fold{fr.fold}"])
        print(
            f"{config.method}: {len(result.folds)}-fold accuracy "
            f"{result.mean_accuracy:.6f} +- {result.std_accuracy:.6f}"
        )
        return 0

    params, record = training.train(dataset, config, eval_instances=eval_instances)
    network.save_checkpoint(outputs["checkpoint"], params)
    record.write_csv(outputs["curve"])
    last = record.rows[-1]
    line = f"{config.method}: {last.epoch} epochs, final loss {last.loss:.6f}"
    if last.log_likelihood is not None:
        line += f", log-likelihood {last.log_likelihood:.6f}"
    if last.test_accuracy is not None:
        line += f", test accuracy {last.test_accuracy:.6f}"
    print(line)
    print(f"wrote {outputs['checkpoint']} and {outputs['curve']}")
    return 0


def cmd_eval(args) -> int:
    out = _out_path(args.out) if args.out is not None else None
    params, _ = network.load_checkpoint(args.checkpoint)
    instances = data.load_instances_csv(args.data)
    metrics = training.evaluate(params, instances, args.threshold)
    payload = metrics.as_dict()
    payload["accuracy"] = round(payload["accuracy"], 6)
    print(f"accuracy: {metrics.accuracy:.6f}")
    print(
        f"confusion: tp={metrics.true_positive} fp={metrics.false_positive} "
        f"tn={metrics.true_negative} fn={metrics.false_negative}"
    )
    if out is not None:
        write_json(out, payload, indent=2)
        print(f"wrote {out}")
    return 0


def cmd_sweep(args) -> int:
    out = _out_path(args.out)
    instances = data.load_instances_csv(args.data)
    if instances.labels is None:
        raise UsageError(f"{args.data} has no label column")
    sizes = _parse_int_list(args.sizes, "--sizes")
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    if not methods:
        raise UsageError("--methods is empty")
    configs = [_train_config(args, method=method) for method in methods]
    # Before anything is written: every size must give enough bags.
    training.check_sweep(len(instances), sizes, args.folds)

    manifest = _manifest("sweep", configs[0], args.data, {"results": out})
    manifest["sizes"] = sizes
    manifest["methods"] = methods
    manifest["folds"] = args.folds
    write_json(out.with_name(out.name + ".manifest.json"), manifest, indent=2)

    lines = ["method,bag_size,mean_accuracy,std"]
    for config in configs:
        for row in training.bag_size_sweep(instances, sizes, config, k=args.folds):
            lines.append(
                f"{config.method},{row.bag_size},{row.mean_accuracy!r},"
                f"{row.std_accuracy!r}"
            )
            print(
                f"{config.method} size {row.bag_size}: accuracy "
                f"{row.mean_accuracy:.6f} +- {row.std_accuracy:.6f}"
            )
    write_lines(out, lines)
    print(f"wrote {out}")
    return 0


def _add_train_flags(parser) -> None:
    group = parser.add_argument_group("training", argument_default=argparse.SUPPRESS)
    group.add_argument("--epochs", dest="max_epochs", type=int, help="epoch cap")
    group.add_argument("--batch-size", type=int,
                       help="instances (mle/supervised) or bags (amle/dllp)")
    group.add_argument("--lr", dest="learning_rate", type=float, help="learning rate")
    group.add_argument("--seed", type=int)
    group.add_argument("--patience", type=int, help="early-stop patience in epochs")
    group.add_argument("--rel-tol", type=float,
                       help="relative improvement threshold for early stop")
    group.add_argument("--threshold", type=float, help="decision threshold")
    group.add_argument("--hidden", dest="hidden_widths",
                       help="comma-separated hidden layer widths")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="llpkit",
        description="Train instance classifiers from bag-level positive counts.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    synth = sub.add_parser("synth", help="generate labeled Gaussian-blob instances")
    synth.add_argument("--n", type=int, required=True, help="instance count")
    synth.add_argument("--dim", type=int, default=2, help="feature dimension")
    synth.add_argument("--sep", type=float, default=4.0,
                       help="distance between class means")
    synth.add_argument("--prior", type=float, default=0.5,
                       help="positive-class probability")
    synth.add_argument("--seed", type=int, default=0)
    synth.add_argument("--out", required=True, help="instance CSV to write")
    synth.set_defaults(func=cmd_synth)

    bag = sub.add_parser("bag", help="group labeled instances into counted bags")
    bag.add_argument("--in", dest="input", required=True, help="instance CSV")
    bag.add_argument("--min", dest="min_size", type=int, default=1,
                     help="smallest bag size")
    bag.add_argument("--max", dest="max_size", type=int, default=12,
                     help="largest bag size")
    bag.add_argument("--seed", type=int, default=0)
    bag.add_argument("--out", required=True, help="bag CSV to write")
    bag.set_defaults(func=cmd_bag)

    train = sub.add_parser("train", help="train a classifier on a bag file")
    train.add_argument("--bags", required=True, help="bag CSV")
    train.add_argument("--method", required=True, choices=training.METHODS)
    train.add_argument("--out", required=True, help="output directory")
    train.add_argument("--folds", type=int, default=None,
                       help="run k-fold cross-validation instead of one fit")
    train.add_argument("--eval", dest="eval_data", default=None,
                       help="labeled instance CSV scored after every epoch "
                            "(not with --folds)")
    _add_train_flags(train)
    train.set_defaults(func=cmd_train)

    evalp = sub.add_parser("eval", help="score a checkpoint on labeled instances")
    evalp.add_argument("--checkpoint", required=True)
    evalp.add_argument("--data", required=True, help="labeled instance CSV")
    evalp.add_argument("--threshold", type=float, default=0.5)
    evalp.add_argument("--out", default=None, help="metrics JSON to write")
    evalp.set_defaults(func=cmd_eval)

    sweep = sub.add_parser("sweep", help="cross-validated accuracy per bag size")
    sweep.add_argument("--data", required=True, help="labeled instance CSV")
    sweep.add_argument("--sizes", required=True, help="comma-separated bag sizes")
    sweep.add_argument("--methods", required=True,
                       help="comma-separated subset of " + ",".join(training.METHODS))
    sweep.add_argument("--out", required=True, help="results CSV to write")
    sweep.add_argument("--folds", type=int, default=10)
    _add_train_flags(sweep)
    sweep.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except UsageError as exc:
        message, code = str(exc), 2
    except (LlpError, OSError) as exc:
        message, code = str(exc), 1
    except MemoryError as exc:
        # str(MemoryError()) is empty.
        message, code = f"out of memory {exc}".rstrip(), 1
    print(f"error: {message}", file=sys.stderr)
    return code


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
