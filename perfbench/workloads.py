"""The benchmark's workloads: inputs, the timed pipeline, checks, metrics.

Every workload runs the same user pipeline on its own inputs, so every
end-to-end metric is measured on every workload:

1. ``llpkit bag`` (through ``llpkit.cli.main``) groups a labeled instance
   CSV into a bag CSV;
2. ``load_bags_csv`` (and ``load_instances_csv`` for a separate held-out
   set) reads the inputs back;
3. the workload's training step (one ``train``, a ``cross_validate`` per
   method, or a fold split and a short ``train``), scoring held-out
   accuracy after every epoch with early stopping off;
4. ``save_checkpoint`` and ``load_checkpoint`` of the trained model;
5. ``llpkit eval`` of that checkpoint on a labeled instance CSV.

The sizes decide which step carries the load.  All inputs are made here
from ``--seed``; llpkit only sees the files and objects made from them.
"""

import contextlib
import gc
import io
import json
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field, replace

import numpy as np

from llpkit import cli, data, network, poisson_binomial, training

import checks
from checks import CheckError
from speed import Probe, scaled
from tracing import TRACED, Tracer

# TrainConfig's default seed.  --seed varies the data, not the network's
# initialisation: with prior 1/2 and bags of 16-64 the count likelihood is
# nearly symmetric under swapping the classes, and an initialisation that
# starts swapped takes tens of epochs to recover, so time-to-target would
# measure the draw of the initialisation rather than the program.
TRAIN_SEED = 0

# Posterior checks per fit: bags sampled for the leave-one-out comparison.
POSTERIOR_SAMPLES = 8


@dataclass(frozen=True)
class Workload:
    name: str
    sep: float  # distance between the class means
    bag_range: tuple[int, int]
    n_train: int  # instances in the CSV that gets bagged
    n_heldout: int  # separate labeled held-out CSV; 0: hold out fold 0
    datasets: int  # independent datasets per round
    fit: str  # "single", "cv" or "split"
    methods: tuple[str, ...]
    epochs: int
    batch_size: int  # instances for mle, bags for amle and dllp
    learning_rate: float
    target_fraction: float  # target accuracy, as a share of the Bayes accuracy
    folds: int = 0

    @property
    def target(self) -> float:
        return self.target_fraction * checks.bayes_accuracy(self.sep)


# Why each workload is here: BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "em-small-bags",
            sep=2.0, bag_range=(2, 4), n_train=3000, n_heldout=2000, datasets=4,
            fit="single", methods=("mle",), epochs=10, batch_size=256,
            learning_rate=1e-3, target_fraction=0.90,
        ),
        Workload(
            "em-large-bags",
            sep=4.0, bag_range=(16, 64), n_train=3000, n_heldout=2000, datasets=2,
            fit="single", methods=("mle",), epochs=4, batch_size=256,
            learning_rate=3e-3, target_fraction=0.90,
        ),
        Workload(
            "baselines-cv",
            sep=2.0, bag_range=(2, 4), n_train=3000, n_heldout=2000, datasets=2,
            fit="cv", methods=("amle", "dllp"), epochs=10, batch_size=64,
            learning_rate=1e-3, target_fraction=0.90, folds=5,
        ),
        Workload(
            "ingest",
            sep=4.0, bag_range=(1, 8), n_train=100_000, n_heldout=0, datasets=1,
            fit="split", methods=("amle",), epochs=3, batch_size=64,
            learning_rate=1e-3, target_fraction=0.95, folds=10,
        ),
    )
}


def tiny(w: Workload) -> Workload:
    """The same workload at a size that runs in about a second.

    The target is lowered to half the Bayes accuracy because two epochs on
    a few hundred instances need not get further; every check still runs.
    """
    n = 2000 if w.fit == "split" else 400
    return replace(
        w, n_train=n, n_heldout=min(w.n_heldout, 300), datasets=1,
        epochs=2, target_fraction=0.5,
        bag_range=(w.bag_range[0], min(w.bag_range[1], 16)),
    )


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------


def blobs(seed: int, index: int, role: int, n: int, sep: float):
    """Two unit-variance 2-d Gaussian blobs at prior 1/2, means ``sep`` apart
    along the first axis (the acceptance suite's synthetic data)."""
    rng = np.random.default_rng([seed, index, role])
    labels = (rng.random(n) < 0.5).astype(np.int64)
    features = rng.standard_normal((n, 2))
    features[:, 0] += sep * labels
    return features, labels


@dataclass
class Dataset:
    """One generated dataset and the paths of everything the pipeline writes."""

    index: int
    features: np.ndarray
    labels: np.ndarray
    held_features: np.ndarray | None
    held_labels: np.ndarray | None
    directory: str

    def path(self, name: str) -> str:
        return os.path.join(self.directory, f"d{self.index}-{name}")


def make_inputs(w: Workload, seed: int, directory: str) -> list[Dataset]:
    datasets = []
    for index in range(w.datasets):
        features, labels = blobs(seed, index, 0, w.n_train, w.sep)
        held = blobs(seed, index, 1, w.n_heldout, w.sep) if w.n_heldout else (None, None)
        ds = Dataset(index, features, labels, *held, directory)
        checks.write_instance_csv(ds.path("train.csv"), features, labels)
        if w.n_heldout:
            checks.write_instance_csv(ds.path("heldout.csv"), *held)
        datasets.append(ds)
    return datasets


# ---------------------------------------------------------------------------
# The timed pipeline
# ---------------------------------------------------------------------------


class OperationFailed(Exception):
    pass


def llpkit_cli(argv) -> None:
    """Run one llpkit command in process, capturing its console output."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([str(a) for a in argv])
    if code != 0:
        raise OperationFailed(f"llpkit {argv[0]} exited {code}: {err.getvalue().strip()}")


def config(w: Workload, method: str) -> training.TrainConfig:
    # patience == epochs: early stopping can never trigger.
    return training.TrainConfig(
        method=method, max_epochs=w.epochs, patience=w.epochs,
        batch_size=w.batch_size, learning_rate=w.learning_rate, seed=TRAIN_SEED,
    )


@dataclass
class FitCall:
    """One call into training: wall-clock and the curves it produced."""

    label: str
    wall: float  # own seconds, without the probe runs inside it
    probe: float  # median probe seconds around and inside the call
    records: list
    scored: bool  # counts towards the epoch and target metrics
    cv: object = None  # the CrossValResult, for a cross_validate call


@dataclass
class PipelineResult:
    dataset: Dataset
    ops_done: int = 0
    error: str | None = None
    times: dict = field(default_factory=dict)  # operation -> seconds
    probes: dict = field(default_factory=dict)  # operation -> probe seconds
    fits: list = field(default_factory=list)
    loaded: object = None
    folded: object = None
    held_count: int = 0
    params: object = None
    reloaded: object = None


def ops_per_dataset(w: Workload) -> int:
    # bag, load, fit steps, checkpoint, eval
    fit_ops = {"single": 1, "cv": len(w.methods) + 1, "split": 2}[w.fit]
    return 4 + fit_ops


def pipeline(w: Workload, ds: Dataset, probe: Probe | None, inside: bool = True) -> PipelineResult:
    """One dataset through the pipeline, every operation timed with the
    speed probe (untimed without one).  ``inside`` false keeps the probe
    out of the operations, so that traced self times do not include it."""
    res = PipelineResult(ds)

    def timed(op, fn, *args, **kwargs):
        if probe is None:
            value, res.times[op], res.probes[op] = fn(*args, **kwargs), 0.0, 1.0
        else:
            value, res.times[op], res.probes[op] = probe.time(fn, *args, inside=inside, **kwargs)
        res.ops_done += 1
        return value

    def load():
        bags = data.load_bags_csv(ds.path("bags.csv"))
        return bags, data.load_instances_csv(ds.path("heldout.csv")) if w.n_heldout else None

    def split():
        folded = data.assign_folds(res.loaded, w.folds, TRAIN_SEED)
        return folded, folded.fold_split(0)

    def checkpoint():
        network.save_checkpoint(ds.path("checkpoint.json"), res.params)
        return network.load_checkpoint(ds.path("checkpoint.json"))[0]

    def fit(label, scored, fn, *args, **kwargs):
        op = f"fit{len(res.fits)}"
        value = timed(op, fn, *args, **kwargs)
        cv = value if fn is training.cross_validate else None
        records = [f.record for f in cv.folds] if cv else [value[1]]
        res.fits.append(FitCall(label, res.times[op], res.probes[op], records, scored, cv))
        return value

    try:
        # The bagging seed is the dataset's index, not --seed, so the bag
        # sizes, which set the E-step's cost, are the same for every --seed.
        timed("bag", llpkit_cli, [
            "bag", "--in", ds.path("train.csv"), "--min", w.bag_range[0], "--max",
            w.bag_range[1], "--seed", ds.index, "--out", ds.path("bags.csv"),
        ])
        res.loaded, held = timed("load", load)
        method = w.methods[0]
        if w.fit == "single":
            res.params, _ = fit(method, True, training.train, res.loaded, config(w, method), eval_instances=held)
        elif w.fit == "cv":
            res.folded = data.assign_folds(res.loaded, w.folds, TRAIN_SEED)
            for m in w.methods:
                fit(m, True, training.cross_validate, res.folded, config(w, m))
            # The model a user keeps after choosing by cross-validation.
            res.params, _ = fit("final", False, training.train, res.loaded, config(w, method), eval_instances=held)
        else:
            res.folded, (train_set, held) = timed("split", split)
            res.held_count = len(held)
            res.params, _ = fit(method, True, training.train, train_set, config(w, method), eval_instances=held)
        res.reloaded = timed("checkpoint", checkpoint)
        eval_csv = ds.path("heldout.csv") if w.n_heldout else ds.path("train.csv")
        timed("eval", llpkit_cli, [
            "eval", "--checkpoint", ds.path("checkpoint.json"), "--data", eval_csv,
            "--out", ds.path("eval.json"),
        ])
    except Exception as exc:  # a failed operation is counted, not fatal
        res.error = f"{type(exc).__name__}: {exc}"
    return res


# ---------------------------------------------------------------------------
# Checks of one pipeline's outputs
# ---------------------------------------------------------------------------


def curve_text(record, path) -> str:
    """The curve CSV the program writes, without its wall-clock column."""
    record.write_csv(path)
    with open(path, encoding="utf-8") as fh:
        return "".join(line.rsplit(",", 1)[0] + "\n" for line in fh)


def check_pipeline(w: Workload, res: PipelineResult, seed: int) -> dict:
    """Run every check on a finished pipeline; returns what the metrics
    need (the epoch at which each scored curve reached the target, its
    final accuracy, the training rows of all fits, instance counts) and
    the outputs every later round must reproduce."""
    ds = res.dataset
    bags = checks.read_bag_csv(ds.path("bags.csv"))
    n_bagged = checks.check_bag_file(bags, ds.features, ds.labels, w.bag_range)
    sizes = np.array([len(b[1]) for b in bags])

    data.save_bags_csv(ds.path("resaved.csv"), res.loaded)
    checks.check_same_bytes(ds.path("bags.csv"), ds.path("resaved.csv"), "reloaded bags")

    checks.check_checkpoint(res.params, res.reloaded, ds.path("checkpoint.json"))
    layer_sizes, theta = checks.read_checkpoint(ds.path("checkpoint.json"))

    def predictions(features):
        return (checks.forward_ref(layer_sizes, theta, features) >= 0.5).astype(np.int64)

    # Held-out set of the final model, and what llpkit eval scored.
    if w.n_heldout:
        held_x, held_y = ds.held_features, ds.held_labels
        eval_x, eval_y = held_x, held_y
    else:
        in_fold0 = [j for j, f in sorted(res.folded.fold_assignment.items()) if f == 0]
        held_x = np.vstack([bags[j][2] for j in in_fold0])
        held_y = np.concatenate([bags[j][3] for j in in_fold0])
        if len(held_y) != res.held_count:
            raise CheckError(f"fold 0 holds {res.held_count} instances, its bags {len(held_y)}")
        eval_x, eval_y = ds.features, ds.labels
    with open(ds.path("eval.json"), encoding="utf-8") as fh:
        checks.check_eval_output(json.load(fh), predictions(eval_x), eval_y)

    reached, final_acc, train_rows = [], [], 0
    for fit in res.fits:
        for fold, record in enumerate(fit.records):
            where = f"dataset {ds.index} {fit.label}" + (f" fold {fold}" if fit.cv else "")
            if len(record.rows) != w.epochs:
                raise CheckError(f"{where}: {len(record.rows)} epochs, expected {w.epochs}")
            accs = [row.test_accuracy for row in record.rows]
            if fit.cv:
                scored = fit.cv.folds[fold].metrics
                epoch = checks.check_accuracy_curve(
                    accs, w.target, checks.accuracy_ceiling(w.sep, scored.count), where
                )
                if scored.accuracy != accs[-1]:
                    raise CheckError(f"{where}: evaluate and the curve disagree on accuracy")
                train_rows += (n_bagged - scored.count) * len(record.rows)
            else:
                ceiling = checks.accuracy_ceiling(w.sep, len(held_y))
                epoch = checks.check_accuracy_curve(accs, w.target, ceiling, where)
                checks.check_reported_accuracy(accs[-1], predictions(held_x), held_y, where)
                train_rows += (n_bagged - res.held_count) * len(record.rows)
            if fit.scored:
                reached.append(epoch)
                final_acc.append(accs[-1])
        if fit.cv:
            counts = {f.fold: f.metrics.count for f in fit.cv.folds}
            checks.check_folds(res.folded.fold_assignment, len(bags), w.folds, sizes, counts)
            checks.check_cv_mean(fit.cv.mean_accuracy, [f.metrics.accuracy for f in fit.cv.folds])

    if "mle" in w.methods:
        record = res.fits[0].records[0]
        checks.check_log_likelihood(record.rows[-1].log_likelihood, bags, layer_sizes, theta)
        rng = np.random.default_rng([seed, ds.index, 2])
        for j in rng.choice(len(bags), size=min(POSTERIOR_SAMPLES, len(bags)), replace=False):
            y, _, feats, _ = bags[j]
            p = checks.clamp(checks.forward_ref(layer_sizes, theta, feats))
            checks.check_posteriors(
                poisson_binomial.instance_posteriors(p, y), p, y, f"dataset {ds.index} bag {j}"
            )

    return {
        "reached": reached,
        "final_accuracy": final_acc,
        "train_rows": train_rows,
        "n_loaded": n_bagged + (len(ds.held_labels) if w.n_heldout else 0),
        "n_eval": len(eval_y),
        "outputs": outputs(res),
    }


def outputs(res: PipelineResult) -> tuple:
    """Everything a pipeline wrote that must repeat exactly in every round
    (curves without their wall-clock column)."""
    files = []
    for name in ("bags.csv", "checkpoint.json", "eval.json"):
        with open(res.dataset.path(name), "rb") as fh:
            files.append(fh.read())
    curves = [
        curve_text(record, res.dataset.path("curve.csv"))
        for fit in res.fits for record in fit.records
    ]
    return tuple(files), tuple(curves)


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------


def setup(w: Workload, seed: int, directory: str, probe: Probe, repeats: int = 5):
    """Import llpkit in a fresh interpreter, make the inputs and warm the
    program up, ``repeats`` times.

    Returns the datasets and the median set-up time.  The warm-up runs the
    whole pipeline once on a slice of the first dataset, so first-call
    costs are paid before timing.
    """
    warm = replace(
        w, n_train=min(w.n_train, 200), n_heldout=min(w.n_heldout, 100),
        datasets=1, epochs=1, bag_range=(w.bag_range[0], min(w.bag_range[1], 8)),
    )
    warm_dir = os.path.join(directory, "warmup")
    os.makedirs(warm_dir, exist_ok=True)

    def once():
        subprocess.run(
            [sys.executable, "-c", "import sys; sys.path.insert(0, 'src'); import llpkit.cli"],
            check=True, timeout=60,
        )
        pipeline(warm, make_inputs(warm, seed, warm_dir)[0], None)
        return make_inputs(w, seed, directory)

    times = []
    for _ in range(repeats):
        datasets, seconds, probe_s = probe.time(once, inside=False)
        times.append(scaled(seconds, probe_s))
    return datasets, statistics.median(times)


def run(w: Workload, seed: int, seconds: float, trace: bool, directory: str, log):
    """Repeat whole rounds (one pipeline per dataset) for about ``seconds``.

    A new round starts only if the previous one suggests it ends in time;
    there is always one round, and in a traced run one untraced round
    followed by at least one traced round.  The first round's outputs are
    checked in full; every later round must reproduce them byte for byte
    (curves without their wall-clock column), which in a traced run is the
    check that tracing changed no result.
    """
    probe = Probe()
    datasets, setup_s = setup(w, seed, directory, probe)
    tracer = Tracer()
    if trace:
        import llpkit

        tracer.install(llpkit)

    rounds = []
    errors = []
    attempted = failed = 0
    first = {}  # dataset index -> what check_pipeline found in its first round
    start = time.perf_counter()
    try:
        while True:
            round_start = time.perf_counter()
            traced_round = trace and len(rounds) >= 1
            tracer.active = traced_round
            results = [pipeline(w, ds, probe, inside=not traced_round) for ds in datasets]
            tracer.active = False
            pipelines_s = time.perf_counter() - round_start
            info = {"traced": traced_round, "done": []}
            for res in results:
                attempted += ops_per_dataset(w)
                if res.error is not None:
                    failed += ops_per_dataset(w) - res.ops_done
                    log(f"dataset {res.dataset.index}: {res.error}")
                    continue
                try:
                    if res.dataset.index not in first:
                        first[res.dataset.index] = check_pipeline(w, res, seed)
                    elif outputs(res) != first[res.dataset.index]["outputs"]:
                        raise CheckError(
                            f"dataset {res.dataset.index}: outputs differ from its first round's"
                        )
                except CheckError as exc:
                    errors.append(str(exc))
                    log(f"check failed: {exc}")
                    continue
                # Keep timings and curves only, so memory does not grow with rounds.
                res.loaded = res.folded = res.params = res.reloaded = None
                info["done"].append(res)
            rounds.append(info)
            results = None
            gc.collect()

            # The next round costs about what this one's pipelines did; the
            # first round's full checks are not repeated.
            if len(rounds) >= (2 if trace else 1) and time.perf_counter() - start + pipelines_s > seconds:
                break
    finally:
        tracer.uninstall()
    log(f"{len(rounds)} rounds in {time.perf_counter() - start:.1f} s")
    return {
        "setup_s": setup_s,
        "rounds": rounds,
        "first": first,
        "errors": errors,
        "attempted": attempted,
        "failed": failed,
        "tracer": tracer,
    }


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------
# Every timing is scaled by the speed probe taken just before it (see
# speed.py), then summarised by its median over the run's repeats.


def round_s(rounds) -> float:
    """One round's time: the sum over its operations of each one's median."""
    samples = {}
    for info in rounds:
        for res in info["done"]:
            for op, seconds in res.times.items():
                key = (res.dataset.index, op)
                samples.setdefault(key, []).append(scaled(seconds, res.probes[op]))
    return sum(statistics.median(v) for v in samples.values())


def epoch_times(fit: FitCall):
    """Scaled per-epoch times of each curve of a training call: the
    program's cumulative epoch clock, stretched to the call's own time as
    measured here, so that work outside the epoch loop counts and the
    probe's runs inside the call do not."""
    stretch = fit.wall / sum(r.rows[-1].seconds for r in fit.records)
    return [
        scaled(np.diff([0.0] + [row.seconds for row in r.rows]) * stretch, fit.probe)
        for r in fit.records
    ]


def end_to_end(outcome) -> dict:
    """End-to-end metrics of an untraced run (``setup_s`` and
    ``peak_rss_mb`` are added by the caller)."""
    rounds, first = outcome["rounds"], outcome["first"]
    done = [res for info in rounds for res in info["done"]]
    if not done:
        raise RuntimeError("no operation completed; nothing to report")
    epochs, to_target, rates = [], {}, {"bag": [], "load": [], "eval": []}
    for res in done:
        checked = first[res.dataset.index]
        sizes = {"bag": len(res.dataset.labels), "load": checked["n_loaded"], "eval": checked["n_eval"]}
        for op, rate in rates.items():
            rate.append(sizes[op] / scaled(res.times[op], res.probes[op]))
        reached = iter(checked["reached"])
        for c, fit in enumerate(res.fits):
            if not fit.scored:
                continue
            for r, times in enumerate(epoch_times(fit)):
                epochs.extend(times)
                key = (res.dataset.index, c, r)
                to_target.setdefault(key, []).append(float(times[: next(reached)].sum()))
    checked = list(first.values())
    return {
        "run_s": round_s(rounds),
        "epoch_s": statistics.median(epochs),
        "time_to_target_s": statistics.fmean(statistics.median(v) for v in to_target.values()),
        "epochs_to_target": statistics.fmean(e for c in checked for e in c["reached"]),
        "heldout_accuracy": statistics.fmean(a for c in checked for a in c["final_accuracy"]),
        "load_instances_per_s": statistics.median(rates["load"]),
        "save_instances_per_s": statistics.median(rates["bag"]),
        "eval_instances_per_s": statistics.median(rates["eval"]),
    }


def per_layer(outcome) -> dict:
    """Per-layer metrics of a traced run, per traced round; self times are
    raw wall-clock seconds."""
    tracer = outcome["tracer"]
    traced = [info for info in outcome["rounds"] if info["traced"]]
    n = len(traced)
    metrics = {}
    for module, func in TRACED:
        name = f"{module}.{func.split('.')[-1]}"
        metrics[f"{name}.s"] = tracer.self_s[name] / n
        metrics[f"{name}.calls"] = tracer.calls[name] / n
        metrics[f"{name}.rows"] = tracer.rows[name] / n
    train_rows = sum(
        outcome["first"][res.dataset.index]["train_rows"] for info in traced for res in info["done"]
    )
    passes = tracer.train_forward_rows + tracer.rows["network.backward"]
    metrics["network.pass_rows_per_train_row"] = passes / train_rows if train_rows else 0.0
    # run_s as end_to_end defines it, over the traced rounds and over the
    # untraced first round.
    metrics["trace.run_s"] = round_s(traced)
    metrics["trace.overhead_s"] = metrics["trace.run_s"] - round_s(outcome["rounds"][:1])
    return metrics
