"""llpkit benchmark: one workload per process, one JSON result line.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload em-small-bags --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
ones from a run with span wrappers installed.  ``--workload all`` runs
every workload in its own process and prints a table.  ``--tiny`` shrinks
every workload to a size that runs in seconds, with every check kept.
The last line of standard output is a JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import json
import os
import sys

# Single-threaded numerics; must be set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_ROOT = ".perfbench_out"

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "epoch_s": "s",
    "time_to_target_s": "s",
    "epochs_to_target": "epochs",
    "heldout_accuracy": "fraction",
    "load_instances_per_s": "instances/s",
    "save_instances_per_s": "instances/s",
    "eval_instances_per_s": "instances/s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "poisson_binomial.instance_posteriors.s": "s",
    "poisson_binomial.instance_posteriors.calls": "count",
    "poisson_binomial.bag_log_likelihood.s": "s",
    "poisson_binomial.bag_log_likelihood.calls": "count",
    "poisson_binomial.clamp_probabilities.calls": "count",
    "objectives.mle_llp_objective.s": "s",
    "objectives.e_step.s": "s",
    "objectives.e_step.calls": "count",
    "objectives.m_step_loss.s": "s",
    "objectives.amle_batch_loss.s": "s",
    "objectives.dllp_batch_loss.s": "s",
    "objectives.predict.s": "s",
    "network.forward.s": "s",
    "network.forward.rows": "rows",
    "network.backward.s": "s",
    "network.backward.rows": "rows",
    "network.pass_rows_per_train_row": "rows/row",
    "network.optimizer_step.s": "s",
    "network.optimizer_step.calls": "count",
    "network.save_checkpoint.s": "s",
    "network.load_checkpoint.s": "s",
    "training.train.s": "s",
    "training.cross_validate.s": "s",
    "training.evaluate.s": "s",
    "data.fold_split.s": "s",
    "data.load_bags_csv.s": "s",
    "data.load_instances_csv.s": "s",
    "data.make_bags.s": "s",
    "data.save_bags_csv.s": "s",
    "cli.main.s": "s",
    "trace.run_s": "s",
    "trace.overhead_s": "s",
}

WORKLOAD_NAMES = ("em-small-bags", "em-large-bags", "baselines-cv", "ingest")


def log(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true", help="self-test size")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    return args


def import_llpkit():
    """Import llpkit from the checkout's src/, never from anywhere else."""
    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "llpkit", "__init__.py")):
        raise SystemExit("perfbench: no src/llpkit here; run from the root of a checkout")
    sys.path.insert(0, src)
    sys.path.insert(0, HERE)
    import llpkit

    if os.path.dirname(os.path.abspath(llpkit.__file__)) != os.path.join(src, "llpkit"):
        raise SystemExit(f"perfbench: imported llpkit from {llpkit.__file__}, not {src}")


def run_one(args) -> int:
    import resource
    import shutil
    import tempfile

    import_llpkit()
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    if args.tiny:
        workload = workloads.tiny(workload)
    os.makedirs(OUT_ROOT, exist_ok=True)
    directory = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_ROOT)
    try:
        outcome = workloads.run(
            workload, args.seed, args.seconds, bool(args.trace), directory, log
        )
        if args.trace:
            values = workloads.per_layer(outcome)
            units = PER_LAYER
        else:
            values = workloads.end_to_end(outcome)
            values["setup_s"] = outcome["setup_s"]
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            values["peak_rss_mb"] = peak_kb / 1024.0
            units = END_TO_END
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    result = {
        "correct": not outcome["errors"],
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {name: {"value": float(values[name]), "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process; a table, then all results as JSON."""
    import subprocess

    results = {}
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            log(f"{name} exited {proc.returncode} without a result")
            return 1
        results[name] = json.loads(lines[-1])
    for name, result in results.items():
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} failed={result['failed']}")
        for metric, entry in result["metrics"].items():
            print(f"  {metric:45s} {entry['value']:.6g} {entry['unit']}")
    print(json.dumps(results))
    return 0 if all(r["correct"] and not r["failed"] for r in results.values()) else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
