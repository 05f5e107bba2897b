"""Span wrappers around llpkit's public functions, for the traced run.

A wrapper is installed on every name under which a caller looks a
function up: ``objectives`` imports ``instance_posteriors`` by name, and
``cross_validate`` calls ``train`` and ``evaluate`` as globals of
``training``, so each such binding is replaced, not only the defining
one.  Each span records its parent (the span open when it started), so
self time is the span's duration minus the time of the spans nested
directly under it.  The program itself is not changed on disk.
"""

import sys
import time
from collections import defaultdict
from functools import wraps

# (module, function) pairs whose spans the traced run reports; a dotted
# function name is a method of a class in that module.
TRACED = (
    ("data", "load_bags_csv"),
    ("data", "load_instances_csv"),
    ("data", "make_bags"),
    ("data", "save_bags_csv"),
    ("data", "BagDataset.fold_split"),
    ("poisson_binomial", "instance_posteriors"),
    ("poisson_binomial", "bag_log_likelihood"),
    ("poisson_binomial", "clamp_probabilities"),
    ("objectives", "e_step"),
    ("objectives", "m_step_loss"),
    ("objectives", "mle_llp_objective"),
    ("objectives", "amle_batch_loss"),
    ("objectives", "dllp_batch_loss"),
    ("objectives", "predict"),
    ("network", "forward"),
    ("network", "backward"),
    ("network", "optimizer_step"),
    ("network", "save_checkpoint"),
    ("network", "load_checkpoint"),
    ("training", "train"),
    ("training", "cross_validate"),
    ("training", "evaluate"),
    ("cli", "main"),
)

# Functions whose second argument is a feature batch; spans count its rows.
ROW_COUNTED = {"network.forward", "network.backward"}


class Tracer:
    """Collects per-name self time, calls and rows while active."""

    def __init__(self):
        self.active = False
        self.stack = []  # [name, start, time in child spans]
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.rows = defaultdict(int)
        # Rows sent through forward from anywhere but predict: training data.
        self.train_forward_rows = 0
        self._restore = []

    def span(self, name, fn):
        counts_rows = name in ROW_COUNTED

        @wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            parent = self.stack[-1][0] if self.stack else None
            if counts_rows:
                rows = len(args[1])
                self.rows[name] += rows
                if name == "network.forward" and parent != "objectives.predict":
                    self.train_forward_rows += rows
            self.calls[name] += 1
            frame = [name, time.perf_counter(), 0.0]
            self.stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                self.stack.pop()
                duration = time.perf_counter() - frame[1]
                self.self_s[name] += duration - frame[2]
                if self.stack:
                    self.stack[-1][2] += duration

        return wrapper

    def install(self, package) -> None:
        """Replace every binding of each traced function inside ``package``."""
        modules = [
            m for name, m in sorted(sys.modules.items())
            if m is not None and (name == package.__name__ or name.startswith(package.__name__ + "."))
        ]
        for module_name, func_name in TRACED:
            owner = sys.modules[f"{package.__name__}.{module_name}"]
            span_name = f"{module_name}.{func_name.split('.')[-1]}"
            if "." in func_name:
                cls_name, attr = func_name.split(".")
                cls = getattr(owner, cls_name, None)
                if cls is None or attr not in vars(cls):
                    continue
                original = vars(cls)[attr]
                self._set(cls, attr, self.span(span_name, original))
                continue
            original = getattr(owner, func_name, None)
            if original is None:
                continue
            wrapper = self.span(span_name, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, attr, wrapper)

    def _set(self, target, attr, value) -> None:
        self._restore.append((target, attr, getattr(target, attr)))
        setattr(target, attr, value)

    def uninstall(self) -> None:
        for target, attr, value in reversed(self._restore):
            setattr(target, attr, value)
        self._restore.clear()
