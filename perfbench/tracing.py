"""Outside-in tracing of lrbench's layers.

The benchmark wraps public functions and layer methods from outside the
package; no lrbench source changes. A function is replaced at every module
attribute that holds it, because ``train.py``, ``finder.py`` and ``bench.py``
bind names such as ``train_step`` and ``evaluate`` with ``from .x import y``
and a wrapper installed only where the function is defined would never see
those calls. Layer methods are replaced on their class.

Each call records a span: name, start, end, parent span, the leading-axis
rows of its input (or of its result, for loaders that take no array) and the
leading-axis rows of its result (0 for None). Spans stay in memory;
``Tracer.dump`` writes them out at the end of a run.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

# (module, attribute, span name). A span name ending in "." is completed
# with the call's phase_name, one span name per training phase.
FUNCTION_TARGETS = [
    ("lrbench.bench", "load_bench_dataset", "bench.load_bench_dataset"),
    ("lrbench.bench", "build_model", "bench.build_model"),
    ("lrbench.bench", "run_conventional", "bench.run_conventional"),
    ("lrbench.bench", "run_optimized", "bench.run_optimized"),
    ("lrbench.bench", "predictions", "bench.predictions"),
    ("lrbench.bench", "confusion", "bench.confusion"),
    ("lrbench.bench", "emit_report", "bench.emit_report"),
    ("lrbench.train", "train_phase", "train.train_phase."),
    ("lrbench.train", "evaluate", "train.evaluate"),
    ("lrbench.finder", "range_test", "finder.range_test"),
    ("lrbench.groups", "precompute_features", "groups.precompute_features"),
    ("lrbench.groups", "group_lr_at", "groups.group_lr_at"),
    ("lrbench.schedule", "lr_at", "schedule.lr_at"),
    ("lrbench.nn", "forward", "nn.forward"),
    ("lrbench.nn", "backward", "nn.backward"),
    ("lrbench.nn", "sgd_step", "nn.sgd_step"),
    ("lrbench.nn", "train_step", "nn.train_step"),
    ("lrbench.data", "load_cifar10", "data.load_cifar10"),
    ("lrbench.data", "normalize", "data.normalize"),
    ("lrbench.data", "split", "data.split"),
    ("lrbench.data", "make_blobs", "data.make_blobs"),
    ("lrbench.data", "augment_batch", "data.augment_batch"),
]

METHOD_TARGETS = [
    ("lrbench.nn", cls, method)
    for cls in ("Dense", "Conv2d", "ReLU", "MaxPool2")
    for method in ("forward", "backward")
]

PHASES = ("fixed_lr1", "fixed_lr2", "head_sgdr", "dlr_clm")


def span_names() -> list[str]:
    """Every span name the targets can produce, in report order."""
    names = []
    for _, _, name in FUNCTION_TARGETS:
        if name.endswith("."):
            names.extend(name + phase for phase in PHASES)
        else:
            names.append(name)
    names.extend(f"nn.{cls}.{method}" for _, cls, method in METHOD_TARGETS)
    return names


def rows_of(value) -> int | None:
    """Leading-axis rows of an array, a Dataset, or a tuple led by one."""
    if isinstance(value, np.ndarray):
        return int(value.shape[0]) if value.ndim else None
    images = getattr(value, "images", None)
    if isinstance(images, np.ndarray):
        return int(images.shape[0])
    if isinstance(value, tuple) and value:
        return rows_of(value[0])
    return None


def _rows_in(args, kwargs) -> int | None:
    for value in (*args, *kwargs.values()):
        rows = rows_of(value)
        if rows is not None:
            return rows
    return None


class Tracer:
    """Span recorder. ``spans`` holds [name, start, end, parent, rows,
    rows_out] lists; parent is the index of the enclosing span or -1."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        per_phase = name.endswith(".")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name = name + kwargs["phase_name"] if per_phase else name
            rows = _rows_in(args, kwargs)
            index = len(self.spans)
            span = [span_name, self.clock(), None,
                    self._stack[-1] if self._stack else -1, rows, 0]
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                span[2] = self.clock()
            span[5] = rows_of(result) or 0
            if span[4] is None:
                span[4] = span[5]
            return result

        return traced

    def self_times(self) -> list[float]:
        """Per span: its duration minus the durations of its direct
        children. Spans nest strictly on one thread, so children never
        overlap each other or reach outside their parent."""
        out = [span[2] - span[1] for span in self.spans]
        for _, start, end, parent, *_ in self.spans:
            if parent >= 0:
                out[parent] -= end - start
        return out

    def summary(self) -> dict[str, dict[str, float]]:
        """{span name: {"s": self seconds, "calls": n, "rows": rows}}."""
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"s": 0.0, "calls": 0, "rows": 0})
        for span, self_s in zip(self.spans, self.self_times()):
            entry = out[span[0]]
            entry["s"] += self_s
            entry["calls"] += 1
            entry["rows"] += span[4]
        return dict(out)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "rows",
                                  "rows_out"],
                       "spans": self.spans}, fh)


@contextmanager
def installed(wrap, functions=FUNCTION_TARGETS, methods=METHOD_TARGETS):
    """Replace every target by ``wrap(span_name, original)`` for the
    duration of the block, then restore the originals everywhere they were
    replaced."""
    modules = [m for name, m in sorted(sys.modules.items())
               if (name == "lrbench" or name.startswith("lrbench."))
               and m is not None]
    restore = []
    try:
        for module_name, attr, span_name in functions:
            original = getattr(sys.modules[module_name], attr)
            wrapper = wrap(span_name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        restore.append((module, key, original))
                        setattr(module, key, wrapper)
        for module_name, cls_name, method in methods:
            cls = getattr(sys.modules[module_name], cls_name)
            original = cls.__dict__[method]
            restore.append((cls, method, original))
            setattr(cls, method, wrap(f"nn.{cls_name}.{method}", original))
        yield
    finally:
        for owner, key, original in reversed(restore):
            setattr(owner, key, original)
