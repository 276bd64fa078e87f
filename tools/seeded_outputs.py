"""Dump what the seed fixes in both benchmark pipelines' reports, so that two
source trees can be compared exactly.

    python3 tools/seeded_outputs.py SRC_DIR OUT.json
    python3 tools/seeded_outputs.py --compare BEFORE.json AFTER.json

Run it from the repository root. The first form imports lrbench from
SRC_DIR (for example ``src``, or the ``src`` of a second checkout) and the
workload configs from ``perfbench/workloads.py``, runs ``run_conventional``
and ``run_optimized`` on each input seed of each set in SETS and writes, per
report: the history without its seconds column, the confusion matrix,
``reached``, each phase's name, epochs and accuracy, ``eta_max`` and every
range-test trace the pipeline produced. Wall times are left out. BLAS runs on one
thread, as in the benchmark, so that float sums do not depend on the host.

The second form prints, per set, how many seed/pipeline reports
differ, and for each one which fields differ, with eta_max, epochs and
reached on both sides, and the epoch and phase of the first history row that
differs. For a history that differs it also prints how far it moved over the
rows both sides have: the largest absolute change of valid_acc and the
largest relative change of train_loss and of valid_loss, so that a change
in float rounding can be told apart from a change in behaviour. It exits 1
when any report differs.
"""

from __future__ import annotations

import json
import math
import os
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# set name -> (workload, input seeds, BenchConfig fields replaced). A set
# name holds no space: compare groups reports by their first word. The
# workloads' own cifar configs set patience to the whole budget, and on
# these seeds conventional's first phase always ends at the target, so
# early stopping and fixed_lr2 only run in the patience0 sets.
SETS = {
    "blobs-mlp": ("blobs-mlp", range(0, 3), {}),
    "cifar-mlp": ("cifar-mlp", range(100000, 100030), {}),
    "cifar-cnn": ("cifar-cnn", range(100000, 100012), {}),
    "cifar-mlp/patience0": ("cifar-mlp", range(100000, 100030),
                            {"patience": 0}),
    "cifar-cnn/patience0": ("cifar-cnn", range(100000, 100012),
                            {"patience": 0}),
}
PIPELINES = ("conventional", "optimized")


def report_outputs(report, traces) -> dict:
    return {
        "history": [[r.epoch, r.phase, r.lr, r.train_loss, r.valid_loss,
                     r.valid_acc] for r in report.history],
        "confusion": report.confusion.tolist(),
        "reached": report.reached,
        "phases": [[p.name, p.epochs_run, p.final_valid_acc]
                   for p in report.phases],
        "eta_max": report.eta_max,
        "finder_traces": [[list(step) for step in t.steps] + [t.stop_reason]
                          for t in traces],
    }


def dump(src_dir: Path, out_path: Path) -> None:
    for var in BLAS_ENV:
        os.environ[var] = "1"
    sys.path[:0] = [str(src_dir.resolve()),
                    str(Path(__file__).resolve().parents[1] / "perfbench")]
    import lrbench.bench
    from workloads import WORKLOADS

    traces = []
    real_range_test = lrbench.bench.range_test

    def recorded(*args, **kwargs):
        trace = real_range_test(*args, **kwargs)
        traces.append(trace)
        return trace

    lrbench.bench.range_test = recorded
    outputs = {}
    with tempfile.TemporaryDirectory() as data_dir:
        for name, (workload, seeds, fields) in SETS.items():
            for seed in seeds:
                cfg = replace(WORKLOADS[workload].config(seed, Path(data_dir)),
                              **fields)
                data = lrbench.bench.load_bench_dataset(cfg)
                for label in PIPELINES:
                    traces.clear()
                    report = getattr(lrbench.bench, f"run_{label}")(cfg, data)
                    outputs[f"{name} {seed} {label}"] = report_outputs(
                        report, traces)
                print(f"{name} {seed}", file=sys.stderr)
    with open(out_path, "w") as fh:
        json.dump(outputs, fh)


def first_history_difference(before: dict, after: dict) -> str:
    """Where the two histories part: the epoch and phase of the first row
    that differs, or of the first row only one side has."""
    rows_a, rows_b = before["history"], after["history"]
    for a, b in zip(rows_a, rows_b):
        if json.dumps(a) != json.dumps(b):
            return f"; history first differs at epoch {a[0]} ({a[1]})"
    if len(rows_a) == len(rows_b):
        return ""
    row = max(rows_a, rows_b, key=len)[min(len(rows_a), len(rows_b))]
    return f"; history first differs at epoch {row[0]} ({row[1]}, one side only)"


def relative_change(a: float, b: float) -> float:
    """|a - b| over the larger magnitude; 0 for equal values (NaN included)
    and inf when only one side is finite."""
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(a - b) / max(abs(a), abs(b))


def history_movement(before: dict, after: dict) -> str:
    """How far the history moved over the rows both sides have: the largest
    absolute change of valid_acc and the largest relative change of
    train_loss and of valid_loss."""
    rows = list(zip(before["history"], after["history"]))
    acc = max((abs(a[5] - b[5]) for a, b in rows), default=0.0)
    train, valid = (max((relative_change(a[col], b[col]) for a, b in rows),
                        default=0.0) for col in (3, 4))
    return (f"; largest valid_acc change {acc:.3g}, largest relative "
            f"train_loss change {train:.3g}, valid_loss {valid:.3g}")


def compare(before_path: Path, after_path: Path) -> int:
    with open(before_path) as fh:
        before = json.load(fh)
    with open(after_path) as fh:
        after = json.load(fh)
    if before.keys() != after.keys():
        print("the two dumps cover different seeds")
        return 1
    differ = {}
    for key in before:
        # compared as JSON text, so that NaN losses compare equal
        fields = [f for f in before[key]
                  if json.dumps(before[key][f]) != json.dumps(after[key][f])]
        name = key.split()[0]
        differ.setdefault(name, [])
        if fields:
            differ[name].append((key, fields))
    for name, rows in differ.items():
        total = sum(1 for key in before if key.startswith(name + " "))
        print(f"{name}: {len(rows)} of {total} reports differ")
        for key, fields in rows:
            sides = []
            for out in (before[key], after[key]):
                epochs = sum(p[1] for p in out["phases"])
                sides.append(f"eta_max {out['eta_max']!r}, {epochs} epochs, "
                             f"reached {out['reached']}")
            moved = (history_movement(before[key], after[key])
                     if "history" in fields else "")
            print(f"  {key}: {', '.join(fields)}; "
                  f"before {sides[0]}; after {sides[1]}"
                  f"{first_history_difference(before[key], after[key])}"
                  f"{moved}")
    return 1 if any(differ.values()) else 0


def main(argv) -> int:
    if len(argv) == 3 and argv[0] == "--compare":
        return compare(Path(argv[1]), Path(argv[2]))
    if len(argv) == 2 and not argv[0].startswith("-"):
        dump(Path(argv[0]), Path(argv[1]))
        return 0
    print(__doc__.split("\n\n")[1], file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
