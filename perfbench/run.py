"""lrbench benchmark: time-to-target of the conventional and the optimized
training pipelines on one workload.

    python3 perfbench/run.py --workload cifar-cnn --seed 0 --seconds 55 --trace 0

Run it from the repository root; it imports lrbench from ``src/`` and
writes generated records, reports, spans and the run record under
``.perfbench_out/``. The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.

Load is a closed loop with one client in one process: for each input seed in
turn the benchmark sets up the dataset and model, then runs
``run_conventional`` and ``run_optimized`` one after the other, checks both
reports, and starts the next seed only when both have returned. Input seeds
are derived from ``--seed``.

``--trace 0`` runs seeds for ``--seconds`` and reports the end-to-end
metrics: the median time of set-up (``load_bench_dataset`` plus
``build_model``, repeated per seed) and of each pipeline call, the speedup
summed over seeds, mean epochs and accuracy per pipeline, rows passed to
``train_step`` per second of pipeline time, and peak resident memory.
The first seed runs twice, a warm-up and a timed run, and both runs must
give the same outputs. Failed runs (an exception, a missed target or a
failed output check) are counted in ``failed`` against ``attempted``.

Times in those metrics are wall times scaled to a nominal host speed by a
reference kernel run between seeds (see reference.py); the speedup is a
ratio of raw wall times. The printed lines also give each raw wall-time
median, and the run record holds every raw sample with its scale factor.

``--trace 1`` runs a fixed number of seeds, so that its counts repeat
exactly: traced, untraced, then traced again, with every layer wrapped from
outside (see tracing.py). It reports per-layer self time, calls and rows,
derived counters, and the tracing overhead, and checks that both traced
passes give the same counts and outputs.

BLAS runs on one thread, fixed here before numpy loads, so that timings do
not depend on how many cores happen to be free.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

from checks import check_report, history_without_seconds

BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3
OUT_DIR = ".perfbench_out"

E2E_UNITS = {
    "setup_s": "s",
    "conventional_s": "s",
    "optimized_s": "s",
    "speedup": "ratio",
    "conventional_epochs": "count",
    "optimized_epochs": "count",
    "conventional_acc": "share",
    "optimized_acc": "share",
    "samples_per_s": "rows/s",
    "peak_rss_mb": "MB",
}
TIMINGS = ("setup_s", "conventional_s", "optimized_s")
COUNTER_UNITS = {
    "nn.wasted_input_grad_rows": "rows",
    "finder.steps": "count",
    "finder.eta_max": "lr",
    "groups.cache_rows": "rows",
    "groups.cache_reuse": "ratio",
    "trace.overhead_s": "s",
    "trace.overhead_share": "share",
}
PIPELINES = ("conventional", "optimized")


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric with its unit, in report order."""
    from tracing import span_names
    units = {}
    for name in span_names():
        units[f"{name}_s"] = "s"
        units[f"{name}_calls"] = "count"
        units[f"{name}_rows"] = "rows"
    units.update(COUNTER_UNITS)
    return units


def input_seeds(seed: int):
    """The endless, deterministic stream of input seeds for one run."""
    return (seed * 100_000 + i for i in itertools.count())


def tail_percentile(values: list[float]) -> tuple[float, float] | None:
    """(p, value) for the highest nearest-rank percentile with at least ten
    samples above it; None while that would not lie above the median."""
    ordered = sorted(values)
    rank = len(ordered) - 10
    if rank <= len(ordered) / 2:
        return None
    return 100.0 * rank / len(ordered), ordered[rank - 1]


@dataclass
class PipelineRun:
    seconds: float
    report: object | None
    failures: list[str]
    problems: list[str]


@dataclass
class SeedRun:
    seed: int
    cfg: object
    setup_seconds: list[float]
    runs: dict[str, PipelineRun] = field(default_factory=dict)
    host_factor: float = 1.0  # wall seconds times this give nominal seconds


class RowCounter:
    """Counts rows passed to ``train_step``. The only instrumentation left
    in an untraced run: one Python call per training step."""

    def __init__(self):
        self.rows = 0

    def wrap(self, name, fn):
        def counted(model, xb, *args, **kwargs):
            self.rows += len(xb)
            return fn(model, xb, *args, **kwargs)
        return counted


class Bench:
    """One benchmark invocation: a workload, its output directory and the
    lrbench modules, resolved at call time so that wrappers take effect."""

    def __init__(self, workload, out: Path):
        import lrbench.bench
        import lrbench.finder
        import lrbench.nn
        self.workload = workload
        self.out = out
        self.bench = lrbench.bench
        self.errors = (lrbench.finder.NoDescentFound,
                       lrbench.nn.NonFiniteLossError)

    def run_seed(self, seed: int, setup_repeats: int) -> SeedRun:
        cfg = self.workload.config(seed, self.out / "data")
        bench = self.bench
        setup_seconds = []
        for _ in range(setup_repeats):
            start = time.perf_counter()
            data = bench.load_bench_dataset(cfg)
            bench.build_model(cfg, data[0].images.shape[1:], data[0].n_classes)
            setup_seconds.append(time.perf_counter() - start)
        result = SeedRun(seed, cfg, setup_seconds)
        for label in PIPELINES:
            pipeline = getattr(bench, f"run_{label}")
            start = time.perf_counter()
            try:
                report = pipeline(cfg, data)
            except self.errors as err:
                result.runs[label] = PipelineRun(
                    time.perf_counter() - start, None,
                    [f"{type(err).__name__}: {err}"], [])
                continue
            seconds = time.perf_counter() - start
            problems = check_report(report, cfg, len(data[1]))
            failures = list(problems)
            if not report.reached:
                failures.append(f"missed target {cfg.target_accuracy}")
            bench.emit_report(report, self.out / "reports", f"{label}_")
            result.runs[label] = PipelineRun(seconds, report, failures,
                                             problems)
        return result


def same_outputs(a: SeedRun, b: SeedRun) -> list[str]:
    """Two runs of one seed must give the same histories (seconds aside)
    and the same confusion matrices."""
    import numpy as np
    problems = []
    for label in PIPELINES:
        ra, rb = a.runs[label].report, b.runs[label].report
        if ra is None or rb is None:
            continue
        if (history_without_seconds(ra) != history_without_seconds(rb)
                or not np.array_equal(ra.confusion, rb.confusion)):
            problems.append(f"seed {a.seed} {label}: outputs differ "
                            "between two runs of one seed")
    return problems


def tally(seed_runs: list[SeedRun]) -> tuple[int, int, list[str], list[str]]:
    """(attempted, failed, failure notes, output-check problems)."""
    attempted = failed = 0
    notes, problems = [], []
    for sr in seed_runs:
        for label, run in sr.runs.items():
            attempted += 1
            if run.failures:
                failed += 1
                notes.append(f"seed {sr.seed} {label}: {'; '.join(run.failures)}")
            problems.extend(f"seed {sr.seed} {label}: {p}" for p in run.problems)
    return attempted, failed, notes, problems


def end_to_end(bench: Bench, seed: int, seconds: float):
    import reference
    import tracing
    seeds = input_seeds(seed)
    first = next(seeds)
    rows = RowCounter()
    ref = reference.Reference()
    with tracing.installed(rows.wrap, [("lrbench.nn", "train_step", "")], []):
        warmup = bench.run_seed(first, SETUP_REPEATS)
        ref.seconds()
        rows.rows = 0
        deadline = time.perf_counter() + seconds
        refs = [ref.seconds()]
        seed_runs = [bench.run_seed(first, SETUP_REPEATS)]
        refs.append(ref.seconds())
        while time.perf_counter() < deadline:
            seed_runs.append(bench.run_seed(next(seeds), SETUP_REPEATS))
            refs.append(ref.seconds())
    for sr, factor in zip(seed_runs, reference.host_factors(refs)):
        sr.host_factor = factor
    problems = same_outputs(warmup, seed_runs[0])

    both = [sr for sr in seed_runs
            if all(sr.runs[p].report is not None for p in PIPELINES)]
    if not both:
        raise RuntimeError("no seed completed both pipelines; nothing to report")
    # (wall seconds, host factor) per sample
    samples = {"setup_s": [(s, sr.host_factor) for sr in seed_runs
                           for s in sr.setup_seconds]}
    for label in PIPELINES:
        samples[f"{label}_s"] = [(sr.runs[label].seconds, sr.host_factor)
                                 for sr in seed_runs
                                 if sr.runs[label].report is not None]
    scaled = {name: [s * f for s, f in samples[name]] for name in TIMINGS}
    values = {name: statistics.median(scaled[name]) for name in TIMINGS}
    values["speedup"] = (sum(sr.runs["conventional"].seconds for sr in both)
                         / sum(sr.runs["optimized"].seconds for sr in both))
    for label in PIPELINES:
        reports = [sr.runs[label].report for sr in seed_runs
                   if sr.runs[label].report is not None]
        values[f"{label}_epochs"] = statistics.fmean(
            sum(p.epochs_run for p in r.phases) for r in reports)
        values[f"{label}_acc"] = statistics.fmean(r.accuracy for r in reports)
    pipeline_seconds = sum(run.seconds * sr.host_factor for sr in seed_runs
                           for run in sr.runs.values())
    values["samples_per_s"] = rows.rows / pipeline_seconds
    values["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)

    lines = []
    for name, unit in E2E_UNITS.items():
        line = f"{name:<20} {values[name]:.6g} {unit}"
        if name in samples:
            tail = tail_percentile(scaled[name])
            tail_text = (f"p{tail[0]:.3g} {tail[1]:.6g} {unit}" if tail
                         else "no tail percentile below 21 samples")
            wall = statistics.median(s for s, _ in samples[name])
            line += (f"  (median; {tail_text}; n={len(samples[name])}; "
                     f"wall-time median {wall:.6g} {unit})")
        lines.append(line)
    return values, seed_runs, problems, lines


def traced(bench: Bench, seed: int):
    import tracing
    seeds = list(itertools.islice(input_seeds(seed), bench.workload.trace_seeds))

    def pipeline_seconds(runs):
        return sum(run.seconds for sr in runs for run in sr.runs.values())

    def traced_pass():
        tracer = tracing.Tracer()
        with tracing.installed(tracer.wrap):
            runs = [bench.run_seed(s, 1) for s in seeds]
        return tracer, runs

    # the untraced pass runs between the two traced ones, so that drift in
    # machine speed does not land in the overhead
    passes = [traced_pass()]
    untraced = [bench.run_seed(s, 1) for s in seeds]
    passes.append(traced_pass())

    problems = []
    for a, b in zip(passes[0][1], passes[1][1]):
        problems.extend(same_outputs(a, b))
    summaries = [t.summary() for t, _ in passes]
    counters = [span_counters(t, runs) for t, runs in passes]
    for name in sorted(set(summaries[0]) | set(summaries[1])):
        ca = {k: summaries[0].get(name, {}).get(k) for k in ("calls", "rows")}
        cb = {k: summaries[1].get(name, {}).get(k) for k in ("calls", "rows")}
        if ca != cb:
            problems.append(f"{name}: counts differ between traced passes "
                            f"({ca} vs {cb})")
    for name in counters[0]:
        if counters[0][name] != counters[1][name]:
            problems.append(f"{name}: {counters[0][name]!r} vs "
                            f"{counters[1][name]!r} between traced passes")
    summary = summaries[0]
    for name in bench.workload.expected_spans:
        if summary.get(name, {}).get("calls", 0) == 0:
            problems.append(f"{name}: zero calls on {bench.workload.name}, "
                            "which should exercise it")

    values = {}
    for name in tracing.span_names():
        entry = summary.get(name, {"s": 0.0, "calls": 0, "rows": 0})
        values[f"{name}_s"] = entry["s"]
        values[f"{name}_calls"] = entry["calls"]
        values[f"{name}_rows"] = entry["rows"]
    values.update(counters[0])
    base = pipeline_seconds(untraced)
    overhead = statistics.fmean(pipeline_seconds(r) for _, r in passes) - base
    values["trace.overhead_s"] = overhead
    values["trace.overhead_share"] = overhead / base
    passes[0][0].dump(bench.out / "spans.json")

    lines = [f"{name:<40} {values[name]:.6g} {unit}"
             for name, unit in per_layer_units().items()]
    return values, passes[0][1] + untraced + passes[1][1], problems, lines


def span_counters(tracer, seed_runs: list[SeedRun]) -> dict[str, float]:
    """Hardware-free counters computed from one traced pass."""
    spans = tracer.spans
    names = [s[0] for s in spans]
    children: dict[int, list[int]] = {}
    for i, span in enumerate(spans):
        children.setdefault(span[3], []).append(i)

    def parent_name(i):
        return names[spans[i][3]] if spans[i][3] >= 0 else None

    finder_steps = sum(1 for i, n in enumerate(names)
                       if n == "nn.train_step"
                       and parent_name(i) == "finder.range_test")
    cache_rows = sum(s[4] for s in spans
                     if s[0] == "groups.precompute_features")
    served = sum(s[4] for i, s in enumerate(spans)
                 if s[0] in ("nn.train_step", "train.evaluate")
                 and parent_name(i) == "train.train_phase.head_sgdr")
    # nn.backward walks the layers top-down and stops at the lowest
    # trainable one; the input gradient that layer's backward returns is
    # never used
    wasted = 0
    for i, n in enumerate(names):
        if n != "nn.backward":
            continue
        layer_calls = [c for c in children.get(i, [])
                       if names[c].endswith(".backward")]
        if layer_calls:
            wasted += spans[layer_calls[-1]][5]
    etas = [sr.runs["optimized"].report.eta_max for sr in seed_runs
            if sr.runs["optimized"].report is not None]
    return {
        "nn.wasted_input_grad_rows": wasted,
        "finder.steps": finder_steps,
        "finder.eta_max": statistics.fmean(etas) if etas else 0.0,
        "groups.cache_rows": cache_rows,
        "groups.cache_reuse": served / cache_rows if cache_rows else 0.0,
    }


def run_record(args, workload, values, seed_runs, problems) -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except TypeError:  # numpy before 1.26 has no mode argument
        blas_name = "unknown"
    return {
        "workload": workload.name,
        "why": workload.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_ENV},
        "nproc": os.cpu_count(),
        "config": asdict(seed_runs[0].cfg),
        "metrics": values,
        "check_problems": problems,
        "runs": [
            {"seed": sr.seed, "setup_s": sr.setup_seconds,
             "host_factor": sr.host_factor,
             **{label: {
                 "seconds": run.seconds,
                 "failures": run.failures,
                 "phases": ([asdict(p) for p in run.report.phases]
                            if run.report is not None else None),
                 "accuracy": (run.report.accuracy
                              if run.report is not None else None),
                 "eta_max": (run.report.eta_max
                             if run.report is not None else None),
             } for label, run in sr.runs.items()}}
            for sr in seed_runs],
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "lrbench" / "__init__.py").is_file():
        print(f"error: no lrbench package under {src}; "
              "run from the repository root", file=sys.stderr)
        return 2
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    sys.path[:0] = [str(src), str(Path(__file__).resolve().parent)]

    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    out = root / OUT_DIR / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)

    bench = Bench(workload, out)
    if args.trace:
        values, seed_runs, problems, lines = traced(bench, args.seed)
        units = per_layer_units()
    else:
        values, seed_runs, problems, lines = end_to_end(
            bench, args.seed, args.seconds)
        units = E2E_UNITS
    attempted, failed, notes, check_problems = tally(seed_runs)
    problems = check_problems + problems

    record_path = out / "run.json"
    with open(record_path, "w") as fh:
        json.dump(run_record(args, workload, values, seed_runs, problems), fh,
                  indent=1)

    print(f"workload {workload.name}: {workload.why}")
    print(f"seeds {seed_runs[0].seed}..{seed_runs[-1].seed}, "
          f"BLAS threads {BLAS_THREADS}, run record {record_path}")
    for line in lines:
        print(line)
    print(f"failed_share {failed / attempted:.6g} ({failed} of {attempted} "
          "pipeline runs)")
    for note in notes:
        print(f"failed: {note}", file=sys.stderr)
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
