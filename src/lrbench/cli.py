"""Command-line interface.

Subcommands:
  lr-find        run the LR range test on the head over cached features and
                 print a suggested peak rate
  train          train one model under the restarting cosine schedule
  benchmark      run conventional and optimized pipelines, report speedup
  schedule-dump  write the cosine schedule as CSV for inspection
  confusion      build a confusion matrix from a true/pred CSV

Exit codes: 0 success, 2 config error or a setting too large to allocate,
3 data error, 4 no usable range-test suggestion, 5 training diverged
(non-finite loss or activations).
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .bench import (build_model, confusion, emit_report, finish_report,
                    load_bench_dataset, run_conventional, run_optimized,
                    run_range_test, speedup, write_confusion_csv,
                    write_history_csv)
from .config import build_bench_config, parse_config_file
from .errors import ConfigError, DataError
from .finder import NoDescentFound, suggest_lr, write_trace_csv
from .groups import precompute_features, split_head
from .schedule import dump_schedule, lr_at, write_schedule_csv
from .train import train_phase

__all__ = ["main", "run"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lrbench",
        description="Learning-rate schedule toolkit and training benchmark.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_out(sp):
        sp.add_argument("--out", default=".", help="output directory")

    def add_config(sp, run_flags=True):
        sp.add_argument("--config", help="flat key = value config file")
        add_out(sp)
        if run_flags:
            sp.add_argument("--seed", type=int, help="RNG seed override")
            sp.add_argument("--dataset", help="blobs or cifar10:PATH")
            sp.add_argument("--model", choices=("mlp", "cnn"))

    add_config(sub.add_parser("lr-find",
                              help="suggest the head's peak learning rate"))
    add_config(sub.add_parser("train", help="train under the cosine schedule"))
    add_config(sub.add_parser("benchmark",
                              help="compare conventional vs optimized training"))
    sp = sub.add_parser("schedule-dump", help="dump the schedule as CSV")
    add_config(sp, run_flags=False)
    sp.add_argument("--iters", type=int, default=1500,
                    help="number of iterations to dump")
    sp = sub.add_parser("confusion", help="confusion matrix from a CSV")
    add_out(sp)
    sp.add_argument("--pred", required=True,
                    help="CSV with header true,pred and one id pair per line")
    return parser


def _bench_config(args):
    raw = parse_config_file(args.config) if args.config else {}
    # schedule-dump takes --config alone
    overrides = {key: getattr(args, key, None)
                 for key in ("dataset", "model", "seed")}
    return build_bench_config(raw, overrides)


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


@contextmanager
def _keeping_history(path: Path, history: list):
    """On a divergence inside the block, write the epochs ``history`` holds
    to ``path`` and print its ``wrote`` line; the error then exits 5."""
    try:
        yield
    except FloatingPointError:
        write_history_csv(path, history)
        print(f"wrote {path}")
        raise


def cmd_lr_find(args) -> None:
    cfg = _bench_config(args)
    train_ds, _ = load_bench_dataset(cfg)
    model = build_model(cfg, train_ds.images.shape[1:], train_ds.n_classes)
    body, head = split_head(model)
    trace = run_range_test(cfg, head, precompute_features(body, train_ds.images),
                           train_ds.labels)
    trace_path = _out_dir(args) / "finder_trace.csv"
    write_trace_csv(trace_path, trace)
    print(f"trace: {trace_path} ({len(trace.steps)} steps, {trace.stop_reason})")
    suggestion = suggest_lr(trace)
    print(f"suggested_lr: {suggestion!r}")


def cmd_train(args) -> None:
    cfg = _bench_config(args)
    train_ds, valid_ds = load_bench_dataset(cfg)
    model = build_model(cfg, train_ds.images.shape[1:], train_ds.n_classes)
    history = []
    with _keeping_history(_out_dir(args) / "history.csv", history):
        phase = train_phase(
            model, train_ds.images, train_ds.labels, valid_ds.images,
            valid_ds.labels, phase_name="sgdr", stream=1, cfg=cfg.train,
            lr_fn=lambda t: lr_at(t, cfg.sched), history=history,
            patience=cfg.patience, target_accuracy=cfg.target_accuracy)
    report = finish_report(model, valid_ds, [phase], history,
                           cfg.target_accuracy)
    for path in emit_report(report, _out_dir(args)):
        print(f"wrote {path}")
    outcome = ("target reached" if report.reached
               else "target missed" if phase.epochs_run == cfg.train.max_epochs
               else "stopped early")
    print(f"valid_acc: {phase.final_valid_acc:.4f} after {phase.epochs_run} "
          f"epochs ({outcome})")


def cmd_benchmark(args) -> None:
    cfg = _bench_config(args)
    data = load_bench_dataset(cfg)
    out = _out_dir(args)
    history = []
    with _keeping_history(out / "conventional_history.csv", history):
        conv = run_conventional(cfg, data, history)
    # written first, so a divergence in the optimized run keeps them
    for path in emit_report(conv, out, "conventional_"):
        print(f"wrote {path}")
    history = []
    with _keeping_history(out / "optimized_history.csv", history):
        opt = run_optimized(cfg, data, history)
    for path in emit_report(opt, out, "optimized_"):
        print(f"wrote {path}")

    conv_s, opt_s = (r.time_to(r.target)[0] for r in (conv, opt))

    def to_target(seconds):
        return "none" if seconds is None else f"{seconds:#.4g}s"

    print(f"conventional: acc={conv.accuracy:.4f} "
          f"time={conv.total_seconds:#.4g}s to_target={to_target(conv_s)} "
          f"reached={conv.reached}")
    print(f"optimized:    acc={opt.accuracy:.4f} "
          f"time={opt.total_seconds:#.4g}s to_target={to_target(opt_s)} "
          f"reached={opt.reached} eta_max={opt.eta_max!r}")
    ratio = ("not reached" if None in (conv_s, opt_s)
             else f"{speedup(conv_s, opt_s):.2f}")
    print(f"time_to_target_ratio: {ratio}")
    print(f"speedup: {speedup(conv, opt):.2f}")


def cmd_schedule_dump(args) -> None:
    if args.iters < 1:
        raise ConfigError(f"--iters must be >= 1, got {args.iters}")
    cfg = _bench_config(args)
    rows = dump_schedule(cfg.sched, args.iters)
    path = _out_dir(args) / "schedule.csv"
    write_schedule_csv(path, rows)
    print(f"wrote {path} ({len(rows)} iterations)")


def cmd_confusion(args) -> None:
    try:
        with open(args.pred) as fh:
            header = fh.readline().strip()
            if header != "true,pred":
                raise DataError(
                    f"{args.pred}: expected header 'true,pred', got {header!r}")
            pairs = []
            for lineno, line in enumerate(fh, start=2):
                if not line.strip():
                    continue
                try:
                    true_id, pred_id = map(int, line.strip().split(","))
                    if min(true_id, pred_id) < 0:
                        raise ValueError(f"negative class id in {line.strip()!r}")
                except ValueError as err:
                    raise DataError(f"{args.pred}:{lineno}: {err}") from err
                pairs.append((true_id, pred_id))
    except (OSError, UnicodeDecodeError) as err:
        raise DataError(f"cannot read {args.pred}: {err}") from err
    if not pairs:
        raise DataError(f"{args.pred}: no prediction rows")
    labels = np.array([p[0] for p in pairs])
    preds = np.array([p[1] for p in pairs])
    n_classes = int(max(labels.max(), preds.max())) + 1
    try:
        conf = confusion(preds, labels, n_classes)
    except (MemoryError, ValueError) as err:
        # the ids are in range by construction: only allocating an
        # n_classes x n_classes matrix can fail here
        raise DataError(f"{args.pred}: class id {n_classes - 1} is too "
                        f"large for a confusion matrix: {err}") from err
    path = _out_dir(args) / "confusion.csv"
    write_confusion_csv(path, [f"c{i}" for i in range(n_classes)], conf)
    acc = float(np.trace(conf)) / float(conf.sum())
    print(f"wrote {path}")
    print(f"accuracy: {acc:.6f} over {len(pairs)} samples")


# each command's handler, and the settings that size its arrays, named when
# an allocation fails
_HANDLERS = {
    "lr-find": (cmd_lr_find, "n_per_class, finder_batch or batch_size"),
    "train": (cmd_train, "n_per_class"),
    "benchmark": (cmd_benchmark, "n_per_class, finder_batch or batch_size"),
    "schedule-dump": (cmd_schedule_dump, "--iters"),
    "confusion": (cmd_confusion, "--pred"),
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handler, sized_by = _HANDLERS[args.command]
    try:
        handler(args)
    except MemoryError as err:
        raise ConfigError(f"{sized_by} too large to allocate: {err}") from err
    return 0


def run(argv=None) -> int:
    """Console entry point mapping errors to documented exit codes.

    numpy's overflow and invalid-value warnings are silenced: a diverging run
    is reported once, through the non-finite checks that end it with code 5.
    """
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            return main(argv)
    except NoDescentFound as err:
        print(f"error: {err}", file=sys.stderr)
        return 4
    except FloatingPointError as err:
        print(f"error: training diverged: {err}", file=sys.stderr)
        return 5
    except (DataError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(run())
