"""Output checks on the RunReports the two pipelines return.

A check returns a list of problems; an empty list means the report passed.
"""

from __future__ import annotations


def check_report(report, cfg, valid_size: int) -> list[str]:
    """Invariants every RunReport of a finished pipeline must satisfy."""
    problems = []
    total = int(report.confusion.sum())
    if total != valid_size:
        problems.append(
            f"confusion matrix sums to {total}, validation set has {valid_size}")
    if not report.history:
        problems.append("empty epoch history")
    elif report.accuracy != report.history[-1].valid_acc:
        problems.append(
            f"accuracy {report.accuracy!r} != final history valid_acc "
            f"{report.history[-1].valid_acc!r}")
    if report.reached and report.accuracy < cfg.target_accuracy:
        problems.append(
            f"reached is set but accuracy {report.accuracy!r} < target "
            f"{cfg.target_accuracy!r}")
    if report.eta_max is not None and not (
            cfg.finder.lr_lo < report.eta_max < cfg.finder.lr_hi):
        problems.append(
            f"eta_max {report.eta_max!r} outside the ramp "
            f"({cfg.finder.lr_lo!r}, {cfg.finder.lr_hi!r})")
    return problems


def history_without_seconds(report) -> list[tuple]:
    """The epoch history with the wall-time column dropped, for exact
    comparison of two runs of one seed."""
    return [(r.epoch, r.phase, r.lr, r.train_loss, r.valid_loss, r.valid_acc)
            for r in report.history]
