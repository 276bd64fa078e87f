"""Learning-rate range test.

Ramp the rate geometrically across mini-batches while taking single SGD
steps, record raw and smoothed losses, stop once the smoothed loss blows past
its running minimum, and suggest a starting rate from the steepest descent of
the smoothed curve against log(lr).

range_test steps a copy of the model it is given and leaves the model itself
unchanged.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .nn import Model, NonFiniteLossError, train_step

__all__ = [
    "RangeTestConfig",
    "LRFinderTrace",
    "NoDescentFound",
    "ramp_lr",
    "range_test",
    "suggest_lr",
    "write_trace_csv",
]


# Steps suggest_lr drops before the last step of a diverged trace.
TAIL_EXCLUDE = 3


class NoDescentFound(RuntimeError):
    """The loss trace has no descending segment to suggest a rate from.

    Usually means the ramp range is wrong for the problem (widen it) or the
    trace diverged almost immediately (lower lr_lo)."""


@dataclass(frozen=True)
class RangeTestConfig:
    lr_lo: float = 1e-5
    lr_hi: float = 10.0
    n_steps: int = 100
    smoothing_beta: float = 0.98
    divergence_factor: float = 4.0

    def __post_init__(self) -> None:
        if not 0.0 < self.lr_lo < self.lr_hi:
            raise ConfigError(
                f"need 0 < lr_lo < lr_hi, got lr_lo={self.lr_lo} lr_hi={self.lr_hi}"
            )
        if not math.isfinite(self.lr_hi / self.lr_lo):
            raise ConfigError(
                f"lr_hi / lr_lo overflows, so the ramp would step at inf: "
                f"lr_lo={self.lr_lo} lr_hi={self.lr_hi}"
            )
        if self.n_steps < 10:
            raise ConfigError(f"n_steps must be >= 10, got {self.n_steps}")
        if not 0.0 <= self.smoothing_beta < 1.0:
            raise ConfigError(f"smoothing_beta must be in [0, 1), got {self.smoothing_beta}")
        if not self.divergence_factor > 1.0:
            raise ConfigError(
                f"divergence_factor must be > 1, got {self.divergence_factor}"
            )


@dataclass
class LRFinderTrace:
    """Per-step (lr, raw_loss, smoothed_loss) records from a range test.
    ``smoothed_loss`` is the bias-corrected EMA of the raw losses."""

    steps: list[tuple[float, float, float]]
    stop_reason: str  # "completed" | "diverged"


def ramp_lr(step: int, cfg: RangeTestConfig) -> float:
    """Geometric ramp from lr_lo (step 0) to lr_hi (last step)."""
    if not 0 <= step < cfg.n_steps:
        raise ValueError(f"step {step} outside [0, {cfg.n_steps})")
    if step == 0:
        return cfg.lr_lo
    if step == cfg.n_steps - 1:
        return cfg.lr_hi
    return cfg.lr_lo * (cfg.lr_hi / cfg.lr_lo) ** (step / (cfg.n_steps - 1))


def _ema_update(m: float, raw: float, beta: float, i: int) -> tuple[float, float]:
    """Feed the (i+1)-th raw value into the running mean ``m``; returns the
    new running mean and its bias-corrected value."""
    m = beta * m + (1.0 - beta) * raw
    return m, m / (1.0 - beta ** (i + 1))


def range_test(model: Model, data, cfg: RangeTestConfig, rng_seed: int,
               batch_size: int = 32) -> LRFinderTrace:
    """Run the ramp over ``data``, an (images, labels) pair: one plain SGD
    step (no momentum, no weight decay) per mini-batch at ramp_lr(step),
    recording (lr, raw_loss, smoothed_loss).
    Stops early with reason "diverged" at the first step whose smoothed loss
    exceeds divergence_factor times the smoothed minimum seen before it; a
    non-finite loss stops the same way.

    Batches of ``batch_size`` rows are drawn from a single seed-shuffled
    pass over the data, cycling through it as needed. The steps run on a
    copy of the model, so the model itself is left unchanged.
    """
    x_all, y_all = map(np.asarray, data)
    n = len(x_all)
    if n == 0:
        raise ValueError("range test needs a non-empty dataset")
    order = np.random.default_rng(rng_seed).permutation(n)

    probe = copy.deepcopy(model)
    steps: list[tuple[float, float, float]] = []
    stop_reason = "completed"
    beta = cfg.smoothing_beta
    m = 0.0
    best = math.inf
    for i in range(cfg.n_steps):
        idx = np.take(order, np.arange(i * batch_size, (i + 1) * batch_size),
                      mode="wrap")
        lr = ramp_lr(i, cfg)
        try:
            # the ramp is expected to push into instability; overflow is a
            # signal here, not an error worth warning about
            with np.errstate(over="ignore", invalid="ignore"):
                raw = train_step(probe, x_all[idx], y_all[idx], lr)
        except NonFiniteLossError as err:
            raw = err.value
        m, smoothed = _ema_update(m, raw, beta, i)
        steps.append((lr, raw, smoothed))
        if not math.isfinite(smoothed):
            stop_reason = "diverged"
            break
        if smoothed > cfg.divergence_factor * best:
            stop_reason = "diverged"
            break
        best = min(best, smoothed)
    return LRFinderTrace(steps=steps, stop_reason=stop_reason)


def suggest_lr(trace: LRFinderTrace) -> float:
    """Rate at the most negative slope of smoothed loss vs log(lr).

    For diverged traces the divergence step and the ``TAIL_EXCLUDE`` steps
    before it are dropped first (a safety margin off the cliff edge); for
    completed traces only the final step is, so the suggestion always falls
    strictly between lr_lo and the stopping rate. Ties go to the smaller
    rate. Raises NoDescentFound when no descending segment exists or fewer
    than 3 usable steps remain.
    """
    if trace.stop_reason == "diverged":
        usable = trace.steps[:len(trace.steps) - TAIL_EXCLUDE - 1]
    else:
        usable = trace.steps[:-1]
    if len(usable) < 3:
        raise NoDescentFound(
            f"only {len(usable)} usable steps before the stop point; "
            "widen the ramp range or lower lr_lo"
        )
    best_slope = 0.0
    best_lr = None
    for i in range(1, len(usable)):
        lr0, _, s0 = usable[i - 1]
        lr1, _, s1 = usable[i]
        if not (math.isfinite(s0) and math.isfinite(s1)):
            continue
        slope = (s1 - s0) / (math.log(lr1) - math.log(lr0))
        if slope < best_slope:
            best_slope = slope
            best_lr = lr1
    if best_lr is None:
        raise NoDescentFound(
            "no descending smoothed-loss segment in the trace; "
            "widen the ramp range or check the data"
        )
    return best_lr


def write_trace_csv(path, trace: LRFinderTrace) -> None:
    """One row per step, with the trace's stop reason on every row, so the
    file alone gives back suggest_lr's suggestion."""
    with open(path, "w") as fh:
        fh.write("step,lr,raw_loss,smoothed_loss,stop_reason\n")
        for i, (lr, raw, smoothed) in enumerate(trace.steps):
            fh.write(f"{i},{lr!r},{raw!r},{smoothed!r},{trace.stop_reason}\n")
