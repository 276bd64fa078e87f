"""Learning-rate range test.

Ramp the rate geometrically across mini-batches while taking single SGD
steps, record raw and smoothed losses, stop once the smoothed loss blows past
its running minimum, and suggest a starting rate from the steepest descent of
the smoothed curve against log(lr).

range_test mutates the model it is given and restores it afterwards, so it is
not safe to call concurrently on one model instance. The pure helpers
(ramp_lr, smooth_losses, suggest_lr) are thread-safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import IO, Sequence

import numpy as np

from .nn import Model, NonFiniteLossError, train_step

__all__ = [
    "RangeTestConfig",
    "LRFinderTrace",
    "NoDescentFound",
    "ramp_lr",
    "smooth_losses",
    "range_test",
    "suggest_lr",
    "write_trace_csv",
]


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
            raise ValueError(
                f"need 0 < lr_lo < lr_hi, got lr_lo={self.lr_lo} lr_hi={self.lr_hi}"
            )
        if self.n_steps < 10:
            raise ValueError(f"n_steps must be >= 10, got {self.n_steps}")
        if not 0.0 <= self.smoothing_beta < 1.0:
            raise ValueError(f"smoothing_beta must be in [0, 1), got {self.smoothing_beta}")
        if not self.divergence_factor > 1.0:
            raise ValueError(
                f"divergence_factor must be > 1, got {self.divergence_factor}"
            )


@dataclass
class LRFinderTrace:
    """Per-step (lr, raw_loss, smoothed_loss) records from a range test.
    ``smoothed_loss`` is the bias-corrected EMA of the raw losses."""

    steps: list[tuple[float, float, float]]
    stopped_early: bool
    stop_reason: str  # "completed" | "diverged"

    @property
    def lrs(self) -> np.ndarray:
        return np.array([s[0] for s in self.steps])

    @property
    def raw_losses(self) -> np.ndarray:
        return np.array([s[1] for s in self.steps])

    @property
    def smoothed_losses(self) -> np.ndarray:
        return np.array([s[2] for s in self.steps])


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


def smooth_losses(raw: Sequence[float], beta: float) -> list[float]:
    """Bias-corrected exponential moving average; beta=0 returns the input."""
    if not 0.0 <= beta < 1.0:
        raise ValueError(f"beta must be in [0, 1), got {beta}")
    out = []
    m = 0.0
    for i, r in enumerate(raw):
        m, smoothed = _ema_update(m, float(r), beta, i)
        out.append(smoothed)
    return out


def range_test(model: Model, data, cfg: RangeTestConfig, rng_seed: int,
               batch_size: int = 32, momentum: float = 0.0,
               weight_decay: float = 0.0) -> LRFinderTrace:
    """Run the ramp over ``data``, an (images, labels) pair: one SGD step per
    mini-batch at ramp_lr(step), recording (lr, raw_loss, smoothed_loss).
    Stops early with reason "diverged" at the first step whose smoothed loss
    exceeds divergence_factor times the smoothed minimum seen before it; a
    non-finite loss stops the same way.

    Batches are drawn from a single seed-shuffled pass over the data, cycling
    as needed. Model parameters and velocities are restored to their pre-test
    values before returning.
    """
    x_all, y_all = map(np.asarray, data)
    n = len(x_all)
    if n == 0:
        raise ValueError("range test needs a non-empty dataset")
    order = np.random.default_rng(rng_seed).permutation(n)

    snapshot = model.clone_state()
    steps: list[tuple[float, float, float]] = []
    stop_reason = "completed"
    beta = cfg.smoothing_beta
    m = 0.0
    best = math.inf
    pos = 0
    try:
        for i in range(cfg.n_steps):
            if pos + batch_size <= n:
                idx = order[pos:pos + batch_size]
            else:
                idx = np.concatenate([order[pos:], order[:(pos + batch_size) % n or n]])
                idx = idx[:batch_size]
            pos = (pos + batch_size) % n
            lr = ramp_lr(i, cfg)
            try:
                # the ramp is expected to push into instability; overflow is
                # a signal here, not an error worth warning about
                with np.errstate(over="ignore", invalid="ignore"):
                    raw = train_step(model, x_all[idx], y_all[idx], lr,
                                     momentum=momentum,
                                     weight_decay=weight_decay)
            except NonFiniteLossError as err:
                raw = err.value
            m, smoothed = _ema_update(m, raw, beta, i)
            steps.append((lr, raw, smoothed))
            if not math.isfinite(smoothed):
                stop_reason = "diverged"
                break
            if i == 0:
                best = smoothed
                continue
            if smoothed > cfg.divergence_factor * best:
                stop_reason = "diverged"
                break
            best = min(best, smoothed)
    finally:
        model.load_state(snapshot)
    return LRFinderTrace(steps=steps, stopped_early=(stop_reason == "diverged"),
                         stop_reason=stop_reason)


def suggest_lr(trace: LRFinderTrace, tail_exclude: int = 3) -> float:
    """Rate at the most negative slope of smoothed loss vs log(lr).

    For diverged traces the divergence step and the ``tail_exclude`` steps
    before it are dropped first (a safety margin off the cliff edge); for
    completed traces only the final step is, so the suggestion always falls
    strictly between lr_lo and the stopping rate. Ties go to the smaller
    rate. Raises NoDescentFound when no descending segment exists or fewer
    than 3 usable steps remain.
    """
    if trace.stop_reason == "diverged":
        usable = trace.steps[:len(trace.steps) - tail_exclude - 1]
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


def write_trace_csv(trace: LRFinderTrace, out: IO[str]) -> None:
    out.write("step,lr,raw_loss,smoothed_loss\n")
    for i, (lr, raw, smoothed) in enumerate(trace.steps):
        out.write(f"{i},{lr!r},{raw!r},{smoothed!r}\n")
