"""Training loop: epochs over shuffled mini-batches, per-step learning rates
from a caller-supplied function, early stopping on validation accuracy.

Everything is seeded through np.random.SeedSequence([seed, phase, epoch]) so
a run is reproducible from its config alone, no matter what ran before it.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .data import augment_batch
from .errors import ConfigError
from .nn import DTYPES, Model, forward, softmax_cross_entropy, train_step

__all__ = [
    "TrainConfig",
    "EarlyStopState",
    "EpochRecord",
    "PhaseResult",
    "early_stop_update",
    "batches_per_epoch",
    "iterate_minibatches",
    "evaluate",
    "train_phase",
]


@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = 32
    momentum: float = 0.9
    weight_decay: float = 0.0
    max_epochs: int = 50
    seed: int = 0
    precision: str = "f32"
    augment: bool = False

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.max_epochs < 1:
            raise ConfigError(f"max_epochs must be >= 1, got {self.max_epochs}")
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigError(f"momentum must be in [0, 1), got {self.momentum}")
        if self.weight_decay < 0.0:
            raise ConfigError(f"weight_decay must be >= 0, got {self.weight_decay}")
        if self.precision not in DTYPES:
            raise ConfigError(
                f"precision must be one of {sorted(DTYPES)}, got {self.precision!r}"
            )

    @property
    def dtype(self):
        return DTYPES[self.precision]


@dataclass
class EarlyStopState:
    """Tracks the best validation metric seen; asks to stop once it has not
    improved by min_delta for more than `patience` consecutive epochs."""

    patience: int = 5
    min_delta: float = 1e-4
    best_metric: float = -math.inf
    epochs_since_improve: int = 0


def early_stop_update(state: EarlyStopState, metric: float) -> str:
    """Feed one validation metric; returns "continue" or "stop"."""
    if not math.isfinite(metric):
        raise ValueError(f"early stopping needs a finite metric, got {metric}")
    if metric > state.best_metric + state.min_delta:
        state.best_metric = metric
        state.epochs_since_improve = 0
        return "continue"
    state.epochs_since_improve += 1
    if state.epochs_since_improve > state.patience:
        return "stop"
    return "continue"


def batches_per_epoch(n_samples: int, batch_size: int) -> int:
    return math.ceil(n_samples / batch_size)


def iterate_minibatches(n_samples: int, batch_size: int, rng: np.random.Generator):
    """Yield index arrays covering a shuffled epoch; the last batch may be
    short."""
    order = rng.permutation(n_samples)
    for start in range(0, n_samples, batch_size):
        yield order[start:start + batch_size]


def evaluate(model: Model, x: np.ndarray, y: np.ndarray,
             batch_size: int = 256) -> tuple[float, float]:
    """Mean cross-entropy and accuracy over the whole set, no augmentation."""
    total_loss = 0.0
    correct = 0
    n = len(x)
    for start in range(0, n, batch_size):
        xb = x[start:start + batch_size]
        yb = y[start:start + batch_size]
        logits, _ = forward(model, xb)
        total_loss += softmax_cross_entropy(logits, yb) * len(xb)
        correct += int((np.argmax(logits, axis=1) == yb).sum())
    return total_loss / n, correct / n


@dataclass
class EpochRecord:
    epoch: int
    phase: str
    lr: float
    train_loss: float
    valid_loss: float
    valid_acc: float
    seconds: float


@dataclass(frozen=True)
class PhaseResult:
    name: str
    epochs_run: int
    final_valid_acc: float
    wall_seconds: float


def train_phase(model: Model, train_x, train_y, valid_x, valid_y, *,
                phase_name: str, phase_index: int, lr_fn, cfg: TrainConfig,
                max_epochs: int, stopper: EarlyStopState | None = None,
                target_accuracy: float | None = None,
                history: list[EpochRecord] | None = None) -> PhaseResult:
    """Run one training phase from rest: the model's velocities are zeroed
    first. Returns the phase's PhaseResult, timed from call to return.

    lr_fn maps the phase's iteration counter, which starts at 0 and runs on
    across epochs, to either a scalar rate or a per-group rate triple. It is
    called once per step, and its value at the first step of each epoch (the
    final-group rate when it is a triple) is what lands in the history row,
    whose epoch is its index in ``history``: a phase appending to a history
    numbers its epochs on from the rows already there. The phase ends at
    max_epochs, at the stopper's say-so, or as soon as validation accuracy
    meets target_accuracy, so it met the target exactly when its final
    accuracy does.
    """
    phase_start = time.perf_counter()
    model.zero_velocity()
    t = 0
    epochs_run = 0
    final_acc = float("nan")
    for epoch in range(max_epochs):
        start_time = time.perf_counter()
        rng = np.random.default_rng(
            np.random.SeedSequence([cfg.seed, phase_index, epoch]))
        loss_sum = 0.0
        n_seen = 0
        epoch_lr = None
        for idx in iterate_minibatches(len(train_x), cfg.batch_size, rng):
            xb = train_x[idx]
            if cfg.augment:
                xb = augment_batch(xb, rng)
            lr = lr_fn(t)
            if epoch_lr is None:
                epoch_lr = lr if np.isscalar(lr) else lr[-1]
            loss = train_step(model, xb, train_y[idx], lr,
                              momentum=cfg.momentum,
                              weight_decay=cfg.weight_decay)
            loss_sum += loss * len(idx)
            n_seen += len(idx)
            t += 1
        valid_loss, valid_acc = evaluate(model, valid_x, valid_y)
        seconds = time.perf_counter() - start_time
        epochs_run += 1
        final_acc = valid_acc
        if history is not None:
            history.append(EpochRecord(
                epoch=len(history), phase=phase_name,
                lr=float(epoch_lr), train_loss=loss_sum / n_seen,
                valid_loss=valid_loss, valid_acc=valid_acc, seconds=seconds))
        if target_accuracy is not None and valid_acc >= target_accuracy:
            break
        if stopper is not None and early_stop_update(stopper, valid_acc) == "stop":
            break
    return PhaseResult(phase_name, epochs_run, final_acc,
                       time.perf_counter() - phase_start)
