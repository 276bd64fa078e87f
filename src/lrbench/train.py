"""Training loop: epochs over shuffled mini-batches, per-step learning rates
from a caller-supplied function, early stopping on validation accuracy.

Phase k of a run is seeded through np.random.SeedSequence([seed, k, epoch]),
so a run is reproducible from its config alone, no matter what ran before it.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .data import augment_batch
from .errors import ConfigError
from .nn import (Model, NonFiniteLossError, predict, softmax_cross_entropy,
                 train_step)

__all__ = [
    "TrainConfig",
    "EpochRecord",
    "PhaseResult",
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
    augment: bool = False

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.max_epochs < 1:
            raise ConfigError(f"max_epochs must be >= 1, got {self.max_epochs}")
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigError(f"momentum must be in [0, 1), got {self.momentum}")
        if self.weight_decay < 0.0:
            raise ConfigError(f"weight_decay must be >= 0, got {self.weight_decay}")


def iterate_minibatches(n_samples: int, batch_size: int, rng: np.random.Generator):
    """Yield index arrays covering a shuffled epoch; the last batch may be
    short."""
    order = rng.permutation(n_samples)
    for start in range(0, n_samples, batch_size):
        yield order[start:start + batch_size]


def evaluate(model: Model, x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Mean cross-entropy and accuracy over the whole set, no augmentation.
    Raises NonFiniteLossError when the loss is nan or inf."""
    logits = predict(model, x)
    loss = softmax_cross_entropy(logits, y)
    if not math.isfinite(loss):
        raise NonFiniteLossError(loss)
    correct = (np.argmax(logits, axis=1) == y).sum()
    return loss, int(correct) / len(x)


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
                phase_name: str, phases: list[PhaseResult], lr_fn,
                cfg: TrainConfig, history: list[EpochRecord], patience: int,
                target_accuracy: float | None = None) -> PhaseResult:
    """Run phase k = len(phases) + 1 of a run from rest (velocities zeroed),
    shuffling and augmenting from SeedSequence([cfg.seed, k, epoch]); its
    PhaseResult, timed from call to return, is appended to ``phases`` and
    returned. If the history's last row already meets target_accuracy, the
    phase is skipped: PhaseResult(phase_name, 0, that row's valid_acc, 0.0).

    lr_fn maps the phase's iteration counter, which starts at 0 and runs on
    across epochs, to either a scalar rate or a per-group rate triple. It is
    called once per step, and its value at the first step of each epoch (the
    final-group rate when it is a triple) is what lands in the history row,
    whose epoch is its index in ``history``: a phase appending to a history
    numbers its epochs on from the rows already there. The phase ends after
    cfg.max_epochs epochs, as soon as validation accuracy meets
    target_accuracy (so it met the target exactly when its final accuracy
    does), or by early stopping: an epoch whose accuracy beats the phase's
    best so far becomes the new best, and the phase stops once more than
    `patience` epochs in a row have not, so patience cfg.max_epochs never
    stops it. The best starts at -inf on every call, so the first epoch
    always improves and an earlier phase's accuracy never carries over.
    """
    if (target_accuracy is not None and history
            and history[-1].valid_acc >= target_accuracy):
        phases.append(PhaseResult(phase_name, 0, history[-1].valid_acc, 0.0))
        return phases[-1]
    phase_start = time.perf_counter()
    model.zero_velocity()
    first_row = len(history)
    best_acc = -math.inf
    stale_epochs = 0
    t = 0
    for epoch in range(cfg.max_epochs):
        start_time = time.perf_counter()
        rng = np.random.default_rng(
            np.random.SeedSequence([cfg.seed, len(phases) + 1, epoch]))
        loss_sum = 0.0
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
            t += 1
        valid_loss, valid_acc = evaluate(model, valid_x, valid_y)
        history.append(EpochRecord(
            epoch=len(history), phase=phase_name, lr=float(epoch_lr),
            train_loss=loss_sum / len(train_x), valid_loss=valid_loss,
            valid_acc=valid_acc, seconds=time.perf_counter() - start_time))
        if target_accuracy is not None and valid_acc >= target_accuracy:
            break
        if valid_acc > best_acc:
            best_acc, stale_epochs = valid_acc, 0
        else:
            stale_epochs += 1
            if stale_epochs > patience:
                break
    phases.append(PhaseResult(phase_name, len(history) - first_row,
                              history[-1].valid_acc,
                              time.perf_counter() - phase_start))
    return phases[-1]
