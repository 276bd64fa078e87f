"""Learning-rate schedule math: cosine annealing with warm restarts and
cycle-length multiplication.

A schedule is defined per iteration (per mini-batch step), not per epoch.
Cycle ``k`` lasts ``t0 * mult**k`` iterations; within a cycle the rate decays
from ``eta_max`` to ``eta_min`` along a half cosine and snaps back to
``eta_max`` at the next cycle boundary.

Everything here is a pure function of its inputs and safe to call from any
number of threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import IO, Sequence

__all__ = [
    "CosineCycleConfig",
    "InvalidScheduleError",
    "cosine_lr",
    "lr_at",
    "dump_schedule",
    "write_schedule_csv",
]


class InvalidScheduleError(ValueError):
    """A schedule config or argument violates its invariants."""


@dataclass(frozen=True)
class CosineCycleConfig:
    """Parameters of a cosine annealing schedule with warm restarts.

    ``eta_max`` is the rate at every cycle start, ``eta_min`` the value the
    decay approaches at the cycle end, ``t0`` the iteration count of the first
    cycle, and ``mult`` the cycle-length multiplication factor (each cycle is
    ``mult`` times longer than the previous one).
    """

    eta_max: float
    t0: int
    eta_min: float = 0.0
    mult: int = 2

    def __post_init__(self) -> None:
        if not (self.eta_max > self.eta_min >= 0.0):
            raise InvalidScheduleError(
                f"need eta_max > eta_min >= 0, got eta_max={self.eta_max} "
                f"eta_min={self.eta_min}"
            )
        if not isinstance(self.t0, int) or self.t0 < 1:
            raise InvalidScheduleError(f"t0 must be an integer >= 1, got {self.t0!r}")
        if not isinstance(self.mult, int) or self.mult < 1:
            raise InvalidScheduleError(f"mult must be an integer >= 1, got {self.mult!r}")


def cosine_lr(t_within: int, cycle_len: int, cfg: CosineCycleConfig) -> float:
    """Rate after ``t_within`` of ``cycle_len`` iterations of one cycle.

    Returns ``eta_min + 0.5 * (eta_max - eta_min) * (1 + cos(pi * t / T))``.
    The endpoints are returned exactly: ``eta_max`` at ``t_within == 0`` and
    ``eta_min`` at ``t_within == cycle_len``.
    """
    if cycle_len < 1:
        raise InvalidScheduleError(f"cycle length must be >= 1, got {cycle_len}")
    if not 0 <= t_within <= cycle_len:
        raise InvalidScheduleError(
            f"t_within={t_within} outside [0, {cycle_len}]"
        )
    if t_within == 0:
        return cfg.eta_max
    if t_within == cycle_len:
        return cfg.eta_min
    span = cfg.eta_max - cfg.eta_min
    return cfg.eta_min + 0.5 * span * (1.0 + math.cos(math.pi * t_within / cycle_len))


def lr_at(t_global: int, cfg: CosineCycleConfig) -> float:
    """Annealed rate at a global iteration; restarts to ``eta_max`` at every
    cycle boundary."""
    if t_global < 0:
        raise InvalidScheduleError(f"t_global must be >= 0, got {t_global}")
    if cfg.mult == 1:  # constant cycles: O(1) instead of a walk per cycle
        return cosine_lr(t_global % cfg.t0, cfg.t0, cfg)
    within = t_global
    length = cfg.t0
    while within >= length:
        within -= length
        length *= cfg.mult
    return cosine_lr(within, length, cfg)


def dump_schedule(cfg: CosineCycleConfig, n_iters: int) -> list[tuple[int, float]]:
    """The first ``n_iters`` points of the schedule as (t, rate) pairs."""
    if n_iters < 1:
        raise InvalidScheduleError(f"n_iters must be >= 1, got {n_iters}")
    return [(t, lr_at(t, cfg)) for t in range(n_iters)]


def write_schedule_csv(rows: Sequence[tuple[int, float]], out: IO[str]) -> None:
    """Write dump_schedule output as CSV with header ``t,lr``.

    Rates are printed with 18 significant digits so parsing the file
    reproduces the exact float values.
    """
    out.write("t,lr\n")
    for t, lr in rows:
        out.write(f"{t},{lr:.17e}\n")
