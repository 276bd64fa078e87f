"""Layer groups: head view, feature cache, per-group rates.

A model's parameterized layers fall into three ordered groups (initial,
mid, final) by the rule of Model.param_groups. The final group's input
activations can be cached so the head trains without repeated full forward
passes; the body stays fixed because that training runs on head_model, a
view that holds only the final group. Each group gets its own base learning
rate scaled by a shared cosine annealing factor so the ratios between groups
never drift.

head_model, precompute_features and group_lr_at leave the model unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .nn import Model, predict
from .schedule import CosineCycleConfig, lr_at

__all__ = [
    "LayerGroupRates",
    "head_model",
    "precompute_features",
    "group_lr_at",
]


@dataclass(frozen=True)
class LayerGroupRates:
    """Base learning rates for the three layer groups, lowest first."""

    initial: float = 1e-4
    mid: float = 1e-3
    final: float = 1e-2

    def __post_init__(self) -> None:
        if not (self.initial > 0 and self.mid > 0 and self.final > 0):
            raise ValueError(f"group rates must all be > 0, got {self}")
        if not self.initial <= self.mid <= self.final:
            raise ValueError(f"need initial <= mid <= final, got {self}")


def _head_start(model: Model) -> int:
    """Index into model.layers of the final group's layer. Parameter-free
    layers before it belong to the body."""
    return model.layers.index(model.param_groups()[2][0])


def head_model(model: Model) -> Model:
    """A view of the final group as a standalone model. Layers (and thus
    parameters and velocities) are shared with the original, so training the
    head view updates the real model and leaves the body as it was."""
    return Model(model.layers[_head_start(model):], dtype=model.dtype,
                 loss=model.loss)


def precompute_features(model: Model, images) -> np.ndarray:
    """One deterministic pass of ``images`` through the body (every layer
    below the final group); returns the final group's input activations,
    one row per image, in the model's dtype.

    No augmentation happens here. The features hold while the body does not
    change, as when only head_model(model) trains on them. Head logits
    computed from them are bit-identical to full forward passes. Raises
    FloatingPointError on non-finite features; a non-finite activation in any
    body layer carries through to them.
    """
    body = Model(model.layers[:_head_start(model)], dtype=model.dtype)
    out = predict(body, images)
    if not np.isfinite(out).all():
        raise FloatingPointError("non-finite cached features")
    return out.reshape(len(out), -1)


def group_lr_at(t_global: int, rates: LayerGroupRates,
                cfg: CosineCycleConfig) -> tuple[float, float, float]:
    """Per-group rates at a global iteration: each base rate times the shared
    annealing factor a(t) in [0, 1], so ratios between groups are constant."""
    factor = lr_at(t_global, replace(cfg, eta_max=1.0, eta_min=0.0))
    return (rates.initial * factor, rates.mid * factor, rates.final * factor)

