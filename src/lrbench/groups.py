"""Layer groups: body/head split, feature cache, per-group rates.

A model's parameterized layers fall into three ordered groups (initial,
mid, final) by the rule of Model.param_groups. split_head cuts the model
below the final group into body and head views; the head's inputs can be
cached from one pass through the body, so the head trains without repeated
full forward passes, and the body stays fixed because only the head view
trains. Each group gets its own base learning rate scaled by a shared cosine
annealing factor so the ratios between groups never drift.

split_head, precompute_features and group_lr_at leave the model unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError
from .nn import Model, predict
from .schedule import CosineCycleConfig, lr_at

__all__ = [
    "LayerGroupRates",
    "split_head",
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
            raise ConfigError(f"group rates must all be > 0, got {self}")
        if not self.initial <= self.mid <= self.final:
            raise ConfigError(f"need initial <= mid <= final, got {self}")


def split_head(model: Model) -> tuple[Model, Model]:
    """(body, head): views of the layers below the final group's layer
    (parameter-free ones included) and of the layers from it up. Layers,
    and thus parameters and velocities, are shared with ``model``, so
    training the head view updates the real model and leaves the body as it
    was. Raises ShapeError for fewer than 3 parameterized layers."""
    cut = model.layers.index(model.param_groups()[2][0])
    return (Model(model.layers[:cut], dtype=model.dtype),
            Model(model.layers[cut:], dtype=model.dtype))


def precompute_features(body: Model, images) -> np.ndarray:
    """One deterministic pass of ``images`` through the body view from
    split_head; returns the head's input activations, one per image, in the
    model's dtype.

    No augmentation happens here. The features hold while the body does not
    change, as when only the head view trains on them. Head logits computed
    from them are bit-identical to full forward passes. Raises
    FloatingPointError on non-finite features; a non-finite activation in any
    body layer carries through to them.
    """
    out = predict(body, images)
    if not np.isfinite(out).all():
        raise FloatingPointError("non-finite cached features")
    return out


def group_lr_at(t_global: int, rates: LayerGroupRates,
                cfg: CosineCycleConfig) -> tuple[float, float, float]:
    """Per-group rates at a global iteration: each base rate times the shared
    annealing factor a(t) in [0, 1], so ratios between groups are constant."""
    factor = lr_at(t_global, replace(cfg, eta_max=1.0, eta_min=0.0))
    return (rates.initial * factor, rates.mid * factor, rates.final * factor)

